//! Fault-simulation observability: per-run counters exposed through
//! [`crate::sim::FaultSimReport::stats`] and printed by the bench bins.
//!
//! Since the telemetry-spine refactor these counters are **derived from**
//! an engine's [`bibs_obs::Recorder`] span tree
//! ([`SimStats::from_recorder`]) rather than hand-maintained: the engines
//! record into span counters ([`bibs_obs::CounterId`]), and `SimStats` is
//! the flattened read-model the bins print. The two views can never
//! drift because only one is written.

use bibs_obs::{CounterId, Recorder};
use std::fmt;
use std::time::Duration;

/// Counters collected by a fault-simulation engine over one run.
///
/// Since the compiled-IR refactor the stats also expose the
/// compile-vs-run split: [`SimStats::compile_wall`] is the one-time cost
/// of building the [`EvalProgram`](bibs_netlist::EvalProgram),
/// [`SimStats::gate_evals`] counts instructions actually evaluated (the
/// hardware-meaningful unit of work) and [`SimStats::stem_evals`] the
/// compiled engine's stem propagations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Pattern blocks the run counted (each block carries up to 64
    /// patterns): the blocks applied plus [`SimStats::blocks_skipped`].
    pub blocks: u64,
    /// Blocks counted without being pulled or applied: once no fault is
    /// live, the driver skips the source to the run's stop point
    /// ([`crate::sim::BlockSim::skip`]).
    pub blocks_skipped: u64,
    /// Good-machine evaluations: one per block applied while a fault is
    /// live (the evaluation is shared across all faults of the block).
    pub good_evals: u64,
    /// Live faults examined: one per live fault per block. The compiled
    /// engine traces each one to its fanout-free region's stem; the
    /// reference interpreter runs its whole faulty machine.
    pub fault_evals: u64,
    /// Stem propagations of the compiled engine: per block, one
    /// event-driven run for each fanout-free region's stem that a live
    /// fault flips, shared by the region's faults. Zero for the
    /// reference interpreter.
    pub stem_evals: u64,
    /// Stem propagations that returned early, with instructions still
    /// pending, once each of the region's faults saw its lowest flipped
    /// lane at an output.
    pub stem_stops: u64,
    /// Faults dropped from simulation after their first detection.
    pub faults_dropped: u64,
    /// Faults a mid-run prover proved undetectable and the engine
    /// stopped simulating ([`crate::sim::BlockSim::retire`]).
    pub faults_retired: u64,
    /// Wall-clock time spent evaluating blocks inside the engine.
    pub wall: Duration,
    /// One-time wall-clock cost of compiling the netlist to an
    /// [`EvalProgram`](bibs_netlist::EvalProgram) (zero for engines that
    /// reuse a caller-supplied program, and for the reference
    /// interpreter).
    pub compile_wall: Duration,
    /// Total gate evaluations (compiled instructions actually evaluated,
    /// or interpreted gate visits) across good and faulty machines. The
    /// compiled engine runs the whole program per good-machine block and,
    /// per stem propagation, only the instructions the stem's flipped
    /// lanes reach before each of the region's faults has its lowest
    /// flipped lane at an output
    /// ([`EvalProgram::eval_events`](bibs_netlist::EvalProgram::eval_events));
    /// the sensitization words of its in-region trace are not instruction
    /// evaluations and are not counted. The reference interpreter runs
    /// one whole program per fault and block, so it counts many times
    /// more for the same report.
    pub gate_evals: u64,
    /// Size of the fault universe the run accounts for (before the
    /// observability split). Zero when the caller did not run the
    /// pre-analysis pipeline.
    pub universe_faults: u64,
    /// Faults actually handed to the simulation engine (the observable
    /// ones). Equals `universe_faults` when no pre-analysis ran.
    pub simulated_faults: u64,
    /// Wall-clock time spent before simulation. The Table 2 pipeline
    /// times the compile to the evaluation IR plus the observability
    /// split; [`SimStats::from_recorder`] reads the `"analyze"` span.
    /// Zero when no pre-analysis ran.
    pub analysis_wall: Duration,
}

impl SimStats {
    /// Derives the flat counter view from an engine's span tree.
    ///
    /// Mapping (all read from the recorder's **root** span):
    ///
    /// * totals — root counters ([`CounterId::Blocks`],
    ///   [`CounterId::BlocksSkipped`], [`CounterId::GoodEvals`], [`CounterId::FaultEvals`],
    ///   [`CounterId::StemEvals`], [`CounterId::StemStops`], [`CounterId::GateEvals`],
    ///   [`CounterId::FaultsDropped`],
    ///   [`CounterId::FaultsRetired`],
    ///   [`CounterId::UniverseFaults`],
    ///   [`CounterId::SimulatedFaults`]);
    /// * [`SimStats::wall`] — the root span's accumulated wall clock (the
    ///   engines add each block's elapsed time explicitly);
    /// * [`SimStats::compile_wall`] / [`SimStats::analysis_wall`] — the
    ///   wall clocks of the `"compile"` / `"analyze"` child spans, zero
    ///   when absent.
    ///
    /// A [`Recorder::disabled`] recorder yields all-zero stats.
    pub fn from_recorder(rec: &Recorder) -> SimStats {
        let root = rec.root();
        let c = rec.span_counters(root);
        SimStats {
            blocks: c.get(CounterId::Blocks),
            blocks_skipped: c.get(CounterId::BlocksSkipped),
            good_evals: c.get(CounterId::GoodEvals),
            fault_evals: c.get(CounterId::FaultEvals),
            stem_evals: c.get(CounterId::StemEvals),
            stem_stops: c.get(CounterId::StemStops),
            faults_dropped: c.get(CounterId::FaultsDropped),
            faults_retired: c.get(CounterId::FaultsRetired),
            wall: rec.span_wall(root),
            compile_wall: rec
                .find(root, "compile")
                .map(|s| rec.span_wall(s))
                .unwrap_or(Duration::ZERO),
            gate_evals: c.get(CounterId::GateEvals),
            universe_faults: c.get(CounterId::UniverseFaults),
            simulated_faults: c.get(CounterId::SimulatedFaults),
            analysis_wall: rec
                .find(root, "analyze")
                .map(|s| rec.span_wall(s))
                .unwrap_or(Duration::ZERO),
        }
    }

    /// Live faults examined per wall-clock second (the engine's primary
    /// throughput figure); 0.0 before any time has elapsed.
    pub fn fault_evals_per_second(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.fault_evals as f64 / secs
    }

    /// Gate evaluations per wall-clock second; 0.0 before any time has
    /// elapsed.
    ///
    /// Each of the 64 lanes carries an independent pattern, so the
    /// per-pattern gate throughput is 64× this number. This is a rate of
    /// work, not of results: a stem propagation evaluates only the
    /// instructions the flipped stem reaches, and each costs a bitset
    /// pop, a comparison with the good value and reader scheduling on
    /// top of the gate itself, so a run that finishes sooner can show a
    /// lower rate. Compare runs by wall time or
    /// [`SimStats::fault_evals_per_second`], not by this rate.
    pub fn gate_evals_per_second(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.gate_evals as f64 / secs
    }

    /// Fraction of the fault universe that was actually simulated
    /// (`simulated_faults / universe_faults`) — the end-to-end shrink from
    /// the observability split plus static-untestability skipping.
    ///
    /// Always a finite value in `0.0..=1.0`: a zero-fault universe (no
    /// pre-analysis, or a kernel with literally nothing to test) reports
    /// 1.0 rather than `NaN`/`∞`, and an inconsistent
    /// `simulated > universe` pair is clamped to 1.0. Pinned by the
    /// degenerate-case tests below.
    pub fn collapse_ratio(&self) -> f64 {
        if self.universe_faults == 0 {
            return 1.0;
        }
        let r = self.simulated_faults as f64 / self.universe_faults as f64;
        if r.is_finite() {
            r.min(1.0)
        } else {
            1.0
        }
    }
}

impl fmt::Display for SimStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} block(s), {} fault evals ({:.0}/s), {} stem propagations, \
             {:.2e} gate evals ({:.2e}/s), {} dropped, {:.1} ms \
             (+{:.2} ms compile)",
            self.blocks,
            self.fault_evals,
            self.fault_evals_per_second(),
            self.stem_evals,
            self.gate_evals as f64,
            self.gate_evals_per_second(),
            self.faults_dropped,
            self.wall.as_secs_f64() * 1e3,
            self.compile_wall.as_secs_f64() * 1e3
        )?;
        if self.universe_faults > 0 {
            write!(
                f,
                "; {}/{} faults simulated (collapse {:.3}, analysis {:.2} ms)",
                self.simulated_faults,
                self.universe_faults,
                self.collapse_ratio(),
                self.analysis_wall.as_secs_f64() * 1e3
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_wall_time_gives_zero_throughput() {
        let s = SimStats::default();
        assert_eq!(s.fault_evals_per_second(), 0.0);
        assert_eq!(s.gate_evals_per_second(), 0.0);
    }

    #[test]
    fn gate_throughput_counts_instructions() {
        let s = SimStats {
            gate_evals: 1_000,
            wall: Duration::from_millis(500),
            ..SimStats::default()
        };
        assert!((s.gate_evals_per_second() - 2_000.0).abs() < 1e-6);
    }

    #[test]
    fn display_renders() {
        let s = SimStats::default();
        let line = s.to_string();
        assert!(line.starts_with("0 block(s), 0 fault evals (0/s)"));
        assert!(line.contains("gate evals"));
        assert!(line.contains("compile"));
        assert!(
            !line.contains("collapse"),
            "analysis block hidden without a universe"
        );
    }

    #[test]
    fn degenerate_universes_clamp_collapse_ratio() {
        // Zero-fault universe: defined, not NaN.
        let mut s = SimStats::default();
        assert_eq!(s.collapse_ratio(), 1.0);
        assert!(s.collapse_ratio().is_finite());
        // Simulated > universe (inconsistent caller): clamped to 1.0.
        s.universe_faults = 10;
        s.simulated_faults = 20;
        assert_eq!(s.collapse_ratio(), 1.0);
        // Normal case untouched.
        s.simulated_faults = 5;
        assert!((s.collapse_ratio() - 0.5).abs() < 1e-12);
        // Display of a fully degenerate stats value never panics.
        let line = SimStats::default().to_string();
        assert!(line.contains("0 block(s)"));
    }

    #[test]
    fn from_recorder_derives_the_flat_view() {
        use bibs_obs::{CounterId as C, Recorder};
        let mut rec = Recorder::new("fault-sim[par]");
        let c = rec.enter("compile");
        rec.add(C::Instructions, 10);
        rec.exit(c);
        let root = rec.root();
        rec.add_to(root, C::Blocks, 3);
        rec.add_to(root, C::GoodEvals, 3);
        rec.add_to(root, C::GateEvals, 150);
        rec.add_to(root, C::FaultEvals, 12);
        rec.add_to(root, C::StemEvals, 4);
        rec.add_to(root, C::StemStops, 3);
        rec.add_to(root, C::FaultsDropped, 2);
        rec.add_wall(root, Duration::from_millis(5));

        let stats = SimStats::from_recorder(&rec);
        assert_eq!(stats.blocks, 3);
        assert_eq!(stats.good_evals, 3);
        assert_eq!(stats.fault_evals, 12);
        assert_eq!(stats.stem_evals, 4);
        assert_eq!(stats.stem_stops, 3);
        assert_eq!(stats.gate_evals, 150);
        assert_eq!(stats.faults_dropped, 2);
        assert_eq!(stats.wall, Duration::from_millis(5));
        assert!(stats.compile_wall <= stats.wall.max(Duration::from_secs(1)));
        assert_eq!(stats.analysis_wall, Duration::ZERO);
        // A disabled recorder derives all-zero stats.
        assert_eq!(
            SimStats::from_recorder(&Recorder::disabled()),
            SimStats::default()
        );
    }

    #[test]
    fn from_recorder_reads_the_skipped_blocks() {
        use bibs_obs::{CounterId as C, Recorder};
        let mut rec = Recorder::new("fault-sim[par]");
        let root = rec.root();
        rec.add_to(root, C::Blocks, 5);
        rec.add_to(root, C::GoodEvals, 2);
        rec.add_to(root, C::BlocksSkipped, 3);
        let stats = SimStats::from_recorder(&rec);
        assert_eq!(
            (stats.blocks, stats.good_evals, stats.blocks_skipped),
            (5, 2, 3)
        );
    }

    #[test]
    fn collapse_ratio_and_display_with_universe() {
        let mut s = SimStats::default();
        assert_eq!(s.collapse_ratio(), 1.0, "no pre-analysis");
        s.universe_faults = 200;
        s.simulated_faults = 120;
        s.analysis_wall = Duration::from_millis(2);
        assert!((s.collapse_ratio() - 0.6).abs() < 1e-9);
        let line = s.to_string();
        assert!(line.contains("120/200 faults simulated"));
        assert!(line.contains("collapse 0.600"));
        assert!(line.contains("analysis 2.00 ms"));
    }
}
