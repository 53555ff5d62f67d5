//! Fault-simulation observability: per-run counters exposed through
//! [`crate::sim::FaultSimReport::stats`] and printed by the bench bins.
//!
//! A `SimStats` is an engine's only set of books: each engine adds to its
//! own as it applies, retires and skips blocks, and its report clones it.
//! A pipeline that keeps a telemetry span tree writes the finished stats
//! into it once, as one span ([`SimStats::record`]), so the counters a
//! bin prints and the counters a `--telemetry` export carries are the same
//! numbers.

use bibs_obs::{CounterId, Recorder};
use std::fmt;
use std::time::Duration;

/// Counters collected by a fault-simulation engine over one run.
///
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
    /// Stem propagations that returned early, with cone instructions
    /// left, once each of the region's faults saw its lowest flipped lane
    /// at an output.
    pub stem_stops: u64,
    /// Faults dropped from simulation after their first detection.
    pub faults_dropped: u64,
    /// Faults a mid-run prover proved undetectable and the engine
    /// stopped simulating ([`crate::sim::BlockSim::retire`]).
    pub faults_retired: u64,
    /// Wall-clock time spent evaluating blocks inside the engine.
    pub wall: Duration,
    /// Total gate evaluations (compiled instructions actually evaluated,
    /// or interpreted gate visits) across good and faulty machines. The
    /// compiled engine runs the whole program per good-machine block and,
    /// per stem propagation, the stem's fanout cone in schedule order until
    /// each of the region's faults has its lowest flipped lane at an
    /// output ([`EvalProgram::sweep`](bibs_netlist::EvalProgram::sweep)),
    /// whether or not a difference reaches each instruction;
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
    /// Wall-clock time spent before simulation: the Table 2 pipeline
    /// times the compile to the evaluation IR plus the observability
    /// split. Zero when no pre-analysis ran.
    pub analysis_wall: Duration,
}

impl SimStats {
    /// Records the engine's counters as one closed child span `label` of
    /// `rec`'s current span. The span's wall clock is [`SimStats::wall`],
    /// the block-evaluation time, plus the moment the recording itself
    /// takes. `patterns` is the run's
    /// [`patterns_applied`](crate::sim::FaultSimReport::patterns_applied),
    /// recorded as [`CounterId::PatternsConsumed`]. The pre-analysis
    /// fields ([`SimStats::universe_faults`],
    /// [`SimStats::simulated_faults`], [`SimStats::analysis_wall`])
    /// belong to the pipeline's own spans and are not recorded here. A
    /// [`Recorder::disabled`] recorder records nothing.
    pub fn record(&self, label: &str, patterns: u64, rec: &mut Recorder) {
        let span = rec.enter(label);
        for (id, n) in [
            (CounterId::GateEvals, self.gate_evals),
            (CounterId::GoodEvals, self.good_evals),
            (CounterId::FaultEvals, self.fault_evals),
            (CounterId::FaultsDropped, self.faults_dropped),
            (CounterId::Blocks, self.blocks),
            (CounterId::PatternsConsumed, patterns),
            (CounterId::FaultsRetired, self.faults_retired),
            (CounterId::StemEvals, self.stem_evals),
            (CounterId::BlocksSkipped, self.blocks_skipped),
            (CounterId::StemStops, self.stem_stops),
        ] {
            rec.add(id, n);
        }
        rec.exit(span);
        rec.add_wall(span, self.wall);
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
             {:.2e} gate evals ({:.2e}/s), {} dropped, {:.1} ms",
            self.blocks,
            self.fault_evals,
            self.fault_evals_per_second(),
            self.stem_evals,
            self.gate_evals as f64,
            self.gate_evals_per_second(),
            self.faults_dropped,
            self.wall.as_secs_f64() * 1e3
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
    fn record_exports_one_span_of_the_engine_counters() {
        let stats = SimStats {
            blocks: 5,
            blocks_skipped: 3,
            good_evals: 2,
            fault_evals: 12,
            stem_evals: 4,
            stem_stops: 3,
            faults_dropped: 7,
            faults_retired: 1,
            wall: Duration::from_millis(5),
            gate_evals: 150,
            universe_faults: 40,
            simulated_faults: 30,
            analysis_wall: Duration::from_millis(2),
        };
        let mut rec = Recorder::new("kernel 0");
        stats.record("fault-sim[par]", 320, &mut rec);
        rec.finish();
        assert_eq!(
            rec.to_json(false),
            "{\"schema\":\"bibs-telemetry/1\",\"root\":{\"label\":\"kernel 0\",\
             \"counters\":{},\"children\":[{\"label\":\"fault-sim[par]\",\"counters\":{\
             \"gate_evals\":150,\"good_evals\":2,\"fault_evals\":12,\"faults_dropped\":7,\
             \"blocks\":5,\"patterns_consumed\":320,\"faults_retired\":1,\
             \"stem_evals\":4,\"blocks_skipped\":3,\"stem_stops\":3},\"children\":[]}]}}\n"
        );
        let span = rec.find(rec.root(), "fault-sim[par]").expect("recorded");
        assert!(rec.span_wall(span) >= stats.wall);
        // Zero counters are not exported, and a disabled recorder
        // records nothing.
        let mut rec = Recorder::new("kernel 1");
        SimStats::default().record("fault-sim[reference]", 0, &mut rec);
        assert!(rec
            .to_json(false)
            .contains("{\"label\":\"fault-sim[reference]\",\"counters\":{},\"children\":[]}"));
        let mut off = Recorder::disabled();
        stats.record("fault-sim[par]", 320, &mut off);
        assert!(off.aggregate().is_zero());
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
