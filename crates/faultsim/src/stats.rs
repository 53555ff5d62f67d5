//! Fault-simulation observability: per-run counters exposed through
//! [`crate::sim::FaultSimReport::stats`] and printed by the bench bins.
//!
//! Since the telemetry-spine refactor these counters are **derived from**
//! an engine's [`bibs_obs::Recorder`] span tree
//! ([`SimStats::from_recorder`]) rather than hand-maintained: the engines
//! record into span counters ([`bibs_obs::CounterId`]) and per-shard
//! detail spans, and `SimStats` is the flattened read-model the bins
//! print. The two views can never drift because only one is written.

use bibs_obs::{CounterId, Recorder};
use std::fmt;
use std::time::Duration;

/// Counters collected by a fault-simulation engine over one run.
///
/// A one-thread engine reports itself as a single shard; a sharded
/// engine reports one entry per worker in
/// [`SimStats::per_shard_fault_evals`], which makes load imbalance (e.g.
/// from fault dropping) directly visible.
///
/// Since the compiled-IR refactor the stats also expose the
/// compile-vs-run split: [`SimStats::compile_wall`] is the one-time cost
/// of building the [`EvalProgram`](bibs_netlist::EvalProgram),
/// [`SimStats::gate_evals`] counts instructions actually evaluated (the
/// hardware-meaningful unit of work).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Worker threads the engine was configured with (1 for an engine
    /// built with `ParFaultSimulator::new` and for the reference
    /// interpreter).
    pub threads: usize,
    /// Pattern blocks applied (each block carries up to 64 patterns),
    /// including those of sweeps with no live fault left.
    pub blocks: u64,
    /// Good-machine evaluations: one per sweep that still has a live
    /// fault (the evaluation is shared across all faults of the sweep's
    /// 1, 4 or 8 blocks).
    pub good_evals: u64,
    /// Total faulty-machine evaluations across all shards.
    pub fault_evals: u64,
    /// Faulty-machine evaluations per worker shard.
    pub per_shard_fault_evals: Vec<u64>,
    /// Faults dropped from simulation after their first detection.
    pub faults_dropped: u64,
    /// Faults a mid-run prover proved undetectable and the engine
    /// stopped simulating ([`crate::sim::BlockSim::retire`]).
    pub faults_retired: u64,
    /// Wall-clock time spent inside the engine's sweeps.
    pub wall: Duration,
    /// One-time wall-clock cost of compiling the netlist to an
    /// [`EvalProgram`](bibs_netlist::EvalProgram) (zero for engines that
    /// reuse a caller-supplied program, and for the reference
    /// interpreter).
    pub compile_wall: Duration,
    /// Total gate evaluations (compiled instructions actually evaluated,
    /// or interpreted gate visits) across good and faulty machines. The
    /// compiled engine runs the whole program per good-machine sweep but
    /// only the instructions a fault's effect reaches per faulty machine
    /// ([`EvalProgram::eval_events`](bibs_netlist::EvalProgram::eval_events)),
    /// so the reference interpreter, which runs whole programs, counts
    /// several times more for the same report.
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
    /// Simulation lane width: 64 by default (and for the reference
    /// interpreter), 256/512 for an engine widened via `with_lanes`. [`SimStats::gate_evals`] is
    /// lane-normalized (a wide sweep counts `instructions × lane words`),
    /// so throughput figures stay comparable across widths.
    pub lanes: u64,
}

impl SimStats {
    /// Fresh counters for an engine with `threads` workers.
    pub fn new(threads: usize) -> Self {
        SimStats {
            threads,
            per_shard_fault_evals: vec![0; threads],
            lanes: 64,
            ..SimStats::default()
        }
    }

    /// Derives the flat counter view from an engine's span tree.
    ///
    /// Mapping (all read from the recorder's **root** span):
    ///
    /// * totals — root counters ([`CounterId::Blocks`],
    ///   [`CounterId::GoodEvals`], [`CounterId::FaultEvals`],
    ///   [`CounterId::GateEvals`], [`CounterId::FaultsDropped`],
    ///   [`CounterId::FaultsRetired`],
    ///   [`CounterId::UniverseFaults`],
    ///   [`CounterId::SimulatedFaults`]);
    /// * [`SimStats::per_shard_fault_evals`] — the per-shard *detail*
    ///   children under the root ([`Recorder::shard_counter`]), one entry
    ///   per configured worker (0 for shards that never reported);
    /// * [`SimStats::wall`] — the root span's accumulated wall clock (the
    ///   engines add each sweep's elapsed time explicitly);
    /// * [`SimStats::compile_wall`] / [`SimStats::analysis_wall`] — the
    ///   wall clocks of the `"compile"` / `"analyze"` child spans, zero
    ///   when absent.
    ///
    /// A [`Recorder::disabled`] recorder yields all-zero stats.
    pub fn from_recorder(rec: &Recorder, threads: usize) -> SimStats {
        let root = rec.root();
        let c = rec.span_counters(root);
        SimStats {
            threads,
            blocks: c.get(CounterId::Blocks),
            good_evals: c.get(CounterId::GoodEvals),
            fault_evals: c.get(CounterId::FaultEvals),
            per_shard_fault_evals: (0..threads)
                .map(|i| rec.shard_counter(root, i as u32, CounterId::FaultEvals))
                .collect(),
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
            // Scalar engines never record the counter; absent means the
            // 64-lane default.
            lanes: match c.get(CounterId::Lanes) {
                0 => 64,
                l => l,
            },
        }
    }

    /// Faulty-machine evaluations per good-machine sweep — the PPSFP
    /// batching figure (how many faults each wide good evaluation was
    /// amortized over); 0.0 before any sweep ran.
    pub fn faults_per_sweep(&self) -> f64 {
        if self.good_evals == 0 {
            return 0.0;
        }
        self.fault_evals as f64 / self.good_evals as f64
    }

    /// Faulty-machine evaluations per wall-clock second (the engine's
    /// primary throughput figure); 0.0 before any time has elapsed.
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
    /// work, not of results: a faulty machine evaluates only the
    /// instructions its fault's effect reaches, and each costs a bitset
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

    /// Ratio of the busiest shard's evaluation count to the mean — 1.0 is
    /// perfect balance.
    ///
    /// Always finite and `>= 1.0`: an empty shard list (zero-thread
    /// stats), a run where nothing was evaluated, or any division that
    /// would produce `NaN`/`∞` all report the neutral 1.0. Pinned by the
    /// degenerate-case tests below.
    pub fn shard_imbalance(&self) -> f64 {
        let n = self.per_shard_fault_evals.len();
        if n == 0 || self.fault_evals == 0 {
            return 1.0;
        }
        let max = *self
            .per_shard_fault_evals
            .iter()
            .max()
            .expect("non-empty shard list") as f64;
        let mean = self.fault_evals as f64 / n as f64;
        if mean <= 0.0 {
            return 1.0;
        }
        let r = max / mean;
        if r.is_finite() {
            r.max(1.0)
        } else {
            1.0
        }
    }
}

impl fmt::Display for SimStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} thread(s), {} block(s), {} fault evals ({:.0}/s, imbalance {:.2}), \
             {:.2e} gate evals ({:.2e}/s), {} dropped, {:.1} ms \
             (+{:.2} ms compile)",
            self.threads,
            self.blocks,
            self.fault_evals,
            self.fault_evals_per_second(),
            self.shard_imbalance(),
            self.gate_evals as f64,
            self.gate_evals_per_second(),
            self.faults_dropped,
            self.wall.as_secs_f64() * 1e3,
            self.compile_wall.as_secs_f64() * 1e3
        )?;
        // Only widened runs mention lanes, keeping 64-lane output
        // byte-identical to pre-wide baselines.
        if self.lanes > 64 {
            write!(
                f,
                "; {} lanes ({:.1} faults/sweep)",
                self.lanes,
                self.faults_per_sweep()
            )?;
        }
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
    fn imbalance_of_even_shards_is_one() {
        let mut s = SimStats::new(4);
        s.per_shard_fault_evals = vec![10, 10, 10, 10];
        s.fault_evals = 40;
        assert!((s.shard_imbalance() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn imbalance_detects_skew() {
        let mut s = SimStats::new(2);
        s.per_shard_fault_evals = vec![30, 10];
        s.fault_evals = 40;
        assert!((s.shard_imbalance() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn zero_wall_time_gives_zero_throughput() {
        let s = SimStats::new(1);
        assert_eq!(s.fault_evals_per_second(), 0.0);
        assert_eq!(s.gate_evals_per_second(), 0.0);
    }

    #[test]
    fn gate_throughput_counts_instructions() {
        let mut s = SimStats::new(1);
        s.gate_evals = 1_000;
        s.wall = Duration::from_millis(500);
        assert!((s.gate_evals_per_second() - 2_000.0).abs() < 1e-6);
    }

    #[test]
    fn display_renders() {
        let s = SimStats::new(2);
        let line = s.to_string();
        assert!(line.contains("2 thread(s)"));
        assert!(line.contains("gate evals"));
        assert!(line.contains("compile"));
        assert!(
            !line.contains("collapse"),
            "analysis block hidden without a universe"
        );
    }

    #[test]
    fn degenerate_shard_lists_clamp_to_one() {
        // Zero threads: empty shard list must not divide by zero.
        let mut s = SimStats::new(0);
        assert_eq!(s.shard_imbalance(), 1.0);
        assert!(s.shard_imbalance().is_finite());
        // Evaluations recorded but no shard entries (a hand-built stats
        // value a careless caller could produce): still defined.
        s.fault_evals = 10;
        assert_eq!(s.shard_imbalance(), 1.0);
        // Shards present but nothing evaluated.
        let s = SimStats::new(4);
        assert_eq!(s.shard_imbalance(), 1.0);
        // Inconsistent totals (fault_evals == 0 but shards nonzero).
        let mut s = SimStats::new(2);
        s.per_shard_fault_evals = vec![5, 0];
        assert_eq!(s.shard_imbalance(), 1.0, "fault_evals=0 short-circuits");
        // The result is never below 1.0 even with an inconsistent max.
        let mut s = SimStats::new(2);
        s.per_shard_fault_evals = vec![1, 1];
        s.fault_evals = 100;
        assert!(s.shard_imbalance() >= 1.0);
    }

    #[test]
    fn degenerate_universes_clamp_collapse_ratio() {
        // Zero-fault universe: defined, not NaN.
        let mut s = SimStats::new(1);
        s.universe_faults = 0;
        s.simulated_faults = 0;
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
        let line = SimStats::new(0).to_string();
        assert!(line.contains("0 thread(s)"));
    }

    #[test]
    fn from_recorder_derives_the_flat_view() {
        use bibs_obs::{CounterId as C, Recorder, ShardCounters};
        let mut rec = Recorder::new("fault-sim[par]");
        let c = rec.enter("compile");
        rec.add(C::Instructions, 10);
        rec.exit(c);
        let root = rec.root();
        rec.add_to(root, C::Blocks, 3);
        rec.add_to(root, C::GoodEvals, 3);
        rec.add_to(root, C::GateEvals, 30);
        rec.add_to(root, C::FaultsDropped, 2);
        let mut s0 = ShardCounters::new();
        s0.add(C::FaultEvals, 8);
        s0.add(C::GateEvals, 80);
        let mut s1 = ShardCounters::new();
        s1.add(C::FaultEvals, 4);
        s1.add(C::GateEvals, 40);
        rec.attach_shard(root, 0, &s0);
        rec.attach_shard(root, 1, &s1);
        rec.add_wall(root, Duration::from_millis(5));

        let stats = SimStats::from_recorder(&rec, 2);
        assert_eq!(stats.threads, 2);
        assert_eq!(stats.blocks, 3);
        assert_eq!(stats.good_evals, 3);
        assert_eq!(stats.fault_evals, 12);
        assert_eq!(stats.per_shard_fault_evals, vec![8, 4]);
        assert_eq!(stats.gate_evals, 150);
        assert_eq!(stats.faults_dropped, 2);
        assert_eq!(stats.wall, Duration::from_millis(5));
        assert!(stats.compile_wall <= stats.wall.max(Duration::from_secs(1)));
        assert_eq!(stats.analysis_wall, Duration::ZERO);
        // Shards that never reported read as zero.
        let wide = SimStats::from_recorder(&rec, 4);
        assert_eq!(wide.per_shard_fault_evals, vec![8, 4, 0, 0]);
        // A disabled recorder derives all-zero stats.
        let empty = SimStats::from_recorder(&Recorder::disabled(), 1);
        assert_eq!(empty.fault_evals, 0);
        assert_eq!(empty.per_shard_fault_evals, vec![0]);
    }

    #[test]
    fn lanes_default_and_wide_display() {
        // new() and a recorder without the lanes counter both report the
        // scalar 64-lane default, and the Display line stays free of any
        // lanes mention (byte-compat with pre-wide output).
        let s = SimStats::new(1);
        assert_eq!(s.lanes, 64);
        assert!(!s.to_string().contains("lanes"));
        let rec = bibs_obs::Recorder::new("fault-sim[serial]");
        assert_eq!(SimStats::from_recorder(&rec, 1).lanes, 64);
        // A widened engine surfaces the width and the PPSFP ratio.
        let mut rec = bibs_obs::Recorder::new("fault-sim[serial]");
        let root = rec.root();
        rec.add_to(root, CounterId::Lanes, 512);
        rec.add_to(root, CounterId::GoodEvals, 2);
        let mut sh = bibs_obs::ShardCounters::new();
        sh.add(CounterId::FaultEvals, 10);
        rec.attach_shard(root, 0, &sh);
        let s = SimStats::from_recorder(&rec, 1);
        assert_eq!(s.lanes, 512);
        assert!((s.faults_per_sweep() - 5.0).abs() < 1e-9);
        assert!(s.to_string().contains("512 lanes (5.0 faults/sweep)"));
    }

    #[test]
    fn faults_per_sweep_guards_zero_sweeps() {
        let s = SimStats::new(1);
        assert_eq!(s.faults_per_sweep(), 0.0);
    }

    #[test]
    fn collapse_ratio_and_display_with_universe() {
        let mut s = SimStats::new(1);
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
