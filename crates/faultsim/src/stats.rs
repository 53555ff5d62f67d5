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
    /// Stem propagations of the compiled engine: per block, one sweep
    /// of the fanout cone of each fanout-free region's stem that a live
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
}

impl SimStats {
    /// Records the engine's counters as one closed child span `label` of
    /// `rec`'s current span. The span's wall clock is [`SimStats::wall`],
    /// the block-evaluation time, plus the moment the recording itself
    /// takes. `patterns` is the run's
    /// [`patterns_applied`](crate::sim::FaultSimReport::patterns_applied),
    /// recorded as [`CounterId::PatternsConsumed`]. A
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
    /// work, not of results: a stem propagation sweeps the instructions
    /// of the stem's fanout cone, whether or not a difference reaches
    /// each, so a run that evaluates fewer instructions for the same
    /// report can show a lower rate. Compare runs by wall time or
    /// [`SimStats::fault_evals_per_second`], not by this rate.
    pub fn gate_evals_per_second(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.gate_evals as f64 / secs
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
        )
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
}
