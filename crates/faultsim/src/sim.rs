//! Parallel-pattern single-fault-propagation simulation with fault
//! dropping.
//!
//! [`BlockSim`] is the engine interface. An engine supplies an *apply* —
//! one good-machine evaluation of a 64-lane block, then every live fault
//! against it, dropping the faults it detects — and a *retire* that takes
//! faults a prover has shown undetectable off the live list. The
//! pattern-stream driver, [`BlockSim::run`], is provided here **once**:
//! a caller hands it any [`PatternSource`] and a [`Stop`], so every
//! engine draws the same blocks and stops at the same pattern by
//! construction. [`BlockSim::run_exhaustive`] and
//! [`BlockSim::run_patterns`] build the stream for the caller and call
//! it. The engines are [`crate::par::ParFaultSimulator`] (the compiled
//! engine) and [`crate::reference::ReferenceSimulator`] (the seed
//! interpreter).
//!
//! A run's [`Stop`] may carry a prover. Once the run has gone
//! [`PROVE_AFTER`] patterns without a detection, the driver hands the
//! live faults to it once and the engine retires the ones it proves
//! undetectable. Once no fault is live, no later block can detect one,
//! so the driver moves the source to the run's stop point with one
//! [`PatternSource::skip`] and the engine counts the skipped blocks
//! ([`BlockSim::skip`]). A proved-undetectable fault is never detected,
//! so the report, the stop, the block count and the source's accounting
//! stay exactly those of a run without the prover.

use crate::fault::Fault;
use crate::source::{ExhaustiveSource, PatternBlock, PatternList, PatternSource, RandomWords};
use crate::stats::SimStats;
use bibs_netlist::Netlist;
use rand::Rng;

/// The outcome of a fault simulation run.
#[derive(Debug, Clone)]
pub struct FaultSimReport {
    faults: Vec<Fault>,
    detection: Vec<Option<u64>>,
    patterns_applied: u64,
    stats: SimStats,
}

impl FaultSimReport {
    /// Assembles a report from engine state. Crate-internal: only the
    /// engines build reports.
    pub(crate) fn from_parts(
        faults: Vec<Fault>,
        detection: Vec<Option<u64>>,
        patterns_applied: u64,
        stats: SimStats,
    ) -> Self {
        FaultSimReport {
            faults,
            detection,
            patterns_applied,
            stats,
        }
    }

    /// The simulated fault list.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// First-detection pattern index per fault, aligned with
    /// [`FaultSimReport::faults`].
    pub fn detection(&self) -> &[Option<u64>] {
        &self.detection
    }

    /// Total number of patterns applied.
    pub fn patterns_applied(&self) -> u64 {
        self.patterns_applied
    }

    /// Engine counters for this run (throughput, evaluations, drops).
    ///
    /// Purely observational: two runs that are bit-identical in
    /// [`FaultSimReport::detection`] may still differ here (wall time;
    /// the engines count gate evaluations differently).
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Number of detected faults.
    pub fn detected_count(&self) -> usize {
        self.detection.iter().filter(|d| d.is_some()).count()
    }

    /// The faults never detected.
    pub fn undetected(&self) -> Vec<Fault> {
        self.faults
            .iter()
            .zip(&self.detection)
            .filter(|(_, d)| d.is_none())
            .map(|(f, _)| *f)
            .collect()
    }

    /// Fault coverage as a fraction of the simulated fault list.
    pub fn coverage(&self) -> f64 {
        if self.faults.is_empty() {
            return 1.0;
        }
        self.detected_count() as f64 / self.faults.len() as f64
    }
}

/// Patterns a run goes without a detection before [`BlockSim::run`]
/// calls its [`Stop::prover`]: short next to Table 2's 100,000-pattern
/// plateau, and well past the last random detection on the paper's
/// datapaths (by pattern 64–384), so the faults the prover sees are
/// mostly the ones it can prove. A run whose plateau is at most this long
/// stops first, so it never calls the prover.
pub const PROVE_AFTER: u64 = 1024;

/// When [`BlockSim::run`] stops, and the prover it may call on the way.
///
/// The run stops when the source runs dry, `max_patterns` is reached,
/// every fault of the simulated list is detected, or no new fault has
/// been detected for `plateau` consecutive patterns.
/// [`Stop::after`] sets only the pattern cap.
pub struct Stop<'p> {
    /// Cap on applied patterns.
    pub max_patterns: u64,
    /// Consecutive patterns without a new detection that end the run.
    pub plateau: u64,
    /// Called at most once per run, with each live fault in turn,
    /// before the first block at which the run has gone [`PROVE_AFTER`]
    /// patterns without a detection; `true` means the fault is proved
    /// undetectable and the engine stops simulating it
    /// ([`BlockSim::retire`]). A prover that returns `true` for a
    /// detectable fault makes the report wrong.
    pub prover: Option<&'p mut dyn FnMut(Fault) -> bool>,
}

impl Stop<'_> {
    /// Stops only at `max_patterns` (or when the source runs dry or every
    /// fault is detected), with no prover.
    pub fn after(max_patterns: u64) -> Self {
        Stop {
            max_patterns,
            plateau: max_patterns,
            prover: None,
        }
    }
}

/// The block-level fault-simulation engine interface.
///
/// Implementors supply [`BlockSim::apply`] and [`BlockSim::retire`]; the
/// pattern-stream driver is provided here **once** so that every engine
/// draws the same source blocks and stops at the same pattern — the
/// foundation of the engine equivalence guarantee.
pub trait BlockSim {
    /// The simulated netlist.
    fn netlist(&self) -> &Netlist;

    /// First-detection pattern index per fault (current state).
    fn detection(&self) -> &[Option<u64>];

    /// Total number of patterns applied so far.
    fn patterns_applied(&self) -> u64;

    /// The current report (can be taken mid-run).
    fn report(&self) -> FaultSimReport;

    /// Applies the first `lanes` lanes (1..=64) of `block`: one
    /// good-machine evaluation, then every live fault against it (PPSFP);
    /// with no live fault the block evaluates nothing. A fault first
    /// detected in lane `k` gets the detection index
    /// `patterns_applied + k` and is dropped from later blocks; the
    /// pattern counter then advances by `lanes`. Returns how many faults
    /// the block first detected.
    fn apply(&mut self, block: &PatternBlock, lanes: usize) -> usize;

    /// Hands each live fault to `prover` and stops simulating the ones it
    /// returns `true` for. Records no detection: a retired fault stays
    /// undetected in every later report. Returns how many were retired.
    /// Each engine asks in its own list order (the compiled engine in
    /// stem order), so a prover's verdict must depend only on the fault.
    fn retire(&mut self, prover: &mut dyn FnMut(Fault) -> bool) -> usize;

    /// Counts `blocks` blocks carrying `patterns` patterns that the
    /// driver skipped rather than applied, as applying them would count
    /// them: the pattern counter advances by `patterns`, and the blocks
    /// add to the `blocks` and `blocks_skipped` counters.
    ///
    /// # Panics
    ///
    /// Panics if a fault is still live: only a block with no live fault
    /// can go unapplied without changing the report.
    fn skip(&mut self, blocks: u64, patterns: u64);

    /// [`BlockSim::run`] on [`RandomWords::from_rng`]`(rng)` with a
    /// detection plateau and no prover. It remains only because the
    /// benchmark crate (`benchmark/src/trace.rs`) calls it; the next
    /// change to the benchmark deletes it.
    fn run_random_with_plateau(
        &mut self,
        rng: &mut impl Rng,
        max_patterns: u64,
        plateau: u64,
    ) -> FaultSimReport
    where
        Self: Sized,
    {
        self.run(
            &mut RandomWords::from_rng(rng),
            Stop {
                plateau,
                ..Stop::after(max_patterns)
            },
        )
    }

    /// [`BlockSim::run`] with a detection plateau and no prover. `target`
    /// is not a setting: a run stops on coverage only once every fault is
    /// detected, so it must be 1.0. The method remains only because the
    /// benchmark crate (`benchmark/src/trace.rs`) calls it; the next
    /// change to the benchmark deletes it.
    ///
    /// # Panics
    ///
    /// Panics if `target` is not 1.0.
    fn run_source_with(
        &mut self,
        source: &mut (impl PatternSource + ?Sized),
        max_patterns: u64,
        plateau: u64,
        target: f64,
    ) -> FaultSimReport
    where
        Self: Sized,
    {
        assert_eq!(target, 1.0, "a run stops on coverage only at 1.0");
        self.run(
            source,
            Stop {
                plateau,
                ..Stop::after(max_patterns)
            },
        )
    }

    /// The stream driver: pulls blocks from `source` one at a time until
    /// `stop` says to stop, and returns the report.
    ///
    /// The stop conditions are checked before every block, a block is
    /// pulled only to be applied, and blocks are skipped only once no
    /// fault is live, so the source's [`PatternSource::clocks_consumed`]
    /// and `patterns_emitted` account for exactly the blocks the run
    /// counted. A block whose lane count would overshoot `max_patterns`
    /// is truncated (the source still accounts the full block's clocks,
    /// exactly like the hardware it models would have).
    ///
    /// With a [`Stop::prover`], the first block that starts
    /// [`PROVE_AFTER`] or more patterns after the last detection, while
    /// some fault is undetected, is preceded by one [`BlockSim::retire`].
    /// If that leaves no fault live, the run's stop point is already
    /// known: `max_patterns`, or the last detection plus `plateau` if
    /// that comes first. One [`PatternSource::skip`] moves the source
    /// there, and [`BlockSim::skip`] counts its blocks and patterns (cut
    /// at `max_patterns`) instead of applying them. Retiring changes which
    /// faults a block evaluates, never which blocks the source emits,
    /// how many blocks the run counts or where it stops.
    ///
    /// # Panics
    ///
    /// Panics if a source block's width disagrees with the netlist's
    /// input width, or a block carries 0 or more than 64 lanes.
    fn run(&mut self, source: &mut (impl PatternSource + ?Sized), stop: Stop<'_>) -> FaultSimReport
    where
        Self: Sized,
    {
        let Stop {
            max_patterns,
            plateau,
            mut prover,
        } = stop;
        let width = self.netlist().input_width();
        let n_faults = self.detection().len();
        let mut detected = self.detection().iter().filter(|d| d.is_some()).count();
        let mut retired = 0;
        let mut last_detection_at = 0u64;
        loop {
            let applied = self.patterns_applied();
            let idle = applied.saturating_sub(last_detection_at);
            if !(applied < max_patterns && detected < n_faults && idle < plateau) {
                break;
            }
            if idle >= PROVE_AFTER {
                if let Some(prover) = prover.take() {
                    retired = self.retire(prover);
                }
            }
            if detected + retired == n_faults {
                // No fault is live, so no later block detects one.
                let stop_at = max_patterns.min(last_detection_at.saturating_add(plateau));
                let (blocks, patterns) = source.skip(width, stop_at - applied);
                self.skip(blocks, patterns.min(max_patterns - applied));
                break;
            }
            let Some(block) = source.next_block(width) else {
                break;
            };
            assert_eq!(block.words.len(), width, "source block width mismatch");
            assert!(
                (1..=64).contains(&block.lanes),
                "source blocks carry 1..=64 lanes"
            );
            let lanes = (block.lanes as u64).min(max_patterns - applied) as usize;
            let hits = self.apply(&block, lanes);
            if hits > 0 {
                detected += hits;
                last_detection_at = self.patterns_applied();
            }
        }
        self.report()
    }

    /// Applies all `2^w` input patterns (w = input width) from an
    /// [`ExhaustiveSource`], stopping once every fault is detected.
    ///
    /// # Panics
    ///
    /// Panics if the input width exceeds 24 (exhaustive application would
    /// be unreasonable).
    fn run_exhaustive(&mut self) -> FaultSimReport
    where
        Self: Sized,
    {
        let width = self.netlist().input_width();
        assert!(width <= 24, "exhaustive simulation capped at 24 inputs");
        self.run(&mut ExhaustiveSource::new(width), Stop::after(u64::MAX))
    }

    /// Applies an explicit pattern sequence (each pattern one `bool` per
    /// input), in blocks of 64, stopping once every fault is detected.
    ///
    /// # Panics
    ///
    /// Panics if an applied pattern's width differs from the input width.
    fn run_patterns(&mut self, patterns: &[Vec<bool>]) -> FaultSimReport
    where
        Self: Sized,
    {
        let width = self.netlist().input_width();
        self.run(
            &mut PatternList::new(patterns, width),
            Stop::after(u64::MAX),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultUniverse;
    use crate::par::ParFaultSimulator;
    use bibs_netlist::builder::NetlistBuilder;

    fn adder4() -> Netlist {
        let mut b = NetlistBuilder::new("add4");
        let a = b.input_word("a", 4);
        let c = b.input_word("b", 4);
        let (s, co) = b.ripple_carry_adder(&a, &c, None);
        b.output_word("s", &s);
        b.output("co", co);
        b.finish().unwrap()
    }

    #[test]
    fn adder_reaches_full_coverage_exhaustively() {
        let nl = adder4();
        let faults = FaultUniverse::collapsed(&nl);
        let mut sim = ParFaultSimulator::new(&nl, faults.faults().to_vec());
        let report = sim.run_exhaustive();
        assert_eq!(report.undetected().len(), 0);
        assert!((report.coverage() - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn random_matches_exhaustive_detectability() {
        let nl = adder4();
        let faults = FaultUniverse::collapsed(&nl);
        let mut sim = ParFaultSimulator::new(&nl, faults.faults().to_vec());
        let report = sim.run(&mut RandomWords::seeded(42), Stop::after(100_000));
        assert_eq!(report.undetected().len(), 0);
    }

    #[test]
    fn detection_indices_are_consistent() {
        let nl = adder4();
        let faults = FaultUniverse::collapsed(&nl);
        let mut sim = ParFaultSimulator::new(&nl, faults.faults().to_vec());
        let report = sim.run_exhaustive();
        for d in report.detection().iter().flatten() {
            assert!(*d < report.patterns_applied());
        }
    }

    #[test]
    fn undetectable_fault_stays_undetected() {
        // y = a AND (NOT a) is constant 0: its sa0 faults are redundant.
        let mut b = NetlistBuilder::new("red");
        let a = b.input("a");
        let na = b.not(a);
        let y = b.and2(a, na);
        b.output("y", y);
        let nl = b.finish().unwrap();
        let faults = vec![Fault::net_sa0(nl.outputs()[0])];
        let mut sim = ParFaultSimulator::new(&nl, faults);
        let report = sim.run_exhaustive();
        assert_eq!(report.detected_count(), 0);
    }

    #[test]
    fn explicit_pattern_run_detects() {
        let mut b = NetlistBuilder::new("and");
        let a = b.input("a");
        let c = b.input("b");
        let y = b.and2(a, c);
        b.output("y", y);
        let nl = b.finish().unwrap();
        let faults = vec![Fault::net_sa0(nl.outputs()[0])];
        let mut sim = ParFaultSimulator::new(&nl, faults);
        // Only the pattern (1,1) detects y/sa0.
        let report = sim.run_patterns(&[vec![false, false], vec![true, false], vec![true, true]]);
        assert_eq!(report.detection()[0], Some(2));
    }

    #[test]
    fn stats_track_evals_and_blocks() {
        let nl = adder4();
        let faults = FaultUniverse::collapsed(&nl);
        let n = faults.faults().len() as u64;
        let mut sim = ParFaultSimulator::new(&nl, faults.faults().to_vec());
        let report = sim.run_exhaustive();
        let stats = report.stats();
        assert!(stats.blocks >= 1);
        assert_eq!(stats.good_evals, stats.blocks);
        // Every fault is evaluated at least once, and fault dropping keeps
        // the total at most faults × blocks.
        assert!(stats.fault_evals >= n);
        assert!(stats.fault_evals <= n * stats.blocks);
        assert_eq!(stats.faults_dropped, report.detected_count() as u64);
    }

    #[test]
    #[should_panic(expected = "combinational equivalent")]
    fn sequential_netlists_rejected() {
        let mut b = NetlistBuilder::new("seq");
        let a = b.input("a");
        let r = b.register(&[a]);
        b.output("o", r[0]);
        let nl = b.finish().unwrap();
        let _ = ParFaultSimulator::new(&nl, Vec::new());
    }
}
