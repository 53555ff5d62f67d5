//! The compiled fault-simulation engine.
//!
//! [`ParFaultSimulator`] applies every block of the shared [`BlockSim`]
//! driver on the calling thread as:
//!
//! 1. **one** good-machine run of the compiled [`EvalProgram`] over the
//!    block's 64-lane input words;
//! 2. one event-driven propagation per *undetected* fault: the engine
//!    copies the good values into its `faulty` buffer once per block,
//!    then propagates each fault's pre-compiled [`bibs_netlist::Patch`]
//!    ([`EvalProgram::eval_events`]), evaluating only the instructions
//!    whose inputs differ from the good machine's, and the buffer is
//!    restored after each fault;
//! 3. each detected fault records `patterns_applied + lane` and leaves
//!    the list.
//!
//! A driver prover's verdicts take faults off the list too
//! ([`BlockSim::retire`]); once the list is empty a block is only
//! counted, with no good-machine run.
//!
//! # Determinism
//!
//! The report is a pure function of the netlist, the fault list and the
//! pattern stream:
//!
//! * the pattern stream is formed by the shared [`BlockSim`] driver, so
//!   every engine draws the same source words and applies the same
//!   blocks;
//! * per-fault detection is a pure function of `(program, block, patch)`,
//!   and each propagation starts from, and restores, the good machine's
//!   values, so the order the faults run in cannot change an answer;
//! * fault dropping is block-granular: a fault detected in block *b*
//!   keeps its first lane in *b* and is evaluated by no later block.
//!
//! Every counter the engine records is detection-deterministic too.
//! `tests/compiled_equivalence.rs` pins the reports against the reference
//! interpreter, and `tests/lanes_equivalence.rs` the driver against a
//! one-block-at-a-time stop oracle.

use crate::eval;
use crate::fault::Fault;
use crate::sim::{BlockSim, FaultSimReport};
use crate::source::PatternBlock;
use crate::stats::SimStats;
use bibs_netlist::{EvalProgram, EventQueue, Netlist, Patch};
use bibs_obs::{CounterId, Recorder};
use std::time::Instant;

/// The compiled fault simulator bound to one (combinational) netlist and
/// one fault list.
///
/// Construction compiles the netlist once (or adopts a caller-supplied
/// program via [`ParFaultSimulator::with_program`]) and pre-compiles
/// every fault to its one patch-point; each block is then one program
/// run for the good machine plus one event-driven propagation per
/// undetected fault, which evaluates only the instructions the fault's
/// effect reaches (PPSFP: parallel patterns, single-fault
/// propagation). Detected faults are dropped from later blocks; the per-fault
/// first-detection pattern index is recorded so coverage-vs-pattern-count
/// curves (the paper's Table 2 rows 5–8) can be reconstructed exactly.
/// Reports are bit-identical to the seed interpreter's
/// ([`crate::reference::ReferenceSimulator`]), pinned by
/// `tests/compiled_equivalence.rs`.
///
/// Drive it through the [`BlockSim`] trait:
///
/// ```
/// use bibs_netlist::builder::NetlistBuilder;
/// use bibs_faultsim::fault::FaultUniverse;
/// use bibs_faultsim::par::ParFaultSimulator;
/// use bibs_faultsim::sim::BlockSim;
///
/// # fn main() -> Result<(), bibs_netlist::NetlistError> {
/// let mut b = NetlistBuilder::new("add2");
/// let a = b.input_word("a", 2);
/// let c = b.input_word("b", 2);
/// let (s, co) = b.ripple_carry_adder(&a, &c, None);
/// b.output_word("s", &s);
/// b.output("co", co);
/// let nl = b.finish()?;
///
/// let faults = FaultUniverse::collapsed(&nl);
/// let mut sim = ParFaultSimulator::new(&nl, faults.faults().to_vec());
/// let report = sim.run_exhaustive();
/// assert_eq!(report.undetected().len(), 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ParFaultSimulator<'a> {
    netlist: &'a Netlist,
    program: EvalProgram,
    faults: Vec<Fault>,
    /// `patches[i]` = compiled patch-point of fault *i*.
    patches: Vec<Patch>,
    detection: Vec<Option<u64>>,
    /// Indices (into `faults`) of the faults still undetected — each
    /// block's work list. Compacted by every block that detects.
    undetected: Vec<u32>,
    /// The good machine's values for the current block.
    good: Vec<u64>,
    /// The faulty machine's values: the good machine's between faults.
    faulty: Vec<u64>,
    /// The event queue the propagations work in, reused across blocks.
    queue: EventQueue,
    patterns_applied: u64,
    rec: Recorder,
}

impl<'a> ParFaultSimulator<'a> {
    /// Creates a simulator, compiling the netlist to an [`EvalProgram`].
    /// The compile time is recorded as a `"compile"` child span, surfaced
    /// through [`SimStats::compile_wall`]. Use
    /// [`ParFaultSimulator::with_program`] to reuse a compiled program.
    ///
    /// # Panics
    ///
    /// Panics if the netlist is sequential (run on the combinational
    /// equivalent — see the crate docs) or combinationally cyclic, or if
    /// the fault list exceeds `u32::MAX` entries.
    pub fn new(netlist: &'a Netlist, faults: Vec<Fault>) -> Self {
        let mut rec = Recorder::new("fault-sim[par]");
        let program =
            EvalProgram::compile_traced(netlist, &mut rec).expect("acyclic combinational netlist");
        Self::with_program_recorder(netlist, program, faults, rec)
    }

    /// Creates a simulator around an already-compiled program for the
    /// same netlist, so callers running many sessions on one circuit pay
    /// the compile cost once.
    ///
    /// `threads` is not a setting: the engine runs on the calling thread,
    /// so it must be 1. The parameter remains only because the benchmark
    /// crate (`benchmark/src/trace.rs`) passes its pinned job count; the
    /// next change to the benchmark deletes it.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is not 1, the netlist is sequential, `program`
    /// was not compiled from `netlist` (slot count is the cheap proxy
    /// checked), or the fault list exceeds `u32::MAX` entries.
    pub fn with_program(
        netlist: &'a Netlist,
        program: EvalProgram,
        faults: Vec<Fault>,
        threads: usize,
    ) -> Self {
        assert_eq!(threads, 1, "the engine runs on the calling thread");
        Self::with_program_recorder(netlist, program, faults, Recorder::new("fault-sim[par]"))
    }

    /// [`ParFaultSimulator::with_program`] with a caller-supplied
    /// telemetry recorder. Pass [`Recorder::disabled`] to measure the
    /// recorder's own hot-loop overhead; stats derived from a disabled
    /// recorder are all-zero.
    pub fn with_program_recorder(
        netlist: &'a Netlist,
        program: EvalProgram,
        faults: Vec<Fault>,
        rec: Recorder,
    ) -> Self {
        assert_eq!(
            netlist.dff_count(),
            0,
            "fault-simulate the combinational equivalent"
        );
        assert_eq!(
            program.slot_count(),
            netlist.net_count(),
            "program/netlist mismatch"
        );
        assert!(
            faults.len() <= u32::MAX as usize,
            "fault list exceeds u32 index space"
        );
        let patches = faults
            .iter()
            .map(|&f| eval::compile_patch(&program, f))
            .collect();
        let n = faults.len();
        let good = program.new_values();
        ParFaultSimulator {
            netlist,
            program,
            faults,
            patches,
            detection: vec![None; n],
            undetected: (0..n as u32).collect(),
            faulty: good.clone(),
            good,
            queue: EventQueue::default(),
            patterns_applied: 0,
            rec,
        }
    }

    /// Checks that `lanes` is 64, the engine's one block width, and
    /// returns the simulator unchanged. Not a setting: it remains only
    /// because the benchmark crate (`benchmark/src/trace.rs`) calls it;
    /// the next change to the benchmark deletes it.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is not 64.
    #[must_use]
    pub fn with_lanes(self, lanes: usize) -> Self {
        assert_eq!(lanes, 64, "the engine applies one 64-lane block at a time");
        self
    }

    /// The compiled program.
    pub fn program(&self) -> &EvalProgram {
        &self.program
    }

    /// The engine's telemetry span tree (root `"fault-sim[par]"`):
    /// per-block counters on the root and, for an engine built with
    /// [`ParFaultSimulator::new`], the compile cost as a `"compile"`
    /// child. Graft it into a pipeline-level recorder with
    /// [`Recorder::graft`].
    pub fn recorder(&self) -> &Recorder {
        &self.rec
    }

    /// Evaluates the good machine once on `block`, then propagates every
    /// undetected fault against it; each detected fault gets its index
    /// (`patterns_applied + lane`, only lanes under `mask` count) and
    /// leaves the list. Returns how many were detected.
    fn simulate_block(&mut self, block: &PatternBlock, mask: u64) -> usize {
        let started = Instant::now();
        let mut gate_evals = self.program.eval_good(&mut self.good, &block.words);
        self.faulty.copy_from_slice(&self.good);
        let mut detected = 0;
        for &fi in &self.undetected {
            let (diff, evals) = self.program.eval_events(
                &self.good,
                &mut self.faulty,
                self.patches[fi as usize],
                &mut self.queue,
            );
            gate_evals += evals;
            if let Some(lane) = eval::first_detection(diff, mask) {
                self.detection[fi as usize] = Some(self.patterns_applied + lane);
                detected += 1;
            }
        }
        let fault_evals = self.undetected.len() as u64;
        if detected > 0 {
            let detection = &self.detection;
            self.undetected
                .retain(|&fi| detection[fi as usize].is_none());
        }
        let root = self.rec.root();
        self.rec.add_to(root, CounterId::GateEvals, gate_evals);
        self.rec.add_to(root, CounterId::FaultEvals, fault_evals);
        self.rec.add_to(root, CounterId::GoodEvals, 1);
        self.rec
            .add_to(root, CounterId::FaultsDropped, detected as u64);
        self.rec.add_wall(root, started.elapsed());
        detected
    }
}

impl BlockSim for ParFaultSimulator<'_> {
    fn netlist(&self) -> &Netlist {
        self.netlist
    }

    fn detection(&self) -> &[Option<u64>] {
        &self.detection
    }

    fn patterns_applied(&self) -> u64 {
        self.patterns_applied
    }

    fn report(&self) -> FaultSimReport {
        FaultSimReport::from_parts(
            self.faults.clone(),
            self.detection.clone(),
            self.patterns_applied,
            SimStats::from_recorder(&self.rec),
        )
    }

    fn apply(&mut self, block: &PatternBlock, lanes: usize) -> usize {
        let root = self.rec.root();
        self.rec.add_to(root, CounterId::Blocks, 1);
        self.rec
            .add_to(root, CounterId::PatternsConsumed, lanes as u64);
        let detected = if self.undetected.is_empty() {
            // Every fault is detected or retired: nothing to evaluate.
            0
        } else {
            self.simulate_block(block, eval::lane_mask(lanes))
        };
        self.patterns_applied += lanes as u64;
        detected
    }

    /// Drops the faults `prover` proves undetectable from the undetected
    /// list, asking it in fault-list order.
    fn retire(&mut self, prover: &mut dyn FnMut(Fault) -> bool) -> usize {
        let live = self.undetected.len();
        let faults = &self.faults;
        self.undetected.retain(|&fi| !prover(faults[fi as usize]));
        let retired = live - self.undetected.len();
        if retired > 0 {
            let root = self.rec.root();
            self.rec
                .add_to(root, CounterId::FaultsRetired, retired as u64);
        }
        retired
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    #[should_panic(expected = "calling thread")]
    fn with_program_accepts_only_one_thread() {
        let nl = adder4();
        let program = EvalProgram::compile(&nl).unwrap();
        let _ = ParFaultSimulator::with_program(&nl, program, Vec::new(), 2);
    }

    #[test]
    #[should_panic(expected = "coverage only at 1.0")]
    fn run_source_with_accepts_only_full_coverage() {
        let nl = adder4();
        let _ = ParFaultSimulator::new(&nl, Vec::new()).run_source_with(
            &mut crate::source::RandomWords::seeded(1),
            64,
            64,
            0.5,
        );
    }
}
