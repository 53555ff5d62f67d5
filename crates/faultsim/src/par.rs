//! The compiled fault-simulation engine.
//!
//! [`ParFaultSimulator`] applies every block of the shared [`BlockSim`]
//! driver on the calling thread, tracing critical paths inside
//! fanout-free regions as FSIM does (Lee & Ha, 1991). A fanout-free
//! region (FFR) is a maximal tree whose inner nets each have exactly one
//! gate reader and are not primary outputs; its root net is the region's
//! *stem*. At construction the engine maps every fault to its site and
//! its region's stem, and sorts the live list by stem (then fault
//! index), so each region's faults sit together for the whole run. Each
//! block then runs:
//!
//! 1. **one** good-machine run of the compiled [`EvalProgram`] over the
//!    block's 64-lane input words;
//! 2. one region at a time, each live fault's *local word*: the
//!    activation word (`good ^ stuck` at the site) ANDed with the
//!    sensitization word ([`EvalProgram::sensitization`]) of every gate
//!    on its one path to the stem, and with the block's lane mask. These
//!    are the valid lanes in which the fault flips the stem;
//! 3. if any local word of the region is nonzero, one event-driven
//!    propagation ([`EvalProgram::eval_events`]) of the stem flipped in
//!    the union of the local words only, which stops once the output
//!    difference covers each fault's lowest local lane (the
//!    `stem_stops` counter counts the propagations that stop with
//!    instructions still pending). The engine copies the good values
//!    into its `faulty` buffer once per block, and each propagation
//!    restores it;
//! 4. each fault whose local word ANDed with that difference is nonzero
//!    records `patterns_applied + lane`, the lowest such lane, and
//!    leaves the list.
//!
//! The trace is exact. Inside a tree a fault's effect travels one path,
//! so each gate on it sees exactly one changed operand; past the stem the
//! faulty machine is the good one with the stem flipped in the lanes the
//! fault reaches. Lanes are independent, so flipping the stem in the
//! union of the region's local words gives every fault's lanes the
//! difference a flip of its own lanes would. The early stop is exact too:
//! each output settles once, in schedule order, so a partial difference
//! holds only real differences. Once it covers a fault's lowest local
//! lane, that lane is the earliest the fault could be detected at, and a
//! propagation that never covers the stop word runs to the end. Every
//! report equals one event-driven propagation per fault, bit for bit.
//!
//! The grouped walk needs no per-stem cache of observability words: a
//! region's faults are adjacent in the list, so its one propagation
//! serves them all before the walk moves on.
//!
//! A driver prover's verdicts take faults off the list too
//! ([`BlockSim::retire`]); once the list is empty the driver skips the
//! rest of the run, and the engine only counts the skipped blocks
//! ([`BlockSim::skip`]).
//!
//! # Determinism
//!
//! The report is a pure function of the netlist, the fault list and the
//! pattern stream:
//!
//! * the pattern stream is formed by the shared [`BlockSim`] driver, so
//!   every engine draws the same source words and applies the same
//!   blocks;
//! * per-fault detection is a pure function of `(program, block, fault)`,
//!   and each stem propagation starts from, and restores, the good
//!   machine's values, so the order the faults run in cannot change an
//!   answer;
//! * fault dropping is block-granular: a fault detected in block *b*
//!   keeps its first lane in *b* and is evaluated by no later block.
//!
//! Every counter the engine records is detection-deterministic too.
//! `tests/compiled_equivalence.rs` pins the reports against the reference
//! interpreter, which propagates each fault on its own, and
//! `tests/lanes_equivalence.rs` the driver against a one-block-at-a-time
//! stop oracle.

use crate::eval;
use crate::fault::{Fault, FaultSite};
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
/// program via [`ParFaultSimulator::with_program`]) and resolves every
/// fault to its site and the stem of its fanout-free region. Each block
/// is then one program run for the good machine, a trace of each
/// undetected fault's path to its stem, and one event-driven propagation
/// per stem that some fault flips, which evaluates only the instructions
/// the stem's change reaches until each of its faults has its earliest
/// lane at an output (PPSFP, parallel patterns and single-fault
/// propagation, with the propagation shared per region). Detected faults
/// are dropped from later blocks; the per-fault first-detection pattern
/// index is recorded so coverage-vs-pattern-count curves (the paper's
/// Table 2 rows 5–8) can be reconstructed exactly. Reports are
/// bit-identical to the seed interpreter's
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
    /// `sites[i]` = where fault *i* acts in the program.
    sites: Vec<Site>,
    detection: Vec<Option<u64>>,
    /// Indices (into `faults`) of the faults still undetected — each
    /// block's work list, sorted by stem and then index, so that each
    /// region's faults are adjacent. Compacted by every block that
    /// detects.
    undetected: Vec<u32>,
    /// The good machine's values for the current block.
    good: Vec<u64>,
    /// The faulty machine's values: the good machine's between stem
    /// propagations.
    faulty: Vec<u64>,
    /// The local words of the region being simulated, one per live fault
    /// of the region, reused across regions and blocks.
    locals: Vec<u64>,
    /// The event queue the propagations work in, reused across blocks.
    queue: EventQueue,
    patterns_applied: u64,
    rec: Recorder,
}

/// Where one fault acts in the program, resolved at construction.
#[derive(Debug, Clone, Copy)]
struct Site {
    /// The slot whose good word the fault inverts in its active lanes:
    /// the faulted net, or the operand a pin fault forces.
    slot: u32,
    /// For a pin fault, the instruction and operand position it forces.
    pin: Option<(u32, u32)>,
    /// The stem of the fanout-free region holding the fault.
    stem: u32,
    /// The stuck value: `true` = stuck-at-1.
    stuck_at: bool,
}

impl Site {
    fn new(program: &EvalProgram, stems: &[u32], fault: Fault) -> Site {
        let (slot, pin, net) = match fault.site {
            FaultSite::Net(n) => (n.index() as u32, None, n.index() as u32),
            FaultSite::GatePin { gate, pin } => {
                let instr = program.instr_of_gate(gate);
                let ins = program.instr(instr);
                let at = Some((instr as u32, pin as u32));
                (ins.operands[pin], at, ins.out)
            }
        };
        Site {
            slot,
            pin,
            stem: stems[net as usize],
            stuck_at: fault.stuck_at,
        }
    }

    /// The lanes in which the fault flips its stem: its activation word
    /// ANDed with the sensitization word of every gate on its one path
    /// to the stem, over the good machine's `good` values.
    #[inline]
    fn local_word(&self, program: &EvalProgram, good: &[u64]) -> u64 {
        let stuck = if self.stuck_at { !0 } else { 0 };
        let mut word = good[self.slot as usize] ^ stuck;
        let mut net = self.slot as usize;
        if let Some((instr, pin)) = self.pin {
            word &= program.sensitization(good, instr as usize, pin as usize);
            net = program.instr(instr as usize).out as usize;
        }
        while net != self.stem as usize && word != 0 {
            // Below its stem a net has exactly one reader.
            let (reader, pin) = program.readers(net)[0];
            word &= program.sensitization(good, reader as usize, pin as usize);
            net = program.instr(reader as usize).out as usize;
        }
        word
    }
}

/// Maps every slot to the stem of its fanout-free region: the net
/// reached by following nets that have exactly one gate reader and are
/// not primary outputs. A net with no reader, several reader pins (one
/// gate reading it twice included) or an output role is its own stem.
fn stems(program: &EvalProgram) -> Vec<u32> {
    let slots = program.slot_count();
    let mut stem: Vec<u32> = (0..slots as u32).collect();
    // A net's sole reader writes a net later in the schedule, so the gate
    // outputs settle from the last instruction back, then the sources.
    let outputs = (0..program.instr_count())
        .rev()
        .map(|i| program.instr(i).out as usize);
    let sources = (0..slots).filter(|&s| program.instr_of_slot(s).is_none());
    for s in outputs.chain(sources) {
        if let [(reader, _)] = *program.readers(s) {
            if !program.is_output(s) {
                stem[s] = stem[program.instr(reader as usize).out as usize];
            }
        }
    }
    stem
}

/// Every fault index, grouped by stem in slot order and in index order
/// within a stem. A counting sort over the slots: at width 8 it took a
/// fifth of the time a comparison sort of the same keys did.
fn stem_order(sites: &[Site], slots: usize) -> Vec<u32> {
    let mut next = vec![0u32; slots + 1];
    for site in sites {
        next[site.stem as usize + 1] += 1;
    }
    for s in 1..=slots {
        next[s] += next[s - 1];
    }
    let mut order = vec![0u32; sites.len()];
    for (fi, site) in sites.iter().enumerate() {
        let at = &mut next[site.stem as usize];
        order[*at as usize] = fi as u32;
        *at += 1;
    }
    order
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
        let stems = stems(&program);
        let sites: Vec<Site> = faults
            .iter()
            .map(|&f| Site::new(&program, &stems, f))
            .collect();
        let n = faults.len();
        let undetected = stem_order(&sites, program.slot_count());
        let good = program.new_values();
        ParFaultSimulator {
            netlist,
            program,
            faults,
            sites,
            detection: vec![None; n],
            undetected,
            faulty: good.clone(),
            good,
            locals: Vec::new(),
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

    /// Evaluates the good machine once on `block`, then walks the
    /// undetected faults one fanout-free region at a time: it traces each
    /// to its stem and propagates the stem once, flipped in the lanes the
    /// region's faults flip, until each fault's lowest such lane has
    /// reached an output or the propagation ends. Each detected fault gets
    /// its index (`patterns_applied + lane`, only lanes under `mask`
    /// count) and leaves the list. Returns how many were detected.
    fn simulate_block(&mut self, block: &PatternBlock, mask: u64) -> usize {
        let started = Instant::now();
        let mut gate_evals = self.program.eval_good(&mut self.good, &block.words);
        self.faulty.copy_from_slice(&self.good);
        let (mut detected, mut stem_evals, mut stem_stops) = (0, 0, 0);
        let sites = &self.sites;
        let same_stem = |&a: &u32, &b: &u32| sites[a as usize].stem == sites[b as usize].stem;
        for region in self.undetected.chunk_by(same_stem) {
            // `flip`: the lanes in which some fault flips the stem;
            // `first`: each fault's lowest one, the stop word.
            let (mut flip, mut first) = (0u64, 0u64);
            self.locals.clear();
            for &fi in region {
                let local = sites[fi as usize].local_word(&self.program, &self.good) & mask;
                flip |= local;
                first |= local & local.wrapping_neg();
                self.locals.push(local);
            }
            if flip == 0 {
                continue;
            }
            let stem = sites[region[0] as usize].stem;
            let word = self.good[stem as usize] ^ flip;
            let patch = match self.program.instr_of_slot(stem as usize) {
                Some(instr) => Patch::InstrOutput {
                    instr: instr as u32,
                    word,
                },
                None => Patch::Slot { slot: stem, word },
            };
            let (diff, evals, stopped) = self.program.eval_events(
                &self.good,
                &mut self.faulty,
                patch,
                first,
                &mut self.queue,
            );
            gate_evals += evals;
            stem_evals += 1;
            stem_stops += u64::from(stopped);
            for (&fi, &local) in region.iter().zip(&self.locals) {
                if let Some(lane) = eval::first_detection(local & diff, mask) {
                    self.detection[fi as usize] = Some(self.patterns_applied + lane);
                    detected += 1;
                }
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
        self.rec.add_to(root, CounterId::StemEvals, stem_evals);
        self.rec.add_to(root, CounterId::StemStops, stem_stops);
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
    /// list, asking it in the list's stem order. A verdict depends only
    /// on the fault, so the order cannot change which faults retire.
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

    fn skip(&mut self, blocks: u64, patterns: u64) {
        assert!(
            self.undetected.is_empty(),
            "skipped a block with a live fault"
        );
        if blocks > 0 {
            let root = self.rec.root();
            self.rec.add_to(root, CounterId::Blocks, blocks);
            self.rec.add_to(root, CounterId::BlocksSkipped, blocks);
            self.rec.add_to(root, CounterId::PatternsConsumed, patterns);
        }
        self.patterns_applied += patterns;
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
    fn stems_follow_single_reader_non_output_nets() {
        use bibs_netlist::GateKind;
        let mut b = NetlistBuilder::new("ffr");
        let a = b.input("a");
        let c = b.input("b");
        let d = b.input("d");
        let g1 = b.and2(c, d); // sole reader g2: inner
        let g2 = b.or2(g1, a); // an output that g3 also reads: a stem
        let g3 = b.not(g2); // sole reader g4: inner
        let g4 = b.and2(g3, a); // read twice by g5: a stem
        let g5 = b.gate(GateKind::Xor, &[g4, g4, a]);
        let dead = b.not(c); // no reader: a stem
        b.output("g2", g2);
        b.output("g5", g5);
        b.output("d", d);
        let nl = b.finish().unwrap();
        let program = EvalProgram::compile(&nl).unwrap();
        let stem = stems(&program);
        let of = |n: bibs_netlist::NetId| stem[n.index()] as usize;
        assert_eq!(of(g1), g2.index());
        assert_eq!(of(c), c.index(), "read by g1 and the dead NOT");
        assert_eq!(of(d), d.index(), "a primary input that is an output");
        assert_eq!(of(a), a.index());
        assert_eq!(of(g2), g2.index());
        assert_eq!(of(g3), g4.index());
        assert_eq!(of(g4), g4.index());
        assert_eq!(of(g5), g5.index());
        assert_eq!(of(dead), dead.index());

        // Against a step-by-step walk on a multi-region circuit.
        let mut b = NetlistBuilder::new("mul4");
        let x = b.input_word("a", 4);
        let y = b.input_word("b", 4);
        let p = b.array_multiplier(&x, &y, 8);
        b.output_word("p", &p);
        let nl = b.finish().unwrap();
        let program = EvalProgram::compile(&nl).unwrap();
        let stem = stems(&program);
        for (slot, &got) in stem.iter().enumerate() {
            let mut net = slot;
            while let [(reader, _)] = *program.readers(net) {
                if program.is_output(net) {
                    break;
                }
                net = program.instr(reader as usize).out as usize;
            }
            assert_eq!(got as usize, net, "slot {slot}");
        }
    }

    #[test]
    fn the_live_list_starts_grouped_by_stem_then_index() {
        let nl = adder4();
        let faults = crate::fault::FaultUniverse::full(&nl).faults().to_vec();
        let sim = ParFaultSimulator::new(&nl, faults);
        let key = |fi: u32| (sim.sites[fi as usize].stem, fi);
        assert_eq!(sim.undetected.len(), sim.faults.len());
        assert!(sim.undetected.windows(2).all(|w| key(w[0]) < key(w[1])));
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
