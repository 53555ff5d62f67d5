//! The compiled fault-simulation engine.
//!
//! [`ParFaultSimulator`] applies every block of the shared [`BlockSim`]
//! driver on the calling thread, tracing critical paths inside
//! fanout-free regions as FSIM does (Lee & Ha, 1991). A fanout-free
//! region (FFR) is a maximal tree whose inner nets each have exactly one
//! gate reader and are not primary outputs; its root net is the region's
//! *stem*. At construction the engine takes the program's regions from
//! [`EvalProgram::fanout_regions`]: each slot's stem, and each stem's
//! fanout cone, the instructions the stem's value reaches as a bitset
//! trimmed to the words it spans. It maps every fault to its site and
//! its region's stem and sorts the live list by stem (then fault index),
//! so each region's faults sit together for the whole run. Each block
//! then runs:
//!
//! 1. **one** good-machine run of the compiled [`EvalProgram`] over the
//!    block's 64-lane input words;
//! 2. one region at a time, each live fault's *local word*: the
//!    activation word (`good ^ stuck` at the site) ANDed with the
//!    sensitization word ([`EvalProgram::sensitization`]) of every gate
//!    on its one path to the stem, and with the block's lane mask. These
//!    are the valid lanes in which the fault flips the stem;
//! 3. if any local word of the region is nonzero, one sweep of the
//!    stem's cone ([`EvalProgram::sweep`]) with the stem flipped in the
//!    union of the local words only: it evaluates the cone's
//!    instructions in schedule order, comparing nothing and scheduling
//!    nothing, and stops once the output difference covers each fault's
//!    lowest local lane (the `stem_stops` counter counts the sweeps that
//!    stop with cone instructions left). The engine copies the good
//!    values into its `faulty` buffer once per block, and each sweep
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
//! difference a flip of its own lanes would. A cone instruction that no
//! difference reaches recomputes its good value, so sweeping the whole
//! cone gives what evaluating only the changed instructions would. The
//! early stop is exact too: each output is written once, in schedule
//! order, so a partial difference holds only real differences. Once it
//! covers a fault's lowest local lane, that lane is the earliest the
//! fault could be detected at, and a sweep that never covers the stop
//! word runs to the end of the cone. Every report equals one
//! propagation per fault, bit for bit.
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
use crate::fault::Fault;
use crate::sim::{BlockSim, FaultSimReport};
use crate::source::PatternBlock;
use crate::stats::SimStats;
use bibs_netlist::{EvalProgram, FanoutRegions, Netlist};
use std::time::Instant;

/// The compiled fault simulator bound to one (combinational) netlist and
/// one fault list.
///
/// Construction compiles the netlist once (or adopts a caller-supplied
/// program via [`ParFaultSimulator::with_program`]), takes the program's
/// fanout-free regions ([`EvalProgram::fanout_regions`]: every slot's
/// stem and every stem's fanout cone), and resolves every fault to its
/// site and its region's stem. Each block is then one program run for the
/// good machine, a trace of each undetected fault's path to its stem,
/// and one sweep of the cone of each stem that some fault flips, until
/// each of its faults has its earliest lane at an output (PPSFP,
/// parallel patterns and single-fault propagation, with the
/// propagation shared per region). Detected faults
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
    /// Every slot's stem and every stem's fanout cone, which each
    /// propagation sweeps.
    regions: FanoutRegions,
    /// The local words of the region being simulated, one per live fault
    /// of the region, reused across regions and blocks.
    locals: Vec<u64>,
    patterns_applied: u64,
    stats: SimStats,
}

/// Where one fault acts in the program ([`Fault::locate`]), resolved at
/// construction into the compact form each block reads, with the stem of
/// the fault's fanout-free region.
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
    fn new(program: &EvalProgram, regions: &FanoutRegions, fault: Fault) -> Site {
        let at = fault.locate(program);
        Site {
            slot: at.slot as u32,
            pin: at.pin.map(|(instr, pin)| (instr as u32, pin as u32)),
            stem: regions.stem(at.out) as u32,
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
    /// Creates a simulator, compiling the netlist to an [`EvalProgram`]:
    /// [`ParFaultSimulator::with_program`] over [`EvalProgram::compile`].
    /// Pass a compiled program to `with_program` to reuse it.
    ///
    /// # Panics
    ///
    /// Panics if the netlist is sequential (run on the combinational
    /// equivalent — see the crate docs) or combinationally cyclic, or if
    /// the fault list exceeds `u32::MAX` entries.
    pub fn new(netlist: &'a Netlist, faults: Vec<Fault>) -> Self {
        let program = EvalProgram::compile(netlist).expect("acyclic combinational netlist");
        Self::with_program(netlist, program, faults, 1)
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
        let regions = program.fanout_regions();
        let sites: Vec<Site> = faults
            .iter()
            .map(|&f| Site::new(&program, &regions, f))
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
            regions,
            locals: Vec::new(),
            patterns_applied: 0,
            stats: SimStats::default(),
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

    /// Evaluates the good machine once on `block`, then walks the
    /// undetected faults one fanout-free region at a time: it traces each
    /// to its stem and sweeps the stem's cone once, the stem flipped in
    /// the lanes the region's faults flip, until each fault's lowest such
    /// lane has reached an output or the cone ends. Each detected fault gets
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
            let (diff, evals, stopped) = self.program.sweep(
                &self.good,
                &mut self.faulty,
                stem as usize,
                self.good[stem as usize] ^ flip,
                self.regions.cone(stem as usize),
                first,
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
        let stats = &mut self.stats;
        stats.gate_evals += gate_evals;
        stats.fault_evals += fault_evals;
        stats.stem_evals += stem_evals;
        stats.stem_stops += stem_stops;
        stats.good_evals += 1;
        stats.faults_dropped += detected as u64;
        stats.wall += started.elapsed();
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
            self.stats.clone(),
        )
    }

    fn apply(&mut self, block: &PatternBlock, lanes: usize) -> usize {
        self.stats.blocks += 1;
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
        self.stats.faults_retired += retired as u64;
        retired
    }

    fn skip(&mut self, blocks: u64, patterns: u64) {
        assert!(
            self.undetected.is_empty(),
            "skipped a block with a live fault"
        );
        self.stats.blocks += blocks;
        self.stats.blocks_skipped += blocks;
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
