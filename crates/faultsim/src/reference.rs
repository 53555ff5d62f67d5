//! The seed AST-walking interpreter, retained as the equivalence oracle.
//!
//! Before the compiled-IR refactor, [`eval_good`] / [`eval_faulty`] *were*
//! the production hot path: they re-scan every net's
//! [`NetDriver`] on each call, refill a per-gate
//! scratch buffer and dispatch through
//! [`GateKind::eval_words`](bibs_netlist::GateKind::eval_words). The
//! production engines now execute a compiled
//! [`EvalProgram`](bibs_netlist::EvalProgram) instead, but this module
//! keeps the original interpreter alive — bit-for-bit — for three jobs:
//!
//! * **oracle**: `tests/compiled_equivalence.rs` asserts the compiled
//!   engine's [`FaultSimReport`]s are bit-identical to
//!   [`ReferenceSimulator`]'s across paper kernels, random DAGs and
//!   seeds, and `tests/lanes_equivalence.rs` drives it one block
//!   at a time as the independent check of the driver's stop decisions;
//! * **benchmark baseline**: the criterion benches measure the compiled
//!   speedup against this implementation;
//! * **independent re-check**: the `table2` bin's `--engine reference`
//!   mode lets CI diff full Table 2 JSON between the two paths.
//!
//! Nothing here should be "improved" — its value is being the unchanged
//! seed semantics.

use crate::eval::{first_detection, lane_mask, output_diff};
use crate::fault::{Fault, FaultSite};
use crate::sim::{BlockSim, FaultSimReport};
use crate::source::PatternBlock;
use crate::stats::SimStats;
use bibs_netlist::{GateId, NetDriver, Netlist};
use std::time::Instant;

/// Evaluates the fault-free machine into `values` (one word per net, one
/// pattern per lane) by walking the netlist object graph.
///
/// `order` must be a topological order of the gates (from
/// [`Netlist::levelize`]); `scratch` is a reusable per-gate operand
/// buffer.
pub fn eval_good(
    netlist: &Netlist,
    order: &[GateId],
    input_words: &[u64],
    values: &mut [u64],
    scratch: &mut Vec<u64>,
) {
    for net in netlist.net_ids() {
        match netlist.driver(net) {
            NetDriver::Input(i) => values[net.index()] = input_words[i],
            NetDriver::Const(v) => values[net.index()] = if v { !0 } else { 0 },
            _ => {}
        }
    }
    for &gid in order {
        let gate = netlist.gate(gid);
        scratch.clear();
        scratch.extend(gate.inputs.iter().map(|i| values[i.index()]));
        values[gate.output.index()] = gate.kind.eval_words(scratch);
    }
}

/// Evaluates the machine with `fault` injected into `values` by walking
/// the netlist object graph (see [`eval_good`] for the conventions).
pub fn eval_faulty(
    netlist: &Netlist,
    order: &[GateId],
    input_words: &[u64],
    fault: Fault,
    values: &mut [u64],
    scratch: &mut Vec<u64>,
) {
    let stuck_word = if fault.stuck_at { !0u64 } else { 0u64 };
    let fault_net = match fault.site {
        FaultSite::Net(n) => Some(n),
        FaultSite::GatePin { .. } => None,
    };
    for net in netlist.net_ids() {
        let v = match netlist.driver(net) {
            NetDriver::Input(i) => input_words[i],
            NetDriver::Const(v) => {
                if v {
                    !0
                } else {
                    0
                }
            }
            _ => continue,
        };
        values[net.index()] = if fault_net == Some(net) {
            stuck_word
        } else {
            v
        };
    }
    for &gid in order {
        let gate = netlist.gate(gid);
        scratch.clear();
        scratch.extend(gate.inputs.iter().map(|i| values[i.index()]));
        if let FaultSite::GatePin { gate: fg, pin } = fault.site {
            if fg == gid {
                scratch[pin] = stuck_word;
            }
        }
        let mut out = gate.kind.eval_words(scratch);
        if fault_net == Some(gate.output) {
            out = stuck_word;
        }
        values[gate.output.index()] = out;
    }
}

/// The one-thread fault simulator running on the seed interpreter.
///
/// Drop-in [`BlockSim`] peer of the compiled
/// [`ParFaultSimulator`](crate::par::ParFaultSimulator): same
/// pattern-stream driver, same detection rule
/// (`patterns_applied + trailing_zeros(diff)`), different evaluation
/// machinery. Reports from the two must be bit-identical on any netlist.
/// Faults a driver's prover retires are marked and skipped by later
/// blocks.
#[derive(Debug)]
pub struct ReferenceSimulator<'a> {
    netlist: &'a Netlist,
    order: Vec<GateId>,
    faults: Vec<Fault>,
    detection: Vec<Option<u64>>,
    /// Faults a prover retired ([`BlockSim::retire`]); blocks skip them.
    retired: Vec<bool>,
    good: Vec<u64>,
    faulty: Vec<u64>,
    patterns_applied: u64,
    stats: SimStats,
}

impl<'a> ReferenceSimulator<'a> {
    /// Creates an interpreter-backed simulator over `netlist` for the
    /// given fault list.
    ///
    /// # Panics
    ///
    /// Panics if the netlist is sequential (run on the combinational
    /// equivalent) or combinationally cyclic.
    pub fn new(netlist: &'a Netlist, faults: Vec<Fault>) -> Self {
        assert_eq!(
            netlist.dff_count(),
            0,
            "fault-simulate the combinational equivalent"
        );
        let order = netlist.levelize().expect("acyclic combinational netlist");
        let n = faults.len();
        ReferenceSimulator {
            netlist,
            order,
            faults,
            detection: vec![None; n],
            retired: vec![false; n],
            good: vec![0u64; netlist.net_count()],
            faulty: vec![0u64; netlist.net_count()],
            patterns_applied: 0,
            stats: SimStats::default(),
        }
    }
}

impl BlockSim for ReferenceSimulator<'_> {
    fn netlist(&self) -> &Netlist {
        self.netlist
    }

    fn apply(&mut self, block: &PatternBlock, lanes: usize) -> usize {
        assert!((1..=64).contains(&lanes), "1..=64 lanes per block");
        let input_words = &block.words;
        assert_eq!(input_words.len(), self.netlist.input_width());
        let mask = lane_mask(lanes);
        let base = self.patterns_applied;
        self.patterns_applied += lanes as u64;
        self.stats.blocks += 1;
        let live = |fi: usize| self.detection[fi].is_none() && !self.retired[fi];
        if !(0..self.faults.len()).any(live) {
            return 0;
        }
        let started = Instant::now();
        let mut scratch: Vec<u64> = Vec::with_capacity(8);

        eval_good(
            self.netlist,
            &self.order,
            input_words,
            &mut self.good,
            &mut scratch,
        );
        let mut gate_evals = self.netlist.gate_count() as u64;

        let outputs: Vec<u32> = self
            .netlist
            .outputs()
            .iter()
            .map(|o| o.index() as u32)
            .collect();
        let mut detected = 0;
        let mut fault_evals = 0;
        for fi in 0..self.faults.len() {
            if self.detection[fi].is_some() || self.retired[fi] {
                continue;
            }
            eval_faulty(
                self.netlist,
                &self.order,
                input_words,
                self.faults[fi],
                &mut self.faulty,
                &mut scratch,
            );
            gate_evals += self.netlist.gate_count() as u64;
            fault_evals += 1;
            let diff = output_diff(&outputs, &self.good, &self.faulty);
            if let Some(lane) = first_detection(diff, mask) {
                self.detection[fi] = Some(base + lane);
                detected += 1;
            }
        }
        let stats = &mut self.stats;
        stats.gate_evals += gate_evals;
        stats.fault_evals += fault_evals;
        stats.good_evals += 1;
        stats.faults_dropped += detected as u64;
        stats.wall += started.elapsed();
        detected
    }

    fn retire(&mut self, prover: &mut dyn FnMut(Fault) -> bool) -> usize {
        let mut retired = 0;
        for (fi, &fault) in self.faults.iter().enumerate() {
            if self.detection[fi].is_none() && !self.retired[fi] && prover(fault) {
                self.retired[fi] = true;
                retired += 1;
            }
        }
        self.stats.faults_retired += retired as u64;
        retired
    }

    fn skip(&mut self, blocks: u64, patterns: u64) {
        assert!(
            (0..self.faults.len()).all(|fi| self.detection[fi].is_some() || self.retired[fi]),
            "skipped a block with a live fault"
        );
        self.stats.blocks += blocks;
        self.stats.blocks_skipped += blocks;
        self.patterns_applied += patterns;
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultUniverse;
    use crate::par::ParFaultSimulator;
    use crate::sim::Stop;
    use crate::source::RandomWords;
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
    fn reference_reaches_full_coverage_exhaustively() {
        let nl = adder4();
        let faults = FaultUniverse::collapsed(&nl);
        let mut sim = ReferenceSimulator::new(&nl, faults.faults().to_vec());
        let report = sim.run_exhaustive();
        assert_eq!(report.undetected().len(), 0);
    }

    #[test]
    fn reference_matches_compiled_on_random_stream() {
        let nl = adder4();
        let faults = FaultUniverse::collapsed(&nl).faults().to_vec();
        let reference = ReferenceSimulator::new(&nl, faults.clone())
            .run(&mut RandomWords::seeded(17), Stop::after(10_000));
        let compiled = ParFaultSimulator::new(&nl, faults)
            .run(&mut RandomWords::seeded(17), Stop::after(10_000));
        assert_eq!(reference.detection(), compiled.detection());
        assert_eq!(reference.patterns_applied(), compiled.patterns_applied());
    }
}
