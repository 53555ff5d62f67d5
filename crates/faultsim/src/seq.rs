//! Sequential (time-frame) fault simulation.
//!
//! Section 2 of the paper motivates everything else: in a **balanced**
//! circuit every detectable stuck-at fault is *single-pattern* detectable
//! (apply one vector, clock it through, observe), while an **unbalanced**
//! circuit like Figure 1 has faults that need a *sequence* of vectors —
//! which conventional LFSRs cannot supply in order, and which drove the
//! BIBS requirement that kernels be balanced. This module simulates fault
//! detection under explicit vector sequences so that claim can be tested
//! on gate-level circuits rather than taken structurally.

use crate::eval::compile_patch;
use crate::fault::Fault;
use bibs_netlist::{EvalProgram, Netlist, Patch};

/// A lockstep good/faulty sequential simulator for one netlist.
///
/// BIST semantics: the flip-flop state at the start of a test is
/// arbitrary (whatever the previous test left behind), so a sequence only
/// *detects* a fault if the outputs differ **for every initial state**.
/// The simulator approximates the ∀-state check with 64 pseudo-random
/// initial states carried in the bit-parallel lanes (lane 0 is the
/// all-zero state); each applied vector is evaluated and clocked, and
/// detection requires an output difference in every lane at some cycle
/// (flush cycles hold the last vector while data drains).
///
/// Evaluation runs on one compiled [`EvalProgram`] for both machines; the
/// faulty machine applies the fault's patch-point, mapped from
/// [`Fault::locate`], in every time frame. All methods take `&self` and
/// start from fresh value buffers, so one instance serves any number of
/// faults and sequences.
#[derive(Debug)]
pub struct SequentialFaultSim<'a> {
    netlist: &'a Netlist,
    program: EvalProgram,
}

impl<'a> SequentialFaultSim<'a> {
    /// Creates a simulator for `netlist` (which may contain flip-flops),
    /// compiling it once.
    ///
    /// # Panics
    ///
    /// Panics if the combinational part is cyclic.
    pub fn new(netlist: &'a Netlist) -> Self {
        let program = EvalProgram::compile(netlist).expect("acyclic combinational part");
        SequentialFaultSim { netlist, program }
    }

    /// Whether `fault` is detected by applying `sequence` (one `bool` per
    /// input per vector) followed by `flush` extra cycles holding the last
    /// vector.
    ///
    /// # Panics
    ///
    /// Panics if the sequence is empty or vector widths mismatch.
    pub fn detects(&self, fault: Fault, sequence: &[Vec<bool>], flush: usize) -> bool {
        assert!(!sequence.is_empty(), "need at least one vector");
        let width = self.netlist.input_width();
        let n = self.netlist.net_count();
        let mut good = vec![0u64; n];
        let mut faulty = vec![0u64; n];
        // 64 initial states: lane 0 all-zero, the rest pseudo-random
        // (SplitMix64 from a fixed seed — deterministic).
        let mut seedgen = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            seedgen = seedgen.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = seedgen;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) & !1u64 // keep lane 0 zero
        };
        let mut good_state: Vec<u64> = (0..self.netlist.dff_count()).map(|_| next()).collect();
        let mut faulty_state = good_state.clone();

        let patch = compile_patch(&self.program, fault);
        let mut detected_lanes = 0u64;
        let total = sequence.len() + flush;
        for cycle in 0..total {
            let vector = &sequence[cycle.min(sequence.len() - 1)];
            assert_eq!(vector.len(), width, "vector width mismatch");
            self.eval(vector, &good_state, &mut good, None);
            self.eval(vector, &faulty_state, &mut faulty, Some(patch));
            for &o in self.netlist.outputs() {
                detected_lanes |= good[o.index()] ^ faulty[o.index()];
            }
            if detected_lanes == !0u64 {
                return true;
            }
            for (i, ff) in self.netlist.dffs().iter().enumerate() {
                good_state[i] = good[ff.d.index()];
                faulty_state[i] = faulty[ff.d.index()];
            }
        }
        detected_lanes == !0u64
    }

    /// One time-frame: sources (inputs broadcast from `vector`, constant
    /// prologue, flip-flop Q slots from `state`), then the compiled
    /// instruction stream — patched when simulating the faulty machine.
    fn eval(&self, vector: &[bool], state: &[u64], values: &mut [u64], patch: Option<Patch>) {
        for (i, &slot) in self.program.input_slots().iter().enumerate() {
            values[slot as usize] = if vector[i] { !0u64 } else { 0 };
        }
        self.program.apply_consts(values);
        for (i, &(q, _)) in self.program.dff_slots().iter().enumerate() {
            values[q as usize] = state[i];
        }
        match patch {
            None => {
                self.program.run(values);
            }
            Some(p) => {
                self.program.run_patched(values, p);
            }
        }
    }

    /// Evaluates a single vector combinationally (flip-flops held at zero)
    /// under `fault` and returns the primary output values. Useful for
    /// replaying TPG streams through a faulty combinational equivalent.
    pub fn faulty_output_vector(&self, vector: &[bool], fault: Fault) -> Vec<bool> {
        let mut values = vec![0u64; self.netlist.net_count()];
        let state = vec![0u64; self.netlist.dff_count()];
        let patch = compile_patch(&self.program, fault);
        self.eval(vector, &state, &mut values, Some(patch));
        self.netlist
            .outputs()
            .iter()
            .map(|&o| values[o.index()] & 1 == 1)
            .collect()
    }

    /// The smallest `k ≤ max_k` such that some length-`k` vector sequence
    /// detects `fault` (searching all `2^(w·k)` sequences), or `None`.
    ///
    /// This is the fault's **k-pattern detectability** from Section 2 of
    /// the paper, measured by brute force.
    ///
    /// # Panics
    ///
    /// Panics if `w·max_k > 20` (the search would be unreasonable).
    pub fn k_pattern_detectability(
        &self,
        fault: Fault,
        max_k: usize,
        flush: usize,
    ) -> Option<usize> {
        let w = self.netlist.input_width();
        assert!(w * max_k <= 20, "brute-force sequence search capped");
        for k in 1..=max_k {
            let total_bits = w * k;
            for enc in 0..(1u64 << total_bits) {
                let sequence: Vec<Vec<bool>> = (0..k)
                    .map(|v| (0..w).map(|b| (enc >> (v * w + b)) & 1 == 1).collect())
                    .collect();
                if self.detects(fault, &sequence, flush) {
                    return Some(k);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultUniverse;
    use bibs_netlist::builder::NetlistBuilder;

    /// Figure 1 at gate level: input x fans out to block C directly and
    /// through register R; C compares the two (XOR). Unbalanced.
    fn figure1_netlist(width: usize) -> Netlist {
        let mut b = NetlistBuilder::new("fig1");
        let x = b.input_word("x", width);
        let delayed = b.register(&x);
        let cmp = b.xor_word(&x, &delayed);
        b.output_word("y", &cmp);
        b.finish().unwrap()
    }

    /// A balanced twin: both operands reach C at sequential length 1.
    fn balanced_netlist(width: usize) -> Netlist {
        let mut b = NetlistBuilder::new("bal");
        let x = b.input_word("x", width);
        let d1 = b.register(&x);
        let d2 = b.register(&x);
        let cmp = b.xor_word(&d1, &d2);
        b.output_word("y", &cmp);
        b.finish().unwrap()
    }

    /// Section 2's motivating claim, measured: the unbalanced Figure 1
    /// circuit contains faults that are 2-pattern but NOT 1-pattern
    /// detectable.
    #[test]
    fn figure1_has_strictly_2_pattern_faults() {
        let nl = figure1_netlist(2);
        let sim = SequentialFaultSim::new(&nl);
        let universe = FaultUniverse::collapsed(&nl);
        let mut strictly_two = 0usize;
        for &fault in universe.faults() {
            match sim.k_pattern_detectability(fault, 2, 2) {
                Some(1) => {}
                Some(2) => strictly_two += 1,
                Some(_) | None => {}
            }
        }
        assert!(
            strictly_two > 0,
            "the unbalanced circuit must contain sequence-only faults"
        );
    }

    /// Balanced circuits: every detectable fault is 1-pattern detectable
    /// (the BALLAST result the BIBS TDM rests on), measured on gates.
    #[test]
    fn balanced_circuit_is_single_pattern_testable() {
        let nl = balanced_netlist(2);
        let sim = SequentialFaultSim::new(&nl);
        let universe = FaultUniverse::collapsed(&nl);
        for &fault in universe.faults() {
            // Undetectable faults (e.g. XOR of equal values) are fine.
            if let Some(k) = sim.k_pattern_detectability(fault, 2, 3) {
                assert_eq!(
                    k, 1,
                    "balanced: fault {fault} must be single-pattern detectable"
                );
            }
        }
    }

    #[test]
    fn detects_agrees_with_direct_reasoning() {
        // y = x XOR delayed(x): holding a constant makes y = 0 forever, so
        // y-output stuck-at-0 cannot be caught by one vector but is caught
        // by the sequence (0, 1).
        let nl = figure1_netlist(1);
        let sim = SequentialFaultSim::new(&nl);
        let fault = Fault::net_sa0(nl.outputs()[0]);
        for v in [false, true] {
            assert!(!sim.detects(fault, &[vec![v]], 3), "held vector {v}");
        }
        assert!(sim.detects(fault, &[vec![false], vec![true]], 2));
    }

    #[test]
    fn flush_cycles_matter_for_deep_pipelines() {
        // Two back-to-back registers: a fault behind them needs the flush
        // to surface.
        let mut b = NetlistBuilder::new("deep");
        let x = b.input("x");
        let inv = b.not(x);
        let r1 = b.register(&[inv]);
        let r2 = b.register(&r1);
        b.output("y", r2[0]);
        let nl = b.finish().unwrap();
        let sim = SequentialFaultSim::new(&nl);
        let fault = Fault::net_sa0(nl.gate(nl.gate_ids().next().unwrap()).output);
        assert!(
            !sim.detects(fault, &[vec![false]], 0),
            "no flush, no detection"
        );
        assert!(
            sim.detects(fault, &[vec![false]], 2),
            "flush drains the pipeline"
        );
    }
}
