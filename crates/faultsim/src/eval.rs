//! Compiled-evaluation helpers for the fault simulator.
//!
//! Every thread count and lane width *must* compute per-fault detection
//! identically — the engine's determinism guarantee (bit-identical
//! [`crate::sim::FaultSimReport`]s) rests on there being exactly one
//! mapping from faults to [`Patch`]es and one output-difference rule.
//! Since the compiled-IR refactor the evaluation itself lives in
//! [`bibs_netlist::EvalProgram`]; this module supplies the fault-model
//! glue. The seed AST-walking interpreter survives in
//! [`crate::reference`] as the equivalence oracle.

use crate::fault::{Fault, FaultSite};
use bibs_netlist::{EvalProgram, Patch};

/// Maps a stuck-at fault to its compiled patch-point.
///
/// * [`FaultSite::Net`] on a gate-driven net → force that instruction's
///   output ([`Patch::InstrOutput`]);
/// * [`FaultSite::Net`] on a source net (input/const/flip-flop Q) → force
///   the slot ([`Patch::Slot`]);
/// * [`FaultSite::GatePin`] → override one operand of one instruction
///   ([`Patch::InstrPin`]).
#[inline]
pub(crate) fn compile_patch(program: &EvalProgram, fault: Fault) -> Patch {
    match fault.site {
        FaultSite::Net(n) => program.patch_net(n, fault.stuck_at),
        FaultSite::GatePin { gate, pin } => program.patch_pin(gate, pin, fault.stuck_at),
    }
}

/// The first sub-word on which the faulty machine's outputs differ from
/// the good machine's: `(sub_word, diff_word)` with the difference
/// restricted to `masks[sub_word]`, or `None` if the fault is undetected
/// in the whole sweep. `output_slots` are [`EvalProgram::output_slots`];
/// `masks[k]` is the valid-lane mask of sub-word `k` (0 for sub-words
/// past the pattern budget).
#[inline]
pub(crate) fn output_diff<const N: usize>(
    output_slots: &[u32],
    good: &[u64],
    faulty: &[u64],
    masks: &[u64; N],
) -> Option<(usize, u64)> {
    let mut diff = [0u64; N];
    for &o in output_slots {
        let a = o as usize * N;
        for ((d, g), f) in diff.iter_mut().zip(&good[a..a + N]).zip(&faulty[a..a + N]) {
            *d |= g ^ f;
        }
    }
    first_detection(diff, masks)
}

/// The first sub-word `k` whose output difference `diff[k]` has a lane
/// inside `masks[k]`, with that masked word. Taking the *first* differing
/// sub-word, and its lowest lane, is what makes first-detection indices
/// identical at every lane width.
#[inline]
pub(crate) fn first_detection<const N: usize>(
    diff: [u64; N],
    masks: &[u64; N],
) -> Option<(usize, u64)> {
    diff.iter()
        .zip(masks)
        .map(|(&d, &m)| d & m)
        .enumerate()
        .find(|&(_, d)| d != 0)
}
