//! Compiled-evaluation helpers for the fault simulators.
//!
//! Every engine *must* compute per-fault detection identically — the
//! engines' determinism guarantee (bit-identical
//! [`crate::sim::FaultSimReport`]s) rests on one detection rule (the
//! lowest valid lane of the output difference) and, where a fault is
//! run as a whole faulty machine, one mapping from faults to
//! [`Patch`]es. Since the compiled-IR refactor the evaluation itself
//! lives in [`bibs_netlist::EvalProgram`]; this module supplies the
//! fault-model glue. The compiled engine ([`crate::par`]) traces faults
//! to their fanout-free regions' stems instead of patching each one. The
//! seed AST-walking interpreter survives in [`crate::reference`] as the
//! equivalence oracle.

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

/// The OR of `good ^ faulty` over the primary outputs: the lanes on
/// which the faulty machine's outputs differ from the good machine's.
/// `output_slots` index one word per slot.
#[inline]
pub(crate) fn output_diff(output_slots: &[u32], good: &[u64], faulty: &[u64]) -> u64 {
    output_slots
        .iter()
        .fold(0, |d, &o| d | (good[o as usize] ^ faulty[o as usize]))
}

/// The valid-lane mask of a block whose first `lanes` lanes (1..=64)
/// are applied.
#[inline]
pub(crate) fn lane_mask(lanes: usize) -> u64 {
    u64::MAX >> (64 - lanes)
}

/// The lowest lane of the output difference `diff` inside `mask` — the
/// offset within the block of the first pattern that detects the fault —
/// or `None` if no valid lane differs.
#[inline]
pub(crate) fn first_detection(diff: u64, mask: u64) -> Option<u64> {
    let hit = diff & mask;
    (hit != 0).then(|| u64::from(hit.trailing_zeros()))
}
