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
use bibs_netlist::opt::OptimizedProgram;
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

/// How one fault is evaluated when the engine runs an optimizer-rewritten
/// program.
///
/// Faults are always *compiled against the original program* (the fault
/// universe lives on the netlist), then translated through the rewrite:
///
/// * [`FaultPatch::Direct`] — the unoptimized engine's case: one patch on the
///   program being run;
/// * [`FaultPatch::Multi`] — the rewrite maps the fault to a set of
///   patches on the optimized program (e.g. a stem fault on a deleted
///   buffer becomes pin forces on every surviving reader), sorted for
///   [`EvalProgram::run_multi_patched`];
/// * [`FaultPatch::Fallback`] — no faithful image exists on the optimized
///   program; the faulty machine runs the *original* program instead.
///   Sound because the two programs are equivalence-proven: the good
///   values the faulty outputs are compared against are identical either
///   way.
#[derive(Debug, Clone)]
pub(crate) enum FaultPatch {
    Direct(Patch),
    Multi(Box<[Patch]>),
    Fallback(Patch),
}

impl FaultPatch {
    /// Patch-points applied per faulty evaluation (the
    /// `PatchesApplied` accounting unit).
    #[inline]
    pub(crate) fn patch_count(&self) -> u64 {
        match self {
            FaultPatch::Direct(_) | FaultPatch::Fallback(_) => 1,
            FaultPatch::Multi(ps) => ps.len() as u64,
        }
    }
}

/// Compiles every fault against `program` and, when `opt` is given,
/// remaps it through the rewrite into a [`FaultPatch`].
pub(crate) fn compile_fault_patches(
    program: &EvalProgram,
    opt: Option<&OptimizedProgram>,
    faults: &[Fault],
) -> Vec<FaultPatch> {
    faults
        .iter()
        .map(|&f| {
            let patch = compile_patch(program, f);
            match opt {
                None => FaultPatch::Direct(patch),
                Some(o) => match o.remap_patch(patch) {
                    Some(ps) => FaultPatch::Multi(ps.into_boxed_slice()),
                    None => FaultPatch::Fallback(patch),
                },
            }
        })
        .collect()
}

/// Checks the engine-construction invariant that [`eval_fault`] relies
/// on: every [`FaultPatch::Fallback`] needs the original program at hand.
/// The engine calls this once at construction and surface the failure as
/// a typed [`crate::sim::SimError`] instead of aborting mid-run.
pub(crate) fn validate_fault_patches(
    patches: &[FaultPatch],
    has_fallback: bool,
) -> Result<(), crate::sim::SimError> {
    if has_fallback {
        return Ok(());
    }
    match patches
        .iter()
        .position(|fp| matches!(fp, FaultPatch::Fallback(_)))
    {
        None => Ok(()),
        Some(fault_index) => Err(crate::sim::SimError::MissingFallback { fault_index }),
    }
}

/// One faulty-machine evaluation over a stride-`N` buffer: runs `program`
/// (the good-machine program) for `Direct`/`Multi`, or `fallback` (the
/// pre-rewrite program; same slot space) for `Fallback`. `inputs` is the
/// input-contiguous layout of [`EvalProgram::set_inputs`]. Returns the
/// lane-normalized executed instruction count.
///
/// `Fallback` without a fallback program is rejected at engine
/// construction by [`validate_fault_patches`], so it is unreachable here.
#[inline]
pub(crate) fn eval_fault<const N: usize>(
    program: &EvalProgram,
    fallback: Option<&EvalProgram>,
    values: &mut [u64],
    inputs: &[u64],
    fp: &FaultPatch,
) -> u64 {
    match fp {
        FaultPatch::Direct(p) => program.eval_patched::<N>(values, inputs, *p),
        FaultPatch::Multi(ps) => program.eval_multi_patched::<N>(values, inputs, ps),
        FaultPatch::Fallback(p) => match fallback {
            Some(orig) => orig.eval_patched::<N>(values, inputs, *p),
            None => unreachable!("validate_fault_patches admits Fallback only with a fallback"),
        },
    }
}

/// The first sub-word on which the faulty machine's outputs differ from
/// the good machine's: `(sub_word, diff_word)` with the difference
/// restricted to `masks[sub_word]`, or `None` if the fault is undetected
/// in the whole sweep. `output_slots` are [`EvalProgram::output_slots`];
/// `masks[k]` is the valid-lane mask of sub-word `k` (0 for sub-words
/// past the pattern budget). Taking the *first* differing sub-word, and
/// its lowest lane, is what makes first-detection indices identical at
/// every lane width.
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
    diff.iter()
        .zip(masks)
        .map(|(&d, &m)| d & m)
        .enumerate()
        .find(|&(_, d)| d != 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_rejects_fallback_patches_without_a_fallback_program() {
        let p = Patch::Slot { slot: 0, word: 0 };
        let patches = vec![
            FaultPatch::Direct(p),
            FaultPatch::Fallback(p),
            FaultPatch::Fallback(p),
        ];
        // With the original program retained, fallback dispatch is legal.
        assert!(validate_fault_patches(&patches, true).is_ok());
        // Without it, construction must fail with a typed error naming
        // the *first* unmapped fault (this used to be a mid-run abort).
        let err = validate_fault_patches(&patches, false).unwrap_err();
        let crate::sim::SimError::MissingFallback { fault_index } = err;
        assert_eq!(fault_index, 1);
        // No Fallback patches at all: nothing to validate.
        assert!(validate_fault_patches(&[FaultPatch::Direct(p)], false).is_ok());
        assert!(validate_fault_patches(&[], false).is_ok());
    }
}
