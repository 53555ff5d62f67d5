//! Compiled-evaluation helpers for the fault simulators.
//!
//! Every engine *must* compute per-fault detection identically — the
//! engines' determinism guarantee (bit-identical
//! [`crate::sim::FaultSimReport`]s) rests on one detection rule (the
//! lowest valid lane of the output difference) and on one reading of
//! where a fault acts in the compiled program, [`Fault::locate`]. The
//! evaluation itself lives in [`bibs_netlist::EvalProgram`]; this module
//! supplies the fault-model glue: the detection rule and, where a fault
//! runs as a whole faulty machine ([`crate::seq::SequentialFaultSim`],
//! and through it `bibs_core::session`), the [`Patch`] its location maps
//! to. The compiled engine ([`crate::par`]) traces faults to their
//! fanout-free regions' stems instead of patching each one. The seed
//! AST-walking interpreter survives in [`crate::reference`] as the
//! equivalence oracle, and this module's tests hold the whole-machine
//! patch to it net for net.

use crate::fault::Fault;
use bibs_netlist::{EvalProgram, Patch};

/// The patch that runs `fault` as a whole faulty machine: a net fault
/// forces its slot ([`EvalProgram::patch_slot`]), and a pin fault
/// overrides one operand of one instruction ([`Patch::InstrPin`]), so
/// every other reader of the net sees its good value.
#[inline]
pub(crate) fn compile_patch(program: &EvalProgram, fault: Fault) -> Patch {
    let word = if fault.stuck_at { !0 } else { 0 };
    let at = fault.locate(program);
    match at.pin {
        None => program.patch_slot(at.slot, word),
        Some((instr, pin)) => Patch::InstrPin {
            instr: instr as u32,
            pin: pin as u32,
            word,
        },
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultUniverse;
    use crate::reference;
    use bibs_netlist::builder::NetlistBuilder;
    use bibs_netlist::Netlist;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    /// Runs every fault of [`FaultUniverse::full`] as a whole faulty
    /// machine ([`compile_patch`], then [`EvalProgram::eval_patched`] on
    /// one buffer kept across faults) on `blocks` random blocks drawn
    /// from `seed`, and describes the first net whose word differs from
    /// the reference interpreter's ([`reference::eval_faulty`]).
    fn first_patch_divergence(nl: &Netlist, seed: u64, blocks: usize) -> Option<String> {
        let program = EvalProgram::compile(nl).unwrap();
        let order = nl.levelize().unwrap();
        let faults = FaultUniverse::full(nl);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut compiled = program.new_values();
        let mut interpreted = vec![0u64; nl.net_count()];
        let mut scratch = Vec::new();
        for _ in 0..blocks {
            let inputs: Vec<u64> = (0..nl.input_width()).map(|_| rng.next_u64()).collect();
            for &fault in faults.faults() {
                program.eval_patched(&mut compiled, &inputs, compile_patch(&program, fault));
                reference::eval_faulty(nl, &order, &inputs, fault, &mut interpreted, &mut scratch);
                if let Some(net) = nl
                    .net_ids()
                    .find(|n| compiled[n.index()] != interpreted[n.index()])
                {
                    return Some(format!(
                        "{}: under {fault} net {net} holds {:#x}; the interpreter gives {:#x}",
                        nl.name(),
                        compiled[net.index()],
                        interpreted[net.index()]
                    ));
                }
            }
        }
        None
    }

    /// A constant feeding a gate: its stem faults patch a source slot.
    fn with_constant() -> Netlist {
        let mut b = NetlistBuilder::new("const");
        let (a, c) = (b.input("a"), b.input("b"));
        let one = b.const1();
        let g = b.and2(a, one);
        let y = b.or2(g, c);
        b.output("y", y);
        b.finish().unwrap()
    }

    /// A gate that reads one net on both pins: a fault on one pin is not
    /// the net's fault.
    fn one_net_on_both_pins() -> Netlist {
        let mut b = NetlistBuilder::new("both_pins");
        let (a, c) = (b.input("a"), b.input("b"));
        let x = b.xor2(a, c);
        let y = b.and2(x, x);
        let z = b.or2(y, a);
        b.output("z", z);
        b.finish().unwrap()
    }

    /// A primary output that gates also read.
    fn output_that_fans_out() -> Netlist {
        let mut b = NetlistBuilder::new("output_fanout");
        let (a, c, d) = (b.input("a"), b.input("b"), b.input("d"));
        let y = b.and2(a, c);
        let z = b.or2(y, d);
        let w = b.not(y);
        b.output("y", y);
        b.output("z", z);
        b.output("w", w);
        b.finish().unwrap()
    }

    #[test]
    fn whole_machine_patches_match_the_interpreter_on_fixtures() {
        for nl in [
            with_constant(),
            one_net_on_both_pins(),
            output_that_fans_out(),
        ] {
            for seed in 0..4 {
                assert_eq!(first_patch_divergence(&nl, seed, 2), None);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn whole_machine_patches_match_the_interpreter_on_random_dags(
            nl in bibs_netlist::testgen::netlist_strategy_sized(8, 30),
            seed: u64,
        ) {
            prop_assert_eq!(first_patch_divergence(&nl, seed, 2), None);
        }
    }
}
