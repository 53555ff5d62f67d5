//! Correctness oracle for the semantic analyses: every static claim the
//! analysis layer makes is cross-checked against exhaustive simulation.
//!
//! Two invariants, each checked on small builtins (ripple-carry adders
//! up to 8 bits, the kernels BIBS extracts from `circuits/fig4.ckt` and
//! the Figure 9 datapath) plus a deterministic family of ~30 random gate
//! DAGs and a proptest:
//!
//! 1. **Zero false "untestable" claims** — no fault the
//!    [`StaticFaultAnalysis`] prover rules statically untestable is ever
//!    detected by exhaustive simulation of the full fault universe;
//! 2. **Sound ternary constants** — every net the ternary abstraction
//!    proves constant under a random primary-input pinning really holds
//!    that value in 64-way concrete simulation of random pinned blocks.

use bibs_faultsim::fault::{FaultUniverse, StaticFaultAnalysis};
use bibs_faultsim::par::ParFaultSimulator;
use bibs_faultsim::sim::BlockSim;
use bibs_netlist::analysis::{ternary_analyze, PiAssumption};
use bibs_netlist::builder::NetlistBuilder;
use bibs_netlist::{EvalProgram, Netlist};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

// ---------------------------------------------------------------- corpus

fn adder(bits: usize) -> Netlist {
    let mut b = NetlistBuilder::new(format!("add{bits}"));
    let x = b.input_word("x", bits);
    let y = b.input_word("y", bits);
    let (s, co) = b.ripple_carry_adder(&x, &y, None);
    b.output_word("s", &s);
    b.output("co", co);
    b.finish().expect("adder is well-formed")
}

/// The logic-bearing kernels BIBS extracts from a paper circuit.
fn circuit_kernels(circuit: &bibs_rtl::Circuit) -> Vec<Netlist> {
    let r = bibs_core::bibs::select(circuit, &bibs_core::bibs::BibsOptions::default())
        .expect("paper circuits are IO-registered");
    let cut: HashSet<_> = r.design.bilbo.union(&r.design.cbilbo).copied().collect();
    bibs_core::design::kernels(&r.circuit, &r.design)
        .into_iter()
        .filter(|k| k.has_logic(&r.circuit))
        .map(|k| {
            let kset: HashSet<_> = k.vertices.iter().copied().collect();
            bibs_datapath::elab::elaborate_kernel(&r.circuit, &kset, &cut)
                .expect("paper kernel elaborates")
                .netlist
                .combinational_equivalent()
        })
        .collect()
}

fn fig4_kernels() -> Vec<Netlist> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../circuits/fig4.ckt");
    let text = std::fs::read_to_string(path).expect("circuits/fig4.ckt is part of the repo");
    let circuit = bibs_rtl::fmt::from_text(&text).expect("fig4.ckt parses");
    circuit_kernels(&circuit)
}

/// A deterministic random gate DAG from the shared generator.
fn random_netlist(seed: u64, inputs: usize, ops: usize) -> Netlist {
    bibs_netlist::testgen::random_netlist_seeded(seed, inputs, ops)
}

/// The oracle corpus: everything exhaustible (≤ 16 PI bits).
fn corpus() -> Vec<Netlist> {
    let mut all = vec![adder(2), adder(4), adder(8)];
    all.extend(fig4_kernels());
    all.extend(
        circuit_kernels(&bibs_datapath::fig9::figure9())
            .into_iter()
            .filter(|nl| nl.input_width() <= 16),
    );
    for seed in 0..30u64 {
        all.push(random_netlist(
            0x0A11_5EED ^ seed,
            2 + (seed as usize % 7),
            3 + (seed as usize % 23),
        ));
    }
    all.retain(|nl| nl.input_width() <= 16);
    assert!(all.len() >= 33, "corpus unexpectedly small: {}", all.len());
    all
}

// --------------------------------------------------------------- oracles

/// Invariant 1: the prover never calls a detectable fault untestable.
#[test]
fn static_untestable_faults_are_never_detected_exhaustively() {
    let mut verdicts = 0usize;
    for nl in corpus() {
        let program = EvalProgram::compile(&nl).expect("corpus is combinational");
        let sfa = StaticFaultAnalysis::new(&program);
        let universe = FaultUniverse::full(&nl);
        let (_, untestable) = sfa.partition(&program, universe.faults());
        verdicts += untestable.len();
        if untestable.is_empty() {
            continue;
        }
        let faults: Vec<_> = untestable.iter().map(|(f, _)| *f).collect();
        let report = ParFaultSimulator::new(&nl, faults.clone()).run_exhaustive();
        for (i, det) in report.detection().iter().enumerate() {
            assert!(
                det.is_none(),
                "{}: fault {} proven untestable ({}) but detected at pattern {}",
                nl.name(),
                faults[i],
                untestable[i].1.witness,
                det.unwrap()
            );
        }
    }
    // The corpus must actually exercise the prover.
    assert!(verdicts > 0, "corpus produced no untestable verdicts");
}

/// Evaluates `program` on `blocks` random 64-lane input blocks honouring
/// `pins` and asserts that each slot claimed constant holds its value in
/// every lane of every block.
fn check_constants_against_simulation(
    nl: &Netlist,
    pins: &[Option<bool>],
    blocks: usize,
    seed: u64,
) {
    let program = EvalProgram::compile(nl).expect("combinational");
    let abs = ternary_analyze(&program, &PiAssumption::Pinned(pins.to_vec()));
    let claims: Vec<(usize, bool)> = abs.constants().collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut values = program.new_values();
    let mut inputs = vec![0u64; program.input_slots().len()];
    for _ in 0..blocks {
        for (w, pin) in inputs.iter_mut().zip(pins) {
            *w = match pin {
                Some(true) => !0u64,
                Some(false) => 0u64,
                None => rng.gen(),
            };
        }
        program.eval_good(&mut values, &inputs);
        for &(slot, value) in &claims {
            let want = if value { !0u64 } else { 0u64 };
            assert_eq!(
                values[slot],
                want,
                "{}: slot {slot} claimed constant {value} but simulation disagrees",
                nl.name()
            );
        }
    }
}

/// Invariant 2 (deterministic sweep): ternary constants under all-X and
/// under every-PI-pinned agree with concrete simulation on the corpus.
#[test]
fn ternary_constants_agree_with_simulation_on_corpus() {
    for nl in corpus() {
        let width = nl.input_width();
        let all_x: Vec<Option<bool>> = vec![None; width];
        check_constants_against_simulation(&nl, &all_x, 8, 0xC0FF_EE00);
        // One arbitrary full pinning: everything becomes constant, so the
        // claims cover every net and the check is maximally strict.
        let pinned: Vec<Option<bool>> = (0..width).map(|i| Some(i % 3 == 0)).collect();
        check_constants_against_simulation(&nl, &pinned, 2, 0xC0FF_EE01);
    }
}

// -------------------------------------------------------------- proptest

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Invariant 2 (random): on random DAGs under random partial pinnings,
    /// every ternary constant claim survives random 64-lane simulation.
    #[test]
    fn ternary_constants_sound_under_random_pinnings(
        seed in any::<u64>(),
        pin_seed in any::<u64>(),
    ) {
        let nl = random_netlist(seed, 2 + (seed % 6) as usize, 4 + (seed % 20) as usize);
        let mut rng = StdRng::seed_from_u64(pin_seed);
        let pins: Vec<Option<bool>> = (0..nl.input_width())
            .map(|_| match rng.gen_range(0..3u32) {
                0 => Some(false),
                1 => Some(true),
                _ => None,
            })
            .collect();
        check_constants_against_simulation(&nl, &pins, 6, pin_seed ^ 0xDEAD);
    }
}
