//! Compiled-IR/interpreter equivalence: the [`EvalProgram`]-based
//! [`ParFaultSimulator`] must produce reports **bit-identical** to the
//! original gate-walking interpreter preserved as
//! [`bibs_faultsim::reference::ReferenceSimulator`] — same `detection()`
//! vector (every first-detection pattern index), same
//! `patterns_applied()` — for every circuit and seed. This is the
//! contract that makes the compiled IR a pure throughput optimization.
//!
//! Covered here: good-machine output words on random vectors, full
//! `FaultSimReport` equality on adders/multipliers, the kernels the BIBS
//! TDM extracts from `circuits/fig4.ckt` and from the paper's Figure 9
//! datapath, scaled versions of the three Table 2 circuits
//! (c5a2m/c3a2m/c4a4m), a hand-built fixture of the fanout-free-region
//! corner cases run exhaustively on its full fault universe, and a
//! proptest over random gate DAGs on the collapsed and full universes.
//!
//! Three hand-built blocks pin the engine's early stop: a stem
//! propagation returns once each fault of the region has its lowest
//! flipped lane at an output, so a fault whose lowest lane is never
//! observed must keep the propagation running, and only lanes under the
//! block's mask may flip the stem or join the stop word.
//!
//! The last proptest pins the propagation kernel the engine runs once
//! per stem: [`EvalProgram::eval_events`] must give the same primary-output
//! difference as a whole-program patched run, for every single patch,
//! and leave the faulty buffer clean.

use bibs_faultsim::fault::{Fault, FaultSite, FaultUniverse};
use bibs_faultsim::par::ParFaultSimulator;
use bibs_faultsim::reference::ReferenceSimulator;
use bibs_faultsim::sim::{BlockSim, Stop};
use bibs_faultsim::source::{PatternBlock, RandomWords};
use bibs_netlist::builder::NetlistBuilder;
use bibs_netlist::{EvalProgram, EventQueue, GateKind, Netlist, Patch};
use bibs_rtl::{Circuit, VertexKind};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

const SEEDS: [u64; 3] = [1, 0xB1B5, 0x51B5_1994];

/// Asserts that the reference interpreter and the compiled engine produce
/// bit-identical reports on every `SEEDS` random stream.
fn assert_compiled_matches_reference(netlist: &Netlist, faults: &[Fault], max_patterns: u64) {
    for &seed in &SEEDS {
        let reference = ReferenceSimulator::new(netlist, faults.to_vec())
            .run(&mut RandomWords::seeded(seed), Stop::after(max_patterns));
        let par = ParFaultSimulator::new(netlist, faults.to_vec())
            .run(&mut RandomWords::seeded(seed), Stop::after(max_patterns));
        assert_eq!(
            reference.detection(),
            par.detection(),
            "compiled engine diverges at seed {seed:#x}"
        );
        assert_eq!(reference.patterns_applied(), par.patterns_applied());
    }
}

/// Good-machine check: the compiled program's output words must equal the
/// interpreter's on random 64-pattern blocks.
fn assert_good_machine_matches(netlist: &Netlist, seed: u64) {
    let program = EvalProgram::compile(netlist).expect("acyclic");
    let order = netlist.levelize().expect("acyclic");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut compiled = program.new_values();
    let mut interpreted = vec![0u64; netlist.net_count()];
    let mut scratch = Vec::new();
    for _ in 0..16 {
        let words: Vec<u64> = (0..netlist.input_width()).map(|_| rng.gen()).collect();
        program.eval_good(&mut compiled, &words);
        bibs_faultsim::reference::eval_good(
            netlist,
            &order,
            &words,
            &mut interpreted,
            &mut scratch,
        );
        for id in netlist.net_ids() {
            assert_eq!(
                compiled[id.index()],
                interpreted[id.index()],
                "net {id:?} words diverge"
            );
        }
    }
}

fn adder(width: usize) -> Netlist {
    let mut b = NetlistBuilder::new("add");
    let a = b.input_word("a", width);
    let c = b.input_word("b", width);
    let (s, co) = b.ripple_carry_adder(&a, &c, None);
    b.output_word("s", &s);
    b.output("co", co);
    b.finish().unwrap()
}

fn multiplier(width: usize) -> Netlist {
    let mut b = NetlistBuilder::new("mul");
    let a = b.input_word("a", width);
    let c = b.input_word("b", width);
    let p = b.array_multiplier(&a, &c, 2 * width);
    b.output_word("p", &p[..width]);
    b.finish().unwrap()
}

#[test]
fn adder_compiled_engines_match_reference() {
    for width in [4usize, 8] {
        let nl = adder(width);
        assert_good_machine_matches(&nl, 11);
        let faults = FaultUniverse::collapsed(&nl).faults().to_vec();
        assert_compiled_matches_reference(&nl, &faults, 10_000);
    }
}

#[test]
fn multiplier_compiled_engines_match_reference() {
    for width in [3usize, 4] {
        let nl = multiplier(width);
        assert_good_machine_matches(&nl, 13);
        let faults = FaultUniverse::collapsed(&nl).faults().to_vec();
        assert_compiled_matches_reference(&nl, &faults, 10_000);
    }
}

/// Elaborates every logic-bearing kernel the BIBS TDM extracts from a
/// circuit to its combinational equivalent.
fn bibs_kernels(circuit: &Circuit) -> Vec<Netlist> {
    let r = bibs_core::bibs::select(circuit, &bibs_core::bibs::BibsOptions::default())
        .expect("circuit is IO-registered");
    let cut: HashSet<_> = r
        .design
        .bilbo
        .iter()
        .chain(&r.design.cbilbo)
        .copied()
        .collect();
    bibs_core::design::kernels(&r.circuit, &r.design)
        .into_iter()
        .filter(|k| {
            k.vertices
                .iter()
                .any(|&v| r.circuit.vertex(v).kind == VertexKind::Logic)
        })
        .map(|k| {
            let kset: HashSet<_> = k.vertices.iter().copied().collect();
            bibs_datapath::elab::elaborate_kernel(&r.circuit, &kset, &cut)
                .expect("kernel elaborates")
                .netlist
                .combinational_equivalent()
        })
        .collect()
}

#[test]
fn fig4_kernels_match_reference() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../circuits/fig4.ckt");
    let text = std::fs::read_to_string(path).expect("circuits/fig4.ckt is part of the repo");
    let circuit = bibs_rtl::fmt::from_text(&text).expect("fig4.ckt parses");
    let kernels = bibs_kernels(&circuit);
    assert!(!kernels.is_empty(), "fig4 must yield logic-bearing kernels");
    for nl in &kernels {
        assert_good_machine_matches(nl, 17);
        let faults = FaultUniverse::collapsed(nl).faults().to_vec();
        assert_compiled_matches_reference(nl, &faults, 4_000);
    }
}

#[test]
fn fig9_kernels_match_reference() {
    let kernels = bibs_kernels(&bibs_datapath::fig9::figure9());
    assert!(!kernels.is_empty(), "fig9 must yield logic-bearing kernels");
    for nl in &kernels {
        assert_good_machine_matches(nl, 19);
        let faults = FaultUniverse::collapsed(nl).faults().to_vec();
        assert_compiled_matches_reference(nl, &faults, 2_000);
    }
}

/// Scaled-down versions of the three Table 2 datapaths (3-bit words keep
/// the interpreter's runtime reasonable in debug builds); the full-width
/// circuits are checked end-to-end by the CI equivalence smoke.
#[test]
fn table2_circuit_kernels_match_reference() {
    for name in ["c5a2m", "c3a2m", "c4a4m"] {
        let kernels = bibs_kernels(&bibs_datapath::filters::scaled(name, 3));
        assert!(!kernels.is_empty(), "{name} must yield kernels");
        for nl in &kernels {
            assert_good_machine_matches(nl, 23);
            let faults = FaultUniverse::collapsed(nl).faults().to_vec();
            assert_compiled_matches_reference(nl, &faults, 2_000);
        }
    }
}

/// The fanout-free-region corner cases that random DAGs rarely build:
/// 3-input AND/OR/XOR gates, a BUF, a constant-0 operand like the
/// multipliers' tied-zero padding, a net whose one reader reads it on
/// both pins, a primary output that also feeds a gate, a primary input
/// that is directly an output, and reconvergent fanout.
fn ffr_corners() -> Netlist {
    let mut b = NetlistBuilder::new("ffr-corners");
    let a = b.input("a");
    let c = b.input("b");
    let d = b.input("d");
    let e = b.input("e");
    let f = b.input("f");
    let zero = b.const0();
    let and3 = b.gate(GateKind::And, &[f, c, d]);
    let or3 = b.gate(GateKind::Or, &[c, d, zero]);
    // `b` and `d` fan out to both 3-input gates and reconverge here.
    let xor3 = b.gate(GateKind::Xor, &[and3, or3, e]);
    let buf = b.gate(GateKind::Buf, &[xor3]);
    // `a` has no other reader: two pins of one gate still make it a stem.
    let twice = b.gate(GateKind::And, &[a, a]);
    let nor = b.gate(GateKind::Nor, &[buf, twice]);
    let nand = b.gate(GateKind::Nand, &[nor, zero]);
    let not = b.not(nor);
    let xnor = b.gate(GateKind::Xnor, &[not, d]);
    b.output("buf", buf);
    b.output("y", xnor);
    b.output("e", e);
    b.output("k", nand);
    b.finish().unwrap()
}

/// Every fault of the full universe, plus both stuck-at faults on the
/// shared constant (a source stem the full universe leaves out), meets
/// the reference engine over every input pattern.
#[test]
fn ffr_corner_cases_match_reference_exhaustively() {
    let nl = ffr_corners();
    let zero = nl
        .net_ids()
        .find(|&n| matches!(nl.driver(n), bibs_netlist::NetDriver::Const(false)))
        .expect("the fixture has a constant 0");
    let mut faults = FaultUniverse::full(&nl).faults().to_vec();
    faults.extend([Fault::net_sa0(zero), Fault::net_sa1(zero)]);
    let reference = ReferenceSimulator::new(&nl, faults.clone()).run_exhaustive();
    let par = ParFaultSimulator::new(&nl, faults).run_exhaustive();
    assert_eq!(reference.detection(), par.detection());
    assert_eq!(reference.patterns_applied(), par.patterns_applied());
    assert!(par.detected_count() > 0 && !par.undetected().is_empty());
    assert!(par.stats().stem_evals < par.stats().fault_evals);
}

// --- the early stop of a stem propagation --------------------------------

/// One fanout-free region read early and late: the stem `s = a AND b`
/// feeds the output `y = s AND c` and, through `s AND d` and two
/// inverters, the output `z`, which the schedule reaches last. The two
/// faults share the stem: `a` stuck-at-1 flips it where `a = 0, b = 1`,
/// `b` stuck-at-1 where `a = 1, b = 0`. A flipped lane reaches `y` where
/// `c = 1` and `z` where `d = 1`.
fn early_and_late() -> (Netlist, Vec<Fault>) {
    let mut b = NetlistBuilder::new("early-late");
    let a = b.input("a");
    let c = b.input("b");
    let early = b.input("c");
    let late = b.input("d");
    let s = b.and2(a, c);
    let y = b.and2(s, early);
    let n1 = b.and2(s, late);
    let n2 = b.not(n1);
    let z = b.not(n2);
    b.output("y", y);
    b.output("z", z);
    (
        b.finish().unwrap(),
        vec![Fault::net_sa1(a), Fault::net_sa1(c)],
    )
}

/// Applies one block of `early_and_late` patterns, given per lane as
/// the string of its `a b c d` bits, to both engines with only the first
/// `lanes` lanes valid. Checks that the detections agree and returns
/// them with the compiled engine's stem propagations and early stops.
fn apply_to_both(patterns: &[&str], lanes: usize) -> (Vec<Option<u64>>, u64, u64) {
    let (nl, faults) = early_and_late();
    let mut words = vec![0u64; 4];
    for (lane, bits) in patterns.iter().enumerate() {
        for (input, bit) in bits.bytes().enumerate() {
            words[input] |= u64::from(bit == b'1') << lane;
        }
    }
    let block = PatternBlock { words, lanes: 64 };
    let mut par = ParFaultSimulator::new(&nl, faults.clone());
    let mut reference = ReferenceSimulator::new(&nl, faults);
    par.apply(&block, lanes);
    reference.apply(&block, lanes);
    assert_eq!(par.detection(), reference.detection());
    let stats = par.report().stats().clone();
    (par.detection().to_vec(), stats.stem_evals, stats.stem_stops)
}

#[test]
fn a_fault_unobserved_in_its_lowest_lane_is_detected_in_a_later_one() {
    // `a` stuck-at-1 flips the stem in lanes 0 and 1; only lane 1 reaches
    // an output. Its lowest lane never differs, so the propagation runs
    // to the end and the detection is lane 1.
    let got = apply_to_both(&["0100", "0110"], 64);
    assert_eq!(got, (vec![Some(1), None], 1, 0));
}

#[test]
fn a_shared_stem_runs_on_until_every_faults_lowest_lane_is_observed() {
    // `a` stuck-at-1 flips lane 0, which `y` observes first. `b`
    // stuck-at-1 flips lanes 1 and 2: lane 1 reaches no output and lane
    // 2 only `z`, at the end of the schedule. A propagation that stopped
    // once `a`'s lane was observed would miss `b`'s detection.
    let got = apply_to_both(&["0110", "1000", "1001"], 64);
    assert_eq!(got, (vec![Some(0), Some(2)], 1, 0));
}

#[test]
fn a_ragged_block_flips_and_stops_on_valid_lanes_only() {
    // Four valid lanes. `a` stuck-at-1 flips lanes 0 and 1 and lane 5
    // above the mask; `b` stuck-at-1 flips only lane 6, above the mask.
    // Lane 0 reaches `y` while the `z` path is still pending: the stop
    // word is lane 0 alone, so the propagation stops there. A stop word
    // that held every flipped lane (lane 1 never reaches an output) or a
    // lane above the mask would run it to the end.
    let patterns = ["0110", "0100", "0000", "0000", "0000", "0111", "1011"];
    let got = apply_to_both(&patterns, 4);
    assert_eq!(got, (vec![Some(0), None], 1, 1));
}

// --- proptest over random netlists --------------------------------------

fn netlist_strategy() -> impl Strategy<Value = Netlist> {
    bibs_netlist::testgen::netlist_strategy_sized(8, 30)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any random netlist, any seed: the compiled engine must match the
    /// interpreter on net words and full reports, over the collapsed
    /// universe and the full one (pin faults on fanout-free nets and
    /// every net fault inside a fanout-free region).
    #[test]
    fn random_netlists_compile_to_equivalent_engines(
        nl in netlist_strategy(),
        seed: u64,
    ) {
        assert_good_machine_matches(&nl, seed);
        for universe in [FaultUniverse::collapsed(&nl), FaultUniverse::full(&nl)] {
            let faults = universe.faults().to_vec();

            let reference = ReferenceSimulator::new(&nl, faults.clone())
                .run(&mut RandomWords::seeded(seed), Stop::after(2_000));
            let par = ParFaultSimulator::new(&nl, faults.clone())
                .run(&mut RandomWords::seeded(seed), Stop::after(2_000));
            prop_assert_eq!(reference.detection(), par.detection());
            prop_assert_eq!(reference.patterns_applied(), par.patterns_applied());
        }
    }
}

/// The whole-program oracle: after [`EvalProgram::eval_patched`], the
/// OR of `good ^ faulty` over the primary outputs, and the count of
/// instructions an event-driven run must evaluate — every one not
/// output-forced that is pin-patched or reads a slot whose faulty value
/// differs from the good one.
fn whole_program_oracle(
    program: &EvalProgram,
    good: &[u64],
    inputs: &[u64],
    patch: Patch,
) -> (u64, u64) {
    let mut faulty = program.new_values();
    program.eval_patched(&mut faulty, inputs, patch);
    let differs = |s: u32| good[s as usize] != faulty[s as usize];
    let diff = program
        .output_slots()
        .iter()
        .fold(0, |d, &o| d | (good[o as usize] ^ faulty[o as usize]));
    let forced =
        |i: usize| matches!(patch, Patch::InstrOutput { instr, .. } if instr as usize == i);
    let pinned = |i: usize| matches!(patch, Patch::InstrPin { instr, .. } if instr as usize == i);
    let evaluated = (0..program.instr_count())
        .filter(|&i| {
            !forced(i) && (pinned(i) || program.instr(i).operands.iter().any(|&s| differs(s)))
        })
        .count();
    (diff, evaluated as u64)
}

/// Runs every patch through [`EvalProgram::eval_events`] on one random
/// block and compares the difference word and the exact work with the
/// whole-program oracle.
fn assert_events_match(
    program: &EvalProgram,
    patches: &[Patch],
    seed: u64,
) -> Result<(), TestCaseError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let inputs: Vec<u64> = (0..program.input_slots().len())
        .map(|_| rng.gen())
        .collect();
    let mut good = program.new_values();
    program.eval_good(&mut good, &inputs);
    let mut faulty = good.clone();
    let mut queue = EventQueue::default();
    for &patch in patches {
        let (diff, evals) = whole_program_oracle(program, &good, &inputs, patch);
        let got = program.eval_events(&good, &mut faulty, patch, !0, &mut queue);
        prop_assert_eq!(got, (diff, evals, false), "{:?}", patch);
        prop_assert!(faulty == good, "{:?} left the faulty buffer dirty", patch);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every fault of the full (uncollapsed) universe, as a single patch
    /// on the compiled program.
    #[test]
    fn event_driven_eval_matches_whole_program(nl in netlist_strategy(), seed: u64) {
        let program = EvalProgram::compile(&nl).unwrap();
        let patches: Vec<Patch> = FaultUniverse::full(&nl)
            .faults()
            .iter()
            .map(|fault| match fault.site {
                FaultSite::Net(n) => program.patch_net(n, fault.stuck_at),
                FaultSite::GatePin { gate, pin } => program.patch_pin(gate, pin, fault.stuck_at),
            })
            .collect();
        assert_events_match(&program, &patches, seed)?;
    }
}
