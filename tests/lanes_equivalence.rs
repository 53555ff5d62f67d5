//! The fault-simulation driver against a one-block-at-a-time stop
//! oracle: the engine must reproduce the oracle's `FaultSimReport` bit
//! for bit on the same pattern stream — identical first-detection
//! indices, identical `patterns_applied`, identical coverage — and its
//! source must account for exactly the blocks the oracle pulled.
//!
//! The oracle is independent of the engine driver: the reference
//! interpreter applies one 64-lane block at a time under the per-block
//! stop loop (max-pattern truncation, coverage target, detection plateau)
//! written out in this file. Each stop condition gets its own test, and
//! ragged streams (`StoredSeedReplay` reseeds mid-stream,
//! `ExhaustiveSource` tails) must count only their masked lanes. Stopped
//! runs of the hardware sources (`LfsrSource`, the paper's
//! `MinTpgSource`) must leave the source's clocks, pattern count and
//! stream digest equal to the oracle's: a run pulls only the blocks it
//! applies, so the paper's clock cost is the same on every engine.

mod common;

use bibs_bench::SourceSpec;
use bibs_faultsim::fault::{Fault, FaultUniverse};
use bibs_faultsim::par::ParFaultSimulator;
use bibs_faultsim::reference::ReferenceSimulator;
use bibs_faultsim::sim::{BlockSim, FaultSimReport};
use bibs_faultsim::source::{ExhaustiveSource, PatternSource, RandomWords, StoredSeedReplay};
use bibs_netlist::builder::NetlistBuilder;
use bibs_netlist::{GateKind, NetId, Netlist};
use common::bibs_kernels;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

fn assert_same(base: &FaultSimReport, got: &FaultSimReport, what: &str) {
    assert_eq!(
        base.detection(),
        got.detection(),
        "{what}: detection indices diverged from the one-block baseline"
    );
    assert_eq!(
        base.patterns_applied(),
        got.patterns_applied(),
        "{what}: patterns_applied diverged from the one-block baseline"
    );
    assert_eq!(
        base.coverage(),
        got.coverage(),
        "{what}: coverage diverged from the one-block baseline"
    );
}

/// The stop-decision oracle: pulls one 64-lane block at a time, checks
/// every stop condition before each block, truncates the block to the
/// pattern budget, and applies it through the reference interpreter.
fn one_block_at_a_time(
    nl: &Netlist,
    faults: &[Fault],
    source: &mut (impl PatternSource + ?Sized),
    max_patterns: u64,
    plateau: u64,
    target: f64,
) -> FaultSimReport {
    let mut sim = ReferenceSimulator::new(nl, faults.to_vec());
    let width = nl.input_width();
    let mut last_detection_at = 0u64;
    while sim.patterns_applied() < max_patterns
        && sim.coverage() < target
        && sim.patterns_applied().saturating_sub(last_detection_at) < plateau
    {
        let Some(block) = source.next_block(width) else {
            break;
        };
        let lanes = block
            .lanes
            .min((max_patterns - sim.patterns_applied()) as usize);
        if sim.apply(&block, lanes) > 0 {
            last_detection_at = sim.patterns_applied();
        }
    }
    sim.report()
}

/// Runs the one-block oracle as the baseline, then the engine on a fresh
/// copy of the same stream, and requires bit-identical reports. Returns
/// the baseline report so callers can pin stop behavior.
fn assert_matches_oracle<S: PatternSource>(
    nl: &Netlist,
    mut make_source: impl FnMut() -> S,
    max_patterns: u64,
    plateau: u64,
    target: f64,
) -> FaultSimReport {
    let comb = nl.combinational_equivalent();
    let name = comb.name().to_string();
    let faults = FaultUniverse::collapsed(&comb).faults().to_vec();
    let base = one_block_at_a_time(
        &comb,
        &faults,
        &mut make_source(),
        max_patterns,
        plateau,
        target,
    );
    let got = ParFaultSimulator::new(&comb, faults).run_source_with(
        &mut make_source(),
        max_patterns,
        plateau,
        target,
    );
    assert_same(&base, &got, &name);
    base
}

/// A redundancy-rich circuit: undetectable faults keep coverage below
/// 1.0 forever, which makes it the right
/// vehicle for plateau and max-pattern stop pinning (the run never ends
/// early on the coverage side).
fn redundant_circuit() -> Netlist {
    let mut b = NetlistBuilder::new("redundant");
    let a = b.input("a");
    let c = b.input("b");
    let d = b.input("c");
    let mut chain = a;
    for _ in 0..3 {
        chain = b.gate(GateKind::Buf, &[chain]);
    }
    let na = b.not(a);
    let tied = b.and2(a, na);
    let dup1 = b.and2(c, d);
    let dup2 = b.and2(d, c);
    let y1 = b.or2(chain, dup1);
    let y2 = b.xor2(dup2, tied);
    b.output("y1", y1);
    b.output("y2", y2);
    b.finish().unwrap()
}

fn adder4() -> Netlist {
    let mut b = NetlistBuilder::new("adder4");
    let x = b.input_word("x", 4);
    let y = b.input_word("y", 4);
    let (s, co) = b.ripple_carry_adder(&x, &y, None);
    b.output_word("s", &s);
    b.output("co", co);
    b.finish().unwrap()
}

/// A seeded random DAG over the full gate alphabet.
fn random_dag(seed: u64, inputs: usize, ops: usize) -> Netlist {
    const KINDS: [GateKind; 8] = [
        GateKind::And,
        GateKind::Or,
        GateKind::Nand,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
        GateKind::Not,
        GateKind::Buf,
    ];
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = NetlistBuilder::new(format!("dag_{seed:016x}"));
    let mut nets: Vec<NetId> = (0..inputs).map(|i| b.input(format!("i{i}"))).collect();
    for _ in 0..ops {
        let kind = KINDS[rng.gen_range(0..KINDS.len())];
        let arity = match kind {
            GateKind::Not | GateKind::Buf => 1,
            _ => 2 + rng.gen_range(0..2usize),
        };
        let operands: Vec<NetId> = (0..arity)
            .map(|_| nets[rng.gen_range(0..nets.len())])
            .collect();
        nets.push(b.gate(kind, &operands));
    }
    for (i, &n) in nets.iter().rev().take(4).enumerate() {
        b.output(format!("o{i}"), n);
    }
    b.finish().unwrap()
}

#[test]
fn random_streams_match_the_oracle() {
    for (nl, seed) in [
        (adder4(), 0x1A4E_0001u64),
        (redundant_circuit(), 0x1A4E_0002),
    ] {
        assert_matches_oracle(&nl, || RandomWords::seeded(seed), 512, 512, 1.0);
    }
    let mut b = NetlistBuilder::new("mul3");
    let x = b.input_word("x", 3);
    let y = b.input_word("y", 3);
    let p = b.array_multiplier(&x, &y, 6);
    b.output_word("p", &p);
    let nl = b.finish().unwrap();
    assert_matches_oracle(&nl, || RandomWords::seeded(0x1A4E_0003), 512, 512, 1.0);
}

#[test]
fn fuzzed_dags_match_the_oracle() {
    for case in 0u64..6 {
        let nl = random_dag(
            (0x7A9E_0000 + case).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            3 + (case as usize % 5),
            8 + (case as usize * 5) % 32,
        );
        assert_matches_oracle(
            &nl,
            || RandomWords::seeded(0x1A4E_0100 + case),
            256,
            256,
            1.0,
        );
    }
}

#[test]
fn plateau_stops_replay_identically() {
    // The plateau fires mid-stream, at a block boundary.
    let nl = redundant_circuit();
    for plateau in [64u64, 100, 130] {
        let base =
            assert_matches_oracle(&nl, || RandomWords::seeded(0x1A4E_0200), 4096, plateau, 1.0);
        assert!(
            base.patterns_applied() < 4096,
            "plateau {plateau} never fired; the test is vacuous"
        );
    }
}

#[test]
fn coverage_target_stops_replay_identically() {
    let nl = adder4();
    for target in [0.25f64, 0.5, 0.85] {
        let base =
            assert_matches_oracle(&nl, || RandomWords::seeded(0x1A4E_0300), 4096, 4096, target);
        assert!(
            base.coverage() >= target && base.patterns_applied() < 4096,
            "target {target} never fired; the test is vacuous"
        );
    }
}

#[test]
fn max_pattern_truncation_counts_masked_lanes_only() {
    // 100 is deliberately not a multiple of 64: the final block must be
    // truncated to 36 lanes, and only those masked lanes may count toward
    // `patterns_applied`.
    let nl = redundant_circuit();
    let base = assert_matches_oracle(&nl, || RandomWords::seeded(0x1A4E_0400), 100, 100, 1.0);
    assert_eq!(base.patterns_applied(), 100);
    for d in base.detection().iter().flatten() {
        assert!(*d < 100, "detection index {d} past the pattern budget");
    }
}

const REPLAY_SCHEDULE: &str = "0x2a 100\n7\n0x1 3\n";

#[test]
fn ragged_replay_schedule_matches_scalar() {
    // The schedule emits lane counts [64, 36, 64, 3]: ragged blocks at
    // reseed boundaries *mid-stream*, not just at end-of-stream, so the
    // block after a ragged one starts at an offset that is not a
    // multiple of 64.
    let nl = redundant_circuit();
    let make = || StoredSeedReplay::parse("sched", REPLAY_SCHEDULE).expect("schedule parses");
    let base = assert_matches_oracle(&nl, make, 1_000, 1_000, 1.0);
    // Coverage never reaches 1.0 here, so the stream is fully drained:
    // 100 + 64 + 3 patterns, masked lanes only.
    assert_eq!(base.patterns_applied(), 167);
    for d in base.detection().iter().flatten() {
        assert!(*d < 167);
    }

    // Truncating inside the second segment exercises budget masking on
    // top of the ragged stream.
    let base = assert_matches_oracle(&nl, make, 130, 130, 1.0);
    assert_eq!(base.patterns_applied(), 130);
}

#[test]
fn exhaustive_tail_counts_masked_lanes_only() {
    // A 5-input circuit: the exhaustive stream is a single ragged
    // 32-lane block, the smallest ragged-tail case.
    let mut b = NetlistBuilder::new("maj5ish");
    let ins: Vec<NetId> = (0..5).map(|i| b.input(format!("i{i}"))).collect();
    let a01 = b.and2(ins[0], ins[1]);
    let o23 = b.or2(ins[2], ins[3]);
    let x = b.xor2(a01, o23);
    let n4 = b.not(ins[4]);
    let y = b.gate(GateKind::Nand, &[x, n4, ins[1]]);
    b.output("y", y);
    b.output("x", x);
    let nl = b.finish().unwrap();

    let base = assert_matches_oracle(&nl, || ExhaustiveSource::new(5), 1 << 5, 1 << 5, 1.0);
    assert!(base.patterns_applied() <= 32);
    // And with a budget below the tail's lane count, only the masked
    // lanes count.
    let base = assert_matches_oracle(&nl, || ExhaustiveSource::new(5), 20, 20, 1.0);
    assert!(base.patterns_applied() <= 20);
    for d in base.detection().iter().flatten() {
        assert!(*d < 20);
    }
}

#[test]
fn run_random_family_routes_through_the_driver() {
    // The `run_random*` wrappers share the `run_source_with` driver, so
    // they must reproduce the one-block oracle on the seeded stream they
    // draw.
    let nl = adder4().combinational_equivalent();
    let faults = FaultUniverse::collapsed(&nl).faults().to_vec();
    let seed = 0x1A4E_0500u64;
    let oracle = |max_patterns, plateau, target| {
        let mut src = RandomWords::seeded(seed);
        one_block_at_a_time(&nl, &faults, &mut src, max_patterns, plateau, target)
    };

    let mut rng = StdRng::seed_from_u64(seed);
    let got = ParFaultSimulator::new(&nl, faults.clone()).run_random(&mut rng, 512);
    assert_same(&oracle(512, 512, 1.0), &got, "run_random");

    let mut rng = StdRng::seed_from_u64(seed);
    let got =
        ParFaultSimulator::new(&nl, faults.clone()).run_random_with_plateau(&mut rng, 4096, 96);
    assert_same(&oracle(4096, 96, 1.0), &got, "run_random_with_plateau");

    let mut rng = StdRng::seed_from_u64(seed);
    let got = ParFaultSimulator::new(&nl, faults.clone()).run_random_until(&mut rng, 0.9, 4096);
    assert_same(&oracle(4096, 4096, 0.9), &got, "run_random_until");
}

#[test]
fn stopped_runs_account_exactly_the_blocks_they_apply() {
    // A plateau that fires after one block without a detection, and a
    // budget that is not a multiple of 64: both stop the run before the
    // stream is drained. The source behind the engine must then have
    // emitted, clocked and digested exactly what the oracle's did.
    let mut kinds = HashSet::new();
    for spec in [SourceSpec::Lfsr, SourceSpec::MinTpg] {
        for (k, (comb, faults, make)) in bibs_kernels("c5a2m", 4, &spec).iter().enumerate() {
            kinds.insert(make().descriptor().kind().to_string());
            let width = comb.input_width();
            for (stop, max_patterns, plateau) in
                [("plateau", 1 << 20, 64), ("budget", 100, 1 << 20)]
            {
                let what = format!("{spec} kernel {k}, {stop} stop");
                let mut oracle_src = make();
                let base =
                    one_block_at_a_time(comb, faults, &mut *oracle_src, max_patterns, plateau, 1.0);
                let mut src = make();
                let got = ParFaultSimulator::new(comb, faults.clone()).run_source_with(
                    &mut *src,
                    max_patterns,
                    plateau,
                    1.0,
                );
                assert_same(&base, &got, &what);
                assert_eq!(
                    src.clocks_consumed(),
                    oracle_src.clocks_consumed(),
                    "{what}: clocks_consumed"
                );
                assert_eq!(
                    src.patterns_emitted(),
                    oracle_src.patterns_emitted(),
                    "{what}: patterns_emitted"
                );
                assert_eq!(
                    src.state_digest(),
                    oracle_src.state_digest(),
                    "{what}: state_digest"
                );
                if stop == "budget" {
                    assert_eq!(base.patterns_applied(), max_patterns, "{what}");
                } else {
                    assert!(base.coverage() < 1.0, "{what}: the coverage target fired");
                }
                assert!(
                    oracle_src.next_block(width).is_some(),
                    "{what}: the stream ran dry, so nothing stopped the run"
                );
            }
        }
    }
    assert!(
        kinds.contains("mintpg"),
        "no kernel ran the paper's TPG: {kinds:?}"
    );
    assert!(kinds.contains("lfsr"), "no kernel ran the LFSR: {kinds:?}");
}
