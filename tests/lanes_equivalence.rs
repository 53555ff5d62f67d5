//! Acceptance for wide-word (u64×N lane) evaluation: every lane width
//! (64, 256, 512) and thread count (1/2/4/8) must reproduce a one-block-at-a-time run's `FaultSimReport` bit for bit on
//! the same pattern stream — identical first-detection indices,
//! identical `patterns_applied`, identical coverage. This is the
//! contract behind `table2 --lanes` producing byte-identical JSON while
//! sweeping more patterns per good-machine evaluation.
//!
//! The baseline is an independent stop-decision oracle: the reference
//! interpreter driven one 64-lane block at a time by the per-block stop
//! loop (max-pattern truncation, coverage target, detection plateau)
//! written out in this file. The one engine driver instead *replays*
//! those decisions after each sweep, at every width including 64 lanes,
//! so comparing it with itself across widths would not catch a replay
//! bug that every width shares. The stop conditions get their own tests,
//! and ragged streams (`StoredSeedReplay` reseeds mid-stream,
//! `ExhaustiveSource` tails) must count only their masked lanes.

use bibs_faultsim::fault::{Fault, FaultUniverse};
use bibs_faultsim::par::ParFaultSimulator;
use bibs_faultsim::reference::ReferenceSimulator;
use bibs_faultsim::sim::{BlockSim, FaultSimReport};
use bibs_faultsim::source::{ExhaustiveSource, PatternSource, RandomWords, StoredSeedReplay};
use bibs_netlist::builder::NetlistBuilder;
use bibs_netlist::{GateKind, NetId, Netlist};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const LANE_WIDTHS: [usize; 3] = [64, 256, 512];
const THREADS: [usize; 4] = [1, 2, 4, 8];

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
/// pattern budget, and applies it through the reference interpreter's
/// one-block sweep and commit. Nothing is replayed.
fn one_block_at_a_time(
    nl: &Netlist,
    faults: &[Fault],
    source: &mut impl PatternSource,
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
        let hits = sim.sweep(std::slice::from_ref(&block), &[lanes]);
        sim.commit(sim.patterns_applied() + lanes as u64);
        if hits[0] > 0 {
            last_detection_at = sim.patterns_applied();
        }
    }
    sim.report()
}

/// Runs the one-block oracle as the baseline, then every
/// (lane width × thread count) combination of the engine
/// on a fresh copy of the same stream and requires bit-identical
/// reports. Returns the baseline report so callers can pin stop
/// behavior.
fn assert_lanes_invisible<S: PatternSource>(
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
    for lanes in LANE_WIDTHS {
        for threads in THREADS {
            let mut src = make_source();
            let got = ParFaultSimulator::with_threads(&comb, faults.clone(), threads)
                .with_lanes(lanes)
                .run_source_with(&mut src, max_patterns, plateau, target);
            assert_same(
                &base,
                &got,
                &format!("{name}: {threads} thread(s) @ {lanes} lanes"),
            );
        }
    }
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
fn random_streams_match_scalar_across_lane_widths() {
    for (nl, seed) in [
        (adder4(), 0x1A4E_0001u64),
        (redundant_circuit(), 0x1A4E_0002),
    ] {
        assert_lanes_invisible(&nl, || RandomWords::seeded(seed), 512, 512, 1.0);
    }
    let mut b = NetlistBuilder::new("mul3");
    let x = b.input_word("x", 3);
    let y = b.input_word("y", 3);
    let p = b.array_multiplier(&x, &y, 6);
    b.output_word("p", &p);
    let nl = b.finish().unwrap();
    assert_lanes_invisible(&nl, || RandomWords::seeded(0x1A4E_0003), 512, 512, 1.0);
}

#[test]
fn fuzzed_dags_match_scalar_across_lane_widths() {
    for case in 0u64..6 {
        let nl = random_dag(
            (0x7A9E_0000 + case).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            3 + (case as usize % 5),
            8 + (case as usize * 5) % 32,
        );
        assert_lanes_invisible(
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
    // The plateau fires mid-stream: wide sweeps must retract the
    // sub-blocks a one-block run would never have applied.
    let nl = redundant_circuit();
    for plateau in [64u64, 100, 130] {
        let base =
            assert_lanes_invisible(&nl, || RandomWords::seeded(0x1A4E_0200), 4096, plateau, 1.0);
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
            assert_lanes_invisible(&nl, || RandomWords::seeded(0x1A4E_0300), 4096, 4096, target);
        assert!(
            base.coverage() >= target && base.patterns_applied() < 4096,
            "target {target} never fired; the test is vacuous"
        );
    }
}

#[test]
fn max_pattern_truncation_counts_masked_lanes_only() {
    // 100 is deliberately not a multiple of 64: the final wide sweep
    // must truncate to a 36-lane sub-block, and only those masked lanes
    // may count toward `patterns_applied`.
    let nl = redundant_circuit();
    let base = assert_lanes_invisible(&nl, || RandomWords::seeded(0x1A4E_0400), 100, 100, 1.0);
    assert_eq!(base.patterns_applied(), 100);
    for d in base.detection().iter().flatten() {
        assert!(*d < 100, "detection index {d} past the pattern budget");
    }
}

const REPLAY_SCHEDULE: &str = "0x2a 100\n7\n0x1 3\n";

#[test]
fn ragged_replay_schedule_matches_scalar() {
    // The schedule emits lane counts [64, 36, 64, 3]: ragged blocks at
    // reseed boundaries *mid-stream*, not just at end-of-stream. The
    // wide pull must stop a sweep at each ragged block so later
    // sub-words never sit behind a partial one.
    let nl = redundant_circuit();
    let make = || StoredSeedReplay::parse("sched", REPLAY_SCHEDULE).expect("schedule parses");
    let base = assert_lanes_invisible(&nl, make, 1_000, 1_000, 1.0);
    // Coverage never reaches 1.0 here, so the stream is fully drained:
    // 100 + 64 + 3 patterns, masked lanes only.
    assert_eq!(base.patterns_applied(), 167);
    for d in base.detection().iter().flatten() {
        assert!(*d < 167);
    }

    // Truncating inside the second segment exercises budget masking on
    // top of the ragged stream.
    let base = assert_lanes_invisible(&nl, make, 130, 130, 1.0);
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

    let base = assert_lanes_invisible(&nl, || ExhaustiveSource::new(5), 1 << 5, 1 << 5, 1.0);
    assert!(base.patterns_applied() <= 32);
    // And with a budget below the tail's lane count, only the masked
    // lanes count.
    let base = assert_lanes_invisible(&nl, || ExhaustiveSource::new(5), 20, 20, 1.0);
    assert!(base.patterns_applied() <= 20);
    for d in base.detection().iter().flatten() {
        assert!(*d < 20);
    }
}

#[test]
fn run_random_family_routes_through_wide_sweeps() {
    // The `run_random*` wrappers share the `run_source_with` driver, so
    // at every width they must reproduce the one-block oracle on the
    // seeded stream they draw.
    let nl = adder4().combinational_equivalent();
    let faults = FaultUniverse::collapsed(&nl).faults().to_vec();
    let seed = 0x1A4E_0500u64;
    let oracle = |max_patterns, plateau, target| {
        let mut src = RandomWords::seeded(seed);
        one_block_at_a_time(&nl, &faults, &mut src, max_patterns, plateau, target)
    };
    let base = oracle(512, 512, 1.0);
    let plateau_base = oracle(4096, 96, 1.0);
    let until_base = oracle(4096, 4096, 0.9);

    for lanes in LANE_WIDTHS {
        let mut rng = StdRng::seed_from_u64(seed);
        let wide = ParFaultSimulator::new(&nl, faults.clone())
            .with_lanes(lanes)
            .run_random(&mut rng, 512);
        assert_same(&base, &wide, &format!("run_random @ {lanes} lanes"));

        let mut rng = StdRng::seed_from_u64(seed);
        let wide = ParFaultSimulator::with_threads(&nl, faults.clone(), 2)
            .with_lanes(lanes)
            .run_random_with_plateau(&mut rng, 4096, 96);
        assert_same(
            &plateau_base,
            &wide,
            &format!("run_random_with_plateau @ {lanes} lanes"),
        );

        let mut rng = StdRng::seed_from_u64(seed);
        let wide = ParFaultSimulator::new(&nl, faults.clone())
            .with_lanes(lanes)
            .run_random_until(&mut rng, 0.9, 4096);
        assert_same(
            &until_base,
            &wide,
            &format!("run_random_until @ {lanes} lanes"),
        );
    }
}

#[test]
fn source_accounting_matches_scalar_on_non_stopping_runs() {
    // On a run that only ever stops at `max_patterns` (no coverage or
    // plateau exit), a sweep pulls exactly the blocks a one-block run
    // would have, so the *source-side* accounting — patterns emitted,
    // clocks, stream digest — must agree too. (Stopped runs may
    // legitimately over-pull; that asymmetry is documented on
    // `run_source_with`.)
    let nl = redundant_circuit().combinational_equivalent();
    let faults = FaultUniverse::collapsed(&nl).faults().to_vec();
    let mut oracle_src = RandomWords::seeded(0x1A4E_0600);
    let base = one_block_at_a_time(&nl, &faults, &mut oracle_src, 256, 256, 1.0);
    assert_eq!(base.patterns_applied(), 256, "run must exhaust its budget");
    for lanes in LANE_WIDTHS {
        let mut wide_src = RandomWords::seeded(0x1A4E_0600);
        let wide = ParFaultSimulator::new(&nl, faults.clone())
            .with_lanes(lanes)
            .run_source_with(&mut wide_src, 256, 256, 1.0);
        assert_same(&base, &wide, &format!("accounting run @ {lanes} lanes"));
        assert_eq!(wide_src.patterns_emitted(), oracle_src.patterns_emitted());
        assert_eq!(wide_src.clocks_consumed(), oracle_src.clocks_consumed());
        assert_eq!(wide_src.state_digest(), oracle_src.state_digest());
    }
}
