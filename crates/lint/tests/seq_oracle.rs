//! Zero-false-claim oracle for the B050/B051/B052 sequential verdicts.
//!
//! The analysis promises (see `bibs_netlist::seqanalysis`):
//!
//! * **B051 / B050** — a flop reported `NeverInitialized` stays ternary-X
//!   under *every* input sequence from the all-X power-up state;
//! * **B052** — a flop reported `Constant(v)` holds `v` from frame
//!   `frames_to_fix` on under every input sequence and power-up state;
//! * every **B050** divergence witness replays.
//!
//! This test checks those promises against *exhaustive* bounded-sequence
//! ternary simulation: every concrete input sequence of `frames` frames
//! (≤ 16 sequence bits total, so the enumeration is complete), evolved
//! frame by frame with the same `ternary_frame` the analysis itself
//! exports. A single counterexample — a sequence that initializes a
//! "never initialized" flop, or moves a "stuck" one — fails the test.

use bibs_corpus::gen::Family;
use bibs_lint::{lint_seq, LintConfig};
use bibs_netlist::analysis::Tv;
use bibs_netlist::builder::NetlistBuilder;
use bibs_netlist::seqanalysis::{
    find_x_witness, replay_x_witness, ternary_frame, InitStatus, SeqAnalysis, SeqOptions,
};
use bibs_netlist::{EvalProgram, GateKind, Netlist};

/// Runs the analysis on `nl`, then exhaustively simulates all concrete
/// input sequences of `frames` frames from the all-X state and asserts
/// that no negative claim has a counterexample.
fn assert_claims_sound(nl: &Netlist, frames: usize) {
    let program = EvalProgram::compile(nl).expect("oracle circuits compile");
    let opts = SeqOptions::default();
    let analysis = SeqAnalysis::analyze(&program, &opts);
    let npi = program.input_slots().len();
    let ndff = program.dff_slots().len();
    let bits = npi * frames;
    assert!(
        bits <= 16,
        "{}: oracle wants an exhaustive sweep",
        nl.name()
    );

    let mut ever_known = vec![false; ndff];
    for seq in 0u64..(1u64 << bits) {
        let mut state = vec![Tv::X; ndff];
        for t in 0..frames {
            let pis: Vec<Tv> = (0..npi)
                .map(|i| Tv::from_bool((seq >> (t * npi + i)) & 1 == 1))
                .collect();
            let vals = ternary_frame(&program, &state, &pis);
            state = program
                .dff_slots()
                .iter()
                .map(|&(_, d)| vals[d as usize])
                .collect();
            for f in 0..ndff {
                if state[f] != Tv::X {
                    ever_known[f] = true;
                }
                if t + 1 >= analysis.frames_to_fix {
                    if let InitStatus::Constant(v) = analysis.init[f] {
                        assert_eq!(
                            state[f],
                            Tv::from_bool(v),
                            "{}: B052 claim broken for ff{f}: sequence {seq:#x} \
                             moves the \"stuck\" flop at frame {t}",
                            nl.name()
                        );
                    }
                }
            }
        }
    }
    for (f, &known) in ever_known.iter().enumerate() {
        if matches!(analysis.init[f], InitStatus::NeverInitialized) {
            assert!(
                !known,
                "{}: false B050/B051 claim: ff{f} is initializable within \
                 {frames} frame(s)",
                nl.name()
            );
        }
        // Every B050 divergence witness must replay bit for bit.
        if matches!(analysis.init[f], InitStatus::NeverInitialized) && analysis.observable[f] {
            if let Some(w) = find_x_witness(&program, f, &opts) {
                assert!(
                    replay_x_witness(&program, &w, &opts),
                    "{}: B050 witness for ff{f} does not replay",
                    nl.name()
                );
            }
        }
    }
}

#[test]
fn pipelines_yield_no_false_claims() {
    for (width, depth, frames) in [(1, 1, 4), (1, 3, 5), (2, 2, 4), (3, 1, 3)] {
        let nl = Family::Pipeline { width, depth }.build();
        assert_claims_sound(&nl, frames);
    }
}

#[test]
fn random_seq_dags_yield_no_false_claims() {
    for seed in [1u64, 7, 42, 0xB1B5, 0xC0FFEE] {
        let nl = Family::SeqDag {
            seed,
            inputs: 3,
            ops: 12,
            dffs: 4,
        }
        .build();
        assert_claims_sound(&nl, 5);
    }
    for seed in [2u64, 9, 0xDEAD] {
        let nl = Family::SeqDag {
            seed,
            inputs: 2,
            ops: 18,
            dffs: 6,
        }
        .build();
        assert_claims_sound(&nl, 8);
    }
}

#[test]
fn feedback_structures_yield_no_false_claims() {
    // Inverter loop observed at the output: the canonical B050 case.
    let mut b = NetlistBuilder::new("osc");
    let (q, d) = b.register_deferred();
    let nq = b.not(q);
    b.resolve_deferred(d, nq);
    let x = b.input("x");
    let y = b.or2(q, x);
    b.output("y", y);
    assert_claims_sound(&b.finish().unwrap(), 8);

    // XOR feedback: d = XOR(q, x) keeps X forever — NeverInitialized.
    let mut b = NetlistBuilder::new("xorfb");
    let (q, d) = b.register_deferred();
    let x = b.input("x");
    let fb = b.xor2(q, x);
    b.resolve_deferred(d, fb);
    let y = b.gate(GateKind::Buf, &[q]);
    b.output("y", y);
    assert_claims_sound(&b.finish().unwrap(), 8);

    // AND-guarded self loop: d = AND(q, x) — x=0 concretely initializes
    // the flop, so the analysis must NOT claim NeverInitialized; the
    // oracle confirms whichever verdict it gives.
    let mut b = NetlistBuilder::new("andfb");
    let (q, d) = b.register_deferred();
    let x = b.input("x");
    let fb = b.and2(q, x);
    b.resolve_deferred(d, fb);
    b.output("y", q);
    assert_claims_sound(&b.finish().unwrap(), 8);
}

#[test]
fn stuck_and_unsafe_fixtures_yield_no_false_claims() {
    for variant in 0..3 {
        let nl = Family::SeqUnsafe { variant }.build();
        assert_claims_sound(&nl, 8);
    }
    // Constant-fed two-stage chain: both flops are B052-stuck, with
    // frames_to_fix > 1 covering the staged settling.
    let mut b = NetlistBuilder::new("chain");
    let one = b.const1();
    let r0 = b.register(&[one]);
    let r1 = b.register(&r0);
    let x = b.input("x");
    let y = b.and2(r1[0], x);
    b.output("y", y);
    assert_claims_sound(&b.finish().unwrap(), 6);
}

/// The lint pass and the raw analysis agree: B050 is emitted exactly for
/// the observed never-initialized flops with a concrete witness, and
/// B051 claims match `NeverInitialized` verdicts.
#[test]
fn lint_codes_match_the_analysis_verdicts() {
    for variant in 0..3 {
        let nl = Family::SeqUnsafe { variant }.build();
        let report = lint_seq(None, &nl, "oracle", &LintConfig::new());
        let program = EvalProgram::compile(&nl).unwrap();
        let analysis = SeqAnalysis::analyze(&program, &SeqOptions::default());
        let never: usize = analysis
            .init
            .iter()
            .filter(|s| matches!(s, InitStatus::NeverInitialized))
            .count();
        let claimed = report.with_code("B050").count() + report.with_code("B051").count();
        assert_eq!(claimed, never, "sequnsafe{variant}:\n{report}");
    }
}
