//! Round-trip property tests for the on-disk circuit formats: `.bench`
//! print→parse and structural-Verilog export→re-import must preserve the
//! structure *and the computed function* of arbitrary netlists.

use bibs_netlist::builder::NetlistBuilder;
use bibs_netlist::{bench, verilog, EvalProgram, Netlist};
use proptest::prelude::*;

fn netlist_strategy() -> impl Strategy<Value = Netlist> {
    bibs_netlist::testgen::netlist_strategy_sized(8, 30)
}

/// Per-output good-machine eval words on deterministic pseudo-random
/// 64-pattern blocks — the functional fingerprint round-trips must keep.
fn eval_words(nl: &Netlist, salt: u64) -> Vec<u64> {
    let program = EvalProgram::compile(nl).expect("round-trip subjects compile");
    let mut values = program.new_values();
    let mut state = salt ^ 0x5DEE_CE66_D1CE_5EED;
    let mut out = Vec::new();
    for _ in 0..4 {
        let words: Vec<u64> = (0..nl.input_width())
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                state
            })
            .collect();
        program.eval_good(&mut values, &words);
        out.extend(nl.outputs().iter().map(|o| values[o.index()]));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `.bench` text is a print→parse→print fixpoint, and the reparsed
    /// netlist preserves every structural count plus the eval words.
    #[test]
    fn bench_round_trip_is_a_fixpoint(nl in netlist_strategy()) {
        let text = bench::to_text(&nl);
        let back = bench::from_text(&text).expect("own print must parse");
        prop_assert_eq!(bench::to_text(&back), text, "print-parse-print fixpoint");
        prop_assert_eq!(back.gate_count(), nl.gate_count());
        prop_assert_eq!(back.dff_count(), nl.dff_count());
        prop_assert_eq!(back.input_width(), nl.input_width());
        prop_assert_eq!(back.output_width(), nl.output_width());
        prop_assert_eq!(
            back.levelize().expect("reparsed netlist levelizes").len(),
            nl.levelize().expect("netlist levelizes").len()
        );
        prop_assert_eq!(eval_words(&back, 1), eval_words(&nl, 1));
    }

    /// Structural-Verilog export re-imports to a functionally identical
    /// netlist with the same interface.
    #[test]
    fn verilog_round_trip_preserves_function(nl in netlist_strategy()) {
        let text = verilog::to_verilog(&nl);
        let back = verilog::from_verilog(&text).expect("own export must re-import");
        prop_assert_eq!(back.input_width(), nl.input_width());
        prop_assert_eq!(back.output_width(), nl.output_width());
        prop_assert_eq!(back.dff_count(), nl.dff_count());
        prop_assert_eq!(eval_words(&back, 2), eval_words(&nl, 2));
    }
}

/// A concrete anchor: the full adder survives both round-trips with its
/// truth table intact (checked via eval words on random blocks).
#[test]
fn full_adder_survives_both_round_trips() {
    let mut b = NetlistBuilder::new("fa");
    let a = b.input("a");
    let c = b.input("b");
    let cin = b.input("cin");
    let axb = b.xor2(a, c);
    let s = b.xor2(axb, cin);
    let ab = b.and2(a, c);
    let t = b.and2(axb, cin);
    let cout = b.or2(ab, t);
    b.output("s", s);
    b.output("cout", cout);
    let nl = b.finish().unwrap();

    let via_bench = bench::from_text(&bench::to_text(&nl)).unwrap();
    let via_verilog = verilog::from_verilog(&verilog::to_verilog(&nl)).unwrap();
    let want = eval_words(&nl, 3);
    assert_eq!(eval_words(&via_bench, 3), want, ".bench route");
    assert_eq!(eval_words(&via_verilog, 3), want, "Verilog route");

    // And the semantics are actually a full adder: exhaustive check.
    let program = EvalProgram::compile(&nl).unwrap();
    let mut values = program.new_values();
    // Bit position p of each word encodes input pattern p (3 inputs -> 8).
    let words = vec![0b10101010u64, 0b11001100, 0b11110000];
    program.eval_good(&mut values, &words);
    for p in 0..8u32 {
        let (ai, bi, ci) = (p & 1, (p >> 1) & 1, (p >> 2) & 1);
        let sum = ai + bi + ci;
        assert_eq!(
            (values[nl.outputs()[0].index()] >> p) & 1,
            u64::from(sum & 1),
            "sum bit at pattern {p}"
        );
        assert_eq!(
            (values[nl.outputs()[1].index()] >> p) & 1,
            u64::from(sum >> 1),
            "carry bit at pattern {p}"
        );
    }
}
