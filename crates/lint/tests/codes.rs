//! Per-code lint tests: each pass gets a minimal violating structure and
//! must answer with the expected `B0xx` code and a *named* witness, plus
//! clean-bill checks on the paper datapaths and the shipped fixtures.

use bibs_lint::{lint_circuit, lint_ckt_text, lint_full, lint_netlist, LintConfig, Severity};
use bibs_netlist::{Dff, Gate, GateKind, Net, NetDriver, NetId, Netlist};
use bibs_rtl::{Circuit, CircuitBuilder, LogicFunction};

fn cfg() -> LintConfig {
    LintConfig::new()
}

fn net(name: Option<&str>, driver: NetDriver) -> Net {
    Net {
        name: name.map(str::to_string),
        driver,
    }
}

fn n(i: usize) -> NetId {
    NetId::from_index(i)
}

// ---------------------------------------------------------------- B00x --

#[test]
fn b001_undriven_net() {
    let nl = Netlist::from_parts_unchecked(
        "t".into(),
        vec![
            net(Some("a"), NetDriver::Input(0)),
            net(Some("loose"), NetDriver::Floating),
        ],
        vec![],
        vec![],
        vec![n(0)],
        vec![n(0)],
    );
    let report = lint_netlist(&nl, &cfg());
    assert!(report.has_code("B001"), "{report}");
    let d = report.with_code("B001").next().unwrap();
    assert_eq!(d.severity, Severity::Deny);
    assert!(d.witness.contains("loose"), "witness: {}", d.witness);
}

#[test]
fn b002_driver_record_mismatch() {
    // The gate drives n2, but n2's record claims it is an input.
    let nl = Netlist::from_parts_unchecked(
        "t".into(),
        vec![
            net(Some("a"), NetDriver::Input(0)),
            net(Some("b"), NetDriver::Input(1)),
            net(Some("x"), NetDriver::Input(0)), // stale/bogus record
        ],
        vec![Gate {
            kind: GateKind::And,
            inputs: vec![n(0), n(1)],
            output: n(2),
        }],
        vec![],
        vec![n(0), n(1)],
        vec![n(2)],
    );
    let report = lint_netlist(&nl, &cfg());
    assert!(report.has_code("B002"), "{report}");
    assert!(
        report
            .with_code("B002")
            .next()
            .unwrap()
            .message
            .contains("g0:and"),
        "{report}"
    );
}

#[test]
fn b002_dff_record_mismatch() {
    let nl = Netlist::from_parts_unchecked(
        "t".into(),
        vec![
            net(Some("a"), NetDriver::Input(0)),
            net(Some("q"), NetDriver::Floating), // should be Dff(ff0)
        ],
        vec![],
        vec![Dff { d: n(0), q: n(1) }],
        vec![n(0)],
        vec![n(1)],
    );
    let report = lint_netlist(&nl, &cfg());
    assert!(report.has_code("B002"), "{report}");
    assert!(
        report
            .with_code("B002")
            .next()
            .unwrap()
            .message
            .contains("ff0"),
        "{report}"
    );
}

#[test]
fn b003_combinational_cycle_with_gate_witness() {
    // g0 and g1 feed each other.
    let nl = Netlist::from_parts_unchecked(
        "t".into(),
        vec![
            net(Some("a"), NetDriver::Input(0)),
            net(
                Some("x"),
                NetDriver::Gate(bibs_netlist::GateId::from_index(0)),
            ),
            net(
                Some("y"),
                NetDriver::Gate(bibs_netlist::GateId::from_index(1)),
            ),
        ],
        vec![
            Gate {
                kind: GateKind::And,
                inputs: vec![n(0), n(2)],
                output: n(1),
            },
            Gate {
                kind: GateKind::Or,
                inputs: vec![n(0), n(1)],
                output: n(2),
            },
        ],
        vec![],
        vec![n(0)],
        vec![n(2)],
    );
    let report = lint_netlist(&nl, &cfg());
    assert!(report.has_code("B003"), "{report}");
    let d = report.with_code("B003").next().unwrap();
    // The witness names the explicit gate cycle and closes the loop.
    assert!(d.witness.contains("g0:and"), "witness: {}", d.witness);
    assert!(d.witness.contains("g1:or"), "witness: {}", d.witness);
    assert!(d.witness.contains(" => "), "witness: {}", d.witness);
}

#[test]
fn b004_dead_cone_is_allow_level() {
    // A valid netlist whose second gate feeds nothing.
    let mut b = bibs_netlist::builder::NetlistBuilder::new("t");
    let a = b.input("a");
    let c = b.input("c");
    let live = b.gate(GateKind::And, &[a, c]);
    b.output("o", live);
    let _dead = b.gate(GateKind::Or, &[a, c]);
    let nl = b.finish().unwrap();
    let report = lint_netlist(&nl, &cfg());
    assert!(report.has_code("B004"), "{report}");
    let d = report.with_code("B004").next().unwrap();
    assert_eq!(d.severity, Severity::Allow);
    assert!(
        report.is_clean(),
        "dead cones alone must not fail: {report}"
    );
}

#[test]
fn b005_duplicate_primary_input() {
    let nl = Netlist::from_parts_unchecked(
        "t".into(),
        vec![net(Some("a"), NetDriver::Input(0))],
        vec![],
        vec![],
        vec![n(0), n(0)], // same net listed twice
        vec![n(0)],
    );
    let report = lint_netlist(&nl, &cfg());
    assert!(report.has_code("B005"), "{report}");
}

#[test]
fn b006_bad_arity() {
    let nl = Netlist::from_parts_unchecked(
        "t".into(),
        vec![
            net(Some("a"), NetDriver::Input(0)),
            net(
                Some("x"),
                NetDriver::Gate(bibs_netlist::GateId::from_index(0)),
            ),
        ],
        vec![Gate {
            kind: GateKind::And,
            inputs: vec![n(0)], // AND of one input
            output: n(1),
        }],
        vec![],
        vec![n(0)],
        vec![n(1)],
    );
    let report = lint_netlist(&nl, &cfg());
    assert!(report.has_code("B006"), "{report}");
    assert!(
        report
            .with_code("B006")
            .next()
            .unwrap()
            .message
            .contains("at least 2"),
        "{report}"
    );
}

#[test]
fn b007_dead_slot_cross_checks_b004() {
    // A valid netlist whose second gate feeds nothing: its output slot is
    // never read by the compiled program, and it is exactly the root of
    // the B004 dead cone.
    let mut b = bibs_netlist::builder::NetlistBuilder::new("t");
    let a = b.input("a");
    let c = b.input("c");
    let live = b.gate(GateKind::And, &[a, c]);
    b.output("o", live);
    let _dead = b.gate(GateKind::Or, &[a, c]);
    let nl = b.finish().unwrap();
    let report = lint_netlist(&nl, &cfg());
    assert!(report.has_code("B007"), "{report}");
    let d = report.with_code("B007").next().unwrap();
    assert_eq!(d.severity, Severity::Allow);
    assert!(
        d.message.contains("B004 dead cone"),
        "gate-driven dead slots must cross-reference B004: {}",
        d.message
    );
    assert!(
        report.is_clean(),
        "dead slots alone must not fail: {report}"
    );
}

#[test]
fn b007_flags_unused_primary_input() {
    // B004's gate-only sweep cannot see an ignored input; B007 can.
    let mut b = bibs_netlist::builder::NetlistBuilder::new("t");
    let a = b.input("a");
    let _unused = b.input("unused");
    let c = b.input("c");
    let y = b.gate(GateKind::Xor, &[a, c]);
    b.output("y", y);
    let nl = b.finish().unwrap();
    let report = lint_netlist(&nl, &cfg());
    assert!(!report.has_code("B004"), "{report}");
    let d = report
        .with_code("B007")
        .next()
        .expect("unused input flagged");
    assert!(d.witness.contains("unused"), "witness: {}", d.witness);
    assert!(d.message.contains("primary input"), "{}", d.message);
}

#[test]
fn b007_silent_on_fully_live_netlist_and_invalid_input() {
    let mut b = bibs_netlist::builder::NetlistBuilder::new("t");
    let a = b.input("a");
    let c = b.input("c");
    let y = b.gate(GateKind::And, &[a, c]);
    b.output("y", y);
    let live = b.finish().unwrap();
    assert!(!lint_netlist(&live, &cfg()).has_code("B007"));
    // Unvalidatable netlist (floating net): B001 owns it, B007 stays out.
    let nl = Netlist::from_parts_unchecked(
        "t".into(),
        vec![
            net(Some("a"), NetDriver::Input(0)),
            net(Some("loose"), NetDriver::Floating),
        ],
        vec![],
        vec![],
        vec![n(0)],
        vec![n(0)],
    );
    let report = lint_netlist(&nl, &cfg());
    assert!(report.has_code("B001"), "{report}");
    assert!(!report.has_code("B007"), "{report}");
}

// ---------------------------------------------------------------- B01x --

#[test]
fn b010_register_cycle_is_noted_by_name() {
    let mut b = CircuitBuilder::new("cyc");
    let pi = b.input("PI");
    let f = b.logic("F");
    let h = b.logic("H");
    let po = b.output("PO");
    b.register("Rin", 4, pi, f);
    b.register("Rfh", 4, f, h);
    b.register("Rhf", 4, h, f);
    b.register("Rout", 4, h, po);
    let c = b.finish().unwrap();
    let report = lint_circuit(&c, &cfg());
    assert!(report.has_code("B010"), "{report}");
    let d = report.with_code("B010").next().unwrap();
    assert_eq!(d.severity, Severity::Allow, "bare cycles are TDM input");
    assert!(d.witness.contains("Rfh[4]"), "witness: {}", d.witness);
    assert!(d.message.contains("2 register edge(s)"), "{}", d.message);
}

#[test]
fn b011_urfs_reports_short_and_long_paths() {
    let mut b = CircuitBuilder::new("urfs");
    let pi = b.input("PI");
    let f = b.fanout("F");
    let c1 = b.logic("C1");
    let po = b.output("PO");
    b.register("Rin", 4, pi, f);
    b.wire(f, c1);
    b.register("Rskip", 4, f, c1);
    b.register("Rout", 4, c1, po);
    let c = b.finish().unwrap();
    let report = lint_circuit(&c, &cfg());
    assert!(report.has_code("B011"), "{report}");
    let d = report
        .with_code("B011")
        .find(|d| d.message.contains("join F to C1"))
        .expect("the F ~> C1 imbalance is reported");
    assert!(
        d.witness.contains("shorter: F -> C1"),
        "witness: {}",
        d.witness
    );
    assert!(
        d.witness.contains("longer: F -Rskip[4]-> C1"),
        "witness: {}",
        d.witness
    );
}

#[test]
fn b012_mixed_operand_widths() {
    let mut b = CircuitBuilder::new("mix");
    let p1 = b.input("P1");
    let p2 = b.input("P2");
    let add = b.logic_fn("ADD", LogicFunction::Add);
    let po = b.output("PO");
    b.register("Ra", 8, p1, add);
    b.register("Rb", 4, p2, add);
    b.register("Rout", 8, add, po);
    let c = b.finish().unwrap();
    let report = lint_circuit(&c, &cfg());
    assert!(report.has_code("B012"), "{report}");
    let d = report.with_code("B012").next().unwrap();
    assert_eq!(d.severity, Severity::Warn);
    assert!(d.witness.contains("Ra[8]") && d.witness.contains("Rb[4]"));
}

#[test]
fn b013_dangling_block() {
    let mut b = CircuitBuilder::new("dangle");
    let pi = b.input("PI");
    let c1 = b.logic("C1");
    let po = b.output("PO");
    let _orphan = b.logic("ORPHAN");
    b.register("Rin", 4, pi, c1);
    b.register("Rout", 4, c1, po);
    let c = b.finish().unwrap();
    let report = lint_circuit(&c, &cfg());
    assert!(report.has_code("B013"), "{report}");
    assert!(
        report
            .with_code("B013")
            .next()
            .unwrap()
            .message
            .contains("ORPHAN"),
        "{report}"
    );
}

// ---------------------------------------------------------------- B05x --

use bibs_lint::lint_text;

#[test]
fn b050_observed_uninitialized_flop() {
    let text = "INPUT(x)\nOUTPUT(y)\nnq = NOT(q)\nq = DFF(nq)\ny = OR(q, x)\n";
    let report = lint_text("t.bench", text, &cfg());
    assert!(report.has_code("B050"), "{report}");
    let d = report.with_code("B050").next().unwrap();
    assert_eq!(d.severity, Severity::Deny);
    assert!(d.witness.contains("seed"), "witness: {}", d.witness);
    assert!(d.witness.contains("frame"), "witness: {}", d.witness);
}

#[test]
fn b051_and_b053_unobservable_never_initialized_flop() {
    let text = "INPUT(x)\nOUTPUT(y)\nnq = NOT(q)\nq = DFF(nq)\ny = NOT(x)\n";
    let report = lint_text("t.bench", text, &cfg());
    assert!(report.has_code("B051"), "{report}");
    assert!(report.has_code("B053"), "{report}");
    assert!(
        !report.has_code("B050"),
        "unobservable X is not B050: {report}"
    );
    assert_eq!(
        report.with_code("B051").next().unwrap().severity,
        Severity::Warn
    );
    assert_eq!(
        report.with_code("B053").next().unwrap().severity,
        Severity::Allow
    );
}

#[test]
fn b052_stuck_register() {
    let text = "INPUT(x)\nOUTPUT(y)\nz = TIE0()\nq = DFF(z)\ny = OR(q, x)\n";
    let report = lint_text("t.bench", text, &cfg());
    assert!(report.has_code("B052"), "{report}");
    let d = report.with_code("B052").next().unwrap();
    assert_eq!(d.severity, Severity::Warn);
    assert!(d.message.contains("stuck at 0"), "{}", d.message);
}

#[test]
fn b054_depth_crosscheck_via_seq_pass() {
    // RTL depth 4 (c5a2m has registered I/O), gate netlist 3 stages deep:
    // expected gate depth after the boundary cut is 2, so B054 fires.
    let circuit = bibs_datapath::filters::scaled("c5a2m", 2);
    let mut b = bibs_netlist::builder::NetlistBuilder::new("deeper");
    let x = b.input("x");
    let r0 = b.register(&[x]);
    let r1 = b.register(&r0);
    let r2 = b.register(&r1);
    b.output("y", r2[0]);
    let deeper = b.finish().unwrap();
    let report = bibs_lint::lint_seq(Some(&circuit), &deeper, "t", &cfg());
    assert!(report.has_code("B054"), "{report}");
    assert_eq!(
        report.with_code("B054").next().unwrap().severity,
        Severity::Deny
    );
}

#[test]
fn b059_unused_suppression() {
    let text = "# bibs-lint: allow(B052)\nINPUT(a)\nINPUT(b)\ns = AND(a, b)\nOUTPUT(s)\n";
    let report = lint_text("t.bench", text, &cfg());
    assert!(report.has_code("B059"), "{report}");
    assert_eq!(
        report.with_code("B059").next().unwrap().severity,
        Severity::Warn
    );
}

// ------------------------------------------------------------ fixtures --

fn repo_path(rel: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel)
}

#[test]
fn shipped_good_fixtures_lint_clean_under_deny_warnings() {
    let mut config = cfg();
    config.deny_warnings = true;
    for file in [
        "circuits/fig4.ckt",
        "circuits/mac.ckt",
        "circuits/pipeline.ckt",
    ] {
        let text = std::fs::read_to_string(repo_path(file)).unwrap();
        let report = lint_ckt_text(file, &text, &config);
        assert!(report.is_clean(), "{file} must lint clean:\n{report}");
    }
}

#[test]
fn bad_fixture_is_rejected_with_coded_findings() {
    let text = std::fs::read_to_string(repo_path("circuits/bad_unbuffered_io.ckt")).unwrap();
    let report = lint_ckt_text("bad_unbuffered_io.ckt", &text, &cfg());
    assert!(!report.is_clean(), "{report}");
    assert!(report.has_code("B000"), "selection failure: {report}");
    assert!(report.has_code("B012"), "width mismatch: {report}");
    assert!(report.has_code("B011"), "URFS note: {report}");
}

#[test]
fn paper_filters_have_zero_deny_findings() {
    let mut config = cfg();
    config.deny_warnings = true;
    for (name, circuit) in [
        ("c5a2m", bibs_datapath::filters::c5a2m()),
        ("c3a2m", bibs_datapath::filters::c3a2m()),
        ("c4a4m", bibs_datapath::filters::c4a4m()),
        ("fig9", bibs_datapath::fig9::figure9()),
    ] {
        let report = lint_full(&circuit, &config);
        assert!(report.is_clean(), "{name}:\n{report}");
        // The truncated multipliers show up as documented B004 notes.
        if name != "fig9" {
            assert!(report.has_code("B004"), "{name} keeps low product bits");
        }
    }
}

// ------------------------------------------------------------ property --

use proptest::prelude::*;

/// Builds an `n`-stage register pipeline PI -R0-> L0 ... -Rn-> PO with a
/// fanout at stage `src`; when `bypass` is true, a wire jumps from the
/// fanout over the next register straight into the following block,
/// creating an URFS.
fn bypass_pipeline(n: usize, src: usize, bypass: bool) -> Circuit {
    let mut b = CircuitBuilder::new("pipe");
    let pi = b.input("PI");
    let mut prev = pi;
    let mut blocks = Vec::new();
    for i in 0..n {
        let v = if i == src {
            b.fanout(format!("F{i}"))
        } else {
            b.logic(format!("L{i}"))
        };
        b.register(format!("R{i}"), 4, prev, v);
        blocks.push(v);
        prev = v;
    }
    let po = b.output("PO");
    b.register(format!("R{n}"), 4, prev, po);
    if bypass {
        b.wire(blocks[src], blocks[src + 1]);
    }
    b.finish().unwrap()
}

proptest! {
    /// A pure pipeline is balanced; adding one register-skipping wire
    /// flips B011 on. The mutation is the minimal URFS of Figure 1.
    #[test]
    fn register_bypass_flips_b011(n in 2usize..6, src in 0usize..5) {
        let src = src % (n - 1);
        let clean = bypass_pipeline(n, src, false);
        let report = lint_circuit(&clean, &cfg());
        prop_assert!(
            !report.has_code("B011"),
            "pipeline must be balanced: {report}"
        );
        let mutated = bypass_pipeline(n, src, true);
        let report = lint_circuit(&mutated, &cfg());
        prop_assert!(
            report.has_code("B011"),
            "bypass at {src} of {n} must be an URFS: {report}"
        );
    }
}
