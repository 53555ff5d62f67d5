//! Semantic lint passes: B040–B043, driven by the dataflow analyses of
//! [`bibs_netlist::analysis`] over the compiled [`EvalProgram`] IR.
//!
//! Where the structural passes (B00x) check *shape*, these check
//! *meaning*: the ternary abstract interpretation proves nets constant
//! under all-X inputs (B040), finds gate outputs independent of an input
//! pin (B041), and — through the seeded SCOAP sweeps and the
//! untestability prover bridged by
//! [`bibs_faultsim::fault::StaticFaultAnalysis`] — proves single-stuck-at
//! faults statically untestable (B042). Constants whose proof needs *case
//! analysis* on a reconvergent stem (`xor(f, f)`-style structure) mark
//! genuinely redundant logic cones (B043): the cone computes a constant
//! for a non-obvious reason and is removable.
//!
//! The pass is opt-in (`LintConfig::semantic`, the binary's `--semantic`
//! flag) because it simulates nothing but does run whole-netlist sweeps
//! per kernel.
//!
//! ## What fires on the paper datapaths
//!
//! The array multipliers pad their accumulator rows with tied-zero nets,
//! so `c5a2m`/`c3a2m`/`c4a4m` legitimately report B040/B041 findings
//! (allow/warn level) on the folded carry gates. B042 is deny-level and
//! must stay at **zero** on them: every statically untestable fault there
//! is either structurally unobservable (the truncated product's high
//! half, already reported as B004/B007) or sits in the *constant shadow*
//! — on a proven-constant net, a pin reading one, or a gate whose output
//! is proven constant — which is intentional tied-value structure, not
//! datapath redundancy. CI enforces this.

use crate::diag::{LintConfig, Report};
use bibs_core::design::{kernels, BilboDesign};
use bibs_datapath::elab::elaborate_kernel;
use bibs_faultsim::fault::{FaultUniverse, StaticFaultAnalysis};
use bibs_netlist::analysis::independent_pins;
use bibs_netlist::{EvalProgram, NetDriver, NetId, Netlist};
use bibs_rtl::{Circuit, EdgeId};
use std::collections::HashSet;

/// Renders a net as `n7 ("a[3]")` or `n7` when unnamed.
fn net_desc(nl: &Netlist, id: NetId) -> String {
    match nl.net_name(id) {
        Some(n) => format!("{id} (\"{n}\")"),
        None => format!("{id}"),
    }
}

/// Runs the semantic passes on every elaborable kernel of `circuit` under
/// `design`. Kernels that fail to elaborate are skipped silently here —
/// [`crate::lint_design`] already reports them as B031.
pub fn lint_semantic(circuit: &Circuit, design: &BilboDesign, config: &LintConfig) -> Report {
    let mut report = Report::new();
    let cut: HashSet<EdgeId> = design.bilbo.union(&design.cbilbo).copied().collect();
    for (ki, kernel) in kernels(circuit, design).iter().enumerate() {
        let kv: HashSet<_> = kernel.vertices.iter().copied().collect();
        let Ok(elab) = elaborate_kernel(circuit, &kv, &cut) else {
            continue;
        };
        let what = format!("kernel #{ki}");
        report.merge(lint_netlist_semantic(&elab.netlist, &what, config));
    }
    report
}

/// Runs the semantic passes on one netlist (`what` names it in messages).
///
/// The netlist's combinational equivalent is compiled to an
/// [`EvalProgram`]; netlists that do not compile (combinational cycles)
/// are skipped — the structural passes report those as B003.
pub fn lint_netlist_semantic(netlist: &Netlist, what: &str, config: &LintConfig) -> Report {
    let mut report = Report::new();
    let comb = netlist.combinational_equivalent();
    let Ok(program) = EvalProgram::compile(&comb) else {
        return report;
    };
    let sfa = StaticFaultAnalysis::new(&program);
    let abs = sfa.abs();

    // B040 / B043 — gate-driven nets proven constant under all-X inputs.
    // A tied constant propagating forward is ordinary degenerate structure
    // (B040, warn); a constant that needs case analysis on a reconvergent
    // stem marks a removable redundant cone (B043 in addition).
    for (slot, value) in abs.constants() {
        let net = NetId::from_index(slot);
        if !matches!(comb.driver(net), NetDriver::Gate(_)) {
            continue; // tied constants and constant-valued PIs are intent
        }
        let v = u8::from(value);
        report.emit(
            config,
            "B040",
            format!(
                "{what}: net {} is constant {v} for every input (the driving \
                 gate never toggles)",
                net_desc(&comb, net)
            ),
            format!(
                "{} = {v} under all-X ternary propagation",
                net_desc(&comb, net)
            ),
        );
        if let Some(stem) = abs.split_stem(slot) {
            let stem_net = NetId::from_index(stem);
            report.emit(
                config,
                "B043",
                format!(
                    "{what}: redundant logic cone — net {} is constant {v} only \
                     by case analysis on reconvergent stem {} (the cone computes \
                     a constant and is removable)",
                    net_desc(&comb, net),
                    net_desc(&comb, stem_net)
                ),
                format!(
                    "{} = {v} in both branches of {} = 0/1",
                    net_desc(&comb, net),
                    net_desc(&comb, stem_net)
                ),
            );
        }
    }

    // B041 — gate outputs independent of one of their input pins.
    for ip in independent_pins(&program, abs) {
        let gate = program.instr(ip.instr as usize).gate;
        let g = comb.gate(gate);
        let pin_net = g.inputs[ip.pin as usize];
        report.emit(
            config,
            "B041",
            format!(
                "{what}: output of {gate}:{} is independent of input pin {} \
                 ({}) — the connection carries no information",
                g.kind,
                ip.pin,
                net_desc(&comb, pin_net)
            ),
            format!(
                "{gate}.in{} driven by {}; forcing it 0 or 1 leaves the output \
                 unchanged under the ternary abstraction",
                ip.pin,
                net_desc(&comb, pin_net)
            ),
        );
    }

    // B042 — statically untestable faults at *meaningful* sites: the site
    // must be structurally observable (unobservable cones are B004/B007
    // territory) and outside the constant shadow (faults on proven-constant
    // nets, pins reading them, or gates with proven-constant outputs are a
    // consequence of intentional tied values, reported above). What remains
    // is logic whose only propagation paths are semantically dead — a
    // genuine datapath redundancy that random patterns can never exercise.
    let universe = FaultUniverse::collapsed(&comb);
    let (observable, _) = universe.split_by_observability(&program);
    let (_, untestable) = sfa.partition(&program, &observable);
    for (fault, verdict) in untestable {
        let at = fault.locate(&program);
        if abs.constant(at.slot).is_some() || abs.constant(at.out).is_some() {
            continue;
        }
        report.emit(
            config,
            "B042",
            format!(
                "{what}: fault {fault} is statically untestable ({}) — no \
                 pattern can ever detect it, so it silently caps the reachable \
                 fault coverage",
                verdict.reason
            ),
            verdict.witness.to_string(),
        );
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use bibs_netlist::builder::NetlistBuilder;
    use bibs_netlist::GateKind;

    fn cfg() -> LintConfig {
        LintConfig::new()
    }

    /// `and(x, 0)` — constant by plain propagation: B040 fires (warn),
    /// B043 does not (no case analysis involved), and the pin the gate
    /// ignores is B041.
    #[test]
    fn tied_constant_cone_is_b040_and_b041_not_b043() {
        let mut b = NetlistBuilder::new("tied");
        let x = b.input("x");
        let z = b.const0();
        let k = b.and2(x, z);
        let c = b.input("c");
        let y = b.or2(c, k);
        b.output("y", y);
        // Observe x directly so its stem is live: the only findings left
        // are the degenerate AND (its pin faults are constant-shadowed).
        b.output("xo", x);
        let nl = b.finish().unwrap();
        let report = lint_netlist_semantic(&nl, "t", &cfg());
        assert!(report.has_code("B040"), "{report}");
        assert!(!report.has_code("B042"), "shadowed, not B042: {report}");
        assert!(!report.has_code("B043"), "{report}");
        assert!(report.has_code("B041"), "{report}");
        assert!(
            report
                .with_code("B040")
                .next()
                .unwrap()
                .message
                .contains("constant 0"),
            "{report}"
        );
        // B040 is warn-level: clean without --deny warnings, dirty with.
        assert!(report.is_clean(), "{report}");
        let mut strict = cfg();
        strict.deny_warnings = true;
        let report = lint_netlist_semantic(&nl, "t", &strict);
        assert!(!report.is_clean(), "{report}");
    }

    /// `xor(f, f)` — constant only by case analysis on the reconvergent
    /// stem: both B040 and B043 fire.
    #[test]
    fn reconvergent_constant_is_b043() {
        let mut b = NetlistBuilder::new("recon");
        let f = b.input("f");
        let y = b.gate(GateKind::Xor, &[f, f]);
        let c = b.input("c");
        let o = b.or2(c, y);
        b.output("o", o);
        let nl = b.finish().unwrap();
        let report = lint_netlist_semantic(&nl, "t", &cfg());
        assert!(report.has_code("B040"), "{report}");
        assert!(report.has_code("B043"), "{report}");
        let d = report.with_code("B043").next().unwrap();
        assert!(d.message.contains("case analysis"), "{}", d.message);
        assert!(d.witness.contains("\"f\""), "witness: {}", d.witness);
    }

    /// Logic feeding only a constant-killed gate: structurally observable,
    /// not itself constant, yet no pattern propagates it — B042 (deny).
    #[test]
    fn semantically_dead_logic_is_b042() {
        let mut b = NetlistBuilder::new("dead");
        let a = b.input("a");
        let c = b.input("b");
        let g0 = b.xor2(a, c); // feeds ONLY the killed AND below
        let z = b.const0();
        let k = b.and2(g0, z); // constant 0: kills g0's observability
        let d = b.input("d");
        let y = b.or2(d, k);
        b.output("y", y);
        let nl = b.finish().unwrap();
        let report = lint_netlist_semantic(&nl, "t", &cfg());
        assert!(report.has_code("B042"), "{report}");
        assert!(!report.is_clean(), "B042 must deny: {report}");
        let d = report.with_code("B042").next().unwrap();
        assert!(d.message.contains("statically untestable"), "{}", d.message);
        assert!(!d.witness.is_empty(), "B042 carries an implication chain");
    }

    /// A healthy adder has no semantic findings at all.
    #[test]
    fn clean_adder_is_silent() {
        let mut b = NetlistBuilder::new("add");
        let x = b.input_word("x", 4);
        let y = b.input_word("y", 4);
        let (s, co) = b.ripple_carry_adder(&x, &y, None);
        b.output_word("s", &s);
        b.output("co", co);
        let nl = b.finish().unwrap();
        let report = lint_netlist_semantic(&nl, "t", &cfg());
        assert!(report.diagnostics.is_empty(), "{report}");
    }

    /// The paper datapaths must report zero B042: their only untestable
    /// faults are structurally unobservable or constant-shadowed.
    #[test]
    fn paper_datapaths_report_zero_b042() {
        use bibs_core::bibs::{select, BibsOptions};
        for circuit in [
            bibs_datapath::filters::scaled("c5a2m", 4),
            bibs_datapath::filters::scaled("c3a2m", 4),
            bibs_datapath::filters::scaled("c4a4m", 4),
        ] {
            let result = select(&circuit, &BibsOptions::default()).unwrap();
            let report = lint_semantic(&result.circuit, &result.design, &cfg());
            assert!(
                !report.has_code("B042"),
                "{} must have zero B042:\n{report}",
                circuit.name()
            );
            assert!(report.is_clean(), "{}:\n{report}", circuit.name());
        }
    }
}
