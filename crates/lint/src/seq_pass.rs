//! Sequential X-safety lint passes: B050–B054, driven by
//! [`bibs_netlist::seqanalysis`] over the compiled program *with* its
//! flip-flops (unlike the semantic passes, which analyze the
//! combinational equivalent).
//!
//! The MISR signature is only meaningful if no unknown reaches it, and
//! after power-up every flop holds an X until some input sequence defines
//! it. This pass grades each flop:
//!
//! * **B052** — the flop provably settles to a constant for *every* input
//!   sequence and power-up state: a stuck register;
//! * **B051** — no input sequence ever initializes the flop under ternary
//!   semantics: its power-up X is permanent;
//! * **B050** — B051 *and* a concrete divergence witness shows the X at
//!   an observed output: the deny-level case, because that X walks
//!   straight into the signature compactor;
//! * **B053** — the flop's output has no structural path to any output:
//!   whatever it holds is unobservable;
//! * **B054** — on circuits carrying both views, the RTL sequential depth
//!   disagrees with the gate-level unrolled depth (cross-layer
//!   consistency, the sequential sibling of B030).
//!
//! Soundness of the B050/B051 claims (zero false positives with respect
//! to exhaustive bounded-sequence ternary simulation) is argued in
//! [`bibs_netlist::seqanalysis`] and enforced by an oracle test.

use crate::diag::{LintConfig, Report};
use bibs_netlist::seqanalysis::{find_x_witness, InitStatus, SeqAnalysis, SeqOptions};
use bibs_netlist::{DffId, EvalProgram, NetId, Netlist};
use bibs_rtl::Circuit;

/// Renders a net as `n7 ("a[3]")` or `n7` when unnamed.
fn net_desc(nl: &Netlist, id: NetId) -> String {
    match nl.net_name(id) {
        Some(n) => format!("{id} (\"{n}\")"),
        None => format!("{id}"),
    }
}

/// Renders flop `f` as `ff2 (q = n9 ("acc[1]"))`.
fn dff_desc(nl: &Netlist, f: usize) -> String {
    let id = DffId::from_index(f);
    format!("{id} (q = {})", net_desc(nl, nl.dff(id).q))
}

/// Runs the sequential passes on one netlist (`what` names it in
/// messages): it compiles the netlist and analyzes it once, grades every
/// flip-flop (B050–B053), then, given the circuit the netlist was
/// elaborated from, cross-checks the two sequential depths (B054).
///
/// Each half has its own skips. Netlists without flip-flops and invalid
/// netlists get no B050–B053; the structural passes own an invalid
/// netlist's findings. B054 needs a circuit with fully registered I/O, an
/// RTL depth of at least 2 and a gate-level depth the analysis can
/// define. A netlist whose combinational part does not levelize gets
/// neither, silently.
pub fn lint_seq(
    circuit: Option<&Circuit>,
    netlist: &Netlist,
    what: &str,
    config: &LintConfig,
) -> Report {
    let mut report = Report::new();
    let grade_flops = netlist.dff_count() > 0 && netlist.validate().is_ok();
    let rtl_depth = circuit.and_then(rtl_depth_to_check);
    if !grade_flops && rtl_depth.is_none() {
        return report;
    }
    let Ok(program) = EvalProgram::compile(netlist) else {
        return report;
    };
    let opts = SeqOptions::default();
    let analysis = SeqAnalysis::analyze(&program, &opts);
    if grade_flops {
        for f in 0..netlist.dff_count() {
            let desc = dff_desc(netlist, f);
            match analysis.init[f] {
                InitStatus::Constant(v) => {
                    let v = u8::from(v);
                    report.emit(
                        config,
                        "B052",
                        format!(
                            "{what}: flop {desc} is stuck at {v} after {} frame(s) for \
                             every input sequence and power-up state — a wasted register",
                            analysis.frames_to_fix
                        ),
                        format!("all-X state fixpoint: {desc} = {v}"),
                    );
                }
                InitStatus::NeverInitialized => {
                    let observed_witness = if analysis.observable[f] {
                        find_x_witness(&program, f, &opts)
                    } else {
                        None
                    };
                    if let Some(w) = observed_witness {
                        let out = net_desc(netlist, netlist.outputs()[w.output]);
                        report.emit(
                            config,
                            "B050",
                            format!(
                                "{what}: power-up X of flop {desc} reaches observed \
                                 output {out} — the MISR signature depends on an \
                                 uninitialized register",
                            ),
                            format!(
                                "paired runs (seed {:#018x}, power-up differing only in \
                                 {desc}) diverge at output {out} in frame {}",
                                w.seed, w.frame
                            ),
                        );
                    } else {
                        report.emit(
                            config,
                            "B051",
                            format!(
                                "{what}: flop {desc} is never initialized by any input \
                                 sequence — its power-up X is permanent under ternary \
                                 semantics",
                            ),
                            format!(
                                "no input assignment makes the D cone of {desc} \
                                 ternary-known in any frame (achievable-value fixpoint \
                                 is empty)"
                            ),
                        );
                    }
                }
                InitStatus::Initializable => {}
            }
            if !analysis.observable[f] {
                report.emit(
                    config,
                    "B053",
                    format!(
                        "{what}: flop {desc} is unobservable — no structural path from \
                         its Q to any primary output, even through other flops",
                    ),
                    format!("backward reachability from the outputs never visits {desc}"),
                );
            }
        }
    }
    if let Some(rtl_depth) = rtl_depth.filter(|_| !analysis.depth_cyclic) {
        let gate_depth = analysis.output_depths.iter().copied().max().unwrap_or(0);
        if gate_depth != rtl_depth - 2 {
            report.emit(
                config,
                "B054",
                format!(
                    "{what}: RTL sequential depth {rtl_depth} disagrees with the \
                     gate-level unrolled depth {gate_depth} (expected {} after the \
                     BILBO boundary cut) — the two views describe different \
                     pipelines",
                    rtl_depth - 2
                ),
                format!(
                    "rtl sequential_depth() = {rtl_depth}; max over per-output \
                     flip-flop counts of the compiled netlist = {gate_depth}; the \
                     elaboration cuts one input and one output register stage"
                ),
            );
        }
    }
    report
}

/// The RTL sequential depth of `circuit` that B054 checks, or `None` when
/// the check does not apply.
///
/// The elaboration ([`bibs_datapath::elab::elaborate_whole`]) cuts the
/// PI-adjacent and PO-adjacent register edges out of the netlist — they
/// become the BILBO boundary — so for a datapath with fully registered
/// I/O the gate-level depth must equal `rtl_depth - 2`. The check does not
/// apply when the I/O is not fully registered (the offset is then
/// path-dependent), when the RTL layer cannot define a depth (cyclic), or
/// when the depth is below 2.
fn rtl_depth_to_check(circuit: &Circuit) -> Option<u32> {
    let rtl_depth = circuit.sequential_depth()?;
    // Every PI-adjacent and PO-adjacent edge must be a register edge,
    // mirroring the boundary cut of `elaborate_whole`.
    use bibs_rtl::VertexKind;
    let registered_io = circuit.edge_ids().all(|e| {
        let edge = circuit.edge(e);
        let boundary = circuit.vertex(edge.from).kind == VertexKind::Input
            || circuit.vertex(edge.to).kind == VertexKind::Output;
        !boundary || edge.is_register()
    });
    (registered_io && rtl_depth >= 2).then_some(rtl_depth)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bibs_netlist::builder::NetlistBuilder;
    use bibs_netlist::GateKind;

    fn cfg() -> LintConfig {
        LintConfig::new()
    }

    /// An inverter-loop flop observed at an output: never initialized and
    /// concretely visible — B050, deny by default.
    #[test]
    fn visible_uninitialized_flop_is_b050() {
        let mut b = NetlistBuilder::new("osc");
        let (q, d) = b.register_deferred();
        let nq = b.not(q);
        b.resolve_deferred(d, nq);
        let x = b.input("x");
        let y = b.or2(q, x);
        b.output("y", y);
        let nl = b.finish().unwrap();
        let report = lint_seq(None, &nl, "t", &cfg());
        assert!(report.has_code("B050"), "{report}");
        assert!(!report.has_code("B051"), "B050 subsumes B051: {report}");
        assert!(!report.is_clean(), "{report}");
        let diag = report.with_code("B050").next().unwrap();
        assert!(diag.witness.contains("seed"), "{}", diag.witness);
        assert!(diag.message.contains("ff0"), "{}", diag.message);
    }

    /// The same loop masked by XOR(q, q): still never initialized, but no
    /// concrete divergence exists — B051 (warn), not B050.
    #[test]
    fn masked_uninitialized_flop_is_b051_not_b050() {
        let mut b = NetlistBuilder::new("mask");
        let (q, d) = b.register_deferred();
        let nq = b.not(q);
        b.resolve_deferred(d, nq);
        let y = b.gate(GateKind::Xor, &[q, q]);
        b.output("y", y);
        let nl = b.finish().unwrap();
        let report = lint_seq(None, &nl, "t", &cfg());
        assert!(report.has_code("B051"), "{report}");
        assert!(!report.has_code("B050"), "{report}");
        assert!(report.is_clean(), "warn-level by default: {report}");
        let mut strict = cfg();
        strict.deny_warnings = true;
        assert!(!lint_seq(None, &nl, "t", &strict).is_clean());
    }

    /// A flop fed by a tied constant is a stuck register: B052.
    #[test]
    fn stuck_register_is_b052() {
        let mut b = NetlistBuilder::new("stuck");
        let x = b.input("x");
        let z = b.const1();
        let r = b.register(&[z]);
        let y = b.and2(x, r[0]);
        b.output("y", y);
        let nl = b.finish().unwrap();
        let report = lint_seq(None, &nl, "t", &cfg());
        assert!(report.has_code("B052"), "{report}");
        let d = report.with_code("B052").next().unwrap();
        assert!(d.message.contains("stuck at 1"), "{}", d.message);
    }

    /// A flop whose Q feeds nothing: B053, and its never-init power-up X
    /// stays B051 (unobservable, so it cannot be B050).
    #[test]
    fn unobservable_flop_is_b053() {
        let mut b = NetlistBuilder::new("deaf");
        let (q, d) = b.register_deferred();
        let nq = b.not(q);
        b.resolve_deferred(d, nq);
        let x = b.input("x");
        let y = b.not(x);
        b.output("y", y);
        let nl = b.finish().unwrap();
        let report = lint_seq(None, &nl, "t", &cfg());
        assert!(report.has_code("B053"), "{report}");
        assert!(report.has_code("B051"), "{report}");
        assert!(!report.has_code("B050"), "{report}");
    }

    /// A healthy pipeline has no sequential findings.
    #[test]
    fn clean_pipeline_is_silent() {
        let mut b = NetlistBuilder::new("pipe");
        let x = b.input_word("x", 3);
        let r0 = b.register(&x);
        let r1 = b.register(&r0);
        b.output_word("y", &r1);
        let nl = b.finish().unwrap();
        let report = lint_seq(None, &nl, "t", &cfg());
        assert!(report.diagnostics.is_empty(), "{report}");
    }

    /// Combinational netlists are skipped entirely.
    #[test]
    fn combinational_netlist_is_skipped() {
        let mut b = NetlistBuilder::new("comb");
        let x = b.input("x");
        let y = b.not(x);
        b.output("y", y);
        let nl = b.finish().unwrap();
        assert!(lint_seq(None, &nl, "t", &cfg()).diagnostics.is_empty());
    }

    /// B054 stays silent when RTL and gate-level agree, and fires when the
    /// gate-level pipeline is one stage deeper than the RTL claims.
    #[test]
    fn depth_crosscheck_fires_on_disagreement() {
        let circuit = bibs_datapath::filters::scaled("c5a2m", 2);
        let nl = bibs_datapath::elab::elaborate_whole(&circuit)
            .unwrap()
            .netlist;
        let report = lint_seq(Some(&circuit), &nl, "t", &cfg());
        assert!(report.diagnostics.is_empty(), "{report}");

        // A netlist one register stage deeper than the RTL view claims
        // (rtl depth 4 -> expected gate depth 2, this one is 3).
        let mut b = NetlistBuilder::new("deeper");
        let x = b.input("x");
        let r0 = b.register(&[x]);
        let r1 = b.register(&r0);
        let r2 = b.register(&r1);
        b.output("y", r2[0]);
        let deeper = b.finish().unwrap();
        let report = lint_seq(Some(&circuit), &deeper, "t", &cfg());
        assert!(report.has_code("B054"), "{report}");
        assert!(!report.is_clean(), "B054 denies by default: {report}");

        // A netlist without flip-flops skips only the flop grading: its
        // gate-level depth 0 still disagrees with the expected 2.
        let mut b = NetlistBuilder::new("flat");
        let x = b.input("x");
        let y = b.not(x);
        b.output("y", y);
        let flat = b.finish().unwrap();
        let report = lint_seq(Some(&circuit), &flat, "t", &cfg());
        assert_eq!(report.diagnostics.len(), 1, "{report}");
        assert!(report.has_code("B054"), "{report}");
    }
}
