//! Integration test: the BIBS TDM on a realistic higher-order IIR filter
//! (cascade of biquad sections), the kind of design the paper's digital-
//! filter evaluation points at. Exercises Theorem 2 on several cycles at
//! once plus scheduling across the resulting kernels.

use bibs::bibs::{select, BibsOptions, BibsResult};
use bibs::design::{is_bibs_testable, kernels};
use bibs::schedule::schedule;
use bibs_datapath::filters::biquad_cascade;
use bibs_rtl::Circuit;
use std::collections::BTreeSet;

/// The converted registers by name: (BILBOs, CBILBOs).
fn converted(result: &BibsResult) -> (BTreeSet<String>, BTreeSet<String>) {
    let names = |edges: &BTreeSet<_>| {
        edges
            .iter()
            .map(|&e| result.circuit.edge(e).name.clone().expect("named register"))
            .collect()
    };
    (names(&result.design.bilbo), names(&result.design.cbilbo))
}

/// `Rx0`, `Rout` and, per section, the registers named by `per_section`:
/// entry `s` lists the prefixes converted in section `s`.
fn bilbos(per_section: &[&[&str]]) -> BTreeSet<String> {
    let mut out: BTreeSet<String> = ["Rx0", "Rout"].map(String::from).into();
    for (s, prefixes) in per_section.iter().enumerate() {
        out.extend(prefixes.iter().map(|p| format!("{p}{s}")));
    }
    out
}

/// Selects on `circuit` and pins the search itself: the nodes it
/// expanded, whether the greedy fallback finished it, and the registers it
/// converted (all plain BILBOs).
fn assert_selection(
    circuit: &Circuit,
    nodes: usize,
    greedy: bool,
    per_section: &[&[&str]],
) -> BibsResult {
    let name = circuit.name();
    let result = select(circuit, &BibsOptions::default()).expect("selectable");
    assert!(is_bibs_testable(&result.circuit, &result.design), "{name}");
    assert_eq!(result.nodes_expanded, nodes, "{name}: nodes expanded");
    assert_eq!(result.greedy_fallback, greedy, "{name}: greedy fallback");
    assert_eq!(
        converted(&result),
        (bilbos(per_section), BTreeSet::new()),
        "{name}: converted registers"
    );
    result
}

/// The cut the exact search makes in every section: both coefficient
/// registers, the feedback product and the accumulator.
const SECTION_CUT: &[&str] = &["Rb", "Ra", "Rfb", "Racc"];

#[test]
fn cascade_of_three_sections_becomes_bibs_testable() {
    let circuit = biquad_cascade(3);
    assert!(!circuit.is_acyclic(), "cascades contain feedback cycles");
    let result = assert_selection(&circuit, 203, false, &[SECTION_CUT; 3]);

    // Theorem 2: every section's feedback cycle carries at least two
    // converted register edges.
    for s in 0..3 {
        let on_cycle = ["Racc", "Ry", "Rfb"]
            .iter()
            .filter(|p| {
                let name = format!("{p}{s}");
                result
                    .circuit
                    .register_by_name(&name)
                    .is_some_and(|e| result.design.is_cut(e))
            })
            .count();
        assert!(
            on_cycle >= 2,
            "section {s}: cycle must carry two BILBO edges, has {on_cycle}"
        );
    }

    // The kernels schedule into a small number of sessions.
    let ks: Vec<_> = kernels(&result.circuit, &result.design)
        .into_iter()
        .filter(|k| k.has_logic(&result.circuit))
        .collect();
    assert!(!ks.is_empty());
    let sessions = schedule(&result.design, &ks);
    assert!(sessions.len() <= ks.len());
    // No kernel ends up wider than the whole input space.
    for k in &ks {
        assert!(k.input_width(&result.circuit) <= circuit.total_register_bits());
    }
}

#[test]
fn deeper_cascades_scale() {
    assert_selection(&biquad_cascade(4), 1_175, false, &[SECTION_CUT; 4]);
    assert_selection(&biquad_cascade(5), 6_440, false, &[SECTION_CUT; 5]);
    // Six sections exhaust the exact search's node budget
    // (`BibsOptions::max_nodes`, 20,000): the greedy repair loop finishes
    // from the cheapest frontier state, and its design converts 27
    // registers, where `SECTION_CUT` in every section takes 26.
    assert_selection(
        &biquad_cascade(6),
        20_001,
        true,
        &[
            &["Rb", "Ra", "Racc", "Ry"],
            &["Rb", "Ra", "Racc", "Ry"],
            &["Rb", "Ra", "Rfb", "Ry"],
            &["Rb", "Ra", "Rfb", "Racc"],
            &["Rb", "Ra", "Racc", "Ry"],
            &["Rb", "Ra", "Rfb", "Racc", "Ry"],
        ],
    );
}
