//! Integration test: the BIBS TDM on a realistic higher-order IIR filter
//! (cascade of biquad sections), the kind of design the paper's digital-
//! filter evaluation points at. Exercises Theorem 2 on several cycles at
//! once plus scheduling across the resulting kernels.

use bibs::bibs::{select, BibsOptions};
use bibs::design::{is_bibs_testable, kernels};
use bibs::schedule::schedule;
use bibs_datapath::filters::biquad_cascade;

#[test]
fn cascade_of_three_sections_becomes_bibs_testable() {
    let circuit = biquad_cascade(3);
    assert!(!circuit.is_acyclic(), "cascades contain feedback cycles");
    let result = select(&circuit, &BibsOptions::default()).expect("selectable");
    assert!(is_bibs_testable(&result.circuit, &result.design));

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
    let circuit = biquad_cascade(6);
    let result = select(&circuit, &BibsOptions::default()).expect("selectable");
    assert!(is_bibs_testable(&result.circuit, &result.design));
    assert!(
        result.design.register_count() >= 12,
        "six feedback cycles need at least a dozen conversions"
    );
}
