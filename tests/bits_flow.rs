//! End-to-end integration test of the BITS-style flow on the shipped
//! sample circuit files: parse → select → schedule → TPG → controller.

use bibs::bibs::{select, BibsOptions};
use bibs::controller::synthesize;
use bibs::design::{is_bibs_testable, kernels};
use bibs::mintpg::minimize_degree;
use bibs::schedule::schedule;
use bibs::structure::GeneralizedStructure;
use bibs::tpg::mc_tpg;
use bibs_rtl::fmt::{from_text, to_text};

fn run_flow(path: &str) -> (usize, usize, u64) {
    let text = std::fs::read_to_string(path).expect("sample circuit exists");
    let circuit = from_text(&text).expect("sample circuit parses");
    let r = select(&circuit, &BibsOptions::default()).expect("selectable");
    assert!(is_bibs_testable(&r.circuit, &r.design), "{path}");
    let ks: Vec<_> = kernels(&r.circuit, &r.design)
        .into_iter()
        .filter(|k| k.has_logic(&r.circuit))
        .collect();
    let sessions = schedule(&r.design, &ks);
    let mut patterns = Vec::new();
    for kernel in &ks {
        let s = GeneralizedStructure::from_kernel(&r.circuit, &r.design, kernel)
            .expect("kernels of a valid design are balanced");
        let tpg = mc_tpg(&s);
        let min = minimize_degree(&tpg, 50);
        assert!(min.design.lfsr_degree() <= tpg.lfsr_degree());
        assert!(min.design.lfsr_degree() >= s.max_cone_width());
        patterns.push(64);
    }
    let ctrl = synthesize(&r.circuit, &r.design, &ks, &sessions, &patterns);
    assert_eq!(ctrl.steps.len(), sessions.len() * 2);
    // Export round-trips.
    let exported = to_text(&r.circuit);
    let reparsed = from_text(&exported).expect("export parses");
    assert_eq!(reparsed.edge_count(), r.circuit.edge_count());
    (ks.len(), sessions.len(), ctrl.total_cycles())
}

#[test]
fn pipeline_sample_flows_end_to_end() {
    let (kernels, sessions, cycles) = run_flow("circuits/pipeline.ckt");
    assert_eq!(kernels, 1);
    assert_eq!(sessions, 1);
    assert!(cycles > 0);
}

#[test]
fn fig4_sample_flows_end_to_end() {
    let (kernels, sessions, _) = run_flow("circuits/fig4.ckt");
    assert_eq!(kernels, 2, "the paper's two-kernel partition");
    assert_eq!(sessions, 2, "the paper's two test sessions");
}

#[test]
fn mac_sample_flows_end_to_end() {
    let (kernels, sessions, _) = run_flow("circuits/mac.ckt");
    assert_eq!(kernels, 1);
    assert_eq!(sessions, 1);
}
