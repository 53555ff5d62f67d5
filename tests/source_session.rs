//! Acceptance for the pluggable pattern-source layer: the hardware-
//! faithful sources reproduce the pre-source session path **exactly**.
//!
//! The pre-refactor way to fault-simulate the paper's TPG was to collect
//! the session stream with `session_patterns` and push it through
//! `run_patterns`. With sources, the same stream arrives through
//! [`MinTpgSource`] and the generic `run_source` driver — and the two
//! must agree on every first-detection index, all the way up to the
//! `table2 --source mintpg` surface.

use bibs::session::session_patterns;
use bibs::source::MinTpgSource;
use bibs::structure::GeneralizedStructure;
use bibs::tpg::sc_tpg;
use bibs_bench::{table2_column, SourceSpec, Table2Options, Tdm};
use bibs_datapath::elab::elaborate_kernel;
use bibs_datapath::filters::scaled;
use bibs_faultsim::fault::FaultUniverse;
use bibs_faultsim::par::ParFaultSimulator;
use bibs_faultsim::sim::BlockSim;
use bibs_faultsim::source::PatternSource;
use bibs_netlist::Netlist;
use std::collections::HashSet;

/// The c5a2m width-1 BIBS kernel with its TPG — the same setup as the
/// `exhaustive_session` capstone, where the full 2^8 session is cheap.
fn c5a2m_kernel() -> (Netlist, GeneralizedStructure, bibs::tpg::TpgDesign) {
    let circuit = scaled("c5a2m", 1);
    let result =
        bibs::bibs::select(&circuit, &bibs::bibs::BibsOptions::default()).expect("selectable");
    let ks = bibs::design::kernels(&result.circuit, &result.design);
    assert_eq!(ks.len(), 1);
    let structure = GeneralizedStructure::from_kernel(&result.circuit, &result.design, &ks[0])
        .expect("balanced kernel");
    let tpg = sc_tpg(&structure);
    let cut: HashSet<_> = result
        .design
        .bilbo
        .iter()
        .chain(&result.design.cbilbo)
        .copied()
        .collect();
    let kernel_set: HashSet<_> = ks[0].vertices.iter().copied().collect();
    let comb = elaborate_kernel(&result.circuit, &kernel_set, &cut)
        .expect("elaborates")
        .netlist
        .combinational_equivalent();
    (comb, structure, tpg)
}

#[test]
fn mintpg_source_reproduces_the_session_path_exactly() {
    let (comb, structure, tpg) = c5a2m_kernel();
    let faults = FaultUniverse::collapsed(&comb).faults().to_vec();

    // Pre-source path: collect the session stream, push it as patterns.
    let patterns = session_patterns(&tpg, &structure);
    let via_patterns = ParFaultSimulator::new(&comb, faults.clone()).run_patterns(&patterns);

    // Source path: the same hardware stream through the generic driver.
    let mut source = MinTpgSource::new(&tpg, &structure).expect("single-cone kernel");
    let via_source = ParFaultSimulator::new(&comb, faults.clone()).run_source(&mut source, 1 << 20);

    assert_eq!(
        via_patterns.detection(),
        via_source.detection(),
        "every first-detection index must match the session path"
    );
    assert_eq!(
        via_patterns.patterns_applied(),
        via_source.patterns_applied()
    );
    assert_eq!(source.patterns_emitted(), patterns.len() as u64);
    // The clock budget is the paper's test time: warm-up shifts plus one
    // cycle per pattern of the complete session.
    let warmup = tpg.flip_flop_count() as u64 + u64::from(structure.sequential_depth());
    assert_eq!(source.clocks_consumed(), warmup + (1 << tpg.lfsr_degree()));
}

#[test]
fn table2_mintpg_source_matches_the_session_path_end_to_end() {
    let (comb, structure, tpg) = c5a2m_kernel();
    let faults = FaultUniverse::collapsed(&comb).faults().to_vec();
    let patterns = session_patterns(&tpg, &structure);
    let mut expected: Vec<u64> = ParFaultSimulator::new(&comb, faults)
        .run_patterns(&patterns)
        .detection()
        .iter()
        .flatten()
        .copied()
        .collect();
    expected.sort_unstable();

    let circuit = scaled("c5a2m", 1);
    let opts = Table2Options {
        source: Some(SourceSpec::MinTpg),
        ..Table2Options::default()
    };
    let column = table2_column(&circuit, Tdm::Bibs, &opts);
    assert_eq!(column.kernel_stats.len(), 1);
    let stats = &column.kernel_stats[0];
    assert_eq!(
        stats.detection_indices, expected,
        "table2 --source mintpg must report the session path's indices"
    );
    let run = stats.source.as_ref().expect("mintpg reports its run");
    assert!(
        run.descriptor_json.starts_with("{\"kind\":\"mintpg\""),
        "the kernel is single-cone, so no LFSR fallback: {}",
        run.descriptor_json
    );
    // table2's observability split leaves out the faults with no path to
    // an output, so the driver reaches full coverage of the simulated list
    // before the session runs dry and stops pulling blocks early — emitted
    // is a block multiple within the session length.
    assert!(run.emitted > 0 && run.emitted <= patterns.len() as u64);
    assert_eq!(run.emitted % 64, 0, "sources emit full 64-lane blocks");
}
