//! Table 2's survivors, pinned kernel by kernel at the paper's width (8)
//! under the default options and seed.
//!
//! The pipeline's implication check proves every survivor of the random
//! phase redundant, so each kernel's `atpg` span shows no PODEM search,
//! and its `implied_redundant` count is pinned.
//!
//! PODEM's search stays pinned too: the test searches each kernel's
//! survivors directly. The backtrack count is a fingerprint of the whole
//! decision sequence: a change to implication, to the D-frontier order
//! or to the X-path check that alters any decision moves it. Every
//! survivor is redundant, so the search runs to exhaustion and a changed
//! decision cannot hide behind an early test. Debug builds also re-check
//! every event-driven implication against a whole-program sweep, so this
//! test drives that check through every decision of the six columns.

use bibs_bench::{apply_tdm, table2_column_traced, Table2Options, Tdm};
use bibs_datapath::elab::elaborate_kernel;
use bibs_datapath::filters::scaled;
use bibs_faultsim::atpg::{Atpg, AtpgResult, Verdicts};
use bibs_faultsim::fault::{Fault, FaultUniverse};
use bibs_faultsim::par::ParFaultSimulator;
use bibs_faultsim::sim::{BlockSim, Stop};
use bibs_faultsim::source::RandomWords;
use bibs_netlist::{EvalProgram, Netlist};
use bibs_obs::{CounterId, Recorder};
use std::collections::HashSet;

/// Each kernel's `implied_redundant`, in kernel order, for one column of
/// the traced pipeline, whose `atpg` spans must show no PODEM search.
fn implied(name: &str, tdm: Tdm) -> Vec<u64> {
    let circuit = scaled(name, 8);
    let mut rec = Recorder::new("podem");
    let _ = table2_column_traced(&circuit, tdm, &Table2Options::default(), &mut rec);
    rec.finish();
    let column = rec.children(rec.root()).next().expect("a column span");
    rec.children(column)
        .filter_map(|kernel| rec.find(kernel, "atpg"))
        .map(|atpg| {
            let counters = rec.span_counters(atpg);
            for id in [CounterId::PodemFaults, CounterId::PodemBacktracks] {
                assert_eq!(counters.get(id), 0, "{name} {tdm}: {}", id.name());
            }
            counters.get(CounterId::ImpliedRedundant)
        })
        .collect()
}

/// Each kernel of one column, in kernel order: its combinational
/// equivalent and the faults the pipeline's random phase leaves live,
/// found the way the pipeline finds them.
fn survivors(name: &str, tdm: Tdm) -> Vec<(Netlist, Vec<Fault>)> {
    let options = Table2Options::default();
    let (circuit, design, kernels) = apply_tdm(&scaled(name, 8), tdm);
    let cut: HashSet<_> = design.bilbo.iter().chain(&design.cbilbo).copied().collect();
    kernels
        .iter()
        .map(|kernel| {
            let set: HashSet<_> = kernel.vertices.iter().copied().collect();
            let comb = elaborate_kernel(&circuit, &set, &cut)
                .expect("kernel elaborates")
                .netlist
                .combinational_equivalent();
            let program = EvalProgram::compile(&comb).expect("kernel equivalents are acyclic");
            let (faults, _) = FaultUniverse::collapsed(&comb).split_by_observability(&program);
            let mut verdicts = Verdicts::new(&comb, &program, options.backtrack_limit);
            let mut prove = |f| verdicts.proves_redundant(f);
            let report = ParFaultSimulator::new(&comb, faults.clone()).run(
                &mut RandomWords::seeded(options.seed ^ kernel.input_edges.len() as u64),
                Stop {
                    plateau: options.plateau,
                    prover: Some(&mut prove),
                    ..Stop::after(options.max_patterns)
                },
            );
            let live = faults
                .iter()
                .zip(report.detection())
                .filter(|(_, d)| d.is_none())
                .map(|(&f, _)| f)
                .collect();
            (comb, live)
        })
        .collect()
}

/// PODEM's backtracks on each kernel's survivors, in kernel order, for
/// one column. Every search must prove its fault redundant.
fn backtracks(name: &str, tdm: Tdm) -> Vec<u64> {
    let limit = Table2Options::default().backtrack_limit;
    survivors(name, tdm)
        .iter()
        .map(|(comb, live)| {
            let mut atpg = Atpg::new(comb);
            for &fault in live {
                assert_eq!(
                    atpg.generate(fault, limit),
                    AtpgResult::Redundant,
                    "{name} {tdm}: {fault}"
                );
            }
            atpg.backtracks_total()
        })
        .collect()
}

#[test]
fn the_pipeline_proves_every_survivor_by_implication() {
    assert_eq!(implied("c5a2m", Tdm::Bibs), [2]);
    assert_eq!(implied("c3a2m", Tdm::Bibs), [2]);
    assert_eq!(implied("c4a4m", Tdm::Bibs), [4]);
    assert_eq!(implied("c5a2m", Tdm::Ka85), [0, 0, 0, 0, 1, 1, 0]);
    assert_eq!(implied("c3a2m", Tdm::Ka85), [0, 1, 0, 1, 0]);
    assert_eq!(implied("c4a4m", Tdm::Ka85), [0, 0, 2, 2, 0, 0]);
}

#[test]
fn bibs_kernels_keep_their_backtrack_counts() {
    assert_eq!(backtracks("c5a2m", Tdm::Bibs), [598]);
    assert_eq!(backtracks("c3a2m", Tdm::Bibs), [2868]);
    assert_eq!(backtracks("c4a4m", Tdm::Bibs), [336]);
}

#[test]
fn ka85_kernels_keep_their_backtrack_counts() {
    assert_eq!(backtracks("c5a2m", Tdm::Ka85), [0, 0, 0, 0, 8, 8, 0]);
    assert_eq!(backtracks("c3a2m", Tdm::Ka85), [0, 8, 0, 8, 0]);
    assert_eq!(backtracks("c4a4m", Tdm::Ka85), [0, 0, 16, 16, 0, 0]);
}
