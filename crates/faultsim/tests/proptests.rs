//! Property-based tests for the fault machinery: PODEM and implication
//! soundness against the fault simulator, collapsing soundness,
//! observability filtering.

use bibs_faultsim::atpg::{Atpg, AtpgResult};
use bibs_faultsim::fault::{Fault, FaultUniverse};
use bibs_faultsim::implication::ImplicationCheck;
use bibs_faultsim::par::ParFaultSimulator;
use bibs_faultsim::sim::{BlockSim, Stop};
use bibs_faultsim::source::RandomWords;
use bibs_netlist::Netlist;
use proptest::prelude::*;
use std::collections::HashSet;

/// Random combinational netlists from the shared generator; small DAGs so
/// exhaustive simulation stays cheap.
fn netlist_strategy() -> impl Strategy<Value = Netlist> {
    bibs_netlist::testgen::netlist_strategy_sized(8, 25)
}

/// Each fault's first-detection index on four seeded random streams of
/// 2,048 patterns. Equivalent faults have identical vectors.
fn detection_vectors(nl: &Netlist, faults: &[Fault]) -> Vec<Vec<Option<u64>>> {
    let mut vectors = vec![Vec::new(); faults.len()];
    for seed in 0..4 {
        let report = ParFaultSimulator::new(nl, faults.to_vec())
            .run(&mut RandomWords::seeded(seed), Stop::after(2_048));
        for (v, &d) in vectors.iter_mut().zip(report.detection()) {
            v.push(d);
        }
    }
    vectors
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// PODEM agrees with exhaustive fault simulation on detectability,
    /// and every generated test actually detects its fault.
    #[test]
    fn podem_matches_exhaustive_ground_truth(nl in netlist_strategy()) {
        let universe = FaultUniverse::collapsed(&nl);
        let mut atpg = Atpg::new(&nl);
        for &fault in universe.faults().iter().take(40) {
            let verdict = atpg.generate(fault, 50_000);
            let mut sim = ParFaultSimulator::new(&nl, vec![fault]);
            let truth = sim.run_exhaustive().detected_count() == 1;
            match verdict {
                AtpgResult::Test(t) => {
                    prop_assert!(truth, "PODEM found a test for undetectable {fault}");
                    let pattern: Vec<bool> = t.iter().map(|v| v.unwrap_or(false)).collect();
                    let mut replay = ParFaultSimulator::new(&nl, vec![fault]);
                    let rep = replay.run_patterns(&[pattern]);
                    prop_assert_eq!(rep.detected_count(), 1, "test must detect {}", fault);
                }
                AtpgResult::Redundant => {
                    prop_assert!(!truth, "PODEM called detectable {fault} redundant");
                }
                AtpgResult::Aborted => {} // inconclusive is allowed
            }
        }
    }

    /// The implication check is sound: every fault of the full universe it
    /// proves redundant stays undetected under exhaustive simulation, and
    /// PODEM finds no test for it.
    #[test]
    fn implication_proofs_hold_exhaustively(nl in netlist_strategy()) {
        let faults = FaultUniverse::full(&nl).faults().to_vec();
        let program = bibs_netlist::EvalProgram::compile(&nl).unwrap();
        let truth = ParFaultSimulator::new(&nl, faults.clone()).run_exhaustive();
        let mut check = ImplicationCheck::new(&program);
        let mut atpg = Atpg::new(&nl);
        for (&fault, detection) in faults.iter().zip(truth.detection()) {
            if check.proves_redundant(fault) {
                prop_assert!(
                    detection.is_none(),
                    "the check proved detectable {} redundant", fault
                );
                prop_assert!(
                    !matches!(atpg.generate(fault, 50_000), AtpgResult::Test(_)),
                    "PODEM found a test for {}, which the check proved redundant", fault
                );
            }
        }
    }

    /// Fault collapsing drops only equivalent faults: the collapsed set is
    /// a subset of the full set, and every fault of the full set detects
    /// pattern for pattern like some fault the collapsed set keeps (equal
    /// first-detection vectors on the same seeded streams), so no dropped
    /// fault carries a detection history of its own.
    #[test]
    fn collapsing_preserves_redundancy_structure(nl in netlist_strategy()) {
        let full = FaultUniverse::full(&nl);
        let collapsed = FaultUniverse::collapsed(&nl);
        prop_assert!(collapsed.len() <= full.len());
        for f in collapsed.faults() {
            prop_assert!(full.faults().contains(f));
        }
        let kept: HashSet<_> = detection_vectors(&nl, collapsed.faults()).into_iter().collect();
        for (f, v) in full.faults().iter().zip(detection_vectors(&nl, full.faults())) {
            prop_assert!(kept.contains(&v), "{} has no equivalent kept fault", f);
        }
    }

    /// The observability split is sound: structurally unobservable faults
    /// are never detected, even exhaustively.
    #[test]
    fn unobservable_faults_are_undetectable(nl in netlist_strategy()) {
        let universe = FaultUniverse::collapsed(&nl);
        let program = bibs_netlist::EvalProgram::compile(&nl).unwrap();
        let (_, unobservable) = universe.split_by_observability(&program);
        if !unobservable.is_empty() {
            let mut sim = ParFaultSimulator::new(&nl, unobservable);
            let report = sim.run_exhaustive();
            prop_assert_eq!(report.detected_count(), 0);
        }
    }

    /// Detection indices reported by the simulator are faithful: replaying
    /// exactly that many exhaustive patterns detects the fault, and one
    /// fewer does not... (monotonicity of the first-detection index).
    #[test]
    fn detection_indices_are_first_detections(nl in netlist_strategy()) {
        let universe = FaultUniverse::collapsed(&nl);
        let faults: Vec<_> = universe.faults().iter().copied().take(10).collect();
        let mut sim = ParFaultSimulator::new(&nl, faults.clone());
        let report = sim.run_exhaustive();
        let width = nl.input_width();
        for (i, det) in report.detection().iter().enumerate() {
            if let Some(idx) = det {
                // Replay patterns 0..=idx in order; the fault must fall at
                // exactly pattern idx.
                let patterns: Vec<Vec<bool>> = (0..=*idx)
                    .map(|p| (0..width).map(|b| (p >> b) & 1 == 1).collect())
                    .collect();
                let mut replay = ParFaultSimulator::new(&nl, vec![faults[i]]);
                let rep = replay.run_patterns(&patterns);
                prop_assert_eq!(rep.detection()[0], Some(*idx));
            }
        }
    }
}
