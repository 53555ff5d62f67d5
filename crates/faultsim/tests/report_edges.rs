//! Regression tests pinning the coverage accounting of a
//! [`FaultSimReport`](bibs_faultsim::sim::FaultSimReport) at its edges:
//! the empty fault list and an all-undetectable fault list.

use bibs_faultsim::fault::Fault;
use bibs_faultsim::par::ParFaultSimulator;
use bibs_faultsim::sim::BlockSim;
use bibs_netlist::builder::NetlistBuilder;
use bibs_netlist::Netlist;

fn adder4() -> Netlist {
    let mut b = NetlistBuilder::new("add4");
    let a = b.input_word("a", 4);
    let c = b.input_word("b", 4);
    let (s, co) = b.ripple_carry_adder(&a, &c, None);
    b.output_word("s", &s);
    b.output("co", co);
    b.finish().unwrap()
}

/// y = a AND (NOT a) is constant 0, so its output's sa0 is undetectable.
fn redundant_netlist() -> Netlist {
    let mut b = NetlistBuilder::new("red");
    let a = b.input("a");
    let na = b.not(a);
    let y = b.and2(a, na);
    b.output("y", y);
    b.finish().unwrap()
}

#[test]
fn empty_fault_list_has_full_coverage() {
    let nl = adder4();
    let report = ParFaultSimulator::new(&nl, Vec::new()).run_exhaustive();
    assert_eq!(report.faults().len(), 0);
    assert_eq!(report.detected_count(), 0);
    // Vacuous coverage is complete.
    assert!((report.coverage() - 1.0).abs() < f64::EPSILON);
}

#[test]
fn all_undetectable_list_has_zero_coverage() {
    let nl = redundant_netlist();
    let faults = vec![Fault::net_sa0(nl.outputs()[0])];
    let report = ParFaultSimulator::new(&nl, faults).run_exhaustive();
    assert_eq!(report.detected_count(), 0);
    assert_eq!(report.undetected().len(), 1);
    assert_eq!(report.coverage(), 0.0);
}
