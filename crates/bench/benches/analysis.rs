//! Criterion benches for the semantic analysis layer: what the static
//! sweeps cost (ternary abstract interpretation, SCOAP and the
//! untestability prover) and what partitioning a kernel's fault list
//! with them costs.

use bibs_faultsim::fault::{FaultUniverse, StaticFaultAnalysis};
use bibs_netlist::analysis::{ternary_analyze, PiAssumption, Scoap};
use bibs_netlist::builder::NetlistBuilder;
use bibs_netlist::{EvalProgram, Netlist};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn multiplier(width: usize) -> Netlist {
    let mut b = NetlistBuilder::new("mul");
    let a = b.input_word("a", width);
    let c = b.input_word("b", width);
    let p = b.array_multiplier(&a, &c, 2 * width);
    // Observe only the low half, like the paper's datapaths.
    b.output_word("p", &p[..width]);
    b.finish().expect("multiplier is well-formed")
}

/// The individual static sweeps on the mul8 cell: `bibs-lint --semantic`
/// and fuzz oracle 3 run each once per netlist.
fn bench_sweeps(c: &mut Criterion) {
    let nl = multiplier(8);
    let program = EvalProgram::compile(&nl).expect("acyclic");
    let mut group = c.benchmark_group("analysis_sweeps_mul8");
    group.bench_function("ternary_all_x", |b| {
        b.iter(|| {
            black_box(
                ternary_analyze(&program, &PiAssumption::AllX)
                    .constants()
                    .count(),
            )
        })
    });
    let abs = ternary_analyze(&program, &PiAssumption::AllX);
    group.bench_function("scoap_seeded", |b| {
        b.iter(|| black_box(Scoap::compute_with(&program, Some(&abs)).unobservable(0)))
    });
    group.bench_function("static_fault_analysis", |b| {
        b.iter(|| {
            let sfa = StaticFaultAnalysis::new(&program);
            black_box(sfa.scoap().unobservable(0))
        })
    });
    group.finish();
}

/// Partitioning the observable fault list into undecided and statically
/// untestable faults: one verdict per fault, as `bibs-lint --semantic`
/// asks for B042.
fn bench_partition(c: &mut Criterion) {
    let nl = multiplier(8);
    let program = EvalProgram::compile(&nl).expect("acyclic");
    let universe = FaultUniverse::collapsed(&nl);
    let (observable, _) = universe.split_by_observability(&program);
    let sfa = StaticFaultAnalysis::new(&program);
    let mut group = c.benchmark_group("analysis_partition_mul8");
    group.bench_function("partition_untestable", |b| {
        b.iter(|| black_box(sfa.partition(&program, &observable).0.len()))
    });
    group.finish();
}

criterion_group!(benches, bench_sweeps, bench_partition);
criterion_main!(benches);
