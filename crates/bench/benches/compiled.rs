//! Criterion benches for the compiled evaluation IR: the interpreted
//! reference engine vs the [`EvalProgram`]-based engine on the paper's
//! array-multiplier cell — the workload that dominates every Table 2
//! circuit. The reports are bit-identical, so the only thing measured is
//! wall clock; EXPERIMENTS.md records the resulting speedups.

use bibs_faultsim::fault::FaultUniverse;
use bibs_faultsim::par::ParFaultSimulator;
use bibs_faultsim::reference::ReferenceSimulator;
use bibs_faultsim::sim::BlockSim;
use bibs_netlist::builder::NetlistBuilder;
use bibs_netlist::{EvalProgram, Netlist};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
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

/// Good-machine evaluation only: one 64-pattern block through the
/// interpreter vs the compiled program (the hot loop both engines share).
fn bench_good_eval(c: &mut Criterion) {
    let mut group = c.benchmark_group("good_eval_block64_mul8");
    let nl = multiplier(8);
    let order = nl.levelize().expect("acyclic");
    let program = EvalProgram::compile(&nl).expect("acyclic");
    let mut rng = StdRng::seed_from_u64(5);
    let words: Vec<u64> = (0..nl.input_width()).map(|_| rng.gen()).collect();
    group.bench_function("interpreted", |b| {
        let mut values = vec![0u64; nl.net_count()];
        let mut scratch = Vec::new();
        b.iter(|| {
            bibs_faultsim::reference::eval_good(
                &nl,
                &order,
                black_box(&words),
                &mut values,
                &mut scratch,
            );
            black_box(values[nl.outputs()[0].index()])
        })
    });
    group.bench_function("compiled", |b| {
        let mut values = program.new_values();
        b.iter(|| {
            program.eval_good(&mut values, black_box(&words));
            black_box(values[nl.outputs()[0].index()])
        })
    });
    group.finish();
}

/// Full good+faulty block throughput (the table2 inner loop): interpreted
/// reference vs the compiled engine.
fn bench_engines(c: &mut Criterion) {
    let nl = multiplier(8);
    let universe = FaultUniverse::collapsed(&nl);
    let program = bibs_netlist::EvalProgram::compile(&nl).unwrap();
    let (observable, _) = universe.split_by_observability(&program);
    let mut group = c.benchmark_group("fault_sim_mul8_256pat");
    group.sample_size(10);
    group.bench_function("reference", |b| {
        b.iter_batched(
            || {
                (
                    ReferenceSimulator::new(&nl, observable.clone()),
                    StdRng::seed_from_u64(3),
                )
            },
            |(mut sim, mut rng)| black_box(sim.run_random(&mut rng, 256).detected_count()),
            criterion::BatchSize::SmallInput,
        )
    });
    group.bench_function("compiled", |b| {
        b.iter_batched(
            || {
                (
                    ParFaultSimulator::new(&nl, observable.clone()),
                    StdRng::seed_from_u64(3),
                )
            },
            |(mut sim, mut rng)| black_box(sim.run_random(&mut rng, 256).detected_count()),
            criterion::BatchSize::SmallInput,
        )
    });
    group.finish();
}

/// One-time compile cost, amortized over a whole table2 run.
fn bench_compile(c: &mut Criterion) {
    let nl = multiplier(8);
    c.bench_function("eval_program_compile_mul8", |b| {
        b.iter(|| black_box(EvalProgram::compile(&nl).expect("acyclic").instr_count()))
    });
}

criterion_group!(benches, bench_good_eval, bench_engines, bench_compile);
criterion_main!(benches);
