//! Criterion benches for the observability spine: the recorder's raw
//! span/counter op cost, and — the number the ≤3 % overhead budget is
//! judged on — the end-to-end fault-sim hot path with an enabled
//! recorder vs `Recorder::disabled()`.

use bibs_faultsim::fault::FaultUniverse;
use bibs_faultsim::par::ParFaultSimulator;
use bibs_faultsim::sim::BlockSim;
use bibs_netlist::builder::NetlistBuilder;
use bibs_netlist::{EvalProgram, Netlist};
use bibs_obs::{CounterId, Recorder};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn multiplier(width: usize) -> Netlist {
    let mut b = NetlistBuilder::new("mul");
    let a = b.input_word("a", width);
    let c = b.input_word("b", width);
    let p = b.array_multiplier(&a, &c, 2 * width);
    b.output_word("p", &p[..width]);
    b.finish().expect("multiplier is well-formed")
}

/// Raw recorder ops: a span round-trip with two counter adds.
fn bench_recorder_ops(c: &mut Criterion) {
    c.bench_function("obs_span_enter_exit_add", |b| {
        let mut rec = Recorder::new("bench");
        b.iter(|| {
            let s = rec.enter("span");
            rec.add(CounterId::FaultEvals, 1);
            rec.add(CounterId::GateEvals, 97);
            rec.exit(black_box(s));
        })
    });
}

/// The overhead budget check: the same 256-pattern random fault-sim run
/// on the 8-bit array multiplier with telemetry on vs off. The engine
/// sums a block's counters in locals and adds them to its span once per
/// block, so "on" must stay within a few percent of "off".
fn bench_recorder_overhead(c: &mut Criterion) {
    let nl = multiplier(8);
    let universe = FaultUniverse::collapsed(&nl);
    let program = EvalProgram::compile(&nl).unwrap();
    let (observable, _) = universe.split_by_observability(&program);
    let mut group = c.benchmark_group("fault_sim_recorder_mul8_256pat");
    group.sample_size(30);
    for (label, enabled) in [("disabled", false), ("enabled", true)] {
        group.bench_with_input(BenchmarkId::from_parameter(label), &enabled, |b, &on| {
            b.iter_batched(
                || {
                    let rec = if on {
                        Recorder::new("fault-sim[par]")
                    } else {
                        Recorder::disabled()
                    };
                    (
                        ParFaultSimulator::with_program_recorder(
                            &nl,
                            program.clone(),
                            observable.clone(),
                            rec,
                        ),
                        StdRng::seed_from_u64(3),
                    )
                },
                |(mut sim, mut rng)| black_box(sim.run_random(&mut rng, 256).detected_count()),
                criterion::BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench_recorder_ops, bench_recorder_overhead);
criterion_main!(benches);
