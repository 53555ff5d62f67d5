//! Criterion bench for the observability spine: the recorder's raw
//! span/counter op cost. The fault-sim engines do not record while they
//! run (they count into their `SimStats`), so no engine path is timed
//! here.

use bibs_obs::{CounterId, Recorder};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

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

criterion_group!(benches, bench_recorder_ops);
criterion_main!(benches);
