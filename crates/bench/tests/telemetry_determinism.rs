//! The telemetry contract of the observability spine: only wall clocks
//! may vary from run to run, and `Recorder::to_json(false)` strips them —
//! so a wall-stripped export is the run's deterministic content.

use bibs_bench::{table2_column_traced, Engine, Table2Options, Tdm};
use bibs_datapath::filters::scaled;
use bibs_obs::{CounterId as C, Recorder};

#[test]
fn wall_clocks_are_the_only_nondeterministic_content() {
    // With wall clocks included the export still parses and contains the
    // same counters; stripping wall_ns must reproduce the wall-free form.
    let circuit = scaled("c5a2m", 3);
    let mut rec = Recorder::new("determinism");
    let _ = table2_column_traced(&circuit, Tdm::Bibs, &Table2Options::default(), &mut rec);
    rec.finish();
    let with_wall = rec.to_json(true);
    let without_wall = rec.to_json(false);
    assert!(without_wall.starts_with("{\"schema\":\"bibs-telemetry/1\""));
    // The run must have recorded real work, not an empty tree.
    assert!(without_wall.contains("\"fault_evals\":"), "{without_wall}");
    let stripped: String = {
        // Remove `"wall_ns":<digits>,` the same way the ci.sh gate does.
        let mut out = String::new();
        let mut rest = with_wall.as_str();
        while let Some(i) = rest.find("\"wall_ns\":") {
            out.push_str(&rest[..i]);
            let tail = &rest[i..];
            let end = tail.find(',').expect("wall_ns is never the last member") + 1;
            rest = &tail[end..];
        }
        out.push_str(rest);
        out
    };
    assert_eq!(stripped, without_wall);
}

#[test]
fn each_kernels_fault_sim_span_carries_its_engine_stats() {
    // Under either engine, the span a kernel records for its fault
    // simulation carries exactly the counters the kernel reports in
    // `KernelFaultStats::sim`, and at least the engine's block wall.
    let circuit = scaled("c3a2m", 2);
    for (engine, label) in [
        (Engine::Compiled, "fault-sim[par]"),
        (Engine::Reference, "fault-sim[reference]"),
    ] {
        let options = Table2Options {
            engine,
            ..Table2Options::default()
        };
        let mut rec = Recorder::new("engine stats");
        let column = table2_column_traced(&circuit, Tdm::Bibs, &options, &mut rec)
            .expect("the default source drives every kernel");
        rec.finish();
        let column_span = rec.children(rec.root()).next().expect("a column span");
        assert!(!column.kernel_stats.is_empty());
        for (i, stats) in column.kernel_stats.iter().enumerate() {
            let kernel = rec
                .find(column_span, &format!("kernel {i}"))
                .expect("a span per kernel");
            let span = rec
                .find(kernel, label)
                .unwrap_or_else(|| panic!("kernel {i} has no {label} span"));
            let sim = &stats.sim;
            assert!(sim.fault_evals > 0, "{label}, kernel {i} simulated nothing");
            let counters = rec.span_counters(span);
            assert_eq!(
                [
                    C::Blocks,
                    C::BlocksSkipped,
                    C::GoodEvals,
                    C::FaultEvals,
                    C::StemEvals,
                    C::StemStops,
                    C::FaultsDropped,
                    C::FaultsRetired,
                    C::GateEvals,
                ]
                .map(|id| counters.get(id)),
                [
                    sim.blocks,
                    sim.blocks_skipped,
                    sim.good_evals,
                    sim.fault_evals,
                    sim.stem_evals,
                    sim.stem_stops,
                    sim.faults_dropped,
                    sim.faults_retired,
                    sim.gate_evals,
                ],
                "{label}, kernel {i}"
            );
            assert!(counters.get(C::PatternsConsumed) > 0, "{label}, kernel {i}");
            assert!(rec.span_wall(span) >= sim.wall, "{label}, kernel {i}");
        }
    }
}
