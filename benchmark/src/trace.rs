//! The traced pass: one eval rebuilt from each layer's public calls, with
//! every call timed from outside.
//!
//! This mirrors `bibs_bench::table2_column` and `kernel_fault_stats` step
//! by step, so an API change in any layer is fixed here and nowhere else
//! in the benchmark. The caller checks that the composed column equals
//! the one `table2_column` returns for the same options.

use crate::workload::Workload;
use bibs_bench::{
    apply_tdm, build_source, KernelFaultStats, SourceRun, SourceSpec, Table2Column, Table2Options,
    Tdm,
};
use bibs_core::delay::maximal_delay;
use bibs_core::design::{BilboDesign, Kernel};
use bibs_core::schedule::{schedule, schedule_test_time, sequential_test_time};
use bibs_datapath::elab::elaborate_kernel;
use bibs_faultsim::atpg::Atpg;
use bibs_faultsim::fault::{Fault, FaultUniverse, StaticFaultAnalysis};
use bibs_faultsim::par::ParFaultSimulator;
use bibs_faultsim::sim::BlockSim;
use bibs_faultsim::source::{PatternSource, RandomWords};
use bibs_rtl::Circuit;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, HashSet};
use std::time::{Duration, Instant};

/// Layer times, counts and harness-only time summed over traced evals,
/// keyed by per-layer metric name.
#[derive(Debug, Default)]
pub struct Totals {
    sums: BTreeMap<&'static str, f64>,
    /// Wall time of the traced evals, excluding `harness`.
    wall: Duration,
    /// Time spent only to measure: building and replaying a second
    /// pattern source to time the first one's pulls.
    harness: Duration,
    /// Traced evals summed.
    evals: u64,
}

impl Totals {
    fn add(&mut self, key: &'static str, value: f64) {
        *self.sums.entry(key).or_default() += value;
    }

    fn add_ms(&mut self, key: &'static str, d: Duration) {
        self.add(key, d.as_secs_f64() * 1e3);
    }

    /// The sum recorded under `key` (0 when nothing was).
    fn get(&self, key: &str) -> f64 {
        self.sums.get(key).copied().unwrap_or(0.0)
    }

    fn time<T>(&mut self, key: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.add_ms(key, start.elapsed());
        out
    }

    /// The per-layer metrics: every layer time and count as a mean per
    /// traced eval, rates and ratios over the sums. `timed_wall` is the
    /// untraced wall of the same evals; times and rates are scaled by the
    /// host's `slowdown`, as the end-to-end ones are.
    pub fn metrics(&self, timed_wall: Duration, slowdown: f64) -> Vec<(&'static str, f64)> {
        let per_eval = |key: &'static str| (key, self.get(key) / self.evals as f64);
        let ms_per_eval = |key: &'static str, ms: f64| (key, ms / self.evals as f64 / slowdown);
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let wall_ms = self.wall.as_secs_f64() * 1e3;
        let attributed: f64 = LAYERS.iter().map(|&k| self.get(k)).sum();
        let mut out: Vec<_> = LAYERS
            .iter()
            .map(|&k| ms_per_eval(k, self.get(k)))
            .collect();
        out.push(ms_per_eval("bench.unattributed_ms", wall_ms - attributed));
        out.push((
            "bench.trace_overhead_pct",
            100.0 * (self.wall.as_secs_f64() / timed_wall.as_secs_f64() - 1.0),
        ));
        out.extend(COUNTS.iter().map(|&k| per_eval(k)));
        out.push((
            "faultsim.gate_evals_per_s",
            ratio(
                self.get("faultsim.gate_evals") * slowdown,
                self.get("faultsim.ms") / 1e3,
            ),
        ));
        out.push((
            "faultsim.drop_ratio",
            ratio(
                self.get("faultsim.faults_dropped"),
                self.get("faultsim.fault_evals"),
            ),
        ));
        out.push((
            "atpg.backtracks_per_fault",
            ratio(self.get("atpg.backtracks"), self.get("atpg.faults")),
        ));
        out
    }
}

/// Layer-time keys, in pipeline order.
const LAYERS: [&str; 8] = [
    "core.ms",
    "datapath.ms",
    "fault.ms",
    "netlist.ms",
    "analysis.ms",
    "faultsim.ms",
    "source.ms",
    "atpg.ms",
];

/// Work-count keys, reported as means per eval.
const COUNTS: [&str; 17] = [
    "netlist.instructions",
    "fault.faults",
    "analysis.untestable",
    "analysis.simulated_faults",
    "faultsim.blocks",
    "faultsim.patterns",
    "faultsim.good_evals",
    "faultsim.fault_evals",
    "faultsim.gate_evals",
    "faultsim.faults_dropped",
    "source.clocks",
    "source.patterns",
    "atpg.faults",
    "atpg.backtracks",
    "atpg.redundant",
    "atpg.aborted",
    "atpg.unresolved",
];

/// One traced eval of `workload` over the set-up `circuits`, added to
/// `totals`. Returns the composed columns in the order the timed eval
/// returns them.
pub fn eval(
    workload: &Workload,
    circuits: &[Circuit],
    options: &Table2Options,
    totals: &mut Totals,
) -> Vec<Table2Column> {
    let start = Instant::now();
    let harness_before = totals.harness;
    let out = workload
        .columns()
        .map(|(c, tdm)| column(&circuits[c], tdm, options, totals))
        .collect();
    totals.wall += start.elapsed() - (totals.harness - harness_before);
    totals.evals += 1;
    out
}

/// `table2_column`, one timed layer call at a time.
fn column(circuit: &Circuit, tdm: Tdm, options: &Table2Options, t: &mut Totals) -> Table2Column {
    let (circuit, design, ks) = t.time("core.ms", || apply_tdm(circuit, tdm));
    let sessions = t.time("core.ms", || schedule(&design, &ks));
    let stats: Vec<KernelFaultStats> = ks
        .iter()
        .map(|k| kernel(&circuit, &design, k, options, t))
        .collect();
    t.time("core.ms", move || {
        let per_kernel = |fraction: f64| -> Vec<u64> {
            stats.iter().map(|s| s.patterns_for(fraction)).collect()
        };
        let (p995, p100) = (per_kernel(0.995), per_kernel(1.0));
        Table2Column {
            tdm,
            circuit: circuit.name().to_string(),
            kernel_count: ks.len(),
            session_count: sessions.len(),
            bilbo_count: design.register_count(),
            max_delay: maximal_delay(&circuit, &design).unwrap_or(0),
            patterns_995: sequential_test_time(&p995),
            time_995: schedule_test_time(&sessions, &p995),
            patterns_100: sequential_test_time(&p100),
            time_100: schedule_test_time(&sessions, &p100),
            kernel_stats: stats,
        }
    })
}

/// `kernel_fault_stats` for the default engine, collapse mode, lane width
/// and no optimizer, one timed layer call at a time.
fn kernel(
    circuit: &Circuit,
    design: &BilboDesign,
    kernel: &Kernel,
    options: &Table2Options,
    t: &mut Totals,
) -> KernelFaultStats {
    let cut: HashSet<_> = design.bilbo.iter().chain(&design.cbilbo).copied().collect();
    let kernel_set: HashSet<_> = kernel.vertices.iter().copied().collect();
    let comb = t.time("datapath.ms", || {
        elaborate_kernel(circuit, &kernel_set, &cut)
            .expect("kernel elaborates")
            .netlist
            .combinational_equivalent()
    });
    let universe = t.time("fault.ms", || FaultUniverse::collapsed(&comb));
    let program = t.time("netlist.ms", || {
        bibs_netlist::EvalProgram::compile(&comb).expect("kernel equivalents are acyclic")
    });
    let (unobservable, to_sim, untestable) = t.time("analysis.ms", || {
        let (observable, unobservable) = universe.split_by_observability(&program);
        let sfa = StaticFaultAnalysis::new(&program);
        let (to_sim, untestable) = sfa.partition(&program, &observable);
        (unobservable, to_sim, untestable)
    });

    let kernel_seed = options.seed ^ kernel.input_edges.len() as u64;
    let width = comb.input_width();
    let new_source = |spec: &SourceSpec| {
        build_source(spec, kernel_seed, width, circuit, design, kernel)
            .unwrap_or_else(|e| panic!("cannot build pattern source '{spec}': {e}"))
    };
    let mut source = options
        .source
        .as_ref()
        .map(|spec| t.time("source.ms", || new_source(spec)));
    let start = Instant::now();
    let mut sim =
        ParFaultSimulator::with_program(&comb, program.clone(), to_sim.clone(), options.jobs)
            .with_lanes(options.lanes);
    let report = match &mut source {
        None => sim.run_random_with_plateau(
            &mut StdRng::seed_from_u64(kernel_seed),
            options.max_patterns,
            options.plateau,
        ),
        Some(source) => {
            sim.run_source_with(&mut **source, options.max_patterns, options.plateau, 1.0)
        }
    };
    let run = start.elapsed();

    // The pulls happened inside the run; time the same number of pulls on
    // a fresh source and move that time from fault-sim to the source.
    let stats = report.stats().clone();
    let harness = Instant::now();
    let mut replay: Box<dyn PatternSource> = match &options.source {
        None => Box::new(RandomWords::seeded(kernel_seed)),
        Some(spec) => new_source(spec),
    };
    let pulls = Instant::now();
    for _ in 0..stats.blocks {
        if replay.next_block(width).is_none() {
            break;
        }
    }
    let pulls = pulls.elapsed();
    t.harness += harness.elapsed();
    t.add_ms("source.ms", pulls);
    t.add(
        "faultsim.ms",
        (run.as_secs_f64() - pulls.as_secs_f64()) * 1e3,
    );
    let ran: &dyn PatternSource = source.as_deref().unwrap_or(&*replay);
    t.add("source.clocks", ran.clocks_consumed() as f64);
    t.add("source.patterns", ran.patterns_emitted() as f64);
    let source_run = match (&options.source, &source) {
        (Some(spec), Some(source)) if *spec != SourceSpec::Random => Some(SourceRun {
            descriptor_json: source.descriptor().to_json(),
            clocks: source.clocks_consumed(),
            emitted: source.patterns_emitted(),
        }),
        _ => None,
    };

    let survivors: Vec<Fault> = to_sim
        .iter()
        .zip(report.detection())
        .filter(|(_, d)| d.is_none())
        .map(|(&f, _)| f)
        .collect();
    let (class, backtracks) = t.time("atpg.ms", || {
        let mut atpg = Atpg::new(&comb);
        let class = atpg.classify(&survivors, options.backtrack_limit);
        (class, atpg.backtracks_total())
    });

    let mut detection_indices: Vec<u64> = report.detection().iter().flatten().copied().collect();
    detection_indices.sort_unstable();

    t.add("netlist.instructions", program.instr_count() as f64);
    t.add("fault.faults", universe.len() as f64);
    t.add("analysis.untestable", untestable.len() as f64);
    t.add("analysis.simulated_faults", to_sim.len() as f64);
    t.add("faultsim.blocks", stats.blocks as f64);
    t.add("faultsim.patterns", report.patterns_applied() as f64);
    t.add("faultsim.good_evals", stats.good_evals as f64);
    t.add("faultsim.fault_evals", stats.fault_evals as f64);
    t.add("faultsim.gate_evals", stats.gate_evals as f64);
    t.add("faultsim.faults_dropped", stats.faults_dropped as f64);
    t.add("atpg.faults", survivors.len() as f64);
    t.add("atpg.backtracks", backtracks as f64);
    t.add("atpg.redundant", class.redundant.len() as f64);
    t.add("atpg.aborted", class.aborted.len() as f64);
    t.add(
        "atpg.unresolved",
        (class.aborted.len() + class.detectable.len()) as f64,
    );

    KernelFaultStats {
        faults: universe.len(),
        redundant: unobservable.len() + untestable.len() + class.redundant.len(),
        aborted: class.aborted.len(),
        unreached: class.detectable.len(),
        detected: detection_indices.len(),
        detection_indices,
        sim: stats,
        source: source_run,
        opt: None,
    }
}
