//! Regenerates Table 2: the BIBS vs Krasniewski–Albicki comparison on the
//! three datapath circuits — kernels, sessions, BILBO registers, maximal
//! delay, and patterns/test time at 99.5 % and 100 % coverage of
//! detectable faults.
//!
//! Run with `cargo run --release -p bibs-bench --bin table2`.
//!
//! Usage: `table2 [WIDTH] [--json] [--engine compiled|reference]
//! [--source random|lfsr|mintpg|weighted|replay:FILE] [--only NAME]
//! [--circuit PATH] [--telemetry OUT.json]`
//!
//! * `WIDTH` — word width, a positive integer (default 8; the paper's
//!   width);
//! * `--circuit PATH` — run on a circuit file instead of the built-in
//!   datapaths: `.ckt`, or `.bench` carrying an `# rtl:` sidecar (a
//!   plain gate-level `.bench` has no register-transfer view and is
//!   rejected — table2's TDM comparison needs RTL). `WIDTH` and
//!   `--only` are ignored with `--circuit`;
//! * `--json` — emit the detection-deterministic results as JSON on
//!   stdout (used by CI to diff the two engines byte-for-byte);
//! * `--engine` — fault-simulation engine (default `compiled`; the
//!   `reference` interpreter produces bit-identical results, slower);
//! * `--source` — pattern source for the per-kernel random phase (omitted:
//!   the legacy seeded-RNG path; `random` reproduces it byte-for-byte
//!   through the source layer; `lfsr`, `mintpg`, `weighted` and
//!   `replay:FILE` change the stream and add per-kernel
//!   `source`/`source_clocks`/`source_patterns` fields to the JSON — the
//!   coverage-vs-clocks axis). A source that cannot drive a kernel (an
//!   LFSR past 64 inputs, also as `mintpg`'s fallback; a replay schedule
//!   declared for another width) is a usage error (exit 2);
//! * `--only NAME` — restrict to one circuit (`c5a2m`, `c3a2m`, `c4a4m`);
//! * `--telemetry OUT.json` — write the hierarchical span tree (stage
//!   wall clocks plus deterministic counters, schema `bibs-telemetry/1`)
//!   to a file: per circuit, a `lint[NAME]` span for the lint gate that
//!   runs before simulation, then its two columns. Set
//!   `BIBS_TRACE=spans|counters` to additionally print the tree or the
//!   aggregate counters to stderr.
//!
//! The results are bit-identical for either engine. The exported
//! telemetry counters are deterministic per engine but not shared: the
//! engines count their work differently (`gate_evals`, `stem_evals`,
//! `stem_stops`), and
//! only the compiled engine runs the prover, so `good_evals`,
//! `faults_retired` and `blocks_skipped` differ too. Without `--json` the
//! table is followed by the fault accounting, the engine's counters and
//! wall in milliseconds, and a `static analysis:` line (faults simulated
//! after the observability split, and the compile-plus-split wall).

use bibs_bench::{
    render_table2, table2_column_traced, table2_json, Engine, SourceSpec, Table2Options, Tdm,
    Telemetry,
};
use bibs_datapath::filters::try_scaled;

fn main() {
    let mut width: u32 = 8;
    let mut json = false;
    let mut engine = Engine::Compiled;
    let mut source: Option<SourceSpec> = None;
    let mut only: Option<String> = None;
    let mut circuit_path: Option<std::path::PathBuf> = None;
    let mut telemetry_path: Option<std::path::PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--telemetry" => {
                telemetry_path = Some(std::path::PathBuf::from(args.next().unwrap_or_else(|| {
                    eprintln!("--telemetry needs an output path");
                    std::process::exit(2);
                })));
            }
            "--engine" => {
                let value = args.next().unwrap_or_default();
                engine = value.parse().unwrap_or_else(|e| {
                    eprintln!("{e}");
                    std::process::exit(2);
                });
            }
            "--source" => {
                let value = args.next().unwrap_or_default();
                let spec: SourceSpec = value.parse().unwrap_or_else(|e| {
                    eprintln!("{e}");
                    std::process::exit(2);
                });
                if let Err(e) = spec.preflight() {
                    eprintln!("{e}");
                    std::process::exit(2);
                }
                source = Some(spec);
            }
            "--only" => {
                only = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--only needs a circuit name");
                    std::process::exit(2);
                }));
            }
            "--circuit" => {
                circuit_path = Some(std::path::PathBuf::from(args.next().unwrap_or_else(|| {
                    eprintln!("--circuit needs a file path");
                    std::process::exit(2);
                })));
            }
            other => match other.parse() {
                Ok(w) => width = w,
                Err(_) => {
                    eprintln!("unknown argument '{other}'");
                    std::process::exit(2);
                }
            },
        }
    }
    let options = Table2Options {
        engine,
        source,
        ..Table2Options::default()
    };
    let circuits: Vec<bibs_rtl::Circuit> = if let Some(path) = &circuit_path {
        let loaded = bibs_datapath::front::load_path(path).unwrap_or_else(|e| {
            eprintln!("cannot load {}: {e}", path.display());
            std::process::exit(2);
        });
        match loaded.circuit() {
            Some(c) => vec![c.clone()],
            None => {
                eprintln!(
                    "{}: gate-level netlist has no register-transfer view; table2 \
                     compares TDMs over RTL (use a .ckt file, or a .bench carrying \
                     an '# rtl:' sidecar)",
                    path.display()
                );
                std::process::exit(2);
            }
        }
    } else {
        let names: Vec<&str> = ["c5a2m", "c3a2m", "c4a4m"]
            .into_iter()
            .filter(|n| only.as_deref().is_none_or(|o| o == *n))
            .collect();
        if names.is_empty() {
            eprintln!("--only matched no circuit (expected one of c5a2m, c3a2m, c4a4m)");
            std::process::exit(2);
        }
        names
            .into_iter()
            .map(|n| {
                try_scaled(n, width).unwrap_or_else(|e| {
                    eprintln!("table2: {e} (usage: table2 [WIDTH] [OPTIONS])");
                    std::process::exit(2);
                })
            })
            .collect()
    };
    eprintln!(
        "fault-simulating with the {} engine, source {}",
        options.engine,
        options
            .source
            .as_ref()
            .map_or_else(|| "default".to_string(), |s| s.to_string())
    );
    let telemetry = Telemetry::new(telemetry_path);
    let mut rec = telemetry.recorder("table2");
    let mut columns = Vec::new();
    for circuit in &circuits {
        let name = circuit.name().to_string();
        // Static lint gate: a datapath that violates the paper conditions
        // would fault-simulate to garbage — refuse up front.
        let report = rec.scope(format!("lint[{name}]"), |_| {
            bibs_lint::lint_full(circuit, &bibs_lint::LintConfig::new())
        });
        if !report.is_clean() {
            eprintln!("{name} fails lint:\n{report}");
            std::process::exit(1);
        }
        // A source that cannot drive a kernel is a usage error.
        let mut column = |tdm| {
            table2_column_traced(circuit, tdm, &options, &mut rec).unwrap_or_else(|e| {
                eprintln!("table2: {e}");
                std::process::exit(2);
            })
        };
        eprintln!("running {name} (width {width}) under BIBS ...");
        let b = column(Tdm::Bibs);
        eprintln!("running {name} under [3] ...");
        let k = column(Tdm::Ka85);
        columns.push((b, k));
    }
    if let Err(e) = telemetry.emit(&mut rec) {
        eprintln!("table2: {e}");
        std::process::exit(1);
    }
    if json {
        print!("{}", table2_json(&columns));
        return;
    }
    println!("Table 2: BIBS vs the TDM of [3] (width {width})");
    println!("{}", render_table2(&columns));
    println!("fault universes (collapsed / redundant / detectable):");
    for (b, k) in &columns {
        let sum = |col: &bibs_bench::Table2Column| {
            let f: usize = col.kernel_stats.iter().map(|s| s.faults).sum();
            let r: usize = col.kernel_stats.iter().map(|s| s.redundant).sum();
            let d: usize = col.kernel_stats.iter().map(|s| s.detectable()).sum();
            let a: usize = col.kernel_stats.iter().map(|s| s.aborted).sum();
            let u: usize = col.kernel_stats.iter().map(|s| s.unreached).sum();
            (f, r, d, a, u)
        };
        let (bf, br, bd, ba, bu) = sum(b);
        let (kf, kr, kd, ka, ku) = sum(k);
        println!(
            "  {}: BIBS {bf}/{br}/{bd} (aborted {ba}, unreached {bu}); [3] {kf}/{kr}/{kd} (aborted {ka}, unreached {ku})",
            b.circuit
        );
    }
    // Engine observability: aggregate fault-sim throughput over every
    // kernel of every column.
    let all = columns
        .iter()
        .flat_map(|(b, k)| b.kernel_stats.iter().chain(&k.kernel_stats));
    let (mut evals, mut stems, mut gate_evals, mut blocks, mut skipped) = (0u64, 0, 0, 0, 0);
    let (mut sweeps, mut retired) = (0u64, 0);
    let mut wall = std::time::Duration::ZERO;
    let (mut universe, mut simulated) = (0u64, 0u64);
    let mut analysis = std::time::Duration::ZERO;
    for s in all {
        evals += s.sim.fault_evals;
        stems += s.sim.stem_evals;
        gate_evals += s.sim.gate_evals;
        blocks += s.sim.blocks;
        skipped += s.sim.blocks_skipped;
        sweeps += s.sim.good_evals;
        retired += s.sim.faults_retired;
        wall += s.sim.wall;
        universe += s.sim.universe_faults;
        simulated += s.sim.simulated_faults;
        analysis += s.sim.analysis_wall;
    }
    let secs = wall.as_secs_f64();
    println!(
        "fault-sim engine: {evals} live-fault checks over {blocks} blocks \
         ({stems} stem propagations, {sweeps} good-machine sweeps, \
         {retired} faults retired by the prover, {skipped} blocks skipped \
         with no fault live) in {:.1} ms ({:.0}/s, {:.2e} gate evals/s, \
         {} engine)",
        secs * 1e3,
        if secs > 0.0 { evals as f64 / secs } else { 0.0 },
        if secs > 0.0 {
            gate_evals as f64 / secs
        } else {
            0.0
        },
        options.engine
    );
    println!(
        "static analysis: {simulated}/{universe} faults simulated \
         (collapse {:.3}), {:.1} ms analysis",
        if universe > 0 {
            simulated as f64 / universe as f64
        } else {
            1.0
        },
        analysis.as_secs_f64() * 1e3
    );
}
