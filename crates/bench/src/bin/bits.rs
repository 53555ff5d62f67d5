//! A BITS-style end-to-end driver.
//!
//! The authors integrated BIBS into **BITS**, their CAD test system, which
//! "reads in a circuit (in EDIF description) to be made BISTable,
//! reorganizes the circuit into a RTL description ..., systematically
//! explores the BISTable design space ..., generates an optimal test
//! schedule, designs low area and high fault coverage TPGs and SAs,
//! synthesizes a test controller, and finally exports the fully testable
//! circuit". This binary runs that flow on a circuit file — `.ckt`, or a
//! `.bench` carrying an `# rtl:` sidecar (the flow starts from RTL, so a
//! plain gate-level `.bench` is rejected):
//!
//! ```text
//! cargo run --release -p bibs-bench --bin bits -- circuits/mac.ckt
//! cargo run --release -p bibs-bench --bin bits -- circuits/c5a2m.bench
//! cargo run --release -p bibs-bench --bin bits -- circuits/fig4.ckt --tdm ka85
//! cargo run --release -p bibs-bench --bin bits -- circuits/mac.ckt --telemetry out.json
//! ```
//!
//! `--telemetry OUT.json` writes the span tree (schedule/verify stages
//! with their counters) as `bibs-telemetry/1` JSON;
//! `BIBS_TRACE=spans|counters` prints it to stderr.
//!
//! `--source random|lfsr|mintpg|weighted|replay:FILE` additionally
//! fault-simulates each kernel with the chosen pattern source under a
//! bounded budget and prints the coverage-vs-clocks estimate (detectable
//! faults reached, patterns emitted, hardware clock cycles). A source
//! that cannot drive a kernel (an LFSR past 64 inputs, a replay schedule
//! declared for another width) stops the flow with exit code 2.
//!
//! Flags may come before or after the circuit path. An unknown flag, a
//! flag without its value, a `--tdm` other than `bibs` or `ka85`, a
//! second circuit path or none is a usage error: one line on stderr, exit
//! code 2.

use bibs_bench::{kernel_fault_stats, SourceSpec, Table2Options, Telemetry};
use bibs_core::bibs::{self, BibsOptions};
use bibs_core::controller;
use bibs_core::delay::maximal_delay;
use bibs_core::design::{kernels, BilboDesign};
use bibs_core::ka85;
use bibs_core::mintpg::minimize_degree;
use bibs_core::schedule::schedule_traced;
use bibs_core::structure::GeneralizedStructure;
use bibs_core::tpg::mc_tpg;
use bibs_core::verify::verify_exhaustive_traced;
use bibs_lfsr::bilbo::AreaModel;
use bibs_lint::{lint_circuit, lint_design, LintConfig, Severity};
use bibs_obs::Recorder;
use bibs_rtl::{Circuit, VertexKind};
use std::process::ExitCode;

/// Prints a one-line usage error and exits with status 2.
fn usage_error(msg: impl std::fmt::Display) -> ! {
    eprintln!(
        "bits: {msg} (usage: bits <circuit.{{ckt,bench}}> [--tdm bibs|ka85] \
         [--source SPEC] [--telemetry out.json])"
    );
    std::process::exit(2);
}

/// The value after `flag`, or a usage error if there is none.
fn flag_value(flag: &str, args: &mut impl Iterator<Item = String>) -> String {
    args.next()
        .unwrap_or_else(|| usage_error(format!("{flag} needs a value")))
}

fn main() -> ExitCode {
    let mut path: Option<String> = None;
    let mut tdm = String::from("bibs");
    let mut source: Option<SourceSpec> = None;
    let mut telemetry_path: Option<std::path::PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--tdm" => {
                tdm = flag_value(&arg, &mut args);
                if !matches!(tdm.as_str(), "bibs" | "ka85") {
                    usage_error(format!("--tdm expects bibs or ka85 (got '{tdm}')"));
                }
            }
            "--source" => {
                let spec: SourceSpec = flag_value(&arg, &mut args)
                    .parse()
                    .unwrap_or_else(|e| usage_error(e));
                if let Err(e) = spec.preflight() {
                    usage_error(e);
                }
                source = Some(spec);
            }
            "--telemetry" => telemetry_path = Some(flag_value(&arg, &mut args).into()),
            flag if flag.starts_with("--") => usage_error(format!("unknown argument '{flag}'")),
            _ if path.is_some() => usage_error(format!("unexpected argument '{arg}'")),
            _ => path = Some(arg),
        }
    }
    let Some(path) = path else {
        usage_error("missing circuit path");
    };

    let loaded = match bibs_datapath::front::load_path(std::path::Path::new(&path)) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("bits: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Some(circuit) = loaded.circuit().cloned() else {
        eprintln!(
            "bits: {path} is a gate-level netlist with no register-transfer view; \
             the BITS flow starts from RTL (use a .ckt file, or a .bench carrying \
             an '# rtl:' sidecar)"
        );
        return ExitCode::FAILURE;
    };
    let telemetry = Telemetry::new(telemetry_path);
    let mut rec = telemetry.recorder("bits");
    let outcome = run(&circuit, &tdm, source.as_ref(), &mut rec);
    if let Err(e) = telemetry.emit(&mut rec) {
        eprintln!("bits: {e}");
        return ExitCode::FAILURE;
    }
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bits: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(
    circuit: &Circuit,
    tdm: &str,
    source: Option<&SourceSpec>,
    rec: &mut Recorder,
) -> Result<(), Box<dyn std::error::Error>> {
    println!("== BITS flow for circuit {} ==", circuit.name());
    println!(
        "{} vertices, {} register edges, {} flip-flops; balanced = {}, acyclic = {}",
        circuit.vertex_count(),
        circuit.register_edges().count(),
        circuit.total_register_bits(),
        circuit.is_balanced(),
        circuit.is_acyclic()
    );

    // 0. Static lint of the bare circuit (notes only: cycles and URFSes
    // here are what the selection exists to repair).
    let lint_cfg = LintConfig::new();
    let bare = lint_circuit(circuit, &lint_cfg);
    if !bare.diagnostics.is_empty() {
        println!("\nlint (bare circuit): {bare}");
    }
    if !bare.is_clean() {
        return Err("bare circuit fails lint; aborting before selection".into());
    }

    // 1. Register selection.
    let (circuit, design): (Circuit, BilboDesign) = match tdm {
        "ka85" => (circuit.clone(), ka85::select(circuit)?),
        _ => {
            let r = bibs::select(circuit, &BibsOptions::default())?;
            (r.circuit, r.design)
        }
    };

    // 1b. Static lint of the selected design — Definition 1, TPG and
    // cross-layer checks must all pass before any simulation is run.
    let selected = lint_design(&circuit, &design, &lint_cfg);
    if !selected.is_clean() {
        println!("\nlint (selected design):\n{selected}");
        return Err("selected design fails lint; refusing to simulate".into());
    }
    println!(
        "lint: design clean ({} note(s), {} warning(s))",
        selected.count(Severity::Allow),
        selected.count(Severity::Warn),
    );
    let names: Vec<String> = design
        .bilbo
        .iter()
        .chain(&design.cbilbo)
        .filter_map(|&e| circuit.edge(e).name.clone())
        .collect();
    println!(
        "\nselection ({tdm}): {} registers ({} flip-flops): {:?}",
        design.register_count(),
        design.flip_flop_count(&circuit),
        names
    );
    let model = AreaModel::default();
    println!(
        "area overhead: {:.1} gate equivalents; maximal delay: {:?} time units",
        design.area_overhead(&circuit, &model),
        maximal_delay(&circuit, &design)
    );

    // 2. Kernels and schedule.
    let ks: Vec<_> = kernels(&circuit, &design)
        .into_iter()
        .filter(|k| {
            k.vertices
                .iter()
                .any(|&v| circuit.vertex(v).kind == VertexKind::Logic)
        })
        .collect();
    let sessions = schedule_traced(&design, &ks, rec);
    println!(
        "\n{} kernel(s), {} test session(s)",
        ks.len(),
        sessions.len()
    );

    // 3. TPG per kernel (with the minimal-LFSR pass).
    let mut patterns = Vec::new();
    for (i, kernel) in ks.iter().enumerate() {
        let structure = GeneralizedStructure::from_kernel(&circuit, &design, kernel)?;
        let tpg = mc_tpg(&structure);
        let min = minimize_degree(&tpg, 100);
        println!(
            "kernel {i}: M = {} bits, depth {}, TPG degree {} (minimal {}), {} extra FFs, test time {} cycles",
            structure.total_width(),
            structure.sequential_depth(),
            tpg.lfsr_degree(),
            min.design.lfsr_degree(),
            min.design.extra_flip_flops(),
            min.design.test_time()
        );
        // Brute-force check of functional exhaustiveness where feasible.
        if min.design.lfsr_degree() <= 16 {
            let covs = verify_exhaustive_traced(&min.design, rec);
            let ok = covs.iter().all(|c| c.is_exhaustive_modulo_zero());
            println!(
                "  exhaustiveness: {} over {} cone(s)",
                if ok { "verified" } else { "FAILED" },
                covs.len()
            );
        }
        // The controller runs pseudo-random sessions; size them by the
        // kernel width (functionally exhaustive when feasible, else a
        // pseudo-random budget).
        let budget = if min.design.lfsr_degree() <= 20 {
            min.design.test_time() as u64
        } else {
            64 * structure.total_width() as u64
        };
        patterns.push(budget);
        // Optional coverage-vs-clocks estimate: fault-simulate the kernel
        // with the requested pattern source under a bounded budget.
        if let Some(spec) = source {
            let opts = Table2Options {
                max_patterns: 65_536,
                plateau: 65_536,
                backtrack_limit: 1_000,
                source: Some(spec.clone()),
                ..Table2Options::default()
            };
            let stats = rec
                .scope(format!("source-coverage[kernel {i}]"), |rec| {
                    kernel_fault_stats(&circuit, &design, kernel, &opts, rec)
                })
                .unwrap_or_else(|e| {
                    // A source that cannot drive the kernel is a usage
                    // error, like a malformed `--source`.
                    eprintln!("bits: {e}");
                    std::process::exit(2);
                });
            match &stats.source {
                Some(run) => println!(
                    "  source '{spec}': {}/{} detectable faults in {} patterns, {} clocks — {}",
                    stats.detected,
                    stats.detectable(),
                    run.emitted,
                    run.clocks,
                    run.descriptor_json
                ),
                None => println!(
                    "  source '{spec}': {}/{} detectable faults in {} patterns",
                    stats.detected,
                    stats.detectable(),
                    stats.detection_indices.last().map_or(0, |&p| p + 1)
                ),
            }
        }
    }

    // 4. Test controller.
    let ctrl = controller::synthesize(&circuit, &design, &ks, &sessions, &patterns);
    println!("\n{ctrl}");

    // 5. Export the testable design.
    println!("modified circuit (text export):");
    print!("{}", bibs_rtl::fmt::to_text(&circuit));
    println!("# BILBO registers: {names:?}");
    Ok(())
}
