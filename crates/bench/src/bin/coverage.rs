//! Fault-coverage convergence curves — the data behind Table 2's rows
//! 5–8, emitted as CSV series (patterns vs. cumulative coverage of
//! detectable faults) for BIBS and \[3\] on one circuit.
//!
//! Run with `cargo run --release -p bibs-bench --bin coverage --
//! [circuit] [width] [--source random|lfsr|mintpg|weighted|replay:FILE]
//! [--telemetry OUT.json]`
//! (defaults: c5a2m, width 4). `circuit` is a built-in name
//! (`c5a2m`, `c3a2m`, `c4a4m`) or a circuit file — `.ckt`, or `.bench`
//! with an `# rtl:` sidecar; `width`, a positive integer, applies to
//! built-ins only. An unknown name, a bad width or an unknown flag is a
//! usage error (exit 2). Pipe to
//! a file and plot. `--source` swaps the per-kernel pattern stream for a
//! hardware-faithful source (the curve's x-axis stays pattern counts;
//! the per-kernel clock budget goes to stderr); a source that cannot
//! drive a kernel (an LFSR past 64 inputs, a replay schedule recorded for
//! another width) is a usage error too. Per-kernel engine stats go to
//! stderr; `BIBS_TRACE=spans|counters` prints the telemetry tree or
//! aggregate counters to stderr, among them how many faults the
//! observability split left to simulate (`universe_faults` on each
//! `analyze` span, `simulated_faults` on each kernel's) and the
//! `compile` and `analyze` walls.

use bibs_bench::{apply_tdm, kernel_fault_stats, SourceSpec, Table2Options, Tdm, Telemetry};
use bibs_datapath::filters::try_scaled;

/// Prints a one-line usage error and exits with status 2.
fn usage_error(msg: impl std::fmt::Display) -> ! {
    eprintln!("coverage: {msg} (usage: coverage [CIRCUIT] [WIDTH] [OPTIONS])");
    std::process::exit(2);
}

fn main() {
    let mut positional: Vec<String> = Vec::new();
    let mut source: Option<SourceSpec> = None;
    let mut telemetry_path: Option<std::path::PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--source" {
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
        } else if arg == "--telemetry" {
            telemetry_path = Some(std::path::PathBuf::from(args.next().unwrap_or_else(|| {
                eprintln!("--telemetry needs an output path");
                std::process::exit(2);
            })));
        } else if arg.starts_with("--") || positional.len() == 2 {
            usage_error(format!("unknown argument '{arg}'"));
        } else {
            positional.push(arg);
        }
    }
    let name = positional.first().map(String::as_str).unwrap_or("c5a2m");
    let width: u32 = match positional.get(1) {
        None => 4,
        Some(w) => w
            .parse()
            .unwrap_or_else(|_| usage_error(format!("bad width '{w}'"))),
    };
    // A path to an existing file loads through the format front door (and
    // must carry an RTL view for the TDM comparison); anything else names
    // a built-in datapath.
    let circuit = if std::path::Path::new(name).exists() {
        let loaded =
            bibs_datapath::front::load_path(std::path::Path::new(name)).unwrap_or_else(|e| {
                eprintln!("coverage: {e}");
                std::process::exit(2);
            });
        loaded.circuit().cloned().unwrap_or_else(|| {
            eprintln!(
                "coverage: {name} is a gate-level netlist with no register-transfer \
                 view; the TDM comparison needs RTL (use a .ckt file, or a .bench \
                 carrying an '# rtl:' sidecar)"
            );
            std::process::exit(2);
        })
    } else {
        try_scaled(name, width).unwrap_or_else(|e| usage_error(e))
    };
    let options = Table2Options {
        source,
        ..Table2Options::default()
    };

    let telemetry = Telemetry::new(telemetry_path);
    let mut rec = telemetry.recorder("coverage");

    println!("tdm,patterns,detected,detectable,coverage");
    for tdm in [Tdm::Bibs, Tdm::Ka85] {
        let (circuit, design, kernels) = apply_tdm(&circuit, tdm);
        // Merge all kernels' detection events on a common sequential
        // pattern axis (kernels tested one after another).
        let mut events: Vec<u64> = Vec::new();
        let mut offset = 0u64;
        let mut detectable = 0usize;
        for (i, kernel) in kernels.iter().enumerate() {
            let stats = rec
                .scope(format!("kernel {i}[{tdm}]"), |rec| {
                    kernel_fault_stats(&circuit, &design, kernel, &options, rec)
                })
                .unwrap_or_else(|e| {
                    eprintln!("coverage: {e}");
                    std::process::exit(2);
                });
            eprintln!("{tdm} kernel sim: {}", stats.sim);
            if let Some(run) = &stats.source {
                eprintln!(
                    "{tdm} kernel source: {} ({} patterns, {} clocks)",
                    run.descriptor_json, run.emitted, run.clocks
                );
            }
            detectable += stats.detectable();
            let last = stats.detection_indices.last().copied().unwrap_or(0);
            events.extend(stats.detection_indices.iter().map(|&i| offset + i));
            offset += last + 1;
        }
        events.sort_unstable();
        // Emit ~50 evenly spaced milestones plus the exact tail.
        let n = events.len();
        let mut printed = 0usize;
        for (i, &p) in events.iter().enumerate() {
            let is_milestone = i % (n / 50 + 1) == 0 || i + 10 >= n;
            if is_milestone {
                println!(
                    "{tdm},{},{},{},{:.5}",
                    p + 1,
                    i + 1,
                    detectable,
                    (i + 1) as f64 / detectable as f64
                );
                printed += 1;
            }
        }
        eprintln!("{tdm}: {printed} milestones, {n} detections, {detectable} detectable");
    }
    if let Err(e) = telemetry.emit(&mut rec) {
        eprintln!("coverage: {e}");
        std::process::exit(1);
    }
}
