//! The benchmark's command line.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload NAME] [--seed S] [--seconds T] [--trace 0|1] [--smoke] \
//!     [--repeat K] [--out FILE]
//! ```
//!
//! With `--workload` and no `--repeat`, runs that workload in this
//! process and prints a table, then the result as one JSON line. Without
//! `--workload` every workload runs, each in its own child process so
//! that `peak_rss_mb` belongs to it. `--repeat K` runs each workload K
//! times with seeds S, S+1, …, S+K−1 and prints each metric's median,
//! quartiles and relative IQR. The exit code is nonzero when any
//! output fails a check.

use bibs_benchmark::nproc;
use bibs_benchmark::run::{run, Config};
use bibs_benchmark::stats::quartiles;
use bibs_benchmark::workload::{self, Workload, JOBS};
use bibs_obs::json;
use std::path::{Path, PathBuf};
use std::process::{exit, Command, Stdio};

const USAGE: &str = "usage: bibs-benchmark [--workload table2|ka85-kernels|topoff|tpg-stream] \
                     [--seed S] [--seconds T] [--trace 0|1] [--smoke] [--repeat K] [--out FILE]";

struct Args {
    workload: Option<Workload>,
    config: Config,
    repeat: Option<u64>,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        config: Config {
            seed: 1,
            seconds: 20.0,
            trace: false,
            smoke: false,
        },
        repeat: None,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.config.smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} expects {what} (got '{value}')");
        match flag.as_str() {
            "--workload" => {
                args.workload =
                    Some(workload::by_name(&value).ok_or_else(|| bad("a workload name"))?);
            }
            "--seed" => args.config.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                args.config.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("a number of seconds"))?;
            }
            "--trace" => {
                args.config.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--repeat" => {
                args.repeat = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|&k| k >= 2)
                        .ok_or_else(|| bad("a count of at least 2"))?,
                );
            }
            "--out" => args.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    Ok(args)
}

/// One run's record for `--out`: its context and its result line.
fn record(workload: &str, config: &Config, result: &str) -> String {
    let nproc = nproc();
    format!(
        "{{\"workload\": \"{workload}\", \"seed\": {}, \"trace\": {}, \"smoke\": {}, \
         \"nproc\": {nproc}, \"jobs\": {JOBS}, \"result\": {result}}}",
        config.seed, config.trace as u8, config.smoke
    )
}

fn write_out(path: Option<&Path>, records: &[String]) {
    if let Some(path) = path {
        let text = format!("{{\"runs\": [\n{}\n]}}\n", records.join(",\n"));
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("cannot write {}: {e}", path.display());
            exit(2);
        }
    }
}

/// Runs `workload` with `config` in a child process; returns whether it
/// succeeded and its result line.
fn run_child(workload: &str, config: &Config) -> (bool, Option<String>) {
    let exe = std::env::current_exe().unwrap_or_else(|e| {
        eprintln!("cannot locate this executable: {e}");
        exit(2);
    });
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &config.seed.to_string()])
        .args(["--seconds", &config.seconds.to_string()])
        .args(["--trace", if config.trace { "1" } else { "0" }])
        .stderr(Stdio::inherit());
    if config.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().unwrap_or_else(|e| {
        eprintln!("cannot run the {workload} child: {e}");
        exit(2);
    });
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let line = stdout
        .lines()
        .last()
        .filter(|l| l.starts_with('{'))
        .map(str::to_string);
    (output.status.success(), line)
}

/// Prints each metric's quartiles, median, relative IQR and three times
/// that (the least bound it stays below a third of) over the result
/// lines of repeated runs.
fn summarize(workload: &str, lines: &[String]) {
    let parsed: Vec<json::Value> = lines.iter().filter_map(|l| json::parse(l).ok()).collect();
    let Some(first) = parsed.first() else { return };
    let names = first
        .get("metrics")
        .and_then(json::Value::as_object)
        .map(|m| m.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>())
        .unwrap_or_default();
    println!(
        "# {workload}: {} runs\n{:<28} {:>14} {:>14} {:>14} {:>9} {:>9}",
        parsed.len(),
        "metric",
        "q1",
        "median",
        "q3",
        "iqr/med",
        "3*iqr"
    );
    for name in names {
        let values: Vec<f64> = parsed
            .iter()
            .filter_map(|p| p.get("metrics")?.get(&name)?.get("value")?.as_f64())
            .collect();
        if values.len() < 2 {
            continue;
        }
        let [q1, med, q3] = quartiles(&values);
        let spread = if med != 0.0 {
            (q3 - q1) / med.abs()
        } else {
            0.0
        };
        println!(
            "{name:<28} {q1:>14.4} {med:>14.4} {q3:>14.4} {spread:>9.4} {:>9.4}",
            3.0 * spread
        );
    }
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        exit(2);
    });
    let config = &args.config;

    if let (Some(workload), None) = (&args.workload, args.repeat) {
        let outcome = run(workload, config).unwrap_or_else(|e| {
            eprintln!("{}: {e}", workload.name);
            exit(2);
        });
        let line = outcome.json();
        print!("{}", outcome.table());
        println!("{line}");
        write_out(args.out.as_deref(), &[record(workload.name, config, &line)]);
        exit(if outcome.failed.is_empty() { 0 } else { 1 });
    }

    let workloads = match args.workload {
        Some(w) => vec![w],
        None => workload::all(),
    };
    let mut ok = true;
    let mut records = Vec::new();
    for w in &workloads {
        let mut lines = Vec::new();
        for r in 0..args.repeat.unwrap_or(1) {
            let config = Config {
                seed: config.seed.wrapping_add(r),
                ..config.clone()
            };
            let (success, line) = run_child(w.name, &config);
            ok &= success && line.is_some();
            if let Some(line) = line {
                records.push(record(w.name, &config, &line));
                lines.push(line);
            }
        }
        if args.repeat.is_some() {
            summarize(w.name, &lines);
        }
    }
    write_out(args.out.as_deref(), &records);
    exit(if ok { 0 } else { 1 });
}
