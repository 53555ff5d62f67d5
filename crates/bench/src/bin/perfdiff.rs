//! Telemetry regression gate: diffs a fresh `bibs-telemetry/1` export
//! against a committed baseline.
//!
//! ```text
//! cargo run --release -p bibs-bench --bin table2 -- 4 --telemetry /tmp/fresh.json
//! cargo run --release -p bibs-bench --bin perfdiff -- BENCH_table2.json /tmp/fresh.json
//! ```
//!
//! The comparison has two tiers:
//!
//! * **Hard equality** on everything detection-deterministic: the schema
//!   string, the span-tree shape (labels, child order) and every exported
//!   counter value. These are bit-identical from run to run by
//!   construction, so *any* drift is a behavioural regression and fails
//!   the gate.
//! * **Tolerance** on wall clocks: a span whose baseline wall is at least
//!   `--min-wall-ms` (default 50) may grow up to `--tolerance`×
//!   (default 5.0) before the gate fails. Wall times are the only
//!   machine-dependent content, so the band is wide; the gate catches
//!   order-of-magnitude throughput collapses, not percent-level noise.
//!
//! Exit codes: 0 clean, 1 regression found, 2 usage/IO/parse error.

use bibs_obs::json::{self, Value};
use std::process::ExitCode;

const SCHEMA: &str = "bibs-telemetry/1";

fn main() -> ExitCode {
    let mut tolerance = 5.0f64;
    let mut min_wall_ms = 50.0f64;
    let mut paths: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--tolerance" => match args.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(t) if t >= 1.0 => tolerance = t,
                _ => return usage("--tolerance needs a factor >= 1.0"),
            },
            "--min-wall-ms" => match args.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(m) if m >= 0.0 => min_wall_ms = m,
                _ => return usage("--min-wall-ms needs a non-negative number"),
            },
            _ => paths.push(arg),
        }
    }
    let [baseline_path, fresh_path] = paths.as_slice() else {
        return usage("expected exactly two positional arguments");
    };
    let baseline = match load(baseline_path) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("perfdiff: {baseline_path}: {e}");
            return ExitCode::from(2);
        }
    };
    let fresh = match load(fresh_path) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("perfdiff: {fresh_path}: {e}");
            return ExitCode::from(2);
        }
    };

    let mut diff = Diff {
        tolerance,
        min_wall_ns: min_wall_ms * 1e6,
        ..Diff::default()
    };
    diff.compare(&baseline, &fresh, "root");
    println!(
        "perfdiff: {} span(s), {} counter(s), {} wall check(s) compared \
         (tolerance {tolerance}x over {min_wall_ms} ms)",
        diff.spans, diff.counters, diff.wall_checks
    );
    if diff.failures.is_empty() {
        println!("perfdiff: OK — fresh telemetry matches the baseline");
        ExitCode::SUCCESS
    } else {
        for f in &diff.failures {
            println!("perfdiff: FAIL {f}");
        }
        println!("perfdiff: {} regression(s)", diff.failures.len());
        ExitCode::FAILURE
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfdiff: {msg}");
    eprintln!("usage: perfdiff <baseline.json> <fresh.json> [--tolerance F] [--min-wall-ms N]");
    ExitCode::from(2)
}

/// Reads a telemetry file, checks its schema tag, and returns the root
/// span object.
fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let doc = json::parse(&text).map_err(|e| e.to_string())?;
    match doc.get("schema").and_then(Value::as_str) {
        Some(SCHEMA) => {}
        Some(other) => return Err(format!("schema is '{other}', expected '{SCHEMA}'")),
        None => return Err(format!("missing 'schema' key (expected '{SCHEMA}')")),
    }
    doc.get("root")
        .cloned()
        .ok_or_else(|| "missing 'root' span".to_string())
}

#[derive(Default)]
struct Diff {
    tolerance: f64,
    min_wall_ns: f64,
    spans: usize,
    counters: usize,
    wall_checks: usize,
    failures: Vec<String>,
}

impl Diff {
    fn compare(&mut self, baseline: &Value, fresh: &Value, path: &str) {
        self.spans += 1;
        let b_label = baseline.get("label").and_then(Value::as_str).unwrap_or("");
        let f_label = fresh.get("label").and_then(Value::as_str).unwrap_or("");
        if b_label != f_label {
            self.failures.push(format!(
                "{path}: label changed: baseline '{b_label}', fresh '{f_label}'"
            ));
            return; // Children of a renamed span would only produce noise.
        }

        self.compare_counters(baseline, fresh, path);
        self.compare_wall(baseline, fresh, path);

        let empty: &[Value] = &[];
        let b_kids = baseline
            .get("children")
            .and_then(Value::as_array)
            .unwrap_or(empty);
        let f_kids = fresh
            .get("children")
            .and_then(Value::as_array)
            .unwrap_or(empty);
        if b_kids.len() != f_kids.len() {
            self.failures.push(format!(
                "{path}: child count changed: baseline {}, fresh {}",
                b_kids.len(),
                f_kids.len()
            ));
            return;
        }
        for (i, (b, f)) in b_kids.iter().zip(f_kids).enumerate() {
            let label = b.get("label").and_then(Value::as_str).unwrap_or("?");
            self.compare(b, f, &format!("{path}/{i}:{label}"));
        }
    }

    /// Hard equality on the deterministic counter maps: same keys, same
    /// values, both directions.
    fn compare_counters(&mut self, baseline: &Value, fresh: &Value, path: &str) {
        let empty: &[(String, Value)] = &[];
        let b = baseline
            .get("counters")
            .and_then(Value::as_object)
            .unwrap_or(empty);
        let f = fresh
            .get("counters")
            .and_then(Value::as_object)
            .unwrap_or(empty);
        for (key, bv) in b {
            self.counters += 1;
            match f.iter().find(|(k, _)| k == key) {
                None => self
                    .failures
                    .push(format!("{path}: counter '{key}' missing from fresh run")),
                Some((_, fv)) if fv.as_u64() != bv.as_u64() => self.failures.push(format!(
                    "{path}: counter '{key}' changed: baseline {:?}, fresh {:?}",
                    bv.as_u64(),
                    fv.as_u64()
                )),
                Some(_) => {}
            }
        }
        for (key, _) in f {
            if !b.iter().any(|(k, _)| k == key) {
                self.failures.push(format!(
                    "{path}: counter '{key}' appeared in fresh run but not in baseline"
                ));
            }
        }
    }

    /// Banded wall-clock check: only spans whose baseline wall clears the
    /// floor are compared, and only slowdowns beyond the tolerance fail.
    fn compare_wall(&mut self, baseline: &Value, fresh: &Value, path: &str) {
        let (Some(b), Some(f)) = (
            baseline.get("wall_ns").and_then(Value::as_f64),
            fresh.get("wall_ns").and_then(Value::as_f64),
        ) else {
            return; // Baseline or fresh exported without wall clocks.
        };
        if b < self.min_wall_ns {
            return;
        }
        self.wall_checks += 1;
        if f > b * self.tolerance {
            self.failures.push(format!(
                "{path}: wall regression: baseline {:.1} ms, fresh {:.1} ms ({:.1}x > {:.1}x)",
                b / 1e6,
                f / 1e6,
                f / b,
                self.tolerance
            ));
        }
    }
}
