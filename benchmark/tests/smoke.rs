//! Runs the benchmark binary end to end and checks its result lines
//! against the metrics and workloads `BENCHMARK.json` declares.

use bibs_benchmark::workload;
use bibs_obs::json::{self, Value};
use std::process::Command;
use std::time::{Duration, Instant};

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark crate");
    json::parse(&text).expect("BENCHMARK.json parses")
}

/// (name, unit) of every entry in one of `BENCHMARK.json`'s lists.
fn declared(key: &str) -> Vec<(String, String)> {
    let doc = benchmark_json();
    let list = doc
        .get(key)
        .and_then(Value::as_array)
        .expect("a metric list");
    list.iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Value::as_str).expect(f).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs the benchmark; returns its success, result lines and wall time.
fn run(args: &[&str]) -> (bool, Vec<Value>, Duration) {
    let start = Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_bibs-benchmark"))
        .args(args)
        .output()
        .expect("the benchmark binary runs");
    let lines = String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter(|l| l.starts_with('{'))
        .map(|l| json::parse(l).expect("result lines are JSON"))
        .collect();
    (out.status.success(), lines, start.elapsed())
}

/// Checks a result line is correct and reports exactly `metrics`.
fn check_result(line: &Value, metrics: &[(String, String)]) {
    assert_eq!(line.get("correct"), Some(&Value::Bool(true)), "{line:?}");
    assert_eq!(line.get("failed").and_then(Value::as_u64), Some(0));
    assert!(line.get("attempted").and_then(Value::as_u64) >= Some(1));
    let emitted: Vec<(String, String)> = line
        .get("metrics")
        .and_then(Value::as_object)
        .expect("a metrics object")
        .iter()
        .map(|(name, m)| {
            let unit = m.get("unit").and_then(Value::as_str).expect("a unit");
            assert!(m.get("value").and_then(Value::as_f64).is_some(), "{name}");
            (name.clone(), unit.to_string())
        })
        .collect();
    assert_eq!(emitted, metrics);
}

#[test]
fn smoke_run_is_quick_correct_and_reports_the_end_to_end_metrics() {
    let (ok, lines, elapsed) = run(&["--smoke"]);
    assert!(ok, "the smoke run exits 0");
    assert!(elapsed < Duration::from_secs(30), "took {elapsed:?}");
    assert_eq!(
        lines.len(),
        workload::all().len(),
        "one result per workload"
    );
    let metrics = declared("end_to_end");
    for line in &lines {
        check_result(line, &metrics);
    }
}

#[test]
fn traced_smoke_run_reports_the_per_layer_metrics() {
    let (ok, lines, _) = run(&["--smoke", "--trace", "1", "--workload", "tpg-stream"]);
    assert!(ok, "the traced smoke run exits 0");
    check_result(lines.last().expect("a result line"), &declared("per_layer"));
}

#[test]
fn declared_workloads_are_the_built_in_ones() {
    let doc = benchmark_json();
    let names: Vec<&str> = doc
        .get("workloads")
        .and_then(Value::as_array)
        .expect("a workload list")
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("a name"))
        .collect();
    let built_in: Vec<&str> = workload::all().iter().map(|w| w.name).collect();
    assert_eq!(names, built_in);
}
