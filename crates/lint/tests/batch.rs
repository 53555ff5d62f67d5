//! End-to-end tests of the `bibs-lint` binary: its usage text, the
//! exit-code matrix, inline suppressions, baselines and SARIF output, all
//! through the real executable.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_bibs-lint"))
}

fn run(args: &[&str]) -> Output {
    bin().args(args).output().expect("bibs-lint runs")
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

fn stderr(o: &Output) -> String {
    String::from_utf8_lossy(&o.stderr).into_owned()
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bibs_lint_cli_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write_mixed_fixtures(dir: &Path) {
    std::fs::write(
        dir.join("clean.bench"),
        "INPUT(a)\nINPUT(b)\ns = XOR(a, b)\nOUTPUT(s)\n",
    )
    .unwrap();
    std::fs::write(
        dir.join("uninit.bench"),
        "INPUT(x)\nOUTPUT(y)\nnq = NOT(q)\nq = DFF(nq)\ny = OR(q, x)\n",
    )
    .unwrap();
    std::fs::write(
        dir.join("stuck.bench"),
        "INPUT(x)\nz = TIE0()\nq = DFF(z)\ny = OR(q, x)\nOUTPUT(y)\n",
    )
    .unwrap();
}

#[test]
fn help_keeps_the_option_indentation() {
    let help = run(&["--help"]);
    assert_eq!(help.status.code(), Some(0));
    assert!(
        stderr(&help)
            .lines()
            .any(|line| line.starts_with("  --batch DIR|GLOB ")),
        "{}",
        stderr(&help)
    );
}

#[test]
fn jobs_is_an_unknown_option() {
    let dir = scratch_dir("jobs");
    write_mixed_fixtures(&dir);
    let out = run(&["--batch", dir.to_str().unwrap(), "--jobs", "2"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown option"), "{}", stderr(&out));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn exit_code_matrix() {
    let dir = scratch_dir("exits");
    write_mixed_fixtures(&dir);
    // 0: clean target.
    let ok = run(&[dir.join("clean.bench").to_str().unwrap()]);
    assert_eq!(ok.status.code(), Some(0), "{}", stderr(&ok));
    // 1: deny-level finding (B050 denies by default).
    let deny = run(&[dir.join("uninit.bench").to_str().unwrap()]);
    assert_eq!(deny.status.code(), Some(1));
    assert!(stdout(&deny).contains("B050"), "{}", stdout(&deny));
    // 1: warn promoted by --deny warnings.
    let warn = run(&[dir.join("stuck.bench").to_str().unwrap()]);
    assert_eq!(warn.status.code(), Some(0), "B052 warns by default");
    let promoted = run(&[
        "--deny",
        "warnings",
        dir.join("stuck.bench").to_str().unwrap(),
    ]);
    assert_eq!(promoted.status.code(), Some(1));
    // 2: unreadable target, diagnostics on stderr only.
    let missing = run(&[dir.join("missing.bench").to_str().unwrap()]);
    assert_eq!(missing.status.code(), Some(2));
    assert!(stderr(&missing).contains("cannot read"));
    // 2: usage errors.
    assert_eq!(run(&["--format", "yaml"]).status.code(), Some(2));
    assert_eq!(run(&["--no-such-flag"]).status.code(), Some(2));
    assert_eq!(run(&["--batch"]).status.code(), Some(2));
    let empty = scratch_dir("empty");
    assert_eq!(
        run(&["--batch", empty.to_str().unwrap()]).status.code(),
        Some(2),
        "an empty batch must not pass as clean"
    );
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&empty).unwrap();
}

#[test]
fn inline_suppressions_demote_and_unused_ones_warn() {
    let dir = scratch_dir("supp");
    std::fs::write(
        dir.join("acked.bench"),
        "# bibs-lint: allow(B052)\nINPUT(x)\nz = TIE0()\nq = DFF(z)\n\
         y = OR(q, x)\nOUTPUT(y)\n",
    )
    .unwrap();
    let out = run(&[
        "--deny",
        "warnings",
        dir.join("acked.bench").to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stdout(&out));
    assert!(stdout(&out).contains("suppressed"), "{}", stdout(&out));

    std::fs::write(
        dir.join("stale.bench"),
        "# bibs-lint: allow(B052)\nINPUT(a)\nINPUT(b)\ns = AND(a, b)\nOUTPUT(s)\n",
    )
    .unwrap();
    let out = run(&[dir.join("stale.bench").to_str().unwrap()]);
    assert!(
        stdout(&out).contains("B059"),
        "unused suppression must warn: {}",
        stdout(&out)
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn baseline_round_trip_gates_clean() {
    let dir = scratch_dir("base");
    write_mixed_fixtures(&dir);
    let dir_arg = dir.to_string_lossy().into_owned();
    let base = dir.join("baseline.json");
    let base_arg = base.to_string_lossy().into_owned();
    // Without a baseline the batch fails on uninit.bench.
    assert_eq!(run(&["--batch", &dir_arg]).status.code(), Some(1));
    // Record the current findings, then the same batch gates clean.
    let wrote = run(&["--batch", &dir_arg, "--write-baseline", &base_arg]);
    assert_eq!(wrote.status.code(), Some(1), "writing does not absolve");
    let gated = run(&["--batch", &dir_arg, "--baseline", &base_arg]);
    assert_eq!(gated.status.code(), Some(0), "{}", stderr(&gated));
    // A corrupt baseline is a usage error.
    std::fs::write(&base, "not a baseline").unwrap();
    assert_eq!(
        run(&["--batch", &dir_arg, "--baseline", &base_arg])
            .status
            .code(),
        Some(2)
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn sarif_output_validates_and_json_carries_the_v2_schema() {
    let dir = scratch_dir("sarif");
    write_mixed_fixtures(&dir);
    let dir_arg = dir.to_string_lossy().into_owned();
    let sarif = run(&["--batch", &dir_arg, "--format", "sarif"]);
    let log = dir.join("lint.sarif");
    std::fs::write(&log, stdout(&sarif)).unwrap();
    let checked = run(&["--check-sarif", log.to_str().unwrap()]);
    assert_eq!(checked.status.code(), Some(0), "{}", stderr(&checked));

    let json = run(&["--batch", &dir_arg, "--format", "json"]);
    let text = stdout(&json);
    assert!(text.contains("\"schema\":\"bibs-lint/2\""), "{text}");
    assert!(text.contains("\"fingerprint\":\""), "{text}");
    assert!(text.contains("\"origin\":"), "{text}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn shipped_bad_fixture_trips_b050_under_deny_warnings() {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../circuits/bad_uninit_dff.bench");
    let out = run(&["--deny", "warnings", fixture.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stdout(&out).contains("B050"), "{}", stdout(&out));
}

#[test]
fn telemetry_records_per_file_spans() {
    let dir = scratch_dir("telem");
    write_mixed_fixtures(&dir);
    let telem = dir.join("spans.json");
    let out = run(&[
        "--batch",
        dir.to_str().unwrap(),
        "--telemetry",
        telem.to_str().unwrap(),
    ]);
    assert!(out.status.code().is_some());
    let json = std::fs::read_to_string(&telem).unwrap();
    assert!(json.contains("lint_findings"), "{json}");
    assert!(json.contains("clean.bench"), "{json}");
    std::fs::remove_dir_all(&dir).unwrap();
}
