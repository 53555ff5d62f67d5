//! Command-line front end for the `bibs-lint` static analyses.
//!
//! ```text
//! bibs-lint                          # lint the four paper datapaths
//! bibs-lint c5a2m circuits/mac.ckt   # builtins and circuit files mix freely
//! bibs-lint circuits/c5a2m.bench     # .bench netlists too (gate-level
//!                                    # passes; full RTL via # rtl: sidecar)
//! bibs-lint --batch corpus/          # lint every .ckt/.bench/.v under a
//!                                    # directory (recursive)
//! bibs-lint --batch 'corpus/*.bench' # or by a final-component glob
//! bibs-lint --deny warnings ...      # CI gate: warnings fail the run
//! bibs-lint --semantic ...           # add the B04x semantic passes
//! bibs-lint --format json ...        # machine-readable findings (v2)
//! bibs-lint --format sarif ...       # SARIF 2.1.0 log on stdout
//! bibs-lint --baseline FILE ...      # demote baselined findings to allow
//! bibs-lint --write-baseline FILE .. # record current findings as baseline
//! bibs-lint --check-sarif FILE       # validate a SARIF log and exit
//! bibs-lint --allow B012 ...         # per-code severity overrides
//! bibs-lint --list-codes             # print the code registry
//! ```
//!
//! Diagnostics (text, JSON, SARIF) go to **stdout**; errors (unreadable
//! files, bad flags, malformed baselines) go to **stderr**.
//!
//! Exit-code matrix:
//!
//! | code | meaning                                                    |
//! |------|------------------------------------------------------------|
//! | 0    | every target linted, no deny-level finding                 |
//! | 1    | at least one deny-level finding (after overrides, `--deny  |
//! |      | warnings` promotion, suppressions and baseline application) |
//! | 2    | usage error, unreadable target/baseline, or empty batch    |
//!
//! Batch output depends only on the files: targets are sorted and linted
//! in that order, and every report is normalized before rendering.

use bibs_lint::batch::{collect_targets, lint_paths, lint_text, record_batch, BatchOutcome};
use bibs_lint::fingerprint::fingerprint;
use bibs_lint::{
    apply_baseline, check_sarif, lint_full, parse_baseline, to_sarif, write_baseline, LintConfig,
    Report, Severity, CODES,
};
use std::path::PathBuf;
use std::process::ExitCode;

/// Builtin circuit names resolvable without a file.
const BUILTINS: &[&str] = &["c5a2m", "c3a2m", "c4a4m", "fig9"];

#[derive(Clone, Copy, PartialEq)]
enum Format {
    Text,
    Json,
    Sarif,
}

fn usage() {
    eprintln!(
        "\
usage: bibs-lint [options] [target...]

targets: builtin circuit names ({}), .ckt file paths, .bench
netlist paths, or .v Verilog paths; default: all builtins

options:
  --batch DIR|GLOB     lint every .ckt/.bench/.v under a directory
                       (recursive) or matching a final-component
                       glob; may be repeated
  --format text|json|sarif
                       output style (default text); json carries
                       the \"bibs-lint/2\" schema, sarif is a
                       SARIF 2.1.0 log
  --baseline FILE      demote findings fingerprinted in FILE to
                       allow severity
  --write-baseline FILE
                       record the run's warn+deny findings to FILE
                       and continue
  --check-sarif FILE   validate FILE against the vendored minimal
                       SARIF schema and exit (0 ok, 1 invalid)
  --telemetry FILE     write per-file lint spans as telemetry JSON
  --semantic           also run the semantic passes (B04x)
  --deny warnings      promote warn-level findings to deny
  --deny CODE          force CODE to deny severity
  --warn CODE          force CODE to warn severity
  --allow CODE         force CODE to allow severity
  --list-codes         print the diagnostic code registry and exit

exit codes: 0 clean, 1 deny-level findings, 2 usage/read errors",
        BUILTINS.join(", ")
    );
}

fn builtin(name: &str) -> Option<bibs_rtl::Circuit> {
    match name {
        "c5a2m" => Some(bibs_datapath::filters::c5a2m()),
        "c3a2m" => Some(bibs_datapath::filters::c3a2m()),
        "c4a4m" => Some(bibs_datapath::filters::c4a4m()),
        "fig9" => Some(bibs_datapath::fig9::figure9()),
        _ => None,
    }
}

/// Renders one target's entry of the `bibs-lint/2` JSON document.
fn target_json(target: &str, report: &Report) -> String {
    let mut out = String::new();
    let s = |v: &str| {
        let mut buf = String::new();
        bibs_obs::json::write_string(&mut buf, v);
        buf
    };
    out.push_str(&format!(
        "{{\"target\":{},\"clean\":{},\"diagnostics\":[",
        s(target),
        report.is_clean()
    ));
    for (i, d) in report.diagnostics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"code\":{},\"severity\":{},\"origin\":{},\"message\":{},\"witness\":{},\
             \"fingerprint\":\"{:016x}\"}}",
            s(d.code),
            s(&d.severity.to_string()),
            s(&d.origin),
            s(&d.message),
            s(&d.witness),
            fingerprint(d)
        ));
    }
    out.push_str("]}");
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut config = LintConfig::new();
    let mut format = Format::Text;
    let mut targets: Vec<String> = Vec::new();
    let mut batch_patterns: Vec<String> = Vec::new();
    let mut baseline_path: Option<String> = None;
    let mut write_baseline_path: Option<String> = None;
    let mut telemetry_path: Option<String> = None;

    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        match arg {
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            "--list-codes" => {
                for c in CODES {
                    println!("{}  {:5}  {}", c.code, c.default_severity, c.summary);
                }
                return ExitCode::SUCCESS;
            }
            "--semantic" => config.semantic = true,
            "--check-sarif" => {
                i += 1;
                let Some(path) = args.get(i) else {
                    eprintln!("bibs-lint: --check-sarif needs a file argument");
                    return ExitCode::from(2);
                };
                return match std::fs::read_to_string(path) {
                    Ok(text) => match check_sarif(&text) {
                        Ok(()) => {
                            println!("{path}: valid SARIF 2.1.0 (minimal schema)");
                            ExitCode::SUCCESS
                        }
                        Err(e) => {
                            eprintln!("bibs-lint: {path}: {e}");
                            ExitCode::FAILURE
                        }
                    },
                    Err(e) => {
                        eprintln!("bibs-lint: cannot read {path}: {e}");
                        ExitCode::from(2)
                    }
                };
            }
            "--batch" | "--baseline" | "--write-baseline" | "--telemetry" | "--format" => {
                i += 1;
                let Some(value) = args.get(i).cloned() else {
                    eprintln!("bibs-lint: {arg} needs an argument");
                    return ExitCode::from(2);
                };
                match arg {
                    "--batch" => batch_patterns.push(value),
                    "--baseline" => baseline_path = Some(value),
                    "--write-baseline" => write_baseline_path = Some(value),
                    "--telemetry" => telemetry_path = Some(value),
                    _ => match value.as_str() {
                        "text" => format = Format::Text,
                        "json" => format = Format::Json,
                        "sarif" => format = Format::Sarif,
                        other => {
                            eprintln!("bibs-lint: bad --format {other:?}");
                            return ExitCode::from(2);
                        }
                    },
                }
            }
            "--deny" | "--warn" | "--allow" => {
                i += 1;
                let Some(code) = args.get(i) else {
                    eprintln!("bibs-lint: {arg} needs an argument");
                    return ExitCode::from(2);
                };
                if arg == "--deny" && code == "warnings" {
                    config.deny_warnings = true;
                } else if bibs_lint::code_info(code).is_some() {
                    let sev = match arg {
                        "--deny" => Severity::Deny,
                        "--warn" => Severity::Warn,
                        _ => Severity::Allow,
                    };
                    config.set(code, sev);
                } else {
                    eprintln!("bibs-lint: unknown code {code:?} (see --list-codes)");
                    return ExitCode::from(2);
                }
            }
            _ if arg.starts_with('-') => {
                eprintln!("bibs-lint: unknown option {arg:?}");
                usage();
                return ExitCode::from(2);
            }
            _ => targets.push(arg.to_string()),
        }
        i += 1;
    }
    if targets.is_empty() && batch_patterns.is_empty() {
        targets = BUILTINS.iter().map(|s| s.to_string()).collect();
    }

    let baseline = match &baseline_path {
        Some(path) => match std::fs::read_to_string(path).map_err(|e| e.to_string()) {
            Ok(text) => match parse_baseline(&text) {
                Ok(fps) => Some(fps),
                Err(e) => {
                    eprintln!("bibs-lint: {path}: {e}");
                    return ExitCode::from(2);
                }
            },
            Err(e) => {
                eprintln!("bibs-lint: cannot read {path}: {e}");
                return ExitCode::from(2);
            }
        },
        None => None,
    };

    // Collect every outcome: explicit targets in argument order, then each
    // batch pattern's sorted expansion.
    let mut outcomes: Vec<BatchOutcome> = Vec::new();
    for target in &targets {
        let result = if let Some(circuit) = builtin(target) {
            let mut report = lint_full(&circuit, &config);
            report.set_origin(target);
            report.normalize();
            Ok(report)
        } else {
            match std::fs::read_to_string(target) {
                Ok(text) => Ok(lint_text(target, &text, &config)),
                Err(e) => Err(format!("cannot read {target}: {e}")),
            }
        };
        outcomes.push(BatchOutcome {
            path: PathBuf::from(target),
            result,
        });
    }
    for pattern in &batch_patterns {
        let paths = match collect_targets(pattern) {
            Ok(paths) => paths,
            Err(e) => {
                eprintln!("bibs-lint: {e}");
                return ExitCode::from(2);
            }
        };
        if paths.is_empty() {
            eprintln!("bibs-lint: --batch {pattern}: no .ckt/.bench/.v files found");
            return ExitCode::from(2);
        }
        outcomes.extend(lint_paths(&paths, &config));
    }

    // Baseline writing sees the findings *before* an existing baseline
    // demotes them, so regeneration never loses entries.
    if let Some(path) = &write_baseline_path {
        let mut merged = Report::new();
        for o in &outcomes {
            if let Ok(r) = &o.result {
                merged.merge(r.clone());
            }
        }
        merged.normalize();
        if let Err(e) = std::fs::write(path, write_baseline(&merged)) {
            eprintln!("bibs-lint: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
    }
    if let Some(fps) = &baseline {
        for o in &mut outcomes {
            if let Ok(r) = &mut o.result {
                apply_baseline(r, fps);
            }
        }
    }

    if let Some(path) = &telemetry_path {
        let mut rec = bibs_obs::Recorder::new("bibs-lint");
        record_batch(&mut rec, &outcomes);
        if let Err(e) = std::fs::write(path, rec.to_json(false)) {
            eprintln!("bibs-lint: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
    }

    let mut any_deny = false;
    let mut any_error = false;
    for o in &outcomes {
        match &o.result {
            Ok(report) => any_deny |= !report.is_clean(),
            Err(e) => {
                eprintln!("bibs-lint: {e}");
                any_error = true;
            }
        }
    }

    match format {
        Format::Text => {
            for o in &outcomes {
                if let Ok(report) = &o.result {
                    println!("== {} ==", o.path.display());
                    println!("{report}");
                    println!();
                }
            }
            if outcomes.len() > 1 {
                let linted = outcomes.iter().filter(|o| o.result.is_ok()).count();
                let findings: usize = outcomes
                    .iter()
                    .filter_map(|o| o.result.as_ref().ok())
                    .map(|r| r.diagnostics.len())
                    .sum();
                let denies: usize = outcomes
                    .iter()
                    .filter_map(|o| o.result.as_ref().ok())
                    .map(Report::deny_count)
                    .sum();
                println!("batch: {linted} file(s), {findings} finding(s), {denies} deny");
            }
        }
        Format::Json => {
            let parts: Vec<String> = outcomes
                .iter()
                .filter_map(|o| {
                    o.result
                        .as_ref()
                        .ok()
                        .map(|r| target_json(&o.path.display().to_string(), r))
                })
                .collect();
            println!(
                "{{\"schema\":\"bibs-lint/2\",\"targets\":[{}]}}",
                parts.join(",")
            );
        }
        Format::Sarif => {
            let mut merged = Report::new();
            for o in &outcomes {
                if let Ok(r) = &o.result {
                    merged.merge(r.clone());
                }
            }
            merged.normalize();
            print!("{}", to_sarif(&merged));
        }
    }

    if any_error {
        ExitCode::from(2)
    } else if any_deny {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
