//! The whole-corpus batch driver: target collection, parallel linting
//! and deterministic merging.
//!
//! `bibs-lint --batch <dir|glob>` lints every `.ckt`/`.bench`/`.v` file
//! it finds — directories recursively, globs by a single `*` in the
//! final path component. Files are linted in parallel by scoped worker
//! threads (count from `BIBS_JOBS` via
//! [`bibs_core::verify::default_jobs`]), each compiling its own program;
//! results land in per-file slots indexed by the sorted target order, so
//! the merged report is **byte-identical for every job count** — workers
//! only decide *when* a file is linted, never *where* its findings go.
//! [`Report::normalize`] does the rest (total order, duplicates
//! collapsed).
//!
//! Inline suppressions are honored per file (see [`crate::suppress`])
//! and every finding is stamped with its origin path before merging.

use crate::diag::{LintConfig, Report};
use crate::suppress::{apply_suppressions, scan_suppressions};
use bibs_obs::{CounterId, Recorder};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Circuit file extensions the batch driver picks up (lower-cased match).
pub const BATCH_EXTENSIONS: &[&str] = &["bench", "ckt", "v"];

/// One batch target's outcome: the lint report, or the read error that
/// kept the file from being linted (reported on stderr, exit 2 — a
/// vanished file must not pass as clean).
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// The file, as collected.
    pub path: PathBuf,
    /// The per-file report (already suppressed, origin-stamped and
    /// normalized), or the read-error text.
    pub result: Result<Report, String>,
}

fn has_batch_extension(path: &Path) -> bool {
    path.extension()
        .and_then(|e| e.to_str())
        .map(|e| BATCH_EXTENSIONS.contains(&e.to_ascii_lowercase().as_str()))
        .unwrap_or(false)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            walk(&path, out)?;
        } else if path.is_file() && has_batch_extension(&path) {
            out.push(path);
        }
    }
    Ok(())
}

/// Resolves a batch argument to a sorted target list:
///
/// * an existing **directory** — every circuit file under it, recursively;
/// * an existing **file** — that file, regardless of extension;
/// * a pattern with a single `*` in its **final component** — matching
///   circuit files in the parent directory (non-recursive).
///
/// The list is lexicographically sorted, which fixes the result indexing
/// the parallel driver relies on. An empty result is not an error here —
/// the binary treats it as a usage error.
///
/// # Errors
///
/// I/O errors reading directories, or a pattern that is neither an
/// existing path nor a final-component glob.
pub fn collect_targets(pattern: &str) -> io::Result<Vec<PathBuf>> {
    let path = Path::new(pattern);
    let mut out = Vec::new();
    if path.is_dir() {
        walk(path, &mut out)?;
    } else if path.is_file() {
        out.push(path.to_path_buf());
    } else {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        let (prefix, suffix) = name.split_once('*').ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::NotFound,
                format!("{pattern}: no such file or directory (and not a glob)"),
            )
        })?;
        if suffix.contains('*') {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("{pattern}: at most one '*' is supported"),
            ));
        }
        let dir = match path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p,
            _ => Path::new("."),
        };
        for entry in std::fs::read_dir(dir)? {
            let p = entry?.path();
            if !p.is_file() || !has_batch_extension(&p) {
                continue;
            }
            let Some(f) = p.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            if f.len() >= prefix.len() + suffix.len()
                && f.starts_with(prefix)
                && f.ends_with(suffix)
            {
                out.push(p);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Lints one file's text, dispatching on the extension of `origin`
/// (`.ckt` → RTL pipeline, `.v` → Verilog netlist, anything else →
/// `.bench`), then applies the file's inline suppressions, stamps the
/// origin and normalizes. This is the unit of work of [`lint_paths`] and
/// of the binary's single-target mode.
pub fn lint_text(origin: &str, text: &str, config: &LintConfig) -> Report {
    let ext = Path::new(origin)
        .extension()
        .and_then(|e| e.to_str())
        .map(|e| e.to_ascii_lowercase());
    let mut report = match ext.as_deref() {
        Some("ckt") => crate::lint_ckt_text(origin, text, config),
        Some("v") => crate::lint_verilog_text(origin, text, config),
        _ => crate::lint_bench_text(origin, text, config),
    };
    apply_suppressions(&mut report, &scan_suppressions(text), config);
    report.set_origin(origin);
    report.normalize();
    report
}

/// Lints every path in parallel on `jobs` scoped worker threads (clamped
/// to at least 1 and at most the target count). Outcomes are returned in
/// input order whatever the thread count.
pub fn lint_paths(paths: &[PathBuf], config: &LintConfig, jobs: usize) -> Vec<BatchOutcome> {
    let jobs = jobs.clamp(1, paths.len().max(1));
    let slots: Vec<Mutex<Option<Result<Report, String>>>> =
        paths.iter().map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..jobs {
            s.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= paths.len() {
                    break;
                }
                let result = match std::fs::read_to_string(&paths[i]) {
                    Ok(text) => Ok(lint_text(&paths[i].display().to_string(), &text, config)),
                    Err(e) => Err(format!("{}: {e}", paths[i].display())),
                };
                *slots[i].lock().unwrap() = Some(result);
            });
        }
    });
    paths
        .iter()
        .zip(slots)
        .map(|(p, slot)| BatchOutcome {
            path: p.clone(),
            result: slot
                .into_inner()
                .unwrap()
                .expect("every slot filled by the worker scope"),
        })
        .collect()
}

/// Records one telemetry span per file under the recorder's current span
/// (label = path, `lint_findings` = finding count). Runs after the join,
/// on the owning thread, so the span tree is deterministic for every job
/// count.
pub fn record_batch(rec: &mut Recorder, outcomes: &[BatchOutcome]) {
    for o in outcomes {
        let id = rec.enter(o.path.display().to_string());
        if let Ok(report) = &o.result {
            rec.add_to(id, CounterId::LintFindings, report.diagnostics.len() as u64);
        }
        rec.exit(id);
    }
}

/// Merges every successful outcome into one normalized report. Read
/// errors are *not* represented here — the binary reports them on stderr
/// and fails the run.
pub fn merged_report(outcomes: &[BatchOutcome]) -> Report {
    let mut all = Report::new();
    for o in outcomes {
        if let Ok(r) = &o.result {
            all.merge(r.clone());
        }
    }
    all.normalize();
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("bibs_lint_batch_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("sub")).unwrap();
        dir
    }

    fn write_fixtures(dir: &Path) {
        std::fs::write(
            dir.join("good.bench"),
            "INPUT(a)\nINPUT(b)\ns = XOR(a, b)\nOUTPUT(s)\n",
        )
        .unwrap();
        std::fs::write(dir.join("bad.bench"), "o = FROB(a)\n").unwrap();
        std::fs::write(
            dir.join("sub/deep.bench"),
            "INPUT(x)\ny = NOT(x)\nOUTPUT(y)\n",
        )
        .unwrap();
        std::fs::write(dir.join("notes.txt"), "not a circuit").unwrap();
    }

    #[test]
    fn directory_collection_is_recursive_and_sorted() {
        let dir = scratch_dir("walk");
        write_fixtures(&dir);
        let targets = collect_targets(dir.to_str().unwrap()).unwrap();
        let names: Vec<String> = targets
            .iter()
            .map(|p| p.strip_prefix(&dir).unwrap().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, ["bad.bench", "good.bench", "sub/deep.bench"]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn glob_collection_matches_final_component() {
        let dir = scratch_dir("glob");
        write_fixtures(&dir);
        let pattern = dir.join("g*.bench");
        let targets = collect_targets(pattern.to_str().unwrap()).unwrap();
        assert_eq!(targets.len(), 1);
        assert!(targets[0].ends_with("good.bench"));
        // Not a path and not a glob -> error.
        assert!(collect_targets(dir.join("missing.bench").to_str().unwrap()).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn batch_results_are_job_count_invariant() {
        let dir = scratch_dir("jobs");
        write_fixtures(&dir);
        let cfg = LintConfig::new();
        let targets = collect_targets(dir.to_str().unwrap()).unwrap();
        let reference = merged_report(&lint_paths(&targets, &cfg, 1)).to_json();
        for jobs in [2, 4, 8] {
            let merged = merged_report(&lint_paths(&targets, &cfg, jobs)).to_json();
            assert_eq!(reference, merged, "jobs={jobs} must be byte-identical");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn read_errors_surface_per_file() {
        let cfg = LintConfig::new();
        let outcomes = lint_paths(&[PathBuf::from("/nonexistent/x.bench")], &cfg, 2);
        assert!(outcomes[0].result.is_err());
        assert!(merged_report(&outcomes).diagnostics.is_empty());
    }

    #[test]
    fn suppressions_apply_per_file() {
        let dir = scratch_dir("supp");
        let cfg = LintConfig::new();
        // A file with a stuck register, acknowledged inline.
        std::fs::write(
            dir.join("stuck.bench"),
            "# bibs-lint: allow(B052)\nINPUT(x)\nz = TIE0()\nq = DFF(z)\n\
             y = OR(q, x)\nOUTPUT(y)\n",
        )
        .unwrap();
        let targets = collect_targets(dir.join("stuck.bench").to_str().unwrap()).unwrap();
        let outcomes = lint_paths(&targets, &cfg, 1);
        let report = outcomes[0].result.as_ref().unwrap();
        for d in report.with_code("B052") {
            assert_eq!(d.severity, crate::Severity::Allow, "{report}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn batch_spans_are_recorded_per_file() {
        let dir = scratch_dir("spans");
        write_fixtures(&dir);
        let cfg = LintConfig::new();
        let targets = collect_targets(dir.to_str().unwrap()).unwrap();
        let outcomes = lint_paths(&targets, &cfg, 2);
        let mut rec = Recorder::new("lint-batch");
        record_batch(&mut rec, &outcomes);
        let json = rec.to_json(false);
        assert!(json.contains("lint_findings"), "{json}");
        assert!(json.contains("bad.bench"), "{json}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
