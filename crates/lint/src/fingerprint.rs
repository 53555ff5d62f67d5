//! Content fingerprints for findings and the baseline machinery built on
//! them.
//!
//! A baseline lets CI gate a large corpus *incrementally*: known findings
//! are recorded once and demoted to `allow` on later runs, so only new
//! findings fail the gate. For that to survive file renames and
//! reordering, the fingerprint hashes the finding's *content* — code,
//! message and witness — and deliberately excludes the origin path and
//! the position in the report. Identical findings in different files
//! share a fingerprint by design (renaming a corpus file must not
//! invalidate its baseline entry); [`Report::normalize`] has already
//! collapsed exact duplicates within a file.

use crate::diag::{Diagnostic, Report, Severity};
use bibs_obs::json;

/// The baseline file's schema tag.
pub const BASELINE_SCHEMA: &str = "bibs-lint-baseline/1";

/// The content fingerprint of one finding: FNV-64 over code, message and
/// witness (origin excluded — stable across file renames and report
/// reordering).
pub fn fingerprint(d: &Diagnostic) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in [d.code, &d.message, &d.witness] {
        for b in part.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        // Field separator so ("ab","c") and ("a","bc") differ.
        h ^= 0x1f;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Renders a baseline file covering every warn- or deny-level finding of
/// `report` (allow-level findings document intentional structure and need
/// no baselining). Fingerprints are sorted and deduplicated.
pub fn write_baseline(report: &Report) -> String {
    let mut fps: Vec<u64> = report
        .diagnostics
        .iter()
        .filter(|d| d.severity != Severity::Allow)
        .map(fingerprint)
        .collect();
    fps.sort_unstable();
    fps.dedup();
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!(
        "  \"schema\": {},\n",
        json::string(BASELINE_SCHEMA)
    ));
    out.push_str("  \"fingerprints\": [\n");
    for (i, fp) in fps.iter().enumerate() {
        let comma = if i + 1 < fps.len() { "," } else { "" };
        out.push_str(&format!("    \"{fp:016x}\"{comma}\n"));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Parses a baseline file written by [`write_baseline`].
///
/// # Errors
///
/// A description of the first structural problem: not JSON, wrong schema
/// tag, or a malformed fingerprint entry.
pub fn parse_baseline(text: &str) -> Result<Vec<u64>, String> {
    let value = bibs_obs::json::parse(text).map_err(|e| format!("baseline is not JSON: {e}"))?;
    match value.get("schema").and_then(|v| v.as_str()) {
        Some(BASELINE_SCHEMA) => {}
        Some(other) => return Err(format!("unsupported baseline schema {other:?}")),
        None => return Err("baseline missing \"schema\" field".into()),
    }
    let entries = value
        .get("fingerprints")
        .and_then(|v| v.as_array())
        .ok_or("baseline missing \"fingerprints\" array")?;
    let mut fps = Vec::with_capacity(entries.len());
    for e in entries {
        let s = e.as_str().ok_or("fingerprint entries must be strings")?;
        let fp = u64::from_str_radix(s, 16).map_err(|_| format!("bad fingerprint {s:?}"))?;
        fps.push(fp);
    }
    fps.sort_unstable();
    Ok(fps)
}

/// Demotes every finding whose fingerprint appears in `baseline` to
/// `Allow`: it is known, recorded, and must not fail the gate. Returns
/// how many findings were demoted.
pub fn apply_baseline(report: &mut Report, baseline: &[u64]) -> usize {
    let mut demoted = 0;
    for d in &mut report.diagnostics {
        if d.severity != Severity::Allow && baseline.binary_search(&fingerprint(d)).is_ok() {
            d.severity = Severity::Allow;
            demoted += 1;
        }
    }
    demoted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::LintConfig;

    fn sample_report() -> Report {
        let cfg = LintConfig::new();
        let mut r = Report::new();
        r.emit(&cfg, "B001", "net \"x\" has no driver", "net n3 (x)");
        r.emit(&cfg, "B005", "odd word record", "word o");
        r.emit(&cfg, "B004", "dead cone", "g7");
        r.set_origin("a.bench");
        r
    }

    #[test]
    fn fingerprint_ignores_origin_but_not_content() {
        let mut r = sample_report();
        let fp = fingerprint(&r.diagnostics[0]);
        r.diagnostics[0].origin = "renamed.bench".into();
        assert_eq!(fingerprint(&r.diagnostics[0]), fp);
        r.diagnostics[0].message.push('!');
        assert_ne!(fingerprint(&r.diagnostics[0]), fp);
    }

    #[test]
    fn baseline_round_trips_and_demotes() {
        let mut r = sample_report();
        let text = write_baseline(&r);
        let fps = parse_baseline(&text).unwrap();
        // Only the deny + warn findings are baselined, not the allow one.
        assert_eq!(fps.len(), 2);
        assert!(!r.is_clean());
        let demoted = apply_baseline(&mut r, &fps);
        assert_eq!(demoted, 2);
        assert!(r.is_clean());
        assert_eq!(r.count(Severity::Allow), 3);
        // A fresh finding is not masked by the old baseline.
        let cfg = LintConfig::new();
        r.emit(&cfg, "B001", "net \"y\" has no driver", "net n9 (y)");
        assert_eq!(apply_baseline(&mut r, &fps), 0);
        assert!(!r.is_clean());
    }

    #[test]
    fn bad_baselines_are_rejected() {
        assert!(parse_baseline("not json").is_err());
        assert!(parse_baseline("{\"fingerprints\": []}").is_err());
        assert!(parse_baseline("{\"schema\": \"other/9\", \"fingerprints\": []}").is_err());
        assert!(parse_baseline(
            "{\"schema\": \"bibs-lint-baseline/1\", \"fingerprints\": [\"zz\"]}"
        )
        .is_err());
    }
}
