//! SARIF 2.1.0 output and a well-formedness checker against a vendored
//! minimal schema.
//!
//! [`to_sarif`] renders a [`Report`] as a single-run SARIF log: the tool
//! driver advertises every registered code as a rule, each finding
//! becomes a `result` with the origin file as its artifact location and
//! the content fingerprint (see [`crate::fingerprint()`]) under
//! `partialFingerprints`, which is exactly what result-matching SARIF
//! consumers key on. [`check_sarif`] validates a log against the subset
//! JSON Schema vendored at `crates/lint/sarif-schema.min.json` —
//! `type` / `required` / `properties` / `items` / `enum` are enough to
//! pin the SARIF shape without an online schema fetch.

use crate::diag::{Report, Severity, CODES};
use crate::fingerprint::fingerprint;
use bibs_obs::json::{self, Value};

/// The schema URI stamped into every log.
pub const SARIF_SCHEMA_URI: &str =
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json";

/// The vendored minimal schema used by [`check_sarif`], embedded so the
/// checker works without locating the repository root.
pub const MIN_SCHEMA: &str = include_str!("../sarif-schema.min.json");

fn level(severity: Severity) -> &'static str {
    match severity {
        Severity::Allow => "note",
        Severity::Warn => "warning",
        Severity::Deny => "error",
    }
}

/// Renders `report` as a SARIF 2.1.0 log. Findings keep report order —
/// normalize the report first for byte-stable output.
pub fn to_sarif(report: &Report) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!(
        "  \"$schema\": {},\n",
        json::string(SARIF_SCHEMA_URI)
    ));
    out.push_str("  \"version\": \"2.1.0\",\n");
    out.push_str("  \"runs\": [\n    {\n");
    out.push_str("      \"tool\": {\n        \"driver\": {\n");
    out.push_str("          \"name\": \"bibs-lint\",\n");
    out.push_str("          \"rules\": [\n");
    for (i, c) in CODES.iter().enumerate() {
        let comma = if i + 1 < CODES.len() { "," } else { "" };
        out.push_str(&format!(
            "            {{\"id\": {}, \"shortDescription\": {{\"text\": {}}}}}{comma}\n",
            json::string(c.code),
            json::string(c.summary)
        ));
    }
    out.push_str("          ]\n        }\n      },\n");
    out.push_str("      \"results\": [\n");
    let n = report.diagnostics.len();
    for (i, d) in report.diagnostics.iter().enumerate() {
        let comma = if i + 1 < n { "," } else { "" };
        let text = if d.witness.is_empty() {
            d.message.clone()
        } else {
            format!("{} (witness: {})", d.message, d.witness)
        };
        let uri = if d.origin.is_empty() {
            "<input>"
        } else {
            &d.origin
        };
        out.push_str("        {\n");
        out.push_str(&format!(
            "          \"ruleId\": {},\n",
            json::string(d.code)
        ));
        out.push_str(&format!(
            "          \"level\": {},\n",
            json::string(level(d.severity))
        ));
        out.push_str(&format!(
            "          \"message\": {{\"text\": {}}},\n",
            json::string(&text)
        ));
        out.push_str(&format!(
            "          \"locations\": [{{\"physicalLocation\": {{\"artifactLocation\": {{\"uri\": {}}}}}}}],\n",
            json::string(uri)
        ));
        out.push_str(&format!(
            "          \"partialFingerprints\": {{\"bibsLintContent/v1\": \"{:016x}\"}}\n",
            fingerprint(d)
        ));
        out.push_str(&format!("        }}{comma}\n"));
    }
    out.push_str("      ]\n    }\n  ]\n}\n");
    out
}

/// Validates `sarif_text` against the vendored minimal SARIF schema.
///
/// # Errors
///
/// The first problem found: unparseable JSON (either document) or a
/// schema violation with a JSON-path-style location.
pub fn check_sarif(sarif_text: &str) -> Result<(), String> {
    let schema = json::parse(MIN_SCHEMA).map_err(|e| format!("vendored schema invalid: {e}"))?;
    let doc = json::parse(sarif_text).map_err(|e| format!("SARIF is not JSON: {e}"))?;
    validate(&doc, &schema, "$")
}

/// Recursive interpreter for the schema subset: `type`, `required`,
/// `properties`, `items`, `enum`.
fn validate(doc: &Value, schema: &Value, path: &str) -> Result<(), String> {
    if let Some(ty) = schema.get("type").and_then(|v| v.as_str()) {
        let ok = match ty {
            "object" => matches!(doc, Value::Object(_)),
            "array" => matches!(doc, Value::Array(_)),
            "string" => matches!(doc, Value::String(_)),
            "number" => matches!(doc, Value::Number(_)),
            "boolean" => matches!(doc, Value::Bool(_)),
            other => return Err(format!("{path}: unsupported schema type {other:?}")),
        };
        if !ok {
            return Err(format!("{path}: expected {ty}"));
        }
    }
    if let Some(allowed) = schema.get("enum").and_then(|v| v.as_array()) {
        if !allowed.contains(doc) {
            return Err(format!("{path}: value not in enum"));
        }
    }
    if let Some(required) = schema.get("required").and_then(|v| v.as_array()) {
        for name in required {
            let name = name.as_str().unwrap_or("");
            if doc.get(name).is_none() {
                return Err(format!("{path}: missing required member {name:?}"));
            }
        }
    }
    if let Some(props) = schema.get("properties").and_then(|v| v.as_object()) {
        for (name, sub) in props {
            if let Some(member) = doc.get(name) {
                validate(member, sub, &format!("{path}.{name}"))?;
            }
        }
    }
    if let Some(items) = schema.get("items") {
        if let Some(elems) = doc.as_array() {
            for (i, e) in elems.iter().enumerate() {
                validate(e, items, &format!("{path}[{i}]"))?;
            }
        }
    }
    Ok(())
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
        r.emit(&cfg, "B004", "dead cone", "");
        r.set_origin("sub/dir/a.bench");
        r
    }

    #[test]
    fn sarif_log_passes_the_vendored_schema() {
        let log = to_sarif(&sample_report());
        check_sarif(&log).unwrap();
        assert!(log.contains("\"2.1.0\""));
        assert!(log.contains("\"ruleId\": \"B001\""));
        assert!(log.contains("\"level\": \"error\""));
        assert!(log.contains("\"level\": \"warning\""));
        assert!(log.contains("\"level\": \"note\""));
        assert!(log.contains("sub/dir/a.bench"));
        assert!(log.contains("bibsLintContent/v1"));
    }

    #[test]
    fn empty_report_is_still_well_formed() {
        check_sarif(&to_sarif(&Report::new())).unwrap();
    }

    #[test]
    fn checker_rejects_malformed_logs() {
        assert!(check_sarif("not json").is_err());
        assert!(check_sarif("{}").unwrap_err().contains("required"));
        let wrong_version = "{\"$schema\": \"x\", \"version\": \"9.9\", \"runs\": []}";
        assert!(check_sarif(wrong_version).unwrap_err().contains("enum"));
        let bad_result = "{\"$schema\": \"x\", \"version\": \"2.1.0\", \"runs\": [{\"tool\": \
                          {\"driver\": {\"name\": \"t\", \"rules\": []}}, \"results\": [{}]}]}";
        let err = check_sarif(bad_result).unwrap_err();
        assert!(err.contains("ruleId"), "{err}");
    }
}
