//! The diagnostics engine: severities, coded findings, reports and the
//! severity configuration shared by every lint pass.

use bibs_obs::json;
use std::collections::BTreeMap;
use std::fmt;

/// How seriously a finding is taken.
///
/// `Allow` findings are still *recorded* — they document intentional
/// structure (e.g. a truncated multiplier's dead high half) — but never
/// affect the exit status. `Warn` findings indicate suspicious structure;
/// under [`LintConfig::deny_warnings`] they are promoted to `Deny`. `Deny`
/// findings violate a paper condition outright and fail the lint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational note; never fails the lint.
    Allow,
    /// Suspicious; fails only under `--deny warnings`.
    Warn,
    /// Violates a checked condition; fails the lint.
    Deny,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Allow => "allow",
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        })
    }
}

impl std::str::FromStr for Severity {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "allow" | "note" => Ok(Severity::Allow),
            "warn" | "warning" => Ok(Severity::Warn),
            "deny" | "error" => Ok(Severity::Deny),
            other => Err(format!("unknown severity {other:?}")),
        }
    }
}

/// A registry entry describing one diagnostic code.
#[derive(Debug, Clone, Copy)]
pub struct CodeInfo {
    /// The stable code, e.g. `"B003"`.
    pub code: &'static str,
    /// One-line summary of the condition the code checks.
    pub summary: &'static str,
    /// Severity applied when no [`LintConfig`] override is present.
    pub default_severity: Severity,
}

/// Every diagnostic code the lint passes can emit, with defaults.
///
/// The code space mirrors the analysis layers: `B00x` netlist-level,
/// `B01x` RTL/structure-level, `B02x` design/TPG-level, `B03x`
/// cross-layer. `DESIGN.md` maps each code to the paper condition it
/// enforces.
pub const CODES: &[CodeInfo] = &[
    CodeInfo {
        code: "B000",
        summary: "input rejected: parse, build or selection failure",
        default_severity: Severity::Deny,
    },
    CodeInfo {
        code: "B001",
        summary: "undriven (floating) net",
        default_severity: Severity::Deny,
    },
    CodeInfo {
        code: "B002",
        summary: "multiply-driven net or inconsistent driver record",
        default_severity: Severity::Deny,
    },
    CodeInfo {
        code: "B003",
        summary: "combinational gate cycle",
        default_severity: Severity::Deny,
    },
    CodeInfo {
        code: "B004",
        summary: "dead logic cone (fanout-free gate feeding no output)",
        default_severity: Severity::Allow,
    },
    CodeInfo {
        code: "B005",
        summary: "malformed primary-input/-output word record",
        default_severity: Severity::Warn,
    },
    CodeInfo {
        code: "B006",
        summary: "gate arity invalid for its kind",
        default_severity: Severity::Deny,
    },
    CodeInfo {
        code: "B007",
        summary: "net whose compiled evaluation slot is never read",
        default_severity: Severity::Allow,
    },
    CodeInfo {
        code: "B010",
        summary: "directed register cycle in the bare circuit",
        default_severity: Severity::Allow,
    },
    CodeInfo {
        code: "B011",
        summary: "unbalanced reconvergent fanout (URFS) in the bare circuit",
        default_severity: Severity::Allow,
    },
    CodeInfo {
        code: "B012",
        summary: "operand register widths differ at an Add/Sub block",
        default_severity: Severity::Warn,
    },
    CodeInfo {
        code: "B013",
        summary: "dangling block (no inputs or no outputs)",
        default_severity: Severity::Warn,
    },
    CodeInfo {
        code: "B020",
        summary: "kernel subgraph contains a directed cycle",
        default_severity: Severity::Deny,
    },
    CodeInfo {
        code: "B021",
        summary: "kernel imbalance: unequal-length register-to-register paths",
        default_severity: Severity::Deny,
    },
    CodeInfo {
        code: "B022",
        summary: "BILBO register would be TPG and SA of the same kernel",
        default_severity: Severity::Deny,
    },
    CodeInfo {
        code: "B023",
        summary: "LFSR polynomial missing, wrong-degree or non-primitive",
        default_severity: Severity::Deny,
    },
    CodeInfo {
        code: "B024",
        summary: "illegal TPG placement (labels, windows or offsets)",
        default_severity: Severity::Deny,
    },
    CodeInfo {
        code: "B025",
        summary: "netlist cone support exceeds the cone dependency matrix",
        default_severity: Severity::Deny,
    },
    CodeInfo {
        code: "B026",
        summary: "cone dependency matrix overapproximates netlist support",
        default_severity: Severity::Allow,
    },
    CodeInfo {
        code: "B030",
        summary: "sequential depth disagrees across RTL, structure and netlist",
        default_severity: Severity::Deny,
    },
    CodeInfo {
        code: "B031",
        summary: "kernel elaboration failed; cross-layer checks skipped",
        default_severity: Severity::Warn,
    },
    CodeInfo {
        code: "B040",
        summary: "gate-driven net proven constant under all-X inputs",
        default_severity: Severity::Warn,
    },
    CodeInfo {
        code: "B041",
        summary: "gate output independent of one of its input pins",
        default_severity: Severity::Allow,
    },
    CodeInfo {
        code: "B042",
        summary: "statically untestable fault outside intentional structure",
        default_severity: Severity::Deny,
    },
    CodeInfo {
        code: "B043",
        summary: "redundant logic cone (constant only by case analysis)",
        default_severity: Severity::Warn,
    },
    CodeInfo {
        code: "B050",
        summary: "power-up X from a never-initialized flop reaches an observed output",
        default_severity: Severity::Deny,
    },
    CodeInfo {
        code: "B051",
        summary: "flop never initialized by any bounded input sequence",
        default_severity: Severity::Warn,
    },
    CodeInfo {
        code: "B052",
        summary: "flop proven constant (stuck register) under all inputs",
        default_severity: Severity::Warn,
    },
    CodeInfo {
        code: "B053",
        summary: "flop output structurally unobservable at any output",
        default_severity: Severity::Allow,
    },
    CodeInfo {
        code: "B054",
        summary: "RTL sequential depth disagrees with gate-level unrolled depth",
        default_severity: Severity::Deny,
    },
    CodeInfo {
        code: "B059",
        summary: "unused inline lint suppression",
        default_severity: Severity::Warn,
    },
    // B06x — pattern-source checks. B060 fires when a source descriptor's
    // declared width disagrees with the kernel it is scheduled to drive (a
    // session that would panic or silently degrade at simulation time);
    // emitted by `source_pass` and wired into the bench binaries' --source
    // preflight.
    CodeInfo {
        code: "B060",
        summary: "pattern-source width disagrees with the kernel's input width",
        default_severity: Severity::Deny,
    },
];

/// Looks up the registry entry for `code`.
pub fn code_info(code: &str) -> Option<&'static CodeInfo> {
    CODES.iter().find(|c| c.code == code)
}

/// One finding: a coded, severity-tagged message with a concrete witness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The stable `B0xx` code.
    pub code: &'static str,
    /// The effective severity (after [`LintConfig`] overrides and
    /// `--deny warnings` promotion).
    pub severity: Severity,
    /// Human-readable description of the violated condition.
    pub message: String,
    /// The concrete structure that triggers the finding — named vertices,
    /// edges, nets or paths, never bare indices.
    pub witness: String,
    /// The file or target the finding belongs to. Empty for single-target
    /// reports; the batch driver stamps it via [`Report::set_origin`].
    pub origin: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.code, self.message)?;
        if !self.witness.is_empty() {
            write!(f, "\n    witness: {}", self.witness)?;
        }
        Ok(())
    }
}

/// Severity configuration: per-code overrides plus warning promotion.
#[derive(Debug, Clone, Default)]
pub struct LintConfig {
    /// Per-code severity overrides (`allow`/`warn`/`deny`).
    pub overrides: BTreeMap<String, Severity>,
    /// Promote every `Warn` finding to `Deny` (`--deny warnings`).
    pub deny_warnings: bool,
    /// Also run the semantic passes (B04x) — ternary constant analysis,
    /// independent-pin detection and static untestability proofs over the
    /// compiled IR (`--semantic`). Off by default: the passes run
    /// whole-netlist dataflow sweeps per kernel.
    pub semantic: bool,
}

impl LintConfig {
    /// A configuration with no overrides and no promotion.
    pub fn new() -> Self {
        LintConfig::default()
    }

    /// Sets an override for one code.
    pub fn set(&mut self, code: &str, severity: Severity) -> &mut Self {
        self.overrides.insert(code.to_string(), severity);
        self
    }

    /// The effective severity for `code`: the override if present, else the
    /// registry default, with `Warn → Deny` promotion applied last.
    pub fn severity_of(&self, code: &str) -> Severity {
        let base = self
            .overrides
            .get(code)
            .copied()
            .or_else(|| code_info(code).map(|c| c.default_severity))
            .unwrap_or(Severity::Deny);
        if self.deny_warnings && base == Severity::Warn {
            Severity::Deny
        } else {
            base
        }
    }
}

/// The accumulated findings of one or more lint passes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    /// All findings, in pass order.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Self {
        Report::default()
    }

    /// Records a finding under the severity `config` assigns to `code`.
    pub fn emit(
        &mut self,
        config: &LintConfig,
        code: &'static str,
        message: impl Into<String>,
        witness: impl Into<String>,
    ) {
        debug_assert!(code_info(code).is_some(), "unregistered code {code}");
        self.diagnostics.push(Diagnostic {
            code,
            severity: config.severity_of(code),
            message: message.into(),
            witness: witness.into(),
            origin: String::new(),
        });
    }

    /// Stamps `origin` on every finding that does not already carry one.
    pub fn set_origin(&mut self, origin: &str) {
        for d in &mut self.diagnostics {
            if d.origin.is_empty() {
                d.origin = origin.to_string();
            }
        }
    }

    /// Puts the report into its canonical form: findings sorted by
    /// `(code, origin, message, witness)` and exact duplicates removed.
    /// Every merged batch report is normalized before rendering, so its
    /// output does not depend on the order the findings were produced in.
    pub fn normalize(&mut self) {
        self.diagnostics.sort_by(|a, b| {
            (a.code, &a.origin, &a.message, &a.witness)
                .cmp(&(b.code, &b.origin, &b.message, &b.witness))
        });
        self.diagnostics.dedup();
    }

    /// Appends every finding of `other`.
    pub fn merge(&mut self, other: Report) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// Findings at exactly `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// Number of deny-level findings.
    pub fn deny_count(&self) -> usize {
        self.count(Severity::Deny)
    }

    /// Whether the lint passes (no deny-level finding).
    pub fn is_clean(&self) -> bool {
        self.deny_count() == 0
    }

    /// Findings carrying `code`.
    pub fn with_code<'a>(&'a self, code: &'a str) -> impl Iterator<Item = &'a Diagnostic> + 'a {
        self.diagnostics.iter().filter(move |d| d.code == code)
    }

    /// Whether any finding carries `code`.
    pub fn has_code(&self, code: &str) -> bool {
        self.with_code(code).next().is_some()
    }

    /// Serializes the report as a JSON array of finding objects
    /// (`{"code","severity","origin","message","witness"}`) — hand-rolled
    /// because the build environment's `serde` is an offline stub.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"code\":{},\"severity\":{},\"origin\":{},\"message\":{},\"witness\":{}}}",
                json::string(d.code),
                json::string(&d.severity.to_string()),
                json::string(&d.origin),
                json::string(&d.message),
                json::string(&d.witness)
            ));
        }
        out.push(']');
        out
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for d in &self.diagnostics {
            writeln!(f, "{d}")?;
        }
        write!(
            f,
            "{} finding(s): {} deny, {} warn, {} allow",
            self.diagnostics.len(),
            self.count(Severity::Deny),
            self.count(Severity::Warn),
            self.count(Severity::Allow)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_registry_is_well_formed() {
        // Unique, ordered, and every code parses as B0xx.
        for w in CODES.windows(2) {
            assert!(w[0].code < w[1].code, "registry must be sorted");
        }
        for c in CODES {
            assert!(c.code.starts_with("B0") && c.code.len() == 4, "{}", c.code);
            assert!(!c.summary.is_empty());
        }
    }

    #[test]
    fn severity_overrides_and_promotion() {
        let mut cfg = LintConfig::new();
        assert_eq!(cfg.severity_of("B004"), Severity::Allow);
        assert_eq!(cfg.severity_of("B005"), Severity::Warn);
        assert_eq!(cfg.severity_of("B001"), Severity::Deny);
        cfg.set("B004", Severity::Deny);
        assert_eq!(cfg.severity_of("B004"), Severity::Deny);
        cfg.deny_warnings = true;
        assert_eq!(cfg.severity_of("B005"), Severity::Deny);
        // Allow is not promoted.
        cfg.set("B004", Severity::Allow);
        assert_eq!(cfg.severity_of("B004"), Severity::Allow);
    }

    #[test]
    fn normalize_sorts_and_dedupes() {
        let cfg = LintConfig::new();
        let mut r = Report::new();
        r.emit(&cfg, "B004", "dead cone", "g7");
        r.emit(&cfg, "B001", "net \"x\" has no driver", "net n3 (x)");
        r.emit(&cfg, "B004", "dead cone", "g7"); // exact duplicate
        r.set_origin("a.bench");
        let mut s = Report::new();
        s.emit(&cfg, "B001", "net \"x\" has no driver", "net n3 (x)");
        s.set_origin("b.bench");
        r.merge(s);
        r.normalize();
        let keys: Vec<(&str, &str)> = r
            .diagnostics
            .iter()
            .map(|d| (d.code, d.origin.as_str()))
            .collect();
        assert_eq!(
            keys,
            vec![
                ("B001", "a.bench"),
                ("B001", "b.bench"),
                ("B004", "a.bench"),
            ]
        );
        // set_origin never overwrites an existing origin.
        r.set_origin("other");
        assert!(r.diagnostics.iter().all(|d| d.origin != "other"));
    }

    #[test]
    fn report_counting_and_json() {
        let cfg = LintConfig::new();
        let mut r = Report::new();
        r.emit(&cfg, "B001", "net \"x\" has no driver", "net n3 (x)");
        r.emit(&cfg, "B004", "dead cone", "g7");
        assert_eq!(r.deny_count(), 1);
        assert!(!r.is_clean());
        assert!(r.has_code("B001") && r.has_code("B004"));
        let json = r.to_json();
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"code\":\"B001\""));
        assert!(json.contains("\\\"x\\\""), "quotes escaped: {json}");
        let human = r.to_string();
        assert!(human.contains("deny[B001]"));
        assert!(human.contains("witness: net n3 (x)"));
    }
}
