//! `bibs-lint` — structural static analysis for BIBS designs.
//!
//! The paper's methodology rests on structural side conditions that are
//! easy to violate silently: kernels must be acyclic and **balanced**
//! (Definition 1), a plain BILBO must never be TPG and SA of the same
//! kernel (Theorem 2), the TPG's LFSR polynomial must be primitive of the
//! right degree (Theorem 4), and the cone dependency matrix driving FPET
//! (Section 4.3) must agree with what the gates actually compute. This
//! crate checks all of them *statically* — before any simulation — and
//! reports violations as coded, severity-tagged [`Diagnostic`]s carrying a
//! concrete named witness.
//!
//! Three entry points mirror the analysis layers:
//!
//! * [`lint_netlist`] — gate-level checks (`B00x`) on possibly-unvalidated
//!   netlists: undriven or multiply-driven nets, combinational cycles with
//!   an explicit gate-cycle witness, dead cones, arity and word-record
//!   problems;
//! * [`lint_circuit`] — RTL/structure checks (`B01x`) on bare circuit
//!   graphs: register cycles, URFS witnesses as concrete min/max path
//!   pairs, operand-width mismatches, dangling blocks;
//! * [`lint_design`] — design/TPG and cross-layer checks (`B02x`/`B03x`)
//!   on a circuit with a BILBO selection: per-kernel Definition 1 with
//!   named witnesses, TPG prechecks, netlist-vs-matrix cone support and
//!   three-way sequential-depth agreement.
//!
//! [`lint_full`] chains them end to end (running the BIBS selection
//! itself), and [`lint_ckt_text`] starts from `.ckt` source, turning parse
//! and selection failures into `B000` diagnostics instead of panics.
//! Sequential X-safety (`B05x`, [`lint_seq`]) grades every flip-flop by
//! ternary time-frame fixpoints: stuck (B052), never-initialized (B051),
//! unobservable (B053), power-up X reaching an observed output with a
//! replayable witness (B050), and RTL-vs-gate sequential-depth
//! disagreement (B054).
//!
//! The `bibs-lint` binary wraps these for the command line: `--batch
//! <dir|glob>` lints whole corpora in sorted target order
//! ([`lint_paths`]), `--format json|sarif` for machine consumers
//! ([`to_sarif`] validates against a vendored minimal schema), inline
//! `# bibs-lint: allow(B0xx)` suppressions ([`apply_suppressions`]) and
//! content-fingerprinted baselines ([`write_baseline`] /
//! [`apply_baseline`]) for CI gates.

#![warn(missing_docs)]

pub mod batch;
pub mod design_pass;
pub mod diag;
pub mod fingerprint;
pub mod netlist_pass;
pub mod rtl_pass;
pub mod sarif;
pub mod semantic_pass;
pub mod seq_pass;
pub mod source_pass;
pub mod suppress;

pub use batch::{collect_targets, lint_paths, lint_text, merged_report, BatchOutcome};
pub use design_pass::lint_design;
pub use diag::{code_info, CodeInfo, Diagnostic, LintConfig, Report, Severity, CODES};
pub use fingerprint::{apply_baseline, fingerprint, parse_baseline, write_baseline};
pub use netlist_pass::lint_netlist;
pub use rtl_pass::lint_circuit;
pub use sarif::{check_sarif, to_sarif};
pub use semantic_pass::{lint_netlist_semantic, lint_semantic};
pub use seq_pass::lint_seq;
pub use source_pass::lint_source_width;
pub use suppress::{apply_suppressions, scan_suppressions};

use bibs_core::bibs::{select, BibsOptions};
use bibs_rtl::Circuit;

/// Lints `circuit` end to end: the bare-circuit passes, then a BIBS
/// register selection with default options, then every design-level pass
/// on the selected design.
///
/// A selection failure is reported as `B000` (the circuit cannot be made
/// BIBS-testable as given, e.g. unregistered primary I/O) and the
/// design-level passes are skipped.
pub fn lint_full(circuit: &Circuit, config: &LintConfig) -> Report {
    let mut report = lint_circuit(circuit, config);
    match select(circuit, &BibsOptions::default()) {
        Ok(result) => {
            report.merge(lint_design(&result.circuit, &result.design, config));
            if config.semantic {
                report.merge(lint_semantic(&result.circuit, &result.design, config));
            }
        }
        Err(e) => report.emit(
            config,
            "B000",
            format!("BIBS register selection failed: {e}"),
            e.to_string(),
        ),
    }
    // Sequential X-safety (B05x) on the elaborated whole. Elaboration
    // failures are not re-reported — the kernel-level passes already
    // surface them as B031.
    if let Ok(elab) = bibs_datapath::elab::elaborate_whole(circuit) {
        report.merge(lint_seq(
            Some(circuit),
            &elab.netlist,
            circuit.name(),
            config,
        ));
    }
    report
}

/// Parses `.ckt` circuit text and runs [`lint_full`] on the result.
///
/// Parse errors become a `B000` diagnostic naming `origin` (a file name or
/// other label for messages) — malformed input yields a failing report,
/// never a panic.
pub fn lint_ckt_text(origin: &str, text: &str, config: &LintConfig) -> Report {
    match bibs_rtl::fmt::from_text(text) {
        Ok(circuit) => lint_full(&circuit, config),
        Err(e) => {
            let mut report = Report::new();
            report.emit(
                config,
                "B000",
                format!("cannot parse circuit {origin}: {e}"),
                e.to_string(),
            );
            report
        }
    }
}

/// Parses `.bench` netlist text and lints the result.
///
/// A file carrying an `# rtl:` sidecar (see [`bibs_datapath::front`])
/// recovers its register-transfer view and gets the full RTL + design
/// pipeline of [`lint_full`]; a plain gate-level file gets the netlist
/// passes ([`lint_netlist`], plus [`lint_netlist_semantic`] when
/// `config.semantic` is set). Parse and sidecar errors become a `B000`
/// diagnostic naming `origin` — malformed input yields a failing report,
/// never a panic.
pub fn lint_bench_text(origin: &str, text: &str, config: &LintConfig) -> Report {
    match bibs_datapath::front::load_bench_text(text) {
        Ok(loaded) => match loaded.circuit() {
            Some(circuit) => {
                let mut report = lint_full(circuit, config);
                // Cross-check the sidecar's RTL view against the file's
                // own gate-level netlist (B054) and run the sequential
                // passes on what the file actually carries.
                report.merge(lint_seq(Some(circuit), loaded.netlist(), origin, config));
                report
            }
            None => {
                let mut report = lint_netlist(loaded.netlist(), config);
                if config.semantic {
                    report.merge(lint_netlist_semantic(loaded.netlist(), origin, config));
                }
                report.merge(lint_seq(None, loaded.netlist(), origin, config));
                report
            }
        },
        Err(e) => {
            let mut report = Report::new();
            report.emit(
                config,
                "B000",
                format!("cannot parse netlist {origin}: {e}"),
                e.to_string(),
            );
            report
        }
    }
}

/// Parses Verilog netlist text (the subset written by
/// [`bibs_netlist::verilog`]) and lints the result: the netlist passes,
/// the semantic passes when `config.semantic` is set, and the sequential
/// X-safety passes. Parse errors become a `B000` diagnostic naming
/// `origin`.
pub fn lint_verilog_text(origin: &str, text: &str, config: &LintConfig) -> Report {
    match bibs_datapath::front::load_verilog_text(text) {
        Ok(loaded) => {
            let mut report = lint_netlist(loaded.netlist(), config);
            if config.semantic {
                report.merge(lint_netlist_semantic(loaded.netlist(), origin, config));
            }
            report.merge(lint_seq(None, loaded.netlist(), origin, config));
            report
        }
        Err(e) => {
            let mut report = Report::new();
            report.emit(
                config,
                "B000",
                format!("cannot parse Verilog {origin}: {e}"),
                e.to_string(),
            );
            report
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bad_text_is_a_b000_report_not_a_panic() {
        let cfg = LintConfig::new();
        let report = lint_ckt_text("garbage.ckt", "circuit ???\nnot a line", &cfg);
        assert!(report.has_code("B000"), "{report}");
        assert!(!report.is_clean());
    }

    #[test]
    fn paper_filters_lint_clean_under_deny_warnings() {
        let mut cfg = LintConfig::new();
        cfg.deny_warnings = true;
        for circuit in [
            bibs_datapath::filters::c5a2m(),
            bibs_datapath::filters::c3a2m(),
            bibs_datapath::filters::c4a4m(),
            bibs_datapath::fig9::figure9(),
        ] {
            let report = lint_full(&circuit, &cfg);
            assert!(
                report.is_clean(),
                "{} should lint clean:\n{report}",
                circuit.name()
            );
        }
    }

    #[test]
    fn bad_bench_is_a_b000_report_not_a_panic() {
        let cfg = LintConfig::new();
        for bad in [
            "o = FROB(a)\n",                        // unknown gate
            "INPUT(a)\no = NOT(a, a)\nOUTPUT(o)\n", // bad arity
            "INPUT(a)\na = NOT(a)\n",               // double drive
        ] {
            let report = lint_bench_text("bad.bench", bad, &cfg);
            assert!(report.has_code("B000"), "{bad:?}:\n{report}");
            assert!(!report.is_clean());
        }
    }

    #[test]
    fn plain_bench_gets_the_netlist_passes() {
        let cfg = LintConfig::new();
        let nl = bibs_datapath::elab::elaborate_whole(&bibs_datapath::filters::scaled("c5a2m", 2))
            .unwrap()
            .netlist;
        let text = bibs_netlist::bench::to_text(&nl);
        let report = lint_bench_text("c5a2m.bench", &text, &cfg);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn sidecar_bench_gets_the_full_rtl_pipeline() {
        let cfg = LintConfig::new();
        let circuit = bibs_datapath::filters::scaled("c5a2m", 2);
        let text = bibs_datapath::front::bench_with_rtl(&circuit).unwrap();
        let report = lint_bench_text("c5a2m.bench", &text, &cfg);
        assert!(report.is_clean(), "{report}");
    }
}
