//! BITS-style test-controller synthesis.
//!
//! The authors' BITS system "synthesizes a test controller" after test
//! scheduling. This module produces that controller as an explicit FSM:
//! one step per test session, each step holding every converted register
//! in the right BILBO mode for the right number of cycles, with a final
//! signature-readout step.

use crate::design::{BilboDesign, Kernel};
use crate::schedule::TestSession;
use bibs_lfsr::bilbo::BilboMode;
use bibs_rtl::{Circuit, EdgeId};
use std::collections::BTreeMap;
use std::fmt;

/// One controller step: a session held for a fixed number of cycles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ControllerStep {
    /// Human-readable step name.
    pub name: String,
    /// Cycles spent in this step.
    pub cycles: u64,
    /// The BILBO mode of every converted register during the step.
    pub modes: BTreeMap<EdgeId, BilboMode>,
}

/// A synthesized test controller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TestController {
    /// The steps, in execution order.
    pub steps: Vec<ControllerStep>,
}

impl TestController {
    /// Total test time in cycles.
    pub fn total_cycles(&self) -> u64 {
        self.steps.iter().map(|s| s.cycles).sum()
    }

    /// FSM state-register width: `ceil(log2(steps + 1))` bits (one idle
    /// state plus one state per step).
    pub fn state_bits(&self) -> u32 {
        let states = self.steps.len() as u64 + 1;
        64 - (states - 1).leading_zeros()
    }
}

impl fmt::Display for TestController {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "test controller: {} steps, {} cycles, {}-bit state register",
            self.steps.len(),
            self.total_cycles(),
            self.state_bits()
        )?;
        for (i, s) in self.steps.iter().enumerate() {
            writeln!(f, "  step {i}: {} ({} cycles)", s.name, s.cycles)?;
        }
        Ok(())
    }
}

/// Synthesizes a controller from a schedule.
///
/// `kernel_patterns[k]` is the number of patterns kernel `k` needs; each
/// session lasts for its longest kernel's pattern count plus the kernel's
/// flush depth (`2^M − 1 + d` accounting is the caller's choice of
/// pattern count). Registers not active in a session stay in
/// [`BilboMode::Normal`]; after each session a scan-out step shifts the
/// signatures (one cycle per signature bit).
pub fn synthesize(
    circuit: &Circuit,
    design: &BilboDesign,
    kernels: &[Kernel],
    sessions: &[TestSession],
    kernel_patterns: &[u64],
) -> TestController {
    let mut steps = Vec::new();
    for (si, session) in sessions.iter().enumerate() {
        let mut modes: BTreeMap<EdgeId, BilboMode> = BTreeMap::new();
        for &e in design.bilbo.iter().chain(&design.cbilbo) {
            modes.insert(e, BilboMode::Normal);
        }
        let mut cycles = 0u64;
        let mut sig_bits = 0u64;
        for &k in &session.kernels {
            let kernel = &kernels[k];
            for &e in &kernel.input_edges {
                modes.insert(e, BilboMode::Generate);
            }
            for &e in &kernel.output_edges {
                modes.insert(e, BilboMode::Compress);
                sig_bits += circuit.edge(e).kind.width().unwrap_or(0) as u64;
            }
            // CBILBOs generate and compress at once; mark them Generate
            // (the compress half is implicit in the model).
            let depth = kernel.sequential_depth(circuit, design) as u64;
            cycles = cycles.max(kernel_patterns[k] + depth);
        }
        steps.push(ControllerStep {
            name: format!("session {si}: apply patterns"),
            cycles,
            modes: modes.clone(),
        });
        // Signature read-out: shift all session SAs out serially.
        let mut scan_modes = modes;
        for v in scan_modes.values_mut() {
            if *v == BilboMode::Compress {
                *v = BilboMode::Scan;
            } else {
                *v = BilboMode::Normal;
            }
        }
        steps.push(ControllerStep {
            name: format!("session {si}: scan signatures"),
            cycles: sig_bits,
            modes: scan_modes,
        });
    }
    TestController { steps }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::kernels;
    use crate::ka85;
    use crate::schedule::schedule;
    use bibs_datapath::filters::c5a2m;

    #[test]
    fn controller_covers_all_sessions() {
        let c = c5a2m();
        let design = ka85::select(&c).unwrap();
        let ks: Vec<_> = kernels(&c, &design)
            .into_iter()
            .filter(|k| k.has_logic(&c))
            .collect();
        let sessions = schedule(&design, &ks);
        let patterns: Vec<u64> = ks.iter().map(|_| 100).collect();
        let ctrl = synthesize(&c, &design, &ks, &sessions, &patterns);
        assert_eq!(ctrl.steps.len(), sessions.len() * 2);
        assert!(ctrl.total_cycles() > 200, "patterns plus scan-out");
        assert!(ctrl.state_bits() >= 2);
        // Every pattern step holds at least one register in Generate and
        // one in Compress.
        for step in ctrl.steps.iter().step_by(2) {
            assert!(step.modes.values().any(|&m| m == BilboMode::Generate));
            assert!(step.modes.values().any(|&m| m == BilboMode::Compress));
        }
        let text = ctrl.to_string();
        assert!(text.contains("test controller"));
    }
}
