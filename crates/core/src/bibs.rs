//! The BIBS TDM: selecting a minimum-cost set of registers to convert to
//! BILBO registers so that every kernel is balanced BISTable.
//!
//! The paper states the selection procedure itself as ongoing work ("a
//! polynomial time algorithm for generating minimal cost BIBS testable
//! design has been implemented for a class of circuits"); this module
//! implements a complete **violation-driven best-first search**:
//!
//! 1. PI- and PO-adjacent registers are always converted (they are the
//!    first TPGs and last SAs of any BILBO-style test);
//! 2. repeatedly find a Definition-1 violation of the current design — a
//!    kernel cycle, a kernel imbalance (URFS), or a TPG/SA port conflict
//!    (Theorem 2) — and branch on the register edges that can repair it;
//! 3. explore candidate cut sets in order of increasing flip-flop cost, so
//!    the first valid design found is minimum-cost.
//!
//! Every valid design must contain, for each violation exhibited by any of
//! its subsets, at least one of that violation's candidate registers; this
//! makes the branching complete and the best-first order optimal. A node
//! budget caps the exact search; beyond it a greedy repair loop
//! (add-all-candidates per violation) finishes the job.
//!
//! Cycles containing a single register edge cannot be repaired by plain
//! conversions; per the paper they take either a **CBILBO** or an **extra
//! transparent register** ([`SingleRegisterCycleFix`]).

use crate::design::{find_violation, BilboDesign, Violation};
use bibs_rtl::{Circuit, EdgeId, EdgeKind, VertexKind};
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, HashSet};
use std::fmt;

/// How to repair a cycle that contains only one register edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SingleRegisterCycleFix {
    /// Convert the lone register to a CBILBO (test hardware on the register
    /// itself doubles, but the circuit structure is unchanged).
    #[default]
    Cbilbo,
    /// Insert an extra register — transparent in functional mode, an LFSR
    /// stage in test mode — by splitting the lone register edge.
    SplitRegister,
}

/// Options for [`select`].
#[derive(Debug, Clone)]
pub struct BibsOptions {
    /// Node budget for the exact best-first search; the greedy repair loop
    /// takes over beyond it.
    pub max_nodes: usize,
    /// Repair strategy for single-register cycles.
    pub cycle_fix: SingleRegisterCycleFix,
    /// Search cost of converting one flip-flop to a plain BILBO cell
    /// (default 10, i.e. ~7.9 gate equivalents added per bit under the
    /// default [`bibs_lfsr::bilbo::AreaModel`], scaled).
    pub bilbo_cost_per_bit: u32,
    /// Search cost of converting one flip-flop to a CBILBO cell (default
    /// 24 ≈ 2.4× a plain conversion, matching the area model's 19 vs 7.9
    /// added gate equivalents — the paper calls CBILBO hardware
    /// "significant").
    pub cbilbo_cost_per_bit: u32,
    /// Upper bound on any kernel's input width `M` (sum of its TPG
    /// register widths). `None` leaves width unconstrained. The paper
    /// motivates this knob in Section 2: "when the input width of a kernel
    /// is large, say n equals 40 ..., it may not be feasible to apply all
    /// possible test patterns"; bounding `M` trades test hardware for
    /// test time, yielding the family of designs the paper's Section 3.4
    /// discussion alludes to.
    pub max_kernel_width: Option<u32>,
}

impl Default for BibsOptions {
    fn default() -> Self {
        BibsOptions {
            max_nodes: 20_000,
            cycle_fix: SingleRegisterCycleFix::default(),
            bilbo_cost_per_bit: 10,
            cbilbo_cost_per_bit: 24,
            max_kernel_width: None,
        }
    }
}

/// The outcome of BIBS register selection.
#[derive(Debug, Clone)]
pub struct BibsResult {
    /// The circuit the design applies to. Identical to the input unless
    /// [`SingleRegisterCycleFix::SplitRegister`] inserted registers.
    pub circuit: Circuit,
    /// The selected conversions.
    pub design: BilboDesign,
    /// Nodes expanded by the exact search.
    pub nodes_expanded: usize,
    /// Whether the greedy fallback finished the selection (the result may
    /// then be suboptimal).
    pub greedy_fallback: bool,
}

/// Errors from [`select`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BibsError {
    /// A primary input or output connects to logic without an intervening
    /// register, so no register is available to serve as its TPG/SA. Run
    /// [`ensure_io_registers`] first.
    UnbufferedIo {
        /// The offending edge.
        edge: EdgeId,
    },
}

impl fmt::Display for BibsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BibsError::UnbufferedIo { edge } => {
                write!(f, "primary I/O on edge {edge} has no register to convert")
            }
        }
    }
}

impl std::error::Error for BibsError {}

/// Replaces every wire edge that touches a primary input or output with a
/// register edge of the given width, so the circuit satisfies the BILBO
/// methodology's assumption that all I/O is registered.
///
/// Returns the edges that were converted.
pub fn ensure_io_registers(circuit: &mut Circuit, width: u32) -> Vec<EdgeId> {
    let mut converted = Vec::new();
    for e in circuit.edge_ids().collect::<Vec<_>>() {
        let (from, to, kind) = {
            let edge = circuit.edge(e);
            (edge.from, edge.to, edge.kind)
        };
        if kind != EdgeKind::Wire {
            continue;
        }
        let touches_io = circuit.vertex(from).kind == VertexKind::Input
            || circuit.vertex(to).kind == VertexKind::Output;
        if touches_io {
            circuit.convert_wire_to_register(e, format!("Rio{}", e.index()), width);
            converted.push(e);
        }
    }
    converted
}

/// The mandatory conversions: all registers adjacent to primary inputs or
/// outputs.
pub fn mandatory_io_registers(circuit: &Circuit) -> Result<BTreeSet<EdgeId>, BibsError> {
    let mut out = BTreeSet::new();
    for e in circuit.edge_ids() {
        let edge = circuit.edge(e);
        let touches_io = circuit.vertex(edge.from).kind == VertexKind::Input
            || circuit.vertex(edge.to).kind == VertexKind::Output;
        if !touches_io {
            continue;
        }
        match edge.kind {
            EdgeKind::Register { .. } => {
                out.insert(e);
            }
            EdgeKind::Wire => return Err(BibsError::UnbufferedIo { edge: e }),
        }
    }
    Ok(out)
}

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct SearchState {
    extra: BTreeSet<EdgeId>,
    cbilbo: BTreeSet<EdgeId>,
}

/// Runs BIBS register selection on `circuit`.
///
/// # Errors
///
/// Returns [`BibsError::UnbufferedIo`] if a primary input or output is not
/// register-buffered; call [`ensure_io_registers`] first in that case.
pub fn select(circuit: &Circuit, options: &BibsOptions) -> Result<BibsResult, BibsError> {
    let mut circuit = circuit.clone();
    let mandatory = mandatory_io_registers(&circuit)?;

    let width = |c: &Circuit, e: EdgeId| c.edge(e).kind.width().unwrap_or(0);
    let cost = |c: &Circuit, s: &SearchState| -> u64 {
        let b: u64 = s.extra.iter().map(|&e| width(c, e) as u64).sum();
        let cb: u64 = s.cbilbo.iter().map(|&e| width(c, e) as u64).sum();
        b * options.bilbo_cost_per_bit as u64 + cb * options.cbilbo_cost_per_bit as u64
    };
    let make_design = |s: &SearchState| -> BilboDesign {
        let mut d = BilboDesign::new();
        d.bilbo = mandatory
            .union(&s.extra)
            .copied()
            .filter(|e| !s.cbilbo.contains(e))
            .collect();
        d.cbilbo = s.cbilbo.clone();
        d
    };

    let mut heap: BinaryHeap<Reverse<(u64, SearchState)>> = BinaryHeap::new();
    let mut seen: HashSet<SearchState> = HashSet::new();
    let initial = SearchState {
        extra: BTreeSet::new(),
        cbilbo: BTreeSet::new(),
    };
    heap.push(Reverse((0, initial)));
    let mut nodes = 0usize;

    while let Some(Reverse((c, state))) = heap.pop() {
        if !seen.insert(state.clone()) {
            continue;
        }
        nodes += 1;
        if nodes > options.max_nodes {
            // Greedy completion from the cheapest frontier state.
            let (design, circuit) = greedy_complete(circuit, make_design(&state), options);
            return Ok(BibsResult {
                circuit,
                design,
                nodes_expanded: nodes,
                greedy_fallback: true,
            });
        }
        let design = make_design(&state);
        let violation = find_violation(&circuit, &design)
            .or_else(|| width_violation(&circuit, &design, options.max_kernel_width));
        let Some(violation) = violation else {
            return Ok(BibsResult {
                circuit,
                design,
                nodes_expanded: nodes,
                greedy_fallback: false,
            });
        };
        let candidates = violation_candidates(&violation);
        // A port conflict can always alternatively be repaired by making
        // the conflicted register a CBILBO (or, for wire-only connections
        // where no candidate register exists, by splitting it). Offer that
        // branch so CBILBO-optimal designs are reachable.
        if let Violation::PortConflict { register, .. } = violation {
            match options.cycle_fix {
                SingleRegisterCycleFix::Cbilbo => {
                    let mut next = state.clone();
                    next.extra.remove(&register);
                    // The register may be mandatory; CBILBO supersedes.
                    next.cbilbo.insert(register);
                    let nc = cost(&circuit, &next);
                    heap.push(Reverse((nc, next)));
                }
                SingleRegisterCycleFix::SplitRegister if candidates.is_empty() => {
                    // Mutating the shared circuit invalidates fairness
                    // across branches, but splits are rare and strictly
                    // necessary for every branch containing `register`.
                    let new_edge = circuit
                        .split_register_edge(register, &format!("Rsplit{}", register.index()));
                    let mut next = state.clone();
                    next.extra.insert(new_edge);
                    let nc = cost(&circuit, &next);
                    heap.push(Reverse((nc, next)));
                }
                SingleRegisterCycleFix::SplitRegister => {}
            }
        }
        for cand in candidates {
            if state.extra.contains(&cand) || state.cbilbo.contains(&cand) {
                continue;
            }
            let mut next = state.clone();
            next.extra.insert(cand);
            let nc = cost(&circuit, &next);
            debug_assert!(nc >= c);
            heap.push(Reverse((nc, next)));
        }
    }
    // Heap exhausted: every branch ended in unrepairable violations.
    // Complete greedily from scratch (CBILBO everything conflicted).
    let (design, circuit) = greedy_complete(
        circuit,
        {
            let mut d = BilboDesign::new();
            d.bilbo = mandatory;
            d
        },
        options,
    );
    Ok(BibsResult {
        circuit,
        design,
        nodes_expanded: nodes,
        greedy_fallback: true,
    })
}

/// Treats an over-wide kernel as a repairable violation: its internal
/// register edges are the cut candidates (any design whose kernels all
/// respect the bound must cut at least one of them).
fn width_violation(
    circuit: &Circuit,
    design: &BilboDesign,
    max_width: Option<u32>,
) -> Option<Violation> {
    let max_width = max_width?;
    for kernel in crate::design::kernels(circuit, design) {
        if kernel.input_width(circuit) <= max_width {
            continue;
        }
        let internal: Vec<EdgeId> = circuit
            .edge_ids()
            .filter(|&e| circuit.edge(e).is_register() && kernel.holds(circuit, design, e))
            .collect();
        // A kernel with no internal register cannot be narrowed; skip it
        // (infeasible bound — the caller sees the width in the result).
        if !internal.is_empty() {
            return Some(Violation::KernelTooWide {
                width: kernel.input_width(circuit),
                limit: max_width,
                internal_registers: internal,
            });
        }
    }
    None
}

fn violation_candidates(v: &Violation) -> Vec<EdgeId> {
    match v {
        Violation::KernelCycle {
            cycle_registers, ..
        } => cycle_registers.clone(),
        Violation::KernelImbalance { path_registers, .. } => path_registers.clone(),
        Violation::KernelTooWide {
            internal_registers, ..
        } => internal_registers.clone(),
        Violation::PortConflict { path_registers, .. } => path_registers.clone(),
    }
}

fn greedy_complete(
    mut circuit: Circuit,
    mut design: BilboDesign,
    options: &BibsOptions,
) -> (BilboDesign, Circuit) {
    loop {
        let violation = find_violation(&circuit, &design)
            .or_else(|| width_violation(&circuit, &design, options.max_kernel_width));
        let Some(violation) = violation else {
            return (design, circuit);
        };
        let candidates = violation_candidates(&violation);
        if candidates.is_empty() {
            if let Violation::PortConflict { register, .. } = violation {
                match options.cycle_fix {
                    SingleRegisterCycleFix::Cbilbo => {
                        design.bilbo.remove(&register);
                        design.cbilbo.insert(register);
                    }
                    SingleRegisterCycleFix::SplitRegister => {
                        let new_edge = circuit
                            .split_register_edge(register, &format!("Rsplit{}", register.index()));
                        design.bilbo.insert(new_edge);
                    }
                }
            } else {
                // No way forward; return the best effort.
                return (design, circuit);
            }
        } else {
            design.bilbo.extend(candidates);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::{is_bibs_testable, kernels};
    use bibs_rtl::CircuitBuilder;

    #[test]
    fn balanced_pipeline_needs_only_io_registers() {
        let mut b = CircuitBuilder::new("pipe");
        let pi = b.input("PI");
        let c1 = b.logic("C1");
        let c2 = b.logic("C2");
        let po = b.output("PO");
        b.register("R1", 8, pi, c1);
        b.register("R2", 8, c1, c2);
        b.register("R3", 8, c2, po);
        let c = b.finish().unwrap();
        let result = select(&c, &BibsOptions::default()).unwrap();
        assert!(!result.greedy_fallback);
        assert_eq!(result.design.register_count(), 2, "only R1 and R3");
        assert!(is_bibs_testable(&result.circuit, &result.design));
        assert_eq!(kernels(&result.circuit, &result.design).len(), 1);
    }

    #[test]
    fn two_register_cycle_gets_both_cut() {
        let mut b = CircuitBuilder::new("cyc");
        let pi = b.input("PI");
        let f = b.logic("F");
        let h = b.logic("H");
        let po = b.output("PO");
        b.register("Rin", 4, pi, f);
        b.register("Rfh", 4, f, h);
        b.register("Rhf", 4, h, f);
        b.register("Rout", 4, h, po);
        let c = b.finish().unwrap();
        let result = select(&c, &BibsOptions::default()).unwrap();
        assert!(is_bibs_testable(&result.circuit, &result.design));
        // Theorem 2: both cycle registers must be converted.
        assert!(result
            .design
            .bilbo
            .contains(&c.register_by_name("Rfh").unwrap()));
        assert!(result
            .design
            .bilbo
            .contains(&c.register_by_name("Rhf").unwrap()));
        assert_eq!(result.design.register_count(), 4);
    }

    #[test]
    fn single_register_cycle_takes_cbilbo() {
        let mut b = CircuitBuilder::new("self");
        let pi = b.input("PI");
        let f = b.logic("F");
        let po = b.output("PO");
        b.register("Rin", 4, pi, f);
        b.register("Rloop", 4, f, f);
        b.register("Rout", 4, f, po);
        let c = b.finish().unwrap();
        let result = select(&c, &BibsOptions::default()).unwrap();
        assert!(is_bibs_testable(&result.circuit, &result.design));
        let rloop = c.register_by_name("Rloop").unwrap();
        assert!(
            result.design.cbilbo.contains(&rloop),
            "lone cycle register becomes CBILBO"
        );
    }

    #[test]
    fn single_register_cycle_split_alternative() {
        let mut b = CircuitBuilder::new("self");
        let pi = b.input("PI");
        let f = b.logic("F");
        let po = b.output("PO");
        b.register("Rin", 4, pi, f);
        b.register("Rloop", 4, f, f);
        b.register("Rout", 4, f, po);
        let c = b.finish().unwrap();
        let options = BibsOptions {
            cycle_fix: SingleRegisterCycleFix::SplitRegister,
            ..BibsOptions::default()
        };
        let result = select(&c, &options).unwrap();
        assert!(is_bibs_testable(&result.circuit, &result.design));
        assert_eq!(
            result.circuit.register_edges().count(),
            c.register_edges().count() + 1,
            "one transparent register inserted"
        );
        assert!(result.design.cbilbo.is_empty());
    }

    #[test]
    fn width_bound_recovers_the_ka85_partition() {
        // Bounding kernel width to 16 bits on c5a2m forces per-block
        // kernels — exactly the Krasniewski-Albicki design, found here by
        // cost-optimal search instead of by rule.
        use bibs_datapath::filters::c5a2m;
        let circuit = c5a2m();
        let options = BibsOptions {
            max_kernel_width: Some(16),
            ..BibsOptions::default()
        };
        let result = select(&circuit, &options).unwrap();
        assert!(is_bibs_testable(&result.circuit, &result.design));
        assert_eq!(result.design.register_count(), 15);
        let ks = kernels(&result.circuit, &result.design);
        for k in &ks {
            assert!(k.input_width(&result.circuit) <= 16);
        }
    }

    #[test]
    fn unbuffered_io_is_an_error_until_fixed() {
        let mut b = CircuitBuilder::new("raw");
        let pi = b.input("PI");
        let c1 = b.logic("C1");
        let po = b.output("PO");
        b.wire(pi, c1);
        b.register("R", 4, c1, po);
        let mut c = b.finish().unwrap();
        assert!(matches!(
            select(&c, &BibsOptions::default()),
            Err(BibsError::UnbufferedIo { .. })
        ));
        let converted = ensure_io_registers(&mut c, 4);
        assert_eq!(converted.len(), 1);
        let result = select(&c, &BibsOptions::default()).unwrap();
        assert!(is_bibs_testable(&result.circuit, &result.design));
    }

    #[test]
    fn single_register_urfs_needs_cbilbo() {
        // F feeds C directly and through register R: an URFS whose only
        // register edge is R. By Theorem 2 an URFS needs two BILBO edges,
        // but this one has a single register — converting R alone leaves R
        // fed by and feeding the same kernel (F and C stay wire-connected),
        // so only a CBILBO can repair it.
        let mut b = CircuitBuilder::new("imb");
        let pi = b.input("PI");
        let f = b.fanout("F");
        let cblk = b.logic("C");
        let po = b.output("PO");
        b.register("Rin", 8, pi, f);
        b.wire(f, cblk);
        b.register("R", 8, f, cblk);
        b.register("Rout", 8, cblk, po);
        let c = b.finish().unwrap();
        let result = select(&c, &BibsOptions::default()).unwrap();
        assert!(is_bibs_testable(&result.circuit, &result.design));
        assert!(result
            .design
            .cbilbo
            .contains(&c.register_by_name("R").unwrap()));
    }

    #[test]
    fn two_register_urfs_cuts_the_cheaper_register() {
        // Two parallel register paths of unequal length from F to C: the
        // imbalance can be fixed by cutting either the 8-bit register or
        // one of the two 2-bit registers; best-first search must pick a
        // 2-bit one.
        let mut b = CircuitBuilder::new("imb2");
        let pi = b.input("PI");
        let f = b.fanout("F");
        let v = b.vacuous("V");
        let cblk = b.logic("C");
        let po = b.output("PO");
        b.register("Rin", 8, pi, f);
        b.register("Rwide", 8, f, cblk);
        b.register("Rn1", 2, f, v);
        b.register("Rn2", 2, v, cblk);
        b.register("Rout", 8, cblk, po);
        let c = b.finish().unwrap();
        let result = select(&c, &BibsOptions::default()).unwrap();
        assert!(is_bibs_testable(&result.circuit, &result.design));
        assert!(!result.greedy_fallback);
        // The cost-optimal repair converts both 2-bit registers (Theorem 2:
        // two BILBO edges on the URFS), cost 2·2·10 = 40, beating both a
        // 2-bit CBILBO (48) and any cut involving the 8-bit register.
        assert!(result.design.cbilbo.is_empty());
        let extra: Vec<String> = result
            .design
            .bilbo
            .iter()
            .filter_map(|&e| c.edge(e).name.clone())
            .filter(|n| n.starts_with("Rn") || n == "Rwide")
            .collect();
        assert_eq!(extra, vec!["Rn1".to_string(), "Rn2".to_string()]);
    }
}
