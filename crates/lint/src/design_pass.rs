//! Design-level lint passes: B020–B026, B030, B031.
//!
//! These run on a circuit **plus** a BILBO selection ([`BilboDesign`]) and
//! check everything the paper demands of a finished BIBS design:
//!
//! * Definition 1 on every kernel — acyclic (B020), balanced (B021), no
//!   TPG/SA port conflict (B022). [`Kernel::violations`] decides it, as it
//!   does for BIBS register selection; this pass only names each violation
//!   and renders its witness (the cycle, the shorter and longer path, the
//!   register's ends);
//! * the TPG built for each kernel — primitive polynomial of the right
//!   degree (B023), legal SC_TPG/MC_TPG cell/offset placement (B024);
//! * a cross-layer cone-support check: the **netlist** support of each
//!   output cone, computed by forward propagation over the elaborated
//!   gates, must be contained in the RTL **cone dependency matrix**
//!   (B025 when the netlist reaches a register the matrix says it cannot,
//!   B026 when the matrix conservatively over-approximates);
//! * a cross-layer sequential-depth check: the generalized structure, the
//!   kernel graph and the elaborated netlist must agree on `d` (B030).
//!
//! Kernels whose elaboration fails (opaque blocks with no gate model, say)
//! are reported as B031 and skipped — the RTL-level checks still run.

use crate::diag::{LintConfig, Report};
use crate::netlist_pass::lint_netlist;
use bibs_core::design::{kernels, BilboDesign, Kernel, Violation};
use bibs_core::fpet::dependency_matrix;
use bibs_core::structure::GeneralizedStructure;
use bibs_core::tpg::mc_tpg;
use bibs_core::verify::precheck;
use bibs_datapath::elab::{elaborate_kernel, ElabResult};
use bibs_netlist::Netlist;
use bibs_rtl::{Circuit, EdgeId};
use std::collections::HashSet;

/// Runs every design-level pass on `circuit` under `design`.
///
/// This is the full cross-layer analysis: per-kernel Definition 1 checks,
/// TPG construction prechecks, netlist elaboration plus the netlist-level
/// passes on each kernel netlist, cone-support and sequential-depth
/// cross-checks.
pub fn lint_design(circuit: &Circuit, design: &BilboDesign, config: &LintConfig) -> Report {
    let mut report = Report::new();
    for (ki, kernel) in kernels(circuit, design).iter().enumerate() {
        lint_kernel(circuit, design, kernel, ki, config, &mut report);
    }
    report
}

/// Names a kernel for messages: `kernel #0 (inputs R1, R2)`.
fn kernel_desc(circuit: &Circuit, kernel: &Kernel, index: usize) -> String {
    let inputs: Vec<String> = kernel
        .input_edges
        .iter()
        .map(|&e| circuit.edge_label(e))
        .collect();
    if inputs.is_empty() {
        format!("kernel #{index}")
    } else {
        format!("kernel #{index} (inputs {})", inputs.join(", "))
    }
}

fn lint_kernel(
    circuit: &Circuit,
    design: &BilboDesign,
    kernel: &Kernel,
    index: usize,
    config: &LintConfig,
    report: &mut Report,
) {
    let kd = kernel_desc(circuit, kernel, index);

    // B020–B022: Definition 1, as `Kernel::violations` decides it.
    let mut structural_ok = true;
    for violation in kernel.violations(circuit, design) {
        structural_ok = false;
        match violation {
            // Requirement 1: the kernel subgraph is acyclic.
            Violation::KernelCycle {
                cycle,
                cycle_registers,
            } => report.emit(
                config,
                "B020",
                format!(
                    "{kd} contains a directed cycle with {} internal register \
                     edge(s); Definition 1 requires acyclic kernels (cut the cycle \
                     with a second BILBO or a CBILBO)",
                    cycle_registers.len()
                ),
                circuit.describe_cycle(&cycle),
            ),
            // Requirement 2: the kernel is balanced. Witness: the concrete
            // shorter/longer register-to-register path pair.
            Violation::KernelImbalance { pair, .. } => {
                let keep = |e| kernel.holds(circuit, design, e);
                let witness = match circuit.witness_paths_filtered(pair.from, pair.to, keep) {
                    Some((short, long)) => format!(
                        "shorter: {}; longer: {}",
                        circuit.describe_path(&short),
                        circuit.describe_path(&long)
                    ),
                    None => pair.describe(circuit),
                };
                report.emit(
                    config,
                    "B021",
                    format!(
                        "{kd} is unbalanced: paths of sequential length {} and {} \
                         join {} to {} (an URFS survives inside the kernel)",
                        pair.min,
                        pair.max,
                        circuit.vertex_name(pair.from),
                        circuit.vertex_name(pair.to)
                    ),
                    witness,
                );
            }
            // Requirement 3: no plain BILBO both feeds and is fed by the
            // same kernel (it would be TPG and SA simultaneously).
            Violation::PortConflict { register, .. } => {
                let edge = circuit.edge(register);
                report.emit(
                    config,
                    "B022",
                    format!(
                        "BILBO register {} both feeds and is fed by {kd}: it would \
                         have to act as TPG and SA simultaneously (make it a \
                         CBILBO or cut the return path)",
                        circuit.edge_label(register)
                    ),
                    format!(
                        "{} : {} -> {}",
                        circuit.edge_label(register),
                        circuit.vertex_name(edge.from),
                        circuit.vertex_name(edge.to)
                    ),
                );
            }
            Violation::KernelTooWide { .. } => {
                unreachable!("a width bound is not part of Definition 1")
            }
        }
    }

    // The TPG and cross-layer passes need a well-formed generalized
    // structure, which only exists for balanced BISTable kernels.
    if !structural_ok || kernel.input_edges.is_empty() || kernel.output_edges.is_empty() {
        return;
    }
    let structure = match GeneralizedStructure::from_kernel(circuit, design, kernel) {
        Ok(s) => s,
        Err(e) => {
            // Balance passed but extraction failed — an URFS the pairwise
            // balance scan did not attribute to this kernel. Report as B021.
            report.emit(
                config,
                "B021",
                format!("{kd} has no generalized structure: {e}"),
                e.to_string(),
            );
            return;
        }
    };

    // B023 / B024 — design the kernel's MC_TPG and precheck it.
    let tpg = mc_tpg(&structure);
    lint_tpg(&kd, &tpg, config, report);

    // Elaborate the kernel to gates for the cross-layer checks.
    let cut: HashSet<EdgeId> = design.bilbo.union(&design.cbilbo).copied().collect();
    let kernel_vertices: HashSet<_> = kernel.vertices.iter().copied().collect();
    let elab = match elaborate_kernel(circuit, &kernel_vertices, &cut) {
        Ok(r) => r,
        Err(e) => {
            report.emit(
                config,
                "B031",
                format!(
                    "{kd} could not be elaborated to gates ({e}); cross-layer \
                     checks skipped"
                ),
                e.to_string(),
            );
            return;
        }
    };

    // The kernel netlist must itself be clean.
    report.merge(lint_netlist(&elab.netlist, config));

    cone_support_check(circuit, kernel, &structure, &elab, &kd, config, report);
    depth_check(
        circuit,
        design,
        kernel,
        &structure,
        &elab.netlist,
        &kd,
        config,
        report,
    );
}

/// B023/B024 — runs the TPG precheck on `tpg` (designed for the kernel
/// described by `what`) and reports failures: polynomial problems (missing,
/// wrong degree, non-primitive — Theorem 4's premise) as `B023`, placement
/// problems (non-consecutive cell labels, windows before the LFSR,
/// duplicate offsets) as `B024`.
pub fn lint_tpg(
    what: &str,
    tpg: &bibs_core::tpg::TpgDesign,
    config: &LintConfig,
    report: &mut Report,
) {
    if let Err(e) = precheck(tpg) {
        let code = if e.is_polynomial_problem() {
            "B023"
        } else {
            "B024"
        };
        report.emit(
            config,
            code,
            format!("TPG designed for {what} fails its precheck: {e}"),
            e.to_string(),
        );
    }
}

/// Computes, for every net of `netlist`, the set of kernel input registers
/// (as a bitmask over `register_count` positions) whose value can reach it,
/// given `input_of`: the register position owning each primary-input net.
///
/// Propagation runs to a fixpoint so flip-flop feedback (should any exist)
/// is handled.
fn net_supports(netlist: &Netlist, input_of: &[Option<usize>]) -> Vec<u64> {
    let mut support = vec![0u64; netlist.net_count()];
    for (ni, &reg) in input_of.iter().enumerate() {
        if let Some(r) = reg {
            support[ni] |= 1u64 << r;
        }
    }
    loop {
        let mut changed = false;
        for gate in netlist.gates() {
            let mut mask = support[gate.output.index()];
            for &i in &gate.inputs {
                mask |= support[i.index()];
            }
            if mask != support[gate.output.index()] {
                support[gate.output.index()] = mask;
                changed = true;
            }
        }
        for ff in netlist.dffs() {
            let mask = support[ff.q.index()] | support[ff.d.index()];
            if mask != support[ff.q.index()] {
                support[ff.q.index()] = mask;
                changed = true;
            }
        }
        if !changed {
            return support;
        }
    }
}

/// B025/B026 — netlist cone support versus the RTL cone dependency matrix.
#[allow(clippy::too_many_arguments)]
pub(crate) fn cone_support_check(
    circuit: &Circuit,
    kernel: &Kernel,
    structure: &GeneralizedStructure,
    elab: &ElabResult,
    kd: &str,
    config: &LintConfig,
    report: &mut Report,
) {
    let nregs = kernel.input_edges.len();
    if nregs > 64 {
        // Bitmask representation overflows; no paper datapath comes close.
        return;
    }
    // Map each primary-input net to its kernel register position. The elab
    // result lists input words in creation order, matching the flat
    // `inputs()` net list; word k belongs to `elab.input_edges[k].0`, which
    // we locate in `kernel.input_edges` BY EdgeId (the orders differ).
    let netlist = &elab.netlist;
    let mut input_of: Vec<Option<usize>> = vec![None; netlist.net_count()];
    let mut bit = 0usize;
    for &(edge, width) in &elab.input_edges {
        let reg = kernel.input_edges.iter().position(|&ke| ke == edge);
        for _ in 0..width {
            let Some(&net) = netlist.inputs().get(bit) else {
                return; // malformed word records; B005 already fired
            };
            input_of[net.index()] = reg;
            bit += 1;
        }
    }
    let support = net_supports(netlist, &input_of);

    let matrix = dependency_matrix(structure);
    // Output words are in elab order too; find each cone's row by EdgeId.
    let mut bit = 0usize;
    for &(edge, width) in &elab.output_edges {
        let mut observed = 0u64;
        for _ in 0..width {
            let Some(&net) = netlist.outputs().get(bit) else {
                return;
            };
            observed |= support[net.index()];
            bit += 1;
        }
        let Some(cone) = kernel.output_edges.iter().position(|&ke| ke == edge) else {
            continue;
        };
        let mut claimed = 0u64;
        for (r, &dep) in matrix[cone].iter().enumerate() {
            if dep {
                claimed |= 1u64 << r;
            }
        }
        let reg_names = |mask: u64| -> String {
            let names: Vec<String> = (0..nregs)
                .filter(|&r| mask & (1 << r) != 0)
                .map(|r| structure.registers[r].name.clone())
                .collect();
            names.join(", ")
        };
        let overclaim = observed & !claimed;
        if overclaim != 0 {
            report.emit(
                config,
                "B025",
                format!(
                    "netlist cone {} of {kd} structurally depends on register(s) \
                     {} that the cone dependency matrix omits; a TPG sized from \
                     the matrix would under-exercise the cone",
                    circuit.edge_label(edge),
                    reg_names(overclaim)
                ),
                format!(
                    "{}: netlist support {{{}}} vs matrix {{{}}}",
                    circuit.edge_label(edge),
                    reg_names(observed),
                    reg_names(claimed)
                ),
            );
        }
        let slack = claimed & !observed;
        if slack != 0 {
            report.emit(
                config,
                "B026",
                format!(
                    "cone dependency matrix over-approximates cone {} of {kd}: \
                     register(s) {} never reach it through the gates (TPG is \
                     conservative, not wrong)",
                    circuit.edge_label(edge),
                    reg_names(slack)
                ),
                format!(
                    "{}: matrix {{{}}} vs netlist support {{{}}}",
                    circuit.edge_label(edge),
                    reg_names(claimed),
                    reg_names(observed)
                ),
            );
        }
    }
}

/// B030 — the three layers must agree on the kernel's sequential depth `d`
/// (the `+ d` of the paper's `2^M − 1 + d` test-time formula).
#[allow(clippy::too_many_arguments)]
pub(crate) fn depth_check(
    circuit: &Circuit,
    design: &BilboDesign,
    kernel: &Kernel,
    structure: &GeneralizedStructure,
    netlist: &Netlist,
    kd: &str,
    config: &LintConfig,
    report: &mut Report,
) {
    let d_structure = structure.sequential_depth();
    let d_kernel = kernel.sequential_depth(circuit, design);
    let d_netlist = netlist.sequential_depth() as u32;
    if d_structure != d_kernel || d_kernel != d_netlist {
        report.emit(
            config,
            "B030",
            format!(
                "sequential depth of {kd} disagrees across layers: generalized \
                 structure says {d_structure}, kernel graph says {d_kernel}, \
                 elaborated netlist says {d_netlist}; the test-time formula \
                 2^M - 1 + d is ill-defined"
            ),
            format!("structure={d_structure} kernel={d_kernel} netlist={d_netlist}"),
        );
    }
}

/// Convenience: `true` if the netlist has a driver record anywhere that is
/// floating — used by tests to confirm elaborated kernels are fully driven.
#[cfg(test)]
pub(crate) fn has_floating(netlist: &Netlist) -> bool {
    netlist
        .net_ids()
        .any(|n| matches!(netlist.driver(n), bibs_netlist::NetDriver::Floating))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::LintConfig;
    use bibs_core::bibs::{select, BibsOptions};
    use bibs_rtl::CircuitBuilder;

    fn cfg() -> LintConfig {
        LintConfig::new()
    }

    /// PI -Rin-> F ={wire, R}=> C -Rout-> PO: the fig1-style URFS.
    fn unbalanced() -> Circuit {
        let mut b = CircuitBuilder::new("urfs");
        let pi = b.input("PI");
        let f = b.fanout("F");
        let c = b.logic("C");
        let po = b.output("PO");
        b.register("Rin", 4, pi, f);
        b.wire(f, c);
        b.register("R", 4, f, c);
        b.register("Rout", 4, c, po);
        b.finish().unwrap()
    }

    #[test]
    fn clean_design_stays_clean() {
        let c = unbalanced();
        let result = select(&c, &BibsOptions::default()).unwrap();
        let report = lint_design(&result.circuit, &result.design, &cfg());
        assert_eq!(report.deny_count(), 0, "{report}");
    }

    /// Each finding as `(code, message, witness)`.
    fn findings(report: &Report) -> Vec<(&str, &str, &str)> {
        report
            .diagnostics
            .iter()
            .map(|d| (d.code, d.message.as_str(), d.witness.as_str()))
            .collect()
    }

    #[test]
    fn kernel_imbalance_is_b021_with_path_pair() {
        let c = unbalanced();
        // Only the IO registers converted: the URFS survives in the kernel.
        let design = BilboDesign::from_bilbos([
            c.register_by_name("Rin").unwrap(),
            c.register_by_name("Rout").unwrap(),
        ]);
        let report = lint_design(&c, &design, &cfg());
        assert_eq!(
            findings(&report),
            [(
                "B021",
                "kernel #0 (inputs Rin[4]) is unbalanced: paths of sequential length 0 \
                 and 1 join F to C (an URFS survives inside the kernel)",
                "shorter: F -> C; longer: F -R[4]-> C"
            )]
        );
    }

    #[test]
    fn kernel_cycle_is_b020_and_port_conflict_b022() {
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
        let io = BilboDesign::from_bilbos([
            c.register_by_name("Rin").unwrap(),
            c.register_by_name("Rout").unwrap(),
        ]);
        let report = lint_design(&c, &io, &cfg());
        assert_eq!(
            findings(&report),
            [(
                "B020",
                "kernel #0 (inputs Rin[4]) contains a directed cycle with 2 internal \
                 register edge(s); Definition 1 requires acyclic kernels (cut the cycle \
                 with a second BILBO or a CBILBO)",
                "F -Rfh[4]-> H -Rhf[4]-> F"
            )]
        );

        // Cutting one cycle edge only: the TPG/SA conflict of Theorem 2.
        let mut one = io.clone();
        one.bilbo.insert(c.register_by_name("Rfh").unwrap());
        let report = lint_design(&c, &one, &cfg());
        assert_eq!(
            findings(&report),
            [(
                "B022",
                "BILBO register Rfh[4] both feeds and is fed by kernel #0 (inputs \
                 Rin[4], Rfh[4]): it would have to act as TPG and SA simultaneously \
                 (make it a CBILBO or cut the return path)",
                "Rfh[4] : F -> H"
            )]
        );

        // CBILBO exempts the register from B022.
        let mut cb = io;
        cb.cbilbo.insert(c.register_by_name("Rfh").unwrap());
        let report = lint_design(&c, &cb, &cfg());
        assert!(!report.has_code("B022"), "{report}");
    }

    #[test]
    fn depths_agree_on_selected_paper_datapath() {
        let c = bibs_datapath::filters::c3a2m();
        let result = select(&c, &BibsOptions::default()).unwrap();
        let report = lint_design(&result.circuit, &result.design, &cfg());
        assert!(!report.has_code("B030"), "{report}");
        assert!(!report.has_code("B025"), "{report}");
    }

    #[test]
    fn non_primitive_polynomial_is_b023() {
        let s = GeneralizedStructure::single_cone("t", &[("R1", 4, 0)]);
        let tpg = mc_tpg(&s);
        assert_eq!(tpg.lfsr_degree(), 4);
        // x^4 + x^2 + 1 = (x^2 + x + 1)^2: reducible, hence not primitive.
        let bad = bibs_lfsr::poly::Polynomial::from_exponents(&[4, 2, 0]);
        let doctored = tpg.with_lfsr(4, bad);
        let mut report = Report::new();
        lint_tpg("kernel t", &doctored, &cfg(), &mut report);
        assert!(report.has_code("B023"), "{report}");
        assert!(
            report
                .with_code("B023")
                .next()
                .unwrap()
                .witness
                .contains("not primitive"),
            "{report}"
        );
        // The genuine design passes.
        let mut clean = Report::new();
        lint_tpg("kernel t", &tpg, &cfg(), &mut clean);
        assert!(clean.diagnostics.is_empty(), "{clean}");
    }

    /// Two input registers feeding one adder: both genuinely reach the
    /// output cone, so a doctored dependency matrix missing one register
    /// must trip B025, and a doctored sequential length must trip B030.
    fn adder_kernel() -> (Circuit, BilboDesign) {
        let mut b = CircuitBuilder::new("addk");
        let p1 = b.input("P1");
        let p2 = b.input("P2");
        let add = b.logic_fn("ADD", bibs_rtl::LogicFunction::Add);
        let po = b.output("PO");
        b.register("R1", 4, p1, add);
        b.register("R2", 4, p2, add);
        b.register("Rout", 4, add, po);
        let c = b.finish().unwrap();
        let design = BilboDesign::from_bilbos([
            c.register_by_name("R1").unwrap(),
            c.register_by_name("R2").unwrap(),
            c.register_by_name("Rout").unwrap(),
        ]);
        (c, design)
    }

    fn kernel_and_elab(c: &Circuit, design: &BilboDesign) -> (Kernel, ElabResult) {
        let ks = kernels(c, design);
        assert_eq!(ks.len(), 1);
        let cut: HashSet<EdgeId> = design.bilbo.union(&design.cbilbo).copied().collect();
        let kv: HashSet<_> = ks[0].vertices.iter().copied().collect();
        let elab = elaborate_kernel(c, &kv, &cut).unwrap();
        (ks.into_iter().next().unwrap(), elab)
    }

    #[test]
    fn doctored_dependency_matrix_is_b025() {
        let (c, design) = adder_kernel();
        let (kernel, elab) = kernel_and_elab(&c, &design);
        let mut s = GeneralizedStructure::from_kernel(&c, &design, &kernel).unwrap();
        // Honest structure: no finding.
        let mut report = Report::new();
        cone_support_check(&c, &kernel, &s, &elab, "kernel #0", &cfg(), &mut report);
        assert!(!report.has_code("B025"), "{report}");
        // Drop R2 from the cone's dependency list: the gates still use it.
        s.cones[0].deps.retain(|d| d.register != 1);
        let mut report = Report::new();
        cone_support_check(&c, &kernel, &s, &elab, "kernel #0", &cfg(), &mut report);
        assert!(report.has_code("B025"), "{report}");
        let d = report.with_code("B025").next().unwrap();
        assert!(d.message.contains("R2"), "{}", d.message);
    }

    #[test]
    fn doctored_seq_len_is_b030() {
        let (c, design) = adder_kernel();
        let (kernel, elab) = kernel_and_elab(&c, &design);
        let mut s = GeneralizedStructure::from_kernel(&c, &design, &kernel).unwrap();
        let mut report = Report::new();
        depth_check(
            &c,
            &design,
            &kernel,
            &s,
            &elab.netlist,
            "kernel #0",
            &cfg(),
            &mut report,
        );
        assert!(!report.has_code("B030"), "{report}");
        // Claim an extra pipeline stage that neither layer below has.
        s.cones[0].deps[0].seq_len += 1;
        let mut report = Report::new();
        depth_check(
            &c,
            &design,
            &kernel,
            &s,
            &elab.netlist,
            "kernel #0",
            &cfg(),
            &mut report,
        );
        assert!(report.has_code("B030"), "{report}");
        assert!(
            report
                .with_code("B030")
                .next()
                .unwrap()
                .witness
                .contains("structure=1"),
            "{report}"
        );
    }

    #[test]
    fn ignored_fanout_operand_is_b026() {
        // A fanout block fed by two TPG registers forwards only its first
        // input; RTL reachability claims the cone sees both. The matrix
        // over-approximates — conservative, so an allow-level B026.
        let mut b = CircuitBuilder::new("fan2");
        let p1 = b.input("P1");
        let p2 = b.input("P2");
        let f = b.fanout("F");
        let po = b.output("PO");
        b.register("R1", 4, p1, f);
        b.register("R2", 4, p2, f);
        b.register("Rout", 4, f, po);
        let c = b.finish().unwrap();
        let design = BilboDesign::from_bilbos([
            c.register_by_name("R1").unwrap(),
            c.register_by_name("R2").unwrap(),
            c.register_by_name("Rout").unwrap(),
        ]);
        let report = lint_design(&c, &design, &cfg());
        assert!(report.has_code("B026"), "{report}");
        assert!(report.is_clean(), "B026 must stay allow-level: {report}");
    }

    #[test]
    fn elaborated_kernels_are_fully_driven() {
        let c = bibs_datapath::filters::c5a2m();
        let result = select(&c, &BibsOptions::default()).unwrap();
        let cut: HashSet<EdgeId> = result
            .design
            .bilbo
            .union(&result.design.cbilbo)
            .copied()
            .collect();
        for kernel in kernels(&result.circuit, &result.design) {
            let kv: HashSet<_> = kernel.vertices.iter().copied().collect();
            let elab = elaborate_kernel(&result.circuit, &kv, &cut).unwrap();
            assert!(!has_floating(&elab.netlist));
        }
    }
}
