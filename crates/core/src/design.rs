//! BILBO designations, kernel extraction and the balanced BISTable
//! predicate (Definition 1 of the paper).
//!
//! [`Kernel::violations`] is the one place that decides Definition 1:
//! register selection ([`crate::bibs::select`], through [`find_violation`])
//! and lint B020–B022 both read its answer.

use bibs_lfsr::bilbo::AreaModel;
use bibs_rtl::{Circuit, EdgeId, PairImbalance, VertexId, VertexKind};
use std::collections::BTreeSet;
use std::fmt;

/// A set of register-to-BILBO conversions applied to a circuit.
///
/// `bilbo` edges become ordinary BILBO registers (TPG *or* SA, one at a
/// time); `cbilbo` edges become concurrent BILBOs (ref \[7\]), which may act
/// as TPG and SA simultaneously — the paper uses them "only when necessary
/// since these registers introduce a significant amount of hardware
/// overhead".
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BilboDesign {
    /// Register edges converted to BILBO registers.
    pub bilbo: BTreeSet<EdgeId>,
    /// Register edges converted to CBILBO registers.
    pub cbilbo: BTreeSet<EdgeId>,
}

impl BilboDesign {
    /// An empty design (no conversions).
    pub fn new() -> Self {
        BilboDesign::default()
    }

    /// A design converting exactly the given edges to plain BILBOs.
    pub fn from_bilbos(edges: impl IntoIterator<Item = EdgeId>) -> Self {
        BilboDesign {
            bilbo: edges.into_iter().collect(),
            cbilbo: BTreeSet::new(),
        }
    }

    /// Whether `edge` is converted (BILBO or CBILBO).
    pub fn is_cut(&self, edge: EdgeId) -> bool {
        self.bilbo.contains(&edge) || self.cbilbo.contains(&edge)
    }

    /// Total number of converted registers.
    pub fn register_count(&self) -> usize {
        self.bilbo.len() + self.cbilbo.len()
    }

    /// Total number of converted flip-flops (sum of register widths).
    pub fn flip_flop_count(&self, circuit: &Circuit) -> u32 {
        self.bilbo
            .iter()
            .chain(&self.cbilbo)
            .map(|&e| circuit.edge(e).kind.width().unwrap_or(0))
            .sum()
    }

    /// Area overhead of the conversions in gate equivalents, under `model`.
    pub fn area_overhead(&self, circuit: &Circuit, model: &AreaModel) -> f64 {
        let bilbo_ffs: u32 = self
            .bilbo
            .iter()
            .map(|&e| circuit.edge(e).kind.width().unwrap_or(0))
            .sum();
        let cbilbo_ffs: u32 = self
            .cbilbo
            .iter()
            .map(|&e| circuit.edge(e).kind.width().unwrap_or(0))
            .sum();
        model.conversion_overhead(bilbo_ffs as usize)
            + (model.cbilbo_cell_ge - model.dff_ge) * cbilbo_ffs as f64
    }
}

/// One test kernel: a connected region of the circuit delimited by
/// converted (BILBO/CBILBO) register edges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Kernel {
    /// The blocks inside the kernel (logic, fanout, vacuous vertices).
    pub vertices: BTreeSet<VertexId>,
    /// Converted register edges entering the kernel — its TPGs.
    pub input_edges: Vec<EdgeId>,
    /// Converted register edges leaving the kernel — its SAs.
    pub output_edges: Vec<EdgeId>,
}

impl Kernel {
    /// Whether the kernel holds a logic block: the kernels a test session
    /// covers. A kernel of fanout and vacuous vertices only has nothing
    /// to test.
    pub fn has_logic(&self, circuit: &Circuit) -> bool {
        self.vertices
            .iter()
            .any(|&v| circuit.vertex(v).kind == VertexKind::Logic)
    }

    /// Total input width (sum of input register widths) — the `M` of the
    /// paper's test-time formula `2^M − 1 + d`.
    pub fn input_width(&self, circuit: &Circuit) -> u32 {
        self.input_edges
            .iter()
            .map(|&e| circuit.edge(e).kind.width().unwrap_or(0))
            .sum()
    }

    /// The kernel's sequential depth `d`: the maximum number of internal
    /// register edges on any input-to-output path.
    pub fn sequential_depth(&self, circuit: &Circuit, design: &BilboDesign) -> u32 {
        let keep = |e| self.holds(circuit, design, e);
        let mut depth = 0;
        for &ie in &self.input_edges {
            let src = circuit.edge(ie).to;
            if !self.vertices.contains(&src) {
                continue;
            }
            if let Some(lens) = circuit.seq_lengths_from_filtered(src, keep) {
                for &oe in &self.output_edges {
                    if let Some((_, max)) = lens[circuit.edge(oe).from.index()].range() {
                        depth = depth.max(max);
                    }
                }
            }
        }
        depth
    }

    /// Whether `edge` lies inside the kernel under `design`: the design does
    /// not convert it, and both its ends are kernel vertices. The kernel's
    /// subgraph is the edges this accepts.
    pub fn holds(&self, circuit: &Circuit, design: &BilboDesign, edge: EdgeId) -> bool {
        let e = circuit.edge(edge);
        !design.is_cut(edge) && self.vertices.contains(&e.from) && self.vertices.contains(&e.to)
    }

    /// The kernel's violations of Definition 1, in this order: its cycle,
    /// if it has one (requirement 1); otherwise each imbalanced pair
    /// (requirement 2); then each plain BILBO that both feeds and is fed by
    /// the kernel (requirement 3).
    ///
    /// Lazy: nothing is computed until the first item is asked for, and
    /// each item's repair candidates only when it is reached.
    /// [`find_violation`] takes the first item, lint B020–B022 every one.
    /// [`Violation::KernelTooWide`] is never yielded.
    pub fn violations<'a>(
        &'a self,
        circuit: &'a Circuit,
        design: &'a BilboDesign,
    ) -> impl Iterator<Item = Violation> + 'a {
        let keep = move |e| self.holds(circuit, design, e);
        // Requirements 1 and 2 together say the kernel is balanced; its
        // pairs are only compared once it is known to be acyclic.
        let unbalanced = std::iter::once_with(move || match circuit.find_cycle_filtered(keep) {
            Some(cycle) => (Some(cycle), Vec::new()),
            None => (None, circuit.balance_report_filtered(keep).imbalances),
        })
        .flat_map(move |(cycle, pairs)| {
            let cycle = cycle.map(|cycle| Violation::KernelCycle {
                cycle_registers: cycle
                    .iter()
                    .copied()
                    .filter(|&e| circuit.edge(e).is_register())
                    .collect(),
                cycle,
            });
            let pairs = pairs
                .into_iter()
                .map(move |pair| Violation::KernelImbalance {
                    path_registers: registers_on_paths(circuit, pair.from, pair.to, keep),
                    pair,
                });
            cycle.into_iter().chain(pairs)
        });
        // CBILBOs are exempt from requirement 3: that is their purpose.
        let conflicts = self
            .input_edges
            .iter()
            .filter(move |&&e| {
                !design.cbilbo.contains(&e) && self.vertices.contains(&circuit.edge(e).from)
            })
            .map(move |&register| {
                // The register's head and tail sit in the same kernel, so
                // an undirected path of non-cut edges connects them.
                // Separating the roles requires cutting a register edge on
                // such a path (wire edges cannot be cut) — or making the
                // register a CBILBO.
                let edge = circuit.edge(register);
                Violation::PortConflict {
                    register,
                    path_registers: registers_on_undirected_path(circuit, edge.to, edge.from, keep),
                }
            });
        unbalanced.chain(conflicts)
    }
}

/// Why a design is not BIBS-testable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// A kernel's internal subgraph contains a directed cycle
    /// (Definition 1, requirement 1). Carries the edges of one such cycle.
    KernelCycle {
        /// The offending cycle's edges, in path order.
        cycle: Vec<EdgeId>,
        /// Register edges on the cycle (candidates for cutting).
        cycle_registers: Vec<EdgeId>,
    },
    /// A kernel contains vertices joined by paths of unequal sequential
    /// length (requirement 2 — an URFS survives inside a kernel). Carries
    /// candidate register edges whose conversion can remove the imbalance.
    KernelImbalance {
        /// The pair and its shortest and longest sequential lengths.
        pair: PairImbalance,
        /// Register edges lying on some `pair.from → pair.to` path.
        path_registers: Vec<EdgeId>,
    },
    /// A kernel's input width exceeds a caller-imposed bound (the paper's
    /// Section 2 feasibility concern for functionally exhaustive testing).
    /// Carries the kernel's internal register edges — candidates for
    /// splitting it.
    KernelTooWide {
        /// The offending kernel's input width.
        width: u32,
        /// The imposed bound.
        limit: u32,
        /// Internal register edges that can split the kernel.
        internal_registers: Vec<EdgeId>,
    },
    /// A converted plain-BILBO register both feeds and is fed by the same
    /// kernel (requirement 3): it would have to be TPG and SA
    /// simultaneously. Carries candidate register edges on a return path.
    PortConflict {
        /// The BILBO register with conflicting roles.
        register: EdgeId,
        /// Register edges on a path from the register's head back to its
        /// tail inside the kernel (cutting one separates the roles).
        path_registers: Vec<EdgeId>,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::KernelCycle {
                cycle_registers, ..
            } => {
                write!(
                    f,
                    "kernel cycle through {} register(s)",
                    cycle_registers.len()
                )
            }
            Violation::KernelImbalance { pair, .. } => {
                write!(f, "kernel imbalance between {} and {}", pair.from, pair.to)
            }
            Violation::KernelTooWide { width, limit, .. } => {
                write!(f, "kernel input width {width} exceeds bound {limit}")
            }
            Violation::PortConflict { register, .. } => {
                write!(f, "register {register} would be TPG and SA simultaneously")
            }
        }
    }
}

/// Extracts the kernels induced by a design: weakly connected components
/// of the non-converted subgraph, restricted to block vertices.
pub fn kernels(circuit: &Circuit, design: &BilboDesign) -> Vec<Kernel> {
    let n = circuit.vertex_count();
    let mut comp = vec![usize::MAX; n];
    let mut next = 0usize;
    let is_block = |v: VertexId| {
        !matches!(
            circuit.vertex(v).kind,
            VertexKind::Input | VertexKind::Output
        )
    };
    for start in circuit.vertex_ids() {
        if !is_block(start) || comp[start.index()] != usize::MAX {
            continue;
        }
        let id = next;
        next += 1;
        let mut stack = vec![start];
        comp[start.index()] = id;
        while let Some(v) = stack.pop() {
            let mut visit = |w: VertexId| {
                if is_block(w) && comp[w.index()] == usize::MAX {
                    comp[w.index()] = id;
                    stack.push(w);
                }
            };
            for &e in circuit.out_edges(v) {
                if !design.is_cut(e) {
                    visit(circuit.edge(e).to);
                }
            }
            for &e in circuit.in_edges(v) {
                if !design.is_cut(e) {
                    visit(circuit.edge(e).from);
                }
            }
        }
    }
    let mut out: Vec<Kernel> = (0..next)
        .map(|_| Kernel {
            vertices: BTreeSet::new(),
            input_edges: Vec::new(),
            output_edges: Vec::new(),
        })
        .collect();
    for v in circuit.vertex_ids() {
        if comp[v.index()] != usize::MAX {
            out[comp[v.index()]].vertices.insert(v);
        }
    }
    for e in circuit.edge_ids() {
        if !design.is_cut(e) {
            continue;
        }
        let edge = circuit.edge(e);
        if is_block(edge.to) {
            out[comp[edge.to.index()]].input_edges.push(e);
        }
        if is_block(edge.from) {
            out[comp[edge.from.index()]].output_edges.push(e);
        }
    }
    out
}

/// The first violation of Definition 1: the first that
/// [`Kernel::violations`] yields for the first kernel that has one, or
/// `None` if the design is BIBS-testable.
pub fn find_violation(circuit: &Circuit, design: &BilboDesign) -> Option<Violation> {
    kernels(circuit, design)
        .iter()
        .find_map(|kernel| kernel.violations(circuit, design).next())
}

/// Whether the design makes the circuit BIBS-testable.
pub fn is_bibs_testable(circuit: &Circuit, design: &BilboDesign) -> bool {
    find_violation(circuit, design).is_none()
}

/// Register edges on one undirected path `from ↔ to` in the filtered
/// subgraph (edges may be traversed against their direction). Returns an
/// empty vector when the connecting path is wire-only or no path exists.
fn registers_on_undirected_path(
    circuit: &Circuit,
    from: VertexId,
    to: VertexId,
    keep: impl Fn(EdgeId) -> bool,
) -> Vec<EdgeId> {
    // BFS recording the edge that discovered each vertex.
    let mut pred: Vec<Option<(EdgeId, VertexId)>> = vec![None; circuit.vertex_count()];
    let mut seen = vec![false; circuit.vertex_count()];
    let mut queue = std::collections::VecDeque::new();
    queue.push_back(from);
    seen[from.index()] = true;
    while let Some(v) = queue.pop_front() {
        if v == to {
            let mut regs = Vec::new();
            let mut cur = to;
            while cur != from {
                let (e, prev) = pred[cur.index()].expect("path recorded");
                if circuit.edge(e).is_register() {
                    regs.push(e);
                }
                cur = prev;
            }
            regs.reverse();
            return regs;
        }
        let mut visit =
            |e: EdgeId, w: VertexId, queue: &mut std::collections::VecDeque<VertexId>| {
                if !seen[w.index()] {
                    seen[w.index()] = true;
                    pred[w.index()] = Some((e, v));
                    queue.push_back(w);
                }
            };
        for &e in circuit.out_edges(v) {
            if keep(e) {
                visit(e, circuit.edge(e).to, &mut queue);
            }
        }
        for &e in circuit.in_edges(v) {
            if keep(e) {
                visit(e, circuit.edge(e).from, &mut queue);
            }
        }
    }
    Vec::new()
}

/// Register edges lying on some directed path `from → to` in the filtered
/// subgraph.
fn registers_on_paths(
    circuit: &Circuit,
    from: VertexId,
    to: VertexId,
    keep: impl Fn(EdgeId) -> bool,
) -> Vec<EdgeId> {
    let fwd = circuit.reachable_from_filtered(from, &keep);
    // Backward reachability to `to`.
    let mut back = vec![false; circuit.vertex_count()];
    let mut stack = vec![to];
    back[to.index()] = true;
    while let Some(v) = stack.pop() {
        for &e in circuit.in_edges(v) {
            if keep(e) {
                let w = circuit.edge(e).from;
                if !back[w.index()] {
                    back[w.index()] = true;
                    stack.push(w);
                }
            }
        }
    }
    circuit
        .edge_ids()
        .filter(|&e| {
            keep(e)
                && circuit.edge(e).is_register()
                && fwd[circuit.edge(e).from.index()]
                && back[circuit.edge(e).to.index()]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bibs_rtl::CircuitBuilder;

    /// PI -R1-> C1 -R2-> C2 -R3-> PO.
    fn pipeline() -> Circuit {
        let mut b = CircuitBuilder::new("pipe");
        let pi = b.input("PI");
        let c1 = b.logic("C1");
        let c2 = b.logic("C2");
        let po = b.output("PO");
        b.register("R1", 8, pi, c1);
        b.register("R2", 8, c1, c2);
        b.register("R3", 8, c2, po);
        b.finish().unwrap()
    }

    #[test]
    fn io_cut_yields_single_kernel() {
        let c = pipeline();
        let r1 = c.register_by_name("R1").unwrap();
        let r3 = c.register_by_name("R3").unwrap();
        let design = BilboDesign::from_bilbos([r1, r3]);
        let ks = kernels(&c, &design);
        assert_eq!(ks.len(), 1);
        assert_eq!(ks[0].vertices.len(), 2);
        assert_eq!(ks[0].input_edges, vec![r1]);
        assert_eq!(ks[0].output_edges, vec![r3]);
        assert_eq!(ks[0].input_width(&c), 8);
        assert_eq!(ks[0].sequential_depth(&c, &design), 1);
        assert!(is_bibs_testable(&c, &design));
    }

    #[test]
    fn full_cut_yields_two_kernels() {
        let c = pipeline();
        let design = BilboDesign::from_bilbos(c.register_edges());
        let ks = kernels(&c, &design);
        assert_eq!(ks.len(), 2);
        for k in &ks {
            assert_eq!(k.sequential_depth(&c, &design), 0);
        }
    }

    #[test]
    fn cycle_violation_detected() {
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
        let rin = c.register_by_name("Rin").unwrap();
        let rout = c.register_by_name("Rout").unwrap();
        let design = BilboDesign::from_bilbos([rin, rout]);
        match find_violation(&c, &design) {
            Some(Violation::KernelCycle {
                cycle_registers, ..
            }) => {
                assert_eq!(cycle_registers.len(), 2);
            }
            other => panic!("expected cycle violation, got {other:?}"),
        }
    }

    #[test]
    fn port_conflict_detected_and_cbilbo_exempts() {
        // Cutting only one edge of a two-register cycle gives the TPG/SA
        // conflict of Theorem 2's proof.
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
        let rin = c.register_by_name("Rin").unwrap();
        let rout = c.register_by_name("Rout").unwrap();
        let rfh = c.register_by_name("Rfh").unwrap();
        let design = BilboDesign::from_bilbos([rin, rout, rfh]);
        match find_violation(&c, &design) {
            Some(Violation::PortConflict {
                register,
                path_registers,
            }) => {
                assert_eq!(register, rfh);
                assert_eq!(path_registers, vec![c.register_by_name("Rhf").unwrap()]);
            }
            other => panic!("expected port conflict, got {other:?}"),
        }
        // Making Rfh a CBILBO resolves it (Theorem 2's note).
        let mut design2 = BilboDesign::from_bilbos([rin, rout]);
        design2.cbilbo.insert(rfh);
        assert!(is_bibs_testable(&c, &design2));
    }

    #[test]
    fn imbalance_violation_detected() {
        // fig1-like: F feeds C directly and through a register.
        let mut b = CircuitBuilder::new("imb");
        let pi = b.input("PI");
        let f = b.fanout("F");
        let cblk = b.logic("C");
        let po = b.output("PO");
        b.register("Rin", 4, pi, f);
        b.wire(f, cblk);
        b.register("R", 4, f, cblk);
        b.register("Rout", 4, cblk, po);
        let c = b.finish().unwrap();
        let rin = c.register_by_name("Rin").unwrap();
        let rout = c.register_by_name("Rout").unwrap();
        let design = BilboDesign::from_bilbos([rin, rout]);
        match find_violation(&c, &design) {
            Some(Violation::KernelImbalance { path_registers, .. }) => {
                assert_eq!(path_registers, vec![c.register_by_name("R").unwrap()]);
            }
            other => panic!("expected imbalance, got {other:?}"),
        }
    }

    #[test]
    fn design_accounting() {
        let c = pipeline();
        let design = BilboDesign::from_bilbos(c.register_edges());
        assert_eq!(design.register_count(), 3);
        assert_eq!(design.flip_flop_count(&c), 24);
        let model = AreaModel::default();
        assert!(design.area_overhead(&c, &model) > 0.0);
    }
}
