//! Structural analyses on circuit graphs: cycles, sequential lengths,
//! balance, and URFS witnesses (Sections 2 and 3 of the paper).

use crate::circuit::{Circuit, EdgeId, VertexId};

/// The sequential length(s) of directed paths from a source vertex to a
/// destination vertex.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SeqLen {
    /// No directed path exists.
    Unreachable,
    /// All paths have the same sequential length (number of register
    /// edges) — the balanced case.
    Exact(u32),
    /// Paths of different sequential lengths exist — an imbalance.
    Conflict {
        /// Shortest path sequential length.
        min: u32,
        /// Longest path sequential length.
        max: u32,
    },
}

impl SeqLen {
    /// The shortest and longest sequential length, if any path exists.
    pub fn range(self) -> Option<(u32, u32)> {
        match self {
            SeqLen::Unreachable => None,
            SeqLen::Exact(d) => Some((d, d)),
            SeqLen::Conflict { min, max } => Some((min, max)),
        }
    }
}

/// A pair of vertices joined by directed paths of unequal sequential
/// lengths — the witness of an **unbalanced reconvergent-fanout structure**
/// (URFS) in the paper's terminology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PairImbalance {
    /// Path source.
    pub from: VertexId,
    /// Path destination.
    pub to: VertexId,
    /// Shortest path sequential length.
    pub min: u32,
    /// Longest path sequential length.
    pub max: u32,
}

impl PairImbalance {
    /// Renders the imbalance with vertex *names* looked up in `circuit`,
    /// e.g. `"FO1 ~> H: paths of sequential length 1 and 2"`.
    pub fn describe(&self, circuit: &Circuit) -> String {
        format!(
            "{} ~> {}: paths of sequential length {} and {}",
            circuit.vertex_name(self.from),
            circuit.vertex_name(self.to),
            self.min,
            self.max
        )
    }
}

/// The result of a balance analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BalanceReport {
    /// Whether the graph is acyclic (a balanced structure must be).
    pub acyclic: bool,
    /// All vertex pairs with paths of unequal sequential length. Empty for
    /// a balanced acyclic circuit.
    pub imbalances: Vec<PairImbalance>,
}

impl BalanceReport {
    /// Whether the circuit is balanced: acyclic with no imbalanced pairs.
    pub fn is_balanced(&self) -> bool {
        self.acyclic && self.imbalances.is_empty()
    }
}

impl Circuit {
    /// Topological order of all vertices, or `None` if the graph has a
    /// directed cycle.
    pub fn topo_order(&self) -> Option<Vec<VertexId>> {
        self.topo_order_filtered(|_| true)
    }

    /// Topological order of the subgraph containing only edges accepted by
    /// `keep`, or `None` if that subgraph has a directed cycle.
    pub fn topo_order_filtered(&self, keep: impl Fn(EdgeId) -> bool) -> Option<Vec<VertexId>> {
        let n = self.vertex_count();
        let mut indeg = vec![0usize; n];
        for e in self.edge_ids() {
            if keep(e) {
                indeg[self.edge(e).to.index()] += 1;
            }
        }
        let mut queue: Vec<VertexId> = self
            .vertex_ids()
            .filter(|v| indeg[v.index()] == 0)
            .collect();
        let mut order = Vec::with_capacity(n);
        while let Some(v) = queue.pop() {
            order.push(v);
            for &eid in self.out_edges(v) {
                if keep(eid) {
                    let to = self.edge(eid).to;
                    indeg[to.index()] -= 1;
                    if indeg[to.index()] == 0 {
                        queue.push(to);
                    }
                }
            }
        }
        if order.len() == n {
            Some(order)
        } else {
            None
        }
    }

    /// Whether the circuit graph is acyclic (the first requirement of a
    /// balanced BISTable structure, Definition 1).
    pub fn is_acyclic(&self) -> bool {
        self.topo_order().is_some()
    }

    /// Finds one directed cycle, returned as its edge sequence, or `None`
    /// if the graph is acyclic.
    ///
    /// Because combinational (wire-only) cycles are rejected at build time,
    /// any returned cycle contains at least one register edge, as the
    /// paper's model requires.
    pub fn find_cycle(&self) -> Option<Vec<EdgeId>> {
        self.find_cycle_filtered(|_| true)
    }

    /// Finds one directed cycle using only edges accepted by `keep`.
    pub fn find_cycle_filtered(&self, keep: impl Fn(EdgeId) -> bool) -> Option<Vec<EdgeId>> {
        // Iterative DFS with colors; the edge stack reconstructs the cycle.
        const WHITE: u8 = 0;
        const GRAY: u8 = 1;
        const BLACK: u8 = 2;
        let n = self.vertex_count();
        let mut color = vec![WHITE; n];
        for start in self.vertex_ids() {
            if color[start.index()] != WHITE {
                continue;
            }
            // Stack of (vertex, next out-edge index); edge_path[k] led to
            // stack[k+1].
            let mut stack: Vec<(VertexId, usize)> = vec![(start, 0)];
            let mut edge_path: Vec<EdgeId> = Vec::new();
            color[start.index()] = GRAY;
            while let Some(&(v, idx)) = stack.last() {
                let outs = self.out_edges(v);
                if idx >= outs.len() {
                    color[v.index()] = BLACK;
                    stack.pop();
                    edge_path.pop();
                    continue;
                }
                stack.last_mut().expect("just peeked").1 += 1;
                let eid = outs[idx];
                if !keep(eid) {
                    continue;
                }
                let to = self.edge(eid).to;
                match color[to.index()] {
                    GRAY => {
                        // Found a cycle: slice the path from `to` onward.
                        let pos = stack
                            .iter()
                            .position(|&(w, _)| w == to)
                            .expect("gray vertex is on the stack");
                        let mut cycle: Vec<EdgeId> = edge_path[pos..].to_vec();
                        cycle.push(eid);
                        return Some(cycle);
                    }
                    WHITE => {
                        color[to.index()] = GRAY;
                        stack.push((to, 0));
                        edge_path.push(eid);
                    }
                    _ => {}
                }
            }
        }
        None
    }

    /// Sequential lengths of paths from `src` to every vertex, or `None` if
    /// a directed cycle is reachable from `src`.
    pub fn seq_lengths_from(&self, src: VertexId) -> Option<Vec<SeqLen>> {
        self.seq_lengths_from_filtered(src, |_| true)
    }

    /// Sequential lengths of paths from `src` in the subgraph of edges
    /// accepted by `keep`.
    ///
    /// Used by kernel-level analyses: passing a filter that cuts BILBO
    /// edges restricts paths to one kernel. Returns `None` if a cycle in
    /// the filtered subgraph is reachable from `src`.
    pub fn seq_lengths_from_filtered(
        &self,
        src: VertexId,
        keep: impl Fn(EdgeId) -> bool,
    ) -> Option<Vec<SeqLen>> {
        let order = self.topo_order_filtered(&keep)?;
        Some(self.seq_lengths_along(&order, src, keep))
    }

    /// Sequential lengths of paths from `src`, propagated over `order`, a
    /// topological order of the subgraph of edges accepted by `keep`.
    fn seq_lengths_along(
        &self,
        order: &[VertexId],
        src: VertexId,
        keep: impl Fn(EdgeId) -> bool,
    ) -> Vec<SeqLen> {
        let mut result = vec![SeqLen::Unreachable; self.vertex_count()];
        result[src.index()] = SeqLen::Exact(0);
        for &v in order {
            let Some((cmin, cmax)) = result[v.index()].range() else {
                continue;
            };
            for &eid in self.out_edges(v) {
                if !keep(eid) {
                    continue;
                }
                let e = self.edge(eid);
                let w = e.kind.seq_len();
                let (min, max) = match result[e.to.index()].range() {
                    None => (cmin + w, cmax + w),
                    Some((min, max)) => (min.min(cmin + w), max.max(cmax + w)),
                };
                result[e.to.index()] = if min == max {
                    SeqLen::Exact(min)
                } else {
                    SeqLen::Conflict { min, max }
                };
            }
        }
        result
    }

    /// Full balance analysis: acyclicity plus every imbalanced vertex pair.
    pub fn balance_report(&self) -> BalanceReport {
        self.balance_report_filtered(|_| true)
    }

    /// Balance analysis restricted to the subgraph of edges accepted by
    /// `keep`: one sort, then lengths from each vertex with a kept out-edge
    /// (any other reaches only itself, so no imbalanced pair starts there).
    pub fn balance_report_filtered(&self, keep: impl Fn(EdgeId) -> bool) -> BalanceReport {
        let keep = &keep;
        let Some(order) = self.topo_order_filtered(keep) else {
            return BalanceReport {
                acyclic: false,
                imbalances: Vec::new(),
            };
        };
        let mut imbalances = Vec::new();
        for src in self.vertex_ids() {
            if !self.out_edges(src).iter().any(|&e| keep(e)) {
                continue;
            }
            let lens = self.seq_lengths_along(&order, src, keep);
            for dst in self.vertex_ids() {
                if let SeqLen::Conflict { min, max } = lens[dst.index()] {
                    imbalances.push(PairImbalance {
                        from: src,
                        to: dst,
                        min,
                        max,
                    });
                }
            }
        }
        BalanceReport {
            acyclic: true,
            imbalances,
        }
    }

    /// Whether the circuit is **balanced**: acyclic, and all directed paths
    /// between every vertex pair have equal sequential length (the first two
    /// requirements of Definition 1).
    pub fn is_balanced(&self) -> bool {
        self.balance_report().is_balanced()
    }

    /// Concrete witness paths for a (potential) imbalance: a
    /// minimum-sequential-length path and a maximum-sequential-length path
    /// from `from` to `to` in the subgraph of edges accepted by `keep`.
    ///
    /// Returns `None` if the filtered subgraph is cyclic or `to` is
    /// unreachable from `from`. For a balanced pair the two paths have equal
    /// sequential length (they may still be distinct edge sequences); for a
    /// [`PairImbalance`] they are the unequal-length pair the paper's URFS
    /// definition talks about. Render them with
    /// [`Circuit::describe_path`].
    pub fn witness_paths_filtered(
        &self,
        from: VertexId,
        to: VertexId,
        keep: impl Fn(EdgeId) -> bool,
    ) -> Option<(Vec<EdgeId>, Vec<EdgeId>)> {
        let order = self.topo_order_filtered(&keep)?;
        let n = self.vertex_count();
        // dist/pred tables for the min- and max-sequential-length paths.
        let mut min_d: Vec<Option<u32>> = vec![None; n];
        let mut max_d: Vec<Option<u32>> = vec![None; n];
        let mut min_pred: Vec<Option<EdgeId>> = vec![None; n];
        let mut max_pred: Vec<Option<EdgeId>> = vec![None; n];
        min_d[from.index()] = Some(0);
        max_d[from.index()] = Some(0);
        for &v in &order {
            let (Some(vmin), Some(vmax)) = (min_d[v.index()], max_d[v.index()]) else {
                continue;
            };
            for &eid in self.out_edges(v) {
                if !keep(eid) {
                    continue;
                }
                let e = self.edge(eid);
                let w = e.kind.seq_len();
                let t = e.to.index();
                if min_d[t].is_none_or(|d| vmin + w < d) {
                    min_d[t] = Some(vmin + w);
                    min_pred[t] = Some(eid);
                }
                if max_d[t].is_none_or(|d| vmax + w > d) {
                    max_d[t] = Some(vmax + w);
                    max_pred[t] = Some(eid);
                }
            }
        }
        min_d[to.index()]?;
        let walk_back = |pred: &[Option<EdgeId>]| -> Vec<EdgeId> {
            let mut path = Vec::new();
            let mut cur = to;
            while cur != from {
                let eid = pred[cur.index()].expect("reachable vertex has a predecessor");
                path.push(eid);
                cur = self.edge(eid).from;
            }
            path.reverse();
            path
        };
        Some((walk_back(&min_pred), walk_back(&max_pred)))
    }

    /// Unfiltered version of [`Self::witness_paths_filtered`].
    pub fn witness_paths(
        &self,
        from: VertexId,
        to: VertexId,
    ) -> Option<(Vec<EdgeId>, Vec<EdgeId>)> {
        self.witness_paths_filtered(from, to, |_| true)
    }

    /// The set of vertices reachable from `src` (inclusive) in the subgraph
    /// of edges accepted by `keep`.
    pub fn reachable_from_filtered(
        &self,
        src: VertexId,
        keep: impl Fn(EdgeId) -> bool,
    ) -> Vec<bool> {
        let mut seen = vec![false; self.vertex_count()];
        let mut stack = vec![src];
        seen[src.index()] = true;
        while let Some(v) = stack.pop() {
            for &eid in self.out_edges(v) {
                if keep(eid) {
                    let to = self.edge(eid).to;
                    if !seen[to.index()] {
                        seen[to.index()] = true;
                        stack.push(to);
                    }
                }
            }
        }
        seen
    }

    /// The sequential depth of the circuit: the maximum sequential length
    /// from any primary input to any primary output.
    ///
    /// Returns `None` for cyclic circuits (depth undefined).
    pub fn sequential_depth(&self) -> Option<u32> {
        let mut depth = 0u32;
        for pi in self.inputs() {
            let lens = self.seq_lengths_from(pi)?;
            for po in self.outputs() {
                if let Some((_, max)) = lens[po.index()].range() {
                    depth = depth.max(max);
                }
            }
        }
        Some(depth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::CircuitBuilder;

    /// The paper's Figure 1: PI feeds fanout F; F feeds C directly and
    /// through register R — an unbalanced circuit.
    fn figure1() -> Circuit {
        let mut b = CircuitBuilder::new("fig1");
        let pi = b.input("PI");
        let f = b.fanout("F");
        let c = b.logic("C");
        let po = b.output("PO");
        b.wire(pi, f);
        b.wire(f, c);
        b.register("R", 8, f, c);
        b.wire(c, po);
        b.finish().unwrap()
    }

    /// The paper's Figure 2: PI -R1-> C1 -R2-> C2 -R3-> PO, balanced.
    fn figure2() -> Circuit {
        let mut b = CircuitBuilder::new("fig2");
        let pi = b.input("PI");
        let c1 = b.logic("C1");
        let c2 = b.logic("C2");
        let po = b.output("PO");
        b.register("R1", 8, pi, c1);
        b.register("R2", 8, c1, c2);
        b.register("R3", 8, c2, po);
        b.finish().unwrap()
    }

    /// The cycle + URFS structure of the paper's Figure 3 (simplified to the
    /// relevant vertices): F <-> H cycle and an URFS through A/C branches.
    fn figure3_like() -> Circuit {
        let mut b = CircuitBuilder::new("fig3");
        let pi = b.input("PI");
        let fo1 = b.fanout("FO1");
        let a = b.logic("A");
        let c = b.logic("C");
        let d = b.logic("D");
        let e = b.logic("E");
        let g = b.logic("G");
        let h = b.logic("H");
        let f = b.logic("F");
        let po = b.output("PO");
        b.register("R1", 8, pi, fo1);
        b.wire(fo1, a);
        b.wire(fo1, c);
        // Branch 1: A -R-> D -> H (one register edge).
        b.register("R2", 8, a, d);
        b.wire(d, h);
        // Branch 2: C -R-> E -R-> G -> H (two register edges).
        b.register("R3", 8, c, e);
        b.register("R4", 8, e, g);
        b.wire(g, h);
        // Cycle F <-> H.
        b.register("R5", 8, h, f);
        b.register("R6", 8, f, h);
        b.wire(h, po);
        b.finish().unwrap()
    }

    #[test]
    fn figure1_is_unbalanced() {
        let c = figure1();
        assert!(c.is_acyclic());
        assert!(!c.is_balanced());
        let report = c.balance_report();
        let f = c.vertex_by_name("F").unwrap();
        let blk = c.vertex_by_name("C").unwrap();
        assert!(report
            .imbalances
            .iter()
            .any(|i| i.from == f && i.to == blk && i.min == 0 && i.max == 1));
    }

    #[test]
    fn figure2_is_balanced() {
        let c = figure2();
        assert!(c.is_balanced());
        assert_eq!(c.sequential_depth(), Some(3));
    }

    #[test]
    fn figure3_has_cycle_and_urfs() {
        let c = figure3_like();
        assert!(!c.is_acyclic());
        let cycle = c.find_cycle().expect("F<->H cycle");
        assert_eq!(cycle.len(), 2);
        for e in &cycle {
            assert!(c.edge(*e).is_register());
        }
        // Cutting the cycle leaves the URFS visible.
        let r5 = c.register_by_name("R5").unwrap();
        let report = c.balance_report_filtered(|e| e != r5);
        assert!(report.acyclic);
        assert!(!report.imbalances.is_empty(), "URFS must be reported");
        let fo1 = c.vertex_by_name("FO1").unwrap();
        let h = c.vertex_by_name("H").unwrap();
        assert!(report
            .imbalances
            .iter()
            .any(|i| i.from == fo1 && i.to == h && i.min == 1 && i.max == 2));
    }

    #[test]
    fn seq_lengths_basic() {
        let c = figure2();
        let pi = c.vertex_by_name("PI").unwrap();
        let lens = c.seq_lengths_from(pi).unwrap();
        let c2 = c.vertex_by_name("C2").unwrap();
        let po = c.vertex_by_name("PO").unwrap();
        assert_eq!(lens[c2.index()], SeqLen::Exact(2));
        assert_eq!(lens[po.index()], SeqLen::Exact(3));
        assert_eq!(lens[pi.index()], SeqLen::Exact(0));
    }

    #[test]
    fn seq_lengths_none_on_reachable_cycle() {
        let c = figure3_like();
        let pi = c.vertex_by_name("PI").unwrap();
        assert!(c.seq_lengths_from(pi).is_none());
    }

    #[test]
    fn filtered_seq_lengths_cut_kernel_boundaries() {
        let c = figure2();
        // Cut R2: C2 becomes unreachable from PI.
        let r2 = c.register_by_name("R2").unwrap();
        let pi = c.vertex_by_name("PI").unwrap();
        let lens = c.seq_lengths_from_filtered(pi, |e| e != r2).unwrap();
        let c1 = c.vertex_by_name("C1").unwrap();
        let c2 = c.vertex_by_name("C2").unwrap();
        assert_eq!(lens[c1.index()], SeqLen::Exact(1));
        assert_eq!(lens[c2.index()], SeqLen::Unreachable);
    }

    #[test]
    fn reachability() {
        let c = figure2();
        let pi = c.vertex_by_name("PI").unwrap();
        let seen = c.reachable_from_filtered(pi, |_| true);
        assert!(seen.iter().all(|&s| s));
        let c2 = c.vertex_by_name("C2").unwrap();
        let seen2 = c.reachable_from_filtered(c2, |_| true);
        assert!(!seen2[pi.index()]);
    }

    #[test]
    fn figure1_sequential_depth_uses_longest_path() {
        let c = figure1();
        assert_eq!(c.sequential_depth(), Some(1));
    }

    #[test]
    fn witness_paths_expose_the_urfs_pair_by_name() {
        let c = figure3_like();
        let r5 = c.register_by_name("R5").unwrap();
        let fo1 = c.vertex_by_name("FO1").unwrap();
        let h = c.vertex_by_name("H").unwrap();
        let (short, long) = c
            .witness_paths_filtered(fo1, h, |e| e != r5)
            .expect("H reachable from FO1 once the cycle is cut");
        let seq = |p: &[crate::circuit::EdgeId]| -> u32 {
            p.iter().map(|&e| c.edge(e).kind.seq_len()).sum()
        };
        assert_eq!(seq(&short), 1);
        assert_eq!(seq(&long), 2);
        // Paths are rendered with names, not indices.
        assert_eq!(c.describe_path(&short), "FO1 -> A -R2[8]-> D -> H");
        assert_eq!(
            c.describe_path(&long),
            "FO1 -> C -R3[8]-> E -R4[8]-> G -> H"
        );
        let imb = PairImbalance {
            from: fo1,
            to: h,
            min: 1,
            max: 2,
        };
        assert_eq!(
            imb.describe(&c),
            "FO1 ~> H: paths of sequential length 1 and 2"
        );
    }

    #[test]
    fn witness_paths_none_when_unreachable_or_cyclic() {
        let c = figure2();
        let pi = c.vertex_by_name("PI").unwrap();
        let c2 = c.vertex_by_name("C2").unwrap();
        assert!(
            c.witness_paths(c2, pi).is_none(),
            "PI not reachable from C2"
        );
        let cyc = figure3_like();
        let p = cyc.vertex_by_name("PI").unwrap();
        let po = cyc.vertex_by_name("PO").unwrap();
        assert!(cyc.witness_paths(p, po).is_none(), "cyclic graph");
    }

    #[test]
    fn balanced_pair_witnesses_have_equal_length() {
        let c = figure2();
        let pi = c.vertex_by_name("PI").unwrap();
        let po = c.vertex_by_name("PO").unwrap();
        let (a, b) = c.witness_paths(pi, po).unwrap();
        let seq = |p: &[crate::circuit::EdgeId]| -> u32 {
            p.iter().map(|&e| c.edge(e).kind.seq_len()).sum()
        };
        assert_eq!(seq(&a), 3);
        assert_eq!(seq(&b), 3);
        assert_eq!(
            c.describe_path(&a),
            "PI -R1[8]-> C1 -R2[8]-> C2 -R3[8]-> PO"
        );
    }

    #[test]
    fn describe_cycle_names_the_loop() {
        let c = figure3_like();
        let cycle = c.find_cycle().unwrap();
        let rendered = c.describe_cycle(&cycle);
        // The F<->H loop, whichever vertex DFS entered first.
        assert!(
            rendered == "H -R5[8]-> F -R6[8]-> H" || rendered == "F -R6[8]-> H -R5[8]-> F",
            "unexpected cycle rendering: {rendered}"
        );
        assert_eq!(c.describe_path(&[]), "(empty path)");
    }
}
