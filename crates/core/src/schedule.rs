//! Test-session scheduling (reference \[13\] of the paper: "Generating a
//! Family of Testable Designs Using the BILBO Methodology").
//!
//! Kernels can share a test session when their BILBO resources do not
//! conflict. A register may generate patterns for several kernels at once,
//! but it cannot simultaneously be a signature analyzer for one kernel and
//! a TPG for another, nor compress the responses of two kernels into one
//! signature. Scheduling is therefore graph coloring on the kernel
//! conflict graph; the paper's Table 2 uses the optimal two-session
//! schedules this produces (e.g. c5a2m: multipliers in session 1, adders
//! in session 2).

use crate::design::{BilboDesign, Kernel};
use std::collections::BTreeSet;

/// One test session: the kernels tested concurrently.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TestSession {
    /// Indices into the scheduled kernel list.
    pub kernels: Vec<usize>,
}

/// Whether two kernels conflict (cannot share a session).
pub fn kernels_conflict(design: &BilboDesign, a: &Kernel, b: &Kernel) -> bool {
    let a_in: BTreeSet<_> = a.input_edges.iter().copied().collect();
    let a_out: BTreeSet<_> = a.output_edges.iter().copied().collect();
    let b_in: BTreeSet<_> = b.input_edges.iter().copied().collect();
    let b_out: BTreeSet<_> = b.output_edges.iter().copied().collect();
    // SA/SA conflict: one register cannot compress two kernels' responses.
    if a_out.intersection(&b_out).next().is_some() {
        return true;
    }
    // TPG/SA conflict: only CBILBOs may play both roles at once.
    let tpg_sa = a_in
        .intersection(&b_out)
        .chain(b_in.intersection(&a_out))
        .any(|e| !design.cbilbo.contains(e));
    tpg_sa
}

/// [`schedule`] recorded as a `"schedule"` telemetry span: the span's
/// wall time plus `kernels_scheduled` (input kernels) and
/// `sessions_scheduled` (colors used) counters.
pub fn schedule_traced(
    design: &BilboDesign,
    kernels: &[Kernel],
    rec: &mut bibs_obs::Recorder,
) -> Vec<TestSession> {
    let span = rec.enter("schedule");
    let sessions = schedule(design, kernels);
    rec.add(bibs_obs::CounterId::KernelsScheduled, kernels.len() as u64);
    rec.add(
        bibs_obs::CounterId::SessionsScheduled,
        sessions.len() as u64,
    );
    rec.exit(span);
    sessions
}

/// Schedules kernels into a minimum number of sessions.
///
/// Exact (iterative-deepening backtracking) for up to 20 kernels, greedy
/// largest-degree-first beyond that.
pub fn schedule(design: &BilboDesign, kernels: &[Kernel]) -> Vec<TestSession> {
    let n = kernels.len();
    if n == 0 {
        return Vec::new();
    }
    let mut conflict = vec![vec![false; n]; n];
    for i in 0..n {
        for j in i + 1..n {
            if kernels_conflict(design, &kernels[i], &kernels[j]) {
                conflict[i][j] = true;
                conflict[j][i] = true;
            }
        }
    }
    let colors = if n <= 20 {
        exact_coloring(&conflict)
    } else {
        greedy_coloring(&conflict)
    };
    let sessions = colors.iter().copied().max().unwrap_or(0) + 1;
    let mut out: Vec<TestSession> = (0..sessions)
        .map(|_| TestSession {
            kernels: Vec::new(),
        })
        .collect();
    for (k, &c) in colors.iter().enumerate() {
        out[c].kernels.push(k);
    }
    out
}

fn greedy_coloring(conflict: &[Vec<bool>]) -> Vec<usize> {
    let n = conflict.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&v| std::cmp::Reverse(conflict[v].iter().filter(|&&c| c).count()));
    let mut colors = vec![usize::MAX; n];
    for &v in &order {
        let used: BTreeSet<usize> = (0..n)
            .filter(|&u| conflict[v][u] && colors[u] != usize::MAX)
            .map(|u| colors[u])
            .collect();
        colors[v] = (0..).find(|c| !used.contains(c)).expect("some color free");
    }
    colors
}

fn exact_coloring(conflict: &[Vec<bool>]) -> Vec<usize> {
    let n = conflict.len();
    let upper = greedy_coloring(conflict);
    let upper_k = upper.iter().copied().max().unwrap_or(0) + 1;
    for k in 1..upper_k {
        let mut colors = vec![usize::MAX; n];
        if try_color(conflict, &mut colors, 0, k) {
            return colors;
        }
    }
    upper
}

fn try_color(conflict: &[Vec<bool>], colors: &mut Vec<usize>, v: usize, k: usize) -> bool {
    if v == conflict.len() {
        return true;
    }
    // Symmetry breaking: vertex v may use at most (max used so far + 1).
    let max_used = colors[..v]
        .iter()
        .copied()
        .filter(|&c| c != usize::MAX)
        .max();
    let limit = max_used.map_or(0, |m| (m + 1).min(k - 1));
    for c in 0..=limit {
        if (0..v).all(|u| !conflict[v][u] || colors[u] != c) {
            colors[v] = c;
            if try_color(conflict, colors, v + 1, k) {
                return true;
            }
            colors[v] = usize::MAX;
        }
    }
    false
}

/// Test-time accounting over a schedule.
///
/// `kernel_patterns[k]` is the number of patterns kernel `k` needs.
/// Kernels in the same session run concurrently, so a session lasts as
/// long as its longest kernel; sessions run back to back.
pub fn schedule_test_time(sessions: &[TestSession], kernel_patterns: &[u64]) -> u64 {
    sessions
        .iter()
        .map(|s| {
            s.kernels
                .iter()
                .map(|&k| kernel_patterns[k])
                .max()
                .unwrap_or(0)
        })
        .sum()
}

/// Total patterns when kernels are tested one after another with no
/// session sharing (the paper's "to test each kernel in sequence" figure).
pub fn sequential_test_time(kernel_patterns: &[u64]) -> u64 {
    kernel_patterns.iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::{kernels, BilboDesign};
    use crate::ka85;
    use bibs_datapath::filters::c5a2m;
    use bibs_rtl::VertexKind;

    #[test]
    fn c5a2m_ka85_schedules_in_two_sessions() {
        let c = c5a2m();
        let design = ka85::select(&c).unwrap();
        let ks: Vec<_> = kernels(&c, &design)
            .into_iter()
            .filter(|k| k.has_logic(&c))
            .collect();
        assert_eq!(ks.len(), 7);
        let sessions = schedule(&design, &ks);
        assert_eq!(sessions.len(), 2, "Table 2 row 2 for [3]");
        // The paper's schedule: 2 multipliers in one session, 5 adders in
        // the other.
        let sizes: Vec<usize> = {
            let mut v: Vec<usize> = sessions.iter().map(|s| s.kernels.len()).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(sizes, vec![2, 5]);
    }

    #[test]
    fn single_kernel_single_session() {
        let c = c5a2m();
        let io: Vec<_> = c
            .register_edges()
            .filter(|&e| {
                let edge = c.edge(e);
                c.vertex(edge.from).kind == VertexKind::Input
                    || c.vertex(edge.to).kind == VertexKind::Output
            })
            .collect();
        let design = BilboDesign::from_bilbos(io);
        let ks = kernels(&c, &design);
        assert_eq!(ks.len(), 1);
        let sessions = schedule(&design, &ks);
        assert_eq!(sessions.len(), 1, "Table 2 row 2 for BIBS");
    }

    #[test]
    fn test_time_accounting_matches_paper_example() {
        // "2,140 and 32 patterns are needed ... each multiplier and adder.
        // In sequence: 4,440. Scheduled in two sessions: 2,172."
        let patterns = vec![2140, 2140, 32, 32, 32, 32, 32];
        let sessions = vec![
            TestSession {
                kernels: vec![0, 1],
            },
            TestSession {
                kernels: vec![2, 3, 4, 5, 6],
            },
        ];
        assert_eq!(sequential_test_time(&patterns), 4440);
        assert_eq!(schedule_test_time(&sessions, &patterns), 2172);
    }

    #[test]
    fn conflicting_sa_forces_separate_sessions() {
        use crate::design::Kernel;
        use std::collections::BTreeSet;
        let e = |i: u32| {
            // Fabricate edge ids through a tiny circuit.
            let mut b = bibs_rtl::CircuitBuilder::new("t");
            let a = b.logic("A");
            let c2 = b.logic("B");
            for k in 0..=i {
                b.register(format!("R{k}"), 1, a, c2);
            }
            let c = b.finish().unwrap();
            let e = c.register_edges().nth(i as usize).unwrap();
            e
        };
        let k1 = Kernel {
            vertices: BTreeSet::new(),
            input_edges: vec![e(0)],
            output_edges: vec![e(1)],
        };
        let k2 = Kernel {
            vertices: BTreeSet::new(),
            input_edges: vec![e(1)], // k1's SA is k2's TPG
            output_edges: vec![e(2)],
        };
        let design = BilboDesign::from_bilbos([e(0), e(1), e(2)]);
        assert!(kernels_conflict(&design, &k1, &k2));
        let sessions = schedule(&design, &[k1, k2]);
        assert_eq!(sessions.len(), 2);
    }

    #[test]
    fn shared_tpg_allows_one_session() {
        use crate::design::Kernel;
        use std::collections::BTreeSet;
        let mut b = bibs_rtl::CircuitBuilder::new("t");
        let a = b.logic("A");
        let c2 = b.logic("B");
        for k in 0..3 {
            b.register(format!("R{k}"), 1, a, c2);
        }
        let c = b.finish().unwrap();
        let edges: Vec<_> = c.register_edges().collect();
        let k1 = Kernel {
            vertices: BTreeSet::new(),
            input_edges: vec![edges[0]],
            output_edges: vec![edges[1]],
        };
        let k2 = Kernel {
            vertices: BTreeSet::new(),
            input_edges: vec![edges[0]], // same TPG, different SA: fine
            output_edges: vec![edges[2]],
        };
        let design = BilboDesign::from_bilbos(edges);
        assert!(!kernels_conflict(&design, &k1, &k2));
        let sessions = schedule(&design, &[k1, k2]);
        assert_eq!(sessions.len(), 1);
    }
}
