//! Host-speed calibration.
//!
//! On the shared 2-vCPU host the bounds were set on, the benchmark's CPU
//! runs up to 1.7 times slower for stretches of a minute or two, on both
//! cores at once, and one 20 s run usually sits inside one stretch. Over
//! ten runs that spread the median eval time by up to a third of its
//! median, more than the largest bound allowed.
//!
//! A fixed task that calls no code of the repository, timed between
//! evals, measures the host's speed during the run, and the run's time
//! metrics are scaled by it to what the same work takes on the quiet host.
//! The slowdown hits code that allocates and chases pointers harder than
//! tight arithmetic loops, so the task builds and walks named graphs, as
//! the elaboration, fault bookkeeping and PODEM around each simulation do.
//! Over 12 minutes of alternating samples, the 20 s medians of one fixed
//! eval spread by 0.34 and 0.27 of their median (`ka85-kernels`,
//! `topoff`); divided by this task's 20 s medians, by 0.065 and 0.038. In
//! an earlier window where they spread by 0.40 and 0.33, a xorshift loop
//! over a 64 KiB table only brought them to 0.26 and 0.20, and a
//! 3000-gate bitwise netlist sweep to 0.20 and 0.12.
//!
//! The task runs on the evals' thread and so shares their heap: it reads
//! 4–10% slower than on a thread of its own, by an offset that depends on
//! the workload. On a thread of its own it tracked the evals worse,
//! likely because it ran on the other core.

use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

/// Median wall time of one [`sample`] on the quiet host, in ms. Only the
/// ratio to it matters: on a host twice as fast every scaled time is
/// halved, for both sides of a comparison.
pub const NOMINAL_MS: f64 = 3.0;

/// Nodes of each graph a sample builds and walks: small enough (0.25 MiB)
/// that the task stays below every workload's peak resident set.
const NODES: usize = 2000;

/// Graphs per sample.
const WALKS: usize = 4;

/// Runs the calibration task once; returns its wall time in ms.
pub fn sample() -> f64 {
    let start = Instant::now();
    for _ in 0..WALKS {
        black_box(graph_walk(black_box(NODES)));
    }
    start.elapsed().as_secs_f64() * 1e3
}

/// Builds a graph of `n` named nodes with one to three edges each, keyed
/// by name in a `BTreeMap`, and sums the nodes a breadth-first walk from
/// node 0 reaches.
fn graph_walk(n: usize) -> u64 {
    let mut x = 0xDEAD_BEEF_u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let names: Vec<String> = (0..n).map(|i| format!("net_{i}_{}", next() % 97)).collect();
    let mut edges: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, name) in names.iter().enumerate() {
        let fanout = 1 + next() % 3;
        let list = edges.entry(name.as_str()).or_default();
        for _ in 0..fanout {
            list.push((i + 1 + (next() % 50) as usize) % n);
        }
    }
    let mut seen = vec![false; n];
    let mut queue = VecDeque::from([0]);
    let mut sum = 0u64;
    while let Some(v) = queue.pop_front() {
        if std::mem::replace(&mut seen[v], true) {
            continue;
        }
        sum += v as u64;
        if let Some(next) = edges.get(names[v].as_str()) {
            queue.extend(next.iter().copied());
        }
    }
    sum
}

/// Seconds either side of a timed piece of work whose samples give its
/// slowdown: about ten samples at one per 0.5 s. Scaling each eval by
/// the samples around it rather than by the whole run's median follows
/// stretches that start or end inside a run; over ten runs it cut the
/// spread of `evals_per_s` on `ka85-kernels` and `topoff` from 0.14 and
/// 0.16 to 0.07 and 0.08, and of `eval_p50_ms` from 0.21 and 0.08 to
/// 0.08 and 0.04.
pub const WINDOW_S: f64 = 2.5;

/// The host's slowdown against the quiet host over `samples` of
/// (seconds into the run, ms): their median over [`NOMINAL_MS`].
///
/// # Panics
///
/// Panics on an empty slice.
pub fn slowdown(samples: &[(f64, f64)]) -> f64 {
    let ms: Vec<f64> = samples.iter().map(|&(_, ms)| ms).collect();
    crate::stats::median(&ms) / NOMINAL_MS
}

/// The slowdown around `at` seconds into the run: over the samples
/// within [`WINDOW_S`] of it, or over all of them when none is.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn slowdown_at(samples: &[(f64, f64)], at: f64) -> f64 {
    let near: Vec<(f64, f64)> = samples
        .iter()
        .copied()
        .filter(|&(t, _)| (t - at).abs() <= WINDOW_S)
        .collect();
    slowdown(if near.is_empty() { samples } else { &near })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_walk_is_deterministic_and_reaches_most_nodes() {
        let sum = graph_walk(NODES);
        assert_eq!(sum, graph_walk(NODES));
        // Edges reach forward at most 50 nodes and wrap, so a walk from 0
        // covers most of the ring.
        let all = (NODES * (NODES - 1) / 2) as u64;
        assert!(sum > all / 2, "{sum} of {all}");
    }

    #[test]
    fn slowdown_is_the_median_over_nominal_of_the_nearby_samples() {
        let n = NOMINAL_MS;
        let samples = [(0.0, n), (0.5, 3.0 * n), (1.0, 2.0 * n), (10.0, 4.0 * n)];
        assert_eq!(slowdown(&samples[..3]), 2.0);
        assert_eq!(slowdown(&samples), 2.5);
        assert_eq!(slowdown_at(&samples, 0.5), 2.0);
        assert_eq!(slowdown_at(&samples, 9.0), 4.0);
        // Nothing within the window: every sample counts.
        assert_eq!(slowdown_at(&samples, 5.0), 2.5);
    }
}
