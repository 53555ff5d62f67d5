//! End-to-end and per-layer benchmark of the Table 2 pipeline.
//!
//! The load is generated in this process from a run seed; work is timed
//! only around calls into the library crates' public functions. See
//! `README.md` beside this crate for the workloads and metrics.

mod calib;
mod oracle;
pub mod run;
pub mod stats;
mod trace;
pub mod workload;

/// The end-to-end metrics an untraced run reports, in order.
pub(crate) const END_TO_END: [&str; 5] = [
    "setup_s",
    "evals_per_s",
    "eval_p50_ms",
    "peak_rss_mb",
    "test_clocks_100",
];

/// The host's core count, reported beside every result.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The unit a metric is reported in, from its name.
pub(crate) fn unit_of(name: &str) -> &'static str {
    match name {
        "setup_s" => "s",
        "peak_rss_mb" => "MB",
        "test_clocks_100" | "source.clocks" => "clocks",
        n if n.ends_with("_ms") || n.ends_with(".ms") => "ms",
        n if n.ends_with("_pct") => "%",
        n if n.ends_with("per_s") => "1/s",
        n if n.ends_with("_ratio") || n.ends_with("_per_fault") => "ratio",
        _ => "count",
    }
}
