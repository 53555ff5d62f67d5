//! PODEM's search, pinned kernel by kernel: the `podem_backtracks`
//! counter of every Table 2 kernel at the paper's width (8) under the
//! default options and seed.
//!
//! The backtrack count is a fingerprint of the whole decision sequence:
//! a change to implication, to the D-frontier order or to the X-path
//! check that alters any decision moves it. Every kernel's survivors are
//! redundant, so the search runs to exhaustion and a changed decision
//! cannot hide behind an early test. Debug builds also re-check every
//! event-driven implication against a whole-program sweep, so this test
//! drives that check through every decision of the six columns.

use bibs_bench::{table2_column_traced, Table2Options, Tdm};
use bibs_datapath::filters::scaled;
use bibs_obs::{CounterId, Recorder};

/// Each kernel's `podem_backtracks`, in kernel order, for one column.
fn backtracks(name: &str, tdm: Tdm) -> Vec<u64> {
    let circuit = scaled(name, 8);
    let mut rec = Recorder::new("podem");
    let _ = table2_column_traced(&circuit, tdm, &Table2Options::default(), &mut rec);
    rec.finish();
    let column = rec.children(rec.root()).next().expect("a column span");
    rec.children(column)
        .filter_map(|kernel| rec.find(kernel, "atpg"))
        .map(|atpg| rec.span_counters(atpg).get(CounterId::PodemBacktracks))
        .collect()
}

#[test]
fn bibs_kernels_keep_their_backtrack_counts() {
    assert_eq!(backtracks("c5a2m", Tdm::Bibs), [598]);
    assert_eq!(backtracks("c3a2m", Tdm::Bibs), [2868]);
    assert_eq!(backtracks("c4a4m", Tdm::Bibs), [336]);
}

#[test]
fn ka85_kernels_keep_their_backtrack_counts() {
    assert_eq!(backtracks("c5a2m", Tdm::Ka85), [0, 0, 0, 0, 8, 8, 0]);
    assert_eq!(backtracks("c3a2m", Tdm::Ka85), [0, 8, 0, 8, 0]);
    assert_eq!(backtracks("c4a4m", Tdm::Ka85), [0, 0, 16, 16, 0, 0]);
}
