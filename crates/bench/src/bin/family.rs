//! The designer's trade-off family (Section 3.4: "this phenomenon provides
//! a designer with trade-offs between test time, test hardware and
//! performance degradation"): sweep the kernel-width bound on c5a2m and
//! report hardware vs test-time for each resulting BIBS design.
//!
//! Run with `cargo run --release -p bibs-bench --bin family`.

use bibs_core::bibs::{select, BibsOptions};
use bibs_core::delay::maximal_delay;
use bibs_core::design::kernels;
use bibs_core::schedule::schedule;
use bibs_datapath::filters::c5a2m;

fn main() {
    let circuit = c5a2m();
    println!(
        "family of BIBS designs for {} (64-bit total PI width):",
        circuit.name()
    );
    println!(
        "{:>12}{:>10}{:>8}{:>10}{:>10}{:>26}",
        "max M", "BILBOs", "FFs", "kernels", "sessions", "exhaustive test time"
    );
    for max_m in [None, Some(32u32), Some(16), Some(8)] {
        let options = BibsOptions {
            max_kernel_width: max_m,
            ..BibsOptions::default()
        };
        let r = select(&circuit, &options).expect("selectable");
        let ks: Vec<_> = kernels(&r.circuit, &r.design)
            .into_iter()
            .filter(|k| k.has_logic(&r.circuit))
            .collect();
        let sessions = schedule(&r.design, &ks);
        // Exhaustive test time: sessions run serially, kernels of a
        // session concurrently, each kernel needs 2^M - 1 + d cycles.
        let time: u128 = sessions
            .iter()
            .map(|s| {
                s.kernels
                    .iter()
                    .map(|&k| {
                        let m = ks[k].input_width(&r.circuit).min(127);
                        (1u128 << m) - 1 + ks[k].sequential_depth(&r.circuit, &r.design) as u128
                    })
                    .max()
                    .unwrap_or(0)
            })
            .sum();
        let label = max_m.map_or("none".to_string(), |m| m.to_string());
        println!(
            "{:>12}{:>10}{:>8}{:>10}{:>10}{:>26}",
            label,
            r.design.register_count(),
            r.design.flip_flop_count(&r.circuit),
            ks.len(),
            sessions.len(),
            format!("{time:.3e} cycles"),
        );
        let _ = maximal_delay(&r.circuit, &r.design);
    }
    println!("\nshape: tightening the width bound buys exponentially shorter");
    println!("exhaustive sessions with more BILBO hardware — the paper's trade-off.");
}
