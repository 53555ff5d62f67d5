//! Integration tests: every headline claim of the paper, end to end.

use bibs::bibs::{select, BibsOptions};
use bibs::delay::maximal_delay;
use bibs::design::{is_bibs_testable, kernels, BilboDesign};
use bibs::fpet::{best_permutation, dependency_matrix_signals};
use bibs::kstep::{is_one_step, k_step};
use bibs::schedule::schedule;
use bibs::structure::{Cone, ConeDep, GeneralizedStructure, TpgRegister};
use bibs::tpg::{mc_tpg, sc_tpg};
use bibs::verify::verify_exhaustive;
use bibs::{ka85, rtl};
use bibs_datapath::examples::{figure1, figure12a, figure2, figure4};
use bibs_datapath::fig9;
use bibs_datapath::filters::{c3a2m, c4a4m, c5a2m};

/// Section 2: Figure 1 is 2-step, Figure 2 is 1-step functionally
/// testable.
#[test]
fn section2_k_step_claims() {
    assert_eq!(k_step(&figure1()), Some(2));
    assert!(is_one_step(&figure2()));
}

/// Theorem 1 consequence: both TDMs leave every kernel of the Table 1
/// circuits balanced BISTable (1-step functionally testable).
#[test]
fn theorem1_all_kernels_balanced_bistable() {
    for circuit in [c5a2m(), c3a2m(), c4a4m()] {
        let r = select(&circuit, &BibsOptions::default()).unwrap();
        assert!(is_bibs_testable(&r.circuit, &r.design));
        let ka = ka85::select(&circuit).unwrap();
        assert!(
            is_bibs_testable(&circuit, &ka),
            "Theorem 3: [3]'s designs are BIBS designs too ({})",
            circuit.name()
        );
    }
}

/// Theorem 2: a two-register cycle ends up with both registers converted.
#[test]
fn theorem2_cycles_take_two_bilbo_edges() {
    let mut b = rtl::CircuitBuilder::new("cyc");
    let pi = b.input("PI");
    let f = b.logic("F");
    let h = b.logic("H");
    let po = b.output("PO");
    b.register("Rin", 4, pi, f);
    b.register("Rfh", 4, f, h);
    b.register("Rhf", 4, h, f);
    b.register("Rout", 4, h, po);
    let c = b.finish().unwrap();
    let r = select(&c, &BibsOptions::default()).unwrap();
    let cut_in_cycle = ["Rfh", "Rhf"]
        .iter()
        .filter(|n| {
            let e = c.register_by_name(n).unwrap();
            r.design.is_cut(e)
        })
        .count();
    assert_eq!(cut_in_cycle, 2);
}

/// Example 1 / Figure 4: BIBS converts 6 registers into 2 kernels; the
/// partial-scan solution ({R3, R9}) is insufficient for BIST.
#[test]
fn example1_figure4_selection() {
    let c = figure4();
    // The scan solution leaves a port conflict under BIST rules.
    let scan_equiv = BilboDesign::from_bilbos(
        ["R1", "R3", "R9", "R6"]
            .iter()
            .map(|n| c.register_by_name(n).unwrap()),
    );
    assert!(!is_bibs_testable(&c, &scan_equiv));
    // The paper's fix: also convert R7 and R8.
    let fixed = BilboDesign::from_bilbos(
        ["R1", "R3", "R7", "R8", "R9", "R6"]
            .iter()
            .map(|n| c.register_by_name(n).unwrap()),
    );
    assert!(is_bibs_testable(&c, &fixed));
    assert_eq!(kernels(&c, &fixed).len(), 2);
    // The automatic search finds a 6-register plain-BILBO design too.
    let r = select(&c, &BibsOptions::default()).unwrap();
    assert!(is_bibs_testable(&r.circuit, &r.design));
    assert_eq!(r.design.register_count(), 6, "paper: six BILBO registers");
    assert!(r.design.cbilbo.is_empty());
}

/// Figure 9: 8 BILBOs / 43 FFs under BIBS versus 10 / 52 under \[3\].
#[test]
fn figure9_hardware_comparison() {
    let c = fig9::figure9();
    // The paper's stated BIBS design: valid, 8 registers / 43 FFs, two
    // kernels.
    let paper_bibs = BilboDesign::from_bilbos(fig9::resolve(&c, fig9::bibs_bilbo_names()));
    assert!(is_bibs_testable(&c, &paper_bibs));
    assert_eq!(paper_bibs.register_count(), 8);
    assert_eq!(paper_bibs.flip_flop_count(&c), 43);
    assert_eq!(kernels(&c, &paper_bibs).len(), 2);
    // [3]'s criteria reproduce the paper's 10 registers / 52 FFs.
    let ka = ka85::select(&c).unwrap();
    assert_eq!(ka.register_count(), 10);
    assert_eq!(ka.flip_flop_count(&c), 52);
    // The partition is a kernel-selection choice, not forced: the
    // unconstrained search does at least as well as the paper's design.
    let r = select(&c, &BibsOptions::default()).unwrap();
    assert!(is_bibs_testable(&r.circuit, &r.design));
    assert!(r.design.register_count() <= 8);
}

/// Table 2 rows 1–4, all three circuits, both TDMs.
#[test]
fn table2_structural_rows() {
    let cases = [
        (c5a2m(), 7usize, 9usize, 15usize, 4u32),
        (c3a2m(), 5, 7, 15, 6),
        // Paper reports 7 kernels for c4a4m; our reconstruction merges the
        // fanout-shared multiplier pairs, giving 6 (see EXPERIMENTS.md).
        (c4a4m(), 6, 10, 20, 4),
    ];
    for (circuit, ka_kernels, bibs_regs, ka_regs, ka_delay) in cases {
        let r = select(&circuit, &BibsOptions::default()).unwrap();
        let bibs_kernels = kernels(&r.circuit, &r.design);
        assert_eq!(
            bibs_kernels.len(),
            1,
            "{}: BIBS single kernel",
            circuit.name()
        );
        assert_eq!(r.design.register_count(), bibs_regs, "{}", circuit.name());
        assert_eq!(maximal_delay(&r.circuit, &r.design), Some(2));
        assert_eq!(
            schedule(&r.design, &bibs_kernels).len(),
            1,
            "{}: BIBS one session",
            circuit.name()
        );

        let ka = ka85::select(&circuit).unwrap();
        let ka_ks: Vec<_> = kernels(&circuit, &ka)
            .into_iter()
            .filter(|k| k.has_logic(&circuit))
            .collect();
        assert_eq!(ka_ks.len(), ka_kernels, "{}", circuit.name());
        assert_eq!(ka.register_count(), ka_regs, "{}", circuit.name());
        assert_eq!(maximal_delay(&circuit, &ka), Some(ka_delay));
        assert_eq!(schedule(&ka, &ka_ks).len(), 2, "{}", circuit.name());
    }
}

/// Example 2: the Figure 12(a) kernel's TPG — 12-bit LFSR with the exact
/// polynomial the paper uses, 2 extra flip-flops, test time 2^12 − 1 + 2.
#[test]
fn example2_tpg_from_real_kernel() {
    let c = figure12a();
    let design = BilboDesign::from_bilbos(
        ["R1", "R2", "R3", "Rout"]
            .iter()
            .map(|n| c.register_by_name(n).unwrap()),
    );
    let ks = kernels(&c, &design);
    assert_eq!(ks.len(), 1);
    let s = GeneralizedStructure::from_kernel(&c, &design, &ks[0]).unwrap();
    // Reorder to the paper's R1, R2, R3 listing (descending d).
    let mut order: Vec<usize> = (0..3).collect();
    order.sort_by_key(|&i| {
        std::cmp::Reverse(
            s.cones[0]
                .deps
                .iter()
                .find(|d| d.register == i)
                .map(|d| d.seq_len)
                .unwrap_or(0),
        )
    });
    let s = s.permuted(&order);
    let tpg = sc_tpg(&s);
    assert_eq!(tpg.lfsr_degree(), 12);
    assert_eq!(tpg.extra_flip_flops(), 2);
    assert_eq!(tpg.test_time(), (1 << 12) - 1 + 2);
    assert_eq!(
        tpg.polynomial().unwrap().to_string(),
        "x^12 + x^7 + x^4 + x^3 + 1"
    );
}

/// Theorem 4 at verifiable width: the TPG built from the Figure 12(a)
/// kernel shape (2-bit registers) applies a functionally exhaustive set.
#[test]
fn theorem4_functional_exhaustiveness() {
    let s =
        GeneralizedStructure::single_cone("fig12a_w2", &[("R1", 2, 2), ("R2", 2, 1), ("R3", 2, 0)]);
    let tpg = sc_tpg(&s);
    for cov in verify_exhaustive(&tpg) {
        assert!(cov.is_exhaustive_modulo_zero());
    }
}

/// Examples 7 and 8: permutation search reaches degree 8; the dependency
/// matrix baseline needs 12.
#[test]
fn examples7_and_8_fpet() {
    let regs = (1..=3)
        .map(|i| TpgRegister {
            name: format!("R{i}"),
            width: 4,
        })
        .collect();
    let cones = vec![
        Cone {
            name: "O1".into(),
            deps: vec![
                ConeDep {
                    register: 0,
                    seq_len: 2,
                },
                ConeDep {
                    register: 1,
                    seq_len: 0,
                },
            ],
        },
        Cone {
            name: "O2".into(),
            deps: vec![
                ConeDep {
                    register: 0,
                    seq_len: 0,
                },
                ConeDep {
                    register: 2,
                    seq_len: 1,
                },
            ],
        },
        Cone {
            name: "O3".into(),
            deps: vec![
                ConeDep {
                    register: 1,
                    seq_len: 1,
                },
                ConeDep {
                    register: 2,
                    seq_len: 0,
                },
            ],
        },
    ];
    let s = GeneralizedStructure::new("fig21", regs, cones).unwrap();
    assert_eq!(mc_tpg(&s).lfsr_degree(), 16);
    let best = best_permutation(&s);
    assert_eq!(best.design.lfsr_degree(), 8);
    let (_, stages) = dependency_matrix_signals(&s);
    assert_eq!(stages, 12);
}
