//! The word-parallel hardware sources against bit-serial reference
//! models, block for block.
//!
//! [`MinTpgSource`] and [`LfsrSource`] build each 64-lane block as one
//! window of a type-1 LFSR sequence per input. The references here clock
//! the cycle-accurate models one pattern at a time instead —
//! [`TpgSimulator::cone_view`]/[`TpgSimulator::step`] and
//! [`Lfsr::stage`]/[`Lfsr::step`] — and pack the patterns into blocks bit
//! by bit. Every block's words and lanes, and the source's clocks and
//! patterns after it, must agree. At degree ≤ 16 (TPG) or ≤ 12
//! (LFSR) the whole period runs, so the ragged last block and its
//! appended all-zero lane are compared too.

use bibs::bibs::{select, BibsOptions};
use bibs::design::kernels;
use bibs::source::MinTpgSource;
use bibs::structure::GeneralizedStructure;
use bibs::tpg::{sc_tpg, TpgDesign, TpgSimulator};
use bibs_datapath::filters::scaled;
use bibs_faultsim::source::{LfsrSource, PatternBlock, PatternSource};
use bibs_lfsr::fsr::{Lfsr, LfsrKind};
use bibs_lfsr::poly::{primitive_polynomial, Polynomial};

/// A block of the reference stream, with the source's accounting after it.
struct Expected {
    block: PatternBlock,
    clocks: u64,
    patterns: u64,
}

/// The reference stream: after `warmup` clocks, `period` patterns, each
/// read by `next_pattern` (which then clocks once), then the all-zero
/// pattern; packed 64 lanes per block. Stops after `max_blocks` blocks.
/// Returns the blocks and whether the stream ended.
fn bit_serial_blocks(
    width: usize,
    period: u64,
    warmup: u64,
    max_blocks: usize,
    mut next_pattern: impl FnMut() -> Vec<bool>,
) -> (Vec<Expected>, bool) {
    let mut out = Vec::new();
    let (mut left, mut zero_pending) = (period, true);
    let (mut clocks, mut patterns) = (warmup, 0u64);
    while out.len() < max_blocks && (left > 0 || zero_pending) {
        let mut words = vec![0u64; width];
        let mut lanes = 0;
        while lanes < 64 && left > 0 {
            let pattern = next_pattern();
            assert_eq!(pattern.len(), width);
            for (word, bit) in words.iter_mut().zip(pattern) {
                *word |= u64::from(bit) << lanes;
            }
            left -= 1;
            clocks += 1;
            lanes += 1;
        }
        if lanes < 64 && left == 0 && zero_pending {
            zero_pending = false;
            clocks += 1;
            lanes += 1;
        }
        patterns += lanes as u64;
        out.push(Expected {
            block: PatternBlock { words, lanes },
            clocks,
            patterns,
        });
    }
    (out, left == 0 && !zero_pending)
}

/// Pulls `expected.len()` blocks from `source` and compares each, and
/// that the source is exhausted when the reference stream `ended`.
fn assert_stream(
    source: &mut dyn PatternSource,
    width: usize,
    warmup: u64,
    (expected, ended): (Vec<Expected>, bool),
    what: &str,
) {
    assert_eq!(source.clocks_consumed(), warmup, "{what}: warm-up clocks");
    assert_eq!(source.patterns_emitted(), 0, "{what}: nothing emitted yet");
    for (n, e) in expected.iter().enumerate() {
        let block = source
            .next_block(width)
            .unwrap_or_else(|| panic!("{what}: source ran dry at block {n}"));
        assert_eq!(block, e.block, "{what}: block {n}");
        assert_eq!(source.clocks_consumed(), e.clocks, "{what}: clocks {n}");
        assert_eq!(
            source.patterns_emitted(),
            e.patterns,
            "{what}: patterns {n}"
        );
    }
    if ended {
        assert!(
            source.next_block(width).is_none(),
            "{what}: runs past the period"
        );
    }
}

/// Compares `MinTpgSource` with a raw `TpgSimulator` over the full
/// period at degree ≤ 16, else over the first `blocks` blocks.
fn check_tpg(design: &TpgDesign, structure: &GeneralizedStructure, blocks: usize) {
    let what = format!("{} (degree {})", structure.name, design.lfsr_degree());
    let width = structure.total_width() as usize;
    let warmup = design.flip_flop_count() as u64 + u64::from(structure.sequential_depth());
    let mut sim = TpgSimulator::new(design);
    for _ in 0..warmup {
        sim.step();
    }
    let max_blocks = if design.lfsr_degree() <= 16 {
        usize::MAX
    } else {
        blocks
    };
    let reference = bit_serial_blocks(
        width,
        (1u64 << design.lfsr_degree()) - 1,
        warmup,
        max_blocks,
        || {
            let pattern = sim.cone_view(0).iter().collect();
            sim.step();
            pattern
        },
    );
    let mut source = MinTpgSource::new(design, structure).unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_stream(&mut source, width, warmup, reference, &what);
}

#[test]
fn mintpg_matches_the_bit_serial_tpg_on_every_single_cone_bibs_kernel() {
    let mut checked = 0;
    let mut max_degree = 0;
    for width in 1..=8 {
        for name in ["c5a2m", "c3a2m", "c4a4m"] {
            let result = select(&scaled(name, width), &BibsOptions::default()).expect("selectable");
            for kernel in kernels(&result.circuit, &result.design) {
                let Ok(structure) =
                    GeneralizedStructure::from_kernel(&result.circuit, &result.design, &kernel)
                else {
                    continue;
                };
                if !structure.is_single_cone() {
                    continue;
                }
                let design = sc_tpg(&structure);
                if design.lfsr_degree() > 63 {
                    assert!(MinTpgSource::new(&design, &structure).is_err());
                    continue;
                }
                check_tpg(&design, &structure, 24);
                checked += 1;
                max_degree = max_degree.max(design.lfsr_degree());
            }
        }
    }
    // c5a2m and c3a2m have one single-cone BIBS kernel per width (c4a4m
    // has none); c5a2m's at width 8 needs degree 64, past the cap.
    assert_eq!((checked, max_degree), (15, 56));
}

#[test]
fn mintpg_matches_the_bit_serial_tpg_on_hand_built_structures() {
    let structures = [
        // Example 2: spacer flip-flops, register cells past the LFSR end.
        GeneralizedStructure::single_cone("ex2", &[("R1", 4, 2), ("R2", 4, 1), ("R3", 4, 0)]),
        // Example 4: first label 0, extension flip-flops after the LFSR.
        GeneralizedStructure::single_cone("ex4", &[("R1", 4, 0), ("R2", 4, 5)]),
        // First label −87: every offset lies past 64 bits.
        GeneralizedStructure::single_cone("skew", &[("R1", 2, 0), ("R2", 8, 90)]),
        // 70 spacers: offsets 70..=81 cross a history word boundary.
        GeneralizedStructure::single_cone("far", &[("R1", 6, 70), ("R2", 6, 0)]),
        // Degree 1.
        GeneralizedStructure::single_cone("one", &[("R", 1, 0)]),
    ];
    let labels: Vec<i64> = structures
        .iter()
        .map(|s| sc_tpg(s).first_lfsr_label())
        .collect();
    assert_eq!(labels, [1, 0, -87, 1, 1]);
    for structure in &structures {
        let design = sc_tpg(structure);
        assert!(design.lfsr_degree() <= 16, "full period for every one");
        check_tpg(&design, structure, 0);
    }
    let far = sc_tpg(&structures[3]);
    let max_offset = far.cone_offsets(0).into_iter().max();
    assert_eq!(max_offset, Some(82), "offset 81 past the first label");
}

/// Compares `source` with a raw `Lfsr` seeded `seed` over the full period
/// at degree ≤ 12, else over the first 16 blocks.
fn check_lfsr(mut source: LfsrSource, poly: &Polynomial, width: usize, seed: u64, warmup: u64) {
    let what = format!(
        "width {width}, degree {}, seed {seed:#x}, warm-up {warmup}",
        poly.degree()
    );
    let mut lfsr = Lfsr::with_seed_u64(poly, LfsrKind::Type1, seed);
    for _ in 0..warmup {
        lfsr.step();
    }
    let degree = poly.degree();
    let period = if degree == 64 {
        u64::MAX
    } else {
        (1u64 << degree) - 1
    };
    let max_blocks = if degree <= 12 { usize::MAX } else { 16 };
    let reference = bit_serial_blocks(width, period, warmup, max_blocks, || {
        let pattern = (1..=width).map(|stage| lfsr.stage(stage)).collect();
        lfsr.step();
        pattern
    });
    assert_stream(&mut source, width, warmup, reference, &what);
}

#[test]
fn lfsr_source_matches_the_bit_serial_lfsr_at_every_width() {
    for width in 1..=64usize {
        let degree = width.max(2) as u32;
        let poly = primitive_polynomial(degree).expect("table covers 2..=64");
        let low = u64::MAX >> (64 - degree);
        // Seeds 0 and 2^degree truncate to zero and are nudged to 1.
        let mut seeds = vec![0, 0x51B5_1994_DEAD_BEEF];
        if degree < 64 {
            seeds.push(1 << degree);
        }
        for seed in seeds {
            let register = match seed & low {
                0 => 1,
                s => s,
            };
            for warmup in [0, 37, 200] {
                let source = LfsrSource::new(width, seed).expect("width 1..=64");
                check_lfsr(source.warmed_up(warmup), &poly, width, register, warmup);
            }
        }
    }
}

#[test]
fn lfsr_source_reads_the_low_stages_of_a_wider_register() {
    for (degree, width) in [(7, 3), (12, 5), (20, 7), (64, 13)] {
        let poly = primitive_polynomial(degree).expect("in table");
        let source = LfsrSource::with_polynomial(&poly, width, 0x2A);
        check_lfsr(source.warmed_up(70), &poly, width, 0x2A, 70);
    }
}
