//! The source layer's own guarantees: [`RandomWords`] reproduces the
//! legacy `run_random*` entry points exactly (and documents its
//! xoshiro256** generator in the descriptor), and
//! [`WeightedRandomSource`]'s bias math behaves at the extremes and at
//! the unbiased midpoint.

use bibs_faultsim::fault::FaultUniverse;
use bibs_faultsim::par::ParFaultSimulator;
use bibs_faultsim::sim::BlockSim;
use bibs_faultsim::source::{PatternSource, RandomWords, WeightedRandomSource};
use bibs_netlist::builder::NetlistBuilder;
use bibs_netlist::Netlist;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const MAX_PATTERNS: u64 = 4_096;

fn adder(width: usize) -> Netlist {
    let mut b = NetlistBuilder::new("add");
    let a = b.input_word("a", width);
    let c = b.input_word("b", width);
    let (s, co) = b.ripple_carry_adder(&a, &c, None);
    b.output_word("s", &s);
    b.output("co", co);
    b.finish().unwrap()
}

/// Satellite: the legacy `run_random*` entry points are now thin wrappers
/// over [`RandomWords`] — a seeded source must reproduce their reports
/// exactly (the words drawn per block are bit-identical).
#[test]
fn random_words_source_reproduces_legacy_run_random() {
    for seed in [1u64, 0xB1B5, 0x51B5_1994] {
        let nl = adder(6);
        let faults = FaultUniverse::collapsed(&nl).faults().to_vec();
        let mut rng = StdRng::seed_from_u64(seed);
        let legacy = ParFaultSimulator::new(&nl, faults.clone()).run_random(&mut rng, MAX_PATTERNS);
        let mut source = RandomWords::seeded(seed);
        let sourced =
            ParFaultSimulator::new(&nl, faults.clone()).run_source(&mut source, MAX_PATTERNS);
        assert_eq!(legacy.detection(), sourced.detection());
        assert_eq!(legacy.patterns_applied(), sourced.patterns_applied());
    }
}

/// Satellite: the RNG behind [`RandomWords`] is reachable (and named) via
/// the serializable descriptor — the compat `StdRng` is xoshiro256**, and
/// experiments citing the stream can point at this field.
#[test]
fn random_descriptor_names_the_xoshiro_generator() {
    let source = RandomWords::seeded(0x2A);
    let d = source.descriptor();
    assert_eq!(d.kind(), "random");
    assert_eq!(d.get("rng"), Some("xoshiro256**"));
    assert!(d.to_json().contains("\"rng\":\"xoshiro256**\""));
}

// --- proptests: weighted bias math --------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Bias 0.0 pins an input to constant 0 and bias 1.0 to constant 1,
    /// for any seed and any width.
    #[test]
    fn weighted_extreme_biases_are_constant(seed: u64, width in 1usize..12) {
        let biases: Vec<f64> = (0..width).map(|i| if i % 2 == 0 { 0.0 } else { 1.0 }).collect();
        let mut source = WeightedRandomSource::new(seed, biases.clone()).unwrap();
        for _ in 0..4 {
            let block = source.next_block(width).unwrap();
            for (i, &word) in block.words.iter().enumerate() {
                if biases[i] == 0.0 {
                    prop_assert_eq!(word, 0, "bias-0 input {} must stay 0", i);
                } else {
                    prop_assert_eq!(word, u64::MAX, "bias-1 input {} must stay 1", i);
                }
            }
        }
    }

    /// Bias 0.5 is statistically indistinguishable from the uniform
    /// stream: over 6400 lanes per input the set-bit fraction lands well
    /// inside 0.45..0.55 (±8σ of Binomial(6400, ½)) for every seed.
    #[test]
    fn weighted_half_bias_matches_uniform_moments(seed: u64) {
        let width = 4usize;
        let mut source = WeightedRandomSource::new(seed, vec![0.5; width]).unwrap();
        let mut ones = vec![0u64; width];
        let blocks = 100u32;
        for _ in 0..blocks {
            let block = source.next_block(width).unwrap();
            for (i, &word) in block.words.iter().enumerate() {
                ones[i] += u64::from(word.count_ones());
            }
        }
        let lanes = f64::from(blocks) * 64.0;
        for (i, &n) in ones.iter().enumerate() {
            let frac = n as f64 / lanes;
            prop_assert!(
                (0.45..=0.55).contains(&frac),
                "input {} set-bit fraction {} outside 0.45..0.55", i, frac
            );
        }
    }
}
