//! [`WeightedRandomSource`]'s bias math at the extremes and at the
//! unbiased midpoint.

use bibs_faultsim::source::{PatternSource, WeightedRandomSource};
use proptest::prelude::*;

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
