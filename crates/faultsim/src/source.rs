//! Pluggable pattern sources: the stream side of fault simulation.
//!
//! The paper's Table 2 story is entirely about *which pattern stream*
//! reaches a kernel (pseudorandom LFSR words vs the novel TPG's aligned
//! windows) and how many clock cycles that stream costs. This module
//! lifts the stream out of the engines: a [`PatternSource`] produces
//! 64-lane pattern blocks with explicit clock accounting, and the
//! [`BlockSim::run`](crate::sim::BlockSim::run) driver consumes any
//! source the same way — so coverage-vs-clocks is a first-class axis
//! instead of a property of one hard-wired stream.
//!
//! # Contract
//!
//! * [`PatternSource::next_block`] returns up to 64 patterns packed one
//!   per `u64` lane (`words[i]` carries input *i* across all lanes; only
//!   the low [`PatternBlock::lanes`] lanes are patterns). Returning
//!   `None` means the source is exhausted — e.g. an LFSR that completed
//!   its period.
//! * **Clock accounting**: [`PatternSource::clocks_consumed`] is the
//!   number of TPG clock cycles the *hardware* generator would have spent
//!   producing everything emitted so far — warm-up shifts, one cycle per
//!   pattern, reseed loads. It is monotone in the number of blocks pulled
//!   and independent of how many lanes the consumer actually applied.
//! * **Skipping**: [`PatternSource::skip`] moves the source on by the
//!   blocks that pulling a number of patterns would emit, and reports how
//!   many blocks and patterns those were; the accounting and the next
//!   block are then those of a source that pulled them. The default pulls;
//!   [`RandomWords`] and [`LfsrSource`] get there without building blocks.
//!   The [`BlockSim`](crate::sim::BlockSim) driver pulls a block to apply
//!   it while some fault is live, and once none is, it skips to its stop
//!   point in one call. So after any run — stopped by a plateau or a
//!   budget, or drained — the accounting covers exactly the blocks the run
//!   counted, and the paper's clock cost is the same as if every block had
//!   been applied.
//! * **Self-description**: [`PatternSource::descriptor`] serializes the
//!   generator's identity (kind, polynomial, seed, RNG family, …) for
//!   telemetry and JSON exports, so a replay needs no out-of-band notes.
//!
//! The shipped sources: [`RandomWords`] (the seeded pseudorandom stream
//! Table 2 simulates by default), [`ExhaustiveSource`], [`LfsrSource`] (a
//! hardware-faithful maximal LFSR with the complete-LFSR all-zero
//! remedy), [`WeightedRandomSource`] (per-PI bias vectors), and
//! [`StoredSeedReplay`] (committed reseeding schedules). The paper's own
//! TPG lives in `bibs_core::source::MinTpgSource`, behind the same trait.
//!
//! The counter and the LFSR build whole words per block, never one bit per
//! lane. Every input of an LFSR (and of the paper's TPG, which is an
//! [`LfsrSource`] read at its cone's offsets) is the LFSR's one output
//! sequence at a fixed offset, so a block is one 64-bit window of that
//! sequence per input ([`SequenceWindows`]); the bit-serial
//! [`bibs_lfsr::fsr::Lfsr`] is the reference model the tests compare with.

use bibs_lfsr::fsr::SequenceWindows;
use bibs_lfsr::poly::{primitive_polynomial, Polynomial};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// One block of up to 64 patterns, packed one pattern per `u64` lane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternBlock {
    /// `words[i]` carries the value of primary input *i* across lanes.
    pub words: Vec<u64>,
    /// How many low lanes are patterns (1..=64).
    pub lanes: usize,
}

impl PatternBlock {
    /// Packs explicit patterns (each one `bool` per input) into a block.
    ///
    /// # Panics
    ///
    /// Panics if `patterns` is empty, longer than 64, or a pattern's
    /// width differs from `width`.
    pub fn from_patterns(patterns: &[Vec<bool>], width: usize) -> Self {
        assert!(
            (1..=64).contains(&patterns.len()),
            "1..=64 patterns per block"
        );
        let mut words = vec![0u64; width];
        for (lane, pat) in patterns.iter().enumerate() {
            assert_eq!(pat.len(), width, "pattern width mismatch");
            for (i, &bit) in pat.iter().enumerate() {
                if bit {
                    words[i] |= 1u64 << lane;
                }
            }
        }
        PatternBlock {
            words,
            lanes: patterns.len(),
        }
    }

    /// Unpacks lane `lane` back into one `bool` per input.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= self.lanes`.
    pub fn pattern(&self, lane: usize) -> Vec<bool> {
        assert!(lane < self.lanes, "lane out of range");
        self.words.iter().map(|&w| (w >> lane) & 1 == 1).collect()
    }
}

/// A serializable description of a pattern source: the generator kind
/// plus the key/value fields that make a run replayable (seed,
/// polynomial, RNG family, …).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceDescriptor {
    kind: &'static str,
    fields: Vec<(&'static str, String)>,
}

impl SourceDescriptor {
    /// Starts a descriptor for the given generator kind.
    pub fn new(kind: &'static str) -> Self {
        SourceDescriptor {
            kind,
            fields: Vec::new(),
        }
    }

    /// Appends a key/value field (insertion order is preserved in the
    /// JSON form).
    pub fn field(mut self, key: &'static str, value: impl Into<String>) -> Self {
        self.fields.push((key, value.into()));
        self
    }

    /// The generator kind (`"random"`, `"lfsr"`, …).
    pub fn kind(&self) -> &str {
        self.kind
    }

    /// Looks up a field by key.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.as_str())
    }

    /// The descriptor as a JSON object, e.g.
    /// `{"kind":"random","rng":"xoshiro256**","seed":"0x2a"}`. Field
    /// values are emitted as JSON strings with `"` and `\` escaped.
    pub fn to_json(&self) -> String {
        let escape = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
        let mut out = format!("{{\"kind\":\"{}\"", escape(self.kind));
        for (k, v) in &self.fields {
            out.push_str(&format!(",\"{}\":\"{}\"", escape(k), escape(v)));
        }
        out.push('}');
        out
    }
}

/// A generator of 64-lane pattern blocks with clock accounting.
///
/// See the [module docs](self) for the full contract. The trait is
/// object-safe: bins hold a `Box<dyn PatternSource>` selected by a
/// `--source` flag.
pub trait PatternSource {
    /// Produces the next block of up to 64 patterns of the given input
    /// width, or `None` when the source is exhausted.
    ///
    /// # Panics
    ///
    /// Implementations panic if `width` conflicts with the width the
    /// source was built for (sources without an intrinsic width, like
    /// [`RandomWords`], accept any width).
    fn next_block(&mut self, width: usize) -> Option<PatternBlock>;

    /// Hardware clock cycles spent producing everything emitted so far
    /// (warm-up + one per pattern + reseed loads).
    fn clocks_consumed(&self) -> u64;

    /// Total patterns emitted so far (sum of `lanes` over all blocks).
    fn patterns_emitted(&self) -> u64;

    /// The source's serializable identity.
    fn descriptor(&self) -> SourceDescriptor;

    /// Moves the source on by the blocks that pulling until `patterns`
    /// patterns are taken, or until the source runs dry, would emit, and
    /// returns `(blocks, patterns)` for them. The last block counts all
    /// its lanes, so the patterns returned may exceed `patterns`.
    /// Afterwards the source's accounting and its next block are those of
    /// a source that pulled the blocks one by one.
    ///
    /// The default pulls them with [`PatternSource::next_block`], which is
    /// right for every source; a source that can reach the same state
    /// without building the blocks overrides it.
    ///
    /// # Panics
    ///
    /// As [`PatternSource::next_block`] on a `width` the source rejects.
    fn skip(&mut self, width: usize, patterns: u64) -> (u64, u64) {
        let (mut blocks, mut taken) = (0, 0);
        while taken < patterns {
            let Some(block) = self.next_block(width) else {
                break;
            };
            blocks += 1;
            taken += block.lanes as u64;
        }
        (blocks, taken)
    }
}

/// The pseudorandom stream Table 2 simulates by default: one `u64` word
/// per input per block, drawn in input order, 64 lanes per block. A
/// seeded `RandomWords` draws exactly the words of
/// `StdRng::seed_from_u64(seed)`, so it reproduces any historical random
/// run.
///
/// The descriptor names the RNG family (`"rng":"xoshiro256**"`): the
/// workspace's `compat/rand` `StdRng` is xoshiro256\*\* (not the
/// crates.io ChaCha12), and this descriptor is the *only* place that
/// fact surfaces in machine-readable form, which makes JSON exports
/// self-describing for replays.
///
/// A [`PatternSource::skip`] draws nothing: it owes the skipped blocks'
/// words, and the next [`PatternSource::next_block`] draws and discards
/// them before it draws its own. A run that ends right after its skip
/// never draws them.
#[derive(Debug)]
pub struct RandomWords<R: RngCore> {
    rng: R,
    seed: Option<u64>,
    emitted: u64,
    /// Words that skipped blocks would have drawn, not drawn yet.
    owed: u64,
}

impl RandomWords<StdRng> {
    /// A source drawing from `StdRng::seed_from_u64(seed)` — the
    /// canonical, fully self-describing form.
    pub fn seeded(seed: u64) -> Self {
        RandomWords {
            rng: StdRng::seed_from_u64(seed),
            seed: Some(seed),
            emitted: 0,
            owed: 0,
        }
    }
}

impl<R: RngCore> RandomWords<R> {
    /// Wraps a caller-supplied RNG (the descriptor then reports the seed
    /// as `"external"`). Used by
    /// [`BlockSim::run_random_with_plateau`](crate::sim::BlockSim::run_random_with_plateau),
    /// which receives a live `&mut impl Rng`. A skip draws nothing, so a
    /// borrowed generator advances past skipped blocks only on the next
    /// pull; that caller runs without a prover and never skips.
    pub fn from_rng(rng: R) -> Self {
        RandomWords {
            rng,
            seed: None,
            emitted: 0,
            owed: 0,
        }
    }
}

impl<R: RngCore> PatternSource for RandomWords<R> {
    fn next_block(&mut self, width: usize) -> Option<PatternBlock> {
        for _ in 0..std::mem::take(&mut self.owed) {
            self.rng.next_u64();
        }
        let words = (0..width).map(|_| self.rng.next_u64()).collect();
        self.emitted += 64;
        Some(PatternBlock { words, lanes: 64 })
    }

    fn clocks_consumed(&self) -> u64 {
        // A PRPG register produces one pattern per clock; no warm-up.
        self.emitted
    }

    fn patterns_emitted(&self) -> u64 {
        self.emitted
    }

    /// Owes the skipped blocks' words to the next pull instead of drawing
    /// them; the accounting moves on at once.
    fn skip(&mut self, width: usize, patterns: u64) -> (u64, u64) {
        let blocks = patterns.div_ceil(64);
        self.owed += blocks * width as u64;
        self.emitted += 64 * blocks;
        (blocks, 64 * blocks)
    }

    fn descriptor(&self) -> SourceDescriptor {
        let d = SourceDescriptor::new("random").field("rng", "xoshiro256**");
        match self.seed {
            Some(s) => d.field("seed", format!("{s:#x}")),
            None => d.field("seed", "external"),
        }
    }
}

/// Counts through all `2^width` input patterns in ascending order (lane
/// *k* of a block carries pattern `base + k`).
///
/// Blocks start at multiples of 64, so each word has a closed form: input
/// *i* < 6 is the fixed lane pattern of bit *i* of the lane index, and
/// input *i* ≥ 6 is constant across the block, bit *i* of `base`.
#[derive(Debug)]
pub struct ExhaustiveSource {
    width: usize,
    next: u64,
    total: u64,
}

impl ExhaustiveSource {
    /// A source enumerating all `2^width` patterns.
    ///
    /// # Panics
    ///
    /// Panics if `width` exceeds 63 (the pattern counter is a `u64`).
    pub fn new(width: usize) -> Self {
        assert!(width <= 63, "exhaustive enumeration needs width <= 63");
        ExhaustiveSource {
            width,
            next: 0,
            total: 1u64 << width,
        }
    }
}

/// `LANE_INDEX_BITS[i]` has lane *k* set iff bit *i* of *k* is set.
const LANE_INDEX_BITS: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

impl PatternSource for ExhaustiveSource {
    fn next_block(&mut self, width: usize) -> Option<PatternBlock> {
        assert_eq!(width, self.width, "source width mismatch");
        if self.next >= self.total {
            return None;
        }
        let lanes = 64u64.min(self.total - self.next) as usize;
        let mask = u64::MAX >> (64 - lanes);
        let words = (0..width)
            .map(|i| match LANE_INDEX_BITS.get(i) {
                Some(&bits) => bits & mask,
                None if (self.next >> i) & 1 == 1 => mask,
                None => 0,
            })
            .collect();
        self.next += lanes as u64;
        Some(PatternBlock { words, lanes })
    }

    fn clocks_consumed(&self) -> u64 {
        // A binary counter advances one pattern per clock.
        self.next
    }

    fn patterns_emitted(&self) -> u64 {
        self.next
    }

    fn descriptor(&self) -> SourceDescriptor {
        SourceDescriptor::new("exhaustive").field("width", self.width.to_string())
    }
}

/// Explicit patterns (one `bool` per input each) replayed in blocks of
/// 64: the stream behind
/// [`BlockSim::run_patterns`](crate::sim::BlockSim::run_patterns).
#[derive(Debug)]
pub(crate) struct PatternList<'a> {
    chunks: std::slice::Chunks<'a, Vec<bool>>,
    width: usize,
    emitted: u64,
}

impl<'a> PatternList<'a> {
    /// A source replaying `patterns`, each `width` bits wide.
    pub(crate) fn new(patterns: &'a [Vec<bool>], width: usize) -> Self {
        PatternList {
            chunks: patterns.chunks(64),
            width,
            emitted: 0,
        }
    }
}

impl PatternSource for PatternList<'_> {
    fn next_block(&mut self, width: usize) -> Option<PatternBlock> {
        assert_eq!(width, self.width, "source width mismatch");
        let block = PatternBlock::from_patterns(self.chunks.next()?, width);
        self.emitted += block.lanes as u64;
        Some(block)
    }

    fn clocks_consumed(&self) -> u64 {
        self.emitted
    }

    fn patterns_emitted(&self) -> u64 {
        self.emitted
    }

    fn descriptor(&self) -> SourceDescriptor {
        SourceDescriptor::new("patterns")
    }
}

/// A hardware-faithful maximal-length type-1 LFSR: each pattern is
/// stages `1..=width`, one shift per clock, over the full `2^M − 1`
/// period, followed by the single all-zero pattern a plain maximal LFSR
/// cannot produce — the paper's complete-LFSR remedy (ref \[15\]).
///
/// Input *i* reads stage *i + 1*, which is the LFSR's output sequence at
/// offset *i*, so each block is built word-parallel as one window of that
/// sequence per input ([`SequenceWindows`]). [`LfsrSource::with_offsets`]
/// reads other offsets, including ones past the last stage; the paper's
/// TPG (`bibs_core::source::MinTpgSource`) is this source read at its
/// cone's offsets.
#[derive(Debug)]
pub struct LfsrSource {
    windows: SequenceWindows,
    poly: Polynomial,
    width: usize,
    seed: u64,
    warmup: u64,
    /// Patterns still to come from the maximal sequence.
    period_left: u64,
    emitted: u64,
    clocks: u64,
}

impl LfsrSource {
    /// An LFSR source of degree `max(width, 2)` using the crate's table
    /// primitive polynomial, seeded from the low bits of `seed` (an
    /// all-zero truncation is nudged to `…01`, since a plain LFSR must
    /// start nonzero).
    ///
    /// # Errors
    ///
    /// Fails if `width` is 0 or exceeds 64 (the degree must fit a `u64`
    /// seed and the table).
    pub fn new(width: usize, seed: u64) -> Result<Self, String> {
        if width == 0 {
            return Err("LFSR source needs at least one input".into());
        }
        if width > 64 {
            return Err(format!("LFSR source capped at 64 inputs, got {width}"));
        }
        let degree = width.max(2) as u32;
        let poly = primitive_polynomial(degree)
            .ok_or_else(|| format!("no primitive polynomial of degree {degree}"))?;
        Ok(Self::with_polynomial(&poly, width, seed))
    }

    /// An LFSR source over an explicit characteristic polynomial. The
    /// pattern width may be less than the degree (the low stages are the
    /// outputs).
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or exceeds the polynomial degree, or the
    /// degree exceeds 64.
    pub fn with_polynomial(poly: &Polynomial, width: usize, seed: u64) -> Self {
        assert!(
            (1..=poly.degree() as usize).contains(&width),
            "pattern width must be 1..=degree"
        );
        Self::with_offsets(poly, (0..width).collect(), seed)
    }

    /// An LFSR source whose input *i* reads the output sequence at
    /// `offsets[i]`: stage `offsets[i] + 1`, or for an offset of at least
    /// the degree, a flip-flop of a shift-register extension after the
    /// last stage that starts all zero. The seed is used as in
    /// [`LfsrSource::with_polynomial`].
    ///
    /// # Panics
    ///
    /// Panics if `offsets` is empty, or the degree is 0 or exceeds 64.
    pub fn with_offsets(poly: &Polynomial, offsets: Vec<usize>, seed: u64) -> Self {
        let degree = poly.degree();
        assert!(
            (1..=64).contains(&degree),
            "LFSR source degree must be 1..=64"
        );
        assert!(!offsets.is_empty(), "LFSR source needs at least one input");
        let mut state = seed & (u64::MAX >> (64 - degree));
        if state == 0 {
            state = 1;
        }
        let period_left = if degree == 64 {
            u64::MAX
        } else {
            (1u64 << degree) - 1
        };
        LfsrSource {
            width: offsets.len(),
            windows: SequenceWindows::new(poly, state, offsets),
            poly: poly.clone(),
            seed: state,
            warmup: 0,
            period_left,
            emitted: 0,
            clocks: 0,
        }
    }

    /// Clocks the LFSR `steps` times before the first pattern (modelling
    /// the warm-up shifts a TPG spends filling its extension
    /// flip-flops); the cycles are charged to [`clocks_consumed`].
    ///
    /// [`clocks_consumed`]: PatternSource::clocks_consumed
    pub fn warmed_up(mut self, steps: u64) -> Self {
        self.windows.advance(steps);
        self.warmup += steps;
        self.clocks += steps;
        self
    }

    /// The characteristic polynomial driving this source.
    pub fn polynomial(&self) -> &Polynomial {
        &self.poly
    }
}

impl PatternSource for LfsrSource {
    fn next_block(&mut self, width: usize) -> Option<PatternBlock> {
        assert_eq!(width, self.width, "source width mismatch");
        if self.period_left == 0 {
            return None;
        }
        let lanes = self.period_left.min(64) as usize;
        let mut block = PatternBlock {
            words: self.windows.next_block(lanes),
            lanes,
        };
        self.period_left -= lanes as u64;
        self.clocks += lanes as u64;
        if self.period_left == 0 {
            // The appended all-zero pattern. The period 2^M − 1 is odd, so
            // its last block is ragged and the next lane is free and zero.
            block.lanes += 1;
            self.clocks += 1;
        }
        self.emitted += block.lanes as u64;
        Some(block)
    }

    fn clocks_consumed(&self) -> u64 {
        self.clocks
    }

    fn patterns_emitted(&self) -> u64 {
        self.emitted
    }

    /// Counts the skipped blocks from `period_left` and jumps the
    /// sequence by the clocks they take
    /// ([`SequenceWindows::jump`]), so a skip costs no block builds.
    fn skip(&mut self, width: usize, patterns: u64) -> (u64, u64) {
        assert_eq!(width, self.width, "source width mismatch");
        let blocks_left = self.period_left.div_ceil(64);
        let blocks = patterns.div_ceil(64).min(blocks_left);
        if blocks == 0 {
            return (0, 0);
        }
        let (clocks, taken) = if blocks < blocks_left {
            (64 * blocks, 64 * blocks)
        } else {
            // The ragged last block: the rest of the period, then the
            // all-zero pattern's clock.
            (self.period_left, self.period_left + 1)
        };
        self.windows.jump(clocks);
        self.period_left -= clocks;
        self.clocks += taken;
        self.emitted += taken;
        (blocks, taken)
    }

    fn descriptor(&self) -> SourceDescriptor {
        SourceDescriptor::new("lfsr")
            .field("polynomial", self.polynomial().to_string())
            .field("degree", self.polynomial().degree().to_string())
            .field("width", self.width.to_string())
            .field("seed", format!("{:#x}", self.seed))
            .field("warmup", self.warmup.to_string())
    }
}

/// Biased pseudorandom patterns: input *i* is 1 with probability
/// `bias[i]` each cycle, independently across inputs and cycles — the
/// weighted-random generators of functional-BIST practice, where biasing
/// toward hard-to-excite values shortens the tail of the coverage curve.
///
/// Bias 0.0/1.0 pin an input to a constant; 0.5 is a fair coin (the
/// per-bit comparison `draw < bias·2^64` is exact, so 0.5 matches
/// [`RandomWords`]' marginal distribution bit for bit in expectation).
#[derive(Debug)]
pub struct WeightedRandomSource {
    rng: StdRng,
    seed: u64,
    biases: Vec<f64>,
    /// `P(bit = 1) = thresholds[i] / 2^64`, exact in fixed point.
    thresholds: Vec<u128>,
    emitted: u64,
}

impl WeightedRandomSource {
    /// A weighted source with one bias per primary input.
    ///
    /// # Errors
    ///
    /// Fails if `biases` is empty or any bias is outside `0.0..=1.0`
    /// (NaN included).
    pub fn new(seed: u64, biases: Vec<f64>) -> Result<Self, String> {
        if biases.is_empty() {
            return Err("weighted source needs at least one bias".into());
        }
        let mut thresholds = Vec::with_capacity(biases.len());
        for (i, &b) in biases.iter().enumerate() {
            if !(0.0..=1.0).contains(&b) {
                return Err(format!("bias[{i}] = {b} outside 0.0..=1.0"));
            }
            thresholds.push((b * 2f64.powi(64)) as u128);
        }
        Ok(WeightedRandomSource {
            rng: StdRng::seed_from_u64(seed),
            seed,
            biases,
            thresholds,
            emitted: 0,
        })
    }
}

impl PatternSource for WeightedRandomSource {
    fn next_block(&mut self, width: usize) -> Option<PatternBlock> {
        assert_eq!(
            width,
            self.biases.len(),
            "source width mismatch: {} biases for width {width}",
            self.biases.len()
        );
        // One draw per input per lane, input-major, in lane order.
        let words = self
            .thresholds
            .iter()
            .map(|&t| {
                let mut w = 0u64;
                for lane in 0..64 {
                    if (self.rng.next_u64() as u128) < t {
                        w |= 1u64 << lane;
                    }
                }
                w
            })
            .collect();
        self.emitted += 64;
        Some(PatternBlock { words, lanes: 64 })
    }

    fn clocks_consumed(&self) -> u64 {
        // The bias network is combinational: one pattern per clock.
        self.emitted
    }

    fn patterns_emitted(&self) -> u64 {
        self.emitted
    }

    fn descriptor(&self) -> SourceDescriptor {
        let biases = self
            .biases
            .iter()
            .map(|b| format!("{b}"))
            .collect::<Vec<_>>()
            .join(",");
        SourceDescriptor::new("weighted")
            .field("rng", "xoshiro256**")
            .field("seed", format!("{:#x}", self.seed))
            .field("biases", biases)
    }
}

/// One entry of a stored reseeding schedule: run the PRPG from `seed`
/// for `patterns` cycles, then load the next seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedSegment {
    /// The seed loaded into the PRPG.
    pub seed: u64,
    /// Patterns generated before the next reseed.
    pub patterns: u64,
}

/// Replays a committed reseeding schedule: each segment seeds a fresh
/// `StdRng` and draws [`RandomWords`]-compatible blocks for its pattern
/// budget — the stored-seed/hybrid-BIST shape where a tester reloads the
/// PRPG at scheduled points. Each reseed load costs one extra clock.
///
/// The file format is line-oriented: `#` starts a comment; each data
/// line is `<seed> [patterns]` with the seed in `0x…` hex or decimal
/// and the pattern count defaulting to 64. An optional `width N`
/// directive line declares the kernel input width the schedule was
/// recorded for; consumers can preflight it against the kernel actually
/// driven ([`StoredSeedReplay::declared_width`], the `B060` lint).
#[derive(Debug)]
pub struct StoredSeedReplay {
    label: String,
    declared_width: Option<usize>,
    segments: Vec<SeedSegment>,
    seg_idx: usize,
    /// Patterns already emitted from the current segment.
    seg_done: u64,
    rng: Option<StdRng>,
    reseeds: u64,
    emitted: u64,
}

impl StoredSeedReplay {
    /// Parses a schedule from text; `label` names it in descriptors
    /// (usually the file path).
    ///
    /// # Errors
    ///
    /// Fails on malformed lines or an empty schedule.
    pub fn parse(label: &str, text: &str) -> Result<Self, String> {
        let mut segments = Vec::new();
        let mut declared_width: Option<usize> = None;
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split_whitespace();
            let seed_tok = parts.next().expect("non-empty line has a token");
            if seed_tok == "width" {
                let w = parts
                    .next()
                    .and_then(|tok| parse_u64(tok).filter(|&n| n > 0))
                    .ok_or_else(|| format!("line {}: bad width directive", lineno + 1))?;
                if parts.next().is_some() {
                    return Err(format!("line {}: trailing token after width", lineno + 1));
                }
                if declared_width.replace(w as usize).is_some() {
                    return Err(format!("line {}: duplicate width directive", lineno + 1));
                }
                continue;
            }
            let seed = parse_u64(seed_tok)
                .ok_or_else(|| format!("line {}: bad seed {seed_tok:?}", lineno + 1))?;
            let patterns = match parts.next() {
                Some(tok) => parse_u64(tok)
                    .filter(|&n| n > 0)
                    .ok_or_else(|| format!("line {}: bad pattern count {tok:?}", lineno + 1))?,
                None => 64,
            };
            if let Some(extra) = parts.next() {
                return Err(format!("line {}: trailing token {extra:?}", lineno + 1));
            }
            segments.push(SeedSegment { seed, patterns });
        }
        if segments.is_empty() {
            return Err(format!("{label}: no seed segments"));
        }
        Ok(StoredSeedReplay {
            label: label.to_string(),
            declared_width,
            segments,
            seg_idx: 0,
            seg_done: 0,
            rng: None,
            reseeds: 0,
            emitted: 0,
        })
    }

    /// Reads and parses a schedule file.
    ///
    /// # Errors
    ///
    /// Fails if the file cannot be read or does not parse.
    pub fn from_file(path: &str) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Self::parse(path, &text)
    }

    /// The parsed schedule.
    pub fn segments(&self) -> &[SeedSegment] {
        &self.segments
    }

    /// The kernel input width declared by the schedule's `width N`
    /// directive, if present. A declared width that disagrees with the
    /// kernel being driven is a `B060` lint violation and fails the
    /// bench binaries' `--source` preflight.
    pub fn declared_width(&self) -> Option<usize> {
        self.declared_width
    }
}

fn parse_u64(tok: &str) -> Option<u64> {
    if let Some(hex) = tok.strip_prefix("0x").or_else(|| tok.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        tok.parse().ok()
    }
}

impl PatternSource for StoredSeedReplay {
    fn next_block(&mut self, width: usize) -> Option<PatternBlock> {
        let seg = *self.segments.get(self.seg_idx)?;
        let rng = self.rng.get_or_insert_with(|| {
            self.reseeds += 1;
            StdRng::seed_from_u64(seg.seed)
        });
        // Within a segment the stream is RandomWords-compatible: one
        // word per input per block, full 64-lane draws, with only the
        // low `lanes` lanes counted against the segment budget.
        let words: Vec<u64> = (0..width).map(|_| rng.next_u64()).collect();
        let lanes = 64u64.min(seg.patterns - self.seg_done) as usize;
        self.seg_done += lanes as u64;
        if self.seg_done == seg.patterns {
            self.seg_idx += 1;
            self.seg_done = 0;
            self.rng = None;
        }
        self.emitted += lanes as u64;
        Some(PatternBlock { words, lanes })
    }

    fn clocks_consumed(&self) -> u64 {
        // One clock per pattern plus one per seed load.
        self.emitted + self.reseeds
    }

    fn patterns_emitted(&self) -> u64 {
        self.emitted
    }

    fn descriptor(&self) -> SourceDescriptor {
        let total: u64 = self.segments.iter().map(|s| s.patterns).sum();
        let mut d = SourceDescriptor::new("replay")
            .field("rng", "xoshiro256**")
            .field("file", self.label.clone())
            .field("segments", self.segments.len().to_string())
            .field("patterns", total.to_string());
        if let Some(w) = self.declared_width {
            d = d.field("width", w.to_string());
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_pack_unpack_roundtrip() {
        let pats = vec![
            vec![true, false, true],
            vec![false, false, true],
            vec![true, true, false],
        ];
        let block = PatternBlock::from_patterns(&pats, 3);
        assert_eq!(block.lanes, 3);
        for (lane, pat) in pats.iter().enumerate() {
            assert_eq!(&block.pattern(lane), pat);
        }
    }

    #[test]
    fn random_words_matches_raw_rng_stream() {
        let mut src = RandomWords::seeded(0xB1B5);
        let mut rng = StdRng::seed_from_u64(0xB1B5);
        for _ in 0..3 {
            let block = src.next_block(5).expect("random never exhausts");
            let raw: Vec<u64> = (0..5).map(|_| rng.next_u64()).collect();
            assert_eq!(block.words, raw);
            assert_eq!(block.lanes, 64);
        }
        assert_eq!(src.patterns_emitted(), 192);
        assert_eq!(src.clocks_consumed(), 192);
    }

    #[test]
    fn random_descriptor_names_the_rng_family() {
        let src = RandomWords::seeded(42);
        let d = src.descriptor();
        assert_eq!(d.kind(), "random");
        assert_eq!(d.get("rng"), Some("xoshiro256**"));
        assert_eq!(d.get("seed"), Some("0x2a"));
        assert_eq!(
            d.to_json(),
            r#"{"kind":"random","rng":"xoshiro256**","seed":"0x2a"}"#
        );
        let external = RandomWords::from_rng(StdRng::seed_from_u64(1));
        assert_eq!(external.descriptor().get("seed"), Some("external"));
    }

    #[test]
    fn exhaustive_source_counts_every_pattern_once() {
        let mut src = ExhaustiveSource::new(7);
        let mut seen = std::collections::HashSet::new();
        while let Some(block) = src.next_block(7) {
            for lane in 0..block.lanes {
                let pat = block.pattern(lane);
                let v = pat
                    .iter()
                    .enumerate()
                    .fold(0u64, |a, (i, &b)| a | ((b as u64) << i));
                assert!(seen.insert(v), "pattern {v} repeated");
            }
        }
        assert_eq!(seen.len(), 128);
        assert_eq!(src.patterns_emitted(), 128);
        assert_eq!(src.clocks_consumed(), 128);
    }

    #[test]
    fn exhaustive_source_matches_the_bit_loop() {
        for width in 0..=12 {
            let mut src = ExhaustiveSource::new(width);
            let mut base = 0u64;
            while let Some(block) = src.next_block(width) {
                let lanes = 64u64.min((1 << width) - base) as usize;
                let mut words = vec![0u64; width];
                for lane in 0..lanes {
                    let pattern = base + lane as u64;
                    for (i, word) in words.iter_mut().enumerate() {
                        *word |= ((pattern >> i) & 1) << lane;
                    }
                }
                assert_eq!(block, PatternBlock { words, lanes }, "width {width}");
                base += lanes as u64;
            }
            assert_eq!(base, 1 << width);
            assert_eq!(src.patterns_emitted(), 1 << width);
        }
    }

    #[test]
    fn lfsr_source_is_functionally_exhaustive_with_zero_remedy() {
        let mut src = LfsrSource::new(6, 0x51B5).expect("degree 6 in table");
        let mut seen = std::collections::HashSet::new();
        let mut blocks = Vec::new();
        while let Some(block) = src.next_block(6) {
            for lane in 0..block.lanes {
                seen.insert(block.pattern(lane));
            }
            blocks.push(block);
        }
        // 2^6 − 1 maximal-sequence patterns plus the appended all-zero.
        assert_eq!(src.patterns_emitted(), 64);
        assert_eq!(seen.len(), 64, "every 6-bit pattern exactly once");
        let last = blocks.last().unwrap();
        assert_eq!(last.pattern(last.lanes - 1), vec![false; 6]);
        // One clock per pattern, no warm-up requested.
        assert_eq!(src.clocks_consumed(), 64);
    }

    #[test]
    fn lfsr_warmup_charges_clocks_but_emits_nothing() {
        let plain = LfsrSource::new(4, 9).unwrap();
        let warmed = LfsrSource::new(4, 9).unwrap().warmed_up(5);
        assert_eq!(plain.clocks_consumed(), 0);
        assert_eq!(warmed.clocks_consumed(), 5);
        assert_eq!(warmed.patterns_emitted(), 0);
        assert_eq!(warmed.descriptor().get("warmup"), Some("5"));
    }

    #[test]
    fn lfsr_zero_seed_is_nudged_nonzero() {
        let src = LfsrSource::new(4, 0).unwrap();
        assert_eq!(src.descriptor().get("seed"), Some("0x1"));
        // A seed whose low `degree` bits truncate to zero is nudged too.
        let src = LfsrSource::new(4, 1 << 40).unwrap();
        assert_eq!(src.descriptor().get("seed"), Some("0x1"));
    }

    #[test]
    fn weighted_extreme_biases_pin_constants() {
        let mut src = WeightedRandomSource::new(3, vec![0.0, 1.0, 0.5]).unwrap();
        let block = src.next_block(3).unwrap();
        assert_eq!(block.words[0], 0, "bias 0.0 is constant 0");
        assert_eq!(block.words[1], !0, "bias 1.0 is constant 1");
    }

    #[test]
    fn weighted_rejects_bad_biases() {
        assert!(WeightedRandomSource::new(1, vec![]).is_err());
        assert!(WeightedRandomSource::new(1, vec![1.5]).is_err());
        assert!(WeightedRandomSource::new(1, vec![-0.1]).is_err());
        assert!(WeightedRandomSource::new(1, vec![f64::NAN]).is_err());
    }

    #[test]
    fn replay_parses_and_chains_segments() {
        let text = "# schedule\n0x2a 100\n7\n0x1 3\n";
        let mut src = StoredSeedReplay::parse("inline", text).unwrap();
        assert_eq!(
            src.segments(),
            &[
                SeedSegment {
                    seed: 0x2a,
                    patterns: 100
                },
                SeedSegment {
                    seed: 7,
                    patterns: 64
                },
                SeedSegment {
                    seed: 1,
                    patterns: 3
                },
            ]
        );
        let mut lanes = Vec::new();
        while let Some(block) = src.next_block(2) {
            lanes.push(block.lanes);
        }
        assert_eq!(lanes, vec![64, 36, 64, 3]);
        assert_eq!(src.patterns_emitted(), 167);
        // One clock per pattern plus one per reseed load.
        assert_eq!(src.clocks_consumed(), 167 + 3);
    }

    #[test]
    fn replay_segment_matches_seeded_random_words() {
        // A single-segment schedule is RandomWords from that seed.
        let mut replay = StoredSeedReplay::parse("inline", "0x5 128").unwrap();
        let mut random = RandomWords::seeded(5);
        for _ in 0..2 {
            let a = replay.next_block(4).unwrap();
            let b = random.next_block(4).unwrap();
            assert_eq!(a.words, b.words);
        }
        assert!(replay.next_block(4).is_none());
    }

    #[test]
    fn replay_rejects_malformed_schedules() {
        assert!(StoredSeedReplay::parse("x", "").is_err());
        assert!(StoredSeedReplay::parse("x", "# only comments\n").is_err());
        assert!(StoredSeedReplay::parse("x", "zzz").is_err());
        assert!(StoredSeedReplay::parse("x", "0x1 0").is_err());
        assert!(StoredSeedReplay::parse("x", "0x1 2 3").is_err());
        assert!(StoredSeedReplay::parse("x", "width\n0x1").is_err());
        assert!(StoredSeedReplay::parse("x", "width 0\n0x1").is_err());
        assert!(StoredSeedReplay::parse("x", "width 4 5\n0x1").is_err());
        assert!(StoredSeedReplay::parse("x", "width 4\nwidth 4\n0x1").is_err());
    }

    #[test]
    fn replay_width_directive_is_parsed_and_reported() {
        let src = StoredSeedReplay::parse("x", "# recorded for add2\nwidth 4\n0x5 128").unwrap();
        assert_eq!(src.declared_width(), Some(4));
        assert_eq!(src.segments().len(), 1);
        assert!(src.descriptor().to_json().contains("\"width\":\"4\""));
        // Schedules without the directive declare nothing.
        let bare = StoredSeedReplay::parse("x", "0x5 128").unwrap();
        assert_eq!(bare.declared_width(), None);
        assert!(!bare.descriptor().to_json().contains("width"));
    }

    /// Pulls blocks until `patterns` are taken or `source` runs dry, as
    /// the trait's default `skip` is documented to.
    fn pull(source: &mut dyn PatternSource, width: usize, patterns: u64) -> (u64, u64) {
        let (mut blocks, mut taken) = (0, 0);
        while taken < patterns {
            let Some(block) = source.next_block(width) else {
                break;
            };
            blocks += 1;
            taken += block.lanes as u64;
        }
        (blocks, taken)
    }

    /// One skip, and two back to back, of each of `counts` patterns, after
    /// `before` pulled patterns, must leave `make()` where pulling leaves
    /// it: the same blocks and patterns, accounting and next block.
    fn assert_skip_is_pulling(
        what: &str,
        make: &dyn Fn() -> Box<dyn PatternSource>,
        width: usize,
        before: u64,
        counts: &[u64],
    ) {
        for (&n, skips) in counts.iter().flat_map(|n| [(n, 1), (n, 2)]) {
            let (mut skipped, mut pulled) = (make(), make());
            pull(&mut *skipped, width, before);
            pull(&mut *pulled, width, before);
            let what = format!("{what}, {skips} x {n} patterns after {before}");
            for _ in 0..skips {
                assert_eq!(
                    skipped.skip(width, n),
                    pull(&mut *pulled, width, n),
                    "{what}"
                );
            }
            assert_eq!(
                skipped.clocks_consumed(),
                pulled.clocks_consumed(),
                "{what}"
            );
            assert_eq!(
                skipped.patterns_emitted(),
                pulled.patterns_emitted(),
                "{what}"
            );
            assert_eq!(
                skipped.next_block(width),
                pulled.next_block(width),
                "{what}"
            );
        }
    }

    const COUNTS: [u64; 9] = [0, 1, 63, 64, 65, 1000, 1024, 4097, 100_000];

    #[test]
    fn random_words_skip_draws_what_pulling_draws() {
        let make = || Box::new(RandomWords::seeded(0xB1B5)) as Box<dyn PatternSource>;
        for before in [0, 64] {
            assert_skip_is_pulling("random", &make, 5, before, &COUNTS);
        }
    }

    #[test]
    fn lfsr_skip_jumps_where_pulling_goes() {
        // Degree 4 runs dry after one block, degree 10 after 16; degree 20
        // and the offsets past the register do not within the counts.
        for (degree, offsets, warmup) in [
            (4, vec![0, 1, 2, 3], 0),
            (10, vec![0, 3, 9, 10, 70], 7),
            (20, vec![0, 5, 19, 130], 200),
        ] {
            let poly = primitive_polynomial(degree).unwrap();
            let width = offsets.len();
            let make = || {
                Box::new(LfsrSource::with_offsets(&poly, offsets.clone(), 0x51B5).warmed_up(warmup))
                    as Box<dyn PatternSource>
            };
            for before in [0, 64, 1000] {
                assert_skip_is_pulling(
                    &format!("lfsr degree {degree}"),
                    &make,
                    width,
                    before,
                    &COUNTS,
                );
            }
        }
    }

    #[test]
    fn default_skip_pulls_ragged_and_finite_sources() {
        let replay = || {
            Box::new(StoredSeedReplay::parse("inline", "0x2a 100\n7\n0x1 3\n").unwrap())
                as Box<dyn PatternSource>
        };
        let exhaustive = || Box::new(ExhaustiveSource::new(9)) as Box<dyn PatternSource>;
        let weighted = || {
            Box::new(WeightedRandomSource::new(3, vec![0.25, 0.5, 0.75]).unwrap())
                as Box<dyn PatternSource>
        };
        for before in [0, 1, 100] {
            assert_skip_is_pulling("replay", &replay, 2, before, &COUNTS);
            assert_skip_is_pulling("exhaustive", &exhaustive, 9, before, &COUNTS);
            assert_skip_is_pulling("weighted", &weighted, 3, before, &COUNTS[..7]);
        }
    }

    #[test]
    fn descriptor_json_escapes_quotes_and_backslashes() {
        let d = SourceDescriptor::new("replay").field("file", r#"a"b\c"#);
        assert_eq!(d.to_json(), r#"{"kind":"replay","file":"a\"b\\c"}"#);
    }
}
