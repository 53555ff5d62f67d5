//! Feedback shift registers: type-1 (external XOR), type-2 (internal XOR),
//! the complete (de Bruijn) variant, and plain shift registers.
//!
//! The paper's TPG construction (Section 4) relies on a property specific to
//! **type-1** LFSRs: *"the data present in the i-th stage of L at time t is
//! the same as the data present in the (i−1)-st stage of L at time t−1 for
//! i > 1"*. Stages here are numbered 1..=n with stage 1 the most significant
//! bit; internally stage *i* is bit *i−1* of a [`BitVec`].

use crate::bitvec::BitVec;
use crate::poly::Polynomial;

/// LFSR feedback structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LfsrKind {
    /// External-XOR (Fibonacci) LFSR: stages form a pure shift register;
    /// the feedback XOR sits outside the shift path. This is the kind the
    /// paper's TPG requires.
    Type1,
    /// Internal-XOR (Galois) LFSR: XOR gates sit *between* stages, so the
    /// shift property is broken at tapped stages. Provided for the ablation
    /// showing why SC_TPG needs type 1.
    Type2,
}

/// A linear feedback shift register of arbitrary width.
///
/// # Example
///
/// ```
/// use bibs_lfsr::fsr::{Lfsr, LfsrKind};
/// use bibs_lfsr::poly::primitive_polynomial;
///
/// let p = primitive_polynomial(3).expect("in table");
/// let mut l = Lfsr::with_seed_u64(&p, LfsrKind::Type1, 0b001);
/// let states: Vec<u64> = (0..7).map(|_| { let s = l.state_u64(); l.step(); s }).collect();
/// let unique: std::collections::HashSet<_> = states.iter().collect();
/// assert_eq!(unique.len(), 7); // maximal period 2^3 - 1
/// ```
#[derive(Debug, Clone)]
pub struct Lfsr {
    kind: LfsrKind,
    poly: Polynomial,
    /// Stage tap mask for type 1 (bit *i* set ⇒ stage *i+1* is tapped);
    /// coefficient mask (without the leading term) for type 2.
    mask: BitVec,
    state: BitVec,
}

impl Lfsr {
    /// Creates an LFSR from a characteristic polynomial, seeded with the
    /// state `00…01` (only the last stage set).
    ///
    /// # Panics
    ///
    /// Panics if the polynomial's constant coefficient is absent (such a
    /// polynomial is divisible by `x` and cannot be a proper LFSR
    /// characteristic polynomial).
    pub fn new(poly: &Polynomial, kind: LfsrKind) -> Self {
        assert!(
            poly.exponents().contains(&0),
            "characteristic polynomial must have a nonzero constant term"
        );
        let n = poly.degree() as usize;
        let mut mask = BitVec::zeros(n);
        match kind {
            LfsrKind::Type1 => {
                for t in poly.tap_stages() {
                    mask.set(t as usize - 1, true);
                }
            }
            LfsrKind::Type2 => {
                for &e in poly.exponents() {
                    if (e as usize) < n {
                        mask.set(e as usize, true);
                    }
                }
            }
        }
        let mut state = BitVec::zeros(n);
        state.set(n - 1, true);
        Lfsr {
            kind,
            poly: poly.clone(),
            mask,
            state,
        }
    }

    /// Creates an LFSR seeded from the low bits of `seed` (bit *i* of the
    /// seed is stage *i+1*).
    ///
    /// # Panics
    ///
    /// Panics if the degree exceeds 64 or the seed is zero (an LFSR seeded
    /// all-zero is stuck; use [`CompleteLfsr`] if the all-0 state is
    /// needed).
    pub fn with_seed_u64(poly: &Polynomial, kind: LfsrKind, seed: u64) -> Self {
        assert!(poly.degree() <= 64, "u64 seed requires degree ≤ 64");
        assert!(seed != 0, "LFSR seed must be nonzero");
        let mut l = Lfsr::new(poly, kind);
        l.state = BitVec::from_u64(seed, poly.degree() as usize);
        l
    }

    /// Creates an LFSR with an explicit seed state.
    ///
    /// # Panics
    ///
    /// Panics if the seed length differs from the degree or the seed is all
    /// zeros.
    pub fn with_seed(poly: &Polynomial, kind: LfsrKind, seed: BitVec) -> Self {
        assert_eq!(
            seed.len(),
            poly.degree() as usize,
            "seed width must equal the LFSR degree"
        );
        assert!(!seed.is_zero(), "LFSR seed must be nonzero");
        let mut l = Lfsr::new(poly, kind);
        l.state = seed;
        l
    }

    /// The number of stages.
    pub fn width(&self) -> usize {
        self.state.len()
    }

    /// The feedback structure.
    pub fn kind(&self) -> LfsrKind {
        self.kind
    }

    /// The characteristic polynomial.
    pub fn polynomial(&self) -> &Polynomial {
        &self.poly
    }

    /// The current state; stage *i* (1-indexed) is bit *i−1*.
    pub fn state(&self) -> &BitVec {
        &self.state
    }

    /// The current state packed into a `u64` (stage *i* at bit *i−1*).
    ///
    /// # Panics
    ///
    /// Panics if the width exceeds 64.
    pub fn state_u64(&self) -> u64 {
        assert!(self.width() <= 64);
        self.state.to_u64()
    }

    /// Reads stage `i` (1-indexed).
    ///
    /// # Panics
    ///
    /// Panics if `i` is 0 or exceeds the width.
    pub fn stage(&self, i: usize) -> bool {
        assert!(i >= 1 && i <= self.width(), "stage index out of range");
        self.state.get(i - 1)
    }

    /// Advances one clock cycle.
    pub fn step(&mut self) {
        match self.kind {
            LfsrKind::Type1 => {
                let fb = self.state.masked_parity(&self.mask);
                self.state.shift_up(fb);
            }
            LfsrKind::Type2 => {
                // Multiply-by-x in GF(2)[x]/p: shift, and on overflow of the
                // top coefficient, XOR the polynomial's low terms back in.
                let out = self.state.shift_up(false);
                if out {
                    let n = self.width();
                    for i in 0..n {
                        if self.mask.get(i) {
                            let v = self.state.get(i);
                            self.state.set(i, !v);
                        }
                    }
                }
            }
        }
    }

    /// Runs the LFSR until the state recurs, returning the period.
    ///
    /// Intended for verification of small LFSRs; the period of a maximal
    /// degree-*n* LFSR is `2^n − 1`, so keep *n* modest.
    pub fn period(&self) -> u64 {
        let mut probe = self.clone();
        let start = probe.state.clone();
        let mut count = 0u64;
        loop {
            probe.step();
            count += 1;
            if probe.state == start {
                return count;
            }
        }
    }
}

/// Iterator over successive LFSR states.
impl Iterator for Lfsr {
    type Item = BitVec;

    fn next(&mut self) -> Option<BitVec> {
        let s = self.state.clone();
        self.step();
        Some(s)
    }
}

/// A type-1 LFSR read through fixed offsets into its output sequence, one
/// 64-clock block at a time.
///
/// By the shift property, stage *i* of a type-1 LFSR holds the output
/// sequence `a` at offset `i − 1`: stage 1 holds `a_t` at clock `t`, stage
/// *i* holds `a_{t−i+1}`. A plain shift register chained after the last
/// stage continues the same sequence at larger offsets. So a block of 64
/// consecutive patterns, read at offset `o`, is one 64-bit window of the
/// sequence: lane *p* is `a_{t+p−o}`.
///
/// The register is a `u64` (degree ≤ 64). The last `⌈max offset / 64⌉`
/// words of the sequence are kept beside it, and values older than the
/// initial register read as zero, like an extension that starts cleared.
/// The bit-serial [`Lfsr`] and [`ShiftRegister`] are the reference models
/// this is tested against.
///
/// # Example
///
/// ```
/// use bibs_lfsr::fsr::{Lfsr, LfsrKind, SequenceWindows};
/// use bibs_lfsr::poly::primitive_polynomial;
///
/// let p = primitive_polynomial(5).expect("in table");
/// let mut windows = SequenceWindows::new(&p, 0b1, vec![0, 3]);
/// let mut lfsr = Lfsr::with_seed_u64(&p, LfsrKind::Type1, 0b1);
/// let words = windows.next_block(64);
/// for lane in 0..64 {
///     assert_eq!((words[0] >> lane) & 1 == 1, lfsr.stage(1));
///     assert_eq!((words[1] >> lane) & 1 == 1, lfsr.stage(4));
///     lfsr.step();
/// }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SequenceWindows {
    /// Stage *i* at bit *i − 1*, so bit *i* holds `a_{t−i}`.
    state: u64,
    /// Tapped stages, as in [`Lfsr`].
    taps: u64,
    /// The low `degree` bits.
    stages: u64,
    /// `history[k]` holds `a_{t−64(k+1)} ..= a_{t−64k−1}`, oldest in bit 0.
    history: Vec<u64>,
    offsets: Vec<usize>,
}

impl SequenceWindows {
    /// Starts from register `state` (stage *i* at bit *i − 1*, as in
    /// [`Lfsr::with_seed_u64`]; bits above the degree are ignored), with
    /// all older sequence values zero, reading one word per offset.
    ///
    /// # Panics
    ///
    /// Panics if the degree is 0 or exceeds 64.
    pub fn new(poly: &Polynomial, state: u64, offsets: Vec<usize>) -> Self {
        let degree = poly.degree();
        assert!(
            (1..=64).contains(&degree),
            "sequence windows need degree 1..=64"
        );
        let stages = u64::MAX >> (64 - degree);
        let taps = poly
            .tap_stages()
            .iter()
            .fold(0u64, |m, &s| m | 1 << (s - 1));
        let state = state & stages;
        let depth = offsets.iter().max().map_or(0, |&o| o.div_ceil(64));
        let mut history = vec![0u64; depth];
        if let Some(newest) = history.first_mut() {
            // Stages 2..=degree hold a_{t−1}, a_{t−2}, …: bit order reversed.
            *newest = (state >> 1).reverse_bits();
        }
        SequenceWindows {
            state,
            taps,
            stages,
            history,
            offsets,
        }
    }

    /// Clocks the register `clocks` times, emitting nothing.
    pub fn advance(&mut self, mut clocks: u64) {
        while clocks > 0 {
            let n = clocks.min(64) as usize;
            let seq = self.clock(n);
            self.shift_in(seq, n);
            clocks -= n as u64;
        }
    }

    /// [`SequenceWindows::advance`] in time logarithmic in `clocks`.
    ///
    /// The output sequence obeys `a_{n+M} = Σ_{s ∈ taps} a_{n+M−s}`, whose
    /// polynomial is `p(x) = x^M + Σ_{s ∈ taps} x^{M−s}`. If
    /// `x^{k+j} mod p = Σ_i c_i x^i`, then `a_{n+k+j} = Σ_i c_i a_{n+i}`, so
    /// each value `k` clocks on is a fixed parity of the `M` values the
    /// register holds now. The jump takes `x^k mod p` from
    /// [`gf2::powmod`](crate::gf2::powmod), moves the register all but the
    /// last `64 · depth` clocks that way, and clocks those with `advance`,
    /// which rebuilds the history.
    pub fn jump(&mut self, clocks: u64) {
        let tail = 64 * self.history.len() as u64;
        if clocks > tail {
            self.state = self.register_after(clocks - tail);
        }
        self.advance(clocks.min(tail));
    }

    /// The register `k` clocks on.
    fn register_after(&self, k: u64) -> u64 {
        let degree = self.stages.count_ones();
        let p = (0..degree)
            .filter(|b| self.taps >> b & 1 == 1)
            .fold(1u128 << degree, |p, b| p | 1 << (degree - 1 - b));
        // Bit i of `window` is a_{n+i}, for the register's oldest value a_n.
        let window = self.state.reverse_bits() >> (64 - degree);
        let mut c = crate::gf2::powmod(0b10, u128::from(k), p);
        let mut state = 0u64;
        for j in 0..degree {
            // Stage M − j holds a_{n+k+j} = parity(c & window), c = x^{k+j} mod p.
            let bit = (c as u64 & window).count_ones() & 1;
            state |= u64::from(bit) << (degree - 1 - j);
            c <<= 1;
            if c >> degree & 1 == 1 {
                c ^= p;
            }
        }
        state
    }

    /// Clocks the register `lanes` times and returns one word per offset:
    /// lane *p* of offset `o`'s word is `a_{t+p−o}`, and lanes `lanes..64`
    /// are zero.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is not in `1..=64`.
    pub fn next_block(&mut self, lanes: usize) -> Vec<u64> {
        assert!((1..=64).contains(&lanes), "a block has 1..=64 lanes");
        let seq = self.clock(lanes);
        let mask = u64::MAX >> (64 - lanes);
        let word = |k: usize| if k == 0 { seq } else { self.history[k - 1] };
        let words = self
            .offsets
            .iter()
            .map(|&o| {
                let (k, r) = (o / 64, o % 64);
                let window = if r == 0 {
                    word(k)
                } else {
                    word(k) << r | word(k + 1) >> (64 - r)
                };
                window & mask
            })
            .collect();
        self.shift_in(seq, lanes);
        words
    }

    /// Clocks `n` (1..=64) times; bit *p* of the result is `a_{t+p}`.
    fn clock(&mut self, n: usize) -> u64 {
        let mut seq = 0u64;
        for p in 0..n {
            seq |= (self.state & 1) << p;
            let fb = u64::from((self.state & self.taps).count_ones() & 1);
            self.state = (self.state << 1 | fb) & self.stages;
        }
        seq
    }

    /// Moves the history on by the `n` (1..=64) values of `seq`.
    fn shift_in(&mut self, seq: u64, n: usize) {
        let mut newer = seq;
        for word in &mut self.history {
            let older = *word;
            *word = if n == 64 {
                newer
            } else {
                older >> n | newer << (64 - n)
            };
            newer = older;
        }
    }
}

/// A complete feedback shift register (Wang–McCluskey, ref \[15\] of the
/// paper): a type-1 LFSR modified with a NOR term so the cycle includes the
/// all-0 state, giving period `2^n` instead of `2^n − 1`.
///
/// The paper uses this to supply the all-0 pattern that functionally
/// exhaustive testing otherwise misses.
///
/// # Example
///
/// ```
/// use bibs_lfsr::fsr::CompleteLfsr;
/// use bibs_lfsr::poly::primitive_polynomial;
///
/// let p = primitive_polynomial(4).expect("in table");
/// let mut l = CompleteLfsr::new(&p);
/// let mut states = std::collections::HashSet::new();
/// for _ in 0..16 {
///     states.insert(l.state_u64());
///     l.step();
/// }
/// assert_eq!(states.len(), 16); // all 2^4 states, including 0
/// ```
#[derive(Debug, Clone)]
pub struct CompleteLfsr {
    inner: Lfsr,
}

impl CompleteLfsr {
    /// Creates a complete LFSR from a primitive characteristic polynomial,
    /// seeded with `00…01`.
    pub fn new(poly: &Polynomial) -> Self {
        CompleteLfsr {
            inner: Lfsr::new(poly, LfsrKind::Type1),
        }
    }

    /// The number of stages.
    pub fn width(&self) -> usize {
        self.inner.width()
    }

    /// The current state.
    pub fn state(&self) -> &BitVec {
        self.inner.state()
    }

    /// The current state packed into a `u64`.
    ///
    /// # Panics
    ///
    /// Panics if the width exceeds 64.
    pub fn state_u64(&self) -> u64 {
        self.inner.state_u64()
    }

    /// Advances one clock cycle.
    ///
    /// The feedback is the normal type-1 feedback XORed with the NOR of
    /// stages `1..n−1`; this splices the all-0 state into the maximal cycle
    /// between `00…01` and `10…00`.
    pub fn step(&mut self) {
        let n = self.inner.width();
        let head_zero = (0..n - 1).all(|i| !self.inner.state.get(i));
        let fb = self.inner.state.masked_parity(&self.inner.mask) ^ head_zero;
        self.inner.state.shift_up(fb);
    }

    /// Runs until the state recurs, returning the period (`2^n` for a
    /// primitive polynomial).
    pub fn period(&self) -> u64 {
        let mut probe = self.clone();
        let start = probe.state().clone();
        let mut count = 0u64;
        loop {
            probe.step();
            count += 1;
            if probe.state() == &start {
                return count;
            }
        }
    }
}

/// A plain shift register: the extra flip-flops SC_TPG/MC_TPG splice in
/// front of input registers to compensate sequential-length imbalance.
///
/// Data shifts from the input toward higher indices; the output is the last
/// stage.
#[derive(Debug, Clone, Default)]
pub struct ShiftRegister {
    state: BitVec,
}

impl ShiftRegister {
    /// Creates an all-zero shift register with `len` stages.
    pub fn new(len: usize) -> Self {
        ShiftRegister {
            state: BitVec::zeros(len),
        }
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.state.len()
    }

    /// Whether the register has zero stages.
    pub fn is_empty(&self) -> bool {
        self.state.is_empty()
    }

    /// The last stage's current value (the register output).
    ///
    /// # Panics
    ///
    /// Panics if the register has zero stages.
    pub fn output(&self) -> bool {
        self.state.get(self.state.len() - 1)
    }

    /// Shifts one position, inserting `input` at stage 0 and returning the
    /// bit shifted out of the last stage.
    pub fn shift(&mut self, input: bool) -> bool {
        self.state.shift_up(input)
    }

    /// Reads stage `i` (0-indexed).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn stage(&self, i: usize) -> bool {
        self.state.get(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poly::primitive_polynomial;

    #[test]
    fn type1_is_maximal_for_primitive_polys() {
        for degree in [2u32, 3, 4, 5, 7, 8, 12] {
            let p = primitive_polynomial(degree).unwrap();
            let l = Lfsr::new(&p, LfsrKind::Type1);
            assert_eq!(
                l.period(),
                (1u64 << degree) - 1,
                "degree {degree} type-1 LFSR must be maximal"
            );
        }
    }

    #[test]
    fn type2_is_maximal_for_primitive_polys() {
        for degree in [3u32, 4, 8, 12] {
            let p = primitive_polynomial(degree).unwrap();
            let l = Lfsr::new(&p, LfsrKind::Type2);
            assert_eq!(
                l.period(),
                (1u64 << degree) - 1,
                "degree {degree} type-2 LFSR must be maximal"
            );
        }
    }

    #[test]
    fn type1_has_the_paper_shift_property() {
        // "stage i at time t equals stage i-1 at time t-1, for i > 1"
        let p = primitive_polynomial(8).unwrap();
        let mut l = Lfsr::new(&p, LfsrKind::Type1);
        let mut prev = l.state().clone();
        for _ in 0..100 {
            l.step();
            for i in 2..=l.width() {
                assert_eq!(l.stage(i), prev.get(i - 2), "shift property at stage {i}");
            }
            prev = l.state().clone();
        }
    }

    #[test]
    fn type2_breaks_the_shift_property() {
        // With interior taps, some stage pair must violate the property at
        // some time step — this is why SC_TPG demands type 1.
        let p = primitive_polynomial(8).unwrap();
        let mut l = Lfsr::new(&p, LfsrKind::Type2);
        let mut prev = l.state().clone();
        let mut violated = false;
        for _ in 0..255 {
            l.step();
            for i in 2..=l.width() {
                if l.stage(i) != prev.get(i - 2) {
                    violated = true;
                }
            }
            prev = l.state().clone();
        }
        assert!(violated, "type-2 LFSR should not behave as a pure shifter");
    }

    #[test]
    fn complete_lfsr_visits_all_states() {
        for degree in [3u32, 4, 6, 10] {
            let p = primitive_polynomial(degree).unwrap();
            let l = CompleteLfsr::new(&p);
            assert_eq!(
                l.period(),
                1u64 << degree,
                "degree {degree} complete LFSR must have period 2^n"
            );
        }
    }

    #[test]
    fn wide_lfsr_steps_without_panic() {
        let p = primitive_polynomial(72).expect("searchable degree");
        let mut l = Lfsr::new(&p, LfsrKind::Type1);
        for _ in 0..1000 {
            l.step();
        }
        assert!(!l.state().is_zero(), "nonzero orbit stays nonzero");
        assert_eq!(l.width(), 72);
    }

    #[test]
    fn sequence_windows_match_an_lfsr_with_a_shift_register_extension() {
        // Offset o < 7 is stage o + 1; offset o ≥ 7 is extension stage o − 7.
        let p = primitive_polynomial(7).unwrap();
        let offsets = vec![0, 3, 6, 7, 63, 64, 70, 130];
        let mut windows = SequenceWindows::new(&p, 0b101_1001, offsets.clone());
        let mut lfsr = Lfsr::with_seed_u64(&p, LfsrKind::Type1, 0b101_1001);
        let mut ext = ShiftRegister::new(124);
        let clock = |lfsr: &mut Lfsr, ext: &mut ShiftRegister| {
            ext.shift(lfsr.stage(7));
            lfsr.step();
        };
        windows.advance(100);
        for _ in 0..100 {
            clock(&mut lfsr, &mut ext);
        }
        for lanes in [64, 17, 64, 1, 64, 64, 63] {
            let words = windows.next_block(lanes);
            for lane in 0..lanes {
                for (&o, &w) in offsets.iter().zip(&words) {
                    let bit = if o < 7 {
                        lfsr.stage(o + 1)
                    } else {
                        ext.stage(o - 7)
                    };
                    assert_eq!((w >> lane) & 1 == 1, bit, "offset {o}, lane {lane}");
                }
                clock(&mut lfsr, &mut ext);
            }
            if lanes < 64 {
                assert!(words.iter().all(|&w| w >> lanes == 0), "lanes past {lanes}");
            }
        }
    }

    #[test]
    fn a_jump_lands_where_advancing_does() {
        for degree in 2..=64 {
            let p = primitive_polynomial(degree).unwrap();
            let d = degree as usize;
            // Offsets inside the register, one past it, and past one and
            // two history words.
            let offsets = vec![0, d - 1, d, 64 + d, 2 * 64 + 3];
            let depth = 3u64;
            let start = SequenceWindows::new(&p, 0x9E37_79B9_7F4A_7C15, offsets);
            for k in [
                0,
                1,
                63,
                64,
                65,
                64 * depth - 1,
                64 * depth,
                64 * depth + 1,
                100_000,
                1 << 20,
            ] {
                let (mut jumped, mut advanced) = (start.clone(), start.clone());
                jumped.jump(k);
                advanced.advance(k);
                assert_eq!(jumped, advanced, "degree {degree}, {k} clocks");
                assert_eq!(
                    jumped.next_block(64),
                    advanced.next_block(64),
                    "degree {degree}, {k} clocks"
                );
            }
        }
    }

    #[test]
    fn shift_register_delays_data() {
        let mut sr = ShiftRegister::new(3);
        let inputs = [true, false, true, true, false, false];
        let mut outs = Vec::new();
        for &i in &inputs {
            outs.push(sr.output());
            sr.shift(i);
        }
        // Output is input delayed by 3 cycles (initially 0).
        assert_eq!(outs, vec![false, false, false, true, false, true]);
    }

    #[test]
    fn lfsr_iterator_yields_states() {
        let p = primitive_polynomial(4).unwrap();
        let l = Lfsr::new(&p, LfsrKind::Type1);
        let states: Vec<_> = l.take(15).collect();
        let unique: std::collections::HashSet<_> = states.iter().collect();
        assert_eq!(unique.len(), 15);
    }

    #[test]
    #[should_panic(expected = "seed must be nonzero")]
    fn zero_seed_rejected() {
        let p = primitive_polynomial(4).unwrap();
        let _ = Lfsr::with_seed_u64(&p, LfsrKind::Type1, 0);
    }
}
