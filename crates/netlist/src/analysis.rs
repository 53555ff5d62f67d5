//! Semantic dataflow analysis over the compiled [`EvalProgram`] IR.
//!
//! The structural lint passes (`bibs-lint` B00x/B01x/B02x) check *shape*;
//! this module checks *meaning*. Everything here runs on the flat compiled
//! instruction stream — one forward sweep is a single pass over
//! [`EvalProgram::instrs`], one backward sweep a single pass in reverse —
//! so the analyses inherit the IR's determinism and cost model.
//!
//! Four cooperating analyses:
//!
//! * **Ternary abstract interpretation** ([`ternary_analyze`]): constant
//!   propagation over the `{0, 1, X}` lattice ([`Tv`]) under a configurable
//!   primary-input assumption ([`PiAssumption`]). A bounded implication
//!   step (single-stem 0/1 case splitting — recursive learning of depth
//!   one) proves reconvergent constants like `xor(f, f) = 0` that plain
//!   propagation cannot see.
//! * **SCOAP testability costs** ([`Scoap`]): combinational 0/1
//!   controllability in one forward sweep and observability in one
//!   backward sweep. Seeded with ternary constants, an infinite cost
//!   ([`SCOAP_INF`]) is a sound *proof* that a value is unachievable or a
//!   site unobservable — not just a heuristic.
//! * **Structural observability** ([`observable_mask`]): plain backward
//!   reachability from the observation points. This is deliberately purely
//!   structural (it reproduces the classic "unobservable region" split
//!   used by the fault universe) — the semantic strengthening lives in the
//!   SCOAP observability instead.
//! * **Redundancy proving** ([`Prover`]): a stuck-at fault site is
//!   statically untestable when its excitation value is unachievable
//!   (`cc = ∞`) or its observation cost is infinite (`co = ∞`). Every
//!   verdict carries a [`Witness`] — a human-readable implication chain —
//!   so reports can show *why* a fault needs no patterns.
//!
//! # Soundness
//!
//! All abstract values over-approximate the concrete reachable set: a
//! ternary constant means *every* concrete evaluation under the assumption
//! produces that value, and `cc = ∞` / `co = ∞` verdicts are proved by
//! induction over the instruction stream from those constants. The fault
//! simulators therefore may *skip* statically-untestable faults without
//! ever dropping a detectable one; the oracle test suite pins this against
//! exhaustive simulation.
//!
//! # Example
//!
//! ```
//! use bibs_netlist::builder::NetlistBuilder;
//! use bibs_netlist::analysis::{ternary_analyze, PiAssumption, Tv};
//! use bibs_netlist::EvalProgram;
//!
//! # fn main() -> Result<(), bibs_netlist::NetlistError> {
//! // y = xor(a, a) is constant 0, but only a case split can prove it.
//! let mut b = NetlistBuilder::new("reconverge");
//! let a = b.input("a");
//! let n = b.not(a);
//! let nn = b.not(n);
//! let y = b.xor2(a, nn);
//! b.output("y", y);
//! let nl = b.finish()?;
//! let prog = EvalProgram::compile(&nl)?;
//!
//! let abs = ternary_analyze(&prog, &PiAssumption::AllX);
//! assert_eq!(abs.value(y.index()), Tv::Zero);
//! assert!(abs.split_stem(y.index()).is_some(), "proved by case split");
//! # Ok(())
//! # }
//! ```

use crate::compiled::EvalProgram;
use crate::netlist::GateKind;
use std::fmt;

/// A ternary logic value: the flat lattice `{0, 1}` plus unknown `X`.
///
/// `X` is the lattice top: it over-approximates both constants. [`Tv::join`]
/// moves up the lattice, never down.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tv {
    /// Constant logic 0 in every reachable evaluation.
    Zero,
    /// Constant logic 1 in every reachable evaluation.
    One,
    /// Unknown — may be 0 in some evaluations and 1 in others.
    X,
}

impl Tv {
    /// Lifts a concrete Boolean into the lattice.
    pub fn from_bool(v: bool) -> Tv {
        if v {
            Tv::One
        } else {
            Tv::Zero
        }
    }

    /// The constant this value proves, if any.
    pub fn constant(self) -> Option<bool> {
        match self {
            Tv::Zero => Some(false),
            Tv::One => Some(true),
            Tv::X => None,
        }
    }

    /// Lattice join: least upper bound. `join(0, 1) = X`.
    pub fn join(self, other: Tv) -> Tv {
        if self == other {
            self
        } else {
            Tv::X
        }
    }
}

impl std::ops::Not for Tv {
    type Output = Tv;

    /// Ternary complement (`X` stays `X`).
    fn not(self) -> Tv {
        match self {
            Tv::Zero => Tv::One,
            Tv::One => Tv::Zero,
            Tv::X => Tv::X,
        }
    }
}

impl fmt::Display for Tv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Tv::Zero => "0",
            Tv::One => "1",
            Tv::X => "X",
        })
    }
}

/// Evaluates a gate function over ternary operand values.
///
/// Mirrors [`GateKind::eval_words`] lifted to the `{0, 1, X}` lattice:
/// controlling values decide the output even when other operands are `X`
/// (`and(0, X) = 0`), the XOR family is `X` as soon as any operand is `X`.
/// The scan stops at the first operand that decides the result — a
/// controlling value, or an `X` into the XOR family.
pub fn eval_tv(kind: GateKind, ops: impl IntoIterator<Item = Tv>) -> Tv {
    let mut ops = ops.into_iter();
    let v = match kind {
        GateKind::And | GateKind::Nand => controlled(ops, Tv::Zero),
        GateKind::Or | GateKind::Nor => controlled(ops, Tv::One),
        GateKind::Xor | GateKind::Xnor => {
            let mut parity = false;
            for t in ops {
                match t {
                    Tv::X => return Tv::X,
                    Tv::One => parity = !parity,
                    Tv::Zero => {}
                }
            }
            Tv::from_bool(parity)
        }
        GateKind::Not | GateKind::Buf => ops.next().unwrap_or(Tv::X),
    };
    if kind.is_inverting() {
        !v
    } else {
        v
    }
}

/// The AND/OR family's scan: `control` anywhere decides the gate;
/// otherwise any `X` leaves it `X`, and all non-controlling operands give
/// `!control`.
fn controlled(ops: impl Iterator<Item = Tv>, control: Tv) -> Tv {
    let mut out = !control;
    for t in ops {
        if t == control {
            return control;
        }
        if t == Tv::X {
            out = Tv::X;
        }
    }
    out
}

/// What the analysis may assume about the primary inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PiAssumption {
    /// Every primary input is free: the classic "any pattern may arrive"
    /// assumption. Constants proved here hold for *all* input patterns.
    AllX,
    /// Some primary inputs are pinned to fixed values (`Some(v)`), the
    /// rest free (`None`). One entry per input in declaration order.
    Pinned(Vec<Option<bool>>),
    /// Only the given concrete pattern blocks are reachable (e.g. the
    /// pattern space a TPG can emit). Each block holds one 64-lane word
    /// per primary input in declaration order; **all 64 lanes count** —
    /// duplicate a lane to pad shorter sets. The abstract value of every
    /// slot is the exact join over these evaluations, so constants proved
    /// in this mode hold only while the stimulus stays inside the set.
    /// Combinational programs only.
    Patterns(Vec<Vec<u64>>),
}

/// Options controlling [`ternary_analyze_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnalysisOptions {
    /// How many rounds of single-stem 0/1 case splitting to run after the
    /// initial propagation (each round scans every `X`-valued slot with at
    /// least two operand readers). `0` disables the bounded-implication
    /// step; the default is `1`, which already proves all reconvergent
    /// single-stem redundancies (`xor(f, f)`, `and(a, not a)`, …).
    pub split_rounds: usize,
}

impl Default for AnalysisOptions {
    fn default() -> Self {
        AnalysisOptions { split_rounds: 1 }
    }
}

/// The result of ternary abstract interpretation: one [`Tv`] per slot,
/// plus provenance for constants found by case splitting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TernaryAbs {
    /// Abstract value per slot.
    values: Vec<Tv>,
    /// For slots whose constant was proved by a case split: the stem slot
    /// that was split.
    split_from: Vec<Option<u32>>,
}

impl TernaryAbs {
    /// The abstract value of `slot`.
    pub fn value(&self, slot: usize) -> Tv {
        self.values[slot]
    }

    /// The proven constant of `slot`, if any.
    pub fn constant(&self, slot: usize) -> Option<bool> {
        self.values[slot].constant()
    }

    /// Number of slots analyzed.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` when no slots were analyzed (empty program).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// If `slot`'s constant was proved by a 0/1 case split, the stem slot
    /// that was split. `None` for plain-propagation constants.
    pub fn split_stem(&self, slot: usize) -> Option<usize> {
        self.split_from[slot].map(|s| s as usize)
    }

    /// Iterates over all proven-constant slots as `(slot, value)`.
    pub fn constants(&self) -> impl Iterator<Item = (usize, bool)> + '_ {
        self.values
            .iter()
            .enumerate()
            .filter_map(|(s, v)| v.constant().map(|c| (s, c)))
    }

    /// How many slots owe their constant to a 0/1 case split (the bounded
    /// implication step) rather than plain propagation. Deterministic for
    /// a given program + assumption, so it doubles as a telemetry counter.
    pub fn split_count(&self) -> usize {
        self.split_from.iter().filter(|s| s.is_some()).count()
    }
}

/// Runs one forward pass over `program` starting at instruction `from`,
/// updating `values` in place. Slots with split-derived constants
/// (`split_from[slot].is_some()`) keep their constant when recomputation
/// yields `X` — a previously proven fact never degrades.
fn propagate(program: &EvalProgram, values: &mut [Tv], split_from: &[Option<u32>], from: usize) {
    for i in from..program.instr_count() {
        let instr = program.instr(i);
        let v = eval_tv(
            instr.kind,
            instr.operands.iter().map(|&s| values[s as usize]),
        );
        let out = instr.out as usize;
        if v == Tv::X && split_from[out].is_some() {
            continue; // keep the proven constant
        }
        values[out] = v;
    }
}

/// Ternary abstract interpretation with default [`AnalysisOptions`].
pub fn ternary_analyze(program: &EvalProgram, assumption: &PiAssumption) -> TernaryAbs {
    ternary_analyze_with(program, assumption, AnalysisOptions::default())
}

/// [`ternary_analyze_with`] wrapped in a telemetry span.
///
/// Records a `"ternary"` child span on `rec` holding the wall time and the
/// deterministic [`CounterId::CaseSplits`](bibs_obs::CounterId::CaseSplits)
/// count (slots proved constant by the bounded implication step).
pub fn ternary_analyze_traced(
    program: &EvalProgram,
    assumption: &PiAssumption,
    options: AnalysisOptions,
    rec: &mut bibs_obs::Recorder,
) -> TernaryAbs {
    let span = rec.enter("ternary");
    let abs = ternary_analyze_with(program, assumption, options);
    rec.add(bibs_obs::CounterId::CaseSplits, abs.split_count() as u64);
    rec.exit(span);
    abs
}

/// Ternary abstract interpretation over the compiled instruction stream.
///
/// Sources are seeded from `assumption` (inputs), the constant prologue
/// (tied nets) and `X` (flip-flop Q slots — unknown state); then the
/// stream is propagated forward, followed by `options.split_rounds` rounds
/// of single-stem case splitting: every `X`-valued slot read by two or
/// more operand pins is assumed `0` and `1` in turn, the downstream suffix
/// re-evaluated under each assumption, and the branch results joined. A
/// non-`X` join is a proven constant (recorded with the stem as witness
/// provenance) even though plain propagation saw only `X`.
///
/// # Panics
///
/// Panics in [`PiAssumption::Patterns`] mode if the program has flip-flops
/// (concrete joins need a combinational program) or a block's width
/// differs from the input count.
pub fn ternary_analyze_with(
    program: &EvalProgram,
    assumption: &PiAssumption,
    options: AnalysisOptions,
) -> TernaryAbs {
    let n = program.slot_count();
    let mut split_from: Vec<Option<u32>> = vec![None; n];

    if let PiAssumption::Patterns(blocks) = assumption {
        assert!(
            program.dff_slots().is_empty(),
            "PiAssumption::Patterns requires a combinational program"
        );
        return TernaryAbs {
            values: patterns_join(program, blocks),
            split_from,
        };
    }

    let mut values = vec![Tv::X; n];
    for &(slot, word) in program.const_inits() {
        values[slot as usize] = Tv::from_bool(word != 0);
    }
    if let PiAssumption::Pinned(pins) = assumption {
        assert_eq!(
            pins.len(),
            program.input_slots().len(),
            "one assumption entry per primary input required"
        );
        for (&slot, &pin) in program.input_slots().iter().zip(pins) {
            if let Some(v) = pin {
                values[slot as usize] = Tv::from_bool(v);
            }
        }
    }

    propagate(program, &mut values, &split_from, 0);

    if options.split_rounds > 0 {
        let readers = program.slot_readers();
        for _ in 0..options.split_rounds {
            let refined = split_round(program, &mut values, &mut split_from, &readers);
            // Push split-derived constants through the whole stream.
            propagate(program, &mut values, &split_from, 0);
            if refined == 0 {
                break;
            }
        }
    }

    TernaryAbs { values, split_from }
}

/// Exact netwise join over concrete 64-lane evaluations of each pattern
/// block.
fn patterns_join(program: &EvalProgram, blocks: &[Vec<u64>]) -> Vec<Tv> {
    let n = program.slot_count();
    let mut seen0 = vec![false; n];
    let mut seen1 = vec![false; n];
    let mut buf = program.new_values::<1>();
    for block in blocks {
        program.eval_good::<1>(&mut buf, block);
        for (slot, &w) in buf.iter().enumerate() {
            seen0[slot] |= w != !0u64;
            seen1[slot] |= w != 0;
        }
    }
    (0..n)
        .map(|s| match (seen0[s], seen1[s]) {
            (true, false) => Tv::Zero,
            (false, true) => Tv::One,
            // No blocks at all: everything is unknown, not constant-both.
            _ => Tv::X,
        })
        .collect()
}

/// One round of single-stem case splitting. Returns how many slots gained
/// a constant.
fn split_round(
    program: &EvalProgram,
    values: &mut [Tv],
    split_from: &mut [Option<u32>],
    readers: &[Vec<(u32, u32)>],
) -> usize {
    let mut refined = 0usize;
    let mut b0 = Vec::new();
    let mut b1 = Vec::new();
    for stem in 0..values.len() {
        if values[stem] != Tv::X || readers[stem].len() < 2 {
            continue;
        }
        // `readers` lists occurrences in schedule order, so the first
        // entry is the earliest instruction that can change.
        let first = readers[stem][0].0 as usize;
        b0.clear();
        b0.extend_from_slice(values);
        b0[stem] = Tv::Zero;
        propagate(program, &mut b0, split_from, first);
        b1.clear();
        b1.extend_from_slice(values);
        b1[stem] = Tv::One;
        propagate(program, &mut b1, split_from, first);
        for i in first..program.instr_count() {
            let out = program.instr(i).out as usize;
            if values[out] != Tv::X {
                continue;
            }
            let joined = b0[out].join(b1[out]);
            if joined != Tv::X {
                values[out] = joined;
                split_from[out] = Some(stem as u32);
                refined += 1;
            }
        }
    }
    refined
}

/// The infinite SCOAP cost. A controllability of `SCOAP_INF` or more is a
/// sound proof that the value is *unachievable* (when the sweep is seeded
/// from sound ternary constants). An observability of `SCOAP_INF` means no
/// *individually sensitizable* path exists — reconvergent fanout of a
/// fault effect can still propagate along several masked-looking paths at
/// once, so the [`Prover`] confirms the claim with a site-aware cone check
/// before promoting it to an untestability proof.
pub const SCOAP_INF: u32 = 1 << 30;

#[inline]
fn sat_add(a: u32, b: u32) -> u32 {
    a.saturating_add(b).min(SCOAP_INF)
}

/// SCOAP-style combinational testability costs over the compiled IR.
///
/// `cc0[s]` / `cc1[s]` estimate the effort of driving slot `s` to 0 / 1;
/// `co[s]` the effort of propagating a change on `s` to an observation
/// point (primary output or flip-flop D). Computed in exactly one forward
/// and one backward sweep over the instruction stream. Costs saturate at
/// [`SCOAP_INF`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scoap {
    /// 0-controllability per slot.
    pub cc0: Vec<u32>,
    /// 1-controllability per slot.
    pub cc1: Vec<u32>,
    /// Observability per slot (stem observability for fanout nets).
    pub co: Vec<u32>,
}

impl Scoap {
    /// Computes purely structural SCOAP costs (no constant seeding beyond
    /// the netlist's tied constants). Use this for search-ordering
    /// heuristics such as PODEM backtrace.
    pub fn compute(program: &EvalProgram) -> Scoap {
        Scoap::compute_with(program, None)
    }

    /// Computes SCOAP costs, optionally seeded from a ternary analysis:
    /// every slot proved constant `v` gets `cc_v = 1` and `cc_{!v} =`
    /// [`SCOAP_INF`]. With a *sound* `abs` the resulting infinite costs
    /// are proofs (see [`Prover`]).
    pub fn compute_with(program: &EvalProgram, abs: Option<&TernaryAbs>) -> Scoap {
        let n = program.slot_count();
        // Sources: inputs and flip-flop Q cost 1 for both values;
        // constants cost 1 for their value and ∞ for the other.
        let mut cc0 = vec![1u32; n];
        let mut cc1 = vec![1u32; n];
        for &(slot, word) in program.const_inits() {
            let s = slot as usize;
            if word != 0 {
                cc0[s] = SCOAP_INF;
            } else {
                cc1[s] = SCOAP_INF;
            }
        }

        let apply_seed = |cc0: &mut [u32], cc1: &mut [u32], slot: usize| {
            if let Some(abs) = abs {
                match abs.value(slot) {
                    Tv::Zero => {
                        cc0[slot] = 1;
                        cc1[slot] = SCOAP_INF;
                    }
                    Tv::One => {
                        cc1[slot] = 1;
                        cc0[slot] = SCOAP_INF;
                    }
                    Tv::X => {}
                }
            }
        };
        for &slot in program.input_slots() {
            apply_seed(&mut cc0, &mut cc1, slot as usize);
        }

        // Forward sweep: the schedule is topological, so operand costs are
        // final when an instruction is reached.
        for i in 0..program.instr_count() {
            let instr = program.instr(i);
            let out = instr.out as usize;
            let ops = instr.operands;
            let (c0, c1) = match instr.kind {
                GateKind::And | GateKind::Nand => {
                    let all1 = ops
                        .iter()
                        .fold(0u32, |acc, &s| sat_add(acc, cc1[s as usize]));
                    let any0 = ops
                        .iter()
                        .map(|&s| cc0[s as usize])
                        .min()
                        .unwrap_or(SCOAP_INF);
                    if instr.kind == GateKind::And {
                        (sat_add(any0, 1), sat_add(all1, 1))
                    } else {
                        (sat_add(all1, 1), sat_add(any0, 1))
                    }
                }
                GateKind::Or | GateKind::Nor => {
                    let all0 = ops
                        .iter()
                        .fold(0u32, |acc, &s| sat_add(acc, cc0[s as usize]));
                    let any1 = ops
                        .iter()
                        .map(|&s| cc1[s as usize])
                        .min()
                        .unwrap_or(SCOAP_INF);
                    if instr.kind == GateKind::Or {
                        (sat_add(all0, 1), sat_add(any1, 1))
                    } else {
                        (sat_add(any1, 1), sat_add(all0, 1))
                    }
                }
                GateKind::Xor | GateKind::Xnor => {
                    // Parity DP: cheapest way to set the running parity.
                    let (even, odd) = ops.iter().fold((0u32, SCOAP_INF), |(e, o), &s| {
                        let (z, n1) = (cc0[s as usize], cc1[s as usize]);
                        (
                            sat_add(e, z).min(sat_add(o, n1)),
                            sat_add(e, n1).min(sat_add(o, z)),
                        )
                    });
                    if instr.kind == GateKind::Xor {
                        (sat_add(even, 1), sat_add(odd, 1))
                    } else {
                        (sat_add(odd, 1), sat_add(even, 1))
                    }
                }
                GateKind::Not => {
                    let s = ops[0] as usize;
                    (sat_add(cc1[s], 1), sat_add(cc0[s], 1))
                }
                GateKind::Buf => {
                    let s = ops[0] as usize;
                    (sat_add(cc0[s], 1), sat_add(cc1[s], 1))
                }
            };
            cc0[out] = c0;
            cc1[out] = c1;
            apply_seed(&mut cc0, &mut cc1, out);
        }

        // Backward sweep: observation points cost 0; walking the schedule
        // in reverse visits every instruction after all its readers.
        let mut co = vec![SCOAP_INF; n];
        for &slot in program.output_slots() {
            co[slot as usize] = 0;
        }
        for &(_, d) in program.dff_slots() {
            co[d as usize] = 0;
        }
        for i in (0..program.instr_count()).rev() {
            let instr = program.instr(i);
            let out_co = co[instr.out as usize];
            if out_co >= SCOAP_INF {
                continue;
            }
            for (pin, &s) in instr.operands.iter().enumerate() {
                let through = pin_cost(instr.kind, instr.operands, pin, &cc0, &cc1, out_co);
                let slot = s as usize;
                co[slot] = co[slot].min(through);
            }
        }

        Scoap { cc0, cc1, co }
    }

    /// [`Scoap::compute_with`] wrapped in a telemetry span.
    ///
    /// Records a `"scoap"` child span on `rec` holding the wall time of
    /// the two sweeps.
    pub fn compute_traced(
        program: &EvalProgram,
        abs: Option<&TernaryAbs>,
        rec: &mut bibs_obs::Recorder,
    ) -> Scoap {
        let span = rec.enter("scoap");
        let scoap = Scoap::compute_with(program, abs);
        rec.exit(span);
        scoap
    }

    /// The observability of a *pin fault site*: the cost of propagating a
    /// change on operand `pin` of `instr` through that one gate, given the
    /// gate output's stem observability. For single-reader nets this
    /// equals the slot `co`; for fanout branches it isolates one path.
    pub fn pin_co(&self, program: &EvalProgram, instr: usize, pin: usize) -> u32 {
        let ins = program.instr(instr);
        let out_co = self.co[ins.out as usize];
        if out_co >= SCOAP_INF {
            return SCOAP_INF;
        }
        pin_cost(ins.kind, ins.operands, pin, &self.cc0, &self.cc1, out_co)
    }

    /// `true` when driving `slot` to `value` is proven impossible.
    pub fn unachievable(&self, slot: usize, value: bool) -> bool {
        let cc = if value { &self.cc1 } else { &self.cc0 };
        cc[slot] >= SCOAP_INF
    }

    /// `true` when a change on `slot` provably cannot reach an observation
    /// point.
    pub fn unobservable(&self, slot: usize) -> bool {
        self.co[slot] >= SCOAP_INF
    }
}

/// Cost of propagating through one gate pin: output observability, plus
/// one, plus the cost of holding every *other* pin at a non-masking value.
fn pin_cost(kind: GateKind, ops: &[u32], pin: usize, cc0: &[u32], cc1: &[u32], out_co: u32) -> u32 {
    let mut cost = sat_add(out_co, 1);
    for (q, &s) in ops.iter().enumerate() {
        if q == pin {
            continue;
        }
        let side = s as usize;
        let hold = match kind {
            // Side pins must sit at the non-controlling value.
            GateKind::And | GateKind::Nand => cc1[side],
            GateKind::Or | GateKind::Nor => cc0[side],
            // XOR propagates through any settled side value.
            GateKind::Xor | GateKind::Xnor => cc0[side].min(cc1[side]),
            GateKind::Not | GateKind::Buf => 0,
        };
        cost = sat_add(cost, hold);
    }
    cost
}

/// Structural observability: which slots have *some* path to an
/// observation point (primary output or flip-flop D input), by backward
/// reachability over the instruction stream.
///
/// This is the semantic-free baseline the fault universe's
/// observability split uses; [`Scoap::unobservable`] is the strictly
/// stronger semantic version.
pub fn observable_mask(program: &EvalProgram) -> Vec<bool> {
    let mut mask = vec![false; program.slot_count()];
    let mut stack: Vec<usize> = Vec::new();
    for &slot in program.output_slots() {
        stack.push(slot as usize);
    }
    for &(_, d) in program.dff_slots() {
        stack.push(d as usize);
    }
    while let Some(slot) = stack.pop() {
        if mask[slot] {
            continue;
        }
        mask[slot] = true;
        if let Some(i) = program.instr_of_slot(slot) {
            for &op in program.instr(i).operands {
                if !mask[op as usize] {
                    stack.push(op as usize);
                }
            }
        }
    }
    mask
}

/// An input pin whose gate output is provably independent of it under the
/// current assumption (e.g. the other AND input is constant 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndependentPin {
    /// The instruction (gate) position.
    pub instr: u32,
    /// The independent operand pin.
    pub pin: u32,
    /// The output value the gate takes regardless of this pin.
    pub out: bool,
}

/// Finds gate input pins the gate output provably does not depend on:
/// forcing the pin to 0 and to 1 (with all other operands at their
/// abstract values) yields the same constant output.
pub fn independent_pins(program: &EvalProgram, abs: &TernaryAbs) -> Vec<IndependentPin> {
    let mut found = Vec::new();
    for i in 0..program.instr_count() {
        let instr = program.instr(i);
        if instr.operands.len() < 2 {
            continue;
        }
        for pin in 0..instr.operands.len() {
            let eval_forced = |forced: Tv| {
                eval_tv(
                    instr.kind,
                    instr.operands.iter().enumerate().map(|(q, &s)| {
                        if q == pin {
                            forced
                        } else {
                            abs.value(s as usize)
                        }
                    }),
                )
            };
            let v0 = eval_forced(Tv::Zero);
            let v1 = eval_forced(Tv::One);
            if v0 != Tv::X && v0 == v1 {
                found.push(IndependentPin {
                    instr: i as u32,
                    pin: pin as u32,
                    out: v0 == Tv::One,
                });
            }
        }
    }
    found
}

/// Why a fault site is statically untestable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UntestableReason {
    /// The site can never take the value opposite the stuck value, so the
    /// fault is never excited.
    Unexcitable,
    /// No value change on the site can reach an observation point.
    Unobservable,
}

impl fmt::Display for UntestableReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            UntestableReason::Unexcitable => "unexcitable",
            UntestableReason::Unobservable => "unobservable",
        })
    }
}

/// The implication chain behind a static-untestability verdict: one
/// human-readable step per line of reasoning, outermost first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Witness {
    /// Implication steps, outermost conclusion first.
    pub steps: Vec<String>,
}

impl fmt::Display for Witness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, step) in self.steps.iter().enumerate() {
            if i > 0 {
                f.write_str("; ")?;
            }
            f.write_str(step)?;
        }
        Ok(())
    }
}

/// A static-untestability verdict with its witness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteVerdict {
    /// Why the fault needs no test pattern.
    pub reason: UntestableReason,
    /// The implication chain proving it.
    pub witness: Witness,
}

/// Maximum recursion depth of witness explanation chains. Deep chains are
/// truncated with an ellipsis step — the verdict itself never depends on
/// the explanation.
const WITNESS_DEPTH: usize = 6;

/// Proves stuck-at fault sites statically untestable from a ternary
/// analysis and seeded SCOAP costs.
///
/// Soundness: a verdict is only returned when the seeded SCOAP sweep
/// proves the excitation value unachievable, or when the observation cost
/// is infinite *and* a site-aware cone check confirms that no fault
/// effect can slip out through reconvergent fanout
/// of the site itself — so every flagged fault is genuinely undetectable
/// by *any* pattern inside the [`PiAssumption`] the analysis ran under.
/// Completeness is *not* promised: an undetectable fault may well receive
/// no verdict (PODEM or exhaustive simulation still decides those).
#[derive(Debug)]
pub struct Prover<'a> {
    program: &'a EvalProgram,
    abs: &'a TernaryAbs,
    scoap: &'a Scoap,
}

impl<'a> Prover<'a> {
    /// Builds a prover over a program, its ternary analysis and SCOAP
    /// costs. `scoap` must have been computed with
    /// [`Scoap::compute_with`] over the same `abs` for the verdicts to
    /// carry semantic weight.
    pub fn new(program: &'a EvalProgram, abs: &'a TernaryAbs, scoap: &'a Scoap) -> Prover<'a> {
        Prover {
            program,
            abs,
            scoap,
        }
    }

    /// Tries to prove a stuck-at-`stuck` fault on the *stem* of `slot`
    /// (the net itself, affecting all readers) untestable.
    pub fn prove_stem(&self, slot: usize, stuck: bool) -> Option<SiteVerdict> {
        if self.scoap.unachievable(slot, !stuck) {
            let mut steps = vec![format!(
                "n{slot}/sa{} is never excited: n{slot} cannot take value {}",
                stuck as u8, !stuck as u8
            )];
            self.explain_cc(slot, !stuck, 1, &mut steps);
            return Some(SiteVerdict {
                reason: UntestableReason::Unexcitable,
                witness: Witness { steps },
            });
        }
        if self.scoap.unobservable(slot) && !self.effect_escapes(slot) {
            let mut steps = vec![format!(
                "n{slot}/sa{} is never observed: no sensitizable path from n{slot} to an output",
                stuck as u8
            )];
            self.explain_co(slot, 1, &mut steps);
            return Some(SiteVerdict {
                reason: UntestableReason::Unobservable,
                witness: Witness { steps },
            });
        }
        None
    }

    /// Tries to prove a stuck-at-`stuck` fault on operand `pin` of
    /// instruction `instr` (a gate input-pin fault: only that reader sees
    /// the stuck value) untestable.
    pub fn prove_pin(&self, instr: usize, pin: usize, stuck: bool) -> Option<SiteVerdict> {
        let ins = self.program.instr(instr);
        let slot = ins.operands[pin] as usize;
        if self.scoap.unachievable(slot, !stuck) {
            let mut steps = vec![format!(
                "{}.in{pin}/sa{} is never excited: n{slot} cannot take value {}",
                ins.gate, stuck as u8, !stuck as u8
            )];
            self.explain_cc(slot, !stuck, 1, &mut steps);
            return Some(SiteVerdict {
                reason: UntestableReason::Unexcitable,
                witness: Witness { steps },
            });
        }
        if self.scoap.pin_co(self.program, instr, pin) >= SCOAP_INF
            && (self.gate_side_blocked(instr, pin) || !self.effect_escapes(ins.out as usize))
        {
            let mut steps = vec![format!(
                "{}.in{pin}/sa{} is never observed: the path through {} cannot be sensitized",
                ins.gate, stuck as u8, ins.gate
            )];
            self.explain_pin_co(instr, pin, 1, &mut steps);
            return Some(SiteVerdict {
                reason: UntestableReason::Unobservable,
                witness: Witness { steps },
            });
        }
        None
    }

    /// `true` when good-machine analysis proves the net on `side` can
    /// never hold the non-masking value `kind` needs on its other pins.
    fn side_blocks(&self, kind: GateKind, side: usize) -> bool {
        match kind {
            GateKind::And | GateKind::Nand => self.scoap.unachievable(side, true),
            GateKind::Or | GateKind::Nor => self.scoap.unachievable(side, false),
            GateKind::Xor | GateKind::Xnor => {
                self.scoap.unachievable(side, false) && self.scoap.unachievable(side, true)
            }
            GateKind::Not | GateKind::Buf => false,
        }
    }

    /// `true` when some side pin of `instr` provably masks propagation
    /// through `pin` at the gate itself. For a *pin* fault this is sound
    /// evidence on its own: a pin fault changes only what its gate sees on
    /// that one pin, so every other operand net still computes its
    /// good-machine value and the impossibility carries over.
    fn gate_side_blocked(&self, instr: usize, pin: usize) -> bool {
        let ins = self.program.instr(instr);
        ins.operands
            .iter()
            .enumerate()
            .any(|(q, &s)| q != pin && self.side_blocks(ins.kind, s as usize))
    }

    /// Sound site-aware check that a fault effect originating at `origin`
    /// may reach an observation point.
    ///
    /// The global `co` sweep treats a path as blocked when a side input
    /// provably cannot hold its non-masking value — evidence computed in
    /// the *good* machine. That evidence is invalid when the side input
    /// itself depends on the fault site: reconvergent fanout of the fault
    /// effect can flip the side input together with the on-path value, so
    /// the effect propagates along several paths at once even though each
    /// single path looks masked (`y = OR(p, q)` with `p` and `q` both
    /// constant 1 *because of* an upstream net `f` masks nothing for
    /// faults on `f`).
    ///
    /// This check redoes the backward propagation restricted to the
    /// fanout cone of `origin`, accepting a side-input block only when
    /// the side lies *outside* the cone — then its value is unaffected by
    /// any fault at `origin` and the good-machine impossibility holds in
    /// the faulty machine too. Reconvergence *inside* the cone is treated
    /// optimistically: two fault-carrying pins may in truth cancel (e.g.
    /// `XOR(d, d)`), but proving that needs faulty-machine analysis, so
    /// such gates count as propagating. `false` therefore means every
    /// path provably dies; the verdict branches use it to confirm a
    /// `co = ∞` claim before promoting it to a proof.
    fn effect_escapes(&self, origin: usize) -> bool {
        let n = self.program.slot_count();
        let mut cone = vec![false; n];
        cone[origin] = true;
        for i in 0..self.program.instr_count() {
            let ins = self.program.instr(i);
            if ins.operands.iter().any(|&s| cone[s as usize]) {
                cone[ins.out as usize] = true;
            }
        }
        let mut live = vec![false; n];
        for &slot in self.program.output_slots() {
            live[slot as usize] = cone[slot as usize];
        }
        for &(_, d) in self.program.dff_slots() {
            live[d as usize] = cone[d as usize];
        }
        if live[origin] {
            return true;
        }
        // Reverse topological walk: every reader of a slot is scheduled
        // after the slot's definition, so `live[out]` is final when the
        // defining instruction is reached.
        for i in (0..self.program.instr_count()).rev() {
            let ins = self.program.instr(i);
            if !live[ins.out as usize] {
                continue;
            }
            for (p, &s) in ins.operands.iter().enumerate() {
                let slot = s as usize;
                if !cone[slot] || live[slot] {
                    continue;
                }
                let blocked = ins.operands.iter().enumerate().any(|(q, &t)| {
                    q != p && !cone[t as usize] && self.side_blocks(ins.kind, t as usize)
                });
                if !blocked {
                    live[slot] = true;
                }
            }
        }
        live[origin]
    }

    /// Explains why `slot` is proven constant, if it is.
    fn explain_const(&self, slot: usize, depth: usize, steps: &mut Vec<String>) {
        let Some(v) = self.abs.constant(slot) else {
            return;
        };
        if depth >= WITNESS_DEPTH {
            steps.push("…".into());
            return;
        }
        if let Some(stem) = self.abs.split_stem(slot) {
            steps.push(format!(
                "n{slot} = {} under both branches of a 0/1 case split on fanout stem n{stem}",
                v as u8
            ));
            return;
        }
        match self.program.instr_of_slot(slot) {
            None => {
                steps.push(format!("n{slot} is a source tied/pinned to {}", v as u8));
            }
            Some(i) => {
                let ins = self.program.instr(i);
                steps.push(format!(
                    "n{slot} = {}({}) propagates to constant {}",
                    ins.kind,
                    ins.operands
                        .iter()
                        .map(|&s| match self.abs.value(s as usize) {
                            Tv::X => format!("n{s}"),
                            c => c.to_string(),
                        })
                        .collect::<Vec<_>>()
                        .join(", "),
                    v as u8
                ));
                // Recurse into the first constant operand that decides it.
                if let Some(&s) = ins
                    .operands
                    .iter()
                    .find(|&&s| self.abs.constant(s as usize).is_some())
                {
                    self.explain_const(s as usize, depth + 1, steps);
                }
            }
        }
    }

    /// Explains why `cc_{value}(slot) = ∞`.
    fn explain_cc(&self, slot: usize, value: bool, depth: usize, steps: &mut Vec<String>) {
        if depth >= WITNESS_DEPTH {
            steps.push("…".into());
            return;
        }
        if self.abs.constant(slot) == Some(!value) {
            self.explain_const(slot, depth, steps);
            return;
        }
        let Some(i) = self.program.instr_of_slot(slot) else {
            steps.push(format!(
                "n{slot} is a source that never takes {}",
                value as u8
            ));
            return;
        };
        let ins = self.program.instr(i);
        // Which operand value set is needed? Report the first blocking pin.
        let inner = value != ins.kind.is_inverting();
        match ins.kind {
            GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => {
                let ctrl = ins.kind.controlling_value().expect("controlling kind");
                if inner != ctrl {
                    // Needs every pin at the non-controlling value.
                    if let Some(&s) = ins
                        .operands
                        .iter()
                        .find(|&&s| self.scoap.unachievable(s as usize, !ctrl))
                    {
                        steps.push(format!(
                            "{} {} needs all inputs at {}, but n{s} cannot be {}",
                            ins.kind, ins.gate, !ctrl as u8, !ctrl as u8
                        ));
                        self.explain_cc(s as usize, !ctrl, depth + 1, steps);
                    }
                } else {
                    // Needs some pin at the controlling value; all blocked.
                    steps.push(format!(
                        "{} {} needs some input at {}, but none can reach it",
                        ins.kind, ins.gate, ctrl as u8
                    ));
                    if let Some(&s) = ins.operands.first() {
                        self.explain_cc(s as usize, ctrl, depth + 1, steps);
                    }
                }
            }
            GateKind::Xor | GateKind::Xnor => {
                steps.push(format!(
                    "{} {} cannot reach parity {}: every input is pinned",
                    ins.kind, ins.gate, inner as u8
                ));
                if let Some(&s) = ins
                    .operands
                    .iter()
                    .find(|&&s| self.abs.constant(s as usize).is_some())
                {
                    self.explain_const(s as usize, depth + 1, steps);
                }
            }
            GateKind::Not | GateKind::Buf => {
                let s = ins.operands[0] as usize;
                steps.push(format!(
                    "{} {} forwards n{s}, which cannot be {}",
                    ins.kind, ins.gate, inner as u8
                ));
                self.explain_cc(s, inner, depth + 1, steps);
            }
        }
    }

    /// Explains why `co(slot) = ∞`.
    fn explain_co(&self, slot: usize, depth: usize, steps: &mut Vec<String>) {
        if depth >= WITNESS_DEPTH {
            steps.push("…".into());
            return;
        }
        let readers = self.program.slot_readers();
        let observed_directly = self
            .program
            .output_slots()
            .iter()
            .any(|&s| s as usize == slot)
            || self
                .program
                .dff_slots()
                .iter()
                .any(|&(_, d)| d as usize == slot);
        if observed_directly {
            steps.push(format!(
                "n{slot} is directly observed (contradiction guard)"
            ));
            return;
        }
        if readers[slot].is_empty() {
            steps.push(format!("n{slot} has no readers: a dead cone"));
            return;
        }
        for &(i, p) in readers[slot].iter().take(3) {
            self.explain_pin_co(i as usize, p as usize, depth + 1, steps);
        }
    }

    /// Explains why the observation path through one gate pin is blocked.
    fn explain_pin_co(&self, instr: usize, pin: usize, depth: usize, steps: &mut Vec<String>) {
        if depth >= WITNESS_DEPTH {
            steps.push("…".into());
            return;
        }
        let ins = self.program.instr(instr);
        let out = ins.out as usize;
        if self.scoap.unobservable(out) {
            steps.push(format!(
                "the only effect of {}.in{pin} is n{out}, itself unobservable",
                ins.gate
            ));
            self.explain_co(out, depth + 1, steps);
            return;
        }
        // Output observable but a side pin masks the path.
        for (q, &s) in ins.operands.iter().enumerate() {
            if q == pin {
                continue;
            }
            let side = s as usize;
            if self.side_blocks(ins.kind, side) {
                let need = match ins.kind {
                    GateKind::And | GateKind::Nand => "1",
                    GateKind::Or | GateKind::Nor => "0",
                    _ => "any settled value",
                };
                steps.push(format!(
                    "{} {} masks pin {pin}: side input n{s} cannot hold {need}",
                    ins.kind, ins.gate
                ));
                self.explain_const(side, depth + 1, steps);
                return;
            }
        }
        steps.push(format!(
            "propagation through {} pin {pin} saturates the cost bound",
            ins.gate
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;
    use crate::netlist::Netlist;

    fn compile(nl: &Netlist) -> EvalProgram {
        EvalProgram::compile(nl).unwrap()
    }

    #[test]
    fn tv_lattice_laws() {
        for &a in &[Tv::Zero, Tv::One, Tv::X] {
            assert_eq!(a.join(a), a);
            assert_eq!(a.join(Tv::X), Tv::X);
            assert_eq!(!!a, a);
        }
        assert_eq!(Tv::Zero.join(Tv::One), Tv::X);
        assert_eq!(eval_tv(GateKind::And, [Tv::Zero, Tv::X]), Tv::Zero);
        assert_eq!(eval_tv(GateKind::Or, [Tv::One, Tv::X]), Tv::One);
        assert_eq!(eval_tv(GateKind::Xor, [Tv::One, Tv::X]), Tv::X);
        assert_eq!(eval_tv(GateKind::Nand, [Tv::Zero, Tv::X]), Tv::One);
    }

    #[test]
    fn plain_propagation_finds_const_cone() {
        // and(a, const0) = 0; or(that, b) = b stays X.
        let mut b = NetlistBuilder::new("c");
        let a = b.input("a");
        let c = b.input("b");
        let zero = b.const0();
        let dead = b.and2(a, zero);
        let y = b.or2(dead, c);
        b.output("y", y);
        let nl = b.finish().unwrap();
        let prog = compile(&nl);
        let abs = ternary_analyze(&prog, &PiAssumption::AllX);
        assert_eq!(abs.value(dead.index()), Tv::Zero);
        assert_eq!(abs.split_stem(dead.index()), None, "plain propagation");
        assert_eq!(abs.value(y.index()), Tv::X);
    }

    #[test]
    fn case_split_proves_reconvergent_constants() {
        // xor(a, a) via a fanout stem, and and(a, not a).
        let mut b = NetlistBuilder::new("r");
        let a = b.input("a");
        let y = b.xor2(a, a);
        let n = b.not(a);
        let z = b.and2(a, n);
        b.output("y", y);
        b.output("z", z);
        let nl = b.finish().unwrap();
        let prog = compile(&nl);
        let abs = ternary_analyze(&prog, &PiAssumption::AllX);
        assert_eq!(abs.value(y.index()), Tv::Zero);
        assert_eq!(abs.value(z.index()), Tv::Zero);
        assert_eq!(abs.split_stem(y.index()), Some(a.index()));
        assert_eq!(abs.split_stem(z.index()), Some(a.index()));
        // With splitting disabled both stay X.
        let plain = ternary_analyze_with(
            &prog,
            &PiAssumption::AllX,
            AnalysisOptions { split_rounds: 0 },
        );
        assert_eq!(plain.value(y.index()), Tv::X);
        assert_eq!(plain.value(z.index()), Tv::X);
    }

    #[test]
    fn pinned_inputs_propagate() {
        let mut b = NetlistBuilder::new("p");
        let a = b.input("a");
        let c = b.input("b");
        let y = b.and2(a, c);
        b.output("y", y);
        let nl = b.finish().unwrap();
        let prog = compile(&nl);
        let abs = ternary_analyze(&prog, &PiAssumption::Pinned(vec![Some(false), None]));
        assert_eq!(abs.value(y.index()), Tv::Zero);
        let abs = ternary_analyze(&prog, &PiAssumption::Pinned(vec![Some(true), None]));
        assert_eq!(abs.value(y.index()), Tv::X);
    }

    #[test]
    fn patterns_mode_is_exact_join() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let c = b.input("b");
        let y = b.xor2(a, c);
        b.output("y", y);
        let nl = b.finish().unwrap();
        let prog = compile(&nl);
        // Reachable space: a == b in every lane => y always 0.
        let abs = ternary_analyze(
            &prog,
            &PiAssumption::Patterns(vec![vec![0, 0], vec![!0u64, !0u64]]),
        );
        assert_eq!(abs.value(y.index()), Tv::Zero);
        assert_eq!(abs.value(a.index()), Tv::X, "a itself sees both values");
        // Full space: y unknown.
        let abs = ternary_analyze(
            &prog,
            &PiAssumption::Patterns(vec![vec![0b01, 0b11], vec![0, 0]]),
        );
        assert_eq!(abs.value(y.index()), Tv::X);
    }

    #[test]
    fn scoap_basic_costs() {
        let mut b = NetlistBuilder::new("s");
        let a = b.input("a");
        let c = b.input("b");
        let y = b.and2(a, c);
        b.output("y", y);
        let nl = b.finish().unwrap();
        let prog = compile(&nl);
        let s = Scoap::compute(&prog);
        assert_eq!(s.cc0[a.index()], 1);
        assert_eq!(s.cc1[y.index()], 3, "1+1 inputs + 1");
        assert_eq!(s.cc0[y.index()], 2, "min(1,1) + 1");
        assert_eq!(s.co[y.index()], 0, "primary output");
        assert_eq!(s.co[a.index()], 2, "through AND: co 0 + 1 + cc1(b)=1");
    }

    #[test]
    fn scoap_xor_parity_dp() {
        let mut b = NetlistBuilder::new("x");
        let a = b.input("a");
        let c = b.input("b");
        let d = b.input("c");
        let y = b.gate(GateKind::Xor, &[a, c, d]);
        b.output("y", y);
        let nl = b.finish().unwrap();
        let prog = compile(&nl);
        let s = Scoap::compute(&prog);
        // All inputs cost 1 either way: any parity costs 3 (+1).
        assert_eq!(s.cc0[y.index()], 4);
        assert_eq!(s.cc1[y.index()], 4);
        // Observability of a: 0 + 1 + min-settle of b and c = 3.
        assert_eq!(s.co[a.index()], 3);
    }

    #[test]
    fn seeded_scoap_proves_unachievable_and_unobservable() {
        // y = and(a, xor(f, f)): the xor is const 0, so y is const 0
        // (cc1 = INF) and a is unobservable through the masked AND.
        let mut b = NetlistBuilder::new("m");
        let a = b.input("a");
        let f = b.input("f");
        let x = b.xor2(f, f);
        let y = b.and2(a, x);
        b.output("y", y);
        let nl = b.finish().unwrap();
        let prog = compile(&nl);
        let abs = ternary_analyze(&prog, &PiAssumption::AllX);
        assert_eq!(abs.value(x.index()), Tv::Zero);
        let s = Scoap::compute_with(&prog, Some(&abs));
        assert!(s.unachievable(x.index(), true));
        assert!(s.unachievable(y.index(), true));
        assert!(s.unobservable(a.index()), "AND is permanently masked");
        // Structurally, a IS observable — the semantic sweep is stronger.
        assert!(observable_mask(&prog)[a.index()]);
        // Unseeded SCOAP must not claim any of this.
        let s0 = Scoap::compute(&prog);
        assert!(!s0.unachievable(y.index(), true));
        assert!(!s0.unobservable(a.index()));
    }

    #[test]
    fn observable_mask_matches_reachability() {
        let mut b = NetlistBuilder::new("o");
        let a = b.input("a");
        let c = b.input("b");
        let y = b.and2(a, c);
        let dead = b.or2(a, c);
        b.output("y", y);
        let nl = b.finish().unwrap();
        let prog = compile(&nl);
        let mask = observable_mask(&prog);
        assert!(mask[a.index()] && mask[c.index()] && mask[y.index()]);
        assert!(!mask[dead.index()], "unread OR cone");
    }

    #[test]
    fn independent_pins_found_for_masked_gate() {
        let mut b = NetlistBuilder::new("i");
        let a = b.input("a");
        let zero = b.const0();
        let y = b.and2(a, zero);
        b.output("y", y);
        let nl = b.finish().unwrap();
        let prog = compile(&nl);
        let abs = ternary_analyze(&prog, &PiAssumption::AllX);
        let pins = independent_pins(&prog, &abs);
        // Pin 0 (a) is independent: and(_, 0) = 0 either way.
        assert!(pins
            .iter()
            .any(|p| p.pin == 0 && !p.out && prog.instr(p.instr as usize).out == y.index() as u32));
    }

    #[test]
    fn prover_verdicts_carry_witnesses() {
        let mut b = NetlistBuilder::new("w");
        let a = b.input("a");
        let f = b.input("f");
        let x = b.xor2(f, f);
        let y = b.and2(a, x);
        b.output("y", y);
        let nl = b.finish().unwrap();
        let prog = compile(&nl);
        let abs = ternary_analyze(&prog, &PiAssumption::AllX);
        let s = Scoap::compute_with(&prog, Some(&abs));
        let prover = Prover::new(&prog, &abs, &s);

        // x stuck-at-0 is unexcitable (x is const 0).
        let v = prover.prove_stem(x.index(), false).expect("unexcitable");
        assert_eq!(v.reason, UntestableReason::Unexcitable);
        assert!(!v.witness.steps.is_empty());
        assert!(v.witness.to_string().contains("case split"));

        // a stuck-at-anything is unobservable.
        let v = prover.prove_stem(a.index(), true).expect("unobservable");
        assert_eq!(v.reason, UntestableReason::Unobservable);

        // x stuck-at-1 IS excitable-looking? No: excitation needs x = 0,
        // which holds, so no unexcitable verdict; but x's only reader is
        // the masked AND output... y co = 0 (PO) and the AND side pin a is
        // free, so x/sa1 gets no verdict here — it is genuinely
        // detectable (y flips from 0 to a).
        assert!(prover.prove_stem(x.index(), true).is_none());

        // f/sa0 is in fact undetectable (xor(f, f) stays 0 either way),
        // but the pin-cost model treats the two xor pins as independent —
        // the prover is sound, not complete, and must stay silent here.
        assert!(prover.prove_stem(f.index(), false).is_none());
    }

    #[test]
    fn prover_pin_faults() {
        // Shared net: a feeds AND (masked) and OR (live). The stem is
        // observable through the OR, but the AND pin fault is not.
        let mut b = NetlistBuilder::new("pf");
        let a = b.input("a");
        let c = b.input("b");
        let f = b.input("f");
        let x = b.xor2(f, f);
        let dead = b.and2(a, x);
        let live = b.or2(a, c);
        b.output("d", dead);
        b.output("l", live);
        let nl = b.finish().unwrap();
        let prog = compile(&nl);
        let abs = ternary_analyze(&prog, &PiAssumption::AllX);
        let s = Scoap::compute_with(&prog, Some(&abs));
        let prover = Prover::new(&prog, &abs, &s);

        assert!(prover.prove_stem(a.index(), false).is_none(), "stem live");
        let and_instr = prog.instr_of_slot(dead.index()).unwrap();
        let v = prover.prove_pin(and_instr, 0, false).expect("masked pin");
        assert_eq!(v.reason, UntestableReason::Unobservable);
        let or_instr = prog.instr_of_slot(live.index()).unwrap();
        assert!(prover.prove_pin(or_instr, 0, false).is_none(), "live pin");
    }

    #[test]
    fn reconvergent_fault_cone_defeats_masking_verdicts() {
        // Both side inputs of the output OR are constant 1 in the good
        // machine, but only *because of* f = NAND(b, a): under f/sa0 they
        // collapse to 0 together at a = b = 0 and the fault reaches y.
        // The global co sweep calls f unobservable — every single path is
        // masked — yet the fault effect escapes along two paths at once,
        // so the site-aware cone check must veto the verdict.
        let mut bld = NetlistBuilder::new("rc");
        let a = bld.input("a");
        let b = bld.input("b");
        let f = bld.gate(GateKind::Nand, &[b, a]);
        let p = bld.or2(f, a);
        let q = bld.or2(b, f);
        let y = bld.or2(p, q);
        bld.output("y", y);
        let nl = bld.finish().unwrap();
        let prog = compile(&nl);
        let abs = ternary_analyze(&prog, &PiAssumption::AllX);
        let s = Scoap::compute_with(&prog, Some(&abs));
        // The unsound ingredients are present: the case splits prove both
        // OR sides constant 1, so the cost model sees f as masked...
        assert_eq!(abs.value(p.index()), Tv::One);
        assert_eq!(abs.value(q.index()), Tv::One);
        assert!(s.unobservable(f.index()));
        // ...but no untestability verdict may be issued for the stem.
        let prover = Prover::new(&prog, &abs, &s);
        assert!(prover.prove_stem(f.index(), false).is_none(), "f/sa0");
        assert!(prover.prove_stem(f.index(), true).is_none(), "f/sa1");
        // Precision is retained where the masking *is* fault-independent:
        // a pin fault where f enters one OR leaves the other path computing
        // its good-machine constant 1, which really does mask y — those
        // verdicts must survive the cone check.
        let p_instr = prog.instr_of_slot(p.index()).unwrap();
        let v = prover.prove_pin(p_instr, 0, false).expect("p pin masked");
        assert_eq!(v.reason, UntestableReason::Unobservable);
        let q_instr = prog.instr_of_slot(q.index()).unwrap();
        let v = prover.prove_pin(q_instr, 1, false).expect("q pin masked");
        assert_eq!(v.reason, UntestableReason::Unobservable);
    }

    #[test]
    fn adder_has_no_static_verdicts() {
        // Paper premise: irredundant datapath logic yields zero verdicts.
        let mut b = NetlistBuilder::new("add4");
        let a = b.input_word("a", 4);
        let c = b.input_word("b", 4);
        let (sum, co) = b.ripple_carry_adder(&a, &c, None);
        b.output_word("s", &sum);
        b.output("co", co);
        let nl = b.finish().unwrap();
        let prog = compile(&nl);
        let abs = ternary_analyze(&prog, &PiAssumption::AllX);
        assert_eq!(abs.constants().count(), 0, "no constants in an adder");
        let s = Scoap::compute_with(&prog, Some(&abs));
        let prover = Prover::new(&prog, &abs, &s);
        for slot in 0..prog.slot_count() {
            assert!(prover.prove_stem(slot, false).is_none(), "slot {slot}");
            assert!(prover.prove_stem(slot, true).is_none(), "slot {slot}");
        }
    }
}
