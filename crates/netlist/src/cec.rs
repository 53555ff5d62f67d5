//! Combinational equivalence checking (CEC) between two [`EvalProgram`]s
//! — the translation validator behind `bibs_netlist::opt`.
//!
//! Every optimizing rewrite of the compiled IR is only shippable if the
//! optimized program is *provably* bit-identical to the original on every
//! input. This module decides that question per program pair, with a
//! soundness contract matching the rest of the workspace's analyses:
//! an answer is either a **proof** ([`CecResult::Proven`]), a **replayable
//! counterexample** ([`CecResult::Refuted`] carrying a [`CexWitness`] that
//! evaluates to a real output mismatch on both programs), or an explicit
//! **don't know** ([`CecResult::Unknown`]) — never a silent guess.
//!
//! The correspondence between the two programs is *positional*: input `i`
//! of program A is assumed to be the same signal as input `i` of program
//! B, and output `k` is compared against output `k`. This lets the checker
//! validate optimizer rewrites (same netlist, same slots) and two
//! independently parsed netlists (the `bibs-fuzz --cec` front end) with
//! one engine.
//!
//! # Decision procedure
//!
//! 1. **Simulation sweep.** With ≤ [`EXHAUSTIVE_PI_LIMIT`] primary inputs
//!    the whole input space is swept in 64-lane blocks — a complete proof
//!    by itself. Wider interfaces get a structured battery (all-zeros,
//!    all-ones, walking-1, walking-0, seeded random blocks) that can only
//!    *refute*; any mismatch short-circuits to a witness.
//! 2. **Structural class sweep.** Both instruction streams are hashed into
//!    a shared normal form over {AND, XOR} with complement edges (De
//!    Morgan folds `Or/Nand/Nor/Xnor` away; `Not`/`Buf` are aliases;
//!    constants absorb). Two outputs landing in the same class with the
//!    same phase are proven equivalent. This discharges every rewrite the
//!    optimizer performs — forwarding, sharing, fusion, folding — without
//!    case enumeration.
//! 3. **Per-cone exhaustive fallback.** Outputs the normal form could not
//!    merge are re-tried by sweeping the *union input support* of the two
//!    cones exhaustively (when ≤ [`EXHAUSTIVE_PI_LIMIT`] and within an
//!    instruction-evaluation budget). Anything still open is reported in
//!    [`CecResult::Unknown`] — the optimizer reverts the pass in that
//!    case rather than trusting it.

use crate::compiled::EvalProgram;
use crate::netlist::Netlist;
use std::collections::HashMap;

/// Widest primary-input interface (or per-output support) the checker
/// sweeps exhaustively: `2^16` patterns = 1024 blocks of 64 lanes.
pub const EXHAUSTIVE_PI_LIMIT: usize = 16;

/// Random 64-lane blocks in the wide-interface refutation battery.
const RANDOM_BLOCKS: usize = 16;

/// Instruction-evaluation budget shared by all per-cone exhaustive
/// fallback sweeps of one `check` call.
const SUPPORT_BUDGET: u64 = 1 << 26;

/// Fixed seed for the battery's random blocks — the checker is a pure
/// function of the two programs.
const BATTERY_SEED: u64 = 0xB1B5_CEC0_5EED_0001;

/// Counters describing how a [`check`] call reached its verdict.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CecStats {
    /// Output pairs compared.
    pub outputs: usize,
    /// Outputs proven by the structural class sweep (or by the whole-space
    /// simulation sweep when the interface is narrow enough).
    pub structural: usize,
    /// Outputs proven by the per-cone exhaustive fallback.
    pub exhaustive: usize,
    /// Whether phase 1 covered the entire input space (a standalone proof).
    pub whole_space: bool,
    /// Normal-form classes allocated across both programs.
    pub classes: usize,
    /// Simulation patterns applied (lanes, all phases).
    pub patterns: u64,
}

/// A counterexample input pattern: one assignment of the primary inputs
/// on which the two programs disagree at output position `output`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CexWitness {
    /// One bit per primary-input position, in declaration order.
    pub inputs: Vec<bool>,
    /// The primary-output position that differs.
    pub output: usize,
    /// Program A's value at that output.
    pub got_a: bool,
    /// Program B's value at that output.
    pub got_b: bool,
}

impl CexWitness {
    /// Re-evaluates the witness pattern through both programs and returns
    /// the two output bits — the replay that demonstrates the mismatch is
    /// real rather than an artifact of the checker.
    ///
    /// # Panics
    ///
    /// Panics if either program's input width differs from the witness.
    pub fn replay(&self, a: &EvalProgram, b: &EvalProgram) -> (bool, bool) {
        let words: Vec<u64> = self
            .inputs
            .iter()
            .map(|&b| if b { !0u64 } else { 0 })
            .collect();
        let mut va = a.new_values::<1>();
        let mut vb = b.new_values::<1>();
        a.eval_good::<1>(&mut va, &words);
        b.eval_good::<1>(&mut vb, &words);
        (
            va[a.output_slots()[self.output] as usize] & 1 != 0,
            vb[b.output_slots()[self.output] as usize] & 1 != 0,
        )
    }

    /// Renders the witness as a named-net pattern using `names` for the
    /// input/output labels (positionally — `names` is typically the
    /// netlist both programs were compiled from, or the reference side).
    pub fn render(&self, names: &Netlist) -> String {
        let mut s = String::new();
        for (i, &bit) in self.inputs.iter().enumerate() {
            if i > 0 {
                s.push(' ');
            }
            let label = names
                .inputs()
                .get(i)
                .and_then(|&n| names.net_name(n))
                .map_or_else(|| format!("pi{i}"), str::to_owned);
            s.push_str(&format!("{label}={}", u8::from(bit)));
        }
        let out = names
            .outputs()
            .get(self.output)
            .and_then(|&n| names.net_name(n))
            .map_or_else(|| format!("po{}", self.output), str::to_owned);
        s.push_str(&format!(
            " -> {out}: A={} B={}",
            u8::from(self.got_a),
            u8::from(self.got_b)
        ));
        s
    }
}

impl std::fmt::Display for CexWitness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, &bit) in self.inputs.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "pi{i}={}", u8::from(bit))?;
        }
        write!(
            f,
            " -> po{}: A={} B={}",
            self.output,
            u8::from(self.got_a),
            u8::from(self.got_b)
        )
    }
}

/// The verdict of a [`check`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CecResult {
    /// Every output pair proven equivalent on all inputs.
    Proven(CecStats),
    /// A concrete input pattern distinguishes the programs.
    Refuted(CexWitness),
    /// Some output pairs could be neither proven nor refuted within the
    /// checker's budget. Callers must treat this as "not equivalent".
    Unknown {
        /// Primary-output positions left open.
        unproven: Vec<usize>,
        /// What was established before giving up.
        stats: CecStats,
    },
    /// The two programs do not even agree on interface shape (input or
    /// output count) — equivalence is not well-posed.
    Incompatible(String),
}

impl CecResult {
    /// `true` for [`CecResult::Proven`].
    pub fn is_proven(&self) -> bool {
        matches!(self, CecResult::Proven(_))
    }
}

/// Checks `a` and `b` for combinational equivalence under positional
/// input/output correspondence. Both programs must be purely combinational
/// (no flip-flops) — compile from [`Netlist::combinational_equivalent`]
/// first if needed.
///
/// # Panics
///
/// Panics if either program has flip-flops.
pub fn check(a: &EvalProgram, b: &EvalProgram) -> CecResult {
    assert!(
        a.dff_slots().is_empty() && b.dff_slots().is_empty(),
        "CEC is combinational: clock the programs through combinational_equivalent first"
    );
    if a.input_slots().len() != b.input_slots().len() {
        return CecResult::Incompatible(format!(
            "input width mismatch: {} vs {}",
            a.input_slots().len(),
            b.input_slots().len()
        ));
    }
    if a.output_slots().len() != b.output_slots().len() {
        return CecResult::Incompatible(format!(
            "output count mismatch: {} vs {}",
            a.output_slots().len(),
            b.output_slots().len()
        ));
    }

    let width = a.input_slots().len();
    let n_out = a.output_slots().len();
    let mut stats = CecStats {
        outputs: n_out,
        ..CecStats::default()
    };

    let mut sim = SimPair::new(a, b);

    // Phase 1: simulation — complete sweep when narrow, refutation battery
    // when wide.
    if width <= EXHAUSTIVE_PI_LIMIT {
        match sim.sweep_all(&mut stats) {
            Some(w) => return CecResult::Refuted(w),
            None => {
                stats.whole_space = true;
                stats.structural = n_out;
                return CecResult::Proven(stats);
            }
        }
    }
    if let Some(w) = sim.battery(&mut stats) {
        return CecResult::Refuted(w);
    }

    // Phase 2: structural normal-form class sweep.
    let mut nf = NormalForm::new(width);
    let lits_a = nf.absorb(a, 0);
    let lits_b = nf.absorb(b, 1);
    stats.classes = nf.class_count();
    let mut unproven = Vec::new();
    for k in 0..n_out {
        let la = lits_a[a.output_slots()[k] as usize];
        let lb = lits_b[b.output_slots()[k] as usize];
        if la == lb {
            stats.structural += 1;
        } else {
            unproven.push(k);
        }
    }
    if unproven.is_empty() {
        return CecResult::Proven(stats);
    }

    // Phase 3: per-cone exhaustive fallback over the union input support.
    let mut budget = SUPPORT_BUDGET;
    let mut still_open = Vec::new();
    for &k in &unproven {
        let mut support = support_positions(a, a.output_slots()[k]);
        for p in support_positions(b, b.output_slots()[k]) {
            if !support.contains(&p) {
                support.push(p);
            }
        }
        support.sort_unstable();
        let s = support.len();
        let cost = if s >= 63 {
            u64::MAX
        } else {
            ((1u64 << s).div_ceil(64)) * (a.instr_count() + b.instr_count()) as u64
        };
        if s > EXHAUSTIVE_PI_LIMIT || cost > budget {
            still_open.push(k);
            continue;
        }
        budget -= cost;
        match sim.sweep_support(&support, k, &mut stats) {
            Some(w) => return CecResult::Refuted(w),
            None => stats.exhaustive += 1,
        }
    }
    if still_open.is_empty() {
        CecResult::Proven(stats)
    } else {
        CecResult::Unknown {
            unproven: still_open,
            stats,
        }
    }
}

/// [`check`] wrapped in a telemetry span named `cec`: records the proven
/// cones on [`ConesVerified`](bibs_obs::CounterId::ConesVerified) and the
/// applied simulation patterns on
/// [`PatternsConsumed`](bibs_obs::CounterId::PatternsConsumed) — all
/// deterministic, so the span is safe under the perfdiff equality gate.
pub fn check_traced(a: &EvalProgram, b: &EvalProgram, rec: &mut bibs_obs::Recorder) -> CecResult {
    let span = rec.enter("cec");
    let result = check(a, b);
    let stats = match &result {
        CecResult::Proven(s) => Some(s),
        CecResult::Unknown { stats, .. } => Some(stats),
        _ => None,
    };
    if let Some(s) = stats {
        rec.add(
            bibs_obs::CounterId::ConesVerified,
            (s.structural + s.exhaustive) as u64,
        );
        rec.add(bibs_obs::CounterId::PatternsConsumed, s.patterns);
    }
    rec.exit(span);
    result
}

/// Paired simulation state: one value buffer per side, reused across
/// blocks.
struct SimPair<'a> {
    a: &'a EvalProgram,
    b: &'a EvalProgram,
    va: Vec<u64>,
    vb: Vec<u64>,
    words: Vec<u64>,
}

impl<'a> SimPair<'a> {
    fn new(a: &'a EvalProgram, b: &'a EvalProgram) -> Self {
        let width = a.input_slots().len();
        SimPair {
            a,
            b,
            va: a.new_values::<1>(),
            vb: b.new_values::<1>(),
            words: vec![0u64; width],
        }
    }

    /// Evaluates the current `words` block on both sides and compares all
    /// outputs over `lanes` lanes. On mismatch returns the witness for the
    /// lowest differing output / lane.
    fn compare_block(&mut self, lanes: u32, only_output: Option<usize>) -> Option<CexWitness> {
        self.a.eval_good::<1>(&mut self.va, &self.words);
        self.b.eval_good::<1>(&mut self.vb, &self.words);
        let mask = if lanes >= 64 {
            !0u64
        } else {
            (1u64 << lanes) - 1
        };
        let outputs: &[usize] = &match only_output {
            Some(k) => vec![k],
            None => (0..self.a.output_slots().len()).collect(),
        };
        for &k in outputs {
            let wa = self.va[self.a.output_slots()[k] as usize];
            let wb = self.vb[self.b.output_slots()[k] as usize];
            let diff = (wa ^ wb) & mask;
            if diff != 0 {
                let lane = diff.trailing_zeros();
                let inputs = self
                    .words
                    .iter()
                    .map(|&w| w >> lane & 1 != 0)
                    .collect::<Vec<_>>();
                return Some(CexWitness {
                    inputs,
                    output: k,
                    got_a: wa >> lane & 1 != 0,
                    got_b: wb >> lane & 1 != 0,
                });
            }
        }
        None
    }

    /// Sweeps the entire `2^width` input space (width ≤ 16 guaranteed by
    /// the caller).
    fn sweep_all(&mut self, stats: &mut CecStats) -> Option<CexWitness> {
        let width = self.words.len();
        let total: u64 = 1u64 << width;
        let mut base = 0u64;
        while base < total {
            let lanes = (total - base).min(64) as u32;
            self.words.iter_mut().for_each(|w| *w = 0);
            for l in 0..lanes as u64 {
                let v = base + l;
                for (i, w) in self.words.iter_mut().enumerate() {
                    *w |= (v >> i & 1) << l;
                }
            }
            stats.patterns += u64::from(lanes);
            if let Some(w) = self.compare_block(lanes, None) {
                return Some(w);
            }
            base += u64::from(lanes);
        }
        None
    }

    /// Sweeps all assignments of the `support` input positions (other
    /// inputs held at 0), comparing only output `k`.
    fn sweep_support(
        &mut self,
        support: &[usize],
        k: usize,
        stats: &mut CecStats,
    ) -> Option<CexWitness> {
        let s = support.len();
        let total: u64 = 1u64 << s;
        let mut base = 0u64;
        while base < total {
            let lanes = (total - base).min(64) as u32;
            self.words.iter_mut().for_each(|w| *w = 0);
            for l in 0..lanes as u64 {
                let v = base + l;
                for (j, &pos) in support.iter().enumerate() {
                    self.words[pos] |= (v >> j & 1) << l;
                }
            }
            stats.patterns += u64::from(lanes);
            if let Some(w) = self.compare_block(lanes, Some(k)) {
                return Some(w);
            }
            base += u64::from(lanes);
        }
        None
    }

    /// The wide-interface refutation battery: all-zeros, all-ones,
    /// walking-1, walking-0, then seeded random blocks.
    fn battery(&mut self, stats: &mut CecStats) -> Option<CexWitness> {
        let width = self.words.len();
        // All-zeros and all-ones share one block: lane 0 = zeros, lane 1 =
        // ones.
        self.words.iter_mut().for_each(|w| *w = 0b10);
        stats.patterns += 2;
        if let Some(w) = self.compare_block(2, None) {
            return Some(w);
        }
        // Walking-1 and walking-0 over every input position.
        for negate in [false, true] {
            let mut pos = 0usize;
            while pos < width {
                let lanes = (width - pos).min(64) as u32;
                for (i, w) in self.words.iter_mut().enumerate() {
                    let mut word = 0u64;
                    if i >= pos && i < pos + lanes as usize {
                        word = 1u64 << (i - pos);
                    }
                    *w = if negate { !word } else { word };
                }
                stats.patterns += u64::from(lanes);
                if let Some(w) = self.compare_block(lanes, None) {
                    return Some(w);
                }
                pos += lanes as usize;
            }
        }
        // Seeded random blocks.
        let mut state = BATTERY_SEED;
        for _ in 0..RANDOM_BLOCKS {
            for w in self.words.iter_mut() {
                *w = splitmix64(&mut state);
            }
            stats.patterns += 64;
            if let Some(w) = self.compare_block(64, None) {
                return Some(w);
            }
        }
        None
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Input *positions* (not slots) in the cone of `slot`, in first-seen
/// order.
fn support_positions(p: &EvalProgram, slot: u32) -> Vec<usize> {
    let mut pos_of_slot: HashMap<u32, usize> = HashMap::new();
    for (i, &s) in p.input_slots().iter().enumerate() {
        pos_of_slot.insert(s, i);
    }
    let mut seen = vec![false; p.slot_count()];
    let mut stack = vec![slot];
    let mut support = Vec::new();
    while let Some(s) = stack.pop() {
        if std::mem::replace(&mut seen[s as usize], true) {
            continue;
        }
        if let Some(&k) = pos_of_slot.get(&s) {
            support.push(k);
            continue;
        }
        if let Some(i) = p.instr_of_slot(s as usize) {
            stack.extend(p.instr(i).operands.iter().copied());
        }
    }
    support
}

/// A literal in the shared normal form: a class id plus a complement
/// phase. Class 0 is the constant FALSE, classes `1..=width` are the
/// primary-input positions.
type Lit = (u32, bool);

const FALSE: Lit = (0, false);
const TRUE: Lit = (0, true);

fn negate(l: Lit) -> Lit {
    (l.0, !l.1)
}

/// Structural hash keys of normalized nodes. `And` holds sorted, deduped
/// operand literals; `Xor` holds the sorted class list after pair
/// cancellation (phases and constants fold into the result literal's
/// phase, so they never appear in the key).
#[derive(PartialEq, Eq, Hash)]
enum NodeKey {
    And(Vec<Lit>),
    Xor(Vec<u32>),
}

/// What a class id stands for — used to flatten nested conjunctions and
/// parities so associativity rewrites still merge.
#[derive(Clone)]
enum ClassDef {
    /// Constant, primary input, or an opaque fresh variable.
    Var,
    /// A conjunction of these literals (none of which is itself a
    /// positive `And` literal — the invariant flattening maintains).
    And(Vec<Lit>),
    /// A parity of these class variables (none of which is itself an
    /// `Xor` class).
    Xor(Vec<u32>),
}

/// The shared {AND, XOR, complement-edge} normal form both programs hash
/// into. Identical [`Lit`]s denote provably identical Boolean functions of
/// the primary inputs (the converse does not hold — that is what phases 1
/// and 3 are for).
struct NormalForm {
    width: usize,
    classes: HashMap<NodeKey, u32>,
    defs: Vec<ClassDef>,
    next_class: u32,
}

impl NormalForm {
    fn new(width: usize) -> Self {
        NormalForm {
            width,
            classes: HashMap::new(),
            defs: vec![ClassDef::Var; 1 + width],
            next_class: 1 + width as u32,
        }
    }

    fn class_count(&self) -> usize {
        self.next_class as usize
    }

    fn fresh(&mut self) -> Lit {
        let c = self.next_class;
        self.next_class += 1;
        self.defs.push(ClassDef::Var);
        (c, false)
    }

    fn intern(&mut self, key: NodeKey) -> u32 {
        if let Some(&c) = self.classes.get(&key) {
            return c;
        }
        let c = self.next_class;
        self.next_class += 1;
        self.defs.push(match &key {
            NodeKey::And(lits) => ClassDef::And(lits.clone()),
            NodeKey::Xor(vars) => ClassDef::Xor(vars.clone()),
        });
        self.classes.insert(key, c);
        c
    }

    /// Normalized AND of `lits`; `neg_out` complements the result
    /// (building NAND/OR/NOR via De Morgan).
    fn and_node(&mut self, lits: Vec<Lit>, neg_out: bool) -> Lit {
        // Flatten nested positive conjunctions: AND(AND(a,b),c) and
        // AND(a,b,c) must land in one class. Stored And defs are already
        // flat, so one splice level suffices.
        let mut flat: Vec<Lit> = Vec::with_capacity(lits.len());
        for l in lits {
            match &self.defs[l.0 as usize] {
                ClassDef::And(inner) if !l.1 => flat.extend(inner.iter().copied()),
                _ => flat.push(l),
            }
        }
        flat.retain(|&l| l != TRUE);
        if flat.contains(&FALSE) {
            return if neg_out { TRUE } else { FALSE };
        }
        flat.sort_unstable();
        flat.dedup();
        // x AND NOT x is constant false.
        if flat.windows(2).any(|w| w[0].0 == w[1].0) {
            return if neg_out { TRUE } else { FALSE };
        }
        let lit = match flat.len() {
            0 => TRUE,
            1 => flat[0],
            _ => (self.intern(NodeKey::And(flat)), false),
        };
        if neg_out {
            negate(lit)
        } else {
            lit
        }
    }

    /// Normalized XOR of `lits`; `neg_out` complements the result (XNOR).
    fn xor_node(&mut self, lits: &[Lit], neg_out: bool) -> Lit {
        let mut phase = neg_out;
        let mut vars: Vec<u32> = Vec::with_capacity(lits.len());
        for &(c, neg) in lits {
            phase ^= neg;
            if c == 0 {
                continue;
            }
            // Flatten nested parities (stored Xor defs are already flat).
            match &self.defs[c as usize] {
                ClassDef::Xor(inner) => vars.extend(inner.iter().copied()),
                _ => vars.push(c),
            }
        }
        vars.sort_unstable();
        // Pairs cancel: x XOR x = 0.
        let mut kept = Vec::with_capacity(vars.len());
        let mut i = 0;
        while i < vars.len() {
            let mut run = 1;
            while i + run < vars.len() && vars[i + run] == vars[i] {
                run += 1;
            }
            if run % 2 == 1 {
                kept.push(vars[i]);
            }
            i += run;
        }
        match kept.len() {
            0 => (0, phase),
            1 => (kept[0], phase),
            _ => {
                let c = self.intern(NodeKey::Xor(kept));
                (c, phase)
            }
        }
    }

    /// Hashes one program into the shared normal form, returning the
    /// per-slot literals. `side` salts the fresh classes handed to
    /// unseeded source slots (floating nets) so the two programs never
    /// accidentally share one.
    fn absorb(&mut self, p: &EvalProgram, side: u8) -> Vec<Lit> {
        let _ = side; // fresh classes are globally unique already
        let mut lits: Vec<Option<Lit>> = vec![None; p.slot_count()];
        for (i, &s) in p.input_slots().iter().enumerate() {
            lits[s as usize] = Some((1 + i as u32, false));
        }
        for &(s, word) in p.const_inits() {
            lits[s as usize] = Some((0, word != 0));
        }
        let read = |this: &mut Self, lits: &mut Vec<Option<Lit>>, s: u32| -> Lit {
            if let Some(l) = lits[s as usize] {
                l
            } else {
                let l = this.fresh();
                lits[s as usize] = Some(l);
                l
            }
        };
        for i in 0..p.instr_count() {
            let instr = p.instr(i);
            let (kind, out) = (instr.kind, instr.out);
            let ops: Vec<u32> = instr.operands.to_vec();
            let in_lits: Vec<Lit> = ops.iter().map(|&s| read(self, &mut lits, s)).collect();
            use crate::netlist::GateKind::*;
            let lit = match kind {
                And => self.and_node(in_lits, false),
                Nand => self.and_node(in_lits, true),
                Or => {
                    let neg: Vec<Lit> = in_lits.iter().map(|&l| negate(l)).collect();
                    self.and_node(neg, true)
                }
                Nor => {
                    let neg: Vec<Lit> = in_lits.iter().map(|&l| negate(l)).collect();
                    self.and_node(neg, false)
                }
                Xor => self.xor_node(&in_lits, false),
                Xnor => self.xor_node(&in_lits, true),
                Not => negate(in_lits[0]),
                Buf => in_lits[0],
            };
            lits[out as usize] = Some(lit);
        }
        // Outputs reading unseeded source slots (degenerate but legal)
        // still need literals.
        for k in 0..p.output_slots().len() {
            let s = p.output_slots()[k];
            if lits[s as usize].is_none() {
                let l = self.fresh();
                lits[s as usize] = Some(l);
            }
        }
        debug_assert!(self.width < self.next_class as usize);
        lits.into_iter().map(|l| l.unwrap_or(FALSE)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;
    use crate::netlist::GateKind;

    fn program(build: impl FnOnce(&mut NetlistBuilder)) -> EvalProgram {
        let mut b = NetlistBuilder::new("t");
        build(&mut b);
        EvalProgram::compile(&b.finish().unwrap()).unwrap()
    }

    #[test]
    fn identical_programs_prove() {
        let mk = || {
            program(|b| {
                let a = b.input_word("a", 4);
                let c = b.input_word("b", 4);
                let (s, co) = b.ripple_carry_adder(&a, &c, None);
                b.output_word("s", &s);
                b.output("co", co);
            })
        };
        let r = check(&mk(), &mk());
        assert!(r.is_proven(), "{r:?}");
    }

    #[test]
    fn demorgan_rewrite_proves_structurally() {
        // a OR b  vs  NOT(NOT a AND NOT b): same function, different gates.
        let p1 = program(|b| {
            let a = b.input("a");
            let c = b.input("b");
            let y = b.or2(a, c);
            b.output("y", y);
        });
        let p2 = program(|b| {
            let a = b.input("a");
            let c = b.input("b");
            let na = b.not(a);
            let nc = b.not(c);
            let n = b.gate(GateKind::Nand, &[na, nc]);
            b.output("y", n);
        });
        assert!(check(&p1, &p2).is_proven());
    }

    #[test]
    fn refutation_carries_replayable_witness() {
        let p1 = program(|b| {
            let a = b.input("a");
            let c = b.input("b");
            let y = b.and2(a, c);
            b.output("y", y);
        });
        let p2 = program(|b| {
            let a = b.input("a");
            let c = b.input("b");
            let y = b.or2(a, c);
            b.output("y", y);
        });
        match check(&p1, &p2) {
            CecResult::Refuted(w) => {
                let (ga, gb) = w.replay(&p1, &p2);
                assert_ne!(ga, gb, "witness must replay to a real mismatch");
                assert_eq!((ga, gb), (w.got_a, w.got_b));
            }
            other => panic!("expected refutation, got {other:?}"),
        }
    }

    #[test]
    fn interface_mismatch_is_incompatible() {
        let p1 = program(|b| {
            let a = b.input("a");
            b.output("y", a);
        });
        let p2 = program(|b| {
            let a = b.input("a");
            let c = b.input("b");
            let y = b.and2(a, c);
            b.output("y", y);
        });
        assert!(matches!(check(&p1, &p2), CecResult::Incompatible(_)));
    }

    #[test]
    fn wide_xor_tree_proves_structurally() {
        // 40 inputs — past the exhaustive limit, so only the class sweep
        // can prove it. Parity tree vs flat XOR gate.
        let p1 = program(|b| {
            let ins = b.input_word("a", 40);
            let mut acc = ins[0];
            for &i in &ins[1..] {
                acc = b.xor2(acc, i);
            }
            b.output("y", acc);
        });
        let p2 = program(|b| {
            let ins = b.input_word("a", 40);
            let y = b.gate(GateKind::Xor, &ins);
            b.output("y", y);
        });
        assert!(check(&p1, &p2).is_proven(), "{:?}", check(&p1, &p2));
    }

    #[test]
    fn wide_mismatch_refuted_by_battery() {
        let p1 = program(|b| {
            let ins = b.input_word("a", 40);
            let y = b.gate(GateKind::And, &ins);
            b.output("y", y);
        });
        let p2 = program(|b| {
            let ins = b.input_word("a", 40);
            let y = b.gate(GateKind::Or, &ins);
            b.output("y", y);
        });
        match check(&p1, &p2) {
            CecResult::Refuted(w) => {
                let (ga, gb) = w.replay(&p1, &p2);
                assert_ne!(ga, gb);
            }
            other => panic!("expected refutation, got {other:?}"),
        }
    }
}
