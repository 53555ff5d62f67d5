//! Optimizing pass pipeline over [`EvalProgram`] with per-pass
//! translation validation.
//!
//! The fault simulators evaluate one compiled program millions of times,
//! so every instruction shaved off the stream is paid back on every
//! pattern block. This module rewrites a compiled program through five
//! classic passes:
//!
//! * **const-fold** — instructions whose output the ternary analysis
//!   ([`crate::analysis::ternary_analyze`]) proves constant are deleted
//!   and their slots moved into the constant prologue;
//! * **copy-forward** — `Buf` chains are forwarded: every reader of a
//!   buffer's output is rewired to the chain's root and the buffers are
//!   deleted (primary-output-driving buffers are kept — outputs must stay
//!   on their declared slots);
//! * **cse** — common-subexpression elimination by structural hashing of
//!   `(GateKind, operand slots)` (operands sorted for symmetric gates);
//!   duplicate cones collapse onto their first scheduled representative;
//! * **inv-fuse** — a `Not` that is the sole reader of a gate's output
//!   fuses into that gate (`And`↔`Nand`, `Or`↔`Nor`, `Xor`↔`Xnor`),
//!   leaving a `Buf` for the next copy-forward round to delete;
//! * **dce** — instructions whose output can never reach a primary output
//!   are deleted (the dynamic dual of the `B007` dead-slot lint).
//!
//! **Slot space is preserved**: an optimized program keeps the original
//! slot count and slot meaning, passes only remove or rewrite
//! instructions. This keeps `Patch::Slot` fault points valid verbatim and
//! lets one faulty-value buffer serve both programs.
//!
//! # Translation validation
//!
//! No pass is trusted. After each rewrite the candidate is checked
//! against its predecessor by the combinational equivalence checker
//! ([`crate::cec`]): a proof accepts the candidate, an
//! [`Unknown`](crate::cec::CecResult::Unknown) verdict *reverts* it (and
//! bans the pass for the rest of the run), and a refutation aborts the
//! whole pipeline with [`OptError`] carrying a named-net counterexample
//! witness that replays through both programs. An accepted pipeline is
//! therefore equivalence-proven end to end, pass by pass.
//!
//! # Fault patch remapping
//!
//! Fault simulation injects [`Patch`]es at instruction granularity, and
//! rewrites move, merge and delete instructions. Each pass records a
//! [`PassRemap`]; [`OptimizedProgram::remap_patch`] composes them to
//! translate a patch on the *original* program into an equivalent patch
//! *set* on the optimized one (a stem fault on a deleted buffer becomes
//! pin forces on every surviving reader). Faults whose effect cannot be
//! reproduced on the optimized program — e.g. a pin fault on a cone CSE
//! merged away — come back as `None`; the fault simulators fall back to
//! the original program for exactly those faults, keeping
//! `FaultSimReport`s bit-identical by construction.

use crate::analysis::{ternary_analyze, PiAssumption};
use crate::cec::{self, CecResult, CexWitness};
use crate::compiled::{EvalProgram, Patch, Stream, NO_INSTR};
use crate::netlist::{GateKind, Netlist};
use std::collections::{HashMap, HashSet};

/// Rounds of the full pass sequence before the pipeline stops looking for
/// a fixpoint (each round typically converges in two or three).
const MAX_ROUNDS: usize = 8;

/// Per-pass accounting: one entry per *accepted* pass application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassStats {
    /// Pass name (`const-fold`, `copy-forward`, `cse`, `inv-fuse`, `dce`).
    pub name: &'static str,
    /// Instruction count entering the pass.
    pub instrs_before: usize,
    /// Instruction count after the pass.
    pub instrs_after: usize,
    /// Individual rewrites performed (instructions folded, forwarded,
    /// merged, fused or deleted).
    pub rewrites: usize,
}

/// Aggregate optimization statistics for one [`optimize`] run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OptStats {
    /// Instructions in the original program.
    pub instrs_before: usize,
    /// Instructions in the final optimized program.
    pub instrs_after: usize,
    /// Accepted pass applications, in order.
    pub passes: Vec<PassStats>,
    /// Candidate rewrites discarded because the validator returned an
    /// `Unknown` verdict (never silently trusted).
    pub reverted: usize,
}

impl OptStats {
    /// Instructions eliminated end to end — the per-evaluation gate-eval
    /// saving.
    pub fn instrs_saved(&self) -> usize {
        self.instrs_before - self.instrs_after
    }
}

/// Translation validation failure: a pass produced a program the checker
/// *refuted*. Carries the counterexample for replay.
#[derive(Debug, Clone)]
pub struct OptError {
    /// The pass whose output was refuted.
    pub pass: &'static str,
    /// The distinguishing input pattern.
    pub witness: CexWitness,
    rendered: String,
}

impl std::fmt::Display for OptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "translation validation failed in pass '{}': counterexample {}",
            self.pass, self.rendered
        )
    }
}

impl std::error::Error for OptError {}

/// How one kind of fault patch on a pass's input program translates to
/// the pass's output program.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Rule {
    /// The instruction survived: redirect through `instr_map`, optionally
    /// complementing the stuck word (inverter fusion flips a phase).
    Keep { flip: bool },
    /// The instruction was folded to a constant: force its (still live)
    /// output slot directly.
    SlotForce,
    /// The instruction was deleted but its forced output is equivalent to
    /// forcing these `(instr, pin)` operands of the *new* program.
    Pins(Vec<(u32, u32)>),
    /// The faulted logic is unobservable in both programs — an empty
    /// patch set (good-machine evaluation).
    NoOp,
    /// The fault's effect cannot be reproduced on the optimized program;
    /// simulate it on the original.
    Unmapped,
}

/// Output-fault and pin-fault rules for one original instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
struct InstrRules {
    out: Rule,
    pin: Rule,
}

fn default_rules(n: usize) -> Vec<InstrRules> {
    vec![
        InstrRules {
            out: Rule::Keep { flip: false },
            pin: Rule::Keep { flip: false },
        };
        n
    ]
}

/// The patch translation recorded by one pass: old instruction index →
/// new index (or the `NO_INSTR` sentinel), plus the per-instruction rules and the
/// source slots whose forcing would invalidate a value-based proof
/// (const-fold reads constant-slot values; a patch there breaks the
/// fold).
#[derive(Debug, Clone)]
pub struct PassRemap {
    instr_map: Vec<u32>,
    out_slot_old: Vec<u32>,
    rules: Vec<InstrRules>,
    unmapped_slots: HashSet<u32>,
}

impl PassRemap {
    /// Translates one patch on the pass's input program into patches on
    /// its output program, or `None` when unmappable.
    fn map(&self, p: Patch) -> Option<Vec<Patch>> {
        match p {
            // Slot space is preserved by every pass — but a forced source
            // slot a value-based proof depended on has no faithful image.
            Patch::Slot { slot, .. } => {
                if self.unmapped_slots.contains(&slot) {
                    return None;
                }
                Some(vec![p])
            }
            Patch::InstrOutput { instr, word } => {
                let i = instr as usize;
                match &self.rules[i].out {
                    Rule::Keep { flip } => Some(vec![Patch::InstrOutput {
                        instr: self.instr_map[i],
                        word: if *flip { !word } else { word },
                    }]),
                    Rule::SlotForce => Some(vec![Patch::Slot {
                        slot: self.out_slot_old[i],
                        word,
                    }]),
                    Rule::Pins(pins) => Some(
                        pins.iter()
                            .map(|&(ni, pin)| Patch::InstrPin {
                                instr: ni,
                                pin,
                                word,
                            })
                            .collect(),
                    ),
                    Rule::NoOp => Some(Vec::new()),
                    Rule::Unmapped => None,
                }
            }
            Patch::InstrPin { instr, pin, word } => {
                let i = instr as usize;
                match &self.rules[i].pin {
                    Rule::Keep { flip } => Some(vec![Patch::InstrPin {
                        instr: self.instr_map[i],
                        pin,
                        word: if *flip { !word } else { word },
                    }]),
                    // A deleted buffer's single pin is its output.
                    Rule::Pins(pins) => Some(
                        pins.iter()
                            .map(|&(ni, p)| Patch::InstrPin {
                                instr: ni,
                                pin: p,
                                word,
                            })
                            .collect(),
                    ),
                    Rule::SlotForce => Some(vec![Patch::Slot {
                        slot: self.out_slot_old[i],
                        word,
                    }]),
                    Rule::NoOp => Some(Vec::new()),
                    Rule::Unmapped => None,
                }
            }
        }
    }
}

fn patch_sort_key(p: &Patch) -> (u8, u32, u32) {
    match *p {
        Patch::Slot { slot, .. } => (0, slot, 0),
        Patch::InstrOutput { instr, .. } => (1, instr, 0),
        Patch::InstrPin { instr, pin, .. } => (1, instr, pin + 1),
    }
}

/// An equivalence-proven optimized program plus everything needed to run
/// faults compiled against the original through it.
#[derive(Debug, Clone)]
pub struct OptimizedProgram {
    original: EvalProgram,
    optimized: EvalProgram,
    stages: Vec<PassRemap>,
    stats: OptStats,
}

impl OptimizedProgram {
    /// The program the pipeline started from.
    pub fn original(&self) -> &EvalProgram {
        &self.original
    }

    /// The final, equivalence-proven program.
    pub fn optimized(&self) -> &EvalProgram {
        &self.optimized
    }

    /// What the pipeline did.
    pub fn stats(&self) -> &OptStats {
        &self.stats
    }

    /// Translates a fault patch compiled against the *original* program
    /// into an equivalent patch set on the optimized program, sorted and
    /// ready for [`EvalProgram::run_multi_patched`]. `None` means the
    /// fault has no faithful image — simulate it on
    /// [`OptimizedProgram::original`] instead.
    pub fn remap_patch(&self, patch: Patch) -> Option<Vec<Patch>> {
        let mut current = vec![patch];
        for stage in &self.stages {
            let mut next = Vec::with_capacity(current.len());
            for p in current {
                next.extend(stage.map(p)?);
            }
            current = next;
        }
        current.sort_unstable_by_key(patch_sort_key);
        current.dedup();
        Some(current)
    }
}

/// The in-progress edits one pass makes before the program is rebuilt.
struct Rewrite {
    remove: Vec<bool>,
    kinds: Vec<GateKind>,
    subst: Vec<u32>,
    new_consts: Vec<(u32, u64)>,
}

impl Rewrite {
    fn identity(p: &EvalProgram) -> Rewrite {
        Rewrite {
            remove: vec![false; p.instr_count()],
            kinds: p.ops.clone(),
            subst: (0..p.slot_count() as u32).collect(),
            new_consts: Vec::new(),
        }
    }

    /// Rebuilds the program: kept instructions get their operands
    /// substituted, levels recomputed, and are rescheduled by
    /// `(level, gate id)` — the same deterministic order
    /// [`EvalProgram::compile`] produces. Returns the rebuilt program and
    /// the old→new instruction map.
    fn apply(&self, p: &EvalProgram) -> (EvalProgram, Vec<u32>) {
        let n = p.instr_count();
        let kept: Vec<usize> = (0..n).filter(|&i| !self.remove[i]).collect();

        // Levels over the rewritten operand graph. Kept instructions are
        // visited in the old schedule order and substitutions only point
        // at earlier-written (or source) slots, so one forward sweep
        // suffices.
        let mut slot_avail = vec![0u32; p.slot_count()];
        let mut lvl = vec![0u32; n];
        for &i in &kept {
            let start = p.operand_start[i] as usize;
            let end = p.operand_start[i + 1] as usize;
            let mut l = 0u32;
            for &o in &p.operands[start..end] {
                l = l.max(slot_avail[self.subst[o as usize] as usize]);
            }
            lvl[i] = l;
            slot_avail[p.out_slot[i] as usize] = l + 1;
        }
        let mut order = kept;
        order.sort_unstable_by_key(|&i| (lvl[i], p.gate_of_instr[i].index()));

        let mut stream = Stream::new(p.instr_of_gate.len(), p.slot_count());
        let mut instr_map = vec![NO_INSTR; n];
        for &i in &order {
            let start = p.operand_start[i] as usize;
            let end = p.operand_start[i + 1] as usize;
            instr_map[i] = stream.push(
                self.kinds[i],
                p.operands[start..end]
                    .iter()
                    .map(|&o| self.subst[o as usize]),
                p.out_slot[i],
                p.gate_of_instr[i],
                lvl[i],
            );
        }

        let mut const_inits = p.const_inits.clone();
        const_inits.extend(self.new_consts.iter().copied());
        const_inits.sort_unstable_by_key(|&(s, _)| s);

        let new_p = stream.finish(
            p.input_slots.clone(),
            const_inits,
            p.dff_slots.clone(),
            p.output_slots.clone(),
        );
        (new_p, instr_map)
    }
}

/// Old-coordinate `(instr, pin)` pairs mapped into the new program;
/// `None` if any reader was itself removed (the fault would propagate
/// through deleted, non-transparent logic).
fn map_pins(pins: &[(u32, u32)], instr_map: &[u32]) -> Option<Vec<(u32, u32)>> {
    pins.iter()
        .map(|&(i, pin)| match instr_map[i as usize] {
            NO_INSTR => None,
            ni => Some((ni, pin)),
        })
        .collect()
}

fn pins_rule(pins: &[(u32, u32)], instr_map: &[u32]) -> Rule {
    match map_pins(pins, instr_map) {
        Some(v) => Rule::Pins(v),
        None => Rule::Unmapped,
    }
}

fn po_slots(p: &EvalProgram) -> HashSet<u32> {
    let mut po: HashSet<u32> = p.output_slots().iter().copied().collect();
    po.extend(p.dff_slots().iter().map(|&(_, d)| d));
    po
}

type PassResult = Option<(EvalProgram, PassRemap, usize)>;

/// Deletes instructions the ternary analysis proves constant, promoting
/// their output slots into the constant prologue.
fn const_fold(p: &EvalProgram) -> PassResult {
    let abs = ternary_analyze(p, &PiAssumption::AllX);
    let mut rw = Rewrite::identity(p);
    let mut rules = default_rules(p.instr_count());
    let mut folded = vec![false; p.instr_count()];
    let mut rewrites = 0usize;
    for (i, fold) in folded.iter_mut().enumerate() {
        let out = p.out_slot[i];
        if let Some(v) = abs.constant(out as usize) {
            *fold = true;
            rw.remove[i] = true;
            rw.new_consts.push((out, if v { !0u64 } else { 0 }));
            rewrites += 1;
        }
    }
    if rewrites == 0 {
        return None;
    }
    // The constancy proofs read every value in a folded instruction's
    // transitive fan-in: a fault *there* can drive the "constant" output
    // off its folded value in the input program, while the output program
    // has hard-wired it. Taint the fan-in cones (reverse schedule order —
    // operands are always written earlier) and send every patch kind that
    // lands on them back to the original program.
    let mut tainted = vec![false; p.slot_count()];
    for i in (0..p.instr_count()).rev() {
        if folded[i] || tainted[p.out_slot[i] as usize] {
            let start = p.operand_start[i] as usize;
            let end = p.operand_start[i + 1] as usize;
            for &o in &p.operands[start..end] {
                tainted[o as usize] = true;
            }
        }
    }
    for i in 0..p.instr_count() {
        if folded[i] {
            // A stem fault forces the (still live) slot — unless this
            // fold feeds *another* fold, whose proof assumed the folded
            // value. A pin fault's effect went through the deleted gate
            // function — original program only.
            rules[i] = InstrRules {
                out: if tainted[p.out_slot[i] as usize] {
                    Rule::Unmapped
                } else {
                    Rule::SlotForce
                },
                pin: Rule::Unmapped,
            };
        } else if tainted[p.out_slot[i] as usize] {
            rules[i] = InstrRules {
                out: Rule::Unmapped,
                pin: Rule::Unmapped,
            };
        }
    }
    // Constant source slots feed the proofs as known values (primary
    // inputs stay X, so input-slot patches are always safe).
    let const_slots: HashSet<u32> = p.const_inits().iter().map(|&(s, _)| s).collect();
    let unmapped_slots = (0..p.slot_count() as u32)
        .filter(|&s| tainted[s as usize] && const_slots.contains(&s))
        .collect();
    let (new_p, instr_map) = rw.apply(p);
    Some((
        new_p,
        PassRemap {
            instr_map,
            out_slot_old: p.out_slot.clone(),
            rules,
            unmapped_slots,
        },
        rewrites,
    ))
}

/// Forwards buffer chains: readers of a non-output `Buf` are rewired to
/// the chain root and the buffers deleted.
fn copy_forward(p: &EvalProgram) -> PassResult {
    let po = po_slots(p);
    let mut rw = Rewrite::identity(p);
    let mut rules = default_rules(p.instr_count());
    let mut removed: Vec<usize> = Vec::new();
    for i in 0..p.instr_count() {
        if p.ops[i] == GateKind::Buf && !po.contains(&p.out_slot[i]) {
            let src = p.operands[p.operand_start[i] as usize];
            // Path compression: the source's substitution is already
            // final (its writer is scheduled earlier).
            rw.subst[p.out_slot[i] as usize] = rw.subst[src as usize];
            rw.remove[i] = true;
            removed.push(i);
        }
    }
    if removed.is_empty() {
        return None;
    }
    // A stuck value on a deleted buffer reaches exactly the surviving
    // reader pins of its output — transitively through any downstream
    // deleted buffers, which pass the forced word unchanged. Reverse
    // order: a buffer's readers are scheduled after it.
    let mut pins_of: HashMap<usize, Vec<(u32, u32)>> = HashMap::new();
    for &i in removed.iter().rev() {
        let mut pins = Vec::new();
        for &(r, pin) in p.readers(p.out_slot[i] as usize) {
            if rw.remove[r as usize] {
                pins.extend(pins_of[&(r as usize)].iter().copied());
            } else {
                pins.push((r, pin));
            }
        }
        pins_of.insert(i, pins);
    }
    let count = removed.len();
    let (new_p, instr_map) = rw.apply(p);
    for &i in &removed {
        let rule = pins_rule(&pins_of[&i], &instr_map);
        rules[i] = InstrRules {
            out: rule.clone(),
            pin: rule,
        };
    }
    Some((
        new_p,
        PassRemap {
            instr_map,
            out_slot_old: p.out_slot.clone(),
            rules,
            unmapped_slots: HashSet::new(),
        },
        count,
    ))
}

fn symmetric(kind: GateKind) -> bool {
    !matches!(kind, GateKind::Not | GateKind::Buf)
}

/// Structural-hash CSE: instructions computing the same
/// `(kind, operands)` collapse onto the first scheduled one.
fn cse(p: &EvalProgram) -> PassResult {
    let po = po_slots(p);
    let mut rw = Rewrite::identity(p);
    let mut rules = default_rules(p.instr_count());
    let mut table: HashMap<(GateKind, Vec<u32>), usize> = HashMap::new();
    let mut merged: Vec<usize> = Vec::new();
    let mut reps: HashSet<usize> = HashSet::new();
    for i in 0..p.instr_count() {
        let start = p.operand_start[i] as usize;
        let end = p.operand_start[i + 1] as usize;
        let mut key: Vec<u32> = p.operands[start..end]
            .iter()
            .map(|&o| rw.subst[o as usize])
            .collect();
        if symmetric(p.ops[i]) {
            key.sort_unstable();
        }
        match table.entry((p.ops[i], key)) {
            std::collections::hash_map::Entry::Occupied(e) => {
                // Outputs must stay on their declared slots: a duplicate
                // driving a primary output is left alone.
                if po.contains(&p.out_slot[i]) {
                    continue;
                }
                let rep = *e.get();
                rw.remove[i] = true;
                rw.subst[p.out_slot[i] as usize] = p.out_slot[rep];
                merged.push(i);
                reps.insert(rep);
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(i);
            }
        }
    }
    if merged.is_empty() {
        return None;
    }
    let count = merged.len();
    let (new_p, instr_map) = rw.apply(p);
    // Merging redundant logic genuinely changes fault scopes, so the
    // rules are conservative: stem faults become pin forces on the cone's
    // *original* readers where those all survived; pin faults (and stems
    // with deleted readers, or on output-driving representatives whose
    // environment observation a pin set cannot express) fall back to the
    // original program. So does a stem read by a representative: its
    // output now also drives the readers of the duplicates it absorbed,
    // which the original fault never reached.
    let stem_rule = |slot: u32| {
        let readers = p.readers(slot as usize);
        if readers.iter().any(|&(r, _)| reps.contains(&(r as usize))) {
            Rule::Unmapped
        } else {
            pins_rule(readers, &instr_map)
        }
    };
    for &i in &merged {
        rules[i] = InstrRules {
            out: stem_rule(p.out_slot[i]),
            pin: Rule::Unmapped,
        };
    }
    for &rep in &reps {
        let out = if po.contains(&p.out_slot[rep]) {
            Rule::Unmapped
        } else {
            stem_rule(p.out_slot[rep])
        };
        rules[rep] = InstrRules {
            out,
            pin: Rule::Unmapped,
        };
    }
    Some((
        new_p,
        PassRemap {
            instr_map,
            out_slot_old: p.out_slot.clone(),
            rules,
            unmapped_slots: HashSet::new(),
        },
        count,
    ))
}

fn complement(kind: GateKind) -> GateKind {
    match kind {
        GateKind::And => GateKind::Nand,
        GateKind::Nand => GateKind::And,
        GateKind::Or => GateKind::Nor,
        GateKind::Nor => GateKind::Or,
        GateKind::Xor => GateKind::Xnor,
        GateKind::Xnor => GateKind::Xor,
        GateKind::Not => GateKind::Buf,
        GateKind::Buf => GateKind::Not,
    }
}

/// Fuses a sole-reader `Not` into its driver by complementing the
/// driver's kind; the `Not` degrades to a `Buf` that the next
/// copy-forward round deletes.
fn inv_fuse(p: &EvalProgram) -> PassResult {
    let po = po_slots(p);
    let mut rw = Rewrite::identity(p);
    let mut rules = default_rules(p.instr_count());
    let mut touched: HashSet<usize> = HashSet::new();
    let mut rewrites = 0usize;
    for i in 0..p.instr_count() {
        if p.ops[i] != GateKind::Not {
            continue;
        }
        let src = p.operands[p.operand_start[i] as usize];
        let Some(g) = p.instr_of_slot(src as usize) else {
            continue;
        };
        // Complementing a Buf just trades it for the Not — no progress.
        if p.ops[g] == GateKind::Buf {
            continue;
        }
        if touched.contains(&g) || touched.contains(&i) {
            continue;
        }
        if p.readers(src as usize).len() != 1 || po.contains(&src) {
            continue;
        }
        rw.kinds[g] = complement(p.ops[g]);
        rw.kinds[i] = GateKind::Buf;
        touched.insert(g);
        touched.insert(i);
        // The driver's output slot is now phase-flipped: its stem faults
        // flip their stuck word; its pin faults are untouched. The Not's
        // faults are the mirror image.
        rules[g] = InstrRules {
            out: Rule::Keep { flip: true },
            pin: Rule::Keep { flip: false },
        };
        rules[i] = InstrRules {
            out: Rule::Keep { flip: false },
            pin: Rule::Keep { flip: true },
        };
        rewrites += 1;
    }
    if rewrites == 0 {
        return None;
    }
    let (new_p, instr_map) = rw.apply(p);
    Some((
        new_p,
        PassRemap {
            instr_map,
            out_slot_old: p.out_slot.clone(),
            rules,
            unmapped_slots: HashSet::new(),
        },
        rewrites,
    ))
}

/// Deletes instructions whose output cannot reach a primary output or
/// flip-flop D — faults in them were undetectable before and stay
/// undetectable (an empty patch set) after.
fn dce(p: &EvalProgram) -> PassResult {
    let mut live = vec![false; p.slot_count()];
    for &s in p.output_slots() {
        live[s as usize] = true;
    }
    for &(_, d) in p.dff_slots() {
        live[d as usize] = true;
    }
    let mut rw = Rewrite::identity(p);
    let mut rules = default_rules(p.instr_count());
    let mut rewrites = 0usize;
    for i in (0..p.instr_count()).rev() {
        if live[p.out_slot[i] as usize] {
            let start = p.operand_start[i] as usize;
            let end = p.operand_start[i + 1] as usize;
            for &o in &p.operands[start..end] {
                live[o as usize] = true;
            }
        } else {
            rw.remove[i] = true;
            rules[i] = InstrRules {
                out: Rule::NoOp,
                pin: Rule::NoOp,
            };
            rewrites += 1;
        }
    }
    if rewrites == 0 {
        return None;
    }
    let (new_p, instr_map) = rw.apply(p);
    Some((
        new_p,
        PassRemap {
            instr_map,
            out_slot_old: p.out_slot.clone(),
            rules,
            unmapped_slots: HashSet::new(),
        },
        rewrites,
    ))
}

type PassFn = fn(&EvalProgram) -> PassResult;

/// Lint probe: the `(slot, constant value)` pairs the const-fold pass
/// would delete — gate-driven slots the ternary analysis proves constant
/// under all-X inputs. Drives the `B070` lint finding without running the
/// full pipeline.
pub fn fold_provable_slots(p: &EvalProgram) -> Vec<(u32, bool)> {
    let abs = ternary_analyze(p, &PiAssumption::AllX);
    (0..p.instr_count())
        .filter_map(|i| {
            let out = p.out_slot[i];
            abs.constant(out as usize).map(|v| (out, v))
        })
        .collect()
}

/// Lint probe: `(duplicate slot, representative slot)` pairs the CSE pass
/// would merge — instructions computing the same `(kind, operands)` key
/// (with operand substitution through earlier duplicates, so cascaded
/// duplicate cones are found too). Unlike the pass itself this also
/// reports duplicates that drive primary outputs (the pass must keep
/// those; the lint still wants them named). Drives the `B071` finding.
pub fn duplicate_cone_pairs(p: &EvalProgram) -> Vec<(u32, u32)> {
    let mut subst: Vec<u32> = (0..p.slot_count() as u32).collect();
    let mut table: HashMap<(GateKind, Vec<u32>), usize> = HashMap::new();
    let po = po_slots(p);
    let mut pairs = Vec::new();
    for i in 0..p.instr_count() {
        let start = p.operand_start[i] as usize;
        let end = p.operand_start[i + 1] as usize;
        let mut key: Vec<u32> = p.operands[start..end]
            .iter()
            .map(|&o| subst[o as usize])
            .collect();
        if symmetric(p.ops[i]) {
            key.sort_unstable();
        }
        match table.entry((p.ops[i], key)) {
            std::collections::hash_map::Entry::Occupied(e) => {
                let rep = *e.get();
                pairs.push((p.out_slot[i], p.out_slot[rep]));
                if !po.contains(&p.out_slot[i]) {
                    subst[p.out_slot[i] as usize] = p.out_slot[rep];
                }
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(i);
            }
        }
    }
    pairs
}

const PASSES: [(&str, PassFn); 5] = [
    ("const-fold", const_fold),
    ("copy-forward", copy_forward),
    ("cse", cse),
    ("inv-fuse", inv_fuse),
    ("dce", dce),
];

/// Runs the full pass pipeline to a fixpoint with per-pass translation
/// validation. `netlist` is the netlist `program` was compiled from — it
/// provides net names for counterexample rendering.
///
/// # Errors
///
/// [`OptError`] if the validator *refutes* a pass's output. (Verdicts the
/// checker cannot settle revert the pass instead — see
/// [`OptStats::reverted`] — so an `Ok` pipeline is proven end to end.)
///
/// # Panics
///
/// Panics if `program` has flip-flops; optimize the
/// [`Netlist::combinational_equivalent`] program.
pub fn optimize(netlist: &Netlist, program: &EvalProgram) -> Result<OptimizedProgram, OptError> {
    optimize_traced(netlist, program, &mut bibs_obs::Recorder::disabled())
}

/// [`optimize`] wrapped in telemetry: an `optimize` span with one child
/// span per accepted pass carrying
/// [`OptRewrites`](bibs_obs::CounterId::OptRewrites) /
/// [`OptInstrsSaved`](bibs_obs::CounterId::OptInstrsSaved) counters and
/// the validator's `cec` sub-span.
///
/// # Errors
///
/// Same as [`optimize`].
pub fn optimize_traced(
    netlist: &Netlist,
    program: &EvalProgram,
    rec: &mut bibs_obs::Recorder,
) -> Result<OptimizedProgram, OptError> {
    assert!(
        program.dff_slots().is_empty(),
        "optimize the combinational-equivalent program"
    );
    let span = rec.enter("optimize");
    let mut current = program.clone();
    let mut stages: Vec<PassRemap> = Vec::new();
    let mut stats = OptStats {
        instrs_before: program.instr_count(),
        ..OptStats::default()
    };
    let mut banned: HashSet<&'static str> = HashSet::new();
    for _ in 0..MAX_ROUNDS {
        let mut changed = false;
        for (name, pass) in PASSES {
            if banned.contains(name) {
                continue;
            }
            let Some((candidate, remap, rewrites)) = pass(&current) else {
                continue;
            };
            let pass_span = rec.enter(name);
            let verdict = cec::check_traced(&current, &candidate, rec);
            match verdict {
                CecResult::Proven(_) => {
                    let (before, after) = (current.instr_count(), candidate.instr_count());
                    rec.add(bibs_obs::CounterId::OptRewrites, rewrites as u64);
                    rec.add(bibs_obs::CounterId::OptInstrsSaved, (before - after) as u64);
                    stats.passes.push(PassStats {
                        name,
                        instrs_before: before,
                        instrs_after: after,
                        rewrites,
                    });
                    current = candidate;
                    stages.push(remap);
                    changed = true;
                    rec.exit(pass_span);
                }
                CecResult::Refuted(witness) => {
                    rec.exit(pass_span);
                    rec.exit(span);
                    let rendered = witness.render(netlist);
                    return Err(OptError {
                        pass: name,
                        witness,
                        rendered,
                    });
                }
                CecResult::Unknown { .. } | CecResult::Incompatible(_) => {
                    stats.reverted += 1;
                    banned.insert(name);
                    rec.exit(pass_span);
                }
            }
        }
        if !changed {
            break;
        }
    }
    stats.instrs_after = current.instr_count();
    rec.exit(span);
    Ok(OptimizedProgram {
        original: program.clone(),
        optimized: current,
        stages,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;
    use crate::compiled::EvalProgram;

    fn build(f: impl FnOnce(&mut NetlistBuilder)) -> (Netlist, EvalProgram) {
        let mut b = NetlistBuilder::new("t");
        f(&mut b);
        let nl = b.finish().unwrap();
        let p = EvalProgram::compile(&nl).unwrap();
        (nl, p)
    }

    /// Exhaustively compares good-machine outputs of two programs over
    /// the same (≤ 16-wide) input space.
    fn assert_same_function(a: &EvalProgram, b: &EvalProgram) {
        assert!(cec::check(a, b).is_proven());
    }

    #[test]
    fn buffer_chain_collapses() {
        let (nl, p) = build(|b| {
            let a = b.input("a");
            let mut cur = a;
            for _ in 0..5 {
                cur = b.gate(GateKind::Buf, &[cur]);
            }
            let c = b.input("b");
            let y = b.and2(cur, c);
            b.output("y", y);
        });
        let opt = optimize(&nl, &p).unwrap();
        assert!(opt.optimized().instr_count() < p.instr_count());
        // Only the AND survives (no buffer drives an output).
        assert_eq!(opt.optimized().instr_count(), 1);
        assert_same_function(&p, opt.optimized());
    }

    #[test]
    fn po_driving_buffer_survives() {
        let (nl, p) = build(|b| {
            let a = b.input("a");
            let y = b.gate(GateKind::Buf, &[a]);
            b.output("y", y);
        });
        let opt = optimize(&nl, &p).unwrap();
        assert_eq!(opt.optimized().instr_count(), 1, "output stays driven");
        assert_same_function(&p, opt.optimized());
    }

    #[test]
    fn cse_merges_duplicate_cones() {
        let (nl, p) = build(|b| {
            let a = b.input("a");
            let c = b.input("b");
            let x1 = b.and2(a, c);
            let x2 = b.and2(a, c);
            let x3 = b.and2(c, a); // symmetric operands also merge
            let y = b.xor2(x1, x2);
            let z = b.or2(x3, x1);
            b.output("y", y);
            b.output("z", z);
        });
        let opt = optimize(&nl, &p).unwrap();
        // x2/x3 merge into x1; y = x1 XOR x1 folds to constant 0.
        assert!(opt.optimized().instr_count() <= 3);
        assert_same_function(&p, opt.optimized());
    }

    #[test]
    fn const_fold_promotes_tied_logic() {
        let (nl, p) = build(|b| {
            let a = b.input("a");
            let zero = b.const0();
            let x = b.and2(a, zero); // constant 0
            let y = b.or2(x, a);
            b.output("y", y);
        });
        let opt = optimize(&nl, &p).unwrap();
        assert!(opt
            .optimized()
            .const_inits()
            .iter()
            .any(|&(_, w)| w == 0 || w == !0));
        assert_same_function(&p, opt.optimized());
    }

    #[test]
    fn inverter_fuses_into_driver() {
        let (nl, p) = build(|b| {
            let a = b.input("a");
            let c = b.input("b");
            let x = b.and2(a, c);
            let n = b.not(x);
            let d = b.input("d");
            let y = b.or2(n, d);
            b.output("y", y);
        });
        let opt = optimize(&nl, &p).unwrap();
        // AND+NOT fuse to NAND; the leftover Buf is forwarded away.
        assert_eq!(opt.optimized().instr_count(), 2);
        assert!(opt
            .optimized()
            .instrs()
            .any(|i| i.kind == GateKind::Nand || i.kind == GateKind::Nor));
        assert_same_function(&p, opt.optimized());
    }

    #[test]
    fn dead_cone_eliminated() {
        let (nl, p) = build(|b| {
            let a = b.input("a");
            let c = b.input("b");
            let y = b.and2(a, c);
            let _dead = b.or2(a, c);
            b.output("y", y);
        });
        let opt = optimize(&nl, &p).unwrap();
        assert_eq!(opt.optimized().instr_count(), 1);
        assert_same_function(&p, opt.optimized());
    }

    /// Checks every (net stem, gate pin) stuck-at fault of `nl`: it either
    /// remaps to a patch set whose faulty outputs equal the original
    /// program's, or reports itself unmappable. Returns `(checked,
    /// unmapped)`.
    fn assert_remaps_faithful(nl: &Netlist, p: &EvalProgram) -> (usize, usize) {
        let opt = optimize(nl, p).unwrap();
        assert!(opt.stats().instrs_saved() > 0);

        let width = nl.input_width();
        let mut patterns = Vec::new();
        let mut st = 0xD1CEu64;
        for _ in 0..width {
            st = st
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            patterns.push(st);
        }
        let outputs = p.output_slots().to_vec();
        let mut vo = p.new_values::<1>();
        let mut vn = opt.optimized().new_values::<1>();

        let mut checked = 0usize;
        let mut unmapped = 0usize;
        let mut try_patch = |patch: Patch| match opt.remap_patch(patch) {
            None => unmapped += 1,
            Some(ps) => {
                p.eval_patched::<1>(&mut vo, &patterns, patch);
                opt.optimized()
                    .eval_multi_patched::<1>(&mut vn, &patterns, &ps);
                for &o in &outputs {
                    assert_eq!(
                        vo[o as usize], vn[o as usize],
                        "fault {patch:?} diverges at slot {o}"
                    );
                }
                checked += 1;
            }
        };
        for net in nl.net_ids() {
            for stuck in [false, true] {
                try_patch(p.patch_net(net, stuck));
            }
        }
        for g in nl.gate_ids() {
            for pin in 0..nl.gate(g).inputs.len() {
                for stuck in [false, true] {
                    try_patch(p.patch_pin(g, pin, stuck));
                }
            }
        }
        assert!(checked > 0, "some faults must remap");
        (checked, unmapped)
    }

    #[test]
    fn remapped_faults_match_original_behavior() {
        let (nl, p) = build(|b| {
            let a = b.input_word("a", 3);
            let c = b.input_word("b", 3);
            let (s, co) = b.ripple_carry_adder(&a, &c, None);
            // Redundant logic to exercise CSE + fold + a buffer chain.
            let dup = b.and2(a[0], c[0]);
            let buf = b.gate(GateKind::Buf, &[dup]);
            let buf2 = b.gate(GateKind::Buf, &[buf]);
            let n = b.not(buf2);
            let extra = b.or2(n, s[0]);
            b.output_word("s", &s);
            b.output("co", co);
            b.output("x", extra);
        });
        let (checked, unmapped) = assert_remaps_faithful(&nl, &p);
        // The fallback set should be the minority.
        assert!(
            unmapped < checked,
            "unmapped {unmapped} vs checked {checked}"
        );
    }

    #[test]
    fn remapped_faults_stay_faithful_through_cascaded_cse() {
        // CSE merges `d2` into `d1`, then the dead `x2` (reading `d2`)
        // absorbs its duplicate `x1`: a stem fault on `d2` must not become
        // a pin force on `x2`, whose output now also drives `y`.
        let (nl, p) = build(|b| {
            let a = b.input("a");
            let c = b.input("c");
            let d = b.input("d");
            let e = b.input("e");
            let d1 = b.and2(e, d);
            let d2 = b.and2(d, e);
            let _x2 = b.gate(GateKind::Xnor, &[c, d2]);
            let x1 = b.gate(GateKind::Xnor, &[c, d1]);
            let y = b.gate(GateKind::Nor, &[a, x1]);
            b.output("y", y);
        });
        assert_remaps_faithful(&nl, &p);
    }

    #[test]
    fn optimize_is_deterministic() {
        let (nl, p) = build(|b| {
            let a = b.input_word("a", 4);
            let c = b.input_word("b", 4);
            let (s, co) = b.ripple_carry_adder(&a, &c, None);
            b.output_word("s", &s);
            b.output("co", co);
        });
        let o1 = optimize(&nl, &p).unwrap();
        let o2 = optimize(&nl, &p).unwrap();
        assert_eq!(o1.optimized(), o2.optimized());
        assert_eq!(o1.stats(), o2.stats());
    }
}
