//! Compiled flat evaluation IR: [`EvalProgram`] and fault [`Patch`]es.
//!
//! Every hot loop in the workspace — Table 2 coverage runs, exhaustive
//! `2^M - 1 + d` verification, fault simulation — evaluates the same
//! combinational netlists over and over. Walking the [`Netlist`] object
//! graph per evaluation (re-scanning every net's [`NetDriver`], refilling a
//! per-gate scratch buffer, chasing `Vec<NetId>` indirections) pays a steep
//! interpretation tax on each of those millions of evaluations.
//!
//! [`EvalProgram`] pays that tax **once**. Compiling a netlist produces:
//!
//! * a flat instruction stream in structure-of-arrays layout — one opcode
//!   ([`GateKind`]), a dense operand span into a single shared operand
//!   arena, and an output slot per instruction — scheduled in levelized
//!   topological order;
//! * pre-resolved initialization lists: primary-input slots in declaration
//!   order ([`EvalProgram::input_slots`]) and constant prologue words
//!   ([`EvalProgram::const_inits`]) — evaluation never scans drivers;
//! * a fanout index ([`EvalProgram::readers`]): the `(instruction, pin)`
//!   pairs that read each slot, one entry per operand;
//! * **fault patch-points**: for any net or gate pin, a [`Patch`] that
//!   forces the corresponding slot, instruction output, or instruction
//!   operand to a stuck value. Faulty-machine evaluation is "run the same
//!   program with the patch applied", not a second bespoke interpreter —
//!   either the whole program ([`EvalProgram::eval_patched`]) or, from a
//!   buffer holding the good machine's values with one slot forced, a
//!   sweep of that slot's fanout [`Cone`] ([`EvalProgram::sweep`]).
//!   Beside the evaluation body sits the gate rule of critical-path tracing
//!   ([`EvalProgram::sensitization`]): the lanes in which one flipped
//!   operand flips an instruction's output;
//! * the **fanout-free regions** that tracing rests on
//!   ([`EvalProgram::fanout_regions`]): every slot's stem and every stem's
//!   fanout [`Cone`], built in one walk of the slots readers first
//!   ([`EvalProgram::readers_first`]).
//!
//! *Slots* are net indices: slot `i` of a value buffer holds the 64-lane
//! word of net `NetId::from_index(i)`. This keeps the compiled engine
//! drop-in compatible with everything that indexes values by net, and lets
//! analysis passes (e.g. the `B007` dead-slot lint) translate slot facts
//! back to nets trivially.
//!
//! # Determinism
//!
//! The instruction schedule is a pure function of the netlist (level, then
//! gate id), and evaluation is pure dataflow over that schedule, so every
//! net word computed by [`EvalProgram::run`] is bit-identical to the
//! classic interpreted walk for *any* valid topological order. The fault
//! simulator's equivalence with the reference interpreter therefore
//! carries over unchanged.
//!
//! # Example
//!
//! ```
//! use bibs_netlist::builder::NetlistBuilder;
//! use bibs_netlist::compiled::EvalProgram;
//! use bibs_netlist::GateKind;
//!
//! # fn main() -> Result<(), bibs_netlist::NetlistError> {
//! let mut b = NetlistBuilder::new("mux-ish");
//! let a = b.input("a");
//! let c = b.input("b");
//! let y = b.gate(GateKind::And, &[a, c]);
//! b.output("y", y);
//! let nl = b.finish()?;
//!
//! let prog = EvalProgram::compile(&nl)?;
//! let mut values = prog.new_values();
//! prog.eval_good(&mut values, &[0b0011, 0b0101]);
//! assert_eq!(values[nl.outputs()[0].index()] & 0b1111, 0b0001);
//!
//! // Faulty machine: force the AND output stuck-at-1 and re-run.
//! let patch = prog.patch_net(nl.outputs()[0], true);
//! prog.eval_patched(&mut values, &[0b0011, 0b0101], patch);
//! assert_eq!(values[nl.outputs()[0].index()] & 0b1111, 0b1111);
//! # Ok(())
//! # }
//! ```

use crate::netlist::{GateId, GateKind, NetDriver, NetId, Netlist, NetlistError};

/// Sentinel in [`EvalProgram`]'s slot-to-instruction map for slots that are
/// sources (inputs, constants, flip-flop Q) rather than gate outputs.
const NO_INSTR: u32 = u32::MAX;

/// A fault patch-point: the single edit that turns a good-machine program
/// run into a faulty-machine run.
///
/// Produced by [`EvalProgram::patch_net`] / [`EvalProgram::patch_pin`];
/// consumed by [`EvalProgram::run_patched`] / [`EvalProgram::eval_patched`].
/// `word` is the 64-lane stuck value (`!0` for stuck-at-1, `0` for
/// stuck-at-0).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Patch {
    /// Force a *source* slot (primary input, constant, or flip-flop Q)
    /// before the instruction stream runs.
    Slot {
        /// The value-buffer slot (net index) to force.
        slot: u32,
        /// The 64-lane stuck word.
        word: u64,
    },
    /// Force an instruction's output slot: the prefix runs, the patched
    /// instruction is skipped with its output forced, the suffix runs.
    InstrOutput {
        /// The instruction whose output is forced.
        instr: u32,
        /// The 64-lane stuck word.
        word: u64,
    },
    /// Force one operand of one instruction (a gate input-pin fault); all
    /// other readers of the same net see the good value.
    InstrPin {
        /// The instruction whose operand is overridden.
        instr: u32,
        /// The operand position (gate pin) to override.
        pin: u32,
        /// The 64-lane stuck word.
        word: u64,
    },
}

/// A read-only view of one compiled instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Instr<'a> {
    /// The gate function computed by this instruction.
    pub kind: GateKind,
    /// Operand slots (net indices), in gate pin order.
    pub operands: &'a [u32],
    /// The output slot (net index) written by this instruction.
    pub out: u32,
    /// The gate this instruction was compiled from.
    pub gate: GateId,
}

/// A netlist compiled to a flat, allocation-free evaluation program.
///
/// Built once per [`Netlist`] by [`EvalProgram::compile`]; evaluated many
/// times over caller-owned value buffers (`&mut [u64]`, one 64-lane word
/// per slot) created by [`EvalProgram::new_values`]. The program itself is
/// immutable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalProgram {
    /// Opcode per instruction.
    ops: Vec<GateKind>,
    /// Operand span starts; span of instruction `i` is
    /// `operand_start[i]..operand_start[i + 1]` (length `instr_count + 1`).
    operand_start: Vec<u32>,
    /// Shared operand arena: slot indices, grouped per instruction.
    operands: Vec<u32>,
    /// Output slot per instruction.
    out_slot: Vec<u32>,
    /// Gate → instruction position.
    instr_of_gate: Vec<u32>,
    /// Instruction position → source gate.
    gate_of_instr: Vec<GateId>,
    /// Slot → instruction writing it, or [`NO_INSTR`] for source slots.
    instr_of_slot: Vec<u32>,
    /// Primary-input slots in declaration order.
    input_slots: Vec<u32>,
    /// Constant prologue: `(slot, word)` pairs applied once per buffer.
    const_inits: Vec<(u32, u64)>,
    /// Flip-flop `(q, d)` slot pairs, in [`Netlist::dffs`] order.
    dff_slots: Vec<(u32, u32)>,
    /// Primary-output slots in declaration order.
    output_slots: Vec<u32>,
    /// Number of value-buffer slots (= net count).
    slot_count: usize,
    /// Fanout index (CSR): the readers of slot `s` are
    /// `readers[reader_start[s]..reader_start[s + 1]]`.
    reader_start: Vec<u32>,
    /// `(instruction, pin)` operand occurrences grouped by slot, in
    /// schedule order within each slot.
    readers: Vec<(u32, u32)>,
    /// Whether each slot is a primary output.
    is_output: Vec<bool>,
}

/// A set of instructions as a bitset over schedule positions, trimmed to
/// the words it spans: bit `b` of `words[k]` is instruction
/// `64 * (first_word + k) + b`. [`EvalProgram::sweep`] evaluates one in
/// schedule order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cone<'a> {
    /// The word of the schedule that `words[0]` covers.
    pub first_word: usize,
    /// The bitset's words.
    pub words: &'a [u64],
}

/// The fanout-free regions of an [`EvalProgram`], built by
/// [`EvalProgram::fanout_regions`]: every slot's stem and every stem's
/// fanout [`Cone`], all cones in one arena.
///
/// A fanout-free region is a maximal tree whose inner nets each have
/// exactly one gate reader and are not primary outputs; its root net is
/// the region's *stem*. A net with no reader, several reader pins (one
/// gate reading it twice included) or an output role is its own stem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FanoutRegions {
    /// Per slot, the stem of its region.
    stem: Vec<u32>,
    /// Per slot, `(first_word, start, end)`: a stem's cone is the bitset
    /// `words[start..end]`, whose word 0 covers the schedule's word
    /// `first_word`. Empty for a slot that is no stem or has no reader.
    spans: Vec<(u32, u32, u32)>,
    /// Every cone, each after the cones of the stems its readers reach.
    words: Vec<u64>,
}

impl FanoutRegions {
    /// The stem of `slot`'s region: the net reached by following nets
    /// that have exactly one gate reader and are not primary outputs.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is not a slot of the program.
    #[inline]
    pub fn stem(&self, slot: usize) -> usize {
        self.stem[slot] as usize
    }

    /// The fanout cone of `stem`: every instruction its value reaches, so
    /// [`EvalProgram::sweep`] may force `stem` over it. Empty for a stem
    /// with no reader, and for a slot that is no stem.
    ///
    /// # Panics
    ///
    /// Panics if `stem` is not a slot of the program.
    #[inline]
    pub fn cone(&self, stem: usize) -> Cone<'_> {
        let (first_word, start, end) = self.spans[stem];
        Cone {
            first_word: first_word as usize,
            words: &self.words[start as usize..end as usize],
        }
    }
}

impl EvalProgram {
    /// Compiles `netlist` into a flat evaluation program.
    ///
    /// Gates are scheduled by `(level, gate id)` where a gate's level is one
    /// more than the maximum level of its gate-driven inputs — a levelized
    /// topological order.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] if the combinational
    /// part cannot be ordered. Other structural defects (floating nets, bad
    /// arity, out-of-range ids) are *not* diagnosed here — run
    /// [`Netlist::validate`] or the lint passes first; compiling a netlist
    /// with out-of-range ids panics.
    pub fn compile(netlist: &Netlist) -> Result<EvalProgram, NetlistError> {
        let order = netlist.levelize()?;
        let gate_count = netlist.gate_count();
        let slot_count = netlist.net_count();

        // Per-gate level, computed in topological order.
        let mut level = vec![0u32; gate_count];
        for &gid in &order {
            let gate = netlist.gate(gid);
            let mut l = 0u32;
            for &inp in &gate.inputs {
                if let NetDriver::Gate(src) = netlist.driver(inp) {
                    l = l.max(level[src.index()] + 1);
                }
            }
            level[gid.index()] = l;
        }

        // Deterministic levelized schedule: (level, gate id).
        let mut sched: Vec<u32> = (0..gate_count as u32).collect();
        sched.sort_unstable_by_key(|&g| (level[g as usize], g));

        let mut ops = Vec::with_capacity(gate_count);
        let mut operand_start = Vec::with_capacity(gate_count + 1);
        operand_start.push(0);
        let mut operands = Vec::new();
        let mut out_slot = Vec::with_capacity(gate_count);
        let mut instr_of_gate = vec![NO_INSTR; gate_count];
        let mut gate_of_instr = Vec::with_capacity(gate_count);
        let mut instr_of_slot = vec![NO_INSTR; slot_count];
        for (pos, &g) in sched.iter().enumerate() {
            let gid = GateId::from_index(g as usize);
            let gate = netlist.gate(gid);
            ops.push(gate.kind);
            operands.extend(gate.inputs.iter().map(|i| i.index() as u32));
            operand_start.push(operands.len() as u32);
            out_slot.push(gate.output.index() as u32);
            instr_of_gate[g as usize] = pos as u32;
            gate_of_instr.push(gid);
            instr_of_slot[gate.output.index()] = pos as u32;
        }

        // Fanout index: count each slot's readers, prefix-sum, then fill
        // in schedule order.
        let mut reader_start = vec![0u32; slot_count + 1];
        for &s in &operands {
            reader_start[s as usize + 1] += 1;
        }
        for s in 0..slot_count {
            reader_start[s + 1] += reader_start[s];
        }
        let mut fill = reader_start.clone();
        let mut readers = vec![(0u32, 0u32); operands.len()];
        for i in 0..ops.len() {
            let span = operand_start[i] as usize..operand_start[i + 1] as usize;
            for (pin, &s) in operands[span].iter().enumerate() {
                readers[fill[s as usize] as usize] = (i as u32, pin as u32);
                fill[s as usize] += 1;
            }
        }

        let mut const_inits = Vec::new();
        for net in netlist.net_ids() {
            if let NetDriver::Const(v) = netlist.driver(net) {
                const_inits.push((net.index() as u32, if v { !0u64 } else { 0 }));
            }
        }
        let output_slots: Vec<u32> = netlist.outputs().iter().map(|n| n.index() as u32).collect();
        let mut is_output = vec![false; slot_count];
        for &s in &output_slots {
            is_output[s as usize] = true;
        }
        Ok(EvalProgram {
            ops,
            operand_start,
            operands,
            out_slot,
            instr_of_gate,
            gate_of_instr,
            instr_of_slot,
            input_slots: netlist.inputs().iter().map(|n| n.index() as u32).collect(),
            const_inits,
            dff_slots: netlist
                .dffs()
                .iter()
                .map(|ff| (ff.q.index() as u32, ff.d.index() as u32))
                .collect(),
            output_slots,
            slot_count,
            reader_start,
            readers,
            is_output,
        })
    }

    /// Number of value-buffer slots (equals the source netlist's net
    /// count; slot `i` carries net `i`).
    pub fn slot_count(&self) -> usize {
        self.slot_count
    }

    /// Number of instructions (equals the source netlist's gate count).
    pub fn instr_count(&self) -> usize {
        self.ops.len()
    }

    /// Primary-input slots in [`Netlist::inputs`] order.
    pub fn input_slots(&self) -> &[u32] {
        &self.input_slots
    }

    /// The constant prologue: `(slot, word)` pairs. Applied once per value
    /// buffer by [`EvalProgram::new_values`] / [`EvalProgram::apply_consts`]
    /// — *not* on every evaluation.
    pub fn const_inits(&self) -> &[(u32, u64)] {
        &self.const_inits
    }

    /// Flip-flop `(q, d)` slot pairs in [`Netlist::dffs`] order.
    pub fn dff_slots(&self) -> &[(u32, u32)] {
        &self.dff_slots
    }

    /// Primary-output slots in [`Netlist::outputs`] order.
    pub fn output_slots(&self) -> &[u32] {
        &self.output_slots
    }

    /// A view of instruction `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= instr_count()`.
    // Inlinable from any codegen unit: the ternary analysis's case-split
    // loop reads one instruction per stem and instruction, and whether it
    // lands in this function's unit depends on how the crate is split.
    #[inline]
    pub fn instr(&self, i: usize) -> Instr<'_> {
        let span = self.operand_start[i] as usize..self.operand_start[i + 1] as usize;
        Instr {
            kind: self.ops[i],
            operands: &self.operands[span],
            out: self.out_slot[i],
            gate: self.gate_of_instr[i],
        }
    }

    /// Iterates over all instructions in schedule order.
    pub fn instrs(&self) -> impl Iterator<Item = Instr<'_>> + '_ {
        (0..self.instr_count()).map(|i| self.instr(i))
    }

    /// The instruction position compiled from `gate`.
    ///
    /// # Panics
    ///
    /// Panics if `gate` is out of range.
    pub fn instr_of_gate(&self, gate: GateId) -> usize {
        self.instr_of_gate[gate.index()] as usize
    }

    /// The instruction writing `slot`, or `None` for source slots
    /// (primary inputs, constants, flip-flop Q).
    ///
    /// # Panics
    ///
    /// Panics if `slot >= slot_count()`.
    pub fn instr_of_slot(&self, slot: usize) -> Option<usize> {
        match self.instr_of_slot[slot] {
            NO_INSTR => None,
            i => Some(i as usize),
        }
    }

    /// The operand occurrences of `slot`: the `(instruction, pin)` pairs
    /// that read it as a gate operand, in schedule order.
    ///
    /// This is the reader-side dual of [`EvalProgram::instr_of_slot`],
    /// compiled once per program (one entry per operand): analysis passes
    /// use it to count fanout branches and to enumerate a net's
    /// observation paths without re-walking the [`Netlist`], and
    /// [`EvalProgram::fanout_regions`] to build the fanout [`Cone`]s the
    /// fault simulator sweeps. Primary-output and flip-flop-D reads are
    /// *not* included — see [`EvalProgram::output_slots`] /
    /// [`EvalProgram::dff_slots`].
    ///
    /// # Panics
    ///
    /// Panics if `slot >= slot_count()`.
    pub fn readers(&self, slot: usize) -> &[(u32, u32)] {
        &self.readers[self.reader_start[slot] as usize..self.reader_start[slot + 1] as usize]
    }

    /// Whether `slot` is a primary output (listed in
    /// [`EvalProgram::output_slots`]).
    ///
    /// # Panics
    ///
    /// Panics if `slot >= slot_count()`.
    pub fn is_output(&self, slot: usize) -> bool {
        self.is_output[slot]
    }

    // ------------------------------------------------------------------
    // Evaluation over value buffers.
    //
    // A value buffer holds one 64-lane word per slot: slot `s` is
    // `values[s]`, 64 patterns per evaluation. A patch's stuck word is
    // all-zero or all-one — a stuck-at fault is stuck in every lane.
    // ------------------------------------------------------------------

    /// A fresh value buffer (one word per slot): all slots zero, then the
    /// constant prologue.
    pub fn new_values(&self) -> Vec<u64> {
        let mut values = vec![0u64; self.slot_count];
        self.apply_consts(&mut values);
        values
    }

    /// Applies the constant prologue to `values`. Needed after zeroing a
    /// buffer (e.g. a simulator reset); good-machine evaluation never
    /// calls this.
    pub fn apply_consts(&self, values: &mut [u64]) {
        for &(slot, word) in &self.const_inits {
            values[slot as usize] = word;
        }
    }

    /// Writes the primary-input words into their slots: `inputs[i]` is
    /// the 64-lane word of primary input `i`, in declaration order.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the input width.
    #[inline]
    pub fn set_inputs(&self, values: &mut [u64], inputs: &[u64]) {
        assert_eq!(
            inputs.len(),
            self.input_slots.len(),
            "one word per primary input required"
        );
        for (&slot, &word) in self.input_slots.iter().zip(inputs) {
            values[slot as usize] = word;
        }
    }

    /// Executes the full instruction stream over `values`.
    ///
    /// Sources (inputs, constants, flip-flop Q slots) are read as-is; set
    /// them first. Returns the gate-evaluation count (`instr_count`) for
    /// throughput accounting.
    #[inline]
    pub fn run(&self, values: &mut [u64]) -> u64 {
        self.exec_range(values, 0, self.ops.len());
        self.ops.len() as u64
    }

    /// Good-machine evaluation: inputs, then the instruction stream.
    ///
    /// Constants are *not* re-applied — they are part of the buffer
    /// prologue ([`EvalProgram::new_values`]). Returns the
    /// gate-evaluation count.
    #[inline]
    pub fn eval_good(&self, values: &mut [u64], inputs: &[u64]) -> u64 {
        self.set_inputs(values, inputs);
        self.run(values)
    }

    /// Faulty-machine evaluation: constant prologue, inputs, then the
    /// instruction stream with `patch` applied.
    ///
    /// Re-applying the (typically empty) constant prologue makes the buffer
    /// self-healing: a previous [`Patch::Slot`] on a constant slot is
    /// undone here, so one persistent faulty buffer serves every
    /// whole-program faulty run (the sequential simulator, the test
    /// oracles). The fault simulator sweeps its stems' cones with
    /// [`EvalProgram::sweep`] instead. Returns the executed count.
    #[inline]
    pub fn eval_patched(&self, values: &mut [u64], inputs: &[u64], patch: Patch) -> u64 {
        self.apply_consts(values);
        self.set_inputs(values, inputs);
        self.run_patched(values, patch)
    }

    /// Executes the instruction stream with `patch` applied. Sources must
    /// already be set. Returns the executed count.
    pub fn run_patched(&self, values: &mut [u64], patch: Patch) -> u64 {
        let n = self.ops.len();
        let i = match patch {
            Patch::Slot { slot, word } => {
                values[slot as usize] = word;
                return self.run(values);
            }
            Patch::InstrOutput { instr, .. } | Patch::InstrPin { instr, .. } => instr as usize,
        };
        self.exec_range(values, 0, i);
        let (word, evaluated) = self.patched_word(values, i, patch);
        values[self.out_slot[i] as usize] = word;
        self.exec_range(values, i + 1, n);
        (n - 1 + usize::from(evaluated)) as u64
    }

    /// Faulty-machine evaluation of one forced slot by a sweep of its
    /// fanout cone: forces `slot` to `word`, then evaluates the
    /// instructions of `cone` in schedule order over `faulty`, and returns
    /// the primary-output difference, or as much of it as covers `stop`.
    ///
    /// `cone` must hold every instruction that `slot`'s value reaches
    /// (the transitive closure of [`EvalProgram::readers`]) and nothing
    /// that writes `slot`. `good` holds the good machine's values for the
    /// current inputs ([`EvalProgram::eval_good`]); `faulty` must equal
    /// `good` on entry, and equals it again on return: the call restores
    /// `slot` and every output it wrote from `good`. No value is compared
    /// and nothing is scheduled: a cone instruction that no difference
    /// reaches recomputes its good value.
    ///
    /// `stop` lets a caller that needs only some lanes return early:
    /// before it evaluates the next cone instruction, the call stops once
    /// every lane of `stop` differs at some output. Each output is written
    /// once, so the difference found so far is final in every lane it
    /// holds; the rest of the sweep could add lanes, never remove one. A
    /// `stop` of `!0` never stops early: callers that need the whole
    /// difference pass `!0`.
    ///
    /// Returns `(diff, gate_evals, stopped)`: `diff` is the OR of
    /// `good ^ faulty` over the primary outputs (`slot` included), equal
    /// to what [`EvalProgram::eval_patched`] with `slot` forced to `word`
    /// followed by a comparison of every output would give, or a subset of
    /// it that covers `stop`; `gate_evals` is the count of cone
    /// instructions evaluated; `stopped` is whether the call returned at
    /// the stop test with cone instructions left.
    ///
    /// # Panics
    ///
    /// Panics if a buffer is shorter than `slot_count()` words or `cone`
    /// names an instruction past `instr_count()`.
    pub fn sweep(
        &self,
        good: &[u64],
        faulty: &mut [u64],
        slot: usize,
        word: u64,
        cone: Cone<'_>,
        stop: u64,
    ) -> (u64, u64, bool) {
        let stops = stop != !0;
        faulty[slot] = word;
        let mut diff = 0;
        if self.is_output[slot] {
            diff = good[slot] ^ word;
        }
        let mut evaluated = 0usize;
        let mut covered = stops && diff & stop == stop;
        if !covered {
            'sweep: for (k, &bits) in cone.words.iter().enumerate() {
                let base = (cone.first_word + k) * 64;
                let mut bits = bits;
                while bits != 0 {
                    let i = base + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    evaluated += 1;
                    let value = self.eval_instr(i, |_, s| faulty[s as usize]);
                    let out = self.out_slot[i] as usize;
                    faulty[out] = value;
                    if self.is_output[out] {
                        diff |= good[out] ^ value;
                        if stops && diff & stop == stop {
                            covered = true;
                            break 'sweep;
                        }
                    }
                }
            }
        }
        // Restore the slot and the outputs of the `evaluated` cone
        // instructions swept; a cone instruction after them means the
        // sweep stopped early.
        faulty[slot] = good[slot];
        let mut left = evaluated;
        let mut stopped = false;
        'restore: for (k, &bits) in cone.words.iter().enumerate() {
            let base = (cone.first_word + k) * 64;
            let mut bits = bits;
            while bits != 0 {
                if left == 0 {
                    stopped = covered;
                    break 'restore;
                }
                let out = self.out_slot[base + bits.trailing_zeros() as usize] as usize;
                bits &= bits - 1;
                faulty[out] = good[out];
                left -= 1;
            }
        }
        (diff, evaluated as u64, stopped)
    }

    /// Every slot once, each after the output slot of every instruction
    /// that reads it: the gate outputs from the last instruction back,
    /// then the sources. A slot's readers write slots later in the
    /// schedule, so a walk in this order finds its readers' outputs
    /// settled.
    pub fn readers_first(&self) -> impl Iterator<Item = usize> + '_ {
        let outputs = self.out_slot.iter().rev().map(|&s| s as usize);
        let sources = (0..self.slot_count).filter(|&s| self.instr_of_slot[s] == NO_INSTR);
        outputs.chain(sources)
    }

    /// The program's fanout-free regions: every slot's stem and every
    /// stem's fanout cone, each cone exactly what [`EvalProgram::sweep`]
    /// needs to force its stem.
    ///
    /// One walk in [`EvalProgram::readers_first`] order settles each
    /// slot's stem: a slot with one reader pin that is no primary output
    /// takes the stem of its reader's output. The same walk sizes the cone
    /// of each stem with readers and lists those stems. Readers are in
    /// schedule order, so the cone opens at the first one's word and
    /// closes at the furthest next stem's writer or cone, already sized.
    /// The arena is then allocated once, at its summed size, and filled
    /// in the listed order: for each reader, the single-reader chain to
    /// the next stem, ORed with that stem's cone, which is already filled.
    pub fn fanout_regions(&self) -> FanoutRegions {
        let mut stem: Vec<u32> = (0..self.slot_count as u32).collect();
        let mut spans = vec![(0u32, 0u32, 0u32); self.slot_count];
        let mut listed = Vec::new();
        let mut len = 0;
        for s in self.readers_first() {
            let readers = self.readers(s);
            if let [(reader, _)] = *readers {
                if !self.is_output[s] {
                    stem[s] = stem[self.out_slot[reader as usize] as usize];
                    continue;
                }
            }
            let Some(&(first, _)) = readers.first() else {
                continue;
            };
            let first = first / 64;
            let mut end = first + 1;
            for &(r, _) in readers {
                let next = stem[self.out_slot[r as usize] as usize] as usize;
                let (at, from, to) = spans[next];
                end = end
                    .max(self.instr_of_slot[next] / 64 + 1)
                    .max(at + to - from);
            }
            spans[s] = (first, len, len + end - first);
            len += end - first;
            listed.push(s);
        }
        let mut words = vec![0u64; len as usize];
        for &s in &listed {
            let (first, start, _) = spans[s];
            let (filled, cone) = words.split_at_mut(start as usize);
            for &(r, _) in self.readers(s) {
                let mut i = r as usize;
                let next = loop {
                    cone[i / 64 - first as usize] |= 1 << (i % 64);
                    let out = self.out_slot[i] as usize;
                    if stem[out] as usize == out {
                        break out;
                    }
                    i = self.readers(out)[0].0 as usize;
                };
                let (at, from, to) = spans[next];
                if from < to {
                    let tail = &mut cone[(at - first) as usize..];
                    for (w, &b) in tail.iter_mut().zip(&filled[from as usize..to as usize]) {
                        *w |= b;
                    }
                }
            }
        }
        FanoutRegions { stem, spans, words }
    }

    /// Builds the patch-point for a stuck-at fault on `net`.
    ///
    /// Gate-driven nets patch the driving instruction's output
    /// ([`Patch::InstrOutput`]); source nets (inputs, constants, flip-flop
    /// Q) patch the slot directly ([`Patch::Slot`]).
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of range.
    pub fn patch_net(&self, net: NetId, stuck_at: bool) -> Patch {
        let word = if stuck_at { !0u64 } else { 0 };
        let slot = net.index() as u32;
        match self.instr_of_slot[net.index()] {
            NO_INSTR => Patch::Slot { slot, word },
            instr => Patch::InstrOutput { instr, word },
        }
    }

    /// Builds the patch-point for a stuck-at fault on input pin `pin` of
    /// `gate`: only that operand sees the stuck value; every other reader
    /// of the same net sees the good value.
    ///
    /// # Panics
    ///
    /// Panics if `gate` is out of range.
    pub fn patch_pin(&self, gate: GateId, pin: usize, stuck_at: bool) -> Patch {
        Patch::InstrPin {
            instr: self.instr_of_gate[gate.index()],
            pin: pin as u32,
            word: if stuck_at { !0u64 } else { 0 },
        }
    }

    /// Advances every flip-flop in `values`: Q ← D in all lanes, with all
    /// D values captured before any Q is written (so back-to-back
    /// flip-flops shift correctly without an intermediate buffer *per
    /// stage* — a single pass suffices because `dff_slots` pairs are
    /// captured first).
    pub fn clock(&self, values: &mut [u64], capture: &mut Vec<u64>) {
        capture.clear();
        capture.extend(self.dff_slots.iter().map(|&(_, d)| values[d as usize]));
        for (&(q, _), &v) in self.dff_slots.iter().zip(capture.iter()) {
            values[q as usize] = v;
        }
    }

    /// Which slots the program ever *reads*: instruction operands,
    /// flip-flop D slots, and primary outputs (observed by the
    /// environment). Unread slots are dead — their values can never reach
    /// an output, which is what the `B007` lint reports.
    pub fn slot_read_mask(&self) -> Vec<bool> {
        let mut read = vec![false; self.slot_count];
        for &s in &self.operands {
            read[s as usize] = true;
        }
        for &(_, d) in &self.dff_slots {
            read[d as usize] = true;
        }
        for &s in &self.output_slots {
            read[s as usize] = true;
        }
        read
    }

    /// Executes instructions `from..to` over `values`.
    #[inline]
    fn exec_range(&self, values: &mut [u64], from: usize, to: usize) {
        for i in from..to {
            let word = self.eval_instr(i, |_, s| values[s as usize]);
            values[self.out_slot[i] as usize] = word;
        }
    }

    /// Instruction `i`'s output word, with operand `pin` (reading slot
    /// `s`) fetched as `operand(pin, s)`: the one per-instruction body
    /// behind every evaluation entry point. Not/Buf read only operand 0.
    #[inline(always)]
    fn eval_instr(&self, i: usize, operand: impl Fn(usize, u32) -> u64) -> u64 {
        /// Folds `op` over the operand words. Binary gates dominate real
        /// netlists, so they skip the operand loop.
        #[inline(always)]
        fn fold(
            span: &[u32],
            operand: &impl Fn(usize, u32) -> u64,
            init: u64,
            op: impl Fn(u64, u64) -> u64,
        ) -> u64 {
            if let [x, y] = *span {
                return op(operand(0, x), operand(1, y));
            }
            span.iter()
                .enumerate()
                .fold(init, |acc, (pin, &s)| op(acc, operand(pin, s)))
        }
        let span =
            &self.operands[self.operand_start[i] as usize..self.operand_start[i + 1] as usize];
        match self.ops[i] {
            GateKind::And => fold(span, &operand, !0, |a, b| a & b),
            GateKind::Or => fold(span, &operand, 0, |a, b| a | b),
            GateKind::Xor => fold(span, &operand, 0, |a, b| a ^ b),
            GateKind::Nand => !fold(span, &operand, !0, |a, b| a & b),
            GateKind::Nor => !fold(span, &operand, 0, |a, b| a | b),
            GateKind::Xnor => !fold(span, &operand, 0, |a, b| a ^ b),
            GateKind::Not => !operand(0, span[0]),
            GateKind::Buf => operand(0, span[0]),
        }
    }

    /// The lanes in which flipping operand `pin` of instruction `i` alone
    /// flips its output, the other operands holding their words in
    /// `values`: the AND of the other operands for AND/NAND, their NOR for
    /// OR/NOR, and all ones for XOR/XNOR/NOT/BUF. A slot read on two pins
    /// is two operands, and only pin `pin` flips. This is the gate rule of
    /// critical-path tracing: a fault whose effect reaches a gate on one
    /// operand only passes it exactly in these lanes.
    ///
    /// # Panics
    ///
    /// Panics if `i >= instr_count()` or a buffer is shorter than
    /// `slot_count()` words.
    #[inline]
    pub fn sensitization(&self, values: &[u64], i: usize, pin: usize) -> u64 {
        let span =
            &self.operands[self.operand_start[i] as usize..self.operand_start[i + 1] as usize];
        // Folds `op` over the operands other than `pin`; binary gates read
        // the one other operand directly.
        let others = |init: u64, op: fn(u64, u64) -> u64| {
            if let [x, y] = *span {
                return values[if pin == 0 { y } else { x } as usize];
            }
            span.iter()
                .enumerate()
                .filter(|&(p, _)| p != pin)
                .fold(init, |acc, (_, &s)| op(acc, values[s as usize]))
        };
        match self.ops[i] {
            GateKind::And | GateKind::Nand => others(!0, |a, b| a & b),
            GateKind::Or | GateKind::Nor => !others(0, |a, b| a | b),
            GateKind::Xor | GateKind::Xnor | GateKind::Not | GateKind::Buf => !0,
        }
    }

    /// The output word of instruction `i` under `patch`, which targets
    /// it: the stuck word if the patch forces the output, otherwise `i`
    /// evaluated with the patch's operand override. The flag says whether
    /// the instruction was evaluated.
    fn patched_word(&self, values: &[u64], i: usize, patch: Patch) -> (u64, bool) {
        match patch {
            Patch::InstrOutput { word, .. } => (word, false),
            Patch::InstrPin { pin, word, .. } => {
                let word = self.eval_instr(i, |idx, s| {
                    if idx == pin as usize {
                        word
                    } else {
                        values[s as usize]
                    }
                });
                (word, true)
            }
            Patch::Slot { .. } => (self.eval_instr(i, |_, s| values[s as usize]), true),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;
    use crate::sim::PatternSim;

    fn adder4() -> Netlist {
        let mut b = NetlistBuilder::new("add4");
        let a = b.input_word("a", 4);
        let c = b.input_word("b", 4);
        let (s, co) = b.ripple_carry_adder(&a, &c, None);
        b.output_word("s", &s);
        b.output("co", co);
        b.finish().unwrap()
    }

    #[test]
    fn compiled_matches_interpreted_sim() {
        let nl = adder4();
        let prog = EvalProgram::compile(&nl).unwrap();
        assert_eq!(prog.instr_count(), nl.gate_count());
        assert_eq!(prog.slot_count(), nl.net_count());

        let words: Vec<u64> = (0..nl.input_width() as u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17))
            .collect();

        let mut sim = PatternSim::new(&nl);
        sim.set_inputs(&words);
        sim.eval_comb();

        let mut values = prog.new_values();
        prog.eval_good(&mut values, &words);
        for net in nl.net_ids() {
            assert_eq!(values[net.index()], sim.value(net), "net {net}");
        }
    }

    #[test]
    fn schedule_is_levelized() {
        let nl = adder4();
        let prog = EvalProgram::compile(&nl).unwrap();
        // Every operand produced by an instruction must come from an
        // earlier instruction.
        let mut produced_at = vec![usize::MAX; prog.slot_count()];
        for (pos, instr) in prog.instrs().enumerate() {
            for &op in instr.operands {
                let p = produced_at[op as usize];
                assert!(p == usize::MAX || p < pos, "operand produced late");
            }
            produced_at[instr.out as usize] = pos;
        }
    }

    #[test]
    fn const_prologue_applied_once() {
        let mut b = NetlistBuilder::new("c");
        let a = b.input("a");
        let one = b.const1();
        let y = b.and2(a, one);
        b.output("y", y);
        let nl = b.finish().unwrap();
        let prog = EvalProgram::compile(&nl).unwrap();
        assert_eq!(prog.const_inits().len(), 1);
        let mut values = prog.new_values();
        prog.eval_good(&mut values, &[0b10]);
        assert_eq!(values[nl.outputs()[0].index()] & 0b11, 0b10);
    }

    #[test]
    fn patch_net_forces_gate_output() {
        let nl = adder4();
        let prog = EvalProgram::compile(&nl).unwrap();
        let out = nl.outputs()[0];
        let patch = prog.patch_net(out, false);
        assert!(matches!(patch, Patch::InstrOutput { .. }));
        let words = vec![!0u64; nl.input_width()];
        let mut values = prog.new_values();
        prog.eval_patched(&mut values, &words, patch);
        assert_eq!(values[out.index()], 0);
    }

    #[test]
    fn patch_net_on_input_is_slot_patch() {
        let nl = adder4();
        let prog = EvalProgram::compile(&nl).unwrap();
        let pi = nl.inputs()[0];
        let patch = prog.patch_net(pi, true);
        assert_eq!(
            patch,
            Patch::Slot {
                slot: pi.index() as u32,
                word: !0u64
            }
        );
    }

    #[test]
    fn pin_patch_only_affects_one_reader() {
        // y0 = a AND b, y1 = a OR b share net a; a pin fault on the AND's
        // pin 0 must leave the OR untouched.
        let mut b = NetlistBuilder::new("shared");
        let a = b.input("a");
        let c = b.input("b");
        let y0 = b.and2(a, c);
        let y1 = b.or2(a, c);
        b.output("y0", y0);
        b.output("y1", y1);
        let nl = b.finish().unwrap();
        let prog = EvalProgram::compile(&nl).unwrap();

        let and_gate = nl
            .gate_ids()
            .find(|&g| nl.gate(g).kind == GateKind::And)
            .unwrap();
        let patch = prog.patch_pin(and_gate, 0, true); // pin a stuck-at-1
        let mut values = prog.new_values();
        // a=0, b=1 everywhere: good AND = 0, faulty AND = 1; OR stays 1.
        prog.eval_patched(&mut values, &[0, !0u64], patch);
        assert_eq!(values[nl.outputs()[0].index()], !0u64);
        assert_eq!(values[nl.outputs()[1].index()], !0u64);
        // Good machine for contrast.
        prog.eval_good(&mut values, &[0, !0u64]);
        assert_eq!(values[nl.outputs()[0].index()], 0);
    }

    #[test]
    fn const_slot_patch_self_heals() {
        let mut b = NetlistBuilder::new("c");
        let a = b.input("a");
        let one = b.const1();
        let y = b.and2(a, one);
        b.output("y", y);
        let nl = b.finish().unwrap();
        let prog = EvalProgram::compile(&nl).unwrap();
        let const_net = nl
            .net_ids()
            .find(|&n| matches!(nl.driver(n), NetDriver::Const(_)))
            .unwrap();
        let patch = prog.patch_net(const_net, false); // const-1 stuck-at-0
        let mut values = prog.new_values();
        prog.eval_patched(&mut values, &[!0u64], patch);
        assert_eq!(values[nl.outputs()[0].index()], 0, "fault masks the AND");
        // The next faulty evaluation with a *different* patch must see the
        // healed constant.
        let other = prog.patch_net(nl.outputs()[0], true);
        prog.eval_patched(&mut values, &[0], other);
        assert_eq!(values[const_net.index()], !0u64, "prologue re-applied");
    }

    #[test]
    fn clock_shifts_back_to_back_registers() {
        let mut b = NetlistBuilder::new("pipe2");
        let a = b.input("a");
        let r1 = b.register(&[a]);
        let r2 = b.register(&r1);
        b.output("o", r2[0]);
        let nl = b.finish().unwrap();
        let prog = EvalProgram::compile(&nl).unwrap();
        let mut values = prog.new_values();
        let mut capture = Vec::new();
        prog.eval_good(&mut values, &[!0u64]);
        prog.clock(&mut values, &mut capture);
        prog.eval_good(&mut values, &[!0u64]);
        assert_eq!(values[nl.outputs()[0].index()], 0, "one stage filled");
        prog.clock(&mut values, &mut capture);
        prog.eval_good(&mut values, &[!0u64]);
        assert_eq!(values[nl.outputs()[0].index()], !0u64, "two stages");
    }

    #[test]
    fn slot_read_mask_marks_dead_slots() {
        // y = a AND b is observed; z = a OR b is dead.
        let mut b = NetlistBuilder::new("dead");
        let a = b.input("a");
        let c = b.input("b");
        let y = b.and2(a, c);
        let z = b.or2(a, c);
        b.output("y", y);
        let nl = b.finish().unwrap();
        let prog = EvalProgram::compile(&nl).unwrap();
        let read = prog.slot_read_mask();
        assert!(read[a.index()] && read[c.index()], "PIs feed gates");
        assert!(read[y.index()], "observed output");
        assert!(!read[z.index()], "dead gate output is never read");
    }

    fn pattern_word(i: u64) -> u64 {
        i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17) ^ 0xA5A5
    }

    /// The patch that forces `slot` to `word`: an output patch on its
    /// writer, or a slot patch on a source.
    fn force(prog: &EvalProgram, slot: usize, word: u64) -> Patch {
        match prog.instr_of_slot(slot) {
            Some(instr) => Patch::InstrOutput {
                instr: instr as u32,
                word,
            },
            None => Patch::Slot {
                slot: slot as u32,
                word,
            },
        }
    }

    /// The whole-program oracle for [`EvalProgram::sweep`] on `good`'s
    /// inputs: the primary-output difference of
    /// [`EvalProgram::eval_patched`] with `slot` forced to `word`.
    fn whole_program_oracle(
        prog: &EvalProgram,
        good: &[u64],
        inputs: &[u64],
        slot: usize,
        word: u64,
    ) -> u64 {
        let mut whole = prog.new_values();
        prog.eval_patched(&mut whole, inputs, force(prog, slot, word));
        prog.output_slots()
            .iter()
            .fold(0, |d, &o| d | (good[o as usize] ^ whole[o as usize]))
    }

    /// The fanout cone of `slot`, found by a breadth-first walk of the
    /// readers, as `(first_word, words)` trimmed to the words it spans.
    fn bfs_cone(prog: &EvalProgram, slot: usize) -> (usize, Vec<u64>) {
        let mut words = vec![0u64; prog.instr_count().div_ceil(64)];
        let mut queue = std::collections::VecDeque::from([slot]);
        while let Some(s) = queue.pop_front() {
            for &(r, _) in prog.readers(s) {
                let (w, bit) = (r as usize / 64, 1u64 << (r % 64));
                if words[w] & bit == 0 {
                    words[w] |= bit;
                    queue.push_back(prog.instr(r as usize).out as usize);
                }
            }
        }
        let first = words.iter().position(|&w| w != 0).unwrap_or(0);
        let end = words.iter().rposition(|&w| w != 0).map_or(first, |w| w + 1);
        (first, words[first..end].to_vec())
    }

    /// The words each test forces a slot to: its good word flipped in
    /// every lane, stuck at 0, stuck at 1, and flipped in a pattern.
    fn forced_words(good: u64) -> [u64; 4] {
        [!good, 0, !0, good ^ pattern_word(good)]
    }

    fn shared_fanout() -> Netlist {
        // Shared fanout, a constant, reconvergence and an output that is
        // also read by a gate.
        let mut b = NetlistBuilder::new("events");
        let a = b.input("a");
        let c = b.input("b");
        let d = b.input("d");
        let one = b.const1();
        let y0 = b.and2(a, c);
        let y1 = b.or2(a, one);
        let y2 = b.gate(GateKind::Xor, &[y0, y1]);
        let y3 = b.gate(GateKind::Nand, &[y2, d, a]);
        let y4 = b.not(y0);
        b.output("y2", y2);
        b.output("y0", y0);
        b.output("y3", y3);
        b.output("y4", y4);
        b.finish().unwrap()
    }

    /// A 5×5 array multiplier: over 64 instructions, so cones span
    /// several words.
    fn multiplier5() -> Netlist {
        let mut b = NetlistBuilder::new("mul5");
        let a = b.input_word("a", 5);
        let c = b.input_word("b", 5);
        let p = b.array_multiplier(&a, &c, 10);
        b.output_word("p", &p);
        b.finish().unwrap()
    }

    /// A sweep of one slot forced to one word, run with a stop word.
    type Sweep<'a> = dyn FnMut(u64) -> (u64, u64, bool) + 'a;

    /// The fixtures every sweep test runs: they hold slots with no
    /// reader, a primary output that a gate also reads, and cones that
    /// span several words.
    fn sweep_fixtures() -> [Netlist; 3] {
        [adder4(), shared_fanout(), multiplier5()]
    }

    /// Sweeps every slot of `nl`, forced to each of [`forced_words`],
    /// through `check`, which gets the sweep to run with stop words of its
    /// choice, the oracle's difference and the cone's size. The faulty
    /// buffer must be back to the good values after each sweep.
    fn for_every_sweep(nl: &Netlist, mut check: impl FnMut(&str, &mut Sweep<'_>, u64, u64)) {
        let prog = EvalProgram::compile(nl).unwrap();
        let inputs: Vec<u64> = (0..prog.input_slots().len() as u64)
            .map(pattern_word)
            .collect();
        let mut good = prog.new_values();
        prog.eval_good(&mut good, &inputs);
        let mut faulty = good.clone();
        for slot in 0..prog.slot_count() {
            let (first_word, words) = bfs_cone(&prog, slot);
            let cone = Cone {
                first_word,
                words: &words,
            };
            let size = words.iter().map(|w| u64::from(w.count_ones())).sum();
            for word in forced_words(good[slot]) {
                let what = format!("{} slot {slot} forced to {word:#x}", nl.name());
                let diff = whole_program_oracle(&prog, &good, &inputs, slot, word);
                let mut sweep = |stop| {
                    let got = prog.sweep(&good, &mut faulty, slot, word, cone, stop);
                    assert!(faulty == good, "{what}: left the faulty buffer dirty");
                    got
                };
                check(&what, &mut sweep, diff, size);
            }
        }
    }

    #[test]
    fn sweep_matches_whole_program_from_every_slot() {
        for nl in sweep_fixtures() {
            for_every_sweep(&nl, |what, sweep, diff, size| {
                assert_eq!(sweep(!0), (diff, size, false), "{what}");
            });
        }
    }

    #[test]
    fn a_sweep_evaluates_its_whole_cone_where_the_difference_dies() {
        // y = a AND b feeds a chain of three inverters; b stuck-at-1
        // changes nothing while a = 0, yet no value is compared, so the
        // sweep evaluates all four instructions of b's cone.
        let mut b = NetlistBuilder::new("masked");
        let a = b.input("a");
        let c = b.input("b");
        let y = b.and2(a, c);
        let n1 = b.not(y);
        let n2 = b.not(n1);
        let n3 = b.not(n2);
        b.output("z", n3);
        let nl = b.finish().unwrap();
        let prog = EvalProgram::compile(&nl).unwrap();
        let (first_word, words) = bfs_cone(&prog, c.index());
        let cone = Cone {
            first_word,
            words: &words,
        };

        let mut good = prog.new_values();
        prog.eval_good(&mut good, &[0, 0]);
        let mut faulty = good.clone();
        let got = prog.sweep(&good, &mut faulty, c.index(), !0, cone, !0);
        assert_eq!(got, (0, 4, false), "masked at the AND");
        assert_eq!(faulty, good);

        // With a = 1 in the low 8 lanes the difference runs the chain.
        prog.eval_good(&mut good, &[0xFF, 0]);
        faulty.copy_from_slice(&good);
        let got = prog.sweep(&good, &mut faulty, c.index(), !0, cone, !0);
        assert_eq!(got, (0xFF, 4, false));
        assert_eq!(faulty, good);

        // A forced word equal to the good one still sweeps the cone.
        let (first_word, words) = bfs_cone(&prog, y.index());
        let cone = Cone {
            first_word,
            words: &words,
        };
        let got = prog.sweep(&good, &mut faulty, y.index(), good[y.index()], cone, !0);
        assert_eq!(got, (0, 3, false));
        assert_eq!(faulty, good);
    }

    #[test]
    fn sweep_stops_once_the_difference_covers_the_stop_word() {
        // Two outputs on one flipped input: `y` right behind it, `z` at
        // the end of an inverter chain. A stop word that `y` covers
        // returns before the chain; one that no output covers does not.
        let mut b = NetlistBuilder::new("two-depths");
        let a = b.input("a");
        let c = b.input("b");
        let y = b.gate(GateKind::Xor, &[a, c]);
        let n1 = b.not(a);
        let n2 = b.not(n1);
        let z = b.and2(n2, c);
        b.output("y", y);
        b.output("z", z);
        let nl = b.finish().unwrap();
        let prog = EvalProgram::compile(&nl).unwrap();
        let mut good = prog.new_values();
        prog.eval_good(&mut good, &[0, 0xF0]);
        let mut faulty = good.clone();
        let (first_word, words) = bfs_cone(&prog, a.index());
        let cone = Cone {
            first_word,
            words: &words,
        };
        // `a` flipped in the low byte: `y` differs there, `z` only where
        // `b` is 1 as well.
        let mut sweep = |stop| prog.sweep(&good, &mut faulty, a.index(), 0xFF, cone, stop);
        let whole = sweep(!0);
        assert_eq!(whole, (0xFF, 4, false));
        assert_eq!(sweep(0x01), (0xFF, 1, true), "stops after the XOR");
        // Lane 8 never differs: the call runs to the end.
        assert_eq!(sweep(0x100), whole);
        assert_eq!(faulty, good);
    }

    #[test]
    fn an_early_stop_returns_a_covering_subset_and_leaves_nothing_behind() {
        for nl in sweep_fixtures() {
            let mut stops = 0;
            for_every_sweep(&nl, |what, sweep, diff, size| {
                // A full sweep right after the previous slot's early stop:
                // a slot that stop left unrestored would show here.
                assert_eq!(sweep(!0), (diff, size, false), "{what}");
                if diff == 0 {
                    return;
                }
                // A stop word the difference never covers runs to the end.
                if diff != !0 {
                    assert_eq!(sweep(!diff), (diff, size, false), "{what}");
                }
                let lowest = diff & diff.wrapping_neg();
                let (got, work, stopped) = sweep(lowest);
                assert_eq!(got & lowest, lowest, "{what} stopped short");
                assert_eq!(got & !diff, 0, "{what} reported a lane that never differs");
                assert!(work <= size, "{what}");
                assert_eq!(stopped, work < size, "{what}");
                stops += usize::from(stopped);
            });
            assert!(stops > 0, "{}: no sweep stopped early", nl.name());
        }
    }

    #[test]
    fn sensitization_is_the_lanes_where_one_flipped_operand_flips_the_output() {
        // Every gate kind, a 3-input AND/OR/XOR, a repeated operand and a
        // constant operand, beside the multi-word multiplier.
        let mut b = NetlistBuilder::new("sens");
        let a = b.input("a");
        let c = b.input("b");
        let d = b.input("d");
        let zero = b.const0();
        let mut outs = vec![
            b.gate(GateKind::And, &[a, a]),
            b.gate(GateKind::Or, &[a, zero]),
        ];
        for kind in [GateKind::And, GateKind::Or, GateKind::Xor] {
            outs.push(b.gate(kind, &[a, c, d]));
        }
        for kind in [GateKind::Nand, GateKind::Nor, GateKind::Xnor] {
            outs.push(b.gate(kind, &[c, d]));
        }
        for kind in [GateKind::Not, GateKind::Buf] {
            outs.push(b.gate(kind, &[d]));
        }
        b.output_word("y", &outs);
        for nl in [b.finish().unwrap(), shared_fanout(), multiplier5()] {
            let prog = EvalProgram::compile(&nl).unwrap();
            let inputs: Vec<u64> = (0..prog.input_slots().len() as u64)
                .map(pattern_word)
                .collect();
            let mut values = prog.new_values();
            prog.eval_good(&mut values, &inputs);
            for i in 0..prog.instr_count() {
                let good = prog.eval_instr(i, |_, s| values[s as usize]);
                for pin in 0..prog.instr(i).operands.len() {
                    let flipped = prog.eval_instr(i, |p, s| {
                        let v = values[s as usize];
                        if p == pin {
                            !v
                        } else {
                            v
                        }
                    });
                    assert_eq!(
                        prog.sensitization(&values, i, pin),
                        good ^ flipped,
                        "{} instruction {i} pin {pin}",
                        nl.name()
                    );
                }
            }
        }
    }

    #[test]
    fn readers_index_every_operand_in_schedule_order() {
        let nl = shared_fanout();
        let prog = EvalProgram::compile(&nl).unwrap();
        let mut expect: Vec<Vec<(u32, u32)>> = vec![Vec::new(); prog.slot_count()];
        for (i, ins) in prog.instrs().enumerate() {
            for (pin, &s) in ins.operands.iter().enumerate() {
                expect[s as usize].push((i as u32, pin as u32));
            }
        }
        for (slot, want) in expect.iter().enumerate() {
            assert_eq!(prog.readers(slot), &want[..], "slot {slot}");
        }
    }

    #[test]
    fn readers_first_lists_every_slot_once_after_its_readers() {
        // An unread input and a constant beside the sweep fixtures.
        let mut b = NetlistBuilder::new("unread");
        let a = b.input("a");
        b.input("u");
        let one = b.const1();
        let y = b.and2(a, one);
        b.output("y", y);
        let unread = b.finish().unwrap();
        for nl in sweep_fixtures().into_iter().chain([unread]) {
            let prog = EvalProgram::compile(&nl).unwrap();
            let mut at = vec![None; prog.slot_count()];
            for (k, s) in prog.readers_first().enumerate() {
                assert!(at[s].is_none(), "{} lists slot {s} twice", nl.name());
                at[s] = Some(k);
            }
            for (s, &k) in at.iter().enumerate() {
                let k = k.unwrap_or_else(|| panic!("{} omits slot {s}", nl.name()));
                for &(r, _) in prog.readers(s) {
                    let out = prog.instr(r as usize).out as usize;
                    assert!(
                        at[out] < Some(k),
                        "{} lists slot {s} before its reader's output {out}",
                        nl.name()
                    );
                }
            }
        }
    }

    #[test]
    fn stems_follow_single_reader_non_output_nets() {
        let mut b = NetlistBuilder::new("ffr");
        let a = b.input("a");
        let c = b.input("b");
        let d = b.input("d");
        let g1 = b.and2(c, d); // sole reader g2: inner
        let g2 = b.or2(g1, a); // an output that g3 also reads: a stem
        let g3 = b.not(g2); // sole reader g4: inner
        let g4 = b.and2(g3, a); // read twice by g5: a stem
        let g5 = b.gate(GateKind::Xor, &[g4, g4, a]);
        let dead = b.not(c); // no reader: a stem
        b.output("g2", g2);
        b.output("g5", g5);
        b.output("d", d);
        let nl = b.finish().unwrap();
        let regions = EvalProgram::compile(&nl).unwrap().fanout_regions();
        let of = |n: NetId| regions.stem(n.index());
        assert_eq!(of(g1), g2.index());
        assert_eq!(of(c), c.index(), "read by g1 and the dead NOT");
        assert_eq!(of(d), d.index(), "a primary input that is an output");
        assert_eq!(of(a), a.index());
        assert_eq!(of(g2), g2.index());
        assert_eq!(of(g3), g4.index());
        assert_eq!(of(g4), g4.index());
        assert_eq!(of(g5), g5.index());
        assert_eq!(of(dead), dead.index());

        // Against a step-by-step walk on a multi-region circuit.
        let mut b = NetlistBuilder::new("mul4");
        let x = b.input_word("a", 4);
        let y = b.input_word("b", 4);
        let p = b.array_multiplier(&x, &y, 8);
        b.output_word("p", &p);
        let nl = b.finish().unwrap();
        let prog = EvalProgram::compile(&nl).unwrap();
        let regions = prog.fanout_regions();
        for slot in 0..prog.slot_count() {
            let mut net = slot;
            while let [(reader, _)] = *prog.readers(net) {
                if prog.is_output(net) {
                    break;
                }
                net = prog.instr(reader as usize).out as usize;
            }
            assert_eq!(regions.stem(slot), net, "slot {slot}");
        }
    }

    #[test]
    fn each_stem_cone_is_the_closure_of_its_readers_trimmed_to_its_words() {
        for nl in sweep_fixtures() {
            let prog = EvalProgram::compile(&nl).unwrap();
            let regions = prog.fanout_regions();
            let mut spanned = 0;
            for s in (0..prog.slot_count()).filter(|&s| regions.stem(s) == s) {
                let (first_word, words) = bfs_cone(&prog, s);
                let want = Cone {
                    first_word,
                    words: &words,
                };
                assert_eq!(regions.cone(s), want, "{} stem {s}", nl.name());
                spanned = spanned.max(words.len());
            }
            if nl.name() == "mul5" {
                assert!(spanned > 1, "no cone spans several words");
            }
        }
    }

    #[test]
    fn compile_reports_cycles() {
        use crate::netlist::{Gate, Net};
        // g0: y = AND(a, z); g1: z = OR(y, a) — a 2-gate cycle.
        let nets = vec![
            Net {
                name: Some("a".into()),
                driver: NetDriver::Input(0),
            },
            Net {
                name: Some("y".into()),
                driver: NetDriver::Gate(GateId::from_index(0)),
            },
            Net {
                name: Some("z".into()),
                driver: NetDriver::Gate(GateId::from_index(1)),
            },
        ];
        let gates = vec![
            Gate {
                kind: GateKind::And,
                inputs: vec![NetId::from_index(0), NetId::from_index(2)],
                output: NetId::from_index(1),
            },
            Gate {
                kind: GateKind::Or,
                inputs: vec![NetId::from_index(1), NetId::from_index(0)],
                output: NetId::from_index(2),
            },
        ];
        let nl = Netlist::from_parts_unchecked(
            "cyc".into(),
            nets,
            gates,
            Vec::new(),
            vec![NetId::from_index(0)],
            vec![NetId::from_index(1)],
        );
        assert!(matches!(
            EvalProgram::compile(&nl),
            Err(NetlistError::CombinationalCycle { .. })
        ));
    }
}
