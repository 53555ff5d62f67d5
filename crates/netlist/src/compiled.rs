//! Compiled flat evaluation IR: [`EvalProgram`] and fault [`Patch`]es.
//!
//! Every hot loop in the workspace — Table 2 coverage runs, exhaustive
//! `2^M - 1 + d` verification, parallel fault sharding — evaluates the same
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
//! * a per-level schedule ([`EvalProgram::level_ranges`]) recording which
//!   instruction ranges are mutually independent;
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
//!   buffer holding the good machine's values, only the instructions the
//!   fault's effect reaches ([`EvalProgram::eval_events`]).
//!
//! *Slots* are net indices: slot `i` of a one-word (`N = 1`) value buffer
//! holds the 64-lane word of net `NetId::from_index(i)`; an `N`-word buffer
//! holds `N` consecutive words per slot (64·N patterns per evaluation). This keeps the compiled engine
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
//! simulator's thread-count and lane-width equivalence contract therefore
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
//! let mut values = prog.new_values::<1>();
//! prog.eval_good::<1>(&mut values, &[0b0011, 0b0101]);
//! assert_eq!(values[nl.outputs()[0].index()] & 0b1111, 0b0001);
//!
//! // Faulty machine: force the AND output stuck-at-1 and re-run.
//! let patch = prog.patch_net(nl.outputs()[0], true);
//! prog.eval_patched::<1>(&mut values, &[0b0011, 0b0101], patch);
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
/// times over caller-owned value buffers (`&mut [u64]`, `N` 64-lane words
/// per slot) created by [`EvalProgram::new_values`]. The program itself is
/// immutable and [`Sync`]: one compiled program is shared by every worker
/// thread of the parallel fault simulator.
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
    /// Instruction ranges per level: all instructions inside one range
    /// depend only on earlier levels.
    levels: Vec<(u32, u32)>,
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

/// Reusable scratch for [`EvalProgram::eval_events`]: the pending
/// instructions (one bit each, scanned in schedule order) and the slots
/// the current evaluation wrote. Empty between calls; one queue serves
/// any program and grows on first use.
#[derive(Debug, Clone, Default)]
pub struct EventQueue {
    pending: Vec<u64>,
    /// One past the highest `pending` word ever set in this evaluation.
    end: usize,
    touched: Vec<u32>,
}

impl EventQueue {
    /// Marks instruction `instr` pending (idempotent).
    #[inline]
    fn schedule(&mut self, instr: u32) {
        let w = instr as usize / 64;
        self.pending[w] |= 1u64 << (instr % 64);
        self.end = self.end.max(w + 1);
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
        let mut start = 0u32;
        let levels = sched
            .chunk_by(|&a, &b| level[a as usize] == level[b as usize])
            .map(|run| {
                start += run.len() as u32;
                (start - run.len() as u32, start)
            })
            .collect();

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
            levels,
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

    /// [`EvalProgram::compile`] wrapped in a telemetry span: records a
    /// `compile` child span on `rec` whose wall clock is the compile time
    /// and whose counters carry the program's
    /// [`Instructions`](bibs_obs::CounterId::Instructions) and
    /// [`Slots`](bibs_obs::CounterId::Slots). A disabled recorder makes
    /// this identical to the plain entry point.
    ///
    /// # Errors
    ///
    /// Same as [`EvalProgram::compile`].
    pub fn compile_traced(
        netlist: &Netlist,
        rec: &mut bibs_obs::Recorder,
    ) -> Result<EvalProgram, NetlistError> {
        let span = rec.enter("compile");
        let result = Self::compile(netlist);
        if let Ok(p) = &result {
            rec.add(bibs_obs::CounterId::Instructions, p.instr_count() as u64);
            rec.add(bibs_obs::CounterId::Slots, p.slot_count() as u64);
        }
        rec.exit(span);
        result
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

    /// The levelized schedule: instruction ranges `(start, end)` per
    /// level. Instructions within one range are mutually independent.
    pub fn level_ranges(&self) -> &[(u32, u32)] {
        &self.levels
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
    /// [`EvalProgram::eval_events`] to schedule the instructions a changed
    /// value reaches. Primary-output and flip-flop-D reads are *not*
    /// included — see [`EvalProgram::output_slots`] /
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
    // Evaluation over stride-N value buffers.
    //
    // A value buffer stores N consecutive 64-lane words per slot: slot `s`
    // occupies `values[s * N .. (s + 1) * N]`, giving 64·N patterns per
    // evaluation; `N = 1` is the plain one-word-per-slot buffer. `N` is a
    // const generic, so each width compiles to its own kernel with the
    // inner `0..N` loops unrolled. Patch words are splatted to all N
    // sub-words — a stuck-at fault is stuck in every lane — so sub-word
    // `k` of every slot is bit-identical to an `N = 1` evaluation of input
    // word `k`, which is what the fault simulator's cross-width report
    // equivalence rests on.
    // ------------------------------------------------------------------

    /// A fresh value buffer (`N` words per slot): all slots zero, then
    /// the constant prologue.
    pub fn new_values<const N: usize>(&self) -> Vec<u64> {
        let mut values = vec![0u64; self.slot_count * N];
        self.apply_consts::<N>(&mut values);
        values
    }

    /// Applies the constant prologue to `values`, splatted into every
    /// sub-word. Needed after zeroing a buffer (e.g. a simulator reset);
    /// good-machine evaluation never calls this.
    pub fn apply_consts<const N: usize>(&self, values: &mut [u64]) {
        for &(slot, word) in &self.const_inits {
            let o = slot as usize * N;
            values[o..o + N].fill(word);
        }
    }

    /// Writes the primary-input words into their slots. The layout is
    /// input-contiguous: `inputs[i * N + k]` is 64-lane word `k` of
    /// primary input `i` (at `N = 1`, one word per input in declaration
    /// order).
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from `N ×` the input width.
    #[inline]
    pub fn set_inputs<const N: usize>(&self, values: &mut [u64], inputs: &[u64]) {
        assert_eq!(
            inputs.len(),
            self.input_slots.len() * N,
            "N words per primary input required"
        );
        for (&slot, words) in self.input_slots.iter().zip(inputs.chunks_exact(N)) {
            let o = slot as usize * N;
            values[o..o + N].copy_from_slice(words);
        }
    }

    /// Executes the full instruction stream over `values`.
    ///
    /// Sources (inputs, constants, flip-flop Q slots) are read as-is; set
    /// them first. Returns the lane-normalized gate-evaluation count
    /// (`instr_count · N`) for throughput accounting.
    #[inline]
    pub fn run<const N: usize>(&self, values: &mut [u64]) -> u64 {
        self.exec_range::<N>(values, 0, self.ops.len());
        (self.ops.len() * N) as u64
    }

    /// Good-machine evaluation: inputs, then the instruction stream.
    ///
    /// Constants are *not* re-applied — they are part of the buffer
    /// prologue ([`EvalProgram::new_values`]). Returns the lane-normalized
    /// gate-evaluation count.
    #[inline]
    pub fn eval_good<const N: usize>(&self, values: &mut [u64], inputs: &[u64]) -> u64 {
        self.set_inputs::<N>(values, inputs);
        self.run::<N>(values)
    }

    /// Faulty-machine evaluation: constant prologue, inputs, then the
    /// instruction stream with `patch` applied.
    ///
    /// Re-applying the (typically empty) constant prologue makes the buffer
    /// self-healing: a previous [`Patch::Slot`] on a constant slot is
    /// undone here, so one persistent faulty buffer serves every
    /// whole-program faulty run (the sequential simulator, the test
    /// oracles). The fault simulator's per-fault path is
    /// [`EvalProgram::eval_events`]. Returns the lane-normalized executed
    /// count.
    #[inline]
    pub fn eval_patched<const N: usize>(
        &self,
        values: &mut [u64],
        inputs: &[u64],
        patch: Patch,
    ) -> u64 {
        self.apply_consts::<N>(values);
        self.set_inputs::<N>(values, inputs);
        self.run_patched::<N>(values, patch)
    }

    /// Executes the instruction stream with `patch` applied (its stuck
    /// word splatted to all `N` sub-words). Sources must already be set.
    /// Returns the lane-normalized executed count.
    pub fn run_patched<const N: usize>(&self, values: &mut [u64], patch: Patch) -> u64 {
        let n = self.ops.len();
        let i = match patch {
            Patch::Slot { slot, word } => {
                let o = slot as usize * N;
                values[o..o + N].fill(word);
                return self.run::<N>(values);
            }
            Patch::InstrOutput { instr, .. } | Patch::InstrPin { instr, .. } => instr as usize,
        };
        self.exec_range::<N>(values, 0, i);
        let (word, evaluated) = self.patched_word::<N>(values, i, patch);
        let o = self.out_slot[i] as usize * N;
        values[o..o + N].copy_from_slice(&word);
        self.exec_range::<N>(values, i + 1, n);
        ((n - 1 + usize::from(evaluated)) * N) as u64
    }

    /// Event-driven faulty-machine evaluation: runs the faulty machine of
    /// `patch` only where it differs from the good machine, and returns
    /// its primary-output difference.
    ///
    /// `good` holds the good machine's stride-`N` values for the current
    /// inputs ([`EvalProgram::eval_good`]); `faulty` must equal `good` on
    /// entry, and equals it again on return. The call forces the patch
    /// site, then evaluates pending instructions in schedule order. An
    /// instruction is pending when it is patched or reads a slot whose
    /// `N`-word value differs from the good machine's, so each runs at
    /// most once (readers follow their operands' writers) and the call
    /// stops when nothing is pending. It then restores every slot it
    /// wrote from `good`.
    ///
    /// Returns `(diff, gate_evals)`: `diff[k]` is the OR of
    /// `good ^ faulty` over the primary outputs in sub-word `k`, equal to
    /// what [`EvalProgram::eval_patched`] followed by a comparison of
    /// every output would give; `gate_evals` is the lane-normalized count
    /// of instructions actually evaluated (a forced output is not
    /// evaluated). `queue` is scratch and is empty again on return.
    ///
    /// # Panics
    ///
    /// Panics if a buffer is shorter than `N × slot_count()` words.
    pub fn eval_events<const N: usize>(
        &self,
        good: &[u64],
        faulty: &mut [u64],
        patch: Patch,
        queue: &mut EventQueue,
    ) -> ([u64; N], u64) {
        let words = self.ops.len().div_ceil(64);
        if queue.pending.len() < words {
            queue.pending.resize(words, 0);
        }
        let mut diff = [0u64; N];
        // The instruction the patch overrides; a source-slot patch is
        // forced here and overrides none.
        let patched = match patch {
            Patch::Slot { slot, word } => {
                debug_assert_eq!(self.instr_of_slot[slot as usize], NO_INSTR);
                let s = slot as usize;
                if self.settle::<N>(s, [word; N], good, faulty, queue, &mut diff) {
                    for &(r, _) in self.readers(s) {
                        queue.schedule(r);
                    }
                }
                usize::MAX
            }
            Patch::InstrOutput { instr, .. } | Patch::InstrPin { instr, .. } => {
                queue.schedule(instr);
                instr as usize
            }
        };
        let mut evaluated = 0usize;
        let mut w = 0usize;
        while w < queue.end {
            // The word being scanned stays in a register: readers that
            // fall in it (always at higher bits) join `bits` directly.
            let mut bits = std::mem::take(&mut queue.pending[w]);
            while bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let word = if i == patched {
                    let (word, ran) = self.patched_word::<N>(faulty, i, patch);
                    evaluated += usize::from(ran);
                    word
                } else {
                    evaluated += 1;
                    self.eval_instr::<N>(i, |_, s| load::<N>(faulty, s))
                };
                let out = self.out_slot[i] as usize;
                if self.settle::<N>(out, word, good, faulty, queue, &mut diff) {
                    for &(r, _) in self.readers(out) {
                        if r as usize / 64 == w {
                            bits |= 1 << (r % 64);
                        } else {
                            queue.schedule(r);
                        }
                    }
                }
            }
            w += 1;
        }
        for &s in &queue.touched {
            let o = s as usize * N;
            faulty[o..o + N].copy_from_slice(&good[o..o + N]);
        }
        queue.touched.clear();
        queue.end = 0;
        (diff, (evaluated * N) as u64)
    }

    /// Settles `slot` at `word` during [`EvalProgram::eval_events`]: a
    /// value equal to the good machine's is dropped; a differing one is
    /// written, recorded for restoration and folded into `diff` if the
    /// slot is a primary output. Returns whether the value differs, i.e.
    /// whether the slot's readers must be scheduled.
    #[inline(always)]
    fn settle<const N: usize>(
        &self,
        slot: usize,
        word: [u64; N],
        good: &[u64],
        faulty: &mut [u64],
        queue: &mut EventQueue,
        diff: &mut [u64; N],
    ) -> bool {
        let g = load::<N>(good, slot as u32);
        if g == word {
            return false;
        }
        let o = slot * N;
        faulty[o..o + N].copy_from_slice(&word);
        queue.touched.push(slot as u32);
        if self.is_output[slot] {
            for ((d, gw), fw) in diff.iter_mut().zip(g).zip(word) {
                *d |= gw ^ fw;
            }
        }
        true
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

    /// Executes instructions `from..to` over a stride-`N` buffer.
    #[inline]
    fn exec_range<const N: usize>(&self, values: &mut [u64], from: usize, to: usize) {
        for i in from..to {
            let acc = self.eval_instr::<N>(i, |_, s| load::<N>(values, s));
            let o = self.out_slot[i] as usize * N;
            values[o..o + N].copy_from_slice(&acc);
        }
    }

    /// Instruction `i`'s output word, with operand `pin` (reading slot
    /// `s`) fetched as `operand(pin, s)`: the one per-instruction body
    /// behind every evaluation entry point. The gate kind is matched once
    /// per instruction, outside the `0..N` lane loops; Not/Buf read only
    /// operand 0.
    #[inline(always)]
    fn eval_instr<const N: usize>(
        &self,
        i: usize,
        operand: impl Fn(usize, u32) -> [u64; N],
    ) -> [u64; N] {
        /// Folds `op` over the operand words, lane by lane. Binary gates
        /// dominate real netlists, so they skip the operand loop.
        #[inline(always)]
        fn fold<const N: usize>(
            span: &[u32],
            operand: &impl Fn(usize, u32) -> [u64; N],
            init: u64,
            op: impl Fn(u64, u64) -> u64,
        ) -> [u64; N] {
            if let [x, y] = *span {
                let (a, b) = (operand(0, x), operand(1, y));
                return std::array::from_fn(|k| op(a[k], b[k]));
            }
            let mut acc = [init; N];
            for (pin, &s) in span.iter().enumerate() {
                for (w, v) in acc.iter_mut().zip(operand(pin, s)) {
                    *w = op(*w, v);
                }
            }
            acc
        }
        let span =
            &self.operands[self.operand_start[i] as usize..self.operand_start[i + 1] as usize];
        match self.ops[i] {
            GateKind::And => fold(span, &operand, !0, |a, b| a & b),
            GateKind::Or => fold(span, &operand, 0, |a, b| a | b),
            GateKind::Xor => fold(span, &operand, 0, |a, b| a ^ b),
            GateKind::Nand => fold(span, &operand, !0, |a, b| a & b).map(|w| !w),
            GateKind::Nor => fold(span, &operand, 0, |a, b| a | b).map(|w| !w),
            GateKind::Xnor => fold(span, &operand, 0, |a, b| a ^ b).map(|w| !w),
            GateKind::Not => operand(0, span[0]).map(|w| !w),
            GateKind::Buf => operand(0, span[0]),
        }
    }

    /// The output word of instruction `i` under `patch`, which targets
    /// it: the stuck word if the patch forces the output, otherwise `i`
    /// evaluated with the patch's operand override. The flag says whether
    /// the instruction was evaluated.
    fn patched_word<const N: usize>(
        &self,
        values: &[u64],
        i: usize,
        patch: Patch,
    ) -> ([u64; N], bool) {
        match patch {
            Patch::InstrOutput { word, .. } => ([word; N], false),
            Patch::InstrPin { pin, word, .. } => {
                let word = self.eval_instr::<N>(i, |idx, s| {
                    if idx == pin as usize {
                        [word; N]
                    } else {
                        load::<N>(values, s)
                    }
                });
                (word, true)
            }
            Patch::Slot { .. } => (self.eval_instr::<N>(i, |_, s| load::<N>(values, s)), true),
        }
    }
}

/// Slot `s`'s `N` words of a stride-`N` buffer.
#[inline(always)]
fn load<const N: usize>(values: &[u64], s: u32) -> [u64; N] {
    let a = s as usize * N;
    let xs = &values[a..a + N];
    std::array::from_fn(|k| xs[k])
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

        let mut values = prog.new_values::<1>();
        prog.eval_good::<1>(&mut values, &words);
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
        // Level ranges tile the instruction stream.
        let ranges = prog.level_ranges();
        assert_eq!(ranges.first().map(|r| r.0), Some(0));
        assert_eq!(ranges.last().map(|r| r.1), Some(prog.instr_count() as u32));
        for w in ranges.windows(2) {
            assert_eq!(w[0].1, w[1].0, "ranges must be contiguous");
            assert!(w[0].0 < w[0].1, "ranges must be non-empty");
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
        let mut values = prog.new_values::<1>();
        prog.eval_good::<1>(&mut values, &[0b10]);
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
        let mut values = prog.new_values::<1>();
        prog.eval_patched::<1>(&mut values, &words, patch);
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
        let mut values = prog.new_values::<1>();
        // a=0, b=1 everywhere: good AND = 0, faulty AND = 1; OR stays 1.
        prog.eval_patched::<1>(&mut values, &[0, !0u64], patch);
        assert_eq!(values[nl.outputs()[0].index()], !0u64);
        assert_eq!(values[nl.outputs()[1].index()], !0u64);
        // Good machine for contrast.
        prog.eval_good::<1>(&mut values, &[0, !0u64]);
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
        let mut values = prog.new_values::<1>();
        prog.eval_patched::<1>(&mut values, &[!0u64], patch);
        assert_eq!(values[nl.outputs()[0].index()], 0, "fault masks the AND");
        // The next faulty evaluation with a *different* patch must see the
        // healed constant.
        let other = prog.patch_net(nl.outputs()[0], true);
        prog.eval_patched::<1>(&mut values, &[0], other);
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
        let mut values = prog.new_values::<1>();
        let mut capture = Vec::new();
        prog.eval_good::<1>(&mut values, &[!0u64]);
        prog.clock(&mut values, &mut capture);
        prog.eval_good::<1>(&mut values, &[!0u64]);
        assert_eq!(values[nl.outputs()[0].index()], 0, "one stage filled");
        prog.clock(&mut values, &mut capture);
        prog.eval_good::<1>(&mut values, &[!0u64]);
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

    fn scalar_words<const N: usize>(chunks: &[u64], width: usize, k: usize) -> Vec<u64> {
        (0..width).map(|i| chunks[i * N + k]).collect()
    }

    #[test]
    fn wide_good_eval_matches_scalar_per_subword() {
        let nl = adder4();
        let prog = EvalProgram::compile(&nl).unwrap();
        const N: usize = 4;
        let width = nl.input_width();
        let chunks: Vec<u64> = (0..(width * N) as u64).map(pattern_word).collect();
        let mut wide = prog.new_values::<N>();
        let wide_evals = prog.eval_good::<N>(&mut wide, &chunks);
        let mut scalar = prog.new_values::<1>();
        for k in 0..N {
            let evals = prog.eval_good::<1>(&mut scalar, &scalar_words::<N>(&chunks, width, k));
            assert_eq!(wide_evals, evals * N as u64, "lane-normalized count");
            for s in 0..prog.slot_count() {
                assert_eq!(wide[s * N + k], scalar[s], "slot {s} sub-word {k}");
            }
        }
    }

    #[test]
    fn wide_patched_eval_matches_scalar_per_subword() {
        // Exercise all three patch kinds on a circuit with shared fanout
        // and a constant.
        let mut b = NetlistBuilder::new("widepatch");
        let a = b.input("a");
        let c = b.input("b");
        let one = b.const1();
        let y0 = b.and2(a, c);
        let y1 = b.or2(a, one);
        let y2 = b.gate(GateKind::Xor, &[y0, y1]);
        b.output("y2", y2);
        b.output("y0", y0);
        let nl = b.finish().unwrap();
        let prog = EvalProgram::compile(&nl).unwrap();
        const N: usize = 8;
        let width = nl.input_width();
        let chunks: Vec<u64> = (0..(width * N) as u64).map(pattern_word).collect();

        let and_gate = nl
            .gate_ids()
            .find(|&g| nl.gate(g).kind == GateKind::And)
            .unwrap();
        let patches = [
            prog.patch_net(a, true),
            prog.patch_net(y1, false),
            prog.patch_pin(and_gate, 1, false),
        ];
        let mut wide = prog.new_values::<N>();
        let mut scalar = prog.new_values::<1>();
        for patch in patches {
            let wide_evals = prog.eval_patched::<N>(&mut wide, &chunks, patch);
            for k in 0..N {
                let evals = prog.eval_patched::<1>(
                    &mut scalar,
                    &scalar_words::<N>(&chunks, width, k),
                    patch,
                );
                assert_eq!(wide_evals, evals * N as u64, "{patch:?}");
                for s in 0..prog.slot_count() {
                    assert_eq!(wide[s * N + k], scalar[s], "{patch:?} slot {s} word {k}");
                }
            }
        }
    }

    #[test]
    fn wide_buffer_self_heals_const_slots() {
        let mut b = NetlistBuilder::new("c");
        let a = b.input("a");
        let one = b.const1();
        let y = b.and2(a, one);
        b.output("y", y);
        let nl = b.finish().unwrap();
        let prog = EvalProgram::compile(&nl).unwrap();
        const N: usize = 4;
        let const_net = nl
            .net_ids()
            .find(|&n| matches!(nl.driver(n), NetDriver::Const(_)))
            .unwrap();
        let chunks = [!0u64; N];
        let mut wide = prog.new_values::<N>();
        prog.eval_patched::<N>(&mut wide, &chunks, prog.patch_net(const_net, false));
        let o = nl.outputs()[0].index() * N;
        assert!(
            wide[o..o + N].iter().all(|&w| w == 0),
            "fault masks the AND"
        );
        prog.eval_patched::<N>(&mut wide, &chunks, prog.patch_net(nl.outputs()[0], true));
        let c = const_net.index() * N;
        assert!(
            wide[c..c + N].iter().all(|&w| w == !0u64),
            "prologue healed"
        );
    }

    /// The whole-program oracle for [`EvalProgram::eval_events`] on
    /// `good`'s inputs: the primary-output difference of
    /// [`EvalProgram::eval_patched`], and the lane-normalized count of
    /// instructions an event-driven run must evaluate — every one not
    /// output-forced that is pin-patched or reads a slot whose faulty
    /// value differs from the good one.
    fn whole_program_oracle<const N: usize>(
        prog: &EvalProgram,
        good: &[u64],
        inputs: &[u64],
        patch: Patch,
    ) -> ([u64; N], u64) {
        let mut whole = prog.new_values::<N>();
        prog.eval_patched::<N>(&mut whole, inputs, patch);
        let differs = |s: u32| {
            let a = s as usize * N;
            good[a..a + N] != whole[a..a + N]
        };
        let mut diff = [0u64; N];
        for &o in prog.output_slots() {
            for (k, d) in diff.iter_mut().enumerate() {
                *d |= good[o as usize * N + k] ^ whole[o as usize * N + k];
            }
        }
        let patched = |i: usize, forced: bool| match patch {
            Patch::InstrOutput { instr, .. } => forced && instr as usize == i,
            Patch::InstrPin { instr, .. } => !forced && instr as usize == i,
            Patch::Slot { .. } => false,
        };
        let evaluated = (0..prog.instr_count())
            .filter(|&i| {
                !patched(i, true)
                    && (patched(i, false) || prog.instr(i).operands.iter().any(|&s| differs(s)))
            })
            .count();
        (diff, (evaluated * N) as u64)
    }

    /// Checks every patch in `patches` through `eval_events` at width `N`
    /// against the whole-program oracle — the difference word and the
    /// exact work — and that the faulty buffer is back to the good values
    /// after each call.
    fn assert_events_match<const N: usize>(prog: &EvalProgram, patches: &[Patch]) {
        let width = prog.input_slots().len();
        let chunks: Vec<u64> = (0..(width * N) as u64).map(pattern_word).collect();
        let mut good = prog.new_values::<N>();
        prog.eval_good::<N>(&mut good, &chunks);
        let mut faulty = good.clone();
        let mut queue = EventQueue::default();
        for &patch in patches {
            let want = whole_program_oracle::<N>(prog, &good, &chunks, patch);
            let got = prog.eval_events::<N>(&good, &mut faulty, patch, &mut queue);
            assert_eq!(got, want, "{patch:?} at N = {N}");
            assert!(faulty == good, "{patch:?} left the faulty buffer dirty");
        }
    }

    /// Every single stuck-at patch of `nl`: both polarities of every
    /// net stem and every gate pin.
    fn all_single_patches(nl: &Netlist, prog: &EvalProgram) -> Vec<Patch> {
        let mut patches = Vec::new();
        for stuck in [false, true] {
            for net in nl.net_ids() {
                patches.push(prog.patch_net(net, stuck));
            }
            for g in nl.gate_ids() {
                for pin in 0..nl.gate(g).inputs.len() {
                    patches.push(prog.patch_pin(g, pin, stuck));
                }
            }
        }
        patches
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

    /// A 5×5 array multiplier: over 64 instructions, so the pending
    /// bitset spans several words.
    fn multiplier5() -> Netlist {
        let mut b = NetlistBuilder::new("mul5");
        let a = b.input_word("a", 5);
        let c = b.input_word("b", 5);
        let p = b.array_multiplier(&a, &c, 10);
        b.output_word("p", &p);
        b.finish().unwrap()
    }

    #[test]
    fn eval_events_matches_whole_program_for_every_single_fault() {
        for nl in [adder4(), shared_fanout(), multiplier5()] {
            let prog = EvalProgram::compile(&nl).unwrap();
            let patches = all_single_patches(&nl, &prog);
            assert_events_match::<1>(&prog, &patches);
            assert_events_match::<4>(&prog, &patches);
            assert_events_match::<8>(&prog, &patches);
        }
    }

    #[test]
    fn eval_events_stops_where_the_difference_dies() {
        // y = a AND b feeds a chain of three inverters; b stuck-at-1
        // changes nothing while a = 0, so only the AND is evaluated.
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
        let mut queue = EventQueue::default();
        let patch = prog.patch_net(c, true);

        let mut good = prog.new_values::<1>();
        prog.eval_good::<1>(&mut good, &[0, 0]);
        let mut faulty = good.clone();
        let (diff, evals) = prog.eval_events::<1>(&good, &mut faulty, patch, &mut queue);
        assert_eq!((diff, evals), ([0], 1), "masked at the AND");
        assert_eq!(faulty, good);

        // With a = 1 in the low 8 lanes the difference runs the chain.
        prog.eval_good::<1>(&mut good, &[0xFF, 0]);
        faulty.copy_from_slice(&good);
        let (diff, evals) = prog.eval_events::<1>(&good, &mut faulty, patch, &mut queue);
        assert_eq!((diff, evals), ([0xFF], 4));
        assert_eq!(faulty, good);

        // A forced output equal to the good value evaluates nothing.
        let quiet = prog.patch_net(y, false);
        let (diff, evals) = prog.eval_events::<1>(&good, &mut faulty, quiet, &mut queue);
        assert_eq!((diff, evals), ([0], 0));
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
