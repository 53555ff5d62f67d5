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
//! * **fault patch-points**: for any net or gate pin, a [`Patch`] that
//!   forces the corresponding slot, instruction output, or instruction
//!   operand to a stuck value. Faulty-machine evaluation is "run the same
//!   program with one patch applied", not a second bespoke interpreter.
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
/// sources (inputs, constants, flip-flop Q) rather than gate outputs. The
/// optimizer (`crate::opt`) reuses it as the "instruction removed" marker in
/// rewrite maps.
pub(crate) const NO_INSTR: u32 = u32::MAX;

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
    pub(crate) ops: Vec<GateKind>,
    /// Operand span starts; span of instruction `i` is
    /// `operand_start[i]..operand_start[i + 1]` (length `instr_count + 1`).
    pub(crate) operand_start: Vec<u32>,
    /// Shared operand arena: slot indices, grouped per instruction.
    pub(crate) operands: Vec<u32>,
    /// Output slot per instruction.
    pub(crate) out_slot: Vec<u32>,
    /// Instruction ranges per level: all instructions inside one range
    /// depend only on earlier levels.
    pub(crate) levels: Vec<(u32, u32)>,
    /// Gate → instruction position.
    pub(crate) instr_of_gate: Vec<u32>,
    /// Instruction position → source gate.
    pub(crate) gate_of_instr: Vec<GateId>,
    /// Slot → instruction writing it, or [`NO_INSTR`] for source slots.
    pub(crate) instr_of_slot: Vec<u32>,
    /// Primary-input slots in declaration order.
    pub(crate) input_slots: Vec<u32>,
    /// Constant prologue: `(slot, word)` pairs applied once per buffer.
    pub(crate) const_inits: Vec<(u32, u64)>,
    /// Flip-flop `(q, d)` slot pairs, in [`Netlist::dffs`] order.
    pub(crate) dff_slots: Vec<(u32, u32)>,
    /// Primary-output slots in declaration order.
    pub(crate) output_slots: Vec<u32>,
    /// Number of value-buffer slots (= net count).
    pub(crate) slot_count: usize,
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
        let mut operands = Vec::new();
        let mut out_slot = Vec::with_capacity(gate_count);
        let mut instr_of_gate = vec![NO_INSTR; gate_count];
        let mut gate_of_instr = Vec::with_capacity(gate_count);
        let mut instr_of_slot = vec![NO_INSTR; slot_count];
        let mut levels: Vec<(u32, u32)> = Vec::new();

        operand_start.push(0u32);
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
            if level[g as usize] as usize + 1 == levels.len() {
                levels.last_mut().expect("non-empty").1 += 1;
            } else {
                levels.push((pos as u32, pos as u32 + 1));
            }
        }

        let input_slots = netlist.inputs().iter().map(|n| n.index() as u32).collect();
        let mut const_inits = Vec::new();
        for net in netlist.net_ids() {
            if let NetDriver::Const(v) = netlist.driver(net) {
                const_inits.push((net.index() as u32, if v { !0u64 } else { 0 }));
            }
        }
        let dff_slots = netlist
            .dffs()
            .iter()
            .map(|ff| (ff.q.index() as u32, ff.d.index() as u32))
            .collect();
        let output_slots = netlist.outputs().iter().map(|n| n.index() as u32).collect();

        Ok(EvalProgram {
            ops,
            operand_start,
            operands,
            out_slot,
            levels,
            instr_of_gate,
            gate_of_instr,
            instr_of_slot,
            input_slots,
            const_inits,
            dff_slots,
            output_slots,
            slot_count,
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

    /// Per-slot operand occurrences: for each slot, the `(instruction,
    /// pin)` pairs that read it as a gate operand, in schedule order.
    ///
    /// This is the reader-side dual of [`EvalProgram::instr_of_slot`]:
    /// analysis passes use it to count fanout branches and to enumerate
    /// the observation paths of a net without re-walking the [`Netlist`].
    /// Primary-output and flip-flop-D reads are *not* included — see
    /// [`EvalProgram::output_slots`] / [`EvalProgram::dff_slots`].
    pub fn slot_readers(&self) -> Vec<Vec<(u32, u32)>> {
        let mut readers: Vec<Vec<(u32, u32)>> = vec![Vec::new(); self.slot_count];
        for i in 0..self.instr_count() {
            let start = self.operand_start[i] as usize;
            let end = self.operand_start[i + 1] as usize;
            for (pin, &s) in self.operands[start..end].iter().enumerate() {
                readers[s as usize].push((i as u32, pin as u32));
            }
        }
        readers
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
    /// undone here, so one persistent faulty buffer serves every fault in a
    /// run. Returns the lane-normalized executed count.
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
    #[inline]
    pub fn run_patched<const N: usize>(&self, values: &mut [u64], patch: Patch) -> u64 {
        let n = self.ops.len();
        let executed = match patch {
            Patch::Slot { slot, word } => {
                let o = slot as usize * N;
                values[o..o + N].fill(word);
                self.exec_range::<N>(values, 0, n);
                n
            }
            Patch::InstrOutput { instr, word } => {
                let i = instr as usize;
                self.exec_range::<N>(values, 0, i);
                let o = self.out_slot[i] as usize * N;
                values[o..o + N].fill(word);
                self.exec_range::<N>(values, i + 1, n);
                n - 1
            }
            Patch::InstrPin { instr, .. } => {
                let i = instr as usize;
                self.exec_range::<N>(values, 0, i);
                let word = self.eval_pinned::<N>(values, i, std::slice::from_ref(&patch));
                let o = self.out_slot[i] as usize * N;
                values[o..o + N].copy_from_slice(&word);
                self.exec_range::<N>(values, i + 1, n);
                n
            }
        };
        (executed * N) as u64
    }

    /// Faulty-machine evaluation with *several* patch-points applied at
    /// once: constant prologue, inputs, then
    /// [`EvalProgram::run_multi_patched`].
    ///
    /// This is the evaluation entry the optimizer's fault remapping needs:
    /// a single stuck-at fault on a net that a rewrite erased (a forwarded
    /// buffer, a merged duplicate cone) is equivalent to forcing the stuck
    /// value onto every surviving reader pin — a *set* of patches on the
    /// optimized program. An empty `patches` slice is a plain good-machine
    /// evaluation. Returns the lane-normalized executed count.
    ///
    /// Instruction-indexed patches must be sorted by ascending instruction;
    /// [`Patch::Slot`] entries may appear anywhere in the slice.
    #[inline]
    pub fn eval_multi_patched<const N: usize>(
        &self,
        values: &mut [u64],
        inputs: &[u64],
        patches: &[Patch],
    ) -> u64 {
        self.apply_consts::<N>(values);
        self.set_inputs::<N>(values, inputs);
        self.run_multi_patched::<N>(values, patches)
    }

    /// Executes the instruction stream with every patch in `patches`
    /// applied (stuck words splatted). Sources must already be set;
    /// instruction-indexed patches must be sorted by ascending instruction
    /// position ([`Patch::Slot`] entries may appear anywhere). Several
    /// [`Patch::InstrPin`] entries may target distinct pins of the same
    /// instruction; a [`Patch::InstrOutput`] on an instruction supersedes
    /// pin patches on it. Returns the lane-normalized executed count.
    pub fn run_multi_patched<const N: usize>(&self, values: &mut [u64], patches: &[Patch]) -> u64 {
        let n = self.ops.len();
        for p in patches {
            if let Patch::Slot { slot, word } = *p {
                let o = slot as usize * N;
                values[o..o + N].fill(word);
            }
        }
        let mut executed = 0usize;
        let mut cursor = 0usize;
        let mut k = 0usize;
        while k < patches.len() {
            let (i, forced_out) = match patches[k] {
                Patch::Slot { .. } => {
                    k += 1;
                    continue;
                }
                Patch::InstrOutput { instr, word } => (instr as usize, Some(word)),
                Patch::InstrPin { instr, .. } => (instr as usize, None),
            };
            debug_assert!(i >= cursor, "instruction patches must be sorted");
            self.exec_range::<N>(values, cursor, i);
            executed += i - cursor;
            let o = self.out_slot[i] as usize * N;
            if let Some(word) = forced_out {
                values[o..o + N].fill(word);
                k += 1;
            } else {
                let first = k;
                while k < patches.len()
                    && matches!(patches[k], Patch::InstrPin { instr, .. } if instr as usize == i)
                {
                    k += 1;
                }
                let word = self.eval_pinned::<N>(values, i, &patches[first..k]);
                values[o..o + N].copy_from_slice(&word);
                executed += 1;
            }
            // Swallow any remaining patches on the same instruction (a
            // forced output makes pin patches on it moot).
            while k < patches.len()
                && matches!(patches[k], Patch::InstrPin { instr, .. } | Patch::InstrOutput { instr, .. } if instr as usize == i)
            {
                k += 1;
            }
            cursor = i + 1;
        }
        self.exec_range::<N>(values, cursor, n);
        executed += n - cursor;
        (executed * N) as u64
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

    /// Executes instructions `from..to` over a stride-`N` buffer. The
    /// gate kind is matched once per instruction, outside the `0..N` lane
    /// loops; Not/Buf read only operand 0.
    #[inline]
    fn exec_range<const N: usize>(&self, values: &mut [u64], from: usize, to: usize) {
        /// Folds `op` over the operand words, lane by lane. Binary gates
        /// dominate real netlists, so they skip the operand loop.
        #[inline(always)]
        fn fold<const N: usize>(
            values: &[u64],
            span: &[u32],
            init: u64,
            op: impl Fn(u64, u64) -> u64,
        ) -> [u64; N] {
            if let [x, y] = *span {
                let (x, y) = (x as usize * N, y as usize * N);
                let (xs, ys) = (&values[x..x + N], &values[y..y + N]);
                return std::array::from_fn(|k| op(xs[k], ys[k]));
            }
            let mut acc = [init; N];
            for &s in span {
                let a = s as usize * N;
                for (w, &v) in acc.iter_mut().zip(&values[a..a + N]) {
                    *w = op(*w, v);
                }
            }
            acc
        }
        for i in from..to {
            let start = self.operand_start[i] as usize;
            let end = self.operand_start[i + 1] as usize;
            let span = &self.operands[start..end];
            let word = |s: u32| {
                let a = s as usize * N;
                let xs = &values[a..a + N];
                std::array::from_fn::<u64, N, _>(|k| xs[k])
            };
            let acc: [u64; N] = match self.ops[i] {
                GateKind::And => fold(values, span, !0, |a, b| a & b),
                GateKind::Or => fold(values, span, 0, |a, b| a | b),
                GateKind::Xor => fold(values, span, 0, |a, b| a ^ b),
                GateKind::Nand => fold(values, span, !0, |a, b| a & b).map(|w| !w),
                GateKind::Nor => fold(values, span, 0, |a, b| a | b).map(|w| !w),
                GateKind::Xnor => fold(values, span, 0, |a, b| a ^ b).map(|w| !w),
                GateKind::Not => word(span[0]).map(|w| !w),
                GateKind::Buf => word(span[0]),
            };
            let o = self.out_slot[i] as usize * N;
            values[o..o + N].copy_from_slice(&acc);
        }
    }

    /// Evaluates instruction `i` with every pin named in `pins` (a run of
    /// [`Patch::InstrPin`] entries on `i`) overridden by its splatted
    /// stuck word.
    fn eval_pinned<const N: usize>(&self, values: &[u64], i: usize, pins: &[Patch]) -> [u64; N] {
        let start = self.operand_start[i] as usize;
        let end = self.operand_start[i + 1] as usize;
        let operand = |idx: usize| -> [u64; N] {
            for p in pins {
                if let Patch::InstrPin { pin, word, .. } = *p {
                    if pin as usize == idx {
                        return [word; N];
                    }
                }
            }
            let a = self.operands[start + idx] as usize * N;
            let mut w = [0u64; N];
            w.copy_from_slice(&values[a..a + N]);
            w
        };
        let kind = self.ops[i];
        let (init, op): (u64, fn(u64, u64) -> u64) = match kind {
            GateKind::And | GateKind::Nand => (!0, |a, b| a & b),
            GateKind::Or | GateKind::Nor => (0, |a, b| a | b),
            // Not/Buf fold their single operand into 0: `0 ^ a = a`.
            GateKind::Xor | GateKind::Xnor | GateKind::Not | GateKind::Buf => (0, |a, b| a ^ b),
        };
        let arity = if kind.is_unary() { 1 } else { end - start };
        let mut acc = [init; N];
        for idx in 0..arity {
            for (w, v) in acc.iter_mut().zip(operand(idx)) {
                *w = op(*w, v);
            }
        }
        if kind.is_inverting() {
            for w in &mut acc {
                *w = !*w;
            }
        }
        acc
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
        // Exercise all three patch kinds, plus a multi-patch slice, on a
        // circuit with shared fanout and a constant.
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

        // Multi-patch: a slot force plus two pin overrides on one gate.
        let multi = [
            prog.patch_net(a, false),
            prog.patch_pin(and_gate, 0, true),
            prog.patch_pin(and_gate, 1, true),
        ];
        let wide_evals = prog.eval_multi_patched::<N>(&mut wide, &chunks, &multi);
        for k in 0..N {
            let evals = prog.eval_multi_patched::<1>(
                &mut scalar,
                &scalar_words::<N>(&chunks, width, k),
                &multi,
            );
            assert_eq!(wide_evals, evals * N as u64);
            for s in 0..prog.slot_count() {
                assert_eq!(wide[s * N + k], scalar[s], "multi slot {s} word {k}");
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
