//! Sequential X-safety analysis: ternary time-frame fixpoints over
//! compiled programs with flip-flops.
//!
//! The BIST methodology compacts responses into a MISR, and a single
//! unknown (X) absorbed by the compactor corrupts the whole signature.
//! The combinational analyses of [`crate::analysis`] assume every source
//! is defined; this module answers the *sequential* questions an
//! X-bounding flow has to settle before trusting a signature:
//!
//! * which flip-flops settle to a **constant** regardless of inputs and
//!   power-up state (stuck registers — wasted area, and their cone is
//!   untestable through them);
//! * which flip-flops can **never be initialized** by any input
//!   sequence, so their power-up X lives forever;
//! * whether such an X **reaches an observed output** (the MISR taps);
//! * which flip-flop outputs are structurally **unobservable**;
//! * whether flops sit on **sequential feedback** cycles (state threaded
//!   back through DFFs), and the **sequential depth** per output.
//!
//! # The semantic model: ternary (X-pessimistic) simulation
//!
//! All claims are made with respect to **3-valued simulation** from an
//! all-X power-up state — the model an X-bounding flow must assume,
//! because real silicon powers up arbitrarily and the tester cannot
//! observe internal state. This is deliberately pessimistic about
//! reconvergence: `XOR(q, q)` is concretely 0 for either power-up value
//! of `q`, but ternary simulation keeps it X. A MISR fed by that net
//! *would* in fact be deterministic, yet no sign-off flow accepts such
//! reasoning at scale (it requires case analysis over exponentially many
//! power-up states); the pessimistic model is the one the lint codes and
//! the oracle tests share.
//!
//! # Soundness
//!
//! Every verdict here errs on the safe side of its lint code:
//!
//! * **Constant** ([`InitStatus::Constant`]): the all-X state fixpoint
//!   is a decreasing chain in the [`Tv`] lattice (the frame transformer
//!   is monotone and starts at top), so it converges in at most one step
//!   per flop. A constant in the fixpoint holds for *every* input
//!   sequence and *every* power-up state after
//!   [`SeqAnalysis::frames_to_fix`] frames, because ternary evaluation
//!   over-approximates all concrete evaluations.
//! * **NeverInitialized** ([`InitStatus::NeverInitialized`]): the
//!   definability analysis computes, per net, whether *some* input
//!   assignment can make it ternary-known-0 / known-1, treating operand
//!   cones as independent. Ignoring shared-cone conflicts only ever
//!   **over**-approximates definability, so a flop reported
//!   never-initializable truly cannot be driven to a known value by any
//!   input sequence under ternary semantics — zero false claims by
//!   construction.
//! * **X reaches an output**: structural reachability alone can name
//!   unsensitizable paths, so [`find_x_witness`] demands a *concrete*
//!   divergence witness — two simulations whose power-up states differ
//!   only in the suspect flop and whose outputs differ — before the
//!   deny-level claim is made. Sound but not complete, like the
//!   untestability [`Prover`](crate::analysis::Prover).

use crate::analysis::{eval_tv, Tv};
use crate::compiled::EvalProgram;

/// Tuning knobs for [`SeqAnalysis::analyze`] and [`find_x_witness`].
#[derive(Debug, Clone)]
pub struct SeqOptions {
    /// Hard cap on time-frames for the state fixpoint. The fixpoint
    /// converges in at most `dff_count + 1` frames regardless; this only
    /// guards degenerate callers.
    pub max_frames: usize,
    /// Frames simulated per trial in the X-divergence witness search.
    pub witness_frames: usize,
    /// Independent seeded trials in the witness search (each drives 64
    /// random pattern lanes per frame).
    pub witness_trials: usize,
    /// Base seed for the witness search (deterministic per (seed, flop,
    /// trial) triple).
    pub seed: u64,
}

impl Default for SeqOptions {
    fn default() -> Self {
        SeqOptions {
            max_frames: 256,
            witness_frames: 48,
            witness_trials: 4,
            seed: 0xB1B5_0000_5E9A_0001,
        }
    }
}

/// What the analysis proved about one flip-flop's initialization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InitStatus {
    /// The flop settles to this constant after
    /// [`SeqAnalysis::frames_to_fix`] frames for **every** input
    /// sequence and power-up state: a stuck register.
    Constant(bool),
    /// Some bounded input sequence drives the flop to a known value.
    Initializable,
    /// **No** input sequence of any length ever makes the flop's value
    /// known under ternary semantics: its power-up X is permanent.
    NeverInitialized,
}

/// The result of [`SeqAnalysis::analyze`]: per-flop verdicts plus
/// per-output sequential depths. All vectors indexed like
/// [`EvalProgram::dff_slots`] / [`EvalProgram::output_slots`].
#[derive(Debug, Clone)]
pub struct SeqAnalysis {
    /// Per-flop abstract value at the all-X state fixpoint.
    pub state_fixpoint: Vec<Tv>,
    /// Frames until the all-X state fixpoint stopped changing.
    pub frames_to_fix: usize,
    /// Per-flop initialization verdict.
    pub init: Vec<InitStatus>,
    /// Per-flop: does a structural path (through gates and other flops)
    /// lead from the flop's Q to any primary output? `false` means the
    /// flop is truly unobservable — nothing it holds can ever reach an
    /// output or MISR tap.
    pub observable: Vec<bool>,
    /// Per-flop: does the flop sit on a sequential cycle (its Q reaches
    /// its own D through combinational logic and possibly other flops)?
    pub feedback: Vec<bool>,
    /// Per-output maximum flip-flop count on any input-to-output path,
    /// computed gate-level over the compiled program. Saturated (and
    /// [`SeqAnalysis::depth_cyclic`] set) when sequential feedback makes
    /// the depth unbounded.
    pub output_depths: Vec<u32>,
    /// Whether sequential feedback made the depth computation saturate.
    pub depth_cyclic: bool,
}

/// Evaluates one time-frame ternarily: flip-flop Q values from
/// `flop_state`, primary inputs from `pis` (one entry per input in
/// declaration order), constants from the program's prologue. Returns
/// the full per-slot value vector; the next flop state is the value at
/// each flop's D slot.
///
/// # Panics
///
/// Panics if `flop_state` or `pis` have the wrong length.
pub fn ternary_frame(program: &EvalProgram, flop_state: &[Tv], pis: &[Tv]) -> Vec<Tv> {
    assert_eq!(flop_state.len(), program.dff_slots().len());
    assert_eq!(pis.len(), program.input_slots().len());
    let mut vals = vec![Tv::X; program.slot_count()];
    for &(slot, word) in program.const_inits() {
        vals[slot as usize] = if word == 0 { Tv::Zero } else { Tv::One };
    }
    for (i, &slot) in program.input_slots().iter().enumerate() {
        vals[slot as usize] = pis[i];
    }
    for (f, &(q, _)) in program.dff_slots().iter().enumerate() {
        vals[q as usize] = flop_state[f];
    }
    for i in 0..program.instr_count() {
        let ins = program.instr(i);
        vals[ins.out as usize] = eval_tv(ins.kind, ins.operands.iter().map(|&s| vals[s as usize]));
    }
    vals
}

impl SeqAnalysis {
    /// Runs the full sequential analysis on a compiled program (which
    /// may carry flip-flops — compile the netlist itself, **not** its
    /// combinational equivalent).
    pub fn analyze(program: &EvalProgram, opts: &SeqOptions) -> SeqAnalysis {
        let ndff = program.dff_slots().len();
        let all_x_pis = vec![Tv::X; program.input_slots().len()];

        // All-X state fixpoint: S_0 = top, S_{t+1} = F(S_t). F is
        // monotone and S_1 <= S_0, so the chain is decreasing and each
        // flop can change at most once (X -> constant).
        let mut state = vec![Tv::X; ndff];
        let mut frames_to_fix = 0;
        let cap = opts.max_frames.min(ndff + 2).max(1);
        for frame in 1..=cap {
            let vals = ternary_frame(program, &state, &all_x_pis);
            let next: Vec<Tv> = program
                .dff_slots()
                .iter()
                .map(|&(_, d)| vals[d as usize])
                .collect();
            if next == state {
                break;
            }
            state = next;
            frames_to_fix = frame;
        }

        let (ach0, ach1) = definability(program);
        let init: Vec<InitStatus> = (0..ndff)
            .map(|f| match state[f].constant() {
                Some(b) => InitStatus::Constant(b),
                None if !ach0[f] && !ach1[f] => InitStatus::NeverInitialized,
                None => InitStatus::Initializable,
            })
            .collect();

        let obs_slots = observable_slots(program);
        let observable = program
            .dff_slots()
            .iter()
            .map(|&(q, _)| obs_slots[q as usize])
            .collect();

        let feedback = feedback_flops(program);
        let (output_depths, depth_cyclic) = output_seq_depths(program);

        SeqAnalysis {
            state_fixpoint: state,
            frames_to_fix,
            init,
            observable,
            feedback,
            output_depths,
            depth_cyclic,
        }
    }
}

/// Per-flop achievable-value fixpoint: `(ach0, ach1)` where `ach_b[f]`
/// means some input sequence can make flop `f` ternary-known-`b`.
/// Over-approximates (treats operand cones as independent), which is the
/// safe direction for the never-initializable verdict.
fn definability(program: &EvalProgram) -> (Vec<bool>, Vec<bool>) {
    let ndff = program.dff_slots().len();
    let mut ach0 = vec![false; ndff];
    let mut ach1 = vec![false; ndff];
    // Each round can only set bits, and there are 2*ndff bits.
    loop {
        let mut def = vec![(false, false); program.slot_count()];
        for &(slot, word) in program.const_inits() {
            def[slot as usize] = if word == 0 {
                (true, false)
            } else {
                (false, true)
            };
        }
        for &slot in program.input_slots() {
            def[slot as usize] = (true, true);
        }
        for (f, &(q, _)) in program.dff_slots().iter().enumerate() {
            def[q as usize] = (ach0[f], ach1[f]);
        }
        for i in 0..program.instr_count() {
            let ins = program.instr(i);
            def[ins.out as usize] =
                def_eval(ins.kind, ins.operands.iter().map(|&s| def[s as usize]));
        }
        let mut changed = false;
        for (f, &(_, d)) in program.dff_slots().iter().enumerate() {
            let (d0, d1) = def[d as usize];
            if d0 && !ach0[f] {
                ach0[f] = true;
                changed = true;
            }
            if d1 && !ach1[f] {
                ach1[f] = true;
                changed = true;
            }
        }
        if !changed {
            return (ach0, ach1);
        }
    }
}

/// Definability transfer function: given per-operand `(can be known-0,
/// can be known-1)` pairs, what can the gate output be made? Mirrors
/// [`eval_tv`]: controlling values decide with the other operands X, the
/// XOR family needs every operand known.
fn def_eval(
    kind: crate::netlist::GateKind,
    ops: impl IntoIterator<Item = (bool, bool)>,
) -> (bool, bool) {
    use crate::netlist::GateKind;
    let swap = |(a, b): (bool, bool)| (b, a);
    match kind {
        GateKind::And => {
            let mut any0 = false;
            let mut all1 = true;
            for (d0, d1) in ops {
                any0 |= d0;
                all1 &= d1;
            }
            (any0, all1)
        }
        GateKind::Or => {
            let mut all0 = true;
            let mut any1 = false;
            for (d0, d1) in ops {
                all0 &= d0;
                any1 |= d1;
            }
            (all0, any1)
        }
        GateKind::Nand => swap(def_eval(GateKind::And, ops)),
        GateKind::Nor => swap(def_eval(GateKind::Or, ops)),
        GateKind::Xor => {
            // Parity DP: which parities are reachable with every operand
            // pinned to one of its achievable values?
            let (mut even, mut odd) = (true, false);
            for (d0, d1) in ops {
                let ne = (d0 && even) || (d1 && odd);
                let no = (d0 && odd) || (d1 && even);
                even = ne;
                odd = no;
            }
            (even, odd)
        }
        GateKind::Xnor => swap(def_eval(GateKind::Xor, ops)),
        GateKind::Not => {
            let mut it = ops.into_iter();
            swap(it.next().unwrap_or((false, false)))
        }
        GateKind::Buf => {
            let mut it = ops.into_iter();
            it.next().unwrap_or((false, false))
        }
    }
}

/// Backward structural reachability from the primary outputs, crossing
/// flip-flops (an observable Q makes the corresponding D observable one
/// frame earlier). `true` per slot that can influence some output.
fn observable_slots(program: &EvalProgram) -> Vec<bool> {
    let mut obs = vec![false; program.slot_count()];
    let mut stack: Vec<u32> = Vec::new();
    for &o in program.output_slots() {
        if !obs[o as usize] {
            obs[o as usize] = true;
            stack.push(o);
        }
    }
    // q slot -> d slot, for crossing flops backwards.
    let mut d_of_q = vec![u32::MAX; program.slot_count()];
    for &(q, d) in program.dff_slots() {
        d_of_q[q as usize] = d;
    }
    while let Some(s) = stack.pop() {
        if let Some(i) = program.instr_of_slot(s as usize) {
            for &op in program.instr(i).operands {
                if !obs[op as usize] {
                    obs[op as usize] = true;
                    stack.push(op);
                }
            }
        }
        let d = d_of_q[s as usize];
        if d != u32::MAX && !obs[d as usize] {
            obs[d as usize] = true;
            stack.push(d);
        }
    }
    obs
}

/// Per-flop: does Q reach the flop's own D through gates and possibly
/// other flops (a sequential feedback cycle)?
fn feedback_flops(program: &EvalProgram) -> Vec<bool> {
    // Forward slot adjacency: operand -> instruction output, D -> Q.
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); program.slot_count()];
    for i in 0..program.instr_count() {
        let ins = program.instr(i);
        for &op in ins.operands {
            adj[op as usize].push(ins.out);
        }
    }
    for &(q, d) in program.dff_slots() {
        adj[d as usize].push(q);
    }
    program
        .dff_slots()
        .iter()
        .map(|&(q, d)| {
            let mut seen = vec![false; program.slot_count()];
            let mut stack = vec![q];
            seen[q as usize] = true;
            while let Some(s) = stack.pop() {
                if s == d {
                    return true;
                }
                for &n in &adj[s as usize] {
                    if !seen[n as usize] {
                        seen[n as usize] = true;
                        stack.push(n);
                    }
                }
            }
            false
        })
        .collect()
}

/// Gate-level sequential depth per output: the maximum number of
/// flip-flops on any path from a primary input (or constant) to the
/// output. Returns `(depths, cyclic)`; on sequential feedback the
/// fixpoint cannot settle and `cyclic` is reported instead of looping.
fn output_seq_depths(program: &EvalProgram) -> (Vec<u32>, bool) {
    let mut depth = vec![0u32; program.slot_count()];
    let rounds = program.dff_slots().len() + 1;
    let mut cyclic = true;
    for _ in 0..=rounds {
        let mut changed = false;
        for i in 0..program.instr_count() {
            let ins = program.instr(i);
            let d = ins
                .operands
                .iter()
                .map(|&s| depth[s as usize])
                .max()
                .unwrap_or(0);
            if depth[ins.out as usize] != d {
                depth[ins.out as usize] = d;
                changed = true;
            }
        }
        for &(q, d) in program.dff_slots() {
            let v = depth[d as usize].saturating_add(1);
            if depth[q as usize] < v {
                depth[q as usize] = v;
                changed = true;
            }
        }
        if !changed {
            cyclic = false;
            break;
        }
    }
    let depths = program
        .output_slots()
        .iter()
        .map(|&o| depth[o as usize])
        .collect();
    (depths, cyclic)
}

/// A concrete proof that flip-flop [`XWitness::dff`]'s power-up value is
/// visible at a primary output: two simulations whose initial states
/// differ *only* in that flop produce different values at output
/// [`XWitness::output`] in frame [`XWitness::frame`]. Fully determined
/// by `(program, dff, seed)` — [`replay_x_witness`] re-derives it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct XWitness {
    /// Index of the flop (into [`EvalProgram::dff_slots`]).
    pub dff: usize,
    /// Index of the diverging output (into [`EvalProgram::output_slots`]).
    pub output: usize,
    /// Zero-based frame of the divergence.
    pub frame: usize,
    /// The trial seed that produced it.
    pub seed: u64,
}

/// Searches for an [`XWitness`] for flop `dff`: seeded random power-up
/// states and input sequences (64 lanes per frame), the suspect flop
/// complemented across the paired runs. Returns the first divergence
/// found, or `None` — absence is *not* a proof of safety.
pub fn find_x_witness(program: &EvalProgram, dff: usize, opts: &SeqOptions) -> Option<XWitness> {
    for trial in 0..opts.witness_trials.max(1) {
        let seed = trial_seed(opts.seed, dff, trial);
        if let Some((frame, output)) = paired_run(program, dff, seed, opts.witness_frames) {
            return Some(XWitness {
                dff,
                output,
                frame,
                seed,
            });
        }
    }
    None
}

/// Re-runs the paired simulation behind `w` and confirms it diverges at
/// exactly the recorded frame and output.
pub fn replay_x_witness(program: &EvalProgram, w: &XWitness, opts: &SeqOptions) -> bool {
    paired_run(program, w.dff, w.seed, opts.witness_frames) == Some((w.frame, w.output))
}

/// Deterministic per-(base, flop, trial) seed.
fn trial_seed(base: u64, dff: usize, trial: usize) -> u64 {
    let mut s = base
        .wrapping_add((dff as u64).wrapping_mul(0xA24B_AED4_963E_E407))
        .wrapping_add((trial as u64).wrapping_mul(0x9FB2_1C65_1E98_DF25));
    splitmix64(&mut s)
}

/// Runs the paired simulation: identical random power-up words except
/// flop `dff` complemented, identical random inputs each frame; reports
/// the first `(frame, output)` whose 64-lane words differ.
fn paired_run(
    program: &EvalProgram,
    dff: usize,
    seed: u64,
    frames: usize,
) -> Option<(usize, usize)> {
    let mut rng = seed;
    let mut a = program.new_values();
    let mut b = program.new_values();
    for (f, &(q, _)) in program.dff_slots().iter().enumerate() {
        let w = splitmix64(&mut rng);
        a[q as usize] = w;
        b[q as usize] = if f == dff { !w } else { w };
    }
    let mut inputs = vec![0u64; program.input_slots().len()];
    let mut cap_a = Vec::new();
    let mut cap_b = Vec::new();
    for frame in 0..frames.max(1) {
        for w in inputs.iter_mut() {
            *w = splitmix64(&mut rng);
        }
        program.set_inputs(&mut a, &inputs);
        program.set_inputs(&mut b, &inputs);
        program.run(&mut a);
        program.run(&mut b);
        for (oi, &os) in program.output_slots().iter().enumerate() {
            if a[os as usize] != b[os as usize] {
                return Some((frame, oi));
            }
        }
        program.clock(&mut a, &mut cap_a);
        program.clock(&mut b, &mut cap_b);
    }
    None
}

/// SplitMix64 step — the module's only randomness, dependency-free and
/// stable across platforms.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;
    use crate::netlist::GateKind;

    fn analyze(nl: &crate::netlist::Netlist) -> (EvalProgram, SeqAnalysis) {
        let program = EvalProgram::compile(nl).unwrap();
        let a = SeqAnalysis::analyze(&program, &SeqOptions::default());
        (program, a)
    }

    /// PI -> R0 -> R1 -> PO: every flop initializable and observable,
    /// depth 2, no feedback.
    #[test]
    fn forward_pipeline_is_initializable() {
        let mut b = NetlistBuilder::new("pipe");
        let x = b.input("x");
        let r0 = b.register(&[x]);
        let r1 = b.register(&r0);
        b.output("y", r1[0]);
        let nl = b.finish().unwrap();
        let (_, a) = analyze(&nl);
        assert_eq!(a.init, vec![InitStatus::Initializable; 2]);
        assert_eq!(a.observable, vec![true, true]);
        assert_eq!(a.feedback, vec![false, false]);
        assert!(!a.depth_cyclic);
        assert_eq!(a.output_depths, vec![2]);
        assert_eq!(a.output_depths[0] as usize, nl.sequential_depth());
    }

    /// A flop fed by a tied constant settles: Constant(0) in one frame.
    #[test]
    fn tied_flop_is_constant() {
        let mut b = NetlistBuilder::new("stuck");
        let x = b.input("x");
        let z = b.const0();
        let r = b.register(&[z]);
        let y = b.or2(x, r[0]);
        b.output("y", y);
        let nl = b.finish().unwrap();
        let (_, a) = analyze(&nl);
        assert_eq!(a.init, vec![InitStatus::Constant(false)]);
        assert_eq!(a.state_fixpoint, vec![Tv::Zero]);
        assert_eq!(a.frames_to_fix, 1);
    }

    /// q = DFF(NOT q): the inverter loop never initializes (ternary X is
    /// a fixpoint of NOT), sits on feedback, and its power-up value is
    /// concretely visible at the output — a witness must exist.
    #[test]
    fn inverter_loop_never_initializes_and_has_witness() {
        let mut b = NetlistBuilder::new("osc");
        let (q, d) = b.register_deferred();
        let nq = b.not(q);
        b.resolve_deferred(d, nq);
        b.output("y", q);
        let nl = b.finish().unwrap();
        let (program, a) = analyze(&nl);
        assert_eq!(a.init, vec![InitStatus::NeverInitialized]);
        assert_eq!(a.state_fixpoint, vec![Tv::X]);
        assert_eq!(a.feedback, vec![true]);
        assert_eq!(a.observable, vec![true]);
        let w = find_x_witness(&program, 0, &SeqOptions::default()).expect("visible power-up X");
        assert!(replay_x_witness(&program, &w, &SeqOptions::default()));
        assert_eq!(w.frame, 0, "directly observed flop diverges immediately");
    }

    /// XOR(q, q) masks the power-up value concretely even though ternary
    /// analysis keeps the net X: never-initialized, but no witness.
    #[test]
    fn reconvergent_mask_has_no_witness() {
        let mut b = NetlistBuilder::new("mask");
        let (q, d) = b.register_deferred();
        let nq = b.not(q);
        b.resolve_deferred(d, nq);
        let y = b.gate(GateKind::Xor, &[q, q]);
        b.output("y", y);
        let nl = b.finish().unwrap();
        let (program, a) = analyze(&nl);
        assert_eq!(a.init, vec![InitStatus::NeverInitialized]);
        assert!(a.observable[0], "structurally observable");
        assert!(
            find_x_witness(&program, 0, &SeqOptions::default()).is_none(),
            "XOR(q, q) cancels the power-up value in every concrete run"
        );
    }

    /// A flop whose Q feeds nothing is unobservable; one feeding only
    /// another flop's D is observable through it.
    #[test]
    fn observability_crosses_flops() {
        let mut b = NetlistBuilder::new("obs");
        let x = b.input("x");
        let dead = b.register(&[x]);
        let _ = dead; // Q net never used
        let r0 = b.register(&[x]);
        let r1 = b.register(&r0);
        b.output("y", r1[0]);
        let nl = b.finish().unwrap();
        let (_, a) = analyze(&nl);
        assert_eq!(a.observable, vec![false, true, true]);
    }

    /// An AND-guarded self-loop `q = DFF(AND(q, en))` *is* initializable
    /// (pin en = 0 forces the D known-0) — the definability analysis
    /// must not over-report never-init on controlling values.
    #[test]
    fn controlled_feedback_is_initializable() {
        let mut b = NetlistBuilder::new("ctl");
        let en = b.input("en");
        let (q, d) = b.register_deferred();
        let nd = b.and2(q, en);
        b.resolve_deferred(d, nd);
        b.output("y", q);
        let nl = b.finish().unwrap();
        let (_, a) = analyze(&nl);
        assert_eq!(a.init, vec![InitStatus::Initializable]);
        assert_eq!(a.feedback, vec![true]);
    }

    /// XOR feedback `q = DFF(XOR(q, x))` can never be made known: the
    /// XOR needs *both* operands known and q never is.
    #[test]
    fn xor_feedback_never_initializes() {
        let mut b = NetlistBuilder::new("lfsr1");
        let x = b.input("x");
        let (q, d) = b.register_deferred();
        let nd = b.xor2(q, x);
        b.resolve_deferred(d, nd);
        b.output("y", q);
        let nl = b.finish().unwrap();
        let (_, a) = analyze(&nl);
        assert_eq!(a.init, vec![InitStatus::NeverInitialized]);
    }

    /// Depth computation saturates (and says so) on sequential cycles.
    #[test]
    fn feedback_marks_depth_cyclic() {
        let mut b = NetlistBuilder::new("cyc");
        let en = b.input("en");
        let (q, d) = b.register_deferred();
        let nd = b.and2(q, en);
        b.resolve_deferred(d, nd);
        b.output("y", q);
        let nl = b.finish().unwrap();
        let (_, a) = analyze(&nl);
        assert!(a.depth_cyclic);
    }

    /// ternary_frame with concrete PIs matches concrete evaluation.
    #[test]
    fn ternary_frame_agrees_with_concrete_eval() {
        let mut b = NetlistBuilder::new("t");
        let x = b.input("x");
        let yb = b.input("yb");
        let g = b.and2(x, yb);
        let r = b.register(&[g]);
        b.output("o", r[0]);
        let nl = b.finish().unwrap();
        let program = EvalProgram::compile(&nl).unwrap();
        for xa in [Tv::Zero, Tv::One] {
            for ya in [Tv::Zero, Tv::One] {
                let vals = ternary_frame(&program, &[Tv::X], &[xa, ya]);
                let d = program.dff_slots()[0].1;
                let expect = Tv::from_bool(xa.constant().unwrap() && ya.constant().unwrap());
                assert_eq!(vals[d as usize], expect);
            }
        }
    }
}
