//! PODEM combinational ATPG.
//!
//! Balanced BISTable kernels are 1-step functionally testable, so — as the
//! paper notes — "only an ATPG system for combinational logic is required".
//! This PODEM implementation serves two purposes in the reproduction:
//!
//! * **redundancy identification** — the Table 2 "100 % fault coverage"
//!   rows count *detectable* faults, so undetectable (redundant) faults
//!   must be proven so and excluded. [`Verdicts`] keeps each fault's
//!   verdict, so the proof can retire a fault from fault simulation
//!   mid-run and still decide its Table 2 class afterwards;
//! * deterministic test generation for individual faults, used by tests to
//!   cross-check the fault simulator.
//!
//! The search runs on the compiled [`EvalProgram`], in the ternary [`Tv`]
//! domain the static analyses share, and each decision costs only the
//! part of the circuit it can change:
//!
//! * **Event-driven implication.** Both machines' values persist across
//!   the decisions and backtracks for one fault. Implication diffs the
//!   primary-input assignment against the one it last implied and
//!   re-evaluates, in schedule order, only the readers
//!   ([`EvalProgram::readers`]) of inputs whose value changed and of
//!   instructions whose good or faulty output changed. The whole program
//!   is swept once per fault, to load it; debug builds sweep it again
//!   after every implication and require the same values.
//! * **The D-frontier inside the fault's cone.** Only gates in the
//!   fault's static fanout cone can read an error, so the frontier is
//!   searched there, in gate-id order — the order of a scan over every
//!   gate, which is what keeps each decision, and so each backtrack count
//!   and test vector, the same as that scan's. Debug builds repeat the
//!   scan over every gate and require the same pick.

use crate::fault::{Fault, FaultSite};
use bibs_netlist::analysis::{eval_tv, Scoap, Tv};
use bibs_netlist::{EvalProgram, NetDriver, NetId, Netlist};
use bibs_obs::{CounterId, Recorder};
use std::collections::hash_map::{Entry, HashMap};
use std::time::{Duration, Instant};

/// The outcome of PODEM on one fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AtpgResult {
    /// A test was found. The vector gives one value per primary input;
    /// `None` means don't-care.
    Test(Vec<Option<bool>>),
    /// The fault is provably undetectable (the search space is exhausted).
    Redundant,
    /// The backtrack limit was hit before a conclusion.
    Aborted,
}

/// Aggregate fault classification over a fault list.
#[derive(Debug, Clone)]
pub struct Classification {
    /// Faults with a generated test.
    pub detectable: Vec<(Fault, Vec<Option<bool>>)>,
    /// Faults proven redundant.
    pub redundant: Vec<Fault>,
    /// Faults on which PODEM hit the backtrack limit.
    pub aborted: Vec<Fault>,
}

impl Classification {
    /// Number of faults proven or presumed detectable (tests found).
    pub fn detectable_count(&self) -> usize {
        self.detectable.len()
    }

    /// Sorts each fault into the class of its verdict, keeping order.
    fn collect(verdicts: impl Iterator<Item = (Fault, AtpgResult)>) -> Self {
        let mut out = Classification {
            detectable: Vec::new(),
            redundant: Vec::new(),
            aborted: Vec::new(),
        };
        for (f, verdict) in verdicts {
            match verdict {
                AtpgResult::Test(t) => out.detectable.push((f, t)),
                AtpgResult::Redundant => out.redundant.push(f),
                AtpgResult::Aborted => out.aborted.push(f),
            }
        }
        out
    }
}

/// Where the loaded fault forces the faulty machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Forced {
    /// A net fault: the faulty machine holds the stuck value in this slot.
    Slot(usize),
    /// A pin fault: only this operand of this instruction reads it.
    Pin { instr: usize, pin: usize },
}

/// A PODEM test generator bound to one combinational netlist.
///
/// [`Atpg::generate`] loads a fault with one whole-program ternary sweep
/// of both machines, then implies each decision and backtrack event-driven
/// over the compiled [`EvalProgram`]: a pending bitset over instructions,
/// seeded with the readers of the primary inputs whose value changed and
/// scanned in schedule order, stopping where neither machine's output
/// changes. The D-frontier and X-path searches walk the same fanout index
/// ([`EvalProgram::readers`]) inside the fault's static cone. Their
/// buffers are allocated once per generator, not per fault or decision.
#[derive(Debug)]
pub struct Atpg<'a> {
    netlist: &'a Netlist,
    program: EvalProgram,
    /// Structural SCOAP costs used to order objective/backtrace choices:
    /// when *all* inputs must reach a value the hardest one is attacked
    /// first (fail fast), when *any* input suffices the cheapest is taken.
    scoap: Scoap,
    good: Vec<Tv>,
    faulty: Vec<Tv>,
    /// The loaded fault's stuck value and site (placeholders until
    /// [`Atpg::generate`] loads one).
    stuck: Tv,
    forced: Forced,
    /// The assignment `good` and `faulty` are the implication of.
    implied: Vec<Option<bool>>,
    /// Instructions awaiting re-evaluation, one bit each; all clear
    /// between implications.
    pending: Vec<u64>,
    /// The loaded fault's static fanout cone: the instructions that can
    /// read an error, in gate-id order.
    cone: Vec<u32>,
    /// Per-slot visit marks of the cone and X-path walks: a slot is
    /// visited by the current walk when its mark equals `stamp`.
    seen: Vec<u32>,
    stamp: u32,
    /// The walks' stack of slots.
    walk: Vec<u32>,
    /// Total PODEM backtracks across every [`Atpg::generate`] call on this
    /// generator; exported as the `podem_backtracks` telemetry counter.
    backtracks_total: u64,
    /// Total ternary instruction evaluations by implication (the loading
    /// sweeps included); exported as the `podem_evals` telemetry counter.
    evals_total: u64,
}

impl<'a> Atpg<'a> {
    /// Creates a generator for `netlist`, compiling it once.
    ///
    /// # Panics
    ///
    /// Panics if the netlist is sequential; run on the combinational
    /// equivalent.
    pub fn new(netlist: &'a Netlist) -> Self {
        assert_eq!(netlist.dff_count(), 0, "PODEM is combinational-only");
        let program = EvalProgram::compile(netlist).expect("acyclic netlist");
        let scoap = Scoap::compute(&program);
        let slots = program.slot_count();
        Atpg {
            netlist,
            scoap,
            good: vec![Tv::X; slots],
            faulty: vec![Tv::X; slots],
            stuck: Tv::X,
            forced: Forced::Slot(usize::MAX),
            implied: vec![None; netlist.input_width()],
            pending: vec![0; program.instr_count().div_ceil(64)],
            cone: Vec::new(),
            seen: vec![0; slots],
            stamp: 0,
            walk: Vec::new(),
            program,
            backtracks_total: 0,
            evals_total: 0,
        }
    }

    /// Total backtracks taken across every [`Atpg::generate`] call so far.
    pub fn backtracks_total(&self) -> u64 {
        self.backtracks_total
    }

    /// Picks the X-valued input slot to drive toward `value`. `hardest`
    /// selects the maximum-controllability input (all inputs must reach
    /// `value`, so failing fast on the hardest prunes the search);
    /// otherwise the minimum (any input suffices). Ties resolve to the
    /// lowest pin index, keeping the search deterministic.
    fn pick_x_input(&self, inputs: &[u32], value: bool, hardest: bool) -> Option<usize> {
        let cc = if value {
            &self.scoap.cc1
        } else {
            &self.scoap.cc0
        };
        let mut best: Option<(u32, usize)> = None;
        for &s in inputs {
            let s = s as usize;
            if self.good[s] != Tv::X {
                continue;
            }
            let cost = cc[s];
            let better = match best {
                None => true,
                Some((b, _)) => {
                    if hardest {
                        cost > b
                    } else {
                        cost < b
                    }
                }
            };
            if better {
                best = Some((cost, s));
            }
        }
        best.map(|(_, s)| s)
    }

    /// Runs PODEM for one fault with the given backtrack limit.
    pub fn generate(&mut self, fault: Fault, backtrack_limit: usize) -> AtpgResult {
        self.load(fault);
        let width = self.netlist.input_width();
        let mut assignment: Vec<Option<bool>> = vec![None; width];
        // Decision stack: (pi index, value, alternative already tried).
        let mut stack: Vec<(usize, bool, bool)> = Vec::new();
        let mut backtracks = 0usize;

        loop {
            self.imply(&assignment);
            if self.detected() {
                return AtpgResult::Test(assignment);
            }
            let objective = self.objective(fault);
            match objective {
                Some((slot, value)) => {
                    if let Some((pi, v)) = self.backtrace(slot, value) {
                        assignment[pi] = Some(v);
                        stack.push((pi, v, false));
                        continue;
                    }
                    // No X input reachable: treat as a dead end.
                }
                None => {
                    // Conflict or no propagation path: dead end.
                }
            }
            // Backtrack.
            loop {
                match stack.pop() {
                    None => return AtpgResult::Redundant,
                    Some((pi, v, tried)) => {
                        assignment[pi] = None;
                        if !tried {
                            backtracks += 1;
                            self.backtracks_total += 1;
                            if backtracks > backtrack_limit {
                                return AtpgResult::Aborted;
                            }
                            assignment[pi] = Some(!v);
                            stack.push((pi, !v, true));
                            break;
                        }
                    }
                }
            }
        }
    }

    /// Loads `fault`: resolves its site, implies the empty assignment with
    /// one whole-program sweep and collects the fault's fanout cone — the
    /// readers reachable from the faulty net, or from the faulted gate's
    /// output for a pin fault.
    fn load(&mut self, fault: Fault) {
        self.stuck = Tv::from_bool(fault.stuck_at);
        let start = match fault.site {
            FaultSite::Net(n) => {
                self.forced = Forced::Slot(n.index());
                n.index()
            }
            FaultSite::GatePin { gate, pin } => {
                let instr = self.program.instr_of_gate(gate);
                self.forced = Forced::Pin { instr, pin };
                self.program.instr(instr).out as usize
            }
        };
        self.implied.fill(None);
        self.sweep();
        self.evals_total += self.program.instr_count() as u64;

        self.cone.clear();
        self.next_stamp();
        self.seen[start] = self.stamp;
        self.walk.clear();
        self.walk.push(start as u32);
        while let Some(s) = self.walk.pop() {
            for &(r, _) in self.program.readers(s as usize) {
                let out = self.program.instr(r as usize).out as usize;
                if self.seen[out] != self.stamp {
                    self.seen[out] = self.stamp;
                    self.walk.push(out as u32);
                    self.cone.push(r);
                }
            }
        }
        let program = &self.program;
        self.cone
            .sort_unstable_by_key(|&i| program.instr(i as usize).gate);
    }

    /// Starts a new walk: afterwards no slot is marked visited.
    fn next_stamp(&mut self) {
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.seen.fill(0);
            self.stamp = 1;
        }
    }

    /// The faulty machine's value of source slot `s` whose good value is
    /// `v`.
    fn source_faulty(&self, s: usize, v: Tv) -> Tv {
        if self.forced == Forced::Slot(s) {
            self.stuck
        } else {
            v
        }
    }

    /// Instruction `i`'s output slot and its good and faulty values over
    /// the current operand values.
    #[inline]
    fn eval(&self, i: usize) -> (usize, Tv, Tv) {
        let instr = self.program.instr(i);
        let out = instr.out as usize;
        let good = eval_tv(
            instr.kind,
            instr.operands.iter().map(|&s| self.good[s as usize]),
        );
        let faulty = match self.forced {
            Forced::Slot(s) if s == out => self.stuck,
            Forced::Pin { instr: fi, pin } if fi == i => eval_tv(
                instr.kind,
                instr.operands.iter().enumerate().map(|(p, &s)| {
                    if p == pin {
                        self.stuck
                    } else {
                        self.faulty[s as usize]
                    }
                }),
            ),
            _ => eval_tv(
                instr.kind,
                instr.operands.iter().map(|&s| self.faulty[s as usize]),
            ),
        };
        (out, good, faulty)
    }

    /// Implies `implied` over the whole program, from all-X buffers.
    fn sweep(&mut self) {
        self.good.fill(Tv::X);
        self.faulty.fill(Tv::X);
        for (i, &slot) in self.program.input_slots().iter().enumerate() {
            let (s, v) = (slot as usize, self.implied[i].map_or(Tv::X, Tv::from_bool));
            self.good[s] = v;
            self.faulty[s] = self.source_faulty(s, v);
        }
        for &(slot, word) in self.program.const_inits() {
            let (s, v) = (slot as usize, Tv::from_bool(word != 0));
            self.good[s] = v;
            self.faulty[s] = self.source_faulty(s, v);
        }
        for i in 0..self.program.instr_count() {
            let (out, good, faulty) = self.eval(i);
            self.good[out] = good;
            self.faulty[out] = faulty;
        }
    }

    /// Implies `assignment`, event-driven from the last implied one: the
    /// readers of every input whose value changed are marked pending, and
    /// pending instructions are evaluated in schedule order. An output
    /// that changes in either machine marks its own readers, which always
    /// come later, so each instruction runs at most once; where neither
    /// machine's output changes, propagation stops.
    fn imply(&mut self, assignment: &[Option<bool>]) {
        // Pending bitset words `lo..hi` may be nonzero.
        let (mut lo, mut hi) = (usize::MAX, 0);
        for (i, &slot) in self.program.input_slots().iter().enumerate() {
            if assignment[i] == self.implied[i] {
                continue;
            }
            self.implied[i] = assignment[i];
            let (s, v) = (slot as usize, assignment[i].map_or(Tv::X, Tv::from_bool));
            self.good[s] = v;
            self.faulty[s] = self.source_faulty(s, v);
            for &(r, _) in self.program.readers(s) {
                let w = r as usize / 64;
                self.pending[w] |= 1 << (r % 64);
                lo = lo.min(w);
                hi = hi.max(w + 1);
            }
        }
        let (mut w, mut evaluated) = (lo, 0);
        while w < hi {
            // As in `EvalProgram::eval_events`, the scanned word stays in
            // a register and readers that fall in it join it directly.
            let mut bits = std::mem::take(&mut self.pending[w]);
            while bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                evaluated += 1;
                let (out, good, faulty) = self.eval(i);
                if good == self.good[out] && faulty == self.faulty[out] {
                    continue;
                }
                self.good[out] = good;
                self.faulty[out] = faulty;
                for &(r, _) in self.program.readers(out) {
                    let rw = r as usize / 64;
                    if rw == w {
                        bits |= 1 << (r % 64);
                    } else {
                        self.pending[rw] |= 1 << (r % 64);
                        hi = hi.max(rw + 1);
                    }
                }
            }
            w += 1;
        }
        self.evals_total += evaluated;
        #[cfg(debug_assertions)]
        self.check_implication();
    }

    /// Debug builds re-imply the assignment with a whole-program sweep and
    /// require the event-driven values to match it slot for slot.
    #[cfg(debug_assertions)]
    fn check_implication(&mut self) {
        let (good, faulty) = (self.good.clone(), self.faulty.clone());
        self.sweep();
        if let Some(s) =
            (0..good.len()).find(|&s| good[s] != self.good[s] || faulty[s] != self.faulty[s])
        {
            panic!(
                "event-driven implication left slot {s} at ({:?}, {:?}); a full sweep gives ({:?}, {:?})",
                good[s], faulty[s], self.good[s], self.faulty[s]
            );
        }
    }

    fn error_at(&self, slot: usize) -> bool {
        matches!(
            (self.good[slot], self.faulty[slot]),
            (Tv::Zero, Tv::One) | (Tv::One, Tv::Zero)
        )
    }

    fn unknown_at(&self, slot: usize) -> bool {
        self.good[slot] == Tv::X || self.faulty[slot] == Tv::X
    }

    fn detected(&self) -> bool {
        self.program
            .output_slots()
            .iter()
            .any(|&o| self.error_at(o as usize))
    }

    /// The slot whose good value activates the fault, and the activation
    /// state: `Ok(true)` activated, `Ok(false)` impossible, `Err(slot)`
    /// still unknown.
    fn activation(&self, fault: Fault) -> Result<bool, usize> {
        let site = match fault.site {
            FaultSite::Net(n) => n,
            FaultSite::GatePin { gate, pin } => self.netlist.gate(gate).inputs[pin],
        };
        match self.good[site.index()].constant() {
            Some(v) => Ok(v != fault.stuck_at),
            None => Err(site.index()),
        }
    }

    /// Picks the next objective `(slot, value)` in the good machine, or
    /// `None` at a dead end (conflict / empty D-frontier / no X-path).
    fn objective(&mut self, fault: Fault) -> Option<(usize, bool)> {
        match self.activation(fault) {
            Err(slot) => return Some((slot, !fault.stuck_at)),
            Ok(false) => return None, // fault can no longer be activated
            Ok(true) => {}
        }
        // Fault is activated. The target is the first D-frontier gate
        // with an X-path to a primary output. For a pin fault the error
        // lives on the pin, not on any net, so the faulted gate itself
        // leads the frontier while its output is still unknown; then come
        // the cone's gates whose output is unknown and that read an
        // error, in gate-id order.
        let mut target = None;
        if let Forced::Pin { instr, .. } = self.forced {
            let out = self.program.instr(instr).out as usize;
            if self.unknown_at(out) && self.x_path(out) {
                target = Some(instr);
            }
        }
        if target.is_none() {
            for k in 0..self.cone.len() {
                let i = self.cone[k] as usize;
                if self.frontier_with_x_path(i) {
                    target = Some(i);
                    break;
                }
            }
            #[cfg(debug_assertions)]
            self.check_frontier(target);
        }
        // Objective: set one X input of the chosen frontier gate to the
        // non-controlling value so the error propagates. All side pins
        // will eventually need the value, so attack the hardest (highest
        // SCOAP controllability) first.
        let instr = self.program.instr(target?);
        let (value, hardest) = match instr.kind.controlling_value() {
            Some(c) => (!c, true),
            None => (false, false), // XOR-family: any settled value works
        };
        let x_input = self.pick_x_input(instr.operands, value, hardest)?;
        Some((x_input, value))
    }

    /// Whether instruction `i` is a D-frontier gate (its output unknown,
    /// an error on an operand) with an X-path from its output.
    fn frontier_with_x_path(&mut self, i: usize) -> bool {
        let instr = self.program.instr(i);
        let out = instr.out as usize;
        self.unknown_at(out)
            && instr.operands.iter().any(|&s| self.error_at(s as usize))
            && self.x_path(out)
    }

    /// Debug builds repeat the frontier search over every gate in gate-id
    /// order and require it to pick `target` too: the cone must hold
    /// every gate that can read an error, in the same order.
    #[cfg(debug_assertions)]
    fn check_frontier(&mut self, target: Option<usize>) {
        let full = self
            .netlist
            .gate_ids()
            .find(|&g| self.frontier_with_x_path(self.program.instr_of_gate(g)))
            .map(|g| self.program.instr_of_gate(g));
        assert_eq!(
            full, target,
            "the cone's D-frontier search picked another gate"
        );
    }

    /// Whether unknown slots lead from `start` to a primary output: the
    /// X-path check of a frontier gate's output.
    fn x_path(&mut self, start: usize) -> bool {
        self.next_stamp();
        self.seen[start] = self.stamp;
        self.walk.clear();
        self.walk.push(start as u32);
        while let Some(s) = self.walk.pop() {
            if self.program.is_output(s as usize) {
                return true;
            }
            for &(r, _) in self.program.readers(s as usize) {
                let out = self.program.instr(r as usize).out as usize;
                if self.seen[out] != self.stamp && self.unknown_at(out) {
                    self.seen[out] = self.stamp;
                    self.walk.push(out as u32);
                }
            }
        }
        false
    }

    /// Walks an objective back to an unassigned primary input.
    fn backtrace(&self, mut slot: usize, mut value: bool) -> Option<(usize, bool)> {
        loop {
            match self.netlist.driver(NetId::from_index(slot)) {
                NetDriver::Input(i) => {
                    debug_assert_eq!(self.good[slot], Tv::X);
                    return Some((i, value));
                }
                NetDriver::Gate(gid) => {
                    let instr = self.program.instr(self.program.instr_of_gate(gid));
                    // Remove the gate's output inversion.
                    let inner = value != instr.kind.is_inverting();
                    // SCOAP-guided branch choice: when `inner` is the
                    // controlling value, any single input suffices — take
                    // the cheapest; when it is the non-controlling value,
                    // every input must reach it — take the hardest first.
                    let hardest = match instr.kind.controlling_value() {
                        Some(c) => inner != c,
                        None => false, // XOR-family / unary: cheapest pin
                    };
                    slot = self.pick_x_input(instr.operands, inner, hardest)?;
                    value = inner;
                }
                NetDriver::Const(_) | NetDriver::Dff(_) | NetDriver::Floating => return None,
            }
        }
    }

    /// Classifies every fault in `faults`.
    pub fn classify(&mut self, faults: &[Fault], backtrack_limit: usize) -> Classification {
        Classification::collect(
            faults
                .iter()
                .map(|&f| (f, self.generate(f, backtrack_limit))),
        )
    }
}

/// PODEM at most once per fault: an [`Atpg`] built on first use, and
/// every verdict it has returned, kept by fault.
///
/// A fault-sim run's prover ([`crate::sim::Stop::prover`]) and the
/// classification of the run's survivors share one of these, so a fault
/// the prover decided is not searched again, and a run that never asks
/// builds no generator. [`Atpg::generate`] reloads per fault, so a
/// verdict and its backtrack and evaluation counts do not depend on the
/// order faults are asked in.
#[derive(Debug)]
pub struct Verdicts<'a> {
    netlist: &'a Netlist,
    backtrack_limit: usize,
    atpg: Option<Atpg<'a>>,
    kept: HashMap<Fault, AtpgResult>,
    wall: Duration,
}

impl<'a> Verdicts<'a> {
    /// No verdicts yet; searches on `netlist` will use `backtrack_limit`.
    pub fn new(netlist: &'a Netlist, backtrack_limit: usize) -> Self {
        Verdicts {
            netlist,
            backtrack_limit,
            atpg: None,
            kept: HashMap::new(),
            wall: Duration::ZERO,
        }
    }

    /// PODEM's verdict on `fault`: the kept one, or a new search.
    pub fn verdict(&mut self, fault: Fault) -> &AtpgResult {
        match self.kept.entry(fault) {
            Entry::Occupied(kept) => kept.into_mut(),
            Entry::Vacant(slot) => {
                let started = Instant::now();
                let atpg = self.atpg.get_or_insert_with(|| Atpg::new(self.netlist));
                let verdict = atpg.generate(fault, self.backtrack_limit);
                self.wall += started.elapsed();
                slot.insert(verdict)
            }
        }
    }

    /// Whether PODEM proves `fault` redundant — the prover a fault-sim
    /// run retires faults with.
    pub fn proves_redundant(&mut self, fault: Fault) -> bool {
        *self.verdict(fault) == AtpgResult::Redundant
    }

    /// Classifies every fault in `faults`, reusing kept verdicts.
    pub fn classify(&mut self, faults: &[Fault]) -> Classification {
        Classification::collect(faults.iter().map(|&f| (f, self.verdict(f).clone())))
    }

    /// Wall time spent searching so far, building the generator included.
    pub fn wall(&self) -> Duration {
        self.wall
    }

    /// Adds every search so far to the current span of `rec`: the faults
    /// searched as `podem_faults`, their backtracks as `podem_backtracks`
    /// and the ternary instructions implication evaluated as
    /// `podem_evals`.
    pub fn record(&self, rec: &mut Recorder) {
        rec.add(CounterId::PodemFaults, self.kept.len() as u64);
        if let Some(atpg) = &self.atpg {
            rec.add(CounterId::PodemBacktracks, atpg.backtracks_total);
            rec.add(CounterId::PodemEvals, atpg.evals_total);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultUniverse;
    use crate::par::ParFaultSimulator;
    use crate::sim::BlockSim;
    use bibs_netlist::builder::NetlistBuilder;

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
    fn generated_tests_actually_detect() {
        let nl = adder4();
        let universe = FaultUniverse::collapsed(&nl);
        let mut atpg = Atpg::new(&nl);
        let class = atpg.classify(universe.faults(), 10_000);
        assert!(class.aborted.is_empty(), "small adder must not abort");
        assert!(class.redundant.is_empty(), "adders have no redundancy");
        // Replay every generated test through the fault simulator.
        for (fault, test) in &class.detectable {
            let pattern: Vec<bool> = test.iter().map(|v| v.unwrap_or(false)).collect();
            let mut sim = ParFaultSimulator::new(&nl, vec![*fault]);
            let report = sim.run_patterns(&[pattern]);
            assert_eq!(
                report.detected_count(),
                1,
                "PODEM test for {fault} must detect it"
            );
        }
    }

    #[test]
    fn redundant_fault_is_proven() {
        // y = a AND (NOT a) == 0; y/sa0 is undetectable.
        let mut b = NetlistBuilder::new("red");
        let a = b.input("a");
        let na = b.not(a);
        let y = b.and2(a, na);
        b.output("y", y);
        let nl = b.finish().unwrap();
        let mut atpg = Atpg::new(&nl);
        let fault = Fault::net_sa0(nl.outputs()[0]);
        assert_eq!(atpg.generate(fault, 10_000), AtpgResult::Redundant);
        // But y/sa1 is detectable (any pattern works).
        let fault1 = Fault::net_sa1(nl.outputs()[0]);
        assert!(matches!(atpg.generate(fault1, 10_000), AtpgResult::Test(_)));
    }

    #[test]
    fn unobservable_logic_is_redundant() {
        // A gate whose output feeds nothing observable.
        let mut b = NetlistBuilder::new("unobs");
        let a = b.input("a");
        let c = b.input("b");
        let _dead = b.and2(a, c); // never connected to an output
        let y = b.xor2(a, c);
        b.output("y", y);
        let nl = b.finish().unwrap();
        let dead_net = nl.gate(nl.gate_ids().next().unwrap()).output;
        let mut atpg = Atpg::new(&nl);
        assert_eq!(
            atpg.generate(Fault::net_sa1(dead_net), 10_000),
            AtpgResult::Redundant
        );
    }

    #[test]
    fn atpg_agrees_with_exhaustive_simulation() {
        let nl = adder4();
        let universe = FaultUniverse::collapsed(&nl);
        let mut atpg = Atpg::new(&nl);
        let class = atpg.classify(universe.faults(), 10_000);
        let mut sim = ParFaultSimulator::new(&nl, universe.faults().to_vec());
        let report = sim.run_exhaustive();
        assert_eq!(class.detectable_count(), report.detected_count());
    }

    #[test]
    fn xor_tree_faults_are_testable() {
        let mut b = NetlistBuilder::new("xt");
        let bits = b.input_word("x", 5);
        let mut acc = bits[0];
        for &bit in &bits[1..] {
            acc = b.xor2(acc, bit);
        }
        b.output("p", acc);
        let nl = b.finish().unwrap();
        let universe = FaultUniverse::collapsed(&nl);
        let mut atpg = Atpg::new(&nl);
        let class = atpg.classify(universe.faults(), 10_000);
        assert!(class.redundant.is_empty());
        assert!(class.aborted.is_empty());
    }
}
