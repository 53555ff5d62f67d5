//! Redundancy proved by implication, without a search.
//!
//! Every test for a stuck-at fault sets some good-machine values — the
//! fault's *mandatory assignments*:
//!
//! * the activation value at the fault site;
//! * for a pin fault, the non-controlling value on every other pin of the
//!   faulted gate;
//! * the non-controlling value on every side input of each gate on the
//!   site's immediate-post-dominator chain. Every path from the site to a
//!   primary output passes through those gates, so each must pass the
//!   error on. A side input is an operand outside the fault's fanout
//!   cone: it holds the same value in both machines, and a controlling
//!   value there would block the error. This is FAN's unique
//!   sensitization (Fujiwara & Shimono, 1983).
//!
//! [`ImplicationCheck`] assigns them in the ternary [`Tv`] domain and
//! implies them forward and backward over the compiled [`EvalProgram`],
//! as SOCRATES does without its learning step (Schulz, Trischler &
//! Sarfert, 1988). A conflict means that no input pattern meets every
//! mandatory assignment, so the fault is redundant. The check is
//! incomplete: a redundancy that needs case analysis, such as `a - a`,
//! implies no conflict and is left to PODEM ([`crate::atpg`]).

use crate::fault::{Fault, FaultSite};
use bibs_netlist::analysis::{eval_tv, Tv};
use bibs_netlist::EvalProgram;

/// The post-dominator of a slot with no path to a primary output.
const UNOBSERVABLE: u32 = u32::MAX;

/// Two mandatory values met on one slot.
#[derive(Debug)]
struct Conflict;

/// The implication check on one compiled combinational program.
///
/// The post-dominators are built once, by [`ImplicationCheck::new`].
/// Each [`ImplicationCheck::proves_redundant`] call then starts from what
/// the program's constants imply and undoes its own assignments before
/// it returns, so a verdict does not depend on the order faults are
/// asked in.
#[derive(Debug)]
pub struct ImplicationCheck<'p> {
    program: &'p EvalProgram,
    /// Each slot's immediate post-dominator: the first instruction that
    /// every path from the slot to a primary output passes through. It is
    /// the instruction count (a virtual sink after the outputs) when no
    /// instruction does, and [`UNOBSERVABLE`] when no path exists.
    ipdom: Vec<u32>,
    /// Good-machine values: what the constants imply, plus the current
    /// check's assignments.
    values: Vec<Tv>,
    /// The slots the current check assigned, in order. Implication works
    /// through them as a queue.
    trail: Vec<u32>,
    /// Per-slot marks of the fault's fanout cone: a slot is in the cone
    /// when its mark equals `stamp`.
    cone: Vec<u32>,
    stamp: u32,
    /// The cone walk's stack of slots.
    walk: Vec<u32>,
}

impl<'p> ImplicationCheck<'p> {
    /// Builds the post-dominators of `program` and implies its constants.
    ///
    /// # Panics
    ///
    /// Panics if the program is sequential; compile the combinational
    /// equivalent.
    pub fn new(program: &'p EvalProgram) -> Self {
        assert!(
            program.dff_slots().is_empty(),
            "the implication check is combinational-only"
        );
        let slots = program.slot_count();
        let mut check = ImplicationCheck {
            program,
            ipdom: post_dominators(program),
            values: vec![Tv::X; slots],
            trail: Vec::new(),
            cone: vec![0; slots],
            stamp: 0,
            walk: Vec::new(),
        };
        // What the constants imply holds for every pattern, so it stays
        // between checks.
        for &(slot, word) in program.const_inits() {
            check
                .assign(slot as usize, Tv::from_bool(word != 0))
                .expect("a slot has one constant");
        }
        check
            .propagate()
            .expect("constants alone imply no conflict");
        check.trail.clear();
        check
    }

    /// Whether `fault`'s mandatory assignments imply a conflict, which
    /// proves the fault redundant. `false` leaves the fault undecided.
    pub fn proves_redundant(&mut self, fault: Fault) -> bool {
        let conflict = self
            .assign_mandatory(fault)
            .and_then(|()| self.propagate())
            .is_err();
        for s in self.trail.drain(..) {
            self.values[s as usize] = Tv::X;
        }
        conflict
    }

    /// Assigns `fault`'s mandatory values. An error that can reach no
    /// primary output is a conflict too.
    fn assign_mandatory(&mut self, fault: Fault) -> Result<(), Conflict> {
        let p = self.program;
        let active = Tv::from_bool(!fault.stuck_at);
        let start = match fault.site {
            FaultSite::Net(n) => {
                self.assign(n.index(), active)?;
                n.index()
            }
            FaultSite::GatePin { gate, pin } => {
                let instr = p.instr(p.instr_of_gate(gate));
                self.assign(instr.operands[pin] as usize, active)?;
                if let Some(c) = instr.kind.controlling_value() {
                    for (q, &s) in instr.operands.iter().enumerate() {
                        if q != pin {
                            self.assign(s as usize, Tv::from_bool(!c))?;
                        }
                    }
                }
                instr.out as usize
            }
        };
        let sink = p.instr_count() as u32;
        let mut d = self.ipdom[start];
        if d == UNOBSERVABLE {
            return Err(Conflict);
        }
        self.mark_cone(start);
        while d != sink {
            let instr = p.instr(d as usize);
            if let Some(c) = instr.kind.controlling_value() {
                for &s in instr.operands {
                    if self.cone[s as usize] != self.stamp {
                        self.assign(s as usize, Tv::from_bool(!c))?;
                    }
                }
            }
            d = self.ipdom[instr.out as usize];
        }
        Ok(())
    }

    /// Marks the slots reachable from `start`, `start` included.
    fn mark_cone(&mut self, start: usize) {
        let p = self.program;
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.cone.fill(0);
            self.stamp = 1;
        }
        self.cone[start] = self.stamp;
        self.walk.push(start as u32);
        while let Some(s) = self.walk.pop() {
            for &(r, _) in p.readers(s as usize) {
                let out = p.instr(r as usize).out as usize;
                if self.cone[out] != self.stamp {
                    self.cone[out] = self.stamp;
                    self.walk.push(out as u32);
                }
            }
        }
    }

    /// Gives slot `s` the value `v`, queueing it if it was unknown.
    fn assign(&mut self, s: usize, v: Tv) -> Result<(), Conflict> {
        match self.values[s] {
            Tv::X => {
                self.values[s] = v;
                self.trail.push(s as u32);
                Ok(())
            }
            held if held == v => Ok(()),
            _ => Err(Conflict),
        }
    }

    /// Implies every queued slot: each of its readers, and the
    /// instruction that writes it.
    fn propagate(&mut self) -> Result<(), Conflict> {
        let p = self.program;
        let mut head = 0;
        while let Some(&s) = self.trail.get(head) {
            head += 1;
            for &(r, _) in p.readers(s as usize) {
                self.imply(r as usize)?;
            }
            if let Some(i) = p.instr_of_slot(s as usize) {
                self.imply(i)?;
            }
        }
        Ok(())
    }

    /// Implies instruction `i` forward (its output from its operands) and
    /// backward (operands from a known output): an `AND` at 1 sets every
    /// input to 1, and an `AND` at 0 whose inputs are 1 but one unknown
    /// sets that input to 0; `OR`, `NAND` and `NOR` are the duals. The
    /// parity gates, `NOT` and `BUF` included, set their last unknown
    /// input.
    fn imply(&mut self, i: usize) -> Result<(), Conflict> {
        let instr = self.program.instr(i);
        let out = instr.out as usize;
        let forward = eval_tv(
            instr.kind,
            instr.operands.iter().map(|&s| self.values[s as usize]),
        );
        if forward != Tv::X {
            self.assign(out, forward)?;
        }
        let Some(v) = self.values[out].constant() else {
            return Ok(());
        };
        // The output before the gate's inversion.
        let inner = v != instr.kind.is_inverting();
        let control = instr.kind.controlling_value();
        if let Some(c) = control {
            if inner != c {
                for &s in instr.operands {
                    self.assign(s as usize, Tv::from_bool(!c))?;
                }
                return Ok(());
            }
        }
        let (mut unknown, mut parity) = (None, inner);
        for &s in instr.operands {
            match self.values[s as usize].constant() {
                None if unknown.is_some() => return Ok(()),
                None => unknown = Some(s as usize),
                Some(x) if Some(x) == control => return Ok(()),
                Some(x) => parity ^= x,
            }
        }
        match unknown {
            Some(s) => self.assign(s, Tv::from_bool(control.unwrap_or(parity))),
            None => Ok(()),
        }
    }
}

/// Every slot's immediate post-dominator, in one pass over the slots in
/// [`EvalProgram::readers_first`] order, so every reader's output is
/// done before the slots it reads: a slot's is the meet of its readers
/// and, for a primary output, of the virtual sink.
fn post_dominators(program: &EvalProgram) -> Vec<u32> {
    let sink = program.instr_count() as u32;
    let mut ipdom = vec![UNOBSERVABLE; program.slot_count()];
    for s in program.readers_first() {
        let mut d = if program.is_output(s) {
            sink
        } else {
            UNOBSERVABLE
        };
        for &(r, _) in program.readers(s) {
            if ipdom[program.instr(r as usize).out as usize] == UNOBSERVABLE {
                continue;
            }
            d = if d == UNOBSERVABLE {
                r
            } else {
                meet(&ipdom, program, d, r)
            };
        }
        ipdom[s] = d;
    }
    ipdom
}

/// The nearest common post-dominator of instructions `a` and `b` (or the
/// sink). A post-dominator comes later in the schedule than what it
/// post-dominates, and the sink last, so the finger at the earlier
/// instruction climbs until the two meet.
fn meet(ipdom: &[u32], program: &EvalProgram, mut a: u32, mut b: u32) -> u32 {
    while a != b {
        if a < b {
            a = ipdom[program.instr(a as usize).out as usize];
        } else {
            b = ipdom[program.instr(b as usize).out as usize];
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use bibs_netlist::builder::NetlistBuilder;

    #[test]
    fn post_dominators_meet_at_reconvergence_and_the_sink() {
        // s fans out to g1 and g2, which reconverge at y = OR(g1, g2);
        // z = NOT s is a second output and `dead` reaches none.
        let mut b = NetlistBuilder::new("pdom");
        let (a, c, s) = (b.input("a"), b.input("b"), b.input("s"));
        let g1 = b.and2(a, s);
        let g2 = b.and2(c, s);
        let y = b.or2(g1, g2);
        let z = b.not(s);
        let dead = b.and2(a, c);
        b.output("y", y);
        b.output("z", z);
        let nl = b.finish().unwrap();
        let p = EvalProgram::compile(&nl).unwrap();
        let ipdom = post_dominators(&p);
        let sink = p.instr_count() as u32;
        let writer = |n: bibs_netlist::NetId| p.instr_of_slot(n.index()).unwrap() as u32;
        assert_eq!(ipdom[g1.index()], writer(y));
        assert_eq!(ipdom[a.index()], writer(g1), "dead reaches no output");
        assert_eq!(ipdom[y.index()], sink);
        assert_eq!(ipdom[s.index()], sink, "s reaches y and z apart");
        assert_eq!(ipdom[dead.index()], UNOBSERVABLE);
    }
}
