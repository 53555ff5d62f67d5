//! The single-stuck-at fault model, structural equivalence collapsing,
//! and the static untestability bridge from [`bibs_netlist::analysis`] to
//! [`Fault`]s.

use bibs_netlist::analysis::{
    observable_mask, ternary_analyze, PiAssumption, Prover, Scoap, SiteVerdict, TernaryAbs,
};
use bibs_netlist::{EvalProgram, GateId, GateKind, NetDriver, NetId, Netlist};
use std::fmt;

/// Where a stuck-at fault sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FaultSite {
    /// On a net's driver output (the *stem*): affects every reader of the
    /// net. Used for gate outputs, primary inputs and constants.
    Net(NetId),
    /// On one input pin of one gate (a fanout *branch*): affects only that
    /// gate.
    GatePin {
        /// The gate whose pin is faulty.
        gate: GateId,
        /// The pin index into the gate's input list.
        pin: usize,
    },
}

/// A single stuck-at fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fault {
    /// Where the fault sits.
    pub site: FaultSite,
    /// The stuck value: `true` = stuck-at-1, `false` = stuck-at-0.
    pub stuck_at: bool,
}

impl Fault {
    /// Stuck-at-0 on a net stem.
    pub fn net_sa0(net: NetId) -> Self {
        Fault {
            site: FaultSite::Net(net),
            stuck_at: false,
        }
    }

    /// Stuck-at-1 on a net stem.
    pub fn net_sa1(net: NetId) -> Self {
        Fault {
            site: FaultSite::Net(net),
            stuck_at: true,
        }
    }

    /// Stuck-at-`stuck_at` on a net stem.
    pub fn net(net: NetId, stuck_at: bool) -> Self {
        Fault {
            site: FaultSite::Net(net),
            stuck_at,
        }
    }

    /// Stuck-at-`v` on a gate input pin.
    pub fn pin(gate: GateId, pin: usize, stuck_at: bool) -> Self {
        Fault {
            site: FaultSite::GatePin { gate, pin },
            stuck_at,
        }
    }

    /// Where the fault acts in `program`, compiled from the fault's
    /// netlist: every reader of the compiled program (the fault
    /// simulators, the implication check, PODEM, the observability split,
    /// the static analysis and lint B042) loads a fault through this.
    ///
    /// # Panics
    ///
    /// Panics if the fault's net, gate or pin is out of range.
    pub fn locate(&self, program: &EvalProgram) -> Location {
        match self.site {
            FaultSite::Net(n) => Location {
                slot: n.index(),
                pin: None,
                out: n.index(),
            },
            FaultSite::GatePin { gate, pin } => {
                let instr = program.instr_of_gate(gate);
                let ins = program.instr(instr);
                Location {
                    slot: ins.operands[pin] as usize,
                    pin: Some((instr, pin)),
                    out: ins.out as usize,
                }
            }
        }
    }
}

/// Where a [`Fault`] acts in an [`EvalProgram`]: what [`Fault::locate`]
/// returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Location {
    /// The slot whose good value activates the fault: the faulted net, or
    /// the operand slot a pin fault reads.
    pub slot: usize,
    /// For a pin fault, the instruction and the operand position (gate
    /// pin) it forces; `None` for a net fault, which forces `slot`.
    pub pin: Option<(usize, usize)>,
    /// The slot the fault's effect leaves from: the faulted net itself,
    /// or the faulted gate's output.
    pub out: usize,
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let v = self.stuck_at as u8;
        match self.site {
            FaultSite::Net(n) => write!(f, "{n}/sa{v}"),
            FaultSite::GatePin { gate, pin } => write!(f, "{gate}.in{pin}/sa{v}"),
        }
    }
}

/// A set of faults for a netlist, with provenance statistics.
#[derive(Debug, Clone)]
pub struct FaultUniverse {
    faults: Vec<Fault>,
    uncollapsed_count: usize,
}

impl FaultUniverse {
    /// Every single-stuck-at fault of the netlist, uncollapsed:
    /// both polarities on every gate output, every gate input pin, and
    /// every primary input stem.
    pub fn full(netlist: &Netlist) -> Self {
        let mut faults = Vec::new();
        for &pi in netlist.inputs() {
            faults.push(Fault::net_sa0(pi));
            faults.push(Fault::net_sa1(pi));
        }
        for gid in netlist.gate_ids() {
            let gate = netlist.gate(gid);
            faults.push(Fault::net_sa0(gate.output));
            faults.push(Fault::net_sa1(gate.output));
            for pin in 0..gate.inputs.len() {
                faults.push(Fault::pin(gid, pin, false));
                faults.push(Fault::pin(gid, pin, true));
            }
        }
        let n = faults.len();
        FaultUniverse {
            faults,
            uncollapsed_count: n,
        }
    }

    /// The structurally collapsed fault set.
    ///
    /// Classic equivalence rules, each keeping the gate-output
    /// representative:
    ///
    /// * AND: output sa0 ≡ every input sa0; NAND: output sa1 ≡ input sa0;
    /// * OR: output sa1 ≡ every input sa1; NOR: output sa0 ≡ input sa1;
    /// * NOT: output sa-v ≡ input sa-v̄; BUF: output sa-v ≡ input sa-v
    ///   (both input faults dropped);
    /// * on fanout-free nets, a branch pin fault is equivalent to the stem
    ///   fault of the same polarity and is dropped.
    pub fn collapsed(netlist: &Netlist) -> Self {
        let full = FaultUniverse::full(netlist);
        let uncollapsed_count = full.faults.len();

        // Fanout count per net (how many gate pins read it).
        let mut readers = vec![0usize; netlist.net_count()];
        for gid in netlist.gate_ids() {
            for &i in &netlist.gate(gid).inputs {
                readers[i.index()] += 1;
            }
        }
        for &o in netlist.outputs() {
            readers[o.index()] += 1;
        }

        let keep = |f: &Fault| -> bool {
            match f.site {
                FaultSite::Net(_) => true,
                FaultSite::GatePin { gate, pin } => {
                    let g = netlist.gate(gate);
                    let input_net = g.inputs[pin];
                    let fanout_free = readers[input_net.index()] == 1;
                    // Rule 1: controlling-value input faults are equivalent
                    // to the corresponding output fault.
                    let equiv_to_output = match g.kind {
                        GateKind::And | GateKind::Nand => !f.stuck_at,
                        GateKind::Or | GateKind::Nor => f.stuck_at,
                        GateKind::Not | GateKind::Buf => true,
                        GateKind::Xor | GateKind::Xnor => false,
                    };
                    if equiv_to_output {
                        return false;
                    }
                    // Rule 2: on a fanout-free connection the remaining pin
                    // fault is equivalent to the stem fault (same polarity
                    // for non-inverting view of the wire itself).
                    if fanout_free {
                        // The stem fault exists iff the net is a gate output
                        // or a primary input; constants have no stem faults
                        // but a stuck constant is meaningless anyway.
                        match netlist.driver(input_net) {
                            NetDriver::Gate(_) | NetDriver::Input(_) => return false,
                            _ => {}
                        }
                    }
                    true
                }
            }
        };
        let faults: Vec<Fault> = full.faults.into_iter().filter(|f| keep(f)).collect();
        FaultUniverse {
            faults,
            uncollapsed_count,
        }
    }

    /// The faults in this universe.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Number of faults after collapsing.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether the universe is empty.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Number of faults before collapsing.
    pub fn uncollapsed_count(&self) -> usize {
        self.uncollapsed_count
    }

    /// Collapse ratio (collapsed / uncollapsed).
    pub fn collapse_ratio(&self) -> f64 {
        if self.uncollapsed_count == 0 {
            1.0
        } else {
            self.faults.len() as f64 / self.uncollapsed_count as f64
        }
    }

    /// Splits the universe into (observable, structurally-unobservable)
    /// fault lists.
    ///
    /// A fault is structurally unobservable when no path of nets leads from
    /// its site to any observation point — the dominant redundancy class in
    /// the paper's datapaths, where multipliers compute full products but
    /// only the low half feeds the next register. Filtering these before
    /// simulation avoids dragging provably dead faults through every
    /// pattern block.
    ///
    /// The reachability sweep is
    /// [`bibs_netlist::analysis::observable_mask`] — one backward pass over
    /// the compiled instruction stream. A fault is observable iff the slot
    /// its effect leaves from ([`Location::out`]) is: a gate-pin fault's
    /// is its gate's output.
    pub fn split_by_observability(&self, program: &EvalProgram) -> (Vec<Fault>, Vec<Fault>) {
        let mask = observable_mask(program);
        self.faults
            .iter()
            .partition(|f| mask[f.locate(program).out])
    }
}

/// Bridge from the semantic analyses in [`bibs_netlist::analysis`] to the
/// fault model: runs the ternary abstract interpretation and the seeded
/// SCOAP sweeps once, then answers static-untestability queries per
/// [`Fault`].
///
/// Faults with a [`SiteVerdict`] are provably undetectable by *any*
/// pattern. `bibs-lint --semantic` reports them, and fuzz oracle 3 checks
/// the verdicts against exhaustive simulation. The Table 2 pipeline does
/// not run it: PODEM retires every fault it proves there.
///
/// Soundness: every verdict carries a witness (implication chain) and the
/// underlying lattice only over-approximates, so a verdict is a proof —
/// the oracle suite cross-checks this against exhaustive simulation.
pub struct StaticFaultAnalysis {
    abs: TernaryAbs,
    scoap: Scoap,
}

impl StaticFaultAnalysis {
    /// Runs the ternary analysis (all-X primary inputs, one case-split
    /// round) and the constant-seeded SCOAP sweeps over `program`.
    pub fn new(program: &EvalProgram) -> Self {
        let abs = ternary_analyze(program, &PiAssumption::AllX);
        let scoap = Scoap::compute_with(program, Some(&abs));
        StaticFaultAnalysis { abs, scoap }
    }

    /// The ternary abstraction the verdicts are based on.
    pub fn abs(&self) -> &TernaryAbs {
        &self.abs
    }

    /// The seeded SCOAP measures the verdicts are based on.
    pub fn scoap(&self) -> &Scoap {
        &self.scoap
    }

    /// A static untestability proof for `fault`, or `None` when the
    /// analysis cannot decide (the fault may still be redundant — that is
    /// for ATPG or exhaustive simulation to find out).
    pub fn verdict(&self, program: &EvalProgram, fault: Fault) -> Option<SiteVerdict> {
        let prover = Prover::new(program, &self.abs, &self.scoap);
        let at = fault.locate(program);
        match at.pin {
            None => prover.prove_stem(at.slot, fault.stuck_at),
            Some((instr, pin)) => prover.prove_pin(instr, pin, fault.stuck_at),
        }
    }

    /// Splits `faults` (order preserved on both sides) into the list to
    /// hand to a simulator and the statically-proven-untestable faults
    /// with their verdicts.
    pub fn partition(
        &self,
        program: &EvalProgram,
        faults: &[Fault],
    ) -> (Vec<Fault>, Vec<(Fault, SiteVerdict)>) {
        let mut to_sim = Vec::with_capacity(faults.len());
        let mut untestable = Vec::new();
        for &f in faults {
            match self.verdict(program, f) {
                Some(v) => untestable.push((f, v)),
                None => to_sim.push(f),
            }
        }
        (to_sim, untestable)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bibs_netlist::builder::NetlistBuilder;

    fn small_and() -> Netlist {
        let mut b = NetlistBuilder::new("and");
        let a = b.input("a");
        let c = b.input("b");
        let y = b.and2(a, c);
        b.output("y", y);
        b.finish().unwrap()
    }

    #[test]
    fn full_universe_counts() {
        let nl = small_and();
        let u = FaultUniverse::full(&nl);
        // 2 PI stems ×2 + 1 gate output ×2 + 2 pins ×2 = 10.
        assert_eq!(u.len(), 10);
    }

    #[test]
    fn collapsing_drops_equivalent_and_faults() {
        let nl = small_and();
        let u = FaultUniverse::collapsed(&nl);
        // Kept: a/sa0, a/sa1, b/sa0, b/sa1, y/sa0, y/sa1.
        // Dropped: pin sa0 (≡ y/sa0) and pin sa1 (fanout-free ≡ stem sa1).
        assert_eq!(u.len(), 6);
        assert!(u.collapse_ratio() < 1.0);
        assert_eq!(u.uncollapsed_count(), 10);
    }

    #[test]
    fn fanout_branches_keep_noncontrolling_faults() {
        // One input feeds two AND gates: its sa1 branch faults are NOT
        // equivalent to the stem sa1 (they differ in scope), so they stay.
        let mut b = NetlistBuilder::new("fan");
        let a = b.input("a");
        let c = b.input("b");
        let d = b.input("c");
        let y1 = b.and2(a, c);
        let y2 = b.and2(a, d);
        b.output("y1", y1);
        b.output("y2", y2);
        let nl = b.finish().unwrap();
        let u = FaultUniverse::collapsed(&nl);
        let branch_sa1 = u
            .faults()
            .iter()
            .filter(|f| matches!(f.site, FaultSite::GatePin { .. }) && f.stuck_at)
            .count();
        // Pin faults on the fanout net 'a' (two branches) survive; the
        // fanout-free pins b, c collapse into their stems.
        assert_eq!(branch_sa1, 2);
    }

    #[test]
    fn xor_pins_do_not_collapse() {
        let mut b = NetlistBuilder::new("x");
        let a = b.input("a");
        let c = b.input("b");
        let y = b.xor2(a, c);
        b.output("y", y);
        let nl = b.finish().unwrap();
        let u = FaultUniverse::collapsed(&nl);
        // XOR has no controlling value; only the fanout-free rule fires,
        // collapsing pin faults into PI stems: a,b,y stems ×2 = 6.
        assert_eq!(u.len(), 6);
    }

    #[test]
    fn locate_reads_where_a_fault_acts_in_the_program() {
        // y = a AND b: a net fault acts on and leaves from its own slot; a
        // pin fault is activated on its operand's slot, forces that one
        // operand of the gate's instruction and leaves from the output.
        let nl = small_and();
        let prog = EvalProgram::compile(&nl).unwrap();
        let (b, y) = (nl.inputs()[1], nl.outputs()[0]);
        let gate = nl.gate_ids().next().unwrap();
        assert_eq!(
            Fault::net_sa0(y).locate(&prog),
            Location {
                slot: y.index(),
                pin: None,
                out: y.index()
            }
        );
        assert_eq!(
            Fault::pin(gate, 1, true).locate(&prog),
            Location {
                slot: b.index(),
                pin: Some((prog.instr_of_gate(gate), 1)),
                out: y.index()
            }
        );
    }

    #[test]
    fn split_by_observability_uses_compiled_sweep() {
        // y observed, dead OR cone unobservable (gate output + its pins).
        let mut b = NetlistBuilder::new("o");
        let a = b.input("a");
        let c = b.input("b");
        let y = b.and2(a, c);
        let _dead = b.or2(a, c);
        b.output("y", y);
        let nl = b.finish().unwrap();
        let prog = EvalProgram::compile(&nl).unwrap();
        let u = FaultUniverse::full(&nl);
        let (obs, unobs) = u.split_by_observability(&prog);
        assert_eq!(obs.len() + unobs.len(), u.len());
        // Dead: OR output ×2 + OR pins ×4 = 6.
        assert_eq!(unobs.len(), 6);
        for f in &unobs {
            match f.site {
                FaultSite::Net(n) => assert_ne!(n, y),
                FaultSite::GatePin { gate, .. } => {
                    assert_eq!(nl.gate(gate).kind, GateKind::Or)
                }
            }
        }
    }

    #[test]
    fn static_analysis_partitions_dead_cone_faults() {
        // The dead OR cone is unobservable: the static analysis must
        // prove all 6 of its faults untestable with witnesses, and leave
        // the live AND cone alone.
        let mut b = NetlistBuilder::new("o");
        let a = b.input("a");
        let c = b.input("b");
        let y = b.and2(a, c);
        let _dead = b.or2(a, c);
        b.output("y", y);
        let nl = b.finish().unwrap();
        let prog = EvalProgram::compile(&nl).unwrap();
        let sfa = StaticFaultAnalysis::new(&prog);
        let u = FaultUniverse::full(&nl);
        let (to_sim, untestable) = sfa.partition(&prog, u.faults());
        assert_eq!(to_sim.len() + untestable.len(), u.len());
        assert_eq!(untestable.len(), 6);
        for (f, v) in &untestable {
            match f.site {
                FaultSite::Net(n) => assert_ne!(n, y),
                FaultSite::GatePin { gate, .. } => {
                    assert_eq!(nl.gate(gate).kind, GateKind::Or)
                }
            }
            assert!(
                !v.witness.steps.is_empty(),
                "verdict for {f} must carry a witness"
            );
        }
        // Order is preserved on the simulate side.
        let sim_positions: Vec<usize> = to_sim
            .iter()
            .map(|f| u.faults().iter().position(|g| g == f).unwrap())
            .collect();
        assert!(sim_positions.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn display_is_informative() {
        let nl = small_and();
        let u = FaultUniverse::full(&nl);
        let s: Vec<String> = u.faults().iter().map(|f| f.to_string()).collect();
        assert!(s.iter().any(|x| x.contains("/sa0")));
        assert!(s.iter().any(|x| x.contains(".in0/sa1")));
    }
}
