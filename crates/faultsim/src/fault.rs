//! The single-stuck-at fault model, structural equivalence collapsing,
//! dominance-style class collapsing over the compiled IR, and the static
//! untestability bridge from [`bibs_netlist::analysis`] to [`Fault`]s.

use bibs_netlist::analysis::{
    observable_mask, ternary_analyze, PiAssumption, Prover, Scoap, SiteVerdict, TernaryAbs,
};
use bibs_netlist::{EvalProgram, GateId, GateKind, NetDriver, NetId, Netlist};
use std::collections::HashMap;
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
    /// the compiled instruction stream (a gate-pin fault is observable iff
    /// its gate's output slot is).
    pub fn split_by_observability(&self, program: &EvalProgram) -> (Vec<Fault>, Vec<Fault>) {
        let mask = observable_mask(program);
        self.faults.iter().partition(|f| match f.site {
            FaultSite::Net(n) => mask[n.index()],
            FaultSite::GatePin { gate, .. } => {
                mask[program.instr(program.instr_of_gate(gate)).out as usize]
            }
        })
    }

    /// Collapses this universe into functional-equivalence classes over
    /// the compiled schedule (see [`DominanceCollapse::build`]); the
    /// returned map lets reports be expanded back to this universe.
    pub fn dominance_collapsed(&self, program: &EvalProgram) -> DominanceCollapse {
        DominanceCollapse::build(&self.faults, program)
    }
}

/// Functional-equivalence fault classes over a compiled program, with a
/// representative→class map for expanding per-representative results back
/// to the full list.
///
/// Built by merging faults whose *faulty circuits are identical functions*
/// (so their detection history under any pattern stream is identical
/// pattern-for-pattern — the expansion is exact, not approximate):
///
/// * a controlling-value pin fault forces the gate output exactly like the
///   corresponding output stem fault (`and.in_p/sa0 ≡ out/sa0`,
///   `nand.in_p/sa0 ≡ out/sa1`, OR/NOR dually);
/// * a pin fault on a NOT/BUF forces the output for both polarities;
/// * a stem read by exactly one observer (a single gate pin, no primary
///   output, no flip-flop D) is indistinguishable from that pin
///   (`stem/sa-v ≡ pin/sa-v`), which also closes the chain rule for
///   already-collapsed universes whose pin faults were dropped.
///
/// The classes are the transitive closure of those rules (a union-find
/// over the fault list); each class is simulated once through its
/// representative — the member with the smallest universe index.
#[derive(Debug, Clone)]
pub struct DominanceCollapse {
    /// The universe this collapse was built over.
    faults: Vec<Fault>,
    /// Universe index → universe index of the class representative.
    rep_of: Vec<u32>,
    /// Sorted universe indices of the representatives.
    reps: Vec<u32>,
    /// Class members per representative (parallel to `reps`), each sorted.
    members: Vec<Vec<u32>>,
}

impl DominanceCollapse {
    /// Builds the equivalence classes for `faults` over `program`.
    ///
    /// The list may be any subset of the full universe (full, collapsed,
    /// or a filtered survivor list) — rules only merge faults that are
    /// both present.
    pub fn build(faults: &[Fault], program: &EvalProgram) -> DominanceCollapse {
        let index: HashMap<Fault, u32> = faults
            .iter()
            .enumerate()
            .map(|(i, &f)| (f, i as u32))
            .collect();

        // Union-find with the minimum universe index as representative.
        let mut parent: Vec<u32> = (0..faults.len() as u32).collect();
        fn find(parent: &mut [u32], mut i: u32) -> u32 {
            while parent[i as usize] != i {
                parent[i as usize] = parent[parent[i as usize] as usize];
                i = parent[i as usize];
            }
            i
        }
        let union = |parent: &mut [u32], a: Fault, b: Fault| {
            let (Some(&ia), Some(&ib)) = (index.get(&a), index.get(&b)) else {
                return;
            };
            let (ra, rb) = (find(parent, ia), find(parent, ib));
            if ra != rb {
                // Smaller index becomes the root ⇒ representative = min.
                let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
                parent[hi as usize] = lo;
            }
        };

        // Observer count per slot: operand reads + primary-output reads +
        // flip-flop D reads. A stem with exactly one *operand* observer
        // and no other observation collapses into that pin.
        let mut extra = vec![0usize; program.slot_count()];
        for &o in program.output_slots() {
            extra[o as usize] += 1;
        }
        for &(_, d) in program.dff_slots() {
            extra[d as usize] += 1;
        }
        let sole_reader =
            |slot: usize| -> bool { program.readers(slot).len() == 1 && extra[slot] == 0 };

        for i in 0..program.instr_count() {
            let instr = program.instr(i);
            let inv = instr.kind.is_inverting();
            let out = NetId::from_index(instr.out as usize);
            let ctrl = instr.kind.controlling_value();
            for (pin, &s) in instr.operands.iter().enumerate() {
                let slot = s as usize;
                let stem = NetId::from_index(slot);
                // Fanout-free connection: stem ≡ pin, both polarities.
                if sole_reader(slot) {
                    for v in [false, true] {
                        union(
                            &mut parent,
                            Fault::net(stem, v),
                            Fault::pin(instr.gate, pin, v),
                        );
                    }
                }
                // Controlling-value pin ≡ output stem.
                if let Some(c) = ctrl {
                    union(
                        &mut parent,
                        Fault::pin(instr.gate, pin, c),
                        Fault::net(out, c ^ inv),
                    );
                    if sole_reader(slot) {
                        // Chain rule for lists whose pin faults were
                        // dropped by equivalence collapsing.
                        union(&mut parent, Fault::net(stem, c), Fault::net(out, c ^ inv));
                    }
                }
                // NOT/BUF forward everything: pin ≡ output, both values.
                if instr.kind.is_unary() {
                    for v in [false, true] {
                        union(
                            &mut parent,
                            Fault::pin(instr.gate, pin, v),
                            Fault::net(out, v ^ inv),
                        );
                        if sole_reader(slot) {
                            union(&mut parent, Fault::net(stem, v), Fault::net(out, v ^ inv));
                        }
                    }
                }
            }
        }

        let rep_of: Vec<u32> = (0..faults.len() as u32)
            .map(|i| find(&mut parent, i))
            .collect();
        let mut reps: Vec<u32> = rep_of.clone();
        reps.sort_unstable();
        reps.dedup();
        let mut members: Vec<Vec<u32>> = vec![Vec::new(); reps.len()];
        for (i, &r) in rep_of.iter().enumerate() {
            let pos = reps.binary_search(&r).expect("rep present");
            members[pos].push(i as u32);
        }

        DominanceCollapse {
            faults: faults.to_vec(),
            rep_of,
            reps,
            members,
        }
    }

    /// [`DominanceCollapse::build`] recorded as a `"collapse"` telemetry
    /// span: the span's wall time plus the `dominance_classes` counter
    /// (one per equivalence class produced). The input size is *not*
    /// re-counted here — the pipeline's `universe_faults` counter already
    /// covers it.
    pub fn build_traced(
        faults: &[Fault],
        program: &EvalProgram,
        rec: &mut bibs_obs::Recorder,
    ) -> DominanceCollapse {
        let span = rec.enter("collapse");
        let collapse = DominanceCollapse::build(faults, program);
        rec.add(
            bibs_obs::CounterId::DominanceClasses,
            collapse.rep_count() as u64,
        );
        rec.exit(span);
        collapse
    }

    /// The universe the collapse was built over.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Number of faults in the universe.
    pub fn universe_len(&self) -> usize {
        self.faults.len()
    }

    /// Number of equivalence classes (faults that must be simulated).
    pub fn rep_count(&self) -> usize {
        self.reps.len()
    }

    /// The representative faults, in universe order — the list to hand to
    /// a fault simulator.
    pub fn representative_faults(&self) -> Vec<Fault> {
        self.reps.iter().map(|&r| self.faults[r as usize]).collect()
    }

    /// The universe index of the representative of fault `idx`.
    pub fn rep_of(&self, idx: usize) -> usize {
        self.rep_of[idx] as usize
    }

    /// The universe indices forming the class of representative number
    /// `rep_pos` (position into [`DominanceCollapse::representative_faults`]).
    pub fn class_members(&self, rep_pos: usize) -> &[u32] {
        &self.members[rep_pos]
    }

    /// Expands a per-representative detection vector (aligned with
    /// [`DominanceCollapse::representative_faults`]) back to the full
    /// universe: every class member inherits its representative's result.
    ///
    /// Exact because class members have identical faulty functions — the
    /// first detecting pattern index is shared by the whole class.
    ///
    /// # Panics
    ///
    /// Panics if `rep_detection.len() != rep_count()`.
    pub fn expand_detection(&self, rep_detection: &[Option<u64>]) -> Vec<Option<u64>> {
        assert_eq!(
            rep_detection.len(),
            self.reps.len(),
            "one detection entry per representative required"
        );
        self.rep_of
            .iter()
            .map(|&r| {
                let pos = self.reps.binary_search(&r).expect("rep present");
                rep_detection[pos]
            })
            .collect()
    }

    /// [`DominanceCollapse::expand_detection`] recorded as an `"expand"`
    /// telemetry span with the `faults_expanded` counter (one per universe
    /// fault receiving a result).
    pub fn expand_detection_traced(
        &self,
        rep_detection: &[Option<u64>],
        rec: &mut bibs_obs::Recorder,
    ) -> Vec<Option<u64>> {
        let span = rec.enter("expand");
        let full = self.expand_detection(rep_detection);
        rec.add(bibs_obs::CounterId::FaultsExpanded, full.len() as u64);
        rec.exit(span);
        full
    }

    /// Fraction of the universe that still needs simulation
    /// (`rep_count / universe_len`; `1.0` for an empty universe).
    pub fn shrink_ratio(&self) -> f64 {
        if self.faults.is_empty() {
            1.0
        } else {
            self.reps.len() as f64 / self.faults.len() as f64
        }
    }
}

/// Bridge from the semantic analyses in [`bibs_netlist::analysis`] to the
/// fault model: runs the ternary abstract interpretation and the seeded
/// SCOAP sweeps once, then answers static-untestability queries per
/// [`Fault`].
///
/// The engines and the bench pipeline share this wiring point: faults with
/// a [`SiteVerdict`] are provably undetectable by *any* pattern and can be
/// skipped without simulating anything (counted in
/// [`SimStats::untestable_static`](crate::stats::SimStats::untestable_static)).
///
/// Soundness: every verdict carries a witness (implication chain) and the
/// underlying lattice only over-approximates, so a verdict is a proof —
/// the oracle suite cross-checks this against exhaustive simulation.
pub struct StaticFaultAnalysis {
    abs: TernaryAbs,
    scoap: Scoap,
}

impl StaticFaultAnalysis {
    /// Runs the ternary analysis (all-X primary inputs, default case-split
    /// budget) and the constant-seeded SCOAP sweeps over `program`.
    pub fn new(program: &EvalProgram) -> Self {
        let abs = ternary_analyze(program, &PiAssumption::AllX);
        let scoap = Scoap::compute_with(program, Some(&abs));
        StaticFaultAnalysis { abs, scoap }
    }

    /// [`StaticFaultAnalysis::new`] with the ternary and SCOAP phases
    /// recorded as `"ternary"` / `"scoap"` telemetry spans (plus the
    /// `case_splits` counter) under the recorder's current span.
    pub fn new_traced(program: &EvalProgram, rec: &mut bibs_obs::Recorder) -> Self {
        let abs = bibs_netlist::analysis::ternary_analyze_traced(
            program,
            &PiAssumption::AllX,
            Default::default(),
            rec,
        );
        let scoap = Scoap::compute_traced(program, Some(&abs), rec);
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
        match fault.site {
            FaultSite::Net(n) => prover.prove_stem(n.index(), fault.stuck_at),
            FaultSite::GatePin { gate, pin } => {
                prover.prove_pin(program.instr_of_gate(gate), pin, fault.stuck_at)
            }
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
    fn dominance_merges_and_checkpoint_classes() {
        // Full universe of a 2-input AND: the classic checkpoint classes.
        let nl = small_and();
        let prog = EvalProgram::compile(&nl).unwrap();
        let u = FaultUniverse::full(&nl);
        let dc = u.dominance_collapsed(&prog);
        assert_eq!(dc.universe_len(), 10);
        // {a/sa0, b/sa0, y/sa0, p0/sa0, p1/sa0}, {a/sa1, p0/sa1},
        // {b/sa1, p1/sa1}, {y/sa1}.
        assert_eq!(dc.rep_count(), 4);
        let sizes: Vec<usize> = (0..dc.rep_count())
            .map(|r| dc.class_members(r).len())
            .collect();
        let mut sorted = sizes.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![1, 2, 2, 5]);
        // Representative = smallest universe index of its class.
        for r in 0..dc.rep_count() {
            let members = dc.class_members(r);
            let rep_idx = dc.rep_of(members[0] as usize);
            assert_eq!(rep_idx as u32, *members.iter().min().unwrap());
        }
    }

    #[test]
    fn dominance_chain_rule_on_collapsed_universe() {
        // On the equivalence-collapsed list the pin faults are gone; the
        // chain rule must still merge a/sa0 ≡ b/sa0 ≡ y/sa0 directly.
        let nl = small_and();
        let prog = EvalProgram::compile(&nl).unwrap();
        let u = FaultUniverse::collapsed(&nl);
        assert_eq!(u.len(), 6);
        let dc = u.dominance_collapsed(&prog);
        assert_eq!(dc.rep_count(), 4);
        let reps = dc.representative_faults();
        assert!(reps.iter().all(|f| matches!(f.site, FaultSite::Net(_))));
    }

    #[test]
    fn dominance_expand_detection_is_exact_per_class() {
        let nl = small_and();
        let prog = EvalProgram::compile(&nl).unwrap();
        let u = FaultUniverse::collapsed(&nl);
        let dc = u.dominance_collapsed(&prog);
        let rep_det: Vec<Option<u64>> = (0..dc.rep_count() as u64).map(Some).collect();
        let full = dc.expand_detection(&rep_det);
        assert_eq!(full.len(), u.len());
        for (i, &d) in full.iter().enumerate() {
            let rep = dc.rep_of(i);
            let pos = dc
                .representative_faults()
                .iter()
                .position(|&f| f == u.faults()[rep])
                .unwrap();
            assert_eq!(d, rep_det[pos]);
        }
    }

    #[test]
    fn dominance_does_not_merge_xor_or_fanout_stems() {
        // XOR has no controlling value and fanout stems observe >1 pin:
        // no class may merge beyond the fanout-free pin rule.
        let mut b = NetlistBuilder::new("x");
        let a = b.input("a");
        let c = b.input("b");
        let y = b.xor2(a, c);
        b.output("y", y);
        let nl = b.finish().unwrap();
        let prog = EvalProgram::compile(&nl).unwrap();
        let u = FaultUniverse::collapsed(&nl);
        let dc = u.dominance_collapsed(&prog);
        assert_eq!(dc.rep_count(), u.len(), "nothing to merge on XOR stems");
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
