//! Core netlist data structures: nets, gates, flip-flops and validation.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a net (a single-bit signal) within a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NetId(pub(crate) u32);

/// Identifier of a gate within a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct GateId(pub(crate) u32);

/// Identifier of a D flip-flop within a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct DffId(pub(crate) u32);

impl NetId {
    /// Returns the raw index of this net.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds an id from a raw index. For deserializers and analysis
    /// tooling; an out-of-range id only trips when it is used on a
    /// [`Netlist`].
    pub fn from_index(index: usize) -> Self {
        NetId(index as u32)
    }
}

impl GateId {
    /// Returns the raw index of this gate.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds an id from a raw index (see [`NetId::from_index`]).
    pub fn from_index(index: usize) -> Self {
        GateId(index as u32)
    }
}

impl DffId {
    /// Returns the raw index of this flip-flop.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds an id from a raw index (see [`NetId::from_index`]).
    pub fn from_index(index: usize) -> Self {
        DffId(index as u32)
    }
}

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for GateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

impl fmt::Display for DffId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ff{}", self.0)
    }
}

/// The Boolean function computed by a [`Gate`].
///
/// All gates have a single output. `Not` and `Buf` take exactly one input;
/// the remaining kinds accept two or more inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GateKind {
    /// Logical AND of all inputs.
    And,
    /// Logical OR of all inputs.
    Or,
    /// Complement of the AND of all inputs.
    Nand,
    /// Complement of the OR of all inputs.
    Nor,
    /// Exclusive OR (parity) of all inputs.
    Xor,
    /// Complement of the parity of all inputs.
    Xnor,
    /// Complement of the single input.
    Not,
    /// Identity of the single input.
    Buf,
}

impl GateKind {
    /// Evaluates the gate function over 64-way bit-parallel input words.
    ///
    /// Each `u64` carries 64 independent simulation patterns, one per bit
    /// lane — the classic parallel-pattern technique used by fault
    /// simulators.
    pub fn eval_words(self, inputs: &[u64]) -> u64 {
        match self {
            GateKind::And => inputs.iter().fold(!0u64, |acc, &w| acc & w),
            GateKind::Or => inputs.iter().fold(0u64, |acc, &w| acc | w),
            GateKind::Nand => !inputs.iter().fold(!0u64, |acc, &w| acc & w),
            GateKind::Nor => !inputs.iter().fold(0u64, |acc, &w| acc | w),
            GateKind::Xor => inputs.iter().fold(0u64, |acc, &w| acc ^ w),
            GateKind::Xnor => !inputs.iter().fold(0u64, |acc, &w| acc ^ w),
            GateKind::Not => !inputs[0],
            GateKind::Buf => inputs[0],
        }
    }

    /// Returns `true` if the gate kind takes exactly one input.
    pub fn is_unary(self) -> bool {
        matches!(self, GateKind::Not | GateKind::Buf)
    }

    /// Returns `true` if the gate output inverts the "natural" function
    /// (NAND, NOR, XNOR, NOT).
    pub fn is_inverting(self) -> bool {
        matches!(
            self,
            GateKind::Nand | GateKind::Nor | GateKind::Xnor | GateKind::Not
        )
    }

    /// The controlling input value of the gate, if any.
    ///
    /// An input at the controlling value determines the output regardless of
    /// the other inputs (0 for AND/NAND, 1 for OR/NOR). XOR-family and unary
    /// gates have no controlling value.
    pub fn controlling_value(self) -> Option<bool> {
        match self {
            GateKind::And | GateKind::Nand => Some(false),
            GateKind::Or | GateKind::Nor => Some(true),
            _ => None,
        }
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            GateKind::And => "and",
            GateKind::Or => "or",
            GateKind::Nand => "nand",
            GateKind::Nor => "nor",
            GateKind::Xor => "xor",
            GateKind::Xnor => "xnor",
            GateKind::Not => "not",
            GateKind::Buf => "buf",
        };
        f.write_str(s)
    }
}

/// A single logic gate: a [`GateKind`] applied to input nets, driving one
/// output net.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Gate {
    /// The Boolean function of the gate.
    pub kind: GateKind,
    /// Input nets, in pin order.
    pub inputs: Vec<NetId>,
    /// The net driven by the gate output.
    pub output: NetId,
}

/// A D flip-flop: samples `d` on the clock edge and drives `q`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Dff {
    /// The data input net.
    pub d: NetId,
    /// The output net.
    pub q: NetId,
}

/// What drives a net.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NetDriver {
    /// Driven by primary input number `usize` (index into
    /// [`Netlist::inputs`]).
    Input(usize),
    /// Driven by the output of a gate.
    Gate(GateId),
    /// Driven by the Q output of a flip-flop.
    Dff(DffId),
    /// Tied to a constant logic value.
    Const(bool),
    /// Not driven yet — only legal during construction.
    Floating,
}

/// Per-net bookkeeping.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Net {
    /// Optional human-readable name (e.g. `"a[3]"`).
    pub name: Option<String>,
    /// What drives the net.
    pub driver: NetDriver,
}

/// Errors produced while validating or transforming a [`Netlist`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetlistError {
    /// A net has no driver.
    FloatingNet {
        /// The undriven net.
        net: NetId,
        /// The net's name, if it has one.
        name: Option<String>,
    },
    /// The combinational part of the netlist contains a cycle, which would
    /// behave asynchronously. The paper's circuit model forbids this
    /// (Section 3.1).
    CombinationalCycle {
        /// A gate on the cycle.
        gate: GateId,
    },
    /// A gate has the wrong number of inputs for its kind.
    BadArity {
        /// The offending gate.
        gate: GateId,
        /// The gate's kind.
        kind: GateKind,
        /// How many inputs it has.
        arity: usize,
    },
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::FloatingNet { net, name } => match name {
                Some(n) => write!(f, "net {net} ({n}) has no driver"),
                None => write!(f, "net {net} has no driver"),
            },
            NetlistError::CombinationalCycle { gate } => {
                write!(f, "combinational cycle through gate {gate}")
            }
            NetlistError::BadArity { gate, kind, arity } => {
                write!(f, "gate {gate} of kind {kind} has invalid arity {arity}")
            }
        }
    }
}

impl std::error::Error for NetlistError {}

/// A flat, validated gate-level netlist with optional D flip-flops.
///
/// Invariants (checked by [`Netlist::validate`], enforced by
/// [`builder::NetlistBuilder::finish`](crate::builder::NetlistBuilder::finish)):
///
/// * every net has exactly one driver;
/// * the combinational part (gates only, flip-flops cut) is acyclic;
/// * unary gates have exactly one input, all others at least two.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Netlist {
    pub(crate) name: String,
    pub(crate) nets: Vec<Net>,
    pub(crate) gates: Vec<Gate>,
    pub(crate) dffs: Vec<Dff>,
    pub(crate) inputs: Vec<NetId>,
    pub(crate) outputs: Vec<NetId>,
}

impl Netlist {
    /// Assembles a netlist from raw parts and validates it.
    ///
    /// Primarily for tooling that rebuilds a netlist from edited parts
    /// (e.g. the fuzz corpus minimizer); prefer
    /// [`crate::builder::NetlistBuilder`] for construction in code.
    ///
    /// # Errors
    ///
    /// Returns the first violated structural invariant.
    pub fn from_parts(
        name: String,
        nets: Vec<Net>,
        gates: Vec<Gate>,
        dffs: Vec<Dff>,
        inputs: Vec<NetId>,
        outputs: Vec<NetId>,
    ) -> Result<Netlist, NetlistError> {
        let nl = Netlist {
            name,
            nets,
            gates,
            dffs,
            inputs,
            outputs,
        };
        nl.validate()?;
        Ok(nl)
    }

    /// Assembles a netlist from raw parts **without** validating it.
    ///
    /// For analysis tooling (e.g. the `bibs-lint` structural passes) that
    /// must be able to represent malformed netlists in order to diagnose
    /// them. Simulation and transformation methods assume the invariants
    /// documented on [`Netlist`] hold; run [`Netlist::validate`] (or the
    /// lint passes) before trusting any results on an unchecked value.
    pub fn from_parts_unchecked(
        name: String,
        nets: Vec<Net>,
        gates: Vec<Gate>,
        dffs: Vec<Dff>,
        inputs: Vec<NetId>,
        outputs: Vec<NetId>,
    ) -> Netlist {
        Netlist {
            name,
            nets,
            gates,
            dffs,
            inputs,
            outputs,
        }
    }

    /// Decomposes the netlist into its raw parts
    /// `(name, nets, gates, dffs, inputs, outputs)`.
    ///
    /// Inverse of [`Netlist::from_parts`] /
    /// [`Netlist::from_parts_unchecked`]; lets tooling mutate the parts and
    /// reassemble (e.g. lint tests crafting deliberately malformed
    /// netlists).
    #[allow(clippy::type_complexity)]
    pub fn into_parts(
        self,
    ) -> (
        String,
        Vec<Net>,
        Vec<Gate>,
        Vec<Dff>,
        Vec<NetId>,
        Vec<NetId>,
    ) {
        (
            self.name,
            self.nets,
            self.gates,
            self.dffs,
            self.inputs,
            self.outputs,
        )
    }

    /// The netlist's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nets.
    pub fn net_count(&self) -> usize {
        self.nets.len()
    }

    /// Number of gates (including buffers).
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// Number of gates excluding `Buf` gates.
    ///
    /// Buffers are topology artifacts (fanout stems, register bypasses), not
    /// logic; Table 1 of the paper reports logic gate counts.
    pub fn logic_gate_count(&self) -> usize {
        self.gates
            .iter()
            .filter(|g| g.kind != GateKind::Buf)
            .count()
    }

    /// Number of D flip-flops.
    pub fn dff_count(&self) -> usize {
        self.dffs.len()
    }

    /// Primary input nets, in declaration order.
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// Primary output nets, in declaration order.
    pub fn outputs(&self) -> &[NetId] {
        &self.outputs
    }

    /// Total primary input width in bits.
    pub fn input_width(&self) -> usize {
        self.inputs.len()
    }

    /// Total primary output width in bits.
    pub fn output_width(&self) -> usize {
        self.outputs.len()
    }

    /// All gates.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// All flip-flops.
    pub fn dffs(&self) -> &[Dff] {
        &self.dffs
    }

    /// Looks up a gate by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn gate(&self, id: GateId) -> &Gate {
        &self.gates[id.index()]
    }

    /// Looks up a flip-flop by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn dff(&self, id: DffId) -> &Dff {
        &self.dffs[id.index()]
    }

    /// The driver of a net.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn driver(&self, id: NetId) -> NetDriver {
        self.nets[id.index()].driver
    }

    /// The name of a net, if any.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn net_name(&self, id: NetId) -> Option<&str> {
        self.nets[id.index()].name.as_deref()
    }

    /// Iterates over all net ids.
    pub fn net_ids(&self) -> impl Iterator<Item = NetId> + '_ {
        (0..self.nets.len() as u32).map(NetId)
    }

    /// Iterates over all gate ids.
    pub fn gate_ids(&self) -> impl Iterator<Item = GateId> + '_ {
        (0..self.gates.len() as u32).map(GateId)
    }

    /// Checks all structural invariants.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant: a floating net, a gate with an
    /// invalid number of inputs, or a combinational cycle.
    pub fn validate(&self) -> Result<(), NetlistError> {
        for (i, net) in self.nets.iter().enumerate() {
            if matches!(net.driver, NetDriver::Floating) {
                return Err(NetlistError::FloatingNet {
                    net: NetId(i as u32),
                    name: net.name.clone(),
                });
            }
        }
        for (i, gate) in self.gates.iter().enumerate() {
            let arity = gate.inputs.len();
            let bad = if gate.kind.is_unary() {
                arity != 1
            } else {
                arity < 2
            };
            if bad {
                return Err(NetlistError::BadArity {
                    gate: GateId(i as u32),
                    kind: gate.kind,
                    arity,
                });
            }
        }
        self.levelize().map(|_| ())
    }

    /// Topologically orders the gates of the combinational part.
    ///
    /// Flip-flop Q outputs, primary inputs and constants are treated as
    /// sources. The returned order is suitable for single-pass evaluation.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] if the gates cannot be
    /// ordered (the paper's model forbids combinational cycles).
    pub fn levelize(&self) -> Result<Vec<GateId>, NetlistError> {
        // Kahn's algorithm over the gate-to-gate dependency relation.
        let n = self.gates.len();
        let mut indegree = vec![0usize; n];
        // fanout[g] = gates whose input is driven by g's output.
        let mut fanout: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (gi, gate) in self.gates.iter().enumerate() {
            for &inp in &gate.inputs {
                if let NetDriver::Gate(src) = self.nets[inp.index()].driver {
                    fanout[src.index()].push(gi as u32);
                    indegree[gi] += 1;
                }
            }
        }
        let mut order = Vec::with_capacity(n);
        let mut queue: Vec<u32> = (0..n as u32)
            .filter(|&g| indegree[g as usize] == 0)
            .collect();
        while let Some(g) = queue.pop() {
            order.push(GateId(g));
            for &next in &fanout[g as usize] {
                indegree[next as usize] -= 1;
                if indegree[next as usize] == 0 {
                    queue.push(next);
                }
            }
        }
        if order.len() != n {
            let stuck = (0..n).find(|&g| indegree[g] > 0).expect("cycle exists");
            return Err(NetlistError::CombinationalCycle {
                gate: GateId(stuck as u32),
            });
        }
        Ok(order)
    }

    /// The *sequential depth* of the netlist: the maximum number of
    /// flip-flops on any input-to-output path.
    ///
    /// For a balanced circuit this is the pipeline latency `d` that appears
    /// in the paper's test-time formula `2^M - 1 + d` (Corollary 1).
    ///
    /// # Panics
    ///
    /// Panics if the netlist contains a sequential cycle (depth undefined);
    /// validate acyclicity at the RTL level first.
    pub fn sequential_depth(&self) -> usize {
        // Longest path in the DAG whose edge weights count flip-flops.
        // depth[net] = max flip-flops from any PI to this net.
        let order = self
            .levelize()
            .expect("netlist must be combinationally acyclic");
        let mut depth = vec![0usize; self.nets.len()];
        // Iterate until fixpoint over DFFs; bounded by dff count + 1 rounds.
        let rounds = self.dffs.len() + 1;
        for _ in 0..rounds {
            let mut changed = false;
            for &gid in &order {
                let gate = &self.gates[gid.index()];
                let d = gate
                    .inputs
                    .iter()
                    .map(|i| depth[i.index()])
                    .max()
                    .unwrap_or(0);
                if depth[gate.output.index()] != d {
                    depth[gate.output.index()] = d;
                    changed = true;
                }
            }
            for dff in &self.dffs {
                let d = depth[dff.d.index()] + 1;
                if depth[dff.q.index()] < d {
                    depth[dff.q.index()] = d;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        self.outputs
            .iter()
            .map(|o| depth[o.index()])
            .max()
            .unwrap_or(0)
    }

    /// Returns a purely combinational copy where every flip-flop is replaced
    /// by a buffer from its D net to its Q net.
    ///
    /// For *balanced* circuits, BALLAST (ref \[8\] of the paper) shows this
    /// transform preserves the set of detectable stuck-at faults and their
    /// tests: registers only delay data, never recombine different time
    /// frames. The fault simulator runs on this equivalent for speed; the
    /// flush latency `d` is re-added to test time separately.
    pub fn combinational_equivalent(&self) -> Netlist {
        let mut nl = self.clone();
        for dff in std::mem::take(&mut nl.dffs) {
            let gid = GateId(nl.gates.len() as u32);
            nl.gates.push(Gate {
                kind: GateKind::Buf,
                inputs: vec![dff.d],
                output: dff.q,
            });
            nl.nets[dff.q.index()].driver = NetDriver::Gate(gid);
        }
        nl
    }

    /// Per-kind gate census, useful for area reporting.
    pub fn gate_census(&self) -> Vec<(GateKind, usize)> {
        use GateKind::*;
        let kinds = [And, Or, Nand, Nor, Xor, Xnor, Not, Buf];
        kinds
            .iter()
            .map(|&k| (k, self.gates.iter().filter(|g| g.kind == k).count()))
            .filter(|&(_, c)| c > 0)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;

    #[test]
    fn gate_kind_eval_words_matches_truth_tables() {
        // Two-input truth table encoded in the low 4 lanes: a=0011, b=0101.
        let a = 0b0011u64;
        let b = 0b0101u64;
        let mask = 0b1111u64;
        assert_eq!(GateKind::And.eval_words(&[a, b]) & mask, 0b0001);
        assert_eq!(GateKind::Or.eval_words(&[a, b]) & mask, 0b0111);
        assert_eq!(GateKind::Nand.eval_words(&[a, b]) & mask, 0b1110);
        assert_eq!(GateKind::Nor.eval_words(&[a, b]) & mask, 0b1000);
        assert_eq!(GateKind::Xor.eval_words(&[a, b]) & mask, 0b0110);
        assert_eq!(GateKind::Xnor.eval_words(&[a, b]) & mask, 0b1001);
        assert_eq!(GateKind::Not.eval_words(&[a]) & mask, 0b1100);
        assert_eq!(GateKind::Buf.eval_words(&[a]) & mask, 0b0011);
    }

    #[test]
    fn controlling_values() {
        assert_eq!(GateKind::And.controlling_value(), Some(false));
        assert_eq!(GateKind::Nand.controlling_value(), Some(false));
        assert_eq!(GateKind::Or.controlling_value(), Some(true));
        assert_eq!(GateKind::Nor.controlling_value(), Some(true));
        assert_eq!(GateKind::Xor.controlling_value(), None);
        assert_eq!(GateKind::Buf.controlling_value(), None);
    }

    #[test]
    fn levelize_orders_dependencies_first() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let c = b.input("b");
        let x = b.gate(GateKind::And, &[a, c]);
        let y = b.gate(GateKind::Not, &[x]);
        b.output("o", y);
        let nl = b.finish().unwrap();
        let order = nl.levelize().unwrap();
        let pos_and = order
            .iter()
            .position(|&g| nl.gate(g).kind == GateKind::And)
            .unwrap();
        let pos_not = order
            .iter()
            .position(|&g| nl.gate(g).kind == GateKind::Not)
            .unwrap();
        assert!(pos_and < pos_not);
    }

    #[test]
    fn sequential_depth_counts_pipeline_stages() {
        let mut b = NetlistBuilder::new("pipe");
        let a = b.input("a");
        let r1 = b.register(&[a]);
        let r2 = b.register(&r1);
        let n = b.gate(GateKind::Not, &[r2[0]]);
        let r3 = b.register(&[n]);
        b.output("o", r3[0]);
        let nl = b.finish().unwrap();
        assert_eq!(nl.sequential_depth(), 3);
    }

    #[test]
    fn combinational_equivalent_removes_dffs() {
        let mut b = NetlistBuilder::new("pipe");
        let a = b.input("a");
        let r = b.register(&[a]);
        let n = b.gate(GateKind::Not, &[r[0]]);
        b.output("o", n);
        let nl = b.finish().unwrap();
        assert_eq!(nl.dff_count(), 1);
        let comb = nl.combinational_equivalent();
        assert_eq!(comb.dff_count(), 0);
        assert_eq!(comb.sequential_depth(), 0);
        comb.validate().unwrap();
    }

    #[test]
    fn census_counts_by_kind() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let c = b.input("b");
        let x = b.gate(GateKind::And, &[a, c]);
        let y = b.gate(GateKind::And, &[a, x]);
        b.output("o", y);
        let nl = b.finish().unwrap();
        assert_eq!(nl.gate_census(), vec![(GateKind::And, 2)]);
    }
}
