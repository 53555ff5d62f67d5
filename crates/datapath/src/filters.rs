//! The paper's three MABAL-synthesized filter datapaths (Table 1) and two
//! extra filter workloads.
//!
//! All datapaths are 8 bits wide. Multipliers compute the full 16-bit
//! product but only the 8 least-significant lines feed the next stage, as
//! the paper states. Pipeline registers follow every block and
//! operand-alignment (delay) registers keep each structure **balanced**, so
//! each circuit is a single balanced BISTable kernel under the BIBS TDM.

use bibs_rtl::{Circuit, CircuitBuilder, LogicFunction, VertexId};

/// Datapath word width used throughout the paper's experiments.
pub const WIDTH: u32 = 8;

fn add(b: &mut CircuitBuilder, name: &str) -> VertexId {
    b.logic_fn(name, LogicFunction::Add)
}

fn mul(b: &mut CircuitBuilder, name: &str) -> VertexId {
    b.logic_fn(name, LogicFunction::Mul { out_width: WIDTH })
}

/// Why [`try_scaled`] cannot build a datapath.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScaleError {
    /// The name is not one of `c5a2m`, `c3a2m`, `c4a4m`.
    UnknownCircuit(String),
    /// The word width is zero.
    ZeroWidth,
}

impl std::fmt::Display for ScaleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScaleError::UnknownCircuit(name) => write!(
                f,
                "unknown datapath '{name}' (expected c5a2m, c3a2m or c4a4m)"
            ),
            ScaleError::ZeroWidth => write!(f, "the word width must be positive"),
        }
    }
}

impl std::error::Error for ScaleError {}

/// Rebuilds one of the three Table 1 circuits at a different word width
/// (used by fast tests; the paper's experiments are all at [`WIDTH`] = 8).
///
/// The structure — register count, balance, kernel decomposition — is
/// width-independent; only gate counts and pattern counts scale.
///
/// # Errors
///
/// [`ScaleError::UnknownCircuit`] if `name` is not one of `"c5a2m"`,
/// `"c3a2m"`, `"c4a4m"`; [`ScaleError::ZeroWidth`] if `width == 0`.
pub fn try_scaled(name: &str, width: u32) -> Result<Circuit, ScaleError> {
    let base = match name {
        "c5a2m" => c5a2m(),
        "c3a2m" => c3a2m(),
        "c4a4m" => c4a4m(),
        other => return Err(ScaleError::UnknownCircuit(other.to_string())),
    };
    match width {
        0 => Err(ScaleError::ZeroWidth),
        WIDTH => Ok(base),
        _ => Ok(rescale(&base, width)),
    }
}

/// [`try_scaled`] for names and widths the caller knows are valid.
///
/// # Panics
///
/// Panics if `width == 0` or `name` is not one of `"c5a2m"`, `"c3a2m"`,
/// `"c4a4m"`.
pub fn scaled(name: &str, width: u32) -> Circuit {
    try_scaled(name, width).unwrap_or_else(|e| panic!("{e}"))
}

/// Copies a circuit with every register width replaced by `width`.
fn rescale(circuit: &Circuit, width: u32) -> Circuit {
    let mut b = CircuitBuilder::new(format!("{}_w{width}", circuit.name()));
    let ids: Vec<VertexId> = circuit
        .vertex_ids()
        .map(|v| {
            let vx = circuit.vertex(v);
            match vx.kind {
                bibs_rtl::VertexKind::Input => b.input(&vx.name),
                bibs_rtl::VertexKind::Output => b.output(&vx.name),
                bibs_rtl::VertexKind::Fanout => b.fanout(&vx.name),
                bibs_rtl::VertexKind::Vacuous => b.vacuous(&vx.name),
                bibs_rtl::VertexKind::Logic => {
                    let f = match vx.function {
                        LogicFunction::Mul { .. } => LogicFunction::Mul { out_width: width },
                        ref other => other.clone(),
                    };
                    b.logic_fn(&vx.name, f)
                }
            }
        })
        .collect();
    for e in circuit.edge_ids() {
        let edge = circuit.edge(e);
        match edge.kind {
            bibs_rtl::EdgeKind::Register { .. } => {
                b.register(
                    edge.name
                        .clone()
                        .unwrap_or_else(|| format!("r{}", e.index())),
                    width,
                    ids[edge.from.index()],
                    ids[edge.to.index()],
                );
            }
            bibs_rtl::EdgeKind::Wire => {
                b.wire(ids[edge.from.index()], ids[edge.to.index()]);
            }
        }
    }
    b.finish().expect("rescaling preserves well-formedness")
}

/// Inserts a chain of `delays` extra registers between `from` and `to`,
/// using vacuous blocks as intermediate vertices; the first hop is the PI
/// register itself.
///
/// This is the operand-alignment structure a pipelining synthesis tool
/// emits to keep a datapath balanced.
fn delayed_operand(b: &mut CircuitBuilder, pi: VertexId, base: &str, delays: u32, to: VertexId) {
    let mut cur = pi;
    for k in 0..delays {
        let v = b.vacuous(format!("V{base}{k}"));
        let reg = if k == 0 {
            format!("R{base}")
        } else {
            format!("D{base}{k}")
        };
        b.register(reg, WIDTH, cur, v);
        cur = v;
    }
    let last = if delays == 0 {
        format!("R{base}")
    } else {
        format!("D{base}{delays}")
    };
    b.register(last, WIDTH, cur, to);
}

/// `c5a2m`: `o = (a+b)(c+d) + (e+f)(g+h)` — 5 adders, 2 multipliers.
///
/// 15 registers; balanced; sequential depth 4. Under BIBS the 8 PI
/// registers and the PO register (9 total) become BILBOs; under the
/// Krasniewski–Albicki TDM all 15 do.
pub fn c5a2m() -> Circuit {
    let mut b = CircuitBuilder::new("c5a2m");
    let pis: Vec<VertexId> = ["a", "b", "c", "d", "e", "f", "g", "h"]
        .iter()
        .map(|n| b.input(*n))
        .collect();
    let a1 = add(&mut b, "A1");
    let a2 = add(&mut b, "A2");
    let a3 = add(&mut b, "A3");
    let a4 = add(&mut b, "A4");
    let m1 = mul(&mut b, "M1");
    let m2 = mul(&mut b, "M2");
    let a5 = add(&mut b, "A5");
    let po = b.output("o");
    for (i, &(adder, name)) in [
        (a1, "a"),
        (a1, "b"),
        (a2, "c"),
        (a2, "d"),
        (a3, "e"),
        (a3, "f"),
        (a4, "g"),
        (a4, "h"),
    ]
    .iter()
    .enumerate()
    {
        b.register(format!("R{name}"), WIDTH, pis[i], adder);
    }
    b.register("RA1", WIDTH, a1, m1);
    b.register("RA2", WIDTH, a2, m1);
    b.register("RA3", WIDTH, a3, m2);
    b.register("RA4", WIDTH, a4, m2);
    b.register("RM1", WIDTH, m1, a5);
    b.register("RM2", WIDTH, m2, a5);
    b.register("Ro", WIDTH, a5, po);
    b.finish().expect("c5a2m is well-formed")
}

/// `c3a2m`: `o = ((a+b)·c + d)·e + f` — 3 adders, 2 multipliers.
///
/// 21 registers (including the operand-alignment chains for `c`, `d`, `e`,
/// `f`); balanced; sequential depth 6. BIBS needs 7 BILBOs (6 PI + PO);
/// the Krasniewski–Albicki TDM needs 15.
pub fn c3a2m() -> Circuit {
    let mut b = CircuitBuilder::new("c3a2m");
    let pa = b.input("a");
    let pb = b.input("b");
    let pc = b.input("c");
    let pd = b.input("d");
    let pe = b.input("e");
    let pf = b.input("f");
    let a1 = add(&mut b, "A1");
    let m1 = mul(&mut b, "M1");
    let a2 = add(&mut b, "A2");
    let m2 = mul(&mut b, "M2");
    let a3 = add(&mut b, "A3");
    let po = b.output("o");
    b.register("Ra", WIDTH, pa, a1);
    b.register("Rb", WIDTH, pb, a1);
    b.register("RA1", WIDTH, a1, m1);
    delayed_operand(&mut b, pc, "c", 1, m1); // c arrives at seq-len 2
    b.register("RM1", WIDTH, m1, a2);
    delayed_operand(&mut b, pd, "d", 2, a2); // d at seq-len 3
    b.register("RA2", WIDTH, a2, m2);
    delayed_operand(&mut b, pe, "e", 3, m2); // e at seq-len 4
    b.register("RM2", WIDTH, m2, a3);
    delayed_operand(&mut b, pf, "f", 4, a3); // f at seq-len 5
    b.register("Ro", WIDTH, a3, po);
    b.finish().expect("c3a2m is well-formed")
}

/// `c4a4m`: `o = a(f+g) + e(b+c)` and `p = d(b+c) + h(f+g)` — 4 adders,
/// 4 multipliers, 2 outputs.
///
/// 20 registers; the adder outputs fan out to two multipliers each;
/// balanced; sequential depth 4. BIBS needs 10 BILBOs (8 PI + 2 PO); the
/// Krasniewski–Albicki TDM needs all 20.
pub fn c4a4m() -> Circuit {
    let mut b = CircuitBuilder::new("c4a4m");
    let pa = b.input("a");
    let pb = b.input("b");
    let pc = b.input("c");
    let pd = b.input("d");
    let pe = b.input("e");
    let pf = b.input("f");
    let pg = b.input("g");
    let ph = b.input("h");
    let a1 = add(&mut b, "A1"); // f + g
    let a2 = add(&mut b, "A2"); // b + c
    let m1 = mul(&mut b, "M1"); // a * (f+g)
    let m2 = mul(&mut b, "M2"); // e * (b+c)
    let m3 = mul(&mut b, "M3"); // d * (b+c)
    let m4 = mul(&mut b, "M4"); // h * (f+g)
    let a3 = add(&mut b, "A3"); // o
    let a4 = add(&mut b, "A4"); // p
    let o = b.output("o");
    let p = b.output("p");
    b.register("Rf", WIDTH, pf, a1);
    b.register("Rg", WIDTH, pg, a1);
    b.register("Rb", WIDTH, pb, a2);
    b.register("Rc", WIDTH, pc, a2);
    // Adder outputs fan out to two multipliers each.
    let fo1 = b.fanout("FO1");
    let fo2 = b.fanout("FO2");
    b.register("RA1", WIDTH, a1, fo1);
    b.register("RA2", WIDTH, a2, fo2);
    b.wire(fo1, m1);
    b.wire(fo1, m4);
    b.wire(fo2, m2);
    b.wire(fo2, m3);
    // Scalar operands need one alignment stage to stay balanced.
    delayed_operand(&mut b, pa, "a", 1, m1);
    delayed_operand(&mut b, ph, "h", 1, m4);
    delayed_operand(&mut b, pe, "e", 1, m2);
    delayed_operand(&mut b, pd, "d", 1, m3);
    b.register("RM1", WIDTH, m1, a3);
    b.register("RM2", WIDTH, m2, a3);
    b.register("RM3", WIDTH, m3, a4);
    b.register("RM4", WIDTH, m4, a4);
    b.register("Ro", WIDTH, a3, o);
    b.register("Rp", WIDTH, a4, p);
    b.finish().expect("c4a4m is well-formed")
}

/// A transposed-form FIR filter datapath with `taps` coefficient inputs:
/// `y = Σ c_i · x` with the accumulation chain delayed between taps.
///
/// Deliberately **unbalanced**: the path from `x` through tap 0 crosses
/// `taps − 1` more accumulation registers than the path through the last
/// tap. This is the motivating workload for the BIBS register-selection
/// algorithm (it must add BILBO hardware to balance the kernel).
///
/// # Panics
///
/// Panics if `taps < 2`.
pub fn fir_transposed(taps: usize) -> Circuit {
    assert!(taps >= 2, "a transposed FIR needs at least two taps");
    let mut b = CircuitBuilder::new(format!("fir{taps}"));
    let x = b.input("x");
    let fx = b.fanout("FX");
    b.register("Rx", WIDTH, x, fx);
    let po = b.output("y");
    let mut acc: Option<VertexId> = None;
    for i in 0..taps {
        let ci = b.input(format!("c{i}"));
        let mi = mul(&mut b, &format!("M{i}"));
        b.register(format!("Rc{i}"), WIDTH, ci, mi);
        b.wire(fx, mi);
        acc = Some(match acc {
            None => mi,
            Some(prev) => {
                let ai = add(&mut b, &format!("A{i}"));
                b.register(format!("Racc{i}"), WIDTH, prev, ai);
                b.wire(mi, ai);
                ai
            }
        });
    }
    b.register("Ry", WIDTH, acc.expect("taps >= 2"), po);
    b.finish().expect("fir is well-formed")
}

/// A direct-form-I biquad IIR section: contains a feedback **cycle**
/// through the output accumulator, so Theorem 2 applies (at least two
/// BILBO edges are needed on the cycle) and the single-register-cycle
/// remedy (register splitting / CBILBO) can be exercised.
pub fn biquad_iir() -> Circuit {
    let mut b = CircuitBuilder::new("biquad");
    let x = b.input("x");
    let b0 = b.input("b0");
    let a1c = b.input("a1");
    let po = b.output("y");
    let mff = mul(&mut b, "Mff"); // b0 * x
    let mfb = mul(&mut b, "Mfb"); // a1 * y (feedback)
    let acc = add(&mut b, "Acc"); // feedforward + feedback
    let fy = b.fanout("FY");
    b.register("Rx", WIDTH, x, mff);
    b.register("Rb0", WIDTH, b0, mff);
    b.register("Ra1", WIDTH, a1c, mfb);
    b.register("Rff", WIDTH, mff, acc);
    b.register("Rfb", WIDTH, mfb, acc);
    b.register("Racc", WIDTH, acc, fy);
    b.wire(fy, po);
    b.register("Ry1", WIDTH, fy, mfb); // the feedback register: a cycle
    b.finish().expect("biquad is well-formed")
}

/// A cascade of `sections` biquad IIR sections (each with its own feedback
/// cycle), the way higher-order filters are actually built. A larger
/// workload for the BIBS selection search: every section's cycle needs its
/// two BILBO edges (Theorem 2), and the feed-forward chain between
/// sections stays balanced.
///
/// # Panics
///
/// Panics if `sections == 0`.
pub fn biquad_cascade(sections: usize) -> Circuit {
    assert!(sections > 0, "a cascade needs at least one section");
    let mut b = CircuitBuilder::new(format!("cascade{sections}"));
    let x = b.input("x");
    let po = b.output("y");
    let mut carrier = x;
    for s in 0..sections {
        let b0 = b.input(format!("b{s}"));
        let a1 = b.input(format!("a{s}"));
        let mff = mul(&mut b, &format!("Mff{s}"));
        let mfb = mul(&mut b, &format!("Mfb{s}"));
        let acc = add(&mut b, &format!("Acc{s}"));
        let fy = b.fanout(format!("FY{s}"));
        b.register(format!("Rx{s}"), WIDTH, carrier, mff);
        b.register(format!("Rb{s}"), WIDTH, b0, mff);
        b.register(format!("Ra{s}"), WIDTH, a1, mfb);
        b.register(format!("Rff{s}"), WIDTH, mff, acc);
        b.register(format!("Rfb{s}"), WIDTH, mfb, acc);
        b.register(format!("Racc{s}"), WIDTH, acc, fy);
        b.register(format!("Ry{s}"), WIDTH, fy, mfb); // feedback cycle
        carrier = fy;
    }
    b.register("Rout", WIDTH, carrier, po);
    b.finish().expect("cascade is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elab::elaborate_whole;
    use bibs_rtl::VertexKind;

    #[test]
    fn c5a2m_structure_matches_paper() {
        let c = c5a2m();
        assert!(c.is_balanced(), "Table 2 requires c5a2m balanced");
        assert_eq!(c.register_edges().count(), 15);
        assert_eq!(c.inputs().len(), 8);
        assert_eq!(c.outputs().len(), 1);
        assert_eq!(c.sequential_depth(), Some(4));
    }

    #[test]
    fn c3a2m_structure_matches_paper() {
        let c = c3a2m();
        assert!(c.is_balanced());
        assert_eq!(c.register_edges().count(), 21);
        assert_eq!(c.inputs().len(), 6);
        assert_eq!(c.sequential_depth(), Some(6));
    }

    #[test]
    fn c4a4m_structure_matches_paper() {
        let c = c4a4m();
        assert!(c.is_balanced());
        assert_eq!(c.register_edges().count(), 20);
        assert_eq!(c.inputs().len(), 8);
        assert_eq!(c.outputs().len(), 2);
        assert_eq!(c.sequential_depth(), Some(4));
    }

    #[test]
    fn filters_elaborate_and_compute() {
        use bibs_netlist::sim::{broadcast_pattern, PatternSim};
        let c = c5a2m();
        let elab = elaborate_whole(&c).unwrap();
        let comb = elab.netlist.combinational_equivalent();
        let mut sim = PatternSim::new(&comb);
        // a..h = 1..8 -> o = (1+2)(3+4) + (5+6)(7+8) = 21 + 165 = 186
        let mut words = Vec::new();
        for v in 1..=8u64 {
            words.extend(broadcast_pattern(v, 8));
        }
        sim.set_inputs(&words);
        sim.eval_comb();
        let out: Vec<_> = comb.outputs().to_vec();
        assert_eq!(sim.output_lane(&out, 0), 186 & 0xFF);
    }

    #[test]
    fn c3a2m_computes_its_function() {
        use bibs_netlist::sim::{broadcast_pattern, PatternSim};
        let c = c3a2m();
        let elab = elaborate_whole(&c).unwrap();
        let comb = elab.netlist.combinational_equivalent();
        let mut sim = PatternSim::new(&comb);
        // ((a+b)*c + d)*e + f with a=2,b=3,c=4,d=5,e=6,f=7:
        // ((5)*4+5)*6+7 = 25*6+7 = 157
        let mut words = Vec::new();
        for v in [2u64, 3, 4, 5, 6, 7] {
            words.extend(broadcast_pattern(v, 8));
        }
        sim.set_inputs(&words);
        sim.eval_comb();
        let out: Vec<_> = comb.outputs().to_vec();
        assert_eq!(sim.output_lane(&out, 0), 157 & 0xFF);
    }

    #[test]
    fn c4a4m_computes_both_outputs() {
        use bibs_netlist::sim::{broadcast_pattern, PatternSim};
        let c = c4a4m();
        let elab = elaborate_whole(&c).unwrap();
        let comb = elab.netlist.combinational_equivalent();
        let mut sim = PatternSim::new(&comb);
        // a..h = 1..8: o = 1*(6+7) + 5*(2+3) = 13 + 25 = 38
        //              p = 4*(2+3) + 8*(6+7) = 20 + 104 = 124
        // PI words follow elab.input_edges order (register names "R<x>"),
        // so map each operand letter to its value explicitly.
        let mut words = Vec::new();
        for &(edge, _) in &elab.input_edges {
            let name = c.edge(edge).name.as_deref().unwrap();
            let letter = name.as_bytes()[1]; // "Ra" -> 'a'
            let v = (letter - b'a' + 1) as u64;
            words.extend(broadcast_pattern(v, 8));
        }
        sim.set_inputs(&words);
        sim.eval_comb();
        let outs = comb.outputs();
        // Output order follows cut-edge order; find by name prefix.
        let o_bus: Vec<_> = outs
            .iter()
            .copied()
            .filter(|&n| comb.net_name(n).is_some_and(|s| s.starts_with("Ro_d")))
            .collect();
        let p_bus: Vec<_> = outs
            .iter()
            .copied()
            .filter(|&n| comb.net_name(n).is_some_and(|s| s.starts_with("Rp_d")))
            .collect();
        assert_eq!(o_bus.len(), 8);
        assert_eq!(p_bus.len(), 8);
        assert_eq!(sim.output_lane(&o_bus, 0), 38);
        assert_eq!(sim.output_lane(&p_bus, 0), 124);
    }

    #[test]
    fn cascade_has_one_cycle_per_section() {
        let c = biquad_cascade(3);
        assert!(!c.is_acyclic());
        // Cutting each section's feedback register breaks all cycles.
        let feedback: Vec<_> = (0..3)
            .map(|s| c.register_by_name(&format!("Ry{s}")).unwrap())
            .collect();
        assert!(c.find_cycle_filtered(|e| !feedback.contains(&e)).is_none());
        // Any 2-of-3 cut still leaves the remaining section's cycle.
        assert!(c
            .find_cycle_filtered(|e| e != feedback[0] && e != feedback[1])
            .is_some());
    }

    #[test]
    fn fir_is_unbalanced_and_biquad_is_cyclic() {
        let fir = fir_transposed(4);
        assert!(fir.is_acyclic());
        assert!(!fir.is_balanced(), "transposed FIR must be unbalanced");
        let iir = biquad_iir();
        assert!(!iir.is_acyclic(), "biquad must contain a feedback cycle");
        assert!(iir.find_cycle().is_some());
    }

    #[test]
    fn gate_counts_reported_for_table1() {
        // Not the paper's absolute numbers (different cell library), but
        // the ordering must match Table 1: c4a4m > c5a2m > c3a2m.
        let g5 = elaborate_whole(&c5a2m())
            .unwrap()
            .netlist
            .logic_gate_count();
        let g3 = elaborate_whole(&c3a2m())
            .unwrap()
            .netlist
            .logic_gate_count();
        let g4 = elaborate_whole(&c4a4m())
            .unwrap()
            .netlist
            .logic_gate_count();
        assert!(g4 > g5, "c4a4m ({g4}) must exceed c5a2m ({g5})");
        assert!(g5 > g3, "c5a2m ({g5}) must exceed c3a2m ({g3})");
    }

    #[test]
    fn only_pi_po_registers_touch_io() {
        let c = c5a2m();
        let io_regs = c
            .register_edges()
            .filter(|&e| {
                let edge = c.edge(e);
                c.vertex(edge.from).kind == VertexKind::Input
                    || c.vertex(edge.to).kind == VertexKind::Output
            })
            .count();
        assert_eq!(io_regs, 9, "8 PI + 1 PO registers for BIBS");
    }

    #[test]
    fn try_scaled_rejects_unknown_names_and_zero_width() {
        assert_eq!(
            try_scaled("foo", 4).unwrap_err(),
            ScaleError::UnknownCircuit("foo".into())
        );
        assert_eq!(try_scaled("c5a2m", 0).unwrap_err(), ScaleError::ZeroWidth);
        assert_eq!(try_scaled("c5a2m", WIDTH).unwrap(), c5a2m());
        assert_eq!(try_scaled("c3a2m", 3).unwrap().name(), "c3a2m_w3");
    }
}
