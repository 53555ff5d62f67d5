//! The paper's novel test pattern generator: a type-1 LFSR interleaved with
//! plain shift-register flip-flops (Section 4, Procedures SC_TPG and
//! MC_TPG).
//!
//! # How the construction works
//!
//! Registers are laid out as a string of flip-flops and given **labels**
//! `L_k`: two flip-flops with the same label carry the same signal (shared
//! fanout stem); gaps in a register's placement are filled with **spacer**
//! flip-flops. In a type-1 LFSR, the stage labelled `L_k` at time `t`
//! carries the sequence value `a_{t−k+1}`, so a register cell at label `ℓ`
//! reaching a cone at sequential length `d` contributes sequence offset
//! `ℓ + d`. A cone therefore sees a *window* of the LFSR sequence, and an
//! LFSR of degree at least the window span applies **all** values to the
//! window (offsets within one degree are linearly independent monomials
//! `x^o mod p`), i.e. a functionally exhaustive test set — Theorem 4.
//!
//! * **Displacement**: register `R_i` is displaced from `R_j` by
//!   `Δ_{i,j} = max_x (d_{j,x} − d_{i,x})` over the cones `Ω_x` depending
//!   on both — positive displacements become spacer flip-flops, negative
//!   ones shared labels (Procedures SC_TPG step 4, MC_TPG step 3).
//! * **Degree**: the maximum window span over all cones (Theorem 7's
//!   logical span, generalized to arbitrary register orders); extension
//!   flip-flops are appended when the labels don't fill the LFSR
//!   (step 5).

use crate::structure::GeneralizedStructure;
use bibs_lfsr::bitvec::BitVec;
use bibs_lfsr::fsr::{Lfsr, LfsrKind};
use bibs_lfsr::poly::{primitive_polynomial, Polynomial};
use std::collections::VecDeque;
use std::fmt;

/// One physical flip-flop of a TPG.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TpgSlot {
    /// The signal label `L_k` this flip-flop carries.
    pub label: i64,
    /// The register cell `(register index, cell index)` stored here, or
    /// `None` for spacer/extension flip-flops.
    pub cell: Option<(usize, usize)>,
}

/// A complete TPG design for a balanced BISTable kernel.
#[derive(Debug, Clone)]
pub struct TpgDesign {
    structure: GeneralizedStructure,
    slots: Vec<TpgSlot>,
    /// `cell_labels[i][j]` = label of cell `j` of register `i`.
    cell_labels: Vec<Vec<i64>>,
    /// LFSR degree `M` (stages labelled `label_offset ..
    /// label_offset + degree − 1`).
    degree: u32,
    label_offset: i64,
    polynomial: Option<Polynomial>,
}

impl TpgDesign {
    /// The structure this TPG was designed for.
    pub fn structure(&self) -> &GeneralizedStructure {
        &self.structure
    }

    /// The physical flip-flop string, in TPG order.
    pub fn slots(&self) -> &[TpgSlot] {
        &self.slots
    }

    /// Total number of physical flip-flops.
    pub fn flip_flop_count(&self) -> usize {
        self.slots.len()
    }

    /// Flip-flops beyond the register cells themselves (spacers plus LFSR
    /// extension) — the TPG's area cost over reusing the registers as-is.
    pub fn extra_flip_flops(&self) -> usize {
        self.slots.len() - self.structure.total_width() as usize
    }

    /// The LFSR degree `M`.
    pub fn lfsr_degree(&self) -> u32 {
        self.degree
    }

    /// The label of the first LFSR stage (usually 1; can be ≤ 0 for
    /// heavily skewed kernels like the paper's Example 4).
    pub fn first_lfsr_label(&self) -> i64 {
        self.label_offset
    }

    /// The characteristic polynomial, if one is available for the degree
    /// (the crate's table/search covers degrees 1..=96).
    pub fn polynomial(&self) -> Option<&Polynomial> {
        self.polynomial.as_ref()
    }

    /// The label assigned to cell `j` (0-based) of register `i`.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    pub fn cell_label(&self, register: usize, cell: usize) -> i64 {
        self.cell_labels[register][cell]
    }

    /// The displacement of register `i` with respect to register `j`: the
    /// difference between their first-cell labels.
    pub fn displacement(&self, i: usize, j: usize) -> i64 {
        self.cell_labels[i][0] - self.cell_labels[j][0]
    }

    /// Number of label collisions (signals shared by more than one
    /// flip-flop).
    pub fn shared_signal_count(&self) -> usize {
        let mut labels: Vec<i64> = self.slots.iter().map(|s| s.label).collect();
        labels.sort_unstable();
        labels.windows(2).filter(|w| w[0] == w[1]).count()
    }

    /// The test time to functionally exhaustively test the kernel:
    /// `2^M − 1 + d` clock cycles (Corollary 1).
    pub fn test_time(&self) -> u128 {
        (1u128 << self.degree.min(127)) - 1 + self.structure.sequential_depth() as u128
    }

    /// The same flip-flop layout with a different LFSR degree and
    /// characteristic polynomial: stages `label_offset ..
    /// label_offset+degree−1` form the LFSR, any remaining labelled
    /// flip-flops become shift-register extension.
    ///
    /// Used by the minimal-TPG solver
    /// ([`minimize_degree`](crate::mintpg::minimize_degree)): shrinking the
    /// degree is sound exactly when the offset-independence condition
    /// holds for every cone.
    ///
    /// # Panics
    ///
    /// Panics if the polynomial's degree differs from `degree`.
    pub fn with_lfsr(&self, degree: u32, polynomial: Polynomial) -> TpgDesign {
        assert_eq!(polynomial.degree(), degree, "degree must match polynomial");
        TpgDesign {
            structure: self.structure.clone(),
            slots: self.slots.clone(),
            cell_labels: self.cell_labels.clone(),
            degree,
            label_offset: self.label_offset,
            polynomial: Some(polynomial),
        }
    }

    /// The sequence offsets (label + sequential length) a cone observes.
    pub fn cone_offsets(&self, cone: usize) -> Vec<i64> {
        let mut offsets = Vec::new();
        for dep in &self.structure.cones[cone].deps {
            for &label in &self.cell_labels[dep.register] {
                offsets.push(label + dep.seq_len as i64);
            }
        }
        offsets
    }
}

impl fmt::Display for TpgDesign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "TPG for {}: {} FFs ({} extra), LFSR degree {}",
            self.structure.name,
            self.flip_flop_count(),
            self.extra_flip_flops(),
            self.degree
        )?;
        write!(f, "  slots:")?;
        for s in &self.slots {
            match s.cell {
                Some((r, c)) => write!(
                    f,
                    " {}[{}]=L{}",
                    self.structure.registers[r].name, c, s.label
                )?,
                None => write!(f, " -=L{}", s.label)?,
            }
        }
        Ok(())
    }
}

/// Designs a TPG for a multiple-cone kernel (Procedure MC_TPG).
///
/// For single-cone structures this reduces exactly to Procedure SC_TPG
/// (the maximum in step 3 is attained at the preceding register), so
/// [`sc_tpg`] is an alias.
pub fn mc_tpg(structure: &GeneralizedStructure) -> TpgDesign {
    let n = structure.registers.len();
    assert!(n > 0, "a TPG needs at least one input register");
    let mut slots: Vec<TpgSlot> = Vec::new();
    let mut cell_labels: Vec<Vec<i64>> = Vec::with_capacity(n);
    let mut last_label: Vec<i64> = Vec::with_capacity(n);

    // Step 2: place R_1 at labels 1..=r_1.
    let r1 = structure.registers[0].width as i64;
    for j in 0..r1 {
        slots.push(TpgSlot {
            label: j + 1,
            cell: Some((0, j as usize)),
        });
    }
    cell_labels.push((1..=r1).collect());
    last_label.push(r1);

    // Step 3: place R_2..R_n by displacement.
    for i in 1..n {
        let mut delta_i: Option<i64> = None;
        for j in 0..i {
            // Δ_{i,j}: max over cones depending on both R_i and R_j.
            let mut delta_ij: Option<i64> = None;
            for cone in &structure.cones {
                let di = cone.deps.iter().find(|d| d.register == i);
                let dj = cone.deps.iter().find(|d| d.register == j);
                if let (Some(di), Some(dj)) = (di, dj) {
                    let v = dj.seq_len as i64 - di.seq_len as i64;
                    delta_ij = Some(delta_ij.map_or(v, |m: i64| m.max(v)));
                }
            }
            if let Some(dij) = delta_ij {
                let v = dij + last_label[j] - last_label[i - 1];
                delta_i = Some(delta_i.map_or(v, |m: i64| m.max(v)));
            }
        }
        // No shared cone with any earlier register: place adjacent.
        let delta_i = delta_i.unwrap_or(0);
        let mut k = last_label[i - 1];
        if delta_i > 0 {
            for _ in 0..delta_i {
                k += 1;
                slots.push(TpgSlot {
                    label: k,
                    cell: None,
                });
            }
        } else {
            k += delta_i; // share |Δ| signals with the predecessor
        }
        let w = structure.registers[i].width as i64;
        let labels: Vec<i64> = (k + 1..=k + w).collect();
        for (j, &label) in labels.iter().enumerate() {
            slots.push(TpgSlot {
                label,
                cell: Some((i, j)),
            });
        }
        cell_labels.push(labels);
        last_label.push(k + w);
    }

    // Step 4: LFSR degree = maximum window span over cones.
    let mut degree: i64 = 1;
    for (x, _) in structure.cones.iter().enumerate() {
        let mut offsets: Vec<i64> = Vec::new();
        for dep in &structure.cones[x].deps {
            for &label in &cell_labels[dep.register] {
                offsets.push(label + dep.seq_len as i64);
            }
        }
        if let (Some(&min), Some(&max)) = (offsets.iter().min(), offsets.iter().max()) {
            degree = degree.max(max - min + 1);
        }
    }

    // Step 5: extend the string so every LFSR stage has a flip-flop.
    let lmin = slots.iter().map(|s| s.label).min().expect("non-empty");
    let lmax = slots.iter().map(|s| s.label).max().expect("non-empty");
    let lfsr_end = lmin + degree - 1;
    for label in (lmax + 1)..=lfsr_end {
        slots.push(TpgSlot { label, cell: None });
    }

    let polynomial = if degree <= 96 {
        primitive_polynomial(degree as u32)
    } else {
        None
    };
    TpgDesign {
        structure: structure.clone(),
        slots,
        cell_labels,
        degree: degree as u32,
        label_offset: lmin,
        polynomial,
    }
}

/// Designs a TPG for a single-cone kernel (Procedure SC_TPG).
///
/// # Panics
///
/// Panics if the structure has more than one cone — use [`mc_tpg`].
pub fn sc_tpg(structure: &GeneralizedStructure) -> TpgDesign {
    assert!(
        structure.is_single_cone(),
        "SC_TPG applies to single-cone kernels; use mc_tpg"
    );
    mc_tpg(structure)
}

/// A cycle-accurate simulator of a [`TpgDesign`].
///
/// The simulator tracks the underlying LFSR sequence and exposes both the
/// register contents at the current cycle and the pattern each cone
/// observes (register contents at `t − d_{i,x}`, reconstructed through the
/// label/offset correspondence that balance guarantees).
///
/// It clocks one cycle at a time and is the bit-serial reference model of
/// the TPG. [`MinTpgSource`](crate::source::MinTpgSource) emits the same
/// cone view 64 cycles at a time, as windows of the LFSR sequence
/// ([`SequenceWindows`](bibs_lfsr::fsr::SequenceWindows)), and is tested
/// against this simulator block for block.
#[derive(Debug, Clone)]
pub struct TpgSimulator {
    design: TpgDesign,
    lfsr: Lfsr,
    /// Values that left the last LFSR stage, most recent first.
    history: VecDeque<bool>,
    history_depth: usize,
    time: u64,
}

impl TpgSimulator {
    /// Creates a simulator seeded with the LFSR state `00…01`.
    ///
    /// # Panics
    ///
    /// Panics if the design has no polynomial (degree > 96).
    pub fn new(design: &TpgDesign) -> Self {
        let poly = design
            .polynomial()
            .expect("TPG degree must be within the polynomial table")
            .clone();
        let lfsr = Lfsr::new(&poly, LfsrKind::Type1);
        // How far past the LFSR end do observed offsets reach?
        let lfsr_end = design.label_offset + design.degree as i64 - 1;
        let mut max_offset = lfsr_end;
        for x in 0..design.structure.cones.len() {
            for o in design.cone_offsets(x) {
                max_offset = max_offset.max(o);
            }
        }
        for s in &design.slots {
            max_offset = max_offset.max(s.label);
        }
        let history_depth = (max_offset - lfsr_end).max(0) as usize;
        TpgSimulator {
            design: design.clone(),
            lfsr,
            history: VecDeque::from(vec![false; history_depth]),
            history_depth,
            time: 0,
        }
    }

    /// The current cycle number.
    pub fn time(&self) -> u64 {
        self.time
    }

    /// Advances one clock cycle.
    pub fn step(&mut self) {
        if self.history_depth > 0 {
            self.history.pop_back();
            self.history.push_front(self.lfsr.stage(self.lfsr.width()));
        }
        self.lfsr.step();
        self.time += 1;
    }

    /// The signal on label `ℓ` at the current time.
    ///
    /// # Panics
    ///
    /// Panics if the label is before the LFSR start or beyond the tracked
    /// shift-register extension.
    pub fn signal(&self, label: i64) -> bool {
        let idx = label - self.design.label_offset; // 0-based stage index
        let m = self.design.degree as i64;
        if idx < 0 {
            panic!("label {label} precedes the LFSR start");
        }
        if idx < m {
            self.lfsr.stage(idx as usize + 1)
        } else {
            let back = (idx - m) as usize;
            self.history[back]
        }
    }

    /// The current contents of register `i` (bit `j` = cell `j`).
    pub fn register_state(&self, register: usize) -> BitVec {
        let labels = &self.design.cell_labels[register];
        labels.iter().map(|&l| self.signal(l)).collect()
    }

    /// The pattern cone `x` observes at the current cycle: the
    /// concatenation (in dependency order) of each depended-on register's
    /// contents as of `d_{i,x}` cycles ago.
    pub fn cone_view(&self, cone: usize) -> BitVec {
        let c = &self.design.structure.cones[cone];
        let mut bits = Vec::new();
        for dep in &c.deps {
            for &label in &self.design.cell_labels[dep.register] {
                bits.push(self.signal(label + dep.seq_len as i64));
            }
        }
        BitVec::from_bits(&bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::structure::{Cone, ConeDep, GeneralizedStructure, TpgRegister};

    /// Example 2: Figure 12(a) kernel, 4-bit registers, d = (2, 1, 0).
    fn example2() -> GeneralizedStructure {
        GeneralizedStructure::single_cone("ex2", &[("R1", 4, 2), ("R2", 4, 1), ("R3", 4, 0)])
    }

    #[test]
    fn example2_twelve_bit_lfsr_with_two_extra_ffs() {
        let design = sc_tpg(&example2());
        assert_eq!(design.lfsr_degree(), 12, "paper: 12-bit LFSR");
        assert_eq!(design.extra_flip_flops(), 2, "paper: 2 extra D FFs");
        assert_eq!(design.flip_flop_count(), 14);
        assert_eq!(design.test_time(), (1 << 12) - 1 + 2, "2^12 - 1 + 2");
        assert_eq!(
            design.polynomial().map(|p| p.to_string()),
            Some("x^12 + x^7 + x^4 + x^3 + 1".to_string()),
            "the paper's Example 2 polynomial"
        );
    }

    #[test]
    fn example3_sharing_and_separation() {
        // Example 3: same registers, d = (1, 2, 0): R2 shares one signal
        // with R1 (Δ = -1), R3 is separated by two FFs (Δ = +2).
        let s =
            GeneralizedStructure::single_cone("ex3", &[("R1", 4, 1), ("R2", 4, 2), ("R3", 4, 0)]);
        let design = sc_tpg(&s);
        // R1 at labels 1..4; R2 at 4..7 (sharing L4); R3 at 10..13.
        assert_eq!(design.cell_label(0, 0), 1);
        assert_eq!(design.cell_label(1, 0), 4, "R2 shares L4 with R1");
        assert_eq!(design.cell_label(2, 0), 10, "R3 separated by 2 spacers");
        assert_eq!(design.shared_signal_count(), 1);
        assert_eq!(design.lfsr_degree(), 12);
        // Physical FFs: 12 cells + 2 spacers = 14 (the two L4 FFs both
        // exist; neither can be deleted, as the paper notes).
        assert_eq!(design.flip_flop_count(), 14);
    }

    #[test]
    fn example4_extreme_skew() {
        // Example 4: two 4-bit registers, displacement -5: sharing is
        // limited by the register width (3 signals shared, labels 0..3).
        let s = GeneralizedStructure::single_cone("ex4", &[("R1", 4, 0), ("R2", 4, 5)]);
        let design = sc_tpg(&s);
        assert_eq!(design.cell_label(1, 0), 0, "first stage is L0");
        assert_eq!(design.first_lfsr_label(), 0);
        assert_eq!(design.shared_signal_count(), 3, "L1, L2, L3 shared");
        // Window: R1 offsets 1..4, R2 offsets 5..8 → span 8... with d:
        // R1 d=0: offsets 1..4; R2 d=5: offsets 5..8. Degree 8? No:
        // R2 labels are 0..3, +5 → 5..8; R1 labels 1..4, +0 → 1..4.
        // Span = 8 - 1 + 1 = 8.
        assert_eq!(design.lfsr_degree(), 8);
    }

    #[test]
    fn example5_two_cone_kernel_nine_stage_lfsr() {
        // Figure 17: R1, R2 4-bit; Ω1: d=(2,0); Ω2: d=(1,0).
        let regs = vec![
            TpgRegister {
                name: "R1".into(),
                width: 4,
            },
            TpgRegister {
                name: "R2".into(),
                width: 4,
            },
        ];
        let cones = vec![
            Cone {
                name: "O1".into(),
                deps: vec![
                    ConeDep {
                        register: 0,
                        seq_len: 2,
                    },
                    ConeDep {
                        register: 1,
                        seq_len: 0,
                    },
                ],
            },
            Cone {
                name: "O2".into(),
                deps: vec![
                    ConeDep {
                        register: 0,
                        seq_len: 1,
                    },
                    ConeDep {
                        register: 1,
                        seq_len: 0,
                    },
                ],
            },
        ];
        let s = GeneralizedStructure::new("ex5", regs, cones).unwrap();
        let design = mc_tpg(&s);
        assert_eq!(
            design.displacement(1, 0),
            6,
            "R2 starts 2 FFs after R1 ends"
        );
        assert!(design.extra_flip_flops() >= 2);
        assert_eq!(design.lfsr_degree(), 9, "paper: 9-stage LFSR required");
    }

    #[test]
    fn example6_eleven_stage_lfsr() {
        // Figure 19: Ω1: d=(2,0); Ω2: d=(0,1) → 11-stage LFSR.
        let regs = vec![
            TpgRegister {
                name: "R1".into(),
                width: 4,
            },
            TpgRegister {
                name: "R2".into(),
                width: 4,
            },
        ];
        let cones = vec![
            Cone {
                name: "O1".into(),
                deps: vec![
                    ConeDep {
                        register: 0,
                        seq_len: 2,
                    },
                    ConeDep {
                        register: 1,
                        seq_len: 0,
                    },
                ],
            },
            Cone {
                name: "O2".into(),
                deps: vec![
                    ConeDep {
                        register: 0,
                        seq_len: 0,
                    },
                    ConeDep {
                        register: 1,
                        seq_len: 1,
                    },
                ],
            },
        ];
        let s = GeneralizedStructure::new("ex6", regs, cones).unwrap();
        let design = mc_tpg(&s);
        assert_eq!(design.lfsr_degree(), 11, "paper: 11-stage LFSR");
    }

    /// Example 7 / Figure 21: three 4-bit registers, cones
    /// Ω1(R1:2, R2:0), Ω2(R1:0, R3:1), Ω3(R2:1, R3:0).
    pub(crate) fn example7() -> GeneralizedStructure {
        let regs = vec![
            TpgRegister {
                name: "R1".into(),
                width: 4,
            },
            TpgRegister {
                name: "R2".into(),
                width: 4,
            },
            TpgRegister {
                name: "R3".into(),
                width: 4,
            },
        ];
        let cones = vec![
            Cone {
                name: "O1".into(),
                deps: vec![
                    ConeDep {
                        register: 0,
                        seq_len: 2,
                    },
                    ConeDep {
                        register: 1,
                        seq_len: 0,
                    },
                ],
            },
            Cone {
                name: "O2".into(),
                deps: vec![
                    ConeDep {
                        register: 0,
                        seq_len: 0,
                    },
                    ConeDep {
                        register: 2,
                        seq_len: 1,
                    },
                ],
            },
            Cone {
                name: "O3".into(),
                deps: vec![
                    ConeDep {
                        register: 1,
                        seq_len: 1,
                    },
                    ConeDep {
                        register: 2,
                        seq_len: 0,
                    },
                ],
            },
        ];
        GeneralizedStructure::new("ex7", regs, cones).unwrap()
    }

    #[test]
    fn example7_sixteen_then_eight_after_permutation() {
        let s = example7();
        let d1 = mc_tpg(&s);
        assert_eq!(d1.lfsr_degree(), 16, "paper: degree 16 in order R1,R2,R3");
        let permuted = s.permuted(&[0, 2, 1]); // R1, R3, R2
        let d2 = mc_tpg(&permuted);
        assert_eq!(d2.lfsr_degree(), 8, "paper: degree 8 in order R1,R3,R2");
    }

    #[test]
    fn simulator_register_state_tracks_lfsr_shift_property() {
        let design = sc_tpg(&example2());
        let mut sim = TpgSimulator::new(&design);
        // Register cells on consecutive labels shift like the LFSR.
        let before = sim.register_state(0);
        sim.step();
        let after = sim.register_state(0);
        for j in 1..4 {
            assert_eq!(after.get(j), before.get(j - 1));
        }
    }

    #[test]
    fn simulator_cone_view_has_window_width() {
        let design = sc_tpg(&example2());
        let sim = TpgSimulator::new(&design);
        assert_eq!(sim.cone_view(0).len(), 12);
    }

    #[test]
    fn tpg_source_rejects_offsets_before_the_lfsr() {
        // mc_tpg never places a cone offset below the first LFSR label; a
        // design that does gets an error from the source, not a panic.
        let s = GeneralizedStructure::single_cone("ex4", &[("R1", 4, 0), ("R2", 4, 5)]);
        let mut design = sc_tpg(&s);
        assert!(crate::source::MinTpgSource::new(&design, &s).is_ok());
        design.label_offset = 2;
        let err = crate::source::MinTpgSource::new(&design, &s).unwrap_err();
        assert!(err.contains("precedes the first LFSR label"), "{err}");
    }

    #[test]
    fn single_register_tpg_is_plain_lfsr() {
        let s = GeneralizedStructure::single_cone("one", &[("R", 8, 0)]);
        let design = sc_tpg(&s);
        assert_eq!(design.lfsr_degree(), 8);
        assert_eq!(design.extra_flip_flops(), 0);
        assert_eq!(design.test_time(), 255);
    }
}
