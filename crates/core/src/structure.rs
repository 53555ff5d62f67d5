//! Generalized structures of balanced BISTable kernels (Figures 11, 12(c),
//! 16–21 of the paper).
//!
//! A kernel is abstracted, for TPG design purposes, to its **input
//! registers** and **output cones**: cone `Ω_x` depends on a subset of the
//! registers, each at a fixed *sequential length* `d_{i,x}` (well-defined
//! because the kernel is balanced). SC_TPG and MC_TPG consume exactly this
//! abstraction.

use crate::design::{BilboDesign, Kernel};
use bibs_rtl::{Circuit, EdgeId, SeqLen};
use std::fmt;

/// One input register of a generalized structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TpgRegister {
    /// Display name.
    pub name: String,
    /// Width in bits.
    pub width: u32,
}

/// One dependency of a cone on an input register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConeDep {
    /// Index into [`GeneralizedStructure::registers`].
    pub register: usize,
    /// Sequential length `d_{i,x}` from the register to the cone's output
    /// port.
    pub seq_len: u32,
}

/// One output cone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cone {
    /// Display name.
    pub name: String,
    /// The registers the cone depends on, with sequential lengths.
    pub deps: Vec<ConeDep>,
}

impl Cone {
    /// The total input width the cone depends on (its *cone size* `w`).
    pub fn input_width(&self, registers: &[TpgRegister]) -> u32 {
        self.deps.iter().map(|d| registers[d.register].width).sum()
    }
}

/// The generalized structure of a balanced BISTable kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GeneralizedStructure {
    /// Kernel name.
    pub name: String,
    /// Input registers, in TPG order (the order MC_TPG assigns them).
    pub registers: Vec<TpgRegister>,
    /// Output cones.
    pub cones: Vec<Cone>,
}

/// Errors building or extracting a generalized structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StructureError {
    /// A cone references a register index out of range.
    BadRegisterIndex {
        /// The offending index.
        index: usize,
    },
    /// A cone depends on the same register twice.
    DuplicateDep {
        /// The register index appearing twice.
        register: usize,
    },
    /// The kernel is not balanced: a register-to-output sequential length
    /// is not unique, so no generalized structure exists.
    NotBalanced {
        /// The input register edge.
        register: EdgeId,
        /// The output register edge.
        output: EdgeId,
    },
}

impl fmt::Display for StructureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StructureError::BadRegisterIndex { index } => {
                write!(f, "cone references register index {index} out of range")
            }
            StructureError::DuplicateDep { register } => {
                write!(f, "cone depends on register {register} twice")
            }
            StructureError::NotBalanced { register, output } => {
                write!(
                    f,
                    "paths from register {register} to output {output} have unequal sequential lengths"
                )
            }
        }
    }
}

impl std::error::Error for StructureError {}

impl GeneralizedStructure {
    /// Creates a structure, validating cone dependencies.
    ///
    /// # Errors
    ///
    /// Returns [`StructureError`] on out-of-range or duplicate register
    /// references.
    pub fn new(
        name: impl Into<String>,
        registers: Vec<TpgRegister>,
        cones: Vec<Cone>,
    ) -> Result<Self, StructureError> {
        for cone in &cones {
            let mut seen = vec![false; registers.len()];
            for dep in &cone.deps {
                if dep.register >= registers.len() {
                    return Err(StructureError::BadRegisterIndex {
                        index: dep.register,
                    });
                }
                if seen[dep.register] {
                    return Err(StructureError::DuplicateDep {
                        register: dep.register,
                    });
                }
                seen[dep.register] = true;
            }
        }
        Ok(GeneralizedStructure {
            name: name.into(),
            registers,
            cones,
        })
    }

    /// Convenience constructor for a **single-cone** kernel: registers with
    /// widths and sequential lengths, one cone depending on all of them
    /// (the Figure 11(a) structure).
    pub fn single_cone(
        name: impl Into<String>,
        regs: &[(&str, u32, u32)], // (name, width, seq_len)
    ) -> Self {
        let registers: Vec<TpgRegister> = regs
            .iter()
            .map(|&(n, w, _)| TpgRegister {
                name: n.to_string(),
                width: w,
            })
            .collect();
        let cone = Cone {
            name: "C".to_string(),
            deps: regs
                .iter()
                .enumerate()
                .map(|(i, &(_, _, d))| ConeDep {
                    register: i,
                    seq_len: d,
                })
                .collect(),
        };
        GeneralizedStructure::new(name, registers, vec![cone])
            .expect("single-cone construction is always valid")
    }

    /// Whether the structure has a single cone.
    pub fn is_single_cone(&self) -> bool {
        self.cones.len() == 1
    }

    /// Total input width `M = Σ |R_i|`.
    pub fn total_width(&self) -> u32 {
        self.registers.iter().map(|r| r.width).sum()
    }

    /// The maximal cone size `w` — the paper's lower bound `2^w` on the
    /// test time of a multiple-cone kernel.
    pub fn max_cone_width(&self) -> u32 {
        self.cones
            .iter()
            .map(|c| c.input_width(&self.registers))
            .max()
            .unwrap_or(0)
    }

    /// The kernel's sequential depth `d` (maximum sequential length over
    /// all dependencies), for the test-time formula `2^M − 1 + d`.
    pub fn sequential_depth(&self) -> u32 {
        self.cones
            .iter()
            .flat_map(|c| c.deps.iter().map(|d| d.seq_len))
            .max()
            .unwrap_or(0)
    }

    /// The same structure with registers re-ordered by `order` (a
    /// permutation of register indices). Cone dependencies are re-indexed.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of `0..registers.len()`.
    pub fn permuted(&self, order: &[usize]) -> Self {
        assert_eq!(order.len(), self.registers.len());
        let mut inverse = vec![usize::MAX; order.len()];
        for (new_pos, &old) in order.iter().enumerate() {
            assert!(
                old < inverse.len() && inverse[old] == usize::MAX,
                "order must be a permutation"
            );
            inverse[old] = new_pos;
        }
        let registers: Vec<TpgRegister> = order
            .iter()
            .map(|&old| self.registers[old].clone())
            .collect();
        let cones = self
            .cones
            .iter()
            .map(|c| {
                let mut deps: Vec<ConeDep> = c
                    .deps
                    .iter()
                    .map(|d| ConeDep {
                        register: inverse[d.register],
                        seq_len: d.seq_len,
                    })
                    .collect();
                deps.sort_by_key(|d| d.register);
                Cone {
                    name: c.name.clone(),
                    deps,
                }
            })
            .collect();
        GeneralizedStructure {
            name: self.name.clone(),
            registers,
            cones,
        }
    }

    /// Extracts the generalized structure of a kernel of `circuit` under
    /// `design`.
    ///
    /// Registers are the kernel's input BILBO edges (in stored order);
    /// cones are its output BILBO edges; sequential lengths come from the
    /// balanced kernel's unique path lengths.
    ///
    /// # Errors
    ///
    /// Returns [`StructureError::NotBalanced`] if some register-to-output
    /// sequential length is not unique (the kernel violates Definition 1).
    pub fn from_kernel(
        circuit: &Circuit,
        design: &BilboDesign,
        kernel: &Kernel,
    ) -> Result<Self, StructureError> {
        let keep = |e| kernel.holds(circuit, design, e);
        let registers: Vec<TpgRegister> = kernel
            .input_edges
            .iter()
            .map(|&e| TpgRegister {
                name: circuit
                    .edge(e)
                    .name
                    .clone()
                    .unwrap_or_else(|| format!("{e}")),
                width: circuit.edge(e).kind.width().unwrap_or(0),
            })
            .collect();
        let mut cones = Vec::new();
        // Precompute sequential lengths from each input edge head.
        let lens: Vec<_> = kernel
            .input_edges
            .iter()
            .map(|&e| circuit.seq_lengths_from_filtered(circuit.edge(e).to, keep))
            .collect();
        for &oe in &kernel.output_edges {
            let tail = circuit.edge(oe).from;
            let mut deps = Vec::new();
            for (i, &ie) in kernel.input_edges.iter().enumerate() {
                let Some(lmap) = &lens[i] else {
                    return Err(StructureError::NotBalanced {
                        register: ie,
                        output: oe,
                    });
                };
                match lmap[tail.index()] {
                    SeqLen::Unreachable => {}
                    SeqLen::Exact(d) => deps.push(ConeDep {
                        register: i,
                        seq_len: d,
                    }),
                    SeqLen::Conflict { .. } => {
                        return Err(StructureError::NotBalanced {
                            register: ie,
                            output: oe,
                        });
                    }
                }
            }
            cones.push(Cone {
                name: circuit
                    .edge(oe)
                    .name
                    .clone()
                    .unwrap_or_else(|| format!("{oe}")),
                deps,
            });
        }
        GeneralizedStructure::new(circuit.name().to_string(), registers, cones)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::{kernels, BilboDesign};
    use bibs_datapath::examples::figure12a;

    #[test]
    fn single_cone_constructor() {
        let s = GeneralizedStructure::single_cone(
            "fig12c",
            &[("R1", 4, 1), ("R2", 4, 2), ("R3", 4, 0)],
        );
        assert!(s.is_single_cone());
        assert_eq!(s.total_width(), 12);
        assert_eq!(s.max_cone_width(), 12);
        assert_eq!(s.sequential_depth(), 2);
    }

    #[test]
    fn validation_rejects_bad_indices() {
        let regs = vec![TpgRegister {
            name: "R1".into(),
            width: 4,
        }];
        let bad = Cone {
            name: "C".into(),
            deps: vec![ConeDep {
                register: 1,
                seq_len: 0,
            }],
        };
        assert!(matches!(
            GeneralizedStructure::new("t", regs.clone(), vec![bad]),
            Err(StructureError::BadRegisterIndex { index: 1 })
        ));
        let dup = Cone {
            name: "C".into(),
            deps: vec![
                ConeDep {
                    register: 0,
                    seq_len: 0,
                },
                ConeDep {
                    register: 0,
                    seq_len: 1,
                },
            ],
        };
        assert!(matches!(
            GeneralizedStructure::new("t", regs, vec![dup]),
            Err(StructureError::DuplicateDep { register: 0 })
        ));
    }

    #[test]
    fn permutation_reindexes_cones() {
        let s = GeneralizedStructure::single_cone("t", &[("R1", 4, 2), ("R2", 4, 1), ("R3", 4, 0)]);
        let p = s.permuted(&[2, 0, 1]); // new order: R3, R1, R2
        assert_eq!(p.registers[0].name, "R3");
        assert_eq!(p.registers[1].name, "R1");
        // R1 is now index 1; its dep must carry seq_len 2.
        let dep = p.cones[0].deps.iter().find(|d| d.register == 1).unwrap();
        assert_eq!(dep.seq_len, 2);
    }

    #[test]
    fn extraction_from_figure12a() {
        // BIBS design for fig12a: R1, R2, R3 as TPGs, Rout as SA.
        let c = figure12a();
        let cut = ["R1", "R2", "R3", "Rout"]
            .iter()
            .map(|n| c.register_by_name(n).unwrap());
        let design = BilboDesign::from_bilbos(cut);
        let ks = kernels(&c, &design);
        assert_eq!(ks.len(), 1);
        let s = GeneralizedStructure::from_kernel(&c, &design, &ks[0]).unwrap();
        assert_eq!(s.registers.len(), 3);
        assert!(s.is_single_cone());
        // Sequential lengths measured at the output port Rout behind C5:
        // d(R1) = 2, d(R2) = 1, d(R3) = 0 (Example 2's structure).
        let by_name: Vec<(String, u32)> = s.cones[0]
            .deps
            .iter()
            .map(|d| (s.registers[d.register].name.clone(), d.seq_len))
            .collect();
        assert!(by_name.contains(&("R1".to_string(), 2)));
        assert!(by_name.contains(&("R2".to_string(), 1)));
        assert!(by_name.contains(&("R3".to_string(), 0)));
    }
}
