//! Brute-force verification that a TPG design applies a functionally
//! exhaustive test set (the claims of Theorems 4, 5 and 7).
//!
//! For every cone, the simulator is run through the full LFSR period and
//! the pattern the cone observes each cycle is collected; functional
//! exhaustiveness means every one of the `2^W` combinations of the cone's
//! depended-on register bits appears (the all-0 pattern is reported
//! separately — a plain maximal LFSR never produces an all-0 window as
//! wide as its degree; the paper defers that single pattern to a complete
//! LFSR, ref \[15\]).

use crate::tpg::{TpgDesign, TpgSimulator};
use std::collections::HashSet;

/// A violated TPG precondition, as reported by [`precheck`].
///
/// The variants split into **polynomial** problems
/// ([`is_polynomial_problem`](PrecheckError::is_polynomial_problem) — the
/// LFSR sequence itself is wrong) and **placement** problems (the flip-flop
/// string / cone windows are wrong); `bibs-lint` maps the former to its
/// B023 diagnostic and the latter to B024.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PrecheckError {
    /// No characteristic polynomial is configured.
    NoPolynomial {
        /// The LFSR degree lacking a polynomial.
        degree: u32,
    },
    /// The polynomial's degree differs from the LFSR degree.
    DegreeMismatch {
        /// The polynomial's degree.
        poly_degree: u32,
        /// The design's LFSR degree.
        lfsr_degree: u32,
    },
    /// The polynomial is not primitive, so the LFSR period falls short of
    /// `2^M − 1` and exhaustiveness claims are void.
    NotPrimitive {
        /// The polynomial, rendered (e.g. `x^6 + x^2 + 1`).
        polynomial: String,
        /// Its degree.
        degree: u32,
    },
    /// A register's cells are not mapped to consecutive TPG stage labels.
    NonConsecutiveCells {
        /// Register index.
        register: usize,
        /// Register name.
        name: String,
        /// Cell whose label breaks the run.
        cell: usize,
        /// The label of cell `cell − 1`.
        prev_label: i64,
        /// The label of cell `cell`.
        label: i64,
    },
    /// A TPG flip-flop carries a label before the first LFSR stage — no
    /// signal source exists for it.
    SlotBeforeLfsr {
        /// The offending slot label.
        label: i64,
        /// The first LFSR stage label.
        first: i64,
    },
    /// A cone observes more bits than the LFSR degree, making exhaustive
    /// coverage impossible.
    ConeTooWide {
        /// Cone index.
        cone: usize,
        /// Cone name.
        name: String,
        /// The cone's observed width.
        width: u32,
        /// The LFSR degree.
        degree: u32,
    },
    /// A cone observes a sequence offset before the first LFSR stage.
    OffsetBeforeLfsr {
        /// Cone index.
        cone: usize,
        /// Cone name.
        name: String,
        /// The offending offset label.
        offset: i64,
        /// The first LFSR stage label.
        first: i64,
    },
    /// A cone observes the same sequence offset twice: two of its bits are
    /// always equal, so it can never see all `2^W` patterns.
    DuplicateOffset {
        /// Cone index.
        cone: usize,
        /// Cone name.
        name: String,
        /// The duplicated offset label.
        offset: i64,
    },
}

impl PrecheckError {
    /// Whether this is a polynomial problem (vs a placement problem).
    pub fn is_polynomial_problem(&self) -> bool {
        matches!(
            self,
            PrecheckError::NoPolynomial { .. }
                | PrecheckError::DegreeMismatch { .. }
                | PrecheckError::NotPrimitive { .. }
        )
    }
}

impl std::fmt::Display for PrecheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PrecheckError::NoPolynomial { degree } => write!(
                f,
                "no characteristic polynomial configured for degree {degree}"
            ),
            PrecheckError::DegreeMismatch {
                poly_degree,
                lfsr_degree,
            } => write!(
                f,
                "polynomial degree {poly_degree} does not match LFSR degree {lfsr_degree}"
            ),
            PrecheckError::NotPrimitive { polynomial, degree } => write!(
                f,
                "polynomial {polynomial} of degree {degree} is not primitive; \
                 the LFSR period falls short of 2^{degree} - 1"
            ),
            PrecheckError::NonConsecutiveCells {
                register,
                name,
                cell,
                prev_label,
                label,
            } => write!(
                f,
                "register {register} ({name}) has non-consecutive cell labels: \
                 cell {} is L{prev_label}, cell {cell} is L{label}",
                cell - 1
            ),
            PrecheckError::SlotBeforeLfsr { label, first } => write!(
                f,
                "slot label L{label} precedes the first LFSR stage L{first}"
            ),
            PrecheckError::ConeTooWide {
                cone,
                name,
                width,
                degree,
            } => write!(
                f,
                "cone {cone} ({name}) observes {width} bits but the LFSR degree \
                 is only {degree}; exhaustive coverage is impossible"
            ),
            PrecheckError::OffsetBeforeLfsr {
                cone,
                name,
                offset,
                first,
            } => write!(
                f,
                "cone {cone} ({name}) observes offset L{offset} before the \
                 first LFSR stage L{first}"
            ),
            PrecheckError::DuplicateOffset { cone, name, offset } => write!(
                f,
                "cone {cone} ({name}) observes the sequence offset L{offset} \
                 twice; the corresponding bits are always equal"
            ),
        }
    }
}

impl std::error::Error for PrecheckError {}

/// Statically checks the structural preconditions a [`TpgDesign`] must
/// satisfy before its exhaustiveness claims (Theorems 4/7) can be trusted —
/// the checks `bibs-lint`'s TPG passes build on, available here so the
/// simulation entry points can fail fast with a message instead of
/// panicking or silently measuring a broken design.
///
/// Checked conditions:
///
/// 1. a characteristic polynomial exists, its degree matches the LFSR
///    degree, and it is primitive (maximal period `2^M − 1`);
/// 2. each register's cell labels are consecutive (the TDM maps registers
///    onto consecutive TPG stages);
/// 3. every slot label and cone offset is at or after the first LFSR
///    stage label (earlier labels have no signal source);
/// 4. within each cone the observed sequence offsets are pairwise
///    distinct (a duplicate makes two observed bits always equal, so the
///    cone can never be exhaustively exercised);
/// 5. each cone's input width is at most the LFSR degree `M`.
///
/// # Errors
///
/// Returns the first violated condition as a [`PrecheckError`].
pub fn precheck(design: &TpgDesign) -> Result<(), PrecheckError> {
    let degree = design.lfsr_degree();
    let Some(poly) = design.polynomial() else {
        return Err(PrecheckError::NoPolynomial { degree });
    };
    if poly.degree() != degree {
        return Err(PrecheckError::DegreeMismatch {
            poly_degree: poly.degree(),
            lfsr_degree: degree,
        });
    }
    if !poly.is_primitive() {
        return Err(PrecheckError::NotPrimitive {
            polynomial: poly.to_string(),
            degree,
        });
    }
    let first = design.first_lfsr_label();
    let s = design.structure();
    for (i, reg) in s.registers.iter().enumerate() {
        for j in 1..reg.width as usize {
            let prev = design.cell_label(i, j - 1);
            let cur = design.cell_label(i, j);
            if cur != prev + 1 {
                return Err(PrecheckError::NonConsecutiveCells {
                    register: i,
                    name: reg.name.clone(),
                    cell: j,
                    prev_label: prev,
                    label: cur,
                });
            }
        }
    }
    for slot in design.slots() {
        if slot.label < first {
            return Err(PrecheckError::SlotBeforeLfsr {
                label: slot.label,
                first,
            });
        }
    }
    for (x, cone) in s.cones.iter().enumerate() {
        let width = cone.input_width(&s.registers);
        if width > degree {
            return Err(PrecheckError::ConeTooWide {
                cone: x,
                name: cone.name.clone(),
                width,
                degree,
            });
        }
        let mut offsets = design.cone_offsets(x);
        if let Some(&o) = offsets.iter().find(|&&o| o < first) {
            return Err(PrecheckError::OffsetBeforeLfsr {
                cone: x,
                name: cone.name.clone(),
                offset: o,
                first,
            });
        }
        offsets.sort_unstable();
        if let Some(w) = offsets.windows(2).find(|w| w[0] == w[1]) {
            return Err(PrecheckError::DuplicateOffset {
                cone: x,
                name: cone.name.clone(),
                offset: w[0],
            });
        }
    }
    Ok(())
}

/// Coverage of one cone under a TPG design.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConeCoverage {
    /// Cone index.
    pub cone: usize,
    /// The cone's input width `W`.
    pub width: u32,
    /// Number of distinct patterns observed over the LFSR period.
    pub observed: u64,
    /// The full pattern count `2^W`.
    pub total: u64,
    /// Whether the all-0 pattern was observed.
    pub saw_all_zero: bool,
}

impl ConeCoverage {
    /// Whether the cone is functionally exhaustively tested, counting the
    /// all-0 pattern as supplied by a complete LFSR when missing.
    pub fn is_exhaustive_modulo_zero(&self) -> bool {
        self.observed == self.total || (!self.saw_all_zero && self.observed == self.total - 1)
    }

    /// Whether the cone saw strictly every pattern, including all-0.
    pub fn is_fully_exhaustive(&self) -> bool {
        self.observed == self.total
    }
}

/// Measures the pattern coverage of cone `cone` by simulating the whole
/// LFSR period.
///
/// # Panics
///
/// Panics if the cone's input width exceeds 24 or the LFSR degree exceeds
/// 24 (brute force would be unreasonable), or if the design fails
/// [`precheck`] (e.g. no polynomial is available for the degree).
pub fn cone_coverage(design: &TpgDesign, cone: usize) -> ConeCoverage {
    if let Err(e) = precheck(design) {
        panic!("TPG design failed precheck: {e}");
    }
    let width = design.structure().cones[cone].input_width(&design.structure().registers);
    assert!(width <= 24, "brute-force coverage capped at 24-bit cones");
    let degree = design.lfsr_degree();
    assert!(degree <= 24, "brute-force coverage capped at degree 24");
    let period: u64 = (1u64 << degree) - 1;
    let mut sim = TpgSimulator::new(design);
    // Warm the shift-register extension so the observed windows are
    // steady-state (the extension starts zero-filled).
    for _ in 0..design.flip_flop_count() as u64 + design.structure().sequential_depth() as u64 {
        sim.step();
    }
    let mut seen: HashSet<u64> = HashSet::new();
    for _ in 0..period {
        let view = sim.cone_view(cone);
        seen.insert(view.to_u64());
        sim.step();
    }
    ConeCoverage {
        cone,
        width,
        observed: seen.len() as u64,
        total: 1u64 << width,
        saw_all_zero: seen.contains(&0),
    }
}

/// Verifies every cone of the design; returns the coverages in cone
/// order.
pub fn verify_exhaustive(design: &TpgDesign) -> Vec<ConeCoverage> {
    (0..design.structure().cones.len())
        .map(|x| cone_coverage(design, x))
        .collect()
}

/// [`verify_exhaustive`] recorded as a `"verify"` telemetry span: the
/// span's wall time plus one `cones_verified` count per cone.
pub fn verify_exhaustive_traced(
    design: &TpgDesign,
    rec: &mut bibs_obs::Recorder,
) -> Vec<ConeCoverage> {
    let span = rec.enter("verify");
    let coverages = verify_exhaustive(design);
    rec.add(bibs_obs::CounterId::ConesVerified, coverages.len() as u64);
    rec.exit(span);
    coverages
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::structure::{Cone, ConeDep, GeneralizedStructure, TpgRegister};
    use crate::tpg::{mc_tpg, sc_tpg};

    #[test]
    fn theorem4_small_single_cone() {
        // 2-bit registers with d = (2, 1, 0): degree 6, cone width 6.
        let s = GeneralizedStructure::single_cone("t", &[("R1", 2, 2), ("R2", 2, 1), ("R3", 2, 0)]);
        let design = sc_tpg(&s);
        assert_eq!(design.lfsr_degree(), 6);
        let cov = cone_coverage(&design, 0);
        assert!(
            cov.is_exhaustive_modulo_zero(),
            "Theorem 4: functionally exhaustive ({}/{})",
            cov.observed,
            cov.total
        );
        assert!(!cov.saw_all_zero, "plain maximal LFSR misses all-0");
    }

    #[test]
    fn theorem4_with_sharing() {
        // d = (1, 2, 0) triggers signal sharing (Example 3's shape).
        let s = GeneralizedStructure::single_cone("t", &[("R1", 2, 1), ("R2", 2, 2), ("R3", 2, 0)]);
        let design = sc_tpg(&s);
        let cov = cone_coverage(&design, 0);
        assert!(cov.is_exhaustive_modulo_zero(), "{cov:?}");
    }

    #[test]
    fn theorem7_multi_cone() {
        // Two 3-bit registers, two cones with different skews (Example 5
        // shape scaled down).
        let regs = vec![
            TpgRegister {
                name: "R1".into(),
                width: 3,
            },
            TpgRegister {
                name: "R2".into(),
                width: 3,
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
        let s = GeneralizedStructure::new("t", regs, cones).unwrap();
        let design = mc_tpg(&s);
        for cov in verify_exhaustive(&design) {
            assert!(
                cov.is_exhaustive_modulo_zero(),
                "cone {} only covered {}/{}",
                cov.cone,
                cov.observed,
                cov.total
            );
        }
    }

    #[test]
    fn extreme_skew_design_is_still_exhaustive() {
        // Example 4's shape at small width: sharing limited by width.
        let s = GeneralizedStructure::single_cone("t", &[("R1", 3, 0), ("R2", 3, 4)]);
        let design = sc_tpg(&s);
        let cov = cone_coverage(&design, 0);
        assert!(cov.is_exhaustive_modulo_zero(), "{cov:?}");
    }

    #[test]
    fn precheck_accepts_constructed_designs_and_rejects_doctored_ones() {
        use bibs_lfsr::poly::{primitive_polynomial, Polynomial};
        let s = GeneralizedStructure::single_cone("t", &[("R1", 2, 2), ("R2", 2, 1), ("R3", 2, 0)]);
        let design = sc_tpg(&s);
        precheck(&design).expect("construction satisfies its own conditions");
        // Wrong-degree polynomial. A cone wider than the shrunk degree is
        // also illegal, but the degree mismatch is detected first.
        let p4 = primitive_polynomial(4).unwrap();
        let err = precheck(&design.with_lfsr(4, p4)).unwrap_err();
        assert!(
            matches!(err, PrecheckError::ConeTooWide { .. }) || err.is_polynomial_problem(),
            "{err}"
        );
        // Non-primitive polynomial of the right degree:
        // (x^3+x+1)^2 = x^6+x^2+1 over GF(2).
        let nonprim = Polynomial::from_exponents(&[6, 2, 0]);
        assert!(!nonprim.is_primitive());
        let err = precheck(&design.with_lfsr(6, nonprim)).unwrap_err();
        assert!(matches!(err, PrecheckError::NotPrimitive { .. }), "{err}");
        assert!(err.is_polynomial_problem());
    }

    #[test]
    fn undersized_lfsr_would_not_be_exhaustive() {
        // Sanity check of the verifier itself: a cone that observes only a
        // subset of LFSR stages of a *wider* structure... simulate by
        // checking a cone whose width equals the degree: all-zero must be
        // missing, everything else present.
        let s = GeneralizedStructure::single_cone("t", &[("R", 6, 0)]);
        let design = sc_tpg(&s);
        let cov = cone_coverage(&design, 0);
        assert_eq!(cov.observed, cov.total - 1);
        assert!(!cov.saw_all_zero);
    }
}
