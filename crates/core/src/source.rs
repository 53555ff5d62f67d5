//! The paper's novel TPG as a pluggable pattern source.
//!
//! [`MinTpgSource`] puts the hardware generator the paper builds
//! (Procedures SC_TPG/MC_TPG, optionally degree-minimized by
//! [`crate::mintpg::minimize_degree`]) behind
//! [`bibs_faultsim::source::PatternSource`], so it drives the
//! fault-simulation engines directly — the coverage-vs-clocks axis the
//! BIBS methodology is about, measured with the same drivers as every
//! other source.
//!
//! The emitted stream is exactly the session stream of
//! [`crate::session::session_patterns`] (which is a thin collector over
//! this source): warm-up shifts that fill the TPG's extension flip-flops
//! (charged to the clock budget, emitting nothing), the `2^M − 1` aligned
//! cone views of the maximal sequence, and the appended all-zero pattern —
//! the complete-LFSR remedy (ref \[15\]).
//!
//! Every input the cone sees is the TPG's one type-1 LFSR sequence at a
//! fixed offset (label plus sequential length, minus the first LFSR
//! label), so the source is an [`LfsrSource`] read at those offsets and
//! builds each 64-lane block as one sequence window per input. The
//! cycle-accurate [`TpgSimulator`](crate::tpg::TpgSimulator) is the
//! bit-serial model the tests compare it with.

use crate::structure::GeneralizedStructure;
use crate::tpg::TpgDesign;
use bibs_faultsim::source::{LfsrSource, PatternBlock, PatternSource, SourceDescriptor};

/// A [`PatternSource`] emitting one full functionally-exhaustive session
/// of the paper's TPG for a single-cone kernel.
#[derive(Debug)]
pub struct MinTpgSource {
    lfsr: LfsrSource,
    structure_name: String,
}

impl MinTpgSource {
    /// Builds the source for a designed TPG from its reset state (LFSR
    /// `00…01`, extension all zero, as in
    /// [`TpgSimulator::new`](crate::tpg::TpgSimulator::new)) and performs
    /// the warm-up shifts (`flip_flop_count + sequential_depth` cycles,
    /// charged to [`clocks_consumed`] before the first pattern).
    ///
    /// [`clocks_consumed`]: PatternSource::clocks_consumed
    ///
    /// # Errors
    ///
    /// Fails for multi-cone structures (the emitted pattern is the single
    /// cone's aligned view; a multi-cone kernel has no one stream), for a
    /// cone that does not read every register, for degrees above 63 (the
    /// period counter is a `u64`), for designs without a characteristic
    /// polynomial, and for a cone offset below the first LFSR label.
    pub fn new(design: &TpgDesign, structure: &GeneralizedStructure) -> Result<Self, String> {
        if !structure.is_single_cone() {
            return Err(format!(
                "TPG source needs a single-cone kernel; {} has {} cones",
                structure.name,
                structure.cones.len()
            ));
        }
        let degree = design.lfsr_degree();
        if degree > 63 {
            return Err(format!("TPG source capped at degree 63, got {degree}"));
        }
        let poly = design
            .polynomial()
            .ok_or_else(|| format!("no polynomial for degree {degree}"))?;
        let first = design.first_lfsr_label();
        let offsets = design
            .cone_offsets(0)
            .into_iter()
            .map(|o| {
                usize::try_from(o - first)
                    .map_err(|_| format!("cone offset {o} precedes the first LFSR label {first}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let width = structure.total_width() as usize;
        if offsets.len() != width {
            return Err(format!(
                "the cone reads {} of the structure's {width} input bits",
                offsets.len()
            ));
        }
        let warmup = design.flip_flop_count() as u64 + structure.sequential_depth() as u64;
        Ok(MinTpgSource {
            lfsr: LfsrSource::with_offsets(poly, offsets, 1 << (degree - 1)).warmed_up(warmup),
            structure_name: structure.name.clone(),
        })
    }

    /// The designed LFSR degree `M`.
    pub fn degree(&self) -> u32 {
        self.lfsr.polynomial().degree()
    }
}

impl PatternSource for MinTpgSource {
    fn next_block(&mut self, width: usize) -> Option<PatternBlock> {
        self.lfsr.next_block(width)
    }

    fn clocks_consumed(&self) -> u64 {
        self.lfsr.clocks_consumed()
    }

    fn patterns_emitted(&self) -> u64 {
        self.lfsr.patterns_emitted()
    }

    fn skip(&mut self, width: usize, patterns: u64) -> (u64, u64) {
        self.lfsr.skip(width, patterns)
    }

    fn descriptor(&self) -> SourceDescriptor {
        let lfsr = self.lfsr.descriptor();
        let field = |key| lfsr.get(key).unwrap_or_default().to_string();
        SourceDescriptor::new("mintpg")
            .field("structure", self.structure_name.clone())
            .field("polynomial", field("polynomial"))
            .field("degree", field("degree"))
            .field("width", field("width"))
            .field("warmup", field("warmup"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tpg::{sc_tpg, TpgSimulator};

    fn adder_structure() -> (GeneralizedStructure, TpgDesign) {
        let s = GeneralizedStructure::single_cone("add", &[("Ra", 3, 0), ("Rb", 3, 0)]);
        let design = sc_tpg(&s);
        (s, design)
    }

    #[test]
    fn tpg_source_matches_raw_simulator_stream_exactly() {
        // Independent reconstruction with a raw TpgSimulator — the
        // pre-source session loop — pins that the source emits the same
        // warm-up/cone-view/all-zero stream. (`session_patterns` itself
        // is a collector over this source, so it can't be the oracle.)
        let (s, design) = adder_structure();
        let width = s.total_width() as usize;
        let mut sim = TpgSimulator::new(&design);
        for _ in 0..design.flip_flop_count() + s.sequential_depth() as usize {
            sim.step();
        }
        let mut expected: Vec<Vec<bool>> = Vec::new();
        for _ in 0..(1u64 << design.lfsr_degree()) - 1 {
            expected.push(sim.cone_view(0).iter().collect());
            sim.step();
        }
        expected.push(vec![false; width]);

        let mut src = MinTpgSource::new(&design, &s).unwrap();
        let mut got = Vec::new();
        while let Some(block) = src.next_block(width) {
            for lane in 0..block.lanes {
                got.push(block.pattern(lane));
            }
        }
        assert_eq!(got, expected);
        assert_eq!(src.patterns_emitted(), expected.len() as u64);
        assert_eq!(got, crate::session::session_patterns(&design, &s));
    }

    #[test]
    fn tpg_source_charges_warmup_and_per_pattern_clocks() {
        let (s, design) = adder_structure();
        let warmup = design.flip_flop_count() as u64 + s.sequential_depth() as u64;
        let mut src = MinTpgSource::new(&design, &s).unwrap();
        assert_eq!(src.clocks_consumed(), warmup);
        while src.next_block(s.total_width() as usize).is_some() {}
        // One clock per emitted pattern (2^M − 1 plus the all-zero).
        assert_eq!(src.clocks_consumed(), warmup + (1 << design.lfsr_degree()));
    }

    #[test]
    fn tpg_source_descriptor_is_self_describing() {
        let (s, design) = adder_structure();
        let src = MinTpgSource::new(&design, &s).unwrap();
        let d = src.descriptor();
        assert_eq!(d.kind(), "mintpg");
        assert_eq!(d.get("structure"), Some("add"));
        assert_eq!(d.get("degree"), Some("6"));
        assert_eq!(d.get("width"), Some("6"));
        assert!(d.to_json().starts_with(r#"{"kind":"mintpg""#));
    }

    #[test]
    fn tpg_source_rejects_multi_cone_structures() {
        use crate::structure::{Cone, ConeDep, TpgRegister};
        // The paper's Example 5 shape: two registers, two cones.
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
        let design = crate::tpg::mc_tpg(&s);
        assert!(MinTpgSource::new(&design, &s).is_err());
    }
}
