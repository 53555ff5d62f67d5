//! 64-way bit-parallel logic simulation.
//!
//! [`PatternSim`] evaluates 64 independent input patterns per pass — one per
//! bit lane of a `u64` — which is the classic speed trick of
//! parallel-pattern fault simulators and exactly what the paper's
//! fault-coverage experiments need.
//!
//! Since the compiled-IR refactor, `PatternSim` is a thin stateful wrapper
//! over [`EvalProgram`]: construction compiles
//! the netlist once, and every [`PatternSim::eval_comb`] call executes the
//! flat instruction stream with no driver scans, no per-gate scratch
//! allocation and no dynamic dispatch.

use crate::compiled::EvalProgram;
use crate::netlist::{NetDriver, NetId, Netlist};
use std::fmt;

/// Errors produced by input packing and application.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimError {
    /// A word/pattern vector's width disagrees with the expected width.
    WidthMismatch {
        /// The required width (the netlist's primary-input count, or the
        /// width of the first pattern in a pack).
        expected: usize,
        /// The width actually supplied.
        got: usize,
    },
    /// More than 64 patterns were supplied to a single 64-lane pack.
    TooManyPatterns {
        /// How many patterns were supplied.
        count: usize,
    },
    /// A broadcast pattern wider than the 64 bits a `u64` value can carry.
    PatternTooWide {
        /// The requested width.
        width: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::WidthMismatch { expected, got } => {
                write!(f, "width mismatch: expected {expected} bit(s), got {got}")
            }
            SimError::TooManyPatterns { count } => {
                write!(
                    f,
                    "{count} patterns supplied; a 64-lane pack holds at most 64"
                )
            }
            SimError::PatternTooWide { width } => {
                write!(
                    f,
                    "pattern width {width} exceeds the 64 bits of a u64 value"
                )
            }
        }
    }
}

impl std::error::Error for SimError {}

/// A 64-lane logic simulator bound to a netlist.
///
/// Lanes are independent: lane *k* of every net value is the simulation of
/// input pattern *k*. Sequential circuits are advanced with [`PatternSim::clock`],
/// which moves every flip-flop's D value to its Q in all lanes at once.
///
/// # Example
///
/// ```
/// use bibs_netlist::builder::NetlistBuilder;
/// use bibs_netlist::sim::PatternSim;
/// use bibs_netlist::GateKind;
///
/// # fn main() -> Result<(), bibs_netlist::NetlistError> {
/// let mut b = NetlistBuilder::new("inv");
/// let a = b.input("a");
/// let y = b.gate(GateKind::Not, &[a]);
/// b.output("y", y);
/// let nl = b.finish()?;
///
/// let mut sim = PatternSim::new(&nl);
/// sim.set_inputs(&[0b01]); // lane 0: a=1, lane 1: a=0
/// sim.eval_comb();
/// assert_eq!(sim.value(nl.outputs()[0]) & 0b11, 0b10);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PatternSim<'a> {
    netlist: &'a Netlist,
    program: EvalProgram,
    values: Vec<u64>,
    capture: Vec<u64>,
}

impl<'a> PatternSim<'a> {
    /// Creates a simulator for `netlist`, compiling it to an
    /// [`EvalProgram`] once. All values (including flip-flop state) start
    /// at 0 with constants applied.
    ///
    /// # Panics
    ///
    /// Panics if the netlist has a combinational cycle; validated netlists
    /// from [`NetlistBuilder::finish`](crate::builder::NetlistBuilder::finish)
    /// never do.
    pub fn new(netlist: &'a Netlist) -> Self {
        let program =
            EvalProgram::compile(netlist).expect("netlist must be combinationally acyclic");
        let values = program.new_values();
        PatternSim {
            netlist,
            program,
            values,
            capture: Vec::new(),
        }
    }

    /// Builds a simulator around an already-compiled program for the same
    /// netlist, avoiding a recompile when the caller holds one (e.g. a
    /// fault-simulation session that also needs golden signatures).
    ///
    /// # Panics
    ///
    /// Panics if `program` was not compiled from `netlist` (slot count
    /// mismatch is the cheap proxy checked here).
    pub fn with_program(netlist: &'a Netlist, program: EvalProgram) -> Self {
        assert_eq!(
            program.slot_count(),
            netlist.net_count(),
            "program/netlist mismatch"
        );
        let values = program.new_values();
        PatternSim {
            netlist,
            program,
            values,
            capture: Vec::new(),
        }
    }

    /// The compiled program backing this simulator.
    pub fn program(&self) -> &EvalProgram {
        &self.program
    }

    /// Sets the primary input values, one word of 64 lanes per input bit,
    /// in [`Netlist::inputs`] order.
    ///
    /// # Errors
    ///
    /// [`SimError::WidthMismatch`] if `words.len()` differs from the input
    /// width; the simulator state is unchanged on error.
    pub fn try_set_inputs(&mut self, words: &[u64]) -> Result<(), SimError> {
        let expected = self.netlist.inputs().len();
        if words.len() != expected {
            return Err(SimError::WidthMismatch {
                expected,
                got: words.len(),
            });
        }
        self.program.set_inputs(&mut self.values, words);
        Ok(())
    }

    /// Sets the primary input values, one word of 64 lanes per input bit,
    /// in [`Netlist::inputs`] order.
    ///
    /// # Panics
    ///
    /// Panics if `words.len()` differs from the input width; use
    /// [`PatternSim::try_set_inputs`] for a fallible variant.
    pub fn set_inputs(&mut self, words: &[u64]) {
        self.try_set_inputs(words)
            .expect("one word per primary input required");
    }

    /// Sets a single primary input net's 64-lane word.
    pub fn set_input(&mut self, net: NetId, word: u64) {
        debug_assert!(matches!(self.netlist.driver(net), NetDriver::Input(_)));
        self.values[net.index()] = word;
    }

    /// Overrides a flip-flop's current Q value (all 64 lanes).
    ///
    /// Used to model test-mode register preloads (scan, LFSR seeds).
    pub fn set_state(&mut self, q: NetId, word: u64) {
        self.values[q.index()] = word;
    }

    /// Evaluates the combinational logic by executing the compiled
    /// instruction stream.
    ///
    /// Constants were applied once at construction (and on
    /// [`PatternSim::reset`]); flip-flop Q values come from current state;
    /// primary inputs from the last [`PatternSim::set_inputs`] call.
    pub fn eval_comb(&mut self) {
        self.program.run(&mut self.values);
    }

    /// Advances every flip-flop: Q ← D in all lanes.
    ///
    /// Call [`PatternSim::eval_comb`] first so D values are up to date.
    pub fn clock(&mut self) {
        self.program.clock(&mut self.values, &mut self.capture);
    }

    /// Convenience: evaluate then clock, one full cycle.
    pub fn step(&mut self) {
        self.eval_comb();
        self.clock();
    }

    /// The current 64-lane word on a net.
    pub fn value(&self, net: NetId) -> u64 {
        self.values[net.index()]
    }

    /// The current primary output words, in [`Netlist::outputs`] order.
    pub fn outputs(&self) -> Vec<u64> {
        self.netlist
            .outputs()
            .iter()
            .map(|&o| self.values[o.index()])
            .collect()
    }

    /// Resets all net values and flip-flop state to 0, re-applying the
    /// constant prologue.
    pub fn reset(&mut self) {
        self.values.iter_mut().for_each(|v| *v = 0);
        self.program.apply_consts(&mut self.values);
    }

    /// Extracts lane `lane` of an output bus as an integer (bit *i* of the
    /// result is output bit *i*).
    ///
    /// # Panics
    ///
    /// Panics if `lane >= 64` or the bus has more than 64 bits.
    pub fn output_lane(&self, bus: &[NetId], lane: usize) -> u64 {
        assert!(lane < 64);
        assert!(bus.len() <= 64);
        let mut out = 0u64;
        for (i, &net) in bus.iter().enumerate() {
            if (self.values[net.index()] >> lane) & 1 == 1 {
                out |= 1 << i;
            }
        }
        out
    }
}

/// Packs up to 64 single-pattern input assignments into lane words.
///
/// `patterns[k][i]` is the value of input bit `i` in pattern `k`; the result
/// has one word per input bit with pattern `k` in lane `k`.
///
/// # Errors
///
/// [`SimError::TooManyPatterns`] past 64 patterns,
/// [`SimError::WidthMismatch`] when pattern widths disagree (against the
/// first pattern's width).
pub fn try_pack_patterns(patterns: &[Vec<bool>]) -> Result<Vec<u64>, SimError> {
    if patterns.len() > 64 {
        return Err(SimError::TooManyPatterns {
            count: patterns.len(),
        });
    }
    let width = patterns.first().map_or(0, Vec::len);
    let mut words = vec![0u64; width];
    for (lane, pat) in patterns.iter().enumerate() {
        if pat.len() != width {
            return Err(SimError::WidthMismatch {
                expected: width,
                got: pat.len(),
            });
        }
        for (i, &bit) in pat.iter().enumerate() {
            if bit {
                words[i] |= 1u64 << lane;
            }
        }
    }
    Ok(words)
}

/// Packs up to 64 single-pattern input assignments into lane words
/// (panicking variant of [`try_pack_patterns`]).
///
/// # Panics
///
/// Panics if more than 64 patterns are supplied or widths are inconsistent.
pub fn pack_patterns(patterns: &[Vec<bool>]) -> Vec<u64> {
    try_pack_patterns(patterns).expect("at most 64 patterns of equal width per pack")
}

/// Expands an integer into `width` lane words where every lane carries the
/// same pattern (bit *i* of `value` on input *i*).
///
/// # Errors
///
/// [`SimError::PatternTooWide`] if `width > 64` — a `u64` value cannot
/// carry more than 64 pattern bits (previously this shifted out of range).
pub fn try_broadcast_pattern(value: u64, width: usize) -> Result<Vec<u64>, SimError> {
    if width > 64 {
        return Err(SimError::PatternTooWide { width });
    }
    Ok((0..width)
        .map(|i| if (value >> i) & 1 == 1 { !0u64 } else { 0 })
        .collect())
}

/// Expands an integer into `width` lane words where every lane carries the
/// same pattern (panicking variant of [`try_broadcast_pattern`]).
///
/// # Panics
///
/// Panics if `width > 64`.
pub fn broadcast_pattern(value: u64, width: usize) -> Vec<u64> {
    try_broadcast_pattern(value, width).expect("broadcast width capped at 64 bits")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;

    #[test]
    fn pipeline_shifts_through_registers() {
        let mut b = NetlistBuilder::new("pipe2");
        let a = b.input("a");
        let r1 = b.register(&[a]);
        let r2 = b.register(&r1);
        b.output("o", r2[0]);
        let nl = b.finish().unwrap();
        let mut sim = PatternSim::new(&nl);
        sim.set_inputs(&[!0u64]);
        sim.step();
        assert_eq!(sim.outputs()[0], 0, "one stage filled");
        sim.step();
        assert_eq!(sim.outputs()[0], !0u64, "two stages filled");
    }

    #[test]
    fn lanes_are_independent() {
        let mut b = NetlistBuilder::new("and");
        let a = b.input("a");
        let c = b.input("b");
        let y = b.and2(a, c);
        b.output("y", y);
        let nl = b.finish().unwrap();
        let mut sim = PatternSim::new(&nl);
        // 4 lanes: exhaustive 2-input truth table.
        sim.set_inputs(&[0b0011, 0b0101]);
        sim.eval_comb();
        assert_eq!(sim.outputs()[0] & 0b1111, 0b0001);
    }

    #[test]
    fn pack_patterns_round_trips() {
        let pats = vec![
            vec![true, false, true],
            vec![false, false, true],
            vec![true, true, false],
        ];
        let words = pack_patterns(&pats);
        assert_eq!(words.len(), 3);
        for (lane, pat) in pats.iter().enumerate() {
            for (i, &bit) in pat.iter().enumerate() {
                assert_eq!((words[i] >> lane) & 1 == 1, bit);
            }
        }
    }

    #[test]
    fn broadcast_pattern_fills_lanes() {
        let words = broadcast_pattern(0b101, 3);
        assert_eq!(words, vec![!0u64, 0, !0u64]);
    }

    #[test]
    fn output_lane_extracts_bus_value() {
        let mut b = NetlistBuilder::new("id");
        let x = b.input_word("x", 4);
        b.output_word("y", &x);
        let nl = b.finish().unwrap();
        let mut sim = PatternSim::new(&nl);
        let pats = vec![
            vec![true, false, true, false], // 0b0101 = 5
            vec![false, true, false, true], // 0b1010 = 10
        ];
        sim.set_inputs(&pack_patterns(&pats));
        sim.eval_comb();
        let out: Vec<NetId> = nl.outputs().to_vec();
        assert_eq!(sim.output_lane(&out, 0), 5);
        assert_eq!(sim.output_lane(&out, 1), 10);
    }

    #[test]
    fn reset_clears_state_and_keeps_constants() {
        let mut b = NetlistBuilder::new("r");
        let a = b.input("a");
        let one = b.const1();
        let g = b.and2(a, one);
        let r = b.register(&[g]);
        b.output("o", r[0]);
        let nl = b.finish().unwrap();
        let mut sim = PatternSim::new(&nl);
        sim.set_inputs(&[!0u64]);
        sim.step();
        sim.eval_comb();
        assert_eq!(sim.outputs()[0], !0u64);
        sim.reset();
        sim.eval_comb();
        assert_eq!(sim.outputs()[0], 0);
        // The constant survived the reset: driving a=1 again works without
        // any per-eval driver scan re-seeding it.
        sim.set_inputs(&[!0u64]);
        sim.step();
        sim.eval_comb();
        assert_eq!(sim.outputs()[0], !0u64);
    }

    #[test]
    fn try_set_inputs_reports_width_mismatch() {
        let mut b = NetlistBuilder::new("w");
        let x = b.input_word("x", 3);
        b.output_word("y", &x);
        let nl = b.finish().unwrap();
        let mut sim = PatternSim::new(&nl);
        assert_eq!(
            sim.try_set_inputs(&[0, 0]),
            Err(SimError::WidthMismatch {
                expected: 3,
                got: 2
            })
        );
        assert!(sim.try_set_inputs(&[1, 2, 3]).is_ok());
    }

    #[test]
    #[should_panic(expected = "one word per primary input")]
    fn set_inputs_panics_on_width_mismatch() {
        let mut b = NetlistBuilder::new("w");
        let _ = b.input_word("x", 2);
        let one = b.const1();
        b.output("y", one);
        let nl = b.finish().unwrap();
        let mut sim = PatternSim::new(&nl);
        sim.set_inputs(&[0]);
    }

    #[test]
    fn try_pack_patterns_rejects_over_64() {
        let pats = vec![vec![true]; 65];
        assert_eq!(
            try_pack_patterns(&pats),
            Err(SimError::TooManyPatterns { count: 65 })
        );
    }

    #[test]
    fn try_pack_patterns_rejects_ragged_widths() {
        let pats = vec![vec![true, false], vec![true]];
        assert_eq!(
            try_pack_patterns(&pats),
            Err(SimError::WidthMismatch {
                expected: 2,
                got: 1
            })
        );
    }

    #[test]
    fn try_broadcast_pattern_rejects_wide_patterns() {
        assert_eq!(
            try_broadcast_pattern(0, 65),
            Err(SimError::PatternTooWide { width: 65 })
        );
        assert_eq!(try_broadcast_pattern(0b1, 1), Ok(vec![!0u64]));
    }

    #[test]
    fn sim_error_displays() {
        let e = SimError::WidthMismatch {
            expected: 4,
            got: 2,
        };
        assert!(e.to_string().contains("expected 4"));
        assert!(SimError::TooManyPatterns { count: 70 }
            .to_string()
            .contains("70"));
        assert!(SimError::PatternTooWide { width: 80 }
            .to_string()
            .contains("80"));
    }
}
