//! Gate-level netlist substrate for the BIBS reproduction.
//!
//! The BIBS paper evaluates its methodology by fault-simulating
//! MABAL-synthesized datapath circuits. No gate-level EDA infrastructure
//! exists in the Rust ecosystem, so this crate provides it from scratch:
//!
//! * [`Netlist`] — a flat single-output-per-gate netlist with D flip-flops,
//!   primary inputs/outputs and named nets;
//! * [`builder::NetlistBuilder`] — word-level construction helpers
//!   (ripple-carry adders, array multipliers, muxes, registers) used by the
//!   MABAL-substitute datapath generator;
//! * [`sim::PatternSim`] — a 64-way bit-parallel logic simulator;
//! * levelization ([`Netlist::levelize`]) and the combinational-equivalent
//!   transform ([`Netlist::combinational_equivalent`]) that the BALLAST
//!   property of balanced circuits justifies (ref \[8\] of the paper).
//!
//! # Example
//!
//! ```
//! use bibs_netlist::builder::NetlistBuilder;
//!
//! # fn main() -> Result<(), bibs_netlist::NetlistError> {
//! let mut b = NetlistBuilder::new("adder");
//! let a = b.input_word("a", 4);
//! let c = b.input_word("b", 4);
//! let (sum, _cout) = b.ripple_carry_adder(&a, &c, None);
//! b.output_word("o", &sum);
//! let nl = b.finish()?;
//! assert_eq!(nl.input_width(), 8);
//! # Ok(())
//! # }
//! ```
#![warn(missing_docs)]

pub mod analysis;
pub mod bench;
pub mod builder;
pub mod compiled;
pub mod seqanalysis;
pub mod sim;
#[cfg(feature = "testing")]
pub mod testgen;
pub mod verilog;

mod netlist;

pub use compiled::{Cone, EvalProgram, FanoutRegions, Instr, Patch};
pub use netlist::{
    Dff, DffId, Gate, GateId, GateKind, Net, NetDriver, NetId, Netlist, NetlistError,
};
