//! The four differential oracles the fuzzer cross-checks per circuit.
//!
//! Each oracle pits two implementations (or one implementation and a
//! ground truth) against each other on the same circuit and reports a
//! [`Divergence`] when they disagree:
//!
//! 1. **Eval** — the compiled [`EvalProgram`]'s good-machine words vs the
//!    gate-walking reference interpreter, on random 64-pattern blocks;
//!    then the compiled [`ParFaultSimulator`]'s report vs the
//!    [`ReferenceSimulator`]'s on one seeded stream (bit-identical
//!    `detection()` and `patterns_applied()`).
//! 2. **Prover** — every fault the [`StaticFaultAnalysis`] rules
//!    statically untestable must stay undetected under exhaustive
//!    simulation.
//! 3. **Podem** — every PODEM verdict on the collapsed fault universe
//!    must hold under exhaustive simulation: a test detects its fault
//!    when replayed, a redundant fault is never detected, and no search
//!    aborts under Table 2's backtrack limit — the check behind the
//!    100 %-coverage rows, run in release where PODEM's debug-build
//!    implication check is off. Every fault the
//!    [`ImplicationCheck`] proves redundant must stay undetected too,
//!    and PODEM must find no test for it.
//! 4. **Retire** — a run whose driver hands its live faults to PODEM
//!    after [`PROVE_AFTER`](bibs_faultsim::sim::PROVE_AFTER) patterns
//!    without a detection, and stops simulating the ones proved
//!    redundant, must reproduce the plain run's report bit for bit and
//!    count its blocks, the ones it skips once no fault is live included
//!    — the check behind `table2`'s mid-run retirement.
//!
//! Oracles 2 and 3 need exhaustive simulation and only run when the
//! circuit has at most [`EXHAUSTIVE_PI_LIMIT`] primary-input bits; 1 and
//! 4 run on everything. Sequential circuits are checked on their
//! [`combinational_equivalent`](Netlist::combinational_equivalent).

use bibs_faultsim::atpg::{Atpg, AtpgResult, Verdicts};
use bibs_faultsim::fault::{FaultUniverse, StaticFaultAnalysis};
use bibs_faultsim::implication::ImplicationCheck;
use bibs_faultsim::par::ParFaultSimulator;
use bibs_faultsim::reference::ReferenceSimulator;
use bibs_faultsim::sim::{BlockSim, Stop};
use bibs_faultsim::source::RandomWords;
use bibs_netlist::{EvalProgram, Netlist};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// Largest primary-input width the exhaustive oracles (2 and 3) accept.
pub const EXHAUSTIVE_PI_LIMIT: usize = 16;

/// PODEM's backtrack limit for oracles 3 and 4: Table 2's default. A complete
/// search over at most [`EXHAUSTIVE_PI_LIMIT`] inputs takes at most
/// `2^16 - 1` backtracks, so an abort under it is a divergence.
const PODEM_BACKTRACK_LIMIT: usize = 100_000;

/// Random patterns in the eval oracle's fault-simulation stream.
const RANDOM_PATTERNS: u64 = 1_024;

/// Pattern budget and detection plateau of the retire oracle's runs. The
/// plateau is longer than
/// [`PROVE_AFTER`](bibs_faultsim::sim::PROVE_AFTER), so the prover runs
/// whenever a fault outlives the detections by that many patterns.
const RETIRE_PATTERNS: u64 = 4_096;
const RETIRE_PLATEAU: u64 = 2_048;

/// Which oracle flagged a disagreement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Oracle {
    /// Compiled vs reference evaluation and fault-simulation reports.
    Eval,
    /// Static untestability prover vs exhaustive simulation.
    Prover,
    /// PODEM verdicts vs exhaustive simulation.
    Podem,
    /// Runs that retire PODEM-proved faults vs plain runs.
    Retire,
}

impl fmt::Display for Oracle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Oracle::Eval => "eval",
            Oracle::Prover => "prover",
            Oracle::Podem => "podem",
            Oracle::Retire => "retire",
        })
    }
}

/// One observed disagreement between an engine and its oracle.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Which oracle fired.
    pub oracle: Oracle,
    /// Human-readable description of the disagreement.
    pub detail: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.oracle, self.detail)
    }
}

/// Runs every applicable oracle on `netlist` (made combinational first)
/// under the deterministic `seed`. An empty result means all engines
/// agree — the invariant `bibs-fuzz --smoke` enforces.
pub fn check_all(netlist: &Netlist, seed: u64) -> Vec<Divergence> {
    let nl = netlist.combinational_equivalent();
    let mut out = Vec::new();
    let program = match EvalProgram::compile(&nl) {
        Ok(p) => p,
        Err(e) => {
            // A corpus circuit that fails to compile is itself a finding.
            out.push(Divergence {
                oracle: Oracle::Eval,
                detail: format!("netlist does not compile: {e}"),
            });
            return out;
        }
    };
    out.extend(check_eval(&nl, &program, seed));
    out.extend(check_retire(&nl, &program, seed));
    if nl.input_width() <= EXHAUSTIVE_PI_LIMIT {
        out.extend(check_prover(&nl, &program));
        out.extend(check_podem(&nl, &program));
    }
    out
}

/// Oracle 1: compiled vs reference interpreter — the good machine's net
/// words on random blocks, then the fault-simulation reports on one
/// seeded stream.
pub fn check_eval(nl: &Netlist, program: &EvalProgram, seed: u64) -> Vec<Divergence> {
    let order = match nl.levelize() {
        Ok(o) => o,
        Err(e) => {
            return vec![Divergence {
                oracle: Oracle::Eval,
                detail: format!("levelize failed on a compiled netlist: {e}"),
            }]
        }
    };
    let mut rng = StdRng::seed_from_u64(seed ^ 0xE7A1);
    let mut compiled = program.new_values();
    let mut interpreted = vec![0u64; nl.net_count()];
    let mut scratch = Vec::new();
    for block in 0..8 {
        let words: Vec<u64> = (0..nl.input_width()).map(|_| rng.gen()).collect();
        program.eval_good(&mut compiled, &words);
        bibs_faultsim::reference::eval_good(nl, &order, &words, &mut interpreted, &mut scratch);
        for id in nl.net_ids() {
            if compiled[id.index()] != interpreted[id.index()] {
                return vec![Divergence {
                    oracle: Oracle::Eval,
                    detail: format!(
                        "net {} block {block}: compiled {:#018x} != reference {:#018x}",
                        id.index(),
                        compiled[id.index()],
                        interpreted[id.index()]
                    ),
                }];
            }
        }
    }
    let faults = FaultUniverse::collapsed(nl).faults().to_vec();
    if faults.is_empty() {
        return Vec::new();
    }
    let source_seed = seed ^ 0x9A7A;
    let compiled = ParFaultSimulator::new(nl, faults.clone()).run(
        &mut RandomWords::seeded(source_seed),
        Stop::after(RANDOM_PATTERNS),
    );
    let reference = ReferenceSimulator::new(nl, faults).run(
        &mut RandomWords::seeded(source_seed),
        Stop::after(RANDOM_PATTERNS),
    );
    if compiled.detection() != reference.detection()
        || compiled.patterns_applied() != reference.patterns_applied()
    {
        return vec![Divergence {
            oracle: Oracle::Eval,
            detail: "compiled report differs from the reference interpreter".into(),
        }];
    }
    Vec::new()
}

/// Oracle 4: retiring PODEM-proved faults mid-run is report-invisible.
/// A plain run and a run whose prover is PODEM at Table 2's backtrack
/// limit draw the same seeded stream and must agree on detection,
/// `patterns_applied` and the blocks counted, the blocks the proving run
/// skipped once no fault was live included.
/// Like Table 2, the runs simulate only the faults with a path to an
/// output: PODEM can prove an unobservable fault redundant only by
/// exhausting every assignment that activates it.
pub fn check_retire(nl: &Netlist, program: &EvalProgram, seed: u64) -> Vec<Divergence> {
    let (faults, _) = FaultUniverse::collapsed(nl).split_by_observability(program);
    if faults.is_empty() {
        return Vec::new();
    }
    let source_seed = seed ^ 0x9E71;
    let stop = || Stop {
        plateau: RETIRE_PLATEAU,
        ..Stop::after(RETIRE_PATTERNS)
    };
    let plain = ParFaultSimulator::new(nl, faults.clone())
        .run(&mut RandomWords::seeded(source_seed), stop());
    let mut verdicts = Verdicts::new(nl, program, PODEM_BACKTRACK_LIMIT);
    let mut prove = |f| verdicts.proves_redundant(f);
    let proving = ParFaultSimulator::new(nl, faults).run(
        &mut RandomWords::seeded(source_seed),
        Stop {
            prover: Some(&mut prove),
            ..stop()
        },
    );
    if proving.detection() != plain.detection()
        || proving.patterns_applied() != plain.patterns_applied()
        || proving.stats().blocks != plain.stats().blocks
    {
        return vec![Divergence {
            oracle: Oracle::Retire,
            detail: format!(
                "report differs ({} fault(s) retired)",
                proving.stats().faults_retired
            ),
        }];
    }
    Vec::new()
}

/// Oracle 2: statically-proven-untestable faults are never detected
/// exhaustively.
pub fn check_prover(nl: &Netlist, program: &EvalProgram) -> Vec<Divergence> {
    let universe = FaultUniverse::full(nl);
    if universe.is_empty() {
        return Vec::new();
    }
    let sfa = StaticFaultAnalysis::new(program);
    let (_, untestable) = sfa.partition(program, universe.faults());
    if untestable.is_empty() {
        return Vec::new();
    }
    let faults: Vec<_> = untestable.iter().map(|(f, _)| *f).collect();
    let report = ParFaultSimulator::new(nl, faults.clone()).run_exhaustive();
    for (i, det) in report.detection().iter().enumerate() {
        if let Some(pattern) = det {
            return vec![Divergence {
                oracle: Oracle::Prover,
                detail: format!(
                    "fault {} proven untestable ({}) but detected at pattern {pattern}",
                    faults[i], untestable[i].1.witness
                ),
            }];
        }
    }
    Vec::new()
}

/// Oracle 3: PODEM's verdict on every collapsed fault holds under
/// exhaustive simulation. A test must detect its fault when replayed with
/// its don't-cares filled either way; a redundant fault must stay
/// undetected over all `2^PI` patterns; an abort under Table 2's limit of
/// 100,000 backtracks is itself a divergence. A fault the implication
/// check proves redundant must stay undetected and get no test from
/// PODEM.
pub fn check_podem(nl: &Netlist, program: &EvalProgram) -> Vec<Divergence> {
    let faults = FaultUniverse::collapsed(nl).faults().to_vec();
    if faults.is_empty() {
        return Vec::new();
    }
    let truth = ParFaultSimulator::new(nl, faults.clone()).run_exhaustive();
    let mut atpg = Atpg::new(nl);
    let mut check = ImplicationCheck::new(program);
    for (&fault, detection) in faults.iter().zip(truth.detection()) {
        let implied = check.proves_redundant(fault);
        let wrong = match (implied, detection) {
            (true, Some(pattern)) => Some(format!(
                "the implication check proved it redundant but pattern {pattern} detects it"
            )),
            _ => match atpg.generate(fault, PODEM_BACKTRACK_LIMIT) {
                AtpgResult::Test(test) if implied => Some(format!(
                    "the implication check proved it redundant but PODEM found test {test:?}"
                )),
                AtpgResult::Test(test) => [false, true].into_iter().find_map(|fill| {
                    let pattern: Vec<bool> = test.iter().map(|v| v.unwrap_or(fill)).collect();
                    let replay = ParFaultSimulator::new(nl, vec![fault]).run_patterns(&[pattern]);
                    (replay.detected_count() == 0).then(|| {
                        format!("PODEM's test {test:?} misses it with don't-cares at {fill}")
                    })
                }),
                AtpgResult::Redundant => detection.map(|pattern| {
                    format!("PODEM proved it redundant but pattern {pattern} detects it")
                }),
                AtpgResult::Aborted => Some(format!(
                    "PODEM aborted after {PODEM_BACKTRACK_LIMIT} backtracks"
                )),
            },
        };
        if let Some(detail) = wrong {
            return vec![Divergence {
                oracle: Oracle::Podem,
                detail: format!("fault {fault}: {detail}"),
            }];
        }
    }
    Vec::new()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Family;

    #[test]
    fn healthy_circuits_produce_no_divergences() {
        for f in [
            Family::Adder { width: 4 },
            Family::Multiplier { width: 3 },
            Family::Pipeline { width: 3, depth: 3 },
            Family::RandomDag {
                seed: 0xBEEF,
                inputs: 5,
                ops: 18,
            },
        ] {
            let nl = f.build();
            let d = check_all(&nl, 42);
            assert!(d.is_empty(), "{f}: {:?}", d);
        }
    }

    #[test]
    fn exhaustive_oracles_respect_the_pi_limit() {
        // A 32-bit adder has 65 PI bits; check_all must not attempt 2^65
        // patterns (it would hang long before failing).
        let nl = Family::Adder { width: 32 }.build();
        assert!(nl.input_width() > EXHAUSTIVE_PI_LIMIT);
        let d = check_all(&nl, 7);
        assert!(d.is_empty(), "{:?}", d);
    }
}
