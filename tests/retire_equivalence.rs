//! The proving driver against the plain one.
//!
//! A run whose [`Stop`] carries [`Verdicts`] as its prover retires the
//! faults they prove redundant (by implication, else by PODEM) once the
//! stream has gone [`PROVE_AFTER`] patterns without a detection. A
//! redundant fault is never detected, so the run must reproduce the plain
//! run exactly: every detection index, `patterns_applied`, and the
//! source's clocks, patterns and next block. The cases cover every
//! pattern-source kind and the BIBS kernels of the three paper datapaths,
//! plus four hand-built circuits that pin the prover's rules: a `Test`
//! verdict keeps its fault live, an `Aborted` one does too, an
//! all-redundant live list still stops at the plain run's pattern, and a
//! plateau no longer than [`PROVE_AFTER`] never calls the prover. Last,
//! the whole Table 2 pipeline runs on `circuits/redundant_mux.ckt`, whose
//! redundancy only case analysis on a reconvergent stem proves: retiring
//! its proved faults must leave its report equal to the reference
//! engine's.

mod common;

use bibs_bench::{
    table2_column, table2_json, Engine, SourceSpec, Table2Column, Table2Options, Tdm,
};
use bibs_faultsim::atpg::{AtpgResult, Verdicts};
use bibs_faultsim::fault::{Fault, FaultUniverse};
use bibs_faultsim::par::ParFaultSimulator;
use bibs_faultsim::reference::ReferenceSimulator;
use bibs_faultsim::sim::{BlockSim, FaultSimReport, Stop, PROVE_AFTER};
use bibs_faultsim::source::{
    LfsrSource, PatternBlock, PatternSource, RandomWords, StoredSeedReplay, WeightedRandomSource,
};
use bibs_faultsim::stats::SimStats;
use bibs_netlist::builder::NetlistBuilder;
use bibs_netlist::{EvalProgram, GateKind, Netlist};
use common::bibs_kernels;

/// Table 2's PODEM backtrack limit.
const BACKTRACK_LIMIT: usize = 100_000;

/// The program a [`Verdicts`] on `nl` reads.
fn compiled(nl: &Netlist) -> EvalProgram {
    EvalProgram::compile(nl).expect("combinational netlists compile")
}

type MakeSource<'a> = &'a dyn Fn() -> Box<dyn PatternSource>;

/// A run's report, its source's accounting after it, and the block the
/// source would emit next. Two sources from one factory with equal
/// counts and an equal next block pulled the same blocks.
struct Run {
    report: FaultSimReport,
    clocks: u64,
    emitted: u64,
    next: Option<PatternBlock>,
}

fn run(nl: &Netlist, faults: &[Fault], make: MakeSource, stop: Stop) -> Run {
    let mut source = make();
    let report = ParFaultSimulator::new(nl, faults.to_vec()).run(&mut *source, stop);
    Run {
        report,
        clocks: source.clocks_consumed(),
        emitted: source.patterns_emitted(),
        next: source.next_block(nl.input_width()),
    }
}

fn assert_same_run(plain: &Run, proving: &Run, what: &str) {
    let (p, q) = (&plain.report, &proving.report);
    assert_eq!(p.detection(), q.detection(), "{what}: detection");
    assert_eq!(
        p.patterns_applied(),
        q.patterns_applied(),
        "{what}: patterns_applied"
    );
    assert_eq!(plain.clocks, proving.clocks, "{what}: clocks_consumed");
    assert_eq!(plain.emitted, proving.emitted, "{what}: patterns_emitted");
    assert_eq!(plain.next, proving.next, "{what}: next block");
    // Retiring changes which faults a block evaluates, never which blocks
    // it applies or which faults it drops.
    let (s, t) = (p.stats(), q.stats());
    assert_eq!(s.blocks, t.blocks, "{what}: blocks");
    assert_eq!(s.faults_dropped, t.faults_dropped, "{what}: faults_dropped");
    assert!(t.good_evals <= s.good_evals, "{what}: good_evals");
    assert!(t.fault_evals <= s.fault_evals, "{what}: fault_evals");
    assert_eq!(s.faults_retired, 0, "{what}: the plain run retired faults");
}

/// The deterministic counters of a run (everything but its walls).
fn counters(s: &SimStats) -> [u64; 6] {
    [
        s.blocks,
        s.good_evals,
        s.fault_evals,
        s.gate_evals,
        s.faults_dropped,
        s.faults_retired,
    ]
}

/// Runs the plain driver and the proving one and requires identical
/// runs. Returns both.
fn assert_prover_invisible(
    name: &str,
    nl: &Netlist,
    faults: &[Fault],
    make: MakeSource,
    max_patterns: u64,
    plateau: u64,
    verdicts: &mut Verdicts,
) -> (Run, Run) {
    let stop = || Stop {
        plateau,
        ..Stop::after(max_patterns)
    };
    let plain = run(nl, faults, make, stop());
    let mut prove = |f| verdicts.proves_redundant(f);
    let proving = run(
        nl,
        faults,
        make,
        Stop {
            prover: Some(&mut prove),
            ..stop()
        },
    );
    assert_same_run(&plain, &proving, name);
    (plain, proving)
}

#[test]
fn paper_datapath_kernels_run_identically_with_the_prover() {
    for (name, width) in [("c5a2m", 4), ("c3a2m", 4), ("c4a4m", 4)] {
        let mut retired = 0;
        for (k, (comb, faults, make)) in bibs_kernels(name, width, &SourceSpec::Random)
            .iter()
            .enumerate()
        {
            let program = compiled(comb);
            let mut verdicts = Verdicts::new(comb, &program, BACKTRACK_LIMIT);
            let (_, proving) = assert_prover_invisible(
                &format!("{name}@{width} kernel {k}"),
                comb,
                faults,
                &**make,
                1_000_000,
                8_192,
                &mut verdicts,
            );
            retired += proving.report.stats().faults_retired;
        }
        assert!(retired > 0, "{name}@{width}: the prover retired nothing");
    }
}

#[test]
fn every_source_kind_runs_identically_with_the_prover() {
    let (comb, faults, _) = bibs_kernels("c5a2m", 4, &SourceSpec::Random)
        .into_iter()
        .next()
        .expect("a BIBS kernel");
    let width = comb.input_width();
    let program = compiled(&comb);
    let mut verdicts = Verdicts::new(&comb, &program, BACKTRACK_LIMIT);
    let random = || Box::new(RandomWords::seeded(11)) as Box<dyn PatternSource>;
    let lfsr =
        || Box::new(LfsrSource::new(width, 5).expect("fits an LFSR")) as Box<dyn PatternSource>;
    let weighted = || {
        Box::new(WeightedRandomSource::new(3, vec![0.75; width]).expect("valid bias"))
            as Box<dyn PatternSource>
    };
    // Ragged blocks at every reseed, and a stream that runs dry.
    let replay = || {
        Box::new(
            StoredSeedReplay::parse("sched", "0x51B51994 2100\n0xB1B5 1500\n7 1030\n")
                .expect("schedule parses"),
        ) as Box<dyn PatternSource>
    };
    let sources: [(&str, MakeSource); 4] = [
        ("random", &random),
        ("lfsr", &lfsr),
        ("weighted", &weighted),
        ("replay", &replay),
    ];
    for (kind, make) in sources {
        let (_, proving) =
            assert_prover_invisible(kind, &comb, &faults, make, 1_000_000, 4_096, &mut verdicts);
        assert!(
            proving.report.stats().faults_retired > 0,
            "{kind}: the prover retired nothing"
        );
    }
}

#[test]
fn mintpg_source_runs_identically_with_the_prover() {
    let kernels = bibs_kernels("c5a2m", 7, &SourceSpec::MinTpg);
    let (comb, faults, make) = &kernels[0];
    assert_eq!(
        make().descriptor().kind(),
        "mintpg",
        "the width-7 BIBS kernel must get the TPG, not the LFSR fallback"
    );
    let program = compiled(comb);
    let mut verdicts = Verdicts::new(comb, &program, BACKTRACK_LIMIT);
    assert_prover_invisible(
        "mintpg",
        comb,
        faults,
        &**make,
        1_000_000,
        4_096,
        &mut verdicts,
    );
}

/// (a) A 16-input AND's output stuck-at-0 needs the all-ones pattern: one
/// in 65,536. PODEM finds that test, so the fault stays live and is
/// detected where the plain run detects it, long after the prover ran.
#[test]
fn a_random_resistant_testable_fault_stays_live() {
    let mut b = NetlistBuilder::new("and16");
    let x = b.input_word("x", 16);
    let y = b.gate(GateKind::And, &x);
    b.output("y", y);
    let nl = b.finish().unwrap();
    let fault = Fault::net_sa0(nl.outputs()[0]);
    let program = compiled(&nl);
    let mut verdicts = Verdicts::new(&nl, &program, BACKTRACK_LIMIT);
    assert!(matches!(verdicts.verdict(fault), AtpgResult::Test(_)));
    let make = || Box::new(RandomWords::seeded(16)) as Box<dyn PatternSource>;
    let (plain, proving) = assert_prover_invisible(
        "and16",
        &nl,
        &[fault],
        &make,
        1 << 22,
        1 << 22,
        &mut verdicts,
    );
    let detected = proving.report.detection()[0].expect("the random stream finds it");
    assert!(
        detected > PROVE_AFTER,
        "detected at {detected}, before the prover ran"
    );
    assert_eq!(proving.report.stats().faults_retired, 0);
    assert_eq!(
        counters(plain.report.stats()),
        counters(proving.report.stats())
    );
}

/// `y = (a XOR b) AND (a XNOR b)` is constant 0, but implication does
/// not show it: activating `y` stuck-at-0 sets both gates to 1, and a 1
/// on a two-input parity gate decides neither input. PODEM needs three
/// backtracks to prove `y` stuck-at-0 redundant. `z = a XOR b` gives the
/// list faults the stream detects at once.
fn case_analysis_redundancy() -> (Netlist, Fault) {
    let mut b = NetlistBuilder::new("xor_and_xnor");
    let a = b.input("a");
    let c = b.input("b");
    let x = b.xor2(a, c);
    let xn = b.gate(GateKind::Xnor, &[a, c]);
    let y = b.and2(x, xn);
    let z = b.xor2(a, c);
    b.output("y", y);
    b.output("z", z);
    let nl = b.finish().unwrap();
    let fault = Fault::net_sa0(nl.outputs()[0]);
    (nl, fault)
}

/// (b) At a backtrack limit of 1 PODEM aborts on the redundant fault, so
/// it stays live and every block still runs the good machine.
#[test]
fn aborted_faults_stay_live() {
    let (nl, fault) = case_analysis_redundancy();
    let faults = FaultUniverse::collapsed(&nl).faults().to_vec();
    assert!(faults.contains(&fault));
    let program = compiled(&nl);
    assert_eq!(
        Verdicts::new(&nl, &program, BACKTRACK_LIMIT).verdict(fault),
        &AtpgResult::Redundant
    );
    let mut verdicts = Verdicts::new(&nl, &program, 1);
    assert_eq!(verdicts.verdict(fault), &AtpgResult::Aborted);
    let make = || Box::new(RandomWords::seeded(2)) as Box<dyn PatternSource>;
    let (plain, proving) = assert_prover_invisible(
        "limit 1",
        &nl,
        &faults,
        &make,
        1_000_000,
        4_096,
        &mut verdicts,
    );
    assert_eq!(
        plain.report.stats().good_evals,
        proving.report.stats().good_evals,
        "an aborted fault keeps the good machine running"
    );
    assert!(proving.report.detection()[faults.iter().position(|&f| f == fault).unwrap()].is_none());
}

/// (c) Once the detectable faults of `y = a AND NOT a`, `z = b XOR c` are
/// detected, every live fault is redundant. The prover retires them all,
/// the later blocks skip the good machine, and the run still applies the
/// plain run's blocks and stops at the last detection plus the plateau.
#[test]
fn an_all_redundant_live_list_still_stops_at_the_plateau() {
    let mut b = NetlistBuilder::new("and_not");
    let a = b.input("a");
    let na = b.not(a);
    let y = b.and2(a, na);
    let c = b.input("b");
    let d = b.input("c");
    let z = b.xor2(c, d);
    b.output("y", y);
    b.output("z", z);
    let nl = b.finish().unwrap();
    let faults = FaultUniverse::collapsed(&nl).faults().to_vec();
    let plateau = 4_096;
    let program = compiled(&nl);
    let mut verdicts = Verdicts::new(&nl, &program, BACKTRACK_LIMIT);
    let make = || Box::new(RandomWords::seeded(9)) as Box<dyn PatternSource>;
    let (plain, proving) = assert_prover_invisible(
        "a AND NOT a",
        &nl,
        &faults,
        &make,
        1_000_000,
        plateau,
        &mut verdicts,
    );
    let live = plain.report.undetected().len() as u64;
    assert!(live > 0, "the circuit must keep a redundant fault");
    let last = plain.report.detection().iter().flatten().max().unwrap();
    let (s, t) = (plain.report.stats(), proving.report.stats());
    assert_eq!(
        proving.report.patterns_applied(),
        last / 64 * 64 + 64 + plateau,
        "the run stops one plateau after the last detection's block"
    );
    assert_eq!(t.faults_retired, live);
    assert!(
        t.good_evals < s.good_evals,
        "retiring every live fault must skip good-machine evaluations"
    );

    // The reference engine honours a prover too, with the same report.
    let plain = ReferenceSimulator::new(&nl, faults.clone()).run(
        &mut RandomWords::seeded(9),
        Stop {
            plateau,
            ..Stop::after(1_000_000)
        },
    );
    let mut prove = |f| verdicts.proves_redundant(f);
    let proving = ReferenceSimulator::new(&nl, faults.clone()).run(
        &mut RandomWords::seeded(9),
        Stop {
            plateau,
            prover: Some(&mut prove),
            ..Stop::after(1_000_000)
        },
    );
    assert_eq!(plain.detection(), proving.detection());
    assert_eq!(plain.patterns_applied(), proving.patterns_applied());
    assert_eq!(plain.stats().blocks, proving.stats().blocks);
    assert_eq!(proving.stats().faults_retired, live);
    assert!(proving.stats().good_evals < plain.stats().good_evals);
}

/// (d) A plateau no longer than [`PROVE_AFTER`] stops the run before the
/// prover's turn: a prover that would retire every fault is never called,
/// and every counter equals the plain run's.
#[test]
fn a_short_plateau_never_calls_the_prover() {
    let (comb, faults, _) = bibs_kernels("c5a2m", 4, &SourceSpec::Random)
        .into_iter()
        .next()
        .expect("a BIBS kernel");
    for plateau in [64, 1000, PROVE_AFTER] {
        let stop = || Stop {
            plateau,
            ..Stop::after(1_000_000)
        };
        let make = || Box::new(RandomWords::seeded(4)) as Box<dyn PatternSource>;
        let plain = run(&comb, &faults, &make, stop());
        let mut calls = 0;
        let mut retire_all = |_| {
            calls += 1;
            true
        };
        let proving = run(
            &comb,
            &faults,
            &make,
            Stop {
                prover: Some(&mut retire_all),
                ..stop()
            },
        );
        let what = format!("plateau {plateau}");
        assert_eq!(calls, 0, "{what}: the prover was called");
        assert_same_run(&plain, &proving, &what);
        assert_eq!(
            counters(plain.report.stats()),
            counters(proving.report.stats()),
            "{what}"
        );
        assert!(
            !plain.report.undetected().is_empty(),
            "{what}: nothing was left for a prover"
        );
    }
}

/// (e) The Table 2 pipeline on the one shipped circuit with redundancy
/// beyond the observability split: `SUB` computes `a - a`. No static
/// prover runs, so those faults are simulated until the prover proves
/// them redundant and retires them. The fault accounting and the JSON must
/// equal the reference engine's, which never retires anything.
#[test]
fn table2_on_the_redundant_fixture_matches_the_reference_engine() {
    let path = std::path::Path::new("circuits/redundant_mux.ckt");
    let loaded = bibs_datapath::front::load_path(path).expect("the fixture loads");
    let circuit = loaded.circuit().expect("the fixture is RTL");
    let columns = |engine| {
        let options = Table2Options {
            engine,
            ..Table2Options::default()
        };
        (
            table2_column(circuit, Tdm::Bibs, &options),
            table2_column(circuit, Tdm::Ka85, &options),
        )
    };
    let compiled = columns(Engine::Compiled);
    let sums = |c: &Table2Column| {
        let mut sum = (0, 0, 0);
        for (k, s) in c.kernel_stats.iter().enumerate() {
            assert_eq!((s.aborted, s.unreached), (0, 0), "{} kernel {k}", c.tdm);
            sum = (
                sum.0 + s.faults,
                sum.1 + s.redundant,
                sum.2 + s.detectable(),
            );
        }
        sum
    };
    assert_eq!(
        sums(&compiled.0),
        (204, 91, 113),
        "BIBS faults/redundant/detectable"
    );
    assert_eq!(
        sums(&compiled.1),
        (196, 68, 128),
        "[3] faults/redundant/detectable"
    );
    assert_eq!(
        table2_json(&[compiled]),
        table2_json(&[columns(Engine::Reference)]),
        "retiring proved faults must not change the report"
    );
}
