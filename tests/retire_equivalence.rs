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
//!
//! Once the prover leaves no fault live, the driver skips the source to
//! the run's stop point instead of pulling the rest of the plateau. The
//! skip tests wrap the source to count its calls: a proving run pulls
//! exactly the blocks that evaluate the good machine and skips at most
//! once, and a source whose `skip` is the trait's default (it pulls)
//! gives the same run. They cover a cut at the pattern cap, an LFSR whose
//! period ends inside the skip, and a ragged replay schedule.

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
use bibs_lfsr::poly::primitive_polynomial;
use bibs_netlist::builder::NetlistBuilder;
use bibs_netlist::{EvalProgram, GateKind, Netlist};
use common::bibs_kernels;
use std::cell::Cell;
use std::rc::Rc;

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

/// Counts a source's `next_block` and `skip` calls and forwards both.
struct Counted {
    inner: Box<dyn PatternSource>,
    pulls: Rc<Cell<u64>>,
    skips: Rc<Cell<u64>>,
}

impl PatternSource for Counted {
    fn next_block(&mut self, width: usize) -> Option<PatternBlock> {
        self.pulls.set(self.pulls.get() + 1);
        self.inner.next_block(width)
    }

    fn clocks_consumed(&self) -> u64 {
        self.inner.clocks_consumed()
    }

    fn patterns_emitted(&self) -> u64 {
        self.inner.patterns_emitted()
    }

    fn descriptor(&self) -> bibs_faultsim::source::SourceDescriptor {
        self.inner.descriptor()
    }

    fn skip(&mut self, width: usize, patterns: u64) -> (u64, u64) {
        self.skips.set(self.skips.get() + 1);
        self.inner.skip(width, patterns)
    }
}

/// Forwards everything but `skip`, which is the trait's default: it
/// pulls the skipped blocks.
struct Pulling(Box<dyn PatternSource>);

impl PatternSource for Pulling {
    fn next_block(&mut self, width: usize) -> Option<PatternBlock> {
        self.0.next_block(width)
    }

    fn clocks_consumed(&self) -> u64 {
        self.0.clocks_consumed()
    }

    fn patterns_emitted(&self) -> u64 {
        self.0.patterns_emitted()
    }

    fn descriptor(&self) -> bibs_faultsim::source::SourceDescriptor {
        self.0.descriptor()
    }
}

/// A proving run through [`Counted`] pulls one block per good-machine
/// evaluation and skips at most once, and equals the proving run through
/// [`Pulling`] and the plain run. Returns the counted run and its skip
/// calls.
fn assert_skip_is_pulling(
    what: &str,
    nl: &Netlist,
    faults: &[Fault],
    make: MakeSource,
    max_patterns: u64,
    plateau: u64,
    verdicts: &mut Verdicts,
) -> (Run, u64) {
    let stop = || Stop {
        plateau,
        ..Stop::after(max_patterns)
    };
    let (pulls, skips) = (Rc::new(Cell::new(0)), Rc::new(Cell::new(0)));
    let counted = {
        let (pulls, skips) = (pulls.clone(), skips.clone());
        move || {
            Box::new(Counted {
                inner: make(),
                pulls: pulls.clone(),
                skips: skips.clone(),
            }) as Box<dyn PatternSource>
        }
    };
    let pulling = || Box::new(Pulling(make())) as Box<dyn PatternSource>;
    let mut prove = |f| verdicts.proves_redundant(f);
    let skipped = run(
        nl,
        faults,
        &counted,
        Stop {
            prover: Some(&mut prove),
            ..stop()
        },
    );
    // `run` pulls one more block after the run, to compare the next block.
    let (pulls, skips) = (pulls.get() - 1, skips.get());
    let stats = skipped.report.stats();
    assert_eq!(pulls, stats.good_evals, "{what}: pulls");
    assert!(skips <= 1, "{what}: {skips} skips");
    assert_eq!(
        stats.good_evals + stats.blocks_skipped,
        stats.blocks,
        "{what}: every block is evaluated or skipped"
    );
    assert_eq!(
        stats.blocks_skipped > 0,
        skips == 1 && stats.blocks > pulls,
        "{what}"
    );
    let mut prove = |f| verdicts.proves_redundant(f);
    let pulled = run(
        nl,
        faults,
        &pulling,
        Stop {
            prover: Some(&mut prove),
            ..stop()
        },
    );
    let (p, q) = (&pulled.report, &skipped.report);
    assert_eq!(p.detection(), q.detection(), "{what}: detection");
    assert_eq!(p.patterns_applied(), q.patterns_applied(), "{what}");
    assert_eq!(
        (pulled.clocks, pulled.emitted, &pulled.next),
        (skipped.clocks, skipped.emitted, &skipped.next),
        "{what}: a pulling skip leaves the source elsewhere"
    );
    assert_eq!(
        (counters(p.stats()), p.stats().blocks_skipped),
        (counters(q.stats()), q.stats().blocks_skipped),
        "{what}: a pulling skip counts other work"
    );
    let plain = run(nl, faults, make, stop());
    assert_same_run(&plain, &skipped, what);
    (skipped, skips)
}

/// `y = a AND NOT a` keeps two redundant faults; `z = b XOR c` gives the
/// list faults the stream detects at once.
fn and_not() -> Netlist {
    let mut b = NetlistBuilder::new("and_not");
    let a = b.input("a");
    let na = b.not(a);
    let y = b.and2(a, na);
    let c = b.input("b");
    let d = b.input("c");
    let z = b.xor2(c, d);
    b.output("y", y);
    b.output("z", z);
    b.finish().unwrap()
}

#[test]
fn a_skip_cut_at_the_pattern_cap_counts_the_capped_lanes() {
    let nl = and_not();
    let faults = FaultUniverse::collapsed(&nl).faults().to_vec();
    let program = compiled(&nl);
    let mut verdicts = Verdicts::new(&nl, &program, BACKTRACK_LIMIT);
    let make = || Box::new(RandomWords::seeded(9)) as Box<dyn PatternSource>;
    // The cap ends 41 lanes into a block, long before the plateau would.
    let max_patterns = 140 * 64 + 41;
    let (run, skips) = assert_skip_is_pulling(
        "cut",
        &nl,
        &faults,
        &make,
        max_patterns,
        1 << 20,
        &mut verdicts,
    );
    assert_eq!(skips, 1);
    assert_eq!(run.report.patterns_applied(), max_patterns);
    assert_eq!(run.emitted, 141 * 64, "the source accounts the whole block");

    // The reference engine counts the skipped blocks the same way.
    let mut prove = |f| verdicts.proves_redundant(f);
    let reference = ReferenceSimulator::new(&nl, faults.clone()).run(
        &mut RandomWords::seeded(9),
        Stop {
            plateau: 1 << 20,
            prover: Some(&mut prove),
            ..Stop::after(max_patterns)
        },
    );
    assert_eq!(reference.detection(), run.report.detection());
    assert_eq!(reference.patterns_applied(), max_patterns);
    let (r, c) = (reference.stats(), run.report.stats());
    assert_eq!(
        (r.blocks, r.good_evals, r.blocks_skipped),
        (c.blocks, c.good_evals, c.blocks_skipped)
    );
}

#[test]
fn an_lfsr_period_that_ends_inside_the_skip_stops_the_run() {
    // A degree-11 LFSR read at three stages: 2,047 patterns and the
    // all-zero one, so the source runs dry inside the plateau's skip.
    let nl = and_not();
    let faults = FaultUniverse::collapsed(&nl).faults().to_vec();
    let program = compiled(&nl);
    let mut verdicts = Verdicts::new(&nl, &program, BACKTRACK_LIMIT);
    let poly = primitive_polynomial(11).unwrap();
    let make = || {
        Box::new(LfsrSource::with_polynomial(&poly, 3, 0x51B5).warmed_up(5))
            as Box<dyn PatternSource>
    };
    let (run, skips) =
        assert_skip_is_pulling("lfsr", &nl, &faults, &make, 1_000_000, 4_096, &mut verdicts);
    assert_eq!(skips, 1);
    assert_eq!(run.report.patterns_applied(), 2_048);
    assert_eq!(run.clocks, 5 + 2_048);
    assert_eq!(run.next, None);
    assert!(run.report.stats().blocks_skipped > 0);
}

#[test]
fn a_ragged_replay_skips_like_it_pulls() {
    let nl = and_not();
    let faults = FaultUniverse::collapsed(&nl).faults().to_vec();
    let program = compiled(&nl);
    let mut verdicts = Verdicts::new(&nl, &program, BACKTRACK_LIMIT);
    // Ragged blocks at each reseed. The 4,096-pattern plateau stops inside
    // the third segment; the 8,192 one outlasts the schedule.
    let make = || {
        Box::new(
            StoredSeedReplay::parse("sched", "0x51B51994 2100\n0xB1B5 1500\n7 1030\n")
                .expect("schedule parses"),
        ) as Box<dyn PatternSource>
    };
    for (plateau, dry) in [(4_096, false), (8_192, true)] {
        let (run, skips) = assert_skip_is_pulling(
            &format!("replay, plateau {plateau}"),
            &nl,
            &faults,
            &make,
            1_000_000,
            plateau,
            &mut verdicts,
        );
        assert_eq!(skips, 1);
        assert_eq!(run.next.is_none(), dry, "plateau {plateau}");
        assert!(run.report.stats().blocks_skipped > 0);
    }
}

#[test]
fn paper_kernels_pull_only_the_blocks_they_evaluate() {
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
    for (kind, make) in [("random", &random as MakeSource), ("lfsr", &lfsr)] {
        let (run, skips) =
            assert_skip_is_pulling(kind, &comb, &faults, make, 1_000_000, 4_096, &mut verdicts);
        assert_eq!(skips, 1, "{kind}");
        assert!(run.report.stats().faults_retired > 0, "{kind}");
    }
    // With no prover nothing is skipped, and every pull is applied.
    let plain = run(&comb, &faults, &random, Stop::after(4_096));
    assert_eq!(plain.report.stats().blocks_skipped, 0);
}
