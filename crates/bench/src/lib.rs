//! Experiment pipeline shared by the table/figure binaries.
//!
//! [`table2_column`] implements the full Table 2 methodology for one
//! circuit under one TDM:
//!
//! 1. select BILBO registers (BIBS best-first search, or the
//!    Krasniewski–Albicki criteria);
//! 2. extract kernels, schedule test sessions, compute the maximal-delay
//!    metric;
//! 3. elaborate each kernel to gates, classify faults by implication and
//!    PODEM (the "detectable" universe), fault-simulate random patterns
//!    with fault dropping;
//! 4. per-kernel pattern counts at a coverage target combine into the
//!    paper's two aggregates: **# of patterns** = Σ over kernels (kernels
//!    tested in sequence) and **test time** = Σ over sessions of the
//!    session maximum (kernels of a session run concurrently).
#![warn(missing_docs)]

use bibs_core::bibs::{self, BibsOptions};
use bibs_core::delay::maximal_delay;
use bibs_core::design::{kernels, BilboDesign, Kernel};
use bibs_core::ka85;
use bibs_core::schedule::{schedule_test_time, schedule_traced, sequential_test_time, TestSession};
use bibs_core::source::MinTpgSource;
use bibs_core::structure::GeneralizedStructure;
use bibs_core::tpg::sc_tpg;
use bibs_datapath::elab::elaborate_kernel;
use bibs_faultsim::atpg::Verdicts;
use bibs_faultsim::fault::{Fault, FaultUniverse};
use bibs_faultsim::par::ParFaultSimulator;
use bibs_faultsim::reference::ReferenceSimulator;
use bibs_faultsim::sim::{BlockSim, Stop};
use bibs_faultsim::source::{
    LfsrSource, PatternBlock, PatternSource, RandomWords, SourceDescriptor, StoredSeedReplay,
    WeightedRandomSource,
};
use bibs_faultsim::stats::SimStats;
use bibs_netlist::EvalProgram;
use bibs_obs::{CounterId, Recorder, TraceMode};
use bibs_rtl::{Circuit, VertexKind};
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// Which TDM to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tdm {
    /// The paper's BIBS methodology.
    Bibs,
    /// The Krasniewski–Albicki baseline (reference \[3\]).
    Ka85,
}

impl std::fmt::Display for Tdm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Tdm::Bibs => write!(f, "BIBS"),
            Tdm::Ka85 => write!(f, "[3]"),
        }
    }
}

/// Which fault-simulation engine drives the random phase.
///
/// The detection results (and therefore every Table 2 number) are
/// bit-identical across engines — the choice only trades wall-clock time,
/// which is exactly what makes the reference interpreter useful as an
/// equivalence oracle in CI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Compiled [`bibs_netlist::EvalProgram`] IR (the default production
    /// path).
    #[default]
    Compiled,
    /// The original gate-walking interpreter
    /// ([`bibs_faultsim::reference`]).
    Reference,
}

impl std::str::FromStr for Engine {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "compiled" => Ok(Engine::Compiled),
            "reference" => Ok(Engine::Reference),
            other => Err(format!(
                "unknown engine '{other}' (expected 'compiled' or 'reference')"
            )),
        }
    }
}

impl std::fmt::Display for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Engine::Compiled => write!(f, "compiled"),
            Engine::Reference => write!(f, "reference"),
        }
    }
}

/// Which [`PatternSource`] drives the per-kernel random phase — the
/// coverage-vs-clocks axis as a CLI knob.
///
/// `None` in [`Table2Options::source`] (the default) keeps the pre-source
/// code path and its byte-identical JSON; [`SourceSpec::Random`] draws the
/// *same* seeded stream through the source layer (CI diffs the two
/// byte-for-byte). Every other variant trades the uniform stream for a
/// hardware-faithful one and reports its clock budget alongside the
/// detection indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SourceSpec {
    /// Seeded xoshiro256** words — the legacy stream behind the
    /// [`PatternSource`] interface ([`RandomWords`]).
    Random,
    /// A maximal-length type-1 LFSR sized to the kernel width, plus the
    /// appended all-zero pattern ([`LfsrSource`]).
    Lfsr,
    /// The paper's TPG ([`MinTpgSource`]) built from the kernel's
    /// generalized structure; kernels whose structure is not a
    /// width-matched single cone fall back to [`SourceSpec::Lfsr`]
    /// (visible in the emitted descriptor's `"kind"`).
    MinTpg,
    /// Biased random words, every input weighted to 0.75
    /// ([`WeightedRandomSource`]).
    Weighted,
    /// Replays a stored seed schedule from a file ([`StoredSeedReplay`]).
    Replay(String),
}

impl std::str::FromStr for SourceSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "random" => Ok(SourceSpec::Random),
            "lfsr" => Ok(SourceSpec::Lfsr),
            "mintpg" => Ok(SourceSpec::MinTpg),
            "weighted" => Ok(SourceSpec::Weighted),
            other => match other.strip_prefix("replay:") {
                Some(path) if !path.is_empty() => Ok(SourceSpec::Replay(path.to_string())),
                _ => Err(format!(
                    "unknown source '{other}' (expected 'random', 'lfsr', 'mintpg', \
                     'weighted' or 'replay:<file>')"
                )),
            },
        }
    }
}

impl SourceSpec {
    /// Fail fast on specs that reference external state: a missing or
    /// malformed replay schedule should be a pointed CLI error before
    /// any simulation starts, not a mid-run panic deep in a kernel loop.
    pub fn preflight(&self) -> Result<(), String> {
        if let SourceSpec::Replay(path) = self {
            StoredSeedReplay::from_file(path)?;
        }
        Ok(())
    }
}

impl std::fmt::Display for SourceSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SourceSpec::Random => write!(f, "random"),
            SourceSpec::Lfsr => write!(f, "lfsr"),
            SourceSpec::MinTpg => write!(f, "mintpg"),
            SourceSpec::Weighted => write!(f, "weighted"),
            SourceSpec::Replay(path) => write!(f, "replay:{path}"),
        }
    }
}

/// Builds the [`PatternSource`] a [`SourceSpec`] names for one kernel.
///
/// `width` must be the kernel's combinational-equivalent input width (what
/// [`BlockSim::run`] will request per block); `seed` is the
/// kernel-personalized RNG seed. [`SourceSpec::MinTpg`] extracts the
/// kernel's [`GeneralizedStructure`] and designs an SC_TPG for it; when
/// the structure is multi-cone, unbalanced, or its total width disagrees
/// with the elaborated netlist, it falls back to the plain LFSR — the
/// returned descriptor's `"kind"` field records which source actually ran.
///
/// # Errors
///
/// Propagates source-construction failures (kernel wider than 64 bits for
/// the LFSR family, unreadable or malformed replay files).
pub fn build_source(
    spec: &SourceSpec,
    seed: u64,
    width: usize,
    circuit: &Circuit,
    design: &BilboDesign,
    kernel: &Kernel,
) -> Result<Box<dyn PatternSource>, String> {
    match spec {
        SourceSpec::Random => Ok(Box::new(RandomWords::seeded(seed))),
        SourceSpec::Lfsr => Ok(Box::new(LfsrSource::new(width, seed)?)),
        SourceSpec::MinTpg => {
            // The fallback is never silent: a kernel the SC_TPG cannot
            // drive gets the plain LFSR *and* a stderr warning naming the
            // reason, so a width mismatch no longer masquerades as a
            // mintpg run (the descriptor's "kind" records it too).
            let reason = match GeneralizedStructure::from_kernel(circuit, design, kernel) {
                Ok(structure) => {
                    if !structure.is_single_cone() {
                        "kernel structure is multi-cone".to_string()
                    } else if structure.total_width() as usize != width {
                        format!(
                            "structure width {} disagrees with the kernel's \
                             combinational input width {width}",
                            structure.total_width()
                        )
                    } else {
                        let tpg = sc_tpg(&structure);
                        match MinTpgSource::new(&tpg, &structure) {
                            Ok(source) => return Ok(Box::new(source)),
                            Err(e) => format!("SC_TPG construction failed: {e}"),
                        }
                    }
                }
                Err(e) => format!("no generalized structure: {e}"),
            };
            eprintln!("warning: mintpg source falls back to lfsr: {reason}");
            Ok(Box::new(LfsrSource::new(width, seed)?))
        }
        SourceSpec::Weighted => Ok(Box::new(WeightedRandomSource::new(
            seed,
            vec![0.75; width],
        )?)),
        SourceSpec::Replay(path) => {
            let replay = StoredSeedReplay::from_file(path)?;
            // B060 preflight: a schedule that declares the width it was
            // recorded for must match the kernel it is about to drive.
            let report = bibs_lint::lint_source_width(
                &format!("replay:{path}"),
                replay.declared_width(),
                width,
                "kernel",
                &bibs_lint::LintConfig::new(),
            );
            if !report.is_clean() {
                return Err(report
                    .diagnostics
                    .iter()
                    .map(|d| d.to_string())
                    .collect::<Vec<_>>()
                    .join("\n"));
            }
            Ok(Box::new(replay))
        }
    }
}

/// A source whose pulls and skips are timed. [`BlockSim::run`] pulls
/// blocks between applies and skips the blocks after the last live fault,
/// both outside the engine's `fault-sim[...]` span, so a traced run
/// charges this time to the `source[...]` span instead.
struct TimedSource<'a> {
    inner: &'a mut dyn PatternSource,
    wall: Duration,
}

impl PatternSource for TimedSource<'_> {
    fn next_block(&mut self, width: usize) -> Option<PatternBlock> {
        let start = Instant::now();
        let block = self.inner.next_block(width);
        self.wall += start.elapsed();
        block
    }

    fn clocks_consumed(&self) -> u64 {
        self.inner.clocks_consumed()
    }

    fn patterns_emitted(&self) -> u64 {
        self.inner.patterns_emitted()
    }

    fn descriptor(&self) -> SourceDescriptor {
        self.inner.descriptor()
    }

    fn skip(&mut self, width: usize, patterns: u64) -> (u64, u64) {
        let start = Instant::now();
        let skipped = self.inner.skip(width, patterns);
        self.wall += start.elapsed();
        skipped
    }
}

/// The coverage-vs-clocks record of a non-uniform pattern source's run on
/// one kernel (carried in [`KernelFaultStats::source`] and emitted in the
/// JSON). All three fields are detection-deterministic: the driver pulls a
/// block only to apply it, and skips the blocks after the last live fault
/// to the same stop point, so the engine cannot change them.
#[derive(Debug, Clone)]
pub struct SourceRun {
    /// The source's self-describing descriptor, already rendered as a JSON
    /// object (see [`bibs_faultsim::source::SourceDescriptor::to_json`]).
    pub descriptor_json: String,
    /// Hardware clock cycles the source accounts for (warm-up + one per
    /// pattern + reseed loads) — the denominator of coverage-vs-clocks.
    pub clocks: u64,
    /// Patterns the source emitted (lanes across all pulled or skipped
    /// blocks).
    pub emitted: u64,
}

/// Per-kernel fault-simulation outcome.
#[derive(Debug, Clone)]
pub struct KernelFaultStats {
    /// Collapsed fault count.
    pub faults: usize,
    /// Faults proved redundant: unobservable, or proved by implication or
    /// by PODEM.
    pub redundant: usize,
    /// Faults PODEM aborted on. Aborted faults are excluded from the
    /// detectable universe (none were detected by the random stream and
    /// none could be proven either way); reported for transparency.
    pub aborted: usize,
    /// Faults PODEM found a test for but the random stream never reached
    /// within the pattern cap (would inflate the 100 % rows; reported).
    pub unreached: usize,
    /// Detected fault count after simulation.
    pub detected: usize,
    /// Sorted first-detection pattern indices.
    pub detection_indices: Vec<u64>,
    /// Fault-simulation engine counters for the random phase (blocks,
    /// evaluations, drops, wall time).
    pub sim: SimStats,
    /// Coverage-vs-clocks record when a non-uniform [`SourceSpec`] drove
    /// the random phase (`None` for the legacy path and
    /// [`SourceSpec::Random`], whose JSON stays byte-identical).
    pub source: Option<SourceRun>,
    /// Always `None`: there is no optimizer. The field remains only
    /// because the benchmark crate (`benchmark/src/trace.rs`) builds this
    /// struct with `opt: None`; the next change to the benchmark deletes
    /// it.
    pub opt: Option<std::convert::Infallible>,
}

impl KernelFaultStats {
    /// The detectable universe size (faults detected plus testable-but-
    /// unreached ones).
    pub fn detectable(&self) -> usize {
        self.faults - self.redundant - self.aborted
    }

    /// Patterns needed to detect `fraction` of the detectable faults: one
    /// past the `ceil(fraction · n)`-th of the `n` sorted first-detection
    /// indices. This is the paper's Table 2 metric ("# of patterns to
    /// achieve 99.5 % (100 %) fault coverage", of detectable faults). A
    /// `fraction` of 0 or less still demands one detection, a `fraction`
    /// above 1 acts like 1, and with no detection the count is 0.
    pub fn patterns_for(&self, fraction: f64) -> u64 {
        if self.detection_indices.is_empty() {
            return 0;
        }
        let need = ((fraction * self.detection_indices.len() as f64).ceil() as usize)
            .clamp(1, self.detection_indices.len());
        self.detection_indices[need - 1] + 1
    }
}

/// One column of Table 2 (one circuit under one TDM).
#[derive(Debug, Clone)]
pub struct Table2Column {
    /// The TDM applied.
    pub tdm: Tdm,
    /// Circuit name.
    pub circuit: String,
    /// Row 1: number of kernels.
    pub kernel_count: usize,
    /// Row 2: number of test sessions.
    pub session_count: usize,
    /// Row 3: number of BILBO (and CBILBO) registers.
    pub bilbo_count: usize,
    /// Row 4: maximal delay in time units.
    pub max_delay: u32,
    /// Row 5: patterns to 99.5 % coverage of detectable faults.
    pub patterns_995: u64,
    /// Row 6: test time to 99.5 % coverage.
    pub time_995: u64,
    /// Row 7: patterns to 100 % coverage of detectable faults.
    pub patterns_100: u64,
    /// Row 8: test time to 100 % coverage.
    pub time_100: u64,
    /// Per-kernel statistics (diagnostics).
    pub kernel_stats: Vec<KernelFaultStats>,
}

/// Options for the Table 2 pipeline.
#[derive(Debug, Clone)]
pub struct Table2Options {
    /// RNG seed for the random pattern streams.
    pub seed: u64,
    /// Cap on random patterns per kernel.
    pub max_patterns: u64,
    /// Stop simulating a kernel once this many consecutive patterns bring
    /// no new detection. The survivors get verdicts (the implication
    /// check, then PODEM); with a plateau longer than
    /// [`PROVE_AFTER`](bibs_faultsim::sim::PROVE_AFTER), they get them
    /// mid-run and the ones proved redundant stop being simulated.
    pub plateau: u64,
    /// PODEM backtrack limit.
    pub backtrack_limit: usize,
    /// Not a setting: always 1, because fault simulation runs on the
    /// calling thread. The field remains only because the benchmark crate
    /// (`benchmark/src/trace.rs` and `benchmark/src/workload.rs`) reads
    /// it; the next change to the benchmark deletes it. With
    /// [`Engine::Compiled`], [`kernel_fault_stats`] still passes it to
    /// [`ParFaultSimulator::with_program`], so any other value panics
    /// instead of being ignored; [`Engine::Reference`] ignores it.
    pub jobs: usize,
    /// Fault-simulation engine for the random phase. The results are
    /// bit-identical across engines (see [`Engine`]).
    pub engine: Engine,
    /// Not a setting: `()` has one value. The field remains only because
    /// the benchmark crate (`benchmark/src/workload.rs`) compares it
    /// against the default; the next change to the benchmark deletes it.
    pub collapse: (),
    /// Pattern source for the random phase. `None` (the default) is the
    /// legacy seeded-RNG path; [`SourceSpec::Random`] reproduces it
    /// byte-for-byte through the [`PatternSource`] layer; other specs
    /// change the stream and add per-kernel `source`/`source_clocks`/
    /// `source_patterns` fields to the JSON.
    pub source: Option<SourceSpec>,
    /// Not a setting: `()` has one value. The field remains only because
    /// the benchmark crate (`benchmark/src/workload.rs`) compares it
    /// against the default; the next change to the benchmark deletes it.
    pub opt: (),
    /// Not a setting: always 64, the one block width. The field remains
    /// only because the benchmark crate (`benchmark/src/trace.rs` and
    /// `benchmark/src/workload.rs`) reads it; the next change to the
    /// benchmark deletes it. With [`Engine::Compiled`],
    /// [`kernel_fault_stats`] still passes it to
    /// [`ParFaultSimulator::with_lanes`], so any other value panics
    /// instead of being ignored; [`Engine::Reference`] ignores it.
    pub lanes: usize,
}

impl Default for Table2Options {
    fn default() -> Self {
        Table2Options {
            seed: 0x51B5_1994,
            max_patterns: 1_000_000,
            plateau: 100_000,
            backtrack_limit: 100_000,
            jobs: 1,
            engine: Engine::Compiled,
            collapse: (),
            source: None,
            opt: (),
            lanes: 64,
        }
    }
}

/// Selects a design under the given TDM and extracts logic-bearing kernels.
pub fn apply_tdm(circuit: &Circuit, tdm: Tdm) -> (Circuit, BilboDesign, Vec<Kernel>) {
    let (circuit, design) = match tdm {
        Tdm::Bibs => {
            let r = bibs::select(circuit, &BibsOptions::default())
                .expect("experiment circuits are IO-registered");
            (r.circuit, r.design)
        }
        Tdm::Ka85 => (
            circuit.clone(),
            ka85::select(circuit).expect("experiment circuits satisfy [3]'s assumptions"),
        ),
    };
    let ks: Vec<Kernel> = kernels(&circuit, &design)
        .into_iter()
        .filter(|k| {
            k.vertices
                .iter()
                .any(|&v| circuit.vertex(v).kind == VertexKind::Logic)
        })
        .collect();
    (circuit, design, ks)
}

/// Fault-classifies and fault-simulates one kernel, recording the flow
/// into a pipeline-level telemetry [`Recorder`] under its current span
/// ([`Recorder::disabled`] records nothing).
///
/// Three-phase flow over one fault list, the kernel's
/// [`FaultUniverse::collapsed`] universe:
///
/// * **Phase 0 — observability split** (timed with the compile into
///   [`SimStats::analysis_wall`]): the backward observability sweep drops
///   faults with no path to an output. They are redundant outright.
/// * **Phase 1 — random simulation** with fault dropping and a detection
///   plateau. Once the stream has gone
///   [`PROVE_AFTER`](bibs_faultsim::sim::PROVE_AFTER) patterns without a
///   detection, the compiled engine hands its live faults to the prover
///   ([`Verdicts`]) once and stops simulating the ones it proves
///   redundant. Once none is live, the driver skips the source to the
///   stop point in one call and the engine counts the skipped blocks, so
///   the report, the block count and the source's accounting are the
///   plain run's.
/// * **Phase 2 — verdicts** on the survivors only. The implication check
///   proves a survivor redundant when its mandatory assignments conflict,
///   reading the program Phase 0 compiled; PODEM searches the rest —
///   proving them redundant, finding a test (rare random-resistant
///   faults, reported as `unreached`), or aborting (excluded and
///   reported). A survivor already decided in Phase 1 keeps that verdict;
///   the check and the generator are each built the first time either
///   phase needs them, so a kernel with no survivor builds neither.
///
/// Spans recorded:
///
/// * `"elaborate"` — the kernel's gate-level elaboration and its
///   combinational equivalent;
/// * `"collapse"` — the structural fault collapsing that builds the
///   universe;
/// * `"compile"` — the netlist→IR compile (instruction/slot counters);
/// * `"analyze"` — the observability split, carrying the
///   `universe_faults` counter (the kernel's span carries
///   `simulated_faults`);
/// * `"build"` — the engine's construction: its copies of the program
///   and the fault list and, for the compiled engine, the stem map, the
///   fault sites and the stem-order sort of its live list;
/// * the engine's own `fault-sim[...]` tree, grafted verbatim (per-block
///   counters on its root);
/// * `"source[SPEC]"` — with a pattern source, its `patterns_emitted` and
///   `source_clocks` counters and the wall time of its pulls and its
///   skip;
/// * `"atpg"` — all of the kernel's verdicts, Phase 1's included (its
///   wall is added to the span's), with the `implied_redundant` counter
///   (faults the implication check proved) and PODEM's `podem_faults`
///   (each fault searched counted once), `podem_backtracks` and
///   `podem_evals` counters. The engine's span carries `faults_retired`
///   when Phase 1 retired any; its wall is block-evaluation time only.
///
/// Every exported counter is detection-deterministic: identical on every
/// run with the same options, whatever the machine.
///
/// # Errors
///
/// Returns the message of [`build_source`]'s failure when
/// `options.source` cannot drive this kernel (an LFSR wider than 64
/// inputs, a replay schedule recorded for another width).
pub fn kernel_fault_stats(
    circuit: &Circuit,
    design: &BilboDesign,
    kernel: &Kernel,
    options: &Table2Options,
    rec: &mut Recorder,
) -> Result<KernelFaultStats, String> {
    let cut: HashSet<_> = design.bilbo.iter().chain(&design.cbilbo).copied().collect();
    let kernel_set: HashSet<_> = kernel.vertices.iter().copied().collect();
    let comb = rec.scope("elaborate", |_| {
        elaborate_kernel(circuit, &kernel_set, &cut)
            .expect("kernel elaborates")
            .netlist
            .combinational_equivalent()
    });
    let universe = rec.scope("collapse", |_| FaultUniverse::collapsed(&comb));

    // Phase 0: compile, then drop the faults with no net path to a PO
    // (the truncated multipliers' upper halves): they are redundant
    // outright. Timed as a unit.
    let analysis_start = Instant::now();
    let program = EvalProgram::compile_traced(&comb, rec).expect("kernel equivalents are acyclic");
    let analyze = rec.enter("analyze");
    let (to_sim, unobservable) = universe.split_by_observability(&program);
    rec.add(CounterId::UniverseFaults, universe.len() as u64);
    rec.exit(analyze);
    let analysis_wall = analysis_start.elapsed();
    let simulated_faults = to_sim.len() as u64;
    rec.add(CounterId::SimulatedFaults, simulated_faults);

    // Phase 1: pattern simulation with fault dropping and a detection
    // plateau. Engines are interchangeable: the report is bit-identical
    // either way. The engine records itself; its whole span tree is
    // grafted under the kernel's span afterwards. With no `--source` the
    // seeded-RNG stream runs recorder-silent; with one, the chosen
    // [`PatternSource`] drives the same driver and its coverage-vs-clocks
    // accounting lands in a `source[...]` telemetry span and (for
    // non-uniform sources) in the JSON.
    //
    // The compiled engine runs with the verdicts as its prover: once the
    // stream has gone `PROVE_AFTER` patterns without a detection, the
    // faults they prove redundant leave the live list, and once none is
    // left the driver skips the rest of the plateau without pulling it. A
    // redundant fault is never detected, so the report is the plain
    // run's. The reference engine, the oracle, runs the plain driver.
    let kernel_seed = options.seed ^ kernel.input_edges.len() as u64;
    let mut source: Box<dyn PatternSource> = match &options.source {
        None => Box::new(RandomWords::seeded(kernel_seed)),
        Some(spec) => build_source(
            spec,
            kernel_seed,
            comb.input_width(),
            circuit,
            design,
            kernel,
        )
        .map_err(|e| format!("cannot build pattern source '{spec}': {e}"))?,
    };
    // Only a traced run with a `--source` times its pulls and its skip;
    // every other run calls the source directly.
    let mut timed = TimedSource {
        inner: &mut *source,
        wall: Duration::ZERO,
    };
    let pulled: &mut dyn PatternSource = if options.source.is_some() && rec.is_enabled() {
        &mut timed
    } else {
        &mut *timed.inner
    };
    let stop = Stop {
        plateau: options.plateau,
        ..Stop::after(options.max_patterns)
    };
    let mut verdicts = Verdicts::new(&comb, &program, options.backtrack_limit);
    let report = match options.engine {
        Engine::Compiled => {
            let mut sim = rec.scope("build", |_| {
                ParFaultSimulator::with_program(
                    &comb,
                    program.clone(),
                    to_sim.clone(),
                    options.jobs,
                )
                .with_lanes(options.lanes)
            });
            let mut prove = |f| verdicts.proves_redundant(f);
            let report = sim.run(
                &mut *pulled,
                Stop {
                    prover: Some(&mut prove),
                    ..stop
                },
            );
            let cur = rec.current();
            rec.graft(cur, sim.recorder());
            report
        }
        Engine::Reference => {
            let mut sim = rec.scope("build", |_| ReferenceSimulator::new(&comb, to_sim.clone()));
            let report = sim.run(&mut *pulled, stop);
            let cur = rec.current();
            rec.graft(cur, sim.recorder());
            report
        }
    };
    let pull_wall = timed.wall;
    let mut source_run = None;
    if let Some(spec) = &options.source {
        rec.scope(format!("source[{spec}]"), |rec| {
            let span = rec.current();
            rec.add_wall(span, pull_wall);
            rec.add(CounterId::PatternsEmitted, source.patterns_emitted());
            rec.add(CounterId::SourceClocks, source.clocks_consumed());
        });
        // `random` reproduces the legacy stream, so it also keeps the
        // legacy JSON (byte-identical — a CI gate); every other source
        // reports its coverage-vs-clocks record.
        if *spec != SourceSpec::Random {
            source_run = Some(SourceRun {
                descriptor_json: source.descriptor().to_json(),
                clocks: source.clocks_consumed(),
                emitted: source.patterns_emitted(),
            });
        }
    }

    // Phase 2: verdicts on the survivors, in universe order. A survivor
    // the prover already decided keeps its verdict; the rest are decided
    // now. The span holds all of the kernel's verdict work, the prover's
    // included.
    let detection = report.detection();
    let survivors: Vec<Fault> = to_sim
        .iter()
        .zip(detection)
        .filter(|(_, d)| d.is_none())
        .map(|(&f, _)| f)
        .collect();
    let prover_wall = verdicts.wall();
    let atpg = rec.enter("atpg");
    let class = verdicts.classify(&survivors);
    verdicts.record(rec);
    rec.add_wall(atpg, prover_wall);
    rec.exit(atpg);

    let mut detection_indices: Vec<u64> = detection.iter().flatten().copied().collect();
    detection_indices.sort_unstable();
    let detected = detection_indices.len();

    let mut sim = report.stats().clone();
    sim.universe_faults = universe.len() as u64;
    sim.simulated_faults = simulated_faults;
    sim.analysis_wall = analysis_wall;

    Ok(KernelFaultStats {
        faults: universe.len(),
        redundant: unobservable.len() + class.redundant.len(),
        aborted: class.aborted.len(),
        unreached: class.detectable.len(),
        detected,
        detection_indices,
        sim,
        source: source_run,
        opt: None,
    })
}

/// Runs the full Table 2 pipeline for one circuit under one TDM.
///
/// # Panics
///
/// When `options.source` cannot drive one of the kernels; the message is
/// [`table2_column_traced`]'s error.
pub fn table2_column(circuit: &Circuit, tdm: Tdm, options: &Table2Options) -> Table2Column {
    table2_column_traced(circuit, tdm, options, &mut Recorder::disabled())
        .unwrap_or_else(|e| panic!("{e}"))
}

/// [`table2_column`] recorded into a pipeline-level telemetry
/// [`Recorder`]: one `"column[TDM circuit]"` span per call holding the
/// `"schedule"` span and one `"kernel N"` span per kernel (each the full
/// [`kernel_fault_stats`] tree).
///
/// # Errors
///
/// The first kernel's [`kernel_fault_stats`] error.
pub fn table2_column_traced(
    circuit: &Circuit,
    tdm: Tdm,
    options: &Table2Options,
    rec: &mut Recorder,
) -> Result<Table2Column, String> {
    let column = rec.enter(format!("column[{tdm} {}]", circuit.name()));
    let (circuit, design, ks) = apply_tdm(circuit, tdm);
    let sessions: Vec<TestSession> = schedule_traced(&design, &ks, rec);
    let stats: Result<Vec<KernelFaultStats>, String> = ks
        .iter()
        .enumerate()
        .map(|(i, k)| {
            rec.scope(format!("kernel {i}"), |rec| {
                kernel_fault_stats(&circuit, &design, k, options, rec)
            })
        })
        .collect();
    let out = stats.map(|stats| table2_assemble(tdm, &circuit, &design, &ks, &sessions, stats));
    rec.exit(column);
    out
}

fn table2_assemble(
    tdm: Tdm,
    circuit: &Circuit,
    design: &BilboDesign,
    ks: &[Kernel],
    sessions: &[TestSession],
    stats: Vec<KernelFaultStats>,
) -> Table2Column {
    let per_kernel =
        |fraction: f64| -> Vec<u64> { stats.iter().map(|s| s.patterns_for(fraction)).collect() };
    let p995 = per_kernel(0.995);
    let p100 = per_kernel(1.0);
    Table2Column {
        tdm,
        circuit: circuit.name().to_string(),
        kernel_count: ks.len(),
        session_count: sessions.len(),
        bilbo_count: design.register_count(),
        max_delay: maximal_delay(circuit, design).unwrap_or(0),
        patterns_995: sequential_test_time(&p995),
        time_995: schedule_test_time(sessions, &p995),
        patterns_100: sequential_test_time(&p100),
        time_100: schedule_test_time(sessions, &p100),
        kernel_stats: stats,
    }
}

/// Renders Table 2 for a list of (BIBS, \[3\]) column pairs.
pub fn render_table2(columns: &[(Table2Column, Table2Column)]) -> String {
    let mut out = String::new();
    let mut header = format!("{:<34}", "Circuit");
    for (b, _) in columns {
        header.push_str(&format!("{:>24}", b.circuit));
    }
    out.push_str(header.trim_end());
    out.push('\n');
    let mut sub = format!("{:<34}", "");
    for _ in columns {
        sub.push_str(&format!("{:>12}{:>12}", "BIBS", "[3]"));
    }
    out.push_str(&sub);
    out.push('\n');
    type RowFn = Box<dyn Fn(&Table2Column) -> String>;
    let rows: Vec<(&str, RowFn)> = vec![
        (
            "1 # of kernels",
            Box::new(|c: &Table2Column| c.kernel_count.to_string()),
        ),
        (
            "2 # of test sessions",
            Box::new(|c: &Table2Column| c.session_count.to_string()),
        ),
        (
            "3 # of BILBO registers",
            Box::new(|c: &Table2Column| c.bilbo_count.to_string()),
        ),
        (
            "4 Maximal delay",
            Box::new(|c: &Table2Column| c.max_delay.to_string()),
        ),
        (
            "5 # patterns @ 99.5% FC",
            Box::new(|c: &Table2Column| c.patterns_995.to_string()),
        ),
        (
            "6 Test time @ 99.5% FC",
            Box::new(|c: &Table2Column| c.time_995.to_string()),
        ),
        (
            "7 # patterns @ 100% FC",
            Box::new(|c: &Table2Column| c.patterns_100.to_string()),
        ),
        (
            "8 Test time @ 100% FC",
            Box::new(|c: &Table2Column| c.time_100.to_string()),
        ),
    ];
    for (name, f) in rows {
        let mut line = format!("{name:<34}");
        for (b, k) in columns {
            line.push_str(&format!("{:>12}{:>12}", f(b), f(k)));
        }
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// Renders Table 2 columns as machine-readable JSON containing **only
/// detection-deterministic fields** — everything here is a pure function
/// of `(circuit, TDM, options.seed, options.max_patterns,
/// options.plateau, options.backtrack_limit, options.source)` and
/// independent of the engine and wall clock. CI diffs the output of the
/// compiled and reference engines byte-for-byte, and the legacy path
/// against `--source random`. Non-uniform sources add three per-kernel
/// fields (`source`, `source_clocks`, `source_patterns`); the driver
/// pulls a block only to apply it and skips to the same stop point, so
/// these too are engine-independent.
pub fn table2_json(columns: &[(Table2Column, Table2Column)]) -> String {
    fn u64s(xs: &[u64]) -> String {
        let body: Vec<String> = xs.iter().map(|x| x.to_string()).collect();
        format!("[{}]", body.join(","))
    }
    fn column(c: &Table2Column) -> String {
        let kernels: Vec<String> = c
            .kernel_stats
            .iter()
            .map(|s| {
                // Non-uniform sources report their coverage-vs-clocks
                // record; the legacy path and `--source random` add
                // nothing, keeping their JSON byte-identical.
                let source = match &s.source {
                    Some(run) => format!(
                        ",\"source\":{},\"source_clocks\":{},\"source_patterns\":{}",
                        run.descriptor_json, run.clocks, run.emitted
                    ),
                    None => String::new(),
                };
                format!(
                    "{{\"faults\":{},\"redundant\":{},\"aborted\":{},\"unreached\":{},\
                     \"detected\":{},\"detection_indices\":{}{}}}",
                    s.faults,
                    s.redundant,
                    s.aborted,
                    s.unreached,
                    s.detected,
                    u64s(&s.detection_indices),
                    source
                )
            })
            .collect();
        format!(
            "{{\"tdm\":\"{}\",\"circuit\":\"{}\",\"kernels\":{},\"sessions\":{},\
             \"bilbo_registers\":{},\"max_delay\":{},\"patterns_995\":{},\"time_995\":{},\
             \"patterns_100\":{},\"time_100\":{},\"kernel_stats\":[{}]}}",
            c.tdm,
            c.circuit,
            c.kernel_count,
            c.session_count,
            c.bilbo_count,
            c.max_delay,
            c.patterns_995,
            c.time_995,
            c.patterns_100,
            c.time_100,
            kernels.join(",")
        )
    }
    let cols: Vec<String> = columns
        .iter()
        .flat_map(|(b, k)| [column(b), column(k)])
        .collect();
    format!("{{\"columns\":[{}]}}\n", cols.join(","))
}

/// A typed failure from one of the bench binaries — replaces the bare
/// `unwrap()`s that used to abort with an opaque panic. Every variant
/// renders a human-readable message and the binaries exit nonzero on it.
#[derive(Debug)]
pub enum BinError {
    /// A hard-coded paper structure failed to validate (a programming
    /// error in the example tables, reported instead of panicking).
    Structure(String),
    /// A netlist built by a binary failed to finish.
    Netlist(bibs_netlist::NetlistError),
    /// A named register was missing from an example circuit.
    MissingRegister(String),
    /// No primitive polynomial is tabulated for the requested degree.
    NoPolynomial(u32),
    /// Telemetry could not be written to the requested path.
    Telemetry(std::io::Error),
}

impl std::fmt::Display for BinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BinError::Structure(e) => write!(f, "invalid example structure: {e}"),
            BinError::Netlist(e) => write!(f, "netlist construction failed: {e}"),
            BinError::MissingRegister(name) => {
                write!(f, "example circuit has no register named '{name}'")
            }
            BinError::NoPolynomial(degree) => {
                write!(f, "no primitive polynomial tabulated for degree {degree}")
            }
            BinError::Telemetry(e) => write!(f, "cannot write telemetry: {e}"),
        }
    }
}

impl std::error::Error for BinError {}

impl From<bibs_netlist::NetlistError> for BinError {
    fn from(e: bibs_netlist::NetlistError) -> Self {
        BinError::Netlist(e)
    }
}

/// Parsed telemetry options shared by the bench binaries: the
/// `--telemetry <out.json>` flag plus the `BIBS_TRACE` environment knob.
#[derive(Debug, Default)]
pub struct Telemetry {
    /// Where to write the span-tree JSON, if requested.
    pub path: Option<std::path::PathBuf>,
    /// What to print to stderr after the run.
    pub trace: TraceMode,
}

impl Telemetry {
    /// Builds from an already-parsed `--telemetry` value and the process
    /// environment (`BIBS_TRACE`).
    pub fn new(path: Option<std::path::PathBuf>) -> Telemetry {
        Telemetry {
            path,
            trace: TraceMode::from_env(),
        }
    }

    /// Whether anything downstream will consume a recording — used to
    /// pick between a live and a [`Recorder::disabled`] recorder so the
    /// default path stays overhead-free.
    pub fn wanted(&self) -> bool {
        self.path.is_some() || self.trace != TraceMode::Off
    }

    /// A recorder matching [`Telemetry::wanted`].
    pub fn recorder(&self, root: &str) -> Recorder {
        if self.wanted() {
            Recorder::new(root)
        } else {
            Recorder::disabled()
        }
    }

    /// Finishes the recorder, writes the JSON file (wall clocks included;
    /// strip `wall_ns` to compare runs) and prints the `BIBS_TRACE`
    /// output to stderr.
    pub fn emit(&self, rec: &mut Recorder) -> Result<(), BinError> {
        if !rec.is_enabled() {
            return Ok(());
        }
        rec.finish();
        if let Some(path) = &self.path {
            std::fs::write(path, rec.to_json(true)).map_err(BinError::Telemetry)?;
        }
        match self.trace {
            TraceMode::Off => {}
            TraceMode::Spans => eprint!("{}", rec.render_spans()),
            TraceMode::Counters => eprint!("{}", rec.render_counters()),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bibs_datapath::filters::scaled;

    /// A kernel whose faults were all first detected at `detection_indices`.
    fn detected_at(detection_indices: Vec<u64>) -> KernelFaultStats {
        KernelFaultStats {
            faults: detection_indices.len(),
            redundant: 0,
            aborted: 0,
            unreached: 0,
            detected: detection_indices.len(),
            detection_indices,
            sim: SimStats::default(),
            source: None,
            opt: None,
        }
    }

    #[test]
    fn patterns_for_picks_the_detection_that_reaches_the_fraction() {
        // Four detections: a fraction needs the ceil(fraction · 4)-th.
        let s = detected_at(vec![0, 2, 9, 40]);
        assert_eq!(s.patterns_for(0.25), 1);
        assert_eq!(s.patterns_for(0.5), 3);
        assert_eq!(s.patterns_for(0.51), 10);
        assert_eq!(s.patterns_for(0.995), 41);
        assert_eq!(s.patterns_for(1.0), 41);
    }

    #[test]
    fn patterns_for_clamps_fractions_outside_zero_to_one() {
        let s = detected_at(vec![3, 7, 7, 12]);
        // 0 or less still demands one detection, so the count is never 0.
        assert_eq!(s.patterns_for(0.0), 4);
        assert_eq!(s.patterns_for(-3.5), 4);
        // Above 1 acts like 1.
        assert_eq!(s.patterns_for(1.5), 13);
        assert_eq!(s.patterns_for(f64::INFINITY), 13);
    }

    #[test]
    fn patterns_for_without_detections_is_zero() {
        let s = detected_at(Vec::new());
        for fraction in [-1.0, 0.0, 0.5, 0.995, 1.0, 2.0] {
            assert_eq!(s.patterns_for(fraction), 0, "fraction {fraction}");
        }
    }

    #[test]
    fn pipeline_on_scaled_c5a2m_reproduces_structural_rows() {
        // 3-bit version keeps debug-mode runtime low; rows 1-4 are
        // width-independent.
        let c = scaled("c5a2m", 3);
        let opts = Table2Options {
            max_patterns: 200_000,
            ..Table2Options::default()
        };
        let b = table2_column(&c, Tdm::Bibs, &opts);
        let k = table2_column(&c, Tdm::Ka85, &opts);
        assert_eq!((b.kernel_count, k.kernel_count), (1, 7));
        assert_eq!((b.session_count, k.session_count), (1, 2));
        assert_eq!((b.bilbo_count, k.bilbo_count), (9, 15));
        assert_eq!((b.max_delay, k.max_delay), (2, 4));
        // Coverage rows: everything detectable must be detected.
        for s in b.kernel_stats.iter().chain(&k.kernel_stats) {
            assert_eq!(
                s.detected + s.unreached,
                s.detectable(),
                "universe accounting"
            );
            assert_eq!(s.unreached, 0, "random stream reaches every test");
            // A handful of deeply controllability-redundant faults abort
            // (all verified undetectable by exhaustive simulation at this
            // width; see EXPERIMENTS.md).
            assert!(
                s.aborted * 50 <= s.faults,
                "aborts must stay rare: {}/{}",
                s.aborted,
                s.faults
            );
        }
        // Shape: concurrent sessions make [3]'s test time no larger than
        // its sequential pattern count.
        assert!(k.time_100 <= k.patterns_100);
        let table = render_table2(&[(b.clone(), k.clone())]);
        assert!(table.contains("BILBO"));
        let json = table2_json(&[(b, k)]);
        assert!(json.starts_with("{\"columns\":["));
        assert!(json.contains("\"tdm\":\"BIBS\""));
        assert!(json.contains("\"detection_indices\":["));
        assert!(
            !json.contains("wall") && !json.contains("threads"),
            "JSON must carry only detection-deterministic fields"
        );
    }

    /// The reference interpreter and the compiled engine must agree on the
    /// full detection-deterministic JSON — the same invariant CI checks on
    /// the full-width circuits.
    #[test]
    fn engines_agree_on_scaled_c3a2m_json() {
        let c = scaled("c3a2m", 2);
        let base = Table2Options {
            max_patterns: 50_000,
            ..Table2Options::default()
        };
        let compiled = Table2Options {
            engine: Engine::Compiled,
            ..base.clone()
        };
        let reference = Table2Options {
            engine: Engine::Reference,
            ..base
        };
        let jc = table2_json(&[(
            table2_column(&c, Tdm::Bibs, &compiled),
            table2_column(&c, Tdm::Ka85, &compiled),
        )]);
        let jr = table2_json(&[(
            table2_column(&c, Tdm::Bibs, &reference),
            table2_column(&c, Tdm::Ka85, &reference),
        )]);
        assert_eq!(jc, jr, "engine choice must not change any reported number");
    }

    #[test]
    fn source_spec_parses_and_displays() {
        for (text, spec) in [
            ("random", SourceSpec::Random),
            ("lfsr", SourceSpec::Lfsr),
            ("mintpg", SourceSpec::MinTpg),
            ("weighted", SourceSpec::Weighted),
            (
                "replay:seeds/a.txt",
                SourceSpec::Replay("seeds/a.txt".into()),
            ),
        ] {
            assert_eq!(text.parse::<SourceSpec>().unwrap(), spec);
            assert_eq!(spec.to_string(), text);
        }
        assert!("replay:".parse::<SourceSpec>().is_err());
        assert!("exhaustive".parse::<SourceSpec>().is_err());
    }

    /// `preflight` turns a dangling replay path into a CLI-time error;
    /// specs with no external state always pass.
    #[test]
    fn source_spec_preflight_rejects_missing_replay_file() {
        let missing = SourceSpec::Replay("/nonexistent/bibs.seeds".into());
        let err = missing.preflight().unwrap_err();
        assert!(err.contains("/nonexistent/bibs.seeds"), "{err}");
        for ok in [
            SourceSpec::Random,
            SourceSpec::Lfsr,
            SourceSpec::MinTpg,
            SourceSpec::Weighted,
        ] {
            ok.preflight().unwrap();
        }
    }

    /// `--source random` must reproduce the legacy seeded-RNG path
    /// byte-for-byte: same stream (the RNG words are drawn identically by
    /// [`RandomWords`]), same plateau, and no extra JSON fields. CI
    /// enforces the same identity on the full-width c5a2m.
    #[test]
    fn source_random_json_is_byte_identical_to_legacy() {
        let c = scaled("c3a2m", 2);
        let legacy = Table2Options {
            max_patterns: 50_000,
            ..Table2Options::default()
        };
        let sourced = Table2Options {
            source: Some(SourceSpec::Random),
            ..legacy.clone()
        };
        let jl = table2_json(&[(
            table2_column(&c, Tdm::Bibs, &legacy),
            table2_column(&c, Tdm::Ka85, &legacy),
        )]);
        let js = table2_json(&[(
            table2_column(&c, Tdm::Bibs, &sourced),
            table2_column(&c, Tdm::Ka85, &sourced),
        )]);
        assert_eq!(jl, js, "--source random must not change a byte");
    }

    /// Non-uniform sources surface the coverage-vs-clocks record in the
    /// JSON — a self-describing descriptor plus the clock budget — and the
    /// record agrees between the struct and its rendering.
    #[test]
    fn source_lfsr_reports_coverage_vs_clocks() {
        let c = scaled("c3a2m", 2);
        let opts = Table2Options {
            max_patterns: 50_000,
            source: Some(SourceSpec::Lfsr),
            ..Table2Options::default()
        };
        let b = table2_column(&c, Tdm::Bibs, &opts);
        let run = b.kernel_stats[0]
            .source
            .as_ref()
            .expect("lfsr source reports its run");
        assert!(run.descriptor_json.starts_with("{\"kind\":\"lfsr\""));
        // The LFSR charges one clock per emitted pattern plus warm-up (0
        // here), and the engine never applies more than it pulled.
        assert!(run.clocks >= run.emitted);
        assert!(run.emitted > 0);
        let json = table2_json(&[(b.clone(), b.clone())]);
        assert!(json.contains("\"source\":{\"kind\":\"lfsr\""));
        assert!(json.contains("\"source_clocks\":"));
        assert!(json.contains("\"source_patterns\":"));
    }
}
