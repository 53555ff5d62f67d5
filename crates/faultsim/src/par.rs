//! The compiled fault-simulation engine.
//!
//! [`ParFaultSimulator`] runs every sweep of the shared [`BlockSim`]
//! driver as:
//!
//! 1. **one** good-machine run of the compiled [`EvalProgram`] over the
//!    sweep's `N` 64-lane words (`N` = 1, 4 or 8, set by
//!    [`ParFaultSimulator::with_lanes`]) into a buffer every shard reads;
//! 2. the *undetected* fault list evaluated against it, recording
//!    `(position, sub-block, pattern offset)` hits. Each shard copies the
//!    good values into its private `faulty` buffer once per sweep, then
//!    propagates each fault's pre-compiled [`bibs_netlist::Patch`]
//!    event-driven ([`EvalProgram::eval_events`]): only the instructions
//!    whose inputs differ from the good machine's are evaluated, and the
//!    buffer is restored after each fault. At one thread (or a short
//!    list) one shard runs inline on the calling thread; otherwise
//!    `std::thread::scope` workers steal fixed-size chunks of the list off
//!    an `AtomicUsize` cursor. Both run the same shard body;
//! 3. the calling thread merges the hits, and the driver's commit drops
//!    the detected faults from the list.
//!
//! A driver prover's verdicts take faults off the list too
//! ([`BlockSim::retire`]); once the list is empty a sweep only counts its
//! blocks, with no good-machine run.
//!
//! # Determinism
//!
//! The report is **bit-identical** for any thread count, because:
//!
//! * the pattern stream is formed by the shared [`BlockSim`] driver, so
//!   every run draws the same source words and schedules the same sweeps;
//! * per-fault detection is a pure function of `(program, sweep, patch)`
//!   — one immutable [`EvalProgram`] is shared by every shard, so *which*
//!   shard evaluates a fault cannot change the answer;
//! * shards touch disjoint positions of the undetected list, so merging
//!   their hit lists is order-independent: fault *i*'s first-detection
//!   index is `patterns_applied + offset` regardless of join order;
//! * fault dropping is sweep-granular (a fault detected in sweep *s* is
//!   still evaluated by nobody else in sweep *s* and by no one after).
//!
//! Work stealing only redistributes *throughput* between shards (visible
//! in [`SimStats::per_shard_fault_evals`]); it never changes the report.
//! `tests/par_equivalence.rs` pins this across circuits, seeds and thread
//! counts, and `tests/lanes_equivalence.rs` across lane widths.

use crate::eval;
use crate::fault::Fault;
use crate::sim::{BlockSim, FaultSimReport, SweepHits};
use crate::source::PatternBlock;
use crate::stats::SimStats;
use bibs_netlist::{EvalProgram, EventQueue, Netlist, Patch};
use bibs_obs::{CounterId, Recorder, ShardCounters};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Faults a worker grabs per steal; small enough to balance dropped-fault
/// skew, large enough to keep cursor contention negligible.
const STEAL_CHUNK: usize = 32;

/// Below this many undetected faults a sweep is simulated inline on the
/// calling thread — spawning would cost more than the work.
const SERIAL_CUTOFF: usize = 48;

/// One detection: `(undetected-list position, sub-block, pattern offset
/// within the sweep)`.
type Hit = (usize, usize, u64);

/// Resolves a `BIBS_JOBS`-style value to a worker-thread count: a positive
/// integer wins, anything else (unset, empty, garbage, zero) falls back to
/// [`std::thread::available_parallelism`] (1 if that is unavailable).
///
/// This is the **pure** core of [`default_jobs`]: it takes the variable's
/// value as a parameter instead of reading the process environment, so
/// tests can cover the parse table without `set_var`/`remove_var` races
/// against concurrently running tests (mutating the environment from a
/// multi-threaded test harness is UB-adjacent on POSIX and was the source
/// of a real flake).
pub fn default_jobs_from(value: Option<&str>) -> usize {
    if let Some(v) = value {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The worker-thread count to use by default: the `BIBS_JOBS` environment
/// variable if set to a positive integer, otherwise
/// [`std::thread::available_parallelism`] (1 if that is unavailable).
/// Parsing lives in [`default_jobs_from`].
pub fn default_jobs() -> usize {
    default_jobs_from(std::env::var("BIBS_JOBS").ok().as_deref())
}

/// The compiled fault simulator bound to one (combinational) netlist and
/// one fault list, at any thread count and lane width.
///
/// Construction compiles the netlist once (or adopts a caller-supplied
/// program via [`ParFaultSimulator::with_program`]) and pre-compiles
/// every fault to its one patch-point; each sweep is then one program
/// run for the good machine plus one event-driven propagation per
/// undetected fault, which evaluates only the instructions the fault's
/// effect reaches (PPSFP: parallel patterns, single-fault
/// propagation). Detected faults are dropped from later sweeps; the per-fault
/// first-detection pattern index is recorded so coverage-vs-pattern-count
/// curves (the paper's Table 2 rows 5–8) can be reconstructed exactly.
/// Reports are bit-identical to the seed interpreter's
/// ([`crate::reference::ReferenceSimulator`]), pinned by
/// `tests/compiled_equivalence.rs`.
///
/// [`ParFaultSimulator::new`] runs on the calling thread and never spawns;
/// [`ParFaultSimulator::with_threads`] shards the fault list across
/// workers. Drive either through the [`BlockSim`] trait:
///
/// ```
/// use bibs_netlist::builder::NetlistBuilder;
/// use bibs_faultsim::fault::FaultUniverse;
/// use bibs_faultsim::par::ParFaultSimulator;
/// use bibs_faultsim::sim::BlockSim;
///
/// # fn main() -> Result<(), bibs_netlist::NetlistError> {
/// let mut b = NetlistBuilder::new("add2");
/// let a = b.input_word("a", 2);
/// let c = b.input_word("b", 2);
/// let (s, co) = b.ripple_carry_adder(&a, &c, None);
/// b.output_word("s", &s);
/// b.output("co", co);
/// let nl = b.finish()?;
///
/// let faults = FaultUniverse::collapsed(&nl);
/// let mut sim = ParFaultSimulator::with_threads(&nl, faults.faults().to_vec(), 4);
/// let report = sim.run_exhaustive();
/// assert_eq!(report.undetected().len(), 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ParFaultSimulator<'a> {
    netlist: &'a Netlist,
    /// The compiled program, shared read-only by every shard.
    program: EvalProgram,
    faults: Vec<Fault>,
    /// `patches[i]` = compiled patch-point of fault *i*.
    patches: Vec<Patch>,
    detection: Vec<Option<u64>>,
    /// Indices (into `faults`) of the faults still undetected — the work
    /// list the shards split. Compacted by every commit.
    undetected: Vec<u32>,
    /// 64-lane words per sweep: 1, 4 or 8 (`with_lanes`).
    lane_words: usize,
    /// The sweep's packed input words (`inputs[i * N + k]` = word `k` of
    /// input `i`), reused across sweeps.
    inputs: Vec<u64>,
    /// The good machine's stride-`lane_words` values.
    good: Vec<u64>,
    /// One faulty-machine buffer and event queue per worker, reused
    /// across sweeps.
    workers: Vec<Worker>,
    patterns_applied: u64,
    threads: usize,
    rec: Recorder,
}

impl<'a> ParFaultSimulator<'a> {
    /// Creates a one-thread simulator: every sweep runs inline on the
    /// calling thread, nothing is spawned.
    ///
    /// # Panics
    ///
    /// Panics if the netlist is sequential (run on the combinational
    /// equivalent — see the crate docs) or combinationally cyclic, or if
    /// the fault list exceeds `u32::MAX` entries.
    pub fn new(netlist: &'a Netlist, faults: Vec<Fault>) -> Self {
        Self::with_threads(netlist, faults, 1)
    }

    /// Creates a simulator with an explicit worker-thread count (clamped
    /// to at least 1); reports are identical for every count.
    ///
    /// The netlist is compiled to an [`EvalProgram`] here; the compile
    /// time is recorded as a `"compile"` child span, surfaced through
    /// [`SimStats::compile_wall`]. Use [`ParFaultSimulator::with_program`]
    /// to reuse a compiled program.
    ///
    /// # Panics
    ///
    /// Same conditions as [`ParFaultSimulator::new`].
    pub fn with_threads(netlist: &'a Netlist, faults: Vec<Fault>, threads: usize) -> Self {
        let mut rec = Recorder::new("fault-sim[par]");
        let program =
            EvalProgram::compile_traced(netlist, &mut rec).expect("acyclic combinational netlist");
        Self::with_program_recorder(netlist, program, faults, threads, rec)
    }

    /// Creates a simulator around an already-compiled program for the
    /// same netlist, so callers running many sessions on one circuit pay
    /// the compile cost once.
    ///
    /// # Panics
    ///
    /// Panics if the netlist is sequential, `program` was not compiled
    /// from `netlist` (slot count is the cheap proxy checked), or the
    /// fault list exceeds `u32::MAX` entries.
    pub fn with_program(
        netlist: &'a Netlist,
        program: EvalProgram,
        faults: Vec<Fault>,
        threads: usize,
    ) -> Self {
        Self::with_program_recorder(
            netlist,
            program,
            faults,
            threads,
            Recorder::new("fault-sim[par]"),
        )
    }

    /// [`ParFaultSimulator::with_program`] with a caller-supplied
    /// telemetry recorder. Pass [`Recorder::disabled`] to measure the
    /// recorder's own hot-loop overhead; stats derived from a disabled
    /// recorder are all-zero.
    pub fn with_program_recorder(
        netlist: &'a Netlist,
        program: EvalProgram,
        faults: Vec<Fault>,
        threads: usize,
        rec: Recorder,
    ) -> Self {
        assert_eq!(
            netlist.dff_count(),
            0,
            "fault-simulate the combinational equivalent"
        );
        assert_eq!(
            program.slot_count(),
            netlist.net_count(),
            "program/netlist mismatch"
        );
        assert!(
            faults.len() <= u32::MAX as usize,
            "fault list exceeds u32 index space"
        );
        let threads = threads.max(1);
        let patches = faults
            .iter()
            .map(|&f| eval::compile_patch(&program, f))
            .collect();
        let n = faults.len();
        let good = program.new_values::<1>();
        ParFaultSimulator {
            netlist,
            program,
            faults,
            patches,
            detection: vec![None; n],
            undetected: (0..n as u32).collect(),
            lane_words: 1,
            inputs: Vec::new(),
            workers: vec![Worker::new(&good); threads],
            good,
            patterns_applied: 0,
            threads,
            rec,
        }
    }

    /// Reconfigures the sweep width: `lanes` is 64 (the default), 256, or
    /// 512 — 1, 4, or 8 words of 64 patterns per good-machine evaluation,
    /// with every live fault batched against each (PPSFP). Reports stay
    /// bit-identical across lane widths *and* thread counts (pinned by
    /// `tests/lanes_equivalence.rs`). Widening records the `lanes`
    /// telemetry counter; 64 leaves the telemetry untouched.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is not 64, 256, or 512.
    #[must_use]
    pub fn with_lanes(mut self, lanes: usize) -> Self {
        assert!(
            matches!(lanes, 64 | 256 | 512),
            "supported lane widths: 64, 256, 512"
        );
        self.lane_words = lanes / 64;
        if lanes > 64 {
            let root = self.rec.root();
            self.rec.add_to(root, CounterId::Lanes, lanes as u64);
        }
        self.good = match self.lane_words {
            1 => self.program.new_values::<1>(),
            4 => self.program.new_values::<4>(),
            _ => self.program.new_values::<8>(),
        };
        self.workers = vec![Worker::new(&self.good); self.threads];
        self
    }

    /// The configured worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The compiled program shared by the shards.
    pub fn program(&self) -> &EvalProgram {
        &self.program
    }

    /// The engine's telemetry span tree (root `"fault-sim[par]"`):
    /// per-sweep counters on the root, the compile cost as a `"compile"`
    /// child, one detail child per worker shard. Graft it into a
    /// pipeline-level recorder with [`Recorder::graft`].
    pub fn recorder(&self) -> &Recorder {
        &self.rec
    }

    /// The monomorphized sweep: pack the input words and per-sub-block
    /// valid-lane masks, evaluate the good machine once, then shard the
    /// undetected list, each hit carrying its pattern *offset*
    /// (`sub-block prefix + lane`) within the sweep.
    fn sweep_n<const N: usize>(&mut self, blocks: &[PatternBlock], applied: &[usize]) -> SweepHits {
        debug_assert!(blocks.len() <= N && blocks.len() == applied.len());
        let root = self.rec.root();
        self.rec
            .add_to(root, CounterId::Blocks, blocks.len() as u64);
        if self.undetected.is_empty() {
            // Every fault is detected or retired: nothing to evaluate.
            return SweepHits::default();
        }
        let started = Instant::now();
        let width = self.netlist.input_width();
        let mut masks = [0u64; N];
        let mut prefix = [0u64; N];
        self.inputs.clear();
        self.inputs.resize(width * N, 0);
        for (k, (b, &lanes)) in blocks.iter().zip(applied).enumerate() {
            for (i, &w) in b.words.iter().enumerate() {
                self.inputs[i * N + k] = w;
            }
            masks[k] = if lanes == 64 { !0 } else { (1u64 << lanes) - 1 };
            if k + 1 < N {
                prefix[k + 1] = prefix[k] + lanes as u64;
            }
        }
        let good_gate_evals = self.program.eval_good::<N>(&mut self.good, &self.inputs);

        let shard = Shard {
            program: &self.program,
            patches: &self.patches,
            undetected: &self.undetected,
            good: &self.good,
            masks,
            prefix,
        };
        let live = self.undetected.len();
        // Per-shard hits plus the shard's private telemetry counters.
        // Shards never touch the recorder — each fills its own
        // ShardCounters (plain u64 adds), merged below once per sweep.
        let shard_results: Vec<(Vec<Hit>, ShardCounters)> =
            if self.threads <= 1 || live <= SERIAL_CUTOFF {
                let mut all = Some(0..live);
                vec![shard.run(&mut self.workers[0], |_| all.take())]
            } else {
                let cursor = AtomicUsize::new(0);
                let steal = |counters: &mut ShardCounters| {
                    let start = cursor.fetch_add(STEAL_CHUNK, Ordering::Relaxed);
                    (start < live).then(|| {
                        counters.add(CounterId::QueuePops, 1);
                        start..(start + STEAL_CHUNK).min(live)
                    })
                };
                let (shard, steal) = (&shard, &steal);
                std::thread::scope(|s| {
                    let handles: Vec<_> = self
                        .workers
                        .iter_mut()
                        .map(|worker| s.spawn(move || shard.run(worker, steal)))
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("fault-sim worker panicked"))
                        .collect()
                })
            };

        // Deterministic merge: shards own disjoint positions, and each
        // hit's detection index depends only on (fault, sweep). Shard
        // counters merge into the root span plus one detail child per
        // shard index — the root totals are thread-count-independent.
        let mut hits_per_block: SweepHits = Default::default();
        for (shard_idx, (hits, counters)) in shard_results.into_iter().enumerate() {
            self.rec.attach_shard(root, shard_idx as u32, &counters);
            for (pos, k, offset) in hits {
                let fi = self.undetected[pos] as usize;
                debug_assert!(self.detection[fi].is_none());
                self.detection[fi] = Some(self.patterns_applied + offset);
                hits_per_block[k] += 1;
            }
        }
        self.rec.add_to(root, CounterId::GateEvals, good_gate_evals);
        self.rec.add_to(root, CounterId::GoodEvals, 1);
        self.rec.add_wall(root, started.elapsed());
        hits_per_block
    }
}

/// One worker's private state: a stride-`lane_words` faulty-machine
/// buffer and the event queue its propagations work in.
#[derive(Debug, Clone)]
struct Worker {
    faulty: Vec<u64>,
    queue: EventQueue,
}

impl Worker {
    fn new(good: &[u64]) -> Worker {
        Worker {
            faulty: good.to_vec(),
            queue: EventQueue::default(),
        }
    }
}

/// What every shard of one sweep reads: the program, the patches, the
/// undetected list and the good machine's values.
struct Shard<'s, const N: usize> {
    program: &'s EvalProgram,
    patches: &'s [Patch],
    undetected: &'s [u32],
    good: &'s [u64],
    /// Valid-lane mask per sub-block.
    masks: [u64; N],
    /// Pattern offset of each sub-block within the sweep.
    prefix: [u64; N],
}

impl<const N: usize> Shard<'_, N> {
    /// The shard body: syncs the worker's faulty buffer from the good
    /// machine, evaluates the faults at every range of undetected-list
    /// positions `next` hands out (until it returns `None`), and returns a
    /// hit per detected fault plus the shard's counters.
    fn run(
        &self,
        worker: &mut Worker,
        mut next: impl FnMut(&mut ShardCounters) -> Option<Range<usize>>,
    ) -> (Vec<Hit>, ShardCounters) {
        let started = Instant::now();
        let mut hits = Vec::new();
        let mut counters = ShardCounters::new();
        worker.faulty.copy_from_slice(self.good);
        while let Some(positions) = next(&mut counters) {
            for pos in positions {
                let (diff, gate_evals) = self.program.eval_events::<N>(
                    self.good,
                    &mut worker.faulty,
                    self.patches[self.undetected[pos] as usize],
                    &mut worker.queue,
                );
                counters.add(CounterId::GateEvals, gate_evals);
                counters.add(CounterId::FaultEvals, 1);
                if let Some((k, word)) = eval::first_detection(diff, &self.masks) {
                    hits.push((pos, k, self.prefix[k] + word.trailing_zeros() as u64));
                }
            }
        }
        counters.wall = started.elapsed();
        (hits, counters)
    }
}

impl BlockSim for ParFaultSimulator<'_> {
    fn netlist(&self) -> &Netlist {
        self.netlist
    }

    fn detection(&self) -> &[Option<u64>] {
        &self.detection
    }

    fn patterns_applied(&self) -> u64 {
        self.patterns_applied
    }

    fn report(&self) -> FaultSimReport {
        FaultSimReport::from_parts(
            self.faults.clone(),
            self.detection.clone(),
            self.patterns_applied,
            SimStats::from_recorder(&self.rec, self.threads),
        )
    }

    fn lane_words(&self) -> usize {
        self.lane_words
    }

    fn sweep(&mut self, blocks: &[PatternBlock], applied: &[usize]) -> SweepHits {
        match self.lane_words {
            1 => self.sweep_n::<1>(blocks, applied),
            4 => self.sweep_n::<4>(blocks, applied),
            _ => self.sweep_n::<8>(blocks, applied),
        }
    }

    /// Drops the faults the sweep detected before `boundary` from the
    /// undetected list and erases the rest of its detections. Only the
    /// list is scanned: every fault the sweep detected is still on it.
    fn commit(&mut self, boundary: u64) {
        let base = self.patterns_applied;
        debug_assert!(boundary >= base);
        let live = self.undetected.len();
        let detection = &mut self.detection;
        self.undetected.retain(|&fi| {
            let d = &mut detection[fi as usize];
            match *d {
                Some(p) if p >= boundary => {
                    *d = None;
                    true
                }
                Some(_) => false,
                None => true,
            }
        });
        self.patterns_applied = boundary;
        let root = self.rec.root();
        self.rec
            .add_to(root, CounterId::PatternsConsumed, boundary - base);
        self.rec.add_to(
            root,
            CounterId::FaultsDropped,
            (live - self.undetected.len()) as u64,
        );
    }

    /// Drops the faults `prover` proves undetectable from the undetected
    /// list, asking it in fault-list order.
    fn retire(&mut self, prover: &mut dyn FnMut(Fault) -> bool) -> usize {
        let live = self.undetected.len();
        let faults = &self.faults;
        self.undetected.retain(|&fi| !prover(faults[fi as usize]));
        let retired = live - self.undetected.len();
        if retired > 0 {
            let root = self.rec.root();
            self.rec
                .add_to(root, CounterId::FaultsRetired, retired as u64);
        }
        retired
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultUniverse;
    use bibs_netlist::builder::NetlistBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn adder4() -> Netlist {
        let mut b = NetlistBuilder::new("add4");
        let a = b.input_word("a", 4);
        let c = b.input_word("b", 4);
        let (s, co) = b.ripple_carry_adder(&a, &c, None);
        b.output_word("s", &s);
        b.output("co", co);
        b.finish().unwrap()
    }

    #[test]
    fn thread_counts_agree_exhaustively() {
        let nl = adder4();
        let faults = FaultUniverse::collapsed(&nl).faults().to_vec();
        let inline = ParFaultSimulator::new(&nl, faults.clone()).run_exhaustive();
        for threads in [2, 4, 8] {
            let sharded =
                ParFaultSimulator::with_threads(&nl, faults.clone(), threads).run_exhaustive();
            assert_eq!(inline.detection(), sharded.detection());
            assert_eq!(inline.patterns_applied(), sharded.patterns_applied());
        }
    }

    #[test]
    fn thread_counts_agree_on_a_random_stream() {
        let nl = adder4();
        let faults = FaultUniverse::collapsed(&nl).faults().to_vec();
        let mut rng = StdRng::seed_from_u64(7);
        let inline = ParFaultSimulator::new(&nl, faults.clone()).run_random(&mut rng, 10_000);
        let mut rng = StdRng::seed_from_u64(7);
        let sharded = ParFaultSimulator::with_threads(&nl, faults, 3).run_random(&mut rng, 10_000);
        assert_eq!(inline.detection(), sharded.detection());
        assert_eq!(inline.patterns_applied(), sharded.patterns_applied());
    }

    #[test]
    fn stats_account_every_shard() {
        let nl = adder4();
        let faults = FaultUniverse::collapsed(&nl).faults().to_vec();
        let mut sim = ParFaultSimulator::with_threads(&nl, faults, 4);
        let report = sim.run_exhaustive();
        let stats = report.stats();
        assert_eq!(stats.threads, 4);
        assert_eq!(stats.per_shard_fault_evals.len(), 4);
        assert_eq!(
            stats.per_shard_fault_evals.iter().sum::<u64>(),
            stats.fault_evals
        );
        assert_eq!(stats.faults_dropped, report.detected_count() as u64);
    }

    #[test]
    fn jobs_parse_table() {
        // Pure-function coverage of the BIBS_JOBS parse rules; no
        // process-environment mutation (set_var/remove_var from a
        // multi-threaded test harness races other tests reading env).
        assert_eq!(default_jobs_from(Some("3")), 3);
        assert_eq!(default_jobs_from(Some(" 4 ")), 4);
        assert_eq!(default_jobs_from(Some("1")), 1);
        // Unset / garbage / zero / empty all fall back to a positive count.
        assert!(default_jobs_from(None) >= 1);
        assert!(default_jobs_from(Some("not-a-number")) >= 1);
        assert!(default_jobs_from(Some("0")) >= 1);
        assert!(default_jobs_from(Some("")) >= 1);
        assert!(default_jobs_from(Some("-2")) >= 1);
        // The fallback is the same for every non-positive spelling.
        let fallback = default_jobs_from(None);
        assert_eq!(default_jobs_from(Some("0")), fallback);
        assert_eq!(default_jobs_from(Some("garbage")), fallback);
    }

    /// End-to-end check that [`default_jobs`] really reads `BIBS_JOBS`.
    /// Ignored by default: it mutates the process environment, which is
    /// only safe when no other test thread is running. Run explicitly with
    /// `cargo test -p bibs-faultsim -- --ignored --test-threads=1`.
    #[test]
    #[ignore = "mutates process env; run single-threaded via --ignored --test-threads=1"]
    fn jobs_env_integration() {
        std::env::set_var("BIBS_JOBS", "3");
        assert_eq!(default_jobs(), 3);
        std::env::remove_var("BIBS_JOBS");
        assert!(default_jobs() >= 1);
    }
}
