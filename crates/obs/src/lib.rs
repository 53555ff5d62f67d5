//! The BIBS telemetry spine: hierarchical **spans** with wall-clock time
//! plus monotonic **counters**, collected per pipeline stage and exported
//! as machine-readable JSON.
//!
//! Every stage of the pipeline — `compile → analyze → fault-sim → atpg →
//! schedule → verify` — records into a [`Recorder`]: a small
//! arena of [`Span`]s, each carrying a label, an accumulated wall-clock
//! duration and a fixed-size [`Counters`] array.
//! The design goals, in order:
//!
//! 1. **Nothing on the hot path.** A counter bump is a single add into a
//!    fixed `[u64; N]` array ([`Counters::add`]), and the fault-sim
//!    engines do not touch a recorder at all: they count into their own
//!    `SimStats`, which the pipeline records as one span per run.
//! 2. **Determinism.** Every counter is a pure function of the workload
//!    (seed, circuit, options, the fault-sim engine among them),
//!    independent of the machine and wall clock, so two runs on different
//!    machines export byte-identical JSON once the wall-clock fields are
//!    stripped. The engines count their work differently (`gate_evals`,
//!    `stem_evals`, `stem_stops`), so only runs of one engine compare.
//! 3. **Zero dependencies.** Std-only, like the rest of the workspace; the
//!    [`json`] module provides the minimal parser the `perfdiff`
//!    regression gate needs to read exports back.
//!
//! `SimStats::record` in `bibs-faultsim` maps an engine's counters to
//! [`CounterId`]s in one place; the bench bins expose the tree via
//! `--telemetry <out.json>` and the `BIBS_TRACE=spans|counters|off`
//! environment knob ([`TraceMode`]).
#![warn(missing_docs)]

pub mod json;

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// The counter vocabulary. One slot per variant in every [`Counters`]
/// array; the order here is the (stable) export order.
///
/// Counters are **monotonic** — stages only ever add — and
/// deterministic: a pure function of the workload and the engine,
/// independent of wall clock, which is what lets the `perfdiff` gate
/// demand hard equality on them across runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum CounterId {
    /// Compiled instructions actually evaluated (or interpreted gate
    /// visits) across good and faulty machines, one per 64-lane word —
    /// the hardware-meaningful unit of work. The compiled engine evaluates
    /// the whole program once per 64-lane block, but per stem
    /// propagation (see [`CounterId::StemEvals`]) only the instructions
    /// the flipped stem reaches before the propagation stops (see
    /// [`CounterId::StemStops`]), so this counts the work done, not
    /// program size × evaluations.
    GateEvals,
    /// Good-machine evaluations: one per 64-lane pattern block applied
    /// while a fault is live.
    GoodEvals,
    /// Live faults examined: one per live fault per block.
    FaultEvals,
    /// Faults dropped from simulation after first detection.
    FaultsDropped,
    /// Pattern blocks a run counts (up to 64 patterns each): the blocks
    /// applied, and the blocks skipped once no fault is live (see
    /// [`CounterId::BlocksSkipped`]).
    Blocks,
    /// Patterns consumed from the stream (lanes, not blocks), skipped
    /// blocks' lanes included.
    PatternsConsumed,
    /// PODEM backtracks across all targeted faults.
    PodemBacktracks,
    /// Faults PODEM searched (not those the implication check proved
    /// first; see [`CounterId::ImpliedRedundant`]).
    PodemFaults,
    /// Ternary instructions PODEM's implication evaluated, good and faulty
    /// machine together (the once-per-fault loading sweep included).
    PodemEvals,
    /// Size of the (equivalence-collapsed) fault universe a kernel run
    /// accounts for.
    UniverseFaults,
    /// Faults actually handed to the simulation engine after the
    /// observability split.
    SimulatedFaults,
    /// Instructions in a compiled `EvalProgram`.
    Instructions,
    /// Value slots in a compiled `EvalProgram`.
    Slots,
    /// TPG cones exhaustively verified.
    ConesVerified,
    /// Test sessions produced by the scheduler.
    SessionsScheduled,
    /// Kernels placed into test sessions.
    KernelsScheduled,
    /// Lint findings emitted for one file (batch mode records one span
    /// per linted file carrying this counter).
    LintFindings,
    /// Patterns emitted by a pattern source (lanes across all blocks
    /// pulled or skipped, whether or not the engine applied every lane).
    PatternsEmitted,
    /// Hardware clock cycles a pattern source accounts for (warm-up
    /// shifts + one per pattern + reseed loads) — the denominator of the
    /// coverage-vs-clocks axis.
    SourceClocks,
    /// Faults a mid-run prover proved undetectable and the engine stopped
    /// simulating. Recorded only when nonzero, so runs that retire
    /// nothing keep their telemetry unchanged.
    FaultsRetired,
    /// Faults the implication check proved redundant, with no PODEM
    /// search.
    ImpliedRedundant,
    /// Stem propagations: sweeps of the fanout cone of a fanout-free
    /// region's flipped stem, at most one per region per block, shared by
    /// every live fault of the region whose effect reaches the stem. The
    /// reference interpreter runs whole faulty machines and records none.
    StemEvals,
    /// Blocks an engine counted without pulling them: once no fault is
    /// live, the driver skips the source to the run's stop point and the
    /// engine counts the blocks the skip stood for. Recorded only when
    /// nonzero, so runs that skip nothing keep their telemetry unchanged.
    BlocksSkipped,
    /// Stem propagations (see [`CounterId::StemEvals`]) that returned
    /// early with cone instructions left: every fault of the region
    /// already saw its lowest flipped lane at an output, so no later
    /// instruction could move a detection.
    StemStops,
}

/// Number of counters — the fixed length of every [`Counters`] array.
pub const COUNTER_COUNT: usize = 24;

impl CounterId {
    /// Every counter, in export order.
    pub const ALL: [CounterId; COUNTER_COUNT] = [
        CounterId::GateEvals,
        CounterId::GoodEvals,
        CounterId::FaultEvals,
        CounterId::FaultsDropped,
        CounterId::Blocks,
        CounterId::PatternsConsumed,
        CounterId::PodemBacktracks,
        CounterId::PodemFaults,
        CounterId::PodemEvals,
        CounterId::UniverseFaults,
        CounterId::SimulatedFaults,
        CounterId::Instructions,
        CounterId::Slots,
        CounterId::ConesVerified,
        CounterId::SessionsScheduled,
        CounterId::KernelsScheduled,
        CounterId::LintFindings,
        CounterId::PatternsEmitted,
        CounterId::SourceClocks,
        CounterId::FaultsRetired,
        CounterId::ImpliedRedundant,
        CounterId::StemEvals,
        CounterId::BlocksSkipped,
        CounterId::StemStops,
    ];

    /// The stable snake_case name used in JSON exports and trace output.
    pub fn name(self) -> &'static str {
        match self {
            CounterId::GateEvals => "gate_evals",
            CounterId::GoodEvals => "good_evals",
            CounterId::FaultEvals => "fault_evals",
            CounterId::FaultsDropped => "faults_dropped",
            CounterId::Blocks => "blocks",
            CounterId::PatternsConsumed => "patterns_consumed",
            CounterId::PodemBacktracks => "podem_backtracks",
            CounterId::PodemFaults => "podem_faults",
            CounterId::PodemEvals => "podem_evals",
            CounterId::UniverseFaults => "universe_faults",
            CounterId::SimulatedFaults => "simulated_faults",
            CounterId::Instructions => "instructions",
            CounterId::Slots => "slots",
            CounterId::ConesVerified => "cones_verified",
            CounterId::SessionsScheduled => "sessions_scheduled",
            CounterId::KernelsScheduled => "kernels_scheduled",
            CounterId::LintFindings => "lint_findings",
            CounterId::PatternsEmitted => "patterns_emitted",
            CounterId::SourceClocks => "source_clocks",
            CounterId::FaultsRetired => "faults_retired",
            CounterId::ImpliedRedundant => "implied_redundant",
            CounterId::StemEvals => "stem_evals",
            CounterId::BlocksSkipped => "blocks_skipped",
            CounterId::StemStops => "stem_stops",
        }
    }
}

/// A fixed-size counter array. Adding is a single indexed `u64` add, so
/// hot loops can bump counters without branching or allocating.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counters {
    vals: [u64; COUNTER_COUNT],
}

impl Default for Counters {
    fn default() -> Self {
        Counters::new()
    }
}

impl Counters {
    /// All-zero counters.
    pub const fn new() -> Self {
        Counters {
            vals: [0; COUNTER_COUNT],
        }
    }

    /// Adds `n` to counter `id`.
    #[inline(always)]
    pub fn add(&mut self, id: CounterId, n: u64) {
        self.vals[id as usize] += n;
    }

    /// The current value of counter `id`.
    #[inline]
    pub fn get(&self, id: CounterId) -> u64 {
        self.vals[id as usize]
    }

    /// Adds every counter of `other` into `self`.
    pub fn merge(&mut self, other: &Counters) {
        for i in 0..COUNTER_COUNT {
            self.vals[i] += other.vals[i];
        }
    }

    /// Whether every counter is zero.
    pub fn is_zero(&self) -> bool {
        self.vals.iter().all(|&v| v == 0)
    }

    /// The nonzero counters, in export order.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (CounterId, u64)> + '_ {
        CounterId::ALL
            .iter()
            .map(move |&id| (id, self.get(id)))
            .filter(|&(_, v)| v != 0)
    }
}

/// Handle to a span inside a [`Recorder`]'s arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

/// One node of the span tree.
#[derive(Debug, Clone)]
pub struct Span {
    /// Human-readable stage label (`"compile"`, `"fault-sim[par]"`,
    /// `"kernel 3"`, …).
    pub label: String,
    /// Accumulated wall-clock time attributed to this span.
    pub wall: Duration,
    /// Counters attributed to this span (own, not subtree).
    pub counters: Counters,
    /// Child spans, in creation order.
    children: Vec<u32>,
    /// Start time while the span is open on the stack.
    started: Option<Instant>,
}

impl Span {
    fn new(label: String) -> Self {
        Span {
            label,
            wall: Duration::ZERO,
            counters: Counters::new(),
            children: Vec::new(),
            started: None,
        }
    }
}

/// The span-tree recorder: an arena of [`Span`]s plus a stack of open
/// spans. Counter adds go to the innermost open span; [`Recorder::enter`]
/// / [`Recorder::exit`] (or [`Recorder::scope`]) bracket stages.
///
/// A recorder built with [`Recorder::disabled`] turns every operation
/// into a no-op, so library entry points can take `&mut Recorder`
/// unconditionally and callers that do not care pay nothing.
#[derive(Debug, Clone)]
pub struct Recorder {
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Recorder {
    /// A live recorder whose root span carries `root_label`.
    pub fn new(root_label: impl Into<String>) -> Self {
        let mut root = Span::new(root_label.into());
        root.started = Some(Instant::now());
        Recorder {
            enabled: true,
            spans: vec![root],
            stack: vec![0],
        }
    }

    /// A recorder on which every operation is a no-op.
    pub fn disabled() -> Self {
        Recorder {
            enabled: false,
            spans: vec![Span::new(String::new())],
            stack: vec![0],
        }
    }

    /// Whether this recorder actually records.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The root span.
    pub fn root(&self) -> SpanId {
        SpanId(0)
    }

    /// The innermost open span (the root when nothing else is open).
    pub fn current(&self) -> SpanId {
        SpanId(*self.stack.last().expect("root is never popped"))
    }

    /// Opens a child span under the current one and makes it current.
    /// Returns its id; pass it to [`Recorder::exit`] to close.
    pub fn enter(&mut self, label: impl Into<String>) -> SpanId {
        if !self.enabled {
            return SpanId(0);
        }
        let id = self.spans.len() as u32;
        let mut span = Span::new(label.into());
        span.started = Some(Instant::now());
        self.spans.push(span);
        let parent = self.current().0 as usize;
        self.spans[parent].children.push(id);
        self.stack.push(id);
        SpanId(id)
    }

    /// Closes span `id`, adding its elapsed time to its wall clock.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not the innermost open span (spans close in
    /// strict LIFO order).
    pub fn exit(&mut self, id: SpanId) {
        if !self.enabled {
            return;
        }
        let top = self.stack.pop().expect("root is never popped");
        assert_eq!(top, id.0, "spans must close in LIFO order");
        assert_ne!(top, 0, "the root span cannot be exited");
        let span = &mut self.spans[top as usize];
        if let Some(started) = span.started.take() {
            span.wall += started.elapsed();
        }
    }

    /// Runs `f` inside a fresh child span — the panic-safe convenience
    /// form of [`Recorder::enter`]/[`Recorder::exit`].
    pub fn scope<T>(&mut self, label: impl Into<String>, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let id = self.enter(label);
        let out = f(self);
        self.exit(id);
        out
    }

    /// Adds `n` to counter `c` on the current span.
    #[inline]
    pub fn add(&mut self, c: CounterId, n: u64) {
        if !self.enabled {
            return;
        }
        let cur = self.current().0 as usize;
        self.spans[cur].counters.add(c, n);
    }

    /// Adds `n` to counter `c` on span `id`.
    #[inline]
    pub fn add_to(&mut self, id: SpanId, c: CounterId, n: u64) {
        if !self.enabled {
            return;
        }
        self.spans[id.0 as usize].counters.add(c, n);
    }

    /// Adds externally measured wall time to span `id` (for stages that
    /// time themselves, e.g. one fault-simulation sweep).
    pub fn add_wall(&mut self, id: SpanId, wall: Duration) {
        if !self.enabled {
            return;
        }
        self.spans[id.0 as usize].wall += wall;
    }

    /// The span behind an id.
    pub fn span(&self, id: SpanId) -> &Span {
        &self.spans[id.0 as usize]
    }

    /// A span's own counters (excluding children).
    pub fn span_counters(&self, id: SpanId) -> &Counters {
        &self.spans[id.0 as usize].counters
    }

    /// A span's accumulated wall time. For a still-open span this is the
    /// time recorded so far (closed children / explicit `add_wall`).
    pub fn span_wall(&self, id: SpanId) -> Duration {
        self.spans[id.0 as usize].wall
    }

    /// The children of `id`, in creation order.
    pub fn children(&self, id: SpanId) -> impl Iterator<Item = SpanId> + '_ {
        self.spans[id.0 as usize]
            .children
            .iter()
            .copied()
            .map(SpanId)
    }

    /// The first child of `id` labeled `label` (direct children only).
    pub fn find(&self, id: SpanId, label: &str) -> Option<SpanId> {
        self.children(id)
            .find(|&c| self.spans[c.0 as usize].label == label)
    }

    /// Sum of counter `c` over span `id` and its descendants.
    pub fn subtree_total(&self, id: SpanId, c: CounterId) -> u64 {
        let span = &self.spans[id.0 as usize];
        let mut total = span.counters.get(c);
        for &child in &span.children {
            total += self.subtree_total(SpanId(child), c);
        }
        total
    }

    /// Aggregate counters over the whole tree.
    pub fn aggregate(&self) -> Counters {
        let mut out = Counters::new();
        for span in &self.spans {
            out.merge(&span.counters);
        }
        out
    }

    /// Closes the root's implicit timer, folding time since construction
    /// into the root span's wall clock. Call once, just before export.
    pub fn finish(&mut self) {
        if !self.enabled {
            return;
        }
        assert_eq!(self.stack.len(), 1, "all spans must be closed at finish");
        let root = &mut self.spans[0];
        if let Some(started) = root.started.take() {
            root.wall += started.elapsed();
        }
    }

    /// Serializes the span tree as deterministic JSON.
    ///
    /// Every counter is deterministic, so the output is byte-identical
    /// across machines; `include_wall` controls whether `wall_ns` fields
    /// (the only nondeterministic content) are emitted. Schema:
    /// `bibs-telemetry/1`.
    pub fn to_json(&self, include_wall: bool) -> String {
        let mut out = String::from("{\"schema\":\"bibs-telemetry/1\",\"root\":");
        self.span_json(&mut out, 0, include_wall);
        out.push_str("}\n");
        out
    }

    fn span_json(&self, out: &mut String, node: u32, include_wall: bool) {
        let span = &self.spans[node as usize];
        out.push_str("{\"label\":");
        json::write_string(out, &span.label);
        if include_wall {
            let _ = write!(out, ",\"wall_ns\":{}", span.wall.as_nanos());
        }
        out.push_str(",\"counters\":{");
        let mut first = true;
        for (id, v) in span.counters.iter_nonzero() {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\"{}\":{v}", id.name());
        }
        out.push_str("},\"children\":[");
        let mut first = true;
        for &child in &span.children {
            if !first {
                out.push(',');
            }
            first = false;
            self.span_json(out, child, include_wall);
        }
        out.push_str("]}");
    }

    /// Renders the span tree for humans (the `BIBS_TRACE=spans` output):
    /// one indented line per span with wall time and nonzero counters.
    pub fn render_spans(&self) -> String {
        let mut out = String::new();
        self.render_span(&mut out, 0, 0);
        out
    }

    fn render_span(&self, out: &mut String, node: u32, depth: usize) {
        let span = &self.spans[node as usize];
        let _ = write!(
            out,
            "{:indent$}{} — {:.3} ms",
            "",
            if span.label.is_empty() {
                "(root)"
            } else {
                &span.label
            },
            span.wall.as_secs_f64() * 1e3,
            indent = depth * 2
        );
        for (id, v) in span.counters.iter_nonzero() {
            let _ = write!(out, ", {}={v}", id.name());
        }
        out.push('\n');
        for &child in &span.children {
            self.render_span(out, child, depth + 1);
        }
    }

    /// Renders the aggregate counters for humans (the
    /// `BIBS_TRACE=counters` output): one `name = value` line per nonzero
    /// counter, plus the root wall clock.
    pub fn render_counters(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "wall = {:.3} ms",
            self.spans[0].wall.as_secs_f64() * 1e3
        );
        for (id, v) in self.aggregate().iter_nonzero() {
            let _ = writeln!(out, "{} = {v}", id.name());
        }
        out
    }
}

/// The `BIBS_TRACE` environment knob: what the bench bins print to stderr
/// after a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceMode {
    /// Print nothing (the default).
    #[default]
    Off,
    /// Print the aggregate counters ([`Recorder::render_counters`]).
    Counters,
    /// Print the full span tree ([`Recorder::render_spans`]).
    Spans,
}

impl TraceMode {
    /// Parses a `BIBS_TRACE` value. Unknown values fall back to `Off` —
    /// a pure function, unit-testable without touching the environment.
    pub fn parse(value: Option<&str>) -> TraceMode {
        match value.map(str::trim) {
            Some("spans") => TraceMode::Spans,
            Some("counters") => TraceMode::Counters,
            _ => TraceMode::Off,
        }
    }

    /// Reads `BIBS_TRACE` from the environment.
    pub fn from_env() -> TraceMode {
        TraceMode::parse(std::env::var("BIBS_TRACE").ok().as_deref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_names_are_unique_and_ordered() {
        let names: Vec<&str> = CounterId::ALL.iter().map(|c| c.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), COUNTER_COUNT, "duplicate counter name");
        for (i, c) in CounterId::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i, "ALL must match the discriminant order");
        }
    }

    #[test]
    fn counters_add_get_merge() {
        let mut a = Counters::new();
        a.add(CounterId::GateEvals, 10);
        a.add(CounterId::GateEvals, 5);
        let mut b = Counters::new();
        b.add(CounterId::GateEvals, 1);
        b.add(CounterId::Blocks, 2);
        a.merge(&b);
        assert_eq!(a.get(CounterId::GateEvals), 16);
        assert_eq!(a.get(CounterId::Blocks), 2);
        assert_eq!(a.iter_nonzero().count(), 2);
        assert!(!a.is_zero());
        assert!(Counters::new().is_zero());
    }

    #[test]
    fn span_tree_structure_and_totals() {
        let mut rec = Recorder::new("root");
        rec.add(CounterId::Blocks, 1);
        let a = rec.enter("compile");
        rec.add(CounterId::Instructions, 100);
        rec.exit(a);
        let b = rec.enter("fault-sim");
        rec.add(CounterId::FaultEvals, 30);
        rec.add_to(b, CounterId::FaultEvals, 10);
        rec.exit(b);
        rec.finish();

        assert_eq!(rec.span_counters(b).get(CounterId::FaultEvals), 40);
        assert_eq!(rec.subtree_total(rec.root(), CounterId::FaultEvals), 40);
        assert_eq!(rec.subtree_total(rec.root(), CounterId::Instructions), 100);
        assert_eq!(rec.subtree_total(b, CounterId::Instructions), 0);
        assert_eq!(rec.aggregate().get(CounterId::FaultEvals), 40);
        assert_eq!(rec.aggregate().get(CounterId::Blocks), 1);
        assert_eq!(rec.find(rec.root(), "compile"), Some(a));
        assert_eq!(rec.find(rec.root(), "nope"), None);
        assert_eq!(rec.children(rec.root()).collect::<Vec<_>>(), [a, b]);
        assert_eq!(rec.children(b).count(), 0);
    }

    #[test]
    fn json_export_strips_walls_on_request() {
        let mut rec = Recorder::new("run");
        rec.add(CounterId::Blocks, 7);
        let f = rec.enter("fault-sim");
        rec.add(CounterId::FaultEvals, 60);
        rec.exit(f);
        rec.finish();
        let json = rec.to_json(false);
        assert_eq!(
            json,
            "{\"schema\":\"bibs-telemetry/1\",\"root\":{\"label\":\"run\",\
             \"counters\":{\"blocks\":7},\"children\":[{\"label\":\"fault-sim\",\
             \"counters\":{\"fault_evals\":60},\"children\":[]}]}}\n"
        );
        // With walls on, the field appears.
        assert!(rec.to_json(true).contains("\"wall_ns\":"));
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let mut rec = Recorder::disabled();
        let s = rec.enter("x");
        rec.add(CounterId::GateEvals, 100);
        rec.add_to(s, CounterId::FaultEvals, 1);
        rec.exit(s);
        rec.finish();
        assert!(!rec.is_enabled());
        assert!(rec.aggregate().is_zero());
        assert_eq!(rec.spans.len(), 1);
    }

    #[test]
    fn scope_closes_on_return() {
        let mut rec = Recorder::new("r");
        let out = rec.scope("inner", |r| {
            r.add(CounterId::ConesVerified, 3);
            42
        });
        assert_eq!(out, 42);
        assert_eq!(rec.current(), rec.root());
        let inner = rec.find(rec.root(), "inner").unwrap();
        assert_eq!(rec.span_counters(inner).get(CounterId::ConesVerified), 3);
    }

    #[test]
    #[should_panic(expected = "LIFO")]
    fn out_of_order_exit_panics() {
        let mut rec = Recorder::new("r");
        let a = rec.enter("a");
        let _b = rec.enter("b");
        rec.exit(a);
    }

    #[test]
    fn trace_mode_parses() {
        assert_eq!(TraceMode::parse(None), TraceMode::Off);
        assert_eq!(TraceMode::parse(Some("off")), TraceMode::Off);
        assert_eq!(TraceMode::parse(Some("spans")), TraceMode::Spans);
        assert_eq!(TraceMode::parse(Some(" counters ")), TraceMode::Counters);
        assert_eq!(TraceMode::parse(Some("bogus")), TraceMode::Off);
    }

    #[test]
    fn render_shows_spans_and_counters() {
        let mut rec = Recorder::new("run");
        let f = rec.enter("fault-sim");
        rec.add(CounterId::FaultEvals, 8);
        rec.exit(f);
        rec.finish();
        let spans = rec.render_spans();
        assert!(spans.contains("\n  fault-sim — "));
        assert!(spans.contains("fault_evals=8"));
        let counters = rec.render_counters();
        assert!(counters.contains("fault_evals = 8"));
        assert!(counters.contains("wall ="));
    }

    #[test]
    fn exported_json_round_trips_through_the_parser() {
        let mut rec = Recorder::new("run");
        rec.add(CounterId::GateEvals, 123);
        let a = rec.enter("stage \"quoted\"");
        rec.add(CounterId::Blocks, 1);
        rec.exit(a);
        rec.finish();
        let v = json::parse(&rec.to_json(true)).expect("valid JSON");
        let root = v.get("root").expect("root");
        assert_eq!(root.get("label").and_then(json::Value::as_str), Some("run"));
        assert_eq!(
            root.get("counters")
                .and_then(|c| c.get("gate_evals"))
                .and_then(json::Value::as_u64),
            Some(123)
        );
        let children = root
            .get("children")
            .and_then(json::Value::as_array)
            .unwrap();
        assert_eq!(
            children[0].get("label").and_then(json::Value::as_str),
            Some("stage \"quoted\"")
        );
    }
}
