//! One run of one workload: set-up, the timed (or traced) evals, the
//! correctness checks, and the result line.

use crate::oracle::{check_column, Golden};
use crate::stats::{median, percentile, tail_percentile};
use crate::workload::{Workload, JOBS};
use crate::{calib, trace, unit_of, END_TO_END};
use bibs_bench::{table2_json, Engine, Table2Column, Table2Options};
use bibs_rtl::Circuit;
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Fresh set-ups per timed run; `setup_s` is their median. One comes
/// before the first eval, the rest are spread evenly over the timed
/// window: one set-up takes about 5 ms, and on a shared host the same
/// process runs it at 4.5 ms or 7 ms for stretches of up to a few hundred
/// milliseconds, so back-to-back repetitions all land in one stretch.
const SETUP_REPS: usize = 21;

/// Seconds between calibration samples in a timed run: about 40 samples
/// of 3 to 5 ms in a 20 s run, 1% of its time.
const CALIBRATE_EVERY_S: f64 = 0.5;

/// Evals a traced run makes: the first ones of the timed run's list.
const TRACED_EVALS: u64 = 10;

/// Evals per run with `--smoke`, traced or not.
const SMOKE_EVALS: u64 = 2;

/// First evals of a timed run that the reference engine re-runs.
const REFERENCE_EVALS: u64 = 2;

/// How one run is made.
#[derive(Debug, Clone)]
pub struct Config {
    /// Run seed; eval `i` uses `splitmix64(seed, i)`.
    pub seed: u64,
    /// Timed runs keep starting evals until this much time has passed
    /// and they have made the workload's floor.
    pub seconds: f64,
    /// Make the traced pass instead of the timed one.
    pub trace: bool,
    /// Make two evals only.
    pub smoke: bool,
}

/// What one run measured and whether its outputs were correct.
#[derive(Debug)]
pub struct Outcome {
    /// Evals attempted.
    pub attempted: u64,
    /// Eval indices whose outputs failed a check.
    pub failed: BTreeSet<u64>,
    /// The reported metrics, in order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Context printed beside the metrics but not part of the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// The result line: `correct`, `attempted`, `failed` and every
    /// metric with its value and unit.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value)| {
                format!(
                    "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    unit_of(name)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed.is_empty(),
            self.attempted,
            self.failed.len(),
            metrics.join(", ")
        )
    }

    /// The metrics as an aligned table, preceded by the notes.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for note in &self.notes {
            let _ = writeln!(out, "# {note}");
        }
        for (name, value) in &self.metrics {
            let _ = writeln!(out, "{name:<28} {value:>16.4} {}", unit_of(name));
        }
        let error_rate = self.failed.len() as f64 / self.attempted as f64;
        let _ = writeln!(
            out,
            "{:<28} {error_rate:>16.4} failed/attempted",
            "error_rate"
        );
        out
    }
}

/// Runs `workload` as `config` says.
///
/// # Errors
///
/// Returns a message when the set-up fails (a datapath fails lint) or
/// the peak memory cannot be read.
pub fn run(workload: &Workload, config: &Config) -> Result<Outcome, String> {
    let header = format!(
        "workload {} seed {} jobs {JOBS} nproc {} trace {}",
        workload.name,
        config.seed,
        crate::nproc(),
        config.trace as u8
    );
    let mut evals = Evals {
        workload,
        seed: config.seed,
        clock: Instant::now(),
        circuits: Vec::new(),
        setups: Vec::new(),
        calib: Vec::new(),
        golden: Golden::builtin(),
        failed: BTreeSet::new(),
    };
    evals.set_up()?;
    // One untimed eval first, so that first-touch page faults and lazily
    // built tables are not charged to the first timed one.
    let _ = evals.eval(0, Engine::Compiled);
    let (attempted, metrics, note) = if config.trace {
        evals.traced(if config.smoke {
            SMOKE_EVALS
        } else {
            TRACED_EVALS
        })
    } else if config.smoke {
        evals.timed(SMOKE_EVALS, 0.0)?
    } else {
        evals.timed(workload.floor, config.seconds)?
    };
    Ok(Outcome {
        attempted,
        failed: evals.failed,
        metrics,
        notes: vec![header, note],
    })
}

/// The evals of one run and the record of which failed.
struct Evals<'a> {
    workload: &'a Workload,
    seed: u64,
    /// The run's clock: every record below is stamped with its seconds.
    clock: Instant,
    circuits: Vec<Circuit>,
    /// (start, wall seconds) of each set-up made so far.
    setups: Vec<(f64, f64)>,
    /// (start, wall ms) of each calibration sample taken so far.
    calib: Vec<(f64, f64)>,
    golden: Golden,
    failed: BTreeSet<u64>,
}

type Metrics = Vec<(&'static str, f64)>;

impl Evals<'_> {
    /// Eval `i` through `table2_column`, with `engine`; a panic is caught.
    fn eval(&self, i: u64, engine: Engine) -> std::thread::Result<Vec<Table2Column>> {
        let options = Table2Options {
            engine,
            ..self.workload.options(self.seed, i)
        };
        catch_unwind(AssertUnwindSafe(|| {
            self.workload.eval(&self.circuits, &options)
        }))
    }

    /// Seconds since the run started.
    fn now(&self) -> f64 {
        self.clock.elapsed().as_secs_f64()
    }

    /// A fresh set-up, timed; its circuits replace the identical ones.
    fn set_up(&mut self) -> Result<(), String> {
        let at = self.now();
        self.circuits = self.workload.setup()?;
        self.setups.push((at, self.now() - at));
        Ok(())
    }

    /// One calibration sample, recorded.
    fn calibrate(&mut self) {
        let at = self.now();
        self.calib.push((at, calib::sample()));
    }

    fn fail(&mut self, i: u64, why: String) {
        eprintln!("eval {i} failed: {why}");
        self.failed.insert(i);
    }

    /// Checks eval `i`'s columns with the oracle; false if they fail.
    fn check(&mut self, i: u64, cols: &[Table2Column]) -> bool {
        let max = self.workload.max_patterns;
        match cols
            .iter()
            .try_for_each(|c| check_column(c, &self.golden, max))
        {
            Ok(()) => true,
            Err(why) => {
                self.fail(i, why);
                false
            }
        }
    }

    /// The timed pass: evals until `floor` are made and `seconds` have
    /// passed, then the reference engine on the first ones.
    fn timed(&mut self, floor: u64, seconds: f64) -> Result<(u64, Metrics, String), String> {
        // (start, wall ms) of each timed eval.
        let mut latencies = Vec::new();
        let mut first_json = Vec::new();
        // The mean over exactly the first `floor`, so that it repeats for
        // a seed however many evals the time allows.
        let mut clocks = 0u64;
        let start = Instant::now();
        let elapsed = || start.elapsed().as_secs_f64();
        // Set-up `k` is due once `k / SETUP_REPS` of the window has passed.
        let setup_due = |done: usize| {
            done < SETUP_REPS && elapsed() >= seconds * done as f64 / SETUP_REPS as f64
        };
        let mut last_calib = f64::NEG_INFINITY;
        let mut i = 0;
        while i < floor || elapsed() < seconds {
            while setup_due(self.setups.len()) {
                self.set_up()?;
            }
            if elapsed() - last_calib >= CALIBRATE_EVERY_S {
                last_calib = elapsed();
                self.calibrate();
            }
            let at = self.now();
            let cols = self.eval(i, Engine::Compiled);
            latencies.push((at, (self.now() - at) * 1e3));
            match cols {
                Ok(cols) => {
                    self.check(i, &cols);
                    if i < floor {
                        clocks += cols.iter().map(|c| c.time_100).sum::<u64>();
                    }
                    if i < REFERENCE_EVALS {
                        first_json.push(columns_json(&cols));
                    }
                }
                Err(_) => self.fail(i, "panicked".into()),
            }
            i += 1;
        }
        // A long last eval can leave set-ups undone.
        while self.setups.len() < SETUP_REPS {
            self.set_up()?;
        }
        self.calibrate();
        let peak_rss_mb = peak_rss_mb()?;

        // The reference interpreter must reproduce the first evals exactly.
        for (i, compiled) in (0..).zip(&first_json) {
            match self.eval(i, Engine::Reference) {
                Ok(cols) if columns_json(&cols) == *compiled => {}
                Ok(_) => self.fail(i, "the reference engine disagrees".into()),
                Err(_) => self.fail(i, "the reference engine panicked".into()),
            }
        }

        // Each eval and set-up is divided by the host's slowdown around it.
        let scaled = |records: &[(f64, f64)]| -> Vec<f64> {
            records
                .iter()
                .map(|&(at, t)| t / calib::slowdown_at(&self.calib, at))
                .collect()
        };
        let unscaled =
            |records: &[(f64, f64)]| -> Vec<f64> { records.iter().map(|&(_, t)| t).collect() };
        let n = latencies.len();
        let raw = Times::of(&unscaled(&self.setups), unscaled(&latencies));
        let times = Times::of(&scaled(&self.setups), scaled(&latencies));
        // The tail is printed, not reported: its percentile moves with the
        // number of evals the host allows in the window.
        let tail = match times.tail {
            Some((p, ms)) => {
                format!("eval_p{p}_ms {ms:.4} (the highest percentile with 10 evals beyond it)")
            }
            None => "too few evals for a tail percentile".into(),
        };
        let note = format!(
            "{n} evals; {tail}\n# host slowdown {:.4} over {} calibration samples; \
             unscaled setup_s {:.6} evals_per_s {:.4} eval_p50_ms {:.4}",
            calib::slowdown(&self.calib),
            self.calib.len(),
            raw.setup_s,
            raw.evals_per_s,
            raw.p50_ms
        );
        let values = [
            times.setup_s,
            times.evals_per_s,
            times.p50_ms,
            peak_rss_mb,
            clocks as f64 / floor as f64,
        ];
        Ok((n as u64, END_TO_END.into_iter().zip(values).collect(), note))
    }

    /// The traced pass over the first `evals` evals, each also made
    /// untimed through `table2_column`, which it must reproduce.
    fn traced(&mut self, evals: u64) -> (u64, Metrics, String) {
        let mut totals = trace::Totals::default();
        let mut timed = Duration::ZERO;
        for i in 0..evals {
            self.calibrate();
            let options = self.workload.options(self.seed, i);
            let mut timed_eval = || {
                let start = Instant::now();
                let cols = self.eval(i, Engine::Compiled);
                timed += start.elapsed();
                cols
            };
            let mut traced_eval = || {
                catch_unwind(AssertUnwindSafe(|| {
                    trace::eval(self.workload, &self.circuits, &options, &mut totals)
                }))
            };
            // Alternate which goes first so drift does not favour one.
            let (cols, traced) = if i % 2 == 0 {
                let cols = timed_eval();
                (cols, traced_eval())
            } else {
                let traced = traced_eval();
                (timed_eval(), traced)
            };
            match (cols, traced) {
                (Ok(cols), Ok(traced)) => {
                    if self.check(i, &cols) && columns_json(&cols) != columns_json(&traced) {
                        self.fail(i, "the traced pipeline disagrees with table2_column".into());
                    }
                }
                _ => self.fail(i, "panicked".into()),
            }
        }
        self.calibrate();
        let slowdown = calib::slowdown(&self.calib);
        let note = format!("{evals} traced evals, means per eval; host slowdown {slowdown:.4}");
        (evals, totals.metrics(timed, slowdown), note)
    }
}

/// The time metrics of a timed run.
struct Times {
    /// Median set-up time.
    setup_s: f64,
    /// Evals over their summed time.
    evals_per_s: f64,
    /// Median eval time.
    p50_ms: f64,
    /// The highest percentile with [`crate::stats::TAIL_SAMPLES`] evals
    /// beyond it, and its eval time.
    tail: Option<(u32, f64)>,
}

impl Times {
    /// The times of set-ups of `setups_s` seconds and evals of `evals_ms`.
    fn of(setups_s: &[f64], mut evals_ms: Vec<f64>) -> Times {
        let n = evals_ms.len();
        let total_ms: f64 = evals_ms.iter().sum();
        evals_ms.sort_by(f64::total_cmp);
        Times {
            setup_s: median(setups_s),
            evals_per_s: n as f64 / (total_ms / 1e3),
            p50_ms: percentile(&evals_ms, 50),
            tail: tail_percentile(n).map(|p| (p, percentile(&evals_ms, p))),
        }
    }
}

/// The detection-deterministic JSON of each column. `table2_json` takes
/// (BIBS, \[3\]) pairs; pairing a column with itself keeps single-TDM
/// workloads comparable byte for byte too.
fn columns_json(cols: &[Table2Column]) -> String {
    cols.iter()
        .map(|c| table2_json(&[(c.clone(), c.clone())]))
        .collect()
}

/// This process's peak resident set, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}
