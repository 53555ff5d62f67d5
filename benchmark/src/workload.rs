//! The workloads, their seeded inputs, set-up, and one eval.

use bibs_bench::{table2_column, SourceSpec, Table2Column, Table2Options, Tdm};
use bibs_datapath::filters::scaled;
use bibs_lint::{lint_full, LintConfig};
use bibs_rtl::Circuit;

/// The paper's three datapaths, in Table 2 column order.
const CIRCUITS: [&str; 3] = ["c5a2m", "c3a2m", "c4a4m"];

/// Worker threads every eval uses, pinned so that hosts with different
/// core counts run the same engine configuration; the host's core count
/// is reported beside it. One, not the machine's two: on a shared 2-vCPU
/// host, ten alternating runs per setting of `ka85-kernels` gave the same
/// median eval time at 1 and 2 threads, but 2 threads spread the
/// throughput by 9% of its median against 3% at 1 thread.
pub const JOBS: usize = 1;

/// One named set of inputs: which columns an eval computes and how.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// The TDMs each circuit is run under, in Table 2 column order.
    pub tdms: &'static [Tdm],
    /// Datapath word width.
    pub width: u32,
    /// Random-phase pattern cap per kernel.
    pub max_patterns: u64,
    /// Random-phase detection plateau per kernel.
    pub plateau: u64,
    /// Pattern source for the random phase (`None`: the default RNG path).
    pub source: Option<SourceSpec>,
    /// Evals a timed run makes however short `--seconds` is. The
    /// simulated `test_clocks_100` is averaged over exactly these, so that
    /// it repeats for a seed; each floor keeps its spread over ten run
    /// seeds near 3% and fits in 20 s on a host half again as slow as a
    /// quiet one.
    pub floor: u64,
}

/// `topoff`'s random-phase cap and plateau. At 256 about one seed in
/// seven leaves a random-resistant fault whose PODEM search takes 0.5–3 s
/// against a 190 ms median eval, so the mean over a run's seeds moved by
/// a third from one run seed to the next. At 1024 no seed tried did.
const TOPOFF_PATTERNS: u64 = 1024;

/// Every workload, in reporting order. Why each exists is in
/// `BENCHMARK.json` and `README.md`.
pub fn all() -> Vec<Workload> {
    let d = Table2Options::default();
    let both = &[Tdm::Bibs, Tdm::Ka85];
    vec![
        Workload {
            name: "table2",
            tdms: both,
            width: 8,
            max_patterns: d.max_patterns,
            plateau: d.plateau,
            source: None,
            floor: 50,
        },
        Workload {
            name: "ka85-kernels",
            tdms: &[Tdm::Ka85],
            width: 8,
            max_patterns: d.max_patterns,
            plateau: d.plateau,
            source: None,
            floor: 200,
        },
        Workload {
            name: "topoff",
            tdms: both,
            width: 8,
            max_patterns: TOPOFF_PATTERNS,
            plateau: TOPOFF_PATTERNS,
            source: None,
            floor: 50,
        },
        Workload {
            name: "tpg-stream",
            tdms: both,
            width: 7,
            max_patterns: d.max_patterns,
            plateau: d.plateau,
            source: Some(SourceSpec::MinTpg),
            floor: 30,
        },
    ]
}

/// The workload called `name`.
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

/// The seed of eval `i` in a run seeded with `s`: output `i` of a
/// SplitMix64 generator seeded with `s`, so that two commits run the
/// same inputs for the same `s`.
pub fn splitmix64(s: u64, i: u64) -> u64 {
    let mut z = s.wrapping_add(i.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Workload {
    /// The options of eval `i` of a run seeded with `s`.
    pub fn options(&self, s: u64, i: u64) -> Table2Options {
        Table2Options {
            seed: splitmix64(s, i),
            max_patterns: self.max_patterns,
            plateau: self.plateau,
            jobs: JOBS,
            source: self.source.clone(),
            ..Table2Options::default()
        }
    }

    /// The set-up every eval relies on: each datapath built at the
    /// workload's width and passed through the full lint gate, as the
    /// `table2` binary does before simulating.
    ///
    /// # Errors
    ///
    /// Returns the lint report of a circuit that is not clean.
    pub(crate) fn setup(&self) -> Result<Vec<Circuit>, String> {
        CIRCUITS
            .iter()
            .map(|&name| {
                let circuit = scaled(name, self.width);
                let report = lint_full(&circuit, &LintConfig::new());
                if report.is_clean() {
                    Ok(circuit)
                } else {
                    Err(format!("{name} fails lint:\n{report}"))
                }
            })
            .collect()
    }

    /// The (circuit index, TDM) pairs of one eval, in column order.
    pub(crate) fn columns(&self) -> impl Iterator<Item = (usize, Tdm)> + '_ {
        (0..CIRCUITS.len()).flat_map(|c| self.tdms.iter().map(move |&t| (c, t)))
    }

    /// One eval: one `table2_column` call per (circuit, TDM) pair.
    pub(crate) fn eval(&self, circuits: &[Circuit], options: &Table2Options) -> Vec<Table2Column> {
        self.columns()
            .map(|(c, tdm)| table2_column(&circuits[c], tdm, options))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_matches_the_reference_generator() {
        // The first outputs of Vigna's SplitMix64 seeded with 0 and 1.
        assert_eq!(splitmix64(0, 0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(0, 1), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(splitmix64(0, 2), 0x06C4_5D18_8009_454F);
        assert_eq!(splitmix64(1, 0), 0x910A_2DEC_8902_5CC1);
    }

    #[test]
    fn eval_options_differ_only_in_the_derived_seed() {
        for w in all() {
            let (a, b) = (w.options(7, 0), w.options(7, 1));
            assert_eq!(a.seed, splitmix64(7, 0));
            assert_ne!(a.seed, b.seed);
            assert_eq!(w.options(7, 0).seed, a.seed, "same seed, same inputs");
            assert_eq!(a.jobs, JOBS);
            let d = Table2Options::default();
            assert_eq!(
                (a.backtrack_limit, a.engine, a.collapse, a.opt, a.lanes),
                (d.backtrack_limit, d.engine, d.collapse, d.opt, d.lanes),
                "{}: only the workload's own fields leave the defaults",
                w.name
            );
        }
    }

    #[test]
    fn ka85_kernels_evals_only_the_ka85_columns() {
        let w = by_name("ka85-kernels").expect("ka85-kernels exists");
        let cols: Vec<_> = w.columns().collect();
        assert_eq!(cols, [(0, Tdm::Ka85), (1, Tdm::Ka85), (2, Tdm::Ka85)]);
        let t = by_name("table2").expect("table2 exists");
        assert_eq!(t.columns().count(), 6);
    }
}
