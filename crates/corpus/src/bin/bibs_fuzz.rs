//! Differential fuzzer over the synthetic corpus.
//!
//! `bibs-fuzz --smoke` runs N seeded circuits (on-disk `corpus/*.bench`
//! seeds first, then generated family instances) through the four
//! differential oracles; any divergence is minimized and committed to
//! `corpus/regressions/` as a `.bench` fixture, and the run exits
//! nonzero. `bibs-fuzz --regressions` replays every committed fixture —
//! the permanent gate that past failures stay fixed. `bibs-fuzz --sizes`
//! prints the scaling-suite size reports, and `--write-seeds`
//! (re)generates the committed `corpus/*.bench` seed files.

use bibs_corpus::gen::{scaling_suite, size_report, Family};
use bibs_corpus::{fixture_seed, load_corpus, oracle, write_regression};
use bibs_netlist::Netlist;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const DEFAULT_CASES: usize = 200;
const DEFAULT_SEED: u64 = 0xB1B5;

/// The committed seed circuits: one representative per family, small
/// enough that every oracle (including the exhaustive two) applies.
const SEED_FAMILIES: [Family; 8] = [
    Family::Adder { width: 4 },
    Family::Multiplier { width: 3 },
    Family::Filter { which: 0, width: 3 },
    Family::Filter { which: 1, width: 2 },
    Family::Filter { which: 2, width: 2 },
    Family::Pipeline { width: 3, depth: 4 },
    Family::MultiKernel {
        stages: 4,
        width: 2,
    },
    Family::RandomDag {
        seed: 0xC0FFEE,
        inputs: 6,
        ops: 20,
    },
];

/// Sequential seeds, committed under `corpus/seq/` instead of the corpus
/// root: the smoke oracles reason over the combinational equivalent, where
/// a feedback flop turns into a combinational cycle, so these instances
/// are kept out of [`load_corpus`]'s non-recursive seed scan — the
/// recursive `bibs-lint --batch corpus/` walk still lints them.
const SEQ_SEED_FAMILIES: [Family; 5] = [
    Family::SeqUnsafe { variant: 0 },
    Family::SeqUnsafe { variant: 1 },
    Family::SeqUnsafe { variant: 2 },
    Family::SeqDag {
        seed: 0xB1B5_0001,
        inputs: 5,
        ops: 24,
        dffs: 4,
    },
    Family::SeqDag {
        seed: 0xB1B5_0002,
        inputs: 6,
        ops: 40,
        dffs: 8,
    },
];

fn usage() -> ! {
    eprintln!(
        "usage: bibs-fuzz (--smoke | --regressions | --sizes | --write-seeds) \
         [--cases N] [--seed S] [--corpus DIR]"
    );
    std::process::exit(2);
}

enum Mode {
    Smoke,
    Regressions,
    Sizes,
    WriteSeeds,
}

fn main() -> ExitCode {
    let mut mode = None;
    let mut cases = DEFAULT_CASES;
    let mut seed = DEFAULT_SEED;
    let mut corpus_dir = PathBuf::from("corpus");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => mode = Some(Mode::Smoke),
            "--regressions" => mode = Some(Mode::Regressions),
            "--sizes" => mode = Some(Mode::Sizes),
            "--write-seeds" => mode = Some(Mode::WriteSeeds),
            "--cases" => {
                cases = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--corpus" => corpus_dir = args.next().map(PathBuf::from).unwrap_or_else(|| usage()),
            _ => usage(),
        }
    }
    match mode {
        Some(Mode::Smoke) => smoke(cases, seed, &corpus_dir),
        Some(Mode::Regressions) => regressions(&corpus_dir),
        Some(Mode::Sizes) => {
            for family in scaling_suite() {
                println!("{}", size_report(family));
            }
            ExitCode::SUCCESS
        }
        Some(Mode::WriteSeeds) => write_seeds(&corpus_dir),
        None => usage(),
    }
}

/// The deterministic generated-case mix: mostly random DAGs (the widest
/// structural net), interleaved with small family instances whose PI
/// width keeps the exhaustive oracles in play.
fn generated_case(seed: u64, i: usize) -> Family {
    let s = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i as u64);
    match i % 8 {
        0 => Family::Adder { width: 2 + i % 5 },
        1 => Family::Multiplier { width: 2 + i % 3 },
        2 => Family::Filter {
            which: i % 3,
            width: 2 + (i as u32 / 3) % 3,
        },
        3 => Family::Pipeline {
            width: 2 + i % 4,
            depth: 1 + i % 5,
        },
        4 => Family::MultiKernel {
            stages: 1 + i % 6,
            width: 2,
        },
        _ => Family::RandomDag {
            seed: s,
            inputs: 2 + (s as usize >> 8) % 7,
            ops: 4 + (s as usize >> 16) % 28,
        },
    }
}

fn write_seeds(corpus_dir: &Path) -> ExitCode {
    if let Err(e) = std::fs::create_dir_all(corpus_dir) {
        eprintln!("error: cannot create {}: {e}", corpus_dir.display());
        return ExitCode::FAILURE;
    }
    for family in SEED_FAMILIES {
        let path = corpus_dir.join(format!("{family}.bench"));
        let text = bibs_netlist::bench::to_text(&family.build());
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("wrote {}", path.display());
    }
    let seq_dir = corpus_dir.join("seq");
    if let Err(e) = std::fs::create_dir_all(&seq_dir) {
        eprintln!("error: cannot create {}: {e}", seq_dir.display());
        return ExitCode::FAILURE;
    }
    for family in SEQ_SEED_FAMILIES {
        let path = seq_dir.join(format!("{family}.bench"));
        let text = bibs_netlist::bench::to_text(&family.build());
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("wrote {}", path.display());
    }
    ExitCode::SUCCESS
}

fn smoke(cases: usize, seed: u64, corpus_dir: &Path) -> ExitCode {
    let mut queue: Vec<(String, Netlist)> = Vec::new();
    match load_corpus(corpus_dir) {
        Ok(seeds) => {
            for (path, nl) in seeds {
                let name = path
                    .file_stem()
                    .and_then(|s| s.to_str())
                    .unwrap_or("seed")
                    .to_string();
                queue.push((format!("corpus:{name}"), nl));
            }
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            eprintln!("note: no corpus directory at {}", corpus_dir.display());
        }
        Err(e) => {
            eprintln!("error: cannot load corpus: {e}");
            return ExitCode::FAILURE;
        }
    }
    for i in queue.len()..cases.max(queue.len()) {
        let family = generated_case(seed, i);
        queue.push((family.to_string(), family.build()));
    }

    let mut failures = 0usize;
    for (i, (name, nl)) in queue.iter().enumerate() {
        let case_seed = seed ^ (i as u64).wrapping_mul(0xD1B5_4A32_D192_ED03);
        let divergences = oracle::check_all(nl, case_seed);
        if divergences.is_empty() {
            continue;
        }
        failures += 1;
        eprintln!("FAIL {name} (case {i}, seed {case_seed}):");
        for d in &divergences {
            eprintln!("  {d}");
        }
        let first = divergences[0].oracle;
        let small = bibs_corpus::minimize::minimize(nl.clone(), |cand| {
            oracle::check_all(cand, case_seed)
                .iter()
                .any(|d| d.oracle == first)
        });
        let final_div = oracle::check_all(&small, case_seed);
        match write_regression(
            &corpus_dir.join("regressions"),
            name,
            case_seed,
            &small,
            &final_div,
        ) {
            Ok(path) => eprintln!(
                "  minimized {} -> {} gates, committed {}",
                nl.gate_count(),
                small.gate_count(),
                path.display()
            ),
            Err(e) => eprintln!("  minimized but could not write fixture: {e}"),
        }
    }
    println!(
        "bibs-fuzz: {} case(s), {} divergence(s)",
        queue.len(),
        failures
    );
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn regressions(corpus_dir: &Path) -> ExitCode {
    let dir = corpus_dir.join("regressions");
    let fixtures = match load_corpus(&dir) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            println!("bibs-fuzz: no regression fixtures at {}", dir.display());
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("error: cannot load regressions: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failures = 0usize;
    for (path, nl) in &fixtures {
        let seed = std::fs::read_to_string(path)
            .map(|t| fixture_seed(&t))
            .unwrap_or(0);
        let divergences = oracle::check_all(nl, seed);
        if divergences.is_empty() {
            continue;
        }
        failures += 1;
        eprintln!("FAIL {} (seed {seed}):", path.display());
        for d in &divergences {
            eprintln!("  {d}");
        }
    }
    println!(
        "bibs-fuzz: {} fixture(s), {} still diverging",
        fixtures.len(),
        failures
    );
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
