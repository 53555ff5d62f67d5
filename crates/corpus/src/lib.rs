//! Synthetic circuit corpus and differential-fuzzing harness for the
//! BIBS engines.
//!
//! Three pieces:
//!
//! * [`gen`] — seeded, parameterized circuit families (adders and
//!   multipliers up to 64 bits, the paper's filter datapaths, deep DFF
//!   pipelines, multi-kernel register chains, random gate DAGs) with
//!   [`gen::SizeReport`] records for scaling curves;
//! * [`oracle`] — the seven differential oracles every corpus circuit is
//!   pushed through (compiled vs reference evaluation, one-thread vs
//!   sharded reports, static untestability vs exhaustive ground truth,
//!   pattern sources across thread counts, wide vs 64-lane reports,
//!   PODEM verdicts vs exhaustive ground truth, runs that retire
//!   PODEM-proved faults vs plain runs);
//! * [`minimize`] — a greedy structural shrinker that reduces a
//!   diverging circuit to a local-minimum witness before it is committed
//!   as a regression fixture.
//!
//! The persistent corpus lives in `corpus/` at the repository root as
//! plain `.bench` files ([`bibs_netlist::bench`]); confirmed failures go
//! to `corpus/regressions/` with a comment header recording the oracle,
//! the seed and the generating family. The `bibs-fuzz` binary drives
//! everything (`--smoke` in CI, `--regressions` as the permanent gate).

#![warn(missing_docs)]

pub mod gen;
pub mod minimize;
pub mod oracle;

use bibs_netlist::{bench, Netlist};
use oracle::Divergence;
use std::io;
use std::path::{Path, PathBuf};

/// Loads every `*.bench` file under `dir`, sorted by file name for
/// deterministic iteration. Files that fail to parse are reported as
/// errors, not skipped — a corrupt corpus must fail loudly.
///
/// # Errors
///
/// I/O errors reading the directory, or [`io::ErrorKind::InvalidData`]
/// wrapping the parse error for an unparseable file.
pub fn load_corpus(dir: &Path) -> io::Result<Vec<(PathBuf, Netlist)>> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_file() && p.extension().and_then(|e| e.to_str()) == Some("bench"))
        .collect();
    paths.sort();
    let mut out = Vec::with_capacity(paths.len());
    for path in paths {
        let text = std::fs::read_to_string(&path)?;
        let nl = bench::from_text(&text).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: {e}", path.display()),
            )
        })?;
        out.push((path, nl));
    }
    Ok(out)
}

/// Parses the `# seed: <n>` header of a regression fixture (written by
/// [`write_regression`]); 0 when absent.
pub fn fixture_seed(text: &str) -> u64 {
    text.lines()
        .filter_map(|l| l.trim().strip_prefix("# seed:"))
        .find_map(|v| v.trim().parse().ok())
        .unwrap_or(0)
}

/// Commits a minimized diverging circuit to `dir` as a regression
/// fixture: a comment header (source family, seed, the divergences it
/// reproduced) followed by the `.bench` text. Returns the path written.
///
/// # Errors
///
/// I/O errors creating the directory or writing the file.
pub fn write_regression(
    dir: &Path,
    source: &str,
    seed: u64,
    netlist: &Netlist,
    divergences: &[Divergence],
) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let mut text = String::new();
    text.push_str(&format!("# source: {source}\n"));
    text.push_str(&format!("# seed: {seed}\n"));
    for d in divergences {
        text.push_str(&format!("# divergence: {d}\n"));
    }
    text.push_str(&bench::to_text(netlist));
    // Deterministic, collision-free name: source plus a content hash.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    let path = dir.join(format!("{source}_{h:016x}.bench"));
    std::fs::write(&path, text)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Family;
    use crate::oracle::{Divergence, Oracle};

    #[test]
    fn corpus_store_round_trips() {
        let dir = std::env::temp_dir().join(format!("bibs_corpus_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let nl = Family::Adder { width: 3 }.build();
        std::fs::write(dir.join("a.bench"), bench::to_text(&nl)).unwrap();
        let loaded = load_corpus(&dir).unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0].1.gate_count(), nl.gate_count());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn regression_fixture_headers_survive_parsing() {
        let dir = std::env::temp_dir().join(format!("bibs_regr_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let nl = Family::RandomDag {
            seed: 3,
            inputs: 3,
            ops: 5,
        }
        .build();
        let d = Divergence {
            oracle: Oracle::Parallel,
            detail: "synthetic".into(),
        };
        let path = write_regression(&dir, "dag_3", 99, &nl, &[d]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(fixture_seed(&text), 99);
        // The comment header must not confuse the parser.
        let reparsed = bench::from_text(&text).unwrap();
        assert_eq!(reparsed.gate_count(), nl.gate_count());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_corpus_files_fail_loudly() {
        let dir = std::env::temp_dir().join(format!("bibs_bad_corpus_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("bad.bench"), "o = FROB(a)\n").unwrap();
        assert!(load_corpus(&dir).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
