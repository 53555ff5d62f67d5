//! The correctness oracle every eval is checked against after its timer
//! stops.

use bibs_bench::Table2Column;
use bibs_obs::json;

/// Table 2 rows 1–4 (kernels, sessions, BILBO registers, maximal delay)
/// per (circuit, TDM) column, from `golden.json`.
#[derive(Debug)]
pub struct Golden(Vec<(String, String, [u64; 4])>);

impl Golden {
    /// Parses a `golden.json` document.
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed part.
    pub fn parse(text: &str) -> Result<Golden, String> {
        let doc = json::parse(text).map_err(|e| format!("golden.json: {e}"))?;
        let columns = doc
            .get("columns")
            .and_then(json::Value::as_array)
            .ok_or("golden.json: no \"columns\" array")?;
        columns
            .iter()
            .map(|c| {
                let text = |key: &str| c.get(key).and_then(json::Value::as_str);
                let row = |key: &str| c.get(key).and_then(json::Value::as_u64);
                match (
                    text("circuit"),
                    text("tdm"),
                    row("kernels"),
                    row("sessions"),
                    row("bilbo_registers"),
                    row("max_delay"),
                ) {
                    (Some(circuit), Some(tdm), Some(k), Some(s), Some(b), Some(d)) => {
                        Ok((circuit.to_string(), tdm.to_string(), [k, s, b, d]))
                    }
                    _ => Err(format!("golden.json: malformed column {c:?}")),
                }
            })
            .collect::<Result<_, _>>()
            .map(Golden)
    }

    /// The rows committed beside this crate.
    pub fn builtin() -> Golden {
        Golden::parse(include_str!("../golden.json")).expect("the committed golden.json parses")
    }

    fn rows(&self, circuit: &str, tdm: &str) -> Option<[u64; 4]> {
        self.0
            .iter()
            .find(|(c, t, _)| c == circuit && t == tdm)
            .map(|(_, _, rows)| *rows)
    }
}

/// Checks one column: rows 1–4 against `golden`, per-kernel fault
/// accounting, detection indices against the pattern cap, and rows 5–8
/// against the per-kernel indices they summarize.
///
/// # Errors
///
/// Returns the first violated condition.
pub fn check_column(col: &Table2Column, golden: &Golden, max_patterns: u64) -> Result<(), String> {
    let name = format!("{} {}", col.circuit, col.tdm);
    let want = golden
        .rows(&col.circuit, &col.tdm.to_string())
        .ok_or_else(|| format!("{name}: no golden rows"))?;
    let got = [
        col.kernel_count as u64,
        col.session_count as u64,
        col.bilbo_count as u64,
        u64::from(col.max_delay),
    ];
    if got != want {
        return Err(format!("{name}: rows 1-4 are {got:?}, golden {want:?}"));
    }
    if col.kernel_stats.len() != col.kernel_count {
        return Err(format!(
            "{name}: {} kernel records for {} kernels",
            col.kernel_stats.len(),
            col.kernel_count
        ));
    }
    for (k, s) in col.kernel_stats.iter().enumerate() {
        if s.redundant + s.aborted + s.detected + s.unreached != s.faults {
            return Err(format!(
                "{name} kernel {k}: redundant {} + aborted {} + detected {} + unreached {} != faults {}",
                s.redundant, s.aborted, s.detected, s.unreached, s.faults
            ));
        }
        let idx = &s.detection_indices;
        if idx.len() != s.detected {
            return Err(format!(
                "{name} kernel {k}: {} detection indices for {} detected faults",
                idx.len(),
                s.detected
            ));
        }
        if !idx.windows(2).all(|w| w[0] <= w[1]) {
            return Err(format!(
                "{name} kernel {k}: detection indices are not sorted"
            ));
        }
        if idx.last().is_some_and(|&i| i >= max_patterns) {
            return Err(format!(
                "{name} kernel {k}: detection index past the {max_patterns}-pattern cap"
            ));
        }
    }
    let patterns = |fraction: f64| -> u64 {
        col.kernel_stats
            .iter()
            .map(|s| s.patterns_for(fraction))
            .sum()
    };
    if (col.patterns_995, col.patterns_100) != (patterns(0.995), patterns(1.0)) {
        return Err(format!(
            "{name}: rows 5 and 7 ({}, {}) disagree with the kernels' detection indices ({}, {})",
            col.patterns_995,
            col.patterns_100,
            patterns(0.995),
            patterns(1.0)
        ));
    }
    if col.patterns_995 > col.patterns_100 || col.time_995 > col.time_100 {
        return Err(format!("{name}: the 99.5% rows exceed the 100% rows"));
    }
    if col.time_995 > col.patterns_995 || col.time_100 > col.patterns_100 {
        return Err(format!(
            "{name}: a test time exceeds its sequential pattern count"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload;
    use bibs_bench::{table2_column, Tdm};
    use bibs_datapath::filters::scaled;

    #[test]
    fn fires_on_one_corrupted_detection_index() {
        let golden = Golden::builtin();
        let w = workload::by_name("topoff").expect("topoff exists");
        let opts = w.options(1, 0);
        let col = table2_column(&scaled("c3a2m", 8), Tdm::Ka85, &opts);
        check_column(&col, &golden, opts.max_patterns).expect("an honest column passes");

        let mut last = col.clone();
        let stats = last
            .kernel_stats
            .iter_mut()
            .find(|s| !s.detection_indices.is_empty())
            .expect("some kernel detects a fault");
        *stats.detection_indices.last_mut().expect("non-empty") += 1;
        assert!(check_column(&last, &golden, opts.max_patterns).is_err());

        let mut first = col.clone();
        let idx = &mut first.kernel_stats[0].detection_indices;
        idx[0] = opts.max_patterns;
        assert!(check_column(&first, &golden, opts.max_patterns).is_err());
    }

    #[test]
    fn fires_on_wrong_structural_rows() {
        let golden = Golden::builtin();
        let w = workload::by_name("topoff").expect("topoff exists");
        let opts = w.options(1, 0);
        let mut col = table2_column(&scaled("c5a2m", 8), Tdm::Bibs, &opts);
        col.bilbo_count += 1;
        let err = check_column(&col, &golden, opts.max_patterns).unwrap_err();
        assert!(err.contains("rows 1-4"), "{err}");
    }
}
