//! The telemetry contract of the observability spine: only wall clocks
//! may vary from run to run, and `Recorder::to_json(false)` strips them —
//! so a wall-stripped export is the run's deterministic content.

use bibs_bench::{table2_column_traced, Table2Options, Tdm};
use bibs_datapath::filters::scaled;
use bibs_obs::Recorder;

#[test]
fn wall_clocks_are_the_only_nondeterministic_content() {
    // With wall clocks included the export still parses and contains the
    // same counters; stripping wall_ns must reproduce the wall-free form.
    let circuit = scaled("c5a2m", 3);
    let mut rec = Recorder::new("determinism");
    let _ = table2_column_traced(&circuit, Tdm::Bibs, &Table2Options::default(), &mut rec);
    rec.finish();
    let with_wall = rec.to_json(true);
    let without_wall = rec.to_json(false);
    assert!(without_wall.starts_with("{\"schema\":\"bibs-telemetry/1\""));
    // The run must have recorded real work, not an empty tree.
    assert!(without_wall.contains("\"fault_evals\":"), "{without_wall}");
    let stripped: String = {
        // Remove `"wall_ns":<digits>,` the same way the ci.sh gate does.
        let mut out = String::new();
        let mut rest = with_wall.as_str();
        while let Some(i) = rest.find("\"wall_ns\":") {
            out.push_str(&rest[..i]);
            let tail = &rest[i..];
            let end = tail.find(',').expect("wall_ns is never the last member") + 1;
            rest = &tail[end..];
        }
        out.push_str(rest);
        out
    };
    assert_eq!(stripped, without_wall);
}
