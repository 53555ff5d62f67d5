//! Round-trip test for the `convert` binary: `.ckt` (builtin spec) →
//! `.bench` → `.v` → `.bench`, checking that the final netlist computes
//! the same output words as the first over a multi-frame 64-lane
//! simulation — format conversions must preserve evaluation, not just
//! parse.

use bibs_netlist::{bench, EvalProgram, Netlist};
use std::path::PathBuf;
use std::process::Command;

fn convert(input: &str, output: &str) {
    let status = Command::new(env!("CARGO_BIN_EXE_convert"))
        .args([input, output])
        .status()
        .expect("convert runs");
    assert!(status.success(), "convert {input} {output} failed");
}

/// Simulates `frames` frames of 64-lane evaluation from the zero power-up
/// state with a fixed deterministic input schedule; returns the per-frame
/// output words.
fn eval_words(nl: &Netlist, frames: usize) -> Vec<Vec<u64>> {
    let program = EvalProgram::compile(nl).expect("round-trip netlist compiles");
    let mut values = program.new_values();
    let mut capture = Vec::new();
    let mut out = Vec::new();
    let mut seed = 0x0123_4567_89AB_CDEFu64;
    for _ in 0..frames {
        let inputs: Vec<u64> = (0..nl.input_width())
            .map(|_| {
                seed = seed
                    .wrapping_mul(0x2545_F491_4F6C_DD1D)
                    .wrapping_add(0x9E37_79B9_7F4A_7C15);
                seed
            })
            .collect();
        program.eval_good(&mut values, &inputs);
        out.push(
            program
                .output_slots()
                .iter()
                .map(|&s| values[s as usize])
                .collect(),
        );
        program.clock(&mut values, &mut capture);
    }
    out
}

#[test]
fn ckt_to_bench_to_verilog_to_bench_preserves_eval_words() {
    let dir = std::env::temp_dir().join(format!("bibs_convert_rt_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let p = |name: &str| -> PathBuf { dir.join(name) };

    convert("c3a2m@3", p("a.bench").to_str().unwrap());
    convert(p("a.bench").to_str().unwrap(), p("b.v").to_str().unwrap());
    convert(p("b.v").to_str().unwrap(), p("c.bench").to_str().unwrap());

    let first = bench::from_text(&std::fs::read_to_string(p("a.bench")).unwrap()).unwrap();
    let last = bench::from_text(&std::fs::read_to_string(p("c.bench")).unwrap()).unwrap();
    assert_eq!(first.input_width(), last.input_width());
    assert_eq!(first.output_width(), last.output_width());
    assert_eq!(first.dff_count(), last.dff_count());
    assert_eq!(
        eval_words(&first, 8),
        eval_words(&last, 8),
        "the .bench -> .v -> .bench chain changed evaluation"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn bench_conversion_is_a_print_parse_fixpoint() {
    let dir = std::env::temp_dir().join(format!("bibs_convert_fix_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let a = dir.join("a.bench");
    let b = dir.join("b.bench");
    convert("c5a2m@2", a.to_str().unwrap());
    convert(a.to_str().unwrap(), b.to_str().unwrap());
    // a carries an RTL sidecar and so does b (recovered through it), so
    // the files must be byte-identical.
    assert_eq!(
        std::fs::read_to_string(&a).unwrap(),
        std::fs::read_to_string(&b).unwrap()
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
