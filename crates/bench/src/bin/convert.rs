//! Converts circuits between the supported on-disk formats.
//!
//! Usage: `convert INPUT OUTPUT`
//!
//! `INPUT` is a circuit file (`.ckt`, `.bench`, `.v`) or a built-in
//! datapath spec `NAME[@WIDTH]` (`c5a2m`, `c3a2m`, `c4a4m`; default
//! width 8; a zero or non-numeric width is a usage error, exit 2).
//! `OUTPUT` is a file path whose extension selects the target format, or
//! `-:EXT` to print that format on stdout:
//!
//! * `.ckt` — canonical RTL text (only when the input has an RTL view:
//!   a `.ckt` file, a `.bench` with an `# rtl:` sidecar, or a built-in);
//! * `.bench` — ISCAS-style gate-level netlist; when the input has an
//!   RTL view the sidecar is embedded, so the file converts back to
//!   `.ckt` losslessly and `table2 --circuit` accepts it;
//! * `.v` — structural Verilog.
//!
//! Conversions are deterministic: converting the same input twice gives
//! byte-identical output, and `.bench` output is a print→parse→print
//! fixpoint (CI diffs this for c5a2m).

use bibs_datapath::filters::try_scaled;
use bibs_datapath::front::{self, LoadedCircuit};
use bibs_netlist::{bench, verilog};

fn usage() -> ! {
    eprintln!("usage: convert (FILE|NAME[@WIDTH]) (OUT.ckt|OUT.bench|OUT.v|-:EXT)");
    std::process::exit(2);
}

/// A one-line usage error: a bad datapath width.
fn usage_error(msg: impl std::fmt::Display) -> ! {
    eprintln!("convert: {msg} (usage: NAME[@WIDTH] with a positive WIDTH)");
    std::process::exit(2);
}

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("convert: {msg}");
    std::process::exit(1);
}

fn load_input(spec: &str) -> LoadedCircuit {
    let path = std::path::Path::new(spec);
    if path.exists() {
        return front::load_path(path).unwrap_or_else(|e| fail(e));
    }
    let (name, width) = spec.split_once('@').unwrap_or((spec, "8"));
    if !["c5a2m", "c3a2m", "c4a4m"].contains(&name) {
        fail(format!(
            "'{spec}' is neither a file nor a built-in (c5a2m, c3a2m, c4a4m)"
        ));
    }
    let Ok(width) = width.parse() else {
        usage_error(format!("bad width in '{spec}'"));
    };
    let circuit = try_scaled(name, width).unwrap_or_else(|e| usage_error(e));
    let netlist = bibs_datapath::elab::elaborate_whole(&circuit)
        .unwrap_or_else(|e| fail(e))
        .netlist;
    LoadedCircuit::Rtl { circuit, netlist }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [input, output] = args.as_slice() else {
        usage()
    };
    let loaded = load_input(input);
    let (ext, dest) = match output.strip_prefix("-:") {
        Some(ext) => (ext.to_string(), None),
        None => {
            let path = std::path::PathBuf::from(output);
            let ext = path
                .extension()
                .and_then(|e| e.to_str())
                .unwrap_or_else(|| fail(format!("'{output}' has no format extension")))
                .to_ascii_lowercase();
            (ext, Some(path))
        }
    };
    let text = match ext.as_str() {
        "ckt" => match loaded.circuit() {
            Some(c) => bibs_rtl::fmt::to_text(c),
            None => fail(
                "input is a gate-level netlist with no register-transfer view; \
                 .ckt output needs RTL (a .ckt input, a .bench with an '# rtl:' \
                 sidecar, or a built-in name)",
            ),
        },
        "bench" => match loaded.circuit() {
            Some(c) => front::bench_with_rtl(c).unwrap_or_else(|e| fail(e)),
            None => bench::to_text(loaded.netlist()),
        },
        "v" => verilog::to_verilog(loaded.netlist()),
        other => fail(format!("unknown output format '.{other}'")),
    };
    match dest {
        Some(path) => std::fs::write(&path, text)
            .unwrap_or_else(|e| fail(format!("cannot write {}: {e}", path.display()))),
        None => print!("{text}"),
    }
}
