//! ISCAS-85/89-style `.bench` reader and writer.
//!
//! The de-facto interchange format of the classic benchmark suites
//! (c432 … c7552, s27 … s38584) that every academic BIST tool speaks.
//! One declaration per line:
//!
//! ```text
//! # name: add2
//! INPUT(a)
//! INPUT(b)
//! OUTPUT(s)
//! q = DFF(d)
//! d = XOR(a, b)
//! s = AND(q, a)
//! ```
//!
//! Supported gate functions: `AND`, `NAND`, `OR`, `NOR`, `XOR`, `XNOR`,
//! `NOT`, `BUFF` (alias `BUF`) and `DFF`. `DFF` maps directly onto the
//! netlist's [`Dff`] flip-flops, so [`Netlist::sequential_depth`] and
//! [`Netlist::combinational_equivalent`] work on parsed `.bench` input
//! exactly as on elaborated datapaths. Two zero-argument vendor
//! extensions, `TIE0()`/`TIE1()`, carry constant nets (classic ISCAS
//! files have none, but elaborated datapaths do).
//!
//! Comments run from `#` to end of line. A full-line comment of the form
//! `# name: <n>` names the netlist (the writer always emits one; unnamed
//! input defaults to `"bench"`). [`to_text`] → [`from_text`] →
//! [`to_text`] is a byte-for-byte fixpoint, the property the round-trip
//! suite and the corpus store rely on.

use crate::netlist::{Dff, DffId, Gate, GateId, GateKind, Net, NetDriver, NetId, Netlist};
use crate::NetlistError;
use std::collections::HashMap;
use std::fmt;

/// Errors from [`from_text`]. Every variant that stems from a concrete
/// source line carries its 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// A line matched no `.bench` production.
    Syntax {
        /// 1-based source line.
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// The function on the right-hand side of `=` is not one this reader
    /// knows (`AND`, `NAND`, `OR`, `NOR`, `XOR`, `XNOR`, `NOT`, `BUFF`,
    /// `DFF`, `TIE0`, `TIE1`).
    UnknownGate {
        /// 1-based source line.
        line: usize,
        /// The unrecognized function name.
        name: String,
    },
    /// A gate was applied to the wrong number of signals (`NOT`/`BUFF`/
    /// `DFF` take exactly one, `TIE0`/`TIE1` none, everything else two or
    /// more).
    BadArity {
        /// 1-based source line.
        line: usize,
        /// The gate function name as written.
        gate: String,
        /// How many arguments it was given.
        arity: usize,
    },
    /// A signal was defined twice (two gate lines, a gate line and an
    /// `INPUT` declaration, …). Last-writer-wins would silently hide the
    /// conflict from simulation, so it is rejected instead.
    DoubleDrive {
        /// 1-based source line of the second definition.
        line: usize,
        /// The multiply-defined signal.
        signal: String,
    },
    /// A signal was referenced (as a gate operand or an `OUTPUT`) but
    /// never defined by an `INPUT` or gate line.
    Undefined {
        /// The undefined signal.
        signal: String,
    },
    /// The parsed structure failed netlist validation (e.g. a
    /// combinational cycle).
    Invalid(NetlistError),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Syntax { line, message } => {
                write!(f, "line {line}: syntax error: {message}")
            }
            ParseError::UnknownGate { line, name } => {
                write!(f, "line {line}: unknown gate function {name:?}")
            }
            ParseError::BadArity { line, gate, arity } => {
                write!(f, "line {line}: {gate} applied to {arity} signal(s)")
            }
            ParseError::DoubleDrive { line, signal } => {
                write!(
                    f,
                    "line {line}: signal {signal:?} is defined more than once"
                )
            }
            ParseError::Undefined { signal } => {
                write!(f, "signal {signal:?} is referenced but never defined")
            }
            ParseError::Invalid(e) => write!(f, "invalid netlist: {e}"),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<NetlistError> for ParseError {
    fn from(e: NetlistError) -> Self {
        ParseError::Invalid(e)
    }
}

fn gate_kind(name: &str) -> Option<GateKind> {
    Some(match name.to_ascii_uppercase().as_str() {
        "AND" => GateKind::And,
        "NAND" => GateKind::Nand,
        "OR" => GateKind::Or,
        "NOR" => GateKind::Nor,
        "XOR" => GateKind::Xor,
        "XNOR" => GateKind::Xnor,
        "NOT" | "INV" => GateKind::Not,
        "BUFF" | "BUF" => GateKind::Buf,
        _ => return None,
    })
}

fn kind_name(kind: GateKind) -> &'static str {
    match kind {
        GateKind::And => "AND",
        GateKind::Or => "OR",
        GateKind::Nand => "NAND",
        GateKind::Nor => "NOR",
        GateKind::Xor => "XOR",
        GateKind::Xnor => "XNOR",
        GateKind::Not => "NOT",
        GateKind::Buf => "BUFF",
    }
}

/// A `.bench` signal name: no whitespace and none of the four
/// metacharacters the grammar uses.
fn check_signal(line: usize, s: &str) -> Result<(), ParseError> {
    let bad = s.is_empty()
        || s.chars()
            .any(|c| c.is_whitespace() || matches!(c, '(' | ')' | ',' | '='));
    if bad {
        return Err(ParseError::Syntax {
            line,
            message: format!("invalid signal name {s:?}"),
        });
    }
    Ok(())
}

/// Rewrites an arbitrary net name into the `.bench` signal alphabet
/// (`[A-Za-z0-9_.\[\]]` minus the grammar metacharacters; everything else
/// becomes `_`). Idempotent, which keeps reprints stable.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '[' || c == ']' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Assigns every net a unique printable `.bench` signal name: the
/// sanitized net name when present, `n<id>` otherwise, with deterministic
/// `_`-suffixing on collisions.
fn signal_names(netlist: &Netlist) -> Vec<String> {
    let mut used: HashMap<String, ()> = HashMap::new();
    let mut names = Vec::with_capacity(netlist.net_count());
    for net in netlist.net_ids() {
        let mut candidate = match netlist.net_name(net) {
            Some(n) if !sanitize(n).is_empty() => sanitize(n),
            _ => format!("n{}", net.index()),
        };
        while used.contains_key(&candidate) {
            candidate.push('_');
        }
        used.insert(candidate.clone(), ());
        names.push(candidate);
    }
    names
}

/// Serializes a netlist to `.bench` text.
///
/// Declaration order is `# name:` header, `INPUT`s in primary-input
/// order, `OUTPUT`s in primary-output order, constants (sorted by signal
/// name), flip-flops in [`Netlist::dffs`] order, gates in
/// [`Netlist::gates`] order — all derived from names, never raw net ids,
/// so a parse → print cycle reproduces the text byte for byte.
pub fn to_text(netlist: &Netlist) -> String {
    let names = signal_names(netlist);
    let mut out = String::new();
    out.push_str(&format!("# name: {}\n", netlist.name()));
    out.push_str(&format!(
        "# {} inputs, {} outputs, {} gates, {} flip-flops\n",
        netlist.input_width(),
        netlist.output_width(),
        netlist.gate_count(),
        netlist.dff_count()
    ));
    for &pi in netlist.inputs() {
        out.push_str(&format!("INPUT({})\n", names[pi.index()]));
    }
    for &po in netlist.outputs() {
        out.push_str(&format!("OUTPUT({})\n", names[po.index()]));
    }
    let mut consts: Vec<(String, bool)> = netlist
        .net_ids()
        .filter_map(|n| match netlist.driver(n) {
            NetDriver::Const(v) => Some((names[n.index()].clone(), v)),
            _ => None,
        })
        .collect();
    consts.sort();
    for (name, v) in consts {
        out.push_str(&format!("{name} = TIE{}()\n", v as u8));
    }
    for ff in netlist.dffs() {
        out.push_str(&format!(
            "{} = DFF({})\n",
            names[ff.q.index()],
            names[ff.d.index()]
        ));
    }
    for gid in netlist.gate_ids() {
        let g = netlist.gate(gid);
        let ins: Vec<&str> = g.inputs.iter().map(|i| names[i.index()].as_str()).collect();
        out.push_str(&format!(
            "{} = {}({})\n",
            names[g.output.index()],
            kind_name(g.kind),
            ins.join(", ")
        ));
    }
    out
}

/// `INPUT(x)` / `OUTPUT(x)`-style keyword matcher; returns the
/// parenthesized payload if `s` is `kw(...)` (keyword case-insensitive).
fn keyword_payload<'a>(s: &'a str, kw: &str) -> Option<&'a str> {
    let rest = s.trim();
    // `get` rather than slicing: the line may hold a multi-byte character
    // where the keyword would end.
    if !rest.get(..kw.len())?.eq_ignore_ascii_case(kw) {
        return None;
    }
    let rest = rest[kw.len()..].trim_start();
    let inner = rest.strip_prefix('(')?.strip_suffix(')')?;
    Some(inner.trim())
}

/// Parses `.bench` text into a validated [`Netlist`].
///
/// # Errors
///
/// Returns [`ParseError`] on malformed lines, unknown gate functions,
/// arity violations, doubly-defined or undefined signals, and netlist
/// validation failures (combinational cycles). Never panics on malformed
/// input.
pub fn from_text(text: &str) -> Result<Netlist, ParseError> {
    let mut name: Option<String> = None;
    let mut nets: Vec<Net> = Vec::new();
    let mut signals: HashMap<String, NetId> = HashMap::new();
    let mut gates: Vec<Gate> = Vec::new();
    let mut dffs: Vec<Dff> = Vec::new();
    let mut inputs: Vec<NetId> = Vec::new();
    let mut outputs: Vec<NetId> = Vec::new();

    let intern = |signals: &mut HashMap<String, NetId>, nets: &mut Vec<Net>, sig: &str| -> NetId {
        if let Some(&id) = signals.get(sig) {
            return id;
        }
        let id = NetId::from_index(nets.len());
        nets.push(Net {
            name: Some(sig.to_string()),
            driver: NetDriver::Floating,
        });
        signals.insert(sig.to_string(), id);
        id
    };

    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let stmt = raw.split('#').next().unwrap_or("").trim();
        if stmt.is_empty() {
            // Full-line comment: check for the name directive.
            if let Some(comment) = raw.trim_start().strip_prefix('#') {
                if let Some(n) = comment.trim().strip_prefix("name:") {
                    if name.is_none() && !n.trim().is_empty() {
                        name = Some(n.trim().to_string());
                    }
                }
            }
            continue;
        }
        if let Some(sig) = keyword_payload(stmt, "INPUT") {
            check_signal(lineno, sig)?;
            let id = intern(&mut signals, &mut nets, sig);
            if !matches!(nets[id.index()].driver, NetDriver::Floating) {
                return Err(ParseError::DoubleDrive {
                    line: lineno,
                    signal: sig.to_string(),
                });
            }
            nets[id.index()].driver = NetDriver::Input(inputs.len());
            inputs.push(id);
            continue;
        }
        if let Some(sig) = keyword_payload(stmt, "OUTPUT") {
            check_signal(lineno, sig)?;
            let id = intern(&mut signals, &mut nets, sig);
            outputs.push(id);
            continue;
        }
        let Some((lhs, rhs)) = stmt.split_once('=') else {
            return Err(ParseError::Syntax {
                line: lineno,
                message: format!(
                    "expected INPUT(..), OUTPUT(..) or 'sig = GATE(..)', found {stmt:?}"
                ),
            });
        };
        let lhs = lhs.trim();
        check_signal(lineno, lhs)?;
        let rhs = rhs.trim();
        let (func, args_str) = rhs
            .split_once('(')
            .and_then(|(f, rest)| rest.strip_suffix(')').map(|a| (f.trim(), a)))
            .ok_or_else(|| ParseError::Syntax {
                line: lineno,
                message: format!("expected 'GATE(args)' after '=', found {rhs:?}"),
            })?;
        let args: Vec<&str> = if args_str.trim().is_empty() {
            Vec::new()
        } else {
            args_str.split(',').map(str::trim).collect()
        };
        for a in &args {
            check_signal(lineno, a)?;
        }
        let out = intern(&mut signals, &mut nets, lhs);
        if !matches!(nets[out.index()].driver, NetDriver::Floating) {
            return Err(ParseError::DoubleDrive {
                line: lineno,
                signal: lhs.to_string(),
            });
        }
        let upper = func.to_ascii_uppercase();
        match upper.as_str() {
            "DFF" => {
                if args.len() != 1 {
                    return Err(ParseError::BadArity {
                        line: lineno,
                        gate: func.to_string(),
                        arity: args.len(),
                    });
                }
                let d = intern(&mut signals, &mut nets, args[0]);
                let id = DffId::from_index(dffs.len());
                dffs.push(Dff { d, q: out });
                nets[out.index()].driver = NetDriver::Dff(id);
            }
            "TIE0" | "TIE1" => {
                if !args.is_empty() {
                    return Err(ParseError::BadArity {
                        line: lineno,
                        gate: func.to_string(),
                        arity: args.len(),
                    });
                }
                nets[out.index()].driver = NetDriver::Const(upper == "TIE1");
            }
            _ => {
                let kind = gate_kind(func).ok_or_else(|| ParseError::UnknownGate {
                    line: lineno,
                    name: func.to_string(),
                })?;
                let bad = if kind.is_unary() {
                    args.len() != 1
                } else {
                    args.len() < 2
                };
                if bad {
                    return Err(ParseError::BadArity {
                        line: lineno,
                        gate: func.to_string(),
                        arity: args.len(),
                    });
                }
                let ins: Vec<NetId> = args
                    .iter()
                    .map(|a| intern(&mut signals, &mut nets, a))
                    .collect();
                let gid = GateId::from_index(gates.len());
                gates.push(Gate {
                    kind,
                    inputs: ins,
                    output: out,
                });
                nets[out.index()].driver = NetDriver::Gate(gid);
            }
        }
    }

    // Anything still floating was referenced but never defined — report it
    // by name rather than as a raw validation error.
    for net in &nets {
        if matches!(net.driver, NetDriver::Floating) {
            return Err(ParseError::Undefined {
                signal: net.name.clone().unwrap_or_default(),
            });
        }
    }
    Ok(Netlist::from_parts(
        name.unwrap_or_else(|| "bench".to_string()),
        nets,
        gates,
        dffs,
        inputs,
        outputs,
    )?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;

    fn sample() -> Netlist {
        let mut b = NetlistBuilder::new("mix");
        let a = b.input_word("a", 3);
        let c = b.input_word("b", 3);
        let (s, co) = b.ripple_carry_adder(&a, &c, None);
        let reg = b.register(&s);
        b.output_word("s", &reg);
        b.output("co", co);
        b.finish().unwrap()
    }

    #[test]
    fn print_parse_print_is_a_fixpoint() {
        let nl = sample();
        let text = to_text(&nl);
        let parsed = from_text(&text).unwrap();
        assert_eq!(parsed.name(), nl.name());
        assert_eq!(parsed.gate_count(), nl.gate_count());
        assert_eq!(parsed.dff_count(), nl.dff_count());
        assert_eq!(parsed.input_width(), nl.input_width());
        assert_eq!(parsed.output_width(), nl.output_width());
        assert_eq!(parsed.sequential_depth(), nl.sequential_depth());
        assert_eq!(to_text(&parsed), text);
    }

    #[test]
    fn classic_iscas_shape_parses() {
        let text = "\
# c17-ish
INPUT(G1)
INPUT(G2)
INPUT(G3)
OUTPUT(G22)
G10 = NAND(G1, G3)
G11 = NAND(G3, G2)
G22 = NAND(G10, G11)
";
        let nl = from_text(text).unwrap();
        assert_eq!(nl.name(), "bench");
        assert_eq!(nl.gate_count(), 3);
        assert_eq!(nl.input_width(), 3);
        assert_eq!(nl.output_width(), 1);
    }

    #[test]
    fn dff_maps_to_sequential_depth() {
        let text = "\
# name: pipe
INPUT(a)
OUTPUT(q2)
q1 = DFF(a)
q2 = DFF(nq)
nq = NOT(q1)
";
        let nl = from_text(text).unwrap();
        assert_eq!(nl.dff_count(), 2);
        assert_eq!(nl.sequential_depth(), 2);
        let comb = nl.combinational_equivalent();
        assert_eq!(comb.dff_count(), 0);
    }

    #[test]
    fn ties_round_trip() {
        let text = "# name: t\nINPUT(a)\nOUTPUT(o)\nz = TIE0()\no = AND(a, z)\n";
        let nl = from_text(text).unwrap();
        assert!(nl
            .net_ids()
            .any(|n| matches!(nl.driver(n), NetDriver::Const(false))));
        let reprinted = to_text(&nl);
        let nl2 = from_text(&reprinted).unwrap();
        assert_eq!(to_text(&nl2), reprinted);
    }

    #[test]
    fn error_matrix() {
        // Unknown gate.
        assert!(matches!(
            from_text("INPUT(a)\no = FROB(a, a)\nOUTPUT(o)\n"),
            Err(ParseError::UnknownGate { line: 2, .. })
        ));
        // Bad arity: NOT with two inputs.
        assert!(matches!(
            from_text("INPUT(a)\no = NOT(a, a)\nOUTPUT(o)\n"),
            Err(ParseError::BadArity {
                line: 2,
                arity: 2,
                ..
            })
        ));
        // Bad arity: AND with one input.
        assert!(matches!(
            from_text("INPUT(a)\no = AND(a)\nOUTPUT(o)\n"),
            Err(ParseError::BadArity {
                line: 2,
                arity: 1,
                ..
            })
        ));
        // Double definition.
        assert!(matches!(
            from_text("INPUT(a)\nINPUT(b)\no = AND(a, b)\no = OR(a, b)\nOUTPUT(o)\n"),
            Err(ParseError::DoubleDrive { line: 4, .. })
        ));
        // Undefined signal.
        assert!(matches!(
            from_text("INPUT(a)\no = AND(a, ghost)\nOUTPUT(o)\n"),
            Err(ParseError::Undefined { signal }) if signal == "ghost"
        ));
        // Truncated / malformed line.
        assert!(matches!(
            from_text("INPUT(a)\no = AND(a, b\n"),
            Err(ParseError::Syntax { line: 2, .. })
        ));
        // Combinational cycle -> validation error, not a panic.
        assert!(matches!(
            from_text("INPUT(a)\nx = AND(a, y)\ny = AND(a, x)\nOUTPUT(y)\n"),
            Err(ParseError::Invalid(NetlistError::CombinationalCycle { .. }))
        ));
    }

    #[test]
    fn non_ascii_keyword_is_a_syntax_error_not_a_panic() {
        // '€' is three bytes, so byte 5 — where "INPUT" would end — falls
        // inside it.
        assert!(matches!(
            from_text("INPUT(a)\nINP€T(b)\nOUTPUT(a)\n"),
            Err(ParseError::Syntax { line: 2, .. })
        ));
        assert!(matches!(
            from_text("INPUT(a)\nOUTP€T(a)\n"),
            Err(ParseError::Syntax { line: 2, .. })
        ));
    }

    #[test]
    fn name_collisions_resolve_deterministically() {
        // Two nets whose sanitized names collide.
        let mut b = NetlistBuilder::new("clash");
        let a = b.input("x y");
        let c = b.input("x+y");
        let o = b.and2(a, c);
        b.output("o", o);
        let nl = b.finish().unwrap();
        let text = to_text(&nl);
        let parsed = from_text(&text).unwrap();
        assert_eq!(parsed.input_width(), 2);
        assert_eq!(to_text(&parsed), text);
    }
}
