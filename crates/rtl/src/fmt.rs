//! A compact structural text format for circuit graphs.
//!
//! The authors' BITS system "reads in a circuit (in EDIF description) to be
//! made BISTable". This module plays that role with a small hand-written
//! format:
//!
//! ```text
//! circuit fig2 {
//!   input PI;
//!   output PO;
//!   logic C1 add;      # functions: add | sub | mul<K> | opaque
//!   logic C2;
//!   reg R1 width 8 from PI to C1;
//!   reg R2 width 8 from C1 to C2;
//!   wire from C2 to PO;
//! }
//! ```
//!
//! `#` starts a comment running to end of line. [`to_text`] and
//! [`from_text`] round-trip losslessly.

use crate::circuit::{
    Circuit, CircuitBuildError, CircuitBuilder, EdgeKind, LogicFunction, VertexId, VertexKind,
};
use std::fmt;

/// Errors from [`from_text`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// Unexpected token or end of input.
    Syntax {
        /// Human-readable description of what went wrong.
        message: String,
    },
    /// A statement referenced a vertex name that was never declared.
    UnknownVertex(String),
    /// A register was declared with width 0; a register holds at least
    /// one bit.
    ZeroWidthRegister(String),
    /// The parsed structure failed circuit validation.
    Build(CircuitBuildError),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Syntax { message } => write!(f, "syntax error: {message}"),
            ParseError::UnknownVertex(n) => write!(f, "unknown vertex {n:?}"),
            ParseError::ZeroWidthRegister(n) => write!(f, "register {n:?} has width 0"),
            ParseError::Build(e) => write!(f, "invalid circuit: {e}"),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<CircuitBuildError> for ParseError {
    fn from(e: CircuitBuildError) -> Self {
        ParseError::Build(e)
    }
}

fn function_name(f: &LogicFunction) -> String {
    match f {
        LogicFunction::Add => "add".to_string(),
        LogicFunction::Sub => "sub".to_string(),
        LogicFunction::Mul { out_width } => format!("mul{out_width}"),
        LogicFunction::Opaque => "opaque".to_string(),
    }
}

fn parse_function(s: &str) -> Option<LogicFunction> {
    match s {
        "add" => Some(LogicFunction::Add),
        "sub" => Some(LogicFunction::Sub),
        "opaque" => Some(LogicFunction::Opaque),
        _ => s
            .strip_prefix("mul")
            .and_then(|k| k.parse::<u32>().ok())
            .map(|out_width| LogicFunction::Mul { out_width }),
    }
}

/// Serializes a circuit to the text format.
///
/// # Example
///
/// ```
/// use bibs_rtl::CircuitBuilder;
/// use bibs_rtl::fmt::{to_text, from_text};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = CircuitBuilder::new("t");
/// let a = b.input("A");
/// let c = b.logic("C");
/// b.register("R", 4, a, c);
/// let circuit = b.finish()?;
/// let text = to_text(&circuit);
/// let parsed = from_text(&text)?;
/// assert_eq!(parsed.name(), "t");
/// assert_eq!(parsed.edge_count(), 1);
/// # Ok(())
/// # }
/// ```
pub fn to_text(circuit: &Circuit) -> String {
    let mut out = String::new();
    out.push_str(&format!("circuit {} {{\n", circuit.name()));
    for v in circuit.vertex_ids() {
        let vx = circuit.vertex(v);
        match vx.kind {
            VertexKind::Input => out.push_str(&format!("  input {};\n", vx.name)),
            VertexKind::Output => out.push_str(&format!("  output {};\n", vx.name)),
            VertexKind::Fanout => out.push_str(&format!("  fanout {};\n", vx.name)),
            VertexKind::Vacuous => out.push_str(&format!("  vacuous {};\n", vx.name)),
            VertexKind::Logic => {
                if vx.function == LogicFunction::Opaque {
                    out.push_str(&format!("  logic {};\n", vx.name));
                } else {
                    out.push_str(&format!(
                        "  logic {} {};\n",
                        vx.name,
                        function_name(&vx.function)
                    ));
                }
            }
        }
    }
    for e in circuit.edge_ids() {
        let edge = circuit.edge(e);
        let from = &circuit.vertex(edge.from).name;
        let to = &circuit.vertex(edge.to).name;
        match edge.kind {
            EdgeKind::Register { width } => {
                let name = edge.name.as_deref().unwrap_or("_");
                out.push_str(&format!(
                    "  reg {name} width {width} from {from} to {to};\n"
                ));
            }
            EdgeKind::Wire => out.push_str(&format!("  wire from {from} to {to};\n")),
        }
    }
    out.push_str("}\n");
    out
}

/// Parses a circuit from the text format.
///
/// # Errors
///
/// Returns [`ParseError`] on malformed syntax, references to undeclared
/// vertices, or structural validation failures (e.g. combinational cycles).
pub fn from_text(text: &str) -> Result<Circuit, ParseError> {
    // Strip comments, then tokenize; `{`, `}`, `;` are their own tokens.
    let mut tokens: Vec<String> = Vec::new();
    for line in text.lines() {
        let line = line.split('#').next().unwrap_or("");
        let spaced = line
            .replace('{', " { ")
            .replace('}', " } ")
            .replace(';', " ; ");
        tokens.extend(spaced.split_whitespace().map(str::to_string));
    }
    let mut pos = 0usize;
    let next = |pos: &mut usize, tokens: &[String], what: &str| -> Result<String, ParseError> {
        let t = tokens
            .get(*pos)
            .cloned()
            .ok_or_else(|| ParseError::Syntax {
                message: format!("expected {what}, found end of input"),
            })?;
        *pos += 1;
        Ok(t)
    };
    let expect = |pos: &mut usize, tokens: &[String], lit: &str| -> Result<(), ParseError> {
        let t = next(pos, tokens, lit)?;
        if t != lit {
            return Err(ParseError::Syntax {
                message: format!("expected {lit:?}, found {t:?}"),
            });
        }
        Ok(())
    };

    expect(&mut pos, &tokens, "circuit")?;
    let name = next(&mut pos, &tokens, "circuit name")?;
    expect(&mut pos, &tokens, "{")?;
    let mut builder = CircuitBuilder::new(name);
    let mut vertex_names: Vec<(String, VertexId)> = Vec::new();
    let lookup = |names: &[(String, VertexId)], n: &str| -> Result<VertexId, ParseError> {
        names
            .iter()
            .find(|(name, _)| name == n)
            .map(|&(_, id)| id)
            .ok_or_else(|| ParseError::UnknownVertex(n.to_string()))
    };

    loop {
        let t = next(&mut pos, &tokens, "statement or '}'")?;
        match t.as_str() {
            "}" => break,
            "input" | "output" | "fanout" | "vacuous" => {
                let vname = next(&mut pos, &tokens, "vertex name")?;
                expect(&mut pos, &tokens, ";")?;
                let id = match t.as_str() {
                    "input" => builder.input(&vname),
                    "output" => builder.output(&vname),
                    "fanout" => builder.fanout(&vname),
                    _ => builder.vacuous(&vname),
                };
                vertex_names.push((vname, id));
            }
            "logic" => {
                let vname = next(&mut pos, &tokens, "vertex name")?;
                let peek = next(&mut pos, &tokens, "';' or function")?;
                let function = if peek == ";" {
                    LogicFunction::Opaque
                } else {
                    let f = parse_function(&peek).ok_or_else(|| ParseError::Syntax {
                        message: format!("unknown logic function {peek:?}"),
                    })?;
                    expect(&mut pos, &tokens, ";")?;
                    f
                };
                let id = builder.logic_fn(&vname, function);
                vertex_names.push((vname, id));
            }
            "reg" => {
                let rname = next(&mut pos, &tokens, "register name")?;
                expect(&mut pos, &tokens, "width")?;
                let wtok = next(&mut pos, &tokens, "register width")?;
                let width: u32 = wtok.parse().map_err(|_| ParseError::Syntax {
                    message: format!("invalid register width {wtok:?}"),
                })?;
                if width == 0 {
                    return Err(ParseError::ZeroWidthRegister(rname));
                }
                expect(&mut pos, &tokens, "from")?;
                let from = next(&mut pos, &tokens, "source vertex")?;
                expect(&mut pos, &tokens, "to")?;
                let to = next(&mut pos, &tokens, "destination vertex")?;
                expect(&mut pos, &tokens, ";")?;
                let fv = lookup(&vertex_names, &from)?;
                let tv = lookup(&vertex_names, &to)?;
                builder.register(rname, width, fv, tv);
            }
            "wire" => {
                expect(&mut pos, &tokens, "from")?;
                let from = next(&mut pos, &tokens, "source vertex")?;
                expect(&mut pos, &tokens, "to")?;
                let to = next(&mut pos, &tokens, "destination vertex")?;
                expect(&mut pos, &tokens, ";")?;
                let fv = lookup(&vertex_names, &from)?;
                let tv = lookup(&vertex_names, &to)?;
                builder.wire(fv, tv);
            }
            other => {
                return Err(ParseError::Syntax {
                    message: format!("unknown statement {other:?}"),
                });
            }
        }
    }
    Ok(builder.finish()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::CircuitBuilder;

    fn sample() -> Circuit {
        let mut b = CircuitBuilder::new("sample");
        let pi = b.input("PI");
        let f = b.fanout("F");
        let c1 = b.logic_fn("C1", LogicFunction::Add);
        let c2 = b.logic_fn("C2", LogicFunction::Mul { out_width: 8 });
        let v = b.vacuous("V1");
        let po = b.output("PO");
        b.wire(pi, f);
        b.register("R1", 8, f, c1);
        b.register("R2", 8, f, c2);
        b.wire(c1, v);
        b.register("R3", 8, v, po);
        b.wire(c2, po);
        b.finish().unwrap()
    }

    #[test]
    fn round_trip_preserves_structure() {
        let c = sample();
        let text = to_text(&c);
        let parsed = from_text(&text).unwrap();
        assert_eq!(parsed.name(), c.name());
        assert_eq!(parsed.vertex_count(), c.vertex_count());
        assert_eq!(parsed.edge_count(), c.edge_count());
        assert_eq!(parsed.register_edges().count(), c.register_edges().count());
        // Functions survive.
        let c2 = parsed.vertex_by_name("C2").unwrap();
        assert_eq!(
            parsed.vertex(c2).function,
            LogicFunction::Mul { out_width: 8 }
        );
        // Second round trip is identical text.
        assert_eq!(to_text(&parsed), text);
    }

    #[test]
    fn comments_and_whitespace_ignored() {
        let text = "circuit t { # header\n  input A; # a PI\n  logic C;\n  reg R width 4 from A to C;\n}\n";
        let c = from_text(text).unwrap();
        assert_eq!(c.vertex_count(), 2);
        assert_eq!(c.edge_count(), 1);
    }

    #[test]
    fn unknown_vertex_reported() {
        let text = "circuit t { input A; wire from A to B; }";
        assert!(matches!(
            from_text(text),
            Err(ParseError::UnknownVertex(n)) if n == "B"
        ));
    }

    #[test]
    fn syntax_errors_reported() {
        assert!(matches!(
            from_text("circuit t { bogus X; }"),
            Err(ParseError::Syntax { .. })
        ));
        assert!(matches!(
            from_text("circuit t { input A;"),
            Err(ParseError::Syntax { .. })
        ));
        assert!(matches!(
            from_text("circuit t { reg R width four from A to B; }"),
            Err(ParseError::Syntax { .. })
        ));
    }

    #[test]
    fn build_errors_propagate() {
        let text = "circuit t { logic A; logic B; wire from A to B; wire from B to A; }";
        assert!(matches!(from_text(text), Err(ParseError::Build(_))));
    }

    #[test]
    fn logic_function_spellings() {
        assert_eq!(parse_function("add"), Some(LogicFunction::Add));
        assert_eq!(
            parse_function("mul12"),
            Some(LogicFunction::Mul { out_width: 12 })
        );
        assert_eq!(parse_function("bogus"), None);
        assert_eq!(parse_function("mulx"), None);
    }
}
