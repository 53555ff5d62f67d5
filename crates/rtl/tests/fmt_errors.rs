//! Error-path matrix for the `.ckt` loader: every class of malformed
//! input must surface as the *typed* [`ParseError`] variant the docs
//! promise, never a panic or a silently-wrong circuit. (The `.bench`
//! loader has the mirror matrix in `bibs_netlist::bench`.)

use bibs_rtl::fmt::{from_text, ParseError};
use bibs_rtl::CircuitBuildError;

#[test]
fn truncated_input_is_a_syntax_error() {
    for text in [
        "",
        "circuit",
        "circuit t",
        "circuit t {",
        "circuit t {\n  input a;\n",
        "circuit t {\n  reg R width 8 from a",
    ] {
        match from_text(text) {
            Err(ParseError::Syntax { message }) => {
                assert!(
                    message.contains("end of input"),
                    "{text:?}: message {message:?} should name the truncation"
                );
            }
            other => panic!("{text:?}: expected Syntax, got {other:?}"),
        }
    }
}

#[test]
fn unknown_statement_is_a_syntax_error() {
    let text = "circuit t {\n  frobnicate a;\n}";
    match from_text(text) {
        Err(ParseError::Syntax { message }) => {
            assert!(message.contains("frobnicate"), "{message:?}");
        }
        other => panic!("expected Syntax, got {other:?}"),
    }
}

#[test]
fn unknown_logic_function_is_a_syntax_error() {
    let text = "circuit t {\n  logic X frob;\n}";
    match from_text(text) {
        Err(ParseError::Syntax { message }) => {
            assert!(message.contains("frob"), "{message:?}");
        }
        other => panic!("expected Syntax, got {other:?}"),
    }
}

#[test]
fn bad_register_width_is_a_syntax_error() {
    let text = "circuit t {\n  input a;\n  output y;\n  reg R width eight from a to y;\n}";
    match from_text(text) {
        Err(ParseError::Syntax { message }) => {
            assert!(message.contains("eight"), "{message:?}");
        }
        other => panic!("expected Syntax, got {other:?}"),
    }
}

#[test]
fn zero_register_width_is_typed() {
    let text = "circuit t {\n  input a;\n  output y;\n  reg Ra width 0 from a to y;\n}";
    match from_text(text) {
        Err(e @ ParseError::ZeroWidthRegister(_)) => {
            assert_eq!(e, ParseError::ZeroWidthRegister("Ra".into()));
            assert_eq!(e.to_string(), "register \"Ra\" has width 0");
        }
        other => panic!("expected ZeroWidthRegister, got {other:?}"),
    }
}

#[test]
fn undeclared_vertex_reference_is_typed() {
    let text = "circuit t {\n  input a;\n  output y;\n  reg R width 8 from a to ghost;\n}";
    match from_text(text) {
        Err(ParseError::UnknownVertex(name)) => assert_eq!(name, "ghost"),
        other => panic!("expected UnknownVertex, got {other:?}"),
    }
}

#[test]
fn duplicate_vertex_name_is_a_build_error() {
    let text = "circuit t {\n  input a;\n  input a;\n}";
    match from_text(text) {
        Err(ParseError::Build(CircuitBuildError::DuplicateVertexName(name))) => {
            assert_eq!(name, "a");
        }
        other => panic!("expected DuplicateVertexName, got {other:?}"),
    }
}

#[test]
fn duplicate_register_name_is_a_build_error() {
    let text = "circuit t {\n  input a;\n  logic L;\n  output y;\n  \
                reg R width 8 from a to L;\n  reg R width 8 from L to y;\n}";
    match from_text(text) {
        Err(ParseError::Build(CircuitBuildError::DuplicateRegisterName(name))) => {
            assert_eq!(name, "R");
        }
        other => panic!("expected DuplicateRegisterName, got {other:?}"),
    }
}

#[test]
fn combinational_cycle_is_a_build_error() {
    let text = "circuit t {\n  logic A;\n  logic B;\n  \
                wire from A to B;\n  wire from B to A;\n}";
    match from_text(text) {
        Err(ParseError::Build(CircuitBuildError::CombinationalCycle { .. })) => {}
        other => panic!("expected CombinationalCycle, got {other:?}"),
    }
}

#[test]
fn errors_display_without_panicking() {
    for text in [
        "circuit t {",
        "circuit t {\n  logic X frob;\n}",
        "circuit t {\n  input a;\n  input a;\n}",
        "circuit t {\n  wire from a to b;\n}",
    ] {
        let e = from_text(text).unwrap_err();
        assert!(!e.to_string().is_empty());
    }
}
