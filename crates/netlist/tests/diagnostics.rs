//! Parse-error diagnostics: every syntax error carries a byte `offset`
//! into the borrowed input buffer plus the 1-based `line`/`col` derived
//! from it, and the three must agree — `offset` is what tools use to
//! point at the offending token, `line:col` is what humans read in the
//! `Display` rendering. The spans are part of the front end's contract,
//! so they are pinned exactly; a parser change that moves one is a
//! behaviour change and must update this file deliberately.

use drd_netlist::verilog::parse_design;
use drd_netlist::NetlistError;

/// Asserts `err` is a `Parse` error whose span is internally consistent
/// with `src` (line/col re-derived from the byte offset match the stored
/// values) and whose offset points at `token`, then returns its parts.
fn parse_span(src: &str, err: &NetlistError, token: &str) -> (usize, usize, usize, String) {
    let NetlistError::Parse {
        line,
        col,
        offset,
        message,
    } = err
    else {
        panic!("expected a Parse error, got {err:?}");
    };
    assert!(*offset <= src.len(), "offset {offset} beyond input");
    let upto = &src[..*offset];
    let derived_line = upto.bytes().filter(|&b| b == b'\n').count() + 1;
    let derived_col = upto.chars().rev().take_while(|&c| c != '\n').count() + 1;
    assert_eq!(*line, derived_line, "stored line disagrees with offset");
    assert_eq!(*col, derived_col, "stored col disagrees with offset");
    assert!(
        src[*offset..].starts_with(token),
        "offset points at {:?}, expected {token:?}",
        &src[*offset..src.len().min(*offset + 16)]
    );
    (*line, *col, *offset, message.clone())
}

#[test]
fn bad_constant_base_points_at_the_constant() {
    let src = "module t(z);\n  output z;\n  BUFX1 g (.A(4'q0), .Z(z));\nendmodule\n";
    let err = parse_design(src).expect_err("bad base rejected");
    let (line, col, offset, msg) = parse_span(src, &err, "4'q0");
    assert_eq!((line, col, offset), (3, 15, 39));
    assert_eq!(msg, "unknown constant base `q`");
    assert_eq!(
        err.to_string(),
        "parse error at line 3:15: unknown constant base `q`"
    );
}

#[test]
fn oversized_range_points_at_the_bound() {
    let src = "module t(a);\n  input a;\n  wire [99999999:0] huge;\nendmodule\n";
    let err = parse_design(src).expect_err("huge range rejected");
    let (line, col, offset, msg) = parse_span(src, &err, "99999999");
    assert_eq!((line, col, offset), (3, 9, 32));
    assert_eq!(
        msg,
        "bit index 99999999 exceeds the supported maximum 65536"
    );
}

#[test]
fn truncated_pin_list_points_at_the_stray_token() {
    let src = "module t(a);\n  input a;\n  BUFX1 g (.A(a), ;\nendmodule\n";
    let err = parse_design(src).expect_err("stray `;` rejected");
    let (line, col, offset, msg) = parse_span(src, &err, ";");
    assert_eq!((line, col, offset), (3, 19, 42));
    assert_eq!(msg, "expected `.`, found `;`");
}

#[test]
fn unterminated_comment_points_at_its_opening() {
    let src = "module t(a);\n  input a;\n  /* never ends\nendmodule\n";
    let err = parse_design(src).expect_err("unterminated comment rejected");
    let (line, col, offset, msg) = parse_span(src, &err, "/*");
    assert_eq!((line, col, offset), (3, 3, 26));
    assert_eq!(msg, "unterminated block comment");
}

#[test]
fn stray_character_points_at_the_byte() {
    let src = "module t(a);\n  input a;\n  always @(posedge a) q <= a;\nendmodule\n";
    let err = parse_design(src).expect_err("behavioural code rejected");
    let (line, col, offset, msg) = parse_span(src, &err, "@");
    assert_eq!((line, col, offset), (3, 10, 33));
    assert_eq!(msg, "unexpected character `@`");
}

#[test]
fn multibyte_text_keeps_columns_in_characters() {
    // The `é` before the error is 2 bytes but 1 column: col counts
    // characters while offset counts bytes, and both must be right.
    let src = "module t(a);\n  input a;\n  // café\n  wire @;\nendmodule\n";
    let err = parse_design(src).expect_err("stray `@` rejected");
    let (line, col, offset, msg) = parse_span(src, &err, "@");
    assert_eq!((line, col), (4, 8));
    assert_eq!(offset, src.find('@').expect("@ present"));
    assert_eq!(msg, "unexpected character `@`");
}

/// Errors the module *builder* raises (rather than the tokenizer or
/// grammar) still surface through `parse_design` with a line number.
#[test]
fn unsupported_constructs_carry_a_line() {
    let src = "module t(a, z);\n  input a;\n  output z;\n  BUFX1 g (a, z);\nendmodule\n";
    let err = parse_design(src).expect_err("ordered connections rejected");
    let NetlistError::Unsupported { line, ref message } = err else {
        panic!("expected Unsupported, got {err:?}");
    };
    assert_eq!(line, 4);
    assert!(message.contains("ordered"), "message: {message}");
}
