//! Parser for a practical subset of the Liberty (`.lib`) format.
//!
//! This is the "custom script that parses the .lib standard technology
//! file" of §3.1.1, turned into a proper parser. It reads the generic
//! Liberty group/attribute structure and interprets the subset needed for
//! desynchronization:
//!
//! * `library(name) { ... }`
//! * `cell(name) { area; cell_leakage_power; ff/latch groups; pin groups }`
//! * `pin(name) { direction; capacitance; function; drive_resistance;
//!   timing() { related_pin; intrinsic_rise; intrinsic_fall; } }`
//! * `ff(IQ, IQN) { next_state; clocked_on; clear; preset; }`
//! * `latch(IQ, IQN) { data_in; enable; clear; preset; }`
//! * `setup_time` / `hold_time` / `switching_energy` cell attributes
//!   (flat simplifications of Liberty's table-based timing/power model)
//! * `celement() { inputs; reset; }` — extension group marking C-Muller
//!   elements (§3.1.5), since stock Liberty has no native C-element kind.

use std::borrow::Cow;
use std::collections::HashMap;

use drd_netlist::PortDir;

use crate::cell::{FfInfo, LatchInfo, LibCell, Pin, SeqKind, TimingArc};
use crate::function::Expr;
use crate::library::{Library, LibraryError};

/// Parses Liberty source into a [`Library`].
///
/// # Errors
/// Returns [`LibraryError`] on syntax errors or semantically malformed
/// cells (e.g. an `ff` group whose state variable matches no output pin).
pub fn parse_library(source: &str) -> Result<Library, LibraryError> {
    let tokens = lex(source)?;
    let mut parser = LibParser { tokens, pos: 0 };
    let root = parser.parse_group()?;
    if root.name != "library" {
        return Err(LibraryError::new(format!(
            "expected top-level `library` group, found `{}`",
            root.name
        )));
    }
    interpret_library(&root)
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

/// A token; identifiers and strings borrow the source.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Tok<'a> {
    Id(&'a str),
    Str(&'a str),
    Num(f64),
    Punct(char),
    Eof,
}

fn lex(source: &str) -> Result<Vec<(Tok<'_>, usize)>, LibraryError> {
    let bytes = source.as_bytes();
    let mut out = Vec::new();
    let (mut i, mut line) = (0usize, 1usize);
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if bytes.get(i + 1) == Some(&b'*') => {
                i += 2;
                while i + 1 < bytes.len() && !(bytes[i] == b'*' && bytes[i + 1] == b'/') {
                    if bytes[i] == b'\n' {
                        line += 1;
                    }
                    i += 1;
                }
                i += 2;
            }
            '/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '\\' if bytes.get(i + 1) == Some(&b'\n') => {
                // Liberty line continuation.
                line += 1;
                i += 2;
            }
            '"' => {
                let start = i + 1;
                let mut j = start;
                while j < bytes.len() && bytes[j] != b'"' {
                    if bytes[j] == b'\n' {
                        line += 1;
                    }
                    j += 1;
                }
                if j >= bytes.len() {
                    return Err(LibraryError::at(line, "unterminated string"));
                }
                out.push((Tok::Str(&source[start..j]), line));
                i = j + 1;
            }
            '{' | '}' | '(' | ')' | ':' | ';' | ',' => {
                out.push((Tok::Punct(c), line));
                i += 1;
            }
            c if c.is_ascii_digit() || c == '-' || c == '+' => {
                let start = i;
                i += 1;
                while i < bytes.len() {
                    let c = bytes[i] as char;
                    if c.is_ascii_digit()
                        || c == '.'
                        || c == 'e'
                        || c == 'E'
                        || c == '-'
                        || c == '+'
                    {
                        // Only allow +/- right after an exponent marker.
                        if (c == '-' || c == '+') && !matches!(bytes[i - 1], b'e' | b'E') {
                            break;
                        }
                        i += 1;
                    } else {
                        break;
                    }
                }
                let text = &source[start..i];
                let value: f64 = text
                    .parse()
                    .map_err(|_| LibraryError::at(line, format!("bad number `{text}`")))?;
                out.push((Tok::Num(value), line));
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len() {
                    let c = bytes[i] as char;
                    if c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '[' || c == ']' {
                        i += 1;
                    } else {
                        break;
                    }
                }
                out.push((Tok::Id(&source[start..i]), line));
            }
            other => {
                return Err(LibraryError::at(
                    line,
                    format!("unexpected character `{other}`"),
                ));
            }
        }
    }
    out.push((Tok::Eof, line));
    Ok(out)
}

// ---------------------------------------------------------------------------
// Generic group tree
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq)]
enum Value<'a> {
    Str(&'a str),
    Num(f64),
    Ident(&'a str),
}

impl Value<'_> {
    fn as_str(&self) -> &str {
        match self {
            Value::Str(s) | Value::Ident(s) => s,
            Value::Num(_) => "",
        }
    }

    fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            Value::Str(s) | Value::Ident(s) => s.parse().ok(),
        }
    }
}

/// A group of the source tree; names and values borrow the source.
#[derive(Debug, Clone, Default)]
struct Group<'a> {
    name: &'a str,
    args: Vec<Cow<'a, str>>,
    attrs: Vec<(&'a str, Value<'a>)>,
    groups: Vec<Group<'a>>,
}

impl<'a> Group<'a> {
    fn attr(&self, name: &str) -> Option<&Value<'a>> {
        self.attrs.iter().find(|(n, _)| *n == name).map(|(_, v)| v)
    }

    /// The `i`-th group argument, owned.
    fn arg(&self, i: usize) -> Option<String> {
        self.args.get(i).map(|a| a.to_string())
    }

    /// Every group argument, owned.
    fn owned_args(&self) -> Vec<String> {
        self.args.iter().map(|a| a.to_string()).collect()
    }

    fn attr_str(&self, name: &str) -> Option<&str> {
        self.attr(name).map(|v| v.as_str())
    }

    fn attr_num(&self, name: &str) -> Option<f64> {
        self.attr(name).and_then(|v| v.as_num())
    }

    fn children<'s>(&'s self, name: &'s str) -> impl Iterator<Item = &'s Group<'a>> + 's {
        self.groups.iter().filter(move |g| g.name == name)
    }
}

struct LibParser<'a> {
    tokens: Vec<(Tok<'a>, usize)>,
    pos: usize,
}

impl<'a> LibParser<'a> {
    fn peek(&self) -> Tok<'a> {
        self.tokens[self.pos].0
    }

    fn line(&self) -> usize {
        self.tokens[self.pos].1
    }

    fn bump(&mut self) -> Tok<'a> {
        let t = self.tokens[self.pos].0;
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn expect_punct(&mut self, c: char) -> Result<(), LibraryError> {
        match self.bump() {
            Tok::Punct(p) if p == c => Ok(()),
            other => Err(LibraryError::at(
                self.line(),
                format!("expected `{c}`, found {other:?}"),
            )),
        }
    }

    /// Parses `name ( args ) { body }`.
    fn parse_group(&mut self) -> Result<Group<'a>, LibraryError> {
        let name = match self.bump() {
            Tok::Id(n) => n,
            other => {
                return Err(LibraryError::at(
                    self.line(),
                    format!("expected group name, found {other:?}"),
                ))
            }
        };
        self.expect_punct('(')?;
        let mut args = Vec::new();
        while !matches!(self.peek(), Tok::Punct(')')) {
            match self.bump() {
                Tok::Id(s) | Tok::Str(s) => args.push(Cow::Borrowed(s)),
                Tok::Num(n) => args.push(Cow::Owned(n.to_string())),
                Tok::Punct(',') => {}
                other => {
                    return Err(LibraryError::at(
                        self.line(),
                        format!("bad group argument {other:?}"),
                    ))
                }
            }
        }
        self.expect_punct(')')?;
        let mut group = Group {
            name,
            args,
            ..Group::default()
        };
        if matches!(self.peek(), Tok::Punct('{')) {
            self.bump();
            while !matches!(self.peek(), Tok::Punct('}')) {
                if matches!(self.peek(), Tok::Eof) {
                    return Err(LibraryError::at(self.line(), "unterminated group"));
                }
                self.parse_item(&mut group)?;
            }
            self.bump(); // '}'
        } else {
            // Group without a body (`timing ();`) — consume optional `;`.
            if matches!(self.peek(), Tok::Punct(';')) {
                self.bump();
            }
        }
        Ok(group)
    }

    fn parse_item(&mut self, parent: &mut Group<'a>) -> Result<(), LibraryError> {
        // Lookahead: `id :` is a simple attribute, `id (` a nested group.
        let save = self.pos;
        let name = match self.bump() {
            Tok::Id(n) => n,
            other => {
                return Err(LibraryError::at(
                    self.line(),
                    format!("expected attribute or group, found {other:?}"),
                ))
            }
        };
        match self.peek() {
            Tok::Punct(':') => {
                self.bump();
                let value = match self.bump() {
                    Tok::Str(s) => Value::Str(s),
                    Tok::Num(n) => Value::Num(n),
                    Tok::Id(s) => Value::Ident(s),
                    other => {
                        return Err(LibraryError::at(
                            self.line(),
                            format!("bad attribute value {other:?}"),
                        ))
                    }
                };
                if matches!(self.peek(), Tok::Punct(';')) {
                    self.bump();
                }
                parent.attrs.push((name, value));
                Ok(())
            }
            Tok::Punct('(') => {
                self.pos = save;
                let g = self.parse_group()?;
                parent.groups.push(g);
                Ok(())
            }
            other => Err(LibraryError::at(
                self.line(),
                format!("expected `:` or `(` after `{name}`, found {other:?}"),
            )),
        }
    }
}

// ---------------------------------------------------------------------------
// Interpretation
// ---------------------------------------------------------------------------

fn interpret_library(root: &Group) -> Result<Library, LibraryError> {
    let name = root.arg(0).unwrap_or_else(|| "unnamed".to_owned());
    let mut cells = Vec::new();
    for cell_group in root.children("cell") {
        cells.push(interpret_cell(cell_group)?);
    }
    Library::from_cells(name, cells)
}

fn parse_fn(cell: &str, text: &str) -> Result<Expr, LibraryError> {
    Expr::parse(text)
        .map_err(|e| LibraryError::new(format!("cell `{cell}`: bad function `{text}`: {e}")))
}

fn interpret_cell(g: &Group) -> Result<LibCell, LibraryError> {
    let name = g
        .arg(0)
        .ok_or_else(|| LibraryError::new("cell group without a name"))?;

    let mut pins = Vec::new();
    let mut arcs = Vec::new();
    let mut state_functions: HashMap<String, String> = HashMap::new(); // pin -> raw function

    for pg in g.children("pin") {
        let pin_name = pg
            .arg(0)
            .ok_or_else(|| LibraryError::new(format!("cell `{name}`: pin without a name")))?;
        let dir = match pg.attr_str("direction") {
            Some("input") => PortDir::Input,
            Some("output") => PortDir::Output,
            Some("inout") => PortDir::Inout,
            Some(other) => {
                return Err(LibraryError::new(format!(
                    "cell `{name}` pin `{pin_name}`: unknown direction `{other}`"
                )))
            }
            None => PortDir::Input,
        };
        let raw_function = pg.attr_str("function").map(str::to_owned);
        for tg in pg.children("timing") {
            let from = tg
                .attr_str("related_pin")
                .ok_or_else(|| {
                    LibraryError::new(format!(
                        "cell `{name}` pin `{pin_name}`: timing group without related_pin"
                    ))
                })?
                .to_owned();
            let rise = tg.attr_num("intrinsic_rise").unwrap_or(0.0);
            let fall = tg.attr_num("intrinsic_fall").unwrap_or(rise);
            arcs.push(TimingArc {
                from,
                to: pin_name.clone(),
                rise,
                fall,
            });
        }
        if let Some(f) = &raw_function {
            state_functions.insert(pin_name.clone(), f.clone());
        }
        pins.push(Pin {
            name: pin_name,
            dir,
            function: None, // resolved below, once state variables are known
            capacitance: pg.attr_num("capacitance").unwrap_or(0.0),
            drive_resistance: pg.attr_num("drive_resistance").unwrap_or(0.0),
        });
    }

    // Sequential groups.
    let mut seq = SeqKind::None;
    let mut state_vars: Vec<String> = Vec::new();
    if let Some(ff) = g.children("ff").next() {
        state_vars = ff.owned_args();
        let iq = state_vars.first().cloned().unwrap_or_default();
        let iqn = state_vars.get(1).cloned();
        let next = ff.attr_str("next_state").ok_or_else(|| {
            LibraryError::new(format!("cell `{name}`: ff group without next_state"))
        })?;
        let clocked = ff.attr_str("clocked_on").ok_or_else(|| {
            LibraryError::new(format!("cell `{name}`: ff group without clocked_on"))
        })?;
        let q = find_state_pin(&name, &pins, &state_functions, &iq, false)?;
        let qn = find_qn_pin(&pins, &state_functions, &iq, iqn.as_deref());
        seq = SeqKind::FlipFlop(FfInfo {
            next_state: parse_fn(&name, next)?,
            clocked_on: clocked.to_owned(),
            clear: opt_fn(&name, g, ff, "clear")?,
            preset: opt_fn(&name, g, ff, "preset")?,
            q,
            qn,
        });
    } else if let Some(latch) = g.children("latch").next() {
        state_vars = latch.owned_args();
        let iq = state_vars.first().cloned().unwrap_or_default();
        let iqn = state_vars.get(1).cloned();
        let data = latch.attr_str("data_in").ok_or_else(|| {
            LibraryError::new(format!("cell `{name}`: latch group without data_in"))
        })?;
        let enable = latch.attr_str("enable").ok_or_else(|| {
            LibraryError::new(format!("cell `{name}`: latch group without enable"))
        })?;
        let q = find_state_pin(&name, &pins, &state_functions, &iq, false)?;
        let qn = find_qn_pin(&pins, &state_functions, &iq, iqn.as_deref());
        seq = SeqKind::Latch(LatchInfo {
            data_in: parse_fn(&name, data)?,
            enable: enable.to_owned(),
            clear: opt_fn(&name, g, latch, "clear")?,
            preset: opt_fn(&name, g, latch, "preset")?,
            q,
            qn,
        });
    } else if let Some(ce) = g.children("celement").next() {
        let inputs = ce
            .attr_str("inputs")
            .map(|s| s.split_whitespace().map(str::to_owned).collect::<Vec<_>>())
            .unwrap_or_default();
        if inputs.is_empty() {
            return Err(LibraryError::new(format!(
                "cell `{name}`: celement group without inputs"
            )));
        }
        let q = ce
            .attr_str("output")
            .map(str::to_owned)
            .or_else(|| {
                pins.iter()
                    .find(|p| p.dir == PortDir::Output)
                    .map(|p| p.name.clone())
            })
            .ok_or_else(|| {
                LibraryError::new(format!("cell `{name}`: celement without an output pin"))
            })?;
        seq = SeqKind::CElement {
            inputs,
            reset: ce.attr_str("reset").map(str::to_owned),
            set: ce.attr_str("set").map(str::to_owned),
            q,
        };
    }

    // Resolve combinational output functions (skip pure state outputs).
    for pin in pins.iter_mut() {
        if pin.dir != PortDir::Output {
            continue;
        }
        if let Some(raw) = state_functions.get(&pin.name) {
            let trimmed = raw.trim();
            let is_state_ref = state_vars.iter().any(|v| {
                trimmed == v
                    || trimmed == format!("!{v}")
                    || trimmed == format!("{v}'")
                    || trimmed == format!("!({v})")
            });
            if !is_state_ref && seq == SeqKind::None {
                pin.function = Some(parse_fn(&name, raw)?);
            }
        }
    }

    Ok(LibCell {
        name,
        area: g.attr_num("area").unwrap_or(0.0),
        leakage: g.attr_num("cell_leakage_power").unwrap_or(0.0),
        switching_energy: g.attr_num("switching_energy").unwrap_or(0.0),
        setup: g.attr_num("setup_time").unwrap_or(0.0),
        hold: g.attr_num("hold_time").unwrap_or(0.0),
        pins,
        seq,
        arcs,
    })
}

fn opt_fn(
    cell: &str,
    _cell_group: &Group,
    seq_group: &Group,
    key: &str,
) -> Result<Option<Expr>, LibraryError> {
    match seq_group.attr_str(key) {
        Some(text) => Ok(Some(parse_fn(cell, text)?)),
        None => Ok(None),
    }
}

/// Finds the inverted state output: a pin whose function is the second
/// state variable (`IQN`) plainly, or the negation of the first (`!IQ`).
fn find_qn_pin(
    pins: &[Pin],
    state_functions: &HashMap<String, String>,
    iq: &str,
    iqn: Option<&str>,
) -> Option<String> {
    for pin in pins.iter().filter(|p| p.dir == PortDir::Output) {
        if let Some(f) = state_functions.get(&pin.name) {
            let t = f.trim();
            let plain_iqn = iqn.is_some_and(|v| t == v);
            let negated_iq =
                t == format!("!{iq}") || t == format!("{iq}'") || t == format!("!({iq})");
            if plain_iqn || negated_iq {
                return Some(pin.name.clone());
            }
        }
    }
    None
}

/// Finds the output pin whose function equals the state variable `var`
/// (or its negation when `negated`).
fn find_state_pin(
    cell: &str,
    pins: &[Pin],
    state_functions: &HashMap<String, String>,
    var: &str,
    negated: bool,
) -> Result<String, LibraryError> {
    for pin in pins.iter().filter(|p| p.dir == PortDir::Output) {
        if let Some(f) = state_functions.get(&pin.name) {
            let t = f.trim();
            let matches = if negated {
                t == format!("!{var}") || t == format!("{var}'") || t == format!("!({var})")
            } else {
                t == var
            };
            if matches {
                return Ok(pin.name.clone());
            }
        }
    }
    Err(LibraryError::new(format!(
        "cell `{cell}`: no output pin carries state variable `{var}`"
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellClass;

    const SAMPLE: &str = r#"
    /* sample library */
    library (mini) {
      cell (INVX1) {
        area : 2.1;
        cell_leakage_power : 0.012;
        switching_energy : 0.0021;
        pin (A) { direction : input; capacitance : 0.0030; }
        pin (Z) {
          direction : output;
          function : "!A";
          drive_resistance : 1.10;
          timing () { related_pin : "A"; intrinsic_rise : 0.014; intrinsic_fall : 0.011; }
        }
      }
      cell (DFFX1) {
        area : 14.1;
        setup_time : 0.062;
        hold_time : 0.012;
        ff (IQ, IQN) {
          next_state : "D";
          clocked_on : "CK";
        }
        pin (D)  { direction : input; capacitance : 0.0028; }
        pin (CK) { direction : input; capacitance : 0.0040; }
        pin (Q)  { direction : output; function : "IQ";
          timing () { related_pin : "CK"; intrinsic_rise : 0.120; intrinsic_fall : 0.118; }
        }
        pin (QN) { direction : output; function : "IQN"; }
      }
      cell (LDX1) {
        area : 8.2;
        setup_time : 0.040;
        latch (IQ, IQN) {
          data_in : "D";
          enable : "G";
        }
        pin (D) { direction : input; capacitance : 0.0026; }
        pin (G) { direction : input; capacitance : 0.0035; }
        pin (Q) { direction : output; function : "IQ";
          timing () { related_pin : "D"; intrinsic_rise : 0.080; intrinsic_fall : 0.078; }
          timing () { related_pin : "G"; intrinsic_rise : 0.100; intrinsic_fall : 0.096; }
        }
      }
      cell (C2RX1) {
        area : 6.4;
        celement () { inputs : "A B"; reset : "RN"; }
        pin (A)  { direction : input; capacitance : 0.0030; }
        pin (B)  { direction : input; capacitance : 0.0030; }
        pin (RN) { direction : input; capacitance : 0.0020; }
        pin (Z)  { direction : output;
          timing () { related_pin : "A"; intrinsic_rise : 0.045; intrinsic_fall : 0.043; }
          timing () { related_pin : "B"; intrinsic_rise : 0.045; intrinsic_fall : 0.043; }
        }
      }
    }
    "#;

    #[test]
    fn parses_sample_library() {
        let lib = parse_library(SAMPLE).unwrap();
        assert_eq!(lib.name(), "mini");
        assert_eq!(lib.cells().count(), 4);
    }

    #[test]
    fn combinational_cell() {
        let lib = parse_library(SAMPLE).unwrap();
        let inv = lib.cell("INVX1").unwrap();
        assert_eq!(inv.class(), CellClass::Combinational);
        assert!((inv.area - 2.1).abs() < 1e-9);
        assert_eq!(inv.arc_delay("A", "Z"), Some((0.014, 0.011)));
        let f = inv.pin("Z").unwrap().function.as_ref().unwrap();
        assert_eq!(f.vars(), ["A"]);
    }

    #[test]
    fn flip_flop_cell() {
        let lib = parse_library(SAMPLE).unwrap();
        let dff = lib.cell("DFFX1").unwrap();
        let SeqKind::FlipFlop(ff) = &dff.seq else {
            panic!("DFFX1 should be a flip-flop");
        };
        assert_eq!(ff.clocked_on, "CK");
        assert_eq!(ff.q, "Q");
        assert_eq!(ff.qn.as_deref(), Some("QN"));
        assert!((dff.setup - 0.062).abs() < 1e-9);
        // State output pins carry no combinational function.
        assert!(dff.pin("Q").unwrap().function.is_none());
    }

    #[test]
    fn latch_cell() {
        let lib = parse_library(SAMPLE).unwrap();
        let ld = lib.cell("LDX1").unwrap();
        let SeqKind::Latch(latch) = &ld.seq else {
            panic!("LDX1 should be a latch");
        };
        assert_eq!(latch.enable, "G");
        assert_eq!(latch.q, "Q");
        assert_eq!(ld.arc_delay("G", "Q"), Some((0.100, 0.096)));
    }

    #[test]
    fn celement_cell() {
        let lib = parse_library(SAMPLE).unwrap();
        let c = lib.cell("C2RX1").unwrap();
        let SeqKind::CElement {
            inputs,
            reset,
            set,
            q,
        } = &c.seq
        else {
            panic!("C2RX1 should be a C-element");
        };
        assert_eq!(inputs, &["A", "B"]);
        assert_eq!(reset.as_deref(), Some("RN"));
        assert_eq!(*set, None);
        assert_eq!(q, "Z");
    }

    #[test]
    fn syntax_errors_are_reported() {
        assert!(parse_library("cell (X) {}").is_err());
        assert!(
            parse_library("library (x) { cell (A) { pin (P) { direction : sideways; } } }")
                .is_err()
        );
        assert!(parse_library("library (x) { cell () {} }").is_err());
    }
}
