//! A minimal JSON reader/writer: the workspace's one JSON layer.
//!
//! The workspace is dependency-free by policy, so the serve protocol's
//! NDJSON request layer parses with this ~200-line recursive-descent
//! reader instead of serde. It accepts exactly RFC 8259 JSON (objects,
//! arrays, strings with the standard escapes including `\uXXXX` pairs,
//! numbers, bools, null) and rejects everything else with a positioned
//! message — the server turns that message into a structured `request`
//! error without dying, so one malformed line can never take the process
//! down.
//!
//! Writing goes the other way through [`escape`]: serve responses, the
//! FlowTrace and the bench reports escape their strings here and
//! assemble the rest with `format!`, so a control character in a name or
//! message cannot make their output invalid JSON.

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always carried as `f64`; the protocol's numeric
    /// fields are small counts and millisecond budgets, well inside the
    /// 2^53 exact-integer range).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source order (the protocol never needs map lookup
    /// faster than a linear scan over a handful of keys).
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on an object; `None` on missing key or non-object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses one complete JSON value from `text`, rejecting trailing junk.
///
/// # Errors
/// A human-readable message with the byte offset of the first problem.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut pos = 0usize;
    let value = parse_value(text, &mut pos)?;
    let bytes = text.as_bytes();
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while let Some(b' ' | b'\t' | b'\n' | b'\r') = bytes.get(*pos) {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, want: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&want) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {}", want as char, *pos))
    }
}

fn parse_value(text: &str, pos: &mut usize) -> Result<Value, String> {
    let bytes = text.as_bytes();
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_object(text, pos),
        Some(b'[') => parse_array(text, pos),
        Some(b'"') => Ok(Value::Str(parse_string(text, pos)?)),
        Some(b't') => parse_literal(bytes, pos, b"true", Value::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, b"false", Value::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, b"null", Value::Null),
        Some(b'-' | b'0'..=b'9') => parse_number(bytes, pos),
        Some(&b) => Err(format!("unexpected byte `{}` at {}", b as char, *pos)),
        None => Err("unexpected end of input".to_owned()),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    word: &[u8],
    value: Value,
) -> Result<Value, String> {
    if bytes.len() >= *pos + word.len() && &bytes[*pos..*pos + word.len()] == word {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while let Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') = bytes.get(*pos) {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|n| n.is_finite())
        .map(Value::Num)
        .ok_or_else(|| format!("bad number at byte {start}"))
}

fn parse_string(text: &str, pos: &mut usize) -> Result<String, String> {
    let bytes = text.as_bytes();
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_owned()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                let esc = bytes.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{0008}'),
                    b'f' => out.push('\u{000C}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let hi = parse_hex4(bytes, pos)?;
                        let code = if (0xD800..0xDC00).contains(&hi) {
                            // Surrogate pair: the low half must follow.
                            if bytes.get(*pos) != Some(&b'\\') || bytes.get(*pos + 1) != Some(&b'u')
                            {
                                return Err(format!("lone surrogate at byte {}", *pos));
                            }
                            *pos += 2;
                            let lo = parse_hex4(bytes, pos)?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return Err(format!("bad low surrogate at byte {}", *pos));
                            }
                            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                        } else {
                            hi
                        };
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| format!("bad code point at byte {}", *pos))?,
                        );
                    }
                    other => return Err(format!("bad escape `\\{}`", *other as char)),
                }
            }
            Some(&b) if b < 0x20 => {
                return Err(format!("raw control byte {b:#04x} in string at {}", *pos))
            }
            Some(_) => {
                // Copy the run up to the next quote, backslash or control
                // byte as one slice. Those bytes are ASCII, and every run
                // starts after an ASCII byte, so both ends are char
                // boundaries of `text`.
                let start = *pos;
                while let Some(&b) = bytes.get(*pos) {
                    if b == b'"' || b == b'\\' || b < 0x20 {
                        break;
                    }
                    *pos += 1;
                }
                out.push_str(&text[start..*pos]);
            }
        }
    }
}

fn parse_hex4(bytes: &[u8], pos: &mut usize) -> Result<u32, String> {
    let slice = bytes
        .get(*pos..*pos + 4)
        .ok_or_else(|| format!("truncated \\u escape at byte {}", *pos))?;
    let text = std::str::from_utf8(slice).map_err(|e| e.to_string())?;
    let code =
        u32::from_str_radix(text, 16).map_err(|_| format!("bad \\u escape at byte {}", *pos))?;
    *pos += 4;
    Ok(code)
}

fn parse_array(text: &str, pos: &mut usize) -> Result<Value, String> {
    let bytes = text.as_bytes();
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(items));
    }
    loop {
        items.push(parse_value(text, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {}", *pos)),
        }
    }
}

fn parse_object(text: &str, pos: &mut usize) -> Result<Value, String> {
    let bytes = text.as_bytes();
    expect(bytes, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(text, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        members.push((key, parse_value(text, pos)?));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(members));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {}", *pos)),
        }
    }
}

/// Appends `text` to `out` as a quoted JSON string, escaping quotes,
/// backslashes and control characters. Runs of bytes that need no escape
/// are copied as one slice: every byte that does is ASCII, so each run
/// starts and ends on a char boundary.
pub fn escape_into(out: &mut String, text: &str) {
    out.reserve(text.len() + 2);
    out.push('"');
    let mut run = 0;
    for (i, &b) in text.as_bytes().iter().enumerate() {
        let short = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0x00..=0x1f => None,
            _ => continue,
        };
        out.push_str(&text[run..i]);
        match short {
            Some(s) => out.push_str(s),
            None => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&text[run..]);
    out.push('"');
}

/// [`escape_into`] returning a fresh string.
pub fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    escape_into(&mut out, text);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_protocol_shapes() {
        let v = parse(r#"{"id":"j1","kind":"desync","options":{"period_ns":2.4,"strict":false,"false_paths":["a","b"]},"verilog":"module t;\nendmodule\n"}"#).unwrap();
        assert_eq!(v.get("id").unwrap().as_str(), Some("j1"));
        assert_eq!(v.get("kind").unwrap().as_str(), Some("desync"));
        let opts = v.get("options").unwrap();
        assert_eq!(opts.get("period_ns").unwrap().as_num(), Some(2.4));
        assert_eq!(opts.get("strict").unwrap().as_bool(), Some(false));
        assert_eq!(opts.get("false_paths").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(
            v.get("verilog").unwrap().as_str(),
            Some("module t;\nendmodule\n")
        );
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let nasty = "line1\nline\\2 \"quoted\"\ttab\u{0007}bell\u{1F600}";
        let encoded = escape(nasty);
        assert_eq!(parse(&encoded).unwrap().as_str(), Some(nasty));
    }

    /// The char-by-char escaper the run-copying [`escape_into`] replaced,
    /// kept as the reference it must match.
    fn reference_escape(text: &str) -> String {
        let mut out = String::from('"');
        for c in text.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    /// Seeded random strings drawn from every byte class — control bytes,
    /// quote, backslash, plain ASCII and 2- to 4-byte scalars — escape to
    /// the reference's bytes and decode back to themselves.
    #[test]
    fn run_copying_escape_matches_the_char_by_char_reference() {
        // SplitMix64: the crate has no dependencies, not even a PRNG.
        let mut state = 0x5EED_E5CA_9E00_u64;
        let mut next = move |n: u64| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        };
        let scalar = |range: (u32, u32), pick: u64| {
            let code = range.0 + (pick % u64::from(range.1 - range.0 + 1)) as u32;
            char::from_u32(code).unwrap_or('\u{fffd}')
        };
        for case in 0..2000 {
            let len = if case % 100 == 0 { 4096 } else { next(64) };
            let text: String = (0..len)
                .map(|_| match next(6) {
                    0 => scalar((0x00, 0x1f), next(1 << 32)),
                    1 => '"',
                    2 => '\\',
                    3 => scalar((0x20, 0x7f), next(1 << 32)),
                    4 => scalar((0x80, 0x7ff), next(1 << 32)),
                    _ if next(2) == 0 => scalar((0x800, 0xffff), next(1 << 32)),
                    _ => scalar((0x1_0000, 0x10_ffff), next(1 << 32)),
                })
                .collect();
            let got = escape(&text);
            assert_eq!(got, reference_escape(&text), "case {case}: {text:?}");
            assert_eq!(
                parse(&got).unwrap().as_str(),
                Some(text.as_str()),
                "case {case}"
            );
        }
    }

    #[test]
    fn surrogate_pairs_and_unicode_escapes_decode() {
        assert_eq!(parse(r#""A😀""#).unwrap().as_str(), Some("A\u{1F600}"));
        assert!(parse(r#""\ud83d""#).is_err(), "lone surrogate rejected");
    }

    /// A long string mixing 1- to 4-byte scalars with every kind of
    /// escape decodes exactly (and in linear time: the run copy must not
    /// rescan the rest of the input per character).
    #[test]
    fn long_mixed_string_decodes_exactly() {
        let pieces: [(&str, &str); 9] = [
            ("plain ascii ", "plain ascii "),
            ("\u{e9}t\u{e9} ", "\u{e9}t\u{e9} "),
            ("\u{20ac}\u{20ac}", "\u{20ac}\u{20ac}"),
            ("\u{1F600}", "\u{1F600}"),
            ("\\n\\t", "\n\t"),
            ("\\\"q\\\\", "\"q\\"),
            ("\\u00e9\\/", "\u{e9}/"),
            ("\\ud83d\\ude00", "\u{1F600}"),
            (
                "x\u{7f}\u{80}\u{7ff}\u{800}\u{ffff}\u{10000}\u{10ffff}",
                "x\u{7f}\u{80}\u{7ff}\u{800}\u{ffff}\u{10000}\u{10ffff}",
            ),
        ];
        let mut encoded = String::from("\"");
        let mut want = String::new();
        let mut i = 0usize;
        while encoded.len() < 256 * 1024 {
            let (enc, dec) = pieces[i % pieces.len()];
            encoded.push_str(enc);
            want.push_str(dec);
            i += 1;
        }
        encoded.push('"');
        assert!(encoded.len() >= 256 * 1024);
        assert_eq!(parse(&encoded).unwrap().as_str(), Some(want.as_str()));
        // Every rejection still fires after a long run.
        let mut raw_control = encoded[..encoded.len() - 1].to_owned();
        raw_control.push_str("\u{1}\"");
        assert!(parse(&raw_control).is_err(), "raw control byte accepted");
        assert!(
            parse(&encoded[..encoded.len() - 1]).is_err(),
            "unterminated accepted"
        );
    }

    #[test]
    fn malformed_inputs_are_rejected_with_positions() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "[1,2",
            "tru",
            "{\"a\":1}x",
            "\"unterminated",
            "{\"a\" 1}",
            "nan",
            "1e999",
        ] {
            assert!(parse(bad).is_err(), "accepted malformed input: {bad:?}");
        }
    }

    #[test]
    fn numbers_parse_including_negatives_and_exponents() {
        assert_eq!(parse("-3.25e2").unwrap().as_num(), Some(-325.0));
        assert_eq!(parse("0").unwrap().as_num(), Some(0.0));
    }
}
