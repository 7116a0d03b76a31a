//! Streaming zero-copy tokenizer for the structural-Verilog subset.
//!
//! The lexer borrows every identifier and constant directly out of the one
//! input buffer as `&str` slices — no per-token `String`, no token vector.
//! [`Lexer`] is a pull lexer with one token of lookahead: [`Lexer::peek`]
//! returns the current (`Copy`) token, [`Lexer::advance`] scans the next
//! one in place. Positions are byte offsets into the borrowed buffer;
//! line/column are derived lazily (only when an error is actually
//! reported) by [`line_col`].

use crate::NetlistError;

/// A lexical token borrowing its text from the source buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum TokenKind<'a> {
    /// Identifier or keyword. Escaped identifiers (`\foo `) arrive with the
    /// backslash stripped and `escaped == true`.
    Id {
        name: &'a str,
        escaped: bool,
    },
    /// A sized constant such as `1'b0` or `8'hFF`: (width, base, digits).
    /// `digits` is the raw slice — underscores are still present and are
    /// skipped when the constant's value is computed.
    SizedConst {
        width: u32,
        base: char,
        digits: &'a str,
    },
    /// A bare unsigned decimal number (used in ranges and indices).
    Number(u64),
    /// Single-character punctuation: `( ) [ ] { } , ; : . =` etc.
    Punct(char),
    Eof,
}

impl TokenKind<'_> {
    pub fn describe(&self) -> String {
        match self {
            TokenKind::Id { name, .. } => format!("identifier `{name}`"),
            TokenKind::SizedConst {
                width,
                base,
                digits,
            } => {
                format!("constant `{width}'{base}{digits}`")
            }
            TokenKind::Number(n) => format!("number `{n}`"),
            TokenKind::Punct(c) => format!("`{c}`"),
            TokenKind::Eof => "end of file".to_owned(),
        }
    }
}

/// 1-based (line, column) of byte `offset` in `src`, computed on demand.
///
/// Columns count characters, not bytes, so multi-byte identifiers report
/// the position a text editor shows. Offsets past the end (or mid
/// character, which token starts never are) are clamped to a boundary.
pub(super) fn line_col(src: &str, offset: usize) -> (usize, usize) {
    let mut offset = offset.min(src.len());
    while offset > 0 && !src.is_char_boundary(offset) {
        offset -= 1;
    }
    let before = &src[..offset];
    let line = 1 + before.bytes().filter(|&b| b == b'\n').count();
    let line_start = before.rfind('\n').map_or(0, |i| i + 1);
    let col = 1 + before[line_start..].chars().count();
    (line, col)
}

/// A [`NetlistError::Parse`] carrying the full span (byte offset plus the
/// derived line/column) of the offending token.
pub(super) fn error_at(src: &str, offset: usize, message: String) -> NetlistError {
    let (line, col) = line_col(src, offset);
    NetlistError::Parse {
        line,
        col,
        offset,
        message,
    }
}

/// Streaming tokenizer over one borrowed source buffer.
pub(super) struct Lexer<'a> {
    src: &'a str,
    /// Scan cursor: first byte not yet consumed by the current token.
    pos: usize,
    /// Byte offset where the current token starts.
    tok_start: usize,
    /// The current token (one-token lookahead).
    tok: TokenKind<'a>,
}

/// Byte classes, one table load per byte in the lexer's hot scans.
/// `ID_CONT`: may continue a plain identifier (`.` included: flattened
/// hierarchical names keep their dots). `ID_START`: may start one.
/// `SPACE`: whitespace the lexer skips. `PUNCT`: a one-byte punctuation
/// token.
const ID_CONT: u8 = 1;
const ID_START: u8 = 2;
const SPACE: u8 = 4;
const PUNCT: u8 = 8;

static CLASS: [u8; 256] = {
    let mut t = [0u8; 256];
    let mut i = 0usize;
    while i < 256 {
        let b = i as u8;
        if b.is_ascii_alphanumeric() || b == b'_' || b == b'$' || b == b'.' {
            t[i] |= ID_CONT;
        }
        if b.is_ascii_alphabetic() || b == b'_' || b == b'$' {
            t[i] |= ID_START;
        }
        if matches!(b, b' ' | b'\t' | b'\r' | b'\n') {
            t[i] |= SPACE;
        }
        if matches!(
            b,
            b'(' | b')' | b'[' | b']' | b'{' | b'}' | b',' | b';' | b':' | b'.' | b'=' | b'#'
        ) {
            t[i] |= PUNCT;
        }
        i += 1;
    }
    t
};

#[inline]
fn is(b: u8, class: u8) -> bool {
    CLASS[b as usize] & class != 0
}

impl<'a> Lexer<'a> {
    /// Starts lexing `src` at its first byte.
    pub fn new(src: &'a str) -> Result<Self, Box<NetlistError>> {
        let mut lx = Lexer {
            src,
            pos: 0,
            tok_start: 0,
            tok: TokenKind::Eof,
        };
        lx.advance()?;
        Ok(lx)
    }

    /// The current token. `Copy`, so no clone and no allocation.
    pub fn peek(&self) -> TokenKind<'a> {
        self.tok
    }

    /// Byte offset of the current token in the source buffer.
    pub fn offset(&self) -> usize {
        self.tok_start
    }

    fn err(&self, offset: usize, message: impl Into<String>) -> Box<NetlistError> {
        Box::new(error_at(self.src, offset, message.into()))
    }

    /// Scans the next token into `peek()`, skipping whitespace, `//` and
    /// `/* */` comments and `(* ... *)` attributes.
    pub fn advance(&mut self) -> Result<(), Box<NetlistError>> {
        let bytes = self.src.as_bytes();
        let n = bytes.len();
        let mut i = self.pos;
        // Skip trivia.
        loop {
            if i >= n {
                self.tok_start = n;
                self.pos = n;
                self.tok = TokenKind::Eof;
                return Ok(());
            }
            match bytes[i] {
                b if is(b, SPACE) => i += 1,
                b'/' if i + 1 < n && bytes[i + 1] == b'/' => {
                    while i < n && bytes[i] != b'\n' {
                        i += 1;
                    }
                }
                b'/' if i + 1 < n && bytes[i + 1] == b'*' => {
                    let open = i;
                    i += 2;
                    loop {
                        if i + 1 >= n {
                            return Err(self.err(open, "unterminated block comment"));
                        }
                        if bytes[i] == b'*' && bytes[i + 1] == b'/' {
                            i += 2;
                            break;
                        }
                        i += 1;
                    }
                }
                b'(' if i + 1 < n && bytes[i + 1] == b'*' => {
                    // Attribute instance `(* ... *)` — skipped.
                    let open = i;
                    i += 2;
                    loop {
                        if i + 1 >= n {
                            return Err(self.err(open, "unterminated attribute"));
                        }
                        if bytes[i] == b'*' && bytes[i + 1] == b')' {
                            i += 2;
                            break;
                        }
                        i += 1;
                    }
                }
                _ => break,
            }
        }
        self.tok_start = i;
        let c = bytes[i];
        self.tok = match c {
            c if is(c, PUNCT) => {
                i += 1;
                TokenKind::Punct(c as char)
            }
            c if is(c, ID_START) => {
                let start = i;
                i = ident_end(bytes, i + 1);
                TokenKind::Id {
                    name: &self.src[start..i],
                    escaped: false,
                }
            }
            b'\\' => {
                // Escaped identifier: up to the next whitespace. Only ASCII
                // whitespace terminates (per the LRM) — testing a raw byte
                // with `char::is_whitespace` would also match UTF-8
                // continuation bytes such as 0xA0 and split the slice in
                // the middle of a multi-byte character.
                let start = i + 1;
                let j = escaped_end(bytes, start);
                if j == start {
                    return Err(self.err(i, "empty escaped identifier"));
                }
                i = j;
                TokenKind::Id {
                    name: &self.src[start..j],
                    escaped: true,
                }
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < n && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let value: u64 = self.src[start..i]
                    .parse()
                    .map_err(|_| self.err(start, "number too large"))?;
                if i < n && bytes[i] == b'\'' {
                    if value > u64::from(u32::MAX) {
                        return Err(self.err(start, format!("constant width {value} too large")));
                    }
                    i += 1;
                    if i >= n {
                        return Err(self.err(start, "truncated sized constant"));
                    }
                    let base = (bytes[i] as char).to_ascii_lowercase();
                    if !matches!(base, 'b' | 'h' | 'd' | 'o') {
                        return Err(self.err(start, format!("unknown constant base `{base}`")));
                    }
                    i += 1;
                    let dstart = i;
                    while i < n {
                        let c = bytes[i].to_ascii_lowercase();
                        if c.is_ascii_hexdigit() || c == b'_' || c == b'x' || c == b'z' {
                            i += 1;
                        } else {
                            break;
                        }
                    }
                    if i == dstart {
                        return Err(self.err(start, "sized constant has no digits"));
                    }
                    TokenKind::SizedConst {
                        width: value as u32,
                        base,
                        digits: &self.src[dstart..i],
                    }
                } else {
                    TokenKind::Number(value)
                }
            }
            _ => {
                // Decode the full character for the message; `bytes[i] as
                // char` would print a mojibake lead byte for multi-byte
                // input.
                let other = self.src[i..].chars().next().unwrap_or('\u{FFFD}');
                return Err(self.err(i, format!("unexpected character `{other}`")));
            }
        };
        self.pos = i;
        Ok(())
    }

    /// Scans the connection every written netlist repeats once per pin,
    /// `.PIN(NET)`, in one pass over the bytes instead of one
    /// [`Lexer::advance`] per token. `NET` is a plain identifier, or an
    /// escaped one followed by whitespace; the pin name and `(` follow
    /// their `.` directly. The current token must be that `.`.
    ///
    /// On a match the current token becomes the closing `)` and the pin
    /// and net names come back (the net's flag says escaped), exactly as
    /// the token-by-token scan would have produced them. Anything else,
    /// including every input that would lex to an error, returns `None`
    /// and consumes nothing, so the caller's token-by-token path produces
    /// the same tokens and the same diagnostics as before.
    pub fn named_conn(&mut self) -> Option<(&'a str, &'a str, bool)> {
        if self.tok != TokenKind::Punct('.') {
            return None;
        }
        let bytes = self.src.as_bytes();
        let n = bytes.len();
        let pin_start = self.pos;
        if pin_start >= n || !is(bytes[pin_start], ID_START) {
            return None;
        }
        let pin_end = ident_end(bytes, pin_start + 1);
        if pin_end + 1 >= n || bytes[pin_end] != b'(' {
            return None;
        }
        // A net starts right after `(`; `(*` opens an attribute instead.
        let (net_start, escaped) = match bytes[pin_end + 1] {
            b'\\' => (pin_end + 2, true),
            c if is(c, ID_START) => (pin_end + 1, false),
            _ => return None,
        };
        let net_end = if escaped {
            escaped_end(bytes, net_start)
        } else {
            ident_end(bytes, net_start + 1)
        };
        if net_end == net_start {
            return None;
        }
        let mut i = net_end;
        while i < n && is(bytes[i], SPACE) {
            i += 1;
        }
        if i >= n || bytes[i] != b')' {
            return None;
        }
        self.tok_start = i;
        self.pos = i + 1;
        self.tok = TokenKind::Punct(')');
        Some((
            &self.src[pin_start..pin_end],
            &self.src[net_start..net_end],
            escaped,
        ))
    }
}

/// End of a plain identifier whose bytes from `start` on may continue it.
#[inline]
fn ident_end(bytes: &[u8], start: usize) -> usize {
    let mut j = start;
    while j < bytes.len() && is(bytes[j], ID_CONT) {
        j += 1;
    }
    j
}

/// End of an escaped identifier's name starting at `start`: the first
/// ASCII whitespace byte, or the end of the buffer.
#[inline]
fn escaped_end(bytes: &[u8], start: usize) -> usize {
    let mut j = start;
    while j < bytes.len() && !bytes[j].is_ascii_whitespace() {
        j += 1;
    }
    j
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::panic)]
    use super::*;

    /// Test helper reconstructing the legacy "tokenize everything" shape.
    fn kinds(src: &str) -> Result<Vec<TokenKind<'_>>, Box<NetlistError>> {
        let mut lx = Lexer::new(src)?;
        let mut out = Vec::new();
        loop {
            let t = lx.peek();
            let eof = matches!(t, TokenKind::Eof);
            out.push(t);
            if eof {
                return Ok(out);
            }
            lx.advance()?;
        }
    }

    #[test]
    fn identifiers_and_punct() {
        let toks = kinds("module top (a, b);").unwrap();
        assert_eq!(toks.len(), 9); // module top ( a , b ) ; EOF
        assert!(matches!(
            toks[0],
            TokenKind::Id {
                name: "module",
                escaped: false
            }
        ));
        assert!(matches!(toks[2], TokenKind::Punct('(')));
    }

    #[test]
    fn tokens_borrow_from_the_source_buffer() {
        let src = String::from("module top (a, b);");
        let lx = Lexer::new(&src).unwrap();
        let TokenKind::Id { name, .. } = lx.peek() else {
            panic!("expected identifier");
        };
        // Zero-copy: the token's text is a slice of the input allocation.
        let src_range = src.as_ptr() as usize..src.as_ptr() as usize + src.len();
        assert!(src_range.contains(&(name.as_ptr() as usize)));
    }

    #[test]
    fn comments_and_attributes_are_skipped() {
        let toks = kinds("a // line\n /* block\n */ b (* keep=1 *) c").unwrap();
        let names: Vec<_> = toks
            .iter()
            .filter_map(|t| match t {
                TokenKind::Id { name, .. } => Some(*name),
                _ => None,
            })
            .collect();
        assert_eq!(names, ["a", "b", "c"]);
    }

    #[test]
    fn escaped_identifier() {
        let toks = kinds("\\a+b[0] x").unwrap();
        assert!(matches!(
            toks[0],
            TokenKind::Id {
                name: "a+b[0]",
                escaped: true
            }
        ));
        assert!(matches!(
            toks[1],
            TokenKind::Id {
                name: "x",
                escaped: false
            }
        ));
    }

    #[test]
    fn sized_constants() {
        let toks = kinds("1'b0 8'hFF 4'd10 12'b0101_0101").unwrap();
        assert!(matches!(
            toks[0],
            TokenKind::SizedConst {
                width: 1,
                base: 'b',
                digits: "0"
            }
        ));
        assert!(matches!(
            toks[1],
            TokenKind::SizedConst {
                width: 8,
                base: 'h',
                digits: "FF"
            }
        ));
        assert!(matches!(
            toks[2],
            TokenKind::SizedConst {
                width: 4,
                base: 'd',
                digits: "10"
            }
        ));
        // Digits stay raw (underscores included) — the parser skips them
        // when computing the value.
        assert!(matches!(
            toks[3],
            TokenKind::SizedConst {
                width: 12,
                base: 'b',
                digits: "0101_0101"
            }
        ));
    }

    #[test]
    fn offsets_point_at_token_starts() {
        let src = "a\n  b\nc";
        let mut lx = Lexer::new(src).unwrap();
        assert_eq!(lx.offset(), 0);
        lx.advance().unwrap();
        assert_eq!(lx.offset(), 4); // `b` after "a\n  "
        assert_eq!(line_col(src, lx.offset()), (2, 3));
        lx.advance().unwrap();
        assert_eq!(line_col(src, lx.offset()), (3, 1));
        lx.advance().unwrap();
        assert!(matches!(lx.peek(), TokenKind::Eof));
        // Advancing past EOF is a no-op, not a panic.
        lx.advance().unwrap();
        assert!(matches!(lx.peek(), TokenKind::Eof));
    }

    #[test]
    fn line_col_counts_chars_not_bytes() {
        // 'é' is 2 bytes, 1 char: column must be 3 (1-based, after "é ").
        let src = "é x";
        assert_eq!(line_col(src, 3), (1, 3));
        // Clamped past the end.
        assert_eq!(line_col(src, 999), (1, 4));
    }

    #[test]
    fn bad_input_is_an_error() {
        assert!(kinds("a ? b").is_err());
        assert!(kinds("/* unterminated").is_err());
        assert!(kinds("4'q0").is_err());
    }

    #[test]
    fn lex_errors_carry_spans() {
        let Err(e) = kinds("ab\n cd ? x") else {
            panic!("expected error");
        };
        let NetlistError::Parse {
            line, col, offset, ..
        } = *e
        else {
            panic!("expected parse error");
        };
        assert_eq!(offset, 7);
        assert_eq!((line, col), (2, 5));
    }

    #[test]
    fn escaped_identifier_followed_by_nbsp_does_not_panic() {
        // U+00A0 is `char::is_whitespace` but its UTF-8 encoding starts
        // with 0xC2 — a byte-wise whitespace test would split the slice
        // mid-character and panic.
        let toks = kinds("\\a\u{00A0}b ").unwrap();
        assert!(matches!(toks[0], TokenKind::Id { escaped: true, .. }));
    }

    #[test]
    fn oversized_constant_width_is_an_error() {
        assert!(kinds("99999999999'b0").is_err());
        // A bare (unsized) huge number still errors only past u64.
        assert!(kinds("99999999999999999999999").is_err());
    }
}
