//! Boolean functions in Liberty `function` syntax.
//!
//! Grammar (Liberty operator set): `!a` / `a'` invert, `^` xor, `&`/`*` and
//! (juxtaposition also means and), `|`/`+` or, parentheses, constants `0`
//! and `1`. Precedence, tightest first: invert, xor, and, or.

use std::collections::BTreeSet;
use std::fmt;

use crate::Lv;

/// A parsed boolean expression over named pins.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// A pin reference.
    Var(String),
    /// A constant `0` or `1`.
    Const(bool),
    /// Logical negation.
    Not(Box<Expr>),
    /// N-ary conjunction.
    And(Vec<Expr>),
    /// N-ary disjunction.
    Or(Vec<Expr>),
    /// Exclusive or.
    Xor(Box<Expr>, Box<Expr>),
}

/// Error from [`Expr::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseFunctionError {
    /// Byte offset in the input where parsing failed.
    pub at: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseFunctionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "function parse error at byte {}: {}",
            self.at, self.message
        )
    }
}

impl std::error::Error for ParseFunctionError {}

impl Expr {
    /// Parses a Liberty function string.
    ///
    /// # Errors
    /// Returns [`ParseFunctionError`] on malformed input.
    ///
    /// ```
    /// use drd_liberty::function::Expr;
    /// use drd_liberty::Lv;
    /// let f = Expr::parse("!(A & B) ^ C").unwrap();
    /// let value = f.eval(&mut |pin: &str| match pin {
    ///     "A" => Lv::One,
    ///     "B" => Lv::Zero,
    ///     _ => Lv::One,
    /// });
    /// assert_eq!(value, Lv::Zero);
    /// ```
    pub fn parse(input: &str) -> Result<Expr, ParseFunctionError> {
        let mut p = FnParser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        let expr = p.parse_or()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(ParseFunctionError {
                at: p.pos,
                message: "trailing input".into(),
            });
        }
        Ok(expr)
    }

    /// Evaluates the expression with pin values from `lookup`.
    pub fn eval(&self, lookup: &mut impl FnMut(&str) -> Lv) -> Lv {
        match self {
            Expr::Var(v) => lookup(v),
            Expr::Const(b) => Lv::from_bool(*b),
            Expr::Not(e) => !e.eval(lookup),
            Expr::And(es) => es.iter().fold(Lv::One, |acc, e| acc & e.eval(lookup)),
            Expr::Or(es) => es.iter().fold(Lv::Zero, |acc, e| acc | e.eval(lookup)),
            Expr::Xor(a, b) => a.eval(lookup) ^ b.eval(lookup),
        }
    }

    /// The set of pin names referenced, in sorted order.
    pub fn vars(&self) -> Vec<String> {
        let mut set = BTreeSet::new();
        self.collect_vars(&mut set);
        set.into_iter().collect()
    }

    fn collect_vars(&self, out: &mut BTreeSet<String>) {
        match self {
            Expr::Var(v) => {
                out.insert(v.clone());
            }
            Expr::Const(_) => {}
            Expr::Not(e) => e.collect_vars(out),
            Expr::And(es) | Expr::Or(es) => es.iter().for_each(|e| e.collect_vars(out)),
            Expr::Xor(a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Var(v) => f.write_str(v),
            Expr::Const(b) => write!(f, "{}", u8::from(*b)),
            Expr::Not(e) => write!(f, "!({e})"),
            Expr::And(es) => {
                let parts: Vec<String> = es.iter().map(|e| format!("({e})")).collect();
                f.write_str(&parts.join(" & "))
            }
            Expr::Or(es) => {
                let parts: Vec<String> = es.iter().map(|e| format!("({e})")).collect();
                f.write_str(&parts.join(" | "))
            }
            Expr::Xor(a, b) => write!(f, "({a}) ^ ({b})"),
        }
    }
}

struct FnParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl FnParser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && (self.bytes[self.pos] as char).is_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<char> {
        self.skip_ws();
        self.bytes.get(self.pos).map(|b| *b as char)
    }

    fn error(&self, message: impl Into<String>) -> ParseFunctionError {
        ParseFunctionError {
            at: self.pos,
            message: message.into(),
        }
    }

    fn parse_or(&mut self) -> Result<Expr, ParseFunctionError> {
        let mut terms = Vec::new();
        let mut term = self.parse_and()?;
        while matches!(self.peek(), Some('|') | Some('+')) {
            self.pos += 1;
            terms.push(term);
            term = self.parse_and()?;
        }
        Ok(if terms.is_empty() {
            term
        } else {
            terms.push(term);
            Expr::Or(terms)
        })
    }

    fn parse_and(&mut self) -> Result<Expr, ParseFunctionError> {
        let mut factors = Vec::new();
        let mut factor = self.parse_xor()?;
        loop {
            match self.peek() {
                Some('&') | Some('*') => self.pos += 1,
                // Juxtaposition: a following primary begins a new AND factor.
                Some(c) if c == '!' || c == '(' || c.is_ascii_alphanumeric() || c == '_' => {}
                _ => break,
            }
            factors.push(factor);
            factor = self.parse_xor()?;
        }
        Ok(if factors.is_empty() {
            factor
        } else {
            factors.push(factor);
            Expr::And(factors)
        })
    }

    fn parse_xor(&mut self) -> Result<Expr, ParseFunctionError> {
        let mut lhs = self.parse_unary()?;
        while self.peek() == Some('^') {
            self.pos += 1;
            let rhs = self.parse_unary()?;
            lhs = Expr::Xor(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<Expr, ParseFunctionError> {
        let mut expr = match self.peek() {
            Some('!') => {
                self.pos += 1;
                let inner = self.parse_unary()?;
                Expr::Not(Box::new(inner))
            }
            Some('(') => {
                self.pos += 1;
                let inner = self.parse_or()?;
                if self.peek() != Some(')') {
                    return Err(self.error("expected `)`"));
                }
                self.pos += 1;
                inner
            }
            Some('0') => {
                self.pos += 1;
                Expr::Const(false)
            }
            Some('1') => {
                self.pos += 1;
                Expr::Const(true)
            }
            Some(c) if c.is_ascii_alphabetic() || c == '_' => {
                let start = self.pos;
                while self.pos < self.bytes.len() {
                    let c = self.bytes[self.pos] as char;
                    if c.is_ascii_alphanumeric() || c == '_' || c == '[' || c == ']' {
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
                Expr::Var(
                    std::str::from_utf8(&self.bytes[start..self.pos])
                        .expect("ascii slice")
                        .to_owned(),
                )
            }
            Some(c) => return Err(self.error(format!("unexpected character `{c}`"))),
            None => return Err(self.error("unexpected end of input")),
        };
        // Postfix invert: `A'`.
        while self.peek() == Some('\'') {
            self.pos += 1;
            expr = Expr::Not(Box::new(expr));
        }
        Ok(expr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval_with(expr: &str, pins: &[(&str, Lv)]) -> Lv {
        let f = Expr::parse(expr).unwrap();
        f.eval(&mut |name: &str| {
            pins.iter()
                .find(|(p, _)| *p == name)
                .map(|(_, v)| *v)
                .unwrap_or(Lv::X)
        })
    }

    #[test]
    fn simple_gates() {
        assert_eq!(
            eval_with("A & B", &[("A", Lv::One), ("B", Lv::One)]),
            Lv::One
        );
        assert_eq!(
            eval_with("A | B", &[("A", Lv::Zero), ("B", Lv::One)]),
            Lv::One
        );
        assert_eq!(eval_with("!A", &[("A", Lv::Zero)]), Lv::One);
        assert_eq!(
            eval_with("A ^ B", &[("A", Lv::One), ("B", Lv::One)]),
            Lv::Zero
        );
    }

    #[test]
    fn liberty_operator_aliases() {
        assert_eq!(
            eval_with("A * B", &[("A", Lv::One), ("B", Lv::One)]),
            Lv::One
        );
        assert_eq!(
            eval_with("A + B", &[("A", Lv::Zero), ("B", Lv::Zero)]),
            Lv::Zero
        );
        assert_eq!(eval_with("A'", &[("A", Lv::One)]), Lv::Zero);
        // Juxtaposition is AND.
        assert_eq!(
            eval_with("A B", &[("A", Lv::One), ("B", Lv::Zero)]),
            Lv::Zero
        );
    }

    #[test]
    fn precedence_not_xor_and_or() {
        // !A ^ B & C | D  ==  ((!A ^ B) & C) | D
        let pins = [
            ("A", Lv::One),
            ("B", Lv::Zero),
            ("C", Lv::One),
            ("D", Lv::Zero),
        ];
        assert_eq!(eval_with("!A ^ B & C | D", &pins), Lv::Zero);
        assert_eq!(eval_with("((!A ^ B) & C) | D", &pins), Lv::Zero);
        assert_eq!(eval_with("!A ^ (B & (C | D))", &pins), Lv::Zero);
    }

    #[test]
    fn aoi_gate() {
        // AOI21: !(A1 & A2 | B)
        let f = "!((A1 & A2) | B)";
        assert_eq!(
            eval_with(f, &[("A1", Lv::One), ("A2", Lv::One), ("B", Lv::Zero)]),
            Lv::Zero
        );
        assert_eq!(
            eval_with(f, &[("A1", Lv::Zero), ("A2", Lv::X), ("B", Lv::Zero)]),
            Lv::One
        );
    }

    #[test]
    fn constants() {
        assert_eq!(eval_with("0", &[]), Lv::Zero);
        assert_eq!(eval_with("1 & A", &[("A", Lv::One)]), Lv::One);
    }

    #[test]
    fn vars_are_sorted_unique() {
        let f = Expr::parse("(B & A) | (A ^ C)").unwrap();
        assert_eq!(f.vars(), ["A", "B", "C"]);
    }

    #[test]
    fn bus_style_pin_names() {
        assert_eq!(
            eval_with("D[1] & D[0]", &[("D[1]", Lv::One), ("D[0]", Lv::One)]),
            Lv::One
        );
    }

    #[test]
    fn display_roundtrips_through_parse() {
        for src in ["!(A & B)", "A ^ B ^ C", "(A | B) & !C", "A' + B"] {
            let f = Expr::parse(src).unwrap();
            let g = Expr::parse(&f.to_string()).unwrap();
            // Compare by truth table over the referenced vars.
            let vars = f.vars();
            assert_eq!(vars, g.vars());
            for bits in 0..(1u32 << vars.len()) {
                let mut lk = |name: &str| {
                    let i = vars.iter().position(|v| v == name).unwrap();
                    Lv::from_bool((bits >> i) & 1 == 1)
                };
                assert_eq!(f.eval(&mut lk), g.eval(&mut lk), "src = {src}");
            }
        }
    }

    #[test]
    fn errors() {
        assert!(Expr::parse("").is_err());
        assert!(Expr::parse("A &").is_err());
        assert!(Expr::parse("(A").is_err());
        assert!(Expr::parse("A ? B").is_err());
    }
}
