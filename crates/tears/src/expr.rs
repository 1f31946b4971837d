//! The G/A condition language: a [`Guard`] (the workspace's one
//! propositional guard type, from `vdo-core`) whose atoms are [`Cmp`]
//! comparisons `signal op constant`, and its parser, [`parse_guard`].
//! Conditions evaluate through [`Guard::eval`] in three-valued logic: a
//! comparison on a signal with no value is `Incomplete`.
//!
//! Grammar (precedence low → high):
//!
//! ```text
//! or_expr   := and_expr ("or" and_expr)*
//! and_expr  := not_expr ("and" not_expr)*
//! not_expr  := "not" not_expr | primary
//! primary   := "(" or_expr ")" | comparison
//! comparison:= ident op number
//! op        := ">=" | "<=" | ">" | "<" | "==" | "!="
//! ```

use std::fmt;

use vdo_core::{CheckStatus, Guard};

/// Comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `==`
    Eq,
    /// `!=`
    Ne,
}

impl CmpOp {
    fn eval(self, a: f64, b: f64) -> bool {
        match self {
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Eq => (a - b).abs() < f64::EPSILON,
            CmpOp::Ne => (a - b).abs() >= f64::EPSILON,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
        })
    }
}

/// `signal op constant`: the atom of a TEARS condition, which is a
/// [`Guard`] over comparisons. `S` refers to the signal: its name as
/// parsed, or what a caller mapped the names to once (see
/// [`GuardedAssertion::resolve`](crate::GuardedAssertion::resolve)),
/// such as a slot in a fixed telemetry schema.
#[derive(Debug, Clone, PartialEq)]
pub struct Cmp<S = String> {
    /// The compared signal.
    pub signal: S,
    /// The operator.
    pub op: CmpOp,
    /// The constant the signal's value is compared with.
    pub constant: f64,
}

impl<S> Cmp<S> {
    /// `signal op constant`.
    #[must_use]
    pub fn new(signal: S, op: CmpOp, constant: f64) -> Self {
        Cmp {
            signal,
            op,
            constant,
        }
    }

    /// The comparison's verdict on the signal's value: `Incomplete`
    /// when the signal has none.
    #[must_use]
    #[inline]
    pub fn eval(&self, value: Option<f64>) -> CheckStatus {
        value.map(|v| self.op.eval(v, self.constant)).into()
    }
}

impl<S: fmt::Display> fmt::Display for Cmp<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.signal, self.op, self.constant)
    }
}

/// Parse error with byte position context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseExprError {
    /// What was expected or found.
    pub message: String,
    /// Approximate token index.
    pub at: usize,
}

impl fmt::Display for ParseExprError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (near token {})", self.message, self.at)
    }
}

impl std::error::Error for ParseExprError {}

/// Parses a condition into a [`Guard`] over comparisons. `and` and
/// `or` chains associate to the left, one two-operand node per
/// connective, so the guard's `Display` is the canonical text that
/// parses back to it.
///
/// # Errors
///
/// Returns [`ParseExprError`] on malformed input.
///
/// ```
/// let g = vdo_tears::parse_guard("load > 0.9 and not (throttled == 1)").unwrap();
/// assert_eq!(g.to_string(), "(load > 0.9) and (not (throttled == 1))");
/// ```
pub fn parse_guard(input: &str) -> Result<Guard<Cmp>, ParseExprError> {
    let tokens = tokenize(input)?;
    let mut p = Parser { tokens, pos: 0 };
    let e = p.or_expr()?;
    if p.pos != p.tokens.len() {
        return Err(ParseExprError {
            message: format!("unexpected trailing token '{}'", p.tokens[p.pos]),
            at: p.pos,
        });
    }
    Ok(e)
}

fn tokenize(input: &str) -> Result<Vec<String>, ParseExprError> {
    let mut tokens = Vec::new();
    let mut chars = input.chars().peekable();
    while let Some(&c) = chars.peek() {
        if c.is_whitespace() {
            chars.next();
        } else if c.is_alphabetic() || c == '_' {
            let mut s = String::new();
            while let Some(&c) = chars.peek() {
                if c.is_alphanumeric() || c == '_' || c == '.' {
                    s.push(c);
                    chars.next();
                } else {
                    break;
                }
            }
            tokens.push(s);
        } else if c.is_ascii_digit() || c == '-' || c == '.' {
            let mut s = String::new();
            s.push(c);
            chars.next();
            while let Some(&c) = chars.peek() {
                if c.is_ascii_digit() || c == '.' {
                    s.push(c);
                    chars.next();
                } else {
                    break;
                }
            }
            tokens.push(s);
        } else if matches!(c, '(' | ')') {
            tokens.push(c.to_string());
            chars.next();
        } else if matches!(c, '>' | '<' | '=' | '!') {
            let mut s = String::new();
            s.push(c);
            chars.next();
            if chars.peek() == Some(&'=') {
                s.push('=');
                chars.next();
            }
            tokens.push(s);
        } else {
            return Err(ParseExprError {
                message: format!("unexpected character '{c}'"),
                at: tokens.len(),
            });
        }
    }
    Ok(tokens)
}

struct Parser {
    tokens: Vec<String>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&str> {
        self.tokens.get(self.pos).map(String::as_str)
    }
    fn bump(&mut self) -> Option<String> {
        let t = self.tokens.get(self.pos).cloned();
        self.pos += 1;
        t
    }
    fn err(&self, message: impl Into<String>) -> ParseExprError {
        ParseExprError {
            message: message.into(),
            at: self.pos,
        }
    }

    fn or_expr(&mut self) -> Result<Guard<Cmp>, ParseExprError> {
        let mut left = self.and_expr()?;
        while self.peek() == Some("or") {
            self.bump();
            let right = self.and_expr()?;
            left = Guard::Or(vec![left, right]);
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Guard<Cmp>, ParseExprError> {
        let mut left = self.not_expr()?;
        while self.peek() == Some("and") {
            self.bump();
            let right = self.not_expr()?;
            left = Guard::And(vec![left, right]);
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<Guard<Cmp>, ParseExprError> {
        if self.peek() == Some("not") {
            self.bump();
            let inner = self.not_expr()?;
            return Ok(Guard::not(inner));
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Guard<Cmp>, ParseExprError> {
        match self.peek() {
            Some("(") => {
                self.bump();
                let e = self.or_expr()?;
                if self.bump().as_deref() != Some(")") {
                    return Err(self.err("expected ')'"));
                }
                Ok(e)
            }
            Some(t)
                if t.chars()
                    .next()
                    .is_some_and(|c| c.is_alphabetic() || c == '_') =>
            {
                let name = self.bump().expect("peeked");
                let op_token = self.bump();
                let op = match op_token.as_deref() {
                    Some(">") => CmpOp::Gt,
                    Some(">=") => CmpOp::Ge,
                    Some("<") => CmpOp::Lt,
                    Some("<=") => CmpOp::Le,
                    Some("==") => CmpOp::Eq,
                    Some("!=") => CmpOp::Ne,
                    other => {
                        let msg = format!("expected comparison operator, found {other:?}");
                        return Err(self.err(msg));
                    }
                };
                let num = match self.bump() {
                    Some(n) => n,
                    None => return Err(self.err("expected number")),
                };
                let k: f64 = num
                    .parse()
                    .map_err(|_| self.err(format!("invalid number '{num}'")))?;
                Ok(Guard::Atom(Cmp::new(name, op, k)))
            }
            other => Err(self.err(format!("expected expression, found {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::SignalTrace;

    fn trace() -> SignalTrace {
        let mut t = SignalTrace::new();
        t.push_sample([("load", 0.95), ("throttled", 0.0)]);
        t.push_sample([("load", 0.40), ("throttled", 1.0)]);
        t
    }

    fn cmp(name: &str, op: CmpOp, k: f64) -> Guard<Cmp> {
        Guard::Atom(Cmp::new(name.to_string(), op, k))
    }

    #[test]
    fn parse_comparisons() {
        for (s, op) in [
            ("x > 1", CmpOp::Gt),
            ("x >= 1", CmpOp::Ge),
            ("x < 1", CmpOp::Lt),
            ("x <= 1", CmpOp::Le),
            ("x == 1", CmpOp::Eq),
            ("x != 1", CmpOp::Ne),
        ] {
            assert_eq!(parse_guard(s).unwrap(), cmp("x", op, 1.0));
        }
    }

    #[test]
    fn parse_precedence() {
        // or binds loosest: a and b or c == (a and b) or c
        let e = parse_guard("a > 0 and b > 0 or c > 0").unwrap();
        assert!(matches!(e, Guard::Or(..)));
        let e = parse_guard("a > 0 and (b > 0 or c > 0)").unwrap();
        assert!(matches!(e, Guard::And(..)));
    }

    #[test]
    fn chains_associate_left_in_two_operand_nodes() {
        let e = parse_guard("a > 0 and b > 0 and c > 0").unwrap();
        let ab = Guard::And(vec![cmp("a", CmpOp::Gt, 0.0), cmp("b", CmpOp::Gt, 0.0)]);
        assert_eq!(e, Guard::And(vec![ab, cmp("c", CmpOp::Gt, 0.0)]));
        assert_eq!(e.to_string(), "((a > 0) and (b > 0)) and (c > 0)");
    }

    #[test]
    fn parse_not_and_negative_numbers() {
        let e = parse_guard("not temp <= -5.5").unwrap();
        assert_eq!(e, Guard::not(cmp("temp", CmpOp::Le, -5.5)));
    }

    #[test]
    fn parse_errors() {
        assert!(parse_guard("").is_err());
        assert!(parse_guard("x >").is_err());
        assert!(parse_guard("x > 1 garbage").is_err());
        assert!(parse_guard("(x > 1").is_err());
        assert!(parse_guard("x > 1 &").is_err());
        assert!(parse_guard("> 1").is_err());
    }

    #[test]
    fn evaluation() {
        let t = trace();
        let e = parse_guard("load > 0.9").unwrap();
        assert_eq!(t.eval(&e, 0), CheckStatus::Pass);
        assert_eq!(t.eval(&e, 1), CheckStatus::Fail);
        let both = parse_guard("load > 0.9 and throttled == 0").unwrap();
        assert_eq!(t.eval(&both, 0), CheckStatus::Pass);
        let either = parse_guard("load > 0.9 or throttled == 1").unwrap();
        assert_eq!(t.eval(&either, 1), CheckStatus::Pass);
    }

    #[test]
    fn evaluation_with_unknown_signal() {
        let t = trace();
        let e = parse_guard("ghost > 0").unwrap();
        assert_eq!(t.eval(&e, 0), CheckStatus::Incomplete);
        // Kleene: false ∧ unknown = false; true ∨ unknown = true.
        let and_false = parse_guard("load < 0 and ghost > 0").unwrap();
        assert_eq!(t.eval(&and_false, 0), CheckStatus::Fail);
        let or_true = parse_guard("load > 0.9 or ghost > 0").unwrap();
        assert_eq!(t.eval(&or_true, 0), CheckStatus::Pass);
        let and_unknown = parse_guard("load > 0.9 and ghost > 0").unwrap();
        assert_eq!(t.eval(&and_unknown, 0), CheckStatus::Incomplete);
    }

    #[test]
    fn atoms_listing() {
        let e = parse_guard("a > 0 and b < 1 or a > 0").unwrap();
        let signals: Vec<&str> = e.atoms().iter().map(|c| c.signal.as_str()).collect();
        assert_eq!(signals, vec!["a", "b"]);
    }

    #[test]
    fn display_round_trips_through_parser() {
        let e = parse_guard("not (a > 0 and b <= 1.5) or c != 0").unwrap();
        let reparsed = parse_guard(&e.to_string()).unwrap();
        assert_eq!(e, reparsed);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn arb_expr() -> impl Strategy<Value = Guard<Cmp>> {
            let leaf = (
                "[a-z][a-z0-9_]{0,6}",
                prop::sample::select(vec![
                    CmpOp::Gt,
                    CmpOp::Ge,
                    CmpOp::Lt,
                    CmpOp::Le,
                    CmpOp::Eq,
                    CmpOp::Ne,
                ]),
                -1000i32..1000,
            )
                .prop_map(|(n, op, k)| Guard::Atom(Cmp::new(n, op, f64::from(k))));
            leaf.prop_recursive(4, 24, 3, |inner| {
                prop_oneof![
                    inner.clone().prop_map(Guard::not),
                    (inner.clone(), inner.clone()).prop_map(|(a, b)| Guard::And(vec![a, b])),
                    (inner.clone(), inner).prop_map(|(a, b)| Guard::Or(vec![a, b])),
                ]
            })
        }

        proptest! {
            /// Display is an exact inverse of parse for generated
            /// two-operand trees (the shape the parser builds).
            #[test]
            fn display_parse_round_trip(e in arb_expr()) {
                // Keywords can collide with generated identifiers
                // ("and > 1" is unparseable); skip those rare cases.
                prop_assume!(!e.atoms().iter().any(|c| matches!(c.signal.as_str(), "and" | "or" | "not")));
                let reparsed = parse_guard(&e.to_string()).unwrap();
                prop_assert_eq!(e, reparsed);
            }

            /// The parser is total: arbitrary input returns Ok or Err,
            /// never panics.
            #[test]
            fn parser_never_panics(s in "\\PC{0,64}") {
                let _ = parse_guard(&s);
            }
        }
    }
}
