//! The G/A condition language: comparisons over signals combined with
//! Boolean connectives.
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

use crate::signal::SignalTrace;

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

/// A Boolean condition over signals. `S` refers to a comparison's
/// signal: its name as parsed, or what a caller resolved the names to
/// once (see [`resolve`](Expr::resolve)), such as a slot in a fixed
/// telemetry schema.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr<S = String> {
    /// `signal op constant`.
    Cmp(S, CmpOp, f64),
    /// Negation.
    Not(Box<Expr<S>>),
    /// Conjunction.
    And(Box<Expr<S>>, Box<Expr<S>>),
    /// Disjunction.
    Or(Box<Expr<S>>, Box<Expr<S>>),
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

impl Expr {
    /// Parses a condition.
    ///
    /// # Errors
    ///
    /// Returns [`ParseExprError`] on malformed input.
    ///
    /// ```
    /// use vdo_tears::Expr;
    /// let e = Expr::parse("load > 0.9 and not (throttled == 1)").unwrap();
    /// assert!(e.to_string().contains("load > 0.9"));
    /// ```
    pub fn parse(input: &str) -> Result<Expr, ParseExprError> {
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

    /// Evaluates the condition at a trace tick. `None` when any referenced
    /// signal has no value there (undecidable).
    #[must_use]
    pub fn eval(&self, trace: &SignalTrace, tick: u64) -> Option<bool> {
        self.eval_with(&move |name: &String| trace.value(name, tick))
    }

    /// All signal names referenced, in first-occurrence order without
    /// duplicates.
    #[must_use]
    pub fn signals(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect(&mut out);
        out
    }

    fn collect<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Expr::Cmp(n, _, _) => {
                if !out.contains(&n.as_str()) {
                    out.push(n);
                }
            }
            Expr::Not(e) => e.collect(out),
            Expr::And(a, b) | Expr::Or(a, b) => {
                a.collect(out);
                b.collect(out);
            }
        }
    }
}

impl<S> Expr<S> {
    /// Evaluates the condition against `value`, which maps a
    /// comparison's signal to its current value (`None` when the signal
    /// has none). This is the one evaluator: [`eval`](Expr::eval) reads
    /// a [`SignalTrace`] tick through it, and streaming monitors that
    /// keep only each signal's newest value call it directly, by name or
    /// by resolved slot. Connectives follow Kleene's three-valued logic,
    /// so an unknown operand only decides the result when the other one
    /// cannot.
    #[must_use]
    #[inline]
    pub fn eval_with<F>(&self, value: &F) -> Option<bool>
    where
        F: Fn(&S) -> Option<f64> + ?Sized,
    {
        match self {
            Expr::Cmp(signal, op, k) => value(signal).map(|v| op.eval(v, *k)),
            Expr::Not(e) => e.eval_with(value).map(|b| !b),
            Expr::And(a, b) => match (a.eval_with(value), b.eval_with(value)) {
                (Some(false), _) | (_, Some(false)) => Some(false),
                (Some(true), Some(true)) => Some(true),
                _ => None,
            },
            Expr::Or(a, b) => match (a.eval_with(value), b.eval_with(value)) {
                (Some(true), _) | (_, Some(true)) => Some(true),
                (Some(false), Some(false)) => Some(false),
                _ => None,
            },
        }
    }

    /// The same condition with each comparison's signal mapped through
    /// `resolve`: names resolved once to what a hot loop reads without
    /// comparing strings.
    #[must_use]
    pub fn resolve<T>(&self, resolve: &impl Fn(&S) -> T) -> Expr<T> {
        match self {
            Expr::Cmp(signal, op, k) => Expr::Cmp(resolve(signal), *op, *k),
            Expr::Not(e) => Expr::Not(Box::new(e.resolve(resolve))),
            Expr::And(a, b) => {
                Expr::And(Box::new(a.resolve(resolve)), Box::new(b.resolve(resolve)))
            }
            Expr::Or(a, b) => Expr::Or(Box::new(a.resolve(resolve)), Box::new(b.resolve(resolve))),
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Cmp(n, op, k) => write!(f, "{n} {op} {k}"),
            Expr::Not(e) => write!(f, "not ({e})"),
            Expr::And(a, b) => write!(f, "({a}) and ({b})"),
            Expr::Or(a, b) => write!(f, "({a}) or ({b})"),
        }
    }
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

    fn or_expr(&mut self) -> Result<Expr, ParseExprError> {
        let mut left = self.and_expr()?;
        while self.peek() == Some("or") {
            self.bump();
            let right = self.and_expr()?;
            left = Expr::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Expr, ParseExprError> {
        let mut left = self.not_expr()?;
        while self.peek() == Some("and") {
            self.bump();
            let right = self.not_expr()?;
            left = Expr::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<Expr, ParseExprError> {
        if self.peek() == Some("not") {
            self.bump();
            let inner = self.not_expr()?;
            return Ok(Expr::Not(Box::new(inner)));
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr, ParseExprError> {
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
                Ok(Expr::Cmp(name, op, k))
            }
            other => Err(self.err(format!("expected expression, found {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> SignalTrace {
        let mut t = SignalTrace::new();
        t.push_sample([("load", 0.95), ("throttled", 0.0)]);
        t.push_sample([("load", 0.40), ("throttled", 1.0)]);
        t
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
            assert_eq!(Expr::parse(s).unwrap(), Expr::Cmp("x".into(), op, 1.0));
        }
    }

    #[test]
    fn parse_precedence() {
        // or binds loosest: a and b or c == (a and b) or c
        let e = Expr::parse("a > 0 and b > 0 or c > 0").unwrap();
        assert!(matches!(e, Expr::Or(..)));
        let e = Expr::parse("a > 0 and (b > 0 or c > 0)").unwrap();
        assert!(matches!(e, Expr::And(..)));
    }

    #[test]
    fn parse_not_and_negative_numbers() {
        let e = Expr::parse("not temp <= -5.5").unwrap();
        assert_eq!(
            e,
            Expr::Not(Box::new(Expr::Cmp("temp".into(), CmpOp::Le, -5.5)))
        );
    }

    #[test]
    fn parse_errors() {
        assert!(Expr::parse("").is_err());
        assert!(Expr::parse("x >").is_err());
        assert!(Expr::parse("x > 1 garbage").is_err());
        assert!(Expr::parse("(x > 1").is_err());
        assert!(Expr::parse("x > 1 &").is_err());
        assert!(Expr::parse("> 1").is_err());
    }

    #[test]
    fn evaluation() {
        let t = trace();
        let e = Expr::parse("load > 0.9").unwrap();
        assert_eq!(e.eval(&t, 0), Some(true));
        assert_eq!(e.eval(&t, 1), Some(false));
        let both = Expr::parse("load > 0.9 and throttled == 0").unwrap();
        assert_eq!(both.eval(&t, 0), Some(true));
        let either = Expr::parse("load > 0.9 or throttled == 1").unwrap();
        assert_eq!(either.eval(&t, 1), Some(true));
    }

    #[test]
    fn evaluation_with_unknown_signal() {
        let t = trace();
        let e = Expr::parse("ghost > 0").unwrap();
        assert_eq!(e.eval(&t, 0), None);
        // Kleene: false ∧ unknown = false; true ∨ unknown = true.
        let and_false = Expr::parse("load < 0 and ghost > 0").unwrap();
        assert_eq!(and_false.eval(&t, 0), Some(false));
        let or_true = Expr::parse("load > 0.9 or ghost > 0").unwrap();
        assert_eq!(or_true.eval(&t, 0), Some(true));
        let and_unknown = Expr::parse("load > 0.9 and ghost > 0").unwrap();
        assert_eq!(and_unknown.eval(&t, 0), None);
    }

    #[test]
    fn signals_listing() {
        let e = Expr::parse("a > 0 and b < 1 or a == 2").unwrap();
        assert_eq!(e.signals(), vec!["a", "b"]);
    }

    #[test]
    fn display_round_trips_through_parser() {
        let e = Expr::parse("not (a > 0 and b <= 1.5) or c != 0").unwrap();
        let reparsed = Expr::parse(&e.to_string()).unwrap();
        assert_eq!(e, reparsed);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn arb_expr() -> impl Strategy<Value = Expr> {
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
                .prop_map(|(n, op, k)| Expr::Cmp(n, op, f64::from(k)));
            leaf.prop_recursive(4, 24, 3, |inner| {
                prop_oneof![
                    inner.clone().prop_map(|e| Expr::Not(Box::new(e))),
                    (inner.clone(), inner.clone())
                        .prop_map(|(a, b)| Expr::And(Box::new(a), Box::new(b))),
                    (inner.clone(), inner).prop_map(|(a, b)| Expr::Or(Box::new(a), Box::new(b))),
                ]
            })
        }

        proptest! {
            /// Display is an exact inverse of parse for generated ASTs.
            #[test]
            fn display_parse_round_trip(e in arb_expr()) {
                // Keywords can collide with generated identifiers
                // ("and > 1" is unparseable); skip those rare cases.
                prop_assume!(!e.signals().iter().any(|s| matches!(*s, "and" | "or" | "not")));
                let reparsed = Expr::parse(&e.to_string()).unwrap();
                prop_assert_eq!(e, reparsed);
            }

            /// The parser is total: arbitrary input returns Ok or Err,
            /// never panics.
            #[test]
            fn parser_never_panics(s in "\\PC{0,64}") {
                let _ = Expr::parse(&s);
            }
        }
    }
}
