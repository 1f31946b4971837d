//! JSON encode/decode for [`ArtifactSet`] revisions.
//!
//! Artifact sets travel between tools (a requirements repo checkout, a
//! CI job, the analysis service), so they need a stable wire form. The
//! workspace serde shim is serialise-only, so the decoders here are
//! hand-written over `serde::json::Value`; `encode_set` ∘ `decode_set`
//! is a semantic round-trip — the content fingerprint of the decoded
//! set equals the original's (property-tested in
//! `tests/fingerprints.rs`).
//!
//! Scope notes: TEARS conditions ride their canonical `Display` form
//! (which `vdo_tears::parse_guard` accepts), behavioural models ride the
//! `vdo-gwt` text format via `render_model`/`parse_model`, and GWT
//! scenario annotations are not carried — no lint reads them and they
//! are outside the analysis fingerprint.

use std::fmt;

use serde::json::Value;
use vdo_core::Guard;
use vdo_gwt::GraphModel;
use vdo_tears::GuardedAssertion;
use vdo_temporal::Formula;

use crate::artifact::{ArtifactSet, EntryArtifact};

/// A malformed document: what was expected, and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// Dotted path of the offending field.
    pub path: String,
    /// What went wrong.
    pub message: String,
}

impl DecodeError {
    fn new(path: impl Into<String>, message: impl Into<String>) -> Self {
        DecodeError {
            path: path.into(),
            message: message.into(),
        }
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "decode error at {}: {}", self.path, self.message)
    }
}

impl std::error::Error for DecodeError {}

fn field<'a>(v: &'a Value, key: &str, path: &str) -> Result<&'a Value, DecodeError> {
    match v {
        Value::Object(fields) => fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| DecodeError::new(format!("{path}.{key}"), "missing field")),
        _ => Err(DecodeError::new(path, "expected object")),
    }
}

fn opt_field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Object(fields) => fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .filter(|v| !matches!(v, Value::Null)),
        _ => None,
    }
}

fn as_str<'a>(v: &'a Value, path: &str) -> Result<&'a str, DecodeError> {
    match v {
        Value::String(s) => Ok(s),
        _ => Err(DecodeError::new(path, "expected string")),
    }
}

fn as_u64(v: &Value, path: &str) -> Result<u64, DecodeError> {
    match v {
        Value::UInt(n) => Ok(*n),
        _ => Err(DecodeError::new(path, "expected unsigned integer")),
    }
}

fn as_array<'a>(v: &'a Value, path: &str) -> Result<&'a [Value], DecodeError> {
    match v {
        Value::Array(items) => Ok(items),
        _ => Err(DecodeError::new(path, "expected array")),
    }
}

// ---------------------------------------------------------------------
// Entry expressions
// ---------------------------------------------------------------------

/// Encodes an entry's check expression as a tagged object. `True`
/// travels as the empty `all_of`, which decodes to an equivalent guard.
#[must_use]
pub fn encode_expr(e: &Guard<String>) -> Value {
    match e {
        Guard::True => serde::json::object([("all_of", Value::Array(Vec::new()))]),
        Guard::Atom(a) => serde::json::object([("atom", Value::String(a.clone()))]),
        Guard::Not(inner) => serde::json::object([("not", encode_expr(inner))]),
        Guard::And(es) => {
            serde::json::object([("all_of", Value::Array(es.iter().map(encode_expr).collect()))])
        }
        Guard::Or(es) => {
            serde::json::object([("any_of", Value::Array(es.iter().map(encode_expr).collect()))])
        }
    }
}

/// Decodes an entry's check expression.
///
/// # Errors
/// If the value is not a recognised tagged form.
pub fn decode_expr(v: &Value, path: &str) -> Result<Guard<String>, DecodeError> {
    let Value::Object(fields) = v else {
        return Err(DecodeError::new(path, "expected expression object"));
    };
    let [(tag, body)] = fields.as_slice() else {
        return Err(DecodeError::new(path, "expected exactly one tag field"));
    };
    match tag.as_str() {
        "atom" => Ok(Guard::atom(as_str(body, path)?)),
        "not" => Ok(Guard::not(decode_expr(body, &format!("{path}.not"))?)),
        "all_of" | "any_of" => {
            let items = as_array(body, path)?
                .iter()
                .enumerate()
                .map(|(i, item)| decode_expr(item, &format!("{path}.{tag}[{i}]")))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(if tag == "all_of" {
                Guard::And(items)
            } else {
                Guard::Or(items)
            })
        }
        other => Err(DecodeError::new(path, format!("unknown tag `{other}`"))),
    }
}

// ---------------------------------------------------------------------
// Formula
// ---------------------------------------------------------------------

/// Encodes an LTL formula as a tagged object.
#[must_use]
pub fn encode_formula(f: &Formula) -> Value {
    let pair = |tag: &str, a: &Formula, b: &Formula| {
        serde::json::object([(
            tag,
            Value::Array(vec![encode_formula(a), encode_formula(b)]),
        )])
    };
    match f {
        Formula::True => serde::json::object([("true", Value::Null)]),
        Formula::False => serde::json::object([("false", Value::Null)]),
        Formula::Atom(a) => serde::json::object([("atom", Value::String(a.clone()))]),
        Formula::Not(x) => serde::json::object([("not", encode_formula(x))]),
        Formula::And(a, b) => pair("and", a, b),
        Formula::Or(a, b) => pair("or", a, b),
        Formula::Implies(a, b) => pair("implies", a, b),
        Formula::Next(x) => serde::json::object([("next", encode_formula(x))]),
        Formula::Globally(x) => serde::json::object([("globally", encode_formula(x))]),
        Formula::Finally(x) => serde::json::object([("finally", encode_formula(x))]),
        Formula::Until(a, b) => pair("until", a, b),
        Formula::GloballyWithin(t, x) => serde::json::object([(
            "globally_within",
            serde::json::object([("bound", Value::UInt(*t)), ("of", encode_formula(x))]),
        )]),
        Formula::FinallyWithin(t, x) => serde::json::object([(
            "finally_within",
            serde::json::object([("bound", Value::UInt(*t)), ("of", encode_formula(x))]),
        )]),
    }
}

/// Decodes an LTL formula.
///
/// # Errors
/// If the value is not a recognised tagged form.
pub fn decode_formula(v: &Value, path: &str) -> Result<Formula, DecodeError> {
    let Value::Object(fields) = v else {
        return Err(DecodeError::new(path, "expected formula object"));
    };
    let [(tag, body)] = fields.as_slice() else {
        return Err(DecodeError::new(path, "expected exactly one tag field"));
    };
    let sub = |body: &Value, tag: &str| decode_formula(body, &format!("{path}.{tag}"));
    let pair = |body: &Value, tag: &str| -> Result<(Formula, Formula), DecodeError> {
        let items = as_array(body, path)?;
        let [a, b] = items else {
            return Err(DecodeError::new(path, "expected two operands"));
        };
        Ok((
            decode_formula(a, &format!("{path}.{tag}[0]"))?,
            decode_formula(b, &format!("{path}.{tag}[1]"))?,
        ))
    };
    let bounded = |body: &Value, tag: &str| -> Result<(u64, Formula), DecodeError> {
        let bound = as_u64(field(body, "bound", path)?, &format!("{path}.bound"))?;
        let of = decode_formula(field(body, "of", path)?, &format!("{path}.{tag}.of"))?;
        Ok((bound, of))
    };
    match tag.as_str() {
        "true" => Ok(Formula::True),
        "false" => Ok(Formula::False),
        "atom" => Ok(Formula::Atom(as_str(body, path)?.to_string())),
        "not" => Ok(Formula::Not(Box::new(sub(body, "not")?))),
        "and" => pair(body, "and").map(|(a, b)| Formula::And(Box::new(a), Box::new(b))),
        "or" => pair(body, "or").map(|(a, b)| Formula::Or(Box::new(a), Box::new(b))),
        "implies" => pair(body, "implies").map(|(a, b)| Formula::Implies(Box::new(a), Box::new(b))),
        "next" => Ok(Formula::Next(Box::new(sub(body, "next")?))),
        "globally" => Ok(Formula::Globally(Box::new(sub(body, "globally")?))),
        "finally" => Ok(Formula::Finally(Box::new(sub(body, "finally")?))),
        "until" => pair(body, "until").map(|(a, b)| Formula::Until(Box::new(a), Box::new(b))),
        "globally_within" => {
            bounded(body, "globally_within").map(|(t, x)| Formula::GloballyWithin(t, Box::new(x)))
        }
        "finally_within" => {
            bounded(body, "finally_within").map(|(t, x)| Formula::FinallyWithin(t, Box::new(x)))
        }
        other => Err(DecodeError::new(path, format!("unknown tag `{other}`"))),
    }
}

// ---------------------------------------------------------------------
// ArtifactSet
// ---------------------------------------------------------------------

fn encode_entry(e: &EntryArtifact) -> Value {
    serde::json::object([
        ("finding_id", Value::String(e.finding_id.clone())),
        ("package", Value::String(e.package.clone())),
        ("title", Value::String(e.title.clone())),
        (
            "severity",
            Value::String(
                match e.severity {
                    vdo_core::Severity::Low => "low",
                    vdo_core::Severity::Medium => "medium",
                    vdo_core::Severity::High => "high",
                }
                .to_string(),
            ),
        ),
        ("expr", e.expr.as_ref().map_or(Value::Null, encode_expr)),
    ])
}

fn decode_entry(v: &Value, path: &str) -> Result<EntryArtifact, DecodeError> {
    let severity = match as_str(field(v, "severity", path)?, path)? {
        "low" => vdo_core::Severity::Low,
        "medium" => vdo_core::Severity::Medium,
        "high" => vdo_core::Severity::High,
        other => {
            return Err(DecodeError::new(
                format!("{path}.severity"),
                format!("unknown severity `{other}`"),
            ))
        }
    };
    let mut e = EntryArtifact::new(as_str(field(v, "finding_id", path)?, path)?)
        .package(as_str(field(v, "package", path)?, path)?)
        .title(as_str(field(v, "title", path)?, path)?)
        .severity(severity);
    if let Some(expr) = opt_field(v, "expr") {
        e = e.expr(decode_expr(expr, &format!("{path}.expr"))?);
    }
    Ok(e)
}

/// Encodes a whole artifact-set revision.
#[must_use]
pub fn encode_set(set: &ArtifactSet) -> Value {
    serde::json::object([
        ("now", Value::UInt(set.now)),
        (
            "entries",
            Value::Array(set.entries.iter().map(encode_entry).collect()),
        ),
        (
            "waivers",
            Value::Array(
                set.waivers
                    .iter()
                    .map(|w| {
                        serde::json::object([
                            ("finding_id", Value::String(w.finding_id.clone())),
                            ("reason", Value::String(w.reason.clone())),
                            ("expires_at", w.expires_at.map_or(Value::Null, Value::UInt)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "formulas",
            Value::Array(
                set.formulas
                    .iter()
                    .map(|nf| {
                        serde::json::object([
                            ("name", Value::String(nf.name.clone())),
                            ("formula", encode_formula(&nf.formula)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "models",
            Value::Array(
                set.models
                    .iter()
                    .map(|m| Value::String(vdo_gwt::parse::render_model(m)))
                    .collect(),
            ),
        ),
        (
            "assertions",
            Value::Array(
                set.assertions
                    .iter()
                    .map(|a| Value::String(a.to_string()))
                    .collect(),
            ),
        ),
        (
            "dev_covered",
            Value::Array(
                set.dev_covered
                    .iter()
                    .map(|id| Value::String(id.clone()))
                    .collect(),
            ),
        ),
        (
            "ops_covered",
            Value::Array(
                set.ops_covered
                    .iter()
                    .map(|id| Value::String(id.clone()))
                    .collect(),
            ),
        ),
    ])
}

/// Decodes a whole artifact-set revision.
///
/// # Errors
/// If any field is missing or malformed, including unparsable model
/// text, assertion text, or expressions.
pub fn decode_set(v: &Value) -> Result<ArtifactSet, DecodeError> {
    let mut set = ArtifactSet::new().at_tick(as_u64(field(v, "now", "$")?, "$.now")?);
    for (i, entry) in as_array(field(v, "entries", "$")?, "$.entries")?
        .iter()
        .enumerate()
    {
        set = set.with_entry(decode_entry(entry, &format!("$.entries[{i}]"))?);
    }
    for (i, w) in as_array(field(v, "waivers", "$")?, "$.waivers")?
        .iter()
        .enumerate()
    {
        let path = format!("$.waivers[{i}]");
        set = set.with_waiver(vdo_core::Waiver {
            finding_id: as_str(field(w, "finding_id", &path)?, &path)?.to_string(),
            reason: as_str(field(w, "reason", &path)?, &path)?.to_string(),
            expires_at: match opt_field(w, "expires_at") {
                None => None,
                Some(t) => Some(as_u64(t, &format!("{path}.expires_at"))?),
            },
        });
    }
    for (i, nf) in as_array(field(v, "formulas", "$")?, "$.formulas")?
        .iter()
        .enumerate()
    {
        let path = format!("$.formulas[{i}]");
        set = set.with_formula(
            as_str(field(nf, "name", &path)?, &path)?,
            decode_formula(field(nf, "formula", &path)?, &format!("{path}.formula"))?,
        );
    }
    for (i, m) in as_array(field(v, "models", "$")?, "$.models")?
        .iter()
        .enumerate()
    {
        let path = format!("$.models[{i}]");
        let text = as_str(m, &path)?;
        let model: GraphModel = vdo_gwt::parse_model(text)
            .map_err(|e| DecodeError::new(&path, format!("unparsable model: {e:?}")))?;
        set = set.with_model(model);
    }
    for (i, a) in as_array(field(v, "assertions", "$")?, "$.assertions")?
        .iter()
        .enumerate()
    {
        let path = format!("$.assertions[{i}]");
        let text = as_str(a, &path)?;
        let ga: GuardedAssertion = GuardedAssertion::parse(text)
            .map_err(|e| DecodeError::new(&path, format!("unparsable assertion: {e:?}")))?;
        set = set.with_assertion(ga);
    }
    for (i, id) in as_array(field(v, "dev_covered", "$")?, "$.dev_covered")?
        .iter()
        .enumerate()
    {
        set = set.covered_dev(as_str(id, &format!("$.dev_covered[{i}]"))?);
    }
    for (i, id) in as_array(field(v, "ops_covered", "$")?, "$.ops_covered")?
        .iter()
        .enumerate()
    {
        set = set.covered_ops(as_str(id, &format!("$.ops_covered[{i}]"))?);
    }
    Ok(set)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::fingerprint_set;

    fn sample() -> ArtifactSet {
        let mut m = GraphModel::new("login");
        let idle = m.add_vertex("idle");
        let authed = m.add_vertex("authed");
        m.add_edge(idle, authed, "login_ok");
        m.add_edge(authed, idle, "logout");
        m.set_start(idle);
        ArtifactSet::new()
            .at_tick(42)
            .with_entry(
                EntryArtifact::new("V-1")
                    .package("os.ssh")
                    .title("no root login")
                    .severity(vdo_core::Severity::High)
                    .expr(Guard::all_of([
                        Guard::atom("permit_root=no"),
                        Guard::not(Guard::atom("protocol=1")),
                    ])),
            )
            .with_waiver(vdo_core::Waiver {
                finding_id: "V-1".into(),
                reason: "risk accepted for Q3".into(),
                expires_at: Some(99),
            })
            .with_formula(
                "response",
                Formula::globally(Formula::implies(
                    Formula::atom("req"),
                    Formula::finally(Formula::atom("resp")),
                )),
            )
            .with_model(m)
            .with_assertion(
                GuardedAssertion::parse("ga \"g\": when load > 0.5 then fan == 1 within 3")
                    .unwrap(),
            )
            .covered_dev("V-1")
            .covered_ops("V-1")
    }

    #[test]
    fn round_trip_preserves_fingerprint() {
        let set = sample();
        let decoded = decode_set(&encode_set(&set)).unwrap();
        assert_eq!(fingerprint_set(&set), fingerprint_set(&decoded));
        assert_eq!(set.entries, decoded.entries);
        assert_eq!(set.now, decoded.now);
    }

    #[test]
    fn decode_rejects_malformed() {
        let bad = serde::json::object([("now", Value::String("soon".into()))]);
        let err = decode_set(&bad).unwrap_err();
        assert!(err.to_string().contains("$.now"), "{err}");
    }

    #[test]
    fn formula_tags_round_trip() {
        let f = Formula::Until(
            Box::new(Formula::GloballyWithin(7, Box::new(Formula::True))),
            Box::new(Formula::Or(
                Box::new(Formula::atom("a")),
                Box::new(Formula::False),
            )),
        );
        let back = decode_formula(&encode_formula(&f), "$").unwrap();
        assert_eq!(f, back);
    }
}
