//! Deterministic trace contexts: the causal identity every artifact in
//! the closed loop carries.
//!
//! A [`TraceContext`] names one node in a causal tree: the trace it
//! belongs to ([`TraceId`]), its own span ([`SpanId`]), and its parent
//! span when it has one. Roots are derived as a pure hash of
//! `(seed, artifact id)` and children as a pure hash of
//! `(trace, parent span, label)`, so equal-seed runs mint bit-identical
//! ids at any worker count — the same discipline the SOC engine uses
//! for host→shard routing and fault rolls. No global state, no RNG, no
//! clock: a context can be re-derived anywhere in the loop from the
//! same inputs and it will match.

use std::fmt;

use serde::Serialize;
use vdo_obs::hash::{fnv1a, mix64, FNV_OFFSET};

/// Identity of one causal trace (one requirement, commit, or alert
/// lineage). Displayed as 16 hex digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(pub u64);

/// Identity of one span within a trace. Displayed as 16 hex digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// One node of a causal tree: trace id, own span, optional parent span.
///
/// `Copy` on purpose — contexts ride inside `Incident`, `Envelope`, and
/// `Detection` values without disturbing their existing `Copy`/`Clone`
/// derives, and stamping one costs two u64 hashes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceContext {
    /// The trace this span belongs to.
    pub trace_id: TraceId,
    /// This span's identity.
    pub span_id: SpanId,
    /// The parent span, `None` at the root.
    pub parent: Option<SpanId>,
}

impl TraceContext {
    /// Mints the root context for an artifact: a pure function of the
    /// run seed and the artifact's stable id (a catalogue finding id, a
    /// commit id, an assertion name). Equal inputs yield equal
    /// contexts, which is what lets an incident minted deep in the
    /// operations phase resolve back to the requirement ingested at
    /// development.
    #[must_use]
    pub fn root(seed: u64, artifact_id: &str) -> Self {
        let trace = mix64(fnv1a(FNV_OFFSET ^ seed, artifact_id.as_bytes()));
        TraceContext {
            trace_id: TraceId(trace),
            span_id: SpanId(mix64(trace ^ 0x5EED_0F0F)),
            parent: None,
        }
    }

    /// Derives a child span for a processing step named `label`
    /// (e.g. `"compliance"`, `"deploy"`, `"detect"`).
    #[must_use]
    pub fn child(&self, label: &str) -> Self {
        let h = fnv1a(
            self.trace_id.0 ^ self.span_id.0.rotate_left(17),
            label.as_bytes(),
        );
        TraceContext {
            trace_id: self.trace_id,
            span_id: SpanId(mix64(h)),
            parent: Some(self.span_id),
        }
    }

    /// Like [`child`](Self::child), but additionally keyed by a number
    /// (a tick, an attempt index) without allocating — for repeated
    /// steps that each need a distinct span.
    #[must_use]
    pub fn child_u64(&self, label: &str, n: u64) -> Self {
        let h = fnv1a(
            self.trace_id.0 ^ self.span_id.0.rotate_left(17),
            label.as_bytes(),
        );
        TraceContext {
            trace_id: self.trace_id,
            span_id: SpanId(mix64(fnv1a(h, &n.to_le_bytes()))),
            parent: Some(self.span_id),
        }
    }

    /// `true` when this span is the root of its trace.
    #[must_use]
    pub fn is_root(&self) -> bool {
        self.parent.is_none()
    }
}

impl fmt::Display for TraceContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.trace_id, self.span_id)?;
        if let Some(p) = self.parent {
            write!(f, "<{p}")?;
        }
        Ok(())
    }
}

impl Serialize for TraceContext {
    fn to_value(&self) -> serde::json::Value {
        serde::json::object([
            ("trace_id", self.trace_id.to_string().to_value()),
            ("span_id", self.span_id.to_string().to_value()),
            ("parent", self.parent.map(|p| p.to_string()).to_value()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roots_are_pure_functions_of_seed_and_id() {
        let a = TraceContext::root(7, "V-219161");
        let b = TraceContext::root(7, "V-219161");
        assert_eq!(a, b);
        assert!(a.is_root());
        assert_ne!(a, TraceContext::root(8, "V-219161"), "seed matters");
        assert_ne!(a, TraceContext::root(7, "V-219162"), "artifact matters");
    }

    #[test]
    fn children_stay_in_the_trace_and_chain_parents() {
        let root = TraceContext::root(3, "commit-0001");
        let gate = root.child("compliance");
        assert_eq!(gate.trace_id, root.trace_id);
        assert_eq!(gate.parent, Some(root.span_id));
        assert!(!gate.is_root());
        let deploy = gate.child("deploy");
        assert_eq!(deploy.parent, Some(gate.span_id));
        assert_ne!(root.child("a"), root.child("b"));
        assert_eq!(root.child("a"), root.child("a"), "derivation is pure");
    }

    #[test]
    fn numbered_children_are_distinct_per_index() {
        let root = TraceContext::root(0, "V-1");
        let a0 = root.child_u64("attempt", 0);
        let a1 = root.child_u64("attempt", 1);
        assert_ne!(a0.span_id, a1.span_id);
        assert_eq!(a0, root.child_u64("attempt", 0));
        assert_eq!(a0.trace_id, root.trace_id);
    }

    #[test]
    fn display_renders_hex_chain() {
        let root = TraceContext::root(1, "x");
        let s = root.to_string();
        assert_eq!(s.len(), 33, "16 hex + ':' + 16 hex");
        let child = root.child("step");
        assert!(child.to_string().contains('<'));
    }

    #[test]
    fn serialises_to_json_object() {
        let c = TraceContext::root(1, "x").child("y");
        let json = serde::json::to_string(&c);
        assert!(json.contains("\"trace_id\""));
        assert!(json.contains("\"parent\":\""));
    }
}
