//! Stable content fingerprints for analysis artifacts.
//!
//! Every artifact kind gets a 64-bit [`Fingerprint`] computed from the
//! fields the lints actually read — identity, structure, and every
//! analysis-relevant attribute. Two artifacts with equal fingerprints
//! are treated as interchangeable by the incremental engine's memo
//! table, so the hash must change whenever *any* lint-visible field
//! changes (property-tested in `tests/fingerprints.rs`) and must be
//! independent of heap addresses, iteration order, and process state.
//!
//! The hash is FNV-1a 64 with tagged, length-prefixed writes: every
//! enum variant and field boundary contributes a tag byte, and every
//! variable-length field is prefixed with its length, so distinct
//! structures cannot collide by concatenation (`("ab","c")` vs
//! `("a","bc")`).
//!
//! Whole-set fingerprints ([`fingerprint_set`]) combine the sorted list
//! of per-artifact fingerprints per kind, which makes them invariant
//! under artifact iteration order without the duplicate-cancellation
//! hazard of XOR folding.

use vdo_gwt::GraphModel;
use vdo_obs::hash::{fnv1a, FNV_OFFSET};
use vdo_tears::GuardedAssertion;
use vdo_temporal::Formula;

use crate::artifact::{ArtifactSet, EntryArtifact, NamedFormula, ReqExpr};

/// A 64-bit content fingerprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fingerprint(pub u64);

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl Fingerprint {
    /// Order-dependent combination of several fingerprints (used for
    /// closures, where position carries meaning).
    #[must_use]
    pub fn combine(parts: impl IntoIterator<Item = Fingerprint>) -> Fingerprint {
        let mut h = Hasher::new();
        for p in parts {
            h.write_u64(p.0);
        }
        h.finish()
    }

    /// Order-independent combination: sorts the parts first. Duplicates
    /// still contribute (unlike XOR folding, where a pair cancels).
    #[must_use]
    pub fn combine_unordered(parts: impl IntoIterator<Item = Fingerprint>) -> Fingerprint {
        let mut v: Vec<Fingerprint> = parts.into_iter().collect();
        v.sort_unstable();
        Fingerprint::combine(v)
    }
}

/// Incremental FNV-1a 64 hasher with structure-aware writes.
#[derive(Debug, Clone)]
pub struct Hasher {
    state: u64,
}

impl Default for Hasher {
    fn default() -> Self {
        Hasher::new()
    }
}

impl Hasher {
    /// A fresh hasher at the FNV offset basis.
    #[must_use]
    pub fn new() -> Self {
        Hasher { state: FNV_OFFSET }
    }

    fn write_raw(&mut self, bytes: &[u8]) {
        self.state = fnv1a(self.state, bytes);
    }

    /// One tag byte (enum variant / field separator).
    pub fn write_tag(&mut self, tag: u8) {
        self.write_raw(&[tag]);
    }

    /// A fixed-width integer.
    pub fn write_u64(&mut self, v: u64) {
        self.write_raw(&v.to_le_bytes());
    }

    /// A boolean as one byte.
    pub fn write_bool(&mut self, v: bool) {
        self.write_raw(&[u8::from(v)]);
    }

    /// A length-prefixed string.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_raw(s.as_bytes());
    }

    /// The finished fingerprint.
    #[must_use]
    pub fn finish(&self) -> Fingerprint {
        Fingerprint(self.state)
    }
}

/// Fingerprint of a symbolic requirement expression (raw structure,
/// not the normal form — the analyzer's messages embed the raw shape).
#[must_use]
pub fn fingerprint_expr(e: &ReqExpr) -> Fingerprint {
    let mut h = Hasher::new();
    hash_expr(&mut h, e);
    h.finish()
}

fn hash_expr(h: &mut Hasher, e: &ReqExpr) {
    match e {
        ReqExpr::Atom(a) => {
            h.write_tag(1);
            h.write_str(a);
        }
        ReqExpr::Not(inner) => {
            h.write_tag(2);
            hash_expr(h, inner);
        }
        ReqExpr::AllOf(es) => {
            h.write_tag(3);
            h.write_u64(es.len() as u64);
            for e in es {
                hash_expr(h, e);
            }
        }
        ReqExpr::AnyOf(es) => {
            h.write_tag(4);
            h.write_u64(es.len() as u64);
            for e in es {
                hash_expr(h, e);
            }
        }
    }
}

/// Fingerprint of a catalogue entry (every field).
#[must_use]
pub fn fingerprint_entry(e: &EntryArtifact) -> Fingerprint {
    let mut h = Hasher::new();
    h.write_tag(b'E');
    h.write_str(&e.finding_id);
    h.write_str(&e.package);
    h.write_str(&e.title);
    h.write_tag(match e.severity {
        vdo_core::Severity::Low => 1,
        vdo_core::Severity::Medium => 2,
        vdo_core::Severity::High => 3,
    });
    match &e.expr {
        None => h.write_tag(0),
        Some(expr) => {
            h.write_tag(1);
            hash_expr(&mut h, expr);
        }
    }
    h.finish()
}

/// Fingerprint of a waiver (id, reason, expiry).
#[must_use]
pub fn fingerprint_waiver(w: &vdo_core::Waiver) -> Fingerprint {
    let mut h = Hasher::new();
    h.write_tag(b'W');
    h.write_str(&w.finding_id);
    h.write_str(&w.reason);
    match w.expires_at {
        None => h.write_tag(0),
        Some(t) => {
            h.write_tag(1);
            h.write_u64(t);
        }
    }
    h.finish()
}

/// Fingerprint of an LTL formula (full structure).
#[must_use]
pub fn fingerprint_formula(f: &Formula) -> Fingerprint {
    let mut h = Hasher::new();
    hash_formula(&mut h, f);
    h.finish()
}

fn hash_formula(h: &mut Hasher, f: &Formula) {
    match f {
        Formula::True => h.write_tag(1),
        Formula::False => h.write_tag(2),
        Formula::Atom(a) => {
            h.write_tag(3);
            h.write_str(a);
        }
        Formula::Not(x) => {
            h.write_tag(4);
            hash_formula(h, x);
        }
        Formula::And(a, b) => {
            h.write_tag(5);
            hash_formula(h, a);
            hash_formula(h, b);
        }
        Formula::Or(a, b) => {
            h.write_tag(6);
            hash_formula(h, a);
            hash_formula(h, b);
        }
        Formula::Implies(a, b) => {
            h.write_tag(7);
            hash_formula(h, a);
            hash_formula(h, b);
        }
        Formula::Next(x) => {
            h.write_tag(8);
            hash_formula(h, x);
        }
        Formula::Globally(x) => {
            h.write_tag(9);
            hash_formula(h, x);
        }
        Formula::Finally(x) => {
            h.write_tag(10);
            hash_formula(h, x);
        }
        Formula::Until(a, b) => {
            h.write_tag(11);
            hash_formula(h, a);
            hash_formula(h, b);
        }
        Formula::GloballyWithin(t, x) => {
            h.write_tag(12);
            h.write_u64(*t);
            hash_formula(h, x);
        }
        Formula::FinallyWithin(t, x) => {
            h.write_tag(13);
            h.write_u64(*t);
            hash_formula(h, x);
        }
    }
}

/// Fingerprint of a named monitor formula.
#[must_use]
pub fn fingerprint_named_formula(nf: &NamedFormula) -> Fingerprint {
    let mut h = Hasher::new();
    h.write_tag(b'F');
    h.write_str(&nf.name);
    hash_formula(&mut h, &nf.formula);
    h.finish()
}

/// Fingerprint of a behavioural model: name, start vertex, vertices in
/// id order, edges in id order (endpoints + action). Scenario
/// annotations are excluded — no lint reads them, so a
/// scenario-only edit must not invalidate cached verdicts.
#[must_use]
pub fn fingerprint_model(m: &GraphModel) -> Fingerprint {
    let mut h = Hasher::new();
    h.write_tag(b'M');
    h.write_str(m.name());
    match m.start() {
        None => h.write_tag(0),
        Some(v) => {
            h.write_tag(1);
            h.write_u64(v as u64);
        }
    }
    h.write_u64(m.vertex_count() as u64);
    for v in 0..m.vertex_count() {
        h.write_str(m.vertex_name(v));
    }
    h.write_u64(m.edge_count() as u64);
    for e in 0..m.edge_count() {
        let (from, to) = m.edge_endpoints(e);
        h.write_u64(from as u64);
        h.write_u64(to as u64);
        h.write_str(m.edge_action(e));
    }
    h.finish()
}

/// Fingerprint of a TEARS guarded assertion. The guard and assertion
/// expressions hash through their canonical `Display` form, which
/// `Expr::parse` round-trips.
#[must_use]
pub fn fingerprint_assertion(ga: &GuardedAssertion) -> Fingerprint {
    let mut h = Hasher::new();
    h.write_tag(b'A');
    h.write_str(ga.name());
    h.write_str(&ga.guard().to_string());
    h.write_str(&ga.assertion().to_string());
    h.write_u64(ga.within());
    h.finish()
}

/// Whole-set fingerprint, invariant under the iteration order of every
/// per-kind collection (each kind contributes its *sorted* fingerprint
/// list) but sensitive to `now`, coverage, and every artifact field.
#[must_use]
pub fn fingerprint_set(set: &ArtifactSet) -> Fingerprint {
    let mut h = Hasher::new();
    h.write_tag(b'S');
    h.write_u64(set.now);
    h.write_u64(Fingerprint::combine_unordered(set.entries.iter().map(fingerprint_entry)).0);
    h.write_u64(Fingerprint::combine_unordered(set.waivers.iter().map(fingerprint_waiver)).0);
    h.write_u64(
        Fingerprint::combine_unordered(set.formulas.iter().map(fingerprint_named_formula)).0,
    );
    h.write_u64(Fingerprint::combine_unordered(set.models.iter().map(fingerprint_model)).0);
    h.write_u64(Fingerprint::combine_unordered(set.assertions.iter().map(fingerprint_assertion)).0);
    // BTreeSet iteration is already sorted, so a plain ordered fold is
    // order-stable here.
    let mut cov = Hasher::new();
    for id in &set.dev_covered {
        cov.write_tag(b'd');
        cov.write_str(id);
    }
    for id in &set.ops_covered {
        cov.write_tag(b'o');
        cov.write_str(id);
    }
    h.write_u64(cov.finish().0);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concatenation_cannot_collide() {
        let mut a = Hasher::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = Hasher::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn unordered_combine_ignores_order_but_not_multiplicity() {
        let x = Fingerprint(17);
        let y = Fingerprint(99);
        assert_eq!(
            Fingerprint::combine_unordered([x, y]),
            Fingerprint::combine_unordered([y, x])
        );
        assert_ne!(
            Fingerprint::combine_unordered([x, x]),
            Fingerprint::combine_unordered([x])
        );
    }

    #[test]
    fn entry_fields_all_matter() {
        let base = EntryArtifact::new("V-1")
            .package("os.ssh")
            .title("t")
            .expr(ReqExpr::atom("a"));
        let f0 = fingerprint_entry(&base);
        assert_ne!(
            f0,
            fingerprint_entry(
                &EntryArtifact::new("V-2")
                    .package("os.ssh")
                    .title("t")
                    .expr(ReqExpr::atom("a"))
            )
        );
        assert_ne!(f0, fingerprint_entry(&base.clone().package("os.audit")));
        assert_ne!(f0, fingerprint_entry(&base.clone().title("u")));
        assert_ne!(
            f0,
            fingerprint_entry(&base.clone().severity(vdo_core::Severity::High))
        );
        assert_ne!(
            f0,
            fingerprint_entry(&base.clone().expr(ReqExpr::atom("b")))
        );
    }

    #[test]
    fn set_fingerprint_is_order_invariant() {
        let a = EntryArtifact::new("V-1").expr(ReqExpr::atom("a"));
        let b = EntryArtifact::new("V-2").expr(ReqExpr::atom("b"));
        let s1 = ArtifactSet::new()
            .with_entry(a.clone())
            .with_entry(b.clone());
        let s2 = ArtifactSet::new().with_entry(b).with_entry(a);
        assert_eq!(fingerprint_set(&s1), fingerprint_set(&s2));
    }

    #[test]
    fn model_scenarios_do_not_perturb() {
        let mut m = GraphModel::new("login");
        let v0 = m.add_vertex("idle");
        let v1 = m.add_vertex("authed");
        m.add_edge(v0, v1, "login_ok");
        m.set_start(v0);
        let before = fingerprint_model(&m);
        m.annotate_edge(0, vdo_gwt::Scenario::new("s", Vec::new()));
        assert_eq!(before, fingerprint_model(&m));
    }
}
