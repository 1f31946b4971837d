//! Fingerprint stability, property-tested: the whole-set fingerprint is
//! invariant under artifact insertion order and codec round-trips, and
//! sensitive to every single-field mutation — the exact properties the
//! incremental memo table's soundness rests on.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use vdo_analyze::codec::{decode_set, encode_set};
use vdo_analyze::fingerprint::{
    fingerprint_assertion, fingerprint_entry, fingerprint_model, fingerprint_named_formula,
    fingerprint_waiver,
};
use vdo_analyze::{fingerprint_set, ArtifactSet, EntryArtifact, NamedFormula};
use vdo_core::{Guard, Severity, Waiver};
use vdo_tears::{parse_guard, GuardedAssertion};
use vdo_temporal::Formula;

/// A deterministic mixed artifact set built in the order `perm` visits
/// the artifact kinds and indices.
fn build_set(seed: u64, shuffle_with: Option<u64>) -> ArtifactSet {
    let mut rng = StdRng::seed_from_u64(seed);
    // Kind-tagged build steps, generated in a fixed order first.
    let mut entries = Vec::new();
    let mut waivers = Vec::new();
    let mut formulas = Vec::new();
    let mut assertions = Vec::new();
    for i in 0..rng.gen_range(3usize..10) {
        entries.push(
            EntryArtifact::new(format!("R-{i}"))
                .package(format!("pkg{}", i % 3))
                .title(format!("title {i}"))
                .severity(match i % 3 {
                    0 => Severity::Low,
                    1 => Severity::Medium,
                    _ => Severity::High,
                })
                .expr(Guard::all_of([
                    Guard::atom(format!("a{i}")),
                    Guard::not(Guard::atom(format!("b{i}"))),
                ])),
        );
    }
    for i in 0..rng.gen_range(1usize..4) {
        waivers.push(Waiver {
            finding_id: format!("R-{i}"),
            reason: format!("reason {i}"),
            expires_at: if i % 2 == 0 {
                Some(50 + i as u64)
            } else {
                None
            },
        });
    }
    for i in 0..rng.gen_range(1usize..5) {
        formulas.push(NamedFormula::new(
            format!("f-{i}"),
            Formula::globally(Formula::implies(
                Formula::atom(format!("p{i}")),
                Formula::finally(Formula::atom(format!("q{i}"))),
            )),
        ));
    }
    for i in 0..rng.gen_range(1usize..3) {
        assertions.push(GuardedAssertion::new(
            format!("ga-{i}"),
            parse_guard("load > 90").expect("parses"),
            parse_guard("ok == 1").expect("parses"),
            3 + i as u64,
        ));
    }
    if let Some(s) = shuffle_with {
        let mut rng = StdRng::seed_from_u64(s);
        for i in (1..entries.len()).rev() {
            let j = rng.gen_range(0..=i);
            entries.swap(i, j);
        }
        for i in (1..formulas.len()).rev() {
            formulas.swap(i, rng.gen_range(0..=i));
        }
        for i in (1..waivers.len()).rev() {
            waivers.swap(i, rng.gen_range(0..=i));
        }
    }
    let mut set = ArtifactSet::new().at_tick(77);
    for e in entries {
        let id = e.finding_id.clone();
        set = set.with_entry(e).covered_dev(id);
    }
    for w in waivers {
        set = set.with_waiver(w);
    }
    for f in formulas {
        set = set.with_formula(f.name, f.formula);
    }
    for a in assertions {
        set = set.with_assertion(a);
    }
    let mut m = vdo_gwt::GraphModel::new("m-0");
    let a = m.add_vertex("a");
    let b = m.add_vertex("b");
    m.add_edge(a, b, "go");
    m.set_start(a);
    set.with_model(m)
}

proptest! {
    /// Insertion order of entries, waivers, and formulas does not move
    /// the whole-set fingerprint.
    #[test]
    fn set_fingerprint_is_insertion_order_invariant(seed in 0u64..2_000, perm in 1u64..50) {
        let canonical = build_set(seed, None);
        let shuffled = build_set(seed, Some(perm));
        prop_assert_eq!(fingerprint_set(&canonical), fingerprint_set(&shuffled));
    }

    /// `decode(encode(set))` preserves the fingerprint exactly — the
    /// serialised form carries every fingerprinted field.
    #[test]
    fn codec_round_trip_preserves_fingerprint(seed in 0u64..2_000) {
        let set = build_set(seed, None);
        let decoded = decode_set(&encode_set(&set)).expect("round trip decodes");
        prop_assert_eq!(fingerprint_set(&set), fingerprint_set(&decoded));
    }
}

/// Every single-field mutation of every artifact kind moves its
/// fingerprint — no field is silently outside the closure.
#[test]
fn single_field_mutations_change_fingerprints() {
    let base = EntryArtifact::new("R-1")
        .package("pkg")
        .title("t")
        .severity(Severity::Medium)
        .expr(Guard::atom("a"));
    let fp = fingerprint_entry(&base);
    let mutations = [
        EntryArtifact::new("R-2")
            .package("pkg")
            .title("t")
            .severity(Severity::Medium)
            .expr(Guard::atom("a")),
        base.clone().package("other"),
        base.clone().title("other"),
        base.clone().severity(Severity::High),
        base.clone().expr(Guard::atom("b")),
        base.clone().expr(Guard::not(Guard::atom("a"))),
    ];
    for (i, m) in mutations.iter().enumerate() {
        assert_ne!(fp, fingerprint_entry(m), "entry mutation {i} invisible");
    }

    let w = Waiver {
        finding_id: "R-1".into(),
        reason: "r".into(),
        expires_at: Some(10),
    };
    let wfp = fingerprint_waiver(&w);
    for (i, m) in [
        Waiver {
            finding_id: "R-2".into(),
            ..w.clone()
        },
        Waiver {
            reason: "other".into(),
            ..w.clone()
        },
        Waiver {
            expires_at: Some(11),
            ..w.clone()
        },
        Waiver {
            expires_at: None,
            ..w.clone()
        },
    ]
    .iter()
    .enumerate()
    {
        assert_ne!(wfp, fingerprint_waiver(m), "waiver mutation {i} invisible");
    }

    let f = NamedFormula::new("f", Formula::globally(Formula::atom("p")));
    let ffp = fingerprint_named_formula(&f);
    for (i, m) in [
        NamedFormula::new("g", Formula::globally(Formula::atom("p"))),
        NamedFormula::new("f", Formula::globally(Formula::atom("q"))),
        NamedFormula::new("f", Formula::finally(Formula::atom("p"))),
        NamedFormula::new("f", Formula::globally_within(5, Formula::atom("p"))),
        NamedFormula::new("f", Formula::globally_within(6, Formula::atom("p"))),
    ]
    .iter()
    .enumerate()
    {
        assert_ne!(
            ffp,
            fingerprint_named_formula(m),
            "formula mutation {i} invisible"
        );
    }

    let ga = GuardedAssertion::new(
        "ga",
        parse_guard("load > 90").expect("parses"),
        parse_guard("ok == 1").expect("parses"),
        5,
    );
    let gfp = fingerprint_assertion(&ga);
    for (i, m) in [
        GuardedAssertion::new(
            "gb",
            parse_guard("load > 90").expect("parses"),
            parse_guard("ok == 1").expect("parses"),
            5,
        ),
        GuardedAssertion::new(
            "ga",
            parse_guard("load > 91").expect("parses"),
            parse_guard("ok == 1").expect("parses"),
            5,
        ),
        GuardedAssertion::new(
            "ga",
            parse_guard("load > 90").expect("parses"),
            parse_guard("ok == 0").expect("parses"),
            5,
        ),
        GuardedAssertion::new(
            "ga",
            parse_guard("load > 90").expect("parses"),
            parse_guard("ok == 1").expect("parses"),
            6,
        ),
    ]
    .iter()
    .enumerate()
    {
        assert_ne!(
            gfp,
            fingerprint_assertion(m),
            "assertion mutation {i} invisible"
        );
    }

    // Models: name, vertices, edges, and start all matter.
    let build = |start: bool, extra_edge: bool, name: &str| {
        let mut m = vdo_gwt::GraphModel::new(name);
        let a = m.add_vertex("a");
        let b = m.add_vertex("b");
        m.add_edge(a, b, "go");
        if extra_edge {
            m.add_edge(b, a, "back");
        }
        if start {
            m.set_start(a);
        }
        m
    };
    let mfp = fingerprint_model(&build(true, false, "m"));
    assert_ne!(mfp, fingerprint_model(&build(true, false, "n")));
    assert_ne!(mfp, fingerprint_model(&build(false, false, "m")));
    assert_ne!(mfp, fingerprint_model(&build(true, true, "m")));

    // The clock is part of the set fingerprint.
    let s = ArtifactSet::new().at_tick(1);
    assert_ne!(
        fingerprint_set(&s),
        fingerprint_set(&ArtifactSet::new().at_tick(2))
    );
    // Coverage kind matters: dev-covering an id is not ops-covering it.
    let dev = ArtifactSet::new().covered_dev("R-1");
    let ops = ArtifactSet::new().covered_ops("R-1");
    assert_ne!(fingerprint_set(&dev), fingerprint_set(&ops));
}
