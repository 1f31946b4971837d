//! Properties of `Guard`, the one propositional guard type, over random
//! guards on up to four atoms, checked under every three-valued
//! valuation (81) or every two-valued one (16):
//! - `normalize()` evaluates as the guard does;
//! - satisfiability read off `dnf` equals brute-force enumeration, and
//!   each two-valued valuation passes the guard iff it passes a conjunct;
//! - `map` commutes with `eval`.
//!
//! The analyzer's duplicate and subsumption lints rest on the first, its
//! TEARS guard lint on the second, and the SOC's slot-resolved TEARS
//! assertion on the third.

use proptest::prelude::*;
use vdo_core::{CheckStatus, Guard};

const ATOMS: u8 = 4;

fn arb_guard() -> impl Strategy<Value = Guard<u8>> {
    let leaf = prop_oneof![
        (0..ATOMS).prop_map(Guard::Atom),
        (0..ATOMS).prop_map(Guard::Atom),
        (0..ATOMS).prop_map(Guard::Atom),
        Just(Guard::True),
    ];
    leaf.prop_recursive(4, 24, 4, |inner| {
        prop_oneof![
            inner.clone().prop_map(Guard::not),
            prop::collection::vec(inner.clone(), 0..4).prop_map(Guard::And),
            prop::collection::vec(inner, 0..4).prop_map(Guard::Or),
        ]
    })
}

/// Valuation `v`: atom `i`'s verdict is base-3 digit `i` (0 Pass,
/// 1 Fail, 2 Incomplete).
fn three_valued(v: u32, atom: u8) -> CheckStatus {
    match v / 3u32.pow(u32::from(atom)) % 3 {
        0 => CheckStatus::Pass,
        1 => CheckStatus::Fail,
        _ => CheckStatus::Incomplete,
    }
}

/// Valuation `v`: atom `i` holds iff bit `i` is set.
fn two_valued(v: u32, atom: u8) -> bool {
    (v >> atom) & 1 == 1
}

proptest! {
    #[test]
    fn normal_form_evaluates_as_the_guard(g in arb_guard()) {
        let n = g.normalize();
        for v in 0..3u32.pow(u32::from(ATOMS)) {
            let value = |&a: &u8| three_valued(v, a);
            prop_assert_eq!(n.eval(&value), g.eval(&value), "{} vs {} at {}", n, g, v);
        }
    }

    #[test]
    fn dnf_satisfiability_equals_enumeration(g in arb_guard()) {
        let dnf = g.dnf(usize::MAX).expect("uncapped");
        let holds = |v: u32, c: &[(&u8, bool)]| c.iter().all(|&(&a, pos)| two_valued(v, a) == pos);
        let mut satisfiable = false;
        for v in 0..1u32 << ATOMS {
            let pass = g.eval(&|&a: &u8| CheckStatus::from(two_valued(v, a))).is_pass();
            prop_assert_eq!(pass, dnf.iter().any(|c| holds(v, c)), "{} at {}", g, v);
            satisfiable |= pass;
        }
        let consistent = |c: &[(&u8, bool)]| c.iter().all(|&(a, pos)| !c.contains(&(a, !pos)));
        prop_assert_eq!(dnf.iter().any(|c| consistent(c)), satisfiable, "{}", g);
    }

    #[test]
    fn map_commutes_with_eval(g in arb_guard()) {
        let rename = |&a: &u8| char::from(b'a' + (a + 1) % ATOMS);
        let mapped = g.map(&rename);
        for v in 0..3u32.pow(u32::from(ATOMS)) {
            let by_name = |&c: &char| three_valued(v, c as u8 - b'a');
            prop_assert_eq!(
                mapped.eval(&by_name),
                g.eval(&|a: &u8| by_name(&rename(a))),
                "{} at {}", g, v
            );
        }
    }
}
