//! The SOC's TEARS host monitor keeps only the newest value of each
//! signal; these properties pin it to the reference evaluation over a
//! whole `SignalTrace`. Streams omit signals on some ticks
//! (sample-and-hold), start a signal late, and assertions may name a
//! signal that is never sent (undecidable), under `not`, `and` and `or`.

use std::collections::BTreeMap;

use proptest::prelude::*;

use vdo_soc::TearsHostMonitor;
use vdo_tears::expr::CmpOp;
use vdo_tears::{Expr, GaMonitor, GuardedAssertion, SignalTrace};

/// Signals a stream may carry; `late` only appears from a generated
/// tick on. `ghost` is referenced by expressions but never sent.
const SENT: [&str; 3] = ["a", "b", "late"];

fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = (
        prop::sample::select(vec!["a", "b", "late", "ghost"]),
        prop::sample::select(vec![
            CmpOp::Gt,
            CmpOp::Ge,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Eq,
            CmpOp::Ne,
        ]),
        0u8..4,
    )
        .prop_map(|(n, op, k)| Expr::Cmp(n.to_string(), op, f64::from(k)));
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(|e| Expr::Not(Box::new(e))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner).prop_map(|(a, b)| Expr::Or(Box::new(a), Box::new(b))),
        ]
    })
}

/// One tick's raw draw for each of [`SENT`]: 0..4 is a value, 4 and 5
/// omit the signal that tick.
type Row = (u8, u8, u8);

fn arb_rows() -> impl Strategy<Value = Vec<Row>> {
    prop::collection::vec((0u8..6, 0u8..6, 0u8..6), 0..60)
}

/// The samples of tick `t`: omitted signals are left out, and `late`
/// is left out before `late_start`.
fn samples(&(a, b, late): &Row, t: usize, late_start: usize) -> Vec<(&'static str, f64)> {
    let late = if t < late_start { 4 } else { late };
    SENT.iter()
        .zip([a, b, late])
        .filter(|&(_, v)| v < 4)
        .map(|(name, v)| (*name, f64::from(v)))
        .collect()
}

proptest! {
    /// Tick by tick, the newest-value monitor confirms the same
    /// violations as `GaMonitor` over the full trace, and ends with the
    /// same report.
    #[test]
    fn newest_value_monitor_matches_the_full_trace_monitor(
        guard in arb_expr(),
        assertion in arb_expr(),
        within in 0u64..5,
        rows in arb_rows(),
        late_start in 0usize..40,
    ) {
        let ga = GuardedAssertion::new("eq", guard, assertion, within);
        let mut trace = SignalTrace::new();
        let mut reference = GaMonitor::new(&ga);
        let mut host = TearsHostMonitor::new(ga.clone());
        for (t, row) in rows.iter().enumerate() {
            let tick = samples(row, t, late_start);
            trace.push_sample(tick.iter().copied());
            prop_assert_eq!(host.observe(&tick), reference.observe(&trace), "tick {}", t);
        }
        prop_assert_eq!(host.ticks(), trace.len());
        prop_assert_eq!(host.report(), reference.report());
    }

    /// `Expr::eval` over a trace tick equals the lookup evaluator over
    /// the newest value of each signal at that tick.
    #[test]
    fn trace_eval_matches_the_lookup_evaluator(
        expr in arb_expr(),
        rows in arb_rows(),
        late_start in 0usize..40,
    ) {
        let mut trace = SignalTrace::new();
        let mut latest: BTreeMap<&str, f64> = BTreeMap::new();
        for (t, row) in rows.iter().enumerate() {
            let tick = samples(row, t, late_start);
            trace.push_sample(tick.iter().copied());
            latest.extend(tick);
            prop_assert_eq!(
                expr.eval(&trace, t as u64),
                expr.eval_with(&|name| latest.get(name).copied()),
                "tick {}", t
            );
        }
    }
}
