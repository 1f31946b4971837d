//! The SOC's TEARS host monitor keeps only the newest value of each
//! signal, and advances a quiet tick (nothing changed, the guard did not
//! hold at the last tick, no window open) without evaluating anything;
//! these properties pin it to the reference evaluation over a whole
//! `SignalTrace`. Streams repeat rows in runs of 1–10 ticks, return to a
//! baseline row after each burst (often while the burst's window is
//! still open), omit signals on some ticks (sample-and-hold), start a
//! signal late, and assertions may name a signal that is never sent
//! (undecidable), under `not`, `and` and `or`.

use std::collections::BTreeMap;

use proptest::prelude::*;

use vdo_core::Guard;
use vdo_soc::TearsHostMonitor;
use vdo_tears::{Cmp, CmpOp, GaMonitor, GuardedAssertion, SignalTrace};

/// Signals a stream may carry, the monitor's schema; `late` only
/// appears from a generated tick on. `ghost` is referenced by
/// expressions but never sent.
const SENT: [&str; 3] = ["a", "b", "late"];

fn arb_expr() -> impl Strategy<Value = Guard<Cmp>> {
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
        .prop_map(|(n, op, k)| Guard::Atom(Cmp::new(n.to_string(), op, f64::from(k))));
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(Guard::not),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Guard::And(vec![a, b])),
            (inner.clone(), inner).prop_map(|(a, b)| Guard::Or(vec![a, b])),
        ]
    })
}

/// One tick's raw draw for each of [`SENT`]: 0..4 is a value, 4 and 5
/// omit the signal that tick.
type Row = (u8, u8, u8);

fn arb_row() -> impl Strategy<Value = Row> {
    (0u8..6, 0u8..6, 0u8..6)
}

/// A stream's rows: a baseline row and runs of 1–10 ticks, each
/// repeating the baseline or (one run in three) a burst row.
fn arb_rows() -> impl Strategy<Value = Vec<Row>> {
    (
        arb_row(),
        prop::collection::vec((0u8..3, arb_row(), 1usize..11), 0..16),
    )
        .prop_map(|(baseline, runs)| {
            runs.into_iter()
                .flat_map(|(kind, row, len)| {
                    std::iter::repeat_n(if kind == 0 { row } else { baseline }, len)
                })
                .collect()
        })
}

/// The samples of tick `t` in [`SENT`] order: omitted signals are
/// `None`, and so is `late` before `late_start`.
fn samples(&(a, b, late): &Row, t: usize, late_start: usize) -> [Option<f64>; 3] {
    let late = if t < late_start { 4 } else { late };
    [a, b, late].map(|v| (v < 4).then(|| f64::from(v)))
}

/// The same samples by name, for a [`SignalTrace`].
fn named(samples: [Option<f64>; 3]) -> impl Iterator<Item = (&'static str, f64)> {
    SENT.into_iter()
        .zip(samples)
        .filter_map(|(name, v)| Some((name, v?)))
}

/// One generated case of the monitor property.
struct Case {
    ga: GuardedAssertion,
    rows: Vec<Row>,
    late_start: usize,
}

fn arb_case() -> impl Strategy<Value = Case> {
    (arb_expr(), arb_expr(), 0u64..8, arb_rows(), 0usize..80).prop_map(
        |(guard, assertion, within, rows, late_start)| Case {
            ga: GuardedAssertion::new("eq", guard, assertion, within),
            rows,
            late_start,
        },
    )
}

/// Runs `case` through `GaMonitor` over the full trace and through two
/// newest-value monitors: one fed every tick by `observe`, one as the
/// SOC shard loop feeds it (`skip_quiet` first, `observe` only when the
/// tick is not quiet). Fails on the first tick or final report where
/// they differ; returns how many ticks `skip_quiet` took.
fn check(case: &Case) -> Result<usize, TestCaseError> {
    let slots = TearsHostMonitor::resolve(&case.ga, SENT);
    let mut trace = SignalTrace::new();
    let mut reference = GaMonitor::new(&case.ga);
    let mut observed = TearsHostMonitor::new(slots.clone());
    let mut shard = TearsHostMonitor::new(slots);
    let mut quiet = 0;
    for (t, row) in case.rows.iter().enumerate() {
        let tick = samples(row, t, case.late_start);
        trace.push_sample(named(tick));
        let want = reference.observe(&trace);
        prop_assert_eq!(observed.observe(&tick), want.clone(), "observe, tick {}", t);
        let got = if shard.skip_quiet(&tick) {
            quiet += 1;
            Vec::new()
        } else {
            shard.observe(&tick)
        };
        prop_assert_eq!(got, want, "skip_quiet, tick {}", t);
    }
    for host in [&observed, &shard] {
        prop_assert_eq!(host.ticks(), trace.len());
        prop_assert_eq!(host.report(), reference.report());
    }
    Ok(quiet)
}

proptest! {
    /// Tick by tick, the newest-value monitor confirms the same
    /// violations as `GaMonitor` over the full trace, and ends with the
    /// same report, whether or not its caller tries the quiet step
    /// first.
    #[test]
    fn newest_value_monitor_matches_the_full_trace_monitor(case in arb_case()) {
        check(&case)?;
    }

    /// A condition evaluated over a trace tick equals the condition
    /// evaluated over the newest value of each signal at that tick.
    #[test]
    fn trace_eval_matches_the_lookup_evaluator(
        expr in arb_expr(),
        rows in arb_rows(),
        late_start in 0usize..80,
    ) {
        let mut trace = SignalTrace::new();
        let mut latest: BTreeMap<&str, f64> = BTreeMap::new();
        for (t, row) in rows.iter().enumerate() {
            let tick = samples(row, t, late_start);
            trace.push_sample(named(tick));
            latest.extend(named(tick));
            prop_assert_eq!(
                trace.eval(&expr, t as u64),
                expr.eval(&|c: &Cmp| c.eval(latest.get(c.signal.as_str()).copied())),
                "tick {}", t
            );
        }
    }
}

/// The property above only tests the quiet step if generated streams
/// take it: most of their ticks must.
#[test]
fn most_generated_ticks_are_quiet() {
    let (mut quiet, mut ticks) = (0, 0);
    proptest::test_runner::run("tears_equivalence::quiet_share", |rng| {
        let case = arb_case().generate(rng);
        quiet += check(&case)?;
        ticks += case.rows.len();
        Ok(())
    });
    assert!(2 * quiet > ticks, "{quiet} of {ticks} ticks quiet");
}
