//! The pinned experiment budgets, checked in one place.
//!
//! Each budgeted section (E2, E11, E15–E19) returns one [`Budget`] row per
//! threshold it pins, built from the numbers it measured. The section's
//! JSON `smoke.within_budget` is the AND of its rows, and `exp_report`
//! prints every row after the run and exits non-zero when one fails —
//! that exit status is the CI gate.

/// One pinned budget: a measured value against its bound.
#[derive(Debug, Clone, PartialEq)]
pub struct Budget {
    /// Stable name, the JSON path of the measured value.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// The pinned bound (a ceiling or a floor).
    pub bound: f64,
    /// Whether `value` is on the right side of `bound`.
    pub ok: bool,
}

impl Budget {
    /// A ceiling: holds when `value <= bound`.
    #[must_use]
    pub fn at_most(name: &'static str, value: f64, bound: f64) -> Self {
        Budget {
            name,
            value,
            bound,
            ok: value <= bound,
        }
    }

    /// A floor: holds when `value >= bound`.
    #[must_use]
    pub fn at_least(name: &'static str, value: f64, bound: f64) -> Self {
        Budget {
            name,
            value,
            bound,
            ok: value >= bound,
        }
    }
}

/// `Ok` when every row holds, otherwise the names of the failing rows
/// in order.
///
/// # Errors
///
/// Returns the failing rows' names when at least one row fails.
pub fn verdict(rows: &[Budget]) -> Result<(), Vec<&'static str>> {
    let failed: Vec<&'static str> = rows.iter().filter(|b| !b.ok).map(|b| b.name).collect();
    if failed.is_empty() {
        Ok(())
    } else {
        Err(failed)
    }
}

/// Prints one row per budget through [`say!`](crate::say).
pub fn print_table(rows: &[Budget]) {
    crate::say!("\n== Budgets ==");
    crate::say!(
        "{:<48} {:>14} {:>14} {:>8}",
        "BUDGET",
        "VALUE",
        "BOUND",
        "VERDICT"
    );
    for b in rows {
        crate::say!(
            "{:<48} {:>14.3} {:>14.3} {:>8}",
            b.name,
            b.value,
            b.bound,
            if b.ok { "ok" } else { "FAIL" }
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_failing_row_fails_the_verdict_and_is_named() {
        let rows = [
            Budget::at_most("e15.smoke.p99_ticks", 4.0, 32.0),
            Budget::at_least("e18.smoke.jsonl_ratio", 2.5, 3.0),
            Budget::at_most("e19.alerting.alert_latency_ticks", 25.0, 25.0),
        ];
        assert_eq!(verdict(&rows), Err(vec!["e18.smoke.jsonl_ratio"]));
    }

    #[test]
    fn all_passing_rows_pass() {
        let rows = [
            Budget::at_most("a", 1.0, 1.0),
            Budget::at_least("b", 10.0, 10.0),
        ];
        assert_eq!(verdict(&rows), Ok(()));
        assert_eq!(verdict(&[]), Ok(()));
    }
}
