//! `ledger --compare A B`: judges a change (B) against its parent (A)
//! from saved ledger output, by the pairing rule of the
//! choosing-metrics guide, against the bounds of the metric table
//! (the bounds `BENCHMARK.json` declares).
//!
//! Each file holds the concatenated standard output of several ledger
//! runs; every `workload metric value unit` line is one run's value.
//! The i-th value of a side pairs with the i-th value of the other.

use std::collections::BTreeMap;
use std::path::Path;

use crate::metrics::{self, Better, Def};
use crate::stats;
use crate::workload::Workload;

/// How B's runs compare with A's on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B wins at least nine pairs in ten and the medians differ by
    /// more than A's quartile spread.
    Improved,
    /// B's median is worse than A's by more than the metric's bound.
    Regressed,
    /// Neither improved nor regressed.
    Unchanged,
    /// A's own spread is wider than the bound, so "no worse than the
    /// bound" cannot be shown.
    Unresolved,
    /// Unbounded metric: the improvement rule holds in the worse
    /// direction.
    Worsened,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
            Verdict::Worsened => "worsened",
        }
    }
}

/// The summary of one (workload, metric) comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Row {
    /// A's median and quartiles.
    pub a: (f64, f64, f64),
    /// B's median and quartiles.
    pub b: (f64, f64, f64),
    /// Share of pairs B wins (ties count for neither side).
    pub win_share: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Applies the rule to the runs of one metric.
#[must_use]
pub fn judge(a: &[f64], b: &[f64], def: &Def) -> Row {
    let summary = |v: &[f64]| {
        let (p25, p75) = stats::quartiles(v);
        (stats::median(v), p25, p75)
    };
    let (ma, a25, a75) = summary(a);
    let (mb, b25, b75) = summary(b);
    let higher = def.better == Better::Higher;
    let better = |x: f64, y: f64| if higher { x > y } else { x < y };
    let pairs = a.len().min(b.len());
    let wins = a.iter().zip(b).filter(|(x, y)| better(**y, **x)).count();
    let losses = a.iter().zip(b).filter(|(x, y)| better(**x, **y)).count();
    let share = |n: usize| n as f64 / pairs.max(1) as f64;
    let gain = if higher { mb - ma } else { ma - mb };
    let spread = a75 - a25;
    let all_better = b.iter().all(|y| a.iter().all(|x| better(*y, *x)));
    let verdict = if pairs > 0 && share(wins) >= 0.9 && gain > spread {
        Verdict::Improved
    } else {
        match def.bound {
            Some(bound) if spread > bound * ma.abs() && !all_better => Verdict::Unresolved,
            Some(bound) if -gain > bound * ma.abs() => Verdict::Regressed,
            None if pairs > 0 && share(losses) >= 0.9 && -gain > spread => Verdict::Worsened,
            _ => Verdict::Unchanged,
        }
    };
    Row {
        a: (ma, a25, a75),
        b: (mb, b25, b75),
        win_share: share(wins),
        verdict,
    }
}

/// Values per (workload, metric), in file order, from ledger output.
///
/// # Errors
/// When the file cannot be read.
pub fn read_runs(path: &Path) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut runs: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for line in text.lines() {
        let mut tokens = line.split_whitespace();
        let (Some(w), Some(m), Some(v)) = (tokens.next(), tokens.next(), tokens.next()) else {
            continue;
        };
        if Workload::parse(w).is_none() || metrics::find(m).is_none() {
            continue;
        }
        if let Ok(v) = v.parse::<f64>() {
            runs.entry((w.to_string(), m.to_string()))
                .or_default()
                .push(v);
        }
    }
    Ok(runs)
}

/// Prints one row per (workload, metric) present on both sides and
/// returns `false` when an end-to-end metric regressed or is
/// unresolved.
///
/// # Errors
/// When an input cannot be read.
pub fn run(a: &Path, b: &Path) -> Result<bool, String> {
    let (a, b) = (read_runs(a)?, read_runs(b)?);
    println!(
        "{:<16} {:<40} {:>8} {:>34} {:>34} {:>8} {:>5} {:>3}  verdict",
        "workload",
        "metric",
        "unit",
        "A median [p25, p75]",
        "B median [p25, p75]",
        "delta%",
        "wins",
        "n"
    );
    let mut ok = true;
    for ((w, m), av) in &a {
        let (Some(bv), Some(def)) = (b.get(&(w.clone(), m.clone())), metrics::find(m)) else {
            continue;
        };
        let row = judge(av, bv, def);
        let unit = def.unit;
        let side =
            |(median, p25, p75): (f64, f64, f64)| format!("{median:.4e} [{p25:.3e}, {p75:.3e}]");
        let delta = if row.a.0 == 0.0 {
            0.0
        } else {
            100.0 * (row.b.0 - row.a.0) / row.a.0.abs()
        };
        let bound = def
            .bound
            .map_or(String::new(), |b| format!(" (bound {:.0}%)", 100.0 * b));
        println!(
            "{w:<16} {m:<40} {unit:>8} {:>34} {:>34} {delta:>+8.2} {:>5.2} {:>3}  {}{bound}",
            side(row.a),
            side(row.b),
            row.win_share,
            av.len().min(bv.len()),
            row.verdict.as_str(),
        );
        let bounded = def.bound.is_some();
        if bounded && matches!(row.verdict, Verdict::Regressed | Verdict::Unresolved) {
            ok = false;
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: Def = Def {
        name: "t",
        unit: "s",
        better: Better::Lower,
        bound: Some(0.1),
    };

    #[test]
    fn verdicts_follow_the_pairing_rule() {
        let a = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0];
        let faster: Vec<f64> = a.iter().map(|x| x * 0.8).collect();
        let slower: Vec<f64> = a.iter().map(|x| x * 1.2).collect();
        let same: Vec<f64> = a.iter().rev().copied().collect();
        assert_eq!(judge(&a, &faster, &LOWER).verdict, Verdict::Improved);
        assert_eq!(judge(&a, &slower, &LOWER).verdict, Verdict::Regressed);
        assert_eq!(judge(&a, &same, &LOWER).verdict, Verdict::Unchanged);
        let noisy = [5.0, 15.0, 6.0, 14.0, 5.5, 14.5, 6.5, 13.5, 10.0, 10.0];
        assert_eq!(judge(&noisy, &same, &LOWER).verdict, Verdict::Unresolved);
        let unbounded = Def {
            better: Better::Higher,
            bound: None,
            ..LOWER
        };
        assert_eq!(judge(&a, &faster, &unbounded).verdict, Verdict::Worsened);
        assert_eq!(judge(&a, &slower, &unbounded).verdict, Verdict::Improved);
    }

    #[test]
    fn reads_metric_lines_and_skips_the_rest() {
        let path = std::env::temp_dir().join(format!("ledger-read-{}", std::process::id()));
        std::fs::write(
            &path,
            "fleet_ops setup_s 0.5 s p25=0.4 p75=0.6 n=5\n\
             fleet_ops setup_s 0.7 s\n\
             {\"correct\": true}\n\
             fleet_ops no_such_metric 1 s\n\
             ledger: note\n",
        )
        .expect("temp file");
        let runs = read_runs(&path).expect("readable");
        let _ = std::fs::remove_file(&path);
        assert_eq!(runs.len(), 1);
        assert_eq!(
            runs[&("fleet_ops".to_string(), "setup_s".to_string())],
            vec![0.5, 0.7]
        );
    }
}
