//! Workload constructors shared by the Criterion benches and the
//! `exp_report` binary. Every experiment in EXPERIMENTS.md names the
//! function here that builds its input, so the published numbers are
//! regenerable from one place.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use vdo_corpus::requirements::{generate, Corpus, CorpusConfig};
use vdo_corpus::traces::{throttle_log, ViolationTrace};
use vdo_gwt::GraphModel;
use vdo_nalabs::dictionaries::{self, Dictionary};
use vdo_nalabs::metrics::{DictionaryMetric, Readability, Size};
use vdo_nalabs::{Analyzer, Metric, SmellThresholds};
use vdo_specpat::Kripke;
use vdo_tears::SignalTrace;

/// E1/E2/A1 — requirement corpus of `size` documents with 25 % planted
/// smells.
#[must_use]
pub fn corpus(size: usize) -> Corpus {
    generate(&CorpusConfig {
        size,
        smell_rate: 0.25,
        seed: 7,
    })
}

/// E2/A1 — an analyzer with default thresholds over one dictionary
/// metric per dictionary, named after it, then readability and size:
/// the default suite's shape.
#[must_use]
pub fn nalabs_analyzer(dictionaries: impl IntoIterator<Item = Dictionary>) -> Analyzer {
    let mut metrics: Vec<Box<dyn Metric>> = dictionaries
        .into_iter()
        .map(|d| Box::new(DictionaryMetric::new(d.name(), d)) as Box<dyn Metric>)
        .collect();
    metrics.push(Box::new(Readability));
    metrics.push(Box::new(Size));
    Analyzer::new(metrics, SmellThresholds::default())
}

/// A1 — every dictionary but imperatives (the ablation isolates
/// dictionary smells), each shrunk to `fraction` of its entries.
#[must_use]
pub fn shrunk_analyzer(fraction: f64) -> Analyzer {
    nalabs_analyzer(
        dictionaries::all()
            .into_iter()
            .filter(|d| d.name() != "imperatives")
            .map(|d| d.shrunk(fraction)),
    )
}

/// E2 — every dictionary grown to `factor` times its entries by
/// synthetic ones that never occur in a [`corpus`]: random lower-case
/// words of 6–9 letters, and phrases of two such words where the entry
/// they extend (entry `i` mod the stock length) is a phrase. The
/// entries are leaked, as a [`Dictionary`] holds `&'static str`.
#[must_use]
pub fn grown_dictionaries(factor: usize) -> Vec<Dictionary> {
    let mut rng = StdRng::seed_from_u64(factor as u64);
    let mut word = move || -> String {
        let len = 6 + rng.next_u64() % 4;
        (0..len)
            .map(|_| char::from(b'a' + (rng.next_u64() % 26) as u8))
            .collect()
    };
    dictionaries::all()
        .into_iter()
        .map(|d| {
            let stock = d.entries();
            let synthetic = (0..stock.len() * factor.saturating_sub(1)).map(|i| {
                let entry = if stock[i % stock.len()].contains(' ') {
                    format!("{} {}", word(), word())
                } else {
                    word()
                };
                &*Box::leak(entry.into_boxed_str())
            });
            Dictionary::new(d.name(), stock.iter().copied().chain(synthetic).collect())
        })
        .collect()
}

/// E4/A2 — invariant-violation trace of `len` ticks with the violation
/// planted at 60 % of the way in.
#[must_use]
pub fn violation_trace(len: u64) -> ViolationTrace {
    ViolationTrace::at(len, len * 6 / 10)
}

/// E6 — propositional response trace of `len` ticks: a trigger every 50
/// ticks answered after 3 (satisfies `bounded_response(p, s, 10)`).
#[must_use]
pub fn response_observations(len: usize) -> Vec<std::collections::BTreeSet<String>> {
    (0..len)
        .map(|t| {
            let mut set = std::collections::BTreeSet::new();
            if t % 50 == 0 {
                set.insert("p".to_string());
            }
            if t % 50 == 3 {
                set.insert("s".to_string());
            }
            set
        })
        .collect()
}

/// E7 — a ring-of-`n` Kripke structure with `p` everywhere and `q` on
/// one state (worst-case-ish EU/EG fixpoints still terminate quickly;
/// the sweep measures scaling, not pathology).
#[must_use]
pub fn ring_kripke(n: usize) -> Kripke {
    let mut k = Kripke::new();
    for i in 0..n {
        if i == n / 2 {
            k.add_state(["p", "q"]);
        } else {
            k.add_state(["p"]);
        }
    }
    for i in 0..n {
        k.add_transition(i, (i + 1) % n);
        // A chord per eight states makes the structure non-trivially
        // branching.
        if i % 8 == 0 {
            k.add_transition(i, (i + n / 2) % n);
        }
    }
    k.set_initial(0);
    k
}

/// E8 — a ring-with-branches model of roughly `n` vertices.
#[must_use]
pub fn branched_model(n: usize) -> GraphModel {
    let mut m = GraphModel::new(format!("branched_{n}"));
    for i in 0..n {
        m.add_vertex(format!("s{i}"));
    }
    for i in 0..n {
        m.add_edge(i, (i + 1) % n, format!("step{i}"));
    }
    for i in (0..n).step_by(5) {
        let leaf = m.add_vertex(format!("leaf{i}"));
        m.add_edge(i, leaf, format!("enter{i}"));
        m.add_edge(leaf, i, format!("exit{i}"));
    }
    m.set_start(0);
    m
}

/// E9 — TEARS signal trace of `len` ticks with 5 planted faults.
#[must_use]
pub fn tears_trace(len: u64) -> SignalTrace {
    let (rows, _) = throttle_log(len, 1, 5, 13);
    let mut trace = SignalTrace::new();
    for (load, throttled) in rows {
        trace.push_sample([("load", load), ("throttled", throttled)]);
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_have_expected_shapes() {
        assert_eq!(corpus(10).documents.len(), 10);
        let vt = violation_trace(100);
        assert_eq!(vt.violation_tick, 60);
        assert_eq!(response_observations(100).len(), 100);
        let k = ring_kripke(32);
        assert!(k.is_total());
        let m = branched_model(20);
        assert!(m.edge_count() > 20);
        assert_eq!(tears_trace(500).len(), 500);
    }
}
