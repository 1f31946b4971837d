//! E16: million-host fleets on the columnar store.
//!
//! One invocation exercises the copy-on-write [`FleetStore`] and the
//! vectorized [`FleetAuditor`] sweep end to end and reports:
//!
//! * the memory curve: amortized bytes per host at each fleet size,
//!   against the per-host-struct baseline (`UnixHost::approx_bytes` of
//!   the shared image), with the compression ratio the columnar layout
//!   achieves;
//! * the closed loop at the headline size: generate → initial sweep →
//!   per-tick drift through host views → dirty-set incremental refresh
//!   → targeted enforcement, with per-tick latency and the cost of a
//!   brute-force full rescan for contrast;
//! * the determinism check: the concatenated per-tick verdict logs are
//!   byte-identical across refresh worker counts for equal seeds;
//! * the `smoke` subsection, the CI gate: a fixed-size run whose
//!   bytes/host, memory ratio, and worst tick latency must stay within
//!   the pinned budgets below.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::json::Value;
use vdo_host::{DriftInjector, FleetConfig, FleetStore, Platform};
use vdo_stigs::sweep::FleetAuditor;

use crate::budget::{verdict, Budget};

/// The pinned memory budget for the smoke run: amortized bytes per
/// host across baseline, interner, overlays, and dirty set. The
/// owned-struct layout costs a few kilobytes per host; the columnar
/// store amortizes the shared image, so even with 1% of hosts drifted
/// the per-host cost stays two orders of magnitude lower.
pub const SMOKE_BYTES_PER_HOST_BUDGET: f64 = 256.0;

/// The pinned compression floor: the columnar store must be at least
/// this many times cheaper per host than one owned `UnixHost` struct.
pub const SMOKE_MEMORY_RATIO_FLOOR: f64 = 10.0;

/// The pinned round-latency budget for one smoke tick (drift burst +
/// dirty-set refresh + targeted enforcement), in milliseconds. The
/// incremental refresh touches only dirty hosts, so a tick is
/// micro-seconds of real work; 250 ms absorbs arbitrarily noisy CI.
pub const SMOKE_TICK_MILLIS_BUDGET: f64 = 250.0;

/// Knobs that scale E16 between the full experiment, the CI shape,
/// and a fast test shape. All runs keep the same structure — only
/// fleet sizes and tick counts change.
#[derive(Debug, Clone)]
pub struct E16Scale {
    /// Fleet sizes for the memory curve.
    pub curve_sizes: Vec<usize>,
    /// Hosts in the headline closed-loop run.
    pub main_hosts: usize,
    /// Drift/refresh/enforce ticks in the closed loop.
    pub ticks: usize,
    /// Drift victims per tick (duplicates collapse into the dirty set).
    pub drift_per_tick: usize,
    /// Hosts in the worker-count determinism check.
    pub determinism_hosts: usize,
    /// Ticks per worker count in the determinism check.
    pub determinism_ticks: usize,
    /// Hosts in the budget smoke run (the CI gate).
    pub smoke_hosts: usize,
    /// Ticks in the smoke run.
    pub smoke_ticks: usize,
}

impl E16Scale {
    /// The full experiment: the memory curve tops out at one million
    /// hosts and the closed loop runs at that size.
    #[must_use]
    pub fn full() -> Self {
        E16Scale {
            curve_sizes: vec![100_000, 250_000, 500_000, 1_000_000],
            main_hosts: 1_000_000,
            ticks: 8,
            drift_per_tick: 1024,
            determinism_hosts: 50_000,
            determinism_ticks: 4,
            smoke_hosts: 100_000,
            smoke_ticks: 4,
        }
    }

    /// The CI shape: the same sections with the closed loop at one
    /// hundred thousand hosts, so the gate finishes in seconds.
    #[must_use]
    pub fn ci() -> Self {
        E16Scale {
            curve_sizes: vec![10_000, 50_000, 100_000],
            main_hosts: 100_000,
            ticks: 8,
            drift_per_tick: 256,
            determinism_hosts: 20_000,
            determinism_ticks: 4,
            smoke_hosts: 100_000,
            smoke_ticks: 4,
        }
    }

    /// A reduced shape for tests: hundreds of hosts, identical
    /// structure and assertions.
    #[must_use]
    pub fn tiny() -> Self {
        E16Scale {
            curve_sizes: vec![100, 400],
            main_hosts: 400,
            ticks: 3,
            drift_per_tick: 8,
            determinism_hosts: 200,
            determinism_ticks: 2,
            smoke_hosts: 300,
            smoke_ticks: 2,
        }
    }
}

/// The fleet configuration every E16 run uses: 1% of hosts drifted at
/// generation, four events each, Unix platform.
fn fleet_config(size: usize, seed: u64) -> FleetConfig {
    FleetConfig::builder()
        .size(size)
        .drift_probability(0.01)
        .drift_events_per_host(4)
        .seed(seed)
        .platform(Platform::Unix)
        .build()
        .expect("valid fleet config")
}

/// One memory-curve measurement.
struct CurvePoint {
    hosts: usize,
    drifted: usize,
    overlay_entries: usize,
    bytes_per_host: f64,
    legacy_bytes_per_host: f64,
    ratio: f64,
    generate_secs: f64,
}

fn measure_curve_point(size: usize) -> CurvePoint {
    let t = Instant::now();
    let store = FleetStore::generate(&fleet_config(size, 42));
    let generate_secs = t.elapsed().as_secs_f64();
    let profile = store.memory_profile();
    let bytes_per_host = profile.bytes_per_host(size);
    #[allow(clippy::cast_precision_loss)]
    let legacy_bytes_per_host = store.baseline_unix().expect("unix baseline").approx_bytes() as f64;
    CurvePoint {
        hosts: size,
        drifted: store.drifted_count(),
        overlay_entries: profile.overlay_entries,
        bytes_per_host,
        legacy_bytes_per_host,
        ratio: legacy_bytes_per_host / bytes_per_host.max(f64::EPSILON),
        generate_secs,
    }
}

/// The per-run outcome of the closed loop.
struct LoopRun {
    initial_sweep_secs: f64,
    tick_millis: Vec<f64>,
    enforcements: usize,
    /// Hosts the drift ticks touched.
    touched_hosts: usize,
    /// Every touched host ends the run fully compliant.
    touched_compliant: bool,
    /// Failing (host, check) pairs fleet-wide at the end — untouched
    /// hosts keep the stock image's baseline debt, so this stays
    /// proportional to the fleet, not to the drift.
    open_violations: u64,
    /// All verdict lines emitted across ticks, newline-joined.
    verdict_log: String,
}

/// Runs the drift → dirty-set refresh → enforce loop at `size` hosts
/// for `ticks` ticks with `workers` refresh workers. Victim selection
/// and drift events are seeded independently of the worker count, so
/// equal seeds must produce byte-identical verdict logs.
fn closed_loop(size: usize, ticks: usize, drift_per_tick: usize, workers: usize) -> LoopRun {
    let mut store = FleetStore::generate(&fleet_config(size, 42));
    let t = Instant::now();
    let mut auditor = FleetAuditor::new(&store);
    let initial_sweep_secs = t.elapsed().as_secs_f64();

    let mut victims = StdRng::seed_from_u64(0xE16);
    let mut injector = DriftInjector::new(777);
    let mut tick_millis = Vec::with_capacity(ticks);
    let mut enforcements = 0usize;
    let mut touched = std::collections::BTreeSet::new();
    let mut log = String::new();
    for _ in 0..ticks {
        let t = Instant::now();
        for _ in 0..drift_per_tick {
            let h = victims.gen_range(0..size);
            injector.drift(&mut store.host_mut(h), Platform::Unix, 1);
        }
        let dirty = store.take_dirty();
        touched.extend(dirty.iter().copied());
        auditor.refresh_with_workers(&store, &dirty, workers);
        for line in auditor.verdict_lines(&dirty) {
            log.push_str(&line);
            log.push('\n');
        }
        for &h in &dirty {
            if !auditor.host_compliant(h as usize) {
                enforcements += auditor.enforce_host(&mut store, h);
            }
        }
        // Enforcement dirties the hosts it heals; fold those updates in
        // so the auditor state ends the tick consistent with the store.
        let healed = store.take_dirty();
        auditor.refresh_with_workers(&store, &healed, workers);
        tick_millis.push(t.elapsed().as_secs_f64() * 1_000.0);
    }
    let touched_compliant = touched.iter().all(|&h| auditor.host_compliant(h as usize));
    LoopRun {
        initial_sweep_secs,
        tick_millis,
        enforcements,
        touched_hosts: touched.len(),
        touched_compliant,
        open_violations: auditor.total_violations(),
        verdict_log: log,
    }
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    #[allow(clippy::cast_precision_loss)]
    let n = xs.len() as f64;
    xs.iter().sum::<f64>() / n
}

fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(0.0, f64::max)
}

/// Runs the E16 fleet-scale experiment and returns the section JSON
/// with the smoke run's three budget rows.
///
/// Prints the human-readable tables along the way and asserts the
/// headline claims in-function: the memory ratio stays above
/// [`SMOKE_MEMORY_RATIO_FLOOR`] at every measured size of ten thousand
/// hosts or more, and verdict logs are byte-identical across worker
/// counts.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn section(scale: &E16Scale) -> (Value, Vec<Budget>) {
    crate::say!("== E16: million-host fleets on the columnar store ==\n");

    // ---- Memory curve ----
    crate::say!(
        "{:>10} {:>9} {:>9} {:>12} {:>12} {:>8} {:>9}",
        "HOSTS",
        "DRIFTED",
        "OVERLAYS",
        "BYTES/HOST",
        "LEGACY B/H",
        "RATIO",
        "GEN(s)"
    );
    let mut curve = Vec::new();
    for &size in &scale.curve_sizes {
        let p = measure_curve_point(size);
        crate::say!(
            "{:>10} {:>9} {:>9} {:>12.1} {:>12.1} {:>7.0}x {:>9.3}",
            p.hosts,
            p.drifted,
            p.overlay_entries,
            p.bytes_per_host,
            p.legacy_bytes_per_host,
            p.ratio,
            p.generate_secs
        );
        if size >= 10_000 {
            assert!(
                p.ratio >= SMOKE_MEMORY_RATIO_FLOOR,
                "columnar store must be >= {SMOKE_MEMORY_RATIO_FLOOR}x cheaper than \
                 per-host structs at {size} hosts, measured {:.1}x",
                p.ratio
            );
        }
        curve.push(p);
    }

    // ---- Closed loop at the headline size ----
    let run = closed_loop(scale.main_hosts, scale.ticks, scale.drift_per_tick, 4);
    let store = FleetStore::generate(&fleet_config(scale.main_hosts, 42));
    let mut auditor = FleetAuditor::new(&store);
    let t = Instant::now();
    auditor.rescan_full(&store);
    let full_rescan_secs = t.elapsed().as_secs_f64();
    drop(store);
    crate::say!(
        "\nclosed loop: {} hosts, {} ticks x {} drift events",
        scale.main_hosts,
        scale.ticks,
        scale.drift_per_tick
    );
    crate::say!("  initial sweep   {:>9.3} s", run.initial_sweep_secs);
    crate::say!("  full rescan     {full_rescan_secs:>9.3} s (brute force, for contrast)");
    crate::say!(
        "  tick latency    {:>9.3} ms mean, {:.3} ms max",
        mean(&run.tick_millis),
        max(&run.tick_millis)
    );
    crate::say!(
        "  enforcements    {:>9}   touched hosts {} (all compliant: {})   \
         open baseline violations {}",
        run.enforcements,
        run.touched_hosts,
        run.touched_compliant,
        run.open_violations
    );
    assert!(
        run.touched_compliant,
        "every host the loop drifted and enforced must end fully compliant"
    );

    // ---- Determinism across refresh worker counts ----
    let workers = [1usize, 2, 4];
    let runs: Vec<LoopRun> = workers
        .iter()
        .map(|&w| {
            closed_loop(
                scale.determinism_hosts,
                scale.determinism_ticks,
                scale.drift_per_tick.min(scale.determinism_hosts / 4).max(1),
                w,
            )
        })
        .collect();
    let identical = runs.iter().all(|r| r.verdict_log == runs[0].verdict_log);
    crate::say!(
        "\ndeterminism: {} hosts, workers {:?}: verdict logs {} ({} bytes)",
        scale.determinism_hosts,
        workers,
        if identical {
            "byte-identical"
        } else {
            "DIVERGED"
        },
        runs[0].verdict_log.len()
    );
    assert!(
        identical,
        "verdict logs must be byte-identical across refresh worker counts"
    );

    // ---- Smoke: the CI budget gate ----
    let smoke_store = FleetStore::generate(&fleet_config(scale.smoke_hosts, 42));
    let smoke_profile = smoke_store.memory_profile();
    let smoke_bph = smoke_profile.bytes_per_host(scale.smoke_hosts);
    #[allow(clippy::cast_precision_loss)]
    let smoke_legacy = smoke_store
        .baseline_unix()
        .expect("unix baseline")
        .approx_bytes() as f64;
    let smoke_ratio = smoke_legacy / smoke_bph.max(f64::EPSILON);
    drop(smoke_store);
    let smoke_run = closed_loop(
        scale.smoke_hosts,
        scale.smoke_ticks,
        scale.drift_per_tick.min(scale.smoke_hosts / 4).max(1),
        4,
    );
    let smoke_max_tick = max(&smoke_run.tick_millis);
    let budgets = vec![
        Budget::at_most(
            "e16_fleet_scale.smoke.bytes_per_host",
            smoke_bph,
            SMOKE_BYTES_PER_HOST_BUDGET,
        ),
        Budget::at_least(
            "e16_fleet_scale.smoke.memory_ratio",
            smoke_ratio,
            SMOKE_MEMORY_RATIO_FLOOR,
        ),
        Budget::at_most(
            "e16_fleet_scale.smoke.max_tick_millis",
            smoke_max_tick,
            SMOKE_TICK_MILLIS_BUDGET,
        ),
    ];
    let within_budget = verdict(&budgets).is_ok();
    crate::say!(
        "\nsmoke: {} hosts | {:.1} bytes/host (budget {}) | ratio {:.0}x (floor {}) | \
         max tick {:.3} ms (budget {}) -> within_budget={}",
        scale.smoke_hosts,
        smoke_bph,
        SMOKE_BYTES_PER_HOST_BUDGET,
        smoke_ratio,
        SMOKE_MEMORY_RATIO_FLOOR,
        smoke_max_tick,
        SMOKE_TICK_MILLIS_BUDGET,
        within_budget
    );
    crate::say!();

    #[allow(clippy::cast_precision_loss)]
    let json = serde::json::object([
        (
            "memory_curve",
            Value::Array(
                curve
                    .iter()
                    .map(|p| {
                        serde::json::object([
                            ("hosts", Value::UInt(p.hosts as u64)),
                            ("drifted", Value::UInt(p.drifted as u64)),
                            ("overlay_entries", Value::UInt(p.overlay_entries as u64)),
                            ("bytes_per_host", Value::Float(p.bytes_per_host)),
                            (
                                "legacy_bytes_per_host",
                                Value::Float(p.legacy_bytes_per_host),
                            ),
                            ("ratio", Value::Float(p.ratio)),
                            ("generate_secs", Value::Float(p.generate_secs)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "closed_loop",
            serde::json::object([
                ("hosts", Value::UInt(scale.main_hosts as u64)),
                ("ticks", Value::UInt(scale.ticks as u64)),
                ("drift_per_tick", Value::UInt(scale.drift_per_tick as u64)),
                ("initial_sweep_secs", Value::Float(run.initial_sweep_secs)),
                ("full_rescan_secs", Value::Float(full_rescan_secs)),
                ("mean_tick_millis", Value::Float(mean(&run.tick_millis))),
                ("max_tick_millis", Value::Float(max(&run.tick_millis))),
                ("enforcements", Value::UInt(run.enforcements as u64)),
                ("touched_hosts", Value::UInt(run.touched_hosts as u64)),
                ("touched_compliant", Value::Bool(run.touched_compliant)),
                ("open_violations", Value::UInt(run.open_violations)),
            ]),
        ),
        (
            "determinism",
            serde::json::object([
                ("hosts", Value::UInt(scale.determinism_hosts as u64)),
                ("ticks", Value::UInt(scale.determinism_ticks as u64)),
                (
                    "workers",
                    Value::Array(workers.iter().map(|&w| Value::UInt(w as u64)).collect()),
                ),
                (
                    "verdict_bytes",
                    Value::UInt(runs[0].verdict_log.len() as u64),
                ),
                ("identical", Value::Bool(identical)),
            ]),
        ),
        (
            "smoke",
            serde::json::object([
                ("hosts", Value::UInt(scale.smoke_hosts as u64)),
                ("ticks", Value::UInt(scale.smoke_ticks as u64)),
                ("bytes_per_host", Value::Float(smoke_bph)),
                ("bytes_budget", Value::Float(SMOKE_BYTES_PER_HOST_BUDGET)),
                ("memory_ratio", Value::Float(smoke_ratio)),
                ("ratio_floor", Value::Float(SMOKE_MEMORY_RATIO_FLOOR)),
                ("max_tick_millis", Value::Float(smoke_max_tick)),
                ("tick_budget_millis", Value::Float(SMOKE_TICK_MILLIS_BUDGET)),
                ("within_budget", Value::Bool(within_budget)),
            ]),
        ),
    ]);
    (json, budgets)
}
