//! Property tests for the snapshot fingerprint: it ignores wall-clock
//! durations (the worker-count-invariance contract deterministic runs
//! build on).

use proptest::prelude::*;

use vdo_obs::{Clock, Registry, TICK_BOUNDS};

/// SplitMix64 — a tiny deterministic value stream for workloads.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

proptest! {
    /// Two runs of the same logical workload fingerprint identically
    /// even when their span durations differ wildly — durations are
    /// wall-clock and must not affect the deterministic digest.
    #[test]
    fn equal_workloads_fingerprint_identically_despite_timing(
        seed in 0u64..5_000,
        n in 1usize..60,
        fast in 1u64..100,
        slow in 10_000u64..1_000_000,
    ) {
        let run = |advance: u64| {
            let clock = Clock::simulated();
            let obs = Registry::with_clock(clock.clone());
            let mut state = seed;
            for i in 0..n {
                obs.counter("fp.ops").add(splitmix(&mut state) % 9);
                obs.gauge("fp.depth").record_max(splitmix(&mut state) % 32);
                obs.histogram("fp.latency", &TICK_BOUNDS)
                    .record(splitmix(&mut state) % 600);
                let span = obs.span("fp/work");
                clock.advance(advance + i as u64);
                drop(span);
            }
            obs.snapshot().deterministic_fingerprint()
        };
        prop_assert_eq!(run(fast), run(slow));
    }
}
