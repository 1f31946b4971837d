//! A machine-speed probe: dependent-load chains through cycles of four
//! sizes.
//!
//! The machine this ledger runs on shares its cores, caches and memory
//! with other guests, and their load changes how fast the same code
//! runs by 15% or more between runs minutes apart, and by up to 1.6x
//! for stretches of a fraction of a second. The chases feel that load
//! through the core (16 KiB, inside L1), the private L2 (256 KiB), the
//! edge of the 4 MiB L2 (4 MiB) and memory (16 MiB: the shared L3 is
//! large, but the neighbours hold most of it, so this chase runs at
//! about DRAM latency). The probe is the ledger's own code, so no
//! change to the system under test can move it, while the shared host
//! slows the probe and the workloads together. Timings are reported
//! rescaled by [`slowdown`] (see `main.rs`), and the raw values are
//! printed beside them.

use std::hint::black_box;
use std::time::Instant;

/// Each chase as `(log2 of its u32 slot count, steps, reference step
/// time in ns)`. The reference step times are rounded medians of the
/// runs the bounds in `README.md` rest on.
const CHASES: [(u32, u32, f64); 4] = [
    (12, 2_000_000, 2.2),
    (16, 1_000_000, 6.4),
    (20, 300_000, 95.0),
    (22, 250_000, 155.0),
];

/// The machine's speed against the reference, 1.0 at reference speed
/// and 2.0 at half speed: the mean over the chases of each one's step
/// time over its reference. Takes about a tenth of a second.
#[must_use]
pub fn slowdown() -> f64 {
    CHASES
        .iter()
        .map(|&(log2_slots, steps, reference_ns)| chase_ns(log2_slots, steps) / reference_ns)
        .sum::<f64>()
        / CHASES.len() as f64
}

/// Nanoseconds per step of a pointer chase around one cycle through
/// `2^log2_slots` `u32` slots.
fn chase_ns(log2_slots: u32, steps: u32) -> f64 {
    let next = cycle(log2_slots);
    let start = Instant::now();
    let mut at = 0u32;
    for _ in 0..steps {
        at = next[at as usize];
    }
    black_box(at);
    start.elapsed().as_nanos() as f64 / f64::from(steps)
}

/// `next[i] = (a·i + c) mod 2^k` with `c` odd and `a ≡ 1 (mod 4)`: a
/// full-period linear congruential map, so following it from any slot
/// visits every slot once per lap, in an order the prefetchers cannot
/// follow.
fn cycle(log2_slots: u32) -> Vec<u32> {
    let mask = (1u32 << log2_slots) - 1;
    (0..=mask)
        .map(|i| i.wrapping_mul(1_664_525).wrapping_add(1_013_904_223) & mask)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_chase_visits_every_slot_once_per_lap() {
        for log2_slots in [12, 16] {
            let next = cycle(log2_slots);
            let mut seen = vec![false; next.len()];
            let mut at = 0usize;
            for _ in 0..next.len() {
                assert!(!seen[at], "slot {at} revisited before the lap ended");
                seen[at] = true;
                at = next[at] as usize;
            }
            assert_eq!(at, 0, "one lap returns to the start");
        }
        assert!(slowdown() > 0.0);
    }
}
