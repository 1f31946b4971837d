//! The workspace's two deterministic hash primitives.
//!
//! Trace ids, journal shard routing, the SOC bus's host→shard map,
//! remediation fault rolls, replay digests and analysis fingerprints
//! are all pure functions of their inputs built from these two
//! functions, so equal inputs hash equally in every crate, at any
//! worker count, on every run.

/// The FNV-1a 64-bit offset basis: the state to start a fresh hash at.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64 over `bytes`, folded into `state`. Start at
/// [`FNV_OFFSET`] (optionally XOR-ed with a seed) and chain calls to
/// hash several fields.
#[inline]
#[must_use]
pub fn fnv1a(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(FNV_PRIME);
    }
    state
}

/// One SplitMix64 output for state `z`: add the golden-ratio increment,
/// then apply the finalizer. A bijective bit mixer.
#[inline]
#[must_use]
pub fn mix64(z: u64) -> u64 {
    let mut z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `true` with probability `p` for a uniformly mixed `z` (a [`mix64`]
/// output): its top 53 bits, read as a fraction in `[0, 1)`, fall below
/// `p`. A keyed coin flip: `p = 0` never hits, `p = 1` always does.
#[inline]
#[must_use]
pub fn chance(z: u64, p: f64) -> bool {
    ((z >> 11) as f64 / (1u64 << 53) as f64) < p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_standard_vectors() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(
            fnv1a(fnv1a(FNV_OFFSET, b"foo"), b"bar"),
            fnv1a(FNV_OFFSET, b"foobar"),
            "chained calls hash the concatenation"
        );
    }

    #[test]
    fn mix64_matches_splitmix64() {
        // The first outputs of SplitMix64 seeded with 0.
        assert_eq!(mix64(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(mix64(0x9E37_79B9_7F4A_7C15), 0x6e78_9e6a_a1b9_65f4);
    }

    #[test]
    fn chance_hits_at_its_rate_and_honours_the_bounds() {
        let hits = (0..10_000u64).filter(|&i| chance(mix64(i), 0.25)).count();
        assert!((2_300..2_700).contains(&hits), "{hits} hits of 10,000");
        assert!((0..1_000u64).all(|i| chance(mix64(i), 1.0)));
        assert!((0..1_000u64).all(|i| !chance(mix64(i), 0.0)));
        assert!(chance(0, f64::MIN_POSITIVE) && !chance(u64::MAX, 1.0 - 1e-12));
    }
}
