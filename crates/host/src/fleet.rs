//! Fleet parameters for compliance-at-scale experiments.
//!
//! Experiment E3 sweeps the check/enforce loop over populations of hosts
//! with varying drift intensity. A [`FleetConfig`] names the population:
//! its size, its [`Platform`], how likely each host is to have drifted
//! and by how many events, and the master seed. [`FleetStore::generate`]
//! turns it into a fleet; [`FleetStore::materialize_unix`] hands the
//! planner an owned host.
//!
//! ```
//! use vdo_host::{FleetConfig, FleetStore, HostRead, Platform};
//!
//! let config = FleetConfig::builder()
//!     .size(12)
//!     .drift_probability(0.5)
//!     .seed(7)
//!     .build()
//!     .unwrap();
//! let store = FleetStore::generate(&config);
//! assert_eq!(store.len(), 12);
//! assert_eq!(store.host(3).platform(), Platform::Unix);
//! ```
//!
//! [`FleetStore::generate`]: crate::FleetStore::generate
//! [`FleetStore::materialize_unix`]: crate::FleetStore::materialize_unix

use std::fmt;

use crate::view::Platform;

/// Parameters for generating a fleet.
///
/// Construct via [`FleetConfig::builder`] to get validation; the fields
/// stay public for struct-update syntax in tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetConfig {
    /// Number of hosts.
    pub size: usize,
    /// Probability that a host has drifted at all.
    pub drift_probability: f64,
    /// Drift events applied to each drifted host.
    pub drift_events_per_host: usize,
    /// Master seed; per-host seeds derive from it.
    pub seed: u64,
    /// Operating system the fleet simulates.
    pub platform: Platform,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            size: 10,
            drift_probability: 0.5,
            drift_events_per_host: 3,
            seed: 0,
            platform: Platform::Unix,
        }
    }
}

impl FleetConfig {
    /// Starts a validating builder seeded with the defaults.
    #[must_use]
    pub fn builder() -> FleetConfigBuilder {
        FleetConfigBuilder {
            config: FleetConfig::default(),
        }
    }
}

/// A rejected [`FleetConfigBuilder`] field.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FleetConfigError {
    /// A probability field fell outside `[0, 1]`.
    RateOutOfRange(&'static str, f64),
    /// A count field that must be positive was zero.
    Zero(&'static str),
    /// `size` exceeds the `u32` host ids a fleet store addresses.
    TooManyHosts(usize),
}

impl fmt::Display for FleetConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetConfigError::RateOutOfRange(field, v) => {
                write!(f, "{field} must be within [0, 1], got {v}")
            }
            FleetConfigError::Zero(field) => write!(f, "{field} must be positive"),
            FleetConfigError::TooManyHosts(size) => {
                write!(f, "size must be at most {}, got {size}", u32::MAX)
            }
        }
    }
}

impl std::error::Error for FleetConfigError {}

/// Builder for [`FleetConfig`] following the `PipelineConfig`
/// convention: chain setters, then [`build`] validates.
///
/// [`build`]: FleetConfigBuilder::build
#[derive(Debug, Clone)]
pub struct FleetConfigBuilder {
    config: FleetConfig,
}

impl FleetConfigBuilder {
    /// Number of hosts (must be positive).
    #[must_use]
    pub fn size(mut self, size: usize) -> Self {
        self.config.size = size;
        self
    }

    /// Probability that a host has drifted at all (must be in `[0, 1]`).
    #[must_use]
    pub fn drift_probability(mut self, p: f64) -> Self {
        self.config.drift_probability = p;
        self
    }

    /// Drift events applied to each drifted host.
    #[must_use]
    pub fn drift_events_per_host(mut self, n: usize) -> Self {
        self.config.drift_events_per_host = n;
        self
    }

    /// Master seed; per-host seeds derive from it.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Operating system the fleet simulates.
    #[must_use]
    pub fn platform(mut self, platform: Platform) -> Self {
        self.config.platform = platform;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`FleetConfigError`] if `size` is zero or exceeds
    /// `u32::MAX`, or `drift_probability` is outside `[0, 1]` (NaN
    /// included).
    pub fn build(self) -> Result<FleetConfig, FleetConfigError> {
        let c = self.config;
        if c.size == 0 {
            return Err(FleetConfigError::Zero("size"));
        }
        if u32::try_from(c.size).is_err() {
            return Err(FleetConfigError::TooManyHosts(c.size));
        }
        if !(0.0..=1.0).contains(&c.drift_probability) {
            return Err(FleetConfigError::RateOutOfRange(
                "drift_probability",
                c.drift_probability,
            ));
        }
        Ok(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_rejects_nonsense() {
        assert_eq!(
            FleetConfig::builder().size(0).build(),
            Err(FleetConfigError::Zero("size"))
        );
        // The builder allocates nothing, so the largest sizes are cheap
        // to validate.
        let max = usize::try_from(u32::MAX).unwrap();
        assert_eq!(FleetConfig::builder().size(max).build().unwrap().size, max);
        if let Some(over) = max.checked_add(1) {
            assert_eq!(
                FleetConfig::builder().size(over).build(),
                Err(FleetConfigError::TooManyHosts(over))
            );
        }
        assert!(matches!(
            FleetConfig::builder().drift_probability(1.5).build(),
            Err(FleetConfigError::RateOutOfRange("drift_probability", _))
        ));
        assert!(matches!(
            FleetConfig::builder().drift_probability(f64::NAN).build(),
            Err(FleetConfigError::RateOutOfRange("drift_probability", _))
        ));
        let ok = FleetConfig::builder()
            .size(3)
            .drift_probability(1.0)
            .drift_events_per_host(2)
            .seed(5)
            .build()
            .unwrap();
        assert_eq!(ok.size, 3);
        assert_eq!(ok.drift_events_per_host, 2);
        assert_eq!(ok.seed, 5);
    }

    #[test]
    fn error_display_is_readable() {
        assert_eq!(
            FleetConfigError::Zero("size").to_string(),
            "size must be positive"
        );
        assert_eq!(
            FleetConfigError::RateOutOfRange("drift_probability", 2.0).to_string(),
            "drift_probability must be within [0, 1], got 2"
        );
        assert_eq!(
            FleetConfigError::TooManyHosts(4_294_967_296).to_string(),
            "size must be at most 4294967295, got 4294967296"
        );
    }
}
