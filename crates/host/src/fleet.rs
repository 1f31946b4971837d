//! Host fleets for compliance-at-scale experiments.
//!
//! Experiment E3 sweeps the check/enforce loop over populations of hosts
//! with varying drift intensity. [`Fleet`] stamps out `n` baseline hosts
//! for the configured [`Platform`], drifts each with an independent (but
//! seed-derived) event budget, and hands them to the planner.
//!
//! This is the owned-struct representation — every host materialized as
//! its own [`UnixHost`] / [`WindowsHost`]. For fleets beyond a few
//! thousand hosts use [`FleetStore`](crate::FleetStore), which shares
//! the baseline copy-on-write and is observationally equivalent for
//! equal configs (the equivalence property tests pin this).
//!
//! ```
//! use vdo_host::{Fleet, FleetConfig, HostRead, Platform};
//!
//! let config = FleetConfig::builder()
//!     .size(12)
//!     .drift_probability(0.5)
//!     .seed(7)
//!     .build()
//!     .unwrap();
//! let fleet = Fleet::generate(&config);
//! assert_eq!(fleet.len(), 12);
//! assert!(fleet.hosts().all(|h| h.platform() == Platform::Unix));
//! ```

use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::drift::DriftInjector;
use crate::unix::UnixHost;
use crate::view::{HostRead, Platform};
use crate::windows::WindowsHost;

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
}

impl fmt::Display for FleetConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetConfigError::RateOutOfRange(field, v) => {
                write!(f, "{field} must be within [0, 1], got {v}")
            }
            FleetConfigError::Zero(field) => write!(f, "{field} must be positive"),
        }
    }
}

impl std::error::Error for FleetConfigError {}

/// Builder for [`FleetConfig`] following the `PipelineConfig` /
/// `OpsConfig` convention: chain setters, then [`build`] validates.
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
    /// Returns [`FleetConfigError`] if `size == 0` or
    /// `drift_probability` is outside `[0, 1]` (NaN included).
    pub fn build(self) -> Result<FleetConfig, FleetConfigError> {
        let c = self.config;
        if c.size == 0 {
            return Err(FleetConfigError::Zero("size"));
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

/// A generated population of simulated hosts.
#[derive(Debug, Clone)]
pub struct Fleet {
    platform: Platform,
    unix: Vec<UnixHost>,
    windows: Vec<WindowsHost>,
    drifted: usize,
}

/// Read-only reference to one fleet host, platform-erased. Use the
/// [`HostRead`] trait for cross-platform queries, or [`as_unix`] /
/// [`as_windows`] when a concrete type is required (e.g. a typed STIG
/// catalog).
///
/// [`as_unix`]: HostRef::as_unix
/// [`as_windows`]: HostRef::as_windows
#[derive(Debug, Clone, Copy)]
pub enum HostRef<'a> {
    /// A Unix host.
    Unix(&'a UnixHost),
    /// A Windows host.
    Windows(&'a WindowsHost),
}

impl<'a> HostRef<'a> {
    /// The concrete Unix host, if this is one.
    #[must_use]
    pub fn as_unix(self) -> Option<&'a UnixHost> {
        match self {
            HostRef::Unix(h) => Some(h),
            HostRef::Windows(_) => None,
        }
    }

    /// The concrete Windows host, if this is one.
    #[must_use]
    pub fn as_windows(self) -> Option<&'a WindowsHost> {
        match self {
            HostRef::Windows(h) => Some(h),
            HostRef::Unix(_) => None,
        }
    }
}

/// Mutable reference to one fleet host, platform-erased.
#[derive(Debug)]
pub enum HostMut<'a> {
    /// A Unix host.
    Unix(&'a mut UnixHost),
    /// A Windows host.
    Windows(&'a mut WindowsHost),
}

impl<'a> HostMut<'a> {
    /// The concrete mutable Unix host, if this is one.
    #[must_use]
    pub fn into_unix_mut(self) -> Option<&'a mut UnixHost> {
        match self {
            HostMut::Unix(h) => Some(h),
            HostMut::Windows(_) => None,
        }
    }

    /// The concrete mutable Windows host, if this is one.
    #[must_use]
    pub fn into_windows_mut(self) -> Option<&'a mut WindowsHost> {
        match self {
            HostMut::Windows(h) => Some(h),
            HostMut::Unix(_) => None,
        }
    }
}

macro_rules! delegate_host_read {
    ($ty:ty, $unix:pat => $uh:expr, $win:pat => $wh:expr) => {
        impl HostRead for $ty {
            fn platform(&self) -> Platform {
                match self {
                    $unix => HostRead::platform($uh),
                    $win => HostRead::platform($wh),
                }
            }

            fn is_package_installed(&self, name: &str) -> bool {
                match self {
                    $unix => HostRead::is_package_installed($uh, name),
                    $win => HostRead::is_package_installed($wh, name),
                }
            }

            fn package_version(&self, name: &str) -> Option<&str> {
                match self {
                    $unix => HostRead::package_version($uh, name),
                    $win => HostRead::package_version($wh, name),
                }
            }

            fn installed_package_names(&self) -> Vec<String> {
                match self {
                    $unix => HostRead::installed_package_names($uh),
                    $win => HostRead::installed_package_names($wh),
                }
            }

            fn service(&self, name: &str) -> Option<crate::unix::ServiceState> {
                match self {
                    $unix => HostRead::service($uh, name),
                    $win => HostRead::service($wh, name),
                }
            }

            fn directive(&self, path: &str, key: &str) -> Option<&str> {
                match self {
                    $unix => HostRead::directive($uh, path, key),
                    $win => HostRead::directive($wh, path, key),
                }
            }

            fn file_mode(&self, path: &str) -> Option<crate::unix::FileMode> {
                match self {
                    $unix => HostRead::file_mode($uh, path),
                    $win => HostRead::file_mode($wh, path),
                }
            }

            fn has_account(&self, name: &str) -> bool {
                match self {
                    $unix => HostRead::has_account($uh, name),
                    $win => HostRead::has_account($wh, name),
                }
            }

            fn all_passwords_encrypted(&self) -> bool {
                match self {
                    $unix => HostRead::all_passwords_encrypted($uh),
                    $win => HostRead::all_passwords_encrypted($wh),
                }
            }

            fn kernel_param(&self, key: &str) -> Option<&str> {
                match self {
                    $unix => HostRead::kernel_param($uh, key),
                    $win => HostRead::kernel_param($wh, key),
                }
            }

            fn audit_setting(
                &self,
                category: &str,
                subcategory: &str,
            ) -> crate::windows::AuditSetting {
                match self {
                    $unix => HostRead::audit_setting($uh, category, subcategory),
                    $win => HostRead::audit_setting($wh, category, subcategory),
                }
            }

            fn registry_value(
                &self,
                key: &str,
                name: &str,
            ) -> Option<crate::windows::RegistryValue> {
                match self {
                    $unix => HostRead::registry_value($uh, key, name),
                    $win => HostRead::registry_value($wh, key, name),
                }
            }

            fn lockout_threshold(&self) -> u32 {
                match self {
                    $unix => HostRead::lockout_threshold($uh),
                    $win => HostRead::lockout_threshold($wh),
                }
            }

            fn lockout_duration_minutes(&self) -> u32 {
                match self {
                    $unix => HostRead::lockout_duration_minutes($uh),
                    $win => HostRead::lockout_duration_minutes($wh),
                }
            }
        }
    };
}

delegate_host_read!(HostRef<'_>, HostRef::Unix(h) => *h, HostRef::Windows(h) => *h);
delegate_host_read!(HostMut<'_>, HostMut::Unix(h) => &**h, HostMut::Windows(h) => &**h);

impl crate::view::HostWrite for HostMut<'_> {
    fn install_package(&mut self, name: &str, version: &str) {
        if let HostMut::Unix(h) = self {
            crate::view::HostWrite::install_package(*h, name, version);
        }
    }

    fn remove_package(&mut self, name: &str) -> bool {
        match self {
            HostMut::Unix(h) => crate::view::HostWrite::remove_package(*h, name),
            HostMut::Windows(_) => false,
        }
    }

    fn set_service(&mut self, name: &str, state: crate::unix::ServiceState) {
        if let HostMut::Unix(h) = self {
            crate::view::HostWrite::set_service(*h, name, state);
        }
    }

    fn write_directive(&mut self, path: &str, key: &str, value: &str) {
        if let HostMut::Unix(h) = self {
            crate::view::HostWrite::write_directive(*h, path, key, value);
        }
    }

    fn remove_directive(&mut self, path: &str, key: &str) -> bool {
        match self {
            HostMut::Unix(h) => crate::view::HostWrite::remove_directive(*h, path, key),
            HostMut::Windows(_) => false,
        }
    }

    fn set_file_mode(&mut self, path: &str, mode: crate::unix::FileMode) {
        if let HostMut::Unix(h) = self {
            crate::view::HostWrite::set_file_mode(*h, path, mode);
        }
    }

    fn add_account(&mut self, name: &str, uid: u32, locked: bool, password_encrypted: bool) {
        if let HostMut::Unix(h) = self {
            crate::view::HostWrite::add_account(*h, name, uid, locked, password_encrypted);
        }
    }

    fn corrupt_password_storage(&mut self, name: &str) -> bool {
        match self {
            HostMut::Unix(h) => crate::view::HostWrite::corrupt_password_storage(*h, name),
            HostMut::Windows(_) => false,
        }
    }

    fn encrypt_all_passwords(&mut self) {
        if let HostMut::Unix(h) = self {
            crate::view::HostWrite::encrypt_all_passwords(*h);
        }
    }

    fn set_kernel_param(&mut self, key: &str, value: &str) {
        if let HostMut::Unix(h) = self {
            crate::view::HostWrite::set_kernel_param(*h, key, value);
        }
    }

    fn set_audit(&mut self, category: &str, subcategory: &str, s: crate::windows::AuditSetting) {
        if let HostMut::Windows(h) = self {
            crate::view::HostWrite::set_audit(*h, category, subcategory, s);
        }
    }

    fn set_registry_value(&mut self, key: &str, name: &str, value: crate::windows::RegistryValue) {
        if let HostMut::Windows(h) = self {
            crate::view::HostWrite::set_registry_value(*h, key, name, value);
        }
    }

    fn set_lockout_threshold(&mut self, attempts: u32) {
        if let HostMut::Windows(h) = self {
            crate::view::HostWrite::set_lockout_threshold(*h, attempts);
        }
    }

    fn set_lockout_duration_minutes(&mut self, minutes: u32) {
        if let HostMut::Windows(h) = self {
            crate::view::HostWrite::set_lockout_duration_minutes(*h, minutes);
        }
    }
}

impl Fleet {
    /// Generates a fleet of baseline hosts for `config.platform`.
    #[must_use]
    pub fn generate(config: &FleetConfig) -> Fleet {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut unix = Vec::new();
        let mut windows = Vec::new();
        let mut drifted = 0;
        match config.platform {
            Platform::Unix => unix.reserve(config.size),
            Platform::Windows => windows.reserve(config.size),
        }
        for i in 0..config.size {
            let drift_this = rng.gen_bool(config.drift_probability);
            let mut inj =
                drift_this.then(|| DriftInjector::new(config.seed.wrapping_add(i as u64 + 1)));
            match config.platform {
                Platform::Unix => {
                    let mut host = UnixHost::baseline_ubuntu_1804();
                    if let Some(inj) = inj.as_mut() {
                        inj.drift(&mut host, Platform::Unix, config.drift_events_per_host);
                        drifted += 1;
                    }
                    unix.push(host);
                }
                Platform::Windows => {
                    let mut host = WindowsHost::baseline_win10();
                    if let Some(inj) = inj.as_mut() {
                        inj.drift(&mut host, Platform::Windows, config.drift_events_per_host);
                        drifted += 1;
                    }
                    windows.push(host);
                }
            }
        }
        Fleet {
            platform: config.platform,
            unix,
            windows,
            drifted,
        }
    }

    /// The platform this fleet simulates.
    #[must_use]
    pub fn platform(&self) -> Platform {
        self.platform
    }

    /// Iterates the fleet's hosts in generation order.
    pub fn hosts(&self) -> impl Iterator<Item = HostRef<'_>> {
        self.unix
            .iter()
            .map(HostRef::Unix)
            .chain(self.windows.iter().map(HostRef::Windows))
    }

    /// Iterates the fleet's hosts mutably in generation order.
    pub fn hosts_mut(&mut self) -> impl Iterator<Item = HostMut<'_>> {
        self.unix
            .iter_mut()
            .map(HostMut::Unix)
            .chain(self.windows.iter_mut().map(HostMut::Windows))
    }

    /// The Unix hosts as a slice (crate-internal; external callers use
    /// [`hosts`](Fleet::hosts)).
    #[cfg(test)]
    pub(crate) fn unix_slice(&self) -> &[UnixHost] {
        &self.unix
    }

    /// How many hosts received drift during generation.
    #[must_use]
    pub fn drifted_count(&self) -> usize {
        self.drifted
    }

    /// Total host count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.unix.len() + self.windows.len()
    }

    /// `true` iff the fleet has no hosts.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_respects_size_and_determinism() {
        let cfg = FleetConfig::builder().size(20).seed(9).build().unwrap();
        let a = Fleet::generate(&cfg);
        let b = Fleet::generate(&cfg);
        assert_eq!(a.len(), 20);
        assert_eq!(a.platform(), Platform::Unix);
        assert_eq!(a.unix_slice(), b.unix_slice());
        assert_eq!(a.drifted_count(), b.drifted_count());
    }

    #[test]
    fn zero_probability_means_pristine() {
        let cfg = FleetConfig::builder()
            .size(5)
            .drift_probability(0.0)
            .build()
            .unwrap();
        let f = Fleet::generate(&cfg);
        assert_eq!(f.drifted_count(), 0);
        let baseline = UnixHost::baseline_ubuntu_1804();
        assert!(f.unix_slice().iter().all(|h| *h == baseline));
    }

    #[test]
    fn full_probability_drifts_everyone() {
        let cfg = FleetConfig::builder()
            .size(8)
            .drift_probability(1.0)
            .build()
            .unwrap();
        let f = Fleet::generate(&cfg);
        assert_eq!(f.drifted_count(), 8);
    }

    #[test]
    fn windows_fleet_generates_via_platform() {
        let cfg = FleetConfig::builder()
            .size(6)
            .drift_probability(1.0)
            .platform(Platform::Windows)
            .build()
            .unwrap();
        let f = Fleet::generate(&cfg);
        assert_eq!(f.len(), 6);
        assert_eq!(f.platform(), Platform::Windows);
        assert!(f.hosts().all(|h| h.as_windows().is_some()));
        assert!(f.hosts().all(|h| h.as_unix().is_none()));
    }

    #[test]
    fn hosts_iterators_expose_every_host() {
        let cfg = FleetConfig::builder().size(4).seed(2).build().unwrap();
        let mut f = Fleet::generate(&cfg);
        assert_eq!(f.hosts().count(), 4);
        for mut h in f.hosts_mut() {
            use crate::view::HostWrite;
            h.install_package("marker-pkg", "1.0");
        }
        assert!(f.hosts().all(|h| h.is_package_installed("marker-pkg")));
    }

    #[test]
    fn builder_rejects_nonsense() {
        assert_eq!(
            FleetConfig::builder().size(0).build(),
            Err(FleetConfigError::Zero("size"))
        );
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
    }
}
