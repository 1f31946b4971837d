//! # vdo-host — simulated hosting environments for requirement checking
//!
//! The VeriDevOps prototype checks and enforces STIG requirements against
//! *real* operating systems: `dpkg`/`apt` on Ubuntu 18.04 and
//! `auditpol.exe`/the registry on Windows 10. A laptop-scale reproduction
//! cannot (and should not) reconfigure real machines, so this crate
//! provides **deterministic in-memory simulations** of both host classes:
//!
//! * [`UnixHost`] — package database, system services, key/value
//!   configuration files (sshd-style directives), file modes, and user
//!   accounts;
//! * [`WindowsHost`] — the audit-policy table that `auditpol.exe` fronts,
//!   a registry hive, and account-lockout policy.
//!
//! Both expose exactly the query/mutate surface the STIG requirement
//! classes in `vdo-stigs` need, which preserves the paper's code path:
//! `check()` queries the host, `enforce()` mutates it, and the remediation
//! planner loops the two. [`drift`] adds seeded random configuration
//! drift (the "attacks/misconfigurations appear at operations time" part
//! of the VeriDevOps loop), and [`fleet`] holds the [`FleetConfig`] that
//! names a host population for the compliance-at-scale experiments (E3).
//!
//! Three layers make the surface scale past per-host structs:
//!
//! * [`view`] — the platform-generic [`HostRead`] / [`HostWrite`] traits
//!   (plus the [`Platform`] enum) that checks, drift, and diffing are
//!   written against once, instead of per concrete host type;
//! * [`intern`] + [`columnar`] — string interning and key-major overlay
//!   tables, the storage primitives;
//! * [`store`] — [`FleetStore`], the copy-on-write columnar fleet:
//!   one shared baseline host plus per-host deltas, point lookups
//!   through [`store::HostView`], vectorized per-key sweeps, and an
//!   incremental dirty set for drift detection. A million-host fleet
//!   costs roughly one host plus total drift. It is the one fleet
//!   generator; [`FleetStore::materialize_unix`] hands out an owned
//!   [`UnixHost`] where a caller needs one (the planner's catalogue is
//!   typed on the single-host structs).
//!
//! ```
//! use vdo_host::UnixHost;
//!
//! let mut host = UnixHost::baseline_ubuntu_1804();
//! assert!(host.is_package_installed("openssh-server"));
//! host.install_package("nis", "3.17");          // drift: someone adds NIS
//! assert!(host.is_package_installed("nis"));
//! host.remove_package("nis");                   // enforcement removes it
//! assert!(!host.is_package_installed("nis"));
//! ```

pub mod columnar;
pub mod diff;
pub mod drift;
pub mod fleet;
pub mod intern;
pub mod store;
pub mod unix;
pub mod view;
pub mod windows;

pub use diff::{diff_hosts, HostDelta};
pub use drift::{DriftEvent, DriftInjector, DriftKind, DriftPlan};
pub use fleet::{FleetConfig, FleetConfigBuilder, FleetConfigError};
pub use intern::{Interner, Sym};
pub use store::{FleetStore, HostView, HostViewMut, MemoryProfile};
pub use unix::{FileMode, HostKey, PackageState, SavedKey, ServiceState, UnixHost};
pub use view::{HostRead, HostWrite, Platform};
pub use windows::{AuditPolicy, AuditSetting, RegistryValue, WindowsHost};
