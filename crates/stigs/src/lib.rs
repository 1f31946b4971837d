//! # vdo-stigs — executable STIG requirement catalogues
//!
//! The concrete security requirements of the VeriDevOps patterns
//! catalogue (D2.7 packages `rqcode.stigs.ubuntu`, `rqcode.stigs.win10`
//! and `rqcode.patterns.win10`), implemented as Rust values over the
//! simulated hosts of `vdo-host`:
//!
//! * [`ubuntu`] — Canonical Ubuntu 18.04 LTS STIG findings
//!   (`V-219157` "no NIS package", `V-219158` "no rsh-server", …) built
//!   from reusable patterns like [`ubuntu::UbuntuPackagePattern`] — the
//!   flagship example of RQCODE reuse: one pattern class, many findings;
//! * [`win10`] — Windows 10 STIG audit-policy findings (`V-63447`,
//!   `V-63449`, `V-63463`, `V-63467`, `V-63483`, `V-63487`) built from
//!   [`win10::AuditPolicyPattern`], the Rust counterpart of the Java
//!   `AuditPolicyRequirement` hierarchy that forks `auditpol.exe`.
//!
//! Each platform writes every finding once, as one row of its rule
//! table ([`ubuntu::rules`], [`win10::rules`]): the finding's
//! [`vdo_core::RequirementSpec`] and the [`sweep::CheckOp`] that checks
//! and enforces it. Everything else is built from those rows: the
//! [`vdo_core::Catalog`] registers each row's op and indexes it by the
//! host keys it reads ([`sweep::CheckOp::read_keys`]), so a commit, a
//! drift event or an enforcement re-checks only the rules it can
//! change; the vectorized [`sweep::FleetAuditor`] evaluates the rows
//! over a columnar fleet, and [`win10::full_guide`] folds the Windows
//! rows into one composite. The remediation planner can sweep a whole
//! guide:
//!
//! ```
//! use vdo_core::{PlannerConfig, PlannerOutcome, RemediationPlanner};
//! use vdo_host::UnixHost;
//!
//! let catalog = vdo_stigs::ubuntu::catalog();
//! let mut host = UnixHost::baseline_ubuntu_1804();   // stock, non-compliant
//! let run = RemediationPlanner::new(PlannerConfig::default()).run(&catalog, &mut host);
//! assert_eq!(run.outcome, PlannerOutcome::Compliant);
//! assert!(!host.is_package_installed("telnetd"));
//! ```

pub mod sweep;
pub mod ubuntu;
pub mod win10;
