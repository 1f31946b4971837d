//! # vdo-core — the Requirements-as-Code (RQCODE) kernel
//!
//! This crate is the Rust reproduction of the VeriDevOps project's primary
//! contribution: *security requirements as code*. A requirement is an
//! ordinary value that carries
//!
//! 1. its **specification** — the natural-language text plus structured
//!    metadata mirroring a STIG finding ([`RequirementSpec`]),
//! 2. its **verification means** — the [`Checkable`] trait, whose
//!    [`check`](Checkable::check) method inspects a hosting environment and
//!    returns a three-valued [`CheckStatus`], and
//! 3. optionally its **remediation means** — the [`Enforceable`] trait,
//!    whose [`enforce`](Enforceable::enforce) method mutates the hosting
//!    environment towards compliance.
//!
//! Requirements compose ([`AllOf`], [`AnyOf`], [`Not`]), register into a
//! [`Catalog`] grouped by package (mirroring the Java `rqcode.*` package
//! tree), and are driven to compliance by the [`RemediationPlanner`], which
//! implements the check → enforce → re-check fixpoint loop that the paper's
//! "prevention at development" work package automates.
//!
//! The hosting environment is a type parameter `E`: the same requirement
//! classes work against the simulated Ubuntu/Windows hosts in `vdo-host`,
//! against execution traces in `vdo-temporal`, or against anything else
//! that can be queried and mutated.
//!
//! ```
//! use vdo_core::{Checkable, CheckStatus, AllOf, Not};
//!
//! // Any closure over the environment is a requirement check.
//! struct Env { tls: bool, telnet: bool }
//! let tls_on = |e: &Env| CheckStatus::from(e.tls);
//! let telnet_off = Not::new(|e: &Env| CheckStatus::from(e.telnet));
//!
//! let policy = AllOf::new(vec![]).with(tls_on).with(telnet_off);
//! assert_eq!(policy.check(&Env { tls: true, telnet: false }), CheckStatus::Pass);
//! assert_eq!(policy.check(&Env { tls: true, telnet: true }), CheckStatus::Fail);
//! ```

pub mod catalog;
pub mod composite;
pub mod planner;
pub mod report;
pub mod requirement;
pub mod status;
pub mod waiver;

pub use catalog::{Catalog, CatalogEntry, PackagePath, RuleSet};
pub use composite::{AllOf, AnyOf, Named, Not};
pub use planner::{PlannerConfig, PlannerOutcome, RemediationPlanner};
pub use report::{ComplianceReport, ReportSummary, RequirementResult};
pub use requirement::{Requirement, RequirementSpec, RequirementSpecBuilder, Severity};
pub use status::{CheckStatus, EnforcementStatus};
pub use waiver::{Waiver, WaiverSet};

/// A requirement whose satisfaction can be decided against a hosting
/// environment of type `E`.
///
/// This is the Rust rendering of RQCODE's `rqcode.concepts.Checkable`
/// interface. The environment is passed explicitly instead of being
/// ambient (as in the Java prototype, where `check()` inspected the
/// machine the JVM ran on): that is what makes the same requirement
/// testable against simulated hosts, recorded traces, and live systems.
///
/// Closures `Fn(&E) -> CheckStatus` implement this trait, so ad-hoc
/// propositions need no boilerplate.
pub trait Checkable<E: ?Sized> {
    /// Decides whether `env` currently satisfies the requirement.
    ///
    /// Returns [`CheckStatus::Incomplete`] when the environment does not
    /// expose enough information to decide (e.g. a query for a policy
    /// that does not exist on this host class).
    fn check(&self, env: &E) -> CheckStatus;

    /// The ids of the environment keys this check reads, or `None` when
    /// it does not say, in which case a [`Catalog`] counts it as reading
    /// every key. A check that answers `Some` promises that its verdict
    /// depends on those keys alone and, if it is also [`Enforceable`],
    /// that its `enforce` writes no other key. The catalogue indexes
    /// its entries by these ids, so a change that names the keys it
    /// wrote re-checks only the entries that read them.
    fn read_set(&self) -> Option<Vec<u64>> {
        None
    }
}

/// A requirement that can drive a hosting environment of type `E`
/// towards compliance.
///
/// Rust rendering of `rqcode.concepts.Enforceable`. Implementations are
/// expected (and property-tested, see `vdo-stigs`) to be **idempotent**:
/// enforcing an already-compliant environment must succeed and leave it
/// compliant.
pub trait Enforceable<E: ?Sized> {
    /// Mutates `env` so that the requirement becomes satisfied.
    ///
    /// Returns [`EnforcementStatus::Incomplete`] when remediation needs
    /// information or privileges the environment does not provide.
    fn enforce(&self, env: &mut E) -> EnforcementStatus;
}

/// A requirement that is both [`Checkable`] and [`Enforceable`] — the
/// analogue of RQCODE's `CheckableEnforceableRequirement`.
///
/// Blanket-implemented for every type with both capabilities; use it as a
/// trait object (`Box<dyn CheckEnforce<E>>`) when a catalogue needs to mix
/// heterogeneous requirement types.
pub trait CheckEnforce<E: ?Sized>: Checkable<E> + Enforceable<E> {}

impl<T, E: ?Sized> CheckEnforce<E> for T where T: Checkable<E> + Enforceable<E> {}

impl<E: ?Sized, F> Checkable<E> for F
where
    F: Fn(&E) -> CheckStatus,
{
    fn check(&self, env: &E) -> CheckStatus {
        self(env)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closure_is_checkable() {
        let req = |e: &u32| CheckStatus::from(*e > 3);
        assert_eq!(req.check(&4), CheckStatus::Pass);
        assert_eq!(req.check(&2), CheckStatus::Fail);
    }

    #[test]
    fn boxed_trait_object_is_checkable() {
        let req: Box<dyn Checkable<u32>> =
            Box::new(|e: &u32| CheckStatus::from(e.is_multiple_of(2)));
        assert_eq!(req.check(&8), CheckStatus::Pass);
    }

    #[test]
    fn reference_is_checkable() {
        let req = |e: &bool| CheckStatus::from(*e);
        let by_ref: &dyn Checkable<bool> = &req;
        assert_eq!(by_ref.check(&true), CheckStatus::Pass);
    }

    #[test]
    fn key_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CheckStatus>();
        assert_send_sync::<EnforcementStatus>();
        assert_send_sync::<RequirementSpec>();
        assert_send_sync::<ComplianceReport>();
        assert_send_sync::<WaiverSet>();
        assert_send_sync::<RemediationPlanner>();
        assert_send_sync::<Catalog<u32>>();
    }
}
