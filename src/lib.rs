//! # veridevops — umbrella crate for the VeriDevOps-RS workspace
//!
//! Re-exports every component crate of the VeriDevOps reproduction under
//! one roof so that examples, integration tests, and downstream users can
//! depend on a single crate:
//!
//! * [`obs`] — the unified observability layer (spans, counters,
//!   histograms, deterministic snapshots) the closed loop records into;
//! * [`core`] — the Requirements-as-Code (RQCODE) kernel;
//! * [`host`] — simulated Ubuntu/Windows hosting environments;
//! * [`stigs`] — concrete STIG requirement catalogues;
//! * [`temporal`] — temporal requirement patterns and runtime monitoring;
//! * [`nalabs`] — natural-language requirement smell metrics;
//! * [`specpat`] — specification patterns, observer automata, CTL checking;
//! * [`gwt`] — Given-When-Then models and test generation;
//! * [`tears`] — guarded-assertion (G/A) specifications over signal logs;
//! * [`corpus`] — synthetic requirement-corpus and workload generators;
//! * [`analyze`] — cross-artifact static analysis (the requirements
//!   lint engine behind the pipeline's analysis gate);
//! * [`pipeline`] — the DevOps pipeline substrate tying it all together;
//! * [`soc`] — the event-driven security-operations engine (sharded
//!   event bus, shard-parallel monitor pool, remediation dispatcher);
//! * [`server`] — the multi-tenant VeriDevOps-as-a-service front end
//!   (admission control, weighted fair scheduling, open-loop load
//!   generation);
//! * [`trace`] — causal tracing across the closed loop (trace contexts,
//!   the sharded event journal, the compact columnar on-disk journal
//!   format, JSONL/Chrome/Prometheus exporters, and SLO burn-rate
//!   alerting);
//! * [`replay`] — deterministic replay over the columnar journal:
//!   recording with digest checkpoints, replay-to-tick/-checkpoint/-seq
//!   reconstruction of fleet + SOC state, and what-if re-runs under
//!   modified configuration.
//!
//! See `DESIGN.md` for the architecture and `EXPERIMENTS.md` for the
//! evaluation suite. The quickest start:
//!
//! ```
//! use veridevops::core::{RemediationPlanner, PlannerConfig, PlannerOutcome};
//! use veridevops::host::UnixHost;
//! use veridevops::stigs::ubuntu;
//!
//! let catalog = ubuntu::catalog();
//! let mut host = UnixHost::baseline_ubuntu_1804();
//! let run = RemediationPlanner::new(PlannerConfig::default()).run(&catalog, &mut host);
//! assert_eq!(run.outcome, PlannerOutcome::Compliant);
//! ```

pub mod bridge;

pub use vdo_analyze as analyze;
pub use vdo_core as core;
pub use vdo_corpus as corpus;
pub use vdo_gwt as gwt;
pub use vdo_host as host;
pub use vdo_nalabs as nalabs;
pub use vdo_obs as obs;
pub use vdo_pipeline as pipeline;
pub use vdo_replay as replay;
pub use vdo_server as server;
pub use vdo_soc as soc;
pub use vdo_specpat as specpat;
pub use vdo_stigs as stigs;
pub use vdo_tears as tears;
pub use vdo_temporal as temporal;
pub use vdo_trace as trace;
