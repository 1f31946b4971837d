//! # vdo-pipeline — the VeriDevOps closed loop
//!
//! The DATE 2021 paper's central figure is a loop: security requirements
//! enter as natural language; WP2 tooling (NALABS, RQCODE, PROPAS)
//! formalises them; **prevention at development** (WP4) gates every
//! commit in CI; **protection at operations** (WP3) monitors the deployed
//! system and reacts; findings feed back into requirements. This crate
//! is that loop as an executable simulation:
//!
//! * [`repo`] — commits carrying new requirement text and configuration
//!   changes;
//! * [`gates`] — CI quality gates behind the common [`Gate`] trait: the
//!   NALABS requirements gate, the RQCODE compliance gate, the GWT
//!   test-coverage gate, and the vdo-analyze static-analysis gate (each
//!   can be disabled to obtain the paper's "manual / unassisted"
//!   baseline);
//! * [`staging`] — a commit staged on production in place and rolled
//!   back unless it merges, for callers that keep production's verdicts;
//! * [`ops`] — the operations phase: the deployed host on the SOC
//!   engine, seeded drift, continuous or periodic detection
//!   ([`DetectionMode`]), automated remediation, and an incident log
//!   with exact detection latencies;
//! * [`run`] — the end-to-end scenario and its metrics (experiment E10).
//!
//! ```
//! use vdo_pipeline::{run, DetectionMode, PipelineConfig};
//! use vdo_trace::Telemetry;
//!
//! let off = Telemetry::off();
//! let automated = run(&PipelineConfig { seed: 1, ..PipelineConfig::default() }, &off);
//! let manual = run(
//!     &PipelineConfig {
//!         seed: 1,
//!         requirements_gate: false,
//!         compliance_gate: false,
//!         detection: DetectionMode::Periodic { monitor: None, audit: 500 },
//!         ..PipelineConfig::default()
//!     },
//!     &off,
//! );
//! assert!(automated.ops.mean_detection_latency() <= manual.ops.mean_detection_latency());
//! ```

pub mod config;
pub mod gates;
pub mod ops;
pub mod repo;
pub mod staging;

mod scenario;

pub use config::{ConfigError, PipelineConfigBuilder};
pub use gates::{
    AnalysisGate, ComplianceGate, Gate, GateContext, GateDecision, RequirementsGate, TestGate,
};
pub use ops::{Incident, OperationsPhase, OpsReport};
pub use repo::{Commit, ConfigChange};
pub use scenario::{run, PipelineConfig, PipelineReport};
pub use staging::Staged;
pub use vdo_soc::{DetectionMode, SocConfig};
