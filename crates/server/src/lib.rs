//! # vdo-server — multi-tenant VeriDevOps-as-a-service front end
//!
//! The VeriDevOps paper frames verification and protection as a
//! continuous pipeline an organisation *operates*, and the follow-on
//! industry studies run such pipelines as shared services across many
//! teams. This crate is that front end over the rest of the workspace:
//! a long-lived [`Server`] multiplexing isolated [`Tenant`]s — each
//! owning its requirement catalogue, its CI gate configuration (the
//! common [`vdo_pipeline::Gate`] trait), and its simulated fleet —
//! behind a typed request model.
//!
//! The moving parts, in request-lifecycle order:
//!
//! * [`Request`] / [`Response`] — the four-verb service surface
//!   (`SubmitRequirement`, `PushCommit`, `QueryIncident`, `RunOps`);
//! * **admission control** — bounded per-tenant [`TenantQueue`]s that
//!   reject with a typed [`Rejection`] reason when full, giving the
//!   service backpressure instead of unbounded memory;
//! * [`DrrScheduler`] — weighted deficit-round-robin fair scheduling:
//!   tenants receive service proportional to their weights, and any
//!   non-empty queue is served within at most *N* dispatch rounds
//!   (starvation freedom, property-tested);
//! * the **worker pool** — each round's per-tenant batches run as one
//!   pass of the SOC engine's pool ([`vdo_soc::with_pool`]); one tenant
//!   is served by exactly one thread per round, preserving per-tenant
//!   request order under any schedule;
//! * [`LoadGen`] — a deterministic open-loop traffic generator
//!   (seeded arrival schedule, weighted tenant and request mixes,
//!   burst patterns) capable of millions of requests per run;
//! * observability — end-to-end latency through [`vdo_obs`] histograms
//!   (including the sub-millisecond `nanos` preset for per-request
//!   service time) and [`vdo_trace`] spans chaining tenant root →
//!   request → response, so every response resolves to its tenant and
//!   originating request.
//!
//! Determinism contract (experiment E15 asserts it): with equal seeds,
//! per-tenant verdict logs and journal fingerprints are byte-identical
//! at any worker count.
//!
//! ```
//! use vdo_server::{
//!     LoadConfig, LoadGen, Request, Server, ServerConfig, ServerMetrics,
//!     ServerTracing, TenantConfig,
//! };
//!
//! let mut server = Server::new(ServerConfig::default());
//! server.register_tenant(&TenantConfig::new("acme").with_seed(1));
//! server.register_tenant(&TenantConfig::new("globex").with_seed(2));
//! let mut gen = LoadGen::new(LoadConfig::even(2, 1_000, 25, 7));
//! let metrics = ServerMetrics::new();
//! let report = server.run_load(&mut gen, &metrics, &ServerTracing::disabled());
//! assert_eq!(report.admitted() + report.rejected(), 1_000);
//! assert_eq!(report.completed(), report.admitted());
//! assert!(report.latency_quantile(0.99) >= report.latency_quantile(0.50));
//! ```

pub mod load;
pub mod metrics;
pub mod queue;
pub mod request;
pub mod sched;
pub mod server;
pub mod tenant;

pub use load::{LoadConfig, LoadGen, MixWeights};
pub use metrics::{ServerMetrics, ServerMetricsSnapshot};
pub use queue::TenantQueue;
pub use request::{Envelope, Outcome, RejectReason, Rejection, Request, RequestKind, Response};
pub use sched::DrrScheduler;
pub use server::{Server, ServerConfig, ServerSloPolicy, ServerTracing, ServiceReport};
pub use tenant::{Incident, Tenant, TenantConfig};
