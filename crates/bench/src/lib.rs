//! # vdo-bench — shared helpers for the experiment/bench harness
//!
//! The Criterion benches under `benches/` regenerate every experiment in
//! `EXPERIMENTS.md`; this library hosts the workload construction shared
//! between them and the `exp_report` binary that prints the experiment
//! tables without Criterion's statistical machinery.

pub mod budget;
pub mod e15;
pub mod e16;
pub mod e17;
pub mod e18;
pub mod e19;
pub mod out;
pub mod workloads;
