//! Offline stand-in for the subset of `crossbeam` this workspace uses.
//!
//! One module is provided: [`deque`], the `Worker`/`Stealer`/`Injector`
//! work-stealing API.
//!
//! The implementation favours *correctness and determinism* over the
//! lock-free performance of the real crate: queues are `Mutex`
//! protected. On this workspace's simulated workloads the per-operation
//! cost is dwarfed by monitor evaluation, and the semantics
//! (steal-from-front) match upstream.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod deque;
