//! The repository benchmark: four named workloads run through the public
//! API of the workspace crates, in one process, each in a closed loop
//! with one client.
//!
//! * `bus64` — the production SPEF flow on a 64-group coupled bus.
//! * `mesh32` — 32 finely segmented groups in one connected component.
//! * `eco64` — an incremental timing session absorbing a seeded
//!   stream of transactional edits.
//! * `table1` — the paper's Table-1 accuracy protocol (golden SPICE run,
//!   six reductions, receiver re-simulation per method).
//!
//! A run with `trace = false` reports the end-to-end metrics (see
//! [`catalog::END_TO_END`]); a run with `trace = true` reports the
//! per-layer metrics ([`catalog::PER_LAYER`]) from spans the benchmark
//! records around each call into a layer, plus the counters the program
//! already keeps in `nsta-obs`. Every unit of work is checked for
//! correctness; see each workload module for what "correct" means there.

#![forbid(unsafe_code)]

pub mod catalog;
pub mod designs;
pub mod env;
pub mod host;
pub mod json;
pub mod replay;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workloads;

pub use run::{run, Outcome, RunConfig, WorkloadKind};
