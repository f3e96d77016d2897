//! # wormdsm-workloads — programs that drive the simulated DSM
//!
//! The paper evaluates its schemes with synthetic invalidation patterns
//! and three applications (SPLASH-2 Barnes-Hut with 128 bodies / 4 time
//! steps, blocked LU on 128x128 matrices with 8x8 blocks, and All Pairs
//! Shortest Path). This crate provides:
//!
//! * a [`driver::Workload`] model — one deterministic `MemOp` stream per
//!   processor — and the loop that feeds it to a
//!   [`wormdsm_core::DsmSystem`];
//! * [`scenario::Scenario`], the one description of a seeded run (scheme,
//!   workload, mesh side, compute scale, deadline, profiling) and the one
//!   place a run is built, observed, checkpointed, resumed and audited;
//! * [`synthetic`] invalidation-pattern and background-traffic generators;
//! * [`apps`]: faithful *kernel* re-implementations of the three
//!   applications as op-stream generators (same data layout, partitioning
//!   and barrier structure as the originals; see DESIGN.md for the
//!   substitution rationale).

#![warn(missing_docs)]

pub mod apps;
pub mod driver;
pub mod scenario;
pub mod synthetic;

pub use driver::{IssueState, RunResult, Workload};
pub use scenario::{Observe, RunEnd, RunReport, Scenario};
pub use synthetic::{gen_pattern, Pattern, PatternKind};
