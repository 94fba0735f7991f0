//! End-to-end benchmark of the paper workloads.
//!
//! Each workload is a seeded sequence of GCRO-DR solves run through the
//! public solver API. An untraced run gives the end-to-end metrics; a
//! traced run wraps the operator and preconditioner in the timing wrappers
//! of [`layers`] and splits the same solve time by layer. See `main.rs` for
//! the command line and `BENCHMARK.json` for the metric contract.

pub mod layers;
pub mod report;
pub mod workload;
