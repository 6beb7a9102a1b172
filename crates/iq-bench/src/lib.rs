#![warn(missing_docs)]

//! The reproduction harness: regenerates every table and figure of the
//! paper's evaluation (§6).
//!
//! Each experiment runs the TPC-H workload *functionally* through the
//! full reproduced stack (real cache hits, real retries, real garbage
//! collection) at a laptop scale factor, records per-phase device and CPU
//! activity, scales the activity counts to the paper's SF 1000, and folds
//! them through the virtual-time model
//! ([`iq_objectstore::TimeModel`]). Absolute seconds are not expected to
//! match the paper's testbed; the *shapes* — who wins, by what factor,
//! where the exceptions fall — are the reproduction targets, recorded in
//! `EXPERIMENTS.md`.
//!
//! Run `cargo run --release -p iq-bench --bin repro -- --all` to print
//! every table and figure.

pub mod experiments;
pub mod report;
pub mod runner;
pub mod scheduler;
pub mod sections;
pub mod throughput;

pub use runner::{PowerRun, RunConfig};
