//! Experiment harness: every theorem of the paper as a reproducible,
//! table-printing experiment (E1–E16).
//!
//! The `experiments` binary runs them, prints their tables, and writes the
//! `BENCH_*.json` records. End-to-end wall-clock measurement lives in the
//! separate `perfbench/` harness.

#![warn(missing_docs)]

pub mod experiments;
pub mod json;
pub mod table;

pub use experiments::Scale;
