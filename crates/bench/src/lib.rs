//! # qosr-bench — experiment harness and test support
//!
//! * [`experiments`] — one module per table/figure of the paper's §5,
//!   each producing the same rows/series the paper reports (shape
//!   reproduction; see EXPERIMENTS.md for paper-vs-measured).
//! * [`table`] — plain-text table rendering for the harness output.
//! * [`synth`] and [`oracle`] — synthetic services and the brute-force
//!   planner reference the property tests share.
//!
//! The `experiments` binary (`cargo run --release -p qosr-bench --bin
//! experiments -- <cmd>`) drives these. Performance is measured by the
//! standalone `benchmark/` crate against `BENCHMARK.json`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod oracle;
pub mod synth;
pub mod table;
