//! # benchmark — one benchmark for ZapC
//!
//! Four workloads, twelve end-to-end metrics from an untraced pass, and
//! per-layer metrics plus a span file from a traced pass. See `README.md`
//! for the method and `spec` for the contract (`/BENCHMARK.json`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod driver;
pub mod gen;
pub mod ops;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod writer;
