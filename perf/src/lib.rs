//! `bskel-perf`: the repository's benchmark.
//!
//! One command runs seven workloads, each in a fresh child process,
//! checks every output against an oracle, and prints every metric by name
//! and unit: end-to-end metrics from an untraced run, per-layer metrics
//! from a traced one. See `README.md` for the workloads and metrics and
//! `../BENCHMARK.json` for the contract the numbers are judged by.
//!
//! The benchmark touches the program under test only through its public
//! functions; tracing inside the program is a later change.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod check;
pub mod cli;
pub mod load;
pub mod metrics;
pub mod micro;
pub mod procfs;
pub mod seed;
pub mod stats;
pub mod trace;
pub mod workloads;
