//! Host-side benchmark of the IBC testbed: how long and how much memory one
//! figure-shaped experiment costs on the machine running it, split by layer
//! in a separate traced run. See `perfbench/README.md`.
//!
//! Simulated results are never metrics here; they are the correctness
//! check. Every wall-clock reading goes through
//! [`xcc_bench::timing::Stopwatch`].

pub mod checks;
pub mod stats;
pub mod traced;
pub mod workloads;
