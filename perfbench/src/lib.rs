//! The repository benchmark: workloads over the default engines
//! of `KernelConfig::paper()`, end-to-end metrics from untraced runs,
//! and a per-layer host-cost ledger from a traced run. See `README.md`
//! beside this crate.

pub mod calib;
pub mod clock;
pub mod cluster;
pub mod counters;
pub mod forkc;
pub mod ledger;
pub mod progs;
pub mod rng;
pub mod run;
pub mod stats;
pub mod storm;
pub mod trace;
pub mod workload;
