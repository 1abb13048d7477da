//! End-to-end and per-layer benchmark of pMEMCPY on the simulated PMEM
//! stack. `src/main.rs` is the command; this library holds the workloads,
//! the host probes, the span recorder and the metric definitions so the
//! tests can drive them directly.

pub mod host;
pub mod metrics;
pub mod trace;
pub mod workload;
