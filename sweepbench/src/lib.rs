//! End-to-end and per-layer benchmark of the ffet flow on the paper's
//! RV32 sweeps (Fig. 9 and the Fig. 11 pin-density DoE).
//!
//! A run builds its inputs from the workload seed, times whole sweeps
//! through the public `ffet-core` API (`FlowConfig`, `runner::Pool`,
//! `run_flow_resilient`, `ffet_obs::RunArtifacts`), checks that the
//! outputs are correct, and prints one JSON line of metrics. A traced run
//! instead walks every point stage by stage and attributes its time to the
//! layers of the flow. See `README.md` in this directory.

pub mod bench;
pub mod layers;
pub mod procstat;
pub mod sweep;
pub mod walk;
pub mod workload;
