//! Execution engine: runs [`exec_planner::ExecutionPlan`]s on the
//! simulated multi-GPU substrate.
//!
//! Mirrors the paper's libTorch engine (§4.3.4): per inference there is an
//! *execution stream* on the primary GPU, a *load stream* per transmission
//! slot, and a *migration stream* per secondary GPU. Streams synchronise
//! through readiness flags — the analogue of `cudaEventRecord` /
//! `cudaStreamWaitEvent`. All transfers (PCIe loads, NVLink forwards, DHA
//! reads) are flows in the max-min-fair network, so contention between
//! concurrent inferences (Tables 2/4) emerges from the topology.
//!
//! Every host→GPU transfer starts in [`hw::start_host_flow`], including
//! the serving layer's own: decode token steps' KV recalls and reads,
//! session checkpoints and restores, detector canaries and plan
//! migrations. The serving layer times and guards those itself.

pub mod hw;
pub mod launch;
pub mod result;
pub mod runtime;
pub mod single;
pub mod timeline;

pub use hw::{HasHw, HwState, RunRef};
pub use launch::{abort_run, start_inference, LaunchSpec};
pub use result::InferenceResult;
pub use runtime::ModelRuntime;
pub use single::{run_cold, run_traced, run_warm};
