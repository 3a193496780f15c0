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

pub mod decode;
pub mod hw;
pub mod launch;
pub mod result;
pub mod runtime;
pub mod single;
pub mod timeline;

pub use decode::{abort_decode, begin_decode, start_token_step, stream_kv, StepSpec};
pub use hw::{DecodeRef, HasHw, HwState, RunRef};
pub use launch::{abort_run, start_inference, EngineError, LaunchSpec};
pub use result::InferenceResult;
pub use runtime::ModelRuntime;
pub use single::{run_cold, run_traced, run_transfer_only, run_warm, SingleRun};
