//! DeepPlan execution planning (paper §4).
//!
//! Turns a [`layer_profiler::ModelProfile`] into an [`plan::ExecutionPlan`]:
//!
//! 1. [`stall`] — the analytic pipeline model: given per-layer load and
//!    execution times plus placement decisions, predict where the
//!    execution stream stalls (Figure 2).
//! 2. [`algorithm`] — Algorithm 1: iteratively flip earlier layers to
//!    direct-host-access to erase downstream stalls, visiting candidates
//!    in ascending `PerfDiff` order.
//! 3. [`partition`] — byte-balanced contiguous partitioning for parallel
//!    transmission.
//! 4. [`transmission`] — topology-aware PT planning: pick NVLink-connected
//!    GPUs on distinct PCIe switches, override later partitions to Load.
//! 5. [`generate`](mod@generate) — one entry point for the five evaluated modes
//!    (Baseline, PipeSwitch, DHA, PT, PT+DHA).
//! 6. [`budget`] — memory-budget planning (paper §7): pin extra layers
//!    host-side until the resident set fits a byte budget.

pub mod algorithm;
pub mod budget;
pub mod degraded;
pub mod generate;
pub mod kvplan;
pub mod partition;
pub mod plan;
pub mod stall;
pub mod transmission;
pub mod validate;

pub use degraded::generate_degraded;
pub use generate::{generate, PlanMode};
pub use kvplan::{
    choose_kv, choose_restore, crossover_accesses, restore_secs, KvPlacement, RestoreChoice,
};
pub use plan::{ExecutionPlan, LayerExec};
pub use stall::{estimate_pipeline, ScheduleEstimate};
