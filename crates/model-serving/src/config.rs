//! Server configuration.

use exec_planner::generate::PlanMode;
use gpu_topology::machine::Machine;
use simcore::time::SimDur;

use crate::memory::EvictionPolicy;

/// Robustness knobs: how the server reacts to faults and overload.
///
/// The defaults are behavior-preserving on a healthy run: no deadline
/// and priority floor 0 (nothing shed). A run lost to a GPU failure is
/// retried up to `server::MAX_RETRIES` times, attempt `n` after
/// `n × server::RETRY_BACKOFF`.
#[derive(Debug, Clone, Default)]
pub struct FaultPolicy {
    /// Per-request deadline measured from arrival; a request still
    /// undispatched past it is shed. `None` disables deadline shedding.
    pub deadline: Option<SimDur>,
    /// Graceful degradation: while the cluster is degraded (a GPU down
    /// or a link below healthy capacity), arriving requests with
    /// priority strictly below this floor are shed. 0 sheds nothing.
    pub shed_priority_floor: u8,
}

/// Self-healing: whether the server re-plans around a degraded topology.
///
/// Disabled by default — a healthy run with recovery off is byte-identical
/// to the pre-recovery server, and even with recovery *on* a run that sees
/// no health transitions never re-plans. A re-plan fires once no further
/// health transition lands within `server::control::SETTLE`, and a
/// swapped-in plan that needs more resident bytes streams the delta to
/// already-loaded instances over the host link.
#[derive(Debug, Clone, Default)]
pub struct RecoveryPolicy {
    /// Master switch for the recovery manager (re-plan on health
    /// transitions, plan hot-swap, live migration, rollback when
    /// capacity returns).
    pub enabled: bool,
}

/// Gray-failure detection: inferring link/GPU health from observable
/// signals (transfer wire time vs the flow model, execution latency vs
/// the cost model) instead of trusting fault announcements.
///
/// Disabled by default — a run with detection off is byte-identical to a
/// server without the detector compiled in, and even with detection *on*
/// a fault-free run only does arithmetic (baselines update, no event is
/// scheduled and no plan changes). The suspicion threshold, strike count
/// and canary count are constants of [`crate::detect`]; the probation
/// wait and canary size are constants of `server::control`.
#[derive(Debug, Clone)]
pub struct DetectionPolicy {
    /// Master switch for the detector.
    pub enabled: bool,
    /// Observations a baseline needs before it can raise suspicion;
    /// below this the detector only learns.
    pub min_samples: u32,
    /// Hedge weight transfers whose path crosses a suspected link: race
    /// a duplicate once a block overruns its expected wire time.
    pub hedge: bool,
    /// Checksum-verify arriving weight blocks and re-fetch on mismatch.
    pub checksum: bool,
}

impl Default for DetectionPolicy {
    fn default() -> Self {
        DetectionPolicy {
            enabled: false,
            min_samples: 8,
            hedge: true,
            checksum: true,
        }
    }
}

/// Overload control: bounded admission queues and SLO-aware rejection.
///
/// All defaults are inert — no cap, no early rejection, no escalation —
/// so an unconfigured server admits exactly as before.
#[derive(Debug, Clone, Default)]
pub struct AdmissionPolicy {
    /// Per-GPU queue bound; an arrival routed to a full queue is shed
    /// immediately instead of growing the queue without limit.
    pub queue_cap: Option<usize>,
    /// Early rejection: shed an arrival whose estimated queue wait
    /// already exceeds `factor × slo`, rather than serving it late.
    pub slo_reject_factor: Option<f64>,
    /// Priority-aware shedding escalation: as a bounded queue fills past
    /// half its cap, the minimum admitted priority ramps linearly from 0
    /// up to this value at the cap. 0 disables escalation.
    pub escalate_priority: u8,
}

/// Placement policy for host-spilled KV pages during decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KvMode {
    /// Per page size, re-run the planner's load-vs-DHA crossover with the
    /// page's expected remaining accesses: DHA for wire-bound page sizes,
    /// recall otherwise (the per-page analogue of Algorithm 1).
    #[default]
    Auto,
    /// Always read spilled pages in place via direct-host-access.
    Dha,
    /// Always recall (copy back) spilled pages before they are read.
    Recall,
}

/// Autoregressive-decode knobs: paged KV-cache pools, continuous-batching
/// width and the spilled-page placement mode.
///
/// Disabled by default and fully inert when off: no pager is consulted,
/// no decode event is emitted, and one-shot serving stays byte-identical
/// to a server without the decode path compiled in.
#[derive(Debug, Clone)]
pub struct DecodePolicy {
    /// Master switch for the decode path. Requests with
    /// `output_tokens > 1` only stream tokens when this is on.
    pub enabled: bool,
    /// KV page size in bytes (fixed for the run).
    pub page_bytes: u64,
    /// Per-GPU device KV pool, carved out of the reserve bytes.
    pub gpu_pool_bytes: u64,
    /// Pinned-host spill pool shared by all GPUs.
    pub host_pool_bytes: u64,
    /// Maximum requests decoding together on one GPU (continuous
    /// batching admits joiners at token boundaries up to this width).
    pub max_batch: usize,
    /// Placement of host-spilled pages: recall vs direct-host-access.
    pub kv_mode: KvMode,
}

impl Default for DecodePolicy {
    fn default() -> Self {
        DecodePolicy {
            enabled: false,
            page_bytes: 16 << 10,
            gpu_pool_bytes: 256 << 20,
            host_pool_bytes: 4 << 30,
            max_batch: 8,
            kv_mode: KvMode::Auto,
        }
    }
}

/// One tenant-class SLO tier for decode sessions.
///
/// A request belongs to the tier with the largest `min_priority` not
/// exceeding its own priority; requests below every tier floor fall back
/// to the untiered behavior (global SLO, no TPOT budget).
#[derive(Debug, Clone, Copy)]
pub struct SloTier {
    /// Lowest request priority admitted into this tier.
    pub min_priority: u8,
    /// Time-to-first-token budget: with early rejection configured, an
    /// arrival whose estimated queue wait already exceeds this is shed.
    pub ttft_slo: SimDur,
    /// Mean time-per-output-token budget: once a session's elapsed decode
    /// time can no longer land under `tpot_slo × (target − 1)` even if
    /// every remaining step were free, the session is truncated.
    pub tpot_slo: SimDur,
}

/// Decode-session resilience: incremental KV checkpointing, crash
/// recovery by restore-or-re-prefill, preemptive session swap-out and
/// TTFT/TPOT SLO tiers.
///
/// Disabled by default and fully inert when off: no checkpoint flow is
/// started, no new probe event is emitted, and a decode run is
/// byte-identical to a server without the resilience layer compiled in.
/// The checkpoint bucket's burst cap and the swap-out and resume
/// occupancy thresholds are constants of `server::resilience`.
#[derive(Debug, Clone)]
pub struct ResiliencePolicy {
    /// Master switch for the resilience layer.
    pub enabled: bool,
    /// Checkpoint cadence: a session becomes checkpoint-eligible once it
    /// has generated this many tokens beyond its last checkpoint.
    pub checkpoint_every: u64,
    /// Bandwidth budget for checkpoint mirror traffic in bytes/sec,
    /// metered by a token bucket refilled in sim time, so checkpointing
    /// never starves foreground DHA reads and recalls. 0 disables
    /// checkpointing (every crash victim re-prefills).
    pub checkpoint_bw: f64,
    /// Enable preemptive whole-session swap-out under KV-pool pressure
    /// or priority inversion.
    pub swap: bool,
    /// TTFT/TPOT SLO tiers; empty disables tiered admission and the
    /// token-level TPOT degradation policy.
    pub tiers: Vec<SloTier>,
}

impl Default for ResiliencePolicy {
    fn default() -> Self {
        ResiliencePolicy {
            enabled: false,
            checkpoint_every: 4,
            checkpoint_bw: 2e9,
            swap: true,
            tiers: Vec::new(),
        }
    }
}

impl ResiliencePolicy {
    /// Three-class tier ladder used by `deepplan-cli serve --slo-tiers`:
    /// best-effort (priority 0), standard (≥ 2) and premium (≥ 4).
    pub fn default_tiers() -> Vec<SloTier> {
        vec![
            SloTier {
                min_priority: 0,
                ttft_slo: SimDur::from_millis(400),
                tpot_slo: SimDur::from_millis(60),
            },
            SloTier {
                min_priority: 2,
                ttft_slo: SimDur::from_millis(200),
                tpot_slo: SimDur::from_millis(40),
            },
            SloTier {
                min_priority: 4,
                ttft_slo: SimDur::from_millis(100),
                tpot_slo: SimDur::from_millis(25),
            },
        ]
    }

    /// Tier for a request priority: the tier with the largest
    /// `min_priority` that does not exceed `priority`.
    pub fn tier_for(&self, priority: u8) -> Option<&SloTier> {
        self.tiers
            .iter()
            .filter(|t| t.min_priority <= priority)
            .max_by_key(|t| t.min_priority)
    }
}

/// Per-GPU bytes withheld from the model cache (CUDA context,
/// activation workspace, PT staging area): 5.5 GiB. Calibrated so a V100
/// holds ~25 BERT-Base instances, matching Figure 13's PipeSwitch
/// capacity of 100 instances on four GPUs.
const RESERVE_BYTES: u64 = 5_632 << 20;

/// Configuration of one serving experiment. The SLO (100 ms) and the
/// report's bucket width (one minute) are constants of
/// [`crate::metrics`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Machine the server runs on.
    pub machine: Machine,
    /// Cold-start execution mode (PipeSwitch vs DeepPlan variants).
    pub mode: PlanMode,
    /// Maximum GPUs per parallel transmission (paper: 2 on p3.8xlarge).
    pub max_pt_gpus: usize,
    /// Pinned host memory available for the model store (a p3.8xlarge has
    /// 244 GB of host memory).
    pub host_mem_bytes: u64,
    /// Cache-eviction policy (the paper uses LRU).
    pub eviction: EvictionPolicy,
    /// Robustness policy (deadlines, retries, shedding).
    pub faults: FaultPolicy,
    /// Self-healing policy (re-plan, hot-swap, migrate, rollback).
    pub recovery: RecoveryPolicy,
    /// Overload-control policy (bounded queues, early rejection).
    pub admission: AdmissionPolicy,
    /// Gray-failure detection policy (health inference, quarantine,
    /// hedged transfers, checksum verification).
    pub detection: DetectionPolicy,
    /// Autoregressive-decode policy (paged KV cache, continuous
    /// batching, DHA KV offload).
    pub decode: DecodePolicy,
    /// Decode-session resilience policy (KV checkpoint/restore, crash
    /// migration, preemptive swap-out, SLO tiers).
    pub decode_resilience: ResiliencePolicy,
}

impl ServerConfig {
    /// Paper-default configuration for a machine and mode: PT capped at
    /// 2 GPUs, 244 GiB of host memory, LRU eviction, every policy at its
    /// default.
    pub fn paper_default(machine: Machine, mode: PlanMode) -> Self {
        ServerConfig {
            machine,
            mode,
            max_pt_gpus: 2,
            host_mem_bytes: 244 << 30,
            eviction: EvictionPolicy::Lru,
            faults: FaultPolicy::default(),
            recovery: RecoveryPolicy::default(),
            admission: AdmissionPolicy::default(),
            detection: DetectionPolicy::default(),
            decode: DecodePolicy::default(),
            decode_resilience: ResiliencePolicy::default(),
        }
    }

    /// Usable model-cache bytes on GPU `g`: its memory less the 5.5 GiB
    /// reserve.
    pub fn cache_bytes(&self, g: usize) -> u64 {
        self.machine.gpu(g).mem_bytes.saturating_sub(RESERVE_BYTES)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_topology::presets::p3_8xlarge;

    #[test]
    fn tier_lookup_picks_largest_floor_at_or_below_priority() {
        let mut pol = ResiliencePolicy {
            tiers: ResiliencePolicy::default_tiers(),
            ..Default::default()
        };
        assert_eq!(pol.tier_for(0).unwrap().min_priority, 0);
        assert_eq!(pol.tier_for(1).unwrap().min_priority, 0);
        assert_eq!(pol.tier_for(3).unwrap().min_priority, 2);
        assert_eq!(pol.tier_for(7).unwrap().min_priority, 4);
        pol.tiers.clear();
        assert!(pol.tier_for(5).is_none());
    }

    #[test]
    fn v100_cache_holds_about_25_bert_base() {
        let cfg = ServerConfig::paper_default(p3_8xlarge(), PlanMode::PipeSwitch);
        let bert_bytes: u64 = 418 << 20;
        let per_gpu = cfg.cache_bytes(0) / bert_bytes;
        assert!(
            (24..=27).contains(&per_gpu),
            "{per_gpu} BERT-Base per GPU, expected ~25"
        );
    }
}
