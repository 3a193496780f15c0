//! Sim-wide observability: event bus, request spans and counter tracks.
//!
//! A [`Probe`] is a cheap cloneable handle that simulation components
//! (the flow network driver, the execution engine, the serving server)
//! use to publish [`ProbeEvent`]s to an optional sink: an [`EventLog`]
//! or a [`MetricsSink`](crate::metrics::MetricsSink). The default probe
//! is disabled: emitting through it is a branch on an `Option` and
//! constructs nothing, so instrumented hot paths cost nothing when
//! observability is off.
//!
//! Events cover three views of one run:
//!
//! * **Request spans** — enqueue → dispatch → complete per serving
//!   request, with the run slot as a causal link to engine activity.
//! * **Run phases** — load / migrate / exec / stall intervals per run,
//!   with stalls attributed to a [`StallCause`].
//! * **Counter tracks** — per-GPU queue depth and cache occupancy,
//!   per-link max-min-fair bandwidth share, pinned host bytes.
//!
//! Two exporters turn a recorded [`EventLog`] into files:
//! [`to_jsonl`] (one event per line, deterministic byte-for-byte across
//! identical runs) and [`to_perfetto`] (Chrome Trace Event Format, loads
//! in `chrome://tracing` / Perfetto with lanes, counters and flow
//! arrows from dispatch to first kernel).
//!
//! # Event schema
//!
//! Every event is declared once, as one row of the `probe_events!` table
//! below: variant, JSONL name, and typed fields in JSONL key order. The
//! table generates [`ProbeEvent`], [`ProbeEvent::name`],
//! [`ProbeEvent::NAMES`], the JSONL writer behind [`to_jsonl`] and the
//! reader behind [`parse_jsonl`]. Each field type encodes itself through
//! one small codec trait. Adding an event takes one table row, one arm in
//! [`to_perfetto`] (whose exhaustive match fails to compile without it),
//! one arm in `lane_of` if the event claims a Perfetto lane, and one
//! sample line in `tests/data/golden_every_event.jsonl`.
//!
//! Neither exporter allocates per event: each appends to one output
//! `String`, writing numbers with a small digit writer. The reader reads
//! each line in the exact layout [`to_jsonl`] writes, in one pass, and
//! hands any other line to a general tokenizer.

use std::cell::RefCell;
use std::collections::HashSet;
use std::fmt::{self, Write as _};
use std::rc::Rc;

use crate::time::SimTime;

/// How one typed event field is written to and read from a JSONL line.
trait JsonlField: Sized {
    /// Appends the value as JSON.
    fn write_json(&self, out: &mut String);
    /// Reads field `key` of a parsed line.
    fn read_json(f: &Fields, key: &str) -> Result<Self, String>;
    /// Reads the value at the cursor, giving what the general reader
    /// gives for it; `None` for a form it does not take, which hands
    /// the line to the general reader.
    fn read_next(r: &mut Cursor<'_>) -> Option<Self>;
}

macro_rules! int_fields {
    ($($t:ty),*) => {$(
        impl JsonlField for $t {
            fn write_json(&self, out: &mut String) {
                push_digits(out, *self as u64, 1);
            }

            fn read_json(f: &Fields, key: &str) -> Result<Self, String> {
                match f.get(key) {
                    Some(&JsonVal::U(v)) => <$t>::try_from(v)
                        .map_err(|_| format!("out-of-range integer field '{key}'")),
                    _ => Err(format!("missing or non-integer field '{key}'")),
                }
            }

            fn read_next(r: &mut Cursor<'_>) -> Option<Self> {
                <$t>::try_from(r.number()?.parse::<u64>().ok()?).ok()
            }
        }
    )*};
}
int_fields!(u64, usize, u32);

impl JsonlField for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }

    fn read_json(f: &Fields, key: &str) -> Result<Self, String> {
        match f.get(key) {
            Some(&JsonVal::B(v)) => Ok(v),
            _ => Err(format!("missing or non-boolean field '{key}'")),
        }
    }

    fn read_next(r: &mut Cursor<'_>) -> Option<Self> {
        if r.eat("true") {
            Some(true)
        } else {
            r.eat("false").then_some(false)
        }
    }
}

impl JsonlField for f64 {
    /// `{:?}` is Rust's shortest representation that reads back exactly.
    fn write_json(&self, out: &mut String) {
        push_f64(out, *self);
    }

    fn read_json(f: &Fields, key: &str) -> Result<Self, String> {
        match f.get(key) {
            Some(&JsonVal::F(v)) => Ok(v),
            Some(&JsonVal::U(v)) => Ok(v as f64),
            _ => Err(format!("missing or non-numeric field '{key}'")),
        }
    }

    fn read_next(r: &mut Cursor<'_>) -> Option<Self> {
        match number_value(r.number()?) {
            Ok(JsonVal::U(v)) => Some(v as f64),
            Ok(JsonVal::F(v)) => Some(v),
            _ => None,
        }
    }
}

/// Declares a label enum: each variant is written as a fixed string.
/// Generates `as_str`, `parse` and the enum's field codec; `$what` names
/// the label in the reader's "unknown ..." error.
macro_rules! label_enum {
    (
        $(#[$meta:meta])*
        pub enum $ty:ident ($what:literal) {
            $( $(#[$vmeta:meta])* $variant:ident = $label:literal, )*
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum $ty {
            $( $(#[$vmeta])* $variant, )*
        }

        impl $ty {
            /// Stable lowercase label used by both exporters.
            pub fn as_str(self) -> &'static str {
                match self {
                    $( $ty::$variant => $label, )*
                }
            }

            /// Inverse of [`Self::as_str`], for trace readers.
            pub fn parse(s: &str) -> Option<Self> {
                match s {
                    $( $label => Some($ty::$variant), )*
                    _ => None,
                }
            }
        }

        impl JsonlField for $ty {
            fn write_json(&self, out: &mut String) {
                out.push('"');
                out.push_str(self.as_str());
                out.push('"');
            }

            fn read_json(f: &Fields, key: &str) -> Result<Self, String> {
                let s = f.str(key)?;
                $ty::parse(s).ok_or_else(|| format!(concat!("unknown ", $what, " '{}'"), s))
            }

            fn read_next(r: &mut Cursor<'_>) -> Option<Self> {
                $ty::parse(r.plain_string()?)
            }
        }
    };
}

label_enum! {
    /// Why an execution stream is stalled waiting for a layer.
    pub enum StallCause ("stall cause") {
        /// Non-pipelined plan: execution waits for the whole load barrier.
        Barrier = "barrier",
        /// Waiting on the primary GPU's PCIe (or DHA) transfer.
        PcieLoad = "pcie-load",
        /// Waiting on a parallel-transmission partition's NVLink migration.
        NvlinkMigrate = "nvlink-migrate",
    }
}

label_enum! {
    /// Why the server shed (dropped) a request instead of serving it.
    pub enum ShedCause ("shed cause") {
        /// The request's deadline expired before it could be dispatched.
        Deadline = "deadline",
        /// Host pinned-memory pressure evicted the target instance.
        Pressure = "pressure",
        /// No healthy GPU was available to serve the request.
        NoCapacity = "no-capacity",
        /// Graceful degradation: priority below the configured floor while
        /// the cluster was degraded.
        Priority = "priority",
        /// The request exhausted its retry budget after repeated failures.
        RetriesExhausted = "retries-exhausted",
        /// Admission control: the target GPU's bounded queue was full (or the
        /// request's priority fell below the escalated admission floor).
        QueueFull = "queue-full",
        /// Admission control: the estimated queueing delay already exceeded
        /// the SLO-based rejection threshold at arrival.
        SloReject = "slo-reject",
    }
}

label_enum! {
    /// Which gray (silent) failure an injector applied. Ground truth for
    /// experiments; detectors never consume these.
    pub enum SilentFaultKind ("fault kind") {
        /// A link silently runs below its believed capacity.
        LinkSlow = "link-slow",
        /// A silently slowed link returned to spec.
        LinkRestore = "link-restore",
        /// A GPU silently stretches every kernel's execution time.
        GpuSlow = "gpu-slow",
        /// A silently slowed GPU returned to spec.
        GpuRestore = "gpu-restore",
        /// The next transfer over a link wedges without progress.
        StuckFlow = "stuck-flow",
        /// The next weight stream over a link arrives corrupted.
        CorruptTransfer = "corrupt-transfer",
    }
}

label_enum! {
    /// Inferred health of a link or GPU as judged by a failure detector.
    pub enum DetectState ("state") {
        /// Behaving within its statistical baseline.
        Healthy = "healthy",
        /// Suspicion crossed the threshold: isolated and planned around.
        Quarantined = "quarantined",
        /// Serving canary traffic to earn reinstatement.
        Probation = "probation",
    }
}

/// Declares [`ProbeEvent`] from one table of rows
/// `Variant = "jsonl_name" { field: Type, ... }` and generates its name
/// table, JSONL writer and both JSONL readers. Fields are written in row
/// order.
macro_rules! probe_events {
    (
        $(#[$meta:meta])*
        pub enum ProbeEvent {
            $(
                $(#[$vmeta:meta])*
                $variant:ident = $name:literal {
                    $( $(#[$fmeta:meta])* $field:ident: $ty:ty, )*
                },
            )*
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq)]
        pub enum ProbeEvent {
            $(
                $(#[$vmeta])*
                $variant { $( $(#[$fmeta])* $field: $ty, )* },
            )*
        }

        impl ProbeEvent {
            /// Every event name, in declaration order.
            pub const NAMES: &'static [&'static str] = &[$($name),*];

            /// Stable snake_case event name — the single source of truth
            /// for the JSONL `"ev"` field, the JSONL parser and any
            /// per-event counters.
            pub fn name(&self) -> &'static str {
                match self {
                    $( ProbeEvent::$variant { .. } => $name, )*
                }
            }

            /// Appends `,"key":value` for every field, in row order.
            fn write_fields(&self, out: &mut String) {
                match self {
                    $( ProbeEvent::$variant { $($field),* } => {
                        $(
                            out.push_str(concat!(",\"", stringify!($field), "\":"));
                            $field.write_json(out);
                        )*
                    } )*
                }
            }

            /// Reads `,"key":value` for every field of the event named
            /// `name`, in row order: the inverse of `write_fields`. `None`
            /// when the text differs from that layout or a value is not
            /// in a form `read_next` takes.
            fn read_in_order(name: &str, r: &mut Cursor<'_>) -> Option<Self> {
                Some(match name {
                    $( $name => ProbeEvent::$variant {
                        $( $field: r.field(concat!(",\"", stringify!($field), "\":"))?, )*
                    }, )*
                    _ => return None,
                })
            }

            /// Reads the event named by a parsed line's `"ev"` field.
            fn read_fields(f: &Fields) -> Result<Self, String> {
                Ok(match f.str("ev")? {
                    $( $name => ProbeEvent::$variant {
                        $( $field: JsonlField::read_json(f, stringify!($field))?, )*
                    }, )*
                    other => return Err(format!("unknown event name '{other}'")),
                })
            }
        }
    };
}

probe_events! {
    /// One observation published on the event bus. All payloads are `Copy`.
    pub enum ProbeEvent {
        /// A request joined GPU `gpu`'s queue.
        RequestEnqueued = "request_enqueued" {
            /// Request id, unique within a serving run.
            req: u64,
            /// Model instance the request targets.
            instance: usize,
            /// GPU queue it was routed to.
            gpu: usize,
        },
        /// A request left the queue and started an inference run.
        RequestDispatched = "request_dispatched" {
            /// Request id.
            req: u64,
            /// Model instance.
            instance: usize,
            /// Executing GPU.
            gpu: usize,
            /// Whether the instance was resident (no cold start).
            warm: bool,
            /// Run slot in the engine — the causal parent of engine events.
            run: usize,
        },
        /// A request's inference finished.
        RequestCompleted = "request_completed" {
            /// Request id.
            req: u64,
            /// Model instance.
            instance: usize,
            /// Executing GPU.
            gpu: usize,
            /// Whether this was a cold start.
            cold: bool,
            /// End-to-end latency (arrival → finish) in nanoseconds.
            latency_ns: u64,
            /// Queueing component of the latency in nanoseconds.
            queue_wait_ns: u64,
        },
        /// A layer kernel started on `gpu`.
        ExecStarted = "exec_started" {
            /// Run slot.
            run: usize,
            /// Layer index (or merged warm step).
            layer: usize,
            /// Executing GPU.
            gpu: usize,
            /// Whether the layer executes by direct host access.
            dha: bool,
        },
        /// A layer kernel finished.
        ExecFinished = "exec_finished" {
            /// Run slot.
            run: usize,
            /// Layer index.
            layer: usize,
            /// Executing GPU.
            gpu: usize,
        },
        /// A layer's host→GPU copy started.
        LoadStarted = "load_started" {
            /// Run slot.
            run: usize,
            /// Layer index.
            layer: usize,
            /// Destination GPU.
            gpu: usize,
            /// Plan partition slot performing the load.
            slot: usize,
        },
        /// A layer's host→GPU copy finished.
        LoadFinished = "load_finished" {
            /// Run slot.
            run: usize,
            /// Layer index.
            layer: usize,
            /// Destination GPU.
            gpu: usize,
            /// Plan partition slot.
            slot: usize,
        },
        /// A layer's NVLink migration to the primary started.
        MigrateStarted = "migrate_started" {
            /// Run slot.
            run: usize,
            /// Layer index.
            layer: usize,
            /// Source (secondary) GPU.
            from: usize,
        },
        /// A layer's NVLink migration finished.
        MigrateFinished = "migrate_finished" {
            /// Run slot.
            run: usize,
            /// Layer index.
            layer: usize,
            /// Source GPU.
            from: usize,
        },
        /// Execution blocked waiting for `layer`.
        StallStarted = "stall_started" {
            /// Run slot.
            run: usize,
            /// Layer being waited for.
            layer: usize,
            /// Stalled GPU.
            gpu: usize,
            /// Attributed cause.
            cause: StallCause,
        },
        /// Execution unblocked; `ns` is the stall duration.
        StallEnded = "stall_ended" {
            /// Run slot.
            run: usize,
            /// Layer that became ready.
            layer: usize,
            /// Previously stalled GPU.
            gpu: usize,
            /// Stall duration in nanoseconds.
            ns: u64,
        },
        /// An inference run finished and freed its slot.
        RunCompleted = "run_completed" {
            /// Run slot (may be reused by later runs).
            run: usize,
            /// Primary GPU.
            gpu: usize,
            /// Accumulated exec-side stall in nanoseconds.
            stall_ns: u64,
            /// Busy kernel time in nanoseconds.
            exec_busy_ns: u64,
        },
        /// Counter: requests queued on `gpu` (excluding the one running).
        QueueDepth = "queue_depth" {
            /// GPU index.
            gpu: usize,
            /// Queue length after the change.
            depth: usize,
        },
        /// Counter: model-cache occupancy of `gpu`.
        CacheOccupancy = "cache_occupancy" {
            /// GPU index.
            gpu: usize,
            /// Bytes used.
            used_bytes: u64,
            /// Cache capacity in bytes.
            capacity_bytes: u64,
        },
        /// Counter: pinned host memory held by the model store.
        HostPinned = "host_pinned" {
            /// Pinned bytes.
            bytes: u64,
        },
        /// Counter: aggregate max-min-fair share currently on a link,
        /// published when the link's share changes (a zero sample when
        /// it goes idle); the track holds its value in between.
        LinkShare = "link_share" {
            /// Link index in the flow network.
            link: usize,
            /// Sum of flow rates crossing the link, bytes/sec.
            rate_bps: f64,
            /// Number of flows crossing the link.
            flows: usize,
        },
        /// Fault injection: GPU `gpu` failed; in-flight work on it is lost.
        GpuFailed = "gpu_failed" {
            /// Failed GPU index.
            gpu: usize,
        },
        /// Fault injection: GPU `gpu` recovered (empty, cold caches).
        GpuRecovered = "gpu_recovered" {
            /// Recovered GPU index.
            gpu: usize,
        },
        /// Counter: a link's capacity changed (fault injection).
        LinkCapacity = "link_capacity" {
            /// Link index in the flow network.
            link: usize,
            /// New capacity in bytes/sec.
            capacity_bps: f64,
        },
        /// An in-flight inference run was aborted (its GPU died).
        RunAborted = "run_aborted" {
            /// Run slot that was torn down.
            run: usize,
            /// GPU the run was executing on.
            gpu: usize,
        },
        /// A request is being retried after a failure.
        RequestRetried = "request_retried" {
            /// Request id.
            req: u64,
            /// Model instance.
            instance: usize,
            /// GPU the retry is routed to.
            gpu: usize,
            /// Retry attempt number (1 = first retry).
            attempt: u32,
        },
        /// A request was shed (dropped without service).
        RequestShed = "request_shed" {
            /// Request id.
            req: u64,
            /// Model instance.
            instance: usize,
            /// Why it was shed.
            cause: ShedCause,
        },
        /// Counter: pinned host memory available to the model store after
        /// external pressure is subtracted.
        HostMemAvailable = "host_mem_available" {
            /// Bytes the store may pin.
            bytes: u64,
        },
        /// The recovery manager observed a settled topology change and is
        /// replanning every deployed model against the degraded machine.
        ReplanTriggered = "replan_triggered" {
            /// Monotonic topology epoch (increments per health transition).
            epoch: u64,
            /// GPUs currently up.
            up_gpus: usize,
            /// Host-side links currently running below healthy capacity.
            degraded_links: usize,
        },
        /// A model kind's active plan was atomically replaced.
        PlanSwapped = "plan_swapped" {
            /// Model kind index.
            kind: usize,
            /// Transmission slots of the new plan.
            slots: usize,
            /// Resident bytes of the new plan.
            resident_bytes: u64,
        },
        /// Live plan migration: extra layer bytes the new plan keeps resident
        /// started streaming to an already-loaded instance's GPU.
        PlanMigrationStarted = "plan_migration_started" {
            /// Model kind index.
            kind: usize,
            /// GPU holding the instances being migrated.
            gpu: usize,
            /// Bytes moving over the migration stream.
            bytes: u64,
        },
        /// Live plan migration to `gpu` finished.
        PlanMigrationFinished = "plan_migration_finished" {
            /// Model kind index.
            kind: usize,
            /// GPU whose resident instances now match the active plan.
            gpu: usize,
        },
        /// Ground-truth marker: a silent (gray) fault changed behavior
        /// without any health transition. Only the injector knows; detectors
        /// must infer it from observations. Experiments use this to score
        /// detection latency and false positives.
        SilentFaultInjected = "silent_fault_injected" {
            /// Which gray failure was applied.
            kind: SilentFaultKind,
            /// Link index or GPU index, depending on `kind`.
            target: usize,
        },
        /// The failure detector moved a link between inferred health states.
        LinkInferred = "link_inferred" {
            /// Link index in the flow network.
            link: usize,
            /// New inferred state.
            state: DetectState,
            /// Suspicion score at the transition, in milli-units.
            score_milli: u64,
        },
        /// The failure detector moved a GPU between inferred health states.
        GpuInferred = "gpu_inferred" {
            /// GPU index.
            gpu: usize,
            /// New inferred state.
            state: DetectState,
            /// Suspicion score at the transition, in milli-units.
            score_milli: u64,
        },
        /// A canary transfer probing a link on probation was launched.
        CanarySent = "canary_sent" {
            /// Link under test.
            link: usize,
            /// Canary payload size.
            bytes: u64,
        },
        /// A verified weight stream arrived with a checksum mismatch.
        ChecksumMismatch = "checksum_mismatch" {
            /// Run slot.
            run: usize,
            /// First layer of the corrupted block.
            layer: usize,
            /// Destination GPU.
            gpu: usize,
            /// Plan partition slot performing the load.
            slot: usize,
        },
        /// A corrupted weight block is being fetched again after a
        /// checksum mismatch.
        LoadRefetched = "load_refetched" {
            /// Run slot.
            run: usize,
            /// First layer of the refetched block.
            layer: usize,
            /// Destination GPU.
            gpu: usize,
            /// Plan partition slot.
            slot: usize,
        },
        /// A hedged duplicate transfer was launched beside a slow primary.
        FlowHedged = "flow_hedged" {
            /// Flow id of the original transfer.
            primary: u64,
            /// Flow id of the duplicate now racing it.
            hedge: u64,
        },
        /// A multi-window SLO burn-rate monitor fired: a model kind's error
        /// budget is burning faster than the alert threshold over both the
        /// short and the long window. Emitted by the streaming metrics
        /// engine (`simcore::metrics`), never by the simulation itself.
        SloBurnAlert = "slo_burn_alert" {
            /// Model kind index the monitor watches.
            kind: usize,
            /// Long window length in milliseconds.
            window_ms: u64,
            /// Burn rate over the long window in milli-units
            /// (1000 = burning exactly the error budget).
            burn_milli: u64,
        },
        /// A decode request produced its first output token (its prefill
        /// finished and it joined the continuous batch): the TTFT milestone.
        FirstToken = "first_token" {
            /// Request id.
            req: u64,
            /// Model instance.
            instance: usize,
            /// GPU whose decode batch the request joined.
            gpu: usize,
            /// Time to first token (arrival → prefill completion) in
            /// nanoseconds.
            ttft_ns: u64,
        },
        /// A continuous-batching token step started on `gpu`: every batched
        /// request decodes one token.
        TokenStepStarted = "token_step_started" {
            /// Decoding GPU.
            gpu: usize,
            /// Per-GPU monotonic step id.
            step: u64,
            /// Requests in the batch this step.
            batch: usize,
            /// Host-resident KV bytes read in place (DHA) during the step.
            dha_bytes: u64,
            /// KV bytes moved over PCIe (spills plus recalls) before the
            /// step's kernels run.
            moved_bytes: u64,
        },
        /// A token step finished; every batched request gained one token.
        TokenStepFinished = "token_step_finished" {
            /// Decoding GPU.
            gpu: usize,
            /// Per-GPU monotonic step id.
            step: u64,
            /// Requests in the batch this step.
            batch: usize,
            /// Step wall time in nanoseconds.
            ns: u64,
        },
        /// A KV page was allocated in `gpu`'s device pool.
        KvPageAlloc = "kv_page_alloc" {
            /// Request owning the page.
            req: u64,
            /// GPU whose pool the page occupies.
            gpu: usize,
            /// Page id in the pager's slab.
            page: usize,
        },
        /// A cold KV page was spilled from `gpu` to pinned host memory.
        KvPageSpill = "kv_page_spill" {
            /// Request owning the page.
            req: u64,
            /// GPU the page left.
            gpu: usize,
            /// Page id in the pager's slab.
            page: usize,
        },
        /// A host-resident KV page was recalled (copied back) to `gpu`.
        KvPageRecall = "kv_page_recall" {
            /// Request owning the page.
            req: u64,
            /// GPU the page returned to.
            gpu: usize,
            /// Page id in the pager's slab.
            page: usize,
        },
        /// A decode request finished streaming its final token.
        DecodeFinished = "decode_finished" {
            /// Request id.
            req: u64,
            /// Decoding GPU.
            gpu: usize,
            /// Output tokens generated (including the first).
            tokens: u64,
            /// Time to first token in nanoseconds.
            ttft_ns: u64,
            /// Mean time per output token after the first, in nanoseconds.
            tpot_ns: u64,
        },
        /// A slice of a decode session's KV was mirrored to the pinned-host
        /// checkpoint pool (incremental checkpoint, bandwidth-budgeted).
        KvCheckpoint = "kv_checkpoint" {
            /// Request id of the checkpointed session.
            req: u64,
            /// GPU the session was decoding on.
            gpu: usize,
            /// Token step the checkpoint now covers.
            tokens: u64,
            /// Bytes mirrored by this checkpoint slice.
            bytes: u64,
        },
        /// Crash-recovery decision for one victim session: restore from
        /// checkpoint vs re-prefill, per the planner's cost crossover.
        RestoreDecision = "restore_decision" {
            /// Request id of the crash victim.
            req: u64,
            /// Surviving GPU the decision was priced against.
            gpu: usize,
            /// Whether the planner chose restore (vs re-prefill).
            restore: bool,
            /// Token step the session's checkpoint covered at crash time.
            ckpt_tokens: u64,
            /// Checkpointed bytes available for restore.
            ckpt_bytes: u64,
        },
        /// A crash victim's checkpointed KV finished streaming host→GPU and
        /// the session rejoined a batch at its checkpointed token step.
        SessionRestored = "session_restored" {
            /// Request id.
            req: u64,
            /// Surviving GPU the session resumed on.
            gpu: usize,
            /// Token step the session resumed at.
            tokens: u64,
            /// Checkpointed bytes streamed back.
            bytes: u64,
        },
        /// A low-priority session was preemptively frozen and its device
        /// pages batch-spilled to the pinned-host pool.
        SessionSwappedOut = "session_swapped_out" {
            /// Request id.
            req: u64,
            /// GPU the session was frozen on.
            gpu: usize,
            /// Token step the session was frozen at.
            tokens: u64,
            /// Device pages spilled by the swap-out.
            pages: u64,
        },
        /// A swapped-out session thawed and rejoined a batch at the exact
        /// token step it was frozen at.
        SessionResumed = "session_resumed" {
            /// Request id.
            req: u64,
            /// GPU the session resumed on.
            gpu: usize,
            /// Token step the session resumed at.
            tokens: u64,
            /// Host-resident pages the session brought back.
            pages: u64,
        },
        /// The TPOT degradation policy truncated a session whose per-token
        /// budget was already unrecoverable.
        SessionTruncated = "session_truncated" {
            /// Request id.
            req: u64,
            /// Decoding GPU.
            gpu: usize,
            /// Tokens the session completes with.
            tokens: u64,
            /// Tokens the session originally asked for.
            target: u64,
        },
    }
}

/// A timestamped [`ProbeEvent`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Simulated time of the observation.
    pub at: SimTime,
    /// The observation.
    pub what: ProbeEvent,
}

/// The canonical recording sink: an append-only in-memory log.
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    /// Recorded events in emission order.
    pub events: Vec<Event>,
}

impl EventLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Records one event. Producers call it in simulated-time order.
    pub fn record(&mut self, at: SimTime, what: ProbeEvent) {
        self.events.push(Event { at, what });
    }
}

/// The sink attached to an enabled [`Probe`]: one variant per sink, so
/// an emit is a branch and a direct call.
#[derive(Clone)]
enum SinkHandle {
    Log(Rc<RefCell<EventLog>>),
    Metrics(Rc<RefCell<crate::metrics::MetricsSink>>),
}

/// A cloneable handle onto an optional sink.
///
/// The default (disabled) probe drops every emission without
/// constructing anything. Clones share the same sink.
#[derive(Clone, Default)]
pub struct Probe {
    sink: Option<SinkHandle>,
}

impl fmt::Debug for Probe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Probe")
            .field("enabled", &self.sink.is_some())
            .finish()
    }
}

impl Probe {
    /// A probe that drops all events (the default).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// A probe recording into a fresh [`EventLog`]; returns both.
    pub fn logging() -> (Self, Rc<RefCell<EventLog>>) {
        let log = Rc::new(RefCell::new(EventLog::new()));
        (Probe::with_log(log.clone()), log)
    }

    /// A probe recording into an existing shared [`EventLog`].
    pub fn with_log(log: Rc<RefCell<EventLog>>) -> Self {
        Probe {
            sink: Some(SinkHandle::Log(log)),
        }
    }

    /// A probe feeding a [`MetricsSink`](crate::metrics::MetricsSink).
    pub fn with_metrics(sink: Rc<RefCell<crate::metrics::MetricsSink>>) -> Self {
        Probe {
            sink: Some(SinkHandle::Metrics(sink)),
        }
    }

    /// Whether a sink is attached. Producers may use this to skip
    /// event preparation that is itself costly.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Publishes one event (no-op when disabled).
    #[inline]
    pub fn emit(&self, at: SimTime, what: ProbeEvent) {
        match &self.sink {
            None => {}
            Some(SinkHandle::Log(log)) => log.borrow_mut().record(at, what),
            Some(SinkHandle::Metrics(sink)) => sink.borrow_mut().record(at, what),
        }
    }
}

// ---------------------------------------------------------------------------
// Number text shared by both writers
// ---------------------------------------------------------------------------

/// Appends the decimal digits of `v`, zero-padded on the left to `width`.
fn push_digits(out: &mut String, mut v: u64, width: usize) {
    let mut buf = [b'0'; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    let start = i.min(buf.len() - width);
    out.extend(buf[start..].iter().map(|&b| char::from(b)));
}

/// Appends `{:?}` of `v`: Rust's shortest text that reads back exactly.
fn push_f64(out: &mut String, v: f64) {
    match integral(v) {
        Some(n) => {
            push_digits(out, n, 1);
            out.push_str(".0");
        }
        None => push_debug(out, v),
    }
}

fn push_debug(out: &mut String, v: f64) {
    write!(out, "{v:?}").expect("writing to String cannot fail");
}

/// `v` as an integer when it is integral, positive-signed and below
/// 10^15, where `{:?}` prints its digits plus `.0`. Every other value
/// (−0.0, NaN, infinities, fractions, subnormals, 10^15 and above) is
/// `None` and is written by `{:?}` itself.
fn integral(v: f64) -> Option<u64> {
    if v.is_sign_positive() && v < 1e15 {
        let n = v as u64;
        (n as f64 == v).then_some(n)
    } else {
        None
    }
}

/// Appends `{:?}` of `n as f64 / 10^k`, for `k` in 3..=9.
///
/// When the exact quotient has at most 15 significant digits (`n` below
/// 10^15) and is zero or at least 10^-4, no other decimal of at most 15
/// digits rounds to the same f64, so `{:?}`, which prints the shortest
/// decimal that reads back, prints exactly that quotient in plain
/// notation. It is written here from the integer digits of `n`; any other
/// value goes through `{:?}`.
fn push_scaled(out: &mut String, n: u64, k: u32) {
    let scale = 10u64.pow(k);
    if n == 0 || (n >= scale / 10_000 && n < 1_000_000_000_000_000) {
        push_digits(out, n / scale, 1);
        out.push('.');
        let (mut frac, mut width) = (n % scale, k as usize);
        if frac == 0 {
            out.push('0');
            return;
        }
        while frac % 10 == 0 {
            frac /= 10;
            width -= 1;
        }
        push_digits(out, frac, width);
    } else {
        push_debug(out, n as f64 / scale as f64);
    }
}

// ---------------------------------------------------------------------------
// JSONL exporter
// ---------------------------------------------------------------------------

/// Serialises events as JSON Lines: one object per event, fixed key
/// order, integer nanosecond timestamps. Identical simulations produce
/// byte-identical output.
pub fn to_jsonl(events: &[Event]) -> String {
    let mut out = String::with_capacity(events.len() * 96);
    for e in events {
        out.push_str("{\"at\":");
        push_digits(&mut out, e.at.as_nanos(), 1);
        out.push_str(",\"ev\":\"");
        out.push_str(e.what.name());
        out.push('"');
        e.what.write_fields(&mut out);
        out.push_str("}\n");
    }
    out
}

// ---------------------------------------------------------------------------
// Perfetto / Chrome Trace Event Format exporter
// ---------------------------------------------------------------------------

/// Presentation options for [`to_perfetto`].
#[derive(Debug, Clone, Default)]
pub struct PerfettoOptions {
    /// Human-readable names per link index; links beyond the list fall
    /// back to `link<i>`.
    pub link_names: Vec<String>,
}

const PID_SERVING: u64 = 0;
const PID_ENGINE: u64 = 1;
const TID_LOAD_BASE: u64 = 100;
const TID_MIGRATE_BASE: u64 = 200;
const TID_DECODE_BASE: u64 = 300;

/// A `(pid, tid)` track that carries slices, named `gpu<gpu> <role>`.
struct Lane {
    pid: u64,
    tid: u64,
    gpu: usize,
    role: &'static str,
}

/// The lane an event's slice or instant lives on, when the event names
/// one in the `thread_name` metadata.
fn lane_of(what: &ProbeEvent) -> Option<Lane> {
    use ProbeEvent::*;
    let (pid, base, gpu, role) = match *what {
        RequestEnqueued { gpu, .. }
        | RequestDispatched { gpu, .. }
        | RequestRetried { gpu, .. }
        | FirstToken { gpu, .. }
        | DecodeFinished { gpu, .. }
        | RestoreDecision { gpu, .. }
        | SessionRestored { gpu, .. }
        | SessionTruncated { gpu, .. } => (PID_SERVING, 0, gpu, "requests"),
        ExecStarted { gpu, .. } | StallStarted { gpu, .. } | GpuFailed { gpu } => {
            (PID_ENGINE, 0, gpu, "exec")
        }
        LoadStarted { gpu, .. } => (PID_ENGINE, TID_LOAD_BASE, gpu, "load"),
        MigrateStarted { from: gpu, .. } | PlanMigrationStarted { gpu, .. } => {
            (PID_ENGINE, TID_MIGRATE_BASE, gpu, "nvlink out")
        }
        TokenStepStarted { gpu, .. }
        | KvPageAlloc { gpu, .. }
        | KvPageSpill { gpu, .. }
        | KvPageRecall { gpu, .. }
        | KvCheckpoint { gpu, .. }
        | SessionSwappedOut { gpu, .. }
        | SessionResumed { gpu, .. } => (PID_ENGINE, TID_DECODE_BASE, gpu, "decode"),
        _ => return None,
    };
    Some(Lane {
        pid,
        tid: base + gpu as u64,
        gpu,
        role,
    })
}

/// One piece of a trace entry, appended without `core::fmt`.
trait Piece {
    fn put(self, out: &mut String);
}

impl Piece for &str {
    fn put(self, out: &mut String) {
        out.push_str(self);
    }
}

impl Piece for u64 {
    fn put(self, out: &mut String) {
        push_digits(out, self, 1);
    }
}

impl Piece for usize {
    fn put(self, out: &mut String) {
        push_digits(out, self as u64, 1);
    }
}

impl Piece for bool {
    fn put(self, out: &mut String) {
        out.push_str(if self { "true" } else { "false" });
    }
}

/// A timestamp in nanoseconds, written as `{:?}` of its microseconds.
struct Micros(u64);

impl Piece for Micros {
    fn put(self, out: &mut String) {
        push_scaled(out, self.0, 3);
    }
}

/// A bytes/sec rate, written as `{:?}` of the rate over 10^9.
struct Giga(f64);

impl Piece for Giga {
    fn put(self, out: &mut String) {
        match integral(self.0) {
            Some(n) => push_scaled(out, n, 9),
            None => push_debug(out, self.0 / 1e9),
        }
    }
}

/// The counter-track label of link `.1`: its escaped name, else `link<i>`.
struct LinkLabel<'a>(&'a [String], usize);

impl Piece for LinkLabel<'_> {
    fn put(self, out: &mut String) {
        match self.0.get(self.1) {
            Some(name) => out.push_str(name),
            None => {
                out.push_str("link");
                push_digits(out, self.1 as u64, 1);
            }
        }
    }
}

/// Appends one trace entry, from pieces: the arms most events take.
macro_rules! put_entry {
    ($out:expr, $($piece:expr),+ $(,)?) => {{
        let out: &mut String = $out;
        out.push_str(",\n");
        $( Piece::put($piece, out); )+
    }};
}

/// Appends one trace entry, from a format string.
macro_rules! fmt_entry {
    ($out:expr, $($fmt:tt)+) => {{
        let out: &mut String = $out;
        out.push_str(",\n");
        write!(out, $($fmt)+).expect("writing to String cannot fail");
    }};
}

/// Closes the innermost duration slice open on engine lane `tid`.
fn end_slice(out: &mut String, open_b: &mut Vec<(u64, usize)>, ts: Micros, tid: u64) {
    if let Some(pos) = open_b.iter().rposition(|&(t, _)| t == tid) {
        open_b.remove(pos);
    }
    put_entry!(
        out,
        r#"{"ph":"E","ts":"#,
        ts,
        r#","pid":"#,
        PID_ENGINE,
        r#","tid":"#,
        tid,
        "}"
    );
}

/// Serialises events as a Chrome Trace Event Format JSON document.
///
/// Layout:
///
/// * process 0 "serving" — one thread per GPU carrying async request
///   spans (`b`/`e`, id = request), plus all counter tracks
///   (`queue depth gpu<g>`, `cache gpu<g>`, `host pinned`, one per
///   link for bandwidth share);
/// * process 1 "engine" — per-GPU `exec` lanes (layer slices and
///   `stall` slices whose `args.cause` names the attributed cause),
///   per-GPU `load` lanes and per-GPU `nvlink out` lanes;
/// * flow arrows (`s` → `f`, id = request) from each dispatch to the
///   run's first kernel, tying serving spans to engine activity.
///
/// A first pass finds the lanes for the `thread_name` metadata, which
/// leads the document; every entry is then written straight into it.
pub fn to_perfetto(events: &[Event], opts: &PerfettoOptions) -> String {
    let mut lanes: Vec<Lane> = Vec::new();
    for lane in events.iter().filter_map(|e| lane_of(&e.what)) {
        if !lanes.iter().any(|l| (l.pid, l.tid) == (lane.pid, lane.tid)) {
            lanes.push(lane);
        }
    }
    lanes.sort_by_key(|l| (l.pid, l.tid));

    let mut doc = String::with_capacity(events.len() * 112 + 4096);
    let out = &mut doc;
    out.push_str("{\"traceEvents\":[\n");
    write!(
        out,
        r#"{{"name":"process_name","ph":"M","pid":{PID_SERVING},"args":{{"name":"serving"}}}}"#
    )
    .expect("writing to String cannot fail");
    fmt_entry!(
        out,
        r#"{{"name":"process_name","ph":"M","pid":{PID_ENGINE},"args":{{"name":"engine"}}}}"#
    );
    // Lane names are digits and fixed ASCII words: nothing to escape.
    for l in &lanes {
        fmt_entry!(
            out,
            r#"{{"name":"thread_name","ph":"M","pid":{},"tid":{},"args":{{"name":"gpu{} {}"}}}}"#,
            l.pid,
            l.tid,
            l.gpu,
            l.role
        );
    }

    // Counter-track labels of the named links, escaped once each.
    let labels: Vec<String> = opts.link_names.iter().map(|n| escape(n)).collect();
    // run slot → request id, for flow arrows; cleared on first exec.
    let mut run_req: Vec<(usize, u64)> = Vec::new();
    // Request ids with an open async span, so a shed closes only spans
    // that were actually opened (pre-enqueue sheds never open one).
    let mut open_spans: HashSet<u64> = HashSet::new();
    // Open duration slices (tid, run) on the engine process: an aborted
    // run never gets its Finished events, so its slices are closed here.
    let mut open_b: Vec<(u64, usize)> = Vec::new();

    for e in events {
        let ts = Micros(e.at.as_nanos());
        let us = e.at.as_nanos() as f64 / 1e3;
        match e.what {
            ProbeEvent::RequestEnqueued { req, instance, gpu } => {
                fmt_entry!(
                    out,
                    r#"{{"name":"req{req}","cat":"request","ph":"b","id":{req},"ts":{us:?},"pid":{PID_SERVING},"tid":{gpu},"args":{{"instance":{instance}}}}}"#
                );
                open_spans.insert(req);
            }
            ProbeEvent::RequestDispatched {
                req,
                instance,
                gpu,
                warm,
                run,
            } => {
                fmt_entry!(
                    out,
                    r#"{{"name":"dispatch","cat":"request","ph":"i","s":"t","ts":{us:?},"pid":{PID_SERVING},"tid":{gpu},"args":{{"req":{req},"instance":{instance},"warm":{warm},"run":{run}}}}}"#
                );
                fmt_entry!(
                    out,
                    r#"{{"name":"req{req}","cat":"flow","ph":"s","id":{req},"ts":{us:?},"pid":{PID_SERVING},"tid":{gpu}}}"#
                );
                run_req.retain(|(r, _)| *r != run);
                run_req.push((run, req));
            }
            ProbeEvent::RequestCompleted {
                req,
                gpu,
                cold,
                latency_ns,
                queue_wait_ns,
                ..
            } => {
                open_spans.remove(&req);
                fmt_entry!(
                    out,
                    r#"{{"name":"req{req}","cat":"request","ph":"e","id":{req},"ts":{us:?},"pid":{PID_SERVING},"tid":{gpu},"args":{{"cold":{cold},"latency_ms":{:?},"queue_wait_ms":{:?}}}}}"#,
                    latency_ns as f64 / 1e6,
                    queue_wait_ns as f64 / 1e6
                );
            }
            ProbeEvent::ExecStarted {
                run,
                layer,
                gpu,
                dha,
            } => {
                if let Some(pos) = run_req.iter().position(|(r, _)| *r == run) {
                    let (_, req) = run_req.swap_remove(pos);
                    fmt_entry!(
                        out,
                        r#"{{"name":"req{req}","cat":"flow","ph":"f","bp":"e","id":{req},"ts":{us:?},"pid":{PID_ENGINE},"tid":{gpu}}}"#
                    );
                }
                put_entry!(
                    out,
                    r#"{"name":"L"#,
                    layer,
                    r#"","cat":"exec","ph":"B","ts":"#,
                    ts,
                    r#","pid":"#,
                    PID_ENGINE,
                    r#","tid":"#,
                    gpu,
                    r#","args":{"run":"#,
                    run,
                    r#","layer":"#,
                    layer,
                    r#","dha":"#,
                    dha,
                    "}}"
                );
                open_b.push((gpu as u64, run));
            }
            ProbeEvent::ExecFinished { gpu, .. } | ProbeEvent::StallEnded { gpu, .. } => {
                end_slice(out, &mut open_b, ts, gpu as u64);
            }
            ProbeEvent::StallStarted {
                run,
                layer,
                gpu,
                cause,
            } => {
                put_entry!(
                    out,
                    r#"{"name":"stall","cat":"stall","ph":"B","ts":"#,
                    ts,
                    r#","pid":"#,
                    PID_ENGINE,
                    r#","tid":"#,
                    gpu,
                    r#","args":{"run":"#,
                    run,
                    r#","layer":"#,
                    layer,
                    r#","cause":""#,
                    cause.as_str(),
                    "\"}}"
                );
                open_b.push((gpu as u64, run));
            }
            ProbeEvent::LoadStarted {
                run,
                layer,
                gpu,
                slot,
            } => {
                let tid = TID_LOAD_BASE + gpu as u64;
                put_entry!(
                    out,
                    r#"{"name":"L"#,
                    layer,
                    r#"","cat":"load","ph":"B","ts":"#,
                    ts,
                    r#","pid":"#,
                    PID_ENGINE,
                    r#","tid":"#,
                    tid,
                    r#","args":{"run":"#,
                    run,
                    r#","layer":"#,
                    layer,
                    r#","slot":"#,
                    slot,
                    "}}"
                );
                open_b.push((tid, run));
            }
            ProbeEvent::LoadFinished { gpu, .. } => {
                end_slice(out, &mut open_b, ts, TID_LOAD_BASE + gpu as u64);
            }
            ProbeEvent::MigrateStarted { run, layer, from } => {
                let tid = TID_MIGRATE_BASE + from as u64;
                put_entry!(
                    out,
                    r#"{"name":"L"#,
                    layer,
                    r#"","cat":"migrate","ph":"B","ts":"#,
                    ts,
                    r#","pid":"#,
                    PID_ENGINE,
                    r#","tid":"#,
                    tid,
                    r#","args":{"run":"#,
                    run,
                    r#","layer":"#,
                    layer,
                    r#","from":"#,
                    from,
                    "}}"
                );
                open_b.push((tid, run));
            }
            ProbeEvent::MigrateFinished { from, .. } => {
                end_slice(out, &mut open_b, ts, TID_MIGRATE_BASE + from as u64);
            }
            ProbeEvent::RunCompleted {
                run,
                gpu,
                stall_ns,
                exec_busy_ns,
            } => {
                run_req.retain(|(r, _)| *r != run);
                fmt_entry!(
                    out,
                    r#"{{"name":"run done","cat":"exec","ph":"i","s":"t","ts":{us:?},"pid":{PID_ENGINE},"tid":{gpu},"args":{{"run":{run},"stall_ns":{stall_ns},"exec_busy_ns":{exec_busy_ns}}}}}"#
                );
            }
            ProbeEvent::QueueDepth { gpu, depth } => {
                fmt_entry!(
                    out,
                    r#"{{"name":"queue depth gpu{gpu}","ph":"C","ts":{us:?},"pid":{PID_SERVING},"args":{{"depth":{depth}}}}}"#
                );
            }
            ProbeEvent::CacheOccupancy {
                gpu, used_bytes, ..
            } => {
                fmt_entry!(
                    out,
                    r#"{{"name":"cache gpu{gpu}","ph":"C","ts":{us:?},"pid":{PID_SERVING},"args":{{"used_mib":{:?}}}}}"#,
                    used_bytes as f64 / (1u64 << 20) as f64
                );
            }
            ProbeEvent::HostPinned { bytes } => {
                fmt_entry!(
                    out,
                    r#"{{"name":"host pinned","ph":"C","ts":{us:?},"pid":{PID_SERVING},"args":{{"mib":{:?}}}}}"#,
                    bytes as f64 / (1u64 << 20) as f64
                );
            }
            ProbeEvent::LinkShare {
                link,
                rate_bps,
                flows,
            } => {
                put_entry!(
                    out,
                    r#"{"name":"bw "#,
                    LinkLabel(&labels, link),
                    r#"","ph":"C","ts":"#,
                    ts,
                    r#","pid":"#,
                    PID_SERVING,
                    r#","args":{"gbps":"#,
                    Giga(rate_bps),
                    r#","flows":"#,
                    flows,
                    "}}"
                );
            }
            ProbeEvent::GpuFailed { gpu } => {
                fmt_entry!(
                    out,
                    r#"{{"name":"GPU FAILED","cat":"fault","ph":"i","s":"g","ts":{us:?},"pid":{PID_ENGINE},"tid":{gpu},"args":{{"gpu":{gpu}}}}}"#
                );
            }
            ProbeEvent::GpuRecovered { gpu } => {
                fmt_entry!(
                    out,
                    r#"{{"name":"gpu recovered","cat":"fault","ph":"i","s":"g","ts":{us:?},"pid":{PID_ENGINE},"tid":{gpu},"args":{{"gpu":{gpu}}}}}"#
                );
            }
            ProbeEvent::LinkCapacity { link, capacity_bps } => {
                put_entry!(
                    out,
                    r#"{"name":"cap "#,
                    LinkLabel(&labels, link),
                    r#"","ph":"C","ts":"#,
                    ts,
                    r#","pid":"#,
                    PID_SERVING,
                    r#","args":{"gbps":"#,
                    Giga(capacity_bps),
                    "}}"
                );
            }
            ProbeEvent::RunAborted { run, gpu } => {
                run_req.retain(|(r, _)| *r != run);
                // The aborted run's Finished events never arrive: close
                // every duration slice it still has open, on any lane.
                let mut i = 0;
                while i < open_b.len() {
                    if open_b[i].1 == run {
                        let (tid, _) = open_b.remove(i);
                        fmt_entry!(
                            out,
                            r#"{{"ph":"E","ts":{us:?},"pid":{PID_ENGINE},"tid":{tid},"args":{{"aborted":true}}}}"#
                        );
                    } else {
                        i += 1;
                    }
                }
                fmt_entry!(
                    out,
                    r#"{{"name":"run aborted","cat":"fault","ph":"i","s":"t","ts":{us:?},"pid":{PID_ENGINE},"tid":{gpu},"args":{{"run":{run}}}}}"#
                );
            }
            ProbeEvent::RequestRetried {
                req,
                instance,
                gpu,
                attempt,
            } => {
                fmt_entry!(
                    out,
                    r#"{{"name":"retry","cat":"fault","ph":"i","s":"t","ts":{us:?},"pid":{PID_SERVING},"tid":{gpu},"args":{{"req":{req},"instance":{instance},"attempt":{attempt}}}}}"#
                );
            }
            ProbeEvent::RequestShed {
                req,
                instance,
                cause,
            } => {
                // Close the async request span (matched by id) — but
                // only if the request got far enough to open one; a
                // pre-enqueue shed has no span to close.
                if open_spans.remove(&req) {
                    fmt_entry!(
                        out,
                        r#"{{"name":"req{req}","cat":"request","ph":"e","id":{req},"ts":{us:?},"pid":{PID_SERVING},"tid":0,"args":{{"shed":"{}"}}}}"#,
                        cause.as_str()
                    );
                }
                fmt_entry!(
                    out,
                    r#"{{"name":"shed","cat":"fault","ph":"i","s":"p","ts":{us:?},"pid":{PID_SERVING},"tid":0,"args":{{"req":{req},"instance":{instance},"cause":"{}"}}}}"#,
                    cause.as_str()
                );
            }
            ProbeEvent::HostMemAvailable { bytes } => {
                fmt_entry!(
                    out,
                    r#"{{"name":"host mem available","ph":"C","ts":{us:?},"pid":{PID_SERVING},"args":{{"mib":{:?}}}}}"#,
                    bytes as f64 / (1u64 << 20) as f64
                );
            }
            ProbeEvent::ReplanTriggered {
                epoch,
                up_gpus,
                degraded_links,
            } => {
                fmt_entry!(
                    out,
                    r#"{{"name":"REPLAN","cat":"recovery","ph":"i","s":"g","ts":{us:?},"pid":{PID_SERVING},"tid":0,"args":{{"epoch":{epoch},"up_gpus":{up_gpus},"degraded_links":{degraded_links}}}}}"#
                );
            }
            ProbeEvent::PlanSwapped {
                kind,
                slots,
                resident_bytes,
            } => {
                fmt_entry!(
                    out,
                    r#"{{"name":"plan swapped","cat":"recovery","ph":"i","s":"p","ts":{us:?},"pid":{PID_SERVING},"tid":0,"args":{{"kind":{kind},"slots":{slots},"resident_mib":{:?}}}}}"#,
                    resident_bytes as f64 / (1u64 << 20) as f64
                );
            }
            ProbeEvent::PlanMigrationStarted { kind, gpu, bytes } => {
                let tid = TID_MIGRATE_BASE + gpu as u64;
                fmt_entry!(
                    out,
                    r#"{{"name":"plan migration","cat":"recovery","ph":"b","id":{kind},"ts":{us:?},"pid":{PID_ENGINE},"tid":{tid},"args":{{"kind":{kind},"gpu":{gpu},"mib":{:?}}}}}"#,
                    bytes as f64 / (1u64 << 20) as f64
                );
            }
            ProbeEvent::PlanMigrationFinished { kind, gpu } => {
                let tid = TID_MIGRATE_BASE + gpu as u64;
                fmt_entry!(
                    out,
                    r#"{{"name":"plan migration","cat":"recovery","ph":"e","id":{kind},"ts":{us:?},"pid":{PID_ENGINE},"tid":{tid},"args":{{"kind":{kind},"gpu":{gpu}}}}}"#
                );
            }
            ProbeEvent::SilentFaultInjected { kind, target } => {
                fmt_entry!(
                    out,
                    r#"{{"name":"SILENT {}","cat":"fault","ph":"i","s":"g","ts":{us:?},"pid":{PID_SERVING},"tid":0,"args":{{"kind":"{}","target":{target}}}}}"#,
                    kind.as_str(),
                    kind.as_str()
                );
            }
            ProbeEvent::LinkInferred {
                link,
                state,
                score_milli,
            } => {
                fmt_entry!(
                    out,
                    r#"{{"name":"link {} {}","cat":"detect","ph":"i","s":"g","ts":{us:?},"pid":{PID_SERVING},"tid":0,"args":{{"link":{link},"state":"{}","score_milli":{score_milli}}}}}"#,
                    link,
                    state.as_str(),
                    state.as_str()
                );
            }
            ProbeEvent::GpuInferred {
                gpu,
                state,
                score_milli,
            } => {
                fmt_entry!(
                    out,
                    r#"{{"name":"gpu {} {}","cat":"detect","ph":"i","s":"g","ts":{us:?},"pid":{PID_SERVING},"tid":0,"args":{{"gpu":{gpu},"state":"{}","score_milli":{score_milli}}}}}"#,
                    gpu,
                    state.as_str(),
                    state.as_str()
                );
            }
            ProbeEvent::CanarySent { link, bytes } => {
                fmt_entry!(
                    out,
                    r#"{{"name":"canary","cat":"detect","ph":"i","s":"p","ts":{us:?},"pid":{PID_SERVING},"tid":0,"args":{{"link":{link},"mib":{:?}}}}}"#,
                    bytes as f64 / (1u64 << 20) as f64
                );
            }
            ProbeEvent::ChecksumMismatch {
                run,
                layer,
                gpu,
                slot,
            } => {
                let tid = TID_LOAD_BASE + gpu as u64;
                fmt_entry!(
                    out,
                    r#"{{"name":"checksum mismatch","cat":"detect","ph":"i","s":"t","ts":{us:?},"pid":{PID_ENGINE},"tid":{tid},"args":{{"run":{run},"layer":{layer},"gpu":{gpu},"slot":{slot}}}}}"#
                );
            }
            ProbeEvent::LoadRefetched {
                run,
                layer,
                gpu,
                slot,
            } => {
                let tid = TID_LOAD_BASE + gpu as u64;
                fmt_entry!(
                    out,
                    r#"{{"name":"refetch","cat":"detect","ph":"i","s":"t","ts":{us:?},"pid":{PID_ENGINE},"tid":{tid},"args":{{"run":{run},"layer":{layer},"gpu":{gpu},"slot":{slot}}}}}"#
                );
            }
            ProbeEvent::FlowHedged { primary, hedge } => {
                fmt_entry!(
                    out,
                    r#"{{"name":"hedge","cat":"detect","ph":"i","s":"p","ts":{us:?},"pid":{PID_SERVING},"tid":0,"args":{{"primary":{primary},"hedge":{hedge}}}}}"#
                );
            }
            ProbeEvent::SloBurnAlert {
                kind,
                window_ms,
                burn_milli,
            } => {
                fmt_entry!(
                    out,
                    r#"{{"name":"SLO BURN kind{kind}","cat":"slo","ph":"i","s":"g","ts":{us:?},"pid":{PID_SERVING},"tid":0,"args":{{"kind":{kind},"window_ms":{window_ms},"burn_milli":{burn_milli}}}}}"#
                );
            }
            ProbeEvent::FirstToken {
                req,
                instance,
                gpu,
                ttft_ns,
            } => {
                fmt_entry!(
                    out,
                    r#"{{"name":"first token","cat":"decode","ph":"i","s":"t","ts":{us:?},"pid":{PID_SERVING},"tid":{gpu},"args":{{"req":{req},"instance":{instance},"ttft_ms":{:?}}}}}"#,
                    ttft_ns as f64 / 1e6
                );
            }
            ProbeEvent::TokenStepStarted {
                gpu,
                step,
                batch,
                dha_bytes,
                moved_bytes,
            } => {
                let tid = TID_DECODE_BASE + gpu as u64;
                fmt_entry!(
                    out,
                    r#"{{"name":"step{step}","cat":"decode","ph":"B","ts":{us:?},"pid":{PID_ENGINE},"tid":{tid},"args":{{"batch":{batch},"dha_bytes":{dha_bytes},"moved_bytes":{moved_bytes}}}}}"#
                );
            }
            ProbeEvent::TokenStepFinished { gpu, .. } => {
                let tid = TID_DECODE_BASE + gpu as u64;
                fmt_entry!(
                    out,
                    r#"{{"ph":"E","ts":{us:?},"pid":{PID_ENGINE},"tid":{tid}}}"#
                );
            }
            ProbeEvent::KvPageAlloc { req, gpu, page } => {
                let tid = TID_DECODE_BASE + gpu as u64;
                fmt_entry!(
                    out,
                    r#"{{"name":"kv alloc","cat":"kv","ph":"i","s":"t","ts":{us:?},"pid":{PID_ENGINE},"tid":{tid},"args":{{"req":{req},"page":{page}}}}}"#
                );
            }
            ProbeEvent::KvPageSpill { req, gpu, page } => {
                let tid = TID_DECODE_BASE + gpu as u64;
                fmt_entry!(
                    out,
                    r#"{{"name":"kv spill","cat":"kv","ph":"i","s":"t","ts":{us:?},"pid":{PID_ENGINE},"tid":{tid},"args":{{"req":{req},"page":{page}}}}}"#
                );
            }
            ProbeEvent::KvPageRecall { req, gpu, page } => {
                let tid = TID_DECODE_BASE + gpu as u64;
                fmt_entry!(
                    out,
                    r#"{{"name":"kv recall","cat":"kv","ph":"i","s":"t","ts":{us:?},"pid":{PID_ENGINE},"tid":{tid},"args":{{"req":{req},"page":{page}}}}}"#
                );
            }
            ProbeEvent::DecodeFinished {
                req,
                gpu,
                tokens,
                ttft_ns,
                tpot_ns,
            } => {
                fmt_entry!(
                    out,
                    r#"{{"name":"decode done","cat":"decode","ph":"i","s":"t","ts":{us:?},"pid":{PID_SERVING},"tid":{gpu},"args":{{"req":{req},"tokens":{tokens},"ttft_ms":{:?},"tpot_ms":{:?}}}}}"#,
                    ttft_ns as f64 / 1e6,
                    tpot_ns as f64 / 1e6
                );
            }
            ProbeEvent::KvCheckpoint {
                req,
                gpu,
                tokens,
                bytes,
            } => {
                let tid = TID_DECODE_BASE + gpu as u64;
                fmt_entry!(
                    out,
                    r#"{{"name":"kv checkpoint","cat":"resilience","ph":"i","s":"t","ts":{us:?},"pid":{PID_ENGINE},"tid":{tid},"args":{{"req":{req},"tokens":{tokens},"bytes":{bytes}}}}}"#
                );
            }
            ProbeEvent::RestoreDecision {
                req,
                gpu,
                restore,
                ckpt_tokens,
                ckpt_bytes,
            } => {
                fmt_entry!(
                    out,
                    r#"{{"name":"{}","cat":"resilience","ph":"i","s":"t","ts":{us:?},"pid":{PID_SERVING},"tid":{gpu},"args":{{"req":{req},"restore":{restore},"ckpt_tokens":{ckpt_tokens},"ckpt_bytes":{ckpt_bytes}}}}}"#,
                    if restore { "restore" } else { "re-prefill" }
                );
            }
            ProbeEvent::SessionRestored {
                req,
                gpu,
                tokens,
                bytes,
            } => {
                fmt_entry!(
                    out,
                    r#"{{"name":"session restored","cat":"resilience","ph":"i","s":"t","ts":{us:?},"pid":{PID_SERVING},"tid":{gpu},"args":{{"req":{req},"tokens":{tokens},"bytes":{bytes}}}}}"#
                );
            }
            ProbeEvent::SessionSwappedOut {
                req,
                gpu,
                tokens,
                pages,
            } => {
                let tid = TID_DECODE_BASE + gpu as u64;
                fmt_entry!(
                    out,
                    r#"{{"name":"swap out","cat":"resilience","ph":"i","s":"t","ts":{us:?},"pid":{PID_ENGINE},"tid":{tid},"args":{{"req":{req},"tokens":{tokens},"pages":{pages}}}}}"#
                );
            }
            ProbeEvent::SessionResumed {
                req,
                gpu,
                tokens,
                pages,
            } => {
                let tid = TID_DECODE_BASE + gpu as u64;
                fmt_entry!(
                    out,
                    r#"{{"name":"resume","cat":"resilience","ph":"i","s":"t","ts":{us:?},"pid":{PID_ENGINE},"tid":{tid},"args":{{"req":{req},"tokens":{tokens},"pages":{pages}}}}}"#
                );
            }
            ProbeEvent::SessionTruncated {
                req,
                gpu,
                tokens,
                target,
            } => {
                fmt_entry!(
                    out,
                    r#"{{"name":"truncated","cat":"resilience","ph":"i","s":"t","ts":{us:?},"pid":{PID_SERVING},"tid":{gpu},"args":{{"req":{req},"tokens":{tokens},"target":{target}}}}}"#
                );
            }
        }
    }

    doc.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    doc
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

// ---------------------------------------------------------------------------
// JSONL parser
// ---------------------------------------------------------------------------

/// A position in JSONL text, read by the in-order reader.
struct Cursor<'a> {
    text: &'a str,
    i: usize,
}

impl<'a> Cursor<'a> {
    fn rest(&self) -> &'a [u8] {
        &self.text.as_bytes()[self.i..]
    }

    /// Steps over `literal` when the text continues with it.
    fn eat(&mut self, literal: &str) -> bool {
        let found = self.rest().starts_with(literal.as_bytes());
        if found {
            self.i += literal.len();
        }
        found
    }

    /// Steps over `key` (`,"name":`), then reads its value.
    fn field<T: JsonlField>(&mut self, key: &str) -> Option<T> {
        if self.eat(key) {
            T::read_next(self)
        } else {
            None
        }
    }

    /// The number at the cursor, cut where the general reader cuts it.
    fn number(&mut self) -> Option<&'a str> {
        let rest = self.rest();
        if !rest
            .first()
            .is_some_and(|&c| c.is_ascii_digit() || c == b'-')
        {
            return None;
        }
        let n = rest.iter().take_while(|&&c| is_number_byte(c)).count();
        let num = &self.text[self.i..self.i + n];
        self.i += n;
        Some(num)
    }

    /// A string without escapes or newlines: the general reader's value
    /// is its text.
    fn plain_string(&mut self) -> Option<&'a str> {
        let rest = self.rest();
        if rest.first() != Some(&b'"') {
            return None;
        }
        let n = rest[1..]
            .iter()
            .position(|&c| matches!(c, b'"' | b'\\' | b'\n'))?;
        if rest[1 + n] != b'"' {
            return None;
        }
        let start = self.i + 1;
        self.i = start + n + 1;
        Some(&self.text[start..start + n])
    }
}

/// The bytes a number may hold, for both readers.
fn is_number_byte(c: u8) -> bool {
    c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E')
}

/// Reads a line laid out exactly as [`to_jsonl`] writes it, from the
/// start of `text`: `{"at":<u64>,"ev":"<name>"`, then `,"<field>":<value>`
/// for each field in row order, then `}`. Returns the event and the
/// bytes read, which never hold a newline. Text after the `}` is
/// ignored, as the general reader ignores it. Every line it reads, the
/// general reader reads as the same event; `None` hands any other line
/// to that reader.
fn read_in_order(text: &str) -> Option<(Event, usize)> {
    let r = &mut Cursor { text, i: 0 };
    let at = SimTime::from_nanos(r.field("{\"at\":")?);
    if !r.eat(",\"ev\":") {
        return None;
    }
    let what = ProbeEvent::read_in_order(r.plain_string()?, r)?;
    r.eat("}").then_some((Event { at, what }, r.i))
}

/// A value in one parsed event line. Event lines are flat objects whose
/// values are only integers, floats, booleans and short strings.
#[derive(Debug, Clone, PartialEq)]
enum JsonVal {
    U(u64),
    F(f64),
    B(bool),
    S(String),
}

/// Key → value pairs of one flat JSON object, in source order: the
/// general reader's tokens, for lines the in-order reader does not take.
#[derive(Debug, Default)]
struct Fields {
    pairs: Vec<(String, JsonVal)>,
}

impl Fields {
    fn get(&self, key: &str) -> Option<&JsonVal> {
        self.pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn str(&self, key: &str) -> Result<&str, String> {
        match self.get(key) {
            Some(JsonVal::S(v)) => Ok(v),
            _ => Err(format!("missing or non-string field '{key}'")),
        }
    }

    /// Replaces the pairs with those of the object `line` holds. Text
    /// after the closing `}` is ignored.
    fn parse(&mut self, line: &str) -> Result<(), String> {
        self.pairs.clear();
        let b = line.as_bytes();
        let mut i = 0usize;
        skip_ws(b, &mut i);
        if i >= b.len() || b[i] != b'{' {
            return Err("expected '{'".to_string());
        }
        i += 1;
        skip_ws(b, &mut i);
        if i < b.len() && b[i] == b'}' {
            return Ok(());
        }
        loop {
            skip_ws(b, &mut i);
            let key = parse_string(line, &mut i)?;
            skip_ws(b, &mut i);
            if i >= b.len() || b[i] != b':' {
                return Err(format!("expected ':' after key '{key}'"));
            }
            i += 1;
            skip_ws(b, &mut i);
            let val = parse_value(line, &mut i)?;
            self.pairs.push((key, val));
            skip_ws(b, &mut i);
            match b.get(i) {
                Some(b',') => i += 1,
                Some(b'}') => return Ok(()),
                _ => return Err("expected ',' or '}'".to_string()),
            }
        }
    }

    /// Reads the event `line` holds, through its parsed pairs.
    fn read_event(&mut self, line: &str) -> Result<Event, String> {
        self.parse(line)?;
        Ok(Event {
            at: SimTime::from_nanos(u64::read_json(self, "at")?),
            what: ProbeEvent::read_fields(self)?,
        })
    }
}

fn skip_ws(b: &[u8], i: &mut usize) {
    while *i < b.len() && b[*i].is_ascii_whitespace() {
        *i += 1;
    }
}

/// The offset from `i` of the next `"` or `\`, the two bytes that end a
/// plain run of string text. Both are ASCII, so they never occur inside a
/// multi-byte character and every cut at one is a character boundary.
fn plain_run(b: &[u8], i: usize) -> Option<usize> {
    b[i..].iter().position(|&c| c == b'"' || c == b'\\')
}

/// Reads the string starting at the `"` at `s[*i]`, decoding escapes.
fn parse_string(s: &str, i: &mut usize) -> Result<String, String> {
    let b = s.as_bytes();
    if *i >= b.len() || b[*i] != b'"' {
        return Err("expected '\"'".to_string());
    }
    *i += 1;
    let mut out = String::new();
    while *i < b.len() {
        match b[*i] {
            b'"' => {
                *i += 1;
                return Ok(out);
            }
            b'\\' => {
                *i += 1;
                match b.get(*i) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = b
                            .get(*i + 1..*i + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                        out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                        *i += 4;
                    }
                    _ => return Err("unsupported escape".to_string()),
                }
                *i += 1;
            }
            _ => {
                let n = plain_run(b, *i).unwrap_or(b.len() - *i);
                out.push_str(&s[*i..*i + n]);
                *i += n;
            }
        }
    }
    Err("unterminated string".to_string())
}

fn parse_value(s: &str, i: &mut usize) -> Result<JsonVal, String> {
    let b = s.as_bytes();
    match b.get(*i) {
        Some(b'"') => parse_string(s, i).map(JsonVal::S),
        Some(b't') if b[*i..].starts_with(b"true") => {
            *i += 4;
            Ok(JsonVal::B(true))
        }
        Some(b'f') if b[*i..].starts_with(b"false") => {
            *i += 5;
            Ok(JsonVal::B(false))
        }
        Some(c) if c.is_ascii_digit() || *c == b'-' => {
            let start = *i;
            while *i < b.len() && is_number_byte(b[*i]) {
                *i += 1;
            }
            // Every byte of the number is ASCII, so both cuts are
            // character boundaries.
            number_value(&s[start..*i])
        }
        _ => Err("unsupported value".to_string()),
    }
}

/// An integer when `num` is one `u64` holds, else a finite float.
fn number_value(num: &str) -> Result<JsonVal, String> {
    if let Ok(v) = num.parse::<u64>() {
        Ok(JsonVal::U(v))
    } else {
        // Overflowing literals such as `1e999` parse as infinity, which
        // no exporter could write back: reject them.
        num.parse::<f64>()
            .ok()
            .filter(|v| v.is_finite())
            .map(JsonVal::F)
            .ok_or_else(|| format!("invalid number '{num}'"))
    }
}

/// Parses a JSONL event log written by [`to_jsonl`] back into events.
///
/// Blank lines are skipped; any malformed line or unknown event name is
/// an error naming the 1-based line. `parse_jsonl(to_jsonl(&events))`
/// round-trips every event except float payloads, which round-trip
/// exactly too because [`to_jsonl`] writes shortest-roundtrip floats.
///
/// Each line is read in one pass when it is laid out as [`to_jsonl`]
/// writes it; any other line (hand-edited, reordered keys, whitespace,
/// escapes) goes to a general tokenizer, which words every error. On any
/// line both readers take, they give the same event.
pub fn parse_jsonl(input: &str) -> Result<Vec<Event>, String> {
    let mut out = Vec::new();
    let mut f = Fields::default();
    let mut rest = input;
    for lineno in 1usize.. {
        if rest.is_empty() {
            break;
        }
        // A line the in-order reader takes needs no cut of its own: the
        // reader stops at its `}`, short of the newline.
        if let Some((e, read)) = read_in_order(rest) {
            out.push(e);
            rest = rest[read..].split_once('\n').map_or("", |(_, next)| next);
            continue;
        }
        let (line, next) = rest.split_once('\n').unwrap_or((rest, ""));
        rest = next;
        // `trim` also drops the `\r` of a CRLF line end.
        let line = line.trim();
        if !line.is_empty() {
            out.push(
                f.read_event(line)
                    .map_err(|e| format!("line {lineno}: {e}"))?,
            );
        }
    }
    Ok(out)
}

#[cfg(test)]
#[path = "../tests/jsonl_mutation/mod.rs"]
mod jsonl_mutation;

#[cfg(test)]
mod tests {
    use super::jsonl_mutation::{arb_mutation, mutate, EVERY_EVENT};
    use super::*;
    use proptest::prelude::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    /// `parse_jsonl` with every line read by the general reader alone.
    fn parse_general(input: &str) -> Result<Vec<Event>, String> {
        let mut f = Fields::default();
        input
            .lines()
            .enumerate()
            .filter(|(_, line)| !line.trim().is_empty())
            .map(|(lineno, line)| {
                f.read_event(line.trim())
                    .map_err(|e| format!("line {}: {e}", lineno + 1))
            })
            .collect()
    }

    /// Every line `to_jsonl` writes for the golden logs: one per event
    /// variant and the four serving runs.
    #[test]
    fn in_order_reader_reads_every_written_line_as_the_general_reader() {
        let goldens = [
            EVERY_EVENT,
            include_str!("../../../tests/data/golden_trace.jsonl"),
            include_str!("../../../tests/data/golden_faulted.jsonl"),
            include_str!("../../../tests/data/golden_detection.jsonl"),
            include_str!("../../../tests/data/golden_decode.jsonl"),
        ];
        let mut f = Fields::default();
        for golden in goldens {
            let events = parse_general(golden).expect("golden lines parse");
            for line in to_jsonl(&events).lines() {
                let general = f.read_event(line).expect("written lines parse");
                assert_eq!(read_in_order(line), Some((general, line.len())), "{line}");
            }
        }
    }

    proptest! {
        #[test]
        fn parse_jsonl_matches_the_general_reader_on_mutated_lines(
            mutations in prop::collection::vec(arb_mutation(), 1..5)
        ) {
            let mut corpus = Vec::new();
            for golden in EVERY_EVENT.lines() {
                let line = mutations.iter().fold(golden.to_string(), |l, m| mutate(&l, m));
                prop_assert_eq!(parse_jsonl(&line), parse_general(&line), "{}", line);
                corpus.push(line);
            }
            // Across lines too: the first bad line is the one named.
            let corpus = corpus.join("\n");
            prop_assert_eq!(parse_jsonl(&corpus), parse_general(&corpus));
        }
    }

    /// Edge values for the float writers' fast paths.
    const EDGES: [u64; 8] = [
        0,
        1,
        99,
        100,
        999_999_999_999_999,
        1_000_000_000_000_000,
        1 << 53,
        u64::MAX,
    ];

    fn written(put: impl FnOnce(&mut String)) -> String {
        let mut out = String::new();
        put(&mut out);
        out
    }

    /// Every scale the writers divide by, and the integral and rate paths
    /// at `n`, against `{:?}`.
    fn check_scales(n: u64) {
        for k in [3, 6, 9] {
            assert_eq!(
                written(|o| push_scaled(o, n, k)),
                format!("{:?}", n as f64 / 10u64.pow(k) as f64),
                "{n} / 10^{k}"
            );
        }
        let v = n as f64;
        assert_eq!(written(|o| push_f64(o, v)), format!("{v:?}"));
        assert_eq!(written(|o| Giga(v).put(o)), format!("{:?}", v / 1e9));
        let r = v / 7.0;
        assert_eq!(written(|o| Giga(r).put(o)), format!("{:?}", r / 1e9));
    }

    /// The integral path on any f64: its digits plus `.0` exactly when
    /// it is a positive-signed integer below 10^15, `{:?}` otherwise.
    fn check_integral(v: f64) {
        let fallback = (v == 0.0 && v.is_sign_negative())
            || v.is_nan()
            || v.is_infinite()
            || v.is_subnormal()
            || v >= 1e15;
        if fallback {
            assert_eq!(integral(v), None, "{v:?}");
        }
        let fast = v.is_sign_positive() && v < 1e15 && v.fract() == 0.0;
        assert_eq!(integral(v).is_some(), fast, "{v:?}");
        assert_eq!(written(|o| push_f64(o, v)), format!("{v:?}"));
        assert_eq!(written(|o| Giga(v).put(o)), format!("{:?}", v / 1e9));
    }

    #[test]
    fn float_writers_match_debug_on_edge_values() {
        for n in EDGES {
            check_scales(n);
            check_integral(n as f64);
        }
        for v in [
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::from_bits(1),
            f64::MIN_POSITIVE / 2.0,
            1e15,
            1e15 + 2.0,
            -1.0,
            0.5,
        ] {
            check_integral(v);
        }
    }

    proptest! {
        #[test]
        fn float_writers_match_debug(n in any::<u64>(), shift in 0u32..64, bits in any::<u64>()) {
            check_scales(n >> shift);
            check_integral((n >> shift) as f64);
            check_integral(f64::from_bits(bits));
        }
    }

    #[test]
    fn disabled_probe_drops_events() {
        let p = Probe::disabled();
        assert!(!p.is_enabled());
        p.emit(
            t(1),
            ProbeEvent::HostPinned { bytes: 42 }, // silently dropped
        );
    }

    #[test]
    fn logging_probe_records_in_order() {
        let (p, log) = Probe::logging();
        assert!(p.is_enabled());
        let p2 = p.clone();
        p.emit(t(1), ProbeEvent::QueueDepth { gpu: 0, depth: 1 });
        p2.emit(t(2), ProbeEvent::QueueDepth { gpu: 0, depth: 0 });
        let log = log.borrow();
        assert_eq!(log.len(), 2);
        assert_eq!(log.events[0].at, t(1));
        assert_eq!(
            log.events[1].what,
            ProbeEvent::QueueDepth { gpu: 0, depth: 0 }
        );
    }

    #[test]
    fn jsonl_is_one_valid_object_per_line() {
        let events = vec![
            Event {
                at: t(5),
                what: ProbeEvent::RequestEnqueued {
                    req: 1,
                    instance: 3,
                    gpu: 0,
                },
            },
            Event {
                at: t(9),
                what: ProbeEvent::StallStarted {
                    run: 0,
                    layer: 2,
                    gpu: 0,
                    cause: StallCause::NvlinkMigrate,
                },
            },
            Event {
                at: t(11),
                what: ProbeEvent::LinkShare {
                    link: 2,
                    rate_bps: 6.0e9,
                    flows: 2,
                },
            },
        ];
        let out = to_jsonl(&events);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        for line in &lines {
            let v: serde_json::Value = serde_json::from_str(line).expect("line parses");
            assert!(v["at"].as_u64().is_some());
            assert!(v["ev"].as_str().is_some());
        }
        assert!(lines[1].contains(r#""cause":"nvlink-migrate""#));
    }

    #[test]
    fn perfetto_has_metadata_counters_and_flow_arrows() {
        let events = vec![
            Event {
                at: t(0),
                what: ProbeEvent::RequestEnqueued {
                    req: 7,
                    instance: 0,
                    gpu: 1,
                },
            },
            Event {
                at: t(10),
                what: ProbeEvent::RequestDispatched {
                    req: 7,
                    instance: 0,
                    gpu: 1,
                    warm: false,
                    run: 0,
                },
            },
            Event {
                at: t(20),
                what: ProbeEvent::ExecStarted {
                    run: 0,
                    layer: 0,
                    gpu: 1,
                    dha: true,
                },
            },
            Event {
                at: t(30),
                what: ProbeEvent::ExecFinished {
                    run: 0,
                    layer: 0,
                    gpu: 1,
                },
            },
            Event {
                at: t(30),
                what: ProbeEvent::QueueDepth { gpu: 1, depth: 0 },
            },
            Event {
                at: t(30),
                what: ProbeEvent::LinkShare {
                    link: 0,
                    rate_bps: 1.2e10,
                    flows: 1,
                },
            },
        ];
        let opts = PerfettoOptions {
            link_names: vec!["pcie gpu0".to_string()],
        };
        let out = to_perfetto(&events, &opts);
        let v: serde_json::Value = serde_json::from_str(&out).expect("document parses");
        let evs = v["traceEvents"].as_array().unwrap();
        // Process + thread metadata present.
        assert!(evs
            .iter()
            .any(|e| e["name"] == "process_name" && e["args"]["name"] == "engine"));
        assert!(evs
            .iter()
            .any(|e| e["name"] == "thread_name" && e["args"]["name"] == "gpu1 requests"));
        // Flow arrow start and finish share the request id.
        let s = evs.iter().find(|e| e["ph"] == "s").expect("flow start");
        let f = evs.iter().find(|e| e["ph"] == "f").expect("flow finish");
        assert_eq!(s["id"].as_u64(), f["id"].as_u64());
        // Counters use named tracks.
        assert!(evs
            .iter()
            .any(|e| e["ph"] == "C" && e["name"] == "queue depth gpu1"));
        assert!(evs
            .iter()
            .any(|e| e["ph"] == "C" && e["name"] == "bw pcie gpu0"));
    }

    #[test]
    fn fault_events_export_in_both_formats() {
        let events = vec![
            Event {
                at: t(1),
                what: ProbeEvent::GpuFailed { gpu: 2 },
            },
            Event {
                at: t(2),
                what: ProbeEvent::RunAborted { run: 4, gpu: 2 },
            },
            Event {
                at: t(3),
                what: ProbeEvent::RequestRetried {
                    req: 9,
                    instance: 1,
                    gpu: 3,
                    attempt: 1,
                },
            },
            Event {
                at: t(4),
                what: ProbeEvent::RequestShed {
                    req: 10,
                    instance: 1,
                    cause: ShedCause::NoCapacity,
                },
            },
            Event {
                at: t(5),
                what: ProbeEvent::LinkCapacity {
                    link: 0,
                    capacity_bps: 6.0e9,
                },
            },
            Event {
                at: t(6),
                what: ProbeEvent::HostMemAvailable { bytes: 1 << 30 },
            },
            Event {
                at: t(7),
                what: ProbeEvent::GpuRecovered { gpu: 2 },
            },
        ];
        let out = to_jsonl(&events);
        for line in out.lines() {
            let v: serde_json::Value = serde_json::from_str(line).expect("line parses");
            assert!(v["ev"].as_str().is_some());
        }
        assert!(out.contains(r#""ev":"gpu_failed","gpu":2"#));
        assert!(out.contains(r#""cause":"no-capacity""#));
        let doc = to_perfetto(&events, &PerfettoOptions::default());
        let v: serde_json::Value = serde_json::from_str(&doc).expect("document parses");
        let evs = v["traceEvents"].as_array().unwrap();
        assert!(evs.iter().any(|e| e["name"] == "GPU FAILED"));
        assert!(evs
            .iter()
            .any(|e| e["ph"] == "C" && e["name"] == "cap link0"));
        assert!(evs
            .iter()
            .any(|e| e["name"] == "shed" && e["args"]["cause"] == "no-capacity"));
    }

    #[test]
    fn recovery_events_export_in_both_formats() {
        let events = vec![
            Event {
                at: t(1),
                what: ProbeEvent::ReplanTriggered {
                    epoch: 3,
                    up_gpus: 2,
                    degraded_links: 1,
                },
            },
            Event {
                at: t(2),
                what: ProbeEvent::PlanSwapped {
                    kind: 0,
                    slots: 1,
                    resident_bytes: 1 << 20,
                },
            },
            Event {
                at: t(3),
                what: ProbeEvent::PlanMigrationStarted {
                    kind: 0,
                    gpu: 1,
                    bytes: 1 << 20,
                },
            },
            Event {
                at: t(4),
                what: ProbeEvent::PlanMigrationFinished { kind: 0, gpu: 1 },
            },
            Event {
                at: t(5),
                what: ProbeEvent::RequestShed {
                    req: 8,
                    instance: 0,
                    cause: ShedCause::QueueFull,
                },
            },
            Event {
                at: t(6),
                what: ProbeEvent::RequestShed {
                    req: 9,
                    instance: 0,
                    cause: ShedCause::SloReject,
                },
            },
        ];
        let out = to_jsonl(&events);
        for line in out.lines() {
            let v: serde_json::Value = serde_json::from_str(line).expect("line parses");
            assert!(v["ev"].as_str().is_some());
        }
        assert!(out.contains(r#""ev":"replan_triggered","epoch":3"#));
        assert!(out.contains(r#""ev":"plan_swapped","kind":0,"slots":1"#));
        assert!(out.contains(r#""ev":"plan_migration_started""#));
        assert!(out.contains(r#""ev":"plan_migration_finished""#));
        assert!(out.contains(r#""cause":"queue-full""#));
        assert!(out.contains(r#""cause":"slo-reject""#));
        let doc = to_perfetto(&events, &PerfettoOptions::default());
        let v: serde_json::Value = serde_json::from_str(&doc).expect("document parses");
        let evs = v["traceEvents"].as_array().unwrap();
        assert!(evs.iter().any(|e| e["name"] == "REPLAN"));
        assert!(evs.iter().any(|e| e["name"] == "plan swapped"));
        assert!(evs
            .iter()
            .any(|e| e["name"] == "plan migration" && e["ph"] == "b"));
        assert!(evs
            .iter()
            .any(|e| e["name"] == "plan migration" && e["ph"] == "e"));
        assert!(evs
            .iter()
            .any(|e| e["name"] == "shed" && e["args"]["cause"] == "slo-reject"));
    }

    #[test]
    fn detection_events_export_in_both_formats() {
        let events = vec![
            Event {
                at: t(1),
                what: ProbeEvent::SilentFaultInjected {
                    kind: SilentFaultKind::LinkSlow,
                    target: 4,
                },
            },
            Event {
                at: t(2),
                what: ProbeEvent::LinkInferred {
                    link: 4,
                    state: DetectState::Quarantined,
                    score_milli: 12_345,
                },
            },
            Event {
                at: t(3),
                what: ProbeEvent::GpuInferred {
                    gpu: 2,
                    state: DetectState::Probation,
                    score_milli: 0,
                },
            },
            Event {
                at: t(4),
                what: ProbeEvent::CanarySent {
                    link: 4,
                    bytes: 32 << 20,
                },
            },
            Event {
                at: t(5),
                what: ProbeEvent::ChecksumMismatch {
                    run: 7,
                    layer: 3,
                    gpu: 1,
                    slot: 0,
                },
            },
            Event {
                at: t(6),
                what: ProbeEvent::LoadRefetched {
                    run: 7,
                    layer: 3,
                    gpu: 1,
                    slot: 0,
                },
            },
            Event {
                at: t(7),
                what: ProbeEvent::FlowHedged {
                    primary: 42,
                    hedge: 43,
                },
            },
            Event {
                at: t(8),
                what: ProbeEvent::LinkInferred {
                    link: 4,
                    state: DetectState::Healthy,
                    score_milli: 0,
                },
            },
        ];
        let out = to_jsonl(&events);
        for line in out.lines() {
            let v: serde_json::Value = serde_json::from_str(line).expect("line parses");
            assert!(v["ev"].as_str().is_some());
        }
        assert!(out.contains(r#""ev":"silent_fault_injected","kind":"link-slow","target":4"#));
        assert!(out.contains(r#""ev":"link_inferred","link":4,"state":"quarantined""#));
        assert!(out.contains(r#""ev":"gpu_inferred","gpu":2,"state":"probation""#));
        assert!(out.contains(r#""ev":"canary_sent","link":4"#));
        assert!(out.contains(r#""ev":"checksum_mismatch","run":7"#));
        assert!(out.contains(r#""ev":"load_refetched","run":7"#));
        assert!(out.contains(r#""ev":"flow_hedged","primary":42,"hedge":43"#));
        assert!(out.contains(r#""state":"healthy""#));
        let doc = to_perfetto(&events, &PerfettoOptions::default());
        let v: serde_json::Value = serde_json::from_str(&doc).expect("document parses");
        let evs = v["traceEvents"].as_array().unwrap();
        assert!(evs.iter().any(|e| e["name"] == "SILENT link-slow"));
        assert!(evs
            .iter()
            .any(|e| e["name"] == "link 4 quarantined" && e["args"]["score_milli"] == 12_345));
        assert!(evs.iter().any(|e| e["name"] == "gpu 2 probation"));
        assert!(evs.iter().any(|e| e["name"] == "canary"));
        assert!(evs.iter().any(|e| e["name"] == "checksum mismatch"));
        assert!(evs.iter().any(|e| e["name"] == "refetch"));
        assert!(evs.iter().any(|e| e["name"] == "hedge"));
    }

    #[test]
    fn parse_jsonl_rejects_malformed_lines() {
        assert!(parse_jsonl("not json").is_err());
        assert!(parse_jsonl(r#"{"at":1,"ev":"no_such_event"}"#).is_err());
        assert!(parse_jsonl(r#"{"at":1,"ev":"gpu_failed"}"#).is_err()); // missing gpu
                                                                        // A u32 field rejects values it cannot hold instead of truncating.
        let err = parse_jsonl(
            r#"{"at":1,"ev":"request_retried","req":1,"instance":2,"gpu":3,"attempt":4294967296}"#,
        )
        .unwrap_err();
        assert_eq!(err, "line 1: out-of-range integer field 'attempt'");
        // Overflowing floats are rejected rather than read as infinity.
        assert!(
            parse_jsonl(r#"{"at":1,"ev":"link_capacity","link":0,"capacity_bps":1e999}"#).is_err()
        );
        let err = parse_jsonl("{\"at\":1,\"ev\":\"gpu_failed\",\"gpu\":0}\nbroken").unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
    }

    #[test]
    fn jsonl_is_deterministic_for_equal_logs() {
        let mk = || {
            vec![Event {
                at: t(3),
                what: ProbeEvent::LinkShare {
                    link: 1,
                    rate_bps: 0.1 + 0.2, // float noise must format identically
                    flows: 3,
                },
            }]
        };
        assert_eq!(to_jsonl(&mk()), to_jsonl(&mk()));
    }
}
