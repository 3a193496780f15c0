//! Deterministic discrete-event simulation kernel.
//!
//! This crate is the hardware-independent substrate for the DeepPlan
//! reproduction. It provides:
//!
//! * [`time`] — integer-nanosecond simulated time ([`SimTime`], [`SimDur`]).
//! * [`sim`] — a discrete-event simulator ([`Sim`], [`Ctx`]) generic over
//!   a user state type, whose events are boxed closures or allocation-free
//!   word events (a plain function and one `u64`).
//! * [`flow`] — a fluid-flow network with max-min-fair bandwidth sharing,
//!   used to model PCIe links, PCIe switches and NVLink.
//! * [`fault`] — deterministic, seed-driven fault injection ([`FaultSpec`]):
//!   scheduled and probabilistic failure timelines materialized up front so
//!   every failure scenario replays bit-for-bit.
//! * [`driver`] — glue that schedules flow-completion events into the
//!   simulator ([`FlowDriver`], [`HasFlowDriver`]).
//! * [`slab`] — a generational free-list slab for state that scheduled
//!   events refer to by key.
//! * [`rng`] — seeded random-variate helpers (exponential, Poisson process).
//! * [`stats`] — summary statistics, percentiles and time-series bucketing.
//! * [`probe`] — the observability event bus ([`Probe`], [`probe::EventLog`])
//!   with Perfetto and JSONL exporters, plus a JSONL trace parser.
//! * [`attribution`] — per-request critical-path latency attribution
//!   reconstructed from probe spans, with p50/p99 blame tables.
//! * [`metrics`] — streaming metric registry (counters, gauges,
//!   log-bucketed histograms) and multi-window SLO burn-rate monitors
//!   fed online from probe events.
//!
//! All simulation state is deterministic: no wall-clock reads and no OS
//! randomness. Identical inputs replay identical schedules bit-for-bit.

pub mod attribution;
pub mod driver;
pub mod fault;
pub mod flow;
pub mod metrics;
pub mod probe;
pub mod rng;
pub mod sim;
pub mod slab;
pub mod stats;
pub mod time;

pub use driver::{cancel_flow, set_link_capacity, start_flow, FlowDriver, HasFlowDriver};
pub use fault::{FaultEvent, FaultKind, FaultSpec, GpuCrash, LinkFlap, LinkRef};
pub use flow::{FlowId, FlowNet, LinkId};
pub use probe::{Probe, ProbeEvent, ShedCause, StallCause};
pub use sim::{Ctx, EventFn, Sim};
pub use slab::{GenKey, GenSlab};
pub use time::{SimDur, SimTime};
