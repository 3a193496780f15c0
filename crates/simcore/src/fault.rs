//! Deterministic, seed-driven fault injection.
//!
//! A [`FaultSpec`] describes what goes wrong during a simulation:
//! *scheduled* faults fire at fixed instants, *probabilistic* faults
//! ([`LinkFlap`], [`GpuCrash`]) are stochastic processes expanded into a
//! concrete, sorted [`FaultEvent`] timeline by
//! [`FaultSpec::materialize`] using only the spec's seed — so a given
//! `(spec, seed, horizon)` always produces the same failure schedule and
//! every fault run replays bit-for-bit.
//!
//! The kernel stays mechanism-free: this module only *describes* faults.
//! Hosts (the serving simulation) apply them — flipping link capacities
//! through [`crate::driver::set_link_capacity`], aborting runs, shedding
//! load — and publish the effects on the probe bus.
//!
//! Fault kinds mirror the failure modes a multi-GPU serving box actually
//! sees: whole-device loss, PCIe/NVLink bandwidth degradation (thermal
//! throttling, lane renegotiation, a congested switch), pinned-host-memory
//! pressure from co-located jobs, and request-level compute slowdown
//! (clock capping, MPS interference).

use crate::rng::{derive_seed, exp_secs, seeded};
use crate::time::{SimDur, SimTime};

/// A link named by its role in the machine topology rather than its raw
/// flow-network index, so fault specs stay readable and portable across
/// machines. Resolved to a `LinkId` by `gpu_topology::netmap::NetMap`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkRef {
    /// Raw index into the flow network.
    Raw(usize),
    /// GPU `g`'s downstream PCIe link.
    PcieGpu(usize),
    /// PCIe switch `s`'s host uplink.
    Uplink(usize),
    /// The NVLink between two GPUs (order-insensitive).
    NvLink(usize, usize),
}

/// One kind of injected fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// GPU `gpu` dies: in-flight work is lost, its memory contents are
    /// gone, and it accepts no new work until a matching
    /// [`FaultKind::GpuRecover`].
    GpuFail {
        /// Failing GPU index.
        gpu: usize,
    },
    /// GPU `gpu` comes back empty (fresh contexts, cold caches).
    GpuRecover {
        /// Recovering GPU index.
        gpu: usize,
    },
    /// `link`'s bandwidth drops to `factor` × its healthy capacity.
    LinkDegrade {
        /// Affected link.
        link: LinkRef,
        /// Fraction of healthy capacity remaining (clamped to ≥ 0.001).
        factor: f64,
    },
    /// `link` returns to its healthy capacity.
    LinkRestore {
        /// Restored link.
        link: LinkRef,
    },
    /// `bytes` of pinned host memory are reclaimed from the model store
    /// (a co-located job grabbed them). The store sheds its
    /// lowest-priority instances until the rest fit.
    HostMemPressure {
        /// Pinned bytes taken away from the model store.
        bytes: u64,
    },
    /// The pressured host memory is handed back.
    HostMemRelease,
    /// Subsequently dispatched inferences compute `factor`× slower
    /// (clock capping / interference).
    Slowdown {
        /// Compute-time multiplier (≥ 1 slows down, < 1 is rejected by
        /// hosts).
        factor: f64,
    },
    /// Compute speed returns to normal for new dispatches.
    SlowdownEnd,
    /// **Silent** (gray) failure: `link` runs at `factor` × its healthy
    /// capacity but no health transition is announced — `LinkHealth`
    /// still believes the link is fine. Only a failure detector watching
    /// transfer times can notice.
    SilentLinkSlow {
        /// Affected link.
        link: LinkRef,
        /// Fraction of healthy capacity actually delivered (clamped to
        /// ≥ 0.001 by hosts).
        factor: f64,
    },
    /// The silently slowed `link` returns to spec — again without any
    /// announcement.
    SilentLinkRestore {
        /// Restored link.
        link: LinkRef,
    },
    /// **Silent** failure: every kernel dispatched to `gpu` runs
    /// `factor`× slower (a thermally throttled or misbehaving device
    /// that still reports healthy).
    SilentGpuSlow {
        /// Affected GPU.
        gpu: usize,
        /// Execution-time multiplier (≥ 1 slows down).
        factor: f64,
    },
    /// The silently slowed `gpu` returns to normal speed.
    SilentGpuRestore {
        /// Restored GPU.
        gpu: usize,
    },
    /// **Silent** failure: the next transfer started across `link` stops
    /// making progress for `stall`, then resumes. The flow model keeps
    /// the transfer alive, so nothing times out on its own — an observer
    /// only sees a transfer taking far longer than the model predicts.
    StuckFlow {
        /// Affected link.
        link: LinkRef,
        /// How long the wedged transfer makes no progress.
        stall: SimDur,
    },
    /// **Silent** failure: the next weight stream across `link` arrives
    /// with a payload checksum mismatch. Without verification the corrupt
    /// weights are served; with checksum-verify enabled the block is
    /// detected and refetched.
    CorruptTransfer {
        /// Affected link.
        link: LinkRef,
    },
}

/// A fault pinned to a simulated instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// When the fault strikes.
    pub at: SimTime,
    /// What happens.
    pub kind: FaultKind,
}

/// A probabilistic link flap: the link alternates healthy/degraded with
/// exponentially distributed dwell times.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFlap {
    /// The flapping link.
    pub link: LinkRef,
    /// Mean healthy dwell time.
    pub mean_up: SimDur,
    /// Mean degraded dwell time.
    pub mean_down: SimDur,
    /// Capacity factor while degraded.
    pub factor: f64,
}

/// A probabilistic GPU crash/repair cycle: time-to-failure and
/// time-to-repair are exponentially distributed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuCrash {
    /// The crashing GPU.
    pub gpu: usize,
    /// Mean time between failures.
    pub mtbf: SimDur,
    /// Mean time to repair.
    pub mttr: SimDur,
}

/// A complete fault scenario: seed, scheduled events and stochastic
/// processes. [`FaultSpec::none`] (the default) injects nothing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSpec {
    /// Seed for the probabilistic processes (scheduled events ignore it).
    pub seed: u64,
    /// Faults at fixed instants.
    pub scheduled: Vec<FaultEvent>,
    /// Probabilistic link flaps.
    pub flaps: Vec<LinkFlap>,
    /// Probabilistic GPU crash/repair cycles.
    pub crashes: Vec<GpuCrash>,
}

/// RNG stream tags so flaps and crashes draw from unrelated substreams.
const STREAM_FLAP: u64 = 0x464c_4150; // "FLAP"
const STREAM_CRASH: u64 = 0x4352_5348; // "CRSH"

impl FaultSpec {
    /// A spec that injects nothing.
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether the spec injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.scheduled.is_empty() && self.flaps.is_empty() && self.crashes.is_empty()
    }

    /// Expands the spec into a time-sorted event list. Scheduled events
    /// are kept verbatim (even past `horizon`); probabilistic processes
    /// are sampled up to `horizon` from seeds derived per process, so
    /// adding a flap never perturbs another flap's timeline. Dwells add
    /// up saturating at the end of simulated time, so a huge dwell ends
    /// at `horizon` and never wraps before the event it follows. The
    /// sort is stable: same-instant events keep spec order.
    pub fn materialize(&self, horizon: SimTime) -> Vec<FaultEvent> {
        let mut out = self.scheduled.clone();
        for (i, flap) in self.flaps.iter().enumerate() {
            let mut rng = seeded(derive_seed(self.seed, STREAM_FLAP ^ ((i as u64) << 8)));
            let up_rate = 1.0 / flap.mean_up.as_secs_f64().max(1e-9);
            let down_rate = 1.0 / flap.mean_down.as_secs_f64().max(1e-9);
            let mut t = SimTime::ZERO;
            loop {
                t = after(t, exp_secs(&mut rng, up_rate));
                if t > horizon {
                    break;
                }
                out.push(FaultEvent {
                    at: t,
                    kind: FaultKind::LinkDegrade {
                        link: flap.link,
                        factor: flap.factor,
                    },
                });
                t = after(t, exp_secs(&mut rng, down_rate));
                out.push(FaultEvent {
                    at: t.min(horizon),
                    kind: FaultKind::LinkRestore { link: flap.link },
                });
            }
        }
        for (i, crash) in self.crashes.iter().enumerate() {
            let mut rng = seeded(derive_seed(self.seed, STREAM_CRASH ^ ((i as u64) << 8)));
            let fail_rate = 1.0 / crash.mtbf.as_secs_f64().max(1e-9);
            let repair_rate = 1.0 / crash.mttr.as_secs_f64().max(1e-9);
            let mut t = SimTime::ZERO;
            loop {
                t = after(t, exp_secs(&mut rng, fail_rate));
                if t > horizon {
                    break;
                }
                out.push(FaultEvent {
                    at: t,
                    kind: FaultKind::GpuFail { gpu: crash.gpu },
                });
                t = after(t, exp_secs(&mut rng, repair_rate));
                out.push(FaultEvent {
                    at: t.min(horizon),
                    kind: FaultKind::GpuRecover { gpu: crash.gpu },
                });
            }
        }
        out.sort_by_key(|e| e.at);
        out
    }

    /// Parses the CLI fault DSL: semicolon-separated entries, each
    /// `kind@time:key=value,...` (scheduled) or `kind:key=value,...`
    /// (probabilistic). See `FaultSpec` docs in DESIGN.md; examples:
    ///
    /// ```text
    /// gpu-fail@2s:gpu=1
    /// gpu-recover@4s:gpu=1
    /// link-degrade@500ms:uplink=0,factor=0.25
    /// link-restore@2s:uplink=0
    /// mem-pressure@1s:bytes=96g
    /// mem-release@3s
    /// slowdown@1s:factor=2
    /// slowdown-end@2s
    /// link-flap:pcie=0,up=2s,down=300ms,factor=0.3
    /// gpu-crash:gpu=2,mtbf=10s,mttr=1s
    /// silent-link-slow@2s:pcie=0,factor=0.4
    /// silent-link-restore@8s:pcie=0
    /// silent-gpu-slow@2s:gpu=1,factor=3
    /// silent-gpu-restore@8s:gpu=1
    /// stuck-flow@2s:uplink=0,stall=500ms
    /// corrupt-transfer@2s:pcie=1
    /// ```
    ///
    /// Links are named `pcie=G`, `uplink=S`, `nvlink=A-B` or `link=N`
    /// (raw index). Durations accept `ns`/`us`/`ms`/`s` suffixes
    /// (bare numbers are seconds); byte counts accept `k`/`m`/`g`. Both
    /// must fit 64 bits (in ns and bytes), and the mean dwells of
    /// `link-flap` and `gpu-crash` must be at least 1 ms.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the offending entry.
    pub fn parse(spec: &str, seed: u64) -> Result<FaultSpec, String> {
        let mut out = FaultSpec {
            seed,
            ..FaultSpec::default()
        };
        for raw in spec.split(';') {
            let entry = raw.trim();
            if entry.is_empty() {
                continue;
            }
            parse_entry(entry, &mut out).map_err(|e| format!("fault entry '{entry}': {e}"))?;
        }
        Ok(out)
    }
}

fn parse_entry(entry: &str, out: &mut FaultSpec) -> Result<(), String> {
    let (head, params) = match entry.split_once(':') {
        Some((h, p)) => (h, p),
        None => (entry, ""),
    };
    let (kind, at) = match head.split_once('@') {
        Some((k, t)) => (k, Some(parse_dur(t)?)),
        None => (head, None),
    };
    let kv = parse_params(params)?;
    let get = |key: &str| -> Result<&str, String> {
        kv.iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("missing '{key}='"))
    };
    let link = || -> Result<LinkRef, String> {
        if let Ok(v) = get("pcie") {
            return Ok(LinkRef::PcieGpu(parse_usize(v)?));
        }
        if let Ok(v) = get("uplink") {
            return Ok(LinkRef::Uplink(parse_usize(v)?));
        }
        if let Ok(v) = get("nvlink") {
            let (a, b) = v
                .split_once('-')
                .ok_or_else(|| "nvlink wants A-B".to_string())?;
            return Ok(LinkRef::NvLink(parse_usize(a)?, parse_usize(b)?));
        }
        if let Ok(v) = get("link") {
            return Ok(LinkRef::Raw(parse_usize(v)?));
        }
        Err("missing link (pcie=|uplink=|nvlink=|link=)".to_string())
    };
    let scheduled = |k: FaultKind| -> Result<FaultEvent, String> {
        Ok(FaultEvent {
            at: SimTime::from_nanos(at.ok_or("missing '@time'")?.as_nanos()),
            kind: k,
        })
    };
    match kind {
        "gpu-fail" => {
            let ev = scheduled(FaultKind::GpuFail {
                gpu: parse_usize(get("gpu")?)?,
            })?;
            out.scheduled.push(ev);
        }
        "gpu-recover" => {
            let ev = scheduled(FaultKind::GpuRecover {
                gpu: parse_usize(get("gpu")?)?,
            })?;
            out.scheduled.push(ev);
        }
        "link-degrade" => {
            let ev = scheduled(FaultKind::LinkDegrade {
                link: link()?,
                factor: parse_f64(get("factor")?)?,
            })?;
            out.scheduled.push(ev);
        }
        "link-restore" => {
            let ev = scheduled(FaultKind::LinkRestore { link: link()? })?;
            out.scheduled.push(ev);
        }
        "mem-pressure" => {
            let ev = scheduled(FaultKind::HostMemPressure {
                bytes: parse_bytes(get("bytes")?)?,
            })?;
            out.scheduled.push(ev);
        }
        "mem-release" => {
            let ev = scheduled(FaultKind::HostMemRelease)?;
            out.scheduled.push(ev);
        }
        "slowdown" => {
            let ev = scheduled(FaultKind::Slowdown {
                factor: parse_f64(get("factor")?)?,
            })?;
            out.scheduled.push(ev);
        }
        "slowdown-end" => {
            let ev = scheduled(FaultKind::SlowdownEnd)?;
            out.scheduled.push(ev);
        }
        "silent-link-slow" => {
            let ev = scheduled(FaultKind::SilentLinkSlow {
                link: link()?,
                factor: parse_f64(get("factor")?)?,
            })?;
            out.scheduled.push(ev);
        }
        "silent-link-restore" => {
            let ev = scheduled(FaultKind::SilentLinkRestore { link: link()? })?;
            out.scheduled.push(ev);
        }
        "silent-gpu-slow" => {
            let ev = scheduled(FaultKind::SilentGpuSlow {
                gpu: parse_usize(get("gpu")?)?,
                factor: parse_f64(get("factor")?)?,
            })?;
            out.scheduled.push(ev);
        }
        "silent-gpu-restore" => {
            let ev = scheduled(FaultKind::SilentGpuRestore {
                gpu: parse_usize(get("gpu")?)?,
            })?;
            out.scheduled.push(ev);
        }
        "stuck-flow" => {
            let ev = scheduled(FaultKind::StuckFlow {
                link: link()?,
                stall: parse_dur(get("stall")?)?,
            })?;
            out.scheduled.push(ev);
        }
        "corrupt-transfer" => {
            let ev = scheduled(FaultKind::CorruptTransfer { link: link()? })?;
            out.scheduled.push(ev);
        }
        "link-flap" => out.flaps.push(LinkFlap {
            link: link()?,
            mean_up: parse_mean(get("up")?)?,
            mean_down: parse_mean(get("down")?)?,
            factor: parse_f64(get("factor")?)?,
        }),
        "gpu-crash" => out.crashes.push(GpuCrash {
            gpu: parse_usize(get("gpu")?)?,
            mtbf: parse_mean(get("mtbf")?)?,
            mttr: parse_mean(get("mttr")?)?,
        }),
        other => return Err(format!("unknown fault kind '{other}'")),
    }
    Ok(())
}

/// `t` plus an exponential dwell of `secs`, saturating at the end of
/// simulated time.
fn after(t: SimTime, secs: f64) -> SimTime {
    t.saturating_add(SimDur::from_secs_f64(secs))
}

fn parse_params(params: &str) -> Result<Vec<(&str, &str)>, String> {
    let mut kv = Vec::new();
    for p in params.split(',') {
        let p = p.trim();
        if p.is_empty() {
            continue;
        }
        let (k, v) = p
            .split_once('=')
            .ok_or_else(|| format!("expected key=value, got '{p}'"))?;
        kv.push((k.trim(), v.trim()));
    }
    Ok(kv)
}

fn parse_usize(s: &str) -> Result<usize, String> {
    s.parse().map_err(|_| format!("bad integer '{s}'"))
}

fn parse_f64(s: &str) -> Result<f64, String> {
    let v: f64 = s.parse().map_err(|_| format!("bad number '{s}'"))?;
    if !v.is_finite() || v <= 0.0 {
        return Err(format!("'{s}' must be positive"));
    }
    Ok(v)
}

/// Parses a duration: `250ns`, `10us`, `5ms`, `1.5s`, or bare seconds.
fn parse_dur(s: &str) -> Result<SimDur, String> {
    let (num, scale_ns) = if let Some(n) = s.strip_suffix("ns") {
        (n, 1.0)
    } else if let Some(n) = s.strip_suffix("us") {
        (n, 1e3)
    } else if let Some(n) = s.strip_suffix("ms") {
        (n, 1e6)
    } else if let Some(n) = s.strip_suffix('s') {
        (n, 1e9)
    } else {
        (s, 1e9)
    };
    let v: f64 = num
        .trim()
        .parse()
        .map_err(|_| format!("bad duration '{s}'"))?;
    if !v.is_finite() || v < 0.0 {
        return Err(format!("duration '{s}' must be non-negative"));
    }
    // 2^64 ns is about 584 years; the cast would saturate past it.
    let ns = (v * scale_ns).round();
    if ns >= u64::MAX as f64 {
        return Err(format!("duration '{s}' does not fit 64 bits of ns"));
    }
    Ok(SimDur::from_nanos(ns as u64))
}

/// Shortest mean dwell a stochastic process may have. `materialize`
/// draws about horizon/mean events per process, so a 1 ns mean turns a
/// one-second horizon into a billion faults; 1 ms keeps it to about a
/// thousand per simulated second, and every mean in use is 20 ms or more.
const MIN_MEAN: SimDur = SimDur::from_millis(1);

/// Parses the mean dwell of a stochastic process: a duration of at least
/// [`MIN_MEAN`].
fn parse_mean(s: &str) -> Result<SimDur, String> {
    let d = parse_dur(s)?;
    if d < MIN_MEAN {
        return Err(format!("mean dwell '{s}' must be at least 1ms"));
    }
    Ok(d)
}

/// Parses a byte count: `4096`, `512k`, `96m`, `2g` (binary multiples).
fn parse_bytes(s: &str) -> Result<u64, String> {
    let lower = s.to_lowercase();
    let (num, shift) = if let Some(n) = lower.strip_suffix('g') {
        (n.to_string(), 30)
    } else if let Some(n) = lower.strip_suffix('m') {
        (n.to_string(), 20)
    } else if let Some(n) = lower.strip_suffix('k') {
        (n.to_string(), 10)
    } else {
        (lower, 0)
    };
    let v: f64 = num
        .trim()
        .parse()
        .map_err(|_| format!("bad byte count '{s}'"))?;
    if !v.is_finite() || v < 0.0 {
        return Err(format!("byte count '{s}' must be non-negative"));
    }
    let bytes = v * (1u64 << shift) as f64;
    if bytes >= u64::MAX as f64 {
        return Err(format!("byte count '{s}' does not fit 64 bits"));
    }
    Ok(bytes as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: f64) -> SimTime {
        SimTime::from_nanos((s * 1e9) as u64)
    }

    #[test]
    fn empty_spec_materializes_to_nothing() {
        let spec = FaultSpec::none();
        assert!(spec.is_empty());
        assert!(spec.materialize(secs(100.0)).is_empty());
    }

    #[test]
    fn scheduled_events_survive_verbatim_and_sorted() {
        let spec = FaultSpec {
            seed: 1,
            scheduled: vec![
                FaultEvent {
                    at: secs(5.0),
                    kind: FaultKind::GpuRecover { gpu: 0 },
                },
                FaultEvent {
                    at: secs(2.0),
                    kind: FaultKind::GpuFail { gpu: 0 },
                },
            ],
            ..FaultSpec::default()
        };
        let tl = spec.materialize(secs(1.0)); // Horizon below both times.
        assert_eq!(tl.len(), 2);
        assert_eq!(tl[0].kind, FaultKind::GpuFail { gpu: 0 });
        assert_eq!(tl[1].kind, FaultKind::GpuRecover { gpu: 0 });
    }

    #[test]
    fn materialize_is_deterministic_and_seed_sensitive() {
        let spec = |seed| FaultSpec {
            seed,
            flaps: vec![LinkFlap {
                link: LinkRef::Uplink(0),
                mean_up: SimDur::from_secs(2),
                mean_down: SimDur::from_millis(300),
                factor: 0.5,
            }],
            crashes: vec![GpuCrash {
                gpu: 1,
                mtbf: SimDur::from_secs(5),
                mttr: SimDur::from_secs(1),
            }],
            ..FaultSpec::default()
        };
        let a = spec(7).materialize(secs(60.0));
        let b = spec(7).materialize(secs(60.0));
        let c = spec(8).materialize(secs(60.0));
        assert!(!a.is_empty());
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Degrades and restores alternate per link, fails/recovers per GPU.
        let mut link_down = false;
        let mut gpu_down = false;
        for e in &a {
            match e.kind {
                FaultKind::LinkDegrade { .. } => {
                    assert!(!link_down);
                    link_down = true;
                }
                FaultKind::LinkRestore { .. } => {
                    assert!(link_down);
                    link_down = false;
                }
                FaultKind::GpuFail { .. } => {
                    assert!(!gpu_down);
                    gpu_down = true;
                }
                FaultKind::GpuRecover { .. } => {
                    assert!(gpu_down);
                    gpu_down = false;
                }
                _ => unreachable!(),
            }
        }
        // Timeline is sorted.
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn dwells_saturate_instead_of_wrapping() {
        let huge = SimDur::from_nanos(u64::MAX);
        let spec = FaultSpec {
            seed: 1,
            flaps: vec![LinkFlap {
                link: LinkRef::PcieGpu(0),
                mean_up: SimDur::from_millis(500),
                mean_down: huge,
                factor: 0.3,
            }],
            crashes: vec![GpuCrash {
                gpu: 0,
                mtbf: SimDur::from_millis(500),
                mttr: huge,
            }],
            ..FaultSpec::default()
        };
        let horizon = secs(60.0);
        let tl = spec.materialize(horizon);
        // Each process goes down once and stays down to the horizon: its
        // restore never lands before its degrade, and it never flaps again.
        let kinds: Vec<FaultKind> = tl.iter().map(|e| e.kind).collect();
        assert_eq!(tl.len(), 4, "{tl:?}");
        for (down, up) in [
            (
                FaultKind::LinkDegrade {
                    link: LinkRef::PcieGpu(0),
                    factor: 0.3,
                },
                FaultKind::LinkRestore {
                    link: LinkRef::PcieGpu(0),
                },
            ),
            (
                FaultKind::GpuFail { gpu: 0 },
                FaultKind::GpuRecover { gpu: 0 },
            ),
        ] {
            let at = |k| tl[kinds.iter().position(|&x| x == k).unwrap()].at;
            assert!(at(down) <= horizon);
            assert_eq!(at(up), horizon);
        }
        // A huge mean up-time never reaches the horizon at all.
        let quiet = FaultSpec {
            crashes: vec![GpuCrash {
                gpu: 0,
                mtbf: huge,
                mttr: huge,
            }],
            ..FaultSpec::default()
        };
        assert!(quiet.materialize(horizon).is_empty());
    }

    #[test]
    fn parse_round_trips_all_kinds() {
        let spec = FaultSpec::parse(
            "gpu-fail@2s:gpu=1; gpu-recover@4s:gpu=1; \
             link-degrade@500ms:uplink=0,factor=0.25; link-restore@2s:uplink=0; \
             mem-pressure@1s:bytes=2g; mem-release@3s; \
             slowdown@1s:factor=2; slowdown-end@2s; \
             link-flap:pcie=0,up=2s,down=300ms,factor=0.3; \
             gpu-crash:gpu=2,mtbf=10s,mttr=1s",
            42,
        )
        .expect("spec parses");
        assert_eq!(spec.scheduled.len(), 8);
        assert_eq!(spec.flaps.len(), 1);
        assert_eq!(spec.crashes.len(), 1);
        assert_eq!(spec.seed, 42);
        assert_eq!(
            spec.scheduled[0],
            FaultEvent {
                at: secs(2.0),
                kind: FaultKind::GpuFail { gpu: 1 }
            }
        );
        assert_eq!(
            spec.scheduled[2].kind,
            FaultKind::LinkDegrade {
                link: LinkRef::Uplink(0),
                factor: 0.25
            }
        );
        assert_eq!(
            spec.scheduled[4].kind,
            FaultKind::HostMemPressure { bytes: 2 << 30 }
        );
        assert_eq!(
            spec.flaps[0],
            LinkFlap {
                link: LinkRef::PcieGpu(0),
                mean_up: SimDur::from_secs(2),
                mean_down: SimDur::from_millis(300),
                factor: 0.3,
            }
        );
    }

    #[test]
    fn parse_round_trips_silent_kinds() {
        let spec = FaultSpec::parse(
            "silent-link-slow@2s:pcie=0,factor=0.4; \
             silent-link-restore@8s:pcie=0; \
             silent-gpu-slow@2s:gpu=1,factor=3; \
             silent-gpu-restore@8s:gpu=1; \
             stuck-flow@3s:uplink=0,stall=500ms; \
             corrupt-transfer@4s:nvlink=0-1",
            7,
        )
        .expect("silent spec parses");
        assert_eq!(spec.scheduled.len(), 6);
        assert!(spec.flaps.is_empty() && spec.crashes.is_empty());
        assert_eq!(
            spec.scheduled[0].kind,
            FaultKind::SilentLinkSlow {
                link: LinkRef::PcieGpu(0),
                factor: 0.4
            }
        );
        assert_eq!(
            spec.scheduled[1].kind,
            FaultKind::SilentLinkRestore {
                link: LinkRef::PcieGpu(0)
            }
        );
        assert_eq!(
            spec.scheduled[2].kind,
            FaultKind::SilentGpuSlow {
                gpu: 1,
                factor: 3.0
            }
        );
        assert_eq!(
            spec.scheduled[3].kind,
            FaultKind::SilentGpuRestore { gpu: 1 }
        );
        assert_eq!(
            spec.scheduled[4].kind,
            FaultKind::StuckFlow {
                link: LinkRef::Uplink(0),
                stall: SimDur::from_millis(500)
            }
        );
        assert_eq!(
            spec.scheduled[5].kind,
            FaultKind::CorruptTransfer {
                link: LinkRef::NvLink(0, 1)
            }
        );
        // Materialization keeps silent faults verbatim and sorted.
        let tl = spec.materialize(secs(60.0));
        assert_eq!(tl.len(), 6);
        assert!(tl.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn parse_rejects_malformed_entries() {
        for bad in [
            "gpu-fail:gpu=1",                                  // missing @time
            "gpu-fail@2s",                                     // missing gpu=
            "link-degrade@1s:factor=0.5",                      // missing link
            "warp-core-breach@1s",                             // unknown kind
            "link-flap:pcie=0,up=2s",                          // missing down/factor
            "gpu-fail@2s:gpu=banana",                          // bad integer
            "slowdown@1s:factor=-2",                           // non-positive factor
            "link-degrade@1s:nvlink=0,factor=0.5",             // nvlink wants A-B
            "silent-link-slow@1s:pcie=0",                      // missing factor
            "silent-link-slow:pcie=0,factor=0.4",              // missing @time
            "stuck-flow@1s:pcie=0",                            // missing stall
            "silent-gpu-slow@1s:factor=2",                     // missing gpu
            "corrupt-transfer@1s",                             // missing link
            "gpu-crash:gpu=0,mtbf=0,mttr=1s",                  // zero mean up-time
            "gpu-crash:gpu=0,mtbf=1s,mttr=0ms",                // zero mean repair
            "link-flap:pcie=0,up=0,down=1s,factor=0.5",        // zero mean up
            "link-flap:pcie=0,up=1s,down=0.1ns,factor=0.5",    // rounds to 0
            "gpu-crash:gpu=0,mtbf=1ns,mttr=1ns",               // means below 1 ms
            "gpu-crash:gpu=0,mtbf=1s,mttr=999us",              // repair below 1 ms
            "link-flap:pcie=0,up=0.5ms,down=1s,factor=0.5",    // up below 1 ms
            "link-flap:pcie=0,up=1s,down=999999ns,factor=0.5", // down below 1 ms
            "link-flap:pcie=0,up=500ms,down=1e12s,factor=0.3", // > 2^64 ns
            "gpu-fail@2e10s:gpu=0",                            // time past 2^64 ns
            "stuck-flow@1s:pcie=0,stall=1e20ns",               // stall past 2^64 ns
            "mem-pressure@1s:bytes=2e10g",                     // past 2^64 bytes
            "mem-pressure@1s:bytes=18446744073709551616",      // 2^64 bytes
        ] {
            assert!(FaultSpec::parse(bad, 0).is_err(), "accepted '{bad}'");
        }
        assert!(FaultSpec::parse("", 0).unwrap().is_empty());
        assert!(FaultSpec::parse(" ; ; ", 0).unwrap().is_empty());
        // The shortest mean dwell allowed.
        assert!(FaultSpec::parse("gpu-crash:gpu=0,mtbf=1ms,mttr=1ms", 0).is_ok());
    }

    #[test]
    fn duration_and_byte_suffixes() {
        assert_eq!(parse_dur("250ns").unwrap(), SimDur::from_nanos(250));
        assert_eq!(parse_dur("10us").unwrap(), SimDur::from_micros(10));
        assert_eq!(parse_dur("5ms").unwrap(), SimDur::from_millis(5));
        assert_eq!(parse_dur("1.5s").unwrap(), SimDur::from_millis(1500));
        assert_eq!(parse_dur("2").unwrap(), SimDur::from_secs(2));
        assert_eq!(parse_bytes("4096").unwrap(), 4096);
        assert_eq!(parse_bytes("512K").unwrap(), 512 << 10);
        assert_eq!(parse_bytes("96m").unwrap(), 96 << 20);
        assert_eq!(parse_bytes("1.5g").unwrap(), 3 << 29);
    }
}
