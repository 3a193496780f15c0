//! Gray-failure detection: inferring link and GPU health from what the
//! server can actually observe, without consuming any fault oracle.
//!
//! Real clusters rarely get clean failure notifications — links silently
//! run at a fraction of their bandwidth, GPUs silently downclock, and
//! the only evidence is that work takes longer than the performance
//! model says it should. The detector keeps a per-link and per-GPU
//! statistical baseline of *observation ratios* (observed time divided
//! by model-expected time), scores each new observation phi-accrual
//! style, and walks a small state machine:
//!
//! ```text
//!   Healthy --(k consecutive suspicious ratios)--> Quarantined
//!   Quarantined --(probation timer)--> Probation
//!   Probation --(n clean canaries)--> Healthy       (links)
//!   Probation --(dirty canary)--> Quarantined
//!   Quarantined --(probation timer)--> Healthy      (GPUs, optimistic)
//! ```
//!
//! The suspicion score is the Gaussian tail exponent `z² / (2·ln 10)`
//! for positive deviations — the base-10 order of magnitude of how
//! unlikely the observation is under the learned baseline, the same
//! quantity a phi-accrual failure detector accumulates — computed
//! without `erf` so scoring stays cheap and dependency-free. Each
//! baseline is Welford's running mean and variance, kept in its own
//! three fields.
//!
//! Hysteresis is built in at both ends: a baseline must see
//! `min_samples` observations before it may raise suspicion, a single
//! over-threshold ratio only records a *strike* (the target stays
//! healthy until `STRIKES` (2) land consecutively), and a quarantined
//! target must earn `CANARIES` (3) clean probe transfers to come back.
//! Baselines only learn from non-suspicious observations while healthy,
//! so a fault cannot teach the detector that slow is normal.

use simcore::flow::LinkId;
use simcore::probe::DetectState;

use crate::config::DetectionPolicy;

/// Suspicion score (phi-accrual style, ≈ -log10 of the probability that
/// the observation is healthy noise) at which a strike is recorded
/// against a link or GPU.
const SUSPECT_THRESHOLD: f64 = 8.0;

/// Consecutive over-threshold strikes required to quarantine, so one
/// slow transfer (queueing noise, contention burst) never trips it.
const STRIKES: u32 = 2;

/// Clean canary transfers required to reinstate a probing link.
const CANARIES: u32 = 3;

/// Running baseline of healthy observation ratios: Welford's single-pass
/// mean and variance, bit-identical for identical observation streams.
#[derive(Debug, Clone, Default)]
struct Baseline {
    n: u32,
    mean: f64,
    m2: f64,
}

impl Baseline {
    fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / f64::from(self.n);
        self.m2 += d * (x - self.mean);
    }

    /// Sample standard deviation; 0.0 with fewer than two observations.
    fn sample_std(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / f64::from(self.n - 1)).sqrt()
        }
    }

    /// Sample standard deviation, floored at 5 % of the mean so a
    /// perfectly deterministic baseline (warm execution) still tolerates
    /// small modelling error instead of flagging on the first µs of
    /// drift.
    fn std_floored(&self) -> f64 {
        self.sample_std().max(0.05 * self.mean.abs()).max(1e-6)
    }

    /// Suspicion of observation `x`: `-log10 P(X ≥ x)` under a Gaussian
    /// fit, approximated by the tail exponent. Negative deviations
    /// (faster than expected) are never suspicious.
    fn suspicion(&self, x: f64) -> f64 {
        let z = (x - self.mean) / self.std_floored();
        if z <= 0.0 {
            return 0.0;
        }
        z * z / (2.0 * std::f64::consts::LN_10)
    }
}

/// Detector bookkeeping for one target (a link or a GPU).
#[derive(Debug, Clone)]
struct Track {
    base: Baseline,
    state: DetectState,
    /// Consecutive over-threshold observations while healthy.
    strikes: u32,
    /// Estimated remaining capacity fraction while not healthy.
    inferred_factor: f64,
    /// Clean canaries seen this probation round.
    clean: u32,
    /// Bumped on every state change; probation timers capture it and
    /// only fire if no newer transition superseded them.
    epoch: u64,
    /// Suspicion of the most recent observation, in milli-units (for
    /// probe events).
    last_score_milli: u64,
}

impl Default for Track {
    fn default() -> Self {
        Track {
            base: Baseline::default(),
            state: DetectState::Healthy,
            strikes: 0,
            inferred_factor: 1.0,
            clean: 0,
            epoch: 0,
            last_score_milli: 0,
        }
    }
}

impl Track {
    /// Capacity estimate from a suspicious ratio: healthy work that
    /// should take `mean` units took `ratio`, so roughly `mean / ratio`
    /// of the capacity remains. Quantised to sixteenths so repeated
    /// observations of the same fault resolve to the same re-plan
    /// signature instead of churning plans on float noise.
    fn infer_factor(&self, ratio: f64) -> f64 {
        let raw = (self.base.mean / ratio).clamp(1.0 / 16.0, 1.0);
        ((raw * 16.0).round() / 16.0).max(1.0 / 16.0)
    }

    /// Sets the inferred factor for a new quarantine, keeping the
    /// estimate *sticky* across one sickness episode: re-quarantines
    /// (dirty canaries, post-probation strikes) re-use the first
    /// estimate rather than re-deriving a slightly different one each
    /// round, so the re-plan signature stays put until reinstatement
    /// genuinely clears it.
    fn set_inferred(&mut self, ratio: f64) {
        if self.inferred_factor >= 1.0 {
            self.inferred_factor = self.infer_factor(ratio);
        }
    }
}

/// A state change the detector inferred; the host maps these onto probe
/// events, counters, re-planning and canary traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transition {
    /// A link crossed the strike threshold (or failed probation).
    LinkQuarantined(LinkId),
    /// A quarantined link entered probation (wants canary traffic).
    LinkProbation(LinkId),
    /// A probing link earned its canaries back.
    LinkReinstated(LinkId),
    /// A GPU crossed the strike threshold.
    GpuQuarantined(usize),
    /// A quarantined GPU is optimistically reinstated after probation
    /// (compute has no cheap canary; a still-slow GPU re-quarantines
    /// after `STRIKES` more bad observations).
    GpuReinstated(usize),
}

/// Observation-driven health inference over a machine's links and GPUs.
#[derive(Debug, Clone)]
pub struct Detector {
    policy: DetectionPolicy,
    links: Vec<Track>,
    gpus: Vec<Track>,
}

impl Detector {
    /// Creates a detector with empty baselines for `n_links` links and
    /// `n_gpus` GPUs.
    pub fn new(policy: DetectionPolicy, n_links: usize, n_gpus: usize) -> Self {
        Detector {
            policy,
            links: vec![Track::default(); n_links],
            gpus: vec![Track::default(); n_gpus],
        }
    }

    /// The policy this detector runs under.
    pub fn policy(&self) -> &DetectionPolicy {
        &self.policy
    }

    /// Inferred state of a link.
    pub fn link_state(&self, l: LinkId) -> DetectState {
        self.links
            .get(l.0)
            .map_or(DetectState::Healthy, |t| t.state)
    }

    /// Inferred state of a GPU.
    pub fn gpu_state(&self, g: usize) -> DetectState {
        self.gpus.get(g).map_or(DetectState::Healthy, |t| t.state)
    }

    /// Inferred capacity factor of a link: 1.0 while healthy, the
    /// estimated remaining fraction while quarantined or probing. Feeds
    /// the re-planner exactly like an announced degradation factor.
    pub fn link_factor(&self, l: LinkId) -> f64 {
        match self.links.get(l.0) {
            Some(t) if t.state != DetectState::Healthy => t.inferred_factor,
            _ => 1.0,
        }
    }

    /// Whether any target is currently quarantined or probing.
    pub fn any_suspected(&self) -> bool {
        self.links
            .iter()
            .chain(&self.gpus)
            .any(|t| t.state != DetectState::Healthy)
    }

    /// Epoch of a link's track (probation-timer guard).
    pub fn link_epoch(&self, l: LinkId) -> u64 {
        self.links.get(l.0).map_or(0, |t| t.epoch)
    }

    /// Epoch of a GPU's track (probation-timer guard).
    pub fn gpu_epoch(&self, g: usize) -> u64 {
        self.gpus.get(g).map_or(0, |t| t.epoch)
    }

    /// Suspicion of the most recent observation on a link, in
    /// milli-units.
    pub fn link_score_milli(&self, l: LinkId) -> u64 {
        self.links.get(l.0).map_or(0, |t| t.last_score_milli)
    }

    /// Suspicion of the most recent observation on a GPU, in
    /// milli-units.
    pub fn gpu_score_milli(&self, g: usize) -> u64 {
        self.gpus.get(g).map_or(0, |t| t.last_score_milli)
    }

    /// Feeds one transfer observation ratio (observed wire time over
    /// model-expected wire time) for a link on the transfer's path.
    pub fn observe_link(&mut self, l: LinkId, ratio: f64) -> Option<Transition> {
        let min_samples = self.policy.min_samples;
        let t = self.links.get_mut(l.0)?;
        observe(t, min_samples, ratio).then(|| {
            t.set_inferred(ratio);
            quarantine(t);
            Transition::LinkQuarantined(l)
        })
    }

    /// Feeds one execution observation ratio (observed exec-busy time
    /// over cost-model expectation) for a GPU.
    pub fn observe_gpu(&mut self, g: usize, ratio: f64) -> Option<Transition> {
        let min_samples = self.policy.min_samples;
        let t = self.gpus.get_mut(g)?;
        observe(t, min_samples, ratio).then(|| {
            t.set_inferred(ratio);
            quarantine(t);
            Transition::GpuQuarantined(g)
        })
    }

    /// Scores one canary transfer on a probing link. Clean canaries
    /// (suspicion below half the threshold) accumulate toward
    /// reinstatement; a dirty one sends the link straight back to
    /// quarantine.
    pub fn observe_canary(&mut self, l: LinkId, ratio: f64) -> Option<Transition> {
        let t = self.links.get_mut(l.0)?;
        if t.state != DetectState::Probation {
            return None;
        }
        let score = t.base.suspicion(ratio);
        t.last_score_milli = (score * 1000.0) as u64;
        if score >= SUSPECT_THRESHOLD / 2.0 {
            t.set_inferred(ratio);
            quarantine(t);
            return Some(Transition::LinkQuarantined(l));
        }
        t.clean += 1;
        if t.clean >= CANARIES {
            reinstate(t);
            return Some(Transition::LinkReinstated(l));
        }
        None
    }

    /// Probation timer fired for a link: move it from quarantine to
    /// probation (the host then sends canaries). `epoch` must match the
    /// track's epoch at the time the timer was armed.
    pub fn link_probation(&mut self, l: LinkId, epoch: u64) -> Option<Transition> {
        let t = self.links.get_mut(l.0)?;
        if t.epoch != epoch || t.state != DetectState::Quarantined {
            return None;
        }
        t.state = DetectState::Probation;
        t.clean = 0;
        t.epoch += 1;
        Some(Transition::LinkProbation(l))
    }

    /// Probation timer fired for a GPU: reinstate it optimistically.
    pub fn gpu_probation(&mut self, g: usize, epoch: u64) -> Option<Transition> {
        let t = self.gpus.get_mut(g)?;
        if t.epoch != epoch || t.state != DetectState::Quarantined {
            return None;
        }
        reinstate(t);
        Some(Transition::GpuReinstated(g))
    }
}

/// Shared healthy-path scoring: learns the baseline from non-suspicious
/// ratios and returns whether this observation completes a quarantine
/// (the caller fills in the target-specific transition).
fn observe(t: &mut Track, min_samples: u32, ratio: f64) -> bool {
    if t.state != DetectState::Healthy || !ratio.is_finite() || ratio <= 0.0 {
        return false;
    }
    let score = if t.base.n >= min_samples {
        t.base.suspicion(ratio)
    } else {
        0.0
    };
    t.last_score_milli = (score * 1000.0) as u64;
    if score < SUSPECT_THRESHOLD {
        t.strikes = 0;
        t.base.push(ratio);
        return false;
    }
    t.strikes += 1;
    t.strikes >= STRIKES
}

fn quarantine(t: &mut Track) {
    t.state = DetectState::Quarantined;
    t.strikes = 0;
    t.clean = 0;
    t.epoch += 1;
}

fn reinstate(t: &mut Track) {
    t.state = DetectState::Healthy;
    t.strikes = 0;
    t.clean = 0;
    t.inferred_factor = 1.0;
    t.epoch += 1;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn det() -> Detector {
        let policy = DetectionPolicy {
            enabled: true,
            ..DetectionPolicy::default()
        };
        Detector::new(policy, 4, 2)
    }

    /// Feeds `n` healthy ratios alternating slightly around 1.0.
    fn warmup(d: &mut Detector, l: LinkId, n: u32) {
        for i in 0..n {
            let x = if i % 2 == 0 { 0.98 } else { 1.02 };
            assert!(d.observe_link(l, x).is_none());
        }
    }

    #[test]
    fn welford_matches_two_pass() {
        let xs = [1.0, 2.0, 4.0, 8.0, 16.0];
        let mut w = Baseline::default();
        for x in xs {
            w.push(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((w.mean - mean).abs() < 1e-12);
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
        assert!((w.sample_std() - var.sqrt()).abs() < 1e-12);
        assert_eq!(w.n, 5);
    }

    #[test]
    fn immature_baseline_never_strikes() {
        let mut d = det();
        let l = LinkId(0);
        assert!(d.observe_link(l, 1.0).is_none());
        assert!(d.observe_link(l, 50.0).is_none());
        assert!(d.observe_link(l, 50.0).is_none());
        // The wild ratios landed while the baseline was immature, so
        // they were *learned*, not flagged.
        assert_eq!(d.link_state(l), DetectState::Healthy);
    }

    #[test]
    fn one_outlier_is_hysteresis_filtered() {
        let mut d = det();
        let l = LinkId(1);
        warmup(&mut d, l, 10);
        assert!(d.observe_link(l, 2.5).is_none(), "first strike only");
        assert!(d.observe_link(l, 1.0).is_none(), "strike reset");
        assert!(d.observe_link(l, 2.5).is_none(), "fresh first strike");
        assert_eq!(d.link_state(l), DetectState::Healthy);
    }

    #[test]
    fn consecutive_strikes_quarantine_and_infer_factor() {
        let mut d = det();
        let l = LinkId(0);
        warmup(&mut d, l, 10);
        assert!(d.observe_link(l, 2.5).is_none());
        let t = d.observe_link(l, 2.5);
        assert_eq!(t, Some(Transition::LinkQuarantined(l)));
        assert_eq!(d.link_state(l), DetectState::Quarantined);
        // 1.0 / 2.5 = 0.4, on the sixteenth grid ≈ 0.4375.
        let f = d.link_factor(l);
        assert!((0.3..0.5).contains(&f), "inferred factor {f}");
        assert!(d.any_suspected());
        // Further observations while quarantined are ignored.
        assert!(d.observe_link(l, 2.5).is_none());
    }

    #[test]
    fn probation_and_clean_canaries_reinstate() {
        let mut d = det();
        let l = LinkId(2);
        warmup(&mut d, l, 10);
        d.observe_link(l, 3.0);
        d.observe_link(l, 3.0);
        assert_eq!(d.link_state(l), DetectState::Quarantined);
        let epoch = d.link_epoch(l);
        assert_eq!(
            d.link_probation(l, epoch),
            Some(Transition::LinkProbation(l))
        );
        // A stale timer (old epoch) is a no-op.
        assert!(d.link_probation(l, epoch).is_none());
        assert!(d.observe_canary(l, 1.0).is_none());
        assert!(d.observe_canary(l, 1.0).is_none());
        assert_eq!(
            d.observe_canary(l, 1.0),
            Some(Transition::LinkReinstated(l))
        );
        assert_eq!(d.link_state(l), DetectState::Healthy);
        assert_eq!(d.link_factor(l), 1.0);
        assert!(!d.any_suspected());
    }

    #[test]
    fn dirty_canary_requarantines() {
        let mut d = det();
        let l = LinkId(0);
        warmup(&mut d, l, 10);
        d.observe_link(l, 3.0);
        d.observe_link(l, 3.0);
        let epoch = d.link_epoch(l);
        d.link_probation(l, epoch);
        assert!(d.observe_canary(l, 1.0).is_none());
        assert_eq!(
            d.observe_canary(l, 3.0),
            Some(Transition::LinkQuarantined(l))
        );
        assert_eq!(d.link_state(l), DetectState::Quarantined);
        // The clean count reset: next probation starts from zero.
        let epoch = d.link_epoch(l);
        d.link_probation(l, epoch);
        assert!(d.observe_canary(l, 1.0).is_none());
    }

    #[test]
    fn gpu_quarantine_reinstates_optimistically() {
        let mut d = det();
        for _ in 0..10 {
            assert!(d.observe_gpu(1, 1.0).is_none());
        }
        assert!(d.observe_gpu(1, 2.0).is_none());
        assert_eq!(d.observe_gpu(1, 2.0), Some(Transition::GpuQuarantined(1)));
        assert_eq!(d.gpu_state(1), DetectState::Quarantined);
        let epoch = d.gpu_epoch(1);
        assert_eq!(
            d.gpu_probation(1, epoch),
            Some(Transition::GpuReinstated(1))
        );
        assert_eq!(d.gpu_state(1), DetectState::Healthy);
    }

    #[test]
    fn baseline_learns_contention_as_normal() {
        // A workload whose healthy ratios swing between 1.0 and 1.8
        // (same-switch contention) must not quarantine at 1.8.
        let mut d = det();
        let l = LinkId(3);
        for i in 0..20 {
            let x = if i % 2 == 0 { 1.0 } else { 1.8 };
            assert!(d.observe_link(l, x).is_none(), "sample {i}");
        }
        assert_eq!(d.link_state(l), DetectState::Healthy);
        // But a genuine 4x slowdown over that learned spread still trips.
        assert!(d.observe_link(l, 5.6).is_none());
        assert!(d.observe_link(l, 5.6).is_some());
    }

    #[test]
    fn out_of_range_targets_are_ignored() {
        let mut d = det();
        assert!(d.observe_link(LinkId(99), 10.0).is_none());
        assert!(d.observe_gpu(99, 10.0).is_none());
        assert!(d.observe_canary(LinkId(99), 1.0).is_none());
        assert_eq!(d.link_state(LinkId(99)), DetectState::Healthy);
        assert_eq!(d.link_factor(LinkId(99)), 1.0);
    }
}
