//! Simulated-world faults: lossy refresh delivery, link outage windows,
//! and source crash/restart episodes.
//!
//! This layer is distinct from the *sweep-harness* fault injection in
//! `besync_sweep` (which abuses worker processes): here the faults are
//! part of the simulated physics. A [`FaultProfile`] attached to a run
//! drives three fault classes:
//!
//! * **refresh loss** — each refresh delivery is independently lost with
//!   probability `loss_prob`. The source still spent uplink credit and
//!   marked the object sent (it reasons from its last *sent* snapshot),
//!   so a lost message silently leaves the cache stale — exactly the
//!   failure the paper's protocol cannot see.
//! * **link outages** — the shared cache-side link enters outage windows
//!   (exponential gaps and durations): credit accrual is suspended and
//!   nothing transits. Queued refreshes are either dropped at outage
//!   start or held for post-outage service (`outage_drops_queue`).
//! * **source crashes** — a source's sync agent goes down for a while
//!   (exponential gaps/durations, independent per source). The *data*
//!   keeps updating — divergence accrues against the live truth — but no
//!   quotes, refreshes, or feedback effects happen until restart.
//!
//! Paired with a [`RecoveryPolicy`]: degrade-to-stale (serve and account
//! the divergence honestly), retransmit-on-loss with a deadline, or a
//! cold-restart bulk resync whose catch-up burst competes for bandwidth
//! with the §8 priority scheme.
//!
//! # Determinism
//!
//! Every fault decision is *counter-hashed*, not drawn from a consumed
//! RNG: decision `k` of a lane hashes `splitmix64(lane_seed ^ k)` where
//! `lane_seed` derives from the simulation seed via the dedicated
//! [`streams::FAULTS`] label. The schedule is therefore a pure function
//! of `(sim_seed, profile)` — independent of event interleaving, byte
//! identical across process shards, and trivially replayable
//! (`same seed ⇒ same fault event sequence` is property-tested).

use besync_sim::rng::{derive_seed, derive_seed2, splitmix64, streams};

/// Lane labels under [`streams::FAULTS`], so the fault classes and the
/// fault-aware estimator never share hash inputs.
const LOSS_LANE: u64 = 1;
const OUTAGE_LANE: u64 = 2;
const CRASH_LANE: u64 = 3;
const ESTIMATOR_LANE: u64 = 4;

/// How the system recovers from (or lives with) delivery failures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RecoveryPolicy {
    /// No repair: lost refreshes are not retried and a restarted source
    /// waits for each object's next natural update. The cache serves
    /// stale data and the accounting reports the divergence honestly.
    DegradeStale,
    /// A lost refresh message is offered to the cache link again, as is,
    /// once `deadline` seconds have passed. The resend pays for link
    /// bandwidth like any refresh and can itself be lost; it is purged
    /// instead if a newer snapshot has reached the cache meanwhile.
    Retransmit {
        /// Seconds between a lost delivery and the resend of its message.
        deadline: f64,
    },
    /// Cold-restart bulk resync: a restarted source immediately
    /// re-quotes every object, producing a burst of catch-up refreshes
    /// that competes for bandwidth with ordinary priority traffic.
    Resync,
}

impl RecoveryPolicy {
    /// Stable codec/CLI name of the policy kind.
    pub fn kind_name(&self) -> &'static str {
        match self {
            RecoveryPolicy::DegradeStale => "degrade-stale",
            RecoveryPolicy::Retransmit { .. } => "retransmit",
            RecoveryPolicy::Resync => "resync",
        }
    }
}

/// Fault intensities for one run. `Default` is all-zero (no faults); a
/// run configured with `None` instead of a profile skips the fault
/// machinery entirely and is bit-identical to the pre-fault tree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultProfile {
    /// Probability each refresh delivery is lost, in `[0, 1]`.
    pub loss_prob: f64,
    /// Cache-link outage windows per second (exponential gaps; 0 ⇒ none).
    pub outage_rate: f64,
    /// Mean outage window length in seconds (exponential).
    pub outage_duration: f64,
    /// Drop refreshes queued on the cache link when an outage starts
    /// (`true`) or hold them for service after it ends (`false`).
    pub outage_drops_queue: bool,
    /// Per-source crash episodes per second (exponential gaps; 0 ⇒ none).
    pub crash_rate: f64,
    /// Mean source downtime in seconds (exponential).
    pub crash_downtime: f64,
    /// The recovery policy in force.
    pub recovery: RecoveryPolicy,
    /// Fault-aware scheduling: the cache piggybacks per-source delivery
    /// acks on the §5 feedback channel, each source runs a
    /// [`DeliveryEstimator`], quoted priorities are scaled by estimated
    /// delivery probability, superseded retries are purged, and an
    /// outage resume re-prioritizes the held queue through the §8
    /// ordering instead of FIFO-draining it.
    pub aware: bool,
}

impl Default for FaultProfile {
    fn default() -> Self {
        FaultProfile {
            loss_prob: 0.0,
            outage_rate: 0.0,
            outage_duration: 0.0,
            outage_drops_queue: false,
            crash_rate: 0.0,
            crash_downtime: 0.0,
            recovery: RecoveryPolicy::DegradeStale,
            aware: false,
        }
    }
}

impl FaultProfile {
    /// Rejects nonsensical intensities (used by the scenario decoder so
    /// a garbled spec fails loudly instead of simulating nonsense).
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.loss_prob) {
            return Err(format!("loss_prob {} outside [0, 1]", self.loss_prob));
        }
        for (name, v) in [
            ("outage_rate", self.outage_rate),
            ("outage_duration", self.outage_duration),
            ("crash_rate", self.crash_rate),
            ("crash_downtime", self.crash_downtime),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(format!("{name} {v} must be finite and >= 0"));
            }
        }
        if self.outage_rate > 0.0 && self.outage_duration <= 0.0 {
            return Err("outage_rate > 0 requires outage_duration > 0".into());
        }
        if self.crash_rate > 0.0 && self.crash_downtime <= 0.0 {
            return Err("crash_rate > 0 requires crash_downtime > 0".into());
        }
        if let RecoveryPolicy::Retransmit { deadline } = self.recovery {
            if !deadline.is_finite() || deadline <= 0.0 {
                return Err(format!("retransmit deadline {deadline} must be > 0"));
            }
        }
        Ok(())
    }

    /// The loss lane of a system `kind` that models refresh loss and
    /// nothing else (the omniscient ideal, the CGM pollers): `None` when
    /// the profile loses nothing.
    ///
    /// # Errors
    ///
    /// The profile is invalid, or it sets a field `kind` would have to
    /// ignore — an outage or crash rate, a recovery policy other than
    /// degrade-to-stale, `aware`. The message names the kind and the
    /// field.
    pub fn loss_only_lane(&self, sim_seed: u64, kind: &str) -> Result<Option<LossLane>, String> {
        self.validate()?;
        let unsupported = [
            ("outage_rate", self.outage_rate > 0.0),
            ("crash_rate", self.crash_rate > 0.0),
            ("recovery", self.recovery != RecoveryPolicy::DegradeStale),
            ("aware", self.aware),
        ];
        if let Some((field, _)) = unsupported.iter().find(|(_, set)| *set) {
            return Err(format!(
                "the {kind} system models refresh loss only and would ignore `{field}`"
            ));
        }
        Ok((self.loss_prob > 0.0).then(|| LossLane::new(sim_seed, 0, self.loss_prob)))
    }
}

/// Hash bits → uniform in `[0, 1)` (the standard 53-bit mantissa fill).
#[inline]
fn u01(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / 9_007_199_254_740_992.0)
}

/// The per-delivery loss lane: decision `k` is a pure function of
/// `(sim_seed, k)`, so the loss pattern is independent of *when* the
/// deliveries happen.
#[derive(Debug, Clone)]
pub struct LossLane {
    seed: u64,
    prob: f64,
    count: u64,
}

impl LossLane {
    /// Builds the lane for a run. `salt` separates independent loss
    /// lanes within one run (e.g. distinct links or systems).
    pub fn new(sim_seed: u64, salt: u64, prob: f64) -> Self {
        LossLane {
            seed: derive_seed2(sim_seed, streams::FAULTS, LOSS_LANE ^ splitmix64(salt)),
            prob,
            count: 0,
        }
    }

    /// Whether the next delivery is lost.
    #[inline]
    pub fn draw(&mut self) -> bool {
        let u = u01(splitmix64(self.seed ^ self.count));
        self.count += 1;
        u < self.prob
    }
}

/// A source-side delivery-probability estimator fed by the cache's
/// cumulative per-source delivery acks (piggybacked on §5 feedback).
///
/// Each ack carries the cache's cumulative delivered count; the source
/// compares the delta against its own cumulative send count over the
/// same window and folds the delivered ratio into an EWMA. Estimates
/// are pure functions of the two counter sequences — no wall-clock, no
/// consumed RNG — so they are interleaving-independent like every other
/// fault lane. A small counter-hashed optimism probe (lane
/// `ESTIMATOR_LANE`, per-source seed) occasionally blends the estimate
/// back toward 1.0 so a source that was unlucky early cannot lock its
/// objects out of the schedule forever.
#[derive(Debug, Clone)]
pub struct DeliveryEstimator {
    seed: u64,
    samples: u64,
    acked_last: u64,
    sent_last: u64,
    estimate: f64,
}

impl DeliveryEstimator {
    /// Lower clamp on the estimate: a priority scaled by the floor is
    /// still nonzero, so accumulated divergence eventually wins the
    /// uplink back even on a terrible link.
    pub const FLOOR: f64 = 0.05;
    /// EWMA gain per ack window.
    const GAMMA: f64 = 0.3;
    /// Optimism probe: probability per sample of blending toward 1.0.
    const PROBE_PROB: f64 = 1.0 / 32.0;
    /// Blend fraction applied when the probe fires.
    const PROBE_BLEND: f64 = 0.25;

    /// Builds source `source`'s estimator for a run. Starts optimistic
    /// (estimate 1.0), which keeps the pre-first-ack schedule identical
    /// to the unaware one.
    pub fn new(sim_seed: u64, source: u32) -> Self {
        let lane = derive_seed2(sim_seed, streams::FAULTS, ESTIMATOR_LANE);
        DeliveryEstimator {
            seed: derive_seed(lane, source as u64),
            samples: 0,
            acked_last: 0,
            sent_last: 0,
            estimate: 1.0,
        }
    }

    /// Folds one ack into the estimate. `cum_acked` is the cache's
    /// cumulative delivered count for this source; `cum_sent` is the
    /// source's own cumulative send count. Windows with no sends carry
    /// no signal and leave the estimate untouched.
    pub fn on_ack(&mut self, cum_acked: u64, cum_sent: u64) {
        let acked = cum_acked.saturating_sub(self.acked_last);
        let sent = cum_sent.saturating_sub(self.sent_last);
        self.acked_last = cum_acked;
        self.sent_last = cum_sent;
        if sent == 0 {
            return;
        }
        // In-flight messages can make a window's ratio dip below the
        // true delivery rate (sent counted, ack not yet observed) or a
        // later window exceed 1; the clamp and the EWMA absorb both.
        let ratio = (acked as f64 / sent as f64).clamp(0.0, 1.0);
        self.estimate = (1.0 - Self::GAMMA) * self.estimate + Self::GAMMA * ratio;
        if u01(splitmix64(self.seed ^ self.samples)) < Self::PROBE_PROB {
            self.estimate += Self::PROBE_BLEND * (1.0 - self.estimate);
        }
        self.samples += 1;
        self.estimate = self.estimate.clamp(Self::FLOOR, 1.0);
    }

    /// Current delivery-probability estimate, in `[FLOOR, 1]`.
    #[inline]
    pub fn value(&self) -> f64 {
        self.estimate
    }
}

/// One scheduled fault window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Episode {
    /// Window start (seconds).
    pub start: f64,
    /// Window end (seconds).
    pub end: f64,
}

/// A lazily generated sequence of non-overlapping fault windows with
/// exponential gaps and durations. Episode `k` hashes counters `2k` and
/// `2k + 1`, so the whole schedule is a pure function of the seed.
#[derive(Debug, Clone)]
pub struct EpisodeSchedule {
    seed: u64,
    rate: f64,
    mean_duration: f64,
    k: u64,
    clock: f64,
}

impl EpisodeSchedule {
    /// The cache-link outage schedule of a run.
    pub fn outages(sim_seed: u64, profile: &FaultProfile) -> Self {
        EpisodeSchedule {
            seed: derive_seed2(sim_seed, streams::FAULTS, OUTAGE_LANE),
            rate: profile.outage_rate,
            mean_duration: profile.outage_duration,
            k: 0,
            clock: 0.0,
        }
    }

    /// The crash/restart schedule of source `source` (independent per
    /// source: each gets its own lane seed).
    pub fn crashes(sim_seed: u64, source: u32, profile: &FaultProfile) -> Self {
        let lane = derive_seed2(sim_seed, streams::FAULTS, CRASH_LANE);
        EpisodeSchedule {
            seed: derive_seed(lane, source as u64),
            rate: profile.crash_rate,
            mean_duration: profile.crash_downtime,
            k: 0,
            clock: 0.0,
        }
    }

    #[inline]
    fn exp_draw(&self, counter: u64, mean: f64) -> f64 {
        let u = u01(splitmix64(self.seed ^ counter));
        -(1.0 - u).ln() * mean
    }

    /// The next window, or `None` if the schedule is empty (zero rate).
    pub fn next_episode(&mut self) -> Option<Episode> {
        if self.rate <= 0.0 || self.mean_duration <= 0.0 {
            return None;
        }
        let gap = self.exp_draw(2 * self.k, 1.0 / self.rate);
        let duration = self.exp_draw(2 * self.k + 1, self.mean_duration);
        self.k += 1;
        let start = self.clock + gap;
        let end = start + duration;
        self.clock = end;
        Some(Episode { start, end })
    }
}

/// One fault lane — the cache link's outages or one source's crashes —
/// as an edge machine over its [`EpisodeSchedule`]: an episode's start,
/// its end, the next episode's start, and so on.
#[derive(Debug, Clone)]
pub(crate) struct EpisodeLane {
    sched: EpisodeSchedule,
    /// The episode whose next edge is pending; its start has fired iff
    /// `active`.
    episode: Option<Episode>,
    active: bool,
    /// Divergence-integral probe of the lane's objects at episode start.
    epoch_start: f64,
}

impl EpisodeLane {
    /// Arms the lane with its schedule's first episode.
    pub(crate) fn new(mut sched: EpisodeSchedule) -> Self {
        let episode = sched.next_episode();
        EpisodeLane {
            sched,
            episode,
            active: false,
            epoch_start: 0.0,
        }
    }

    /// When the first edge fires: `None` if the schedule is empty.
    pub(crate) fn first_start(&self) -> Option<f64> {
        self.episode.map(|e| e.start)
    }

    /// Whether an episode is in progress.
    #[inline]
    pub(crate) fn active(&self) -> bool {
        self.active
    }

    /// Fires the pending edge; `probe` is the divergence integral of the
    /// lane's objects now. A start adds one to `count` and the episode's
    /// seconds before `horizon` to `seconds`; an end adds the divergence
    /// accrued since the start to `epoch_divergence`. Returns when the
    /// lane's next edge fires.
    pub(crate) fn fire(
        &mut self,
        probe: f64,
        horizon: f64,
        count: &mut u64,
        seconds: &mut f64,
        epoch_divergence: &mut f64,
    ) -> Option<f64> {
        self.active = !self.active;
        if self.active {
            let e = self
                .episode
                .expect("an episode start fired on an empty lane");
            *count += 1;
            *seconds += e.end.min(horizon) - e.start;
            self.epoch_start = probe;
            return Some(e.end);
        }
        *epoch_divergence += probe - self.epoch_start;
        self.episode = self.sched.next_episode();
        self.episode.map(|e| e.start)
    }
}

/// Fault-layer activity of one run, all zero on the fault-free path.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultSummary {
    /// Refresh deliveries lost in transit.
    pub lost_refreshes: u64,
    /// Lost refresh messages the retransmit policy offered to the cache
    /// link again.
    pub retransmits: u64,
    /// Cache-link outage windows that started within the horizon.
    pub outages: u64,
    /// Total seconds the cache link spent in outage.
    pub outage_seconds: f64,
    /// Queued refreshes dropped at outage start (drop-queue policy).
    pub dropped_in_outage: u64,
    /// Source crash episodes that started within the horizon.
    pub crashes: u64,
    /// Total source-seconds of downtime.
    pub down_seconds: f64,
    /// Source updates that occurred while their source was down (the
    /// update happened; the sync agent could not quote it).
    pub missed_updates: u64,
    /// Catch-up quotes issued by the resync policy at restarts.
    pub resync_quotes: u64,
    /// Divergence integral accrued during outage/downtime epochs
    /// (weighted like the run's objective).
    pub epoch_divergence: f64,
    /// Deliveries dropped by the recency guard: a retransmitted (or
    /// otherwise delayed) refresh arrived after a newer refresh for the
    /// same object and would have overwritten fresher cached data.
    pub stale_drops: u64,
    /// Queued retries purged before transmission because a newer
    /// snapshot already reached the cache (always) or the source has
    /// since updated the object (fault-aware runs), so sending them
    /// would burn link credit for zero divergence reduction.
    pub superseded_retries: u64,
}

impl FaultSummary {
    /// Whether any fault activity was recorded.
    pub fn any(&self) -> bool {
        *self != FaultSummary::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lossy(p: f64) -> FaultProfile {
        FaultProfile {
            loss_prob: p,
            ..FaultProfile::default()
        }
    }

    #[test]
    fn default_profile_is_fault_free_and_valid() {
        let p = FaultProfile::default();
        assert!(p.validate().is_ok());
        assert!(!FaultSummary::default().any());
    }

    #[test]
    fn validation_rejects_nonsense() {
        assert!(lossy(1.5).validate().is_err());
        assert!(lossy(-0.1).validate().is_err());
        assert!(FaultProfile {
            outage_rate: 0.1,
            outage_duration: 0.0,
            ..FaultProfile::default()
        }
        .validate()
        .is_err());
        assert!(FaultProfile {
            crash_rate: f64::NAN,
            ..FaultProfile::default()
        }
        .validate()
        .is_err());
        assert!(FaultProfile {
            recovery: RecoveryPolicy::Retransmit { deadline: 0.0 },
            ..FaultProfile::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn loss_only_lane_names_the_kind_and_the_ignored_field() {
        let lane = |p: FaultProfile| p.loss_only_lane(7, "cgm2");
        assert!(lane(FaultProfile::default()).unwrap().is_none());
        let mut got = lane(lossy(0.25)).unwrap().unwrap();
        let mut want = LossLane::new(7, 0, 0.25);
        assert!((0..1000).all(|_| got.draw() == want.draw()));
        assert!(lane(lossy(1.5)).unwrap_err().contains("loss_prob"));
        type Set = fn(&mut FaultProfile);
        let ignored: [(&str, Set); 4] = [
            ("outage_rate", |p| p.outage_rate = 0.1),
            ("crash_rate", |p| p.crash_rate = 0.1),
            ("recovery", |p| {
                p.recovery = RecoveryPolicy::Retransmit { deadline: 3.0 }
            }),
            ("aware", |p| p.aware = true),
        ];
        for (field, set) in ignored {
            let mut profile = FaultProfile {
                outage_duration: 5.0,
                crash_downtime: 5.0,
                ..lossy(0.1)
            };
            set(&mut profile);
            let err = lane(profile).unwrap_err();
            assert!(err.contains("cgm2") && err.contains(field), "{err}");
        }
    }

    #[test]
    fn loss_lane_matches_probability_and_replays() {
        let mut lane = LossLane::new(42, 0, 0.25);
        let hits = (0..100_000).filter(|_| lane.draw()).count();
        let frac = hits as f64 / 100_000.0;
        assert!((frac - 0.25).abs() < 0.01, "loss fraction {frac}");

        // Byte-identical replay from the same seed.
        let mut a = LossLane::new(42, 0, 0.25);
        let mut b = LossLane::new(42, 0, 0.25);
        for _ in 0..1000 {
            assert_eq!(a.draw(), b.draw());
        }
        // Different salt ⇒ a different pattern.
        let mut c = LossLane::new(42, 1, 0.25);
        let differs = (0..1000).any(|_| a.draw() != c.draw());
        assert!(differs);
    }

    #[test]
    fn zero_and_one_probability_are_exact() {
        let mut never = LossLane::new(7, 0, 0.0);
        assert!((0..1000).all(|_| !never.draw()));
        let mut always = LossLane::new(7, 0, 1.0);
        assert!((0..1000).all(|_| always.draw()));
    }

    #[test]
    fn episode_schedules_replay_bit_identically() {
        let profile = FaultProfile {
            outage_rate: 0.05,
            outage_duration: 4.0,
            crash_rate: 0.01,
            crash_downtime: 20.0,
            ..FaultProfile::default()
        };
        let mut a = EpisodeSchedule::outages(99, &profile);
        let mut b = EpisodeSchedule::outages(99, &profile);
        for _ in 0..100 {
            let (x, y) = (a.next_episode().unwrap(), b.next_episode().unwrap());
            assert_eq!(x.start.to_bits(), y.start.to_bits());
            assert_eq!(x.end.to_bits(), y.end.to_bits());
        }
        // Per-source crash lanes are independent.
        let mut s0 = EpisodeSchedule::crashes(99, 0, &profile);
        let mut s1 = EpisodeSchedule::crashes(99, 1, &profile);
        assert_ne!(
            s0.next_episode().unwrap().start.to_bits(),
            s1.next_episode().unwrap().start.to_bits()
        );
    }

    #[test]
    fn episodes_are_ordered_and_disjoint() {
        let profile = FaultProfile {
            outage_rate: 0.2,
            outage_duration: 2.0,
            ..FaultProfile::default()
        };
        let mut sched = EpisodeSchedule::outages(3, &profile);
        let mut last_end = 0.0;
        let mut mean_gap = 0.0;
        let mut mean_dur = 0.0;
        let n = 10_000;
        for _ in 0..n {
            let e = sched.next_episode().unwrap();
            assert!(e.start >= last_end, "episodes overlap");
            assert!(e.end >= e.start);
            mean_gap += e.start - last_end;
            mean_dur += e.end - e.start;
            last_end = e.end;
        }
        mean_gap /= n as f64;
        mean_dur /= n as f64;
        assert!((mean_gap - 5.0).abs() < 0.2, "mean gap {mean_gap}");
        assert!((mean_dur - 2.0).abs() < 0.1, "mean duration {mean_dur}");
    }

    #[test]
    fn zero_rate_schedule_is_empty() {
        let profile = FaultProfile::default();
        assert!(EpisodeSchedule::outages(1, &profile)
            .next_episode()
            .is_none());
        assert!(EpisodeSchedule::crashes(1, 0, &profile)
            .next_episode()
            .is_none());
    }

    #[test]
    fn episode_lane_alternates_and_clips_at_the_horizon() {
        let profile = FaultProfile {
            outage_rate: 0.2,
            outage_duration: 2.0,
            ..FaultProfile::default()
        };
        let mut sched = EpisodeSchedule::outages(3, &profile);
        let (first, second) = (sched.next_episode().unwrap(), sched.next_episode().unwrap());
        let mut lane = EpisodeLane::new(EpisodeSchedule::outages(3, &profile));
        assert_eq!(lane.first_start(), Some(first.start));
        let (mut count, mut seconds, mut divergence) = (0, 0.0, 0.0);
        let mut fire = |lane: &mut EpisodeLane, probe, horizon| {
            let next = lane.fire(probe, horizon, &mut count, &mut seconds, &mut divergence);
            (next, lane.active(), count, seconds, divergence)
        };
        // The horizon falls inside the first episode: only the seconds
        // before it are charged, but the end still fires at the true end.
        let horizon = (first.start + first.end) / 2.0;
        let clipped = horizon - first.start;
        assert_eq!(
            fire(&mut lane, 1.5, horizon),
            (Some(first.end), true, 1, clipped, 0.0)
        );
        assert_eq!(
            fire(&mut lane, 4.0, horizon),
            (Some(second.start), false, 1, clipped, 2.5)
        );
        // Well inside the horizon an episode is charged in full.
        let full = second.end - second.start;
        assert_eq!(
            fire(&mut lane, 4.0, 1e9),
            (Some(second.end), true, 2, clipped + full, 2.5)
        );
        // A zero-rate schedule never arms, for the link or a source.
        let none = FaultProfile::default();
        for sched in [
            EpisodeSchedule::outages(3, &none),
            EpisodeSchedule::crashes(3, 0, &none),
        ] {
            let idle = EpisodeLane::new(sched);
            assert_eq!((idle.first_start(), idle.active()), (None, false));
        }
    }

    #[test]
    fn estimator_replays_bit_identically_and_tracks_loss() {
        let mut a = DeliveryEstimator::new(42, 3);
        let mut b = DeliveryEstimator::new(42, 3);
        let mut sent = 0u64;
        let mut acked = 0u64;
        for k in 0..500u64 {
            sent += 1 + k % 3;
            // Roughly 70% of the window's sends arrive.
            acked += ((1 + k % 3) * 7) / 10;
            a.on_ack(acked, sent);
            b.on_ack(acked, sent);
            assert_eq!(a.value().to_bits(), b.value().to_bits());
        }
        // Long-run estimate sits near the delivered fraction.
        let frac = acked as f64 / sent as f64;
        assert!(
            (a.value() - frac).abs() < 0.25,
            "estimate {} vs delivered fraction {frac}",
            a.value()
        );
        // Per-source lanes differ.
        let mut c = DeliveryEstimator::new(42, 4);
        c.on_ack(acked, sent);
        assert!(c.value().to_bits() != a.value().to_bits());
    }

    #[test]
    fn estimator_stays_optimistic_without_signal_and_clamps() {
        let mut e = DeliveryEstimator::new(7, 0);
        assert_eq!(e.value(), 1.0);
        // Ack windows with zero sends carry no signal.
        e.on_ack(0, 0);
        e.on_ack(0, 0);
        assert_eq!(e.value(), 1.0);
        // A dead link converges to the floor, never below.
        let mut sent = 0;
        for _ in 0..200 {
            sent += 5;
            e.on_ack(0, sent);
        }
        assert!(e.value() >= DeliveryEstimator::FLOOR);
        assert!(e.value() <= 0.4, "dead link estimate {}", e.value());
        // A perfect link recovers toward 1.
        for _ in 0..200 {
            sent += 5;
            e.on_ack(sent, sent);
        }
        assert!(e.value() > 0.95, "recovered estimate {}", e.value());
    }

    #[test]
    fn recovery_kind_names_are_stable() {
        assert_eq!(RecoveryPolicy::DegradeStale.kind_name(), "degrade-stale");
        assert_eq!(
            RecoveryPolicy::Retransmit { deadline: 5.0 }.kind_name(),
            "retransmit"
        );
        assert_eq!(RecoveryPolicy::Resync.kind_name(), "resync");
    }
}
