//! Source-side runtime (paper §5, §8).
//!
//! Each participating source keeps, per object: its current value and
//! update count, the snapshot carried by its most recent refresh message
//! (its optimistic view of the cache), and the incremental area tracker
//! behind the priority function. Modified objects live in an indexed
//! priority heap (at most one in-place-revised quote per object) so the
//! highest-priority one is found in O(log n) "whenever spare bandwidth
//! becomes available" (§8); the adaptive local threshold governs which of
//! them may actually be sent.

pub mod sampling;

use besync_data::account::compressed_update_count;
use besync_data::{Metric, ObjectId, SourceId, WeightProfile, WeightSet};
use besync_net::Link;
use besync_sim::SimTime;

use crate::fault::DeliveryEstimator;
use crate::heap::IndexedMaxHeap;
use crate::priority::{
    compute_priority, AreaTracker, BoundTracker, PolicyKind, PriorityInputs, RateEstimator,
};
use crate::threshold::{ThresholdParams, ThresholdState};

/// Per-object synchronization state from the source's viewpoint.
///
/// Layout note: 56 bytes per object, packed `repr(C)` so the fields an
/// update touches sit together. [`SourceRuntime`] stores one per object
/// in a flat `Vec`. The hot path (`record_update` → quote → heap) is
/// *random* access by object index, so packing the update-touched fields
/// contiguously measurably beats a struct-of-arrays split, which spreads
/// every update over five lines. (The per-tick `requote_all` sweep still
/// walks this array sequentially.) The update counters are `u32` — no
/// bounded run applies 2³² updates to one object, and one that did would
/// panic rather than wrap — which is what brought the record down from
/// the old one-full-cache-line 64 bytes; at 10⁶ objects per source shard
/// that is 8 MB of hot state saved. Counter
/// arithmetic is widened to `u64` before the metric or estimator sees
/// it, so priorities are bit-identical to the wide layout.
#[derive(Debug, Clone, Copy)]
#[repr(C)]
pub struct ObjectState {
    /// Current value at the source.
    pub value: f64,
    /// Value carried by the most recent refresh message.
    pub snap_value: f64,
    /// Incremental area-above-divergence-curve tracker.
    pub area: AreaTracker,
    /// Total updates applied at the source.
    pub updates: u32,
    /// Update count at the time of the most recent refresh message.
    pub snap_updates: u32,
}

// The compressed-layout contract the hot path relies on.
const _: () = assert!(std::mem::size_of::<ObjectState>() == 56);

impl ObjectState {
    fn new(t0: SimTime, value: f64) -> Self {
        ObjectState {
            value,
            snap_value: value,
            area: AreaTracker::new(t0),
            updates: 0,
            snap_updates: 0,
        }
    }

    /// Updates not yet reflected in the source's last refresh message.
    #[inline]
    pub fn updates_since_refresh(&self) -> u64 {
        (self.updates - self.snap_updates) as u64
    }
}

/// The snapshot a refresh message carries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Snapshot {
    /// The value being shipped to the cache.
    pub value: f64,
    /// The source's update counter at snapshot time.
    pub updates: u64,
}

/// One cooperating source: object states, priority heap, uplink, and the
/// adaptive refresh threshold.
#[derive(Debug, Clone)]
pub struct SourceRuntime {
    /// This source's identity.
    pub id: SourceId,
    /// First global object id owned by this source.
    base: u32,
    /// Source-side uplink (token bucket; the "queue" of a bandwidth-starved
    /// source is its over-threshold heap, not a message queue — §5 fn. 3).
    pub uplink: Link<()>,
    /// The §5 adaptive threshold.
    pub threshold: ThresholdState,
    /// Priority heap over local object indices (indexed: one entry per
    /// modified object, revised in place — see [`IndexedMaxHeap`]).
    pub heap: IndexedMaxHeap,
    /// Whether the last send attempt was blocked by source-side bandwidth
    /// while over-threshold work remained (feeds footnote 3's rule).
    pub saturated: bool,
    /// Refresh messages sent.
    pub sends: u64,
    /// Per-object hot state, one cache line each (see [`ObjectState`]).
    states: Vec<ObjectState>,
    bounds: Option<Vec<BoundTracker>>,
    /// Per-object weights behind the dense constant fast path (see
    /// [`WeightSet`]): quoting a priority no longer drags the full
    /// profile through the cache when the weight is constant.
    weights: WeightSet,
    rates: Vec<f64>,
    /// Reusable buffer for requote sweeps (zero steady-state allocation).
    quote_scratch: Vec<(u32, f64)>,
    metric: Metric,
    policy: PolicyKind,
    estimator: RateEstimator,
    start: SimTime,
    /// Fault-aware delivery-probability estimator, fed by the cache's
    /// piggybacked acks. `None` (the default) leaves the priority path
    /// bit-identical to the unaware system.
    delivery: Option<DeliveryEstimator>,
}

impl SourceRuntime {
    /// Creates a source owning objects `base..base+initial_values.len()`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: SourceId,
        base: u32,
        initial_values: &[f64],
        weights: Vec<WeightProfile>,
        rates: Vec<f64>,
        uplink: Link<()>,
        threshold_params: ThresholdParams,
        metric: Metric,
        policy: PolicyKind,
        estimator: RateEstimator,
        bound_rates: Option<Vec<f64>>,
        t0: SimTime,
    ) -> Self {
        let n = initial_values.len();
        assert_eq!(weights.len(), n);
        assert_eq!(rates.len(), n);
        let bounds = bound_rates.map(|rs| {
            assert_eq!(rs.len(), n, "one bound rate per object");
            rs.into_iter()
                .map(|r| BoundTracker::new(t0, r, 0.0))
                .collect()
        });
        assert!(
            !matches!(policy, PolicyKind::Bound) || bounds.is_some(),
            "Bound policy requires bound rates"
        );
        SourceRuntime {
            id,
            base,
            uplink,
            threshold: ThresholdState::new(threshold_params, t0),
            heap: IndexedMaxHeap::new(n),
            saturated: false,
            sends: 0,
            states: initial_values
                .iter()
                .map(|&v| ObjectState::new(t0, v))
                .collect(),
            bounds,
            weights: WeightSet::new(weights),
            rates,
            quote_scratch: Vec::new(),
            metric,
            policy,
            estimator,
            start: t0,
            delivery: None,
        }
    }

    /// Turns on the fault-aware delivery estimator (expected-value
    /// priority pricing). Called by the system when the fault profile
    /// has `aware` set; the estimator starts at 1.0 so quotes are
    /// unchanged until the first ack carries real signal.
    pub fn enable_delivery_estimator(&mut self, sim_seed: u64) {
        self.delivery = Some(DeliveryEstimator::new(sim_seed, self.id.0));
    }

    /// Current delivery-probability estimate (1.0 when the estimator is
    /// disabled). Exposed for tests and diagnostics.
    pub fn delivery_estimate(&self) -> f64 {
        self.delivery.as_ref().map_or(1.0, |e| e.value())
    }

    /// Folds a piggybacked cache ack (the cache's cumulative delivered
    /// count for this source) into the delivery estimator. No-op when
    /// the estimator is disabled.
    pub fn on_delivery_ack(&mut self, cum_acked: u64) {
        let sent = self.sends;
        if let Some(est) = &mut self.delivery {
            est.on_ack(cum_acked, sent);
        }
    }

    /// Number of objects owned.
    pub fn objects(&self) -> usize {
        self.states.len()
    }

    /// Local index of a global object id.
    #[inline]
    pub fn local(&self, obj: ObjectId) -> u32 {
        debug_assert!(obj.0 >= self.base && obj.0 < self.base + self.states.len() as u32);
        obj.0 - self.base
    }

    /// Global object id of a local index.
    #[inline]
    pub fn global(&self, local: u32) -> ObjectId {
        ObjectId(self.base + local)
    }

    /// One object's state.
    pub fn state(&self, local: u32) -> ObjectState {
        self.states[local as usize]
    }

    /// Updates not yet reflected in the source's last refresh message.
    #[inline]
    pub fn updates_since_refresh(&self, local: u32) -> u64 {
        self.states[local as usize].updates_since_refresh()
    }

    /// Current priority of one object (recomputed from scratch; the heap
    /// holds cached quotes of this quantity).
    pub fn priority_of(&self, now: SimTime, local: u32) -> f64 {
        let idx = local as usize;
        let st = &self.states[idx];
        let divergence = self.metric.divergence(
            st.value,
            st.updates as u64,
            st.snap_value,
            st.snap_updates as u64,
        );
        self.priority_with_divergence(now, idx, divergence)
    }

    /// Priority from an already-computed divergence (the hot path computes
    /// divergence once and shares it between the area tracker and the
    /// quote).
    #[inline]
    fn priority_with_divergence(&self, now: SimTime, idx: usize, divergence: f64) -> f64 {
        self.priority_inner(now, idx, divergence, self.weights.weight_at(idx, now))
    }

    /// Priority from precomputed divergence *and* weight (the system's
    /// truth accounting evaluates the same weight profile at the same
    /// instant; threading it through avoids a second profile lookup per
    /// update).
    ///
    /// Inputs are computed *lazily per policy*: the Area policy — the
    /// paper's default, and the hot one — needs neither a rate estimate
    /// nor the bound table, so this skips them. Each arm mirrors
    /// [`compute_priority`] exactly; a debug assertion checks the two
    /// stay in lock-step.
    #[inline]
    fn priority_inner(&self, now: SimTime, idx: usize, divergence: f64, weight: f64) -> f64 {
        debug_assert_eq!(weight.to_bits(), self.weights.weight_at(idx, now).to_bits());
        let st = &self.states[idx];
        let p = match self.policy {
            PolicyKind::Area => st.area.raw_priority(now) * weight,
            PolicyKind::PoissonClosedForm if matches!(self.metric, Metric::Deviation(_)) => {
                st.area.raw_priority(now) * weight
            }
            PolicyKind::PoissonClosedForm => {
                let updates_since_refresh = st.updates_since_refresh();
                if updates_since_refresh == 0 {
                    0.0
                } else {
                    let lambda_hat = self.estimator.estimate(
                        self.rates[idx],
                        st.updates as u64,
                        now - self.start,
                        updates_since_refresh,
                        now - st.area.last_refresh(),
                    );
                    if divergence <= 1.0 {
                        crate::priority::poisson::staleness_priority(divergence, lambda_hat, weight)
                    } else {
                        crate::priority::poisson::lag_priority(divergence, lambda_hat, weight)
                    }
                }
            }
            PolicyKind::SimpleWeighted => {
                crate::priority::simple::simple_priority(divergence, weight)
            }
            PolicyKind::Bound => crate::priority::bounds::bound_priority(
                self.bounds.as_ref().map_or(0.0, |b| b[idx].max_rate),
                now - st.area.last_refresh(),
                weight,
            ),
        };
        debug_assert_eq!(
            p.to_bits(),
            {
                let inputs = PriorityInputs {
                    now,
                    divergence,
                    updates_since_refresh: st.updates_since_refresh(),
                    lambda_hat: self.estimator.estimate(
                        self.rates[idx],
                        st.updates as u64,
                        now - self.start,
                        st.updates_since_refresh(),
                        now - st.area.last_refresh(),
                    ),
                    weight: self.weights.weight_at(idx, now),
                    max_rate: self.bounds.as_ref().map_or(0.0, |b| b[idx].max_rate),
                };
                compute_priority(
                    self.policy,
                    matches!(self.metric, Metric::Deviation(_)),
                    &st.area,
                    &inputs,
                )
                .to_bits()
            },
            "lazy priority diverged from compute_priority"
        );
        // Fault-aware expected-value pricing: a quote competes for link
        // bandwidth with the divergence it is *expected* to remove, so
        // it is scaled by the estimated delivery probability. Applied
        // after the lock-step assertion — `compute_priority` remains the
        // oracle for the reliable-link priority.
        match &self.delivery {
            Some(est) => p * est.value(),
            None => p,
        }
    }

    /// Records a local update: the object's value becomes `new_value` at
    /// `now`; its priority is recomputed and quoted to the heap. Returns
    /// the new priority.
    pub fn record_update(&mut self, now: SimTime, local: u32, new_value: f64) -> f64 {
        let weight = self.weights.weight_at(local as usize, now);
        self.record_update_weighted(now, local, new_value, weight)
    }

    /// Like [`SourceRuntime::record_update`], with the object's weight
    /// `W(O, now)` already in hand (callers that just paid for it in the
    /// truth accounting pass it through).
    pub fn record_update_weighted(
        &mut self,
        now: SimTime,
        local: u32,
        new_value: f64,
        weight: f64,
    ) -> f64 {
        let idx = local as usize;
        let st = &mut self.states[idx];
        st.value = new_value;
        st.updates =
            compressed_update_count(u64::from(st.updates) + 1, ObjectId(self.base + local));
        let d = self.metric.divergence(
            st.value,
            st.updates as u64,
            st.snap_value,
            st.snap_updates as u64,
        );
        st.area.on_update(now, d);
        let p = self.priority_inner(now, idx, d, weight);
        // The indexed heap revises this object's quote in place.
        self.heap.push(local, p);
        p
    }

    /// Records a local update *without* quoting it to the heap: the
    /// object's value, counters, and area tracker advance, but the sync
    /// agent takes no scheduling action. Used while the source is down
    /// (crash fault): the data keeps changing, the agent cannot react.
    /// The accumulated area is picked up by the next quote after
    /// restart (a resync `requote_all` or the next natural update).
    pub fn record_update_unquoted(&mut self, now: SimTime, local: u32, new_value: f64) {
        let idx = local as usize;
        let st = &mut self.states[idx];
        st.value = new_value;
        st.updates =
            compressed_update_count(u64::from(st.updates) + 1, ObjectId(self.base + local));
        let d = self.metric.divergence(
            st.value,
            st.updates as u64,
            st.snap_value,
            st.snap_updates as u64,
        );
        st.area.on_update(now, d);
    }

    /// Withdraws every pending quote (a crashed sync agent loses its
    /// in-memory priority heap).
    pub fn clear_quotes(&mut self) {
        self.heap.rebuild(std::iter::empty::<(u32, f64)>());
    }

    /// Re-quotes every modified object's priority (used per tick by the
    /// time-dependent Bound policy).
    pub fn requote_all(&mut self, now: SimTime) {
        // Only objects with something to ship need a quote. The sweep is
        // sequential over the state array; the scratch buffer makes it
        // allocation-free in steady state.
        let mut quotes = std::mem::take(&mut self.quote_scratch);
        quotes.clear();
        for l in 0..self.states.len() as u32 {
            if self.states[l as usize].updates_since_refresh() > 0 {
                quotes.push((l, self.priority_of(now, l)));
            }
        }
        self.heap.rebuild(quotes.drain(..));
        self.quote_scratch = quotes;
    }

    /// Marks one object as sent at `now`: the snapshot becomes the current
    /// value, the area restarts, the heap quote is withdrawn, and the
    /// threshold takes its multiplicative increase. Returns the snapshot
    /// to put in the refresh message.
    pub fn mark_sent(&mut self, now: SimTime, local: u32) -> Snapshot {
        let snap = self.mark_sent_unthrottled(now, local);
        self.threshold.on_refresh(now);
        snap
    }

    /// Like [`SourceRuntime::mark_sent`] but without the threshold
    /// increase. Used for refreshes that do not draw on the
    /// threshold-governed bandwidth pool — the §7 competitive sends from a
    /// source's own allocation or piggyback entitlement.
    pub fn mark_sent_unthrottled(&mut self, now: SimTime, local: u32) -> Snapshot {
        let idx = local as usize;
        let st = &mut self.states[idx];
        st.snap_value = st.value;
        st.snap_updates = st.updates;
        st.area.on_refresh(now);
        if let Some(bounds) = &mut self.bounds {
            bounds[idx].on_refresh(now);
        }
        self.heap.invalidate(local);
        self.sends += 1;
        Snapshot {
            value: self.states[idx].snap_value,
            updates: self.states[idx].snap_updates as u64,
        }
    }

    /// The raw (weight-free) area priority of one object — the §7
    /// competitive machinery derives differently-weighted priorities from
    /// this single tracker.
    pub fn raw_area_priority(&self, now: SimTime, local: u32) -> f64 {
        self.states[local as usize].area.raw_priority(now)
    }

    /// The top candidate `(priority, local index)` if any.
    pub fn candidate(&mut self) -> Option<(f64, u32)> {
        self.heap.peek_valid()
    }

    /// The policy's rate estimator (exposed for diagnostics).
    pub fn estimator(&self) -> RateEstimator {
        self.estimator
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use besync_sim::Wave;

    fn t(s: f64) -> SimTime {
        SimTime::new(s)
    }

    fn make_source(n: usize, policy: PolicyKind) -> SourceRuntime {
        SourceRuntime::new(
            SourceId(0),
            0,
            &vec![0.0; n],
            vec![WeightProfile::unit(); n],
            vec![0.5; n],
            Link::new(Wave::Constant(10.0)),
            ThresholdParams {
                alpha: 1.1,
                omega: 10.0,
                initial: 1.0,
                expected_feedback_period: 10.0,
            },
            Metric::abs_deviation(),
            policy,
            RateEstimator::Known,
            None,
            SimTime::ZERO,
        )
    }

    #[test]
    fn update_quotes_priority() {
        let mut s = make_source(2, PolicyKind::Area);
        assert!(s.candidate().is_none());
        s.record_update(t(1.0), 0, 3.0);
        let (p, l) = s.candidate().unwrap();
        assert_eq!(l, 0);
        // Area right after the update is (1−0)·3 − 0·1 = 3... the area
        // priority at the instant of the first update: elapsed 1s at
        // divergence 0, then jumps to 3: (1)·3 − 0 = 3.
        assert!((p - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "update counter of O1 reached 4294967296")]
    fn update_counter_cannot_wrap() {
        let mut s = make_source(2, PolicyKind::Area);
        s.states[1].updates = u32::MAX;
        s.record_update(t(1.0), 1, 3.0);
    }

    #[test]
    #[should_panic(expected = "update counter of O1 reached 4294967296")]
    fn unquoted_update_counter_cannot_wrap() {
        let mut s = make_source(2, PolicyKind::Area);
        s.states[1].updates = u32::MAX;
        s.record_update_unquoted(t(1.0), 1, 3.0);
    }

    #[test]
    fn mark_sent_resets_view() {
        let mut s = make_source(1, PolicyKind::Area);
        s.record_update(t(1.0), 0, 5.0);
        let snap = s.mark_sent(t(2.0), 0);
        assert_eq!(
            snap,
            Snapshot {
                value: 5.0,
                updates: 1
            }
        );
        assert!(s.candidate().is_none());
        assert_eq!(s.state(0).updates_since_refresh(), 0);
        assert_eq!(s.sends, 1);
        // Threshold took its α increase.
        assert!((s.threshold.value() - 1.1).abs() < 1e-12);
    }

    #[test]
    fn higher_divergence_on_top() {
        let mut s = make_source(3, PolicyKind::SimpleWeighted);
        s.record_update(t(1.0), 0, 1.0);
        s.record_update(t(1.0), 1, 4.0);
        s.record_update(t(1.0), 2, 2.0);
        assert_eq!(s.candidate().unwrap().1, 1);
    }

    #[test]
    fn local_global_mapping() {
        let s = SourceRuntime::new(
            SourceId(3),
            30,
            &[0.0; 10],
            vec![WeightProfile::unit(); 10],
            vec![0.1; 10],
            Link::new(Wave::Constant(1.0)),
            ThresholdParams::paper_defaults(4, 10.0),
            Metric::Staleness,
            PolicyKind::Area,
            RateEstimator::LongRun,
            None,
            SimTime::ZERO,
        );
        assert_eq!(s.local(ObjectId(35)), 5);
        assert_eq!(s.global(5), ObjectId(35));
    }

    #[test]
    fn compaction_preserves_pending_work() {
        let mut s = make_source(4, PolicyKind::Area);
        // Many updates to churn heap versions.
        for round in 0..100 {
            for l in 0..4 {
                s.record_update(t(1.0 + round as f64 * 0.01), l, round as f64);
            }
        }
        s.requote_all(t(2.0));
        assert_eq!(s.heap.raw_len(), 4);
        // All four objects still pending.
        let mut seen = Vec::new();
        while let Some((_, l)) = s.heap.pop_valid() {
            seen.push(l);
        }
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3]);
    }

    #[test]
    fn poisson_policy_uses_estimates() {
        let mut s = SourceRuntime::new(
            SourceId(0),
            0,
            &[0.0, 0.0],
            vec![WeightProfile::unit(); 2],
            vec![0.1, 1.0], // object 0 slow, object 1 fast
            Link::new(Wave::Constant(10.0)),
            ThresholdParams::paper_defaults(1, 10.0),
            Metric::Staleness,
            PolicyKind::PoissonClosedForm,
            RateEstimator::Known,
            None,
            SimTime::ZERO,
        );
        s.record_update(t(1.0), 0, 1.0);
        s.record_update(t(1.0), 1, 1.0);
        // Both stale; the slow changer has 10× the priority (Dₛ/λ).
        let p0 = s.priority_of(t(1.0), 0);
        let p1 = s.priority_of(t(1.0), 1);
        assert!((p0 - 10.0).abs() < 1e-9);
        assert!((p1 - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "Bound policy requires bound rates")]
    fn bound_policy_requires_rates() {
        let _ = make_source(1, PolicyKind::Bound);
    }

    #[test]
    fn unquoted_updates_track_state_without_scheduling() {
        let mut s = make_source(2, PolicyKind::Area);
        s.record_update_unquoted(t(1.0), 0, 3.0);
        assert!(s.candidate().is_none(), "down-time update must not quote");
        assert_eq!(s.state(0).updates_since_refresh(), 1);
        assert_eq!(s.state(0).value, 3.0);
        // A later quoted update sees the accumulated divergence.
        s.record_update(t(2.0), 0, 4.0);
        assert!(s.candidate().is_some());
        s.clear_quotes();
        assert!(s.candidate().is_none());
        // requote_all restores the pending work (the resync path).
        s.requote_all(t(3.0));
        assert_eq!(s.candidate().unwrap().1, 0);
    }
}
