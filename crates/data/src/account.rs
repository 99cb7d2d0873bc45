//! Ground-truth divergence accounting.
//!
//! Every scheduler — cooperative, idealized, or cache-driven — is judged by
//! the same yardstick: the time-averaged divergence between each source
//! object and its cached copy (paper §3.3). [`TruthTable`] owns that
//! ground truth. Simulations report *all* state transitions to it
//! (source updates and refresh deliveries), and it maintains exact
//! divergence integrals per object, both unweighted and weighted.
//!
//! Divergence is piecewise constant between transitions, so integrals are
//! exact. Weights may fluctuate continuously; the weighted integral samples
//! the weight at each divergence transition, which matches the paper's
//! standing assumption that weights change slowly relative to refresh
//! activity (§3.3).
//!
//! # Layout: struct of arrays
//!
//! The table is the single piece of state *every* simulation event drags
//! through the cache hierarchy, and at 16k+ objects the old
//! array-of-structs layout (one ~104-byte account plus a ~1-cache-line
//! weight profile per object, randomly indexed) was L3-resident and
//! memory-bound. The state is therefore split by touch frequency:
//!
//! * **hot** — one 64-byte, cache-line-aligned [`HotAccount`] per object:
//!   the truth (values + update counters), the current divergence and
//!   weighted divergence, and the time of the last transition. Exactly one
//!   line per `source_update`/`apply_refresh`.
//! * **warm** — the running divergence integrals, 16 bytes per object in a
//!   dense parallel array (four objects per line). They *must* be bumped
//!   on every transition — divergence is integrated segment by segment,
//!   and deferring or batching the additions would change the f64
//!   summation order and break bit-identical trajectories — but packing
//!   them densely quarters their line footprint.
//! * **cold** — the `begin_measurement` snapshots and the full
//!   [`WeightProfile`]s, touched only at end-of-warm-up, at reporting,
//!   and on the fluctuating-weight slow path.
//!
//! Constant weights (the common case) additionally skip the profile
//! entirely: `W(O)` is precomputed once per object into a dense f64 array,
//! so the hot loop does one load and one branch instead of dispatching
//! through two [`besync_sim::Wave`]s on a far cache line. The per-step
//! `d * weight` multiply is kept in both paths, so `wintegral` stays
//! bit-identical to the retired layout.
//!
//! The retired array-of-structs implementation survives as the
//! property-test oracle in `crates/data/tests/oracle.rs`, which pins this
//! layout op-for-op.

use besync_sim::SimTime;

use crate::ids::ObjectId;
use crate::metric::Metric;
use crate::weight::{WeightProfile, WeightSet};

/// The authoritative synchronization state of one object: the live source
/// value and the possibly stale cached copy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObjectTruth {
    /// Current value at the source.
    pub source_value: f64,
    /// Total number of updates applied at the source.
    pub source_updates: u64,
    /// Value currently stored at the cache.
    pub cached_value: f64,
    /// `source_updates` at the moment the cached value was snapshot at the
    /// source (used by the lag metric).
    pub cached_updates: u64,
}

impl ObjectTruth {
    /// Divergence of this object under `metric`.
    #[inline]
    pub fn divergence(&self, metric: Metric) -> f64 {
        metric.divergence(
            self.source_value,
            self.source_updates,
            self.cached_value,
            self.cached_updates,
        )
    }
}

/// Everything one `source_update`/`apply_refresh` touches, packed into
/// 48 bytes — three objects per pair of cache lines.
///
/// `divergence`/`wdivergence` mirror the fused dual time-average the AoS
/// layout kept (the trackers were only ever set together): the current
/// piecewise-constant divergence level and its weighted counterpart, both
/// pending integration over `[last_change, next transition)`.
///
/// The update counters are `u32` in the hot record (the public
/// [`ObjectTruth`] stays `u64`): no bounded run applies 2³² updates to a
/// single object (one that did would panic, see
/// [`compressed_update_count`]), and halving the counter bytes is what
/// shrinks the record from the old one-full-cache-line 64 bytes to 48 — at 10⁶
/// objects that is 16 MB of hot working set saved, the difference
/// between thrashing and fitting a realistic L3. Counter arithmetic is
/// widened to `u64` before the metric sees it, so divergence values are
/// bit-identical to the wide layout.
#[derive(Debug, Clone, Copy)]
#[repr(C, align(16))]
struct HotAccount {
    source_value: f64,
    cached_value: f64,
    /// Current divergence (0 initially: every cache starts synchronized).
    divergence: f64,
    /// Current weighted divergence `d · W(O, t_last)`.
    wdivergence: f64,
    last_change: SimTime,
    source_updates: u32,
    cached_updates: u32,
}

// The whole point of the hot split: minimal, line-friendly records.
const _: () = assert!(std::mem::size_of::<HotAccount>() == 48);
const _: () = assert!(std::mem::align_of::<HotAccount>() == 16);

/// Object `obj`'s update count `count` as the `u32` the hot records
/// keep it in.
///
/// # Panics
///
/// Panics, naming the object, if `count` exceeds `u32::MAX` — in release
/// builds too. A wrapped counter would corrupt every count-based metric,
/// and a saturated one would freeze the lag metric silently.
#[inline]
pub fn compressed_update_count(count: u64, obj: ObjectId) -> u32 {
    match u32::try_from(count) {
        Ok(c) => c,
        Err(_) => update_count_overflow(count, obj),
    }
}

// Out of line, so the per-update hot path carries one compare and a
// call, not the formatting.
#[cold]
#[inline(never)]
fn update_count_overflow(count: u64, obj: ObjectId) -> ! {
    panic!("update counter of {obj} reached {count}, past the compressed u32 range")
}

impl HotAccount {
    fn synced(value: f64, t0: SimTime) -> Self {
        HotAccount {
            source_value: value,
            cached_value: value,
            divergence: 0.0,
            wdivergence: 0.0,
            last_change: t0,
            source_updates: 0,
            cached_updates: 0,
        }
    }

    #[inline]
    fn truth(&self) -> ObjectTruth {
        ObjectTruth {
            source_value: self.source_value,
            source_updates: self.source_updates as u64,
            cached_value: self.cached_value,
            cached_updates: self.cached_updates as u64,
        }
    }
}

/// A divergence integral and its weighted counterpart, advanced in
/// lock-step (they share every transition instant).
#[derive(Debug, Clone, Copy, Default)]
struct IntegralPair {
    integral: f64,
    wintegral: f64,
}

/// Ground truth and exact divergence accounting for a whole simulation.
#[derive(Debug, Clone)]
pub struct TruthTable {
    metric: Metric,
    /// Hot: one aligned cache line per object.
    hot: Vec<HotAccount>,
    /// Warm: running integrals, dense (four objects per line).
    integrals: Vec<IntegralPair>,
    /// Weights behind the constant-weight fast path: one dense load per
    /// event in the common case, full profile dispatch when fluctuating.
    weights: WeightSet,
    /// Cold: integral values at `begin_measurement`.
    begin_integrals: Vec<IntegralPair>,
    /// Start of the measurement window (one instant for the whole table).
    begin: Option<SimTime>,
    refreshes_applied: u64,
}

impl TruthTable {
    /// Creates a table where every cached copy starts synchronized with its
    /// source value (`initial_values`).
    ///
    /// # Panics
    ///
    /// Panics if `initial_values` and `weights` lengths differ.
    pub fn new(metric: Metric, initial_values: &[f64], weights: Vec<WeightProfile>) -> Self {
        assert_eq!(
            initial_values.len(),
            weights.len(),
            "one weight profile per object required"
        );
        let hot = initial_values
            .iter()
            .map(|&v| HotAccount::synced(v, SimTime::ZERO))
            .collect();
        TruthTable {
            metric,
            hot,
            integrals: vec![IntegralPair::default(); initial_values.len()],
            weights: WeightSet::new(weights),
            begin_integrals: vec![IntegralPair::default(); initial_values.len()],
            begin: None,
            refreshes_applied: 0,
        }
    }

    /// Convenience: unit weights for all objects.
    pub fn with_unit_weights(metric: Metric, initial_values: &[f64]) -> Self {
        let weights = vec![WeightProfile::unit(); initial_values.len()];
        Self::new(metric, initial_values, weights)
    }

    /// Number of objects tracked.
    pub fn len(&self) -> usize {
        self.hot.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.hot.is_empty()
    }

    /// The metric under which divergence is accounted.
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// The current truth of one object.
    pub fn truth(&self, obj: ObjectId) -> ObjectTruth {
        self.hot[obj.index()].truth()
    }

    /// The weight of `obj` at time `t`.
    pub fn weight_at(&self, obj: ObjectId, t: SimTime) -> f64 {
        self.weights.weight_at(obj.index(), t)
    }

    /// Current divergence of `obj`.
    ///
    /// Recomputed from the truth rather than read from the hot record:
    /// the stored level starts at 0 by definition (caches start
    /// synchronized), while an exotic deviation function may assign a
    /// nonzero Δ(V, V) — this accessor reports the metric's answer.
    pub fn divergence(&self, obj: ObjectId) -> f64 {
        self.hot[obj.index()].truth().divergence(self.metric)
    }

    /// Total number of refreshes applied at the cache so far.
    pub fn refreshes_applied(&self) -> u64 {
        self.refreshes_applied
    }

    /// Closes the divergence segment `[hot.last_change, t)` at the old
    /// level and opens a new one at `(d, wd)`. Operation-for-operation the
    /// retired `DualAverage::set`, so integrals stay bit-identical.
    #[inline]
    fn advance(hot: &mut HotAccount, integ: &mut IntegralPair, t: SimTime, d: f64, wd: f64) {
        debug_assert!(t >= hot.last_change, "time must be monotonic");
        let gap = t - hot.last_change;
        integ.integral += hot.divergence * gap;
        integ.wintegral += hot.wdivergence * gap;
        hot.divergence = d;
        hot.wdivergence = wd;
        hot.last_change = t;
    }

    /// Records an update of `obj` at the source: the source value becomes
    /// `new_value` at time `t`.
    ///
    /// Returns the object's weight `W(O, t)` — the accounting had to
    /// evaluate it anyway, and schedulers that price the same object at
    /// the same instant can reuse it instead of re-evaluating the profile.
    pub fn source_update(&mut self, t: SimTime, obj: ObjectId, new_value: f64) -> f64 {
        let idx = obj.index();
        let weight = self.weights.weight_at(idx, t);
        let hot = &mut self.hot[idx];
        hot.source_value = new_value;
        hot.source_updates = compressed_update_count(u64::from(hot.source_updates) + 1, obj);
        let d = self.metric.divergence(
            hot.source_value,
            hot.source_updates as u64,
            hot.cached_value,
            hot.cached_updates as u64,
        );
        Self::advance(hot, &mut self.integrals[idx], t, d, d * weight);
        weight
    }

    /// Records delivery of a refresh at the cache at time `t`: the cached
    /// copy becomes the (possibly stale) snapshot the message carried.
    ///
    /// Schedulers with instantaneous refreshes pass the current source
    /// state as the snapshot, which zeroes divergence; snapshots delayed by
    /// queueing leave residual divergence — the stall effect §5 guards
    /// against.
    pub fn apply_refresh(
        &mut self,
        t: SimTime,
        obj: ObjectId,
        snapshot_value: f64,
        snapshot_updates: u64,
    ) {
        let idx = obj.index();
        let weight = self.weights.weight_at(idx, t);
        let hot = &mut self.hot[idx];
        hot.cached_value = snapshot_value;
        hot.cached_updates = compressed_update_count(snapshot_updates, obj);
        let d = self.metric.divergence(
            hot.source_value,
            hot.source_updates as u64,
            hot.cached_value,
            hot.cached_updates as u64,
        );
        Self::advance(hot, &mut self.integrals[idx], t, d, d * weight);
        self.refreshes_applied += 1;
    }

    /// Applies a refresh with the *current* source state (an instantaneous,
    /// perfectly fresh refresh). Divergence drops to zero.
    pub fn apply_fresh_refresh(&mut self, t: SimTime, obj: ObjectId) {
        let hot = &self.hot[obj.index()];
        let (value, updates) = (hot.source_value, hot.source_updates as u64);
        self.apply_refresh(t, obj, value, updates);
    }

    /// The unweighted divergence integral of objects `lo..hi` advanced
    /// to `t` — a read-only probe (nothing is mutated, no summation
    /// order changes). The fault layer differences two probes to
    /// attribute divergence to an outage or source-downtime epoch.
    pub fn divergence_integral_range(&self, t: SimTime, lo: usize, hi: usize) -> f64 {
        self.hot[lo..hi]
            .iter()
            .zip(&self.integrals[lo..hi])
            .map(|(hot, integ)| integ.integral + hot.divergence * (t - hot.last_change))
            .sum()
    }

    /// Marks the end of warm-up: averages are measured from `t` onward.
    pub fn begin_measurement(&mut self, t: SimTime) {
        self.begin = Some(t);
        for (idx, hot) in self.hot.iter().enumerate() {
            let gap = t - hot.last_change;
            let integ = self.integrals[idx];
            self.begin_integrals[idx] = IntegralPair {
                integral: integ.integral + hot.divergence * gap,
                wintegral: integ.wintegral + hot.wdivergence * gap,
            };
        }
    }

    /// Summarizes divergence over the measurement window ending at `t`.
    pub fn report(&self, t: SimTime) -> DivergenceReport {
        let mut total_unweighted = 0.0;
        let mut total_weighted = 0.0;
        let mut max_unweighted: f64 = 0.0;
        if !self.hot.is_empty() {
            let begin = self.begin.expect("begin_measurement was never called");
            let span = t - begin;
            for (idx, hot) in self.hot.iter().enumerate() {
                // Zero-length windows yield 0, like the retired layout
                // (and `TimeAverage::average`).
                let (u, w) = if span <= 0.0 {
                    (0.0, 0.0)
                } else {
                    let gap = t - hot.last_change;
                    let integ = self.integrals[idx];
                    let beg = self.begin_integrals[idx];
                    (
                        (integ.integral + hot.divergence * gap - beg.integral) / span,
                        (integ.wintegral + hot.wdivergence * gap - beg.wintegral) / span,
                    )
                };
                total_unweighted += u;
                total_weighted += w;
                max_unweighted = max_unweighted.max(u);
            }
        }
        let n = self.hot.len().max(1) as f64;
        DivergenceReport {
            objects: self.hot.len(),
            total_unweighted,
            total_weighted,
            mean_unweighted: total_unweighted / n,
            mean_weighted: total_weighted / n,
            max_unweighted,
            refreshes_applied: self.refreshes_applied,
        }
    }
}

/// Summary of time-averaged divergence over the measurement window.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DivergenceReport {
    /// Number of objects.
    pub objects: usize,
    /// Sum over objects of time-averaged divergence (the paper's
    /// minimization objective, unweighted).
    pub total_unweighted: f64,
    /// Sum over objects of time-averaged weighted divergence.
    pub total_weighted: f64,
    /// `total_unweighted / objects` — "average divergence per data value"
    /// as plotted in Figures 4–6.
    pub mean_unweighted: f64,
    /// `total_weighted / objects`.
    pub mean_weighted: f64,
    /// Largest per-object time-averaged divergence.
    pub max_unweighted: f64,
    /// Refreshes applied at the cache during the whole run.
    pub refreshes_applied: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::new(s)
    }

    #[test]
    fn starts_synchronized() {
        let table = TruthTable::with_unit_weights(Metric::Staleness, &[1.0, 2.0]);
        assert_eq!(table.divergence(ObjectId(0)), 0.0);
        assert_eq!(table.divergence(ObjectId(1)), 0.0);
        assert_eq!(table.len(), 2);
    }

    #[test]
    fn staleness_account_integrates_exactly() {
        let mut table = TruthTable::with_unit_weights(Metric::Staleness, &[0.0]);
        table.begin_measurement(t(0.0));
        table.source_update(t(2.0), ObjectId(0), 1.0); // stale from 2..6
        table.apply_fresh_refresh(t(6.0), ObjectId(0)); // fresh from 6..10
        let r = table.report(t(10.0));
        // stale 4s of a 10s window → 0.4
        assert!((r.mean_unweighted - 0.4).abs() < 1e-12);
        assert_eq!(r.refreshes_applied, 1);
    }

    #[test]
    #[should_panic(expected = "update counter of O1 reached 4294967296")]
    fn source_update_counter_cannot_wrap() {
        let mut table = TruthTable::with_unit_weights(Metric::Lag, &[0.0, 0.0]);
        table.hot[1].source_updates = u32::MAX;
        table.source_update(t(1.0), ObjectId(1), 1.0);
    }

    #[test]
    #[should_panic(expected = "update counter of O1 reached 4294967296")]
    fn refresh_counter_cannot_be_truncated() {
        let mut table = TruthTable::with_unit_weights(Metric::Lag, &[0.0, 0.0]);
        table.apply_refresh(t(1.0), ObjectId(1), 0.0, u64::from(u32::MAX) + 1);
    }

    #[test]
    fn lag_accumulates_updates() {
        let mut table = TruthTable::with_unit_weights(Metric::Lag, &[0.0]);
        table.begin_measurement(t(0.0));
        table.source_update(t(1.0), ObjectId(0), 1.0); // lag 1 over [1,2)
        table.source_update(t(2.0), ObjectId(0), 2.0); // lag 2 over [2,4)
        table.apply_fresh_refresh(t(4.0), ObjectId(0)); // lag 0 after
        let r = table.report(t(10.0));
        // ∫ = 1·1 + 2·2 = 5 over 10s → 0.5
        assert!((r.mean_unweighted - 0.5).abs() < 1e-12);
    }

    #[test]
    fn stale_snapshot_leaves_residual_divergence() {
        let mut table = TruthTable::with_unit_weights(Metric::Lag, &[0.0]);
        table.begin_measurement(t(0.0));
        table.source_update(t(1.0), ObjectId(0), 1.0);
        // Snapshot taken after the first update...
        let snap = table.truth(ObjectId(0));
        table.source_update(t(2.0), ObjectId(0), 2.0);
        // ...delivered after the second: cache is still 1 behind.
        table.apply_refresh(t(3.0), ObjectId(0), snap.source_value, snap.source_updates);
        assert_eq!(table.divergence(ObjectId(0)), 1.0);
    }

    #[test]
    fn deviation_uses_values() {
        let mut table = TruthTable::with_unit_weights(Metric::abs_deviation(), &[5.0]);
        table.begin_measurement(t(0.0));
        table.source_update(t(0.0), ObjectId(0), 8.0);
        assert_eq!(table.divergence(ObjectId(0)), 3.0);
        let r = table.report(t(1.0));
        assert!((r.mean_unweighted - 3.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_average_scales_with_weight() {
        let weights = vec![WeightProfile::constant(10.0)];
        let mut table = TruthTable::new(Metric::Staleness, &[0.0], weights);
        table.begin_measurement(t(0.0));
        table.source_update(t(0.0), ObjectId(0), 1.0);
        let r = table.report(t(4.0));
        assert!((r.mean_unweighted - 1.0).abs() < 1e-12);
        assert!((r.mean_weighted - 10.0).abs() < 1e-12);
    }

    #[test]
    fn fluctuating_weight_takes_the_profile_path() {
        use besync_sim::Wave;
        // A sine-wave importance: the precomputed constant is NaN and the
        // slow path evaluates the profile at each transition.
        let profile =
            WeightProfile::new(Wave::with_period(2.0, 0.5, 100.0, 0.0), Wave::Constant(1.0));
        let mut table = TruthTable::new(Metric::Staleness, &[0.0], vec![profile]);
        table.begin_measurement(t(0.0));
        // Divergence 1 from t=0; weight sampled at the transition is
        // profile.weight_at(0).
        let w = table.source_update(t(0.0), ObjectId(0), 1.0);
        assert_eq!(w.to_bits(), profile.weight_at(t(0.0)).to_bits());
        let r = table.report(t(10.0));
        assert!((r.mean_unweighted - 1.0).abs() < 1e-12);
        assert!((r.mean_weighted - w).abs() < 1e-12);
    }

    #[test]
    fn report_totals_sum_over_objects() {
        let mut table = TruthTable::with_unit_weights(Metric::Staleness, &[0.0, 0.0, 0.0]);
        table.begin_measurement(t(0.0));
        table.source_update(t(0.0), ObjectId(0), 1.0);
        table.source_update(t(0.0), ObjectId(1), 1.0);
        let r = table.report(t(2.0));
        assert!((r.total_unweighted - 2.0).abs() < 1e-12);
        assert!((r.mean_unweighted - 2.0 / 3.0).abs() < 1e-12);
        assert!((r.max_unweighted - 1.0).abs() < 1e-12);
        assert_eq!(r.objects, 3);
    }

    #[test]
    fn integral_probe_matches_hand_integration() {
        let mut table = TruthTable::with_unit_weights(Metric::Staleness, &[0.0, 0.0]);
        table.begin_measurement(t(0.0));
        table.source_update(t(2.0), ObjectId(0), 1.0); // stale from t=2
                                                       // Probe mid-segment: object 0 stale for 3s, object 1 never.
        let probe = table.divergence_integral_range(t(5.0), 0, 2);
        assert!((probe - 3.0).abs() < 1e-12);
        // A restricted range sees only its own objects.
        assert_eq!(table.divergence_integral_range(t(5.0), 1, 2), 0.0);
        // Epoch attribution = difference of two probes.
        let later = table.divergence_integral_range(t(7.0), 0, 2);
        assert!((later - probe - 2.0).abs() < 1e-12);
        // The probe mutates nothing: reporting is unaffected.
        table.apply_fresh_refresh(t(6.0), ObjectId(0));
        let r = table.report(t(10.0));
        assert!((r.total_unweighted - 0.4).abs() < 1e-12);
    }

    #[test]
    fn random_walk_return_resets_staleness() {
        let mut table = TruthTable::with_unit_weights(Metric::Staleness, &[0.0]);
        table.begin_measurement(t(0.0));
        table.source_update(t(1.0), ObjectId(0), 1.0);
        assert_eq!(table.divergence(ObjectId(0)), 1.0);
        // Walk returns to the cached value: no longer stale under the
        // value-based staleness definition.
        table.source_update(t(2.0), ObjectId(0), 0.0);
        assert_eq!(table.divergence(ObjectId(0)), 0.0);
        // But lag-style counters still advanced.
        assert_eq!(table.truth(ObjectId(0)).source_updates, 2);
    }
}
