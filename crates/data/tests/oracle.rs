//! AoS-vs-SoA truth-accounting oracle.
//!
//! The SoA [`TruthTable`] replaced the array-of-structs layout that now
//! lives on, verbatim, as [`AosTruthTable`] at the bottom of this file:
//! one [`DivergenceAccount`] per object — truth and fused dual
//! time-average side by side — plus the weight profile in a parallel
//! vector, evaluated on every transition. Correct, and exactly what made
//! `large` scenarios memory-bound. This randomized equivalence test
//! drives both layouts through the same 20k-operation trajectory — source
//! updates, stale and fresh refreshes, a mid-run `begin_measurement`, and
//! periodic reports — and asserts **bit-identical** truths, divergences,
//! and report fields.
//! Any divergence means the SoA hot path reordered a floating-point
//! operation and the golden trajectories are no longer trustworthy.

use besync_data::account::{DivergenceReport, ObjectTruth};
use besync_data::{Metric, ObjectId, TruthTable, WeightProfile};
use besync_sim::{SimTime, Wave};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const OPS: usize = 20_000;
const OBJECTS: u32 = 37;

fn assert_bits(name: &str, a: f64, b: f64, op: usize) {
    assert_eq!(
        a.to_bits(),
        b.to_bits(),
        "{name} diverged at op {op}: soa {a:.17e} vs aos {b:.17e}"
    );
}

fn assert_reports_identical(soa: &DivergenceReport, aos: &DivergenceReport, op: usize) {
    assert_eq!(soa.objects, aos.objects, "objects at op {op}");
    assert_eq!(
        soa.refreshes_applied, aos.refreshes_applied,
        "refreshes_applied at op {op}"
    );
    assert_bits(
        "total_unweighted",
        soa.total_unweighted,
        aos.total_unweighted,
        op,
    );
    assert_bits("total_weighted", soa.total_weighted, aos.total_weighted, op);
    assert_bits(
        "mean_unweighted",
        soa.mean_unweighted,
        aos.mean_unweighted,
        op,
    );
    assert_bits("mean_weighted", soa.mean_weighted, aos.mean_weighted, op);
    assert_bits("max_unweighted", soa.max_unweighted, aos.max_unweighted, op);
}

/// Random weight profiles: a mix of unit, constant, and sine-fluctuating
/// (the latter forces the non-constant slow path through `weight_at`).
fn random_weights(rng: &mut SmallRng, n: u32) -> Vec<WeightProfile> {
    (0..n)
        .map(|_| match rng.gen_range(0u32..4) {
            0 => WeightProfile::unit(),
            1 => WeightProfile::constant(rng.gen_range(0.1..10.0)),
            2 => WeightProfile::new(
                Wave::with_period(
                    rng.gen_range(0.5..5.0),
                    rng.gen_range(0.0..0.9),
                    rng.gen_range(50.0..2000.0),
                    rng.gen_range(0.0..6.2),
                ),
                Wave::Constant(rng.gen_range(0.5..2.0)),
            ),
            _ => WeightProfile::new(
                Wave::Constant(rng.gen_range(0.5..4.0)),
                Wave::with_period(
                    rng.gen_range(0.5..3.0),
                    rng.gen_range(0.0..0.9),
                    rng.gen_range(50.0..500.0),
                    rng.gen_range(0.0..6.2),
                ),
            ),
        })
        .collect()
}

fn drive(metric: Metric, seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let initial: Vec<f64> = (0..OBJECTS).map(|_| rng.gen_range(-5.0..5.0)).collect();
    let weights = random_weights(&mut rng, OBJECTS);

    let mut soa = TruthTable::new(metric, &initial, weights.clone());
    let mut aos = AosTruthTable::new(metric, &initial, weights);

    // Per-object remembered snapshots, so stale refreshes replay
    // realistic delayed-delivery patterns.
    let mut snapshots: Vec<(f64, u64)> = initial.iter().map(|&v| (v, 0)).collect();

    let mut t = SimTime::ZERO;
    let begin_at = OPS / 3;
    for op in 0..OPS {
        t += rng.gen_range(0.0..0.7);
        let obj = ObjectId(rng.gen_range(0..OBJECTS));
        let idx = obj.index();
        match rng.gen_range(0u32..10) {
            // Source update: the dominant event.
            0..=5 => {
                let v = rng.gen_range(-10.0f64..10.0);
                let ws = soa.source_update(t, obj, v);
                let wa = aos.source_update(t, obj, v);
                assert_bits("returned weight", ws, wa, op);
                // Sometimes snapshot right after the update (a send).
                if rng.gen_bool(0.5) {
                    let tr = soa.truth(obj);
                    snapshots[idx] = (tr.source_value, tr.source_updates);
                }
            }
            // Delayed delivery of the remembered (possibly stale) snapshot.
            6..=7 => {
                let (v, u) = snapshots[idx];
                soa.apply_refresh(t, obj, v, u);
                aos.apply_refresh(t, obj, v, u);
            }
            // Instantaneous fresh refresh.
            8 => {
                soa.apply_fresh_refresh(t, obj);
                aos.apply_fresh_refresh(t, obj);
            }
            // Read-side checks.
            _ => {
                assert_eq!(soa.truth(obj), aos.truth(obj), "truth at op {op}");
                assert_bits("divergence", soa.divergence(obj), aos.divergence(obj), op);
            }
        }
        if op == begin_at {
            soa.begin_measurement(t);
            aos.begin_measurement(t);
        }
        if op > begin_at && op % 2_500 == 0 {
            assert_reports_identical(&soa.report(t), &aos.report(t), op);
        }
    }
    assert_eq!(soa.refreshes_applied(), aos.refreshes_applied());
    let end = t + 10.0;
    assert_reports_identical(&soa.report(end), &aos.report(end), OPS);
    for o in 0..OBJECTS {
        let obj = ObjectId(o);
        assert_eq!(soa.truth(obj), aos.truth(obj), "final truth of {o}");
        assert_bits(
            "final divergence",
            soa.divergence(obj),
            aos.divergence(obj),
            OPS,
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// 20k random ops against the retired AoS layout, bit-identical under
    /// every metric (staleness, lag, value deviation) and a mix of
    /// constant and fluctuating weight profiles.
    #[test]
    fn soa_matches_aos_oracle(seed in 0u64..u64::MAX) {
        for metric in Metric::all_three() {
            drive(metric, seed);
        }
    }
}

/// Fused unweighted + weighted time-average pair sharing one clock.
///
/// Arithmetic is operation-for-operation identical to two independent
/// [`besync_sim::stats::TimeAverage`]s updated at the same instants (the
/// trackers were only ever set together).
#[derive(Debug, Clone, Copy)]
struct DualAverage {
    last_change: SimTime,
    value: f64,
    wvalue: f64,
    integral: f64,
    wintegral: f64,
    begin: Option<SimTime>,
    begin_integral: f64,
    begin_wintegral: f64,
}

impl DualAverage {
    fn new(t0: SimTime) -> Self {
        DualAverage {
            last_change: t0,
            value: 0.0,
            wvalue: 0.0,
            integral: 0.0,
            wintegral: 0.0,
            begin: None,
            begin_integral: 0.0,
            begin_wintegral: 0.0,
        }
    }

    /// Updates both tracked values at `t`.
    #[inline]
    fn set(&mut self, t: SimTime, value: f64, wvalue: f64) {
        debug_assert!(t >= self.last_change, "time must be monotonic");
        let gap = t - self.last_change;
        self.integral += self.value * gap;
        self.wintegral += self.wvalue * gap;
        self.value = value;
        self.wvalue = wvalue;
        self.last_change = t;
    }

    fn begin_measurement(&mut self, t: SimTime) {
        self.begin = Some(t);
        let gap = t - self.last_change;
        self.begin_integral = self.integral + self.value * gap;
        self.begin_wintegral = self.wintegral + self.wvalue * gap;
    }

    /// Time-averages `(unweighted, weighted)` over `[begin, t]`;
    /// zero-length windows yield 0, like `TimeAverage::average`.
    fn averages(&self, t: SimTime) -> (f64, f64) {
        let begin = self.begin.expect("begin_measurement was never called");
        let span = t - begin;
        if span <= 0.0 {
            (0.0, 0.0)
        } else {
            let gap = t - self.last_change;
            (
                (self.integral + self.value * gap - self.begin_integral) / span,
                (self.wintegral + self.wvalue * gap - self.begin_wintegral) / span,
            )
        }
    }
}

/// Per-object divergence accounting (truth + integrals), array-of-structs
/// style.
#[derive(Debug, Clone, Copy)]
pub struct DivergenceAccount {
    truth: ObjectTruth,
    averages: DualAverage,
}

/// The retired AoS ground-truth table. Same public surface as
/// [`TruthTable`]; kept only as the randomized-equivalence oracle.
#[derive(Debug, Clone)]
pub struct AosTruthTable {
    metric: Metric,
    weights: Vec<WeightProfile>,
    accounts: Vec<DivergenceAccount>,
    refreshes_applied: u64,
}

impl AosTruthTable {
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
        let accounts = initial_values
            .iter()
            .map(|&v| DivergenceAccount {
                truth: ObjectTruth {
                    source_value: v,
                    source_updates: 0,
                    cached_value: v,
                    cached_updates: 0,
                },
                averages: DualAverage::new(SimTime::ZERO),
            })
            .collect();
        AosTruthTable {
            metric,
            weights,
            accounts,
            refreshes_applied: 0,
        }
    }

    /// The current truth of one object (by value, mirroring
    /// [`TruthTable::truth`]).
    pub fn truth(&self, obj: ObjectId) -> ObjectTruth {
        self.accounts[obj.index()].truth
    }

    /// Current divergence of `obj`.
    pub fn divergence(&self, obj: ObjectId) -> f64 {
        self.truth(obj).divergence(self.metric)
    }

    /// Total number of refreshes applied at the cache so far.
    pub fn refreshes_applied(&self) -> u64 {
        self.refreshes_applied
    }

    /// Records an update of `obj` at the source; returns `W(O, t)`.
    pub fn source_update(&mut self, t: SimTime, obj: ObjectId, new_value: f64) -> f64 {
        let weight = self.weights[obj.index()].weight_at(t);
        let acct = &mut self.accounts[obj.index()];
        acct.truth.source_value = new_value;
        acct.truth.source_updates += 1;
        let d = acct.truth.divergence(self.metric);
        acct.averages.set(t, d, d * weight);
        weight
    }

    /// Records delivery of a refresh at the cache at time `t`.
    pub fn apply_refresh(
        &mut self,
        t: SimTime,
        obj: ObjectId,
        snapshot_value: f64,
        snapshot_updates: u64,
    ) {
        let weight = self.weights[obj.index()].weight_at(t);
        let acct = &mut self.accounts[obj.index()];
        acct.truth.cached_value = snapshot_value;
        acct.truth.cached_updates = snapshot_updates;
        let d = acct.truth.divergence(self.metric);
        acct.averages.set(t, d, d * weight);
        self.refreshes_applied += 1;
    }

    /// Applies a refresh with the *current* source state.
    pub fn apply_fresh_refresh(&mut self, t: SimTime, obj: ObjectId) {
        let truth = self.accounts[obj.index()].truth;
        self.apply_refresh(t, obj, truth.source_value, truth.source_updates);
    }

    /// Marks the end of warm-up: averages are measured from `t` onward.
    pub fn begin_measurement(&mut self, t: SimTime) {
        for acct in &mut self.accounts {
            acct.averages.begin_measurement(t);
        }
    }

    /// Summarizes divergence over the measurement window ending at `t`.
    pub fn report(&self, t: SimTime) -> DivergenceReport {
        let mut total_unweighted = 0.0;
        let mut total_weighted = 0.0;
        let mut max_unweighted: f64 = 0.0;
        for acct in &self.accounts {
            let (u, w) = acct.averages.averages(t);
            total_unweighted += u;
            total_weighted += w;
            max_unweighted = max_unweighted.max(u);
        }
        let n = self.accounts.len().max(1) as f64;
        DivergenceReport {
            objects: self.accounts.len(),
            total_unweighted,
            total_weighted,
            mean_unweighted: total_unweighted / n,
            mean_weighted: total_weighted / n,
            max_unweighted,
            refreshes_applied: self.refreshes_applied,
        }
    }
}
