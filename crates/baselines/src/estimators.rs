//! Change-rate estimators from poll observations (\[CGM00a\], "Estimating
//! frequency of change").
//!
//! A cache that polls can only see snapshots; the Poisson rate λ must be
//! inferred from what polls reveal. Two information regimes appear in the
//! paper's Figure 6:
//!
//! * **Last-modified time available** ([`LastModifiedEstimator`], CGM1):
//!   each poll over a window of length `I` either reports "no change"
//!   (likelihood `e^{−λI}`) or the *age* `a` of the most recent change
//!   (likelihood density `λe^{−λa}` — no update in the last `a` seconds,
//!   one at that instant, anything earlier marginalized out). The MLE is
//!   closed-form: `λ̂ = X / (Σ_unchanged I + Σ_changed a)`.
//! * **Binary change detection only** ([`BinaryChangeEstimator`], CGM2):
//!   polls reveal only whether ≥1 update occurred. The MLE solves
//!   `Σ_changed I·e^{−λI}/(1−e^{−λI}) = Σ_unchanged I`; with equal
//!   intervals this reduces to `λ̂ = −ln(1 − X/n)/I`, which is undefined
//!   when every poll saw a change — we apply the \[CGM00a\]-style `+0.5`
//!   bias correction to the counts, and solve the irregular-interval case
//!   by bisection over interval buckets (bounded memory).

use std::collections::BTreeMap;

/// What one poll revealed about an object.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChangeObservation {
    /// No update since the previous poll.
    Unchanged,
    /// At least one update; `age` is seconds since the most recent update
    /// (only available in the last-modified regime; pass the interval
    /// midpoint if unknown).
    Changed {
        /// Seconds between the most recent update and the poll.
        age: f64,
    },
}

/// Online estimator interface shared by both regimes.
pub trait RateEstimate {
    /// Records one poll outcome over a window of `interval` seconds.
    fn observe(&mut self, interval: f64, obs: ChangeObservation);

    /// Current estimate λ̂ (updates/second). Returns `fallback` until
    /// enough evidence has accumulated.
    fn estimate(&self, fallback: f64) -> f64;

    /// Number of polls recorded.
    fn observations(&self) -> u64;
}

/// CGM1: maximum-likelihood estimator with last-modified times.
#[derive(Debug, Clone, Copy, Default)]
pub struct LastModifiedEstimator {
    polls: u64,
    changes: u64,
    /// Σ over unchanged polls of the interval, plus Σ over changed polls
    /// of the observed age.
    exposure: f64,
}

impl LastModifiedEstimator {
    /// A fresh estimator.
    pub fn new() -> Self {
        Self::default()
    }
}

impl RateEstimate for LastModifiedEstimator {
    fn observe(&mut self, interval: f64, obs: ChangeObservation) {
        debug_assert!(interval > 0.0);
        self.polls += 1;
        match obs {
            ChangeObservation::Unchanged => self.exposure += interval,
            ChangeObservation::Changed { age } => {
                debug_assert!(age >= 0.0);
                self.changes += 1;
                // Clamp: a reported age beyond the window would double
                // count time already covered by previous observations.
                self.exposure += age.min(interval);
            }
        }
    }

    fn estimate(&self, fallback: f64) -> f64 {
        if self.changes == 0 || self.exposure <= 0.0 {
            return fallback;
        }
        self.changes as f64 / self.exposure
    }

    fn observations(&self) -> u64 {
        self.polls
    }
}

/// CGM2: maximum-likelihood estimator from binary change detection.
///
/// Observations are bucketed by interval (millisecond quantization) so
/// memory stays O(#distinct intervals) regardless of poll count.
#[derive(Debug, Clone, Default)]
pub struct BinaryChangeEstimator {
    /// interval (quantized ms) → (changed count, unchanged count)
    buckets: BTreeMap<u64, (u64, u64)>,
    polls: u64,
    changes: u64,
}

impl BinaryChangeEstimator {
    /// A fresh estimator.
    pub fn new() -> Self {
        Self::default()
    }

    fn quantize(interval: f64) -> u64 {
        (interval * 1e3).round().max(1.0) as u64
    }
}

/// The derivative of the log-likelihood at `lambda`:
/// `Σ_changed I·e^{−λI}/(1−e^{−λI}) − Σ_unchanged I`, over one
/// `(I, yes·I, no·I)` term per interval bucket, in bucket order.
/// `yes·I·e` is `(yes·I)·e` in f64 too, so the pre-multiplied terms give
/// the bits of the per-bucket expression.
fn score(terms: &[(f64, f64, f64)], lambda: f64) -> f64 {
    let mut s = 0.0;
    for &(interval, yes_i, no_i) in terms {
        if yes_i > 0.0 {
            let e = (-lambda * interval).exp();
            s += yes_i * e / (1.0 - e).max(1e-300);
        }
        s -= no_i;
    }
    s
}

impl RateEstimate for BinaryChangeEstimator {
    fn observe(&mut self, interval: f64, obs: ChangeObservation) {
        debug_assert!(interval > 0.0);
        self.polls += 1;
        let entry = self
            .buckets
            .entry(Self::quantize(interval))
            .or_insert((0, 0));
        match obs {
            ChangeObservation::Changed { .. } => {
                self.changes += 1;
                entry.0 += 1;
            }
            ChangeObservation::Unchanged => entry.1 += 1,
        }
    }

    fn estimate(&self, fallback: f64) -> f64 {
        if self.polls == 0 {
            return fallback;
        }
        if self.changes == 0 {
            // No change seen yet: a tiny but positive rate, shrinking
            // with evidence (the +0.5 correction with X = 0).
            let total_time: f64 = self
                .buckets
                .iter()
                .map(|(&q, &(_, no))| q as f64 / 1e3 * no as f64)
                .sum();
            return (0.5 / (self.polls as f64 + 0.5) / (total_time / self.polls as f64)).max(1e-9);
        }
        if self.changes == self.polls {
            // Every poll saw a change: the raw MLE diverges. Use the
            // bias-corrected closed form with the mean interval:
            // λ̂ = −ln((n−X+0.5)/(n+0.5)) / Ī   (\[CGM00a\]).
            let n = self.polls as f64;
            let mean_interval: f64 = self
                .buckets
                .iter()
                .map(|(&q, &(yes, no))| q as f64 / 1e3 * (yes + no) as f64)
                .sum::<f64>()
                / n;
            return -((0.5) / (n + 0.5)).ln() / mean_interval;
        }
        // Root of the score by bisection; score is strictly decreasing in
        // λ, positive at 0⁺ (changes exist) and negative at ∞ (unchanged
        // polls exist).
        let terms: Vec<(f64, f64, f64)> = self
            .buckets
            .iter()
            .map(|(&q, &(yes, no))| {
                let interval = q as f64 / 1e3;
                (interval, yes as f64 * interval, no as f64 * interval)
            })
            .collect();
        let mut lo = 1e-9;
        let mut hi = 1.0;
        while score(&terms, hi) > 0.0 {
            hi *= 4.0;
            if hi > 1e12 {
                break;
            }
        }
        for _ in 0..100 {
            let mid = 0.5 * (lo + hi);
            // Once the midpoint collides with an endpoint, every later
            // iteration recomputes the same midpoint and repeats the same
            // no-op: breaking after this one is bit-identical to running
            // out all 100 (the argument of `freshness::allocate`'s final
            // bisection).
            let converged = mid == lo || mid == hi;
            if score(&terms, mid) > 0.0 {
                lo = mid;
            } else {
                hi = mid;
            }
            if converged {
                break;
            }
        }
        0.5 * (lo + hi)
    }

    fn observations(&self) -> u64 {
        self.polls
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use besync_sim::rng::stream_rng;
    use rand::Rng;

    /// Simulates polling a Poisson(λ) process at the given intervals and
    /// feeds an estimator; returns λ̂.
    fn poll_poisson<E: RateEstimate>(
        est: &mut E,
        lambda: f64,
        intervals: &[f64],
        seed: u64,
        with_age: bool,
    ) -> f64 {
        let mut rng = stream_rng(seed, 42);
        for &interval in intervals {
            // Number of updates in the window ~ Poisson(λI); we only need
            // "any?" and the age of the last one.
            // P(no update) = e^{−λI}.
            let none = rng.gen::<f64>() < (-lambda * interval).exp();
            if none {
                est.observe(interval, ChangeObservation::Unchanged);
            } else {
                // Age of last update given ≥1 in window: truncated
                // exponential on [0, I].
                let u: f64 = rng.gen();
                let age = if with_age {
                    // Inverse CDF of truncated Exp(λ) measured from the
                    // poll backwards.
                    -(1.0 - u * (1.0 - (-lambda * interval).exp())).ln() / lambda
                } else {
                    interval / 2.0
                };
                est.observe(interval, ChangeObservation::Changed { age });
            }
        }
        est.estimate(f64::NAN)
    }

    #[test]
    fn last_modified_converges() {
        for lambda in [0.05, 0.3, 1.5] {
            let intervals = vec![1.0; 50_000];
            let mut est = LastModifiedEstimator::new();
            let got = poll_poisson(&mut est, lambda, &intervals, 7, true);
            assert!(
                (got - lambda).abs() < lambda * 0.05,
                "λ={lambda} estimated {got}"
            );
        }
    }

    #[test]
    fn binary_converges_on_regular_intervals() {
        for lambda in [0.05, 0.3, 1.5] {
            let intervals = vec![1.0; 50_000];
            let mut est = BinaryChangeEstimator::new();
            let got = poll_poisson(&mut est, lambda, &intervals, 8, false);
            assert!(
                (got - lambda).abs() < lambda * 0.07,
                "λ={lambda} estimated {got}"
            );
        }
    }

    #[test]
    fn binary_converges_on_irregular_intervals() {
        let mut rng = stream_rng(3, 3);
        let intervals: Vec<f64> = (0..50_000).map(|_| rng.gen_range(0.2..3.0)).collect();
        let lambda = 0.4;
        let mut est = BinaryChangeEstimator::new();
        let got = poll_poisson(&mut est, lambda, &intervals, 9, false);
        assert!(
            (got - lambda).abs() < lambda * 0.07,
            "λ={lambda} estimated {got}"
        );
    }

    #[test]
    fn binary_beats_naive_when_changes_saturate() {
        // Fast object polled slowly: most windows contain a change, the
        // naive estimator X/T ≈ 1/I badly underestimates, the MLE doesn't.
        let lambda = 3.0;
        let intervals = vec![1.0; 20_000];
        let mut est = BinaryChangeEstimator::new();
        let mle = poll_poisson(&mut est, lambda, &intervals, 10, false);
        let naive = est.changes as f64 / intervals.len() as f64; // per second
        assert!(naive < 1.05, "naive saturates near 1: {naive}");
        assert!(
            mle > 2.0,
            "MLE should recover a fast rate, got {mle} (naive {naive})"
        );
    }

    #[test]
    fn all_changed_uses_bias_correction() {
        let mut est = BinaryChangeEstimator::new();
        for _ in 0..10 {
            est.observe(1.0, ChangeObservation::Changed { age: 0.5 });
        }
        let got = est.estimate(f64::NAN);
        // λ̂ = −ln(0.5/10.5)/1 ≈ 3.04 — finite despite saturation.
        assert!((got - -((0.5f64 / 10.5).ln())).abs() < 1e-9, "{got}");
        assert!(got.is_finite());
    }

    #[test]
    fn no_changes_gives_small_positive_rate() {
        let mut est = BinaryChangeEstimator::new();
        for _ in 0..100 {
            est.observe(2.0, ChangeObservation::Unchanged);
        }
        let got = est.estimate(f64::NAN);
        assert!(got > 0.0 && got < 0.01, "{got}");
        assert_eq!(est.observations(), 100);
    }

    #[test]
    fn fallback_until_evidence() {
        let est = LastModifiedEstimator::new();
        assert_eq!(est.estimate(0.123), 0.123);
        let est = BinaryChangeEstimator::new();
        assert_eq!(est.estimate(0.456), 0.456);
    }

    #[test]
    fn last_modified_clamps_age_to_window() {
        let mut est = LastModifiedEstimator::new();
        est.observe(1.0, ChangeObservation::Changed { age: 50.0 });
        // Exposure clamped to the window: λ̂ = 1/1.
        assert!((est.estimate(0.0) - 1.0).abs() < 1e-12);
    }
}
