//! Property tests for the CGM baselines: allocation optimality and
//! estimator consistency under randomized inputs.

use besync_baselines::estimators::{
    BinaryChangeEstimator, ChangeObservation, LastModifiedEstimator, RateEstimate,
};
use besync_baselines::freshness::{allocate, freshness, marginal_gain, total_freshness};
use besync_sim::rng::stream_rng;
use proptest::prelude::*;
use rand::Rng;

proptest! {
    /// Freshness is a proper probability: in [0, 1], increasing in f,
    /// decreasing in λ.
    #[test]
    fn freshness_is_probability(lambda in 0.001f64..100.0, f in 0.0f64..100.0) {
        let v = freshness(lambda, f);
        prop_assert!((0.0..=1.0).contains(&v), "F={v}");
        if f > 0.0 {
            prop_assert!(freshness(lambda, f * 1.5) >= v - 1e-12);
            prop_assert!(freshness(lambda * 1.5, f) <= v + 1e-12);
        }
    }

    /// Allocation meets the budget exactly, is non-negative, and no
    /// pairwise transfer of budget improves total freshness (local
    /// optimality / KKT).
    #[test]
    fn allocation_is_locally_optimal(
        rates in prop::collection::vec(0.01f64..5.0, 2..12),
        budget in 0.1f64..20.0,
    ) {
        let freqs = allocate(&rates, budget);
        let sum: f64 = freqs.iter().sum();
        prop_assert!((sum - budget).abs() < 1e-6 * budget, "sum {sum} vs budget {budget}");
        prop_assert!(freqs.iter().all(|&f| f >= 0.0));

        let base = total_freshness(&rates, &freqs);
        let eps = budget * 1e-5;
        for i in 0..rates.len() {
            if freqs[i] < eps {
                continue;
            }
            for j in 0..rates.len() {
                if i == j { continue; }
                let mut alt = freqs.clone();
                alt[i] -= eps;
                alt[j] += eps;
                prop_assert!(total_freshness(&rates, &alt) <= base + 1e-9,
                    "moving {eps} from {i} to {j} improved freshness");
            }
        }
    }

    /// Active objects share (approximately) one marginal gain µ.
    #[test]
    fn allocation_equalizes_marginals(
        rates in prop::collection::vec(0.01f64..5.0, 2..10),
        budget in 0.5f64..20.0,
    ) {
        let freqs = allocate(&rates, budget);
        let margins: Vec<f64> = rates
            .iter()
            .zip(&freqs)
            .filter(|&(_, &f)| f > budget * 1e-6)
            .map(|(&l, &f)| marginal_gain(l, f))
            .collect();
        if margins.len() >= 2 {
            let mu = margins[0];
            for &m in &margins[1..] {
                prop_assert!((m - mu).abs() < mu * 0.01, "marginals {margins:?}");
            }
        }
    }

    /// The last-modified MLE converges to the true rate for any rate and
    /// polling interval (consistency).
    #[test]
    fn last_modified_consistent(lambda in 0.05f64..3.0, interval in 0.2f64..5.0, seed in 0u64..100) {
        let mut est = LastModifiedEstimator::new();
        let mut rng = stream_rng(seed, 9);
        for _ in 0..30_000 {
            let none = rng.gen::<f64>() < (-lambda * interval).exp();
            if none {
                est.observe(interval, ChangeObservation::Unchanged);
            } else {
                let u: f64 = rng.gen();
                let age = -(1.0 - u * (1.0 - (-lambda * interval).exp())).ln() / lambda;
                est.observe(interval, ChangeObservation::Changed { age });
            }
        }
        let got = est.estimate(f64::NAN);
        prop_assert!((got - lambda).abs() < lambda * 0.1,
            "λ={lambda} I={interval}: estimated {got}");
    }

    /// The binary MLE is consistent too — strictly harder information, so
    /// allow a wider (but still tight) tolerance.
    #[test]
    fn binary_consistent(lambda in 0.05f64..2.0, interval in 0.3f64..3.0, seed in 0u64..100) {
        let mut est = BinaryChangeEstimator::new();
        let mut rng = stream_rng(seed, 10);
        for _ in 0..30_000 {
            let none = rng.gen::<f64>() < (-lambda * interval).exp();
            let obs = if none {
                ChangeObservation::Unchanged
            } else {
                ChangeObservation::Changed { age: interval / 2.0 }
            };
            est.observe(interval, obs);
        }
        let got = est.estimate(f64::NAN);
        prop_assert!((got - lambda).abs() < lambda * 0.15,
            "λ={lambda} I={interval}: estimated {got}");
    }

    /// Estimates are always positive and finite, whatever the
    /// observation mix.
    #[test]
    fn estimates_always_sane(
        obs in prop::collection::vec((0.01f64..10.0, prop::bool::ANY, 0.0f64..10.0), 1..200),
    ) {
        let mut lm = LastModifiedEstimator::new();
        let mut bin = BinaryChangeEstimator::new();
        for &(interval, changed, age) in &obs {
            let o = if changed {
                ChangeObservation::Changed { age }
            } else {
                ChangeObservation::Unchanged
            };
            lm.observe(interval, o);
            bin.observe(interval, o);
        }
        for e in [lm.estimate(1.0), bin.estimate(1.0)] {
            prop_assert!(e.is_finite() && e > 0.0, "estimate {e}");
        }
    }
}

/// The retired bracket-and-bisect inversion of `g(r) = 1 − e^{−r}(1+r)`,
/// kept as the oracle for the Newton solver: slow, simple, and correct
/// to its ~1e-12 bracket width.
fn invert_g_bisect(y: f64) -> f64 {
    // ∂F/∂f at λ = 1 is g(1/f).
    let g = |r: f64| marginal_gain(1.0, 1.0 / r);
    debug_assert!((0.0..1.0).contains(&y));
    if y <= 0.0 {
        return 0.0;
    }
    let mut lo = 0.0_f64;
    let mut hi = 1.0_f64;
    while g(hi) < y {
        hi *= 2.0;
        if hi > 1e9 {
            return hi;
        }
    }
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if g(mid) < y {
            lo = mid;
        } else {
            hi = mid;
        }
        if hi - lo < 1e-12 * hi.max(1.0) {
            break;
        }
    }
    0.5 * (lo + hi)
}

// The Newton inversion that replaced the bracket-and-bisect solver in
// PR 7, checked against the retired solver kept as an oracle. The
// tolerance is a relative band plus a conditioning term ε/g′(r), because
// near y → 1 the curve is flat at f64 resolution and bisection cannot
// resolve r any tighter than that; below y ≈ 1e-9 the oracle's
// *absolute* bracket width is coarser than Newton's answer.
proptest! {
    /// Newton and bisection agree on g⁻¹ across the oracle's usable
    /// domain (y ≥ 1e-9; below that bisection's fixed absolute bracket
    /// is coarser than Newton's answer).
    #[test]
    fn invert_g_newton_matches_bisection(y in 1e-9f64..0.999_999_999) {
        use besync_baselines::freshness::invert_g;
        let rn = invert_g(y);
        let rb = invert_g_bisect(y);
        let conditioning = 4.0 * f64::EPSILON / (rb * (-rb).exp());
        prop_assert!(
            (rn - rb).abs() <= 1e-6 * rb + conditioning,
            "y={y}: newton {rn} vs bisection {rb}"
        );
    }

    /// The Newton-based allocation matches a reference built on the
    /// retired bisection inversion: same per-object frequencies to
    /// well under the allocator's own residual floor.
    #[test]
    fn allocate_matches_bisection_reference(
        rates in prop::collection::vec(0.01f64..5.0, 2..12),
        budget in 0.1f64..20.0,
    ) {
        let freqs = allocate(&rates, budget);

        // Reference: pure outer bisection on µ over the bisection
        // inversion — the shape of the pre-Newton implementation.
        let freq_for = |lambda: f64, mu: f64| -> f64 {
            let y = mu * lambda;
            if y >= 1.0 {
                return 0.0;
            }
            let r = invert_g_bisect(y);
            if r <= 0.0 { 0.0 } else { lambda / r }
        };
        let total = |mu: f64| -> f64 { rates.iter().map(|&l| freq_for(l, mu)).sum() };
        let mut hi = 1.0 / rates.iter().copied().fold(f64::INFINITY, f64::min);
        while total(hi) > budget {
            hi *= 2.0;
        }
        let mut lo = hi;
        while total(lo) < budget {
            lo /= 2.0;
        }
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if mid == lo || mid == hi {
                break;
            }
            if total(mid) > budget {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        // Compare against the µ = hi allocation before residual
        // spreading: each common frequency within a small relative
        // band, and the totals both at the budget.
        let sum: f64 = freqs.iter().sum();
        prop_assert!((sum - budget).abs() <= 1e-6 * budget);
        for (&l, &f) in rates.iter().zip(&freqs) {
            let reference = freq_for(l, hi);
            // Boundary objects absorb residual budget (up to their
            // representational jump), so only bound from below.
            prop_assert!(
                f + 1e-6 * budget >= reference - 1e-4 * (reference + 1.0),
                "λ={l}: allocated {f} below reference {reference}"
            );
        }
    }
}

/// The binary-detection MLE as it was before its score terms were
/// flattened and its bisection stopped at convergence: the `BTreeMap`
/// walk on every score call and all 100 bisection steps. It is the
/// bit-exact oracle for `BinaryChangeEstimator::estimate`.
fn binary_estimate_walk(obs: &[(f64, bool)], fallback: f64) -> f64 {
    use std::collections::BTreeMap;
    let mut buckets: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    let (mut polls, mut changes) = (0u64, 0u64);
    for &(interval, changed) in obs {
        polls += 1;
        let entry = buckets
            .entry((interval * 1e3).round().max(1.0) as u64)
            .or_insert((0, 0));
        if changed {
            changes += 1;
            entry.0 += 1;
        } else {
            entry.1 += 1;
        }
    }
    let score = |lambda: f64| -> f64 {
        let mut s = 0.0;
        for (&q, &(yes, no)) in &buckets {
            let interval = q as f64 / 1e3;
            if yes > 0 {
                let e = (-lambda * interval).exp();
                s += yes as f64 * interval * e / (1.0 - e).max(1e-300);
            }
            s -= no as f64 * interval;
        }
        s
    };
    if polls == 0 {
        return fallback;
    }
    if changes == 0 {
        let total_time: f64 = buckets
            .iter()
            .map(|(&q, &(_, no))| q as f64 / 1e3 * no as f64)
            .sum();
        return (0.5 / (polls as f64 + 0.5) / (total_time / polls as f64)).max(1e-9);
    }
    if changes == polls {
        let n = polls as f64;
        let mean_interval: f64 = buckets
            .iter()
            .map(|(&q, &(yes, no))| q as f64 / 1e3 * (yes + no) as f64)
            .sum::<f64>()
            / n;
        return -((0.5) / (n + 0.5)).ln() / mean_interval;
    }
    let mut lo = 1e-9;
    let mut hi = 1.0;
    while score(hi) > 0.0 {
        hi *= 4.0;
        if hi > 1e12 {
            break;
        }
    }
    for _ in 0..100 {
        let mid = 0.5 * (lo + hi);
        if score(mid) > 0.0 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// `g(r) = 1 − e^{−r}(1+r)` exactly as `freshness` evaluates it.
fn g_reference(r: f64) -> f64 {
    if r <= 0.25 {
        let c = [
            1.0 / 2.0,
            -1.0 / 3.0,
            1.0 / 8.0,
            -1.0 / 30.0,
            1.0 / 144.0,
            -1.0 / 840.0,
            1.0 / 5760.0,
            -1.0 / 45360.0,
            1.0 / 403200.0,
            -1.0 / 3991680.0,
            1.0 / 43545600.0,
        ];
        let mut p = c[10];
        for &ck in c[..10].iter().rev() {
            p = ck + r * p;
        }
        return r * r * p;
    }
    if r > 700.0 {
        return 1.0;
    }
    1.0 - (-r).exp() * (1.0 + r)
}

/// The Newton inversion of `g` with two `exp` calls per step (one for
/// `g′`, one inside `g`): the bit-exact oracle for `invert_g`.
fn invert_g_two_exp(y: f64) -> f64 {
    if y <= 0.0 {
        return 0.0;
    }
    let g_at_one = 1.0 - 2.0 / std::f64::consts::E;
    let mut r = if y < g_at_one {
        (2.0 * y).sqrt()
    } else {
        let l = -(-y).ln_1p();
        let r1 = l + (1.0 + l).ln();
        l + (1.0 + r1).ln()
    };
    for _ in 0..32 {
        let d = r * (-r).exp();
        if d < f64::MIN_POSITIVE {
            break;
        }
        let step = (g_reference(r) - y) / d;
        let next = r - step;
        if next <= 0.0 || next.is_nan() {
            r *= 0.5;
            continue;
        }
        r = next;
        if step.abs() <= 2.0 * f64::EPSILON * r {
            break;
        }
    }
    r
}

// Bit-exact oracles: the optimized solvers must return the very bits of
// the straightforward versions above, so the recorded CGM trajectories
// cannot move.
proptest! {
    /// Observation streams with intervals of 1 ms – 10 s. Half the
    /// streams draw from eight 1–8 s intervals plus sub-millisecond
    /// jitter, so quantized buckets collide; a third of all streams saw
    /// a change on every poll, a third on none.
    #[test]
    fn binary_estimate_matches_the_tree_walk_bit_for_bit(
        obs in prop::collection::vec(
            (
                prop_oneof![
                    0.001f64..10.0,
                    (1u32..9, 0.0f64..0.0004).prop_map(|(k, jitter)| k as f64 + jitter),
                ],
                0.0f64..1.0,
            ),
            1..120,
        ),
        mix in 0u32..3,
        fallback in 0.01f64..5.0,
    ) {
        let obs: Vec<(f64, bool)> = obs
            .into_iter()
            .map(|(interval, u)| (interval, match mix {
                0 => u < 0.5,
                1 => true,
                _ => false,
            }))
            .collect();
        let mut est = BinaryChangeEstimator::new();
        for &(interval, changed) in &obs {
            let o = if changed {
                ChangeObservation::Changed { age: interval / 2.0 }
            } else {
                ChangeObservation::Unchanged
            };
            est.observe(interval, o);
        }
        let got = est.estimate(fallback);
        let want = binary_estimate_walk(&obs, fallback);
        prop_assert_eq!(got.to_bits(), want.to_bits(), "{} vs {}", got, want);
    }

    /// y across (0, 1): log-uniform down to 1e-300, the series branch of
    /// g (r ≤ 0.25, i.e. y ≤ g(0.25) ≈ 0.0265), the √(2y) start below
    /// g(1) ≈ 0.264, the fixed-point start above it, and y within 1e-6
    /// of 1.
    #[test]
    fn invert_g_matches_the_two_exp_newton_bit_for_bit(
        y in prop_oneof![
            (-300.0f64..-6.0).prop_map(|e| 10f64.powf(e)),
            1e-6f64..0.03,
            0.03f64..0.27,
            0.26f64..1.0,
            0.999_999f64..1.0,
        ],
    ) {
        use besync_baselines::freshness::invert_g;
        let got = invert_g(y);
        let want = invert_g_two_exp(y);
        prop_assert_eq!(got.to_bits(), want.to_bits(), "y={}: {} vs {}", y, got, want);
    }
}
