//! Freshness-optimal refresh frequency allocation (CGM, SIGMOD 2000).
//!
//! An object updated by a Poisson process with rate `λ` and refreshed
//! every `1/f` seconds has time-averaged freshness
//!
//! ```text
//! F(λ, f) = (f/λ)·(1 − e^{−λ/f})
//! ```
//!
//! CGM's policy maximizes `Σᵢ F(λᵢ, fᵢ)` subject to `Σᵢ fᵢ = B`. At the
//! optimum all objects with positive frequency share a common marginal
//! gain `∂F/∂f = µ` (the Lagrange multiplier the paper's §6.3 refers to:
//! "controlled by a numeric parameter µ, which was shown not to be
//! solvable mathematically"). Famously, the optimal allocation gives
//! *zero* frequency to objects that change too fast (`λ ≥ 1/µ`): they are
//! hopeless and the bandwidth is better spent elsewhere.
//!
//! We solve the system numerically: for a candidate µ, each `fᵢ(µ)`
//! follows from inverting the strictly monotone marginal `g(r) = 1 −
//! e^{−r}(1+r)` (with `r = λ/f`), and µ itself is found by safeguarded
//! Newton, then bisection to one ulp, on the monotone map `µ ↦ Σᵢ fᵢ(µ)`.

/// Time-averaged freshness of an object with Poisson rate `lambda`
/// refreshed at frequency `freq` (refreshes/second).
pub fn freshness(lambda: f64, freq: f64) -> f64 {
    debug_assert!(lambda >= 0.0 && freq >= 0.0);
    if freq <= 0.0 {
        return 0.0;
    }
    if lambda <= 0.0 {
        return 1.0;
    }
    let r = lambda / freq;
    // (f/λ)(1 − e^{−λ/f}) computed stably via expm1.
    -(-r).exp_m1() / r
}

/// The marginal freshness gain `∂F/∂f = g(λ/f)/λ` where
/// `g(r) = 1 − e^{−r}(1+r)`.
pub fn marginal_gain(lambda: f64, freq: f64) -> f64 {
    debug_assert!(lambda > 0.0);
    if freq <= 0.0 {
        // Limit as f → 0: full marginal value 1/λ.
        return 1.0 / lambda;
    }
    let r = lambda / freq;
    g(r) / lambda
}

#[inline]
fn g(r: f64) -> f64 {
    if r <= 0.25 {
        // Direct evaluation cancels catastrophically for small r
        // (g(r) ≈ r²/2 computed as 1 − (1 − r²/2 + …)); the Taylor
        // series g(r) = Σₙ≥₂ (−1)ⁿ(n−1)/n!·rⁿ is exact to f64 here
        // (the first dropped term, 12/13!·r¹³, is < 3e-17 relative at
        // r = 0.25).
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

/// `g(1) = 1 − 2/e`: the split between the small-`y` and large-`y`
/// initial guesses in [`invert_g`].
const G_AT_ONE: f64 = 1.0 - 2.0 / std::f64::consts::E;

/// Inverts `g(r) = y` for `y ∈ [0, 1)` by Newton's method. `g` is
/// strictly increasing with `g(0) = 0`, `g(∞) = 1`, and
/// `g′(r) = r·e^{−r}`.
///
/// The initial guess is the leading series term `r ≈ √(2y)` below
/// `g(1)` and two sweeps of the contraction `r = −ln(1−y) + ln(1+r)`
/// (the exact rearrangement of `g(r) = y`) above it; Newton then
/// converges in about 6 steps (6.2 per call, averaged over the Fig. 6
/// grid's CGM re-allocations). Debug builds check the residual
/// `g(r) − y` of every result; `tests/props.rs` compares against the
/// retired bisection solver, and bit for bit against the two-`exp`
/// Newton step this one replaced.
#[doc(hidden)]
pub fn invert_g(y: f64) -> f64 {
    debug_assert!((0.0..1.0).contains(&y));
    if y <= 0.0 {
        return 0.0;
    }
    let mut r = if y < G_AT_ONE {
        (2.0 * y).sqrt()
    } else {
        let l = -(-y).ln_1p();
        let r1 = l + (1.0 + l).ln();
        l + (1.0 + r1).ln()
    };
    for _ in 0..32 {
        let e = (-r).exp();
        let d = r * e;
        if d < f64::MIN_POSITIVE {
            // g′ underflows only for r ≳ 745 (y within an ulp of 1);
            // the fixed-point initializer is already converged there.
            break;
        }
        // On g's direct branch, reuse e^{−r}: the same expression g
        // evaluates, so the same bits, at one `exp` per step.
        let gr = if r > 0.25 && r <= 700.0 {
            1.0 - e * (1.0 + r)
        } else {
            g(r)
        };
        let step = (gr - y) / d;
        let next = r - step;
        if next <= 0.0 || next.is_nan() {
            // A wild first step (possible only from a poor bracket of
            // the convex region) is damped instead of trusted.
            r *= 0.5;
            continue;
        }
        r = next;
        if step.abs() <= 2.0 * f64::EPSILON * r {
            break;
        }
    }
    // The residual is judged against what g can resolve: a relative
    // band in r carried through the slope g′(r) = r·e^{−r}, plus g's own
    // evaluation noise — as y → 1 the curve is flat at f64 resolution and
    // *any* r in a wide range satisfies g(r) = y to the ulp.
    debug_assert!(
        (g(r) - y).abs() <= 1e-6 * r * r * (-r).exp() + 4.0 * f64::EPSILON,
        "invert_g({y}) = {r} leaves residual {}",
        g(r) - y
    );
    r
}

/// The frequency `f(µ)` at which an object with rate `lambda` has marginal
/// gain exactly `mu` (zero if even `f → 0⁺` cannot reach `mu`, i.e. the
/// object changes too fast to be worth refreshing).
pub fn frequency_for_multiplier(lambda: f64, mu: f64) -> f64 {
    debug_assert!(lambda > 0.0 && mu > 0.0);
    let y = mu * lambda;
    if y >= 1.0 {
        return 0.0; // λ ≥ 1/µ: never refresh.
    }
    let r = invert_g(y);
    if r <= 0.0 {
        return 0.0;
    }
    lambda / r
}

/// Computes the freshness-optimal frequencies for `rates` under a total
/// budget of `budget` refreshes/second. Zero-rate objects get zero
/// frequency (they are always fresh).
///
/// # Panics
///
/// Panics if `budget` is not finite and non-negative.
pub fn allocate(rates: &[f64], budget: f64) -> Vec<f64> {
    assert!(budget.is_finite() && budget >= 0.0, "bad budget {budget}");
    let n = rates.len();
    if n == 0 || budget == 0.0 {
        return vec![0.0; n];
    }
    let active: Vec<usize> = (0..n).filter(|&i| rates[i] > 0.0).collect();
    if active.is_empty() {
        return vec![0.0; n];
    }

    // Only the *comparison* against the budget steers the search, and the
    // summands are non-negative, so the f64 partial sum is monotone
    // non-decreasing: once it exceeds the budget the full sum would too,
    // and the remaining (expensive, `invert_g`-backed) terms can be
    // skipped. Returning ∞ then keeps both comparisons below
    // (`> budget`, `< budget`) bit-identical to the full sum's. This is
    // the hot path of the CGM re-allocation step — with ~2k objects it is
    // what bounds figure-regeneration throughput, not the event loop.
    let total_for = |mu: f64| -> f64 {
        let mut sum = 0.0;
        for &i in &active {
            sum += frequency_for_multiplier(rates[i], mu);
            if sum > budget {
                return f64::INFINITY;
            }
        }
        sum
    };

    // Σf(µ) and its slope in one pass, for Newton. No early exit here —
    // the derivative is needed in full. With r = r(µλ) from `invert_g`,
    // dfᵢ/dµ = −λᵢ²/(rᵢ²·g′(rᵢ)), and at the root e^{−r} = (1−y)/(1+r)
    // (rearranging g(r) = y), so g′ = r·e^{−r} costs no exp call.
    let total_and_slope = |mu: f64| -> (f64, f64) {
        let mut sum = 0.0;
        let mut slope = 0.0;
        for &i in &active {
            let lambda = rates[i];
            let y = mu * lambda;
            if y >= 1.0 {
                continue;
            }
            let r = invert_g(y);
            if r <= 0.0 {
                continue;
            }
            sum += lambda / r;
            slope -= lambda * lambda * (1.0 + r) / (r * r * r * (1.0 - y));
        }
        (sum, slope)
    };

    // Σf(µ) is decreasing in µ. Bracket the root: grow µ until the total
    // is under budget, shrink until over.
    let mut hi = 1.0
        / rates
            .iter()
            .copied()
            .filter(|&r| r > 0.0)
            .fold(f64::INFINITY, f64::min);
    while total_for(hi) > budget {
        hi *= 2.0;
        if hi > 1e300 {
            break;
        }
    }
    let mut lo = hi;
    while total_for(lo) < budget {
        lo /= 2.0;
        if lo < 1e-300 {
            break;
        }
    }
    // Safeguarded Newton inside the bracket. Every iterate lands
    // strictly inside (lo, hi) and updates the matching side, so the
    // bracket invariant — total(lo) > budget ≥ total(hi), modulo the
    // degenerate-bracket escapes above — is maintained throughout; a
    // Newton target outside the bracket falls back to its midpoint.
    // A call takes about 17 passes (16.7 under CGM1 and 17.5 under CGM2,
    // averaged over the Fig. 6 grid's re-allocations). The cap only
    // matters when the budget lands inside one of Σf's representational
    // jumps (see below), where the iterates hop across the jump and
    // shrink the bracket geometrically instead. Once a Newton step is
    // within an ulp of µ, `tighten` closes the bracket's far end.
    let mut mu = 0.5 * (lo + hi);
    for _ in 0..64 {
        let (sum, slope) = total_and_slope(mu);
        if sum > budget {
            lo = mu;
        } else {
            hi = mu;
        }
        if hi - lo <= 2.0 * f64::EPSILON * hi {
            break;
        }
        if slope >= 0.0 {
            // All objects shut off (or none active): no gradient to
            // follow.
            mu = 0.5 * (lo + hi);
            continue;
        }
        let step = (budget - sum) / slope;
        if step.abs() <= f64::EPSILON * mu {
            (lo, hi) = tighten(total_for, budget, mu, lo, hi);
            break;
        }
        let next = mu + step;
        mu = if next > lo && next < hi {
            next
        } else {
            0.5 * (lo + hi)
        };
    }
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        // Once the midpoint collides with an endpoint the bracket is one
        // ulp wide: this iteration's assignment is the last that can
        // change anything, and every later iteration would recompute the
        // same midpoint and repeat the same no-op. Performing it and
        // breaking is bit-identical to running out the original 200.
        let converged = mid == lo || mid == hi;
        if total_for(mid) > budget {
            lo = mid;
        } else {
            hi = mid;
        }
        if converged {
            break;
        }
    }
    // Evaluate on the under-budget side. Σf(µ) has representational jump
    // discontinuities in f64 wherever an object sits at its shut-off
    // boundary (f(µ) → 0 only logarithmically as µλ → 1, so the last
    // representable step is a jump of ≈ λ/40), and the budget may land
    // inside such a jump.
    let mu = hi;
    let mut freqs = vec![0.0; n];
    let mut sum = 0.0;
    for &i in &active {
        freqs[i] = frequency_for_multiplier(rates[i], mu);
        sum += freqs[i];
    }
    // The residual belongs to the boundary objects: exactly those whose
    // frequency jumps across the bisection bracket. At the boundary the
    // marginal-at-zero is 1/λ = µ, i.e. any residual they absorb (below
    // their jump size) keeps their marginal equal to everyone else's —
    // the KKT-optimal destination for the leftover budget.
    let mut residual = (budget - sum).max(0.0);
    let floor = 1e-12 * budget.max(1.0);
    if residual > floor {
        let mut boundary: Vec<(usize, f64)> = active
            .iter()
            .map(|&i| {
                let jump = frequency_for_multiplier(rates[i], lo) - freqs[i];
                (i, jump)
            })
            .filter(|&(_, jump)| jump > floor)
            .collect();
        // Largest jumps first; fill each up to its jump size.
        boundary.sort_by(|a, b| b.1.total_cmp(&a.1));
        for &(i, jump) in &boundary {
            let give = residual.min(jump);
            freqs[i] += give;
            residual -= give;
            if residual <= floor {
                break;
            }
        }
        // Anything still left (no boundary found: pure bisection slack)
        // goes to the highest-marginal object.
        if residual > floor {
            let best = active
                .iter()
                .copied()
                .max_by(|&a, &b| {
                    marginal_gain(rates[a], freqs[a]).total_cmp(&marginal_gain(rates[b], freqs[b]))
                })
                .expect("active set non-empty");
            freqs[best] += residual;
        }
    }
    freqs
}

/// Closes the far end of a bracket `(lo, hi)` on the decreasing map
/// `total` onto `mu`, the end Newton converged to (`mu` is `lo` when
/// `total(mu) > budget`, else `hi`).
///
/// Newton converging from one side leaves the far end loose, and the
/// final bisection in [`allocate`] would spend ~20 passes closing it.
/// Probing outward from `mu` — 2ε·µ first, ×4 per probe — finds a far
/// end a few ulps away that keeps `total(lo) > budget ≥ total(hi)`.
/// If no probe inside the bracket verifies (the budget sits in one of
/// Σf's jumps, which Newton has already bisected tight), the bracket is
/// returned as it was.
fn tighten(total: impl Fn(f64) -> f64, budget: f64, mu: f64, lo: f64, hi: f64) -> (f64, f64) {
    let mut delta = 2.0 * f64::EPSILON * mu;
    if mu == lo {
        while mu + delta < hi {
            if total(mu + delta) <= budget {
                return (lo, mu + delta);
            }
            delta *= 4.0;
        }
    } else {
        while mu - delta > lo {
            if total(mu - delta) > budget {
                return (mu - delta, hi);
            }
            delta *= 4.0;
        }
    }
    (lo, hi)
}

/// Total freshness `Σ F(λᵢ, fᵢ)` of an allocation (for tests and
/// diagnostics).
pub fn total_freshness(rates: &[f64], freqs: &[f64]) -> f64 {
    rates
        .iter()
        .zip(freqs)
        .map(|(&l, &f)| freshness(l, f))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn freshness_limits() {
        assert_eq!(freshness(1.0, 0.0), 0.0);
        assert_eq!(freshness(0.0, 1.0), 1.0);
        // Refreshing much faster than updates → nearly always fresh.
        assert!(freshness(0.01, 10.0) > 0.999);
        // Refreshing much slower → nearly always stale.
        assert!(freshness(10.0, 0.01) < 0.01);
        // Monotone in f.
        assert!(freshness(1.0, 2.0) > freshness(1.0, 1.0));
    }

    #[test]
    fn freshness_known_value() {
        // F(λ=1, f=1) = 1 − e^{−1} ≈ 0.63212.
        assert!((freshness(1.0, 1.0) - (1.0 - (-1.0f64).exp())).abs() < 1e-12);
    }

    #[test]
    fn invert_g_round_trips() {
        for y in [1e-6, 0.01, 0.3, 0.7, 0.99, 0.999999] {
            let r = invert_g(y);
            assert!((g(r) - y).abs() < 1e-9, "y={y} r={r} g={}", g(r));
        }
    }

    #[test]
    fn marginal_matches_numeric_derivative() {
        for (l, f) in [(0.5, 1.0), (2.0, 0.3), (0.05, 5.0)] {
            let h = 1e-6;
            let numeric = (freshness(l, f + h) - freshness(l, f - h)) / (2.0 * h);
            let analytic = marginal_gain(l, f);
            assert!(
                (numeric - analytic).abs() < 1e-6,
                "λ={l} f={f}: {numeric} vs {analytic}"
            );
        }
    }

    #[test]
    fn allocation_meets_budget() {
        let rates = [0.1, 0.5, 1.0, 2.0, 0.01];
        let freqs = allocate(&rates, 3.0);
        let sum: f64 = freqs.iter().sum();
        assert!((sum - 3.0).abs() < 1e-9, "sum {sum}");
        assert!(freqs.iter().all(|&f| f >= 0.0));
    }

    #[test]
    fn equal_rates_get_equal_frequencies() {
        let rates = [0.3; 6];
        let freqs = allocate(&rates, 6.0);
        for &f in &freqs {
            assert!((f - 1.0).abs() < 1e-9, "f={f}");
        }
    }

    #[test]
    fn kkt_marginals_equalized() {
        let rates = [0.05, 0.2, 0.7, 1.5];
        let budget = 2.0;
        let freqs = allocate(&rates, budget);
        let margins: Vec<f64> = rates
            .iter()
            .zip(&freqs)
            .filter(|&(_, &f)| f > 1e-9)
            .map(|(&l, &f)| marginal_gain(l, f))
            .collect();
        assert!(margins.len() >= 2);
        let mu = margins[0];
        for &m in &margins[1..] {
            assert!((m - mu).abs() < mu * 1e-3, "marginals differ: {margins:?}");
        }
        // Shut-off objects (if any) must have marginal-at-zero ≤ µ.
        for (&l, &f) in rates.iter().zip(&freqs) {
            if f <= 1e-9 {
                assert!(marginal_gain(l, 0.0) <= mu * (1.0 + 1e-6));
            }
        }
    }

    #[test]
    fn fast_changers_are_shut_off_under_tight_budget() {
        // CGM's hallmark: with scarce bandwidth, very fast changers get 0.
        let rates = [0.01, 0.02, 50.0];
        let freqs = allocate(&rates, 0.5);
        assert_eq!(freqs[2], 0.0, "hopeless object should be shut off");
        assert!(freqs[0] > 0.0 && freqs[1] > 0.0);
    }

    #[test]
    fn beats_uniform_and_proportional_allocations() {
        let rates = [0.02, 0.1, 0.5, 1.0, 3.0];
        let budget = 2.5;
        let optimal = allocate(&rates, budget);
        let uniform = vec![budget / rates.len() as f64; rates.len()];
        let rate_sum: f64 = rates.iter().sum();
        let proportional: Vec<f64> = rates.iter().map(|&l| budget * l / rate_sum).collect();
        let f_opt = total_freshness(&rates, &optimal);
        let f_uni = total_freshness(&rates, &uniform);
        let f_pro = total_freshness(&rates, &proportional);
        assert!(f_opt >= f_uni - 1e-9, "optimal {f_opt} < uniform {f_uni}");
        assert!(
            f_opt >= f_pro - 1e-9,
            "optimal {f_opt} < proportional {f_pro}"
        );
        // And (CGM's famous result) uniform beats proportional here.
        assert!(f_uni > f_pro);
    }

    #[test]
    fn optimal_survives_random_perturbations() {
        // Local optimality: moving budget between any pair of objects
        // cannot increase total freshness.
        let rates = [0.05, 0.3, 0.9, 2.0];
        let budget = 1.5;
        let freqs = allocate(&rates, budget);
        let base = total_freshness(&rates, &freqs);
        let eps = 1e-4;
        for i in 0..rates.len() {
            for j in 0..rates.len() {
                if i == j || freqs[i] < eps {
                    continue;
                }
                let mut alt = freqs.to_vec();
                alt[i] -= eps;
                alt[j] += eps;
                assert!(
                    total_freshness(&rates, &alt) <= base + 1e-9,
                    "transfer {i}→{j} improved freshness"
                );
            }
        }
    }

    #[test]
    fn tighten_closes_the_loose_end_onto_mu() {
        // A decreasing stand-in for Σf that crosses the budget at µ = 2.
        let total = |mu: f64| 10.0 / mu;
        let budget = 5.0;
        let below = f64::from_bits(2.0f64.to_bits() - 1);
        assert!(total(below) > budget && total(2.0) <= budget);
        // Newton stopped at `lo` (far end 8) and at `hi` (far end 0.5).
        for (mu, lo, hi) in [(below, below, 8.0), (2.0, 0.5, 2.0)] {
            let (lo, hi) = tighten(total, budget, mu, lo, hi);
            assert!(lo <= mu && mu <= hi, "µ={mu} outside [{lo}, {hi}]");
            assert!(hi - lo <= 8.0 * f64::EPSILON * mu, "[{lo}, {hi}] is loose");
            assert!(total(lo) > budget && budget >= total(hi), "[{lo}, {hi}]");
        }
        // No probe inside the bracket verifies: the bracket is kept.
        assert_eq!(tighten(|_| 10.0, budget, 1.0, 1.0, 1.5), (1.0, 1.5));
    }

    #[test]
    fn zero_budget_zero_frequencies() {
        assert_eq!(allocate(&[1.0, 2.0], 0.0), vec![0.0, 0.0]);
        assert!(allocate(&[], 5.0).is_empty());
    }
}
