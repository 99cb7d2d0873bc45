//! The paper's workload configurations.
//!
//! Each generator reproduces a parameter assignment described in the
//! evaluation:
//!
//! * [`uniform_validation`] — §4.3, first experiment: one source, unit
//!   weights, per-second update probabilities drawn uniformly.
//! * [`skewed_validation`] — §4.3, second experiment: 100 objects, a
//!   random half weighted 10× the rest, an *independently* chosen half
//!   updated every second while the rest update with probability 0.01.
//! * [`random_walk_poisson`] — §6.1/§6.2: `m × n` objects with Poisson
//!   rates and randomly-assigned fluctuating sine-wave weights.
//! * [`fig6_workload`] — §6.3: Poisson rates, unit weights (the CGM
//!   comparison is unweighted staleness).

use besync_data::ids::ObjectLayout;
use besync_data::WeightProfile;
use besync_sim::rng::{self, streams};
use besync_sim::Wave;
use rand::Rng;

use crate::process::UpdateProcess;
use crate::spec::{GapBuffer, Updater, WorkloadSpec};
use crate::walk::RandomWalk;

/// §4.3 uniform experiment: a single source with `n` objects, all weights
/// 1, each object updated each second with probability drawn uniformly
/// from `(0, 1)`.
pub fn uniform_validation(n: u32, seed: u64) -> WorkloadSpec {
    let layout = ObjectLayout::new(1, n);
    let mut params = rng::stream_rng(seed, streams::PARAMS);
    let probs: Vec<f64> = (0..n).map(|_| params.gen_range(0.005..1.0)).collect();
    WorkloadSpec::stochastic(
        layout,
        seed,
        |o| UpdateProcess::Bernoulli {
            p: probs[o.index()],
        },
        |_| RandomWalk::unit(),
        |_| WeightProfile::unit(),
        |_| 0.0,
    )
}

/// §4.3 skew experiment: `n` objects (the paper uses 100) on one source.
/// A randomly-selected half get weight 10, the rest weight 1; an
/// independently-selected half update with probability 0.01 per second,
/// the rest every second.
pub fn skewed_validation(n: u32, seed: u64) -> WorkloadSpec {
    let layout = ObjectLayout::new(1, n);
    let mut params = rng::stream_rng(seed, streams::PARAMS);
    // Random halves: shuffle indices and split.
    let half = (n / 2) as usize;
    let mut weight_order: Vec<u32> = (0..n).collect();
    let mut rate_order: Vec<u32> = (0..n).collect();
    shuffle(&mut weight_order, &mut params);
    shuffle(&mut rate_order, &mut params);
    let mut heavy = vec![false; n as usize];
    for &i in &weight_order[..half] {
        heavy[i as usize] = true;
    }
    let mut slow = vec![false; n as usize];
    for &i in &rate_order[..half] {
        slow[i as usize] = true;
    }
    WorkloadSpec::stochastic(
        layout,
        seed,
        |o| UpdateProcess::Bernoulli {
            p: if slow[o.index()] { 0.01 } else { 1.0 },
        },
        |_| RandomWalk::unit(),
        |o| WeightProfile::constant(if heavy[o.index()] { 10.0 } else { 1.0 }),
        |_| 0.0,
    )
}

/// Options for the §6 random-walk/Poisson workloads.
#[derive(Debug, Clone, Copy)]
pub struct PoissonWorkloadOptions {
    /// Number of sources `m`.
    pub sources: u32,
    /// Objects per source `n`.
    pub objects_per_source: u32,
    /// Poisson rates are drawn uniformly from this range.
    pub rate_range: (f64, f64),
    /// Base weights are drawn uniformly from this range.
    pub weight_range: (f64, f64),
    /// Whether weights fluctuate as sine waves with randomly-assigned
    /// amplitudes and periods (§6).
    pub fluctuating_weights: bool,
}

impl Default for PoissonWorkloadOptions {
    fn default() -> Self {
        PoissonWorkloadOptions {
            sources: 10,
            objects_per_source: 10,
            rate_range: (0.01, 1.0),
            weight_range: (1.0, 10.0),
            fluctuating_weights: true,
        }
    }
}

/// Objects per chunk of the streaming §6 build: large enough to
/// amortize the loop bookkeeping, small enough that one chunk's rates,
/// updaters, and weights (a few MB) are all cache-warm while being
/// written.
const BUILD_CHUNK: usize = 65_536;

/// §6.1/§6.2 workload: Poisson update rates drawn uniformly, random
/// (optionally sine-fluctuating) weights, unit random-walk values.
///
/// Built directly rather than through [`WorkloadSpec::stochastic`]'s
/// closure protocol: at the ≥100k-object scale the bench `huge` scenario
/// runs, the intermediate rate/weight vectors plus the per-object
/// closure dispatch and bounds checks were a measurable fraction of
/// construction time.
///
/// Construction is *streaming*: the destination vectors are reserved
/// exactly once at full size and then filled in `BUILD_CHUNK`-object
/// chunks, rates and weights together per chunk. At the 1M-object `mega`
/// scale this keeps the pages being written plus both RNG states hot
/// instead of making two full cold passes over ~100 MB of spec, and the
/// working set beyond the (inherent) destination vectors stays O(chunk).
/// Bit-identity is preserved by construction: rates come from the
/// `PARAMS` stream and weights from the independent `WEIGHTS` stream, so
/// drawing them chunk-interleaved leaves each stream's draw *order*
/// untouched — every object gets exactly the values the two-pass build
/// produced.
pub fn random_walk_poisson(opts: PoissonWorkloadOptions, seed: u64) -> WorkloadSpec {
    let layout = ObjectLayout::new(opts.sources, opts.objects_per_source);
    let total = layout.total_objects() as usize;
    let mut params = rng::stream_rng(seed, streams::PARAMS);
    let mut wrng = rng::stream_rng(seed, streams::WEIGHTS);
    let (rlo, rhi) = opts.rate_range;
    assert!(rlo > 0.0 && rhi >= rlo, "bad rate range");
    let (wlo, whi) = opts.weight_range;
    assert!(wlo >= 0.0 && whi >= wlo, "bad weight range");
    let mut rates = Vec::with_capacity(total);
    let mut updaters = Vec::with_capacity(total);
    let mut weights = Vec::with_capacity(total);
    let mut remaining = total;
    while remaining > 0 {
        let chunk = remaining.min(BUILD_CHUNK);
        for _ in 0..chunk {
            let rate = params.gen_range(rlo..=rhi);
            rates.push(rate);
            updaters.push(Updater::Stochastic {
                process: UpdateProcess::Poisson { rate },
                walk: RandomWalk::unit(),
                gaps: GapBuffer::new(),
            });
        }
        for _ in 0..chunk {
            let base = wrng.gen_range(wlo..=whi);
            weights.push(if opts.fluctuating_weights {
                let amplitude = wrng.gen_range(0.0..0.9);
                let period = wrng.gen_range(100.0..2000.0);
                let phase = wrng.gen_range(0.0..std::f64::consts::TAU);
                WeightProfile::new(
                    Wave::with_period(base, amplitude, period, phase),
                    Wave::Constant(1.0),
                )
            } else {
                WeightProfile::constant(base)
            });
        }
        remaining -= chunk;
    }

    WorkloadSpec {
        layout,
        initial_values: vec![0.0; total],
        updaters,
        weights,
        rates,
        seed,
    }
}

/// §6.3 workload for the CGM comparison: Poisson rates drawn uniformly
/// from `(0, 1)`, unit weights (CGM minimizes *unweighted* staleness).
pub fn fig6_workload(sources: u32, objects_per_source: u32, seed: u64) -> WorkloadSpec {
    random_walk_poisson(
        PoissonWorkloadOptions {
            sources,
            objects_per_source,
            rate_range: (0.02, 1.0),
            weight_range: (1.0, 1.0),
            fluctuating_weights: false,
        },
        seed,
    )
}

/// Fisher–Yates shuffle (kept local to avoid a `rand` feature dependency
/// on `slice::shuffle`'s trait import at call sites).
fn shuffle<T, R: Rng + ?Sized>(xs: &mut [T], rng: &mut R) {
    for i in (1..xs.len()).rev() {
        let j = rng.gen_range(0..=i);
        xs.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use besync_sim::SimTime;

    #[test]
    fn uniform_validation_shape() {
        let spec = uniform_validation(50, 1);
        spec.validate().unwrap();
        assert_eq!(spec.total_objects(), 50);
        assert!(spec.rates.iter().all(|&r| (0.0..1.0).contains(&r)));
        assert!(spec
            .weights
            .iter()
            .all(|w| w.weight_at(SimTime::ZERO) == 1.0));
    }

    #[test]
    fn skewed_validation_halves() {
        let spec = skewed_validation(100, 2);
        spec.validate().unwrap();
        let heavy = spec
            .weights
            .iter()
            .filter(|w| w.weight_at(SimTime::ZERO) == 10.0)
            .count();
        assert_eq!(heavy, 50);
        let fast = spec.rates.iter().filter(|&&r| r == 1.0).count();
        assert_eq!(fast, 50);
        let slow = spec.rates.iter().filter(|&&r| r == 0.01).count();
        assert_eq!(slow, 50);
    }

    #[test]
    fn skew_halves_are_independent() {
        // Across seeds, the overlap of heavy∧fast should hover around 25;
        // perfectly correlated halves would give 0 or 50.
        let mut overlaps = Vec::new();
        for seed in 0..20 {
            let spec = skewed_validation(100, seed);
            let overlap = (0..100)
                .filter(|&i| {
                    spec.weights[i].weight_at(SimTime::ZERO) == 10.0 && spec.rates[i] == 1.0
                })
                .count();
            overlaps.push(overlap);
        }
        let mean = overlaps.iter().sum::<usize>() as f64 / overlaps.len() as f64;
        assert!((15.0..35.0).contains(&mean), "mean overlap {mean}");
    }

    #[test]
    fn poisson_workload_fluctuating_weights() {
        let spec = random_walk_poisson(PoissonWorkloadOptions::default(), 3);
        spec.validate().unwrap();
        assert_eq!(spec.total_objects(), 100);
        // At least some weights actually fluctuate.
        let moving = (0..100)
            .filter(|&i| {
                let w = &spec.weights[i];
                (w.weight_at(SimTime::new(0.0)) - w.weight_at(SimTime::new(137.0))).abs() > 1e-9
            })
            .count();
        assert!(moving > 50, "only {moving} weights fluctuate");
    }

    #[test]
    fn fig6_workload_is_unweighted() {
        let spec = fig6_workload(10, 10, 4);
        spec.validate().unwrap();
        assert!(spec
            .weights
            .iter()
            .all(|w| w.weight_at(SimTime::new(55.0)) == 1.0));
        assert!(spec.rates.iter().all(|&r| r > 0.0 && r <= 1.0));
    }

    #[test]
    fn generators_are_deterministic() {
        let a = skewed_validation(100, 7);
        let b = skewed_validation(100, 7);
        assert_eq!(a.rates, b.rates);
        let a = random_walk_poisson(PoissonWorkloadOptions::default(), 7);
        let b = random_walk_poisson(PoissonWorkloadOptions::default(), 7);
        assert_eq!(a.rates, b.rates);
    }
}
