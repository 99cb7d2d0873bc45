//! §4.3 — empirical validation of the priority function.
//!
//! Two in-text results:
//!
//! * **Uniform** (E-VAL-U): one source, `n ∈ {1..1000}` objects, unit
//!   weights, per-second update probabilities drawn uniformly, bandwidth
//!   10 refreshes/second. The paper reports the area priority and the
//!   naive weighted-divergence priority within 10% of each other across
//!   all runs and metrics.
//! * **Skewed** (E-VAL-S): 100 objects, half weighted 10×, an independent
//!   half updating every second vs. 0.01/second. The naive priority
//!   degrades time-averaged divergence by 64% (staleness), 74% (lag) and
//!   84% (deviation) relative to the paper's priority.
//!
//! Both run the single-source idealized scheduler (§4.3 predates the
//! threshold machinery) with each policy on identical update sequences.

use besync::config::SystemConfig;
use besync::priority::{PolicyKind, RateEstimator};
use besync::IdealSystem;
use besync_data::Metric;
use besync_sweep::{default_threads, parallel_map};
use besync_workloads::generators::{skewed_validation, uniform_validation};
use besync_workloads::WorkloadSpec;

use crate::output::{fnum, Row};
use crate::Mode;

/// One comparison cell: a workload size/metric with both policies.
#[derive(Debug, Clone)]
pub struct ValidateRow {
    /// Which §4.3 experiment: "uniform" or "skew".
    pub experiment: &'static str,
    /// Divergence metric.
    pub metric: &'static str,
    /// Number of objects.
    pub n: u32,
    /// Weighted mean divergence under the paper's (area) priority.
    pub ours: f64,
    /// Weighted mean divergence under the naive priority.
    pub simple: f64,
    /// Percent increase of naive over ours.
    pub increase_pct: f64,
}

impl Row for ValidateRow {
    fn headers() -> Vec<&'static str> {
        vec!["experiment", "metric", "n", "ours", "simple", "increase_%"]
    }
    fn fields(&self) -> Vec<String> {
        vec![
            self.experiment.to_string(),
            self.metric.to_string(),
            self.n.to_string(),
            fnum(self.ours),
            fnum(self.simple),
            format!("{:+.1}", self.increase_pct),
        ]
    }
}

fn measure_for(mode: Mode) -> f64 {
    match mode {
        Mode::Quick => 300.0,
        Mode::Standard => 1500.0,
        Mode::Full => 5000.0, // the paper's horizon
    }
}

fn ns_for(mode: Mode) -> Vec<u32> {
    match mode {
        Mode::Quick => vec![10, 100],
        Mode::Standard => vec![1, 10, 100, 1000],
        Mode::Full => vec![1, 10, 100, 1000],
    }
}

/// Runs the area-vs-simple comparison on one workload.
pub fn run_pair(spec: &WorkloadSpec, metric: Metric, measure: f64) -> (f64, f64) {
    let cfg = |policy: PolicyKind| SystemConfig {
        metric,
        policy,
        estimator: RateEstimator::Known,
        // "bandwidth that supports up to 10 refreshes per second"; a
        // single source, so only the cache side binds.
        cache_bandwidth_mean: 10.0,
        source_bandwidth_mean: 1e9,
        warmup: measure * 0.2,
        measure,
        ..SystemConfig::default()
    };
    let ours = IdealSystem::new(cfg(PolicyKind::Area), spec.clone())
        .run()
        .divergence
        .mean_weighted;
    let simple = IdealSystem::new(cfg(PolicyKind::SimpleWeighted), spec.clone())
        .run()
        .divergence
        .mean_weighted;
    (ours, simple)
}

/// Runs the uniform-parameter validation (E-VAL-U).
pub fn run_uniform(mode: Mode, seed: u64) -> Vec<ValidateRow> {
    let measure = measure_for(mode);
    let jobs: Vec<(u32, Metric)> = ns_for(mode)
        .into_iter()
        .flat_map(|n| Metric::all_three().into_iter().map(move |m| (n, m)))
        .collect();
    parallel_map(jobs, default_threads(), |(n, metric)| {
        let spec = uniform_validation(n, seed ^ (n as u64));
        let (ours, simple) = run_pair(&spec, metric, measure);
        ValidateRow {
            experiment: "uniform",
            metric: metric.name(),
            n,
            ours,
            simple,
            increase_pct: pct_increase(ours, simple),
        }
    })
}

/// Runs the skewed-parameter validation (E-VAL-S).
pub fn run_skew(mode: Mode, seed: u64) -> Vec<ValidateRow> {
    let measure = measure_for(mode);
    // Average several seeds so the reported percentages are stable.
    let reps: u64 = match mode {
        Mode::Quick => 2,
        Mode::Standard => 5,
        Mode::Full => 10,
    };
    let jobs: Vec<Metric> = Metric::all_three().to_vec();
    parallel_map(jobs, default_threads(), |metric| {
        let mut ours_sum = 0.0;
        let mut simple_sum = 0.0;
        for rep in 0..reps {
            let spec = skewed_validation(100, seed.wrapping_add(rep * 7919));
            let (ours, simple) = run_pair(&spec, metric, measure);
            ours_sum += ours;
            simple_sum += simple;
        }
        let ours = ours_sum / reps as f64;
        let simple = simple_sum / reps as f64;
        ValidateRow {
            experiment: "skew",
            metric: metric.name(),
            n: 100,
            ours,
            simple,
            increase_pct: pct_increase(ours, simple),
        }
    })
}

fn pct_increase(ours: f64, simple: f64) -> f64 {
    if ours <= 0.0 {
        0.0
    } else {
        (simple - ours) / ours * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_policies_are_close() {
        let rows = run_uniform(Mode::Quick, 11);
        assert_eq!(rows.len(), 6);
        for r in &rows {
            // The paper reports <10%; allow slack at quick scale.
            assert!(
                r.increase_pct.abs() < 25.0,
                "{} n={} diverged by {:+.1}%",
                r.metric,
                r.n,
                r.increase_pct
            );
        }
    }

    #[test]
    fn skew_makes_simple_policy_worse() {
        let rows = run_skew(Mode::Quick, 13);
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(
                r.increase_pct > 15.0,
                "{}: simple should lose clearly under skew, got {:+.1}%",
                r.metric,
                r.increase_pct
            );
        }
    }
}
