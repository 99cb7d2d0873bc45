//! Cross-crate integration tests of the cooperative synchronization
//! system: the §5 protocol end to end, against the §3.3 ideal, over real
//! workload generators and the network substrate.

use besync::cache::FeedbackTargeting;
use besync::config::SystemConfig;
use besync::priority::{PolicyKind, RateEstimator};
use besync::{CoopSystem, IdealSystem};
use besync_data::Metric;
use besync_workloads::generators::{fig6_workload, random_walk_poisson, PoissonWorkloadOptions};
use besync_workloads::WorkloadSpec;

fn spec(sources: u32, n: u32, seed: u64) -> WorkloadSpec {
    random_walk_poisson(
        PoissonWorkloadOptions {
            sources,
            objects_per_source: n,
            rate_range: (0.05, 0.8),
            weight_range: (1.0, 1.0),
            fluctuating_weights: false,
        },
        seed,
    )
}

fn cfg(cache_bw: f64, source_bw: f64) -> SystemConfig {
    SystemConfig {
        metric: Metric::Staleness,
        cache_bandwidth_mean: cache_bw,
        source_bandwidth_mean: source_bw,
        warmup: 50.0,
        measure: 300.0,
        ..SystemConfig::default()
    }
}

#[test]
fn ideal_lower_bounds_the_pragmatic_algorithm() {
    for seed in [1, 2, 3] {
        for bw in [5.0, 20.0, 60.0] {
            let ideal = IdealSystem::new(cfg(bw, 10.0), spec(5, 10, seed)).run();
            let ours = CoopSystem::new(cfg(bw, 10.0), spec(5, 10, seed)).run();
            assert!(
                ours.mean_divergence() + 0.02 >= ideal.mean_divergence(),
                "seed {seed} bw {bw}: ours {} below ideal {}",
                ours.mean_divergence(),
                ideal.mean_divergence()
            );
        }
    }
}

#[test]
fn identical_workload_across_schedulers() {
    // Update sequences are driven by per-object RNG streams, so both
    // schedulers must observe exactly the same number of updates.
    let a = IdealSystem::new(cfg(10.0, 5.0), spec(4, 8, 9)).run();
    let b = CoopSystem::new(cfg(10.0, 5.0), spec(4, 8, 9)).run();
    assert_eq!(a.updates_processed, b.updates_processed);
}

#[test]
fn positive_feedback_avoids_flooding_under_bandwidth_cliff() {
    // Plentiful source bandwidth + starved cache link: negative-feedback
    // designs flood here; the §5 design must keep the queue bounded.
    let mut c = cfg(1.0, 100.0);
    c.measure = 500.0;
    let report = CoopSystem::new(c, spec(10, 10, 4)).run();
    assert!(
        report.max_cache_queue < 150,
        "cache queue peaked at {} — flooding",
        report.max_cache_queue
    );
    // Thresholds must have risen to throttle the sources.
    assert!(report.threshold_stats.mean() > 1.0);
}

#[test]
fn feedback_fills_surplus_bandwidth() {
    // Over-provisioned cache: feedback should flow and thresholds drop,
    // pushing refreshes through and divergence toward zero.
    let report = CoopSystem::new(cfg(500.0, 100.0), spec(5, 10, 5)).run();
    assert!(report.feedback_messages > 0);
    assert!(
        report.mean_divergence() < 0.1,
        "divergence {} despite surplus",
        report.mean_divergence()
    );
}

#[test]
fn all_feedback_targeting_policies_work() {
    for targeting in [
        FeedbackTargeting::HighestThreshold,
        FeedbackTargeting::RoundRobin,
        FeedbackTargeting::Random,
    ] {
        let mut c = cfg(20.0, 10.0);
        c.feedback_targeting = targeting;
        let r = CoopSystem::new(c, spec(5, 10, 8)).run();
        assert!(r.mean_divergence().is_finite());
        assert!(r.refreshes_delivered > 0);
    }
}

#[test]
fn closed_form_policy_with_estimators() {
    for estimator in [
        RateEstimator::Known,
        RateEstimator::LongRun,
        RateEstimator::SinceRefresh,
    ] {
        let mut c = cfg(15.0, 8.0);
        c.policy = PolicyKind::PoissonClosedForm;
        c.estimator = estimator;
        let r = CoopSystem::new(c, fig6_workload(5, 10, 11)).run();
        assert!(
            r.mean_divergence() < 0.9,
            "{estimator:?}: divergence {}",
            r.mean_divergence()
        );
    }
}

#[test]
fn bound_policy_runs_in_both_systems() {
    let s = spec(3, 5, 13);
    let rates: Vec<f64> = s.rates.clone();
    let mut c = cfg(5.0, 3.0);
    c.policy = PolicyKind::Bound;
    c.bound_rates = Some(rates.clone());
    let coop = CoopSystem::new(c.clone(), s.clone()).run();
    let ideal = IdealSystem::new(c, s).run();
    assert!(coop.refreshes_sent > 0);
    assert!(ideal.refreshes_sent > 0);
}

#[test]
fn lag_metric_accounts_queued_snapshots() {
    // Tight cache link → messages queue → snapshots arrive stale → lag
    // divergence stays positive even right after refreshes.
    let mut c = cfg(2.0, 50.0);
    c.metric = Metric::Lag;
    let r = CoopSystem::new(c, spec(5, 10, 14)).run();
    assert!(r.mean_queue_wait >= 0.0);
    assert!(r.divergence.mean_unweighted > 0.0);
}
