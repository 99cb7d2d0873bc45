//! Integration tests pitting the cooperative systems against the CGM
//! baselines (the paper's §6.3 claims).

use besync::config::SystemConfig;
use besync::priority::{PolicyKind, RateEstimator};
use besync::{CoopSystem, IdealSystem};
use besync_baselines::freshness;
use besync_baselines::{CgmConfig, CgmSystem, CgmVariant};
use besync_data::Metric;
use besync_workloads::generators::fig6_workload;

fn coop_cfg(bandwidth: f64, policy: PolicyKind, estimator: RateEstimator) -> SystemConfig {
    SystemConfig {
        metric: Metric::Staleness,
        policy,
        estimator,
        cache_bandwidth_mean: bandwidth,
        source_bandwidth_mean: 1e9,
        warmup: 60.0,
        measure: 300.0,
        ..SystemConfig::default()
    }
}

fn cgm_cfg(bandwidth: f64, variant: CgmVariant) -> CgmConfig {
    CgmConfig {
        variant,
        cache_bandwidth_mean: bandwidth,
        warmup: 60.0,
        measure: 300.0,
        ..CgmConfig::default()
    }
}

#[test]
fn cooperation_beats_cache_driven_scheduling() {
    // The paper's headline claim across the mid-range of Figure 6.
    for fraction in [0.3, 0.5, 0.7] {
        let m = 10u32;
        let n = 10u32;
        let bandwidth = fraction * (m * n) as f64;
        let ours = CoopSystem::new(
            coop_cfg(
                bandwidth,
                PolicyKind::PoissonClosedForm,
                RateEstimator::LongRun,
            ),
            fig6_workload(m, n, 21),
        )
        .run();
        let cgm1 = CgmSystem::new(
            cgm_cfg(bandwidth, CgmVariant::Cgm1),
            fig6_workload(m, n, 21),
        )
        .run();
        let cgm2 = CgmSystem::new(
            cgm_cfg(bandwidth, CgmVariant::Cgm2),
            fig6_workload(m, n, 21),
        )
        .run();
        assert!(
            ours.mean_divergence() < cgm1.mean_divergence(),
            "f={fraction}: ours {} vs CGM1 {}",
            ours.mean_divergence(),
            cgm1.mean_divergence()
        );
        assert!(
            ours.mean_divergence() < cgm2.mean_divergence(),
            "f={fraction}: ours {} vs CGM2 {}",
            ours.mean_divergence(),
            cgm2.mean_divergence()
        );
    }
}

#[test]
fn ideal_cooperative_beats_ideal_cache_based() {
    // Even granting CGM free polling and oracle rates, cooperation wins:
    // sources know *when* updates happen, the cache can only schedule by
    // rate.
    for fraction in [0.3, 0.6] {
        let m = 10u32;
        let n = 10u32;
        let bandwidth = fraction * (m * n) as f64;
        let coop = IdealSystem::new(
            coop_cfg(
                bandwidth,
                PolicyKind::PoissonClosedForm,
                RateEstimator::Known,
            ),
            fig6_workload(m, n, 22),
        )
        .run();
        let cache = CgmSystem::new(
            cgm_cfg(bandwidth, CgmVariant::IdealCacheBased),
            fig6_workload(m, n, 22),
        )
        .run();
        assert!(
            coop.mean_divergence() < cache.mean_divergence(),
            "f={fraction}: ideal coop {} vs ideal cache {}",
            coop.mean_divergence(),
            cache.mean_divergence()
        );
    }
}

#[test]
fn cgm_budget_is_respected() {
    let m = 10u32;
    let n = 10u32;
    let bandwidth = 30.0;
    let horizon = 360.0;
    for variant in [
        CgmVariant::IdealCacheBased,
        CgmVariant::Cgm1,
        CgmVariant::Cgm2,
    ] {
        let r = CgmSystem::new(cgm_cfg(bandwidth, variant), fig6_workload(m, n, 23)).run();
        let cost = variant.cost_per_refresh();
        let used = r.refreshes_sent as f64 * cost;
        assert!(
            used <= bandwidth * horizon * 1.05 + 10.0,
            "{}: used {used} units over {horizon}s at capacity {bandwidth}",
            variant.name()
        );
    }
}

#[test]
fn freshness_allocation_agrees_with_simulation() {
    // The analytic freshness model predicts simulated staleness well for
    // the ideal cache-based scheduler: staleness ≈ 1 − mean freshness.
    let m = 10u32;
    let n = 10u32;
    let spec = fig6_workload(m, n, 24);
    let bandwidth = 50.0;
    let freqs = freshness::allocate(&spec.rates, bandwidth);
    let predicted_staleness =
        1.0 - freshness::total_freshness(&spec.rates, &freqs) / (m * n) as f64;
    let mut c = cgm_cfg(bandwidth, CgmVariant::IdealCacheBased);
    c.measure = 600.0;
    let r = CgmSystem::new(c, spec).run();
    let simulated = r.mean_divergence();
    assert!(
        (simulated - predicted_staleness).abs() < 0.08,
        "simulated {simulated} vs analytic {predicted_staleness}"
    );
}
