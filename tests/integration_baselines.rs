//! Integration tests pitting the cooperative systems against the CGM
//! baselines (the paper's §6.3 claims).

use besync::config::SystemConfig;
use besync::priority::{PolicyKind, RateEstimator};
use besync::{CoopSystem, IdealSystem};
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
