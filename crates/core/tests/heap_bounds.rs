//! Regression test: long-horizon runs must not grow the sources'
//! priority heaps without bound — `raw_len` stays within a constant
//! factor of the live quote count at all times (the indexed heap holds
//! it at exactly one entry per live quote).

use besync::config::SystemConfig;
use besync::system::CoopSystem;
use besync_data::Metric;
use besync_sim::SimTime;
use besync_workloads::generators::{random_walk_poisson, PoissonWorkloadOptions};

#[test]
fn long_horizon_keeps_heaps_bounded() {
    // Fast updaters + starved links ⇒ maximal quote churn with few sends:
    // the worst case for stale-entry accumulation.
    let spec = random_walk_poisson(
        PoissonWorkloadOptions {
            sources: 2,
            objects_per_source: 10,
            rate_range: (0.5, 2.0),
            weight_range: (1.0, 1.0),
            fluctuating_weights: false,
        },
        99,
    );
    let cfg = SystemConfig {
        metric: Metric::Staleness,
        cache_bandwidth_mean: 0.5,
        source_bandwidth_mean: 0.5,
        warmup: 10.0,
        measure: 3000.0,
        ..SystemConfig::default()
    };
    let mut sys = CoopSystem::new(cfg, spec);
    let horizon = sys.horizon();
    let mut t = 0.0;
    let mut max_raw = 0;
    while SimTime::new(t) < horizon {
        t += 50.0;
        sys.run_until(SimTime::new(t).min(horizon));
        for s in sys.sources() {
            max_raw = max_raw.max(s.heap.raw_len());
            assert!(
                s.heap.raw_len() <= 65_usize.max(4 * s.heap.live() + 1),
                "heap grew to {} with only {} live quotes at t={t}",
                s.heap.raw_len(),
                s.heap.live()
            );
        }
    }
    let report = sys.into_report();
    // Sanity: the run really did churn (tens of thousands of updates).
    assert!(
        report.updates_processed > 10_000,
        "expected heavy churn, got {} updates",
        report.updates_processed
    );
    assert!(max_raw > 0);
}
