//! Property-based integration tests: randomized configurations must
//! uphold the system's cross-crate invariants.

use besync::config::SystemConfig;
use besync::priority::{AreaTracker, PolicyKind};
use besync::{CoopSystem, IdealSystem};
use besync_data::{Metric, ObjectId, TruthTable};
use besync_sim::SimTime;
use besync_workloads::generators::{random_walk_poisson, PoissonWorkloadOptions};
use proptest::prelude::*;

fn arb_metric() -> impl Strategy<Value = Metric> {
    prop_oneof![
        Just(Metric::Staleness),
        Just(Metric::Lag),
        Just(Metric::abs_deviation()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// The pragmatic system never reports negative or non-finite
    /// divergence, never delivers more than it sends, and message counts
    /// respect link capacity, across random small configurations.
    #[test]
    fn coop_system_invariants(
        seed in 0u64..1000,
        sources in 1u32..8,
        n in 1u32..12,
        cache_bw in 1.0f64..50.0,
        source_bw in 1.0f64..20.0,
        mb in prop_oneof![Just(0.0), Just(0.05), Just(0.25)],
        metric in arb_metric(),
    ) {
        let spec = random_walk_poisson(
            PoissonWorkloadOptions {
                sources,
                objects_per_source: n,
                rate_range: (0.05, 0.9),
                weight_range: (1.0, 5.0),
                fluctuating_weights: true,
            },
            seed,
        );
        let cfg = SystemConfig {
            metric,
            cache_bandwidth_mean: cache_bw,
            source_bandwidth_mean: source_bw,
            bandwidth_change_rate: mb,
            warmup: 20.0,
            measure: 80.0,
            ..SystemConfig::default()
        };
        let horizon = cfg.horizon();
        let r = CoopSystem::new(cfg, spec).run();
        prop_assert!(r.mean_divergence().is_finite());
        prop_assert!(r.mean_divergence() >= 0.0);
        prop_assert!(r.refreshes_delivered <= r.refreshes_sent);
        // Refresh messages consumed cache-link units; the total delivered
        // cannot exceed capacity × time plus burst slack.
        let cap = cache_bw * horizon + 2.0 * cache_bw + 2.0;
        prop_assert!((r.refreshes_delivered as f64) <= cap,
            "delivered {} exceeds link capacity {}", r.refreshes_delivered, cap);
        if matches!(metric, Metric::Staleness) {
            prop_assert!(r.mean_divergence() <= 1.0);
        }
    }

    /// The omniscient scheduler is (statistically) at least as good as
    /// the threshold protocol on the same workload, and both are
    /// deterministic.
    #[test]
    fn ideal_dominates_and_determinism_holds(
        seed in 0u64..500,
        cache_bw in 2.0f64..40.0,
    ) {
        let mk = || random_walk_poisson(
            PoissonWorkloadOptions {
                sources: 4,
                objects_per_source: 8,
                rate_range: (0.05, 0.8),
                weight_range: (1.0, 1.0),
                fluctuating_weights: false,
            },
            seed,
        );
        let cfg = SystemConfig {
            cache_bandwidth_mean: cache_bw,
            source_bandwidth_mean: 10.0,
            warmup: 20.0,
            measure: 120.0,
            ..SystemConfig::default()
        };
        let ideal = IdealSystem::new(cfg, mk()).run();
        let ours_a = CoopSystem::new(cfg, mk()).run();
        let ours_b = CoopSystem::new(cfg, mk()).run();
        prop_assert!(ours_a.mean_divergence() + 0.05 >= ideal.mean_divergence(),
            "coop {} beat ideal {} beyond tolerance",
            ours_a.mean_divergence(), ideal.mean_divergence());
        prop_assert_eq!(ours_a.mean_divergence().to_bits(),
            ours_b.mean_divergence().to_bits());
        prop_assert_eq!(ours_a.refreshes_sent, ours_b.refreshes_sent);
    }

    /// Ground-truth accounting: a random interleaving of updates and
    /// (possibly stale) refresh deliveries keeps divergence non-negative,
    /// zeroes it on fresh refreshes, and the time-average equals a
    /// brute-force replay.
    #[test]
    fn truth_table_matches_brute_force(
        events in prop::collection::vec((0.0f64..100.0, 0u8..3, -5.0f64..5.0), 1..60),
        metric in arb_metric(),
    ) {
        let mut evs: Vec<(f64, u8, f64)> = events;
        evs.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut table = TruthTable::with_unit_weights(metric, &[0.0]);
        table.begin_measurement(SimTime::ZERO);
        let obj = ObjectId(0);
        // Brute-force reference: piecewise evaluation between events.
        let mut ref_integral = 0.0;
        let mut last_t = 0.0;
        for &(t, kind, value) in &evs {
            ref_integral += table.divergence(obj) * (t - last_t);
            last_t = t;
            match kind {
                0 | 1 => {
                    table.source_update(SimTime::new(t), obj, value);
                }
                _ => {
                    table.apply_fresh_refresh(SimTime::new(t), obj);
                }
            }
            prop_assert!(table.divergence(obj) >= 0.0);
            if kind == 2 {
                prop_assert_eq!(table.divergence(obj), 0.0);
            }
        }
        let horizon = 100.0;
        ref_integral += table.divergence(obj) * (horizon - last_t);
        let report = table.report(SimTime::new(horizon));
        prop_assert!((report.mean_unweighted - ref_integral / horizon).abs() < 1e-9);
    }

    /// The area priority is exactly zero right after a refresh and
    /// piecewise constant between updates, for any update pattern.
    #[test]
    fn area_priority_invariants(
        deltas in prop::collection::vec((0.01f64..10.0, 0.0f64..8.0), 1..40),
        probe in 0.01f64..5.0,
    ) {
        let mut tracker = AreaTracker::new(SimTime::ZERO);
        let mut now = 0.0;
        for &(gap, d) in &deltas {
            now += gap;
            tracker.on_update(SimTime::new(now), d);
            // Constant between updates:
            let p1 = tracker.raw_priority(SimTime::new(now));
            let p2 = tracker.raw_priority(SimTime::new(now + probe));
            prop_assert!((p1 - p2).abs() < 1e-6 * p1.abs().max(1.0));
        }
        now += probe;
        tracker.on_refresh(SimTime::new(now));
        prop_assert_eq!(tracker.raw_priority(SimTime::new(now)), 0.0);
        prop_assert_eq!(tracker.divergence(), 0.0);
    }

    /// Closed-form Poisson priorities are consistent with the general
    /// area formula applied to expected trajectories, for random λ and
    /// update counts.
    #[test]
    fn closed_forms_consistent(lambda in 0.01f64..5.0, u in 1u64..50) {
        use besync::priority::poisson::*;
        let uf = u as f64;
        let lag_area = uf / lambda * uf - expected_lag_integral(u, lambda);
        prop_assert!((lag_area - lag_priority(uf, lambda, 1.0)).abs() < 1e-6 * lag_area.max(1.0));
        let stale_area = uf / lambda - expected_staleness_integral(u, lambda);
        prop_assert!((stale_area - staleness_priority(1.0, lambda, 1.0)).abs()
            < 1e-6 * stale_area.abs().max(1.0));
    }

    /// Bound-policy invariant: the crossing time returned by the tracker
    /// is exactly when the priority meets the threshold.
    #[test]
    fn bound_crossing_exact(rate in 0.01f64..10.0, w in 0.1f64..10.0, threshold in 0.0f64..100.0) {
        use besync::priority::BoundTracker;
        let b = BoundTracker::new(SimTime::ZERO, rate, 0.0);
        let cross = b.crossing_time(threshold, w).unwrap();
        let p = b.priority(cross, w);
        prop_assert!((p - threshold).abs() < 1e-6 * threshold.max(1.0),
            "priority {p} at crossing vs threshold {threshold}");
    }

    /// SimpleWeighted and Area policies agree on which *single* object to
    /// refresh when only one object has pending changes.
    #[test]
    fn single_candidate_policies_agree(seed in 0u64..200) {
        let spec = random_walk_poisson(
            PoissonWorkloadOptions {
                sources: 1,
                objects_per_source: 1,
                rate_range: (0.2, 0.6),
                weight_range: (1.0, 1.0),
                fluctuating_weights: false,
            },
            seed,
        );
        let mk_cfg = |policy| SystemConfig {
            policy,
            cache_bandwidth_mean: 5.0,
            source_bandwidth_mean: 5.0,
            warmup: 10.0,
            measure: 60.0,
            ..SystemConfig::default()
        };
        let a = IdealSystem::new(mk_cfg(PolicyKind::Area), spec.clone()).run();
        let s = IdealSystem::new(mk_cfg(PolicyKind::SimpleWeighted), spec).run();
        // One object: both policies refresh whenever it has diverged and
        // bandwidth allows, so outcomes coincide.
        prop_assert_eq!(a.refreshes_sent, s.refreshes_sent);
        prop_assert!((a.mean_divergence() - s.mean_divergence()).abs() < 1e-9);
    }
}
