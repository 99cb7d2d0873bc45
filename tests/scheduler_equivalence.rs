//! The §7 competitive goldens.
//!
//! Every other pinned trajectory lives in `COUNTERS_baseline.txt`, which
//! `tests/counter_gate.rs` replays. These three stay as constants
//! because they pin `CompetitiveReport::source_objective`, which no
//! `RunReport` field carries, over a bespoke construction: the
//! conflicted cache-vs-source weight setup below is this file's own
//! reference copy of the §7 halves rule. An *intentional* trajectory
//! change edits the constants from the failure messages and says so in
//! the commit message.

mod competitive_goldens {
    use besync::cache::partition::{BandwidthPartition, SharePolicy};
    use besync::competitive::{CompetitiveConfig, CompetitiveReport, CompetitiveSystem};
    use besync::config::SystemConfig;
    use besync_data::{Metric, WeightProfile};
    use besync_workloads::generators::{random_walk_poisson, PoissonWorkloadOptions};
    use besync_workloads::WorkloadSpec;

    struct CompetitiveGolden {
        threshold_refreshes: u64,
        source_refreshes: u64,
        feedback_messages: u64,
        cache_objective: f64,
        source_objective: f64,
    }

    fn check(name: &str, report: &CompetitiveReport, want: &CompetitiveGolden) {
        assert_eq!(
            report.threshold_refreshes, want.threshold_refreshes,
            "{name}: threshold_refreshes"
        );
        assert_eq!(
            report.source_refreshes, want.source_refreshes,
            "{name}: source_refreshes"
        );
        assert_eq!(
            report.feedback_messages, want.feedback_messages,
            "{name}: feedback_messages"
        );
        assert!(
            (report.cache_objective - want.cache_objective).abs() < 1e-9,
            "{name}: cache_objective {:.12e} != {:.12e}",
            report.cache_objective,
            want.cache_objective
        );
        assert!(
            (report.source_objective - want.source_objective).abs() < 1e-9,
            "{name}: source_objective {:.12e} != {:.12e}",
            report.source_objective,
            want.source_objective
        );
    }

    /// Cache wants the first half of each source's objects; sources want
    /// the second half (the conflicted §7 setup).
    fn conflicted(seed: u64) -> (WorkloadSpec, Vec<WeightProfile>) {
        let mut spec = random_walk_poisson(
            PoissonWorkloadOptions {
                sources: 6,
                objects_per_source: 12,
                rate_range: (0.1, 0.8),
                weight_range: (1.0, 1.0),
                fluctuating_weights: false,
            },
            seed,
        );
        let n = spec.layout.objects_per_source();
        let mut source_weights = Vec::new();
        for obj in spec.layout.all_objects() {
            let local = obj.0 % n;
            let cache_w = if local < n / 2 { 10.0 } else { 1.0 };
            let source_w = if local < n / 2 { 1.0 } else { 10.0 };
            spec.weights[obj.index()] = WeightProfile::constant(cache_w);
            source_weights.push(WeightProfile::constant(source_w));
        }
        (spec, source_weights)
    }

    fn run_with(seed: u64, psi: f64, policy: SharePolicy) -> CompetitiveReport {
        let (spec, source_weights) = conflicted(seed);
        CompetitiveSystem::new(
            CompetitiveConfig {
                base: SystemConfig {
                    metric: Metric::Staleness,
                    cache_bandwidth_mean: 12.0,
                    source_bandwidth_mean: 5.0,
                    warmup: 30.0,
                    measure: 150.0,
                    ..SystemConfig::default()
                },
                source_weights,
                partition: BandwidthPartition::new(psi, policy),
            },
            spec,
        )
        .run()
    }

    #[test]
    fn competitive_equal_share() {
        let report = run_with(71, 0.5, SharePolicy::EqualShare);
        check(
            "competitive_equal_share",
            &report,
            &CompetitiveGolden {
                threshold_refreshes: 996,
                source_refreshes: 1080,
                feedback_messages: 73,
                cache_objective: 2.840123045792,
                source_objective: 2.363838669585,
            },
        );
    }

    #[test]
    fn competitive_piggyback() {
        let report = run_with(72, 0.5, SharePolicy::ProportionalToValue);
        check(
            "competitive_piggyback",
            &report,
            &CompetitiveGolden {
                threshold_refreshes: 1088,
                source_refreshes: 990,
                feedback_messages: 74,
                cache_objective: 3.077656928409,
                source_objective: 2.780826431438,
            },
        );
    }

    #[test]
    fn competitive_psi_zero() {
        let report = run_with(73, 0.0, SharePolicy::EqualShare);
        check(
            "competitive_psi_zero",
            &report,
            &CompetitiveGolden {
                threshold_refreshes: 2028,
                source_refreshes: 0,
                feedback_messages: 132,
                cache_objective: 2.235257101532,
                source_objective: 3.629331228980,
            },
        );
    }
}
