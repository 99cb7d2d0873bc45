//! Scheduler-port equivalence goldens for `IdealSystem` and the CGM
//! baselines.
//!
//! PR 2 moved both off a generic `BinaryHeap` event queue and a
//! lazy-invalidation priority heap (both since deleted) onto the
//! `CalendarQueue` + unified indexed heap that `CoopSystem` already
//! uses. The constants below are the exact `RunReport` counters of the
//! **old implementations**, recorded immediately before the port (same
//! seeds, same configs). The port is required to be
//! bit-identical: any divergence here means the new schedulers do not
//! replay the old trajectories and the paper's figures moved.
//!
//! To regenerate after an *intentional* trajectory change, run with
//! `GOLDEN_PRINT=1 cargo test --test scheduler_equivalence -- --nocapture`
//! and say so in the commit message.
//!
//! The ideal/CGM configurations live once in the shared scenario
//! registry (`besync_scenarios::goldens()`, the `equiv_*` names) and are
//! referenced here by name, so these tests double as a pin that the
//! declarative scenario lowering reproduces the hand-rolled
//! constructions bit for bit. (The §7 competitive goldens below keep
//! their bespoke construction: their conflicted cache-vs-source weight
//! setup is deliberately outside the declarative spec.)

use besync::RunReport;
use besync_scenarios::by_name;

struct Golden {
    updates_processed: u64,
    refreshes_sent: u64,
    polls_sent: u64,
    mean_divergence: f64,
}

fn check(name: &str, report: &RunReport, want: &Golden) {
    if std::env::var_os("GOLDEN_PRINT").is_some() {
        println!(
            "{name}: updates_processed: {}, refreshes_sent: {}, polls_sent: {}, \
             mean_divergence: {:.12e}",
            report.updates_processed,
            report.refreshes_sent,
            report.polls_sent,
            report.mean_divergence(),
        );
        return;
    }
    assert_eq!(
        report.updates_processed, want.updates_processed,
        "{name}: updates_processed"
    );
    assert_eq!(
        report.refreshes_sent, want.refreshes_sent,
        "{name}: refreshes_sent"
    );
    assert_eq!(report.polls_sent, want.polls_sent, "{name}: polls_sent");
    assert!(
        (report.mean_divergence() - want.mean_divergence).abs() < 1e-9,
        "{name}: mean_divergence {:.12e} != {:.12e}",
        report.mean_divergence(),
        want.mean_divergence
    );
}

fn run_named(name: &str) -> RunReport {
    by_name(name).expect("registered golden scenario").run()
}

#[test]
fn ideal_staleness_area() {
    let report = run_named("equiv_ideal_staleness_area");
    check(
        "ideal_staleness_area",
        &report,
        &Golden {
            updates_processed: 7289,
            refreshes_sent: 3400,
            polls_sent: 0,
            mean_divergence: 0.3868146125482,
        },
    );
}

#[test]
fn ideal_deviation_poisson() {
    let report = run_named("equiv_ideal_deviation_poisson");
    check(
        "ideal_deviation_poisson",
        &report,
        &Golden {
            updates_processed: 7431,
            refreshes_sent: 3400,
            polls_sent: 0,
            mean_divergence: 0.3474099768857,
        },
    );
}

#[test]
fn ideal_lag_simple() {
    let report = run_named("equiv_ideal_lag_simple");
    check(
        "ideal_lag_simple",
        &report,
        &Golden {
            updates_processed: 7198,
            refreshes_sent: 3399,
            polls_sent: 0,
            mean_divergence: 0.6352161554723,
        },
    );
}

#[test]
fn cgm_ideal_cache_based() {
    let report = run_named("equiv_cgm_ideal");
    check(
        "cgm_ideal_cache_based",
        &report,
        &Golden {
            updates_processed: 6317,
            refreshes_sent: 6243,
            polls_sent: 0,
            mean_divergence: 0.2873052229401,
        },
    );
}

#[test]
fn cgm1() {
    let report = run_named("equiv_cgm1");
    check(
        "cgm1",
        &report,
        &Golden {
            updates_processed: 6700,
            refreshes_sent: 3103,
            polls_sent: 3103,
            mean_divergence: 0.4538135106601,
        },
    );
}

#[test]
fn cgm2() {
    let report = run_named("equiv_cgm2");
    check(
        "cgm2",
        &report,
        &Golden {
            updates_processed: 6125,
            refreshes_sent: 3116,
            polls_sent: 3116,
            mean_divergence: 0.4252423568813,
        },
    );
}

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
        if std::env::var_os("GOLDEN_PRINT").is_some() {
            println!(
                "{name}: threshold_refreshes: {}, source_refreshes: {}, \
                 feedback_messages: {}, cache_objective: {:.12e}, source_objective: {:.12e}",
                report.threshold_refreshes,
                report.source_refreshes,
                report.feedback_messages,
                report.cache_objective,
                report.source_objective,
            );
            return;
        }
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
