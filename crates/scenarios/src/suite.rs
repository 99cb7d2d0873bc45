//! The named scenario registry.
//!
//! [`suite`] is the bench regime set; [`goldens`] holds the entries
//! small enough for tier-1 to replay at native scale.
//! `experiments record-counters` records [`all`] of them in
//! `COUNTERS_baseline.txt` at both scales; `cargo test`
//! (`tests/counter_gate.rs`) replays the quick scale plus the goldens
//! as registered, and its ignored full-scale test replays the rest. Each definition exists exactly
//! once, here, and is referenced by name everywhere else. Every entry is assembled through
//! [`ScenarioSpec::builder`]; the builder starts from
//! [`ScenarioSpec::default`], so each chain states only what the
//! scenario pins down — exactly what the struct-update literals it
//! replaced did.

use besync::cache::partition::SharePolicy;
use besync::fault::{FaultProfile, RecoveryPolicy};
use besync::priority::{PolicyKind, RateEstimator};
use besync_baselines::CgmVariant;
use besync_data::Metric;
use besync_workloads::buoy::BuoyConfig;

use crate::spec::{ScenarioSpec, ScenarioSpecBuilder, SystemKind};

/// A cooperative bench scenario over the standard bench regime
/// (`rate ∈ (0.05, 0.5)`, constant weights in `(1, 4)`, Area policy).
#[allow(clippy::too_many_arguments)]
fn coop(
    name: &str,
    description: &str,
    seed: u64,
    sources: u32,
    objects_per_source: u32,
    metric: Metric,
    cache_bw: f64,
    source_bw: f64,
    warmup: f64,
    measure: f64,
) -> ScenarioSpecBuilder {
    ScenarioSpec::builder(name)
        .description(description)
        .seed(seed)
        .objects(sources, objects_per_source)
        .rate_range(0.05, 0.5)
        .weight_range(1.0, 4.0)
        .fluctuating_weights(false)
        .metric(metric)
        .bandwidth(cache_bw, source_bw)
        .window(warmup, measure)
}

/// The fixed bench scenario set. `medium` is the headline comparison
/// scenario for PR-over-PR speedup claims; the small/large pairs cover
/// the size × metric grid; `bound_medium`/`fluct_medium` cover the
/// Bound-policy and fluctuating-weight regimes; `fluct_bw_medium` covers
/// fluctuating *bandwidth* (`m_B > 0`, the `Wave::Sine` credit-accrual
/// path on every link); `huge` covers the ≥100k-object scale;
/// `fluct_both_huge` combines all three pressures (sine weights, sine
/// bandwidth, 131 072 objects — the mixed regime the sharded sweep
/// runner makes cheap to explore); `lossy_medium`/`outage_medium`/
/// `crashy_huge` run the simulated-world fault classes (refresh loss
/// with retransmission, link outages, source crash/restart with bulk
/// resync); `lossy_aware_medium` is `lossy_medium` under the fault-aware
/// scheduling layer (delivery acks, loss-rate estimation, expected-value
/// priorities); `mega`/`mega_fluct` push to 1 048 576 objects (the
/// million-object regime the streaming workload build and self-resizing
/// calendar queue exist for); `buoy_week` replays the §6.2.1 synthetic
/// wind-buoy trace; `competitive_medium` runs the §7 Ψ-partition under
/// conflicted cache/source weights (`competitive_lossy` adds 15% refresh
/// loss to it); and the `ideal_*`/`cgm*_*` scenarios cover the
/// figure-regeneration schedulers.
pub fn suite() -> Vec<ScenarioSpec> {
    vec![
        coop(
            "small",
            "coop, 256 objects, staleness — the smallest end of the size grid",
            101,
            8,
            32,
            Metric::Staleness,
            12.0,
            4.0,
            50.0,
            600.0,
        )
        .finish(),
        coop(
            "medium",
            "coop, 2048 objects, staleness — the headline PR-over-PR scenario",
            202,
            32,
            64,
            Metric::Staleness,
            90.0,
            5.0,
            50.0,
            1500.0,
        )
        .finish(),
        coop(
            "medium_value",
            "coop, 2048 objects, value deviation — medium with the deviation metric",
            303,
            32,
            64,
            Metric::abs_deviation(),
            90.0,
            5.0,
            50.0,
            1500.0,
        )
        .finish(),
        coop(
            "large",
            "coop, 16384 objects, staleness — the large end of the size grid",
            404,
            64,
            256,
            Metric::Staleness,
            700.0,
            16.0,
            25.0,
            400.0,
        )
        .finish(),
        coop(
            "large_value",
            "coop, 16384 objects, value deviation — large with the deviation metric",
            505,
            64,
            256,
            Metric::abs_deviation(),
            700.0,
            16.0,
            25.0,
            400.0,
        )
        .finish(),
        coop(
            "bound_medium",
            "coop, Bound policy — non-piecewise-constant priorities, per-tick requote sweeps",
            909,
            32,
            64,
            Metric::Staleness,
            90.0,
            5.0,
            50.0,
            1500.0,
        )
        .policy(PolicyKind::Bound)
        .finish(),
        coop(
            "fluct_medium",
            "coop, sine-wave weights — the non-constant-weight accounting slow path",
            1010,
            32,
            64,
            Metric::Staleness,
            90.0,
            5.0,
            50.0,
            1500.0,
        )
        .fluctuating_weights(true)
        .finish(),
        coop(
            "fluct_bw_medium",
            "coop, fluctuating bandwidth (m_B = 0.25) — Wave::Sine accrual on every link",
            1111,
            32,
            64,
            Metric::Staleness,
            90.0,
            5.0,
            50.0,
            1500.0,
        )
        .bandwidth_change_rate(0.25)
        .finish(),
        coop(
            "huge",
            "coop, 131072 objects, staleness — the >=100k-object scale regime",
            1212,
            128,
            1024,
            Metric::Staleness,
            7000.0,
            55.0,
            10.0,
            120.0,
        )
        .finish(),
        coop(
            "fluct_both_huge",
            "coop, 131072 objects, fluctuating weights AND bandwidth — the mixed regime at 100k scale",
            1313,
            128,
            1024,
            Metric::Staleness,
            7000.0,
            55.0,
            10.0,
            120.0,
        )
        .fluctuating_weights(true)
        .bandwidth_change_rate(0.25)
        .finish(),
        coop(
            "lossy_medium",
            "coop, 2048 objects, 15% refresh loss, retransmit-on-deadline recovery",
            1414,
            32,
            64,
            Metric::Staleness,
            90.0,
            5.0,
            50.0,
            1500.0,
        )
        .fault(FaultProfile {
            loss_prob: 0.15,
            recovery: RecoveryPolicy::Retransmit { deadline: 3.0 },
            ..FaultProfile::default()
        })
        .finish(),
        coop(
            "lossy_aware_medium",
            "coop, 2048 objects, 15% refresh loss, fault-aware: delivery acks, loss-rate estimator, expected-value priorities",
            1414,
            32,
            64,
            Metric::Staleness,
            90.0,
            5.0,
            50.0,
            1500.0,
        )
        // Same seed and loss regime as `lossy_medium`, so the two differ
        // only in scheduling policy — a direct A/B of fault awareness.
        .fault(FaultProfile {
            loss_prob: 0.15,
            recovery: RecoveryPolicy::Retransmit { deadline: 3.0 },
            aware: true,
            ..FaultProfile::default()
        })
        .finish(),
        coop(
            "outage_medium",
            "coop, 2048 objects, recurring cache-link outages that hold the queue, degrade-to-stale",
            1515,
            32,
            64,
            Metric::Staleness,
            90.0,
            5.0,
            50.0,
            1500.0,
        )
        .fault(FaultProfile {
            outage_rate: 0.01,
            outage_duration: 12.0,
            outage_drops_queue: false,
            ..FaultProfile::default()
        })
        .finish(),
        coop(
            "crashy_huge",
            "coop, 131072 objects, source crash/restart episodes with cold-restart bulk resync",
            1616,
            128,
            1024,
            Metric::Staleness,
            7000.0,
            55.0,
            10.0,
            120.0,
        )
        .fault(FaultProfile {
            crash_rate: 0.004,
            crash_downtime: 10.0,
            recovery: RecoveryPolicy::Resync,
            ..FaultProfile::default()
        })
        .finish(),
        coop(
            "mega",
            "coop, 1048576 objects, staleness — the million-object regime",
            2020,
            1024,
            1024,
            Metric::Staleness,
            56_000.0,
            55.0,
            5.0,
            30.0,
        )
        .finish(),
        coop(
            "mega_fluct",
            "coop, 1048576 objects, fluctuating weights AND bandwidth at million-object scale",
            2121,
            1024,
            1024,
            Metric::Staleness,
            56_000.0,
            55.0,
            5.0,
            30.0,
        )
        .fluctuating_weights(true)
        .bandwidth_change_rate(0.25)
        .finish(),
        ScenarioSpec::builder("buoy_week")
            .description(
                "trace-driven §6.2.1 wind-buoy fleet: 40 buoys × 2 components over 7 days",
            )
            .seed(1919)
            .buoy(BuoyConfig::paper())
            .metric(Metric::abs_deviation())
            .bandwidth(0.02, 0.005)
            .window(86_400.0, 518_400.0)
            .finish(),
        ScenarioSpec::builder("competitive_medium")
            .description(
                "§7 competitive Ψ-partition, 2048 objects, conflicted halves, piggyback at Ψ=0.4",
            )
            .seed(1717)
            .objects(32, 64)
            .rate_range(0.05, 0.5)
            // The lowering replaces both weight views with the §7
            // conflicted-halves pattern; the drawn weights are unused.
            .weight_range(1.0, 1.0)
            .fluctuating_weights(false)
            .metric(Metric::Staleness)
            .bandwidth(512.0, 32.0)
            .window(120.0, 600.0)
            .competitive(0.4, SharePolicy::ProportionalToValue)
            .finish(),
        ScenarioSpec::builder("competitive_lossy")
            .description(
                "§7 competitive Ψ-partition under 15% refresh loss, degrade-to-stale",
            )
            .seed(1717)
            .objects(32, 64)
            .rate_range(0.05, 0.5)
            .weight_range(1.0, 1.0)
            .fluctuating_weights(false)
            .metric(Metric::Staleness)
            .bandwidth(512.0, 32.0)
            .window(120.0, 600.0)
            .competitive(0.4, SharePolicy::ProportionalToValue)
            // Same seed and partition as `competitive_medium`: the first
            // fault regime in the §7 harness (loss-only; the competitive
            // system has no retransmit queue, so losses degrade to
            // stale).
            .fault(FaultProfile {
                loss_prob: 0.15,
                ..FaultProfile::default()
            })
            .finish(),
        ScenarioSpec::builder("ideal_medium")
            .description("ideal omniscient scheduler, 2048 objects — figure-regeneration yardstick")
            .seed(606)
            .system(SystemKind::Ideal)
            .objects(32, 64)
            .rate_range(0.05, 0.5)
            .weight_range(1.0, 4.0)
            .fluctuating_weights(false)
            .metric(Metric::Staleness)
            .bandwidth(90.0, 5.0)
            .window(50.0, 1500.0)
            .finish(),
        cgm_bench("cgm1_medium", CgmVariant::Cgm1, 707),
        cgm_bench("cgm2_medium", CgmVariant::Cgm2, 808),
    ]
}

fn cgm_bench(name: &str, variant: CgmVariant, seed: u64) -> ScenarioSpec {
    ScenarioSpec::builder(name)
        .description(format!(
            "{} cache-driven baseline, 2048 objects — polling + rate estimation",
            variant.name()
        ))
        // The bench CGM scenarios have always phased their link off the
        // workload seed.
        .seeds(seed, seed)
        .system(SystemKind::Cgm(variant))
        .objects(32, 64)
        .rate_range(0.02, 1.0)
        .weight_range(1.0, 1.0)
        .fluctuating_weights(false)
        .metric(Metric::Staleness)
        // Source bandwidth is unused for CGM: polling has no source-side
        // limit (§6.3).
        .bandwidth(614.0, 0.0)
        .window(100.0, 500.0)
        .finish()
}

/// The entries small enough for tier-1 to replay at native scale, one or
/// more per system kind: the §7 ones pin the sources' objective too,
/// through the report's competitive block. Like every recorded
/// trajectory, theirs must never move without an intentional,
/// commit-annotated re-record.
pub fn goldens() -> Vec<ScenarioSpec> {
    let ideal = |name: &str, seed: u64, metric, policy, estimator| {
        ScenarioSpec::builder(name)
            .description("scheduler-equivalence golden (ideal)")
            .seed(seed)
            .system(SystemKind::Ideal)
            .objects(8, 16)
            .rate_range(0.05, 0.6)
            .weight_range(1.0, 3.0)
            .fluctuating_weights(false)
            .policy(policy)
            .estimator(estimator)
            .metric(metric)
            .bandwidth(20.0, 6.0)
            .window(20.0, 150.0)
            .finish()
    };
    let cgm = |name: &str, variant, seed: u64| {
        ScenarioSpec::builder(name)
            .description("scheduler-equivalence golden (CGM)")
            .seeds(seed, 5)
            .system(SystemKind::Cgm(variant))
            .objects(5, 10)
            .rate_range(0.02, 1.0)
            .weight_range(1.0, 1.0)
            .fluctuating_weights(false)
            .metric(Metric::Staleness)
            .bandwidth(25.0, 0.0)
            .window(50.0, 200.0)
            .finish()
    };
    let competitive = |name: &str, seed: u64, psi: f64, share: SharePolicy| {
        ScenarioSpec::builder(name)
            .description(format!(
                "§7 golden: conflicted halves, Ψ = {psi}, {share:?}"
            ))
            .seed(seed)
            .objects(6, 12)
            .rate_range(0.1, 0.8)
            .weight_range(1.0, 1.0)
            .fluctuating_weights(false)
            .metric(Metric::Staleness)
            .bandwidth(12.0, 5.0)
            .window(30.0, 150.0)
            .competitive(psi, share)
            .finish()
    };
    vec![
        ScenarioSpec::builder("golden_staleness_area")
            .description("golden run: staleness metric, Area policy, moderate contention")
            .seed(7777)
            .objects(4, 25)
            .rate_range(0.05, 0.6)
            .weight_range(1.0, 3.0)
            .fluctuating_weights(false)
            .metric(Metric::Staleness)
            .bandwidth(15.0, 4.0)
            .window(25.0, 200.0)
            .finish(),
        ScenarioSpec::builder("golden_deviation_poisson")
            .description("golden run: value deviation, Poisson closed form, fluctuating weights")
            .seed(4242)
            .objects(6, 10)
            .rate_range(0.1, 1.0)
            .weight_range(1.0, 5.0)
            .fluctuating_weights(true)
            .policy(PolicyKind::PoissonClosedForm)
            .metric(Metric::abs_deviation())
            .bandwidth(8.0, 3.0)
            .window(20.0, 150.0)
            .finish(),
        ideal(
            "equiv_ideal_staleness_area",
            11,
            Metric::Staleness,
            PolicyKind::Area,
            RateEstimator::LongRun,
        ),
        ideal(
            "equiv_ideal_deviation_poisson",
            23,
            Metric::abs_deviation(),
            PolicyKind::PoissonClosedForm,
            RateEstimator::Known,
        ),
        ideal(
            "equiv_ideal_lag_simple",
            37,
            Metric::Lag,
            PolicyKind::SimpleWeighted,
            RateEstimator::LongRun,
        ),
        cgm("equiv_cgm_ideal", CgmVariant::IdealCacheBased, 61),
        cgm("equiv_cgm1", CgmVariant::Cgm1, 62),
        cgm("equiv_cgm2", CgmVariant::Cgm2, 63),
        competitive(
            "golden_competitive_equal_share",
            71,
            0.5,
            SharePolicy::EqualShare,
        ),
        competitive(
            "golden_competitive_piggyback",
            72,
            0.5,
            SharePolicy::ProportionalToValue,
        ),
        competitive(
            "golden_competitive_psi_zero",
            73,
            0.0,
            SharePolicy::EqualShare,
        ),
    ]
}

/// Every registered scenario: the bench suite followed by the goldens.
pub fn all() -> Vec<ScenarioSpec> {
    let mut v = suite();
    v.extend(goldens());
    v
}

/// Looks a scenario up by registry name.
pub fn by_name(name: &str) -> Option<ScenarioSpec> {
    all().into_iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WorkloadKind;

    #[test]
    fn names_are_unique_and_described() {
        let scenarios = all();
        for (i, a) in scenarios.iter().enumerate() {
            assert!(!a.name.is_empty());
            assert!(!a.description.is_empty(), "`{}` has no description", a.name);
            for b in &scenarios[i + 1..] {
                assert_ne!(a.name, b.name, "duplicate scenario name");
            }
        }
    }

    #[test]
    fn lookup_finds_suite_and_goldens() {
        assert!(by_name("medium").is_some());
        assert!(by_name("golden_staleness_area").is_some());
        assert!(by_name("no_such_scenario").is_none());
    }

    #[test]
    fn huge_is_at_least_100k_objects() {
        let huge = by_name("huge").unwrap();
        assert!(huge.total_objects() >= 100_000, "{}", huge.total_objects());
    }

    #[test]
    fn fluct_both_huge_mixes_every_pressure_at_scale() {
        let s = by_name("fluct_both_huge").unwrap();
        assert!(s.total_objects() >= 100_000, "{}", s.total_objects());
        assert!(s.bandwidth_change_rate > 0.0);
        match s.workload {
            WorkloadKind::Poisson {
                fluctuating_weights,
                ..
            } => assert!(fluctuating_weights, "weights must fluctuate"),
            _ => panic!("expected a Poisson workload"),
        }
    }

    #[test]
    fn fluct_bw_medium_fluctuates_both_links() {
        use besync_sim::Wave;
        let s = by_name("fluct_bw_medium").unwrap();
        assert!(s.bandwidth_change_rate > 0.0);
        assert!(matches!(s.cache_wave(), Wave::Sine { .. }));
        assert!(matches!(s.source_wave(0), Wave::Sine { .. }));
    }

    #[test]
    fn suite_system_kinds_cover_all_schedulers() {
        let suite = suite();
        for kind in ["coop", "ideal", "cgm1", "cgm2", "competitive"] {
            assert!(
                suite.iter().any(|s| s.system.name() == kind),
                "no {kind} scenario in the suite"
            );
        }
        // And both workload families.
        assert!(
            suite
                .iter()
                .any(|s| matches!(s.workload, WorkloadKind::Buoy { .. })),
            "no trace-driven scenario in the suite"
        );
    }

    #[test]
    fn mega_is_at_least_a_million_objects() {
        for name in ["mega", "mega_fluct"] {
            let s = by_name(name).unwrap();
            assert!(s.total_objects() >= 1_000_000, "{}", s.total_objects());
        }
        let f = by_name("mega_fluct").unwrap();
        assert!(f.bandwidth_change_rate > 0.0);
        match f.workload {
            WorkloadKind::Poisson {
                fluctuating_weights,
                ..
            } => assert!(fluctuating_weights, "weights must fluctuate"),
            _ => panic!("expected a Poisson workload"),
        }
    }

    #[test]
    fn competitive_and_buoy_regimes_pin_their_parameters() {
        let c = by_name("competitive_medium").unwrap();
        assert_eq!(c.system.name(), "competitive");
        assert_eq!(c.psi, 0.4);
        assert_eq!(c.share, SharePolicy::ProportionalToValue);
        assert_eq!(c.total_objects(), 2048);

        let b = by_name("buoy_week").unwrap();
        match b.workload {
            WorkloadKind::Buoy { config } => {
                assert_eq!(config.total_objects(), 80);
                // The trace must cover the whole measured window.
                assert!(config.duration >= b.warmup + b.measure);
            }
            _ => panic!("expected a buoy workload"),
        }
    }

    #[test]
    fn registry_entries_pin_their_regimes() {
        // The builder port must not have moved any registry definition:
        // spot-check the fields the old struct literals pinned.
        let m = by_name("medium").unwrap();
        assert_eq!((m.seed, m.sim_seed), (202, 0));
        assert_eq!(m.total_objects(), 2048);
        assert_eq!(
            (m.cache_bandwidth_mean, m.source_bandwidth_mean),
            (90.0, 5.0)
        );
        assert_eq!((m.warmup, m.measure), (50.0, 1500.0));

        let c = by_name("cgm1_medium").unwrap();
        assert_eq!((c.seed, c.sim_seed), (707, 707));
        assert_eq!(c.system.name(), "cgm1");
        match c.workload {
            WorkloadKind::Poisson {
                rate_range,
                weight_range,
                fluctuating_weights,
                ..
            } => {
                assert_eq!(rate_range, (0.02, 1.0));
                assert_eq!(weight_range, (1.0, 1.0));
                assert!(!fluctuating_weights);
            }
            _ => panic!("expected a Poisson workload"),
        }
        assert_eq!(
            (c.cache_bandwidth_mean, c.source_bandwidth_mean),
            (614.0, 0.0)
        );

        let g = by_name("equiv_cgm_ideal").unwrap();
        assert_eq!((g.seed, g.sim_seed), (61, 5));
        assert_eq!((g.warmup, g.measure), (50.0, 200.0));

        let b = by_name("bound_medium").unwrap();
        assert!(matches!(b.policy, PolicyKind::Bound));
    }

    #[test]
    fn fault_regimes_pin_their_profiles() {
        let lossy = by_name("lossy_medium").unwrap().fault.unwrap();
        assert_eq!(lossy.loss_prob, 0.15);
        assert!(matches!(
            lossy.recovery,
            RecoveryPolicy::Retransmit { deadline } if deadline == 3.0
        ));
        assert!(!lossy.aware, "lossy_medium is the unaware baseline");
        // lossy_aware_medium is lossy_medium's exact profile + seed with
        // only the aware flag flipped — a direct A/B of fault awareness.
        let aware = by_name("lossy_aware_medium").unwrap();
        assert_eq!(aware.seed, by_name("lossy_medium").unwrap().seed);
        let ap = aware.fault.unwrap();
        assert!(ap.aware);
        assert_eq!(
            FaultProfile { aware: false, ..ap },
            lossy,
            "aware regime must differ from lossy_medium only in the flag"
        );
        // competitive_lossy: the first §7 fault regime — loss only,
        // degrade-to-stale, same partition as competitive_medium.
        let cl = by_name("competitive_lossy").unwrap();
        assert_eq!(cl.system.name(), "competitive");
        assert_eq!(cl.seed, by_name("competitive_medium").unwrap().seed);
        assert_eq!((cl.psi, cl.share), (0.4, SharePolicy::ProportionalToValue));
        let cf = cl.fault.unwrap();
        assert_eq!(cf.loss_prob, 0.15);
        assert!(matches!(cf.recovery, RecoveryPolicy::DegradeStale));
        assert_eq!((cf.outage_rate, cf.crash_rate), (0.0, 0.0));
        let outage = by_name("outage_medium").unwrap().fault.unwrap();
        assert_eq!((outage.outage_rate, outage.outage_duration), (0.01, 12.0));
        assert!(!outage.outage_drops_queue);
        assert!(matches!(outage.recovery, RecoveryPolicy::DegradeStale));
        let crashy = by_name("crashy_huge").unwrap();
        assert!(crashy.total_objects() >= 100_000);
        let f = crashy.fault.unwrap();
        assert_eq!((f.crash_rate, f.crash_downtime), (0.004, 10.0));
        assert!(matches!(f.recovery, RecoveryPolicy::Resync));
        // Every fault regime must pass profile validation.
        for name in [
            "lossy_medium",
            "lossy_aware_medium",
            "outage_medium",
            "crashy_huge",
            "competitive_lossy",
        ] {
            by_name(name).unwrap().fault.unwrap().validate().unwrap();
        }
        // And every non-fault scenario stays on the fault-free path.
        assert!(by_name("medium").unwrap().fault.is_none());
        assert!(by_name("golden_staleness_area").unwrap().fault.is_none());
    }
}
