//! The four workloads, built here with `ScenarioSpec::builder` — never
//! through `suite::by_name` — so edits to the scenario suite cannot move
//! them. `README.md` says why each exists and what it should not show.

use besync::cache::partition::SharePolicy;
use besync::fault::{FaultProfile, RecoveryPolicy};
use besync::priority::{PolicyKind, RateEstimator};
use besync_baselines::CgmVariant;
use besync_data::Metric;
use besync_scenarios::spec::ScenarioSpecBuilder;
use besync_scenarios::{ScenarioSpec, SystemKind};

pub enum Shape {
    /// One cooperative run, single process, single thread.
    Single(Box<ScenarioSpec>),
    /// A grid of specs through the process-sharded sweep runner.
    Grid(Vec<ScenarioSpec>),
}

pub struct Workload {
    pub name: &'static str,
    pub shape: Shape,
    /// Whether a correct run reports fault activity.
    pub faulty: bool,
}

pub const NAMES: [&str; 4] = ["resident_2k", "cliff_1m", "rough_2k", "paper_grid"];

/// Schedulers per (f, seed) point of the Fig. 6 part of `paper_grid`, in
/// spec order: ideal first, cooperative second.
pub const FIG6_KINDS: usize = 5;
/// Specs in the Fig. 6 part; the §7 competitive cells follow.
pub const FIG6_SPECS: usize = 2 * 5 * FIG6_KINDS;

pub fn by_name(name: &str, seed: u64) -> Option<Workload> {
    let name = NAMES.iter().copied().find(|n| *n == name)?;
    let single = |spec, faulty| (Shape::Single(Box::new(spec)), faulty);
    let (shape, faulty) = match name {
        "resident_2k" => single(
            coop(name, seed)
                .objects(32, 64)
                .bandwidth(90.0, 5.0)
                .window(50.0, 30_000.0)
                .finish(),
            false,
        ),
        "cliff_1m" => single(
            coop(name, seed)
                .objects(1024, 1024)
                .bandwidth(56_000.0, 55.0)
                .window(5.0, 15.0)
                .finish(),
            false,
        ),
        "rough_2k" => single(
            coop(name, seed)
                .objects(32, 64)
                .bandwidth(90.0, 5.0)
                .window(50.0, 20_000.0)
                .fluctuating_weights(true)
                .bandwidth_change_rate(0.25)
                .metric(Metric::abs_deviation())
                .fault(FaultProfile {
                    loss_prob: 0.15,
                    outage_rate: 0.01,
                    outage_duration: 12.0,
                    outage_drops_queue: false,
                    crash_rate: 0.004,
                    crash_downtime: 10.0,
                    recovery: RecoveryPolicy::Retransmit { deadline: 3.0 },
                    aware: true,
                })
                .finish(),
            true,
        ),
        _ => (Shape::Grid(paper_grid(seed)), false),
    };
    Some(Workload {
        name,
        shape,
        faulty,
    })
}

/// The regime the three cooperative workloads share.
fn coop(name: &str, seed: u64) -> ScenarioSpecBuilder {
    ScenarioSpec::builder(name)
        .seeds(seed, seed)
        .system(SystemKind::Coop)
        .rate_range(0.05, 0.5)
        .weight_range(1.0, 4.0)
        .fluctuating_weights(false)
        .metric(Metric::Staleness)
        .policy(PolicyKind::Area)
}

/// The Fig. 6 shape (m = 100, n = 10, five schedulers, five bandwidth
/// fractions, workload seeds S and S+1) plus ten §7 competitive cells.
fn paper_grid(seed: u64) -> Vec<ScenarioSpec> {
    let mut specs = Vec::with_capacity(FIG6_SPECS + 10);
    for wl_seed in [seed, seed + 1] {
        for f in [0.1, 0.3, 0.5, 0.7, 0.9] {
            let cell = |system: SystemKind, estimator| {
                ScenarioSpec::builder(format!("fig6/{}/f{f}/s{wl_seed}", system.name()))
                    .seeds(wl_seed, seed)
                    .system(system)
                    .objects(100, 10)
                    .rate_range(0.02, 1.0)
                    .weight_range(1.0, 1.0)
                    .fluctuating_weights(false)
                    .policy(PolicyKind::PoissonClosedForm)
                    .estimator(estimator)
                    .metric(Metric::Staleness)
                    .bandwidth(f * 1000.0, 1e9)
                    .window(150.0, 500.0)
                    .finish()
            };
            specs.push(cell(SystemKind::Ideal, RateEstimator::Known));
            specs.push(cell(SystemKind::Coop, RateEstimator::LongRun));
            for variant in [
                CgmVariant::IdealCacheBased,
                CgmVariant::Cgm1,
                CgmVariant::Cgm2,
            ] {
                specs.push(cell(SystemKind::Cgm(variant), RateEstimator::LongRun));
            }
        }
    }
    for wl_seed in [seed, seed + 1] {
        for psi in [0.1, 0.3, 0.5, 0.7, 0.9] {
            specs.push(
                ScenarioSpec::builder(format!("sec7/psi{psi}/s{wl_seed}"))
                    .seeds(wl_seed, seed)
                    .objects(32, 64)
                    .rate_range(0.05, 0.5)
                    .weight_range(1.0, 1.0)
                    .fluctuating_weights(false)
                    .metric(Metric::Staleness)
                    .bandwidth(512.0, 32.0)
                    .window(120.0, 600.0)
                    .competitive(psi, SharePolicy::ProportionalToValue)
                    .finish(),
            );
        }
    }
    specs
}

/// Two near-empty specs: a sweep over them is spawn + handshake +
/// teardown of the worker processes, `paper_grid`'s set-up.
pub fn spawn_probe() -> Vec<ScenarioSpec> {
    (0..2)
        .map(|i| {
            ScenarioSpec::builder(format!("spawn-probe/{i}"))
                .objects(1, 2)
                .window(1.0, 1.0)
                .finish()
        })
        .collect()
}
