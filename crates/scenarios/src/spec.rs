//! The declarative scenario spec and its lowering.

use std::ops::{Deref, DerefMut};

use besync::cache::partition::{BandwidthPartition, SharePolicy};
use besync::competitive::CompetitiveSystem;
use besync::config::SystemConfig;
use besync::fault::FaultProfile;
use besync::priority::{PolicyKind, RateEstimator};
use besync::system::CoopSystem;
use besync::{IdealSystem, RunReport};
use besync_baselines::{CgmSystem, CgmVariant};
use besync_data::Metric;
use besync_workloads::buoy::{self, BuoyConfig};
use besync_workloads::generators::{random_walk_poisson, PoissonWorkloadOptions};
use besync_workloads::WorkloadSpec;

/// Which scheduler a scenario drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemKind {
    /// The §5 pragmatic cooperative system (the hot path).
    Coop,
    /// The §3.3 omniscient scheduler (Figure 4–6 yardstick).
    Ideal,
    /// A cache-driven CGM baseline (Figure 6).
    Cgm(CgmVariant),
    /// The §7 competitive system: cache and sources disagree on weights,
    /// a Ψ fraction of cache bandwidth follows source priorities. The
    /// partition itself ([`ScenarioSpec::psi`], [`ScenarioSpec::share`])
    /// lives on the spec; the system replaces the workload's weights by
    /// the §7 conflicted-halves pattern.
    Competitive,
}

impl SystemKind {
    /// Every kind with its short stable name — the one spelling table
    /// behind [`SystemKind::name`], [`SystemKind::parse`] and the codec.
    pub const NAMES: [(&'static str, SystemKind); 6] = [
        ("coop", SystemKind::Coop),
        ("ideal", SystemKind::Ideal),
        ("cgm_ideal", SystemKind::Cgm(CgmVariant::IdealCacheBased)),
        ("cgm1", SystemKind::Cgm(CgmVariant::Cgm1)),
        ("cgm2", SystemKind::Cgm(CgmVariant::Cgm2)),
        ("competitive", SystemKind::Competitive),
    ];

    /// Short stable name (used in the gate's table and the codec).
    pub fn name(self) -> &'static str {
        let entry = Self::NAMES.iter().find(|(_, kind)| *kind == self);
        entry.expect("every kind is in NAMES").0
    }

    /// Inverse of [`SystemKind::name`].
    pub fn parse(s: &str) -> Option<SystemKind> {
        let entry = Self::NAMES.iter().find(|(name, _)| *name == s);
        entry.map(|&(_, kind)| kind)
    }
}

/// The data side of a scenario: which workload family and its regime
/// parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorkloadKind {
    /// §6 random-walk/Poisson family (`random_walk_poisson`): `sources ×
    /// objects_per_source` objects, rates and base weights drawn
    /// uniformly, weights optionally fluctuating as sine waves.
    Poisson {
        /// Number of sources `m`.
        sources: u32,
        /// Objects per source `n`.
        objects_per_source: u32,
        /// Poisson rates drawn uniformly from this range.
        rate_range: (f64, f64),
        /// Base weights drawn uniformly from this range.
        weight_range: (f64, f64),
        /// Sine-wave weights with random amplitudes/periods (§6).
        fluctuating_weights: bool,
    },
    /// §6.2.1 synthetic wind-buoy trace.
    Buoy {
        /// Fleet shape and trace statistics.
        config: BuoyConfig,
    },
}

/// One fully-described simulation scenario.
///
/// A plain-data value: the workload side, which scheduler runs it, and
/// the [`SystemConfig`] every system kind is built from. The spec derefs
/// to its config, so `spec.warmup` reads the run parameter itself.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Registry name (the key of both records and of [`crate::by_name`]).
    pub name: String,
    /// One-line description of the regime.
    pub description: String,
    /// Workload seed: drives parameter draws and per-object update RNG.
    pub seed: u64,
    /// Which scheduler runs the scenario.
    pub system: SystemKind,
    /// The workload family and its regime.
    pub workload: WorkloadKind,
    /// The run parameters: metric, policy, bandwidths, α/ω, window,
    /// simulation seed and fault profile.
    pub config: SystemConfig,
    /// §7 only: the Ψ fraction of cache bandwidth dedicated to source
    /// priorities. Ignored by every other [`SystemKind`].
    pub psi: f64,
    /// §7 only: how the Ψ pool is divided among sources.
    pub share: SharePolicy,
}

impl Default for ScenarioSpec {
    fn default() -> Self {
        ScenarioSpec {
            name: String::new(),
            description: String::new(),
            seed: 0,
            system: SystemKind::Coop,
            workload: WorkloadKind::Poisson {
                sources: 10,
                objects_per_source: 10,
                rate_range: (0.01, 1.0),
                weight_range: (1.0, 10.0),
                fluctuating_weights: true,
            },
            config: SystemConfig::default(),
            psi: 0.0,
            share: SharePolicy::ProportionalToValue,
        }
    }
}

impl Deref for ScenarioSpec {
    type Target = SystemConfig;

    fn deref(&self) -> &SystemConfig {
        &self.config
    }
}

impl DerefMut for ScenarioSpec {
    fn deref_mut(&mut self) -> &mut SystemConfig {
        &mut self.config
    }
}

/// A constructed, ready-to-run system (workload and config already
/// lowered). Exists so harnesses can time exactly the event loop:
/// everything before [`ReadySystem::run`] is construction. Every kind
/// finishes the same way, into one [`RunReport`] shape; only the §7
/// system fills its [`RunReport::competitive`] block.
pub enum ReadySystem {
    /// The pragmatic cooperative system.
    Coop(Box<CoopSystem>),
    /// The omniscient scheduler.
    Ideal(Box<IdealSystem>),
    /// A CGM baseline.
    Cgm(Box<CgmSystem>),
    /// The §7 competitive system.
    Competitive(Box<CompetitiveSystem>),
}

impl ReadySystem {
    /// Runs the event loop to the horizon and reports.
    pub fn run(self) -> RunReport {
        match self {
            ReadySystem::Coop(s) => s.run(),
            ReadySystem::Ideal(s) => s.run(),
            ReadySystem::Cgm(s) => s.run(),
            ReadySystem::Competitive(s) => s.run(),
        }
    }
}

/// Chainable typed construction for [`ScenarioSpec`].
///
/// Starts from [`ScenarioSpec::default`] (the Poisson workload regime),
/// so a builder chain sets only what differs — the same property the
/// struct-update literals it replaces had, but with real method names
/// instead of positional fields. Workload-regime setters
/// ([`objects`](Self::objects), [`rate_range`](Self::rate_range), …)
/// apply to the Poisson family and panic if the builder was switched to
/// a buoy workload first: mixing the two is a construction bug, not a
/// runtime condition.
#[derive(Debug, Clone)]
pub struct ScenarioSpecBuilder {
    spec: ScenarioSpec,
}

impl ScenarioSpecBuilder {
    /// One-line description of the regime.
    pub fn description(mut self, description: impl Into<String>) -> Self {
        self.spec.description = description.into();
        self
    }

    /// Workload seed; the simulation seed is left untouched.
    pub fn seed(mut self, seed: u64) -> Self {
        self.spec.seed = seed;
        self
    }

    /// Both seeds at once: workload draws and simulation-side phases.
    pub fn seeds(mut self, seed: u64, sim_seed: u64) -> Self {
        self.spec.seed = seed;
        self.spec.sim_seed = sim_seed;
        self
    }

    /// Which scheduler runs the scenario.
    pub fn system(mut self, system: SystemKind) -> Self {
        self.spec.system = system;
        self
    }

    /// Poisson-family object layout: `sources × objects_per_source`.
    pub fn objects(mut self, sources: u32, objects_per_source: u32) -> Self {
        match &mut self.spec.workload {
            WorkloadKind::Poisson {
                sources: s,
                objects_per_source: o,
                ..
            } => (*s, *o) = (sources, objects_per_source),
            WorkloadKind::Buoy { .. } => panic!("objects() requires the Poisson workload"),
        }
        self
    }

    /// Poisson rates drawn uniformly from `(lo, hi)`.
    pub fn rate_range(mut self, lo: f64, hi: f64) -> Self {
        match &mut self.spec.workload {
            WorkloadKind::Poisson { rate_range, .. } => *rate_range = (lo, hi),
            WorkloadKind::Buoy { .. } => panic!("rate_range() requires the Poisson workload"),
        }
        self
    }

    /// Base weights drawn uniformly from `(lo, hi)`.
    pub fn weight_range(mut self, lo: f64, hi: f64) -> Self {
        match &mut self.spec.workload {
            WorkloadKind::Poisson { weight_range, .. } => *weight_range = (lo, hi),
            WorkloadKind::Buoy { .. } => panic!("weight_range() requires the Poisson workload"),
        }
        self
    }

    /// Sine-wave weights with random amplitudes/periods (§6).
    pub fn fluctuating_weights(mut self, on: bool) -> Self {
        match &mut self.spec.workload {
            WorkloadKind::Poisson {
                fluctuating_weights,
                ..
            } => *fluctuating_weights = on,
            WorkloadKind::Buoy { .. } => {
                panic!("fluctuating_weights() requires the Poisson workload")
            }
        }
        self
    }

    /// Replaces the workload with the §6.2.1 synthetic wind-buoy trace.
    pub fn buoy(mut self, config: BuoyConfig) -> Self {
        self.spec.workload = WorkloadKind::Buoy { config };
        self
    }

    /// Source-side refresh priority policy.
    pub fn policy(mut self, policy: PolicyKind) -> Self {
        self.spec.policy = policy;
        self
    }

    /// Rate estimator for closed-form policies.
    pub fn estimator(mut self, estimator: RateEstimator) -> Self {
        self.spec.estimator = estimator;
        self
    }

    /// Divergence metric being minimized.
    pub fn metric(mut self, metric: Metric) -> Self {
        self.spec.metric = metric;
        self
    }

    /// Mean cache-side and per-source bandwidth (messages/second).
    pub fn bandwidth(mut self, cache: f64, source: f64) -> Self {
        self.spec.cache_bandwidth_mean = cache;
        self.spec.source_bandwidth_mean = source;
        self
    }

    /// The paper's `m_B`: peak relative bandwidth change rate.
    pub fn bandwidth_change_rate(mut self, m_b: f64) -> Self {
        self.spec.bandwidth_change_rate = m_b;
        self
    }

    /// Threshold factors α and ω.
    pub fn thresholds(mut self, alpha: f64, omega: f64) -> Self {
        self.spec.alpha = alpha;
        self.spec.omega = omega;
        self
    }

    /// Warm-up and measured durations (seconds).
    pub fn window(mut self, warmup: f64, measure: f64) -> Self {
        self.spec.warmup = warmup;
        self.spec.measure = measure;
        self
    }

    /// Simulated-world fault profile (loss, outages, crashes).
    pub fn fault(mut self, profile: FaultProfile) -> Self {
        self.spec.fault = Some(profile);
        self
    }

    /// Switches to the §7 competitive system with the given Ψ partition.
    pub fn competitive(mut self, psi: f64, share: SharePolicy) -> Self {
        self.spec.system = SystemKind::Competitive;
        self.spec.psi = psi;
        self.spec.share = share;
        self
    }

    /// Finishes the chain. (Named `finish`, not `build`, because on the
    /// spec itself [`ScenarioSpec::build`] means *lower to a runnable
    /// system*.)
    pub fn finish(self) -> ScenarioSpec {
        self.spec
    }
}

impl ScenarioSpec {
    /// Starts a [`ScenarioSpecBuilder`] for a named scenario.
    pub fn builder(name: impl Into<String>) -> ScenarioSpecBuilder {
        ScenarioSpecBuilder {
            spec: ScenarioSpec {
                name: name.into(),
                ..ScenarioSpec::default()
            },
        }
    }

    /// Total number of objects in the scenario.
    pub fn total_objects(&self) -> u32 {
        match self.workload {
            WorkloadKind::Poisson {
                sources,
                objects_per_source,
                ..
            } => sources * objects_per_source,
            WorkloadKind::Buoy { config } => config.total_objects(),
        }
    }

    /// Lowers the workload side to a [`WorkloadSpec`].
    pub fn workload(&self) -> WorkloadSpec {
        match self.workload {
            WorkloadKind::Poisson {
                sources,
                objects_per_source,
                rate_range,
                weight_range,
                fluctuating_weights,
            } => random_walk_poisson(
                PoissonWorkloadOptions {
                    sources,
                    objects_per_source,
                    rate_range,
                    weight_range,
                    fluctuating_weights,
                },
                self.seed,
            ),
            WorkloadKind::Buoy { ref config } => buoy::workload(config, self.seed),
        }
    }

    /// The [`SystemConfig`] every system kind is built from.
    pub fn system_config(&self) -> SystemConfig {
        self.config
    }

    /// Whether the scenario's system can run it, asked at the boundaries
    /// (the codec, the sweep runner) so that a spec
    /// [`build`](Self::build) would panic on is an error there instead.
    ///
    /// # Errors
    ///
    /// A run parameter is outside what the simulation accepts, or one
    /// the codec does not carry (`tick`, `initial_threshold`,
    /// `feedback_targeting`) is not at its default (the message names the
    /// field); the system is competitive and Ψ is not in
    /// `[0, 1)` or the policy is not `area` (§7 derives both priority
    /// views from the area tracker); or the fault profile is invalid, or
    /// the system is an ideal or CGM scheduler — which model refresh loss
    /// only — and the profile sets a field it would have to ignore. The
    /// message names the kind and the field.
    pub fn check(&self) -> Result<(), String> {
        match self.workload {
            WorkloadKind::Poisson {
                sources,
                objects_per_source,
                rate_range: (rate_lo, rate_hi),
                weight_range: (weight_lo, weight_hi),
                ..
            } => {
                at_least("sources", sources.into(), 1.0)?;
                at_least("objects_per_source", objects_per_source.into(), 1.0)?;
                if sources.checked_mul(objects_per_source).is_none() {
                    return Err("`sources` × `objects_per_source` overflows u32".into());
                }
                positive("rate_lo", rate_lo)?;
                at_least("rate_hi", rate_hi, rate_lo)?;
                at_least("weight_lo", weight_lo, 0.0)?;
                at_least("weight_hi", weight_hi, weight_lo)?;
            }
            WorkloadKind::Buoy { config } => {
                at_least("buoys", config.buoys.into(), 1.0)?;
                at_least("components", config.components.into(), 1.0)?;
                if config.buoys.checked_mul(config.components).is_none() {
                    return Err("`buoys` × `components` overflows u32".into());
                }
                positive("sample_interval", config.sample_interval)?;
                positive("duration", config.duration)?;
                at_least("reversion", config.reversion, 0.0)?;
                if config.reversion > 1.0 {
                    return Err(format!("`reversion` is {}, must be <= 1", config.reversion));
                }
                at_least("noise", config.noise, 0.0)?;
            }
        }
        at_least("cache_bandwidth_mean", self.cache_bandwidth_mean, 0.0)?;
        at_least("source_bandwidth_mean", self.source_bandwidth_mean, 0.0)?;
        at_least("bandwidth_change_rate", self.bandwidth_change_rate, 0.0)?;
        at_least("alpha", self.alpha, 1.0)?;
        at_least("omega", self.omega, 1.0)?;
        at_least("warmup", self.warmup, 0.0)?;
        at_least("measure", self.measure, 0.0)?;
        if !(self.warmup + self.measure).is_finite() {
            return Err("`warmup` + `measure` must be finite".into());
        }
        // Not on the wire: any other value would run one way in-process
        // and another way through a sweep worker.
        let run = SystemConfig::default();
        let off_wire = [
            ("tick", self.tick != run.tick),
            (
                "initial_threshold",
                self.initial_threshold != run.initial_threshold,
            ),
            (
                "feedback_targeting",
                self.feedback_targeting != run.feedback_targeting,
            ),
        ];
        if let Some((field, _)) = off_wire.iter().find(|(_, moved)| *moved) {
            return Err(format!("`{field}` is off the wire; keep its default"));
        }
        if self.system == SystemKind::Competitive {
            if !(0.0..1.0).contains(&self.psi) {
                return Err(format!(
                    "the competitive system needs `psi` in [0, 1), not {}",
                    self.psi
                ));
            }
            if self.policy != PolicyKind::Area {
                return Err(format!(
                    "the competitive system needs `policy` area, not {}",
                    self.policy.name()
                ));
            }
        }
        let Some(profile) = self.fault else {
            return Ok(());
        };
        let checked = match self.system {
            SystemKind::Coop | SystemKind::Competitive => profile.validate(),
            SystemKind::Ideal => profile.loss_only_lane(self.sim_seed, "ideal").map(drop),
            SystemKind::Cgm(variant) => profile
                .loss_only_lane(self.sim_seed, variant.name())
                .map(drop),
        };
        checked.map_err(|e| format!("invalid fault profile: {e}"))
    }

    /// Builds the ready-to-run system over a workload already lowered
    /// (lets harnesses time workload construction separately).
    ///
    /// # Panics
    ///
    /// Panics on a scenario [`check`](Self::check) refuses.
    pub fn build_from(&self, spec: WorkloadSpec) -> ReadySystem {
        let cfg = self.config;
        let partition = || BandwidthPartition::new(self.psi, self.share);
        match self.system {
            SystemKind::Coop => ReadySystem::Coop(Box::new(CoopSystem::new(cfg, spec))),
            SystemKind::Ideal => ReadySystem::Ideal(Box::new(IdealSystem::new(cfg, spec))),
            SystemKind::Cgm(v) => ReadySystem::Cgm(Box::new(CgmSystem::new(v, cfg, spec))),
            SystemKind::Competitive => {
                ReadySystem::Competitive(Box::new(CompetitiveSystem::new(cfg, partition(), spec)))
            }
        }
    }

    /// Lowers the whole scenario: workload + config + system.
    pub fn build(&self) -> ReadySystem {
        self.build_from(self.workload())
    }

    /// Builds and runs the scenario.
    pub fn run(&self) -> RunReport {
        self.build().run()
    }

    /// CI-scale variant: same shape, a fraction of the work (the quick
    /// scale of the counter record).
    pub fn quick(mut self) -> Self {
        if let WorkloadKind::Poisson {
            ref mut sources, ..
        } = self.workload
        {
            *sources = (*sources / 4).max(1);
        }
        self.warmup = 5.0;
        self.measure /= 10.0;
        self.cache_bandwidth_mean = (self.cache_bandwidth_mean / 4.0).max(1.0);
        self
    }
}

/// Refuses `v` below `min` or not finite (NaN, ±∞), naming the field.
fn at_least(field: &str, v: f64, min: f64) -> Result<(), String> {
    if v >= min && v.is_finite() {
        Ok(())
    } else {
        Err(format!("`{field}` is {v}, must be finite and >= {min}"))
    }
}

/// Refuses `v` not above zero or not finite, naming the field.
fn positive(field: &str, v: f64) -> Result<(), String> {
    if v > 0.0 && v.is_finite() {
        Ok(())
    } else {
        Err(format!("`{field}` is {v}, must be finite and > 0"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(system: SystemKind) -> ScenarioSpec {
        ScenarioSpec {
            name: "tiny".into(),
            seed: 99,
            system,
            workload: WorkloadKind::Poisson {
                sources: 2,
                objects_per_source: 8,
                rate_range: (0.05, 0.5),
                weight_range: (1.0, 4.0),
                fluctuating_weights: false,
            },
            config: SystemConfig {
                cache_bandwidth_mean: 6.0,
                source_bandwidth_mean: 3.0,
                warmup: 5.0,
                measure: 40.0,
                ..SystemConfig::default()
            },
            ..ScenarioSpec::default()
        }
    }

    #[test]
    fn lowering_matches_hand_rolled_construction() {
        // The spec path must replay exactly what a consumer constructing
        // by hand gets: same workload draws, same config, same counters.
        let spec = tiny(SystemKind::Coop);
        let by_spec = spec.run();
        let by_hand = CoopSystem::new(
            SystemConfig {
                metric: Metric::Staleness,
                policy: PolicyKind::Area,
                cache_bandwidth_mean: 6.0,
                source_bandwidth_mean: 3.0,
                warmup: 5.0,
                measure: 40.0,
                ..SystemConfig::default()
            },
            random_walk_poisson(
                PoissonWorkloadOptions {
                    sources: 2,
                    objects_per_source: 8,
                    rate_range: (0.05, 0.5),
                    weight_range: (1.0, 4.0),
                    fluctuating_weights: false,
                },
                99,
            ),
        )
        .run();
        assert_eq!(by_spec.first_difference(&by_hand), None);
    }

    #[test]
    fn every_system_kind_builds_and_runs() {
        for system in [
            SystemKind::Coop,
            SystemKind::Ideal,
            SystemKind::Cgm(CgmVariant::IdealCacheBased),
            SystemKind::Cgm(CgmVariant::Cgm1),
            SystemKind::Cgm(CgmVariant::Cgm2),
            SystemKind::Competitive,
        ] {
            let report = tiny(system).run();
            assert!(
                report.updates_processed > 0,
                "{}: no updates",
                system.name()
            );
        }
    }

    #[test]
    fn competitive_lowering_respects_psi() {
        // Ψ = 0 sends no source-entitlement refreshes; a positive Ψ under
        // the piggyback option does. Seen through the RunReport adapter,
        // that means strictly more refreshes at the same threshold flow.
        // The cache link must be the binding constraint (threshold held
        // high) or the threshold pool alone keeps every object fresh and
        // the own-priority heaps are empty whenever piggyback tries to
        // spend.
        let constrained = |psi: f64| {
            let mut spec = tiny(SystemKind::Competitive);
            spec.cache_bandwidth_mean = 1.5;
            ScenarioSpec { psi, ..spec }
        };
        let zero = constrained(0.0).run();
        let half = constrained(0.5).run();
        assert!(zero.refreshes_sent > 0);
        assert!(
            half.refreshes_sent > zero.refreshes_sent,
            "piggyback at Ψ=0.5 should add source refreshes: {} vs {}",
            half.refreshes_sent,
            zero.refreshes_sent
        );
    }

    #[test]
    fn bound_policy_gets_workload_rates() {
        // Builds without panicking (the Bound policy requires bound rates,
        // which the systems take from the workload) and produces a run, for each kind that prices with a policy.
        for system in [SystemKind::Coop, SystemKind::Ideal] {
            let mut spec = tiny(system);
            spec.policy = PolicyKind::Bound;
            spec.check().unwrap();
            let report = spec.run();
            assert!(report.updates_processed > 0, "{}", system.name());
        }
    }

    #[test]
    fn quick_scales_like_the_bench_always_did() {
        let q = tiny(SystemKind::Coop).quick();
        match q.workload {
            WorkloadKind::Poisson { sources, .. } => assert_eq!(sources, 1),
            _ => unreachable!(),
        }
        assert_eq!(q.warmup, 5.0);
        assert_eq!(q.measure, 4.0);
        assert_eq!(q.cache_bandwidth_mean, 1.5);
    }

    #[test]
    fn builder_chain_equals_struct_literal() {
        let built = ScenarioSpec::builder("tiny")
            .seed(99)
            .system(SystemKind::Coop)
            .objects(2, 8)
            .rate_range(0.05, 0.5)
            .weight_range(1.0, 4.0)
            .fluctuating_weights(false)
            .bandwidth(6.0, 3.0)
            .window(5.0, 40.0)
            .finish();
        let literal = tiny(SystemKind::Coop);
        // Every wire field, the run parameters included, bit for bit.
        let wire = |spec: &ScenarioSpec| crate::codec::encode(spec).unwrap();
        assert_eq!(wire(&built), wire(&literal));
        // Same spec ⇒ same trajectory.
        assert_eq!(built.run().first_difference(&literal.run()), None);
    }

    #[test]
    #[should_panic(expected = "Poisson workload")]
    fn builder_rejects_poisson_setters_on_buoy_workloads() {
        use besync_workloads::buoy::BuoyConfig;
        let _ = ScenarioSpec::builder("bad")
            .buoy(BuoyConfig::quick())
            .rate_range(0.1, 1.0);
    }

    /// Ideal and CGM model refresh loss only: `build()` refuses a profile
    /// it would have to ignore part of, and a loss-only profile replays
    /// the run recorded before the refusal existed.
    fn loss_only(name: &str, kind: &str, lost: u64, delivered: u64, divergence_bits: u64) {
        let lossy = FaultProfile {
            loss_prob: 0.2,
            ..FaultProfile::default()
        };
        let mut spec = crate::by_name(name).unwrap().quick();
        spec.fault = Some(lossy);
        let r = spec.run();
        assert_eq!(
            (r.faults.lost_refreshes, r.refreshes_delivered),
            (lost, delivered)
        );
        assert_eq!(r.mean_divergence().to_bits(), divergence_bits);
        spec.fault = Some(FaultProfile {
            outage_rate: 0.01,
            outage_duration: 5.0,
            ..lossy
        });
        let refused = std::panic::catch_unwind(|| spec.build()).err();
        let refused = refused.expect("an outage profile was accepted");
        let message = refused.downcast_ref::<String>().expect("a panic message");
        assert!(
            message.contains(kind) && message.contains("`outage_rate`"),
            "{message}"
        );
    }

    #[test]
    fn ideal_takes_loss_and_refuses_outages() {
        loss_only("ideal_medium", "ideal", 724, 2763, 0x3fe693932aae8012);
    }

    #[test]
    fn cgm1_takes_loss_and_refuses_outages() {
        loss_only("cgm1_medium", "CGM1", 860, 3361, 0x3fe2b0b0852ebf09);
    }

    #[test]
    fn cgm2_takes_loss_and_refuses_outages() {
        loss_only("cgm2_medium", "CGM2", 797, 3419, 0x3fe263b9ed623f5a);
    }

    /// `b` with the quick buoy workload, edited.
    fn buoy(b: ScenarioSpecBuilder, edit: fn(&mut BuoyConfig)) -> ScenarioSpecBuilder {
        let mut config = BuoyConfig::quick();
        edit(&mut config);
        b.buoy(config)
    }

    /// One mutation per case, each a spec whose run panics: `check`
    /// refuses every one, naming the field, so the codec and the sweep
    /// runner never hand it to a system.
    #[test]
    fn check_refuses_what_the_run_would_panic_on() {
        type Edit = fn(ScenarioSpecBuilder) -> ScenarioSpecBuilder;
        let cases: [(&str, Edit); 26] = [
            ("psi", |b| b.competitive(1.0, SharePolicy::EqualShare)),
            ("psi", |b| b.competitive(f64::NAN, SharePolicy::EqualShare)),
            ("alpha", |b| b.thresholds(0.5, 10.0)),
            ("omega", |b| b.thresholds(1.1, 0.5)),
            ("cache_bandwidth_mean", |b| b.bandwidth(-1.0, 3.0)),
            ("source_bandwidth_mean", |b| b.bandwidth(6.0, -1.0)),
            ("bandwidth_change_rate", |b| b.bandwidth_change_rate(-0.1)),
            ("warmup", |b| b.window(f64::NAN, 40.0)),
            ("warmup", |b| b.window(-1.0, 40.0)),
            ("warmup", |b| b.window(f64::INFINITY, 40.0)),
            ("measure", |b| b.window(5.0, -1.0)),
            ("sources", |b| b.objects(0, 8)),
            ("objects_per_source", |b| b.objects(2, 0)),
            ("objects_per_source", |b| b.objects(1 << 16, 1 << 16)),
            ("rate_lo", |b| b.rate_range(0.0, 0.5)),
            ("rate_hi", |b| b.rate_range(0.5, 0.05)),
            ("rate_hi", |b| b.rate_range(0.05, f64::INFINITY)),
            ("weight_lo", |b| b.weight_range(-1.0, 4.0)),
            ("weight_hi", |b| b.weight_range(4.0, 1.0)),
            ("buoys", |b| buoy(b, |c| c.buoys = 0)),
            ("components", |b| buoy(b, |c| c.components = 0)),
            ("components", |b| {
                buoy(b, |c| (c.buoys, c.components) = (1 << 16, 1 << 16))
            }),
            ("sample_interval", |b| buoy(b, |c| c.sample_interval = 0.0)),
            ("sample_interval", |b| {
                buoy(b, |c| c.sample_interval = f64::NAN)
            }),
            ("duration", |b| buoy(b, |c| c.duration = 0.0)),
            ("duration", |b| buoy(b, |c| c.duration = f64::INFINITY)),
        ];
        for (field, edit) in cases {
            let base = ScenarioSpecBuilder {
                spec: tiny(SystemKind::Competitive),
            };
            let spec = edit(base).finish();
            let refused = spec.check().expect_err(field);
            assert!(refused.contains(&format!("`{field}`")), "{refused}");
            let ran = std::panic::catch_unwind(|| spec.run());
            assert!(ran.is_err(), "`{field}`: the refusal is needed");
        }
    }

    /// Buoy statistics outside the ranges `BuoyConfig` documents: `check`
    /// refuses each, naming the field. The NaN ones would not panic but
    /// run to a NaN divergence.
    #[test]
    fn check_refuses_buoy_statistics_outside_their_ranges() {
        type Edit = fn(&mut BuoyConfig);
        let nan: [(&str, Edit); 2] = [
            ("reversion", |c| c.reversion = f64::NAN),
            ("noise", |c| c.noise = f64::NAN),
        ];
        let out_of_range: [(&str, Edit); 3] = [
            ("reversion", |c| c.reversion = -0.1),
            ("reversion", |c| c.reversion = 1.5),
            ("noise", |c| c.noise = -1.0),
        ];
        let edited = |edit: Edit| {
            let mut spec = crate::by_name("buoy_week").unwrap().quick();
            match &mut spec.workload {
                WorkloadKind::Buoy { config } => edit(config),
                WorkloadKind::Poisson { .. } => unreachable!("buoy_week is a buoy scenario"),
            }
            spec
        };
        for (field, edit) in nan.into_iter().chain(out_of_range) {
            let refused = edited(edit).check().expect_err(field);
            assert!(refused.contains(&format!("`{field}`")), "{refused}");
        }
        for (field, edit) in nan {
            let divergence = edited(edit).run().mean_divergence();
            assert!(divergence.is_nan(), "`{field}`: the refusal is needed");
        }
    }

    #[test]
    fn system_kind_names_round_trip() {
        for k in [
            SystemKind::Coop,
            SystemKind::Ideal,
            SystemKind::Cgm(CgmVariant::IdealCacheBased),
            SystemKind::Cgm(CgmVariant::Cgm1),
            SystemKind::Cgm(CgmVariant::Cgm2),
            SystemKind::Competitive,
        ] {
            assert_eq!(SystemKind::parse(k.name()), Some(k));
        }
        assert_eq!(SystemKind::parse("bogus"), None);
    }
}
