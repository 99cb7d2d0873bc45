//! The declarative scenario spec and its lowering.

use besync::cache::partition::{BandwidthPartition, SharePolicy};
use besync::competitive::{conflicted_halves, CompetitiveConfig, CompetitiveSystem};
use besync::config::SystemConfig;
use besync::fault::FaultProfile;
use besync::priority::{PolicyKind, RateEstimator};
use besync::system::CoopSystem;
use besync::{IdealSystem, RunReport};
use besync_baselines::{CgmConfig, CgmSystem, CgmVariant};
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
    /// lives on the spec; the workload's weights are replaced by the §7
    /// conflicted-halves pattern at lowering time.
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
/// A plain-data value; lowering it (see [`ScenarioSpec::build`]) goes
/// through exactly the same construction calls every consumer used
/// before this layer existed, so specs are trajectory-preserving by
/// construction.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Registry name (`besync-bench --only`, the counter record's key).
    pub name: String,
    /// One-line description for `besync-bench --list`.
    pub description: String,
    /// Workload seed: drives parameter draws and per-object update RNG.
    pub seed: u64,
    /// Simulation-side seed (bandwidth-wave phases, tie-breaking).
    pub sim_seed: u64,
    /// Which scheduler runs the scenario.
    pub system: SystemKind,
    /// The workload family and its regime.
    pub workload: WorkloadKind,
    /// Source-side refresh priority policy (cooperative systems).
    pub policy: PolicyKind,
    /// How sources estimate Poisson rates for closed-form policies.
    pub estimator: RateEstimator,
    /// Divergence metric being minimized.
    pub metric: Metric,
    /// Average cache-side bandwidth `B_C` (messages/second).
    pub cache_bandwidth_mean: f64,
    /// Average per-source bandwidth `B_S` (messages/second; unused by
    /// CGM, whose polling model has no source-side limit).
    pub source_bandwidth_mean: f64,
    /// The paper's `m_B`: peak relative bandwidth change rate. `0` keeps
    /// both links constant; `> 0` makes cache and source links fluctuate
    /// as independently-phased sine waves.
    pub bandwidth_change_rate: f64,
    /// Threshold increase factor α.
    pub alpha: f64,
    /// Threshold decrease factor ω.
    pub omega: f64,
    /// Warm-up duration excluded from measurement (seconds).
    pub warmup: f64,
    /// Measured duration after warm-up (seconds).
    pub measure: f64,
    /// Simulated-world fault profile (refresh loss, link outages, source
    /// crashes). `None` — the default — runs the fault-free path, which
    /// is bit-identical to the pre-fault tree.
    pub fault: Option<FaultProfile>,
    /// §7 only: the Ψ fraction of cache bandwidth dedicated to source
    /// priorities. Ignored by every other [`SystemKind`].
    pub psi: f64,
    /// §7 only: how the Ψ pool is divided among sources.
    pub share: SharePolicy,
}

impl Default for ScenarioSpec {
    /// Mirrors `SystemConfig::default()` where the fields overlap, so a
    /// struct-update spec lowers to the same config a bare
    /// `..SystemConfig::default()` produced.
    fn default() -> Self {
        ScenarioSpec {
            name: String::new(),
            description: String::new(),
            seed: 0,
            sim_seed: 0,
            system: SystemKind::Coop,
            workload: WorkloadKind::Poisson {
                sources: 10,
                objects_per_source: 10,
                rate_range: (0.01, 1.0),
                weight_range: (1.0, 10.0),
                fluctuating_weights: true,
            },
            policy: PolicyKind::Area,
            estimator: RateEstimator::LongRun,
            metric: Metric::Staleness,
            cache_bandwidth_mean: 100.0,
            source_bandwidth_mean: 10.0,
            bandwidth_change_rate: 0.0,
            alpha: 1.1,
            omega: 10.0,
            warmup: 100.0,
            measure: 500.0,
            fault: None,
            psi: 0.0,
            share: SharePolicy::ProportionalToValue,
        }
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
    /// One-line description for `besync-bench --list`.
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
        {
            let (s, o) = self.poisson_layout();
            *s = sources;
            *o = objects_per_source;
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

    fn poisson_layout(&mut self) -> (&mut u32, &mut u32) {
        match &mut self.spec.workload {
            WorkloadKind::Poisson {
                sources,
                objects_per_source,
                ..
            } => (sources, objects_per_source),
            WorkloadKind::Buoy { .. } => panic!("objects() requires the Poisson workload"),
        }
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

    /// Lowers the system side to a [`SystemConfig`] (cooperative and
    /// ideal schedulers).
    pub fn system_config(&self) -> SystemConfig {
        SystemConfig {
            metric: self.metric,
            policy: self.policy,
            estimator: self.estimator,
            cache_bandwidth_mean: self.cache_bandwidth_mean,
            source_bandwidth_mean: self.source_bandwidth_mean,
            bandwidth_change_rate: self.bandwidth_change_rate,
            alpha: self.alpha,
            omega: self.omega,
            warmup: self.warmup,
            measure: self.measure,
            sim_seed: self.sim_seed,
            fault: self.fault,
            ..SystemConfig::default()
        }
    }

    /// Lowers the system side to a [`CgmConfig`].
    ///
    /// # Panics
    ///
    /// Panics if the scenario's system is not a CGM variant.
    pub fn cgm_config(&self) -> CgmConfig {
        let SystemKind::Cgm(variant) = self.system else {
            panic!("scenario `{}` is not a CGM scenario", self.name);
        };
        CgmConfig {
            variant,
            metric: self.metric,
            cache_bandwidth_mean: self.cache_bandwidth_mean,
            bandwidth_change_rate: self.bandwidth_change_rate,
            warmup: self.warmup,
            measure: self.measure,
            sim_seed: self.sim_seed,
            fault: self.fault,
        }
    }

    /// Whether the scenario's system can run it, asked at the boundaries
    /// (the codec, the sweep runner) so that a spec
    /// [`build`](Self::build) would panic on is an error there instead.
    ///
    /// # Errors
    ///
    /// The system is competitive and the policy is not `area` (§7 derives
    /// both priority views from the area tracker); or the fault profile
    /// is invalid, or the system is an ideal or CGM scheduler — which
    /// model refresh loss only — and the profile sets a field it would
    /// have to ignore. The message names the kind and the field.
    pub fn check(&self) -> Result<(), String> {
        if self.system == SystemKind::Competitive && self.policy != PolicyKind::Area {
            return Err(format!(
                "the competitive system needs `policy` area, not {}",
                self.policy.name()
            ));
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
        let mut cfg = self.system_config();
        if self.policy == PolicyKind::Bound {
            // Bound pricing needs per-object refresh-rate bounds; the
            // workload's true rates are the natural seeded choice.
            cfg.bound_rates = Some(spec.rates.clone());
        }
        match self.system {
            SystemKind::Coop => ReadySystem::Coop(Box::new(CoopSystem::new(cfg, spec))),
            SystemKind::Ideal => ReadySystem::Ideal(Box::new(IdealSystem::new(cfg, spec))),
            SystemKind::Cgm(_) => {
                ReadySystem::Cgm(Box::new(CgmSystem::new(self.cgm_config(), spec)))
            }
            SystemKind::Competitive => {
                // Both weight views are derived here, from the layout
                // alone, so the scenario stays a plain-data value.
                let mut wl = spec;
                let source_weights = conflicted_halves(&mut wl);
                ReadySystem::Competitive(Box::new(CompetitiveSystem::new(
                    CompetitiveConfig {
                        base: cfg,
                        source_weights,
                        partition: BandwidthPartition::new(self.psi, self.share),
                    },
                    wl,
                )))
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

    /// CI-scale variant: same shape, a fraction of the work (the scaling
    /// `besync-bench --quick` has always applied).
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
            cache_bandwidth_mean: 6.0,
            source_bandwidth_mean: 3.0,
            warmup: 5.0,
            measure: 40.0,
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
        assert_eq!(by_spec.updates_processed, by_hand.updates_processed);
        assert_eq!(by_spec.refreshes_sent, by_hand.refreshes_sent);
        assert_eq!(by_spec.feedback_messages, by_hand.feedback_messages);
        assert_eq!(by_spec.mean_divergence(), by_hand.mean_divergence());
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
        let constrained = |psi: f64| ScenarioSpec {
            cache_bandwidth_mean: 1.5,
            psi,
            share: SharePolicy::ProportionalToValue,
            ..tiny(SystemKind::Competitive)
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
        // Builds without panicking (the Bound policy requires bound_rates)
        // and produces a run, for each kind that prices with a policy.
        for system in [SystemKind::Coop, SystemKind::Ideal] {
            let spec = ScenarioSpec {
                policy: PolicyKind::Bound,
                ..tiny(system)
            };
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
        assert_eq!(built.name, literal.name);
        assert_eq!(built.seed, literal.seed);
        assert_eq!(built.sim_seed, literal.sim_seed);
        assert_eq!(built.workload, literal.workload);
        assert_eq!(built.cache_bandwidth_mean, literal.cache_bandwidth_mean);
        assert_eq!(built.source_bandwidth_mean, literal.source_bandwidth_mean);
        assert_eq!(
            (built.warmup, built.measure),
            (literal.warmup, literal.measure)
        );
        // Same spec ⇒ same trajectory.
        let (a, b) = (built.run(), literal.run());
        assert_eq!(a.updates_processed, b.updates_processed);
        assert_eq!(a.mean_divergence().to_bits(), b.mean_divergence().to_bits());
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
