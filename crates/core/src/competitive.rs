//! Cooperation in competitive environments (paper §7).
//!
//! Sources and the cache may disagree about what deserves to stay fresh:
//! the cache has one weighting (e.g. page importance in a Web index),
//! each source has its own (e.g. a retailer pushing its specials). The
//! paper's compromise dedicates a fraction `Ψ` of cache bandwidth to
//! *source* priorities:
//!
//! * options (1)/(2): sources get explicit refresh-rate allocations
//!   (equal, or proportional to their object counts) and spend them on
//!   their own highest-priority objects, while the remaining bandwidth
//!   runs the ordinary threshold protocol under the cache's priority;
//! * option (3): a source earns a piggyback entitlement of `Ψ/(1−Ψ)`
//!   own-choice refreshes per cache-priority refresh it performs, so
//!   sources that serve the cache well get proportionally more say.
//!
//! [`CompetitiveSystem`] is the §5 [`Protocol`] with [`Psi`] as its
//! [`Extension`]: a second, source-weighted priority view per object and
//! the sends that spend the sources' share. Everything else — threshold
//! sends, feedback, delivery, every fault class — is the shared protocol,
//! so at Ψ = 0 a run equals [`crate::CoopSystem`] bit for bit. Both
//! objectives are accounted against the same update stream and land in
//! one [`RunReport`]: the cache's is `divergence.mean_weighted`, the
//! sources' is the report's [`SourceSide`] block, so the Ψ trade-off is
//! directly measurable and crosses the wire codec like any other run.

use besync_data::{TruthTable, WeightProfile, WeightSet};
use besync_sim::SimTime;
use besync_workloads::WorkloadSpec;

use crate::cache::partition::{BandwidthPartition, PiggybackCredit, SharePolicy};
use crate::config::SystemConfig;
use crate::heap::IndexedMaxHeap;
use crate::kernel::Kernel;
use crate::priority::PolicyKind;
use crate::report::{RunReport, SourceSide};
use crate::system::{Extension, Protocol, RefreshMsg, System};

/// Configuration of a §7 competitive run.
#[derive(Debug, Clone)]
pub struct CompetitiveConfig {
    /// The base system configuration. The workload's weight profiles are
    /// the **cache's** priorities; the policy must be
    /// [`PolicyKind::Area`] (the §7 machinery derives both priority views
    /// from the shared area tracker).
    pub base: SystemConfig,
    /// Each object's weight under its **source's** objectives.
    pub source_weights: Vec<WeightProfile>,
    /// The Ψ partition.
    pub partition: BandwidthPartition,
}

/// The §7 conflicted-halves weighting (the shape of the paper's
/// competitive experiment): the cache favours the first half of each
/// source's objects 10:1, each source favours its second half.
/// Overwrites `spec.weights` with the cache's view and returns the
/// sources' view; both are derived from the layout alone.
pub fn conflicted_halves(spec: &mut WorkloadSpec) -> Vec<WeightProfile> {
    let n = spec.layout.objects_per_source();
    let mut source_weights = Vec::with_capacity(spec.total_objects());
    for obj in spec.layout.all_objects() {
        let (cache_w, source_w) = if obj.0 % n < n / 2 {
            (10.0, 1.0)
        } else {
            (1.0, 10.0)
        };
        spec.weights[obj.index()] = WeightProfile::constant(cache_w);
        source_weights.push(WeightProfile::constant(source_w));
    }
    source_weights
}

/// What §7 adds to the §5 protocol: the sources' side of the Ψ split.
pub struct Psi {
    partition: BandwidthPartition,
    /// Same events as the kernel's truth (which carries the cache's
    /// weights), weighted by the sources' priorities.
    source_truth: TruthTable,
    /// Per-source own-priority heap (source weights).
    own_heaps: Vec<IndexedMaxHeap>,
    /// The sources' own priorities' weights, dense-constant fast path
    /// (see [`WeightSet`]); `own_priority` re-derives quotes per send.
    source_weights: WeightSet,
    /// Options (1)/(2): per-source allocated refresh rate and accrued
    /// credit.
    allocations: Vec<f64>,
    own_credit: Vec<f64>,
    /// Option (3): piggyback entitlements.
    piggyback: Vec<PiggybackCredit>,
    source_refreshes: u64,
}

/// The §7 competitive synchronization system.
pub type CompetitiveSystem = System<Psi>;

impl CompetitiveSystem {
    /// Builds the competitive system.
    ///
    /// # Panics
    ///
    /// Panics if the base policy is not [`PolicyKind::Area`], the spec is
    /// inconsistent, or `source_weights` doesn't cover every object.
    pub fn new(cfg: CompetitiveConfig, spec: WorkloadSpec) -> Self {
        assert!(
            matches!(cfg.base.policy, PolicyKind::Area),
            "competitive runs require the Area policy"
        );
        assert_eq!(
            cfg.source_weights.len(),
            spec.total_objects(),
            "one source weight per object"
        );
        let layout = spec.layout;
        let m = layout.sources() as usize;
        let allocations = match cfg.partition.policy {
            SharePolicy::ProportionalToValue => vec![0.0; m],
            _ => cfg.partition.allocations(
                cfg.base.cache_bandwidth_mean,
                &vec![layout.objects_per_source(); m],
                None,
            ),
        };
        let psi = Psi {
            partition: cfg.partition,
            source_truth: TruthTable::new(
                cfg.base.metric,
                &spec.initial_values,
                cfg.source_weights.clone(),
            ),
            own_heaps: vec![IndexedMaxHeap::new(layout.objects_per_source() as usize); m],
            source_weights: WeightSet::new(cfg.source_weights),
            allocations,
            own_credit: vec![0.0; m],
            piggyback: vec![PiggybackCredit::default(); m],
            source_refreshes: 0,
        };
        Self::with_extension(cfg.base, spec, psi)
    }

    /// Processes every event at or before `t` (non-generic for the reason
    /// given at [`crate::CoopSystem::run_until`]).
    pub fn run_until(&mut self, t: SimTime) {
        self.kernel.run_until(t, &mut self.proto);
    }

    /// Runs to the horizon and reports both objectives: the cache's in
    /// the common [`RunReport`] fields, the sources' in its
    /// [`RunReport::competitive`] block.
    pub fn run(mut self) -> RunReport {
        let horizon = self.horizon();
        self.run_until(horizon);
        let psi = &self.proto.ext;
        let side = SourceSide {
            source_objective: psi.source_truth.report(horizon).mean_weighted,
            source_refreshes: psi.source_refreshes,
        };
        RunReport {
            competitive: Some(Box::new(side)),
            ..self.into_report()
        }
    }
}

impl Extension for Psi {
    fn after_update(p: &mut Protocol<Self>, now: SimTime, sid: usize, local: u32, value: f64) {
        let obj = p.sources[sid].global(local);
        p.ext.source_truth.source_update(now, obj, value);
        if !p.source_down(sid) {
            let own_p = p.own_priority(now, sid, local);
            p.ext.own_heaps[sid].push(local, own_p);
        }
    }

    /// Source-allocation sends (options 1/2) come first: they are the
    /// sources' entitlement regardless of the threshold pool's state.
    fn before_tick_sends(p: &mut Protocol<Self>, k: &mut Kernel, now: SimTime) {
        for sid in 0..p.sources.len() {
            let accrued = p.ext.own_credit[sid] + p.ext.allocations[sid] * p.cfg.tick;
            p.ext.own_credit[sid] = accrued.min(2.0);
            while p.ext.own_credit[sid] >= 1.0 && p.send_own_top(k, now, sid) {
                p.ext.own_credit[sid] -= 1.0;
            }
        }
    }

    /// Option (3): each cache-priority refresh earns piggyback credit,
    /// spent immediately on own-priority sends.
    fn after_threshold_send(
        p: &mut Protocol<Self>,
        k: &mut Kernel,
        now: SimTime,
        sid: usize,
        local: u32,
    ) {
        p.ext.own_heaps[sid].invalidate(local);
        if matches!(p.ext.partition.policy, SharePolicy::ProportionalToValue) {
            let ratio = p.ext.partition.piggyback_ratio();
            p.ext.piggyback[sid].earn(ratio);
            while p.ext.piggyback[sid].try_spend() && p.send_own_top(k, now, sid) {}
        }
    }

    fn after_refresh(&mut self, now: SimTime, msg: &RefreshMsg) {
        self.source_truth
            .apply_refresh(now, msg.obj, msg.snapshot.value, msg.snapshot.updates);
    }

    fn at_warmup(&mut self, now: SimTime) {
        self.source_truth.begin_measurement(now);
    }

    /// The crashed agent's own-priority quotes go with its §5 heap.
    fn at_crash(&mut self, sid: usize) {
        self.own_heaps[sid].rebuild(std::iter::empty());
    }
}

impl Protocol<Psi> {
    fn own_priority(&self, now: SimTime, sid: usize, local: u32) -> f64 {
        let raw = self.sources[sid].raw_area_priority(now, local);
        let obj = self.sources[sid].global(local);
        raw * self.ext.source_weights.weight_at(obj.index(), now)
    }

    /// Sends the source's own-priority top object, if the source is up
    /// and has one with positive priority and uplink credit. Returns
    /// whether a send happened.
    fn send_own_top(&mut self, k: &mut Kernel, now: SimTime, sid: usize) -> bool {
        if self.source_down(sid) {
            return false;
        }
        loop {
            let Some((quoted, local)) = self.ext.own_heaps[sid].peek_valid() else {
                return false;
            };
            // Re-derive with the current weight; quotes are lazy.
            let p = self.own_priority(now, sid, local);
            if quoted <= 0.0 && p <= 0.0 {
                return false;
            }
            if p <= 0.0 {
                // Stale quote; refresh it and retry.
                self.ext.own_heaps[sid].push(local, p);
                continue;
            }
            if !self.sources[sid].uplink.try_consume(now, 1.0) {
                return false;
            }
            let snapshot = self.sources[sid].mark_sent_unthrottled(now, local);
            self.ext.own_heaps[sid].invalidate(local);
            self.ext.source_refreshes += 1;
            self.offer(k, now, sid, local, snapshot);
            return true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultProfile, RecoveryPolicy};
    use besync_data::Metric;
    use besync_workloads::generators::{random_walk_poisson, PoissonWorkloadOptions};

    /// Cache wants the first half of each source's objects; sources want
    /// the second half.
    fn conflicted() -> (WorkloadSpec, Vec<WeightProfile>) {
        let mut spec = random_walk_poisson(
            PoissonWorkloadOptions {
                sources: 4,
                objects_per_source: 10,
                rate_range: (0.1, 0.8),
                weight_range: (1.0, 1.0),
                fluctuating_weights: false,
            },
            5,
        );
        let source_weights = conflicted_halves(&mut spec);
        (spec, source_weights)
    }

    fn base_cfg() -> SystemConfig {
        SystemConfig {
            metric: Metric::Staleness,
            cache_bandwidth_mean: 8.0,
            source_bandwidth_mean: 4.0,
            warmup: 30.0,
            measure: 150.0,
            ..SystemConfig::default()
        }
    }

    fn run_with(psi: f64, policy: SharePolicy) -> RunReport {
        build(None, psi, policy).run()
    }

    fn side(r: &RunReport) -> SourceSide {
        *r.competitive
            .as_deref()
            .expect("a §7 run reports its source side")
    }

    #[test]
    fn psi_zero_matches_plain_protocol_shape() {
        let r = run_with(0.0, SharePolicy::EqualShare);
        assert_eq!(side(&r).source_refreshes, 0);
        assert!(r.refreshes_sent > 0);
    }

    #[test]
    fn psi_shifts_the_objectives() {
        let none = side(&run_with(0.0, SharePolicy::EqualShare));
        let half = side(&run_with(0.5, SharePolicy::EqualShare));
        // Giving sources bandwidth must help their objective...
        assert!(
            half.source_objective < none.source_objective,
            "source objective should improve: {} -> {}",
            none.source_objective,
            half.source_objective
        );
        assert!(half.source_refreshes > 0);
    }

    #[test]
    fn piggyback_option_sends_source_refreshes() {
        let r = run_with(0.5, SharePolicy::ProportionalToValue);
        let own = side(&r).source_refreshes;
        assert!(own > 0);
        // Ratio 1:1 at Ψ=0.5 — piggybacks bounded by threshold sends
        // (plus own-heap availability).
        assert!(own <= r.refreshes_sent - own + 1);
    }

    #[test]
    fn loss_degrades_the_competitive_objectives_and_is_accounted() {
        let lossy_run = |fault| build(fault, 0.4, SharePolicy::ProportionalToValue).run();
        let clean = lossy_run(None);
        assert!(!clean.faults.any());
        let lossy = lossy_run(Some(FaultProfile {
            loss_prob: 0.3,
            ..FaultProfile::default()
        }));
        assert!(lossy.faults.lost_refreshes > 0);
        assert_eq!(lossy.faults.retransmits, 0);
        assert!(
            lossy.refreshes_delivered + lossy.faults.lost_refreshes <= lossy.refreshes_sent,
            "delivered {} + lost {} > sent {}",
            lossy.refreshes_delivered,
            lossy.faults.lost_refreshes,
            lossy.refreshes_sent
        );
        assert!(
            lossy.mean_divergence() > clean.mean_divergence(),
            "loss {} vs clean {}",
            lossy.mean_divergence(),
            clean.mean_divergence()
        );
        // A zero-intensity profile must match `None` exactly: the lane
        // draws change no delivery outcome at prob 0.
        let gated = lossy_run(Some(FaultProfile::default()));
        assert_eq!(clean.first_difference(&gated), None);
    }

    fn build(fault: Option<FaultProfile>, psi: f64, policy: SharePolicy) -> CompetitiveSystem {
        let (spec, source_weights) = conflicted();
        CompetitiveSystem::new(
            CompetitiveConfig {
                base: SystemConfig {
                    fault,
                    ..base_cfg()
                },
                source_weights,
                partition: BandwidthPartition::new(psi, policy),
            },
            spec,
        )
    }

    #[test]
    fn psi_zero_competitive_equals_coop() {
        // §7 is §5 with a Ψ-share diverted; with nothing diverted the two
        // are the same run, fault lanes included.
        let lossy = FaultProfile {
            loss_prob: 0.15,
            ..FaultProfile::default()
        };
        for fault in [None, Some(lossy)] {
            let coop = crate::CoopSystem::new(
                SystemConfig {
                    fault,
                    ..base_cfg()
                },
                conflicted().0,
            )
            .run();
            for policy in [SharePolicy::EqualShare, SharePolicy::ProportionalToValue] {
                let psi0 = build(fault, 0.0, policy).run();
                assert_eq!(side(&psi0).source_refreshes, 0);
                let cache_side = RunReport {
                    competitive: None,
                    ..psi0
                };
                let diff = cache_side.first_difference(&coop);
                assert_eq!(diff, None, "{policy:?}, fault {fault:?}");
            }
        }
    }

    #[test]
    fn competitive_runs_every_fault_class() {
        for recovery in [
            RecoveryPolicy::Retransmit { deadline: 1.5 },
            RecoveryPolicy::Resync,
        ] {
            let fault = Some(FaultProfile {
                loss_prob: 0.2,
                outage_rate: 0.03,
                outage_duration: 4.0,
                crash_rate: 0.02,
                crash_downtime: 6.0,
                recovery,
                ..FaultProfile::default()
            });
            let run = || build(fault, 0.4, SharePolicy::ProportionalToValue).run();
            let (a, b) = (run(), run());
            assert_eq!(a.first_difference(&b), None, "{recovery:?}");
            assert!(a.faults.outages > 0 && a.faults.crashes > 0);
            assert!(a.faults.lost_refreshes > 0 && a.faults.missed_updates > 0);
            // Every link transit ends delivered, lost, queued or dropped.
            assert!(
                a.refreshes_delivered + a.faults.lost_refreshes
                    <= a.refreshes_sent + a.faults.retransmits,
                "{recovery:?}: delivered {} + lost {} > sent {} + retransmits {}",
                a.refreshes_delivered,
                a.faults.lost_refreshes,
                a.refreshes_sent,
                a.faults.retransmits
            );
        }
    }

    #[test]
    fn proportional_share_equals_equal_share_for_uniform_sources() {
        // All sources own the same number of objects, so options 1 and 2
        // coincide exactly.
        let a = run_with(0.4, SharePolicy::EqualShare);
        let b = run_with(0.4, SharePolicy::ProportionalToObjects);
        assert_eq!(a.first_difference(&b), None);
    }
}
