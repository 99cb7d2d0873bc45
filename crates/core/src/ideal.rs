//! The idealized cooperative scheduler (paper §3.3).
//!
//! The paper's yardstick: "all sources and the cache share knowledge
//! about each others' state without using network resources, and sources
//! are aware of available cache-side bandwidth. ... Each time there is
//! enough cache-side bandwidth to accept a refresh, the object with the
//! highest refresh priority among all objects at all sources should be
//! refreshed. If the source containing the highest priority object does
//! not have enough source-side bandwidth ... the object with the second
//! highest priority overall should be refreshed instead, and so on."
//!
//! [`IdealSystem`] implements exactly that with a global priority heap and
//! instantaneous (zero-latency, zero-overhead) refreshes. Its measured
//! divergence is the "theoretically achievable divergence" on the x-axis
//! of Figure 4 and the "ideal cooperative" curves of Figures 5–6.

use besync_data::ids::ObjectLayout;
use besync_data::{ObjectId, SourceId};
use besync_net::Link;
use besync_sim::{SimTime, Wave};
use besync_workloads::WorkloadSpec;

use crate::config::SystemConfig;
use crate::fault::{FaultSummary, LossLane};
use crate::kernel::{Handler, Kernel};
use crate::report::RunReport;
use crate::source::SourceRuntime;

/// The omniscient scheduler defining "theoretically achievable"
/// divergence: the shared event [`Kernel`] with a global-heap handler.
pub struct IdealSystem {
    kernel: Kernel,
    sched: Omniscient,
}

/// The §3.3 rule as a [`Handler`].
struct Omniscient {
    cfg: SystemConfig,
    layout: ObjectLayout,
    /// Every object's bookkeeping and the global priority heap: the ideal
    /// scheduler sees all objects directly, so it is one source-side
    /// runtime spanning them all. Its own uplink and threshold are
    /// unused — bandwidth limits are the per-source `uplinks` below.
    all: SourceRuntime,
    uplinks: Vec<Link<()>>,
    cache_link: Link<()>,
    stash: Vec<(f64, u32)>,
    /// Refresh-loss lane when a fault profile with positive loss is
    /// configured. The ideal scheduler has no message queue or link
    /// outages — of the simulated-world fault classes only loss applies,
    /// which is what the loss-sweep figure compares systems under.
    loss: Option<LossLane>,
    fault_stats: FaultSummary,
}

impl IdealSystem {
    /// Builds the idealized system from the same configuration/workload a
    /// [`crate::CoopSystem`] takes, so the two are directly comparable on
    /// identical update sequences.
    pub fn new(cfg: SystemConfig, mut spec: WorkloadSpec) -> Self {
        let kernel = Kernel::new(&cfg, &mut spec, 0, 0.0);
        let layout = spec.layout;
        let all = SourceRuntime::new(
            SourceId(0),
            0,
            &spec.initial_values,
            spec.weights,
            spec.rates,
            Link::new(Wave::Constant(0.0)),
            cfg.threshold_params(layout.sources()),
            cfg.metric,
            cfg.policy,
            cfg.estimator,
            cfg.bound_rates.clone(),
            SimTime::ZERO,
        );
        let sched = Omniscient {
            layout,
            all,
            uplinks: layout
                .all_sources()
                .map(|s| Link::new(cfg.source_wave(s.0)))
                .collect(),
            cache_link: Link::new(cfg.cache_wave()),
            stash: Vec::new(),
            loss: cfg.loss_only_lane("ideal"),
            fault_stats: FaultSummary::default(),
            cfg,
        };
        IdealSystem { kernel, sched }
    }

    /// Runs to the horizon and reports.
    pub fn run(mut self) -> RunReport {
        self.kernel
            .run_until(self.kernel.horizon(), &mut self.sched);
        let refreshes = self.sched.all.sends;
        RunReport {
            refreshes_sent: refreshes,
            refreshes_delivered: refreshes - self.sched.fault_stats.lost_refreshes,
            faults: self.sched.fault_stats,
            ..self.kernel.report()
        }
    }
}

impl Handler for Omniscient {
    fn on_update(&mut self, k: &mut Kernel, now: SimTime, obj: ObjectId, value: f64, weight: f64) {
        self.all.record_update_weighted(now, obj.0, value, weight);
        self.drain(k, now);
    }

    fn on_tick(&mut self, k: &mut Kernel, now: SimTime) {
        if !self.cfg.policy.piecewise_constant() {
            self.all.requote_all(now);
        }
        self.drain(k, now);
    }
}

impl Omniscient {
    /// Refresh the globally highest-priority feasible object while
    /// cache-side credit lasts, skipping (but retaining) objects whose
    /// source uplink is exhausted — the §3.3 rule.
    fn drain(&mut self, k: &mut Kernel, now: SimTime) {
        self.stash.clear();
        loop {
            if self.cache_link.credit(now) < 1.0 {
                break;
            }
            let (p, obj) = match self.all.heap.peek_valid() {
                Some(top) => top,
                None => break,
            };
            if p <= 0.0 {
                break;
            }
            let sid = self.layout.source_of(ObjectId(obj));
            self.all.heap.pop_valid();
            if !self.uplinks[sid.index()].try_consume(now, 1.0) {
                // Source-side constrained: skip to the next-highest.
                self.stash.push((p, obj));
                continue;
            }
            let consumed = self.cache_link.try_consume(now, 1.0);
            debug_assert!(consumed, "credit checked above");
            self.refresh(k, now, obj);
        }
        // Skipped objects keep their quotes for the next opportunity.
        for &(p, obj) in &self.stash {
            self.all.heap.push(obj, p);
        }
    }

    fn refresh(&mut self, k: &mut Kernel, now: SimTime, obj: u32) {
        self.all.mark_sent_unthrottled(now, obj);
        // The scheduler believes the refresh succeeded either way (the
        // sending side cannot observe a silent loss).
        if self.loss.as_mut().is_some_and(|l| l.draw()) {
            self.fault_stats.lost_refreshes += 1;
        } else {
            // Instantaneous and perfectly fresh (the idealized assumption).
            k.truth.apply_fresh_refresh(now, ObjectId(obj));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use besync_workloads::generators::{random_walk_poisson, PoissonWorkloadOptions};

    fn spec(seed: u64) -> WorkloadSpec {
        random_walk_poisson(
            PoissonWorkloadOptions {
                sources: 4,
                objects_per_source: 5,
                rate_range: (0.05, 0.5),
                weight_range: (1.0, 1.0),
                fluctuating_weights: false,
            },
            seed,
        )
    }

    fn cfg() -> SystemConfig {
        SystemConfig {
            cache_bandwidth_mean: 10.0,
            source_bandwidth_mean: 5.0,
            warmup: 20.0,
            measure: 100.0,
            ..SystemConfig::default()
        }
    }

    #[test]
    fn runs_and_reports() {
        let r = IdealSystem::new(cfg(), spec(1)).run();
        assert!(r.refreshes_sent > 0);
        assert!(r.mean_divergence() >= 0.0);
        assert_eq!(r.feedback_messages, 0);
        assert_eq!(r.max_cache_queue, 0);
    }

    #[test]
    fn deterministic() {
        let a = IdealSystem::new(cfg(), spec(9)).run();
        let b = IdealSystem::new(cfg(), spec(9)).run();
        assert_eq!(a.mean_divergence(), b.mean_divergence());
        assert_eq!(a.refreshes_sent, b.refreshes_sent);
    }

    #[test]
    fn more_bandwidth_never_hurts_much() {
        let tight = IdealSystem::new(
            SystemConfig {
                cache_bandwidth_mean: 1.0,
                ..cfg()
            },
            spec(3),
        )
        .run();
        let ample = IdealSystem::new(
            SystemConfig {
                cache_bandwidth_mean: 100.0,
                source_bandwidth_mean: 100.0,
                ..cfg()
            },
            spec(3),
        )
        .run();
        assert!(ample.mean_divergence() <= tight.mean_divergence() + 1e-9);
        // With bandwidth ≫ update rate, near-zero staleness.
        assert!(
            ample.mean_divergence() < 0.05,
            "{}",
            ample.mean_divergence()
        );
    }

    #[test]
    fn respects_source_side_limits() {
        // One source with zero uplink: its objects can never refresh, so
        // they should pile up divergence while others stay synced.
        let mut s = spec(4);
        // All objects of source 0 get huge update rates; cap the sim by
        // checking the run completes and divergence is sane.
        s.rates.iter_mut().for_each(|r| *r = 0.2);
        let r = IdealSystem::new(
            SystemConfig {
                source_bandwidth_mean: 0.0,
                cache_bandwidth_mean: 100.0,
                ..cfg()
            },
            s,
        )
        .run();
        // No source bandwidth at all → no refreshes anywhere.
        assert_eq!(r.refreshes_sent, 0);
        assert!(r.mean_divergence() > 0.5);
    }
}
