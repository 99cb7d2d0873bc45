//! The CGM cache-driven schedulers (paper §6.3).
//!
//! "In their approach ... the cache schedules all refreshes and polls
//! sources for values. The refresh frequency for each object Oᵢ is set
//! independently based on an estimate of its average update rate λᵢ."
//!
//! Three variants, matching Figure 6's curves:
//!
//! * [`CgmVariant::IdealCacheBased`] — no polling cost (each refresh is 1
//!   message) and oracle knowledge of every λᵢ; the freshness-optimal
//!   allocation is computed once and followed forever.
//! * [`CgmVariant::Cgm1`] — refreshes cost a round trip (2 messages), and
//!   rates are estimated from last-modified times reported by sources.
//! * [`CgmVariant::Cgm2`] — as CGM1 but only binary change detection.
//!
//! Practical variants start from a uniform allocation, poll, estimate,
//! and periodically re-solve the allocation with the current estimates.
//! A small exploration floor keeps every object polled occasionally so a
//! pessimistic early estimate cannot starve it forever (the original
//! experiments re-tuned by repeated runs; the floor is our equivalent
//! safeguard).

use std::collections::VecDeque;

use besync::fault::{FaultProfile, FaultSummary, LossLane};
use besync::kernel::{Handler, Kernel};
use besync::report::RunReport;
use besync_data::{Metric, ObjectId};
use besync_net::Link;
use besync_sim::rng::{self, streams};
use besync_sim::{SimTime, Wave};
use besync_workloads::WorkloadSpec;
use rand::rngs::SmallRng;
use rand::Rng;

use crate::estimators::{
    BinaryChangeEstimator, ChangeObservation, LastModifiedEstimator, RateEstimate,
};
use crate::freshness::allocate;

/// Which CGM flavour to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CgmVariant {
    /// Free polling + oracle rates ("ideal cache-based").
    IdealCacheBased,
    /// Round-trip polling, last-modified-time estimation.
    Cgm1,
    /// Round-trip polling, binary change detection.
    Cgm2,
}

impl CgmVariant {
    /// Bandwidth units one refresh costs under this variant.
    pub fn cost_per_refresh(self) -> f64 {
        match self {
            CgmVariant::IdealCacheBased => 1.0,
            CgmVariant::Cgm1 | CgmVariant::Cgm2 => 2.0,
        }
    }

    /// Display name matching the paper's figure legends.
    pub fn name(self) -> &'static str {
        match self {
            CgmVariant::IdealCacheBased => "ideal cache-based",
            CgmVariant::Cgm1 => "CGM1",
            CgmVariant::Cgm2 => "CGM2",
        }
    }
}

/// How often practical variants re-solve the allocation (seconds).
const REALLOC_PERIOD: f64 = 50.0;

/// Fraction of the poll budget reserved as a uniform exploration floor
/// (practical variants only).
const EXPLORATION_FLOOR: f64 = 0.1;

/// Simulation tick (seconds).
const TICK: f64 = 1.0;

/// Configuration of a CGM run.
#[derive(Debug, Clone)]
pub struct CgmConfig {
    /// Which variant.
    pub variant: CgmVariant,
    /// Divergence metric accounted (CGM optimizes staleness; other
    /// metrics are measured but not targeted).
    pub metric: Metric,
    /// Average cache-side bandwidth (messages/second). The CGM polling
    /// model assumes no source-side limits (§6.3).
    pub cache_bandwidth_mean: f64,
    /// The paper holds bandwidth constant for this comparison (`m_B = 0`);
    /// nonzero values are supported for extensions.
    pub bandwidth_change_rate: f64,
    /// Warm-up duration (seconds).
    pub warmup: f64,
    /// Measured duration (seconds).
    pub measure: f64,
    /// Simulation-side seed (phases).
    pub sim_seed: u64,
    /// Simulated-world fault profile. CGM polls over the same unreliable
    /// medium, so of the fault classes only refresh (poll-response) loss
    /// applies; `None` keeps the fault-free path bit-identical.
    pub fault: Option<FaultProfile>,
}

impl Default for CgmConfig {
    fn default() -> Self {
        CgmConfig {
            variant: CgmVariant::IdealCacheBased,
            metric: Metric::Staleness,
            cache_bandwidth_mean: 50.0,
            bandwidth_change_rate: 0.0,
            warmup: 100.0,
            measure: 500.0,
            sim_seed: 0,
            fault: None,
        }
    }
}

impl CgmConfig {
    /// End of the run.
    pub fn horizon(&self) -> f64 {
        self.warmup + self.measure
    }

    /// The refresh budget in refreshes/second (bandwidth divided by the
    /// per-refresh message cost).
    pub fn refresh_budget(&self) -> f64 {
        self.cache_bandwidth_mean / self.variant.cost_per_refresh()
    }
}

enum Estimator {
    Oracle,
    LastModified(LastModifiedEstimator),
    Binary(BinaryChangeEstimator),
}

/// A running CGM scheduler over a workload: the shared event [`Kernel`]
/// with the cache-driven poller handling its events.
pub struct CgmSystem {
    kernel: Kernel,
    poller: Poller,
}

/// The cache-side polling scheduler as a [`Handler`]. CGM has **two**
/// independent pending events per object: its next update is the
/// kernel's, its next poll is auxiliary slot `i` (guarded by
/// `poll_scheduled`, so each slot holds at most one pending event); one
/// more auxiliary slot, `total`, carries the re-allocation timer.
struct Poller {
    cfg: CgmConfig,
    sched_rng: SmallRng,
    true_rates: Vec<f64>,
    freqs: Vec<f64>,
    estimators: Vec<Estimator>,
    last_update_time: Vec<SimTime>,
    last_poll_time: Vec<SimTime>,
    last_poll_updates: Vec<u64>,
    poll_scheduled: Vec<bool>,
    link: Link<()>,
    pending: VecDeque<u32>,
    /// Largest `pending.len()` seen: the report's `max_cache_queue`.
    max_pending: usize,
    polls: u64,
    /// Poll-response loss lane when a fault profile with positive loss is
    /// configured (`None` otherwise — no draws on the fault-free path).
    loss: Option<LossLane>,
    fault_stats: FaultSummary,
}

impl CgmSystem {
    /// Builds a CGM run over the workload (sources in the layout are
    /// irrelevant to CGM, which sees a flat set of objects).
    pub fn new(cfg: CgmConfig, mut spec: WorkloadSpec) -> Self {
        let total = spec.total_objects();
        let budget = cfg.refresh_budget();
        // Polls spend the whole refresh budget in steady state.
        let mut kernel = Kernel::new(
            cfg.metric,
            TICK,
            cfg.warmup,
            cfg.measure,
            &mut spec,
            total + 1,
            budget,
        );

        let (freqs, estimators): (Vec<f64>, Vec<Estimator>) = match cfg.variant {
            CgmVariant::IdealCacheBased => (
                allocate(&spec.rates, budget),
                (0..total).map(|_| Estimator::Oracle).collect(),
            ),
            CgmVariant::Cgm1 => (
                vec![budget / total as f64; total],
                (0..total)
                    .map(|_| Estimator::LastModified(LastModifiedEstimator::new()))
                    .collect(),
            ),
            CgmVariant::Cgm2 => (
                vec![budget / total as f64; total],
                (0..total)
                    .map(|_| Estimator::Binary(BinaryChangeEstimator::new()))
                    .collect(),
            ),
        };

        let mut sched_rng = rng::stream_rng(cfg.sim_seed, streams::SCHEDULER);
        if !matches!(cfg.variant, CgmVariant::IdealCacheBased) {
            kernel.schedule_aux(total as u32, SimTime::new(REALLOC_PERIOD));
        }
        let mut poll_scheduled = vec![false; total];
        for (idx, &f) in freqs.iter().enumerate() {
            if f > 0.0 {
                // Random phase so periodic refreshes don't all collide.
                let phase = sched_rng.gen_range(0.0..1.0) / f;
                kernel.schedule_aux(idx as u32, SimTime::new(phase.min(cfg.horizon())));
                poll_scheduled[idx] = true;
            }
        }

        let loss = cfg.fault.and_then(|profile| {
            let lane = profile.loss_only_lane(cfg.sim_seed, cfg.variant.name());
            lane.unwrap_or_else(|e| panic!("invalid fault profile: {e}"))
        });

        let poller = Poller {
            sched_rng,
            true_rates: spec.rates,
            freqs,
            estimators,
            last_update_time: vec![SimTime::ZERO; total],
            last_poll_time: vec![SimTime::ZERO; total],
            last_poll_updates: vec![0; total],
            poll_scheduled,
            link: Link::new(Wave::fluctuating(
                cfg.cache_bandwidth_mean,
                cfg.bandwidth_change_rate,
                0.0,
            )),
            pending: VecDeque::new(),
            max_pending: 0,
            polls: 0,
            loss,
            fault_stats: FaultSummary::default(),
            cfg,
        };
        CgmSystem { kernel, poller }
    }

    /// Runs to the horizon and reports.
    pub fn run(mut self) -> RunReport {
        self.kernel
            .run_until(self.kernel.horizon(), &mut self.poller);
        let p = self.poller;
        RunReport {
            refreshes_sent: p.polls,
            refreshes_delivered: p.polls - p.fault_stats.lost_refreshes,
            polls_sent: if matches!(p.cfg.variant, CgmVariant::IdealCacheBased) {
                0
            } else {
                p.polls
            },
            max_cache_queue: p.max_pending,
            faults: p.fault_stats,
            ..self.kernel.report()
        }
    }
}

impl Handler for Poller {
    fn on_update(&mut self, _: &mut Kernel, now: SimTime, obj: ObjectId, _value: f64, _w: f64) {
        self.last_update_time[obj.index()] = now;
    }

    fn on_tick(&mut self, k: &mut Kernel, now: SimTime) {
        let cost = self.cfg.variant.cost_per_refresh();
        while !self.pending.is_empty() && self.link.try_consume(now, cost) {
            let obj = ObjectId(self.pending.pop_front().expect("checked non-empty"));
            self.do_poll(k, now, obj);
            self.schedule_next_poll(k, now, obj);
        }
    }

    fn on_aux(&mut self, k: &mut Kernel, now: SimTime, aux: u32) {
        if (aux as usize) < self.freqs.len() {
            self.on_poll_due(k, now, ObjectId(aux));
        } else {
            self.on_realloc(k, now);
        }
    }
}

impl Poller {
    fn on_poll_due(&mut self, k: &mut Kernel, now: SimTime, obj: ObjectId) {
        let idx = obj.index();
        self.poll_scheduled[idx] = false;
        let cost = self.cfg.variant.cost_per_refresh();
        if self.link.try_consume(now, cost) {
            self.do_poll(k, now, obj);
            self.schedule_next_poll(k, now, obj);
        } else {
            // Not enough bandwidth right now: wait in FIFO order for the
            // tick drain (a poll "queued in the network").
            self.pending.push_back(obj.0);
            self.max_pending = self.max_pending.max(self.pending.len());
        }
    }

    fn do_poll(&mut self, k: &mut Kernel, now: SimTime, obj: ObjectId) {
        // A lost poll response burns the round trip but teaches the cache
        // nothing: no estimator observation, no refresh, and the poll
        // bookkeeping stays put so the next response covers the gap.
        self.polls += 1;
        if self.loss.as_mut().is_some_and(|l| l.draw()) {
            self.fault_stats.lost_refreshes += 1;
            return;
        }
        let idx = obj.index();
        let interval = (now - self.last_poll_time[idx]).max(1e-9);
        let source_updates = k.truth.truth(obj).source_updates;
        let changed = source_updates > self.last_poll_updates[idx];
        match &mut self.estimators[idx] {
            Estimator::Oracle => {}
            Estimator::LastModified(e) => {
                let obs = if changed {
                    ChangeObservation::Changed {
                        age: now - self.last_update_time[idx],
                    }
                } else {
                    ChangeObservation::Unchanged
                };
                e.observe(interval, obs);
            }
            Estimator::Binary(e) => {
                let obs = if changed {
                    ChangeObservation::Changed {
                        age: interval / 2.0,
                    }
                } else {
                    ChangeObservation::Unchanged
                };
                e.observe(interval, obs);
            }
        }
        // The poll response carries the current value: a perfectly fresh
        // refresh (propagation neglected, as in the paper).
        k.truth.apply_fresh_refresh(now, obj);
        self.last_poll_time[idx] = now;
        self.last_poll_updates[idx] = source_updates;
    }

    fn schedule_next_poll(&mut self, k: &mut Kernel, now: SimTime, obj: ObjectId) {
        let idx = obj.index();
        let f = self.freqs[idx];
        if f > 0.0 && !self.poll_scheduled[idx] {
            k.schedule_aux(obj.0, now + 1.0 / f);
            self.poll_scheduled[idx] = true;
        }
    }

    fn on_realloc(&mut self, k: &mut Kernel, now: SimTime) {
        let budget = self.cfg.refresh_budget();
        let n = self.freqs.len();
        let fallback = budget / n as f64;
        let rates_hat: Vec<f64> = self
            .estimators
            .iter()
            .enumerate()
            .map(|(i, e)| match e {
                Estimator::Oracle => self.true_rates[i],
                Estimator::LastModified(e) => e.estimate(fallback),
                Estimator::Binary(e) => e.estimate(fallback),
            })
            .collect();
        let mut freqs = allocate(&rates_hat, budget);
        // Exploration floor: keep every object polled occasionally so
        // estimates can recover, then re-normalize to the budget.
        let floor = EXPLORATION_FLOOR * budget / n as f64;
        if floor > 0.0 {
            for f in &mut freqs {
                if *f < floor {
                    *f = floor;
                }
            }
            let sum: f64 = freqs.iter().sum();
            if sum > 0.0 {
                let scale = budget / sum;
                for f in &mut freqs {
                    *f *= scale;
                }
            }
        }
        self.freqs = freqs;
        // Revive objects that had zero frequency (no scheduled poll).
        for i in 0..n {
            if self.freqs[i] > 0.0 && !self.poll_scheduled[i] && !self.pending.contains(&(i as u32))
            {
                let phase = self.sched_rng.gen_range(0.0..1.0) / self.freqs[i];
                k.schedule_aux(i as u32, now + phase);
                self.poll_scheduled[i] = true;
            }
        }
        k.schedule_aux(n as u32, now + REALLOC_PERIOD);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::freshness;
    use besync_workloads::generators::fig6_workload;

    fn cfg(variant: CgmVariant, bandwidth: f64) -> CgmConfig {
        CgmConfig {
            variant,
            cache_bandwidth_mean: bandwidth,
            warmup: 50.0,
            measure: 200.0,
            ..CgmConfig::default()
        }
    }

    #[test]
    fn ideal_runs_and_refreshes() {
        let spec = fig6_workload(5, 10, 1);
        let r = CgmSystem::new(cfg(CgmVariant::IdealCacheBased, 25.0), spec).run();
        assert!(r.refreshes_sent > 0);
        assert!(r.mean_divergence() >= 0.0 && r.mean_divergence() <= 1.0);
        assert_eq!(r.polls_sent, 0);
    }

    #[test]
    fn practical_variants_run() {
        for v in [CgmVariant::Cgm1, CgmVariant::Cgm2] {
            let spec = fig6_workload(5, 10, 2);
            let r = CgmSystem::new(cfg(v, 25.0), spec).run();
            assert!(r.polls_sent > 0, "{}", v.name());
            assert!(r.mean_divergence().is_finite());
        }
    }

    #[test]
    fn round_trip_cost_halves_throughput() {
        let spec_a = fig6_workload(5, 10, 3);
        let spec_b = fig6_workload(5, 10, 3);
        let ideal = CgmSystem::new(cfg(CgmVariant::IdealCacheBased, 20.0), spec_a).run();
        let practical = CgmSystem::new(cfg(CgmVariant::Cgm1, 20.0), spec_b).run();
        // Same bandwidth, but polls cost 2: roughly half the refreshes.
        let ratio = practical.refreshes_sent as f64 / ideal.refreshes_sent as f64;
        assert!(
            (0.3..0.75).contains(&ratio),
            "refresh ratio {ratio} (ideal {}, practical {})",
            ideal.refreshes_sent,
            practical.refreshes_sent
        );
    }

    #[test]
    fn ideal_beats_practical_on_staleness() {
        let ideal = CgmSystem::new(
            cfg(CgmVariant::IdealCacheBased, 30.0),
            fig6_workload(5, 10, 4),
        )
        .run();
        let cgm2 = CgmSystem::new(cfg(CgmVariant::Cgm2, 30.0), fig6_workload(5, 10, 4)).run();
        assert!(
            ideal.mean_divergence() <= cgm2.mean_divergence() + 0.02,
            "ideal {} vs CGM2 {}",
            ideal.mean_divergence(),
            cgm2.mean_divergence()
        );
    }

    #[test]
    fn more_bandwidth_less_staleness() {
        let poor = CgmSystem::new(
            cfg(CgmVariant::IdealCacheBased, 5.0),
            fig6_workload(5, 10, 5),
        )
        .run();
        let rich = CgmSystem::new(
            cfg(CgmVariant::IdealCacheBased, 45.0),
            fig6_workload(5, 10, 5),
        )
        .run();
        assert!(rich.mean_divergence() < poor.mean_divergence());
    }

    #[test]
    fn max_cache_queue_is_the_backlog_high_water_mark() {
        // Polls spend the whole budget, so a poll that falls due between
        // ticks often finds the credit spent and queues until the next
        // tick; this run's backlog has drained by the horizon.
        let c = || cfg(CgmVariant::Cgm1, 25.0);
        let r = CgmSystem::new(c(), fig6_workload(5, 10, 8)).run();
        let mut sys = CgmSystem::new(c(), fig6_workload(5, 10, 8));
        let horizon = sys.kernel.horizon();
        sys.kernel.run_until(horizon, &mut sys.poller);
        let backlog = sys.poller.pending.len();
        assert!(
            r.max_cache_queue > 0 && r.max_cache_queue >= backlog,
            "max_cache_queue {} vs final backlog {backlog}",
            r.max_cache_queue
        );
    }

    #[test]
    fn deterministic() {
        let a = CgmSystem::new(cfg(CgmVariant::Cgm1, 25.0), fig6_workload(5, 10, 6)).run();
        let b = CgmSystem::new(cfg(CgmVariant::Cgm1, 25.0), fig6_workload(5, 10, 6)).run();
        assert_eq!(a.mean_divergence(), b.mean_divergence());
        assert_eq!(a.polls_sent, b.polls_sent);
    }

    #[test]
    fn poll_rate_respects_budget() {
        let spec = fig6_workload(5, 10, 7);
        let c = cfg(CgmVariant::Cgm1, 20.0);
        let horizon = c.horizon();
        let r = CgmSystem::new(c, spec).run();
        // 20 units/s ÷ 2 per poll = ≤10 polls/s on average (plus burst).
        let rate = r.polls_sent as f64 / horizon;
        assert!(rate <= 10.5, "poll rate {rate}");
    }

    #[test]
    fn cgm_budget_is_respected() {
        let bandwidth = 30.0;
        for variant in [
            CgmVariant::IdealCacheBased,
            CgmVariant::Cgm1,
            CgmVariant::Cgm2,
        ] {
            let c = CgmConfig {
                warmup: 60.0,
                measure: 300.0,
                ..cfg(variant, bandwidth)
            };
            let horizon = c.horizon();
            let r = CgmSystem::new(c, fig6_workload(10, 10, 23)).run();
            let used = r.refreshes_sent as f64 * variant.cost_per_refresh();
            assert!(
                used <= bandwidth * horizon * 1.05 + 10.0,
                "{}: used {used} units over {horizon}s at capacity {bandwidth}",
                variant.name()
            );
        }
    }

    #[test]
    fn freshness_allocation_agrees_with_simulation() {
        // The analytic freshness model predicts simulated staleness well for
        // the ideal cache-based scheduler: staleness ≈ 1 − mean freshness.
        let spec = fig6_workload(10, 10, 24);
        let bandwidth = 50.0;
        let freqs = freshness::allocate(&spec.rates, bandwidth);
        let predicted = 1.0 - freshness::total_freshness(&spec.rates, &freqs) / 100.0;
        let c = CgmConfig {
            warmup: 60.0,
            measure: 600.0,
            ..cfg(CgmVariant::IdealCacheBased, bandwidth)
        };
        let simulated = CgmSystem::new(c, spec).run().mean_divergence();
        assert!(
            (simulated - predicted).abs() < 0.08,
            "simulated {simulated} vs analytic {predicted}"
        );
    }
}
