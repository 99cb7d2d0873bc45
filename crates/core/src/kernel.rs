//! The one event kernel under every system.
//!
//! A run of any scheduler in this workspace — the §5 protocol, its §7
//! competitive extension, the §3.3 ideal scheduler, the §6.3 CGM
//! baselines — is the same update stream dispatched to a different
//! policy. [`Kernel`] owns that stream: the [`CalendarQueue`], each
//! object's updater and RNG, the primary [`TruthTable`], and the single
//! loop that pops an event, applies it to the truth and hands it to the
//! system's statically dispatched [`Handler`].
//!
//! How a run's events are numbered and ordered is decided here and
//! nowhere else. Slots: object `i`'s single pending update is slot `i`,
//! then the per-tick event, then the end of warm-up, then whatever
//! auxiliary slots the system asked for (CGM's polls and re-allocation
//! timer, the protocol's outage and per-source crash transitions). The
//! queue breaks same-instant ties by schedule order, and the kernel
//! schedules warm-up, tick, then each object's first update; a system
//! schedules its auxiliary slots after that. Every golden trajectory was
//! recorded under this order.

use besync_data::{ObjectId, TruthTable};
use besync_sim::stats::RunningStats;
use besync_sim::{CalendarQueue, SimTime};
use besync_workloads::{Updater, WorkloadSpec};
use rand::rngs::SmallRng;

use crate::config::SystemConfig;
use crate::fault::FaultSummary;
use crate::report::RunReport;

/// What a system does with the kernel's events.
pub trait Handler {
    /// `obj` is about to be updated: the kernel calls this before firing
    /// the updater. A handler that keeps its own per-object record can
    /// load it here, so that cache miss overlaps the kernel's own instead
    /// of following them (at a million objects, a tenth of the run).
    #[inline]
    fn prefetch(&self, _obj: ObjectId) {}

    /// Object `obj` took `value` at `now`; the kernel has already applied
    /// it to the truth, which evaluated the object's `weight` there.
    fn on_update(&mut self, k: &mut Kernel, now: SimTime, obj: ObjectId, value: f64, weight: f64);

    /// The per-tick event; the kernel schedules the next one afterwards.
    fn on_tick(&mut self, k: &mut Kernel, now: SimTime);

    /// Warm-up ended; the kernel has opened the primary truth's
    /// measurement window.
    fn on_warmup(&mut self, _now: SimTime) {}

    /// Auxiliary slot `aux` (counted from zero) fired.
    fn on_aux(&mut self, _k: &mut Kernel, _now: SimTime, aux: u32) {
        unreachable!("auxiliary slot {aux} fired in a system that asked for none");
    }
}

/// Clock, event queue, update stream and ground truth of one run.
pub struct Kernel {
    queue: CalendarQueue,
    /// Each object's updater and its RNG stream, kept adjacent: `fire`
    /// touches both on every event, so one cache line beats two.
    updaters: Vec<(Updater, SmallRng)>,
    /// Ground truth under the weights the run reports divergence by.
    pub truth: TruthTable,
    tick: f64,
    horizon: SimTime,
    /// Slot of the tick event (`total_objects`); warm-up is the next
    /// slot and auxiliary slots follow it.
    tick_slot: u32,
    updates_processed: u64,
}

impl Kernel {
    /// Builds the kernel over `spec` with `cfg`'s metric, tick and
    /// window, taking the spec's updaters, and schedules warm-up, tick and
    /// every object's first update. `aux_slots` extra slots are reserved
    /// for [`Kernel::schedule_aux`]; `aux_rate` is how many of their
    /// events fire per second in steady state.
    ///
    /// # Panics
    ///
    /// Panics if the workload spec is internally inconsistent.
    pub fn new(
        cfg: &SystemConfig,
        spec: &mut WorkloadSpec,
        aux_slots: usize,
        aux_rate: f64,
    ) -> Self {
        spec.validate().expect("invalid workload spec");
        let total = spec.total_objects();
        let truth = TruthTable::new(cfg.metric, &spec.initial_values, spec.weights.clone());
        // Bucket width ≈ the mean gap between consecutive events (updates
        // plus auxiliary events plus the tick), the occupancy-one sweet
        // spot for a calendar queue: the dominant update→next-update
        // pattern costs an O(1) bucket push and a short scan of one hot
        // bucket.
        let event_rate = spec.rates.iter().sum::<f64>() + aux_rate + 1.0 / cfg.tick.max(1e-6);
        let mut queue = CalendarQueue::new(total + 2 + aux_slots, 1.0 / event_rate);
        let tick_slot = total as u32;
        queue.schedule(tick_slot + 1, SimTime::new(cfg.warmup));
        queue.schedule(tick_slot, SimTime::new(cfg.tick));
        let rngs = spec.object_rngs();
        let mut updaters: Vec<(Updater, SmallRng)> = std::mem::take(&mut spec.updaters)
            .into_iter()
            .zip(rngs)
            .collect();
        for (slot, (updater, rng)) in updaters.iter_mut().enumerate() {
            if let Some(t0) = updater.first_time(SimTime::ZERO, rng) {
                queue.schedule(slot as u32, t0);
            }
        }
        Kernel {
            queue,
            updaters,
            truth,
            tick: cfg.tick,
            horizon: SimTime::new(cfg.horizon()),
            tick_slot,
            updates_processed: 0,
        }
    }

    /// The configured end of simulated time.
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }

    /// Schedules auxiliary slot `aux` to fire at `at`. As with every
    /// slot, at most one event may be pending on it.
    pub fn schedule_aux(&mut self, aux: u32, at: SimTime) {
        self.queue.schedule(self.tick_slot + 2 + aux, at);
    }

    /// Processes every event at or before `t`; the run can then be
    /// inspected and resumed.
    pub fn run_until<H: Handler>(&mut self, t: SimTime, h: &mut H) {
        while let Some((now, slot)) = self.queue.pop_at_or_before(t) {
            if slot < self.tick_slot {
                // An object update — by far the dominant event.
                self.updates_processed += 1;
                let obj = ObjectId(slot);
                h.prefetch(obj);
                let current = self.truth.truth(obj).source_value;
                let (updater, rng) = &mut self.updaters[slot as usize];
                let (value, next) = updater.fire(now, current, rng);
                let weight = self.truth.source_update(now, obj, value);
                h.on_update(self, now, obj, value, weight);
                if let Some(next) = next {
                    self.queue.schedule(slot, next);
                }
            } else if slot == self.tick_slot {
                h.on_tick(self, now);
                self.queue.schedule(slot, now + self.tick);
            } else if slot == self.tick_slot + 1 {
                self.truth.begin_measurement(now);
                h.on_warmup(now);
            } else {
                h.on_aux(self, now, slot - self.tick_slot - 2);
            }
        }
    }

    /// The report every system starts from: divergence accounted to the
    /// horizon and the update count, all protocol activity zero.
    pub fn report(&self) -> RunReport {
        RunReport {
            divergence: self.truth.report(self.horizon),
            refreshes_sent: 0,
            refreshes_delivered: 0,
            feedback_messages: 0,
            polls_sent: 0,
            max_cache_queue: 0,
            mean_queue_wait: 0.0,
            threshold_stats: RunningStats::new(),
            updates_processed: self.updates_processed,
            faults: FaultSummary::default(),
            competitive: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use besync_data::ids::ObjectLayout;
    use besync_data::WeightProfile;
    use std::collections::VecDeque;

    /// Records the order events reach the handler in.
    #[derive(Default)]
    struct Tape(Vec<String>);

    impl Handler for Tape {
        fn on_update(&mut self, _: &mut Kernel, now: SimTime, obj: ObjectId, v: f64, w: f64) {
            self.0
                .push(format!("{} obj{}={v}*{w}", now.seconds(), obj.0));
        }
        fn on_tick(&mut self, _: &mut Kernel, now: SimTime) {
            self.0.push(format!("{} tick", now.seconds()));
        }
        fn on_warmup(&mut self, now: SimTime) {
            self.0.push(format!("{} warmup", now.seconds()));
        }
        fn on_aux(&mut self, k: &mut Kernel, now: SimTime, aux: u32) {
            self.0.push(format!("{} aux{aux}", now.seconds()));
            if aux == 1 && now.seconds() == 1.0 {
                k.schedule_aux(1, SimTime::new(2.0));
            }
        }
    }

    fn scripted(events: &[(f64, f64)]) -> Updater {
        Updater::Scripted {
            events: events
                .iter()
                .map(|&(t, v)| (SimTime::new(t), v))
                .collect::<VecDeque<_>>(),
        }
    }

    /// The tie order the goldens were recorded under, stated once: at
    /// one instant warm-up fires before the tick, the tick before
    /// objects (in id order), objects before auxiliary slots (in the
    /// order the system scheduled them); afterwards ties are FIFO by
    /// schedule call, across all slot kinds.
    #[test]
    fn init_order_and_same_instant_fifo() {
        let mut spec = WorkloadSpec {
            layout: ObjectLayout::new(1, 2),
            initial_values: vec![0.0, 0.0],
            updaters: vec![scripted(&[(1.0, 5.0), (2.0, 6.0)]), scripted(&[(1.0, 7.0)])],
            weights: vec![WeightProfile::unit(), WeightProfile::constant(3.0)],
            rates: vec![1.0, 1.0],
            seed: 0,
        };
        let cfg = SystemConfig {
            warmup: 1.0,
            measure: 2.0,
            ..SystemConfig::default()
        };
        let mut k = Kernel::new(&cfg, &mut spec, 2, 0.0);
        k.schedule_aux(1, SimTime::new(1.0));
        k.schedule_aux(0, SimTime::new(1.0));
        let mut tape = Tape::default();
        k.run_until(k.horizon(), &mut tape);
        assert_eq!(
            tape.0,
            [
                "1 warmup",
                "1 tick",
                "1 obj0=5*1",
                "1 obj1=7*3",
                "1 aux1",
                "1 aux0",
                // Re-armed while handling t = 1, in that order.
                "2 tick",
                "2 obj0=6*1",
                "2 aux1",
                "3 tick",
            ]
        );
        let report = k.report();
        assert_eq!(report.updates_processed, 3);
        assert_eq!(k.truth.truth(ObjectId(0)).source_value, 6.0);
    }
}
