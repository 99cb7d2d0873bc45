//! Per-layer replays: each layer's public type, built at the workload's
//! scale and driven in isolation through the call sequence
//! `CoopSystem::on_update` runs, in the order a calendar replay visits
//! the objects.
//!
//! Isolation is the stated limitation: a replay keeps one layer's state
//! hot, where the real loop interleaves all of them through the same
//! caches. What the replays miss is reported as the unattributed share,
//! not hidden.

use std::hint::black_box;
use std::time::Instant;

use besync::cache::CacheRuntime;
use besync::config::SystemConfig;
use besync::fault::{DeliveryEstimator, EpisodeSchedule, LossLane};
use besync::source::{Snapshot, SourceRuntime};
use besync::system::RefreshMsg;
use besync::threshold::ThresholdState;
use besync::RunReport;
use besync_data::{ObjectId, SourceId, TruthTable};
use besync_net::Link;
use besync_scenarios::ScenarioSpec;
use besync_sim::{CalendarQueue, HeapKey, IndexedHeap, SimTime};
use besync_workloads::WorkloadSpec;

use crate::trace::Tracer;

/// One layer's replay and what it attributes to the workload.
pub struct Layer {
    pub name: &'static str,
    /// Operations the replay performed (repeats exactly).
    pub replay_ops: u64,
    pub busy_s: f64,
    /// Operations the workload's own run performed on this layer, from
    /// its report's counters.
    pub workload_ops: u64,
    /// Measured inside another layer's replay too; left out of the sum.
    pub nested: bool,
}

impl Layer {
    pub fn ns_per_op(&self) -> f64 {
        if self.replay_ops == 0 {
            0.0
        } else {
            self.busy_s * 1e9 / self.replay_ops as f64
        }
    }

    /// Seconds of the workload's loop this layer accounts for in isolation.
    pub fn attributed_s(&self) -> f64 {
        self.ns_per_op() * 1e-9 * self.workload_ops as f64
    }
}

pub struct Replays {
    pub layers: Vec<Layer>,
    pub calendar_resizes: u64,
    pub truth_report_s: f64,
    /// Replays whose outputs disagreed with the recorded tape.
    pub failed: u64,
}

/// Events on the tape every replay is driven by.
const TAPE_EVENTS: usize = 2_000_000;
/// Tape entries per timed batch of the source replay.
const SOURCE_BATCH: usize = 4096;
const LINK_MESSAGES: u64 = 1_000_000;
const FEEDBACK_ROUNDS: u64 = 1 << 14;
const SCALAR_OPS: u64 = 1_000_000;

/// A recorded stretch of the workload's event stream: what the calendar
/// popped, and what the updater answered.
struct Tape {
    /// The initial schedule, in scheduling order.
    first: Vec<(u32, SimTime)>,
    at: Vec<SimTime>,
    slot: Vec<u32>,
    next: Vec<SimTime>,
    /// The object's value before and after the update.
    prev: Vec<f64>,
    value: Vec<f64>,
    /// The object's update count after this update.
    updates: Vec<u32>,
    tick_slot: u32,
}

impl Tape {
    /// Indices of the entries that are object updates (not ticks).
    fn updates(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.slot.len()).filter(|&i| self.slot[i] != self.tick_slot)
    }
}

fn far() -> SimTime {
    SimTime::new(1e9)
}

#[derive(Clone, Copy)]
struct Quote {
    priority: f64,
    seq: u64,
}

impl HeapKey for Quote {
    fn beats(&self, other: &Self) -> bool {
        match self.priority.total_cmp(&other.priority) {
            std::cmp::Ordering::Equal => self.seq < other.seq,
            o => o.is_gt(),
        }
    }
}

pub fn replay(spec: &ScenarioSpec, report: &RunReport, tr: &mut Tracer) -> Replays {
    let cfg = spec.system_config();
    let wl = spec.workload();
    let total = wl.total_objects();
    let m = wl.layout.sources();
    let per_source = wl.layout.objects_per_source();
    let ticks = ((cfg.warmup + cfg.measure) / cfg.tick) as u64;
    let updates = report.updates_processed;
    // The real loop sends about one refresh per this many updates; the
    // replays send at the same cadence so heaps fill as they do there.
    let send_every = (updates as f64 / report.refreshes_sent.max(1) as f64)
        .round()
        .max(1.0) as usize;
    let mut layers = Vec::new();
    let mut failed = 0;

    // Same geometry as `CoopSystem::new`: one slot per object plus the
    // tick and warm-up slots, bucket width from the aggregate event rate.
    let event_rate = wl.rates.iter().sum::<f64>() + 1.0 / cfg.tick.max(1e-6);
    let new_queue = || CalendarQueue::new(total + 2, 1.0 / event_rate);
    let tick_slot = total as u32;

    let mut updaters: Vec<_> = wl.updaters.iter().cloned().zip(wl.object_rngs()).collect();
    let mut tape = Tape {
        first: vec![(tick_slot, SimTime::new(cfg.tick))],
        at: Vec::with_capacity(TAPE_EVENTS),
        slot: Vec::with_capacity(TAPE_EVENTS),
        next: Vec::with_capacity(TAPE_EVENTS),
        prev: Vec::with_capacity(TAPE_EVENTS),
        value: Vec::with_capacity(TAPE_EVENTS),
        updates: Vec::with_capacity(TAPE_EVENTS),
        tick_slot,
    };
    for (i, (updater, rng)) in updaters.iter_mut().enumerate() {
        let t0 = updater
            .first_time(SimTime::ZERO, rng)
            .expect("replays need objects that update");
        tape.first.push((i as u32, t0));
    }
    let after_first = updaters.clone();
    tr.span("tape.record", |_| {
        let mut queue = new_queue();
        for &(slot, t) in &tape.first {
            queue.schedule(slot, t);
        }
        let mut values = wl.initial_values.clone();
        let mut counts = vec![0u32; total];
        while tape.at.len() < TAPE_EVENTS {
            let (now, slot) = queue
                .pop_at_or_before(far())
                .expect("updaters never run dry");
            let (prev, value, count, next) = if slot == tick_slot {
                (0.0, 0.0, 0, now + cfg.tick)
            } else {
                let i = slot as usize;
                let (updater, rng) = &mut updaters[i];
                let (value, next) = updater.fire(now, values[i], rng);
                let prev = std::mem::replace(&mut values[i], value);
                counts[i] += 1;
                (
                    prev,
                    value,
                    counts[i],
                    next.expect("updaters never run dry"),
                )
            };
            queue.schedule(slot, next);
            tape.at.push(now);
            tape.slot.push(slot);
            tape.next.push(next);
            tape.prev.push(prev);
            tape.value.push(value);
            tape.updates.push(count);
        }
    });
    drop(updaters);
    let tape_updates = tape.updates().count() as u64;
    let t_end = *tape.at.last().expect("tape is not empty");

    // Calendar: the hold operation (pop the earliest, schedule its next).
    let mut queue = new_queue();
    for &(slot, t) in &tape.first {
        queue.schedule(slot, t);
    }
    let mut mismatches = 0u64;
    timed(
        tr,
        &mut layers,
        "sim.calendar.hold",
        TAPE_EVENTS as u64,
        updates + ticks,
        || {
            for i in 0..TAPE_EVENTS {
                let popped = queue.pop_at_or_before(far());
                mismatches += u64::from(popped != Some((tape.at[i], tape.slot[i])));
                queue.schedule(tape.slot[i], tape.next[i]);
            }
        },
    );
    let calendar_resizes = queue.resizes();
    drop(queue);

    // Updater: random-walk step plus the next Poisson gap.
    let mut updaters = after_first;
    timed(
        tr,
        &mut layers,
        "workloads.updater.fire",
        tape_updates,
        updates,
        || {
            for i in tape.updates() {
                let (updater, rng) = &mut updaters[tape.slot[i] as usize];
                let fired = updater.fire(tape.at[i], tape.prev[i], rng);
                mismatches += u64::from(fired != (tape.value[i], Some(tape.next[i])));
            }
        },
    );
    drop(updaters);
    failed += u64::from(mismatches != 0);

    // Truth accounting: the divergence integrals behind every report.
    let mut truth = TruthTable::new(cfg.metric, &wl.initial_values, wl.weights.clone());
    truth.begin_measurement(SimTime::ZERO);
    let mut weights = vec![0.0; TAPE_EVENTS];
    timed(
        tr,
        &mut layers,
        "data.truth.update",
        tape_updates,
        updates,
        || {
            for i in tape.updates() {
                weights[i] = truth.source_update(tape.at[i], ObjectId(tape.slot[i]), tape.value[i]);
            }
        },
    );
    timed(
        tr,
        &mut layers,
        "data.truth.refresh",
        tape_updates,
        report.divergence.refreshes_applied,
        || {
            for i in tape.updates() {
                let obj = ObjectId(tape.slot[i]);
                truth.apply_refresh(t_end, obj, tape.value[i], u64::from(tape.updates[i]));
            }
        },
    );
    let (div, truth_report_s) = tr.span("data.truth.report", |_| truth.report(t_end));
    failed += u64::from(div.refreshes_applied != tape_updates);
    drop(truth);

    // Sources: quote on update, then the send path at the real cadence.
    let mut sources = build_sources(&cfg, &wl);
    let obj_source: Vec<u32> = (0..total as u32).map(|o| o / per_source).collect();
    let mut priorities = vec![0.0; TAPE_EVENTS];
    let (mut update_s, mut send_s, mut sends, mut over) = (0.0, 0.0, 0u64, 0u64);
    // Updates and sends alternate in batches, each batch timed on its own;
    // the two totals enter the trace as roll-ups, not a span per batch.
    tr.span("core.source", |tr| {
        for batch in (0..TAPE_EVENTS).step_by(SOURCE_BATCH) {
            let end = (batch + SOURCE_BATCH).min(TAPE_EVENTS);
            let t = Instant::now();
            for i in batch..end {
                let slot = tape.slot[i];
                if slot == tick_slot {
                    continue;
                }
                let src = &mut sources[obj_source[slot as usize] as usize];
                let local = src.local(ObjectId(slot));
                priorities[i] =
                    src.record_update_weighted(tape.at[i], local, tape.value[i], weights[i]);
                if let Some((p, _)) = src.candidate() {
                    over += u64::from(p > src.threshold.value());
                }
            }
            update_s += t.elapsed().as_secs_f64();
            let now = tape.at[end - 1];
            let t = Instant::now();
            for i in (batch..end).step_by(send_every) {
                let slot = tape.slot[i];
                if slot == tick_slot {
                    continue;
                }
                let src = &mut sources[obj_source[slot as usize] as usize];
                if let Some((_, local)) = src.candidate() {
                    let Snapshot { value, updates } = src.mark_sent(now, local);
                    black_box((value, updates));
                    sends += 1;
                }
            }
            send_s += t.elapsed().as_secs_f64();
        }
        tr.rollup("core.source.update", update_s, tape_updates);
        tr.rollup("core.source.send", send_s, sends);
    });
    black_box(over);
    let sent_by_sources: u64 = sources.iter().map(|s| s.sends).sum();
    failed += u64::from(sent_by_sources != sends);
    drop(sources);
    layers.push(Layer {
        name: "core.source.update",
        replay_ops: tape_updates,
        busy_s: update_s,
        workload_ops: updates - report.faults.missed_updates,
        nested: false,
    });
    layers.push(Layer {
        name: "core.source.send",
        replay_ops: sends,
        busy_s: send_s,
        workload_ops: report.refreshes_sent,
        nested: false,
    });

    // The heap inside each source, on the priorities the sources quoted.
    let mut heaps: Vec<IndexedHeap<Quote>> = (0..m)
        .map(|_| IndexedHeap::new(per_source as usize))
        .collect();
    let mut heap_ops = 0u64;
    let mut heap_replay = || {
        for (seq, i) in tape.updates().enumerate() {
            let slot = tape.slot[i];
            let heap = &mut heaps[obj_source[slot as usize] as usize];
            let quote = Quote {
                priority: priorities[i],
                seq: seq as u64,
            };
            heap.push(slot % per_source, quote);
            heap_ops += 1;
            if seq % send_every == 0 {
                black_box(heap.peek().map(|(k, item)| (k.priority, item)));
                black_box(heap.pop().map(|(k, item)| (k.priority, item)));
                heap_ops += 2;
            }
        }
    };
    let ((), heap_s) = tr.span("sim.heap.revise", |_| heap_replay());
    layers.push(Layer {
        name: "sim.heap.revise",
        replay_ops: heap_ops,
        busy_s: heap_s,
        workload_ops: 0,
        nested: true,
    });
    drop(heaps);

    // Links: uplink credit check plus the shared link's offer, in bursts
    // at 90 % of capacity, drained by a service call each tick.
    let mut cache_link: Link<RefreshMsg> = Link::new(cfg.cache_wave());
    let mut uplink: Link<()> = Link::new(cfg.source_wave(0));
    let mut delivered = 0u64;
    timed(
        tr,
        &mut layers,
        "net.link.msg",
        LINK_MESSAGES,
        report.refreshes_sent + report.faults.retransmits,
        || {
            const BURST: u64 = 8;
            let gap = BURST as f64 / (0.9 * cfg.cache_bandwidth_mean);
            let mut next_tick = cfg.tick;
            let mut out = Vec::new();
            for i in 0..LINK_MESSAGES {
                let t = (i / BURST) as f64 * gap;
                while t >= next_tick {
                    out.clear();
                    delivered += cache_link.service(SimTime::new(next_tick), &mut out) as u64;
                    next_tick += cfg.tick;
                }
                let now = SimTime::new(t);
                black_box(uplink.try_consume(now, 1.0));
                let msg = RefreshMsg {
                    obj: ObjectId(i as u32 % total as u32),
                    src: SourceId(i as u32 % m),
                    snapshot: Snapshot {
                        value: t,
                        updates: i,
                    },
                    threshold: 1.0,
                };
                delivered += u64::from(cache_link.offer(now, msg).is_some());
            }
        },
    );
    failed += u64::from(delivered + cache_link.queue_len() as u64 != LINK_MESSAGES);

    // Cache: picking feedback targets, as many per round as the run
    // averaged per tick.
    let mut cache = CacheRuntime::new(
        m,
        cfg.initial_threshold,
        cfg.feedback_targeting,
        cfg.sim_seed,
    );
    let k = ((report.feedback_messages as f64 / ticks.max(1) as f64).round() as usize)
        .clamp(1, m as usize);
    let mut targets = Vec::new();
    timed(
        tr,
        &mut layers,
        "core.cache.feedback",
        FEEDBACK_ROUNDS,
        ticks,
        || {
            for round in 0..FEEDBACK_ROUNDS {
                for j in 0..4 {
                    let h = (round * 4 + j).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    let threshold = 1.0 + (h >> 40) as f64 * 1e-6;
                    cache.observe_threshold(SourceId((h % u64::from(m)) as u32), threshold);
                }
                cache.select_targets_into(k, &mut targets);
                black_box(targets.len());
            }
        },
    );

    // Threshold: one increase plus one feedback decrease per step. The
    // increase also runs inside `core.source.send`; only feedback
    // decreases are attributed here.
    let mut threshold = ThresholdState::new(cfg.threshold_params(m), SimTime::ZERO);
    timed(
        tr,
        &mut layers,
        "core.threshold.step",
        SCALAR_OPS,
        report.feedback_messages,
        || {
            for i in 0..SCALAR_OPS {
                let now = SimTime::new(i as f64 * 0.01);
                threshold.on_refresh(now);
                threshold.on_feedback(now, false);
            }
            black_box(threshold.value());
        },
    );

    // Fault lanes exist only under a fault profile: zero operations, zero
    // time on the other workloads.
    let fault_ops = |n: u64| if cfg.fault.is_some() { n } else { 0 };
    let profile = cfg.fault.unwrap_or_default();
    let mut lane = LossLane::new(cfg.sim_seed, 0, profile.loss_prob);
    let mut lost = 0u64;
    timed(
        tr,
        &mut layers,
        "core.fault.loss_draw",
        fault_ops(SCALAR_OPS),
        fault_ops(report.refreshes_delivered + report.faults.lost_refreshes),
        || {
            for _ in 0..fault_ops(SCALAR_OPS) {
                lost += u64::from(lane.draw());
            }
        },
    );
    black_box(lost);
    let mut estimator = DeliveryEstimator::new(cfg.sim_seed, 0);
    timed(
        tr,
        &mut layers,
        "core.fault.ack",
        fault_ops(SCALAR_OPS),
        if profile.aware {
            report.feedback_messages
        } else {
            0
        },
        || {
            for i in 0..fault_ops(SCALAR_OPS) {
                estimator.on_ack(i * 9, i * 10);
            }
            black_box(estimator.value());
        },
    );
    let mut episodes = EpisodeSchedule::outages(cfg.sim_seed, &profile);
    timed(
        tr,
        &mut layers,
        "core.fault.episode",
        fault_ops(SCALAR_OPS),
        report.faults.outages + report.faults.crashes,
        || {
            for _ in 0..fault_ops(SCALAR_OPS) {
                black_box(episodes.next_episode());
            }
        },
    );

    Replays {
        layers,
        calendar_resizes,
        truth_report_s,
        failed,
    }
}

/// Times one layer's replay as a span carrying its operation count.
fn timed(
    tr: &mut Tracer,
    layers: &mut Vec<Layer>,
    name: &'static str,
    replay_ops: u64,
    workload_ops: u64,
    f: impl FnOnce(),
) {
    let ((), busy_s) = tr.span(name, |tr| {
        f();
        tr.count(replay_ops);
    });
    layers.push(Layer {
        name,
        replay_ops,
        busy_s,
        workload_ops,
        nested: false,
    });
}

/// The per-source runtimes, constructed as `CoopSystem::new` constructs
/// them.
fn build_sources(cfg: &SystemConfig, wl: &WorkloadSpec) -> Vec<SourceRuntime> {
    let m = wl.layout.sources();
    let n = wl.layout.objects_per_source() as usize;
    let aware = cfg.fault.is_some_and(|f| f.aware);
    (0..m)
        .map(|sid| {
            let (lo, hi) = (sid as usize * n, (sid as usize + 1) * n);
            let mut src = SourceRuntime::new(
                SourceId(sid),
                lo as u32,
                &wl.initial_values[lo..hi],
                wl.weights[lo..hi].to_vec(),
                wl.rates[lo..hi].to_vec(),
                Link::new(cfg.source_wave(sid)),
                cfg.threshold_params(m),
                cfg.metric,
                cfg.policy,
                cfg.estimator,
                None,
                SimTime::ZERO,
            );
            if aware {
                src.enable_delivery_estimator(cfg.sim_seed);
            }
            src
        })
        .collect()
}
