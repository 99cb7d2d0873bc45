//! The pragmatic cooperative synchronization system (paper §5).
//!
//! [`Protocol`] wires a [`WorkloadSpec`] into the full protocol:
//!
//! * **Sources** watch their objects, keep them "in priority order", and
//!   whenever source-side bandwidth permits, send the highest-priority
//!   object *if* its priority exceeds the local threshold `Tⱼ`; each send
//!   multiplies `Tⱼ` by `α·β` and piggybacks the new threshold.
//! * **The shared cache-side link** carries refresh messages; messages
//!   beyond its fluctuating capacity queue up (the flooding hazard).
//! * **The cache** applies delivered snapshots and, when it sees surplus
//!   bandwidth after serving the queue, spends the surplus on positive
//!   feedback messages to the highest-threshold sources, each dividing
//!   that source's threshold by ω (unless the source is saturated).
//!
//! Ground-truth divergence is accounted exactly by the kernel's
//! [`besync_data::TruthTable`]; note the asymmetry the paper exploits:
//! sources reason optimistically from their last *sent* snapshot, while
//! the truth reflects what actually reached the cache and when.
//!
//! The protocol is a [`Handler`] on the shared event [`Kernel`], generic
//! over an [`Extension`]: [`CoopSystem`] runs it with the zero-sized
//! [`Plain`] no-op, and the §7 competitive scheme
//! ([`crate::competitive`]) is the same protocol — fault layer included —
//! with a Ψ-share of bandwidth diverted at the extension's hook points.

use std::collections::VecDeque;

use besync_data::ids::ObjectLayout;
use besync_data::{ObjectId, SourceId, TruthTable};
use besync_net::Link;
use besync_sim::stats::RunningStats;
use besync_sim::SimTime;
use besync_workloads::WorkloadSpec;

use crate::cache::CacheRuntime;
use crate::config::SystemConfig;
use crate::fault::{
    EpisodeLane, EpisodeSchedule, FaultProfile, FaultSummary, LossLane, RecoveryPolicy,
};
use crate::kernel::{Handler, Kernel};
use crate::report::RunReport;
use crate::source::{Snapshot, SourceRuntime};

/// A refresh message in flight from a source to the cache.
#[derive(Debug, Clone, Copy)]
pub struct RefreshMsg {
    /// The object being refreshed.
    pub obj: ObjectId,
    /// Originating source.
    pub src: SourceId,
    /// The (send-time) snapshot of the object.
    pub snapshot: Snapshot,
    /// The source's local threshold, piggybacked (§5).
    pub threshold: f64,
}

/// Runtime state of the simulated-world fault layer. Present only when
/// the config carries a [`FaultProfile`]; with `None` the fault-free
/// path takes no extra queue slots and draws no fault randomness, so it
/// stays bit-identical to the pre-fault tree.
///
/// Exact-time transitions ride the kernel's auxiliary slots, one
/// episode lane per slot.
struct FaultLayer {
    profile: FaultProfile,
    /// Counter-hashed per-delivery loss decisions.
    loss: LossLane,
    /// Episode lanes by auxiliary slot: [`OUTAGE_AUX`] is the shared
    /// link's outage windows, `CRASH_AUX_BASE + j` source `j`'s crashes.
    lanes: Vec<EpisodeLane>,
    /// Lost refreshes awaiting link-layer retransmission. The deadline
    /// is constant, so push order is due order.
    retries: VecDeque<(SimTime, RefreshMsg)>,
    /// Cumulative refreshes delivered per source — the ack counters the
    /// cache piggybacks on §5 feedback when the profile is fault-aware.
    delivered_per_source: Vec<u64>,
}

/// The points where §7's competitive scheme departs from the §5
/// protocol. Every hook defaults to a no-op and is dispatched statically,
/// so [`Plain`] compiles to the protocol alone.
pub trait Extension: Sized {
    /// Object `local` of source `sid` took `value`; the source has
    /// recorded it (and quoted it, unless the source is down).
    fn after_update(_p: &mut Protocol<Self>, _now: SimTime, _sid: usize, _local: u32, _value: f64) {
    }

    /// The tick has delivered queued refreshes and is about to run the
    /// threshold sends.
    fn before_tick_sends(_p: &mut Protocol<Self>, _k: &mut Kernel, _now: SimTime) {}

    /// Source `sid` sent `local` through the threshold pool and the
    /// message has been offered to the cache link.
    fn after_threshold_send(
        _p: &mut Protocol<Self>,
        _k: &mut Kernel,
        _now: SimTime,
        _sid: usize,
        _local: u32,
    ) {
    }

    /// The cache applied `msg`'s snapshot.
    fn after_refresh(&mut self, _now: SimTime, _msg: &RefreshMsg) {}

    /// Warm-up ended.
    fn at_warmup(&mut self, _now: SimTime) {}

    /// Source `sid`'s sync agent crashed, losing its in-memory state.
    fn at_crash(&mut self, _sid: usize) {}
}

/// The §5 protocol as the paper states it: no extension.
#[derive(Debug, Clone, Copy, Default)]
pub struct Plain;

impl Extension for Plain {}

/// Sources, shared cache link, cache and fault layer of a §5 run — the
/// [`Handler`] a [`System`] puts on its [`Kernel`].
pub struct Protocol<X: Extension> {
    pub(crate) cfg: SystemConfig,
    layout: ObjectLayout,
    pub(crate) sources: Vec<SourceRuntime>,
    pub(crate) cache_link: Link<RefreshMsg>,
    pub(crate) cache: CacheRuntime,
    /// Source owning each object (precomputed: the per-event division in
    /// `ObjectLayout::source_of` is measurable at millions of events/sec).
    obj_source: Vec<u32>,
    scratch: Vec<RefreshMsg>,
    /// Reusable feedback target buffer (zero steady-state allocation).
    feedback_targets: Vec<u32>,
    refreshes_delivered: u64,
    /// Refreshes delivered since the last tick (feeds the utilization
    /// estimate below).
    deliveries_this_tick: u64,
    /// EWMA of refresh deliveries per tick: the cache's estimate of the
    /// bandwidth refreshes will need, reserved before spending "excess"
    /// on feedback. The paper's cache "continually monitors cache-side
    /// bandwidth utilization" (§5); reserving the running utilization is
    /// what keeps feedback from stealing bandwidth that refreshes arriving
    /// later in the tick would have used.
    delivery_rate_ewma: f64,
    /// The simulated-world fault layer, `None` on the fault-free path.
    faults: Option<FaultLayer>,
    fault_stats: FaultSummary,
    /// What the run adds to §5 ([`Plain`]: nothing).
    pub(crate) ext: X,
}

/// A §5 protocol run: the event [`Kernel`] plus the [`Protocol`] handling
/// its events.
pub struct System<X: Extension> {
    pub(crate) kernel: Kernel,
    pub(crate) proto: Protocol<X>,
}

/// The full cooperative system of the paper, ready to run.
pub type CoopSystem = System<Plain>;

impl CoopSystem {
    /// Builds the system from a configuration and workload.
    ///
    /// # Panics
    ///
    /// Panics if the workload spec is internally inconsistent or if
    /// `bound_rates` is required/mismatched (see
    /// [`crate::priority::PolicyKind::Bound`]).
    pub fn new(cfg: SystemConfig, spec: WorkloadSpec) -> Self {
        Self::with_extension(cfg, spec, Plain)
    }

    /// Processes every event at or before `t` (the simulation can then be
    /// inspected mid-run and resumed — used by tests and benchmarks).
    ///
    /// Deliberately not generic over the extension: a generic method is
    /// instantiated in whichever crate calls it, away from the source,
    /// link and cache code the loop inlines (measured: 8–10 % fewer
    /// events/sec when a downstream crate drives the loop).
    pub fn run_until(&mut self, t: SimTime) {
        self.kernel.run_until(t, &mut self.proto);
    }

    /// Runs to the configured horizon and reports.
    pub fn run(mut self) -> RunReport {
        self.run_until(self.horizon());
        self.into_report()
    }
}

impl<X: Extension> System<X> {
    /// Builds the protocol over `spec` with `ext` at its hook points.
    pub(crate) fn with_extension(cfg: SystemConfig, mut spec: WorkloadSpec, ext: X) -> Self {
        let layout = spec.layout;
        let m = layout.sources();
        let faults = cfg.fault.map(|profile| {
            profile.validate().expect("invalid fault profile");
            let outages = EpisodeSchedule::outages(cfg.sim_seed, &profile);
            let crashes = (0..m).map(|sid| EpisodeSchedule::crashes(cfg.sim_seed, sid, &profile));
            FaultLayer {
                loss: LossLane::new(cfg.sim_seed, 0, profile.loss_prob),
                profile,
                lanes: std::iter::once(outages)
                    .chain(crashes)
                    .map(EpisodeLane::new)
                    .collect(),
                retries: VecDeque::new(),
                delivered_per_source: vec![0; m as usize],
            }
        });
        // A fault profile needs exact-time transitions: one slot per
        // episode lane. With no profile the queue is constructed exactly
        // as before.
        let aux_slots = faults.as_ref().map_or(0, |fl| fl.lanes.len());
        let mut kernel = Kernel::new(
            cfg.metric,
            cfg.tick,
            cfg.warmup,
            cfg.measure,
            &mut spec,
            aux_slots,
            0.0,
        );

        // The sources take ownership of the spec's weight/rate pools
        // rather than copying slices out of them: at the 1M-object
        // `mega` scale the extra transient copy of each pool is tens of
        // megabytes of peak RSS. Splitting back-to-front makes each
        // `split_off` O(objects-per-source), and construction order
        // doesn't observe anything time-dependent, so reversing at the
        // end leaves every source bit-identical to the slice-copy build.
        let tparams = cfg.threshold_params(m);
        let mut weight_pool = std::mem::take(&mut spec.weights);
        let mut rate_pool = std::mem::take(&mut spec.rates);
        let mut sources = Vec::with_capacity(m as usize);
        for sid in (0..m).rev() {
            let base = sid * layout.objects_per_source();
            let lo = base as usize;
            let hi = lo + layout.objects_per_source() as usize;
            let bound_rates = cfg.bound_rates.as_ref().map(|all| all[lo..hi].to_vec());
            sources.push(SourceRuntime::new(
                SourceId(sid),
                base,
                &spec.initial_values[lo..hi],
                weight_pool.split_off(lo),
                rate_pool.split_off(lo),
                Link::new(cfg.source_wave(sid)),
                tparams,
                cfg.metric,
                cfg.policy,
                cfg.estimator,
                bound_rates,
                SimTime::ZERO,
            ));
        }
        sources.reverse();

        if let Some(fl) = &faults {
            // Fault-aware scheduling: each source prices its quotes by an
            // estimated delivery probability, fed by the cache's acks. The
            // estimator starts at 1.0, so priorities are unchanged until
            // the first ack arrives; without `aware` no estimator exists
            // and the priority path is bit-identical.
            if fl.profile.aware {
                for s in &mut sources {
                    s.enable_delivery_estimator(cfg.sim_seed);
                }
            }
            for (aux, lane) in fl.lanes.iter().enumerate() {
                if let Some(start) = lane.first_start() {
                    kernel.schedule_aux(aux as u32, SimTime::new(start));
                }
            }
        }

        let proto = Protocol {
            layout,
            sources,
            cache_link: Link::new(cfg.cache_wave()),
            cache: CacheRuntime::new(
                m,
                cfg.initial_threshold,
                cfg.feedback_targeting,
                cfg.sim_seed,
            ),
            obj_source: layout
                .all_objects()
                .map(|o| layout.source_of(o).0)
                .collect(),
            scratch: Vec::new(),
            feedback_targets: Vec::new(),
            refreshes_delivered: 0,
            deliveries_this_tick: 0,
            delivery_rate_ewma: 0.0,
            faults,
            fault_stats: FaultSummary::default(),
            ext,
            cfg,
        };
        System { kernel, proto }
    }

    /// Finishes a stepped run: accounts divergence up to the configured
    /// horizon and reports, exactly as [`CoopSystem::run`] would.
    pub fn into_report(self) -> RunReport {
        let p = self.proto;
        let mut threshold_stats = RunningStats::new();
        let mut refreshes_sent = 0;
        for s in &p.sources {
            threshold_stats.push(s.threshold.value());
            refreshes_sent += s.sends;
        }
        let link_stats = p.cache_link.stats();
        RunReport {
            refreshes_sent,
            refreshes_delivered: p.refreshes_delivered,
            feedback_messages: p.cache.feedback_sent,
            max_cache_queue: link_stats.max_queue,
            mean_queue_wait: link_stats.total_wait / (link_stats.delivered.max(1) as f64),
            threshold_stats,
            faults: p.fault_stats,
            ..self.kernel.report()
        }
    }

    /// The configured end of simulated time.
    pub fn horizon(&self) -> SimTime {
        self.kernel.horizon()
    }

    /// Read access to the per-source runtimes (tests, diagnostics).
    pub fn sources(&self) -> &[SourceRuntime] {
        &self.proto.sources
    }

    /// How objects are laid out over sources.
    pub fn layout(&self) -> ObjectLayout {
        self.proto.layout
    }

    /// The ground truth (for inspection mid-construction or in tests).
    pub fn truth(&self) -> &TruthTable {
        &self.kernel.truth
    }
}

/// Auxiliary slot carrying the shared link's outage start/end edges.
const OUTAGE_AUX: u32 = 0;
/// First per-source crash slot.
const CRASH_AUX_BASE: u32 = 1;

impl<X: Extension> Handler for Protocol<X> {
    /// Starts the `obj_source` → source → object-state load chain that
    /// `on_update` ends on.
    #[inline]
    fn prefetch(&self, obj: ObjectId) {
        let source = &self.sources[self.obj_source[obj.index()] as usize];
        std::hint::black_box(source.state(source.local(obj)).value);
    }

    // Inlined into the kernel loop, its one call site, which otherwise
    // sits in another codegen unit.
    #[inline]
    fn on_update(&mut self, k: &mut Kernel, now: SimTime, obj: ObjectId, value: f64, weight: f64) {
        let sid = self.obj_source[obj.index()] as usize;
        let down = self.source_down(sid);
        let source = &mut self.sources[sid];
        let local = source.local(obj);
        if down {
            // The data changed, but the sync agent is down: track the
            // state silently, quote nothing, send nothing. Divergence
            // accrues against the live truth.
            source.record_update_unquoted(now, local, value);
            self.fault_stats.missed_updates += 1;
        } else {
            source.record_update_weighted(now, local, value, weight);
        }
        X::after_update(self, now, sid, local, value);
        // §3.4: "sources have direct knowledge of update times and decide
        // whether to refresh immediately after each update".
        self.attempt_sends(k, now, sid);
    }

    fn on_tick(&mut self, k: &mut Kernel, now: SimTime) {
        // 1) Deliver queued refreshes as capacity allows.
        let mut msgs = std::mem::take(&mut self.scratch);
        msgs.clear();
        self.cache_link.service(now, &mut msgs);
        for msg in &msgs {
            self.deliver_faulty(k, now, *msg);
        }
        self.scratch = msgs;

        // 1b) Lost refreshes whose retransmit deadline has passed
        //     re-enter the shared link like any other traffic.
        self.process_retries(k, now);

        // 2) Time-dependent policies (Bound) need fresh quotes each tick.
        if !self.cfg.policy.piecewise_constant() {
            for sid in 0..self.sources.len() {
                if self.source_down(sid) {
                    continue;
                }
                self.sources[sid].requote_all(now);
            }
        }

        // 3) Each source ships what its credit and threshold allow.
        X::before_tick_sends(self, k, now);
        for sid in 0..self.sources.len() {
            self.attempt_sends(k, now, sid);
        }

        // 4) Update the utilization estimate, then spend genuine surplus
        //    on positive feedback (§5), aimed at the highest thresholds.
        self.delivery_rate_ewma =
            0.8 * self.delivery_rate_ewma + 0.2 * self.deliveries_this_tick as f64;
        self.deliveries_this_tick = 0;
        self.send_feedback(k, now);
    }

    fn on_warmup(&mut self, now: SimTime) {
        self.ext.at_warmup(now);
    }

    /// Fault transitions; the slots only exist when a profile is set.
    /// After the bookkeeping every edge shares, each applies its own
    /// effect on the link or the source.
    fn on_aux(&mut self, k: &mut Kernel, now: SimTime, aux: u32) {
        let started = self.episode_edge(k, now, aux);
        let fl = self
            .faults
            .as_mut()
            .expect("fault edge without a fault layer");
        let profile = fl.profile;
        if aux == OUTAGE_AUX {
            if started {
                // Bank credit and suspend accrual. The drop policy applies
                // to the retry side-queue too — retries must not ride out
                // an outage that drops fresh traffic.
                self.cache_link.suspend(now);
                if profile.outage_drops_queue {
                    self.fault_stats.dropped_in_outage += self.cache_link.drop_queue() as u64;
                    self.fault_stats.dropped_in_outage += fl.retries.len() as u64;
                    fl.retries.clear();
                }
            } else {
                self.cache_link.resume(now);
                if profile.aware {
                    // Fault-aware resume: merge due retries into the held
                    // backlog, then replay the §8 economics over the whole
                    // queue — highest weighted divergence first — instead
                    // of FIFO-draining a backlog whose order reflects
                    // pre-outage priorities.
                    self.process_retries(k, now);
                    self.reorder_held_queue(&k.truth, now);
                }
            }
            return;
        }
        let sid = (aux - CRASH_AUX_BASE) as usize;
        if started {
            // The sync agent loses its heap and goes silent.
            self.sources[sid].saturated = false;
            self.sources[sid].clear_quotes();
            self.ext.at_crash(sid);
        } else if matches!(profile.recovery, RecoveryPolicy::Resync) {
            // Cold-restart bulk resync: re-quote every diverged object
            // and let the catch-up burst compete for bandwidth under the
            // ordinary §8 priority scheme.
            self.sources[sid].requote_all(now);
            self.fault_stats.resync_quotes += self.sources[sid].heap.raw_len() as u64;
            self.attempt_sends(k, now, sid);
        }
    }
}

impl<X: Extension> Protocol<X> {
    /// Whether source `sid`'s sync agent is currently crashed.
    #[inline]
    pub(crate) fn source_down(&self, sid: usize) -> bool {
        match &self.faults {
            Some(fl) => fl.lanes[CRASH_AUX_BASE as usize + sid].active(),
            None => false,
        }
    }

    /// Fires lane `aux`'s pending edge with the bookkeeping the link lane
    /// and the source lanes share — the episode count and seconds, the
    /// divergence its objects accrued ([`EpisodeLane::fire`]) — and
    /// schedules the lane's next edge. Returns whether an episode started.
    fn episode_edge(&mut self, k: &mut Kernel, now: SimTime, aux: u32) -> bool {
        let (lo, hi) = if aux == OUTAGE_AUX {
            (0, k.truth.len())
        } else {
            let per_source = self.layout.objects_per_source() as usize;
            let sid = (aux - CRASH_AUX_BASE) as usize;
            (sid * per_source, (sid + 1) * per_source)
        };
        let probe = k.truth.divergence_integral_range(now, lo, hi);
        let fl = self
            .faults
            .as_mut()
            .expect("fault edge without a fault layer");
        let s = &mut self.fault_stats;
        let (count, seconds) = if aux == OUTAGE_AUX {
            (&mut s.outages, &mut s.outage_seconds)
        } else {
            (&mut s.crashes, &mut s.down_seconds)
        };
        let lane = &mut fl.lanes[aux as usize];
        let horizon = self.cfg.horizon();
        if let Some(t) = lane.fire(probe, horizon, count, seconds, &mut s.epoch_divergence) {
            k.schedule_aux(aux, SimTime::new(t));
        }
        lane.active()
    }

    /// Sends from source `sid` while (a) an over-threshold candidate
    /// exists and (b) source-side credit remains. Updates the saturation
    /// flag per §5 footnote 3.
    fn attempt_sends(&mut self, k: &mut Kernel, now: SimTime, sid: usize) {
        if self.source_down(sid) {
            return;
        }
        loop {
            let source = &mut self.sources[sid];
            let (priority, local) = match source.candidate() {
                Some(c) => c,
                None => {
                    source.saturated = false;
                    return;
                }
            };
            if priority <= source.threshold.value() {
                source.saturated = false;
                return;
            }
            if !source.uplink.try_consume(now, 1.0) {
                // Over-threshold work pending but no source bandwidth.
                source.saturated = true;
                return;
            }
            let snapshot = source.mark_sent(now, local);
            self.offer(k, now, sid, local, snapshot);
            X::after_threshold_send(self, k, now, sid, local);
        }
    }

    /// Puts source `sid`'s just-taken `snapshot` of `local` on the cache
    /// link, delivering it at once if the link has credit.
    pub(crate) fn offer(
        &mut self,
        k: &mut Kernel,
        now: SimTime,
        sid: usize,
        local: u32,
        snapshot: Snapshot,
    ) {
        let source = &self.sources[sid];
        let msg = RefreshMsg {
            obj: source.global(local),
            src: source.id,
            snapshot,
            threshold: source.threshold.value(),
        };
        if let Some(delivered) = self.cache_link.offer(now, msg) {
            self.deliver_faulty(k, now, delivered);
        }
    }

    fn send_feedback(&mut self, k: &mut Kernel, now: SimTime) {
        if self.cache_link.has_backlog() {
            return;
        }
        // Reserve the bandwidth refreshes have been using; only what's
        // left beyond that is surplus. Without the reserve, feedback sent
        // at the tick boundary starves refreshes that arrive mid-tick.
        let surplus = (self.cache_link.credit(now) - self.delivery_rate_ewma).floor();
        if surplus < 1.0 {
            return;
        }
        let k_targets = (surplus as usize).min(self.sources.len());
        if k_targets == 0 {
            return;
        }
        // The target list is built into a buffer owned by this struct (not
        // the cache), so we can iterate it while mutating cache state; it
        // is reused across ticks, keeping the steady state allocation-free.
        let mut targets = std::mem::take(&mut self.feedback_targets);
        self.cache.select_targets_into(k_targets, &mut targets);
        for &sid in &targets {
            // Refreshes triggered by earlier feedback may have refilled
            // the queue; surplus is gone then.
            if !self.cache_link.try_consume(now, 1.0) {
                break;
            }
            self.cache.feedback_sent += 1;
            let sid = sid as usize;
            if self.source_down(sid) {
                // The message spent cache credit, but the crashed sync
                // agent never receives it: no threshold effect.
                continue;
            }
            let saturated = self.sources[sid].saturated;
            self.sources[sid].threshold.on_feedback(now, saturated);
            // Fault-aware runs piggyback the cache's cumulative delivery
            // count for this source on the feedback message; the source
            // folds it into its loss-rate estimator. Feedback is only
            // sent when the link queue is empty, so the ack reflects a
            // settled window rather than in-flight traffic.
            if let Some(fl) = &self.faults {
                if fl.profile.aware {
                    let acked = fl.delivered_per_source[sid];
                    self.sources[sid].on_delivery_ack(acked);
                }
            }
            // The lowered threshold may make objects eligible right away.
            self.attempt_sends(k, now, sid);
        }
        self.feedback_targets = targets;
    }

    /// Delivery with the loss lane in front: each transmitted refresh is
    /// independently lost with the profile's probability. The source
    /// already spent uplink credit and reset its view in `mark_sent`, so
    /// a loss silently leaves the cache stale — under the retransmit
    /// policy the message is queued for a deadline-delayed resend.
    fn deliver_faulty(&mut self, k: &mut Kernel, now: SimTime, msg: RefreshMsg) {
        if let Some(fl) = &mut self.faults {
            if fl.profile.loss_prob > 0.0 && fl.loss.draw() {
                self.fault_stats.lost_refreshes += 1;
                if let RecoveryPolicy::Retransmit { deadline } = fl.profile.recovery {
                    fl.retries.push_back((now + deadline, msg));
                }
                return;
            }
        }
        self.deliver(k, now, msg);
    }

    /// Re-offers every lost refresh whose retransmit deadline has
    /// passed. Retransmissions pay for cache-link bandwidth like any
    /// refresh and can themselves be lost again. Retries superseded by
    /// a newer snapshot are purged before they burn link credit, and
    /// during an outage window retries wait like any other traffic
    /// (they were already dropped at outage start under `drops_queue`).
    fn process_retries(&mut self, k: &mut Kernel, now: SimTime) {
        if self.cache_link.is_suspended() {
            return;
        }
        loop {
            let msg = {
                let Some(fl) = self.faults.as_mut() else {
                    return;
                };
                match fl.retries.front() {
                    Some((due, _)) if *due <= now => fl.retries.pop_front().expect("front ok").1,
                    _ => return,
                }
            };
            if self.retry_superseded(&k.truth, &msg) {
                self.fault_stats.superseded_retries += 1;
                continue;
            }
            self.fault_stats.retransmits += 1;
            if let Some(delivered) = self.cache_link.offer(now, msg) {
                self.deliver_faulty(k, now, delivered);
            }
        }
    }

    /// Whether a queued retry is no longer worth sending. Always purged:
    /// the cache already holds a newer snapshot (a later send got
    /// through), so delivery would be dropped by the recency guard
    /// anyway. Fault-aware runs additionally purge retries whose source
    /// has updated the object since the lost send — the retried snapshot
    /// no longer matches the source, so under the divergence accounting
    /// it buys nothing (and the newer state will be quoted on its own).
    fn retry_superseded(&self, truth: &TruthTable, msg: &RefreshMsg) -> bool {
        if msg.snapshot.updates <= truth.truth(msg.obj).cached_updates {
            return true;
        }
        let aware = self.faults.as_ref().is_some_and(|fl| fl.profile.aware);
        if !aware {
            return false;
        }
        let source = &self.sources[msg.src.index()];
        let local = source.local(msg.obj);
        u64::from(source.state(local).updates) > msg.snapshot.updates
    }

    /// Reorders the cache-link backlog by the divergence a delivery
    /// would resolve (`weight × divergence(snapshot, cached)`), the
    /// cache-side analogue of the §8 priority a send was quoted under.
    fn reorder_held_queue(&mut self, truth: &TruthTable, now: SimTime) {
        let metric = self.cfg.metric;
        self.cache_link.reorder_queue_by(|msg: &RefreshMsg| {
            let t = truth.truth(msg.obj);
            let gain = metric.divergence(
                msg.snapshot.value,
                msg.snapshot.updates,
                t.cached_value,
                t.cached_updates,
            );
            truth.weight_at(msg.obj, now) * gain
        });
    }

    fn deliver(&mut self, k: &mut Kernel, now: SimTime, msg: RefreshMsg) {
        if let Some(fl) = &mut self.faults {
            // Ack accounting: the message transited the link, so it
            // counts as delivered for the source's loss-rate estimator
            // even if the recency guard discards it below.
            fl.delivered_per_source[msg.src.index()] += 1;
        }
        self.refreshes_delivered += 1;
        self.deliveries_this_tick += 1;
        // Recency guard: a retransmitted lost refresh that arrives after
        // a newer refresh for the same object must not overwrite the
        // fresher cached value. On the fault-free path snapshot update
        // counts are strictly increasing per object across sends and the
        // link is FIFO, so this guard can only fire for retransmissions.
        if msg.snapshot.updates <= k.truth.truth(msg.obj).cached_updates {
            self.fault_stats.stale_drops += 1;
            return;
        }
        k.truth
            .apply_refresh(now, msg.obj, msg.snapshot.value, msg.snapshot.updates);
        self.ext.after_refresh(now, &msg);
        self.cache.observe_threshold(msg.src, msg.threshold);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::priority::PolicyKind;
    use besync_data::{Metric, WeightProfile};
    use besync_workloads::generators::{random_walk_poisson, PoissonWorkloadOptions};

    /// `sources × n` random-walk objects with unit weights and update
    /// rates drawn from `[0.05, max_rate]`.
    fn poisson(sources: u32, n: u32, max_rate: f64, seed: u64) -> WorkloadSpec {
        random_walk_poisson(
            PoissonWorkloadOptions {
                sources,
                objects_per_source: n,
                rate_range: (0.05, max_rate),
                weight_range: (1.0, 1.0),
                fluctuating_weights: false,
            },
            seed,
        )
    }

    fn small_spec(seed: u64) -> WorkloadSpec {
        poisson(4, 5, 0.5, seed)
    }

    fn quick_cfg() -> SystemConfig {
        SystemConfig {
            metric: Metric::Staleness,
            cache_bandwidth_mean: 10.0,
            source_bandwidth_mean: 5.0,
            warmup: 20.0,
            measure: 100.0,
            ..SystemConfig::default()
        }
    }

    /// A 350-second staleness run at the given link bandwidths.
    fn long_cfg(cache_bandwidth_mean: f64, source_bandwidth_mean: f64) -> SystemConfig {
        SystemConfig {
            cache_bandwidth_mean,
            source_bandwidth_mean,
            warmup: 50.0,
            measure: 300.0,
            ..quick_cfg()
        }
    }

    #[test]
    fn ample_bandwidth_keeps_divergence_low() {
        let cfg = SystemConfig {
            cache_bandwidth_mean: 1000.0,
            source_bandwidth_mean: 1000.0,
            ..quick_cfg()
        };
        let report = CoopSystem::new(cfg, small_spec(2)).run();
        // With bandwidth far above the update rate and feedback pulling
        // thresholds down, staleness should be small.
        assert!(
            report.mean_divergence() < 0.2,
            "divergence {} too high for ample bandwidth",
            report.mean_divergence()
        );
        assert!(report.feedback_messages > 0);
    }

    #[test]
    fn starved_bandwidth_raises_divergence() {
        let rich = CoopSystem::new(
            SystemConfig {
                cache_bandwidth_mean: 50.0,
                ..quick_cfg()
            },
            small_spec(3),
        )
        .run();
        let poor = CoopSystem::new(
            SystemConfig {
                cache_bandwidth_mean: 0.5,
                ..quick_cfg()
            },
            small_spec(3),
        )
        .run();
        assert!(poor.mean_divergence() > rich.mean_divergence());
    }

    #[test]
    fn no_unbounded_flooding() {
        // Starve the cache massively; the positive-feedback design must
        // keep the queue bounded (thresholds rise in the absence of
        // feedback).
        let report = CoopSystem::new(long_cfg(0.5, 50.0), small_spec(4)).run();
        assert!(
            report.max_cache_queue < 100,
            "cache queue peaked at {}",
            report.max_cache_queue
        );
    }

    #[test]
    fn works_with_all_metrics_and_policies() {
        for metric in Metric::all_three() {
            for policy in [
                PolicyKind::Area,
                PolicyKind::PoissonClosedForm,
                PolicyKind::SimpleWeighted,
            ] {
                let cfg = SystemConfig {
                    metric,
                    policy,
                    warmup: 10.0,
                    measure: 50.0,
                    ..quick_cfg()
                };
                let report = CoopSystem::new(cfg, small_spec(5)).run();
                assert!(report.mean_divergence().is_finite());
            }
        }
    }

    #[test]
    fn weighted_objects_get_preferential_treatment() {
        // Two halves with equal rates but 10× weights: the heavy half must
        // end up fresher.
        let mut spec = poisson(2, 20, 0.8, 7);
        for obj in spec.layout.all_objects() {
            let w = if obj.0 % 2 == 0 { 10.0 } else { 1.0 };
            spec.weights[obj.index()] = WeightProfile::constant(w);
        }
        // Scarce bandwidth: choices matter.
        let report = CoopSystem::new(long_cfg(4.0, 2.0), spec).run();
        // Under weight-blind treatment staleness is independent of weight,
        // so the weighted mean would be E[w] = 5.5 times the unweighted one.
        let uniform_treatment = 5.5 * report.divergence.mean_unweighted;
        assert!(
            report.divergence.mean_weighted < uniform_treatment,
            "weighted {} vs uniform-treatment bound {uniform_treatment}",
            report.divergence.mean_weighted,
        );
    }

    #[test]
    fn fluctuating_bandwidth_is_tracked() {
        let run = |bandwidth_change_rate| {
            let cfg = SystemConfig {
                bandwidth_change_rate,
                ..long_cfg(15.0, 8.0)
            };
            CoopSystem::new(cfg, poisson(5, 10, 0.8, 6)).run()
        };
        let (fluct, fixed) = (run(0.25), run(0.0));
        // Adaptivity: fluctuation may cost something but must not break
        // the system (divergence within 3× of the fixed-bandwidth run).
        assert!(
            fluct.mean_divergence() <= (fixed.mean_divergence() * 3.0).max(0.15),
            "fluctuating {} vs fixed {}",
            fluct.mean_divergence(),
            fixed.mean_divergence()
        );
    }

    fn faulty_cfg(fault: FaultProfile) -> SystemConfig {
        SystemConfig {
            fault: Some(fault),
            ..quick_cfg()
        }
    }

    #[test]
    fn refresh_loss_raises_divergence_and_is_accounted() {
        let clean = CoopSystem::new(quick_cfg(), small_spec(11)).run();
        let lossy = CoopSystem::new(
            faulty_cfg(FaultProfile {
                loss_prob: 0.4,
                ..FaultProfile::default()
            }),
            small_spec(11),
        )
        .run();
        assert!(lossy.faults.lost_refreshes > 0);
        // Every sent refresh is delivered, lost, or still queued; under
        // degrade-to-stale nothing is ever re-sent.
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
        // Degrade-to-stale performs no retransmissions.
        assert_eq!(lossy.faults.retransmits, 0);
    }

    #[test]
    fn retransmit_recovers_some_of_what_loss_costs() {
        let base = FaultProfile {
            loss_prob: 0.3,
            ..FaultProfile::default()
        };
        let degrade = CoopSystem::new(faulty_cfg(base), small_spec(12)).run();
        let retrans = CoopSystem::new(
            faulty_cfg(FaultProfile {
                recovery: RecoveryPolicy::Retransmit { deadline: 2.0 },
                ..base
            }),
            small_spec(12),
        )
        .run();
        assert!(retrans.faults.retransmits > 0);
        assert!(
            retrans.mean_divergence() <= degrade.mean_divergence() + 1e-9,
            "retransmit {} vs degrade {}",
            retrans.mean_divergence(),
            degrade.mean_divergence()
        );
    }

    #[test]
    fn outages_suspend_the_link_and_attribute_divergence() {
        let report = CoopSystem::new(
            faulty_cfg(FaultProfile {
                outage_rate: 0.05,
                outage_duration: 5.0,
                outage_drops_queue: true,
                ..FaultProfile::default()
            }),
            small_spec(13),
        )
        .run();
        assert!(report.faults.outages > 0);
        assert!(report.faults.outage_seconds > 0.0);
        assert!(report.faults.epoch_divergence >= 0.0);
    }

    #[test]
    fn crashes_miss_updates_and_resync_requotes() {
        let base = FaultProfile {
            crash_rate: 0.05,
            crash_downtime: 8.0,
            ..FaultProfile::default()
        };
        let degrade = CoopSystem::new(faulty_cfg(base), small_spec(14)).run();
        assert!(degrade.faults.crashes > 0);
        assert!(degrade.faults.down_seconds > 0.0);
        assert!(degrade.faults.missed_updates > 0);
        assert_eq!(degrade.faults.resync_quotes, 0);
        let resync = CoopSystem::new(
            faulty_cfg(FaultProfile {
                recovery: RecoveryPolicy::Resync,
                ..base
            }),
            small_spec(14),
        )
        .run();
        // Identical fault schedule (same seed, same lanes) — only the
        // recovery differs, and resync re-quotes diverged objects.
        assert_eq!(degrade.faults.crashes, resync.faults.crashes);
        assert_eq!(
            degrade.faults.down_seconds.to_bits(),
            resync.faults.down_seconds.to_bits()
        );
        assert!(resync.faults.resync_quotes > 0);
    }

    #[test]
    fn fault_runs_are_deterministic() {
        let fault = FaultProfile {
            loss_prob: 0.2,
            outage_rate: 0.03,
            outage_duration: 4.0,
            crash_rate: 0.02,
            crash_downtime: 6.0,
            recovery: RecoveryPolicy::Retransmit { deadline: 1.5 },
            ..FaultProfile::default()
        };
        let a = CoopSystem::new(faulty_cfg(fault), small_spec(15)).run();
        let b = CoopSystem::new(faulty_cfg(fault), small_spec(15)).run();
        assert_eq!(a.mean_divergence().to_bits(), b.mean_divergence().to_bits());
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.refreshes_delivered, b.refreshes_delivered);
    }

    #[test]
    fn stale_retransmission_cannot_overwrite_a_newer_refresh() {
        // Surgical delivery-order pin for the recency guard: a fresher
        // refresh lands first, then a retransmitted copy of an older
        // snapshot arrives late and must be discarded.
        let mut sys = CoopSystem::new(
            faulty_cfg(FaultProfile {
                loss_prob: 0.3,
                recovery: RecoveryPolicy::Retransmit { deadline: 2.0 },
                ..FaultProfile::default()
            }),
            small_spec(17),
        );
        let obj = ObjectId(0);
        let src = sys.proto.layout.source_of(obj);
        let mk = |value: f64, updates: u64| RefreshMsg {
            obj,
            src,
            snapshot: Snapshot { value, updates },
            threshold: 1.0,
        };
        sys.proto
            .deliver(&mut sys.kernel, SimTime::new(1.0), mk(2.5, 9));
        assert_eq!(sys.kernel.truth.truth(obj).cached_updates, 9);
        assert_eq!(sys.proto.fault_stats.stale_drops, 0);
        sys.proto
            .deliver(&mut sys.kernel, SimTime::new(1.5), mk(-4.0, 6));
        let t = sys.kernel.truth.truth(obj);
        assert_eq!(
            t.cached_updates, 9,
            "stale retransmission overwrote the newer refresh"
        );
        assert_eq!(t.cached_value, 2.5);
        assert_eq!(sys.proto.fault_stats.stale_drops, 1);
        // An equal-count duplicate is stale too (<=, not <).
        sys.proto
            .deliver(&mut sys.kernel, SimTime::new(2.0), mk(2.5, 9));
        assert_eq!(sys.proto.fault_stats.stale_drops, 2);
        // Every arrival transited the link: all three count as delivered
        // and feed the per-source ack counter.
        assert_eq!(sys.proto.refreshes_delivered, 3);
        let fl = sys.proto.faults.as_ref().expect("fault layer present");
        assert_eq!(fl.delivered_per_source[src.index()], 3);
    }

    #[test]
    fn retries_hold_during_outages_and_superseded_retries_are_purged() {
        let mut sys = CoopSystem::new(
            faulty_cfg(FaultProfile {
                loss_prob: 0.3,
                recovery: RecoveryPolicy::Retransmit { deadline: 1.0 },
                ..FaultProfile::default()
            }),
            small_spec(18),
        );
        let obj = ObjectId(0);
        let src = sys.proto.layout.source_of(obj);
        let mk = |value: f64, updates: u64| RefreshMsg {
            obj,
            src,
            snapshot: Snapshot { value, updates },
            threshold: 1.0,
        };
        // Two due retries: one that will be superseded, one still fresh.
        {
            let fl = sys.proto.faults.as_mut().expect("fault layer present");
            fl.retries.push_back((SimTime::new(1.0), mk(1.0, 3)));
            fl.retries.push_back((SimTime::new(1.0), mk(2.0, 8)));
        }
        // While the link is suspended, retries must not burn credit.
        sys.proto.cache_link.suspend(SimTime::new(2.0));
        sys.proto
            .process_retries(&mut sys.kernel, SimTime::new(2.0));
        assert_eq!(sys.proto.faults.as_ref().unwrap().retries.len(), 2);
        assert_eq!(sys.proto.fault_stats.retransmits, 0);
        // A newer refresh (updates=5) supersedes the first retry only.
        sys.proto.cache_link.resume(SimTime::new(3.0));
        sys.proto
            .deliver(&mut sys.kernel, SimTime::new(3.0), mk(5.0, 5));
        sys.proto
            .process_retries(&mut sys.kernel, SimTime::new(3.0));
        assert_eq!(sys.proto.fault_stats.superseded_retries, 1);
        assert_eq!(sys.proto.fault_stats.retransmits, 1);
        // The surviving retry was re-offered; the loss lane may lose the
        // retransmission itself, in which case it re-queues with a fresh
        // deadline — either way the original entries are gone.
        let fl = sys.proto.faults.as_ref().expect("fault layer present");
        assert!(fl.retries.len() <= 1);
        if let Some((due, m)) = fl.retries.front() {
            assert_eq!(m.snapshot.updates, 8);
            assert_eq!(*due, SimTime::new(4.0));
            assert_eq!(sys.proto.fault_stats.lost_refreshes, 1);
        }
    }

    #[test]
    fn aware_runs_differ_under_loss_but_match_without_faults() {
        let lossy = FaultProfile {
            loss_prob: 0.3,
            recovery: RecoveryPolicy::Retransmit { deadline: 2.0 },
            ..FaultProfile::default()
        };
        let blind = CoopSystem::new(faulty_cfg(lossy), small_spec(19)).run();
        let aware = CoopSystem::new(
            faulty_cfg(FaultProfile {
                aware: true,
                ..lossy
            }),
            small_spec(19),
        )
        .run();
        // Same loss lane, but the estimator reprices every quote — the
        // schedules must actually diverge for the tentpole to mean
        // anything.
        assert_ne!(
            blind.mean_divergence().to_bits(),
            aware.mean_divergence().to_bits()
        );
        assert!(aware.refreshes_sent > 0);
        // A zero-intensity aware profile never sees a lost refresh, so
        // every ack ratio is 1.0 and the estimator multiplies quotes by
        // exactly 1.0: bit-identical to the plain run.
        let plain = CoopSystem::new(quick_cfg(), small_spec(19)).run();
        let idle = CoopSystem::new(
            faulty_cfg(FaultProfile {
                aware: true,
                ..FaultProfile::default()
            }),
            small_spec(19),
        )
        .run();
        assert_eq!(
            plain.mean_divergence().to_bits(),
            idle.mean_divergence().to_bits()
        );
        assert_eq!(plain.refreshes_sent, idle.refreshes_sent);
        assert!(!idle.faults.any());
    }
}
