//! Property tests for the core protocol data structures: the production
//! indexed heap against a brute-force reference model, threshold algebra,
//! and priority invariants.

use besync::heap::IndexedMaxHeap;
use besync::priority::{compute_priority, AreaTracker, PolicyKind, PriorityInputs};
use besync::source::sampling::SamplingMonitor;
use besync::threshold::{ThresholdParams, ThresholdState};
use besync_sim::SimTime;
use proptest::prelude::*;
use std::collections::HashMap;

/// Operations driving the heap model test.
#[derive(Debug, Clone)]
enum Op {
    Push(u32, f64),
    Invalidate(u32),
    Pop,
    Peek,
}

fn arb_op(n: u32) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..n, -100.0f64..100.0).prop_map(|(i, p)| Op::Push(i, p)),
        (0..n).prop_map(Op::Invalidate),
        Just(Op::Pop),
        Just(Op::Peek),
    ]
}

/// Reference model: a map item → (priority, seq), max by (priority, then
/// FIFO by seq).
#[derive(Default)]
struct Model {
    quotes: HashMap<u32, (f64, u64)>,
    next_seq: u64,
}

impl Model {
    fn push(&mut self, item: u32, p: f64) {
        self.quotes.insert(item, (p, self.next_seq));
        self.next_seq += 1;
    }
    fn invalidate(&mut self, item: u32) {
        self.quotes.remove(&item);
    }
    fn top(&self) -> Option<(f64, u32)> {
        self.quotes
            .iter()
            .max_by(|a, b| {
                a.1 .0.total_cmp(&b.1 .0).then(b.1 .1.cmp(&a.1 .1)) // FIFO: older seq wins ties
            })
            .map(|(&item, &(p, _))| (p, item))
    }
    fn pop(&mut self) -> Option<(f64, u32)> {
        let t = self.top()?;
        self.quotes.remove(&t.1);
        Some(t)
    }
}

proptest! {
    /// The heap behaves exactly like the reference model under any
    /// operation sequence.
    #[test]
    fn heap_matches_model(ops in prop::collection::vec(arb_op(16), 1..200)) {
        let mut heap = IndexedMaxHeap::new(16);
        let mut model = Model::default();
        for op in ops {
            match op {
                Op::Push(i, p) => {
                    heap.push(i, p);
                    model.push(i, p);
                }
                Op::Invalidate(i) => {
                    heap.invalidate(i);
                    model.invalidate(i);
                }
                Op::Pop => {
                    prop_assert_eq!(heap.pop_valid(), model.pop());
                }
                Op::Peek => {
                    prop_assert_eq!(heap.peek_valid(), model.top());
                }
            }
            prop_assert_eq!(heap.live(), model.quotes.len());
        }
    }

    /// A rebuild preserves exactly the live quotes.
    #[test]
    fn heap_rebuild_preserves_live(ops in prop::collection::vec(arb_op(12), 1..100)) {
        let mut heap = IndexedMaxHeap::new(12);
        let mut model = Model::default();
        for op in ops {
            match op {
                Op::Push(i, p) => { heap.push(i, p); model.push(i, p); }
                Op::Invalidate(i) => { heap.invalidate(i); model.invalidate(i); }
                Op::Pop => { let _ = heap.pop_valid(); let _ = model.pop(); }
                Op::Peek => {}
            }
        }
        // Rebuild from the model's live set.
        let live: Vec<(u32, f64)> = model.quotes.iter().map(|(&i, &(p, _))| (i, p)).collect();
        heap.rebuild(live.clone());
        prop_assert_eq!(heap.live(), live.len());
        let mut drained = Vec::new();
        while let Some((p, i)) = heap.pop_valid() {
            drained.push((i, p));
        }
        let mut expect = live;
        expect.sort_by_key(|e| e.0);
        drained.sort_by_key(|e| e.0);
        prop_assert_eq!(drained, expect);
    }

    /// Threshold algebra: the value is always positive and finite; n
    /// refreshes with β=1 multiply by exactly αⁿ; feedback divides by ω
    /// unless saturated.
    #[test]
    fn threshold_algebra(
        alpha in 1.0f64..2.0,
        omega in 1.0f64..100.0,
        initial in 1e-6f64..1e6,
        refreshes in 0u32..50,
    ) {
        let params = ThresholdParams {
            alpha,
            omega,
            initial,
            expected_feedback_period: 1e9, // β = 1 throughout
        };
        let mut s = ThresholdState::new(params, SimTime::ZERO);
        for k in 0..refreshes {
            s.on_refresh(SimTime::new(k as f64 + 1.0));
        }
        let expect = (initial * alpha.powi(refreshes as i32)).clamp(1e-12, 1e18);
        prop_assert!((s.value() - expect).abs() < 1e-6 * expect);
        let before = s.value();
        s.on_feedback(SimTime::new(100.0), true);
        prop_assert_eq!(s.value(), before); // saturated: unchanged
        s.on_feedback(SimTime::new(101.0), false);
        prop_assert!((s.value() - (before / omega).clamp(1e-12, 1e18)).abs()
            < 1e-9 * before.max(1.0));
        prop_assert!(s.value() > 0.0 && s.value().is_finite());
    }

    /// β is 1 when feedback is on schedule and exactly t/P when overdue.
    #[test]
    fn beta_formula(period in 0.1f64..100.0, elapsed in 0.0f64..1000.0) {
        let params = ThresholdParams {
            alpha: 1.1,
            omega: 10.0,
            initial: 1.0,
            expected_feedback_period: period,
        };
        let s = ThresholdState::new(params, SimTime::ZERO);
        let beta = s.beta(SimTime::new(elapsed));
        if elapsed <= period {
            prop_assert_eq!(beta, 1.0);
        } else {
            prop_assert!((beta - elapsed / period).abs() < 1e-12);
        }
    }

    /// Policy outputs are finite for any sane inputs, and the simple
    /// policy is exactly D·W.
    #[test]
    fn policies_are_finite(
        d in 0.0f64..1e6,
        u in 0u64..1000,
        lambda in 1e-6f64..1e3,
        w in 0.0f64..1e3,
        elapsed in 0.0f64..1e4,
    ) {
        let mut area = AreaTracker::new(SimTime::ZERO);
        if u > 0 {
            area.on_update(SimTime::new(elapsed.max(0.001) / 2.0), d);
        }
        let now = SimTime::new(elapsed.max(0.001));
        let inputs = PriorityInputs {
            now,
            divergence: d,
            updates_since_refresh: u,
            lambda_hat: lambda,
            weight: w,
            max_rate: 1.0,
        };
        for (policy, is_dev) in [
            (PolicyKind::Area, false),
            (PolicyKind::PoissonClosedForm, false),
            (PolicyKind::PoissonClosedForm, true),
            (PolicyKind::SimpleWeighted, false),
            (PolicyKind::Bound, false),
        ] {
            let p = compute_priority(policy, is_dev, &area, &inputs);
            prop_assert!(p.is_finite(), "{policy:?} gave {p}");
        }
        let simple = compute_priority(PolicyKind::SimpleWeighted, false, &area, &inputs);
        prop_assert_eq!(simple, d * w);
    }

    /// The sampling monitor's estimate is exact (up to float noise) when
    /// it samples at exactly the divergence change points of a piecewise
    /// constant path, sampling each segment twice.
    #[test]
    fn sampling_monitor_tracks_divergence_level(
        segments in prop::collection::vec((0.1f64..10.0, 0.0f64..20.0), 1..20),
    ) {
        let mut exact = AreaTracker::new(SimTime::ZERO);
        let mut monitor = SamplingMonitor::new(SimTime::ZERO);
        let mut now = 0.0;
        for &(gap, d) in &segments {
            now += gap;
            exact.on_update(SimTime::new(now), d);
            monitor.on_sample(SimTime::new(now), d);
            // Level always agrees; integral is an estimate.
            prop_assert_eq!(monitor.current_divergence(), exact.divergence());
        }
        let t = SimTime::new(now + 1.0);
        // The midpoint estimate of ∫D is within the total variation of
        // the path times the max gap: each segment boundary contributes
        // at most |ΔD|·gap/2, and the first sample (credited back to the
        // refresh instant) at most d₁·gap₁.
        let est = monitor.estimated_integral(t);
        let truth = exact.integral(t);
        let max_gap = segments.iter().map(|s| s.0).fold(0.0, f64::max);
        let tv: f64 = {
            let mut prev = 0.0;
            let mut sum = 0.0;
            for &(_, d) in &segments {
                sum += (d - prev).abs();
                prev = d;
            }
            sum
        };
        prop_assert!((est - truth).abs() <= tv * max_gap + 1e-9,
            "est {est} vs truth {truth}, bound {}", tv * max_gap);
    }
}

proptest! {
    /// The generic indexed heap (behind its priority-flavoured
    /// `IndexedMaxHeap` wrapper — the production scheduler everywhere
    /// since PR 2) against the brute-force [`Model`] over a
    /// 20 000-operation stream seeded by proptest — pushes drawn from
    /// few discrete priority levels so ties are constant — demanding
    /// identical observations throughout: max priority first, FIFO by
    /// quote age within a tie.
    #[test]
    fn indexed_heap_matches_lazy_oracle_20k(seed in 0u64..u64::MAX) {
        let mut model = Model::default();
        let mut indexed = IndexedMaxHeap::new(24);
        // Deterministic xorshift stream per proptest-chosen seed.
        let mut state = seed | 1;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for step in 0..20_000u32 {
            match rnd() % 8 {
                0..=4 => {
                    let item = (rnd() % 24) as u32;
                    let p = (rnd() % 7) as f64 - 3.0; // few levels → many ties
                    model.push(item, p);
                    indexed.push(item, p);
                }
                5 => {
                    let item = (rnd() % 24) as u32;
                    model.invalidate(item);
                    indexed.invalidate(item);
                }
                6 => {
                    prop_assert_eq!(model.pop(), indexed.pop_valid(), "pop at step {}", step);
                }
                _ => {
                    prop_assert_eq!(model.top(), indexed.peek_valid(), "peek at step {}", step);
                }
            }
            prop_assert_eq!(model.quotes.len(), indexed.live());
            // The indexed representation never stores a stale entry.
            prop_assert_eq!(indexed.raw_len(), indexed.live());
        }
        // Drain both to the end: the full pop order must agree.
        loop {
            let (a, b) = (model.pop(), indexed.pop_valid());
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}

/// Fault-schedule determinism: the simulated-world fault layer draws
/// everything from counter-hashed splitmix64 lanes, so the same seed
/// must reproduce byte-identical fault sequences — the property the
/// sharded sweep's byte-identity contract rests on for fault regimes.
mod fault_schedules {
    use besync::fault::{EpisodeSchedule, FaultProfile, LossLane};
    use proptest::prelude::*;

    proptest! {
        /// Same (seed, salt, prob) ⇒ byte-identical loss decisions, and
        /// the sequence survives interleaved reconstruction.
        #[test]
        fn loss_lane_replays_byte_identically(
            seed in 0u64..=u64::MAX,
            salt in 0u64..=u64::MAX,
            prob in 0.0f64..=1.0,
        ) {
            let mut a = LossLane::new(seed, salt, prob);
            let mut b = LossLane::new(seed, salt, prob);
            let first: Vec<bool> = (0..512).map(|_| a.draw()).collect();
            let second: Vec<bool> = (0..512).map(|_| b.draw()).collect();
            prop_assert_eq!(first, second);
        }

        /// Same (seed, profile) ⇒ bit-identical outage episodes, in
        /// order, disjoint, with positive durations.
        #[test]
        fn outage_schedule_replays_bit_identically(
            seed in 0u64..=u64::MAX,
            rate in 0.001f64..0.5,
            duration in 0.01f64..50.0,
        ) {
            let profile = FaultProfile {
                outage_rate: rate,
                outage_duration: duration,
                ..FaultProfile::default()
            };
            let mut a = EpisodeSchedule::outages(seed, &profile);
            let mut b = EpisodeSchedule::outages(seed, &profile);
            let mut prev_end = 0.0f64;
            for _ in 0..64 {
                let (ea, eb) = (a.next_episode().unwrap(), b.next_episode().unwrap());
                prop_assert_eq!(ea.start.to_bits(), eb.start.to_bits());
                prop_assert_eq!(ea.end.to_bits(), eb.end.to_bits());
                prop_assert!(ea.start >= prev_end, "episodes out of order");
                prop_assert!(ea.end > ea.start, "empty episode");
                prev_end = ea.end;
            }
        }

        /// Same (seed, source) ⇒ the delivery estimator folds the same
        /// ack windows into bit-identical estimates, and the estimate
        /// always stays inside [FLOOR, 1].
        #[test]
        fn delivery_estimator_replays_bit_identically_and_stays_bounded(
            seed in 0u64..=u64::MAX,
            source in 0u32..512,
            windows in prop::collection::vec((0u64..20, 0u64..20), 1..128),
        ) {
            let mut a = besync::fault::DeliveryEstimator::new(seed, source);
            let mut b = besync::fault::DeliveryEstimator::new(seed, source);
            let mut sent = 0u64;
            let mut acked = 0u64;
            for (ds, da) in &windows {
                sent += ds;
                acked += da.min(ds);
                a.on_ack(acked, sent);
                b.on_ack(acked, sent);
                prop_assert_eq!(a.value().to_bits(), b.value().to_bits());
                prop_assert!(a.value() >= besync::fault::DeliveryEstimator::FLOOR);
                prop_assert!(a.value() <= 1.0);
            }
        }

        /// Feeding cumulative counters in one shot or split across extra
        /// zero-delta acks reaches the same windowed deltas: the
        /// estimator is a function of the ack *sequence*, not of how
        /// often the cache happened to repeat an unchanged counter.
        #[test]
        fn delivery_estimator_ignores_zero_send_windows(
            seed in 0u64..=u64::MAX,
            source in 0u32..512,
            windows in prop::collection::vec((1u64..20, 0u64..20), 1..64),
        ) {
            let mut plain = besync::fault::DeliveryEstimator::new(seed, source);
            let mut chatty = besync::fault::DeliveryEstimator::new(seed, source);
            let mut sent = 0u64;
            let mut acked = 0u64;
            for (ds, da) in &windows {
                sent += ds;
                acked += da.min(ds);
                plain.on_ack(acked, sent);
                chatty.on_ack(acked, sent);
                // A repeated ack with no new sends must be a no-op.
                chatty.on_ack(acked, sent);
                prop_assert_eq!(plain.value().to_bits(), chatty.value().to_bits());
            }
        }

        /// Per-source crash lanes are independent streams: bit-identical
        /// on replay, and distinct sources get distinct schedules.
        #[test]
        fn crash_schedules_replay_and_diverge_per_source(
            seed in 0u64..=u64::MAX,
            source in 0u32..512,
        ) {
            let profile = FaultProfile {
                crash_rate: 0.01,
                crash_downtime: 5.0,
                ..FaultProfile::default()
            };
            let mut a = EpisodeSchedule::crashes(seed, source, &profile);
            let mut b = EpisodeSchedule::crashes(seed, source, &profile);
            let mut other = EpisodeSchedule::crashes(seed, source.wrapping_add(1), &profile);
            let mut all_equal = true;
            for _ in 0..32 {
                let (ea, eb) = (a.next_episode().unwrap(), b.next_episode().unwrap());
                prop_assert_eq!(ea.start.to_bits(), eb.start.to_bits());
                prop_assert_eq!(ea.end.to_bits(), eb.end.to_bits());
                let eo = other.next_episode().unwrap();
                if eo.start.to_bits() != ea.start.to_bits() {
                    all_equal = false;
                }
            }
            prop_assert!(!all_equal, "neighbouring sources share a crash schedule");
        }
    }
}
