//! Property tests for the simulation kernel.

use besync_sim::signal::Signal;
use besync_sim::stats::{PiecewiseConstant, RunningStats, TimeAverage};
use besync_sim::{CalendarQueue, SimTime, Wave};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

proptest! {
    /// The piecewise-constant integral equals a brute-force sum over the
    /// segments, for arbitrary event sequences.
    #[test]
    fn piecewise_integral_matches_reference(
        segments in prop::collection::vec((0.001f64..50.0, -10.0f64..10.0), 1..50),
        tail in 0.0f64..20.0,
    ) {
        let mut p = PiecewiseConstant::new(SimTime::ZERO, 0.0);
        let mut reference = 0.0;
        let mut now = 0.0;
        let mut current = 0.0;
        for &(gap, value) in &segments {
            reference += current * gap;
            now += gap;
            p.set(SimTime::new(now), value);
            current = value;
        }
        reference += current * tail;
        let end = SimTime::new(now + tail);
        prop_assert!((p.integral_at(end) - reference).abs()
            < 1e-9 * reference.abs().max(1.0));
    }

    /// `reset` returns exactly the accumulated integral and zeroes state.
    #[test]
    fn piecewise_reset_returns_total(
        segments in prop::collection::vec((0.001f64..50.0, 0.0f64..10.0), 1..30),
    ) {
        let mut p = PiecewiseConstant::new(SimTime::ZERO, 0.0);
        let mut now = 0.0;
        for &(gap, value) in &segments {
            now += gap;
            p.set(SimTime::new(now), value);
        }
        let expected = p.integral_at(SimTime::new(now));
        let got = p.reset(SimTime::new(now), 0.0);
        prop_assert_eq!(got.to_bits(), expected.to_bits());
        prop_assert_eq!(p.integral_at(SimTime::new(now + 5.0)), 0.0);
    }

    /// Wave integrals agree with midpoint Riemann sums for any valid
    /// parameterization.
    #[test]
    fn wave_integral_matches_riemann(
        mean in 0.1f64..100.0,
        m_b in 0.0f64..0.5,
        phase in 0.0f64..6.2,
        a in 0.0f64..30.0,
        len in 0.1f64..30.0,
    ) {
        let w = Wave::fluctuating(mean, m_b, phase);
        let from = SimTime::new(a);
        let to = SimTime::new(a + len);
        let exact = w.integral(from, to);
        let n = 20_000;
        let dt = len / n as f64;
        let mut approx = 0.0;
        for i in 0..n {
            approx += w.value(from + (i as f64 + 0.5) * dt) * dt;
        }
        prop_assert!((exact - approx).abs() < 1e-3 * exact.abs().max(1.0),
            "exact {exact} vs approx {approx}");
    }

    /// Wave values are never negative and never exceed mean·(1+1).
    #[test]
    fn wave_bounded(
        mean in 0.0f64..100.0,
        m_b in 0.0f64..0.5,
        phase in 0.0f64..6.2,
        t in 0.0f64..10_000.0,
    ) {
        let w = Wave::fluctuating(mean, m_b, phase);
        let v = w.value(SimTime::new(t));
        prop_assert!(v >= 0.0);
        prop_assert!(v <= mean * 2.0 + 1e-12);
    }

    /// The event queue pops in exactly the order of a stable sort by
    /// time — and so does a `BinaryHeap` of `(time, seq, slot)`, which is
    /// what entitles the tests below to use one as the queue's oracle.
    #[test]
    fn event_queue_matches_stable_sort(
        times in prop::collection::vec(0.0f64..100.0, 1..100),
    ) {
        let mut q = CalendarQueue::new(times.len(), 0.5);
        let mut oracle = BinaryHeap::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(i as u32, SimTime::new(t));
            oracle.push(Reverse((SimTime::new(t), i as u64, i as u32)));
        }
        let mut expected: Vec<(SimTime, u32)> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| (SimTime::new(t), i as u32))
            .collect();
        expected.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut got = Vec::new();
        while let Some(e) = q.pop_at_or_before(SimTime::new(100.0)) {
            got.push(e);
        }
        prop_assert_eq!(&got, &expected);
        let oracle: Vec<_> = std::iter::from_fn(|| oracle.pop())
            .map(|Reverse((at, _, slot))| (at, slot))
            .collect();
        prop_assert_eq!(oracle, expected);
    }

    /// RunningStats::merge is equivalent to pushing all samples into one
    /// accumulator, for any split point.
    #[test]
    fn running_stats_merge_any_split(
        xs in prop::collection::vec(-100.0f64..100.0, 2..60),
        split_frac in 0.0f64..1.0,
    ) {
        let split = ((xs.len() as f64 * split_frac) as usize).min(xs.len());
        let mut all = RunningStats::new();
        for &x in &xs { all.push(x); }
        let mut left = RunningStats::new();
        let mut right = RunningStats::new();
        for &x in &xs[..split] { left.push(x); }
        for &x in &xs[split..] { right.push(x); }
        left.merge(&right);
        prop_assert_eq!(left.count(), all.count());
        prop_assert!((left.mean() - all.mean()).abs() < 1e-9);
        prop_assert!((left.variance() - all.variance()).abs() < 1e-7);
        prop_assert_eq!(left.min().to_bits(), all.min().to_bits());
        prop_assert_eq!(left.max().to_bits(), all.max().to_bits());
    }

    /// TimeAverage over a window equals the integral divided by the span,
    /// regardless of what happened during warm-up.
    #[test]
    fn time_average_window_correct(
        warm in prop::collection::vec((0.01f64..5.0, 0.0f64..10.0), 0..10),
        measured in prop::collection::vec((0.01f64..5.0, 0.0f64..10.0), 1..20),
    ) {
        let mut ta = TimeAverage::new(SimTime::ZERO, 0.0);
        let mut now = 0.0;
        for &(gap, v) in &warm {
            now += gap;
            ta.set(SimTime::new(now), v);
        }
        ta.begin_measurement(SimTime::new(now));
        let begin = now;
        let mut reference = 0.0;
        let mut current = ta.value();
        for &(gap, v) in &measured {
            reference += current * gap;
            now += gap;
            ta.set(SimTime::new(now), v);
            current = v;
        }
        let span = now - begin;
        prop_assert!((ta.average(SimTime::new(now)) - reference / span).abs() < 1e-9);
    }
}

// The calendar-resize properties run thousands of queue operations per
// case (several rate-drift phases each, to force multiple rebuilds), so
// they get a smaller case budget than the cheap kernel properties above.
proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// A resize-enabled CalendarQueue pops the identical (time, seq, slot)
    /// stream as a BinaryHeap oracle across random schedule/pop sequences
    /// whose event rate and population drift by orders of magnitude —
    /// forcing multiple bucket-array rebuilds along the way.
    #[test]
    fn calendar_resize_matches_binary_heap_oracle(
        phases in prop::collection::vec(
            // (mean gap scale, target pending population) per phase
            (0.05f64..20.0, 8usize..512),
            3..6,
        ),
        seed in 0u64..u64::MAX,
    ) {
        let slots = 512u32;
        let mut q = CalendarQueue::new(slots as usize, 0.5);
        q.set_auto_resize(true);
        // Oracle: min-heap of (time, seq) with our own seq mirroring the
        // queue's FIFO-within-instant stamping.
        let mut oracle: BinaryHeap<Reverse<(SimTime, u64, u32)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut free: Vec<u32> = (0..slots).collect();
        let mut state = seed | 1;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut pops = 0u64;
        for &(gap_scale, target) in &phases {
            for _ in 0..4000 {
                let want_schedule = oracle.len() < target;
                if want_schedule && !free.is_empty() {
                    let slot = free.swap_remove((rnd() as usize) % free.len());
                    // Quantized gaps make same-instant ties common.
                    let gap = (rnd() % 32) as f64 * 0.125 * gap_scale;
                    let at = q.now() + gap;
                    q.schedule(slot, at);
                    oracle.push(Reverse((at, seq, slot)));
                    seq += 1;
                } else if !oracle.is_empty() {
                    let Reverse((at, _, slot)) = *oracle.peek().unwrap();
                    // Alternate exact-limit and far-horizon pops.
                    let limit = if rnd() % 2 == 0 { at } else { SimTime::new(1e15) };
                    let got = q.pop_at_or_before(limit);
                    prop_assert_eq!(got, Some((at, slot)));
                    oracle.pop();
                    free.push(slot);
                    pops += 1;
                }
            }
        }
        // Drain both completely.
        while let Some(Reverse((at, _, slot))) = oracle.pop() {
            prop_assert_eq!(q.pop_at_or_before(SimTime::new(1e15)), Some((at, slot)));
        }
        prop_assert!(q.is_empty());
        prop_assert!(pops > 1000);
        prop_assert!(
            q.resizes() > 0,
            "rate/population drift across {} phases never triggered a resize",
            phases.len(),
        );
    }

    /// A fixed-width CalendarQueue whose buckets are dense pops the
    /// identical stream as a BinaryHeap oracle. The bucket width
    /// (`mean_gap`) sits far above the spread of near-term event times,
    /// so most pending events share one or two buckets and chains run
    /// tens to hundreds of entries long; a share of events is scheduled
    /// whole calendar years ahead and aliases into those same chains.
    /// Random schedules and pops then unlink at a chain's head, middle
    /// and tail, and skip other years' entries.
    #[test]
    fn calendar_dense_buckets_match_binary_heap_oracle(
        slots in 16u32..512,
        target_share in 0.1f64..1.0,
        alias_every in 2u64..8,
        seed in 0u64..u64::MAX,
    ) {
        let mean_gap = 100.0;
        let mut q = CalendarQueue::new(slots as usize, mean_gap);
        q.set_auto_resize(false);
        let year = (slots as usize).next_power_of_two() as f64 * mean_gap;
        let target = ((slots as f64 * target_share) as usize).max(10);
        let mut oracle: BinaryHeap<Reverse<(SimTime, u64, u32)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut free: Vec<u32> = (0..slots).collect();
        let mut state = seed | 1;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..6000 {
            // Mostly hold the population near `target`; one step in eight
            // goes the other way, so chains grow and shrink.
            let grow = (oracle.len() < target) != (rnd() % 8 == 0);
            if grow && !free.is_empty() {
                let slot = free.swap_remove((rnd() as usize) % free.len());
                let years = if rnd() % alias_every == 0 { 1 + rnd() % 3 } else { 0 };
                // Quantized gaps make same-instant ties common.
                let gap = (rnd() % 32) as f64 * 0.5 + years as f64 * year;
                let at = q.now() + gap;
                q.schedule(slot, at);
                oracle.push(Reverse((at, seq, slot)));
                seq += 1;
            } else if let Some(&Reverse((at, _, slot))) = oracle.peek() {
                let limit = if rnd() % 2 == 0 { at } else { SimTime::new(1e15) };
                prop_assert_eq!(q.pop_at_or_before(limit), Some((at, slot)));
                oracle.pop();
                free.push(slot);
            }
        }
        while let Some(Reverse((at, _, slot))) = oracle.pop() {
            prop_assert_eq!(q.pop_at_or_before(SimTime::new(1e15)), Some((at, slot)));
        }
        prop_assert!(q.is_empty());
        prop_assert_eq!(q.resizes(), 0);
    }

    /// Resize-enabled and fixed-width queues pop bit-identical
    /// (time, slot) streams for the same schedule sequence, clocks in
    /// lockstep — the goldens' bit-identity guarantee, distilled.
    #[test]
    fn calendar_resize_bit_identical_to_fixed(
        gap_scales in prop::collection::vec(0.01f64..50.0, 2..5),
        seed in 0u64..u64::MAX,
    ) {
        let slots = 256usize;
        let mut resizing = CalendarQueue::new(slots, 1.0);
        resizing.set_auto_resize(true);
        let mut fixed = CalendarQueue::new(slots, 1.0);
        fixed.set_auto_resize(false);
        let mut state = seed | 1;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for slot in 0..slots as u32 {
            let at = SimTime::new((rnd() % 64) as f64 * 0.25);
            resizing.schedule(slot, at);
            fixed.schedule(slot, at);
        }
        let horizon = SimTime::new(1e15);
        for &scale in &gap_scales {
            for _ in 0..3000 {
                let a = resizing.pop_at_or_before(horizon).unwrap();
                let b = fixed.pop_at_or_before(horizon).unwrap();
                prop_assert_eq!(a, b);
                prop_assert_eq!(resizing.now(), fixed.now());
                let next = a.0 + (rnd() % 16) as f64 * 0.25 * scale;
                resizing.schedule(a.1, next);
                fixed.schedule(a.1, next);
            }
        }
        prop_assert_eq!(resizing.len(), fixed.len());
        prop_assert!(resizing.resizes() > 0, "gap drift never triggered a resize");
        prop_assert_eq!(fixed.resizes(), 0);
    }
}
