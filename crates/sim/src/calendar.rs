//! The slot-addressed event scheduler for dense, self-rescheduling event
//! populations.
//!
//! A discrete-event simulation of the paper's system has a very regular
//! event population: each object has **exactly one** pending update, plus
//! a couple of singleton bookkeeping events (the per-second tick, the end
//! of warm-up). A general queue of event payloads pays for that generality
//! twice: every event carries an enum payload through a `BinaryHeap`, and
//! the dominant update→next-update pattern costs a full pop + push.
//! [`CalendarQueue`] is the slot-addressed alternative — a bucket queue
//! with amortized O(1) schedule and pop, and **what the one simulation
//! event loop uses** (`besync::kernel::Kernel`, under every system).
//! Minimal API (no cancel, no in-place reschedule).
//!
//! It orders like a `BinaryHeap` of `(time, seq, slot)`: ascending time,
//! FIFO within an instant (a global sequence number stamps each
//! `schedule`, and entries compare as `(time, seq)`) — the oracle the
//! tests here and in `tests/props.rs` drive it against, and the order the
//! golden report tests in the workspace root pin.

use crate::time::SimTime;

#[derive(Debug, Clone, Copy)]
struct Entry {
    at: SimTime,
    seq: u64,
    slot: u32,
}

/// A calendar (bucket) queue keyed by [`SimTime`]: amortized O(1)
/// schedule and pop for the dense, self-rescheduling event populations of
/// the paper's simulations.
///
/// Time is divided into buckets of fixed width `delta`; bucket `⌊t/δ⌋`
/// (mod a power-of-two bucket count) holds the events of that window, as a
/// small unordered `Vec`. Popping scans the current bucket for the minimum
/// `(time, seq)` entry — buckets hold ~1 entry when `delta` matches the
/// mean event spacing — and walks forward through empty buckets one
/// comparison each. Unlike a binary heap, no operation chases pointers
/// through log n cache lines: the hot bucket is one contiguous line.
///
/// Ordering contract: ascending time, FIFO within an instant via a
/// global schedule seq (equal times always land in the same bucket,
/// where the min-scan breaks ties by seq).
///
/// This queue intentionally supports only the operations the hot loop
/// needs: `schedule` and `pop_at_or_before`. No cancel, no in-place
/// reschedule — a slot must not be scheduled twice (callers keep at most
/// one pending event per slot; debug builds track a per-slot pending flag
/// and panic on violation, release builds carry no such bookkeeping).
///
/// # Self-resizing
///
/// Large queues (≥ [`RESIZE_AUTO_MIN_BUCKETS`] buckets) monitor their own
/// occupancy and observed event rate and rebuild the bucket array when
/// either drifts out of band — see [`CalendarQueue::set_auto_resize`].
/// A rebuild redistributes every pending entry under the new bucket
/// width/count and restarts the scan at `now`'s window. Pop order is
/// unaffected **by construction**: `pop_at_or_before` always returns the
/// global `(time, seq)` minimum among pending entries regardless of
/// bucket geometry (entries in earlier absolute windows have strictly
/// earlier times, equal times share a window, and the within-window scan
/// is an exact min), every pending entry fires at or after `now`, and
/// `⌊t·(1/δ)⌋` is monotone in `t` — so no entry can land behind the
/// restarted scan. Small queues keep the fixed-width path and never pay
/// for the monitoring.
#[derive(Debug, Clone)]
pub struct CalendarQueue {
    buckets: Vec<Vec<Entry>>,
    /// Debug-only guard for the one-pending-event-per-slot contract.
    #[cfg(debug_assertions)]
    pending: Vec<bool>,
    /// Bucket count minus one (count is a power of two).
    mask: u64,
    /// Bucket width in seconds.
    delta: f64,
    /// `1 / delta`, so bucket lookup is a multiply (consistently used by
    /// both `schedule` and the pop scan, which is what correctness needs).
    inv_delta: f64,
    /// Absolute index (`⌊t/δ⌋`, not wrapped) of the bucket the scan is on.
    cur_abs: u64,
    len: usize,
    seq: u64,
    now: SimTime,
    /// Whether occupancy/rate monitoring may rebuild the bucket array.
    auto_resize: bool,
    /// Schedules remaining until the next resize evaluation.
    check_in: u32,
    /// Pops since the current measurement epoch began (drives the
    /// observed mean-gap estimate).
    epoch_pops: u64,
    /// Clock value when the current measurement epoch began.
    epoch_start: SimTime,
    /// Completed rebuilds.
    resizes: u64,
}

/// Queues created with at least this many buckets enable auto-resizing;
/// smaller ones keep the fixed-width path (overridable either way via
/// [`CalendarQueue::set_auto_resize`]).
pub const RESIZE_AUTO_MIN_BUCKETS: usize = 1024;

/// Resize conditions are evaluated once per this many `schedule` calls,
/// so steady state pays one decrement-and-branch per event.
const RESIZE_CHECK_STRIDE: u32 = 1024;

/// Minimum pops in an epoch before the observed mean gap is trusted.
const RESIZE_MIN_EPOCH_POPS: u64 = 256;

impl CalendarQueue {
    /// Creates a queue sized for about `slots` concurrently pending
    /// events whose typical spacing is `mean_gap` seconds (the bucket
    /// width). The bucket count is `slots` rounded up to a power of two,
    /// so average occupancy stays near one entry per bucket.
    pub fn new(slots: usize, mean_gap: f64) -> Self {
        let delta = if mean_gap.is_finite() && mean_gap > 0.0 {
            mean_gap.clamp(1e-6, 3600.0)
        } else {
            1.0
        };
        let count = slots.max(2).next_power_of_two();
        CalendarQueue {
            buckets: vec![Vec::new(); count],
            #[cfg(debug_assertions)]
            pending: vec![false; slots.max(2)],
            mask: count as u64 - 1,
            delta,
            inv_delta: 1.0 / delta,
            cur_abs: 0,
            len: 0,
            seq: 0,
            now: SimTime::ZERO,
            auto_resize: count >= RESIZE_AUTO_MIN_BUCKETS,
            check_in: RESIZE_CHECK_STRIDE,
            epoch_pops: 0,
            epoch_start: SimTime::ZERO,
            resizes: 0,
        }
    }

    /// Forces occupancy/rate monitoring on or off, overriding the
    /// size-based default from [`new`](CalendarQueue::new). Pop order is
    /// identical either way (see the type docs); this only controls
    /// whether the bucket array may be rebuilt.
    pub fn set_auto_resize(&mut self, on: bool) {
        self.auto_resize = on;
    }

    /// Number of bucket-array rebuilds performed so far.
    pub fn resizes(&self) -> u64 {
        self.resizes
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The time of the most recently popped event (the simulation clock).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    #[inline]
    fn abs_bucket(&self, at: SimTime) -> u64 {
        (at.seconds() * self.inv_delta) as u64
    }

    /// Schedules `slot` to fire at `at`. The slot must not already be
    /// queued (one pending event per slot).
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current simulation time.
    pub fn schedule(&mut self, slot: u32, at: SimTime) {
        assert!(
            at >= self.now,
            "cannot schedule slot {slot} at {at:?} before now {:?}",
            self.now
        );
        // Resize checks run here — never mid-pop-scan — so the scan state
        // (`cur_abs`) is always rebuilt from a consistent `now`.
        if self.auto_resize {
            self.check_in -= 1;
            if self.check_in == 0 {
                self.check_in = RESIZE_CHECK_STRIDE;
                self.consider_resize();
            }
        }
        let abs = self.abs_bucket(at);
        // The pop scan never revisits windows behind `cur_abs`; an entry
        // there would be lost. This cannot happen when scheduling from an
        // event handler (the scan sits on the handled event's window), only
        // by scheduling right after an exhausted pop — forbid it loudly.
        assert!(
            abs >= self.cur_abs,
            "cannot schedule slot {slot} at {at:?} behind the scan window"
        );
        #[cfg(debug_assertions)]
        {
            assert!(
                !std::mem::replace(&mut self.pending[slot as usize], true),
                "slot {slot} scheduled while already pending"
            );
        }
        let seq = self.seq;
        self.seq += 1;
        let b = (abs & self.mask) as usize;
        self.buckets[b].push(Entry { at, seq, slot });
        self.len += 1;
    }

    /// Removes and returns the next event if it fires at or before
    /// `limit`; otherwise leaves the queue untouched and returns `None`.
    /// Advances the clock on success.
    pub fn pop_at_or_before(&mut self, limit: SimTime) -> Option<(SimTime, u32)> {
        if self.len == 0 {
            return None;
        }
        let limit_abs = self.abs_bucket(limit);
        loop {
            let b = (self.cur_abs & self.mask) as usize;
            let bucket = &self.buckets[b];
            // Min (time, seq) among entries belonging to this absolute
            // bucket (aliases from other "years" are skipped).
            let mut best: Option<(usize, SimTime, u64)> = None;
            for (i, e) in bucket.iter().enumerate() {
                if self.abs_bucket(e.at) != self.cur_abs {
                    continue;
                }
                match best {
                    Some((_, bat, bseq)) if (bat, bseq) <= (e.at, e.seq) => {}
                    _ => best = Some((i, e.at, e.seq)),
                }
            }
            match best {
                Some((i, at, _)) => {
                    if at > limit {
                        return None;
                    }
                    let e = self.buckets[b].swap_remove(i);
                    self.len -= 1;
                    self.epoch_pops += 1;
                    self.now = e.at;
                    #[cfg(debug_assertions)]
                    {
                        self.pending[e.slot as usize] = false;
                    }
                    return Some((e.at, e.slot));
                }
                None => {
                    // This bucket window is drained; move on — but never
                    // past `limit`'s window, so a later call (and
                    // `schedule`, see its assert) resumes correctly.
                    if self.cur_abs >= limit_abs {
                        return None;
                    }
                    self.cur_abs += 1;
                }
            }
        }
    }

    /// Evaluates the resize triggers: occupancy (pending entries per
    /// bucket drifting out of the [¼, 2) band around one) and bucket
    /// width (the observed mean pop gap this epoch drifting outside
    /// [δ/2, 2δ]). Decisions require a full epoch of observed pops —
    /// during initial fill (schedules only, no pops yet) the caller's
    /// sizing hint stands. Rolls the measurement epoch either way so the
    /// gap estimate tracks the *current* event rate, not a lifetime
    /// average.
    fn consider_resize(&mut self) {
        let epoch_pops = std::mem::replace(&mut self.epoch_pops, 0);
        let elapsed = self.now.seconds() - self.epoch_start.seconds();
        self.epoch_start = self.now;
        if epoch_pops < RESIZE_MIN_EPOCH_POPS {
            return;
        }
        let count = self.buckets.len();
        let mut new_count = count;
        if self.len >= count.saturating_mul(2) {
            new_count = self.len.next_power_of_two();
        } else if self.len * 4 < count && count > 2 {
            new_count = self.len.max(2).next_power_of_two();
        }
        let mut new_delta = self.delta;
        if elapsed > 0.0 {
            let observed = elapsed / epoch_pops as f64;
            if observed < 0.5 * self.delta || observed > 2.0 * self.delta {
                new_delta = observed.clamp(1e-6, 3600.0);
            }
        }
        if new_count != count || new_delta != self.delta {
            self.rebuild(new_count, new_delta);
        }
    }

    /// Redistributes every pending entry under `new_count` buckets of
    /// width `new_delta` and restarts the scan at `now`'s window. Safe at
    /// any point between pops: every pending entry fires at or after
    /// `now` (pop returns the global minimum and advances the clock to
    /// it), and `⌊t·(1/δ)⌋` is monotone in `t`, so no entry lands behind
    /// the restarted scan. Entry `(at, seq)` stamps are untouched, so the
    /// pop stream is bit-identical to a queue that never resized.
    fn rebuild(&mut self, new_count: usize, new_delta: f64) {
        debug_assert!(new_count.is_power_of_two());
        let mut entries: Vec<Entry> = Vec::with_capacity(self.len);
        for b in &mut self.buckets {
            entries.append(b);
        }
        if new_count != self.buckets.len() {
            self.buckets.clear();
            self.buckets.resize(new_count, Vec::new());
        }
        self.mask = new_count as u64 - 1;
        self.delta = new_delta;
        self.inv_delta = 1.0 / new_delta;
        self.cur_abs = self.abs_bucket(self.now);
        for e in entries {
            let b = (self.abs_bucket(e.at) & self.mask) as usize;
            self.buckets[b].push(e);
        }
        self.resizes += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::new(s)
    }

    /// A pop limit past every event these tests schedule.
    fn far() -> SimTime {
        t(1e9)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = CalendarQueue::new(3, 1.0);
        q.schedule(2, t(3.0));
        q.schedule(0, t(1.0));
        q.schedule(1, t(2.0));
        assert_eq!(q.pop_at_or_before(far()), Some((t(1.0), 0)));
        assert_eq!(q.pop_at_or_before(far()), Some((t(2.0), 1)));
        assert_eq!(q.pop_at_or_before(far()), Some((t(3.0), 2)));
        assert_eq!(q.pop_at_or_before(far()), None);
    }

    #[test]
    fn fifo_within_same_instant() {
        // A hundred ties in one bucket: the min-scan must serve them in
        // schedule order.
        let mut q = CalendarQueue::new(100, 1.0);
        for slot in 0..100 {
            q.schedule(slot, t(5.0));
        }
        for slot in 0..100 {
            assert_eq!(q.pop_at_or_before(far()), Some((t(5.0), slot)));
        }
    }

    #[test]
    fn reschedule_same_time_goes_last() {
        let mut q = CalendarQueue::new(3, 1.0);
        q.schedule(0, t(1.0));
        q.schedule(1, t(1.0));
        assert_eq!(q.pop_at_or_before(far()), Some((t(1.0), 0)));
        q.schedule(0, t(1.0)); // re-stamp: now younger than slot 1
        assert_eq!(q.pop_at_or_before(far()), Some((t(1.0), 1)));
        assert_eq!(q.pop_at_or_before(far()), Some((t(1.0), 0)));
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = CalendarQueue::new(2, 1.0);
        q.schedule(0, t(2.0));
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop_at_or_before(far());
        assert_eq!(q.now(), t(2.0));
    }

    #[test]
    #[should_panic(expected = "before now")]
    fn rejects_past_events() {
        let mut q = CalendarQueue::new(2, 1.0);
        q.schedule(0, t(2.0));
        q.pop_at_or_before(far());
        q.schedule(1, t(1.0));
    }

    #[test]
    fn calendar_pops_in_time_order_with_fifo_ties() {
        let mut q = CalendarQueue::new(8, 0.5);
        q.schedule(0, t(3.0));
        q.schedule(1, t(1.0));
        q.schedule(2, t(1.0)); // tie: FIFO by schedule order
        q.schedule(3, t(2.0));
        let horizon = t(10.0);
        assert_eq!(q.pop_at_or_before(horizon), Some((t(1.0), 1)));
        assert_eq!(q.pop_at_or_before(horizon), Some((t(1.0), 2)));
        assert_eq!(q.pop_at_or_before(horizon), Some((t(2.0), 3)));
        assert_eq!(q.pop_at_or_before(horizon), Some((t(3.0), 0)));
        assert_eq!(q.pop_at_or_before(horizon), None);
        assert!(q.is_empty());
    }

    #[test]
    fn calendar_respects_limit() {
        let mut q = CalendarQueue::new(4, 0.25);
        q.schedule(0, t(5.0));
        assert_eq!(q.pop_at_or_before(t(4.9)), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_at_or_before(t(5.0)), Some((t(5.0), 0)));
        // Rescheduling from the popped event's time is fine.
        q.schedule(0, t(5.0));
        assert_eq!(q.pop_at_or_before(t(9.0)), Some((t(5.0), 0)));
    }

    #[test]
    fn calendar_handles_far_future_and_year_aliasing() {
        // 4 buckets × 0.5s = 2s year; events many "years" apart alias
        // into the same buckets and must still pop in global time order.
        let mut q = CalendarQueue::new(4, 0.5);
        q.schedule(0, t(0.1));
        q.schedule(1, t(2.1)); // same bucket slot as 0.1
        q.schedule(2, t(40.1)); // 20 years out, same slot again
        q.schedule(3, t(1.0));
        let horizon = t(100.0);
        assert_eq!(q.pop_at_or_before(horizon), Some((t(0.1), 0)));
        assert_eq!(q.pop_at_or_before(horizon), Some((t(1.0), 3)));
        assert_eq!(q.pop_at_or_before(horizon), Some((t(2.1), 1)));
        assert_eq!(q.pop_at_or_before(horizon), Some((t(40.1), 2)));
    }

    /// The calendar queue pops the identical (time, slot) sequence as a
    /// `std` `BinaryHeap` of `(time, seq, slot)` under a self-rescheduling
    /// workload with deliberate integer-time ties (the Bernoulli pattern).
    #[test]
    fn calendar_matches_event_queue_order() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut cq = CalendarQueue::new(32, 0.3);
        let mut reference = BinaryHeap::new();
        let mut seq = 0u64..;
        let mut state = 0xA076_1D64_78BD_642Fu64;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for slot in 0..32u32 {
            // Half the slots on integer ticks (tie-heavy), half spread.
            let at = if slot % 2 == 0 {
                t((rnd() % 4) as f64 + 1.0)
            } else {
                t((rnd() % 1600) as f64 * 0.01)
            };
            cq.schedule(slot, at);
            reference.push(Reverse((at, seq.next(), slot)));
        }
        let horizon = t(1e9);
        for _ in 0..20_000 {
            let (at, slot) = cq.pop_at_or_before(horizon).unwrap();
            let Reverse((want_at, _, want_slot)) = reference.pop().unwrap();
            assert_eq!((at, slot), (want_at, want_slot));
            let next = if slot % 2 == 0 {
                t(at.seconds().floor() + 1.0 + (rnd() % 3) as f64)
            } else {
                at + (rnd() % 800) as f64 * 0.01
            };
            cq.schedule(slot, next);
            reference.push(Reverse((next, seq.next(), slot)));
            assert_eq!(cq.now(), at);
        }
    }

    /// Cross-check against a `std` `BinaryHeap` of `(time, seq, slot)` on
    /// a long random-ish schedule: identical (time, slot) pop sequences.
    #[test]
    fn matches_event_queue_order() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut cq = CalendarQueue::new(16, 0.25);
        let mut reference = BinaryHeap::new();
        let mut seq = 0u64;
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for slot in 0..16u32 {
            let at = t((rnd() % 8) as f64 * 0.5);
            cq.schedule(slot, at);
            reference.push(Reverse((at, seq, slot)));
            seq += 1;
        }
        for _ in 0..10_000 {
            let (at, slot) = cq.pop_at_or_before(far()).unwrap();
            let Reverse((want_at, _, want_slot)) = reference.pop().unwrap();
            assert_eq!((at, slot), (want_at, want_slot));
            // Reschedule the same slot a pseudo-random gap later —
            // sometimes zero, exercising the FIFO tie-break.
            let next = at + (rnd() % 4) as f64 * 0.25;
            cq.schedule(slot, next);
            reference.push(Reverse((next, seq, slot)));
            seq += 1;
        }
    }
}
