//! Token-bucket links with FIFO queues.

use std::collections::VecDeque;

use besync_sim::signal::Signal;
use besync_sim::{SimTime, Wave};

/// Counters describing a link's lifetime behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LinkStats {
    /// Messages accepted (queued or delivered immediately).
    pub offered: u64,
    /// Messages delivered out of the queue or by cut-through.
    pub delivered: u64,
    /// Messages delivered without queueing (cut-through).
    pub immediate: u64,
    /// Units consumed by `try_consume` (e.g. feedback, polling overhead).
    pub consumed_units: f64,
    /// Largest queue length observed.
    pub max_queue: usize,
    /// Total seconds messages spent waiting in the queue.
    pub total_wait: f64,
    /// Queued messages discarded by [`Link::drop_queue`] (outage policy).
    pub dropped: u64,
}

/// A unidirectional, capacity-constrained link carrying messages of type
/// `M`.
///
/// Capacity accrues continuously as credit (exactly, by integrating the
/// capacity signal), up to a burst cap; each message costs one credit.
/// Messages offered when no credit is available wait in a FIFO queue and
/// are released by [`Link::service`] calls as credit accrues.
#[derive(Debug, Clone)]
pub struct Link<M> {
    capacity: Wave,
    credit: f64,
    burst_cap: f64,
    last_accrual: SimTime,
    queue: VecDeque<(SimTime, M)>,
    stats: LinkStats,
    /// While `true` the link is in an outage window: capacity accrues
    /// nothing, nothing transits, offers queue. Never set on the
    /// fault-free path, so the arithmetic there is untouched.
    suspended: bool,
}

impl<M> Link<M> {
    /// Default burst window in seconds: idle links may bank up to this many
    /// seconds of capacity (never less than 2 messages' worth), modelling
    /// per-tick bandwidth accounting with a little slack rather than an
    /// unbounded backlog of "saved" bandwidth.
    pub const DEFAULT_BURST_SECONDS: f64 = 2.0;

    /// Creates a link with the given capacity signal and the default burst
    /// cap.
    pub fn new(capacity: Wave) -> Self {
        let burst = (capacity.mean() * Self::DEFAULT_BURST_SECONDS).max(2.0);
        Self::with_burst_cap(capacity, burst)
    }

    /// Creates a link with an explicit burst cap (in message units).
    ///
    /// # Panics
    ///
    /// Panics if `burst_cap < 1` (the link could never send anything).
    pub fn with_burst_cap(capacity: Wave, burst_cap: f64) -> Self {
        assert!(
            burst_cap >= 1.0,
            "burst cap must allow at least one message"
        );
        Link {
            capacity,
            credit: 0.0,
            burst_cap,
            last_accrual: SimTime::ZERO,
            queue: VecDeque::new(),
            stats: LinkStats::default(),
            suspended: false,
        }
    }

    fn accrue(&mut self, now: SimTime) {
        debug_assert!(now >= self.last_accrual, "link time went backwards");
        if now > self.last_accrual {
            if !self.suspended {
                self.credit = (self.credit + self.capacity.integral(self.last_accrual, now))
                    .min(self.burst_cap);
            }
            self.last_accrual = now;
        }
    }

    /// Enters an outage window at `now`: credit earned up to `now` is
    /// banked, then accrual stops and nothing transits until
    /// [`Link::resume`]. Idempotent.
    pub fn suspend(&mut self, now: SimTime) {
        self.accrue(now);
        self.suspended = true;
    }

    /// Ends an outage window at `now`. The window itself contributes no
    /// credit. Idempotent.
    pub fn resume(&mut self, now: SimTime) {
        self.accrue(now);
        self.suspended = false;
    }

    /// Whether the link is currently in an outage window.
    pub fn is_suspended(&self) -> bool {
        self.suspended
    }

    /// Discards every queued message (the drop-queue outage policy),
    /// returning how many were dropped.
    pub fn drop_queue(&mut self) -> usize {
        let n = self.queue.len();
        self.queue.clear();
        self.stats.dropped += n as u64;
        n
    }

    /// Current credit after accruing up to `now`.
    pub fn credit(&mut self, now: SimTime) -> f64 {
        self.accrue(now);
        self.credit
    }

    /// Whether one message could be sent right now without queueing.
    pub fn can_send(&mut self, now: SimTime) -> bool {
        self.accrue(now);
        !self.suspended && self.credit >= 1.0 && self.queue.is_empty()
    }

    /// Offers a message to the link. If the queue is empty and credit is
    /// available the message cuts through and is returned for immediate
    /// delivery (the paper neglects propagation time); otherwise it queues
    /// and `None` is returned.
    pub fn offer(&mut self, now: SimTime, msg: M) -> Option<M> {
        self.accrue(now);
        self.stats.offered += 1;
        if !self.suspended && self.queue.is_empty() && self.credit >= 1.0 {
            self.credit -= 1.0;
            self.stats.delivered += 1;
            self.stats.immediate += 1;
            Some(msg)
        } else {
            self.queue.push_back((now, msg));
            self.stats.max_queue = self.stats.max_queue.max(self.queue.len());
            None
        }
    }

    /// Releases as many queued messages as accrued credit allows, in FIFO
    /// order, appending them to `out`. Returns how many were delivered.
    pub fn service(&mut self, now: SimTime, out: &mut Vec<M>) -> usize {
        self.accrue(now);
        let mut n = 0;
        while !self.suspended && self.credit >= 1.0 {
            match self.queue.pop_front() {
                Some((enq, msg)) => {
                    self.credit -= 1.0;
                    self.stats.delivered += 1;
                    self.stats.total_wait += now - enq;
                    out.push(msg);
                    n += 1;
                }
                None => break,
            }
        }
        n
    }

    /// Attempts to consume `units` of credit for non-message traffic
    /// (feedback, poll requests). Only succeeds when the queue is empty —
    /// overhead traffic must never preempt queued refreshes — and enough
    /// credit is available. Returns whether the units were consumed.
    pub fn try_consume(&mut self, now: SimTime, units: f64) -> bool {
        debug_assert!(units >= 0.0);
        self.accrue(now);
        if !self.suspended && self.queue.is_empty() && self.credit >= units {
            self.credit -= units;
            self.stats.consumed_units += units;
            true
        } else {
            false
        }
    }

    /// Reorders the waiting queue by `key`, highest first (stable: equal
    /// keys keep FIFO order). Enqueue times travel with their messages,
    /// so waiting-time accounting is unaffected. Used by the fault-aware
    /// outage-resume policy to re-prioritize a held backlog instead of
    /// FIFO-draining it.
    pub fn reorder_queue_by(&mut self, mut key: impl FnMut(&M) -> f64) {
        self.queue
            .make_contiguous()
            .sort_by(|a, b| key(&b.1).total_cmp(&key(&a.1)));
    }

    /// Number of messages waiting.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Whether messages are waiting.
    pub fn has_backlog(&self) -> bool {
        !self.queue.is_empty()
    }

    /// Lifetime statistics.
    pub fn stats(&self) -> &LinkStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::new(s)
    }

    fn constant_link(rate: f64) -> Link<u32> {
        Link::new(Wave::Constant(rate))
    }

    #[test]
    fn idle_link_cuts_through() {
        let mut l = constant_link(10.0);
        assert_eq!(l.offer(t(1.0), 7), Some(7));
        assert_eq!(l.stats().immediate, 1);
        assert_eq!(l.queue_len(), 0);
    }

    #[test]
    fn messages_queue_beyond_capacity() {
        let mut l = constant_link(2.0);
        // At t=1 credit is 2 (capped by burst): two cut through, rest queue.
        assert!(l.offer(t(1.0), 1).is_some());
        assert!(l.offer(t(1.0), 2).is_some());
        assert!(l.offer(t(1.0), 3).is_none());
        assert!(l.offer(t(1.0), 4).is_none());
        assert_eq!(l.queue_len(), 2);

        // One second later 2 more credits accrued: both drain, FIFO.
        let mut out = Vec::new();
        assert_eq!(l.service(t(2.0), &mut out), 2);
        assert_eq!(out, vec![3, 4]);
        assert!(!l.has_backlog());
    }

    #[test]
    fn fifo_order_preserved_under_backlog() {
        let mut l = constant_link(1.0);
        let _ = l.offer(t(1.0), 0);
        for i in 1..=5 {
            assert!(l.offer(t(1.0), i).is_none());
        }
        let mut out = Vec::new();
        l.service(t(3.0), &mut out); // 2 credits accrued
        l.service(t(6.0), &mut out); // 3 accrued but burst-capped at 2
        assert_eq!(out, vec![1, 2, 3, 4]);
        l.service(t(7.0), &mut out);
        assert_eq!(out, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn cut_through_disabled_while_backlogged() {
        let mut l = constant_link(1.0);
        let _ = l.offer(t(1.0), 1);
        assert!(l.offer(t(1.0), 2).is_none()); // backlog begins
                                               // Later there is credit, but the queue must drain first: no
                                               // cut-through past queued messages.
        assert!(l.offer(t(5.0), 3).is_none());
        let mut out = Vec::new();
        l.service(t(5.0), &mut out);
        assert_eq!(out, vec![2, 3]);
    }

    #[test]
    fn throughput_bounded_by_capacity_integral() {
        let cap = Wave::from_peak_rate(5.0, 0.25, 0.5, 0.3);
        let mut l: Link<u64> = Link::new(cap);
        let mut delivered = 0u64;
        let mut out = Vec::new();
        // Saturate the link for 100 ticks.
        for k in 1..=100 {
            let now = t(k as f64);
            for i in 0..20 {
                if l.offer(now, k * 100 + i).is_some() {
                    delivered += 1;
                }
            }
            out.clear();
            delivered += l.service(now, &mut out) as u64;
        }
        let max = cap.integral(t(0.0), t(100.0)) + l.burst_cap;
        assert!(
            (delivered as f64) <= max + 1.0,
            "delivered {delivered} exceeds capacity {max}"
        );
        // And the link should be close to fully utilized.
        assert!((delivered as f64) >= cap.integral(t(0.0), t(100.0)) - l.burst_cap - 1.0);
    }

    #[test]
    fn burst_cap_limits_banked_credit() {
        let mut l = constant_link(10.0); // burst cap = 20
        assert_eq!(l.credit(t(100.0)), 20.0);
        // A sub-unit-capacity link still gets a floor of 2.
        let mut slow: Link<u32> = Link::new(Wave::Constant(0.1));
        assert_eq!(slow.credit(t(1000.0)), 2.0);
    }

    #[test]
    fn try_consume_respects_queue_and_credit() {
        let mut l = constant_link(2.0);
        assert!(l.try_consume(t(1.0), 1.0));
        assert!(l.try_consume(t(1.0), 1.0));
        assert!(!l.try_consume(t(1.0), 1.0)); // out of credit
        let _ = l.offer(t(1.0), 9); // queues (no credit)
        assert!(!l.try_consume(t(10.0), 1.0)); // backlog blocks overhead
        let mut out = Vec::new();
        l.service(t(10.0), &mut out);
        assert!(l.try_consume(t(10.0), 1.0)); // drained: overhead ok again
        assert_eq!(l.stats().consumed_units, 3.0);
    }

    #[test]
    fn waiting_time_is_tracked() {
        let mut l = constant_link(1.0);
        let _ = l.offer(t(0.5), 1); // t=0.5: credit 0.5 → queues
        let mut out = Vec::new();
        l.service(t(2.0), &mut out);
        assert_eq!(out, vec![1]);
        assert!((l.stats().total_wait - 1.5).abs() < 1e-12);
    }

    #[test]
    fn can_send_reflects_state() {
        let mut l = constant_link(1.0);
        assert!(!l.can_send(t(0.0))); // no credit yet
        assert!(l.can_send(t(1.0)));
        let _ = l.offer(t(1.0), 1);
        assert!(!l.can_send(t(1.0)));
    }

    #[test]
    #[should_panic(expected = "burst cap")]
    fn rejects_tiny_burst_cap() {
        let _: Link<u32> = Link::with_burst_cap(Wave::Constant(1.0), 0.5);
    }

    #[test]
    fn suspension_freezes_accrual_and_transit() {
        let mut l = constant_link(10.0);
        assert_eq!(l.credit(t(1.0)), 10.0);
        l.suspend(t(1.0));
        assert!(l.is_suspended());
        // No accrual across the outage, banked credit kept.
        assert_eq!(l.credit(t(5.0)), 10.0);
        // Nothing transits: offers queue, overhead fails, service idles.
        assert!(!l.can_send(t(5.0)));
        assert!(l.offer(t(5.0), 1).is_none());
        assert!(!l.try_consume(t(5.0), 1.0));
        let mut out = Vec::new();
        assert_eq!(l.service(t(5.0), &mut out), 0);
        assert!(out.is_empty());
        // Resume: the window contributed no credit, then accrual restarts.
        l.resume(t(5.0));
        assert_eq!(l.credit(t(5.0)), 10.0);
        assert_eq!(l.service(t(5.0), &mut out), 1);
        assert_eq!(out, vec![1]);
        assert_eq!(l.credit(t(6.0)), 19.0);
    }

    #[test]
    fn drop_queue_discards_and_counts() {
        let mut l = constant_link(1.0);
        let _ = l.offer(t(0.0), 1);
        let _ = l.offer(t(0.0), 2);
        assert_eq!(l.queue_len(), 2);
        assert_eq!(l.drop_queue(), 2);
        assert_eq!(l.queue_len(), 0);
        assert_eq!(l.stats().dropped, 2);
        assert_eq!(l.drop_queue(), 0);
    }

    #[test]
    fn reorder_queue_is_stable_and_keeps_wait_accounting() {
        let mut l = constant_link(2.0); // burst cap 4: all four drain at once
        let _ = l.offer(t(0.0), 10); // cut-through blocked: no credit at t=0
        let _ = l.offer(t(0.0), 21);
        let _ = l.offer(t(0.5), 22);
        let _ = l.offer(t(1.0), 30);
        // Key by tens digit: 30 first, then the two 2x entries in FIFO
        // order (stability), then 10.
        l.reorder_queue_by(|m| (*m / 10) as f64);
        let mut out = Vec::new();
        l.service(t(4.0), &mut out);
        assert_eq!(out, vec![30, 21, 22, 10]);
        // Waits follow the messages: 30 enqueued at t=1 (wait 3), 21 and
        // 22 at t=0/0.5 (waits 4, 3.5), 10 at t=0 (wait 4).
        assert!((l.stats().total_wait - (3.0 + 4.0 + 3.5 + 4.0)).abs() < 1e-12);
    }

    #[test]
    fn suspend_and_resume_are_idempotent() {
        let mut l = constant_link(2.0);
        l.suspend(t(1.0));
        l.suspend(t(2.0));
        assert_eq!(l.credit(t(3.0)), 2.0);
        l.resume(t(3.0));
        l.resume(t(3.0));
        assert!(!l.is_suspended());
        assert_eq!(l.credit(t(4.0)), 4.0);
    }
}
