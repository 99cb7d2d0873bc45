//! The priority heap over per-source object quotes.
//!
//! Sources keep their modified objects "in priority order" (paper Figure
//! 2) so the highest-priority object is found quickly whenever bandwidth
//! frees up (§8). Priorities change only when an object is updated (§8.2),
//! so at most one quote per object is ever current — which is exactly the
//! shape of the workspace-wide [`besync_sim::IndexedHeap`];
//! [`IndexedMaxHeap`] is its priority-ordered wrapper and **the
//! production scheduler** used by every source runtime and by
//! [`crate::IdealSystem`].

use besync_sim::{HeapKey, IndexedHeap};

/// Max-priority quote key: higher priority wins; priority ties are served
/// FIFO (the older quote — smaller seq — wins). This matters for
/// discrete priorities — under the staleness metric whole cohorts tie at
/// `1·W`, and an id-based tie-break would permanently starve high ids.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PriorityKey {
    priority: f64,
    seq: u64,
}

impl HeapKey for PriorityKey {
    #[inline]
    fn beats(&self, other: &Self) -> bool {
        match self.priority.total_cmp(&other.priority) {
            std::cmp::Ordering::Greater => true,
            std::cmp::Ordering::Less => false,
            std::cmp::Ordering::Equal => self.seq < other.seq,
        }
    }
}

/// An indexed max-heap over `n` items: at most one entry per item, revised
/// **in place** (a sift instead of a stale push), removed in place on
/// [`IndexedMaxHeap::invalidate`]. The priority-flavoured wrapper over the
/// workspace-wide [`besync_sim::IndexedHeap`].
///
/// Ordering contract: max priority first, FIFO by quote seq within a
/// priority tie. No stale entry ever exists, so memory is exactly one
/// entry per live item and there is nothing to compact.
#[derive(Debug, Clone)]
pub struct IndexedMaxHeap {
    heap: IndexedHeap<PriorityKey>,
    /// Monotone quote counter for FIFO tie-breaking.
    next_seq: u64,
}

impl IndexedMaxHeap {
    /// Creates a heap for items `0..n`.
    pub fn new(n: usize) -> Self {
        IndexedMaxHeap {
            heap: IndexedHeap::new(n),
            next_seq: 0,
        }
    }

    /// Number of live entries (items with a current quote).
    pub fn live(&self) -> usize {
        self.heap.len()
    }

    /// Total entries — identical to [`IndexedMaxHeap::live`]; the indexed
    /// representation stores no stale entries, so `raw_len == live` is an
    /// invariant rather than a compaction goal.
    pub fn raw_len(&self) -> usize {
        self.heap.len()
    }

    /// Quotes a new priority for `item`, superseding any previous quote.
    /// In-place revision: the entry moves whichever way the new priority
    /// sends it (a fresh seq loses ties, hence downward on equal
    /// priority).
    pub fn push(&mut self, item: u32, priority: f64) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(item, PriorityKey { priority, seq });
    }

    /// Removes `item`'s current quote, if any (e.g. after sending it).
    pub fn invalidate(&mut self, item: u32) {
        self.heap.remove(item);
    }

    /// The current top (priority, item) without removing it.
    pub fn peek_valid(&self) -> Option<(f64, u32)> {
        self.heap.peek().map(|(k, item)| (k.priority, item))
    }

    /// Removes and returns the top (priority, item).
    pub fn pop_valid(&mut self) -> Option<(f64, u32)> {
        self.heap.pop().map(|(k, item)| (k.priority, item))
    }

    /// Rebuilds from an iterator of live (item, priority) quotes, dropping
    /// all previous quotes. Fresh seqs are assigned in iteration order.
    pub fn rebuild(&mut self, live: impl IntoIterator<Item = (u32, f64)>) {
        self.heap.clear();
        for (item, priority) in live {
            self.push(item, priority);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_priority_order() {
        let mut h = IndexedMaxHeap::new(4);
        h.push(0, 1.0);
        h.push(1, 5.0);
        h.push(2, 3.0);
        assert_eq!(h.pop_valid(), Some((5.0, 1)));
        assert_eq!(h.pop_valid(), Some((3.0, 2)));
        assert_eq!(h.pop_valid(), Some((1.0, 0)));
        assert_eq!(h.pop_valid(), None);
    }

    #[test]
    fn newer_quote_supersedes() {
        let mut h = IndexedMaxHeap::new(2);
        h.push(0, 10.0);
        h.push(0, 2.0); // revised downward
        h.push(1, 5.0);
        assert_eq!(h.pop_valid(), Some((5.0, 1)));
        assert_eq!(h.pop_valid(), Some((2.0, 0)));
        assert_eq!(h.pop_valid(), None);
    }

    #[test]
    fn peek_does_not_remove() {
        let mut h = IndexedMaxHeap::new(1);
        h.push(0, 7.0);
        assert_eq!(h.peek_valid(), Some((7.0, 0)));
        assert_eq!(h.peek_valid(), Some((7.0, 0)));
        assert_eq!(h.pop_valid(), Some((7.0, 0)));
    }

    #[test]
    fn invalidate_removes_quote() {
        let mut h = IndexedMaxHeap::new(2);
        h.push(0, 9.0);
        h.push(1, 1.0);
        h.invalidate(0);
        assert_eq!(h.pop_valid(), Some((1.0, 1)));
        assert_eq!(h.pop_valid(), None);
        // Re-quoting after invalidation works.
        h.push(0, 4.0);
        assert_eq!(h.pop_valid(), Some((4.0, 0)));
    }

    #[test]
    fn live_count_tracks_quotes() {
        let mut h = IndexedMaxHeap::new(3);
        assert_eq!(h.live(), 0);
        h.push(0, 1.0);
        h.push(1, 2.0);
        assert_eq!(h.live(), 2);
        h.push(0, 3.0); // revision, not a new live item
        assert_eq!(h.live(), 2);
        h.invalidate(1);
        assert_eq!(h.live(), 1);
        h.pop_valid();
        assert_eq!(h.live(), 0);
    }

    #[test]
    fn deterministic_tie_breaking() {
        // Equal priorities are served FIFO by quote age, not by item id.
        let mut h = IndexedMaxHeap::new(4);
        for item in [2, 0, 3, 1] {
            h.push(item, 1.0);
        }
        for item in [2, 0, 3, 1] {
            assert_eq!(h.pop_valid(), Some((1.0, item)));
        }
    }

    #[test]
    fn negative_priorities_are_fine() {
        let mut h = IndexedMaxHeap::new(2);
        h.push(0, -5.0);
        h.push(1, -1.0);
        assert_eq!(h.pop_valid(), Some((-1.0, 1)));
        assert_eq!(h.pop_valid(), Some((-5.0, 0)));
    }

    #[test]
    fn indexed_basic_order_and_revision() {
        let mut h = IndexedMaxHeap::new(4);
        h.push(0, 1.0);
        h.push(1, 5.0);
        h.push(2, 3.0);
        h.push(1, 0.5); // revised downward, in place
        assert_eq!(h.live(), 3);
        assert_eq!(h.pop_valid(), Some((3.0, 2)));
        assert_eq!(h.pop_valid(), Some((1.0, 0)));
        assert_eq!(h.pop_valid(), Some((0.5, 1)));
        assert_eq!(h.pop_valid(), None);
    }

    #[test]
    fn indexed_invalidate_and_rebuild() {
        let mut h = IndexedMaxHeap::new(4);
        for i in 0..4 {
            h.push(i, i as f64);
        }
        h.invalidate(3);
        assert_eq!(h.peek_valid(), Some((2.0, 2)));
        h.rebuild([(1, 9.0), (0, 9.0)]);
        assert_eq!(h.live(), 2);
        // Equal priorities: FIFO by rebuild order.
        assert_eq!(h.pop_valid(), Some((9.0, 1)));
        assert_eq!(h.pop_valid(), Some((9.0, 0)));
    }

    /// The heap against a brute-force oracle — a quote table scanned
    /// for its maximum — under a long operation stream with deliberate
    /// priority ties: identical observations throughout.
    #[test]
    fn indexed_matches_lazy_heap() {
        let mut quotes: Vec<Option<(f64, u64)>> = vec![None; 16];
        let top = |quotes: &[Option<(f64, u64)>]| {
            let live = quotes
                .iter()
                .enumerate()
                .filter_map(|(i, q)| Some((i, (*q)?)));
            live.max_by(|(_, a), (_, b)| a.0.total_cmp(&b.0).then(b.1.cmp(&a.1)))
                .map(|(i, (p, _))| (p, i as u32))
        };
        let mut indexed = IndexedMaxHeap::new(16);
        let mut state = 0xD1B54A32D192ED03u64;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for seq in 0..20_000 {
            match rnd() % 8 {
                0..=4 => {
                    let item = (rnd() % 16) as u32;
                    let p = (rnd() % 7) as f64 - 3.0; // few levels → many ties
                    quotes[item as usize] = Some((p, seq));
                    indexed.push(item, p);
                }
                5 => {
                    let item = (rnd() % 16) as u32;
                    quotes[item as usize] = None;
                    indexed.invalidate(item);
                }
                6 => {
                    let want = top(&quotes);
                    assert_eq!(indexed.pop_valid(), want);
                    if let Some((_, item)) = want {
                        quotes[item as usize] = None;
                    }
                }
                _ => assert_eq!(indexed.peek_valid(), top(&quotes)),
            }
            assert_eq!(indexed.live(), quotes.iter().flatten().count());
            assert_eq!(indexed.raw_len(), indexed.live());
        }
    }
}
