//! Cache-side runtime (paper §5, §7).
//!
//! The cache's job in the cooperative protocol is deliberately small: hold
//! the cached copies (ground truth lives in
//! [`besync_data::TruthTable`]), watch its own bandwidth, and spend any
//! *surplus* on positive feedback messages asking sources to lower their
//! thresholds. To aim the feedback, "the sources with the highest local
//! thresholds are selected" using the threshold each source piggybacks on
//! its refresh messages.

pub mod partition;

use besync_data::SourceId;
use besync_sim::rng::{self, streams};
use rand::rngs::SmallRng;
use rand::Rng;

/// How the cache picks which sources receive positive feedback when the
/// surplus cannot cover everyone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeedbackTargeting {
    /// The paper's policy: highest piggybacked thresholds first.
    HighestThreshold,
    /// Cycle through sources (ablation baseline).
    RoundRobin,
    /// Uniformly random sources (ablation baseline).
    Random,
}

/// Cache-side protocol state.
#[derive(Debug, Clone)]
pub struct CacheRuntime {
    /// Last threshold piggybacked by each source.
    thresholds: Vec<f64>,
    targeting: FeedbackTargeting,
    rr_cursor: usize,
    rng: SmallRng,
    /// Feedback messages sent over the run.
    pub feedback_sent: u64,
    /// Reusable index pool for the Random targeting's partial
    /// Fisher–Yates (zero steady-state allocation).
    fy_scratch: Vec<u32>,
}

impl CacheRuntime {
    /// Creates the runtime for `sources` sources whose thresholds start at
    /// `initial_threshold`.
    pub fn new(
        sources: u32,
        initial_threshold: f64,
        targeting: FeedbackTargeting,
        seed: u64,
    ) -> Self {
        CacheRuntime {
            thresholds: vec![initial_threshold; sources as usize],
            targeting,
            rr_cursor: 0,
            rng: rng::stream_rng(seed, streams::SCHEDULER),
            feedback_sent: 0,
            fy_scratch: Vec::new(),
        }
    }

    /// Number of sources known.
    pub fn sources(&self) -> usize {
        self.thresholds.len()
    }

    /// Records the threshold a source piggybacked on a refresh.
    pub fn observe_threshold(&mut self, src: SourceId, threshold: f64) {
        self.thresholds[src.index()] = threshold;
    }

    /// Picks up to `k` distinct sources to receive positive feedback,
    /// according to the targeting policy, appending them to `out` (which
    /// is cleared first). Taking a caller-owned buffer keeps the hot path
    /// allocation-free *and* lets the caller iterate targets while
    /// mutating other cache state.
    pub fn select_targets_into(&mut self, k: usize, out: &mut Vec<u32>) {
        let m = self.thresholds.len();
        let k = k.min(m);
        out.clear();
        if k == 0 {
            return;
        }
        match self.targeting {
            FeedbackTargeting::HighestThreshold => {
                out.extend(0..m as u32);
                if k < m {
                    let thresholds = &self.thresholds;
                    out.select_nth_unstable_by(k - 1, |&a, &b| {
                        thresholds[b as usize]
                            .total_cmp(&thresholds[a as usize])
                            .then(a.cmp(&b))
                    });
                    out.truncate(k);
                }
                // Deterministic order within the chosen set.
                let thresholds = &self.thresholds;
                out.sort_unstable_by(|&a, &b| {
                    thresholds[b as usize]
                        .total_cmp(&thresholds[a as usize])
                        .then(a.cmp(&b))
                });
            }
            FeedbackTargeting::RoundRobin => {
                for i in 0..k {
                    out.push(((self.rr_cursor + i) % m) as u32);
                }
                self.rr_cursor = (self.rr_cursor + k) % m;
            }
            FeedbackTargeting::Random => {
                // Partial Fisher–Yates over a reused index pool.
                let all = &mut self.fy_scratch;
                all.clear();
                all.extend(0..m as u32);
                for i in 0..k {
                    let j = self.rng.gen_range(i..m);
                    all.swap(i, j);
                    out.push(all[i]);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn targets(c: &mut CacheRuntime, k: usize) -> Vec<u32> {
        let mut out = Vec::new();
        c.select_targets_into(k, &mut out);
        out
    }

    #[test]
    fn highest_threshold_targets_largest() {
        let mut c = CacheRuntime::new(4, 1.0, FeedbackTargeting::HighestThreshold, 0);
        c.observe_threshold(SourceId(0), 5.0);
        c.observe_threshold(SourceId(1), 1.0);
        c.observe_threshold(SourceId(2), 9.0);
        c.observe_threshold(SourceId(3), 3.0);
        assert_eq!(targets(&mut c, 2), &[2, 0]);
        assert_eq!(targets(&mut c, 4), &[2, 0, 3, 1]);
    }

    #[test]
    fn k_larger_than_m_selects_all() {
        let mut c = CacheRuntime::new(3, 1.0, FeedbackTargeting::HighestThreshold, 0);
        assert_eq!(targets(&mut c, 100).len(), 3);
    }

    #[test]
    fn round_robin_cycles() {
        let mut c = CacheRuntime::new(3, 1.0, FeedbackTargeting::RoundRobin, 0);
        assert_eq!(targets(&mut c, 2), &[0, 1]);
        assert_eq!(targets(&mut c, 2), &[2, 0]);
        assert_eq!(targets(&mut c, 2), &[1, 2]);
    }

    #[test]
    fn random_targets_are_distinct() {
        let mut c = CacheRuntime::new(10, 1.0, FeedbackTargeting::Random, 7);
        for _ in 0..50 {
            let ts = targets(&mut c, 5);
            let mut dedup = ts.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), ts.len());
        }
    }

    #[test]
    fn ties_break_deterministically() {
        let mut a = CacheRuntime::new(4, 1.0, FeedbackTargeting::HighestThreshold, 0);
        let mut b = CacheRuntime::new(4, 1.0, FeedbackTargeting::HighestThreshold, 99);
        assert_eq!(targets(&mut a, 2), targets(&mut b, 2));
    }

    #[test]
    fn zero_k() {
        let mut c = CacheRuntime::new(3, 1.0, FeedbackTargeting::HighestThreshold, 0);
        assert!(targets(&mut c, 0).is_empty());
    }
}
