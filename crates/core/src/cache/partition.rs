//! Competitive bandwidth partitioning (paper §7).
//!
//! When sources and the cache disagree on refresh priorities — different
//! weights, different divergence functions — the cache can dedicate a
//! fraction `Ψ` of its bandwidth to satisfying *source* priorities and the
//! rest to its own. The paper sketches three ways to divide the Ψ share:
//!
//! 1. every source gets an equal share;
//! 2. shares proportional to the number of cached objects per source;
//! 3. shares proportional to how much each source contributes to the
//!    cache's own objectives — implemented as a piggyback entitlement of
//!    `Ψ/(1−Ψ)` source-chosen objects per cache-priority refresh.
//!
//! Options 1 and 2 are implemented as explicit rate allocations the cache
//! advertises with its feedback; option 3 as the piggyback ratio.

use besync_data::ids::ObjectLayout;

/// How the Ψ share is divided among sources.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SharePolicy {
    /// Option (1): equal share per source.
    EqualShare,
    /// Option (2): proportional to the number of cached objects.
    ProportionalToObjects,
    /// Option (3): proportional to the source's contribution to the
    /// cache's objective, realized as piggybacking.
    ProportionalToValue,
}

/// A Ψ-partition of cache-side bandwidth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BandwidthPartition {
    /// Fraction of cache bandwidth dedicated to source priorities
    /// (`0 ≤ Ψ < 1`).
    pub psi: f64,
    /// How the Ψ share is split.
    pub policy: SharePolicy,
}

impl BandwidthPartition {
    /// Creates a partition.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ psi < 1` (Ψ = 1 would starve the cache priority
    /// entirely and makes the option-3 ratio undefined).
    pub fn new(psi: f64, policy: SharePolicy) -> Self {
        assert!((0.0..1.0).contains(&psi), "psi must be in [0, 1)");
        BandwidthPartition { psi, policy }
    }

    /// The per-source refresh-rate allocations (messages/second) out of a
    /// total cache bandwidth. Options (1) and (2) divide the Ψ pool;
    /// option (3) allocates nothing up front, because piggybacking
    /// enforces its entitlement.
    pub fn allocations(&self, cache_bandwidth: f64, layout: ObjectLayout) -> Vec<f64> {
        let m = layout.sources() as usize;
        let pool = self.psi * cache_bandwidth;
        if pool <= 0.0 {
            return vec![0.0; m];
        }
        match self.policy {
            SharePolicy::EqualShare => vec![pool / m as f64; m],
            SharePolicy::ProportionalToObjects => {
                let n = layout.objects_per_source();
                vec![pool * n as f64 / layout.total_objects() as f64; m]
            }
            SharePolicy::ProportionalToValue => vec![0.0; m],
        }
    }

    /// Option (3) entitlement: sources may piggyback, on average,
    /// `Ψ/(1−Ψ)` objects of their own choosing per cache-priority refresh.
    pub fn piggyback_ratio(&self) -> f64 {
        self.psi / (1.0 - self.psi)
    }
}

/// Accumulates fractional piggyback entitlement for one source under
/// option (3): each cache-priority refresh earns `Ψ/(1−Ψ)` credits, and
/// each whole credit may be spent on one source-chosen refresh.
#[derive(Debug, Clone, Copy, Default)]
pub struct PiggybackCredit {
    credit: f64,
}

impl PiggybackCredit {
    /// Earns credit for one cache-priority refresh.
    pub fn earn(&mut self, ratio: f64) {
        self.credit += ratio;
    }

    /// Spends one unit if available.
    pub fn try_spend(&mut self) -> bool {
        if self.credit >= 1.0 {
            self.credit -= 1.0;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_share_divides_pool() {
        let p = BandwidthPartition::new(0.5, SharePolicy::EqualShare);
        let a = p.allocations(100.0, ObjectLayout::new(4, 10));
        assert_eq!(a, vec![12.5; 4]);
    }

    #[test]
    fn proportional_to_objects() {
        // Every source owns n of the m·n objects, so option (2) gives
        // each the same share option (1) does.
        let p = BandwidthPartition::new(0.4, SharePolicy::ProportionalToObjects);
        let a = p.allocations(100.0, ObjectLayout::new(4, 30));
        assert_eq!(a.len(), 4);
        assert!(a.iter().all(|&x| (x - 10.0).abs() < 1e-12), "{a:?}");
    }

    #[test]
    fn proportional_to_value() {
        let p = BandwidthPartition::new(0.5, SharePolicy::ProportionalToValue);
        assert_eq!(p.allocations(100.0, ObjectLayout::new(2, 5)), vec![0.0; 2]);
    }

    #[test]
    fn piggyback_ratio_formula() {
        let p = BandwidthPartition::new(0.5, SharePolicy::ProportionalToValue);
        assert!((p.piggyback_ratio() - 1.0).abs() < 1e-12);
        let p = BandwidthPartition::new(0.25, SharePolicy::ProportionalToValue);
        assert!((p.piggyback_ratio() - 1.0 / 3.0).abs() < 1e-12);
        let none = BandwidthPartition::new(0.0, SharePolicy::ProportionalToValue);
        assert_eq!(none.piggyback_ratio(), 0.0);
    }

    #[test]
    fn piggyback_credit_accumulates() {
        let mut c = PiggybackCredit::default();
        let ratio = 1.0 / 3.0;
        let mut spent = 0;
        for _ in 0..9 {
            c.earn(ratio);
            if c.try_spend() {
                spent += 1;
            }
        }
        // 9 refreshes × 1/3 = 3 piggybacks.
        assert_eq!(spent, 3);
        assert!(!c.try_spend());
    }

    #[test]
    fn zero_psi_allocates_nothing() {
        let p = BandwidthPartition::new(0.0, SharePolicy::ProportionalToObjects);
        assert_eq!(p.allocations(100.0, ObjectLayout::new(3, 2)), vec![0.0; 3]);
    }

    #[test]
    #[should_panic(expected = "psi")]
    fn rejects_full_psi() {
        let _ = BandwidthPartition::new(1.0, SharePolicy::EqualShare);
    }
}
