//! Seeded-deterministic respawn backoff.
//!
//! When a worker slot faults, the supervisor waits before spawning the
//! replacement so a persistently broken worker command (missing shared
//! library, bad deploy, flapping remote host) doesn't turn into a tight
//! fork loop. The schedule is the classic exponential-with-jitter, but
//! the jitter is **derived, not sampled**: it hashes a fixed seed with
//! the slot index and the attempt number, so the same sweep options
//! produce the same delays on every run and on every shard count. No
//! `SystemTime`, no global RNG — nothing in the respawn decision path
//! can differ between `--shards 0/1/N` runs, which is what keeps the
//! byte-identity contract safe from this layer.

use std::time::Duration;

use besync_sim::rng::splitmix64;

/// The respawn delay schedule: exponential growth from `base_ms`,
/// capped at `cap_ms`, with deterministic jitter in the upper half of
/// each step (`[step/2, step]` — full-jitter's bias toward zero would
/// make consecutive delays non-monotone even before the cap).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffPolicy {
    /// First-attempt delay, milliseconds (clamped to ≥ 1 internally).
    pub base_ms: u64,
    /// Delay ceiling, milliseconds.
    pub cap_ms: u64,
    /// Jitter seed. Two sweeps with the same seed have identical
    /// schedules; vary it to decorrelate co-located sweeps.
    pub seed: u64,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        BackoffPolicy {
            base_ms: 10,
            cap_ms: 1_000,
            seed: 0xbe57_c0de,
        }
    }
}

impl BackoffPolicy {
    /// The delay before respawn attempt `attempt` (0-based) on worker
    /// slot `slot`, as a [`Duration`].
    pub fn delay(&self, slot: usize, attempt: usize) -> Duration {
        Duration::from_millis(self.delay_ms(slot, attempt))
    }

    /// The exponential step for `attempt` before jitter: `base << attempt`,
    /// capped. Exposed so tests can pin where the cap region starts.
    pub fn step_ms(&self, attempt: usize) -> u64 {
        let base = self.base_ms.max(1);
        let cap = self.cap_ms.max(base);
        let exp = u32::try_from(attempt).unwrap_or(u32::MAX).min(32);
        // `checked_shl` only rejects shift counts ≥ 64, not bits shifted
        // out of range, so it cannot detect overflow here; compare
        // against the leading zeros instead so an overflowing step
        // saturates to the cap rather than silently losing high bits
        // (which would drop the step below `base` and break the
        // monotone schedule).
        if exp >= base.leading_zeros() {
            cap
        } else {
            (base << exp).min(cap)
        }
    }

    /// The delay in milliseconds. Deterministic in `(seed, slot,
    /// attempt)`; lies in `[step/2, step]`, so below the cap the
    /// schedule is monotone nondecreasing (each step's range starts
    /// where the previous one ends) and it never exceeds `cap_ms`.
    pub fn delay_ms(&self, slot: usize, attempt: usize) -> u64 {
        let step = self.step_ms(attempt);
        let span = step / 2;
        let h = splitmix64(
            self.seed
                ^ (slot as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
                ^ (attempt as u64).wrapping_mul(0xc2b2_ae3d_27d4_eb4f),
        );
        step - span + if span == 0 { 0 } else { h % (span + 1) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let p = BackoffPolicy::default();
        assert!(p.base_ms >= 1);
        assert!(p.cap_ms >= p.base_ms);
        // First delay is small (a crash loop stays snappy to recover
        // from), last delays are capped.
        assert!(p.delay_ms(0, 0) <= p.base_ms);
        assert!(p.delay_ms(0, 60) <= p.cap_ms);
    }

    #[test]
    fn huge_attempt_counts_do_not_overflow() {
        let p = BackoffPolicy {
            base_ms: u64::MAX / 2,
            cap_ms: u64::MAX,
            seed: 7,
        };
        for attempt in [0usize, 31, 32, 33, 64, usize::MAX] {
            let d = p.delay_ms(0, attempt);
            assert!(d <= p.cap_ms);
        }
    }

    #[test]
    fn huge_bases_saturate_to_the_cap_instead_of_losing_bits() {
        // A base where shifting would push bits off the top: the step
        // must pin to the cap, never wrap below the base (a shifted-out
        // step used to come back as ~0 and break monotonicity).
        let p = BackoffPolicy {
            base_ms: 1 << 33,
            cap_ms: u64::MAX,
            seed: 3,
        };
        let mut prev = 0u64;
        for attempt in 0..64usize {
            let step = p.step_ms(attempt);
            assert!(
                step >= p.base_ms,
                "step {step} fell below base at attempt {attempt}"
            );
            assert!(step >= prev, "non-monotone step at attempt {attempt}");
            prev = step;
        }
        assert_eq!(p.step_ms(63), p.cap_ms);
    }

    #[test]
    fn zero_base_is_clamped_not_divided() {
        let p = BackoffPolicy {
            base_ms: 0,
            cap_ms: 0,
            seed: 1,
        };
        // base and cap both clamp to 1ms; span may be 0 — no div-by-zero.
        assert!(p.delay_ms(3, 0) >= 1);
    }
}
