//! Simulation configuration.

use besync_data::Metric;
use besync_sim::rng::{self, streams};
use besync_sim::Wave;
use rand::Rng;

use crate::cache::FeedbackTargeting;
use crate::fault::{FaultProfile, LossLane};
use crate::priority::{PolicyKind, RateEstimator};
use crate::threshold::{expected_feedback_period, ThresholdParams};

/// Configuration of one simulation run. Every system kind is built from
/// it: the §5 protocol, its §7 extension, the §3.3 ideal scheduler and
/// the §6.3 CGM pollers (which read the metric, tick, window, cache link,
/// seed and fault profile, and nothing else).
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Divergence metric being minimized.
    pub metric: Metric,
    /// Refresh priority policy at the sources.
    pub policy: PolicyKind,
    /// How sources estimate Poisson rates for closed-form policies.
    pub estimator: RateEstimator,
    /// Average cache-side bandwidth `B_C` (messages/second).
    pub cache_bandwidth_mean: f64,
    /// Average per-source bandwidth `B_S` (messages/second).
    pub source_bandwidth_mean: f64,
    /// The paper's `m_B`: peak relative bandwidth change rate (0 ⇒
    /// constant bandwidth; both links fluctuate when nonzero).
    pub bandwidth_change_rate: f64,
    /// Threshold increase factor α (paper's best: 1.1).
    pub alpha: f64,
    /// Threshold decrease factor ω (paper's best: 10).
    pub omega: f64,
    /// Initial local threshold at every source.
    pub initial_threshold: f64,
    /// Feedback targeting policy at the cache.
    pub feedback_targeting: FeedbackTargeting,
    /// Simulation tick (seconds); the paper accounts bandwidth per second.
    pub tick: f64,
    /// Warm-up duration excluded from measurement (seconds).
    pub warmup: f64,
    /// Measured duration after warm-up (seconds).
    pub measure: f64,
    /// Seed for simulation-side randomness (phases, tie-breaking); the
    /// workload carries its own seed.
    pub sim_seed: u64,
    /// §9: per-object maximum divergence rates, required by
    /// [`PolicyKind::Bound`].
    pub bound_rates: Option<Vec<f64>>,
    /// Simulated-world fault profile. `None` (the default) skips the
    /// fault machinery entirely: that path is bit-identical to the
    /// pre-fault tree and is what every golden pins.
    pub fault: Option<FaultProfile>,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            metric: Metric::Staleness,
            policy: PolicyKind::Area,
            estimator: RateEstimator::LongRun,
            cache_bandwidth_mean: 100.0,
            source_bandwidth_mean: 10.0,
            bandwidth_change_rate: 0.0,
            alpha: 1.1,
            omega: 10.0,
            initial_threshold: 1.0,
            feedback_targeting: FeedbackTargeting::HighestThreshold,
            tick: 1.0,
            warmup: 100.0,
            measure: 500.0,
            sim_seed: 0,
            bound_rates: None,
            fault: None,
        }
    }
}

impl SystemConfig {
    /// End of the run: warm-up plus measurement window.
    pub fn horizon(&self) -> f64 {
        self.warmup + self.measure
    }

    /// Threshold parameters for `sources` cooperating sources.
    ///
    /// The expected feedback period is `m / B̄_C` (§5) but never less than
    /// one tick: the cache's surplus check runs per tick, so feedback
    /// cannot arrive more often than that, and a sub-tick expectation
    /// would trip the β flood brake on every perfectly healthy refresh.
    pub fn threshold_params(&self, sources: u32) -> ThresholdParams {
        ThresholdParams {
            alpha: self.alpha,
            omega: self.omega,
            initial: self.initial_threshold,
            expected_feedback_period: expected_feedback_period(sources, self.cache_bandwidth_mean)
                .max(self.tick),
        }
    }

    /// The cache-side bandwidth wave (random phase derived from the seed).
    pub fn cache_wave(&self) -> Wave {
        let mut r = rng::stream_rng2(self.sim_seed, streams::PHASES, u64::MAX);
        let phase = r.gen_range(0.0..std::f64::consts::TAU);
        Wave::fluctuating(self.cache_bandwidth_mean, self.bandwidth_change_rate, phase)
    }

    /// The bandwidth wave of source `j` (independent random phase so
    /// source links don't fluctuate in lock-step).
    pub fn source_wave(&self, source: u32) -> Wave {
        let mut r = rng::stream_rng2(self.sim_seed, streams::PHASES, source as u64);
        let phase = r.gen_range(0.0..std::f64::consts::TAU);
        Wave::fluctuating(
            self.source_bandwidth_mean,
            self.bandwidth_change_rate,
            phase,
        )
    }

    /// The loss lane of a system `kind` that models refresh loss only
    /// (the ideal scheduler, the CGM pollers); `None` when nothing is lost.
    ///
    /// # Panics
    ///
    /// Panics where [`FaultProfile::loss_only_lane`] errs.
    pub fn loss_only_lane(&self, kind: &str) -> Option<LossLane> {
        let lane = self.fault?.loss_only_lane(self.sim_seed, kind);
        lane.unwrap_or_else(|e| panic!("invalid fault profile: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use besync_sim::signal::Signal;
    use besync_sim::SimTime;

    #[test]
    fn default_matches_paper_recommendations() {
        let c = SystemConfig::default();
        assert_eq!(c.alpha, 1.1);
        assert_eq!(c.omega, 10.0);
        assert_eq!(c.tick, 1.0);
        assert_eq!(c.horizon(), 600.0);
    }

    #[test]
    fn constant_bandwidth_when_mb_zero() {
        let c = SystemConfig::default();
        assert_eq!(c.cache_wave(), Wave::Constant(100.0));
        assert_eq!(c.source_wave(3), Wave::Constant(10.0));
    }

    #[test]
    fn fluctuating_bandwidth_has_distinct_phases() {
        let c = SystemConfig {
            bandwidth_change_rate: 0.25,
            ..SystemConfig::default()
        };
        let w0 = c.source_wave(0);
        let w1 = c.source_wave(1);
        let t = SimTime::new(3.0);
        assert!((w0.value(t) - w1.value(t)).abs() > 1e-9);
        // Same seed reproduces the same phases.
        assert_eq!(w0, c.source_wave(0));
    }

    #[test]
    fn threshold_params_compute_feedback_period() {
        let c = SystemConfig::default();
        let p = c.threshold_params(200);
        assert!((p.expected_feedback_period - 2.0).abs() < 1e-12);
        // Sub-tick periods are floored at the tick.
        let p1 = c.threshold_params(10);
        assert_eq!(p1.expected_feedback_period, 1.0);
        assert_eq!(p.alpha, 1.1);
    }
}
