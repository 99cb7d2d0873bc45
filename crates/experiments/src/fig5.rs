//! Figure 5 — wind-buoy data (§6.2.1).
//!
//! 40 buoys × 2 wind-vector components sampled every 10 minutes for seven
//! days (first day warm-up), value-deviation metric with `Δ = |V₁ − V₂|`,
//! and the cache-side (satellite) link capped at 1–80 messages *per
//! minute*. Left panel: fixed bandwidth; right panel: fluctuating with
//! `m_B = 0.25`. Both panels compare our algorithm against the idealized
//! scenario; the paper's reading is that the two curves nearly coincide,
//! with deviation around 0.5 (≈10% of typical wind values) at the
//! low-bandwidth end.

use besync::priority::PolicyKind;
use besync_data::Metric;
use besync_scenarios::{ScenarioSpec, SystemKind};
use besync_sweep::{sweep, SweepError, SweepOptions};
use besync_workloads::buoy::BuoyConfig;

use crate::output::{fnum, Row};
use crate::Mode;

/// One bandwidth point of Figure 5.
#[derive(Debug, Clone)]
pub struct Fig5Row {
    /// "fixed" or "fluctuating".
    pub regime: &'static str,
    /// (Average) maximum messages per minute over the satellite link.
    pub bandwidth_per_min: f64,
    /// Average value deviation per data value, ideal scenario.
    pub ideal: f64,
    /// Average value deviation per data value, our algorithm.
    pub ours: f64,
}

impl Row for Fig5Row {
    fn headers() -> Vec<&'static str> {
        vec!["regime", "bw_per_min", "ideal_deviation", "our_deviation"]
    }
    fn fields(&self) -> Vec<String> {
        vec![
            self.regime.to_string(),
            format!("{}", self.bandwidth_per_min),
            fnum(self.ideal),
            fnum(self.ours),
        ]
    }
}

struct Setup {
    cfg: BuoyConfig,
    bandwidths: Vec<f64>,
    warmup: f64,
}

fn setup_for(mode: Mode) -> Setup {
    match mode {
        Mode::Quick => Setup {
            cfg: BuoyConfig::quick(),
            bandwidths: vec![2.0, 10.0, 40.0, 80.0],
            warmup: 0.25 * 86_400.0,
        },
        Mode::Standard => Setup {
            cfg: BuoyConfig::paper(),
            bandwidths: vec![1.0, 2.0, 5.0, 10.0, 20.0, 40.0, 60.0, 80.0],
            warmup: 86_400.0, // "using the first day as a warm-up period"
        },
        Mode::Full => Setup {
            cfg: BuoyConfig::paper(),
            bandwidths: (0..16).map(|i| 1.0 + i as f64 * 5.3).collect(),
            warmup: 86_400.0,
        },
    }
}

/// Runs both panels of Figure 5 in-process.
pub fn run(mode: Mode, seed: u64) -> Vec<Fig5Row> {
    run_with(mode, seed, &SweepOptions::default()).expect("in-process sweeps cannot fail")
}

/// Runs both panels of Figure 5 through a sweep runner (see
/// [`crate::fig4::run_with`] for the `--shards` semantics).
///
/// # Errors
///
/// Only the process-sharded path can fail (worker spawn/protocol).
pub fn run_with(mode: Mode, seed: u64, opts: &SweepOptions) -> Result<Vec<Fig5Row>, SweepError> {
    let s = setup_for(mode);
    let duration = s.cfg.duration;
    let warmup = s.warmup;
    let buoy_cfg = s.cfg;
    let mut points = Vec::new();
    for &(regime, mb) in &[("fixed", 0.0), ("fluctuating", 0.25)] {
        for &bw in &s.bandwidths {
            points.push((regime, mb, bw));
        }
    }
    let mut specs = Vec::with_capacity(points.len() * 2);
    for &(regime, mb, bw) in &points {
        let scenario = |system: SystemKind| {
            ScenarioSpec::builder(format!("fig5/{regime}/bw{bw}"))
                .seed(seed)
                .system(system)
                .buoy(buoy_cfg)
                .policy(PolicyKind::Area)
                .metric(Metric::abs_deviation())
                // Messages per minute → per second. Buoys transmit at most
                // one measurement per sample anyway; the satellite link is
                // the binding constraint (§6.2.1).
                .bandwidth(bw / 60.0, 1.0)
                .bandwidth_change_rate(mb)
                .window(warmup, duration - warmup)
                .finish()
        };
        specs.push(scenario(SystemKind::Ideal));
        specs.push(scenario(SystemKind::Coop));
    }
    let outcomes = sweep(&specs, opts)?.into_outcomes();
    Ok(points
        .iter()
        .zip(outcomes.chunks_exact(2))
        .map(|(&(regime, _, bw), pair)| Fig5Row {
            regime,
            bandwidth_per_min: bw,
            ideal: pair[0].report.divergence.mean_unweighted,
            ours: pair[1].report.divergence.mean_unweighted,
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curves_decrease_with_bandwidth() {
        let rows = run(Mode::Quick, 21);
        let fixed: Vec<&Fig5Row> = rows.iter().filter(|r| r.regime == "fixed").collect();
        assert!(fixed.len() >= 3);
        // More bandwidth → (weakly) less deviation at the endpoints.
        let first = fixed.first().unwrap();
        let last = fixed.last().unwrap();
        assert!(first.bandwidth_per_min < last.bandwidth_per_min);
        assert!(last.ideal <= first.ideal + 1e-9);
        assert!(last.ours <= first.ours + 0.05);
    }

    #[test]
    fn our_algorithm_tracks_ideal() {
        let rows = run(Mode::Quick, 22);
        for r in &rows {
            assert!(
                r.ours + 1e-9 >= r.ideal * 0.9,
                "ours {} shouldn't beat ideal {} meaningfully",
                r.ours,
                r.ideal
            );
        }
    }
}
