//! §6.1 — threshold parameter settings.
//!
//! Sweeps the threshold increase factor α and decrease factor ω over the
//! fluctuating random-walk workload and reports average divergence per
//! setting. The paper's finding: the best setting is `α = 1.1, ω = 10`,
//! with low sensitivity nearby (`α = 1.2, ω = 20` "gave similar results"),
//! an order of magnitude apart because increases (per refresh) are far
//! more frequent than decreases (per feedback).

use besync_data::Metric;
use besync_scenarios::{ScenarioSpec, SystemKind, WorkloadKind};
use besync_sweep::{sweep, SweepError, SweepOptions};

use crate::output::{fnum, Row};
use crate::Mode;

/// One (α, ω) cell.
#[derive(Debug, Clone)]
pub struct ParamRow {
    /// Threshold increase factor.
    pub alpha: f64,
    /// Threshold decrease factor.
    pub omega: f64,
    /// Metric evaluated.
    pub metric: &'static str,
    /// Weighted mean divergence.
    pub divergence: f64,
    /// Feedback messages per measured second (communication overhead).
    pub feedback_rate: f64,
}

impl Row for ParamRow {
    fn headers() -> Vec<&'static str> {
        vec!["alpha", "omega", "metric", "divergence", "feedback_per_s"]
    }
    fn fields(&self) -> Vec<String> {
        vec![
            format!("{:.2}", self.alpha),
            format!("{:.1}", self.omega),
            self.metric.to_string(),
            fnum(self.divergence),
            fnum(self.feedback_rate),
        ]
    }
}

struct Grid {
    alphas: Vec<f64>,
    omegas: Vec<f64>,
    metrics: Vec<Metric>,
    sources: u32,
    objects: u32,
    measure: f64,
}

fn grid_for(mode: Mode) -> Grid {
    match mode {
        Mode::Quick => Grid {
            alphas: vec![1.05, 1.1, 1.5],
            omegas: vec![2.0, 10.0, 50.0],
            metrics: vec![Metric::Staleness],
            sources: 10,
            objects: 10,
            measure: 300.0,
        },
        Mode::Standard => Grid {
            alphas: vec![1.01, 1.05, 1.1, 1.2, 1.5, 2.0],
            omegas: vec![1.5, 2.0, 5.0, 10.0, 20.0, 50.0],
            metrics: vec![Metric::Staleness],
            sources: 50,
            objects: 10,
            measure: 1000.0,
        },
        Mode::Full => Grid {
            alphas: vec![1.01, 1.05, 1.1, 1.2, 1.5, 2.0],
            omegas: vec![1.5, 2.0, 5.0, 10.0, 20.0, 50.0],
            metrics: Metric::all_three().to_vec(),
            sources: 1000,
            objects: 100,
            measure: 5000.0,
        },
    }
}

/// Runs the α/ω sweep in-process.
pub fn run(mode: Mode, seed: u64) -> Vec<ParamRow> {
    run_with(mode, seed, &SweepOptions::default()).expect("in-process sweeps cannot fail")
}

/// Runs the α/ω sweep through a sweep runner (see
/// [`crate::fig4::run_with`] for the `--shards` semantics).
///
/// # Errors
///
/// Only the process-sharded path can fail (worker spawn/protocol).
pub fn run_with(mode: Mode, seed: u64, opts: &SweepOptions) -> Result<Vec<ParamRow>, SweepError> {
    let g = grid_for(mode);
    let cells: Vec<(f64, f64, Metric)> = g
        .alphas
        .iter()
        .flat_map(|&a| {
            let metrics = &g.metrics;
            g.omegas
                .iter()
                .flat_map(move |&w| metrics.iter().map(move |&m| (a, w, m)))
        })
        .collect();
    let (sources, objects, measure) = (g.sources, g.objects, g.measure);
    // Bandwidth below the aggregate update rate, fluctuating: the regime
    // where threshold adaptation matters.
    let total_objects = (sources * objects) as f64;
    let specs: Vec<ScenarioSpec> = cells
        .iter()
        .map(|&(alpha, omega, metric)| ScenarioSpec {
            name: format!("params/a{alpha}/w{omega}/{}", metric.name()),
            seed,
            system: SystemKind::Coop,
            workload: WorkloadKind::Poisson {
                sources,
                objects_per_source: objects,
                rate_range: (0.02, 1.0),
                weight_range: (1.0, 10.0),
                fluctuating_weights: true,
            },
            metric,
            alpha,
            omega,
            cache_bandwidth_mean: 0.3 * total_objects,
            source_bandwidth_mean: (0.6 * objects as f64).max(2.0),
            bandwidth_change_rate: 0.05,
            warmup: measure * 0.2,
            measure,
            ..ScenarioSpec::default()
        })
        .collect();
    let outcomes = sweep(&specs, opts)?.into_outcomes();
    Ok(cells
        .iter()
        .zip(&outcomes)
        .map(|(&(alpha, omega, metric), outcome)| ParamRow {
            alpha,
            omega,
            metric: metric.name(),
            divergence: outcome.report.divergence.mean_weighted,
            feedback_rate: outcome.report.feedback_messages as f64 / measure,
        })
        .collect())
}

/// The (α, ω) with lowest divergence in a result set (ties: first).
pub fn best(rows: &[ParamRow]) -> Option<(f64, f64)> {
    rows.iter()
        .min_by(|a, b| a.divergence.total_cmp(&b.divergence))
        .map(|r| (r.alpha, r.omega))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_produces_grid() {
        let rows = run(Mode::Quick, 3);
        assert_eq!(rows.len(), 9);
        assert!(rows.iter().all(|r| r.divergence.is_finite()));
        assert!(best(&rows).is_some());
    }

    #[test]
    fn results_not_flat() {
        // Extreme settings should differ measurably from good ones —
        // otherwise the sweep isn't exercising the mechanism.
        let rows = run(Mode::Quick, 4);
        let min = rows.iter().map(|r| r.divergence).fold(f64::MAX, f64::min);
        let max = rows.iter().map(|r| r.divergence).fold(0.0, f64::max);
        assert!(max > min * 1.02, "sweep flat: {min}..{max}");
    }

    #[test]
    fn param_sweep_paper_setting_is_competitive() {
        // The paper's claim is robustness, not a sharp optimum: α=1.1, ω=10
        // must be within a whisker of the best cell, and the aggressive
        // corner (large α with small ω) must be clearly worse.
        let rows = run(Mode::Quick, 105);
        let best = rows
            .iter()
            .map(|r| r.divergence)
            .fold(f64::INFINITY, f64::min);
        let paper = rows
            .iter()
            .find(|r| r.alpha == 1.1 && r.omega == 10.0)
            .expect("grid includes the paper's setting");
        assert!(
            paper.divergence <= best * 1.15,
            "paper setting {} vs best {best}",
            paper.divergence
        );
        let worst = rows
            .iter()
            .max_by(|a, b| a.divergence.total_cmp(&b.divergence))
            .unwrap();
        assert!(
            worst.alpha >= 1.5 || worst.omega <= 2.0,
            "worst cell should be an aggressive corner, got α={} ω={}",
            worst.alpha,
            worst.omega
        );
        assert!(worst.divergence > best);
    }
}
