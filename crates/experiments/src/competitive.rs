//! §7 — cooperation in competitive environments (X-COMP).
//!
//! The cache weights one half of each source's objects 10×; the sources
//! weight the *other* half 10×. Sweeping Ψ (the fraction of cache
//! bandwidth dedicated to source priorities) under the three sharing
//! options shows the §7 trade-off: the source objective improves with Ψ
//! at the cost of the cache objective, and option (3) ties a source's say
//! to its usefulness to the cache.

use besync::cache::partition::SharePolicy;
use besync_data::Metric;
use besync_scenarios::ScenarioSpec;
use besync_sweep::{sweep, SweepError, SweepOptions};

use crate::output::{fnum, Row};
use crate::Mode;

/// One (Ψ, option) cell.
#[derive(Debug, Clone)]
pub struct CompetitiveRow {
    /// Fraction of bandwidth dedicated to source priorities.
    pub psi: f64,
    /// Sharing option.
    pub option: &'static str,
    /// Weighted mean divergence under the cache's objective.
    pub cache_objective: f64,
    /// Weighted mean divergence under the sources' objective.
    pub source_objective: f64,
    /// Refreshes from source allocations / piggybacks.
    pub source_refreshes: u64,
}

impl Row for CompetitiveRow {
    fn headers() -> Vec<&'static str> {
        vec![
            "psi",
            "option",
            "cache_objective",
            "source_objective",
            "source_refreshes",
        ]
    }
    fn fields(&self) -> Vec<String> {
        vec![
            format!("{:.2}", self.psi),
            self.option.to_string(),
            fnum(self.cache_objective),
            fnum(self.source_objective),
            self.source_refreshes.to_string(),
        ]
    }
}

/// The three sharing options, in row order within each Ψ.
const OPTIONS: [(SharePolicy, &str); 3] = [
    (SharePolicy::EqualShare, "equal_share"),
    (SharePolicy::ProportionalToObjects, "per_object"),
    (SharePolicy::ProportionalToValue, "piggyback"),
];

/// Runs the Ψ sweep under all three sharing options, in-process.
pub fn run(mode: Mode, seed: u64) -> Vec<CompetitiveRow> {
    run_with(mode, seed, &SweepOptions::default()).expect("in-process sweeps cannot fail")
}

/// Runs the Ψ sweep through a sweep runner (see [`crate::fig4::run_with`]
/// for the `--shards` semantics).
///
/// # Errors
///
/// Only the process-sharded path can fail (worker spawn/protocol).
pub fn run_with(
    mode: Mode,
    seed: u64,
    opts: &SweepOptions,
) -> Result<Vec<CompetitiveRow>, SweepError> {
    let (sources, n, measure) = match mode {
        Mode::Quick => (4u32, 10u32, 150.0),
        Mode::Standard => (20, 10, 600.0),
        Mode::Full => (100, 10, 2000.0),
    };
    let mut cells = Vec::new();
    let mut specs = Vec::new();
    for psi in [0.0, 0.2, 0.4, 0.6] {
        for (share, option) in OPTIONS {
            cells.push((psi, option));
            specs.push(
                ScenarioSpec::builder(format!("competitive/psi{psi}/{option}"))
                    .seed(seed)
                    .objects(sources, n)
                    .rate_range(0.05, 0.8)
                    .weight_range(1.0, 1.0)
                    .fluctuating_weights(false)
                    .metric(Metric::Staleness)
                    .bandwidth(0.25 * f64::from(sources * n), (0.5 * f64::from(n)).max(2.0))
                    .window(measure * 0.2, measure)
                    .competitive(psi, share)
                    .finish(),
            );
        }
    }
    let outcomes = sweep(&specs, opts)?.into_outcomes();
    let rows = cells
        .into_iter()
        .zip(outcomes)
        .map(|((psi, option), outcome)| {
            let report = outcome.report;
            let side = report
                .competitive
                .expect("a §7 run reports its source side");
            CompetitiveRow {
                psi,
                option,
                cache_objective: report.divergence.mean_weighted,
                source_objective: side.source_objective,
                source_refreshes: side.source_refreshes,
            }
        });
    Ok(rows.collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn psi_trades_objectives() {
        // Each Ψ step buys the sources more refreshes and a lower (better)
        // objective under the explicit-allocation options.
        let rows = run(Mode::Quick, 41);
        for option in ["equal_share", "per_object"] {
            let steps: Vec<&CompetitiveRow> = rows.iter().filter(|r| r.option == option).collect();
            assert_eq!(steps.len(), 4, "{option}");
            for pair in steps.windows(2) {
                let (lo, hi) = (pair[0], pair[1]);
                assert!(
                    hi.source_objective < lo.source_objective,
                    "{option}: source objective should fall from psi {} to {} ({} -> {})",
                    lo.psi,
                    hi.psi,
                    lo.source_objective,
                    hi.source_objective
                );
                assert!(
                    hi.source_refreshes > lo.source_refreshes,
                    "{option}: source refreshes should rise from psi {} to {} ({} -> {})",
                    lo.psi,
                    hi.psi,
                    lo.source_refreshes,
                    hi.source_refreshes
                );
            }
        }
    }

    #[test]
    fn piggyback_grants_say_with_psi() {
        let rows = run(Mode::Quick, 42);
        let zero = rows
            .iter()
            .find(|r| r.psi == 0.0 && r.option == "piggyback")
            .unwrap();
        let high = rows
            .iter()
            .find(|r| r.psi == 0.6 && r.option == "piggyback")
            .unwrap();
        assert_eq!(zero.source_refreshes, 0);
        assert!(high.source_refreshes > 0);
    }
}
