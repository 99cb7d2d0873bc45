//! §7 — cooperation in competitive environments (X-COMP).
//!
//! The cache weights one half of each source's objects 10×; the sources
//! weight the *other* half 10×. Sweeping Ψ (the fraction of cache
//! bandwidth dedicated to source priorities) under the three sharing
//! options shows the §7 trade-off: the source objective improves with Ψ
//! at the cost of the cache objective, and option (3) ties a source's say
//! to its usefulness to the cache.

use besync::cache::partition::{BandwidthPartition, SharePolicy};
use besync::competitive::{conflicted_halves, CompetitiveConfig, CompetitiveSystem};
use besync::config::SystemConfig;
use besync_data::{Metric, WeightProfile};
use besync_sweep::{default_threads, parallel_map};
use besync_workloads::generators::{random_walk_poisson, PoissonWorkloadOptions};
use besync_workloads::WorkloadSpec;

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

fn conflicted(sources: u32, n: u32, seed: u64) -> (WorkloadSpec, Vec<WeightProfile>) {
    let mut spec = random_walk_poisson(
        PoissonWorkloadOptions {
            sources,
            objects_per_source: n,
            rate_range: (0.05, 0.8),
            weight_range: (1.0, 1.0),
            fluctuating_weights: false,
        },
        seed,
    );
    let source_weights = conflicted_halves(&mut spec);
    (spec, source_weights)
}

/// Runs the Ψ sweep under all three sharing options.
pub fn run(mode: Mode, seed: u64) -> Vec<CompetitiveRow> {
    let (sources, n, measure) = match mode {
        Mode::Quick => (4u32, 10u32, 150.0),
        Mode::Standard => (20, 10, 600.0),
        Mode::Full => (100, 10, 2000.0),
    };
    let psis = [0.0, 0.2, 0.4, 0.6];
    let options = [
        (SharePolicy::EqualShare, "equal_share"),
        (SharePolicy::ProportionalToObjects, "per_object"),
        (SharePolicy::ProportionalToValue, "piggyback"),
    ];
    let mut jobs = Vec::new();
    for &psi in &psis {
        for &(policy, name) in &options {
            jobs.push((psi, policy, name));
        }
    }
    parallel_map(jobs, default_threads(), move |(psi, policy, name)| {
        let (spec, source_weights) = conflicted(sources, n, seed);
        let total_objects = (sources * n) as f64;
        let base = SystemConfig {
            metric: Metric::Staleness,
            cache_bandwidth_mean: 0.25 * total_objects,
            source_bandwidth_mean: (0.5 * n as f64).max(2.0),
            warmup: measure * 0.2,
            measure,
            ..SystemConfig::default()
        };
        let report = CompetitiveSystem::new(
            CompetitiveConfig {
                base,
                source_weights,
                partition: BandwidthPartition::new(psi, policy),
            },
            spec,
        )
        .run();
        CompetitiveRow {
            psi,
            option: name,
            cache_objective: report.cache_objective,
            source_objective: report.source_objective,
            source_refreshes: report.source_refreshes,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn psi_trades_objectives() {
        let rows = run(Mode::Quick, 41);
        let at = |psi: f64, option: &str| {
            rows.iter()
                .find(|r| r.psi == psi && r.option == option)
                .unwrap()
                .clone()
        };
        for option in ["equal_share", "per_object"] {
            let none = at(0.0, option);
            let lots = at(0.6, option);
            assert!(
                lots.source_objective < none.source_objective,
                "{option}: source objective should improve with psi ({} -> {})",
                none.source_objective,
                lots.source_objective
            );
            assert!(lots.source_refreshes > none.source_refreshes);
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
