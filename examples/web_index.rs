//! Web-index freshness — the paper's introduction scenario: a search
//! index caches (derives from) pages at many sites, cannot possibly
//! re-fetch everything, and weights pages by importance (think PageRank).
//! Compares cooperative synchronization (sites push hints) against the
//! classic cache-driven crawler (CGM polling).
//!
//! ```sh
//! cargo run --release --example web_index
//! ```

use besync::config::SystemConfig;
use besync::priority::{PolicyKind, RateEstimator};
use besync::CoopSystem;
use besync_baselines::{CgmSystem, CgmVariant};
use besync_data::{Metric, WeightProfile};
use besync_workloads::generators::{random_walk_poisson, PoissonWorkloadOptions};
use besync_workloads::WorkloadSpec;

/// 50 sites × 40 pages; page importance follows a Zipf-like tail within
/// each site (a few hot pages, a long cold tail), change rates vary.
fn crawl_workload(seed: u64) -> WorkloadSpec {
    let mut spec = random_walk_poisson(
        PoissonWorkloadOptions {
            sources: 50,
            objects_per_source: 40,
            rate_range: (0.002, 0.5),
            weight_range: (1.0, 1.0),
            fluctuating_weights: false,
        },
        seed,
    );
    let n = spec.layout.objects_per_source();
    for obj in spec.layout.all_objects() {
        let rank = (obj.0 % n) + 1; // 1 = the site's top page
        let importance = 10.0 / (rank as f64).sqrt();
        spec.weights[obj.index()] = WeightProfile::constant(importance);
    }
    spec
}

fn main() {
    let total_pages = 50 * 40;
    println!("indexing {total_pages} pages across 50 sites; staleness metric,");
    println!("importance-weighted (Zipf-ish within each site)");
    println!();
    println!("crawl budget      cooperative      CGM1 (polling)   coop advantage");

    for budget_fraction in [0.05, 0.15, 0.3] {
        let bandwidth = budget_fraction * total_pages as f64;
        let cfg = SystemConfig {
            metric: Metric::Staleness,
            policy: PolicyKind::PoissonClosedForm,
            estimator: RateEstimator::LongRun,
            cache_bandwidth_mean: bandwidth,
            source_bandwidth_mean: 1e9, // sites are not uplink-bound
            warmup: 100.0,
            measure: 600.0,
            ..SystemConfig::default()
        };
        // The crawler runs under the same conditions; it ignores the
        // sources' policy and bandwidth.
        let ours = CoopSystem::new(cfg.clone(), crawl_workload(9)).run();
        let cgm = CgmSystem::new(CgmVariant::Cgm1, cfg, crawl_workload(9)).run();

        let coop_d = ours.mean_weighted_divergence();
        let cgm_d = cgm.mean_weighted_divergence();
        let advantage = if coop_d > 0.0 {
            format!("{:.1}", cgm_d / coop_d)
        } else {
            "∞".to_string()
        };
        println!(
            "{:>10.0}%      {:>11.4}      {:>14.4}   {:>8}x",
            budget_fraction * 100.0,
            coop_d,
            cgm_d,
            advantage,
        );
    }

    println!();
    println!("cooperation wins because sites know *when* pages changed; the");
    println!("crawler can only guess from past polls — and pays a round trip");
    println!("per fetch (paper §6.3).");
}
