//! Quickstart: synchronize a small fleet of sources with a shared cache
//! under limited bandwidth, and compare against the theoretical ideal.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use besync::config::SystemConfig;
use besync::{CoopSystem, IdealSystem};
use besync_data::Metric;
use besync_workloads::generators::{random_walk_poisson, PoissonWorkloadOptions};

fn main() {
    // 10 sources × 20 random-walk objects with Poisson update rates.
    let workload = || {
        random_walk_poisson(
            PoissonWorkloadOptions {
                sources: 10,
                objects_per_source: 20,
                rate_range: (0.05, 1.0),
                weight_range: (1.0, 10.0),
                fluctuating_weights: true,
            },
            42,
        )
    };

    // Bandwidth covers roughly a third of the update volume — stale
    // caching territory, where refresh *selection* matters.
    let cfg = SystemConfig {
        metric: Metric::Staleness,
        cache_bandwidth_mean: 40.0,
        source_bandwidth_mean: 8.0,
        warmup: 100.0,
        measure: 500.0,
        ..SystemConfig::default()
    };

    println!("running the cooperative threshold algorithm (paper §5)...");
    let ours = CoopSystem::new(cfg, workload()).run();

    println!("running the omniscient ideal scheduler (paper §3.3)...");
    let ideal = IdealSystem::new(cfg, workload()).run();

    println!();
    println!("                       ideal    our algorithm");
    println!(
        "mean staleness       {:>7.4}   {:>7.4}",
        ideal.mean_divergence(),
        ours.mean_divergence()
    );
    println!(
        "weighted staleness   {:>7.4}   {:>7.4}",
        ideal.mean_weighted_divergence(),
        ours.mean_weighted_divergence()
    );
    println!(
        "refreshes delivered  {:>7}   {:>7}",
        ideal.refreshes_delivered, ours.refreshes_delivered
    );
    println!(
        "protocol overhead              {:>7} feedback msgs",
        ours.feedback_messages
    );
    println!(
        "peak cache queue               {:>7} msgs (bounded = no flooding)",
        ours.max_cache_queue
    );
    let ratio = if ideal.mean_divergence() > 0.0 {
        ours.mean_divergence() / ideal.mean_divergence()
    } else {
        f64::NAN
    };
    println!();
    println!("ratio to theoretically achievable divergence: {ratio:.2}");
}
