//! Sensor-network monitoring over a constrained satellite link — the
//! paper's §6.2.1 scenario: a fleet of ocean buoys reports wind vectors
//! every 10 minutes, but the uplink to the monitoring cache carries only
//! a handful of messages per minute, which fluctuate.
//!
//! ```sh
//! cargo run --release --example sensor_network
//! ```

use besync::config::SystemConfig;
use besync::priority::PolicyKind;
use besync::{CoopSystem, IdealSystem};
use besync_data::Metric;
use besync_workloads::buoy::{self, BuoyConfig};

fn main() {
    let fleet = BuoyConfig::paper(); // 40 buoys × 2 wind components, 7 days
    println!(
        "fleet: {} buoys × {} components, one reading / {:.0}s, {:.0} days",
        fleet.buoys,
        fleet.components,
        fleet.sample_interval,
        fleet.duration / 86_400.0
    );
    println!("metric: value deviation |V_source − V_cache| (wind speed units)");
    println!();
    println!("satellite msgs/min    ideal      our algorithm   refreshes");

    for bw_per_min in [2.0, 5.0, 10.0, 20.0, 40.0] {
        let cfg = SystemConfig {
            metric: Metric::abs_deviation(),
            policy: PolicyKind::Area,
            cache_bandwidth_mean: bw_per_min / 60.0,
            source_bandwidth_mean: 1.0,
            bandwidth_change_rate: 0.25, // shared link: capacity fluctuates
            warmup: 86_400.0,            // first day is warm-up (paper §6.2.1)
            measure: fleet.duration - 86_400.0,
            ..SystemConfig::default()
        };
        let ideal = IdealSystem::new(cfg, buoy::workload(&fleet, 7)).run();
        let ours = CoopSystem::new(cfg, buoy::workload(&fleet, 7)).run();
        println!(
            "{:>17}    {:>7.4}    {:>13.4}   {:>9}",
            bw_per_min,
            ideal.mean_divergence(),
            ours.mean_divergence(),
            ours.refreshes_delivered
        );
    }

    println!();
    println!("typical wind values are ~5, so a deviation of 0.5 means ~10%");
    println!("monitoring error — the paper's reading of Figure 5.");
}
