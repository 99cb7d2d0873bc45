//! Distribution-level acceptance gates against `STATS_baseline.txt`.
//!
//! These are the tier-2 companions to the bit-identity gate in
//! `counter_gate.rs`: instead of demanding one trajectory match
//! byte-for-byte, each test re-runs a scenario across a set of derived
//! seeds and z-checks the metric moments (mean divergence, updates,
//! refreshes) against the moments stored in the baseline. An
//! intentional numerics change (solver swap, resampled randomness) is
//! expected to move individual trajectories but *not* these
//! distributions — that is exactly the claim this file enforces.
//!
//! Two scales, both at the standard tier:
//!
//! - quick smoke (not ignored): 8 seeds at quick scale per scenario.
//!   Cheap enough for the ordinary `cargo test` run.
//! - full (`#[ignore]`d): 32 seeds at paper scale. Run in release by
//!   the CI `stats-acceptance` job and by hand before accepting any
//!   intentional numerics change:
//!
//!   ```text
//!   cargo test --release --test stats_acceptance -- --ignored
//!   ```
//!
//! The scenarios and seed counts are `besync_verify::STATS_SCENARIOS`,
//! `QUICK_SEEDS` and `FULL_SEEDS`, the lists the recorder uses.
//! Re-record both scales after a *deliberate, statistically justified*
//! physics change with:
//!
//! ```text
//! cargo run --release -p besync_experiments -- record-stats --out .
//! ```

use besync_scenarios::by_name;
use besync_sweep::SweepOptions;
use besync_verify::{
    check_scenario, collect, StatBaseline, Tier, FULL_SEEDS, QUICK_SEEDS, STATS_SCENARIOS,
};

fn check(name: &str, seeds: u32, quick: bool) {
    let tier = Tier::Standard;
    assert!(
        STATS_SCENARIOS.contains(&name),
        "`{name}` is not in STATS_SCENARIOS, so `record-stats` never records it"
    );
    let base = by_name(name).unwrap_or_else(|| panic!("scenario `{name}` not registered"));
    let stats = collect(&base, seeds, quick, &SweepOptions::default())
        .unwrap_or_else(|e| panic!("sweep for `{name}` failed: {e}"));
    let baseline = StatBaseline::load("STATS_baseline.txt".as_ref())
        .unwrap_or_else(|e| panic!("{e} — record with `experiments record-stats --out .`"));
    let entry = baseline.get(name, quick).unwrap_or_else(|| {
        panic!("no `{name}` quick={quick} entry in STATS_baseline.txt — record one")
    });
    let reports = check_scenario(&stats, entry, tier);
    assert!(!reports.is_empty(), "no metrics compared for `{name}`");
    // Visible under `--nocapture`: the statistics a numerics change cites.
    for r in &reports {
        println!("{}/{}: {}", r.scenario, r.metric, r.detail);
    }
    let failures: Vec<String> = reports
        .iter()
        .filter(|r| !r.pass)
        .map(|r| format!("{}/{}: {}", r.scenario, r.metric, r.detail))
        .collect();
    assert!(
        failures.is_empty(),
        "statistical acceptance failed for `{name}` at tier {}:\n  {}",
        tier.name(),
        failures.join("\n  ")
    );
}

/// The two checks of one scenario: the quick smoke at 8 seeds, cheap
/// enough for the default `cargo test` pass, and the full-scale check
/// at 32 — the actual acceptance bar for numerics changes, ignored by
/// default because 32 paper-scale runs are release-build work (the CI
/// `stats-acceptance` job runs them with `--release`). Both hold the
/// standard tier.
macro_rules! scales {
    ($($scenario:ident: $quick:ident, $full:ident;)*) => {$(
        #[test]
        fn $quick() {
            check(stringify!($scenario), QUICK_SEEDS, true);
        }

        #[test]
        #[ignore = "full-scale: run with --release (CI stats-acceptance job)"]
        fn $full() {
            check(stringify!($scenario), FULL_SEEDS, false);
        }
    )*};
}

scales! {
    // The headline coop scenario and one per figure-regeneration
    // scheduler.
    medium: quick_smoke_medium, full_scale_medium;
    ideal_medium: quick_smoke_ideal_medium, full_scale_ideal_medium;
    cgm1_medium: quick_smoke_cgm1_medium, full_scale_cgm1_medium;
    cgm2_medium: quick_smoke_cgm2_medium, full_scale_cgm2_medium;
    // Simulated-world fault regimes: the fault schedules derive from the
    // per-variant sim seed, so every derived seed sees different loss
    // decisions and outage windows — the moments cover the fault
    // physics, not one fault trace. (`crashy_huge` is excluded:
    // 131k-object runs are bench/CI-smoke material, not a per-`cargo
    // test` distribution.)
    lossy_medium: quick_smoke_lossy_medium, full_scale_lossy_medium;
    outage_medium: quick_smoke_outage_medium, full_scale_outage_medium;
    // The fault-aware retransmit scheduler (delivery-ack loss estimator
    // repricing quotes) and the first lossy competitive split. Their
    // moments gate the estimator physics the same way lossy_medium
    // gates the plain loss lane.
    lossy_aware_medium: quick_smoke_lossy_aware_medium, full_scale_lossy_aware_medium;
    competitive_lossy: quick_smoke_competitive_lossy, full_scale_competitive_lossy;
}
