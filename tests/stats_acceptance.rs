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
//! Two scales:
//!
//! - quick smoke (not ignored): 8 seeds at `--quick` scale per
//!   scenario, loose tier. Cheap enough for the ordinary `cargo test`
//!   run; catches gross physics breakage.
//! - full (`#[ignore]`d): 32 seeds at paper scale, standard tier. Run
//!   in release by the CI `stats-acceptance` job and by hand before
//!   accepting any intentional numerics change:
//!
//!   ```text
//!   cargo test --release --test stats_acceptance -- --ignored
//!   ```
//!
//! Re-record after a *deliberate, statistically justified* physics
//! change with:
//!
//! ```text
//! besync-bench verify --seeds 8  --quick --record
//! besync-bench verify --seeds 32 --record
//! ```

use besync_scenarios::by_name;
use besync_sweep::SweepOptions;
use besync_verify::{check_scenario, collect, StatBaseline, Tier};

/// Same default set as `besync-bench verify`: the headline coop
/// scenario plus one per figure-regeneration scheduler.
const QUICK_SEEDS: u32 = 8;
const FULL_SEEDS: u32 = 32;

fn check(name: &str, seeds: u32, quick: bool, tier: Tier) {
    let base = by_name(name).unwrap_or_else(|| panic!("scenario `{name}` not registered"));
    let stats = collect(&base, seeds, quick, &SweepOptions::default())
        .unwrap_or_else(|e| panic!("sweep for `{name}` failed: {e}"));
    let baseline = StatBaseline::load("STATS_baseline.txt".as_ref())
        .unwrap_or_else(|e| panic!("{e} — record with `besync-bench verify --record`"));
    let entry = baseline.get(name, quick).unwrap_or_else(|| {
        panic!("no `{name}` quick={quick} entry in STATS_baseline.txt — record one")
    });
    let reports = check_scenario(&stats, entry, tier);
    assert!(!reports.is_empty(), "no metrics compared for `{name}`");
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

// Quick smoke: loose tier because 8 seeds give noisy variance
// estimates; the point is catching order-of-magnitude breakage in the
// default `cargo test` pass, not adjudicating solver swaps.

#[test]
fn quick_smoke_medium() {
    check("medium", QUICK_SEEDS, true, Tier::Loose);
}

#[test]
fn quick_smoke_ideal_medium() {
    check("ideal_medium", QUICK_SEEDS, true, Tier::Loose);
}

#[test]
fn quick_smoke_cgm1_medium() {
    check("cgm1_medium", QUICK_SEEDS, true, Tier::Loose);
}

#[test]
fn quick_smoke_cgm2_medium() {
    check("cgm2_medium", QUICK_SEEDS, true, Tier::Loose);
}

// Simulated-world fault regimes: the fault schedules derive from the
// per-variant sim seed, so every derived seed sees different loss
// decisions and outage windows — the moments cover the fault physics,
// not one fault trace. (`crashy_huge` is excluded: 131k-object runs
// are bench/CI-smoke material, not a per-`cargo test` distribution.)

#[test]
fn quick_smoke_lossy_medium() {
    check("lossy_medium", QUICK_SEEDS, true, Tier::Loose);
}

#[test]
fn quick_smoke_outage_medium() {
    check("outage_medium", QUICK_SEEDS, true, Tier::Loose);
}

// PR 10 regimes: the fault-aware retransmit scheduler (delivery-ack
// loss estimator repricing quotes) and the first lossy competitive
// split. Their moments gate the estimator physics the same way
// lossy_medium gates the plain loss lane.

#[test]
fn quick_smoke_lossy_aware_medium() {
    check("lossy_aware_medium", QUICK_SEEDS, true, Tier::Loose);
}

#[test]
fn quick_smoke_competitive_lossy() {
    check("competitive_lossy", QUICK_SEEDS, true, Tier::Loose);
}

// Full scale: the actual acceptance bar for numerics changes. Ignored
// by default — 32 paper-scale runs per scenario are release-build
// work; the CI `stats-acceptance` job runs them with `--release`.

#[test]
#[ignore = "full-scale: run with --release (CI stats-acceptance job)"]
fn full_scale_medium() {
    check("medium", FULL_SEEDS, false, Tier::Standard);
}

#[test]
#[ignore = "full-scale: run with --release (CI stats-acceptance job)"]
fn full_scale_ideal_medium() {
    check("ideal_medium", FULL_SEEDS, false, Tier::Standard);
}

#[test]
#[ignore = "full-scale: run with --release (CI stats-acceptance job)"]
fn full_scale_cgm1_medium() {
    check("cgm1_medium", FULL_SEEDS, false, Tier::Standard);
}

#[test]
#[ignore = "full-scale: run with --release (CI stats-acceptance job)"]
fn full_scale_cgm2_medium() {
    check("cgm2_medium", FULL_SEEDS, false, Tier::Standard);
}

#[test]
#[ignore = "full-scale: run with --release (CI stats-acceptance job)"]
fn full_scale_lossy_medium() {
    check("lossy_medium", FULL_SEEDS, false, Tier::Standard);
}

#[test]
#[ignore = "full-scale: run with --release (CI stats-acceptance job)"]
fn full_scale_outage_medium() {
    check("outage_medium", FULL_SEEDS, false, Tier::Standard);
}

#[test]
#[ignore = "full-scale: run with --release (CI stats-acceptance job)"]
fn full_scale_lossy_aware_medium() {
    check("lossy_aware_medium", FULL_SEEDS, false, Tier::Standard);
}

#[test]
#[ignore = "full-scale: run with --release (CI stats-acceptance job)"]
fn full_scale_competitive_lossy() {
    check("competitive_lossy", FULL_SEEDS, false, Tier::Standard);
}
