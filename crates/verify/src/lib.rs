//! Statistical acceptance: distribution-level verification across seeds.
//!
//! The counter record ([`counters`], `COUNTERS_baseline.txt`) pins *bit
//! identity*: the strongest possible check, but one that any numerics
//! change trips — even a
//! change that provably preserves the physics, like replacing a
//! bisection with a Newton solve or resampling exponential gaps in
//! batches. The paper's results are *distributional* claims
//! (time-averaged divergence under stochastic workloads), so the right
//! acceptance bar for such changes is distribution-level equivalence:
//! run a scenario across N derived seeds, summarize each recorded metric
//! with a Welford accumulator ([`RunningStats`]), and compare the
//! moments against a stored [`StatBaseline`] with z-style checks under a
//! configurable [`Tier`].
//!
//! The pieces:
//!
//! * [`seed_variants`] derives N deterministic seed-perturbed copies of
//!   a scenario — the same N specs forever, so baselines stay
//!   comparable and CI runs are reproducible.
//! * [`collect`] runs them through [`besync_sweep::sweep`] (so a
//!   multi-core box or a sharded CI job parallelizes for free) and
//!   folds per-run metrics into a [`ScenarioStats`].
//! * [`check_scenario`] compares two `ScenarioStats` — a fresh
//!   collection vs the checked-in baseline — producing one
//!   [`CheckReport`] per metric: an unpaired z-test on means plus a
//!   log-ratio test on variances.
//! * [`baseline`] gives the stats a canonical text form
//!   (`STATS_baseline.txt` at the repo root) using the codec's
//!   round-trip `f64` spelling.
//!
//! The mean test is deliberately *unpaired* even though both sides use
//! the same derived seeds: parameter draws (rates, weights) are shared
//! per seed, so the across-seed variance over-states the variance of
//! the paired difference and the test errs conservative — a real
//! physics change still has to move the mean across the whole seed
//! population to pass unnoticed.

pub mod baseline;
pub mod counters;

use besync::RunReport;
use besync_scenarios::ScenarioSpec;
use besync_sim::rng::splitmix64;
use besync_sim::stats::RunningStats;
use besync_sweep::{sweep, SweepError, SweepOptions};

pub use baseline::{ScenarioStats, StatBaseline};

/// How tight the acceptance gate is.
///
/// Checks are deterministic (fixed seed set), so these are not repeated
/// hypothesis tests drifting toward a false positive over many CI runs:
/// a given tree either passes a tier forever or fails it forever.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// z ≤ 3 — for comparing a tree against a baseline it should match
    /// almost exactly (e.g. a pure refactor).
    Strict,
    /// z ≤ 4 — the default gate for intentional numerics changes.
    Standard,
    /// z ≤ 6 — headroom for small-N quick-mode smoke checks.
    Loose,
}

impl Tier {
    /// Stable CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Strict => "strict",
            Tier::Standard => "standard",
            Tier::Loose => "loose",
        }
    }

    /// Inverse of [`Tier::name`].
    pub fn parse(s: &str) -> Option<Tier> {
        Some(match s {
            "strict" => Tier::Strict,
            "standard" => Tier::Standard,
            "loose" => Tier::Loose,
            _ => return None,
        })
    }

    /// Threshold for the mean z-statistic.
    pub fn z_mean(self) -> f64 {
        match self {
            Tier::Strict => 3.0,
            Tier::Standard => 4.0,
            Tier::Loose => 6.0,
        }
    }

    /// Threshold for the log-variance-ratio z-statistic.
    pub fn z_var(self) -> f64 {
        // Variance estimates are much noisier than means at these N;
        // one extra unit of slack keeps the variance check meaningful
        // (it still catches a doubled spread at N=32) without making it
        // the binding constraint on every comparison.
        self.z_mean() + 1.0
    }
}

/// The per-run metrics the harness records, in recording order.
///
/// `mean_divergence` is the paper's objective; the two counters pin the
/// event-population shape (an optimization that silently changed how
/// many updates fire or refreshes send would shift them far beyond any
/// z gate long before the divergence moved).
pub const METRICS: [&str; 3] = ["mean_divergence", "updates_processed", "refreshes_sent"];

/// Extracts the recorded metrics from one run report.
pub fn metric_samples(report: &RunReport) -> [(&'static str, f64); 3] {
    [
        ("mean_divergence", report.mean_divergence()),
        ("updates_processed", report.updates_processed as f64),
        ("refreshes_sent", report.refreshes_sent as f64),
    ]
}

/// Derives the `seeds` deterministic variants of a scenario the harness
/// runs: same spec, seed pair mixed per index (workload and sim streams
/// salted differently so they never collide), name suffixed `#s<k>`.
///
/// The derivation is part of the baseline contract — changing it
/// invalidates every stored [`StatBaseline`].
pub fn seed_variants(base: &ScenarioSpec, seeds: u32) -> Vec<ScenarioSpec> {
    (0..seeds as u64)
        .map(|k| {
            let mut s = base.clone();
            s.name = format!("{}#s{k}", base.name);
            s.seed = splitmix64(base.seed ^ splitmix64(k));
            s.sim_seed = splitmix64(base.sim_seed ^ splitmix64(k ^ 0x5EED_0F51_D00D_5A17));
            s
        })
        .collect()
}

/// Runs `seeds` derived variants of `base` (optionally at `quick`
/// scale) through the sweep machinery and folds the per-run metrics
/// into Welford summaries.
pub fn collect(
    base: &ScenarioSpec,
    seeds: u32,
    quick: bool,
    opts: &SweepOptions,
) -> Result<ScenarioStats, SweepError> {
    let scaled = if quick {
        base.clone().quick()
    } else {
        base.clone()
    };
    let variants = seed_variants(&scaled, seeds);
    let run = sweep(&variants, opts)?;
    let mut metrics: Vec<(String, RunningStats)> = METRICS
        .iter()
        .map(|m| (m.to_string(), RunningStats::new()))
        .collect();
    for outcome in &run.outcomes {
        for (name, value) in metric_samples(&outcome.report) {
            let slot = metrics
                .iter_mut()
                .find(|(n, _)| n == name)
                .expect("metric_samples only yields METRICS entries");
            slot.1.push(value);
        }
    }
    Ok(ScenarioStats {
        scenario: base.name.clone(),
        quick,
        metrics,
    })
}

/// One metric's verdict from [`check_scenario`].
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// Scenario the metric belongs to.
    pub scenario: String,
    /// Metric name (one of [`METRICS`]).
    pub metric: String,
    /// The mean z-statistic.
    pub z_mean: f64,
    /// The log-variance-ratio z-statistic, when both sides have enough
    /// samples and positive variance to compare spreads.
    pub z_var: Option<f64>,
    /// Whether both statistics clear the tier.
    pub pass: bool,
    /// Human-readable one-liner (means, variances, the statistics).
    pub detail: String,
}

/// Compares one metric's summaries. `cur` is the fresh collection,
/// `base` the stored baseline.
pub fn check_metric(
    scenario: &str,
    metric: &str,
    cur: &RunningStats,
    base: &RunningStats,
    tier: Tier,
) -> CheckReport {
    let (n1, n2) = (cur.count() as f64, base.count() as f64);
    // Unpaired z on means. The floor keeps z finite when both sides are
    // (near-)deterministic: agreement to ~9 significant digits passes
    // regardless of how tiny the variance estimate is.
    let se = (cur.variance() / n1.max(1.0) + base.variance() / n2.max(1.0)).sqrt();
    let scale = cur.mean().abs().max(base.mean().abs()).max(1e-300);
    let z_mean = (cur.mean() - base.mean()).abs() / se.max(1e-9 * scale);

    // Log-ratio z on variances: Var[ln s²] ≈ 2/(n−1) per side.
    let z_var = if n1 >= 8.0 && n2 >= 8.0 {
        match (cur.variance(), base.variance()) {
            (0.0, 0.0) => None,
            (a, b) if a > 0.0 && b > 0.0 => {
                Some((a / b).ln().abs() / (2.0 / (n1 - 1.0) + 2.0 / (n2 - 1.0)).sqrt())
            }
            // One side degenerate, the other not: spreads disagree
            // qualitatively; surface it as an automatic failure.
            _ => Some(f64::INFINITY),
        }
    } else {
        None
    };

    let pass = z_mean <= tier.z_mean() && z_var.is_none_or(|z| z <= tier.z_var());
    let detail = format!(
        "mean {:.6e} vs {:.6e} (z={:.2}), var {:.3e} vs {:.3e}{} [n {} vs {}, tier {}]",
        cur.mean(),
        base.mean(),
        z_mean,
        cur.variance(),
        base.variance(),
        match z_var {
            Some(z) => format!(" (z={z:.2})"),
            None => String::new(),
        },
        cur.count(),
        base.count(),
        tier.name(),
    );
    CheckReport {
        scenario: scenario.to_string(),
        metric: metric.to_string(),
        z_mean,
        z_var,
        pass,
        detail,
    }
}

/// Checks every baseline metric of one scenario against a fresh
/// collection. A metric present in the baseline but missing from the
/// collection (or vice versa) fails loudly — shrinking coverage is not
/// a pass.
pub fn check_scenario(cur: &ScenarioStats, base: &ScenarioStats, tier: Tier) -> Vec<CheckReport> {
    let mut out = Vec::new();
    for (name, b) in &base.metrics {
        match cur.metrics.iter().find(|(n, _)| n == name) {
            Some((_, c)) => out.push(check_metric(&cur.scenario, name, c, b, tier)),
            None => out.push(CheckReport {
                scenario: cur.scenario.clone(),
                metric: name.clone(),
                z_mean: f64::INFINITY,
                z_var: None,
                pass: false,
                detail: format!("metric `{name}` in baseline but not collected"),
            }),
        }
    }
    for (name, _) in &cur.metrics {
        if !base.metrics.iter().any(|(n, _)| n == name) {
            out.push(CheckReport {
                scenario: cur.scenario.clone(),
                metric: name.clone(),
                z_mean: f64::INFINITY,
                z_var: None,
                pass: false,
                detail: format!("metric `{name}` collected but absent from baseline"),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use besync_scenarios::by_name;

    fn push_all(stats: &mut RunningStats, xs: &[f64]) {
        for &x in xs {
            stats.push(x);
        }
    }

    #[test]
    fn tier_names_round_trip() {
        for t in [Tier::Strict, Tier::Standard, Tier::Loose] {
            assert_eq!(Tier::parse(t.name()), Some(t));
        }
        assert_eq!(Tier::parse("bogus"), None);
        assert!(Tier::Strict.z_mean() < Tier::Standard.z_mean());
        assert!(Tier::Standard.z_mean() < Tier::Loose.z_mean());
    }

    #[test]
    fn seed_variants_are_deterministic_and_distinct() {
        let base = by_name("small").unwrap();
        let a = seed_variants(&base, 8);
        let b = seed_variants(&base, 8);
        assert_eq!(a.len(), 8);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.seed, y.seed);
            assert_eq!(x.sim_seed, y.sim_seed);
            assert_eq!(x.name, y.name);
        }
        for i in 0..a.len() {
            assert_ne!(a[i].seed, a[i].sim_seed, "streams must not collide");
            for j in i + 1..a.len() {
                assert_ne!(a[i].seed, a[j].seed, "duplicate derived seed");
            }
        }
        // The first 8 of a longer derivation are the same specs: growing
        // N refines a baseline rather than replacing it.
        let longer = seed_variants(&base, 16);
        for (x, y) in a.iter().zip(&longer) {
            assert_eq!(x.seed, y.seed);
        }
    }

    #[test]
    fn identical_stats_pass_strict() {
        let mut s = RunningStats::new();
        push_all(&mut s, &[1.0, 1.1, 0.9, 1.05, 0.95, 1.02, 0.98, 1.01]);
        let r = check_metric("x", "m", &s, &s.clone(), Tier::Strict);
        assert!(r.pass, "{}", r.detail);
        assert_eq!(r.z_mean, 0.0);
        assert_eq!(r.z_var, Some(0.0));
    }

    #[test]
    fn shifted_mean_fails_every_tier() {
        let mut a = RunningStats::new();
        let mut b = RunningStats::new();
        for i in 0..32 {
            let x = (i % 7) as f64 * 0.01;
            a.push(1.0 + x);
            b.push(2.0 + x);
        }
        for tier in [Tier::Strict, Tier::Standard, Tier::Loose] {
            let r = check_metric("x", "m", &a, &b, tier);
            assert!(!r.pass, "shifted mean passed {}: {}", tier.name(), r.detail);
        }
    }

    #[test]
    fn inflated_variance_fails() {
        let mut a = RunningStats::new();
        let mut b = RunningStats::new();
        for i in 0..32 {
            let x = (i as f64 / 31.0) - 0.5;
            a.push(1.0 + 0.01 * x);
            b.push(1.0 + x); // 100× the spread, same mean
        }
        let r = check_metric("x", "m", &a, &b, Tier::Standard);
        assert!(!r.pass, "inflated variance passed: {}", r.detail);
        assert!(r.z_var.unwrap() > Tier::Standard.z_var());
    }

    #[test]
    fn degenerate_vs_spread_variance_fails_loudly() {
        let mut a = RunningStats::new();
        let mut b = RunningStats::new();
        for i in 0..16 {
            a.push(5.0);
            b.push(5.0 + (i as f64) * 0.1);
        }
        let r = check_metric("x", "m", &a, &b, Tier::Loose);
        assert_eq!(r.z_var, Some(f64::INFINITY));
        assert!(!r.pass);
    }

    #[test]
    fn near_identical_deterministic_means_pass_via_floor() {
        // Zero variance on both sides, means agreeing to 1e-12
        // relative: the floor keeps z finite and small.
        let mut a = RunningStats::new();
        let mut b = RunningStats::new();
        for _ in 0..8 {
            a.push(1.0);
            b.push(1.0 + 1e-12);
        }
        let r = check_metric("x", "m", &a, &b, Tier::Strict);
        assert!(r.pass, "{}", r.detail);
    }

    #[test]
    fn missing_metric_fails_in_both_directions() {
        let some = ScenarioStats {
            scenario: "s".into(),
            quick: false,
            metrics: vec![("m".into(), RunningStats::new())],
        };
        let none = ScenarioStats {
            scenario: "s".into(),
            quick: false,
            metrics: Vec::new(),
        };
        assert!(check_scenario(&none, &some, Tier::Loose)
            .iter()
            .any(|r| !r.pass));
        assert!(check_scenario(&some, &none, Tier::Loose)
            .iter()
            .any(|r| !r.pass));
    }

    #[test]
    fn collect_aggregates_one_sample_per_seed() {
        let base = by_name("small").unwrap();
        let stats = collect(&base, 5, true, &SweepOptions::default()).unwrap();
        assert_eq!(stats.scenario, "small");
        assert!(stats.quick);
        assert_eq!(stats.metrics.len(), METRICS.len());
        for (name, s) in &stats.metrics {
            assert_eq!(s.count(), 5, "metric {name}");
        }
        // Deterministic: a second collection is bit-identical.
        let again = collect(&base, 5, true, &SweepOptions::default()).unwrap();
        for ((_, a), (_, b)) in stats.metrics.iter().zip(&again.metrics) {
            assert_eq!(a.mean().to_bits(), b.mean().to_bits());
            assert_eq!(a.variance().to_bits(), b.variance().to_bits());
        }
        // And a self-check passes the strictest tier.
        for r in check_scenario(&again, &stats, Tier::Strict) {
            assert!(r.pass, "{}", r.detail);
        }
    }
}
