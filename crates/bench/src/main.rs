//! `besync-bench` — the registry-wide counter gate, the `--fault-sweep`
//! table and the statistical `verify` gate (usage: `--help`).
//!
//! The gate runs the whole scenario registry (`besync_scenarios::all()`)
//! through the sweep runner and holds every walked [`RunReport`] field
//! to the bits recorded in `COUNTERS_baseline.txt`: same seed, same
//! simulation, or the tree has lost determinism. The record's format,
//! parsing and comparison are `besync_verify::counters`, which
//! `cargo test` drives too (`tests/counter_gate.rs`); this binary adds
//! the flags, the file and the printing. Nothing here is timed —
//! performance numbers come only from `benchmark/`.

use std::num::NonZeroU32;
use std::process::ExitCode;
use std::time::Instant;

use besync::fault::{FaultProfile, RecoveryPolicy};
use besync::RunReport;
use besync_scenarios::{all, by_name, ScenarioSpec, SystemKind};
use besync_sweep::{sweep, value, SweepOptions};
use besync_verify::counters::{self, Entry};
use besync_verify::{check_scenario, collect, StatBaseline, Tier};

const HELP: &str = "\
besync-bench — the registry-wide counter gate over seeded end-to-end scenarios

usage: besync-bench [--compare PATH] [--record PATH] [--only NAME] [--quick]
                    [--shards N] [--spec-deadline SECS] [--list] [--fault-sweep]
       besync-bench verify ...   (statistical acceptance; see `verify --help`)

  --compare PATH   the bit gate: run the selected scenarios and demand that
                   every report field equal, bit for bit, the entry recorded
                   in PATH (COUNTERS_baseline.txt) for that scenario, seed and
                   scale. A mismatch names the wire key that moved; a missing
                   entry, a changed seed or an unreadable file fails too
  --record PATH    write this run's reports to PATH as `scenario NAME seed N
                   quick BOOL` + the wire text of the report, replacing the
                   entries of the same scenario and scale and keeping the rest
                   (quick and full scale live side by side in one file)
  --only NAME      run a single scenario by name
  --quick          CI smoke scale: shrunken scenarios
  --shards N       run the scenarios over N worker processes instead of
                   in-process threads (0, the default); with --compare this
                   vouches for the worker pipeline: codec, protocol and merge
                   order must reproduce the record
  --spec-deadline  seconds a worker may hold one spec before it is presumed
                   hung and replaced (default 600; 0 disables)
  --list           print scenario names with descriptions and exit
  --fault-sweep    print a divergence-vs-loss-rate table over the `medium`
                   regime: coop with degrade-to-stale, blind retransmit and
                   fault-aware retransmit, the CGM-2 poller, and the
                   omniscient ideal, all under the same seeded refresh-loss
                   lane (honours --quick only)

verification: `--compare` is the bit gate, right for changes that promise
not to move the simulation at all. `besync-bench verify` is the statistical
gate — it runs scenarios across N derived seeds and checks metric moments
against STATS_baseline.txt, the gate that survives intentional numerics
changes. Nothing here measures time; see benchmark/README.md for that.";

const VERIFY_HELP: &str = "\
besync-bench verify — statistical acceptance gate

usage: besync-bench verify [--baseline PATH] [--scenarios A,B,..] [--seeds N]
                           [--tier strict|standard|loose] [--record] [--quick]
                           [--shards N] [--spec-deadline SECS]

Runs each scenario across N derived seeds, folds the recorded metrics into
moments, and z-checks them against the stored baseline. Right for
intentional numerics changes (solver swaps, resampled randomness) whose
physics must not move; for changes that must not move the simulation at
all, use `besync-bench --compare COUNTERS_baseline.txt` instead.

  --baseline PATH  the moments file (default STATS_baseline.txt)
  --scenarios L    comma-separated scenario names (default: the four
                   medium scheduler scenarios + the four fault regimes
                   lossy/outage/lossy_aware/competitive_lossy)
  --seeds N        derived seeds per scenario (default 32)
  --tier T         acceptance tier — strict (z<=3, refactors), standard
                   (z<=4, numerics changes; default), loose (z<=6, small-N
                   smoke)
  --record         write/refresh the baseline entries instead of checking
                   (commit the file alongside the change)
  --quick          CI smoke scale; baselines store quick and full entries
                   separately
  --shards N       run the underlying sweeps over N worker processes
  --spec-deadline  per-spec worker deadline in seconds (0 disables)";

/// `--fault-sweep`: sweeps refresh-loss probability over the `medium`
/// regime and prints mean divergence for five schedulers under the
/// *same* seeded loss lane. The spread between the coop columns is what
/// the recovery policy buys; aware vs blind retransmit is what pricing
/// bandwidth by delivery probability buys on top; the gap to ideal is
/// what loss costs a scheduler that cannot observe it (CGM-2 loses poll
/// responses, the ideal loses refreshes it believes it delivered).
fn fault_sweep(quick: bool) {
    let base = by_name("medium").expect("medium scenario registered");
    let base = if quick { base.quick() } else { base };
    let retransmit = RecoveryPolicy::Retransmit { deadline: 3.0 };
    let cgm2 = SystemKind::parse("cgm2").expect("cgm2 kind");
    // (system, recovery, fault-aware) per column, in print order.
    let columns = [
        (SystemKind::Coop, RecoveryPolicy::DegradeStale, false),
        (SystemKind::Coop, retransmit, false),
        (SystemKind::Coop, retransmit, true),
        (cgm2, RecoveryPolicy::DegradeStale, false),
        (SystemKind::Ideal, RecoveryPolicy::DegradeStale, false),
    ];
    println!(
        "fault sweep: `{}` regime, {} objects, divergence vs refresh-loss probability",
        base.name,
        base.total_objects()
    );
    println!(
        "{:>5} {:>14} {:>14} {:>14} {:>14} {:>14} {:>8} {:>8}",
        "loss", "coop/degrade", "coop/retx", "coop/aware", "cgm2", "ideal", "lost", "retx"
    );
    for loss in [0.0, 0.05, 0.1, 0.2, 0.3, 0.4] {
        let run = |&(system, recovery, aware)| {
            let mut spec = base.clone();
            spec.system = system;
            // loss == 0 runs the fault-free path (`None`), so the first
            // row doubles as the clean yardstick for every column.
            spec.fault = (loss > 0.0).then(|| FaultProfile {
                loss_prob: loss,
                recovery,
                aware,
                ..FaultProfile::default()
            });
            spec.run()
        };
        let reports: Vec<RunReport> = columns.iter().map(run).collect();
        print!("{loss:>5.2}");
        for report in &reports {
            print!(" {:>14.6}", report.mean_divergence());
        }
        let (lost, retx) = (&reports[0].faults, &reports[2].faults);
        println!(" {:>8} {:>8}", lost.lost_refreshes, retx.retransmits);
    }
}

/// The gate: runs the selected registry scenarios through the sweep
/// runner, prints their counters, then compares and/or records them.
fn gate(mut args: impl Iterator<Item = String>) -> Result<(), String> {
    let mut compare_path: Option<String> = None;
    let mut record_path: Option<String> = None;
    let mut only: Option<String> = None;
    let mut quick = false;
    let mut want_fault_sweep = false;
    let mut opts = SweepOptions::default();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--compare" => compare_path = Some(value(&a, &mut args)?),
            "--record" => record_path = Some(value(&a, &mut args)?),
            "--only" => only = Some(value(&a, &mut args)?),
            "--quick" => quick = true,
            "--fault-sweep" => want_fault_sweep = true,
            "--shards" | "--spec-deadline" => {
                opts.apply_flag(&a, &value::<String>(&a, &mut args)?)?;
            }
            "--list" => {
                let scenarios = all();
                let width = scenarios.iter().map(|s| s.name.len()).max().unwrap_or(0);
                for s in &scenarios {
                    println!("{:<width$}  {}", s.name, s.description);
                }
                return Ok(());
            }
            "--help" | "-h" => {
                println!("{HELP}");
                return Ok(());
            }
            other => return Err(format!("unexpected argument `{other}` (see --help)")),
        }
    }
    if want_fault_sweep {
        fault_sweep(quick);
        return Ok(());
    }

    let selected: Vec<ScenarioSpec> = all()
        .into_iter()
        .filter(|s| only.as_deref().is_none_or(|o| o == s.name))
        .map(|s| if quick { s.quick() } else { s })
        .collect();
    if selected.is_empty() {
        let wanted = only.unwrap_or_default();
        return Err(format!("no scenario named `{wanted}` (see --list)"));
    }
    let outcomes = sweep(&selected, &opts)
        .map_err(|e| format!("sweep failed: {e}"))?
        .into_outcomes();

    println!(
        "{:<19} {:>11} {:>8} {:>10} {:>10} {:>10} {:>10}",
        "scenario", "system", "objects", "updates", "refreshes", "feedback", "mean div"
    );
    let mut run = Vec::with_capacity(selected.len());
    for (spec, outcome) in selected.iter().zip(outcomes) {
        let report = outcome.report;
        println!(
            "{:<19} {:>11} {:>8} {:>10} {:>10} {:>10} {:>10.6}",
            spec.name,
            spec.system.name(),
            spec.total_objects(),
            report.updates_processed,
            report.refreshes_sent,
            report.feedback_messages,
            report.mean_divergence()
        );
        run.push(Entry::new(spec, quick, report));
    }
    if let Some(path) = compare_path {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("could not read {path}: {e}"))?;
        counters::compare(&text, &run, only.is_none()).map_err(|e| {
            format!(
                "this run (quick={quick}) disagrees with {path}:\n{e}\nif the change is meant \
                 to move the simulation, re-record with --record {path}"
            )
        })?;
        let n = run.len();
        eprintln!("compare: {n} scenario(s) match {path} on every report field");
    }
    if let Some(path) = record_path {
        let old = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
            Err(e) => return Err(format!("could not read {path}: {e}")),
        };
        let n = run.len();
        let new = counters::record(&old, run).map_err(|e| format!("{path}: {e}"))?;
        std::fs::write(&path, new).map_err(|e| format!("could not write {path}: {e}"))?;
        eprintln!("recorded {n} entries in {path}");
    }
    Ok(())
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1).peekable();
    let done = match args.peek().map(String::as_str) {
        // Hidden worker mode: when the sweep supervisor re-execs this
        // binary it must become a protocol worker before anything else.
        Some(besync_sweep::WORKER_FLAG) => return besync_sweep::worker_main(),
        Some("verify") => verify(args.skip(1)),
        _ => gate(args),
    };
    match done {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Default scenario set for `verify`: the headline coop scenario plus
/// one per figure-regeneration scheduler (so the gate covers every
/// system kind the optimizations touch) plus the medium fault regimes
/// (so it also covers the loss and outage physics, the fault-aware
/// estimator, and lossy competitive splits).
const STATS_SCENARIOS: &str = "medium,ideal_medium,cgm1_medium,cgm2_medium,\
     lossy_medium,outage_medium,lossy_aware_medium,competitive_lossy";

/// The `verify` subcommand: statistical acceptance — metric moments
/// across derived seeds against the stored stats baseline.
fn verify(mut args: impl Iterator<Item = String>) -> Result<(), String> {
    let mut baseline = "STATS_baseline.txt".to_string();
    let mut scenarios = STATS_SCENARIOS.to_string();
    let mut seeds: u32 = 32;
    let mut tier = Tier::Standard;
    let mut record = false;
    let mut quick = false;
    let mut opts = SweepOptions::default();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--baseline" => baseline = value(&a, &mut args)?,
            "--scenarios" => scenarios = value(&a, &mut args)?,
            "--seeds" => seeds = value::<NonZeroU32>(&a, &mut args)?.get(),
            "--tier" => {
                let name: String = value(&a, &mut args)?;
                tier = Tier::parse(&name)
                    .ok_or_else(|| format!("--tier is strict, standard or loose, not `{name}`"))?;
            }
            "--record" => record = true,
            "--quick" => quick = true,
            "--shards" | "--spec-deadline" => {
                opts.apply_flag(&a, &value::<String>(&a, &mut args)?)?;
            }
            "--help" | "-h" => {
                println!("{VERIFY_HELP}");
                return Ok(());
            }
            other => return Err(format!("unexpected argument `{other}` (see verify --help)")),
        }
    }
    let path = std::path::Path::new(&baseline);
    let names: Vec<&str> = scenarios.split(',').filter(|s| !s.is_empty()).collect();
    if names.is_empty() {
        return Err("verify: no scenarios selected".into());
    }
    let mut collected = Vec::new();
    for name in &names {
        let base =
            by_name(name).ok_or_else(|| format!("no scenario named `{name}` (see --list)"))?;
        let start = Instant::now();
        let stats = collect(&base, seeds, quick, &opts)
            .map_err(|e| format!("verify: sweep failed for `{name}`: {e}"))?;
        let div = stats.metrics.iter().find(|(n, _)| n == "mean_divergence");
        let (mean, dev) = div.map_or((f64::NAN, f64::NAN), |(_, s)| (s.mean(), s.std_dev()));
        eprintln!(
            "verify: collected `{name}` × {seeds} seeds in {:.1}s (divergence {mean:.6} ± {dev:.6})",
            start.elapsed().as_secs_f64()
        );
        collected.push(stats);
    }
    if record {
        let mut stored = if path.exists() {
            StatBaseline::load(path)?
        } else {
            StatBaseline::default()
        };
        for stats in collected {
            stored.upsert(stats);
        }
        stored.save(path)?;
        eprintln!(
            "verify: recorded {} scenario(s) × {seeds} seeds (quick={quick}) to {baseline}",
            names.len()
        );
        return Ok(());
    }
    let stored = StatBaseline::load(path).map_err(|e| format!("{e} (record one with --record)"))?;
    let mut checks = 0usize;
    let mut failures = 0usize;
    for stats in &collected {
        let Some(entry) = stored.get(&stats.scenario, quick) else {
            eprintln!(
                "FAIL {}: no baseline entry at quick={quick} in {baseline} (record one with \
                 --record)",
                stats.scenario
            );
            failures += 1;
            continue;
        };
        for r in check_scenario(stats, entry, tier) {
            checks += 1;
            let verdict = if r.pass { "PASS" } else { "FAIL" };
            println!("{verdict} {}/{}: {}", r.scenario, r.metric, r.detail);
            failures += usize::from(!r.pass);
        }
    }
    let (tier, n) = (tier.name(), names.len());
    if failures > 0 {
        return Err(format!(
            "verify: {failures} failure(s) over {checks} check(s) at tier {tier}"
        ));
    }
    eprintln!(
        "verify: ok — {checks} check(s) passed at tier {tier} across {n} scenario(s) × {seeds} seeds"
    );
    Ok(())
}
