//! The recorders of the two checked-in records the tests compare
//! against: `COUNTERS_baseline.txt` (every walked report field of every
//! registry scenario, bit for bit) and `STATS_baseline.txt` (metric
//! moments across derived seeds). A change that is meant to move the
//! simulation re-records with `experiments record-counters` and
//! `experiments record-stats`; `cargo test` does the comparing.

use std::fs;
use std::io::ErrorKind;
use std::path::{Path, PathBuf};

use besync_scenarios::{all, by_name, ScenarioSpec};
use besync_sweep::{sweep, SweepOptions};
use besync_verify::counters::{self, Entry};
use besync_verify::{collect, StatBaseline, FULL_SEEDS, QUICK_SEEDS, STATS_SCENARIOS};

/// Runs the whole registry at quick scale and as registered, and merges
/// both scales into `dir/COUNTERS_baseline.txt` (see
/// [`counters::record`]). Returns the path and the number of entries.
///
/// # Errors
///
/// A sweep that fails, or a record that cannot be read, parsed or
/// written, naming the path.
pub fn record_counters(dir: &Path, opts: &SweepOptions) -> Result<(PathBuf, usize), String> {
    let full = all();
    let quick: Vec<ScenarioSpec> = full.iter().cloned().map(ScenarioSpec::quick).collect();
    let specs = [&quick[..], &full[..]].concat();
    let outcomes = sweep(&specs, opts)
        .map_err(|e| format!("sweep failed: {e}"))?
        .into_outcomes();
    let run: Vec<Entry> = specs
        .iter()
        .zip(outcomes)
        .enumerate()
        .map(|(i, (spec, outcome))| Entry::new(spec, i < quick.len(), outcome.report))
        .collect();
    let n = run.len();
    let path = dir.join("COUNTERS_baseline.txt");
    let old = match fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) if e.kind() == ErrorKind::NotFound => String::new(),
        Err(e) => return Err(format!("could not read {}: {e}", path.display())),
    };
    let new = counters::record(&old, run).map_err(|e| format!("{}: {e}", path.display()))?;
    fs::write(&path, new).map_err(|e| format!("could not write {}: {e}", path.display()))?;
    Ok((path, n))
}

/// Collects [`STATS_SCENARIOS`] at [`QUICK_SEEDS`] quick-scale and
/// [`FULL_SEEDS`] full-scale derived seeds, and merges the moments into
/// `dir/STATS_baseline.txt`. Returns the path and the number of entries.
///
/// # Errors
///
/// A sweep that fails, or a baseline that cannot be read, parsed or
/// written, naming the path.
pub fn record_stats(dir: &Path, opts: &SweepOptions) -> Result<(PathBuf, usize), String> {
    let path = dir.join("STATS_baseline.txt");
    let mut stored = if path.exists() {
        StatBaseline::load(&path)?
    } else {
        StatBaseline::default()
    };
    let mut n = 0;
    for name in STATS_SCENARIOS {
        let base = by_name(name).expect("the stats scenarios are registered");
        for (seeds, quick) in [(QUICK_SEEDS, true), (FULL_SEEDS, false)] {
            let stats = collect(&base, seeds, quick, opts)
                .map_err(|e| format!("sweep failed for `{name}`: {e}"))?;
            stored.upsert(stats);
            n += 1;
        }
    }
    stored.save(&path)?;
    Ok((path, n))
}
