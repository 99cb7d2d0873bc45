//! The counter record: every pinned trajectory, as text.
//!
//! `COUNTERS_baseline.txt` holds, per registry scenario and per scale,
//! one `scenario <name> seed <seed> quick <bool>` line followed by the
//! wire codec's own text of the run's report (`codec::encode_report`),
//! so a report field is declared once, in `RunReport::walk`, and is
//! pinned from then on. [`record`] writes that text, [`compare`] holds a
//! run to it on every walked field, bit for bit, and names the scenario
//! and the wire key of whatever moved. Both work on text in memory:
//! `experiments record-counters` brings the file to [`record`], and the
//! tier-1 test `tests/counter_gate.rs` brings it to [`compare`].

use besync::RunReport;
use besync_scenarios::{codec, ScenarioSpec};

/// One recorded run: the scenario's name, seed and scale, and every
/// walked field of its report.
pub struct Entry {
    pub name: String,
    pub seed: u64,
    pub quick: bool,
    pub report: RunReport,
}

impl Entry {
    /// The entry of `spec`'s run, `spec` being the scenario as run: at
    /// quick scale when `quick`, as registered otherwise.
    pub fn new(spec: &ScenarioSpec, quick: bool, report: RunReport) -> Self {
        Entry {
            name: spec.name.clone(),
            seed: spec.seed,
            quick,
            report,
        }
    }
}

/// Whether two entries are of the same scenario at the same scale.
fn same(a: &Entry, b: &Entry) -> bool {
    (&a.name, a.quick) == (&b.name, b.quick)
}

/// Parses a record: per entry a `scenario <name> seed <seed> quick
/// <bool>` line, then the report's wire text up to the next such line.
pub fn parse(text: &str) -> Result<Vec<Entry>, String> {
    let mut entries = Vec::new();
    let mut rest = text.trim_start();
    while !rest.is_empty() {
        let (header, body) = rest.split_once('\n').unwrap_or((rest, ""));
        let end = body.find("\nscenario ").map_or(body.len(), |i| i + 1);
        let bad = || format!("expected `scenario NAME seed N quick BOOL`, found `{header}`");
        let words: Vec<&str> = header.trim_end().rsplitn(5, ' ').collect();
        let [quick, "quick", seed, "seed", name] = words[..] else {
            return Err(bad());
        };
        let name = name.strip_prefix("scenario ").ok_or_else(bad)?;
        let report = codec::decode_report(&body[..end])
            .map_err(|e| format!("entry `{name}` (quick={quick}): {e}"))?;
        entries.push(Entry {
            name: name.to_string(),
            seed: seed.parse().map_err(|_| bad())?,
            quick: quick.parse().map_err(|_| bad())?,
            report,
        });
        rest = body[end..].trim_start();
    }
    Ok(entries)
}

/// The record `text` with this run's entries replaced (or appended).
/// Entries at a scale the run does not cover are left as they were;
/// entries at a scale it covers whose scenario it lacks are dropped,
/// the mirror of [`compare`]'s rule for a run over the whole registry.
pub fn record(text: &str, run: Vec<Entry>) -> Result<String, String> {
    let mut entries = parse(text)?;
    entries.retain(|old| {
        let covered = run.iter().any(|now| now.quick == old.quick);
        !covered || run.iter().any(|now| same(old, now))
    });
    for new in run {
        match entries.iter_mut().find(|old| same(old, &new)) {
            Some(old) => *old = new,
            None => entries.push(new),
        }
    }
    let blocks = entries.iter().map(|e| {
        let report = codec::encode_report(&e.report);
        format!(
            "scenario {} seed {} quick {}\n{report}",
            e.name, e.seed, e.quick
        )
    });
    Ok(blocks.collect::<Vec<_>>().join("\n"))
}

/// The wire text of one report field, `absent` for a presence flag that
/// is spelled by omission.
fn wire_value(report: &RunReport, key: &str) -> String {
    let text = codec::encode_report(report);
    let mut lines = text.lines();
    let value = lines.find_map(|line| line.strip_prefix(key)?.strip_prefix(' '));
    value.unwrap_or("absent").to_string()
}

/// Every entry of this run must be recorded in `text` under the same
/// seed and scale and agree with it on every walked report field, bit
/// for bit. A run over the whole registry (`whole`) also fails on a
/// recorded scenario, at a scale the run covers, that the run no longer
/// has.
///
/// # Errors
///
/// One line per disagreement, each naming the scenario and what
/// disagreed (for a moved field: its wire key, the recorded value and
/// the run's), or the reason `text` does not parse.
pub fn compare(text: &str, run: &[Entry], whole: bool) -> Result<(), String> {
    let recorded = parse(text)?;
    let mut failures = Vec::new();
    for now in run {
        let Some(old) = recorded.iter().find(|old| same(old, now)) else {
            let (name, quick) = (&now.name, now.quick);
            failures.push(format!("`{name}` has no entry at quick={quick}"));
            continue;
        };
        if old.seed != now.seed {
            let (name, was, is) = (&now.name, old.seed, now.seed);
            failures.push(format!(
                "`{name}` was recorded under seed {was}, runs under {is}"
            ));
        } else if let Some(key) = old.report.first_difference(&now.report) {
            let (was, is) = (wire_value(&old.report, key), wire_value(&now.report, key));
            failures.push(format!("`{}`: `{key}` was {was}, is {is}", now.name));
        }
    }
    let gone = recorded.iter().filter(|old| {
        let covered = run.iter().any(|now| now.quick == old.quick);
        whole && covered && !run.iter().any(|now| same(old, now))
    });
    failures.extend(gone.map(|old| format!("`{}` is recorded but not in the registry", old.name)));
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}
