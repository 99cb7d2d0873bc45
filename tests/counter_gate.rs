//! Tier 1's trajectory pin: `COUNTERS_baseline.txt`, read by `cargo test`.
//!
//! Every registry scenario at quick scale, and the `goldens()` — small
//! enough to replay as registered — at their native scale too, must
//! reproduce the recorded report on every walked field, bit for bit,
//! the §7 sources' objective included. A mismatch names the scenario and
//! the wire key that moved. This is the only place a trajectory is
//! pinned: there are no hand-typed golden constants. The release-mode
//! `besync-bench --compare COUNTERS_baseline.txt` holds the 22 suite
//! regimes to their full-scale entries the same way.
//!
//! A change that is *meant* to move a trajectory re-records, at both
//! scales, and says so in its commit message:
//!
//! ```sh
//! cargo run -p besync-bench --release -- --record COUNTERS_baseline.txt
//! cargo run -p besync-bench --release -- --record COUNTERS_baseline.txt --quick
//! ```

use std::sync::OnceLock;

use besync_scenarios::{all, goldens, ScenarioSpec};
use besync_sweep::{sweep, SweepOptions};
use besync_verify::counters::{compare, Entry};

const RECORD: &str = include_str!("../COUNTERS_baseline.txt");

/// One in-process sweep for both tests: every registry scenario shrunk
/// to quick scale, and the goldens as registered.
fn run() -> &'static (Vec<Entry>, Vec<Entry>) {
    static RUN: OnceLock<(Vec<Entry>, Vec<Entry>)> = OnceLock::new();
    RUN.get_or_init(|| {
        let quick: Vec<ScenarioSpec> = all().into_iter().map(ScenarioSpec::quick).collect();
        let native = goldens();
        let specs = [&quick[..], &native[..]].concat();
        let outcomes = sweep(&specs, &SweepOptions::default())
            .expect("the registry sweeps in-process")
            .into_outcomes();
        let mut reports = outcomes.into_iter().map(|outcome| outcome.report);
        let mut entries = |specs: &[ScenarioSpec], quick: bool| -> Vec<Entry> {
            let run = specs.iter().zip(reports.by_ref());
            run.map(|(spec, report)| Entry::new(spec, quick, report))
                .collect()
        };
        (entries(&quick, true), entries(&native, false))
    })
}

#[test]
fn the_registry_reproduces_the_record() {
    let (quick, native) = run();
    let scales = [
        ("quick", compare(RECORD, quick, true)),
        ("native", compare(RECORD, native, false)),
    ];
    let moved: Vec<String> = scales
        .into_iter()
        .filter_map(|(scale, done)| Some(format!("at {scale} scale:\n{}", done.err()?)))
        .collect();
    assert!(
        moved.is_empty(),
        "{}\nif the simulation was meant to move, re-record (see the top of this file)",
        moved.join("\n")
    );
}

/// One digit of one entry, edited in a copy of the record, is a failure
/// that names the scenario and the wire key: a suite regime at quick
/// scale, a golden at its native scale, a §7 golden's source objective.
#[test]
fn one_edited_digit_is_refused_by_scenario_and_wire_key() {
    let (quick, native) = run();
    let edited = |header: &str, line: &str, to: &str| {
        let at = RECORD.find(header).expect("the entry is recorded");
        let at = at + RECORD[at..].find(line).expect("the entry has the field");
        format!("{}{to}{}", &RECORD[..at], &RECORD[at + line.len()..])
    };
    let suite = edited(
        "scenario outage_medium seed 1515 quick true\n",
        "\nfault_outages 1\n",
        "\nfault_outages 2\n",
    );
    let complaint = compare(&suite, quick, true).unwrap_err();
    assert_eq!(complaint, "`outage_medium`: `fault_outages` was 2, is 1");
    let golden = edited(
        "scenario equiv_cgm1 seed 62 quick false\n",
        "\npolls_sent 3103\n",
        "\npolls_sent 3104\n",
    );
    let complaint = compare(&golden, native, false).unwrap_err();
    assert_eq!(complaint, "`equiv_cgm1`: `polls_sent` was 3104, is 3103");
    compare(&golden, quick, true).expect("the quick entries were not edited");
    let sources = edited(
        "scenario golden_competitive_piggyback seed 72 quick false\n",
        "\nsource_objective 2.780826431438486\n",
        "\nsource_objective 2.780826431438487\n",
    );
    let complaint = compare(&sources, native, false).unwrap_err();
    assert_eq!(
        complaint,
        "`golden_competitive_piggyback`: `source_objective` was 2.780826431438487, \
         is 2.780826431438486"
    );
}
