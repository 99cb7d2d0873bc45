//! The counter gate's failure modes, on text in memory: every way a
//! record can disagree with a run — a moved counter, a moved float bit,
//! a missing entry, another seed, a cut-off file — is a failure that says
//! what disagreed. (`tests/counter_gate.rs` holds the tree to the
//! checked-in record, in-process and through worker processes.)

use besync_scenarios::by_name;
use besync_verify::counters::{compare, record, Entry};

/// One quick-scale run of the named scenario.
fn run(name: &str) -> Vec<Entry> {
    let spec = by_name(name).expect("registered scenario").quick();
    vec![Entry::new(&spec, true, spec.run())]
}

/// Records `name`'s run, applies `edit` to the text and expects the
/// same run to be refused with `complaint`.
fn refuses(name: &str, edit: impl Fn(&str) -> String, complaint: &str) {
    let text = record("", run(name)).unwrap();
    let now = run(name);
    compare(&text, &now, true).expect("a fresh record matches its run");
    let edited = edit(&text);
    assert_ne!(edited, text, "the edit changed nothing");
    let refusal = compare(&edited, &now, true).expect_err("a wrong record passed");
    assert!(refusal.contains(complaint), "{refusal}");
}

#[test]
fn a_moved_counter_is_named_by_its_wire_key() {
    let edit =
        |text: &str| text.replace("fault_superseded_retries 0", "fault_superseded_retries 1");
    refuses(
        "small",
        edit,
        "`small`: `fault_superseded_retries` was 1, is 0",
    );
}

#[test]
fn a_moved_float_bit_is_named_by_its_wire_key() {
    // The ideal scheduler keeps no thresholds, so its empty summary
    // carries the infinities that are spelled as `!x` bit patterns.
    let edit = |text: &str| text.replace("!x7ff0000000000000", "!x7ff0000000000001");
    refuses(
        "ideal_medium",
        edit,
        "`ideal_medium`: `threshold_min` was !x7ff0000000000001",
    );
}

#[test]
fn a_missing_entry_fails() {
    let edit = |text: &str| text.replace("scenario small ", "scenario other ");
    refuses("small", edit, "`small` has no entry at quick=true");
}

#[test]
fn another_seed_fails_and_is_read_at_full_width() {
    let edit = |text: &str| text.replace("seed 101 ", "seed 102 ");
    refuses("small", edit, "recorded under seed 102, runs under 101");
    // 2^64 - 1 does not survive a trip through f64; it does survive this.
    let edit = |text: &str| text.replace("seed 101 ", "seed 18446744073709551615 ");
    refuses("small", edit, "recorded under seed 18446744073709551615,");
}

#[test]
fn a_truncated_or_garbled_file_fails() {
    let cut = |text: &str| text[..text.find("updates_processed").unwrap()].to_string();
    refuses("small", cut, "missing field `updates_processed`");
    let garble = |text: &str| text.replace("scenario small", "scenery small");
    refuses(
        "small",
        garble,
        "expected `scenario NAME seed N quick BOOL`",
    );
}

#[test]
fn recording_keeps_foreign_entries_bit_for_bit() {
    // An entry at the other scale, with every extreme the wire format
    // has (2^64 - 1 counters, NaN payloads, -0), survives a record of
    // `small` into the same text unchanged.
    let exotic = include_str!("../../scenarios/tests/wire/exotic_report.txt");
    let ghost = format!("scenario ghost seed 18446744073709551615 quick false\n{exotic}");
    // An entry at the run's scale whose scenario the run lacks is a
    // scenario that left the registry: a comparison over the whole
    // registry refuses it, and a re-record drops it.
    let gone = format!("scenario gone seed 1 quick true\n{exotic}");
    let old = format!("{ghost}\n{gone}");
    let now = run("small");
    let refusal = compare(&old, &now, true).unwrap_err();
    assert!(
        refusal.contains("`gone` is recorded but not in the registry"),
        "{refusal}"
    );
    let text = record(&old, run("small")).unwrap();
    assert!(text.starts_with(&ghost), "{text}");
    assert!(!text.contains("scenario gone "), "{text}");
    assert!(text.contains("\nscenario small seed 101 quick true\n"));
    compare(&text, &now, true).unwrap();
}
