//! The counter gate, driven through the built binary at `--quick --only
//! small`: what `--record` writes `--compare` accepts, and every way a
//! record can disagree with a run — a moved counter, a moved float bit,
//! a missing entry, another seed, a cut-off file — is a failure that says
//! what disagreed.

use std::path::PathBuf;
use std::process::Command;

const SMALL: [&str; 3] = ["--quick", "--only", "small"];

/// Runs `besync-bench` and returns (exited 0, its stderr).
fn bench(args: &[&str], flag: &str, file: &PathBuf) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_besync-bench"))
        .args(args)
        .arg(flag)
        .arg(file)
        .output()
        .expect("besync-bench runs");
    let stderr = String::from_utf8(out.stderr).unwrap();
    (out.status.success(), stderr)
}

/// A fresh record of `args`' scenarios in a file named after the test.
fn recorded(test: &str, args: &[&str]) -> (PathBuf, String) {
    let file = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("gate_{test}.txt"));
    let _ = std::fs::remove_file(&file);
    let (ok, stderr) = bench(args, "--record", &file);
    assert!(ok, "{stderr}");
    let text = std::fs::read_to_string(&file).unwrap();
    (file, text)
}

/// Rewrites the record with `edit` applied and expects `--compare` to
/// fail with `complaint` on stderr.
fn refuses(test: &str, args: &[&str], edit: impl Fn(&str) -> String, complaint: &str) {
    let (file, text) = recorded(test, args);
    let edited = edit(&text);
    assert_ne!(edited, text, "the edit changed nothing");
    std::fs::write(&file, edited).unwrap();
    let (ok, stderr) = bench(args, "--compare", &file);
    assert!(!ok, "a wrong record passed: {stderr}");
    assert!(stderr.contains(complaint), "{stderr}");
}

#[test]
fn a_record_compares_clean_in_process_and_through_workers() {
    let (file, text) = recorded("clean", &SMALL);
    assert!(text.starts_with("scenario small seed 101 quick true\nbesync-report v1\n"));
    let (ok, stderr) = bench(&SMALL, "--compare", &file);
    assert!(ok, "{stderr}");
    let sharded = ["--quick", "--only", "small", "--shards", "2"];
    let (ok, stderr) = bench(&sharded, "--compare", &file);
    assert!(ok, "{stderr}");
    // The other scale has no entry here, and says so instead of passing.
    let (ok, stderr) = bench(&["--only", "small"], "--compare", &file);
    assert!(
        !ok && stderr.contains("`small` has no entry at quick=false"),
        "{stderr}"
    );
}

#[test]
fn a_moved_counter_is_named_by_its_wire_key() {
    let edit =
        |text: &str| text.replace("fault_superseded_retries 0", "fault_superseded_retries 1");
    refuses(
        "counter",
        &SMALL,
        edit,
        "`small`: `fault_superseded_retries` was 1, is 0",
    );
}

#[test]
fn a_moved_float_bit_is_named_by_its_wire_key() {
    // The ideal scheduler keeps no thresholds, so its empty summary
    // carries the infinities that are spelled as `!x` bit patterns.
    let ideal = ["--quick", "--only", "ideal_medium"];
    let edit = |text: &str| text.replace("!x7ff0000000000000", "!x7ff0000000000001");
    refuses(
        "float",
        &ideal,
        edit,
        "`ideal_medium`: `threshold_min` was !x7ff0000000000001",
    );
}

#[test]
fn a_missing_entry_fails() {
    let edit = |text: &str| text.replace("scenario small ", "scenario other ");
    refuses(
        "missing",
        &SMALL,
        edit,
        "`small` has no entry at quick=true",
    );
}

#[test]
fn another_seed_fails_and_is_read_at_full_width() {
    let edit = |text: &str| text.replace("seed 101 ", "seed 102 ");
    refuses(
        "seed",
        &SMALL,
        edit,
        "recorded under seed 102, runs under 101",
    );
    // 2^64 - 1 does not survive a trip through f64; it does survive this.
    let edit = |text: &str| text.replace("seed 101 ", "seed 18446744073709551615 ");
    refuses(
        "wide_seed",
        &SMALL,
        edit,
        "recorded under seed 18446744073709551615,",
    );
}

#[test]
fn a_truncated_or_garbled_file_fails() {
    let cut = |text: &str| text[..text.find("updates_processed").unwrap()].to_string();
    refuses(
        "truncated",
        &SMALL,
        cut,
        "missing field `updates_processed`",
    );
    let garble = |text: &str| text.replace("scenario small", "scenery small");
    refuses(
        "garbled",
        &SMALL,
        garble,
        "expected `scenario NAME seed N quick BOOL`",
    );
}

#[test]
fn recording_keeps_foreign_entries_bit_for_bit() {
    // An entry of another scenario, with every extreme the wire format
    // has (2^64 - 1 counters, NaN payloads, -0), survives a `--record`
    // of `small` into the same file unchanged.
    let exotic = include_str!("../../scenarios/tests/wire/exotic_report.txt");
    let ghost = format!("scenario ghost seed 18446744073709551615 quick true\n{exotic}");
    let file = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("gate_foreign.txt");
    std::fs::write(&file, &ghost).unwrap();
    let (ok, stderr) = bench(&SMALL, "--record", &file);
    assert!(ok, "{stderr}");
    let text = std::fs::read_to_string(&file).unwrap();
    assert!(text.starts_with(&ghost), "{text}");
    assert!(text.contains("\nscenario small seed 101 quick true\n"));
    let (ok, stderr) = bench(&SMALL, "--compare", &file);
    assert!(ok, "{stderr}");
}

#[test]
fn bad_sweep_flags_are_usage_errors_in_both_argument_loops() {
    let run = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_besync-bench"))
            .args(args)
            .output()
            .expect("besync-bench runs")
    };
    // The retired channel flag, spelled in two pieces so a grep for it
    // finds only history.
    let retired = concat!("--", "workers");
    let bad = [
        // Seconds past `Duration::MAX` used to panic in the conversion.
        (["--spec-deadline", "1e30"], "--spec-deadline needs seconds"),
        ([retired, "tcp"], "unexpected argument"),
    ];
    for lead in [&SMALL[..], &["verify", "--quick"]] {
        for (flag, complaint) in bad {
            let out = run(&[lead, &flag].concat());
            let stderr = String::from_utf8(out.stderr).unwrap();
            assert_eq!(out.status.code(), Some(1), "{flag:?}: {stderr}");
            assert!(stderr.starts_with("error:"), "{flag:?}: {stderr}");
            assert!(!stderr.contains("panicked"), "{flag:?}: {stderr}");
            assert!(stderr.contains(complaint), "{flag:?}: {stderr}");
        }
    }
    for help in [&["--help"][..], &["verify", "--help"]] {
        let out = run(help);
        let text = String::from_utf8(out.stdout).unwrap();
        assert!(out.status.success(), "{text}");
        assert!(
            text.contains("[--shards N] [--spec-deadline SECS]"),
            "{text}"
        );
        for gone in [retired, "--connect", "tcp"] {
            assert!(!text.contains(gone), "`{gone}` still in: {text}");
        }
    }
}
