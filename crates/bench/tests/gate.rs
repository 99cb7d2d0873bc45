//! The counter gate, driven through the built binary at `--quick --only
//! small`: what `--record` writes `--compare` accepts, in-process and
//! through worker processes, and a bad sweep flag is a usage error. (The
//! ways a record can disagree with a run are tested on text in memory,
//! in `crates/verify/tests/gate.rs`.)

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

#[test]
fn a_record_compares_clean_in_process_and_through_workers() {
    let file = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("gate_clean.txt");
    let _ = std::fs::remove_file(&file);
    let (ok, stderr) = bench(&SMALL, "--record", &file);
    assert!(ok, "{stderr}");
    let text = std::fs::read_to_string(&file).unwrap();
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
