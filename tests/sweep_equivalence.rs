//! Golden byte-identity tests for the process-sharded sweep runner.
//!
//! The contract under test: a figure grid run with `--shards 0`
//! (in-process threads), `--shards 1`, or `--shards 4` (worker
//! processes over child-process pipes) produces **byte-identical CSV
//! output**, and no worker fault changes a single byte either: not a
//! crash mid-grid (respawn + resubmission), not a hang caught by the
//! per-spec deadline, not even every worker slot dying (graceful
//! degradation to in-process completion). The workers are real child
//! processes — the `experiments` binary in its hidden `--sweep-worker`
//! mode — so these tests cross the same channel production sweeps cross.
//!
//! `crates/sweep/tests/end_to_end.rs` covers the supervisor mechanics on
//! tiny scenario batches; this file pins the figure-grid deliverable.

use std::path::PathBuf;
use std::time::Duration;

use besync_experiments::output::render_csv;
use besync_experiments::{competitive, fig4, fig6, params, Mode};
use besync_sweep::{BackoffPolicy, Shards, SweepOptions, WorkerSpawn, FAULT_ENV};

/// Locates the `experiments` binary next to this test executable
/// (`target/<profile>/deps/<test>-<hash>` → `target/<profile>/`),
/// refreshing it through cargo first: a filtered
/// `cargo test --test sweep_equivalence` never builds other packages'
/// binaries, so without the rebuild these tests could compare current
/// in-process code against a *stale* worker. The rebuild is a no-op
/// when the binary is already fresh, and runs once per test process.
fn experiments_binary() -> PathBuf {
    static BIN: std::sync::OnceLock<PathBuf> = std::sync::OnceLock::new();
    BIN.get_or_init(|| {
        let exe = std::env::current_exe().expect("test executable path");
        let dir = exe
            .parent()
            .and_then(|deps| deps.parent())
            .expect("target profile dir");
        let bin = dir.join(format!("experiments{}", std::env::consts::EXE_SUFFIX));
        let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
        let mut cmd = std::process::Command::new(cargo);
        cmd.args(["build", "-p", "besync_experiments", "--bin", "experiments"]);
        if dir.file_name().and_then(|n| n.to_str()) == Some("release") {
            cmd.arg("--release");
        }
        let status = cmd
            .status()
            .expect("spawn cargo to build the worker binary");
        assert!(
            status.success(),
            "building the experiments worker binary failed"
        );
        assert!(bin.exists(), "no worker binary at {}", bin.display());
        bin
    })
    .clone()
}

fn opts(shards: Shards) -> SweepOptions {
    SweepOptions {
        shards,
        worker: WorkerSpawn::Command(experiments_binary(), vec!["--sweep-worker".to_string()]),
        // Near-zero backoff: the schedule itself is pinned by its own
        // property tests; here a real delay would only slow CI.
        backoff: BackoffPolicy {
            base_ms: 1,
            cap_ms: 8,
            seed: 0xbe57_c0de,
        },
        ..SweepOptions::default()
    }
}

const SEED: u64 = 42;

fn fig4_in_process() -> String {
    render_csv(&fig4::run_with(Mode::Quick, SEED, &opts(Shards::InProcess)).unwrap())
}

#[test]
fn fig4_quick_grid_is_byte_identical_across_shard_counts() {
    let in_process = fig4_in_process();
    for shards in [1u32, 4] {
        let sharded =
            render_csv(&fig4::run_with(Mode::Quick, SEED, &opts(Shards::Workers(shards))).unwrap());
        assert_eq!(
            in_process, sharded,
            "--shards {shards} CSV diverges from the in-process run"
        );
    }
}

#[test]
fn fig6_and_param_sweep_quick_grids_are_byte_identical_sharded() {
    // fig6 exercises all five schedulers (incl. the CGM baselines and
    // their polls counter) through the worker pipe; the α/ω sweep
    // exercises single-spec cells; the §7 grid carries the report's
    // competitive block.
    let fig6_base =
        render_csv(&fig6::run_with(Mode::Quick, SEED, &opts(Shards::InProcess)).unwrap());
    let fig6_sharded =
        render_csv(&fig6::run_with(Mode::Quick, SEED, &opts(Shards::Workers(2))).unwrap());
    assert_eq!(fig6_base, fig6_sharded);

    let params_base =
        render_csv(&params::run_with(Mode::Quick, SEED, &opts(Shards::InProcess)).unwrap());
    let params_sharded =
        render_csv(&params::run_with(Mode::Quick, SEED, &opts(Shards::Workers(2))).unwrap());
    assert_eq!(params_base, params_sharded);

    let competitive_base =
        render_csv(&competitive::run_with(Mode::Quick, SEED, &opts(Shards::InProcess)).unwrap());
    let competitive_sharded =
        render_csv(&competitive::run_with(Mode::Quick, SEED, &opts(Shards::Workers(2))).unwrap());
    assert_eq!(competitive_base, competitive_sharded);
}

/// The wire text of the reports of the named suite regimes, at quick
/// scale, swept under `o`.
fn regime_reports(names: &[&str], o: &SweepOptions) -> Vec<String> {
    use besync_scenarios::codec::encode_report;
    use besync_scenarios::suite::by_name;
    let specs: Vec<_> = names
        .iter()
        .map(|n| by_name(n).expect("registered fault regime").quick())
        .collect();
    besync_sweep::sweep(&specs, o)
        .unwrap()
        .outcomes
        .iter()
        .map(|out| encode_report(&out.report))
        .collect()
}

#[test]
fn fault_regimes_are_byte_identical_across_shards() {
    // The three simulated-world fault regimes cross the worker pipe
    // carrying a fault block in the spec codec and a fault summary in
    // the report codec; every byte of every report must match the
    // in-process run for --shards 0/1/4.
    let reports =
        |o: &SweepOptions| regime_reports(&["lossy_medium", "outage_medium", "crashy_huge"], o);
    let in_process = reports(&opts(Shards::InProcess));
    assert!(
        in_process
            .iter()
            .any(|r| r.contains("fault_lost_refreshes") && !r.contains("fault_lost_refreshes 0")),
        "lossy regime reported no losses"
    );
    for shards in [1u32, 4] {
        let piped = reports(&opts(Shards::Workers(shards)));
        assert_eq!(
            in_process, piped,
            "--shards {shards} fault-regime reports diverge over pipes"
        );
    }
}

#[test]
fn fault_aware_regimes_are_byte_identical_across_shards() {
    // The PR 10 regimes: the fault-aware retransmit scheduler (estimator
    // state, ack plumbing, `fault_aware` codec flag) and the first lossy
    // competitive split. Both must shard byte-identically — the
    // estimator folds acks in simulation order, so any dependence on
    // worker interleaving would show up here as a diverging report.
    let reports =
        |o: &SweepOptions| regime_reports(&["lossy_aware_medium", "competitive_lossy"], o);
    let in_process = reports(&opts(Shards::InProcess));
    assert!(
        in_process
            .iter()
            .all(|r| r.contains("fault_lost_refreshes") && !r.contains("fault_lost_refreshes 0")),
        "both lossy regimes must report losses"
    );
    for shards in [1u32, 4] {
        let piped = reports(&opts(Shards::Workers(shards)));
        assert_eq!(
            in_process, piped,
            "--shards {shards} fault-aware reports diverge over pipes"
        );
    }
}

#[test]
fn worker_killed_mid_grid_still_merges_byte_identically() {
    let in_process = fig4_in_process();
    // Every initial worker aborts upon *receiving* its 2nd spec — a
    // crash with one spec acknowledged and one in flight. The
    // supervisor must respawn (replacements don't inherit the hook) and
    // resubmit exactly the unacknowledged specs.
    let mut crashy = opts(Shards::Workers(3));
    crashy
        .worker_env
        .push((FAULT_ENV.to_string(), "abort:2".to_string()));
    let merged = render_csv(&fig4::run_with(Mode::Quick, SEED, &crashy).unwrap());
    assert_eq!(
        in_process, merged,
        "a mid-grid worker crash changed the merged output"
    );
}

#[test]
fn worker_hung_mid_grid_is_deadlined_and_the_merge_is_unchanged() {
    let in_process = fig4_in_process();
    // Every initial worker hangs on its 1st spec with its I/O thread
    // still answering heartbeats — only the per-spec deadline can catch
    // it. The respawned replacements are clean and finish the grid.
    let mut hung = opts(Shards::Workers(2));
    hung.spec_deadline = Some(Duration::from_secs(1));
    hung.worker_env
        .push((FAULT_ENV.to_string(), "hang:1".to_string()));
    let merged = render_csv(&fig4::run_with(Mode::Quick, SEED, &hung).unwrap());
    assert_eq!(
        in_process, merged,
        "a deadline-killed hang changed the merged output"
    );
}

#[test]
fn all_workers_dead_degrades_to_in_process_and_the_grid_is_unchanged() {
    let in_process = fig4_in_process();
    // A worker command that can never speak the protocol (`cat` echoes
    // requests back) with a tiny respawn budget: every slot retires and
    // the grid must complete in-process — same bytes, not an error.
    let degraded = SweepOptions {
        shards: Shards::Workers(2),
        worker: WorkerSpawn::Command("cat".into(), Vec::new()),
        max_respawns: 1,
        ..opts(Shards::Workers(2))
    };
    let merged = render_csv(&fig4::run_with(Mode::Quick, SEED, &degraded).unwrap());
    assert_eq!(
        in_process, merged,
        "graceful degradation changed the merged output"
    );
}
