//! End-to-end sharded sweeps against real worker processes.
//!
//! These drive the actual supervisor ⇄ worker protocol using the
//! `besync-sweep-worker` binary (built by cargo alongside this test),
//! plus hostile stand-ins (`cat`, `sleep`, `true`) and the [`FAULT_ENV`]
//! injection harness that exercise every fault class: crash, hang,
//! stall, garble, flood, and an unresponsive (silent) worker. The workspace-root `tests/sweep_equivalence.rs` pins the same
//! guarantees at figure-grid scale through the `experiments` binary.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use besync::fault::FaultProfile;
use besync::priority::PolicyKind;
use besync_scenarios::{by_name, ScenarioSpec};
use besync_sweep::{
    sweep, BackoffPolicy, Shards, SweepError, SweepOptions, SweepOutcome, SweepRun, WorkerSpawn,
    FAULT_ENV,
};

fn worker_bin() -> WorkerSpawn {
    WorkerSpawn::Command(
        PathBuf::from(env!("CARGO_BIN_EXE_besync-sweep-worker")),
        Vec::new(),
    )
}

/// Sharded options tuned for tests: real worker binary, near-zero
/// backoff (the schedule itself is pinned separately in
/// `frame_props.rs` — here it would only slow the suite down).
fn sharded(shards: u32) -> SweepOptions {
    SweepOptions {
        shards: Shards::Workers(shards),
        worker: worker_bin(),
        backoff: BackoffPolicy {
            base_ms: 1,
            cap_ms: 8,
            seed: 0xbe57_c0de,
        },
        ..SweepOptions::default()
    }
}

fn with_fault(mut opts: SweepOptions, fault: &str) -> SweepOptions {
    opts.worker_env
        .push((FAULT_ENV.to_string(), fault.to_string()));
    opts
}

/// A small mixed batch: different seeds, systems, and metrics, so a
/// merge-order bug cannot cancel out.
fn mixed_specs() -> Vec<ScenarioSpec> {
    let mut specs = Vec::new();
    for (name, seeds) in [("small", [1u64, 2, 3]), ("equiv_cgm1", [0, 7, 9])] {
        for seed in seeds {
            let mut s = by_name(name).unwrap().quick();
            s.seed ^= seed;
            specs.push(s);
        }
    }
    specs.push(by_name("golden_deviation_poisson").unwrap().quick());
    specs
}

fn baseline() -> Vec<SweepOutcome> {
    sweep(&mixed_specs(), &SweepOptions::default())
        .unwrap()
        .into_outcomes()
}

fn assert_outcomes_identical(a: &[SweepOutcome], b: &[SweepOutcome]) {
    assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        let moved = x.report.first_difference(&y.report);
        assert_eq!(moved, None, "slot {i}: the reports differ in this field");
    }
}

/// Runs the sweep expecting a *clean recovery*: identical outcomes, at
/// least one respawn, no degradation.
fn assert_recovers(opts: &SweepOptions, min_respawns: usize) -> SweepRun {
    let run = sweep(&mixed_specs(), opts).unwrap();
    assert_outcomes_identical(&baseline(), &run.outcomes);
    assert!(
        run.summary.respawns >= min_respawns,
        "expected ≥ {min_respawns} respawns, saw {}",
        run.summary.respawns
    );
    assert!(
        !run.summary.is_degraded(),
        "unexpected degradation: {}",
        run.summary.render()
    );
    run
}

/// Runs the sweep expecting *graceful degradation*: still identical
/// outcomes, but with retired slots and an in-process drain.
fn assert_degrades(opts: &SweepOptions) -> SweepRun {
    let specs = mixed_specs();
    let run = sweep(&specs, opts).unwrap();
    assert_outcomes_identical(&baseline(), &run.outcomes);
    assert!(run.summary.is_degraded(), "expected retired slots");
    assert_eq!(
        run.summary.degraded.len(),
        (opts.shards.count() as usize).min(specs.len()),
        "every slot should retire"
    );
    assert!(
        run.summary.drained_in_process > 0,
        "expected an in-process drain"
    );
    run
}

#[test]
fn sharded_outcomes_match_in_process_bit_for_bit() {
    let specs = mixed_specs();
    let baseline = baseline();
    for shards in [1, 2, 5] {
        let outcomes = sweep(&specs, &sharded(shards)).unwrap().into_outcomes();
        assert_outcomes_identical(&baseline, &outcomes);
    }
    // More workers than specs: clamped, still identical.
    let outcomes = sweep(&specs[..2], &sharded(16)).unwrap().into_outcomes();
    assert_outcomes_identical(&baseline[..2], &outcomes);
}

#[test]
fn a_spec_its_system_cannot_run_fails_the_sweep_before_anything_runs() {
    // CGM models refresh loss only and `build()` panics on an outage
    // rate; the competitive system panics on any policy but `area` and
    // on Ψ = 1. In a worker that panic kills the compute loop under an I/O thread that
    // keeps answering PINGs, so only 1 + `max_respawns` spec deadlines
    // would end the wait: the refusal has to come first.
    let mut outage = by_name("equiv_cgm1").unwrap();
    outage.fault = Some(FaultProfile {
        outage_rate: 0.01,
        outage_duration: 5.0,
        ..FaultProfile::default()
    });
    let mut priced = by_name("golden_competitive_piggyback").unwrap();
    priced.policy = PolicyKind::PoissonClosedForm;
    let mut whole = by_name("golden_competitive_piggyback").unwrap();
    whole.psi = 1.0;
    let start = Instant::now();
    for (bad, kind, field) in [
        (outage, "CGM1", "`outage_rate`"),
        (priced, "competitive", "`policy`"),
        (whole, "competitive", "`psi`"),
    ] {
        let specs = [by_name("small").unwrap().quick(), bad];
        for opts in [SweepOptions::default(), sharded(1)] {
            let refused = sweep(&specs, &opts).expect_err("an unrunnable spec was swept");
            let SweepError::Encode { scenario, message } = &refused else {
                panic!("expected a refused spec, got: {refused}");
            };
            assert_eq!(scenario, &specs[1].name);
            assert!(
                message.contains(kind) && message.contains(field),
                "{message}"
            );
        }
    }
    assert!(
        start.elapsed() < Duration::from_secs(1),
        "{:?}",
        start.elapsed()
    );
}

#[test]
fn crashing_workers_respawn_and_the_merge_is_unchanged() {
    // Every initial worker aborts on receiving its 2nd spec; respawned
    // replacements are clean.
    assert_recovers(&with_fault(sharded(2), "abort:2"), 1);
}

#[test]
fn instantly_crashing_workers_recover_within_the_budget() {
    // Abort on the 1st spec: no initial worker ever replies. The clean
    // replacements finish the sweep inside the default budget.
    assert_recovers(&with_fault(sharded(2), "abort:1"), 2);
}

#[test]
fn exiting_workers_with_status_are_an_ordinary_crash() {
    // `exit:2:7` exits with a nonzero status instead of SIGABRT — same
    // fault class, same recovery.
    assert_recovers(&with_fault(sharded(2), "exit:2:7"), 1);
}

#[test]
fn hung_workers_are_detected_by_the_spec_deadline() {
    // `hang:1`: the compute thread wedges forever on its first spec but
    // the I/O thread keeps answering PINGs — only the per-spec deadline
    // can catch this one.
    let mut opts = with_fault(sharded(2), "hang:1");
    opts.spec_deadline = Some(Duration::from_secs(1));
    let run = assert_recovers(&opts, 1);
    assert_eq!(run.summary.drained_in_process, 0);
}

#[test]
fn stalling_workers_inside_the_deadline_need_no_respawn() {
    // A 50ms stall is indistinguishable from a slow spec; with the
    // (generous) default deadline nothing should be killed.
    let run = sweep(&mixed_specs(), &with_fault(sharded(2), "stall-ms:1:50"))
        .expect("stall within deadline");
    assert_outcomes_identical(&baseline(), &run.outcomes);
    assert_eq!(run.summary.respawns, 0);
}

#[test]
fn stalling_workers_past_the_deadline_are_killed_and_replaced() {
    let mut opts = with_fault(sharded(1), "stall-ms:1:20000");
    opts.spec_deadline = Some(Duration::from_secs(1));
    assert_recovers(&opts, 1);
}

#[test]
fn garbling_workers_are_respawned_on_the_first_bad_frame() {
    assert_recovers(&with_fault(sharded(2), "garble:1"), 1);
}

#[test]
fn flooding_workers_hit_the_line_bound_and_are_replaced() {
    // `flood:1` writes 2 MiB with no newline: the bounded reader gives
    // up at 1 MiB and the slot faults instead of the supervisor hanging.
    assert_recovers(&with_fault(sharded(1), "flood:1"), 1);
}

#[test]
fn unresponsive_workers_are_detected_by_heartbeat() {
    // `sleep 30` accepts specs (the pipe buffers them) but never writes
    // a byte: no crash, no EOF, no reply to deadline against — only the
    // PING/PONG probe can tell it is gone. Budget 0 → first fault
    // retires the slot and the sweep degrades to in-process completion.
    let mut opts = SweepOptions {
        worker: WorkerSpawn::Command("sleep".into(), vec!["30".to_string()]),
        max_respawns: 0,
        heartbeat_interval: Duration::from_millis(100),
        heartbeat_timeout: Duration::from_millis(400),
        spec_deadline: Some(Duration::from_secs(60)),
        ..sharded(1)
    };
    opts.shards = Shards::Workers(1);
    let run = assert_degrades(&opts);
    assert!(
        run.summary.degraded[0].last_fault.contains("PONG"),
        "expected a heartbeat fault, got: {}",
        run.summary.degraded[0].last_fault
    );
}

#[test]
fn echoing_workers_degrade_to_in_process_completion() {
    // `cat` echoes every SPEC line straight back: an endless stream of
    // unparseable replies. The budget burns down, the slots retire, and
    // the sweep still completes byte-identically in-process.
    let opts = SweepOptions {
        worker: WorkerSpawn::Command("cat".into(), Vec::new()),
        max_respawns: 3,
        ..sharded(2)
    };
    let run = assert_degrades(&opts);
    assert_eq!(run.summary.respawns, 6, "3 respawns per slot × 2 slots");
    for d in &run.summary.degraded {
        assert_eq!(d.respawns, 3);
        assert!(d.last_fault.contains("unparseable"), "{}", d.last_fault);
    }
}

#[test]
fn newline_free_flooding_workers_degrade_not_hang() {
    // `cat /dev/zero` streams bytes with no newline, ever: without a
    // bounded line reader the supervisor would accumulate one endless
    // line and block forever. With it, each incarnation faults promptly
    // and the sweep degrades.
    let opts = SweepOptions {
        worker: WorkerSpawn::Command("cat".into(), vec!["/dev/zero".to_string()]),
        max_respawns: 2,
        ..sharded(1)
    };
    assert_degrades(&opts);
}

#[test]
fn instantly_exiting_workers_degrade_not_fail() {
    // `true` exits before reading anything: EOF with work pending, every
    // time, until the budget retires the slot.
    let opts = SweepOptions {
        worker: WorkerSpawn::Command("true".into(), Vec::new()),
        max_respawns: 2,
        ..sharded(1)
    };
    assert_degrades(&opts);
}

#[test]
fn retired_slot_with_idle_survivor_hands_its_specs_over() {
    // Two workers race for a lock: the winner execs the real worker,
    // the loser holds its dispatched specs for a second (the pipe
    // buffers them unread) and then exits. By then the winner has
    // drained the queue and sits idle — so the loser's returned specs
    // are only served if retirement itself tops the survivor up;
    // nothing else ever re-dispatches an idle slot, and the in-process
    // drain only runs once *every* slot is dead. A regression here is
    // a supervisor hang, not a wrong answer.
    let lock = std::env::temp_dir().join(format!("besync-sweep-lock-{}", std::process::id()));
    let _ = std::fs::remove_dir(&lock);
    let script = format!(
        "if mkdir \"$BESYNC_TEST_LOCK\" 2>/dev/null; then exec \"{}\"; else sleep 1; exit 7; fi",
        env!("CARGO_BIN_EXE_besync-sweep-worker"),
    );
    let mut opts = SweepOptions {
        worker: WorkerSpawn::Command("sh".into(), vec!["-c".to_string(), script]),
        max_respawns: 0,
        ..sharded(2)
    };
    opts.worker_env
        .push(("BESYNC_TEST_LOCK".to_string(), lock.display().to_string()));
    let run = sweep(&mixed_specs(), &opts).unwrap();
    let _ = std::fs::remove_dir(&lock);
    assert_outcomes_identical(&baseline(), &run.outcomes);
    assert_eq!(
        run.summary.degraded.len(),
        1,
        "exactly the lock loser should retire: {}",
        run.summary.render()
    );
    assert_eq!(run.summary.respawns, 0, "budget 0 allows no respawns");
    assert_eq!(
        run.summary.drained_in_process, 0,
        "the surviving worker, not the in-process drain, must absorb \
         the retired slot's specs"
    );
}

#[test]
fn degraded_slots_carry_the_workers_stderr_tail() {
    // Faults announce themselves on stderr; with a zero respawn budget
    // the announcement must surface in the DegradedSlot so the cause is
    // diagnosable from the sweep output alone.
    let mut opts = with_fault(sharded(1), "exit:1:3");
    opts.max_respawns = 0;
    let run = assert_degrades(&opts);
    let tail = run.summary.degraded[0].stderr_tail.join("\n");
    assert!(
        tail.contains("injected fault"),
        "stderr tail should carry the fault announcement, got: {tail:?}"
    );
}
