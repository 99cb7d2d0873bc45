//! One run of one workload, timed from outside, with its output checks.

use std::panic::{catch_unwind, AssertUnwindSafe};

use besync::RunReport;
use besync_scenarios::{codec, ReadySystem, ScenarioSpec};
use besync_sim::SimTime;
use besync_sweep::{sweep, Shards, SweepOptions, SweepRun};

use crate::alloc::peak_during;
use crate::trace::Tracer;
use crate::workloads::{self, Shape, Workload, FIG6_KINDS, FIG6_SPECS};

/// What one run of a workload yields.
pub struct Sample {
    /// Spec → ready system, one value per set-up performed (the run's
    /// own plus the set-up-only repetitions).
    pub setup_s: Vec<f64>,
    /// What a user waits for: set-up + loop + report (the `sweep()` call
    /// on `paper_grid`).
    pub wall_s: f64,
    /// Event-loop seconds (worker-measured, summed, on `paper_grid`).
    pub loop_s: f64,
    /// Events ÷ event-loop seconds; Σ events ÷ `wall_s` on `paper_grid`.
    pub events_per_sec: f64,
    pub peak_bytes: usize,
    pub mean_divergence: f64,
    /// Every report of the run, encoded: the byte-identity unit.
    pub text: String,
    /// Specs of the run that failed a check.
    pub failed: u64,
    pub detail: Detail,
}

/// Names of `Detail::Single::phases`, as per-layer metrics.
pub const PHASES: [&str; 5] = [
    "workloads.generate_s",
    "core.system.new_s",
    "core.system.warmup_s",
    "core.system.measure_s",
    "core.system.report_s",
];

pub enum Detail {
    Single {
        /// Seconds per phase, in `PHASES` order. Only a traced run splits
        /// the loop at the end of warm-up; an untraced one books the whole
        /// loop under the measured part.
        phases: [f64; 5],
        report: Box<RunReport>,
    },
    Grid(Box<SweepRun>),
}

/// Set-up-only repetitions are added while they cost at most this share
/// of the run they accompany, and at most `MAX_SETUP_REPS` times.
const SETUP_SHARE: f64 = 0.05;
const MAX_SETUP_REPS: usize = 32;

pub fn events_of(r: &RunReport) -> u64 {
    r.updates_processed + r.refreshes_sent + r.polls_sent + r.feedback_messages
}

/// Runs the workload once. A panic or a sweep error is returned as the
/// message to print; the caller counts every spec of the run as failed.
pub fn run_once(w: &Workload, tr: &mut Tracer) -> Result<Sample, String> {
    let depth = tr.depth();
    catch_unwind(AssertUnwindSafe(|| match &w.shape {
        Shape::Single(spec) => Ok(run_single(spec, w.faulty, tr)),
        Shape::Grid(specs) => run_grid(specs, sharded(), tr),
    }))
    .unwrap_or_else(|panic| {
        tr.unwind_to(depth);
        let msg = panic
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| panic.downcast_ref::<&str>().copied())
            .unwrap_or("non-string panic");
        Err(format!("panicked: {msg}"))
    })
}

pub fn sharded() -> SweepOptions {
    SweepOptions::with_shards(Shards::Workers(2))
}

fn check_report(name: &str, r: &RunReport, faulty: bool) -> bool {
    let d = r.mean_divergence();
    let checks = [
        (
            r.refreshes_delivered <= r.refreshes_sent,
            "delivered > sent",
        ),
        (d.is_finite() && d >= 0.0, "mean divergence not finite"),
        (r.faults.any() == faulty, "unexpected fault activity"),
        (r.updates_processed > 0, "no updates processed"),
    ];
    for (ok, what) in checks {
        if !ok {
            eprintln!("CHECK FAILED {name}: {what}");
        }
    }
    checks.iter().all(|c| c.0)
}

fn run_single(spec: &ScenarioSpec, faulty: bool, tr: &mut Tracer) -> Sample {
    let ((parts, wall_s), peak_bytes) = peak_during(|| {
        tr.span("run", |tr| {
            let (wl, generate_s) = tr.span("workloads.generate", |_| spec.workload());
            let (sys, new_s) = tr.span("core.system.new", |_| spec.build_from(wl));
            let ReadySystem::Coop(mut sys) = sys else {
                panic!("single-run workloads are cooperative");
            };
            let horizon = sys.horizon();
            let (warmup_s, measure_s) = if tr.on {
                let warm_end = SimTime::new(spec.warmup);
                let (_, w) = tr.span("core.system.warmup", |_| sys.run_until(warm_end));
                let (_, m) = tr.span("core.system.measure", |_| sys.run_until(horizon));
                (w, m)
            } else {
                (
                    0.0,
                    tr.span("core.system.loop", |_| sys.run_until(horizon)).1,
                )
            };
            let (report, report_s) = tr.span("core.system.report", |_| sys.into_report());
            (generate_s, new_s, warmup_s, measure_s, report_s, report)
        })
    });
    let (generate_s, new_s, warmup_s, measure_s, report_s, report) = parts;

    let mut setup_s = vec![generate_s + new_s];
    while setup_s.len() <= MAX_SETUP_REPS && setup_s.iter().sum::<f64>() <= SETUP_SHARE * wall_s {
        let (ready, s) = tr.span("setup", |_| spec.build_from(spec.workload()));
        drop(ready);
        setup_s.push(s);
    }

    let ok = check_report(&spec.name, &report, faulty) && report.mean_divergence() > 0.0;
    Sample {
        setup_s,
        wall_s,
        loop_s: warmup_s + measure_s,
        events_per_sec: events_of(&report) as f64 / (warmup_s + measure_s),
        peak_bytes,
        mean_divergence: report.mean_divergence(),
        text: codec::encode_report(&report),
        failed: u64::from(!ok),
        detail: Detail::Single {
            phases: [generate_s, new_s, warmup_s, measure_s, report_s],
            report: Box::new(report),
        },
    }
}

pub fn run_grid(
    specs: &[ScenarioSpec],
    opts: SweepOptions,
    tr: &mut Tracer,
) -> Result<Sample, String> {
    let probe = workloads::spawn_probe();
    let mut probe_failures = 0;
    let mut spawn = |tr: &mut Tracer| {
        let (r, s) = tr.span("sweep.spawn", |_| sweep(&probe, &sharded()));
        probe_failures += u64::from(r.is_err());
        s
    };
    let mut setup_s = vec![spawn(tr)];

    let ((run, wall_s), peak_bytes) = peak_during(|| {
        tr.span("run", |tr| {
            if tr.on {
                // `sweep()` encodes internally; this span shows what that
                // part of it costs.
                tr.span("scenarios.codec.encode", |tr| {
                    for s in specs {
                        std::hint::black_box(codec::encode(s).ok());
                    }
                    tr.count(specs.len() as u64);
                });
            }
            tr.span("sweep.run", |tr| {
                let run = sweep(specs, &opts);
                if let Ok(run) = &run {
                    for (kind, busy_s, events) in by_kind(specs, [run]) {
                        tr.rollup(kind, busy_s, events);
                    }
                }
                run
            })
            .0
        })
    });
    let run = run.map_err(|e| format!("sweep failed: {e}"))?;

    while setup_s.len() <= MAX_SETUP_REPS && setup_s.iter().sum::<f64>() <= SETUP_SHARE * wall_s {
        setup_s.push(spawn(tr));
    }

    let mut failed = probe_failures;
    let mut text = String::new();
    for (spec, o) in specs.iter().zip(&run.outcomes) {
        failed += u64::from(!check_report(&spec.name, &o.report, false));
        text.push_str(&codec::encode_report(&o.report));
    }
    for point in run.outcomes[..FIG6_SPECS].chunks(FIG6_KINDS) {
        // The paper's reading of Fig. 6, with the slack the repo's own
        // fig6 test allows: ideal ≤ cooperative ≤ the practical CGMs.
        let d: Vec<f64> = point.iter().map(|o| o.report.mean_divergence()).collect();
        if !(d[0] <= d[1] + 0.05 && d[1] < d[3] + 0.02 && d[1] < d[4] + 0.02) {
            eprintln!("CHECK FAILED paper_grid: scheduler ordering broken at a point: {d:?}");
            failed += 1;
        }
    }
    if run.summary.respawns != 0 || run.summary.is_degraded() {
        eprintln!("CHECK FAILED paper_grid: {}", run.summary.render());
        failed += 1;
    }
    let n = run.outcomes.len() as f64;
    let mean_divergence = run
        .outcomes
        .iter()
        .map(|o| o.report.mean_divergence())
        .sum::<f64>()
        / n;
    if mean_divergence.is_nan() || mean_divergence <= 0.0 {
        eprintln!("CHECK FAILED paper_grid: grid mean divergence is not positive");
        failed += 1;
    }
    let events: u64 = run.outcomes.iter().map(|o| events_of(&o.report)).sum();
    Ok(Sample {
        setup_s,
        wall_s,
        loop_s: run.outcomes.iter().map(|o| o.wall_seconds).sum(),
        events_per_sec: events as f64 / wall_s,
        peak_bytes,
        mean_divergence,
        text,
        failed: failed.min(specs.len() as u64),
        detail: Detail::Grid(Box::new(run)),
    })
}

/// Worker-measured busy seconds (build + loop) and events per scheduler
/// kind, summed over `runs` of the same `specs`, in first-appearance order.
pub fn by_kind<'a>(
    specs: &[ScenarioSpec],
    runs: impl IntoIterator<Item = &'a SweepRun>,
) -> Vec<(&'static str, f64, u64)> {
    let mut rows: Vec<(&'static str, f64, u64)> = Vec::new();
    for run in runs {
        for (spec, o) in specs.iter().zip(&run.outcomes) {
            let kind = spec.system.name();
            let busy = o.build_seconds + o.wall_seconds;
            match rows.iter_mut().find(|r| r.0 == kind) {
                Some(r) => {
                    r.1 += busy;
                    r.2 += events_of(&o.report);
                }
                None => rows.push((kind, busy, events_of(&o.report))),
            }
        }
    }
    rows
}

/// The paper's headline on the Fig. 6 part of the grid: summed cooperative
/// ÷ summed ideal mean divergence over the ten (f, seed) points. Sums, not
/// a mean of ratios: at the high-bandwidth points both are 0.
pub fn divergence_vs_ideal(run: &SweepRun) -> f64 {
    let (mut ideal, mut coop) = (0.0, 0.0);
    for point in run.outcomes[..FIG6_SPECS].chunks(FIG6_KINDS) {
        ideal += point[0].report.mean_divergence();
        coop += point[1].report.mean_divergence();
    }
    coop / ideal
}
