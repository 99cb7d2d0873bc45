//! The repo's benchmark: four workloads measured end to end, and — with
//! `--trace 1` — layer by layer, every layer timed from outside through
//! the crates' public functions. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Public paths this benchmark imports (and nothing ROADMAP slates for
//! deletion — `LazyMaxHeap`, `EventQueue`, `aos`, `invert_g_bisect`,
//! `suite::by_name`):
//!
//! - `besync::RunReport`
//! - `besync::cache::{CacheRuntime, partition::SharePolicy}`
//! - `besync::config::SystemConfig`
//! - `besync::fault::{DeliveryEstimator, EpisodeSchedule, FaultProfile, LossLane, RecoveryPolicy}`
//! - `besync::priority::{PolicyKind, RateEstimator}`
//! - `besync::source::{Snapshot, SourceRuntime}`
//! - `besync::system::RefreshMsg` (and `CoopSystem::{horizon, run_until,
//!   into_report}` through `ReadySystem::Coop`)
//! - `besync::threshold::ThresholdState`
//! - `besync_baselines::{CgmVariant, freshness::allocate}`
//! - `besync_data::{Metric, ObjectId, SourceId, TruthTable}`
//! - `besync_net::Link`
//! - `besync_scenarios::{codec, ReadySystem, ScenarioSpec, ScenarioSpecBuilder, SystemKind}`
//! - `besync_sim::{CalendarQueue, HeapKey, IndexedHeap, SimTime}`
//! - `besync_sweep::{sweep, worker_main, Shards, SweepOptions, SweepRun, WORKER_FLAG}`
//! - `besync_sweep::protocol::{format_report, format_request, parse_request, parse_response}`
//! - `besync_workloads::WorkloadSpec` (and `Updater::{first_time, fire}`)

mod alloc;
mod grid;
mod host;
mod layers;
mod run;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use besync_sweep::{SweepOptions, WORKER_FLAG};

use crate::run::{Detail, Sample};
use crate::workloads::{Shape, Workload};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const DEFAULT_SEED: u64 = 20020603;
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

/// End-to-end metrics, printed with `--trace 0`. Bounds live in
/// `BENCHMARK.json`.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("events_per_sec", "1/s"),
    ("specs_per_sec", "1/s"),
    ("alloc_peak_mib", "MiB"),
    ("mean_divergence", "div"),
];

/// Layers whose replay yields `<layer>_ns`, `<layer>_ops`, `<layer>_share`.
const LOOP_LAYERS: [&str; 12] = [
    "sim.calendar.hold",
    "workloads.updater.fire",
    "data.truth.update",
    "data.truth.refresh",
    "core.source.update",
    "core.source.send",
    "net.link.msg",
    "core.cache.feedback",
    "core.threshold.step",
    "core.fault.loss_draw",
    "core.fault.ack",
    "core.fault.episode",
];

/// The other per-layer metrics, printed with `--trace 1`. A metric a
/// workload does not exercise reads 0 there.
const PER_LAYER: [(&str, &str); 38] = [
    ("sim.heap.revise_ns", "ns"),
    ("sim.calendar.resizes", "count"),
    ("data.truth.report_s", "s"),
    ("workloads.generate_s", "s"),
    ("core.system.new_s", "s"),
    ("core.system.warmup_s", "s"),
    ("core.system.measure_s", "s"),
    ("core.system.report_s", "s"),
    ("core.loop.attributed_share", "ratio"),
    ("core.loop.unattributed_share", "ratio"),
    ("core.ideal.events_per_sec", "1/s"),
    ("core.ideal.busy_s", "s"),
    ("core.coop.events_per_sec", "1/s"),
    ("core.coop.busy_s", "s"),
    ("core.competitive.events_per_sec", "1/s"),
    ("core.competitive.busy_s", "s"),
    ("baselines.cgm_ideal.events_per_sec", "1/s"),
    ("baselines.cgm_ideal.busy_s", "s"),
    ("baselines.cgm1.events_per_sec", "1/s"),
    ("baselines.cgm1.busy_s", "s"),
    ("baselines.cgm2.events_per_sec", "1/s"),
    ("baselines.cgm2.busy_s", "s"),
    ("baselines.allocate_s", "s"),
    ("scenarios.codec.encode_spec_us", "us"),
    ("scenarios.codec.decode_spec_us", "us"),
    ("scenarios.codec.encode_report_us", "us"),
    ("scenarios.codec.decode_report_us", "us"),
    ("sweep.protocol.frame_us", "us"),
    ("sweep.inprocess_wall_s", "s"),
    ("sweep.sharded_wall_s", "s"),
    ("sweep.worker_busy_s", "s"),
    ("sweep.overhead_share", "ratio"),
    ("sweep.respawns", "count"),
    ("paper.divergence_vs_ideal", "ratio"),
    ("trace.overhead_share", "ratio"),
    ("host.cpu_probe_s", "s"),
    ("host.mem_probe_s", "s"),
    ("host.noisy", "bool"),
];

pub fn median(v: &mut [f64]) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

pub fn min_max(v: &[f64]) -> (f64, f64) {
    v.iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        })
}

struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: workloads::NAMES.iter().map(|s| s.to_string()).collect(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => {
                if !workloads::NAMES.contains(&value.as_str()) {
                    return Err(format!(
                        "unknown workload `{value}`; one of {:?}",
                        workloads::NAMES
                    ));
                }
                args.workloads = vec![value];
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(args)
}

/// One workload's samples over the session.
struct Session {
    w: Workload,
    /// The encoded reports of the first run: every repeat must equal it.
    reference: Option<String>,
    attempted: u64,
    failed: u64,
    /// Untraced and traced runs, in the order they ran.
    untraced: Vec<Sample>,
    traced: Vec<Sample>,
}

impl Session {
    fn specs(&self) -> u64 {
        match &self.w.shape {
            Shape::Single(_) => 1,
            Shape::Grid(specs) => specs.len() as u64,
        }
    }

    /// Accounts one run; keeps its sample unless `warm_up`.
    fn account(&mut self, result: Result<Sample, String>, traced: bool, warm_up: bool) {
        self.attempted += self.specs();
        let sample = match result {
            Ok(sample) => sample,
            Err(msg) => {
                eprintln!("RUN FAILED {}: {msg}", self.w.name);
                self.failed += self.specs();
                return;
            }
        };
        let identical = self.reference.get_or_insert_with(|| sample.text.clone()) == &sample.text;
        if !identical {
            eprintln!("CHECK FAILED {}: repeat is not byte-identical", self.w.name);
        }
        self.failed += sample.failed.max(u64::from(!identical));
        if !warm_up {
            if traced {
                &mut self.traced
            } else {
                &mut self.untraced
            }
            .push(sample);
        }
    }

    fn col(&self, f: impl Fn(&Sample) -> f64) -> Vec<f64> {
        self.untraced.iter().map(f).collect()
    }

    /// (metric, samples) for every end-to-end metric, in `END_TO_END` order.
    fn end_to_end(&self) -> Vec<Vec<f64>> {
        vec![
            self.untraced
                .iter()
                .flat_map(|s| s.setup_s.iter().copied())
                .collect(),
            self.col(|s| s.wall_s),
            self.col(|s| s.events_per_sec),
            self.col(|s| self.specs() as f64 / s.wall_s),
            // A high-water mark is a maximum: the session's largest run
            // peak (the supervisor's varies with thread timing on
            // `paper_grid`; elsewhere every run's is the same).
            vec![min_max(&self.col(|s| s.peak_bytes as f64 / (1024.0 * 1024.0))).1],
            self.col(|s| s.mean_divergence),
        ]
    }
}

fn main() -> ExitCode {
    if std::env::args().any(|a| a == WORKER_FLAG) {
        return besync_sweep::worker_main();
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}\nusage: [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]");
            return ExitCode::from(2);
        }
    };
    let mut sessions: Vec<Session> = args
        .workloads
        .iter()
        .map(|name| Session {
            w: workloads::by_name(name, args.seed).expect("validated by parse_args"),
            reference: None,
            attempted: 0,
            failed: 0,
            untraced: Vec::new(),
            traced: Vec::new(),
        })
        .collect();
    let mut tr = trace::Tracer::new();
    let mut probes = host::Probes::new();

    // One untimed warm-up round. The grid's warm-up is the in-process
    // sweep, so the sharded sweeps that follow are checked against it.
    for s in &mut sessions {
        tr.workload = s.w.name;
        let result = match &s.w.shape {
            Shape::Single(_) => run::run_once(&s.w, &mut tr),
            Shape::Grid(specs) => run::run_grid(specs, SweepOptions::default(), &mut tr),
        };
        s.account(result, false, true);
    }

    // Timed rounds, each workload once per round so every workload's
    // samples span the whole session. A traced session spends half its
    // seconds here, alternating untraced and traced rounds, and the rest
    // on the replays.
    let budget = args.seconds * sessions.len() as f64 * if args.trace { 0.5 } else { 1.0 };
    let started = Instant::now();
    probes.sample();
    let mut round = 0;
    while started.elapsed().as_secs_f64() < budget || (args.trace && round < 2) {
        tr.on = args.trace && round % 2 == 1;
        for s in &mut sessions {
            tr.workload = s.w.name;
            let result = run::run_once(&s.w, &mut tr);
            s.account(result, tr.on, false);
        }
        probes.sample();
        round += 1;
    }

    let many = sessions.len() > 1;
    let mut out: Vec<(String, f64, &str)> = Vec::new();
    let mut emit = |workload: &str, name: &str, value: f64, unit: &'static str| {
        let name = if many {
            format!("{workload}.{name}")
        } else {
            name.to_string()
        };
        out.push((name, value, unit));
    };

    println!(
        "{:<12} {:<16} {:>5} {:>14} {:>14} {:>14} {:>3}",
        "workload", "metric", "unit", "median", "min", "max", "n"
    );
    for s in sessions.iter().filter(|s| !s.untraced.is_empty()) {
        for ((name, unit), mut samples) in END_TO_END.into_iter().zip(s.end_to_end()) {
            let (lo, hi) = min_max(&samples);
            let mid = median(&mut samples);
            println!(
                "{:<12} {:<16} {:>5} {:>14.6} {:>14.6} {:>14.6} {:>3}",
                s.w.name,
                name,
                unit,
                mid,
                lo,
                hi,
                samples.len()
            );
            if !args.trace {
                emit(s.w.name, name, mid, unit);
            }
        }
    }
    let (cpu, mem) = (min_max(&probes.cpu_s), min_max(&probes.mem_s));
    println!(
        "host: cpu probe {:.4}..{:.4} s, mem probe {:.4}..{:.4} s over {} samples, noisy = {}",
        cpu.0,
        cpu.1,
        mem.0,
        mem.1,
        probes.cpu_s.len(),
        probes.noisy(),
    );

    if args.trace {
        tr.on = true;
        for s in &mut sessions {
            tr.workload = s.w.name;
            let mut values = per_layer(s, &mut tr);
            values.insert("host.cpu_probe_s".into(), median(&mut probes.cpu_s.clone()));
            values.insert("host.mem_probe_s".into(), median(&mut probes.mem_s.clone()));
            values.insert("host.noisy".into(), f64::from(u8::from(probes.noisy())));
            let units = LOOP_LAYERS
                .iter()
                .flat_map(|l| {
                    [("ns", "ns"), ("ops", "count"), ("share", "ratio")]
                        .map(|(suffix, unit)| (format!("{l}_{suffix}"), unit))
                })
                .chain(PER_LAYER.iter().map(|(n, u)| (n.to_string(), *u)));
            for (name, unit) in units {
                emit(s.w.name, &name, values.remove(&name).unwrap_or(0.0), unit);
            }
            assert!(
                values.is_empty(),
                "undeclared per-layer metrics: {values:?}"
            );
        }
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let written = std::fs::create_dir_all(&path)
            .and_then(|()| std::fs::write(path.join("trace.json"), tr.to_json()));
        match written {
            Ok(()) => println!("spans written to {}", path.join("trace.json").display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }

    let attempted: u64 = sessions.iter().map(|s| s.attempted).sum();
    let failed: u64 = sessions.iter().map(|s| s.failed).sum();
    let finite = out.iter().all(|m| m.1.is_finite());
    let correct = failed == 0 && finite;
    let metrics: Vec<String> = out
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The per-layer metrics of one workload's traced session, with the share
/// table printed on the way.
fn per_layer(s: &mut Session, tr: &mut trace::Tracer) -> BTreeMap<String, f64> {
    let mut values = BTreeMap::new();
    if s.untraced.is_empty() || s.traced.is_empty() {
        return values;
    }
    // The part of a run the spans sit in (a single run's set-up is not
    // it, and varies with the process's page-fault history). Fastest
    // against fastest: a difference of two medians of a few noisy runs
    // would mostly report the host.
    let fastest = |runs: &[Sample]| {
        runs.iter()
            .map(|r| match r.detail {
                Detail::Single { .. } => r.wall_s - r.setup_s[0],
                Detail::Grid(_) => r.wall_s,
            })
            .fold(f64::INFINITY, f64::min)
    };
    let untraced_s = fastest(&s.untraced);
    values.insert(
        "trace.overhead_share".to_string(),
        (fastest(&s.traced) - untraced_s) / untraced_s,
    );

    match &s.w.shape {
        Shape::Single(spec) => {
            for (i, name) in run::PHASES.into_iter().enumerate() {
                let mut samples: Vec<f64> = s
                    .traced
                    .iter()
                    .map(|r| match &r.detail {
                        Detail::Single { phases, .. } => phases[i],
                        Detail::Grid(_) => unreachable!("single-run workload"),
                    })
                    .collect();
                values.insert(name.to_string(), median(&mut samples));
            }

            let loop_s = median(&mut s.col(|r| r.loop_s));
            let Detail::Single { report, .. } = &s.untraced[0].detail else {
                unreachable!("single-run workload");
            };
            let replays = tr.span("replays", |tr| layers::replay(spec, report, tr)).0;
            s.attempted += 1;
            s.failed += replays.failed.min(1);
            if replays.failed != 0 {
                eprintln!(
                    "CHECK FAILED {}: a replay disagreed with its tape",
                    s.w.name
                );
            }

            println!(
                "\n{}: loop {loop_s:.4} s, layer shares of it (isolated replays)",
                s.w.name
            );
            println!(
                "{:<24} {:>10} {:>9} {:>12} {:>10} {:>7}",
                "layer", "replay ops", "ns/op", "run ops", "ns/op×ops", "share"
            );
            let mut attributed_s = 0.0;
            for l in &replays.layers {
                let share = l.attributed_s() / loop_s;
                println!(
                    "{:<24} {:>10} {:>9.2} {:>12} {:>9.4}s {:>7}",
                    l.name,
                    l.replay_ops,
                    l.ns_per_op(),
                    if l.nested {
                        "-".into()
                    } else {
                        l.workload_ops.to_string()
                    },
                    l.attributed_s(),
                    if l.nested {
                        "nested".into()
                    } else {
                        format!("{share:.4}")
                    },
                );
                values.insert(format!("{}_ns", l.name), l.ns_per_op());
                if !l.nested {
                    attributed_s += l.attributed_s();
                    values.insert(format!("{}_ops", l.name), l.workload_ops as f64);
                    values.insert(format!("{}_share", l.name), share);
                }
            }
            let attributed = attributed_s / loop_s;
            println!(
                "{:<24} {:>44.4}s {:>7.4}",
                "attributed", attributed_s, attributed
            );
            println!(
                "{:<24} {:>44.4}s {:>7.4}",
                "unattributed",
                loop_s - attributed_s,
                1.0 - attributed
            );
            values.insert("core.loop.attributed_share".into(), attributed);
            values.insert("core.loop.unattributed_share".into(), 1.0 - attributed);
            values.insert(
                "sim.calendar.resizes".into(),
                replays.calendar_resizes as f64,
            );
            values.insert("data.truth.report_s".into(), replays.truth_report_s);
        }
        Shape::Grid(specs) => {
            let sharded: Vec<_> = s
                .untraced
                .iter()
                .chain(&s.traced)
                .map(|r| match &r.detail {
                    Detail::Grid(run) => (r.wall_s, &**run),
                    Detail::Single { .. } => unreachable!("grid workload"),
                })
                .collect();
            let reference = s.reference.as_deref().expect("the warm-up ran");
            let b = grid::breakdown(specs, &sharded, reference, tr);
            s.attempted += b.attempted;
            s.failed += b.failed;
            println!("\n{}: breakdown", s.w.name);
            for (name, v) in b.values {
                println!("{name:<36} {v:>16.6}");
                values.insert(name, v);
            }
        }
    }
    values
}
