//! `besync-bench` — the repo's throughput baseline harness.
//!
//! Runs the shared scenario suite (`besync_scenarios::suite()`) end to
//! end — the [`CoopSystem`] hot path plus the figure-regeneration
//! schedulers — reports wall-clock time and simulation events per second
//! for each, and optionally writes a machine-readable JSON trajectory
//! point (e.g. `BENCH_pr14.json` at the repo root) so successive PRs can
//! be compared with the *same* binary run on both trees.
//!
//! ```text
//! besync-bench [--out PATH] [--compare PATH] [--tolerance F]
//!              [--only NAME] [--repeat N] [--quick] [--list]
//! besync-bench verify ...   (statistical acceptance; see `verify --help`)
//! ```
//!
//! An *event* is one unit of simulation work: a source-side update, a
//! refresh message sent (a poll, for the CGM baselines), or a feedback
//! message sent (per-second bandwidth ticks are excluded — they are a
//! fixed, negligible fraction). Counters are deterministic per seed, so
//! two trees disagreeing on any counter column are not running the same
//! simulation — that check comes free with every measurement, and
//! `--compare` turns it into a CI gate: events/sec regressions against
//! the baseline file are *report-only* (timing noise must not fail PRs),
//! but counter disagreement means lost determinism and hard-fails.
//!
//! Construction (workload generation + system setup) is timed
//! separately and reported as `build_seconds`; at the `huge` scenario's
//! ≥100k objects it is material, and keeping it out of `events_per_sec`
//! keeps the throughput trajectory about the event loop.
//!
//! [`CoopSystem`]: besync::system::CoopSystem

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use besync::fault::{FaultProfile, RecoveryPolicy};
use besync::RunReport;
use besync_scenarios::{by_name, suite, ScenarioSpec, SystemKind};
use besync_sweep::{sweep, Shards, SweepOptions};
use besync_verify::{check_scenario, collect, ScenarioStats, StatBaseline, Tier};

/// Counting shim over the system allocator: live-bytes plus a
/// resettable high-water mark, two relaxed atomics per call. This is
/// how the bench reports a *per-scenario* allocation peak — process
/// RSS (`VmHWM`) only ever grows, so after the `huge` scenario runs it
/// says nothing about `medium`. The peak is reset before each
/// scenario's repeats; repeats of a deterministic scenario reach the
/// same peak, so no per-repeat bookkeeping is needed.
struct CountingAlloc;

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static ALLOC_PEAK: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            let now = LIVE_BYTES.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            ALLOC_PEAK.fetch_max(now, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                let grown = new_size - layout.size();
                let now = LIVE_BYTES.fetch_add(grown, Ordering::Relaxed) + grown;
                ALLOC_PEAK.fetch_max(now, Ordering::Relaxed);
            } else {
                LIVE_BYTES.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Restarts the allocation high-water mark from the current live size.
fn reset_alloc_peak() {
    ALLOC_PEAK.store(LIVE_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
}

fn alloc_peak_bytes() -> u64 {
    ALLOC_PEAK.load(Ordering::Relaxed) as u64
}

/// Process peak resident set size, from `VmHWM` in `/proc/self/status`.
/// Monotone over the process lifetime (the kernel never lowers it), so
/// per-scenario memory attribution comes from the allocator counter
/// above; this is the coarse "what did the whole run cost the box"
/// number. Returns 0 where the procfs field is unavailable.
fn peak_rss_bytes() -> u64 {
    #[cfg(target_os = "linux")]
    {
        let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
            return 0;
        };
        for line in status.lines() {
            if let Some(rest) = line.strip_prefix("VmHWM:") {
                if let Some(kb) = rest
                    .split_whitespace()
                    .next()
                    .and_then(|v| v.parse::<u64>().ok())
                {
                    return kb * 1024;
                }
            }
        }
        0
    }
    #[cfg(not(target_os = "linux"))]
    {
        0
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fixed floating-point microbenchmark, wall-clocked: a deterministic
/// mix of the simulator's hot arithmetic (`ln`, `exp`, Welford-style
/// accumulation over a splitmix64 stream). Recorded in the bench JSON
/// as `calibration_seconds` so trajectory comparisons can tell a slower
/// *container* from a slower *tree* — a wall-clock anomaly in an early
/// trajectory point was exactly that ambiguity. Minimum of three reps: the
/// calibration must track the machine's speed, not its scheduling
/// noise.
fn calibration_seconds() -> f64 {
    let mut best = f64::INFINITY;
    for rep in 0..3u64 {
        let mut state = 0x5ca1_ab1e ^ rep;
        let mut acc = 0.0f64;
        let start = Instant::now();
        for _ in 0..1_000_000 {
            state = splitmix64(state);
            let u = (state >> 11) as f64 * (1.0 / 9_007_199_254_740_992.0);
            let gap = -(1.0 - u).ln();
            acc += (-gap).exp();
        }
        let wall = start.elapsed().as_secs_f64();
        std::hint::black_box(acc);
        best = best.min(wall);
    }
    best
}

/// Runs the scenario `repeats` times and reports the median wall clock
/// (event loop and construction separately). Reports must agree bit for
/// bit across repeats (same seed ⇒ same simulation); a mismatch aborts,
/// because it means the tree has lost determinism and its timings
/// compare nothing.
fn run_scenario(scenario: &ScenarioSpec, repeats: usize) -> ScenarioResult {
    let mut walls = Vec::with_capacity(repeats);
    let mut builds = Vec::with_capacity(repeats);
    let mut last: Option<RunReport> = None;
    // Per-scenario allocation peak: every repeat replays the same
    // simulation, so the high-water mark after the loop is the single
    // repeat's peak, not a sum.
    reset_alloc_peak();
    for _ in 0..repeats.max(1) {
        let build_start = Instant::now();
        let system = scenario.build();
        let build = build_start.elapsed().as_secs_f64();
        let start = Instant::now();
        let report = system.run();
        let wall = start.elapsed().as_secs_f64();
        builds.push(build);
        walls.push(wall);
        if let Some(field) = last.as_ref().and_then(|l| l.first_difference(&report)) {
            panic!(
                "scenario `{}` is non-deterministic across repeats: `{field}` differs",
                scenario.name
            );
        }
        last = Some(report);
    }
    let report = last.expect("at least one repeat");
    walls.sort_by(f64::total_cmp);
    builds.sort_by(f64::total_cmp);
    let wall = walls[walls.len() / 2];
    let build = builds[builds.len() / 2];
    let events = report.updates_processed + report.refreshes_sent + report.feedback_messages;
    ScenarioResult {
        name: scenario.name.clone(),
        seed: scenario.seed,
        system: scenario.system.name(),
        objects: scenario.total_objects(),
        metric: scenario.metric.name(),
        build_seconds: build,
        wall_seconds: wall,
        events,
        events_per_sec: events as f64 / wall.max(1e-12),
        report,
        mem_bytes: peak_rss_bytes(),
        alloc_peak_bytes: alloc_peak_bytes(),
        baseline_events_per_sec: None,
    }
}

struct ScenarioResult {
    name: String,
    seed: u64,
    system: &'static str,
    objects: u32,
    metric: &'static str,
    /// Median workload + system construction time (untimed region of the
    /// throughput figure, reported so 100k-scale construction can't rot).
    build_seconds: f64,
    wall_seconds: f64,
    events: u64,
    events_per_sec: f64,
    /// The in-process run's full report: the JSON counters are read from
    /// it, and the `--shards` grid must reproduce every field of it.
    report: RunReport,
    /// Process peak RSS (`VmHWM`) sampled after the scenario ran —
    /// monotone across the whole invocation, 0 off-linux.
    mem_bytes: u64,
    /// Per-scenario heap high-water mark from the counting allocator
    /// (reset before each scenario's repeats) — the number that means
    /// "this scenario needs this much memory".
    alloc_peak_bytes: u64,
    /// Filled by `--compare`: the baseline file's events/sec for this
    /// scenario, so the written JSON records the measured speedup.
    baseline_events_per_sec: Option<f64>,
}

impl ScenarioResult {
    fn to_json(&self) -> String {
        let mut s = format!(
            concat!(
                "    {{\n",
                "      \"name\": \"{}\",\n",
                "      \"seed\": {},\n",
                "      \"system\": \"{}\",\n",
                "      \"objects\": {},\n",
                "      \"metric\": \"{}\",\n",
                "      \"build_seconds\": {:.6},\n",
                "      \"wall_seconds\": {:.6},\n",
                "      \"events\": {},\n",
                "      \"events_per_sec\": {:.1},\n",
                "      \"updates\": {},\n",
                "      \"refreshes_sent\": {},\n",
                "      \"refreshes_delivered\": {},\n",
                "      \"feedback\": {},\n",
                "      \"mean_divergence\": {:.9},\n",
                "      \"mem_bytes\": {},\n",
                "      \"alloc_peak_bytes\": {}"
            ),
            self.name,
            self.seed,
            self.system,
            self.objects,
            self.metric,
            self.build_seconds,
            self.wall_seconds,
            self.events,
            self.events_per_sec,
            self.report.updates_processed,
            self.report.refreshes_sent,
            self.report.refreshes_delivered,
            self.report.feedback_messages,
            self.report.mean_divergence(),
            self.mem_bytes,
            self.alloc_peak_bytes,
        );
        if let Some(base) = self.baseline_events_per_sec {
            s.push_str(&format!(
                ",\n      \"baseline_events_per_sec\": {:.1},\n      \"speedup\": {:.3}",
                base,
                self.events_per_sec / base.max(1e-12)
            ));
        }
        s.push_str("\n    }");
        s
    }
}

/// Minimal field extractor for the bench JSON schema (our own files
/// only): finds `"key": value` inside one scenario block and returns the
/// raw value text. Not a general JSON parser — the schema is flat,
/// one-line-per-field, which is exactly what `to_json` above emits.
fn field<'a>(block: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = block.find(&pat)? + pat.len();
    let rest = block[start..].trim_start();
    let end = rest.find(['\n', ','])?;
    Some(rest[..end].trim().trim_matches('"'))
}

struct BaselineScenario {
    name: String,
    seed: u64,
    updates: u64,
    refreshes_sent: u64,
    refreshes_delivered: u64,
    feedback: u64,
    mean_divergence: f64,
    events_per_sec: f64,
    alloc_peak_bytes: u64,
}

/// Parses a `besync-bench` JSON file into per-scenario baselines.
/// Returns `(quick, scenarios)`.
fn parse_baseline(text: &str) -> Option<(bool, Vec<BaselineScenario>)> {
    let quick = field(text, "quick")? == "true";
    let mut out = Vec::new();
    let body = &text[text.find("\"scenarios\"")?..];
    for block in body.split("{\n").skip(1) {
        let parse = |key: &str| -> Option<f64> { field(block, key)?.parse().ok() };
        out.push(BaselineScenario {
            name: field(block, "name")?.to_string(),
            seed: parse("seed")? as u64,
            updates: parse("updates")? as u64,
            refreshes_sent: parse("refreshes_sent")? as u64,
            refreshes_delivered: parse("refreshes_delivered")? as u64,
            feedback: parse("feedback")? as u64,
            mean_divergence: parse("mean_divergence")?,
            events_per_sec: parse("events_per_sec")?,
            alloc_peak_bytes: field(block, "alloc_peak_bytes")?.parse().ok()?,
        });
    }
    Some((quick, out))
}

/// Compares current results against a baseline file. Counter mismatches
/// (lost determinism) are fatal; events/sec regressions beyond
/// `tolerance` are report-only. Fills each result's baseline speedup
/// field. Returns `Err(reasons)` only on determinism mismatches.
fn compare_against_baseline(
    results: &mut [ScenarioResult],
    baseline_text: &str,
    baseline_path: &str,
    quick: bool,
    tolerance: f64,
    cur_calibration: Option<f64>,
) -> Result<(), Vec<String>> {
    let Some((base_quick, baselines)) = parse_baseline(baseline_text) else {
        return Err(vec![format!("could not parse baseline {baseline_path}")]);
    };
    // Machine-speed ratio between the two recordings, when both carry a
    // calibration point: > 1 means this container is slower than the one
    // the baseline was recorded on, and raw events/sec deltas by that
    // factor are container drift, not tree regressions.
    let cal_ratio: Option<f64> = match (
        cur_calibration,
        field(baseline_text, "calibration_seconds").and_then(|v| v.parse::<f64>().ok()),
    ) {
        (Some(cur), Some(base)) if cur > 0.0 && base > 0.0 => {
            let ratio = cur / base;
            eprintln!(
                "compare: calibration {cur:.3}s vs {base:.3}s in {baseline_path} — this \
                 container runs the fixed FP workload {ratio:.2}x the baseline's wall-clock"
            );
            Some(ratio)
        }
        _ => None,
    };
    if base_quick != quick {
        eprintln!(
            "compare: baseline {baseline_path} was recorded with quick={base_quick}, this run \
             uses quick={quick}; counters are incomparable, skipping"
        );
        return Ok(());
    }
    // Baseline rows with no current counterpart mean coverage shrank
    // (a renamed/removed scenario) — say so instead of silently gating
    // less than the checked-in file records.
    for b in &baselines {
        if !results.iter().any(|r| r.name == b.name) {
            eprintln!(
                "compare: baseline scenario `{}` not in this run (renamed or filtered?); \
                 its counters were not checked",
                b.name
            );
        }
    }
    let mut mismatches = Vec::new();
    for r in results.iter_mut() {
        let Some(b) = baselines.iter().find(|b| b.name == r.name) else {
            eprintln!("compare: `{}` absent from baseline, skipping", r.name);
            continue;
        };
        if b.seed != r.seed {
            eprintln!(
                "compare: `{}` seed changed ({} -> {}), skipping",
                r.name, b.seed, r.seed
            );
            continue;
        }
        let cur = &r.report;
        let counters_match = b.updates == cur.updates_processed
            && b.refreshes_sent == cur.refreshes_sent
            && b.refreshes_delivered == cur.refreshes_delivered
            && b.feedback == cur.feedback_messages
            && (b.mean_divergence - cur.mean_divergence()).abs() < 1e-8;
        if !counters_match {
            mismatches.push(format!(
                "`{}`: counters diverge from {baseline_path} — baseline \
                 (updates {}, sent {}, delivered {}, feedback {}, div {:.9}) vs current \
                 (updates {}, sent {}, delivered {}, feedback {}, div {:.9})",
                r.name,
                b.updates,
                b.refreshes_sent,
                b.refreshes_delivered,
                b.feedback,
                b.mean_divergence,
                cur.updates_processed,
                cur.refreshes_sent,
                cur.refreshes_delivered,
                cur.feedback_messages,
                cur.mean_divergence(),
            ));
            continue;
        }
        r.baseline_events_per_sec = Some(b.events_per_sec);
        let ratio = r.events_per_sec / b.events_per_sec.max(1e-12);
        // `ratio * cal_ratio` discounts container speed drift; without a
        // calibration point on both sides the raw ratio is all there is.
        let adjusted = cal_ratio.map(|c| ratio * c);
        let adj_note = adjusted.map_or(String::new(), |a| format!(", {a:.2}x adjusted"));
        if adjusted.unwrap_or(ratio) < 1.0 - tolerance {
            // Report-only: CI runner timing noise must not fail PRs, but
            // the trajectory is visible in the log and the artifact.
            eprintln!(
                "compare: PERF REGRESSION (report-only) `{}`: {:.0} events/sec vs baseline \
                 {:.0} ({:.2}x{adj_note}, tolerance {:.0}%)",
                r.name,
                r.events_per_sec,
                b.events_per_sec,
                ratio,
                tolerance * 100.0
            );
        } else {
            eprintln!(
                "compare: `{}` {:.2}x baseline events/sec{adj_note} (ok)",
                r.name, ratio
            );
        }
        // Memory trajectory, report-only like the perf line: allocation
        // peaks are deterministic in principle but allocator-version
        // sensitive, so they inform rather than gate.
        if b.alloc_peak_bytes > 0 {
            let base_alloc = b.alloc_peak_bytes;
            let mem_ratio = r.alloc_peak_bytes as f64 / base_alloc as f64;
            let mb = 1.0 / (1024.0 * 1024.0);
            if mem_ratio > 1.0 + tolerance {
                eprintln!(
                    "compare: MEM REGRESSION (report-only) `{}`: alloc peak {:.1} MiB vs \
                     baseline {:.1} MiB ({:.2}x, tolerance {:.0}%)",
                    r.name,
                    r.alloc_peak_bytes as f64 * mb,
                    base_alloc as f64 * mb,
                    mem_ratio,
                    tolerance * 100.0
                );
            } else {
                eprintln!(
                    "compare: `{}` alloc peak {:.1} MiB, {:.2}x baseline (ok)",
                    r.name,
                    r.alloc_peak_bytes as f64 * mb,
                    mem_ratio
                );
            }
        }
    }
    if mismatches.is_empty() {
        Ok(())
    } else {
        Err(mismatches)
    }
}

/// Levenshtein edit distance, small-string flavour (scenario names are
/// short, so the O(len²) two-row DP is plenty).
fn edit_distance(a: &str, b: &str) -> usize {
    let (a, b): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// Near-matches for a misspelled `--only` name: substring hits first
/// (`larg` → `large`, `large_value`), then names within a third of the
/// requested length in edit distance, closest first.
fn suggest<'a>(wanted: &str, names: &'a [String]) -> Vec<&'a str> {
    let lower = wanted.to_lowercase();
    let mut near: Vec<(usize, &'a str)> = names
        .iter()
        .map(String::as_str)
        .filter_map(|n| {
            if !lower.is_empty() && (n.contains(&lower) || lower.contains(n)) {
                Some((0, n))
            } else {
                let d = edit_distance(&lower, n);
                (d <= (wanted.len() / 3).max(2)).then_some((d, n))
            }
        })
        .collect();
    near.sort_by_key(|&(d, n)| (d, n));
    near.into_iter().map(|(_, n)| n).take(3).collect()
}

const HELP: &str = "\
besync-bench — seeded end-to-end throughput scenarios for the paper's schedulers

usage: besync-bench [--out PATH] [--compare PATH] [--tolerance F]
                    [--only NAME] [--repeat N] [--quick] [--shards LIST]
                    [--workers pipes|tcp[://HOST:PORT]] [--spec-deadline SECS]
                    [--list] [--fault-sweep]
       besync-bench verify ...   (statistical acceptance; see `verify --help`)

  --out PATH       write results as JSON (e.g. BENCH_prN.json); never run this
                   against a checked-in baseline path in CI — write elsewhere
                   and upload as an artifact
  --compare PATH   compare against a previous --out file: events/sec deltas
                   beyond the tolerance are reported (exit 0), counter
                   mismatches hard-fail (exit 1, lost determinism); may be
                   given multiple times — one measurement run is compared
                   against every baseline, and the written speedup fields
                   refer to the last matching one
  --tolerance F    allowed fractional events/sec regression (default 0.25)
  --only NAME      run a single scenario by name
  --repeat N       repeats per scenario, median wall clock reported (default 3)
  --quick          CI smoke mode: shrunken scenarios, one repeat
  --shards LIST    after the per-scenario table, run the whole selected
                   scenario set once per comma-separated shard count (0 =
                   in-process threads, N = N worker processes), report grid
                   wall-clock, and hard-fail if any merged counter differs
                   from the in-process table (the sharded runner's
                   byte-identity contract); recorded as shards_grid in --out
  --workers KIND   worker channel for the --shards grid: `pipes` (child
                   stdio, default) or `tcp`/`tcp://HOST:PORT` (supervisor
                   listens; workers dial back with --connect). Identity
                   holds across transports
  --spec-deadline  seconds a worker may hold one spec before it is presumed
                   hung and replaced (default 600; 0 disables)
  --list           print scenario names with descriptions and exit
  --fault-sweep    print a divergence-vs-loss-rate table over the `medium`
                   regime: cooperative scheduling with degrade-to-stale vs
                   blind retransmit vs fault-aware retransmit (delivery-ack
                   loss estimator scaling the quotes), the CGM-2 poller, and
                   the omniscient ideal, all under the same seeded
                   refresh-loss lane (honours --quick; ignores the
                   measurement flags)

verification: `--compare` is the bit gate — it demands every counter a
bench JSON baseline holds be reproduced exactly, right for refactors that
promise not to move the simulation at all. `besync-bench verify` is the
statistical gate — it runs scenarios across N derived seeds and checks
metric moments against STATS_baseline.txt, the gate that survives
intentional numerics changes. See `besync-bench verify --help`.";

const VERIFY_HELP: &str = "\
besync-bench verify — statistical acceptance gate

usage: besync-bench verify [--baseline PATH] [--scenarios A,B,..] [--seeds N]
                           [--tier strict|standard|loose] [--record] [--quick]
                           [--shards N] [--workers pipes|tcp[://HOST:PORT]]
                           [--spec-deadline SECS]

Runs each scenario across N derived seeds, folds the recorded metrics into
moments, and z-checks them against the stored baseline. Right for
intentional numerics changes (solver swaps, resampled randomness) whose
physics must not move; for changes that must not move the simulation at
all, use `besync-bench --compare BENCH_*.json` instead.

  --baseline PATH  the moments file (default STATS_baseline.txt)
  --scenarios L    comma-separated scenario names (default: the four
                   medium scheduler scenarios + the four fault regimes
                   lossy/outage/lossy_aware/competitive_lossy)
  --seeds N        derived seeds per scenario (default 32)
  --tier T         acceptance tier — strict (z<=3, refactors), standard
                   (z<=4, numerics changes; default), loose (z<=6, small-N
                   smoke)
  --record         write/refresh the baseline entries instead of checking
                   (commit the file alongside the change)
  --quick          CI smoke scale; baselines store quick and full entries
                   separately
  --shards N       run the underlying sweeps over N worker processes
  --workers KIND   worker channel for --shards (pipes | tcp[://HOST:PORT])
  --spec-deadline  per-spec worker deadline in seconds (0 disables)";

/// Runs each selected scenario and prints the per-scenario table row by
/// row.
fn run_table(selected: &[ScenarioSpec], repeats: usize) -> Vec<ScenarioResult> {
    println!(
        "{:<15} {:>9} {:>8} {:>10} {:>10} {:>11} {:>12} {:>11} {:>10} {:>10}",
        "scenario",
        "system",
        "objects",
        "events",
        "build (s)",
        "wall (s)",
        "events/sec",
        "refreshes",
        "mean div",
        "alloc MiB"
    );
    let mut results = Vec::new();
    for s in selected {
        let r = run_scenario(s, repeats);
        println!(
            "{:<15} {:>9} {:>8} {:>10} {:>10.3} {:>11.3} {:>12.0} {:>11} {:>10.6} {:>10.1}",
            r.name,
            r.system,
            r.objects,
            r.events,
            r.build_seconds,
            r.wall_seconds,
            r.events_per_sec,
            r.report.refreshes_sent,
            r.report.mean_divergence(),
            r.alloc_peak_bytes as f64 / (1024.0 * 1024.0)
        );
        results.push(r);
    }
    results
}

/// `--fault-sweep`: the headline unreliable-world comparison. Sweeps
/// refresh-loss probability over the `medium` regime and prints mean
/// divergence for five schedulers under the *same* seeded loss lane:
/// coop with degrade-to-stale, coop with blind retransmit (3 s
/// deadline), coop with fault-aware retransmit (same deadline, plus the
/// delivery-ack loss estimator scaling every quote), the CGM-2 poller
/// (loses poll responses), and the omniscient ideal (loses refreshes it
/// believes it delivered). The spread between the coop columns is what
/// the recovery policy buys; aware vs blind retransmit is what pricing
/// bandwidth by delivery probability buys on top; the gap to ideal is
/// what loss costs a scheduler that cannot observe it.
fn fault_sweep(quick: bool) -> std::process::ExitCode {
    let base = by_name("medium").expect("medium scenario registered");
    let base = if quick { base.quick() } else { base };
    let systems: [(&str, SystemKind); 5] = [
        ("coop/degrade", SystemKind::Coop),
        ("coop/retransmit", SystemKind::Coop),
        ("coop/aware", SystemKind::Coop),
        ("cgm2", SystemKind::parse("cgm2").expect("cgm2 kind")),
        ("ideal", SystemKind::Ideal),
    ];
    println!(
        "fault sweep: `{}` regime, {} objects, divergence vs refresh-loss probability",
        base.name,
        base.total_objects()
    );
    println!(
        "{:>5} {:>14} {:>14} {:>14} {:>14} {:>14} {:>8} {:>8}",
        "loss", "coop/degrade", "coop/retx", "coop/aware", "cgm2", "ideal", "lost", "retx"
    );
    for &loss in &[0.0f64, 0.05, 0.1, 0.2, 0.3, 0.4] {
        let mut row: Vec<f64> = Vec::with_capacity(5);
        let mut lost = 0u64;
        let mut retx = 0u64;
        for (label, system) in &systems {
            let mut spec = base.clone();
            spec.system = *system;
            let retransmit = matches!(*label, "coop/retransmit" | "coop/aware");
            // loss == 0 runs the fault-free path (`None`), so the first
            // row doubles as the clean yardstick for every column.
            spec.fault = (loss > 0.0).then(|| FaultProfile {
                loss_prob: loss,
                recovery: if retransmit {
                    RecoveryPolicy::Retransmit { deadline: 3.0 }
                } else {
                    RecoveryPolicy::DegradeStale
                },
                aware: *label == "coop/aware",
                ..FaultProfile::default()
            });
            let report = spec.run();
            row.push(report.mean_divergence());
            if *label == "coop/degrade" {
                lost = report.faults.lost_refreshes;
            }
            if *label == "coop/aware" {
                retx = report.faults.retransmits;
            }
        }
        println!(
            "{:>5.2} {:>14.6} {:>14.6} {:>14.6} {:>14.6} {:>14.6} {:>8} {:>8}",
            loss, row[0], row[1], row[2], row[3], row[4], lost, retx
        );
    }
    std::process::ExitCode::SUCCESS
}

fn main() -> std::process::ExitCode {
    // Hidden worker mode: when the sweep supervisor re-execs this binary
    // it must become a protocol worker before any argument parsing.
    if std::env::args().nth(1).as_deref() == Some(besync_sweep::WORKER_FLAG) {
        return besync_sweep::worker_main();
    }
    if std::env::args().nth(1).as_deref() == Some("verify") {
        return verify_main(std::env::args().skip(2).collect());
    }
    let mut out: Option<String> = None;
    let mut compare: Vec<String> = Vec::new();
    let mut tolerance = 0.25;
    let mut only: Option<String> = None;
    let mut quick = false;
    let mut want_fault_sweep = false;
    let mut repeats: Option<usize> = None;
    let mut shards_grid: Vec<Shards> = Vec::new();
    let mut sweep_opts = SweepOptions::default();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out = args.next(),
            "--compare" => match args.next() {
                Some(path) => compare.push(path),
                None => {
                    eprintln!("--compare needs a baseline path");
                    return std::process::ExitCode::FAILURE;
                }
            },
            "--tolerance" => match args.next().and_then(|v| v.parse().ok()) {
                Some(t) if (0.0..1.0).contains(&t) => tolerance = t,
                _ => {
                    eprintln!("--tolerance needs a fraction in [0, 1)");
                    return std::process::ExitCode::FAILURE;
                }
            },
            "--only" => only = args.next(),
            "--repeat" => match args.next().and_then(|v| v.parse().ok()).filter(|&n| n > 0) {
                Some(n) => repeats = Some(n),
                None => {
                    eprintln!("--repeat needs a positive integer");
                    return std::process::ExitCode::FAILURE;
                }
            },
            "--quick" => quick = true,
            "--fault-sweep" => want_fault_sweep = true,
            "--shards" => {
                let list = args.next().unwrap_or_default();
                match Shards::parse_list(&list) {
                    Ok(v) => shards_grid = v,
                    Err(e) => {
                        eprintln!("--shards: {e}");
                        return std::process::ExitCode::FAILURE;
                    }
                }
            }
            flag @ ("--workers" | "--spec-deadline") => {
                let v = args.next().unwrap_or_default();
                if let Err(e) = sweep_opts.apply_flag(flag, &v) {
                    eprintln!("{e}");
                    return std::process::ExitCode::FAILURE;
                }
            }
            "--list" => {
                let scenarios = suite();
                let width = scenarios.iter().map(|s| s.name.len()).max().unwrap_or(0);
                for s in &scenarios {
                    println!("{:<width$}  {}", s.name, s.description);
                }
                return std::process::ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                println!("{HELP}");
                return std::process::ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unexpected argument `{other}`\n{HELP}");
                return std::process::ExitCode::FAILURE;
            }
        }
    }

    if want_fault_sweep {
        return fault_sweep(quick);
    }

    let selected: Vec<ScenarioSpec> = suite()
        .into_iter()
        .filter(|s| only.as_deref().is_none_or(|o| o == s.name))
        .map(|s| if quick { s.quick() } else { s })
        .collect();
    if selected.is_empty() {
        let wanted = only.unwrap_or_default();
        let names: Vec<String> = suite().into_iter().map(|s| s.name).collect();
        let near = suggest(&wanted, &names);
        if near.is_empty() {
            eprintln!("no scenario named `{wanted}` (see --list)");
        } else {
            eprintln!(
                "no scenario named `{wanted}`; did you mean {}? (see --list)",
                near.join(" or ")
            );
        }
        return std::process::ExitCode::FAILURE;
    }

    // Quick mode defaults to a single repeat, but an explicit --repeat
    // wins (CI uses that to cross-check determinism cheaply).
    let repeats = repeats.unwrap_or(if quick { 1 } else { 3 });
    let mut results = run_table(&selected, repeats);

    // Only pay the ~0.3s calibration when something will read it.
    let calibration = (out.is_some() || !compare.is_empty()).then(calibration_seconds);

    let mut failed = false;

    // Sharded grid wall-clock: the whole selected set, once per shard
    // count. Every merged counter must match the in-process table above
    // bit for bit — the sweep runner's byte-identity contract, checked
    // here across real worker processes on every invocation that asks.
    let mut shard_points: Vec<(u32, f64)> = Vec::new();
    for &shards in &shards_grid {
        let opts = SweepOptions {
            shards,
            ..sweep_opts.clone()
        };
        let start = Instant::now();
        let outcomes = match sweep(&selected, &opts).map(|run| run.into_outcomes()) {
            Ok(o) => o,
            Err(e) => {
                eprintln!(
                    "error: sharded sweep (shards={}) failed: {e}",
                    shards.count()
                );
                return std::process::ExitCode::FAILURE;
            }
        };
        let wall = start.elapsed().as_secs_f64();
        for (r, o) in results.iter().zip(&outcomes) {
            // Any field differing from the in-process report means the
            // worker pipeline (codec, protocol, merge order) changed the
            // simulation — lost determinism.
            if let Some(field) = r.report.first_difference(&o.report) {
                eprintln!(
                    "shards={}: DETERMINISM MISMATCH `{}`: `{field}` differs between the \
                     in-process and the sharded report",
                    shards.count(),
                    r.name
                );
                failed = true;
            }
        }
        println!(
            "shards={:<2} grid wall-clock {:>8.3}s over {} scenarios",
            shards.count(),
            wall,
            selected.len()
        );
        shard_points.push((shards.count(), wall));
    }

    for path in compare {
        match std::fs::read_to_string(&path) {
            Ok(text) => {
                if let Err(mismatches) = compare_against_baseline(
                    &mut results,
                    &text,
                    &path,
                    quick,
                    tolerance,
                    calibration,
                ) {
                    for m in &mismatches {
                        eprintln!("compare: DETERMINISM MISMATCH {m}");
                    }
                    failed = true;
                }
            }
            Err(e) => {
                eprintln!("error: could not read baseline {path}: {e}");
                failed = true;
            }
        }
    }

    if let Some(path) = out {
        let body: Vec<String> = results.iter().map(ScenarioResult::to_json).collect();
        // shards_grid precedes "scenarios" on purpose: the baseline
        // parser scans scenario blocks from the "scenarios" key onward.
        let shards_json = if shard_points.is_empty() {
            String::new()
        } else {
            let entries: Vec<String> = shard_points
                .iter()
                .map(|(n, w)| format!("    {{ \"shards\": {n}, \"wall_seconds\": {w:.6} }}"))
                .collect();
            format!("  \"shards_grid\": [\n{}\n  ],\n", entries.join(",\n"))
        };
        let json = format!(
            "{{\n  \"schema\": \"besync-bench/v6\",\n  \"quick\": {},\n  \"calibration_seconds\": {:.6},\n{}  \"scenarios\": [\n{}\n  ]\n}}\n",
            quick,
            calibration.unwrap_or_else(calibration_seconds),
            shards_json,
            body.join(",\n")
        );
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("error: could not write {path}: {e}");
            return std::process::ExitCode::FAILURE;
        }
        eprintln!("wrote {path}");
    }
    if failed {
        std::process::ExitCode::FAILURE
    } else {
        std::process::ExitCode::SUCCESS
    }
}

/// Default scenario set for `verify`: the headline coop scenario plus
/// one per figure-regeneration scheduler (so the gate covers every
/// system kind the optimizations touch) plus the medium fault regimes
/// (so it also covers the loss and outage physics, the fault-aware
/// estimator, and lossy competitive splits).
const STATS_SCENARIOS: &str = "medium,ideal_medium,cgm1_medium,cgm2_medium,\
     lossy_medium,outage_medium,lossy_aware_medium,competitive_lossy";

/// Default stats baseline path, repo-root-relative (like BENCH_*.json).
const STATS_BASELINE: &str = "STATS_baseline.txt";

/// The `verify` subcommand: the statistical acceptance tier.
fn verify_main(argv: Vec<String>) -> std::process::ExitCode {
    let fail = |msg: &str| {
        eprintln!("{msg}\n{VERIFY_HELP}");
        std::process::ExitCode::FAILURE
    };
    let mut baseline: Option<String> = None;
    let mut scenarios = STATS_SCENARIOS.to_string();
    let mut seeds: u32 = 32;
    let mut tier = Tier::Standard;
    let mut record = false;
    let mut quick = false;
    let mut opts = SweepOptions::default();
    let mut args = argv.into_iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--baseline" => match args.next() {
                Some(p) if baseline.is_none() => baseline = Some(p),
                Some(_) => return fail("verify takes at most one --baseline"),
                None => return fail("--baseline needs a path"),
            },
            "--scenarios" => match args.next() {
                Some(list) => scenarios = list,
                None => return fail("--scenarios needs a comma-separated list"),
            },
            "--seeds" => match args.next().and_then(|v| v.parse().ok()).filter(|&n| n > 0) {
                Some(n) => seeds = n,
                None => return fail("--seeds needs a positive integer"),
            },
            "--tier" => match args.next().and_then(|v| Tier::parse(&v)) {
                Some(t) => tier = t,
                None => return fail("--tier needs strict, standard, or loose"),
            },
            "--record" => record = true,
            "--quick" => quick = true,
            flag @ ("--shards" | "--workers" | "--spec-deadline") => {
                if let Err(e) = opts.apply_flag(flag, &args.next().unwrap_or_default()) {
                    return fail(&e);
                }
            }
            "--help" | "-h" => {
                println!("{VERIFY_HELP}");
                return std::process::ExitCode::SUCCESS;
            }
            other => return fail(&format!("unexpected argument `{other}`")),
        }
    }
    let path = baseline.as_deref().unwrap_or(STATS_BASELINE);
    verify_stats(&scenarios, seeds, quick, tier, record, path.as_ref(), &opts)
}

/// Statistical acceptance — metric moments across derived seeds against
/// the stored stats baseline.
fn verify_stats(
    scenarios: &str,
    seeds: u32,
    quick: bool,
    tier: Tier,
    record: bool,
    path: &std::path::Path,
    opts: &SweepOptions,
) -> std::process::ExitCode {
    let names: Vec<&str> = scenarios.split(',').filter(|s| !s.is_empty()).collect();
    if names.is_empty() {
        eprintln!("verify: no scenarios selected");
        return std::process::ExitCode::FAILURE;
    }
    let mut collected: Vec<ScenarioStats> = Vec::new();
    for name in &names {
        let Some(base) = by_name(name) else {
            eprintln!("verify[stats]: no scenario named `{name}` (see --list)");
            return std::process::ExitCode::FAILURE;
        };
        let start = Instant::now();
        match collect(&base, seeds, quick, opts) {
            Ok(stats) => {
                let div = stats
                    .metrics
                    .iter()
                    .find(|(n, _)| n == "mean_divergence")
                    .map(|(_, s)| (s.mean(), s.std_dev()))
                    .unwrap_or((f64::NAN, f64::NAN));
                eprintln!(
                    "verify[stats]: collected `{name}` × {seeds} seeds in {:.1}s \
                     (divergence {:.6} ± {:.6})",
                    start.elapsed().as_secs_f64(),
                    div.0,
                    div.1
                );
                collected.push(stats);
            }
            Err(e) => {
                eprintln!("verify[stats]: sweep failed for `{name}`: {e}");
                return std::process::ExitCode::FAILURE;
            }
        }
    }
    if record {
        let mut baseline = if path.exists() {
            match StatBaseline::load(path) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("verify[stats]: {e}");
                    return std::process::ExitCode::FAILURE;
                }
            }
        } else {
            StatBaseline::default()
        };
        for stats in collected {
            baseline.upsert(stats);
        }
        if let Err(e) = baseline.save(path) {
            eprintln!("verify[stats]: {e}");
            return std::process::ExitCode::FAILURE;
        }
        eprintln!(
            "verify[stats]: recorded {} scenario(s) × {seeds} seeds (quick={quick}) to {}",
            names.len(),
            path.display()
        );
        return std::process::ExitCode::SUCCESS;
    }
    let baseline = match StatBaseline::load(path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("verify[stats]: {e} (record one with --record)");
            return std::process::ExitCode::FAILURE;
        }
    };
    let mut checks = 0usize;
    let mut failures = 0usize;
    for stats in &collected {
        let Some(entry) = baseline.get(&stats.scenario, quick) else {
            eprintln!(
                "FAIL {}: no baseline entry at quick={quick} in {} (record one with --record)",
                stats.scenario,
                path.display()
            );
            failures += 1;
            continue;
        };
        for r in check_scenario(stats, entry, tier) {
            checks += 1;
            let verdict = if r.pass { "PASS" } else { "FAIL" };
            println!("{verdict} {}/{}: {}", r.scenario, r.metric, r.detail);
            if !r.pass {
                failures += 1;
            }
        }
    }
    if failures > 0 {
        eprintln!(
            "verify[stats]: FAILED — {failures} failure(s) over {checks} check(s) at tier {}",
            tier.name()
        );
        std::process::ExitCode::FAILURE
    } else {
        eprintln!(
            "verify[stats]: ok — {checks} check(s) passed at tier {} across {} scenario(s) × {seeds} seeds",
            tier.name(),
            names.len()
        );
        std::process::ExitCode::SUCCESS
    }
}
