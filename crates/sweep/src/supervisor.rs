//! The supervisor side: spawn workers, stream specs, merge reports.
//!
//! See the crate docs for the determinism contract. Implementation
//! shape: one OS thread per worker reads that worker's reply stream and
//! forwards lines (tagged with the worker's slot and incarnation) into
//! one mpsc channel; the supervisor loop owns all state — the pending
//! queue, per-worker in-flight sets, and the result slots — so there is
//! no shared-state locking anywhere. Stale messages from a killed
//! incarnation are discarded by tag.
//!
//! # The robustness layer
//!
//! The loop waits on its channel with a timeout and runs a timer pass
//! after every wake-up, which is where the fault model lives:
//!
//! * **Per-spec deadline** — the spec at the head of a worker's
//!   pipeline gets [`SweepOptions::spec_deadline`] of service time;
//!   exceeding it means the worker hung mid-simulation (the `hang`
//!   fault class) and the slot is killed and respawned.
//! * **Heartbeats** — after [`SweepOptions::heartbeat_interval`] of
//!   silence from a worker that owes replies, the supervisor sends
//!   `PING`; a worker whose I/O thread is alive answers immediately
//!   even while computing. No `PONG` within
//!   [`SweepOptions::heartbeat_timeout`] means the *process* is frozen
//!   (stopped, swapped out, or otherwise silent) — killed without waiting
//!   for the full deadline.
//! * **Backoff** — respawns wait out a seeded-deterministic
//!   exponential-with-jitter delay ([`crate::BackoffPolicy`]), so a
//!   crash-looping worker command can't melt the host. Nothing
//!   time-derived feeds the merge, so byte-identity holds.
//! * **Graceful degradation** — each slot has a respawn budget
//!   ([`SweepOptions::max_respawns`]). A slot that exhausts it is
//!   *retired*, not fatal: its specs return to the queue, surviving
//!   workers absorb them, and whatever is left when every slot is dead
//!   runs in-process. The sweep then still succeeds, byte-identical,
//!   with the damage reported in [`SweepSummary::degraded`].

use std::collections::VecDeque;
use std::io::{BufRead, BufReader};
use std::process::Command;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

use besync_scenarios::{codec, ScenarioSpec};

use crate::options::{Shards, SweepOptions, WorkerSpawn};
use crate::outcome::{DegradedSlot, SweepError, SweepOutcome, SweepRun, SweepSummary};
use crate::pool::{default_threads, parallel_map};
use crate::protocol::{self, Response};
use crate::transport::{StderrTail, WorkerProcess};
use crate::worker::{FAULT_ENV, WORKER_FLAG};

/// Runs every spec and returns the finished [`SweepRun`]: outcomes **in
/// input order** — the supervisor's whole point — plus the robustness
/// [`SweepSummary`]. A spec its system kind cannot run
/// ([`ScenarioSpec::check`]) fails the sweep before anything runs; past
/// that, [`Shards::InProcess`] cannot fail, while [`Shards::Workers`]
/// spawns processes and can. Call [`SweepRun::into_outcomes`] to print
/// the summary and keep just the outcomes.
pub fn sweep(specs: &[ScenarioSpec], opts: &SweepOptions) -> Result<SweepRun, SweepError> {
    for spec in specs {
        spec.check().map_err(|message| SweepError::Encode {
            scenario: spec.name.clone(),
            message,
        })?;
    }
    match opts.shards {
        Shards::Workers(n) if !specs.is_empty() => run_sharded(specs, n as usize, opts),
        // In-process, or nothing to shard.
        _ => Ok(SweepRun {
            outcomes: run_in_process(specs.iter()),
            summary: SweepSummary::default(),
        }),
    }
}

/// Builds and runs one spec, timing the phases separately.
pub(crate) fn run_spec(spec: &ScenarioSpec) -> SweepOutcome {
    let build_start = Instant::now();
    let system = spec.build();
    let build_seconds = build_start.elapsed().as_secs_f64();
    let run_start = Instant::now();
    let report = system.run();
    SweepOutcome {
        report,
        build_seconds,
        wall_seconds: run_start.elapsed().as_secs_f64(),
    }
}

fn run_in_process<'a>(specs: impl Iterator<Item = &'a ScenarioSpec>) -> Vec<SweepOutcome> {
    parallel_map(specs.collect(), default_threads(), run_spec)
}

/// Backpressure bound: specs in flight per worker. The supervisor keeps
/// a worker's pipeline at most this deep, so a crash loses at most
/// `WINDOW` specs and slow workers can't hoard the queue.
const WINDOW: usize = 2;

/// How long a fault waits for a killed worker's stderr to drain into its
/// tail. The reaped process has closed the pipe, so this is normally
/// immediate; the bound only matters if something else still holds it.
const STDERR_DRAIN_LIMIT: Duration = Duration::from_secs(2);

/// Channel traffic from reader threads to the supervisor loop: one
/// reply line from worker `slot`'s incarnation `incarnation`, or `None`
/// when its reply stream closed (crash, or clean exit at shutdown).
struct Msg {
    slot: usize,
    incarnation: u64,
    line: Option<String>,
}

/// One worker process slot.
struct Slot {
    /// The worker process and its request pipe (killed and reaped on
    /// drop, so early error returns never leak children).
    link: WorkerProcess,
    /// Rolling tail of the worker's stderr for crash diagnostics.
    stderr: StderrTail,
    /// Bumped on every respawn; messages tagged with an older value are
    /// from a killed predecessor and are discarded.
    incarnation: u64,
    /// Seqs dispatched but not yet reported, in dispatch order.
    in_flight: Vec<usize>,
    /// When the current head of `in_flight` started being serviced —
    /// the per-spec deadline clock.
    front_since: Option<Instant>,
    /// Last time any line arrived from this worker.
    last_line: Instant,
    /// Outstanding heartbeat, if any: `(beat, sent_at)`.
    ping: Option<(u64, Instant)>,
    /// Heartbeat counter (monotone per slot; echoed back in `PONG`).
    beats: u64,
    /// Faults this slot has suffered (== respawns consumed, until the
    /// budget-breaking fault that retires it).
    faults: usize,
    /// `Some` marks the slot *down*: its worker was killed and the
    /// replacement may not spawn before this backoff edge (handled in
    /// the timer pass — sleeping inline would stall timers and message
    /// processing for every other slot). Down slots are skipped by
    /// dispatch, and channel messages still in flight from the killed
    /// incarnation are discarded.
    respawn_at: Option<Instant>,
    /// Retired: no longer dispatched to, process already killed.
    dead: bool,
}

struct Supervisor<'a> {
    opts: &'a SweepOptions,
    /// Encoded (unescaped) codec text per spec, index = seq.
    payloads: Vec<String>,
    tx: Sender<Msg>,
    rx: Receiver<Msg>,
    slots: Vec<Slot>,
    /// Seqs not yet dispatched (or returned by a crash), front first.
    pending: VecDeque<usize>,
    results: Vec<Option<SweepOutcome>>,
    done: usize,
    summary: SweepSummary,
}

fn run_sharded(
    specs: &[ScenarioSpec],
    shards: usize,
    opts: &SweepOptions,
) -> Result<SweepRun, SweepError> {
    // Encode everything up front: an unencodable spec is a caller bug
    // and must surface before any process is spawned.
    let payloads: Vec<String> = specs
        .iter()
        .map(|s| {
            codec::encode(s).map_err(|message| SweepError::Encode {
                scenario: s.name.clone(),
                message,
            })
        })
        .collect::<Result<_, _>>()?;

    let workers = shards.clamp(1, specs.len());
    let (tx, rx) = channel();
    let mut sup = Supervisor {
        opts,
        payloads,
        tx,
        rx,
        slots: Vec::with_capacity(workers),
        pending: (0..specs.len()).collect(),
        results: specs.iter().map(|_| None).collect(),
        done: 0,
        summary: SweepSummary::default(),
    };
    for slot in 0..workers {
        // An initial spawn failure is a hard error: nothing was lost
        // yet and the worker command is clearly unusable.
        let s = sup
            .spawn_slot(slot, 0)
            .map_err(|message| SweepError::Spawn { message })?;
        sup.slots.push(s);
    }
    sup.run()?;

    // Graceful degradation endgame: every slot retired with work still
    // queued — finish it here. Retirement already returned each dead
    // slot's in-flight specs to `pending`, so `pending` is exactly the
    // unfilled set.
    if sup.done < sup.results.len() {
        let leftover: Vec<usize> = std::mem::take(&mut sup.pending).into();
        debug_assert_eq!(leftover.len(), sup.results.len() - sup.done);
        sup.summary.drained_in_process = leftover.len();
        let local = run_in_process(leftover.iter().map(|&i| &specs[i]));
        for (seq, outcome) in leftover.into_iter().zip(local) {
            debug_assert!(sup.results[seq].is_none());
            sup.results[seq] = Some(outcome);
            sup.done += 1;
        }
    }

    // Graceful shutdown: close every live input, let workers exit on
    // EOF, reap them.
    for slot in &mut sup.slots {
        if !slot.dead {
            slot.link.close_input();
        }
    }
    for slot in &mut sup.slots {
        slot.link.wait();
    }
    Ok(SweepRun {
        outcomes: sup
            .results
            .into_iter()
            .map(|r| r.expect("supervisor loop ended with an unfilled slot"))
            .collect(),
        summary: sup.summary,
    })
}

/// A reply line can't legitimately exceed a few kilobytes (the largest
/// payload is one encoded `RunReport`), so anything near this bound is a
/// hostile or broken worker flooding its pipe. Bounding the read keeps
/// such a worker from hanging the supervisor on a newline-free stream —
/// it becomes an ordinary fault (kill, respawn, budget) instead.
const MAX_REPLY_BYTES: usize = 1 << 20;

/// Reads one `\n`-terminated line (newline excluded) into `buf`.
/// Returns `Ok(true)` for a line (a partial line at EOF counts — its
/// parse failure is the right outcome for a worker that died
/// mid-write), `Ok(false)` for clean EOF, and an error if the line
/// exceeds `max` bytes before a newline shows up.
fn read_line_bounded(
    reader: &mut impl BufRead,
    buf: &mut Vec<u8>,
    max: usize,
) -> std::io::Result<bool> {
    loop {
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            return Ok(!buf.is_empty());
        }
        if let Some(pos) = chunk.iter().position(|&b| b == b'\n') {
            buf.extend_from_slice(&chunk[..pos]);
            reader.consume(pos + 1);
            return Ok(true);
        }
        buf.extend_from_slice(chunk);
        let consumed = chunk.len();
        reader.consume(consumed);
        if buf.len() > max {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "reply line exceeds the protocol bound",
            ));
        }
    }
}

/// Floor/ceiling for the supervisor's timer tick so the loop neither
/// spins nor oversleeps a deadline by much.
const MIN_TICK: Duration = Duration::from_millis(2);
const MAX_TICK: Duration = Duration::from_millis(500);

impl Supervisor<'_> {
    /// Spawns (or respawns) the worker for `slot`.
    fn spawn_slot(&mut self, slot: usize, incarnation: u64) -> Result<Slot, String> {
        let mut cmd = match &self.opts.worker {
            WorkerSpawn::CurrentExe => {
                let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
                let mut c = Command::new(exe);
                c.arg(WORKER_FLAG);
                c
            }
            WorkerSpawn::Command(program, args) => {
                let mut c = Command::new(program);
                c.args(args);
                c
            }
        };
        if incarnation == 0 {
            for (k, v) in &self.opts.worker_env {
                cmd.env(k, v);
            }
        } else {
            // Respawned replacements never inherit fault injection —
            // neither the explicit per-sweep env nor anything leaking in
            // from the supervisor's own environment.
            cmd.env_remove(FAULT_ENV);
            for (k, _) in &self.opts.worker_env {
                cmd.env_remove(k);
            }
        }
        let (link, stdout, stderr) = WorkerProcess::spawn(cmd).map_err(|e| e.to_string())?;
        let stderr = StderrTail::tail(stderr);
        let tx = self.tx.clone();
        let send = move |line| {
            tx.send(Msg {
                slot,
                incarnation,
                line,
            })
        };
        std::thread::spawn(move || {
            let mut reader = BufReader::new(stdout);
            let mut buf = Vec::with_capacity(4096);
            loop {
                buf.clear();
                // EOF, oversized reply, or read error: all end this
                // incarnation — the supervisor treats the closed stream
                // as a fault if work remains.
                let Ok(true) = read_line_bounded(&mut reader, &mut buf, MAX_REPLY_BYTES) else {
                    break;
                };
                // Invalid UTF-8 decodes lossily; the resulting parse
                // failure surfaces as a worker fault, which is right.
                if send(Some(String::from_utf8_lossy(&buf).into_owned())).is_err() {
                    return; // supervisor gone; just unwind
                }
            }
            let _ = send(None);
        });
        Ok(Slot {
            link,
            stderr,
            incarnation,
            in_flight: Vec::new(),
            front_since: None,
            last_line: Instant::now(),
            ping: None,
            beats: 0,
            faults: 0,
            respawn_at: None,
            dead: false,
        })
    }

    fn run(&mut self) -> Result<(), SweepError> {
        for slot in 0..self.slots.len() {
            self.dispatch(slot)?;
        }
        while self.done < self.results.len() {
            if self.slots.iter().all(|s| s.dead) {
                // Fully degraded: the caller drains the rest in-process.
                return Ok(());
            }
            match self.rx.recv_timeout(self.next_tick()) {
                Ok(msg) => {
                    let s = &mut self.slots[msg.slot];
                    if s.dead || s.respawn_at.is_some() || s.incarnation != msg.incarnation {
                        continue; // stale message from a killed predecessor
                    }
                    match msg.line {
                        Some(line) => {
                            s.last_line = Instant::now();
                            self.handle_line(msg.slot, &line)?;
                        }
                        // EOF with the sweep unfinished is a crash. (A
                        // worker that is merely idle keeps its channel
                        // open and does not EOF; clean exits only happen
                        // after shutdown.)
                        None => self.fault(msg.slot, "worker exited early")?,
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    unreachable!("supervisor holds a sender; recv cannot disconnect")
                }
            }
            self.check_timers()?;
        }
        Ok(())
    }

    /// How long the loop may sleep before the next deadline/heartbeat
    /// edge on any live, busy slot.
    fn next_tick(&self) -> Duration {
        let now = Instant::now();
        let mut next: Option<Instant> = None;
        let mut upd = |t: Instant| {
            next = Some(match next {
                Some(cur) if cur <= t => cur,
                _ => t,
            });
        };
        for s in self.slots.iter().filter(|s| !s.dead) {
            if let Some(at) = s.respawn_at {
                // A down slot's only timer is its backoff edge.
                upd(at);
                continue;
            }
            if s.in_flight.is_empty() {
                continue; // nothing owed; nothing to time out
            }
            if let (Some(deadline), Some(front)) = (self.opts.spec_deadline, s.front_since) {
                upd(front + deadline);
            }
            match s.ping {
                Some((_, sent)) => upd(sent + self.opts.heartbeat_timeout),
                None => upd(s.last_line + self.opts.heartbeat_interval),
            }
        }
        match next {
            Some(t) => t.saturating_duration_since(now).clamp(MIN_TICK, MAX_TICK),
            None => MAX_TICK,
        }
    }

    /// The timer pass: per-spec deadlines and heartbeat escalation.
    fn check_timers(&mut self) -> Result<(), SweepError> {
        let opts = self.opts;
        for slot in 0..self.slots.len() {
            if self.slots[slot].dead {
                continue;
            }
            if let Some(at) = self.slots[slot].respawn_at {
                // Down, waiting out its backoff: no process to time
                // out; spawn the replacement once the edge passes.
                if Instant::now() >= at {
                    self.respawn(slot)?;
                }
                continue;
            }
            let s = &mut self.slots[slot];
            if s.in_flight.is_empty() {
                continue;
            }
            if let (Some(deadline), Some(front)) = (opts.spec_deadline, s.front_since) {
                if front.elapsed() >= deadline {
                    let seq = s.in_flight[0];
                    self.fault(
                        slot,
                        &format!(
                            "spec {seq} exceeded its {:.1}s deadline (worker hung or overloaded)",
                            deadline.as_secs_f64()
                        ),
                    )?;
                    continue;
                }
            }
            match s.ping {
                Some((beat, sent)) => {
                    if sent.elapsed() >= opts.heartbeat_timeout {
                        self.fault(
                            slot,
                            &format!(
                                "no PONG {beat} within {:.1}s (worker frozen or partitioned)",
                                opts.heartbeat_timeout.as_secs_f64()
                            ),
                        )?;
                    }
                }
                None => {
                    if s.last_line.elapsed() >= opts.heartbeat_interval {
                        let beat = s.beats;
                        s.beats += 1;
                        s.ping = Some((beat, Instant::now()));
                        if s.link.write_line(&protocol::format_ping(beat)).is_err() {
                            self.fault(slot, "worker channel closed (ping)")?;
                        }
                    }
                }
            }
        }
        Ok(())
    }

    fn handle_line(&mut self, slot: usize, line: &str) -> Result<(), SweepError> {
        match protocol::parse_response(line) {
            Ok(Response::Report {
                seq,
                build_seconds,
                wall_seconds,
                report_text,
            }) => {
                let Some(pos) = self.slots[slot].in_flight.iter().position(|&s| s == seq) else {
                    // A seq we never dispatched to this worker (or a
                    // duplicate of an acknowledged one): hostile.
                    return self.fault(slot, &format!("unexpected report for spec {seq}"));
                };
                let report = match codec::decode_report(&report_text) {
                    Ok(r) => r,
                    Err(e) => {
                        return self.fault(slot, &format!("undecodable report for spec {seq}: {e}"))
                    }
                };
                let s = &mut self.slots[slot];
                s.in_flight.remove(pos);
                if pos == 0 {
                    // The head was served; the next spec's service (and
                    // deadline) clock starts now.
                    s.front_since = (!s.in_flight.is_empty()).then(Instant::now);
                }
                // At-most-once per report slot: `in_flight` sets are
                // disjoint and resubmission only happens for
                // unacknowledged seqs, so this slot is always empty —
                // but a hostile double-report must still not double-count.
                if self.results[seq].is_none() {
                    self.results[seq] = Some(SweepOutcome {
                        report,
                        build_seconds,
                        wall_seconds,
                    });
                    self.done += 1;
                }
                self.dispatch(slot)
            }
            Ok(Response::Pong { beat }) => {
                let s = &mut self.slots[slot];
                if s.ping.map(|(b, _)| b) == Some(beat) {
                    s.ping = None;
                }
                // A stale or unsolicited PONG still proved liveness via
                // `last_line`; nothing else to do.
                Ok(())
            }
            Ok(Response::Err { seq, message }) => Err(SweepError::Worker {
                seq,
                message,
                stderr_tail: self.slots[slot].stderr.snapshot(),
            }),
            Err(e) => self.fault(slot, &format!("unparseable reply: {e}")),
        }
    }

    /// Tops worker `slot`'s pipeline up to the in-flight window.
    /// No-op for retired slots and for down slots awaiting respawn.
    fn dispatch(&mut self, slot: usize) -> Result<(), SweepError> {
        if self.slots[slot].dead || self.slots[slot].respawn_at.is_some() {
            return Ok(());
        }
        while self.slots[slot].in_flight.len() < WINDOW {
            let Some(seq) = self.pending.pop_front() else {
                return Ok(());
            };
            let line = protocol::format_request(seq, &self.payloads[seq]);
            let s = &mut self.slots[slot];
            if s.link.write_line(&line).is_ok() {
                if s.in_flight.is_empty() {
                    s.front_since = Some(Instant::now());
                }
                s.in_flight.push(seq);
            } else {
                // The channel is gone — the worker died between replies.
                // Give the seq back before respawning so it is counted
                // as lost-and-resubmitted exactly once.
                self.pending.push_front(seq);
                return self.fault(slot, "worker channel closed mid-sweep");
            }
        }
        Ok(())
    }

    /// Kills worker `slot`, resubmits its lost specs, and either
    /// schedules its respawn (after the backoff delay, via the timer
    /// pass — never an inline sleep, which would stall timers and
    /// message processing for every other slot and could misread a
    /// queued-but-unread `PONG` as a heartbeat timeout) or retires it
    /// when its budget is spent. Retirement is *not* an error —
    /// surviving slots (ultimately the in-process drain) absorb the
    /// work.
    ///
    /// Recursion note: `fault` tops up every surviving slot, and
    /// `dispatch` can fault another slot whose channel died; the depth
    /// is bounded by the per-slot budgets.
    fn fault(&mut self, slot: usize, reason: &str) -> Result<(), SweepError> {
        if self.slots[slot].dead {
            return Ok(());
        }
        let s = &mut self.slots[slot];
        s.faults += 1;
        s.link.kill();
        s.ping = None;
        s.front_since = None;
        // Resubmit lost specs at the head of the queue in their original
        // order: the earliest unfilled report slots are the ones the
        // merge is waiting on. Only unacknowledged seqs are in flight, so
        // no spec can ever run for an already-filled slot (at-most-once).
        let lost = std::mem::take(&mut s.in_flight);
        debug_assert!(lost.iter().all(|&seq| self.results[seq].is_none()));
        for &seq in lost.iter().rev() {
            self.pending.push_front(seq);
        }
        let (faults, tail) = (s.faults, s.stderr.final_snapshot(STDERR_DRAIN_LIMIT));
        eprintln!("sweep: worker slot {slot} fault #{faults}: {reason}");
        for line in &tail {
            eprintln!("sweep: worker slot {slot} stderr| {line}");
        }

        if faults > self.opts.max_respawns {
            // Budget spent: retire the slot instead of failing the
            // sweep. (`faults - 1` respawns actually happened; this
            // fault consumed the would-be-next one.)
            self.slots[slot].dead = true;
            self.slots[slot].respawn_at = None;
            self.summary.degraded.push(DegradedSlot {
                slot,
                respawns: faults - 1,
                last_fault: reason.to_string(),
                stderr_tail: tail,
            });
            eprintln!(
                "sweep: worker slot {slot} retired after {} respawn(s); \
                 remaining work shifts to surviving workers",
                faults - 1
            );
        } else {
            let delay = self.opts.backoff.delay(slot, faults - 1);
            self.slots[slot].respawn_at = Some(Instant::now() + delay);
        }
        // The returned specs must be absorbed *now*: an idle surviving
        // worker has no future report to trigger its own dispatch, and
        // the in-process drain only runs once every slot is dead — so
        // without this top-up a retirement (or a long backoff) with
        // idle survivors would strand the specs and hang the sweep.
        for s in 0..self.slots.len() {
            self.dispatch(s)?;
        }
        Ok(())
    }

    /// Spawns the replacement for a down slot whose backoff edge has
    /// passed. A failed *respawn* is just another fault against the
    /// budget (the command may come back — flaky FS, PID limits);
    /// repeated failures retire the slot once the budget is gone.
    fn respawn(&mut self, slot: usize) -> Result<(), SweepError> {
        self.summary.respawns += 1;
        let faults = self.slots[slot].faults;
        let incarnation = self.slots[slot].incarnation + 1;
        match self.spawn_slot(slot, incarnation) {
            Ok(mut replacement) => {
                replacement.faults = faults;
                self.slots[slot] = replacement;
                self.dispatch(slot)
            }
            Err(message) => self.fault(slot, &format!("respawn failed: {message}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use besync_scenarios::by_name;

    fn tiny_specs(n: usize) -> Vec<ScenarioSpec> {
        (0..n)
            .map(|i| {
                let mut s = by_name("small").unwrap().quick();
                s.seed ^= i as u64; // distinct runs, distinct reports
                s
            })
            .collect()
    }

    #[test]
    fn shards_knob_parses() {
        assert_eq!(Shards::parse("0"), Some(Shards::InProcess));
        assert_eq!(Shards::parse("1"), Some(Shards::Workers(1)));
        assert_eq!(Shards::parse("16"), Some(Shards::Workers(16)));
        for bad in ["-1", "many", "", "+3", " 3", "3 ", "3.0", "0x4"] {
            assert_eq!(Shards::parse(bad), None, "accepted `{bad}`");
        }
        assert_eq!(Shards::Workers(4).count(), 4);
        assert_eq!(Shards::InProcess.count(), 0);
    }

    #[test]
    fn in_process_sweep_matches_direct_runs() {
        let specs = tiny_specs(5);
        let outcomes = sweep(&specs, &SweepOptions::default())
            .unwrap()
            .into_outcomes();
        assert_eq!(outcomes.len(), specs.len());
        for (spec, outcome) in specs.iter().zip(&outcomes) {
            let direct = spec.run();
            assert_eq!(outcome.report.updates_processed, direct.updates_processed);
            assert_eq!(outcome.report.refreshes_sent, direct.refreshes_sent);
            assert_eq!(
                outcome.report.mean_divergence().to_bits(),
                direct.mean_divergence().to_bits()
            );
        }
    }

    #[test]
    fn into_outcomes_matches_the_run_it_came_from() {
        let specs = tiny_specs(2);
        let run = sweep(&specs, &SweepOptions::default()).unwrap();
        let reference: Vec<f64> = run
            .outcomes
            .iter()
            .map(|o| o.report.mean_divergence())
            .collect();
        let outcomes = sweep(&specs, &SweepOptions::default())
            .unwrap()
            .into_outcomes();
        assert_eq!(outcomes.len(), reference.len());
        for (a, b) in outcomes.iter().zip(&reference) {
            assert_eq!(a.report.mean_divergence().to_bits(), b.to_bits());
        }
    }

    #[test]
    fn empty_sweep_is_empty_everywhere() {
        assert!(sweep(&[], &SweepOptions::default())
            .unwrap()
            .outcomes
            .is_empty());
        assert!(sweep(&[], &SweepOptions::with_shards(Shards::Workers(4)))
            .unwrap()
            .outcomes
            .is_empty());
    }

    #[test]
    fn unencodable_spec_fails_before_spawning() {
        use besync_data::metric::squared_deviation;
        use besync_data::Metric;
        let mut spec = by_name("small").unwrap().quick();
        spec.metric = Metric::Deviation(squared_deviation);
        // A worker command that cannot exist: if encoding didn't gate
        // first, this would surface as Spawn instead of Encode.
        let opts = SweepOptions {
            shards: Shards::Workers(2),
            worker: WorkerSpawn::Command("/nonexistent/worker".into(), Vec::new()),
            ..SweepOptions::default()
        };
        match sweep(&[spec], &opts) {
            Err(SweepError::Encode { scenario, .. }) => assert_eq!(scenario, "small"),
            other => panic!("expected Encode error, got {other:?}"),
        }
    }

    #[test]
    fn missing_worker_binary_is_a_spawn_error() {
        let opts = SweepOptions {
            shards: Shards::Workers(1),
            worker: WorkerSpawn::Command("/nonexistent/besync-worker".into(), Vec::new()),
            ..SweepOptions::default()
        };
        match sweep(&tiny_specs(2), &opts) {
            Err(SweepError::Spawn { .. }) => {}
            other => panic!("expected Spawn error, got {other:?}"),
        }
    }

    #[test]
    fn bounded_line_reader_caps_hostile_floods() {
        use std::io::BufReader;
        let mut buf = Vec::new();

        // Normal lines come through intact, newline stripped.
        let mut r = BufReader::new(&b"one\ntwo\n"[..]);
        assert!(read_line_bounded(&mut r, &mut buf, 64).unwrap());
        assert_eq!(buf, b"one");
        buf.clear();
        assert!(read_line_bounded(&mut r, &mut buf, 64).unwrap());
        assert_eq!(buf, b"two");
        buf.clear();
        assert!(!read_line_bounded(&mut r, &mut buf, 64).unwrap());

        // A partial line at EOF is still delivered (its parse failure is
        // the fault signal).
        let mut r = BufReader::new(&b"cut off"[..]);
        buf.clear();
        assert!(read_line_bounded(&mut r, &mut buf, 64).unwrap());
        assert_eq!(buf, b"cut off");

        // A newline-free flood errors out at the bound instead of
        // accumulating forever.
        let flood = vec![b'x'; 1000];
        let mut r = BufReader::new(&flood[..]);
        buf.clear();
        assert!(read_line_bounded(&mut r, &mut buf, 64).is_err());
    }

    #[test]
    fn sweep_errors_display_their_cause() {
        let e = SweepError::Worker {
            seq: 3,
            message: "bad spec: missing field".into(),
            stderr_tail: vec!["thread panicked at foo".into()],
        };
        let msg = e.to_string();
        assert!(msg.contains('3') && msg.contains("missing field"), "{msg}");
        assert!(msg.contains("panicked"), "stderr tail missing: {msg}");
    }

    #[test]
    fn degraded_summaries_render_their_story() {
        let summary = SweepSummary {
            respawns: 4,
            degraded: vec![DegradedSlot {
                slot: 1,
                respawns: 2,
                last_fault: "worker exited early".into(),
                stderr_tail: vec!["boom".into()],
            }],
            drained_in_process: 7,
        };
        assert!(summary.is_degraded());
        let text = summary.render();
        for needle in ["4 worker respawn", "slot 1", "boom", "7 spec(s)"] {
            assert!(text.contains(needle), "missing `{needle}` in: {text}");
        }
        assert!(SweepSummary::default().render().is_empty());
        assert!(!SweepSummary::default().is_degraded());
    }
}
