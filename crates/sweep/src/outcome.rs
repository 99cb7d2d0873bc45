//! What a sweep hands back: per-spec outcomes in input order, the
//! robustness summary, and the ways a sharded sweep can fail.

use std::fmt;

use besync::RunReport;

/// One merged sweep result: the report for the spec at the same input
/// index, plus where the time went (worker-measured when sharded).
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// The simulation's report.
    pub report: RunReport,
    /// Workload + system construction wall seconds.
    pub build_seconds: f64,
    /// Event-loop wall seconds.
    pub wall_seconds: f64,
}

/// A retired worker slot: it burnt its whole respawn budget and was
/// taken out of rotation. Carries everything needed to diagnose the
/// worker from the sweep output alone.
#[derive(Debug, Clone)]
pub struct DegradedSlot {
    /// Which worker slot was retired.
    pub slot: usize,
    /// Respawns consumed before retirement.
    pub respawns: usize,
    /// The fault that retired it.
    pub last_fault: String,
    /// The worker's final ~20 stderr lines, oldest first.
    pub stderr_tail: Vec<String>,
}

/// What the robustness layer had to do to finish the sweep. All-zero /
/// empty on a clean run.
#[derive(Debug, Clone, Default)]
pub struct SweepSummary {
    /// Total worker respawns across all slots.
    pub respawns: usize,
    /// Slots retired after exhausting their respawn budget.
    pub degraded: Vec<DegradedSlot>,
    /// Specs that ended up running in-process because every worker slot
    /// was retired before they were served.
    pub drained_in_process: usize,
}

impl SweepSummary {
    /// True when any slot was retired (the sweep completed, but not the
    /// way it was asked to).
    pub fn is_degraded(&self) -> bool {
        !self.degraded.is_empty()
    }

    /// A multi-line human-readable rendering (empty string when there
    /// is nothing to report).
    pub fn render(&self) -> String {
        if self.respawns == 0 && !self.is_degraded() {
            return String::new();
        }
        let mut out = format!("sweep summary: {} worker respawn(s)", self.respawns);
        for d in &self.degraded {
            out.push_str(&format!(
                "\n  slot {} retired after {} respawn(s): {}",
                d.slot, d.respawns, d.last_fault
            ));
            for line in &d.stderr_tail {
                out.push_str(&format!("\n    stderr| {line}"));
            }
        }
        if self.drained_in_process > 0 {
            out.push_str(&format!(
                "\n  {} spec(s) drained in-process after all worker slots were retired",
                self.drained_in_process
            ));
        }
        out
    }
}

/// A finished sweep: the in-input-order outcomes plus the robustness
/// summary.
#[derive(Debug, Clone)]
pub struct SweepRun {
    /// One outcome per input spec, in input order.
    pub outcomes: Vec<SweepOutcome>,
    /// What it took to get them.
    pub summary: SweepSummary,
}

impl SweepRun {
    /// Consumes the run, printing the robustness summary to stderr when
    /// anything noteworthy happened, and returns just the outcomes — the
    /// convenience most drivers want.
    pub fn into_outcomes(self) -> Vec<SweepOutcome> {
        let rendered = self.summary.render();
        if !rendered.is_empty() {
            eprintln!("{rendered}");
        }
        self.outcomes
    }
}

/// Why a sweep failed. Worker crashes/hangs degrade rather than fail —
/// what remains is caller bugs (unrunnable or unencodable specs,
/// unspawnable commands, protocol-level rejections), and of those an
/// in-process sweep can only meet the first.
#[derive(Debug)]
pub enum SweepError {
    /// A spec its system kind cannot run (`ScenarioSpec::check`), on
    /// either path, or one that refused to encode for a worker (e.g. a
    /// custom deviation function); detected before any spec runs or any
    /// process is spawned.
    Encode {
        /// Name of the offending scenario.
        scenario: String,
        /// The codec's complaint.
        message: String,
    },
    /// A worker process could not be started (initial spawn — respawn
    /// failures consume the slot's budget instead).
    Spawn {
        /// The OS error, stringified.
        message: String,
    },
    /// A worker answered `ERR` — it received a spec it could not decode
    /// or run. Always a protocol/codec bug, never load-dependent, so it
    /// is not retried.
    Worker {
        /// Report slot the worker was answering for.
        seq: usize,
        /// The worker's message.
        message: String,
        /// The worker's last stderr lines at the time of the rejection.
        stderr_tail: Vec<String>,
    },
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::Encode { scenario, message } => {
                write!(
                    f,
                    "scenario `{scenario}` was refused before the sweep started: {message}"
                )
            }
            SweepError::Spawn { message } => write!(f, "could not spawn sweep worker: {message}"),
            SweepError::Worker {
                seq,
                message,
                stderr_tail,
            } => {
                write!(f, "worker rejected spec {seq}: {message}")?;
                if !stderr_tail.is_empty() {
                    write!(f, "; worker stderr tail: {}", stderr_tail.join(" ⏎ "))?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for SweepError {}
