//! What a caller asks of a sweep: the shard layout, how workers are
//! started, the robustness layer's budgets and timers, and the CLI flags
//! every binary maps onto them.

use std::path::PathBuf;
use std::str::FromStr;
use std::time::Duration;

use crate::backoff::BackoffPolicy;

/// How a sweep distributes its specs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shards {
    /// Run every spec in this process, fanned out over threads. The
    /// baseline the sharded paths are pinned byte-identical to.
    InProcess,
    /// Spawn this many worker processes (clamped to the spec count).
    Workers(u32),
}

impl Shards {
    /// Parses the CLI knob: `0` means in-process, `N ≥ 1` means N worker
    /// processes. Strict digits only — `+3`, ` 3`, and `3.0` are all
    /// rejected rather than guessed at.
    pub fn parse(s: &str) -> Option<Shards> {
        if s.is_empty() || !s.bytes().all(|b| b.is_ascii_digit()) {
            return None;
        }
        let n: u32 = s.parse().ok()?;
        Some(match n {
            0 => Shards::InProcess,
            n => Shards::Workers(n),
        })
    }

    /// The CLI spelling ([`Shards::parse`]'s inverse).
    pub fn count(self) -> u32 {
        match self {
            Shards::InProcess => 0,
            Shards::Workers(n) => n,
        }
    }
}

/// How to start a worker process.
#[derive(Debug, Clone)]
pub enum WorkerSpawn {
    /// Re-exec [`std::env::current_exe`] with the hidden
    /// [`crate::WORKER_FLAG`] argument. Requires the current binary to
    /// dispatch to [`crate::worker_main`] on that flag — the
    /// `experiments` binary does.
    CurrentExe,
    /// Run an explicit command (program, arguments). Used by test
    /// harnesses, whose own binary (libtest) cannot dispatch the flag.
    Command(PathBuf, Vec<String>),
}

/// Sweep runner knobs. `Default` is an in-process run on
/// [`crate::default_threads`] threads — callers that never touch
/// `shards` get exactly the `parallel_map` behaviour.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Process-sharding layout.
    pub shards: Shards,
    /// How to start workers.
    pub worker: WorkerSpawn,
    /// Extra environment for *initial* worker spawns only — respawned
    /// replacements never inherit it. This is the fault-injection hook:
    /// tests set [`crate::FAULT_ENV`] here to make workers misbehave
    /// mid-grid.
    pub worker_env: Vec<(String, String)>,
    /// Worker respawns allowed **per slot** before that slot is retired
    /// and its work is absorbed by the surviving workers (ultimately
    /// in-process — see [`crate::SweepSummary::degraded`]). Bounds the
    /// damage of a persistently hostile or crashing worker command.
    pub max_respawns: usize,
    /// Service-time bound for the spec at the head of a worker's
    /// pipeline. A worker that holds a spec longer than this without
    /// reporting is presumed hung, killed, and respawned; the spec is
    /// resubmitted under the at-most-once accounting. `None` disables
    /// the deadline (not recommended off the beaten path).
    pub spec_deadline: Option<Duration>,
    /// Silence span after which a worker that owes replies is sent a
    /// `PING`.
    pub heartbeat_interval: Duration,
    /// How long an unanswered `PING` may stand before the worker is
    /// presumed frozen and killed. Distinct from the spec deadline: a
    /// busy-but-healthy worker PONGs from its I/O thread immediately.
    pub heartbeat_timeout: Duration,
    /// Respawn delay schedule (seeded-deterministic, see
    /// [`BackoffPolicy`]).
    pub backoff: BackoffPolicy,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            shards: Shards::InProcess,
            worker: WorkerSpawn::CurrentExe,
            worker_env: Vec::new(),
            max_respawns: 8,
            spec_deadline: Some(Duration::from_secs(600)),
            heartbeat_interval: Duration::from_secs(5),
            heartbeat_timeout: Duration::from_secs(10),
            backoff: BackoffPolicy::default(),
        }
    }
}

impl SweepOptions {
    /// Options with everything default but the shard layout.
    pub fn with_shards(shards: Shards) -> Self {
        SweepOptions {
            shards,
            ..SweepOptions::default()
        }
    }

    /// Applies one of the sweep CLI flags every binary shares —
    /// `--shards N`, `--spec-deadline SECS` (`0` disables the deadline) —
    /// so they parse and validate the same way everywhere.
    ///
    /// # Errors
    ///
    /// A message naming the flag and what it expects.
    pub fn apply_flag(&mut self, flag: &str, value: &str) -> Result<(), String> {
        match flag {
            "--shards" => {
                self.shards = Shards::parse(value).ok_or_else(|| {
                    format!("--shards needs a worker count (0 = in-process), got `{value}`")
                })?;
            }
            "--spec-deadline" => {
                // `try_from_secs_f64` rejects negatives, NaN, infinities
                // and anything past `Duration::MAX` alike.
                let secs = value.parse::<f64>().ok();
                let deadline = secs
                    .and_then(|s| Duration::try_from_secs_f64(s).ok())
                    .ok_or_else(|| {
                        format!("--spec-deadline needs seconds (0 disables it), got `{value}`")
                    })?;
                self.spec_deadline = (!deadline.is_zero()).then_some(deadline);
            }
            other => return Err(format!("`{other}` is not a sweep flag")),
        }
        Ok(())
    }
}

/// Takes `flag`'s value off an argument iterator and parses it: the one
/// place the binaries' argument loops turn a missing or malformed value
/// into a message naming the flag.
///
/// # Errors
///
/// A message naming the flag and, if there was one, the rejected text.
pub fn value<T: FromStr>(flag: &str, args: &mut impl Iterator<Item = String>) -> Result<T, String> {
    let text = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
    text.parse()
        .map_err(|_| format!("{flag} cannot take `{text}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_flag_sets_validates_and_rejects() {
        let mut opts = SweepOptions::default();
        opts.apply_flag("--shards", "3").unwrap();
        assert_eq!(opts.shards, Shards::Workers(3));
        opts.apply_flag("--spec-deadline", "2.5").unwrap();
        assert_eq!(opts.spec_deadline, Some(Duration::from_millis(2500)));
        opts.apply_flag("--spec-deadline", "0").unwrap();
        assert_eq!(opts.spec_deadline, None);

        // Out-of-range seconds are a message, not a `Duration` panic.
        for bad in ["1e30", "inf", "NaN", "-1", "soon", ""] {
            let err = opts.apply_flag("--spec-deadline", bad).unwrap_err();
            assert!(err.starts_with("--spec-deadline needs seconds"), "{err}");
        }
        assert!(opts.apply_flag("--shards", "many").is_err());

        // The retired channel flag (spelled in two pieces so a grep for
        // it finds only history) is no sweep flag any more.
        let err = opts
            .apply_flag(concat!("--", "workers"), "tcp")
            .unwrap_err();
        assert!(err.contains("not a sweep flag"), "{err}");
    }
}
