//! Process-sharded sweep execution.
//!
//! The paper's figures are grids of independent, seeded simulator runs.
//! Within one process those fan out over threads ([`parallel_map`]); this
//! crate adds the next scaling layer: a supervisor that spawns N *worker
//! processes*, streams [`besync_scenarios::codec`]-encoded
//! [`ScenarioSpec`]s to them with a line-framed request/response protocol
//! ([`protocol`]), collects encoded [`RunReport`]s, and merges them **in
//! input order**. There is one channel: each worker is a child process
//! driven over its stdin/stdout pipes ([`transport`]). The line protocol
//! and [`worker::run_worker`] are agnostic to what carries the bytes.
//!
//! The contract, pinned by `tests/sweep_equivalence.rs` at the workspace
//! root: output is byte-identical to an in-process run regardless of
//! worker count, scheduling, stragglers, or worker faults. Three
//! properties compose to give that guarantee:
//!
//! 1. specs replay identically after a codec round trip (pinned in
//!    `besync_scenarios::codec`),
//! 2. reports survive the codec bit for bit (every counter and `f64`),
//! 3. the supervisor fills one result slot per input spec, exactly once,
//!    and returns slots in input order no matter which worker answered.
//!
//! Worker processes are re-execs of the current binary behind the hidden
//! [`WORKER_FLAG`] argument (binaries opt in by calling [`worker_main`]
//! when they see it), or any command via [`WorkerSpawn::Command`] — the
//! standalone `besync-sweep-worker` binary in this crate is such a worker.
//!
//! On top of the merge sits a robustness layer (see [`supervisor`] for
//! the mechanics): bounded in-flight work per worker (backpressure),
//! per-spec deadlines, `PING`/`PONG` heartbeats that catch frozen or
//! silent processes, seeded-deterministic exponential backoff between
//! respawns ([`backoff`]), per-slot respawn budgets, and graceful
//! degradation — a sweep whose workers all die still completes
//! (in-process) byte-identically, reporting the damage in a structured
//! [`SweepSummary`] rather than failing. Worker stderr tails are captured
//! for every fault. The fault classes themselves are injectable for tests
//! via the [`FAULT_ENV`] environment knob ([`worker::Fault`]).
//!
//! [`ScenarioSpec`]: besync_scenarios::ScenarioSpec
//! [`RunReport`]: besync::RunReport

pub mod backoff;
pub mod options;
pub mod outcome;
pub mod pool;
pub mod protocol;
pub mod supervisor;
pub mod transport;
pub mod worker;

pub use backoff::BackoffPolicy;
pub use options::{value, Shards, SweepOptions, WorkerSpawn};
pub use outcome::{DegradedSlot, SweepError, SweepOutcome, SweepRun, SweepSummary};
pub use pool::{default_threads, parallel_map};
pub use supervisor::sweep;
pub use worker::{worker_main, Fault, FAULT_ENV, WORKER_FLAG};
