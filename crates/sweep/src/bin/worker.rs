//! `besync-sweep-worker` — a standalone sweep worker.
//!
//! The supervisor normally re-execs whichever binary it lives in (see
//! [`besync_sweep::WORKER_FLAG`]); this binary exists for harnesses that
//! have no worker-capable binary of their own — the sweep crate's own
//! end-to-end tests drive it via `CARGO_BIN_EXE_besync-sweep-worker`.
//! It speaks the worker protocol on stdin/stdout; its arguments are
//! ignored.

fn main() -> std::process::ExitCode {
    besync_sweep::worker_main()
}
