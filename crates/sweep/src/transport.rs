//! The worker channel: one child process and its three pipes.
//!
//! The sweep protocol ([`crate::protocol`]) is plain line frames over
//! the worker's stdin (requests) and stdout (replies); stderr is
//! captured into a bounded [`StderrTail`] for crash diagnostics. A
//! `WorkerProcess` owns the child and its stdin and kills and reaps
//! the process when dropped.
//!
//! Nothing here interprets protocol bytes; faults (EOF, floods,
//! garbage) are surfaced to the supervisor as ordinary read/write
//! errors and handled by its robustness layer.

use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::process::{Child, ChildStderr, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// One live worker: the child process and the pipe its requests go
/// down. All methods are callable after the worker died — they report
/// errors rather than panic.
pub(crate) struct WorkerProcess {
    child: Child,
    stdin: Option<ChildStdin>,
}

impl WorkerProcess {
    /// Spawns `cmd` (program/args/env prepared by the caller) with all
    /// three standard streams piped, and returns the worker with its
    /// reply stream (for the supervisor's reader thread) and its stderr
    /// (for the tail).
    pub(crate) fn spawn(mut cmd: Command) -> io::Result<(Self, ChildStdout, ChildStderr)> {
        cmd.stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped());
        let mut child = cmd.spawn()?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().expect("stdout was piped");
        let stderr = child.stderr.take().expect("stderr was piped");
        Ok((WorkerProcess { child, stdin }, stdout, stderr))
    }

    /// Writes one protocol line (newline appended) and flushes.
    ///
    /// # Errors
    ///
    /// The underlying I/O error; the supervisor treats it as a fault of
    /// this worker.
    pub(crate) fn write_line(&mut self, line: &str) -> io::Result<()> {
        let stdin = self
            .stdin
            .as_mut()
            .ok_or_else(|| io::Error::new(io::ErrorKind::BrokenPipe, "worker stdin closed"))?;
        writeln!(stdin, "{line}")?;
        stdin.flush()
    }

    /// Signals a clean shutdown: the worker exits when it sees EOF on
    /// its input.
    pub(crate) fn close_input(&mut self) {
        self.stdin = None;
    }

    /// Force-kills the worker process, severs the channel and reaps it.
    pub(crate) fn kill(&mut self) {
        self.stdin = None;
        let _ = self.child.kill();
        self.wait();
    }

    /// Reaps the worker process (blocking).
    pub(crate) fn wait(&mut self) {
        let _ = self.child.wait();
    }
}

impl Drop for WorkerProcess {
    fn drop(&mut self) {
        // Early error returns must not leak processes.
        self.kill();
    }
}

/// How many trailing stderr lines are kept per worker.
pub const STDERR_TAIL_LINES: usize = 20;

/// Longest stderr line retained verbatim; the rest is truncated (a
/// crashing worker can spew arbitrarily wide lines).
const STDERR_LINE_CAP: usize = 400;

/// A bounded tail of a worker's stderr, filled by a background thread.
///
/// The supervisor attaches this to fault logs and degraded-slot
/// summaries so a dead worker is diagnosable from the sweep output
/// alone — without it, a worker that panics before its first reply is
/// just "exited early".
#[derive(Clone)]
pub struct StderrTail {
    shared: Arc<(Mutex<TailState>, Condvar)>,
}

#[derive(Default)]
struct TailState {
    lines: VecDeque<String>,
    /// The stream has ended: every line the worker wrote is in `lines`.
    closed: bool,
}

impl StderrTail {
    /// Starts a thread draining `stream` into the tail buffer. The
    /// thread exits when the stream does; it holds only the buffer Arc,
    /// so it never blocks supervisor shutdown.
    pub fn tail(stream: impl Read + Send + 'static) -> StderrTail {
        let tail = StderrTail {
            shared: Arc::default(),
        };
        let shared = Arc::clone(&tail.shared);
        std::thread::spawn(move || {
            let (state, ended) = &*shared;
            let reader = BufReader::new(stream);
            for line in reader.split(b'\n') {
                let Ok(raw) = line else { break };
                let mut text = String::from_utf8_lossy(&raw).into_owned();
                if text.len() > STDERR_LINE_CAP {
                    let mut cut = STDERR_LINE_CAP;
                    while !text.is_char_boundary(cut) {
                        cut -= 1;
                    }
                    text.truncate(cut);
                    text.push('…');
                }
                let mut buf = lock(state);
                if buf.lines.len() == STDERR_TAIL_LINES {
                    buf.lines.pop_front();
                }
                buf.lines.push_back(text);
            }
            lock(state).closed = true;
            ended.notify_all();
        });
        tail
    }

    /// The current tail, oldest line first.
    pub fn snapshot(&self) -> Vec<String> {
        lock(&self.shared.0).lines.iter().cloned().collect()
    }

    /// The tail of a worker that has exited: waits up to `limit` for the
    /// draining thread to reach the end of the stream, so the last lines
    /// a dying worker wrote (its panic message, an injected fault's
    /// announcement) are not lost to the race with the exit.
    pub fn final_snapshot(&self, limit: Duration) -> Vec<String> {
        let (state, ended) = &*self.shared;
        let guard = lock(state);
        let (guard, _) = ended
            .wait_timeout_while(guard, limit, |s| !s.closed)
            .unwrap_or_else(|e| e.into_inner());
        guard.lines.iter().cloned().collect()
    }
}

fn lock(state: &Mutex<TailState>) -> MutexGuard<'_, TailState> {
    state.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn stderr_tail_keeps_only_the_last_lines() {
        let mut blob = String::new();
        for i in 0..50 {
            blob.push_str(&format!("line {i}\n"));
        }
        let tail = StderrTail::tail(Box::new(std::io::Cursor::new(blob.into_bytes())));
        // The tailing thread races us; poll briefly for the final state.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let snap = tail.snapshot();
            if snap.len() == STDERR_TAIL_LINES && snap.last().map(String::as_str) == Some("line 49")
            {
                assert_eq!(snap[0], "line 30");
                break;
            }
            assert!(Instant::now() < deadline, "tail never settled: {snap:?}");
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    #[test]
    fn final_snapshot_waits_for_the_end_of_the_stream() {
        let tail = StderrTail::tail(std::io::Cursor::new(b"first\nlast words\n".to_vec()));
        assert_eq!(
            tail.final_snapshot(Duration::from_secs(5)),
            ["first", "last words"]
        );
    }

    #[test]
    fn stderr_tail_truncates_hostile_lines() {
        let blob = format!("{}\n", "x".repeat(10_000));
        let tail = StderrTail::tail(Box::new(std::io::Cursor::new(blob.into_bytes())));
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let snap = tail.snapshot();
            if let Some(line) = snap.first() {
                assert!(line.chars().count() <= STDERR_LINE_CAP + 1);
                assert!(line.ends_with('…'));
                break;
            }
            assert!(Instant::now() < deadline, "tail never filled");
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}
