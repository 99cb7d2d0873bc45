//! The worker side of the sweep protocol.
//!
//! A worker reads `SPEC`/`PING` lines from its input (stdin under
//! [`worker_main`]), runs each scenario to completion, and writes one
//! `REPORT` (or `ERR`) line per spec, in the order received. It exits
//! cleanly when its input closes. Workers are usually re-execs of the
//! supervisor's own binary: binaries opt in by calling [`worker_main`]
//! when their first argument is [`WORKER_FLAG`], before any other
//! argument parsing.
//!
//! The loop is split over two threads so the robustness layer upstairs
//! can distinguish fault classes:
//!
//! * the **I/O thread** owns the input stream. It answers `PING`
//!   immediately (so a busy worker still proves its process is alive)
//!   and queues `SPEC`s for the compute thread.
//! * the **compute thread** pops specs, runs them, and writes replies.
//!   If a simulation hangs, `PONG`s keep flowing while the `REPORT`
//!   never comes — exactly the signature the supervisor's per-spec
//!   deadline exists to catch.
//!
//! # Fault injection
//!
//! Setting [`FAULT_ENV`] makes the worker misbehave deterministically —
//! the harness every fault-class test is built on (see [`Fault`]). The
//! supervisor strips the variable from respawned replacements, so
//! injected faults never cascade past the first incarnation.

use std::io::{BufRead, BufReader, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::Mutex;
use std::time::Duration;

use besync_scenarios::codec;

use crate::protocol::{self, Request};
use crate::supervisor::run_spec;

/// Hidden argv flag that turns a participating binary into a worker.
pub const WORKER_FLAG: &str = "--sweep-worker";

/// Fault-injection hook: a [`Fault`] spec like `hang:2` or `exit:1:3`.
/// Every fault-class end-to-end test drives the worker through this
/// variable. Cleared by the supervisor on respawn.
pub const FAULT_ENV: &str = "BESYNC_SWEEP_FAULT";

/// One injectable worker misbehaviour. `<n>` counts received `SPEC`
/// lines (1-based); `PING`s don't count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// `abort:<n>` — call [`std::process::abort`] upon *receiving* the
    /// n-th spec (after dispatch, before any reply): a crash with work
    /// in flight.
    Abort {
        /// 1-based received-spec count that triggers the fault.
        nth: u64,
    },
    /// `exit:<n>:<code>` — exit with `code` upon receiving the n-th
    /// spec: a clean-looking death the supervisor must still treat as a
    /// crash (EOF with work pending).
    Exit {
        /// 1-based received-spec count that triggers the fault.
        nth: u64,
        /// Process exit code.
        code: u8,
    },
    /// `hang:<n>` — the compute thread sleeps forever instead of
    /// running the n-th spec, while the I/O thread keeps answering
    /// `PING`: the silent-but-alive case only a per-spec deadline
    /// catches.
    Hang {
        /// 1-based received-spec count that triggers the fault.
        nth: u64,
    },
    /// `stall-ms:<n>:<ms>` — sleep `ms` milliseconds before running the
    /// n-th spec: a transient stall that must ride out a generous
    /// deadline and trip a tight one.
    StallMs {
        /// 1-based received-spec count that triggers the fault.
        nth: u64,
        /// Stall length in milliseconds.
        ms: u64,
    },
    /// `garble:<n>` — reply to the n-th spec with a non-protocol junk
    /// line instead of its `REPORT`.
    Garble {
        /// 1-based received-spec count that triggers the fault.
        nth: u64,
    },
    /// `flood:<n>` — upon receiving the n-th spec, write a multi-MiB
    /// newline-free burst: the hostile stream the supervisor's bounded
    /// line reader must cap.
    Flood {
        /// 1-based received-spec count that triggers the fault.
        nth: u64,
    },
}

impl Fault {
    /// Parses a fault spec (`hang:<n>`, `stall-ms:<n>:<ms>`,
    /// `garble:<n>`, `flood:<n>`, `exit:<n>:<code>`, `abort:<n>`).
    ///
    /// # Errors
    ///
    /// Returns a message naming what was malformed.
    pub fn parse(s: &str) -> Result<Fault, String> {
        fn nth(v: &str, spec: &str) -> Result<u64, String> {
            v.parse()
                .map_err(|_| format!("bad fault count `{v}` in `{spec}`"))
        }
        let mut parts = s.split(':');
        let kind = parts.next().unwrap_or_default();
        let args: Vec<&str> = parts.collect();
        match (kind, args.as_slice()) {
            ("abort", [n]) => Ok(Fault::Abort { nth: nth(n, s)? }),
            ("hang", [n]) => Ok(Fault::Hang { nth: nth(n, s)? }),
            ("garble", [n]) => Ok(Fault::Garble { nth: nth(n, s)? }),
            ("flood", [n]) => Ok(Fault::Flood { nth: nth(n, s)? }),
            ("exit", [n, code]) => Ok(Fault::Exit {
                nth: nth(n, s)?,
                code: code
                    .parse()
                    .map_err(|_| format!("bad exit code `{code}` in `{s}`"))?,
            }),
            ("stall-ms", [n, ms]) => Ok(Fault::StallMs {
                nth: nth(n, s)?,
                ms: ms
                    .parse()
                    .map_err(|_| format!("bad stall length `{ms}` in `{s}`"))?,
            }),
            _ => Err(format!(
                "bad fault spec `{s}`: expected hang:<n>, stall-ms:<n>:<ms>, garble:<n>, \
                 flood:<n>, exit:<n>:<code>, or abort:<n>"
            )),
        }
    }

    /// The spec string [`Fault::parse`] accepts back ([`Fault::parse`]'s
    /// inverse).
    pub fn to_spec(self) -> String {
        match self {
            Fault::Abort { nth } => format!("abort:{nth}"),
            Fault::Exit { nth, code } => format!("exit:{nth}:{code}"),
            Fault::Hang { nth } => format!("hang:{nth}"),
            Fault::StallMs { nth, ms } => format!("stall-ms:{nth}:{ms}"),
            Fault::Garble { nth } => format!("garble:{nth}"),
            Fault::Flood { nth } => format!("flood:{nth}"),
        }
    }

    /// Reads the injected fault from [`FAULT_ENV`]. A malformed value is
    /// reported on stderr and ignored — a typo in a test hook must not
    /// change production behaviour silently.
    fn from_env() -> Option<Fault> {
        let spec = std::env::var(FAULT_ENV).ok()?;
        Fault::parse(&spec)
            .map_err(|e| eprintln!("sweep-worker: ignoring {FAULT_ENV}: {e}"))
            .ok()
    }

    /// Announces the fault on stderr just before it fires, so the
    /// supervisor's stderr tail pins the cause of the ensuing carnage.
    fn announce(self, received: u64) {
        eprintln!(
            "sweep-worker: injected fault `{}` firing on spec {received}",
            self.to_spec()
        );
    }
}

/// Runs the worker loop on stdin/stdout. Call this (and nothing else)
/// when a binary is invoked with [`WORKER_FLAG`].
pub fn worker_main() -> std::process::ExitCode {
    // Stdin/Stdout handles (not their !Send locks) — the worker loop
    // moves its streams across its internal threads.
    run_worker(BufReader::new(std::io::stdin()), std::io::stdout())
}

/// The newline-free burst a `flood:<n>` fault writes: comfortably past
/// the supervisor's 1 MiB per-line bound.
const FLOOD_BYTES: usize = 2 << 20;

/// The worker loop, parameterized over its streams: tests hand it byte
/// slices, and any other byte channel can carry the protocol unchanged.
/// `Send` bounds exist because the loop is internally two-threaded; the
/// borrow never outlives this call (scoped threads).
pub fn run_worker(input: impl BufRead + Send, output: impl Write + Send) -> std::process::ExitCode {
    let fault = Fault::from_env();
    let output = Mutex::new(output);
    let broken = AtomicBool::new(false);
    let (tx, rx) = channel::<(usize, String)>();

    std::thread::scope(|scope| {
        // I/O thread: owns the input; PONGs immediately, queues specs.
        scope.spawn(|| {
            let tx = tx;
            let mut received = 0u64;
            for line in input.lines() {
                let Ok(line) = line else {
                    broken.store(true, Ordering::Relaxed);
                    return;
                };
                if line.trim().is_empty() {
                    continue;
                }
                let reply_now = match protocol::parse_request(&line) {
                    Ok(Request::Ping { beat }) => Some(protocol::format_pong(beat)),
                    Ok(Request::Spec { seq, spec_text }) => {
                        received += 1;
                        match fault {
                            Some(f @ Fault::Abort { nth }) if nth == received => {
                                f.announce(received);
                                std::process::abort();
                            }
                            Some(f @ Fault::Exit { nth, code }) if nth == received => {
                                f.announce(received);
                                std::process::exit(i32::from(code));
                            }
                            Some(f @ Fault::Flood { nth }) if nth == received => {
                                f.announce(received);
                                let mut out = output.lock().unwrap_or_else(|e| e.into_inner());
                                let burst = vec![b'x'; FLOOD_BYTES];
                                let _ = out.write_all(&burst).and_then(|()| out.flush());
                            }
                            _ => {}
                        }
                        if tx.send((seq, spec_text)).is_err() {
                            return; // compute thread died; unwind
                        }
                        None
                    }
                    // No sequence number recoverable from a mangled
                    // request; answer on slot 0 — the supervisor treats
                    // any ERR as fatal anyway.
                    Err(e) => Some(protocol::format_err(0, &format!("bad request: {e}"))),
                };
                if let Some(reply) = reply_now {
                    let mut out = output.lock().unwrap_or_else(|e| e.into_inner());
                    if writeln!(out, "{reply}").and_then(|()| out.flush()).is_err() {
                        broken.store(true, Ordering::Relaxed);
                        return;
                    }
                }
            }
            // Input EOF: tx drops here, draining the compute loop.
        });

        compute_loop(rx, &output, &broken, fault);
    });

    if broken.load(Ordering::Relaxed) {
        // A dead channel means the supervisor hung up; nothing useful
        // left to do.
        std::process::ExitCode::FAILURE
    } else {
        std::process::ExitCode::SUCCESS
    }
}

/// Pops queued specs, runs them, writes replies (in receive order).
fn compute_loop(
    rx: Receiver<(usize, String)>,
    output: &Mutex<impl Write>,
    broken: &AtomicBool,
    fault: Option<Fault>,
) {
    let mut ran = 0u64;
    for (seq, spec_text) in rx {
        ran += 1;
        match fault {
            Some(f @ Fault::Hang { nth }) if nth == ran => {
                f.announce(ran);
                // Forever, as far as the supervisor is concerned; the
                // I/O thread keeps PONGing until we're killed.
                loop {
                    std::thread::sleep(Duration::from_secs(3600));
                }
            }
            Some(f @ Fault::StallMs { nth, ms }) if nth == ran => {
                f.announce(ran);
                std::thread::sleep(Duration::from_millis(ms));
            }
            _ => {}
        }
        let reply = match fault {
            Some(f @ Fault::Garble { nth }) if nth == ran => {
                f.announce(ran);
                format!("GARBLE {seq} this is not a protocol line")
            }
            _ => handle_spec(seq, &spec_text),
        };
        let mut out = output.lock().unwrap_or_else(|e| e.into_inner());
        if writeln!(out, "{reply}").and_then(|()| out.flush()).is_err() {
            broken.store(true, Ordering::Relaxed);
            return;
        }
    }
}

/// Runs one decoded request to a single reply line.
fn handle_spec(seq: usize, spec_text: &str) -> String {
    let spec = match codec::decode(spec_text) {
        Ok(spec) => spec,
        Err(e) => return protocol::format_err(seq, &format!("bad spec: {e}")),
    };
    let outcome = run_spec(&spec);
    protocol::format_report(
        seq,
        outcome.build_seconds,
        outcome.wall_seconds,
        &codec::encode_report(&outcome.report),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Response;
    use besync_scenarios::by_name;

    #[test]
    fn worker_answers_specs_in_order_and_exits_on_eof() {
        let spec = by_name("small").unwrap().quick();
        let encoded = codec::encode(&spec).unwrap();
        let input = format!(
            "{}\n\n{}\n",
            protocol::format_request(4, &encoded),
            protocol::format_request(9, &encoded),
        );
        let mut out = Vec::new();
        let code = run_worker(input.as_bytes(), &mut out);
        assert_eq!(code, std::process::ExitCode::SUCCESS);
        let replies: Vec<Response> = String::from_utf8(out)
            .unwrap()
            .lines()
            .map(|l| protocol::parse_response(l).unwrap())
            .collect();
        assert_eq!(replies.len(), 2);
        let expected = spec.run();
        for (reply, want_seq) in replies.iter().zip([4usize, 9]) {
            match reply {
                Response::Report {
                    seq, report_text, ..
                } => {
                    assert_eq!(*seq, want_seq);
                    let report = codec::decode_report(report_text).unwrap();
                    assert_eq!(report.updates_processed, expected.updates_processed);
                    assert_eq!(report.refreshes_sent, expected.refreshes_sent);
                    assert_eq!(
                        report.mean_divergence().to_bits(),
                        expected.mean_divergence().to_bits()
                    );
                }
                other => panic!("expected a report, got {other:?}"),
            }
        }
    }

    #[test]
    fn pings_are_answered_even_between_specs() {
        let spec = by_name("small").unwrap().quick();
        let encoded = codec::encode(&spec).unwrap();
        let input = format!(
            "{}\n{}\n{}\n",
            protocol::format_ping(7),
            protocol::format_request(0, &encoded),
            protocol::format_ping(8),
        );
        let mut out = Vec::new();
        assert_eq!(
            run_worker(input.as_bytes(), &mut out),
            std::process::ExitCode::SUCCESS
        );
        let replies: Vec<Response> = String::from_utf8(out)
            .unwrap()
            .lines()
            .map(|l| protocol::parse_response(l).unwrap())
            .collect();
        // PONGs come from the I/O thread, the REPORT from the compute
        // thread; ordering between the streams is not guaranteed, only
        // that all three replies arrive.
        assert_eq!(replies.len(), 3);
        assert!(replies.contains(&Response::Pong { beat: 7 }));
        assert!(replies.contains(&Response::Pong { beat: 8 }));
        assert!(replies
            .iter()
            .any(|r| matches!(r, Response::Report { seq: 0, .. })));
    }

    #[test]
    fn undecodable_spec_yields_err_reply_and_keeps_serving() {
        let good = codec::encode(&by_name("small").unwrap().quick()).unwrap();
        let input = format!(
            "SPEC 0 not-a-scenario\n{}\n",
            protocol::format_request(1, &good)
        );
        let mut out = Vec::new();
        assert_eq!(
            run_worker(input.as_bytes(), &mut out),
            std::process::ExitCode::SUCCESS
        );
        let text = String::from_utf8(out).unwrap();
        let mut lines = text.lines();
        match protocol::parse_response(lines.next().unwrap()).unwrap() {
            Response::Err { seq, message } => {
                assert_eq!(seq, 0);
                assert!(message.contains("bad spec"), "{message}");
            }
            other => panic!("expected ERR, got {other:?}"),
        }
        assert!(matches!(
            protocol::parse_response(lines.next().unwrap()).unwrap(),
            Response::Report { seq: 1, .. }
        ));
    }

    #[test]
    fn mangled_request_line_yields_err_reply() {
        let mut out = Vec::new();
        run_worker(&b"REPORT 0 junk\n"[..], &mut out);
        let text = String::from_utf8(out).unwrap();
        assert!(
            matches!(
                protocol::parse_response(text.lines().next().unwrap()).unwrap(),
                Response::Err { .. }
            ),
            "{text}"
        );
    }

    #[test]
    fn fault_specs_round_trip_and_reject_garbage() {
        let all = [
            Fault::Abort { nth: 1 },
            Fault::Exit { nth: 2, code: 17 },
            Fault::Hang { nth: 3 },
            Fault::StallMs { nth: 4, ms: 250 },
            Fault::Garble { nth: 5 },
            Fault::Flood { nth: 6 },
        ];
        for f in all {
            assert_eq!(Fault::parse(&f.to_spec()), Ok(f), "{}", f.to_spec());
        }
        for bad in [
            "",
            "hang",
            "hang:",
            "hang:x",
            "hang:1:2",
            "exit:1",
            "exit:1:300",
            "exit:1:-1",
            "stall-ms:1",
            "stall-ms:1:x",
            "abort:1:2",
            "explode:1",
            "flood:−1",
        ] {
            assert!(Fault::parse(bad).is_err(), "accepted `{bad}`");
        }
    }
}
