//! The line-framed supervisor ⇄ worker wire protocol.
//!
//! One message per line, fields separated by single spaces:
//!
//! ```text
//! supervisor → worker:  SPEC <seq> <escaped scenario text>
//!                       PING <beat>
//! worker → supervisor:  REPORT <seq> <build bits> <wall bits> <escaped report text>
//!                       ERR <seq> <escaped message>
//!                       PONG <beat>
//! ```
//!
//! `<seq>` is the spec's index in the sweep's input order — the report
//! slot it fills. `PING`/`PONG` are the liveness heartbeat: `<beat>` is
//! an opaque per-worker counter the worker echoes back verbatim. A
//! worker answers `PING` from its I/O thread immediately, even while a
//! simulation is running, so the supervisor can tell a *frozen process*
//! (no `PONG` — kill by heartbeat timeout) from a *hung or slow
//! simulation* (`PONG`s flow but no `REPORT` — kill by per-spec
//! deadline). The scenario/report payloads are the multi-line
//! [`besync_scenarios::codec`] texts with newlines, carriage returns,
//! and backslashes escaped ([`escape`]/[`unescape`]), so one message is
//! always exactly one line. `<build bits>`/`<wall bits>` are the
//! worker-measured construction and event-loop wall seconds as `f64` bit
//! patterns in hex — timings ride alongside the report (`benchmark/`
//! reads per-spec worker wall clocks) without touching the report codec
//! itself.
//!
//! Parsing is strict and total: any malformed line yields a structured
//! `Err`, never a panic — the supervisor treats that as a worker fault,
//! and a worker treats it as a request it must answer with `ERR`.

/// Escapes a payload so it occupies exactly one line.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 8);
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

/// Inverse of [`escape`].
///
/// # Errors
///
/// Rejects a trailing lone backslash or an unknown escape sequence.
pub fn unescape(s: &str) -> Result<String, String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some(other) => return Err(format!("unknown escape `\\{other}`")),
            None => return Err("trailing lone backslash".to_string()),
        }
    }
    Ok(out)
}

fn fmt_bits(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

fn parse_bits(s: &str) -> Result<f64, String> {
    if s.len() != 16 {
        return Err(format!("bad f64 bit pattern `{s}`"));
    }
    u64::from_str_radix(s, 16)
        .map(f64::from_bits)
        .map_err(|_| format!("bad f64 bit pattern `{s}`"))
}

/// One supervisor → worker message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run this scenario and answer on report slot `seq`.
    Spec {
        /// Input-order slot the eventual report fills.
        seq: usize,
        /// Encoded [`besync_scenarios::codec`] scenario text (unescaped).
        spec_text: String,
    },
    /// Liveness probe; the worker echoes `beat` back as a `PONG`.
    Ping {
        /// Opaque heartbeat counter, echoed verbatim.
        beat: u64,
    },
}

/// Formats a `SPEC` request line (no trailing newline).
pub fn format_request(seq: usize, spec_text: &str) -> String {
    format!("SPEC {seq} {}", escape(spec_text))
}

/// Formats a `PING` heartbeat line (no trailing newline).
pub fn format_ping(beat: u64) -> String {
    format!("PING {beat}")
}

/// Formats the matching `PONG` reply line (no trailing newline).
pub fn format_pong(beat: u64) -> String {
    format!("PONG {beat}")
}

/// Parses one supervisor → worker line (`SPEC` or `PING`).
///
/// # Errors
///
/// Returns a message describing the malformation.
pub fn parse_request(line: &str) -> Result<Request, String> {
    if let Some(rest) = line.strip_prefix("SPEC ") {
        let (seq, payload) = rest
            .split_once(' ')
            .ok_or_else(|| "SPEC line has no payload".to_string())?;
        let seq: usize = seq
            .parse()
            .map_err(|_| format!("bad SPEC sequence number `{seq}`"))?;
        Ok(Request::Spec {
            seq,
            spec_text: unescape(payload)?,
        })
    } else if let Some(beat) = line.strip_prefix("PING ") {
        Ok(Request::Ping {
            beat: beat
                .parse()
                .map_err(|_| format!("bad PING beat `{}`", preview(beat)))?,
        })
    } else {
        Err(format!(
            "expected a SPEC or PING line, got `{}`",
            preview(line)
        ))
    }
}

/// One worker reply.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A finished run: the report slot `seq` fills, plus worker-side
    /// timings (construction and event loop, seconds).
    Report {
        /// Input-order slot this report fills.
        seq: usize,
        /// Workload + system construction wall seconds.
        build_seconds: f64,
        /// Event-loop wall seconds.
        wall_seconds: f64,
        /// Encoded [`besync::RunReport`] (codec text, unescaped).
        report_text: String,
    },
    /// The worker could not run the spec (e.g. it failed to decode).
    Err {
        /// Slot of the offending request.
        seq: usize,
        /// Human-readable cause.
        message: String,
    },
    /// Heartbeat echo: the worker process is alive and its I/O loop is
    /// servicing the channel.
    Pong {
        /// The `PING` counter being echoed.
        beat: u64,
    },
}

/// Formats a `REPORT` reply line (no trailing newline).
pub fn format_report(
    seq: usize,
    build_seconds: f64,
    wall_seconds: f64,
    report_text: &str,
) -> String {
    format!(
        "REPORT {seq} {} {} {}",
        fmt_bits(build_seconds),
        fmt_bits(wall_seconds),
        escape(report_text)
    )
}

/// Formats an `ERR` reply line (no trailing newline).
pub fn format_err(seq: usize, message: &str) -> String {
    format!("ERR {seq} {}", escape(message))
}

/// Parses one worker reply line.
///
/// # Errors
///
/// Returns a message describing the malformation; the supervisor treats
/// that as a fault of the worker that produced the line.
pub fn parse_response(line: &str) -> Result<Response, String> {
    if let Some(rest) = line.strip_prefix("REPORT ") {
        let mut fields = rest.splitn(4, ' ');
        let seq = fields.next().unwrap_or("");
        let build = fields.next().ok_or("REPORT line missing build time")?;
        let wall = fields.next().ok_or("REPORT line missing wall time")?;
        let payload = fields.next().ok_or("REPORT line missing payload")?;
        Ok(Response::Report {
            seq: seq
                .parse()
                .map_err(|_| format!("bad REPORT sequence number `{seq}`"))?,
            build_seconds: parse_bits(build)?,
            wall_seconds: parse_bits(wall)?,
            report_text: unescape(payload)?,
        })
    } else if let Some(rest) = line.strip_prefix("ERR ") {
        let (seq, message) = rest
            .split_once(' ')
            .ok_or_else(|| "ERR line has no message".to_string())?;
        Ok(Response::Err {
            seq: seq
                .parse()
                .map_err(|_| format!("bad ERR sequence number `{seq}`"))?,
            message: unescape(message)?,
        })
    } else if let Some(beat) = line.strip_prefix("PONG ") {
        Ok(Response::Pong {
            beat: beat
                .parse()
                .map_err(|_| format!("bad PONG beat `{}`", preview(beat)))?,
        })
    } else {
        Err(format!("unrecognized reply `{}`", preview(line)))
    }
}

/// First few characters of a line for error messages (hostile lines can
/// be arbitrarily long; don't echo megabytes into an error string).
fn preview(line: &str) -> String {
    const LIMIT: usize = 48;
    if line.chars().count() <= LIMIT {
        line.to_string()
    } else {
        let cut: String = line.chars().take(LIMIT).collect();
        format!("{cut}…")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn escape_round_trips_payloads() {
        for s in [
            "",
            "plain",
            "two\nlines",
            "cr\r\nlf",
            "back\\slash",
            "\\n literal vs \n real",
            "trailing\n",
        ] {
            assert_eq!(unescape(&escape(s)).as_deref(), Ok(s), "{s:?}");
            assert!(!escape(s).contains('\n'), "{s:?} escaped to multiline");
        }
    }

    #[test]
    fn unescape_rejects_malformed_escapes() {
        assert!(unescape("lone\\").is_err());
        assert!(unescape("bad\\q").is_err());
    }

    #[test]
    fn request_round_trips() {
        let line = format_request(17, "besync-scenario v1\nname x\n");
        assert_eq!(
            parse_request(&line).unwrap(),
            Request::Spec {
                seq: 17,
                spec_text: "besync-scenario v1\nname x\n".to_string()
            }
        );
    }

    #[test]
    fn heartbeat_frames_round_trip() {
        for beat in [0u64, 1, 42, u64::MAX] {
            assert_eq!(
                parse_request(&format_ping(beat)).unwrap(),
                Request::Ping { beat }
            );
            assert_eq!(
                parse_response(&format_pong(beat)).unwrap(),
                Response::Pong { beat }
            );
        }
    }

    #[test]
    fn hostile_heartbeat_frames_yield_errors_not_panics() {
        for line in ["PING", "PING ", "PING x", "PING -1", "PING 1 2"] {
            assert!(parse_request(line).is_err(), "accepted `{line}`");
        }
        for line in ["PONG", "PONG ", "PONG x", "PONG -1", "PONG 1 2", "PING 1"] {
            assert!(parse_response(line).is_err(), "accepted `{line}`");
        }
    }

    #[test]
    fn report_round_trips_times_bit_exact() {
        let line = format_report(3, 0.1 + 0.2, f64::INFINITY, "besync-report v1\n");
        match parse_response(&line).unwrap() {
            Response::Report {
                seq,
                build_seconds,
                wall_seconds,
                report_text,
            } => {
                assert_eq!(seq, 3);
                assert_eq!(build_seconds.to_bits(), (0.1f64 + 0.2).to_bits());
                assert_eq!(wall_seconds, f64::INFINITY);
                assert_eq!(report_text, "besync-report v1\n");
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn err_round_trips() {
        let line = format_err(9, "bad spec: missing field `seed`\nsecond line");
        assert_eq!(
            parse_response(&line).unwrap(),
            Response::Err {
                seq: 9,
                message: "bad spec: missing field `seed`\nsecond line".to_string()
            }
        );
    }

    #[test]
    fn hostile_lines_yield_errors_not_panics() {
        for line in [
            "",
            "REPORT",
            "REPORT ",
            "REPORT x y z w",
            "REPORT 1 deadbeef", // too few fields
            "REPORT 1 zzzzzzzzzzzzzzzz 0000000000000000 p",
            "ERR",
            "ERR 5",
            "SPEC 1 payload", // a request is not a response
            "garbage with spaces",
            "REPORT 18446744073709551616 0000000000000000 0000000000000000 p", // u64 overflow
        ] {
            assert!(parse_response(line).is_err(), "accepted `{line}`");
        }
    }

    proptest! {
        /// Any payload survives the escape/frame/parse trip, bit for bit.
        #[test]
        fn any_payload_round_trips(
            seq in 0usize..1_000_000,
            bytes in prop::collection::vec(0u8..128, 0..200),
        ) {
            let payload: String = bytes.into_iter().map(|b| b as char).collect();
            let line = format_request(seq, &payload);
            prop_assert!(!line.contains('\n'));
            prop_assert_eq!(
                parse_request(&line).unwrap(),
                Request::Spec { seq, spec_text: payload }
            );
        }

        /// No reply line, however mangled, panics the parser.
        #[test]
        fn mangled_replies_never_panic(
            bytes in prop::collection::vec(0u8..128, 0..120),
            cut in 0usize..200,
        ) {
            let base = format_report(7, 1.5, 2.5, "besync-report v1\nobjects 3");
            let mut line: String = base.chars().take(cut.min(base.len())).collect();
            line.extend(bytes.into_iter().map(|b| b as char));
            let line = line.replace('\n', " ");
            let _ = parse_response(&line); // Ok or Err both fine; panics fail the test
        }
    }
}
