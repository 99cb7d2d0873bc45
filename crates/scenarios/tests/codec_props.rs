//! Codec hardening properties.
//!
//! The sweep supervisor decodes whatever a worker process writes to its
//! pipe, and a worker decodes whatever the supervisor sends, so both
//! directions of `besync_scenarios::codec` must (a) round-trip every
//! representable value bit for bit and (b) turn arbitrary garbage into a
//! structured `Err` — never a panic that would take down the supervisor.

use std::convert::Infallible;

use besync::fault::FaultProfile;
use besync::priority::PolicyKind;
use besync::report::Slot;
use besync::RunReport;
use besync_scenarios::codec::{decode, decode_report, encode, encode_report, walk_spec, Field};
use besync_scenarios::{ScenarioSpec, SystemKind};
use proptest::prelude::*;

/// ASCII names without newlines (newlines are rejected by `encode` — a
/// separate, deliberate guard with its own unit test).
fn name() -> impl Strategy<Value = String> {
    prop::collection::vec(0u8..26, 1..16)
        .prop_map(|bytes| bytes.into_iter().map(|b| (b'a' + b) as char).collect())
}

/// Floats that stress the shortest-round-trip formatter: magnitudes from
/// subnormal to near-max, negative zero, and awkward decimal sums.
fn finite_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        -1e6f64..1e6,
        Just(0.0),
        Just(-0.0),
        Just(0.1 + 0.2),
        Just(f64::MIN_POSITIVE / 64.0),
        Just(1.7976931348623157e308),
        Just(-4.9e-324),
        (-300.0f64..300.0).prop_map(|e| e.exp()),
    ]
}

/// Any f64 bit pattern at all, including NaNs with payloads and ±∞.
fn any_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        finite_f64(),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(f64::NAN),
        (0u64..=u64::MAX).prop_map(f64::from_bits),
    ]
}

/// Draws per generated value: more than any walk visits fields (a
/// scenario presents at most 34, a report 34).
const DRAWS: std::ops::Range<usize> = 40..41;

/// Random scenarios, filled through the codec's own field walk so a new
/// field — or a new optional block — is generated without touching this
/// file: one draw per visited field, the field's type picking its part.
fn scenario() -> impl Strategy<Value = ScenarioSpec> {
    let draw = (0u64..=u64::MAX, finite_f64(), 0.001f64..1.0, name());
    prop::collection::vec(draw, DRAWS).prop_map(|draws| {
        let mut draws = draws.into_iter();
        let mut spec = ScenarioSpec::default();
        let filled = walk_spec(&mut spec, |key, field| {
            let (int, float, unit, text) = draws.next().expect("more draws than fields");
            match field {
                Field::Text(v) => *v = text,
                Field::U64(v) => *v = int,
                Field::U32(v) => *v = 1 + (int % 2000) as u32,
                Field::Usize(v) => *v = int as usize,
                // Fault intensities stay inside `FaultProfile::validate`'s
                // envelope (decode rejects invalid profiles).
                Field::F64(v) if key.starts_with("fault_") => *v = unit,
                Field::F64(v) | Field::Exact(v) => *v = float,
                Field::Bool(v) | Field::Flag(v) => *v = int % 2 == 1,
                Field::Choice { names, index, .. } => *index = int as usize % names.len(),
                // `None` — the fault-free default — often enough that
                // both branches stay covered.
                Field::Optional { names, index, .. } => {
                    *index = (int as usize % (names.len() + 1)).checked_sub(1);
                }
            }
            Ok(())
        });
        filled.expect("the filling visitor never fails");
        // The codec refuses what the system kind cannot run: §7 prices by
        // the area policy only, and the loss-only schedulers keep just
        // the loss of a fault profile.
        if spec.system == SystemKind::Competitive {
            spec.policy = PolicyKind::Area;
        }
        if let (Err(_), Some(profile)) = (spec.check(), spec.fault) {
            spec.fault = Some(FaultProfile {
                loss_prob: profile.loss_prob,
                ..FaultProfile::default()
            });
        }
        spec
    })
}

/// Random reports, filled through the report's own field walk so a new
/// field is generated (and compared) without touching this file: one
/// `(integer, float)` draw per slot, the slot's type picking which.
fn report() -> impl Strategy<Value = RunReport> {
    prop::collection::vec((0u64..=u64::MAX, any_f64()), DRAWS).prop_map(|draws| {
        let mut draws = draws.into_iter();
        let mut report = RunReport::default();
        let Ok(()) = report.walk(|_, slot| {
            let (int, float) = draws.next().expect("more draws than fields");
            match slot {
                Slot::U64(v) => *v = int,
                Slot::Usize(v) => *v = int as usize,
                Slot::F64(v) => *v = float,
                Slot::Flag(v) => *v = int % 2 == 1,
            }
            Ok::<(), Infallible>(())
        });
        report
    })
}

/// Mutilates `text` deterministically from `(kind, a, b)` draws.
fn garble(text: &str, kind: u8, a: usize, b: u8) -> String {
    let mut bytes = text.as_bytes().to_vec();
    match kind % 5 {
        // Truncate mid-stream.
        0 => {
            bytes.truncate(a % (bytes.len() + 1));
        }
        // Flip one byte to printable garbage.
        1 => {
            if !bytes.is_empty() {
                let i = a % bytes.len();
                bytes[i] = 32 + (b % 95);
            }
        }
        // Drop one whole line.
        2 => {
            let lines: Vec<&str> = text.lines().collect();
            let keep: Vec<&str> = lines
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != a % lines.len().max(1))
                .map(|(_, l)| *l)
                .collect();
            bytes = keep.join("\n").into_bytes();
        }
        // Duplicate one line (first occurrence wins on decode; must not
        // panic either way).
        3 => {
            let lines: Vec<&str> = text.lines().collect();
            let mut out: Vec<&str> = Vec::with_capacity(lines.len() + 1);
            for (i, l) in lines.iter().enumerate() {
                out.push(l);
                if i == a % lines.len().max(1) {
                    out.push(l);
                }
            }
            bytes = out.join("\n").into_bytes();
        }
        // Inject a junk line mid-stream.
        _ => {
            let lines: Vec<&str> = text.lines().collect();
            let mut out: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
            out.insert(a % (lines.len() + 1), format!("junk {b}"));
            bytes = out.join("\n").into_bytes();
        }
    }
    // All codec text is ASCII, so any slicing above stays valid UTF-8.
    String::from_utf8(bytes).expect("codec text is ASCII")
}

proptest! {
    /// Random specs round-trip: decode(encode(s)) re-encodes to the
    /// exact same text, i.e. field-level bit-identity.
    #[test]
    fn random_specs_round_trip(spec in scenario()) {
        let text = encode(&spec).expect("generated specs are encodable");
        let back = decode(&text).expect("encoded specs decode");
        prop_assert_eq!(&text, &encode(&back).unwrap());
    }

    /// Garbled spec text never panics the decoder; it either decodes (a
    /// benign mutation, e.g. a dropped duplicate) or errors structurally.
    #[test]
    fn garbled_specs_never_panic(
        spec in scenario(),
        kind in 0u8..=255,
        a in 0usize..10_000,
        b in 0u8..=255,
    ) {
        let text = encode(&spec).unwrap();
        let mangled = garble(&text, kind, a, b);
        let _ = decode(&mangled);
    }

    /// Pure garbage (no structure at all) errors, never panics.
    #[test]
    fn arbitrary_bytes_never_panic_spec_decoder(
        bytes in prop::collection::vec(0u8..128, 0..400),
    ) {
        let text: String = bytes.into_iter().map(|b| b as char).collect();
        let _ = decode(&text);
        let _ = decode_report(&text);
    }

    /// Random reports — every counter and every f64 bit pattern,
    /// including NaN payloads and ±∞ — survive the codec bit for bit.
    #[test]
    fn random_reports_round_trip_bit_exact(r in report()) {
        let text = encode_report(&r);
        let back = decode_report(&text).expect("encoded reports decode");
        prop_assert_eq!(r.first_difference(&back), None);
        // And the text itself is a fixpoint.
        prop_assert_eq!(text, encode_report(&back));
    }

    /// Any recovery-kind spelling outside the known set must decode to a
    /// structured error — never panic, never silently pick a regime.
    #[test]
    fn unknown_fault_kinds_are_rejected(spec in scenario(), kind in name()) {
        if !matches!(kind.as_str(), "degrade-stale" | "retransmit" | "resync") {
            let mut spec = spec;
            spec.fault = Some(FaultProfile {
                loss_prob: 0.25,
                ..FaultProfile::default()
            });
            let text = encode(&spec).unwrap();
            let mangled: String = text
                .lines()
                .map(|l| if l.starts_with("fault ") { format!("fault {kind}") } else { l.to_string() })
                .collect::<Vec<_>>()
                .join("\n");
            prop_assert!(decode(&mangled).is_err());
        }
    }

    /// Garbled report text — the hostile-worker-reply case — never
    /// panics the supervisor's decoder.
    #[test]
    fn garbled_reports_never_panic(
        r in report(),
        kind in 0u8..=255,
        a in 0usize..10_000,
        b in 0u8..=255,
    ) {
        let mangled = garble(&encode_report(&r), kind, a, b);
        let _ = decode_report(&mangled);
    }
}
