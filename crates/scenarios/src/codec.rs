//! Plain-text scenario and report serialization.
//!
//! A [`ScenarioSpec`] is the unit the process-sharded sweep runner ships
//! to workers, and a [`RunReport`] is what comes back, so both must
//! survive a trip through a pipe with no external dependencies (the
//! workspace vendors no serde). The format is one `key value` pair per
//! line, values running to end-of-line; floats are printed with Rust's
//! shortest round-trip formatting, so decoding reproduces *bit-identical*
//! parameters — and therefore, by the determinism the whole repo is built
//! on, bit-identical trajectories on the far side of the pipe.
//!
//! Each struct's field list exists once, as a *walk* that presents every
//! scalar as `(wire key, &mut field)` in wire order: [`walk_spec`] here,
//! [`RunReport::walk`] beside the report. The encoders drive a walk with
//! a visitor that writes each field, the decoders with one that
//! overwrites it, the property tests with one that fills it from random
//! draws — so none of them can disagree about a key, a width or a
//! condition. The rule for growing the schema: **a new run parameter is a
//! [`SystemConfig`] field, its default, and one line in the walk**; a
//! new report field is the struct field plus one line in its walk (both
//! walks destructure exhaustively, so the struct field alone does not
//! compile).
//!
//! Limitations, by design: [`Metric::Deviation`] carries a function
//! pointer and encodes as `deviation`, which decodes to the standard
//! absolute-difference deviation — the only deviation function any
//! registered scenario uses. Encoding a scenario with a custom deviation
//! function is an error.

use std::fmt::Write;
use std::str::FromStr;

use besync::cache::partition::SharePolicy;
use besync::config::SystemConfig;
use besync::fault::{FaultProfile, RecoveryPolicy};
use besync::priority::{PolicyKind, RateEstimator};
use besync::report::Slot;
use besync::RunReport;
use besync_data::metric::abs_deviation;
use besync_data::Metric;
use besync_workloads::buoy::BuoyConfig;

use crate::spec::{ScenarioSpec, SystemKind, WorkloadKind};

/// Format tag, first line of every encoded scenario.
const HEADER: &str = "besync-scenario v1";

/// Format tag, first line of every encoded run report.
const REPORT_HEADER: &str = "besync-report v1";

/// Wire spellings, one table per enum, read in both directions.
const POLICIES: [(&str, PolicyKind); 4] = [
    ("area", PolicyKind::Area),
    ("poisson_closed_form", PolicyKind::PoissonClosedForm),
    ("simple_weighted", PolicyKind::SimpleWeighted),
    ("bound", PolicyKind::Bound),
];

const ESTIMATORS: [(&str, RateEstimator); 3] = [
    ("known", RateEstimator::Known),
    ("long_run", RateEstimator::LongRun),
    ("since_refresh", RateEstimator::SinceRefresh),
];

const SHARES: [(&str, SharePolicy); 3] = [
    ("equal_share", SharePolicy::EqualShare),
    ("per_object", SharePolicy::ProportionalToObjects),
    ("piggyback", SharePolicy::ProportionalToValue),
];

/// One field of a wire struct, as a walk presents it to its visitor. A
/// writing visitor emits the value; a reading (or generating) one
/// overwrites it, and the walk carries on from what it finds.
#[derive(Debug)]
pub enum Field<'a> {
    /// Free text without line breaks.
    Text(&'a mut String),
    /// An integer, parsed back at the field's own width.
    U64(&'a mut u64),
    /// See [`Field::U64`].
    U32(&'a mut u32),
    /// See [`Field::U64`].
    Usize(&'a mut usize),
    /// A finite parameter, as Rust prints and parses it.
    F64(&'a mut f64),
    /// A measurement that is legitimately non-finite: travels through
    /// [`fmt_f64`] / [`parse_f64`], every bit pattern preserved.
    Exact(&'a mut f64),
    /// `true` or `false`, strictly.
    Bool(&'a mut bool),
    /// A boolean spelled by omission when `false`, so text written before
    /// the flag existed stays byte-identical and decodes to `false`.
    Flag(&'a mut bool),
    /// An enum, as the index of its spelling among `names`.
    Choice {
        names: &'a [&'static str],
        index: &'a mut usize,
    },
    /// Like [`Field::Choice`], but the key may be absent (`None`): the
    /// switch of an optional block.
    Optional {
        names: &'a [&'static str],
        index: &'a mut Option<usize>,
    },
}

impl<'a> From<Slot<'a>> for Field<'a> {
    fn from(slot: Slot<'a>) -> Self {
        match slot {
            Slot::U64(v) => Field::U64(v),
            Slot::Usize(v) => Field::Usize(v),
            Slot::F64(v) => Field::Exact(v),
            Slot::Flag(v) => Field::Flag(v),
        }
    }
}

/// An output buffer holding the format tag.
fn begin(header: &str) -> String {
    let mut out = String::with_capacity(512);
    out.push_str(header);
    out.push('\n');
    out
}

/// The writing visitor: appends `field` to `out` as one `key value` line.
fn put(out: &mut String, key: &str, field: Field<'_>) -> Result<(), String> {
    let spelling = |names: &[&'static str], index: usize| {
        let name = names.get(index).copied();
        name.ok_or_else(|| format!("`{key}` holds a value with no wire spelling"))
    };
    let start = out.len();
    match field {
        Field::Flag(false) | Field::Optional { index: None, .. } => return Ok(()),
        Field::Text(v) => write!(out, "{key} {v}"),
        Field::U64(v) => write!(out, "{key} {v}"),
        Field::U32(v) => write!(out, "{key} {v}"),
        Field::Usize(v) => write!(out, "{key} {v}"),
        Field::F64(v) if !v.is_finite() => return Err(format!("`{key}` is {v}, not finite")),
        Field::F64(v) => write!(out, "{key} {v}"),
        Field::Exact(v) => write!(out, "{key} {}", fmt_f64(*v)),
        Field::Bool(v) | Field::Flag(v) => write!(out, "{key} {v}"),
        Field::Choice { names, index, .. }
        | Field::Optional {
            names,
            index: Some(index),
            ..
        } => write!(out, "{key} {}", spelling(names, *index)?),
    }
    .expect("writing to a String cannot fail");
    // A line break inside a value would inject spurious `key value`
    // lines (e.g. a second `seed`) on the far side.
    if out[start..].contains(['\n', '\r']) {
        return Err(format!(
            "`{key}` contains a line break, which the line-based format cannot carry faithfully"
        ));
    }
    out.push('\n');
    Ok(())
}

/// Splits encoded text into its `(key, value)` pairs, header checked.
fn pairs<'t>(text: &'t str, header: &str) -> Result<Vec<(&'t str, &'t str)>, String> {
    let mut lines = text.lines();
    if lines.next().map(str::trim) != Some(header) {
        return Err(format!("missing `{header}` header"));
    }
    let lines = lines.filter(|line| !line.trim().is_empty());
    let pairs = lines.map(|line| {
        let (key, value) = line.split_once(' ').unwrap_or((line, ""));
        (key.trim(), value.trim())
    });
    Ok(pairs.collect())
}

/// The reading visitor: overwrites `field` from the first pair recorded
/// under `key` (so duplicates lose, and unknown keys are never asked for).
fn take(pairs: &[(&str, &str)], key: &str, field: Field<'_>) -> Result<(), String> {
    fn parse<T: FromStr>(text: &str, what: &str, key: &str) -> Result<T, String> {
        text.parse().map_err(|_| format!("bad {what} in `{key}`"))
    }
    let Some(&(_, text)) = pairs.iter().find(|(k, _)| *k == key) else {
        match field {
            Field::Flag(v) => *v = false,
            Field::Optional { index, .. } => *index = None,
            _ => return Err(format!("missing field `{key}`")),
        }
        return Ok(());
    };
    let spelled = |names: &[&'static str]| {
        let index = names.iter().position(|name| *name == text);
        index.ok_or_else(|| format!("unknown {} `{text}`", key.replace('_', " ")))
    };
    match field {
        Field::Text(v) => *v = text.to_string(),
        Field::U64(v) => *v = parse(text, "integer", key)?,
        Field::U32(v) => *v = parse(text, "integer", key)?,
        Field::Usize(v) => *v = parse(text, "integer", key)?,
        Field::F64(v) => {
            *v = parse(text, "number", key)?;
            if !v.is_finite() {
                return Err(format!("bad number in `{key}`"));
            }
        }
        Field::Exact(v) => *v = parse_f64(text).ok_or_else(|| format!("bad number in `{key}`"))?,
        Field::Bool(v) | Field::Flag(v) => *v = parse(text, "boolean", key)?,
        Field::Choice { names, index } => *index = spelled(names)?,
        Field::Optional { names, index } => *index = Some(spelled(names)?),
    }
    Ok(())
}

/// Presents the `index`-th of `names` as a [`Field::Choice`] and returns
/// the index the visitor leaves behind, checked to be one of them.
fn choose<const N: usize>(
    visit: &mut impl FnMut(&'static str, Field<'_>) -> Result<(), String>,
    key: &'static str,
    names: [&'static str; N],
    mut index: usize,
) -> Result<usize, String> {
    let choice = Field::Choice {
        names: &names,
        index: &mut index,
    };
    visit(key, choice)?;
    if index < N {
        Ok(index)
    } else {
        Err(format!("`{key}` was left outside its {N} spellings"))
    }
}

/// Presents an enum field through its spelling table.
fn word<T: Copy + PartialEq, const N: usize>(
    visit: &mut impl FnMut(&'static str, Field<'_>) -> Result<(), String>,
    key: &'static str,
    table: &[(&'static str, T); N],
    field: &mut T,
) -> Result<(), String> {
    let names = table.map(|(name, _)| name);
    let index = table.iter().position(|(_, v)| v == field).unwrap_or(N);
    *field = table[choose(visit, key, names, index)?].1;
    Ok(())
}

/// The scenario's one field list: presents every scalar of `spec` to
/// `visit` as `(wire key, field)` in wire order, the optional blocks
/// (workload arm, fault profile, Ψ partition) under conditions every
/// visitor meets alike.
///
/// The spec's [`SystemConfig`] is destructured exhaustively, so a new
/// config field does not compile until it gets a wire line here or an
/// explicit off-wire entry (`tick`, `initial_threshold` and
/// `feedback_targeting` are off the wire: [`ScenarioSpec::check`] holds
/// them at their defaults).
///
/// # Errors
///
/// Stops at, and returns, the first error `visit` returns.
pub fn walk_spec(
    spec: &mut ScenarioSpec,
    mut visit: impl FnMut(&'static str, Field<'_>) -> Result<(), String>,
) -> Result<(), String> {
    let visit = &mut visit;
    let ScenarioSpec {
        name,
        description,
        seed,
        system,
        workload,
        config,
        psi,
        share,
    } = spec;
    let SystemConfig {
        sim_seed,
        policy,
        estimator,
        metric,
        cache_bandwidth_mean,
        source_bandwidth_mean,
        bandwidth_change_rate,
        alpha,
        omega,
        warmup,
        measure,
        fault,
        tick: _,
        initial_threshold: _,
        feedback_targeting: _,
    } = config;
    visit("name", Field::Text(name))?;
    visit("description", Field::Text(description))?;
    visit("seed", Field::U64(seed))?;
    visit("sim_seed", Field::U64(sim_seed))?;
    word(visit, "system", &SystemKind::NAMES, system)?;

    let was_buoy = matches!(workload, WorkloadKind::Buoy { .. });
    let arms = ["poisson", "buoy"];
    let buoy = choose(visit, "workload", arms, was_buoy as usize)? == 1;
    if buoy != was_buoy {
        // The visitor switched arms; it overwrites every field below.
        let config = BuoyConfig::paper();
        *workload = match buoy {
            true => WorkloadKind::Buoy { config },
            false => ScenarioSpec::default().workload,
        };
    }
    match workload {
        WorkloadKind::Poisson {
            sources,
            objects_per_source,
            rate_range,
            weight_range,
            fluctuating_weights,
        } => {
            visit("sources", Field::U32(sources))?;
            visit("objects_per_source", Field::U32(objects_per_source))?;
            visit("rate_lo", Field::F64(&mut rate_range.0))?;
            visit("rate_hi", Field::F64(&mut rate_range.1))?;
            visit("weight_lo", Field::F64(&mut weight_range.0))?;
            visit("weight_hi", Field::F64(&mut weight_range.1))?;
            visit("fluctuating_weights", Field::Bool(fluctuating_weights))?;
        }
        WorkloadKind::Buoy { config } => {
            let BuoyConfig {
                buoys,
                components,
                sample_interval,
                duration,
                reversion,
                noise,
            } = config;
            visit("buoys", Field::U32(buoys))?;
            visit("components", Field::U32(components))?;
            visit("sample_interval", Field::F64(sample_interval))?;
            visit("duration", Field::F64(duration))?;
            visit("reversion", Field::F64(reversion))?;
            visit("noise", Field::F64(noise))?;
        }
    }

    word(visit, "policy", &POLICIES, policy)?;
    word(visit, "estimator", &ESTIMATORS, estimator)?;
    // `Metric` holds a function pointer, so it is matched by name, not
    // by `==`; `deviation` always decodes to the absolute difference.
    let metrics = Metric::all_three();
    let index = metrics.iter().position(|m| m.name() == metric.name());
    let names = metrics.map(|m| m.name());
    *metric = metrics[choose(visit, "metric", names, index.unwrap_or(3))?];
    visit("cache_bandwidth_mean", Field::F64(cache_bandwidth_mean))?;
    visit("source_bandwidth_mean", Field::F64(source_bandwidth_mean))?;
    visit("bandwidth_change_rate", Field::F64(bandwidth_change_rate))?;
    visit("alpha", Field::F64(alpha))?;
    visit("omega", Field::F64(omega))?;
    visit("warmup", Field::F64(warmup))?;
    visit("measure", Field::F64(measure))?;

    // The fault block exists only when a profile is set, so fault-free
    // scenarios keep their exact pre-fault text (and old text decodes to
    // `fault: None`). Once present, every sub-field is mandatory and the
    // recovery kind must be known: silently decoding an unknown fault
    // regime to something else would change what the far side simulates.
    let recoveries = [
        RecoveryPolicy::DegradeStale,
        RecoveryPolicy::Retransmit { deadline: 0.0 },
        RecoveryPolicy::Resync,
    ];
    let names = &recoveries.map(|r| r.kind_name());
    let spelled = |f: FaultProfile| names.iter().position(|n| *n == f.recovery.kind_name());
    let mut kind = fault.map(|f| spelled(f).unwrap_or(names.len()));
    let index = &mut kind;
    visit("fault", Field::Optional { names, index })?;
    *fault = match kind {
        None => None,
        Some(kind) => {
            let mut profile = fault.unwrap_or_default();
            let FaultProfile {
                loss_prob,
                outage_rate,
                outage_duration,
                outage_drops_queue,
                crash_rate,
                crash_downtime,
                recovery,
                aware,
            } = &mut profile;
            let was = *recovery;
            let picked = recoveries.get(kind).copied();
            *recovery = picked.ok_or("`fault` was left outside its spellings")?;
            if let RecoveryPolicy::Retransmit { deadline } = recovery {
                if let RecoveryPolicy::Retransmit { deadline: was } = was {
                    *deadline = was;
                }
                visit("fault_retransmit_deadline", Field::F64(deadline))?;
            }
            visit("fault_loss_prob", Field::F64(loss_prob))?;
            visit("fault_outage_rate", Field::F64(outage_rate))?;
            visit("fault_outage_duration", Field::F64(outage_duration))?;
            visit("fault_outage_drops_queue", Field::Bool(outage_drops_queue))?;
            visit("fault_crash_rate", Field::F64(crash_rate))?;
            visit("fault_crash_downtime", Field::F64(crash_downtime))?;
            visit("fault_aware", Field::Flag(aware))?;
            Some(profile)
        }
    };

    // The Ψ partition only exists for §7 scenarios: absent from every
    // other scenario's text (which so stays byte-identical to its
    // pre-competitive form), mandatory once the system is competitive —
    // defaults would silently change what the far side simulates.
    if matches!(system, SystemKind::Competitive) {
        visit("psi", Field::F64(psi))?;
        word(visit, "share_policy", &SHARES, share)?;
    }
    Ok(())
}

/// Encodes a scenario as the line-based text form.
///
/// # Errors
///
/// Returns an error if the scenario uses a deviation function other than
/// the standard absolute difference (function pointers don't serialize),
/// if its name or description holds a line break, or if
/// [`ScenarioSpec::check`] refuses it (the far side could not run it).
pub fn encode(spec: &ScenarioSpec) -> Result<String, String> {
    if let Metric::Deviation(f) = spec.metric {
        // Function pointers don't serialize and can't be compared
        // reliably (codegen may merge or duplicate them), so probe the
        // function's behaviour against the standard absolute difference
        // on a few points before claiming `deviation` means abs.
        let probes = [(0.0, 0.0), (5.0, 3.0), (-2.5, 4.0), (1e6, -1e6)];
        if probes.iter().any(|&(a, b)| f(a, b) != abs_deviation(a, b)) {
            return Err(format!(
                "scenario `{}` uses a custom deviation function, which cannot be serialized",
                spec.name
            ));
        }
    }
    spec.check()?;
    let mut out = begin(HEADER);
    walk_spec(&mut spec.clone(), |key, field| put(&mut out, key, field))?;
    Ok(out)
}

/// Decodes the line-based text form back into a scenario.
///
/// # Errors
///
/// Returns a message naming the first malformed or missing field, in
/// wire order, or [`ScenarioSpec::check`]'s refusal of the decoded
/// scenario.
pub fn decode(text: &str) -> Result<ScenarioSpec, String> {
    let pairs = pairs(text, HEADER)?;
    // Fields the walk does not visit keep these defaults: no fault
    // profile, outside §7 `psi = 0` with the piggyback share, and the
    // off-wire run parameters.
    let mut spec = ScenarioSpec::default();
    walk_spec(&mut spec, |key, field| take(&pairs, key, field))?;
    spec.check()?;
    Ok(spec)
}

/// Formats an `f64` so decoding reproduces it bit for bit.
///
/// Finite values use Rust's shortest round-trip decimal formatting (the
/// same guarantee the scenario codec leans on). Non-finite values — an
/// empty `RunningStats` legitimately carries `±∞`, and a degenerate run
/// can produce `NaN` means — are written as an explicit `!x` bit pattern
/// so even NaN payloads survive.
///
/// Public because every text artifact in the repo that must survive a
/// round trip (worker protocol frames, the statistical-acceptance
/// baseline) shares this one canonical spelling.
pub fn fmt_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        format!("!x{:016x}", x.to_bits())
    }
}

/// Inverse of [`fmt_f64`], accepting only canonical spellings — one
/// legal text per value. The `!x` form must be exactly 16 hex digits
/// (no sign, no short forms) and must denote a *non-finite* value;
/// decimal text that parses to a non-finite value (an overflowing
/// `1e999`, or a literal `NaN`/`inf` smuggled outside the `!x` form) is
/// rejected symmetrically.
pub fn parse_f64(s: &str) -> Option<f64> {
    if let Some(hex) = s.strip_prefix("!x") {
        if hex.len() != 16 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        let v = f64::from_bits(u64::from_str_radix(hex, 16).ok()?);
        return (!v.is_finite()).then_some(v);
    }
    let v: f64 = s.parse().ok()?;
    v.is_finite().then_some(v)
}

/// Encodes a [`RunReport`] as the line-based text form — the reply unit
/// of the sweep-shard worker protocol. Every counter and every `f64`
/// (including the raw threshold-summary accumulator state) survives the
/// trip bit for bit, so a report collected from a worker process is
/// indistinguishable from one produced in-process.
pub fn encode_report(report: &RunReport) -> String {
    let mut out = begin(REPORT_HEADER);
    let walked = (report.clone()).walk(|key, slot| put(&mut out, key, slot.into()));
    walked.expect("a report holds only numbers, which hold no line breaks");
    out
}

/// Decodes the line-based text form back into a [`RunReport`].
///
/// # Errors
///
/// Returns a message naming the first malformed or missing field. Never
/// panics: a hostile or truncated worker reply must surface as a
/// structured error the sweep supervisor can act on, not take it down.
pub fn decode_report(text: &str) -> Result<RunReport, String> {
    let pairs = pairs(text, REPORT_HEADER)?;
    let mut report = RunReport::default();
    report.walk(|key, slot| take(&pairs, key, slot.into()))?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::{all, by_name};
    use besync::fault::FaultSummary;
    use besync_data::account::DivergenceReport;
    use besync_sim::stats::RunningStats;

    #[test]
    fn every_registered_scenario_round_trips() {
        for spec in all() {
            let text = encode(&spec).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            let back = decode(&text).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            // Re-encoding the decoded spec must reproduce the exact text:
            // field-by-field bit-identity without needing PartialEq on
            // function pointers.
            assert_eq!(text, encode(&back).unwrap(), "{} round trip", spec.name);
        }
    }

    #[test]
    fn decoded_scenario_replays_the_same_trajectory() {
        // The sharding contract: a spec shipped through the codec runs
        // the identical simulation on the far side.
        let spec = by_name("small").unwrap().quick();
        let shipped = decode(&encode(&spec).unwrap()).unwrap();
        assert_eq!(spec.run().first_difference(&shipped.run()), None);
    }

    #[test]
    fn buoy_workloads_round_trip() {
        let spec = ScenarioSpec::builder("buoy_test")
            .description("fig5-style scenario")
            .buoy(BuoyConfig::quick())
            .metric(Metric::abs_deviation())
            .finish();
        let text = encode(&spec).unwrap();
        let back = decode(&text).unwrap();
        assert_eq!(text, encode(&back).unwrap());
        match back.workload {
            WorkloadKind::Buoy { config } => assert_eq!(config.buoys, 8),
            _ => panic!("lost the buoy workload"),
        }
    }

    #[test]
    fn custom_deviation_functions_refuse_to_encode() {
        use besync_data::metric::squared_deviation;
        let mut spec = by_name("small").unwrap();
        spec.metric = Metric::Deviation(squared_deviation);
        assert!(encode(&spec).is_err());
    }

    #[test]
    fn decode_reports_missing_and_malformed_fields() {
        assert!(decode("not a scenario").is_err());
        let text = encode(&by_name("small").unwrap()).unwrap();
        let truncated = without_field(&text, "measure");
        let err = decode(&truncated).unwrap_err();
        assert!(err.contains("measure"), "{err}");
        let mangled = text.replace("cache_bandwidth_mean ", "cache_bandwidth_mean x");
        assert!(decode(&mangled).is_err());
        // Parameters are finite in both directions: Rust parses `NaN` and
        // `inf`, and the run would panic or report NaN on them.
        for bad in ["NaN", "inf", "-inf", "1e999"] {
            let mangled = replace_field_value(&text, "cache_bandwidth_mean", bad);
            let err = decode(&mangled).unwrap_err();
            assert_eq!(err, "bad number in `cache_bandwidth_mean`", "{bad}");
        }
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = put(&mut String::new(), "alpha", Field::F64(&mut { bad })).unwrap_err();
            assert!(err.contains("`alpha`"), "{err}");
        }
        // Booleans are as strict as numbers: a corrupted flag must fail,
        // not silently decode to false.
        let bad_bool = text.replace("fluctuating_weights false", "fluctuating_weights fals");
        let err = decode(&bad_bool).unwrap_err();
        assert!(err.contains("fluctuating_weights"), "{err}");
        // Integers parse at their field's width: 2^32 + 1 must not wrap
        // to a one-source scenario the far side then runs "successfully".
        let too_wide = replace_field_value(&text, "sources", "4294967297");
        assert_eq!(decode(&too_wide).unwrap_err(), "bad integer in `sources`");
    }

    fn exotic_report() -> RunReport {
        // Worst-case float inventory: negative zero, subnormals, huge and
        // tiny magnitudes, NaN with a non-default payload, both
        // infinities (an empty RunningStats carries ±∞ legitimately).
        RunReport {
            divergence: DivergenceReport {
                objects: 12_345,
                total_unweighted: -0.0,
                total_weighted: f64::MIN_POSITIVE / 8.0, // subnormal
                mean_unweighted: 0.1 + 0.2,              // classic non-representable sum
                mean_weighted: f64::from_bits(0x7ff8_0000_0000_beef), // NaN, payload bits
                max_unweighted: 1.797e308,
                refreshes_applied: u64::MAX,
            },
            refreshes_sent: 0,
            refreshes_delivered: u64::MAX - 1,
            feedback_messages: 7,
            polls_sent: 3,
            max_cache_queue: usize::MAX,
            mean_queue_wait: f64::NEG_INFINITY,
            threshold_stats: RunningStats::new(), // min = +∞, max = −∞
            updates_processed: 1,
            faults: FaultSummary {
                lost_refreshes: u64::MAX,
                retransmits: 0,
                outages: 3,
                outage_seconds: f64::INFINITY,
                dropped_in_outage: 9,
                crashes: u64::MAX - 2,
                down_seconds: -0.0,
                missed_updates: 11,
                resync_quotes: 13,
                epoch_divergence: f64::from_bits(0x7ff8_0000_0000_dead), // NaN payload
                stale_drops: u64::MAX - 3,
                superseded_retries: 17,
            },
            competitive: None,
        }
    }

    #[test]
    fn run_report_round_trips_bit_exact() {
        // Real reports from actual runs, with and without the §7 block...
        for name in ["small", "golden_competitive_piggyback"] {
            let real = by_name(name).unwrap().quick().run();
            let back = decode_report(&encode_report(&real)).unwrap();
            assert_eq!(real.first_difference(&back), None, "{name}");
            assert_eq!(back.competitive.is_some(), name != "small");
        }
        // ...and a synthetic one stuffed with every float pathology.
        let exotic = exotic_report();
        let back = decode_report(&encode_report(&exotic)).unwrap();
        assert_eq!(exotic.first_difference(&back), None);
        // Idempotence: re-encoding the decoded report reproduces the text.
        assert_eq!(encode_report(&exotic), encode_report(&back));
    }

    #[test]
    fn report_differences_are_named_by_wire_key() {
        // The last field of the walk, which the hand-written comparators
        // this replaces never looked at.
        let a = exotic_report();
        let mut b = a.clone();
        b.faults.superseded_retries += 1;
        assert_eq!(a.first_difference(&b), Some("fault_superseded_retries"));
        // Floats differ by bit pattern, not by `==`.
        let mut c = a.clone();
        c.faults.down_seconds = 0.0;
        assert_eq!(a.first_difference(&c), Some("fault_down_seconds"));
        // A report with the §7 block differs from one without at the
        // block's presence slot, in either order.
        let mut d = a.clone();
        d.competitive = Some(Box::default());
        assert_eq!(a.first_difference(&d), Some("competitive"));
        assert_eq!(d.first_difference(&a), Some("competitive"));
    }

    #[test]
    fn wire_text_is_pinned() {
        // `tests/wire/*.txt` were recorded from the tree before the field
        // walk existed: the text is what old workers, baselines and logs
        // hold, so it must not move. Covers the fault block (retransmit
        // deadline + aware flag), the Ψ block, and the buoy workload arm.
        for (name, text) in [
            ("medium", include_str!("../tests/wire/medium.txt")),
            (
                "lossy_aware_medium",
                include_str!("../tests/wire/lossy_aware_medium.txt"),
            ),
            (
                "competitive_lossy",
                include_str!("../tests/wire/competitive_lossy.txt"),
            ),
            ("buoy_week", include_str!("../tests/wire/buoy_week.txt")),
        ] {
            assert_eq!(encode(&by_name(name).unwrap()).unwrap(), text, "{name}");
        }
        let exotic = include_str!("../tests/wire/exotic_report.txt");
        assert_eq!(encode_report(&exotic_report()), exotic);
    }

    #[test]
    fn non_finite_floats_only_decode_through_the_bit_form() {
        let text = encode_report(&by_name("small").unwrap().quick().run());
        // Textual NaN / inf / overflowing decimals must be rejected: the
        // only legal spelling of a non-finite value is the explicit `!x`
        // bit pattern, so a sloppy producer can't silently smuggle one in.
        for bad in ["NaN", "inf", "-inf", "infinity", "1e999"] {
            let mangled = replace_field_value(&text, "mean_queue_wait", bad);
            let err = decode_report(&mangled).unwrap_err();
            assert!(err.contains("mean_queue_wait"), "{bad}: {err}");
        }
        // The bit form itself round-trips a quiet NaN.
        let nan_text = replace_field_value(&text, "mean_queue_wait", "!x7ff8000000000000");
        assert!(decode_report(&nan_text).unwrap().mean_queue_wait.is_nan());
        // …but only in canonical form: exactly 16 hex digits, no sign,
        // and never denoting a finite value (finite values have exactly
        // one legal spelling — the decimal one).
        for bad in [
            "!x0",                 // short
            "!x+7ff8000000000000", // sign smuggled past from_str_radix
            "!x3ff0000000000000",  // finite 1.0 through the bit form
            "!x7ff80000000000000", // too long
            "!xgff8000000000000g", // non-hex
        ] {
            let mangled = replace_field_value(&text, "mean_queue_wait", bad);
            assert!(decode_report(&mangled).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn report_decode_reports_missing_and_malformed_fields() {
        assert!(decode_report("not a report").is_err());
        let text = encode_report(&by_name("small").unwrap().quick().run());
        let truncated = without_field(&text, "updates_processed");
        let err = decode_report(&truncated).unwrap_err();
        assert!(err.contains("updates_processed"), "{err}");
        let mangled = replace_field_value(&text, "refreshes_sent", "twelve");
        assert!(decode_report(&mangled).is_err());
        // Once the §7 block is announced, every field of it is mandatory.
        let text = encode_report(&by_name("competitive_medium").unwrap().quick().run());
        let err = decode_report(&without_field(&text, "source_objective")).unwrap_err();
        assert_eq!(err, "missing field `source_objective`");
    }

    /// Drops `key`'s line from an encoded key-value text.
    fn without_field(text: &str, key: &str) -> String {
        let kept = text.lines().filter(|l| !l.starts_with(key));
        kept.collect::<Vec<_>>().join("\n")
    }

    /// Replaces `key`'s value in an encoded key-value text.
    fn replace_field_value(text: &str, key: &str, value: &str) -> String {
        text.lines()
            .map(|l| {
                if l.starts_with(&format!("{key} ")) {
                    format!("{key} {value}")
                } else {
                    l.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// `tick`, `initial_threshold` and `feedback_targeting` have no wire
    /// line, so a spec must keep their defaults to run the same on both
    /// sides of a pipe.
    #[test]
    fn off_wire_parameters_must_keep_their_defaults() {
        use besync::cache::FeedbackTargeting;
        type Edit = fn(&mut SystemConfig);
        let cases: [(&str, Edit); 3] = [
            ("tick", |c| c.tick = 0.5),
            ("initial_threshold", |c| c.initial_threshold = 2.0),
            ("feedback_targeting", |c| {
                c.feedback_targeting = FeedbackTargeting::RoundRobin
            }),
        ];
        for (field, edit) in cases {
            let mut spec = by_name("small").unwrap();
            edit(&mut spec);
            let needle = format!("`{field}`");
            let refused = spec.check().unwrap_err();
            assert!(refused.contains(&needle), "{refused}");
            assert_eq!(encode(&spec).unwrap_err(), refused);
        }
    }

    /// The `small` scenario under `fault`.
    fn small_with_fault(fault: FaultProfile) -> ScenarioSpec {
        let mut spec = by_name("small").unwrap();
        spec.fault = Some(fault);
        spec
    }

    #[test]
    fn fault_profiles_round_trip_for_every_recovery_kind() {
        for recovery in [
            RecoveryPolicy::DegradeStale,
            RecoveryPolicy::Retransmit { deadline: 2.5 },
            RecoveryPolicy::Resync,
        ] {
            let spec = small_with_fault(FaultProfile {
                loss_prob: 0.125,
                outage_rate: 0.01,
                outage_duration: 7.5,
                outage_drops_queue: true,
                crash_rate: 0.002,
                crash_downtime: 30.0,
                recovery,
                aware: false,
            });
            let text = encode(&spec).unwrap();
            let back = decode(&text).unwrap();
            assert_eq!(text, encode(&back).unwrap(), "{}", recovery.kind_name());
            assert_eq!(back.fault, Some(spec.fault.unwrap()));
            // `aware: false` is the implicit default: no line emitted, so
            // pre-fault-aware text is reproduced exactly.
            assert!(!text.contains("fault_aware"), "{text}");
        }
        // The aware flag round-trips when set.
        let aware_spec = small_with_fault(FaultProfile {
            loss_prob: 0.25,
            recovery: RecoveryPolicy::Retransmit { deadline: 4.0 },
            aware: true,
            ..FaultProfile::default()
        });
        let text = encode(&aware_spec).unwrap();
        assert!(text.contains("fault_aware true"), "{text}");
        let back = decode(&text).unwrap();
        assert_eq!(back.fault, aware_spec.fault);
        assert_eq!(text, encode(&back).unwrap());
        // A corrupted aware flag fails loudly, like every other boolean.
        let bad = replace_field_value(&text, "fault_aware", "maybe");
        let err = decode(&bad).unwrap_err();
        assert!(err.contains("fault_aware"), "{err}");
        // Fault-free specs emit no fault block at all, so pre-fault text
        // is reproduced exactly and decodes back to None.
        let plain = by_name("small").unwrap();
        let text = encode(&plain).unwrap();
        assert!(!text.contains("fault"), "{text}");
        assert_eq!(decode(&text).unwrap().fault, None);
    }

    #[test]
    fn unknown_or_invalid_fault_blocks_are_rejected() {
        let spec = small_with_fault(FaultProfile {
            loss_prob: 0.1,
            ..FaultProfile::default()
        });
        let text = encode(&spec).unwrap();
        // An unknown recovery kind must fail loudly, not decode to some
        // other regime.
        let mangled = replace_field_value(&text, "fault", "carrier-pigeon");
        let err = decode(&mangled).unwrap_err();
        assert!(err.contains("carrier-pigeon"), "{err}");
        // Out-of-range probabilities are caught by profile validation.
        let bad = replace_field_value(&text, "fault_loss_prob", "1.5");
        assert!(decode(&bad).is_err());
        // A fault block missing a sub-field is incomplete, not defaulted.
        let truncated = without_field(&text, "fault_crash_rate");
        let err = decode(&truncated).unwrap_err();
        assert!(err.contains("fault_crash_rate"), "{err}");
        // A profile the system kind cannot model is refused in both
        // directions, so no worker is ever asked to `build()` it: the
        // pollers and the ideal scheduler model refresh loss only.
        let outage = replace_field_value(&text, "fault_outage_rate", "0.01");
        let outage = replace_field_value(&outage, "fault_outage_duration", "5");
        assert!(decode(&outage).is_ok(), "coop models outages");
        for (system, kind) in [("cgm1", "CGM1"), ("ideal", "ideal")] {
            let lossy = replace_field_value(&text, "system", system);
            let back = decode(&lossy).expect("loss alone is modelled");
            let err = decode(&replace_field_value(&outage, "system", system)).unwrap_err();
            assert!(err.contains(kind) && err.contains("`outage_rate`"), "{err}");
            let mut unrunnable = back;
            unrunnable.fault = decode(&outage).unwrap().fault;
            assert_eq!(encode(&unrunnable).unwrap_err(), err);
        }
    }

    #[test]
    fn line_breaks_in_string_fields_refuse_to_encode() {
        // A newline in a free-text field would inject spurious key-value
        // lines (e.g. a second `seed`) into the line-based format.
        let spec = ScenarioSpec {
            name: "evil\nseed 999".into(),
            ..by_name("small").unwrap()
        };
        assert!(encode(&spec).is_err());
        let spec = ScenarioSpec {
            description: "two\nlines".into(),
            ..by_name("small").unwrap()
        };
        assert!(encode(&spec).is_err());
    }
}
