//! The stored side of statistical acceptance: a line-based text format
//! for per-scenario metric moments, checked in at the repo root
//! (`STATS_baseline.txt`) the way `COUNTERS_baseline.txt` stores the
//! bit gate's reports.
//!
//! The format is deliberately serde-free and diff-friendly:
//!
//! ```text
//! besync-stats v1
//! scenario medium full seeds=32
//! metric mean_divergence 32 <mean> <m2> <min> <max>
//! metric updates_processed 32 <mean> <m2> <min> <max>
//! end
//! scenario medium quick seeds=16
//! ...
//! end
//! ```
//!
//! Floats use [`besync_scenarios::codec::fmt_f64`] — the same canonical
//! round-trip spelling the sweep worker protocol uses — so a decoded
//! baseline reproduces the recorded Welford state bit for bit (including
//! the `±∞` min/max of an empty accumulator, via the `!x` form).

use besync_scenarios::codec::{fmt_f64, parse_f64};
use besync_sim::stats::{RawRunningStats, RunningStats};

const HEADER: &str = "besync-stats v1";

/// One scenario's recorded metric moments at one scale.
///
/// `quick` tags the CI smoke scale ([`ScenarioSpec::quick`]) so a
/// quick-mode collection can never be compared against a full-scale
/// baseline entry: the two are different populations, and the bench
/// `--compare` gate has the same rule for counters.
///
/// [`ScenarioSpec::quick`]: besync_scenarios::ScenarioSpec::quick
#[derive(Debug, Clone)]
pub struct ScenarioStats {
    /// Registry name of the scenario.
    pub scenario: String,
    /// Whether the runs were at quick (CI smoke) scale.
    pub quick: bool,
    /// Welford summary per recorded metric, in recording order.
    pub metrics: Vec<(String, RunningStats)>,
}

impl ScenarioStats {
    fn scale_word(&self) -> &'static str {
        if self.quick {
            "quick"
        } else {
            "full"
        }
    }

    /// Number of seeds recorded (0 if no metrics).
    pub fn seeds(&self) -> u64 {
        self.metrics.first().map_or(0, |(_, s)| s.count())
    }
}

/// A set of [`ScenarioStats`] entries keyed by `(scenario, quick)`.
#[derive(Debug, Clone, Default)]
pub struct StatBaseline {
    /// The recorded entries, in file order.
    pub entries: Vec<ScenarioStats>,
}

impl StatBaseline {
    /// Looks an entry up by scenario name and scale.
    pub fn get(&self, scenario: &str, quick: bool) -> Option<&ScenarioStats> {
        self.entries
            .iter()
            .find(|e| e.scenario == scenario && e.quick == quick)
    }

    /// Inserts or replaces the entry with `stats`' key.
    pub fn upsert(&mut self, stats: ScenarioStats) {
        match self
            .entries
            .iter_mut()
            .find(|e| e.scenario == stats.scenario && e.quick == stats.quick)
        {
            Some(slot) => *slot = stats,
            None => self.entries.push(stats),
        }
    }

    /// Encodes the canonical text form.
    ///
    /// # Panics
    ///
    /// Panics if a scenario or metric name contains whitespace (they are
    /// whitespace-delimited tokens in the format; registry names never
    /// do).
    pub fn encode(&self) -> String {
        let mut out = String::new();
        out.push_str(HEADER);
        out.push('\n');
        for e in &self.entries {
            assert!(
                !e.scenario.contains(char::is_whitespace) && !e.scenario.is_empty(),
                "scenario name {:?} is not a single token",
                e.scenario
            );
            out.push_str(&format!(
                "scenario {} {} seeds={}\n",
                e.scenario,
                e.scale_word(),
                e.seeds()
            ));
            for (name, stats) in &e.metrics {
                assert!(
                    !name.contains(char::is_whitespace) && !name.is_empty(),
                    "metric name {name:?} is not a single token"
                );
                let raw = stats.to_raw();
                out.push_str(&format!(
                    "metric {} {} {} {} {} {}\n",
                    name,
                    raw.count,
                    fmt_f64(raw.mean),
                    fmt_f64(raw.m2),
                    fmt_f64(raw.min),
                    fmt_f64(raw.max)
                ));
            }
            out.push_str("end\n");
        }
        out
    }

    /// Decodes [`StatBaseline::encode`]'s output, rejecting anything
    /// malformed with a line-numbered message.
    pub fn decode(text: &str) -> Result<StatBaseline, String> {
        let mut lines = text.lines().enumerate();
        let err = |ln: usize, msg: String| format!("stats baseline line {}: {}", ln + 1, msg);
        match lines.next() {
            Some((_, l)) if l.trim_end() == HEADER => {}
            other => {
                return Err(format!(
                    "stats baseline must start with `{HEADER}`, got {:?}",
                    other.map(|(_, l)| l)
                ))
            }
        }
        let mut baseline = StatBaseline::default();
        let mut current: Option<ScenarioStats> = None;
        for (ln, line) in lines {
            let line = line.trim_end();
            if line.is_empty() {
                continue;
            }
            let mut tokens = line.split_whitespace();
            match tokens.next() {
                Some("scenario") => {
                    if current.is_some() {
                        return Err(err(ln, "`scenario` before previous `end`".into()));
                    }
                    let name = tokens
                        .next()
                        .ok_or_else(|| err(ln, "missing scenario name".into()))?;
                    let quick = match tokens.next() {
                        Some("full") => false,
                        Some("quick") => true,
                        other => return Err(err(ln, format!("bad scale token {other:?}"))),
                    };
                    // seeds=N is a human-readability duplicate of the
                    // per-metric counts; validated on `end`.
                    let seeds_tok = tokens
                        .next()
                        .and_then(|t| t.strip_prefix("seeds="))
                        .ok_or_else(|| err(ln, "missing seeds= token".into()))?;
                    let _: u64 = seeds_tok
                        .parse()
                        .map_err(|_| err(ln, format!("bad seed count {seeds_tok:?}")))?;
                    current = Some(ScenarioStats {
                        scenario: name.to_string(),
                        quick,
                        metrics: Vec::new(),
                    });
                }
                Some("metric") => {
                    let entry = current
                        .as_mut()
                        .ok_or_else(|| err(ln, "`metric` outside a scenario block".into()))?;
                    let name = tokens
                        .next()
                        .ok_or_else(|| err(ln, "missing metric name".into()))?;
                    let count = {
                        let t = tokens
                            .next()
                            .ok_or_else(|| err(ln, "truncated metric line".into()))?;
                        t.parse::<u64>()
                            .map_err(|_| err(ln, format!("bad count {t:?}")))?
                    };
                    let mut num = || -> Result<f64, String> {
                        let t = tokens
                            .next()
                            .ok_or_else(|| err(ln, "truncated metric line".into()))?;
                        parse_f64(t).ok_or_else(|| err(ln, format!("bad float {t:?}")))
                    };
                    let (mean, m2, min, max) = (num()?, num()?, num()?, num()?);
                    let raw = RawRunningStats {
                        count,
                        mean,
                        m2,
                        min,
                        max,
                    };
                    if tokens.next().is_some() {
                        return Err(err(ln, "trailing tokens on metric line".into()));
                    }
                    if entry.metrics.iter().any(|(n, _)| n == name) {
                        return Err(err(ln, format!("duplicate metric `{name}`")));
                    }
                    entry
                        .metrics
                        .push((name.to_string(), RunningStats::from_raw(raw)));
                }
                Some("end") => {
                    let entry = current
                        .take()
                        .ok_or_else(|| err(ln, "`end` outside a scenario block".into()))?;
                    if baseline.get(&entry.scenario, entry.quick).is_some() {
                        return Err(err(
                            ln,
                            format!(
                                "duplicate entry for scenario `{}` ({})",
                                entry.scenario,
                                entry.scale_word()
                            ),
                        ));
                    }
                    baseline.entries.push(entry);
                }
                other => return Err(err(ln, format!("unknown directive {other:?}"))),
            }
        }
        if current.is_some() {
            return Err("stats baseline ends inside a scenario block".into());
        }
        Ok(baseline)
    }

    /// Reads and decodes a baseline file.
    pub fn load(path: &std::path::Path) -> Result<StatBaseline, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("could not read {}: {e}", path.display()))?;
        Self::decode(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Encodes and writes the baseline to a file.
    pub fn save(&self, path: &std::path::Path) -> Result<(), String> {
        std::fs::write(path, self.encode())
            .map_err(|e| format!("could not write {}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_stats(xs: &[f64]) -> RunningStats {
        let mut s = RunningStats::new();
        for &x in xs {
            s.push(x);
        }
        s
    }

    fn sample_baseline() -> StatBaseline {
        StatBaseline {
            entries: vec![
                ScenarioStats {
                    scenario: "medium".into(),
                    quick: false,
                    metrics: vec![
                        ("mean_divergence".into(), sample_stats(&[0.31, 0.29, 0.305])),
                        (
                            "updates_processed".into(),
                            sample_stats(&[870123.0, 869001.0, 871455.0]),
                        ),
                    ],
                },
                ScenarioStats {
                    scenario: "medium".into(),
                    quick: true,
                    metrics: vec![("mean_divergence".into(), sample_stats(&[0.4, 0.41]))],
                },
                ScenarioStats {
                    scenario: "empty".into(),
                    quick: false,
                    // Empty accumulator: ±∞ min/max exercise the !x form.
                    metrics: vec![("mean_divergence".into(), RunningStats::new())],
                },
            ],
        }
    }

    #[test]
    fn encode_decode_round_trips_bit_for_bit() {
        let base = sample_baseline();
        let text = base.encode();
        let decoded = StatBaseline::decode(&text).unwrap();
        assert_eq!(decoded.entries.len(), base.entries.len());
        for (a, b) in base.entries.iter().zip(&decoded.entries) {
            assert_eq!(a.scenario, b.scenario);
            assert_eq!(a.quick, b.quick);
            assert_eq!(a.metrics.len(), b.metrics.len());
            for ((na, sa), (nb, sb)) in a.metrics.iter().zip(&b.metrics) {
                assert_eq!(na, nb);
                let (ra, rb) = (sa.to_raw(), sb.to_raw());
                assert_eq!(ra.count, rb.count);
                assert_eq!(ra.mean.to_bits(), rb.mean.to_bits());
                assert_eq!(ra.m2.to_bits(), rb.m2.to_bits());
                assert_eq!(ra.min.to_bits(), rb.min.to_bits());
                assert_eq!(ra.max.to_bits(), rb.max.to_bits());
            }
        }
        // And the round trip is textually a fixed point.
        assert_eq!(decoded.encode(), text);
    }

    #[test]
    fn lookup_distinguishes_scales() {
        let base = sample_baseline();
        assert_eq!(base.get("medium", false).unwrap().seeds(), 3);
        assert_eq!(base.get("medium", true).unwrap().seeds(), 2);
        assert!(base.get("medium_value", false).is_none());
    }

    #[test]
    fn upsert_replaces_matching_scale_only() {
        let mut base = sample_baseline();
        base.upsert(ScenarioStats {
            scenario: "medium".into(),
            quick: true,
            metrics: vec![("mean_divergence".into(), sample_stats(&[9.0, 9.0, 9.0]))],
        });
        assert_eq!(base.get("medium", true).unwrap().seeds(), 3);
        assert_eq!(base.get("medium", false).unwrap().seeds(), 3);
        assert_eq!(base.entries.len(), 3, "upsert must not append a duplicate");
        base.upsert(ScenarioStats {
            scenario: "fresh".into(),
            quick: false,
            metrics: Vec::new(),
        });
        assert_eq!(base.entries.len(), 4);
    }

    #[test]
    fn malformed_inputs_are_rejected_with_line_numbers() {
        let good = sample_baseline().encode();
        for (mutation, why) in [
            (good.replacen(HEADER, "besync-stats v0", 1), "bad header"),
            (good.replacen("scenario", "scenrio", 1), "bad directive"),
            (good.replacen(" full ", " sorta ", 1), "bad scale"),
            (good.replacen("end\n", "", 1), "unterminated block"),
            (
                good.clone() + "metric stray 1 0 0 0 0\n",
                "metric outside block",
            ),
            (
                good.replacen("metric updates_processed", "metric mean_divergence", 1),
                "duplicate metric",
            ),
        ] {
            assert!(StatBaseline::decode(&mutation).is_err(), "accepted {why}");
        }
        // Duplicate (scenario, scale) entries are rejected too.
        let mut dup = sample_baseline();
        let first = dup.entries[0].clone();
        dup.entries.push(first);
        assert!(StatBaseline::decode(&dup.encode()).is_err());
    }
}
