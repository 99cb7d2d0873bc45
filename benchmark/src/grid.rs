//! `paper_grid`'s breakdown: where a figure regeneration's wall time
//! goes — scheduler kinds, codec, protocol framing, CGM allocation, and
//! what process sharding costs over running in-process.

use std::hint::black_box;

use besync_baselines::freshness;
use besync_scenarios::{codec, ScenarioSpec};
use besync_sweep::protocol::{format_report, format_request, parse_request, parse_response};
use besync_sweep::{SweepOptions, SweepRun};

use crate::run::{by_kind, divergence_vs_ideal, run_grid};
use crate::trace::Tracer;

const CODEC_REPS: u32 = 20;
const ALLOCATE_REPS: u32 = 50;

pub struct Breakdown {
    /// (metric name, value); names are keys of `PER_LAYER` in `main.rs`.
    pub values: Vec<(String, f64)>,
    pub attempted: u64,
    pub failed: u64,
}

/// `sharded` are the timed `Workers(2)` sweeps of the session (at least
/// one) with their wall seconds; `reference` is the encoded reports every
/// sweep of the session must reproduce.
pub fn breakdown(
    specs: &[ScenarioSpec],
    sharded: &[(f64, &SweepRun)],
    reference: &str,
    tr: &mut Tracer,
) -> Breakdown {
    let mut values = Vec::new();
    let mut put = |name: &str, v: f64| values.push((name.to_string(), v));
    let runs = sharded.len() as f64;

    // Worker-measured time by scheduler kind, averaged over the sweeps.
    let kinds = by_kind(specs, sharded.iter().map(|s| s.1));
    let busy_s: f64 = kinds.iter().map(|k| k.1).sum::<f64>() / runs;
    for (kind, kind_busy_s, events) in &kinds {
        let layer = match *kind {
            "cgm_ideal" | "cgm1" | "cgm2" => "baselines",
            _ => "core",
        };
        put(
            &format!("{layer}.{kind}.events_per_sec"),
            *events as f64 / kind_busy_s,
        );
        put(&format!("{layer}.{kind}.busy_s"), kind_busy_s / runs);
    }

    let mut walls: Vec<f64> = sharded.iter().map(|s| s.0).collect();
    let sharded_wall_s = crate::median(&mut walls);
    let last = sharded.last().expect("at least one sharded sweep").1;
    put("sweep.sharded_wall_s", sharded_wall_s);
    put("sweep.worker_busy_s", busy_s);
    put(
        "sweep.overhead_share",
        1.0 - busy_s / (2.0 * sharded_wall_s),
    );
    put(
        "sweep.respawns",
        sharded.iter().map(|s| s.1.summary.respawns).sum::<usize>() as f64,
    );
    put("paper.divergence_vs_ideal", divergence_vs_ideal(last));

    // The same grid without processes: what sharding buys or costs.
    let mut failed = 0;
    match run_grid(specs, SweepOptions::default(), tr) {
        Ok(sample) => {
            put("sweep.inprocess_wall_s", sample.wall_s);
            failed += sample.failed;
            if sample.text != reference {
                eprintln!("CHECK FAILED paper_grid: in-process reports differ from the session's");
                failed += 1;
            }
        }
        Err(msg) => {
            eprintln!("CHECK FAILED paper_grid in-process: {msg}");
            failed += specs.len() as u64;
        }
    }

    // Codec and protocol framing over the grid's own specs and reports.
    let n = f64::from(CODEC_REPS) * specs.len() as f64;
    let spec_texts: Vec<String> = specs
        .iter()
        .map(|s| codec::encode(s).expect("grid specs encode"))
        .collect();
    let report_texts: Vec<String> = last
        .outcomes
        .iter()
        .map(|o| codec::encode_report(&o.report))
        .collect();
    let mut per_op_us = |tr: &mut Tracer, name: &'static str, f: &mut dyn FnMut()| {
        let ((), s) = tr.span(name, |tr| {
            for _ in 0..CODEC_REPS {
                f();
            }
            tr.count(n as u64);
        });
        put(&format!("{name}_us"), s * 1e6 / n);
    };
    per_op_us(tr, "scenarios.codec.encode_spec", &mut || {
        for s in specs {
            black_box(codec::encode(s).ok());
        }
    });
    per_op_us(tr, "scenarios.codec.decode_spec", &mut || {
        for t in &spec_texts {
            black_box(codec::decode(t).ok());
        }
    });
    per_op_us(tr, "scenarios.codec.encode_report", &mut || {
        for o in &last.outcomes {
            black_box(codec::encode_report(&o.report));
        }
    });
    per_op_us(tr, "scenarios.codec.decode_report", &mut || {
        for t in &report_texts {
            black_box(codec::decode_report(t).ok());
        }
    });
    // One frame = a request written and read plus its reply written and
    // read: the text that crosses the pipe for one spec.
    per_op_us(tr, "sweep.protocol.frame", &mut || {
        for (seq, (spec, report)) in spec_texts.iter().zip(&report_texts).enumerate() {
            black_box(parse_request(&format_request(seq, spec)).ok());
            black_box(parse_response(&format_report(seq, 0.001, 0.1, report)).ok());
        }
    });

    // CGM's freshness-optimal allocation over the grid's 1000 rates.
    let rates = specs[0].workload().rates;
    let ((), s) = tr.span("baselines.allocate", |tr| {
        for _ in 0..ALLOCATE_REPS {
            black_box(freshness::allocate(black_box(&rates), 500.0));
        }
        tr.count(u64::from(ALLOCATE_REPS));
    });
    put("baselines.allocate_s", s / f64::from(ALLOCATE_REPS));

    Breakdown {
        values,
        attempted: specs.len() as u64,
        failed,
    }
}
