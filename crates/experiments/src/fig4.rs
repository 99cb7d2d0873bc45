//! Figure 4 — our algorithm vs the idealized scenario.
//!
//! For every combination of sources `m`, objects-per-source `n`,
//! source-side bandwidth `B_S`, cache-side bandwidth `B_C` and bandwidth
//! change rate `m_B`, run both the pragmatic threshold algorithm and the
//! omniscient ideal scheduler on identical workloads, and plot the ratio
//! of achieved divergence (y) against the theoretically achievable
//! divergence (x). The paper's reading: when the achievable divergence is
//! large (scarce bandwidth / fast data) the ratio approaches 1; when
//! achievable divergence is small, the ratio may be larger but the
//! absolute gap is small.

use besync::priority::PolicyKind;
use besync::RunReport;
use besync_data::Metric;
use besync_scenarios::{ScenarioSpec, SystemKind};
use besync_sweep::{sweep, SweepError, SweepOptions};

use crate::output::{fnum, Row};
use crate::Mode;

/// One scatter point of Figure 4.
#[derive(Debug, Clone)]
pub struct Fig4Row {
    /// Metric panel.
    pub metric: &'static str,
    /// Number of sources.
    pub m: u32,
    /// Objects per source.
    pub n: u32,
    /// Average source-side bandwidth.
    pub bs: f64,
    /// Average cache-side bandwidth.
    pub bc: f64,
    /// Bandwidth change rate `m_B`.
    pub mb: f64,
    /// Theoretically achievable (ideal) total weighted divergence — the
    /// x-axis.
    pub ideal: f64,
    /// Our algorithm's total weighted divergence.
    pub ours: f64,
    /// `ours / ideal` — the y-axis.
    pub ratio: f64,
}

impl Row for Fig4Row {
    fn headers() -> Vec<&'static str> {
        vec![
            "metric",
            "m",
            "n",
            "Bs",
            "Bc",
            "mB",
            "ideal_divergence",
            "our_divergence",
            "ratio",
        ]
    }
    fn fields(&self) -> Vec<String> {
        vec![
            self.metric.to_string(),
            self.m.to_string(),
            self.n.to_string(),
            fnum(self.bs),
            fnum(self.bc),
            format!("{}", self.mb),
            fnum(self.ideal),
            fnum(self.ours),
            fnum(self.ratio),
        ]
    }
}

struct Grid {
    ms: Vec<u32>,
    ns: Vec<u32>,
    bss: Vec<f64>,
    bcs: Vec<f64>,
    mbs: Vec<f64>,
    metrics: Vec<Metric>,
    measure: f64,
    /// Skip combinations with more than this many objects (keeps the
    /// standard grid tractable).
    max_objects: u32,
}

fn grid_for(mode: Mode) -> Grid {
    match mode {
        Mode::Quick => Grid {
            ms: vec![4, 10],
            ns: vec![5, 10],
            bss: vec![10.0],
            bcs: vec![5.0, 20.0],
            mbs: vec![0.0, 0.05],
            metrics: Metric::all_three().to_vec(),
            measure: 200.0,
            max_objects: 1000,
        },
        Mode::Standard => Grid {
            ms: vec![1, 10, 100],
            ns: vec![1, 10],
            bss: vec![10.0, 100.0],
            bcs: vec![10.0, 100.0, 1000.0],
            mbs: vec![0.0, 0.005, 0.25],
            metrics: Metric::all_three().to_vec(),
            measure: 1000.0,
            max_objects: 10_000,
        },
        // The paper's §6.2 grid.
        Mode::Full => Grid {
            ms: vec![1, 10, 100, 1000],
            ns: vec![1, 10, 100],
            bss: vec![10.0, 100.0],
            bcs: vec![10.0, 100.0, 1000.0, 10_000.0, 100_000.0],
            mbs: vec![0.0, 0.005, 0.05, 0.25],
            metrics: Metric::all_three().to_vec(),
            measure: 5000.0,
            max_objects: 100_000,
        },
    }
}

/// One grid cell's coordinates.
type Cell = (Metric, u32, u32, f64, f64, f64);

fn cells_for(g: &Grid) -> Vec<Cell> {
    let mut cells = Vec::new();
    for &metric in &g.metrics {
        for &m in &g.ms {
            for &n in &g.ns {
                if m * n > g.max_objects {
                    continue;
                }
                for &bs in &g.bss {
                    for &bc in &g.bcs {
                        // Skip cells where the cache link dwarfs both the
                        // total source capacity and the data volume; they
                        // measure nothing new.
                        if bc > 10.0 * (m as f64) * bs {
                            continue;
                        }
                        for &mb in &g.mbs {
                            cells.push((metric, m, n, bs, bc, mb));
                        }
                    }
                }
            }
        }
    }
    cells
}

/// The two specs a cell compares, in reply order: ideal then coop.
fn cell_specs(cell: Cell, measure: f64, seed: u64) -> [ScenarioSpec; 2] {
    let (metric, m, n, bs, bc, mb) = cell;
    let scenario = |system: SystemKind| {
        ScenarioSpec::builder(format!(
            "fig4/{}/m{m}/n{n}/bs{bs}/bc{bc}/mb{mb}",
            metric.name()
        ))
        .seed(seed ^ ((m as u64) << 32 | (n as u64) << 16))
        .system(system)
        .objects(m, n)
        .rate_range(0.02, 1.0)
        .weight_range(1.0, 10.0)
        .fluctuating_weights(true)
        .policy(PolicyKind::Area)
        .metric(metric)
        .bandwidth(bc, bs)
        .bandwidth_change_rate(mb)
        .window(measure * 0.2, measure)
        .finish()
    };
    [scenario(SystemKind::Ideal), scenario(SystemKind::Coop)]
}

fn cell_row(cell: Cell, ideal: &RunReport, ours: &RunReport) -> Fig4Row {
    let (metric, m, n, bs, bc, mb) = cell;
    let ideal = ideal.divergence.total_weighted;
    let ours = ours.divergence.total_weighted;
    let ratio = if ideal > 1e-9 { ours / ideal } else { f64::NAN };
    Fig4Row {
        metric: metric.name(),
        m,
        n,
        bs,
        bc,
        mb,
        ideal,
        ours,
        ratio,
    }
}

/// Runs the Figure 4 grid in-process.
pub fn run(mode: Mode, seed: u64) -> Vec<Fig4Row> {
    run_with(mode, seed, &SweepOptions::default()).expect("in-process sweeps cannot fail")
}

/// Runs the Figure 4 grid through a sweep runner — in-process threads or
/// `--shards N` worker processes, byte-identical either way.
///
/// # Errors
///
/// Only the process-sharded path can fail (worker spawn/protocol).
pub fn run_with(mode: Mode, seed: u64, opts: &SweepOptions) -> Result<Vec<Fig4Row>, SweepError> {
    let g = grid_for(mode);
    let cells = cells_for(&g);
    let mut specs = Vec::with_capacity(cells.len() * 2);
    for &cell in &cells {
        specs.extend(cell_specs(cell, g.measure, seed));
    }
    let outcomes = sweep(&specs, opts)?.into_outcomes();
    Ok(cells
        .iter()
        .zip(outcomes.chunks_exact(2))
        .map(|(&cell, pair)| cell_row(cell, &pair[0].report, &pair[1].report))
        .collect())
}

/// Summary statistics the paper's Figure 4 conveys: the ratio by x-band.
pub fn summarize(rows: &[Fig4Row]) -> Vec<(String, f64)> {
    // Median ratio for low/mid/high thirds of the achievable-divergence
    // range, per metric.
    let mut out = Vec::new();
    for metric in ["staleness", "lag", "deviation"] {
        let mut pts: Vec<(f64, f64)> = rows
            .iter()
            .filter(|r| r.metric == metric && r.ratio.is_finite())
            .map(|r| (r.ideal, r.ratio))
            .collect();
        if pts.len() < 3 {
            continue;
        }
        pts.sort_by(|a, b| a.0.total_cmp(&b.0));
        let third = pts.len() / 3;
        for (name, chunk) in [
            ("low", &pts[..third]),
            ("mid", &pts[third..2 * third]),
            ("high", &pts[2 * third..]),
        ] {
            let mut ratios: Vec<f64> = chunk.iter().map(|p| p.1).collect();
            ratios.sort_by(f64::total_cmp);
            let median = ratios[ratios.len() / 2];
            out.push((format!("{metric}/{name}"), median));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_grid_runs() {
        let rows = run(Mode::Quick, 5);
        assert!(!rows.is_empty());
        for r in &rows {
            assert!(r.ideal >= 0.0 && r.ours >= 0.0);
            if r.ratio.is_finite() {
                // The pragmatic algorithm can't do meaningfully better
                // than the omniscient ideal (small noise slack).
                assert!(r.ratio > 0.5, "ratio {} at {:?}", r.ratio, (r.m, r.n));
            }
        }
    }

    #[test]
    fn summary_bands() {
        let rows = run(Mode::Quick, 6);
        let s = summarize(&rows);
        assert!(!s.is_empty());
        for (_, median) in &s {
            assert!(median.is_finite());
        }
    }
}
