//! Structural integration tests of the experiment harness: every
//! table/figure generator produces well-formed rows with the paper's
//! qualitative shape at quick scale, and CSV emission round-trips.

use besync_experiments::output::{render_csv, render_table, Row};
use besync_experiments::{competitive, fig4, fig5, fig6, Mode};

#[test]
fn fig6_reproduces_paper_ordering() {
    let rows = fig6::run(Mode::Quick, 101);
    assert!(!rows.is_empty());
    for r in &rows {
        // All five curves present and ordered: cooperation ≤ cache-based.
        for v in [r.ideal_coop, r.ours, r.ideal_cache, r.cgm1, r.cgm2] {
            assert!((0.0..=1.0).contains(&v), "staleness out of range: {v}");
        }
        assert!(r.ideal_coop <= r.ours + 0.05);
        assert!(r.ours <= r.cgm1.max(r.cgm2) + 0.02);
    }
    let csv = render_csv(&rows);
    assert!(csv.starts_with("m,n,bw_fraction"));
    assert_eq!(csv.lines().count(), rows.len() + 1);
}

#[test]
fn fig4_ratio_compresses_toward_one_at_high_divergence() {
    let rows = fig4::run(Mode::Quick, 102);
    let finite: Vec<&fig4::Fig4Row> = rows.iter().filter(|r| r.ratio.is_finite()).collect();
    assert!(finite.len() >= 6, "too few informative cells");
    let summary = fig4::summarize(&rows);
    assert!(!summary.is_empty());
    // For each metric with all three bands present, high-band ratios are
    // no worse than low-band ones (the paper's key shape).
    for metric in ["staleness", "lag", "deviation"] {
        let low = summary.iter().find(|(k, _)| k == &format!("{metric}/low"));
        let high = summary.iter().find(|(k, _)| k == &format!("{metric}/high"));
        if let (Some((_, lo)), Some((_, hi))) = (low, high) {
            assert!(
                hi <= lo,
                "{metric}: high-divergence median ratio {hi} should not exceed low {lo}"
            );
        }
    }
}

#[test]
fn fig5_table_is_well_formed() {
    let rows = fig5::run(Mode::Quick, 103);
    assert_eq!(rows.len(), 8); // 4 bandwidths × 2 regimes at quick scale
    for r in &rows {
        assert!(r.ideal >= 0.0 && r.ours >= 0.0);
        assert!(r.ideal <= 10.0 && r.ours <= 10.0); // wind range
    }
    let table = render_table(&rows);
    assert!(table.contains("fluctuating"));
}

#[test]
fn competitive_experiment_produces_all_options() {
    let rows = competitive::run(Mode::Quick, 108);
    for option in ["equal_share", "per_object", "piggyback"] {
        assert!(
            rows.iter().any(|r| r.option == option),
            "missing option {option}"
        );
    }
    // Ψ=0 rows exist and spend nothing on source priorities.
    for r in rows.iter().filter(|r| r.psi == 0.0) {
        assert_eq!(r.source_refreshes, 0, "option {}", r.option);
    }
}

#[test]
fn experiment_rows_are_deterministic_per_seed() {
    let a = fig6::run(Mode::Quick, 109);
    let b = fig6::run(Mode::Quick, 109);
    let fields_a: Vec<Vec<String>> = a.iter().map(|r| r.fields()).collect();
    let fields_b: Vec<Vec<String>> = b.iter().map(|r| r.fields()).collect();
    assert_eq!(fields_a, fields_b);
    let c = fig6::run(Mode::Quick, 110);
    let fields_c: Vec<Vec<String>> = c.iter().map(|r| r.fields()).collect();
    assert_ne!(fields_a, fields_c, "different seeds should differ");
}
