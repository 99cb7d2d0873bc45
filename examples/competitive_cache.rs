//! Competitive environments (paper §7): the cache and the sources want
//! different things kept fresh. A Web index weights landing pages high;
//! each retailer wants its *specials* page pushed. The cache dedicates a
//! fraction Ψ of its bandwidth to source priorities and the rest to its
//! own, under three sharing options.
//!
//! ```sh
//! cargo run --release --example competitive_cache
//! ```

use besync::cache::partition::SharePolicy;
use besync_data::Metric;
use besync_scenarios::ScenarioSpec;

const SITES: u32 = 20;
const PAGES: u32 = 10;

fn main() {
    println!("{SITES} sites × {PAGES} pages; cache and sites disagree on which half matters\n");
    println!("  psi   option        cache objective   source objective   source sends");

    for &psi in &[0.0, 0.2, 0.4, 0.6] {
        for (policy, name) in [
            (SharePolicy::EqualShare, "equal"),
            (SharePolicy::ProportionalToObjects, "per-object"),
            (SharePolicy::ProportionalToValue, "piggyback"),
        ] {
            // A competitive scenario weights the first half of each site's
            // pages 10:1 for the cache (popular content) and the second
            // half 10:1 for the site (its promotions).
            let r = ScenarioSpec::builder("competitive_cache")
                .seed(3)
                .objects(SITES, PAGES)
                .rate_range(0.05, 0.6)
                .weight_range(1.0, 1.0)
                .fluctuating_weights(false)
                .metric(Metric::Staleness)
                .bandwidth(0.25 * f64::from(SITES * PAGES), 5.0)
                .window(80.0, 400.0)
                .competitive(psi, policy)
                .finish()
                .run();
            let sites = r.competitive.expect("a §7 run reports the sites' side");
            println!(
                " {:>4.1}   {:<10}   {:>15.3}   {:>16.3}   {:>12}",
                psi,
                name,
                r.divergence.mean_weighted,
                sites.source_objective,
                sites.source_refreshes
            );
        }
    }

    println!();
    println!("larger Ψ buys the sources freshness for *their* content at the");
    println!("cache's expense — the incentive lever of §7. Piggybacking ties a");
    println!("site's say to how much it serves the cache's own priorities.");
}
