//! Load-adaptive multi-resolution synopses — the extension the paper
//! defers to follow-up work (§2.3): under light load use a fine synopsis
//! (better correlation estimates, slightly costlier stage 1); under heavy
//! load fall back to a coarse one.
//!
//! ```text
//! cargo run --release --example adaptive_synopsis
//! ```

// Examples narrate to stdout by design.
#![allow(clippy::print_stdout)]

use accuracytrader::prelude::*;
use accuracytrader::synopsis::MultiSynopsis;
use std::time::Instant;

fn main() {
    let data = RatingsDataset::generate(RatingsConfig {
        n_users: 3000,
        n_items: 240,
        ratings_per_user: 70,
        ..RatingsConfig::small()
    });
    let rows = accuracytrader::recommender::rating_matrix(3000, 240, &data.ratings);

    let multi = MultiSynopsis::build(
        &rows,
        AggregationMode::Mean,
        SynopsisConfig {
            size_ratio: 80,
            ..SynopsisConfig::default()
        },
    );
    println!("resolutions available (aggregated points per level):");
    for level in multi.levels() {
        println!("  depth {}: {:>5} points", level.depth, level.len());
    }

    // An active user to probe each resolution's stage-1 cost and ranking.
    let profile: Vec<(u32, f64)> = data
        .ratings
        .iter()
        .filter(|r| r.user == 0)
        .map(|r| (r.item, r.stars))
        .collect();
    let profile = SparseRow::from_pairs(profile);

    println!(
        "\n{:<14} {:>10} {:>16} {:>14}",
        "utilization", "points", "stage1 time", "top |w|"
    );
    for utilization in [0.0, 0.5, 0.8, 1.0] {
        let level = multi.select_for_utilization(utilization);
        // Time the synopsis pass at this resolution: weight every
        // aggregated user against the active profile and rank.
        let t0 = Instant::now();
        let mut correlations: Vec<Correlation> = level
            .synopsis
            .iter()
            .map(|p| Correlation {
                node: p.node,
                score: accuracytrader::recommender::user_weight(&profile, &p.info)
                    .0
                    .abs(),
            })
            .collect();
        correlations = accuracytrader::core::rank(correlations);
        let elapsed = t0.elapsed();
        println!(
            "{:<14.1} {:>10} {:>13.0} us {:>14.3}",
            utilization,
            level.len(),
            elapsed.as_secs_f64() * 1e6,
            correlations.first().map_or(0.0, |c| c.score),
        );
    }
    println!(
        "\nHigher load selects a coarser synopsis: fewer aggregated points to\n\
         weigh per request, at the price of coarser correlation estimates."
    );
}
