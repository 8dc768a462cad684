//! Serving campaign: TTFF, rebuffer rate, cache hit ratio, and the
//! egress-vs-transcode cost split for live viewer populations.
//!
//! Drives [`vcu_serve::run_serve_campaign`] over a cache sweep (fixed
//! 100k-viewer cell, growing segment cache) and a scale sweep up to a
//! 1.2M-viewer target (≥ 1M observed peak concurrency), writing
//! `results/serve_campaign.json`. The artifact is byte-identical for a
//! fixed `VCU_SEED` — `tests/determinism.rs` and CI both pin it, for
//! any `VCU_THREADS` value.
//!
//! The binary also *gates* the serving layer:
//! - session accounting is exact in every cell (arrivals = admitted +
//!   shed, admitted = completed + aborted);
//! - the hit ratio is monotone across the cache sweep;
//! - TTFF p99 has no cliff as the cache grows (a bigger cache must
//!   never make tail startup meaningfully worse);
//! - the full sweep's largest cell reaches ≥ 1M peak concurrent
//!   viewers.
//!
//! Run with: `cargo run --release -p vcu-bench --bin bench_serve`
//! Set `VCU_BENCH_SMOKE=1` for a seconds-long CI configuration that
//! writes to a temp directory instead of `results/`.

use vcu_bench::timing::{artifact_path, smoke};
use vcu_serve::{render_serve_json, run_serve_campaign, ServeCampaignCell, ServeCampaignConfig};

/// Peak concurrency the full sweep must demonstrate.
const FULL_PEAK_FLOOR: u64 = 1_000_000;
/// Allowed TTFF p99 growth between adjacent cache-sweep cells: a
/// bigger cache may shift the tail a little (different miss mix), but
/// never a cliff.
const TTFF_CLIFF_FACTOR: f64 = 1.25;
const TTFF_CLIFF_SLACK_S: f64 = 0.05;

fn assert_gates(cells: &[ServeCampaignCell], full: bool) {
    for c in cells {
        assert_eq!(
            c.arrivals,
            c.admitted + c.shed,
            "arrival accounting broke at {} viewers / cache {}",
            c.viewers,
            c.cache_segments
        );
        assert_eq!(
            c.admitted,
            c.completed + c.aborted,
            "session accounting broke at {} viewers / cache {}",
            c.viewers,
            c.cache_segments
        );
    }
    // Cache-sweep groups: consecutive cells with the same viewer count
    // and fleet, ascending cache size.
    let mut groups: Vec<Vec<&ServeCampaignCell>> = Vec::new();
    for c in cells {
        match groups.last_mut() {
            Some(g)
                if g.last().unwrap().viewers == c.viewers
                    && g.last().unwrap().vcus == c.vcus
                    && g.last().unwrap().cache_segments < c.cache_segments =>
            {
                g.push(c)
            }
            _ => groups.push(vec![c]),
        }
    }
    for g in groups.iter().filter(|g| g.len() > 1) {
        for w in g.windows(2) {
            assert!(
                w[1].hit_ratio >= w[0].hit_ratio,
                "hit ratio fell with a bigger cache: {:.4} (cache {}) -> {:.4} (cache {})",
                w[0].hit_ratio,
                w[0].cache_segments,
                w[1].hit_ratio,
                w[1].cache_segments
            );
            assert!(
                w[1].ttff_p99_s <= w[0].ttff_p99_s * TTFF_CLIFF_FACTOR + TTFF_CLIFF_SLACK_S,
                "TTFF p99 cliff across the cache sweep: {:.3}s (cache {}) -> {:.3}s (cache {})",
                w[0].ttff_p99_s,
                w[0].cache_segments,
                w[1].ttff_p99_s,
                w[1].cache_segments
            );
        }
    }
    if full {
        let peak = cells.iter().map(|c| c.peak_concurrent).max().unwrap_or(0);
        assert!(
            peak >= FULL_PEAK_FLOOR,
            "full sweep must reach >= {FULL_PEAK_FLOOR} peak concurrent viewers, got {peak}"
        );
    }
}

fn main() {
    let quick = smoke();
    let seed = vcu_rng::env_seed(42);
    let cfg = if quick {
        ServeCampaignConfig::smoke(seed)
    } else {
        ServeCampaignConfig::full(seed)
    };

    println!(
        "serve campaign: {} cells, seed {}{}\n",
        cfg.cells.len(),
        seed,
        if quick { " (smoke)" } else { "" }
    );
    let cells = run_serve_campaign(&cfg);

    println!(
        "{:>9} {:>6} {:>8} {:>9} {:>7} {:>9} {:>8} {:>8} {:>7} {:>8} {:>9} {:>9} {:>9}",
        "viewers",
        "vcus",
        "cache",
        "peak",
        "shed",
        "ttff_p50",
        "ttff_p99",
        "rebuf%",
        "hit%",
        "xcodes",
        "egress$",
        "xcode$",
        "degr%",
    );
    for c in &cells {
        println!(
            "{:>9} {:>6} {:>8} {:>9} {:>7} {:>8.3}s {:>7.3}s {:>7.3}% {:>6.1}% {:>8} {:>9.2} {:>9.2} {:>8.1}%",
            c.viewers,
            c.vcus,
            c.cache_segments,
            c.peak_concurrent,
            c.shed,
            c.ttff_p50_s,
            c.ttff_p99_s,
            c.rebuffer_ratio * 100.0,
            c.hit_ratio * 100.0,
            c.transcodes,
            c.egress_cost_usd,
            c.transcode_cost_usd,
            c.degraded_frac * 100.0,
        );
    }

    assert_gates(&cells, !quick);
    println!(
        "\nserving gates passed: exact accounting, monotone hit ratio, no TTFF p99 cliff{}",
        if quick {
            String::new()
        } else {
            format!(", peak >= {FULL_PEAK_FLOOR}")
        }
    );

    let path = artifact_path("serve_campaign.json");
    std::fs::write(&path, render_serve_json(&cfg, &cells)).expect("write campaign json");
    println!("wrote {path}");
}
