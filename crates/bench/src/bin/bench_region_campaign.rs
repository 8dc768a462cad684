//! Region-campaign sweep: multi-region planets over regions × fleet
//! size × traffic growth, with the isolated-regions counterfactual.
//!
//! Drives [`vcu_regions::run_region_campaign`]: each cell runs a
//! [`vcu_regions::PlanetSim`] twice from the same seed — overflow
//! routing enabled, then disabled — over phase-shifted diurnal demand,
//! rolling firmware-upgrade waves, and correlated rack-domain outages.
//! The full sweep tops out at a 102,400-VCU four-region planet and
//! writes `results/region_campaign.json`, byte-identical for a fixed
//! `VCU_SEED` and any `VCU_THREADS`.
//!
//! The binary also *gates* overflow routing: in every cell the routed
//! planet's goodput must be at least the isolated planet's, and the
//! anti-phased peaks must actually route work (routed_jobs > 0). A
//! regression in the router (wrong pressure signal, routing into a hot
//! region) shows up here before it ships.
//!
//! Run with: `cargo run --release -p vcu-bench --bin bench_region_campaign`
//! Set `VCU_BENCH_SMOKE=1` for a seconds-long CI configuration that
//! writes to a temp directory instead of `results/`.

use vcu_bench::timing::{artifact_path, smoke};
use vcu_regions::{
    render_region_json, run_region_campaign, RegionCampaignCell, RegionCampaignConfig,
};

fn assert_overflow_helps(cells: &[RegionCampaignCell]) {
    for c in cells {
        assert!(
            c.goodput_overflow >= c.goodput_isolated,
            "overflow routing lost goodput at {} regions x {} cells x {} VCUs (traffic {:.2}): \
             {:.4} < {:.4}",
            c.regions,
            c.cells_per_region,
            c.vcus_per_cell,
            c.traffic_scale,
            c.goodput_overflow,
            c.goodput_isolated
        );
        if c.regions > 1 {
            assert!(
                c.routed_jobs > 0,
                "multi-region cell with anti-phased peaks routed nothing \
                 ({} regions x {} VCUs, traffic {:.2})",
                c.regions,
                c.total_vcus,
                c.traffic_scale
            );
        }
    }
}

fn main() {
    let smoke = smoke();
    let cfg = if smoke {
        RegionCampaignConfig::smoke(vcu_rng::env_seed(42))
    } else {
        RegionCampaignConfig::full(vcu_rng::env_seed(42))
    };

    let max_vcus = cfg.cells.iter().map(|c| c.total_vcus()).max().unwrap_or(0);
    println!(
        "region campaign: {} cells, up to {} VCUs, seed {}\n",
        cfg.cells.len(),
        max_vcus,
        cfg.seed
    );

    let start = std::time::Instant::now();
    let cells = run_region_campaign(&cfg);
    let wall = start.elapsed().as_secs_f64();

    println!(
        "{:>4} {:>6} {:>8} {:>5} {:>9} {:>7} {:>7} {:>8} {:>8} {:>9} {:>9} {:>9}",
        "reg",
        "cells",
        "vcus",
        "traf",
        "jobs",
        "routed",
        "rfrac",
        "good_ov",
        "good_iso",
        "p99ov_s",
        "p99iso_s",
        "perf/tco",
    );
    for c in &cells {
        println!(
            "{:>4} {:>6} {:>8} {:>5.2} {:>9} {:>7} {:>7.4} {:>8.4} {:>8.4} {:>9.1} {:>9.1} {:>9.6}",
            c.regions,
            c.cells_per_region,
            c.total_vcus,
            c.traffic_scale,
            c.jobs,
            c.routed_jobs,
            c.routed_frac,
            c.goodput_overflow,
            c.goodput_isolated,
            c.p99_wait_overflow_s,
            c.p99_wait_isolated_s,
            c.perf_per_tco,
        );
    }
    println!("\nwall time: {wall:.1}s");

    assert_overflow_helps(&cells);
    println!("overflow-routing gate passed: goodput(overflow) >= goodput(isolated) in every cell");

    let path = artifact_path("region_campaign.json");
    std::fs::write(&path, render_region_json(&cfg, &cells)).expect("write campaign json");
    println!("wrote {path}");
}
