//! Fault-campaign sweep: goodput, black-holing, and tail latency under
//! injected fleet faults, swept over fault rate × MTTR.
//!
//! Drives [`vcu_cluster::run_campaign`] over a 1 000-VCU fleet with the
//! full §4.4 failure-management machinery armed (watchdogs, backoff
//! retries, periodic golden screening, health scoring, the graceful-
//! degradation ladder) and writes `results/fault_campaign.json`. The
//! artifact is byte-identical for a fixed `VCU_SEED` — two runs of this
//! binary must produce the same file, which `tests/determinism.rs`
//! and CI both pin.
//!
//! The binary also *gates* graceful degradation: goodput must decay
//! smoothly as the fault rate climbs from 0 to 10% of the fleet — no
//! adjacent-cell cliff, and a floor at the highest rate. A regression
//! in the mitigation loop (e.g. watchdogs stop firing, the ladder
//! stops shedding) shows up here as a cliff before it ships.
//!
//! Run with: `cargo run --release -p vcu-bench --bin bench_fault_campaign`
//! Set `VCU_BENCH_SMOKE=1` for a seconds-long CI configuration that
//! writes to a temp directory instead of `results/`.

use vcu_bench::timing::{artifact_path, smoke};
use vcu_cluster::{render_json, run_campaign, CampaignCell, CampaignConfig};

/// Max goodput drop tolerated between adjacent fault-rate cells at the
/// same MTTR: the "no cliff" bound.
const MAX_STEP_DROP: f64 = 0.20;
/// Goodput floor at the worst swept cell (10% of the fleet faulted,
/// never repaired).
const GOODPUT_FLOOR: f64 = 0.55;

fn assert_graceful(cells: &[CampaignCell]) {
    // Cells arrive grouped by MTTR, fault rate ascending within each
    // group (run_campaign's iteration order).
    let mut groups: Vec<Vec<&CampaignCell>> = Vec::new();
    for c in cells {
        match groups.last_mut() {
            Some(g) if g.last().unwrap().fault_rate < c.fault_rate => g.push(c),
            _ => groups.push(vec![c]),
        }
    }
    for g in &groups {
        for w in g.windows(2) {
            let drop = w[0].goodput_frac - w[1].goodput_frac;
            assert!(
                drop <= MAX_STEP_DROP,
                "goodput cliff: {:.3} -> {:.3} between fault rates {:.2} and {:.2} (mttr {:?})",
                w[0].goodput_frac,
                w[1].goodput_frac,
                w[0].fault_rate,
                w[1].fault_rate,
                w[0].mttr_s
            );
        }
        let worst = g.last().unwrap();
        assert!(
            worst.goodput_frac >= GOODPUT_FLOOR,
            "goodput floor breached: {:.3} < {GOODPUT_FLOOR} at fault rate {:.2} (mttr {:?})",
            worst.goodput_frac,
            worst.fault_rate,
            worst.mttr_s
        );
    }
}

fn main() {
    let smoke = smoke();
    let cfg = if smoke {
        CampaignConfig {
            vcus: 64,
            jobs_per_vcu: 60,
            seed: vcu_rng::env_seed(42),
            fault_rates: vec![0.0, 0.05, 0.10],
            mttr_s: vec![20.0, f64::INFINITY],
        }
    } else {
        CampaignConfig {
            seed: vcu_rng::env_seed(42),
            ..CampaignConfig::default()
        }
    };

    println!(
        "fault campaign: {} VCUs, {} jobs/VCU, seed {}\n",
        cfg.vcus, cfg.jobs_per_vcu, cfg.seed
    );
    let cells = run_campaign(&cfg);

    println!(
        "{:>6} {:>8} {:>8} {:>7} {:>8} {:>9} {:>6} {:>6} {:>5} {:>6}  degrade frac l0..l3",
        "rate",
        "mttr_s",
        "goodput",
        "blackh",
        "p99_w_s",
        "watchdog",
        "shed",
        "quar",
        "rep",
        "blast",
    );
    for c in &cells {
        println!(
            "{:>6.2} {:>8} {:>8.3} {:>7} {:>8.1} {:>9} {:>6} {:>6} {:>5} {:>6.2}  [{:.2} {:.2} {:.2} {:.2}]",
            c.fault_rate,
            if c.mttr_s.is_finite() {
                format!("{:.0}", c.mttr_s)
            } else {
                "never".to_owned()
            },
            c.goodput_frac,
            c.black_holed,
            c.p99_wait_s,
            c.watchdog_fired,
            c.shed,
            c.quarantined_workers,
            c.repairs,
            c.blast_radius,
            c.degrade_time_frac[0],
            c.degrade_time_frac[1],
            c.degrade_time_frac[2],
            c.degrade_time_frac[3],
        );
    }

    assert_graceful(&cells);
    println!("\ngraceful-degradation gate passed: no adjacent cliff > {MAX_STEP_DROP}, floor {GOODPUT_FLOOR}");

    let path = artifact_path("fault_campaign.json");
    std::fs::write(&path, render_json(&cfg, &cells)).expect("write campaign json");
    println!("wrote {path}");
}
