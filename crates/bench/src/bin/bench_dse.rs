//! Chip design-space exploration: the co-design Pareto frontier.
//!
//! Sweeps candidate VCU designs — encoder cores × decoder cores × raw
//! DRAM bandwidth × reference-store SRAM — and evaluates every cell on
//! the full cluster simulator under a fixed offered load (steady leg)
//! and under the fault campaign's fault mix (fault leg), then writes
//! the Pareto frontier over (steady perf/VCU, fault goodput, perf/TCO,
//! latency headroom) to `results/dse_frontier.json`.
//!
//! In-binary gates, all fatal:
//!
//! 1. **byte-identity** — the sweep is run at parallelism 1 and again
//!    at parallelism 4 (or `VCU_THREADS`), and the rendered JSON must
//!    match byte-for-byte;
//! 2. **anchor-on-frontier** — the shipped VCU appears exactly once
//!    and no candidate dominates it beyond `DEFAULT_ANCHOR_TOL` (2%):
//!    if the model claims a strictly better chip was left on the
//!    table, the model is miscalibrated and CI fails;
//! 3. **frontier consistency** — the `on_frontier` flags must be
//!    exactly the non-dominated set, independently recomputed.
//!
//! Run with: `cargo run --release -p vcu-bench --bin bench_dse`
//! Set `VCU_BENCH_SMOKE=1` for a seconds-long 3×3 sweep that writes to
//! a temp directory instead of `results/`.

use vcu_bench::timing::{artifact_path, smoke};
use vcu_dse::{
    check_anchor, frontier_flags, render_dse_json, run_dse, DseCandidate, DseConfig,
    DEFAULT_ANCHOR_TOL,
};

fn print_table(candidates: &[DseCandidate]) {
    println!(
        "{:>14} {:>8} {:>7} {:>8} {:>8} {:>8} {:>8} {:>8} {:>9} {:>7}",
        "design",
        "area",
        "card_w",
        "card_usd",
        "perf/vcu",
        "gp_stdy",
        "gp_fault",
        "p99_w_s",
        "perf/tco$",
        "front"
    );
    for c in candidates {
        println!(
            "{:>14} {:>8.1} {:>7.1} {:>8.0} {:>8.1} {:>8.3} {:>8.3} {:>8.2} {:>9.2} {:>5}{}",
            c.design.label(),
            c.area_mm2,
            c.card_power_w,
            c.card_capex_usd,
            c.perf_mpix_s_per_vcu,
            c.goodput_steady,
            c.goodput_fault,
            c.p99_wait_s,
            c.perf_per_tco,
            if c.on_frontier { "*" } else { "" },
            if c.anchor { "  <- shipped" } else { "" },
        );
    }
}

fn main() {
    let smoke = smoke();
    let seed = vcu_rng::env_seed(42);
    let cfg = if smoke {
        DseConfig::smoke(seed)
    } else {
        DseConfig::full(seed)
    };
    let grid = cfg.design_grid().len();
    println!(
        "design-space sweep: {} candidates, {} VCUs, {} jobs/VCU, fault leg {:.0}% mttr {:.0}s, seed {}\n",
        grid, cfg.vcus, cfg.jobs_per_vcu, cfg.fault_rate * 100.0, cfg.mttr_s, cfg.seed
    );

    // Gate 1: byte-identity across executor parallelism. The sweep is
    // run sequentially and again fanned out over the worker pool; the
    // rendered artifacts must agree byte-for-byte.
    let wide = vcu_exec::env_threads().max(4);
    let candidates = run_dse(&cfg, 1);
    let json = render_dse_json(&cfg, &candidates);
    let json_wide = render_dse_json(&cfg, &run_dse(&cfg, wide));
    assert_eq!(
        json, json_wide,
        "DSE artifact differs between parallelism 1 and {wide}"
    );
    println!("byte-identity gate passed: parallelism 1 == parallelism {wide}\n");

    print_table(&candidates);

    // Gate 2: the shipped VCU validates the model by landing on (or
    // within tolerance of) its own frontier.
    if let Err(e) = check_anchor(&candidates, DEFAULT_ANCHOR_TOL) {
        panic!("anchor gate failed: {e}");
    }
    let anchor = candidates.iter().find(|c| c.anchor).expect("anchor");
    assert!(
        anchor.on_frontier,
        "shipped design evaluated off-frontier: {anchor:?}"
    );

    // Gate 3: the reported frontier is exactly the non-dominated set.
    let objectives: Vec<[f64; 4]> = candidates.iter().map(|c| c.objectives()).collect();
    for (c, expect) in candidates.iter().zip(frontier_flags(&objectives)) {
        assert_eq!(
            c.on_frontier,
            expect,
            "frontier flag mismatch for {}",
            c.design.label()
        );
    }
    let frontier = candidates.iter().filter(|c| c.on_frontier).count();
    println!(
        "\nanchor gate passed (tol {DEFAULT_ANCHOR_TOL}): shipped VCU on the {frontier}-point frontier; no dominated point reported"
    );

    let path = artifact_path("dse_frontier.json");
    std::fs::write(&path, json).expect("write dse json");
    println!("wrote {path}");
}
