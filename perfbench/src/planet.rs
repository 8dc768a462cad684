//! `planet`: one multi-region run at the region campaign's timing:
//! regions of parallel cluster cells under diurnal demand, overflow
//! routing, rolling upgrade waves and correlated domain failures.

use crate::checks::{check_planet, check_threads, threads_used, PlanetCounts};
use crate::metrics::{report_digest, Values, UNAVAILABLE};
use crate::trace::{self_time_of, Tracer};
use crate::Repetition;
use std::time::Instant;
use vcu_regions::{PlanetConfig, PlanetReport, PlanetSim, RegionCampaignConfig, RegionCellSpec};

/// Executor threads the planet runs at.
pub const THREADS: usize = 2;

fn config(seed: u64) -> PlanetConfig {
    let spec = RegionCellSpec {
        regions: 4,
        cells_per_region: 4,
        vcus_per_cell: 1_600,
        traffic_scale: 1.3,
    };
    RegionCampaignConfig::full(seed).planet_config(&spec, 0, true)
}

pub fn repetition(seed: u64, tr: &mut Tracer) -> Repetition {
    let mut it = Repetition::default();
    let cfg = config(seed);
    let (horizon_s, epoch_s) = (cfg.horizon_s, cfg.epoch_s);
    let t = Instant::now();
    let sim = tr.span("regions.new", 0, |_| PlanetSim::new(cfg));
    it.setup_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let report = tr.span("regions.run", 0, |_| sim.run());
    it.run_s = t.elapsed().as_secs_f64();
    it.attempted = report.jobs;
    it.failed = report.jobs - report.completed;
    it.items = report.jobs as f64;
    it.digest = report_digest(&report);
    if let Err(e) = check_planet(&PlanetCounts::from(&report)) {
        it.violation(e);
    }
    if let Err(e) = check_threads(THREADS, threads_used(vcu_exec::pool())) {
        it.violation(e);
    }
    if tr.enabled() {
        it.layer = layer_metrics(&report, horizon_s, epoch_s, tr);
    }
    it
}

fn layer_metrics(r: &PlanetReport, horizon_s: f64, epoch_s: f64, tr: &Tracer) -> Values {
    let spans = tr.spans();
    let run_s = self_time_of(spans, "regions.run");
    let sum = |f: fn(&vcu_regions::RegionReport) -> u64| r.regions.iter().map(f).sum::<u64>();
    let jobs = r.jobs.max(1) as f64;
    let completed = sum(|g| g.completed);
    let mean_wait = r
        .regions
        .iter()
        .map(|g| g.mean_wait_s * g.completed as f64)
        .sum::<f64>()
        / completed.max(1) as f64;
    vec![
        ("cluster.jobs", r.jobs as f64),
        ("cluster.completed", completed as f64),
        ("cluster.fail_frac", sum(|g| g.failed) as f64 / jobs),
        // Region reports do not carry the cells' retry counts.
        ("cluster.retries", UNAVAILABLE),
        ("cluster.watchdog_fired", sum(|g| g.watchdog_fired) as f64),
        ("cluster.repairs", sum(|g| g.repairs) as f64),
        ("cluster.mean_wait_sim_s", mean_wait),
        ("cluster.ns_per_job", run_s * 1e9 / jobs),
        ("regions.new_s", self_time_of(spans, "regions.new")),
        ("regions.run_s", run_s),
        ("regions.routed_frac", r.routed_frac),
        (
            "regions.drain_epochs",
            ((r.drained_at_s - horizon_s) / epoch_s).round(),
        ),
        (
            "regions.peak_pressure",
            r.regions
                .iter()
                .map(|g| g.peak_pressure)
                .fold(0.0, f64::max),
        ),
        ("regions.wait_p99_worst_cell_sim_s", r.p99_wait_s),
    ]
}
