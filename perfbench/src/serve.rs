//! `serve`: transcode-on-demand serving at sixteen independent sites,
//! 500k target viewers and 4,096 VCUs in all.
//! At each site, viewers arrive over a Zipf catalog, segment lookups
//! hit or miss a cache smaller than the working set, and misses
//! coalesce onto transcodes injected into an open-world cluster. The
//! modelled caches start empty.
//!
//! A site's cost depends on its catalog: popularity is Pareto with an
//! exponent near 1, so a seed's few most popular videos set the hit
//! ratio. Split into sixteen sites with seeds derived from the
//! benchmark seed, the total transcode count varies about 5% from seed
//! to seed; as four sites of four times the size it varied 11%.
//!
//! The traced run records spans only. Attaching a telemetry registry
//! (`ServeSim::with_telemetry`) keeps the inner cluster sampling while
//! the registry's own sample events are queued, which lengthens the
//! cluster report's horizon and adds samples, so the traced report
//! would no longer equal the untraced one (see the test below).

use crate::checks::{check_sessions, SessionCounts};
use crate::metrics::{fnv, report_digest, Values, UNAVAILABLE};
use crate::trace::{self_time_of, Tracer};
use crate::Repetition;
use std::time::Instant;
use vcu_rng::mix64;
use vcu_serve::{ServeConfig, ServeReport, ServeSim};

/// Independent serving sites per repetition.
const SITES: u64 = 16;

fn config(seed: u64) -> ServeConfig {
    ServeConfig {
        viewers: 31_250,
        horizon_s: 60.0,
        catalog_videos: 2_500,
        cache_segments: 4_096,
        vcus: 256,
        seed,
        ..ServeConfig::default()
    }
}

pub fn repetition(seed: u64, tr: &mut Tracer) -> Repetition {
    let t = Instant::now();
    let sims: Vec<ServeSim> = (0..SITES)
        .map(|site| {
            tr.span("serve.new", site, |_| {
                ServeSim::new(config(mix64(seed, site)))
            })
        })
        .collect();
    let setup_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let reports: Vec<ServeReport> = sims
        .into_iter()
        .zip(0..)
        .map(|(sim, site)| tr.span("serve.run", site, |_| sim.run()))
        .collect();
    let mut it = Repetition {
        setup_s,
        run_s: t.elapsed().as_secs_f64(),
        ..Repetition::default()
    };
    for r in &reports {
        it.attempted += r.arrivals;
        it.failed += r.shed_sessions + r.aborted_sessions;
        it.items += r.segments_served as f64;
        it.digest = fnv(it.digest, &report_digest(r).to_le_bytes());
        if let Err(e) = check_sessions(&SessionCounts::from(r)) {
            it.violation(e);
        }
    }
    if tr.enabled() {
        it.layer = layer_metrics(&reports, tr);
    }
    it
}

fn layer_metrics(reports: &[ServeReport], tr: &Tracer) -> Values {
    let spans = tr.spans();
    let sum = |f: fn(&ServeReport) -> u64| reports.iter().map(f).sum::<u64>();
    let max = |f: fn(&ServeReport) -> f64| reports.iter().map(f).fold(0.0, f64::max);
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let run_s = self_time_of(spans, "serve.run");
    let (segments, misses, transcodes) = (
        sum(|r| r.segments_served),
        sum(|r| r.cache_misses),
        sum(|r| r.transcodes),
    );
    let lookups = sum(|r| r.cache_hits) + misses;
    let completed = sum(|r| r.cluster.completed);
    let jobs = completed + sum(|r| r.cluster.failed);
    let wait_weighted: f64 = reports
        .iter()
        .map(|r| r.cluster.mean_wait_s * r.cluster.completed as f64)
        .sum();
    vec![
        ("serve.new_s", self_time_of(spans, "serve.new")),
        ("serve.run_s", run_s),
        ("serve.ns_per_segment", run_s * 1e9 / segments.max(1) as f64),
        ("serve.arrivals", sum(|r| r.arrivals) as f64),
        ("serve.segments_served", segments as f64),
        ("serve.cache.lookups", lookups as f64),
        ("serve.cache.hit_ratio", 1.0 - ratio(misses, lookups)),
        ("serve.transcodes", transcodes as f64),
        ("serve.coalesce_frac", 1.0 - ratio(transcodes, misses)),
        ("serve.shed_sessions", sum(|r| r.shed_sessions) as f64),
        (
            "serve.fail_frac",
            ratio(
                sum(|r| r.shed_sessions + r.aborted_sessions),
                sum(|r| r.arrivals),
            ),
        ),
        (
            "serve.peak_concurrent_max_site",
            max(|r| r.peak_concurrent as f64),
        ),
        ("serve.ttff_p50_worst_site_sim_s", max(|r| r.ttff_p50_s)),
        ("serve.ttff_p99_worst_site_sim_s", max(|r| r.ttff_p99_s)),
        ("cluster.jobs", jobs as f64),
        ("cluster.completed", completed as f64),
        ("cluster.fail_frac", ratio(jobs - completed, jobs)),
        ("cluster.retries", sum(|r| r.cluster.retries) as f64),
        (
            "cluster.watchdog_fired",
            sum(|r| r.cluster.watchdog_fired) as f64,
        ),
        ("cluster.repairs", sum(|r| r.cluster.repairs) as f64),
        (
            "cluster.mean_wait_sim_s",
            wait_weighted / completed.max(1) as f64,
        ),
        // The cluster steps in lockstep inside `ServeSim::run`; its
        // host time is not separable from outside.
        ("cluster.ns_per_job", UNAVAILABLE),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checks::check_digests;
    use vcu_telemetry::Registry;

    /// A real negative control for the digest check, and a pin on a
    /// known defect: when this starts failing, attaching telemetry no
    /// longer changes the report, and the traced run can attach it.
    #[test]
    fn attaching_telemetry_still_changes_the_serve_report() {
        let cfg = ServeConfig {
            viewers: 2_000,
            vcus: 32,
            ..ServeConfig::default()
        };
        let plain = ServeSim::new(cfg.clone()).run();
        let observed = ServeSim::new(cfg).with_telemetry(Registry::new()).run();
        assert!(check_sessions(&SessionCounts::from(&plain)).is_ok());
        assert_eq!(plain.segments_served, observed.segments_served);
        assert!(check_digests(report_digest(&observed), report_digest(&plain)).is_err());
    }
}
