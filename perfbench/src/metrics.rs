//! Metric names and units, the statistics the benchmark reports, and
//! the report digest.

/// End-to-end metrics, reported by every workload from runs with
/// tracing off. An item is one source megapixel encoded on
/// `transcode`, one segment delivered on `serve`, and one job resolved
/// on `planet`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("run_s", "s"),
    ("items_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, reported by every workload from the traced run.
/// A layer the workload does not call reads 0; a quantity the layer
/// does not expose on that workload reads [`UNAVAILABLE`]. Names with
/// `_sim_` are on the simulated clock; other times are host seconds.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("media.synth_s", "s"),
    ("media.psnr_s", "s"),
    ("codec.encode_s", "s"),
    ("codec.encode_s.h264_sw", "s"),
    ("codec.encode_s.h264_hw", "s"),
    ("codec.encode_s.vp9_sw", "s"),
    ("codec.encode_s.vp9_hw", "s"),
    ("codec.encode_calls", "count"),
    ("codec.encode_ns_per_px", "ns"),
    ("codec.encode_mpix_per_s", "Mpix/s"),
    ("codec.encode_ms_p50", "ms"),
    ("codec.encode_ms_p90", "ms"),
    ("codec.decode_s", "s"),
    ("codec.decode_ns_per_px", "ns"),
    ("codec.psnr_db", "dB"),
    ("codec.bits_per_pixel", "bit/px"),
    ("codec.sad_pixels", "count"),
    ("codec.sad_pixels_examined", "count"),
    ("codec.sad_examined_frac", "ratio"),
    ("codec.transform_pixels", "count"),
    ("codec.mc_pixels", "count"),
    ("codec.intra_pixels", "count"),
    ("codec.temporal_filter_pixels", "count"),
    ("codec.deblock_pixels", "count"),
    ("codec.ref_bytes_read", "bytes"),
    ("codec.inter_block_frac", "ratio"),
    ("serve.new_s", "s"),
    ("serve.run_s", "s"),
    ("serve.ns_per_segment", "ns"),
    ("serve.arrivals", "count"),
    ("serve.segments_served", "count"),
    ("serve.cache.lookups", "count"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.transcodes", "count"),
    ("serve.coalesce_frac", "ratio"),
    ("serve.shed_sessions", "count"),
    ("serve.fail_frac", "ratio"),
    ("serve.peak_concurrent_max_site", "count"),
    ("serve.ttff_p50_worst_site_sim_s", "s"),
    ("serve.ttff_p99_worst_site_sim_s", "s"),
    ("cluster.jobs", "count"),
    ("cluster.completed", "count"),
    ("cluster.fail_frac", "ratio"),
    ("cluster.retries", "count"),
    ("cluster.watchdog_fired", "count"),
    ("cluster.repairs", "count"),
    ("cluster.mean_wait_sim_s", "s"),
    ("cluster.ns_per_job", "ns"),
    ("regions.new_s", "s"),
    ("regions.run_s", "s"),
    ("regions.routed_frac", "ratio"),
    ("regions.drain_epochs", "count"),
    ("regions.peak_pressure", "ratio"),
    ("regions.wait_p99_worst_cell_sim_s", "s"),
    ("exec.threads", "count"),
    ("exec.tasks", "count"),
    ("exec.steals", "count"),
    ("exec.batches", "count"),
    ("exec.busy_s", "s"),
    ("exec.busy_frac", "ratio"),
    ("trace.spans", "count"),
    ("trace.harness_self_s", "s"),
    ("trace.overhead_frac", "ratio"),
];

/// Value of a per-layer metric the layer does not expose on this
/// workload (every real value is non-negative).
pub const UNAVAILABLE: f64 = -1.0;

/// Metric values in the order a workload produced them.
pub type Values = Vec<(&'static str, f64)>;

/// Median; `NaN` when empty.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Nearest-rank percentile (`q` in `(0, 1]`) of `xs`; `NaN` when
/// empty.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if q == 0.5 && v.len().is_multiple_of(2) {
        let m = v.len() / 2;
        return (v[m - 1] + v[m]) / 2.0;
    }
    let rank = ((v.len() as f64 * q).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// FNV-1a over `bytes`, continuing from `h` (start from [`FNV_SEED`]).
pub fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

pub const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Digest of a modelled report through its `Debug` rendering, which
/// prints every field and every float exactly.
pub fn report_digest<T: std::fmt::Debug>(report: &T) -> u64 {
    fnv(FNV_SEED, format!("{report:?}").as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.9), 90.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to the package");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = json.matches("\"unit\":").count();
        assert_eq!(
            listed,
            END_TO_END.len() + PER_LAYER.len(),
            "extra metrics listed"
        );
    }
}
