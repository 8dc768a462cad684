//! `transcode`: one clip of each content class from the vbench-like
//! quick suite, re-seeded, through the four fig7 encoder
//! configurations, alternating between two QPs; each encode is
//! followed by a decode and a luma-PSNR check against the source.

use crate::checks::{check_decode, check_psnr};
use crate::metrics::{fnv, median, percentile, Values};
use crate::trace::{self_time_of, self_times, Span, Tracer};
use crate::Repetition;
use std::time::Instant;
use vcu_codec::{decode, encode, CodingStats, EncoderConfig, Profile, Qp, TuningLevel};
use vcu_media::quality::psnr_y_video;
use vcu_media::Video;
use vcu_rng::mix64;
use vcu_workloads::{suite, SuiteScale};

/// One quick-suite clip per content class (screen, talking head, UGC,
/// gaming, high motion), at 144p and 240p, 24 to 60 fps.
const CLIPS: [&str; 5] = ["presentation", "house", "bike", "game_1", "cricket"];

/// The fig7 configurations: (encode span name, profile, hardware).
const CONFIGS: [(&str, Profile, bool); 4] = [
    ("codec.encode.h264_sw", Profile::H264Sim, false),
    ("codec.encode.h264_hw", Profile::H264Sim, true),
    ("codec.encode.vp9_sw", Profile::Vp9Sim, false),
    ("codec.encode.vp9_hw", Profile::Vp9Sim, true),
];

/// Two points of the fig7 RD sweep, good and low quality. Each clip
/// meets each QP under two configurations, and each configuration
/// meets each QP on more than one clip.
const QPS: [u8; 2] = [26, 38];

/// Lowest acceptable decoded-vs-source luma PSNR at these QPs.
const PSNR_FLOOR_DB: f64 = 25.0;

fn config(profile: Profile, hardware: bool, qp: u8) -> EncoderConfig {
    let cfg = EncoderConfig::const_qp(profile, Qp::new(qp));
    if hardware {
        cfg.with_hardware(TuningLevel::LAUNCH)
    } else {
        cfg
    }
}

pub fn repetition(seed: u64, tr: &mut Tracer) -> Repetition {
    // Set-up: synthesize the clips, each re-seeded from `seed`
    // (content class, resolution, length and frame rate are kept).
    let t = Instant::now();
    let mut clips: Vec<_> = suite(SuiteScale::Quick)
        .into_iter()
        .filter(|c| CLIPS.contains(&c.name))
        .collect();
    for (i, c) in clips.iter_mut().enumerate() {
        c.spec.seed = mix64(seed, i as u64);
    }
    let videos: Vec<Video> = clips
        .iter()
        .enumerate()
        .map(|(i, c)| tr.span("media.synth", i as u64, |_| c.video()))
        .collect();
    let setup_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut it = tr.span(crate::HARNESS_SPAN, 0, |tr| run(&videos, tr));
    it.run_s = t.elapsed().as_secs_f64();
    it.setup_s = setup_s;
    if tr.enabled() {
        it.layer.extend(span_metrics(tr, &it));
    }
    it
}

/// Per-call tallies that become per-layer metrics.
#[derive(Default)]
struct Tally {
    stats: CodingStats,
    source_px: u64,
    psnr_sum: f64,
    psnr_n: u64,
}

fn run(videos: &[Video], tr: &mut Tracer) -> Repetition {
    let mut it = Repetition::default();
    let mut tally = Tally::default();
    for (ci, video) in videos.iter().enumerate() {
        for (k, &(span, profile, hardware)) in CONFIGS.iter().enumerate() {
            let request = (ci * CONFIGS.len() + k) as u64;
            let cfg = config(profile, hardware, QPS[(ci + k) % QPS.len()]);
            it.attempted += 2; // one encode, one decode
            let enc = match tr.span(span, request, |_| encode(&cfg, video)) {
                Ok(e) => e,
                Err(e) => {
                    it.fail(format!("encode {request}: {e}"));
                    it.failed += 1; // the decode never ran
                    continue;
                }
            };
            tally.stats += enc.stats;
            tally.source_px += video.total_pixels();
            it.items += video.total_pixels() as f64 / 1e6;
            it.digest = fnv(it.digest, &enc.bytes);
            let dec = match tr.span("codec.decode", request, |_| decode(&enc.bytes)) {
                Ok(d) => d,
                Err(e) => {
                    it.fail(format!("decode {request}: {e}"));
                    continue;
                }
            };
            if let Err(e) = check_decode(video, &dec.video) {
                it.fail(format!("decode {request}: {e}"));
                continue;
            }
            let psnr = tr.span("media.psnr", request, |_| psnr_y_video(video, &dec.video));
            it.digest = fnv(it.digest, &psnr.to_bits().to_le_bytes());
            if let Err(e) = check_psnr(psnr, PSNR_FLOOR_DB) {
                it.fail(format!("request {request}: {e}"));
            }
            tally.psnr_sum += psnr;
            tally.psnr_n += 1;
        }
    }
    it.layer = count_metrics(&tally);
    it
}

fn count_metrics(t: &Tally) -> Values {
    let s = &t.stats;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    vec![
        ("codec.psnr_db", t.psnr_sum / t.psnr_n.max(1) as f64),
        ("codec.bits_per_pixel", ratio(s.bits, t.source_px)),
        ("codec.sad_pixels", s.sad_pixels as f64),
        ("codec.sad_pixels_examined", s.sad_pixels_examined as f64),
        (
            "codec.sad_examined_frac",
            ratio(s.sad_pixels_examined, s.sad_pixels),
        ),
        ("codec.transform_pixels", s.transform_pixels as f64),
        ("codec.mc_pixels", s.mc_pixels as f64),
        ("codec.intra_pixels", s.intra_pixels as f64),
        (
            "codec.temporal_filter_pixels",
            s.temporal_filter_pixels as f64,
        ),
        ("codec.deblock_pixels", s.deblock_pixels as f64),
        ("codec.ref_bytes_read", s.ref_bytes_read as f64),
        (
            "codec.inter_block_frac",
            ratio(s.inter_blocks, s.inter_blocks + s.intra_blocks),
        ),
    ]
}

fn span_metrics(tr: &Tracer, it: &Repetition) -> Values {
    let spans = tr.spans();
    let encode_ms = encode_latencies_ms(&[spans]);
    let encode_s: f64 = encode_ms.iter().sum::<f64>() / 1e3;
    let decode_s = self_time_of(spans, "codec.decode");
    let source_px = it.items * 1e6;
    vec![
        ("media.synth_s", self_time_of(spans, "media.synth")),
        ("media.psnr_s", self_time_of(spans, "media.psnr")),
        ("codec.encode_s", encode_s),
        ("codec.encode_s.h264_sw", self_time_of(spans, CONFIGS[0].0)),
        ("codec.encode_s.h264_hw", self_time_of(spans, CONFIGS[1].0)),
        ("codec.encode_s.vp9_sw", self_time_of(spans, CONFIGS[2].0)),
        ("codec.encode_s.vp9_hw", self_time_of(spans, CONFIGS[3].0)),
        ("codec.encode_calls", encode_ms.len() as f64),
        ("codec.encode_ns_per_px", encode_s * 1e9 / source_px),
        ("codec.encode_mpix_per_s", it.items / encode_s),
        ("codec.decode_s", decode_s),
        ("codec.decode_ns_per_px", decode_s * 1e9 / source_px),
    ]
}

/// Self times of every encode call in `runs`, in milliseconds.
fn encode_latencies_ms(runs: &[&[Span]]) -> Vec<f64> {
    runs.iter()
        .flat_map(|spans| {
            self_times(spans)
                .into_iter()
                .zip(spans.iter())
                .filter(|(_, s)| s.name.starts_with("codec.encode."))
                .map(|(t, _)| t * 1e3)
        })
        .collect()
}

/// Encode-latency percentiles pooled over the traced repetitions, so
/// the p90 has at least ten samples beyond it from three repetitions.
pub fn pooled_metrics(runs: &[&[Span]]) -> Values {
    let ms = encode_latencies_ms(runs);
    vec![
        ("codec.encode_ms_p50", median(&ms)),
        ("codec.encode_ms_p90", percentile(&ms, 0.9)),
    ]
}
