//! The repository benchmark: three workloads, each driven as a closed
//! loop (one caller, one call at a time) through the layers' public
//! APIs, measured end to end with tracing off and per layer in a
//! separate traced run.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <transcode|serve|planet> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. One run repeats the workload on the
//! inputs made from `--seed` as often as fits in `--seconds` (and at
//! least three times), checks every output, and prints each metric by
//! name with its unit, then one JSON result as the last line. With
//! `--trace 1` it alternates traced and untraced repetitions, reports
//! the per-layer metrics, and writes the spans of the first traced
//! repetition to `.bench_trace/`.

mod capture;
mod checks;
mod metrics;
mod planet;
mod serve;
mod trace;
mod transcode;

use metrics::{median, Values, END_TO_END, FNV_SEED, PER_LAYER, UNAVAILABLE};
use std::process::ExitCode;
use std::time::Instant;
use trace::{Span, Tracer};
use vcu_telemetry::json::{escape, fmt_f64};
use vcu_telemetry::Registry;

/// Name of the span the benchmark opens around its own loop; its self
/// time is the harness's share of a run.
pub const HARNESS_SPAN: &str = "harness.run";

/// Repetitions a run makes at least, whatever `--seconds` says: three
/// untraced, and with `--trace 1` five traced, so that pooled
/// per-call percentiles have enough samples.
const MIN_REPETITIONS: usize = 3;
const MIN_TRACED_REPETITIONS: usize = 5;

const USAGE: &str =
    "usage: perfbench --workload <transcode|serve|planet> --seed <n> --seconds <s> --trace <0|1>";

/// One repetition of a workload.
pub struct Repetition {
    pub setup_s: f64,
    pub run_s: f64,
    /// Work items completed (see [`metrics::END_TO_END`]).
    pub items: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Digest of the modelled outputs.
    pub digest: u64,
    /// Per-layer metrics (traced repetitions only).
    pub layer: Values,
    /// Correctness violations.
    pub violations: Vec<String>,
    spans: Vec<Span>,
}

impl Default for Repetition {
    fn default() -> Self {
        Repetition {
            setup_s: 0.0,
            run_s: 0.0,
            items: 0.0,
            attempted: 0,
            failed: 0,
            digest: FNV_SEED,
            layer: Vec::new(),
            violations: Vec::new(),
            spans: Vec::new(),
        }
    }
}

impl Repetition {
    /// An operation failed or failed its check.
    pub fn fail(&mut self, reason: String) {
        self.failed += 1;
        self.violation(reason);
    }

    /// A correctness check on the outputs failed.
    pub fn violation(&mut self, reason: String) {
        self.violations.push(reason);
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    Transcode,
    Serve,
    Planet,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "transcode" => Some(Workload::Transcode),
            "serve" => Some(Workload::Serve),
            "planet" => Some(Workload::Planet),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Transcode => "transcode",
            Workload::Serve => "serve",
            Workload::Planet => "planet",
        }
    }

    /// Executor threads: only `planet` fans out.
    fn threads(self) -> usize {
        match self {
            Workload::Planet => planet::THREADS,
            _ => 1,
        }
    }

    fn repetition(self, seed: u64, tr: &mut Tracer) -> Repetition {
        match self {
            Workload::Transcode => transcode::repetition(seed, tr),
            Workload::Serve => serve::repetition(seed, tr),
            Workload::Planet => planet::repetition(seed, tr),
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                seconds = Some(s).filter(|s| s.is_finite() && *s > 0.0);
                seconds.ok_or_else(bad)?;
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Pool-lifetime executor counters, plus the process's CPU time.
struct PoolCounts {
    tasks: u64,
    steals: u64,
    batches: u64,
    cpu_s: Option<f64>,
}

fn pool_counts() -> PoolCounts {
    let pool = vcu_exec::pool();
    let reg = Registry::new();
    pool.record_telemetry(&reg);
    PoolCounts {
        tasks: pool.tasks_executed(),
        steals: pool.tasks_stolen(),
        batches: reg.counter("exec.batches"),
        cpu_s: capture::process_cpu_s(),
    }
}

/// Runs one repetition; a traced one also gets executor and trace
/// metrics and keeps its spans.
fn run_one(wl: Workload, seed: u64, traced: bool) -> Repetition {
    if !traced {
        return wl.repetition(seed, &mut Tracer::new(false));
    }
    let before = pool_counts();
    let mut tr = Tracer::new(true);
    let mut it = wl.repetition(seed, &mut tr);
    let after = pool_counts();
    // Threads that ran the workload, as the pool reports them.
    let threads = checks::threads_used(vcu_exec::pool()) as f64;
    // The pool's own busy-stint sum counts a nested batch's stints
    // inside its parent task's stint, so busy time is measured as the
    // CPU time of the process's threads instead.
    let (busy_s, busy_frac) = match (before.cpu_s, after.cpu_s) {
        (Some(b), Some(a)) => (a - b, (a - b) / ((it.setup_s + it.run_s) * threads)),
        _ => (UNAVAILABLE, UNAVAILABLE),
    };
    let layer_self: f64 = trace::self_times(tr.spans())
        .iter()
        .zip(tr.spans())
        .filter(|(_, s)| s.name != HARNESS_SPAN)
        .map(|(t, _)| t)
        .sum();
    it.layer.extend([
        ("exec.threads", threads),
        ("exec.tasks", (after.tasks - before.tasks) as f64),
        ("exec.steals", (after.steals - before.steals) as f64),
        ("exec.batches", (after.batches - before.batches) as f64),
        ("exec.busy_s", busy_s),
        ("exec.busy_frac", busy_frac),
        ("trace.spans", tr.spans().len() as f64),
        ("trace.harness_self_s", it.setup_s + it.run_s - layer_self),
    ]);
    it.spans = tr.spans().to_vec();
    it
}

/// Median across repetitions of each named value, over the
/// repetitions that could measure it; `UNAVAILABLE` if none could.
fn median_by_name(runs: &[&Values], name: &str) -> Option<f64> {
    let xs: Vec<f64> = runs
        .iter()
        .filter_map(|v| v.iter().find(|(n, _)| *n == name).map(|p| p.1))
        .collect();
    let measured: Vec<f64> = xs.iter().copied().filter(|&x| x != UNAVAILABLE).collect();
    match (xs.is_empty(), measured.is_empty()) {
        (true, _) => None,
        (false, true) => Some(UNAVAILABLE),
        (false, false) => Some(median(&measured)),
    }
}

fn end_to_end(untraced: &[Repetition]) -> Values {
    let col = |f: fn(&Repetition) -> f64| untraced.iter().map(f).collect::<Vec<_>>();
    vec![
        ("setup_s", median(&col(|i| i.setup_s))),
        ("run_s", median(&col(|i| i.run_s))),
        ("items_per_s", median(&col(|i| i.items / i.run_s))),
        ("peak_rss_mib", capture::peak_rss_mib().unwrap_or(f64::NAN)),
    ]
}

fn per_layer(wl: Workload, traced: &[Repetition], untraced: &[Repetition]) -> Values {
    let runs: Vec<&Values> = traced.iter().map(|i| &i.layer).collect();
    let spans: Vec<&[Span]> = traced.iter().map(|i| i.spans.as_slice()).collect();
    let pooled = match wl {
        Workload::Transcode => transcode::pooled_metrics(&spans),
        _ => Vec::new(),
    };
    let run_s = |v: &[Repetition]| median(&v.iter().map(|i| i.run_s).collect::<Vec<_>>());
    PER_LAYER
        .iter()
        .map(|&(name, _)| {
            let value = if name == "trace.overhead_frac" {
                run_s(traced) / run_s(untraced) - 1.0
            } else if let Some(&(_, v)) = pooled.iter().find(|p| p.0 == name) {
                v
            } else {
                // A layer this workload never calls did no work.
                median_by_name(&runs, name).unwrap_or(0.0)
            };
            (name, value)
        })
        .collect()
}

fn metrics_json(values: &Values, units: &[(&str, &str)]) -> String {
    let fields: Vec<String> = values
        .iter()
        .map(|(name, v)| {
            let unit = units.iter().find(|u| u.0 == *name).map_or("", |u| u.1);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                fmt_f64(*v),
                escape(unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn write_trace(args: &Args, capture: &str, spans: &[Span]) -> std::io::Result<String> {
    let dir = std::path::Path::new(".bench_trace");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}-seed{}.json", args.workload.name(), args.seed));
    let body = format!(
        "{{\"capture\":{capture},\n\"spans\":{}}}\n",
        trace::spans_json(spans)
    );
    std::fs::write(&path, body)?;
    Ok(path.display().to_string())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Executor parallelism is part of the workload. Set it before any
    // thread exists; the planet checks that the executor honours it.
    std::env::set_var("VCU_THREADS", args.workload.threads().to_string());
    let capture = capture::json(&capture::record(
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace,
    ));
    println!("{{\"capture\":{capture}}}");

    let start = Instant::now();
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    let min_traced = if args.trace {
        MIN_TRACED_REPETITIONS
    } else {
        0
    };
    loop {
        let cycle = Instant::now();
        // Traced and untraced repetitions alternate, so both see the
        // same host conditions.
        if args.trace {
            traced.push(run_one(args.workload, args.seed, true));
        }
        untraced.push(run_one(args.workload, args.seed, false));
        for it in traced.last().into_iter().chain(untraced.last()) {
            println!(
                "repetition traced={} setup_s={} run_s={} items={}",
                !it.spans.is_empty(),
                it.setup_s,
                it.run_s,
                it.items
            );
        }
        // Stop once the next cycle, as long as this one, would end
        // after `--seconds`, so a run takes about `--seconds`.
        let next_end = start.elapsed() + cycle.elapsed();
        if untraced.len() >= MIN_REPETITIONS
            && traced.len() >= min_traced
            && next_end.as_secs_f64() > args.seconds
        {
            break;
        }
    }

    let all: Vec<&Repetition> = untraced.iter().chain(&traced).collect();
    let mut violations: Vec<String> = all.iter().flat_map(|i| i.violations.clone()).collect();
    // Same seed, same model: every repetition, traced or not, must
    // digest identically to the first untraced one.
    for it in &all {
        if let Err(e) = checks::check_digests(it.digest, untraced[0].digest) {
            violations.push(e);
        }
    }
    let attempted: u64 = all.iter().map(|i| i.attempted).sum();
    let failed: u64 = all.iter().map(|i| i.failed).sum();

    let e2e = end_to_end(&untraced);
    let layer = args
        .trace
        .then(|| per_layer(args.workload, &traced, &untraced));
    for (values, units) in [(Some(&e2e), END_TO_END), (layer.as_ref(), PER_LAYER)] {
        for (name, v) in values.into_iter().flatten() {
            let unit = units.iter().find(|u| u.0 == *name).map_or("", |u| u.1);
            println!("metric {name:<36} {v:>20} {unit}");
            if !v.is_finite() {
                violations.push(format!("{name} is not a finite number"));
            }
        }
    }
    if let Some(first) = traced.first() {
        match write_trace(&args, &capture, &first.spans) {
            Ok(path) => println!("spans written to {path}"),
            Err(e) => violations.push(format!("could not write spans: {e}")),
        }
    }
    for v in &violations {
        println!("violation: {v}");
    }
    let correct = violations.is_empty() && attempted > 0;
    let (values, units) = match &layer {
        Some(l) => (l, PER_LAYER),
        None => (&e2e, END_TO_END),
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(values, units)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args("--workload planet --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::Planet);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload serve --seed -1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload serve --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload serve --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload serve --seed 1 --seconds 1").is_err());
        assert!(args("--workload serve --seed 1 --seconds 1 --trace 0 --extra 1").is_err());
    }

    #[test]
    fn the_median_skips_repetitions_that_could_not_measure() {
        let a: Values = vec![("x", 1.0), ("y", UNAVAILABLE), ("u", UNAVAILABLE)];
        let b: Values = vec![("x", 3.0), ("y", 5.0), ("u", UNAVAILABLE)];
        assert_eq!(median_by_name(&[&a, &b], "x"), Some(2.0));
        assert_eq!(median_by_name(&[&a, &b], "y"), Some(5.0));
        assert_eq!(median_by_name(&[&a, &b], "u"), Some(UNAVAILABLE));
        assert_eq!(median_by_name(&[&a, &b], "z"), None);
    }
}
