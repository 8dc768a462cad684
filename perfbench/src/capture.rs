//! The capture record printed with every result: what host, build and
//! settings produced it.

use std::process::Command;
use vcu_telemetry::json::escape;

/// Capture facts as (key, JSON value) pairs.
pub fn record(workload: &str, seed: u64, seconds: f64, trace: bool) -> Vec<(&'static str, String)> {
    let quoted = |s: &str| format!("\"{}\"", escape(s));
    let host_cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("workload", quoted(workload)),
        ("seed", seed.to_string()),
        ("seconds", seconds.to_string()),
        ("trace", trace.to_string()),
        ("host_cores", host_cores.to_string()),
        ("simd_backend", quoted(vcu_codec::kernels::backend().name())),
        ("exec_threads", vcu_exec::env_threads().to_string()),
        ("commit", quoted(&commit())),
        ("rustc", quoted(&rustc_version())),
    ]
}

pub fn json(record: &[(&str, String)]) -> String {
    let fields: Vec<String> = record.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    format!("{{{}}}", fields.join(","))
}

/// The checked-out commit; `unknown` outside a git checkout. The
/// search for a repository stops at the working directory.
fn commit() -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    let mut git = Command::new("git");
    git.args(["rev-parse", "HEAD"]);
    if let Some(parent) = cwd.parent() {
        git.env("GIT_CEILING_DIRECTORIES", parent);
    }
    stdout_of(git)
}

fn rustc_version() -> String {
    let mut rustc = Command::new("rustc");
    rustc.arg("-V");
    stdout_of(rustc)
}

/// The command's trimmed standard output, or `unknown` if it fails.
fn stdout_of(mut cmd: Command) -> String {
    cmd.stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_string(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        })
}

/// Peak resident set size of this process (VmHWM), MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// CPU time consumed so far by every live thread of this process, in
/// seconds (the first field of each thread's `schedstat`).
pub fn process_cpu_s() -> Option<f64> {
    let mut ns = 0u64;
    for task in std::fs::read_dir("/proc/self/task").ok()? {
        let stat = std::fs::read_to_string(task.ok()?.path().join("schedstat")).ok()?;
        ns += stat.split_whitespace().next()?.parse::<u64>().ok()?;
    }
    Some(ns as f64 / 1e9)
}
