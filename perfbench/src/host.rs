//! Host facts printed beside every result, in the style of
//! `results/bench_timings.json`.

use std::fs;

/// Peak resident set size of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// One-minute load average.
pub fn loadavg_1m() -> Option<f64> {
    fs::read_to_string("/proc/loadavg")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// The checked-out commit, read from `.git` in the working directory, or
/// `"unknown"` outside a git checkout.
fn git_rev() -> String {
    let read = |path: &str| fs::read_to_string(path).ok().map(|s| s.trim().to_string());
    let rev = read(".git/HEAD").and_then(|head| match head.strip_prefix("ref: ") {
        Some(name) => read(&format!(".git/{name}")).or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(name))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        }),
        None => Some(head),
    });
    rev.unwrap_or_else(|| "unknown".into())
}

/// The run's host metadata as one JSON object. The run counts as
/// oversubscribed when the load average before it, plus its one worker,
/// exceeded the cores (or the load could not be read).
pub fn metadata_json(
    workload: &str,
    seed: u64,
    trace: bool,
    ops: u64,
    load_before: Option<f64>,
) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let oversubscribed = load_before.is_none_or(|l| l + 1.0 > cores as f64);
    let num = |v: Option<f64>| v.map_or("null".to_string(), |v| v.to_string());
    format!(
        "{{\"host\": {{\"available_parallelism\": {cores}, \"host_os\": \"{}\", \
         \"git_rev\": \"{}\", \"workload\": \"{workload}\", \"seed\": {seed}, \
         \"trace\": {trace}, \"workers\": 1, \"ops\": {ops}, \
         \"loadavg_1m_before\": {}, \"loadavg_1m_after\": {}, \
         \"oversubscribed\": {oversubscribed}, \"timings_trusted\": {}}}}}",
        std::env::consts::OS,
        git_rev(),
        num(load_before),
        num(loadavg_1m()),
        !oversubscribed,
    )
}
