//! The process environment a result depends on: refused knobs, the
//! host fingerprint, peak memory.

use std::process::Command;

/// Environment knobs the library crates read. Any of them set would
/// silently change what a run measures, so the benchmark refuses them.
pub const REFUSED_KNOBS: [&str; 10] = [
    "PE_THREADS",
    "PE_KERNEL",
    "PE_CACHE_SHARDS",
    "PE_FAULT",
    "PE_CHECKPOINT_EVERY",
    "PE_ISLANDS",
    "PE_MIGRATE_EVERY",
    "PE_BUDGET",
    "PE_STORE",
    "PE_CACHE_DIR",
];

/// The refused knobs present in the environment.
pub fn stray_knobs() -> Vec<&'static str> {
    REFUSED_KNOBS
        .into_iter()
        .filter(|k| std::env::var_os(k).is_some())
        .collect()
}

/// Host and build identity as a JSON object: results from different
/// hosts or compilers must never be compared as one.
pub fn fingerprint_json() -> String {
    let cores = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    // Only ask git inside a repository root: a source export nested in
    // some other repository must not report that repository's commit.
    let rev = std::path::Path::new(".git")
        .exists()
        .then(|| command_line("git", &["rev-parse", "HEAD"]))
        .flatten()
        .unwrap_or_else(|| "unavailable".into());
    format!(
        "{{\"cores\": {cores}, \"cpu\": {}, \"avx2\": {}, \"rustc\": {}, \"git_rev\": {}}}",
        json_str(&cpu),
        avx2(),
        json_str(&rustc),
        json_str(&rev)
    )
}

fn avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// First line of a command's standard output, if it ran successfully.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()
            .unwrap_or("")
            .trim()
            .to_owned()
    })
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    serde_json::to_string(s).expect("a string always serializes")
}
