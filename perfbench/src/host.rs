//! Host fingerprint and process memory, read from the running host.

use flexstep_core::json::JsonObject;

/// The host and build a result was measured on, as a JSON object: CPU
/// model, `available_parallelism`, the `rustc -V` that built the
/// benchmark and the source revision (`unknown` outside a git checkout).
pub fn fingerprint_json() -> String {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut o = JsonObject::new();
    o.field_str("cpu_model", &cpu_model)
        .field_u64("available_parallelism", parallelism as u64)
        .field_str("rustc", env!("PERFBENCH_RUSTC"))
        .field_str("git_sha", env!("PERFBENCH_GIT_SHA"));
    o.finish()
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc/self/status` does not report it.
pub fn peak_rss_mb() -> Option<f64> {
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
