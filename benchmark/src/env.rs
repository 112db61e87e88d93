//! Host facts recorded next to the results, and the process's peak
//! resident set. Everything here reads files, so it is only ever called
//! outside timed intervals.

/// Worker threads the host offers.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The CPU model name from `/proc/cpuinfo`, or `"unknown"`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The compiler that built the benchmark (recorded at build time).
pub fn rustc_version() -> &'static str {
    env!("BENCH_RUSTC_VERSION")
}

/// The source commit the benchmark was built from, or `"unknown"` outside
/// a git checkout (recorded at build time).
pub fn commit() -> &'static str {
    env!("BENCH_COMMIT")
}

/// Peak resident set size (the kernel's `VmHWM`) in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
