//! What the host looked like while the benchmark ran, from `/proc`.

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// CPU seconds (user + system) this process has used.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|v| v.parse::<f64>().ok());
    let (Some(utime), Some(stime)) = (ticks(11), ticks(12)) else {
        return 0.0;
    };
    // USER_HZ is 100 on every Linux target this builds for.
    (utime + stime) / 100.0
}

/// Logical CPUs available to this process.
pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One-minute load average.
pub fn load1() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// Host facts recorded beside every result, so a number taken on a busy
/// host can be told apart: CPUs, cores free by the load average, and the
/// build profile.
pub fn describe(load_before: f64) -> String {
    let cpus = cpus();
    let free = (cpus as f64 - load_before).max(0.0);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "\"host_cpus\": {cpus}, \"host_free_cores\": {free:.2}, \"load1_before\": {load_before:.2}, \"build_profile\": \"{profile}\""
    )
}
