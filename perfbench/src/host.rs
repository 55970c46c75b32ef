//! Host facts and the `/proc` readers behind the CPU and memory metrics.
//!
//! CPU time comes from `schedstat` (nanoseconds on CPU, user plus system)
//! rather than `/proc/<pid>/stat`, whose clock-tick granularity (10 ms) is
//! too coarse for sub-second rounds.

use std::fs;

fn schedstat_ns(path: &str) -> Option<u64> {
    fs::read_to_string(path)
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// CPU time of every live thread of this process, in nanoseconds.
#[must_use]
pub fn process_cpu_ns() -> u64 {
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    dir.filter_map(Result::ok)
        .filter_map(|e| schedstat_ns(&format!("{}/schedstat", e.path().display())))
        .sum()
}

/// CPU time of the calling thread, in nanoseconds.
#[must_use]
pub fn this_thread_cpu_ns() -> u64 {
    schedstat_ns("/proc/thread-self/schedstat").unwrap_or(0)
}

/// CPU time of thread `tid` of this process, in nanoseconds.
#[must_use]
pub fn thread_cpu_ns(tid: u32) -> u64 {
    schedstat_ns(&format!("/proc/self/task/{tid}/schedstat")).unwrap_or(0)
}

/// The id of this process's thread named `name`, if exactly one exists.
#[must_use]
pub fn find_thread(name: &str) -> Option<u32> {
    let mut found = fs::read_dir("/proc/self/task")
        .ok()?
        .filter_map(Result::ok)
        .filter(|e| fs::read_to_string(e.path().join("comm")).is_ok_and(|c| c.trim_end() == name));
    let tid = found.next()?.file_name().to_str()?.parse().ok()?;
    found.next().is_none().then_some(tid)
}

fn status_field(field: &str) -> Option<String> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    Some(line[field.len()..].trim().to_string())
}

/// Peak resident set (`VmHWM`) in MiB.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    status_field("VmHWM:")
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn read_trim(path: &str) -> String {
    fs::read_to_string(path).map_or_else(|_| "?".to_string(), |s| s.trim().to_string())
}

/// One line describing the host and the CPU confinement the run used.
#[must_use]
pub fn host_line(confinement: &str) -> String {
    let parallelism = std::thread::available_parallelism().map_or(0, usize::from);
    let model = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "?".to_string());
    let mut caches = Vec::new();
    for i in 0..8 {
        let base = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        if fs::metadata(&base).is_err() {
            break;
        }
        let kind = match read_trim(&format!("{base}/type")).as_str() {
            "Data" => "d",
            "Instruction" => "i",
            _ => "",
        };
        caches.push(format!(
            "L{}{}={}",
            read_trim(&format!("{base}/level")),
            kind,
            read_trim(&format!("{base}/size"))
        ));
    }
    format!(
        "host: available_parallelism={parallelism} cpu=\"{model}\" caches=[{}] clocksource={} cpus_allowed={} confinement={confinement}",
        caches.join(" "),
        read_trim("/sys/devices/system/clocksource/clocksource0/current_clocksource"),
        status_field("Cpus_allowed_list:").unwrap_or_else(|| "?".to_string()),
    )
}
