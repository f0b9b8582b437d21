//! Process figures read from Linux `/proc`: peak resident memory and CPU
//! time, for the benchmark itself (`None`) or for a child process.

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, 100 on
/// every mainstream Linux configuration).
const USER_HZ: f64 = 100.0;

fn proc_file(pid: Option<u32>, name: &str) -> Option<String> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/{name}"),
        None => format!("/proc/self/{name}"),
    };
    std::fs::read_to_string(path).ok()
}

/// Peak resident set size (`VmHWM`) in MB, or `NaN` when unreadable.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    proc_file(pid, "status")
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// User plus system CPU seconds consumed so far by every thread of the
/// process, or `NaN` when unreadable.
pub fn cpu_seconds(pid: Option<u32>) -> f64 {
    proc_file(pid, "stat")
        .and_then(|s| {
            // Fields after the parenthesised command name; utime and stime
            // are fields 14 and 15 of the whole line.
            let rest = &s[s.rfind(')')? + 2..];
            let f: Vec<&str> = rest.split_whitespace().collect();
            let utime: f64 = f.get(11)?.parse().ok()?;
            let stime: f64 = f.get(12)?.parse().ok()?;
            Some((utime + stime) / USER_HZ)
        })
        .unwrap_or(f64::NAN)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}
