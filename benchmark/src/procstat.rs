//! Process CPU time and peak memory, read from `/proc`.

use std::fs;

/// Linux reports `/proc` times in `USER_HZ` ticks, which is 100 on every
/// architecture.
const TICKS_PER_S: f64 = 100.0;

/// User plus system CPU seconds of this process, every thread included
/// (exited ones too, which per-thread `schedstat` files would lose).
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("/proc/self/stat");
    // The command name may hold spaces; fields are counted after its ')'.
    let rest = &stat[stat.rfind(')').expect("comm field") + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let mut ticks = || -> f64 {
        let field = fields.next().expect("utime and stime fields");
        field.parse().expect("tick count")
    };
    (ticks() + ticks()) / TICKS_PER_S
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line");
    kb / 1024.0
}
