//! Process accounting read from `/proc/self` (Linux only; elsewhere the
//! readings are 0 and the validity checks that use them are skipped).

use std::fs;

/// Peak resident set size (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// CPU seconds (user + system) this process has consumed.
pub fn cpu_seconds() -> f64 {
    // Fields 14 and 15 of /proc/self/stat, counted after the parenthesised
    // command name, in clock ticks (USER_HZ, 100 on every Linux ABI).
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let Some((_, rest)) = stat.rsplit_once(')') else { return 0.0 };
    let mut fields = rest.split_whitespace().skip(11);
    let ticks = |f: Option<&str>| f.and_then(|s| s.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(fields.next()) + ticks(fields.next())) / 100.0
}
