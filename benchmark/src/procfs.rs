//! Resident memory and CPU time of this process, from `/proc/self`.

use std::fs;

fn status_kb(field: &str) -> u64 {
    let status = fs::read_to_string("/proc/self/status").expect("reading /proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':')?.trim().strip_suffix("kB")?.trim().parse().ok())
        .unwrap_or_else(|| panic!("/proc/self/status has no `{field}` line in kB"))
}

/// Resident set size (VmRSS), bytes.
pub fn rss_bytes() -> u64 {
    status_kb("VmRSS") * 1024
}

/// Peak resident set size (VmHWM), bytes.
pub fn peak_rss_bytes() -> u64 {
    status_kb("VmHWM") * 1024
}

/// User + system CPU time of every thread of this process, microseconds.
/// `/proc/self/stat` counts in clock ticks; Linux has fixed `USER_HZ` at 100
/// on every architecture since 2.6, so a tick is 10 ms.
pub fn cpu_us() -> u64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("reading /proc/self/stat");
    // The command name (field 2) may contain spaces; fields are counted from
    // the closing parenthesis. utime and stime are fields 14 and 15.
    let after_comm = stat.rsplit_once(')').expect("/proc/self/stat has a command field").1;
    let mut fields = after_comm.split_whitespace().skip(11);
    let utime: u64 = fields.next().and_then(|f| f.parse().ok()).expect("utime");
    let stime: u64 = fields.next().and_then(|f| f.parse().ok()).expect("stime");
    (utime + stime) * 10_000
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_plausible() {
        assert!(rss_bytes() > 100 * 1024);
        assert!(peak_rss_bytes() >= rss_bytes() / 2);
        let before = cpu_us();
        let mut x = 0u64;
        while cpu_us() == before {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(cpu_us() >= before + 10_000);
    }
}
