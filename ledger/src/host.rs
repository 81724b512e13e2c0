//! What the host operating system reports about the benchmark's own
//! processes: peak resident memory. Linux only.

use std::time::Duration;

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn self_peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// `struct rusage` of 64-bit Linux: two `timeval`s (four `long`s) then
/// fourteen `long`s, of which only the first, `ru_maxrss`, is read.
#[derive(Default)]
#[repr(C)]
struct Rusage {
    ru_utime_stime: [i64; 4],
    ru_maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_CHILDREN: i32 = -1;

fn rusage(who: i32) -> Rusage {
    let mut usage = Rusage::default();
    // SAFETY: `usage` is a live, writable `struct rusage` with the layout
    // 64-bit Linux defines, and `getrusage` writes nothing beyond it. With
    // a valid `who` and pointer the call cannot fail.
    unsafe { getrusage(who, &mut usage) };
    usage
}

/// Peak resident set of the largest descendant that has been waited for
/// (`RUSAGE_CHILDREN.ru_maxrss`), in MiB; 0 when there was none.
pub fn children_peak_rss_mib() -> f64 {
    rusage(RUSAGE_CHILDREN).ru_maxrss as f64 / 1024.0
}

/// Sleeps in short steps until `ready()` holds; `false` on timeout.
pub fn wait_until(timeout: Duration, mut ready: impl FnMut() -> bool) -> bool {
    let deadline = std::time::Instant::now() + timeout;
    while !ready() {
        if std::time::Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_plausible_values() {
        assert!(self_peak_rss_mib() > 0.5);
        assert!(children_peak_rss_mib() >= 0.0);
    }
}
