//! Process-level probes (CPU time, peak resident set) and the order
//! statistics every metric is reported through.

/// `struct rusage` as Linux lays it out on 64-bit targets: two `timeval`s
/// followed by fourteen `long` counters.
#[repr(C)]
struct Rusage {
    ru_utime: [i64; 2],
    ru_stime: [i64; 2],
    ru_rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// User + system CPU seconds of this process so far, all threads included
/// (finished ones too), from `getrusage(RUSAGE_SELF)`.
pub fn cpu_seconds() -> f64 {
    let mut usage = Rusage {
        ru_utime: [0; 2],
        ru_stime: [0; 2],
        ru_rest: [0; 14],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` with the C layout
    // of 64-bit Linux, and `getrusage` writes only within it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail for a valid buffer"
    );
    let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 / 1e6;
    secs(usage.ru_utime) + secs(usage.ru_stime)
}

/// Resets this process's peak resident set to its current resident set
/// (Linux `clear_refs` value 5), so the next [`peak_rss_mb`] reads the peak
/// of what ran in between.
pub fn reset_peak_rss() {
    std::fs::write("/proc/self/clear_refs", "5").expect("reset VmHWM via /proc/self/clear_refs");
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics (`q = 0.5` is the median). `values` must be non-empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.98), 9.8);
    }

    #[test]
    fn probes_read_this_process() {
        let before = cpu_seconds();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(cpu_seconds() > before);
        let block = vec![1u8; 64 << 20];
        let peak = peak_rss_mb();
        drop(std::hint::black_box(block));
        reset_peak_rss();
        assert!(peak_rss_mb() < peak, "the 64 MiB block no longer counts");
    }
}
