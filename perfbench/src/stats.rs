//! Order statistics, process counters read from `/proc`, and the small
//! JSON writer the result lines use.

use std::fmt::Write as _;

/// Median of `xs` (mean of the two middle values for even lengths).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least one sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// User plus system CPU seconds of this process, all threads included
/// (`/proc/self/stat` fields 14 and 15, in USER_HZ = 100 ticks).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("reading /proc/self/stat");
    // The command name (field 2) may contain spaces; fields after the
    // closing parenthesis are space-separated.
    let rest = &stat[stat.rfind(')').expect("malformed /proc/self/stat") + 2..];
    let fields: Vec<&str> = rest.split(' ').collect();
    let ticks = |i: usize| -> f64 {
        fields[i]
            .parse::<u64>()
            .expect("numeric /proc/self/stat field") as f64
    };
    // `rest` starts at field 3, so utime (14) and stime (15) sit at 11 and 12.
    (ticks(11) + ticks(12)) / 100.0
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("reading /proc/self/status");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Resets the peak resident set size to the current one (writing `5` to
/// `/proc/self/clear_refs`), so the next [`peak_rss_mb`] reads the peak
/// since this call. Where the kernel refuses, the peak stays the
/// process-wide one.
pub fn reset_peak_rss() {
    std::fs::write("/proc/self/clear_refs", "5").ok();
}

/// Appends `s` to `out` as a JSON string literal.
pub fn json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A JSON number for `x` with every digit Rust's shortest round-trip
/// formatting gives (non-finite values have no JSON form and are a bug
/// in the caller).
pub fn json_num(x: f64) -> String {
    assert!(x.is_finite(), "non-finite metric value {x}");
    format!("{x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_lengths() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn proc_counters_are_positive() {
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn json_strings_escape_controls() {
        let mut s = String::new();
        json_str(&mut s, "a\"b\\c\nd\u{1}");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }
}
