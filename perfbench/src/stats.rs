//! Small statistics and host helpers shared by the workloads.

use std::time::Instant;

/// Median of `xs` (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile (`q` in `0..=1`).
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The tail percentile a sample set can support: p99 when at least ten
/// samples lie beyond it, otherwise the highest nearest-rank percentile
/// that still leaves ten samples above it. With 20 samples or fewer no
/// percentile above the median qualifies, and the median is returned. Also
/// returns the percentile used (0.5 for the median).
pub fn resolvable_tail(xs: &[f64]) -> (f64, f64) {
    let q = 1.0 - 10.0 / xs.len().max(1) as f64;
    if q <= 0.5 {
        return (median(xs), 0.5);
    }
    let q = q.min(0.99);
    (percentile(xs, q), q)
}

/// `walls` as a space-separated list at millisecond precision.
pub fn fmt_walls(walls: &[f64]) -> String {
    let parts: Vec<String> = walls.iter().map(|w| format!("{w:.3}")).collect();
    parts.join(" ")
}

/// Wall seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak RSS needs /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kib| kib.parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

/// OS threads the host offers; every wall-thread knob is capped at it.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// FNV-1a over the bit patterns of `xs`: a cheap digest for "identical
/// output" checks.
pub fn digest_f32(xs: &[f32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for x in xs {
        for b in x.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.0);
        let xs: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(resolvable_tail(&xs), (1980.0, 0.99));
        let few: Vec<f64> = (1..=100).map(f64::from).collect();
        let (v, q) = resolvable_tail(&few);
        assert_eq!((v, q), (90.0, 0.9));
        assert_eq!(resolvable_tail(&[5.0, 1.0, 3.0]), (3.0, 0.5));
        let twelve: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(resolvable_tail(&twelve), (6.5, 0.5));
    }

    #[test]
    fn digest_sees_every_bit() {
        assert_ne!(digest_f32(&[0.0]), digest_f32(&[-0.0]));
        assert_eq!(digest_f32(&[1.5, 2.5]), digest_f32(&[1.5, 2.5]));
    }
}
