//! Small statistics helpers: medians, the tail-percentile rule, due-time
//! latency and the peak-RSS read.

use std::time::{Duration, Instant};

/// Median of `values` (mean of the two middle values for an even count);
/// `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The tail of a latency sample: the highest nearest-rank percentile that
/// still has at least [`TAIL_BEYOND`] samples above it. With fewer than
/// `2 * TAIL_BEYOND + 1` samples no percentile above the median qualifies,
/// so the tail falls back to the median and `beyond` says how few samples
/// lie above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at the tail rank.
    pub value: f64,
    /// The rank as a percentile in `(0, 100]`.
    pub percentile: f64,
    /// Samples strictly above the tail rank.
    pub beyond: usize,
    /// Sample count.
    pub samples: usize,
}

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Applies the tail rule to `values`; `None` for an empty slice.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let sorted = sorted(values);
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = n.saturating_sub(TAIL_BEYOND + 1).max(n / 2).min(n - 1);
    Some(Tail {
        value: sorted[rank],
        percentile: 100.0 * (rank + 1) as f64 / n as f64,
        beyond: n - 1 - rank,
        samples: n,
    })
}

/// Latency of an open-loop request measured from when it was *due*
/// (`start + due`), not from when the load generator got round to sending
/// it: a stalled generator delays every later request, and that wait
/// belongs to the latency the user sees.
pub fn due_latency(start: Instant, due: Duration, done: Instant) -> Duration {
    done.saturating_duration_since(start + due)
}

/// Peak resident set size in MiB, parsed from the `VmHWM` line of a
/// `/proc/<pid>/status` file.
pub fn parse_peak_rss_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kib: f64 = fields.next()?.parse().ok()?;
    match fields.next()? {
        "kB" => Some(kib / 1024.0),
        _ => None,
    }
}

/// This process's peak resident set size in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    parse_peak_rss_mb(&status).ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&values).unwrap();
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.samples, 100);

        let values: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let t = tail(&values).unwrap();
        assert_eq!((t.value, t.beyond), (990.0, 10));
    }

    #[test]
    fn tail_falls_back_to_the_median_for_small_samples() {
        let values: Vec<f64> = (1..=12).map(f64::from).collect();
        let t = tail(&values).unwrap();
        assert_eq!(t.value, 7.0);
        assert_eq!(t.beyond, 5);
        assert_eq!(tail(&[5.0]).unwrap().value, 5.0);
        assert!(tail(&[]).is_none());
    }

    #[test]
    fn due_latency_counts_the_generator_stall() {
        let start = Instant::now();
        let due = Duration::from_millis(10);
        // The generator sent the request 30 ms late and it took 5 ms: the
        // user waited 35 ms from the due time.
        let done = start + Duration::from_millis(45);
        assert_eq!(due_latency(start, due, done), Duration::from_millis(35));
        // A request that completes before its due time (clock skew) is 0.
        assert_eq!(due_latency(start, due, start), Duration::ZERO);
    }

    #[test]
    fn peak_rss_parses_vmhwm_in_kib() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  300000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_peak_rss_mb(status), Some(50.0));
        assert_eq!(parse_peak_rss_mb("VmRSS:\t 1024 kB\n"), None);
        assert_eq!(parse_peak_rss_mb("VmHWM:\t 12 MB\n"), None);
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
