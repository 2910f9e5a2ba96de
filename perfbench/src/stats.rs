//! Latency summaries and the tail-percentile rule.

/// Samples a tail percentile needs beyond it before it may be printed.
pub const MIN_BEYOND_TAIL: usize = 10;

/// The 1-based nearest rank of the `p`-th percentile of `n` samples. The
/// small slack keeps `0.99 * 1000` from rounding up past 990.
fn nearest_rank(n: usize, p: f64) -> usize {
    (p / 100.0 * n as f64 - 1e-9).ceil() as usize
}

/// Nearest-rank percentile over ascending-sorted samples (`0 < p <= 100`).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = nearest_rank(sorted.len(), p);
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// How many samples lie beyond the nearest-rank `p`-th percentile.
pub fn beyond(n: usize, p: f64) -> usize {
    let rank = nearest_rank(n, p);
    n - rank.min(n)
}

/// The `p`-th percentile, or `None` when fewer than [`MIN_BEYOND_TAIL`]
/// samples lie beyond it: a tail backed by fewer samples is the maximum
/// under another name.
pub fn tail(sorted: &[f64], p: f64) -> Option<f64> {
    (beyond(sorted.len(), p) >= MIN_BEYOND_TAIL).then(|| percentile(sorted, p))
}

pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 50.0)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, zero when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// One class's latencies, ascending, in milliseconds.
#[derive(Debug, Clone, Default)]
pub struct Latencies(Vec<f64>);

impl Latencies {
    pub fn from_ms(mut ms: Vec<f64>) -> Latencies {
        ms.sort_by(f64::total_cmp);
        Latencies(ms)
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn p50(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            percentile(&self.0, 50.0)
        }
    }

    pub fn tail(&self, p: f64) -> Option<f64> {
        tail(&self.0, p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank() {
        let s = ramp(100);
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&[4.0], 50.0), 4.0);
        assert_eq!(percentile(&ramp(3), 50.0), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p99 of 1000 samples has exactly 10 beyond it: printable.
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(tail(&ramp(1000), 99.0), Some(990.0));
        // One sample fewer leaves only 9 beyond: withheld.
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(tail(&ramp(999), 99.0), None);
        // 15 samples cannot back a p95 or a p99 — BENCH_10's mistake.
        assert_eq!(tail(&ramp(15), 95.0), None);
        assert_eq!(tail(&ramp(15), 99.0), None);
        // p90 needs 100 samples, p80 needs 50.
        assert!(tail(&ramp(100), 90.0).is_some());
        assert!(tail(&ramp(99), 90.0).is_none());
        assert!(tail(&ramp(50), 80.0).is_some());
        assert!(tail(&ramp(49), 80.0).is_none());
    }

    #[test]
    fn latencies_sort_and_summarize() {
        let l = Latencies::from_ms(vec![3.0, 1.0, 2.0]);
        assert_eq!(l.p50(), 2.0);
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(l.tail(50.0), None);
        assert_eq!(Latencies::default().p50(), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
