//! Order statistics used by every workload and by the A/A report.
//!
//! Latencies are kept as raw nanosecond samples and sorted, never
//! bucketed: a bucketed quantile reads the same on every run, which
//! hides exactly the movement a benchmark exists to show.

/// Percentiles a tail may be reported at, highest first.
pub const TAIL_LADDER: [u32; 4] = [99, 95, 90, 75];

/// How many samples must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// 0-based index of the nearest-rank `pct`-th percentile among `n`
/// sorted samples.
fn rank(n: usize, pct: u32) -> usize {
    debug_assert!(n > 0 && pct <= 100);
    (n * pct as usize).div_ceil(100).max(1) - 1
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[u64], pct: u32) -> u64 {
    sorted[rank(sorted.len(), pct)]
}

/// The highest percentile of [`TAIL_LADDER`] that still has at least
/// [`MIN_BEYOND`] of `n` samples beyond it; `None` when even the lowest
/// rung does not (fewer than 40 samples).
pub fn pick_tail(n: usize) -> Option<u32> {
    if n == 0 {
        return None;
    }
    TAIL_LADDER
        .into_iter()
        .find(|&p| n - (rank(n, p) + 1) >= MIN_BEYOND)
}

/// Median and tail of a latency sample, in the sample's own unit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub count: usize,
    pub p50: u64,
    /// Percentile the tail is reported at ([`pick_tail`]).
    pub tail_pct: u32,
    pub tail: u64,
}

/// Sort `samples` in place and summarise them. A sample too small to
/// support any tail (a batch workload's single wall time per window)
/// has its median for a tail, and says so in `tail_pct`.
pub fn summarize(samples: &mut [u64]) -> Summary {
    samples.sort_unstable();
    let tail_pct = pick_tail(samples.len()).unwrap_or(50);
    Summary {
        count: samples.len(),
        p50: percentile(samples, 50),
        tail_pct,
        tail: percentile(samples, tail_pct),
    }
}

/// Median of an unsorted float sample (mean of the middle pair when
/// the count is even). Panics on an empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The three cut points Python's `statistics.quantiles(values, n=4)`
/// returns (default "exclusive" method) — the driver's spread rule is
/// stated in those terms, so the A/A report reproduces it exactly.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    let ld = d.len();
    assert!(ld >= 2, "quartiles need at least two values");
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0;
    }
    out
}

/// Interquartile range as a share of the median — the driver's
/// run-to-run spread.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2.abs().max(f64::MIN_POSITIVE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(pick_tail(0), None);
        assert_eq!(pick_tail(39), None);
        assert_eq!(pick_tail(40), Some(75));
        assert_eq!(pick_tail(99), Some(75));
        assert_eq!(pick_tail(100), Some(90));
        assert_eq!(pick_tail(199), Some(90));
        assert_eq!(pick_tail(200), Some(95));
        assert_eq!(pick_tail(999), Some(95));
        assert_eq!(pick_tail(1_000), Some(99));
        assert_eq!(pick_tail(1_000_000), Some(99));
        for n in 40..3_000 {
            let p = pick_tail(n).unwrap();
            assert!(n - (rank(n, p) + 1) >= MIN_BEYOND, "n={n} p={p}");
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50), 50);
        assert_eq!(percentile(&v, 99), 99);
        assert_eq!(percentile(&v, 100), 100);
        assert_eq!(percentile(&[7], 50), 7);
        let mut s: Vec<u64> = (0..1_000).rev().collect();
        let sum = summarize(&mut s);
        assert_eq!(
            (sum.count, sum.p50, sum.tail_pct, sum.tail),
            (1_000, 499, 99, 989)
        );
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15, 30, 45]
        assert_eq!(
            quartiles(&[10.0, 20.0, 30.0, 40.0, 50.0]),
            [15.0, 30.0, 45.0]
        );
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
