//! Order statistics for the end-to-end timings.
//!
//! A timing is reported as its median plus the highest percentile that
//! still has at least [`MIN_BEYOND`] samples above it, together with the
//! sample count: with fewer samples beyond it a "p99" is one or two
//! outliers, not a percentile.

/// Percentiles a tail timing may be reported at, lowest first.
pub const PERCENTILES: [f64; 4] = [0.5, 0.9, 0.99, 0.999];

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of ascending `sorted` samples.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// The highest of [`PERCENTILES`] with at least [`MIN_BEYOND`] of `n`
/// samples strictly above its rank, or `None` when even the median has
/// too few.
pub fn tail_percentile(n: usize) -> Option<f64> {
    if n == 0 {
        return None;
    }
    PERCENTILES
        .iter()
        .rev()
        .copied()
        .find(|&p| n - rank(n, p) >= MIN_BEYOND)
}

/// Median of unsorted values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Samples per block of [`block_percentiles`]: enough for a 99th
/// percentile with [`MIN_BEYOND`] samples beyond it.
pub const BLOCK: usize = 1000;

/// Percentile `p` of each block of [`BLOCK`] consecutive samples (the
/// remainder joins the last block; fewer samples form one block). A
/// median over blocks keeps one preempted stretch of a run from moving
/// the result.
pub fn block_percentiles(samples: &[f64], p: f64) -> Vec<f64> {
    if samples.is_empty() {
        return Vec::new();
    }
    let n_blocks = (samples.len() / BLOCK).max(1);
    (0..n_blocks)
        .map(|b| {
            let end = if b + 1 == n_blocks {
                samples.len()
            } else {
                (b + 1) * BLOCK
            };
            let mut block = samples[b * BLOCK..end].to_vec();
            block.sort_by(f64::total_cmp);
            percentile(&block, p)
        })
        .collect()
}

/// A latency distribution summarized by the percentile rule.
#[derive(Clone, Debug, PartialEq)]
pub struct Timing {
    pub count: usize,
    pub p50: f64,
    /// The rule's tail percentile and its value.
    pub tail_p: f64,
    pub tail: f64,
}

impl Timing {
    /// Summarize `samples`; `None` when there are too few for even a
    /// median with [`MIN_BEYOND`] samples beyond it.
    pub fn of(samples: &[f64]) -> Option<Timing> {
        let tail_p = tail_percentile(samples.len())?;
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(Timing {
            count: sorted.len(),
            p50: percentile(&sorted, 0.5),
            tail_p,
            tail: percentile(&sorted, tail_p),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(0.5));
        assert_eq!(tail_percentile(99), Some(0.5));
        assert_eq!(tail_percentile(100), Some(0.9));
        assert_eq!(tail_percentile(999), Some(0.9));
        assert_eq!(tail_percentile(1000), Some(0.99));
        assert_eq!(tail_percentile(9999), Some(0.99));
        assert_eq!(tail_percentile(10_000), Some(0.999));
        // The rule's guarantee, checked directly for every size.
        for n in 20..3000 {
            let p = tail_percentile(n).unwrap();
            assert!(n - rank(n, p) >= MIN_BEYOND, "n={n} p={p}");
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 500.0);
        assert_eq!(percentile(&v, 0.99), 990.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn timing_reports_count_and_rule_percentile() {
        let mut v: Vec<f64> = (0..1000).map(|i| (i % 100) as f64).collect();
        v.reverse();
        let t = Timing::of(&v).unwrap();
        assert_eq!(t.count, 1000);
        assert_eq!(t.tail_p, 0.99);
        assert_eq!(t.p50, 49.0);
        assert_eq!(t.tail, 98.0);
        assert!(Timing::of(&v[..5]).is_none());
    }

    #[test]
    fn block_percentiles_take_each_blocks_tail() {
        let mut v = Vec::new();
        for tail in [10.0, 20.0, 1000.0] {
            v.extend(std::iter::repeat_n(1.0, 980));
            v.extend(std::iter::repeat_n(tail, 20));
        }
        assert_eq!(block_percentiles(&v, 0.99), vec![10.0, 20.0, 1000.0]);
        // One slow block does not move the median over blocks.
        assert_eq!(median(&block_percentiles(&v, 0.99)), 20.0);
        // A short remainder joins the last block; fewer than one block's
        // samples form one block.
        v.extend(std::iter::repeat_n(1.0, 10));
        assert_eq!(block_percentiles(&v, 0.99), vec![10.0, 20.0, 1000.0]);
        assert_eq!(block_percentiles(&[3.0, 1.0, 2.0], 0.5), vec![2.0]);
        assert!(block_percentiles(&[], 0.5).is_empty());
    }

    #[test]
    fn median_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
