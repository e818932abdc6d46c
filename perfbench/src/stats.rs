//! Exact order statistics over raw samples.
//!
//! Every percentile the benchmark reports is one of the measured samples
//! (nearest-rank definition), never a histogram bucket edge. Quantiles
//! are given in basis points (`9900` = p99) so ranks are computed in
//! integer arithmetic and `q·n` never rounds the wrong way.

/// The nearest-rank `bp`/10000 quantile of ascending `sorted`: the
/// smallest sample with at least `⌈n·bp/10000⌉` samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice or `bp > 10000`.
pub fn quantile(sorted: &[f64], bp: u32) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    assert!(bp <= 10_000, "quantile above p100");
    let n = sorted.len();
    let rank = (n * bp as usize).div_ceil(10_000).max(1);
    sorted[rank - 1]
}

/// Sort ascending; NaN is never produced by the benchmark, and infinite
/// values (failed requests) sort last.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median (lower median for an even count) as an order statistic.
pub fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v.to_vec()), 5_000)
}

/// The smallest sample (infinite for none).
pub fn lowest(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Samples strictly greater than `value`.
pub fn count_beyond(sorted: &[f64], value: f64) -> usize {
    sorted.len() - sorted.partition_point(|&x| x <= value)
}

/// The highest of p99.99, p99.9, p99, p90 and p50 that still has at
/// least ten samples beyond it, as `(bp, value, samples beyond)`;
/// `None` when even the median has fewer than ten samples beyond it.
pub fn tail(sorted: &[f64]) -> Option<(u32, f64, usize)> {
    [9_999, 9_990, 9_900, 9_000, 5_000]
        .into_iter()
        .find_map(|bp| {
            let v = quantile(sorted, bp);
            let beyond = count_beyond(sorted, v);
            (beyond >= 10).then_some((bp, v, beyond))
        })
}

/// A latency distribution summarized by exact order statistics.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// 99.9th percentile.
    pub p999: f64,
    /// Samples beyond the p99.9.
    pub beyond_p999: usize,
    /// The highest percentile with at least ten samples beyond it.
    pub tail: Option<(u32, f64, usize)>,
}

impl Summary {
    /// Summarize `samples`.
    ///
    /// # Panics
    ///
    /// Panics when `samples` is empty.
    pub fn of(samples: Vec<f64>) -> Summary {
        let s = sorted(samples);
        let p999 = quantile(&s, 9_990);
        Summary {
            n: s.len(),
            p50: quantile(&s, 5_000),
            p90: quantile(&s, 9_000),
            p99: quantile(&s, 9_900),
            p999,
            beyond_p999: count_beyond(&s, p999),
            tail: tail(&s),
        }
    }
}

/// Median ns per row of `f` over `reps` passes of `rows` rows each.
pub fn median_ns_per_row(reps: usize, rows: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = std::time::Instant::now();
            f();
            t.elapsed().as_nanos() as f64 / rows as f64
        })
        .collect();
    median(&samples)
}

/// FNV-1a over a stream of `f64` bit patterns.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fold the little-endian bytes of every value.
    pub fn add(&mut self, values: &[f64]) {
        for v in values {
            for b in v.to_le_bytes() {
                self.0 ^= u64::from(b);
                self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }

    /// The digest so far.
    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_samples_give_exact_p50_and_p99() {
        // 1..=1000 in scrambled order: nearest rank gives p50 = 500 and
        // p99 = 990 exactly, with ten samples (991..=1000) beyond p99.
        let samples: Vec<f64> = (0..1000u64)
            .map(|i| ((i * 617) % 1000 + 1) as f64)
            .collect();
        let s = Summary::of(samples);
        assert_eq!(s.n, 1000);
        assert_eq!(s.p50, 500.0);
        assert_eq!(s.p99, 990.0);
        assert_eq!(s.p999, 999.0);
        assert_eq!(s.beyond_p999, 1);
        let (bp, value, beyond) = s.tail.expect("a thousand samples support p99");
        assert_eq!((bp, value, beyond), (9_900, 990.0, 10));
    }

    #[test]
    fn reported_tail_always_has_ten_samples_beyond_it() {
        for n in [10usize, 11, 20, 99, 100, 101, 999, 1000, 1001, 5000, 12_345] {
            let s = sorted((0..n).map(|i| i as f64).collect());
            match tail(&s) {
                Some((_, v, beyond)) => {
                    assert!(beyond >= 10, "n={n}: {beyond} beyond");
                    assert_eq!(beyond, count_beyond(&s, v));
                }
                None => assert!(n < 21, "n={n} supports at least the median"),
            }
        }
        // 10_000 samples support p99.9 (10 beyond) but not p99.99.
        let s = sorted((0..10_000).map(f64::from).collect());
        assert_eq!(tail(&s).map(|t| t.0), Some(9_990));
    }

    #[test]
    fn ranks_do_not_round_across_sample_boundaries() {
        // q·n with q = 0.99 is not exact in binary; the integer rank is.
        for n in 1..=3000usize {
            let s: Vec<f64> = (1..=n).map(|i| i as f64).collect();
            let want = (n * 99).div_ceil(100).max(1) as f64;
            assert_eq!(quantile(&s, 9_900), want, "n={n}");
        }
    }

    #[test]
    fn failed_requests_sort_last_and_count_as_misses() {
        let mut v: Vec<f64> = (1..=99).map(f64::from).collect();
        v.push(f64::INFINITY);
        let s = Summary::of(v);
        assert_eq!(s.p99, 99.0);
        assert_eq!(s.p999, f64::INFINITY);
    }
}
