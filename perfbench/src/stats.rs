//! Order statistics over a run's rounds and samples.

use gravel_telemetry::histogram::bucket_high;
use gravel_telemetry::HistogramSnapshot;

/// Median of `xs` (mean of the middle two for even lengths); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut v: Vec<f64> = xs.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank `q`-quantile of an ascending-sorted sample; 0 when
/// empty.
pub fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    match sorted.len() {
        0 => 0,
        n => sorted[((q * n as f64).ceil() as usize).clamp(1, n) - 1],
    }
}

/// `q`-quantile of a registry histogram, interpolated linearly inside
/// the bucket that holds it (the histogram's own `quantile` returns the
/// bucket's upper edge, which reads identically across runs).
pub fn histogram_quantile(h: &HistogramSnapshot, q: f64) -> f64 {
    if h.count == 0 {
        return 0.0;
    }
    let rank = (q * h.count as f64).clamp(1.0, h.count as f64);
    let mut seen = 0u64;
    for (i, &c) in h.buckets.iter().enumerate() {
        if c == 0 {
            continue;
        }
        if (seen + c) as f64 >= rank {
            let low = if i == 0 { 0 } else { bucket_high(i - 1) + 1 };
            let high = bucket_high(i).min(h.max).max(low);
            let frac = (rank - seen as f64) / c as f64;
            return low as f64 + frac * (high - low) as f64;
        }
        seen += c;
    }
    h.max as f64
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gravel_telemetry::Histogram;

    #[test]
    fn median_and_quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile_sorted(&s, 0.5), 50);
        assert_eq!(quantile_sorted(&s, 0.99), 99);
    }

    #[test]
    fn histogram_quantile_stays_inside_its_bucket() {
        let h = Histogram::detached();
        for v in 1000..2000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        let p50 = histogram_quantile(&s, 0.5);
        assert!((1400.0..=1600.0).contains(&p50), "p50 {p50}");
        assert!(histogram_quantile(&s, 0.99) <= 1999.0);
    }
}
