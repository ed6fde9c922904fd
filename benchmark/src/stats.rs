//! Order statistics and the benchmark's one process-wide clock.

use std::sync::OnceLock;
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Process start, as far as the benchmark can see it: the first call.
pub fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since [`epoch`]; every stamp of a run is on this clock.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// `at` on the [`now_ns`] clock.
pub fn ns_of(at: Instant) -> u64 {
    at.saturating_duration_since(epoch()).as_nanos() as u64
}

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100).
/// An empty slice has no percentile and reads 0.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.total_cmp(b));
}

/// Median of `values` (sorted in place; mean of the middle pair when even).
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    sort(values);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Percentile `p` of the sample values whose position falls in each of
/// `slices` equal parts of `0..span`, in slice order (0 for an empty
/// slice), and the size of the smallest slice. Reported percentiles are
/// the median of these: one scheduler hiccup moves one slice, not the
/// reported number.
pub fn slice_percentiles(
    samples: &[(u64, f64)],
    span: u64,
    slices: usize,
    p: f64,
) -> (Vec<f64>, usize) {
    let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); slices];
    for &(at, value) in samples {
        let slice = ((at as u128 * slices as u128) / span.max(1) as u128) as usize;
        buckets[slice.min(slices - 1)].push(value);
    }
    let smallest = buckets.iter().map(Vec::len).min().unwrap_or(0);
    let per_slice = buckets
        .iter_mut()
        .map(|b| {
            sort(b);
            percentile(b, p)
        })
        .collect();
    (per_slice, smallest)
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
