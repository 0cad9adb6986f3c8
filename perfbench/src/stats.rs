//! Exact order statistics over raw samples.
//!
//! Every latency the benchmark reports is read off the sorted raw
//! samples of its run — never off a bucketed histogram — using the
//! nearest-rank definition: the `q`-quantile of `n` sorted samples is the
//! sample at index `ceil(q * n) - 1`.

/// Fewest samples that must lie strictly above a tail percentile for it
/// to be reported under its own name.
pub const MIN_BEYOND: usize = 10;

/// Index of the nearest-rank `q`-quantile in `n` sorted samples.
pub fn rank(q: f64, n: usize) -> usize {
    assert!(n > 0, "quantile of an empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    let r = (q * n as f64).ceil() as usize;
    r.clamp(1, n) - 1
}

/// Nearest-rank `q`-quantile of already sorted samples.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    sorted[rank(q, sorted.len())]
}

/// How many samples lie strictly beyond the `q`-quantile's rank.
pub fn beyond(q: f64, n: usize) -> usize {
    n - 1 - rank(q, n)
}

/// The highest of the usual tail quantiles that still has at least
/// [`MIN_BEYOND`] samples beyond it, falling back to the median.
pub fn supported_tail(n: usize, wanted: f64) -> f64 {
    for q in [wanted, 0.99, 0.95, 0.9, 0.75] {
        if q <= wanted && n > 0 && beyond(q, n) >= MIN_BEYOND {
            return q;
        }
    }
    0.5
}

/// Summary of one latency population.
#[derive(Clone, Debug, PartialEq)]
pub struct Latency {
    /// Samples the summary was read from.
    pub count: usize,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// The tail quantile actually used (0.99 unless too few samples).
    pub tail_q: f64,
    /// Value at `tail_q`.
    pub tail: f64,
    /// Largest sample.
    pub max: f64,
}

impl Latency {
    /// Summarizes raw samples (any order); `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Latency> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let tail_q = supported_tail(sorted.len(), 0.99);
        Some(Latency {
            count: sorted.len(),
            p50: quantile_sorted(&sorted, 0.5),
            p90: quantile_sorted(&sorted, 0.9),
            tail_q,
            tail: quantile_sorted(&sorted, tail_q),
            max: sorted[sorted.len() - 1],
        })
    }
}

/// Median of raw samples (nearest rank); `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(quantile_sorted(&sorted, 0.5))
}

/// How late each send left against its schedule, in the samples' unit.
/// A send that left early (clock granularity) counts as on time.
pub fn lateness(intended: &[f64], actual: &[f64]) -> Vec<f64> {
    assert_eq!(
        intended.len(),
        actual.len(),
        "one actual send per schedule slot"
    );
    intended
        .iter()
        .zip(actual)
        .map(|(i, a)| (a - i).max(0.0))
        .collect()
}

/// Whether a generator whose sends were `late` (ms) kept to its schedule:
/// its 99th-percentile lateness stays under `limit_ms`.
pub fn schedule_kept(late: &[f64], limit_ms: f64) -> bool {
    match Latency::of(late) {
        None => true,
        Some(l) => l.tail <= limit_ms,
    }
}

/// A statistic of each time slice: `samples` are `(slice, value)` pairs;
/// slices with fewer than `min_per_slice` samples are skipped.
pub fn per_slice(
    samples: &[(usize, f64)],
    min_per_slice: usize,
    stat: impl Fn(&Latency) -> f64,
) -> Vec<f64> {
    let slices = samples.iter().map(|(s, _)| s + 1).max().unwrap_or(0);
    let mut groups: Vec<Vec<f64>> = vec![Vec::new(); slices];
    for &(s, v) in samples {
        groups[s].push(v);
    }
    groups
        .iter()
        .filter(|g| g.len() >= min_per_slice.max(1))
        .filter_map(|g| Latency::of(g))
        .map(|l| stat(&l))
        .collect()
}
