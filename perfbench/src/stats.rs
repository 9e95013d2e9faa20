//! Sample summaries: the median, and a tail percentile that the sample size
//! can support.

/// A tail percentile is reported only when at least this many samples lie
/// beyond it; with fewer, the "tail" would be a single unlucky sample.
pub const MIN_BEYOND: usize = 10;

/// The summary of one set of timing samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples summarised.
    pub count: usize,
    /// Their median (the mean of the middle pair for an even count).
    pub median: f64,
    /// `(percentile, value)` of the highest percentile with at least
    /// [`MIN_BEYOND`] samples beyond it, or `None` when that percentile
    /// would not lie above the median (fewer than `2 * MIN_BEYOND`
    /// samples).
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// The tail value, or the median when the sample cannot support a tail
    /// (so a per-layer metric is always a measured number).
    pub fn tail_or_median(&self) -> f64 {
        self.tail.map_or(self.median, |(_, value)| value)
    }

    /// A one-line description: median, tail and sample count.
    pub fn describe(&self, unit: &str) -> String {
        let tail = match self.tail {
            Some((p, value)) => format!("p{p:.1} {value:.4} {unit}"),
            None => format!("no tail (needs {} samples)", 2 * MIN_BEYOND),
        };
        format!(
            "median {:.4} {unit}, {tail}, {} samples",
            self.median, self.count
        )
    }
}

/// Summarises `samples` (in any order). An empty set has median 0.
pub fn summarize(samples: &[f64]) -> Summary {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let median = match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    };
    // Nearest rank: the value at rank n - MIN_BEYOND (1-based) has exactly
    // MIN_BEYOND samples beyond it, and is the percentile
    // 100 * (n - MIN_BEYOND) / n.
    let tail = (n >= 2 * MIN_BEYOND).then(|| {
        let rank = n - MIN_BEYOND;
        (100.0 * rank as f64 / n as f64, sorted[rank - 1])
    });
    Summary {
        count: n,
        median,
        tail,
    }
}
