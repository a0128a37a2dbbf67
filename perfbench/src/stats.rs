//! Order statistics over measured samples.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` percent of the samples at or below it.
///
/// # Panics
///
/// Panics if `sorted` is empty or `p` is outside `0..=100`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Number of samples strictly above the `p`-th percentile: a percentile is
/// only reported when at least ten samples lie beyond it.
pub fn beyond(sorted: &[f64], p: f64) -> usize {
    let cut = percentile(sorted, p);
    sorted.len() - sorted.partition_point(|&v| v <= cut)
}

/// Median by the midpoint rule (mean of the two middle samples for an
/// even count). `None` for no samples.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// First quartile, median and third quartile by the "exclusive" method of
/// Python's `statistics.quantiles(values, n=4)`, which is how run-to-run
/// spread is judged. `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let ld = values.len();
    if ld < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let (n, m) = (4usize, ld + 1);
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
    }
    Some(out)
}

/// Interquartile range as a share of the median.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    Some((q3 - q1) / q2)
}

/// Pools per-case answer quality: `(answers, accuracy, geomean)` per case
/// into the accuracy and geometric mean over all answers together.
pub fn pooled_quality(parts: &[(usize, f64, f64)]) -> (f64, f64) {
    let n: usize = parts.iter().map(|p| p.0).sum();
    if n == 0 {
        return (0.0, 0.0);
    }
    let acc = parts.iter().map(|&(k, a, _)| k as f64 * a).sum::<f64>() / n as f64;
    let log = parts
        .iter()
        .map(|&(k, _, g)| k as f64 * g.ln())
        .sum::<f64>()
        / n as f64;
    (acc, log.exp())
}

/// One window of a run: its latencies and its answer rate.
pub type Window = (Vec<f64>, f64);

/// Medians over the windows of a run: each window's p50 and p90 latency
/// and its answer rate, then the median of each across windows. A stall
/// that hits a few windows moves these far less than whole-run figures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Windowed {
    /// Median of the windows' p50 latencies.
    pub p50: f64,
    /// Median of the windows' p90 latencies.
    pub p90: f64,
    /// Median of the windows' answer rates.
    pub rate: f64,
    /// Number of windows.
    pub windows: usize,
}

impl Windowed {
    /// Summarises `windows`, each given as its latencies and its answer
    /// rate. `None` when no window has a sample.
    pub fn of(windows: &[Window]) -> Option<Self> {
        let per: Vec<[f64; 3]> = windows
            .iter()
            .filter_map(|(lat, rate)| Summary::of(lat).map(|s| [s.p50, s.p90, *rate]))
            .collect();
        let col = |k: usize| median(&per.iter().map(|w| w[k]).collect::<Vec<_>>());
        Some(Self {
            p50: col(0)?,
            p90: col(1)?,
            rate: col(2)?,
            windows: per.len(),
        })
    }
}

/// Latency summary of one measured phase, in the samples' unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// 50th percentile.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarises `samples` (any order). `None` for no samples.
    pub fn of(samples: &[f64]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        Some(Self {
            count: v.len(),
            mean: v.iter().sum::<f64>() / v.len() as f64,
            p50: percentile(&v, 50.0),
            p90: percentile(&v, 90.0),
            p99: percentile(&v, 99.0),
            max: v[v.len() - 1],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_on_a_hundred_samples() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        // p99 of 100 samples has exactly one sample beyond it: too few to
        // report, which is why a run needs >= 1000 samples for p99.
        assert_eq!(beyond(&v, 99.0), 1);
        assert_eq!(beyond(&v, 90.0), 10);
    }

    #[test]
    fn percentiles_of_small_and_odd_counts() {
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        let v = [1.0, 2.0, 3.0];
        assert_eq!(percentile(&v, 50.0), 2.0);
        assert_eq!(percentile(&v, 34.0), 2.0);
        assert_eq!(percentile(&v, 33.0), 1.0);
    }

    #[test]
    fn summary_counts_and_orders() {
        let s = Summary::of(&[5.0, 1.0, 3.0, 2.0, 4.0]).unwrap();
        assert_eq!(s.count, 5);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.p50, 3.0);
        assert_eq!(s.p99, 5.0);
        assert_eq!(s.max, 5.0);
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v).unwrap(), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]).unwrap(), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]).unwrap(), [0.75, 1.5, 2.25]);
        assert!(quartiles(&[1.0]).is_none());
        let spread = relative_spread(&v).unwrap();
        assert!((spread - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn pooled_quality_weights_cases_by_answer_count() {
        let (acc, geo) = pooled_quality(&[(300, 0.5, 0.8), (100, 0.1, 0.2)]);
        assert!((acc - 0.4).abs() < 1e-12);
        // Geometric mean over all 400 answers: 0.8^(3/4) * 0.2^(1/4).
        assert!((geo - 0.8f64.powf(0.75) * 0.2f64.powf(0.25)).abs() < 1e-12);
        assert_eq!(pooled_quality(&[]), (0.0, 0.0));
    }

    #[test]
    fn windowed_medians_shrug_off_one_stalled_window() {
        let steady = |k: f64| {
            (
                (1..=100).map(|v| f64::from(v) * k).collect::<Vec<_>>(),
                1000.0 / k,
            )
        };
        let windows = vec![
            steady(1.0),
            steady(1.0),
            steady(50.0),
            steady(1.0),
            steady(1.0),
        ];
        let w = Windowed::of(&windows).unwrap();
        assert_eq!((w.p50, w.p90, w.rate, w.windows), (50.0, 90.0, 1000.0, 5));
        // Whole-run figures over the same samples are dragged by the stall.
        let all: Vec<f64> = windows.iter().flat_map(|w| w.0.clone()).collect();
        assert!(Summary::of(&all).unwrap().p90 > 90.0);
        assert!(Windowed::of(&[(Vec::new(), 1.0)]).is_none());
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
