//! Exact order statistics over the benchmark's own samples.
//!
//! Every percentile is read from the sorted samples themselves (nearest
//! rank), never from a bucketed histogram: `obs::LatencyHistogram` answers
//! with a power-of-two bucket bound and can read up to 2x high.

/// How many samples must lie beyond a percentile before it is reported as
/// supported by the sample.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q` (0..=100) of an ascending slice; `NaN` when
/// the slice is empty.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile with at least [`MIN_BEYOND`] samples beyond it,
/// as `(q, value)`; `None` when the sample is too small to support one.
pub fn supported_percentile(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    if n <= MIN_BEYOND {
        return None;
    }
    let rank = n - MIN_BEYOND;
    Some((100.0 * rank as f64 / n as f64, sorted[rank - 1]))
}

/// Consecutive windows a series is split into for [`windowed_p99`].
pub const WINDOWS: usize = 5;

/// Median over [`WINDOWS`] consecutive windows (in sample order) of each
/// window's exact p99: a stall that hits one window moves it, not the
/// run's tail figure.
pub fn windowed_p99(samples: &[f64]) -> f64 {
    let size = samples.len().div_ceil(WINDOWS).max(1);
    let p99s: Vec<f64> = samples
        .chunks(size)
        .map(|w| {
            let mut w = w.to_vec();
            w.sort_by(f64::total_cmp);
            percentile(&w, 99.0)
        })
        .collect();
    median(&p99s)
}

/// Median of an unsorted sample (nearest rank).
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 50.0)
}

/// Mean over groups (rounds, episodes) of each group's median: a series
/// whose level switches between states for seconds at a time moves with
/// the share of time in each state, where its overall median would jump.
pub fn mean_of_medians(groups: &[Vec<f64>]) -> f64 {
    groups.iter().map(|g| median(g)).sum::<f64>() / groups.len() as f64
}

/// One latency series: its count, median, p99 and the highest supported
/// percentile.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub p99: f64,
    /// [`windowed_p99`] of the series.
    pub p99_windowed: f64,
    pub supported: Option<(f64, f64)>,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Summary {
            n: sorted.len(),
            p50: percentile(&sorted, 50.0),
            p99: percentile(&sorted, 99.0),
            p99_windowed: windowed_p99(samples),
            supported: supported_percentile(&sorted),
        }
    }

    /// `n=…, p50 …, p99 …, p99.6 …` with `unit` after each value.
    pub fn describe(&self, unit: &str) -> String {
        let top = match self.supported {
            Some((q, v)) => format!("p{q:.2} {v:.3} {unit}"),
            None => format!("no percentile has {MIN_BEYOND} samples beyond it"),
        };
        format!(
            "n={}, p50 {:.3} {unit}, p99 {:.3} {unit} (window median {:.3}), {top}",
            self.n, self.p50, self.p99, self.p99_windowed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50.0), 50.0);
        assert_eq!(percentile(&sorted, 99.0), 99.0);
        assert_eq!(percentile(&sorted, 100.0), 100.0);
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn summary_sorts_its_input() {
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.n, s.p50, s.p99), (3, 2.0, 3.0));
        assert_eq!(median(&[5.0, 9.0, 1.0, 4.0, 7.0]), 5.0);
    }

    #[test]
    fn mean_of_medians_weights_each_group_once() {
        let groups = vec![vec![1.0, 2.0, 9.0], vec![4.0], vec![6.0, 5.0, 7.0, 100.0]];
        assert_eq!(mean_of_medians(&groups), (2.0 + 4.0 + 6.0) / 3.0);
    }

    #[test]
    fn supported_percentile_keeps_ten_beyond() {
        // Ten or fewer samples support no percentile at all.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(supported_percentile(&ten), None);
        // Eleven: only the lowest sample has ten beyond it.
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        let (q, v) = supported_percentile(&eleven).expect("supported");
        assert_eq!(v, 1.0);
        assert!((q - 100.0 / 11.0).abs() < 1e-12);
        // A thousand: p99 is exactly the supported edge.
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        let (q, v) = supported_percentile(&thousand).expect("supported");
        assert_eq!((q, v), (99.0, 990.0));
        assert_eq!(thousand.iter().filter(|&&x| x > v).count(), MIN_BEYOND);
        // Every size: exactly ten samples lie beyond the reported value.
        for n in 11..400usize {
            let s: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let (_, v) = supported_percentile(&s).expect("supported");
            assert_eq!(s.iter().filter(|&&x| x > v).count(), MIN_BEYOND, "n={n}");
        }
    }
}
