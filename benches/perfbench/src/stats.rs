//! Order statistics over latency samples.

/// A sample summary: median, the tail (see [`tail`]), and the sample count.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    pub count: usize,
    pub p50: f64,
    pub tail: Tail,
}

/// The highest percentile with at least ten samples beyond it, its value, and
/// whether the sample was large enough for one to exist.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tail {
    /// Percentile (0–100) the value sits at.
    pub percentile: f64,
    pub value: f64,
    /// `false` when fewer than 11 samples were taken: no percentile then has
    /// ten samples beyond it, and the maximum stands in for the tail.
    pub ranked: bool,
}

pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).p50
}

/// Median and tail of `samples` (order does not matter). An empty sample
/// summarizes to zeros.
pub fn summarize(samples: &[f64]) -> Summary {
    if samples.is_empty() {
        return Summary::default();
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let p50 = if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    };
    Summary {
        count: n,
        p50,
        tail: tail(&sorted),
    }
}

/// Tail of an ascending sample: the value at rank `n - 11` (0-based), which
/// has exactly ten samples above it, reported at percentile `(n - 10) / n`.
/// With 11 or fewer samples the maximum stands in.
fn tail(sorted: &[f64]) -> Tail {
    let n = sorted.len();
    if n < 11 {
        return Tail {
            percentile: 100.0,
            value: sorted[n - 1],
            ranked: false,
        };
    }
    Tail {
        percentile: 100.0 * (n - 10) as f64 / n as f64,
        value: sorted[n - 11],
        ranked: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = summarize(&samples);
        assert_eq!(s.p50, 50.5);
        assert_eq!(s.tail.value, 90.0);
        assert_eq!(s.tail.percentile, 90.0);
        assert!(s.tail.ranked);
        let beyond = samples.iter().filter(|&&x| x > s.tail.value).count();
        assert_eq!(beyond, 10);
    }

    #[test]
    fn small_samples_fall_back_to_the_maximum() {
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!(s.p50, 2.0);
        assert_eq!(s.tail.value, 3.0);
        assert!(!s.tail.ranked);
    }
}
