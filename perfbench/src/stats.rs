//! Percentiles from raw samples. Nothing here reads a histogram: the
//! program's log2-bucketed histograms are too coarse to show a 10%
//! change.

/// A sorted set of samples.
pub struct Dist {
    sorted: Vec<f64>,
}

impl Dist {
    pub fn new(mut samples: Vec<f64>) -> Dist {
        samples.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
        Dist { sorted: samples }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// The median (mean of the two middle samples for an even count);
    /// 0 for no samples.
    pub fn median(&self) -> f64 {
        let n = self.sorted.len();
        match n {
            0 => 0.0,
            _ if n % 2 == 1 => self.sorted[n / 2],
            _ => (self.sorted[n / 2 - 1] + self.sorted[n / 2]) / 2.0,
        }
    }

    /// The highest percentile with at least ten samples beyond it: the
    /// eleventh-largest sample, at percentile `(n - 10) / n`. Returns
    /// `(percentile, value)`; with fewer than eleven samples, the
    /// largest sample at the 100th percentile.
    pub fn tail(&self) -> (f64, f64) {
        let n = self.sorted.len();
        match n {
            0 => (100.0, 0.0),
            _ if n < 11 => (100.0, self.sorted[n - 1]),
            _ => (100.0 * (n - 10) as f64 / n as f64, self.sorted[n - 11]),
        }
    }

    /// The same samples multiplied by `k` (a unit change).
    pub fn scaled(&self, k: f64) -> Dist {
        Dist::new(self.sorted.iter().map(|v| v * k).collect())
    }

    /// One-line summary: `p50 <m> <unit>, p<q> <t> <unit> (n=<n>)`.
    pub fn describe(&self, unit: &str) -> String {
        let (q, t) = self.tail();
        format!(
            "p50 {:.3} {unit}, p{q:.2} {t:.3} {unit} (n={})",
            self.median(),
            self.len()
        )
    }
}

/// Operations per window of [`windowed_tail`].
const TAIL_WINDOW: usize = 200;

/// A tail steady enough to gate on: `samples` (in the order they were
/// taken) are cut into consecutive windows of [`TAIL_WINDOW`]; each
/// window's tail is its highest percentile with ten samples beyond it
/// (p95), and the result is the median over windows. With fewer than two
/// whole windows it is the whole sample's tail. Over a whole run of
/// thousands of operations that percentile lands on the ten worst, which
/// on a shared 2-core box are set by rare stalls and spread 20-80%
/// between runs.
pub fn windowed_tail(samples: &[f64]) -> f64 {
    let windows: Vec<f64> = samples
        .chunks_exact(TAIL_WINDOW)
        .map(|w| Dist::new(w.to_vec()).tail().1)
        .collect();
    if windows.len() < 2 {
        Dist::new(samples.to_vec()).tail().1
    } else {
        median(&windows)
    }
}

/// Median of a slice of samples (0 for none).
pub fn median(samples: &[f64]) -> f64 {
    Dist::new(samples.to_vec()).median()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let d = Dist::new((1..=100).map(f64::from).collect());
        assert_eq!(d.median(), 50.5);
        assert_eq!(d.tail(), (90.0, 90.0));
        let small = Dist::new(vec![3.0, 1.0, 2.0]);
        assert_eq!(small.median(), 2.0);
        assert_eq!(small.tail(), (100.0, 3.0));
    }
}
