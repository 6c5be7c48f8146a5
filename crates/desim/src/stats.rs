//! Online statistics for simulation outputs.
//!
//! Both accumulators are single-pass and allocation-free (except the
//! histogram's fixed bin vector), so they can sit on hot event-handling
//! paths.

/// Welford's online mean/variance accumulator.
#[derive(Debug, Clone, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Welford {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 if fewer than 2 observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Smallest observation (`None` if empty).
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest observation (`None` if empty).
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Resets to the empty state so a pooled accumulator can be reused
    /// across simulation runs without reallocating.
    pub fn reset(&mut self) {
        *self = Welford::new();
    }

    /// Merges another accumulator into this one (Chan et al. parallel
    /// combination), enabling per-shard accumulation in parallel sweeps.
    pub fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += delta * n2 / n;
        self.m2 += other.m2 + delta * delta * n1 * n2 / n;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A fixed-width-bin histogram over `[0, max)` with an overflow bin.
#[derive(Debug, Clone)]
pub struct Histogram {
    bin_width: f64,
    bins: Vec<u64>,
    overflow: u64,
    total: u64,
}

impl Histogram {
    /// `bins` bins of width `bin_width`; values `>= bins * bin_width` land
    /// in the overflow bin.
    pub fn new(bin_width: f64, bins: usize) -> Self {
        assert!(bin_width > 0.0 && bins > 0);
        Histogram {
            bin_width,
            bins: vec![0; bins],
            overflow: 0,
            total: 0,
        }
    }

    /// Zeroes all counts while keeping the bin vector's allocation, so a
    /// pooled histogram can be recycled across simulation runs.
    pub fn reset(&mut self) {
        self.bins.iter_mut().for_each(|b| *b = 0);
        self.overflow = 0;
        self.total = 0;
    }

    /// Adds one observation (negative values clamp into bin 0).
    pub fn push(&mut self, x: f64) {
        self.total += 1;
        if x < 0.0 {
            self.bins[0] += 1;
            return;
        }
        let idx = (x / self.bin_width) as usize;
        if idx < self.bins.len() {
            self.bins[idx] += 1;
        } else {
            self.overflow += 1;
        }
    }

    /// Count in bin `i`.
    pub fn bin(&self, i: usize) -> u64 {
        self.bins[i]
    }

    /// Count of observations beyond the last bin.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Folds another histogram's counts into this one, bin by bin. Both
    /// histograms must share the same geometry (bin width and count) —
    /// merging is exact then: the result equals a single histogram fed
    /// every observation, in any order. This is what lets sharded
    /// simulation partitions keep private histograms and combine them at
    /// the barrier without ordering effects.
    pub fn absorb(&mut self, other: &Histogram) {
        assert_eq!(
            self.bins.len(),
            other.bins.len(),
            "histogram geometries differ"
        );
        assert_eq!(
            self.bin_width.to_bits(),
            other.bin_width.to_bits(),
            "histogram geometries differ"
        );
        for (b, &o) in self.bins.iter_mut().zip(&other.bins) {
            *b += o;
        }
        self.overflow += other.overflow;
        self.total += other.total;
    }

    /// Approximate quantile (`q` in `[0,1]`) from bin midpoints; overflow
    /// reports the lower edge of the overflow region. `None` if empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.bins.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some((i as f64 + 0.5) * self.bin_width);
            }
        }
        Some(self.bins.len() as f64 * self.bin_width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_basics() {
        let mut w = Welford::new();
        assert_eq!(w.count(), 0);
        assert_eq!(w.mean(), 0.0);
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            w.push(x);
        }
        assert_eq!(w.count(), 8);
        assert!((w.mean() - 5.0).abs() < 1e-12);
        assert!((w.variance() - 4.0).abs() < 1e-12);
        assert_eq!(w.min(), Some(2.0));
        assert_eq!(w.max(), Some(9.0));
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64) * 0.37 - 5.0).collect();
        let mut whole = Welford::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut a = Welford::new();
        let mut b = Welford::new();
        for &x in &xs[..33] {
            a.push(x);
        }
        for &x in &xs[33..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn welford_merge_with_empty() {
        let mut a = Welford::new();
        a.push(3.0);
        let b = Welford::new();
        a.merge(&b);
        assert_eq!(a.count(), 1);
        let mut c = Welford::new();
        c.merge(&a);
        assert_eq!(c.count(), 1);
        assert_eq!(c.mean(), 3.0);
    }

    #[test]
    fn welford_reset_clears_state() {
        let mut w = Welford::new();
        w.push(1.0);
        w.push(5.0);
        w.reset();
        assert_eq!(w.count(), 0);
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.min(), None);
        w.push(2.0);
        assert_eq!(w.mean(), 2.0);
    }

    #[test]
    fn histogram_reset_keeps_shape() {
        let mut h = Histogram::new(10.0, 5);
        for x in [1.0, 25.0, 1e9] {
            h.push(x);
        }
        h.reset();
        assert_eq!(h.total(), 0);
        assert_eq!(h.overflow(), 0);
        assert_eq!((0..5).map(|i| h.bin(i)).sum::<u64>(), 0);
        h.push(25.0);
        assert_eq!(h.bin(2), 1);
    }

    #[test]
    fn histogram_binning() {
        let mut h = Histogram::new(10.0, 5);
        for x in [0.0, 5.0, 9.99, 10.0, 49.0, 50.0, 1e9, -3.0] {
            h.push(x);
        }
        assert_eq!(h.bin(0), 4); // 0, 5, 9.99, and clamped -3
        assert_eq!(h.bin(1), 1); // 10
        assert_eq!(h.bin(4), 1); // 49
        assert_eq!(h.overflow(), 2); // 50, 1e9
        assert_eq!(h.total(), 8);
    }

    #[test]
    fn histogram_quantile() {
        let mut h = Histogram::new(1.0, 100);
        for i in 0..100 {
            h.push(i as f64);
        }
        let median = h.quantile(0.5).unwrap();
        assert!((median - 49.5).abs() <= 1.0);
        assert_eq!(Histogram::new(1.0, 4).quantile(0.5), None);
    }

    #[test]
    fn histogram_absorb_matches_single_feed() {
        // Split one observation stream across two histograms, absorb, and
        // compare against a single histogram fed everything.
        let xs: Vec<f64> = (0..200).map(|i| (i as f64) * 0.7 - 3.0).collect();
        let mut whole = Histogram::new(10.0, 8);
        let mut left = Histogram::new(10.0, 8);
        let mut right = Histogram::new(10.0, 8);
        for (i, &x) in xs.iter().enumerate() {
            whole.push(x);
            if i % 3 == 0 {
                left.push(x)
            } else {
                right.push(x)
            }
        }
        left.absorb(&right);
        assert_eq!(left.total(), whole.total());
        assert_eq!(left.overflow(), whole.overflow());
        for i in 0..8 {
            assert_eq!(left.bin(i), whole.bin(i), "bin {i}");
        }
        assert_eq!(left.quantile(0.95), whole.quantile(0.95));
    }

    #[test]
    #[should_panic(expected = "geometries differ")]
    fn histogram_absorb_rejects_mismatched_geometry() {
        let mut a = Histogram::new(10.0, 8);
        a.absorb(&Histogram::new(10.0, 9));
    }
}
