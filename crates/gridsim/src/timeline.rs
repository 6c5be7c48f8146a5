//! Sampled time series of simulation signals.
//!
//! A [`Timeline`] collects fixed-interval samples of system state —
//! cluster loads, RMS backlog, cumulative `F`/`G` — so experiments can
//! look *inside* a run instead of only at its end-of-run report (e.g. to
//! see a CENTRAL scheduler's backlog diverging at saturation). Sampling
//! is driven by the simulator itself; the recorder only stores values.

use gridscale_desim::SimTime;

/// One sampled instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Sample time.
    pub at: SimTime,
    /// Mean resource load (jobs in system per resource).
    pub mean_load: f64,
    /// Maximum per-resource load.
    pub max_load: f64,
    /// RMS backlog: how far the busiest scheduler's work server is
    /// committed beyond `now`, in ticks (0 = keeping up; divergence =
    /// saturation).
    pub rms_backlog: f64,
    /// Cumulative useful work `F` so far.
    pub f_so_far: f64,
    /// Cumulative raw RMS busy time so far.
    pub g_busy_so_far: f64,
    /// Jobs completed so far.
    pub completed: u64,
}

/// A fixed-interval recording of [`Sample`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct Timeline {
    interval: u64,
    samples: Vec<Sample>,
}

impl Timeline {
    /// A recorder sampling every `interval` ticks (panics on 0).
    pub fn new(interval: u64) -> Self {
        assert!(interval > 0, "sampling interval must be positive");
        Timeline {
            interval,
            samples: Vec::new(),
        }
    }

    /// The configured sampling interval.
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// Appends one sample (times must be nondecreasing).
    pub fn push(&mut self, s: Sample) {
        debug_assert!(
            self.samples.last().map(|p| p.at <= s.at).unwrap_or(true),
            "samples must be time-ordered"
        );
        self.samples.push(s);
    }

    /// All samples in time order.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Extracts one signal as `(ticks, value)` pairs.
    pub fn series<F: Fn(&Sample) -> f64>(&self, f: F) -> Vec<(u64, f64)> {
        self.samples.iter().map(|s| (s.at.ticks(), f(s))).collect()
    }

    /// Peak of a signal over the run (`None` if empty).
    #[expect(clippy::unwrap_used, reason = "sampled signals are never NaN")]
    pub fn peak<F: Fn(&Sample) -> f64>(&self, f: F) -> Option<(u64, f64)> {
        self.samples
            .iter()
            .map(|s| (s.at.ticks(), f(s)))
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
    }

    /// Downsamples to at most `max_points` by keeping every n-th sample
    /// (always keeping the last) — for compact rendering.
    pub fn downsample(&self, max_points: usize) -> Timeline {
        assert!(max_points >= 2);
        if self.samples.len() <= max_points {
            return self.clone();
        }
        let stride = self.samples.len().div_ceil(max_points);
        let mut samples: Vec<Sample> = self.samples.iter().step_by(stride).copied().collect();
        if samples.last() != self.samples.last() {
            #[expect(clippy::expect_used, reason = "longer than max_points, so nonempty")]
            samples.push(*self.samples.last().expect("nonempty"));
        }
        Timeline {
            interval: self.interval * stride as u64,
            samples,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(at: u64, mean: f64, backlog: f64) -> Sample {
        Sample {
            at: SimTime::from_ticks(at),
            mean_load: mean,
            max_load: mean * 2.0,
            rms_backlog: backlog,
            f_so_far: at as f64,
            g_busy_so_far: at as f64 / 10.0,
            completed: at / 100,
        }
    }

    fn filled(n: u64) -> Timeline {
        let mut t = Timeline::new(10);
        for i in 0..n {
            t.push(sample(i * 10, i as f64 % 5.0, i as f64));
        }
        t
    }

    #[test]
    fn records_in_order() {
        let t = filled(10);
        assert_eq!(t.len(), 10);
        assert!(!t.is_empty());
        assert_eq!(t.samples()[3].at.ticks(), 30);
    }

    #[test]
    fn series_and_peak() {
        let t = filled(10);
        let s = t.series(|x| x.rms_backlog);
        assert_eq!(s.len(), 10);
        assert_eq!(s[9], (90, 9.0));
        assert_eq!(t.peak(|x| x.rms_backlog), Some((90, 9.0)));
        assert_eq!(Timeline::new(5).peak(|x| x.mean_load), None);
    }

    #[test]
    fn downsample_preserves_endpoints_and_bound() {
        let t = filled(100);
        let d = t.downsample(10);
        assert!(d.len() <= 11, "len {}", d.len());
        assert_eq!(d.samples().first(), t.samples().first());
        assert_eq!(d.samples().last(), t.samples().last());
        // Small timelines pass through unchanged.
        let small = filled(5);
        assert_eq!(small.downsample(10), small);
    }

    #[test]
    #[should_panic]
    fn zero_interval_rejected() {
        Timeline::new(0);
    }
}
