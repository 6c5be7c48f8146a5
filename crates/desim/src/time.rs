//! The simulation clock.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in (or duration of) simulated time, measured in integer ticks.
///
/// The paper's simulator works in abstract "time units" (e.g. `T_CPU = 700
/// time units`); we adopt the same convention. Using an integer clock rather
/// than `f64` makes event ordering total and runs reproducible: two events
/// scheduled for the same tick are delivered in scheduling order.
///
/// `SimTime` doubles as a duration type; arithmetic saturates on underflow
/// rather than panicking so that latency computations can never produce a
/// negative time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// Time zero — the start of every simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable time; used as an "infinite" horizon.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Constructs a time from raw ticks.
    #[inline]
    pub const fn from_ticks(t: u64) -> Self {
        SimTime(t)
    }

    /// Returns the raw tick count.
    #[inline]
    pub const fn ticks(self) -> u64 {
        self.0
    }

    /// Returns the time as an `f64` tick count (for statistics).
    #[inline]
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }

    /// Constructs a time by rounding a fractional tick count, saturating at
    /// zero for negative inputs.
    #[inline]
    pub fn from_f64(t: f64) -> Self {
        if t <= 0.0 {
            SimTime::ZERO
        } else if t >= u64::MAX as f64 {
            SimTime::MAX
        } else {
            // Rounds half away from zero like `t.round()`, without its
            // libm call: `t - i` is exact (Sterbenz's lemma for t ≥ 1,
            // and i = 0 below), and NaN falls through to 0.
            let i = t as u64;
            SimTime(i + u64::from(t - i as f64 >= 0.5))
        }
    }

    /// Saturating subtraction; returns `ZERO` instead of underflowing.
    #[inline]
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    /// The larger of two times.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// The smaller of two times.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}t", self.0)
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        *self = *self + rhs;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    /// Saturating: never produces negative time.
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        self.saturating_sub(rhs)
    }
}

impl SubAssign for SimTime {
    #[inline]
    fn sub_assign(&mut self, rhs: SimTime) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn div(self, rhs: u64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, |a, b| a + b)
    }
}

impl From<u64> for SimTime {
    #[inline]
    fn from(t: u64) -> Self {
        SimTime(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_roundtrip() {
        assert_eq!(SimTime::from_ticks(42).ticks(), 42);
        assert_eq!(SimTime::from(7u64), SimTime::from_ticks(7));
        assert_eq!(SimTime::ZERO.ticks(), 0);
    }

    #[test]
    fn arithmetic_basics() {
        let a = SimTime::from_ticks(10);
        let b = SimTime::from_ticks(3);
        assert_eq!((a + b).ticks(), 13);
        assert_eq!((a - b).ticks(), 7);
        assert_eq!((a * 4).ticks(), 40);
        assert_eq!((a / 2).ticks(), 5);
    }

    #[test]
    fn subtraction_saturates() {
        let a = SimTime::from_ticks(3);
        let b = SimTime::from_ticks(10);
        assert_eq!(a - b, SimTime::ZERO);
        assert_eq!(a.saturating_sub(b), SimTime::ZERO);
    }

    #[test]
    fn addition_saturates_at_max() {
        assert_eq!(SimTime::MAX + SimTime::from_ticks(1), SimTime::MAX);
        assert_eq!(SimTime::MAX * 2, SimTime::MAX);
    }

    #[test]
    fn f64_conversion_clamps() {
        assert_eq!(SimTime::from_f64(-5.0), SimTime::ZERO);
        assert_eq!(SimTime::from_f64(2.6).ticks(), 3);
        assert_eq!(SimTime::from_f64(f64::INFINITY), SimTime::MAX);
        assert_eq!(SimTime::from_ticks(9).as_f64(), 9.0);
    }

    /// The `f64::round` definition `from_f64` replaces.
    fn from_f64_by_round(t: f64) -> SimTime {
        if t <= 0.0 {
            SimTime::ZERO
        } else if t >= u64::MAX as f64 {
            SimTime::MAX
        } else {
            SimTime(t.round() as u64)
        }
    }

    #[test]
    fn f64_rounding_edges() {
        let p52 = (1u64 << 52) as f64;
        let p53 = (1u64 << 53) as f64;
        let edges = [
            (0.5, 1),
            (0.499_999_999_999_999_94, 0),
            (2.5, 3),
            (p52 - 0.5, 1 << 52),
            (p53, 1 << 53),
            (p53 + 2.0, (1 << 53) + 2),
            (f64::NAN, 0),
            (f64::INFINITY, u64::MAX),
            (-0.0, 0),
            (u64::MAX as f64, u64::MAX),
        ];
        for (t, ticks) in edges {
            assert_eq!(SimTime::from_f64(t).ticks(), ticks, "from_f64({t:e})");
            assert_eq!(SimTime::from_f64(t), from_f64_by_round(t), "{t:e}");
        }
    }

    #[test]
    fn f64_rounding_matches_round() {
        crate::cases("from_f64_matches_round", 256, |rng| {
            for _ in 0..64 {
                let bits = f64::from_bits(rng.int_range(0, u64::MAX));
                let near = rng.uniform(0.0, 1e7);
                let half = rng.int_range(0, 1 << 40) as f64 + 0.5;
                for t in [bits, near, half] {
                    assert_eq!(SimTime::from_f64(t), from_f64_by_round(t), "{t:e}");
                }
            }
        });
    }

    #[test]
    fn ordering_and_min_max() {
        let a = SimTime::from_ticks(5);
        let b = SimTime::from_ticks(8);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn sum_of_durations() {
        let total: SimTime = (1..=4).map(SimTime::from_ticks).sum();
        assert_eq!(total.ticks(), 10);
    }

    #[test]
    fn display_format() {
        assert_eq!(SimTime::from_ticks(700).to_string(), "700t");
    }
}
