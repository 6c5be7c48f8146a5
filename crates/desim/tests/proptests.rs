//! Property-based tests for the DES kernel, seeded through
//! [`gridscale_desim::cases`].

use gridscale_desim::stats::{Histogram, Welford};
use gridscale_desim::{cases, Engine, EventQueue, SimTime, World};

/// The queue is a priority queue on its keys: pops come out sorted by
/// time, and equal-time events follow their `seq`. Keying each event by
/// its index makes the tie-break the insertion order.
#[test]
fn event_queue_is_stable_priority_queue() {
    cases("event_queue_is_stable_priority_queue", 256, |rng| {
        let times: Vec<u64> = (0..rng.int_range(1, 199))
            .map(|_| rng.int_range(0, 999))
            .collect();
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule_keyed(SimTime::from_ticks(t), i as u64, i);
        }
        let mut popped: Vec<(SimTime, usize)> = Vec::new();
        while let Some(ev) = q.pop() {
            popped.push((ev.at, ev.event));
        }
        assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            assert!(w[0].0 <= w[1].0, "time order violated");
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1, "seq tie-break violated");
            }
        }
    });
}

/// Merged Welford accumulators agree with a single-pass accumulator
/// regardless of the split point.
#[test]
fn welford_merge_associative() {
    cases("welford_merge_associative", 256, |rng| {
        let xs: Vec<f64> = (0..rng.int_range(2, 99))
            .map(|_| rng.uniform(-1e6, 1e6))
            .collect();
        let split = rng.index(100) % xs.len();
        let mut whole = Welford::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut a = Welford::new();
        let mut b = Welford::new();
        for &x in &xs[..split] {
            a.push(x);
        }
        for &x in &xs[split..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() <= 1e-6 * (1.0 + whole.mean().abs()));
        assert!((a.variance() - whole.variance()).abs() <= 1e-5 * (1.0 + whole.variance()));
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    });
}

/// Histogram quantiles are monotone in q and total mass is conserved.
#[test]
fn histogram_quantiles_monotone() {
    cases("histogram_quantiles_monotone", 256, |rng| {
        let xs: Vec<f64> = (0..rng.int_range(1, 299))
            .map(|_| rng.uniform(0.0, 500.0))
            .collect();
        let mut h = Histogram::new(10.0, 40);
        for &x in &xs {
            h.push(x);
        }
        assert_eq!(h.total(), xs.len() as u64);
        let q25 = h.quantile(0.25).unwrap();
        let q50 = h.quantile(0.50).unwrap();
        let q95 = h.quantile(0.95).unwrap();
        assert!(q25 <= q50 && q50 <= q95);
    });
}

/// SimTime arithmetic: associativity of addition and the saturating
/// subtraction identity max(a-b, 0).
#[test]
fn simtime_arithmetic() {
    cases("simtime_arithmetic", 256, |rng| {
        let mut draw = || rng.int_range(0, u64::MAX / 4 - 1);
        let (a, b, c) = (draw(), draw(), draw());
        let (ta, tb, tc) = (
            SimTime::from_ticks(a),
            SimTime::from_ticks(b),
            SimTime::from_ticks(c),
        );
        assert_eq!((ta + tb) + tc, ta + (tb + tc));
        assert_eq!((ta - tb).ticks(), a.saturating_sub(b));
        assert_eq!(ta.max(tb).ticks(), a.max(b));
    });
}

/// Engine delivery honors an arbitrary set of one-shot events.
#[test]
fn engine_delivers_everything_before_horizon() {
    struct Collect(Vec<u64>);
    impl World for Collect {
        type Event = u64;
        fn handle(&mut self, now: SimTime, ev: u64, _q: &mut EventQueue<u64>) {
            assert_eq!(now.ticks(), ev);
            self.0.push(ev);
        }
    }
    cases("engine_delivers_everything_before_horizon", 256, |rng| {
        let times: Vec<u64> = (0..rng.int_range(1, 99))
            .map(|_| rng.int_range(0, 4_999))
            .collect();
        let mut w = Collect(Vec::new());
        let mut e = Engine::from_queue(EventQueue::new());
        for (i, &t) in times.iter().enumerate() {
            e.queue_mut()
                .schedule_keyed(SimTime::from_ticks(t), i as u64, t);
        }
        e.run_until(&mut w, SimTime::from_ticks(5000));
        assert_eq!(w.0.len(), times.len());
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(w.0, sorted);
    });
}

/// The RNG's distributions stay within their support, for any seed.
#[test]
fn distributions_respect_support() {
    cases("distributions_respect_support", 256, |rng| {
        for _ in 0..100 {
            assert!(rng.uniform01() < 1.0);
            assert!(rng.exponential(0.1) >= 0.0);
            assert!(rng.log_normal(2.0, 0.5) > 0.0);
            let bp = rng.bounded_pareto(1.2, 5.0, 50.0);
            assert!((5.0..=50.0).contains(&bp));
        }
    });
}
