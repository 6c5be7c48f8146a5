//! Property-based tests for the DES kernel, seeded through
//! [`gridscale_desim::cases`].

use gridscale_desim::stats::{Histogram, Welford};
use gridscale_desim::{
    cases, Engine, EventQueue, HeapQueue, ScheduledEvent, SimRng, SimTime, World,
};

/// One step of the differential queue workload: schedule a same-tick
/// burst, batch-schedule, pop, clear, or reset. `at` mixes near times, a
/// far band, and the representable extremes so the ladder's bucket
/// routing, overflow tier, and saturating bound arithmetic all get
/// exercised.
#[derive(Debug, Clone, Copy)]
enum QueueOp {
    Schedule { at: u64, burst: usize },
    ScheduleBatch { at: u64, burst: usize },
    Pop { count: usize },
    Clear,
    Reset,
}

/// Lanes of the keyed harness; keys are `(lane << 40) | counter`, the
/// simulator's layout.
const LANES: u64 = 5;

/// The adaptive ladder and the reference heap, fed identically.
///
/// A keyed pair stamps every event with a lane-packed key through
/// `schedule_keyed` (scheduling must not mix keyed and unkeyed calls),
/// as the simulator does; an unkeyed pair uses the queues' own counters.
struct Pair {
    ladder: EventQueue<u64>,
    heap: HeapQueue<u64>,
    keyed: bool,
    /// Per-lane key counters (keyed pairs only).
    lane_seq: [u64; LANES as usize],
}

impl Pair {
    fn key(&mut self, lane: u64) -> u64 {
        let c = &mut self.lane_seq[lane as usize];
        *c += 1;
        (lane << 40) | *c
    }

    fn schedule(&mut self, at: SimTime, ev: u64) {
        if self.keyed {
            let seq = self.key(ev % LANES);
            self.ladder.schedule_keyed(at, seq, ev);
            self.heap.schedule_keyed(at, seq, ev);
        } else {
            self.ladder.schedule(at, ev);
            self.heap.schedule(at, ev);
        }
    }

    fn schedule_batch(&mut self, batch: &[(SimTime, u64)]) {
        if self.keyed {
            let batch: Vec<(SimTime, u64, u64)> = batch
                .iter()
                .map(|&(at, ev)| (at, self.key(ev % LANES), ev))
                .collect();
            self.ladder.schedule_batch_keyed(batch.iter().copied());
            for &(at, seq, ev) in &batch {
                self.heap.schedule_keyed(at, seq, ev);
            }
        } else {
            self.ladder.schedule_batch(batch.iter().copied());
            self.heap.schedule_batch(batch.iter().copied());
        }
    }

    /// Pops both, asserting they agree with each other and with the
    /// ladder's `peek`.
    fn pop(&mut self) -> Option<ScheduledEvent<u64>> {
        let head = self.ladder.peek().map(|(at, seq, &ev)| (at, seq, ev));
        match (self.ladder.pop(), self.heap.pop()) {
            (None, None) => {
                assert_eq!(head, None, "peek saw an event pop did not return");
                None
            }
            (Some(x), Some(y)) => {
                assert_eq!(
                    (x.at, x.seq, x.event),
                    (y.at, y.seq, y.event),
                    "ladder diverged from heap"
                );
                assert_eq!(
                    head,
                    Some((x.at, x.seq, x.event)),
                    "peek disagreed with pop"
                );
                Some(x)
            }
            (a, b) => panic!("length divergence: ladder={a:?} heap={b:?}"),
        }
    }
}

/// Applies `ops` to both the adaptive ladder and the reference heap —
/// keyed through lane-packed keys when `keyed` — asserting the popped
/// `(at, seq, event)` streams never diverge, then drains both to the
/// end. Shared by the random differential and the fixed-seed schedules
/// below. Returns whether the bucketed near tier was live after any op.
fn run_differential(ops: &[QueueOp], keyed: bool) -> bool {
    let mut q = Pair {
        ladder: EventQueue::new(),
        heap: HeapQueue::new(),
        keyed,
        lane_seq: [0; LANES as usize],
    };
    let mut payload = 0u64;
    let mut engaged = false;
    for &op in ops {
        match op {
            QueueOp::Schedule { at, burst } => {
                for _ in 0..burst {
                    q.schedule(SimTime::from_ticks(at), payload);
                    payload += 1;
                }
            }
            QueueOp::ScheduleBatch { at, burst } => {
                // Same-tick pairs inside the batch stress FIFO ties.
                let batch: Vec<(SimTime, u64)> = (0..burst)
                    .map(|j| {
                        let ev = payload + j as u64;
                        (SimTime::from_ticks(at.saturating_add(j as u64 / 2)), ev)
                    })
                    .collect();
                payload += burst as u64;
                q.schedule_batch(&batch);
            }
            QueueOp::Pop { count } => {
                for _ in 0..count {
                    if q.pop().is_none() {
                        break;
                    }
                }
            }
            QueueOp::Clear => {
                q.ladder.clear();
                q.heap.clear();
                q.lane_seq = [0; LANES as usize];
            }
            QueueOp::Reset => {
                q.ladder.reset();
                q.heap.reset();
                q.lane_seq = [0; LANES as usize];
            }
        }
        assert_eq!(q.ladder.len(), q.heap.len());
        assert_eq!(q.ladder.peek_time(), q.heap.peek_time());
        assert_eq!(q.ladder.scheduled_total(), q.heap.scheduled_total());
        assert_eq!(q.ladder.peak_len(), q.heap.peak_len());
        engaged |= q.ladder.telemetry().engaged;
    }
    while q.pop().is_some() {}
    engaged
}

/// Decodes one op of the random differential. `kind` keeps two
/// schedule kinds to one pop (mean burst 6 in, mean pop 12 out), so the
/// depth has no drift and bursts carry the queue past the ladder's
/// engage threshold mid-stream. `extra` is a separate uniform byte that
/// rarely (1 op in 256) turns an op into `clear` or `reset`.
fn decode_op(kind: u8, extra: u8, at: u64, n: usize) -> QueueOp {
    match (kind, extra) {
        (2, 0) => QueueOp::Reset,
        (_, 0) => QueueOp::Clear,
        (0, _) => QueueOp::Schedule { at, burst: n },
        (1, _) => QueueOp::ScheduleBatch { at, burst: n },
        _ => QueueOp::Pop { count: n * 2 },
    }
}

/// Draws a tick from the seeded differential's time distribution.
fn seeded_at(rng: &mut SimRng) -> u64 {
    match rng.index(6) {
        0 => rng.int_range(0, 64),
        1 => rng.int_range(0, 5_000),
        2 => rng.int_range(100_000, 1_000_000),
        3 => u64::MAX - 1,
        4 => u64::MAX,
        _ => rng.int_range(0, 1_000),
    }
}

/// Fixed-seed differential workload generator: a small, fast op mix
/// (12 seeds, each unkeyed and keyed) that miri can afford, heavy on
/// same-tick bursts and extreme times.
#[test]
fn ladder_matches_heap_seeded_differential() {
    for seed in 0..12u64 {
        let mut rng = SimRng::new(seed * 7 + 1);
        let mut ops = Vec::new();
        for _ in 0..rng.int_range(20, 200) {
            let at = seeded_at(&mut rng);
            let burst = rng.int_range(1, 12) as usize;
            ops.push(match rng.index(3) {
                0 => QueueOp::Schedule { at, burst },
                1 => QueueOp::ScheduleBatch { at, burst },
                _ => QueueOp::Pop {
                    count: rng.int_range(1, 20) as usize,
                },
            });
        }
        run_differential(&ops, false);
        run_differential(&ops, true);
    }
}

/// A dense, large seeded workload that reliably pushes the ladder
/// through engage → spill → re-engage cycles before draining.
#[test]
fn ladder_matches_heap_seeded_hold_model() {
    let mut rng = SimRng::new(0xD15C);
    let mut ops = Vec::new();
    for round in 0..40 {
        ops.push(QueueOp::Schedule {
            at: rng.int_range(0, 2_000) + round * 500,
            burst: 40,
        });
        ops.push(QueueOp::Pop { count: 25 });
    }
    ops.push(QueueOp::Pop { count: usize::MAX });
    assert!(run_differential(&ops, true), "the ladder never engaged");
}

/// Differential oracle: any interleaving of `schedule`,
/// `schedule_batch`, `pop`, `clear` and `reset` — same-tick bursts,
/// `SimTime::MAX`, and `u64::MAX - 1` included — produces the exact
/// `(at, seq, event)` stream from the adaptive ladder that the
/// reference binary heap produces, with the queues' own counters and
/// with lane-packed keys. Either way the queue must pass the ladder's
/// engage threshold in at least 1 case in 10, or the bucketed tiers go
/// unfuzzed mid-stream.
#[test]
fn ladder_matches_heap_differential() {
    const CASES: usize = 256;
    for keyed in [false, true] {
        let mut engaged = 0;
        let name = format!("ladder_matches_heap_differential keyed={keyed}");
        cases(&name, CASES, |rng| {
            let ops: Vec<QueueOp> = (0..rng.int_range(1, 149))
                .map(|_| {
                    let kind = rng.index(3) as u8;
                    let extra = rng.index(256) as u8;
                    let at = match rng.index(5) {
                        0 => rng.int_range(0, 63),
                        1 => rng.int_range(0, 4_999),
                        2 => rng.int_range(100_000, 999_999),
                        3 => u64::MAX - 1,
                        _ => u64::MAX,
                    };
                    let n = rng.int_range(1, 11) as usize;
                    decode_op(kind, extra, at, n)
                })
                .collect();
            engaged += usize::from(run_differential(&ops, keyed));
        });
        assert!(
            engaged * 10 >= CASES,
            "keyed={keyed}: ladder engaged in {engaged}/{CASES} cases"
        );
    }
}

/// The queue is a stable priority queue: pops come out sorted by time,
/// and equal-time events preserve insertion order.
#[test]
fn event_queue_is_stable_priority_queue() {
    cases("event_queue_is_stable_priority_queue", 256, |rng| {
        let times: Vec<u64> = (0..rng.int_range(1, 199))
            .map(|_| rng.int_range(0, 999))
            .collect();
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_ticks(t), i);
        }
        let mut popped: Vec<(SimTime, usize)> = Vec::new();
        while let Some(ev) = q.pop() {
            popped.push((ev.at, ev.event));
        }
        assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            assert!(w[0].0 <= w[1].0, "time order violated");
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1, "FIFO tie-break violated");
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
        let mut e = Engine::new();
        for &t in &times {
            e.queue_mut().schedule(SimTime::from_ticks(t), t);
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
