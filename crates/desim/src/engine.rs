//! The event-loop driver.

use crate::queue::EventQueue;
use crate::time::SimTime;

/// A simulation model.
///
/// The engine pops the earliest event from the queue and calls
/// [`World::handle`]; the model reacts by mutating its own state and
/// scheduling further events. This is the classic event-oriented DES
/// world-view (the same one the paper's Parsec model uses, minus Parsec's
/// optimistic parallelism, which the paper does not rely on).
pub trait World {
    /// The model-defined event payload type.
    type Event;

    /// Processes one event occurring at time `now`.
    fn handle(&mut self, now: SimTime, event: Self::Event, queue: &mut EventQueue<Self::Event>);

    /// Observes the queue's head — the event at `at` with the sequence
    /// number that orders same-timestamp events — before the engine
    /// delivers it. Default: no-op, returning 0.
    ///
    /// This is the hook behind event-stream fingerprinting: a model can
    /// fold `(at, seq, event)` into a running hash and compare it across
    /// replays — two runs that deliver the same events in the same order
    /// produce the same fingerprint regardless of queue discipline,
    /// pooling, or thread placement. Kept separate from `handle` so the
    /// observation provably cannot mutate scheduling state.
    ///
    /// A model may also hold events outside the queue: events whose
    /// delivery nothing else observes before the model's own next event
    /// does. Here it delivers those keyed below the head, at most
    /// `budget` of them (always ≥ 1), and returns how many. The engine
    /// counts them as processed. If they use up the budget the run stops
    /// before the head, which stays queued and must not count as
    /// observed.
    fn observe(&mut self, _at: SimTime, _seq: u64, _event: &Self::Event, _budget: u64) -> u64 {
        0
    }
}

/// Why a call to [`Engine::run_until`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The event queue drained before the horizon.
    Drained,
    /// The horizon was reached with events still pending.
    HorizonReached,
    /// The event budget (`max_events`) was exhausted — a runaway-model guard.
    EventBudgetExhausted,
}

/// The simulation engine: owns the clock and the future-event list.
pub struct Engine<E> {
    queue: EventQueue<E>,
    now: SimTime,
    processed: u64,
    max_events: u64,
}

impl<E> Engine<E> {
    /// Creates an engine at time zero around `queue` — a fresh one, or one
    /// recycled via [`EventQueue::reset`] so its allocations survive
    /// across runs — with an effectively unlimited event budget.
    pub fn from_queue(queue: EventQueue<E>) -> Self {
        Engine {
            queue,
            now: SimTime::ZERO,
            processed: 0,
            max_events: u64::MAX,
        }
    }

    /// Consumes the engine and returns its queue, so the caller can pool
    /// the allocation for a later [`Engine::from_queue`].
    pub fn into_queue(self) -> EventQueue<E> {
        self.queue
    }

    /// Caps the total number of events processed across the engine's
    /// lifetime. Exceeding the cap stops the run with
    /// [`RunOutcome::EventBudgetExhausted`] — a guard against models that
    /// schedule unboundedly (e.g. a zero-delay message loop).
    pub fn with_event_budget(mut self, max_events: u64) -> Self {
        self.max_events = max_events;
        self
    }

    /// Number of events processed so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Mutable access to the event queue, e.g. to seed initial events.
    pub fn queue_mut(&mut self) -> &mut EventQueue<E> {
        &mut self.queue
    }

    /// Shared access to the event queue.
    pub fn queue(&self) -> &EventQueue<E> {
        &self.queue
    }

    /// Runs until the queue drains, the clock passes `horizon`, or the event
    /// budget is exhausted. Events stamped exactly at `horizon` are still
    /// processed; later ones are left pending.
    ///
    /// The loop peeks before every pop to check the horizon and let the
    /// world observe the head without consuming it — the queue keeps its
    /// minimum surfaced (the ladder's *settled* invariant), so `peek`
    /// stays O(1) and this costs nothing over a pop-and-push-back scheme.
    /// Events the world delivers from outside the queue
    /// ([`World::observe`]) count against the budget like queued ones.
    pub fn run_until<W>(&mut self, world: &mut W, horizon: SimTime) -> RunOutcome
    where
        W: World<Event = E>,
    {
        let outcome = loop {
            let Some((at, seq, event)) = self.queue.peek() else {
                break RunOutcome::Drained;
            };
            if at > horizon {
                break RunOutcome::HorizonReached;
            }
            if self.processed >= self.max_events {
                break RunOutcome::EventBudgetExhausted;
            }
            self.processed += world.observe(at, seq, event, self.max_events - self.processed);
            if self.processed >= self.max_events {
                break RunOutcome::EventBudgetExhausted;
            }
            #[expect(clippy::expect_used, reason = "peek just returned Some")]
            let ev = self
                .queue
                .pop()
                .expect("event vanished between peek and pop");
            debug_assert!(ev.at >= self.now, "event queue must be time-ordered");
            self.now = ev.at;
            self.processed += 1;
            world.handle(self.now, ev.event, &mut self.queue);
        };
        if outcome == RunOutcome::HorizonReached {
            self.now = horizon;
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(x: u64) -> SimTime {
        SimTime::from_ticks(x)
    }

    fn engine() -> Engine<u64> {
        Engine::from_queue(EventQueue::new())
    }

    /// Records what fires; with `respawn`, every event schedules the next
    /// one 10 ticks later, keyed by its payload.
    struct Counter {
        fired: Vec<u64>,
        respawn: bool,
    }

    impl World for Counter {
        type Event = u64;
        fn handle(&mut self, now: SimTime, ev: u64, q: &mut EventQueue<u64>) {
            self.fired.push(ev);
            if self.respawn {
                q.schedule_keyed(now + t(10), ev + 1, ev + 1);
            }
        }
    }

    fn world(respawn: bool) -> Counter {
        Counter {
            fired: vec![],
            respawn,
        }
    }

    #[test]
    fn drains_when_no_respawn() {
        let mut w = world(false);
        let mut e = engine();
        e.queue_mut().schedule_keyed(t(5), 0, 1);
        e.queue_mut().schedule_keyed(t(2), 1, 0);
        let outcome = e.run_until(&mut w, t(100));
        assert_eq!(outcome, RunOutcome::Drained);
        assert_eq!(w.fired, vec![0, 1]);
        assert_eq!(e.now, t(5), "clock stops at last event");
        assert_eq!(e.processed(), 2);
    }

    #[test]
    fn horizon_stops_infinite_chain() {
        let mut w = world(true);
        let mut e = engine();
        e.queue_mut().schedule_keyed(SimTime::ZERO, 0, 0);
        let outcome = e.run_until(&mut w, t(35));
        assert_eq!(outcome, RunOutcome::HorizonReached);
        // Events at t = 0, 10, 20, 30 fire; t = 40 is pending.
        assert_eq!(w.fired, vec![0, 1, 2, 3]);
        assert_eq!(e.queue().len(), 1);
        assert_eq!(e.now, t(35), "clock advances to horizon");
    }

    #[test]
    fn event_exactly_at_horizon_is_processed() {
        let mut w = world(false);
        let mut e = engine();
        e.queue_mut().schedule_keyed(t(50), 0, 9);
        e.run_until(&mut w, t(50));
        assert_eq!(w.fired, vec![9]);
    }

    #[test]
    fn event_budget_guard() {
        let mut w = world(true);
        let mut e = engine().with_event_budget(5);
        e.queue_mut().schedule_keyed(SimTime::ZERO, 0, 0);
        let outcome = e.run_until(&mut w, SimTime::MAX);
        assert_eq!(outcome, RunOutcome::EventBudgetExhausted);
        assert_eq!(w.fired.len(), 5);
    }

    #[test]
    fn recycled_queue_runs_identically() {
        let run = |mut e: Engine<u64>| -> (Vec<u64>, EventQueue<u64>) {
            let mut w = world(false);
            e.queue_mut().schedule_keyed(t(5), 0, 1);
            e.queue_mut().schedule_keyed(t(2), 1, 0);
            e.run_until(&mut w, t(100));
            (w.fired, e.into_queue())
        };
        let (fresh, mut q) = run(engine());
        q.reset();
        let (recycled, _) = run(Engine::from_queue(q));
        assert_eq!(fresh, recycled);
    }

    #[test]
    fn observe_sees_every_delivery_in_order() {
        struct Spy {
            seen: Vec<(SimTime, u64, u64)>,
        }
        impl World for Spy {
            type Event = u64;
            fn handle(&mut self, _now: SimTime, _ev: u64, _q: &mut EventQueue<u64>) {}
            fn observe(&mut self, at: SimTime, seq: u64, ev: &u64, _budget: u64) -> u64 {
                self.seen.push((at, seq, *ev));
                0
            }
        }
        let mut w = Spy { seen: vec![] };
        let mut e = engine();
        // Two same-timestamp events: seq breaks the tie, not insertion
        // order.
        e.queue_mut().schedule_keyed(t(7), 4, 10);
        e.queue_mut().schedule_keyed(t(7), 3, 11);
        e.queue_mut().schedule_keyed(t(2), 5, 12);
        e.run_until(&mut w, SimTime::MAX);
        assert_eq!(w.seen, vec![(t(2), 5, 12), (t(7), 3, 11), (t(7), 4, 10)]);
    }

    /// Events a world delivers from outside the queue count against the
    /// budget: the run stops at exactly the budget, and a head whose
    /// held predecessors used it up stays queued.
    #[test]
    fn held_events_count_against_the_budget() {
        /// Holds two events before every queued one.
        struct Holder {
            handled: u64,
        }
        impl World for Holder {
            type Event = u64;
            fn handle(&mut self, now: SimTime, ev: u64, q: &mut EventQueue<u64>) {
                self.handled += 1;
                q.schedule_keyed(now + t(1), ev + 1, ev + 1);
            }
            fn observe(&mut self, _at: SimTime, _seq: u64, _ev: &u64, budget: u64) -> u64 {
                budget.min(2)
            }
        }
        let mut w = Holder { handled: 0 };
        let mut e = engine().with_event_budget(7);
        e.queue_mut().schedule_keyed(SimTime::ZERO, 0, 0);
        let outcome = e.run_until(&mut w, SimTime::MAX);
        assert_eq!(outcome, RunOutcome::EventBudgetExhausted);
        // 2 held + head, 2 held + head, then 1 held exhausts the budget.
        assert_eq!((e.processed(), w.handled), (7, 2));
        assert_eq!(e.queue().len(), 1);
    }

    #[test]
    fn empty_queue_finishes_immediately() {
        let mut w = world(false);
        let mut e = engine();
        let outcome = e.run_until(&mut w, t(10));
        assert_eq!(outcome, RunOutcome::Drained);
        assert!(w.fired.is_empty());
        assert_eq!(e.now, SimTime::ZERO);
    }
}
