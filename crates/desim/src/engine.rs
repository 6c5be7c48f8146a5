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

    /// Observes each event immediately before [`World::handle`] delivers
    /// it, together with the scheduling sequence number that orders
    /// same-timestamp events. Default: no-op.
    ///
    /// This is the hook behind event-stream fingerprinting: a model can
    /// fold `(at, seq, event)` into a running hash and compare it across
    /// replays — two runs that deliver the same events in the same order
    /// produce the same fingerprint regardless of queue discipline,
    /// pooling, or thread placement. Kept separate from `handle` so the
    /// observation provably cannot mutate scheduling state.
    fn observe(&mut self, _at: SimTime, _seq: u64, _event: &Self::Event) {}

    /// Called once when the run finishes (horizon reached or queue drained).
    /// Default: no-op. Models use this to close time-weighted statistics.
    fn finish(&mut self, _now: SimTime) {}
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

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    /// Creates an engine at time zero with an effectively unlimited event
    /// budget.
    pub fn new() -> Self {
        Engine {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            processed: 0,
            max_events: u64::MAX,
        }
    }

    /// Creates an engine around an existing queue — typically one recycled
    /// via [`EventQueue::reset`] so its heap allocation survives across
    /// runs. The clock and counters start from zero as in [`Engine::new`].
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

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
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
    /// The loop peeks before every pop to check the horizon without
    /// consuming the event — the queue keeps its minimum surfaced (the
    /// ladder's *settled* invariant), so `peek_time` stays O(1) and this
    /// costs nothing over a pop-and-push-back scheme.
    pub fn run_until<W>(&mut self, world: &mut W, horizon: SimTime) -> RunOutcome
    where
        W: World<Event = E>,
    {
        let outcome = loop {
            let Some(at) = self.queue.peek_time() else {
                break RunOutcome::Drained;
            };
            if at > horizon {
                break RunOutcome::HorizonReached;
            }
            if self.processed >= self.max_events {
                break RunOutcome::EventBudgetExhausted;
            }
            #[expect(clippy::expect_used, reason = "peek_time just returned Some")]
            let ev = self
                .queue
                .pop()
                .expect("event vanished between peek and pop");
            debug_assert!(ev.at >= self.now, "event queue must be time-ordered");
            self.now = ev.at;
            self.processed += 1;
            world.observe(ev.at, ev.seq, &ev.event);
            world.handle(self.now, ev.event, &mut self.queue);
        };
        let end = match outcome {
            RunOutcome::HorizonReached => horizon,
            _ => self.now,
        };
        self.now = end;
        world.finish(end);
        outcome
    }

    /// Runs until the queue drains (or the event budget is exhausted).
    pub fn run_to_completion<W>(&mut self, world: &mut W) -> RunOutcome
    where
        W: World<Event = E>,
    {
        self.run_until(world, SimTime::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Counter {
        fired: Vec<u64>,
        finished_at: Option<SimTime>,
        respawn: bool,
    }

    impl World for Counter {
        type Event = u64;
        fn handle(&mut self, now: SimTime, ev: u64, q: &mut EventQueue<u64>) {
            self.fired.push(ev);
            if self.respawn {
                q.schedule(now + SimTime::from_ticks(10), ev + 1);
            }
        }
        fn finish(&mut self, now: SimTime) {
            self.finished_at = Some(now);
        }
    }

    fn world(respawn: bool) -> Counter {
        Counter {
            fired: vec![],
            finished_at: None,
            respawn,
        }
    }

    #[test]
    fn drains_when_no_respawn() {
        let mut w = world(false);
        let mut e = Engine::new();
        e.queue_mut().schedule(SimTime::from_ticks(5), 1);
        e.queue_mut().schedule(SimTime::from_ticks(2), 0);
        let outcome = e.run_until(&mut w, SimTime::from_ticks(100));
        assert_eq!(outcome, RunOutcome::Drained);
        assert_eq!(w.fired, vec![0, 1]);
        assert_eq!(e.now(), SimTime::from_ticks(5), "clock stops at last event");
        assert_eq!(e.processed(), 2);
    }

    #[test]
    fn horizon_stops_infinite_chain() {
        let mut w = world(true);
        let mut e = Engine::new();
        e.queue_mut().schedule(SimTime::ZERO, 0);
        let outcome = e.run_until(&mut w, SimTime::from_ticks(35));
        assert_eq!(outcome, RunOutcome::HorizonReached);
        // Events at t = 0, 10, 20, 30 fire; t = 40 is pending.
        assert_eq!(w.fired, vec![0, 1, 2, 3]);
        assert_eq!(e.queue().len(), 1);
        assert_eq!(
            e.now(),
            SimTime::from_ticks(35),
            "clock advances to horizon"
        );
        assert_eq!(w.finished_at, Some(SimTime::from_ticks(35)));
    }

    #[test]
    fn event_exactly_at_horizon_is_processed() {
        let mut w = world(false);
        let mut e = Engine::new();
        e.queue_mut().schedule(SimTime::from_ticks(50), 9);
        e.run_until(&mut w, SimTime::from_ticks(50));
        assert_eq!(w.fired, vec![9]);
    }

    #[test]
    fn event_budget_guard() {
        let mut w = world(true);
        let mut e = Engine::new().with_event_budget(5);
        e.queue_mut().schedule(SimTime::ZERO, 0);
        let outcome = e.run_to_completion(&mut w);
        assert_eq!(outcome, RunOutcome::EventBudgetExhausted);
        assert_eq!(w.fired.len(), 5);
    }

    #[test]
    fn finish_called_on_drain() {
        let mut w = world(false);
        let mut e = Engine::new();
        e.queue_mut().schedule(SimTime::from_ticks(3), 1);
        e.run_to_completion(&mut w);
        assert_eq!(w.finished_at, Some(SimTime::from_ticks(3)));
    }

    #[test]
    fn recycled_queue_runs_identically() {
        let run = |mut e: Engine<u64>| -> (Vec<u64>, EventQueue<u64>) {
            let mut w = world(false);
            e.queue_mut().schedule(SimTime::from_ticks(5), 1);
            e.queue_mut().schedule(SimTime::from_ticks(2), 0);
            e.run_until(&mut w, SimTime::from_ticks(100));
            (w.fired, e.into_queue())
        };
        let (fresh, q) = run(Engine::new());
        let mut q = q;
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
            fn observe(&mut self, at: SimTime, seq: u64, ev: &u64) {
                self.seen.push((at, seq, *ev));
            }
        }
        let mut w = Spy { seen: vec![] };
        let mut e = Engine::new();
        // Two same-timestamp events: seq must break the tie in FIFO order.
        e.queue_mut().schedule(SimTime::from_ticks(7), 10);
        e.queue_mut().schedule(SimTime::from_ticks(7), 11);
        e.queue_mut().schedule(SimTime::from_ticks(2), 12);
        e.run_to_completion(&mut w);
        assert_eq!(
            w.seen,
            vec![
                (SimTime::from_ticks(2), 2, 12),
                (SimTime::from_ticks(7), 0, 10),
                (SimTime::from_ticks(7), 1, 11),
            ]
        );
    }

    #[test]
    fn empty_queue_finishes_immediately() {
        let mut w = world(false);
        let mut e: Engine<u64> = Engine::new();
        let outcome = e.run_until(&mut w, SimTime::from_ticks(10));
        assert_eq!(outcome, RunOutcome::Drained);
        assert!(w.fired.is_empty());
        assert_eq!(w.finished_at, Some(SimTime::ZERO));
    }
}
