//! # gridscale-desim
//!
//! A deterministic discrete-event simulation (DES) kernel.
//!
//! This crate is the substrate on which the gridscale Grid simulator is
//! built. The paper this repository reproduces (Mitra, Maheswaran, Ali,
//! *Measuring Scalability of Resource Management Systems*, IPDPS 2005) wrote
//! its simulator in Parsec, a parallel simulation language. Parsec is used
//! there purely as a sequential-semantics DES engine, so this kernel is a
//! faithful substitute: a time-ordered event queue, logical processes, and a
//! seeded random-number layer. Unlike Parsec, every run here is a pure
//! function of `(model, seed)`: the model stamps every event with an
//! `(at, seq)` key, the queue delivers in key order, and ties in event
//! time therefore break the same way on every run, so results are
//! bit-for-bit reproducible.
//!
//! ## Architecture
//!
//! * [`SimTime`] — discrete simulation clock (integer ticks).
//! * [`EventQueue`] — adaptive two-tier ladder future-event list that
//!   delivers in ascending caller-supplied `(at, seq)` key order: O(1)
//!   amortized schedule/pop via time buckets, a far-future overflow tier
//!   and self-tuning bucket geometry, over a payload slab so every tier
//!   moves 32-byte `(key, slot)` entries. Below the engage threshold, or
//!   when [`QueueDiscipline::Heap`] forces it, it is a packed-key binary
//!   heap with the identical delivery order.
//! * [`Engine`] / [`World`] — the driver loop: the engine pops the earliest
//!   event and hands it to the model, which may schedule more events. A
//!   model may hold events nothing else observes outside the queue and
//!   deliver them when it observes the queue's head ([`World::observe`]).
//! * [`SimRng`] — seeded xoshiro256** generator with the distributions
//!   the workload and topology layers need (exponential, log-normal,
//!   log-uniform, bounded Pareto), all in-crate: the workspace has no
//!   external dependency.
//! * [`stats`] — online statistics: Welford mean/variance and
//!   fixed-bin histograms.
//! * [`cases`] — the seeded case runner the property tests use.
//! * [`json`] — the std-only JSON writer for the records the program
//!   emits.
//!
//! ## Example
//!
//! ```
//! use gridscale_desim::{Engine, EventQueue, SimTime, World};
//!
//! /// Counts ping-pong exchanges until time 100. Each event it schedules
//! /// takes the next value of `seq` as its tie-break key.
//! struct PingPong { pings: u64, seq: u64 }
//!
//! #[derive(Debug, Clone, PartialEq, Eq)]
//! enum Ev { Ping, Pong }
//!
//! impl World for PingPong {
//!     type Event = Ev;
//!     fn handle(&mut self, now: SimTime, ev: Ev, q: &mut EventQueue<Ev>) {
//!         let (delay, next) = match ev {
//!             Ev::Ping => {
//!                 self.pings += 1;
//!                 (7, Ev::Pong)
//!             }
//!             Ev::Pong => (3, Ev::Ping),
//!         };
//!         self.seq += 1;
//!         q.schedule_keyed(now + SimTime::from_ticks(delay), self.seq, next);
//!     }
//! }
//!
//! let mut world = PingPong { pings: 0, seq: 0 };
//! let mut engine = Engine::from_queue(EventQueue::new());
//! engine.queue_mut().schedule_keyed(SimTime::ZERO, 0, Ev::Ping);
//! // Pings fire at t = 0, 10, 20, …, 100 — eleven in total.
//! engine.run_until(&mut world, SimTime::from_ticks(100));
//! assert_eq!(world.pings, 11);
//! ```

#![warn(missing_docs)]
// A panic mid-replay tears a sharded run down at a scheduling-dependent
// point, so each panic site left states its invariant in an `#[expect]`.
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

mod engine;
pub mod json;
mod queue;
mod rng;
pub mod stats;
mod time;

pub use engine::{Engine, RunOutcome, World};
pub use queue::{EventQueue, QueueDiscipline, QueueTelemetry, ScheduledEvent};
pub use rng::{cases, SimRng};
pub use time::SimTime;
