//! The future-event-list facade every subsystem schedules through.
//!
//! [`Fel`] wraps the raw event queue with the two pieces of bookkeeping
//! the determinism contract needs:
//!
//! 1. **Per-lane sequence keys.** Every scheduled event is stamped with
//!    `(source lane << LANE_SHIFT) | per-lane counter`, a globally unique
//!    key that totally orders same-tick events. Because the key depends
//!    only on the emitting lane's own emission count — never on global
//!    interleaving — the sequential and sharded executions stamp *the
//!    same key on the same event*, which is what makes their event
//!    streams (and fingerprints) bit-identical.
//! 2. **Cross-shard routing.** Under the sharded executor, a
//!    [`GridEvent::Deliver`] whose destination node lives on a foreign
//!    shard is diverted into that shard's outbox (flushed at the next
//!    barrier) instead of the local queue. `Deliver` is the *only*
//!    cross-lane event the simulator emits, so the outbox check is a
//!    single match arm on the hot path.

use crate::event::GridEvent;
use gridscale_desim::{EventQueue, SimTime};
use std::sync::Arc;

/// Bits reserved for the per-lane emission counter in a sequence key;
/// the lane index occupies the bits above. 2⁴⁰ emissions per lane and
/// 2²⁴ lanes are both far beyond any configured run (the engine's event
/// budget trips first).
pub(crate) const LANE_SHIFT: u32 = 40;

/// Cross-shard routing state of one shard of the parallel executor.
pub(crate) struct ShardRoute {
    /// This shard's index.
    pub(crate) shard: u32,
    /// Node → owning shard (`u32::MAX` for pure routers). Derived from
    /// `Layout::node_lane` and the plan's lane→shard table, shared
    /// read-only by every shard.
    pub(crate) shard_of_node: Arc<Vec<u32>>,
    /// Outgoing cross-shard events, one buffer per destination shard
    /// (the own-shard slot stays empty). Flushed into the destination's
    /// inbox at the window barrier.
    pub(crate) outbox: Vec<Vec<(SimTime, u64, GridEvent)>>,
    /// Events diverted cross-shard (telemetry).
    pub(crate) crossings: u64,
}

/// The scheduling facade handed to every subsystem: stamps per-lane
/// sequence keys and, when sharded, diverts foreign deliveries.
pub(crate) struct Fel<'q> {
    pub(crate) queue: &'q mut EventQueue<GridEvent>,
    /// Lane → its emission counter (full-size in every mode; only owned
    /// lanes advance under sharding, so per-lane streams match the
    /// sequential run's).
    pub(crate) lane_seq: &'q mut [u64],
    /// Cross-shard routing, `None` in the sequential executor.
    pub(crate) route: Option<&'q mut ShardRoute>,
}

impl Fel<'_> {
    /// Schedules `ev` at `at`, stamped with `src_lane`'s next sequence
    /// key. `src_lane` must be the lane whose handler (or bootstrap
    /// slot) is emitting the event — the invariant the determinism
    /// argument rests on.
    pub(crate) fn schedule(&mut self, src_lane: usize, at: SimTime, ev: GridEvent) {
        let seq = self.take_key(src_lane);
        self.schedule_keyed(at, seq, ev);
    }

    /// Schedules `ev` at `at` under a key taken earlier with
    /// [`Fel::take_key`]: how a held tick or arrival
    /// ([`crate::frontier`]) enters the queue at the key the eager
    /// schedule would have given it.
    pub(crate) fn schedule_keyed(&mut self, at: SimTime, seq: u64, ev: GridEvent) {
        if let Some(route) = self.route.as_deref_mut() {
            if let GridEvent::Deliver { to, .. } = &ev {
                let dest = route.shard_of_node[*to as usize];
                debug_assert_ne!(dest, u32::MAX, "Deliver to a node outside every lane");
                if dest != route.shard {
                    route.crossings += 1;
                    route.outbox[dest as usize].push((at, seq, ev));
                    return;
                }
            }
        }
        self.queue.schedule_keyed(at, seq, ev);
    }

    /// `src_lane`'s next sequence key.
    #[inline]
    pub(crate) fn take_key(&mut self, src_lane: usize) -> u64 {
        take_key(self.lane_seq, src_lane)
    }
}

/// Advances `lane`'s emission counter in `lane_seq` and returns the
/// sequence key it stamps.
#[inline]
pub(crate) fn take_key(lane_seq: &mut [u64], lane: usize) -> u64 {
    lane_seq[lane] += 1;
    ((lane as u64) << LANE_SHIFT) | lane_seq[lane]
}
