//! The events a run holds outside the event queue, so the queue stays
//! at its frontier: events that must be ordered against other lanes'.
//!
//! * **Dormant status ticks.** A resource whose load is within
//!   `suppress_delta` of its last sent update can only have its next
//!   tick suppressed, and a suppressed tick reads and writes nothing but
//!   its own lane's state. Its tick waits in the lane's *ring* at the
//!   exact `(at, seq)` key the queue would have held, and is folded
//!   (delivered without the queue) before the lane's next queued event
//!   keyed above it — see `SimCore::fold_ticks`. A load change that
//!   would make the tick send *wakes* it: the tick moves to the queue at
//!   the key it already has.
//! * **Not-yet-due arrivals.** Each lane's listed trace arrivals are
//!   keyed at bootstrap, in trace order, but only the lane's next one is
//!   queued; handling it queues the one after.
//!
//! Every key is taken from its lane's counter exactly when the eager
//! schedule would have taken it, so delivery order, counters and
//! fingerprints are unchanged. DESIGN.md §3.1 gives the argument.

use crate::world::LaneScope;
use gridscale_desim::SimTime;
use std::collections::VecDeque;
use std::sync::Arc;

/// The `seq` of a resource whose pending tick waits in the event queue
/// (never a real key: per-lane counters start at 1).
pub(crate) const QUEUED: u64 = 0;

/// A held event: its `(at, seq)` key and its target — the global
/// resource id of a tick, the trace index of an arrival.
pub(crate) type Held = (SimTime, u64, u32);

/// Per-lane held ticks and arrival cursors, lane-scoped like the rest of
/// [`HotState`](crate::sim::HotState) and pooled with it.
pub(crate) struct Frontier {
    /// Global cluster id → local lane slot (shared scope table).
    cluster_local: Arc<Vec<u32>>,
    /// Local lane slot → global cluster id.
    pub(crate) lanes: Vec<u32>,
    /// Local lane → its dormant ticks in ascending key order. Entries of
    /// woken ticks stay behind and are skipped (their key no longer
    /// matches the resource's).
    pub(crate) ring: Vec<VecDeque<Held>>,
    /// Local resource → key of its pending tick, `seq` [`QUEUED`] while
    /// the tick waits in the event queue.
    pub(crate) tick: Vec<(SimTime, u64)>,
    /// Local lane → its listed arrivals in ascending key order.
    pub(crate) arrivals: Vec<Vec<Held>>,
    /// Local lane → index of its queued arrival in `arrivals`.
    cursor: Vec<usize>,
    /// Ticks folded this run (telemetry).
    pub(crate) folded: u64,
}

impl Frontier {
    pub(crate) fn new(scope: &LaneScope) -> Frontier {
        let nc = scope.clusters.len();
        Frontier {
            cluster_local: Arc::clone(&scope.cluster_local),
            lanes: scope.clusters.clone(),
            ring: (0..nc).map(|_| VecDeque::new()).collect(),
            tick: vec![(SimTime::ZERO, QUEUED); scope.resources.len()],
            arrivals: (0..nc).map(|_| Vec::new()).collect(),
            cursor: vec![0; nc],
            folded: 0,
        }
    }

    /// Local slot of global cluster lane `c`.
    #[inline(always)]
    pub(crate) fn local(&self, c: usize) -> usize {
        self.cluster_local[c] as usize
    }

    /// Restores the pristine post-`new` state, keeping allocations.
    pub(crate) fn reset(&mut self) {
        self.ring.iter_mut().for_each(VecDeque::clear);
        self.tick.fill((SimTime::ZERO, QUEUED));
        self.arrivals.iter_mut().for_each(Vec::clear);
        self.cursor.fill(0);
        self.folded = 0;
    }

    /// Sorts every lane's ring and arrival list once, after bootstrap:
    /// staggers are random and a trace need not be sorted by arrival.
    /// From then on both stay sorted by construction.
    pub(crate) fn sort(&mut self) {
        let key = |&(at, seq, _): &Held| (at, seq);
        for ring in &mut self.ring {
            ring.make_contiguous().sort_unstable_by_key(key);
        }
        for list in &mut self.arrivals {
            list.sort_unstable_by_key(key);
        }
    }

    /// Called when cluster lane `c` handles arrival `i`. If `i` is the
    /// lane's queued listed arrival, advances the lane's cursor and
    /// returns its next listed arrival, for the caller to queue. A
    /// released DAG child is never listed.
    pub(crate) fn next_arrival(&mut self, c: usize, i: u32) -> Option<Held> {
        let cl = self.local(c);
        let k = self.cursor[cl];
        let list = &self.arrivals[cl];
        if list.get(k).is_none_or(|&(.., j)| j != i) {
            return None;
        }
        self.cursor[cl] = k + 1;
        list.get(k + 1).copied()
    }

    /// Approximate resident bytes (capacity-based; telemetry only).
    pub(crate) fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        let mut b = self.ring.iter().map(VecDeque::capacity).sum::<usize>() * size_of::<Held>();
        b += self.arrivals.iter().map(Vec::capacity).sum::<usize>() * size_of::<Held>();
        b += self.tick.capacity() * size_of::<(SimTime, u64)>();
        b += (self.lanes.capacity() * 4) + self.cursor.capacity() * 8;
        b
    }
}
