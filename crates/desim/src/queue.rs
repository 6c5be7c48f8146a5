//! The future-event list.
//!
//! [`EventQueue`] is an adaptive two-tier **ladder queue** (bucketed
//! near-future tier + unsorted far-future overflow) with O(1) amortized
//! `schedule_keyed`/`pop` and automatic bucket-width adaptation.
//! Payloads wait in a slab, so every tier moves 32-byte `(key, slot)`
//! entries whatever the payload's size.
//!
//! The caller owns the order: every event carries a caller-supplied
//! `(at, seq)` key, and the queue delivers in ascending key order —
//! nondecreasing time, ascending `seq` among same-tick ties. Below the
//! engage threshold, or under [`QueueDiscipline::Heap`], the queue is a
//! plain packed-key binary heap, so the discipline can never change a
//! simulation result. The ladder keeps that order structurally: every
//! routing decision partitions events into *disjoint key ranges* (front
//! ⊂ [0, front_bound) ∪ buckets ∪ overflow ⊂ [window_end, ∞)), and every
//! comparison at a range boundary uses the full packed key, so bucket
//! geometry (a pure performance knob) is invisible to delivery order.
//! The tests check it against a binary-heap oracle.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event together with its delivery time and the tie-breaking
/// sequence number it was scheduled under.
#[derive(Debug, Clone)]
pub struct ScheduledEvent<E> {
    /// Simulated delivery time.
    pub at: SimTime,
    /// The caller-supplied tie-break key; same-tick events are delivered
    /// in ascending `seq`.
    pub seq: u64,
    /// The model-defined event payload.
    pub event: E,
}

impl<E> ScheduledEvent<E> {
    #[inline]
    fn from_key(key: u128, event: E) -> Self {
        ScheduledEvent {
            at: unpack_at(key),
            seq: key as u64,
            event,
        }
    }
}

/// A payload's slab slot ordered by `(at, seq)` packed into one `u128`,
/// so hot comparisons (heap sift, bucket sort, range routing) compare a
/// single integer instead of a lexicographic tuple. 32 bytes (`u128` is
/// 16-byte aligned).
///
/// `key = (at << 64) | seq`: because both halves are unsigned and occupy
/// disjoint bit ranges, numeric order on `key` equals lexicographic order
/// on `(at, seq)`. The caller keeps keys unique, so the order is total
/// and unstable sorts are safe.
struct Entry {
    key: u128,
    slot: usize,
}

#[inline]
fn pack(at: SimTime, seq: u64) -> u128 {
    ((at.ticks() as u128) << 64) | seq as u128
}

#[inline]
fn unpack_at(key: u128) -> SimTime {
    SimTime::from_ticks((key >> 64) as u64)
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: smallest key is the heap maximum.
        other.key.cmp(&self.key)
    }
}

/// Which structure backs an [`EventQueue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueDiscipline {
    /// The adaptive ladder: buckets once the population reaches the
    /// engage threshold, heap below it. The default.
    #[default]
    Adaptive,
    /// Force the packed-key binary heap for every event. Used by
    /// `perfbench` to measure the ladder against the heap on the *same*
    /// simulation (reports are bit-identical either way).
    Heap,
}

/// Per-queue telemetry counters. Zeroed by [`EventQueue::reset`] (they
/// describe one run); geometry fields (`bucket_count`, `bucket_width`)
/// report the retained warm-start hint even right after a reset.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueueTelemetry {
    /// Times the ladder engaged (population crossed the threshold).
    pub engagements: u64,
    /// Geometry recomputations that changed the bucket width or count.
    pub resizes: u64,
    /// Overflow redistributions (far tier → near tier).
    pub spills: u64,
    /// Inserts that landed in the front heap while the ladder was engaged
    /// (events due before the end of the active bucket).
    pub front_inserts: u64,
    /// Current near-tier bucket count (warm-start geometry hint).
    pub bucket_count: usize,
    /// Current near-tier bucket width in ticks (warm-start geometry hint).
    pub bucket_width: u64,
    /// Largest single-bucket occupancy observed since the last reset.
    pub max_bucket_occupancy: usize,
}

/// Pending events before the ladder pays for itself; below this the queue
/// is a plain binary heap (which wins on small populations).
const ENGAGE_LEN: usize = 128;
/// Target mean events per bucket; the bucket count is chosen so the
/// population at window-build time averages this occupancy.
const TARGET_PER_BUCKET: usize = 8;
/// Near-tier size bounds (power of two).
const MIN_BUCKETS: usize = 16;
const MAX_BUCKETS: usize = 4096;
/// Per-bucket capacity kept across [`EventQueue::reset`]; anything above
/// this (a spill artifact) is released so pooled queues don't retain a
/// run's peak memory.
const RESET_BUCKET_RETAIN: usize = 4 * TARGET_PER_BUCKET;

/// Is `key` inside the half-open range ending at `bound`?
/// `u128::MAX` denotes an unbounded range (so an event at
/// `(SimTime::MAX, u64::MAX)` — key `u128::MAX` — can never be stranded
/// beyond every bound).
#[inline]
fn below(key: u128, bound: u128) -> bool {
    bound == u128::MAX || key < bound
}

/// A deterministic future-event list (adaptive ladder queue).
///
/// Events are delivered in ascending caller-supplied `(at, seq)` key
/// order, whatever order they were scheduled in. This total order is
/// what makes every simulation run reproducible; a plain binary heap
/// delivers the same order.
///
/// # Structure
///
/// ```text
///            ┌ front: BinaryHeap — keys < front_bound (incl. heap mode)
/// near tier ─┤ active: sorted Vec — the bucket being drained
///            └ buckets[cursor..]: unsorted Vecs, width ticks each
/// far tier  ── overflow: unsorted Vec — keys ≥ window_end
/// slab      ── payloads, at the slot each tier entry names
/// ```
///
/// `schedule_keyed` writes the payload into a free slab slot once and
/// routes its `(key, slot)` entry by key range: O(1) push for
/// bucket/overflow hits, O(log f) for the (small) front heap. `pop`
/// takes the smaller of `front`'s top and `active`'s tail and moves the
/// payload out of its slot; when both drain it activates the next
/// non-empty bucket (one `sort_unstable` per bucket) or rebuilds the
/// window from the overflow, re-deriving the bucket width from the
/// observed span/population.
///
/// Skew needs no special case: when a far outlier stretches the width so
/// the active bucket swallows the near-term traffic, that traffic rides
/// the front heap at the plain heap's cost plus one key comparison per
/// pop.
pub struct EventQueue<E> {
    // --- counters ---
    peak_len: usize,
    len: usize,

    // --- payloads ---
    /// Every pending payload, at its entry's slot; `None` marks a free
    /// slot. Emptied by `reset`.
    slab: Vec<Option<E>>,
    /// Free slots, reused last-freed first (the warmest in cache).
    free: Vec<usize>,

    // --- tiers ---
    /// Min-heap of everything due before `front_bound`; in heap mode (not
    /// engaged, or forced) it simply holds every event.
    front: BinaryHeap<Entry>,
    /// The activated bucket, sorted descending by key (pop from the back).
    active: Vec<Entry>,
    /// Near-tier buckets; bucket `i` covers
    /// `[window_start + i*width, window_start + (i+1)*width)`.
    buckets: Vec<Vec<Entry>>,
    /// Far tier: unsorted events with keys ≥ `window_end_bound`.
    overflow: Vec<Entry>,

    // --- geometry ---
    /// First key *not* routed to the front heap (exclusive bound).
    front_bound: u128,
    /// First bucket not yet activated.
    cursor: usize,
    window_start: u64,
    /// Bucket width in ticks (≥ 1 once engaged); survives `reset` as the
    /// warm-start hint for the next engagement.
    width: u64,
    /// First key beyond the near tier (exclusive; `u128::MAX` = unbounded).
    window_end_bound: u128,

    // --- mode ---
    discipline: QueueDiscipline,
    engaged: bool,

    telemetry: QueueTelemetry,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the default (adaptive) discipline.
    pub fn new() -> Self {
        EventQueue {
            peak_len: 0,
            len: 0,
            slab: Vec::new(),
            free: Vec::new(),
            front: BinaryHeap::new(),
            active: Vec::new(),
            buckets: Vec::new(),
            overflow: Vec::new(),
            front_bound: 0,
            cursor: 0,
            window_start: 0,
            width: 0,
            window_end_bound: 0,
            discipline: QueueDiscipline::Adaptive,
            engaged: false,
            telemetry: QueueTelemetry::default(),
        }
    }

    /// Creates an empty queue with a fixed discipline.
    pub fn with_discipline(discipline: QueueDiscipline) -> Self {
        let mut q = Self::new();
        q.discipline = discipline;
        q
    }

    /// Changes the backing discipline. Only valid while the queue is
    /// empty (e.g. right after [`EventQueue::reset`], which is how the
    /// simulation template applies it to pooled queues).
    pub fn set_discipline(&mut self, discipline: QueueDiscipline) {
        assert!(self.is_empty(), "discipline can only change while empty");
        self.discipline = discipline;
    }

    /// Schedules `event` for delivery at absolute time `at`, ordered
    /// among same-tick events by the caller-supplied `seq`.
    ///
    /// The key is the only ordering contract: when `seq` is a pure
    /// function of the scheduling site (the simulator packs
    /// `(lane, per-lane counter)`), the delivery order does not depend on
    /// insertion order, so independently scheduled partitions reproduce
    /// the sequential order exactly. The caller must keep `(at, seq)`
    /// pairs unique for the order to be total.
    pub fn schedule_keyed(&mut self, at: SimTime, seq: u64, event: E) {
        self.len += 1;
        if self.len > self.peak_len {
            self.peak_len = self.len;
        }
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot] = Some(event);
                slot
            }
            None => {
                self.slab.push(Some(event));
                self.slab.len() - 1
            }
        };
        let entry = Entry {
            key: pack(at, seq),
            slot,
        };
        if self.engaged {
            self.route(entry);
        } else {
            self.front.push(entry);
            if self.discipline == QueueDiscipline::Adaptive && self.front.len() >= ENGAGE_LEN {
                self.engage();
            }
        }
    }

    /// Reserves capacity for at least `additional` more events: in the
    /// slab, and in the tier that absorbs scheduling bursts (the front
    /// heap before the ladder engages, the overflow after).
    pub fn reserve(&mut self, additional: usize) {
        self.slab.reserve(additional);
        if self.engaged {
            self.overflow.reserve(additional);
        } else {
            self.front.reserve(additional);
        }
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        // The settled invariant (kept by `schedule_keyed`/`pop`/`engage`):
        // if the queue is non-empty, its minimum is `front`'s top or
        // `active`'s tail. Both tiers hold keys below `front_bound`, so
        // one full-key comparison picks the minimum.
        let from_active = match (self.front.peek(), self.active.last()) {
            (None, None) => return None,
            (Some(_), None) => false,
            (None, Some(_)) => true,
            (Some(f), Some(a)) => a.key < f.key,
        };
        let entry = if from_active {
            self.active.pop()
        } else {
            self.front.pop()
        }?;
        self.len -= 1;
        if self.engaged {
            self.settle();
        }
        let event = self.slab[entry.slot].take()?;
        self.free.push(entry.slot);
        Some(ScheduledEvent::from_key(entry.key, event))
    }

    /// The earliest pending entry (see the settled invariant in `pop`).
    #[inline]
    fn head(&self) -> Option<&Entry> {
        match (self.front.peek(), self.active.last()) {
            (Some(f), Some(a)) => Some(if a.key < f.key { a } else { f }),
            (f, a) => f.or(a),
        }
    }

    /// The delivery time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.head().map(|e| unpack_at(e.key))
    }

    /// The earliest pending event without removing it: its delivery
    /// time, sequence number and payload (borrowed from its slot) — what
    /// [`EventQueue::pop`] would return next.
    pub fn peek(&self) -> Option<(SimTime, u64, &E)> {
        let e = self.head()?;
        let event = self.slab[e.slot].as_ref()?;
        Some((unpack_at(e.key), e.key as u64, event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The largest number of simultaneously pending events seen so far —
    /// the capacity a future run of the same model actually needs.
    /// Survives [`EventQueue::reset`] so recycled queues keep the hint.
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// Telemetry counters for the current run, plus the current geometry.
    pub fn telemetry(&self) -> QueueTelemetry {
        QueueTelemetry {
            bucket_count: self.buckets.len(),
            bucket_width: self.width,
            ..self.telemetry
        }
    }

    /// Empties the queue and zeroes the telemetry counters, retaining
    /// allocations up to a *bounded* warm-start footprint plus the
    /// geometry hints ([`EventQueue::peak_len`], the bucket width). This
    /// is the recycle entry point: a reset queue behaves exactly like a
    /// freshly constructed one — only faster, because the next run
    /// starts with last run's capacity and geometry.
    ///
    /// Bounded retention: an overflow-tier spill redistributes the far
    /// tier across the buckets, so after a spill-heavy run the bucket and
    /// active tiers can each hold run-peak-sized allocations — unbounded
    /// retention would pin a million-node run's peak memory across every
    /// pooled replay. `reset` therefore shrinks each bucket (and the
    /// active tier) to `RESET_BUCKET_RETAIN` entries, drops the overflow
    /// allocation, and caps the front heap and the slab at the engage
    /// threshold. Callers that want a warm start re-reserve via
    /// [`EventQueue::reserve`] with the retained [`EventQueue::peak_len`]
    /// hint, which restores capacity in the slab and in the one tier that
    /// absorbs the next run's scheduling burst.
    pub fn reset(&mut self) {
        self.front.clear();
        self.active.clear();
        self.overflow.clear();
        self.slab.clear();
        self.free.clear();
        self.len = 0;
        self.disengage();
        self.telemetry = QueueTelemetry::default();
        for b in &mut self.buckets {
            b.clear();
            b.shrink_to(RESET_BUCKET_RETAIN);
        }
        self.active.shrink_to(RESET_BUCKET_RETAIN);
        self.overflow.shrink_to(0);
        self.front.shrink_to(ENGAGE_LEN);
        self.slab.shrink_to(ENGAGE_LEN);
        self.free.shrink_to(ENGAGE_LEN);
    }

    /// Leaves engaged mode with empty tiers, retaining `width` (and the
    /// bucket allocations) as the warm-start hint for the next engage.
    fn disengage(&mut self) {
        self.engaged = false;
        self.cursor = 0;
        self.front_bound = 0;
        self.window_end_bound = 0;
    }

    // --- ladder internals -------------------------------------------------

    /// Routes one entry by key range while engaged. Ranges are disjoint
    /// and every bucket index reachable here is ≥ `cursor`, so no event
    /// can land behind the drain point.
    #[inline]
    fn route(&mut self, entry: Entry) {
        if below(entry.key, self.front_bound) {
            self.telemetry.front_inserts += 1;
            self.front.push(entry);
        } else if below(entry.key, self.window_end_bound) {
            self.push_bucket(entry);
        } else {
            self.overflow.push(entry);
        }
    }

    #[inline]
    fn push_bucket(&mut self, entry: Entry) {
        let at = unpack_at(entry.key).ticks();
        let idx = (((at - self.window_start) / self.width) as usize).min(self.buckets.len() - 1);
        let bucket = &mut self.buckets[idx];
        bucket.push(entry);
        if bucket.len() > self.telemetry.max_bucket_occupancy {
            self.telemetry.max_bucket_occupancy = bucket.len();
        }
    }

    /// First engagement: drain the front heap into a fresh window. Uses
    /// the retained width hint when one exists (warm start across
    /// [`EventQueue::reset`]); otherwise derives the width from the
    /// drained population.
    fn engage(&mut self) {
        let drained = std::mem::take(&mut self.front).into_vec();
        self.telemetry.engagements += 1;
        self.engaged = true;
        self.build_window(drained, self.width);
        self.settle();
    }

    /// Rebuilds the near-tier window from `events` (all pending events at
    /// or beyond the new window start — `front` and `active` are empty
    /// here). Geometry adapts to the observed population: the bucket
    /// count tracks its size, the width its time span, so the window
    /// covers every event it is built from (capture is total — a rebuild
    /// can never thrash) at ~[`TARGET_PER_BUCKET`] events per bucket on
    /// average. A non-zero `width_hint` (the warm-start geometry retained
    /// across [`EventQueue::reset`]) overrides the width; events it fails
    /// to cover spill to the overflow and are re-windowed span-based on
    /// the next rebuild, so a stale hint self-heals after one extra pass.
    fn build_window(&mut self, events: Vec<Entry>, width_hint: u64) {
        debug_assert!(!events.is_empty());
        let mut min_key = u128::MAX;
        let mut max_at = 0u64;
        for e in &events {
            min_key = min_key.min(e.key);
            max_at = max_at.max(unpack_at(e.key).ticks());
        }
        let min_at = unpack_at(min_key).ticks();
        let count = events.len();
        let n_buckets = (count / TARGET_PER_BUCKET)
            .next_power_of_two()
            .clamp(MIN_BUCKETS, MAX_BUCKETS);
        let width = if width_hint != 0 {
            width_hint
        } else {
            // Strictly covers [min_at, max_at]: n_buckets · width > span.
            (max_at - min_at) / n_buckets as u64 + 1
        };
        if width != self.width || n_buckets != self.buckets.len() {
            self.telemetry.resizes += 1;
        }
        self.width = width;
        self.window_start = min_at;
        self.buckets.resize_with(n_buckets, Vec::new);
        self.window_end_bound = match width
            .checked_mul(n_buckets as u64)
            .and_then(|span| min_at.checked_add(span))
        {
            Some(end) => (end as u128) << 64,
            None => u128::MAX,
        };
        self.cursor = 0;
        self.front_bound = (min_at as u128) << 64;
        for entry in events {
            debug_assert!(!below(entry.key, self.front_bound));
            if below(entry.key, self.window_end_bound) {
                self.push_bucket(entry);
            } else {
                self.overflow.push(entry);
            }
        }
        // The minimum event is always captured (bucket 0 covers at least
        // [min_at, min_at + 1)), so the caller's settle loop activates a
        // bucket right away — a rebuild always makes progress.
    }

    /// Restores the settled invariant after a pop (or window rebuild):
    /// activate buckets / respill the overflow until the ladder's minimum
    /// is reachable at the front or active tier, or the ladder empties.
    fn settle(&mut self) {
        while self.front.is_empty() && self.active.is_empty() {
            while self.cursor < self.buckets.len() && self.buckets[self.cursor].is_empty() {
                self.cursor += 1;
            }
            if self.cursor < self.buckets.len() {
                self.activate(self.cursor);
            } else if !self.overflow.is_empty() {
                self.telemetry.spills += 1;
                let overflow = std::mem::take(&mut self.overflow);
                // Recompute the geometry from the far tier's distribution
                // (the warm hint is only trusted at engage time).
                self.build_window(overflow, 0);
            } else {
                debug_assert_eq!(self.len, 0);
                self.disengage();
                return;
            }
        }
    }

    /// Makes bucket `i` the active (sorted, drain-from-back) tier and
    /// extends the front region over its key range, so later same-range
    /// schedules go to the front heap and stay correctly ordered.
    fn activate(&mut self, i: usize) {
        std::mem::swap(&mut self.active, &mut self.buckets[i]);
        self.active
            .sort_unstable_by_key(|e| std::cmp::Reverse(e.key));
        self.cursor = i + 1;
        self.front_bound = if i + 1 == self.buckets.len() {
            self.window_end_bound
        } else {
            match ((i + 1) as u64)
                .checked_mul(self.width)
                .and_then(|off| self.window_start.checked_add(off))
            {
                Some(end) => (end as u128) << 64,
                None => self.window_end_bound,
            }
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{cases, SimRng};
    use std::cmp::Reverse;
    use std::fmt::Debug;

    fn t(x: u64) -> SimTime {
        SimTime::from_ticks(x)
    }

    /// The plain binary-heap future-event list: the oracle the ladder's
    /// delivery order is checked against. Keyed like the queue, and
    /// ordered by `Reverse` on the raw key rather than by `Entry`'s `Ord`.
    struct HeapQueue<E> {
        heap: BinaryHeap<Reverse<(u128, usize)>>,
        payloads: Vec<Option<E>>,
    }

    impl<E> HeapQueue<E> {
        fn new() -> Self {
            HeapQueue {
                heap: BinaryHeap::new(),
                payloads: Vec::new(),
            }
        }

        fn schedule_keyed(&mut self, at: SimTime, seq: u64, event: E) {
            self.heap
                .push(Reverse((pack(at, seq), self.payloads.len())));
            self.payloads.push(Some(event));
        }

        fn pop(&mut self) -> Option<ScheduledEvent<E>> {
            let Reverse((key, i)) = self.heap.pop()?;
            Some(ScheduledEvent::from_key(key, self.payloads[i].take()?))
        }
    }

    impl<E> EventQueue<E> {
        /// Total entry capacity retained across every tier and the slab —
        /// the queue's idle memory footprint in events.
        fn retained_capacity(&self) -> usize {
            self.slab.capacity()
                + self.front.capacity()
                + self.active.capacity()
                + self.overflow.capacity()
                + self.buckets.iter().map(Vec::capacity).sum::<usize>()
        }
    }

    /// Drains a queue into `(at, seq, event)` tuples.
    fn drain<E>(q: &mut EventQueue<E>) -> Vec<(SimTime, u64, E)> {
        std::iter::from_fn(|| q.pop().map(|e| (e.at, e.seq, e.event))).collect()
    }

    /// Drains the ladder and the oracle side by side, asserting identical
    /// `(at, seq, event)` streams.
    fn assert_matches_oracle<E: PartialEq + Debug>(q: &mut EventQueue<E>, h: &mut HeapQueue<E>) {
        loop {
            match (q.pop(), h.pop()) {
                (None, None) => break,
                (Some(a), Some(b)) => {
                    assert_eq!((a.at, a.seq, a.event), (b.at, b.seq, b.event));
                }
                (a, b) => panic!("queues diverged in length: ladder={a:?} heap={b:?}"),
            }
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_keyed(t(30), 0, "c");
        q.schedule_keyed(t(10), 1, "a");
        q.schedule_keyed(t(20), 2, "b");
        assert_eq!(q.pop().unwrap().event, "a");
        assert_eq!(q.pop().unwrap().event, "b");
        assert_eq!(q.pop().unwrap().event, "c");
        assert!(q.pop().is_none());
    }

    /// Time comes first; same-tick events follow their keys, not the
    /// order they were scheduled in.
    #[test]
    fn interleaved_ties_and_times() {
        let mut q = EventQueue::new();
        q.schedule_keyed(t(2), 1, "x2");
        q.schedule_keyed(t(1), 0, "a");
        q.schedule_keyed(t(2), 0, "x1");
        q.schedule_keyed(t(1), 1, "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, vec!["a", "b", "x1", "x2"]);
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.schedule_keyed(t(7), 0, ());
        assert_eq!(q.peek_time(), Some(t(7)));
        assert_eq!(q.len(), 1);
        q.pop();
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn packed_key_preserves_extreme_times_and_seqs() {
        let mut q = EventQueue::new();
        q.schedule_keyed(SimTime::MAX, u64::MAX, "last");
        q.schedule_keyed(t(0), 0, "first");
        q.schedule_keyed(t(u64::MAX - 1), u64::MAX, "penultimate");
        let a = q.pop().unwrap();
        assert_eq!((a.at, a.seq, a.event), (t(0), 0, "first"));
        let b = q.pop().unwrap();
        assert_eq!(
            (b.at, b.seq, b.event),
            (t(u64::MAX - 1), u64::MAX, "penultimate")
        );
        let c = q.pop().unwrap();
        assert_eq!((c.at, c.seq, c.event), (SimTime::MAX, u64::MAX, "last"));
    }

    #[test]
    fn pop_reports_sequence_numbers() {
        let mut q = EventQueue::new();
        q.schedule_keyed(t(9), 5, "x");
        q.schedule_keyed(t(4), 3, "y");
        assert_eq!(q.peek(), Some((t(4), 3, &"y")));
        assert_eq!(q.pop().unwrap().seq, 3, "y is due first");
        assert_eq!(q.pop().unwrap().seq, 5);
    }

    #[test]
    fn reset_recycles_like_new() {
        let mut q = EventQueue::new();
        for i in 0..50 {
            q.schedule_keyed(t(100 - i), i, i);
        }
        assert_eq!(q.peak_len(), 50);
        q.pop();
        q.reset();
        assert!(q.is_empty());
        assert_eq!(q.peak_len(), 50, "reset keeps the capacity hint");
        q.schedule_keyed(t(3), 0, 7u64);
        let ev = q.pop().unwrap();
        assert_eq!((ev.at, ev.seq, ev.event), (t(3), 0, 7u64));
    }

    #[test]
    fn reserve_only_grows_capacity() {
        let mut q: EventQueue<u8> = EventQueue::new();
        q.reserve(128);
        q.schedule_keyed(t(1), 0, 1);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().event, 1);
    }

    // --- ladder-specific coverage ----------------------------------------

    /// Pushes enough spread-out events to cross the engage threshold.
    fn engaged_queue() -> EventQueue<usize> {
        let mut q = EventQueue::new();
        for i in 0..4 * ENGAGE_LEN {
            q.schedule_keyed(t((i as u64 * 37) % 10_000), i as u64, i);
        }
        assert!(q.engaged, "ladder should have engaged");
        q
    }

    #[test]
    fn ladder_engages_and_orders_exactly_like_heap() {
        let mut q = engaged_queue();
        let mut h = HeapQueue::new();
        for i in 0..4 * ENGAGE_LEN {
            h.schedule_keyed(t((i as u64 * 37) % 10_000), i as u64, i);
        }
        let tele = q.telemetry();
        assert!(tele.engagements >= 1);
        assert!(tele.bucket_count >= MIN_BUCKETS);
        assert!(tele.bucket_width >= 1);
        assert_matches_oracle(&mut q, &mut h);
    }

    /// Hold-model workload: pop one, schedule one in the future. This
    /// exercises front-heap inserts (intra-active-bucket), bucket hits,
    /// and overflow spills in one run.
    #[test]
    fn ladder_hold_model_matches_heap() {
        let mut q = EventQueue::new();
        let mut h = HeapQueue::new();
        // Every payload is distinct, so it doubles as the key.
        let sched = |q: &mut EventQueue<u64>, h: &mut HeapQueue<u64>, at: u64, ev: u64| {
            q.schedule_keyed(t(at), ev, ev);
            h.schedule_keyed(t(at), ev, ev);
        };
        for i in 0..600u64 {
            sched(&mut q, &mut h, i * 11 % 4000, i);
        }
        let mut step = 0u64;
        loop {
            let (a, b) = (q.pop(), h.pop());
            match (&a, &b) {
                (None, None) => break,
                (Some(x), Some(y)) => {
                    assert_eq!((x.at, x.seq, x.event), (y.at, y.seq, y.event));
                }
                _ => panic!("queues diverged in length"),
            }
            let now = a.unwrap().at.ticks();
            step += 1;
            if step < 500 {
                // Mix of short (same active bucket), medium, and long hops.
                sched(&mut q, &mut h, now + 1 + step % 7, 10_000 + step);
                if step.is_multiple_of(3) {
                    sched(
                        &mut q,
                        &mut h,
                        now + 5_000 + step * 13 % 9_000,
                        20_000 + step,
                    );
                }
            }
        }
        assert!(q.telemetry().spills >= 1, "overflow tier never exercised");
    }

    /// Forced heap discipline never engages the ladder and produces the
    /// identical stream.
    #[test]
    fn heap_discipline_matches_adaptive() {
        let mut a = EventQueue::new();
        let mut b = EventQueue::with_discipline(QueueDiscipline::Heap);
        for i in 0..1000u64 {
            let at = t(i * 7919 % 5000);
            a.schedule_keyed(at, i, i);
            b.schedule_keyed(at, i, i);
        }
        assert!(a.engaged);
        assert!(!b.engaged);
        assert_eq!(b.telemetry().engagements, 0);
        assert_eq!(drain(&mut a), drain(&mut b));
    }

    /// An adversarially skewed population — one event at the far end of
    /// the time axis stretches the window so wide that the active bucket
    /// swallows all real traffic — keeps delivering in exact order: the
    /// near-term events ride the front heap.
    #[test]
    fn far_outlier_keeps_exact_order() {
        let mut q = EventQueue::new();
        let mut h = HeapQueue::new();
        // The far outlier goes in first so it is part of the engage-time
        // window build and blows up the bucket width.
        q.schedule_keyed(t(u64::MAX - 1), 0, 0u64);
        h.schedule_keyed(t(u64::MAX - 1), 0, 0u64);
        // Dense near-term traffic: after engagement every one of these
        // routes into the front heap (the active bucket covers a huge
        // span).
        for i in 1..6000u64 {
            let at = t(i % 911);
            q.schedule_keyed(at, i, i);
            h.schedule_keyed(at, i, i);
        }
        assert!(q.engaged);
        q.schedule_keyed(t(17), 999_999, 999_999);
        h.schedule_keyed(t(17), 999_999, 999_999);
        assert_matches_oracle(&mut q, &mut h);
    }

    /// Every tier moves `(key, slot)` entries of 32 bytes, whatever the
    /// payload's size.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn tier_entries_are_32_bytes() {
        assert_eq!(std::mem::size_of::<Entry>(), 32);
    }

    /// Every payload lives in the slab exactly as long as it is pending:
    /// through an engaged, spilling ladder each one pops exactly once,
    /// under its own key, and `reset` drops whatever is left.
    #[test]
    fn slab_payloads_pop_once_and_reset_drops_the_rest() {
        use std::rc::Rc;
        let n = 4 * ENGAGE_LEN as u64;
        // 32 late payloads go in mid-drain, into recycled slots.
        let payloads: Vec<Rc<u64>> = (0..n + 32).map(Rc::new).collect();
        // A fifth of the first wave and every late payload sit far out,
        // so the drain spills.
        let at_of = |i: u64| {
            if i >= n {
                t(2_000_000 + i)
            } else if i.is_multiple_of(5) {
                t(1_000_000 + i)
            } else {
                t(i * 37 % 10_000)
            }
        };
        let schedule = |q: &mut EventQueue<Rc<u64>>, i: u64| {
            q.schedule_keyed(at_of(i), i, Rc::clone(&payloads[i as usize]));
        };
        let released = || payloads.iter().all(|p| Rc::strong_count(p) == 1);

        let mut q = EventQueue::new();
        for i in 0..n {
            schedule(&mut q, i);
        }
        assert!(q.engaged);
        let mut popped = vec![0u32; payloads.len()];
        let (mut late, mut last) = (n, 0u128);
        while let Some(ev) = q.pop() {
            let i = *ev.event;
            assert_eq!((ev.at, ev.seq), (at_of(i), i), "payload under foreign key");
            assert!(pack(ev.at, ev.seq) >= last, "out of order");
            last = pack(ev.at, ev.seq);
            popped[i as usize] += 1;
            if late < n + 32 {
                schedule(&mut q, late);
                late += 1;
            }
        }
        assert!(q.telemetry().spills >= 1, "overflow tier never exercised");
        assert!(popped.iter().all(|&c| c == 1), "every payload pops once");
        assert!(released(), "a popped payload stayed in the slab");

        for i in 0..n {
            schedule(&mut q, i);
        }
        for _ in 0..ENGAGE_LEN {
            q.pop();
        }
        q.reset();
        assert!(released(), "reset must drop pending payloads");
    }

    /// `reset()` after resizes and overflow spills behaves exactly like a
    /// fresh queue — telemetry counters zero, and the bucket geometry
    /// survives as a warm-start hint.
    #[test]
    fn reset_after_spill_recycles_like_new() {
        let mut q = engaged_queue();
        while q.len() > 10 {
            q.pop();
        }
        // Push far-future mass to force at least one overflow spill.
        for i in 0..3 * ENGAGE_LEN {
            q.schedule_keyed(t(1_000_000 + (i as u64 * 97) % 50_000), i as u64, i);
        }
        while q.pop().is_some() {}
        let before = q.telemetry();
        assert!(before.spills >= 1, "no spill provoked: {before:?}");
        let hint_width = before.bucket_width;
        assert!(hint_width >= 1);

        q.reset();
        let after = q.telemetry();
        assert!(q.is_empty());
        assert_eq!(
            (
                after.engagements,
                after.resizes,
                after.spills,
                after.front_inserts
            ),
            (0, 0, 0, 0),
            "telemetry counters must zero on reset"
        );
        assert_eq!(after.max_bucket_occupancy, 0);
        assert_eq!(after.bucket_width, hint_width, "geometry hint retained");
        assert!(!q.engaged);

        // Replays the exact sequence a fresh queue would see.
        let mut fresh = EventQueue::new();
        for i in 0..3 * ENGAGE_LEN {
            let at = t(i as u64 * 37 % 10_000);
            q.schedule_keyed(at, i as u64, i);
            fresh.schedule_keyed(at, i as u64, i);
        }
        assert_eq!(drain(&mut q), drain(&mut fresh));
    }

    /// Keyed scheduling delivers in `(at, seq)` order regardless of
    /// insertion order, identically to the heap oracle — the property
    /// sharded simulation relies on.
    #[test]
    fn keyed_order_is_insertion_invariant() {
        // Two "lanes" with packed (lane << 40 | counter) keys, inserted in
        // two different interleavings, plus the heap oracle.
        let lane = |l: u64, c: u64| (l << 40) | c;
        let events = [
            (t(5), lane(1, 0), "b0"),
            (t(5), lane(0, 0), "a0"),
            (t(2), lane(1, 1), "b1"),
            (t(5), lane(0, 1), "a1"),
            (t(9), lane(2, 0), "c0"),
        ];
        let mut fwd = EventQueue::new();
        let mut rev = EventQueue::new();
        let mut heap = HeapQueue::new();
        for &(at, seq, ev) in &events {
            fwd.schedule_keyed(at, seq, ev);
        }
        for &(at, seq, ev) in events.iter().rev() {
            rev.schedule_keyed(at, seq, ev);
            heap.schedule_keyed(at, seq, ev);
        }
        let stream = drain(&mut fwd);
        assert_eq!(stream, drain(&mut rev));
        let heap_stream: Vec<_> =
            std::iter::from_fn(|| heap.pop().map(|e| (e.at, e.seq, e.event))).collect();
        assert_eq!(stream, heap_stream);
        assert_eq!(
            stream.iter().map(|&(_, _, e)| e).collect::<Vec<_>>(),
            vec!["b1", "a0", "a1", "b0", "c0"],
            "time first, then lane-packed seq"
        );
    }

    /// Keyed scheduling at scale matches the heap oracle through engage,
    /// bucket, and overflow routing.
    #[test]
    fn keyed_ladder_matches_heap_oracle() {
        let mut q = EventQueue::new();
        let mut h = HeapQueue::new();
        for i in 0..2000u64 {
            let lane = i % 7;
            let seq = (lane << 40) | (i / 7);
            let at = t(i * 37 % 10_000);
            q.schedule_keyed(at, seq, i);
            h.schedule_keyed(at, seq, i);
        }
        assert!(q.engaged);
        assert_matches_oracle(&mut q, &mut h);
    }

    /// After an overflow spill inflates the bucket tier, `reset()`
    /// releases the excess capacity (bounded retention) instead of
    /// pinning the run's peak memory across pooled replays.
    #[test]
    fn reset_releases_spill_capacity() {
        let mut q = EventQueue::new();
        // Engage with a compact near window, then dump a large far-future
        // mass on a single tick: the rebuild spills it all into one
        // bucket, which then holds a run-peak-sized allocation.
        for i in 0..2 * ENGAGE_LEN {
            q.schedule_keyed(t(i as u64 % 64), i as u64, i);
        }
        for i in 0..60_000 {
            q.schedule_keyed(t(1_000_000), i as u64, i);
        }
        while q.pop().is_some() {}
        assert!(q.telemetry().spills >= 1, "no spill provoked");
        let inflated = q.retained_capacity();
        assert!(
            inflated > 50_000,
            "spill should leave peak-sized capacity behind, got {inflated}"
        );

        q.reset();
        let retained = q.retained_capacity();
        assert!(
            retained < 8 * ENGAGE_LEN,
            "reset must release spill capacity, still retains {retained}"
        );
        assert_eq!(q.peak_len(), 60_000 + 2 * ENGAGE_LEN, "hint survives");
        // The warm-start reserve regrows the slab with the front heap.
        q.reserve(q.peak_len());
        assert!(q.retained_capacity() >= 2 * q.peak_len());

        // Still behaves exactly like a fresh queue after the shrink.
        let mut fresh = EventQueue::new();
        for i in 0..3 * ENGAGE_LEN {
            let at = t(i as u64 * 37 % 10_000);
            q.schedule_keyed(at, i as u64, i);
            fresh.schedule_keyed(at, i as u64, i);
        }
        assert_eq!(drain(&mut q), drain(&mut fresh));
    }

    /// Scheduling earlier than the active bucket (allowed by the API even
    /// though the engine never does it) still delivers in exact order.
    #[test]
    fn past_schedules_while_engaged_stay_ordered() {
        let mut q = engaged_queue();
        for _ in 0..50 {
            q.pop();
        }
        q.schedule_keyed(t(0), 999_999, 999_999);
        let ev = q.pop().unwrap();
        assert_eq!((ev.at, ev.event), (t(0), 999_999));
    }

    /// The oracle itself delivers ascending `(at, seq)` keys.
    #[test]
    fn heap_queue_basics() {
        let mut q = HeapQueue::new();
        q.schedule_keyed(t(5), 2, "c");
        q.schedule_keyed(t(1), 9, "a");
        q.schedule_keyed(t(5), 1, "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| (e.seq, e.event))).collect();
        assert_eq!(order, vec![(9, "a"), (1, "b"), (2, "c")]);
        assert!(q.pop().is_none());
    }

    #[test]
    fn discipline_round_trip() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert_eq!(q.discipline, QueueDiscipline::Adaptive);
        q.set_discipline(QueueDiscipline::Heap);
        assert_eq!(q.discipline, QueueDiscipline::Heap);
        q.schedule_keyed(t(1), 0, 1);
        q.pop();
        q.set_discipline(QueueDiscipline::Adaptive);
        assert_eq!(q.discipline, QueueDiscipline::Adaptive);
    }

    // --- seeded differentials against the heap oracle -------------------

    /// One step of the differential queue workload: schedule a same-tick
    /// burst or a ramp of same-tick pairs, schedule a ramp `delay` ticks
    /// after the last popped event (as a model schedules from its
    /// clock), pop, or reset. `at` mixes near times, a far band, and the
    /// representable extremes so the ladder's bucket routing, overflow
    /// tier, and saturating bound arithmetic all get exercised.
    #[derive(Debug, Clone, Copy)]
    enum QueueOp {
        Schedule { at: u64, burst: usize },
        Ramp { at: u64, burst: usize },
        After { delay: u64, burst: usize },
        Pop { count: usize },
        Reset,
    }

    /// Lanes of the differential harness; keys are
    /// `(lane << 40) | counter`, the simulator's layout.
    const LANES: u64 = 5;

    /// The adaptive ladder and the heap oracle, fed identically: every
    /// event is stamped with a lane-packed key, as the simulator does.
    struct Pair {
        ladder: EventQueue<u64>,
        heap: HeapQueue<u64>,
        lane_seq: [u64; LANES as usize],
        /// Events pending now, and the most ever pending (the ladder's
        /// `peak_len`, which survives `reset`).
        pending: usize,
        peak: usize,
        /// Time of the last popped event: the model's clock.
        now: u64,
    }

    impl Pair {
        fn schedule(&mut self, at: SimTime, ev: u64) {
            let lane = ev % LANES;
            let c = &mut self.lane_seq[lane as usize];
            *c += 1;
            let seq = (lane << 40) | *c;
            self.ladder.schedule_keyed(at, seq, ev);
            self.heap.schedule_keyed(at, seq, ev);
            self.pending += 1;
            self.peak = self.peak.max(self.pending);
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
                    self.pending -= 1;
                    self.now = x.at.ticks();
                    Some(x)
                }
                (a, b) => panic!("length divergence: ladder={a:?} heap={b:?}"),
            }
        }
    }

    /// Applies `ops` to both the adaptive ladder and the heap oracle,
    /// asserting the popped `(at, seq, event)` streams never diverge,
    /// then drains both to the end. Returns whether the bucketed near
    /// tier was live after any op.
    fn run_differential(ops: &[QueueOp]) -> bool {
        let mut q = Pair {
            ladder: EventQueue::new(),
            heap: HeapQueue::new(),
            lane_seq: [0; LANES as usize],
            pending: 0,
            peak: 0,
            now: 0,
        };
        let mut payload = 0u64;
        let mut engaged = false;
        for &op in ops {
            match op {
                QueueOp::Schedule { at, burst } => {
                    for _ in 0..burst {
                        q.schedule(t(at), payload);
                        payload += 1;
                    }
                }
                QueueOp::Ramp { at, burst } => {
                    q.ladder.reserve(burst);
                    for j in 0..burst {
                        q.schedule(t(at.saturating_add(j as u64 / 2)), payload);
                        payload += 1;
                    }
                }
                QueueOp::After { delay, burst } => {
                    for j in 0..burst as u64 {
                        q.schedule(t(q.now.saturating_add(delay + j)), payload);
                        payload += 1;
                    }
                }
                QueueOp::Pop { count } => {
                    for _ in 0..count {
                        if q.pop().is_none() {
                            break;
                        }
                    }
                }
                QueueOp::Reset => {
                    q.ladder.reset();
                    q.heap = HeapQueue::new();
                    q.lane_seq = [0; LANES as usize];
                    q.pending = 0;
                    q.now = 0;
                }
            }
            assert_eq!(q.ladder.len(), q.pending);
            assert_eq!(q.ladder.peak_len(), q.peak);
            assert_eq!(q.ladder.peek_time(), q.ladder.peek().map(|(at, _, _)| at));
            engaged |= q.ladder.engaged;
        }
        while q.pop().is_some() {}
        engaged
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
    /// (12 seeds) that miri can afford, heavy on same-tick bursts and
    /// extreme times.
    #[test]
    fn ladder_matches_heap_seeded_differential() {
        for seed in 0..12u64 {
            let mut rng = SimRng::new(seed * 7 + 1);
            let mut ops = Vec::new();
            for _ in 0..rng.int_range(20, 200) {
                let at = seeded_at(&mut rng);
                let burst = rng.int_range(1, 12) as usize;
                ops.push(match rng.index(4) {
                    0 => QueueOp::Schedule { at, burst },
                    1 => QueueOp::Ramp { at, burst },
                    2 => QueueOp::After {
                        delay: rng.int_range(1, 2_000),
                        burst,
                    },
                    _ => QueueOp::Pop {
                        count: rng.int_range(1, 20) as usize,
                    },
                });
            }
            run_differential(&ops);
        }
    }

    /// A dense, large seeded workload that reliably pushes the ladder
    /// through engage → spill → re-engage cycles before draining. Each
    /// round adds a ramp, then holds: pop one event, schedule one a
    /// random delay after it, as a model does from its clock.
    #[test]
    fn ladder_matches_heap_seeded_hold_model() {
        let mut rng = SimRng::new(0xD15C);
        let mut ops = Vec::new();
        for round in 0..40 {
            ops.push(QueueOp::Ramp {
                at: rng.int_range(0, 2_000) + round * 500,
                burst: 40,
            });
            for _ in 0..25 {
                ops.push(QueueOp::Pop { count: 1 });
                ops.push(QueueOp::After {
                    delay: rng.int_range(1, 1_000),
                    burst: 1,
                });
            }
        }
        ops.push(QueueOp::Pop { count: usize::MAX });
        assert!(run_differential(&ops), "the ladder never engaged");
    }

    /// Any interleaving of bursts, ramps, clock-relative ramps, pops and
    /// resets — same-tick bursts, `SimTime::MAX`, and `u64::MAX - 1`
    /// included — produces the exact `(at, seq, event)` stream from the
    /// adaptive ladder that the heap oracle produces. Ops keep three
    /// schedule kinds to one pop (mean burst 6 in, mean pop 18 out), so
    /// the depth has no drift and bursts carry the queue past the engage
    /// threshold mid-stream; 1 op in 256 is a reset. The queue must engage in at least 1 case in 10, or the
    /// bucketed tiers go unfuzzed mid-stream.
    #[test]
    fn ladder_matches_heap_differential() {
        const CASES: usize = 256;
        let mut engaged = 0;
        cases("ladder_matches_heap_differential", CASES, |rng| {
            // Half the cases leave out the representable extremes, whose
            // span stretches every bucket over the whole window.
            let arms = if rng.index(2) == 0 { 3 } else { 5 };
            let ops: Vec<QueueOp> = (0..rng.int_range(1, 149))
                .map(|_| {
                    let kind = rng.index(4);
                    let reset = rng.index(256) == 0;
                    let at = match rng.index(arms) {
                        0 => rng.int_range(0, 63),
                        1 => rng.int_range(0, 4_999),
                        2 => rng.int_range(100_000, 999_999),
                        3 => u64::MAX - 1,
                        _ => u64::MAX,
                    };
                    let delay = rng.int_range(1, 1_999);
                    let n = rng.int_range(1, 11) as usize;
                    match kind {
                        _ if reset => QueueOp::Reset,
                        0 => QueueOp::Schedule { at, burst: n },
                        1 => QueueOp::Ramp { at, burst: n },
                        2 => QueueOp::After { delay, burst: n },
                        _ => QueueOp::Pop { count: n * 3 },
                    }
                })
                .collect();
            engaged += usize::from(run_differential(&ops));
        });
        assert!(
            engaged * 10 >= CASES,
            "ladder engaged in {engaged}/{CASES} cases"
        );
    }
}
