//! The future-event list.
//!
//! Two implementations share one total delivery order:
//!
//! * [`EventQueue`] — the default: an adaptive two-tier **ladder queue**
//!   (bucketed near-future tier + unsorted far-future overflow) with O(1)
//!   amortized `schedule`/`pop`, automatic bucket-width adaptation, and a
//!   packed-key binary-heap fallback for distributions too skewed for
//!   buckets to pay off.
//! * [`HeapQueue`] — the plain packed-key binary heap (O(log n) sift per
//!   operation). It is the reference implementation the differential
//!   tests and `perfbench`'s queue comparison measure against, and the
//!   structure the ladder's fallback tier reuses.
//!
//! Both deliver events in ascending `(at, seq)` order — nondecreasing
//! time, FIFO among same-tick ties — so swapping one for the other can
//! never change a simulation result. The ladder keeps that guarantee
//! structurally: every routing decision partitions events into *disjoint
//! key ranges* (front ⊂ [0, front_bound) ∪ buckets ∪ overflow ⊂
//! [window_end, ∞)), and every comparison at a range boundary uses the
//! full packed key, so bucket geometry (a pure performance knob) is
//! invisible to delivery order.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event together with its delivery time and a tie-breaking sequence
/// number assigned at scheduling time.
#[derive(Debug, Clone)]
pub struct ScheduledEvent<E> {
    /// Simulated delivery time.
    pub at: SimTime,
    /// Monotonic insertion sequence; earlier-scheduled events at the same
    /// tick are delivered first.
    pub seq: u64,
    /// The model-defined event payload.
    pub event: E,
}

/// Entry with `(at, seq)` packed into one `u128` so hot comparisons (heap
/// sift, bucket sort, range routing) compare a single integer instead of
/// a lexicographic tuple.
///
/// `key = (at << 64) | seq`: because both halves are unsigned and occupy
/// disjoint bit ranges, numeric order on `key` equals lexicographic order
/// on `(at, seq)`. Keys are unique (`seq` is monotonic), so the order is
/// total and unstable sorts are safe.
struct Entry<E> {
    key: u128,
    event: E,
}

#[inline]
fn pack(at: SimTime, seq: u64) -> u128 {
    ((at.ticks() as u128) << 64) | seq as u128
}

#[inline]
fn unpack_at(key: u128) -> SimTime {
    SimTime::from_ticks((key >> 64) as u64)
}

impl<E> Entry<E> {
    #[inline]
    fn into_scheduled(self) -> ScheduledEvent<E> {
        ScheduledEvent {
            at: unpack_at(self.key),
            seq: self.key as u64,
            event: self.event,
        }
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: smallest key is the heap maximum.
        other.key.cmp(&self.key)
    }
}

/// Which structure backs an [`EventQueue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueDiscipline {
    /// The adaptive ladder: buckets when the population is large and
    /// well-spread, heap otherwise. The default.
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
    /// True while the bucketed near tier is live.
    pub engaged: bool,
    /// True when events are being routed to the heap tier exclusively —
    /// either forced by [`QueueDiscipline::Heap`] or latched by the skew
    /// heuristic.
    pub heap_fallback: bool,
    /// Times the ladder engaged (population crossed the threshold).
    pub engagements: u64,
    /// Geometry recomputations that changed the bucket width or count.
    pub resizes: u64,
    /// Overflow redistributions (far tier → near tier).
    pub spills: u64,
    /// Times the skew heuristic latched the heap fallback.
    pub fallback_activations: u64,
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
/// Skew check cadence: every this many routed events, measure which
/// fraction landed in the front heap (= before the active bucket's end).
const ROUTE_CHECK: u32 = 1024;
/// Consecutive front-dominated check windows (over 3/4 of routes landing
/// in the front heap — the buckets are not absorbing the traffic, e.g.
/// because one far outlier stretched the bucket width) before the heap
/// fallback latches for the rest of the run.
const SKEW_STRIKES: u32 = 3;
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
/// Events are delivered in nondecreasing time order; events scheduled for
/// the same tick are delivered in the order they were scheduled (FIFO).
/// This total order is what makes every simulation run reproducible, and
/// it is *identical* to [`HeapQueue`]'s order by construction.
///
/// # Structure
///
/// ```text
///            ┌ front: BinaryHeap — keys < front_bound (incl. heap mode)
/// near tier ─┤ active: sorted Vec — the bucket being drained
///            └ buckets[cursor..]: unsorted Vecs, width ticks each
/// far tier  ── overflow: unsorted Vec — keys ≥ window_end
/// ```
///
/// `schedule` routes by key range: O(1) push for bucket/overflow hits,
/// O(log f) for the (small) front heap. `pop` takes the smaller of
/// `front`'s top and `active`'s tail; when both drain it activates the next non-empty bucket (one `sort_unstable`
/// per bucket) or rebuilds the window from the overflow, re-deriving the
/// bucket width from the observed span/population. Workloads whose
/// spills repeatedly capture almost nothing (pathologically skewed
/// distributions) latch the heap fallback instead of thrashing.
pub struct EventQueue<E> {
    // --- counters ---
    next_seq: u64,
    scheduled_total: u64,
    peak_len: usize,
    len: usize,

    // --- tiers ---
    /// Min-heap of everything due before `front_bound`; in heap mode (not
    /// engaged, forced, or latched) it simply holds every event.
    front: BinaryHeap<Entry<E>>,
    /// The activated bucket, sorted descending by key (pop from the back).
    active: Vec<Entry<E>>,
    /// Near-tier buckets; bucket `i` covers
    /// `[window_start + i*width, window_start + (i+1)*width)`.
    buckets: Vec<Vec<Entry<E>>>,
    /// Far tier: unsorted events with keys ≥ `window_end_bound`.
    overflow: Vec<Entry<E>>,

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
    /// Skew heuristic latched the heap fallback (survives `reset` as a
    /// learned property of the workload; cleared by `set_discipline`).
    skew_latched: bool,
    skew_strikes: u32,
    routed_since_check: u32,
    front_since_check: u32,

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
        Self::with_capacity(0)
    }

    /// Creates an empty queue with pre-reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            next_seq: 0,
            scheduled_total: 0,
            peak_len: 0,
            len: 0,
            front: BinaryHeap::with_capacity(cap),
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
            skew_latched: false,
            skew_strikes: 0,
            routed_since_check: 0,
            front_since_check: 0,
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
    /// simulation template applies it to pooled queues). Clears any
    /// latched skew fallback, so the new discipline starts clean.
    pub fn set_discipline(&mut self, discipline: QueueDiscipline) {
        assert!(self.is_empty(), "discipline can only change while empty");
        self.discipline = discipline;
        self.skew_latched = false;
    }

    /// The current backing discipline.
    pub fn discipline(&self) -> QueueDiscipline {
        self.discipline
    }

    /// True when every event is currently routed through the heap tier
    /// (forced discipline or latched skew fallback).
    #[inline]
    fn heap_mode(&self) -> bool {
        self.skew_latched || self.discipline == QueueDiscipline::Heap
    }

    /// Schedules `event` for delivery at absolute time `at`.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.insert(Entry {
            key: pack(at, seq),
            event,
        });
    }

    /// Schedules `event` with a *caller-supplied* tie-break sequence
    /// instead of the internal monotonic counter.
    ///
    /// This is the primitive behind sharded simulation: when `seq` is a
    /// pure function of the scheduling site (e.g. packed
    /// `(lane, per-lane counter)`), the total `(at, seq)` delivery order
    /// no longer depends on global insertion order, so independently
    /// scheduled partitions reproduce the sequential order exactly.
    ///
    /// The caller must keep `(at, seq)` pairs unique for the order to be
    /// total; a run should use either keyed or unkeyed scheduling, never
    /// both (the internal counter is not advanced here).
    pub fn schedule_keyed(&mut self, at: SimTime, seq: u64, event: E) {
        debug_assert_eq!(
            self.next_seq, 0,
            "keyed and unkeyed scheduling must not mix within one run"
        );
        self.insert(Entry {
            key: pack(at, seq),
            event,
        });
    }

    /// Schedules a batch of keyed events (see
    /// [`EventQueue::schedule_keyed`]), reserving capacity up front.
    pub fn schedule_batch_keyed<I>(&mut self, events: I)
    where
        I: IntoIterator<Item = (SimTime, u64, E)>,
    {
        let events = events.into_iter();
        let (lower, _) = events.size_hint();
        self.reserve(lower);
        for (at, seq, event) in events {
            self.schedule_keyed(at, seq, event);
        }
    }

    /// Common insert path: counts, then routes by mode.
    #[inline]
    fn insert(&mut self, entry: Entry<E>) {
        self.scheduled_total += 1;
        self.len += 1;
        if self.len > self.peak_len {
            self.peak_len = self.len;
        }
        if self.engaged {
            self.route(entry);
        } else {
            self.front.push(entry);
            if !self.heap_mode() && self.front.len() >= ENGAGE_LEN {
                self.engage();
            }
        }
    }

    /// Schedules a batch of events, reserving capacity for all of them up
    /// front. Delivery order within the batch follows iteration order (the
    /// usual FIFO tie-break), exactly as if each was scheduled one by one.
    pub fn schedule_batch<I>(&mut self, events: I)
    where
        I: IntoIterator<Item = (SimTime, E)>,
    {
        let events = events.into_iter();
        let (lower, _) = events.size_hint();
        self.reserve(lower);
        for (at, event) in events {
            self.schedule(at, event);
        }
    }

    /// Reserves capacity for at least `additional` more events (in the
    /// tier that absorbs scheduling bursts: the front heap before the
    /// ladder engages, the overflow after).
    pub fn reserve(&mut self, additional: usize) {
        if self.engaged {
            self.overflow.reserve(additional);
        } else {
            self.front.reserve(additional);
        }
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        // The settled invariant (kept by `schedule`/`pop`/`engage`): if
        // the queue is non-empty, its minimum is `front`'s top or
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
        Some(entry.into_scheduled())
    }

    /// The earliest pending entry (see the settled invariant in `pop`).
    #[inline]
    fn head(&self) -> Option<&Entry<E>> {
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
    /// time, sequence number and payload — what [`EventQueue::pop`]
    /// would return next.
    pub fn peek(&self) -> Option<(SimTime, u64, &E)> {
        self.head()
            .map(|e| (unpack_at(e.key), e.key as u64, &e.event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of events ever scheduled on this queue.
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }

    /// The largest number of simultaneously pending events seen so far —
    /// the capacity a future run of the same model actually needs (a much
    /// tighter pre-reserve hint than [`EventQueue::scheduled_total`]).
    /// Survives [`EventQueue::reset`] so recycled queues keep the hint.
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// Telemetry counters for the current run, plus the current geometry.
    pub fn telemetry(&self) -> QueueTelemetry {
        QueueTelemetry {
            engaged: self.engaged,
            heap_fallback: self.heap_mode(),
            bucket_count: self.buckets.len(),
            bucket_width: self.width,
            ..self.telemetry
        }
    }

    /// Drops all pending events and restarts the tie-break sequence, so a
    /// cleared queue is *ordering-equivalent* to a fresh one: the next
    /// same-tick burst gets the same FIFO order either way. Lifetime
    /// counters ([`EventQueue::scheduled_total`], telemetry) are retained;
    /// use [`EventQueue::reset`] to zero those too.
    pub fn clear(&mut self) {
        self.drop_pending();
        // Safe to rewind with nothing pending; keeping it advanced (as
        // this method once did) would break same-tick FIFO equivalence
        // with a fresh queue.
        self.next_seq = 0;
    }

    /// Empties the queue and resets the sequence, schedule, and telemetry
    /// counters, retaining allocations up to a *bounded* warm-start
    /// footprint plus the geometry hints ([`EventQueue::peak_len`], the
    /// bucket width, the latched fallback). This is the recycle entry
    /// point: a reset queue behaves exactly like a freshly constructed
    /// one — only faster, because the next run starts with last run's
    /// capacity and geometry.
    ///
    /// Bounded retention: an overflow-tier spill redistributes the far
    /// tier across the buckets, so after a spill-heavy run the bucket and
    /// active tiers can each hold run-peak-sized allocations — unbounded
    /// retention would pin a million-node run's peak memory across every
    /// pooled replay. `reset` therefore shrinks each bucket (and the
    /// active tier) to `RESET_BUCKET_RETAIN` entries, drops the overflow
    /// allocation, and caps the front heap at the engage threshold.
    /// Callers that want a warm start re-reserve via
    /// [`EventQueue::reserve`] with the retained [`EventQueue::peak_len`]
    /// hint, which restores capacity in the one tier that absorbs the
    /// next run's scheduling burst.
    pub fn reset(&mut self) {
        self.drop_pending();
        self.next_seq = 0;
        self.scheduled_total = 0;
        self.telemetry = QueueTelemetry::default();
        for b in &mut self.buckets {
            b.shrink_to(RESET_BUCKET_RETAIN);
        }
        self.active.shrink_to(RESET_BUCKET_RETAIN);
        self.overflow.shrink_to(0);
        self.front.shrink_to(ENGAGE_LEN);
    }

    /// Total entry capacity currently retained across every tier — the
    /// queue's idle memory footprint in events. Exposed so pooling layers
    /// (and the bounded-retention test) can observe what `reset` keeps.
    pub fn retained_capacity(&self) -> usize {
        self.front.capacity()
            + self.active.capacity()
            + self.overflow.capacity()
            + self.buckets.iter().map(Vec::capacity).sum::<usize>()
    }

    /// Drops pending events from every tier, disengaging the ladder but
    /// keeping allocations, geometry, and the skew latch.
    fn drop_pending(&mut self) {
        self.front.clear();
        self.active.clear();
        for b in &mut self.buckets {
            b.clear();
        }
        self.overflow.clear();
        self.len = 0;
        self.disengage();
    }

    /// Leaves engaged mode with empty tiers, retaining `width` (and the
    /// bucket allocations) as the warm-start hint for the next engage.
    fn disengage(&mut self) {
        self.engaged = false;
        self.cursor = 0;
        self.front_bound = 0;
        self.window_end_bound = 0;
        self.skew_strikes = 0;
        self.routed_since_check = 0;
        self.front_since_check = 0;
    }

    // --- ladder internals -------------------------------------------------

    /// Routes one entry by key range while engaged. Ranges are disjoint
    /// and every bucket index reachable here is ≥ `cursor`, so no event
    /// can land behind the drain point.
    #[inline]
    fn route(&mut self, entry: Entry<E>) {
        if below(entry.key, self.front_bound) {
            self.telemetry.front_inserts += 1;
            self.front_since_check += 1;
            self.front.push(entry);
        } else if below(entry.key, self.window_end_bound) {
            self.push_bucket(entry);
        } else {
            self.overflow.push(entry);
        }
        self.routed_since_check += 1;
        if self.routed_since_check == ROUTE_CHECK {
            self.check_skew();
        }
    }

    /// The skew heuristic: if over 3/4 of the last [`ROUTE_CHECK`] routed
    /// events landed in the front heap, the buckets are not absorbing the
    /// traffic (the active bucket's range swallows nearly every new
    /// event, typically because a far outlier stretched the width). After
    /// [`SKEW_STRIKES`] consecutive such windows, latch the heap fallback
    /// — the front heap was doing all the work anyway.
    fn check_skew(&mut self) {
        let front_dominated = self.front_since_check * 4 > ROUTE_CHECK * 3;
        self.routed_since_check = 0;
        self.front_since_check = 0;
        if front_dominated {
            self.skew_strikes += 1;
            if self.skew_strikes >= SKEW_STRIKES {
                self.latch_fallback();
            }
        } else {
            self.skew_strikes = 0;
        }
    }

    #[inline]
    fn push_bucket(&mut self, entry: Entry<E>) {
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
    fn build_window(&mut self, events: Vec<Entry<E>>, width_hint: u64) {
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

    /// The skew heuristic gives up on buckets: move everything into the
    /// front heap and stay there until the queue is recycled.
    fn latch_fallback(&mut self) {
        let mut all = std::mem::take(&mut self.front).into_vec();
        all.append(&mut self.active);
        for b in &mut self.buckets {
            all.append(b);
        }
        all.append(&mut self.overflow);
        self.front = BinaryHeap::from(all);
        self.skew_latched = true;
        self.telemetry.fallback_activations += 1;
        self.disengage();
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

/// The packed-key binary-heap future-event list — `EventQueue`'s
/// pre-ladder implementation, kept as the reference oracle.
///
/// Delivery order is exactly [`EventQueue`]'s: ascending `(at, seq)`.
/// The seeded differential properties replay random schedules against
/// both and assert identical `(at, seq, event)` streams.
pub struct HeapQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    scheduled_total: u64,
    peak_len: usize,
}

impl<E> Default for HeapQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> HeapQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue with pre-reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        HeapQueue {
            heap: BinaryHeap::with_capacity(cap),
            next_seq: 0,
            scheduled_total: 0,
            peak_len: 0,
        }
    }

    /// Schedules `event` for delivery at absolute time `at`.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled_total += 1;
        self.heap.push(Entry {
            key: pack(at, seq),
            event,
        });
        if self.heap.len() > self.peak_len {
            self.peak_len = self.heap.len();
        }
    }

    /// Schedules a batch of events (iteration order = FIFO tie-break).
    pub fn schedule_batch<I>(&mut self, events: I)
    where
        I: IntoIterator<Item = (SimTime, E)>,
    {
        let events = events.into_iter();
        let (lower, _) = events.size_hint();
        self.heap.reserve(lower);
        for (at, event) in events {
            self.schedule(at, event);
        }
    }

    /// Schedules with a caller-supplied tie-break sequence (reference
    /// counterpart of [`EventQueue::schedule_keyed`]; same uniqueness and
    /// no-mixing contract).
    pub fn schedule_keyed(&mut self, at: SimTime, seq: u64, event: E) {
        debug_assert_eq!(
            self.next_seq, 0,
            "keyed and unkeyed scheduling must not mix within one run"
        );
        self.scheduled_total += 1;
        self.heap.push(Entry {
            key: pack(at, seq),
            event,
        });
        if self.heap.len() > self.peak_len {
            self.peak_len = self.heap.len();
        }
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        self.heap.pop().map(Entry::into_scheduled)
    }

    /// The delivery time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| unpack_at(e.key))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of events ever scheduled on this queue.
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }

    /// Largest number of simultaneously pending events seen so far.
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// Drops all pending events and restarts the tie-break sequence
    /// (ordering-equivalent to a fresh queue; same contract as
    /// [`EventQueue::clear`]).
    pub fn clear(&mut self) {
        self.heap.clear();
        self.next_seq = 0;
    }

    /// Empties the queue and resets all counters, retaining allocations.
    pub fn reset(&mut self) {
        self.heap.clear();
        self.next_seq = 0;
        self.scheduled_total = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(x: u64) -> SimTime {
        SimTime::from_ticks(x)
    }

    /// Drains a queue into `(at, seq, event)` tuples.
    fn drain<E>(q: &mut EventQueue<E>) -> Vec<(SimTime, u64, E)> {
        std::iter::from_fn(|| q.pop().map(|e| (e.at, e.seq, e.event))).collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(30), "c");
        q.schedule(t(10), "a");
        q.schedule(t(20), "b");
        assert_eq!(q.pop().unwrap().event, "a");
        assert_eq!(q.pop().unwrap().event, "b");
        assert_eq!(q.pop().unwrap().event, "c");
        assert!(q.pop().is_none());
    }

    #[test]
    fn ties_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(5), i);
        }
        for i in 0..100 {
            let ev = q.pop().unwrap();
            assert_eq!(ev.event, i);
            assert_eq!(ev.at, t(5));
        }
    }

    #[test]
    fn interleaved_ties_and_times() {
        let mut q = EventQueue::new();
        q.schedule(t(2), "x1");
        q.schedule(t(1), "a");
        q.schedule(t(2), "x2");
        q.schedule(t(1), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, vec!["a", "b", "x1", "x2"]);
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.schedule(t(7), ());
        assert_eq!(q.peek_time(), Some(t(7)));
        assert_eq!(q.len(), 1);
        q.pop();
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn counters_and_clear() {
        let mut q = EventQueue::with_capacity(4);
        assert!(q.is_empty());
        q.schedule(t(1), 1u8);
        q.schedule(t(2), 2u8);
        assert_eq!(q.len(), 2);
        assert_eq!(q.scheduled_total(), 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.scheduled_total(), 2, "clear keeps the lifetime counter");
    }

    /// Satellite fix: a cleared queue must tie-break exactly like a fresh
    /// one — `clear()` rewinds the sequence counter now that nothing is
    /// pending, so same-tick FIFO streams are identical.
    #[test]
    fn clear_is_ordering_equivalent_to_fresh() {
        let mut cleared = EventQueue::new();
        for i in 0..40 {
            cleared.schedule(t(i), "warm");
        }
        cleared.pop();
        cleared.clear();
        let mut fresh = EventQueue::new();
        let burst = [(t(5), "a"), (t(5), "b"), (t(3), "c"), (t(5), "d")];
        cleared.schedule_batch(burst.iter().copied());
        fresh.schedule_batch(burst.iter().copied());
        assert_eq!(drain(&mut cleared), drain(&mut fresh));
        assert_eq!(cleared.scheduled_total(), 44, "lifetime counter retained");
    }

    #[test]
    fn packed_key_preserves_extreme_times_and_seqs() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::MAX, "last");
        q.schedule(t(0), "first");
        q.schedule(t(u64::MAX - 1), "penultimate");
        let a = q.pop().unwrap();
        assert_eq!((a.at, a.event), (t(0), "first"));
        let b = q.pop().unwrap();
        assert_eq!((b.at, b.event), (t(u64::MAX - 1), "penultimate"));
        let c = q.pop().unwrap();
        assert_eq!((c.at, c.event), (SimTime::MAX, "last"));
    }

    #[test]
    fn pop_reports_sequence_numbers() {
        let mut q = EventQueue::new();
        q.schedule(t(9), "x");
        q.schedule(t(4), "y");
        assert_eq!(q.pop().unwrap().seq, 1, "y was scheduled second");
        assert_eq!(q.pop().unwrap().seq, 0);
    }

    #[test]
    fn schedule_batch_matches_individual_schedules() {
        let mut a = EventQueue::new();
        let mut b = EventQueue::new();
        let events = [(t(5), "e5"), (t(1), "e1"), (t(5), "e5b")];
        for &(at, ev) in &events {
            a.schedule(at, ev);
        }
        b.schedule_batch(events.iter().copied());
        assert_eq!(drain(&mut a), drain(&mut b));
        assert_eq!(b.scheduled_total(), 3);
    }

    #[test]
    fn reset_recycles_like_new() {
        let mut q = EventQueue::new();
        for i in 0..50 {
            q.schedule(t(100 - i), i);
        }
        assert_eq!(q.peak_len(), 50);
        q.pop();
        q.reset();
        assert!(q.is_empty());
        assert_eq!(q.scheduled_total(), 0);
        assert_eq!(q.peak_len(), 50, "reset keeps the capacity hint");
        // Behaves exactly like a fresh queue: seq restarts at zero.
        q.schedule(t(3), 7u64);
        let ev = q.pop().unwrap();
        assert_eq!((ev.at, ev.seq, ev.event), (t(3), 0, 7u64));
    }

    #[test]
    fn reserve_only_grows_capacity() {
        let mut q: EventQueue<u8> = EventQueue::new();
        q.reserve(128);
        q.schedule(t(1), 1);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().event, 1);
    }

    // --- ladder-specific coverage ----------------------------------------

    /// Pushes enough spread-out events to cross the engage threshold.
    fn engaged_queue() -> EventQueue<usize> {
        let mut q = EventQueue::new();
        for i in 0..4 * ENGAGE_LEN {
            q.schedule(t((i as u64 * 37) % 10_000), i);
        }
        assert!(q.telemetry().engaged, "ladder should have engaged");
        q
    }

    #[test]
    fn ladder_engages_and_orders_exactly_like_heap() {
        let mut q = engaged_queue();
        let mut h = HeapQueue::new();
        for i in 0..4 * ENGAGE_LEN {
            h.schedule(t((i as u64 * 37) % 10_000), i);
        }
        let tele = q.telemetry();
        assert!(tele.engagements >= 1);
        assert!(tele.bucket_count >= MIN_BUCKETS);
        assert!(tele.bucket_width >= 1);
        loop {
            match (q.pop(), h.pop()) {
                (None, None) => break,
                (a, b) => {
                    let a = a.expect("same length");
                    let b = b.expect("same length");
                    assert_eq!((a.at, a.seq, a.event), (b.at, b.seq, b.event));
                }
            }
        }
    }

    /// Hold-model workload: pop one, schedule one in the future. This
    /// exercises front-heap inserts (intra-active-bucket), bucket hits,
    /// and overflow spills in one run.
    #[test]
    fn ladder_hold_model_matches_heap() {
        let mut q = EventQueue::new();
        let mut h = HeapQueue::new();
        let sched = |q: &mut EventQueue<u64>, h: &mut HeapQueue<u64>, at: u64, ev: u64| {
            q.schedule(t(at), ev);
            h.schedule(t(at), ev);
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

    /// Forced heap discipline produces the identical stream (it is the
    /// reference structure) and reports heap_fallback telemetry.
    #[test]
    fn heap_discipline_matches_adaptive() {
        let mut a = EventQueue::new();
        let mut b = EventQueue::with_discipline(QueueDiscipline::Heap);
        for i in 0..1000u64 {
            let at = t(i * 7919 % 5000);
            a.schedule(at, i);
            b.schedule(at, i);
        }
        assert!(a.telemetry().engaged);
        assert!(!b.telemetry().engaged);
        assert!(b.telemetry().heap_fallback);
        assert_eq!(drain(&mut a), drain(&mut b));
    }

    /// An adversarially skewed population — one event at the far end of
    /// the time axis stretches the window so wide that the active bucket
    /// swallows all real traffic — latches the heap fallback instead of
    /// degenerating into a sorted-vec queue, and keeps delivering in
    /// exact order.
    #[test]
    fn skew_latches_fallback() {
        let mut q = EventQueue::new();
        let mut h = HeapQueue::new();
        // The far outlier goes in first so it is part of the engage-time
        // window build and blows up the bucket width.
        q.schedule(t(u64::MAX - 1), 0u64);
        h.schedule(t(u64::MAX - 1), 0u64);
        // Dense near-term traffic: after engagement every one of these
        // routes into the front heap (the active bucket covers a huge
        // span), which is exactly the skew signature.
        for i in 1..6000u64 {
            let at = t(i % 911);
            q.schedule(at, i);
            h.schedule(at, i);
        }
        let tele = q.telemetry();
        assert!(
            tele.fallback_activations >= 1,
            "skew heuristic never latched: {tele:?}"
        );
        assert!(tele.heap_fallback);
        // Once latched, later schedules stay on the heap path.
        q.schedule(t(17), 999_999);
        h.schedule(t(17), 999_999);
        loop {
            match (q.pop(), h.pop()) {
                (None, None) => break,
                (Some(a), Some(b)) => {
                    assert_eq!((a.at, a.seq, a.event), (b.at, b.seq, b.event));
                }
                _ => panic!("queues diverged in length"),
            }
        }
    }

    /// Satellite: `reset()` after resizes and overflow spills behaves
    /// exactly like a fresh queue — seq restarts, telemetry counters
    /// zero, and the bucket geometry survives as a warm-start hint.
    #[test]
    fn reset_after_spill_recycles_like_new() {
        let mut q = engaged_queue();
        while q.len() > 10 {
            q.pop();
        }
        // Push far-future mass to force at least one overflow spill.
        for i in 0..3 * ENGAGE_LEN {
            q.schedule(t(1_000_000 + (i as u64 * 97) % 50_000), i);
        }
        while q.pop().is_some() {}
        let before = q.telemetry();
        assert!(before.spills >= 1, "no spill provoked: {before:?}");
        let hint_width = before.bucket_width;
        assert!(hint_width >= 1);

        q.reset();
        let after = q.telemetry();
        assert!(q.is_empty());
        assert_eq!(q.scheduled_total(), 0);
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
        assert!(!after.engaged);

        // Replays the exact sequence a fresh queue would see.
        let mut fresh = EventQueue::new();
        for i in 0..3 * ENGAGE_LEN {
            let at = t(i as u64 * 37 % 10_000);
            q.schedule(at, i);
            fresh.schedule(at, i);
        }
        assert_eq!(drain(&mut q), drain(&mut fresh));
    }

    /// Keyed scheduling delivers in `(at, seq)` order regardless of
    /// insertion order, identically across both queue structures — the
    /// property sharded simulation relies on.
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
        fwd.schedule_batch_keyed(events.iter().copied());
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
        assert!(q.telemetry().engaged);
        loop {
            match (q.pop(), h.pop()) {
                (None, None) => break,
                (Some(a), Some(b)) => {
                    assert_eq!((a.at, a.seq, a.event), (b.at, b.seq, b.event));
                }
                _ => panic!("queues diverged in length"),
            }
        }
    }

    /// Satellite: after an overflow spill inflates the bucket tier,
    /// `reset()` releases the excess capacity (bounded retention) instead
    /// of pinning the run's peak memory across pooled replays.
    #[test]
    fn reset_releases_spill_capacity() {
        let mut q = EventQueue::new();
        // Engage with a compact near window, then dump a large far-future
        // mass on a single tick: the rebuild spills it all into one
        // bucket, which then holds a run-peak-sized allocation.
        for i in 0..2 * ENGAGE_LEN {
            q.schedule(t(i as u64 % 64), i);
        }
        for i in 0..60_000 {
            q.schedule(t(1_000_000), i);
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

        // Still behaves exactly like a fresh queue after the shrink.
        let mut fresh = EventQueue::new();
        for i in 0..3 * ENGAGE_LEN {
            let at = t(i as u64 * 37 % 10_000);
            q.schedule(at, i);
            fresh.schedule(at, i);
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
        q.schedule(t(0), 999_999);
        let ev = q.pop().unwrap();
        assert_eq!((ev.at, ev.event), (t(0), 999_999));
    }

    #[test]
    fn heap_queue_basics() {
        let mut q = HeapQueue::new();
        q.schedule(t(5), "b");
        q.schedule(t(1), "a");
        q.schedule(t(5), "c");
        assert_eq!(q.peek_time(), Some(t(1)));
        assert_eq!(q.len(), 3);
        assert_eq!(q.scheduled_total(), 3);
        assert_eq!(q.peak_len(), 3);
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
        q.schedule(t(9), "z");
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.scheduled_total(), 4, "clear keeps the lifetime counter");
        q.schedule(t(2), "y");
        assert_eq!(q.pop().unwrap().seq, 0, "clear rewinds the sequence");
        q.reset();
        assert_eq!(q.scheduled_total(), 0);
    }

    #[test]
    fn discipline_round_trip() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert_eq!(q.discipline(), QueueDiscipline::Adaptive);
        q.set_discipline(QueueDiscipline::Heap);
        assert_eq!(q.discipline(), QueueDiscipline::Heap);
        q.schedule(t(1), 1);
        q.pop();
        q.set_discipline(QueueDiscipline::Adaptive);
        assert_eq!(q.discipline(), QueueDiscipline::Adaptive);
    }
}
