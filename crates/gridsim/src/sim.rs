//! Run orchestration: the [`SimTemplate`] (shared world + recycled
//! scratch pool) and its one executor.
//!
//! # Memory layout (zero-clone replay)
//!
//! Repeated runs of one `(model, k)` point at different enabler settings
//! share everything immutable and recycle everything mutable:
//!
//! * `SharedWorld` — `Arc`-shared immutables: topology routing, grid
//!   map, workload trace, dependency graph, and the `Layout`
//!   (struct-of-arrays node/cluster/position tables plus ranked-neighbor
//!   tables). Built once per [`SimTemplate`], never copied per run.
//! * `HotState` — the per-run mutable scratch arena: one struct per
//!   subsystem (resource pool, scheduler stations, estimators), the
//!   events held outside the queue, and the accounting ledger. Checked
//!   out of the pool (on the 1-shard plan, beside the event queue it ran
//!   with) at the start of a run, wiped with `reset`, and returned
//!   afterwards, so a replay allocates (almost) nothing.
//! * [`Enablers`] — the only per-run configuration, carried as a small
//!   `Copy` overlay instead of cloning the whole `GridConfig`.
//!
//! A reset pooled run is bit-identical to a cold one; see
//! `tests/machinery.rs` and `tests/golden_report.rs`.
//!
//! # One executor
//!
//! Every entry point runs a `ShardPlan` through the same private
//! executor: scratch checkout, bootstrap, policy init, the window loop,
//! merge, telemetry and arena parking. Sequential execution
//! ([`SimTemplate::run`] and its siblings) is the **1-shard plan**: the
//! world's cached identity scope, no cross-shard route, one unbounded
//! window, driven inline on the caller's thread with no barrier partner
//! and no thread spawned.
//!
//! # Sharded execution
//!
//! [`SimTemplate::run_sharded`] partitions the lane space (clusters +
//! estimators) across shards and runs them on worker threads under
//! **conservative, barrier-based synchronization**: all shards advance
//! in lockstep windows `[T, T+W-1]`, where `W` is the lookahead derived
//! from the minimum cross-partition link latency (`ShardPlan`) scaled by
//! the link-delay enabler. Within a window a shard touches only its own
//! lanes' state; cross-shard `Deliver` events are buffered in outboxes
//! and exchanged at the barrier, and the lookahead guarantees they can
//! only land in a *later* window — so no shard ever receives an event in
//! its past. Null messages are unnecessary: the barrier itself is the
//! synchronization, and the global next-event time is agreed on by every
//! worker reading the same published per-shard clocks. The merged
//! result — report *and* event-stream fingerprint — is bit-identical to
//! the 1-shard plan for any shard count, plan, and worker count (see
//! `tests/sharded_differential.rs`). Features that only work on one
//! shard — a dependency DAG, whose releases cross lanes at the same
//! tick, and the whole-world timeline — always get the 1-shard plan.
//!
//! # Dispatch
//!
//! The run path is generic over `P: Policy + ?Sized`: callers holding a
//! concrete policy type (notably the `RmsPolicy` enum of the `rms`
//! crate) get a statically dispatched, inlinable event loop, while
//! `&mut dyn Policy` keeps working for user extensions and collections
//! of heterogeneous policies. Only the code that spawns worker threads
//! needs `P: Send`.

use crate::config::{Enablers, GridConfig};
use crate::ctx::Ctx;
use crate::estimator::EstimatorBank;
use crate::event::GridEvent;
use crate::fel::{Fel, ShardRoute};
use crate::frontier::Frontier;
use crate::kernel::{fold_lanes, SimCore};
use crate::policy::Policy;
use crate::report::SimReport;
use crate::resource::ResourcePool;
use crate::sched::SchedulerBank;
use crate::timeline::Timeline;
use crate::world::{LaneScope, ShardPlan, SharedWorld};
use gridscale_desim::{
    Engine, EventQueue, QueueDiscipline, QueueTelemetry, RunOutcome, SimTime, World,
};
use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Guard against runaway models: no single shard may process more events.
const EVENT_BUDGET: u64 = 200_000_000;

/// Cap on pooled scratch entries under one `(plan, shard)` key: long
/// sweeps (many concurrent annealer evaluations of one template) stop
/// hoarding peak-sized arenas beyond what that concurrency can ever
/// re-use at once.
const POOL_CAP_PER_KEY: usize = 16;

/// Cap on pooled scratch entries per template, across all keys.
const POOL_CAP: usize = 64;

/// One cross-shard mailbox cell of the `[dest][src]` inbox matrix:
/// keyed `(time, sequence, event)` triples buffered between windows.
type InboxSlot = Mutex<Vec<(SimTime, u64, GridEvent)>>;

/// The per-run mutable scratch arena: one struct per subsystem plus the
/// shared accounting ledger, all indexed identically to the layout
/// tables. Pooled on the [`SimTemplate`]: `reset` restores the pristine
/// state while keeping every allocation, which is what makes replays
/// (almost) allocation-free.
pub(crate) struct HotState {
    /// Resource-pool execution state.
    pub(crate) rp: ResourcePool,
    /// Scheduler service stations and views.
    pub(crate) sched: SchedulerBank,
    /// Estimator servers and batching buffers.
    pub(crate) est: EstimatorBank,
    /// Dormant status ticks and not-yet-due arrivals, per lane.
    pub(crate) frontier: Frontier,
    /// The F/G/H ledger.
    pub(crate) acct: crate::accounting::Accounting,
}

impl HotState {
    /// Lane-scoped arena: every subsystem's arrays sized to `scope`'s
    /// partition and indexed by local ids, so a shard's mutable memory is
    /// proportional to what it owns — O(world) total across all shards —
    /// and its working set fits cache. The 1-shard plan's identity scope
    /// gives the full-world arena.
    pub(crate) fn new_for_lane(shared: &SharedWorld, scope: &LaneScope) -> HotState {
        let nc = shared.layout.members.len();
        HotState {
            rp: ResourcePool::new(scope, &shared.parent_counts),
            sched: SchedulerBank::new(&shared.layout.members, scope),
            est: EstimatorBank::new(scope, nc),
            frontier: Frontier::new(scope),
            acct: crate::accounting::Accounting::new(scope),
        }
    }

    /// Restores the pristine post-`new` state, keeping allocations.
    pub(crate) fn reset(&mut self, shared: &SharedWorld) {
        self.rp.reset(&shared.parent_counts);
        self.sched.reset();
        self.est.reset();
        self.frontier.reset();
        self.acct.reset();
    }

    /// Approximate resident bytes of this scratch arena (capacity-based;
    /// telemetry only, not part of any report).
    pub(crate) fn approx_bytes(&self) -> u64 {
        (self.rp.approx_bytes()
            + self.sched.approx_bytes()
            + self.est.approx_bytes()
            + self.frontier.approx_bytes()
            + self.acct.approx_bytes()) as u64
    }
}

/// One pooled scratch entry, reset on checkout: a lane-scoped arena and,
/// on the 1-shard plan only, its event queue. Parked shard queues (a
/// reset queue keeps up to 32 slots in each of 4096 buckets) added about
/// 4 MB to the 2-shard replay's peak memory for no measured speed-up.
struct Scratch {
    hot: HotState,
    queue: Option<EventQueue<GridEvent>>,
}

/// The enabler-independent world of one configuration: topology, routing,
/// grid map, workload trace, and placement layout.
///
/// Building these dominates setup cost (routing is `O(V·E log V)`, ~50 ms
/// at 1000 nodes) and none of it depends on the scaling *enablers* — only
/// on the scaling *variables*. The annealer therefore builds one template
/// per `(model, k)` point and runs dozens of enabler settings against it.
pub struct SimTemplate {
    cfg: Arc<GridConfig>,
    /// RNG root every run of this template derives its streams from —
    /// `cfg.seed` for [`SimTemplate::new`], the replicate seed for
    /// [`SimTemplate::fresh_replica`].
    seed: u64,
    shared: Arc<SharedWorld>,
    /// Recycled [`Scratch`], keyed by `(plan key, shard id)`: keying by
    /// the plan's exact lane assignment guarantees a reused arena's remap
    /// tables are content-identical to a fresh build's, so a reset pooled
    /// run is bit-identical to a cold one. A key holds up to
    /// [`POOL_CAP_PER_KEY`] entries — concurrent runs of one plan each
    /// need their own — and the pool at most [`POOL_CAP`].
    pool: Mutex<Vec<((u64, u32), Scratch)>>,
    /// Largest per-shard event-queue length observed by completed runs.
    cap_hint: AtomicUsize,
    /// Completed runs through this template (pooled or cold).
    runs_total: AtomicU64,
    /// Runs whose every shard reused pooled scratch instead of
    /// allocating it.
    scratch_reused: AtomicU64,
    /// Queue discipline applied to every run's event queue (encoded
    /// [`QueueDiscipline`]; 0 = Adaptive, 1 = Heap).
    queue_discipline: AtomicU8,
    /// Event-queue telemetry aggregated over completed runs.
    queue_summary: Mutex<QueueSummary>,
    /// XOR of every completed run's event-stream fingerprint. XOR is
    /// commutative, so the accumulator is thread-placement-invariant:
    /// concurrent annealer evaluations fold in any order and still land
    /// on the same value for the same multiset of runs.
    fingerprint_xor: AtomicU64,
    /// Fingerprint of the most recently completed run (any thread).
    last_fingerprint: AtomicU64,
    /// Status ticks the most recently completed run folded outside the
    /// event queue.
    last_folded_ticks: AtomicU64,
    /// Shard telemetry of the most recent run, if any.
    shard_summary: Mutex<Option<ShardSummary>>,
}

/// Event-queue telemetry aggregated across every completed run of one
/// [`SimTemplate`] (pooled *and* cold). Like [`ReplayStats`], this lives
/// outside [`SimReport`]: queue internals vary with pooling warm-starts
/// while reports must stay bit-identical.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueueSummary {
    /// Runs whose event queue engaged the bucketed ladder tier.
    pub ladder_runs: u64,
    /// Runs that stayed on the binary-heap path throughout (small
    /// populations, forced heap discipline, or a latched skew fallback).
    pub heap_runs: u64,
    /// Total bucket-geometry rebuilds that changed width or count.
    pub resizes: u64,
    /// Total overflow redistributions (far tier → near tier).
    pub spills: u64,
    /// Times the skew heuristic latched the heap fallback.
    pub fallback_activations: u64,
    /// Post-engagement inserts that landed in the near-term front heap.
    pub front_inserts: u64,
    /// Largest single-bucket occupancy seen by any run.
    pub max_bucket_occupancy: usize,
    /// Bucket count of the most recently completed run's window.
    pub last_bucket_count: usize,
    /// Bucket width (in ticks) of the most recently completed run's window.
    pub last_bucket_width: u64,
}

impl QueueSummary {
    /// Folds one run's per-shard telemetry — slice in ascending shard
    /// order, one element for a sequential run — into the aggregate as
    /// ONE logical run: the run counts as ladder-engaged if any shard
    /// engaged, counters add, and the `last_bucket_*` window comes from
    /// the highest-id shard that built buckets. Deterministic because the
    /// slice order is the shard order, never thread arrival order.
    fn absorb(&mut self, tels: &[QueueTelemetry]) {
        if tels.iter().any(|t| t.engagements > 0) {
            self.ladder_runs += 1;
        } else {
            self.heap_runs += 1;
        }
        for t in tels {
            self.resizes += t.resizes;
            self.spills += t.spills;
            self.fallback_activations += t.fallback_activations;
            self.front_inserts += t.front_inserts;
            self.max_bucket_occupancy = self.max_bucket_occupancy.max(t.max_bucket_occupancy);
        }
        if let Some(t) = tels.iter().rev().find(|t| t.bucket_count > 0) {
            self.last_bucket_count = t.bucket_count;
            self.last_bucket_width = t.bucket_width;
        }
    }
}

/// Telemetry of one run's shard plan (see [`SimTemplate::run_sharded`];
/// a sequential run is the 1-shard plan). Lives outside [`SimReport`]:
/// the report is bit-identical for every plan, while this describes
/// *how* the executor got there.
#[derive(Debug, Clone)]
pub struct ShardSummary {
    /// Number of shards (lane partitions) that actually ran.
    pub shards: usize,
    /// Worker threads the shards were multiplexed onto.
    pub workers: usize,
    /// The conservative lookahead window, in ticks (`u64::MAX` when no
    /// channel crosses shards and the run completed in one window).
    pub window_ticks: u64,
    /// Minimum cross-partition link latency (raw ticks, before the
    /// link-delay enabler) the window was derived from.
    pub min_cross_latency: u64,
    /// Barrier rounds (= synchronization windows) executed.
    pub barrier_rounds: u64,
    /// Shard → events processed by its engine.
    pub events_per_shard: Vec<u64>,
    /// Shard → windows in which it processed zero events (idle fraction
    /// numerator; divide by `barrier_rounds`).
    pub idle_windows_per_shard: Vec<u64>,
    /// Deliver events that crossed a shard boundary.
    pub cross_shard_events: u64,
    /// Shard → approximate resident bytes of its lane-scoped hot arena.
    pub hot_bytes_per_shard: Vec<u64>,
    /// Sum of `hot_bytes_per_shard` — with lane-scoped state this is
    /// O(world), no longer O(world × shards).
    pub hot_bytes_total: u64,
    /// Event-queue telemetry of this run, aggregated over its shards in
    /// ascending shard order (the whole run counts as one logical queue
    /// run).
    pub queue: QueueSummary,
}

/// Pool/arena telemetry of one [`SimTemplate`]. Lives here — not in
/// [`SimReport`] — because first-run and replay values necessarily differ,
/// and reports must stay bit-identical across replays.
#[derive(Debug, Clone)]
pub struct ReplayStats {
    /// Completed runs through this template.
    pub runs: u64,
    /// Runs that checked every shard's scratch out of the pool.
    pub scratch_reused: u64,
    /// Event queues currently parked in the pool (1-shard entries only).
    pub pooled_queues: usize,
    /// Scratch arenas currently parked in the pool (one per entry).
    pub pooled_scratch: usize,
    /// Largest per-shard event-queue length seen so far.
    pub queue_cap_hint: usize,
    /// Approximate resident bytes of pooled scratch arenas.
    pub scratch_bytes: u64,
    /// Event-queue telemetry aggregated over completed runs.
    pub queue: QueueSummary,
    /// XOR of every completed run's event-stream fingerprint
    /// (order-independent, so identical across thread placements).
    pub fingerprint_xor: u64,
    /// Event-stream fingerprint of the most recently completed run.
    pub last_fingerprint: u64,
    /// Status ticks the most recently completed run delivered without
    /// the event queue: held dormant and folded into their lane's
    /// stream, all of them suppressed. Folding is lane-local, so the
    /// count is the same for every shard plan.
    pub folded_ticks: u64,
    /// Shard telemetry of the most recent run through this template (a
    /// sequential run reports its 1-shard plan).
    pub shard: Option<ShardSummary>,
}

/// What one run asks of the executor besides its enablers, plan and
/// policies.
#[derive(Clone, Copy)]
struct Run {
    /// Replication index of the per-run RNG streams.
    rep: u64,
    /// Check scratch out of (and back into) the pool; `false` builds
    /// everything fresh and parks nothing.
    pooled: bool,
    /// Record a [`Timeline`] sampled at this interval (1-shard plans
    /// only).
    sample_interval: Option<u64>,
    /// Events each shard's engine may process.
    event_budget: u64,
    /// Worker threads the shards run on.
    workers: usize,
}

/// Locks `m`, recovering the data of a poisoned lock (telemetry and
/// pooled scratch stay usable after a panicked run).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Host cores available to this process (at least 1).
fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

impl SimTemplate {
    /// Builds the world for `cfg` (topology, routing tables, grid map,
    /// workload trace, layout).
    pub fn new(cfg: &GridConfig) -> SimTemplate {
        #[expect(clippy::expect_used, reason = "bad input panics until typed errors")]
        cfg.validate().expect("invalid GridConfig");
        SimTemplate::from_arc(Arc::new(cfg.clone()), cfg.seed)
    }

    /// A template over the *same* (already validated) configuration but
    /// with every RNG stream re-rooted at `seed`: the world — topology,
    /// trace, DAG — is rebuilt from the new root, without cloning the
    /// `GridConfig` (the `Arc` is shared). Bit-identical to
    /// `SimTemplate::new` on a config clone whose `seed` was rewritten to
    /// the same value; this is the `ReplicationMode::FreshWorld` path.
    pub fn fresh_replica(&self, seed: u64) -> SimTemplate {
        SimTemplate::from_arc(Arc::clone(&self.cfg), seed)
    }

    /// Whether `other` replays the same `Arc`-shared world (no rebuild
    /// happened between them) — the `ReplicationMode::SharedWorld`
    /// invariant.
    pub fn shares_world_with(&self, other: &SimTemplate) -> bool {
        Arc::ptr_eq(&self.shared, &other.shared)
    }

    /// The RNG root seed of this template's runs.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    fn from_arc(cfg: Arc<GridConfig>, seed: u64) -> SimTemplate {
        SimTemplate {
            shared: Arc::new(SharedWorld::build_seeded(&cfg, seed)),
            cfg,
            seed,
            pool: Mutex::new(Vec::new()),
            cap_hint: AtomicUsize::new(0),
            runs_total: AtomicU64::new(0),
            scratch_reused: AtomicU64::new(0),
            queue_discipline: AtomicU8::new(0),
            queue_summary: Mutex::new(QueueSummary::default()),
            fingerprint_xor: AtomicU64::new(0),
            last_fingerprint: AtomicU64::new(0),
            last_folded_ticks: AtomicU64::new(0),
            shard_summary: Mutex::new(None),
        }
    }

    /// Selects the event-queue discipline for subsequent runs. The
    /// default is [`QueueDiscipline::Adaptive`]; forcing
    /// [`QueueDiscipline::Heap`] is how `perfbench` times the reference
    /// heap against the ladder on the *same* simulation — reports are
    /// bit-identical either way, only the queue internals differ.
    pub fn set_queue_discipline(&self, discipline: QueueDiscipline) {
        let code = match discipline {
            QueueDiscipline::Adaptive => 0,
            QueueDiscipline::Heap => 1,
        };
        self.queue_discipline.store(code, Ordering::Relaxed);
    }

    /// The queue discipline applied to runs of this template.
    pub fn queue_discipline(&self) -> QueueDiscipline {
        match self.queue_discipline.load(Ordering::Relaxed) {
            1 => QueueDiscipline::Heap,
            _ => QueueDiscipline::Adaptive,
        }
    }

    /// The configuration the template was built for.
    pub fn config(&self) -> &GridConfig {
        &self.cfg
    }

    /// Number of jobs in the pre-generated trace.
    pub fn trace_len(&self) -> usize {
        self.shared.trace.len()
    }

    /// Number of scheduler clusters in the built world (the upper bound
    /// on useful shard counts).
    pub fn cluster_count(&self) -> usize {
        self.shared.layout.members.len()
    }

    /// Approximate resident bytes of the shared world (trace, layout,
    /// routing state) — the footprint one 10⁶-node build must fit in.
    pub fn shared_world_bytes(&self) -> u64 {
        let l = &self.shared.layout;
        let mut b = self.shared.trace.capacity() * std::mem::size_of::<gridscale_workload::Job>();
        b += l.res_node.capacity() * 4
            + l.res_cluster.capacity() * 4
            + l.res_pos.capacity() * 4
            + (l.res_at_node.capacity() + l.sched_at_node.capacity() + l.est_at_node.capacity())
                * 4
            + l.node_lane.capacity() * 4;
        b += l.members.iter().map(|m| m.capacity() * 4).sum::<usize>();
        b += l
            .ranked_peers
            .iter()
            .map(|p| p.capacity() * 4)
            .sum::<usize>();
        b += self.shared.routing.approx_bytes();
        b += self.vlink_table_bytes() as usize;
        b as u64
    }

    /// Approximate resident bytes of the precomputed virtual-link table
    /// (0 when the bandwidth model is disabled).
    pub fn vlink_table_bytes(&self) -> u64 {
        self.shared
            .layout
            .vlinks
            .as_ref()
            .map_or(0, |t| t.approx_bytes() as u64)
    }

    /// Pool/arena telemetry for this template (see [`ReplayStats`]).
    pub fn replay_stats(&self) -> ReplayStats {
        let pool = lock(&self.pool);
        ReplayStats {
            runs: self.runs_total.load(Ordering::Relaxed),
            scratch_reused: self.scratch_reused.load(Ordering::Relaxed),
            pooled_queues: pool.iter().filter(|(_, s)| s.queue.is_some()).count(),
            pooled_scratch: pool.len(),
            queue_cap_hint: self.cap_hint.load(Ordering::Relaxed),
            scratch_bytes: pool.iter().map(|(_, s)| s.hot.approx_bytes()).sum(),
            queue: *lock(&self.queue_summary),
            fingerprint_xor: self.fingerprint_xor.load(Ordering::Relaxed),
            last_fingerprint: self.last_fingerprint.load(Ordering::Relaxed),
            folded_ticks: self.last_folded_ticks.load(Ordering::Relaxed),
            shard: lock(&self.shard_summary).clone(),
        }
    }

    /// Runs one simulation with `enablers` substituted into the template's
    /// configuration. The world (topology, routing, trace) is shared, so
    /// results across enabler settings are directly comparable.
    pub fn run<P: Policy + ?Sized>(&self, enablers: Enablers, policy: &mut P) -> SimReport {
        self.run_solo(enablers, policy, 0, true, None).0
    }

    /// Replication `rep` of this template's simulation on the *same*
    /// shared world and pooled scratch: rep 0 is exactly
    /// [`SimTemplate::run`]; rep `i > 0` forks the per-run RNG streams
    /// one level deeper (`root.fork(3).fork(i)`) so arrival lane draws,
    /// staggers, and policy randomness vary while the world — topology,
    /// routing, trace — is reused without a rebuild. This is the
    /// zero-clone `ReplicationMode::SharedWorld` replay.
    pub fn run_replicate<P: Policy + ?Sized>(
        &self,
        enablers: Enablers,
        policy: &mut P,
        rep: u64,
    ) -> SimReport {
        self.run_solo(enablers, policy, rep, true, None).0
    }

    /// Reference path that bypasses the pool: fresh event queue, fresh
    /// scratch arena, nothing parked afterwards. Produces byte-identical
    /// reports to [`SimTemplate::run`] — the oracle the golden-report
    /// tests and the `sim_replay` bench lean on.
    pub fn run_cold<P: Policy + ?Sized>(&self, enablers: Enablers, policy: &mut P) -> SimReport {
        self.run_solo(enablers, policy, 0, false, None).0
    }

    /// Like [`SimTemplate::run`], but also records a [`Timeline`] sampled
    /// every `sample_interval` ticks.
    pub fn run_with_timeline<P: Policy + ?Sized>(
        &self,
        enablers: Enablers,
        policy: &mut P,
        sample_interval: u64,
    ) -> (SimReport, Timeline) {
        let (report, tl) = self.run_solo(enablers, policy, 0, true, Some(sample_interval));
        // The 1-shard plan hands back the recorder it was given.
        (report, tl.unwrap_or_else(|| Timeline::new(sample_interval)))
    }

    /// Runs one simulation partitioned across `shards` lane groups on up
    /// to `workers` threads, using the default latency-aware cluster→shard
    /// plan (which maximizes the conservative lookahead window). The
    /// report (including the event-stream fingerprint) is bit-identical
    /// to [`SimTemplate::run`] with the same enablers.
    ///
    /// `shards == 0` picks the plan from the topology and the host: the
    /// widest-lookahead latency-aware plan with at most one shard per
    /// cluster and at most one per core. `workers == 0` runs one worker
    /// per core, capped at the plan's shard count. Either way the plan is
    /// a pure function of the topology and the core count, so the report
    /// stays bit-identical to every other split. A DAG workload always
    /// runs the 1-shard plan (dependency release crosses lanes at the
    /// same tick); [`ShardSummary::shards`] reports what ran.
    ///
    /// `make_policy` constructs one policy instance per shard, on the
    /// caller's thread — policy state is per-cluster, and each cluster's
    /// callbacks all happen on its owning shard, so per-shard instances
    /// observe exactly the per-cluster history the sequential instance
    /// would.
    pub fn run_sharded<P: Policy + Send>(
        &self,
        enablers: Enablers,
        make_policy: impl Fn() -> P,
        shards: usize,
        workers: usize,
    ) -> (SimReport, ShardSummary) {
        self.run_sharded_replicate(enablers, make_policy, shards, workers, 0)
    }

    /// Replication `rep` on the sharded executor: the same per-run RNG
    /// re-rooting as [`SimTemplate::run_replicate`], partitioned exactly
    /// like [`SimTemplate::run_sharded`]. Fingerprint-identical to the
    /// sequential `run_replicate` of the same `rep` for any shard and
    /// worker count.
    pub fn run_sharded_replicate<P: Policy + Send>(
        &self,
        enablers: Enablers,
        make_policy: impl Fn() -> P,
        shards: usize,
        workers: usize,
        rep: u64,
    ) -> (SimReport, ShardSummary) {
        let plan = self.plan(shards, |world| {
            if shards == 0 {
                ShardPlan::auto(world, host_cores())
            } else {
                ShardPlan::latency_aware(world, shards)
            }
        });
        self.run_plan(enablers, make_policy, &plan, workers, rep)
    }

    /// [`SimTemplate::run_sharded`] with an explicit cluster→shard
    /// assignment (`cluster_shard[c] < shards` for every cluster).
    pub fn run_sharded_with<P: Policy + Send>(
        &self,
        enablers: Enablers,
        make_policy: impl Fn() -> P,
        cluster_shard: &[u32],
        shards: usize,
        workers: usize,
    ) -> (SimReport, ShardSummary) {
        let plan = self.plan(shards, |world| {
            ShardPlan::from_cluster_assignment(world, cluster_shard, shards)
        });
        self.run_plan(enablers, make_policy, &plan, workers, 0)
    }

    /// The plan a sharded entry point runs: `make_plan`'s, unless only one
    /// shard can run — one requested, or a DAG workload — in which case
    /// the world's cached 1-shard plan, without building anything.
    fn plan(
        &self,
        shards: usize,
        make_plan: impl FnOnce(&SharedWorld) -> ShardPlan,
    ) -> Cow<'_, ShardPlan> {
        match (shards != 1 && self.shared.dag.is_none()).then(|| make_plan(&self.shared)) {
            Some(plan) if plan.shards > 1 => Cow::Owned(plan),
            _ => Cow::Borrowed(&self.shared.full_plan),
        }
    }

    /// A run of the 1-shard plan with the caller's policy, driven inline.
    fn run_solo<P: Policy + ?Sized>(
        &self,
        enablers: Enablers,
        policy: &mut P,
        rep: u64,
        pooled: bool,
        sample_interval: Option<u64>,
    ) -> (SimReport, Option<Timeline>) {
        let run = Run {
            rep,
            pooled,
            sample_interval,
            event_budget: EVENT_BUDGET,
            workers: 1,
        };
        let plan = &self.shared.full_plan;
        let (report, _, timeline) = self.execute(enablers, plan, vec![policy], run, drive_inline);
        (report, timeline)
    }

    /// A pooled run of a (possibly multi-shard) plan with one
    /// `make_policy` instance per shard, on `workers` threads (0 = one
    /// per core), capped at the shard count.
    fn run_plan<P: Policy + Send>(
        &self,
        enablers: Enablers,
        make_policy: impl Fn() -> P,
        plan: &ShardPlan,
        workers: usize,
        rep: u64,
    ) -> (SimReport, ShardSummary) {
        let shards = plan.shards as usize;
        let workers = if workers == 0 { host_cores() } else { workers }.min(shards);
        let mut policies: Vec<Padded<P>> = (0..shards).map(|_| Padded(make_policy())).collect();
        let policies = policies.iter_mut().map(|p| &mut p.0).collect();
        let run = Run {
            rep,
            pooled: true,
            sample_interval: None,
            event_budget: EVENT_BUDGET,
            workers,
        };
        let (report, summary, _) = self.execute(enablers, plan, policies, run, |boxes, rounds| {
            drive_workers(boxes, rounds, workers)
        });
        (report, summary)
    }

    /// The one executor. Checks scratch out for every shard of `plan`,
    /// bootstraps it and runs `init_cluster` for the shard's clusters
    /// (`policies[s]` is shard `s`'s instance), hands the shards to
    /// `drive` for the window loop, then merges them in ascending shard
    /// order, folds the run's telemetry and parks the scratch.
    fn execute<'p, P: Policy + ?Sized>(
        &self,
        enablers: Enablers,
        plan: &ShardPlan,
        policies: Vec<&'p mut P>,
        run: Run,
        drive: impl FnOnce(&mut [ShardBox<'p, P>], &Rounds),
    ) -> (SimReport, ShardSummary, Option<Timeline>) {
        #[expect(clippy::expect_used, reason = "bad input panics until typed errors")]
        enablers.validate().expect("invalid enablers");
        let shared = &self.shared;
        let shards = plan.shards as usize;
        debug_assert_eq!(policies.len(), shards);
        debug_assert!(run.sample_interval.is_none() || shards == 1);
        // One lane scope per shard: dense local id spaces over the
        // shard's owned clusters/resources/estimators (the identity scope
        // for the 1-shard plan).
        let scopes = plan.lane_scopes(shared);
        // Only a multi-shard plan routes: the 1-shard plan's `Fel` has no
        // outbox to check.
        let shard_of_node = (shards > 1).then(|| Arc::new(plan.shard_of_node(shared)));
        let min_cross = plan.min_cross_latency();
        // The conservative lookahead: any cross-shard Deliver emitted at
        // time t arrives at ≥ t + max(1, ⌊min_cross · ldf⌋) (NetFabric's
        // invariant), so events emitted inside [T, T+W-1] land at ≥ T+W —
        // always in a later window. No crossing channel: one unbounded
        // window.
        let window = if min_cross == u64::MAX {
            u64::MAX
        } else {
            ((min_cross as f64 * enablers.link_delay_factor).floor() as u64).max(1)
        };
        let horizon = self.cfg.horizon();
        let discipline = self.queue_discipline();

        // Build every shard's private state up front (deterministic, on
        // the caller's thread): core + engine + route, bootstrapped to
        // its owned lanes only.
        let mut fresh = 0usize;
        let mut boxes: Vec<ShardBox<P>> = policies
            .into_iter()
            .enumerate()
            .map(|(s, policy)| {
                let shard = s as u32;
                let parked = run
                    .pooled
                    .then(|| self.checkout((plan.key, shard), discipline));
                let Scratch { hot, queue } = parked.flatten().unwrap_or_else(|| {
                    fresh += 1;
                    let hot = HotState::new_for_lane(shared, &scopes[s]);
                    Scratch { hot, queue: None }
                });
                let queue = queue.unwrap_or_else(|| EventQueue::with_discipline(discipline));
                let mut core = SimCore::new(
                    Arc::clone(&self.cfg),
                    enablers,
                    Arc::clone(shared),
                    hot,
                    self.seed,
                    run.rep,
                );
                core.net.use_middleware = policy.uses_middleware();
                let mut engine = Engine::from_queue(queue).with_event_budget(run.event_budget);
                let mut lane_seq = vec![0u64; shared.layout.n_lanes()];
                let mut route = shard_of_node.as_ref().map(|table| ShardRoute {
                    shard,
                    shard_of_node: Arc::clone(table),
                    outbox: (0..shards).map(|_| Vec::new()).collect(),
                    crossings: 0,
                });
                {
                    let mut fel = Fel {
                        queue: engine.queue_mut(),
                        lane_seq: &mut lane_seq,
                        route: route.as_mut(),
                    };
                    core.bootstrap(&mut fel, &plan.shard_of_lane, shard);
                    if let Some(interval) = run.sample_interval {
                        core.timeline = Some(Timeline::new(interval));
                        let lane = shared.layout.global_lane();
                        fel.schedule(lane, SimTime::from_ticks(interval), GridEvent::Sample);
                    }
                    for c in 0..core.n_clusters() {
                        if plan.shard_of_lane[c] != shard {
                            continue;
                        }
                        let mut ctx = Ctx {
                            core: &mut core,
                            fel: &mut fel,
                            now: SimTime::ZERO,
                            lane: c,
                        };
                        policy.init_cluster(&mut ctx, c);
                    }
                }
                ShardBox {
                    shard: s,
                    engine,
                    sim: GridSim {
                        core,
                        policy,
                        lane_seq,
                        route,
                    },
                    last_processed: 0,
                    idle_windows: 0,
                    rounds: 0,
                    exhausted: false,
                }
            })
            .collect();

        let rounds = Rounds {
            next_time: (0..shards).map(|_| AtomicU64::new(u64::MAX)).collect(),
            inboxes: (0..shards)
                .map(|_| (0..shards).map(|_| Mutex::new(Vec::new())).collect())
                .collect(),
            horizon: horizon.ticks(),
            span: window.saturating_sub(1),
        };
        drive(&mut boxes, &rounds);

        // Ticks still held up to the horizon are delivered now, within
        // what is left of each shard's budget.
        let events_per_shard: Vec<u64> = boxes
            .iter_mut()
            .map(|b| {
                let processed = b.engine.processed();
                let left = run.event_budget.saturating_sub(processed);
                let sim = &mut b.sim;
                processed + sim.core.fold_to_horizon(horizon, left, &mut sim.lane_seq)
            })
            .collect();
        let folded_ticks = boxes.iter().map(|b| b.sim.core.hot.frontier.folded).sum();
        let events_total = events_per_shard.iter().sum();
        let name = boxes.last().map_or("", |b| b.sim.policy.name());
        let report = if let [solo] = &boxes[..] {
            // The 1-shard core already holds the global tallies.
            solo.sim.core.report(name, horizon, events_total)
        } else {
            // Boxes are in ascending shard order: workers only borrow
            // them, nothing is gathered.
            self.merge_shards(&boxes, &scopes, name, horizon, events_total)
        };
        debug_assert_eq!(
            report.jobs_total,
            report.completed + report.unfinished,
            "job conservation: every trace job completes or is still in the system"
        );
        let timeline = boxes.first_mut().and_then(|b| b.sim.core.timeline.take());
        let mut summary = ShardSummary {
            shards,
            workers: run.workers,
            window_ticks: window,
            min_cross_latency: min_cross,
            barrier_rounds: boxes.first().map_or(0, |b| b.rounds),
            events_per_shard,
            idle_windows_per_shard: Vec::with_capacity(shards),
            cross_shard_events: 0,
            hot_bytes_per_shard: Vec::with_capacity(shards),
            hot_bytes_total: 0,
            queue: QueueSummary::default(),
        };

        // Telemetry, then park every shard's scratch for the next run of
        // this exact plan.
        let mut tels = Vec::with_capacity(shards);
        let mut parked = Vec::with_capacity(shards);
        for b in boxes {
            summary.idle_windows_per_shard.push(b.idle_windows);
            summary.cross_shard_events += b.sim.route.map_or(0, |r| r.crossings);
            summary
                .hot_bytes_per_shard
                .push(b.sim.core.hot.approx_bytes());
            let queue = b.engine.into_queue();
            tels.push(queue.telemetry());
            self.cap_hint.fetch_max(queue.peak_len(), Ordering::Relaxed);
            let hot = b.sim.core.hot;
            parked.push(Scratch {
                hot,
                queue: (shards == 1).then_some(queue),
            });
        }
        if run.pooled {
            self.park(plan.key, parked);
        }
        summary.hot_bytes_total = summary.hot_bytes_per_shard.iter().sum();
        summary.queue.absorb(&tels);
        self.runs_total.fetch_add(1, Ordering::Relaxed);
        if fresh == 0 {
            self.scratch_reused.fetch_add(1, Ordering::Relaxed);
        }
        self.fingerprint_xor
            .fetch_xor(report.event_fingerprint, Ordering::Relaxed);
        self.last_fingerprint
            .store(report.event_fingerprint, Ordering::Relaxed);
        self.last_folded_ticks
            .store(folded_ticks, Ordering::Relaxed);
        lock(&self.queue_summary).absorb(&tels);
        *lock(&self.shard_summary) = Some(summary.clone());
        (report, summary, timeline)
    }

    /// The blessed cross-thread merge of a multi-shard run: every shard's
    /// lane-scoped core scatters into global-scope accumulators in
    /// ascending shard order. Every global slot (accounting, resource
    /// busy time, lane fingerprints) is owned by exactly one shard, so
    /// the fold reproduces the 1-shard tallies bit-for-bit regardless of
    /// thread placement.
    fn merge_shards<P: Policy + ?Sized>(
        &self,
        boxes: &[ShardBox<'_, P>],
        scopes: &[Arc<LaneScope>],
        name: &str,
        horizon: SimTime,
        events: u64,
    ) -> SimReport {
        let layout = &self.shared.layout;
        let mut acct = crate::accounting::Accounting::new(&self.shared.full_scope);
        let mut busy = vec![0.0; layout.res_node.len()];
        let mut lane_fp = vec![0u64; layout.n_lanes()];
        for (b, scope) in boxes.iter().zip(scopes) {
            let core = &b.sim.core;
            // Boxes stay in ascending shard order and scatter targets
            // are disjoint across shards.
            acct.absorb_shard(&core.hot.acct, scope);
            for (rl, &rg) in scope.resources.iter().enumerate() {
                busy[rg as usize] += core.hot.rp.busy[rl];
            }
            for (a, b) in lane_fp.iter_mut().zip(&core.lane_fp) {
                *a ^= b;
            }
        }
        let jobs = self.shared.trace.len() as u64;
        let weight = self.cfg.costs.overhead_weight;
        let mut report = acct.report(name, horizon, events, jobs, &busy, weight, self.cfg.nodes);
        report.event_fingerprint = fold_lanes(&lane_fp);
        report
    }

    /// Checks the most recently parked scratch for `key` out of the
    /// pool, reset (a reset arena and queue are indistinguishable from new
    /// ones, keeping runs bit-reproducible), with the queue's retained
    /// peak length re-reserved so its heap never regrows mid-run.
    fn checkout(&self, key: (u64, u32), discipline: QueueDiscipline) -> Option<Scratch> {
        let (_, mut scratch) = {
            let mut pool = lock(&self.pool);
            let i = pool.iter().rposition(|(k, _)| *k == key)?;
            pool.swap_remove(i)
        };
        scratch.hot.reset(&self.shared);
        if let Some(queue) = &mut scratch.queue {
            queue.reset();
            // Only touch the discipline when it actually changed: switching
            // clears the skew latch, which a recycled queue carries as a
            // warm-start hint.
            if queue.discipline() != discipline {
                queue.set_discipline(discipline);
            }
            queue.reserve(queue.peak_len());
        }
        Some(scratch)
    }

    /// Returns a run's scratch — shard `s`'s at index `s` — to the pool.
    /// Bounded: beyond the caps an entry is dropped — long sweeps must not
    /// hoard peak-sized arenas forever.
    fn park(&self, plan_key: u64, scratch: Vec<Scratch>) {
        let mut pool = lock(&self.pool);
        for (shard, scratch) in scratch.into_iter().enumerate() {
            let key = (plan_key, shard as u32);
            let same_key = pool.iter().filter(|(k, _)| *k == key).count();
            if pool.len() < POOL_CAP && same_key < POOL_CAP_PER_KEY {
                pool.push((key, scratch));
            }
        }
    }
}

/// The shared state of one run's lockstep rounds: each shard's published
/// next-event time and the `[dest][src]` inbox matrix, plus the horizon
/// and window span every worker derives the same rounds from (a round
/// starting at `T` covers `[T, T + span]`). `next_time` is written by
/// each shard's owner and read by every worker after the barrier, so
/// Relaxed ordering suffices (the barrier is the fence). Each inbox Mutex
/// has exactly one writer (src's worker) and one reader (dest's worker),
/// in disjoint phases — the locks never contend.
struct Rounds {
    next_time: Vec<AtomicU64>,
    inboxes: Vec<Vec<InboxSlot>>,
    horizon: u64,
    span: u64,
}

/// Drives every shard on the caller's thread: the 1-shard plan's path,
/// and any plan run on one worker. No thread is spawned.
fn drive_inline<P: Policy + ?Sized>(boxes: &mut [ShardBox<'_, P>], rounds: &Rounds) {
    window_loop(
        &mut boxes.iter_mut().collect::<Vec<_>>(),
        &RoundBarrier::new(1),
        rounds,
    );
}

/// Distributes the shards round-robin over `workers` scoped threads,
/// each borrowing its shards (policies included) for the window loop —
/// the only code that needs `P: Send`. One worker runs inline.
fn drive_workers<P: Policy + Send>(boxes: &mut [ShardBox<'_, P>], rounds: &Rounds, workers: usize) {
    if workers <= 1 {
        return drive_inline(boxes, rounds);
    }
    let barrier = RoundBarrier::new(workers);
    let mut per_worker: Vec<Vec<&mut ShardBox<'_, P>>> = (0..workers).map(|_| Vec::new()).collect();
    for b in boxes.iter_mut() {
        per_worker[b.shard % workers].push(b);
    }
    let barrier = &barrier;
    std::thread::scope(|scope| {
        let handles: Vec<_> = per_worker
            .into_iter()
            .map(|mut owned| scope.spawn(move || window_loop(&mut owned, barrier, rounds)))
            .collect();
        // Join explicitly: the scope's own join waits only for the
        // closures, so without it the next run's workers can start while
        // these still hold their malloc arenas, and peak memory creeps up.
        for h in handles {
            // Joins after each worker's last round: no round is in flight.
            #[expect(clippy::expect_used, reason = "re-raises a shard worker's panic")]
            h.join().expect("shard worker panicked");
        }
    });
}

/// One worker's share of the window loop: its shards advance in lockstep
/// windows with every other worker's, exchanging cross-shard events at
/// the barrier. A shard that exhausts its event budget publishes
/// `u64::MAX` from then on — it still has an event pending at or before
/// the horizon, so publishing that time would stall the global clock.
fn window_loop<P: Policy + ?Sized>(
    owned: &mut [&mut ShardBox<'_, P>],
    barrier: &RoundBarrier,
    rounds: &Rounds,
) {
    loop {
        // Phase A: flush outboxes (bootstrap round included) into
        // destination inboxes.
        for b in owned.iter_mut() {
            let src = b.shard;
            let outboxes = b.sim.route.iter_mut().flat_map(|r| r.outbox.iter_mut());
            for (dest, out) in outboxes.enumerate().filter(|(_, out)| !out.is_empty()) {
                rounds.inboxes[dest][src]
                    // Slot (dest, src) is written only by src's owner in
                    // phase A: never contended.
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .append(out);
            }
        }
        barrier.wait();
        // Phase B: drain inboxes (ascending source order — deterministic,
        // though the unique sequence keys make insertion order moot) and
        // publish each shard's next event time.
        for b in owned.iter_mut() {
            for slot in &rounds.inboxes[b.shard] {
                // Only this worker drains its own inbox row, and the
                // flush barrier already passed: never contended.
                let mut slot = slot.lock().unwrap_or_else(|e| e.into_inner());
                for (at, seq, ev) in slot.drain(..) {
                    b.engine.queue_mut().schedule_keyed(at, seq, ev);
                }
            }
            let next = b.engine.queue().peek_time().filter(|_| !b.exhausted);
            let next = next.map_or(u64::MAX, |t| t.ticks());
            rounds.next_time[b.shard].store(next, Ordering::Relaxed);
        }
        barrier.wait();
        // Phase C: every worker derives the same global window from the
        // published clocks.
        let next = rounds
            .next_time
            .iter()
            .map(|t| t.load(Ordering::Relaxed))
            .min();
        let Some(t_min) = next.filter(|&t| t != u64::MAX && t <= rounds.horizon) else {
            break;
        };
        let end = SimTime::from_ticks(t_min.saturating_add(rounds.span).min(rounds.horizon));
        for b in owned.iter_mut() {
            b.exhausted |= b.engine.run_until(&mut b.sim, end) == RunOutcome::EventBudgetExhausted;
            b.rounds += 1;
            let p = b.engine.processed();
            b.idle_windows += u64::from(p == b.last_processed);
            b.last_processed = p;
        }
    }
}

/// The executor's synchronization point, picked once per run: a
/// sense-reversing spin barrier when every worker can have its own core
/// (always, for one worker), the parking `std::sync::Barrier` otherwise.
/// The choice only affects wall-clock time — window contents and merge
/// order are fixed by the plan, so the result is bit-identical either
/// way.
enum RoundBarrier {
    Spin(SpinBarrier),
    Park(std::sync::Barrier),
}

impl RoundBarrier {
    fn new(workers: usize) -> RoundBarrier {
        if workers > 1 && workers > host_cores() {
            // Oversubscribed: spinning would burn the timeslice the
            // lagging worker needs; park on the futex instead.
            RoundBarrier::Park(std::sync::Barrier::new(workers))
        } else {
            RoundBarrier::Spin(SpinBarrier::new(workers))
        }
    }

    fn wait(&self) {
        match self {
            RoundBarrier::Spin(b) => b.wait(),
            RoundBarrier::Park(b) => _ = b.wait(),
        }
    }
}

/// A sense-reversing spin barrier. The lockstep windows are ~100 µs of
/// compute between synchronization points, so the futex sleep/wake cycle
/// of `std::sync::Barrier` (two condvar round-trips per window per
/// thread) costs more than the windows themselves; spinning with a
/// bounded busy-wait before yielding keeps the workers hot.
///
/// Ordering argument: arrivals are `AcqRel` read-modify-writes on
/// `count`, so the last arrival's acquire sees every write made before
/// any earlier arrival (release sequence on `count`); its `Release`
/// store to `generation` then publishes all of them to the spinners'
/// `Acquire` loads — the barrier is a full happens-before fence, which
/// is what lets the inbox/`next_time` traffic use `Relaxed` accesses.
struct SpinBarrier {
    count: AtomicUsize,
    generation: AtomicUsize,
    n: usize,
}

impl SpinBarrier {
    fn new(n: usize) -> SpinBarrier {
        SpinBarrier {
            count: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            n,
        }
    }

    fn wait(&self) {
        let gen = self.generation.load(Ordering::Acquire);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            self.count.store(0, Ordering::Release);
            self.generation
                .store(gen.wrapping_add(1), Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.generation.load(Ordering::Acquire) == gen {
                spins += 1;
                if spins < 1 << 14 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }
}

/// A per-shard policy on its own cache lines, for the same reason as
/// [`ShardBox`].
#[repr(align(128))]
struct Padded<P>(P);

/// Per-shard execution state: the engine, the world adapter, and window
/// telemetry. Aligned to two cache lines (the adjacent-line prefetcher
/// pairs them): the boxes of a run sit side by side in one `Vec` but are
/// written by different workers on every event.
#[repr(align(128))]
struct ShardBox<'p, P: Policy + ?Sized> {
    shard: usize,
    engine: Engine<GridEvent>,
    sim: GridSim<'p, P>,
    last_processed: u64,
    idle_windows: u64,
    rounds: u64,
    /// The engine hit its event budget; the shard publishes no further
    /// event times.
    exhausted: bool,
}

/// The [`World`] adapter every shard's engine drives: the simulator
/// core, the shard's policy (borrowed from the caller), and — on a
/// multi-shard plan — the cross-shard route. Generic over the policy
/// type: monomorphized for concrete policies, `dyn Policy` for
/// trait-object users.
struct GridSim<'p, P: Policy + ?Sized> {
    core: SimCore,
    policy: &'p mut P,
    lane_seq: Vec<u64>,
    route: Option<ShardRoute>,
}

impl<P: Policy + ?Sized> World for GridSim<'_, P> {
    type Event = GridEvent;
    fn handle(&mut self, now: SimTime, ev: GridEvent, queue: &mut EventQueue<GridEvent>) {
        let mut fel = Fel {
            queue,
            lane_seq: &mut self.lane_seq,
            route: self.route.as_mut(),
        };
        self.core.handle(now, ev, &mut fel, self.policy);
    }
    /// Folds the event's lane's held ticks keyed below it, then the event
    /// itself, into the lane's fingerprint.
    fn observe(&mut self, at: SimTime, seq: u64, ev: &GridEvent, budget: u64) -> u64 {
        let lane = self.core.lane_of(ev);
        let held = if lane < self.core.n_clusters() {
            self.core
                .fold_ticks(lane, (at, seq), budget, &mut self.lane_seq)
        } else {
            0
        };
        if held < budget {
            self.core.fold_event(lane, at, seq, ev);
        }
        held
    }
}

/// Runs one complete Grid simulation of `policy` under `cfg` and returns
/// the measured report.
///
/// The run is a pure function of `(cfg, policy)` — identical inputs give
/// identical reports. Routed through the shared template machinery: the
/// configuration is cloned exactly once (into the template's `Arc`), and
/// the run itself only carries the `Enablers` overlay.
pub fn run_simulation<P: Policy + ?Sized>(cfg: &GridConfig, policy: &mut P) -> SimReport {
    SimTemplate::new(cfg).run(cfg.enablers, policy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::LocalOnly;

    /// A run cut by the event budget still ends, on one shard and on two:
    /// an exhausted shard publishes `u64::MAX`, never its pending event
    /// time, so the window loop cannot spin on it.
    #[test]
    fn event_budget_ends_one_and_two_shard_runs() {
        let cfg = GridConfig::default();
        let template = SimTemplate::new(&cfg);
        let budget = 300;
        let run = Run {
            rep: 0,
            pooled: true,
            sample_interval: None,
            event_budget: budget,
            workers: 1,
        };
        let plan = &template.shared.full_plan;
        let (solo, ..) =
            template.execute(cfg.enablers, plan, vec![&mut LocalOnly], run, drive_inline);
        assert_eq!(solo.events_processed, budget);
        let plan = ShardPlan::contiguous(&template.shared, 2);
        let mut policies = [LocalOnly, LocalOnly];
        let (pair, summary, _) = template.execute(
            cfg.enablers,
            &plan,
            policies.iter_mut().collect(),
            Run { workers: 2, ..run },
            |boxes, rounds| drive_workers(boxes, rounds, 2),
        );
        assert_eq!(summary.shards, 2);
        assert!(summary.events_per_shard.iter().all(|&e| e <= budget));
        assert!(pair.events_processed > budget && pair.events_processed <= 2 * budget);
    }
}
