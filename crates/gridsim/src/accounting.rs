//! F/G/H accounting: the single ledger every subsystem charges into, and
//! the [`SimReport`] emitted from it when a run ends.
//!
//! Paper mapping: `f_work` is the useful work `F(k)` (service demand of
//! jobs finishing within their benefit deadline), `g_sched`/`g_est` are
//! the per-server RMS busy times summed into `G(k)`, and `h_overhead` is
//! the resource pool's job-control cost `H(k)`. The efficiency reported
//! is `E = F/(F+G+H)` (paper eq. 1).
//!
//! # Per-cluster slots and shard merging
//!
//! Every float tally is kept **per cluster** (or per estimator) and only
//! summed — in global slot order — when the report is folded. This is
//! what lets the sharded executor keep one private lane-scoped
//! `Accounting` per shard (vectors sized to the shard's own partition)
//! and combine them bit-exactly afterwards: a shard only ever charges
//! slots of lanes it owns, every global slot is owned by exactly one
//! shard, and [`Accounting::absorb_shard`] scatters each shard's local
//! slots back to their global positions (`0.0 + x == x` for the
//! non-negative tallies booked here) plus identity-respecting
//! [`Welford::merge`] and bin-wise [`Histogram::absorb`]. Both executors
//! therefore fold the same per-slot partial sums in the same order.

use crate::report::SimReport;
use crate::world::LaneScope;
use gridscale_desim::stats::{Histogram, Welford};
use gridscale_desim::SimTime;
use std::sync::Arc;

/// The run's tally sheet. Owned by the hot-state arena and reset (not
/// reallocated) between pooled runs.
///
/// All per-cluster / per-estimator vectors are sized to the owning
/// [`LaneScope`] and indexed by **local** id; callers holding a global id
/// translate once through [`Accounting::c_local`] /
/// [`Accounting::e_local`]. Under the identity scope (sequential engine,
/// single shard) local == global.
pub(crate) struct Accounting {
    /// Global cluster id → local slot (shared scope table).
    cluster_local: Arc<Vec<u32>>,
    /// Global estimator id → local slot (shared scope table).
    est_local: Arc<Vec<u32>>,
    /// Local cluster → useful work (`F`) of jobs completed in deadline.
    pub(crate) f_work: Vec<f64>,
    /// Local cluster → RP job-control cost (`H`) charged at its resources.
    pub(crate) h_overhead: Vec<f64>,
    /// Local cluster → its scheduler's accumulated busy time.
    pub(crate) g_sched: Vec<f64>,
    /// Local estimator → accumulated busy time.
    pub(crate) g_est: Vec<f64>,
    pub(crate) completed: u64,
    pub(crate) succeeded: u64,
    pub(crate) deadline_missed: u64,
    pub(crate) updates_sent: u64,
    pub(crate) updates_suppressed: u64,
    pub(crate) batches: u64,
    pub(crate) policy_msgs: u64,
    pub(crate) transfers: u64,
    pub(crate) dispatches: u64,
    pub(crate) dag_deferred: u64,
    pub(crate) msgs_sent: u64,
    /// Sized flows admitted on virtual links (bandwidth model only).
    pub(crate) net_flows: u64,
    /// Flows that were delayed or throttled by link contention.
    pub(crate) net_flows_contended: u64,
    /// Local cluster → measured transfer busy time (`size / rate`) of
    /// flows sent from its lanes. Also charged into `h_overhead` — this
    /// separate tally is what lets reports split the measured network
    /// share of `H(k)` out of the job-control constant.
    pub(crate) net_transfer_busy: Vec<f64>,
    /// Local cluster → response-time moments of jobs completed there.
    pub(crate) response: Vec<Welford>,
    pub(crate) response_hist: Histogram,
}

impl Accounting {
    pub(crate) fn new(scope: &LaneScope) -> Self {
        let n_sched = scope.clusters.len();
        let n_est = scope.estimators.len();
        Accounting {
            cluster_local: Arc::clone(&scope.cluster_local),
            est_local: Arc::clone(&scope.est_local),
            f_work: vec![0.0; n_sched],
            h_overhead: vec![0.0; n_sched],
            g_sched: vec![0.0; n_sched],
            g_est: vec![0.0; n_est],
            completed: 0,
            succeeded: 0,
            deadline_missed: 0,
            updates_sent: 0,
            updates_suppressed: 0,
            batches: 0,
            policy_msgs: 0,
            transfers: 0,
            dispatches: 0,
            dag_deferred: 0,
            msgs_sent: 0,
            net_flows: 0,
            net_flows_contended: 0,
            net_transfer_busy: vec![0.0; n_sched],
            response: vec![Welford::new(); n_sched],
            response_hist: Histogram::new(100.0, 4000),
        }
    }

    /// Zeroes every tally in place (vector lengths and the histogram's
    /// bins are structural and kept), restoring the `new` state exactly.
    pub(crate) fn reset(&mut self) {
        self.f_work.iter_mut().for_each(|g| *g = 0.0);
        self.h_overhead.iter_mut().for_each(|g| *g = 0.0);
        self.g_sched.iter_mut().for_each(|g| *g = 0.0);
        self.g_est.iter_mut().for_each(|g| *g = 0.0);
        self.completed = 0;
        self.succeeded = 0;
        self.deadline_missed = 0;
        self.updates_sent = 0;
        self.updates_suppressed = 0;
        self.batches = 0;
        self.policy_msgs = 0;
        self.transfers = 0;
        self.dispatches = 0;
        self.dag_deferred = 0;
        self.msgs_sent = 0;
        self.net_flows = 0;
        self.net_flows_contended = 0;
        self.net_transfer_busy.iter_mut().for_each(|g| *g = 0.0);
        self.response.iter_mut().for_each(|w| w.reset());
        self.response_hist.reset();
    }

    /// Local slot of global cluster `c` under this ledger's scope.
    #[inline(always)]
    pub(crate) fn c_local(&self, c: u32) -> usize {
        self.cluster_local[c as usize] as usize
    }

    /// Local slot of global estimator `e` under this ledger's scope.
    #[inline(always)]
    pub(crate) fn e_local(&self, e: u32) -> usize {
        self.est_local[e as usize] as usize
    }

    /// Approximate heap footprint of the tally vectors and histogram.
    pub(crate) fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.f_work.len() + self.h_overhead.len() + self.g_sched.len() + self.g_est.len())
            * size_of::<f64>()
            + self.response.len() * size_of::<Welford>()
            + 4000 * size_of::<u64>() // response_hist bins
    }

    /// The blessed barrier-merge: scatters a shard's lane-scoped ledger
    /// (`other`, indexed by `scope`-local ids) into this **global-scope**
    /// ledger. Every global slot is owned by exactly one shard, so each
    /// scatter target receives exactly one non-trivial partial — addition
    /// onto the `0.0` initial value reproduces the sequential per-slot
    /// sums bit-exactly, [`Welford::merge`] respects its identity, and
    /// the histogram merges bin-wise. Counters add commutatively.
    pub(crate) fn absorb_shard(&mut self, other: &Accounting, scope: &LaneScope) {
        debug_assert_eq!(other.f_work.len(), scope.clusters.len());
        debug_assert_eq!(other.g_est.len(), scope.estimators.len());
        for (lc, &gc) in scope.clusters.iter().enumerate() {
            let gc = gc as usize;
            self.f_work[gc] += other.f_work[lc];
            self.h_overhead[gc] += other.h_overhead[lc];
            self.g_sched[gc] += other.g_sched[lc];
            self.net_transfer_busy[gc] += other.net_transfer_busy[lc];
            self.response[gc].merge(&other.response[lc]);
        }
        for (le, &ge) in scope.estimators.iter().enumerate() {
            self.g_est[ge as usize] += other.g_est[le];
        }
        self.completed += other.completed;
        self.succeeded += other.succeeded;
        self.deadline_missed += other.deadline_missed;
        self.updates_sent += other.updates_sent;
        self.updates_suppressed += other.updates_suppressed;
        self.batches += other.batches;
        self.policy_msgs += other.policy_msgs;
        self.transfers += other.transfers;
        self.dispatches += other.dispatches;
        self.dag_deferred += other.dag_deferred;
        self.msgs_sent += other.msgs_sent;
        self.net_flows += other.net_flows;
        self.net_flows_contended += other.net_flows_contended;
        self.response_hist.absorb(&other.response_hist);
    }

    /// Folds the tallies into a [`SimReport`]. Must run on a ledger whose
    /// scope covers the whole world (sequential run or post-merge
    /// accumulator), so local slot order *is* global slot order.
    ///
    /// Every float fold below is an in-order chain over the per-slot
    /// partial sums (schedulers then estimators for `g_busy_raw`,
    /// cluster order for `F`/`H`/response) — part of the
    /// bit-reproducibility contract, so the summation order must never
    /// change.
    #[allow(clippy::too_many_arguments, reason = "report inputs have many owners")]
    pub(crate) fn report(
        &self,
        policy: &str,
        horizon: SimTime,
        events_processed: u64,
        jobs_total: u64,
        res_busy: &[f64],
        overhead_weight: f64,
        nodes: usize,
    ) -> SimReport {
        let a = self;
        let g_busy_raw: f64 = a.g_sched.iter().chain(a.g_est.iter()).sum();
        let g = g_busy_raw * overhead_weight;
        let h: f64 = a.h_overhead.iter().sum();
        let f: f64 = a.f_work.iter().sum();
        let efficiency = if f > 0.0 { f / (f + g + h) } else { 0.0 };
        let ht = horizon.as_f64();
        let busy_total: f64 = res_busy.iter().sum();
        let n_res = res_busy.len();
        let mut response = Welford::new();
        for w in &a.response {
            response.merge(w);
        }
        SimReport {
            policy: policy.to_string(),
            f_work: f,
            g_overhead: g,
            h_overhead: h,
            efficiency,
            jobs_total,
            completed: a.completed,
            succeeded: a.succeeded,
            deadline_missed: a.deadline_missed,
            unfinished: jobs_total - a.completed,
            throughput: a.completed as f64 / ht,
            goodput: a.succeeded as f64 / ht,
            mean_response: response.mean(),
            p95_response: a.response_hist.quantile(0.95).unwrap_or(0.0),
            updates_sent: a.updates_sent,
            updates_suppressed: a.updates_suppressed,
            batches: a.batches,
            policy_msgs: a.policy_msgs,
            transfers: a.transfers,
            dispatches: a.dispatches,
            dag_deferred: a.dag_deferred,
            g_busy_raw,
            g_busy_max_scheduler: a.g_sched.iter().copied().fold(0.0, f64::max),
            resource_utilization: if n_res == 0 {
                0.0
            } else {
                busy_total / (n_res as f64 * ht)
            },
            horizon_ticks: horizon.ticks(),
            nodes,
            events_processed,
            msgs_sent: a.msgs_sent,
            net_flows: a.net_flows,
            net_flows_contended: a.net_flows_contended,
            net_transfer_busy: a.net_transfer_busy.iter().sum(),
            // Stamped by SimCore::report, which owns the running hash.
            event_fingerprint: 0,
        }
    }
}
