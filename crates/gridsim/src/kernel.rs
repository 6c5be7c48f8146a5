//! The event kernel: owns the subsystems, routes every [`GridEvent`] to
//! its owning subsystem, and trampolines scheduler decisions into the
//! active [`Policy`].
//!
//! The kernel itself makes no scheduling decisions and charges no costs —
//! it only moves events between the link fabric ([`crate::net`]), the
//! scheduler stations ([`crate::sched`]), the resource pool
//! ([`crate::resource`]), and the estimators ([`crate::estimator`]), all
//! of which book into the single [`Accounting`] ledger.
//!
//! # Lane discipline
//!
//! Every event belongs to exactly one **lane** (see
//! [`SimCore::lane_of`]): cluster lanes `0..C`, estimator lanes
//! `C..C+E`, and the global timeline lane `C+E`. Handling an event at
//! lane `l` mutates only lane-`l` state — its RNG stream
//! (`lane_rngs[l]`), token counter, accounting slots, subsystem scratch
//! — and every event it emits is stamped with `src_lane == l`. This is
//! the invariant that makes the event stream a deterministic function of
//! per-lane histories, independent of how lanes are interleaved — and
//! therefore lets the sharded executor run disjoint lane groups on
//! worker threads and still reproduce the sequential fingerprint
//! bit-for-bit.
//!
//! [`Accounting`]: crate::accounting::Accounting

use crate::config::{Enablers, GridConfig};
use crate::ctx::Ctx;
use crate::event::{GridEvent, WorkItem};
use crate::fel::{Fel, LANE_SHIFT};
use crate::msg::Msg;
use crate::net::NetFabric;
use crate::policy::Policy;
use crate::report::SimReport;
use crate::sim::HotState;
use crate::timeline::{Sample, Timeline};
use crate::world::SharedWorld;
use gridscale_desim::{SimRng, SimTime};
use gridscale_topology::NodeId;
use gridscale_workload::JobClass;
use std::sync::Arc;

/// All simulator state except the policy (which is borrowed per event so
/// that policy callbacks can mutably access both).
pub(crate) struct SimCore {
    pub(crate) cfg: Arc<GridConfig>,
    /// The per-run enabler overlay; read instead of `cfg.enablers`.
    pub(crate) enablers: Enablers,
    pub(crate) shared: Arc<SharedWorld>,
    /// Lane → its private RNG stream, forked position-independently from
    /// the simulation root so a lane's draw sequence depends only on its
    /// own history.
    pub(crate) lane_rngs: Vec<SimRng>,
    pub(crate) hot: HotState,
    /// The link fabric (and its per-lane middleware queue state).
    pub(crate) net: NetFabric,
    /// Lane → its correlation-token counter (tokens are
    /// `lane << LANE_SHIFT | count`, unique without global coordination).
    pub(crate) lane_tokens: Vec<u64>,
    /// Lane → running event-stream fingerprint of the events *handled* by
    /// that lane: each delivered `(at, seq, fp_word)` tuple folded through
    /// a splitmix64-style mixer. The run fingerprint is [`fold_lanes`] of
    /// this vector; two runs with equal fingerprints delivered the same
    /// events in the same per-lane order — the runtime half of the
    /// determinism contract (clippy's lints in `clippy.toml` check the
    /// static half; DESIGN.md §6.4).
    pub(crate) lane_fp: Vec<u64>,
    /// Optional time-series recorder.
    pub(crate) timeline: Option<Timeline>,
}

/// One round of the splitmix64 finalizer: a cheap, well-mixed 64-bit
/// permutation. Used to fold event tuples into the stream fingerprint.
#[inline]
pub(crate) fn fp_mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Folds the per-lane fingerprints into the single run fingerprint, in
/// lane order. Shared by the sequential report path and the sharded
/// merge (where each lane's slot is non-zero in exactly one shard), so
/// both executors publish the same value for the same event streams.
pub(crate) fn fold_lanes(lane_fp: &[u64]) -> u64 {
    let mut fp = 0u64;
    for (lane, &f) in lane_fp.iter().enumerate() {
        fp = fp_mix(fp ^ f.wrapping_add(fp_mix(lane as u64)));
    }
    fp
}

impl SimCore {
    /// `seed` is the template's RNG root (usually `cfg.seed`; a replica
    /// template overrides it) and `rep` is the replication index: rep 0
    /// draws the per-run streams from `root.fork(3)` exactly as always,
    /// while rep `i > 0` forks one level deeper (`root.fork(3).fork(i)`)
    /// so only the simulation-side streams — arrival lane draws, update /
    /// flush staggers, policy randomness — change between replications of
    /// one shared world.
    pub(crate) fn new(
        cfg: Arc<GridConfig>,
        enablers: Enablers,
        shared: Arc<SharedWorld>,
        hot: HotState,
        seed: u64,
        rep: u64,
    ) -> SimCore {
        let root = SimRng::new(seed);
        let base = root.fork(3);
        let sim_root = if rep == 0 { base } else { base.fork(rep) };
        let n_lanes = shared.layout.n_lanes();
        let lane_rngs = (0..n_lanes).map(|l| sim_root.fork(l as u64)).collect();
        let net = NetFabric::new(enablers.link_delay_factor, cfg.middleware_service, n_lanes);
        SimCore {
            cfg,
            enablers,
            shared,
            lane_rngs,
            hot,
            net,
            lane_tokens: vec![0; n_lanes],
            lane_fp: vec![0; n_lanes],
            timeline: None,
        }
    }

    #[inline]
    pub(crate) fn n_clusters(&self) -> usize {
        self.shared.layout.members.len()
    }

    /// The lane that handles `ev` — the partitioning function of the
    /// sharded executor and the index of every per-lane stream.
    #[inline]
    pub(crate) fn lane_of(&self, ev: &GridEvent) -> usize {
        let l = &self.shared.layout;
        match ev {
            GridEvent::Arrival(i) => {
                (self.shared.trace[*i as usize].submit_point as usize) % l.members.len()
            }
            GridEvent::Deliver { to, .. } => l.node_lane[*to as usize] as usize,
            GridEvent::Finish { res } | GridEvent::UpdateTick { res } => {
                l.res_cluster[*res as usize] as usize
            }
            GridEvent::EstFlush { est } => l.members.len() + *est as usize,
            GridEvent::SchedWork { sched, .. } => *sched as usize,
            GridEvent::PolicyTimer { cluster, .. } => *cluster as usize,
            GridEvent::Sample => l.global_lane(),
        }
    }

    /// Seeds arrivals, update ticks, and estimator flush timers.
    ///
    /// Only events whose lane `shard_of_lane` puts on `shard` are
    /// scheduled. The iteration still visits every slot in global order,
    /// but each slot's stagger draw comes from the *target lane's* RNG
    /// and each event from the target lane's sequence counter, so
    /// restricting to owned lanes leaves every owned lane's stream
    /// identical to the 1-shard run's.
    pub(crate) fn bootstrap(&mut self, fel: &mut Fel, shard_of_lane: &[u32], shard: u32) {
        let owns = |lane: usize| shard_of_lane[lane] == shard;
        let nc = self.n_clusters();
        match self.shared.dag.as_ref() {
            None => {
                for (i, job) in self.shared.trace.iter().enumerate() {
                    let lane = (job.submit_point as usize) % nc;
                    if owns(lane) {
                        fel.schedule(lane, job.arrival, GridEvent::Arrival(i as u32));
                    }
                }
            }
            Some(dag) => {
                // Only dependency roots arrive on schedule; the rest are
                // released as their parents complete.
                for j in dag.roots() {
                    let job = &self.shared.trace[j as usize];
                    let lane = (job.submit_point as usize) % nc;
                    if owns(lane) {
                        fel.schedule(lane, job.arrival, GridEvent::Arrival(j as u32));
                    }
                }
            }
        }
        let tau = self.enablers.update_interval;
        let nr = self.shared.layout.res_node.len();
        for r in 0..nr {
            let lane = self.shared.layout.res_cluster[r] as usize;
            if !owns(lane) {
                continue;
            }
            let stagger = self.lane_rngs[lane].int_range(1, tau.max(1));
            fel.schedule(
                lane,
                SimTime::from_ticks(stagger),
                GridEvent::UpdateTick { res: r as u32 },
            );
        }
        let flush = self.flush_interval();
        let ne = self.shared.layout.est_node.len();
        for e in 0..ne {
            let lane = nc + e;
            if !owns(lane) {
                continue;
            }
            let stagger = self.lane_rngs[lane].int_range(1, flush.max(1));
            fel.schedule(
                lane,
                SimTime::from_ticks(stagger),
                GridEvent::EstFlush { est: e as u32 },
            );
        }
    }

    fn flush_interval(&self) -> u64 {
        (self.enablers.update_interval / 2).max(1)
    }

    /// A fresh correlation token for `lane`: unique across the run, and
    /// a function of the lane's own issue count only.
    #[inline]
    pub(crate) fn next_token(&mut self, lane: usize) -> u64 {
        self.lane_tokens[lane] += 1;
        ((lane as u64) << LANE_SHIFT) | self.lane_tokens[lane]
    }

    /// Charges decision-time work to scheduler `c` (see
    /// [`SchedulerBank::charge`](crate::sched::SchedulerBank::charge)).
    pub(crate) fn charge_sched(&mut self, c: usize, cost: f64) {
        self.hot.sched.charge(c, cost, &mut self.hot.acct);
    }

    /// Sends one message over the link fabric from `src_lane` (see
    /// [`NetFabric::send`]).
    #[allow(clippy::too_many_arguments, reason = "mirrors NetFabric::send")]
    pub(crate) fn send_net(
        &mut self,
        now: SimTime,
        src_lane: usize,
        from: NodeId,
        to: NodeId,
        msg: Msg,
        via_middleware: bool,
        fel: &mut Fel,
    ) {
        self.net.send(
            now,
            src_lane,
            from,
            to,
            msg,
            via_middleware,
            &self.shared,
            &mut self.hot.acct,
            fel,
        );
    }

    fn enqueue_sched_work(&mut self, now: SimTime, c: usize, item: WorkItem, fel: &mut Fel) {
        let members = self.shared.layout.members[c].len() as f64;
        self.hot
            .sched
            .enqueue_work(now, c, item, &self.cfg.costs, members, fel);
    }

    pub(crate) fn handle<P: Policy + ?Sized>(
        &mut self,
        now: SimTime,
        ev: GridEvent,
        fel: &mut Fel,
        policy: &mut P,
    ) {
        match ev {
            GridEvent::Arrival(i) => {
                let mut job = self.shared.trace[i as usize];
                // For dependency-released jobs the effective arrival is the
                // release instant; for independent jobs this is a no-op.
                job.arrival = now;
                let c = (job.submit_point as usize) % self.n_clusters();
                // The submission host is a random resource of the arrival
                // cluster; the submit message pays the network distance to
                // the coordinating scheduler.
                let n_members = self.shared.layout.members[c].len();
                let pick = self.lane_rngs[c].index(n_members);
                let host = self.shared.layout.members[c][pick];
                let from = self.shared.layout.res_node[host as usize];
                let to = self.shared.layout.sched_node[c];
                self.send_net(now, c, from, to, Msg::Submit { job }, false, fel);
            }

            GridEvent::Deliver { to, msg } => self.deliver(now, to, msg, fel),

            GridEvent::Finish { res } => {
                let r = res as usize;
                let rl = self.hot.rp.local(r);
                #[expect(clippy::expect_used, reason = "Finish follows a job start")]
                let job = self.hot.rp.running[rl]
                    .take()
                    .expect("Finish without a running job");
                let cluster = self.shared.layout.res_cluster[r] as usize;
                self.hot.rp.complete_job(
                    now,
                    job,
                    cluster,
                    &self.shared,
                    self.cfg.dag_data_cost,
                    &mut self.net,
                    &mut self.hot.acct,
                    fel,
                );
                if let Some(next) = self.hot.rp.queue[rl].pop_front() {
                    self.hot
                        .rp
                        .start_job(now, r, cluster, next, self.cfg.service_rate, fel);
                }
            }

            GridEvent::UpdateTick { res } => {
                let r = res as usize;
                let rl = self.hot.rp.local(r);
                let lane = self.shared.layout.res_cluster[r] as usize;
                let load = self.hot.rp.load(r);
                let delta = (load - self.hot.rp.last_sent[rl]).abs();
                if delta >= self.cfg.thresholds.suppress_delta {
                    self.hot.rp.last_sent[rl] = load;
                    self.hot.acct.updates_sent += 1;
                    let rnode = self.shared.layout.res_node[r];
                    let dest = match self.shared.map.estimator_for(rnode) {
                        Some(e) => e,
                        None => self.shared.layout.sched_node[lane],
                    };
                    self.send_net(
                        now,
                        lane,
                        rnode,
                        dest,
                        Msg::StatusUpdate { res, load },
                        false,
                        fel,
                    );
                } else {
                    self.hot.acct.updates_suppressed += 1;
                }
                // τ is fixed for the run and each re-arm follows the tick
                // that just fired, so the periodic FIFO stays sorted.
                let tau = self.enablers.update_interval;
                fel.schedule_periodic(
                    lane,
                    now + SimTime::from_ticks(tau),
                    GridEvent::UpdateTick { res },
                );
            }

            GridEvent::EstFlush { est } => {
                let e = est as usize;
                self.hot.est.flush(
                    now,
                    e,
                    self.cfg.costs.batch_fixed,
                    &self.shared,
                    &mut self.net,
                    &mut self.hot.acct,
                    fel,
                );
                let flush = self.flush_interval();
                let lane = self.n_clusters() + e;
                fel.schedule(
                    lane,
                    now + SimTime::from_ticks(flush),
                    GridEvent::EstFlush { est },
                );
            }

            GridEvent::PolicyTimer { cluster, tag } => {
                self.enqueue_sched_work(now, cluster as usize, WorkItem::Timer(tag), fel);
            }

            GridEvent::Sample => {
                if let Some(mut tl) = self.timeline.take() {
                    let nr = self.shared.layout.res_node.len();
                    let mut sum = 0.0;
                    let mut max_load: f64 = 0.0;
                    for r in 0..nr {
                        let l = self.hot.rp.load(r);
                        sum += l;
                        max_load = max_load.max(l);
                    }
                    let mean_load = sum / nr.max(1) as f64;
                    let rms_backlog = self
                        .hot
                        .sched
                        .next_free
                        .iter()
                        .map(|nf| (nf - now.as_f64()).max(0.0))
                        .fold(0.0, f64::max);
                    let g_busy_so_far: f64 = self
                        .hot
                        .acct
                        .g_sched
                        .iter()
                        .chain(self.hot.acct.g_est.iter())
                        .sum();
                    let sample = Sample {
                        at: now,
                        mean_load,
                        max_load,
                        rms_backlog,
                        f_so_far: self.hot.acct.f_work.iter().sum(),
                        g_busy_so_far,
                        completed: self.hot.acct.completed,
                    };
                    tl.push(sample);
                    let interval = tl.interval();
                    let lane = self.shared.layout.global_lane();
                    fel.schedule(lane, now + SimTime::from_ticks(interval), GridEvent::Sample);
                    self.timeline = Some(tl);
                }
            }

            GridEvent::SchedWork { sched, item, cost } => {
                let c = sched as usize;
                let cl = self.hot.acct.c_local(sched);
                self.hot.acct.g_sched[cl] += cost;
                match item {
                    WorkItem::Job(job) => {
                        let class = job.class(self.cfg.thresholds.t_cpu);
                        let mut ctx = Ctx {
                            core: self,
                            fel,
                            now,
                            lane: c,
                        };
                        match class {
                            JobClass::Local => policy.on_local_job(&mut ctx, c, job),
                            JobClass::Remote => policy.on_remote_job(&mut ctx, c, job),
                        }
                    }
                    WorkItem::TransferIn(job) => {
                        let mut ctx = Ctx {
                            core: self,
                            fel,
                            now,
                            lane: c,
                        };
                        policy.on_transfer_in(&mut ctx, c, job);
                    }
                    WorkItem::Update { res, load } => {
                        self.apply_update(now, c, res, load, fel, policy);
                    }
                    WorkItem::Batch(updates) => {
                        for (res, load) in updates {
                            self.apply_update(now, c, res, load, fel, policy);
                        }
                    }
                    WorkItem::Policy(msg) => {
                        let mut ctx = Ctx {
                            core: self,
                            fel,
                            now,
                            lane: c,
                        };
                        policy.on_policy_msg(&mut ctx, c, msg);
                    }
                    WorkItem::Timer(tag) => {
                        let mut ctx = Ctx {
                            core: self,
                            fel,
                            now,
                            lane: c,
                        };
                        policy.on_timer(&mut ctx, c, tag);
                    }
                }
            }
        }
    }

    fn apply_update<P: Policy + ?Sized>(
        &mut self,
        now: SimTime,
        c: usize,
        res: u32,
        load: f64,
        fel: &mut Fel,
        policy: &mut P,
    ) {
        // Guard against misrouted updates (cluster mismatch cannot happen
        // by construction, but stay defensive).
        if self.shared.layout.res_cluster[res as usize] as usize != c {
            return;
        }
        let pos = self.shared.layout.res_pos[res as usize] as usize;
        let cl = self.hot.sched.local(c);
        self.hot.sched.views[cl].apply_update(pos, load, now);
        let mut ctx = Ctx {
            core: self,
            fel,
            now,
            lane: c,
        };
        policy.on_update(&mut ctx, c, pos, load);
    }

    fn deliver(&mut self, now: SimTime, to: NodeId, msg: Msg, fel: &mut Fel) {
        match msg {
            Msg::Dispatch { job } => {
                let r = self.shared.layout.res_at_node[to as usize];
                debug_assert_ne!(r, u32::MAX, "Dispatch to a non-resource node");
                let cluster = self.shared.layout.res_cluster[r as usize] as usize;
                self.hot.rp.enqueue(
                    now,
                    r as usize,
                    cluster,
                    job,
                    self.cfg.costs.rp_job_control,
                    self.cfg.service_rate,
                    &mut self.hot.acct,
                    fel,
                );
            }
            Msg::Recall { to_cluster } => {
                let r = self.shared.layout.res_at_node[to as usize];
                debug_assert_ne!(r, u32::MAX, "Recall to a non-resource node");
                let rl = self.hot.rp.local(r as usize);
                if let Some(job) = self.hot.rp.queue[rl].pop_back() {
                    self.hot.acct.transfers += 1;
                    let lane = self.shared.layout.res_cluster[r as usize] as usize;
                    let from = self.shared.layout.res_node[r as usize];
                    let dest = self.shared.layout.sched_node[to_cluster as usize];
                    self.send_net(now, lane, from, dest, Msg::Transfer { job }, false, fel);
                }
            }
            Msg::StatusUpdate { res, load } => {
                let e = self.shared.layout.est_at_node[to as usize];
                if e != u32::MAX {
                    let ci = self.shared.layout.res_cluster[res as usize] as usize;
                    self.hot.est.ingest(
                        now,
                        e as usize,
                        res,
                        load,
                        ci,
                        self.cfg.costs.update,
                        &mut self.hot.acct,
                    );
                } else {
                    let c = self.shared.layout.sched_at_node[to as usize];
                    debug_assert_ne!(c, u32::MAX, "update to a non-RMS node");
                    self.enqueue_sched_work(now, c as usize, WorkItem::Update { res, load }, fel);
                }
            }
            Msg::StatusBatch { updates } => {
                let c = self.shared.layout.sched_at_node[to as usize];
                debug_assert_ne!(c, u32::MAX);
                self.enqueue_sched_work(now, c as usize, WorkItem::Batch(updates), fel);
            }
            Msg::Submit { job } => {
                let c = self.shared.layout.sched_at_node[to as usize];
                debug_assert_ne!(c, u32::MAX);
                self.enqueue_sched_work(now, c as usize, WorkItem::Job(job), fel);
            }
            Msg::Transfer { job } => {
                let c = self.shared.layout.sched_at_node[to as usize];
                debug_assert_ne!(c, u32::MAX);
                self.enqueue_sched_work(now, c as usize, WorkItem::TransferIn(job), fel);
            }
            Msg::Policy(pmsg) => {
                let c = self.shared.layout.sched_at_node[to as usize];
                debug_assert_ne!(c, u32::MAX);
                self.hot.acct.policy_msgs += 1;
                self.enqueue_sched_work(now, c as usize, WorkItem::Policy(pmsg), fel);
            }
        }
    }

    /// Folds one delivered event into its handling lane's fingerprint.
    /// Called by the engine's observe hook for *every* delivery, before
    /// handling.
    #[inline]
    pub(crate) fn fold_event(&mut self, at: SimTime, seq: u64, ev: &GridEvent) {
        let lane = self.lane_of(ev);
        let word = fp_mix(at.ticks())
            .wrapping_add(fp_mix(seq))
            .wrapping_add(fp_mix(ev.fp_word()));
        self.lane_fp[lane] = fp_mix(self.lane_fp[lane] ^ word);
    }

    /// Folds the run's ledger into a [`SimReport`].
    pub(crate) fn report(
        &self,
        policy: &str,
        horizon: SimTime,
        events_processed: u64,
    ) -> SimReport {
        let mut report = self.hot.acct.report(
            policy,
            horizon,
            events_processed,
            self.shared.trace.len() as u64,
            &self.hot.rp.busy,
            self.cfg.costs.overhead_weight,
            self.cfg.nodes,
        );
        report.event_fingerprint = fold_lanes(&self.lane_fp);
        report
    }
}
