//! The policy-facing API, split into capability traits.
//!
//! [`Ctx`] is the handle a [`Policy`](crate::Policy) callback receives.
//! Instead of one god-object surface, its abilities are factored into
//! five narrow traits so each policy imports (and thereby declares)
//! exactly what it touches:
//!
//! * [`Clock`] — reading simulated time;
//! * [`Telemetry`] — read-only queries over the acting scheduler's
//!   (stale) knowledge: views, loads, workload statistics, enablers;
//! * [`Dispatch`] — cost-charged job movement: local dispatch, transfer,
//!   recall;
//! * [`Comms`] — inter-scheduler messaging, correlation tokens, and the
//!   policy RNG stream;
//! * [`Timers`] — arming policy timers.
//!
//! Every action charges its decision cost to the acting scheduler's `G`
//! before the wire leaves the building, so a policy cannot act for free.
//!
//! A `Ctx` is always scoped to the **acting lane** (the cluster whose
//! scheduler is processing the work item): its RNG stream, correlation
//! tokens, and emitted events all belong to that lane, which is what
//! keeps policy behaviour a function of per-lane history only — the
//! property the sharded executor's determinism rests on.

use crate::config::{Enablers, Thresholds};
use crate::event::GridEvent;
use crate::fel::Fel;
use crate::kernel::SimCore;
use crate::msg::{Msg, PolicyMsg};
use crate::view::ClusterView;
use gridscale_desim::{SimRng, SimTime};
use gridscale_workload::Job;

/// The policy-facing handle: queries about the acting scheduler's (stale)
/// knowledge plus cost-charged actions, exposed through the capability
/// traits [`Clock`], [`Telemetry`], [`Dispatch`], [`Comms`], [`Timers`].
pub struct Ctx<'a, 'q> {
    pub(crate) core: &'a mut SimCore,
    pub(crate) fel: &'a mut Fel<'q>,
    pub(crate) now: SimTime,
    /// The acting lane (= the cluster index of the scheduler whose work
    /// item is being processed).
    pub(crate) lane: usize,
}

/// Reading simulated time.
pub trait Clock {
    /// Current simulated time.
    fn now(&self) -> SimTime;
}

/// Read-only queries over what the acting scheduler knows (which is
/// deliberately stale — updates take network time and server time).
pub trait Telemetry {
    /// Number of clusters (= schedulers).
    fn clusters(&self) -> usize;

    /// Resources in cluster `c`.
    fn cluster_size(&self, c: usize) -> usize;

    /// The scheduler's (stale) view of its cluster.
    fn view(&self, c: usize) -> &ClusterView;

    /// Believed mean load (jobs per resource) of cluster `c`.
    fn avg_load(&self, c: usize) -> f64;

    /// Believed busy fraction (RUS) of cluster `c`.
    fn rus(&self, c: usize) -> f64;

    /// Approximate waiting time for a new arrival in cluster `c`.
    fn awt(&self, c: usize) -> f64;

    /// Expected run time of a job with demand `exec` on this Grid's
    /// (homogeneous) resources.
    fn ert(&self, exec: SimTime) -> f64;

    /// The analytic mean service demand of the workload (the schedulers'
    /// demand estimate).
    fn mean_demand(&self) -> f64;

    /// Resource service rate.
    fn service_rate(&self) -> f64;

    /// The active scaling enablers.
    fn enablers(&self) -> Enablers;

    /// The policy thresholds (Table 1).
    fn thresholds(&self) -> Thresholds;

    /// Peer clusters of `c` ranked by scheduler-to-scheduler network
    /// latency (ties → lower cluster id). Precomputed once per template;
    /// O(1) per lookup.
    fn ranked_peers(&self, c: usize) -> &[u32];
}

/// Cost-charged job movement between schedulers and resources.
pub trait Dispatch {
    /// Dispatches `job` to the resource at `pos` of cluster `c`: charges
    /// the dispatch cost, optimistically bumps the view, and sends the job
    /// over the network.
    fn dispatch_local(&mut self, c: usize, pos: usize, job: Job);

    /// Dispatches to the believed least-loaded resource of cluster `c`.
    fn dispatch_least_loaded(&mut self, c: usize, job: Job);

    /// Transfers `job` from cluster `from` to cluster `to`; the receiving
    /// scheduler will process it as
    /// [`WorkItem::TransferIn`](crate::WorkItem::TransferIn).
    fn transfer(&mut self, from: usize, to: usize, job: Job);

    /// Asks the resource at `pos` of cluster `c` to hand one queued job
    /// back for migration to `to_cluster` (no-op at the resource if its
    /// queue is empty by then).
    fn recall(&mut self, c: usize, pos: usize, to_cluster: usize);
}

/// Inter-scheduler communication and the policy RNG stream.
pub trait Comms {
    /// Sends a policy message from cluster `from` to cluster `to`
    /// (middleware-routed for the S-I/R-I/Sy-I family).
    fn send_policy(&mut self, from: usize, to: usize, msg: PolicyMsg);

    /// A fresh correlation token for pending-reply tables (unique across
    /// the run; drawn from the acting lane's counter).
    fn next_token(&mut self) -> u64;

    /// The acting scheduler's policy RNG stream.
    fn rng(&mut self) -> &mut SimRng;

    /// `n` distinct random clusters other than `c` (fewer if the Grid has
    /// fewer peers): clears `out` and fills it, reusing the buffer's
    /// capacity.
    fn random_remotes_into(&mut self, c: usize, n: usize, out: &mut Vec<usize>);
}

/// Arming policy timers.
pub trait Timers {
    /// Arms a policy timer at cluster `c`, `delay` ticks from now; it will
    /// surface as [`Policy::on_timer`](crate::Policy::on_timer) with `tag`
    /// after passing through the scheduler's work queue. `c` must be the
    /// acting cluster — policies arm their own timers.
    fn set_timer(&mut self, c: usize, delay: SimTime, tag: u64);
}

impl Clock for Ctx<'_, '_> {
    fn now(&self) -> SimTime {
        self.now
    }
}

impl Telemetry for Ctx<'_, '_> {
    fn clusters(&self) -> usize {
        self.core.n_clusters()
    }

    fn cluster_size(&self, c: usize) -> usize {
        self.core.shared.layout.members[c].len()
    }

    fn view(&self, c: usize) -> &ClusterView {
        &self.core.hot.sched.views[self.core.hot.sched.local(c)]
    }

    fn avg_load(&self, c: usize) -> f64 {
        self.core.hot.sched.views[self.core.hot.sched.local(c)].avg_load()
    }

    fn rus(&self, c: usize) -> f64 {
        self.core.hot.sched.views[self.core.hot.sched.local(c)].rus()
    }

    fn awt(&self, c: usize) -> f64 {
        self.core.hot.sched.views[self.core.hot.sched.local(c)]
            .awt(self.core.shared.mean_demand, self.core.cfg.service_rate)
    }

    fn ert(&self, exec: SimTime) -> f64 {
        exec.as_f64() / self.core.cfg.service_rate
    }

    fn mean_demand(&self) -> f64 {
        self.core.shared.mean_demand
    }

    fn service_rate(&self) -> f64 {
        self.core.cfg.service_rate
    }

    fn enablers(&self) -> Enablers {
        self.core.enablers
    }

    fn thresholds(&self) -> Thresholds {
        self.core.cfg.thresholds
    }

    fn ranked_peers(&self, c: usize) -> &[u32] {
        &self.core.shared.layout.ranked_peers[c]
    }
}

impl Dispatch for Ctx<'_, '_> {
    fn dispatch_local(&mut self, c: usize, pos: usize, job: Job) {
        let cost = self.core.cfg.costs.dispatch;
        self.core.charge_sched(c, cost);
        let cl = self.core.hot.sched.local(c);
        self.core.hot.sched.views[cl].bump(pos, 1.0);
        self.core.hot.acct.dispatches += 1;
        let res = self.core.shared.layout.members[c][pos];
        let from = self.core.shared.layout.sched_node[c];
        let to = self.core.shared.layout.res_node[res as usize];
        self.core.send_net(
            self.now,
            self.lane,
            from,
            to,
            Msg::Dispatch { job },
            false,
            self.fel,
        );
    }

    fn dispatch_least_loaded(&mut self, c: usize, job: Job) {
        #[expect(clippy::expect_used, reason = "GridMap never builds an empty cluster")]
        let pos = self.core.hot.sched.views[self.core.hot.sched.local(c)]
            .least_loaded()
            .expect("clusters are never empty (GridMap guarantee)");
        self.dispatch_local(c, pos, job);
    }

    fn transfer(&mut self, from: usize, to: usize, job: Job) {
        debug_assert_ne!(from, to, "transfer to self");
        let cost = self.core.cfg.costs.dispatch;
        self.core.charge_sched(from, cost);
        self.core.hot.acct.transfers += 1;
        let f = self.core.shared.layout.sched_node[from];
        let t = self.core.shared.layout.sched_node[to];
        let mw = self.core.net.use_middleware;
        self.core.send_net(
            self.now,
            self.lane,
            f,
            t,
            Msg::Transfer { job },
            mw,
            self.fel,
        );
    }

    fn recall(&mut self, c: usize, pos: usize, to_cluster: usize) {
        let cost = self.core.cfg.costs.dispatch;
        self.core.charge_sched(c, cost);
        let cl = self.core.hot.sched.local(c);
        self.core.hot.sched.views[cl].bump(pos, -1.0);
        let res = self.core.shared.layout.members[c][pos];
        let from = self.core.shared.layout.sched_node[c];
        let to = self.core.shared.layout.res_node[res as usize];
        self.core.send_net(
            self.now,
            self.lane,
            from,
            to,
            Msg::Recall {
                to_cluster: to_cluster as u32,
            },
            false,
            self.fel,
        );
    }
}

impl Comms for Ctx<'_, '_> {
    fn send_policy(&mut self, from: usize, to: usize, msg: PolicyMsg) {
        debug_assert_ne!(from, to, "policy message to self");
        let cost = self.core.cfg.costs.dispatch;
        self.core.charge_sched(from, cost);
        let f = self.core.shared.layout.sched_node[from];
        let t = self.core.shared.layout.sched_node[to];
        let mw = self.core.net.use_middleware;
        self.core
            .send_net(self.now, self.lane, f, t, Msg::Policy(msg), mw, self.fel);
    }

    fn next_token(&mut self) -> u64 {
        self.core.next_token(self.lane)
    }

    fn rng(&mut self) -> &mut SimRng {
        &mut self.core.lane_rngs[self.lane]
    }

    fn random_remotes_into(&mut self, c: usize, n: usize, out: &mut Vec<usize>) {
        let total = self.core.n_clusters();
        out.clear();
        if total <= 1 {
            return;
        }
        self.core.lane_rngs[self.lane].sample_indices_into(total - 1, n.min(total - 1), out);
        for i in out.iter_mut() {
            if *i >= c {
                *i += 1;
            }
        }
    }
}

impl Timers for Ctx<'_, '_> {
    fn set_timer(&mut self, c: usize, delay: SimTime, tag: u64) {
        debug_assert_eq!(c, self.lane, "policies arm timers on their own cluster");
        self.fel.schedule(
            self.lane,
            self.now + delay,
            GridEvent::PolicyTimer {
                cluster: c as u32,
                tag,
            },
        );
    }
}
