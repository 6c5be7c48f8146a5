//! The resource pool (RP) — the paper's *managee*: homogeneous resources
//! executing jobs FIFO at a finite service rate. Owns the run queues,
//! busy accounting, completion bookkeeping (useful work `F`, per-job RP
//! control cost `H`), and dependency release for the DAG extension.

use crate::accounting::Accounting;
use crate::event::GridEvent;
use crate::fel::Fel;
use crate::net::NetFabric;
use crate::world::{LaneScope, SharedWorld};
use gridscale_desim::SimTime;
use gridscale_workload::Job;
use std::collections::VecDeque;
use std::sync::Arc;

/// Per-resource execution state, struct-of-arrays sized to the owning
/// [`LaneScope`] and indexed by **local** resource id (identity scope ⇒
/// local == global). Method parameters and emitted events stay in global
/// ids; [`ResourcePool::local`] translates at the boundary.
pub(crate) struct ResourcePool {
    /// Global resource id → local slot (shared scope table).
    res_local: Arc<Vec<u32>>,
    /// Local resource → queued jobs.
    pub(crate) queue: Vec<VecDeque<Job>>,
    /// Local resource → the running job, if any.
    pub(crate) running: Vec<Option<Job>>,
    /// Local resource → load value of its last non-suppressed update.
    pub(crate) last_sent: Vec<f64>,
    /// Local resource → accumulated busy ticks.
    pub(crate) busy: Vec<f64>,
    /// Per-job countdown of unmet dependencies (empty when no DAG; the
    /// DAG extension is sequential-only, so this is never lane-scoped).
    pub(crate) remaining_parents: Vec<u32>,
}

impl ResourcePool {
    pub(crate) fn new(scope: &LaneScope, parent_counts: &[u32]) -> ResourcePool {
        let n_res = scope.resources.len();
        ResourcePool {
            res_local: Arc::clone(&scope.res_local),
            queue: (0..n_res).map(|_| VecDeque::new()).collect(),
            running: vec![None; n_res],
            last_sent: vec![0.0; n_res],
            busy: vec![0.0; n_res],
            remaining_parents: parent_counts.to_vec(),
        }
    }

    /// Local slot of global resource `r` under this pool's scope.
    #[inline(always)]
    pub(crate) fn local(&self, r: usize) -> usize {
        self.res_local[r] as usize
    }

    /// Restores the pristine post-`new` state, keeping allocations.
    pub(crate) fn reset(&mut self, parent_counts: &[u32]) {
        self.queue.iter_mut().for_each(|q| q.clear());
        self.running.iter_mut().for_each(|r| *r = None);
        self.last_sent.iter_mut().for_each(|x| *x = 0.0);
        self.busy.iter_mut().for_each(|x| *x = 0.0);
        self.remaining_parents.clear();
        self.remaining_parents.extend_from_slice(parent_counts);
    }

    /// Jobs-in-system at (global) resource `r` (queued + running).
    #[inline]
    pub(crate) fn load(&self, r: usize) -> f64 {
        let rl = self.local(r);
        self.queue[rl].len() as f64 + if self.running[rl].is_some() { 1.0 } else { 0.0 }
    }

    /// Puts `job` on (global) resource `r`'s processor and schedules its
    /// finish. `cluster` is `r`'s owning cluster — the lane both this
    /// handler and the finish event belong to. The finish event carries
    /// the global id (fingerprint contract).
    pub(crate) fn start_job(
        &mut self,
        now: SimTime,
        r: usize,
        cluster: usize,
        job: Job,
        service_rate: f64,
        fel: &mut Fel,
    ) {
        let dur = SimTime::from_f64((job.exec_time.as_f64() / service_rate).max(1.0));
        let rl = self.local(r);
        self.busy[rl] += dur.as_f64();
        self.running[rl] = Some(job);
        fel.schedule(cluster, now + dur, GridEvent::Finish { res: r as u32 });
    }

    /// A dispatched job lands at resource `r`: pay the RP job-control
    /// cost (`H`), then run it now or queue it FIFO.
    #[allow(clippy::too_many_arguments, reason = "split borrows of kernel state")]
    pub(crate) fn enqueue(
        &mut self,
        now: SimTime,
        r: usize,
        cluster: usize,
        job: Job,
        rp_job_control: f64,
        service_rate: f64,
        acct: &mut Accounting,
        fel: &mut Fel,
    ) {
        let ca = acct.c_local(cluster as u32);
        acct.h_overhead[ca] += rp_job_control;
        if self.running[self.local(r)].is_none() {
            self.start_job(now, r, cluster, job, service_rate, fel);
        } else {
            let rl = self.local(r);
            self.queue[rl].push_back(job);
        }
    }

    /// Books a finished `job` (response time, deadline benefit → `F`) and
    /// releases its dependency children, if any.
    #[allow(clippy::too_many_arguments, reason = "split borrows of kernel state")]
    pub(crate) fn complete_job(
        &mut self,
        now: SimTime,
        job: Job,
        cluster: usize,
        shared: &SharedWorld,
        dag_data_cost: f64,
        net: &mut NetFabric,
        acct: &mut Accounting,
        fel: &mut Fel,
    ) {
        let response = (now - job.arrival).as_f64();
        let cl = acct.c_local(cluster as u32);
        acct.completed += 1;
        acct.response[cl].push(response);
        acct.response_hist.push(response);
        if job.meets_deadline(now) {
            acct.succeeded += 1;
            acct.f_work[cl] += job.exec_time.as_f64();
        } else {
            acct.deadline_missed += 1;
        }
        // Precedence extension (paper future-work (b)): releasing children
        // charges the data-management cost of each dependency edge to H —
        // cheap when producer and consumer share a cluster. Under the
        // bandwidth model a cross-cluster edge instead travels as a sized
        // flow: the *measured* transfer time is charged and the child's
        // release waits for delivery.
        if let Some(dag) = shared.dag.as_ref() {
            let n_clusters = shared.layout.members.len();
            for &c in dag.children(job.id) {
                let child = &shared.trace[c as usize];
                let child_cluster = (child.submit_point as usize) % n_clusters;
                let mut release_at = now;
                if child_cluster == cluster {
                    acct.h_overhead[cl] += 0.2 * dag_data_cost;
                } else {
                    match net.dag_transfer(
                        now,
                        cluster as u32,
                        child_cluster as u32,
                        dag_data_cost,
                        shared,
                        acct,
                    ) {
                        Some(delivery) => {
                            release_at = SimTime::from_f64(delivery.max(now.as_f64()));
                        }
                        // Legacy constant charge when the model is off.
                        None => acct.h_overhead[cl] += dag_data_cost,
                    }
                }
                let rp = &mut self.remaining_parents[c as usize];
                debug_assert!(*rp > 0, "child released twice");
                *rp -= 1;
                if *rp == 0 {
                    let at = child.arrival.max(release_at);
                    if at > child.arrival {
                        acct.dag_deferred += 1;
                    }
                    // Cross-lane release (the child's arrival lane is its
                    // own submit cluster); only legal on the 1-shard plan,
                    // which is why a DAG workload always runs on it.
                    fel.schedule(cluster, at, GridEvent::Arrival(c));
                }
            }
        }
    }

    /// Approximate resident bytes (capacity-based; telemetry only).
    pub(crate) fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        let job = size_of::<Job>();
        let mut b = self.queue.capacity() * size_of::<VecDeque<Job>>();
        b += self.queue.iter().map(|q| q.capacity() * job).sum::<usize>();
        b += self.running.capacity() * size_of::<Option<Job>>();
        b += (self.last_sent.capacity() + self.busy.capacity()) * 8;
        b += self.remaining_parents.capacity() * 4;
        b
    }
}
