//! Status estimators (paper Case 3): per-estimator single-server queues
//! that ingest resource status updates, buffer them per destination
//! cluster, and batch-forward on a flush timer. Estimator busy time is
//! the second component of the RMS overhead `G(k)`.

use crate::accounting::Accounting;
use crate::fel::Fel;
use crate::msg::Msg;
use crate::net::NetFabric;
use crate::world::{LaneScope, SharedWorld};
use gridscale_desim::SimTime;
use std::sync::Arc;

/// Per-estimator service state and batching buffers. The outer vectors
/// are sized to the owning [`LaneScope`]'s estimators and indexed by
/// **local** estimator id; the per-destination buffer dimension stays
/// **global**-cluster-wide, because flush destinations can live on
/// foreign shards. Method parameters stay global.
pub(crate) struct EstimatorBank {
    /// Global estimator id → local slot (shared scope table).
    est_local: Arc<Vec<u32>>,
    /// Local estimator → server availability, fractional ticks.
    pub(crate) next_free: Vec<f64>,
    /// Local estimator → buffered updates per (global) destination cluster.
    pub(crate) buffer: Vec<Vec<Vec<(u32, f64)>>>,
}

impl EstimatorBank {
    pub(crate) fn new(scope: &LaneScope, n_clusters: usize) -> EstimatorBank {
        let n_est = scope.estimators.len();
        EstimatorBank {
            est_local: Arc::clone(&scope.est_local),
            next_free: vec![0.0; n_est],
            buffer: (0..n_est).map(|_| vec![Vec::new(); n_clusters]).collect(),
        }
    }

    /// Local slot of global estimator `e` under this bank's scope.
    #[inline(always)]
    pub(crate) fn local(&self, e: usize) -> usize {
        self.est_local[e] as usize
    }

    /// Restores the pristine post-`new` state, keeping allocations.
    pub(crate) fn reset(&mut self) {
        self.next_free.iter_mut().for_each(|x| *x = 0.0);
        for per_cluster in &mut self.buffer {
            per_cluster.iter_mut().for_each(|b| b.clear());
        }
    }

    /// Estimator `e` ingests one status update for a resource of
    /// `cluster`: charge its server, buffer for the resource's cluster.
    #[allow(clippy::too_many_arguments, reason = "split borrows of kernel state")]
    pub(crate) fn ingest(
        &mut self,
        now: SimTime,
        e: usize,
        res: u32,
        load: f64,
        cluster: usize,
        update_cost: f64,
        acct: &mut Accounting,
    ) {
        let el = self.local(e);
        let ea = acct.e_local(e as u32);
        acct.g_est[ea] += update_cost;
        self.next_free[el] = now.as_f64().max(self.next_free[el]) + update_cost;
        self.buffer[el][cluster].push((res, load));
    }

    /// Estimator `e`'s flush timer fires: forward each non-empty
    /// per-cluster buffer as one batch message to that cluster's
    /// scheduler, charging the batch-fixed cost per batch. Sends are
    /// stamped with the estimator's own lane (`C + e`).
    #[allow(clippy::too_many_arguments, reason = "split borrows of kernel state")]
    pub(crate) fn flush(
        &mut self,
        now: SimTime,
        e: usize,
        batch_fixed: f64,
        shared: &SharedWorld,
        net: &mut NetFabric,
        acct: &mut Accounting,
        fel: &mut Fel,
    ) {
        let nc = shared.layout.members.len();
        let src_lane = nc + e;
        let el = self.local(e);
        let ea = acct.e_local(e as u32);
        for ci in 0..nc {
            if self.buffer[el][ci].is_empty() {
                continue;
            }
            let updates = std::mem::take(&mut self.buffer[el][ci]);
            acct.g_est[ea] += batch_fixed;
            self.next_free[el] = now.as_f64().max(self.next_free[el]) + batch_fixed;
            acct.batches += 1;
            let from = shared.layout.est_node[e];
            let to = shared.layout.sched_node[ci];
            net.send(
                now,
                src_lane,
                from,
                to,
                Msg::StatusBatch { updates },
                false,
                shared,
                acct,
                fel,
            );
        }
    }

    /// Approximate resident bytes (capacity-based; telemetry only).
    pub(crate) fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        self.next_free.capacity() * 8
            + self
                .buffer
                .iter()
                .flat_map(|per| per.iter())
                .map(|v| v.capacity() * size_of::<(u32, f64)>())
                .sum::<usize>()
    }
}
