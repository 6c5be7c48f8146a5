//! The link fabric: transport of every simulator message over the routed
//! topology — propagation (scaled by the link-delay enabler), per-hop
//! transmission, and the optional middleware queueing stage used by the
//! S-I/R-I/Sy-I model family (paper §3.3).
//!
//! Two transmission models share this fabric:
//!
//! * **Legacy latency-constant** (the default): transmission time is
//!   `hops × size / BASE_BANDWIDTH` with no contention — the paper's
//!   assumption that data movement never competes for capacity.
//! * **Bandwidth-aware** (`GridConfig::bandwidth.enabled`): cross-cluster
//!   messages become sized flows on the precomputed virtual links
//!   ([`crate::flow`]), picking the candidate path with the earliest
//!   predicted delivery and contending for link capacity with the lane's
//!   own live flows. The measured busy time (`size / rate`) is charged
//!   into `h_overhead`, turning `H(k)` into a run output. Intra-cluster
//!   traffic keeps the legacy formula.
//!
//! The middleware queue is modelled **per sending lane** (one middleware
//! instance per scheduler domain), so a lane's middleware backlog is a
//! function of that lane's own sends only. The flow books follow the
//! same discipline. This keeps the transport state partitionable: under
//! the sharded executor each shard owns exactly its lanes' middleware
//! servers and flow books, with no cross-shard ordering dependence.

use crate::accounting::Accounting;
use crate::event::GridEvent;
use crate::fel::Fel;
use crate::flow::{Admission, FlowState};
use crate::msg::Msg;
use crate::world::SharedWorld;
use gridscale_desim::SimTime;
use gridscale_topology::{NodeId, PathSpec};

/// Base link bandwidth used for the transmission-delay term (payload units
/// per tick), matching `LinkParams::default`.
const BASE_BANDWIDTH: f64 = 100.0;

/// Per-run transport state: the delay parameters, the middleware
/// queues' server availability, and the per-lane flow books.
pub(crate) struct NetFabric {
    /// The link-delay enabler (multiplies routed propagation latency).
    pub(crate) link_delay_factor: f64,
    /// Middleware queue service time per message.
    pub(crate) middleware_service: f64,
    /// Whether the active policy routes transfers/policy traffic through
    /// the middleware stage.
    pub(crate) use_middleware: bool,
    /// Sending lane → its middleware server availability, fractional
    /// ticks (one middleware instance per scheduler domain).
    pub(crate) mw_next_free: Vec<f64>,
    /// Sending lane → its live-flow book (bandwidth model; empty and
    /// untouched when the model is disabled).
    pub(crate) flows: FlowState,
}

impl NetFabric {
    pub(crate) fn new(
        link_delay_factor: f64,
        middleware_service: f64,
        n_lanes: usize,
    ) -> NetFabric {
        NetFabric {
            link_delay_factor,
            middleware_service,
            use_middleware: false,
            mw_next_free: vec![0.0; n_lanes],
            flows: FlowState::new(n_lanes),
        }
    }

    /// Network (and optionally middleware) transport of one message:
    /// counts it, delays it, and schedules its [`GridEvent::Deliver`]
    /// stamped with `src_lane`'s sequence key.
    ///
    /// The minimum latency invariant the sharded lookahead rests on:
    /// `arrive ≥ now + max(1, ⌊latency(from,to) · link_delay_factor⌋)`,
    /// because `depart ≥ now`, the propagation term is monotone in the
    /// routed latency, and `SimTime::from_f64` rounds to nearest
    /// (≥ floor). The bandwidth model preserves it: a flow's propagation
    /// term is `max(routed latency, path latency) · link_delay_factor`
    /// and contention only ever *adds* transfer time on top ([`crate::flow`]),
    /// so capacity-aware delivery is never earlier than the legacy
    /// minimum.
    #[allow(clippy::too_many_arguments, reason = "split borrows of kernel state")]
    pub(crate) fn send(
        &mut self,
        now: SimTime,
        src_lane: usize,
        from: NodeId,
        to: NodeId,
        msg: Msg,
        via_middleware: bool,
        shared: &SharedWorld,
        acct: &mut Accounting,
        fel: &mut Fel,
    ) {
        acct.msgs_sent += 1;
        let size = msg.size();
        let (lat, hops) = if from == to {
            (0.0, 0.0)
        } else {
            #[expect(clippy::expect_used, reason = "generated topologies are connected")]
            let lat = shared
                .routing
                .latency(from, to)
                .expect("generated topologies are connected") as f64;
            let hops = shared.routing.hops(from, to).unwrap_or(1) as f64;
            (lat, hops)
        };
        let mut depart = now.as_f64();
        if via_middleware {
            // "A simple queue with infinite capacity and finite but small
            // service time" (paper §3.3).
            let start = depart.max(self.mw_next_free[src_lane]);
            depart = start + self.middleware_service;
            self.mw_next_free[src_lane] = depart;
        }
        // The bandwidth-aware path: cross-cluster messages become sized
        // flows on the virtual link of their cluster pair.
        if let Some(table) = shared.layout.vlinks.as_ref() {
            if let Some((src_c, dst_c)) = cross_cluster(shared, from, to) {
                // Propagation over a candidate: the routed latency or the
                // path's own, whichever is longer.
                let factor = self.link_delay_factor;
                let prop = |spec: &PathSpec| lat.max(spec.latency as f64) * factor;
                if let Some((_, adm, delivery)) = self
                    .flows
                    .route(src_lane, depart, src_c, dst_c, size, table, prop)
                {
                    // Measured transfer busy time: the sender's cluster
                    // pays it into H(k). The lane→cluster map mirrors the
                    // shard ownership rule (estimator lanes ride their
                    // home cluster's shard), so the charged slot is
                    // always owned by the charging shard.
                    charge(acct, lane_cluster(shared, src_lane), &adm);
                    let arrive = SimTime::from_f64(delivery.max(now.as_f64() + 1.0));
                    fel.schedule(src_lane, arrive, GridEvent::Deliver { to, msg });
                    return;
                }
            }
        }
        // Legacy latency-constant model (bit-identical to the
        // pre-bandwidth fabric when the model is disabled).
        let prop = lat * self.link_delay_factor;
        let trans = hops.max(1.0) * size / BASE_BANDWIDTH;
        let arrive = SimTime::from_f64((depart + prop + trans).max(now.as_f64() + 1.0));
        fel.schedule(src_lane, arrive, GridEvent::Deliver { to, msg });
    }

    /// Routes one DAG dependency payload as a sized flow on the virtual
    /// link of its cluster pair (bandwidth model; DAG runs are
    /// sequential-only so the sender-lane book discipline is trivially
    /// satisfied). The payload size is `data_cost × BASE_BANDWIDTH`, so
    /// an uncontended transfer over a base-capacity bottleneck takes
    /// exactly the legacy constant `data_cost` — contention stretches it
    /// and the *measured* busy time is what lands in `H(k)`.
    ///
    /// Returns the delivery time, or `None` when the bandwidth model is
    /// off (or no virtual link exists), in which case the caller keeps
    /// the legacy constant charge.
    pub(crate) fn dag_transfer(
        &mut self,
        now: SimTime,
        src_c: u32,
        dst_c: u32,
        data_cost: f64,
        shared: &SharedWorld,
        acct: &mut Accounting,
    ) -> Option<f64> {
        let table = shared.layout.vlinks.as_ref()?;
        let size = data_cost * BASE_BANDWIDTH;
        let factor = self.link_delay_factor;
        let prop = |spec: &PathSpec| spec.latency as f64 * factor;
        // The source cluster's own lane sends the payload.
        let lane = src_c as usize;
        let (_, adm, delivery) =
            self.flows
                .route(lane, now.as_f64(), src_c, dst_c, size, table, prop)?;
        charge(acct, src_c, &adm);
        Some(delivery)
    }
}

/// Charges one admitted flow to cluster `c`'s ledger slot: its measured
/// busy time (`size / rate`) lands in `H(k)` and the flow counters.
fn charge(acct: &mut Accounting, c: u32, adm: &Admission) {
    let busy = adm.finish - adm.start;
    let cl = acct.c_local(c);
    acct.h_overhead[cl] += busy;
    acct.net_transfer_busy[cl] += busy;
    acct.net_flows += 1;
    if adm.contended {
        acct.net_flows_contended += 1;
    }
}

/// The clusters of `from` and `to` when the message crosses clusters;
/// `None` for intra-cluster traffic, self-sends, and nodes outside any
/// cluster domain. Estimator nodes count as their home cluster.
#[inline]
fn cross_cluster(shared: &SharedWorld, from: NodeId, to: NodeId) -> Option<(u32, u32)> {
    let src = node_cluster(shared, from)?;
    let dst = node_cluster(shared, to)?;
    (src != dst).then_some((src, dst))
}

/// The cluster domain of a node: cluster lanes map to themselves,
/// estimator lanes to their home cluster, routers to none.
#[inline]
fn node_cluster(shared: &SharedWorld, n: NodeId) -> Option<u32> {
    let lane = shared.layout.node_lane[n as usize];
    let nc = shared.layout.members.len() as u32;
    if lane == u32::MAX {
        None
    } else if lane < nc {
        Some(lane)
    } else {
        Some(shared.layout.est_home[(lane - nc) as usize])
    }
}

/// The cluster whose ledger slot a sending lane charges: cluster lanes
/// charge themselves, estimator lanes their home cluster. The global
/// lane never sends.
#[inline]
fn lane_cluster(shared: &SharedWorld, lane: usize) -> u32 {
    let nc = shared.layout.members.len();
    if lane < nc {
        lane as u32
    } else {
        debug_assert!(lane < nc + shared.layout.est_home.len(), "global lane sent");
        shared.layout.est_home[lane - nc]
    }
}
