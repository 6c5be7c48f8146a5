//! The unified routing front: exact all-pairs tables at paper scale,
//! anchor-based hierarchical routing beyond it.
//!
//! Everything downstream of topology construction (the link fabric, the
//! grid map, the placement layout) asks the same questions — latency,
//! hops, nearest candidate — so they program against [`Routing`] and stay
//! oblivious to which model answers. The switch is purely a function of
//! graph size: [`Routing::HIER_THRESHOLD`] keeps the paper's
//! configurations (≤ ~1020 nodes) on the bit-exact [`RoutingTable`] they
//! have always used, while 10⁵–10⁶-node grids get the `O(n + S²)`
//! [`HierRouting`] model that actually fits in memory.

use crate::graph::{Graph, NodeId};
use crate::hier::HierRouting;
use crate::routing::RoutingTable;

/// Routing state for one graph: exact or hierarchical (see module docs).
pub enum Routing {
    /// All-pairs shortest-path tables (`14 n²` bytes) — the paper-scale
    /// model.
    Exact(RoutingTable),
    /// Anchor-based two-level model (`O(n + S²)` bytes) — the large-scale
    /// model.
    Hier(HierRouting),
}

impl Routing {
    /// Node-count boundary above which [`Routing::build_auto`] switches to
    /// the hierarchical model (the exact table would cost ≥ ~55 MB there).
    pub const HIER_THRESHOLD: usize = 2048;

    /// Builds exact tables below [`Routing::HIER_THRESHOLD`] nodes, the
    /// anchor model at or above it. `anchors` are the scheduler nodes in
    /// placement order (ignored by the exact model).
    pub fn build_auto(g: &Graph, anchors: &[NodeId]) -> Routing {
        if g.node_count() < Self::HIER_THRESHOLD {
            Routing::Exact(RoutingTable::build(g))
        } else {
            Routing::Hier(HierRouting::build(g, anchors))
        }
    }

    /// True when the hierarchical model answers queries.
    pub fn is_hier(&self) -> bool {
        matches!(self, Routing::Hier(_))
    }

    /// Number of nodes the routing state covers.
    pub fn node_count(&self) -> usize {
        match self {
            Routing::Exact(rt) => rt.node_count(),
            Routing::Hier(hr) => hr.node_count(),
        }
    }

    /// Routed (or modelled) latency in ticks, `None` if unreachable.
    #[inline]
    pub fn latency(&self, src: NodeId, dst: NodeId) -> Option<u64> {
        match self {
            Routing::Exact(rt) => rt.latency(src, dst),
            Routing::Hier(hr) => hr.latency(src, dst),
        }
    }

    /// Hop count along the routed (or modelled) path.
    #[inline]
    pub fn hops(&self, src: NodeId, dst: NodeId) -> Option<u16> {
        match self {
            Routing::Exact(rt) => rt.hops(src, dst),
            Routing::Hier(hr) => hr.hops(src, dst),
        }
    }

    /// Among `candidates`, the one with least latency from `src` (ties →
    /// lowest id). `None` if no candidate is reachable.
    pub fn nearest(&self, src: NodeId, candidates: &[NodeId]) -> Option<NodeId> {
        match self {
            Routing::Exact(rt) => rt.nearest(src, candidates),
            Routing::Hier(hr) => candidates
                .iter()
                .copied()
                .filter_map(|c| hr.latency(src, c).map(|d| (d, c)))
                .min()
                .map(|(_, c)| c),
        }
    }

    /// The anchor (scheduler) index node `v` is assigned to — `None` under
    /// exact routing, where no anchor decomposition exists.
    pub fn anchor_of(&self, v: NodeId) -> Option<u32> {
        match self {
            Routing::Exact(_) => None,
            Routing::Hier(hr) => hr.anchor_of(v),
        }
    }

    /// Anchor-to-anchor latency (a lower bound on any cross-region
    /// latency) — `None` under exact routing.
    pub fn anchor_latency(&self, a: u32, b: u32) -> Option<u64> {
        match self {
            Routing::Exact(_) => None,
            Routing::Hier(hr) => hr.anchor_latency(a, b),
        }
    }

    /// Approximate resident bytes of the routing state (capacity-based;
    /// telemetry only — this is what the `n²` vs `O(n + S²)` trade-off
    /// looks like in practice).
    pub fn approx_bytes(&self) -> usize {
        match self {
            // dist (8) + hops (2) + first (4) per ordered pair, ~n² pairs.
            Routing::Exact(rt) => rt.node_count() * rt.node_count() * 14,
            // per node: anchor_idx (4) + up_dist (8) + up_hops (2);
            // per anchor pair: d (8) + h (2).
            Routing::Hier(hr) => {
                let s = hr.anchor_count();
                hr.node_count() * 14 + s * s * 10
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{self, LinkParams};
    use gridscale_desim::SimRng;

    #[test]
    fn auto_picks_exact_below_threshold() {
        let mut rng = SimRng::new(1);
        let g = generate::barabasi_albert(64, 2, LinkParams::default(), &mut rng);
        let r = Routing::build_auto(&g, &[0, 1]);
        assert!(!r.is_hier());
        assert!(r.anchor_of(5).is_none());
        assert_eq!(r.node_count(), 64);
    }

    #[test]
    fn hier_agrees_with_exact_on_shared_queries() {
        // Force both models on one graph: hier must stay a valid latency
        // model (reachability, symmetry, anchor lower bound).
        let mut rng = SimRng::new(8);
        let g = generate::barabasi_albert(120, 2, LinkParams::default(), &mut rng);
        let exact = Routing::Exact(crate::RoutingTable::build(&g));
        let hier = Routing::Hier(crate::HierRouting::build(&g, &[0, 3, 11]));
        for (s, t) in [(0u32, 119u32), (5, 50), (12, 13)] {
            let e = exact.latency(s, t).unwrap();
            let h = hier.latency(s, t).unwrap();
            assert!(h >= e, "hier model can never beat the true shortest path");
            assert_eq!(hier.latency(t, s), Some(h), "symmetric");
        }
        assert_eq!(hier.nearest(40, &[0, 3, 11]), {
            let a = hier.anchor_of(40).unwrap();
            Some([0u32, 3, 11][a as usize])
        });
    }
}
