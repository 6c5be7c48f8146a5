//! Anchor-based hierarchical routing for large graphs.
//!
//! The exact [`RoutingTable`](crate::RoutingTable) stores all-pairs state
//! in `14 n²` bytes — perfect at the paper's ≤1020 nodes, hopeless at
//! 10⁵–10⁶. [`HierRouting`] replaces it with a two-level model built
//! around the scheduler placement:
//!
//! * every node is assigned to its nearest **anchor** (a scheduler node)
//!   by one multi-source bucket-queue search over a CSR-flattened
//!   adjacency (the shared kernel in `spf`);
//! * anchors are connected by an **overlay graph** whose edge `A–B` is the
//!   cheapest boundary crossing `up(u) + w(u,v) + up(v)` over all links
//!   `(u,v)` with `anchor(u) = A, anchor(v) = B`;
//! * the routed latency is `up(u) + D(anchor(u), anchor(v)) + up(v)`
//!   (just `up(u) + up(v)` inside one region).
//!
//! Memory is `O(n)` for the per-node tables plus `O(S²)` for the anchor
//! matrix — ~20 MB at a million nodes with a few hundred schedulers. The
//! result is a deterministic latency *model*, not the exact shortest
//! path; by construction it never undercuts the anchor-to-anchor
//! distance, which is what the sharded simulator's conservative lookahead
//! leans on ([`HierRouting::anchor_latency`] is a lower bound on any
//! cross-region latency).

use crate::graph::{Graph, NodeId};
use crate::spf::{Csr, Dial, Nearest, UNREACHABLE};

/// Two-level anchor routing state (see module docs).
pub struct HierRouting {
    n: usize,
    /// Anchor (scheduler) nodes in placement order; anchor index == the
    /// caller's scheduler index.
    anchors: Vec<NodeId>,
    /// Node → index into `anchors` of its nearest anchor.
    anchor_idx: Vec<u32>,
    /// Node → latency to its anchor.
    up_dist: Vec<u64>,
    /// Node → hops to its anchor.
    up_hops: Vec<u16>,
    /// Row-major `S × S` anchor-to-anchor latency over the overlay.
    d: Vec<u64>,
    /// Row-major `S × S` anchor-to-anchor hops.
    h: Vec<u16>,
}

impl HierRouting {
    /// Builds the two-level model for `g` with `anchors` (the scheduler
    /// nodes, in placement order). Panics if `anchors` is empty or lists
    /// a node twice.
    pub fn build(g: &Graph, anchors: &[NodeId]) -> HierRouting {
        assert!(
            !anchors.is_empty(),
            "hier routing needs at least one anchor"
        );
        let n = g.node_count();
        let s = anchors.len();
        let csr = Csr::of(g);

        // Multi-source search: every anchor starts at distance 0, and each
        // node takes the least (latency, hops, anchor index) label.
        let mut anchor_idx = vec![u32::MAX; n];
        let mut up_dist = vec![UNREACHABLE; n];
        let mut up_hops = vec![u16::MAX; n];
        for (ai, &a) in anchors.iter().enumerate() {
            assert!(
                anchor_idx[a as usize] == u32::MAX,
                "anchor {a} is listed twice"
            );
            up_dist[a as usize] = 0;
            up_hops[a as usize] = 0;
            anchor_idx[a as usize] = ai as u32;
        }
        Dial::for_csr(&csr).run(
            &csr,
            anchors,
            &mut up_dist,
            &mut up_hops,
            &mut Nearest(&mut anchor_idx),
        );

        // Overlay edges: the cheapest crossing of every anchor pair
        // `a < b`, as a packed `(latency << 16 | hops)` key in a dense
        // S × S matrix. Crossing costs are symmetric, so each boundary link
        // is taken from its endpoint with the lower anchor index.
        let mut boundary = vec![u64::MAX; s * s];
        for u in 0..n {
            let au = anchor_idx[u];
            if au == u32::MAX {
                continue;
            }
            for (v, w) in csr.edges(u) {
                let av = anchor_idx[v];
                if av == u32::MAX || av <= au {
                    continue;
                }
                let lat = u32::try_from(up_dist[u] + w as u64 + up_dist[v])
                    .expect("crossing latency fits u32");
                let hops = up_hops[u].saturating_add(1).saturating_add(up_hops[v]);
                let cell = &mut boundary[au as usize * s + av as usize];
                *cell = (*cell).min((lat as u64) << 16 | hops as u64);
            }
        }
        // The overlay as a CSR: row `a` lists every anchor it has a
        // crossing to, in ascending order.
        let (mut off, mut to, mut lat, mut hops) = (vec![0], Vec::new(), Vec::new(), Vec::new());
        for a in 0..s {
            for b in 0..s {
                let key = boundary[a.min(b) * s + a.max(b)];
                if a != b && key != u64::MAX {
                    to.push(b as u32);
                    lat.push((key >> 16) as u32);
                    hops.push(key as u16);
                }
            }
            off.push(to.len() as u32);
        }
        let overlay = Csr::from_parts(off, to, lat, hops);

        // One search per anchor over the overlay. Its bucket ring spans
        // the largest crossing latency, at most twice the largest up
        // latency plus one link.
        let mut d = vec![UNREACHABLE; s * s];
        let mut h = vec![u16::MAX; s * s];
        let mut dial = Dial::for_csr(&overlay);
        for src in 0..s {
            let row = src * s..(src + 1) * s;
            d[src * s + src] = 0;
            h[src * s + src] = 0;
            dial.run(
                &overlay,
                &[src as u32],
                &mut d[row.clone()],
                &mut h[row],
                &mut (),
            );
        }

        HierRouting {
            n,
            anchors: anchors.to_vec(),
            anchor_idx,
            up_dist,
            up_hops,
            d,
            h,
        }
    }

    /// Number of nodes the model was built for.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of anchors (== schedulers).
    pub fn anchor_count(&self) -> usize {
        self.anchors.len()
    }

    /// The anchor index (== scheduler index) of node `v`; `None` only for
    /// nodes disconnected from every anchor.
    pub fn anchor_of(&self, v: NodeId) -> Option<u32> {
        let a = self.anchor_idx[v as usize];
        (a != u32::MAX).then_some(a)
    }

    /// Latency from node `v` up to its anchor.
    pub fn up_latency(&self, v: NodeId) -> Option<u64> {
        let d = self.up_dist[v as usize];
        (d != UNREACHABLE).then_some(d)
    }

    /// Anchor-to-anchor latency over the overlay — a lower bound on the
    /// modelled latency between any node anchored at `a` and any node
    /// anchored at `b`.
    pub fn anchor_latency(&self, a: u32, b: u32) -> Option<u64> {
        let d = self.d[a as usize * self.anchors.len() + b as usize];
        (d != UNREACHABLE).then_some(d)
    }

    /// Modelled latency between two nodes (see module docs).
    pub fn latency(&self, src: NodeId, dst: NodeId) -> Option<u64> {
        if src == dst {
            return Some(0);
        }
        let (au, av) = (self.anchor_idx[src as usize], self.anchor_idx[dst as usize]);
        if au == u32::MAX || av == u32::MAX {
            return None;
        }
        let up = self.up_dist[src as usize].saturating_add(self.up_dist[dst as usize]);
        if au == av {
            return Some(up);
        }
        let mid = self.d[au as usize * self.anchors.len() + av as usize];
        (mid != UNREACHABLE).then(|| up.saturating_add(mid))
    }

    /// Modelled hop count between two nodes.
    pub fn hops(&self, src: NodeId, dst: NodeId) -> Option<u16> {
        if src == dst {
            return Some(0);
        }
        let (au, av) = (self.anchor_idx[src as usize], self.anchor_idx[dst as usize]);
        if au == u32::MAX || av == u32::MAX {
            return None;
        }
        let up = self.up_hops[src as usize].saturating_add(self.up_hops[dst as usize]);
        if au == av {
            return Some(up.max(1));
        }
        let mid = self.h[au as usize * self.anchors.len() + av as usize];
        (mid != u16::MAX).then(|| up.saturating_add(mid))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{self, LinkParams};
    use crate::map::GridMap;
    use crate::routing::RoutingTable;
    use gridscale_desim::SimRng;
    use std::cmp::Reverse;
    use std::collections::{BTreeMap, BinaryHeap};

    /// The tables of one model: `(anchor_idx, up_dist, up_hops, d, h)`.
    type Tables = (Vec<u32>, Vec<u64>, Vec<u16>, Vec<u64>, Vec<u16>);

    /// The binary-heap builder the model used before the bucket-queue
    /// kernel, kept as the differential oracle: a multi-source heap
    /// Dijkstra on `(d, h, anchor)`, a `BTreeMap` of boundary crossings,
    /// and one heap Dijkstra per anchor over the overlay.
    fn heap_oracle(g: &Graph, anchors: &[NodeId]) -> Tables {
        let n = g.node_count();
        let s = anchors.len();
        let mut anchor_idx = vec![u32::MAX; n];
        let mut up_dist = vec![UNREACHABLE; n];
        let mut up_hops = vec![u16::MAX; n];
        let mut heap: BinaryHeap<Reverse<(u64, u16, u32, NodeId)>> = BinaryHeap::new();
        for (ai, &a) in anchors.iter().enumerate() {
            up_dist[a as usize] = 0;
            up_hops[a as usize] = 0;
            anchor_idx[a as usize] = ai as u32;
            heap.push(Reverse((0, 0, ai as u32, a)));
        }
        while let Some(Reverse((du, hu, au, u))) = heap.pop() {
            let ui = u as usize;
            if (du, hu, au) > (up_dist[ui], up_hops[ui], anchor_idx[ui]) {
                continue; // stale
            }
            for l in g.neighbors(u) {
                let v = l.to as usize;
                let dv = du.saturating_add(l.latency);
                let hv = hu.saturating_add(1);
                if (dv, hv, au) < (up_dist[v], up_hops[v], anchor_idx[v]) {
                    up_dist[v] = dv;
                    up_hops[v] = hv;
                    anchor_idx[v] = au;
                    heap.push(Reverse((dv, hv, au, l.to)));
                }
            }
        }
        let mut boundary: BTreeMap<(u32, u32), (u64, u16)> = BTreeMap::new();
        for u in 0..n {
            let au = anchor_idx[u];
            if au == u32::MAX {
                continue;
            }
            for l in g.neighbors(u as NodeId) {
                let v = l.to as usize;
                let av = anchor_idx[v];
                if av == u32::MAX || av == au {
                    continue;
                }
                let w = up_dist[u]
                    .saturating_add(l.latency)
                    .saturating_add(up_dist[v]);
                let hops = up_hops[u].saturating_add(1).saturating_add(up_hops[v]);
                let entry = boundary
                    .entry((au.min(av), au.max(av)))
                    .or_insert((UNREACHABLE, u16::MAX));
                if (w, hops) < *entry {
                    *entry = (w, hops);
                }
            }
        }
        let mut overlay: Vec<Vec<(u32, u64, u16)>> = vec![Vec::new(); s];
        for (&(a, b), &(w, hops)) in &boundary {
            overlay[a as usize].push((b, w, hops));
            overlay[b as usize].push((a, w, hops));
        }
        let mut d = vec![UNREACHABLE; s * s];
        let mut h = vec![u16::MAX; s * s];
        let mut oheap: BinaryHeap<Reverse<(u64, u16, u32)>> = BinaryHeap::new();
        for src in 0..s {
            let (dd, hh) = (
                &mut d[src * s..(src + 1) * s],
                &mut h[src * s..(src + 1) * s],
            );
            dd[src] = 0;
            hh[src] = 0;
            oheap.push(Reverse((0, 0, src as u32)));
            while let Some(Reverse((du, hu, u))) = oheap.pop() {
                if (du, hu) > (dd[u as usize], hh[u as usize]) {
                    continue;
                }
                for &(v, w, hops) in &overlay[u as usize] {
                    let dv = du.saturating_add(w);
                    let hv = hu.saturating_add(hops);
                    if (dv, hv) < (dd[v as usize], hh[v as usize]) {
                        dd[v as usize] = dv;
                        hh[v as usize] = hv;
                        oheap.push(Reverse((dv, hv, v)));
                    }
                }
            }
        }
        (anchor_idx, up_dist, up_hops, d, h)
    }

    /// The bucket-queue model equals the heap oracle table by table.
    fn assert_matches_heap(g: &Graph, anchors: &[NodeId], what: &str) -> HierRouting {
        let hr = HierRouting::build(g, anchors);
        let (anchor_idx, up_dist, up_hops, d, h) = heap_oracle(g, anchors);
        assert!(hr.anchor_idx == anchor_idx, "{what}: anchor indices differ");
        assert!(hr.up_dist == up_dist, "{what}: up latencies differ");
        assert!(hr.up_hops == up_hops, "{what}: up hops differ");
        assert!(hr.d == d, "{what}: anchor latencies differ");
        assert!(hr.h == h, "{what}: anchor hops differ");
        hr
    }

    /// The scheduler nodes the grid map would place on `g`.
    fn placed_anchors(g: &Graph, schedulers: usize) -> Vec<NodeId> {
        GridMap::place(g, schedulers, 0, 0.9).schedulers().to_vec()
    }

    #[test]
    fn matches_heap_oracle_on_every_generator() {
        let lp = LinkParams::default();
        for seed in 1..=4u64 {
            let mut rng = SimRng::new(seed);
            let ba = generate::barabasi_albert(400, 2, lp, &mut rng);
            let wax = generate::waxman(200, 0.3, 0.4, lp, &mut rng);
            let ts = generate::transit_stub(4, 4, 4, 8, lp, &mut rng);
            for (g, name) in [(&ba, "BA 400"), (&wax, "Waxman 200"), (&ts, "transit-stub")] {
                for s in [1, 3, 12] {
                    let anchors = placed_anchors(g, s);
                    assert_matches_heap(g, &anchors, &format!("{name} seed {seed}, {s} anchors"));
                }
            }
        }
        for n in [2, 9, 100] {
            let anchors: Vec<NodeId> = vec![0, (n / 2) as NodeId];
            assert_matches_heap(&generate::ring(n, lp), &anchors, &format!("ring {n}"));
            assert_matches_heap(&generate::star(n, lp), &anchors, &format!("star {n}"));
            assert_matches_heap(
                &generate::star(n, lp),
                &[1],
                &format!("star {n}, leaf anchor"),
            );
        }
    }

    #[test]
    fn matches_heap_oracle_on_disconnected_and_max_latency_graphs() {
        let max = Graph::MAX_LATENCY;
        for seed in 0..8u64 {
            let mut rng = SimRng::new(seed);
            let n = 80;
            let lat = [(1, 2), (max - 1, max), (1, max), (1, 10)][seed as usize % 4];
            let density = [0.02, 0.05][seed as usize % 2];
            let mut g = Graph::with_nodes(n);
            for a in 0..n as NodeId {
                for b in a + 1..n as NodeId {
                    if rng.chance(density) {
                        g.add_link(a, b, rng.int_range(lat.0, lat.1), 1.0);
                    }
                }
            }
            // Anchors scattered over (possibly) several components, in a
            // non-sorted order so anchor index and node id disagree.
            let anchors: Vec<NodeId> = vec![41, 3, 77, 20, 58];
            assert_matches_heap(&g, &anchors, &format!("random seed {seed}"));
            assert_matches_heap(&g, &[5], &format!("random seed {seed}, one anchor"));
        }
    }

    #[test]
    #[ignore = "large differential; run in release with --ignored"]
    fn matches_heap_oracle_on_transit_stub_100k() {
        let mut rng = SimRng::new(100_000);
        let g = generate::transit_stub(24, 4, 130, 32, LinkParams::default(), &mut rng);
        assert!(g.node_count() > 99_000, "{} nodes", g.node_count());
        let anchors = placed_anchors(&g, 256);
        assert_matches_heap(&g, &anchors, "transit-stub 100k");
    }

    #[test]
    #[ignore = "large differential; run in release with --ignored"]
    fn matches_heap_oracle_when_up_hops_saturate() {
        // Two opposite anchors on a 270,000-node ring: nodes near the
        // antipodes sit 67,500 hops away, past u16::MAX.
        let n = 270_000;
        let g = generate::ring(n, LinkParams::default());
        let hr = assert_matches_heap(&g, &[0, (n / 2) as NodeId], "saturating ring");
        assert_eq!(hr.up_hops.iter().copied().max(), Some(u16::MAX));
        assert_eq!(hr.up_latency((n / 4) as NodeId), Some((n / 4) as u64));
        assert_eq!(hr.anchor_latency(0, 1), Some((n / 2) as u64));
    }

    #[test]
    #[should_panic(expected = "listed twice")]
    fn duplicate_anchors_panic() {
        let g = generate::ring(6, LinkParams::default());
        HierRouting::build(&g, &[1, 4, 1]);
    }

    #[test]
    fn line_anchors_and_latencies() {
        // 0-1-2-3 latencies 1,2,3; anchors at 0 and 3.
        let mut g = Graph::with_nodes(4);
        g.add_link(0, 1, 1, 1.0);
        g.add_link(1, 2, 2, 1.0);
        g.add_link(2, 3, 3, 1.0);
        let hr = HierRouting::build(&g, &[0, 3]);
        assert_eq!(hr.anchor_of(0), Some(0));
        assert_eq!(hr.anchor_of(1), Some(0), "1 is nearer anchor 0 (1 < 5)");
        assert_eq!(
            hr.anchor_of(2),
            Some(1),
            "distance ties (3 = 3) break on hops"
        );
        assert_eq!(hr.up_latency(1), Some(1));
        // Overlay edge 0-3 crosses the 1-2 boundary link: 1 + 2 + 3 = 6.
        assert_eq!(hr.anchor_latency(0, 1), Some(6));
        assert_eq!(hr.latency(0, 3), Some(6));
        // Same-region pair: up(0) + up(1).
        assert_eq!(hr.latency(0, 1), Some(1));
        assert_eq!(hr.latency(2, 2), Some(0));
    }

    #[test]
    fn anchor_latency_lower_bounds_cross_region_pairs() {
        let mut rng = SimRng::new(31);
        let g = generate::barabasi_albert(200, 2, LinkParams::default(), &mut rng);
        let anchors: Vec<NodeId> = vec![0, 7, 33, 120];
        let hr = HierRouting::build(&g, &anchors);
        for u in 0..200u32 {
            for v in [3u32, 50, 111, 199] {
                let (au, av) = (hr.anchor_of(u).unwrap(), hr.anchor_of(v).unwrap());
                if au == av {
                    continue;
                }
                assert!(
                    hr.latency(u, v).unwrap() >= hr.anchor_latency(au, av).unwrap(),
                    "modelled latency {u}->{v} undercuts its anchor distance"
                );
            }
        }
    }

    #[test]
    fn model_never_undercuts_exact_anchor_distance() {
        // The overlay distance between two anchors can never beat the true
        // shortest path between them (every overlay edge is a real walk).
        let mut rng = SimRng::new(77);
        let g = generate::waxman(60, 0.3, 0.4, LinkParams::default(), &mut rng);
        let rt = RoutingTable::build(&g);
        let anchors: Vec<NodeId> = vec![2, 17, 40];
        let hr = HierRouting::build(&g, &anchors);
        for (ai, &a) in anchors.iter().enumerate() {
            for (bi, &b) in anchors.iter().enumerate() {
                if ai == bi {
                    continue;
                }
                assert!(
                    hr.anchor_latency(ai as u32, bi as u32).unwrap() >= rt.latency(a, b).unwrap(),
                    "overlay found an impossible shortcut {a}->{b}"
                );
            }
        }
    }

    #[test]
    fn deterministic_under_same_inputs() {
        let mut rng = SimRng::new(5);
        let g = generate::barabasi_albert(150, 2, LinkParams::default(), &mut rng);
        let a = HierRouting::build(&g, &[0, 9, 70]);
        let b = HierRouting::build(&g, &[0, 9, 70]);
        assert_eq!(a.anchor_idx, b.anchor_idx);
        assert_eq!(a.up_dist, b.up_dist);
        assert_eq!(a.d, b.d);
    }

    #[test]
    fn single_anchor_degenerates_to_up_distances() {
        let mut g = Graph::with_nodes(3);
        g.add_link(0, 1, 4, 1.0);
        g.add_link(1, 2, 5, 1.0);
        let hr = HierRouting::build(&g, &[1]);
        assert_eq!(hr.latency(0, 2), Some(9));
        assert_eq!(hr.hops(0, 2), Some(2));
    }
}
