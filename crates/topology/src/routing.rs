//! Link-state shortest-path routing (the OSPF substitute).
//!
//! OSPF floods link state and has every router run Dijkstra; the observable
//! result is that each message follows a minimum-latency path. We compute
//! the same thing directly: an all-pairs table of latency, hop count, and
//! first hop, built by one bucket-queue search per source (the shared
//! kernel in `spf`).

use crate::graph::{Graph, NodeId};
use crate::spf::{Csr, Dial, FirstHop, UNREACHABLE};

/// All-pairs shortest-path routing state for one [`Graph`].
///
/// Row-major `n × n` tables; memory is `14 n²` bytes, i.e. ~14 MB for the
/// paper's 1000-node networks.
pub struct RoutingTable {
    n: usize,
    /// Minimum total latency, `UNREACHABLE` if disconnected.
    dist: Vec<u64>,
    /// Hop count along the minimum-latency path.
    hops: Vec<u16>,
    /// First hop from `src` toward `dst`; `src` itself on the diagonal.
    first: Vec<NodeId>,
}

impl RoutingTable {
    /// Runs one single-source search per source over a CSR copy of `g`
    /// (Dial's bucket queue: link latencies are bounded by
    /// [`Graph::MAX_LATENCY`]). Routes minimise latency, then hop count.
    /// Among several optimal paths, the first hop toward `dst` is the one
    /// of `dst`'s optimal predecessor `u` with the least
    /// `(latency(src, u), u)` — the predecessor a heap Dijkstra settles
    /// first — applied recursively back to `src`. Deterministic.
    pub fn build(g: &Graph) -> Self {
        let n = g.node_count();
        let mut dist = vec![UNREACHABLE; n * n];
        let mut hops = vec![u16::MAX; n * n];
        let mut first = vec![NodeId::MAX; n * n];

        let csr = Csr::of(g);
        let mut dial = Dial::for_csr(&csr);
        let mut pred = vec![0u32; n];
        for src in 0..n {
            let row = src * n..(src + 1) * n;
            let (d, h, f) = (
                &mut dist[row.clone()],
                &mut hops[row.clone()],
                &mut first[row],
            );
            d[src] = 0;
            h[src] = 0;
            f[src] = src as NodeId;
            let mut label = FirstHop {
                src,
                first: f,
                pred: &mut pred,
            };
            dial.run(&csr, &[src as u32], d, h, &mut label);
        }
        RoutingTable {
            n,
            dist,
            hops,
            first,
        }
    }

    #[inline]
    fn idx(&self, src: NodeId, dst: NodeId) -> usize {
        debug_assert!((src as usize) < self.n && (dst as usize) < self.n);
        src as usize * self.n + dst as usize
    }

    /// Number of nodes the table was built for.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Minimum path latency in ticks, `None` if unreachable.
    pub fn latency(&self, src: NodeId, dst: NodeId) -> Option<u64> {
        let d = self.dist[self.idx(src, dst)];
        (d != UNREACHABLE).then_some(d)
    }

    /// Hop count along the routed path, `None` if unreachable.
    pub fn hops(&self, src: NodeId, dst: NodeId) -> Option<u16> {
        let h = self.hops[self.idx(src, dst)];
        (h != u16::MAX).then_some(h)
    }

    /// The neighbor of `src` that routes toward `dst` (`src` if `src == dst`),
    /// `None` if unreachable.
    pub fn next_hop(&self, src: NodeId, dst: NodeId) -> Option<NodeId> {
        let f = self.first[self.idx(src, dst)];
        (f != NodeId::MAX).then_some(f)
    }

    /// Materializes the full routed path `src → … → dst` (inclusive).
    /// Returns `None` if unreachable.
    pub fn path(&self, src: NodeId, dst: NodeId) -> Option<Vec<NodeId>> {
        self.latency(src, dst)?;
        let mut path = vec![src];
        let mut cur = src;
        while cur != dst {
            cur = self.next_hop(cur, dst)?;
            path.push(cur);
            if path.len() > self.n {
                return None; // defensive: inconsistent table
            }
        }
        Some(path)
    }

    /// Among `candidates`, the one with least latency from `src` (ties →
    /// lowest id). `None` if no candidate is reachable.
    pub fn nearest(&self, src: NodeId, candidates: &[NodeId]) -> Option<NodeId> {
        candidates
            .iter()
            .copied()
            .filter_map(|c| self.latency(src, c).map(|d| (d, c)))
            .min()
            .map(|(_, c)| c)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::generate::{self, LinkParams};
    use gridscale_desim::SimRng;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// The binary-heap Dijkstra the table was built with before the
    /// bucket-queue kernel, kept as the differential oracle: one search per
    /// source keyed on `(d, h, node)`, overwriting a label only on a
    /// strictly better `(d, h)`. Returns `(dist, hops, first)`.
    fn heap_oracle(g: &Graph) -> (Vec<u64>, Vec<u16>, Vec<NodeId>) {
        let n = g.node_count();
        let mut dist = vec![UNREACHABLE; n * n];
        let mut hops = vec![u16::MAX; n * n];
        let mut first = vec![NodeId::MAX; n * n];
        let mut heap: BinaryHeap<Reverse<(u64, u16, NodeId)>> = BinaryHeap::new();
        for src in 0..n {
            let row = src * n;
            let d = &mut dist[row..row + n];
            let h = &mut hops[row..row + n];
            let f = &mut first[row..row + n];
            d[src] = 0;
            h[src] = 0;
            f[src] = src as NodeId;
            heap.clear();
            heap.push(Reverse((0, 0, src as NodeId)));
            while let Some(Reverse((du, hu, u))) = heap.pop() {
                if du > d[u as usize] || (du == d[u as usize] && hu > h[u as usize]) {
                    continue; // stale entry
                }
                for l in g.neighbors(u) {
                    let v = l.to as usize;
                    let dv = du.saturating_add(l.latency);
                    let hv = hu.saturating_add(1);
                    if dv < d[v] || (dv == d[v] && hv < h[v]) {
                        d[v] = dv;
                        h[v] = hv;
                        f[v] = if u as usize == src {
                            l.to
                        } else {
                            f[u as usize]
                        };
                        heap.push(Reverse((dv, hv, l.to)));
                    }
                }
            }
        }
        (dist, hops, first)
    }

    /// The bucket-queue table equals the heap oracle on every pair.
    fn assert_matches_heap(g: &Graph, what: &str) {
        let rt = RoutingTable::build(g);
        let (dist, hops, first) = heap_oracle(g);
        assert!(rt.dist == dist, "{what}: latency tables differ");
        assert!(rt.hops == hops, "{what}: hop tables differ");
        assert!(rt.first == first, "{what}: first-hop tables differ");
    }

    /// Random graph with latencies drawn from `lat` — a narrow range makes
    /// equal-cost paths, and so first-hop ties, common.
    pub(crate) fn random_graph(n: usize, density: f64, lat: (u64, u64), seed: u64) -> Graph {
        let mut rng = SimRng::new(seed);
        let mut g = Graph::with_nodes(n);
        for a in 0..n as NodeId {
            for b in a + 1..n as NodeId {
                if rng.chance(density) {
                    g.add_link(a, b, rng.int_range(lat.0, lat.1), 1.0);
                }
            }
        }
        g
    }

    #[test]
    fn matches_heap_oracle_on_every_generator() {
        let lp = LinkParams::default();
        for seed in 1..=4u64 {
            let mut rng = SimRng::new(seed);
            let ba = generate::barabasi_albert(150, 2, lp, &mut rng);
            assert_matches_heap(&ba, &format!("BA 150 seed {seed}"));
            let wax = generate::waxman(120, 0.3, 0.4, lp, &mut rng);
            assert_matches_heap(&wax, &format!("Waxman 120 seed {seed}"));
            let ts = generate::transit_stub(3, 4, 3, 8, lp, &mut rng);
            assert_matches_heap(&ts, &format!("transit-stub seed {seed}"));
        }
        for n in [1, 2, 3, 7, 64] {
            assert_matches_heap(&generate::ring(n, lp), &format!("ring {n}"));
            assert_matches_heap(&generate::star(n, lp), &format!("star {n}"));
            assert_matches_heap(&generate::full_mesh(n.min(20), lp), "full mesh");
        }
    }

    #[test]
    fn matches_heap_oracle_on_tie_heavy_and_disconnected_graphs() {
        for seed in 0..12u64 {
            // Latencies 1–2 on sparse graphs: many equal-cost paths and,
            // at low density, several components.
            let density = [0.04, 0.08, 0.2][seed as usize % 3];
            let g = random_graph(60, density, (1, 2), seed);
            assert_matches_heap(&g, &format!("tie-heavy seed {seed}"));
        }
        let mut g = Graph::with_nodes(6);
        g.add_link(0, 1, 1, 1.0);
        g.add_link(3, 4, 2, 1.0);
        assert_matches_heap(&g, "isolated nodes and two components");
    }

    #[test]
    fn matches_heap_oracle_with_max_latency_links() {
        let max = Graph::MAX_LATENCY;
        for seed in 0..4u64 {
            let g = random_graph(50, 0.1, (max - 2, max), seed);
            assert_matches_heap(&g, &format!("near-max latencies seed {seed}"));
            let g = random_graph(50, 0.1, (1, max), seed);
            assert_matches_heap(&g, &format!("full latency range seed {seed}"));
        }
        // Equal-cost detours around one max-latency link.
        let mut g = Graph::with_nodes(4);
        g.add_link(0, 3, max, 1.0);
        g.add_link(0, 1, max - 1, 1.0);
        g.add_link(1, 3, 1, 1.0);
        g.add_link(0, 2, 1, 1.0);
        g.add_link(2, 3, max - 1, 1.0);
        assert_matches_heap(&g, "max-latency square");
    }

    #[test]
    #[ignore = "large differential; run in release with --ignored"]
    fn matches_heap_oracle_on_ba_2000() {
        let mut rng = SimRng::new(2000);
        let g = generate::barabasi_albert(2000, 2, LinkParams::default(), &mut rng);
        assert_matches_heap(&g, "BA 2000");
    }

    #[test]
    fn first_hop_follows_the_earliest_settled_optimal_predecessor() {
        // Links 0–2 (1), 0–1 (3), 2–3 (3), 1–3 (1): 0→3 costs 4 in 2 hops
        // via 2 or via 1. Node 2 (latency 1 from 0) precedes node 1
        // (latency 3), so the first hop is 2, although 1 has the lower id.
        let mut g = Graph::with_nodes(4);
        g.add_link(0, 2, 1, 1.0);
        g.add_link(0, 1, 3, 1.0);
        g.add_link(2, 3, 3, 1.0);
        g.add_link(1, 3, 1, 1.0);
        let rt = RoutingTable::build(&g);
        assert_eq!(rt.path(0, 3), Some(vec![0, 2, 3]));
        // From 3, 0's optimal predecessors are 1 (latency 1 from 3) and 2
        // (latency 3): 3 routes through 1.
        assert_eq!(rt.path(3, 0), Some(vec![3, 1, 0]));
        assert_matches_heap(&g, "tie square");
    }

    /// Line 0-1-2-3 with latencies 1, 2, 3.
    fn line() -> Graph {
        let mut g = Graph::with_nodes(4);
        g.add_link(0, 1, 1, 1.0);
        g.add_link(1, 2, 2, 1.0);
        g.add_link(2, 3, 3, 1.0);
        g
    }

    #[test]
    fn line_distances_and_hops() {
        let rt = RoutingTable::build(&line());
        assert_eq!(rt.latency(0, 3), Some(6));
        assert_eq!(rt.hops(0, 3), Some(3));
        assert_eq!(rt.latency(3, 0), Some(6), "symmetric");
        assert_eq!(rt.latency(2, 2), Some(0));
        assert_eq!(rt.hops(2, 2), Some(0));
    }

    #[test]
    fn next_hop_and_path() {
        let rt = RoutingTable::build(&line());
        assert_eq!(rt.next_hop(0, 3), Some(1));
        assert_eq!(rt.next_hop(3, 0), Some(2));
        assert_eq!(rt.next_hop(1, 1), Some(1));
        assert_eq!(rt.path(0, 3), Some(vec![0, 1, 2, 3]));
        assert_eq!(rt.path(2, 0), Some(vec![2, 1, 0]));
    }

    #[test]
    fn picks_lower_latency_over_fewer_hops() {
        // 0-2 direct costs 10; 0-1-2 costs 2+2=4.
        let mut g = Graph::with_nodes(3);
        g.add_link(0, 2, 10, 1.0);
        g.add_link(0, 1, 2, 1.0);
        g.add_link(1, 2, 2, 1.0);
        let rt = RoutingTable::build(&g);
        assert_eq!(rt.latency(0, 2), Some(4));
        assert_eq!(rt.hops(0, 2), Some(2));
        assert_eq!(rt.path(0, 2), Some(vec![0, 1, 2]));
    }

    #[test]
    fn equal_latency_prefers_fewer_hops() {
        // 0-3 via 1: 2+2=4 (2 hops); via direct link: 4 (1 hop).
        let mut g = Graph::with_nodes(4);
        g.add_link(0, 1, 2, 1.0);
        g.add_link(1, 3, 2, 1.0);
        g.add_link(0, 3, 4, 1.0);
        let rt = RoutingTable::build(&g);
        assert_eq!(rt.latency(0, 3), Some(4));
        assert_eq!(rt.hops(0, 3), Some(1));
        assert_eq!(rt.path(0, 3), Some(vec![0, 3]));
    }

    #[test]
    fn disconnected_pairs_are_none() {
        let mut g = Graph::with_nodes(3);
        g.add_link(0, 1, 1, 1.0);
        let rt = RoutingTable::build(&g);
        assert_eq!(rt.latency(0, 2), None);
        assert_eq!(rt.hops(0, 2), None);
        assert_eq!(rt.next_hop(0, 2), None);
        assert_eq!(rt.path(0, 2), None);
        assert_eq!(rt.latency(0, 1), Some(1));
    }

    #[test]
    fn nearest_candidate() {
        let rt = RoutingTable::build(&line());
        assert_eq!(rt.nearest(0, &[2, 3]), Some(2));
        assert_eq!(rt.nearest(3, &[0, 1]), Some(1));
        assert_eq!(rt.nearest(0, &[]), None);
        assert_eq!(rt.nearest(0, &[0]), Some(0));
    }

    #[test]
    fn path_latency_matches_table_on_random_graph() {
        let mut rng = SimRng::new(99);
        let g = generate::barabasi_albert(80, 2, LinkParams::default(), &mut rng);
        let rt = RoutingTable::build(&g);
        for (s, t) in [(0u32, 79u32), (5, 50), (12, 13), (70, 3)] {
            let path = rt.path(s, t).expect("BA graph is connected");
            let mut total = 0u64;
            for w in path.windows(2) {
                let l = g
                    .neighbors(w[0])
                    .iter()
                    .find(|l| l.to == w[1])
                    .expect("path edges exist");
                total += l.latency;
            }
            assert_eq!(Some(total), rt.latency(s, t));
            assert_eq!(rt.hops(s, t), Some((path.len() - 1) as u16));
        }
    }

    #[test]
    fn triangle_inequality_holds() {
        let mut rng = SimRng::new(5);
        let g = generate::waxman(40, 0.3, 0.4, LinkParams::default(), &mut rng);
        let rt = RoutingTable::build(&g);
        for a in 0..40u32 {
            for b in 0..40u32 {
                for c in [0u32, 7, 19] {
                    let (ab, ac, cb) = (
                        rt.latency(a, b).unwrap(),
                        rt.latency(a, c).unwrap(),
                        rt.latency(c, b).unwrap(),
                    );
                    assert!(ab <= ac + cb, "triangle violated {a}->{b} via {c}");
                }
            }
        }
    }
}
