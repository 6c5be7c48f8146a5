//! Virtual links: precomputed k-shortest-path aggregates per cluster pair.
//!
//! The bandwidth-aware network model needs, for every pair of scheduler
//! clusters, an ordered list of candidate paths with their propagation
//! latency and bottleneck capacity, plus the ids of the physical links
//! each path crosses so concurrent transfers can contend for shared
//! capacity. Computing paths per message would be both slow and a replay
//! hazard; instead this module precomputes everything once per topology
//! into an immutable [`VlinkTable`] that rides the simulator's shared
//! world (`Arc`-shared, never mutated — the zero-clone replay contract).
//!
//! Two construction modes mirror the two routing models:
//!
//! * **Exact** (paper scale, `< HIER_THRESHOLD` nodes): a truncated
//!   Yen-style enumeration. The first path is the [`RoutingTable`]
//!   shortest path; further candidates come from one Yen deviation level
//!   (a spur search on the `spf` kernel with each single link of the best
//!   path elided, stopping at the target), deduplicated and ordered by
//!   `(latency, hops, link ids)`. One deviation level bounds the
//!   precompute at `O(pairs · pathlen)` searches while still yielding
//!   genuinely link-disjoint detours.
//! * **Hier** (10⁵–10⁶ nodes): enumerating physical paths is infeasible,
//!   so each cluster is modelled by one synthetic *uplink* whose capacity
//!   is the egress bandwidth of its scheduler (gateway) node, and every
//!   cluster pair gets a single modelled path `[uplink_a, uplink_b]` with
//!   the anchor-model latency. Contention then happens where it matters
//!   at that scale — on cluster gateways — with `O(clusters)` links and
//!   `O(clusters²)` path entries.
//!
//! Both modes only ever *add* latency over the shortest path (candidate
//! paths are ≥ the routed latency by construction), which is what keeps
//! the sharded executor's min-cross-latency lookahead conservative when
//! transfers queue behind saturated links.

use crate::graph::{Graph, NodeId};
use crate::map::GridMap;
use crate::route::Routing;
use crate::routing::RoutingTable;
use crate::spf::{Csr, Dial, LowestPred, UNREACHABLE};

/// One candidate path of a virtual link.
#[derive(Debug, Clone, PartialEq)]
pub struct PathSpec {
    /// Total propagation latency along the path, in ticks.
    pub latency: u64,
    /// Number of links crossed.
    pub hops: u16,
    /// Minimum link capacity along the path (payload units per tick).
    pub bottleneck: f64,
    /// Ids of the links the path crosses, in travel order (indices into
    /// [`VlinkTable::link_cap`]).
    pub links: Vec<u32>,
}

/// The immutable per-topology virtual-link table: for every unordered
/// cluster pair, an ordered path list (best first), plus the capacity of
/// every referenced link.
#[derive(Debug, Clone)]
pub struct VlinkTable {
    clusters: usize,
    k: usize,
    hier: bool,
    /// Unordered pair `(a < b)` → candidate paths, best first. Indexed by
    /// the triangular pair index; empty when the pair is unreachable.
    paths: Vec<Vec<PathSpec>>,
    /// Link id → capacity in payload units per tick (already scaled by
    /// the bandwidth-sweep factor). Physical undirected link ids in exact
    /// mode, synthetic per-cluster uplink ids in hier mode.
    pub link_cap: Vec<f64>,
}

impl VlinkTable {
    /// Builds the table for `map`'s clusters over `g`, with up to `k`
    /// candidate paths per pair and every link capacity scaled by
    /// `capacity_scale` (the Case-5 bandwidth-sweep knob).
    pub fn build(
        g: &Graph,
        map: &GridMap,
        routing: &Routing,
        k: usize,
        capacity_scale: f64,
    ) -> VlinkTable {
        assert!(k >= 1, "at least one path per pair");
        assert!(
            capacity_scale > 0.0 && capacity_scale.is_finite(),
            "capacity scale must be positive"
        );
        match routing {
            Routing::Exact(rt) => Self::build_exact(g, map, rt, k, capacity_scale),
            Routing::Hier(_) => Self::build_hier(g, map, routing, capacity_scale),
        }
    }

    /// Exact mode: truncated Yen over the physical graph (module docs).
    fn build_exact(
        g: &Graph,
        map: &GridMap,
        rt: &RoutingTable,
        k: usize,
        capacity_scale: f64,
    ) -> VlinkTable {
        let nc = map.cluster_count();
        let ids = g.link_ids();
        let link_cap = g.link_capacities(capacity_scale);
        let mut paths = vec![Vec::new(); nc * (nc.saturating_sub(1)) / 2];
        let mut spur = SpurSearch::new(g, &ids);
        for a in 0..nc {
            for b in (a + 1)..nc {
                let (sa, sb) = (map.cluster_scheduler(a), map.cluster_scheduler(b));
                let Some(best_nodes) = rt.path(sa, sb) else {
                    continue;
                };
                let best = spec_of(g, &ids, &link_cap, &best_nodes);
                let mut candidates = Vec::with_capacity(best.links.len());
                // One Yen deviation level: elide each link of the best
                // path in turn and re-route.
                for &elide in &best.links {
                    if let Some(nodes) = spur.path(sa, sb, elide) {
                        let spec = spec_of(g, &ids, &link_cap, &nodes);
                        if spec.links != best.links && !candidates.contains(&spec) {
                            candidates.push(spec);
                        }
                    }
                }
                // Deterministic order: latency, then hops, then the link
                // id sequence itself (a total order over distinct paths).
                candidates.sort_by(|x, y| {
                    (x.latency, x.hops, &x.links).cmp(&(y.latency, y.hops, &y.links))
                });
                candidates.truncate(k.saturating_sub(1));
                let mut list = Vec::with_capacity(1 + candidates.len());
                list.push(best);
                list.extend(candidates);
                paths[pair_index(nc, a, b)] = list;
            }
        }
        VlinkTable {
            clusters: nc,
            k,
            hier: false,
            paths,
            link_cap,
        }
    }

    /// Hier mode: one synthetic uplink per cluster gateway (module docs).
    fn build_hier(g: &Graph, map: &GridMap, routing: &Routing, capacity_scale: f64) -> VlinkTable {
        let nc = map.cluster_count();
        // Synthetic link `c` = cluster c's uplink; its capacity is the
        // total egress bandwidth of the cluster's scheduler node.
        let link_cap: Vec<f64> = (0..nc)
            .map(|c| {
                let s = map.cluster_scheduler(c);
                let egress: f64 = g.neighbors(s).iter().map(|l| l.bandwidth).sum();
                egress.max(f64::MIN_POSITIVE) * capacity_scale
            })
            .collect();
        let mut paths = vec![Vec::new(); nc * (nc.saturating_sub(1)) / 2];
        for a in 0..nc {
            for b in (a + 1)..nc {
                let (sa, sb) = (map.cluster_scheduler(a), map.cluster_scheduler(b));
                let (Some(latency), Some(hops)) = (routing.latency(sa, sb), routing.hops(sa, sb))
                else {
                    continue;
                };
                paths[pair_index(nc, a, b)] = vec![PathSpec {
                    latency,
                    hops,
                    bottleneck: link_cap[a].min(link_cap[b]),
                    links: vec![a as u32, b as u32],
                }];
            }
        }
        VlinkTable {
            clusters: nc,
            k: 1,
            hier: true,
            paths,
            link_cap,
        }
    }

    /// Number of clusters the table covers.
    pub fn clusters(&self) -> usize {
        self.clusters
    }

    /// The `k` the table was built with (1 in hier mode).
    pub fn k_paths(&self) -> usize {
        self.k
    }

    /// True when the table models synthetic uplinks instead of physical
    /// link paths.
    pub fn is_hier(&self) -> bool {
        self.hier
    }

    /// Candidate paths between clusters `a` and `b`, best first. Empty
    /// when `a == b` (intra-cluster traffic never rides a virtual link)
    /// or the pair is unreachable.
    pub fn paths(&self, a: usize, b: usize) -> &[PathSpec] {
        if a == b {
            return &[];
        }
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        &self.paths[pair_index(self.clusters, lo, hi)]
    }

    /// Approximate resident bytes (capacity-based; telemetry only).
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        self.link_cap.capacity() * size_of::<f64>()
            + self.paths.capacity() * size_of::<Vec<PathSpec>>()
            + self
                .paths
                .iter()
                .map(|list| {
                    list.capacity() * size_of::<PathSpec>()
                        + list
                            .iter()
                            .map(|p| p.links.capacity() * size_of::<u32>())
                            .sum::<usize>()
                })
                .sum::<usize>()
    }
}

/// Triangular index of unordered pair `(a, b)` with `a < b` over `n`.
fn pair_index(n: usize, a: usize, b: usize) -> usize {
    debug_assert!(a < b && b < n);
    a * n - a * (a + 1) / 2 + (b - a - 1)
}

/// Builds the [`PathSpec`] of an explicit node path.
fn spec_of(g: &Graph, ids: &[Vec<u32>], link_cap: &[f64], nodes: &[NodeId]) -> PathSpec {
    let mut latency = 0u64;
    let mut bottleneck = f64::INFINITY;
    let mut links = Vec::with_capacity(nodes.len().saturating_sub(1));
    for w in nodes.windows(2) {
        let (u, v) = (w[0], w[1]);
        let i = g
            .neighbors(u)
            .iter()
            .position(|l| l.to == v)
            .expect("path follows graph links");
        let link = &g.neighbors(u)[i];
        let id = ids[u as usize][i];
        latency += link.latency;
        bottleneck = bottleneck.min(link_cap[id as usize]);
        links.push(id);
    }
    PathSpec {
        latency,
        hops: links.len() as u16,
        bottleneck: if links.is_empty() { 0.0 } else { bottleneck },
        links,
    }
}

/// The spur searches of one graph: the `spf` kernel over a CSR copy,
/// with a [`LowestPred`] label, reusing its arrays across queries.
struct SpurSearch {
    csr: Csr,
    /// Link id of every CSR edge.
    link_of: Vec<u32>,
    dial: Dial,
    d: Vec<u64>,
    h: Vec<u16>,
    pred: Vec<u32>,
}

impl SpurSearch {
    fn new(g: &Graph, ids: &[Vec<u32>]) -> SpurSearch {
        let csr = Csr::of(g);
        let n = csr.len();
        SpurSearch {
            dial: Dial::for_csr(&csr),
            csr,
            link_of: ids.concat(),
            d: vec![UNREACHABLE; n],
            h: vec![u16::MAX; n],
            pred: vec![0; n],
        }
    }

    /// Shortest path `src → dst` with link `elide` removed (`u32::MAX`:
    /// none), breaking latency ties by fewer hops, then toward the
    /// lowest-id predecessor at each node. That is not
    /// [`RoutingTable::build`]'s rule (the optimal predecessor with the
    /// least `(latency from src, id)`), so between equal-cost paths a
    /// reroute may pick a different one than the table; the two agree on
    /// latency and hops.
    fn path(&mut self, src: NodeId, dst: NodeId, elide: u32) -> Option<Vec<NodeId>> {
        let (s, t) = (src as usize, dst as usize);
        self.d.fill(UNREACHABLE);
        self.h.fill(u16::MAX);
        self.d[s] = 0;
        self.h[s] = 0;
        let mut label = LowestPred {
            pred: &mut self.pred,
            link_of: &self.link_of,
            elide,
            dst: t,
        };
        self.dial
            .run(&self.csr, &[src], &mut self.d, &mut self.h, &mut label);
        if self.d[t] == UNREACHABLE {
            return None;
        }
        let mut path = vec![dst];
        let mut v = t;
        while v != s {
            v = self.pred[v] as usize;
            path.push(v as NodeId);
        }
        path.reverse();
        Some(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{self, LinkParams};
    use crate::routing::tests::random_graph;
    use gridscale_desim::SimRng;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    fn exact_sample(seed: u64) -> (Graph, Routing, GridMap) {
        let mut rng = SimRng::new(seed);
        let g = generate::barabasi_albert(120, 2, LinkParams::default(), &mut rng);
        let routing = Routing::Exact(RoutingTable::build(&g));
        let map = GridMap::build(&g, &routing, 6, 2, 0.9);
        (g, routing, map)
    }

    fn hier_sample(seed: u64) -> (Graph, Routing, GridMap) {
        let mut rng = SimRng::new(seed);
        let g = generate::barabasi_albert(300, 2, LinkParams::default(), &mut rng);
        let placement = GridMap::place(&g, 8, 0, 0.9);
        let routing = Routing::Hier(crate::HierRouting::build(&g, placement.schedulers()));
        let map = GridMap::assemble(placement, &routing);
        (g, routing, map)
    }

    /// The binary-heap spur search the table was built with before the
    /// bucket-queue kernel, kept as the differential oracle: keyed on
    /// `(d, h, node)`, it takes a tied `(d, h)` from a lower-id
    /// predecessor and stops when it pops `dst`.
    fn heap_spur_path(
        g: &Graph,
        ids: &[Vec<u32>],
        src: NodeId,
        dst: NodeId,
        elide: u32,
    ) -> Option<Vec<NodeId>> {
        let n = g.node_count();
        let (mut dist, mut hops) = (vec![UNREACHABLE; n], vec![u16::MAX; n]);
        let mut pred = vec![src; n];
        let mut heap: BinaryHeap<Reverse<(u64, u16, NodeId)>> = BinaryHeap::new();
        dist[src as usize] = 0;
        hops[src as usize] = 0;
        heap.push(Reverse((0, 0, src)));
        while let Some(Reverse((d, h, v))) = heap.pop() {
            if (d, h) > (dist[v as usize], hops[v as usize]) {
                continue;
            }
            if v == dst {
                break;
            }
            for (i, l) in g.neighbors(v).iter().enumerate() {
                if ids[v as usize][i] == elide {
                    continue;
                }
                let (to, nd, nh) = (l.to as usize, d + l.latency, h + 1);
                if (nd, nh, v) < (dist[to], hops[to], pred[to]) {
                    dist[to] = nd;
                    hops[to] = nh;
                    pred[to] = v;
                    heap.push(Reverse((nd, nh, l.to)));
                }
            }
        }
        if dist[dst as usize] == UNREACHABLE {
            return None;
        }
        let mut path = vec![dst];
        while *path.last()? != src {
            path.push(pred[*path.last()? as usize]);
        }
        path.reverse();
        Some(path)
    }

    /// Between every pair of `ends`, the kernel's spur search equals the
    /// heap oracle with no link elided and with each link of the routed
    /// path elided in turn. Returns the number of searches compared.
    fn assert_spur_matches_heap(g: &Graph, ends: &[NodeId], what: &str) -> usize {
        let rt = RoutingTable::build(g);
        let ids = g.link_ids();
        let caps = g.link_capacities(1.0);
        let mut spur = SpurSearch::new(g, &ids);
        let mut searches = 0;
        for (i, &a) in ends.iter().enumerate() {
            for &b in &ends[i + 1..] {
                let routed = rt.path(a, b).map(|p| spec_of(g, &ids, &caps, &p).links);
                for elide in routed.unwrap_or_default().into_iter().chain([u32::MAX]) {
                    assert_eq!(
                        spur.path(a, b, elide),
                        heap_spur_path(g, &ids, a, b, elide),
                        "{what}: {a} -> {b} eliding link {elide}"
                    );
                    searches += 1;
                }
            }
        }
        searches
    }

    /// About 16 endpoints spread over `g`'s node ids.
    fn spread(g: &Graph) -> Vec<NodeId> {
        let n = g.node_count();
        (0..n as NodeId).step_by(n.div_ceil(16).max(1)).collect()
    }

    #[test]
    fn spur_search_matches_heap_oracle_on_every_generator() {
        let lp = LinkParams::default();
        for seed in 1..=3u64 {
            let mut rng = SimRng::new(seed);
            let ba = generate::barabasi_albert(150, 2, lp, &mut rng);
            assert_spur_matches_heap(&ba, &spread(&ba), &format!("BA seed {seed}"));
            let wax = generate::waxman(120, 0.3, 0.4, lp, &mut rng);
            assert_spur_matches_heap(&wax, &spread(&wax), &format!("Waxman seed {seed}"));
            let ts = generate::transit_stub(3, 4, 3, 8, lp, &mut rng);
            assert_spur_matches_heap(&ts, &spread(&ts), &format!("transit-stub seed {seed}"));
        }
        for n in [2, 3, 7, 40] {
            let ring = generate::ring(n, lp);
            assert_spur_matches_heap(&ring, &spread(&ring), &format!("ring {n}"));
            let star = generate::star(n, lp);
            assert_spur_matches_heap(&star, &spread(&star), &format!("star {n}"));
            let mesh = generate::full_mesh(n.min(20), lp);
            assert_spur_matches_heap(&mesh, &spread(&mesh), &format!("mesh {n}"));
        }
    }

    #[test]
    fn spur_search_matches_heap_oracle_on_ties_gaps_and_max_latencies() {
        let all: Vec<NodeId> = (0..40).collect();
        for seed in 0..4u64 {
            // All latencies 1: equal-cost paths everywhere. At the low
            // densities the graph falls apart into components.
            for density in [0.04, 0.1, 0.25] {
                let g = random_graph(40, density, (1, 1), seed);
                assert_spur_matches_heap(&g, &all, &format!("unit latencies {density} {seed}"));
            }
        }
        let mut g = Graph::with_nodes(6);
        g.add_link(0, 1, 1, 1.0);
        g.add_link(3, 4, 2, 1.0);
        assert_spur_matches_heap(&g, &all[..6], "isolated nodes and two components");
        // The ring spans 2^17 buckets here, so a few endpoints suffice.
        let max = Graph::MAX_LATENCY;
        for seed in 0..2u64 {
            let g = random_graph(40, 0.1, (max - 2, max), seed);
            assert_spur_matches_heap(&g, &[0, 9, 18, 27, 36], &format!("near-max {seed}"));
            let g = random_graph(40, 0.1, (1, max), seed);
            assert_spur_matches_heap(&g, &[0, 9, 18, 27, 36], &format!("full range {seed}"));
        }
        // Equal-cost detours around one max-latency link.
        let mut g = Graph::with_nodes(4);
        g.add_link(0, 3, max, 1.0);
        g.add_link(0, 1, max - 1, 1.0);
        g.add_link(1, 3, 1, 1.0);
        g.add_link(0, 2, 1, 1.0);
        g.add_link(2, 3, max - 1, 1.0);
        assert_spur_matches_heap(&g, &all[..4], "max-latency square");
    }

    #[test]
    #[ignore = "large differential; run in release with --ignored"]
    fn spur_search_matches_heap_oracle_on_ba_1000_with_62_clusters() {
        let mut rng = SimRng::new(1000);
        let g = generate::barabasi_albert(1000, 2, LinkParams::default(), &mut rng);
        let routing = Routing::Exact(RoutingTable::build(&g));
        let map = GridMap::build(&g, &routing, 62, 0, 0.9);
        let searches = assert_spur_matches_heap(&g, map.schedulers(), "BA 1000");
        assert!(searches > 62 * 61 / 2, "{searches} searches");
    }

    #[test]
    fn table_and_spur_search_state_their_own_tie_rules() {
        // Links 0–2 (1), 0–1 (3), 2–3 (3), 1–3 (1): both 0→2→3 and 0→1→3
        // cost 4 ticks in 2 hops.
        let mut g = Graph::with_nodes(4);
        g.add_link(0, 2, 1, 1.0);
        g.add_link(0, 1, 3, 1.0);
        g.add_link(2, 3, 3, 1.0);
        g.add_link(1, 3, 1, 1.0);
        // The table follows 3's optimal predecessor with the least
        // (latency from 0, id): node 2 at latency 1 beats node 1 at 3.
        let rt = RoutingTable::build(&g);
        assert_eq!(rt.path(0, 3), Some(vec![0, 2, 3]));
        // The spur search keeps the lowest-id optimal predecessor.
        let mut spur = SpurSearch::new(&g, &g.link_ids());
        assert_eq!(spur.path(0, 3, u32::MAX), Some(vec![0, 1, 3]));
    }

    /// FNV-1a digest of every path list of `t`, pair by pair.
    fn table_digest(t: &VlinkTable) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        let mut eat = |x: u64| h = (h ^ x).wrapping_mul(0x0100_0000_01B3);
        for a in 0..t.clusters() {
            for b in (a + 1)..t.clusters() {
                let list = t.paths(a, b);
                eat(list.len() as u64);
                for p in list {
                    eat(p.latency);
                    eat(u64::from(p.hops));
                    eat(p.bottleneck.to_bits());
                    p.links.iter().for_each(|&l| eat(u64::from(l)));
                }
            }
        }
        h
    }

    #[test]
    fn exact_tables_are_pinned_on_three_ba_worlds() {
        let mut digests = Vec::new();
        for seed in 1..=3u64 {
            let mut rng = SimRng::new(seed);
            let g = generate::barabasi_albert(400, 2, LinkParams::default(), &mut rng);
            let routing = Routing::Exact(RoutingTable::build(&g));
            let map = GridMap::build(&g, &routing, 16, 2, 0.9);
            digests.push(table_digest(&VlinkTable::build(&g, &map, &routing, 4, 1.0)));
        }
        let pins = [
            1_022_278_904_405_902_724,
            7_531_743_036_102_527_616,
            7_731_906_113_315_671_413,
        ];
        assert_eq!(digests, pins);
    }

    #[test]
    fn exact_first_path_is_the_routed_shortest_and_alternates_never_undercut_it() {
        let (g, routing, map) = exact_sample(42);
        let t = VlinkTable::build(&g, &map, &routing, 3, 1.0);
        assert!(!t.is_hier());
        let mut pairs_with_alternates = 0;
        for a in 0..map.cluster_count() {
            for b in (a + 1)..map.cluster_count() {
                let list = t.paths(a, b);
                assert!(!list.is_empty(), "connected graph: pair ({a},{b})");
                assert!(list.len() <= 3);
                let routed = routing
                    .latency(map.cluster_scheduler(a), map.cluster_scheduler(b))
                    .unwrap();
                assert_eq!(
                    list[0].latency, routed,
                    "best path must match the routing table"
                );
                for w in list.windows(2) {
                    assert!(
                        (w[0].latency, w[0].hops) <= (w[1].latency, w[1].hops),
                        "paths must be ordered best-first"
                    );
                    assert!(
                        w[1].latency >= routed,
                        "alternates may only add latency (lookahead conservativeness)"
                    );
                }
                if list.len() > 1 {
                    pairs_with_alternates += 1;
                }
            }
        }
        assert!(
            pairs_with_alternates > 0,
            "a BA graph with m=2 has link-disjoint detours somewhere"
        );
    }

    #[test]
    fn exact_bottlenecks_and_links_are_consistent_with_capacities() {
        let (g, routing, map) = exact_sample(7);
        let scale = 0.25;
        let t = VlinkTable::build(&g, &map, &routing, 2, scale);
        assert_eq!(t.link_cap.len(), g.link_count());
        for cap in &t.link_cap {
            assert!((cap - LinkParams::default().bandwidth * scale).abs() < 1e-12);
        }
        for a in 0..map.cluster_count() {
            for b in (a + 1)..map.cluster_count() {
                for p in t.paths(a, b) {
                    assert_eq!(p.hops as usize, p.links.len());
                    let min = p
                        .links
                        .iter()
                        .map(|&l| t.link_cap[l as usize])
                        .fold(f64::INFINITY, f64::min);
                    assert_eq!(p.bottleneck.to_bits(), min.to_bits());
                }
            }
        }
    }

    #[test]
    fn paths_are_symmetric_and_empty_on_the_diagonal() {
        let (g, routing, map) = exact_sample(42);
        let t = VlinkTable::build(&g, &map, &routing, 2, 1.0);
        for a in 0..map.cluster_count() {
            assert!(t.paths(a, a).is_empty());
            for b in 0..map.cluster_count() {
                if a != b {
                    assert_eq!(t.paths(a, b), t.paths(b, a));
                }
            }
        }
    }

    #[test]
    fn build_is_deterministic() {
        let (g, routing, map) = exact_sample(99);
        let t1 = VlinkTable::build(&g, &map, &routing, 4, 1.0);
        let t2 = VlinkTable::build(&g, &map, &routing, 4, 1.0);
        for a in 0..map.cluster_count() {
            for b in (a + 1)..map.cluster_count() {
                assert_eq!(t1.paths(a, b), t2.paths(a, b));
            }
        }
        let bits = |caps: &[f64]| caps.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&t1.link_cap), bits(&t2.link_cap));
        assert!(t1.approx_bytes() > 0);
    }

    #[test]
    fn hier_mode_models_one_uplink_path_per_pair() {
        let (g, routing, map) = hier_sample(42);
        let t = VlinkTable::build(&g, &map, &routing, 4, 1.0);
        assert!(t.is_hier());
        assert_eq!(t.k_paths(), 1, "hier mode keeps a single modelled path");
        assert_eq!(t.link_cap.len(), map.cluster_count());
        for a in 0..map.cluster_count() {
            let s = map.cluster_scheduler(a);
            let egress: f64 = g.neighbors(s).iter().map(|l| l.bandwidth).sum();
            assert_eq!(t.link_cap[a].to_bits(), egress.to_bits());
            for b in (a + 1)..map.cluster_count() {
                let list = t.paths(a, b);
                assert_eq!(list.len(), 1);
                assert_eq!(list[0].links, vec![a as u32, b as u32]);
                assert_eq!(
                    list[0].bottleneck.to_bits(),
                    t.link_cap[a].min(t.link_cap[b]).to_bits()
                );
                let (sa, sb) = (map.cluster_scheduler(a), map.cluster_scheduler(b));
                assert_eq!(list[0].latency, routing.latency(sa, sb).unwrap());
            }
        }
    }

    #[test]
    fn ring_topology_yields_the_two_arc_paths() {
        // A 6-ring with 3 schedulers: between any two schedulers there are
        // exactly two link-disjoint paths (the two arcs), and the one-level
        // Yen deviation must find the second arc.
        let g = generate::ring(6, LinkParams::default());
        let routing = Routing::Exact(RoutingTable::build(&g));
        let map = GridMap::build(&g, &routing, 3, 0, 0.9);
        let t = VlinkTable::build(&g, &map, &routing, 2, 1.0);
        for a in 0..map.cluster_count() {
            for b in (a + 1)..map.cluster_count() {
                let list = t.paths(a, b);
                assert_eq!(list.len(), 2, "ring pair ({a},{b}) has both arcs");
                let ring_links = 6;
                assert_eq!(
                    list[0].hops as usize + list[1].hops as usize,
                    ring_links,
                    "the two arcs cover the whole ring"
                );
                // Link-disjoint by construction on a ring.
                for l in &list[0].links {
                    assert!(!list[1].links.contains(l));
                }
            }
        }
    }
}
