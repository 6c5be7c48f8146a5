//! Synthetic Internet-like topology generators (Mercator substitute).
//!
//! Mercator [Govindan & Tangmunarunkit, INFOCOM 2000] produced router-level
//! Internet maps whose salient structural properties are a heavy-tailed
//! degree distribution and hierarchical locality. The generators here
//! reproduce those properties synthetically; `DESIGN.md` documents the
//! substitution.
//!
//! All generators draw per-link latency uniformly from a configurable range
//! and assign a constant bandwidth, matching the paper's "network links have
//! finite bandwidth and non-zero latencies".

use crate::graph::{Graph, NodeId};
use gridscale_desim::SimRng;

/// Link-attribute configuration shared by all generators.
#[derive(Debug, Clone, Copy)]
pub struct LinkParams {
    /// Minimum per-link latency (ticks), inclusive.
    pub min_latency: u64,
    /// Maximum per-link latency (ticks), inclusive.
    pub max_latency: u64,
    /// Link bandwidth in payload units per tick.
    pub bandwidth: f64,
}

impl Default for LinkParams {
    fn default() -> Self {
        LinkParams {
            min_latency: 1,
            max_latency: 10,
            bandwidth: 100.0,
        }
    }
}

impl LinkParams {
    fn draw_latency(&self, rng: &mut SimRng) -> u64 {
        rng.int_range(self.min_latency, self.max_latency)
    }
}

/// Barabási–Albert preferential attachment: `n` nodes, each new node
/// attaching to `m` existing nodes with probability proportional to degree.
///
/// Produces the power-law degree distribution observed in Mercator maps.
/// Panics if `n < m + 1` or `m == 0`.
pub fn barabasi_albert(n: usize, m: usize, lp: LinkParams, rng: &mut SimRng) -> Graph {
    assert!(m >= 1, "attachment count must be positive");
    assert!(n > m, "need more nodes than the attachment count");
    let mut g = Graph::with_nodes(n);
    // Repeated-endpoint list: picking uniformly from it is degree-biased.
    let mut endpoints: Vec<NodeId> = Vec::with_capacity(2 * n * m);

    // Seed clique over the first m+1 nodes.
    for a in 0..=(m as NodeId) {
        for b in (a + 1)..=(m as NodeId) {
            g.add_link(a, b, lp.draw_latency(rng), lp.bandwidth);
            endpoints.push(a);
            endpoints.push(b);
        }
    }

    for v in (m + 1)..n {
        let v = v as NodeId;
        let mut attached = 0usize;
        let mut guard = 0usize;
        while attached < m {
            guard += 1;
            let target = if guard > 50 * m {
                // Degenerate corner (tiny graphs): fall back to uniform.
                rng.index(v as usize) as NodeId
            } else {
                endpoints[rng.index(endpoints.len())]
            };
            if target != v && g.add_link(v, target, lp.draw_latency(rng), lp.bandwidth) {
                endpoints.push(v);
                endpoints.push(target);
                attached += 1;
            }
        }
    }
    debug_assert!(g.is_connected());
    g
}

/// Waxman random graph on the unit square: nodes are random points; the
/// probability of a link is `beta * exp(-d / (alpha * L))` where `d` is
/// Euclidean distance and `L = sqrt(2)` is the diameter. Link latency is
/// proportional to distance, scaled into `[min_latency, max_latency]`.
///
/// The result is post-processed to be connected (components are joined by
/// their closest node pair), since the simulator requires full reachability.
pub fn waxman(n: usize, alpha: f64, beta: f64, lp: LinkParams, rng: &mut SimRng) -> Graph {
    assert!(n >= 1);
    assert!(alpha > 0.0 && (0.0..=1.0).contains(&beta));
    let pts: Vec<(f64, f64)> = (0..n).map(|_| (rng.uniform01(), rng.uniform01())).collect();
    let diag = std::f64::consts::SQRT_2;
    let mut g = Graph::with_nodes(n);
    let lat_of = |d: f64| -> u64 {
        let span = (lp.max_latency - lp.min_latency) as f64;
        (lp.min_latency as f64 + span * (d / diag).min(1.0)).round() as u64
    };
    for a in 0..n {
        for b in (a + 1)..n {
            let dx = pts[a].0 - pts[b].0;
            let dy = pts[a].1 - pts[b].1;
            let d = (dx * dx + dy * dy).sqrt();
            if rng.chance(beta * (-d / (alpha * diag)).exp()) {
                g.add_link(a as NodeId, b as NodeId, lat_of(d), lp.bandwidth);
            }
        }
    }
    // Join components by closest pairs until connected.
    loop {
        let comps = g.components();
        if comps.len() <= 1 {
            break;
        }
        let base = &comps[0];
        let other = &comps[1];
        let mut best = (f64::INFINITY, base[0], other[0]);
        for &a in base {
            for &b in other {
                let dx = pts[a as usize].0 - pts[b as usize].0;
                let dy = pts[a as usize].1 - pts[b as usize].1;
                let d = (dx * dx + dy * dy).sqrt();
                if d < best.0 {
                    best = (d, a, b);
                }
            }
        }
        g.add_link(best.1, best.2, lat_of(best.0), lp.bandwidth);
    }
    g
}

/// Transit-stub hierarchy: `transits` transit domains of `transit_size`
/// routers each (ring + chords, inter-transit mesh), with `stubs_per_transit`
/// stub domains of `stub_size` nodes hanging off each transit router in
/// round-robin. Stub-internal links are cheap; transit links are faster but
/// longer-haul (latency at the top of the range).
pub fn transit_stub(
    transits: usize,
    transit_size: usize,
    stubs_per_transit: usize,
    stub_size: usize,
    lp: LinkParams,
    rng: &mut SimRng,
) -> Graph {
    assert!(transits >= 1 && transit_size >= 1 && stub_size >= 1);
    let mut g = Graph::with_nodes(0);
    let mut transit_nodes: Vec<Vec<NodeId>> = Vec::with_capacity(transits);

    for _ in 0..transits {
        let ids: Vec<NodeId> = (0..transit_size).map(|_| g.add_node()).collect();
        // Ring within the transit domain.
        for i in 0..ids.len() {
            if ids.len() > 1 {
                let a = ids[i];
                let b = ids[(i + 1) % ids.len()];
                g.add_link(a, b, lp.max_latency.max(1), lp.bandwidth * 4.0);
            }
        }
        // A few chords for redundancy.
        for _ in 0..(transit_size / 2) {
            if ids.len() > 2 {
                let a = ids[rng.index(ids.len())];
                let b = ids[rng.index(ids.len())];
                if a != b {
                    g.add_link(a, b, lp.max_latency.max(1), lp.bandwidth * 4.0);
                }
            }
        }
        transit_nodes.push(ids);
    }
    // Mesh between transit domains (one link per pair).
    for i in 0..transits {
        for j in (i + 1)..transits {
            let a = transit_nodes[i][rng.index(transit_size)];
            let b = transit_nodes[j][rng.index(transit_size)];
            g.add_link(a, b, lp.max_latency.max(1) * 2, lp.bandwidth * 8.0);
        }
    }
    // Stub domains.
    #[allow(clippy::needless_range_loop, reason = "index spans parallel tables")]
    for t in 0..transits {
        for s in 0..stubs_per_transit {
            let gateway = transit_nodes[t][s % transit_size];
            let stub: Vec<NodeId> = (0..stub_size).map(|_| g.add_node()).collect();
            // Star + ring inside the stub for small diameter.
            for i in 0..stub.len() {
                if i > 0 {
                    g.add_link(stub[0], stub[i], lp.draw_latency(rng), lp.bandwidth);
                }
                if stub.len() > 2 {
                    let nxt = stub[(i + 1) % stub.len()];
                    if stub[i] != nxt {
                        g.add_link(stub[i], nxt, lp.draw_latency(rng), lp.bandwidth);
                    }
                }
            }
            g.add_link(gateway, stub[0], lp.draw_latency(rng), lp.bandwidth * 2.0);
        }
    }
    debug_assert!(g.is_connected());
    g
}

/// A ring of `n` nodes — a tiny deterministic baseline for tests.
pub fn ring(n: usize, lp: LinkParams) -> Graph {
    let mut g = Graph::with_nodes(n);
    if n < 2 {
        return g;
    }
    for i in 0..n {
        let a = i as NodeId;
        let b = ((i + 1) % n) as NodeId;
        if a != b {
            g.add_link(a, b, lp.min_latency.max(1), lp.bandwidth);
        }
    }
    g
}

/// A complete graph on `n` nodes — a tiny deterministic baseline for tests.
pub fn full_mesh(n: usize, lp: LinkParams) -> Graph {
    let mut g = Graph::with_nodes(n);
    for a in 0..n {
        for b in (a + 1)..n {
            g.add_link(
                a as NodeId,
                b as NodeId,
                lp.min_latency.max(1),
                lp.bandwidth,
            );
        }
    }
    g
}

/// A star with node 0 at the hub — a tiny deterministic baseline for tests
/// and the natural shape for the CENTRAL RMS.
pub fn star(n: usize, lp: LinkParams) -> Graph {
    let mut g = Graph::with_nodes(n);
    for i in 1..n {
        g.add_link(0, i as NodeId, lp.min_latency.max(1), lp.bandwidth);
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::new(1234)
    }

    #[test]
    fn ba_connected_with_expected_edges() {
        let g = barabasi_albert(200, 2, LinkParams::default(), &mut rng());
        assert_eq!(g.node_count(), 200);
        assert!(g.is_connected());
        // Seed clique (3 edges for m=2) + 2 per additional node.
        assert_eq!(g.link_count(), 3 + (200 - 3) * 2);
    }

    #[test]
    fn ba_degree_is_heavy_tailed() {
        let g = barabasi_albert(500, 2, LinkParams::default(), &mut rng());
        let dist = g.degree_distribution();
        let max_deg = dist.len() - 1;
        // A hub far above the mean degree (~4) must exist.
        assert!(max_deg > 15, "max degree {max_deg} too small for BA");
        // ... and low-degree nodes must dominate.
        let low: usize = dist.iter().take(5).sum();
        assert!(low > 250, "low-degree mass {low} too small");
    }

    #[test]
    fn ba_deterministic_under_seed() {
        let a = barabasi_albert(100, 2, LinkParams::default(), &mut SimRng::new(7));
        let b = barabasi_albert(100, 2, LinkParams::default(), &mut SimRng::new(7));
        assert_eq!(a.link_count(), b.link_count());
        for n in a.nodes() {
            assert_eq!(a.degree(n), b.degree(n));
        }
    }

    #[test]
    #[should_panic]
    fn ba_rejects_too_few_nodes() {
        barabasi_albert(2, 2, LinkParams::default(), &mut rng());
    }

    #[test]
    fn waxman_connected() {
        let g = waxman(150, 0.2, 0.3, LinkParams::default(), &mut rng());
        assert_eq!(g.node_count(), 150);
        assert!(g.is_connected());
        assert!(g.link_count() >= 149, "at least a spanning tree");
    }

    #[test]
    fn waxman_latency_in_range() {
        let lp = LinkParams {
            min_latency: 2,
            max_latency: 20,
            bandwidth: 10.0,
        };
        let g = waxman(60, 0.3, 0.4, lp, &mut rng());
        for n in g.nodes() {
            for l in g.neighbors(n) {
                assert!((2..=20).contains(&l.latency), "latency {}", l.latency);
            }
        }
    }

    #[test]
    fn transit_stub_structure() {
        let g = transit_stub(3, 4, 2, 5, LinkParams::default(), &mut rng());
        // 3*4 transit + 3*2*5 stub nodes.
        assert_eq!(g.node_count(), 12 + 30);
        assert!(g.is_connected());
    }

    #[test]
    fn transit_stub_single_domain() {
        let g = transit_stub(1, 1, 1, 3, LinkParams::default(), &mut rng());
        assert_eq!(g.node_count(), 4);
        assert!(g.is_connected());
    }

    #[test]
    fn ring_and_mesh_and_star() {
        let lp = LinkParams::default();
        let r = ring(6, lp);
        assert_eq!(r.link_count(), 6);
        assert!(r.nodes().all(|n| r.degree(n) == 2));

        let m = full_mesh(5, lp);
        assert_eq!(m.link_count(), 10);
        assert!(m.nodes().all(|n| m.degree(n) == 4));

        let s = star(5, lp);
        assert_eq!(s.link_count(), 4);
        assert_eq!(s.degree(0), 4);
        assert!((1..5).all(|n| s.degree(n as NodeId) == 1));
    }

    #[test]
    fn tiny_baselines_do_not_panic() {
        let lp = LinkParams::default();
        assert_eq!(ring(0, lp).node_count(), 0);
        assert_eq!(ring(1, lp).link_count(), 0);
        assert_eq!(full_mesh(1, lp).link_count(), 0);
        assert_eq!(star(1, lp).link_count(), 0);
        assert_eq!(waxman(1, 0.2, 0.3, lp, &mut rng()).node_count(), 1);
    }
}
