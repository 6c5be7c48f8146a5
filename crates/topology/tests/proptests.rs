//! Property-based tests: the Dijkstra routing tables against a
//! Floyd–Warshall reference, and Grid-map partition invariants.

use gridscale_desim::{cases, SimRng};
use gridscale_topology::generate::{self, LinkParams};
use gridscale_topology::{Graph, GridMap, NodeId, Routing, RoutingTable};

/// Reference all-pairs shortest paths by Floyd–Warshall.
fn floyd_warshall(g: &Graph) -> Vec<Vec<Option<u64>>> {
    let n = g.node_count();
    let mut d = vec![vec![None::<u64>; n]; n];
    #[allow(clippy::needless_range_loop, reason = "index spans matrix rows")]
    for v in 0..n {
        d[v][v] = Some(0);
        for l in g.neighbors(v as NodeId) {
            let cur = d[v][l.to as usize];
            let better = cur.map(|c| l.latency < c).unwrap_or(true);
            if better {
                d[v][l.to as usize] = Some(l.latency);
            }
        }
    }
    #[allow(clippy::needless_range_loop, reason = "index spans matrix rows")]
    for k in 0..n {
        for i in 0..n {
            let Some(dik) = d[i][k] else { continue };
            for j in 0..n {
                let Some(dkj) = d[k][j] else { continue };
                let via = dik + dkj;
                if d[i][j].map(|c| via < c).unwrap_or(true) {
                    d[i][j] = Some(via);
                }
            }
        }
    }
    d
}

/// A random connected-ish graph (components allowed — both code paths use
/// the same None semantics).
fn arb_graph(rng: &mut SimRng) -> Graph {
    let n = rng.int_range(3, 24) as usize;
    let density = rng.uniform(0.05, 0.5);
    let mut g = Graph::with_nodes(n);
    for a in 0..n {
        for b in (a + 1)..n {
            if rng.chance(density) {
                g.add_link(a as NodeId, b as NodeId, rng.int_range(1, 20), 10.0);
            }
        }
    }
    g
}

/// Dijkstra tables equal the Floyd–Warshall reference on every pair.
#[test]
fn routing_matches_floyd_warshall() {
    cases("routing_matches_floyd_warshall", 64, |rng| {
        let g = arb_graph(rng);
        let rt = RoutingTable::build(&g);
        let fw = floyd_warshall(&g);
        for (s, row) in fw.iter().enumerate() {
            for (t, &want) in row.iter().enumerate() {
                assert_eq!(
                    rt.latency(s as NodeId, t as NodeId),
                    want,
                    "pair ({s}, {t})"
                );
            }
        }
    });
}

/// Materialized paths are valid walks whose edge-latency sum equals the
/// table distance.
#[test]
fn paths_are_consistent_walks() {
    cases("paths_are_consistent_walks", 64, |rng| {
        let g = arb_graph(rng);
        let rt = RoutingTable::build(&g);
        let n = g.node_count() as NodeId;
        for s in 0..n {
            for t in 0..n {
                let Some(path) = rt.path(s, t) else { continue };
                assert_eq!(*path.first().unwrap(), s);
                assert_eq!(*path.last().unwrap(), t);
                let mut total = 0u64;
                for w in path.windows(2) {
                    let link = g.neighbors(w[0]).iter().find(|l| l.to == w[1]);
                    assert!(link.is_some(), "path uses a non-edge");
                    total += link.unwrap().latency;
                }
                assert_eq!(Some(total), rt.latency(s, t));
            }
        }
    });
}

/// GridMap partitions resources exhaustively, disjointly, and
/// non-emptily for any feasible shape.
#[test]
fn grid_map_partition_invariants() {
    cases("grid_map_partition_invariants", 64, |rng| {
        // Redraw the shape until the RMS fits in the network.
        let (n, scheds, ests) = loop {
            let n = rng.int_range(20, 79) as usize;
            let scheds = rng.int_range(1, 7) as usize;
            let ests = rng.int_range(0, 3) as usize;
            if scheds + ests + 4 < n {
                break (n, scheds, ests);
            }
        };
        let frac = rng.uniform(0.5, 1.0);
        let g = generate::barabasi_albert(n, 2, LinkParams::default(), rng);
        let rt = Routing::Exact(RoutingTable::build(&g));
        let m = GridMap::build(&g, &rt, scheds, ests, frac);

        let mut seen = std::collections::BTreeSet::new();
        for ci in 0..m.cluster_count() {
            assert!(!m.cluster_resources(ci).is_empty(), "cluster {ci} empty");
            for &r in m.cluster_resources(ci) {
                assert!(seen.insert(r), "resource {r} in two clusters");
                assert_eq!(m.cluster_index(r), Some(ci));
            }
        }
        assert_eq!(seen.len(), m.resources().len(), "partition exhaustive");
        // Estimator assignment exists iff estimators exist.
        for &r in m.resources() {
            assert_eq!(m.estimator_for(r).is_some(), ests > 0);
        }
    });
}

/// Latency scaling preserves shortest-path structure for uniform
/// multipliers (scaling every edge by the same integer factor keeps
/// argmin paths).
#[test]
fn uniform_latency_scaling_preserves_routes() {
    cases("uniform_latency_scaling_preserves_routes", 64, |rng| {
        let g = arb_graph(rng);
        let rt1 = RoutingTable::build(&g);
        let mut g2 = g.clone();
        g2.scale_latencies(3.0);
        let rt2 = RoutingTable::build(&g2);
        for s in 0..g.node_count() as NodeId {
            for t in 0..g.node_count() as NodeId {
                match (rt1.latency(s, t), rt2.latency(s, t)) {
                    (Some(a), Some(b)) => assert_eq!(3 * a, b),
                    (None, None) => {}
                    (a, b) => panic!("reachability changed: {a:?} vs {b:?}"),
                }
            }
        }
    });
}
