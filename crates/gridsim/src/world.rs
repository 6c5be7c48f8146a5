//! World building: topology, routing, grid map, workload trace, and the
//! immutable placement [`Layout`] — everything a run reads but never
//! writes. Built once per [`SimTemplate`](crate::SimTemplate) and shared
//! (`Arc`) across runs; all per-run mutable companions live in the
//! subsystem scratch structs, indexed identically.
//!
//! # Lanes and partitions
//!
//! Every event in the simulator belongs to exactly one **lane** — the
//! unit of sequential state: cluster lanes `0..C` (scheduler + its
//! resources), estimator lanes `C..C+E`, and one global lane `C+E`
//! (timeline sampling). Lanes are the partitioning granularity of the
//! sharded executor: a [`ShardPlan`] groups lanes onto shards and
//! carries the least latency of any message channel between shards,
//! which (scaled by the link-delay enabler) *is* the conservative
//! lookahead of the barrier protocol.

use crate::config::{GridConfig, TopologySpec};
use crate::kernel::fp_mix;
use gridscale_desim::SimRng;
use gridscale_topology::generate::{self, LinkParams};
use gridscale_topology::{Graph, GridMap, NodeId, Routing};
use gridscale_workload::{generate as gen_workload, DependencyGraph, Job};
use std::sync::Arc;

/// Immutable struct-of-arrays placement tables: where every resource,
/// scheduler, and estimator lives, and how nodes map back to them.
/// Derived once from the `GridMap` + [`Routing`] per template.
pub(crate) struct Layout {
    /// Resource index → its network node.
    pub(crate) res_node: Vec<NodeId>,
    /// Resource index → owning cluster.
    pub(crate) res_cluster: Vec<u32>,
    /// Resource index → position within its cluster.
    pub(crate) res_pos: Vec<u32>,
    /// Cluster → global resource indices by cluster position.
    pub(crate) members: Vec<Vec<u32>>,
    /// Cluster → its scheduler's node.
    pub(crate) sched_node: Vec<NodeId>,
    /// Estimator index → its node.
    pub(crate) est_node: Vec<NodeId>,
    /// NodeId → resource index (`u32::MAX` if none).
    pub(crate) res_at_node: Vec<u32>,
    /// NodeId → scheduler (cluster) index.
    pub(crate) sched_at_node: Vec<u32>,
    /// NodeId → estimator index.
    pub(crate) est_at_node: Vec<u32>,
    /// Cluster → all peer clusters ranked by scheduler-to-scheduler
    /// network latency (ties → lower cluster id). Lets nearest-style
    /// peer lookups read a table instead of re-scanning candidates.
    pub(crate) ranked_peers: Vec<Vec<u32>>,
    /// NodeId → owning lane (`u32::MAX` for pure routers, which never
    /// receive messages). Cluster lanes `0..C`, estimator lanes
    /// `C..C+E`. This is the cross-shard routing table of the sharded
    /// executor: `Deliver { to, .. }` is owned by `node_lane[to]`.
    pub(crate) node_lane: Vec<u32>,
    /// Estimator index → home cluster (its nearest scheduler — under
    /// hierarchical routing, its anchor). Estimator lanes ride on their
    /// home cluster's shard.
    pub(crate) est_home: Vec<u32>,
    /// Precomputed per-cluster-pair virtual links (path lists + link
    /// capacities) for the bandwidth-aware transport. Built only when
    /// `GridConfig::bandwidth.enabled` — the default path pays nothing —
    /// and immutable thereafter (the zero-clone replay contract: runs
    /// read it through the `Arc`-shared world, never write it).
    pub(crate) vlinks: Option<gridscale_topology::VlinkTable>,
}

impl Layout {
    fn build(map: &GridMap, routing: &Routing, n_nodes: usize) -> Layout {
        let n_clusters = map.cluster_count();
        let mut res_node = Vec::new();
        let mut res_cluster = Vec::new();
        let mut res_pos = Vec::new();
        let mut res_at_node = vec![u32::MAX; n_nodes];
        let mut node_lane = vec![u32::MAX; n_nodes];
        let mut members: Vec<Vec<u32>> = vec![Vec::new(); n_clusters];
        #[allow(clippy::needless_range_loop, reason = "index spans parallel tables")]
        for ci in 0..n_clusters {
            for (pos, &node) in map.cluster_resources(ci).iter().enumerate() {
                let idx = res_node.len() as u32;
                res_at_node[node as usize] = idx;
                node_lane[node as usize] = ci as u32;
                members[ci].push(idx);
                res_node.push(node);
                res_cluster.push(ci as u32);
                res_pos.push(pos as u32);
            }
        }

        let mut sched_at_node = vec![u32::MAX; n_nodes];
        let sched_node: Vec<NodeId> = (0..n_clusters)
            .map(|ci| {
                let node = map.cluster_scheduler(ci);
                sched_at_node[node as usize] = ci as u32;
                node_lane[node as usize] = ci as u32;
                node
            })
            .collect();

        let mut est_at_node = vec![u32::MAX; n_nodes];
        let schedulers = map.schedulers();
        let mut est_home = Vec::with_capacity(map.estimators().len());
        let est_node: Vec<NodeId> = map
            .estimators()
            .iter()
            .enumerate()
            .map(|(ei, &node)| {
                est_at_node[node as usize] = ei as u32;
                node_lane[node as usize] = (n_clusters + ei) as u32;
                let home = match routing.anchor_of(node) {
                    Some(a) => a,
                    None => {
                        #[expect(
                            clippy::expect_used,
                            reason = "generated topologies are connected"
                        )]
                        let s = routing
                            .nearest(node, schedulers)
                            .expect("generated topologies are connected");
                        sched_at_node[s as usize]
                    }
                };
                est_home.push(home);
                node
            })
            .collect();

        let ranked_peers: Vec<Vec<u32>> = (0..n_clusters)
            .map(|ci| {
                let from = sched_node[ci];
                let mut peers: Vec<u32> = (0..n_clusters as u32)
                    .filter(|&cj| cj as usize != ci)
                    .collect();
                peers.sort_by_key(|&cj| {
                    (
                        routing
                            .latency(from, sched_node[cj as usize])
                            .unwrap_or(u64::MAX),
                        cj,
                    )
                });
                peers
            })
            .collect();

        Layout {
            res_node,
            res_cluster,
            res_pos,
            members,
            sched_node,
            est_node,
            res_at_node,
            sched_at_node,
            est_at_node,
            ranked_peers,
            node_lane,
            est_home,
            vlinks: None,
        }
    }

    /// Number of lanes: cluster lanes, estimator lanes, plus the global
    /// lane (always last).
    pub(crate) fn n_lanes(&self) -> usize {
        self.members.len() + self.est_node.len() + 1
    }

    /// The global lane index (timeline sampling; never sharded).
    pub(crate) fn global_lane(&self) -> usize {
        self.n_lanes() - 1
    }
}

/// How lanes are grouped onto shards, plus the least latency of any
/// message channel between shards, which the conservative lookahead is
/// derived from.
#[derive(Debug, Clone)]
pub(crate) struct ShardPlan {
    /// Number of shards.
    pub(crate) shards: u32,
    /// Lane → owning shard (global lane rides on shard 0).
    pub(crate) shard_of_lane: Vec<u32>,
    /// The least latency (ticks) of any message channel between two
    /// shards (see [`channel_min_latency`]); `u64::MAX` when no channel
    /// crosses shards (a single shard).
    pub(crate) min_cross_latency: u64,
    /// Fingerprint of the exact lane assignment: the key the template's
    /// scratch pool files this plan's arenas under, so a pooled arena's
    /// remap tables are content-identical to a fresh build's.
    pub(crate) key: u64,
}

impl ShardPlan {
    /// The 1-shard plan: every lane on shard 0, nothing crosses. Built
    /// once per world ([`SharedWorld::full_plan`]); sequential runs use it
    /// with the identity scope.
    fn identity(layout: &Layout) -> ShardPlan {
        ShardPlan::new(1, vec![0; layout.n_lanes()], u64::MAX)
    }

    /// Assembles a plan, fingerprinting its lane assignment into `key`.
    fn new(shards: u32, shard_of_lane: Vec<u32>, min_cross_latency: u64) -> ShardPlan {
        let mut key = fp_mix(shards as u64);
        for &s in &shard_of_lane {
            key = fp_mix(key ^ s as u64);
        }
        ShardPlan {
            shards,
            shard_of_lane,
            min_cross_latency,
            key,
        }
    }

    /// Balanced contiguous default assignment: cluster `c` of `C` goes to
    /// shard `c·S/C`; estimators ride with their home cluster.
    pub(crate) fn contiguous(shared: &SharedWorld, shards: usize) -> ShardPlan {
        let n_clusters = shared.layout.members.len();
        let shards = shards.clamp(1, n_clusters.max(1));
        let cluster_shard: Vec<u32> = (0..n_clusters)
            .map(|c| (c as u64 * shards as u64 / n_clusters as u64) as u32)
            .collect();
        ShardPlan::from_cluster_assignment(shared, &cluster_shard, shards)
    }

    /// Latency-aware default assignment: capped single-linkage clustering
    /// of the cluster-pair channel-latency matrix. Kruskal-merging the
    /// *nearest* cluster pairs first leaves the longest channels as the
    /// shard boundaries — exactly what maximizes the global minimum
    /// cross-shard latency, i.e. the conservative lookahead window — and
    /// the size cap `⌈C/S⌉` keeps shard loads within one cluster of
    /// balanced. Falls back to [`ShardPlan::contiguous`] above
    /// [`MAX_PLANNED_CLUSTERS`], where the O(C²) pair matrix stops being
    /// cheap.
    pub(crate) fn latency_aware(shared: &SharedWorld, shards: usize) -> ShardPlan {
        let n_clusters = shared.layout.members.len();
        let shards = shards.clamp(1, n_clusters.max(1));
        if shards == 1 || n_clusters > MAX_PLANNED_CLUSTERS {
            return ShardPlan::contiguous(shared, shards);
        }
        let pair = cluster_pair_latency(shared);
        ShardPlan::latency_aware_from_pairs(shared, shards, &pair)
    }

    /// Picks the shard count itself: evaluates the latency-aware plan at
    /// every candidate count `2..=min(max_shards, C)` — sharing one O(C²)
    /// pair matrix across all candidates — and keeps the plan with the
    /// widest conservative lookahead, breaking ties toward more shards
    /// (more parallelism at equal window width). Every candidate keeps
    /// ≥ 1 cluster per shard by construction; `max_shards` is normally the
    /// host core count. Degenerate worlds (one cluster, one core) fall
    /// back to the single-shard plan.
    #[expect(clippy::expect_used, reason = "cap >= 2 yields at least one candidate")]
    pub(crate) fn auto(shared: &SharedWorld, max_shards: usize) -> ShardPlan {
        let n_clusters = shared.layout.members.len();
        let cap = max_shards.clamp(1, n_clusters.max(1));
        if cap == 1 {
            return ShardPlan::contiguous(shared, 1);
        }
        if n_clusters > MAX_PLANNED_CLUSTERS {
            // Planner fallback regime: contiguous candidates only.
            let mut best = ShardPlan::contiguous(shared, 2);
            for s in 3..=cap {
                let plan = ShardPlan::contiguous(shared, s);
                if plan.min_cross_latency >= best.min_cross_latency {
                    best = plan;
                }
            }
            return best;
        }
        let pair = cluster_pair_latency(shared);
        let mut best: Option<ShardPlan> = None;
        for s in 2..=cap {
            let plan = ShardPlan::latency_aware_from_pairs(shared, s, &pair);
            let wider = best
                .as_ref()
                .is_none_or(|b| plan.min_cross_latency >= b.min_cross_latency);
            if wider {
                best = Some(plan);
            }
        }
        best.expect("cap >= 2 yields at least one candidate")
    }

    /// [`ShardPlan::latency_aware`] body, parameterized over a
    /// pre-computed [`cluster_pair_latency`] matrix so
    /// [`ShardPlan::auto`] can amortize it across candidate shard counts.
    /// Requires `2 <= shards <= n_clusters <= MAX_PLANNED_CLUSTERS`.
    fn latency_aware_from_pairs(shared: &SharedWorld, shards: usize, pair: &[u64]) -> ShardPlan {
        let n_clusters = shared.layout.members.len();
        let c = n_clusters;
        let mut edges: Vec<(u64, u32, u32)> = Vec::with_capacity(c * (c - 1) / 2);
        for a in 0..c {
            for b in (a + 1)..c {
                edges.push((pair[a * c + b], a as u32, b as u32));
            }
        }
        edges.sort_unstable();

        fn find(parent: &mut [u32], x: u32) -> u32 {
            let mut r = x;
            while parent[r as usize] != r {
                r = parent[r as usize];
            }
            let mut p = x;
            while parent[p as usize] != r {
                let next = parent[p as usize];
                parent[p as usize] = r;
                p = next;
            }
            r
        }

        let cap = c.div_ceil(shards);
        let mut parent: Vec<u32> = (0..c as u32).collect();
        let mut size = vec![1usize; c];
        let mut groups = c;
        // Two passes: strict balance cap first, then (for the rare cap-
        // stranded layouts, e.g. many equal mid-size groups) unconditional
        // merges, still shortest-edge-first.
        for strict in [true, false] {
            for &(_, a, b) in &edges {
                if groups == shards {
                    break;
                }
                let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
                if ra == rb {
                    continue;
                }
                if strict && size[ra as usize] + size[rb as usize] > cap {
                    continue;
                }
                // Union into the smaller root id so the representative is
                // always the group's minimum cluster id (determinism).
                let (keep, drop) = if ra < rb { (ra, rb) } else { (rb, ra) };
                parent[drop as usize] = keep;
                size[keep as usize] += size[drop as usize];
                groups -= 1;
            }
        }

        // Relabel groups to shard ids in ascending min-cluster-id order.
        let mut label = vec![u32::MAX; c];
        let mut next = 0u32;
        let assign: Vec<u32> = (0..c as u32)
            .map(|cl| {
                let root = find(&mut parent, cl) as usize;
                if label[root] == u32::MAX {
                    label[root] = next;
                    next += 1;
                }
                label[root]
            })
            .collect();
        debug_assert_eq!(next as usize, shards);
        ShardPlan::from_cluster_assignment(shared, &assign, shards)
    }

    /// Builds a plan from an explicit cluster → shard assignment (values
    /// must be `< shards`). Estimator lanes follow their home cluster;
    /// the global lane goes to shard 0.
    pub(crate) fn from_cluster_assignment(
        shared: &SharedWorld,
        cluster_shard: &[u32],
        shards: usize,
    ) -> ShardPlan {
        assert_eq!(cluster_shard.len(), shared.layout.members.len());
        assert!(shards >= 1);
        debug_assert!(cluster_shard.iter().all(|&s| (s as usize) < shards));
        let shard_of_lane = group_lanes(&shared.layout, cluster_shard);
        let min_cross = channel_min_latency(shared, &shard_of_lane, shards)
            .into_iter()
            .min()
            .unwrap_or(u64::MAX);
        ShardPlan::new(shards as u32, shard_of_lane, min_cross)
    }

    /// Node → owning shard (`u32::MAX` for pure routers): the
    /// cross-shard routing table every shard's outbox check reads.
    pub(crate) fn shard_of_node(&self, shared: &SharedWorld) -> Vec<u32> {
        shared
            .layout
            .node_lane
            .iter()
            .map(|&l| {
                if l == u32::MAX {
                    u32::MAX
                } else {
                    self.shard_of_lane[l as usize]
                }
            })
            .collect()
    }

    /// Builds the per-shard [`LaneScope`]s of this plan: dense local id
    /// spaces for every shard's owned clusters, resources, and
    /// estimators. Because shards partition the world, one shared
    /// global→local table (per entity kind) serves every shard; only the
    /// local→global lists are per-shard, so all scopes together cost
    /// O(world), not O(world × shards). A 1-shard plan gets the world's
    /// cached identity scope.
    pub(crate) fn lane_scopes(&self, shared: &SharedWorld) -> Vec<Arc<LaneScope>> {
        if self.shards == 1 {
            return vec![Arc::clone(&shared.full_scope)];
        }
        let layout = &shared.layout;
        let nc = layout.members.len();
        let ne = layout.est_node.len();
        let nr = layout.res_node.len();
        let shards = self.shards as usize;
        let mut cluster_local = vec![u32::MAX; nc];
        let mut res_local = vec![u32::MAX; nr];
        let mut est_local = vec![u32::MAX; ne];
        let mut clusters: Vec<Vec<u32>> = vec![Vec::new(); shards];
        let mut resources: Vec<Vec<u32>> = vec![Vec::new(); shards];
        let mut estimators: Vec<Vec<u32>> = vec![Vec::new(); shards];
        // Ascending global order per kind ⇒ each shard's local order is
        // the global order restricted to its partition, which keeps merge
        // scatters and local fold orders deterministic.
        #[allow(clippy::needless_range_loop, reason = "index spans parallel tables")]
        for c in 0..nc {
            let s = self.shard_of_lane[c] as usize;
            cluster_local[c] = clusters[s].len() as u32;
            clusters[s].push(c as u32);
            for &r in &layout.members[c] {
                res_local[r as usize] = resources[s].len() as u32;
                resources[s].push(r);
            }
        }
        #[allow(clippy::needless_range_loop, reason = "index spans parallel tables")]
        for e in 0..ne {
            let s = self.shard_of_lane[nc + e] as usize;
            est_local[e] = estimators[s].len() as u32;
            estimators[s].push(e as u32);
        }
        let cluster_local = Arc::new(cluster_local);
        let res_local = Arc::new(res_local);
        let est_local = Arc::new(est_local);
        let scopes: Vec<Arc<LaneScope>> = clusters
            .into_iter()
            .zip(resources)
            .zip(estimators)
            .map(|((clusters, resources), estimators)| {
                Arc::new(LaneScope {
                    cluster_local: Arc::clone(&cluster_local),
                    res_local: Arc::clone(&res_local),
                    est_local: Arc::clone(&est_local),
                    clusters,
                    resources,
                    estimators,
                })
            })
            .collect();
        if cfg!(debug_assertions) {
            // Round-trip check: every owned global id maps back to its
            // local position through the shared tables (the accessors
            // assert the inverse direction).
            for scope in &scopes {
                for (l, &c) in scope.clusters.iter().enumerate() {
                    assert_eq!(scope.c_local(c), l);
                }
                for (l, &r) in scope.resources.iter().enumerate() {
                    assert_eq!(scope.r_local(r), l);
                }
                for (l, &e) in scope.estimators.iter().enumerate() {
                    assert_eq!(scope.e_local(e), l);
                }
            }
        }
        scopes
    }
}

/// Dense per-shard index remap: the slice of the world one engine
/// instance owns, as a local id space. Mutable hot-state arrays
/// (`ResourcePool`, `SchedulerBank`, `EstimatorBank`, `Accounting`) are
/// sized to the *local* counts and indexed through the global→local
/// tables, so per-shard memory is proportional to the partition while
/// every event and message keeps carrying global ids (the event
/// fingerprint depends on them). The global→local tables are `Arc`-shared
/// across all scopes of one plan — shards partition the world, so a
/// single table per entity kind is unambiguous.
#[derive(Debug)]
pub(crate) struct LaneScope {
    /// Global cluster id → dense local id within its owning shard.
    pub(crate) cluster_local: Arc<Vec<u32>>,
    /// Global resource id → dense local id.
    pub(crate) res_local: Arc<Vec<u32>>,
    /// Global estimator id → dense local id.
    pub(crate) est_local: Arc<Vec<u32>>,
    /// Owned clusters in ascending global id; position = local id.
    pub(crate) clusters: Vec<u32>,
    /// Owned resources in ascending global id; position = local id.
    pub(crate) resources: Vec<u32>,
    /// Owned estimators in ascending global id; position = local id.
    pub(crate) estimators: Vec<u32>,
}

impl LaneScope {
    /// Identity scope covering the whole world — the sequential engine
    /// and single-shard plans run through it with local id == global id.
    pub(crate) fn identity(layout: &Layout) -> LaneScope {
        let ids = |n: usize| (0..n as u32).collect::<Vec<u32>>();
        LaneScope {
            cluster_local: Arc::new(ids(layout.members.len())),
            res_local: Arc::new(ids(layout.res_node.len())),
            est_local: Arc::new(ids(layout.est_node.len())),
            clusters: ids(layout.members.len()),
            resources: ids(layout.res_node.len()),
            estimators: ids(layout.est_node.len()),
        }
    }

    /// Local id of global cluster `c` (must be owned by this scope).
    #[inline(always)]
    pub(crate) fn c_local(&self, c: u32) -> usize {
        let l = self.cluster_local[c as usize] as usize;
        debug_assert!(l < self.clusters.len() && self.clusters[l] == c);
        l
    }

    /// Local id of global resource `r` (must be owned by this scope).
    #[inline(always)]
    pub(crate) fn r_local(&self, r: u32) -> usize {
        let l = self.res_local[r as usize] as usize;
        debug_assert!(l < self.resources.len() && self.resources[l] == r);
        l
    }

    /// Local id of global estimator `e` (must be owned by this scope).
    #[inline(always)]
    pub(crate) fn e_local(&self, e: u32) -> usize {
        let l = self.est_local[e as usize] as usize;
        debug_assert!(l < self.estimators.len() && self.estimators[l] == e);
        l
    }
}

/// Lane → group when cluster `c` joins group `cluster_group[c]`:
/// estimator lanes follow their home cluster, and the global lane goes
/// to group 0.
fn group_lanes(layout: &Layout, cluster_group: &[u32]) -> Vec<u32> {
    let mut lanes = Vec::with_capacity(layout.n_lanes());
    lanes.extend_from_slice(cluster_group);
    lanes.extend(
        layout
            .est_home
            .iter()
            .map(|&home| cluster_group[home as usize]),
    );
    lanes.push(0);
    lanes
}

/// The least latency of any *actual* message channel between each pair
/// of lane groups, as a flattened `groups × groups` matrix (`u64::MAX` on
/// the diagonal and for pairs no channel joins). The channels are
/// scheduler↔scheduler (transfers, policy traffic),
/// scheduler↔foreign-resource (recalls and the transfer they trigger),
/// resource→estimator (status updates), and estimator→scheduler
/// (batches). A [`ShardPlan`] groups lanes by shard and keeps the least
/// entry, its lookahead; the planner groups them by cluster
/// ([`cluster_pair_latency`]). Exact routing enumerates the channels;
/// hierarchical routing lower-bounds them by the anchor-to-anchor
/// distance of the groups' anchor sets (safe: every modelled latency is
/// `up + D + up ≥ D`).
fn channel_min_latency(shared: &SharedWorld, group_of_lane: &[u32], groups: usize) -> Vec<u64> {
    let layout = &shared.layout;
    let routing = &shared.routing;
    let n_clusters = layout.members.len();
    let mut m = vec![u64::MAX; groups * groups];
    let mut fold = |s: u32, t: u32, lat: u64| {
        let (s, t) = (s as usize, t as usize);
        let v = m[s * groups + t].min(lat);
        m[s * groups + t] = v;
        m[t * groups + s] = v;
    };
    let scheds = layout.sched_node.iter().copied().zip(0..);
    let ests = layout.est_node.iter().copied().zip(n_clusters..);
    let res_lane = layout.res_cluster.iter().map(|&c| c as usize);
    let res = layout.res_node.iter().copied().zip(res_lane);
    if !routing.is_hier() {
        // Exact mode: enumerate every channel class, as (node, lane)
        // endpoints, and route each that crosses groups.
        let mut cross = |(a, la): (NodeId, usize), (b, lb): (NodeId, usize)| {
            let (s, t) = (group_of_lane[la], group_of_lane[lb]);
            if s != t {
                fold(s, t, routing.latency(a, b).unwrap_or(0));
            }
        };
        for (c, from) in scheds.clone().enumerate() {
            scheds.clone().skip(c + 1).for_each(|to| cross(from, to));
        }
        for r in res {
            // Recall / post-recall transfer channels to foreign schedulers,
            // then status updates to estimators.
            scheds.clone().for_each(|sched| cross(sched, r));
            ests.clone().for_each(|est| cross(r, est));
        }
        for est in ests {
            scheds.clone().for_each(|sched| cross(est, sched));
        }
    } else {
        // Hierarchical mode: per group, the set of anchors any of its
        // endpoint nodes (schedulers, resources, estimators) resolves to;
        // the pairwise anchor distance lower-bounds every cross latency.
        let mut anchors = vec![std::collections::BTreeSet::new(); groups];
        for (node, lane) in scheds.chain(res).chain(ests) {
            if let Some(a) = routing.anchor_of(node) {
                anchors[group_of_lane[lane] as usize].insert(a);
            }
        }
        for s in 0..groups {
            for t in (s + 1)..groups {
                let min = anchors[s]
                    .iter()
                    .flat_map(|&a| {
                        anchors[t]
                            .iter()
                            .filter_map(move |&b| routing.anchor_latency(a, b))
                    })
                    .min();
                if let Some(min) = min {
                    fold(s as u32, t as u32, min);
                }
            }
        }
    }
    m
}

/// Above this cluster count the O(C²) pair matrix behind
/// [`ShardPlan::latency_aware`] stops being cheap and the planner falls
/// back to the contiguous assignment.
const MAX_PLANNED_CLUSTERS: usize = 2048;

/// [`channel_min_latency`] with each cluster a group of its own: the
/// planner's `C × C` matrix, which treats clusters as the atoms of the
/// partition.
fn cluster_pair_latency(shared: &SharedWorld) -> Vec<u64> {
    let n_clusters = shared.layout.members.len();
    let clusters: Vec<u32> = (0..n_clusters as u32).collect();
    channel_min_latency(shared, &group_lanes(&shared.layout, &clusters), n_clusters)
}

/// The enabler-independent world of one configuration: topology, routing,
/// grid map, workload trace, and placement layout.
pub(crate) struct SharedWorld {
    pub(crate) routing: Routing,
    pub(crate) map: GridMap,
    pub(crate) trace: Vec<Job>,
    /// Precedence constraints (paper future-work (b)); `None` reproduces
    /// the paper's evaluated setting (independent jobs).
    pub(crate) dag: Option<DependencyGraph>,
    pub(crate) layout: Layout,
    /// Per-job dependency in-degree (empty when no DAG); the pristine
    /// value the resource pool's `remaining_parents` is reset from.
    pub(crate) parent_counts: Vec<u32>,
    /// Analytic mean service demand of the workload.
    pub(crate) mean_demand: f64,
    /// Identity [`LaneScope`] over the whole world, built once so the
    /// sequential path allocates no remap tables per run.
    pub(crate) full_scope: Arc<LaneScope>,
    /// The 1-shard [`ShardPlan`] over [`SharedWorld::full_scope`], built
    /// once: a sequential run is this plan, so it rebuilds no plan, scope
    /// or pool key per run.
    pub(crate) full_plan: ShardPlan,
}

impl SharedWorld {
    /// Builds the world for `cfg`: topology (RNG stream 1), role
    /// placement, routing state (exact tables at paper scale, the
    /// anchor-based hierarchical model beyond
    /// [`Routing::HIER_THRESHOLD`]), grid map, workload trace (stream 2),
    /// optional dependency graph (stream 4), and the placement layout.
    /// Stream 3 is reserved for the per-run simulation RNG.
    ///
    /// `seed` is the RNG root every stream forks from — `cfg.seed` for a
    /// plain template, the replicate seed for
    /// [`crate::SimTemplate::fresh_replica`] (which re-roots the streams
    /// without cloning the whole `GridConfig`; the result is
    /// bit-identical to building from a config clone whose `seed` field
    /// was rewritten to the same value).
    pub(crate) fn build_seeded(cfg: &GridConfig, seed: u64) -> SharedWorld {
        Self::build_impl(cfg, seed)
    }

    /// [`SharedWorld::build_seeded`] at the config's own seed.
    #[cfg(test)]
    pub(crate) fn build(cfg: &GridConfig) -> SharedWorld {
        Self::build_seeded(cfg, cfg.seed)
    }

    fn build_impl(cfg: &GridConfig, seed: u64) -> SharedWorld {
        let root = SimRng::new(seed);
        let mut topo_rng = root.fork(1);
        let mut wl_rng = root.fork(2);

        let lp = LinkParams::default();
        let n = cfg.nodes;
        let graph: Graph = match cfg.topology {
            TopologySpec::BarabasiAlbert { m } => {
                generate::barabasi_albert(n, m, lp, &mut topo_rng)
            }
            TopologySpec::Waxman { alpha, beta } => {
                generate::waxman(n, alpha, beta, lp, &mut topo_rng)
            }
            TopologySpec::TransitStub => {
                // Shape ratios: ~10% transit nodes, stubs of ~8.
                let transits = (n / 64).max(1);
                let transit_size = 4;
                let stub_size = 8;
                let stubs_per_transit =
                    ((n - transits * transit_size) / (transits * stub_size)).max(1);
                generate::transit_stub(
                    transits,
                    transit_size,
                    stubs_per_transit,
                    stub_size,
                    lp,
                    &mut topo_rng,
                )
            }
            TopologySpec::Ring => generate::ring(n, lp),
            TopologySpec::Star => generate::star(n, lp),
        };
        // Role placement first: the hierarchical routing model anchors at
        // the scheduler nodes, so routing is built *around* the placement.
        let placement = GridMap::place(
            &graph,
            cfg.schedulers,
            cfg.estimators,
            cfg.resource_fraction,
        );
        let routing = Routing::build_auto(&graph, placement.schedulers());
        let map = GridMap::assemble(placement, &routing);
        let mut wl_cfg = cfg.workload.clone();
        wl_cfg.submit_points = map.cluster_count() as u32;
        let trace = gen_workload(&wl_cfg, &mut wl_rng).jobs().to_vec();
        let dag = (cfg.dag_edge_prob > 0.0).then(|| {
            let mut dag_rng = root.fork(4);
            DependencyGraph::random(
                trace.len(),
                cfg.dag_edge_prob,
                cfg.dag_max_parents,
                &mut dag_rng,
            )
        });
        let mut layout = Layout::build(&map, &routing, n);
        if cfg.bandwidth.enabled {
            // The only place the graph is still alive: precompute the
            // virtual-link tables here so runs never touch the topology.
            layout.vlinks = Some(gridscale_topology::VlinkTable::build(
                &graph,
                &map,
                &routing,
                cfg.bandwidth.k_paths.max(1),
                cfg.bandwidth.capacity_scale,
            ));
        }
        let parent_counts = dag.as_ref().map(|d| d.parent_counts()).unwrap_or_default();
        let mean_demand = cfg.workload.exec_time.mean();
        let full_scope = Arc::new(LaneScope::identity(&layout));
        let full_plan = ShardPlan::identity(&layout);
        SharedWorld {
            routing,
            map,
            trace,
            dag,
            layout,
            parent_counts,
            mean_demand,
            full_scope,
            full_plan,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridscale_desim::SimTime;
    use gridscale_workload::WorkloadConfig;

    fn small_cfg() -> GridConfig {
        GridConfig {
            nodes: 40,
            schedulers: 3,
            estimators: 0,
            workload: WorkloadConfig {
                arrival_rate: 0.02,
                duration: SimTime::from_ticks(20_000),
                ..WorkloadConfig::default()
            },
            drain: SimTime::from_ticks(30_000),
            ..GridConfig::default()
        }
    }

    #[test]
    fn ranked_peers_are_complete_and_latency_sorted() {
        let shared = SharedWorld::build(&small_cfg());
        let layout = &shared.layout;
        let routing = &shared.routing;
        let nc = layout.members.len();
        assert!(nc >= 2);
        for ci in 0..nc {
            let peers = &layout.ranked_peers[ci];
            assert_eq!(peers.len(), nc - 1, "every other cluster is ranked");
            assert!(peers.iter().all(|&cj| cj as usize != ci));
            let from = layout.sched_node[ci];
            let lat = |cj: u32| {
                routing
                    .latency(from, layout.sched_node[cj as usize])
                    .unwrap()
            };
            for w in peers.windows(2) {
                assert!(
                    (lat(w[0]), w[0]) <= (lat(w[1]), w[1]),
                    "peers of {ci} sorted by (latency, id)"
                );
            }
        }
    }

    #[test]
    fn node_lane_covers_every_rms_node() {
        let shared = SharedWorld::build(&small_cfg());
        let layout = &shared.layout;
        let nc = layout.members.len();
        for (r, &node) in layout.res_node.iter().enumerate() {
            assert_eq!(layout.node_lane[node as usize], layout.res_cluster[r]);
        }
        for (c, &node) in layout.sched_node.iter().enumerate() {
            assert_eq!(layout.node_lane[node as usize], c as u32);
        }
        for (e, &node) in layout.est_node.iter().enumerate() {
            assert_eq!(layout.node_lane[node as usize], (nc + e) as u32);
        }
    }

    /// A deterministic pseudo-random cluster→shard map from `aseed`,
    /// patched so every shard owns at least one cluster.
    fn assignment(n_clusters: usize, shards: usize, aseed: u64) -> Vec<u32> {
        let mut a: Vec<u32> = (0..n_clusters)
            .map(|c| {
                let mut x = aseed ^ (c as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                x ^= x >> 30;
                x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
                (x % shards as u64) as u32
            })
            .collect();
        for (s, shard) in a.iter_mut().take(shards).enumerate() {
            *shard = s as u32;
        }
        a
    }

    #[test]
    fn shard_plan_lookahead_is_the_least_crossing_channel_latency() {
        let name = "shard_plan_lookahead_is_the_least_crossing_channel_latency";
        gridscale_desim::cases(name, 12, |rng| {
            let cfg = GridConfig {
                nodes: rng.int_range(60, 120) as usize,
                schedulers: rng.int_range(2, 8) as usize,
                estimators: rng.int_range(1, 3) as usize,
                seed: rng.int_range(0, u64::MAX),
                ..small_cfg()
            };
            let shared = SharedWorld::build(&cfg);
            assert!(!shared.routing.is_hier());
            let layout = &shared.layout;
            let nc = layout.members.len();
            let shards = (rng.int_range(2, 4) as usize).min(nc);
            let assign = assignment(nc, shards, rng.int_range(0, u64::MAX));
            let plan = ShardPlan::from_cluster_assignment(&shared, &assign, shards);
            // Every channel endpoint as (node, lane), by class.
            let scheds: Vec<(NodeId, usize)> = layout.sched_node.iter().copied().zip(0..).collect();
            let res_lane = layout.res_cluster.iter().map(|&c| c as usize);
            let res: Vec<(NodeId, usize)> = layout.res_node.iter().copied().zip(res_lane).collect();
            let ests: Vec<(NodeId, usize)> = layout.est_node.iter().copied().zip(nc..).collect();
            // sched↔sched, sched↔foreign resource, resource→estimator,
            // estimator→sched: the least latency of any that crosses.
            let mut want = u64::MAX;
            for (from, to) in [
                (&scheds, &scheds),
                (&scheds, &res),
                (&res, &ests),
                (&ests, &scheds),
            ] {
                for &(a, la) in from {
                    for &(b, lb) in to {
                        if plan.shard_of_lane[la] != plan.shard_of_lane[lb] {
                            want = want.min(shared.routing.latency(a, b).unwrap());
                        }
                    }
                }
            }
            assert!(want != u64::MAX, "schedulers sit on every shard");
            assert_eq!(plan.min_cross_latency, want);
        });
    }

    #[test]
    fn shard_plan_single_shard_has_no_cross_latency() {
        let shared = SharedWorld::build(&small_cfg());
        let plan = ShardPlan::contiguous(&shared, 1);
        assert_eq!(plan.min_cross_latency, u64::MAX);
        assert!(plan.shard_of_lane.iter().all(|&s| s == 0));
    }

    /// A transit-stub world with two estimators; at 2,048 nodes or more
    /// it routes hierarchically.
    fn transit_stub_cfg(nodes: usize, schedulers: usize) -> GridConfig {
        GridConfig {
            nodes,
            schedulers,
            estimators: 2,
            topology: TopologySpec::TransitStub,
            workload: WorkloadConfig {
                arrival_rate: 0.02,
                duration: SimTime::from_ticks(5_000),
                ..WorkloadConfig::default()
            },
            drain: SimTime::from_ticks(8_000),
            ..GridConfig::default()
        }
    }

    /// `(lookahead, FNV-1a digest of the lane → shard map)` of the
    /// latency-aware plans at 2, 4 and 8 shards, `auto` on 4 cores and
    /// the 3-shard contiguous plan.
    fn plan_pins(shared: &SharedWorld) -> Vec<(u64, u64)> {
        let mut plans: Vec<ShardPlan> = [2, 4, 8]
            .into_iter()
            .map(|s| ShardPlan::latency_aware(shared, s))
            .collect();
        plans.push(ShardPlan::auto(shared, 4));
        plans.push(ShardPlan::contiguous(shared, 3));
        plans
            .iter()
            .map(|p| {
                let digest = p
                    .shard_of_lane
                    .iter()
                    .fold(0xCBF2_9CE4_8422_2325u64, |h, &s| {
                        (h ^ u64::from(s)).wrapping_mul(0x0100_0000_01B3)
                    });
                (p.min_cross_latency, digest)
            })
            .collect()
    }

    #[test]
    fn plans_are_pinned_on_an_exact_world() {
        let shared = SharedWorld::build(&transit_stub_cfg(640, 16));
        assert!(!shared.routing.is_hier());
        let pins = [
            (20, 2_479_537_884_362_065_008),
            (10, 6_391_379_508_379_907_016),
            (10, 4_837_807_755_051_507_358),
            (20, 2_479_537_884_362_065_008),
            (5, 12_842_216_687_002_269_076),
        ];
        assert_eq!(plan_pins(&shared), pins);
    }

    #[test]
    fn plans_are_pinned_on_a_hier_world() {
        let shared = SharedWorld::build(&transit_stub_cfg(2304, 24));
        assert!(shared.routing.is_hier());
        let pins = [
            (20, 1_106_777_701_838_374_495),
            (20, 15_617_081_334_234_281_102),
            (20, 16_729_642_986_224_805_916),
            (20, 15_617_081_334_234_281_102),
            (10, 5_466_411_211_811_153_190),
        ];
        assert_eq!(plan_pins(&shared), pins);
    }

    #[test]
    fn latency_aware_plan_is_balanced_and_widens_lookahead() {
        // Transit-stub topology: stub-local channels are short, transit
        // crossings are long — the planner should cut along the transits.
        let shared = SharedWorld::build(&transit_stub_cfg(640, 16));
        let n_clusters = shared.layout.members.len();
        for shards in [2usize, 4] {
            let smart = ShardPlan::latency_aware(&shared, shards);
            let naive = ShardPlan::contiguous(&shared, shards);
            assert_eq!(smart.shards as usize, shards);
            // Balance: every shard owns ≥1 cluster and ≤ ⌈C/S⌉ clusters.
            let mut per_shard = vec![0usize; shards];
            for c in 0..n_clusters {
                per_shard[smart.shard_of_lane[c] as usize] += 1;
            }
            let cap = n_clusters.div_ceil(shards);
            assert!(
                per_shard.iter().all(|&n| n >= 1 && n <= cap),
                "{per_shard:?}"
            );
            // The whole point: the latency-aware boundary is never worse
            // than the topology-blind one.
            assert!(
                smart.min_cross_latency >= naive.min_cross_latency,
                "smart {} < naive {} at {shards} shards",
                smart.min_cross_latency,
                naive.min_cross_latency
            );
        }
    }

    /// Asserts the full lane-remap contract for one plan: per-shard
    /// global→local→global round-trips are the identity, and the shards'
    /// owned id lists are disjoint and cover the world exactly.
    fn assert_scopes_partition_world(shared: &SharedWorld, plan: &ShardPlan) {
        let scopes = plan.lane_scopes(shared);
        assert_eq!(scopes.len(), plan.shards as usize);
        let layout = &shared.layout;
        let mut c_seen = vec![0u32; layout.members.len()];
        let mut r_seen = vec![0u32; layout.res_node.len()];
        let mut e_seen = vec![0u32; layout.est_node.len()];
        for scope in &scopes {
            for (l, &c) in scope.clusters.iter().enumerate() {
                assert_eq!(scope.c_local(c), l, "cluster remap round-trip");
                c_seen[c as usize] += 1;
            }
            for (l, &r) in scope.resources.iter().enumerate() {
                assert_eq!(scope.r_local(r), l, "resource remap round-trip");
                r_seen[r as usize] += 1;
            }
            for (l, &e) in scope.estimators.iter().enumerate() {
                assert_eq!(scope.e_local(e), l, "estimator remap round-trip");
                e_seen[e as usize] += 1;
            }
            // Owned lists are sorted ascending, so local order is the
            // global order restricted to the partition — the property
            // the merge's bit-identity argument leans on.
            assert!(scope.clusters.windows(2).all(|w| w[0] < w[1]));
            assert!(scope.resources.windows(2).all(|w| w[0] < w[1]));
            assert!(scope.estimators.windows(2).all(|w| w[0] < w[1]));
        }
        assert!(c_seen.iter().all(|&n| n == 1), "clusters disjoint + cover");
        assert!(r_seen.iter().all(|&n| n == 1), "resources disjoint + cover");
        assert!(
            e_seen.iter().all(|&n| n == 1),
            "estimators disjoint + cover"
        );
    }

    #[test]
    fn auto_plan_respects_topology_and_core_budget() {
        let shared = SharedWorld::build(&small_cfg());
        let n_clusters = shared.layout.members.len();
        // One core: parallelism cannot pay, so auto degenerates to the
        // sequential-equivalent single shard.
        let solo = ShardPlan::auto(&shared, 1);
        assert_eq!(solo.shards, 1);
        for cores in [2usize, 4, 8] {
            let plan = ShardPlan::auto(&shared, cores);
            let shards = plan.shards as usize;
            assert!(shards >= 1 && shards <= cores.min(n_clusters));
            // Every shard owns at least one cluster.
            let mut per_shard = vec![0usize; shards];
            for c in 0..n_clusters {
                per_shard[plan.shard_of_lane[c] as usize] += 1;
            }
            assert!(per_shard.iter().all(|&n| n >= 1), "{per_shard:?}");
            // The chosen split's lookahead is never worse than any other
            // candidate width's latency-aware split.
            for other in 2..=cores.min(n_clusters) {
                let alt = ShardPlan::latency_aware(&shared, other);
                assert!(
                    plan.shards == 1 || plan.min_cross_latency >= alt.min_cross_latency,
                    "auto picked {} (lookahead {}) but {} shards gives {}",
                    plan.shards,
                    plan.min_cross_latency,
                    other,
                    alt.min_cross_latency
                );
            }
            assert_scopes_partition_world(&shared, &plan);
        }
    }

    #[test]
    fn identity_scope_is_the_world() {
        let shared = SharedWorld::build(&small_cfg());
        let plan = ShardPlan::contiguous(&shared, 1);
        assert_scopes_partition_world(&shared, &plan);
        let scope = &shared.full_scope;
        assert_eq!(scope.clusters.len(), shared.layout.members.len());
        assert_eq!(scope.resources.len(), shared.layout.res_node.len());
        assert_eq!(scope.estimators.len(), shared.layout.est_node.len());
        for c in 0..scope.clusters.len() {
            assert_eq!(scope.c_local(c as u32), c);
        }
        for r in 0..scope.resources.len() {
            assert_eq!(scope.r_local(r as u32), r);
        }
    }

    mod remap_props {
        use super::*;
        use crate::policy::LocalOnly;
        use crate::SimTemplate;
        use gridscale_desim::{cases, SimRng};

        /// A small world plus a randomized shard assignment seed — enough
        /// variety to hit uneven partitions, estimator lanes, and shard
        /// counts from 1 up past the cluster count. Redraws until the RMS
        /// fits in the network.
        fn arb_world(rng: &mut SimRng) -> (GridConfig, usize, u64) {
            loop {
                let nodes = rng.int_range(40, 99) as usize;
                let schedulers = rng.int_range(2, 8) as usize;
                let estimators = rng.int_range(0, 2) as usize;
                let rate = rng.uniform(0.005, 0.03);
                let seed = rng.int_range(0, u64::MAX);
                let shards = rng.int_range(1, 5) as usize;
                let aseed = rng.int_range(0, u64::MAX);
                if schedulers + estimators + 4 >= nodes {
                    continue;
                }
                let cfg = GridConfig {
                    nodes,
                    schedulers,
                    estimators,
                    workload: WorkloadConfig {
                        arrival_rate: rate,
                        duration: SimTime::from_ticks(2_000),
                        ..WorkloadConfig::default()
                    },
                    drain: SimTime::from_ticks(3_000),
                    seed,
                    ..GridConfig::default()
                };
                return (cfg, shards, aseed);
            }
        }

        #[test]
        fn random_plans_remap_bijectively_and_replay_bit_identically() {
            let name = "random_plans_remap_bijectively_and_replay_bit_identically";
            cases(name, 16, |rng| {
                let (cfg, shards, aseed) = arb_world(rng);
                let template = SimTemplate::new(&cfg);
                let shared = SharedWorld::build(&cfg);
                let n_clusters = shared.layout.members.len();
                let shards = shards.min(n_clusters);
                let assign = assignment(n_clusters, shards, aseed);
                let plan = ShardPlan::from_cluster_assignment(&shared, &assign, shards);
                assert_scopes_partition_world(&shared, &plan);
                // Differential check: the lane-scoped sharded replay of
                // this arbitrary plan reproduces the sequential stream.
                let mut p = LocalOnly;
                let seq = template.run(cfg.enablers, &mut p);
                let (rep, _) =
                    template.run_sharded_with(cfg.enablers, || LocalOnly, &assign, shards, 2);
                assert_eq!(seq.event_fingerprint, rep.event_fingerprint);
                assert_eq!(seq.events_processed, rep.events_processed);
                assert_eq!(seq.f_work.to_bits(), rep.f_work.to_bits());
                assert_eq!(seq.mean_response.to_bits(), rep.mean_response.to_bits());
            });
        }
    }
}
