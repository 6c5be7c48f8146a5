//! The shortest-path kernel every latency of the world build comes from:
//! the exact routing table, the anchor model, and the virtual links' spur
//! searches.
//!
//! Link latencies are small positive integers (`1..=`[`Graph::MAX_LATENCY`],
//! 1–10 ticks from the generators), so a bucket queue (Dial's algorithm)
//! settles nodes in order of distance without a heap: a ring of
//! `max_latency + 1` buckets (rounded up to a power of two) holds every
//! tentative distance in `[cur, cur + max_latency]`, and each bucket is a
//! plain stack of node ids. Labels are `(d, h)` — latency, then
//! saturating hop count — plus whatever a [`Label`] carries on top (a
//! first hop, an anchor index, a predecessor, or nothing). A label may
//! also elide edges and stop the search at a target.
//!
//! Every label the routing models store is the unique solution of the
//! Bellman equations `L(v) = min over neighbours u of extend(L(u), u→v)`:
//! each edge adds at least one tick, so a node's label depends only on
//! nodes at a strictly smaller distance, all of which are settled before
//! its bucket is drained. Any label-setting order therefore reproduces the
//! tables a binary-heap Dijkstra builds, bit for bit; the one rule that is
//! *not* a label minimum — which optimal predecessor a path follows — is
//! restated explicitly in [`FirstHop`] and [`LowestPred`].

use crate::graph::{Graph, NodeId};

pub(crate) const UNREACHABLE: u64 = u64::MAX;

/// Compressed adjacency (CSR): the out-edges of `v` are
/// `to[off[v]..off[v + 1]]`, with parallel latencies and hop counts.
pub(crate) struct Csr {
    off: Vec<u32>,
    to: Vec<u32>,
    lat: Vec<u32>,
    /// Per-edge hop counts; empty when every edge is one hop (a physical
    /// graph, as opposed to the anchor overlay).
    hops: Vec<u16>,
    max_lat: u32,
}

impl Csr {
    /// Flattens `g`'s adjacency lists, preserving their order.
    pub(crate) fn of(g: &Graph) -> Csr {
        let n = g.node_count();
        let mut off = Vec::with_capacity(n + 1);
        let mut to = Vec::with_capacity(2 * g.link_count());
        let mut lat = Vec::with_capacity(2 * g.link_count());
        off.push(0);
        for v in 0..n as NodeId {
            for l in g.neighbors(v) {
                // The bucket queue's precondition; `Graph`'s mutators
                // already enforce it.
                assert!(
                    (1..=Graph::MAX_LATENCY).contains(&l.latency),
                    "link latency {} outside 1..={}",
                    l.latency,
                    Graph::MAX_LATENCY
                );
                to.push(l.to);
                lat.push(l.latency as u32);
            }
            off.push(u32::try_from(to.len()).expect("edge count fits u32"));
        }
        let max_lat = lat.iter().copied().max().unwrap_or(1);
        Csr {
            off,
            to,
            lat,
            hops: Vec::new(),
            max_lat,
        }
    }

    /// A CSR from its arrays: offsets, then per-edge targets, latencies
    /// (at least one tick each) and hop counts.
    pub(crate) fn from_parts(off: Vec<u32>, to: Vec<u32>, lat: Vec<u32>, hops: Vec<u16>) -> Csr {
        assert!(lat.iter().all(|&w| w >= 1), "edge latencies are positive");
        debug_assert!(to.len() == lat.len() && hops.len() == lat.len());
        let max_lat = lat.iter().copied().max().unwrap_or(1);
        Csr {
            off,
            to,
            lat,
            hops,
            max_lat,
        }
    }

    /// Node count.
    pub(crate) fn len(&self) -> usize {
        self.off.len() - 1
    }

    /// The out-edges of `u` as `(target, latency)` pairs.
    #[inline]
    pub(crate) fn edges(&self, u: usize) -> impl Iterator<Item = (usize, u32)> + '_ {
        let (lo, hi) = (self.off[u] as usize, self.off[u + 1] as usize);
        self.to[lo..hi]
            .iter()
            .zip(&self.lat[lo..hi])
            .map(|(&v, &w)| (v as usize, w))
    }
}

/// What a search carries on top of `(d, h)`, how it breaks ties, and
/// which edges and how much of the graph it visits.
pub(crate) trait Label {
    /// `u`'s edge strictly improved `v`'s `(d, h)`: `v` inherits from `u`.
    fn improve(&mut self, u: usize, v: usize);
    /// `u`'s edge reaches `v` with exactly `v`'s `(d, h)`; keep the
    /// preferred of the two. `d`/`h` are final for `u` and for every
    /// predecessor this label has recorded.
    fn tie(&mut self, u: usize, v: usize, d: &[u64], h: &[u16]);
    /// Whether the search ignores CSR edge `e` (an index into the
    /// flattened adjacency).
    #[inline]
    fn skips(&self, _e: usize) -> bool {
        false
    }
    /// Whether the search ends once `u` is settled, before relaxing its
    /// edges. Labels of nodes farther away than `u` are then partial.
    #[inline]
    fn stops_at(&self, _u: usize) -> bool {
        false
    }
}

/// Plain `(d, h)` labels.
impl Label for () {
    #[inline]
    fn improve(&mut self, _: usize, _: usize) {}
    #[inline]
    fn tie(&mut self, _: usize, _: usize, _: &[u64], _: &[u16]) {}
}

/// First hops of a single-source search from `src`. Among the optimal
/// predecessors of `v` — the `u` with `d_u + w(u,v) = d_v` and
/// `h_u + 1 = h_v` — `v` follows the one with the least `(d_u, h_u, u)`:
/// the predecessor a binary-heap Dijkstra keyed on `(d, h, node)` settles
/// first. (Without hop saturation all of them share `h_u`, so this is the
/// least `(d_u, u)`.)
pub(crate) struct FirstHop<'a> {
    pub(crate) src: usize,
    pub(crate) first: &'a mut [NodeId],
    /// Scratch: the predecessor `first[v]` was taken from.
    pub(crate) pred: &'a mut [u32],
}

impl FirstHop<'_> {
    #[inline]
    fn take(&mut self, u: usize, v: usize) {
        self.pred[v] = u as u32;
        self.first[v] = if u == self.src {
            v as NodeId
        } else {
            self.first[u]
        };
    }
}

impl Label for FirstHop<'_> {
    #[inline]
    fn improve(&mut self, u: usize, v: usize) {
        self.take(u, v);
    }
    #[inline]
    fn tie(&mut self, u: usize, v: usize, d: &[u64], h: &[u16]) {
        let p = self.pred[v] as usize;
        if (d[u], h[u], u) < (d[p], h[p], p) {
            self.take(u, v);
        }
    }
}

/// Nearest-anchor indices of a multi-source search: ties on `(d, h)`
/// keep the lower anchor index, so the label is the least `(d, h, anchor)`.
pub(crate) struct Nearest<'a>(pub(crate) &'a mut [u32]);

impl Label for Nearest<'_> {
    #[inline]
    fn improve(&mut self, u: usize, v: usize) {
        self.0[v] = self.0[u];
    }
    #[inline]
    fn tie(&mut self, u: usize, v: usize, _: &[u64], _: &[u16]) {
        self.0[v] = self.0[v].min(self.0[u]);
    }
}

/// Predecessors of a search from one source to `dst` with one link
/// elided — the spur search of a Yen deviation. Among the optimal
/// predecessors of `v`, `v` keeps the one with the lowest id.
pub(crate) struct LowestPred<'a> {
    pub(crate) pred: &'a mut [u32],
    /// Link id of every CSR edge, in the CSR's edge order.
    pub(crate) link_of: &'a [u32],
    /// The link the search never crosses (`u32::MAX`: none).
    pub(crate) elide: u32,
    pub(crate) dst: usize,
}

impl Label for LowestPred<'_> {
    #[inline]
    fn improve(&mut self, u: usize, v: usize) {
        self.pred[v] = u as u32;
    }
    #[inline]
    fn tie(&mut self, u: usize, v: usize, _: &[u64], _: &[u16]) {
        self.pred[v] = self.pred[v].min(u as u32);
    }
    #[inline]
    fn skips(&self, e: usize) -> bool {
        self.link_of[e] == self.elide
    }
    #[inline]
    fn stops_at(&self, u: usize) -> bool {
        u == self.dst
    }
}

/// The reusable bucket ring of one kernel (see module docs).
pub(crate) struct Dial {
    ring: Vec<Vec<u32>>,
}

impl Dial {
    /// A ring for searches over `csr`.
    pub(crate) fn for_csr(csr: &Csr) -> Dial {
        let slots = (csr.max_lat as usize + 1).next_power_of_two();
        Dial {
            ring: vec![Vec::new(); slots],
        }
    }

    /// Settles every node reachable from `seeds` over `csr`, until
    /// `label` stops the search. The caller initialises `d`/`h` to
    /// `UNREACHABLE`/`u16::MAX` except at the seeds (distance 0, any hop
    /// count and label); `label` sees every improvement and tie.
    pub(crate) fn run<L: Label>(
        &mut self,
        csr: &Csr,
        seeds: &[u32],
        d: &mut [u64],
        h: &mut [u16],
        label: &mut L,
    ) {
        debug_assert!(d.len() == csr.len() && h.len() == csr.len());
        debug_assert!(self.ring.len() > csr.max_lat as usize);
        let mask = self.ring.len() - 1;
        let unit_hops = csr.hops.is_empty();
        self.ring[0].extend_from_slice(seeds);
        let mut pending = seeds.len();
        let mut cur = 0u64;
        while pending > 0 {
            let slot = cur as usize & mask;
            while let Some(u) = self.ring[slot].pop() {
                pending -= 1;
                let u = u as usize;
                if d[u] != cur {
                    continue; // superseded by a shorter distance
                }
                if label.stops_at(u) {
                    self.ring.iter_mut().for_each(Vec::clear);
                    return;
                }
                let hu = h[u];
                let (lo, hi) = (csr.off[u] as usize, csr.off[u + 1] as usize);
                for (i, (&v, &w)) in csr.to[lo..hi].iter().zip(&csr.lat[lo..hi]).enumerate() {
                    let e = lo + i;
                    if label.skips(e) {
                        continue;
                    }
                    let v = v as usize;
                    let dv = cur + w as u64;
                    if dv > d[v] {
                        continue;
                    }
                    let hv = hu.saturating_add(if unit_hops { 1 } else { csr.hops[e] });
                    if dv < d[v] {
                        d[v] = dv;
                        h[v] = hv;
                        label.improve(u, v);
                        // 1 ≤ latency < ring length: never the slot being drained.
                        self.ring[dv as usize & mask].push(v as u32);
                        pending += 1;
                    } else if hv < h[v] {
                        h[v] = hv;
                        label.improve(u, v);
                    } else if hv == h[v] {
                        label.tie(u, v, d, h);
                    }
                }
            }
            cur += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn search(csr: &Csr, src: usize) -> (Vec<u64>, Vec<u16>) {
        let n = csr.len();
        let (mut d, mut h) = (vec![UNREACHABLE; n], vec![u16::MAX; n]);
        d[src] = 0;
        h[src] = 0;
        Dial::for_csr(csr).run(csr, &[src as u32], &mut d, &mut h, &mut ());
        (d, h)
    }

    #[test]
    fn ring_covers_the_largest_latency() {
        let mut g = Graph::with_nodes(3);
        g.add_link(0, 1, 5, 1.0);
        g.add_link(1, 2, 8, 1.0);
        let csr = Csr::of(&g);
        assert_eq!(Dial::for_csr(&csr).ring.len(), 16);
        assert_eq!(search(&csr, 0), (vec![0, 5, 13], vec![0, 1, 2]));
    }

    #[test]
    fn weighted_hops_and_unreachable_nodes() {
        // 0 -(2, 3 hops)- 1 -(2, 3 hops)- 2, and 0 -(4, 7 hops)- 2; 3 alone.
        let csr = Csr::from_parts(
            vec![0, 2, 4, 6, 6],
            vec![1, 2, 0, 2, 1, 0],
            vec![2, 4, 2, 2, 2, 4],
            vec![3, 7, 3, 3, 3, 7],
        );
        let (d, h) = search(&csr, 0);
        assert_eq!(d, vec![0, 2, 4, UNREACHABLE]);
        assert_eq!(h, vec![0, 3, 6, u16::MAX], "equal latency, fewer hops");
    }
}
