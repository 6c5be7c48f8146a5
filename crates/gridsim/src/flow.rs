//! Deterministic flow contention over the precomputed virtual links.
//!
//! When the bandwidth model is enabled ([`crate::config::BandwidthConfig`]),
//! every cross-cluster message becomes a sized *flow* on one candidate
//! path of its cluster pair's virtual link, and concurrent flows contend
//! for the capacity of the physical links they share. The allocation
//! rule is the strongest one compatible with the replay and sharding
//! contracts:
//!
//! * **Arrival-ordered residual share.** A flow's rate is fixed at
//!   admission to the minimum residual capacity along its path —
//!   `min over links (cap − Σ rates of live earlier flows)` — with the
//!   sum folded in admission order. Earlier flows keep their allocation
//!   (their `Deliver` events are already scheduled and are never
//!   revised), so this is the maximal rate that conserves capacity
//!   without revising history: a one-sided max-min fair share.
//! * **Saturation defers, never drops.** If the residual is zero the
//!   flow's start is pushed to the earliest in-flight completion and the
//!   allocation re-planned there, so contention only ever *delays*
//!   delivery beyond the propagation minimum — which is exactly the
//!   property the sharded executor's conservative lookahead needs.
//! * **Per-sending-lane state.** Like the middleware queue
//!   (`NetFabric::mw_next_free`), flow books are kept per sending lane:
//!   a lane's transfer history is a function of that lane's own sends
//!   only, so the event stream stays a deterministic function of
//!   per-lane histories and sharded runs stay bit-identical to
//!   sequential. (Cross-lane contention would need a global admission
//!   order, which no deterministic parallel executor can provide without
//!   serializing; the per-lane model is the documented trade.)
//!
//! No seeds, no iteration-order-dependent containers, no unordered float
//! reductions: replaying the same admission schedule is bit-identical.

use gridscale_topology::{PathSpec, VlinkTable};

/// Rates at or below this are treated as a saturated link (guards the
/// division in the completion time; also the positivity floor when a
/// topology hands us a zero-capacity link).
const MIN_RATE: f64 = 1e-9;

/// The outcome of admitting one flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Admission {
    /// When the transfer begins (≥ the requested departure).
    pub(crate) start: f64,
    /// When the last byte leaves the path (`start + size / rate`).
    pub(crate) finish: f64,
    /// The allocated rate (≤ the path bottleneck).
    pub(crate) rate: f64,
    /// Whether the flow was delayed or throttled by live flows.
    pub(crate) contended: bool,
}

/// One live flow: its completion time, allocated rate, and the virtual
/// link path it occupies (resolved against the immutable [`VlinkTable`],
/// so the book itself stays allocation-free per flow).
#[derive(Debug, Clone, Copy)]
struct Flow {
    finish: f64,
    rate: f64,
    a: u32,
    b: u32,
    path: u16,
}

/// Per-lane flow books over the shared virtual-link table.
pub(crate) struct FlowState {
    /// Sending lane → its live flows, in admission order (the fold order
    /// of every residual computation — fixed, so replays are
    /// bit-identical).
    lanes: Vec<Vec<Flow>>,
    /// The planner's scratch, kept across admissions so planning does
    /// not allocate once it has grown (see [`Planner::plan`]).
    planner: Planner,
}

impl FlowState {
    pub(crate) fn new(n_lanes: usize) -> FlowState {
        FlowState {
            lanes: vec![Vec::new(); n_lanes],
            planner: Planner::default(),
        }
    }

    /// Routes and books one flow from `lane` over cluster pair `(a, b)`:
    /// garbage-collects the lane's completed flows, plans every candidate
    /// path once, and books the candidate with the earliest delivery
    /// (`finish + prop(path)`). Ties break to the lowest path index
    /// because strict `<` keeps the first winner. Returns the chosen
    /// path, its admission and its delivery time, or `None` when the pair
    /// has no candidate path.
    #[allow(clippy::too_many_arguments, reason = "split borrows of kernel state")]
    pub(crate) fn route(
        &mut self,
        lane: usize,
        depart: f64,
        a: u32,
        b: u32,
        size: f64,
        table: &VlinkTable,
        prop: impl Fn(&PathSpec) -> f64,
    ) -> Option<(u16, Admission, f64)> {
        // Completed flows no longer hold capacity at any time ≥ depart;
        // dropping them keeps the book bounded by the live-flow count.
        // `retain` preserves admission order for the survivors.
        let book = &mut self.lanes[lane];
        book.retain(|f| f.finish > depart);
        // Every candidate plans against this book: its completion times
        // are sorted at most once per route, on the first deferral.
        self.planner.times.clear();
        let mut best: Option<(u16, Admission, f64)> = None;
        let mut best_delivery = f64::INFINITY;
        for (p, spec) in table.paths(a as usize, b as usize).iter().enumerate() {
            let (start, rate) = self.planner.plan(book, table, depart, &spec.links);
            let adm = finish_of(start, rate, size, depart, &spec.links, table);
            let delivery = adm.finish + prop(spec);
            // Path 0 stands until some delivery is strictly earlier
            // than every one before it (and than infinity).
            if best.is_none() || delivery < best_delivery {
                best = Some((p as u16, adm, delivery));
                best_delivery = delivery.min(best_delivery);
            }
        }
        let (path, adm, _) = best?;
        let links = &table.paths(a as usize, b as usize)[path as usize].links;
        debug_assert_conserved(book, table, links, &adm);
        book.push(Flow {
            finish: adm.finish,
            rate: adm.rate,
            a,
            b,
            path,
        });
        best
    }
}

/// Flow conservation at an admission: on every link of the booked path,
/// the lane's flows live at `adm.start` plus `adm.rate` stay within the
/// link's capacity, up to rounding. The one exception is the documented
/// [`MIN_RATE`] clamp, which books a positive rate on a link whose own
/// capacity is (near) zero.
fn debug_assert_conserved(book: &[Flow], table: &VlinkTable, links: &[u32], adm: &Admission) {
    if !cfg!(debug_assertions) {
        return;
    }
    for &l in links {
        let cap = table.link_cap[l as usize];
        let used = book
            .iter()
            .filter(|f| {
                f.finish > adm.start
                    && table.paths(f.a as usize, f.b as usize)[f.path as usize]
                        .links
                        .contains(&l)
            })
            .fold(0.0, |used, f| used + f.rate);
        debug_assert!(
            used + adm.rate <= cap + cap * 1e-12 || (adm.rate == MIN_RATE && cap <= MIN_RATE),
            "link {l} oversubscribed at {}: {used} + {} > {cap}",
            adm.start,
            adm.rate
        );
    }
}

/// Assembles the [`Admission`] for a planned `(start, rate)`.
fn finish_of(
    start: f64,
    rate: f64,
    size: f64,
    depart: f64,
    links: &[u32],
    table: &VlinkTable,
) -> Admission {
    let bottleneck = links
        .iter()
        .map(|&l| table.link_cap[l as usize])
        .fold(f64::INFINITY, f64::min);
    Admission {
        start,
        finish: start + size / rate,
        rate,
        contended: start > depart || rate < bottleneck,
    }
}

/// One live flow that crosses at least one link of the path being
/// planned: the part of it the residual fold reads.
#[derive(Debug, Clone, Copy)]
struct Crossing {
    finish: f64,
    rate: f64,
}

/// The planner's per-admission scratch.
#[derive(Default)]
struct Planner {
    /// The book's crossing flows for the path being planned, in
    /// admission order.
    crossing: Vec<Crossing>,
    /// One row of `links.len()` bits per crossing flow: which of the
    /// planned links it occupies.
    rows: Vec<bool>,
    /// The book's distinct completion times, ascending: the candidate
    /// starts after the departure. Empty until a plan first defers.
    times: Vec<f64>,
}

impl Planner {
    /// The earliest `(start ≥ depart, rate)` such that `rate` is the
    /// minimum residual along `links` at `start` and exceeds
    /// [`MIN_RATE`]. Candidate starts are the departure and every
    /// completion time in `book` (all later than `depart`); if none
    /// passes, the path's own capacity is (near) zero and the rate is
    /// clamped at the book's latest completion.
    ///
    /// Which of `links` each flow crosses is resolved once per plan,
    /// into one compact array of the crossing flows' `(finish, rate)`
    /// and their rows. The residual at a time is the fold over it in
    /// admission order: `used += rate` over the live crossing flows,
    /// then `cap − used`, then `min` over the links. That fold is
    /// monotone in the start: a later start only drops non-negative
    /// terms from each sum, and IEEE round-to-nearest `+` and `−` are
    /// monotone, so `used` can only fall and the residual only rise. So
    /// "residual > `MIN_RATE`" flips at most once over the ascending
    /// candidates, and a binary search finds the first passing start,
    /// its rate and the clamp fallback bit-identical to walking the
    /// completions one by one — in `O(log F)` folds instead of `O(F)`.
    fn plan(
        &mut self,
        book: &[Flow],
        table: &VlinkTable,
        depart: f64,
        links: &[u32],
    ) -> (f64, f64) {
        self.crossing.clear();
        self.rows.clear();
        for f in book {
            let path = &table.paths(f.a as usize, f.b as usize)[f.path as usize].links;
            let row = self.rows.len();
            self.rows.extend(links.iter().map(|l| path.contains(l)));
            if self.rows[row..].contains(&true) {
                self.crossing.push(Crossing {
                    finish: f.finish,
                    rate: f.rate,
                });
            } else {
                self.rows.truncate(row);
            }
        }
        let rate = self.residual(table, links, depart);
        if rate > MIN_RATE {
            return (depart, rate);
        }
        if self.times.is_empty() {
            self.times.extend(book.iter().map(|f| f.finish));
            self.times.sort_unstable_by(f64::total_cmp);
            self.times.dedup();
        }
        // The first candidate that passes, by bisection: every time
        // before `lo` fails, every time from `hi` on passes.
        let (mut lo, mut hi) = (0, self.times.len());
        let mut first = None;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let t = self.times[mid];
            let rate = self.residual(table, links, t);
            if rate > MIN_RATE {
                first = Some((t, rate));
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        first.unwrap_or_else(|| {
            // No live flow left to wait out: the path's own capacity is
            // (near) zero. Clamp so the division stays finite.
            let t = self.times.last().copied().unwrap_or(depart);
            (t, self.residual(table, links, t).max(MIN_RATE))
        })
    }

    /// The minimum residual capacity along `links` at time `t`.
    fn residual(&self, table: &VlinkTable, links: &[u32], t: f64) -> f64 {
        let mut rate = f64::INFINITY;
        for (j, &l) in links.iter().enumerate() {
            let mut used = 0.0;
            for (f, row) in self
                .crossing
                .iter()
                .zip(self.rows.chunks_exact(links.len()))
            {
                if f.finish > t && row[j] {
                    used += f.rate;
                }
            }
            rate = rate.min(table.link_cap[l as usize] - used);
        }
        rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridscale_desim::SimRng;
    use gridscale_topology::{generate, GridMap, HierRouting, Routing, RoutingTable, VlinkTable};

    /// A 6-ring with 3 scheduler clusters: every pair has two arc paths
    /// (with `k ≥ 2`) and all paths share ring links, so contention is
    /// easy to provoke.
    fn ring_table(k: usize, scale: f64) -> (VlinkTable, usize) {
        let g = generate::ring(6, generate::LinkParams::default());
        let routing = Routing::Exact(RoutingTable::build(&g));
        let map = GridMap::build(&g, &routing, 3, 0, 0.9);
        let t = VlinkTable::build(&g, &map, &routing, k, scale);
        (t, map.cluster_count())
    }

    /// An exact-mode Barabási–Albert grid: longer paths, partially
    /// overlapping detours, and pairs with three candidates.
    fn ba_table(k: usize, scale: f64, seed: u64) -> (VlinkTable, usize) {
        let mut rng = SimRng::new(seed);
        let g = generate::barabasi_albert(60, 2, generate::LinkParams::default(), &mut rng);
        let routing = Routing::Exact(RoutingTable::build(&g));
        let map = GridMap::build(&g, &routing, 6, 0, 0.9);
        let t = VlinkTable::build(&g, &map, &routing, k, scale);
        (t, map.cluster_count())
    }

    /// A hier-mode table: one `[uplink_a, uplink_b]` path per pair.
    fn hier_table(scale: f64) -> (VlinkTable, usize) {
        let mut rng = SimRng::new(42);
        let g = generate::barabasi_albert(200, 2, generate::LinkParams::default(), &mut rng);
        let placement = GridMap::place(&g, 6, 0, 0.9);
        let routing = Routing::Hier(HierRouting::build(&g, placement.schedulers()));
        let map = GridMap::assemble(placement, &routing);
        let t = VlinkTable::build(&g, &map, &routing, 3, scale);
        (t, map.cluster_count())
    }

    /// Books a flow on candidate `p`: every other candidate's delivery
    /// is infinite, so `p` is the strict winner.
    #[allow(clippy::too_many_arguments, reason = "split borrows of kernel state")]
    fn admit_on(
        fs: &mut FlowState,
        lane: usize,
        depart: f64,
        a: u32,
        b: u32,
        p: u16,
        size: f64,
        t: &VlinkTable,
    ) -> Admission {
        let want = &t.paths(a as usize, b as usize)[p as usize];
        let prop = |s: &PathSpec| {
            if std::ptr::eq(s, want) {
                0.0
            } else {
                f64::INFINITY
            }
        };
        let (path, adm, _) = fs
            .route(lane, depart, a, b, size, t, prop)
            .expect("pair has paths");
        assert_eq!(path, p);
        adm
    }

    #[test]
    fn uncontended_flow_runs_at_the_bottleneck() {
        let (t, _) = ring_table(2, 1.0);
        let mut fs = FlowState::new(2);
        let bottleneck = t.paths(0, 1)[0].bottleneck;
        let adm = admit_on(&mut fs, 0, 10.0, 0, 1, 0, 50.0, &t);
        assert_eq!(adm.start, 10.0);
        assert_eq!(adm.rate.to_bits(), bottleneck.to_bits());
        assert_eq!(adm.finish, 10.0 + 50.0 / bottleneck);
        assert!(!adm.contended);
    }

    #[test]
    fn saturated_path_defers_to_the_inflight_completion() {
        let (t, _) = ring_table(2, 1.0);
        let mut fs = FlowState::new(1);
        let first = admit_on(&mut fs, 0, 0.0, 0, 1, 0, 100.0, &t);
        // Same path immediately again: the first flow took the whole
        // bottleneck, so the second must wait for it.
        let second = admit_on(&mut fs, 0, 0.0, 0, 1, 0, 100.0, &t);
        assert!(second.contended);
        assert_eq!(second.start, first.finish);
        assert_eq!(second.rate.to_bits(), first.rate.to_bits());
    }

    #[test]
    fn disjoint_paths_do_not_contend() {
        let (t, _) = ring_table(2, 1.0);
        let paths = t.paths(0, 1);
        assert_eq!(paths.len(), 2, "ring: both arcs");
        let mut fs = FlowState::new(1);
        let _ = admit_on(&mut fs, 0, 0.0, 0, 1, 0, 100.0, &t);
        // The other arc shares no link with the first, so it admits
        // immediately at its own bottleneck.
        let other = admit_on(&mut fs, 0, 0.0, 0, 1, 1, 100.0, &t);
        assert_eq!(other.start, 0.0);
        assert!(!other.contended);
    }

    #[test]
    fn per_lane_books_are_independent() {
        let (t, _) = ring_table(2, 1.0);
        let mut fs = FlowState::new(2);
        let _ = admit_on(&mut fs, 0, 0.0, 0, 1, 0, 1000.0, &t);
        // A different lane's book is empty: no contention carries over.
        let other = admit_on(&mut fs, 1, 0.0, 0, 1, 0, 10.0, &t);
        assert!(!other.contended);
        assert_eq!(other.start, 0.0);
    }

    #[test]
    fn route_picks_the_earliest_delivery_and_breaks_ties_low() {
        let (t, _) = ring_table(2, 1.0);
        // Equal delivery on both arcs: the lower index wins.
        let mut fs = FlowState::new(1);
        let (p, _, _) = fs.route(0, 0.0, 0, 1, 10.0, &t, |_| 0.0).unwrap();
        assert_eq!(p, 0);
        // No finite delivery at all: path 0 still stands.
        let (p, _, _) = fs.route(0, 0.0, 0, 1, 10.0, &t, |_| f64::INFINITY).unwrap();
        assert_eq!(p, 0);
        // Path 0 now carries two flows; the free arc delivers first.
        let (p, adm, _) = fs.route(0, 0.0, 0, 1, 10.0, &t, |_| 0.0).unwrap();
        assert_eq!(p, 1);
        assert!(!adm.contended);
        // Intra-cluster traffic has no virtual link: nothing is booked.
        assert!(fs.route(0, 0.0, 1, 1, 10.0, &t, |_| 0.0).is_none());
    }

    /// Random schedules: conservation (per-link allocated rate never
    /// exceeds capacity at any admission instant), delay-only (start ≥
    /// depart, rate ≤ bottleneck), and bit-identical replay.
    #[test]
    fn random_schedules_conserve_capacity_and_replay_bit_identically() {
        for seed in 0..40u64 {
            let mut rng = SimRng::new(0xF10A + seed);
            let (t, nc) = ring_table(2, 0.25 + 0.25 * (seed % 4) as f64);
            let mut fs = FlowState::new(3);
            let mut booked: Vec<(f64, f64, u32, u32, u16, usize)> = Vec::new();
            let mut depart = 0.0;
            let mut log = Vec::new();
            for _ in 0..60 {
                depart += rng.int_range(0, 3) as f64 * 0.5;
                let lane = rng.index(3);
                let a = rng.index(nc) as u32;
                let b = ((a as usize + 1 + rng.index(nc - 1)) % nc) as u32;
                let n_paths = t.paths(a as usize, b as usize).len();
                let p = rng.index(n_paths) as u16;
                let size = 1.0 + rng.index(100) as f64;
                let adm = admit_on(&mut fs, lane, depart, a, b, p, size, &t);
                let spec = &t.paths(a as usize, b as usize)[p as usize];
                assert!(adm.start >= depart, "delay-only: start before depart");
                assert!(
                    adm.rate <= spec.bottleneck + 1e-9,
                    "rate above the path bottleneck"
                );
                assert!(adm.finish > adm.start);
                booked.push((adm.start, adm.finish, a, b, p, lane));
                log.push(adm);
                // Conservation per lane: at this admission instant, the
                // live flows of each lane never oversubscribe any link.
                for check_lane in 0..3usize {
                    for l in 0..t.link_cap.len() as u32 {
                        let mut used = 0.0;
                        for adm_i in 0..booked.len() {
                            let (s, f, fa, fb, fp, fl) = booked[adm_i];
                            if fl == check_lane
                                && s <= adm.start
                                && f > adm.start
                                && t.paths(fa as usize, fb as usize)[fp as usize]
                                    .links
                                    .contains(&l)
                            {
                                used += log[adm_i].rate;
                            }
                        }
                        assert!(
                            used <= t.link_cap[l as usize] + 1e-6,
                            "seed {seed}: lane {check_lane} link {l} oversubscribed: {used} > {}",
                            t.link_cap[l as usize]
                        );
                    }
                }
            }
            // Bit-identical replay of the exact same schedule.
            let mut fs2 = FlowState::new(3);
            let mut rng2 = SimRng::new(0xF10A + seed);
            let mut depart2 = 0.0;
            for want in &log {
                depart2 += rng2.int_range(0, 3) as f64 * 0.5;
                let lane = rng2.index(3);
                let a = rng2.index(nc) as u32;
                let b = ((a as usize + 1 + rng2.index(nc - 1)) % nc) as u32;
                let n_paths = t.paths(a as usize, b as usize).len();
                let p = rng2.index(n_paths) as u16;
                let size = 1.0 + rng2.index(100) as f64;
                let adm = admit_on(&mut fs2, lane, depart2, a, b, p, size, &t);
                assert_eq!(adm.start.to_bits(), want.start.to_bits(), "seed {seed}");
                assert_eq!(adm.finish.to_bits(), want.finish.to_bits());
                assert_eq!(adm.rate.to_bits(), want.rate.to_bits());
            }
        }
    }

    /// The planner as it was before routing planned each candidate
    /// once: `predict` every candidate on the unpruned book, then
    /// `admit` (prune, re-plan, book) the winner, with every residual
    /// re-resolving link crossings per (flow, link, deferral step).
    /// Kept as the differential oracle for [`FlowState::route`].
    mod oracle {
        use super::super::{finish_of, Admission, Flow, MIN_RATE};
        use gridscale_topology::{PathSpec, VlinkTable};

        pub(super) struct Books {
            lanes: Vec<Vec<Flow>>,
        }

        impl Books {
            pub(super) fn new(n_lanes: usize) -> Books {
                Books {
                    lanes: vec![Vec::new(); n_lanes],
                }
            }

            /// The candidate loop the fabric ran per cross-cluster send.
            #[allow(clippy::too_many_arguments, reason = "mirrors FlowState::route")]
            pub(super) fn route(
                &mut self,
                lane: usize,
                depart: f64,
                a: u32,
                b: u32,
                size: f64,
                table: &VlinkTable,
                prop: impl Fn(&PathSpec) -> f64,
            ) -> Option<(u16, Admission, f64)> {
                let candidates = table.paths(a as usize, b as usize);
                if candidates.is_empty() {
                    return None;
                }
                let mut best = 0u16;
                let mut best_delivery = f64::INFINITY;
                for (p, spec) in candidates.iter().enumerate() {
                    let adm = self.predict(lane, depart, a, b, p as u16, size, table);
                    let delivery = adm.finish + prop(spec);
                    if delivery < best_delivery {
                        best_delivery = delivery;
                        best = p as u16;
                    }
                }
                let adm = self.admit(lane, depart, a, b, best, size, table);
                Some((best, adm, adm.finish + prop(&candidates[best as usize])))
            }

            #[allow(clippy::too_many_arguments, reason = "mirrors FlowState::route")]
            fn predict(
                &self,
                lane: usize,
                depart: f64,
                a: u32,
                b: u32,
                path_idx: u16,
                size: f64,
                table: &VlinkTable,
            ) -> Admission {
                let links = &table.paths(a as usize, b as usize)[path_idx as usize].links;
                let (start, rate) = plan(&self.lanes[lane], table, depart, links);
                finish_of(start, rate, size, depart, links, table)
            }

            #[allow(clippy::too_many_arguments, reason = "mirrors FlowState::route")]
            fn admit(
                &mut self,
                lane: usize,
                depart: f64,
                a: u32,
                b: u32,
                path_idx: u16,
                size: f64,
                table: &VlinkTable,
            ) -> Admission {
                self.lanes[lane].retain(|f| f.finish > depart);
                let links = &table.paths(a as usize, b as usize)[path_idx as usize].links;
                let (start, rate) = plan(&self.lanes[lane], table, depart, links);
                let adm = finish_of(start, rate, size, depart, links, table);
                self.lanes[lane].push(Flow {
                    finish: adm.finish,
                    rate: adm.rate,
                    a,
                    b,
                    path: path_idx,
                });
                adm
            }
        }

        fn plan(flows: &[Flow], table: &VlinkTable, depart: f64, links: &[u32]) -> (f64, f64) {
            let mut t = depart;
            loop {
                let mut rate = f64::INFINITY;
                for &l in links {
                    let mut used = 0.0;
                    for f in flows {
                        if f.finish > t && crosses(f, l, table) {
                            used += f.rate;
                        }
                    }
                    rate = rate.min(table.link_cap[l as usize] - used);
                }
                if rate > MIN_RATE {
                    return (t, rate);
                }
                let next = flows
                    .iter()
                    .map(|f| f.finish)
                    .filter(|&f| f > t)
                    .fold(f64::INFINITY, f64::min);
                if !next.is_finite() {
                    return (t, rate.max(MIN_RATE));
                }
                t = next;
            }
        }

        fn crosses(f: &Flow, l: u32, table: &VlinkTable) -> bool {
            table.paths(f.a as usize, f.b as usize)[f.path as usize]
                .links
                .contains(&l)
        }
    }

    /// What a differential run exercised, so each case can assert its
    /// schedule reached the planner branch it is there for.
    #[derive(Default, Debug)]
    struct Coverage {
        admissions: usize,
        contended: usize,
        deferred: usize,
        clamped: usize,
        off_first_path: usize,
        rewound: usize,
        /// The most live flows any admission planned against.
        largest_book: usize,
        /// The most distinct completion times any start was deferred
        /// across.
        longest_deferral: usize,
        /// Deferred admissions whose book held bit-equal completion
        /// times (the candidates the search deduplicates).
        tied: usize,
    }

    /// Who sends in a differential schedule.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Sends {
        /// A random sending lane, a routed latency and an occasional
        /// middleware-style late departure (so departures within a lane
        /// are not monotone).
        Plain,
        /// From the source cluster's lane, with the path latency alone as
        /// propagation.
        Dag,
        /// Plain sends, all from lane 0: one lane's book saturates.
        OneLane,
    }

    /// [`replay`] of 250 plain or DAG sends.
    fn differential(t: &VlinkTable, nc: usize, seed: u64, dag: bool) -> Coverage {
        let sends = if dag { Sends::Dag } else { Sends::Plain };
        replay(t, nc, seed, sends, 250)
    }

    /// Replays one seeded admission schedule of `count` sends through
    /// the oracle and through [`FlowState::route`], asserting
    /// bit-identical `(path, start, finish, rate, contended, delivery)`
    /// for every admission.
    fn replay(t: &VlinkTable, nc: usize, seed: u64, sends: Sends, count: usize) -> Coverage {
        let dag = sends == Sends::Dag;
        let n_lanes = if dag { nc } else { nc + 2 };
        let mut rng = SimRng::new(seed);
        let mut new = FlowState::new(n_lanes);
        let mut old = oracle::Books::new(n_lanes);
        let mut last_depart = vec![f64::NEG_INFINITY; n_lanes];
        let mut cov = Coverage::default();
        let factor = [0.0, 0.5, 1.0, 3.0][rng.index(4)];
        let mut now = 0.0;
        for _ in 0..count {
            now += rng.int_range(0, 4) as f64 * 0.25;
            let a = rng.index(nc) as u32;
            let b = ((a as usize + 1 + rng.index(nc - 1)) % nc) as u32;
            let (lane, depart, size) = if dag {
                (a as usize, now, rng.uniform(0.1, 20.0) * 100.0)
            } else {
                let late = if rng.chance(0.3) {
                    rng.uniform(0.0, 30.0)
                } else {
                    0.0
                };
                // Drawn either way, so a one-lane schedule is the plain
                // one with every send moved to lane 0.
                let lane = rng.index(n_lanes);
                let lane = if sends == Sends::OneLane { 0 } else { lane };
                (lane, now + late, 1.0 + rng.index(200) as f64)
            };
            let lat = rng.index(40) as f64;
            let prop = |s: &PathSpec| {
                if dag {
                    s.latency as f64 * factor
                } else {
                    lat.max(s.latency as f64) * factor
                }
            };
            let want = old.route(lane, depart, a, b, size, t, prop);
            let got = new.route(lane, depart, a, b, size, t, prop);
            let bits = |r: Option<(u16, Admission, f64)>| {
                r.map(|(p, x, delivery)| {
                    (
                        p,
                        x.start.to_bits(),
                        x.finish.to_bits(),
                        x.rate.to_bits(),
                        x.contended,
                        delivery.to_bits(),
                    )
                })
            };
            assert_eq!(
                bits(got),
                bits(want),
                "seed {seed}, {sends:?}, admission {}: lane {lane} depart {depart} ({a}→{b})",
                cov.admissions
            );
            let Some((p, adm, _)) = got else { continue };
            cov.admissions += 1;
            cov.contended += adm.contended as usize;
            cov.deferred += (adm.start > depart) as usize;
            cov.clamped += (adm.rate == MIN_RATE) as usize;
            cov.off_first_path += (p > 0) as usize;
            cov.rewound += (depart < last_depart[lane]) as usize;
            last_depart[lane] = depart;
            // The book this admission planned against: the pruned lane
            // book before the new flow was pushed.
            let book = &new.lanes[lane];
            let mut finishes: Vec<u64> = book[..book.len() - 1]
                .iter()
                .map(|f| f.finish.to_bits())
                .collect();
            cov.largest_book = cov.largest_book.max(finishes.len());
            if adm.start > depart {
                finishes.sort_unstable();
                let live = finishes.len();
                finishes.dedup();
                cov.tied += (finishes.len() < live) as usize;
                let crossed = finishes.iter().filter(|&&f| f64::from_bits(f) <= adm.start);
                cov.longest_deferral = cov.longest_deferral.max(crossed.count());
            }
        }
        cov
    }

    #[test]
    fn route_matches_the_predict_admit_oracle_on_exact_rings() {
        for k in 1..=3 {
            for scale in [0.02, 1.0] {
                let (t, nc) = ring_table(k, scale);
                for seed in 0..6 {
                    let cov = differential(&t, nc, 0xD1F + seed, false);
                    assert!(cov.contended > 0, "k {k} scale {scale}: {cov:?}");
                    assert!(cov.rewound > 0, "k {k} scale {scale}: {cov:?}");
                    if scale < 1.0 {
                        assert!(cov.deferred > 0, "k {k} scale {scale}: {cov:?}");
                    }
                    if k > 1 {
                        assert!(cov.off_first_path > 0, "k {k} scale {scale}: {cov:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn route_matches_the_oracle_on_multi_candidate_exact_grids() {
        for k in 1..=3 {
            for scale in [0.05, 1.0] {
                let (t, nc) = ba_table(k, scale, 7);
                let max_paths = (0..nc)
                    .flat_map(|a| (0..nc).map(move |b| (a, b)))
                    .map(|(a, b)| t.paths(a, b).len())
                    .max();
                assert_eq!(
                    max_paths,
                    Some(k),
                    "the grid offers {k} candidates somewhere"
                );
                for seed in 0..4 {
                    let cov = differential(&t, nc, 0xBA + seed, seed % 2 == 1);
                    assert!(cov.contended > 0, "k {k} scale {scale}: {cov:?}");
                }
            }
        }
    }

    #[test]
    fn route_matches_the_oracle_on_a_hier_table() {
        for scale in [0.01, 1.0] {
            let (t, nc) = hier_table(scale);
            assert!(t.is_hier());
            for seed in 0..6 {
                let cov = differential(&t, nc, 0x41E + seed, seed % 2 == 1);
                assert!(cov.contended > 0, "scale {scale}: {cov:?}");
                assert_eq!(cov.off_first_path, 0, "hier: one path per pair");
            }
        }
    }

    #[test]
    fn route_matches_the_oracle_on_near_zero_capacity_links() {
        // Zero and sub-`MIN_RATE` links: the residual never clears, so
        // the planner waits out every live flow and clamps the rate.
        for k in 1..=2 {
            let (mut t, nc) = ring_table(k, 0.1);
            t.link_cap[0] = 0.0;
            t.link_cap[3] = MIN_RATE / 2.0;
            for seed in 0..6 {
                let cov = differential(&t, nc, 0x2E0 + seed, seed % 2 == 1);
                assert!(cov.clamped > 0, "k {k}: {cov:?}");
                assert!(cov.deferred > 0, "k {k}: {cov:?}");
            }
        }
        let (mut t, nc) = hier_table(1.0);
        t.link_cap[1] = 0.0;
        for seed in 0..4 {
            let cov = differential(&t, nc, 0x2E8 + seed, seed % 2 == 1);
            assert!(cov.clamped > 0, "hier: {cov:?}");
        }
    }

    #[test]
    fn route_matches_the_oracle_for_dag_sends_from_cluster_lanes() {
        for (t, nc) in [ring_table(2, 0.05), ring_table(3, 1.0), hier_table(0.05)] {
            for seed in 0..6 {
                let cov = differential(&t, nc, 0xDA6 + seed, true);
                assert!(cov.admissions > 0 && cov.contended > 0, "{cov:?}");
            }
        }
    }

    /// The planner's tail: one lane sends 400 flows over a ring at a
    /// hundredth of its capacity, so its book grows to hundreds of live
    /// flows and each start is searched across long deferral chains —
    /// the bisection's interior, and its deduplication of bit-equal
    /// completion times, against the oracle's one-by-one walk.
    #[test]
    fn route_matches_the_oracle_on_one_saturated_lane() {
        let (t, nc) = ring_table(2, 0.01);
        let cov = replay(&t, nc, 0x5A7, Sends::OneLane, 400);
        assert!(cov.largest_book >= 64, "{cov:?}");
        assert!(cov.longest_deferral >= 32, "{cov:?}");
        assert!(cov.tied > 0, "{cov:?}");
        assert!(cov.off_first_path > 0, "{cov:?}");
    }
}
