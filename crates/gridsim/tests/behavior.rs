//! Behavioural tests of the Grid machinery: transport, middleware,
//! enabler effects, and accounting responses.

use gridscale_desim::SimTime;
use gridscale_gridsim::{
    run_simulation, BandwidthConfig, Clock, Comms, Ctx, Dispatch, GridConfig, LocalOnly, Policy,
    PolicyMsg, SimTemplate, Telemetry, TopologySpec,
};
use gridscale_workload::{Job, WorkloadConfig};

fn base_cfg() -> GridConfig {
    GridConfig {
        nodes: 60,
        schedulers: 4,
        workload: WorkloadConfig {
            arrival_rate: 0.025,
            duration: SimTime::from_ticks(20_000),
            ..WorkloadConfig::default()
        },
        drain: SimTime::from_ticks(25_000),
        seed: 99,
        ..GridConfig::default()
    }
}

/// A policy that ships every REMOTE job to the next cluster round-robin —
/// exercises transfers and (optionally) the middleware path.
struct ShipEverything {
    via_mw: bool,
}

impl Policy for ShipEverything {
    fn name(&self) -> &'static str {
        "SHIP"
    }
    fn uses_middleware(&self) -> bool {
        self.via_mw
    }
    fn on_remote_job(&mut self, ctx: &mut Ctx, cluster: usize, job: Job) {
        let n = ctx.clusters();
        if n > 1 {
            ctx.transfer(cluster, (cluster + 1) % n, job);
        } else {
            ctx.dispatch_least_loaded(cluster, job);
        }
    }
}

#[test]
fn transfers_are_counted_and_jobs_complete() {
    let r = run_simulation(&base_cfg(), &mut ShipEverything { via_mw: false });
    assert!(r.transfers > 0, "every REMOTE job transfers");
    assert!(r.completed as f64 > 0.9 * r.jobs_total as f64);
}

#[test]
fn middleware_adds_latency() {
    let mut cfg = base_cfg();
    cfg.middleware_service = 0.0;
    let fast = run_simulation(&cfg, &mut ShipEverything { via_mw: true });
    // Deliberately sluggish: long enough that a single scheduler domain's
    // middleware server (the queue is per sending domain) backs up under
    // its own transfer stream.
    cfg.middleware_service = 1000.0;
    let slow = run_simulation(&cfg, &mut ShipEverything { via_mw: true });
    assert!(
        slow.mean_response > fast.mean_response,
        "middleware service {} vs {} must slow responses",
        slow.mean_response,
        fast.mean_response
    );
}

#[test]
fn link_delay_enabler_hurts_deadlines() {
    // Job migration makes every REMOTE job traverse a scheduler-to-
    // scheduler path, so 32x longer links push those jobs past their
    // benefit deadlines. Mean response is no measure of this: it averages
    // completed jobs only, and queueing behind long jobs dominates it.
    let cfg = base_cfg();
    let template = SimTemplate::new(&cfg);
    let mut fast_en = cfg.enablers;
    fast_en.link_delay_factor = 0.5;
    let mut slow_en = cfg.enablers;
    slow_en.link_delay_factor = 16.0;
    let fast = template.run(fast_en, &mut ShipEverything { via_mw: false });
    let slow = template.run(slow_en, &mut ShipEverything { via_mw: false });
    assert!(
        slow.succeeded < fast.succeeded,
        "32x longer links must cost deadlines ({} vs {} met)",
        slow.succeeded,
        fast.succeeded
    );
}

#[test]
fn suppression_reduces_update_traffic() {
    let cfg = base_cfg();
    let template = SimTemplate::new(&cfg);
    let with = template.run(cfg.enablers, &mut LocalOnly);
    let mut cfg2 = cfg.clone();
    cfg2.thresholds.suppress_delta = 0.0;
    let template2 = SimTemplate::new(&cfg2);
    let without = template2.run(cfg2.enablers, &mut LocalOnly);
    assert_eq!(without.updates_suppressed, 0);
    assert!(
        with.updates_sent < without.updates_sent,
        "suppression must cut update volume ({} vs {})",
        with.updates_sent,
        without.updates_sent
    );
    assert!(with.g_overhead < without.g_overhead);
}

#[test]
fn estimator_count_changes_batch_granularity() {
    let mut cfg1 = base_cfg();
    cfg1.estimators = 1;
    let mut cfg4 = base_cfg();
    cfg4.estimators = 6;
    let r1 = run_simulation(&cfg1, &mut LocalOnly);
    let r4 = run_simulation(&cfg4, &mut LocalOnly);
    assert!(r1.batches > 0 && r4.batches > 0);
    // More estimators ⇒ updates split across more (smaller) batches.
    assert!(
        r4.batches > r1.batches,
        "6 estimators ({}) should flush more batches than 1 ({})",
        r4.batches,
        r1.batches
    );
}

#[test]
fn recall_round_trips_a_job() {
    /// Dispatches everything locally, but once per run recalls a queued
    /// job toward cluster 0 — exercising the Recall → Transfer →
    /// TransferIn path end to end.
    struct Recaller {
        fired: bool,
        arrived: u64,
    }
    impl Policy for Recaller {
        fn name(&self) -> &'static str {
            "RECALLER"
        }
        fn on_remote_job(&mut self, ctx: &mut Ctx, cluster: usize, job: Job) {
            ctx.dispatch_least_loaded(cluster, job);
        }
        fn on_transfer_in(&mut self, ctx: &mut Ctx, cluster: usize, job: Job) {
            assert_eq!(
                cluster, 0,
                "only the recall migrates jobs, toward cluster 0"
            );
            self.arrived += 1;
            ctx.dispatch_least_loaded(cluster, job);
        }
        fn on_update(&mut self, ctx: &mut Ctx, cluster: usize, pos: usize, load: f64) {
            if !self.fired && cluster != 0 && load >= 2.0 {
                self.fired = true;
                ctx.recall(cluster, pos, 0);
            }
        }
    }
    let mut cfg = base_cfg();
    cfg.workload.arrival_rate = 0.06; // enough queueing for a recall target
    let mut p = Recaller {
        fired: false,
        arrived: 0,
    };
    let r = run_simulation(&cfg, &mut p);
    assert!(p.fired, "some resource must queue a second job");
    assert_eq!(
        r.transfers, 1,
        "the recalled job must migrate as a transfer"
    );
    assert_eq!(p.arrived, 1, "and arrive at cluster 0");
}

#[test]
fn policy_messages_travel_between_schedulers() {
    /// Sends one Volunteer from cluster 1 to cluster 0 at init; asserts the
    /// delivery is observed by the peer.
    struct OneShot {
        seen: std::sync::Arc<std::sync::atomic::AtomicBool>,
    }
    impl Policy for OneShot {
        fn name(&self) -> &'static str {
            "ONESHOT"
        }
        fn init_cluster(&mut self, ctx: &mut Ctx, cluster: usize) {
            if cluster == 1 {
                ctx.send_policy(1, 0, PolicyMsg::Volunteer { from: 1, rus: 0.1 });
            }
        }
        fn on_remote_job(&mut self, ctx: &mut Ctx, cluster: usize, job: Job) {
            ctx.dispatch_least_loaded(cluster, job);
        }
        fn on_policy_msg(&mut self, _ctx: &mut Ctx, cluster: usize, msg: PolicyMsg) {
            assert_eq!(cluster, 0);
            assert!(matches!(msg, PolicyMsg::Volunteer { from: 1, .. }));
            self.seen.store(true, std::sync::atomic::Ordering::Relaxed);
        }
    }
    let seen = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut p = OneShot { seen: seen.clone() };
    let r = run_simulation(&base_cfg(), &mut p);
    assert!(
        seen.load(std::sync::atomic::Ordering::Relaxed),
        "message delivered"
    );
    assert_eq!(r.policy_msgs, 1);
}

#[test]
fn tighter_updates_improve_view_accuracy_and_success() {
    // With more frequent (less stale) updates, placement quality and thus
    // deadline success should not get worse, at higher G.
    let mut cfg = base_cfg();
    cfg.workload.arrival_rate = 0.05;
    let template = SimTemplate::new(&cfg);
    let mut tight = cfg.enablers;
    tight.update_interval = 50;
    let mut loose = cfg.enablers;
    loose.update_interval = 6400;
    let rt = template.run(tight, &mut LocalOnly);
    let rl = template.run(loose, &mut LocalOnly);
    assert!(
        rt.succeeded > rl.succeeded,
        "{} vs {}",
        rt.succeeded,
        rl.succeeded
    );
    assert!(rt.updates_sent > rl.updates_sent);
}

mod dag {
    use super::*;

    fn dag_cfg(edge_prob: f64, data_cost: f64) -> GridConfig {
        let mut cfg = base_cfg();
        cfg.dag_edge_prob = edge_prob;
        cfg.dag_data_cost = data_cost;
        cfg
    }

    #[test]
    fn precedence_defers_releases_and_conserves_jobs() {
        let with = run_simulation(&dag_cfg(0.5, 5.0), &mut LocalOnly);
        let without = run_simulation(&dag_cfg(0.0, 5.0), &mut LocalOnly);
        assert_eq!(without.dag_deferred, 0, "no DAG, no deferral");
        assert!(
            with.dag_deferred > 0,
            "dependencies must gate some releases"
        );
        assert_eq!(with.jobs_total, with.completed + with.unfinished);
        assert!(
            with.completed as f64 > 0.9 * with.jobs_total as f64,
            "chains still drain: {}/{}",
            with.completed,
            with.jobs_total
        );
    }

    #[test]
    fn data_movement_charges_h() {
        let cheap = run_simulation(&dag_cfg(0.5, 0.0), &mut LocalOnly);
        let costly = run_simulation(&dag_cfg(0.5, 20.0), &mut LocalOnly);
        assert!(
            costly.h_overhead > cheap.h_overhead + 100.0,
            "H must carry the data-dependency cost: {} vs {}",
            costly.h_overhead,
            cheap.h_overhead
        );
        // Same trace and DAG, so the release structure is identical.
        assert_eq!(cheap.dag_deferred, costly.dag_deferred);
        // And efficiency must fall as H rises (F identical dynamics).
        assert!(costly.efficiency < cheap.efficiency);
    }

    #[test]
    fn dag_runs_are_deterministic() {
        let a = run_simulation(&dag_cfg(0.4, 5.0), &mut LocalOnly);
        let b = run_simulation(&dag_cfg(0.4, 5.0), &mut LocalOnly);
        assert_eq!(a.f_work, b.f_work);
        assert_eq!(a.dag_deferred, b.dag_deferred);
        assert_eq!(a.h_overhead, b.h_overhead);
    }

    #[test]
    fn deeper_dags_defer_more() {
        let shallow = run_simulation(&dag_cfg(0.15, 5.0), &mut LocalOnly);
        let deep = run_simulation(&dag_cfg(0.9, 5.0), &mut LocalOnly);
        assert!(
            deep.dag_deferred > shallow.dag_deferred,
            "deep {} vs shallow {}",
            deep.dag_deferred,
            shallow.dag_deferred
        );
        // Deferred release lengthens makespan pressure near the horizon,
        // so completion cannot improve.
        assert!(deep.completed <= shallow.completed + shallow.jobs_total / 20);
    }
}

mod bandwidth {
    use super::*;

    fn bw_cfg(capacity_scale: f64) -> GridConfig {
        let mut cfg = base_cfg();
        cfg.bandwidth.enabled = true;
        cfg.bandwidth.capacity_scale = capacity_scale;
        cfg.bandwidth.k_paths = 2;
        cfg
    }

    #[test]
    fn disabled_default_admits_no_flows() {
        let r = run_simulation(&base_cfg(), &mut ShipEverything { via_mw: false });
        assert_eq!(r.net_flows, 0);
        assert_eq!(r.net_flows_contended, 0);
        assert_eq!(r.net_transfer_busy, 0.0);
    }

    #[test]
    fn enabled_runs_route_cross_cluster_traffic_as_flows() {
        let r = run_simulation(&bw_cfg(1.0), &mut ShipEverything { via_mw: false });
        assert!(r.net_flows > 0, "transfers must become sized flows");
        assert!(
            r.net_transfer_busy > 0.0,
            "flows must book measured busy time"
        );
        // The measured transfer time lands inside H(k).
        assert!(r.h_overhead >= r.net_transfer_busy);
        assert!(r.completed as f64 > 0.9 * r.jobs_total as f64);
    }

    /// The 640-node transit-stub grid of `figures ablation-bandwidth`:
    /// cross-cluster flows share trunk links, and estimator batches ride
    /// the flow path too.
    fn net_cfg(capacity_scale: f64) -> GridConfig {
        GridConfig {
            nodes: 640,
            schedulers: 10,
            estimators: 2,
            topology: TopologySpec::TransitStub,
            workload: WorkloadConfig {
                arrival_rate: 0.12,
                duration: SimTime::from_ticks(6_000),
                ..WorkloadConfig::default()
            },
            drain: SimTime::from_ticks(9_000),
            seed: 0xBA2D,
            bandwidth: BandwidthConfig {
                enabled: true,
                capacity_scale,
                k_paths: 2,
            },
            ..GridConfig::default()
        }
    }

    #[test]
    fn scarcer_capacity_means_more_contention_and_busy_time() {
        // Capacity swept down 1/k on the transit-stub grid: every point
        // routes flows, some contend, and measured busy time never falls
        // as capacity shrinks.
        let sweep: Vec<_> = [1.0, 0.5, 0.25, 0.125]
            .into_iter()
            .map(|scale| run_simulation(&net_cfg(scale), &mut ShipEverything { via_mw: false }))
            .collect();
        assert!(
            sweep.iter().all(|r| r.net_flows > 0),
            "every enabled point routes flows"
        );
        assert!(
            sweep.iter().any(|r| r.net_flows_contended > 0),
            "some point must contend, so the planner's deferral loop runs"
        );
        let busy: Vec<f64> = sweep.iter().map(|r| r.net_transfer_busy).collect();
        assert!(
            busy.windows(2).all(|w| w[1] >= w[0]),
            "transfer busy time must grow as capacity shrinks: {busy:?}"
        );

        // On the 60-node grid flows rarely overlap, so contention counts
        // there are no measure of scarcity; busy time is, since each
        // flow's is its size over its rate.
        let ample = run_simulation(&bw_cfg(4.0), &mut ShipEverything { via_mw: false });
        let scarce = run_simulation(&bw_cfg(0.02), &mut ShipEverything { via_mw: false });
        assert!(
            scarce.net_transfer_busy > ample.net_transfer_busy,
            "1/200th the capacity must stretch transfers: {} vs {}",
            scarce.net_transfer_busy,
            ample.net_transfer_busy
        );
    }

    #[test]
    fn only_enabled_worlds_build_a_vlink_table() {
        let mut off = net_cfg(1.0);
        off.bandwidth.enabled = false;
        assert_eq!(SimTemplate::new(&off).vlink_table_bytes(), 0);
        assert!(SimTemplate::new(&net_cfg(1.0)).vlink_table_bytes() > 0);
    }

    /// Sends one policy message from every cluster to every other at
    /// time 0 and records when each is processed.
    #[derive(Default)]
    struct Broadcast {
        seen: Vec<(u32, usize, SimTime)>,
    }

    impl Policy for Broadcast {
        fn name(&self) -> &'static str {
            "BROADCAST"
        }
        fn init_cluster(&mut self, ctx: &mut Ctx, cluster: usize) {
            for to in (0..ctx.clusters()).filter(|&to| to != cluster) {
                let from = cluster as u32;
                ctx.send_policy(cluster, to, PolicyMsg::Volunteer { from, rus: 0.0 });
            }
        }
        fn on_remote_job(&mut self, ctx: &mut Ctx, cluster: usize, job: Job) {
            ctx.dispatch_least_loaded(cluster, job);
        }
        fn on_policy_msg(&mut self, ctx: &mut Ctx, cluster: usize, msg: PolicyMsg) {
            self.seen.push((msg.from_cluster(), cluster, ctx.now()));
        }
    }

    #[test]
    fn contention_only_ever_delays() {
        // The conservative-lookahead contract: relative to the same run
        // with ample capacity, scarcity can only push deliveries later.
        // The messages sent at time 0 are the only flows (no job leaves
        // its cluster and base_cfg has no estimators), so each one is
        // the same flow in both runs.
        let run = |scale| {
            let mut p = Broadcast::default();
            let r = run_simulation(&bw_cfg(scale), &mut p);
            p.seen.sort_unstable();
            (r, p.seen)
        };
        let (ample, early) = run(8.0);
        let (scarce, late) = run(0.02);
        let n = base_cfg().schedulers;
        assert_eq!(early.len(), n * (n - 1), "every message arrives");
        assert_eq!(ample.net_flows, early.len() as u64);
        assert_eq!(scarce.net_flows, ample.net_flows);
        for (a, s) in early.iter().zip(&late) {
            assert_eq!((a.0, a.1), (s.0, s.1));
            assert!(
                s.2 >= a.2,
                "{}→{} delivered earlier under scarcity",
                a.0,
                a.1
            );
        }
        assert!(scarce.net_transfer_busy > ample.net_transfer_busy);
    }

    #[test]
    fn bandwidth_runs_replay_bit_identically() {
        let cfg = bw_cfg(0.05);
        let a = run_simulation(&cfg, &mut ShipEverything { via_mw: false });
        let b = run_simulation(&cfg, &mut ShipEverything { via_mw: false });
        assert_eq!(a.event_fingerprint, b.event_fingerprint);
        assert_eq!(a.net_transfer_busy, b.net_transfer_busy);
        assert_eq!(a.h_overhead, b.h_overhead);
        assert_eq!(a.net_flows, b.net_flows);
    }

    #[test]
    fn dag_edges_travel_as_flows_under_the_bandwidth_model() {
        let mut cfg = bw_cfg(1.0);
        cfg.dag_edge_prob = 0.5;
        cfg.dag_data_cost = 5.0;
        let r = run_simulation(&cfg, &mut LocalOnly);
        // LocalOnly never transfers jobs, so every flow here is a DAG
        // dependency payload crossing clusters (plus estimator batches,
        // of which base_cfg has none: estimators = 0 by default).
        assert!(
            r.net_flows > 0,
            "cross-cluster DAG edges must be routed as sized flows"
        );
        assert!(r.net_transfer_busy > 0.0);
    }
}

mod timeline {
    use super::*;

    #[test]
    fn timeline_samples_track_the_run() {
        let cfg = base_cfg();
        let template = SimTemplate::new(&cfg);
        let (report, tl) = template.run_with_timeline(cfg.enablers, &mut LocalOnly, 1_000);
        assert!(tl.len() > 30, "samples every 1k ticks over 45k horizon");
        // Cumulative signals are monotone.
        let f: Vec<f64> = tl.samples().iter().map(|s| s.f_so_far).collect();
        assert!(f.windows(2).all(|w| w[0] <= w[1]));
        let g: Vec<f64> = tl.samples().iter().map(|s| s.g_busy_so_far).collect();
        assert!(g.windows(2).all(|w| w[0] <= w[1]));
        // The last sample's totals approach the final report.
        let last = tl.samples().last().unwrap();
        assert!(last.completed <= report.completed);
        assert!(last.f_so_far <= report.f_work + 1e-9);
        assert!(last.completed as f64 >= 0.9 * report.completed as f64);
    }

    #[test]
    fn timeline_exposes_saturation() {
        // A deliberately overloaded single scheduler. Every job costs it
        // recv_job + decision_base + decision_per_candidate × members
        // ≈ 0.3 + 80 + 0.002 × 60 ≈ 80.4 ticks, and jobs arrive every
        // 1 / 0.025 = 40 ticks on average, so ρ ≈ 2.0. Its backlog (work
        // committed beyond now) is then the work arrived minus the time
        // elapsed, and grows by ρ − 1 ≈ 1 tick per tick while jobs arrive.
        let mut cfg = base_cfg();
        cfg.schedulers = 1;
        cfg.costs.decision_base = 80.0;
        let costs = cfg.costs;
        let rho = cfg.workload.arrival_rate * (costs.recv_job + costs.decision_base);
        assert!(
            rho > 1.9,
            "the premise is an overloaded scheduler: ρ = {rho}"
        );
        let template = SimTemplate::new(&cfg);
        let (_, tl) = template.run_with_timeline(cfg.enablers, &mut LocalOnly, 2_000);
        let arrivals_end = cfg.workload.duration.ticks();
        let window: Vec<(u64, f64)> = tl
            .series(|s| s.rms_backlog)
            .into_iter()
            .filter(|&(at, _)| at > 0 && at <= arrivals_end)
            .collect();
        let (&(t0, b0), &(t1, b1)) = (window.first().unwrap(), window.last().unwrap());
        let growth = (b1 - b0) / (t1 - t0) as f64;
        // Poisson arrivals move the growth rate over this window by about
        // ±0.2 from seed to seed; half of ρ − 1 either way leaves room.
        assert!(
            (0.5 * (rho - 1.0)..1.5 * (rho - 1.0)).contains(&growth),
            "backlog must grow at about ρ − 1 = {:.2} per tick, grew {growth:.2} \
             ({b0:.0} at {t0} → {b1:.0} at {t1})",
            rho - 1.0
        );
    }

    /// Samples are events on the global lane, so a sampled run processes
    /// one more event per sample and folds them into its fingerprint.
    /// Every other report field must equal the plain run's.
    #[test]
    fn plain_run_records_nothing() {
        let cfg = base_cfg();
        let template = SimTemplate::new(&cfg);
        let a = template.run(cfg.enablers, &mut LocalOnly);
        let (mut b, tl) = template.run_with_timeline(cfg.enablers, &mut LocalOnly, 5_000);
        assert!(!tl.is_empty());
        assert_eq!(b.events_processed, a.events_processed + tl.len() as u64);
        assert_ne!(b.event_fingerprint, a.event_fingerprint);
        b.events_processed = a.events_processed;
        b.event_fingerprint = a.event_fingerprint;
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "sampling must not perturb results"
        );
    }
}
