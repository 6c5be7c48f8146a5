//! Differential tests for the sharded parallel executor.
//!
//! The contract under test: `SimTemplate::run_sharded` reproduces the
//! sequential run's (the 1-shard plan's) report — including the event-stream
//! `event_fingerprint`, which pins the *entire delivered event stream*,
//! not just the final tallies — bit for bit, for every policy, seed,
//! shard count, and worker count. Conservative lookahead plus per-lane
//! event sequencing is an exactness argument, not an approximation, so
//! these tests assert equality, never tolerance.
//!
//! The worker count defaults to 4 and can be pinned via the
//! `GRIDSCALE_SHARD_WORKERS` environment variable; CI runs this suite
//! under both 1 and 4 workers to cover the single-threaded and
//! contended barrier paths.

mod edge_cases;

use edge_cases::EDGE_CASES;
use gridscale::prelude::*;

/// Worker-thread count for the suite (see module docs).
fn workers() -> usize {
    std::env::var("GRIDSCALE_SHARD_WORKERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4)
}

/// A small Grid with enough scheduler clusters (10) to split 8 ways and
/// a couple of estimators so the estimator-lane plumbing is exercised.
fn diff_cfg(seed: u64) -> GridConfig {
    GridConfig {
        nodes: 100,
        schedulers: 10,
        estimators: 2,
        workload: WorkloadConfig {
            arrival_rate: 0.03,
            duration: SimTime::from_ticks(3_000),
            ..WorkloadConfig::default()
        },
        drain: SimTime::from_ticks(5_000),
        seed,
        ..GridConfig::default()
    }
}

/// Field-by-field bit equality of two reports (f64 fields compared by
/// bit pattern — "close" is a bug here).
fn assert_reports_identical(seq: &SimReport, shard: &SimReport, what: &str) {
    assert_eq!(
        seq.event_fingerprint, shard.event_fingerprint,
        "{what}: event stream diverged"
    );
    assert_eq!(seq.events_processed, shard.events_processed, "{what}");
    assert_eq!(seq.completed, shard.completed, "{what}");
    assert_eq!(seq.succeeded, shard.succeeded, "{what}");
    assert_eq!(seq.msgs_sent, shard.msgs_sent, "{what}");
    assert_eq!(seq.transfers, shard.transfers, "{what}");
    assert_eq!(seq.policy_msgs, shard.policy_msgs, "{what}");
    assert_eq!(seq.updates_sent, shard.updates_sent, "{what}");
    assert_eq!(
        seq.f_work.to_bits(),
        shard.f_work.to_bits(),
        "{what}: F diverged ({} vs {})",
        seq.f_work,
        shard.f_work
    );
    assert_eq!(
        seq.g_overhead.to_bits(),
        shard.g_overhead.to_bits(),
        "{what}: G diverged ({} vs {})",
        seq.g_overhead,
        shard.g_overhead
    );
    assert_eq!(
        seq.h_overhead.to_bits(),
        shard.h_overhead.to_bits(),
        "{what}: H diverged"
    );
    assert_eq!(
        seq.efficiency.to_bits(),
        shard.efficiency.to_bits(),
        "{what}: efficiency diverged"
    );
    assert_eq!(
        seq.mean_response.to_bits(),
        shard.mean_response.to_bits(),
        "{what}: mean response diverged"
    );
    assert_eq!(
        seq.p95_response.to_bits(),
        shard.p95_response.to_bits(),
        "{what}: p95 diverged"
    );
    assert_eq!(
        seq.resource_utilization.to_bits(),
        shard.resource_utilization.to_bits(),
        "{what}: utilization diverged"
    );
}

#[test]
fn sharded_matches_sequential_for_every_policy_shard_count_and_seed() {
    let w = workers();
    for kind in RmsKind::ALL {
        for seed in [3u64, 17, 99] {
            let cfg = diff_cfg(seed);
            let template = SimTemplate::new(&cfg);
            let mut p = kind.build_static();
            let seq = template.run(cfg.enablers, &mut p);
            for shards in [1usize, 2, 4, 8] {
                let (rep, summary) =
                    template.run_sharded(cfg.enablers, || kind.build_static(), shards, w);
                let what = format!("{kind} seed={seed} shards={shards} workers={w}");
                assert_reports_identical(&seq, &rep, &what);
                assert_eq!(summary.shards, shards, "{what}");
                assert_eq!(
                    summary.events_per_shard.iter().sum::<u64>(),
                    rep.events_processed,
                    "{what}: per-shard event counts must sum to the total"
                );
            }
        }
    }
}

/// `diff_cfg` with the bandwidth model on and capacity tight enough that
/// transfers genuinely contend (the disabled default would make this test
/// vacuously identical to the one above).
fn bw_diff_cfg(seed: u64) -> GridConfig {
    let mut cfg = diff_cfg(seed);
    cfg.bandwidth.enabled = true;
    cfg.bandwidth.capacity_scale = 0.05;
    cfg.bandwidth.k_paths = 2;
    cfg
}

#[test]
fn bandwidth_contention_stays_bit_identical_under_sharding() {
    let w = workers();
    for kind in RmsKind::ALL {
        for seed in [3u64, 17, 99] {
            let cfg = bw_diff_cfg(seed);
            let template = SimTemplate::new(&cfg);
            let mut p = kind.build_static();
            let seq = template.run(cfg.enablers, &mut p);
            assert!(
                seq.net_flows > 0,
                "{kind} seed={seed}: the bandwidth model must actually engage"
            );
            for shards in [1usize, 2, 4, 8] {
                let (rep, _) =
                    template.run_sharded(cfg.enablers, || kind.build_static(), shards, w);
                let what = format!("bw {kind} seed={seed} shards={shards} workers={w}");
                assert_reports_identical(&seq, &rep, &what);
                assert_eq!(seq.net_flows, rep.net_flows, "{what}");
                assert_eq!(seq.net_flows_contended, rep.net_flows_contended, "{what}");
                assert_eq!(
                    seq.net_transfer_busy.to_bits(),
                    rep.net_transfer_busy.to_bits(),
                    "{what}: measured transfer busy time diverged"
                );
            }
        }
    }
}

/// Dormant status ticks are folded outside the event queue the same
/// way under every plan — for every policy, with bandwidth off and on,
/// under the sequential executor and 2- and 4-shard plans — while the
/// report stays the sequential one. Folding is lane-local, so the
/// folded count is plan-invariant, and every folded tick is a
/// suppressed one.
#[test]
fn held_ticks_fold_identically_under_every_plan() {
    let w = workers();
    for kind in RmsKind::ALL {
        for (label, cfg) in [("bw off", diff_cfg(13)), ("bw on", bw_diff_cfg(13))] {
            let template = SimTemplate::new(&cfg);
            let mut p = kind.build_static();
            let seq = template.run(cfg.enablers, &mut p);
            let folded = template.replay_stats().folded_ticks;
            let what = format!("{kind} {label} sequential");
            assert!(folded > 0, "{what}: no tick was ever dormant");
            assert!(folded <= seq.updates_suppressed, "{what}: {folded} folded");
            for shards in [2usize, 4] {
                let (rep, _) =
                    template.run_sharded(cfg.enablers, || kind.build_static(), shards, w);
                let what = format!("{kind} {label} shards={shards} workers={w}");
                assert_reports_identical(&seq, &rep, &what);
                assert_eq!(seq.updates_suppressed, rep.updates_suppressed, "{what}");
                assert_eq!(template.replay_stats().folded_ticks, folded, "{what}");
            }
        }
    }
}

/// The golden fixture's edge configurations — every tick sending, none
/// sending, a tick every tick, τ past the horizon, a DAG — reproduce the
/// sequential report on 2 and 4 shards, on ten cluster lanes (LOWEST)
/// and on one (CENTRAL).
#[test]
fn edge_cases_stay_bit_identical_under_sharding() {
    let w = workers();
    for kind in [RmsKind::Lowest, RmsKind::Central] {
        for (edge, edit) in EDGE_CASES {
            let mut cfg = diff_cfg(19);
            if kind.is_centralized() {
                cfg.schedulers = 1;
            }
            edit(&mut cfg);
            let template = SimTemplate::new(&cfg);
            let seq = template.run(cfg.enablers, &mut kind.build_static());
            for shards in [2usize, 4] {
                let (rep, _) =
                    template.run_sharded(cfg.enablers, || kind.build_static(), shards, w);
                let what = format!("{kind} {edge} shards={shards} workers={w}");
                assert_reports_identical(&seq, &rep, &what);
                assert_eq!(seq.updates_suppressed, rep.updates_suppressed, "{what}");
            }
        }
    }
}

#[test]
fn sharded_fingerprint_is_worker_count_invariant() {
    let cfg = diff_cfg(41);
    let template = SimTemplate::new(&cfg);
    let mut p = RmsKind::Lowest.build_static();
    let seq = template.run(cfg.enablers, &mut p);
    for workers in 1..=4 {
        let (rep, summary) =
            template.run_sharded(cfg.enablers, || RmsKind::Lowest.build_static(), 4, workers);
        assert_reports_identical(&seq, &rep, &format!("workers={workers}"));
        assert_eq!(summary.workers, workers.min(summary.shards));
    }
}

#[test]
fn explicit_unbalanced_plans_still_reproduce_the_stream() {
    let cfg = diff_cfg(7);
    let template = SimTemplate::new(&cfg);
    let mut p = RmsKind::Symmetric.build_static();
    let seq = template.run(cfg.enablers, &mut p);
    // Everything-on-one-shard-but-cluster-3, interleaved, and skewed
    // assignments: the plan must never matter, only the lane streams.
    let n = template.cluster_count();
    let plans: Vec<Vec<u32>> = vec![
        (0..n).map(|c| u32::from(c == 3)).collect(),
        (0..n).map(|c| (c % 3) as u32).collect(),
        (0..n).map(|c| u32::from(c >= n - 2) * 2).collect(),
    ];
    for (i, plan) in plans.iter().enumerate() {
        let shards = (*plan.iter().max().unwrap() as usize) + 1;
        let (rep, summary) = template.run_sharded_with(
            cfg.enablers,
            || RmsKind::Symmetric.build_static(),
            plan,
            shards,
            workers(),
        );
        assert_reports_identical(&seq, &rep, &format!("plan #{i}"));
        assert!(summary.barrier_rounds > 0, "plan #{i}");
    }
}

#[test]
fn shard_telemetry_reports_real_parallel_structure() {
    let cfg = diff_cfg(23);
    let template = SimTemplate::new(&cfg);
    let (rep, summary) = template.run_sharded(
        cfg.enablers,
        || RmsKind::Lowest.build_static(),
        4,
        workers(),
    );
    assert_eq!(summary.shards, 4);
    assert_eq!(summary.events_per_shard.len(), 4);
    assert_eq!(summary.idle_windows_per_shard.len(), 4);
    assert!(
        summary.events_per_shard.iter().all(|&e| e > 0),
        "every shard owns clusters and must process events: {:?}",
        summary.events_per_shard
    );
    assert!(
        summary.cross_shard_events > 0,
        "LOWEST polls remote clusters, so deliveries must cross shards"
    );
    assert!(summary.barrier_rounds > 0);
    assert!(
        summary.window_ticks >= 1 && summary.window_ticks != u64::MAX,
        "cross-shard channels exist, so the lookahead must be finite"
    );
    assert!(rep.events_processed > 0);
    // The single-shard degenerate case: no cross-partition channel, so
    // the lookahead is unbounded and the run completes in one window.
    let (_, solo) = template.run_sharded(
        cfg.enablers,
        || RmsKind::Lowest.build_static(),
        1,
        workers(),
    );
    assert_eq!(solo.window_ticks, u64::MAX);
    assert_eq!(solo.cross_shard_events, 0);
    assert_eq!(solo.barrier_rounds, 1);
    // And the template surfaces the most recent sharded run's telemetry.
    let stats = template.replay_stats();
    let shard = stats.shard.expect("sharded runs record telemetry");
    assert_eq!(shard.shards, 1);
}

#[test]
fn auto_planned_replay_matches_sequential_for_every_policy() {
    // `run_sharded(.., 0, 0)` picks shards/workers from topology + host
    // cores; whatever it picks, the report must stay bit-identical to
    // the sequential executor (the acceptance bar for `--shards auto`).
    for kind in RmsKind::ALL {
        let cfg = diff_cfg(61);
        let template = SimTemplate::new(&cfg);
        let mut p = kind.build_static();
        let seq = template.run(cfg.enablers, &mut p);
        let (rep, summary) = template.run_sharded(cfg.enablers, || kind.build_static(), 0, 0);
        let what = format!("{kind} auto (picked {} shards)", summary.shards);
        assert_reports_identical(&seq, &rep, &what);
        assert!(summary.shards >= 1, "{what}");
        assert!(
            summary.workers >= 1 && summary.workers <= summary.shards,
            "{what}: workers {} out of range",
            summary.workers
        );
    }
}

#[test]
fn shard_memory_telemetry_is_lane_proportional() {
    let cfg = diff_cfg(83);
    let template = SimTemplate::new(&cfg);
    let (_, solo) = template.run_sharded(cfg.enablers, || RmsKind::Lowest.build_static(), 1, 1);
    assert_eq!(solo.hot_bytes_per_shard.len(), 1);
    assert_eq!(
        solo.hot_bytes_total,
        solo.hot_bytes_per_shard.iter().sum::<u64>()
    );
    assert!(solo.hot_bytes_total > 0);
    let (_, quad) = template.run_sharded(
        cfg.enablers,
        || RmsKind::Lowest.build_static(),
        4,
        workers(),
    );
    assert_eq!(quad.hot_bytes_per_shard.len(), 4);
    assert_eq!(
        quad.hot_bytes_total,
        quad.hot_bytes_per_shard.iter().sum::<u64>()
    );
    assert!(quad.hot_bytes_per_shard.iter().all(|&b| b > 0));
    // Every shard's arena must be strictly smaller than the full-world
    // arena: lane-scoped state is sized to the partition, not the world.
    assert!(
        quad.hot_bytes_per_shard
            .iter()
            .all(|&b| b < solo.hot_bytes_total),
        "per-shard arenas {:?} should each undercut the solo arena {}",
        quad.hot_bytes_per_shard,
        solo.hot_bytes_total
    );
}

/// A 10⁴-node transit-stub grid shaped like the one `figures
/// shard-memory` reports: stub-local traffic is short-haul and transit
/// crossings long, so the latency-aware planner finds a real lookahead
/// window.
fn ten_thousand_node_cfg() -> GridConfig {
    GridConfig {
        nodes: 10_000,
        schedulers: 156,
        estimators: 2,
        topology: TopologySpec::TransitStub,
        workload: WorkloadConfig {
            arrival_rate: 1.0,
            duration: SimTime::from_ticks(8_000),
            ..WorkloadConfig::default()
        },
        drain: SimTime::from_ticks(12_000),
        seed: 0x5AA5 + 4,
        ..GridConfig::default()
    }
}

#[test]
fn two_shards_at_ten_thousand_nodes_stay_within_a_quarter_of_the_solo_arena() {
    let cfg = ten_thousand_node_cfg();
    let template = SimTemplate::new(&cfg);
    let (solo_r, solo) =
        template.run_sharded(cfg.enablers, || RmsKind::Lowest.build_static(), 1, 1);
    let (r, duo) = template.run_sharded(
        cfg.enablers,
        || RmsKind::Lowest.build_static(),
        2,
        workers(),
    );
    assert_reports_identical(&solo_r, &r, "10^4 nodes, 2 shards");
    assert!(template.shared_world_bytes() > 0);
    assert_eq!(duo.hot_bytes_per_shard.len(), 2);
    assert_eq!(duo.events_per_shard.len(), 2);
    assert!(duo.window_ticks >= 1 && duo.barrier_rounds >= 1);
    // Lane-scoped shard state: the sharded total no longer scales with
    // the shard count (a full-world replica per shard would be 2x).
    assert!(
        (duo.hot_bytes_total as f64) < 1.25 * solo.hot_bytes_total as f64,
        "2-shard hot state {} B vs solo {} B",
        duo.hot_bytes_total,
        solo.hot_bytes_total
    );
}

#[test]
fn queue_telemetry_counts_a_sharded_replay_as_one_logical_run() {
    let cfg = diff_cfg(29);
    let template = SimTemplate::new(&cfg);
    let (_, summary) = template.run_sharded(
        cfg.enablers,
        || RmsKind::Lowest.build_static(),
        4,
        workers(),
    );
    // The run-level summary holds exactly this one replay...
    assert_eq!(summary.queue.ladder_runs + summary.queue.heap_runs, 1);
    // ...and the template-level aggregate counts it once, not once per
    // shard, no matter how many engines the replay fanned out to.
    let stats = template.replay_stats();
    assert_eq!(stats.queue.ladder_runs + stats.queue.heap_runs, 1);
    let (_, again) = template.run_sharded(
        cfg.enablers,
        || RmsKind::Lowest.build_static(),
        2,
        workers(),
    );
    assert_eq!(again.queue.ladder_runs + again.queue.heap_runs, 1);
    assert_eq!(
        template.replay_stats().queue.ladder_runs + template.replay_stats().queue.heap_runs,
        2
    );
    // The per-run aggregation is deterministic: the same replay on a
    // fresh template folds its shards in ascending shard order, landing
    // on the exact same summary — thread placement must be invisible.
    let fresh = SimTemplate::new(&cfg);
    let (_, replay) = fresh.run_sharded(
        cfg.enablers,
        || RmsKind::Lowest.build_static(),
        4,
        workers(),
    );
    assert_eq!(
        format!("{:?}", replay.queue),
        format!("{:?}", summary.queue),
        "sharded queue aggregation must be replay-deterministic"
    );
}

#[test]
fn dag_workloads_run_the_one_shard_plan_bit_identically() {
    // Dependency release crosses lanes at the same tick, so a DAG world
    // only runs on one shard: asking for three must get the 1-shard plan
    // and reproduce the sequential report exactly.
    let mut cfg = diff_cfg(5);
    cfg.dag_edge_prob = 0.3;
    let template = SimTemplate::new(&cfg);
    let seq = template.run(cfg.enablers, &mut RmsKind::Lowest.build_static());
    let (rep, summary) = template.run_sharded(
        cfg.enablers,
        || RmsKind::Lowest.build_static(),
        3,
        workers(),
    );
    assert_eq!(summary.shards, 1, "a DAG workload runs the 1-shard plan");
    assert!(rep.dag_deferred > 0, "the DAG must actually defer jobs");
    assert_eq!(format!("{seq:?}"), format!("{rep:?}"));
}
