//! Deterministic ablation and shard-memory tables.
//!
//! Every table here reports simulated quantities only — efficiencies,
//! overheads in cost units, sim-time ticks, event and byte counts — so
//! two runs at the same seed print byte-identical text on any host.
//! Wall-clock cost is the `perfbench` package's business.
//!
//! * [`topology`] — Case-1 substrate sensitivity to the topology family;
//! * [`suppression`] — status-update suppression on vs off;
//! * [`rp_overhead`] — modelled vs negligible RP job-control overhead `H`;
//! * [`bandwidth`] — a link-capacity sweep under the flow model, plus
//!   Case 4 re-measured with measured transfers;
//! * [`shard_memory`] — shared-world and hot-state bytes of the sharded
//!   executor at 10⁴ and 10⁶ nodes.

use gridscale_core::sweep::default_threads;
use gridscale_core::{config_for, CaseId, Preset};
use gridscale_desim::SimTime;
use gridscale_gridsim::{BandwidthConfig, GridConfig, SimReport, SimTemplate, TopologySpec};
use gridscale_rms::RmsKind;

/// Renders `title`, a blank line, and `rows` under a header of `columns`
/// (`(name, width)`); every cell is right-aligned to its column's width.
pub fn table(title: &str, columns: &[(&str, usize)], rows: &[Vec<String>]) -> String {
    let line = |cells: &mut dyn Iterator<Item = &str>| {
        let cells: Vec<String> = cells
            .zip(columns)
            .map(|(c, &(_, w))| format!("{c:>w$}"))
            .collect();
        cells.join(" ") + "\n"
    };
    let mut s = format!("{title}\n\n");
    s += &line(&mut columns.iter().map(|&(name, _)| name));
    for row in rows {
        s += &line(&mut row.iter().map(String::as_str));
    }
    s
}

/// The Case-1, `k = 2` Quick point every two-arm ablation compares on.
fn case1_point(kind: RmsKind, seed: u64) -> GridConfig {
    config_for(kind, CaseId::NetworkSize, 2, Preset::Quick, seed)
}

/// Replays `cfg` once under `kind` at its default enablers.
fn replay(cfg: &GridConfig, kind: RmsKind) -> SimReport {
    SimTemplate::new(cfg).run(cfg.enablers, &mut kind.build_static())
}

/// Is the Fig. 2 substrate sensitive to the Mercator-substitute topology
/// family? LOWEST at the Case-1 `k = 2` point on each family.
pub fn topology(seed: u64) -> String {
    let families = [
        ("barabasi_albert", TopologySpec::BarabasiAlbert { m: 2 }),
        (
            "waxman",
            TopologySpec::Waxman {
                alpha: 0.25,
                beta: 0.4,
            },
        ),
        ("transit_stub", TopologySpec::TransitStub),
    ];
    let rows: Vec<Vec<String>> = families
        .into_iter()
        .map(|(name, spec)| {
            let mut cfg = case1_point(RmsKind::Lowest, seed);
            cfg.topology = spec;
            let r = replay(&cfg, RmsKind::Lowest);
            vec![
                name.to_string(),
                format!("{:.3}", r.efficiency),
                format!("{:.1}", 100.0 * r.success_rate()),
                format!("{:.3e}", r.g_overhead),
                format!("{:.0}", r.mean_response),
            ]
        })
        .collect();
    table(
        "topology-family ablation: LOWEST, case 1, k = 2, default enablers",
        &[
            ("family", 16),
            ("E", 8),
            ("succ%", 8),
            ("G", 12),
            ("resp", 9),
        ],
        &rows,
    ) + "\nShape argument (DESIGN.md §2): the RMS comparison depends on\nhop/latency distributions, which all three families provide.\n"
}

/// Status-update suppression (the paper's "update might be suppressed")
/// on, at the default threshold, vs off (`suppress_delta = 0`): how much
/// scheduler work does it save CENTRAL?
pub fn suppression(seed: u64) -> String {
    let rows: Vec<Vec<String>> = [("on", None), ("off", Some(0.0))]
        .into_iter()
        .map(|(arm, delta)| {
            let mut cfg = case1_point(RmsKind::Central, seed);
            if let Some(d) = delta {
                cfg.thresholds.suppress_delta = d;
            }
            let r = replay(&cfg, RmsKind::Central);
            vec![
                arm.to_string(),
                format!("{:.3}", r.efficiency),
                format!("{:.3e}", r.g_overhead),
                r.updates_sent.to_string(),
                r.updates_suppressed.to_string(),
                r.events_processed.to_string(),
            ]
        })
        .collect();
    table(
        "update-suppression ablation: CENTRAL, case 1, k = 2, default enablers",
        &[
            ("suppression", 12),
            ("E", 8),
            ("G", 12),
            ("updates_sent", 13),
            ("updates_suppressed", 19),
            ("events_processed", 17),
        ],
        &rows,
    )
}

/// The paper's "`H(k)` negligible" assumption (`rp_job_control = 0`)
/// against the modelled RP job-control overhead (`rp_job_control = 2`).
pub fn rp_overhead(seed: u64) -> String {
    let rows: Vec<Vec<String>> = [("negligible", 0.0), ("modelled", 2.0)]
        .into_iter()
        .map(|(arm, cost)| {
            let mut cfg = case1_point(RmsKind::Lowest, seed);
            cfg.costs.rp_job_control = cost;
            let r = replay(&cfg, RmsKind::Lowest);
            vec![
                arm.to_string(),
                format!("{cost:.1}"),
                format!("{:.3}", r.efficiency),
                format!("{:.3e}", r.g_overhead),
                format!("{:.3e}", r.h_overhead),
            ]
        })
        .collect();
    table(
        "RP-overhead ablation: LOWEST, case 1, k = 2, default enablers",
        &[
            ("H model", 10),
            ("rp_job_control", 14),
            ("E", 8),
            ("G", 12),
            ("H", 12),
        ],
        &rows,
    )
}

/// The fixed grid of the bandwidth sweep: transit-stub, so cross-cluster
/// flows traverse shared trunk links, with estimators, so status batches
/// ride the flow path too. `scale = None` leaves the bandwidth model off
/// (the legacy constant-latency baseline).
fn net_point(scale: Option<f64>, seed: u64) -> GridConfig {
    GridConfig {
        nodes: 640,
        schedulers: 10,
        estimators: 2,
        topology: TopologySpec::TransitStub,
        workload: gridscale_workload::WorkloadConfig {
            arrival_rate: 0.12,
            duration: SimTime::from_ticks(6_000),
            ..Default::default()
        },
        drain: SimTime::from_ticks(9_000),
        seed,
        bandwidth: BandwidthConfig {
            enabled: scale.is_some(),
            capacity_scale: scale.unwrap_or(1.0),
            k_paths: 2,
        },
        ..GridConfig::default()
    }
}

/// `net_transfer_busy / h_overhead` in percent: the measured transfer
/// share of `H`.
fn h_share_pct(r: &SimReport) -> f64 {
    if r.h_overhead > 0.0 {
        100.0 * r.net_transfer_busy / r.h_overhead
    } else {
        0.0
    }
}

/// The bandwidth-aware network model under LOWEST: link capacity swept
/// down `1/k` on the fixed `net_point` grid (measured transfer busy
/// time and contention must grow as capacity shrinks), then the Case-4
/// (`L_p`) points re-measured with flows at capacity scale 0.05 — how
/// much of `H(k)` the legacy constant model hid.
pub fn bandwidth(seed: u64) -> String {
    let kind = RmsKind::Lowest;
    let sweep: Vec<Vec<String>> = [None, Some(1.0), Some(0.5), Some(0.25), Some(0.125)]
        .into_iter()
        .map(|scale| {
            let cfg = net_point(scale, seed);
            let template = SimTemplate::new(&cfg);
            let r = template.run(cfg.enablers, &mut kind.build_static());
            vec![
                scale.map_or("off".to_string(), |s| format!("{s}")),
                r.net_flows.to_string(),
                r.net_flows_contended.to_string(),
                format!("{:.1}", r.net_transfer_busy),
                format!("{:.1}", r.h_overhead),
                format!("{:.1}", h_share_pct(&r)),
                r.events_processed.to_string(),
                template.vlink_table_bytes().to_string(),
            ]
        })
        .collect();
    let case4: Vec<Vec<String>> = [1u32, 2, 4]
        .into_iter()
        .map(|k| {
            let mut cfg = config_for(kind, CaseId::Lp, k, Preset::Quick, seed);
            cfg.workload.duration = SimTime::from_ticks(6_000);
            cfg.drain = SimTime::from_ticks(9_000);
            let before = replay(&cfg, kind);
            cfg.bandwidth = BandwidthConfig {
                enabled: true,
                capacity_scale: 0.05,
                k_paths: 2,
            };
            let after = replay(&cfg, kind);
            vec![
                k.to_string(),
                format!("{:.1}", before.h_overhead),
                format!("{:.1}", after.h_overhead),
                format!("{:.1}", after.net_transfer_busy),
                format!("{:.1}", h_share_pct(&after)),
                after.net_flows.to_string(),
                after.net_flows_contended.to_string(),
            ]
        })
        .collect();
    table(
        "bandwidth ablation: LOWEST, 640-node transit-stub grid, 2 paths per cluster pair",
        &[
            ("capacity", 8),
            ("flows", 7),
            ("contended", 9),
            ("busy", 10),
            ("H", 10),
            ("H share%", 8),
            ("events", 9),
            ("vlink bytes", 11),
        ],
        &sweep,
    ) + "\n"
        + &table(
            "case 4 (L_p) before/after: legacy constant network vs flows at capacity 0.05",
            &[
                ("k", 3),
                ("H before", 10),
                ("H after", 10),
                ("busy", 10),
                ("H share%", 8),
                ("flows", 7),
                ("contended", 9),
            ],
            &case4,
        )
}

/// The 10⁴-node world: transit-stub (stub-local traffic is short-haul,
/// transit crossings long, so the latency-aware planner finds a real
/// lookahead window) with a scheduler cluster per 64 nodes.
fn ten_thousand_node_point(seed: u64) -> GridConfig {
    GridConfig {
        nodes: 10_000,
        schedulers: 156,
        estimators: 2,
        topology: TopologySpec::TransitStub,
        workload: gridscale_workload::WorkloadConfig {
            arrival_rate: 1.0,
            duration: SimTime::from_ticks(8_000),
            ..Default::default()
        },
        drain: SimTime::from_ticks(12_000),
        seed,
        ..GridConfig::default()
    }
}

/// The 10⁶-node world: a short replay over a million-node shared world,
/// to pin its memory footprint.
fn million_node_point(seed: u64) -> GridConfig {
    GridConfig {
        nodes: 1_000_000,
        schedulers: 256,
        estimators: 2,
        workload: gridscale_workload::WorkloadConfig {
            arrival_rate: 0.05,
            duration: SimTime::from_ticks(500),
            ..Default::default()
        },
        drain: SimTime::from_ticks(1_000),
        seed,
        ..GridConfig::default()
    }
}

/// Shards of the sharded arm of [`shard_memory`].
const SHARDS: usize = 4;

/// Memory of the sharded conservative-parallel executor under LOWEST: the
/// shared world's bytes, and the mutable hot state of the 1-shard replay
/// against the `SHARDS`-shard replay of the same world — lane-scoped
/// shard state keeps the sharded total within a constant of the 1-shard
/// arena — plus the sharded replay's events, barrier rounds and whether
/// its event fingerprint matches the 1-shard replay's. `mega` adds the
/// 10⁶-node world (about 1 GB of memory and tens of seconds).
pub fn shard_memory(seed: u64, mega: bool) -> String {
    let kind = RmsKind::Lowest;
    let mut points = vec![("10^4", ten_thousand_node_point(seed))];
    if mega {
        points.push(("10^6", million_node_point(seed)));
    }
    let rows: Vec<Vec<String>> = points
        .into_iter()
        .map(|(name, cfg)| {
            let template = SimTemplate::new(&cfg);
            let make = || kind.build_static();
            let (solo_r, solo) = template.run_sharded(cfg.enablers, make, 1, 1);
            let (r, s) = template.run_sharded(cfg.enablers, make, SHARDS, default_threads(SHARDS));
            vec![
                name.to_string(),
                cfg.nodes.to_string(),
                template.shared_world_bytes().to_string(),
                solo.hot_bytes_total.to_string(),
                s.hot_bytes_total.to_string(),
                format!(
                    "{:.3}",
                    s.hot_bytes_total as f64 / solo.hot_bytes_total as f64
                ),
                r.events_processed.to_string(),
                s.barrier_rounds.to_string(),
                if r.event_fingerprint == solo_r.event_fingerprint {
                    "match"
                } else {
                    "DIFF"
                }
                .to_string(),
            ]
        })
        .collect();
    table(
        "shard memory: LOWEST, 1-shard vs 4-shard replay of one shared world (bytes)",
        &[
            ("world", 10),
            ("nodes", 8),
            ("shared world", 12),
            ("hot solo", 11),
            ("hot 4-shard", 11),
            ("ratio", 6),
            ("events", 9),
            ("rounds", 7),
            ("fingerprint", 11),
        ],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_right_aligns_every_cell_to_its_column() {
        let rows = vec![vec!["a".to_string(), "1.500".to_string()]];
        assert_eq!(
            table("t", &[("name", 6), ("E", 7)], &rows),
            "t\n\n  name       E\n     a   1.500\n"
        );
    }
}
