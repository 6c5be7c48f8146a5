//! The `gridscale` command-line interface.
//!
//! ```text
//! gridscale run     --model LOWEST [--nodes 170] [--schedulers 8] [--rate 0.08]
//!                   [--duration 60000] [--seed 7] [--estimators 0] [--dag 0]
//!                   [--json]
//! gridscale measure --model LOWEST --case 1 [--quick|--paper] [--kmax 6]
//!                   [--iters 40] [--seed 7] [--threads 0] [--batch 4]
//!                   [--shards 1|auto] [--no-warm] [--bw [0.05]] [--bw-paths 2]
//!                   [--replications 1] [--rep-mode fresh|shared]
//!                   [--bench-out BENCH_tuning.json] [--json]
//! gridscale trace   [--rate 0.05] [--duration 20000] [--points 1] [--seed 7] [--swf]
//! gridscale topo    --kind ba|waxman|ts [--nodes 300] [--seed 7]
//! gridscale models
//! ```
//!
//! `run` simulates one configuration; `measure` executes the paper's full
//! four-step scalability procedure — `--replications N` replicates every
//! tuned point N× (`--rep-mode shared` replays one pooled world with
//! per-replication RNG streams; `fresh`, the default, rebuilds a world
//! per replicate) and reports 95% confidence intervals on every curve
//! value and verdict margin, writing per-point tuning telemetry to
//! `BENCH_tuning.json`; `trace` generates (optionally SWF) workloads;
//! `topo` generates a topology and prints its structural metrics; `models`
//! lists the RMS models.
//!
//! Each subcommand accepts only the flags listed above: any other
//! `--flag` exits with status 2 instead of running with a default.
//! Timing lives in the `perfbench` package; the deterministic ablation
//! and shard-memory tables in `figures` (crate `gridscale-bench`).

use gridscale::desim::json::ToJson;
use gridscale::prelude::*;
use std::collections::BTreeMap;
use std::process::exit;

/// The flags each subcommand reads.
const RUN_FLAGS: &[&str] = &[
    "model",
    "nodes",
    "schedulers",
    "rate",
    "duration",
    "seed",
    "estimators",
    "dag",
    "json",
];
const MEASURE_FLAGS: &[&str] = &[
    "model",
    "case",
    "quick",
    "paper",
    "kmax",
    "iters",
    "seed",
    "threads",
    "batch",
    "shards",
    "no-warm",
    "bw",
    "bw-paths",
    "replications",
    "rep-mode",
    "bench-out",
    "json",
];
const TRACE_FLAGS: &[&str] = &["rate", "duration", "points", "seed", "swf"];
const TOPO_FLAGS: &[&str] = &["kind", "nodes", "seed"];

/// Parses `--key [value]` pairs, exiting with status 2 on a positional
/// argument or on a key `cmd` does not read (a typo such as `--thread`
/// must not silently run with the default).
fn parse_flags(cmd: &str, args: &[String], accepted: &[&str]) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if let Some(key) = a.strip_prefix("--") {
            if !accepted.contains(&key) {
                eprintln!("unknown flag --{key} for {cmd}");
                exit(2);
            }
            let val = args
                .get(i + 1)
                .filter(|v| !v.starts_with("--"))
                .cloned()
                .unwrap_or_else(|| "true".to_string());
            if val != "true" {
                i += 1;
            }
            out.insert(key.to_string(), val);
        } else {
            eprintln!("unexpected argument: {a}");
            exit(2);
        }
        i += 1;
    }
    out
}

fn get<T: std::str::FromStr>(flags: &BTreeMap<String, String>, key: &str, default: T) -> T {
    match flags.get(key) {
        None => default,
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("--{key}: cannot parse '{v}'");
            exit(2);
        }),
    }
}

/// Parses `--shards`: a positive count, or `auto` → the `0` sentinel
/// [`MeasureOptions::shards`] understands as "pick shards and workers
/// from the topology and the host core count".
fn shards_flag(flags: &BTreeMap<String, String>) -> usize {
    match flags.get("shards").map(String::as_str) {
        Some("auto") => 0,
        _ => get(flags, "shards", 1usize).max(1),
    }
}

/// Parses `--bw`: bare (default capacity scale 0.05) or an explicit
/// scale, with `--bw-paths` picking the virtual-link fan-out. `None` when
/// absent — each scaling case then keeps its own bandwidth default. An
/// invalid scale (zero, negative, NaN, infinite) exits with status 2.
fn bw_flag(flags: &BTreeMap<String, String>) -> Option<BandwidthConfig> {
    let v = flags.get("bw")?;
    let capacity_scale = if v == "true" {
        0.05
    } else {
        v.parse().unwrap_or_else(|_| {
            eprintln!("--bw: cannot parse '{v}' as a capacity scale");
            exit(2);
        })
    };
    let bw = BandwidthConfig {
        enabled: true,
        capacity_scale,
        k_paths: get(flags, "bw-paths", 2usize).max(1),
    };
    if let Err(e) = bw.validate() {
        eprintln!("--bw {v}: {e}");
        exit(2);
    }
    Some(bw)
}

fn model_of(flags: &BTreeMap<String, String>) -> RmsKind {
    let name = flags.get("model").map(String::as_str).unwrap_or("LOWEST");
    RmsKind::from_name(name).unwrap_or_else(|| {
        eprintln!("unknown model '{name}'; try `gridscale models`");
        exit(2);
    })
}

fn cmd_models() {
    println!("paper models:");
    for k in RmsKind::ALL {
        println!(
            "  {:<8} {}",
            k.name(),
            if k.uses_middleware() {
                "(middleware family)"
            } else if k.is_centralized() {
                "(centralized)"
            } else {
                ""
            }
        );
    }
    println!("extensions:\n  HIER     (two-level scheduler hierarchy)");
}

fn cmd_run(flags: BTreeMap<String, String>) {
    let kind = model_of(&flags);
    let nodes = get(&flags, "nodes", 170usize);
    let schedulers = get(
        &flags,
        "schedulers",
        if kind.is_centralized() {
            1
        } else {
            (nodes / 16).max(2)
        },
    );
    let cfg = GridConfig {
        nodes,
        schedulers,
        estimators: get(&flags, "estimators", 0usize),
        workload: WorkloadConfig {
            arrival_rate: get(&flags, "rate", 0.08),
            duration: SimTime::from_ticks(get(&flags, "duration", 60_000u64)),
            ..WorkloadConfig::default()
        },
        seed: get(&flags, "seed", 7u64),
        dag_edge_prob: get(&flags, "dag", 0.0),
        ..GridConfig::default()
    };
    if let Err(e) = cfg.validate() {
        eprintln!("invalid configuration: {e}");
        exit(2);
    }
    let mut policy = kind.build();
    let r = run_simulation(&cfg, policy.as_mut());
    if flags.contains_key("json") {
        println!("{}", r.to_json().pretty());
        return;
    }
    println!("{} on {} nodes / {} clusters", r.policy, nodes, schedulers);
    println!(
        "jobs {} | completed {} | success {:.1}% | resp {:.0} (p95 {:.0})",
        r.jobs_total,
        r.completed,
        100.0 * r.success_rate(),
        r.mean_response,
        r.p95_response
    );
    println!(
        "F {:.3e} | G {:.3e} | H {:.3e} | E {:.3} | bottleneck {:.1}%",
        r.f_work,
        r.g_overhead,
        r.h_overhead,
        r.efficiency,
        100.0 * r.bottleneck_utilization()
    );
}

fn cmd_measure(flags: BTreeMap<String, String>) {
    let kind = model_of(&flags);
    let case = match get(&flags, "case", 1u32) {
        1 => CaseId::NetworkSize,
        2 => CaseId::ServiceRate,
        3 => CaseId::Estimators,
        4 => CaseId::Lp,
        5 => CaseId::Bandwidth,
        other => {
            eprintln!("--case must be 1..5, got {other}");
            exit(2);
        }
    };
    let preset = if flags.contains_key("paper") {
        Preset::Paper
    } else {
        Preset::Quick
    };
    let kmax = get(&flags, "kmax", 6u32).max(1);
    let replication_mode = match flags.get("rep-mode").map(String::as_str) {
        None | Some("fresh") => ReplicationMode::FreshWorld,
        Some("shared") => ReplicationMode::SharedWorld,
        Some(other) => {
            eprintln!("--rep-mode must be fresh|shared, got {other}");
            exit(2);
        }
    };
    let opts = MeasureOptions {
        ks: (1..=kmax).collect(),
        preset,
        anneal: AnnealConfig {
            iterations: get(&flags, "iters", 40usize),
            ..AnnealConfig::default()
        },
        seed: get(&flags, "seed", 0x15_0EFFu64),
        replications: get(&flags, "replications", 1usize).max(1),
        replication_mode,
        threads: get(&flags, "threads", 0usize),
        shards: shards_flag(&flags),
        batch: get(&flags, "batch", 4usize).max(1),
        warm_start: !flags.contains_key("no-warm"),
        bandwidth: bw_flag(&flags),
        ..MeasureOptions::default()
    };
    let (curve, bench) = measure_rms_with_bench(kind, case, &opts);
    let bench_path = flags
        .get("bench-out")
        .cloned()
        .unwrap_or_else(|| "BENCH_tuning.json".to_string());
    match std::fs::write(&bench_path, bench.to_json().pretty()) {
        Ok(()) => eprintln!(
            "tuning bench → {bench_path}: {} points, {} simulations, {:.0} ms total",
            bench.points.len(),
            bench.total_evaluations(),
            bench.total_wall_ms()
        ),
        Err(e) => eprintln!("cannot write {bench_path}: {e}"),
    }
    if flags.contains_key("json") {
        println!("{}", curve.to_json().pretty());
        return;
    }
    println!(
        "{} — case {} ({:?}), E0 = {:.3}",
        kind.name(),
        case.number(),
        preset,
        curve.e0
    );
    if opts.replications > 1 {
        println!(
            "{:>3} {:>12} {:>10} {:>8} {:>8} {:>7} {:>8} {:>5}",
            "k", "G(k)", "±95%", "g(k)", "f(k)", "E", "±95%", "band"
        );
        for (p, n) in curve.points.iter().zip(curve.normalized()) {
            println!(
                "{:>3} {:>12.4e} {:>10.2e} {:>8.2} {:>8.2} {:>7.3} {:>8.1e} {:>5}",
                p.k,
                p.g,
                p.g_ci,
                n.g,
                n.f,
                p.efficiency,
                p.efficiency_ci,
                if p.feasible { "in" } else { "OUT" }
            );
        }
    } else {
        println!(
            "{:>3} {:>12} {:>8} {:>8} {:>7} {:>5}",
            "k", "G(k)", "g(k)", "f(k)", "E", "band"
        );
        for (p, n) in curve.points.iter().zip(curve.normalized()) {
            println!(
                "{:>3} {:>12.4e} {:>8.2} {:>8.2} {:>7.3} {:>5}",
                p.k,
                p.g,
                n.g,
                n.f,
                p.efficiency,
                if p.feasible { "in" } else { "OUT" }
            );
        }
    }
    let v = curve.verdict();
    // `?` marks a fragile check: the margin's 95% CI straddles the
    // Eq. (2) boundary, so the boolean is within replication noise.
    println!(
        "Eq.(2) margins: {:?}",
        v.margins
            .iter()
            .zip(&v.margin_cis)
            .zip(&v.confidence)
            .map(|(((k, m), (_, hw)), (_, c))| format!(
                "k={k}:{m:+.2}±{hw:.2}{}",
                if *c == VerdictConfidence::Fragile {
                    "?"
                } else {
                    ""
                }
            ))
            .collect::<Vec<_>>()
    );
    println!(
        "scalable through k = {}",
        v.scalable_through
            .map(|k| k.to_string())
            .unwrap_or_else(|| "-".into())
    );
}

fn cmd_trace(flags: BTreeMap<String, String>) {
    let cfg = WorkloadConfig {
        arrival_rate: get(&flags, "rate", 0.05),
        duration: SimTime::from_ticks(get(&flags, "duration", 20_000u64)),
        submit_points: get(&flags, "points", 1u32),
        ..WorkloadConfig::default()
    };
    let mut rng = SimRng::new(get(&flags, "seed", 7u64));
    let trace = gridscale::workload::generate(&cfg, &mut rng);
    if flags.contains_key("swf") {
        print!("{}", gridscale::workload::to_swf(&trace, 1.0));
        return;
    }
    let s = trace.summary(SimTime::from_ticks(700));
    println!(
        "{} jobs | {} LOCAL / {} REMOTE | mean demand {:.0} ticks | span {}",
        s.count, s.local, s.remote, s.mean_demand, s.span
    );
}

fn cmd_topo(flags: BTreeMap<String, String>) {
    let nodes = get(&flags, "nodes", 300usize);
    let mut rng = SimRng::new(get(&flags, "seed", 7u64));
    let lp = generate::LinkParams::default();
    let kind = flags.get("kind").map(String::as_str).unwrap_or("ba");
    let g = match kind {
        "ba" => generate::barabasi_albert(nodes, 2, lp, &mut rng),
        "waxman" => generate::waxman(nodes, 0.25, 0.4, lp, &mut rng),
        "ts" => {
            // Same shape ratios the simulator uses: ~10% transit, stubs of 8.
            let transits = (nodes / 64).max(1);
            let spt = ((nodes.saturating_sub(transits * 4)) / (transits * 8)).max(1);
            generate::transit_stub(transits, 4, spt, 8, lp, &mut rng)
        }
        other => {
            eprintln!("--kind must be ba|waxman|ts, got {other}");
            exit(2);
        }
    };
    let m = gridscale::topology::metrics::analyze(&g, None);
    println!("{}", m.to_json().pretty());
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("usage: gridscale <run|measure|trace|topo|models> [flags]");
        exit(2);
    }
    let cmd = args.remove(0);
    match cmd.as_str() {
        "run" => cmd_run(parse_flags(&cmd, &args, RUN_FLAGS)),
        "measure" => cmd_measure(parse_flags(&cmd, &args, MEASURE_FLAGS)),
        "trace" => cmd_trace(parse_flags(&cmd, &args, TRACE_FLAGS)),
        "topo" => cmd_topo(parse_flags(&cmd, &args, TOPO_FLAGS)),
        "models" => {
            parse_flags(&cmd, &args, &[]);
            cmd_models()
        }
        other => {
            eprintln!("unknown command {other}");
            exit(2);
        }
    }
}
