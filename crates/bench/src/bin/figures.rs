//! Regenerates the paper's tables and figures.
//!
//! ```text
//! figures <target> [--smoke|--quick|--paper] [--seed N] [--out DIR] [--chart]
//!
//! targets: table1 table2 table3 table4 table5
//!          fig2 fig3 fig4 fig5 fig6 fig7
//!          all        (every table and figure)
//!          calibrate  (default-enabler probe across models/scales)
//!          calibrate-tau
//!          ablation-topology ablation-suppression ablation-rp-overhead
//!          ablation-bandwidth
//!          shard-memory (10^4- and 10^6-node worlds; --smoke: 10^4 only)
//! ```
//!
//! Figure runs print the series the paper plots and, with `--out`, write
//! the raw measured curves as JSON for archival. The ablation and
//! shard-memory targets print deterministic tables of simulated
//! quantities (see [`gridscale_bench::ablation`]).

use gridscale_bench::runner::{run_case, RunProfile};
use gridscale_bench::{ablation, calibrate, chart, render};
use gridscale_core::{CaseId, Preset};
use gridscale_rms::RmsKind;
use std::collections::BTreeMap;
use std::process::exit;

const USAGE: &str = "usage: figures <table1..5|fig2..7|all|calibrate|calibrate-tau|ablation-topology|ablation-suppression|ablation-rp-overhead|ablation-bandwidth|shard-memory> [--smoke|--quick|--paper] [--seed N] [--out DIR] [--chart]";

/// The value after flag `args[i]`, or exit 2 when it is missing.
fn flag_value(args: &[String], i: usize) -> &str {
    args.get(i + 1).map(String::as_str).unwrap_or_else(|| {
        eprintln!("{} takes a value", args[i]);
        exit(2)
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("{USAGE}");
        exit(2);
    }
    let target = args[0].as_str();
    let mut profile = RunProfile::Quick;
    let mut seed = 0x15_0EFFu64;
    let mut out_dir: Option<String> = None;
    let mut charts = false;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => profile = RunProfile::Smoke,
            "--quick" => profile = RunProfile::Quick,
            "--paper" => profile = RunProfile::Paper,
            "--seed" => {
                let v = flag_value(&args, i);
                seed = v.parse().unwrap_or_else(|_| {
                    eprintln!("--seed: cannot parse '{v}' as an integer");
                    exit(2)
                });
                i += 1;
            }
            "--out" => {
                out_dir = Some(flag_value(&args, i).to_string());
                i += 1;
            }
            "--chart" => charts = true,
            other => {
                eprintln!("unknown flag {other}");
                exit(2);
            }
        }
        i += 1;
    }

    // Which cases does the chosen target need?
    let needed: Vec<CaseId> = match target {
        "fig2" => vec![CaseId::NetworkSize],
        "fig3" => vec![CaseId::ServiceRate],
        "fig4" | "fig6" | "fig7" => vec![CaseId::Estimators],
        "fig5" => vec![CaseId::Lp],
        "all" => CaseId::ALL.to_vec(),
        _ => vec![],
    };

    match target {
        "table1" => print!("{}", render::table1()),
        "table2" => print!("{}", render::case_table(CaseId::NetworkSize)),
        "table3" => print!("{}", render::case_table(CaseId::ServiceRate)),
        "table4" => print!("{}", render::case_table(CaseId::Estimators)),
        "table5" => print!("{}", render::case_table(CaseId::Lp)),
        "ablation-topology" => print!("{}", ablation::topology(seed)),
        "ablation-suppression" => print!("{}", ablation::suppression(seed)),
        "ablation-rp-overhead" => print!("{}", ablation::rp_overhead(seed)),
        "ablation-bandwidth" => print!("{}", ablation::bandwidth(seed)),
        "shard-memory" => print!(
            "{}",
            ablation::shard_memory(seed, profile != RunProfile::Smoke)
        ),
        "calibrate-tau" => {
            for kind in [RmsKind::Central, RmsKind::Lowest, RmsKind::Auction] {
                for k in [1u32, 6] {
                    println!("=== tau sweep: {} case1 k={k} ===", kind.name());
                    let pts =
                        calibrate::probe_tau(kind, CaseId::NetworkSize, k, Preset::Quick, seed);
                    println!(
                        "{:>6} {:>7} {:>7} {:>12} {:>9}",
                        "tau", "E", "succ", "G", "resp"
                    );
                    for (tau, p) in pts {
                        println!(
                            "{:>6} {:>7.3} {:>7.3} {:>12.0} {:>9.0}",
                            tau, p.efficiency, p.success_rate, p.g, p.mean_response
                        );
                    }
                    println!();
                }
            }
        }
        "calibrate" => {
            let preset = match profile {
                RunProfile::Paper => Preset::Paper,
                _ => Preset::Quick,
            };
            for case in CaseId::ALL {
                println!(
                    "=== calibration probe: case {} ({:?}) ===",
                    case.number(),
                    preset
                );
                let pts = calibrate::probe(case, &RmsKind::ALL, &[1, 3, 6], preset, seed);
                print!("{}", calibrate::format_table(&pts));
                println!();
            }
        }
        "fig2" | "fig3" | "fig4" | "fig5" | "fig6" | "fig7" | "all" => {
            let mut outputs = BTreeMap::new();
            for case in needed {
                eprintln!("running case {} ({:?} profile)…", case.number(), profile);
                #[expect(
                    clippy::disallowed_methods,
                    reason = "progress line on stderr; never feeds sim state"
                )]
                let t0 = std::time::Instant::now();
                let out = run_case(case, profile, seed);
                eprintln!(
                    "case {} done in {:.1}s",
                    case.number(),
                    t0.elapsed().as_secs_f64()
                );
                if let Some(dir) = &out_dir {
                    std::fs::create_dir_all(dir).expect("create out dir");
                    let path = format!("{dir}/case{}.json", out.case.number());
                    std::fs::write(&path, render::to_json(&out)).expect("write JSON");
                    eprintln!("wrote {path}");
                }
                outputs.insert(out.case, out);
            }
            let chart_for =
                |out: &gridscale_bench::runner::CaseOutput,
                 title: &str,
                 f: &dyn Fn(&gridscale_core::CurvePoint) -> f64| {
                    if charts {
                        let data = render::series(out, f);
                        println!(
                            "{}",
                            chart::render(title, &data, chart::ChartSpec::default())
                        );
                    }
                };
            let print_for = |tgt: &str| match tgt {
                "fig2" => print!("{}", render::figure_g(&outputs[&CaseId::NetworkSize])),
                "fig3" => print!("{}", render::figure_g(&outputs[&CaseId::ServiceRate])),
                "fig4" => print!("{}", render::figure_g(&outputs[&CaseId::Estimators])),
                "fig5" => print!("{}", render::figure_g(&outputs[&CaseId::Lp])),
                "fig6" => print!(
                    "{}",
                    render::figure_throughput(&outputs[&CaseId::Estimators])
                ),
                "fig7" => print!("{}", render::figure_response(&outputs[&CaseId::Estimators])),
                _ => unreachable!(),
            };
            let chart_print = |tgt: &str| match tgt {
                "fig2" => chart_for(&outputs[&CaseId::NetworkSize], "G(k), case 1", &|p| p.g),
                "fig3" => chart_for(&outputs[&CaseId::ServiceRate], "G(k), case 2", &|p| p.g),
                "fig4" => chart_for(&outputs[&CaseId::Estimators], "G(k), case 3", &|p| p.g),
                "fig5" => chart_for(&outputs[&CaseId::Lp], "G(k), case 4", &|p| p.g),
                "fig6" => chart_for(&outputs[&CaseId::Estimators], "throughput, case 3", &|p| {
                    p.report.throughput
                }),
                "fig7" => chart_for(
                    &outputs[&CaseId::Estimators],
                    "mean response, case 3",
                    &|p| p.report.mean_response,
                ),
                _ => unreachable!(),
            };
            if target == "all" {
                print!("{}", render::table1());
                println!();
                for case in CaseId::ALL {
                    print!("{}", render::case_table(case));
                    println!();
                }
                for f in ["fig2", "fig3", "fig4", "fig5", "fig6", "fig7"] {
                    print_for(f);
                    chart_print(f);
                    println!();
                }
            } else {
                print_for(target);
                chart_print(target);
            }
        }
        other => {
            eprintln!("unknown target {other}\n{USAGE}");
            exit(2);
        }
    }
}
