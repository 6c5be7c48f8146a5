//! Rendering measured curves as the paper's tables and figure series.

use crate::runner::CaseOutput;
use gridscale_core::{CaseId, VerdictConfidence};
use gridscale_desim::json::ToJson;

/// Extracts one numeric series per model: `(name, [(k, value)])`.
pub fn series<F>(out: &CaseOutput, f: F) -> Vec<(String, Vec<(u32, f64)>)>
where
    F: Fn(&gridscale_core::CurvePoint) -> f64,
{
    out.curves
        .iter()
        .map(|c| {
            (
                c.kind.name().to_string(),
                c.points.iter().map(|p| (p.k, f(p))).collect(),
            )
        })
        .collect()
}

/// Formats per-model series as an aligned table with `k` rows.
pub fn format_series_table(
    title: &str,
    ylabel: &str,
    data: &[(String, Vec<(u32, f64)>)],
) -> String {
    let mut s = format!("## {title}\n   ({ylabel})\n\n");
    let ks: Vec<u32> = data
        .first()
        .map(|(_, pts)| pts.iter().map(|&(k, _)| k).collect())
        .unwrap_or_default();
    s.push_str(&format!("{:>4}", "k"));
    for (name, _) in data {
        s.push_str(&format!(" {name:>12}"));
    }
    s.push('\n');
    for (i, k) in ks.iter().enumerate() {
        s.push_str(&format!("{k:>4}"));
        for (_, pts) in data {
            let v = pts.get(i).map(|&(_, v)| v).unwrap_or(f64::NAN);
            s.push_str(&format!(" {v:>12.4}"));
        }
        s.push('\n');
    }
    s
}

/// Formats the per-model slope table (the paper's scalability measure).
pub fn format_slope_table(out: &CaseOutput) -> String {
    let mut s = String::from("   slopes of G(k) between consecutive scales\n\n");
    s.push_str(&format!("{:>9}", "interval"));
    for c in &out.curves {
        s.push_str(&format!(" {:>12}", c.kind.name()));
    }
    s.push('\n');
    let n = out
        .curves
        .first()
        .map(|c| c.points.len().saturating_sub(1))
        .unwrap_or(0);
    for i in 0..n {
        let (k0, k1) = {
            let pts = &out.curves[0].points;
            (pts[i].k, pts[i + 1].k)
        };
        s.push_str(&format!("{:>9}", format!("{k0}->{k1}")));
        for c in &out.curves {
            let v = c.g_slopes().get(i).copied().unwrap_or(f64::NAN);
            s.push_str(&format!(" {v:>12.1}"));
        }
        s.push('\n');
    }
    s
}

/// Formats the isoefficiency feasibility and Eq. (2) verdicts. Each
/// check renders as `k=K:Y+margin±ci`; a trailing `?` marks a *fragile*
/// verdict (the 95% CI of the margin straddles the `f(k) > c·g(k)`
/// boundary, so the boolean is within replication noise).
pub fn format_verdicts(out: &CaseOutput) -> String {
    let mut s = String::from("   Eq.(2) scalability condition f(k) > c*g(k)\n\n");
    for c in &out.curves {
        let v = c.verdict();
        let marks: Vec<String> = v
            .condition
            .iter()
            .zip(&v.margins)
            .zip(&v.margin_cis)
            .zip(&v.confidence)
            .map(|((((k, ok), (_, m)), (_, hw)), (_, conf))| {
                format!(
                    "k={k}:{}{:+.2}±{:.2}{}",
                    if *ok { "Y" } else { "N" },
                    m,
                    hw,
                    if *conf == VerdictConfidence::Fragile {
                        "?"
                    } else {
                        ""
                    }
                )
            })
            .collect();
        let feas: usize = c.points.iter().filter(|p| p.feasible).count();
        s.push_str(&format!(
            "{:<8} scalable_through={:<4} in_band={}/{} robust={}/{}  [{}]\n",
            c.kind.name(),
            v.scalable_through
                .map(|k| k.to_string())
                .unwrap_or_else(|| "-".into()),
            feas,
            c.points.len(),
            v.robust_count(),
            v.confidence.len(),
            marks.join(" ")
        ));
    }
    s
}

/// `G(k)` — Figures 2–5 depending on the case.
pub fn figure_g(out: &CaseOutput) -> String {
    let fig = match out.case {
        CaseId::NetworkSize => (
            "Figure 2",
            "Variation in G(k) on scaling the RP by number of nodes",
        ),
        CaseId::ServiceRate => (
            "Figure 3",
            "Variation in G(k) on scaling the RP by service rate",
        ),
        CaseId::Estimators => (
            "Figure 4",
            "Variation of G(k) on scaling the RMS by number of estimators",
        ),
        CaseId::Lp => ("Figure 5", "Variation in G(k) on scaling the RMS by L_p"),
        CaseId::Bandwidth => (
            "Figure 8",
            "Variation in G(k) on scaling the network by link bandwidth (extension case)",
        ),
    };
    let data = series(out, |p| p.g);
    let mut s = format_series_table(
        &format!("{} — {}", fig.0, fig.1),
        "G(k), overhead cost units",
        &data,
    );
    // Replicated measurements also carry dispersion: render the 95%
    // interval half-widths right under the means they qualify.
    if out
        .curves
        .iter()
        .any(|c| c.points.iter().any(|p| p.replications > 1))
    {
        s.push('\n');
        s.push_str(&format_series_table(
            "95% CI half-width of G(k)",
            "overhead cost units; Student-t over replications",
            &series(out, |p| p.g_ci),
        ));
    }
    s.push('\n');
    s.push_str(&format_slope_table(out));
    s.push('\n');
    s.push_str(&format_verdicts(out));
    s
}

/// Figure 6: throughput under estimator scaling (Case 3).
pub fn figure_throughput(out: &CaseOutput) -> String {
    assert_eq!(out.case, CaseId::Estimators, "Figure 6 is a Case-3 figure");
    let data = series(out, |p| p.report.throughput);
    format_series_table(
        "Figure 6 — Throughput obtained by scaling RMS by number of estimators",
        "jobs completed per tick",
        &data,
    )
}

/// Figure 7: mean response time under estimator scaling (Case 3).
pub fn figure_response(out: &CaseOutput) -> String {
    assert_eq!(out.case, CaseId::Estimators, "Figure 7 is a Case-3 figure");
    let data = series(out, |p| p.report.mean_response);
    format_series_table(
        "Figure 7 — Average response times obtained by scaling RMS by number of estimators",
        "mean response time, ticks",
        &data,
    )
}

/// Table 1: the common variables (paper values, which the simulator uses).
pub fn table1() -> String {
    let t = gridscale_gridsim::Thresholds::default();
    format!(
        "## Table 1 — Common variables used for all experiments\n\n\
         {:<12} {:<18} {}\n\
         {:<12} {:<18} Jobs with execution time <= T_CPU are LOCAL; greater are REMOTE.\n\
         {:<12} {:<18} Measurement for threshold load at a scheduler.\n\
         {:<12} {:<18} User benefit: success iff response <= u x run time, u ~ U[2,5].\n",
        "variable",
        "value",
        "meaning",
        "T_CPU",
        format!("{} time units", t.t_cpu.ticks()),
        "T_l",
        format!("{}", t.t_l),
        "U_b(jobid)",
        "u in [2,5]",
    )
}

/// Tables 2–5: the per-case scaling variables and enablers.
pub fn case_table(case: CaseId) -> String {
    let c = case.case();
    let (vars, title): (&[&str], _) = match case {
        CaseId::NetworkSize => (
            &[
                "Network size in nodes = sizeof[RMS] + sizeof[RP]",
                "Workload (jobs arriving per unit time)",
            ],
            "Table 2 — Case 1: Scaling the RP by network size (RMS grows proportionately)",
        ),
        CaseId::ServiceRate => (
            &[
                "Resource service rate (jobs executed per unit time)",
                "Workload (jobs arriving per unit time)",
            ],
            "Table 3 — Case 2: Scaling the RP by resource service rate",
        ),
        CaseId::Estimators => (
            &[
                "Number of status estimators",
                "Workload (jobs arriving per unit time)",
            ],
            "Table 4 — Case 3: Scaling the RMS by number of status estimators",
        ),
        CaseId::Lp => (
            &[
                "L_p: number of neighbor schedulers contacted for load balancing",
                "Workload (jobs arriving per unit time)",
            ],
            "Table 5 — Case 4: Scaling the RMS by L_p",
        ),
        CaseId::Bandwidth => (
            &[
                "Per-link bandwidth capacity (scaled down as 1/k)",
                "Workload (jobs arriving per unit time)",
            ],
            "Table 6 — Case 5: Scaling the network by link bandwidth (extension)",
        ),
    };
    let mut s = format!("## {title}\n\nScaling variables:\n");
    for v in vars {
        s.push_str(&format!("  - {v}\n"));
    }
    s.push_str("\nScaling enablers (tuned by simulated annealing):\n");
    let sp = &c.enabler_space;
    if !sp.update_interval.is_empty() {
        s.push_str(&format!(
            "  - Status update interval: {:?}\n",
            sp.update_interval
        ));
    }
    if !sp.neighborhood.is_empty() {
        s.push_str(&format!(
            "  - Neighborhood set size: {:?}\n",
            sp.neighborhood
        ));
    }
    if !sp.volunteer_interval.is_empty() {
        s.push_str(&format!(
            "  - Interval for resource volunteering: {:?}\n",
            sp.volunteer_interval
        ));
    }
    if !sp.link_delay_factor.is_empty() {
        s.push_str(&format!(
            "  - Network link delay factor: {:?}\n",
            sp.link_delay_factor
        ));
    }
    s
}

/// Writes a case output as pretty JSON (for archival/EXPERIMENTS.md).
pub fn to_json(out: &CaseOutput) -> String {
    out.to_json().pretty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridscale_core::{CurvePoint, ScalabilityCurve};
    use gridscale_gridsim::{Enablers, SimReport};
    use gridscale_rms::RmsKind;

    fn fake_point(k: u32, g: f64) -> CurvePoint {
        CurvePoint {
            k,
            g,
            f: 100.0 * k as f64,
            h: 1.0,
            efficiency: 0.4,
            g_ci: 0.0,
            f_ci: 0.0,
            h_ci: 0.0,
            efficiency_ci: 0.0,
            feasible: true,
            enablers: Enablers::default(),
            evaluations: 1,
            replications: 1,
            report: SimReport {
                throughput: 0.1 * k as f64,
                mean_response: 1000.0 / k as f64,
                ..SimReport::default()
            },
        }
    }

    fn fake_output(case: CaseId) -> CaseOutput {
        CaseOutput {
            case,
            curves: vec![ScalabilityCurve {
                kind: RmsKind::Central,
                case,
                e0: 0.4,
                points: vec![fake_point(1, 10.0), fake_point(2, 30.0)],
            }],
        }
    }

    #[test]
    fn series_extraction() {
        let out = fake_output(CaseId::NetworkSize);
        let s = series(&out, |p| p.g);
        assert_eq!(s[0].0, "CENTRAL");
        assert_eq!(s[0].1, vec![(1, 10.0), (2, 30.0)]);
    }

    #[test]
    fn figure_g_contains_models_and_slopes() {
        let out = fake_output(CaseId::NetworkSize);
        let fig = figure_g(&out);
        assert!(fig.contains("Figure 2"));
        assert!(fig.contains("CENTRAL"));
        assert!(fig.contains("1->2"));
        assert!(fig.contains("20.0"), "slope (30-10)/1 = 20 shown");
    }

    #[test]
    fn figure6_and_7_require_case3() {
        let out = fake_output(CaseId::Estimators);
        assert!(figure_throughput(&out).contains("Figure 6"));
        assert!(figure_response(&out).contains("Figure 7"));
    }

    #[test]
    #[should_panic]
    fn figure6_rejects_wrong_case() {
        figure_throughput(&fake_output(CaseId::NetworkSize));
    }

    #[test]
    fn tables_render() {
        let t1 = table1();
        assert!(t1.contains("T_CPU") && t1.contains("700"));
        for case in CaseId::ALL {
            let t = case_table(case);
            assert!(t.contains("Scaling variables"));
            assert!(t.contains("Status update interval"));
        }
        assert!(case_table(CaseId::Lp).contains("volunteering"));
    }

    #[test]
    fn replicated_output_renders_cis_and_confidence() {
        let mut out = fake_output(CaseId::NetworkSize);
        for p in &mut out.curves[0].points {
            p.replications = 4;
            p.g_ci = 0.5;
        }
        let fig = figure_g(&out);
        assert!(fig.contains("95% CI half-width of G(k)"));
        let v = format_verdicts(&out);
        assert!(v.contains("±"), "margins must carry their CI: {v}");
        assert!(v.contains("robust="), "verdict lines count robust checks");
        // Unreplicated output keeps the compact figure (no CI table).
        let plain = figure_g(&fake_output(CaseId::NetworkSize));
        assert!(!plain.contains("95% CI half-width"));
    }
}
