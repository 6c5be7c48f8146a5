//! Sensitivity of scalability verdicts to the overhead cost model.
//!
//! The paper does not publish its per-operation cost constants, so ours
//! are re-derived (DESIGN.md §2.1). This module answers the obvious
//! referee question — *do the conclusions survive if those constants are
//! wrong by 2×?* — by re-running a (reduced) measurement with each cost
//! parameter perturbed and comparing the Eq. (2) verdicts.

use crate::cases::CaseId;
use crate::measure::{measure_rms, MeasureOptions};
use gridscale_gridsim::OverheadCosts;
use gridscale_rms::RmsKind;

/// The perturbable parameters of [`OverheadCosts`].
pub const PARAMETERS: [&str; 8] = [
    "recv_job",
    "decision_base",
    "decision_per_candidate",
    "update",
    "batch_fixed",
    "policy_msg",
    "dispatch",
    "timer_check",
];

/// Returns `base` with one named parameter multiplied by `factor`.
/// Panics on an unknown parameter name.
pub fn perturb(base: &OverheadCosts, parameter: &str, factor: f64) -> OverheadCosts {
    let mut c = *base;
    match parameter {
        "recv_job" => c.recv_job *= factor,
        "decision_base" => c.decision_base *= factor,
        "decision_per_candidate" => c.decision_per_candidate *= factor,
        "update" => c.update *= factor,
        "batch_fixed" => c.batch_fixed *= factor,
        "batch_per_item" => c.batch_per_item *= factor,
        "policy_msg" => c.policy_msg *= factor,
        "dispatch" => c.dispatch *= factor,
        "timer_check" => c.timer_check *= factor,
        "rp_job_control" => c.rp_job_control *= factor,
        other => panic!("unknown cost parameter '{other}'"),
    }
    c
}

/// One sensitivity observation.
#[derive(Debug, Clone)]
pub struct SensitivityRow {
    /// Perturbed parameter (`"baseline"` for the unperturbed run).
    pub parameter: String,
    /// Multiplier applied.
    pub factor: f64,
    /// Eq. (2) `scalable_through` under the perturbation.
    pub scalable_through: Option<u32>,
    /// Worst (most negative) Eq. (2) margin across scales.
    pub worst_margin: f64,
    /// `G(k_max)/G(k_0)` growth under the perturbation.
    pub g_growth: f64,
}

/// Runs the sensitivity sweep: baseline plus every `(parameter, factor)`
/// combination, in that order. Each row is a full (typically
/// reduced-size) measurement of `(kind, case)` on its own pool of
/// `base_opts.threads` workers.
pub fn cost_sensitivity(
    kind: RmsKind,
    case: CaseId,
    base_opts: &MeasureOptions,
    factors: &[f64],
) -> Vec<SensitivityRow> {
    let mut jobs: Vec<(String, f64, MeasureOptions)> =
        vec![("baseline".to_string(), 1.0, base_opts.clone())];
    let base_costs = base_opts.cost_override.unwrap_or_default();
    for &p in PARAMETERS.iter() {
        for &f in factors {
            let mut opts = base_opts.clone();
            opts.cost_override = Some(perturb(&base_costs, p, f));
            jobs.push((p.to_string(), f, opts));
        }
    }
    jobs.iter()
        .map(|(name, factor, opts)| {
            let curve = measure_rms(kind, case, opts);
            let v = curve.verdict();
            let worst = v
                .margins
                .iter()
                .map(|&(_, m)| m)
                .fold(f64::INFINITY, f64::min);
            let g0 = curve.points.first().map(|p| p.g).unwrap_or(1.0);
            let gn = curve.points.last().map(|p| p.g).unwrap_or(1.0);
            SensitivityRow {
                parameter: name.clone(),
                factor: *factor,
                scalable_through: v.scalable_through,
                worst_margin: if worst.is_finite() { worst } else { 0.0 },
                g_growth: gn / g0.max(1e-12),
            }
        })
        .collect()
}

/// Fraction of perturbed rows whose `scalable_through` verdict equals the
/// baseline's — a one-number robustness summary.
pub fn verdict_stability(rows: &[SensitivityRow]) -> f64 {
    let Some(base) = rows.iter().find(|r| r.parameter == "baseline") else {
        return 0.0;
    };
    let perturbed: Vec<&SensitivityRow> =
        rows.iter().filter(|r| r.parameter != "baseline").collect();
    if perturbed.is_empty() {
        return 1.0;
    }
    perturbed
        .iter()
        .filter(|r| r.scalable_through == base.scalable_through)
        .count() as f64
        / perturbed.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anneal::AnnealConfig;
    use gridscale_desim::SimTime;

    #[test]
    fn perturb_touches_exactly_one_field() {
        let base = OverheadCosts::default();
        let p = perturb(&base, "update", 2.0);
        assert_eq!(p.update, base.update * 2.0);
        assert_eq!(p.recv_job, base.recv_job);
        assert_eq!(p.policy_msg, base.policy_msg);
        for name in PARAMETERS {
            let _ = perturb(&base, name, 0.5); // all names resolve
        }
    }

    #[test]
    #[should_panic]
    fn unknown_parameter_panics() {
        perturb(&OverheadCosts::default(), "nonsense", 2.0);
    }

    #[test]
    fn sensitivity_sweep_runs_and_summarizes() {
        let opts = MeasureOptions {
            ks: vec![1, 2],
            anneal: AnnealConfig {
                iterations: 3,
                ..AnnealConfig::default()
            },
            duration_override: Some(SimTime::from_ticks(6_000)),
            drain_override: Some(SimTime::from_ticks(6_000)),
            threads: 2,
            ..MeasureOptions::default()
        };
        let rows = cost_sensitivity(RmsKind::Central, CaseId::NetworkSize, &opts, &[2.0]);
        // baseline + 8 parameters × 1 factor.
        assert_eq!(rows.len(), 1 + PARAMETERS.len());
        assert!(rows.iter().any(|r| r.parameter == "baseline"));
        for r in &rows {
            assert!(r.g_growth > 0.0, "{}: growth {}", r.parameter, r.g_growth);
        }
        let stability = verdict_stability(&rows);
        assert!((0.0..=1.0).contains(&stability));
    }

    #[test]
    fn stability_of_empty_and_missing_baseline() {
        assert_eq!(verdict_stability(&[]), 0.0);
        let only_base = vec![SensitivityRow {
            parameter: "baseline".into(),
            factor: 1.0,
            scalable_through: Some(2),
            worst_margin: 0.1,
            g_growth: 2.0,
        }];
        assert_eq!(verdict_stability(&only_base), 1.0);
    }
}
