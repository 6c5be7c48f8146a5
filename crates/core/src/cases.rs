//! The four experimental scaling strategies (paper Tables 2–5) and their
//! tunable enabler spaces.

use gridscale_desim::json::{Json, ToJson};
use gridscale_gridsim::Enablers;

/// Which scaling strategy an experiment follows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CaseId {
    /// Case 1 (Table 2): scale the RP by network size; RMS grows
    /// proportionately. Figures 2.
    NetworkSize,
    /// Case 2 (Table 3): scale the RP by resource service rate at fixed
    /// network size. Figure 3.
    ServiceRate,
    /// Case 3 (Table 4): scale the RMS by number of status estimators at
    /// fixed network size. Figures 4, 6, 7.
    Estimators,
    /// Case 4 (Table 5): scale the RMS by `L_p` at fixed network size.
    /// Figure 5.
    Lp,
    /// Case 5 (extension): scale the network by link bandwidth — capacity
    /// shrinks as `1/k` at fixed network size, and the measured transfer
    /// share of `H(k)` grows with contention. Requires the bandwidth-aware
    /// transmission model.
    Bandwidth,
}

/// Written as its variant name.
impl ToJson for CaseId {
    fn to_json(&self) -> Json {
        Json::Str(format!("{self:?}"))
    }
}

impl CaseId {
    /// The paper's four cases in paper order.
    pub const ALL: [CaseId; 4] = [
        CaseId::NetworkSize,
        CaseId::ServiceRate,
        CaseId::Estimators,
        CaseId::Lp,
    ];

    /// The paper's four cases plus the bandwidth-scaling extension.
    pub const WITH_BANDWIDTH: [CaseId; 5] = [
        CaseId::NetworkSize,
        CaseId::ServiceRate,
        CaseId::Estimators,
        CaseId::Lp,
        CaseId::Bandwidth,
    ];

    /// The case number (1–4 per the paper; 5 is the extension).
    pub fn number(self) -> u32 {
        match self {
            CaseId::NetworkSize => 1,
            CaseId::ServiceRate => 2,
            CaseId::Estimators => 3,
            CaseId::Lp => 4,
            CaseId::Bandwidth => 5,
        }
    }

    /// Human-readable description matching the paper table captions.
    pub fn describe(self) -> &'static str {
        match self {
            CaseId::NetworkSize => "Scaling the RP by network size",
            CaseId::ServiceRate => "Scaling the RP by resource service rate",
            CaseId::Estimators => "Scaling the RMS by number of status estimators",
            CaseId::Lp => "Scaling the RMS by L_p",
            CaseId::Bandwidth => "Scaling the network by link bandwidth (1/k capacity)",
        }
    }

    /// The scaling case with metadata and enabler space.
    pub fn case(self) -> ScalingCase {
        ScalingCase::new(self)
    }
}

/// The discrete grid of enabler values the annealer may pick from.
///
/// Mirrors Tables 2–5: all cases tune the status-update interval and the
/// network link delay; Cases 1–3 also tune the neighborhood set size
/// (`L_p`), while Case 4 — where `L_p` is the *scaling variable* — tunes
/// the resource-volunteering interval instead.
#[derive(Debug, Clone, PartialEq)]
pub struct EnablerSpace {
    /// Allowed status-update intervals τ (ticks).
    pub update_interval: Vec<u64>,
    /// Allowed neighborhood sizes; empty = fixed (Case 4).
    pub neighborhood: Vec<usize>,
    /// Allowed link-delay multipliers.
    pub link_delay_factor: Vec<f64>,
    /// Allowed volunteering intervals (ticks); empty = fixed default.
    pub volunteer_interval: Vec<u64>,
}

impl EnablerSpace {
    /// A point in the space, as indices into each non-empty dimension.
    pub fn dims(&self) -> usize {
        4
    }

    /// Grid size along dimension `d` (1 when the dimension is fixed).
    pub fn len(&self, d: usize) -> usize {
        match d {
            0 => self.update_interval.len().max(1),
            1 => self.neighborhood.len().max(1),
            2 => self.link_delay_factor.len().max(1),
            3 => self.volunteer_interval.len().max(1),
            _ => panic!("enabler space has 4 dimensions"),
        }
    }

    /// Total number of grid points.
    pub fn cardinality(&self) -> usize {
        (0..self.dims()).map(|d| self.len(d)).product()
    }

    /// Materializes index vector `idx` into a concrete [`Enablers`],
    /// keeping `base`'s value along any fixed dimension.
    pub fn realize(&self, idx: &[usize; 4], base: &Enablers) -> Enablers {
        Enablers {
            update_interval: *self
                .update_interval
                .get(idx[0])
                .unwrap_or(&base.update_interval),
            neighborhood: *self.neighborhood.get(idx[1]).unwrap_or(&base.neighborhood),
            link_delay_factor: *self
                .link_delay_factor
                .get(idx[2])
                .unwrap_or(&base.link_delay_factor),
            volunteer_interval: *self
                .volunteer_interval
                .get(idx[3])
                .unwrap_or(&base.volunteer_interval),
        }
    }

    /// The index of the grid value closest to `base` in each dimension —
    /// the annealer's starting state.
    pub fn start_index(&self, base: &Enablers) -> [usize; 4] {
        fn nearest<T: Copy, F: Fn(T) -> f64>(grid: &[T], target: f64, f: F) -> usize {
            if grid.is_empty() {
                return 0;
            }
            grid.iter()
                .enumerate()
                .min_by(|(_, &a), (_, &b)| {
                    (f(a) - target)
                        .abs()
                        .partial_cmp(&(f(b) - target).abs())
                        .unwrap()
                })
                .map(|(i, _)| i)
                .unwrap()
        }
        [
            nearest(&self.update_interval, base.update_interval as f64, |v| {
                v as f64
            }),
            nearest(&self.neighborhood, base.neighborhood as f64, |v| v as f64),
            nearest(&self.link_delay_factor, base.link_delay_factor, |v| v),
            nearest(
                &self.volunteer_interval,
                base.volunteer_interval as f64,
                |v| v as f64,
            ),
        ]
    }
}

/// One scaling strategy: identity plus its enabler space.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingCase {
    /// Which case this is.
    pub id: CaseId,
    /// The tunable enabler grid.
    pub enabler_space: EnablerSpace,
}

impl ScalingCase {
    /// Builds the paper's enabler space for `id`.
    pub fn new(id: CaseId) -> Self {
        let update_interval = vec![50, 100, 200, 400, 800, 1600, 3200];
        let link_delay_factor = vec![0.5, 1.0, 2.0];
        let neighborhood = vec![1, 2, 3, 4, 6, 8];
        let volunteer_interval = vec![100, 200, 400, 800, 1600, 3200];
        let enabler_space = match id {
            // Tables 2–4: update interval, neighborhood size, link delay.
            CaseId::NetworkSize | CaseId::ServiceRate | CaseId::Estimators => EnablerSpace {
                update_interval,
                neighborhood,
                link_delay_factor,
                volunteer_interval: Vec::new(),
            },
            // Table 5: update interval, volunteering interval, link delay;
            // L_p is the scaling variable and not tunable.
            CaseId::Lp => EnablerSpace {
                update_interval,
                neighborhood: Vec::new(),
                link_delay_factor,
                volunteer_interval,
            },
            // Case 5: link capacity is the scaling variable; the tunables
            // mirror Tables 2–4 (the RMS can trade update traffic and
            // neighborhood reach against the shrinking bandwidth).
            CaseId::Bandwidth => EnablerSpace {
                update_interval,
                neighborhood,
                link_delay_factor,
                volunteer_interval: Vec::new(),
            },
        };
        ScalingCase { id, enabler_space }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_numbers_and_descriptions() {
        assert_eq!(CaseId::NetworkSize.number(), 1);
        assert_eq!(CaseId::Lp.number(), 4);
        assert_eq!(CaseId::Bandwidth.number(), 5);
        for c in CaseId::WITH_BANDWIDTH {
            assert!(!c.describe().is_empty());
        }
        // The paper matrix stays exactly the four published cases.
        assert_eq!(CaseId::ALL.len(), 4);
        assert!(!CaseId::ALL.contains(&CaseId::Bandwidth));
        assert_eq!(CaseId::WITH_BANDWIDTH[4], CaseId::Bandwidth);
    }

    #[test]
    fn case5_tunes_the_table2_dimensions() {
        let c = CaseId::Bandwidth.case();
        assert!(!c.enabler_space.update_interval.is_empty());
        assert!(!c.enabler_space.neighborhood.is_empty());
        assert!(c.enabler_space.volunteer_interval.is_empty());
    }

    #[test]
    fn case4_fixes_neighborhood_and_tunes_volunteering() {
        let c = CaseId::Lp.case();
        assert!(c.enabler_space.neighborhood.is_empty());
        assert!(!c.enabler_space.volunteer_interval.is_empty());
        let c1 = CaseId::NetworkSize.case();
        assert!(!c1.enabler_space.neighborhood.is_empty());
        assert!(c1.enabler_space.volunteer_interval.is_empty());
    }

    #[test]
    fn realize_respects_fixed_dimensions() {
        let c = CaseId::Lp.case();
        let base = Enablers {
            neighborhood: 5,
            ..Enablers::default()
        };
        let e = c.enabler_space.realize(&[0, 3, 0, 0], &base);
        assert_eq!(e.neighborhood, 5, "fixed dimension keeps the base value");
        assert_eq!(e.update_interval, 50);
        assert_eq!(e.volunteer_interval, 100);
    }

    #[test]
    fn cardinality_counts_grid_points() {
        let c = CaseId::NetworkSize.case();
        assert_eq!(c.enabler_space.cardinality(), 7 * 6 * 3);
        let c4 = CaseId::Lp.case();
        assert_eq!(c4.enabler_space.cardinality(), 7 * 3 * 6);
    }

    #[test]
    fn start_index_picks_nearest() {
        let c = CaseId::NetworkSize.case();
        let base = Enablers {
            update_interval: 500,
            neighborhood: 3,
            link_delay_factor: 1.0,
            volunteer_interval: 800,
        };
        let idx = c.enabler_space.start_index(&base);
        assert_eq!(c.enabler_space.update_interval[idx[0]], 400);
        assert_eq!(c.enabler_space.neighborhood[idx[1]], 3);
        assert_eq!(c.enabler_space.link_delay_factor[idx[2]], 1.0);
        // Fixed dimension defaults to index 0.
        assert_eq!(idx[3], 0);
    }

    #[test]
    fn realized_enablers_always_valid() {
        for id in CaseId::ALL {
            let c = id.case();
            let base = Enablers::default();
            for i0 in 0..c.enabler_space.len(0) {
                for i2 in 0..c.enabler_space.len(2) {
                    let e = c.enabler_space.realize(&[i0, 0, i2, 0], &base);
                    assert!(e.update_interval > 0);
                    assert!(e.link_delay_factor > 0.0);
                    assert!(e.volunteer_interval > 0);
                }
            }
        }
    }
}
