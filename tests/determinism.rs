//! Reproducibility guarantees across the whole stack.
//!
//! Every simulation and every measurement is a pure function of its
//! configuration and seed.

use gridscale::prelude::*;

fn cfg(seed: u64) -> GridConfig {
    GridConfig {
        nodes: 80,
        schedulers: 5,
        workload: WorkloadConfig {
            arrival_rate: 0.03,
            duration: SimTime::from_ticks(15_000),
            ..WorkloadConfig::default()
        },
        drain: SimTime::from_ticks(15_000),
        seed,
        ..GridConfig::default()
    }
}

#[test]
fn simulation_reports_identical_across_runs() {
    for kind in RmsKind::ALL {
        let mut a = kind.build();
        let mut b = kind.build();
        let ra = run_simulation(&cfg(1), a.as_mut());
        let rb = run_simulation(&cfg(1), b.as_mut());
        let ja = format!("{ra:?}");
        let jb = format!("{rb:?}");
        assert_eq!(ja, jb, "{kind}: full report must be bit-identical");
    }
}

#[test]
fn seeds_isolate_subsystems() {
    // Changing only the seed changes results; same seed on a different
    // policy still uses the same trace (job totals equal).
    let mut l1 = RmsKind::Lowest.build();
    let mut l2 = RmsKind::Reserve.build();
    let ra = run_simulation(&cfg(42), l1.as_mut());
    let rb = run_simulation(&cfg(42), l2.as_mut());
    assert_eq!(
        ra.jobs_total, rb.jobs_total,
        "same seed ⇒ same workload trace independent of policy"
    );
    let mut l3 = RmsKind::Lowest.build();
    let rc = run_simulation(&cfg(43), l3.as_mut());
    assert_ne!(
        ra.jobs_total, rc.jobs_total,
        "different seed ⇒ different trace"
    );
}

#[test]
fn measurement_curves_identical_across_processes() {
    let opts = MeasureOptions {
        ks: vec![1, 2],
        anneal: AnnealConfig {
            iterations: 5,
            ..AnnealConfig::default()
        },
        duration_override: Some(SimTime::from_ticks(8_000)),
        drain_override: Some(SimTime::from_ticks(8_000)),
        threads: 3,
        ..MeasureOptions::default()
    };
    let a = measure_rms(RmsKind::Auction, CaseId::Lp, &opts);
    let b = measure_rms(RmsKind::Auction, CaseId::Lp, &opts);
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
}

#[test]
fn topology_generation_stable_for_seed() {
    let lp = generate::LinkParams::default();
    for _ in 0..3 {
        let g1 = generate::waxman(70, 0.25, 0.35, lp, &mut SimRng::new(9).fork(1));
        let g2 = generate::waxman(70, 0.25, 0.35, lp, &mut SimRng::new(9).fork(1));
        assert_eq!(g1.link_count(), g2.link_count());
        let rt1 = RoutingTable::build(&g1);
        let rt2 = RoutingTable::build(&g2);
        for (s, t) in [(0u32, 69u32), (10, 50), (33, 34)] {
            assert_eq!(rt1.latency(s, t), rt2.latency(s, t));
            assert_eq!(rt1.path(s, t), rt2.path(s, t));
        }
    }
}
