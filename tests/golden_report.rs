//! Golden-report determinism tests.
//!
//! The zero-clone replay machinery (Arc-shared immutable world, pooled
//! per-run scratch, tree-indexed cluster views) is only admissible if it
//! is *observationally invisible*: every `SimReport` must come out
//! bit-for-bit identical to the plain clone-per-run implementation. These
//! tests pin that down against a committed fixture covering the seven
//! paper RMS models, the hierarchical extension, and the RANDOM /
//! THRESHOLD baselines at k ∈ {1, 4, 16} across 3 seeds.
//!
//! The fixture is never written by a test run: a missing file or entry
//! fails. Regenerate it explicitly (only when *intentionally* changing
//! simulation semantics or the random stream) with:
//!
//! ```text
//! cargo test --test golden_report -- --ignored regenerate
//! ```

mod edge_cases;
mod json_reader;

use edge_cases::EDGE_CASES;

use gridscale::desim::json::{Json, ToJson};
use gridscale::prelude::*;
use gridscale::workload::WorkloadConfig;
use gridscale_rms::baselines::{RandomPlacement, Threshold};
use std::collections::BTreeMap;

/// Scale factors exercised by the golden matrix.
const KS: [usize; 3] = [1, 4, 16];
/// Master seeds exercised by the golden matrix.
const SEEDS: [u64; 3] = [11, 22, 33];

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/reports.json");

/// The command that rewrites [`FIXTURE`].
const REGENERATE: &str = "cargo test --test golden_report -- --ignored regenerate";

/// One row of the golden matrix: a paper model (including the
/// hierarchical extension) or one of the classic load-sharing baselines,
/// which live outside [`RmsKind`].
#[derive(Clone, Copy)]
enum GoldenPolicy {
    Kind(RmsKind),
    Random,
    Threshold,
}

impl GoldenPolicy {
    /// The paper's seven models, the hierarchical extension, and the two
    /// Eager et al. baselines.
    const ALL: [GoldenPolicy; 10] = [
        GoldenPolicy::Kind(RmsKind::Central),
        GoldenPolicy::Kind(RmsKind::Lowest),
        GoldenPolicy::Kind(RmsKind::Reserve),
        GoldenPolicy::Kind(RmsKind::Auction),
        GoldenPolicy::Kind(RmsKind::SenderInit),
        GoldenPolicy::Kind(RmsKind::ReceiverInit),
        GoldenPolicy::Kind(RmsKind::Symmetric),
        GoldenPolicy::Kind(RmsKind::Hierarchical),
        GoldenPolicy::Random,
        GoldenPolicy::Threshold,
    ];

    fn name(self) -> &'static str {
        match self {
            GoldenPolicy::Kind(kind) => kind.name(),
            GoldenPolicy::Random => "RANDOM",
            GoldenPolicy::Threshold => "THRESHOLD",
        }
    }

    fn is_centralized(self) -> bool {
        matches!(self, GoldenPolicy::Kind(kind) if kind.is_centralized())
    }

    fn build(self) -> Box<dyn Policy> {
        match self {
            GoldenPolicy::Kind(kind) => kind.build(),
            GoldenPolicy::Random => Box::new(RandomPlacement),
            GoldenPolicy::Threshold => Box::<Threshold>::default(),
        }
    }
}

/// A small Case-1-style configuration: network size and workload both
/// scale with `k`, utilization stays ≈ 0.8 at every scale. Short horizon
/// so the full 10 × 3 × 3 matrix stays debug-test-budget friendly.
fn golden_cfg(policy: GoldenPolicy, k: usize, seed: u64) -> GridConfig {
    let nodes = 20 * k;
    GridConfig {
        nodes,
        schedulers: if policy.is_centralized() {
            1
        } else {
            (nodes / 10).max(2)
        },
        estimators: if k >= 4 { 2 } else { 0 },
        workload: WorkloadConfig {
            arrival_rate: 0.012 * k as f64,
            duration: SimTime::from_ticks(3_000),
            ..WorkloadConfig::default()
        },
        drain: SimTime::from_ticks(5_000),
        seed,
        ..GridConfig::default()
    }
}

fn entry_key(policy: GoldenPolicy, k: usize, seed: u64) -> String {
    format!("{}/k{}/s{}", policy.name(), k, seed)
}

/// Seed used for the bandwidth-enabled golden sub-matrix (policies × k at
/// one seed — the disabled default is already pinned by every other
/// entry, so one seed of contention coverage is enough).
const BW_SEED: u64 = 11;

/// `golden_cfg` with the bandwidth model enabled and capacity scarce
/// enough that flows genuinely contend.
fn golden_bw_cfg(policy: GoldenPolicy, k: usize, seed: u64) -> GridConfig {
    let mut cfg = golden_cfg(policy, k, seed);
    cfg.bandwidth.enabled = true;
    cfg.bandwidth.capacity_scale = 0.05;
    cfg.bandwidth.k_paths = 2;
    cfg
}

fn entry_key_bw(policy: GoldenPolicy, k: usize) -> String {
    format!("{}/k{}/s{}/bw", policy.name(), k, BW_SEED)
}

/// Scale factor and replication count of the replicated golden
/// sub-matrix: one point, replicated [`REP_COUNT`]× in each replication
/// mode. Replication 0 of *either* mode must be byte-identical to the
/// plain (unreplicated) run, which is what keeps every pre-replication
/// fixture entry pinning verbatim.
const REP_K: usize = 4;
const REP_COUNT: u64 = 4;

fn entry_key_rep(mode: &str, i: u64) -> String {
    format!("LOWEST/k{REP_K}/s{BW_SEED}/rep-{mode}{i}")
}

/// Runs replication `i` of the replicated sub-matrix point in the given
/// mode. `fresh` re-roots a whole new template on the forked seed
/// `fork(1000 + i)` (the measurement layer's historical per-replication
/// derivation); `shared` replays the same template with only the
/// simulation-side streams forked by `i`.
fn one_rep(mode: &str, i: u64) -> SimReport {
    let cfg = golden_cfg(GoldenPolicy::Kind(RmsKind::Lowest), REP_K, BW_SEED);
    let template = SimTemplate::new(&cfg);
    let mut p = RmsKind::Lowest.build();
    match mode {
        "fresh" => {
            let replica = if i == 0 {
                template
            } else {
                template.fresh_replica(SimRng::new(cfg.seed).fork(1000 + i).seed())
            };
            replica.run(cfg.enablers, p.as_mut())
        }
        _ => template.run_replicate(cfg.enablers, p.as_mut(), i),
    }
}

/// Both replication modes of the replicated sub-matrix.
const REP_MODES: [&str; 2] = ["fresh", "shared"];

/// Runs one bandwidth-enabled matrix entry through the one-shot path.
fn one_shot_bw(policy: GoldenPolicy, k: usize) -> SimReport {
    let cfg = golden_bw_cfg(policy, k, BW_SEED);
    let mut p = policy.build();
    run_simulation(&cfg, p.as_mut())
}

/// Policies of the edge-case sub-matrix: LOWEST spreads resources over
/// many cluster lanes, CENTRAL puts them all on one.
const EDGE_POLICIES: [RmsKind; 2] = [RmsKind::Lowest, RmsKind::Central];

/// Scale factor of the edge-case sub-matrix (seed [`BW_SEED`]).
const EDGE_K: usize = 4;

fn entry_key_edge(kind: RmsKind, edge: &str) -> String {
    format!("{}/k{EDGE_K}/s{BW_SEED}/{edge}", kind.name())
}

/// `golden_cfg` at the edge-case point with `edit` applied.
fn golden_edge_cfg(kind: RmsKind, edit: fn(&mut GridConfig)) -> GridConfig {
    let mut cfg = golden_cfg(GoldenPolicy::Kind(kind), EDGE_K, BW_SEED);
    edit(&mut cfg);
    cfg
}

/// A report as a fixture entry records it: its JSON read back from the
/// written text (so it compares with a loaded entry exactly as the text
/// would), fields in key order.
fn report_value(r: &SimReport) -> Json {
    let mut v = json_reader::parse(&r.to_json().pretty());
    if let Json::Object(fields) = &mut v {
        fields.sort_by(|a, b| a.0.cmp(&b.0));
    }
    v
}

/// The value of `key` in a fixture entry or report (`None` when missing).
fn field<'a>(v: &'a Json, key: &str) -> Option<&'a Json> {
    match v {
        Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// Runs one matrix entry through the one-shot path.
fn one_shot(policy: GoldenPolicy, k: usize, seed: u64) -> SimReport {
    let cfg = golden_cfg(policy, k, seed);
    let mut p = policy.build();
    run_simulation(&cfg, p.as_mut())
}

/// Runs the full policy × k × seed matrix through the one-shot path.
fn generate_fixture() -> BTreeMap<String, Json> {
    let mut out = BTreeMap::new();
    for policy in GoldenPolicy::ALL {
        for k in KS {
            for seed in SEEDS {
                let r = one_shot(policy, k, seed);
                out.insert(entry_key(policy, k, seed), report_value(&r));
            }
            let r = one_shot_bw(policy, k);
            out.insert(entry_key_bw(policy, k), report_value(&r));
        }
    }
    for mode in REP_MODES {
        for i in 0..REP_COUNT {
            out.insert(entry_key_rep(mode, i), report_value(&one_rep(mode, i)));
        }
    }
    for kind in EDGE_POLICIES {
        for (edge, edit) in EDGE_CASES {
            let r = run_simulation(&golden_edge_cfg(kind, edit), kind.build().as_mut());
            out.insert(entry_key_edge(kind, edge), report_value(&r));
        }
    }
    out
}

/// Loads the committed fixture once for all tests.
fn load_fixture() -> &'static BTreeMap<String, Json> {
    static FIX: std::sync::OnceLock<BTreeMap<String, Json>> = std::sync::OnceLock::new();
    FIX.get_or_init(|| {
        let text = std::fs::read_to_string(FIXTURE).unwrap_or_else(|e| {
            panic!("cannot read {FIXTURE} ({e}); generate it with `{REGENERATE}`")
        });
        match json_reader::parse(&text) {
            Json::Object(entries) => entries.into_iter().collect(),
            _ => panic!("golden fixture is an object"),
        }
    })
}

/// Asserts every field recorded in the fixture is bit-identical in `got`.
/// Fields *added* to `SimReport` after the fixture was generated are
/// allowed (they extend the report; they must not perturb it).
fn assert_matches_fixture(key: &str, got: &Json, fixture: &BTreeMap<String, Json>) {
    let want = fixture
        .get(key)
        .unwrap_or_else(|| panic!("fixture has no entry {key}; regenerate with `{REGENERATE}`"));
    let Json::Object(want) = want else {
        panic!("fixture entries are objects");
    };
    for (name, expected) in want {
        let actual = field(got, name).unwrap_or_else(|| panic!("{key}: report lost field {name}"));
        assert_eq!(
            actual, expected,
            "{key}: field {name} drifted from the pre-refactor golden value"
        );
    }
}

/// Regenerates the committed fixture from the one-shot simulation path.
#[test]
#[ignore = "writes tests/golden/reports.json; run explicitly"]
fn regenerate() {
    let out = generate_fixture();
    std::fs::create_dir_all(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden")).unwrap();
    // One object keyed by entry, in key order.
    std::fs::write(FIXTURE, Json::Object(out.into_iter().collect()).pretty()).unwrap();
}

/// Every fixture entry pins a nonzero event-stream fingerprint, so
/// fingerprint drift in *any* golden configuration fails the matching
/// tests with a field-level message instead of a silent pass.
#[test]
fn fixture_pins_event_fingerprint_for_every_entry() {
    let fixture = load_fixture();
    for policy in GoldenPolicy::ALL {
        for k in KS {
            for seed in SEEDS {
                let key = entry_key(policy, k, seed);
                let entry = fixture.get(&key).unwrap_or_else(|| {
                    panic!("fixture has no entry {key}; regenerate with `{REGENERATE}`")
                });
                let Some(&Json::U64(fp)) = field(entry, "event_fingerprint") else {
                    panic!("{key}: fixture lacks event_fingerprint");
                };
                assert_ne!(fp, 0, "{key}: fingerprint must be nonzero");
            }
        }
    }
}

/// The one-shot path (`run_simulation`) reproduces the pre-refactor
/// reports bit-for-bit across the full 10-policy × k × seed matrix —
/// the seven paper models, HIER, RANDOM, and THRESHOLD.
#[test]
fn one_shot_reports_match_golden_fixture() {
    let fixture = load_fixture();
    for policy in GoldenPolicy::ALL {
        for k in KS {
            for seed in SEEDS {
                let r = one_shot(policy, k, seed);
                assert_matches_fixture(&entry_key(policy, k, seed), &report_value(&r), fixture);
            }
        }
    }
}

/// The bandwidth-enabled sub-matrix reproduces its golden entries
/// bit-for-bit, and the flow machinery engages exactly where the model
/// says it must. Only cross-cluster messages become flows, so a world
/// with one cluster domain (the centralized policy's single scheduler)
/// admits none; at k ≥ 4 every multi-cluster world has estimators and
/// cross-cluster traffic, so flows must exist — a contention model that
/// silently disengaged would pin vacuous values.
#[test]
fn bandwidth_enabled_reports_match_golden_fixture() {
    let fixture = load_fixture();
    for policy in GoldenPolicy::ALL {
        for k in KS {
            let r = one_shot_bw(policy, k);
            let key = entry_key_bw(policy, k);
            let clusters = SimTemplate::new(&golden_bw_cfg(policy, k, BW_SEED)).cluster_count();
            assert_eq!(
                clusters == 1,
                policy.is_centralized(),
                "{key}: {clusters} cluster domains"
            );
            if clusters == 1 {
                assert_eq!(r.net_flows, 0, "{key}: a one-cluster world admitted flows");
            } else if k >= 4 {
                assert!(r.net_flows > 0, "{key}: bandwidth model never engaged");
            }
            assert_matches_fixture(&key, &report_value(&r), fixture);
        }
    }
}

/// The sharded executor reproduces the bandwidth-enabled golden entries
/// bit-for-bit: flow books are per sending lane, so contention resolution
/// partitions exactly like the middleware queues.
#[test]
fn sharded_execution_matches_bandwidth_golden_fixture() {
    let fixture = load_fixture();
    for kind in RmsKind::EXTENDED {
        for k in KS {
            let cfg = golden_bw_cfg(GoldenPolicy::Kind(kind), k, BW_SEED);
            let template = SimTemplate::new(&cfg);
            let (r, _) = template.run_sharded(cfg.enablers, || kind.build_static(), 4, 4);
            assert_matches_fixture(
                &entry_key_bw(GoldenPolicy::Kind(kind), k),
                &report_value(&r),
                fixture,
            );
        }
    }
}

/// Replaying through one shared `SimTemplate` — including a run at
/// *different* enabler settings in between, which dirties every pooled
/// scratch structure — still produces byte-identical reports,
/// and those reports match the golden fixture.
#[test]
fn template_replay_is_bit_identical_to_one_shot() {
    let fixture = load_fixture();
    let seed = SEEDS[0];
    for policy in GoldenPolicy::ALL {
        for k in KS {
            let cfg = golden_cfg(policy, k, seed);
            let template = SimTemplate::new(&cfg);

            let mut p1 = policy.build();
            let first = template.run(cfg.enablers, p1.as_mut());

            // Dirty the recycled state with a deliberately different point.
            let perturbed = Enablers {
                update_interval: cfg.enablers.update_interval / 2,
                neighborhood: cfg.enablers.neighborhood + 1,
                ..cfg.enablers
            };
            let mut p2 = policy.build();
            let _ = template.run(perturbed, p2.as_mut());

            let mut p3 = policy.build();
            let replay = template.run(cfg.enablers, p3.as_mut());

            let key = entry_key(policy, k, seed);
            assert_eq!(
                format!("{first:?}"),
                format!("{replay:?}"),
                "{key}: pooled replay drifted from the first template run"
            );
            assert_matches_fixture(&key, &report_value(&first), fixture);
        }
    }
}

/// The event-queue discipline is pure mechanism: forcing the reference
/// binary heap (`set_queue_discipline(QueueDiscipline::Heap)`) produces
/// the same golden reports bit-for-bit as the adaptive ladder, while the
/// template's aggregated queue telemetry records which tier ran.
#[test]
fn heap_discipline_matches_golden_fixture() {
    let fixture = load_fixture();
    let seed = SEEDS[2];
    for policy in GoldenPolicy::ALL {
        for k in KS {
            let cfg = golden_cfg(policy, k, seed);
            let template = SimTemplate::new(&cfg);
            template.set_queue_discipline(QueueDiscipline::Heap);
            let mut p = policy.build();
            let r = template.run(cfg.enablers, p.as_mut());
            assert_matches_fixture(&entry_key(policy, k, seed), &report_value(&r), fixture);
            let stats = template.replay_stats();
            assert_eq!(
                stats.queue.ladder_runs, 0,
                "forced heap discipline must keep the ladder disengaged"
            );
            assert_eq!(stats.queue.heap_runs, 1);
        }
    }
}

/// The sharded parallel executor reproduces the golden entries bit-for-
/// bit: partitioning the lane space across 4 shards (clamped to the
/// cluster count where smaller) and running them on worker threads under
/// conservative-lookahead barriers is pure mechanism, exactly like the
/// queue discipline.
#[test]
fn sharded_execution_matches_golden_fixture() {
    let fixture = load_fixture();
    let seed = SEEDS[0];
    for kind in RmsKind::EXTENDED {
        for k in KS {
            let cfg = golden_cfg(GoldenPolicy::Kind(kind), k, seed);
            let template = SimTemplate::new(&cfg);
            let (r, summary) = template.run_sharded(cfg.enablers, || kind.build_static(), 4, 4);
            let key = entry_key(GoldenPolicy::Kind(kind), k, seed);
            assert_matches_fixture(&key, &report_value(&r), fixture);
            assert_eq!(
                summary.events_per_shard.iter().sum::<u64>(),
                r.events_processed,
                "{key}: shard event counts must sum to the total"
            );
        }
    }
}

/// The replicated sub-matrix pins every replication of both modes, and
/// replication 0 of both modes reproduces the pre-replication golden
/// entry byte-for-byte — `replications: 1` measurements are untouched by
/// the replication machinery.
#[test]
fn replicated_runs_match_golden_fixture_and_rep0_pins_the_plain_entry() {
    let fixture = load_fixture();
    let plain_key = entry_key(GoldenPolicy::Kind(RmsKind::Lowest), REP_K, BW_SEED);
    for mode in REP_MODES {
        for i in 0..REP_COUNT {
            let r = one_rep(mode, i);
            assert_matches_fixture(&entry_key_rep(mode, i), &report_value(&r), fixture);
        }
        // Replication 0 is the plain run: it must match the golden entry
        // recorded *before* replication modes existed.
        let r0 = one_rep(mode, 0);
        assert_matches_fixture(&plain_key, &report_value(&r0), fixture);
        let plain = one_shot(GoldenPolicy::Kind(RmsKind::Lowest), REP_K, BW_SEED);
        assert_eq!(
            format!("{r0:?}"),
            format!("{plain:?}"),
            "{mode}: replication 0 must be byte-identical to the unreplicated run"
        );
    }
    // Distinct replications genuinely sample different event histories.
    for mode in REP_MODES {
        let fp0 = one_rep(mode, 0).event_fingerprint;
        let fp1 = one_rep(mode, 1).event_fingerprint;
        assert_ne!(fp0, fp1, "{mode}: replications must not repeat history");
    }
}

/// The statically dispatched [`RmsPolicy`] enum (`RmsKind::build_static`)
/// is behaviourally indistinguishable from the boxed trait object: the
/// same golden entries come out bit-for-bit under enum dispatch.
#[test]
fn enum_dispatch_matches_golden_fixture() {
    let fixture = load_fixture();
    let seed = SEEDS[1];
    for kind in RmsKind::EXTENDED {
        for k in KS {
            let cfg = golden_cfg(GoldenPolicy::Kind(kind), k, seed);
            let mut policy = kind.build_static();
            let r = run_simulation(&cfg, &mut policy);
            assert_matches_fixture(
                &entry_key(GoldenPolicy::Kind(kind), k, seed),
                &report_value(&r),
                fixture,
            );
        }
    }
}

/// The edge-case sub-matrix — every tick sending, none sending, a tick
/// every tick, τ past the horizon, a DAG, each on many cluster lanes and
/// on one — reproduces its golden entries bit for bit, and each edge
/// really is where it claims to be.
#[test]
fn edge_case_reports_match_golden_fixture() {
    let fixture = load_fixture();
    for kind in EDGE_POLICIES {
        for (edge, edit) in EDGE_CASES {
            let cfg = golden_edge_cfg(kind, edit);
            let r = run_simulation(&cfg, kind.build().as_mut());
            let key = entry_key_edge(kind, edge);
            match edge {
                "suppress0" => assert_eq!(r.updates_suppressed, 0, "{key}"),
                "suppress1e9" => assert_eq!(r.updates_sent, 0, "{key}"),
                "dag" => assert!(r.dag_deferred > 0, "{key}: the DAG must defer jobs"),
                _ => {}
            }
            assert!(
                r.updates_sent + r.updates_suppressed > 0,
                "{key}: no tick fired"
            );
            assert_matches_fixture(&key, &report_value(&r), fixture);
        }
    }
}
