//! The four-step scalability measurement procedure (paper §3.2, Fig. 1).
//!
//! 1. **Choose** a feasible target efficiency `E0` to hold constant.
//! 2. **Scale** the RMS or the RP along the case's scaling variables.
//! 3. **Tune** the scaling enablers with simulated annealing so the
//!    overall efficiency stays at `E0` while `G(k)` is minimized.
//! 4. **Compute** the scalability of the RMS from the slope of `G(k)`.
//!
//! Step 3 — where every energy evaluation is a full Grid simulation — is
//! the hot path of the whole repository. A measurement runs on one
//! [`TaskPool`] of [`MeasureOptions::threads`] workers. Every
//! `(model, case)` feeds it a chain of ascending-`k` waves, world build →
//! anneal → replications, in which each anneal warm-starts from the best
//! enabler setting of the nearest smaller `k` and waits for nothing else.
//! Each annealing round's speculative evaluations
//! ([`crate::anneal::BatchSearch`]) take the pool at full width ahead of
//! everything else; replications and the next wave's world build fill the
//! slots the chain leaves idle.

use crate::anneal::{AnnealConfig, BatchSearch};
use crate::cases::{CaseId, EnablerSpace};
use crate::efficiency::{slopes, IsoefficiencyModel, NormalizedPoint};
use crate::scenario::{config_for, Preset};
use crate::stats::rep_stats;
use crate::sweep::{default_threads, TaskPool};
use gridscale_desim::json::{Json, ToJson};
use gridscale_desim::{json_object, SimRng, SimTime};
use gridscale_gridsim::{Enablers, GridConfig, SimReport, SimTemplate};
use gridscale_rms::RmsKind;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError, RwLock};
use std::time::Instant;

/// How the target efficiency `E0` of Step 1 is chosen.
///
/// The paper's derivation defines isoefficiency as `E(k) = E(k0)` — hold
/// the *base system's own* efficiency while scaling — and reports that its
/// experiments kept `E(k0) ∈ [0.38, 0.42]` (a property of its particular
/// overhead cost accounting). [`E0Mode::AutoBase`] follows the definition
/// directly: each `(model, case)` measures its base configuration at
/// default enablers and holds that value. [`E0Mode::Fixed`] reproduces the
/// fixed-band variant with a configurable target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum E0Mode {
    /// Use [`MeasureOptions::e0`] for every model.
    Fixed,
    /// `E0 = E(k0)` measured per model at default enablers (the paper's
    /// definition; the default).
    AutoBase,
}

/// How the extra replications of a tuned point derive their worlds.
///
/// Replication exists to put error bars on the annealed measurement:
/// rerun the winning enabler setting under perturbed randomness and
/// report mean ± CI instead of a single draw. The two modes differ in
/// *which* RNG streams the perturbation reaches:
///
/// * [`ReplicationMode::FreshWorld`] re-roots **every** stream — each
///   replication builds its own topology, trace, and layout from a
///   forked seed (`SimTemplate::fresh_replica`; the historical behavior
///   and the back-compat default). Replication cost includes a full
///   world rebuild per replicate.
/// * [`ReplicationMode::SharedWorld`] re-roots only the **per-run
///   simulation streams** (arrival lane draws, update/flush staggers,
///   policy randomness — RNG stream 3) and replays the one `Arc`-shared
///   world through the pooled zero-clone template
///   (`SimTemplate::run_replicate`), so a replication costs one replay,
///   not a rebuild — and measures sampling noise at *fixed* topology
///   and workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplicationMode {
    /// Each replication rebuilds its world from a forked seed (default).
    #[default]
    FreshWorld,
    /// All replications replay one shared world; only the simulation-side
    /// RNG streams fork per replication.
    SharedWorld,
}

/// Options controlling one measurement run.
#[derive(Debug, Clone)]
pub struct MeasureOptions {
    /// How `E0` is chosen (Step 1).
    pub e0_mode: E0Mode,
    /// Target efficiency when `e0_mode` is [`E0Mode::Fixed`] (paper band
    /// center: 0.40).
    pub e0: f64,
    /// Half-width of the isoefficiency band around `E0`.
    pub tolerance: f64,
    /// Scale factors to measure (the paper plots `k = 1..6`).
    pub ks: Vec<u32>,
    /// Experiment sizing preset.
    pub preset: Preset,
    /// Annealing hyper-parameters (Step 3).
    pub anneal: AnnealConfig,
    /// Speculative proposals evaluated concurrently per annealing round
    /// (`1` = the classic sequential Metropolis chain).
    pub batch: usize,
    /// Seed each point's anneal from the best enabler setting of the
    /// nearest smaller `k` (cross-scale warm start). The warm seed rides
    /// alongside the canonical start, so it can only improve the search.
    pub warm_start: bool,
    /// Master seed; every `(model, case, k)` point derives its own stream.
    pub seed: u64,
    /// Worker threads for the sweep (`0` = auto).
    pub threads: usize,
    /// Event-space partitions for every simulation replay (`1` = the
    /// sequential executor, `0` = auto: pick the widest-lookahead plan
    /// from the topology and the host core count). Sharded replay is
    /// bit-identical to the sequential one, so this is purely a
    /// wall-clock knob for large grids: each replay runs its shards on
    /// up to `shards` worker threads with conservative barrier
    /// synchronization.
    pub shards: usize,
    /// Optional override of the arrival window (smoke tests).
    pub duration_override: Option<SimTime>,
    /// Optional override of the drain window (smoke tests).
    pub drain_override: Option<SimTime>,
    /// Independent replications of the final (tuned) measurement; the
    /// reported `F/G/H/E` are means over replicates with distinct
    /// topology/workload seeds. Annealing itself always runs on the first
    /// replicate. Must be ≥ 1.
    pub replications: usize,
    /// Whether extra replications rebuild their worlds from forked seeds
    /// or replay the shared world with forked simulation streams (see
    /// [`ReplicationMode`]).
    pub replication_mode: ReplicationMode,
    /// Overrides the overhead cost model (sensitivity analysis); `None`
    /// uses the calibrated defaults.
    pub cost_override: Option<gridscale_gridsim::OverheadCosts>,
    /// Overrides the transmission model for every point (`--bw`): with a
    /// [`gridscale_gridsim::BandwidthConfig`] whose `enabled` is set, data
    /// movement contends for link capacity and the measured transfer busy
    /// time lands in `H(k)` — re-deriving Case 4's `H` from measurement
    /// instead of the job-control constant. `None` keeps each case's own
    /// default (legacy for Cases 1–4, capacity `1/k` for Case 5).
    pub bandwidth: Option<gridscale_gridsim::BandwidthConfig>,
}

impl Default for MeasureOptions {
    fn default() -> Self {
        MeasureOptions {
            e0_mode: E0Mode::AutoBase,
            e0: 0.40,
            tolerance: 0.02,
            ks: (1..=6).collect(),
            preset: Preset::Quick,
            anneal: AnnealConfig::default(),
            batch: 4,
            warm_start: true,
            seed: 0x15_0EFF,
            threads: 0,
            shards: 1,
            duration_override: None,
            drain_override: None,
            replications: 1,
            replication_mode: ReplicationMode::default(),
            cost_override: None,
            bandwidth: None,
        }
    }
}

/// One measured point of a scalability curve.
#[derive(Debug, Clone)]
pub struct CurvePoint {
    /// Scale factor.
    pub k: u32,
    /// Minimum-cost RMS overhead `G(k)` found by the tuner.
    pub g: f64,
    /// Useful work `F(k)` at that setting.
    pub f: f64,
    /// RP overhead `H(k)`.
    pub h: f64,
    /// Achieved efficiency.
    pub efficiency: f64,
    /// Whether the efficiency landed inside the isoefficiency band.
    pub feasible: bool,
    /// The enabler setting the annealer chose.
    pub enablers: Enablers,
    /// Distinct enabler settings the annealer simulated.
    pub evaluations: usize,
    /// Number of replications averaged into `g/f/h/efficiency`.
    pub replications: usize,
    /// 95% Student-t confidence half-width of `g` over the replications
    /// (0 when `replications == 1` — one sample has no dispersion
    /// estimate).
    pub g_ci: f64,
    /// 95% confidence half-width of `f` (same convention as `g_ci`).
    pub f_ci: f64,
    /// 95% confidence half-width of `h` (same convention as `g_ci`).
    pub h_ci: f64,
    /// 95% confidence half-width of the per-replication efficiency
    /// samples (`efficiency` itself stays the efficiency of the mean
    /// `f/g/h`, not the mean of per-replication efficiencies).
    pub efficiency_ci: f64,
    /// The full report of the first replicate at the chosen setting.
    pub report: SimReport,
}

impl ToJson for CurvePoint {
    fn to_json(&self) -> Json {
        json_object!(self;
            k, g, f, h, efficiency, feasible, enablers, evaluations, replications,
            g_ci, f_ci, h_ci, efficiency_ci, report)
    }
}

/// Tuning-cost telemetry for one `(model, case, k)` point — the raw
/// material of `BENCH_tuning.json`.
#[derive(Debug, Clone)]
pub struct PointBench {
    /// The RMS model tuned.
    pub kind: RmsKind,
    /// The scaling case.
    pub case: CaseId,
    /// Scale factor.
    pub k: u32,
    /// Milliseconds the point's tasks ran on the measurement's pool:
    /// its world build, every annealing evaluation and every replication.
    /// Tasks of different points overlap in real time, so this is the
    /// point's share of the pool's busy time, not a stretch of the
    /// measurement's wall time.
    pub wall_ms: f64,
    /// Distinct enabler settings simulated by the search.
    pub evaluations: usize,
    /// Sequential evaluation rounds the search needed (each round runs up
    /// to [`MeasureOptions::batch`] simulations concurrently).
    pub rounds: usize,
    /// The candidate budget the search was given
    /// ([`AnnealConfig::iterations`]).
    pub iterations_budget: usize,
    /// Whether this point was warm-started from a smaller `k`.
    pub warm_started: bool,
    /// Best (penalized) energy found.
    pub best_energy: f64,
    /// Milliseconds the replications beyond the first ran, summed over
    /// their tasks (0 when `replications == 1`); part of `wall_ms`.
    pub rep_wall_ms: f64,
    /// Worlds built for this point: 1 for the tuning template plus one
    /// per `FreshWorld` replication. `SharedWorld` replications replay
    /// the tuning template, keeping this at 1.
    pub templates_built: u64,
}

impl ToJson for PointBench {
    fn to_json(&self) -> Json {
        json_object!(self;
            kind, case, k, wall_ms, evaluations, rounds, iterations_budget,
            warm_started, best_energy, rep_wall_ms, templates_built)
    }
}

/// Tuning telemetry for a whole measurement run.
#[derive(Debug, Clone, Default)]
pub struct TuningBench {
    /// One entry per tuned `(model, case, k)` point, in fold order:
    /// ascending `k`, models in input order within each `k` — whatever
    /// order the pool ran their tasks in.
    pub points: Vec<PointBench>,
}

impl ToJson for TuningBench {
    fn to_json(&self) -> Json {
        json_object!(self; points)
    }
}

impl TuningBench {
    /// Total task milliseconds across all points (sum of per-point
    /// `wall_ms`: the pool's busy time, not the measurement's wall time).
    pub fn total_wall_ms(&self) -> f64 {
        self.points.iter().map(|p| p.wall_ms).sum()
    }

    /// Total distinct simulations run by the tuner.
    pub fn total_evaluations(&self) -> usize {
        self.points.iter().map(|p| p.evaluations).sum()
    }
}

/// How much a verdict's boolean should be trusted, given the measured
/// replication spread at that scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerdictConfidence {
    /// The 95% CI of the margin `f(k) − c·g(k)` is clear of zero: the
    /// Eq. (2) boolean would survive resampling. Single-replication
    /// measurements land here degenerately (their CI half-width is 0 —
    /// no spread estimate, not evidence of robustness).
    Robust,
    /// The margin's CI straddles the `f(k) > c·g(k)` boundary: the
    /// boolean is within replication noise and could flip.
    Fragile,
}

/// Scalability verdict per the paper's Eq. (2) condition.
#[derive(Debug, Clone)]
pub struct ScalabilityVerdict {
    /// Eq. (2) check `f(k) > c·g(k)` at each measured `k > k0`.
    pub condition: Vec<(u32, bool)>,
    /// The margin `f(k) − c·g(k)` behind each check, in normalized units
    /// (one unit = the base system's useful work). Values near zero mean
    /// the boolean is within measurement noise.
    pub margins: Vec<(u32, f64)>,
    /// 95% confidence half-width of each margin, in the same normalized
    /// units, from the replication CIs of the point (conservative
    /// first-order propagation `f_ci/W + c·g_ci/O_RMS`, treating the
    /// base point as the fixed anchor the curve is normalized against).
    /// All zeros when `replications == 1`.
    pub margin_cis: Vec<(u32, f64)>,
    /// Per-check confidence: [`VerdictConfidence::Fragile`] whenever
    /// `|margin| ≤ margin_ci` (the CI straddles the Eq. (2) boundary).
    pub confidence: Vec<(u32, VerdictConfidence)>,
    /// Largest `k` such that the condition holds at every scale `≤ k`
    /// (`None` if it fails immediately after base).
    pub scalable_through: Option<u32>,
}

impl ScalabilityVerdict {
    /// Number of checks whose boolean is robust under the measured
    /// replication spread (see [`VerdictConfidence`]).
    pub fn robust_count(&self) -> usize {
        self.confidence
            .iter()
            .filter(|(_, c)| *c == VerdictConfidence::Robust)
            .count()
    }
}

/// The measured `G(k)` curve for one `(model, case)` pair, with the
/// derived isoefficiency quantities.
#[derive(Debug, Clone)]
pub struct ScalabilityCurve {
    /// The RMS model measured.
    pub kind: RmsKind,
    /// The scaling strategy followed.
    pub case: CaseId,
    /// Target efficiency used.
    pub e0: f64,
    /// Points in ascending `k`.
    pub points: Vec<CurvePoint>,
}

impl ToJson for ScalabilityCurve {
    fn to_json(&self) -> Json {
        json_object!(self; kind, case, e0, points)
    }
}

impl ScalabilityCurve {
    /// `(k, G(k))` pairs.
    pub fn g_curve(&self) -> Vec<(f64, f64)> {
        self.points.iter().map(|p| (p.k as f64, p.g)).collect()
    }

    /// Discrete slopes of `G(k)` — the paper's scalability measure.
    pub fn g_slopes(&self) -> Vec<f64> {
        slopes(&self.g_curve())
    }

    /// Normalized `f/g/h` against the first (base) point.
    pub fn normalized(&self) -> Vec<NormalizedPoint> {
        let Some(_base) = self.points.first() else {
            return Vec::new();
        };
        let model = self.model();
        self.points
            .iter()
            .map(|p| model.normalize(p.k as f64, p.f, p.g, p.h))
            .collect()
    }

    /// The isoefficiency model anchored at this curve's base point.
    pub fn model(&self) -> IsoefficiencyModel {
        let base = self.points.first().expect("curve has a base point");
        IsoefficiencyModel::new(self.e0, base.f.max(1e-9), base.g.max(1e-9), base.h)
    }

    /// Eq. (2) verdict over the curve.
    pub fn verdict(&self) -> ScalabilityVerdict {
        let model = self.model();
        let norm = self.normalized();
        let condition: Vec<(u32, bool)> = norm
            .iter()
            .skip(1)
            .map(|p| (p.k as u32, model.condition_holds(p)))
            .collect();
        let margins: Vec<(u32, f64)> = norm
            .iter()
            .skip(1)
            .map(|p| (p.k as u32, p.f - model.c() * p.g))
            .collect();
        // Margin uncertainty in the same normalized units: conservative
        // first-order propagation of the replication CIs through
        // `f/W − c·g/O_RMS` (half-widths add; the base point is the
        // fixed normalization anchor). Zero at replications == 1.
        let margin_cis: Vec<(u32, f64)> = self
            .points
            .iter()
            .skip(1)
            .map(|p| {
                let g_norm_ci = if model.o_rms > 0.0 {
                    p.g_ci / model.o_rms
                } else {
                    0.0
                };
                (p.k, p.f_ci / model.w + model.c() * g_norm_ci)
            })
            .collect();
        let confidence: Vec<(u32, VerdictConfidence)> = margins
            .iter()
            .zip(&margin_cis)
            .map(|(&(k, m), &(_, hw))| {
                let c = if m.abs() > hw {
                    VerdictConfidence::Robust
                } else {
                    VerdictConfidence::Fragile
                };
                (k, c)
            })
            .collect();
        let mut through = None;
        for &(k, ok) in &condition {
            if ok {
                through = Some(k);
            } else {
                break;
            }
        }
        ScalabilityVerdict {
            condition,
            margins,
            margin_cis,
            confidence,
            scalable_through: through,
        }
    }
}

/// Derives a per-point seed from the master seed and the point identity.
fn point_seed(master: u64, kind: RmsKind, case: CaseId, k: u32) -> u64 {
    let tag = (kind as u64) << 40 | (case.number() as u64) << 32 | k as u64;
    SimRng::new(master).fork(tag).seed()
}

/// Builds the (override-applied) configuration for one point.
fn point_config(kind: RmsKind, case: CaseId, k: u32, opts: &MeasureOptions) -> GridConfig {
    let seed = point_seed(opts.seed, kind, case, k);
    let mut cfg = config_for(kind, case, k, opts.preset, seed);
    if let Some(d) = opts.duration_override {
        cfg.workload.duration = d;
    }
    if let Some(d) = opts.drain_override {
        cfg.drain = d;
    }
    if let Some(costs) = opts.cost_override {
        cfg.costs = costs;
    }
    if let Some(bw) = opts.bandwidth {
        cfg.bandwidth = bw;
    }
    cfg
}

/// Replication `rep` of `template`'s simulation under `enablers` on the
/// shared world (rep 0 is the plain replay), on the shard plan
/// [`MeasureOptions::shards`] selects with one worker per shard (0 =
/// auto: the planner's shards, one worker per core). Every plan is
/// fingerprint-identical to the 1-shard one, so the choice can never
/// change a measurement — only its wall-clock cost.
fn replay(
    template: &SimTemplate,
    enablers: Enablers,
    kind: RmsKind,
    opts: &MeasureOptions,
    rep: u64,
) -> SimReport {
    let make = || kind.build_static();
    template
        .run_sharded_replicate(enablers, make, opts.shards, opts.shards, rep)
        .0
}

/// Step 1: resolve the target efficiency `E0` for `(kind, case)`.
///
/// In [`E0Mode::AutoBase`] this measures the base configuration (smallest
/// `k` in `opts.ks`) at default enablers — the deployment-time operating
/// point whose efficiency the scaled system must maintain.
pub fn resolve_e0(kind: RmsKind, case: CaseId, opts: &MeasureOptions) -> f64 {
    match opts.e0_mode {
        E0Mode::Fixed => opts.e0,
        E0Mode::AutoBase => {
            let k0 = *opts.ks.iter().min().expect("ks nonempty");
            let cfg = point_config(kind, case, k0, opts);
            base_efficiency(&SimTemplate::new(&cfg), &cfg, kind, opts)
        }
    }
}

/// The efficiency of `template`'s world at its configuration's (default)
/// enablers, clamped to a reachable target — the `E0` of
/// [`E0Mode::AutoBase`].
fn base_efficiency(
    template: &SimTemplate,
    cfg: &GridConfig,
    kind: RmsKind,
    opts: &MeasureOptions,
) -> f64 {
    let r = replay(template, cfg.enablers, kind, opts, 0);
    r.efficiency.clamp(0.05, 0.95)
}

/// The annealed half of one tuned point: the search outcome its
/// replications replay and the fold reads.
struct Annealed {
    enablers: Enablers,
    report: SimReport,
    evaluations: usize,
    rounds: usize,
    best_energy: f64,
    warm_started: bool,
}

/// One extra replication's raw outcome (replication index ≥ 1; index 0 is
/// the annealer's own memoized measurement).
struct RepOutcome {
    g: f64,
    f: f64,
    h: f64,
    wall_ms: f64,
    built_template: bool,
}

/// The annealing energy of a measured setting: its `G(k)`, inflated
/// multiplicatively when the measured efficiency leaves the
/// `E0 ± tolerance` band — so feasible settings always dominate
/// infeasible ones of similar overhead, while infeasible ones still rank
/// by violation (needed when the band is unreachable, e.g. a saturated
/// CENTRAL at large `k`).
fn energy(report: &SimReport, e0: f64, opts: &MeasureOptions) -> f64 {
    let violation = ((report.efficiency - e0).abs() - opts.tolerance).max(0.0);
    report.g_overhead.max(1e-9) * (1.0 + 25.0 * violation / opts.tolerance)
}

/// The annealer's move: step ±1 along one tunable dimension of `space`.
fn neighbor(space: &EnablerSpace, idx: &[usize; 4], rng: &mut SimRng) -> [usize; 4] {
    let mut out = *idx;
    let tunable: Vec<usize> = (0..4).filter(|&d| space.len(d) > 1).collect();
    if tunable.is_empty() {
        return out;
    }
    let d = tunable[rng.index(tunable.len())];
    let len = space.len(d);
    let cur = out[d];
    out[d] = if cur == 0 {
        1
    } else if cur + 1 >= len {
        cur - 1
    } else if rng.chance(0.5) {
        cur + 1
    } else {
        cur - 1
    };
    out
}

/// Step 3b: replication `rep` (1-based; 0 is the annealer's own
/// measurement) of a point's winning `enablers` on its `world`.
///
/// * [`ReplicationMode::FreshWorld`] re-roots a *new* template on the
///   historical per-replication seed `fork(1000 + rep)` — every stream
///   (topology, trace, simulation) differs, and the values match the
///   pre-replication-mode sequential loop byte for byte.
/// * [`ReplicationMode::SharedWorld`] replays the *same* `Arc`'d world
///   and pooled hot state with only the simulation-side streams forked by
///   `rep` — zero clones, zero rebuilds; sampling dispatch noise at a
///   fixed topology and trace.
fn run_replication(
    world: &SimTemplate,
    seed: u64,
    enablers: Enablers,
    kind: RmsKind,
    opts: &MeasureOptions,
    rep: usize,
) -> RepOutcome {
    #[expect(
        clippy::disallowed_methods,
        reason = "rep_wall_ms telemetry only; never feeds sim state"
    )]
    let started = Instant::now();
    let (r, built_template) = match opts.replication_mode {
        ReplicationMode::FreshWorld => {
            let rep_seed = SimRng::new(seed).fork(1000 + rep as u64).seed();
            let rep_template = world.fresh_replica(rep_seed);
            (replay(&rep_template, enablers, kind, opts, 0), true)
        }
        ReplicationMode::SharedWorld => (replay(world, enablers, kind, opts, rep as u64), false),
    };
    RepOutcome {
        g: r.g_overhead,
        f: r.f_work,
        h: r.h_overhead,
        wall_ms: started.elapsed().as_secs_f64() * 1e3,
        built_template,
    }
}

/// Step 3c: fold a finished point — its anneal and its replications in
/// ascending replication order (the order is part of the deterministic
/// contract) — into the measured [`CurvePoint`] and its telemetry.
///
/// Means are folded exactly as the historical sequential loop did
/// (`0.0 + x == x` in IEEE 754, so summing from zero over
/// `[report, rep1, rep2, …]` is bit-identical to the old
/// `report + rep1 + …` accumulation), which is what keeps existing
/// `replications: 1` and `FreshWorld` results byte-stable.
fn finish_point(
    kind: RmsKind,
    case: CaseId,
    e0: f64,
    wave: Wave,
    opts: &MeasureOptions,
) -> (CurvePoint, PointBench) {
    let ap = wave.annealed.into_inner().expect("every point annealed");
    let reps: Vec<RepOutcome> = wave
        .reps
        .into_iter()
        .map(|r| r.into_inner().expect("every replication ran"))
        .collect();
    let k = wave.k;
    let gs: Vec<f64> = std::iter::once(ap.report.g_overhead)
        .chain(reps.iter().map(|r| r.g))
        .collect();
    let fs: Vec<f64> = std::iter::once(ap.report.f_work)
        .chain(reps.iter().map(|r| r.f))
        .collect();
    let hs: Vec<f64> = std::iter::once(ap.report.h_overhead)
        .chain(reps.iter().map(|r| r.h))
        .collect();
    let (gstat, fstat, hstat) = (rep_stats(&gs), rep_stats(&fs), rep_stats(&hs));
    let (g, f, h) = (gstat.mean, fstat.mean, hstat.mean);
    // The headline efficiency stays the efficiency *of the means* (what
    // the isoefficiency fit consumes); its CI comes from the per-
    // replication efficiencies, which is the dispersion a reader wants.
    let efficiency = crate::efficiency::IsoefficiencyModel::efficiency(f, g, h);
    let eff_samples: Vec<f64> = gs
        .iter()
        .zip(&fs)
        .zip(&hs)
        .map(|((&gi, &fi), &hi)| crate::efficiency::IsoefficiencyModel::efficiency(fi, gi, hi))
        .collect();
    let estat = rep_stats(&eff_samples);
    let feasible = (efficiency - e0).abs() <= opts.tolerance;
    let rep_wall_ms: f64 = reps.iter().map(|r| r.wall_ms).sum();
    let templates_built = 1 + reps.iter().filter(|r| r.built_template).count() as u64;
    let bench = PointBench {
        kind,
        case,
        k,
        wall_ms: wave.busy_ns.into_inner() as f64 * 1e-6,
        rep_wall_ms,
        templates_built,
        evaluations: ap.evaluations,
        rounds: ap.rounds,
        iterations_budget: opts.anneal.iterations,
        warm_started: ap.warm_started,
        best_energy: ap.best_energy,
    };
    let point = CurvePoint {
        k,
        g,
        f,
        h,
        efficiency,
        g_ci: gstat.ci_half,
        f_ci: fstat.ci_half,
        h_ci: hstat.ci_half,
        efficiency_ci: estat.ci_half,
        feasible,
        enablers: ap.enablers,
        evaluations: ap.evaluations,
        replications: opts.replications,
        report: ap.report,
    };
    (point, bench)
}

/// Task priorities of a measurement's pool, most urgent first: the
/// annealing chain (search starts and energy evaluations), then world
/// builds — each is the input of a coming anneal — then replications,
/// older waves first so their worlds are released early.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Rank {
    Anneal,
    Build(usize),
    Rep(usize),
}

type Pool<'s> = TaskPool<'s, Rank>;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One measurement's shared state, borrowed by every task of its pool:
/// per model, a chain of waves in ascending `k`. Locks nest in one order
/// only — a wave's search, then its chain's state, then a world slot or
/// the evaluation memo — and no task waits on another task while holding
/// one: a world is taken out for release only once no task reads it.
struct Sweep<'o> {
    kinds: &'o [RmsKind],
    case: CaseId,
    space: EnablerSpace,
    opts: &'o MeasureOptions,
    chains: Vec<Chain>,
}

/// One model's chain — per wave build(k) → anneal(k) → rep(k, 1..R) —
/// with its scheduling state under one lock.
struct Chain {
    state: Mutex<ChainState>,
    waves: Vec<Wave>,
}

/// Where a chain stands. The counters only grow; `reps_left` only
/// shrinks.
struct ChainState {
    /// The target efficiency, once Step 1 has resolved it.
    e0: Option<f64>,
    /// World builds spawned and finished (they finish in wave order).
    builds_spawned: usize,
    built: usize,
    /// Anneals started and finished (each starts after the last one
    /// finished).
    started: usize,
    finished: usize,
    /// Extra replications still to run, per wave.
    reps_left: Vec<usize>,
    /// The best enabler index of the last finished anneal, when warm
    /// starts are on.
    warm: Option<[usize; 4]>,
}

/// One `(model, k)` point while its tasks run.
struct Wave {
    k: u32,
    cfg: GridConfig,
    seed: u64,
    /// The world, from its build until its last replication has run.
    /// Replays share it through read guards.
    world: RwLock<Option<SimTemplate>>,
    /// The search while the point anneals.
    search: Mutex<Option<Search>>,
    /// Every evaluation's full report, so the winner's measurement is a
    /// lookup, not a re-simulation.
    reports: Mutex<BTreeMap<[usize; 4], SimReport>>,
    annealed: OnceLock<Annealed>,
    reps: Vec<OnceLock<RepOutcome>>,
    /// Nanoseconds the point's tasks ran.
    busy_ns: AtomicU64,
}

impl Wave {
    /// Runs `f` on the built world.
    fn with_world<R>(&self, f: impl FnOnce(&SimTemplate) -> R) -> R {
        let world = self.world.read().unwrap_or_else(PoisonError::into_inner);
        f(world.as_ref().expect("world built"))
    }

    /// Stores the built world.
    fn set_world(&self, world: SimTemplate) {
        *self.world.write().unwrap_or_else(PoisonError::into_inner) = Some(world);
    }

    /// Takes wave `wi`'s world out of this (its) slot once nothing will
    /// replay it again — its anneal and replications are done — so the
    /// chain may build another; the caller drops it outside the chain
    /// lock.
    fn release_if_done(&self, wi: usize, st: &ChainState) -> Option<SimTemplate> {
        (st.finished > wi && st.reps_left[wi] == 0)
            .then(|| {
                self.world
                    .write()
                    .unwrap_or_else(PoisonError::into_inner)
                    .take()
            })
            .flatten()
    }

    /// Runs `f`, charging its wall time to this point.
    fn timed<R>(&self, f: impl FnOnce() -> R) -> R {
        #[expect(
            clippy::disallowed_methods,
            reason = "wall_ms telemetry only; never feeds sim state"
        )]
        let started = Instant::now();
        let r = f();
        let ns = started.elapsed().as_nanos() as u64;
        self.busy_ns.fetch_add(ns, Ordering::Relaxed);
        r
    }
}

/// An anneal in flight: the search and the energies of the round being
/// evaluated (by position in the round).
struct Search {
    anneal: BatchSearch<[usize; 4]>,
    e0: f64,
    warm_started: bool,
    energies: Vec<f64>,
    outstanding: usize,
}

impl<'o> Sweep<'o> {
    /// Every model's chain over `ks` (ascending); `e0` fixes the target
    /// of every model, `None` leaves it to Step 1.
    fn new(
        kinds: &'o [RmsKind],
        case: CaseId,
        ks: &[u32],
        e0: Option<f64>,
        opts: &'o MeasureOptions,
    ) -> Self {
        assert!(opts.replications >= 1, "need at least one replication");
        let chains = kinds
            .iter()
            .map(|&kind| Chain {
                state: Mutex::new(ChainState {
                    e0,
                    builds_spawned: 0,
                    built: 0,
                    started: 0,
                    finished: 0,
                    reps_left: vec![opts.replications - 1; ks.len()],
                    warm: None,
                }),
                waves: ks
                    .iter()
                    .map(|&k| Wave {
                        k,
                        cfg: point_config(kind, case, k, opts),
                        seed: point_seed(opts.seed, kind, case, k),
                        world: RwLock::new(None),
                        search: Mutex::new(None),
                        reports: Mutex::new(BTreeMap::new()),
                        annealed: OnceLock::new(),
                        reps: (1..opts.replications).map(|_| OnceLock::new()).collect(),
                        busy_ns: AtomicU64::new(0),
                    })
                    .collect(),
            })
            .collect();
        Sweep {
            kinds,
            case,
            space: case.case().enabler_space,
            opts,
            chains,
        }
    }

    /// Starts every chain at its first world build.
    fn seed<'s>(&'s self, pool: &Pool<'s>) {
        for (mi, chain) in self.chains.iter().enumerate() {
            self.advance(mi, &mut lock(&chain.state), pool);
        }
    }

    /// Spawns whatever chain `mi` has made ready: the next anneal once its
    /// world is built, the previous anneal has finished and `E0` is known;
    /// the next world build once the anneal before it has started and the
    /// wave two back has released its world — so a chain holds at most two
    /// worlds.
    fn advance<'s>(&'s self, mi: usize, st: &mut ChainState, pool: &Pool<'s>) {
        if let Some(e0) = st.e0 {
            if st.started == st.finished && st.started < st.built {
                let (wi, warm) = (st.started, st.warm);
                st.started += 1;
                pool.spawn(Rank::Anneal, move |p| {
                    self.start_anneal(mi, wi, e0, warm, p)
                });
            }
        }
        let b = st.builds_spawned;
        if b < st.reps_left.len() && b <= st.started && (b < 2 || st.reps_left[b - 2] == 0) {
            st.builds_spawned += 1;
            pool.spawn(Rank::Build(b), move |p| self.build(mi, b, p));
        }
    }

    /// Builds wave `wi`'s world. Without a fixed target, the first
    /// wave's build is Step 1 of [`E0Mode::AutoBase`] as well: its world is
    /// the base configuration, whose efficiency becomes `E0`.
    fn build<'s>(&'s self, mi: usize, wi: usize, pool: &Pool<'s>) {
        let chain = &self.chains[mi];
        let wave = &chain.waves[wi];
        let world = wave.timed(|| SimTemplate::new(&wave.cfg));
        let base_e0 = (wi == 0 && lock(&chain.state).e0.is_none())
            .then(|| base_efficiency(&world, &wave.cfg, self.kinds[mi], self.opts));
        wave.set_world(world);
        let mut st = lock(&chain.state);
        st.e0 = st.e0.or(base_e0);
        st.built += 1;
        self.advance(mi, &mut st, pool);
    }

    /// Step 3a: starts the batched speculative anneal of one point from
    /// the case's canonical start, with the nearest smaller `k`'s best
    /// setting riding alongside when there is one (so it can only help).
    fn start_anneal<'s>(
        &'s self,
        mi: usize,
        wi: usize,
        e0: f64,
        warm: Option<[usize; 4]>,
        pool: &Pool<'s>,
    ) {
        let wave = &self.chains[mi].waves[wi];
        let mut acfg = self.opts.anneal;
        acfg.seed = wave.seed ^ 0xA11EA1;
        let mut inits = vec![self.space.start_index(&wave.cfg.enablers)];
        if let Some(w) = warm {
            if !inits.contains(&w) {
                inits.push(w);
            }
        }
        let mut slot = lock(&wave.search);
        *slot = Some(Search {
            anneal: BatchSearch::new(&inits, &acfg, self.opts.batch.max(1)),
            e0,
            warm_started: warm.is_some(),
            energies: Vec::new(),
            outstanding: 0,
        });
        self.next_round(mi, wi, &mut slot, pool);
    }

    /// Spawns one evaluation task per state the search in `slot` needs
    /// next or, once its budget is spent, finishes the anneal.
    fn next_round<'s>(&'s self, mi: usize, wi: usize, slot: &mut Option<Search>, pool: &Pool<'s>) {
        let s = slot.as_mut().expect("search in flight");
        match s
            .anneal
            .pending(&mut |idx, rng| neighbor(&self.space, idx, rng))
        {
            Some(states) => {
                s.energies = vec![0.0; states.len()];
                s.outstanding = states.len();
                let e0 = s.e0;
                for (j, idx) in states.into_iter().enumerate() {
                    pool.spawn(Rank::Anneal, move |p| self.evaluate(mi, wi, j, idx, e0, p));
                }
            }
            None => {
                let search = slot.take().expect("search in flight");
                self.finish_anneal(mi, wi, search, pool);
            }
        }
    }

    /// One energy evaluation: a full replay of the point's world at the
    /// setting `idx`. The task that delivers a round's last energy runs
    /// the search's next decisions.
    fn evaluate<'s>(
        &'s self,
        mi: usize,
        wi: usize,
        j: usize,
        idx: [usize; 4],
        e0: f64,
        pool: &Pool<'s>,
    ) {
        let wave = &self.chains[mi].waves[wi];
        let e = wave.timed(|| {
            let enablers = self.space.realize(&idx, &wave.cfg.enablers);
            // Enum dispatch: monomorphizes the event loop for the
            // annealer's hottest path.
            let report = wave.with_world(|w| replay(w, enablers, self.kinds[mi], self.opts, 0));
            let e = energy(&report, e0, self.opts);
            lock(&wave.reports).insert(idx, report);
            e
        });
        let mut slot = lock(&wave.search);
        let s = slot.as_mut().expect("search in flight");
        s.energies[j] = e;
        s.outstanding -= 1;
        if s.outstanding > 0 {
            return;
        }
        let energies = std::mem::take(&mut s.energies);
        s.anneal.supply(&energies);
        self.next_round(mi, wi, &mut slot, pool);
    }

    /// Records a finished anneal — the winner's report comes straight from
    /// the evaluation memo — and releases the chain: the point's
    /// replications, and the next anneal, warm-started from this winner.
    fn finish_anneal<'s>(&'s self, mi: usize, wi: usize, search: Search, pool: &Pool<'s>) {
        let wave = &self.chains[mi].waves[wi];
        let result = search.anneal.finish();
        let report = std::mem::take(&mut *lock(&wave.reports))
            .remove(&result.best)
            .expect("the best state was evaluated during the search");
        let annealed = Annealed {
            enablers: self.space.realize(&result.best, &wave.cfg.enablers),
            report,
            evaluations: result.evaluations,
            rounds: result.rounds,
            best_energy: result.best_energy,
            warm_started: search.warm_started,
        };
        assert!(
            wave.annealed.set(annealed).is_ok(),
            "each point annealed once"
        );
        let mut st = lock(&self.chains[mi].state);
        st.finished += 1;
        if self.opts.warm_start {
            st.warm = Some(result.best);
        }
        for r in 1..self.opts.replications {
            pool.spawn(Rank::Rep(wi), move |p| self.replicate(mi, wi, r, p));
        }
        let world = wave.release_if_done(wi, &st);
        self.advance(mi, &mut st, pool);
        drop(st);
        drop(world);
    }

    fn replicate<'s>(&'s self, mi: usize, wi: usize, r: usize, pool: &Pool<'s>) {
        let wave = &self.chains[mi].waves[wi];
        let ap = wave
            .annealed
            .get()
            .expect("replications follow their anneal");
        let outcome = wave.timed(|| {
            wave.with_world(|w| {
                run_replication(w, wave.seed, ap.enablers, self.kinds[mi], self.opts, r)
            })
        });
        assert!(
            wave.reps[r - 1].set(outcome).is_ok(),
            "each replication once"
        );
        let mut st = lock(&self.chains[mi].state);
        st.reps_left[wi] -= 1;
        let world = wave.release_if_done(wi, &st);
        self.advance(mi, &mut st, pool);
        drop(st);
        drop(world);
    }

    /// Folds every point after the pool has drained: ascending `k`, models
    /// in input order within a `k`, replications ascending — the order the
    /// historical sequential loop produced, whatever ran where.
    fn into_results(self) -> (Vec<ScalabilityCurve>, TuningBench) {
        let Sweep {
            kinds,
            case,
            opts,
            chains,
            ..
        } = self;
        let mut curves = Vec::with_capacity(chains.len());
        let mut waves = Vec::with_capacity(chains.len());
        for (&kind, chain) in kinds.iter().zip(chains) {
            let st = chain
                .state
                .into_inner()
                .unwrap_or_else(PoisonError::into_inner);
            curves.push(ScalabilityCurve {
                kind,
                case,
                e0: st.e0.expect("every chain resolved E0"),
                points: Vec::with_capacity(chain.waves.len()),
            });
            waves.push(chain.waves.into_iter());
        }
        let mut bench = TuningBench::default();
        let n = waves.first().map_or(0, |w| w.len());
        for _ in 0..n {
            for (curve, waves) in curves.iter_mut().zip(&mut waves) {
                let wave = waves.next().expect("one wave per k");
                let (point, pb) = finish_point(curve.kind, case, curve.e0, wave, opts);
                bench.points.push(pb);
                curve.points.push(point);
            }
        }
        (curves, bench)
    }
}

/// The sweep width: [`MeasureOptions::threads`], or with `0` the host's
/// cores capped at the widest fan-out the models can use — a speculative
/// batch or a replication fan-out each.
fn sweep_threads(models: usize, opts: &MeasureOptions) -> usize {
    if opts.threads == 0 {
        default_threads(models.max(1) * opts.batch.max(opts.replications).max(1))
    } else {
        opts.threads
    }
}

/// Tunes every model along `ks` on one [`TaskPool`] of
/// [`sweep_threads`] workers; `e0` fixes the target for every model, or
/// `None` resolves it per model from the base point.
fn sweep(
    kinds: &[RmsKind],
    case: CaseId,
    ks: &[u32],
    e0: Option<f64>,
    opts: &MeasureOptions,
) -> (Vec<ScalabilityCurve>, TuningBench) {
    // Ascending k, so warm seeds always come from a smaller scale.
    let mut ks = ks.to_vec();
    ks.sort_unstable();
    let sweep = Sweep::new(kinds, case, &ks, e0, opts);
    TaskPool::run(sweep_threads(kinds.len(), opts), |pool| sweep.seed(pool));
    sweep.into_results()
}

/// Measures the full scalability curve of one RMS model along one case —
/// the complete four-step procedure.
pub fn measure_rms(kind: RmsKind, case: CaseId, opts: &MeasureOptions) -> ScalabilityCurve {
    measure_rms_with_bench(kind, case, opts).0
}

/// [`measure_rms`] plus the per-point tuning telemetry.
pub fn measure_rms_with_bench(
    kind: RmsKind,
    case: CaseId,
    opts: &MeasureOptions,
) -> (ScalabilityCurve, TuningBench) {
    let (mut curves, bench) = measure_all_with_bench(&[kind], case, opts);
    (curves.pop().expect("one model measured"), bench)
}

/// Measures several models along one case.
pub fn measure_all(
    kinds: &[RmsKind],
    case: CaseId,
    opts: &MeasureOptions,
) -> Vec<ScalabilityCurve> {
    measure_all_with_bench(kinds, case, opts).0
}

/// Measures several models along one case, all on one [`TaskPool`] of
/// [`MeasureOptions::threads`] workers. Each model is a chain of
/// ascending-`k` waves — world build → anneal → replications — in which
/// each anneal warm-starts from the best enabler setting the model found
/// at the nearest smaller `k` (when [`MeasureOptions::warm_start`] is
/// set), and waits for nothing else: its speculative evaluations take the
/// pool at full width, while replications and the next wave's world
/// build fill the slots the chain leaves idle.
///
/// Results are bit-identical for any `threads` setting at a fixed seed:
/// each anneal's decisions are made in proposal order from pure energies
/// ([`BatchSearch`]), and points are folded after the pool drains in
/// ascending `(k, model, replication)` order regardless of which worker
/// ran what.
pub fn measure_all_with_bench(
    kinds: &[RmsKind],
    case: CaseId,
    opts: &MeasureOptions,
) -> (Vec<ScalabilityCurve>, TuningBench) {
    assert!(!opts.ks.is_empty(), "need at least one scale factor");
    let e0 = match opts.e0_mode {
        E0Mode::Fixed => Some(opts.e0),
        E0Mode::AutoBase => None,
    };
    sweep(kinds, case, &opts.ks, e0, opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Smoke-sized options: tiny horizons, two scales, few SA iterations.
    fn smoke_opts() -> MeasureOptions {
        MeasureOptions {
            ks: vec![1, 2],
            anneal: AnnealConfig {
                iterations: 5,
                ..AnnealConfig::default()
            },
            duration_override: Some(SimTime::from_ticks(8_000)),
            drain_override: Some(SimTime::from_ticks(10_000)),
            threads: 2,
            ..MeasureOptions::default()
        }
    }

    #[test]
    fn measure_produces_sorted_feasibility_annotated_points() {
        let curve = measure_rms(RmsKind::Lowest, CaseId::NetworkSize, &smoke_opts());
        assert_eq!(curve.points.len(), 2);
        assert_eq!(curve.points[0].k, 1);
        assert_eq!(curve.points[1].k, 2);
        for p in &curve.points {
            assert!(p.g > 0.0, "k={}: G must be positive", p.k);
            assert!(p.f > 0.0, "k={}: F must be positive", p.k);
            assert!(p.evaluations >= 1);
            assert!(p.report.completed > 0);
        }
    }

    #[test]
    fn measurement_is_deterministic() {
        let opts = smoke_opts();
        let a = measure_rms(RmsKind::Central, CaseId::ServiceRate, &opts);
        let b = measure_rms(RmsKind::Central, CaseId::ServiceRate, &opts);
        for (pa, pb) in a.points.iter().zip(&b.points) {
            assert_eq!(pa.g, pb.g);
            assert_eq!(pa.enablers, pb.enablers);
            assert_eq!(pa.efficiency, pb.efficiency);
        }
    }

    #[test]
    fn thread_count_does_not_change_curves() {
        // Two chains of three waves with three replications each: every
        // width interleaves replications, prefetch builds and the next
        // anneal differently, and none of it may reach the output.
        let kinds = [RmsKind::Central, RmsKind::Lowest];
        for mode in [ReplicationMode::FreshWorld, ReplicationMode::SharedWorld] {
            let run = |threads: usize| {
                let opts = MeasureOptions {
                    ks: vec![1, 2, 3],
                    replications: 3,
                    replication_mode: mode,
                    threads,
                    ..smoke_opts()
                };
                measure_all_with_bench(&kinds, CaseId::NetworkSize, &opts)
            };
            let (seq, seq_bench) = run(1);
            for threads in [2usize, 3, 8] {
                let (par, par_bench) = run(threads);
                assert_eq!(
                    format!("{seq:?}"),
                    format!("{par:?}"),
                    "{mode:?}: threads=1 and threads={threads} must agree bit-for-bit"
                );
                assert_eq!(seq_bench.points.len(), par_bench.points.len());
                for (a, b) in seq_bench.points.iter().zip(&par_bench.points) {
                    let counts = |p: &PointBench| {
                        (
                            p.kind,
                            p.k,
                            p.evaluations,
                            p.rounds,
                            p.templates_built,
                            p.warm_started,
                            p.iterations_budget,
                        )
                    };
                    assert_eq!(counts(a), counts(b), "{mode:?}, threads={threads}");
                }
            }
        }
    }

    #[test]
    fn a_panicking_task_fails_measure_instead_of_hanging() {
        // A zero link capacity fails world validation inside a pool task.
        // The panic must reach the caller at every width instead of
        // leaving the other workers parked for good.
        for threads in [1usize, 2, 3] {
            let opts = MeasureOptions {
                e0_mode: E0Mode::Fixed,
                replications: 2,
                threads,
                bandwidth: Some(gridscale_gridsim::BandwidthConfig {
                    enabled: true,
                    capacity_scale: 0.0,
                    k_paths: 2,
                }),
                ..smoke_opts()
            };
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let out = std::panic::catch_unwind(|| {
                    measure_rms(RmsKind::Lowest, CaseId::NetworkSize, &opts)
                });
                let _ = tx.send(out.is_err());
            });
            let panicked = rx
                .recv_timeout(std::time::Duration::from_secs(60))
                .unwrap_or_else(|_| {
                    panic!("threads={threads}: measure hung after a task panicked")
                });
            assert!(
                panicked,
                "threads={threads}: the task's panic must reach the caller"
            );
        }
    }

    #[test]
    fn auto_width_counts_replications() {
        let opts = MeasureOptions {
            threads: 0,
            batch: 1,
            replications: 8,
            ..smoke_opts()
        };
        assert_eq!(sweep_threads(2, &opts), default_threads(16));
        let fixed = MeasureOptions { threads: 3, ..opts };
        assert_eq!(sweep_threads(2, &fixed), 3);
    }

    #[test]
    fn shard_count_does_not_change_curves() {
        // The sharded executor is bit-identical to the sequential one, so
        // a measurement's shards knob must be invisible in its results.
        let mut seq = smoke_opts();
        seq.threads = 1;
        seq.shards = 1;
        let mut sharded = smoke_opts();
        sharded.threads = 1;
        sharded.shards = 3;
        let a = measure_rms(RmsKind::Lowest, CaseId::NetworkSize, &seq);
        let b = measure_rms(RmsKind::Lowest, CaseId::NetworkSize, &sharded);
        assert_eq!(a.e0.to_bits(), b.e0.to_bits());
        for (pa, pb) in a.points.iter().zip(&b.points) {
            assert_eq!(pa.g.to_bits(), pb.g.to_bits(), "k={}", pa.k);
            assert_eq!(pa.enablers, pb.enablers, "k={}", pa.k);
            assert_eq!(pa.efficiency.to_bits(), pb.efficiency.to_bits());
            assert_eq!(
                pa.report.event_fingerprint, pb.report.event_fingerprint,
                "k={}",
                pa.k
            );
        }
    }

    #[test]
    fn curve_derivations_work() {
        let curve = measure_rms(RmsKind::Lowest, CaseId::NetworkSize, &smoke_opts());
        let slopes = curve.g_slopes();
        assert_eq!(slopes.len(), 1);
        let norm = curve.normalized();
        assert_eq!(norm[0].f, 1.0);
        assert_eq!(norm[0].g, 1.0);
        let verdict = curve.verdict();
        assert_eq!(verdict.condition.len(), 1);
    }

    #[test]
    fn measure_all_groups_by_kind() {
        let curves = measure_all(
            &[RmsKind::Central, RmsKind::Lowest],
            CaseId::NetworkSize,
            &smoke_opts(),
        );
        assert_eq!(curves.len(), 2);
        assert_eq!(curves[0].kind, RmsKind::Central);
        assert_eq!(curves[1].kind, RmsKind::Lowest);
        assert!(curves.iter().all(|c| c.points.len() == 2));
    }

    #[test]
    fn bench_telemetry_tracks_every_point() {
        let opts = smoke_opts();
        let (curves, bench) = measure_all_with_bench(
            &[RmsKind::Central, RmsKind::Lowest],
            CaseId::NetworkSize,
            &opts,
        );
        assert_eq!(bench.points.len(), 2 * opts.ks.len());
        for pb in &bench.points {
            assert!(pb.wall_ms >= 0.0);
            assert!(pb.evaluations >= 1);
            assert_eq!(pb.iterations_budget, opts.anneal.iterations);
            assert!(
                pb.rounds < pb.iterations_budget,
                "batch={} must compress rounds below the budget ({} !< {})",
                opts.batch,
                pb.rounds,
                pb.iterations_budget
            );
        }
        // Waves: k=1 points are cold, k=2 points are warm-started.
        assert!(bench
            .points
            .iter()
            .filter(|p| p.k == 1)
            .all(|p| !p.warm_started));
        assert!(bench
            .points
            .iter()
            .filter(|p| p.k == 2)
            .all(|p| p.warm_started));
        assert!(curves.iter().all(|c| c.points.len() == 2));
        // The CLI writes the telemetry to BENCH_tuning.json, one entry
        // per point.
        let Json::Object(fields) = bench.to_json() else {
            panic!("TuningBench is written as an object");
        };
        assert!(matches!(&fields[..], [(key, Json::Array(points))]
                if key == "points" && points.len() == bench.points.len()));
    }

    #[test]
    fn point_seeds_differ_across_identity() {
        let a = point_seed(1, RmsKind::Central, CaseId::NetworkSize, 1);
        let b = point_seed(1, RmsKind::Central, CaseId::NetworkSize, 2);
        let c = point_seed(1, RmsKind::Lowest, CaseId::NetworkSize, 1);
        let d = point_seed(1, RmsKind::Central, CaseId::ServiceRate, 1);
        assert!(a != b && a != c && a != d && b != c);
    }

    #[test]
    fn bandwidth_override_reaches_every_point_config() {
        let mut opts = smoke_opts();
        opts.bandwidth = Some(gridscale_gridsim::BandwidthConfig {
            enabled: true,
            capacity_scale: 0.1,
            k_paths: 2,
        });
        for case in CaseId::WITH_BANDWIDTH {
            let cfg = point_config(RmsKind::Lowest, case, 2, &opts);
            assert!(cfg.bandwidth.enabled, "{case:?}");
            assert_eq!(cfg.bandwidth.capacity_scale, 0.1, "{case:?}");
        }
        // Without the override, Case 5 keeps its own 1/k default and the
        // paper cases keep the legacy model.
        opts.bandwidth = None;
        assert!(
            !point_config(RmsKind::Lowest, CaseId::Lp, 2, &opts)
                .bandwidth
                .enabled
        );
        let c5 = point_config(RmsKind::Lowest, CaseId::Bandwidth, 2, &opts);
        assert!(c5.bandwidth.enabled);
        assert_eq!(c5.bandwidth.capacity_scale, 0.5);
    }

    #[test]
    fn fresh_world_replications_match_the_historical_rebuild_loop() {
        // The pre-wave sequential loop cloned the whole GridConfig,
        // overwrote its seed with fork(1000 + i), and rebuilt a template
        // from scratch; `fresh_replica` must be its exact equivalent
        // minus the clone.
        let opts = smoke_opts();
        let (kind, case, k) = (RmsKind::Lowest, CaseId::NetworkSize, 2);
        let cfg = point_config(kind, case, k, &opts);
        let template = SimTemplate::new(&cfg);
        let rep_seed = SimRng::new(point_seed(opts.seed, kind, case, k))
            .fork(1001)
            .seed();
        let via_replica = template.fresh_replica(rep_seed);
        let mut rep_cfg = cfg.clone();
        rep_cfg.seed = rep_seed;
        let via_clone = SimTemplate::new(&rep_cfg);
        let ra = replay(&via_replica, cfg.enablers, kind, &opts, 0);
        let rb = replay(&via_clone, cfg.enablers, kind, &opts, 0);
        assert_eq!(ra.event_fingerprint, rb.event_fingerprint);
        assert_eq!(ra.g_overhead.to_bits(), rb.g_overhead.to_bits());
        assert_eq!(ra.efficiency.to_bits(), rb.efficiency.to_bits());
    }

    #[test]
    fn shared_world_replications_differ_in_streams_but_reproduce() {
        let mut opts = smoke_opts();
        opts.replication_mode = ReplicationMode::SharedWorld;
        let cfg = point_config(RmsKind::Lowest, CaseId::NetworkSize, 2, &opts);
        let template = SimTemplate::new(&cfg);
        let r0 = replay(&template, cfg.enablers, RmsKind::Lowest, &opts, 0);
        let r1 = replay(&template, cfg.enablers, RmsKind::Lowest, &opts, 1);
        let r2 = replay(&template, cfg.enablers, RmsKind::Lowest, &opts, 2);
        // Distinct simulation streams → distinct event histories…
        assert_ne!(r0.event_fingerprint, r1.event_fingerprint);
        assert_ne!(r1.event_fingerprint, r2.event_fingerprint);
        // …but each replication index is itself deterministic.
        let r1b = replay(&template, cfg.enablers, RmsKind::Lowest, &opts, 1);
        assert_eq!(r1.event_fingerprint, r1b.event_fingerprint);
        assert_eq!(r1.g_overhead.to_bits(), r1b.g_overhead.to_bits());
    }

    #[test]
    fn sharded_replications_match_sequential_replications() {
        // Satellite of the shard executor's bit-identity guarantee:
        // routing a replication replay through shards must not change
        // its event history.
        let mut seq = smoke_opts();
        seq.shards = 1;
        seq.replication_mode = ReplicationMode::SharedWorld;
        let mut sharded = seq.clone();
        sharded.shards = 3;
        let kind = RmsKind::Lowest;
        let cfg = point_config(kind, CaseId::NetworkSize, 2, &seq);
        let template = SimTemplate::new(&cfg);
        for rep in 1..4u64 {
            let a = replay(&template, cfg.enablers, kind, &seq, rep);
            let b = replay(&template, cfg.enablers, kind, &sharded, rep);
            assert_eq!(a.event_fingerprint, b.event_fingerprint, "rep {rep}");
            assert_eq!(a.g_overhead.to_bits(), b.g_overhead.to_bits(), "rep {rep}");
        }
    }

    #[test]
    fn sharded_replays_of_a_dag_world_run_the_one_shard_plan() {
        // Dependency release crosses lanes at the same tick, so a DAG
        // world only runs on one shard: `shards = 3` gets the 1-shard plan
        // and reproduces the sequential report exactly.
        let mut seq = smoke_opts();
        seq.shards = 1;
        let sharded = MeasureOptions {
            shards: 3,
            ..seq.clone()
        };
        let kind = RmsKind::Lowest;
        let mut cfg = point_config(kind, CaseId::NetworkSize, 2, &seq);
        cfg.dag_edge_prob = 0.3;
        let template = SimTemplate::new(&cfg);
        let a = replay(&template, cfg.enablers, kind, &seq, 0);
        let b = replay(&template, cfg.enablers, kind, &sharded, 0);
        assert!(b.dag_deferred > 0, "the DAG must actually defer jobs");
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let shard = template.replay_stats().shard.map(|s| s.shards);
        assert_eq!(shard, Some(1));
    }

    #[test]
    fn verdicts_carry_cis_and_confidence() {
        let mut opts = smoke_opts();
        opts.replications = 3;
        opts.replication_mode = ReplicationMode::SharedWorld;
        let curve = measure_rms(RmsKind::Lowest, CaseId::NetworkSize, &opts);
        for p in &curve.points {
            assert_eq!(p.replications, 3);
            assert!(p.g_ci >= 0.0 && p.f_ci >= 0.0 && p.h_ci >= 0.0);
            assert!(p.efficiency_ci >= 0.0);
        }
        let v = curve.verdict();
        assert_eq!(v.margin_cis.len(), v.condition.len());
        assert_eq!(v.confidence.len(), v.condition.len());
        assert!(v.robust_count() <= v.confidence.len());
    }

    #[test]
    fn single_replication_cis_are_zero() {
        let curve = measure_rms(RmsKind::Lowest, CaseId::NetworkSize, &smoke_opts());
        for p in &curve.points {
            assert_eq!(p.g_ci, 0.0);
            assert_eq!(p.f_ci, 0.0);
            assert_eq!(p.h_ci, 0.0);
            assert_eq!(p.efficiency_ci, 0.0);
        }
        let v = curve.verdict();
        assert!(v.margin_cis.iter().all(|&(_, hw)| hw == 0.0));
        assert_eq!(v.robust_count(), v.confidence.len());
    }

    #[test]
    fn bench_counts_templates_and_rep_time_by_mode() {
        let mut fresh = smoke_opts();
        fresh.replications = 3;
        let (_, bf) = measure_all_with_bench(&[RmsKind::Lowest], CaseId::NetworkSize, &fresh);
        assert!(bf.points.iter().all(|p| p.templates_built == 3));
        let mut shared = fresh.clone();
        shared.replication_mode = ReplicationMode::SharedWorld;
        let (_, bs) = measure_all_with_bench(&[RmsKind::Lowest], CaseId::NetworkSize, &shared);
        assert!(bs.points.iter().all(|p| p.templates_built == 1));
        assert!(bs.points.iter().all(|p| p.rep_wall_ms >= 0.0));
        assert!(bs.points.iter().all(|p| p.wall_ms >= p.rep_wall_ms));
    }
}

#[cfg(test)]
mod verdict_tests {
    use super::*;
    use gridscale_gridsim::{Enablers, SimReport};

    fn point(k: u32, g: f64, f: f64) -> CurvePoint {
        CurvePoint {
            k,
            g,
            f,
            h: 0.0,
            efficiency: 0.4,
            g_ci: 0.0,
            f_ci: 0.0,
            h_ci: 0.0,
            efficiency_ci: 0.0,
            feasible: true,
            enablers: Enablers::default(),
            evaluations: 1,
            replications: 1,
            report: SimReport::default(),
        }
    }

    fn curve(points: Vec<CurvePoint>) -> ScalabilityCurve {
        ScalabilityCurve {
            kind: RmsKind::Lowest,
            case: CaseId::NetworkSize,
            e0: 0.4,
            points,
        }
    }

    #[test]
    fn perfectly_linear_growth_is_scalable() {
        // g(k) = f(k) = k: condition f > c·g with c = g0/((α−1)f0)…
        // with E0 = 0.4 and base (f=10, g=15): c = 15/(1.5·10) = 1.
        // f(k) > g(k) fails at equality; make f slightly faster.
        let c = curve(vec![
            point(1, 15.0, 10.0),
            point(2, 28.0, 21.0),
            point(3, 40.0, 32.0),
        ]);
        let v = c.verdict();
        assert_eq!(v.scalable_through, Some(3));
        assert!(v.condition.iter().all(|(_, ok)| *ok));
    }

    #[test]
    fn overhead_explosion_fails_from_first_violation() {
        let c = curve(vec![
            point(1, 15.0, 10.0),
            point(2, 28.0, 21.0), // fine
            point(3, 90.0, 30.0), // g ×6 vs f ×3: fails (6 > 3)
            point(4, 60.0, 45.0), // passes again (g 4 < f 4.5), but the prefix broke
        ]);
        let v = c.verdict();
        assert_eq!(v.scalable_through, Some(2));
        assert_eq!(
            v.condition.iter().map(|(_, ok)| *ok).collect::<Vec<_>>(),
            vec![true, false, true]
        );
    }

    #[test]
    fn immediate_failure_reports_none() {
        let c = curve(vec![point(1, 15.0, 10.0), point(2, 60.0, 12.0)]);
        assert_eq!(c.verdict().scalable_through, None);
    }

    #[test]
    fn g_curve_and_slopes_align() {
        let c = curve(vec![
            point(1, 10.0, 1.0),
            point(3, 30.0, 3.0),
            point(6, 30.0, 6.0),
        ]);
        assert_eq!(c.g_curve(), vec![(1.0, 10.0), (3.0, 30.0), (6.0, 30.0)]);
        assert_eq!(c.g_slopes(), vec![10.0, 0.0]);
    }

    #[test]
    fn normalized_base_is_unity() {
        let c = curve(vec![point(1, 15.0, 10.0), point(2, 30.0, 20.0)]);
        let n = c.normalized();
        assert_eq!((n[0].f, n[0].g), (1.0, 1.0));
        assert_eq!((n[1].f, n[1].g), (2.0, 2.0));
    }
}
