//! Simulated annealing over discrete parameter grids.
//!
//! The paper (§3.2, Step 3) tunes the scaling enablers with "a simulated
//! annealing search … to determine the set of scaling enablers such that
//! overhead `G(k)` is minimum at scale factor `k`" (citing van Laarhoven
//! \[2\], Ingber \[12\], Bilbro & Snyder \[5\]). This module has one
//! Metropolis/geometric-cooling chain over an abstract discrete state
//! space: a *batched speculative* search ([`BatchSearch`]) whose proposals
//! of one temperature round can be evaluated concurrently. [`anneal`]
//! drives it one proposal per round on the calling thread; `measure`
//! drives it from its task pool with enabler grids and a penalized
//! overhead objective.

use gridscale_desim::SimRng;
use std::hash::Hash;

/// The energy memo: keyed by a generic `S` that is `Hash` but not `Ord`.
#[expect(
    clippy::disallowed_types,
    reason = "energy memo keyed by generic Hash-only S; lookups only, never iterated"
)]
type Memo<S> = std::collections::HashMap<S, f64>;

/// Annealing hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnnealConfig {
    /// Total candidate evaluations (including the initial state).
    pub iterations: usize,
    /// Initial temperature as a fraction of the initial energy scale; the
    /// effective `T0` is `t0_fraction × max(|E(init)|, 1e-9)`.
    pub t0_fraction: f64,
    /// Geometric cooling factor per iteration, in `(0, 1)`.
    pub cooling: f64,
    /// RNG seed for the proposal chain.
    pub seed: u64,
}

impl Default for AnnealConfig {
    fn default() -> Self {
        AnnealConfig {
            iterations: 48,
            t0_fraction: 0.3,
            cooling: 0.9,
            seed: 0x5EED,
        }
    }
}

/// Outcome of one annealing run.
#[derive(Debug, Clone)]
pub struct AnnealResult<S> {
    /// The lowest-energy state visited.
    pub best: S,
    /// Its energy.
    pub best_energy: f64,
    /// Number of *distinct* states evaluated (cache misses) — with an
    /// expensive simulator objective this is the real cost measure.
    pub evaluations: usize,
    /// Energy trajectory of accepted states, for convergence diagnostics.
    pub trajectory: Vec<f64>,
    /// Cumulative candidates consumed (including the initial state) at the
    /// moment each `trajectory` entry was accepted — so diagnostics see the
    /// true cost of each improvement, rejected proposals included.
    pub trajectory_evals: Vec<usize>,
    /// Proposals the Metropolis rule rejected.
    pub rejected: usize,
    /// Sequential evaluation rounds executed. [`anneal`] performs one round
    /// per candidate (`rounds == iterations`); [`BatchSearch`] evaluates up
    /// to `batch` candidates per round, so `rounds` — the wall-clock-
    /// critical quantity when one evaluation is a full simulation — shrinks
    /// by up to the batch factor.
    pub rounds: usize,
}

/// Minimizes `energy` over the state graph induced by `neighbor`, starting
/// from `init`: the classic sequential Metropolis chain, i.e. a
/// [`BatchSearch`] of one proposal per round driven on the calling thread.
///
/// Energies are memoized per state (states are compared by `Eq + Hash`),
/// so revisits during the walk are free — important when one evaluation is
/// a full Grid simulation. The walk itself is deterministic for a given
/// `(init, cfg.seed)`.
pub fn anneal<S, N, E>(
    init: S,
    mut neighbor: N,
    mut energy: E,
    cfg: &AnnealConfig,
) -> AnnealResult<S>
where
    S: Clone + Eq + Hash,
    N: FnMut(&S, &mut SimRng) -> S,
    E: FnMut(&S) -> f64,
{
    let mut search = BatchSearch::new(&[init], cfg, 1);
    while let Some(states) = search.pending(&mut neighbor) {
        search.supply(&states.iter().map(&mut energy).collect::<Vec<_>>());
    }
    search.finish()
}

/// Where a [`BatchSearch`] stands between two calls.
enum Phase<S> {
    /// The initial states await their energies.
    Seeds,
    /// A round's candidates (with their RNG forks) await the Metropolis
    /// scan.
    Round(Vec<S>, Vec<SimRng>),
    /// Between rounds.
    Idle,
}

/// Batched speculative annealing as a resumable search. At each
/// temperature round it proposes up to `batch` neighbor candidates of the
/// current state (each from its own deterministic RNG fork); the caller
/// evaluates the distinct un-memoized ones however and wherever it likes —
/// concurrently, typically — and the search then applies the Metropolis
/// rule sequentially over the batch in proposal order. The first accepted
/// candidate becomes the new current state and the rest of the round's
/// speculation is discarded (their energies stay memoized, so re-proposing
/// them later is free).
///
/// The caller asks which states the search needs evaluated next
/// ([`BatchSearch::pending`]) and hands the energies back
/// ([`BatchSearch::supply`]). Every decision is made inside these two
/// calls, in proposal order, so the result depends only on
/// `(inits, cfg, batch)` and the energies, never on who evaluated them or
/// when. The budget `cfg.iterations` bounds consumed candidates
/// (speculative evaluations discarded by an early acceptance are charged
/// to the round that issued them).
///
/// `inits` seeds the chain with one or more starting states — the cross-
/// scale warm-start hook: pass `[default_start, warm_start]` and the chain
/// begins from whichever is better, while `best` covers both.
///
/// `measure` drives one from the tasks of its sweep pool
/// ([`crate::sweep::TaskPool`]): each pending state is its own task, and
/// the task that delivers a round's last energy asks for the next round.
pub struct BatchSearch<S> {
    cfg: AnnealConfig,
    batch: usize,
    root: SimRng,
    inits: Vec<S>,
    phase: Phase<S>,
    cache: Memo<S>,
    misses: usize,
    /// The states the last `pending` handed out, awaiting `supply`.
    missing: Vec<S>,
    current: S,
    current_e: f64,
    best: S,
    best_e: f64,
    consumed: usize,
    rounds: usize,
    rejected: usize,
    trajectory: Vec<f64>,
    trajectory_evals: Vec<usize>,
    temp: f64,
    /// Global proposal-slot counter: slot `i` always forks RNG stream `i`
    /// from the root, so the chain is a pure function of (inits, seed,
    /// batch) no matter how rounds shake out.
    slot: u64,
}

impl<S: Clone + Eq + Hash> BatchSearch<S> {
    /// A search seeded with `inits` (at least one) that speculates
    /// `batch` proposals per round.
    pub fn new(inits: &[S], cfg: &AnnealConfig, batch: usize) -> Self {
        assert!(!inits.is_empty(), "need at least one initial state");
        assert!(cfg.iterations >= 1);
        assert!(cfg.cooling > 0.0 && cfg.cooling < 1.0);
        assert!(batch >= 1);
        BatchSearch {
            cfg: *cfg,
            batch,
            root: SimRng::new(cfg.seed),
            inits: inits.to_vec(),
            phase: Phase::Seeds,
            cache: Memo::new(),
            misses: 0,
            missing: Vec::new(),
            current: inits[0].clone(),
            current_e: f64::INFINITY,
            best: inits[0].clone(),
            best_e: f64::INFINITY,
            consumed: 0,
            rounds: 0,
            rejected: 0,
            trajectory: Vec::new(),
            trajectory_evals: Vec::new(),
            temp: 0.0,
            slot: 0,
        }
    }

    /// Advances the search as far as memoized energies allow, and returns
    /// the distinct un-memoized states it needs next — or `None` once the
    /// budget is spent. Every batch must be answered with
    /// [`BatchSearch::supply`] before the next call.
    pub fn pending<N>(&mut self, neighbor: &mut N) -> Option<Vec<S>>
    where
        N: FnMut(&S, &mut SimRng) -> S,
    {
        assert!(self.missing.is_empty(), "supply the last batch first");
        loop {
            let states = match &self.phase {
                Phase::Seeds => &self.inits,
                Phase::Round(cands, _) => cands,
                Phase::Idle if self.consumed >= self.cfg.iterations => return None,
                Phase::Idle => {
                    self.propose(neighbor);
                    continue;
                }
            };
            // Duplicate proposals within one round are evaluated once.
            let mut missing: Vec<S> = Vec::new();
            for s in states {
                if !self.cache.contains_key(s) && !missing.contains(s) {
                    missing.push(s.clone());
                }
            }
            if !missing.is_empty() {
                self.missing = missing;
                return Some(self.missing.clone());
            }
            match std::mem::replace(&mut self.phase, Phase::Idle) {
                Phase::Seeds => self.start(),
                Phase::Round(cands, rngs) => self.decide(cands, rngs),
                Phase::Idle => unreachable!("an idle search proposes first"),
            }
        }
    }

    /// Memoizes the energies of the states the last
    /// [`BatchSearch::pending`] returned, in the same order.
    pub fn supply(&mut self, energies: &[f64]) {
        assert_eq!(energies.len(), self.missing.len(), "one energy per state");
        self.misses += energies.len();
        for (s, &e) in self.missing.drain(..).zip(energies) {
            self.cache.insert(s, e);
        }
    }

    /// The outcome; call once [`BatchSearch::pending`] has returned `None`.
    pub fn finish(self) -> AnnealResult<S> {
        AnnealResult {
            best: self.best,
            best_energy: self.best_e,
            evaluations: self.misses,
            trajectory: self.trajectory,
            trajectory_evals: self.trajectory_evals,
            rejected: self.rejected,
            rounds: self.rounds,
        }
    }

    /// Round 0 is settled: the chain starts from the best seed (ties favor
    /// the earliest, i.e. the canonical start).
    fn start(&mut self) {
        let mut current = self.inits[0].clone();
        let mut current_e = self.cache[&current];
        for s in &self.inits[1..] {
            let e = self.cache[s];
            if e < current_e {
                current = s.clone();
                current_e = e;
            }
        }
        self.best = current.clone();
        self.best_e = current_e;
        self.current = current;
        self.current_e = current_e;
        self.consumed = self.inits.len();
        self.rounds = 1;
        self.trajectory = vec![current_e];
        self.trajectory_evals = vec![self.consumed];
        self.temp = self.cfg.t0_fraction * current_e.abs().max(1e-9);
    }

    /// Speculative proposal phase: all `b` candidates step from the *same*
    /// current state (the speculation is that the earlier ones get
    /// rejected).
    fn propose<N>(&mut self, neighbor: &mut N)
    where
        N: FnMut(&S, &mut SimRng) -> S,
    {
        let b = self.batch.min(self.cfg.iterations - self.consumed);
        let mut cands: Vec<S> = Vec::with_capacity(b);
        let mut rngs: Vec<SimRng> = Vec::with_capacity(b);
        for j in 0..b {
            let mut r = self.root.fork(self.slot + j as u64);
            cands.push(neighbor(&self.current, &mut r));
            rngs.push(r);
        }
        self.phase = Phase::Round(cands, rngs);
    }

    /// Decision phase: sequential Metropolis scan in proposal order.
    /// Candidate j sees the temperature it would have seen in a sequential
    /// chain, `temp · cooling^j`.
    fn decide(&mut self, cands: Vec<S>, mut rngs: Vec<SimRng>) {
        let b = cands.len();
        let mut t_j = self.temp;
        for (j, (cand, rng)) in cands.into_iter().zip(rngs.iter_mut()).enumerate() {
            let cand_e = self.cache[&cand];
            let accept = cand_e <= self.current_e || {
                let p = ((self.current_e - cand_e) / t_j.max(1e-12)).exp();
                rng.chance(p)
            };
            if accept {
                self.current_e = cand_e;
                self.trajectory.push(cand_e);
                self.trajectory_evals.push(self.consumed + j + 1);
                if cand_e < self.best_e {
                    self.best = cand.clone();
                    self.best_e = cand_e;
                }
                self.current = cand;
                break;
            }
            self.rejected += 1;
            t_j *= self.cfg.cooling;
        }
        // The whole round is charged to the budget and the cooling
        // schedule, whether or not the speculation tail was used.
        self.consumed += b;
        self.temp *= self.cfg.cooling.powi(b as i32);
        self.slot += b as u64;
        self.rounds += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 1-D convex landscape: minimum at 37 on a 0..100 grid.
    fn quadratic(x: &i64) -> f64 {
        let d = (*x - 37) as f64;
        d * d
    }

    fn step(x: &i64, rng: &mut SimRng) -> i64 {
        let d = if rng.chance(0.5) { 1 } else { -1 };
        (x + d).clamp(0, 100)
    }

    #[test]
    fn finds_global_minimum_of_convex_landscape() {
        let cfg = AnnealConfig {
            iterations: 400,
            ..AnnealConfig::default()
        };
        let r = anneal(90i64, step, quadratic, &cfg);
        assert_eq!(r.best, 37, "energy {}", r.best_energy);
        assert_eq!(r.best_energy, 0.0);
    }

    #[test]
    fn escapes_local_minimum() {
        // Double well: local min at 10 (E=5), global at 80 (E=0), with a
        // barrier of +8 between them.
        let well = |x: &i64| -> f64 {
            let x = *x as f64;
            let local = 5.0 + (x - 10.0).abs() / 7.0;
            let global = (x - 80.0).abs() / 2.0;
            let mut e = local.min(global);
            if (30.0..60.0).contains(&x) {
                e += 8.0; // the barrier between the wells
            }
            e
        };
        // Strided proposals let the chain hop over the barrier region.
        let stride = |x: &i64, rng: &mut SimRng| -> i64 {
            let d = rng.int_range(1, 10) as i64;
            let d = if rng.chance(0.5) { d } else { -d };
            (x + d).clamp(0, 100)
        };
        let cfg = AnnealConfig {
            iterations: 2000,
            t0_fraction: 4.0,
            cooling: 0.998,
            seed: 11,
        };
        let r = anneal(10i64, stride, well, &cfg);
        assert!(
            r.best >= 70,
            "stuck at {} (E={}) instead of crossing the barrier",
            r.best,
            r.best_energy
        );
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let cfg = AnnealConfig::default();
        let a = anneal(90i64, step, quadratic, &cfg);
        let b = anneal(90i64, step, quadratic, &cfg);
        assert_eq!(a.best, b.best);
        assert_eq!(a.trajectory, b.trajectory);
        assert_eq!(a.trajectory_evals, b.trajectory_evals);
        assert_eq!(a.evaluations, b.evaluations);
        assert_eq!(a.rejected, b.rejected);
    }

    #[test]
    fn memoization_bounds_evaluations() {
        let mut calls = 0usize;
        let cfg = AnnealConfig {
            iterations: 500,
            ..AnnealConfig::default()
        };
        let r = anneal(
            50i64,
            step,
            |x: &i64| {
                calls += 1;
                quadratic(x)
            },
            &cfg,
        );
        assert_eq!(calls, r.evaluations, "objective called once per state");
        assert!(
            r.evaluations <= 101,
            "at most one evaluation per grid point, got {}",
            r.evaluations
        );
    }

    #[test]
    fn trajectory_starts_at_initial_energy() {
        let r = anneal(90i64, step, quadratic, &AnnealConfig::default());
        assert_eq!(r.trajectory[0], quadratic(&90));
        assert!(r.best_energy <= r.trajectory[0]);
    }

    #[test]
    fn single_iteration_returns_init() {
        let cfg = AnnealConfig {
            iterations: 1,
            ..AnnealConfig::default()
        };
        let r = anneal(42i64, step, quadratic, &cfg);
        assert_eq!(r.best, 42);
        assert_eq!(r.evaluations, 1);
        assert_eq!(r.rounds, 1);
        assert_eq!(r.rejected, 0);
    }

    #[test]
    fn rejected_plus_accepted_accounts_for_every_candidate() {
        let cfg = AnnealConfig {
            iterations: 300,
            ..AnnealConfig::default()
        };
        let r = anneal(90i64, step, quadratic, &cfg);
        // Every non-initial candidate is either accepted (one trajectory
        // entry each) or rejected.
        assert_eq!(
            (r.trajectory.len() - 1) + r.rejected,
            cfg.iterations - 1,
            "candidate accounting"
        );
        assert_eq!(r.trajectory.len(), r.trajectory_evals.len());
        assert!(
            r.trajectory_evals.windows(2).all(|w| w[0] < w[1]),
            "evaluation counts at accepted steps strictly increase"
        );
        assert!(*r.trajectory_evals.last().unwrap() <= cfg.iterations);
    }

    // ---- batched speculative annealer ----

    /// Drives a [`BatchSearch`] to completion, evaluating each round's
    /// pending states in order on the calling thread.
    fn batch_search(
        inits: &[i64],
        batch: usize,
        iterations: usize,
        seed: u64,
    ) -> AnnealResult<i64> {
        let cfg = AnnealConfig {
            iterations,
            seed,
            ..AnnealConfig::default()
        };
        let mut search = BatchSearch::new(inits, &cfg, batch);
        let mut neighbor = step;
        while let Some(states) = search.pending(&mut neighbor) {
            search.supply(&states.iter().map(quadratic).collect::<Vec<_>>());
        }
        search.finish()
    }

    #[test]
    fn batched_finds_global_minimum_of_convex_landscape() {
        let r = batch_search(&[90], 4, 400, 0x5EED);
        assert_eq!(r.best, 37, "energy {}", r.best_energy);
        assert_eq!(r.best_energy, 0.0);
    }

    #[test]
    fn batched_rerun_is_bit_identical() {
        let a = batch_search(&[80], 4, 160, 99);
        let b = batch_search(&[80], 4, 160, 99);
        assert_eq!(a.best, b.best);
        assert_eq!(a.trajectory, b.trajectory);
        assert_eq!(a.trajectory_evals, b.trajectory_evals);
        assert_eq!(a.rejected, b.rejected);
        assert_eq!(a.rounds, b.rounds);
    }

    #[test]
    fn batching_shrinks_sequential_rounds() {
        let seq = batch_search(&[90], 1, 100, 3);
        let par = batch_search(&[90], 4, 100, 3);
        assert_eq!(seq.rounds, 100, "batch=1 rounds once per candidate");
        assert!(
            par.rounds <= 1 + 100usize.div_ceil(4),
            "batch=4 must compress rounds, got {}",
            par.rounds
        );
        assert!(par.rounds < seq.rounds);
    }

    #[test]
    fn multiple_inits_start_from_the_best_seed() {
        // 90 is far from the optimum, 38 is adjacent: the chain must start
        // at 38 and `best` must never exceed its energy.
        let r = batch_search(&[90, 38], 2, 12, 5);
        assert!(r.best_energy <= quadratic(&38));
        assert_eq!(r.trajectory[0], quadratic(&38), "chain starts at best seed");
        assert_eq!(r.trajectory_evals[0], 2, "both seeds charged to budget");
    }

    #[test]
    fn warm_start_never_worse_than_cold_within_same_budget() {
        // The warm-start invariant `measure` relies on: seeding the
        // chain with the cold run's best (plus the canonical start) can
        // never end with a higher best energy.
        for seed in 0..25u64 {
            for &init in &[0i64, 55, 100] {
                let cold = batch_search(&[init], 4, 16, seed);
                let warm = batch_search(&[init, cold.best], 4, 16, seed);
                assert!(
                    warm.best_energy <= cold.best_energy,
                    "seed {seed} init {init}: warm {} > cold {}",
                    warm.best_energy,
                    cold.best_energy
                );
            }
        }
    }

    #[test]
    fn batched_budget_accounting() {
        let r = batch_search(&[90], 4, 18, 21);
        // 1 init + ceil(17/4) = 5 speculation rounds + the seed round.
        assert_eq!(r.rounds, 1 + 17usize.div_ceil(4));
        assert!(*r.trajectory_evals.last().unwrap() <= 18);
        assert!(r.evaluations <= 18, "evaluations bounded by the budget");
    }
}
