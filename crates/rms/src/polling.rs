//! Shared poll-and-place machinery.
//!
//! LOWEST and S-I both hold a REMOTE job, poll `L_p` random remote
//! schedulers, and decide from the replies; they differ only in the
//! decision rule. Sy-I reuses the S-I rule as its fallback path. This
//! module implements the common hold/poll/collect state machine.

use gridscale_gridsim::{Comms, Ctx, Dispatch, PolicyMsg, Telemetry};
use gridscale_workload::Job;
use std::collections::BTreeMap;

/// How a [`PollPlacer`] chooses between the polled clusters and home.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PlacementRule {
    /// LOWEST (Zhou): transfer to the polled cluster with the smallest
    /// mean load, if it beats the local mean load.
    LeastLoaded,
    /// S-I (Shan et al.): minimize approximate turnaround time
    /// `ATT = AWT + ERT`; when several candidates are within tolerance
    /// `ψ`, pick the one with the smallest RUS.
    TurnaroundCost,
}

#[derive(Debug)]
struct Pending {
    job: Job,
    home: usize,
    expected: usize,
    replies: Vec<Reply>,
}

#[derive(Debug, Clone, Copy)]
struct Reply {
    cluster: usize,
    avg_load: f64,
    att: f64,
    rus: f64,
}

/// The hold/poll/collect state machine shared by the polling policies.
#[derive(Debug)]
pub struct PollPlacer {
    rule: PlacementRule,
    pending: BTreeMap<u64, Pending>,
    /// Reused peer-draw buffer (`random_remotes_into` scratch).
    scratch: Vec<usize>,
}

impl PollPlacer {
    /// Creates a placer with the given decision rule.
    pub fn new(rule: PlacementRule) -> Self {
        PollPlacer {
            rule,
            pending: BTreeMap::new(),
            scratch: Vec::new(),
        }
    }

    /// Holds `job` and polls `L_p` random remote schedulers. Falls back to
    /// a local least-loaded dispatch when the Grid has no peers.
    pub fn start(&mut self, ctx: &mut Ctx, home: usize, job: Job) {
        let lp = ctx.enablers().neighborhood;
        ctx.random_remotes_into(home, lp, &mut self.scratch);
        if self.scratch.is_empty() {
            ctx.dispatch_least_loaded(home, job);
            return;
        }
        let token = ctx.next_token();
        self.pending.insert(
            token,
            Pending {
                job,
                home,
                expected: self.scratch.len(),
                replies: Vec::with_capacity(self.scratch.len()),
            },
        );
        for &p in &self.scratch {
            ctx.send_policy(
                home,
                p,
                PolicyMsg::Poll {
                    from: home as u32,
                    token,
                    job_exec: job.exec_time,
                },
            );
        }
    }

    /// Answers an incoming poll with this cluster's status.
    pub fn answer_poll(
        ctx: &mut Ctx,
        cluster: usize,
        from: u32,
        token: u64,
        job_exec: gridscale_desim::SimTime,
    ) {
        let reply = PolicyMsg::PollReply {
            from: cluster as u32,
            token,
            avg_load: ctx.avg_load(cluster),
            awt: ctx.awt(cluster),
            ert: ctx.ert(job_exec),
            rus: ctx.rus(cluster),
        };
        ctx.send_policy(cluster, from as usize, reply);
    }

    /// Ingests a poll reply; when the last expected reply arrives, decides
    /// and places the held job. Returns `true` if the token belonged to
    /// this placer.
    #[allow(clippy::too_many_arguments, reason = "mirrors the PollReply fields")]
    pub fn on_reply(
        &mut self,
        ctx: &mut Ctx,
        token: u64,
        from: u32,
        avg_load: f64,
        awt: f64,
        ert: f64,
        rus: f64,
    ) -> bool {
        let Some(p) = self.pending.get_mut(&token) else {
            return false;
        };
        p.replies.push(Reply {
            cluster: from as usize,
            avg_load,
            att: awt + ert,
            rus,
        });
        if p.replies.len() < p.expected {
            return true;
        }
        let Some(p) = self.pending.remove(&token) else {
            return true;
        };
        self.decide(ctx, p);
        true
    }

    fn decide(&self, ctx: &mut Ctx, p: Pending) {
        let home = p.home;
        match self.rule {
            PlacementRule::LeastLoaded => {
                let local = ctx.avg_load(home);
                let best = p
                    .replies
                    .iter()
                    .min_by(|a, b| a.avg_load.total_cmp(&b.avg_load));
                match best {
                    Some(b) if b.avg_load < local => ctx.transfer(home, b.cluster, p.job),
                    _ => ctx.dispatch_least_loaded(home, p.job),
                }
            }
            PlacementRule::TurnaroundCost => {
                let psi = ctx.thresholds().psi;
                // Local candidate: AWT here + ERT of this very job.
                let local = Reply {
                    cluster: home,
                    avg_load: ctx.avg_load(home),
                    att: ctx.awt(home) + ctx.ert(p.job.exec_time),
                    rus: ctx.rus(home),
                };
                let mut cands: Vec<Reply> = Vec::with_capacity(p.replies.len() + 1);
                cands.push(local);
                cands.extend(p.replies.iter().copied());
                let min_att = cands.iter().map(|r| r.att).fold(f64::INFINITY, f64::min);
                // All candidates within ψ of the optimum; smallest RUS wins
                // (ties → the earliest listed, i.e. prefer local).
                // The ψ band always retains the min_att candidate, so the
                // filter is nonempty; `local` is the defensive fallback.
                let winner = cands
                    .iter()
                    .filter(|r| r.att <= min_att + psi)
                    .min_by(|a, b| a.rus.total_cmp(&b.rus))
                    .copied()
                    .unwrap_or(local);
                if winner.cluster == home {
                    ctx.dispatch_least_loaded(home, p.job);
                } else {
                    ctx.transfer(home, winner.cluster, p.job);
                }
            }
        }
    }
}
