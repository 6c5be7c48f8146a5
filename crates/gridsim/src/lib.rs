//! # gridscale-gridsim
//!
//! The managed-Grid simulation model of the paper's §3.1, built on
//! [`gridscale_desim`]:
//!
//! * a **resource pool (RP)** — the *managee*: homogeneous resources with
//!   finite service rate executing a synthetic workload FIFO;
//! * a **resource management system (RMS)** — the *manager*: per-cluster
//!   schedulers (and, for Case 3, status *estimators*) modelled as
//!   single-server FIFO queues whose busy time **is** the RMS overhead
//!   `G(k)`;
//! * **status dissemination** — resources push periodic load updates
//!   (interval τ, with change-suppression as in the paper: "an update might
//!   be suppressed"), optionally via estimators that batch-forward;
//! * **message transport** — every message is routed over the topology and
//!   delayed by propagation (scaled by the link-delay enabler) plus
//!   transmission, with an optional middleware queueing stage for the
//!   S-I/R-I/Sy-I family;
//! * **accounting** — useful work `F` (service demand of jobs that finish
//!   within their `U_b` benefit deadline), RMS overhead `G` (scheduler +
//!   estimator busy time), RP overhead `H` (per-job control cost), and the
//!   efficiency `E = F/(F+G+H)`.
//!
//! RMS *policies* (CENTRAL, LOWEST, … — crate `gridscale-rms`) plug in via
//! the [`Policy`] trait; this crate is policy-agnostic machinery.
//!
//! # Module map
//!
//! Each subsystem owns its slice of the per-run state and communicates
//! with the others only through the shared event queue:
//!
//! | module | owns | paper concept |
//! |---|---|---|
//! | `world` | topology, routing, trace, placement layout | the Grid |
//! | `net` | link fabric, middleware queue | message transport (§3.3) |
//! | `flow` | per-lane flow books over virtual links | bandwidth contention (Case 5) |
//! | `sched` | scheduler stations + stale views | RMS workers, `G(k)` |
//! | `resource` | run queues, execution, DAG release | RP, `F(k)`/`H(k)` |
//! | `estimator` | status batching | Case-3 estimators |
//! | `accounting` | the F/G/H ledger → [`SimReport`] | `E = F/(F+G+H)` |
//! | `kernel` | event routing, policy trampoline | — |
//! | `fel` | lane-keyed scheduling, cross-shard routing | — |
//! | `ctx` | capability-scoped policy API | policy decision costs |
//! | `sim` | templates, pooling, run paths, sharded executor | repeated measurements |

#![warn(missing_docs)]
// A panic mid-replay tears a sharded run down at a scheduling-dependent
// point, so each panic site left states its invariant in an `#[expect]`.
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

mod accounting;
mod config;
mod ctx;
mod estimator;
mod event;
mod fel;
mod flow;
mod kernel;
mod msg;
mod net;
mod policy;
mod report;
mod resource;
mod sched;
mod sim;
pub mod timeline;
mod view;
mod world;

pub use config::{BandwidthConfig, Enablers, GridConfig, OverheadCosts, Thresholds, TopologySpec};
pub use ctx::{Clock, Comms, Ctx, Dispatch, Telemetry, Timers};
pub use event::{GridEvent, WorkItem};
pub use gridscale_desim::{QueueDiscipline, QueueTelemetry};
pub use msg::{Msg, PolicyMsg};
pub use policy::{LocalOnly, Policy};
pub use report::SimReport;
pub use sim::{run_simulation, QueueSummary, ReplayStats, ShardSummary, SimTemplate};
pub use timeline::{Sample, Timeline};
pub use view::{ClusterView, ResourceView};
