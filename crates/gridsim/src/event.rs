//! The simulator's event alphabet and scheduler work items.
//!
//! Every subsystem — network fabric, scheduler service stations, resource
//! pool, estimators — communicates exclusively by scheduling
//! [`GridEvent`]s on the shared DES queue; none of them call each other
//! directly across time. This file is the complete vocabulary of those
//! interactions.

use crate::msg::{Msg, PolicyMsg};
use gridscale_topology::NodeId;
use gridscale_workload::Job;

/// A unit of RMS work queued at a scheduler's single-server queue.
#[derive(Debug, Clone)]
pub enum WorkItem {
    /// A freshly submitted job: receive + make a scheduling decision.
    Job(Job),
    /// A job transferred in from another cluster.
    TransferIn(Job),
    /// A direct status update from a resource (global resource index).
    Update {
        /// Reporting resource.
        res: u32,
        /// Reported jobs-in-system.
        load: f64,
    },
    /// A batched set of updates relayed by an estimator.
    Batch(Vec<(u32, f64)>),
    /// An inter-scheduler policy message.
    Policy(PolicyMsg),
    /// A policy timer armed via [`Timers::set_timer`](crate::Timers::set_timer).
    Timer(u64),
}

/// The simulator's event alphabet.
#[derive(Debug, Clone)]
pub enum GridEvent {
    /// The `i`-th trace job arrives at its submission host.
    Arrival(u32),
    /// A network message reaches its destination node.
    Deliver {
        /// Destination node.
        to: NodeId,
        /// Payload.
        msg: Msg,
    },
    /// The running job at a resource completes.
    Finish {
        /// Global resource index.
        res: u32,
    },
    /// A resource's periodic status-update timer fires. Only a tick
    /// that could send is queued; one that can only be suppressed is
    /// held in its lane's ring and folded into the lane's stream at the
    /// same key (DESIGN.md §3.1, "The frontier queue").
    UpdateTick {
        /// Global resource index.
        res: u32,
    },
    /// An estimator's batch-forward timer fires.
    EstFlush {
        /// Estimator index.
        est: u32,
    },
    /// A scheduler finishes processing a work item (its effects happen now).
    SchedWork {
        /// Cluster index of the scheduler.
        sched: u32,
        /// The item processed.
        item: WorkItem,
        /// Service time of the item, charged to `G` on completion — work
        /// still queued when the horizon ends is never charged, so a
        /// saturated scheduler's `G` is bounded by wall-clock busy time.
        cost: f64,
    },
    /// A policy timer fires (it is then queued as scheduler work).
    PolicyTimer {
        /// Cluster index.
        cluster: u32,
        /// Policy-defined tag.
        tag: u64,
    },
    /// The timeline recorder samples system state.
    Sample,
}

impl GridEvent {
    /// Packs the event into one 64-bit word for the event-stream
    /// fingerprint: variant kind in the top byte, a variant-specific
    /// refinement (message/work-item discriminant or timer tag) in the
    /// next 24 bits, and the target index in the low 32.
    ///
    /// The word deliberately omits float payloads (loads, costs): they
    /// are *consequences* of the delivery order the fingerprint pins
    /// down, and folding `(at, seq, word)` per event already
    /// discriminates streams that diverge in any way that matters —
    /// a divergent float implies an earlier divergent delivery.
    pub fn fp_word(&self) -> u64 {
        let (kind, extra, target) = match self {
            GridEvent::Arrival(i) => (1u64, 0u64, *i),
            GridEvent::Deliver { to, msg } => (2, msg_code(msg), *to),
            GridEvent::Finish { res } => (3, 0, *res),
            GridEvent::UpdateTick { res } => (4, 0, *res),
            GridEvent::EstFlush { est } => (5, 0, *est),
            GridEvent::SchedWork { sched, item, .. } => (6, item_code(item), *sched),
            GridEvent::PolicyTimer { cluster, tag } => (7, tag & 0xff_ffff, *cluster),
            GridEvent::Sample => (8, 0, 0),
        };
        (kind << 56) | ((extra & 0xff_ffff) << 32) | target as u64
    }
}

/// Fingerprint refinement for a network message: payload family plus the
/// policy-message discriminant where applicable.
fn msg_code(msg: &Msg) -> u64 {
    match msg {
        Msg::StatusUpdate { .. } => 1,
        Msg::StatusBatch { .. } => 2,
        Msg::Dispatch { .. } => 3,
        Msg::Transfer { .. } => 4,
        Msg::Submit { .. } => 5,
        Msg::Recall { .. } => 6,
        Msg::Policy(p) => 0x100 | policy_code(p),
    }
}

/// Fingerprint refinement for inter-scheduler policy traffic.
fn policy_code(p: &PolicyMsg) -> u64 {
    match p {
        PolicyMsg::Poll { .. } => 1,
        PolicyMsg::PollReply { .. } => 2,
        PolicyMsg::Reserve { .. } => 3,
        PolicyMsg::ReserveCancel { .. } => 4,
        PolicyMsg::ReserveProbe { .. } => 5,
        PolicyMsg::ReserveProbeReply { .. } => 6,
        PolicyMsg::AuctionInvite { .. } => 7,
        PolicyMsg::Bid { .. } => 8,
        PolicyMsg::AuctionAward { .. } => 9,
        PolicyMsg::Volunteer { .. } => 10,
        PolicyMsg::DemandRequest { .. } => 11,
        PolicyMsg::DemandReply { .. } => 12,
        PolicyMsg::LoadReport { .. } => 13,
        PolicyMsg::PlaceRequest { .. } => 14,
        PolicyMsg::PlaceReply { .. } => 15,
    }
}

/// Fingerprint refinement for scheduler work items.
fn item_code(item: &WorkItem) -> u64 {
    match item {
        WorkItem::Job(_) => 1,
        WorkItem::TransferIn(_) => 2,
        WorkItem::Update { .. } => 3,
        WorkItem::Batch(_) => 4,
        WorkItem::Policy(p) => 0x100 | policy_code(p),
        WorkItem::Timer(tag) => 0x200 | (tag & 0xffff),
    }
}
