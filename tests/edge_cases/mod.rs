//! Configurations at the edges of the status-update and arrival
//! machinery, shared by the golden fixture and the sharded differential
//! suite: each pins one corner of when a resource's status tick sends,
//! when it is suppressed, and how ticks order against other events.

use gridscale::prelude::*;

/// One edge configuration: a name (fixture key suffix, failure label)
/// and the change it makes to a base configuration.
pub type EdgeCase = (&'static str, fn(&mut GridConfig));

/// The edge configurations. The one-cluster-lane case is not a change
/// to the config but a policy: each caller also runs CENTRAL, whose one
/// scheduler puts every resource on a single lane.
pub const EDGE_CASES: [EdgeCase; 5] = [
    // Every tick sends: no tick is ever suppressed.
    ("suppress0", |c| c.thresholds.suppress_delta = 0.0),
    // No tick ever sends: every tick is suppressed.
    ("suppress1e9", |c| c.thresholds.suppress_delta = 1e9),
    // A tick every tick: same-tick ties between one lane's ticks and
    // its other events.
    ("tau1", |c| c.enablers.update_interval = 1),
    // τ beyond the horizon: each resource ticks at most once, at its
    // stagger.
    ("tau-past-horizon", |c| {
        c.enablers.update_interval = c.horizon().ticks() + 1_000;
    }),
    // Precedence: only the roots arrive on schedule, the rest are
    // released as their parents complete.
    ("dag", |c| c.dag_edge_prob = 0.3),
];
