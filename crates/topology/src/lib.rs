//! # gridscale-topology
//!
//! Network topology generation and routing for the gridscale Grid simulator.
//!
//! The paper extracts router-level Internet topologies from the **Mercator**
//! topology mapper and maps routers, schedulers, and resources onto them,
//! routing messages with an **OSPF-like** algorithm. Mercator maps are not
//! redistributable, so this crate substitutes synthetic generators that
//! reproduce the two properties the simulation is sensitive to:
//!
//! * **power-law degree distribution** — Barabási–Albert preferential
//!   attachment ([`generate::barabasi_albert`]);
//! * **geographic locality / hierarchy** — Waxman random graphs
//!   ([`generate::waxman`]) and transit-stub hierarchies
//!   ([`generate::transit_stub`]).
//!
//! Routing is link-state shortest-path ([`RoutingTable`]), i.e. exactly what
//! OSPF computes; the simulator only consumes per-pair latency and hop
//! counts, which are identical under any correct SPF implementation. Above
//! [`Routing::HIER_THRESHOLD`] nodes the exact all-pairs table no longer
//! fits in memory and [`Routing`] switches to the anchor-based two-level
//! model [`HierRouting`], keeping 10⁵–10⁶-node grids buildable. Both
//! models, and the spur searches behind the virtual links of
//! [`VlinkTable`], run one bucket-queue shortest-path kernel.
//!
//! [`GridMap`] performs the paper's "map elements such as routers,
//! schedulers, and resources to obtain Grid topologies" step: scheduler and
//! estimator roles are placed at the best-connected nodes and every resource
//! is assigned to its nearest scheduler, giving the non-overlapping clusters
//! the paper requires.

#![warn(missing_docs)]

pub mod generate;
mod graph;
mod hier;
mod map;
pub mod metrics;
mod route;
mod routing;
mod spf;
mod vlink;

pub use graph::{Graph, Link, NodeId};
pub use hier::HierRouting;
pub use map::{GridMap, NodeRole, Placement};
pub use metrics::GraphMetrics;
pub use route::Routing;
pub use routing::RoutingTable;
pub use vlink::{PathSpec, VlinkTable};
