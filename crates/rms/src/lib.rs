//! # gridscale-rms
//!
//! The seven resource-management-system models the paper evaluates (§3.3),
//! re-implemented as [`gridscale_gridsim::Policy`] plug-ins:
//!
//! | Model | Style | Source cited by the paper |
//! |---|---|---|
//! | [`Central`]  | centralized                 | — |
//! | [`Lowest`]   | distributed, PULL (polling) | Zhou \[17\] |
//! | [`Reserve`]  | distributed, reservations   | Zhou \[17\] |
//! | [`Auction`]  | distributed, PUSH+PULL      | Leland & Ott \[24\] |
//! | [`SenderInit`] (S-I)   | sender-initiated, middleware   | Shan et al. \[6\] |
//! | [`ReceiverInit`] (R-I) | receiver-initiated, middleware | Shan et al. \[6\] |
//! | [`Symmetric`] (Sy-I)   | symmetric hybrid, middleware   | Shan et al. \[6\] |
//!
//! As in the paper, all models share the LOCAL-job rule (least-loaded
//! resource of the submission cluster) and differ in how REMOTE jobs and
//! load imbalance are handled. The paper notes its implementations "do not
//! completely match the native models used in the above papers" — the same
//! holds here; they are re-expressions on the shared Grid model.
//!
//! [`RmsKind`] enumerates the models for experiment drivers;
//! [`RmsKind::build`] instantiates them as `Box<dyn Policy>` trait
//! objects, and [`RmsKind::build_static`] as the statically dispatched
//! [`RmsPolicy`] enum used on measurement hot paths.

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

mod auction;
pub mod baselines;
mod central;
mod dispatch;
mod hierarchical;
mod lowest;
pub mod polling;
mod reserve;
mod ri;
mod si;
mod syi;

pub use auction::Auction;
pub use baselines::{RandomPlacement, Threshold};
pub use central::Central;
pub use dispatch::RmsPolicy;
pub use hierarchical::Hierarchical;
pub use lowest::Lowest;
pub use reserve::Reserve;
pub use ri::ReceiverInit;
pub use si::SenderInit;
pub use syi::Symmetric;

use gridscale_desim::json::{Json, ToJson};
use gridscale_gridsim::Policy;

/// The seven RMS models, as experiment-driver-friendly values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RmsKind {
    /// Centralized scheduler for the whole pool.
    Central,
    /// Per-cluster schedulers, random polling of `L_p` peers (Zhou).
    Lowest,
    /// Reservation registration by under-loaded schedulers (Zhou).
    Reserve,
    /// Auctions triggered by idle resources (Leland & Ott).
    Auction,
    /// Sender-initiated superscheduling via middleware (Shan et al.).
    SenderInit,
    /// Receiver-initiated volunteering via middleware (Shan et al.).
    ReceiverInit,
    /// Symmetric combination of S-I and R-I (Shan et al.).
    Symmetric,
    /// Extension (paper future-work (a)): two-level scheduler hierarchy
    /// with a super-scheduler aggregating child load reports. Not part of
    /// the paper's seven evaluated models ([`RmsKind::ALL`]).
    Hierarchical,
}

impl RmsKind {
    /// All seven models in the paper's presentation order.
    pub const ALL: [RmsKind; 7] = [
        RmsKind::Central,
        RmsKind::Lowest,
        RmsKind::Reserve,
        RmsKind::Auction,
        RmsKind::SenderInit,
        RmsKind::ReceiverInit,
        RmsKind::Symmetric,
    ];

    /// The paper's seven models plus the hierarchical extension.
    pub const EXTENDED: [RmsKind; 8] = [
        RmsKind::Central,
        RmsKind::Lowest,
        RmsKind::Reserve,
        RmsKind::Auction,
        RmsKind::SenderInit,
        RmsKind::ReceiverInit,
        RmsKind::Symmetric,
        RmsKind::Hierarchical,
    ];

    /// The paper's display name.
    pub fn name(self) -> &'static str {
        match self {
            RmsKind::Central => "CENTRAL",
            RmsKind::Lowest => "LOWEST",
            RmsKind::Reserve => "RESERVE",
            RmsKind::Auction => "AUCTION",
            RmsKind::SenderInit => "S-I",
            RmsKind::ReceiverInit => "R-I",
            RmsKind::Symmetric => "Sy-I",
            RmsKind::Hierarchical => "HIER",
        }
    }

    /// Parses a paper display name (case-insensitive).
    pub fn from_name(s: &str) -> Option<RmsKind> {
        RmsKind::EXTENDED
            .iter()
            .copied()
            .find(|k| k.name().eq_ignore_ascii_case(s))
    }

    /// True for the models whose inter-scheduler traffic goes through the
    /// Grid middleware (the Shan et al. family).
    pub fn uses_middleware(self) -> bool {
        matches!(
            self,
            RmsKind::SenderInit | RmsKind::ReceiverInit | RmsKind::Symmetric
        )
    }

    /// True for a centralized manager (one scheduler for the whole pool).
    pub fn is_centralized(self) -> bool {
        self == RmsKind::Central
    }

    /// Instantiates a fresh policy object.
    pub fn build(self) -> Box<dyn Policy> {
        match self {
            RmsKind::Central => Box::new(Central),
            RmsKind::Lowest => Box::new(Lowest::default()),
            RmsKind::Reserve => Box::new(Reserve::default()),
            RmsKind::Auction => Box::new(Auction::default()),
            RmsKind::SenderInit => Box::new(SenderInit::default()),
            RmsKind::ReceiverInit => Box::new(ReceiverInit::default()),
            RmsKind::Symmetric => Box::new(Symmetric::default()),
            RmsKind::Hierarchical => Box::new(Hierarchical::default()),
        }
    }
}

/// Written as its variant name.
impl ToJson for RmsKind {
    fn to_json(&self) -> Json {
        Json::Str(format!("{self:?}"))
    }
}

impl std::fmt::Display for RmsKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip() {
        for k in RmsKind::EXTENDED {
            assert_eq!(RmsKind::from_name(k.name()), Some(k));
            assert_eq!(k.build().name(), k.name());
        }
        assert_eq!(RmsKind::from_name("sy-i"), Some(RmsKind::Symmetric));
        assert_eq!(RmsKind::from_name("nope"), None);
    }

    #[test]
    fn middleware_family() {
        assert!(RmsKind::SenderInit.uses_middleware());
        assert!(RmsKind::ReceiverInit.uses_middleware());
        assert!(RmsKind::Symmetric.uses_middleware());
        assert!(!RmsKind::Lowest.uses_middleware());
        assert!(!RmsKind::Central.uses_middleware());
        for k in RmsKind::ALL {
            assert_eq!(
                k.build().uses_middleware(),
                k.uses_middleware(),
                "{k} policy/middleware flag mismatch"
            );
        }
    }

    #[test]
    fn only_central_is_centralized() {
        assert!(RmsKind::Central.is_centralized());
        assert_eq!(
            RmsKind::ALL.iter().filter(|k| k.is_centralized()).count(),
            1
        );
    }

    #[test]
    fn paper_set_is_exactly_seven() {
        assert_eq!(RmsKind::ALL.len(), 7);
        assert!(!RmsKind::ALL.contains(&RmsKind::Hierarchical));
        assert_eq!(RmsKind::EXTENDED.len(), 8);
        assert_eq!(RmsKind::from_name("HIER"), Some(RmsKind::Hierarchical));
    }
}
