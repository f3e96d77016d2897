//! Invalidation grouping schemes — the paper's contribution.
//!
//! Each scheme maps an invalidation transaction (home node + sharer set)
//! onto a set of base-routing-conformant worms for the request phase and a
//! per-sharer acknowledgement discipline for the ack phase:
//!
//! | scheme | framework | request worms | acknowledgements |
//! |---|---|---|---|
//! | [`UiUa`] | UI-UA | `d` unicasts | `d` unicast acks |
//! | [`MiUaCol`] | MI-UA | 1 multicast per column group | `d` unicast acks |
//! | [`MiMaCol`] | MI-MA | i-reserve worm per column group | 1 i-gather per group to home |
//! | [`MiMaTree`] | MI-MA | 1-2 row relay worms; delegates inject column worms | 1 i-gather per group to home |
//! | [`MiMaTwoPhase`] | MI-MA | i-reserve worm per column group | per-group gathers deposit at home-column i-ack buffers; <= 2 sweep gathers reach home |
//! | [`MiUaWf`] | MI-UA (turn model) | 1 serpentine worm (2 if the west column straddles) | `d` unicast acks |
//! | [`MiMaWf`] | MI-MA (turn model) | 1 serpentine i-reserve worm | two-phase deposits + sweeps |
//! | [`Dpm`] | MI-MA (turn model) | greedily merged serpentine partitions | two-phase deposits + sweeps |
//! | [`MiMaAdaptive`] | MI-MA (turn model) | load-steered merged serpentine partitions | two-phase deposits + sweeps |

pub mod grouping;

mod dpm;
mod mi_ma_adaptive;
mod mi_ma_col;
mod mi_ma_tree;
mod mi_ma_two_phase;
mod mi_ma_wf;
mod mi_ua_col;
mod mi_ua_wf;
mod two_phase_acks;
mod ui_ua;

pub use dpm::{dpm_partitions, partition_plan_cost, worm_cost, Dpm};
pub use mi_ma_adaptive::MiMaAdaptive;
pub use mi_ma_col::MiMaCol;
pub use mi_ma_tree::MiMaTree;
pub use mi_ma_two_phase::MiMaTwoPhase;
pub use mi_ma_wf::MiMaWf;
pub use mi_ua_col::MiUaCol;
pub use mi_ua_wf::MiUaWf;
pub use ui_ua::UiUa;

use crate::plan::InvalPlan;
use wormdsm_mesh::network::LinkLoadMeter;
use wormdsm_mesh::routing::BaseRouting;
use wormdsm_mesh::topology::{Mesh2D, NodeId};
use wormdsm_sim::Cycle;

/// A grouping scheme: turns (home, sharers) into an invalidation plan.
///
/// `sharers` excludes the writer and the home node itself (the system
/// handles those locally) and is never empty.
pub trait InvalidationScheme: Send + Sync {
    /// Human-readable name (used in experiment output).
    fn name(&self) -> &'static str;

    /// The scheme's enum tag.
    fn kind(&self) -> SchemeKind;

    /// True when the scheme's worms are conformant under `routing`.
    fn compatible_with(&self, routing: BaseRouting) -> bool;

    /// Build the plan for one invalidation transaction.
    fn plan(&self, mesh: &Mesh2D, home: NodeId, sharers: &[NodeId]) -> InvalPlan;

    /// Window length (cycles) of the link-load summary this scheme wants,
    /// or `None` for purely static schemes.
    ///
    /// When `Some(w)`, the system attaches a [`LinkLoadMeter`] with window
    /// `w` to the network and passes it to [`plan_with_load`] on every
    /// invalidation. The meter reads only *committed* windows of the
    /// `link_busy` counters, so plans are a pure function of the run's
    /// history.
    ///
    /// [`plan_with_load`]: InvalidationScheme::plan_with_load
    fn feedback_window(&self) -> Option<Cycle> {
        None
    }

    /// Build the plan, optionally consulting a committed link-load summary.
    ///
    /// Static schemes ignore `load` (the default forwards to [`plan`]);
    /// adaptive schemes use it to steer groups away from congested links.
    ///
    /// [`plan`]: InvalidationScheme::plan
    fn plan_with_load(
        &self,
        mesh: &Mesh2D,
        home: NodeId,
        sharers: &[NodeId],
        load: Option<&LinkLoadMeter>,
    ) -> InvalPlan {
        let _ = load;
        self.plan(mesh, home, sharers)
    }
}

/// Enumeration of the implemented schemes (the paper's six grouping
/// schemes plus the UI-UA baseline).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// Unicast invalidations, unicast acks (baseline).
    UiUa,
    /// Column multicast worms, unicast acks.
    MiUaCol,
    /// Column i-reserve worms, per-group i-gathers.
    MiMaCol,
    /// Row relay worm to delegates, delegate column worms, per-group
    /// i-gathers.
    MiMaTree,
    /// Column i-reserve worms, two-phase gather via home-column i-ack
    /// buffers.
    MiMaTwoPhase,
    /// West-first serpentine worm, unicast acks.
    MiUaWf,
    /// West-first serpentine i-reserve worm, two-phase gathers.
    MiMaWf,
    /// Dynamic partition merging: greedy adjacent merge of column
    /// partitions into serpentine worms, two-phase gathers.
    Dpm,
    /// Online DPM variant steered by the committed link-load summary.
    MiMaAdaptive,
}

impl SchemeKind {
    /// All schemes, baseline first.
    pub const ALL: [SchemeKind; 9] = [
        SchemeKind::UiUa,
        SchemeKind::MiUaCol,
        SchemeKind::MiMaCol,
        SchemeKind::MiMaTree,
        SchemeKind::MiMaTwoPhase,
        SchemeKind::MiUaWf,
        SchemeKind::MiMaWf,
        SchemeKind::Dpm,
        SchemeKind::MiMaAdaptive,
    ];

    /// Short name.
    pub fn name(self) -> &'static str {
        match self {
            SchemeKind::UiUa => "UI-UA",
            SchemeKind::MiUaCol => "MI-UA(col)",
            SchemeKind::MiMaCol => "MI-MA(col)",
            SchemeKind::MiMaTree => "MI-MA(tree)",
            SchemeKind::MiMaTwoPhase => "MI-MA(2ph)",
            SchemeKind::MiUaWf => "MI-UA(wf)",
            SchemeKind::MiMaWf => "MI-MA(wf)",
            SchemeKind::Dpm => "DPM",
            SchemeKind::MiMaAdaptive => "MI-MA(ada)",
        }
    }

    /// Inverse of [`name`](Self::name): resolve a scheme from its short
    /// name, case-insensitively and ignoring surrounding whitespace
    /// (`"mi-ma(tree)"`, `" DPM "`). This is the single parse point for
    /// every external surface that names schemes as strings — CLI args,
    /// farm job submissions — so a new scheme added to [`ALL`](Self::ALL)
    /// becomes parseable without touching callers.
    pub fn parse(s: &str) -> Option<Self> {
        let t = s.trim();
        Self::ALL.into_iter().find(|k| k.name().eq_ignore_ascii_case(t))
    }

    /// The base routing the scheme is designed for.
    ///
    /// Exhaustive on purpose: adding a scheme must force a decision here
    /// rather than silently inheriting e-cube via a wildcard.
    pub fn natural_routing(self) -> BaseRouting {
        match self {
            SchemeKind::UiUa
            | SchemeKind::MiUaCol
            | SchemeKind::MiMaCol
            | SchemeKind::MiMaTree
            | SchemeKind::MiMaTwoPhase => BaseRouting::ECube,
            SchemeKind::MiUaWf
            | SchemeKind::MiMaWf
            | SchemeKind::Dpm
            | SchemeKind::MiMaAdaptive => BaseRouting::TurnModel,
        }
    }

    /// Instantiate the scheme.
    pub fn build(self) -> Box<dyn InvalidationScheme> {
        match self {
            SchemeKind::UiUa => Box::new(UiUa),
            SchemeKind::MiUaCol => Box::new(MiUaCol),
            SchemeKind::MiMaCol => Box::new(MiMaCol),
            SchemeKind::MiMaTree => Box::new(MiMaTree),
            SchemeKind::MiMaTwoPhase => Box::new(MiMaTwoPhase),
            SchemeKind::MiUaWf => Box::new(MiUaWf),
            SchemeKind::MiMaWf => Box::new(MiMaWf),
            SchemeKind::Dpm => Box::new(Dpm),
            SchemeKind::MiMaAdaptive => Box::new(MiMaAdaptive),
        }
    }
}

impl core::fmt::Display for SchemeKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-group gather construction shared by the MA column schemes: the
/// farthest member initiates a gather visiting the rest of the group
/// (far-to-near) and ending at `tail`.
pub(crate) fn group_gather_dests(group: &grouping::Group, tail: NodeId) -> Vec<NodeId> {
    let mut dests: Vec<NodeId> = group.members.iter().rev().skip(1).copied().collect();
    dests.push(tail);
    dests
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_schemes_build_and_name() {
        for k in SchemeKind::ALL {
            let s = k.build();
            assert_eq!(s.kind(), k);
            assert!(!s.name().is_empty());
            assert!(s.compatible_with(k.natural_routing()), "{k} incompatible with its routing");
        }
    }

    /// `parse` must round-trip every scheme's `name()` and stay total
    /// over the `ALL` list, so string surfaces (CLI, farm jobs) can never
    /// drift from the enum.
    #[test]
    fn parse_round_trips_every_scheme_name() {
        for k in SchemeKind::ALL {
            assert_eq!(SchemeKind::parse(k.name()), Some(k));
            assert_eq!(SchemeKind::parse(&k.name().to_ascii_lowercase()), Some(k));
            assert_eq!(SchemeKind::parse(&format!("  {}  ", k.name())), Some(k));
        }
        assert_eq!(SchemeKind::parse("MI-MA(nope)"), None);
        assert_eq!(SchemeKind::parse(""), None);
    }

    #[test]
    fn wf_schemes_need_turn_model() {
        assert!(!SchemeKind::MiUaWf.build().compatible_with(BaseRouting::ECube));
        assert!(!SchemeKind::MiMaWf.build().compatible_with(BaseRouting::ECube));
        // Column schemes are conformant under both.
        assert!(SchemeKind::MiMaCol.build().compatible_with(BaseRouting::TurnModel));
        assert!(SchemeKind::UiUa.build().compatible_with(BaseRouting::TurnModel));
    }

    #[test]
    fn group_gather_dest_order() {
        let g = grouping::Group { col: 2, members: vec![NodeId(10), NodeId(20), NodeId(30)] };
        // Initiator = farthest (30); dests = 20, 10, tail.
        assert_eq!(group_gather_dests(&g, NodeId(99)), vec![NodeId(20), NodeId(10), NodeId(99)]);
        let single = grouping::Group { col: 2, members: vec![NodeId(10)] };
        assert_eq!(group_gather_dests(&single, NodeId(99)), vec![NodeId(99)]);
    }
}
