//! MI-MA(ada): the online, contention-adaptive variant of [`Dpm`].
//!
//! Identical machinery — greedy partition merging over serpentine
//! realizations, two-phase gathered acks — but the cost law is *loaded*:
//! every hop of a candidate path is surcharged in proportion to the
//! measured occupancy of the link it crosses, read from the network's
//! [`LinkLoadMeter`] summary. The effect is twofold:
//!
//! * **steer** — a merge whose serpentine crosses hot columns prices
//!   higher than staying split, so the greedy loop refuses it and the
//!   resulting worms route around the congestion (split partitions use
//!   shorter, different paths);
//! * **re-order** — worms are injected longest-loaded-flight first, so
//!   the home's serial `dc_send` occupancy delays the cheap worms, not
//!   the one gating the makespan.
//!
//! Determinism: the scheme reads only *committed* meter windows — deltas
//! of the `NetStats::link_busy` counters taken at fixed window
//! boundaries. Fast-forward and snapshot/resume both preserve those
//! counters cycle-for-cycle, so the same run history always yields the
//! same plans (asserted end-to-end in `tests/full_stack.rs` and the
//! `repro` H9 study).
//!
//! With no meter attached (or before the first window commits) every
//! penalty is zero and the scheme degenerates to exactly [`Dpm`] plus the
//! (then no-op) injection re-ordering.

use super::dpm::assemble_plan;
use super::{InvalidationScheme, SchemeKind};
use crate::plan::InvalPlan;
use wormdsm_mesh::network::LinkLoadMeter;
use wormdsm_mesh::routing::BaseRouting;
use wormdsm_mesh::topology::{Direction, Mesh2D, NodeId};
use wormdsm_sim::Cycle;

/// Link-load summary window the scheme asks the system to attach, cycles.
/// Long enough to smooth flit-level burstiness, short enough to track
/// phase changes in the workload.
pub(crate) const FEEDBACK_WINDOW: Cycle = 1024;

/// Hop surcharge at full link utilization, cycles. A fully busy link
/// (1000 milli-occupancy) prices like `LOAD_PENALTY` extra routers on the
/// path; a cold link adds nothing.
pub(crate) const LOAD_PENALTY: u64 = 8;

/// Per-hop penalty from the committed window: milli-occupancy of the
/// link leaving node index `from` in direction `dir`, scaled to cycles.
pub(crate) fn hop_penalty(load: &LinkLoadMeter, from: usize, dir: Direction) -> u64 {
    load.load_milli(from * 4 + dir.index()) * LOAD_PENALTY / 1000
}

/// Contention-adaptive Multidestination Invalidation, two-phase
/// Multidestination Acknowledgment.
#[derive(Debug, Clone, Copy, Default)]
pub struct MiMaAdaptive;

impl InvalidationScheme for MiMaAdaptive {
    fn name(&self) -> &'static str {
        SchemeKind::MiMaAdaptive.name()
    }

    fn kind(&self) -> SchemeKind {
        SchemeKind::MiMaAdaptive
    }

    fn compatible_with(&self, routing: BaseRouting) -> bool {
        routing == BaseRouting::TurnModel
    }

    fn plan(&self, mesh: &Mesh2D, home: NodeId, sharers: &[NodeId]) -> InvalPlan {
        assemble_plan(mesh, home, sharers, None, true)
    }

    fn feedback_window(&self) -> Option<Cycle> {
        Some(FEEDBACK_WINDOW)
    }

    fn plan_with_load(
        &self,
        mesh: &Mesh2D,
        home: NodeId,
        sharers: &[NodeId],
        load: Option<&LinkLoadMeter>,
    ) -> InvalPlan {
        match load {
            Some(meter) if meter.commits() > 0 => {
                assemble_plan(mesh, home, sharers, Some(meter), true)
            }
            _ => self.plan(mesh, home, sharers),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::validate_plan;
    use crate::schemes::Dpm;
    use wormdsm_mesh::routing::{is_conformant, PathRule};

    fn m8() -> Mesh2D {
        Mesh2D::square(8)
    }

    fn sharers(m: &Mesh2D) -> Vec<NodeId> {
        [(0, 1), (2, 6), (4, 2), (5, 5), (7, 3)].iter().map(|&(x, y)| m.node_at(x, y)).collect()
    }

    #[test]
    fn unloaded_plan_covers_like_dpm() {
        let m = m8();
        let home = m.node_at(3, 4);
        let s = sharers(&m);
        let plan = MiMaAdaptive.plan(&m, home, &s);
        validate_plan(&plan, &s).unwrap();
        // Same partitioning as DPM — only injection order may differ.
        let dpm = Dpm.plan(&m, home, &s);
        assert_eq!(plan.request_worms.len(), dpm.request_worms.len());
        let key = |p: &InvalPlan| {
            let mut v: Vec<Vec<NodeId>> = p.request_worms.iter().map(|w| w.dests.clone()).collect();
            v.sort();
            v
        };
        assert_eq!(key(&plan), key(&dpm));
    }

    #[test]
    fn empty_meter_is_identical_to_unloaded_plan() {
        let m = m8();
        let home = m.node_at(3, 4);
        let s = sharers(&m);
        let meter = LinkLoadMeter::new(m.nodes(), FEEDBACK_WINDOW);
        assert_eq!(meter.commits(), 0);
        let with = MiMaAdaptive.plan_with_load(&m, home, &s, Some(&meter));
        let without = MiMaAdaptive.plan_with_load(&m, home, &s, None);
        assert_eq!(with, without);
    }

    #[test]
    fn loaded_plans_stay_valid_and_conformant() {
        let m = m8();
        let home = m.node_at(3, 4);
        let s = sharers(&m);
        // Synthetic meter: saturate every eastbound link on row 2 and
        // force a commit by observing past the first boundary.
        let mut meter = LinkLoadMeter::new(m.nodes(), 64);
        let mut busy = vec![0u64; m.nodes() * 4];
        for x in 0..8 {
            busy[m.node_at(x, 2).idx() * 4] = 64; // East = index 0.
        }
        meter.observe(64, &busy);
        assert_eq!(meter.commits(), 1);
        let plan = MiMaAdaptive.plan_with_load(&m, home, &s, Some(&meter));
        validate_plan(&plan, &s).unwrap();
        for w in &plan.request_worms {
            assert!(is_conformant(PathRule::WestFirst, &m, home, &w.dests), "{:?}", w.dests);
        }
    }
}
