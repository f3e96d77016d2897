//! DPM: dynamic partition merging (after "Efficient On-Chip Multicast
//! Routing based on Dynamic Partition Merging", adapted to the paper's
//! west-first serpentine worms).
//!
//! The static schemes pick their partition granularity up front: one worm
//! per column group (MI-MA(col)) or one serpentine over everything
//! (MI-MA(wf)). Neither is optimal in general — many small worms pay the
//! home's serial `dc_send` per worm, while one giant serpentine pays a
//! long snaking path. DPM interpolates: it starts from the per-column
//! partitions of [`column_groups`] and greedily merges *adjacent*
//! partitions whenever the merged serpentine realization lowers the plan's
//! closed-form completion estimate (the same contention-free law
//! `crates/analytic` uses, cross-validated in the tests below). Merging
//! never increases the worm count, so `home_sends <= d` is preserved, and
//! the greedy loop only accepts strictly improving merges, so the final
//! estimate is never worse than the unmerged starting point.
//!
//! The ack phase is untouched: two-phase gathered acknowledgements over
//! the original column groups, exactly as in MI-MA(wf) (a gather cannot
//! legally end at an interior home under west-first, and partition
//! merging only reshapes the *request* worms).
//!
//! Costs are estimated, not measured: the law prices each worm's solo
//! flight and the home's `dc_send` serialization, ignoring contention.
//! The adaptive variant ([`MiMaAdaptive`]) adds a measured per-link
//! penalty from a committed [`LinkLoadMeter`] window.
//!
//! Planning cost: [`worm_cost`] walks each destination segment in closed
//! form (no path materialization), and the greedy loop caches the
//! realization of every adjacent pair, re-realizing only the two pairs a
//! merge touches. A plan over `P` column partitions therefore realizes
//! `O(P)` serpentines instead of `O(P²)`. The straightforward
//! formulations (an `expand_path` hop walk and a loop that re-realizes
//! every candidate each iteration) live on as reference oracles in
//! `crates/core/tests/scheme_properties.rs`, which pins both outputs
//! equal to them.
//!
//! [`MiMaAdaptive`]: super::MiMaAdaptive
//! [`column_groups`]: super::grouping::column_groups

use super::grouping::{column_groups, serpentine, Group, SerpentineWorm};
use super::mi_ma_adaptive::hop_penalty;
use super::two_phase_acks::two_phase_acks;
use super::{InvalidationScheme, SchemeKind};
use crate::plan::{InvalPlan, PlannedWorm};
use wormdsm_mesh::network::LinkLoadMeter;
use wormdsm_mesh::routing::BaseRouting;
use wormdsm_mesh::topology::{Direction, Mesh2D, NodeId};
use wormdsm_mesh::worm::WormKind;

/// Router pipeline delay, cycles (mirrors `NetParams::router_delay`).
pub(crate) const ROUTER_DELAY: u64 = 4;
/// Header strip delay at an intermediate destination
/// (`NetParams::strip_delay`).
pub(crate) const STRIP_DELAY: u64 = 1;
/// Home DC send occupancy per injected worm (`CostModel::dc_send`).
pub(crate) const DC_SEND: u64 = 4;
/// Control-message length in flits (`MsgSizes::control`).
pub(crate) const CONTROL_FLITS: u64 = 8;
/// Extra header flits per 4 extra destinations
/// (`MsgSizes::per_extra_dest_x4`).
pub(crate) const PER_EXTRA_DEST_X4: u64 = 1;

/// The canonical west-first hop walk of one worm, one straight run at a
/// time: hop count plus the summed load penalty of the crossed links.
struct HopWalk<'a> {
    width: isize,
    load: Option<&'a LinkLoadMeter>,
    /// Node index the walk is at.
    at: usize,
    last: Option<Direction>,
    /// A non-west hop was taken (west hops are illegal from here on).
    turned: bool,
    hops: u64,
    penalty: u64,
}

impl HopWalk<'_> {
    /// Take `n` hops in `dir`, checking west-first legality once per run
    /// (every hop of a run after the first repeats `dir`, which is legal
    /// whenever the first hop was).
    fn run(&mut self, dir: Direction, n: usize) {
        if n == 0 {
            return;
        }
        assert!(
            self.last != Some(dir.opposite()) && !(dir == Direction::West && self.turned),
            "serpentine worms are west-first conformant"
        );
        let stride = match dir {
            Direction::East => 1,
            Direction::West => -1,
            Direction::North => -self.width,
            Direction::South => self.width,
        };
        match self.load {
            Some(load) => {
                for _ in 0..n {
                    self.penalty += hop_penalty(load, self.at, dir);
                    self.at = (self.at as isize + stride) as usize;
                }
            }
            None => self.at = (self.at as isize + stride * n as isize) as usize,
        }
        self.hops += n as u64;
        self.last = Some(dir);
        self.turned |= dir != Direction::West;
    }
}

/// Closed-form completion estimate of one serpentine worm injected at the
/// home: head latency over the canonical west-first path, strip delays at
/// every visited destination (waypoints included), plus the tail drain,
/// plus the committed per-hop load penalty when `load` is given. With no
/// load this equals the last entry of `analytic::solo_flight_latencies`
/// for the same worm, cycle-for-cycle.
///
/// The path is the one `expand_path` picks, walked segment by segment
/// without materializing it: the X run, then the Y run. The one exception
/// is an eastward segment entered right after a west hop, where the X hop
/// would be a reversal: the walk then takes one Y hop first, exactly as
/// the canonical expansion falls back to its second option.
pub fn worm_cost(
    mesh: &Mesh2D,
    home: NodeId,
    w: &SerpentineWorm,
    load: Option<&LinkLoadMeter>,
) -> u64 {
    let mut walk = HopWalk {
        width: mesh.width() as isize,
        load,
        at: home.idx(),
        last: None,
        turned: false,
        hops: 0,
        penalty: 0,
    };
    let mut cur = mesh.coord(home);
    for &d in &w.dests {
        let to = mesh.coord(d);
        let ydir = if to.y > cur.y { Direction::South } else { Direction::North };
        let mut dy = to.y.abs_diff(cur.y) as usize;
        if to.x < cur.x {
            walk.run(Direction::West, (cur.x - to.x) as usize);
        } else if to.x > cur.x {
            if walk.last == Some(Direction::West) && dy > 0 {
                walk.run(ydir, 1);
                dy -= 1;
            }
            walk.run(Direction::East, (to.x - cur.x) as usize);
        }
        walk.run(ydir, dy);
        cur = to;
    }
    let strips = (w.dests.len() as u64).saturating_sub(1);
    let delivering = w.deliver.iter().filter(|&&d| d).count() as u64;
    let len_flits = CONTROL_FLITS + delivering.saturating_sub(1).div_ceil(4) * PER_EXTRA_DEST_X4;
    (walk.hops + 1) * ROUTER_DELAY + strips * STRIP_DELAY + len_flits + walk.penalty
}

/// Realize one partition (a sharer subset) as serpentine worms with their
/// estimated costs.
fn realize(
    mesh: &Mesh2D,
    home: NodeId,
    members: &[NodeId],
    load: Option<&LinkLoadMeter>,
) -> Vec<(SerpentineWorm, u64)> {
    serpentine(mesh, home, members)
        .into_iter()
        .map(|w| {
            let c = worm_cost(mesh, home, &w, load);
            (w, c)
        })
        .collect()
}

/// Plan completion estimate for worm costs in injection order: worm `j`
/// leaves the home DC at `(j+1) * dc_send` (serial send occupancy) and
/// completes its flight `cost_j` cycles later; the plan completes when the
/// slowest worm does.
fn makespan(costs: &[u64]) -> u64 {
    costs.iter().enumerate().map(|(j, &c)| (j as u64 + 1) * DC_SEND + c).max().unwrap_or(0)
}

/// One partition during merging: its members plus the cached realization.
struct Partition {
    members: Vec<NodeId>,
    realized: Vec<(SerpentineWorm, u64)>,
}

impl Partition {
    fn new(
        mesh: &Mesh2D,
        home: NodeId,
        members: Vec<NodeId>,
        load: Option<&LinkLoadMeter>,
    ) -> Self {
        Partition { realized: realize(mesh, home, &members, load), members }
    }

    /// The partition `a ∪ b`, members in `a`-then-`b` order.
    fn merged(
        mesh: &Mesh2D,
        home: NodeId,
        a: &Partition,
        b: &Partition,
        load: Option<&LinkLoadMeter>,
    ) -> Self {
        let mut members = Vec::with_capacity(a.members.len() + b.members.len());
        members.extend_from_slice(&a.members);
        members.extend_from_slice(&b.members);
        Partition::new(mesh, home, members, load)
    }

    /// Latest completion among this partition's worms when its first worm
    /// is the plan's `first`-th injection (the [`makespan`] terms).
    fn finish(&self, first: usize) -> u64 {
        self.realized
            .iter()
            .enumerate()
            .map(|(k, &(_, c))| (first + k + 1) as u64 * DC_SEND + c)
            .max()
            .unwrap_or(0)
    }
}

/// Greedy adjacent partition merging. Starts from the [`column_groups`]
/// partitions (in their deterministic emission order) and repeatedly
/// applies the adjacent merge with the largest strict improvement in
/// [`makespan`] (ties broken toward the lowest index) until no merge
/// improves. Deterministic: pure function of the mesh geometry, the
/// groups, and the (optional) load window.
///
/// Incremental: `pairs[i]` caches the realization of merge candidate `i`
/// (`parts[i] ∪ parts[i+1]`), so applying merge `i` re-realizes only the
/// candidates `i-1` and `i` that now border the merged partition. Each
/// candidate's makespan is the max of three terms — the untouched prefix,
/// the merged worms at their injection slots, and the untouched suffix
/// shifted by the change in worm count — so no cost vector is rebuilt.
fn merge_partitions(
    mesh: &Mesh2D,
    home: NodeId,
    groups: &[Group],
    load: Option<&LinkLoadMeter>,
) -> Vec<Partition> {
    let mut parts: Vec<Partition> =
        groups.iter().map(|g| Partition::new(mesh, home, g.members.clone(), load)).collect();
    let mut pairs: Vec<Partition> =
        parts.windows(2).map(|w| Partition::merged(mesh, home, &w[0], &w[1], load)).collect();
    // starts[i]: injection slot of parts[i]'s first worm; suffix[i]:
    // latest completion among parts[i..] at their current slots.
    let mut starts: Vec<usize> = Vec::with_capacity(parts.len());
    let mut suffix: Vec<u64> = Vec::with_capacity(parts.len() + 1);
    loop {
        starts.clear();
        let mut slot = 0;
        for p in &parts {
            starts.push(slot);
            slot += p.realized.len();
        }
        suffix.clear();
        suffix.resize(parts.len() + 1, 0);
        for i in (0..parts.len()).rev() {
            suffix[i] = suffix[i + 1].max(parts[i].finish(starts[i]));
        }
        let current = suffix[0];
        let mut best: Option<(usize, u64)> = None;
        let mut prefix = 0;
        for (i, merged) in pairs.iter().enumerate() {
            let replaced = (parts[i].realized.len() + parts[i + 1].realized.len()) as u64;
            let added = merged.realized.len() as u64;
            // Every worm after the pair moves by `added - replaced` slots.
            // The subtraction cannot underflow: a suffix term is at least
            // `(starts[i] + replaced + 1) * DC_SEND`.
            let rest = if i + 2 < parts.len() {
                suffix[i + 2] + added * DC_SEND - replaced * DC_SEND
            } else {
                0
            };
            let candidate = prefix.max(merged.finish(starts[i])).max(rest);
            if candidate < current && best.is_none_or(|(_, b)| candidate < b) {
                best = Some((i, candidate));
            }
            prefix = prefix.max(parts[i].finish(starts[i]));
        }
        let Some((i, _)) = best else { return parts };
        parts[i] = pairs.remove(i);
        parts.remove(i + 1);
        if i > 0 {
            pairs[i - 1] = Partition::merged(mesh, home, &parts[i - 1], &parts[i], load);
        }
        if i + 1 < parts.len() {
            pairs[i] = Partition::merged(mesh, home, &parts[i], &parts[i + 1], load);
        }
    }
}

/// The merged partitions DPM would use for `(home, sharers)`, as ordered
/// member lists, priced against `load` when given (MI-MA(ada)'s view).
/// Exposed for the property tests: feeding these (or the raw
/// [`column_groups`] member lists) to [`partition_plan_cost`] reproduces
/// the costs the greedy loop compared.
pub fn dpm_partitions(
    mesh: &Mesh2D,
    home: NodeId,
    sharers: &[NodeId],
    load: Option<&LinkLoadMeter>,
) -> Vec<Vec<NodeId>> {
    let groups = column_groups(mesh, home, sharers);
    merge_partitions(mesh, home, &groups, load).into_iter().map(|p| p.members).collect()
}

/// Closed-form completion estimate (the makespan of solo-flight costs) of
/// realizing `partitions` as serpentine worms in order.
pub fn partition_plan_cost(mesh: &Mesh2D, home: NodeId, partitions: &[Vec<NodeId>]) -> u64 {
    let costs: Vec<u64> =
        partitions.iter().flat_map(|m| realize(mesh, home, m, None)).map(|(_, c)| c).collect();
    makespan(&costs)
}

/// Shared plan assembly for DPM and the adaptive variant: request worms
/// from merged partitions (optionally re-ordered by the caller), two-phase
/// gathered acks over the original column groups.
pub(crate) fn assemble_plan(
    mesh: &Mesh2D,
    home: NodeId,
    sharers: &[NodeId],
    load: Option<&LinkLoadMeter>,
    order_by_cost_desc: bool,
) -> InvalPlan {
    let groups = column_groups(mesh, home, sharers);
    let parts = merge_partitions(mesh, home, &groups, load);
    let mut worms: Vec<(SerpentineWorm, u64)> =
        parts.into_iter().flat_map(|p| p.realized).collect();
    if order_by_cost_desc {
        // Longest-flight-first: the home's serial dc_send delays later
        // injections, so front-loading the slowest worm minimizes the
        // makespan. Stable sort keeps equal-cost worms in partition order
        // (determinism).
        worms.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
    }
    let acks = two_phase_acks(mesh, home, &groups);
    let unique: usize = groups.iter().map(|g| g.members.len()).sum();
    InvalPlan {
        request_worms: worms
            .into_iter()
            .map(|(w, _)| {
                let all_deliver = w.deliver.iter().all(|&d| d);
                PlannedWorm {
                    kind: WormKind::Multicast,
                    dests: w.dests,
                    deliver: if all_deliver { None } else { Some(w.deliver) },
                    // No i-reserve: serpentines visit gather initiators
                    // mid-path (see the MI-MA(wf) module docs).
                    reserve_iack: false,
                    gather_deposit: false,
                    initial_acks: 0,
                    relay: false,
                }
            })
            .collect(),
        actions: acks.actions,
        relays: vec![],
        triggers: acks.triggers,
        needed: unique as u32,
    }
}

/// Dynamic partition merging: greedy cost-driven merge of column
/// partitions into serpentine worms, two-phase gathered acks.
#[derive(Debug, Clone, Copy, Default)]
pub struct Dpm;

impl InvalidationScheme for Dpm {
    fn name(&self) -> &'static str {
        SchemeKind::Dpm.name()
    }

    fn kind(&self) -> SchemeKind {
        SchemeKind::Dpm
    }

    fn compatible_with(&self, routing: BaseRouting) -> bool {
        routing == BaseRouting::TurnModel
    }

    fn plan(&self, mesh: &Mesh2D, home: NodeId, sharers: &[NodeId]) -> InvalPlan {
        assemble_plan(mesh, home, sharers, None, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::validate_plan;
    use wormdsm_mesh::routing::{is_conformant, PathRule};

    fn m8() -> Mesh2D {
        Mesh2D::square(8)
    }

    fn n(m: &Mesh2D, x: usize, y: usize) -> NodeId {
        m.node_at(x, y)
    }

    #[test]
    fn plan_is_valid_and_conformant() {
        let m = m8();
        let home = n(&m, 4, 4);
        let sharers: Vec<NodeId> = [(1, 2), (2, 6), (5, 1), (6, 5), (7, 7), (0, 3)]
            .iter()
            .map(|&(x, y)| n(&m, x, y))
            .collect();
        let plan = Dpm.plan(&m, home, &sharers);
        validate_plan(&plan, &sharers).unwrap();
        for w in &plan.request_worms {
            assert!(is_conformant(PathRule::WestFirst, &m, home, &w.dests), "{:?}", w.dests);
        }
    }

    #[test]
    fn merging_never_worse_than_column_partitions() {
        let m = m8();
        let home = n(&m, 3, 3);
        for sharers in [
            vec![n(&m, 0, 0), n(&m, 1, 1), n(&m, 2, 2), n(&m, 5, 5), n(&m, 6, 6)],
            vec![n(&m, 7, 0), n(&m, 7, 7), n(&m, 0, 7)],
            vec![n(&m, 4, 3)],
            (0..8).map(|x| n(&m, x, 1)).collect::<Vec<_>>(),
        ] {
            let initial: Vec<Vec<NodeId>> =
                column_groups(&m, home, &sharers).into_iter().map(|g| g.members).collect();
            let merged = dpm_partitions(&m, home, &sharers, None);
            assert!(
                partition_plan_cost(&m, home, &merged) <= partition_plan_cost(&m, home, &initial),
                "merge made {sharers:?} worse"
            );
            assert!(merged.len() <= initial.len(), "merging never adds partitions");
        }
    }

    #[test]
    fn wide_row_pattern_merges_below_column_worm_count() {
        // One sharer per column along a row: MI-MA(col) would inject 8
        // singleton worms; DPM merges neighbors into a few serpentines.
        let m = m8();
        let home = n(&m, 3, 3);
        let sharers: Vec<NodeId> = (0..8).map(|x| n(&m, x, 1)).collect();
        let plan = Dpm.plan(&m, home, &sharers);
        validate_plan(&plan, &sharers).unwrap();
        let groups = column_groups(&m, home, &sharers).len();
        assert!(
            plan.request_worms.len() < groups,
            "expected merging: {} worms vs {} column groups",
            plan.request_worms.len(),
            groups
        );
    }

    #[test]
    fn home_sends_never_exceed_sharer_count() {
        let m = m8();
        let home = n(&m, 0, 0);
        let sharers: Vec<NodeId> =
            [(1, 1), (3, 5), (5, 2), (7, 6)].iter().map(|&(x, y)| n(&m, x, y)).collect();
        let plan = Dpm.plan(&m, home, &sharers);
        assert!(plan.home_sends() <= sharers.len());
    }

    /// The scheme's private cost law must price a worm exactly as the
    /// analytic model does — DPM's merge decisions and the analytic
    /// replay's latency estimates come from one law.
    #[test]
    fn worm_cost_matches_analytic_solo_flight() {
        use wormdsm_analytic::model::{solo_flight_latencies, NetParams};
        let m = m8();
        let p = NetParams::default();
        for (home, sharers) in [
            (n(&m, 4, 4), vec![n(&m, 1, 2), n(&m, 3, 5), n(&m, 6, 1), n(&m, 6, 6)]),
            (n(&m, 0, 7), vec![n(&m, 2, 0), n(&m, 2, 7), n(&m, 5, 3)]),
            (n(&m, 7, 0), vec![n(&m, 0, 0)]),
        ] {
            for w in serpentine(&m, home, &sharers) {
                let delivering = w.deliver.iter().filter(|&&d| d).count() as u64;
                let len =
                    CONTROL_FLITS + delivering.saturating_sub(1).div_ceil(4) * PER_EXTRA_DEST_X4;
                let got = worm_cost(&m, home, &w, None);
                let want = *solo_flight_latencies(&p, &m, PathRule::WestFirst, home, &w.dests, len)
                    .last()
                    .unwrap();
                assert_eq!(got, want, "cost law drifted for {:?}", w.dests);
            }
        }
    }
}
