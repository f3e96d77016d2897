//! Randomized property tests over the scheme geometry: for arbitrary
//! sharer sets on arbitrary meshes, every scheme must produce structurally
//! valid, base-routing-conformant plans that cover the sharer set exactly.
//!
//! Scenarios are generated from the workspace's deterministic [`Rng`]
//! with fixed seeds, so every run exercises the same cases.

use std::collections::HashSet;
use wormdsm_core::plan::{validate_plan, AckAction, InvalPlan};
use wormdsm_core::schemes::{InvalidationScheme, SchemeKind};
use wormdsm_mesh::routing::{is_conformant, PathRule};
use wormdsm_mesh::topology::{Mesh2D, NodeId};
use wormdsm_sim::Rng;

/// A mesh size, a home node, and a distinct sharer set excluding the home.
fn scenario(rng: &mut Rng) -> Option<(usize, u16, Vec<u16>)> {
    let k = rng.range(4, 12) as usize;
    let n = (k * k) as u16;
    let home = rng.below(n as u64) as u16;
    let want = rng.range(1, (n as u64 - 2).min(40)) as usize;
    let sharers: Vec<u16> = rng
        .sample_distinct(n as usize, want)
        .into_iter()
        .map(|s| s as u16)
        .filter(|&s| s != home)
        .collect();
    if sharers.is_empty() {
        None
    } else {
        Some((k, home, sharers))
    }
}

/// Check every worm path in a plan for conformance.
fn check_plan_conformance(
    scheme: &dyn InvalidationScheme,
    mesh: &Mesh2D,
    home: NodeId,
    plan: &InvalPlan,
) {
    let req_rule = scheme.kind().natural_routing().request_rule();
    for w in &plan.request_worms {
        assert_conf(req_rule, mesh, home, &w.dests);
    }
    for (delegate, worms) in &plan.relays {
        for w in worms {
            assert_conf(req_rule, mesh, *delegate, &w.dests);
        }
    }
    for (init, a) in &plan.actions {
        if let AckAction::InitGather(w) = a {
            assert_conf(PathRule::YX, mesh, *init, &w.dests);
        }
    }
    for (node, w) in &plan.triggers {
        assert_conf(PathRule::YX, mesh, *node, &w.dests);
    }
}

fn assert_conf(rule: PathRule, mesh: &Mesh2D, src: NodeId, dests: &[NodeId]) {
    assert!(
        is_conformant(rule, mesh, src, dests),
        "non-conformant {rule:?} path: src {src} dests {dests:?}"
    );
}

/// Delivering destinations across request + relay worms must equal the
/// sharer set exactly (every sharer invalidated exactly once), modulo the
/// tree scheme's delegate-local invalidations.
fn check_coverage(scheme: SchemeKind, plan: &InvalPlan, sharers: &[NodeId]) {
    let mut delivered: Vec<NodeId> = Vec::new();
    for w in plan.request_worms.iter().filter(|w| !w.relay) {
        for (j, d) in w.dests.iter().enumerate() {
            if w.deliver.as_ref().is_none_or(|m| m[j]) {
                delivered.push(*d);
            }
        }
    }
    let mut relay_locals: HashSet<NodeId> = HashSet::new();
    for (delegate, worms) in &plan.relays {
        if plan.action_for(*delegate).is_some() {
            relay_locals.insert(*delegate);
        }
        for w in worms {
            for (j, d) in w.dests.iter().enumerate() {
                if w.deliver.as_ref().is_none_or(|m| m[j]) {
                    delivered.push(*d);
                }
            }
        }
    }
    let want: HashSet<NodeId> = sharers.iter().copied().collect();
    let got_set: HashSet<NodeId> =
        delivered.iter().copied().chain(relay_locals.iter().copied()).collect();
    assert_eq!(got_set, want, "{scheme}: delivered set mismatch");
    assert_eq!(
        delivered.len() + relay_locals.len(),
        sharers.len(),
        "{scheme}: sharer delivered more than once: {delivered:?}"
    );
}

/// Deposits and sweep intermediate stops must avoid sharer router
/// interfaces (i-ack entry collision freedom).
fn check_deposit_safety(plan: &InvalPlan, sharers: &[NodeId]) {
    let sharer_set: HashSet<NodeId> = sharers.iter().copied().collect();
    for (_, a) in &plan.actions {
        if let AckAction::InitGather(w) = a {
            if w.gather_deposit {
                let target = *w.dests.last().expect("non-empty");
                assert!(!sharer_set.contains(&target), "deposit on sharer {target}");
            }
        }
    }
    for (_, sweep) in &plan.triggers {
        for d in &sweep.dests[..sweep.dests.len() - 1] {
            assert!(!sharer_set.contains(d), "sweep stops at sharer {d}");
        }
    }
}

#[test]
fn all_schemes_produce_valid_conformant_plans() {
    let mut rng = Rng::new(0x9EA0_0001);
    for _ in 0..256 {
        let Some((k, home, sharers)) = scenario(&mut rng) else { continue };
        let mesh = Mesh2D::square(k);
        let home = NodeId(home);
        let sharers: Vec<NodeId> = sharers.into_iter().map(NodeId).collect();
        for scheme in SchemeKind::ALL {
            let s = scheme.build();
            let plan = s.plan(&mesh, home, &sharers);
            validate_plan(&plan, &sharers).unwrap_or_else(|e| panic!("{scheme}: {e}"));
            check_plan_conformance(s.as_ref(), &mesh, home, &plan);
            check_coverage(scheme, &plan, &sharers);
            check_deposit_safety(&plan, &sharers);
        }
    }
}

#[test]
fn multidestination_schemes_never_send_more_than_ui_ua() {
    let mut rng = Rng::new(0x9EA0_0002);
    for _ in 0..256 {
        let Some((k, home, sharers)) = scenario(&mut rng) else { continue };
        let mesh = Mesh2D::square(k);
        let home = NodeId(home);
        let sharers: Vec<NodeId> = sharers.into_iter().map(NodeId).collect();
        let d = sharers.len();
        for scheme in SchemeKind::ALL {
            let plan = scheme.build().plan(&mesh, home, &sharers);
            assert!(plan.home_sends() <= d, "{scheme} sends {} > d = {d}", plan.home_sends());
        }
    }
}

/// DPM's greedy merge only ever accepts strictly improving steps, so the
/// closed-form cost of its merged partitions can never exceed the
/// unmerged column partitions it started from — on any mesh, for any
/// sharer set.
#[test]
fn dpm_merge_never_worse_than_column_partitions() {
    use wormdsm_core::schemes::grouping::column_groups;
    use wormdsm_core::schemes::{dpm_partitions, partition_plan_cost};
    let mut rng = Rng::new(0x9EA0_0004);
    for _ in 0..256 {
        let Some((k, home, sharers)) = scenario(&mut rng) else { continue };
        let mesh = Mesh2D::square(k);
        let home = NodeId(home);
        let sharers: Vec<NodeId> = sharers.into_iter().map(NodeId).collect();
        let initial: Vec<Vec<NodeId>> =
            column_groups(&mesh, home, &sharers).into_iter().map(|g| g.members).collect();
        let merged = dpm_partitions(&mesh, home, &sharers, None);
        let merged_cost = partition_plan_cost(&mesh, home, &merged);
        let initial_cost = partition_plan_cost(&mesh, home, &initial);
        assert!(
            merged_cost <= initial_cost,
            "DPM merge regressed {merged_cost} > {initial_cost} for home {home} \
             sharers {sharers:?} on {k}x{k}"
        );
        assert!(merged.len() <= initial.len(), "merging never adds partitions");
    }
}

/// The adaptive scheme must produce structurally valid, conformant,
/// exactly-covering plans under *any* load summary — congestion steers
/// the partitioning, never the legality.
#[test]
fn adaptive_plans_stay_valid_under_random_load() {
    use wormdsm_mesh::LinkLoadMeter;
    let mut rng = Rng::new(0x9EA0_0005);
    for _ in 0..128 {
        let Some((k, home, sharers)) = scenario(&mut rng) else { continue };
        let mesh = Mesh2D::square(k);
        let home = NodeId(home);
        let sharers: Vec<NodeId> = sharers.into_iter().map(NodeId).collect();
        // Synthetic committed window: every link uniformly loaded in
        // [0, window] busy cycles.
        let window = 64;
        let mut meter = LinkLoadMeter::new(mesh.nodes(), window);
        let busy: Vec<u64> = (0..mesh.nodes() * 4).map(|_| rng.below(window + 1)).collect();
        meter.observe(window, &busy);
        let scheme = SchemeKind::MiMaAdaptive.build();
        let plan = scheme.plan_with_load(&mesh, home, &sharers, Some(&meter));
        validate_plan(&plan, &sharers).unwrap_or_else(|e| panic!("loaded plan: {e}"));
        check_plan_conformance(scheme.as_ref(), &mesh, home, &plan);
        check_coverage(SchemeKind::MiMaAdaptive, &plan, &sharers);
        check_deposit_safety(&plan, &sharers);
        assert!(plan.home_sends() <= sharers.len(), "loaded plans keep home_sends <= d");
    }
}

#[test]
fn analytic_model_prices_every_plan() {
    let mut rng = Rng::new(0x9EA0_0003);
    for _ in 0..256 {
        let Some((k, home, sharers)) = scenario(&mut rng) else { continue };
        let mesh = Mesh2D::square(k);
        let home = NodeId(home);
        let sharers: Vec<NodeId> = sharers.into_iter().map(NodeId).collect();
        for scheme in SchemeKind::ALL {
            let s = scheme.build();
            let e = wormdsm_analytic::estimate_invalidation(
                &wormdsm_analytic::NetParams::default(),
                &mesh,
                scheme.natural_routing(),
                s.as_ref(),
                home,
                &sharers,
            );
            assert!(e.latency > 0.0);
            assert!(e.total_msgs >= 2, "{scheme}: at least one request and one ack path");
            assert!(e.home_recvs >= 1);
        }
    }
}

// ---------------------------------------------------------------------
// DPM / MI-MA(ada) planner equivalence. The production planner prices
// worms with a closed-form hop walk and merges incrementally; the
// reference oracles below are the direct formulations it replaced, and
// every plan must come out bit-identical to theirs.
// ---------------------------------------------------------------------

mod reference {
    use wormdsm_core::plan::{InvalPlan, PlannedWorm};
    use wormdsm_core::schemes::grouping::{column_groups, serpentine, SerpentineWorm};
    use wormdsm_core::schemes::{InvalidationScheme, MiMaWf};
    use wormdsm_mesh::routing::{expand_path, PathRule};
    use wormdsm_mesh::topology::{Mesh2D, NodeId};
    use wormdsm_mesh::worm::WormKind;
    use wormdsm_mesh::LinkLoadMeter;

    /// The planner's cost-law constants: router delay, strip delay, home
    /// DC send occupancy, control flits, extra header flits per 4 extra
    /// destinations, and MI-MA(ada)'s hop surcharge at full utilization.
    const ROUTER_DELAY: u64 = 4;
    const STRIP_DELAY: u64 = 1;
    const DC_SEND: u64 = 4;
    const CONTROL_FLITS: u64 = 8;
    const PER_EXTRA_DEST_X4: u64 = 1;
    const LOAD_PENALTY: u64 = 8;

    /// Price a worm by materializing its canonical west-first path and
    /// summing the committed load penalty of every crossed link.
    pub fn worm_cost(
        mesh: &Mesh2D,
        home: NodeId,
        w: &SerpentineWorm,
        load: Option<&LinkLoadMeter>,
    ) -> u64 {
        let path = expand_path(PathRule::WestFirst, mesh, home, &w.dests)
            .expect("serpentine worms are west-first conformant");
        let hops = (path.len() - 1) as u64;
        let strips = (w.dests.len() as u64).saturating_sub(1);
        let delivering = w.deliver.iter().filter(|&&d| d).count() as u64;
        let len_flits =
            CONTROL_FLITS + delivering.saturating_sub(1).div_ceil(4) * PER_EXTRA_DEST_X4;
        let mut cost = (hops + 1) * ROUTER_DELAY + strips * STRIP_DELAY + len_flits;
        if let Some(meter) = load {
            for hop in path.windows(2) {
                let link = hop[0].idx() * 4 + mesh.hop_direction(hop[0], hop[1]).index();
                cost += meter.load_milli(link) * LOAD_PENALTY / 1000;
            }
        }
        cost
    }

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

    fn makespan(costs: &[u64]) -> u64 {
        costs.iter().enumerate().map(|(j, &c)| (j as u64 + 1) * DC_SEND + c).max().unwrap_or(0)
    }

    /// A partition's members and the costs of its realized worms.
    type Part = (Vec<NodeId>, Vec<u64>);

    /// The greedy merge as a whole-plan re-evaluation: every iteration
    /// realizes every adjacent merge afresh, prices the flattened plan it
    /// would produce, and applies the largest strict improvement (lowest
    /// index on ties). Also counts the iterations whose winning makespan
    /// a later candidate matched, so tie cases can prove they tied.
    pub fn partitions(
        mesh: &Mesh2D,
        home: NodeId,
        sharers: &[NodeId],
        load: Option<&LinkLoadMeter>,
    ) -> (Vec<Vec<NodeId>>, usize) {
        let mut parts: Vec<Part> = column_groups(mesh, home, sharers)
            .into_iter()
            .map(|g| {
                let costs = realize(mesh, home, &g.members, load).into_iter().map(|(_, c)| c);
                (g.members, costs.collect())
            })
            .collect();
        let mut ties = 0;
        loop {
            let flat = |ps: &[Part]| -> Vec<u64> {
                ps.iter().flat_map(|(_, c)| c.iter().copied()).collect()
            };
            let current = makespan(&flat(&parts));
            let mut best: Option<(usize, u64, Part)> = None;
            let mut tied = false;
            for i in 0..parts.len().saturating_sub(1) {
                let mut members = parts[i].0.clone();
                members.extend_from_slice(&parts[i + 1].0);
                let costs = realize(mesh, home, &members, load).into_iter().map(|(_, c)| c);
                let merged = (members, costs.collect());
                let trial: Vec<_> = parts[..i]
                    .iter()
                    .chain(std::iter::once(&merged))
                    .chain(&parts[i + 2..])
                    .cloned()
                    .collect();
                let candidate = makespan(&flat(&trial));
                if best.as_ref().is_some_and(|(_, b, _)| candidate == *b) {
                    tied = true;
                }
                if candidate < current && best.as_ref().is_none_or(|(_, b, _)| candidate < *b) {
                    tied = false;
                    best = Some((i, candidate, merged));
                }
            }
            match best {
                Some((i, _, merged)) => {
                    ties += usize::from(tied);
                    parts[i] = merged;
                    parts.remove(i + 1);
                }
                None => return (parts.into_iter().map(|(m, _)| m).collect(), ties),
            }
        }
    }

    /// The plan DPM (`order_by_cost_desc == false`) or MI-MA(ada) (`true`)
    /// builds from the reference partitions. The ack phase is MI-MA(wf)'s:
    /// both schemes gather over the same column groups.
    pub fn plan(
        mesh: &Mesh2D,
        home: NodeId,
        sharers: &[NodeId],
        load: Option<&LinkLoadMeter>,
        order_by_cost_desc: bool,
    ) -> InvalPlan {
        let (parts, _) = partitions(mesh, home, sharers, load);
        let mut worms: Vec<(SerpentineWorm, u64)> =
            parts.iter().flat_map(|m| realize(mesh, home, m, load)).collect();
        if order_by_cost_desc {
            worms.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
        }
        let acks = MiMaWf.plan(mesh, home, sharers);
        InvalPlan {
            request_worms: worms
                .into_iter()
                .map(|(w, _)| PlannedWorm {
                    kind: WormKind::Multicast,
                    deliver: (!w.deliver.iter().all(|&d| d)).then_some(w.deliver),
                    dests: w.dests,
                    reserve_iack: false,
                    gather_deposit: false,
                    initial_acks: 0,
                    relay: false,
                })
                .collect(),
            relays: vec![],
            ..acks
        }
    }
}

/// A committed synthetic load window: each link busy for a random share
/// of the window, with a random fraction of links left cold.
fn random_meter(rng: &mut Rng, mesh: &Mesh2D) -> wormdsm_mesh::LinkLoadMeter {
    let window = 64;
    let mut meter = wormdsm_mesh::LinkLoadMeter::new(mesh.nodes(), window);
    let hot = rng.range(1, 100) as f64 / 100.0;
    let busy: Vec<u64> = (0..mesh.nodes() * 4)
        .map(|_| if rng.chance(hot) { rng.below(window + 1) } else { 0 })
        .collect();
    meter.observe(window, &busy);
    assert_eq!(meter.commits(), 1);
    meter
}

/// A home and a distinct sharer set (home excluded) on a `k x k` mesh.
fn sharer_set(rng: &mut Rng, k: usize, max: usize) -> (NodeId, Vec<NodeId>) {
    let n = k * k;
    let home = NodeId(rng.below(n as u64) as u16);
    let want = rng.range(1, max.min(n - 1) as u64) as usize;
    let sharers = rng
        .sample_distinct(n, want + 1)
        .into_iter()
        .map(|s| NodeId(s as u16))
        .filter(|&s| s != home)
        .take(want)
        .collect();
    (home, sharers)
}

/// The closed-form loaded cost walk prices every worm exactly like the
/// `expand_path` hop walk: whole-set serpentines and serpentines over
/// contiguous runs of column groups (the shapes merging produces), at
/// every mesh size the workloads use.
#[test]
fn closed_form_worm_cost_matches_expand_path_walk() {
    use wormdsm_core::schemes::grouping::{column_groups, serpentine};
    use wormdsm_core::schemes::worm_cost;
    let mut rng = Rng::new(0x9EA0_0006);
    for (k, trials, max) in [(4, 64, 15), (8, 64, 40), (16, 48, 96), (64, 12, 128)] {
        let mesh = Mesh2D::square(k);
        for _ in 0..trials {
            let (home, sharers) = sharer_set(&mut rng, k, max);
            let meter = random_meter(&mut rng, &mesh);
            let groups = column_groups(&mesh, home, &sharers);
            let lo = rng.index(groups.len());
            let hi = rng.range(lo as u64 + 1, groups.len() as u64) as usize;
            let run: Vec<NodeId> =
                groups[lo..hi].iter().flat_map(|g| g.members.iter().copied()).collect();
            for members in [&sharers, &run] {
                for w in serpentine(&mesh, home, members) {
                    for load in [None, Some(&meter)] {
                        assert_eq!(
                            worm_cost(&mesh, home, &w, load),
                            reference::worm_cost(&mesh, home, &w, load),
                            "k={k} home {home} dests {:?} loaded={}",
                            w.dests,
                            load.is_some()
                        );
                    }
                }
            }
        }
    }
}

/// A conformant worm that turns from a west run toward the north-east.
/// The east hop would reverse the west hop, so the canonical path takes
/// one north hop first. Serpentines avoid this shape with a dogleg
/// waypoint, but the cost walk must still price it like `expand_path`.
#[test]
fn closed_form_worm_cost_takes_the_canonical_turn_after_a_west_run() {
    use wormdsm_core::schemes::grouping::SerpentineWorm;
    use wormdsm_core::schemes::worm_cost;
    let mesh = Mesh2D::square(8);
    let home = mesh.node_at(4, 4);
    let w = SerpentineWorm {
        dests: vec![mesh.node_at(2, 4), mesh.node_at(5, 1)],
        deliver: vec![true, true],
    };
    let meter = random_meter(&mut Rng::new(0x9EA0_0008), &mesh);
    for load in [None, Some(&meter)] {
        assert_eq!(worm_cost(&mesh, home, &w, load), reference::worm_cost(&mesh, home, &w, load));
    }
}

/// Merge one scenario both ways, loaded and unloaded: the partitions and
/// the DPM and MI-MA(ada) plans must be identical. Returns the reference
/// partition count and tie count of the unloaded merge.
fn assert_planner_matches_reference(
    mesh: &Mesh2D,
    home: NodeId,
    sharers: &[NodeId],
) -> (usize, usize) {
    use wormdsm_core::schemes::{dpm_partitions, Dpm, MiMaAdaptive};
    let mut rng = Rng::new(home.0 as u64 ^ ((sharers.len() as u64) << 16));
    let meter = random_meter(&mut rng, mesh);
    let ctx = format!("{}x{} home {home} sharers {sharers:?}", mesh.width(), mesh.height());
    for load in [None, Some(&meter)] {
        let (want, _) = reference::partitions(mesh, home, sharers, load);
        assert_eq!(dpm_partitions(mesh, home, sharers, load), want, "partitions: {ctx}");
    }
    assert_eq!(Dpm.plan(mesh, home, sharers), reference::plan(mesh, home, sharers, None, false));
    assert_eq!(
        MiMaAdaptive.plan(mesh, home, sharers),
        reference::plan(mesh, home, sharers, None, true),
        "unloaded ada: {ctx}"
    );
    assert_eq!(
        MiMaAdaptive.plan_with_load(mesh, home, sharers, Some(&meter)),
        reference::plan(mesh, home, sharers, Some(&meter), true),
        "loaded ada: {ctx}"
    );
    let (parts, ties) = reference::partitions(mesh, home, sharers, None);
    (parts.len(), ties)
}

#[test]
fn incremental_merge_matches_reference_greedy() {
    let mut rng = Rng::new(0x9EA0_0007);
    for (k, trials, max) in [(4, 48, 15), (8, 64, 40), (16, 32, 96), (64, 3, 128)] {
        let mesh = Mesh2D::square(k);
        for _ in 0..trials {
            let (home, sharers) = sharer_set(&mut rng, k, max);
            assert_planner_matches_reference(&mesh, home, &sharers);
        }
    }
}

/// Pinned edge cases of the greedy loop: a single column group (nothing
/// to merge), three column groups that collapse into one partition, and
/// a merge whose best improvement ties between two candidates (the lower
/// index wins).
#[test]
fn incremental_merge_matches_reference_on_edge_cases() {
    let m = Mesh2D::square(8);
    let at = |xy: &[(usize, usize)]| -> Vec<NodeId> {
        xy.iter().map(|&(x, y)| m.node_at(x, y)).collect()
    };
    let one_group = at(&[(5, 1), (5, 2), (5, 0)]);
    assert_eq!(assert_planner_matches_reference(&m, m.node_at(3, 3), &one_group), (1, 0));

    let everything = at(&[(1, 5), (2, 3), (3, 2)]);
    let (parts, _) = assert_planner_matches_reference(&m, m.node_at(1, 7), &everything);
    assert_eq!(parts, 1, "three column groups merge into one partition");

    // Breaking this tie toward the higher index ends with 3 partitions,
    // not 2.
    let tie = at(&[(1, 1), (7, 4), (4, 1), (6, 3)]);
    let (parts, ties) = assert_planner_matches_reference(&m, m.node_at(2, 2), &tie);
    assert_eq!(parts, 2);
    assert!(ties > 0, "the tie case must tie");
}
