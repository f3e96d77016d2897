//! Base routing schemes and path legality.
//!
//! The BRCP (Base-Routing-Conformed-Path) model requires every
//! multidestination worm to follow a path that a *unicast* message could
//! legally take under the network's base routing. This module provides:
//!
//! * the per-hop routing decision used by routers ([`route_options`]),
//! * a path-legality automaton ([`PathChecker`]) used by tests and by the
//!   scheme constructors,
//! * canonical path expansion ([`expand_path`]) for analytic path lengths.
//!
//! Four rules are supported, paired per virtual network:
//!
//! | base routing | request net | reply net |
//! |---|---|---|
//! | deterministic e-cube | [`PathRule::XY`] | [`PathRule::YX`] |
//! | turn-model adaptive | [`PathRule::WestFirst`] | [`PathRule::YX`] |
//!
//! The reply net uses YX ordering in both configurations so that
//! acknowledgement gathers — which collect along a column and finish with
//! row travel toward the home in *either* X direction — remain base-routing
//! conformant. ([`PathRule::EastFirst`], the west-first dual, is provided
//! for completeness and for experiments with eastward-monotone reply
//! worms.)

use crate::topology::{Direction, Mesh2D, NodeId};

/// A deadlock-free base routing rule for one virtual network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PathRule {
    /// E-cube, row (X) hops then column (Y) hops.
    XY,
    /// E-cube dual, column (Y) hops then row (X) hops.
    YX,
    /// Turn model: all westward hops first, then adaptive among {N, E, S}.
    WestFirst,
    /// Turn-model dual: all eastward hops first, then adaptive among {N, W, S}.
    EastFirst,
}

/// Base routing selection for a network (request-net rule; the reply net
/// uses the dual).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BaseRouting {
    /// Deterministic e-cube (XY requests, YX replies).
    ECube,
    /// Turn-model adaptive (west-first requests, YX replies).
    TurnModel,
}

impl BaseRouting {
    /// Rule used by the request virtual network.
    pub fn request_rule(self) -> PathRule {
        match self {
            BaseRouting::ECube => PathRule::XY,
            BaseRouting::TurnModel => PathRule::WestFirst,
        }
    }

    /// Rule used by the reply virtual network (YX in both configurations;
    /// see the module docs).
    pub fn reply_rule(self) -> PathRule {
        match self {
            BaseRouting::ECube | BaseRouting::TurnModel => PathRule::YX,
        }
    }
}

/// Error describing why a hop sequence violates a [`PathRule`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleViolation {
    /// Index of the offending hop.
    pub hop: usize,
    /// Offending direction.
    pub dir: Direction,
    /// Human-readable reason.
    pub reason: &'static str,
}

impl core::fmt::Display for RuleViolation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "hop {} ({:?}): {}", self.hop, self.dir, self.reason)
    }
}

impl std::error::Error for RuleViolation {}

/// Incremental legality checker for a hop sequence under a [`PathRule`].
///
/// Semantics of "turned": for XY, a Y hop forbids later X hops; for YX the
/// dual; for west-first, any non-west hop forbids later west hops; for
/// east-first the dual. 180-degree immediate reversals are always illegal
/// (they would revisit the previous node).
#[derive(Debug, Clone)]
pub struct PathChecker {
    rule: PathRule,
    turned: bool,
    last: Option<Direction>,
    hops: usize,
}

impl PathChecker {
    /// New checker at the start of a path.
    pub fn new(rule: PathRule) -> Self {
        Self { rule, turned: false, last: None, hops: 0 }
    }

    /// Whether the restricted phase has ended (e.g. a Y hop seen under XY).
    pub fn turned(&self) -> bool {
        self.turned
    }

    /// Feed the next hop; returns `Err` if it violates the rule.
    pub fn step(&mut self, dir: Direction) -> Result<(), RuleViolation> {
        let hop = self.hops;
        if self.last == Some(dir.opposite()) {
            return Err(RuleViolation { hop, dir, reason: "immediate 180-degree reversal" });
        }
        let violation = match self.rule {
            PathRule::XY => {
                let is_x = matches!(dir, Direction::East | Direction::West);
                if is_x && self.turned {
                    Some("X hop after Y phase began (e-cube XY)")
                } else {
                    if !is_x {
                        self.turned = true;
                    }
                    None
                }
            }
            PathRule::YX => {
                let is_y = matches!(dir, Direction::North | Direction::South);
                if is_y && self.turned {
                    Some("Y hop after X phase began (e-cube YX)")
                } else {
                    if !is_y {
                        self.turned = true;
                    }
                    None
                }
            }
            PathRule::WestFirst => {
                if dir == Direction::West && self.turned {
                    Some("west hop after a non-west hop (west-first)")
                } else {
                    if dir != Direction::West {
                        self.turned = true;
                    }
                    None
                }
            }
            PathRule::EastFirst => {
                if dir == Direction::East && self.turned {
                    Some("east hop after a non-east hop (east-first)")
                } else {
                    if dir != Direction::East {
                        self.turned = true;
                    }
                    None
                }
            }
        };
        if let Some(reason) = violation {
            return Err(RuleViolation { hop, dir, reason });
        }
        self.last = Some(dir);
        self.hops += 1;
        Ok(())
    }
}

/// Legal productive output directions from `cur` toward `dst` under `rule`,
/// given whether the worm has already `turned`.
///
/// Deterministic rules return exactly one direction. Adaptive rules may
/// return two (the router then picks, e.g. by downstream credit). Returns an
/// empty vector when `cur == dst` **or** when the destination is
/// unreachable without violating the rule (e.g. XY needs an X hop after the
/// Y phase began) — the latter indicates a non-conformant destination
/// sequence, which [`expand_path`] reports and the router treats as a
/// scheme bug.
pub fn route_options(
    rule: PathRule,
    mesh: &Mesh2D,
    cur: NodeId,
    dst: NodeId,
    turned: bool,
) -> Vec<Direction> {
    let (c, d) = (mesh.coord(cur), mesh.coord(dst));
    let dx = d.x as i16 - c.x as i16;
    let dy = d.y as i16 - c.y as i16;
    if dx == 0 && dy == 0 {
        return vec![];
    }
    let xdir = if dx > 0 {
        Some(Direction::East)
    } else if dx < 0 {
        Some(Direction::West)
    } else {
        None
    };
    let ydir = if dy > 0 {
        Some(Direction::South)
    } else if dy < 0 {
        Some(Direction::North)
    } else {
        None
    };
    match rule {
        PathRule::XY => {
            if let Some(x) = xdir {
                if turned {
                    return vec![];
                }
                vec![x]
            } else {
                vec![ydir.expect("dx==0, dy!=0")]
            }
        }
        PathRule::YX => {
            if let Some(y) = ydir {
                if turned {
                    return vec![];
                }
                vec![y]
            } else {
                vec![xdir.expect("dy==0, dx!=0")]
            }
        }
        PathRule::WestFirst => {
            if xdir == Some(Direction::West) {
                if turned {
                    return vec![];
                }
                vec![Direction::West]
            } else {
                // Adaptive among productive {E, N, S}.
                let mut opts = Vec::with_capacity(2);
                if let Some(x) = xdir {
                    opts.push(x);
                }
                if let Some(y) = ydir {
                    opts.push(y);
                }
                opts
            }
        }
        PathRule::EastFirst => {
            if xdir == Some(Direction::East) {
                if turned {
                    return vec![];
                }
                vec![Direction::East]
            } else {
                let mut opts = Vec::with_capacity(2);
                if let Some(x) = xdir {
                    opts.push(x);
                }
                if let Some(y) = ydir {
                    opts.push(y);
                }
                opts
            }
        }
    }
}

/// Direction bitmask of legal productive hops from `cur` toward `dst`
/// under `rule` (bit `Direction::index()`); zero when at the destination
/// or when the destination is unreachable without violating the rule.
///
/// This is [`route_options`] flattened into a closed-form, allocation-free
/// computation: a handful of coordinate compares and bit ors per call.
/// Masks preserve the option *order* contract of `route_options` (X before
/// Y) because routers scan mask bits in `Direction::ALL` order, which is
/// exactly E, W, N, S.
#[inline]
pub fn route_mask(rule: PathRule, mesh: &Mesh2D, cur: NodeId, dst: NodeId, turned: bool) -> u8 {
    let (c, d) = (mesh.coord(cur), mesh.coord(dst));
    const E: u8 = 1 << 0;
    const W: u8 = 1 << 1;
    const N: u8 = 1 << 2;
    const S: u8 = 1 << 3;
    let xbit = match d.x.cmp(&c.x) {
        core::cmp::Ordering::Greater => E,
        core::cmp::Ordering::Less => W,
        core::cmp::Ordering::Equal => 0,
    };
    let ybit = match d.y.cmp(&c.y) {
        core::cmp::Ordering::Greater => S,
        core::cmp::Ordering::Less => N,
        core::cmp::Ordering::Equal => 0,
    };
    match rule {
        // Deterministic e-cube: the restricted dimension travels first; once
        // turned, a remaining hop in it is unreachable (mask 0).
        PathRule::XY => {
            if xbit != 0 {
                if turned {
                    0
                } else {
                    xbit
                }
            } else {
                ybit
            }
        }
        PathRule::YX => {
            if ybit != 0 {
                if turned {
                    0
                } else {
                    ybit
                }
            } else {
                xbit
            }
        }
        // Turn model: the restricted X direction first, then adaptive among
        // the remaining productive hops.
        PathRule::WestFirst => {
            if xbit == W {
                if turned {
                    0
                } else {
                    W
                }
            } else {
                xbit | ybit
            }
        }
        PathRule::EastFirst => {
            if xbit == E {
                if turned {
                    0
                } else {
                    E
                }
            } else {
                xbit | ybit
            }
        }
    }
}

/// Next-hop mask oracle for one [`PathRule`] over one mesh.
///
/// Historically this materialized a flat `[cur][dst]` table of direction
/// bitmasks — O(nodes²) memory, ~536 MB at k=128 — built once per network.
/// The masks are now computed algorithmically per query ([`route_mask`]):
/// O(1) memory at any mesh size, and still allocation-free on the per-flit
/// routing path (the old table's two dependent loads become a few register
/// compares). The [`RouteTable`] name and query API survive so callers are
/// unchanged, and an exhaustive equivalence test pins the algorithmic masks
/// to the `route_options` reference at k=4/8/16 (sampled at k=32).
///
/// Also answers per-(src, dst) BRCP conformance questions for the
/// multidestination schemes: `same_col`/`same_row` are the column/row
/// membership tests (the building blocks of column-path and row-path
/// conformance checks), O(1) as before.
#[derive(Debug, Clone)]
pub struct RouteTable {
    mesh: Mesh2D,
    rule: PathRule,
}

impl RouteTable {
    /// Build the oracle for `rule` over `mesh`. O(1) time and memory (the
    /// name is historical; nothing is materialized any more).
    pub fn build(rule: PathRule, mesh: &Mesh2D) -> Self {
        Self { mesh: *mesh, rule }
    }

    /// Direction bitmask of legal productive hops from `cur` toward `dst`
    /// (bit `Direction::index()`); zero when at the destination or when the
    /// destination is unreachable without violating the rule.
    #[inline]
    pub fn mask(&self, cur: NodeId, dst: NodeId, turned: bool) -> u8 {
        route_mask(self.rule, &self.mesh, cur, dst, turned)
    }

    /// Legal hops from `cur` toward `dst` in canonical (X-before-Y) order.
    #[inline]
    pub fn options(
        &self,
        cur: NodeId,
        dst: NodeId,
        turned: bool,
    ) -> impl Iterator<Item = Direction> {
        let m = self.mask(cur, dst, turned);
        Direction::ALL.into_iter().filter(move |d| m & (1 << d.index()) != 0)
    }

    /// True when `a` and `b` share a column — the BRCP membership test for
    /// column-path (gather/scatter) worms.
    #[inline]
    pub fn same_col(&self, a: NodeId, b: NodeId) -> bool {
        self.mesh.coord(a).x == self.mesh.coord(b).x
    }

    /// True when `a` and `b` share a row — the BRCP membership test for
    /// row-path worms.
    #[inline]
    pub fn same_row(&self, a: NodeId, b: NodeId) -> bool {
        self.mesh.coord(a).y == self.mesh.coord(b).y
    }
}

/// Expand the canonical full hop path visiting `dests` in order from `src`
/// under `rule`. Returns the node sequence including `src` and every visited
/// node, or the rule violation that makes the visit order non-conformant.
///
/// Canonical choice within the adaptive rules: take the X hop before the Y
/// hop whenever both are legal (this matches how the schemes build
/// staircases and keeps path lengths deterministic for the analytic model).
pub fn expand_path(
    rule: PathRule,
    mesh: &Mesh2D,
    src: NodeId,
    dests: &[NodeId],
) -> Result<Vec<NodeId>, RuleViolation> {
    let mut checker = PathChecker::new(rule);
    let mut path = vec![src];
    let mut cur = src;
    for &d in dests {
        while cur != d {
            let opts = route_options(rule, mesh, cur, d, checker.turned());
            // Canonical: prefer the first option whose step passes; options
            // are ordered X-before-Y by construction.
            if opts.is_empty() {
                return Err(RuleViolation {
                    hop: path.len() - 1,
                    dir: Direction::West,
                    reason: "destination unreachable without violating the base routing",
                });
            }
            let mut advanced = false;
            let mut last_err = None;
            for dir in opts {
                let mut trial = checker.clone();
                match trial.step(dir) {
                    Ok(()) => {
                        checker = trial;
                        cur = mesh.neighbor(cur, dir).expect("productive hop stays in mesh");
                        path.push(cur);
                        advanced = true;
                        break;
                    }
                    Err(e) => last_err = Some(e),
                }
            }
            if !advanced {
                return Err(last_err.expect("non-empty options"));
            }
        }
    }
    Ok(path)
}

/// True when the visit order is conformant under `rule`.
pub fn is_conformant(rule: PathRule, mesh: &Mesh2D, src: NodeId, dests: &[NodeId]) -> bool {
    expand_path(rule, mesh, src, dests).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m8() -> Mesh2D {
        Mesh2D::square(8)
    }

    #[test]
    fn xy_unicast_path_is_row_then_column() {
        let m = m8();
        let p = expand_path(PathRule::XY, &m, m.node_at(1, 1), &[m.node_at(4, 5)]).unwrap();
        assert_eq!(p.len(), 1 + 3 + 4);
        // Row segment first.
        assert_eq!(p[1], m.node_at(2, 1));
        assert_eq!(p[3], m.node_at(4, 1));
        // Then column.
        assert_eq!(p[4], m.node_at(4, 2));
        assert_eq!(*p.last().unwrap(), m.node_at(4, 5));
    }

    #[test]
    fn yx_unicast_path_is_column_then_row() {
        let m = m8();
        let p = expand_path(PathRule::YX, &m, m.node_at(1, 1), &[m.node_at(4, 5)]).unwrap();
        assert_eq!(p[1], m.node_at(1, 2));
        assert_eq!(p[4], m.node_at(1, 5));
        assert_eq!(p[5], m.node_at(2, 5));
    }

    #[test]
    fn xy_column_multicast_is_conformant() {
        let m = m8();
        // Home at (1,3), sharers up column 5, visited monotonically north.
        let dests = [m.node_at(5, 2), m.node_at(5, 1), m.node_at(5, 0)];
        assert!(is_conformant(PathRule::XY, &m, m.node_at(1, 3), &dests));
        // And monotonically south.
        let dests = [m.node_at(5, 4), m.node_at(5, 6), m.node_at(5, 7)];
        assert!(is_conformant(PathRule::XY, &m, m.node_at(1, 3), &dests));
    }

    #[test]
    fn xy_two_columns_not_conformant() {
        let m = m8();
        let dests = [m.node_at(5, 1), m.node_at(6, 4)];
        assert!(!is_conformant(PathRule::XY, &m, m.node_at(1, 3), &dests));
    }

    #[test]
    fn xy_column_zigzag_not_conformant() {
        let m = m8();
        // Reaching (5,1) then going back down to (5,4) from home row 3:
        // home row is 3, so going to y=1 (north) then y=4 (south) reverses.
        let dests = [m.node_at(5, 1), m.node_at(5, 4)];
        assert!(!is_conformant(PathRule::XY, &m, m.node_at(1, 3), &dests));
        // Monotone order is fine.
        let dests = [m.node_at(5, 4), m.node_at(5, 6)];
        assert!(is_conformant(PathRule::XY, &m, m.node_at(1, 3), &dests));
    }

    #[test]
    fn west_first_staircase_conformant() {
        let m = m8();
        // Home at (4,4); sharers west and east; staircase: go west first to
        // column 1, then snake east covering columns 1, 3, 6.
        let dests = [m.node_at(1, 2), m.node_at(3, 5), m.node_at(6, 1)];
        assert!(is_conformant(PathRule::WestFirst, &m, m.node_at(4, 4), &dests));
    }

    #[test]
    fn west_first_rejects_late_west() {
        let m = m8();
        // East then west again is illegal under west-first.
        let dests = [m.node_at(6, 4), m.node_at(2, 4)];
        assert!(!is_conformant(PathRule::WestFirst, &m, m.node_at(4, 4), &dests));
    }

    #[test]
    fn east_first_is_dual() {
        let m = m8();
        let dests = [m.node_at(6, 2), m.node_at(3, 5), m.node_at(1, 1)];
        assert!(is_conformant(PathRule::EastFirst, &m, m.node_at(4, 4), &dests));
        let dests = [m.node_at(1, 4), m.node_at(6, 4)];
        assert!(!is_conformant(PathRule::EastFirst, &m, m.node_at(4, 4), &dests));
    }

    #[test]
    fn checker_rejects_reversal() {
        let mut c = PathChecker::new(PathRule::WestFirst);
        c.step(Direction::North).unwrap();
        let e = c.step(Direction::South).unwrap_err();
        assert_eq!(e.reason, "immediate 180-degree reversal");
    }

    #[test]
    fn route_options_deterministic_rules() {
        let m = m8();
        let o = route_options(PathRule::XY, &m, m.node_at(1, 1), m.node_at(4, 5), false);
        assert_eq!(o, vec![Direction::East]);
        let o = route_options(PathRule::XY, &m, m.node_at(4, 1), m.node_at(4, 5), true);
        assert_eq!(o, vec![Direction::South]);
        let o = route_options(PathRule::YX, &m, m.node_at(1, 1), m.node_at(4, 5), false);
        assert_eq!(o, vec![Direction::South]);
    }

    #[test]
    fn route_options_adaptive_offers_both() {
        let m = m8();
        let o = route_options(PathRule::WestFirst, &m, m.node_at(1, 1), m.node_at(4, 5), true);
        assert_eq!(o.len(), 2);
        assert!(o.contains(&Direction::East) && o.contains(&Direction::South));
        // Westward target: single forced option.
        let o = route_options(PathRule::WestFirst, &m, m.node_at(4, 1), m.node_at(1, 5), false);
        assert_eq!(o, vec![Direction::West]);
    }

    #[test]
    fn route_options_empty_at_destination() {
        let m = m8();
        assert!(route_options(PathRule::XY, &m, m.node_at(2, 2), m.node_at(2, 2), false).is_empty());
    }

    #[test]
    fn route_options_empty_on_impossible() {
        let m = m8();
        // Turned under XY but still needs an X hop.
        let o = route_options(PathRule::XY, &m, m.node_at(1, 1), m.node_at(4, 5), true);
        assert!(o.is_empty());
        let o = route_options(PathRule::WestFirst, &m, m.node_at(4, 1), m.node_at(1, 5), true);
        assert!(o.is_empty());
    }

    #[test]
    fn path_hops_matches_manhattan_for_unicast() {
        let m = m8();
        for rule in [PathRule::XY, PathRule::YX, PathRule::WestFirst, PathRule::EastFirst] {
            let p = expand_path(rule, &m, m.node_at(1, 2), &[m.node_at(6, 7)]).unwrap();
            assert_eq!(p.len() - 1, 5 + 5, "{rule:?}");
        }
    }

    /// The precomputed table must reproduce `route_options` exactly — same
    /// options, same canonical order — for every (cur, dst, turned) triple
    /// under every rule.
    #[test]
    fn route_table_matches_route_options_exhaustively() {
        let m = Mesh2D::new(5, 4);
        for rule in [PathRule::XY, PathRule::YX, PathRule::WestFirst, PathRule::EastFirst] {
            let t = RouteTable::build(rule, &m);
            for cur in m.iter_nodes() {
                for dst in m.iter_nodes() {
                    for turned in [false, true] {
                        let expect = route_options(rule, &m, cur, dst, turned);
                        let got: Vec<Direction> = t.options(cur, dst, turned).collect();
                        assert_eq!(got, expect, "{rule:?} {cur}->{dst} turned={turned}");
                        let mask = t.mask(cur, dst, turned);
                        assert_eq!(mask.count_ones() as usize, expect.len());
                    }
                }
            }
        }
    }

    /// Materialize the reference mask table the old `RouteTable::build`
    /// produced — straight from `route_options` — for equivalence checks.
    fn reference_masks(rule: PathRule, m: &Mesh2D) -> Vec<(u8, u8)> {
        let n = m.nodes();
        let mut masks = vec![(0u8, 0u8); n * n];
        for cur in 0..n {
            for dst in 0..n {
                let mut entry = (0u8, 0u8);
                for turned in [false, true] {
                    let mut mk = 0u8;
                    for d in route_options(rule, m, NodeId(cur as u16), NodeId(dst as u16), turned)
                    {
                        mk |= 1 << d.index();
                    }
                    if turned {
                        entry.1 = mk;
                    } else {
                        entry.0 = mk;
                    }
                }
                masks[cur * n + dst] = entry;
            }
        }
        masks
    }

    /// The algorithmic masks must be output-identical to the materialized
    /// `route_options` table over every (src, dst) pair at k=4/8/16, for
    /// every rule and turn state.
    #[test]
    fn route_mask_matches_materialized_table_small_meshes() {
        for k in [4usize, 8, 16] {
            let m = Mesh2D::square(k);
            for rule in [PathRule::XY, PathRule::YX, PathRule::WestFirst, PathRule::EastFirst] {
                let reference = reference_masks(rule, &m);
                let t = RouteTable::build(rule, &m);
                for cur in m.iter_nodes() {
                    for dst in m.iter_nodes() {
                        let e = reference[cur.idx() * m.nodes() + dst.idx()];
                        assert_eq!(
                            (t.mask(cur, dst, false), t.mask(cur, dst, true)),
                            e,
                            "k={k} {rule:?} {cur}->{dst}"
                        );
                    }
                }
            }
        }
    }

    /// Sampled (src, dst) pairs at k=32 — the full table would be 2^20
    /// entries per rule; a deterministic stride covers a spread of rows,
    /// columns, and diagonals.
    #[test]
    fn route_mask_matches_route_options_sampled_k32() {
        let m = Mesh2D::square(32);
        let n = m.nodes();
        for rule in [PathRule::XY, PathRule::YX, PathRule::WestFirst, PathRule::EastFirst] {
            let t = RouteTable::build(rule, &m);
            // 1021 is prime and coprime to 1024^2, so the stride walks every
            // residue class; ~1k pairs per rule.
            let mut pair = 0usize;
            for _ in 0..1024 {
                let (cur, dst) = (NodeId((pair / n) as u16), NodeId((pair % n) as u16));
                for turned in [false, true] {
                    let expect: Vec<Direction> = route_options(rule, &m, cur, dst, turned);
                    let got: Vec<Direction> = t.options(cur, dst, turned).collect();
                    assert_eq!(got, expect, "{rule:?} {cur}->{dst} turned={turned}");
                }
                pair = (pair + 1021 * 997) % (n * n);
            }
        }
    }

    #[test]
    fn route_table_conformance_masks() {
        let m = m8();
        let t = RouteTable::build(PathRule::XY, &m);
        assert!(t.same_col(m.node_at(3, 0), m.node_at(3, 7)));
        assert!(!t.same_col(m.node_at(3, 0), m.node_at(4, 0)));
        assert!(t.same_row(m.node_at(0, 5), m.node_at(7, 5)));
        assert!(!t.same_row(m.node_at(0, 5), m.node_at(0, 4)));
    }

    #[test]
    fn base_routing_rule_pairs() {
        assert_eq!(BaseRouting::ECube.request_rule(), PathRule::XY);
        assert_eq!(BaseRouting::ECube.reply_rule(), PathRule::YX);
        assert_eq!(BaseRouting::TurnModel.request_rule(), PathRule::WestFirst);
        assert_eq!(BaseRouting::TurnModel.reply_rule(), PathRule::YX);
    }
}
