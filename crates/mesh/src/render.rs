//! ASCII rendering of meshes and worm paths.
//!
//! Turns a destination sequence into a picture of the hop-by-hop path a
//! conformant worm takes — the fastest way to see what a grouping scheme
//! actually does. Used by the examples and handy in test failure output.
//!
//! ```
//! use wormdsm_mesh::render::render_path;
//! use wormdsm_mesh::routing::PathRule;
//! use wormdsm_mesh::topology::Mesh2D;
//!
//! let mesh = Mesh2D::square(4);
//! let pic = render_path(&mesh, PathRule::XY, mesh.node_at(0, 0), &[mesh.node_at(2, 2)]).unwrap();
//! assert!(pic.contains('S') && pic.contains('D'));
//! ```

use crate::routing::{expand_path, PathRule, RuleViolation};
use crate::topology::{Direction, Mesh2D, NodeId};
use wormdsm_sim::Cycle;

/// Render the canonical conformant path from `src` through `dests`.
///
/// Legend: `S` source, `D` delivering destination, `o` waypoint-style pass
/// through a listed destination that repeats, `*` path node, `.` untouched
/// node. When a node plays several roles the most specific wins
/// (S > D > *).
pub fn render_path(
    mesh: &Mesh2D,
    rule: PathRule,
    src: NodeId,
    dests: &[NodeId],
) -> Result<String, RuleViolation> {
    render_path_with_mask(mesh, rule, src, dests, None)
}

/// [`render_path`] with a delivery mask: `false` entries render as `w`
/// (routing waypoints).
pub fn render_path_with_mask(
    mesh: &Mesh2D,
    rule: PathRule,
    src: NodeId,
    dests: &[NodeId],
    deliver: Option<&[bool]>,
) -> Result<String, RuleViolation> {
    let path = expand_path(rule, mesh, src, dests)?;
    let mut grid: Vec<Vec<char>> = vec![vec!['.'; mesh.width()]; mesh.height()];
    for n in &path {
        let c = mesh.coord(*n);
        grid[c.y as usize][c.x as usize] = '*';
    }
    for (i, d) in dests.iter().enumerate() {
        let c = mesh.coord(*d);
        let delivering = deliver.is_none_or(|m| m[i]);
        grid[c.y as usize][c.x as usize] = if delivering { 'D' } else { 'w' };
    }
    let sc = mesh.coord(src);
    grid[sc.y as usize][sc.x as usize] = 'S';
    let mut out = String::new();
    for row in grid {
        for (x, ch) in row.into_iter().enumerate() {
            if x > 0 {
                out.push(' ');
            }
            out.push(ch);
        }
        out.push('\n');
    }
    Ok(out)
}

/// Render several worms of one plan into one picture, numbering each
/// worm's path nodes `1`, `2`, ... (destinations upper-cased as `D`).
/// Overlapping paths show the latest worm's digit.
pub fn render_worms(
    mesh: &Mesh2D,
    rule: PathRule,
    src: NodeId,
    worms: &[(&[NodeId], Option<&[bool]>)],
) -> Result<String, RuleViolation> {
    let mut grid: Vec<Vec<char>> = vec![vec!['.'; mesh.width()]; mesh.height()];
    for (i, (dests, deliver)) in worms.iter().enumerate() {
        let digit = char::from_digit(((i % 9) + 1) as u32, 10).expect("1..=9");
        let path = expand_path(rule, mesh, src, dests)?;
        for n in &path {
            let c = mesh.coord(*n);
            grid[c.y as usize][c.x as usize] = digit;
        }
        for (j, d) in dests.iter().enumerate() {
            let c = mesh.coord(*d);
            let delivering = deliver.is_none_or(|m| m[j]);
            grid[c.y as usize][c.x as usize] = if delivering { 'D' } else { 'w' };
        }
    }
    let sc = mesh.coord(src);
    grid[sc.y as usize][sc.x as usize] = 'S';
    let mut out = String::new();
    for row in grid {
        for (x, ch) in row.into_iter().enumerate() {
            if x > 0 {
                out.push(' ');
            }
            out.push(ch);
        }
        out.push('\n');
    }
    Ok(out)
}

/// Utilization ramp used by [`link_heatmap`]: index `i` covers busy
/// fractions `[i*10%, (i+1)*10%)`, except that any non-zero activity
/// renders at least `'.'` (so a cold-but-used link is distinguishable
/// from an idle one) and 100% renders `'@'`.
pub const HEAT_RAMP: [char; 10] = [' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];

/// Render per-link busy counts as an ASCII utilization heatmap.
///
/// `busy` is indexed `node * 4 + dir` ([`Direction::index`] order:
/// E, W, N, S) — the layout of `NetStats::link_busy`. Each mesh edge
/// renders one [`HEAT_RAMP`] bucket char for the *busier* of its two
/// directed links, as a fraction of `elapsed` cycles; nodes render as `o`:
///
/// ```text
/// o @ o . o   o
/// =   .
/// o : o   o   o
/// ```
pub fn link_heatmap(mesh: &Mesh2D, busy: &[u64], elapsed: Cycle) -> String {
    assert_eq!(busy.len(), mesh.nodes() * 4, "one busy counter per directed link");
    let bucket = |b: u64| -> char {
        if b == 0 || elapsed == 0 {
            return HEAT_RAMP[0];
        }
        HEAT_RAMP[((b * 10) / elapsed).clamp(1, 9) as usize]
    };
    let link = |x: usize, y: usize, d: Direction| -> u64 {
        busy[mesh.node_at(x, y).idx() * 4 + d.index()]
    };
    let mut out = String::new();
    for y in 0..mesh.height() {
        // Node row: nodes with horizontal-edge buckets between them.
        let mut cells: Vec<char> = Vec::with_capacity(2 * mesh.width() - 1);
        for x in 0..mesh.width() {
            if x > 0 {
                cells.push(bucket(link(x - 1, y, Direction::East).max(link(
                    x,
                    y,
                    Direction::West,
                ))));
            }
            cells.push('o');
        }
        push_row(&mut out, &cells);
        // Vertical-edge row beneath, aligned under the node columns.
        if y + 1 < mesh.height() {
            let mut cells: Vec<char> = Vec::with_capacity(2 * mesh.width() - 1);
            for x in 0..mesh.width() {
                if x > 0 {
                    cells.push(' ');
                }
                cells.push(bucket(link(x, y, Direction::South).max(link(
                    x,
                    y + 1,
                    Direction::North,
                ))));
            }
            push_row(&mut out, &cells);
        }
    }
    out
}

fn push_row(out: &mut String, cells: &[char]) {
    for (i, c) in cells.iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        out.push(*c);
    }
    // Trim trailing blanks so all-idle rows don't emit invisible padding.
    while out.ends_with(' ') {
        out.pop();
    }
    out.push('\n');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xy_path_renders_l_shape() {
        let m = Mesh2D::square(4);
        let pic = render_path(&m, PathRule::XY, m.node_at(0, 0), &[m.node_at(2, 2)]).unwrap();
        let rows: Vec<&str> = pic.lines().collect();
        assert_eq!(rows[0], "S * * .");
        assert_eq!(rows[1], ". . * .");
        assert_eq!(rows[2], ". . D .");
        assert_eq!(rows[3], ". . . .");
    }

    #[test]
    fn waypoints_render_as_w() {
        let m = Mesh2D::square(4);
        let dests = [m.node_at(1, 0), m.node_at(3, 0)];
        let mask = [false, true];
        let pic =
            render_path_with_mask(&m, PathRule::XY, m.node_at(0, 0), &dests, Some(&mask)).unwrap();
        assert_eq!(pic.lines().next().unwrap(), "S w * D");
    }

    #[test]
    fn violation_propagates() {
        let m = Mesh2D::square(4);
        // Two columns under XY: not conformant.
        let err =
            render_path(&m, PathRule::XY, m.node_at(0, 0), &[m.node_at(1, 2), m.node_at(2, 3)]);
        assert!(err.is_err());
    }

    #[test]
    fn heatmap_buckets_a_hand_built_4x4_snapshot() {
        let m = Mesh2D::square(4);
        let mut busy = vec![0u64; m.nodes() * 4];
        let set = |busy: &mut Vec<u64>, x: usize, y: usize, d: Direction, v: u64| {
            busy[m.node_at(x, y).idx() * 4 + d.index()] = v;
        };
        // Saturated east link (0,0)->(1,0); its reverse twin is quieter
        // and must lose the max.
        set(&mut busy, 0, 0, Direction::East, 100);
        set(&mut busy, 1, 0, Direction::West, 20);
        // Half-busy vertical edge (1,1)-(1,2), dominated by the north
        // direction of the lower node.
        set(&mut busy, 1, 2, Direction::North, 45);
        set(&mut busy, 1, 1, Direction::South, 13);
        // Barely-used link still renders as '.', not idle.
        set(&mut busy, 3, 3, Direction::West, 1);
        let pic = link_heatmap(&m, &busy, 100);
        let rows: Vec<&str> = pic.lines().collect();
        assert_eq!(rows.len(), 7, "4 node rows + 3 vertical-edge rows");
        assert_eq!(rows[0], "o @ o   o   o");
        assert_eq!(rows[2], "o   o   o   o", "row y=1 nodes only");
        assert_eq!(rows[3], "    =", "45% edge under column x=1");
        assert_eq!(rows[6], "o   o   o . o", "busy=1 renders the minimum non-idle bucket");
        // All-idle vertical rows collapse to nothing but exist.
        assert_eq!(rows[1], "");
        // Idle everything renders all-blank edges.
        let idle = link_heatmap(&m, &vec![0; m.nodes() * 4], 100);
        assert!(idle.lines().all(|l| !l.contains(|c| HEAT_RAMP[1..].contains(&c))));
    }

    #[test]
    fn multi_worm_rendering_numbers_paths() {
        let m = Mesh2D::square(4);
        let w1 = [m.node_at(1, 2)];
        let w2 = [m.node_at(3, 1)];
        let pic =
            render_worms(&m, PathRule::XY, m.node_at(0, 0), &[(&w1, None), (&w2, None)]).unwrap();
        assert!(pic.contains('1') || pic.contains('D'));
        assert!(pic.contains('2'));
        assert!(pic.starts_with('S'));
    }
}
