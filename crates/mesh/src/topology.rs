//! 2D mesh topology: node coordinates, directions, ports.

/// Node identifier: linear index `y * width + x` into the mesh.
/// (`Default` exists so node lists can live in inline-storage vectors;
/// the default value `n0` is not meaningful by itself.)
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u16);

impl NodeId {
    /// Raw index as usize.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl core::fmt::Display for NodeId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

wormdsm_sim::snap_struct!(NodeId(0));

/// Coordinates in the mesh; `x` grows eastward, `y` grows southward.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Coord {
    /// Column (0 = west edge).
    pub x: u8,
    /// Row (0 = north edge).
    pub y: u8,
}

impl Coord {
    /// Construct a coordinate.
    pub fn new(x: u8, y: u8) -> Self {
        Self { x, y }
    }
}

impl core::fmt::Display for Coord {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "({},{})", self.x, self.y)
    }
}

/// The four mesh link directions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// +x
    East,
    /// -x
    West,
    /// -y
    North,
    /// +y
    South,
}

impl Direction {
    /// All directions, in the fixed order used for port indexing.
    pub const ALL: [Direction; 4] =
        [Direction::East, Direction::West, Direction::North, Direction::South];

    /// Dense index 0..=3, matching `Port::Dir(self).index()` — the bit
    /// position used by routing-table direction masks.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Direction::East => 0,
            Direction::West => 1,
            Direction::North => 2,
            Direction::South => 3,
        }
    }

    /// The opposite direction.
    pub fn opposite(self) -> Direction {
        match self {
            Direction::East => Direction::West,
            Direction::West => Direction::East,
            Direction::North => Direction::South,
            Direction::South => Direction::North,
        }
    }
}

/// Router port: four link directions plus the local (processor) port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Port {
    /// Link port in a mesh direction.
    Dir(Direction),
    /// Local injection/consumption port.
    Local,
}

impl Port {
    /// Dense index 0..=4 (E, W, N, S, Local) for array-indexed port state.
    pub fn index(self) -> usize {
        match self {
            Port::Dir(d) => d.index(),
            Port::Local => 4,
        }
    }
}

/// Number of router ports (4 directions + local).
pub const NUM_PORTS: usize = 5;

/// A `width x height` 2D mesh (the paper uses square `k x k` meshes, but the
/// model supports rectangles).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mesh2D {
    width: u8,
    height: u8,
}

impl Mesh2D {
    /// Maximum supported mesh dimension. Coordinates are stored as `u8`
    /// and node ids as `u16`; `255 x 255 = 65025` nodes fits both, so a
    /// k=128 (16384-node) mesh has ample headroom without widening either.
    pub const MAX_DIM: usize = 255;

    /// A `width x height` mesh. Both dimensions must be in
    /// `1..=`[`Mesh2D::MAX_DIM`]; anything else panics loudly here rather
    /// than truncating into an aliased coordinate space.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(
            (1..=Self::MAX_DIM).contains(&width) && (1..=Self::MAX_DIM).contains(&height),
            "mesh dimensions must be 1..={} (got {width} x {height}); larger meshes would \
             truncate u8 coordinates and alias nodes",
            Self::MAX_DIM
        );
        Self { width: width as u8, height: height as u8 }
    }

    /// Square `k x k` mesh.
    pub fn square(k: usize) -> Self {
        Self::new(k, k)
    }

    /// Mesh width (columns).
    pub fn width(&self) -> usize {
        self.width as usize
    }

    /// Mesh height (rows).
    pub fn height(&self) -> usize {
        self.height as usize
    }

    /// Total node count.
    pub fn nodes(&self) -> usize {
        self.width() * self.height()
    }

    /// Coordinate of a node id.
    pub fn coord(&self, n: NodeId) -> Coord {
        debug_assert!(n.idx() < self.nodes());
        Coord { x: (n.idx() % self.width()) as u8, y: (n.idx() / self.width()) as u8 }
    }

    /// Node id of a coordinate.
    pub fn node(&self, c: Coord) -> NodeId {
        debug_assert!((c.x as usize) < self.width() && (c.y as usize) < self.height());
        NodeId((c.y as usize * self.width() + c.x as usize) as u16)
    }

    /// Node id from raw x/y.
    pub fn node_at(&self, x: usize, y: usize) -> NodeId {
        self.node(Coord::new(x as u8, y as u8))
    }

    /// The neighbor of `n` in direction `d`, if it exists (mesh edges).
    pub fn neighbor(&self, n: NodeId, d: Direction) -> Option<NodeId> {
        let c = self.coord(n);
        let (x, y) = (c.x as isize, c.y as isize);
        let (nx, ny) = match d {
            Direction::East => (x + 1, y),
            Direction::West => (x - 1, y),
            Direction::North => (x, y - 1),
            Direction::South => (x, y + 1),
        };
        if nx < 0 || ny < 0 || nx >= self.width() as isize || ny >= self.height() as isize {
            None
        } else {
            Some(self.node_at(nx as usize, ny as usize))
        }
    }

    /// Manhattan distance in hops between two nodes.
    pub fn distance(&self, a: NodeId, b: NodeId) -> usize {
        let (ca, cb) = (self.coord(a), self.coord(b));
        (ca.x.abs_diff(cb.x) as usize) + (ca.y.abs_diff(cb.y) as usize)
    }

    /// The direction of the single hop from `a` to adjacent node `b`.
    /// Panics if they are not adjacent.
    pub fn hop_direction(&self, a: NodeId, b: NodeId) -> Direction {
        let (ca, cb) = (self.coord(a), self.coord(b));
        match (cb.x as i16 - ca.x as i16, cb.y as i16 - ca.y as i16) {
            (1, 0) => Direction::East,
            (-1, 0) => Direction::West,
            (0, -1) => Direction::North,
            (0, 1) => Direction::South,
            _ => panic!("{a}@{ca} and {b}@{cb} are not adjacent"),
        }
    }

    /// Iterator over all node ids in row-major order.
    pub fn iter_nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes() as u16).map(NodeId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coord_node_roundtrip() {
        let m = Mesh2D::square(8);
        for n in m.iter_nodes() {
            assert_eq!(m.node(m.coord(n)), n);
        }
        assert_eq!(m.coord(NodeId(0)), Coord::new(0, 0));
        assert_eq!(m.coord(NodeId(9)), Coord::new(1, 1));
    }

    /// Round-trip must hold at the maximum supported dimension: node ids
    /// stay within `u16` and coordinates within `u8` across the whole
    /// 255 x 255 space (and rectangles touching both extremes).
    #[test]
    fn coord_node_roundtrip_at_max_dim() {
        for (w, h) in
            [(Mesh2D::MAX_DIM, Mesh2D::MAX_DIM), (Mesh2D::MAX_DIM, 1), (1, Mesh2D::MAX_DIM)]
        {
            let m = Mesh2D::new(w, h);
            assert_eq!(m.nodes(), w * h);
            assert!(m.nodes() <= u16::MAX as usize + 1, "node ids must fit u16");
            for n in m.iter_nodes() {
                let c = m.coord(n);
                assert_eq!(m.node(c), n, "{w}x{h} node {n} coord {c}");
                assert!((c.x as usize) < w && (c.y as usize) < h);
            }
            // Corners map to the expected extremes.
            assert_eq!(m.coord(NodeId(0)), Coord::new(0, 0));
            assert_eq!(
                m.coord(NodeId((w * h - 1) as u16)),
                Coord::new((w - 1) as u8, (h - 1) as u8)
            );
        }
    }

    #[test]
    #[should_panic(expected = "mesh dimensions must be 1..=255")]
    fn oversized_mesh_is_rejected_not_truncated() {
        Mesh2D::new(256, 8);
    }

    #[test]
    #[should_panic(expected = "mesh dimensions must be 1..=255")]
    fn zero_dimension_is_rejected() {
        Mesh2D::new(8, 0);
    }

    #[test]
    fn rectangular_mesh_indexing() {
        let m = Mesh2D::new(4, 2);
        assert_eq!(m.nodes(), 8);
        assert_eq!(m.coord(NodeId(5)), Coord::new(1, 1));
        assert_eq!(m.node_at(3, 1), NodeId(7));
    }

    #[test]
    fn neighbors_respect_edges() {
        let m = Mesh2D::square(4);
        let nw = m.node_at(0, 0);
        assert_eq!(m.neighbor(nw, Direction::West), None);
        assert_eq!(m.neighbor(nw, Direction::North), None);
        assert_eq!(m.neighbor(nw, Direction::East), Some(m.node_at(1, 0)));
        assert_eq!(m.neighbor(nw, Direction::South), Some(m.node_at(0, 1)));
        let se = m.node_at(3, 3);
        assert_eq!(m.neighbor(se, Direction::East), None);
        assert_eq!(m.neighbor(se, Direction::South), None);
    }

    #[test]
    fn distances_and_hop_directions() {
        let m = Mesh2D::square(8);
        let a = m.node_at(1, 2);
        let b = m.node_at(5, 7);
        assert_eq!(m.distance(a, b), 4 + 5);
        assert_eq!(m.distance(a, a), 0);
        assert_eq!(m.hop_direction(m.node_at(1, 1), m.node_at(2, 1)), Direction::East);
        assert_eq!(m.hop_direction(m.node_at(1, 1), m.node_at(1, 0)), Direction::North);
    }

    #[test]
    fn opposites() {
        for d in Direction::ALL {
            assert_eq!(d.opposite().opposite(), d);
        }
    }

    #[test]
    fn port_index_roundtrip() {
        let mut idx: Vec<usize> = Direction::ALL.iter().map(|&d| Port::Dir(d).index()).collect();
        idx.push(Port::Local.index());
        idx.sort_unstable();
        assert_eq!(idx, (0..NUM_PORTS).collect::<Vec<_>>(), "port indices are dense and distinct");
        for d in Direction::ALL {
            assert_eq!(Port::Dir(d).index(), d.index());
        }
    }
}
