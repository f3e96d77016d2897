//! Whole-system configuration.

use crate::schemes::SchemeKind;
use wormdsm_coherence::{Caches, CostModel, MsgSizes};
use wormdsm_mesh::network::MeshConfig;
use wormdsm_sim::Cycle;

/// Memory consistency model the processors obey.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConsistencyModel {
    /// Sequential consistency: one outstanding memory operation; every
    /// miss stalls the processor (the paper's headline configuration).
    Sequential,
    /// Release consistency: writes retire into a write buffer of the
    /// given depth and overlap with execution; reads still block;
    /// synchronization operations (barrier arrival, lock release) drain
    /// the buffer first. The paper notes its transaction structure
    /// carries over to RC — this is the ablation that shows how much of
    /// the win survives when write latency is hidden.
    Release {
        /// Maximum outstanding writes per processor.
        write_buffer: usize,
    },
}

/// The largest delay or cost, in cycles, a configuration may set. The
/// engine adds delays and costs to the current cycle unchecked; with
/// each at most `u32::MAX`, `now + value` stays far inside a `u64` over
/// any run, while a value near `u64::MAX` wrapped into wrong results
/// (or panicked in debug builds).
pub const MAX_TIMING_CYCLES: Cycle = u32::MAX as Cycle;

/// Configuration of a full DSM system instance.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Network configuration (mesh size, routing, VCs, consumption
    /// channels, i-ack buffers).
    pub mesh: MeshConfig,
    /// Direct-mapped cache slots per node (2048 x 32 B = 64 KB default).
    pub cache_sets: usize,
    /// Cache block size in bytes.
    pub block_bytes: u64,
    /// Controller and memory timing.
    pub costs: CostModel,
    /// Message sizes in flits.
    pub sizes: MsgSizes,
    /// Consistency model (sequential by default, as in the paper).
    pub consistency: ConsistencyModel,
    /// Release barriers with multidestination worms (one worm per row
    /// group) instead of per-participant unicasts — the collective-
    /// communication extension from the group's barrier work \[37\].
    pub multicast_barriers: bool,
}

impl SystemConfig {
    /// The paper's technology point on a `k x k` mesh with e-cube routing.
    pub fn paper_defaults(k: usize) -> Self {
        Self {
            mesh: MeshConfig::paper_defaults(k),
            cache_sets: 2048,
            block_bytes: 32,
            costs: CostModel::default(),
            sizes: MsgSizes::default(),
            consistency: ConsistencyModel::Sequential,
            multicast_barriers: false,
        }
    }

    /// Paper defaults with the base routing `scheme` is designed for.
    pub fn for_scheme(k: usize, scheme: SchemeKind) -> Self {
        let mut cfg = Self::paper_defaults(k);
        cfg.mesh.routing = scheme.natural_routing();
        cfg
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.mesh.mesh.nodes()
    }

    /// Check the configuration against the implementation's hard limits
    /// so an over-sized run fails up front with a clear message instead
    /// of mid-simulation.
    ///
    /// Checks first that every router delay and controller cost is at
    /// most [`MAX_TIMING_CYCLES`], then delegates the network-level limits
    /// (occupancy-bitset capacity, FIFO ring depth and slab size, a head
    /// delay of at most 256 cycles, u8-encoded channel/entry indices) to
    /// [`MeshConfig::validate`], and adds the other system-level ones:
    /// `NodeId` is a `u16`, so a mesh may not
    /// exceed 65536 nodes; the cache set count and block size must be
    /// powers of two (blocks of at least 4 bytes), and the set count at
    /// most [`Caches::MAX_SETS`] (2^48, so a set and a node share one
    /// 64-bit key of the cache table); control and gather
    /// messages need a head and a tail flit, and the longest worm must
    /// fit its `u16` length; and a release-consistency write buffer must
    /// hold a write.
    pub fn validate(&self) -> Result<(), String> {
        let (m, c) = (&self.mesh, &self.costs);
        let timing = [
            ("mesh.router_delay", m.router_delay),
            ("mesh.strip_delay", m.strip_delay),
            ("mesh.iack_check_delay", m.iack_check_delay),
            ("costs.dc_proc", c.dc_proc),
            ("costs.dc_send", c.dc_send),
            ("costs.cc_proc", c.cc_proc),
            ("costs.cc_send", c.cc_send),
            ("costs.cache_access", c.cache_access),
            ("costs.mem_access", c.mem_access),
            ("costs.iack_post", c.iack_post),
        ];
        if let Some((field, v)) = timing.into_iter().find(|t| t.1 > MAX_TIMING_CYCLES) {
            return Err(format!(
                "{field} = {v} cycles exceeds the {MAX_TIMING_CYCLES}-cycle limit on a delay or cost"
            ));
        }
        self.mesh.validate()?;
        if self.nodes() > usize::from(u16::MAX) + 1 {
            return Err(format!(
                "NodeId is a u16: {} nodes exceeds the 65536-node limit",
                self.nodes()
            ));
        }
        if !self.cache_sets.is_power_of_two() || self.cache_sets > Caches::MAX_SETS {
            return Err(format!(
                "cache_sets must be a power of two of at most 2^48, not {}",
                self.cache_sets
            ));
        }
        if !self.block_bytes.is_power_of_two() || self.block_bytes < 4 {
            return Err(format!(
                "block_bytes must be a power of two of at least 4, not {}",
                self.block_bytes
            ));
        }
        // Every worm carries a head and a tail flit.
        for (field, flits) in [("control", self.sizes.control), ("gather", self.sizes.gather)] {
            if flits < 2 {
                return Err(format!("sizes.{field} must be at least 2 flits, not {flits}"));
            }
        }
        let extra_dests = (self.nodes() as u64 - 1).div_ceil(4);
        let longest = u64::from(self.sizes.control)
            + u64::from(self.sizes.data)
            + extra_dests * u64::from(self.sizes.per_extra_dest_x4);
        if longest > u64::from(u16::MAX) {
            return Err(format!(
                "sizes: a worm of {longest} flits (control + data + per_extra_dest_x4 per 4 \
                 extra destinations) exceeds the u16 length limit"
            ));
        }
        if self.consistency == (ConsistencyModel::Release { write_buffer: 0 }) {
            return Err("Release write_buffer must hold at least 1 write".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormdsm_mesh::routing::BaseRouting;

    #[test]
    fn defaults_match_paper_parameters() {
        let c = SystemConfig::paper_defaults(8);
        assert_eq!(c.nodes(), 64);
        assert_eq!(c.mesh.router_delay, 4); // 20 ns
        assert_eq!(c.block_bytes, 32);
        assert_eq!(c.cache_sets * c.block_bytes as usize, 64 * 1024);
        assert_eq!(c.mesh.cons_channels, 4);
        assert_eq!(c.mesh.iack_buffers, 4);
    }

    #[test]
    fn default_consistency_is_sequential() {
        let c = SystemConfig::paper_defaults(4);
        assert_eq!(c.consistency, ConsistencyModel::Sequential);
        assert!(!c.multicast_barriers);
    }

    #[test]
    fn validate_accepts_defaults_and_rejects_hard_limits() {
        assert_eq!(SystemConfig::paper_defaults(8).validate(), Ok(()));

        let mut c = SystemConfig::paper_defaults(4);
        c.cache_sets = 0;
        assert!(c.validate().unwrap_err().contains("cache_sets"));
        c.cache_sets = 1 << 48;
        assert_eq!(c.validate(), Ok(()));
        c.cache_sets = 1 << 49;
        assert!(c.validate().unwrap_err().contains("at most 2^48"));

        // Over-provisioned VCs blow the router occupancy bitset; the
        // mesh-level check surfaces through the system-level validate.
        let mut c = SystemConfig::paper_defaults(4);
        c.mesh.vcs_per_vnet = 64;
        assert!(c.validate().unwrap_err().contains("occupancy bitset"));
    }

    /// A FIFO depth the router's ring index cannot address surfaces
    /// through the system-level validate instead of a panic when the
    /// router slab allocates.
    #[test]
    fn validate_rejects_fifo_depth_beyond_the_ring_index() {
        let mut c = SystemConfig::paper_defaults(4);
        c.mesh.vc_buf_flits = 1 << 20;
        assert!(c.validate().unwrap_err().contains("vc_buf_flits"));
        c.mesh.vc_buf_flits = usize::MAX;
        assert!(c.validate().unwrap_err().contains("overflows"));
    }

    #[test]
    fn for_scheme_selects_routing() {
        assert_eq!(
            SystemConfig::for_scheme(8, SchemeKind::MiMaCol).mesh.routing,
            BaseRouting::ECube
        );
        assert_eq!(
            SystemConfig::for_scheme(8, SchemeKind::MiUaWf).mesh.routing,
            BaseRouting::TurnModel
        );
    }
}
