//! Application kernels as deterministic op-stream generators.
//!
//! The paper's Table 6 applications, re-implemented as shared-memory
//! access-pattern kernels (see DESIGN.md, substitution 2): the generators
//! emit the same data layout, ownership partitioning, sharing structure
//! and barrier skeleton as the originals; arithmetic becomes `Compute`
//! ops. Addresses are block-granular (one 32-byte block per element
//! group), which is the granularity at which coherence — the thing under
//! study — operates.
//!
//! Shared regions are placed at disjoint block ranges so multiple kernels
//! can coexist in one address space.

pub mod apsp;
pub mod barnes_hut;
pub mod lu;

use crate::driver::Workload;
use wormdsm_coherence::Addr;

/// Names accepted by [`seeded`], canonical order.
pub const APP_NAMES: [&str; 3] = ["bh", "lu", "apsp"];

/// The three seeded applications (see [`APP_NAMES`]) with their compute
/// phases scaled up by `scale`. Base costs model a 1-FLOP/cycle node:
/// ~200 cycles per body-body force evaluation, ~1024 cycles per 8x8
/// block multiply-add (2·8³ FLOPs), ~256 cycles per 64-entry row
/// relaxation.
///
/// The generators are communication-extreme — they emit a shared-block
/// access every few operations, whereas real scientific codes retire
/// hundreds to thousands of compute cycles per coherence miss. The scale
/// factor restores that ratio; scale 1 is the busy-cycle regime the
/// golden references are recorded in. Problem sizes scale with the
/// machine only once it outgrows the reference sizes (64 bodies / 64x64
/// matrices), so every configuration up to 64 processors is
/// byte-identical to the historical fixed-size runs while larger meshes
/// stay valid (`bodies >= procs`, `n >= procs`).
///
/// Errors (rather than panics) on an unknown name or a scale whose op
/// costs overflow: this is the parse point for externally submitted app
/// strings and scales (CLI flags, farm jobs).
pub fn seeded(app: &str, procs: usize, scale: u64) -> Result<Workload, String> {
    // A scaled cost must fit in 32 bits, so neither the generators' own
    // multipliers nor the simulated clock that adds it can overflow.
    let cost = |base: u64| {
        base.checked_mul(scale).filter(|&c| c <= u64::from(u32::MAX)).ok_or_else(|| {
            format!("compute_scale={scale} takes {app}'s {base}-cycle op cost past 32 bits")
        })
    };
    let mut w = match app {
        "bh" => barnes_hut::generate(&barnes_hut::BarnesHutConfig {
            procs,
            bodies: 64.max(procs),
            steps: 2,
            force_cost: cost(200)?,
            ..Default::default()
        }),
        "lu" => lu::generate(&lu::LuConfig { n: 64, block: 8, procs, flop_cost: cost(1024)? }),
        "apsp" => {
            apsp::generate(&apsp::ApspConfig { n: 64.max(procs), procs, relax_cost: cost(256)? })
        }
        other => return Err(format!("unknown app {other:?} (expected one of {APP_NAMES:?})")),
    };
    w.shrink_to_fit();
    Ok(w)
}

/// A contiguous block-granular array in shared memory.
#[derive(Debug, Clone, Copy)]
pub struct Region {
    /// First block id of the region.
    pub base_block: u64,
}

impl Region {
    /// Address of the `i`-th block of the region (32-byte blocks).
    pub fn block(&self, i: u64) -> Addr {
        Addr((self.base_block + i) * 32)
    }
}

/// Region bases (block ids) for each application's arrays.
pub mod layout {
    use super::Region;

    /// Barnes-Hut body positions (one block per body).
    pub const BH_POS: Region = Region { base_block: 0x1_0000 };
    /// Barnes-Hut body accelerations.
    pub const BH_ACC: Region = Region { base_block: 0x2_0000 };
    /// Barnes-Hut tree cells.
    pub const BH_TREE: Region = Region { base_block: 0x3_0000 };
    /// LU matrix blocks.
    pub const LU_A: Region = Region { base_block: 0x4_0000 };
    /// APSP distance matrix rows.
    pub const APSP_D: Region = Region { base_block: 0x8_0000 };
    /// Barrier release flags (one block per barrier episode, shared by
    /// every participant).
    pub const SYNC_FLAGS: Region = Region { base_block: 0xC_0000 };
}

/// Emit one barrier episode with a shared-memory release flag.
///
/// Processor 0 (the master) first rewrites the *previous* episode's flag
/// — which every participant read after the previous barrier — producing
/// the wide `d ~ P-1` invalidation that flag-based synchronization causes
/// on real write-invalidate machines (spinning is modeled by the one
/// post-barrier read; op streams are static, so the magic barrier
/// provides the control synchronization). All three applications share
/// this skeleton.
pub(crate) fn emit_flag_barrier(w: &mut crate::driver::Workload, barrier: &mut u16, procs: usize) {
    use wormdsm_core::MemOp;
    let bid = *barrier;
    if bid > 0 {
        w.push(0, MemOp::Write(layout::SYNC_FLAGS.block(bid as u64 - 1)));
    }
    for p in 0..procs {
        w.push(p, MemOp::Barrier { id: bid, participants: procs as u32 });
    }
    for p in 0..procs {
        w.push(p, MemOp::Read(layout::SYNC_FLAGS.block(bid as u64)));
    }
    *barrier += 1;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_do_not_overlap() {
        // Coarse check: bases are ordered and far apart.
        let bases = [
            layout::BH_POS.base_block,
            layout::BH_ACC.base_block,
            layout::BH_TREE.base_block,
            layout::LU_A.base_block,
            layout::APSP_D.base_block,
        ];
        for w in bases.windows(2) {
            assert!(w[1] >= w[0] + 0x1_0000);
        }
    }

    /// The queues come back at exact capacity: the generators grow them
    /// by doubling, and the spare half would stay allocated for the run.
    #[test]
    fn seeded_op_queues_have_no_spare_capacity() {
        for app in APP_NAMES {
            let w = seeded(app, 16, 1).unwrap();
            assert!(w.total_ops() > 0);
            for (p, q) in w.ops.iter().enumerate() {
                assert_eq!(q.capacity(), q.len(), "{app} processor {p}");
            }
        }
    }

    #[test]
    fn region_addressing() {
        let r = Region { base_block: 10 };
        assert_eq!(r.block(0), Addr(320));
        assert_eq!(r.block(3), Addr(416));
    }
}
