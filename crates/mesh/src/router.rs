//! Per-node wormhole router state, stored as structure-of-arrays slabs.
//!
//! A router has five ports (E, W, N, S, Local); each input port carries
//! `vcs_per_vnet * NUM_VNETS` virtual channels with small flit FIFOs and
//! credit-based flow control toward the upstream sender. All *behaviour*
//! (routing, arbitration, movement) lives in [`crate::network`]; this module
//! is the state container plus small invariant-preserving helpers.
//!
//! # Layout
//!
//! [`RouterSlab`] holds the state of **every** router, one field per array
//! (credits, allocations, VC modes, buffer-head ready times, occupancy
//! bitsets, flit counts), each laid out node-major and contiguous. A
//! per-cycle scan over the active worklist therefore walks dense,
//! same-typed memory instead of chasing per-node struct pointers — at a
//! 4096-node (k=64) mesh the tick-hot credit/occupancy/head state stays
//! cache-resident.

use crate::worm::Flit;
use std::collections::VecDeque;
use wormdsm_sim::{BitSet128, Cycle, Strided};

/// A flit sitting in a router buffer, with the cycle at which it becomes
/// eligible to move (head flits pay the router pipeline delay, body flits
/// one cycle).
#[derive(Debug, Clone, Copy)]
pub struct BufFlit {
    /// The flit.
    pub flit: Flit,
    /// First cycle at which this flit may be processed/moved.
    pub ready_at: Cycle,
}

/// Allocation state of one input virtual channel.
///
/// Field widths are deliberately narrow (`u8` indices): ports are 0..=4,
/// VC/consumption/i-ack indices are bounded far below 256 by construction
/// ([`RouterSlab::new`] and the NIC constructor reject anything larger), so
/// the whole mode array stays compact in the slab.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VcMode {
    /// No allocation; a head flit at the front awaits processing.
    Normal,
    /// Allocated a path through the switch.
    Active {
        /// Output port index (may be `Port::Local.index()` for consumption).
        out_port: u8,
        /// Output VC index (or consumption channel index when local).
        out_vc: u8,
        /// Forward-and-absorb: consumption channel receiving copies.
        absorb: Option<u8>,
    },
    /// Gather worm parked at this node: remaining flits drain into the
    /// i-ack buffer entry instead of moving through the switch.
    DrainPark {
        /// Target i-ack entry index at the local NIC.
        entry: u8,
    },
}

/// `head_ready` value of an empty input VC: never eligible.
const EMPTY_READY: Cycle = Cycle::MAX;

/// Router state for every node, field-major. All indices are global node
/// ids; the `(port, vc)` pair maps to slot `port * vcs + vc`, matching the
/// occupancy bitset's bit positions.
#[derive(Debug)]
pub struct RouterSlab {
    nodes: usize,
    ports: usize,
    vcs: usize,
    vc_cap: usize,
    /// Flit FIFOs, slot-strided.
    buf: Strided<VecDeque<BufFlit>>,
    /// `ready_at` of each FIFO's front flit ([`EMPTY_READY`] when empty):
    /// the "is the head eligible this cycle" scans read this dense array
    /// instead of dereferencing the FIFO.
    head_ready: Strided<Cycle>,
    /// Allocation state per input VC, slot-strided.
    mode: Strided<VcMode>,
    /// Absorb channel acquired during destination processing, consumed into
    /// [`VcMode::Active`] when the output VC is allocated.
    pending_absorb: Strided<Option<u8>>,
    /// Credits toward the downstream input buffer, slot-strided (the
    /// `Local` port row is unused).
    credit: Strided<u32>,
    /// Output VC allocations `-> (in_port, in_vc)`, slot-strided.
    alloc: Strided<Option<(u8, u8)>>,
    /// Round-robin arbitration pointer per output port (stride `ports`).
    rr: Strided<u32>,
    /// Occupancy bitset per node: bit `port * vcs + vc` set while that
    /// input VC holds at least one flit. Two words wide, so up to 128
    /// slots; the constructor rejects configurations beyond that.
    occ: Vec<BitSet128>,
    /// Flits currently buffered per node (fast-skip).
    flits: Vec<u32>,
}

impl RouterSlab {
    /// Build routers for `nodes` nodes with `ports` x `vcs` input VCs of
    /// `vc_cap` flits, and matching output credit counters initialized to
    /// the downstream capacity.
    pub fn new(nodes: usize, ports: usize, vcs: usize, vc_cap: usize) -> Self {
        assert!(
            ports * vcs <= BitSet128::CAPACITY,
            "occupancy bitset limits ports * vcs to {} (got {} * {})",
            BitSet128::CAPACITY,
            ports,
            vcs
        );
        let stride = ports * vcs;
        Self {
            nodes,
            ports,
            vcs,
            vc_cap,
            buf: Strided::new(nodes, stride, || VecDeque::with_capacity(vc_cap)),
            head_ready: Strided::new(nodes, stride, || EMPTY_READY),
            mode: Strided::new(nodes, stride, || VcMode::Normal),
            pending_absorb: Strided::new(nodes, stride, || None),
            credit: Strided::new(nodes, stride, || vc_cap as u32),
            alloc: Strided::new(nodes, stride, || None),
            rr: Strided::new(nodes, ports, || 0),
            occ: vec![BitSet128::new(); nodes],
            flits: vec![0; nodes],
        }
    }

    /// Node count.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// VC count per port (the occupancy bit stride).
    pub fn vcs(&self) -> usize {
        self.vcs
    }

    #[inline]
    fn slot(&self, port: usize, vc: usize) -> usize {
        debug_assert!(port < self.ports && vc < self.vcs);
        port * self.vcs + vc
    }

    /// Flits buffered at node `n`.
    #[inline]
    pub fn flits(&self, n: usize) -> usize {
        self.flits[n] as usize
    }

    /// Occupancy bitset of node `n`.
    #[inline]
    pub fn occ(&self, n: usize) -> BitSet128 {
        self.occ[n]
    }

    /// Front flit of input `(port, vc)` at node `n`.
    #[inline]
    pub fn front(&self, n: usize, port: usize, vc: usize) -> Option<BufFlit> {
        self.buf.at(n, self.slot(port, vc)).front().copied()
    }

    /// `ready_at` of the front flit ([`Cycle::MAX`] when empty).
    #[inline]
    pub fn front_ready(&self, n: usize, port: usize, vc: usize) -> Cycle {
        *self.head_ready.at(n, self.slot(port, vc))
    }

    /// Allocation state of input `(port, vc)`.
    #[inline]
    pub fn mode(&self, n: usize, port: usize, vc: usize) -> VcMode {
        *self.mode.at(n, self.slot(port, vc))
    }

    /// Output VC allocation `-> (in_port, in_vc)`.
    #[inline]
    pub fn alloc(&self, n: usize, port: usize, vc: usize) -> Option<(usize, usize)> {
        self.alloc.at(n, self.slot(port, vc)).map(|(p, v)| (p as usize, v as usize))
    }

    /// Credits toward the downstream buffer of output `(port, vc)`.
    #[inline]
    pub fn credit(&self, n: usize, port: usize, vc: usize) -> usize {
        *self.credit.at(n, self.slot(port, vc)) as usize
    }

    /// Free buffer slots of input `(port, vc)`.
    #[inline]
    pub fn space(&self, n: usize, port: usize, vc: usize) -> usize {
        self.vc_cap - self.buf.at(n, self.slot(port, vc)).len()
    }

    /// Re-arm the front flit's eligibility time (header strip / i-ack
    /// check delays).
    #[inline]
    pub fn set_front_ready(&mut self, n: usize, port: usize, vc: usize, at: Cycle) {
        let s = self.slot(port, vc);
        self.buf.at_mut(n, s).front_mut().expect("head present").ready_at = at;
        *self.head_ready.at_mut(n, s) = at;
    }

    /// Set the allocation state of input `(port, vc)`.
    #[inline]
    pub fn set_mode(&mut self, n: usize, port: usize, vc: usize, m: VcMode) {
        let s = self.slot(port, vc);
        *self.mode.at_mut(n, s) = m;
    }

    /// Stash an absorb channel pending route allocation.
    #[inline]
    pub fn set_pending_absorb(&mut self, n: usize, port: usize, vc: usize, cc: usize) {
        let s = self.slot(port, vc);
        *self.pending_absorb.at_mut(n, s) = Some(cc as u8);
    }

    /// Take the pending absorb channel (route allocation consumes it).
    #[inline]
    pub fn take_pending_absorb(&mut self, n: usize, port: usize, vc: usize) -> Option<u8> {
        let s = self.slot(port, vc);
        self.pending_absorb.at_mut(n, s).take()
    }

    /// Set or clear an output VC allocation.
    #[inline]
    pub fn set_alloc(&mut self, n: usize, port: usize, vc: usize, a: Option<(usize, usize)>) {
        let s = self.slot(port, vc);
        *self.alloc.at_mut(n, s) = a.map(|(p, v)| (p as u8, v as u8));
    }

    /// Consume one downstream credit (a flit crossed the link).
    #[inline]
    pub fn take_credit(&mut self, n: usize, port: usize, vc: usize) {
        let s = self.slot(port, vc);
        *self.credit.at_mut(n, s) -= 1;
    }

    /// Return one credit (downstream buffer slot vacated).
    #[inline]
    pub fn add_credit(&mut self, n: usize, port: usize, vc: usize) {
        let s = self.slot(port, vc);
        *self.credit.at_mut(n, s) += 1;
    }

    /// Round-robin pointer of output `port`.
    #[inline]
    pub fn rr(&self, n: usize, port: usize) -> usize {
        *self.rr.at(n, port) as usize
    }

    /// Set the round-robin pointer of output `port`.
    #[inline]
    pub fn set_rr(&mut self, n: usize, port: usize, v: usize) {
        *self.rr.at_mut(n, port) = v as u32;
    }

    /// Find a free, credited output VC on `port` within the VC index range
    /// `lo..hi` (the worm's virtual-network class). Returns the VC with
    /// the most credits (head-of-line freedom), ties to the lowest index.
    pub fn best_free_out_vc(
        &self,
        n: usize,
        port: usize,
        lo: usize,
        hi: usize,
    ) -> Option<(usize, usize)> {
        let (credit, alloc) = (self.credit.row(n), self.alloc.row(n));
        let mut best: Option<(usize, usize)> = None;
        for vc in lo..hi {
            let s = self.slot(port, vc);
            if alloc[s].is_none() && credit[s] > 0 {
                let cr = credit[s] as usize;
                if best.is_none_or(|(_, bc)| cr > bc) {
                    best = Some((vc, cr));
                }
            }
        }
        best
    }

    /// True when output `(port, vc)` is credit-starved this cycle: it is
    /// allocated to an input VC whose front flit is ready to move, but
    /// the downstream buffer has returned no credits.
    pub fn credit_starved(&self, now: Cycle, n: usize, port: usize, vc: usize) -> bool {
        let Some((in_port, in_vc)) = self.alloc(n, port, vc) else { return false };
        if self.credit(n, port, vc) > 0 {
            return false;
        }
        self.front_ready(n, in_port, in_vc) <= now
    }

    /// Deposit a flit into input `(port, vc)` of node `n`, maintaining the
    /// head-ready mirror, occupancy bit, and flit count. Panics on
    /// overflow (credit discipline must prevent it).
    pub fn deposit(&mut self, n: usize, port: usize, vc: usize, bf: BufFlit) {
        let s = self.slot(port, vc);
        let buf = self.buf.at_mut(n, s);
        assert!(buf.len() < self.vc_cap, "input buffer overflow at slot {s}");
        if buf.is_empty() {
            *self.head_ready.at_mut(n, s) = bf.ready_at;
        }
        buf.push_back(bf);
        self.flits[n] += 1;
        self.occ[n].set(s);
    }

    /// Pop the front flit of input `(port, vc)` of node `n`, maintaining
    /// the same invariants.
    pub fn pop(&mut self, n: usize, port: usize, vc: usize) -> BufFlit {
        let s = self.slot(port, vc);
        let buf = self.buf.at_mut(n, s);
        let bf = buf.pop_front().expect("pop from empty input VC");
        let next_ready = buf.front().map_or(EMPTY_READY, |f| f.ready_at);
        let empty = buf.is_empty();
        let head_ready = self.head_ready.at_mut(n, s);
        debug_assert_eq!(*head_ready, bf.ready_at, "head-ready mirror out of sync");
        *head_ready = next_ready;
        self.flits[n] -= 1;
        if empty {
            self.occ[n].clear(s);
        }
        bf
    }
}

mod snap_impls {
    use super::{BufFlit, RouterSlab, VcMode};
    use wormdsm_sim::snap::{Snap, SnapError, SnapReader, SnapWriter};

    impl Snap for BufFlit {
        fn save(&self, w: &mut SnapWriter) {
            self.flit.save(w);
            w.put_u64(self.ready_at);
        }
        fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
            Ok(BufFlit { flit: Snap::load(r)?, ready_at: r.get_u64()? })
        }
    }

    impl Snap for VcMode {
        fn save(&self, w: &mut SnapWriter) {
            match *self {
                VcMode::Normal => w.put_u8(0),
                VcMode::Active { out_port, out_vc, absorb } => {
                    w.put_u8(1);
                    w.put_u8(out_port);
                    w.put_u8(out_vc);
                    absorb.save(w);
                }
                VcMode::DrainPark { entry } => {
                    w.put_u8(2);
                    w.put_u8(entry);
                }
            }
        }
        fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
            match r.get_u8()? {
                0 => Ok(VcMode::Normal),
                1 => Ok(VcMode::Active {
                    out_port: r.get_u8()?,
                    out_vc: r.get_u8()?,
                    absorb: Snap::load(r)?,
                }),
                2 => Ok(VcMode::DrainPark { entry: r.get_u8()? }),
                t => Err(SnapError::Corrupt(format!("bad VcMode tag {t}"))),
            }
        }
    }

    impl Snap for RouterSlab {
        fn save(&self, w: &mut SnapWriter) {
            w.put_usize(self.nodes);
            w.put_usize(self.ports);
            w.put_usize(self.vcs);
            w.put_usize(self.vc_cap);
            self.buf.save(w);
            self.head_ready.save(w);
            self.mode.save(w);
            self.pending_absorb.save(w);
            self.credit.save(w);
            self.alloc.save(w);
            self.rr.save(w);
            self.occ.save(w);
            self.flits.save(w);
        }
        fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
            let nodes = r.get_len()?;
            let ports = r.get_len()?;
            let vcs = r.get_len()?;
            let vc_cap = r.get_len()?;
            let s = Self {
                nodes,
                ports,
                vcs,
                vc_cap,
                buf: Snap::load(r)?,
                head_ready: Snap::load(r)?,
                mode: Snap::load(r)?,
                pending_absorb: Snap::load(r)?,
                credit: Snap::load(r)?,
                alloc: Snap::load(r)?,
                rr: Snap::load(r)?,
                occ: Snap::load(r)?,
                flits: Snap::load(r)?,
            };
            let stride = ports * vcs;
            let slabs_ok = s.buf.rows() == nodes
                && s.buf.stride() == stride
                && s.head_ready.rows() == nodes
                && s.head_ready.stride() == stride
                && s.mode.rows() == nodes
                && s.mode.stride() == stride
                && s.pending_absorb.rows() == nodes
                && s.pending_absorb.stride() == stride
                && s.credit.rows() == nodes
                && s.credit.stride() == stride
                && s.alloc.rows() == nodes
                && s.alloc.stride() == stride
                && s.rr.rows() == nodes
                && s.rr.stride() == ports
                && s.occ.len() == nodes
                && s.flits.len() == nodes;
            if !slabs_ok {
                return Err(SnapError::Corrupt("router slab geometry mismatch".into()));
            }
            if s.buf.as_slice().iter().any(|q| q.len() > vc_cap) {
                return Err(SnapError::Corrupt("router FIFO exceeds vc_cap".into()));
            }
            Ok(s)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worm::{FlitKind, WormId};

    fn bf(seq: u16) -> BufFlit {
        BufFlit {
            flit: Flit {
                worm: WormId(0),
                kind: if seq == 0 { FlitKind::Head } else { FlitKind::Body },
                seq,
            },
            ready_at: 0,
        }
    }

    fn bf_at(seq: u16, ready_at: Cycle) -> BufFlit {
        BufFlit { ready_at, ..bf(seq) }
    }

    #[test]
    fn deposit_and_pop_track_counts() {
        let mut r = RouterSlab::new(2, 5, 2, 4);
        r.deposit(1, 0, 1, bf(0));
        r.deposit(1, 0, 1, bf(1));
        assert_eq!(r.flits(1), 2);
        assert_eq!(r.flits(0), 0, "other nodes untouched");
        assert_eq!(r.space(1, 0, 1), 2);
        let f = r.pop(1, 0, 1);
        assert_eq!(f.flit.seq, 0);
        assert_eq!(r.flits(1), 1);
    }

    #[test]
    fn head_ready_mirrors_front() {
        let mut r = RouterSlab::new(1, 5, 2, 4);
        assert_eq!(r.front_ready(0, 2, 0), Cycle::MAX);
        r.deposit(0, 2, 0, bf_at(0, 7));
        r.deposit(0, 2, 0, bf_at(1, 9));
        assert_eq!(r.front_ready(0, 2, 0), 7, "front's ready, not the later deposit's");
        r.pop(0, 2, 0);
        assert_eq!(r.front_ready(0, 2, 0), 9);
        r.pop(0, 2, 0);
        assert_eq!(r.front_ready(0, 2, 0), Cycle::MAX);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn deposit_overflow_panics() {
        let mut r = RouterSlab::new(1, 5, 1, 2);
        r.deposit(0, 0, 0, bf(0));
        r.deposit(0, 0, 0, bf(1));
        r.deposit(0, 0, 0, bf(2));
    }

    /// Configurations with more than 64 `(port, vc)` slots used to alias
    /// silently in the single-word occupancy mask; they must now work up
    /// to 128 slots and be rejected loudly beyond that.
    #[test]
    fn occupancy_tracks_slots_beyond_64() {
        // 5 ports x 20 vcs = 100 slots: the high ones live in word 1.
        let mut r = RouterSlab::new(1, 5, 20, 2);
        r.deposit(0, 4, 19, bf(0)); // slot 99
        r.deposit(0, 0, 0, bf(0)); // slot 0
        assert!(r.occ(0).test(99) && r.occ(0).test(0));
        assert_eq!(r.occ(0).iter().collect::<Vec<_>>(), vec![0, 99]);
        r.pop(0, 4, 19);
        assert!(!r.occ(0).test(99), "emptying the high slot clears only its bit");
        assert!(r.occ(0).test(0));
    }

    #[test]
    #[should_panic(expected = "occupancy bitset limits ports * vcs")]
    fn too_many_vc_slots_is_rejected() {
        RouterSlab::new(1, 5, 26, 2); // 130 > 128
    }

    #[test]
    fn best_free_out_vc_prefers_credits() {
        let mut r = RouterSlab::new(1, 5, 4, 4);
        // Drain credits: vc0 -> 1, vc1 -> 3 on port 2.
        for _ in 0..3 {
            r.take_credit(0, 2, 0);
        }
        r.take_credit(0, 2, 1);
        // vcs 2..4 belong to the other vnet; restrict to 0..2.
        assert_eq!(r.best_free_out_vc(0, 2, 0, 2), Some((1, 3)));
        r.set_alloc(0, 2, 1, Some((0, 0)));
        assert_eq!(r.best_free_out_vc(0, 2, 0, 2), Some((0, 1)));
        r.take_credit(0, 2, 0);
        assert_eq!(r.best_free_out_vc(0, 2, 0, 2), None);
    }
}
