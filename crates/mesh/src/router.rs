//! Per-node wormhole router state, stored as flat slabs for all nodes.
//!
//! A router has five ports (E, W, N, S, Local); each input port carries
//! `vcs_per_vnet * NUM_VNETS` virtual channels with small flit FIFOs and
//! credit-based flow control toward the upstream sender. All *behaviour*
//! (routing, arbitration, movement) lives in [`crate::network`]; this module
//! is the state container plus small invariant-preserving helpers.
//!
//! # Layout
//!
//! [`RouterSlab`] holds the state of **every** router. A router's
//! `(port, vc)` pair is slot `port * vcs + vc`, and `node * slots + slot`
//! indexes every per-slot array, node-major and contiguous. What the tick
//! reads together sits together, one record per slot:
//!
//! - **Input-slot record** (`InSlot`, 16 bytes): the front flit's ready
//!   time, the VC's allocation mode, and the FIFO ring's head index and
//!   length. A head visit or an arbitration check touches one record.
//! - **Output-slot record** (`OutSlot`, 4 bytes): the downstream credit
//!   count (a `u16`, as the FIFO depth is at most 65,535) and the input
//!   slot the output is allocated to (a `u8` index with a sentinel, as a
//!   router has at most 128 slots).
//!
//! Four input records share a 64-byte line (sixteen output records), so
//! at a 4096-node (k=64) mesh one visit costs one line per slot instead of
//! one per field.
//!
//! - **Flat FIFO slab.** Every input FIFO lives in one slab holding
//!   `vc_cap` entries per (node, slot), used as a ring with the `u16` head
//!   index and length of its input-slot record, so no queue owns a heap
//!   allocation of its own. An entry is 12 bytes with 4-byte alignment:
//!   the worm id (at most 30 bits, the worm table's limit) and the flit
//!   kind packed into one `u32`, and the ready time as two `u32` halves.
//!   [`BufFlit`] stays the type the API passes; only the ring packs it.
//!   The snapshot stores each flit, credit and allocation unpacked, so
//!   the packing is no part of the format.
//! - **Slot-class masks.** Each node keeps a `SlotMasks`: the occupied
//!   inputs, the allocated outputs, the inputs `Active` toward the local
//!   port, the inputs in `DrainPark`, and the inputs not in `Normal`.
//!   [`RouterSlab::deposit`]/[`RouterSlab::pop`] maintain the occupancy
//!   mask; [`RouterSlab::set_mode`] and [`RouterSlab::set_alloc`] are the
//!   only writers of the other four. Each phase of the tick intersects
//!   them and visits only the slots of the class it serves.
//!   `RouterSlab::check_consistency` recomputes every mask from the
//!   primary state.

use crate::worm::{Flit, FlitKind, WormId, WormTable};
use wormdsm_sim::snap::{snap_enum, snap_struct, Snap, SnapError, SnapReader, SnapWriter};
use wormdsm_sim::{BitSet128, Cycle, Strided};

/// Index of the local (injection/consumption) port, `Port::Local.index()`.
pub(crate) const LOCAL: usize = 4;
/// [`LOCAL`] as the `u8` stored in [`VcMode`] fields (constant patterns
/// must match the field type exactly).
pub(crate) const LOCAL8: u8 = LOCAL as u8;

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

/// A [`BufFlit`] as the FIFO ring stores it: 12 bytes, 4-byte aligned.
/// The worm id and the flit kind share one `u32` (the worm table holds
/// at most [`WormTable::MAX_SLOTS`] worms, so the id fits in 30 bits),
/// and the ready time is kept as two `u32` halves.
#[derive(Debug, Clone, Copy)]
struct RingFlit {
    /// `worm << 2 | kind`, the kind as its discriminant (Head 0, Body 1,
    /// Tail 2).
    tag: u32,
    /// `ready_at`, low half first.
    ready: [u32; 2],
}

impl RingFlit {
    #[inline]
    fn pack(bf: BufFlit) -> Self {
        debug_assert!((bf.flit.worm.0 as usize) < WormTable::MAX_SLOTS);
        Self { tag: bf.flit.worm.0 << 2 | bf.flit.kind as u32, ready: split(bf.ready_at) }
    }

    #[inline]
    fn unpack(self) -> BufFlit {
        let kind = match self.tag & 3 {
            0 => FlitKind::Head,
            1 => FlitKind::Body,
            _ => FlitKind::Tail,
        };
        BufFlit { flit: Flit { worm: WormId(self.tag >> 2), kind }, ready_at: self.ready_at() }
    }

    #[inline]
    fn ready_at(self) -> Cycle {
        Cycle::from(self.ready[0]) | Cycle::from(self.ready[1]) << 32
    }
}

/// `at` as two `u32` halves, low half first.
#[inline]
fn split(at: Cycle) -> [u32; 2] {
    [at as u32, (at >> 32) as u32]
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

/// Front ready time of an empty input VC: never eligible.
const EMPTY_READY: Cycle = Cycle::MAX;

/// One input VC: what a head visit and an arbitration check read.
#[derive(Debug, Clone, Copy)]
struct InSlot {
    /// `ready_at` of the FIFO's front flit ([`EMPTY_READY`] when empty):
    /// the "is the head eligible this cycle" checks read this instead of
    /// dereferencing the FIFO.
    ready: Cycle,
    /// Allocation state.
    mode: VcMode,
    /// Ring index of the front flit.
    head: u16,
    /// Flits in the FIFO.
    len: u16,
}

/// An input VC with an empty FIFO and no allocation.
const IDLE_IN: InSlot = InSlot { ready: EMPTY_READY, mode: VcMode::Normal, head: 0, len: 0 };

/// One output VC.
#[derive(Debug, Clone, Copy)]
struct OutSlot {
    /// Credits toward the downstream input buffer (unused on the `Local`
    /// port); at most the FIFO depth, which is at most
    /// [`RouterSlab::MAX_VC_CAP`].
    credit: u16,
    /// The input slot this output is allocated to, or [`NO_ALLOC`]. A
    /// router has at most 128 slots, so the index fits a `u8` below the
    /// sentinel.
    alloc: u8,
}

/// [`OutSlot::alloc`] of an output allocated to no input.
const NO_ALLOC: u8 = u8::MAX;

const _: () = assert!(std::mem::size_of::<InSlot>() == 16);
const _: () = assert!(std::mem::size_of::<OutSlot>() == 4);
const _: () = assert!(std::mem::size_of::<RingFlit>() == 12);
const _: () = assert!(BitSet128::CAPACITY <= NO_ALLOC as usize);

/// Filler for FIFO ring entries that hold no flit.
const EMPTY_FLIT: RingFlit = RingFlit { tag: 0, ready: [u32::MAX; 2] };

/// Slot-class masks of one router; bit `port * vcs + vc` in each.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct SlotMasks {
    /// Input slots holding at least one flit.
    pub(crate) occ: BitSet128,
    /// Output slots allocated to an input VC.
    pub(crate) alloc: BitSet128,
    /// Input slots `Active` toward the local port (they drain into a
    /// consumption channel).
    pub(crate) local: BitSet128,
    /// Input slots in `DrainPark`.
    pub(crate) park: BitSet128,
    /// Input slots not in `Normal` (their front is not a head awaiting
    /// processing).
    pub(crate) busy: BitSet128,
}

impl SlotMasks {
    /// Make the mode-class bits of input slot `s` match mode `m`.
    #[inline]
    fn set_mode_bits(&mut self, s: usize, m: VcMode) {
        let (busy, local, park) = match m {
            VcMode::Normal => (false, false, false),
            VcMode::Active { out_port, .. } => (true, out_port == LOCAL8, false),
            VcMode::DrainPark { .. } => (true, false, true),
        };
        assign(&mut self.busy, s, busy);
        assign(&mut self.local, s, local);
        assign(&mut self.park, s, park);
    }
}

#[inline]
fn assign(set: &mut BitSet128, bit: usize, on: bool) {
    if on {
        set.set(bit);
    } else {
        set.clear(bit);
    }
}

/// Router state for every node, one record per slot. All indices are
/// global node ids; the `(port, vc)` pair maps to slot `port * vcs + vc`,
/// matching the mask bit positions.
#[derive(Debug)]
pub struct RouterSlab {
    nodes: usize,
    ports: usize,
    vcs: usize,
    vc_cap: usize,
    /// `ports * vcs`.
    slots: usize,
    /// Slot -> `(port, vc)`, so the sweeps map mask bits back without a
    /// division.
    slot_pv: [(u8, u8); BitSet128::CAPACITY],
    /// The slots of each port, as a mask.
    port_masks: Vec<BitSet128>,
    /// Flit FIFO rings: `vc_cap` entries per (node, slot), at
    /// `(node * slots + slot) * vc_cap`.
    fifo: Vec<RingFlit>,
    /// Input-slot records, per (node, slot).
    inp: Vec<InSlot>,
    /// Output-slot records, per (node, slot).
    out: Vec<OutSlot>,
    /// Absorb channel acquired during destination processing, consumed into
    /// [`VcMode::Active`] when the output VC is allocated.
    pending_absorb: Strided<Option<u8>>,
    /// Round-robin arbitration pointer per output port (stride `ports`):
    /// the slot just after the last winner, kept in `0..slots`.
    rr: Strided<u32>,
    /// Slot-class masks per node; a router holds flits exactly when its
    /// occupancy mask is non-empty.
    masks: Vec<SlotMasks>,
}

impl RouterSlab {
    /// Deepest FIFO the ring's `u16` head index and length can address.
    pub(crate) const MAX_VC_CAP: usize = u16::MAX as usize;

    /// Entries of the FIFO slab for `nodes` routers of `slots` input VCs
    /// of `vc_cap` flits, or `None` when its size in bytes overflows what
    /// one allocation can hold (`isize::MAX`).
    pub(crate) fn fifo_entries(nodes: usize, slots: usize, vc_cap: usize) -> Option<usize> {
        let entries = nodes.checked_mul(slots)?.checked_mul(vc_cap)?;
        let bytes = entries.checked_mul(std::mem::size_of::<RingFlit>())?;
        (bytes <= isize::MAX as usize).then_some(entries)
    }

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
        assert!(
            (1..=Self::MAX_VC_CAP).contains(&vc_cap),
            "FIFO depth must be 1..={} (got {vc_cap})",
            Self::MAX_VC_CAP
        );
        let slots = ports * vcs;
        let entries = Self::fifo_entries(nodes, slots, vc_cap).expect("FIFO slab size overflows");
        let mut slot_pv = [(0, 0); BitSet128::CAPACITY];
        let mut port_masks = vec![BitSet128::new(); ports];
        for port in 0..ports {
            for vc in 0..vcs {
                slot_pv[port * vcs + vc] = (port as u8, vc as u8);
                port_masks[port].set(port * vcs + vc);
            }
        }
        Self {
            nodes,
            ports,
            vcs,
            vc_cap,
            slots,
            slot_pv,
            port_masks,
            fifo: vec![EMPTY_FLIT; entries],
            inp: vec![IDLE_IN; nodes * slots],
            out: vec![OutSlot { credit: vc_cap as u16, alloc: NO_ALLOC }; nodes * slots],
            pending_absorb: Strided::new(nodes, slots, || None),
            rr: Strided::new(nodes, ports, || 0),
            masks: vec![SlotMasks::default(); nodes],
        }
    }

    /// VC count per port (the slot stride).
    pub fn vcs(&self) -> usize {
        self.vcs
    }

    /// Slots per router, `ports * vcs`.
    #[inline]
    pub(crate) fn slots(&self) -> usize {
        self.slots
    }

    #[inline]
    fn slot(&self, port: usize, vc: usize) -> usize {
        debug_assert!(port < self.ports && vc < self.vcs);
        port * self.vcs + vc
    }

    /// Index of `(port, vc)` at node `n` in the per-slot arrays.
    #[inline]
    fn q(&self, n: usize, port: usize, vc: usize) -> usize {
        n * self.slots + self.slot(port, vc)
    }

    /// The `(port, vc)` pair of slot `s`.
    #[inline]
    pub(crate) fn port_vc(&self, s: usize) -> (usize, usize) {
        let (p, v) = self.slot_pv[s];
        (p as usize, v as usize)
    }

    /// The slots of `port`, as a mask.
    #[inline]
    pub(crate) fn port_mask(&self, port: usize) -> BitSet128 {
        self.port_masks[port]
    }

    /// Slot-class masks of node `n`.
    #[inline]
    pub(crate) fn masks(&self, n: usize) -> SlotMasks {
        self.masks[n]
    }

    /// Occupancy mask of node `n`.
    #[inline]
    pub fn occ(&self, n: usize) -> BitSet128 {
        self.masks[n].occ
    }

    /// Ring position of the front flit of FIFO `q` (`node * slots + slot`).
    #[inline]
    fn front_pos(&self, q: usize) -> usize {
        q * self.vc_cap + self.inp[q].head as usize
    }

    /// Front flit of input `(port, vc)` at node `n`.
    #[inline]
    pub fn front(&self, n: usize, port: usize, vc: usize) -> Option<BufFlit> {
        let q = self.q(n, port, vc);
        (self.inp[q].len > 0).then(|| self.fifo[self.front_pos(q)].unpack())
    }

    /// `ready_at` of the front flit ([`Cycle::MAX`] when empty).
    #[inline]
    pub fn front_ready(&self, n: usize, port: usize, vc: usize) -> Cycle {
        self.inp[self.q(n, port, vc)].ready
    }

    /// Allocation state of input `(port, vc)`.
    #[inline]
    pub fn mode(&self, n: usize, port: usize, vc: usize) -> VcMode {
        self.inp[self.q(n, port, vc)].mode
    }

    /// Output VC allocation `-> (in_port, in_vc)`.
    #[inline]
    pub fn alloc(&self, n: usize, port: usize, vc: usize) -> Option<(usize, usize)> {
        let a = self.out[self.q(n, port, vc)].alloc;
        (a != NO_ALLOC).then(|| self.port_vc(a as usize))
    }

    /// Credits toward the downstream buffer of output `(port, vc)`.
    #[inline]
    pub fn credit(&self, n: usize, port: usize, vc: usize) -> usize {
        self.out[self.q(n, port, vc)].credit as usize
    }

    /// Free buffer slots of input `(port, vc)`.
    #[inline]
    pub fn space(&self, n: usize, port: usize, vc: usize) -> usize {
        self.vc_cap - self.inp[self.q(n, port, vc)].len as usize
    }

    /// Re-arm the front flit's eligibility time (header strip / i-ack
    /// check delays).
    #[inline]
    pub fn set_front_ready(&mut self, n: usize, port: usize, vc: usize, at: Cycle) {
        let q = self.q(n, port, vc);
        assert!(self.inp[q].len > 0, "head present");
        let pos = self.front_pos(q);
        self.fifo[pos].ready = split(at);
        self.inp[q].ready = at;
    }

    /// Set the allocation state of input `(port, vc)`.
    #[inline]
    pub fn set_mode(&mut self, n: usize, port: usize, vc: usize, m: VcMode) {
        let s = self.slot(port, vc);
        self.inp[n * self.slots + s].mode = m;
        self.masks[n].set_mode_bits(s, m);
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
        self.out[n * self.slots + s].alloc = a.map_or(NO_ALLOC, |(p, v)| self.slot(p, v) as u8);
        assign(&mut self.masks[n].alloc, s, a.is_some());
    }

    /// Consume one downstream credit (a flit crossed the link).
    #[inline]
    pub fn take_credit(&mut self, n: usize, port: usize, vc: usize) {
        let q = self.q(n, port, vc);
        self.out[q].credit -= 1;
    }

    /// Return one credit (downstream buffer slot vacated).
    #[inline]
    pub fn add_credit(&mut self, n: usize, port: usize, vc: usize) {
        let q = self.q(n, port, vc);
        self.out[q].credit += 1;
    }

    /// Round-robin pointer of output `port`: the slot arbitration starts
    /// from, in `0..slots`.
    #[inline]
    pub fn rr(&self, n: usize, port: usize) -> usize {
        *self.rr.at(n, port) as usize
    }

    /// Point output `port`'s round robin just past input slot `winner`.
    #[inline]
    pub(crate) fn set_rr_after(&mut self, n: usize, port: usize, winner: usize) {
        let next = if winner + 1 == self.slots { 0 } else { winner + 1 };
        *self.rr.at_mut(n, port) = next as u32;
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
        let row = &self.out[n * self.slots..(n + 1) * self.slots];
        let mut best: Option<(usize, usize)> = None;
        for vc in lo..hi {
            let o = row[self.slot(port, vc)];
            if o.alloc == NO_ALLOC && o.credit > 0 {
                let cr = o.credit as usize;
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
    /// head-ready mirror and occupancy bit. Panics on
    /// overflow (credit discipline must prevent it).
    pub fn deposit(&mut self, n: usize, port: usize, vc: usize, bf: BufFlit) {
        let s = self.slot(port, vc);
        let q = n * self.slots + s;
        let slot = &mut self.inp[q];
        let len = slot.len as usize;
        assert!(len < self.vc_cap, "input buffer overflow at slot {s}");
        if len == 0 {
            slot.ready = bf.ready_at;
        }
        slot.len = (len + 1) as u16;
        let mut tail = slot.head as usize + len;
        if tail >= self.vc_cap {
            tail -= self.vc_cap;
        }
        self.fifo[q * self.vc_cap + tail] = RingFlit::pack(bf);
        self.masks[n].occ.set(s);
    }

    /// Pop the front flit of input `(port, vc)` of node `n`, maintaining
    /// the same invariants.
    pub fn pop(&mut self, n: usize, port: usize, vc: usize) -> BufFlit {
        let s = self.slot(port, vc);
        let q = n * self.slots + s;
        let InSlot { ready, head, len, .. } = self.inp[q];
        let len = len as usize;
        assert!(len > 0, "pop from empty input VC");
        let bf = self.fifo[q * self.vc_cap + head as usize].unpack();
        debug_assert_eq!(ready, bf.ready_at, "front ready time out of sync");
        let mut head = head as usize + 1;
        if head == self.vc_cap {
            head = 0;
        }
        let next_ready =
            if len == 1 { EMPTY_READY } else { self.fifo[q * self.vc_cap + head].ready_at() };
        let slot = &mut self.inp[q];
        slot.head = head as u16;
        slot.len = (len - 1) as u16;
        slot.ready = next_ready;
        if len == 1 {
            self.masks[n].occ.clear(s);
        }
        bf
    }

    /// The worm of every buffered flit.
    pub(crate) fn worm_ids(&self) -> impl Iterator<Item = WormId> + '_ {
        self.inp.iter().enumerate().flat_map(move |(q, i)| {
            (0..i.len as usize).map(move |k| {
                let pos = (i.head as usize + k) % self.vc_cap;
                WormId(self.fifo[q * self.vc_cap + pos].tag >> 2)
            })
        })
    }

    /// Recompute every derived field — the front ready times, the
    /// occupancy mask and the four mode/allocation masks —
    /// from the FIFOs, modes and allocations, and report the first field
    /// that disagrees with the maintained one. `O(nodes * slots)`: a
    /// check for tests and debugging, not for the tick.
    pub(crate) fn check_consistency(&self) -> Result<(), String> {
        for n in 0..self.nodes {
            for s in 0..self.slots {
                let q = n * self.slots + s;
                let InSlot { ready, head, len, .. } = self.inp[q];
                let (head, len) = (head as usize, len as usize);
                if len > self.vc_cap || head >= self.vc_cap {
                    return Err(format!(
                        "node {n} slot {s}: FIFO head {head} len {len} outside capacity {}",
                        self.vc_cap
                    ));
                }
                let want = self.derived_ready(q);
                if ready != want {
                    return Err(format!(
                        "node {n} slot {s}: front ready time {ready} but front is ready at {want}"
                    ));
                }
            }
            let want = self.derived_masks(n);
            if want != self.masks[n] {
                return Err(format!("node {n}: masks {:?} but recomputed {want:?}", self.masks[n]));
            }
        }
        Ok(())
    }

    /// The front ready time FIFO `q`'s front implies.
    fn derived_ready(&self, q: usize) -> Cycle {
        if self.inp[q].len == 0 {
            EMPTY_READY
        } else {
            self.fifo[self.front_pos(q)].ready_at()
        }
    }

    /// The slot-class masks node `n`'s FIFO lengths, modes and
    /// allocations imply.
    fn derived_masks(&self, n: usize) -> SlotMasks {
        let mut masks = SlotMasks::default();
        for s in 0..self.slots {
            let q = n * self.slots + s;
            if self.inp[q].len > 0 {
                masks.occ.set(s);
            }
            masks.set_mode_bits(s, self.inp[q].mode);
            if self.out[q].alloc != NO_ALLOC {
                masks.alloc.set(s);
            }
        }
        masks
    }

    /// FIFOs whose live flits straddle the ring's end.
    #[cfg(test)]
    pub(crate) fn wrapped_fifos(&self) -> usize {
        self.inp.iter().filter(|i| i.head as usize + i.len as usize > self.vc_cap).count()
    }

    /// Serialize the slab: geometry, each FIFO's flits front to back,
    /// and the mode, absorb, credit, allocation and round-robin arrays,
    /// each in the [`Strided`] encoding (stride, length, elements). The
    /// derived fields are rebuilt on load, and ring positions are not
    /// observable, so the stream is canonical.
    pub(crate) fn save_state(&self, w: &mut SnapWriter) {
        w.put_usize(self.nodes);
        w.put_usize(self.ports);
        w.put_usize(self.vcs);
        w.put_usize(self.vc_cap);
        for (q, i) in self.inp.iter().enumerate() {
            w.put_u16(i.len);
            for k in 0..i.len as usize {
                let mut pos = i.head as usize + k;
                if pos >= self.vc_cap {
                    pos -= self.vc_cap;
                }
                self.fifo[q * self.vc_cap + pos].unpack().save(w);
            }
        }
        self.save_column(w, self.inp.iter().map(|i| i.mode));
        self.pending_absorb.save(w);
        self.save_column(w, self.out.iter().map(|o| u32::from(o.credit)));
        let alloc = |o: &OutSlot| (o.alloc != NO_ALLOC).then(|| self.slot_pv[o.alloc as usize]);
        self.save_column(w, self.out.iter().map(alloc));
        self.rr.save(w);
    }

    /// One field of every slot record, saved as a `Strided` slab of
    /// stride `slots` would be.
    fn save_column<T: Snap>(&self, w: &mut SnapWriter, field: impl ExactSizeIterator<Item = T>) {
        w.put_usize(self.slots);
        w.put_usize(field.len());
        for v in field {
            v.save(w);
        }
    }

    /// Load a [`RouterSlab::save_state`] stream into this slab, which must
    /// be fresh and have the stream's geometry. FIFOs restart at ring
    /// position 0; the derived fields are rebuilt from the loaded state.
    pub(crate) fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let geom = (r.get_usize()?, r.get_usize()?, r.get_usize()?, r.get_usize()?);
        let want = (self.nodes, self.ports, self.vcs, self.vc_cap);
        if geom != want {
            return Err(SnapError::Mismatch(format!(
                "snapshot router geometry (nodes, ports, vcs, vc_cap) {geom:?}, config wants \
                 {want:?}"
            )));
        }
        for q in 0..self.nodes * self.slots {
            let len = r.get_u16()? as usize;
            if len > self.vc_cap {
                return Err(SnapError::Corrupt("router FIFO exceeds vc_cap".into()));
            }
            for k in 0..len {
                let bf = BufFlit::load(r)?;
                if bf.flit.worm.0 as usize >= WormTable::MAX_SLOTS {
                    return Err(SnapError::Corrupt(format!(
                        "router FIFO names worm {} past the worm table's limit",
                        bf.flit.worm.0
                    )));
                }
                self.fifo[q * self.vc_cap + k] = RingFlit::pack(bf);
            }
            self.inp[q].len = len as u16;
        }
        let mode: Strided<VcMode> = Snap::load(r)?;
        self.pending_absorb = Snap::load(r)?;
        let credit: Strided<u32> = Snap::load(r)?;
        let alloc: Strided<Option<(u8, u8)>> = Snap::load(r)?;
        self.rr = Snap::load(r)?;
        let slabs_ok = [
            (mode.rows(), mode.stride()),
            (self.pending_absorb.rows(), self.pending_absorb.stride()),
            (credit.rows(), credit.stride()),
            (alloc.rows(), alloc.stride()),
        ]
        .iter()
        .all(|&g| g == (self.nodes, self.slots))
            && (self.rr.rows(), self.rr.stride()) == (self.nodes, self.ports);
        if !slabs_ok {
            return Err(SnapError::Corrupt("router slab geometry mismatch".into()));
        }
        let in_range = |p: usize, v: usize| p < self.ports && v < self.vcs;
        let modes_ok = mode.as_slice().iter().all(|m| match *m {
            VcMode::Active { out_port, out_vc, .. } => {
                out_port == LOCAL8 || in_range(out_port as usize, out_vc as usize)
            }
            _ => true,
        });
        let allocs_ok = alloc
            .as_slice()
            .iter()
            .all(|a| a.is_none_or(|(p, v)| in_range(p as usize, v as usize)));
        let rr_ok = self.rr.as_slice().iter().all(|&x| (x as usize) < self.slots);
        if !(modes_ok && allocs_ok && rr_ok) {
            return Err(SnapError::Corrupt(
                "router mode, allocation or arbiter out of range".into(),
            ));
        }
        // Checked before the credit narrows to its `u16` field.
        if let Some(c) = credit.as_slice().iter().find(|&&c| c as usize > self.vc_cap) {
            return Err(SnapError::Corrupt(format!(
                "router credit {c} above the {}-flit buffer",
                self.vc_cap
            )));
        }
        for (q, i) in self.inp.iter_mut().enumerate() {
            i.mode = mode.as_slice()[q];
        }
        for q in 0..self.out.len() {
            let a =
                alloc.as_slice()[q].map_or(NO_ALLOC, |(p, v)| self.slot(p.into(), v.into()) as u8);
            self.out[q] = OutSlot { credit: credit.as_slice()[q] as u16, alloc: a };
        }
        for q in 0..self.inp.len() {
            self.inp[q].ready = self.derived_ready(q);
        }
        for n in 0..self.nodes {
            self.masks[n] = self.derived_masks(n);
        }
        Ok(())
    }
}

snap_struct!(BufFlit { flit, ready_at });
snap_enum!(VcMode {
    0 => Normal,
    1 => Active { out_port, out_vc, absorb },
    2 => DrainPark { entry },
});

#[cfg(test)]
mod tests {
    use super::*;

    /// A flit of worm `id`, so FIFO order shows in the worm ids.
    fn bf(id: u16) -> BufFlit {
        BufFlit {
            flit: Flit {
                worm: WormId(id.into()),
                kind: if id == 0 { FlitKind::Head } else { FlitKind::Body },
            },
            ready_at: 0,
        }
    }

    fn bf_at(id: u16, ready_at: Cycle) -> BufFlit {
        BufFlit { ready_at, ..bf(id) }
    }

    #[test]
    fn deposit_and_pop_track_counts() {
        let mut r = RouterSlab::new(2, 5, 2, 4);
        r.deposit(1, 0, 1, bf(0));
        r.deposit(1, 0, 1, bf(1));
        assert_eq!(r.occ(1).iter().collect::<Vec<_>>(), vec![1], "slot (0, 1) occupied");
        assert!(r.occ(0).is_empty(), "other nodes untouched");
        assert_eq!(r.space(1, 0, 1), 2);
        assert_eq!(r.pop(1, 0, 1).flit.worm, WormId(0));
        assert_eq!(r.space(1, 0, 1), 3, "one flit left");
        assert!(r.occ(1).test(1));
        assert_eq!(r.pop(1, 0, 1).flit.worm, WormId(1));
        assert!(r.occ(1).is_empty(), "the emptied FIFO clears its bit");
        r.check_consistency().expect("consistent");
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

    /// More than `3 * cap` deposit/pop cycles walk the ring's head and
    /// tail around it several times; the live flits then straddle the
    /// ring's end, and re-arming the wrapped front keeps the mirror exact.
    #[test]
    fn fifo_ring_wraps_and_keeps_the_head_ready_mirror() {
        let cap = 4;
        let mut r = RouterSlab::new(2, 5, 2, cap);
        let q = r.slots() + 3; // node 1, slot (1, 1)
        r.deposit(1, 1, 1, bf_at(0, 100));
        r.deposit(1, 1, 1, bf_at(1, 101));
        let cycles = 3 * cap as u16 + 3;
        for id in 2..2 + cycles {
            r.deposit(1, 1, 1, bf_at(id, 100 + u64::from(id)));
            assert_eq!(r.pop(1, 1, 1).flit.worm, WormId((id - 2).into()), "FIFO order");
            assert_eq!(r.front_ready(1, 1, 1), 100 + u64::from(id) - 1);
            r.check_consistency().expect("consistent after every cycle");
        }
        assert_eq!(usize::from(r.inp[q].head), cap - 1, "front at the ring's last entry");
        assert_eq!(r.inp[q].len, 2, "so the second flit wrapped to entry 0");
        r.set_front_ready(1, 1, 1, 7);
        assert_eq!(r.front_ready(1, 1, 1), 7);
        assert_eq!(r.front(1, 1, 1).map(|f| f.ready_at), Some(7));
        r.check_consistency().expect("re-armed front mirrored");
        assert_eq!(r.pop(1, 1, 1).ready_at, 7);
        let last = 100 + u64::from(cycles) + 1;
        assert_eq!(r.front_ready(1, 1, 1), last, "the wrapped flit is the new front");
        assert_eq!(r.pop(1, 1, 1).ready_at, last);
        assert_eq!(r.front_ready(1, 1, 1), Cycle::MAX);
        assert!(r.occ(1).is_empty() && r.space(1, 1, 1) == cap);
        r.check_consistency().expect("empty again");
    }

    #[test]
    fn set_mode_and_set_alloc_maintain_the_slot_class_masks() {
        // 5 ports x 24 vcs = 120 slots; port 4's slots live in word 1.
        let mut r = RouterSlab::new(1, 5, 24, 2);
        let active = |out_port: u8| VcMode::Active { out_port, out_vc: 3, absorb: None };
        r.set_mode(0, 4, 20, active(LOCAL8)); // slot 116
        r.set_mode(0, 0, 1, active(2)); // slot 1
        r.set_mode(0, 2, 0, VcMode::DrainPark { entry: 0 }); // slot 48
        r.set_alloc(0, 3, 23, Some((4, 20))); // slot 95
        let m = r.masks(0);
        assert_eq!(m.busy.iter().collect::<Vec<_>>(), vec![1, 48, 116]);
        assert_eq!(m.local.iter().collect::<Vec<_>>(), vec![116]);
        assert_eq!(m.park.iter().collect::<Vec<_>>(), vec![48]);
        assert_eq!(m.alloc.iter().collect::<Vec<_>>(), vec![95]);
        assert_eq!(r.port_vc(116), (4, 20));
        assert_eq!(r.port_mask(4).iter().next(), Some(96));
        r.check_consistency().expect("masks match modes and allocations");

        // Re-moding a slot moves it between classes.
        r.set_mode(0, 4, 20, VcMode::DrainPark { entry: 1 });
        r.set_mode(0, 0, 1, VcMode::Normal);
        r.set_alloc(0, 3, 23, None);
        let m = r.masks(0);
        assert_eq!(m.busy.iter().collect::<Vec<_>>(), vec![48, 116]);
        assert!(m.local.is_empty() && m.alloc.is_empty());
        assert_eq!(m.park.iter().collect::<Vec<_>>(), vec![48, 116]);
        r.check_consistency().expect("still consistent");
    }

    #[test]
    fn check_consistency_reports_a_stale_mask() {
        let mut r = RouterSlab::new(2, 5, 2, 4);
        r.deposit(1, 0, 1, bf(0));
        r.check_consistency().expect("consistent");
        r.masks[1].park.set(3);
        let e = r.check_consistency().unwrap_err();
        assert!(e.contains("node 1"), "{e}");
    }

    #[test]
    fn save_load_round_trips_wrapped_fifos_canonically() {
        let mut a = RouterSlab::new(1, 5, 2, 3);
        for id in 0..5 {
            a.deposit(0, 2, 1, bf_at(id, u64::from(id)));
            if id < 3 {
                a.pop(0, 2, 1);
            }
        }
        a.set_mode(0, 2, 1, VcMode::Active { out_port: 0, out_vc: 1, absorb: Some(2) });
        a.set_alloc(0, 0, 1, Some((2, 1)));
        a.set_rr_after(0, 0, 9);
        let mut w = SnapWriter::new();
        a.save_state(&mut w);
        let bytes = w.finish();
        let mut b = RouterSlab::new(1, 5, 2, 3);
        b.load_state(&mut SnapReader::new(&bytes).unwrap()).unwrap();
        b.check_consistency().expect("derived state rebuilt");
        assert_eq!(b.masks(0), a.masks(0));
        assert_eq!(b.rr(0, 0), 0, "pointer past the last slot wraps to 0");
        for _ in 0..2 {
            assert_eq!(b.pop(0, 2, 1).flit, a.pop(0, 2, 1).flit);
        }
        // The same FIFO contents at another ring position save the same.
        let mut w = SnapWriter::new();
        let mut c = RouterSlab::new(1, 5, 2, 3);
        c.load_state(&mut SnapReader::new(&bytes).unwrap()).unwrap();
        c.save_state(&mut w);
        assert_eq!(w.finish(), bytes);
        // A slab of another geometry refuses the stream.
        let mut d = RouterSlab::new(1, 5, 2, 4);
        assert!(d.load_state(&mut SnapReader::new(&bytes).unwrap()).is_err());
    }

    /// A ring entry keeps every worm id the table can hold, every kind
    /// and every ready time, the 32-bit halves included.
    #[test]
    fn ring_entries_keep_the_worm_kind_and_ready_time() {
        let mut r = RouterSlab::new(1, 5, 1, 8);
        let worms = [0, 1, 0x1234_5678, WormTable::MAX_SLOTS as u32 - 1];
        let kinds = [FlitKind::Head, FlitKind::Body, FlitKind::Tail];
        let readies = [0, u64::from(u32::MAX), 1 << 32, 0xDEAD_BEEF_0000_0001, Cycle::MAX - 1];
        for (i, &worm) in worms.iter().enumerate() {
            for (j, &kind) in kinds.iter().enumerate() {
                let ready_at = readies[(i + j) % readies.len()];
                let bf = BufFlit { flit: Flit { worm: WormId(worm), kind }, ready_at };
                r.deposit(0, 3, 0, bf);
                assert_eq!(r.front_ready(0, 3, 0), ready_at);
                let back = r.pop(0, 3, 0);
                assert_eq!((back.flit, back.ready_at), (bf.flit, bf.ready_at));
            }
        }
        r.check_consistency().expect("consistent");
    }

    /// A stream of one 5-port, 1-VC router with FIFOs of depth 3, empty,
    /// every output holding `credit(slot)` credits, and `fifo` deposited
    /// in input slot 0.
    fn stream(credit: impl Fn(usize) -> u32, fifo: &[BufFlit]) -> Vec<u8> {
        let mut w = SnapWriter::new();
        for g in [1, 5, 1, 3] {
            w.put_usize(g);
        }
        w.put_u16(fifo.len() as u16);
        fifo.iter().for_each(|bf| bf.save(&mut w));
        (1..5).for_each(|_| w.put_u16(0));
        Strided::new(1, 5, || VcMode::Normal).save(&mut w);
        Strided::new(1, 5, || None::<u8>).save(&mut w);
        let mut slot = 0;
        Strided::new(1, 5, || {
            slot += 1;
            credit(slot - 1)
        })
        .save(&mut w);
        Strided::new(1, 5, || None::<(u8, u8)>).save(&mut w);
        Strided::new(1, 5, || 0u32).save(&mut w);
        w.finish()
    }

    fn load_stream(bytes: &[u8]) -> Result<RouterSlab, SnapError> {
        let mut r = RouterSlab::new(1, 5, 1, 3);
        r.load_state(&mut SnapReader::new(bytes)?)?;
        Ok(r)
    }

    /// A saved credit above the FIFO depth is refused before it narrows
    /// to the record's `u16` (65,539 would narrow to a plausible 3), and
    /// a buffered flit of a worm id the ring entry cannot hold is refused
    /// before it is packed.
    #[test]
    fn load_refuses_a_credit_above_the_depth_and_an_unpackable_worm() {
        let r = load_stream(&stream(|_| 3, &[bf(7)])).expect("a well-formed stream loads");
        assert_eq!(
            (r.credit(0, 2, 0), r.front(0, 0, 0).map(|f| f.flit.worm)),
            (3, Some(WormId(7)))
        );
        for (bytes, want) in [
            (
                stream(|s| if s == 2 { 4 } else { 3 }, &[]),
                "router credit 4 above the 3-flit buffer",
            ),
            (stream(|s| if s == 1 { 65_539 } else { 3 }, &[]), "router credit 65539 above"),
            (
                stream(
                    |_| 3,
                    &[
                        bf(0),
                        BufFlit {
                            flit: Flit { worm: WormId(1 << 30), kind: FlitKind::Tail },
                            ready_at: 0,
                        },
                    ],
                ),
                "names worm 1073741824 past the worm table's limit",
            ),
        ] {
            match load_stream(&bytes) {
                Err(SnapError::Corrupt(e)) => assert!(e.contains(want), "{e}"),
                other => panic!("expected a Corrupt refusal naming {want:?}, got {other:?}"),
            }
        }
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
