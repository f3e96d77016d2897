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
//! - **Input-slot record** (`InSlot`, 24 bytes): the front flit's ready
//!   time, the newest deposit cycle, the VC's allocation mode, and the
//!   FIFO ring's head index and length. A head visit or an arbitration
//!   check touches one record.
//! - **Output-slot record** (`OutSlot`, 4 bytes): the downstream credit
//!   count (a `u16`, as the FIFO depth is at most 65,535) and the input
//!   slot the output is allocated to (a `u8` index with a sentinel, as a
//!   router has at most 128 slots).
//!
//! A 64-byte line holds more than two input records (sixteen output
//! records), so at a 4096-node (k=64) mesh one visit costs one line per
//! slot instead of one per field.
//!
//! - **Flat FIFO slab.** Every input FIFO lives in one slab holding
//!   `vc_cap` entries per (node, slot), used as a ring with the `u16` head
//!   index and length of its input-slot record, so no queue owns a heap
//!   allocation of its own. An entry is 5 bytes in two parallel arrays:
//!   a 4-byte tag (the worm id, at most 30 bits, the worm table's limit,
//!   and the flit kind) and a 1-byte gap, the cycles from the flit's
//!   deposit to the next deposit into the same VC, saturating at
//!   255. No entry holds a ready time. The input-slot record
//!   keeps the front's ready time and the newest deposit cycle; when the
//!   front pops, a head's ready time is rebuilt by walking the gaps back
//!   from the newest deposit and adding the head delay, and a body or
//!   tail gets the cycle after the newest deposit. That is exact for
//!   every check the tick makes:
//!   - deposits into one VC land on distinct cycles (one upstream output
//!     or one NIC stream feeds it, one flit a cycle), so a gap is at
//!     least 1 and an unsaturated walk gives the deposit cycle itself;
//!   - a saturated walk only overestimates: the new front was deposited
//!     at least 255 cycles before the newest deposit, so the
//!     rebuilt ready time is at most `pop cycle - 255 + router_delay`.
//!     With `router_delay <= 256` ([`RouterSlab::MAX_ROUTER_DELAY`],
//!     which `MeshConfig::validate` enforces) that is at most the cycle
//!     after the pop, the first cycle the tick looks at the new front
//!     again (each VC pops at most one flit a cycle), and the true ready
//!     time is no later, so `front_ready(..) <= now` agrees at every
//!     cycle the tick asks;
//!   - a body or tail flit is always eligible the cycle after it reaches
//!     the front (it was deposited at the latest on the cycle of the pop),
//!     so the cycle after the newest deposit, which is no later, serves
//!     as its ready time without a walk.
//!
//!   [`BufFlit`] stays the type `front` and `pop` return, its `ready_at`
//!   the front's ready time. The snapshot stores each FIFO's front ready
//!   time and each flit with the deposit cycle the walk gives it, so a
//!   restore rebuilds the same gaps.
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
use wormdsm_sim::snap::{snap_enum, Snap, SnapError, SnapReader, SnapWriter};
use wormdsm_sim::{BitSet128, Cycle, Strided};

/// Index of the local (injection/consumption) port, `Port::Local.index()`.
pub(crate) const LOCAL: usize = 4;
/// [`LOCAL`] as the `u8` stored in [`VcMode`] fields (constant patterns
/// must match the field type exactly).
pub(crate) const LOCAL8: u8 = LOCAL as u8;

/// A flit at the front of a router buffer, with the cycle at which it
/// becomes eligible to move (head flits pay the router pipeline delay,
/// body flits one cycle, and a re-armed head its strip or i-ack check
/// delay).
#[derive(Debug, Clone, Copy)]
pub struct BufFlit {
    /// The flit.
    pub flit: Flit,
    /// First cycle at which this flit may be processed/moved.
    pub ready_at: Cycle,
}

/// Largest gap a FIFO entry records; longer gaps saturate (see the
/// module docs for why the walk stays exact).
pub(crate) const MAX_GAP: Cycle = u8::MAX as Cycle;

/// `flit` as the FIFO ring stores its tag: `worm << 2 | kind`, the kind as
/// its discriminant (Head 0, Body 1, Tail 2). The worm table holds at most
/// [`WormTable::MAX_SLOTS`] worms, so the id fits in 30 bits.
#[inline]
fn pack(flit: Flit) -> u32 {
    debug_assert!((flit.worm.0 as usize) < WormTable::MAX_SLOTS);
    flit.worm.0 << 2 | flit.kind as u32
}

#[inline]
fn unpack(tag: u32) -> Flit {
    let kind = match tag & 3 {
        0 => FlitKind::Head,
        1 => FlitKind::Body,
        _ => FlitKind::Tail,
    };
    Flit { worm: WormId(tag >> 2), kind }
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
    /// Cycle of the newest deposit (meaningful only while the FIFO holds
    /// a flit): the walk that rebuilds a new front's ready time starts
    /// here.
    last: Cycle,
    /// Allocation state.
    mode: VcMode,
    /// Ring index of the front flit.
    head: u16,
    /// Flits in the FIFO.
    len: u16,
}

/// An input VC with an empty FIFO and no allocation.
const IDLE_IN: InSlot =
    InSlot { ready: EMPTY_READY, last: 0, mode: VcMode::Normal, head: 0, len: 0 };

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

const _: () = assert!(std::mem::size_of::<InSlot>() == 24);
const _: () = assert!(std::mem::size_of::<OutSlot>() == 4);
const _: () = assert!(BitSet128::CAPACITY <= NO_ALLOC as usize);

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
    /// Pipeline delay a head flit pays after its deposit, at most
    /// [`RouterSlab::MAX_ROUTER_DELAY`].
    router_delay: Cycle,
    /// `ports * vcs`.
    slots: usize,
    /// Slot -> `(port, vc)`, so the sweeps map mask bits back without a
    /// division.
    slot_pv: [(u8, u8); BitSet128::CAPACITY],
    /// The slots of each port, as a mask.
    port_masks: Vec<BitSet128>,
    /// Flit FIFO rings: `vc_cap` entry tags per (node, slot), at
    /// `(node * slots + slot) * vc_cap`.
    tags: Vec<u32>,
    /// Each ring entry's gap to the next deposit into its VC, at the
    /// entry's index (the newest entry's gap is not yet known and not
    /// read).
    gaps: Vec<u8>,
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

    /// Longest head delay the saturating 1-byte gaps keep exact: a
    /// rebuilt ready time may exceed the true one only when both fall on
    /// or before the cycle after the pop (see the module docs).
    pub const MAX_ROUTER_DELAY: Cycle = MAX_GAP + 1;

    /// Entries of the FIFO slab for `nodes` routers of `slots` input VCs
    /// of `vc_cap` flits, or `None` when its size in bytes overflows what
    /// one allocation can hold (`isize::MAX`).
    pub(crate) fn fifo_entries(nodes: usize, slots: usize, vc_cap: usize) -> Option<usize> {
        let entries = nodes.checked_mul(slots)?.checked_mul(vc_cap)?;
        let bytes = entries.checked_mul(std::mem::size_of::<u32>())?;
        (bytes <= isize::MAX as usize).then_some(entries)
    }

    /// Build routers for `nodes` nodes with `ports` x `vcs` input VCs of
    /// `vc_cap` flits whose head flits pay `router_delay` cycles, and
    /// matching output credit counters initialized to the downstream
    /// capacity.
    pub fn new(nodes: usize, ports: usize, vcs: usize, vc_cap: usize, router_delay: Cycle) -> Self {
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
        assert!(
            (1..=Self::MAX_ROUTER_DELAY).contains(&router_delay),
            "router delay must be 1..={} (got {router_delay})",
            Self::MAX_ROUTER_DELAY
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
            router_delay,
            slots,
            slot_pv,
            port_masks,
            tags: vec![0; entries],
            gaps: vec![0; entries],
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

    /// Slab index of the `k`-th flit from the front of FIFO `q`
    /// (`node * slots + slot`), `k < vc_cap`.
    #[inline]
    fn pos(&self, q: usize, k: usize) -> usize {
        let mut i = self.inp[q].head as usize + k;
        if i >= self.vc_cap {
            i -= self.vc_cap;
        }
        q * self.vc_cap + i
    }

    /// Front flit of input `(port, vc)` at node `n`.
    #[inline]
    pub fn front(&self, n: usize, port: usize, vc: usize) -> Option<BufFlit> {
        let q = self.q(n, port, vc);
        let i = &self.inp[q];
        (i.len > 0).then(|| BufFlit { flit: unpack(self.tags[self.pos(q, 0)]), ready_at: i.ready })
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

    /// Deposit `flit` into input `(port, vc)` of node `n` at cycle `at`,
    /// maintaining the head-ready mirror and occupancy bit. A flit that
    /// lands in an empty FIFO is ready after the router delay (a head) or
    /// one link cycle; one behind others records only its gap to the
    /// previous deposit, which must be earlier. Panics on overflow (credit discipline must
    /// prevent it).
    pub fn deposit(&mut self, n: usize, port: usize, vc: usize, flit: Flit, at: Cycle) {
        let s = self.slot(port, vc);
        let q = n * self.slots + s;
        let (cap, base) = (self.vc_cap, q * self.vc_cap);
        let InSlot { last, head, len, .. } = self.inp[q];
        let len = len as usize;
        assert!(len < cap, "input buffer overflow at slot {s}");
        let mut tail = head as usize + len;
        if tail >= cap {
            tail -= cap;
        }
        if len == 0 {
            self.inp[q].ready =
                at + if flit.kind == FlitKind::Head { self.router_delay } else { 1 };
        } else {
            debug_assert!(at > last, "two deposits into one VC in cycle {at}");
            let prev = if tail == 0 { cap - 1 } else { tail - 1 };
            self.gaps[base + prev] = (at - last).min(MAX_GAP) as u8;
        }
        self.tags[base + tail] = pack(flit);
        let slot = &mut self.inp[q];
        slot.last = at;
        slot.len = (len + 1) as u16;
        self.masks[n].occ.set(s);
    }

    /// Pop the front flit of input `(port, vc)` of node `n`, maintaining
    /// the same invariants: a head behind it gets the ready time its
    /// deposit cycle, rebuilt from the gaps, implies, and a body or tail
    /// the cycle after the newest deposit, no later than the cycle after
    /// this pop (see the module docs).
    pub fn pop(&mut self, n: usize, port: usize, vc: usize) -> BufFlit {
        let s = self.slot(port, vc);
        let q = n * self.slots + s;
        let (cap, base) = (self.vc_cap, q * self.vc_cap);
        let InSlot { ready, last, head, len, .. } = self.inp[q];
        let (head, len) = (head as usize, len as usize);
        assert!(len > 0, "pop from empty input VC");
        let flit = unpack(self.tags[base + head]);
        let next = if head + 1 == cap { 0 } else { head + 1 };
        let next_ready = if len == 1 {
            self.masks[n].occ.clear(s);
            EMPTY_READY
        } else {
            if unpack(self.tags[base + next]).kind == FlitKind::Head {
                self.walk_back(base, next, len - 2, last) + self.router_delay
            } else {
                last + 1
            }
        };
        let slot = &mut self.inp[q];
        slot.head = next as u16;
        slot.len = (len - 1) as u16;
        slot.ready = next_ready;
        BufFlit { flit, ready_at: ready }
    }

    /// The deposit cycle the gaps give the flit at ring index `i` of the
    /// FIFO at slab offset `base` when `behind` flits were deposited after
    /// it, the newest at `last`: `last` less the `behind` gaps from `i`
    /// on.
    #[inline]
    fn walk_back(&self, base: usize, mut i: usize, behind: usize, last: Cycle) -> Cycle {
        let mut at = last;
        for _ in 0..behind {
            at -= Cycle::from(self.gaps[base + i]);
            i = if i + 1 == self.vc_cap { 0 } else { i + 1 };
        }
        at
    }

    /// The newest deposit into any FIFO that still holds a flit.
    pub(crate) fn newest_deposit(&self) -> Option<Cycle> {
        self.inp.iter().filter(|i| i.len > 0).map(|i| i.last).max()
    }

    /// The worm of every buffered flit.
    pub(crate) fn worm_ids(&self) -> impl Iterator<Item = WormId> + '_ {
        self.inp.iter().enumerate().flat_map(move |(q, i)| {
            (0..i.len as usize).map(move |k| unpack(self.tags[self.pos(q, k)]).worm)
        })
    }

    /// Recompute every derived field — the occupancy mask and the four
    /// mode/allocation masks — from the FIFOs, modes and allocations, and
    /// report the first field that disagrees with the maintained one, or
    /// a front ready time an empty FIFO lacks or a non-empty one has.
    /// `O(nodes * slots)`: a check for tests and debugging, not for the
    /// tick.
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
                if (len == 0) != (ready == EMPTY_READY) {
                    return Err(format!(
                        "node {n} slot {s}: front ready time {ready} with {len} flits buffered"
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

    /// Bytes the slab holds on the heap: FIFO tags and gaps, the slot
    /// records, the absorb and arbiter columns and the derived masks.
    pub(crate) fn heap_bytes(&self) -> usize {
        use wormdsm_sim::heap::vec_bytes;
        vec_bytes(&self.port_masks)
            + vec_bytes(&self.tags)
            + vec_bytes(&self.gaps)
            + vec_bytes(&self.inp)
            + vec_bytes(&self.out)
            + self.pending_absorb.heap_bytes()
            + self.rr.heap_bytes()
            + vec_bytes(&self.masks)
    }

    /// Serialize the slab: geometry; each FIFO's length and, when it
    /// holds flits, its front ready time and each flit front to back with
    /// the deposit cycle the gaps give it; and the mode, absorb, credit,
    /// allocation and round-robin arrays, each in the [`Strided`] encoding
    /// (stride, length, elements). The derived fields are rebuilt on load,
    /// and ring positions and an empty FIFO's last deposit are not
    /// observable, so the stream is canonical.
    pub(crate) fn save_state(&self, w: &mut SnapWriter) {
        w.put_usize(self.nodes);
        w.put_usize(self.ports);
        w.put_usize(self.vcs);
        w.put_usize(self.vc_cap);
        for (q, i) in self.inp.iter().enumerate() {
            w.put_u16(i.len);
            if i.len == 0 {
                continue;
            }
            w.put_u64(i.ready);
            let mut at = self.walk_back(q * self.vc_cap, i.head.into(), i.len as usize - 1, i.last);
            for k in 0..i.len as usize {
                let pos = self.pos(q, k);
                unpack(self.tags[pos]).save(w);
                w.put_u64(at);
                at += Cycle::from(self.gaps[pos]);
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

    /// Read the header of a column saved in the `Strided` encoding with
    /// `stride` elements a router ([`RouterSlab::save_column`] writes
    /// `slots`) and return its length, refusing any geometry but this
    /// slab's.
    fn column(&self, r: &mut SnapReader<'_>, stride: usize) -> Result<usize, SnapError> {
        let got = (r.get_usize()?, r.get_len()?);
        if got != (stride, self.nodes * stride) {
            return Err(SnapError::Corrupt("router slab geometry mismatch".into()));
        }
        Ok(got.1)
    }

    /// Load a [`RouterSlab::save_state`] stream into this slab, which must
    /// be fresh and have the stream's geometry. FIFOs restart at ring
    /// position 0; the derived fields are rebuilt from the loaded state.
    /// A FIFO whose deposit cycles do not strictly increase front to back
    /// is refused: the tick never deposits twice into one VC in a cycle,
    /// and the gaps could not encode it.
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
            if len == 0 {
                continue;
            }
            self.inp[q].ready = r.get_u64()?;
            let mut last = None;
            for k in 0..len {
                let flit = Flit::load(r)?;
                let at = r.get_u64()?;
                if flit.worm.0 as usize >= WormTable::MAX_SLOTS {
                    return Err(SnapError::Corrupt(format!(
                        "router FIFO names worm {} past the worm table's limit",
                        flit.worm.0
                    )));
                }
                let pos = q * self.vc_cap + k;
                if let Some(prev) = last {
                    if at <= prev {
                        return Err(SnapError::Corrupt(format!(
                            "router FIFO flit deposited at cycle {at}, not after the flit \
                             ahead of it (cycle {prev})"
                        )));
                    }
                    self.gaps[pos - 1] = (at - prev).min(MAX_GAP) as u8;
                }
                self.tags[pos] = pack(flit);
                last = Some(at);
            }
            self.inp[q].len = len as u16;
            self.inp[q].last = last.expect("non-empty FIFO");
        }
        // Every column decodes in place, the mode, credit and allocation
        // columns straight into the slot records; a value out of range is
        // refused once every column has been read.
        let (ports, vcs) = (self.ports, self.vcs);
        let in_range = |p: usize, v: usize| p < ports && v < vcs;
        let mut ranges_ok = true;
        for q in 0..self.column(r, self.slots)? {
            let m = VcMode::load(r)?;
            if let VcMode::Active { out_port, out_vc, .. } = m {
                ranges_ok &= out_port == LOCAL8 || in_range(out_port as usize, out_vc as usize);
            }
            self.inp[q].mode = m;
        }
        self.column(r, self.slots)?;
        for a in self.pending_absorb.as_mut_slice() {
            *a = Snap::load(r)?;
        }
        let mut bad_credit = None;
        for q in 0..self.column(r, self.slots)? {
            let c = r.get_u32()?;
            if c as usize > self.vc_cap {
                bad_credit.get_or_insert(c);
            }
            self.out[q].credit = c as u16;
        }
        for q in 0..self.column(r, self.slots)? {
            let alloc: Option<(u8, u8)> = Snap::load(r)?;
            let a = match alloc {
                None => NO_ALLOC,
                Some((p, v)) if in_range(p.into(), v.into()) => self.slot(p.into(), v.into()) as u8,
                Some(_) => {
                    ranges_ok = false;
                    NO_ALLOC
                }
            };
            self.out[q].alloc = a;
        }
        self.column(r, self.ports)?;
        for x in self.rr.as_mut_slice() {
            *x = r.get_u32()?;
        }
        let rr_ok = self.rr.as_slice().iter().all(|&x| (x as usize) < self.slots);
        if !(ranges_ok && rr_ok) {
            return Err(SnapError::Corrupt(
                "router mode, allocation or arbiter out of range".into(),
            ));
        }
        // Refused, so no accepted credit was truncated to its `u16` field.
        if let Some(c) = bad_credit {
            return Err(SnapError::Corrupt(format!(
                "router credit {c} above the {}-flit buffer",
                self.vc_cap
            )));
        }
        for n in 0..self.nodes {
            self.masks[n] = self.derived_masks(n);
        }
        Ok(())
    }
}

snap_enum!(VcMode {
    0 => Normal,
    1 => Active { out_port, out_vc, absorb },
    2 => DrainPark { entry },
});

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;
    use wormdsm_sim::Rng;

    /// The paper's head delay.
    const DELAY: Cycle = 4;

    /// A flit of worm `id`, so FIFO order shows in the worm ids: a head
    /// for worm 0, a body otherwise.
    fn fl(id: u16) -> Flit {
        Flit {
            worm: WormId(id.into()),
            kind: if id == 0 { FlitKind::Head } else { FlitKind::Body },
        }
    }

    fn head(id: u16) -> Flit {
        Flit { worm: WormId(id.into()), kind: FlitKind::Head }
    }

    #[test]
    fn deposit_and_pop_track_counts() {
        let mut r = RouterSlab::new(2, 5, 2, 4, DELAY);
        r.deposit(1, 0, 1, fl(0), 1);
        r.deposit(1, 0, 1, fl(1), 2);
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
        let mut r = RouterSlab::new(1, 5, 2, 4, DELAY);
        assert_eq!(r.front_ready(0, 2, 0), Cycle::MAX);
        r.deposit(0, 2, 0, head(0), 3);
        r.deposit(0, 2, 0, head(1), 5);
        r.deposit(0, 2, 0, fl(2), 6);
        assert_eq!(r.front_ready(0, 2, 0), 7, "front's ready, not a later deposit's");
        r.pop(0, 2, 0);
        assert_eq!(r.front_ready(0, 2, 0), 9, "a head rebuilt from its gap: 6 - 1 + 4");
        r.pop(0, 2, 0);
        assert_eq!(r.front_ready(0, 2, 0), 7, "a body is ready one cycle after its deposit");
        r.pop(0, 2, 0);
        assert_eq!(r.front_ready(0, 2, 0), Cycle::MAX);
    }

    /// More than `3 * cap` deposit/pop cycles walk the ring's head and
    /// tail around it several times; the live flits then straddle the
    /// ring's end, and re-arming the wrapped front keeps the mirror exact.
    #[test]
    fn fifo_ring_wraps_and_keeps_the_head_ready_mirror() {
        let cap = 4;
        let mut r = RouterSlab::new(2, 5, 2, cap, DELAY);
        let q = r.slots() + 3; // node 1, slot (1, 1)
        r.deposit(1, 1, 1, head(0), 100);
        r.deposit(1, 1, 1, head(1), 101);
        let cycles = 3 * cap as u16 + 3;
        for id in 2..2 + cycles {
            r.deposit(1, 1, 1, head(id), 100 + u64::from(id));
            assert_eq!(r.pop(1, 1, 1).flit.worm, WormId((id - 2).into()), "FIFO order");
            assert_eq!(r.front_ready(1, 1, 1), 100 + u64::from(id) - 1 + DELAY);
            r.check_consistency().expect("consistent after every cycle");
        }
        assert_eq!(usize::from(r.inp[q].head), cap - 1, "front at the ring's last entry");
        assert_eq!(r.inp[q].len, 2, "so the second flit wrapped to entry 0");
        r.set_front_ready(1, 1, 1, 7);
        assert_eq!(r.front_ready(1, 1, 1), 7);
        assert_eq!(r.front(1, 1, 1).map(|f| f.ready_at), Some(7));
        r.check_consistency().expect("re-armed front mirrored");
        assert_eq!(r.pop(1, 1, 1).ready_at, 7);
        let last = 100 + u64::from(cycles) + 1 + DELAY;
        assert_eq!(r.front_ready(1, 1, 1), last, "the wrapped flit is the new front");
        assert_eq!(r.pop(1, 1, 1).ready_at, last);
        assert_eq!(r.front_ready(1, 1, 1), Cycle::MAX);
        assert!(r.occ(1).is_empty() && r.space(1, 1, 1) == cap);
        r.check_consistency().expect("empty again");
    }

    /// A head queued behind a gap of 255 cycles or more is rebuilt no
    /// earlier than its true ready time and no later than the cycle after
    /// the pop, so at every cycle the tick asks, it is eligible exactly
    /// when the true time says so.
    #[test]
    fn a_saturated_gap_rebuilds_a_ready_time_of_no_later_than_the_next_cycle() {
        let delay = RouterSlab::MAX_ROUTER_DELAY;
        let mut r = RouterSlab::new(1, 5, 1, 4, delay);
        r.deposit(0, 0, 0, head(0), 10);
        r.deposit(0, 0, 0, head(1), 20); // true ready 276
        r.deposit(0, 0, 0, fl(2), 1_000); // gap 980 saturates to 255
        r.pop(0, 0, 0); // at cycle 1,000
        let ready = r.front_ready(0, 0, 0);
        assert_eq!(ready, 1_000 - 255 + delay, "rebuilt from the saturated gap");
        assert!(ready <= 1_001 && ready >= 20 + delay);
    }

    /// The ring against a plain queue of full ready times, on seeded
    /// random deposit, pop and re-arm sequences of one VC: at every cycle
    /// `front_ready(..) <= now` agrees between the two. Time advances by
    /// one cycle most of the time and otherwise by a few cycles, by
    /// 250-260 (straddling the saturation at 255) or by up to 10,000.
    /// The ring pops at most one flit a cycle and only an eligible front,
    /// as the tick does, and deposits at most one flit a cycle.
    #[test]
    fn the_gap_ring_agrees_with_full_ready_times_on_random_sequences() {
        for delay in [1, 4, RouterSlab::MAX_ROUTER_DELAY] {
            for depth in 1..=8 {
                for seed in 0..4 {
                    let mut rng = Rng::new(delay << 16 | (depth as u64) << 8 | seed);
                    agree_on_a_random_sequence(&mut rng, delay, depth);
                }
            }
        }
    }

    fn agree_on_a_random_sequence(rng: &mut Rng, delay: Cycle, depth: usize) {
        let mut r = RouterSlab::new(1, 5, 1, depth, delay);
        let mut model: VecDeque<BufFlit> = VecDeque::new();
        let (pop_p, deposit_p) = (rng.f64(), rng.f64());
        let mut now: Cycle = 0;
        let mut next_worm = 0u32;
        for _ in 0..300 {
            let step = match rng.below(10) {
                0..=5 => 1,
                6 => rng.range(2, 8),
                7 | 8 => rng.range(250, 260),
                _ => rng.range(1, 10_000),
            };
            for t in now + 1..=now + step {
                let want = model.front().is_some_and(|f| f.ready_at <= t);
                assert_eq!(
                    r.front_ready(0, 0, 0) <= t,
                    want,
                    "delay {delay} depth {depth} cycle {t}: ring {} vs model {:?}",
                    r.front_ready(0, 0, 0),
                    model.front()
                );
            }
            now += step;
            // This cycle's deposit lands before or after its pop, as an
            // upstream router earlier or later in the sweep would.
            let deposit_first = rng.chance(0.5);
            let deposit = rng.chance(deposit_p);
            if deposit_first && deposit && model.len() < depth {
                deposit_both(&mut r, &mut model, rng, delay, now, &mut next_worm);
            }
            if model.front().is_some_and(|f| f.ready_at <= now) {
                if rng.chance(0.2) {
                    let at = now + rng.range(1, 3);
                    r.set_front_ready(0, 0, 0, at);
                    model.front_mut().expect("front").ready_at = at;
                } else if rng.chance(pop_p) {
                    let want = model.pop_front().expect("front");
                    assert_eq!(r.pop(0, 0, 0).flit, want.flit);
                }
            }
            if !deposit_first && deposit && model.len() < depth {
                deposit_both(&mut r, &mut model, rng, delay, now, &mut next_worm);
            }
            r.check_consistency().expect("consistent");
        }
    }

    fn deposit_both(
        r: &mut RouterSlab,
        model: &mut VecDeque<BufFlit>,
        rng: &mut Rng,
        delay: Cycle,
        now: Cycle,
        next_worm: &mut u32,
    ) {
        let kind = [FlitKind::Head, FlitKind::Body, FlitKind::Tail][rng.index(3)];
        let flit = Flit { worm: WormId(*next_worm), kind };
        *next_worm += 1;
        r.deposit(0, 0, 0, flit, now);
        let ready_at = now + if kind == FlitKind::Head { delay } else { 1 };
        model.push_back(BufFlit { flit, ready_at });
    }

    #[test]
    fn set_mode_and_set_alloc_maintain_the_slot_class_masks() {
        // 5 ports x 24 vcs = 120 slots; port 4's slots live in word 1.
        let mut r = RouterSlab::new(1, 5, 24, 2, DELAY);
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
        let mut r = RouterSlab::new(2, 5, 2, 4, DELAY);
        r.deposit(1, 0, 1, fl(0), 0);
        r.check_consistency().expect("consistent");
        r.masks[1].park.set(3);
        let e = r.check_consistency().unwrap_err();
        assert!(e.contains("node 1"), "{e}");
    }

    #[test]
    fn save_load_round_trips_wrapped_fifos_canonically() {
        let mut a = RouterSlab::new(1, 5, 2, 3, DELAY);
        for id in 0..5 {
            a.deposit(0, 2, 1, head(id), 300 * u64::from(id));
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
        let mut b = RouterSlab::new(1, 5, 2, 3, DELAY);
        b.load_state(&mut SnapReader::new(&bytes).unwrap()).unwrap();
        b.check_consistency().expect("derived state rebuilt");
        assert_eq!(b.masks(0), a.masks(0));
        assert_eq!(b.rr(0, 0), 0, "pointer past the last slot wraps to 0");
        for _ in 0..2 {
            let (fa, fb) = (a.pop(0, 2, 1), b.pop(0, 2, 1));
            assert_eq!((fb.flit, fb.ready_at), (fa.flit, fa.ready_at));
            assert_eq!(b.front_ready(0, 2, 1), a.front_ready(0, 2, 1), "same rebuilt front");
        }
        // The same FIFO contents at another ring position save the same.
        let mut w = SnapWriter::new();
        let mut c = RouterSlab::new(1, 5, 2, 3, DELAY);
        c.load_state(&mut SnapReader::new(&bytes).unwrap()).unwrap();
        c.save_state(&mut w);
        assert_eq!(w.finish(), bytes);
        // A slab of another geometry refuses the stream.
        let mut d = RouterSlab::new(1, 5, 2, 4, DELAY);
        assert!(d.load_state(&mut SnapReader::new(&bytes).unwrap()).is_err());
    }

    /// A ring entry keeps every worm id the table can hold and every
    /// kind, and the front's ready time follows from its deposit cycle,
    /// the 32-bit halves included.
    #[test]
    fn ring_entries_keep_the_worm_kind_and_ready_time() {
        let mut r = RouterSlab::new(1, 5, 1, 8, DELAY);
        let worms = [0, 1, 0x1234_5678, WormTable::MAX_SLOTS as u32 - 1];
        let kinds = [FlitKind::Head, FlitKind::Body, FlitKind::Tail];
        let cycles = [0, u64::from(u32::MAX), 1 << 32, 0xDEAD_BEEF_0000_0001, 1 << 61];
        let mut at = 0;
        for (i, &worm) in worms.iter().enumerate() {
            for (j, &kind) in kinds.iter().enumerate() {
                at = at.max(cycles[(i + j) % cycles.len()]) + 1;
                let flit = Flit { worm: WormId(worm), kind };
                r.deposit(0, 3, 0, flit, at);
                let ready = at + if kind == FlitKind::Head { DELAY } else { 1 };
                assert_eq!(r.front_ready(0, 3, 0), ready);
                let back = r.pop(0, 3, 0);
                assert_eq!((back.flit, back.ready_at), (flit, ready));
            }
        }
        r.check_consistency().expect("consistent");
    }

    /// A stream of one 5-port, 1-VC router with FIFOs of depth 3, empty,
    /// every output holding `credit(slot)` credits, and `fifo` (flits
    /// with their deposit cycles, the front ready at cycle 9) deposited
    /// in input slot 0.
    fn stream(credit: impl Fn(usize) -> u32, fifo: &[(Flit, Cycle)]) -> Vec<u8> {
        let mut w = SnapWriter::new();
        for g in [1, 5, 1, 3] {
            w.put_usize(g);
        }
        w.put_u16(fifo.len() as u16);
        if !fifo.is_empty() {
            w.put_u64(9);
        }
        for (flit, at) in fifo {
            flit.save(&mut w);
            w.put_u64(*at);
        }
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
        let mut r = RouterSlab::new(1, 5, 1, 3, DELAY);
        r.load_state(&mut SnapReader::new(bytes)?)?;
        Ok(r)
    }

    fn refused(bytes: &[u8], want: &str) {
        match load_stream(bytes) {
            Err(SnapError::Corrupt(e)) => assert!(e.contains(want), "{e}"),
            other => panic!("expected a Corrupt refusal naming {want:?}, got {other:?}"),
        }
    }

    /// A saved credit above the FIFO depth is refused before it narrows
    /// to the record's `u16` (65,539 would narrow to a plausible 3), and
    /// a buffered flit of a worm id the ring entry cannot hold is refused
    /// before it is packed.
    #[test]
    fn load_refuses_a_credit_above_the_depth_and_an_unpackable_worm() {
        let r = load_stream(&stream(|_| 3, &[(fl(7), 2)])).expect("a well-formed stream loads");
        assert_eq!(
            (r.credit(0, 2, 0), r.front(0, 0, 0).map(|f| (f.flit.worm, f.ready_at))),
            (3, Some((WormId(7), 9)))
        );
        refused(&stream(|s| if s == 2 { 4 } else { 3 }, &[]), "router credit 4 above the 3-flit");
        refused(&stream(|s| if s == 1 { 65_539 } else { 3 }, &[]), "router credit 65539 above");
        let unpackable = Flit { worm: WormId(1 << 30), kind: FlitKind::Tail };
        refused(
            &stream(|_| 3, &[(fl(0), 1), (unpackable, 2)]),
            "names worm 1073741824 past the worm table's limit",
        );
    }

    /// Deposit cycles that do not strictly increase front to back are
    /// refused: the gaps between them could not be recorded. A gap past
    /// the saturation saves back as 255 cycles, the deposit cycles the
    /// walk gives, and that stream is a fixed point.
    #[test]
    fn load_refuses_deposit_cycles_that_do_not_increase() {
        let save = |r: &RouterSlab| {
            let mut w = SnapWriter::new();
            r.save_state(&mut w);
            w.finish()
        };
        let saturated = stream(|_| 3, &[(head(1), 5), (head(2), 6), (head(3), 9_000)]);
        let mut r = load_stream(&saturated).expect("increasing deposit cycles load");
        let walked = stream(|_| 3, &[(head(1), 8_744), (head(2), 8_745), (head(3), 9_000)]);
        assert_eq!(save(&r), walked, "the saturated gap saves back as 255 cycles");
        assert_eq!(save(&load_stream(&walked).expect("walked stream loads")), walked);
        r.pop(0, 0, 0);
        assert_eq!(r.front_ready(0, 0, 0), 8_745 + DELAY, "rebuilt from the walked deposit");
        for fifo in [[(head(1), 5), (head(2), 5)], [(head(1), 6), (head(2), 5)]] {
            refused(&stream(|_| 3, &fifo), "not after the flit ahead of it");
        }
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn deposit_overflow_panics() {
        let mut r = RouterSlab::new(1, 5, 1, 2, DELAY);
        r.deposit(0, 0, 0, fl(0), 0);
        r.deposit(0, 0, 0, fl(1), 1);
        r.deposit(0, 0, 0, fl(2), 2);
    }

    /// Configurations with more than 64 `(port, vc)` slots used to alias
    /// silently in the single-word occupancy mask; they must now work up
    /// to 128 slots and be rejected loudly beyond that.
    #[test]
    fn occupancy_tracks_slots_beyond_64() {
        // 5 ports x 20 vcs = 100 slots: the high ones live in word 1.
        let mut r = RouterSlab::new(1, 5, 20, 2, DELAY);
        r.deposit(0, 4, 19, fl(0), 0); // slot 99
        r.deposit(0, 0, 0, fl(0), 0); // slot 0
        assert!(r.occ(0).test(99) && r.occ(0).test(0));
        assert_eq!(r.occ(0).iter().collect::<Vec<_>>(), vec![0, 99]);
        r.pop(0, 4, 19);
        assert!(!r.occ(0).test(99), "emptying the high slot clears only its bit");
        assert!(r.occ(0).test(0));
    }

    #[test]
    #[should_panic(expected = "occupancy bitset limits ports * vcs")]
    fn too_many_vc_slots_is_rejected() {
        RouterSlab::new(1, 5, 26, 2, DELAY); // 130 > 128
    }

    #[test]
    #[should_panic(expected = "router delay must be 1..=256")]
    fn a_router_delay_past_the_gap_byte_is_rejected() {
        RouterSlab::new(1, 5, 1, 2, RouterSlab::MAX_ROUTER_DELAY + 1);
    }

    #[test]
    fn best_free_out_vc_prefers_credits() {
        let mut r = RouterSlab::new(1, 5, 4, 4, DELAY);
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
