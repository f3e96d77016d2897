//! The full DSM system model: processors, caches, directories, controllers
//! and the invalidation scheme, driven against the wormhole mesh.
//!
//! [`DsmSystem`] is the execution engine behind every experiment. Each call
//! to [`DsmSystem::step`] advances one 5 ns cycle:
//!
//! 1. the network moves flits ([`Network::tick`]);
//! 2. new deliveries enter the receiving node's controller (directory
//!    controller DC for home-bound messages, cache controller CC
//!    otherwise), which queues behind its busy time;
//! 3. due calendar events fire: message handlers run the protocol FSM,
//!    worms inject, i-acks post.
//!
//! Processors obey sequential consistency: one outstanding memory
//! operation, stalling on every miss until the protocol completes it.

use crate::config::{ConsistencyModel, SystemConfig};
use crate::metrics::Metrics;
use crate::plan::{AckAction, InvalPlan, PlannedWorm};
use crate::schemes::InvalidationScheme;
use std::collections::VecDeque;
use wormdsm_coherence::{
    Addr, BlockId, Caches, CostModel, DirState, Directory, Evicted, LineState, MemGeometry,
    MsgSizes, MsgTable, ProtoMsg, WbBuffer,
};
use wormdsm_mesh::network::MeshConfig;
use wormdsm_mesh::nic::{Delivery, IackMode};
use wormdsm_mesh::routing::BaseRouting;
use wormdsm_mesh::topology::NodeId;
use wormdsm_mesh::worm::{TxnId, Unicast, VNet, WormKind, WormSpec};
use wormdsm_mesh::{ContentionProbe, LinkLoadMeter, Network};
use wormdsm_sim::profile::TxnProfiler;
use wormdsm_sim::snap::{snap_enum, snap_struct, Fnv64, Snap, SnapError, SnapReader, SnapWriter};
use wormdsm_sim::stats::BusyTime;
use wormdsm_sim::trace::{FlightRecorder, InvariantViolation, TraceClass, TraceKind, TraceLevel};
use wormdsm_sim::{counter_limit, trace_event, Calendar, Cycle, NodeLists, Registry, MAX_CLOCK};

/// Cycles an early fetch waits before retrying at a node whose ownership
/// grant is still in flight (window-of-vulnerability deferral).
const FETCH_RETRY_DELAY: Cycle = 16;

/// Cycles between i-ack post retries when the buffer is full.
const POST_RETRY_DELAY: Cycle = 20;

/// Cycles before the home re-examines a writeback that raced with an
/// outstanding fetch (directory entry in `Waiting`).
const WRITEBACK_RETRY_DELAY: Cycle = 16;

/// How many of the flight recorder's most recent events an
/// [`InvariantViolation`] dump snapshots.
const INVARIANT_DUMP_EVENTS: usize = 64;

/// Why a run stopped before reaching idle (or refused to start).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The configuration exceeds a hard limit of the implementation
    /// (mesh larger than `NodeId` can address, VC count beyond the
    /// occupancy bitset, a delay or cost that overflows the clock, ...).
    /// Rejected up front by [`DsmSystem::try_new`], before any cycle
    /// runs, so a 16k-node sweep fails in milliseconds instead of
    /// mid-simulation.
    Config(String),
    /// The cycle budget ran out with work still in flight (deadlock or
    /// lost message).
    Timeout(String),
    /// A promoted protocol invariant fired. The payload carries the
    /// flight-recorder context captured at the violation site, so the
    /// failure is diagnosable without a rerun.
    Invariant(Box<InvariantViolation>),
    /// A snapshot stream could not be restored: truncated or corrupt
    /// bytes, an integrity-hash mismatch, or a snapshot taken on a
    /// different configuration/scheme than the system restoring it.
    Snapshot(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Config(msg) => f.write_str(msg),
            SimError::Timeout(msg) => f.write_str(msg),
            SimError::Invariant(v) => v.fmt(f),
            SimError::Snapshot(msg) => write!(f, "snapshot restore failed: {msg}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Heap bytes a [`DsmSystem`] holds, by component (see
/// [`DsmSystem::heap_bytes`]). A container counts its capacity, so the
/// account of a finished run keeps each component's high-water mark.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeapAccount {
    /// Router FIFOs, slot records and columns.
    pub routers: usize,
    /// NIC queues, consumption channels, i-ack entries and deliveries.
    pub nics: usize,
    /// The worm table with every route box and its lists.
    pub worms: usize,
    /// The rest of the network: neighbor table, activity sets, link
    /// statistics and the link-load meter.
    pub network: usize,
    /// Pending calendar events, boxed specs included.
    pub calendar: usize,
    /// The protocol-message table.
    pub messages: usize,
    /// The cache-line table of every node.
    pub caches: usize,
    /// Directory entries with their presence bits and request queues.
    pub directory: usize,
    /// Node records, writeback buffers and pending writes.
    pub nodes: usize,
    /// Live invalidation transactions, barriers and locks.
    pub protocol: usize,
}

impl HeapAccount {
    /// Every component with its name, in declaration order.
    pub fn rows(&self) -> [(&'static str, usize); 10] {
        [
            ("routers", self.routers),
            ("nics", self.nics),
            ("worms", self.worms),
            ("network", self.network),
            ("calendar", self.calendar),
            ("messages", self.messages),
            ("caches", self.caches),
            ("directory", self.directory),
            ("nodes", self.nodes),
            ("protocol", self.protocol),
        ]
    }

    /// Bytes over all components.
    pub fn total(&self) -> usize {
        self.rows().iter().map(|&(_, b)| b).sum()
    }
}

/// Always-on protocol invariant check: the promoted form of the
/// `debug_assert!`s that used to guard these paths, so release runs audit
/// themselves too. On failure the violation is recorded with
/// flight-recorder context (first one wins, see
/// [`DsmSystem::invariant_violation`]) instead of panicking; the
/// `return;` arm additionally bails out of the handler so it cannot
/// corrupt state further. Runs then surface the violation as
/// [`SimError::Invariant`].
macro_rules! invariant {
    (return; $self:ident, $txn:expr, $cond:expr, $($fmt:tt)+) => {
        if !$cond {
            $self.invariant_failed($txn, format!($($fmt)+));
            return;
        }
    };
    ($self:ident, $txn:expr, $cond:expr, $($fmt:tt)+) => {
        if !$cond {
            $self.invariant_failed($txn, format!($($fmt)+));
        }
    };
}

/// A processor memory operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemOp {
    /// Local computation for the given number of cycles.
    Compute(u64),
    /// Shared-memory read.
    Read(Addr),
    /// Shared-memory write.
    Write(Addr),
    /// Barrier with the given id and participant count.
    Barrier {
        /// Barrier identifier (homed at node `id % nodes`).
        id: u16,
        /// Number of arrivals that release the barrier.
        participants: u32,
    },
    /// Acquire a queue lock.
    Lock(u16),
    /// Release a queue lock (does not stall).
    Unlock(u16),
}

/// Processor execution state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProcState {
    Idle,
    BusyUntil(Cycle),
    Stalled { kind: StallKind, since: Cycle },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StallKind {
    Read(BlockId),
    Write(BlockId),
    Barrier(u16),
    Lock(u16),
    /// Release consistency: the operation is deferred until the write
    /// buffer drains (sync ops), frees a slot (buffer full), or the
    /// conflicting pending write completes; retried on each completion.
    Deferred(MemOp),
}

impl StallKind {
    /// Flight-recorder label for this stall reason.
    fn label(self) -> &'static str {
        match self {
            StallKind::Read(_) => "read",
            StallKind::Write(_) => "write",
            StallKind::Barrier(_) => "barrier",
            StallKind::Lock(_) => "lock",
            StallKind::Deferred(_) => "deferred",
        }
    }
}

/// Per-node mutable state. The node's short lists — its writebacks and
/// its release-consistency writes in flight — live in tables all nodes
/// share (`DsmSystem::wb`, `DsmSystem::pending_writes`), so a node with
/// nothing in flight costs them no header.
#[derive(Debug)]
struct NodeCtx {
    dc: BusyTime,
    cc: BusyTime,
    mem: BusyTime,
    proc: ProcState,
    /// An invalidation arrived for the block this node's outstanding read
    /// fill targets: serve the read once but do not install the line.
    poisoned_fill: Option<BlockId>,
}

/// An in-flight invalidation transaction at its home node. It keeps the
/// part of its [`InvalPlan`] the ack phase still reads: the request
/// worms were moved into their injections when the transaction started.
#[derive(Debug)]
struct TxnState {
    block: BlockId,
    home: NodeId,
    writer: NodeId,
    needed: u32,
    got: u32,
    /// Each sharer's ack action, one entry a sharer in ascending node
    /// order (the plan's `actions`, compacted).
    acks: Vec<(NodeId, SharerAck)>,
    /// The i-gather worms the [`SharerAck::Gather`] actions inject, each
    /// held once.
    gathers: Vec<PlannedWorm>,
    /// The plan's relay instructions (tree scheme delegates).
    relays: Vec<(NodeId, Vec<PlannedWorm>)>,
    /// The plan's sweep triggers (two-phase schemes).
    triggers: Vec<(NodeId, PlannedWorm)>,
    with_data: bool,
    started: Cycle,
    /// Messages sent from / received at the home so far in this
    /// transaction (occupancy proxy).
    home_msgs: u32,
}

/// A sharer's [`AckAction`] as a live transaction keeps it: the gather
/// worm of an [`AckAction::InitGather`] moves to the transaction's
/// gather table, and the action names its index there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SharerAck {
    Unicast,
    Post,
    Gather(u32),
}

impl TxnState {
    /// The ack action of `node`, if it is one of the sharers.
    fn ack_for(&self, node: NodeId) -> Option<SharerAck> {
        let i = self.acks.binary_search_by_key(&node, |&(n, _)| n).ok()?;
        Some(self.acks[i].1)
    }

    /// The first reason a loaded transaction's ack table cannot be
    /// looked up or followed: a sharer listed twice or out of order, or
    /// an action naming a gather past the table.
    fn check(&self) -> Result<(), String> {
        if let Some(w) = self.acks.windows(2).find(|w| w[0].0 >= w[1].0) {
            return Err(if w[0].0 == w[1].0 {
                format!("sharer {} listed twice", w[0].0)
            } else {
                format!("sharers {} and {} out of order", w[0].0, w[1].0)
            });
        }
        let gathers = self.gathers.len();
        match self
            .acks
            .iter()
            .find(|(_, a)| matches!(*a, SharerAck::Gather(i) if i as usize >= gathers))
        {
            Some((n, a)) => {
                Err(format!("sharer {n}'s action {a:?} names a gather past a table of {gathers}"))
            }
            None => Ok(()),
        }
    }
}

#[derive(Debug)]
struct BarrierState {
    expected: u32,
    arrived: Vec<NodeId>,
}

#[derive(Debug, Default)]
struct LockState {
    holder: Option<NodeId>,
    queue: VecDeque<NodeId>,
}

/// Slab of in-flight invalidation transactions.
///
/// Transaction ids are slot-encoded — `id = (seq << SLOT_BITS) | slot` —
/// so the home's per-ack lookup is a direct index instead of a hash probe.
/// The sequence half keeps ids unique across slot reuse (a stale id from a
/// retired transaction misses the `ids[slot]` check instead of aliasing),
/// and `seq` starts at 1 so no live id collides with the `TxnId(0)`
/// sentinel that barrier-release worms carry.
#[derive(Debug, Default)]
struct TxnSlab {
    slots: Vec<Option<TxnState>>,
    /// Full id currently occupying each slot (0 = vacant).
    ids: Vec<u64>,
    /// LIFO free list of vacated slots.
    free: Vec<u32>,
    seq: u64,
    live: usize,
}

/// Low bits of a transaction id that select the slab slot.
const TXN_SLOT_BITS: u32 = 20;

impl TxnSlab {
    /// Concurrent transactions the slab can hold. A documented hard
    /// limit, not a practical one: ids reserve [`TXN_SLOT_BITS`] low bits
    /// for the slot, and even a full 65536-node mesh with every node
    /// holding outstanding writes stays orders of magnitude below 2^20
    /// live transactions. Overflow returns `None` from
    /// [`TxnSlab::insert`]; the caller surfaces it as a recorded
    /// invariant violation ([`SimError::Invariant`]) instead of a panic.
    const CAPACITY: usize = 1 << TXN_SLOT_BITS;

    fn insert(&mut self, t: TxnState) -> Option<TxnId> {
        let slot = match self.free.pop() {
            Some(s) => s as usize,
            None => {
                if self.slots.len() >= Self::CAPACITY {
                    return None;
                }
                self.slots.push(None);
                self.ids.push(0);
                self.slots.len() - 1
            }
        };
        self.seq += 1;
        let id = (self.seq << TXN_SLOT_BITS) | slot as u64;
        self.slots[slot] = Some(t);
        self.ids[slot] = id;
        self.live += 1;
        Some(TxnId(id))
    }

    fn slot_of(&self, id: u64) -> Option<usize> {
        let slot = (id & ((1 << TXN_SLOT_BITS) - 1)) as usize;
        (self.ids.get(slot) == Some(&id)).then_some(slot)
    }

    fn get(&self, id: TxnId) -> Option<&TxnState> {
        self.slot_of(id.0).and_then(|s| self.slots[s].as_ref())
    }

    fn get_mut(&mut self, id: TxnId) -> Option<&mut TxnState> {
        self.slot_of(id.0).and_then(|s| self.slots[s].as_mut())
    }

    /// The id the next [`TxnSlab::insert`] will assign, so callers can
    /// stamp worms with it before constructing the transaction state.
    fn next_id(&self) -> TxnId {
        let slot = self.free.last().map_or(self.slots.len(), |&s| s as usize) as u64;
        TxnId(((self.seq + 1) << TXN_SLOT_BITS) | slot)
    }

    fn remove(&mut self, id: TxnId) -> Option<TxnState> {
        let slot = self.slot_of(id.0)?;
        let t = self.slots[slot].take();
        if t.is_some() {
            self.ids[slot] = 0;
            self.free.push(slot as u32);
            self.live -= 1;
        }
        t
    }

    fn len(&self) -> usize {
        self.live
    }

    fn is_empty(&self) -> bool {
        self.live == 0
    }
}

/// Calendar events.
#[derive(Debug)]
enum Ev {
    /// A message reached a controller's input; occupy the controller then
    /// handle.
    Recv { node: NodeId, key: u64, acks: u32, src: NodeId },
    /// Controller finished processing; run the protocol handler.
    Handle { node: NodeId, key: u64, acks: u32, src: NodeId },
    /// Hand a plain unicast worm to the NIC. Most scheduled worms are
    /// unicasts (every reply, and every invalidation under UI-UA), so the
    /// calendar's entries stay small.
    Send(Unicast),
    /// Hand any other worm (multidestination, gather, i-reserve) to the
    /// NIC.
    Inject(Box<WormSpec>),
    /// Post an i-ack signal at `node` for `txn`; fall back to a unicast
    /// ack if the buffer is full.
    PostIack { node: NodeId, txn: TxnId },
}

impl Ev {
    /// The event handing `spec` to the NIC: compact for a plain unicast.
    fn inject(spec: WormSpec) -> Self {
        match Unicast::of(&spec) {
            Some(u) => Ev::Send(u),
            None => Ev::Inject(Box::new(spec)),
        }
    }

    /// Heap bytes the event owns (a boxed spec and its lists).
    fn heap_bytes(&self) -> usize {
        match self {
            Ev::Inject(spec) => std::mem::size_of::<WormSpec>() + spec.heap_bytes(),
            _ => 0,
        }
    }
}

/// Every message key the calendar, the network and the directory hold
/// (see [`DsmSystem::held_message_keys`]); a free function, so collection
/// can stream the keys while it borrows the message table mutably.
fn held_keys<'a>(
    cal: &'a Calendar<Ev>,
    net: &'a Network,
    dir: &'a Directory,
) -> impl Iterator<Item = u64> + 'a {
    let events = cal.events().filter_map(|ev| match ev {
        Ev::Recv { key, .. } | Ev::Handle { key, .. } => Some(*key),
        Ev::Send(u) => Some(u.payload),
        Ev::Inject(spec) => Some(spec.payload),
        Ev::PostIack { .. } => None,
    });
    net.payloads().chain(dir.queued_keys()).chain(events)
}

/// The complete simulated DSM machine.
pub struct DsmSystem {
    cfg: SystemConfig,
    scheme: Box<dyn InvalidationScheme>,
    net: Network,
    geom: MemGeometry,
    msgs: MsgTable,
    nodes: Vec<NodeCtx>,
    /// Every node's writeback buffer.
    wb: WbBuffer,
    /// Release consistency: every node's writes in flight (block, issue
    /// cycle). A node's list is tiny (a few entries), so it is scanned
    /// linearly.
    pending_writes: NodeLists<(BlockId, Cycle)>,
    /// Every node's cache lines in one table.
    caches: Caches,
    /// Every home's directory entries in one map keyed by block; a
    /// block's home is [`MemGeometry::home_of`].
    dir: Directory,
    txns: TxnSlab,
    cal: Calendar<Ev>,
    metrics: Metrics,
    /// Barrier state, indexed by barrier id (ids are small and dense in
    /// every workload, so a lazily grown slot vector replaces hashing).
    barriers: Vec<Option<BarrierState>>,
    /// Lock state, indexed by lock id (same dense-id rationale).
    locks: Vec<Option<LockState>>,
    now: Cycle,
    /// When set (the default), [`DsmSystem::step`] fast-forwards over dead
    /// cycles: if the network is fully idle, time jumps straight to the
    /// next calendar event or processor wake-up instead of ticking empty
    /// cycles one by one. Bit-identical to per-cycle stepping.
    fast_forward: bool,
    /// Cycles elided by dead-cycle fast-forwarding (diagnostics).
    skipped_cycles: u64,
    /// First protocol invariant violation observed (sticky). Once set,
    /// handlers keep bailing out safely but the run's results are
    /// untrustworthy; drivers surface it as [`SimError::Invariant`].
    violation: Option<Box<InvariantViolation>>,
}

impl DsmSystem {
    /// Build an idle system running `scheme`.
    ///
    /// Panics on an invalid configuration or a scheme whose worms are not
    /// conformant under the configured base routing; sweep drivers that
    /// want to skip bad points instead should use [`DsmSystem::try_new`].
    pub fn new(cfg: SystemConfig, scheme: Box<dyn InvalidationScheme>) -> Self {
        match Self::try_new(cfg, scheme) {
            Ok(sys) => sys,
            Err(e) => panic!("{e}"),
        }
    }

    /// Build an idle system running `scheme`, rejecting configurations
    /// that exceed hard limits (see [`SystemConfig::validate`]) or a
    /// scheme/routing mismatch with [`SimError::Config`] — before any
    /// state is allocated or any cycle runs.
    pub fn try_new(
        cfg: SystemConfig,
        scheme: Box<dyn InvalidationScheme>,
    ) -> Result<Self, SimError> {
        cfg.validate().map_err(SimError::Config)?;
        if !scheme.compatible_with(cfg.mesh.routing) {
            return Err(SimError::Config(format!(
                "{} is not conformant under {:?}",
                scheme.name(),
                cfg.mesh.routing
            )));
        }
        let n = cfg.nodes();
        let geom = MemGeometry::new(cfg.block_bytes, n);
        let nodes = (0..n)
            .map(|_| NodeCtx {
                dc: BusyTime::new(),
                cc: BusyTime::new(),
                mem: BusyTime::new(),
                proc: ProcState::Idle,
                poisoned_fill: None,
            })
            .collect();
        let mut net = Network::new(cfg.mesh.clone());
        // Adaptive schemes consume the always-on link-load summary; attach
        // the meter before the first cycle so every plan in the run (and
        // in any snapshot-resumed continuation) sees the same committed
        // windows.
        if let Some(window) = scheme.feedback_window() {
            net.enable_link_load(window);
        }
        let caches = Caches::new(cfg.cache_sets);
        Ok(Self {
            cfg,
            scheme,
            net,
            geom,
            msgs: MsgTable::new(),
            nodes,
            wb: WbBuffer::new(n),
            pending_writes: NodeLists::new(n),
            caches,
            dir: Directory::new(n),
            txns: TxnSlab::default(),
            cal: Calendar::new(),
            metrics: Metrics::new(),
            barriers: Vec::new(),
            locks: Vec::new(),
            now: 0,
            fast_forward: true,
            skipped_cycles: 0,
            violation: None,
        })
    }

    /// Enable or disable dead-cycle fast-forwarding (on by default).
    /// Disabling forces per-cycle stepping; results are bit-identical
    /// either way, so this exists for A/B equivalence tests and perf
    /// comparison.
    pub fn set_fast_forward(&mut self, on: bool) {
        self.fast_forward = on;
    }

    /// Cycles elided (never individually stepped) by fast-forwarding.
    pub fn skipped_cycles(&self) -> u64 {
        self.skipped_cycles
    }

    /// Current cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Heap bytes the system holds, by component. The flight recorder,
    /// contention probe and profiler are observers and are not counted.
    /// Not part of the exported metrics: the bytes depend on allocation
    /// history, not only on the simulated run.
    pub fn heap_bytes(&self) -> HeapAccount {
        use wormdsm_sim::heap::{deque_bytes, vec_bytes};
        let net = self.net.heap_bytes();
        let txn = |t: &TxnState| {
            vec_bytes(&t.acks)
                + vec_bytes(&t.gathers)
                + vec_bytes(&t.relays)
                + vec_bytes(&t.triggers)
                + t.gathers.iter().map(PlannedWorm::heap_bytes).sum::<usize>()
                + t.relays
                    .iter()
                    .map(|(_, ws)| {
                        vec_bytes(ws) + ws.iter().map(PlannedWorm::heap_bytes).sum::<usize>()
                    })
                    .sum::<usize>()
                + t.triggers.iter().map(|(_, w)| w.heap_bytes()).sum::<usize>()
        };
        let txns = vec_bytes(&self.txns.slots)
            + vec_bytes(&self.txns.ids)
            + vec_bytes(&self.txns.free)
            + self.txns.slots.iter().flatten().map(txn).sum::<usize>();
        let barriers = vec_bytes(&self.barriers)
            + self.barriers.iter().flatten().map(|b| vec_bytes(&b.arrived)).sum::<usize>();
        let locks = vec_bytes(&self.locks)
            + self.locks.iter().flatten().map(|l| deque_bytes(&l.queue)).sum::<usize>();
        HeapAccount {
            routers: net.routers,
            nics: net.nics,
            worms: net.worms,
            network: net.other,
            calendar: self.cal.heap_bytes() + self.cal.events().map(Ev::heap_bytes).sum::<usize>(),
            messages: self.msgs.heap_bytes(),
            caches: self.caches.heap_bytes(),
            directory: self.dir.heap_bytes(),
            nodes: vec_bytes(&self.nodes) + self.wb.heap_bytes() + self.pending_writes.heap_bytes(),
            protocol: txns + barriers + locks,
        }
    }

    /// Metrics so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Network statistics so far.
    pub fn net_stats(&self) -> &wormdsm_mesh::NetStats {
        self.net.stats()
    }

    // ------------------------------------------------------------------
    // Tracing and invariant auditing.
    // ------------------------------------------------------------------

    /// Set the flight recorder's runtime level. Tracing is a pure
    /// observer: results are bit-identical at every level.
    pub fn set_trace_level(&mut self, level: TraceLevel) {
        self.net.set_trace_level(level);
    }

    /// The flight recorder: one time-ordered event stream shared by the
    /// mesh and the protocol layer.
    pub fn recorder(&self) -> &FlightRecorder {
        self.net.recorder()
    }

    /// Mutable flight-recorder access (capacity changes, clearing).
    pub fn recorder_mut(&mut self) -> &mut FlightRecorder {
        self.net.recorder_mut()
    }

    /// Attach a record-keeping [`TxnProfiler`] to the flight recorder and
    /// raise the trace level to [`TraceLevel::Flit`] (the profiler only
    /// sees events that pass the level gate, and a meaningful phase
    /// breakdown needs the per-worm events).
    ///
    /// The profiler streams from the recorder's `push` path, so its
    /// attribution is complete even when the ring overflows. It is a pure
    /// observer: results are bit-identical with profiling on or off.
    pub fn enable_profiling(&mut self) {
        self.net.set_trace_level(TraceLevel::Flit);
        self.net.recorder_mut().attach_profiler(TxnProfiler::new());
    }

    /// The attached profiler, if any.
    pub fn profiler(&self) -> Option<&TxnProfiler> {
        self.net.recorder().profiler()
    }

    /// Detach and return the attached profiler, if any.
    pub fn take_profiler(&mut self) -> Option<TxnProfiler> {
        self.net.recorder_mut().take_profiler()
    }

    /// Enable the mesh contention probe: per-link/VC occupancy and
    /// credit-stall accounting in `window`-cycle buckets. Pure observer:
    /// results are bit-identical with the probe on or off.
    pub fn enable_contention_probe(&mut self, window: Cycle) {
        self.net.enable_contention_probe(window);
    }

    /// The mesh contention probe, if enabled.
    pub fn contention_probe(&self) -> Option<&ContentionProbe> {
        self.net.contention_probe()
    }

    /// Detach and return the contention probe (final window flushed).
    pub fn take_contention_probe(&mut self) -> Option<ContentionProbe> {
        self.net.take_contention_probe()
    }

    /// Flush the contention probe's final partial window in place (see
    /// [`Network::finish_contention_probe`]). Call before reading
    /// [`DsmSystem::contention_probe`] windows from a run whose length is
    /// not a multiple of the probe window.
    pub fn finish_contention_probe(&mut self) {
        self.net.finish_contention_probe();
    }

    /// The link-load summary meter, if the scheme requested one (see
    /// [`InvalidationScheme::feedback_window`]).
    pub fn link_load(&self) -> Option<&LinkLoadMeter> {
        self.net.link_load()
    }

    /// The first protocol invariant violation observed so far, if any.
    ///
    /// The slot is sticky: the promoted checks record the violation and
    /// bail out of their handler instead of panicking, so the simulation
    /// keeps stepping, but any result produced after this returns `Some`
    /// is untrustworthy. [`DsmSystem::run_until_idle`] reports it as
    /// [`SimError::Invariant`].
    pub fn invariant_violation(&self) -> Option<&InvariantViolation> {
        self.violation.as_deref()
    }

    /// Export protocol metrics plus network statistics as one registry
    /// (mesh-level entries carry a `net_` prefix). Includes the flight
    /// recorder's recorded/dropped counters, so ring overflow is visible
    /// in every metrics export instead of only on direct recorder reads.
    pub fn export_metrics(&self) -> Registry {
        let rec = self.net.recorder();
        let mut r = self.metrics.export_with_trace(rec.recorded(), rec.dropped());
        r.absorb("net_", &self.net.stats().export(self.now));
        r
    }

    /// Record a failed protocol invariant: push an `InvariantFired`
    /// marker (unconditionally, so the dump is never empty even at
    /// [`TraceLevel::Off`]), snapshot the recorder, and keep the first
    /// violation.
    #[cold]
    fn invariant_failed(&mut self, txn: Option<TxnId>, what: String) {
        self.metrics.invariant_failures += 1;
        let now = self.now;
        let txn = txn.map(|t| t.0);
        let rec = self.net.recorder_mut();
        rec.push(now, TraceKind::InvariantFired { txn: txn.unwrap_or(0) });
        if self.violation.is_none() {
            self.violation = Some(Box::new(InvariantViolation::capture(
                what,
                now,
                txn,
                self.net.recorder(),
                INVARIANT_DUMP_EVENTS,
            )));
        }
    }

    /// Fold a violation the network recorded (its slot is sticky too)
    /// into the system-level slot.
    #[cold]
    fn absorb_net_violation(&mut self) {
        let what = self.net.violation().expect("caller checked").to_string();
        self.invariant_failed(None, what);
    }

    /// The scheme driving invalidations.
    pub fn scheme_name(&self) -> &'static str {
        self.scheme.name()
    }

    /// Configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Geometry (block/home mapping).
    pub fn geometry(&self) -> &MemGeometry {
        &self.geom
    }

    /// Directory-controller busy cycles at `node` (home occupancy).
    pub fn dc_busy(&self, node: NodeId) -> u64 {
        self.nodes[node.idx()].dc.total()
    }

    /// True when `node`'s processor can issue a new operation.
    pub fn proc_idle(&self, node: NodeId) -> bool {
        match self.nodes[node.idx()].proc {
            ProcState::Idle => true,
            ProcState::BusyUntil(t) => t <= self.now,
            ProcState::Stalled { .. } => false,
        }
    }

    /// True when every processor is idle and no protocol or network
    /// activity remains.
    pub fn idle(&self) -> bool {
        self.txns.is_empty()
            && self.cal.is_empty()
            && self.net.quiescent()
            && (0..self.nodes.len()).all(|i| self.proc_idle(NodeId(i as u16)))
    }

    /// Advance one cycle.
    ///
    /// With fast-forwarding on (the default), a step taken while the
    /// network is fully idle first jumps the clock to just before the next
    /// scheduled wake-up (calendar event or processor busy-expiry), then
    /// performs one normal cycle. Every skipped cycle would have been a
    /// complete no-op, so runs are bit-identical with or without the jump.
    pub fn step(&mut self) {
        if self.fast_forward {
            self.skip_dead_cycles(None);
        }
        self.step_inner();
    }

    /// One cycle of work: tick the network, route fresh deliveries into
    /// controllers, fire due calendar events.
    fn step_inner(&mut self) {
        // The tick boundary: every key is in a holder, none in a handler's
        // local, so the unheld messages are dead.
        if self.msgs.collect_due() {
            self.collect_messages();
        }
        self.net.tick();
        self.now = self.net.now();
        // The tick's deliveries, in NIC order: ascending node, channel
        // order within a node.
        while let Some(d) = self.net.next_delivery() {
            self.on_delivery(d);
        }
        while let Some((t, ev)) = self.cal.pop_due(self.now) {
            self.handle_event(t.max(self.now), ev);
        }
        if self.violation.is_none() && self.net.violation().is_some() {
            self.absorb_net_violation();
        }
    }

    /// If the network has no work at all, advance the clock to one cycle
    /// before the next event that could change anything: the earliest
    /// calendar entry or the earliest processor busy-expiry, clamped to
    /// `horizon` when one is given. Processors whose busy time already
    /// expired, stalled processors (they wake only via calendar-driven
    /// protocol events) and idle processors impose no boundary. With no
    /// boundary and no horizon, fall back to per-cycle stepping so
    /// `run_until_idle` timeouts still fire on genuine deadlocks.
    fn skip_dead_cycles(&mut self, horizon: Option<Cycle>) {
        // Any pending network work forbids jumping.
        if !self.net.fully_idle() {
            return;
        }
        let mut target = self.cal.peek_next_at();
        for n in &self.nodes {
            if let ProcState::BusyUntil(t) = n.proc {
                if t > self.now {
                    target = Some(target.map_or(t, |x| x.min(t)));
                }
            }
        }
        let t = match (target, horizon) {
            (Some(t), Some(h)) => t.min(h),
            (Some(t), None) => t,
            (None, Some(h)) => h,
            (None, None) => return,
        };
        if t > self.now + 1 {
            let from = self.now;
            self.skipped_cycles += t - 1 - self.now;
            self.net.advance_to(t - 1);
            self.now = t - 1;
            trace_event!(
                self.net.recorder_mut(),
                TraceClass::Txn,
                from,
                TraceKind::FastForward { from, to: t - 1 }
            );
        }
    }

    /// Advance simulated time by exactly `n` cycles.
    ///
    /// Fast-forwarding still applies but is clamped to the `n`-cycle
    /// horizon, so the clock lands exactly on `now + n` and the state
    /// there matches per-cycle stepping bit for bit.
    pub fn run_cycles(&mut self, n: u64) {
        let deadline = self.now + n;
        while self.now < deadline {
            if self.fast_forward {
                self.skip_dead_cycles(Some(deadline));
            }
            self.step_inner();
        }
    }

    /// Run until [`DsmSystem::idle`] or `max` cycles pass.
    ///
    /// Errors are structured: [`SimError::Timeout`] for a deadlock or
    /// lost message, [`SimError::Invariant`] when a promoted protocol
    /// invariant fired mid-run (the violation carries the flight-recorder
    /// dump and offending-transaction timeline).
    pub fn run_until_idle(&mut self, max: Cycle) -> Result<Cycle, SimError> {
        let deadline = self.now + max;
        while !self.idle() {
            if let Some(v) = &self.violation {
                return Err(SimError::Invariant(v.clone()));
            }
            if self.now >= deadline {
                return Err(SimError::Timeout(format!(
                    "system not idle after {max} cycles: {} txns, {} events, {} live worms",
                    self.txns.len(),
                    self.cal.len(),
                    self.net.live_worms()
                )));
            }
            self.step();
        }
        match &self.violation {
            Some(v) => Err(SimError::Invariant(v.clone())),
            None => Ok(self.now),
        }
    }

    // ------------------------------------------------------------------
    // Snapshot / resume.
    // ------------------------------------------------------------------

    /// FNV-1a fingerprint of everything a snapshot assumes about the
    /// machine it is restored into: every configuration field, each as a
    /// `u64` in the order listed here, plus the scheme name. Restoring into
    /// a system whose fingerprint differs is rejected up front — a
    /// snapshot encodes slab geometries and routing decisions that only
    /// replay correctly on the exact configuration that produced them.
    ///
    /// Each struct is destructured without `..` and each enum matched
    /// without a wildcard, so a new field or variant does not compile
    /// until it is listed here; renaming a field or changing a `Debug`
    /// impl moves nothing.
    fn config_fingerprint(cfg: &SystemConfig, scheme: &str) -> u64 {
        let SystemConfig {
            mesh,
            cache_sets,
            block_bytes,
            costs,
            sizes,
            consistency,
            multicast_barriers,
        } = cfg;
        let MeshConfig {
            mesh,
            routing,
            vcs_per_vnet,
            vc_buf_flits,
            router_delay,
            strip_delay,
            iack_check_delay,
            cons_channels,
            iack_buffers,
            iack_mode,
        } = mesh;
        let CostModel { dc_proc, dc_send, cc_proc, cc_send, cache_access, mem_access, iack_post } =
            costs;
        let MsgSizes { control, data, per_extra_dest_x4, gather } = sizes;
        let routing = match routing {
            BaseRouting::ECube => 0,
            BaseRouting::TurnModel => 1,
        };
        let iack_mode = match iack_mode {
            IackMode::Block => 0,
            IackMode::VctDefer => 1,
        };
        let (consistency, write_buffer) = match consistency {
            ConsistencyModel::Sequential => (0, 0),
            ConsistencyModel::Release { write_buffer } => (1, *write_buffer),
        };
        let fields: [u64; 27] = [
            mesh.width() as u64,
            mesh.height() as u64,
            routing,
            *vcs_per_vnet as u64,
            *vc_buf_flits as u64,
            *router_delay,
            *strip_delay,
            *iack_check_delay,
            *cons_channels as u64,
            *iack_buffers as u64,
            iack_mode,
            *cache_sets as u64,
            *block_bytes,
            *dc_proc,
            *dc_send,
            *cc_proc,
            *cc_send,
            *cache_access,
            *mem_access,
            *iack_post,
            u64::from(*control),
            u64::from(*data),
            u64::from(*per_extra_dest_x4),
            u64::from(*gather),
            consistency,
            write_buffer as u64,
            u64::from(*multicast_barriers),
        ];
        let mut h = Fnv64::new();
        fields.iter().for_each(|&v| h.write_u64(v));
        h.write(scheme.as_bytes());
        h.finish()
    }

    /// Serialize the complete simulation state into a self-validating
    /// snapshot stream (`MAGIC | VERSION | payload | FNV-1a 64` framing,
    /// see [`wormdsm_sim::snap`]).
    ///
    /// The stream captures everything that determines future behavior:
    /// the network (routers, NICs, worms, worklists, statistics), the
    /// message table, per-node caches / write buffers / controllers /
    /// processor states, directories, the transaction slab, the event
    /// calendar, metrics, and barrier/lock state. It does **not** capture
    /// the configuration or scheme — [`DsmSystem::restore_snapshot`]
    /// takes those as inputs and verifies them against a recorded
    /// fingerprint. Pure observers (flight recorder, profiler, contention
    /// probe) are deliberately excluded: they never influence results and
    /// restart empty after a restore. The link-load meter is **not** an
    /// observer — its committed windows feed adaptive plans — so it
    /// travels inside the network state.
    pub fn save_snapshot(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.put_u64(Self::config_fingerprint(&self.cfg, self.scheme.name()));
        w.put_str(self.scheme.name());
        w.put_bool(self.violation.is_some());
        w.put_u64(self.now);
        w.put_u64(self.skipped_cycles);
        w.put_bool(self.fast_forward);
        self.net.save_state(&mut w);
        self.msgs.save(&mut w);
        // Each node's record opens with its cache section (format v9).
        w.put_usize(self.nodes.len());
        self.caches.save_sections(self.nodes.len(), &mut w, |i, w| self.save_node(i, w));
        self.dir.save(&mut w);
        self.txns.save(&mut w);
        self.cal.save(&mut w);
        self.metrics.save(&mut w);
        self.barriers.save(&mut w);
        self.locks.save(&mut w);
        w.finish()
    }

    /// Write node `i`'s record in the layout of a per-node record that
    /// holds its own lists: writeback buffer, controllers, processor,
    /// pending writes, poisoned fill.
    fn save_node(&self, i: usize, w: &mut SnapWriter) {
        let n = &self.nodes[i];
        self.wb.save_node(i, w);
        n.dc.save(w);
        n.cc.save(w);
        n.mem.save(w);
        n.proc.save(w);
        self.pending_writes.save_list(i, w);
        n.poisoned_fill.save(w);
    }

    /// Read a [`DsmSystem::save_node`] record into node `i`, whose lists
    /// must be empty.
    fn load_node(&mut self, i: usize, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.wb.load_node(i, r)?;
        let (dc, cc, mem, proc) = (Snap::load(r)?, Snap::load(r)?, Snap::load(r)?, Snap::load(r)?);
        self.pending_writes.load_list(i, r)?;
        self.nodes[i] = NodeCtx { dc, cc, mem, proc, poisoned_fill: Snap::load(r)? };
        Ok(())
    }

    /// Rebuild a system from [`DsmSystem::save_snapshot`] bytes.
    ///
    /// `cfg` and `scheme` must match the snapshotting system exactly
    /// (enforced via the recorded fingerprint, checked before any state
    /// is decoded). The restored system continues **bit-identically**
    /// with the original: stepping both from the snapshot point produces
    /// the same metrics, cycle for cycle. Snapshots of runs that already
    /// tripped a protocol invariant are refused — their state is
    /// untrustworthy by definition. Observers do not survive: the flight
    /// recorder starts empty at its default level, with no contention
    /// probe or profiler attached. A failed restore returns no system.
    pub fn restore_snapshot(
        cfg: SystemConfig,
        scheme: Box<dyn InvalidationScheme>,
        bytes: &[u8],
    ) -> Result<Self, SimError> {
        fn snap_err(e: SnapError) -> SimError {
            SimError::Snapshot(e.to_string())
        }
        let mut sys = Self::try_new(cfg, scheme)?;
        let mut r = SnapReader::new(bytes).map_err(snap_err)?;
        let fp = r.get_u64().map_err(snap_err)?;
        let scheme_name = r.get_str().map_err(snap_err)?;
        if scheme_name != sys.scheme.name() {
            return Err(SimError::Snapshot(format!(
                "snapshot was taken under scheme {scheme_name}, restoring under {}",
                sys.scheme.name()
            )));
        }
        if fp != Self::config_fingerprint(&sys.cfg, sys.scheme.name()) {
            return Err(SimError::Snapshot(
                "snapshot configuration fingerprint does not match this system".to_string(),
            ));
        }
        if r.get_bool().map_err(snap_err)? {
            return Err(SimError::Snapshot(
                "snapshot captured a run with a protocol invariant violation".to_string(),
            ));
        }
        sys.now = r.get_u64().map_err(snap_err)?;
        sys.skipped_cycles = r.get_u64().map_err(snap_err)?;
        sys.fast_forward = r.get_bool().map_err(snap_err)?;
        sys.net.load_state(&mut r).map_err(snap_err)?;
        sys.msgs = Snap::load(&mut r).map_err(snap_err)?;
        let n = r.get_len().map_err(snap_err)?;
        if n != sys.cfg.nodes() {
            return Err(SimError::Snapshot(format!(
                "snapshot holds {n} nodes, configuration has {}",
                sys.cfg.nodes()
            )));
        }
        for i in 0..n {
            sys.caches.load_section(NodeId(i as u16), &mut r).map_err(snap_err)?;
            sys.load_node(i, &mut r).map_err(snap_err)?;
        }
        let dir: Directory = Snap::load(&mut r).map_err(snap_err)?;
        if dir.nodes() != sys.cfg.nodes() {
            return Err(SimError::Snapshot(format!(
                "snapshot directory covers {} nodes, configuration has {}",
                dir.nodes(),
                sys.cfg.nodes()
            )));
        }
        sys.dir = dir;
        sys.txns = Snap::load(&mut r).map_err(snap_err)?;
        sys.cal = Calendar::load(&mut r).map_err(snap_err)?;
        sys.metrics = Snap::load(&mut r).map_err(snap_err)?;
        sys.barriers = Snap::load(&mut r).map_err(snap_err)?;
        sys.locks = Snap::load(&mut r).map_err(snap_err)?;
        if !r.is_done() {
            return Err(SimError::Snapshot(format!(
                "{} trailing bytes after the snapshot payload",
                r.remaining()
            )));
        }
        sys.check_references().and_then(|()| sys.check_clocks()).map_err(SimError::Snapshot)?;
        Ok(sys)
    }

    /// The first reference in a restored state that stepping it would
    /// index out of range: a message key the table does not hold (past
    /// it, vacant or stale) named by any holder of
    /// [`DsmSystem::held_message_keys`], a node outside the mesh named by
    /// an event, or an `Inject` event the network could not route.
    fn check_references(&self) -> Result<(), String> {
        self.held_message_keys().try_for_each(|k| self.msgs.check(k))?;
        let node_ok = |n: NodeId| {
            if n.idx() < self.cfg.nodes() {
                Ok(())
            } else {
                Err(format!("node {} outside the mesh", n.idx()))
            }
        };
        self.msgs.iter().try_for_each(|m| {
            m.node().map_or(Ok(()), node_ok).map_err(|e| format!("message {m:?}: {e}"))
        })?;
        self.cal.events().try_for_each(|ev| {
            match ev {
                Ev::Recv { node, src, .. } | Ev::Handle { node, src, .. } => {
                    node_ok(*node).and(node_ok(*src))
                }
                Ev::PostIack { node, .. } => node_ok(*node),
                Ev::Send(u) => self.net.check_spec(&u.spec()),
                Ev::Inject(spec) => self.net.check_spec(spec),
            }
            .map_err(|e| format!("calendar event {ev:?}: {e}"))
        })
    }

    /// The first clock or counter in a restored state that stepping it
    /// could overflow: the clock past [`MAX_CLOCK`], a stall, write or
    /// transaction that started after it, a controller busy past
    /// [`MAX_CLOCK`] or for more cycles than it has been busy until, or a
    /// counter (transactions or events so far included) past
    /// [`counter_limit`]. The network checks its own when it
    /// loads.
    fn check_clocks(&self) -> Result<(), String> {
        let now = self.now;
        if now > MAX_CLOCK || self.skipped_cycles > now || self.net.now() != now {
            return Err(format!(
                "clock {now} (network {}, {} skipped) past the last cycle a run reaches or \
                 out of step",
                self.net.now(),
                self.skipped_cycles
            ));
        }
        for (i, n) in self.nodes.iter().enumerate() {
            for (name, b) in [("dc", &n.dc), ("cc", &n.cc), ("mem", &n.mem)] {
                if b.total() > b.free_at() || b.free_at() > MAX_CLOCK {
                    return Err(format!(
                        "node {i} {name}: {} cycles busy, busy until cycle {}",
                        b.total(),
                        b.free_at()
                    ));
                }
            }
            if let ProcState::Stalled { since, .. } = n.proc {
                if since > now {
                    return Err(format!("node {i} stalled since cycle {since}, after {now}"));
                }
            }
            if let Some((_, at)) = self.pending_writes.get(i).iter().find(|w| w.1 > now) {
                return Err(format!("node {i} issued a write at cycle {at}, after {now}"));
            }
        }
        if let Some(t) = self.txns.slots.iter().flatten().find(|t| t.started > now) {
            return Err(format!("a transaction started at cycle {}, after {now}", t.started));
        }
        let limit = counter_limit(now, self.cfg.nodes());
        if self.metrics.max_count().max(self.txns.seq).max(self.cal.scheduled()) > limit {
            return Err(format!("a protocol counter past {limit} by cycle {now}"));
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Message lifetime.
    // ------------------------------------------------------------------

    /// Every message key a holder names (with repeats): worms not yet
    /// retired and deliveries not yet taken ([`Network::payloads`]),
    /// requests queued at a directory, and receive, handle and inject
    /// events. Between steps no handler holds a key in a local, so a
    /// message no holder names is dead; collection and the restore check
    /// both read this one list.
    pub fn held_message_keys(&self) -> impl Iterator<Item = u64> + '_ {
        held_keys(&self.cal, &self.net, &self.dir)
    }

    /// Collect every message [`DsmSystem::held_message_keys`] does not
    /// name. Steps collect on their own once the message count has
    /// doubled since the last collection; results are the same whenever
    /// collection runs.
    pub fn collect_messages(&mut self) {
        self.msgs.collect(held_keys(&self.cal, &self.net, &self.dir));
    }

    /// The message table (read-only; for diagnostics and tests).
    pub fn message_table(&self) -> &MsgTable {
        &self.msgs
    }

    // ------------------------------------------------------------------
    // Processor interface.
    // ------------------------------------------------------------------

    /// Issue a memory operation on `node`'s processor. Panics when the
    /// processor is not idle (callers poll [`DsmSystem::proc_idle`]).
    pub fn issue(&mut self, node: NodeId, op: MemOp) {
        assert!(self.proc_idle(node), "{node} issued {op:?} while busy");
        let now = self.now;
        let costs = self.cfg.costs;
        match op {
            MemOp::Compute(c) => {
                self.nodes[node.idx()].proc = ProcState::BusyUntil(now + c.max(1));
            }
            MemOp::Read(a) => {
                let block = self.geom.block_of(a);
                if self.write_pending(node, block) || self.wb.contains(node.idx(), block) {
                    // Re-touching a block whose own writeback is still
                    // unacknowledged would let the stale writeback race a
                    // re-acquired copy (writeback ABA); wait for the ack.
                    self.stall(node, StallKind::Deferred(op), now);
                    return;
                }
                if self.caches.read_hit(node, block) {
                    self.metrics.read_hits += 1;
                    self.nodes[node.idx()].proc = ProcState::BusyUntil(now + costs.cache_access);
                } else {
                    self.metrics.read_misses += 1;
                    self.stall(node, StallKind::Read(block), now);
                    let home = self.geom.home_of(block);
                    let msg = ProtoMsg::ReadReq { block, requester: node };
                    self.send_cc(node, now + costs.cache_access, msg, home, VNet::Req);
                }
            }
            MemOp::Write(a) => {
                let block = self.geom.block_of(a);
                // A read or write to a block with a write already in
                // flight — or with this node's own writeback still
                // unacknowledged (writeback ABA) — waits for it.
                if self.write_pending(node, block) || self.wb.contains(node.idx(), block) {
                    self.stall(node, StallKind::Deferred(op), now);
                    return;
                }
                if self.caches.write_hit(node, block) {
                    self.metrics.write_hits += 1;
                    self.nodes[node.idx()].proc = ProcState::BusyUntil(now + costs.cache_access);
                    return;
                }
                match self.cfg.consistency {
                    ConsistencyModel::Sequential => {
                        self.metrics.write_misses += 1;
                        self.stall(node, StallKind::Write(block), now);
                    }
                    ConsistencyModel::Release { write_buffer } => {
                        if self.pending_writes.len(node.idx()) >= write_buffer {
                            // Buffer full: retry when a write retires
                            // (deferral is not a miss yet).
                            self.stall(node, StallKind::Deferred(op), now);
                            return;
                        }
                        self.metrics.write_misses += 1;
                        self.pending_writes.push(node.idx(), (block, now));
                        self.nodes[node.idx()].proc =
                            ProcState::BusyUntil(now + costs.cache_access);
                    }
                }
                let home = self.geom.home_of(block);
                // Upgrade detection must not count as a processor access:
                // probe (side-effect-free) rather than read_hit, so a
                // Shared copy upgrades and anything else is a write miss.
                let msg = if self.caches.probe(node, block).is_some() {
                    ProtoMsg::UpgradeReq { block, requester: node }
                } else {
                    ProtoMsg::WriteReq { block, requester: node }
                };
                self.send_cc(node, now + costs.cache_access, msg, home, VNet::Req);
            }
            MemOp::Barrier { id, participants } => {
                if self.release_fence_pending(node, op, now) {
                    return;
                }
                self.stall(node, StallKind::Barrier(id), now);
                let home = self.service_home(id);
                let msg = ProtoMsg::BarrierArrive { barrier: id, participants };
                self.send_cc(node, now, msg, home, VNet::Req);
            }
            MemOp::Lock(l) => {
                self.stall(node, StallKind::Lock(l), now);
                let home = self.service_home(l);
                self.send_cc(
                    node,
                    now,
                    ProtoMsg::LockReq { lock: l, requester: node },
                    home,
                    VNet::Req,
                );
            }
            MemOp::Unlock(l) => {
                if self.release_fence_pending(node, op, now) {
                    return;
                }
                let home = self.service_home(l);
                self.send_cc(node, now, ProtoMsg::LockRelease { lock: l }, home, VNet::Req);
                // Release costs the CC but does not stall the processor.
                self.nodes[node.idx()].proc = ProcState::BusyUntil(now + costs.cc_send);
            }
        }
    }

    /// True when `node` has a write to `block` in flight.
    fn write_pending(&self, node: NodeId, block: BlockId) -> bool {
        self.pending_writes.get(node.idx()).iter().any(|&(b, _)| b == block)
    }

    /// Home node of a barrier/lock id.
    fn service_home(&self, id: u16) -> NodeId {
        NodeId(id % self.nodes.len() as u16)
    }

    /// Release-consistency fence: a releasing synchronization operation
    /// waits until the write buffer drains. Returns true when the op was
    /// deferred.
    fn release_fence_pending(&mut self, node: NodeId, op: MemOp, now: Cycle) -> bool {
        if !self.pending_writes.is_empty(node.idx()) {
            self.stall(node, StallKind::Deferred(op), now);
            true
        } else {
            false
        }
    }

    /// A deferred op retries whenever a pending write retires.
    fn retry_deferred(&mut self, now: Cycle, node: NodeId) {
        if let ProcState::Stalled { kind: StallKind::Deferred(op), .. } =
            self.nodes[node.idx()].proc
        {
            self.nodes[node.idx()].proc = ProcState::Idle;
            self.issue_at(node, op, now);
        }
    }

    /// Internal re-issue path used by deferred retries (bypasses the
    /// public `proc_idle` gate which compares against `self.now`).
    fn issue_at(&mut self, node: NodeId, op: MemOp, now: Cycle) {
        let saved = self.now;
        self.now = now;
        self.issue(node, op);
        self.now = saved.max(now);
    }

    // ------------------------------------------------------------------
    // Coherence invariant checking.
    // ------------------------------------------------------------------

    /// Verify the global coherence invariants. Intended to be called when
    /// the system is idle (no transient states in flight):
    ///
    /// * **SWMR** — a block in `Exclusive(o)` is cached Modified at `o`
    ///   and nowhere else; no two caches ever hold it writable.
    /// * **Shared agreement** — a block in `Shared` is held (if at all)
    ///   only in `Shared` state, and only by nodes whose presence bit is
    ///   set (silent clean eviction makes presence a superset).
    /// * **Uncached purity** — an `Uncached` block is in no cache.
    /// * **No residue** — no directory entry is left `Waiting` and no
    ///   invalidation transaction is open.
    /// * **No stray lines** — every cached block has a directory entry.
    ///
    /// Returns a diagnostic for the first violation in (home, block, node)
    /// order. Each directory entry and each cached line is checked once,
    /// so the audit costs O(blocks + lines), not O(blocks * nodes).
    pub fn verify_coherence(&self) -> Result<(), String> {
        if !self.txns.is_empty() {
            return Err(format!("{} invalidation transactions still open", self.txns.len()));
        }
        // Every violation, keyed by (home, block, node); the least is
        // reported.
        let mut found: Vec<((NodeId, BlockId, NodeId), String)> = Vec::new();
        for (block, entry) in self.dir.iter() {
            let home = self.geom.home_of(block);
            match entry.state {
                DirState::Waiting => found.push((
                    (home, block, NodeId(0)),
                    format!("{block} left in Waiting at home {home}"),
                )),
                // The owner may have a writeback in flight only while the
                // system is not idle; at idle it must hold the line
                // Modified.
                DirState::Exclusive(owner) => {
                    let st = self.caches.state(owner, block);
                    if st != Some(LineState::Modified) {
                        found.push((
                            (home, block, owner),
                            format!("{block} exclusive at {owner} but its cache holds {st:?}"),
                        ));
                    }
                }
                DirState::Uncached | DirState::Shared => {}
            }
        }
        for (node, block, st) in self.caches.lines() {
            let home = self.geom.home_of(block);
            let i = node.idx();
            let msg = match self.dir.entry(block).map(|e| (e, e.state)) {
                None => format!("{block} cached {st:?} at n{i} but has no entry at home {home}"),
                Some((_, DirState::Uncached)) => {
                    format!("{block} uncached at home {home} but cached {st:?} at n{i}")
                }
                Some((_, DirState::Shared)) if st == LineState::Modified => {
                    format!("{block} shared at home {home} but Modified at n{i}")
                }
                Some((e, DirState::Shared)) if !e.has_presence(node) => {
                    format!("{block} cached at n{i} without a presence bit")
                }
                Some((_, DirState::Exclusive(owner))) if owner != node => format!(
                    "{block} exclusive at {owner} but also cached {st:?} at n{i} (SWMR violation)"
                ),
                _ => continue,
            };
            found.push(((home, block, node), msg));
        }
        found.into_iter().min_by_key(|(at, _)| *at).map_or(Ok(()), |(_, msg)| Err(msg))
    }

    // ------------------------------------------------------------------
    // Test/bench seams.
    // ------------------------------------------------------------------

    /// Seed `block` as Shared at `sharers` (directory + caches), bypassing
    /// the protocol — used by single-transaction experiments to set up an
    /// invalidation pattern directly.
    ///
    /// Panics if installing the line would evict a Modified line: the
    /// seam bypasses the protocol, so there is no writeback to carry the
    /// dirty data home and the system would silently lose it.
    pub fn seed_shared(&mut self, block: BlockId, sharers: &[NodeId]) {
        let entry = self.dir.entry_mut(block);
        assert_eq!(entry.state, DirState::Uncached, "seed on a fresh block");
        entry.state = DirState::Shared;
        for &s in sharers {
            entry.set_presence(s);
            if let Evicted::Dirty(victim) = self.caches.insert(s, block, LineState::Shared) {
                panic!(
                    "seed_shared: installing block {block} at node {s} would drop Modified \
                     block {victim} without a writeback"
                );
            }
        }
    }

    /// Cache state of `block` at `node` (tests).
    pub fn cache_state(&self, node: NodeId, block: BlockId) -> Option<LineState> {
        self.caches.state(node, block)
    }

    /// Directory state of `block` (tests).
    pub fn dir_state(&self, block: BlockId) -> DirState {
        self.dir.state(block)
    }

    /// Deliver a forged protocol message straight into `node`'s
    /// controller, bypassing the network — used by tests to exercise the
    /// always-on invariant auditing with malformed traffic.
    #[doc(hidden)]
    pub fn debug_deliver(&mut self, node: NodeId, msg: ProtoMsg, acks: u32, src: NodeId) {
        let key = self.msgs.push(msg);
        self.recv(self.now, node, key, acks, src);
    }

    /// Ids of the invalidation transactions currently open (tests).
    #[doc(hidden)]
    pub fn open_txn_ids(&self) -> Vec<TxnId> {
        self.txns.ids.iter().filter(|&&id| id != 0).map(|&id| TxnId(id)).collect()
    }

    // ------------------------------------------------------------------
    // Message plumbing.
    // ------------------------------------------------------------------

    /// Send `msg` from `node`'s cache controller at `start` (occupying it
    /// for the compose cost) to `dest`.
    fn send_cc(
        &mut self,
        node: NodeId,
        start: Cycle,
        msg: ProtoMsg,
        dest: NodeId,
        vnet: VNet,
    ) -> Cycle {
        let t = self.nodes[node.idx()].cc.occupy(start.max(self.now), self.cfg.costs.cc_send);
        self.dispatch_unicast(node, t, msg, dest, vnet);
        t
    }

    /// Send `msg` from `node`'s directory controller at `start`.
    fn send_dc(
        &mut self,
        node: NodeId,
        start: Cycle,
        msg: ProtoMsg,
        dest: NodeId,
        vnet: VNet,
    ) -> Cycle {
        let t = self.nodes[node.idx()].dc.occupy(start.max(self.now), self.cfg.costs.dc_send);
        self.dispatch_unicast(node, t, msg, dest, vnet);
        t
    }

    fn dispatch_unicast(
        &mut self,
        node: NodeId,
        t: Cycle,
        msg: ProtoMsg,
        dest: NodeId,
        vnet: VNet,
    ) {
        let key = self.msgs.push(msg);
        if dest == node {
            // Local shortcut: no network, straight to the co-located
            // controller input.
            self.cal.schedule(t, Ev::Recv { node: dest, key, acks: 0, src: node });
        } else {
            let len = self.cfg.sizes.unicast_len(&msg);
            let u = Unicast { src: node, dest, vnet, len, payload: key, txn: TxnId(0) };
            self.cal.schedule(t, Ev::Send(u));
        }
    }

    /// Build the network worm for a planned worm of transaction `txn`.
    fn build_spec(
        &mut self,
        src: NodeId,
        w: PlannedWorm,
        txn: TxnId,
        block: BlockId,
        home: NodeId,
    ) -> WormSpec {
        let msg = match w.kind {
            WormKind::Gather => {
                let last = *w.dests.last().expect("non-empty");
                if last == home || w.gather_deposit {
                    ProtoMsg::GatherAck { block, txn }
                } else {
                    ProtoMsg::SweepTrigger { block, txn }
                }
            }
            _ if w.relay => ProtoMsg::RelayInval { block, txn, home },
            _ => ProtoMsg::Inval { block, txn, home },
        };
        let key = self.msgs.push(msg);
        let len = match w.kind {
            WormKind::Gather => self.cfg.sizes.gather_len(),
            WormKind::Unicast => self.cfg.sizes.unicast_len(&msg),
            WormKind::Multicast => self.cfg.sizes.multicast_len(&msg, w.delivering()),
        };
        WormSpec {
            src,
            vnet: if w.kind == WormKind::Gather { VNet::Reply } else { VNet::Req },
            kind: w.kind,
            dests: w.dests,
            len_flits: len,
            payload: key,
            reserve_iack: w.reserve_iack,
            txn,
            initial_acks: w.initial_acks,
            gather_deposit: w.gather_deposit,
            deliver: w.deliver,
        }
    }

    /// Route a network delivery into the right controller.
    fn on_delivery(&mut self, d: Delivery) {
        self.recv(self.now, d.node, d.payload, d.acks, d.src);
    }

    /// A message arrived at `node`: occupy the owning controller, then
    /// schedule the protocol handler.
    fn recv(&mut self, now: Cycle, node: NodeId, key: u64, acks: u32, src: NodeId) {
        let msg = self.msgs.get(key);
        let costs = self.cfg.costs;
        let is_dc = Self::is_dc_message(&msg);
        let t = if is_dc {
            self.nodes[node.idx()].dc.occupy(now, costs.dc_proc)
        } else {
            self.nodes[node.idx()].cc.occupy(now, costs.cc_proc)
        };
        self.cal.schedule(t, Ev::Handle { node, key, acks, src });
    }

    /// Directory-controller messages (home-bound protocol traffic). A
    /// gather ack reaching a node that is not its transaction's home is
    /// recorded as a violation by [`DsmSystem::h_acks`].
    fn is_dc_message(msg: &ProtoMsg) -> bool {
        matches!(
            msg,
            ProtoMsg::ReadReq { .. }
                | ProtoMsg::WriteReq { .. }
                | ProtoMsg::UpgradeReq { .. }
                | ProtoMsg::InvAck { .. }
                | ProtoMsg::GatherAck { .. }
                | ProtoMsg::FetchWb { .. }
                | ProtoMsg::Writeback { .. }
                | ProtoMsg::BarrierArrive { .. }
                | ProtoMsg::LockReq { .. }
                | ProtoMsg::LockRelease { .. }
        )
    }

    fn handle_event(&mut self, now: Cycle, ev: Ev) {
        match ev {
            Ev::Recv { node, key, acks, src } => self.recv(now, node, key, acks, src),
            Ev::Handle { node, key, acks, src } => {
                let msg = self.msgs.get(key);
                self.dispatch(now, node, msg, key, acks, src);
            }
            Ev::Send(u) => {
                self.net.inject_unicast(u);
            }
            Ev::Inject(spec) => {
                self.net.inject(*spec);
            }
            Ev::PostIack { node, txn } => {
                if !self.net.post_iack(node, txn) {
                    // Buffer full: retry. The retry always eventually
                    // succeeds — once this post's own gather parks in an
                    // entry, the post resolves into it without needing a
                    // free slot — and falling back to a unicast ack would
                    // strand that gather forever.
                    self.metrics.iack_fallbacks += 1;
                    self.cal.schedule(now + POST_RETRY_DELAY, Ev::PostIack { node, txn });
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Protocol FSM.
    // ------------------------------------------------------------------

    fn dispatch(
        &mut self,
        now: Cycle,
        node: NodeId,
        msg: ProtoMsg,
        key: u64,
        acks: u32,
        src: NodeId,
    ) {
        match msg {
            ProtoMsg::ReadReq { block, requester } => {
                self.h_read_req(now, node, block, requester, key)
            }
            ProtoMsg::WriteReq { block, requester } | ProtoMsg::UpgradeReq { block, requester } => {
                self.h_write_req(now, node, block, requester, key)
            }
            ProtoMsg::ReadReply { block } => self.h_read_reply(now, node, block),
            ProtoMsg::Inval { block, txn, home } => self.h_inval(now, node, block, txn, home),
            ProtoMsg::RelayInval { block, txn, home } => self.h_relay(now, node, block, txn, home),
            ProtoMsg::InvAck { txn, count, .. } => self.h_acks(now, node, txn, count),
            ProtoMsg::GatherAck { txn, .. } => self.h_acks(now, node, txn, acks),
            ProtoMsg::SweepTrigger { block, txn } => {
                self.h_sweep_trigger(now, node, block, txn, acks)
            }
            ProtoMsg::WriteGrant { block, with_data } => {
                self.h_write_grant(now, node, block, with_data)
            }
            ProtoMsg::Fetch { block, requester, for_write } => {
                self.h_fetch(now, node, block, requester, for_write)
            }
            ProtoMsg::OwnerData { block, exclusive } => {
                self.h_owner_data(now, node, block, exclusive)
            }
            ProtoMsg::FetchWb { block, requester, was_write } => {
                self.h_fetch_wb(now, node, block, requester, was_write, src)
            }
            ProtoMsg::Writeback { block, owner } => self.h_writeback(now, node, block, owner, key),
            ProtoMsg::WritebackAck { block } => {
                self.wb.release(node.idx(), block);
                // An access deferred behind this writeback can now retry.
                self.retry_deferred(now, node);
            }
            ProtoMsg::BarrierArrive { barrier, participants } => {
                self.h_barrier_arrive(now, node, barrier, participants, src)
            }
            ProtoMsg::BarrierRelease { barrier } => {
                self.resume_sync(now, node, StallKind::Barrier(barrier))
            }
            ProtoMsg::LockReq { lock, requester } => self.h_lock_req(now, node, lock, requester),
            ProtoMsg::LockGrant { lock } => self.resume_sync(now, node, StallKind::Lock(lock)),
            ProtoMsg::LockRelease { lock } => self.h_lock_release(now, node, lock),
        }
    }

    fn h_read_req(
        &mut self,
        now: Cycle,
        home: NodeId,
        block: BlockId,
        requester: NodeId,
        key: u64,
    ) {
        let costs = self.cfg.costs;
        match self.dir.state(block) {
            DirState::Uncached | DirState::Shared => {
                let t = self.nodes[home.idx()].mem.occupy(now, costs.mem_access);
                let entry = self.dir.entry_mut(block);
                entry.state = DirState::Shared;
                entry.set_presence(requester);
                self.send_dc(home, t, ProtoMsg::ReadReply { block }, requester, VNet::Reply);
            }
            DirState::Exclusive(owner) => {
                let entry = self.dir.entry_mut(block);
                entry.state = DirState::Waiting;
                self.send_dc(
                    home,
                    now,
                    ProtoMsg::Fetch { block, requester, for_write: false },
                    owner,
                    VNet::Req,
                );
            }
            DirState::Waiting => {
                self.dir
                    .entry_mut(block)
                    .queue
                    .push_back(wormdsm_coherence::QueuedReq { node: requester, msg_key: key });
            }
        }
    }

    fn h_write_req(
        &mut self,
        now: Cycle,
        home: NodeId,
        block: BlockId,
        requester: NodeId,
        key: u64,
    ) {
        let costs = self.cfg.costs;
        match self.dir.state(block) {
            DirState::Uncached => {
                let t = self.nodes[home.idx()].mem.occupy(now, costs.mem_access);
                let entry = self.dir.entry_mut(block);
                entry.state = DirState::Exclusive(requester);
                entry.clear_all();
                self.send_dc(
                    home,
                    t,
                    ProtoMsg::WriteGrant { block, with_data: true },
                    requester,
                    VNet::Reply,
                );
            }
            DirState::Shared => self.start_invalidation(now, home, block, requester),
            DirState::Exclusive(owner) => {
                debug_assert_ne!(owner, requester, "owner write-missing its own block");
                let entry = self.dir.entry_mut(block);
                entry.state = DirState::Waiting;
                self.send_dc(
                    home,
                    now,
                    ProtoMsg::Fetch { block, requester, for_write: true },
                    owner,
                    VNet::Req,
                );
            }
            DirState::Waiting => {
                self.dir
                    .entry_mut(block)
                    .queue
                    .push_back(wormdsm_coherence::QueuedReq { node: requester, msg_key: key });
            }
        }
    }

    /// The heart of the reproduction: run the configured scheme over the
    /// sharer set.
    fn start_invalidation(&mut self, now: Cycle, home: NodeId, block: BlockId, writer: NodeId) {
        let costs = self.cfg.costs;
        let with_data = !self.dir.entry_mut(block).has_presence(writer);

        // Invalidate the home's own copy locally (no network message).
        if home != writer && self.dir.entry_mut(block).has_presence(home) {
            self.invalidate_local(home, block);
            self.dir.entry_mut(block).clear_presence(home);
        }

        let remote: Vec<NodeId> = self
            .dir
            .entry_mut(block)
            .sharers_except(writer)
            .into_iter()
            .filter(|&s| s != home)
            .collect();

        if remote.is_empty() {
            // Fast path: nothing remote to invalidate.
            let entry = self.dir.entry_mut(block);
            entry.state = DirState::Exclusive(writer);
            entry.clear_all();
            self.send_dc(home, now, ProtoMsg::WriteGrant { block, with_data }, writer, VNet::Reply);
            return;
        }

        let mesh = self.cfg.mesh.mesh;
        // Adaptive schemes read the committed link-load summary; static
        // schemes ignore it (default `plan_with_load` forwards to `plan`).
        let plan = self.scheme.plan_with_load(&mesh, home, &remote, self.net.link_load());
        debug_assert!(
            crate::plan::validate_plan(&plan, &remote).is_ok(),
            "{:?}",
            crate::plan::validate_plan(&plan, &remote)
        );
        let InvalPlan { request_worms, actions, relays, triggers, needed } = plan;
        let txn_id = self.txns.next_id();
        trace_event!(
            self.net.recorder_mut(),
            TraceClass::Txn,
            now,
            TraceKind::TxnOpen {
                txn: txn_id.0,
                block: block.0,
                home: home.idx() as u32,
                writer: writer.idx() as u32,
                needed,
            }
        );

        self.dir.entry_mut(block).state = DirState::Waiting;

        // Inject request worms, serializing through the DC (the occupancy
        // effect the paper measures).
        let mut t = now;
        let mut home_msgs = 1; // the write request itself
        for w in request_worms {
            let spec = self.build_spec(home, w, txn_id, block, home);
            t = self.nodes[home.idx()].dc.occupy(t, costs.dc_send);
            self.cal.schedule(t, Ev::inject(spec));
            home_msgs += 1;
        }

        let mut gathers = Vec::with_capacity(
            actions.iter().filter(|(_, a)| matches!(a, AckAction::InitGather(_))).count(),
        );
        let mut acks = Vec::with_capacity(actions.len());
        for (node, action) in actions {
            acks.push((
                node,
                match action {
                    AckAction::Unicast => SharerAck::Unicast,
                    AckAction::Post => SharerAck::Post,
                    AckAction::InitGather(w) => {
                        gathers.push(w);
                        SharerAck::Gather(gathers.len() as u32 - 1)
                    }
                },
            ));
        }
        acks.sort_by_key(|&(node, _)| node);
        let inserted = self.txns.insert(TxnState {
            block,
            home,
            writer,
            needed,
            got: 0,
            acks,
            gathers,
            relays,
            triggers,
            with_data,
            started: now,
            home_msgs,
        });
        invariant!(
            return;
            self,
            Some(txn_id),
            inserted.is_some(),
            "transaction slab overflow: {} transactions in flight exceeds the {}-slot id space",
            self.txns.len(),
            TxnSlab::CAPACITY
        );
        debug_assert_eq!(inserted, Some(txn_id));
    }

    /// Invalidate `block` in `node`'s cache, handling the late-fill race:
    /// if the line is absent because a read fill is still in flight, the
    /// fill is *poisoned* — the read's value is still returned (it is
    /// ordered before the write under the directory's serialization), but
    /// the stale line is not installed.
    fn invalidate_local(&mut self, node: NodeId, block: BlockId) {
        if self.caches.invalidate(node, block).is_some() {
            return;
        }
        let fill_in_flight = matches!(
            self.nodes[node.idx()].proc,
            ProcState::Stalled { kind: StallKind::Read(b), .. } if b == block
        );
        if fill_in_flight {
            // Idempotent: a second transaction can invalidate the same
            // outstanding fill (its FetchWb re-set our presence bit at the
            // home before the OwnerData reached us). One outstanding read
            // means any existing poison is for this same block.
            debug_assert!(
                self.nodes[node.idx()].poisoned_fill.is_none_or(|b| b == block),
                "poison for a different block than the outstanding read"
            );
            self.nodes[node.idx()].poisoned_fill = Some(block);
            self.metrics.poisoned_fills += 1;
        } else {
            self.metrics.spurious_invals += 1;
        }
    }

    fn h_inval(&mut self, now: Cycle, node: NodeId, block: BlockId, txn: TxnId, home: NodeId) {
        let costs = self.cfg.costs;
        self.invalidate_local(node, block);
        let Some(action) = self.txns.get(txn).and_then(|t| t.ack_for(node)) else {
            self.invariant_failed(
                Some(txn),
                format!("invalidation of {block} delivered to {node} with no planned action"),
            );
            return;
        };
        self.perform_ack_action(now + costs.cache_access, node, block, txn, home, action);
    }

    fn perform_ack_action(
        &mut self,
        start: Cycle,
        node: NodeId,
        block: BlockId,
        txn: TxnId,
        home: NodeId,
        action: SharerAck,
    ) {
        let costs = self.cfg.costs;
        match action {
            SharerAck::Unicast => {
                self.send_cc(
                    node,
                    start,
                    ProtoMsg::InvAck { block, txn, count: 1 },
                    home,
                    VNet::Reply,
                );
            }
            SharerAck::Post => {
                let t = self.nodes[node.idx()].cc.occupy(start, costs.iack_post);
                self.cal.schedule(t, Ev::PostIack { node, txn });
            }
            SharerAck::Gather(i) => {
                let live = self.txns.get(txn).expect("the action came from this live transaction");
                let w = live.gathers[i as usize].clone();
                let spec = self.build_spec(node, w, txn, block, home);
                let t = self.nodes[node.idx()].cc.occupy(start, costs.cc_send);
                self.cal.schedule(t, Ev::inject(spec));
            }
        }
    }

    fn h_relay(&mut self, now: Cycle, node: NodeId, block: BlockId, txn: TxnId, home: NodeId) {
        let costs = self.cfg.costs;
        let (worms, action) = {
            let Some(t) = self.txns.get(txn) else {
                self.invariant_failed(Some(txn), format!("relay at {node} for a dead transaction"));
                return;
            };
            let worms: Vec<PlannedWorm> = t
                .relays
                .iter()
                .find(|(n, _)| *n == node)
                .map(|(_, ws)| ws.clone())
                .unwrap_or_default();
            (worms, t.ack_for(node))
        };
        let mut t = now;
        for w in worms {
            let spec = self.build_spec(node, w, txn, block, home);
            t = self.nodes[node.idx()].cc.occupy(t, costs.cc_send);
            self.cal.schedule(t, Ev::inject(spec));
        }
        // A delegate that is itself a sharer invalidates and acks too.
        if let Some(action) = action {
            self.invalidate_local(node, block);
            self.perform_ack_action(t + costs.cache_access, node, block, txn, home, action);
        }
    }

    fn h_sweep_trigger(&mut self, now: Cycle, node: NodeId, block: BlockId, txn: TxnId, acks: u32) {
        let costs = self.cfg.costs;
        let Some((mut sweep, home)) = self.txns.get(txn).and_then(|t| {
            let (_, sweep) = t.triggers.iter().find(|(n, _)| *n == node)?;
            Some((sweep.clone(), t.home))
        }) else {
            self.invariant_failed(
                Some(txn),
                format!("sweep trigger at {node} with no planned sweep gather"),
            );
            return;
        };
        sweep.initial_acks += acks;
        let spec = self.build_spec(node, sweep, txn, block, home);
        let t = self.nodes[node.idx()].cc.occupy(now, costs.cc_send);
        self.cal.schedule(t, Ev::inject(spec));
    }

    /// Acks arrived at the home (unicast count or gathered count).
    fn h_acks(&mut self, now: Cycle, home: NodeId, txn: TxnId, count: u32) {
        match self.txns.get(txn).map(|t| t.home) {
            None => {
                self.invariant_failed(
                    Some(txn),
                    format!("{count} ack(s) arrived at {home} for a dead transaction"),
                );
                return;
            }
            Some(h) if h != home => {
                self.invariant_failed(
                    Some(txn),
                    format!("ack(s) arrived at {home} for a transaction homed at {h}"),
                );
                return;
            }
            Some(_) => {}
        }
        let t = self.txns.get_mut(txn).expect("liveness checked above");
        t.got += count;
        t.home_msgs += 1;
        let (got, needed) = (t.got, t.needed);
        trace_event!(
            self.net.recorder_mut(),
            TraceClass::Txn,
            now,
            TraceKind::TxnAck { txn: txn.0, count, got, needed }
        );
        if got >= needed {
            self.complete_invalidation(now, txn);
        }
    }

    fn complete_invalidation(&mut self, now: Cycle, txn: TxnId) {
        let Some(t) = self.txns.remove(txn) else {
            self.invariant_failed(Some(txn), "completing a dead transaction".to_string());
            return;
        };
        invariant!(
            self,
            Some(txn),
            t.got == t.needed,
            "over-collected acks: got {} of {} needed",
            t.got,
            t.needed
        );
        trace_event!(
            self.net.recorder_mut(),
            TraceClass::Txn,
            now,
            TraceKind::TxnClose { txn: txn.0, latency: now - t.started, set_size: t.needed }
        );
        self.metrics.inval_txns += 1;
        self.metrics.inval_latency.record((now - t.started) as f64);
        self.metrics.inval_set_size.record(t.needed as u64);
        // +1: the grant the home is about to send.
        self.metrics.inval_home_msgs.record((t.home_msgs + 1) as f64);

        let entry = self.dir.entry_mut(t.block);
        entry.state = DirState::Exclusive(t.writer);
        entry.clear_all();
        let queued: Vec<wormdsm_coherence::QueuedReq> = entry.queue.drain(..).collect();
        self.send_dc(
            t.home,
            now,
            ProtoMsg::WriteGrant { block: t.block, with_data: t.with_data },
            t.writer,
            VNet::Reply,
        );
        // Replay queued requests against the settled directory state.
        for q in queued {
            self.recv(now, t.home, q.msg_key, 0, q.node);
        }
    }

    fn h_read_reply(&mut self, now: Cycle, node: NodeId, block: BlockId) {
        if self.take_poison(node, block) {
            // Serve the read without installing the invalidated line.
            self.resume_mem(now, node, StallKind::Read(block));
            return;
        }
        self.install_line(now, node, block, LineState::Shared);
        self.resume_mem(now, node, StallKind::Read(block));
    }

    /// Consume a pending fill poison for `block`, if set.
    fn take_poison(&mut self, node: NodeId, block: BlockId) -> bool {
        if self.nodes[node.idx()].poisoned_fill == Some(block) {
            self.nodes[node.idx()].poisoned_fill = None;
            true
        } else {
            false
        }
    }

    fn h_write_grant(&mut self, now: Cycle, node: NodeId, block: BlockId, with_data: bool) {
        if with_data {
            self.install_line(now, node, block, LineState::Modified);
        } else if !self.caches.upgrade(node, block) {
            // The copy vanished between the upgrade request and the grant
            // (conflict eviction is impossible while stalled, so this is a
            // protocol bug if it fires).
            self.install_line(now, node, block, LineState::Modified);
        }
        self.complete_write(now, node, block);
    }

    /// A write's permission arrived: resume a stalled SC writer or retire
    /// the RC write-buffer entry.
    fn complete_write(&mut self, now: Cycle, node: NodeId, block: BlockId) {
        if let ProcState::Stalled { kind: StallKind::Write(b), .. } = self.nodes[node.idx()].proc {
            invariant!(
                return; self, None, b == block,
                "{node} write completion for {block} but the processor is stalled on {b}"
            );
            self.resume_mem(now, node, StallKind::Write(block));
            return;
        }
        let Some(i) = self.pending_writes.get(node.idx()).iter().position(|&(b, _)| b == block)
        else {
            self.invariant_failed(
                None,
                format!("{node} write completion for {block} matches no pending write"),
            );
            return;
        };
        let (_, issued) = self.pending_writes.swap_remove(node.idx(), i);
        self.metrics.write_latency.record((now - issued) as f64);
        self.retry_deferred(now, node);
    }

    fn h_fetch(
        &mut self,
        now: Cycle,
        owner: NodeId,
        block: BlockId,
        requester: NodeId,
        for_write: bool,
    ) {
        let costs = self.cfg.costs;
        let in_cache = self.caches.state(owner, block) == Some(LineState::Modified);
        let in_wb = self.wb.contains(owner.idx(), block);
        if !in_cache && !in_wb {
            // Window of vulnerability [23]: the fetch (short, request net)
            // overtook this node's own data-carrying grant (long, reply
            // net). Defer and retry once the grant lands.
            self.metrics.fetch_retries += 1;
            let key = self.msgs.push(ProtoMsg::Fetch { block, requester, for_write });
            self.cal.schedule(
                now + FETCH_RETRY_DELAY,
                Ev::Recv { node: owner, key, acks: 0, src: owner },
            );
            return;
        }
        if in_cache {
            if for_write {
                self.caches.invalidate(owner, block);
            } else {
                self.caches.downgrade(owner, block);
            }
        }
        let t = self.send_cc(
            owner,
            now + costs.cache_access,
            ProtoMsg::OwnerData { block, exclusive: for_write },
            requester,
            VNet::Reply,
        );
        self.send_cc(
            owner,
            t,
            ProtoMsg::FetchWb { block, requester, was_write: for_write },
            self.geom.home_of(block),
            VNet::Reply,
        );
    }

    fn h_owner_data(&mut self, now: Cycle, node: NodeId, block: BlockId, exclusive: bool) {
        if exclusive {
            self.install_line(now, node, block, LineState::Modified);
            self.complete_write(now, node, block);
        } else {
            if self.take_poison(node, block) {
                self.resume_mem(now, node, StallKind::Read(block));
                return;
            }
            self.install_line(now, node, block, LineState::Shared);
            self.resume_mem(now, node, StallKind::Read(block));
        }
    }

    fn h_fetch_wb(
        &mut self,
        now: Cycle,
        home: NodeId,
        block: BlockId,
        requester: NodeId,
        was_write: bool,
        old_owner: NodeId,
    ) {
        let costs = self.cfg.costs;
        let _t = self.nodes[home.idx()].mem.occupy(now, costs.mem_access);
        let entry = self.dir.entry_mut(block);
        entry.clear_all();
        if was_write {
            entry.state = DirState::Exclusive(requester);
        } else {
            entry.state = DirState::Shared;
            entry.set_presence(old_owner);
            entry.set_presence(requester);
        }
        let queued: Vec<wormdsm_coherence::QueuedReq> = entry.queue.drain(..).collect();
        for q in queued {
            self.recv(now, home, q.msg_key, 0, q.node);
        }
    }

    fn h_writeback(&mut self, now: Cycle, home: NodeId, block: BlockId, owner: NodeId, key: u64) {
        let costs = self.cfg.costs;
        match self.dir.state(block) {
            DirState::Exclusive(o) if o == owner => {
                let t = self.nodes[home.idx()].mem.occupy(now, costs.mem_access);
                let entry = self.dir.entry_mut(block);
                entry.state = DirState::Uncached;
                entry.clear_all();
                self.send_dc(home, t, ProtoMsg::WritebackAck { block }, owner, VNet::Reply);
            }
            DirState::Waiting => {
                // The writeback raced with a fetch the home already sent.
                // Acknowledging now would let the owner free its writeback
                // buffer before the fetch reaches it, losing the data.
                // Defer until the fetch transaction settles the entry.
                self.metrics.wb_retries += 1;
                self.cal.schedule(
                    now + WRITEBACK_RETRY_DELAY,
                    Ev::Recv { node: home, key, acks: 0, src: owner },
                );
            }
            _ => {
                // Stale writeback: a fetch already transferred ownership;
                // the data was supplied by the FetchWb.
                self.send_dc(home, now, ProtoMsg::WritebackAck { block }, owner, VNet::Reply);
            }
        }
    }

    fn h_barrier_arrive(
        &mut self,
        now: Cycle,
        home: NodeId,
        barrier: u16,
        participants: u32,
        src: NodeId,
    ) {
        let idx = barrier as usize;
        if self.barriers.len() <= idx {
            self.barriers.resize_with(idx + 1, || None);
        }
        let st = self.barriers[idx]
            .get_or_insert_with(|| BarrierState { expected: participants, arrived: Vec::new() });
        st.arrived.push(src);
        if (st.arrived.len() as u32) < st.expected {
            return;
        }
        let arrived = self.barriers[idx].take().expect("barrier state present").arrived;
        self.metrics.barriers += 1;
        if self.cfg.multicast_barriers {
            self.release_barrier_multicast(now, home, barrier, arrived);
        } else {
            self.release_barrier_unicast(now, home, barrier, arrived);
        }
    }

    /// Per-participant unicast releases (the baseline used by the paper's
    /// systems).
    fn release_barrier_unicast(
        &mut self,
        now: Cycle,
        home: NodeId,
        barrier: u16,
        arrived: Vec<NodeId>,
    ) {
        let mut t = now;
        for n in arrived {
            t = self.nodes[home.idx()].dc.occupy(t, self.cfg.costs.dc_send);
            let key = self.msgs.push(ProtoMsg::BarrierRelease { barrier });
            if n == home {
                self.cal.schedule(t, Ev::Recv { node: n, key, acks: 0, src: home });
            } else {
                let len = self.cfg.sizes.control;
                let u = Unicast {
                    src: home,
                    dest: n,
                    vnet: VNet::Reply,
                    len,
                    payload: key,
                    txn: TxnId(0),
                };
                self.cal.schedule(t, Ev::Send(u));
            }
        }
    }

    /// Release with multidestination worms on the reply network: one worm
    /// per YX row group, so the barrier home sends O(rows) messages
    /// instead of O(participants) — the collective-communication variant
    /// from the group's barrier work.
    fn release_barrier_multicast(
        &mut self,
        now: Cycle,
        home: NodeId,
        barrier: u16,
        arrived: Vec<NodeId>,
    ) {
        let mesh = self.cfg.mesh.mesh;
        let remote: Vec<NodeId> = arrived.iter().copied().filter(|&n| n != home).collect();
        let mut t = now;
        if arrived.len() > remote.len() {
            // The home itself participates: local release.
            let key = self.msgs.push(ProtoMsg::BarrierRelease { barrier });
            t = self.nodes[home.idx()].dc.occupy(t, self.cfg.costs.dc_send);
            self.cal.schedule(t, Ev::Recv { node: home, key, acks: 0, src: home });
        }
        for g in crate::schemes::grouping::row_groups(&mesh, home, &remote) {
            let key = self.msgs.push(ProtoMsg::BarrierRelease { barrier });
            let msg = ProtoMsg::BarrierRelease { barrier };
            let len = self.cfg.sizes.multicast_len(&msg, g.members.len());
            t = self.nodes[home.idx()].dc.occupy(t, self.cfg.costs.dc_send);
            let spec = WormSpec {
                src: home,
                vnet: VNet::Reply,
                kind: if g.members.len() == 1 { WormKind::Unicast } else { WormKind::Multicast },
                dests: g.members,
                len_flits: len,
                payload: key,
                reserve_iack: false,
                txn: TxnId(0),
                initial_acks: 0,
                gather_deposit: false,
                deliver: None,
            };
            self.cal.schedule(t, Ev::inject(spec));
        }
    }

    fn h_lock_req(&mut self, now: Cycle, home: NodeId, lock: u16, requester: NodeId) {
        let idx = lock as usize;
        if self.locks.len() <= idx {
            self.locks.resize_with(idx + 1, || None);
        }
        let st = self.locks[idx].get_or_insert_with(LockState::default);
        if st.holder.is_none() {
            st.holder = Some(requester);
            self.send_dc(home, now, ProtoMsg::LockGrant { lock }, requester, VNet::Reply);
        } else {
            st.queue.push_back(requester);
        }
    }

    fn h_lock_release(&mut self, now: Cycle, home: NodeId, lock: u16) {
        let Some(st) = self.locks.get_mut(lock as usize).and_then(|s| s.as_mut()) else {
            self.invariant_failed(None, format!("release of unknown lock {lock} at {home}"));
            return;
        };
        st.holder = None;
        if let Some(next) = st.queue.pop_front() {
            st.holder = Some(next);
            self.send_dc(home, now, ProtoMsg::LockGrant { lock }, next, VNet::Reply);
        }
    }

    // ------------------------------------------------------------------
    // Cache install / processor resume helpers.
    // ------------------------------------------------------------------

    /// Install a line, sending a writeback when a dirty victim falls out.
    fn install_line(&mut self, now: Cycle, node: NodeId, block: BlockId, state: LineState) {
        match self.caches.insert(node, block, state) {
            Evicted::None | Evicted::Clean(_) => {}
            Evicted::Dirty(victim) => {
                self.metrics.writebacks += 1;
                self.wb.insert(node.idx(), victim);
                let home = self.geom.home_of(victim);
                self.send_cc(
                    node,
                    now,
                    ProtoMsg::Writeback { block: victim, owner: node },
                    home,
                    VNet::Req,
                );
            }
        }
    }

    /// Put `node`'s processor into a stall, recording the trace event.
    fn stall(&mut self, node: NodeId, kind: StallKind, since: Cycle) {
        self.nodes[node.idx()].proc = ProcState::Stalled { kind, since };
        trace_event!(
            self.net.recorder_mut(),
            TraceClass::Txn,
            since,
            TraceKind::StallEnter { node: node.idx() as u32, what: kind.label() }
        );
    }

    /// Resume a processor stalled on a memory operation.
    fn resume_mem(&mut self, now: Cycle, node: NodeId, expect: StallKind) {
        let ProcState::Stalled { kind, since } = self.nodes[node.idx()].proc else {
            self.invariant_failed(None, format!("{node} got a completion while not stalled"));
            return;
        };
        invariant!(
            return; self, None, kind == expect,
            "{node} completion for {expect:?} does not match its stall {kind:?}"
        );
        let stall = now - since;
        self.metrics.stall_cycles += stall;
        match kind {
            StallKind::Read(_) => self.metrics.read_latency.record(stall as f64),
            StallKind::Write(_) => self.metrics.write_latency.record(stall as f64),
            _ => {}
        }
        trace_event!(
            self.net.recorder_mut(),
            TraceClass::Txn,
            now,
            TraceKind::StallExit { node: node.idx() as u32, what: kind.label(), stalled: stall }
        );
        self.nodes[node.idx()].proc = ProcState::BusyUntil(now + self.cfg.costs.cache_access);
    }

    /// Resume a processor stalled on a synchronization operation.
    fn resume_sync(&mut self, now: Cycle, node: NodeId, expect: StallKind) {
        let ProcState::Stalled { kind, since } = self.nodes[node.idx()].proc else {
            self.invariant_failed(None, format!("{node} got a sync completion while not stalled"));
            return;
        };
        invariant!(
            return; self, None, kind == expect,
            "{node} sync completion for {expect:?} does not match its stall {kind:?}"
        );
        let stall = now - since;
        self.metrics.sync_stall_cycles += stall;
        trace_event!(
            self.net.recorder_mut(),
            TraceClass::Txn,
            now,
            TraceKind::StallExit { node: node.idx() as u32, what: kind.label(), stalled: stall }
        );
        self.nodes[node.idx()].proc = ProcState::Idle;
    }
}

snap_enum!(MemOp {
    0 => Compute(cycles),
    1 => Read(addr),
    2 => Write(addr),
    3 => Barrier { id, participants },
    4 => Lock(lock),
    5 => Unlock(lock),
});
snap_enum!(StallKind {
    0 => Read(block),
    1 => Write(block),
    2 => Barrier(id),
    3 => Lock(id),
    4 => Deferred(op),
});
snap_enum!(ProcState { 0 => Idle, 1 => BusyUntil(until), 2 => Stalled { kind, since } });
snap_struct!(TxnState {
    block,
    home,
    writer,
    needed,
    got,
    acks,
    gathers,
    relays,
    triggers,
    with_data,
    started,
    home_msgs,
});
snap_enum!(SharerAck { 0 => Unicast, 1 => Post, 2 => Gather(index) });
snap_struct!(BarrierState { expected, arrived });
snap_struct!(LockState { holder, queue });
/// A compact unicast saves as the spec it builds, so both forms of an
/// injection share tag 2, and a loaded plain unicast comes back compact.
impl Snap for Ev {
    fn save(&self, w: &mut SnapWriter) {
        match self {
            Ev::Recv { node, key, acks, src } | Ev::Handle { node, key, acks, src } => {
                w.put_u8(u8::from(matches!(self, Ev::Handle { .. })));
                node.save(w);
                key.save(w);
                acks.save(w);
                src.save(w);
            }
            Ev::Send(u) => {
                w.put_u8(2);
                u.spec().save(w);
            }
            Ev::Inject(spec) => {
                w.put_u8(2);
                spec.save(w);
            }
            Ev::PostIack { node, txn } => {
                w.put_u8(3);
                node.save(w);
                txn.save(w);
            }
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.get_u8()? {
            t @ (0 | 1) => {
                let (node, key, acks, src) =
                    (Snap::load(r)?, Snap::load(r)?, Snap::load(r)?, Snap::load(r)?);
                Ok(if t == 0 {
                    Ev::Recv { node, key, acks, src }
                } else {
                    Ev::Handle { node, key, acks, src }
                })
            }
            2 => Ok(Ev::inject(Snap::load(r)?)),
            3 => Ok(Ev::PostIack { node: Snap::load(r)?, txn: Snap::load(r)? }),
            t => Err(SnapError::Corrupt(format!("Ev tag {t}"))),
        }
    }
}

impl Snap for TxnSlab {
    fn save(&self, w: &mut SnapWriter) {
        self.slots.save(w);
        self.ids.save(w);
        self.free.save(w);
        w.put_u64(self.seq);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let slots: Vec<Option<TxnState>> = Snap::load(r)?;
        let ids: Vec<u64> = Snap::load(r)?;
        let free: Vec<u32> = Snap::load(r)?;
        let seq = r.get_u64()?;
        if ids.len() != slots.len() {
            return Err(SnapError::Corrupt(format!(
                "txn slab: {} ids for {} slots",
                ids.len(),
                slots.len()
            )));
        }
        for (slot, (s, &id)) in slots.iter().zip(&ids).enumerate() {
            if s.is_some() != (id != 0) {
                return Err(SnapError::Corrupt(format!(
                    "txn slab: slot {slot} occupancy disagrees with its id"
                )));
            }
            if id != 0 && (id & ((1 << TXN_SLOT_BITS) - 1)) as usize != slot {
                return Err(SnapError::Corrupt(format!(
                    "txn slab: id {id:#x} stored in slot {slot}"
                )));
            }
        }
        for (slot, t) in slots.iter().enumerate() {
            if let Some(e) = t.as_ref().and_then(|t| t.check().err()) {
                return Err(SnapError::Corrupt(format!("txn slab: slot {slot}: {e}")));
            }
        }
        let mut vacant_seen = vec![false; slots.len()];
        for &f in &free {
            let f = f as usize;
            if f >= slots.len()
                || slots[f].is_some()
                || std::mem::replace(&mut vacant_seen[f], true)
            {
                return Err(SnapError::Corrupt(format!("txn slab: bad free-list entry {f}")));
            }
        }
        let live = slots.iter().filter(|s| s.is_some()).count();
        if free.len() + live != slots.len() {
            return Err(SnapError::Corrupt(format!(
                "txn slab: {} free + {live} live != {} slots",
                free.len(),
                slots.len()
            )));
        }
        Ok(Self { slots, ids, free, seq, live })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schemes::SchemeKind;

    fn system() -> DsmSystem {
        DsmSystem::new(SystemConfig::for_scheme(4, SchemeKind::UiUa), SchemeKind::UiUa.build())
    }

    fn restored(sys: &DsmSystem) -> Result<DsmSystem, SimError> {
        let cfg = SystemConfig::for_scheme(4, SchemeKind::UiUa);
        DsmSystem::restore_snapshot(cfg, SchemeKind::UiUa.build(), &sys.save_snapshot())
    }

    /// The heap account of a fresh k=64 system, component by component,
    /// and the sizes of a calendar event, a node record and a worm's hot
    /// and cold records. Growing
    /// per-node state or a calendar entry fails here, exactly, instead of
    /// moving a host's peak RSS by less than its noise.
    #[test]
    fn a_fresh_k64_heap_account_is_pinned() {
        use std::mem::size_of;
        assert_eq!(size_of::<Ev>(), 24);
        assert_eq!(size_of::<NodeCtx>(), 88);
        assert_eq!(size_of::<wormdsm_mesh::worm::WormHot>(), 12);
        assert_eq!(size_of::<wormdsm_mesh::worm::Worm>(), 56);
        let cfg = SystemConfig::for_scheme(64, SchemeKind::UiUa);
        let h = DsmSystem::new(cfg, SchemeKind::UiUa.build()).heap_bytes();
        let want = HeapAccount {
            routers: 2_457_680,
            nics: 312_320,
            network: 198_144,
            nodes: 361_472,
            ..HeapAccount::default()
        };
        assert_eq!(h, want);
        assert_eq!(h.total() / 4096, 812, "bytes a node");
    }

    /// A seeded batch of 16 writes, each to a block with 12 sharers, run
    /// to idle on a k=8 mesh under `scheme`.
    fn k8_batch(scheme: SchemeKind) -> DsmSystem {
        let mut sys = DsmSystem::new(SystemConfig::for_scheme(8, scheme), scheme.build());
        let mut rng = wormdsm_sim::Rng::new(0xB47C_0008);
        for w in 0..16u16 {
            let (writer, block) = (NodeId(w * 4), BlockId(64 * u64::from(w) + rng.below(64)));
            let home = sys.geom.home_of(block);
            let mut sharers = Vec::new();
            while sharers.len() < 12 {
                let n = NodeId(rng.below(64) as u16);
                if n != writer && n != home && !sharers.contains(&n) {
                    sharers.push(n);
                }
            }
            sys.seed_shared(block, &sharers);
            sys.issue(writer, MemOp::Write(sys.geom.base_of(block)));
        }
        sys.run_until_idle(1_000_000).expect("the batch completes");
        assert_eq!(sys.metrics().inval_txns, 16);
        sys
    }

    /// Under UI-UA a home sends one unicast invalidation to each of a
    /// block's 12 sharers, all carrying one message: the table stores it
    /// once per transaction, not once per worm. The batch stores fewer
    /// messages than the first collection threshold, so the table still
    /// holds every one of them.
    #[test]
    fn a_k8_uiua_batch_stores_one_inval_per_transaction() {
        let sys = k8_batch(SchemeKind::UiUa);
        let table = sys.message_table();
        let invals = table.iter().filter(|m| matches!(m, ProtoMsg::Inval { .. })).count();
        assert_eq!(invals, 16);
        let req_worms = sys.net_stats().worms_injected[VNet::Req.index()];
        assert!(req_worms >= 16 * 12, "{req_worms} request worms");
        assert_eq!(table.len(), table.slots(), "no collection vacated a slot");
    }

    /// The heap account after [`k8_batch`]: under UI-UA every worm
    /// is a plain unicast and the worm table holds no route, under
    /// MI-MA(col) the multicasts and gathers keep theirs. Pinned exactly,
    /// like the fresh account above.
    #[test]
    fn a_k8_batch_heap_account_is_pinned() {
        let account = |scheme| k8_batch(scheme).heap_bytes();
        // UI-UA's worm table: 256 slots of a hot record, a cold record
        // and a free-list entry, and no route.
        let uiua = HeapAccount {
            routers: 38_480,
            nics: 5_200,
            worms: 256 * (12 + 56 + 4),
            network: 3_096,
            calendar: 5_120,
            messages: 8_192,
            caches: 8_192,
            directory: 1_408,
            nodes: 5_648,
            protocol: 2_368,
        };
        assert_eq!(account(SchemeKind::UiUa), uiua);
        let col = HeapAccount { nics: 6_352, worms: 14_982, ..uiua };
        assert_eq!(account(SchemeKind::MiMaCol), col);
    }

    /// Scheduled worms: a plain unicast waits in the calendar compact and
    /// a multidestination worm boxed, each saves as its spec, and both
    /// come back in the same form.
    #[test]
    fn scheduled_unicasts_are_compact_and_save_as_their_spec() {
        let mut sys = system();
        let k = sys.msgs.push(ProtoMsg::ReadReply { block: BlockId(1) });
        let uni =
            WormSpec { txn: TxnId(7), ..WormSpec::unicast(NodeId(0), NodeId(5), VNet::Req, 3, k) };
        let multi = WormSpec {
            kind: WormKind::Multicast,
            dests: vec![NodeId(1), NodeId(2)],
            ..WormSpec::unicast(NodeId(0), NodeId(2), VNet::Req, 3, k)
        };
        let same = |a: &WormSpec, b: &WormSpec| format!("{a:?}") == format!("{b:?}");
        assert!(matches!(Ev::inject(uni.clone()), Ev::Send(u) if same(&u.spec(), &uni)));
        assert!(matches!(Ev::inject(multi.clone()), Ev::Inject(ref b) if same(b, &multi)));
        sys.cal.schedule(3, Ev::inject(uni));
        sys.cal.schedule(3, Ev::inject(multi));
        let back = restored(&sys).expect("restores");
        let forms: Vec<_> = back.cal.events().map(|e| matches!(e, Ev::Send(_))).collect();
        assert_eq!(forms.iter().filter(|&&send| send).count(), 1, "{forms:?}");
        assert_eq!(back.save_snapshot(), sys.save_snapshot());
    }

    /// A message key past the table, held by a worm, a delivery, a
    /// calendar event or a queued directory request, is refused at restore
    /// instead of panicking in `MsgTable::get` once stepped.
    #[test]
    fn restore_refuses_a_message_key_past_the_table() {
        let key = |sys: &mut DsmSystem| sys.msgs.push(ProtoMsg::ReadReply { block: BlockId(1) });
        let mut ok = system();
        let k = key(&mut ok);
        ok.net.inject(WormSpec::unicast(NodeId(0), NodeId(5), VNet::Reply, 2, k));
        ok.cal.schedule(9, Ev::Recv { node: NodeId(1), key: k, acks: 0, src: NodeId(2) });
        restored(&ok).expect("keys inside the table restore");

        let corrupt: [fn(&mut DsmSystem, u64); 4] = [
            |sys, k| {
                sys.net.inject(WormSpec::unicast(NodeId(0), NodeId(5), VNet::Reply, 2, k));
            },
            |sys, k| {
                sys.cal.schedule(9, Ev::Handle { node: NodeId(1), key: k, acks: 0, src: NodeId(2) })
            },
            |sys, k| {
                let spec = WormSpec::unicast(NodeId(3), NodeId(4), VNet::Req, 2, k);
                sys.cal.schedule(9, Ev::inject(spec));
            },
            |sys, k| {
                let e = sys.dir.entry_mut(BlockId(0));
                e.queue.push_back(wormdsm_coherence::QueuedReq { node: NodeId(1), msg_key: k });
            },
        ];
        for (i, corrupt) in corrupt.into_iter().enumerate() {
            let mut sys = system();
            let k = key(&mut sys);
            corrupt(&mut sys, k + 1);
            let Err(SimError::Snapshot(e)) = restored(&sys) else {
                panic!("case {i}: a key past the table restored");
            };
            assert!(e.contains("slot 1 past a table of 1 slots"), "case {i}: {e}");
        }
    }

    /// A clock or counter that stepping could overflow is refused at
    /// restore: a stall or pending write that starts after `now`, a
    /// controller busy past the last cycle a run reaches, a counter past
    /// what `now` allows, and a system clock out of step with the
    /// network's.
    #[test]
    fn restore_refuses_clocks_and_counters_that_could_overflow() {
        let mut ok = system();
        ok.run_cycles(10);
        ok.nodes[1].proc = ProcState::Stalled { kind: StallKind::Read(BlockId(1)), since: 10 };
        ok.nodes[2].dc.occupy(10, 1_000);
        ok.metrics.read_hits = counter_limit(10, 16);
        restored(&ok).expect("clocks at now and counters at the limit restore");

        type Corrupt = fn(&mut DsmSystem);
        let corrupt: [(Corrupt, &str); 5] = [
            (
                |sys| {
                    let kind = StallKind::Write(BlockId(1));
                    sys.nodes[1].proc = ProcState::Stalled { kind, since: 11 };
                },
                "node 1 stalled since cycle 11, after 10",
            ),
            (|sys| sys.pending_writes.push(3, (BlockId(1), 11)), "node 3 issued a write"),
            (
                |sys| {
                    sys.nodes[2].mem.occupy(MAX_CLOCK, 1);
                },
                "node 2 mem",
            ),
            (|sys| sys.metrics.stall_cycles = counter_limit(10, 16) + 1, "protocol counter"),
            (|sys| sys.now += 1, "out of step"),
        ];
        for (i, (corrupt, want)) in corrupt.into_iter().enumerate() {
            let mut sys = system();
            sys.run_cycles(10);
            corrupt(&mut sys);
            let Err(SimError::Snapshot(e)) = restored(&sys) else {
                panic!("case {i}: an overflowing state restored");
            };
            assert!(e.contains(want), "case {i}: {e}");
        }
    }

    /// A live transaction whose ack table lists a sharer twice or out of
    /// order, or names a gather past its gather table, is refused at
    /// restore: the lookup would miss a sharer or the gather index would
    /// panic once the invalidation arrived.
    #[test]
    fn restore_refuses_a_broken_transaction_ack_table() {
        let txn = |acks: Vec<(NodeId, SharerAck)>| TxnState {
            block: BlockId(0),
            home: NodeId(0),
            writer: NodeId(1),
            needed: 2,
            got: 0,
            acks,
            gathers: vec![PlannedWorm::gather(vec![NodeId(3), NodeId(0)], 1, false)],
            relays: Vec::new(),
            triggers: Vec::new(),
            with_data: false,
            started: 0,
            home_msgs: 1,
        };
        let mut ok = system();
        ok.txns.insert(txn(vec![(NodeId(2), SharerAck::Post), (NodeId(3), SharerAck::Gather(0))]));
        let back = restored(&ok).expect("a well-formed ack table restores");
        let id = back.open_txn_ids()[0];
        assert_eq!(
            back.txns.get(id).and_then(|t| t.ack_for(NodeId(3))),
            Some(SharerAck::Gather(0))
        );

        let cases = [
            (
                vec![(NodeId(2), SharerAck::Post), (NodeId(2), SharerAck::Unicast)],
                "n2 listed twice",
            ),
            (vec![(NodeId(3), SharerAck::Post), (NodeId(2), SharerAck::Unicast)], "out of order"),
            (
                vec![(NodeId(2), SharerAck::Post), (NodeId(3), SharerAck::Gather(1))],
                "sharer n3's action Gather(1) names a gather past a table of 1",
            ),
        ];
        for (i, (acks, want)) in cases.into_iter().enumerate() {
            let mut sys = system();
            sys.txns.insert(txn(acks));
            let Err(SimError::Snapshot(e)) = restored(&sys) else {
                panic!("case {i}: a broken ack table restored");
            };
            assert!(e.contains(want), "case {i}: {e}");
        }
    }

    /// Each configuration field moves the fingerprint, every edit to a
    /// different value, and a snapshot restored under a configuration
    /// that differs in that one field is refused.
    #[test]
    fn config_fingerprint_covers_every_field() {
        use wormdsm_mesh::topology::Mesh2D;
        type Edit = fn(&mut SystemConfig);
        let edits: [(&str, Edit); 29] = [
            ("mesh width", |c| c.mesh.mesh = Mesh2D::new(5, 4)),
            ("mesh height", |c| c.mesh.mesh = Mesh2D::new(4, 5)),
            ("routing", |c| c.mesh.routing = BaseRouting::TurnModel),
            ("vcs_per_vnet", |c| c.mesh.vcs_per_vnet = 2),
            ("vc_buf_flits", |c| c.mesh.vc_buf_flits = 6),
            ("router_delay", |c| c.mesh.router_delay = 5),
            ("strip_delay", |c| c.mesh.strip_delay = 2),
            ("iack_check_delay", |c| c.mesh.iack_check_delay = 2),
            ("cons_channels", |c| c.mesh.cons_channels = 3),
            ("iack_buffers", |c| c.mesh.iack_buffers = 2),
            ("iack_mode", |c| c.mesh.iack_mode = IackMode::Block),
            ("cache_sets", |c| c.cache_sets = 1024),
            ("block_bytes", |c| c.block_bytes = 64),
            ("dc_proc", |c| c.costs.dc_proc += 1),
            ("dc_send", |c| c.costs.dc_send += 1),
            ("cc_proc", |c| c.costs.cc_proc += 1),
            ("cc_send", |c| c.costs.cc_send += 1),
            ("cache_access", |c| c.costs.cache_access += 1),
            ("mem_access", |c| c.costs.mem_access += 1),
            ("iack_post", |c| c.costs.iack_post += 1),
            ("sizes.control", |c| c.sizes.control += 1),
            ("sizes.data", |c| c.sizes.data += 1),
            ("sizes.per_extra_dest_x4", |c| c.sizes.per_extra_dest_x4 += 1),
            ("sizes.gather", |c| c.sizes.gather += 1),
            ("consistency", |c| c.consistency = ConsistencyModel::Release { write_buffer: 2 }),
            ("write_buffer", |c| c.consistency = ConsistencyModel::Release { write_buffer: 3 }),
            ("multicast_barriers", |c| c.multicast_barriers = true),
            // The same fields, other values: no two edits collide.
            ("mesh 3x8", |c| c.mesh.mesh = Mesh2D::new(3, 8)),
            ("dc_proc and dc_send swapped", |c| {
                std::mem::swap(&mut c.costs.dc_proc, &mut c.costs.dc_send)
            }),
        ];
        let base = SystemConfig::for_scheme(4, SchemeKind::UiUa);
        let name = SchemeKind::UiUa.build().name();
        let mut seen = vec![("base", DsmSystem::config_fingerprint(&base, name))];
        let snapshot = system().save_snapshot();
        for (field, edit) in edits {
            let mut cfg = base.clone();
            edit(&mut cfg);
            let fp = DsmSystem::config_fingerprint(&cfg, name);
            if let Some((other, _)) = seen.iter().find(|s| s.1 == fp) {
                panic!("editing {field} gives the fingerprint of {other}");
            }
            seen.push((field, fp));
            match DsmSystem::restore_snapshot(cfg, SchemeKind::UiUa.build(), &snapshot) {
                Err(SimError::Snapshot(e)) if e.contains("fingerprint") => {}
                Err(e) => panic!("{field}: refused for another reason: {e}"),
                Ok(_) => panic!("{field}: restored under another configuration"),
            }
        }
        assert_ne!(
            DsmSystem::config_fingerprint(&base, name),
            DsmSystem::config_fingerprint(&base, SchemeKind::MiMaCol.build().name()),
            "the scheme name is part of the fingerprint"
        );
    }

    /// A key whose slot was collected — vacant, or reused by a newer
    /// message — held by a worm, a calendar event or a queued directory
    /// request, is refused at restore: the generation in the key keeps it
    /// from aliasing the slot's new message.
    #[test]
    fn restore_refuses_a_stale_message_key() {
        let msg = |b| ProtoMsg::ReadReply { block: BlockId(b) };
        // `stale` names slot 0, now reused; `vacant` names slot 1, now
        // empty; `live` is the message in slot 0 today. Each is a message
        // of its own, so no push shares the key before it.
        let table = |sys: &mut DsmSystem| {
            let stale = sys.msgs.push(msg(1));
            let vacant = sys.msgs.push(msg(2));
            let kept = sys.msgs.push(msg(3));
            sys.cal.schedule(50, Ev::Recv { node: NodeId(1), key: kept, acks: 0, src: NodeId(2) });
            sys.collect_messages();
            let live = sys.msgs.push(msg(4));
            assert_eq!((sys.msgs.len(), sys.msgs.slots()), (2, 3), "slot 0 is reused");
            (stale, vacant, live)
        };
        let holders: [fn(&mut DsmSystem, u64); 6] = [
            |sys, k| {
                sys.net.inject(WormSpec::unicast(NodeId(0), NodeId(5), VNet::Reply, 2, k));
            },
            |sys, k| {
                sys.cal.schedule(9, Ev::Recv { node: NodeId(1), key: k, acks: 0, src: NodeId(2) })
            },
            |sys, k| {
                sys.cal.schedule(9, Ev::Handle { node: NodeId(1), key: k, acks: 0, src: NodeId(2) })
            },
            |sys, k| {
                let spec = WormSpec::unicast(NodeId(3), NodeId(4), VNet::Req, 2, k);
                sys.cal.schedule(9, Ev::inject(spec));
            },
            |sys, k| {
                let e = sys.dir.entry_mut(BlockId(0));
                e.queue.push_back(wormdsm_coherence::QueuedReq { node: NodeId(1), msg_key: k });
            },
            |sys, k| {
                // An undrained delivery: run the worm until the network
                // logs it.
                sys.net.inject(WormSpec::unicast(NodeId(0), NodeId(1), VNet::Reply, 2, k));
                while sys.net.live_worms() > 0 {
                    sys.net.tick();
                }
                sys.now = sys.net.now();
                assert_eq!(sys.net.payloads().collect::<Vec<_>>(), [k]);
            },
        ];
        for (i, hold) in holders.into_iter().enumerate() {
            let mut sys = system();
            let (_, _, live) = table(&mut sys);
            hold(&mut sys, live);
            restored(&sys).unwrap_or_else(|e| panic!("holder {i}: the live key refused: {e}"));
            for which in [0, 1] {
                let mut sys = system();
                let (stale, vacant, _) = table(&mut sys);
                hold(&mut sys, [stale, vacant][which]);
                let Err(SimError::Snapshot(e)) = restored(&sys) else {
                    panic!("holder {i}: a stale key restored");
                };
                assert!(e.contains("is stale"), "holder {i}: {e}");
            }
        }
    }

    /// A calendar event naming a node outside the mesh, or an `Inject`
    /// whose worm the network could not inject or route, is refused at
    /// restore instead of panicking once stepped.
    #[test]
    fn restore_refuses_calendar_events_the_mesh_cannot_run() {
        let mut ok = system();
        let k = ok.msgs.push(ProtoMsg::ReadReply { block: BlockId(1) });
        ok.cal.schedule(3, Ev::inject(WormSpec::unicast(NodeId(0), NodeId(5), VNet::Req, 2, k)));
        let mut sys = restored(&ok).expect("a routable worm restores");
        sys.run_cycles(100);

        type Corrupt = fn(&mut DsmSystem, u64);
        let corrupt: [(Corrupt, &str); 5] = [
            (
                |sys, key| {
                    sys.cal.schedule(3, Ev::Recv { node: NodeId(99), key, acks: 0, src: NodeId(0) })
                },
                "node 99 outside the mesh",
            ),
            (
                |sys, _| sys.cal.schedule(3, Ev::PostIack { node: NodeId(16), txn: TxnId(1) }),
                "node 16 outside the mesh",
            ),
            (
                |sys, key| {
                    let mut spec = WormSpec::unicast(NodeId(0), NodeId(5), VNet::Req, 2, key);
                    spec.dests = Default::default();
                    sys.cal.schedule(3, Ev::inject(spec));
                },
                "at least one destination",
            ),
            (
                |sys, key| {
                    sys.cal.schedule(
                        3,
                        Ev::inject(WormSpec::unicast(NodeId(5), NodeId(5), VNet::Req, 2, key)),
                    )
                },
                "first destination is its source",
            ),
            (
                |sys, key| {
                    // Under XY, a path back west after reaching column 1.
                    let mut spec = WormSpec::unicast(NodeId(0), NodeId(5), VNet::Req, 2, key);
                    spec.kind = WormKind::Multicast;
                    spec.dests = [NodeId(5), NodeId(8)].into();
                    sys.cal.schedule(3, Ev::inject(spec));
                },
                "not conformant",
            ),
        ];
        for (i, (corrupt, want)) in corrupt.into_iter().enumerate() {
            let mut sys = system();
            let key = sys.msgs.push(ProtoMsg::ReadReply { block: BlockId(1) });
            corrupt(&mut sys, key);
            let Err(SimError::Snapshot(e)) = restored(&sys) else {
                panic!("case {i}: an event the mesh cannot run restored");
            };
            assert!(e.contains(want), "case {i}: {e}");
        }
    }

    /// With every home's entries in one map, `verify_coherence` still
    /// names each block's own home and reports home by home, as it did
    /// with a map per home.
    #[test]
    fn verify_coherence_names_the_home_of_each_block() {
        let mut sys = system();
        // 16 nodes: block 0x13 is homed at n3, block 0x5 at n5.
        sys.dir.entry_mut(BlockId(0x13)).state = DirState::Waiting;
        sys.dir.entry_mut(BlockId(0x5)).state = DirState::Waiting;
        let e = sys.verify_coherence().unwrap_err();
        assert_eq!(e, "b0x13 left in Waiting at home n3", "the lower home first");
        sys.dir.entry_mut(BlockId(0x13)).state = DirState::Uncached;
        let e = sys.verify_coherence().unwrap_err();
        assert_eq!(e, "b0x5 left in Waiting at home n5");
        sys.dir.entry_mut(BlockId(0x5)).state = DirState::Uncached;
        sys.seed_shared(BlockId(0x22), &[NodeId(7)]);
        sys.dir.entry_mut(BlockId(0x22)).state = DirState::Uncached;
        let e = sys.verify_coherence().unwrap_err();
        assert_eq!(e, "b0x22 uncached at home n2 but cached Shared at n7");
    }

    /// A cached line whose block has no directory entry is a violation,
    /// reported in (home, block, node) order among the others.
    #[test]
    fn verify_coherence_reports_a_line_without_a_directory_entry() {
        let mut sys = system();
        assert_eq!(sys.verify_coherence(), Ok(()));
        // 16 nodes: block 0x24 is homed at n4, block 0x16 at n6.
        sys.caches.insert(NodeId(9), BlockId(0x24), LineState::Modified);
        sys.dir.entry_mut(BlockId(0x16)).state = DirState::Waiting;
        let e = sys.verify_coherence().unwrap_err();
        assert_eq!(e, "b0x24 cached Modified at n9 but has no entry at home n4");
        sys.caches.invalidate(NodeId(9), BlockId(0x24));
        assert_eq!(sys.verify_coherence().unwrap_err(), "b0x16 left in Waiting at home n6");
        sys.dir.entry_mut(BlockId(0x16)).state = DirState::Uncached;
        assert_eq!(sys.verify_coherence(), Ok(()));
    }
}
