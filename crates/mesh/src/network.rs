//! The cycle-level network engine.
//!
//! [`Network`] owns every router and NIC (as flat slabs for all nodes — see
//! [`crate::router::RouterSlab`] / [`crate::nic::NicSlab`]) plus the worm
//! table, and advances the whole mesh one cycle at a time in three
//! deterministic phases. A worm's slot in the table is reused by the next
//! injection once the worm has retired (see [`crate::worm::WormTable`]).
//! The phases:
//!
//! 1. **Head processing** — head flits at input-VC fronts perform
//!    destination processing (forward-and-absorb setup, i-ack reservation,
//!    gather ack checks, parking) or route/VC allocation.
//! 2. **Movement** — per output port, one flit crosses each link under
//!    credit flow control (one flit per input port per cycle through the
//!    crossbar); consumption channels accept one flit each; parked gather
//!    worms drain into i-ack buffers.
//! 3. **NIC work** — consumption channels drain to the node (deliveries),
//!    resolved parked worms re-inject, and injection queues stream flits
//!    into the local input port.
//!
//! The router interface is flat state (see [`crate::nic`]): a consumption
//! channel counts its owner's flits instead of buffering them, completed
//! messages leave through one network-wide delivery queue in NIC order
//! (ascending node, channel order within a node), and an injection queue
//! is a head/tail pair whose worms link through the worm table.
//!
//! Timing: a head flit pays `router_delay` cycles at every router
//! (including intermediate-destination reprocessing charged at
//! `strip_delay`/`iack_check_delay`); body flits stream at one flit per
//! cycle per link. Credit return is same-cycle (documented idealization: real credit return takes
//! one link cycle; the simplification affects back-to-back worm reuse of a
//! VC by at most one cycle).
//!
//! The worklists are node bitsets (one `u64` word per 64 nodes), so every
//! phase visits them in ascending node order by construction, one node at
//! a time, and a run is a pure function of its inputs. A credit returned
//! during movement is visible to the upstream router in the same cycle
//! only if the sweep has not passed that router yet. Within a router the
//! phases iterate the set bits of its slot-class masks (see
//! [`crate::router`]) instead of filtering every `(port, vc)` slot.

use crate::nic::{Delivery, GatherCheck, IackMode, NicSlab, StreamState};
use crate::router::{RouterSlab, VcMode, LOCAL, LOCAL8};
use crate::routing::{BaseRouting, PathRule, RouteTable};
use crate::topology::{Direction, Mesh2D, NodeId, NUM_PORTS};
use crate::worm::{
    Flit, FlitKind, TxnId, Unicast, VNet, Worm, WormHot, WormId, WormKind, WormSpec, WormState,
    WormTable, NUM_VNETS,
};
use wormdsm_sim::snap::{snap_struct, Snap, SnapError, SnapReader, SnapWriter};

use wormdsm_sim::trace::{FlightRecorder, TraceClass, TraceKind, TraceLevel};
use wormdsm_sim::{
    counter_limit, BitSet128, Cycle, NoProgress, Registry, Summary, Watchdog, MAX_CLOCK,
};

/// Flight-recorder label for a worm kind.
fn worm_kind_label(kind: WormKind) -> &'static str {
    match kind {
        WormKind::Unicast => "unicast",
        WormKind::Multicast => "multicast",
        WormKind::Gather => "gather",
    }
}

/// Configuration of the wormhole mesh.
#[derive(Debug, Clone)]
pub struct MeshConfig {
    /// Mesh dimensions.
    pub mesh: Mesh2D,
    /// Base routing (request rule; reply net uses YX).
    pub routing: BaseRouting,
    /// Virtual channels per virtual network on every link (>= 1).
    pub vcs_per_vnet: usize,
    /// Input buffer depth per VC, in flits.
    pub vc_buf_flits: usize,
    /// Router pipeline delay paid by head flits at each router, in cycles
    /// (20 ns = 4 cycles at the paper's parameters).
    pub router_delay: Cycle,
    /// Header-strip / absorb-setup delay at an intermediate destination.
    pub strip_delay: Cycle,
    /// i-ack buffer lookup delay for gather heads.
    pub iack_check_delay: Cycle,
    /// Consumption channels per router interface (the paper proves 4
    /// suffice for deadlock freedom on a 2D mesh).
    pub cons_channels: usize,
    /// i-ack buffer entries per router interface (the paper studies 2-4).
    pub iack_buffers: usize,
    /// Behaviour of gather worms whose ack has not been posted.
    pub iack_mode: IackMode,
}

impl MeshConfig {
    /// Defaults matching the paper's system parameters on a `k x k` mesh.
    pub fn paper_defaults(k: usize) -> Self {
        Self {
            mesh: Mesh2D::square(k),
            routing: BaseRouting::ECube,
            vcs_per_vnet: 1,
            vc_buf_flits: 4,
            router_delay: 4,
            strip_delay: 1,
            iack_check_delay: 1,
            cons_channels: 4,
            iack_buffers: 4,
            iack_mode: IackMode::VctDefer,
        }
    }

    /// Total VCs per port (both virtual networks).
    pub fn vcs_total(&self) -> usize {
        self.vcs_per_vnet * crate::worm::NUM_VNETS
    }

    /// VC index range `[lo, hi)` belonging to `vnet`.
    pub fn vc_class(&self, vnet: VNet) -> (usize, usize) {
        let lo = vnet.index() * self.vcs_per_vnet;
        (lo, lo + self.vcs_per_vnet)
    }

    /// The virtual network a VC index belongs to.
    pub fn vnet_of(&self, vc: usize) -> VNet {
        if vc < self.vcs_per_vnet {
            VNet::Req
        } else {
            VNet::Reply
        }
    }

    /// The path rule used by `vnet`.
    pub fn rule_for(&self, vnet: VNet) -> PathRule {
        match vnet {
            VNet::Req => self.routing.request_rule(),
            VNet::Reply => self.routing.reply_rule(),
        }
    }

    /// Validate the configuration, reporting the first problem found.
    ///
    /// [`Network::new`] panics on an invalid config; layers above call
    /// this first to surface a structured error instead of a panic deep
    /// inside construction (important at large `k`, where an over-wide VC
    /// or channel count, or a FIFO depth beyond the ring's `u16` index,
    /// would otherwise only fail once slabs allocate).
    pub fn validate(&self) -> Result<(), String> {
        if self.vcs_per_vnet < 1 {
            return Err("vcs_per_vnet must be >= 1".into());
        }
        if self.vc_buf_flits < 1 {
            return Err("vc_buf_flits must be >= 1".into());
        }
        if self.router_delay < 1 || self.strip_delay < 1 || self.iack_check_delay < 1 {
            return Err("router_delay, strip_delay and iack_check_delay must all be >= 1".into());
        }
        if self.router_delay > RouterSlab::MAX_ROUTER_DELAY {
            return Err(format!(
                "router_delay must be <= {} (got {}); a buffered flit keeps its deposit gap in \
                 one byte, saturating at 255, which is exact only up to that head delay",
                RouterSlab::MAX_ROUTER_DELAY,
                self.router_delay
            ));
        }
        let vcs = self.vcs_per_vnet.saturating_mul(NUM_VNETS);
        let slots = vcs.saturating_mul(NUM_PORTS);
        if slots > BitSet128::CAPACITY {
            return Err(format!(
                "router occupancy bitset limits ports * vcs to {} (got {NUM_PORTS} * {vcs})",
                BitSet128::CAPACITY,
            ));
        }
        let nodes = self.mesh.nodes();
        if RouterSlab::fifo_entries(nodes, slots, self.vc_buf_flits).is_none() {
            return Err(format!(
                "router FIFO slab of {nodes} nodes x {slots} VCs x {} flits overflows",
                self.vc_buf_flits
            ));
        }
        if self.vc_buf_flits > RouterSlab::MAX_VC_CAP {
            return Err(format!(
                "vc_buf_flits must be <= {} (got {}); FIFO ring indices are u16-encoded",
                RouterSlab::MAX_VC_CAP,
                self.vc_buf_flits
            ));
        }
        if self.cons_channels < 1 || self.cons_channels > 255 {
            return Err(format!(
                "cons_channels must be 1..=255 (got {}); channel indices are u8-encoded",
                self.cons_channels
            ));
        }
        if self.iack_buffers < 1 || self.iack_buffers > 255 {
            return Err(format!(
                "iack_buffers must be 1..=255 (got {}); entry indices are u8-encoded",
                self.iack_buffers
            ));
        }
        Ok(())
    }
}

/// Heap bytes of a [`Network`]'s parts (see [`Network::heap_bytes`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetHeap {
    /// Router FIFOs, slot records and columns.
    pub routers: usize,
    /// NIC queues, channels, i-ack entries and deliveries.
    pub nics: usize,
    /// The worm table, every spec's destination list included.
    pub worms: usize,
    /// The rest: neighbor table, activity sets, link statistics and the
    /// link-load meter.
    pub other: usize,
}

/// Aggregate network statistics.
#[derive(Debug, Clone)]
pub struct NetStats {
    /// Router-to-router link traversals (the paper's network traffic
    /// measure, in flit-hops).
    pub flit_hops: u64,
    /// Flits entered from NICs.
    pub flits_injected: u64,
    /// Flits ejected into consumption channels (final + absorb copies).
    pub flits_consumed: u64,
    /// Worms injected, indexed by virtual network.
    pub worms_injected: [u64; 2],
    /// Messages delivered to nodes (final + absorb).
    pub deliveries: u64,
    /// Cycles gather heads spent blocked waiting on unposted acks.
    pub gather_blocked_cycles: u64,
    /// Cycles multicast heads spent blocked on consumption channels or
    /// i-ack reservations.
    pub multicast_blocked_cycles: u64,
    /// Gather worms parked (VCT deferred delivery events).
    pub parks: u64,
    /// Gather worms bounced through the local node because no i-ack entry
    /// was free to park in.
    pub bounces: u64,
    /// Parked worms resumed.
    pub resumes: u64,
    /// Successful ack-count deposits into i-ack buffers.
    pub deposits: u64,
    /// Deposit attempts deferred because the i-ack buffer was full.
    pub deposit_retries: u64,
    /// Busy cycles per directed link, indexed `node * 4 + dir`.
    pub link_busy: Vec<u64>,
    /// Latency of delivered unicast worms (queue + network), cycles.
    pub unicast_latency: Summary,
    /// Latency of delivered multicast worms.
    pub multicast_latency: Summary,
    /// Latency of delivered gather worms.
    pub gather_latency: Summary,
    /// Worm-table inserts served from a retired worm's slot instead of
    /// growing the table.
    pub worm_slots_reused: u64,
}

impl NetStats {
    /// The largest counter held, each latency [`Summary`] counting its
    /// observations. Every field is listed, so a new one does not compile
    /// until it is.
    fn max_count(&self) -> u64 {
        let Self {
            flit_hops,
            flits_injected,
            flits_consumed,
            worms_injected,
            deliveries,
            gather_blocked_cycles,
            multicast_blocked_cycles,
            parks,
            bounces,
            resumes,
            deposits,
            deposit_retries,
            link_busy,
            unicast_latency,
            multicast_latency,
            gather_latency,
            worm_slots_reused,
        } = self;
        [
            *flit_hops,
            *flits_injected,
            *flits_consumed,
            *deliveries,
            *gather_blocked_cycles,
            *multicast_blocked_cycles,
            *parks,
            *bounces,
            *resumes,
            *deposits,
            *deposit_retries,
            unicast_latency.count(),
            multicast_latency.count(),
            gather_latency.count(),
            *worm_slots_reused,
        ]
        .into_iter()
        .chain(worms_injected.iter().copied())
        .chain(link_busy.iter().copied())
        .max()
        .unwrap_or(0)
    }

    fn new(nodes: usize) -> Self {
        Self {
            flit_hops: 0,
            flits_injected: 0,
            flits_consumed: 0,
            worms_injected: [0, 0],
            deliveries: 0,
            gather_blocked_cycles: 0,
            multicast_blocked_cycles: 0,
            parks: 0,
            bounces: 0,
            resumes: 0,
            deposits: 0,
            deposit_retries: 0,
            link_busy: vec![0; nodes * 4],
            unicast_latency: Summary::new(),
            multicast_latency: Summary::new(),
            gather_latency: Summary::new(),
            worm_slots_reused: 0,
        }
    }

    /// Mean utilization of the busiest link over `elapsed` cycles.
    pub fn max_link_utilization(&self, elapsed: Cycle) -> f64 {
        if elapsed == 0 {
            return 0.0;
        }
        self.link_busy.iter().copied().max().unwrap_or(0) as f64 / elapsed as f64
    }

    /// Export every counter and latency summary into a metrics
    /// [`Registry`] (the per-run `BENCH_*.json` export path).
    pub fn export(&self, elapsed: Cycle) -> Registry {
        let mut r = Registry::new();
        r.counter("flit_hops", self.flit_hops);
        r.counter("flits_injected", self.flits_injected);
        r.counter("flits_consumed", self.flits_consumed);
        r.counter("worms_injected_req", self.worms_injected[0]);
        r.counter("worms_injected_reply", self.worms_injected[1]);
        r.counter("deliveries", self.deliveries);
        r.counter("gather_blocked_cycles", self.gather_blocked_cycles);
        r.counter("multicast_blocked_cycles", self.multicast_blocked_cycles);
        r.counter("parks", self.parks);
        r.counter("bounces", self.bounces);
        r.counter("resumes", self.resumes);
        r.counter("deposits", self.deposits);
        r.counter("deposit_retries", self.deposit_retries);
        r.counter("worm_slots_reused", self.worm_slots_reused);
        r.gauge("max_link_utilization", self.max_link_utilization(elapsed));
        r.summary("unicast_latency", &self.unicast_latency);
        r.summary("multicast_latency", &self.multicast_latency);
        r.summary("gather_latency", &self.gather_latency);
        r
    }
}

/// One flushed accounting window of the [`ContentionProbe`]: per-(link,
/// VC) flits forwarded and credit-stall cycles over `[start, start +
/// window)`. Windows with no activity are never flushed (fast-forward
/// gaps produce no empty windows).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContentionWindow {
    /// First cycle of the window (aligned to the window size).
    pub start: Cycle,
    /// Flits forwarded per `link * vcs + vc` slot.
    pub flits: Vec<u32>,
    /// Credit-stall cycles per `link * vcs + vc` slot: cycles a ready
    /// flit held an allocated output VC but could not move for lack of
    /// downstream credits.
    pub stalls: Vec<u32>,
}

/// Time-windowed per-link / per-VC occupancy and contention accounting.
///
/// Links are directed router outputs indexed `node * 4 + dir`
/// (matching [`NetStats::link_busy`]); each link has `vcs_total` VC
/// slots. The probe is a pure observer fed from the movement phase, so it
/// cannot perturb results. Consumed by the `profile_trace` example for
/// Chrome-trace counter tracks and by the experiment farm's live
/// windows; a run's per-link totals are [`NetStats::link_busy`].
#[derive(Debug, Clone)]
pub struct ContentionProbe {
    window: Cycle,
    vcs: usize,
    cur_start: Cycle,
    cur_dirty: bool,
    cur_flits: Vec<u32>,
    cur_stalls: Vec<u32>,
    windows: Vec<ContentionWindow>,
}

impl ContentionProbe {
    /// Probe for a `nodes`-node mesh with `vcs` virtual channels per
    /// link, bucketing activity into `window`-cycle windows (min 1).
    pub fn new(nodes: usize, vcs: usize, window: Cycle) -> Self {
        let slots = nodes * 4 * vcs;
        Self {
            window: window.max(1),
            vcs,
            cur_start: 0,
            cur_dirty: false,
            cur_flits: vec![0; slots],
            cur_stalls: vec![0; slots],
            windows: Vec::new(),
        }
    }

    #[inline]
    fn roll(&mut self, now: Cycle) {
        let start = now - now % self.window;
        if start != self.cur_start {
            self.flush();
            self.cur_start = start;
        }
    }

    fn flush(&mut self) {
        if !self.cur_dirty {
            return;
        }
        let slots = self.cur_flits.len();
        let flits = std::mem::replace(&mut self.cur_flits, vec![0; slots]);
        let stalls = std::mem::replace(&mut self.cur_stalls, vec![0; slots]);
        self.windows.push(ContentionWindow { start: self.cur_start, flits, stalls });
        self.cur_dirty = false;
    }

    /// Record one flit forwarded over `link` on `vc` at cycle `now`.
    pub fn record_forward(&mut self, now: Cycle, link: usize, vc: usize) {
        self.roll(now);
        self.cur_flits[link * self.vcs + vc] += 1;
        self.cur_dirty = true;
    }

    /// Record one credit-stalled cycle of `link`'s `vc` at cycle `now`.
    pub fn record_stall(&mut self, now: Cycle, link: usize, vc: usize) {
        self.roll(now);
        self.cur_stalls[link * self.vcs + vc] += 1;
        self.cur_dirty = true;
    }

    /// Flush the in-progress window. Call before reading
    /// [`windows`](Self::windows) at end of run.
    pub fn finish(&mut self) {
        self.flush();
    }

    /// Window size in cycles.
    pub fn window(&self) -> Cycle {
        self.window
    }

    /// Virtual channels per link.
    pub fn vcs(&self) -> usize {
        self.vcs
    }

    /// Flushed windows, in time order.
    pub fn windows(&self) -> &[ContentionWindow] {
        &self.windows
    }

    /// Windows committed after the first `seen` — the incremental-poll
    /// hook for live telemetry consumers (the experiment farm drains new
    /// windows at every job window boundary, keeping a cursor of how
    /// many it has already streamed). A cursor beyond the committed
    /// count yields an empty slice rather than panicking, so a consumer
    /// surviving a probe reset degrades gracefully.
    pub fn windows_since(&self, seen: usize) -> &[ContentionWindow] {
        &self.windows[seen.min(self.windows.len())..]
    }

    /// Sum a window's flits over `node`'s four outgoing links (counter-
    /// track sample for one router).
    pub fn node_window_flits(&self, w: &ContentionWindow, node: usize) -> u64 {
        let lo = node * 4 * self.vcs;
        w.flits[lo..lo + 4 * self.vcs].iter().map(|&v| u64::from(v)).sum()
    }

    /// Sum a window's credit stalls over `node`'s four outgoing links.
    pub fn node_window_stalls(&self, w: &ContentionWindow, node: usize) -> u64 {
        let lo = node * 4 * self.vcs;
        w.stalls[lo..lo + 4 * self.vcs].iter().map(|&v| u64::from(v)).sum()
    }
}

/// Cheap always-on per-link occupancy summary — the feedback signal for
/// load-adaptive grouping schemes.
///
/// Unlike the [`ContentionProbe`], which instruments the flit path, the
/// meter never observes individual forwards: at the first tick of each
/// `window`-cycle accounting window it *commits* the delta of
/// [`NetStats::link_busy`] since the previous commit.
///
/// Consumers only ever see **committed** (completed-window) data, never
/// the in-progress window, so a plan built at cycle `t` depends only on
/// traffic from cycles `< t - (t mod window)`.
///
/// Fast-forward stays observationally invisible too: cycles are only ever
/// jumped over while the network is idle, so when a tick lands several
/// windows past the last boundary, every completed window after the first
/// carried no traffic — the commit rule (see
/// [`observe`](LinkLoadMeter::observe)) reproduces exactly the summary a
/// cycle-stepped schedule would show at the same cycle.
///
/// Because committed summaries feed back into invalidation plans, the
/// meter is simulated state, not an observer: it travels with
/// [`Network::save_state`] / [`Network::load_state`] so a resumed run
/// plans identically to an uninterrupted one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkLoadMeter {
    /// Accounting window, cycles (min 1).
    window: Cycle,
    /// First cycle of the next window to commit: when `now` reaches this,
    /// every earlier window is complete and gets committed.
    next_boundary: Cycle,
    /// `NetStats::link_busy` snapshot at the last commit.
    prev: Vec<u64>,
    /// Per-link busy cycles over the most recent completed window.
    committed: Vec<u64>,
    /// Total commits so far (0 = nothing committed yet, every
    /// [`load_milli`](LinkLoadMeter::load_milli) reads 0).
    commits: u64,
}

impl LinkLoadMeter {
    /// Meter for a `nodes`-node mesh committing `window`-cycle summaries.
    pub fn new(nodes: usize, window: Cycle) -> Self {
        let window = window.max(1);
        Self {
            window,
            next_boundary: window,
            prev: vec![0; nodes * 4],
            committed: vec![0; nodes * 4],
            commits: 0,
        }
    }

    /// Commit the most recent completed window. Called at the start of
    /// every network tick, before any of cycle `now`'s traffic is
    /// stepped, so the commit covers exactly the windows that ended
    /// before `now`.
    ///
    /// When exactly one window completed since the last commit, the
    /// committed summary is the `link_busy` delta (that window's
    /// traffic). When several completed at once — possible only when
    /// intervening ticks were elided, which the simulator does only
    /// across *idle* stretches (fast-forward) — every completed window
    /// after the first was dead, so the most recent one is all zeros. Both cases reproduce,
    /// bit for bit, the summary a cycle-stepped schedule would show at
    /// `now`, which keeps fast-forward invisible to adaptive consumers.
    ///
    /// Public so tests (and analytic tooling) can feed a detached meter a
    /// synthetic `link_busy` slab; in the simulator the network drives it.
    pub fn observe(&mut self, now: Cycle, link_busy: &[u64]) {
        if now < self.next_boundary {
            return;
        }
        let span = (now - self.next_boundary) / self.window + 1;
        for (i, (&b, p)) in link_busy.iter().zip(self.prev.iter_mut()).enumerate() {
            self.committed[i] = if span == 1 { b - *p } else { 0 };
            *p = b;
        }
        self.next_boundary += span * self.window;
        self.commits += 1;
    }

    /// Window size in cycles.
    pub fn window(&self) -> Cycle {
        self.window
    }

    /// Per-link busy cycles (`node * 4 + dir`, matching
    /// [`NetStats::link_busy`]) over the most recent completed window.
    /// All zeros until the first commit.
    pub fn committed_busy(&self) -> &[u64] {
        &self.committed
    }

    /// Commits so far.
    pub fn commits(&self) -> u64 {
        self.commits
    }

    /// Committed utilization of a directed link in thousandths (0 =
    /// idle, 1000 = a flit moved every cycle of the window). Integer
    /// arithmetic end to end, so consumers stay deterministic.
    pub fn load_milli(&self, link: usize) -> u64 {
        if self.commits == 0 {
            return 0;
        }
        self.committed[link] * 1000 / self.window
    }
}

/// Neighbour-table entry of a link port at the mesh edge.
const NO_NEIGHBOR: u32 = u32::MAX;

/// Per-node neighbour table, indexed by direction ([`NO_NEIGHBOR`] at the
/// mesh edge). Built once per network, so the tick never decodes
/// coordinates.
fn build_neighbors(mesh: &Mesh2D) -> Vec<[u32; 4]> {
    mesh.iter_nodes()
        .map(|n| {
            Direction::ALL.map(|d| mesh.neighbor(n, d).map_or(NO_NEIGHBOR, |m| m.idx() as u32))
        })
        .collect()
}

/// Set bit `n` of a node bitset.
#[inline]
fn mark(set: &mut [u64], n: usize) {
    set[n >> 6] |= 1 << (n & 63);
}

/// Members of a node bitset, ascending.
#[inline]
fn members(set: &[u64]) -> Members<'_> {
    Members { set, word: 0, bits: set.first().copied().unwrap_or(0) }
}

/// Ascending iterator over a node bitset (see [`members`]).
struct Members<'a> {
    set: &'a [u64],
    /// Index of the word `bits` came from.
    word: usize,
    /// Members of that word not yet yielded.
    bits: u64,
}

impl Iterator for Members<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.bits == 0 {
            self.word += 1;
            self.bits = *self.set.get(self.word)?;
        }
        let bit = self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(self.word * 64 + bit)
    }
}

/// Load a node bitset for `nodes` nodes, rejecting a wrong word count or
/// a member `>= nodes`.
fn load_node_set(r: &mut SnapReader<'_>, nodes: usize, what: &str) -> Result<Vec<u64>, SnapError> {
    let set = Vec::<u64>::load(r)?;
    if set.len() != nodes.div_ceil(64) {
        return Err(SnapError::Mismatch(format!(
            "{what} worklist has {} words, {nodes} nodes need {}",
            set.len(),
            nodes.div_ceil(64)
        )));
    }
    if members(&set).any(|n| n >= nodes) {
        return Err(SnapError::Corrupt(format!("{what} worklist names a node >= {nodes}")));
    }
    Ok(set)
}

/// The whole wormhole-routed mesh: routers, NICs, worms, clock.
///
/// `tick` iterates *worklists* rather than sweeping every node: a router
/// is in the active set whenever it holds buffered flits, and a NIC
/// whenever it has phase-3 work (queued injections, streaming, flits in a
/// consumption channel, resumes, or deposit retries). Nodes outside both sets
/// are provably no-ops in every phase, so skipping them is bit-identical
/// to the full sweep. Each set is a node bitset, iterated in ascending
/// node order.
#[derive(Debug)]
pub struct Network {
    cfg: MeshConfig,
    routers: RouterSlab,
    nics: NicSlab,
    worms: WormTable,
    now: Cycle,
    stats: NetStats,
    /// Neighbour of each node per direction (see [`build_neighbors`]).
    neighbors: Vec<[u32; 4]>,
    /// Worms not yet fully delivered (fast quiescence check).
    live_worms: usize,
    /// Routers that may hold flits, a node bitset; superset of the
    /// routers whose occupancy mask is non-empty.
    router_active: Vec<u64>,
    /// NICs that may have phase-3 work, a node bitset.
    nic_active: Vec<u64>,
    /// `tick`'s snapshot of a worklist, all zero between phases, so the
    /// hot loop never allocates.
    work: Vec<u64>,
    /// Precomputed next-hop tables, indexed by `VNet::index()`, built once
    /// per network so the tick never recomputes routes.
    tables: [RouteTable; NUM_VNETS],
    /// Flight recorder: one time-ordered stream for the whole system (the
    /// protocol layer pushes its transaction events here too).
    trace: FlightRecorder,
    /// Optional per-link/VC contention probe (None unless enabled via
    /// [`Network::enable_contention_probe`]). A pure observer: results
    /// are bit-identical with the probe on or off.
    probe: Option<Box<ContentionProbe>>,
    /// Optional windowed link-load summary (None unless enabled via
    /// [`Network::enable_link_load`]). Fed from `NetStats::link_busy`
    /// deltas at window boundaries. Plan-affecting state: snapshotted (see
    /// [`LinkLoadMeter`]).
    link_load: Option<Box<LinkLoadMeter>>,
    /// First mesh-level invariant violation (sticky). The protocol layer
    /// polls this each step and converts it into a structured error.
    violation: Option<String>,
}

impl Network {
    /// Build an idle network. Panics on an invalid configuration (see
    /// [`MeshConfig::validate`] for the checked limits).
    pub fn new(cfg: MeshConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid MeshConfig: {e}");
        }
        let nodes = cfg.mesh.nodes();
        let vcs = cfg.vcs_total();
        let routers = RouterSlab::new(nodes, NUM_PORTS, vcs, cfg.vc_buf_flits, cfg.router_delay);
        let nics = NicSlab::new(nodes, cfg.cons_channels, cfg.iack_buffers, vcs);
        let neighbors = build_neighbors(&cfg.mesh);
        let stats = NetStats::new(nodes);
        let words = nodes.div_ceil(64);
        let tables = [
            RouteTable::build(cfg.rule_for(VNet::Req), &cfg.mesh),
            RouteTable::build(cfg.rule_for(VNet::Reply), &cfg.mesh),
        ];
        Self {
            cfg,
            routers,
            nics,
            worms: WormTable::new(),
            now: 0,
            stats,
            neighbors,
            live_worms: 0,
            router_active: vec![0; words],
            nic_active: vec![0; words],
            work: vec![0; words],
            tables,
            trace: FlightRecorder::default(),
            probe: None,
            link_load: None,
            violation: None,
        }
    }

    /// Put router `r` in the next cycle's worklist.
    #[inline]
    fn activate_router(&mut self, r: usize) {
        mark(&mut self.router_active, r);
    }

    /// Put NIC `n` in the NIC worklist. Between ticks that is the next
    /// cycle's set; during phases 1-2 of a tick, the activations join the
    /// same cycle's phase-3 pass (see [`Network::tick`]).
    #[inline]
    fn activate_nic(&mut self, n: usize) {
        mark(&mut self.nic_active, n);
    }

    /// Current simulated cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Configuration.
    pub fn config(&self) -> &MeshConfig {
        &self.cfg
    }

    /// Statistics so far.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Bytes the network holds on the heap, by part. The observers (the
    /// flight recorder's ring and the contention probe) are not counted.
    pub fn heap_bytes(&self) -> NetHeap {
        use wormdsm_sim::heap::vec_bytes;
        let meter =
            self.link_load.as_ref().map_or(0, |m| vec_bytes(&m.prev) + vec_bytes(&m.committed));
        NetHeap {
            routers: self.routers.heap_bytes(),
            nics: self.nics.heap_bytes(),
            worms: self.worms.heap_bytes(),
            other: vec_bytes(&self.neighbors)
                + vec_bytes(&self.router_active)
                + vec_bytes(&self.nic_active)
                + vec_bytes(&self.work)
                + vec_bytes(&self.stats.link_busy)
                + meter,
        }
    }

    /// The flight recorder (read side: events, timelines, JSON dump).
    pub fn recorder(&self) -> &FlightRecorder {
        &self.trace
    }

    /// The flight recorder (write side: level, capacity, protocol-layer
    /// event pushes — the recorder is one time-ordered stream shared by
    /// the mesh and the protocol layer above it).
    pub fn recorder_mut(&mut self) -> &mut FlightRecorder {
        &mut self.trace
    }

    /// Set the runtime trace level.
    pub fn set_trace_level(&mut self, level: TraceLevel) {
        self.trace.set_level(level);
    }

    /// Enable per-link/VC contention accounting in `window`-cycle
    /// buckets (replaces any previous probe). A pure observer, so results
    /// are bit-identical with the probe on or off.
    pub fn enable_contention_probe(&mut self, window: Cycle) {
        self.probe = Some(Box::new(ContentionProbe::new(
            self.cfg.mesh.nodes(),
            self.cfg.vcs_total(),
            window,
        )));
    }

    /// The contention probe, if enabled.
    pub fn contention_probe(&self) -> Option<&ContentionProbe> {
        self.probe.as_deref()
    }

    /// Detach and return the contention probe with its final partial
    /// window flushed.
    pub fn take_contention_probe(&mut self) -> Option<ContentionProbe> {
        self.probe.take().map(|mut p| {
            p.finish();
            *p
        })
    }

    /// Flush the contention probe's in-progress partial window without
    /// detaching it, so [`Network::contention_probe`] reads taken after a
    /// run that ends mid-window see the final window too. Idempotent;
    /// [`Network::take_contention_probe`] flushes on its own.
    pub fn finish_contention_probe(&mut self) {
        if let Some(p) = self.probe.as_mut() {
            p.finish();
        }
    }

    /// Enable the windowed link-load summary with `window`-cycle commits
    /// (replaces any previous meter). See [`LinkLoadMeter`] for why its
    /// summaries are simulated state rather than an observation.
    pub fn enable_link_load(&mut self, window: Cycle) {
        self.link_load = Some(Box::new(LinkLoadMeter::new(self.cfg.mesh.nodes(), window)));
    }

    /// The link-load meter, if enabled. Only committed (completed-window)
    /// data is visible through it.
    pub fn link_load(&self) -> Option<&LinkLoadMeter> {
        self.link_load.as_deref()
    }

    /// First mesh-level invariant violation detected so far, if any.
    /// Sticky: once set, the simulation's state is no longer trusted.
    pub fn violation(&self) -> Option<&str> {
        self.violation.as_deref()
    }

    /// Recompute the router slab's derived state (flit counts, front
    /// ready times, slot-class masks) from its FIFOs, modes and
    /// allocations, check that every link's credits plus its downstream
    /// FIFO's flits make `vc_buf_flits`, and report the first
    /// disagreement. `O(nodes * slots)`: a check for tests and debugging,
    /// not for every tick of a long run.
    pub fn check_router_slab(&self) -> Result<(), String> {
        self.routers.check_consistency()?;
        self.check_credits()
    }

    /// Credits are returned in the cycle a flit leaves the downstream
    /// FIFO, so each link output's credits plus that FIFO's flits are
    /// always its depth; an output at the mesh edge never spends one.
    fn check_credits(&self) -> Result<(), String> {
        let cap = self.cfg.vc_buf_flits;
        for (n, nbs) in self.neighbors.iter().enumerate() {
            for (port, &nb) in nbs.iter().enumerate() {
                let in_port = Direction::ALL[port].opposite().index();
                for vc in 0..self.routers.vcs() {
                    let credit = self.routers.credit(n, port, vc);
                    let held = if nb == NO_NEIGHBOR {
                        0
                    } else {
                        cap - self.routers.space(nb as usize, in_port, vc)
                    };
                    if credit + held != cap {
                        return Err(format!(
                            "node {n} output ({port}, {vc}): {credit} credits and {held} flits \
                             downstream, depth {cap}"
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Check every worm's hot record against the one its cold record and
    /// `dest_idx` imply, and every destination against the mesh, and
    /// report the first disagreement. `O(worms)`: a check for tests and
    /// debugging, like [`Network::check_router_slab`].
    pub fn check_worm_table(&self) -> Result<(), String> {
        self.worms.check(self.cfg.mesh.nodes())
    }

    /// Check that no consumption channel holds a flit, as holds at every
    /// tick boundary (see [`NicSlab::cons_push`]); report the
    /// first that does.
    pub fn check_consumption_drained(&self) -> Result<(), String> {
        self.nics.check_cons_drained()
    }

    /// The payload of every worm not yet retired (not delivered, or with
    /// copies still draining) and of every delivery not yet taken: every
    /// payload the network may still hand to a node. A retired worm's
    /// slot keeps its old payload until the slot is reused, so it is left
    /// out.
    pub fn payloads(&self) -> impl Iterator<Item = u64> + '_ {
        self.worms
            .iter()
            .filter(|w| w.state != WormState::Delivered || w.copies > 0)
            .map(Worm::payload)
            .chain(self.nics.undrained().map(|d| d.payload))
    }

    /// Access a worm's cold record. A retired worm (delivered, every copy
    /// drained) frees its slot for the next injection, so its record is
    /// valid only until the next [`Network::inject`].
    pub fn worm(&self, id: WormId) -> &Worm {
        self.worms.get(id)
    }

    /// A worm's hot record: its next destination, `dest_idx` and
    /// `turned` flag.
    pub fn worm_hot(&self, id: WormId) -> WormHot {
        self.worms.hot(id)
    }

    /// Number of worms not yet fully delivered.
    pub fn live_worms(&self) -> usize {
        self.live_worms
    }

    /// True when nothing is queued, streaming, in flight or parked.
    pub fn quiescent(&self) -> bool {
        self.live_worms == 0
    }

    /// The first reason `spec` cannot be injected and routed: a rule of
    /// [`WormSpec::check`], a first destination at the source, or a
    /// destination sequence its virtual network's rule does not allow.
    pub fn check_spec(&self, spec: &WormSpec) -> Result<(), String> {
        spec.check(self.cfg.mesh.nodes())?;
        if spec.dests[0] == spec.src {
            return Err("worm's first destination is its source".into());
        }
        let rule = self.cfg.rule_for(spec.vnet);
        if !crate::routing::is_conformant(rule, &self.cfg.mesh, spec.src, &spec.dests) {
            return Err(format!("destination sequence not conformant to {rule:?}"));
        }
        Ok(())
    }

    /// Hand a worm to its source NIC for injection. A plain unicast goes
    /// the way of [`Network::inject_unicast`].
    ///
    /// Destination sequences must be conformant to the worm's virtual
    /// network rule (checked in debug builds), must not start at the
    /// source, and must not repeat nodes.
    pub fn inject(&mut self, spec: WormSpec) -> WormId {
        if let Some(u) = Unicast::of(&spec) {
            return self.inject_unicast(u);
        }
        assert!(!spec.dests.is_empty());
        assert_ne!(spec.dests[0], spec.src, "worm's first destination is its source");
        debug_assert!(
            {
                // Stack bitset (65536 nodes covers every mesh NodeId can
                // address, up to k = 256) — the old per-injection HashSet
                // dominated debug-build injection cost.
                let mut seen = [0u64; 1024];
                debug_assert!(self.cfg.mesh.nodes() <= 1024 * 64);
                spec.dests.iter().all(|d| {
                    let (w, b) = (d.idx() / 64, d.idx() % 64);
                    let fresh = seen[w] >> b & 1 == 0;
                    seen[w] |= 1 << b;
                    fresh
                })
            },
            "duplicate destinations"
        );
        debug_assert!(
            crate::routing::is_conformant(
                self.cfg.rule_for(spec.vnet),
                &self.cfg.mesh,
                spec.src,
                &spec.dests
            ),
            "non-conformant destination sequence for {:?}: src {} dests {:?}",
            self.cfg.rule_for(spec.vnet),
            spec.src,
            spec.dests,
        );
        let reused = self.worms.will_reuse_slot();
        let id = self.worms.insert(spec, self.now);
        self.admit(id, reused)
    }

    /// Hand a plain unicast to its source NIC for injection, as
    /// [`Network::inject`] does its spec, without building one. Every
    /// path rule admits a lone destination, so only one at the source is
    /// refused.
    pub fn inject_unicast(&mut self, u: Unicast) -> WormId {
        assert_ne!(u.dest, u.src, "worm's first destination is its source");
        let reused = self.worms.will_reuse_slot();
        let id = self.worms.insert_unicast(u, self.now);
        self.admit(id, reused)
    }

    /// Queue worm `id`, just inserted (into a `reused` slot), at its
    /// source NIC.
    fn admit(&mut self, id: WormId, reused: bool) -> WormId {
        if reused {
            self.stats.worm_slots_reused += 1;
        }
        let w = self.worms.get(id);
        let (src, vnet) = (w.src(), w.vnet());
        if self.trace.wants(TraceClass::Flit) {
            let ev = TraceKind::WormInject {
                worm: id.0 as u64,
                txn: w.txn().0,
                src: src.idx() as u32,
                kind: worm_kind_label(w.kind()),
                dests: w.dests().len() as u32,
            };
            self.trace.push(self.now, ev);
        }
        self.nics.enqueue(src.idx(), vnet, id, &mut self.worms);
        self.activate_nic(src.idx());
        self.stats.worms_injected[vnet.index()] += 1;
        self.live_worms += 1;
        id
    }

    /// Node `node` posts its local invalidation acknowledgement for `txn`
    /// into the router-interface i-ack buffer.
    /// Returns false if no buffer entry was available (caller must fall
    /// back to a unicast acknowledgement message).
    pub fn post_iack(&mut self, node: NodeId, txn: TxnId) -> bool {
        self.post_iack_count(node, txn, 1)
    }

    /// Post `count` acks worth for `txn` at `node`.
    pub fn post_iack_count(&mut self, node: NodeId, txn: TxnId, count: u32) -> bool {
        // A post can resolve a parked worm onto the resume queue.
        self.activate_nic(node.idx());
        !self.nics.post_iack_count(node.idx(), txn, count).is_no_space()
    }

    /// Take all messages delivered to `node` so far, oldest first.
    ///
    /// Convenience API for tests and examples: it scans the network-wide
    /// queue. The node model drains that queue in order with
    /// [`Network::next_delivery`].
    pub fn take_deliveries(&mut self, node: NodeId) -> Vec<Delivery> {
        self.nics.take_deliveries_to(node)
    }

    /// Pop the oldest undrained delivery at `node`, if any (a scan of the
    /// network-wide queue, like [`Network::take_deliveries`]).
    pub fn pop_delivery(&mut self, node: NodeId) -> Option<Delivery> {
        self.nics.pop_delivery_to(node)
    }

    /// Pop the oldest undrained delivery to any node. Deliveries queue in
    /// NIC order: by cycle, then ascending node, then consumption channel.
    pub fn next_delivery(&mut self) -> Option<Delivery> {
        self.nics.pop_delivery()
    }

    /// Advance one cycle.
    pub fn tick(&mut self) {
        self.now += 1;
        let now = self.now;
        // Commit completed link-load windows before any of this cycle's
        // traffic is stepped, so the meter's committed summaries depend
        // only on cycles `< now`.
        if let Some(m) = self.link_load.as_mut() {
            m.observe(now, &self.stats.link_busy);
        }

        // Phases 1-2 run over the routers active at the start of the
        // tick. Swapping the set with the all-zero scratch empties it, so
        // same-cycle deposits put a receiver in next cycle's set.
        std::mem::swap(&mut self.router_active, &mut self.work);
        let mut work = std::mem::take(&mut self.work);
        self.phase_heads(now, &work);
        self.phase_movement(now, &work);
        for r in members(&work) {
            if !self.routers.occ(r).is_empty() {
                self.activate_router(r);
            }
        }
        work.fill(0);

        // Phase 3 runs over the NICs active before the tick plus those
        // phases 1-2 activated; NICs activated during phase 3 land in
        // next cycle's set.
        std::mem::swap(&mut self.nic_active, &mut work);
        self.phase_nic(now, &work);
        for n in members(&work) {
            if self.nics.has_work(n) {
                self.activate_nic(n);
            }
        }
        work.fill(0);
        self.work = work;
    }

    // ------------------------------------------------------------------
    // Phase 1: head processing.
    // ------------------------------------------------------------------

    fn phase_heads(&mut self, now: Cycle, work: &[u64]) {
        for r in members(work) {
            // Walk only occupied slots in `Normal` mode, ascending
            // `(port, vc)` exactly like a full sweep. Processing a head
            // changes only its own slot's mode and moves no flit, so the
            // mask snapshot stays exact for the whole walk.
            let m = self.routers.masks(r);
            for slot in m.occ.and_not(m.busy).iter() {
                let (port, vc) = self.routers.port_vc(slot);
                self.process_head(now, r, port, vc);
            }
        }
    }

    fn process_head(&mut self, now: Cycle, r: usize, port: usize, vc: usize) {
        debug_assert_eq!(self.routers.mode(r, port, vc), VcMode::Normal);
        // `front_ready` is `Cycle::MAX` when the buffer is empty, so one
        // comparison covers both "nothing there" and "not eligible yet".
        if self.routers.front_ready(r, port, vc) > now {
            return;
        }
        let front = self.routers.front(r, port, vc).expect("ready head present");
        debug_assert_eq!(front.flit.kind, FlitKind::Head, "non-head at front of unallocated VC");
        let wid = front.flit.worm;
        let here = NodeId(r as u16);
        let hot = self.worms.hot(wid);

        if hot.next_dest == here {
            if hot.last {
                self.process_final_dest(r, port, vc, wid);
            } else if !hot.delivers {
                // Pure routing waypoint: strip the header hop and continue.
                self.worms.advance(wid);
                self.routers.set_front_ready(r, port, vc, now + self.cfg.strip_delay);
            } else {
                match hot.kind {
                    WormKind::Unicast => unreachable!("unicast has a single destination"),
                    WormKind::Multicast => {
                        self.process_multicast_intermediate(now, r, port, vc, wid, hot.reserve)
                    }
                    WormKind::Gather => self.process_gather_intermediate(now, r, port, vc, wid),
                }
            }
        } else {
            self.allocate_route(now, r, port, vc, wid, here, hot);
        }
    }

    /// Final destination: acquire a consumption channel and switch the VC
    /// toward the local port. An i-reserve worm does *not* reserve an i-ack
    /// entry at its final destination — that node initiates the i-gather
    /// and carries its own acknowledgement as the gather's initial count.
    fn process_final_dest(&mut self, r: usize, port: usize, vc: usize, wid: WormId) {
        let Some(cc) = self.nics.free_cons(r) else {
            self.stats.multicast_blocked_cycles += 1;
            return;
        };
        self.nics.reserve_cons(r, cc, wid, false);
        self.worms.get_mut(wid).copies += 1;
        self.routers.set_mode(
            r,
            port,
            vc,
            VcMode::Active { out_port: LOCAL8, out_vc: cc as u8, absorb: None },
        );
    }

    /// Intermediate destination of a multicast: acquire the i-ack entry
    /// (i-reserve worms) and an absorb consumption channel, strip the
    /// header, and continue routing next cycle.
    fn process_multicast_intermediate(
        &mut self,
        now: Cycle,
        r: usize,
        port: usize,
        vc: usize,
        wid: WormId,
        reserve: bool,
    ) {
        if reserve && !self.nics.reserve_iack(r, self.worms.get(wid).txn()) {
            self.stats.multicast_blocked_cycles += 1;
            return;
        }
        let Some(cc) = self.nics.free_cons(r) else {
            self.stats.multicast_blocked_cycles += 1;
            return;
        };
        self.nics.reserve_cons(r, cc, wid, true);
        self.worms.get_mut(wid).copies += 1;
        self.routers.set_pending_absorb(r, port, vc, cc);
        self.worms.advance(wid);
        self.routers.set_front_ready(r, port, vc, now + self.cfg.strip_delay);
    }

    /// Intermediate destination of a gather: check the i-ack buffer;
    /// absorb-and-go, block, or park.
    fn process_gather_intermediate(
        &mut self,
        now: Cycle,
        r: usize,
        port: usize,
        vc: usize,
        wid: WormId,
    ) {
        let (txn, len) = {
            let w = self.worms.get(wid);
            (w.txn(), w.len_flits())
        };
        match self.nics.gather_check(r, txn) {
            GatherCheck::Ready(count) => {
                self.worms.get_mut(wid).acks += count;
                self.worms.advance(wid);
                self.routers.set_front_ready(r, port, vc, now + self.cfg.iack_check_delay);
            }
            GatherCheck::NotReady => match self.cfg.iack_mode {
                IackMode::Block => {
                    self.stats.gather_blocked_cycles += 1;
                }
                IackMode::VctDefer => {
                    if let Some(entry) = self.nics.park(r, txn, wid, len) {
                        self.routers.set_mode(
                            r,
                            port,
                            vc,
                            VcMode::DrainPark { entry: entry as u8 },
                        );
                        self.worms.get_mut(wid).state = WormState::Parked(NodeId(r as u16));
                        self.stats.parks += 1;
                    } else if let Some(cc) = self.nics.free_cons(r) {
                        // No entry to park in: *bounce* — consume the worm
                        // at this node and re-inject it, so it never holds
                        // network channels while waiting (holding them can
                        // deadlock the reply network against the very
                        // gathers that would free the entries).
                        self.nics.reserve_cons(r, cc, wid, false);
                        self.worms.get_mut(wid).copies += 1;
                        self.worms.get_mut(wid).bounced = true;
                        self.routers.set_mode(
                            r,
                            port,
                            vc,
                            VcMode::Active { out_port: LOCAL8, out_vc: cc as u8, absorb: None },
                        );
                        self.stats.bounces += 1;
                    } else {
                        self.stats.gather_blocked_cycles += 1;
                    }
                }
            },
        }
    }

    /// Promoted from a panic: a head with no legal direction toward its
    /// next destination (a non-conformant path) records a violation and
    /// stays put.
    #[cold]
    fn head_has_no_route(&mut self, wid: WormId, here: NodeId, hot: WormHot) {
        if self.violation.is_none() {
            self.violation = Some(format!(
                "worm {} at {here} cannot reach {} under {:?} (turned={}): non-conformant path",
                wid.0,
                hot.next_dest,
                self.cfg.rule_for(hot.vnet),
                hot.turned
            ));
        }
    }

    /// Output VC allocation from the precomputed next-hop table.
    #[allow(clippy::too_many_arguments)]
    fn allocate_route(
        &mut self,
        now: Cycle,
        r: usize,
        port: usize,
        vc: usize,
        wid: WormId,
        here: NodeId,
        hot: WormHot,
    ) {
        let WormHot { next_dest: dest, vnet, turned, .. } = hot;
        let mask = self.tables[vnet.index()].mask(here, dest, turned);
        if mask == 0 {
            self.head_has_no_route(wid, here, hot);
            return;
        }
        let (lo, hi) = self.cfg.vc_class(vnet);
        // Among legal directions (canonical X-before-Y order), pick the
        // (dir, vc) with the most credits.
        let mut best: Option<(usize, usize, usize)> = None; // (out_port, out_vc, credit)
        for dir in Direction::ALL {
            if mask & (1 << dir.index()) == 0 {
                continue;
            }
            let out_port = dir.index();
            if let Some((ovc, cr)) = self.routers.best_free_out_vc(r, out_port, lo, hi) {
                if best.is_none_or(|(_, _, bc)| cr > bc) {
                    best = Some((out_port, ovc, cr));
                }
            }
        }
        let Some((out_port, out_vc, _)) = best else { return };
        let absorb = self.routers.take_pending_absorb(r, port, vc);
        self.routers.set_mode(
            r,
            port,
            vc,
            VcMode::Active { out_port: out_port as u8, out_vc: out_vc as u8, absorb },
        );
        self.routers.set_alloc(r, out_port, out_vc, Some((port, vc)));
        if self.trace.wants(TraceClass::Flit) {
            self.trace.push(
                now,
                TraceKind::WormRoute {
                    worm: wid.0 as u64,
                    node: here.idx() as u32,
                    port: out_port as u32,
                },
            );
        }
    }

    // ------------------------------------------------------------------
    // Phase 2: movement.
    // ------------------------------------------------------------------

    fn phase_movement(&mut self, now: Cycle, work: &[u64]) {
        for r in members(work) {
            if self.routers.occ(r).is_empty() {
                continue;
            }
            let mut used_in_port = [false; NUM_PORTS];

            // Contention accounting: scan the pre-movement state so every
            // allocated output VC whose ready flit cannot move for lack of
            // downstream credits books one stall cycle this cycle.
            if self.probe.is_some() {
                for slot in self.routers.masks(r).alloc.iter() {
                    let (out_port, vc) = self.routers.port_vc(slot);
                    if self.routers.credit_starved(now, r, out_port, vc) {
                        let link = r * 4 + out_port;
                        self.probe.as_deref_mut().expect("checked").record_stall(now, link, vc);
                    }
                }
            }

            // Link outputs (E, W, N, S): one flit per port per cycle, among
            // the port's allocated output VCs only.
            for out_port in 0..4 {
                let cand = self.routers.masks(r).alloc.and(self.routers.port_mask(out_port));
                if cand.is_empty() {
                    continue;
                }
                let winner = self.pick_link_winner(now, r, out_port, cand, &used_in_port);
                if let Some((in_port, in_vc, out_vc)) = winner {
                    used_in_port[in_port] = true;
                    let in_slot = in_port * self.routers.vcs() + in_vc;
                    self.routers.set_rr_after(r, out_port, in_slot);
                    self.apply_forward(now, r, in_port, in_vc, out_port, out_vc);
                }
            }

            // Local consumption: one flit per consumption channel per
            // cycle, over the occupied slots that drain to the local port.
            // The mask ascends `(port, vc)` like the full sweep; the
            // used-port flag keeps one consume per input port.
            let m = self.routers.masks(r);
            for slot in m.occ.and(m.local).iter() {
                let (in_port, in_vc) = self.routers.port_vc(slot);
                if used_in_port[in_port] {
                    continue;
                }
                let VcMode::Active { out_vc: cc, .. } = self.routers.mode(r, in_port, in_vc) else {
                    unreachable!("local mask marks an input not Active toward LOCAL")
                };
                let cc = cc as usize;
                if self.routers.front_ready(r, in_port, in_vc) > now {
                    continue;
                }
                self.apply_consume(r, in_port, in_vc, cc);
                used_in_port[in_port] = true;
            }

            // Parked gather drains: absorbed at the router interface, no
            // crossbar involvement.
            let m = self.routers.masks(r);
            for slot in m.occ.and(m.park).iter() {
                let (in_port, in_vc) = self.routers.port_vc(slot);
                let VcMode::DrainPark { entry } = self.routers.mode(r, in_port, in_vc) else {
                    unreachable!("park mask marks an input not in DrainPark")
                };
                if self.routers.front_ready(r, in_port, in_vc) > now {
                    continue;
                }
                self.apply_park_drain(r, in_port, in_vc, entry as usize);
            }
        }
    }

    /// Round-robin arbitration for a link output port: pick the eligible
    /// input VC at-or-after the RR pointer among the output slots in
    /// `cand` (the port's allocated VCs). Returns `(in_port, in_vc,
    /// out_vc)` of the winner.
    fn pick_link_winner(
        &self,
        now: Cycle,
        r: usize,
        out_port: usize,
        cand: BitSet128,
        used_in_port: &[bool; NUM_PORTS],
    ) -> Option<(usize, usize, usize)> {
        // (rr-distance key, (in_port, in_vc, out_vc))
        let mut best: Option<(usize, (usize, usize, usize))> = None;
        let rr = self.routers.rr(r, out_port);
        let total = self.routers.slots();
        let vcs = self.routers.vcs();
        for out_slot in cand.iter() {
            let (_, out_vc) = self.routers.port_vc(out_slot);
            let (in_port, in_vc) =
                self.routers.alloc(r, out_port, out_vc).expect("alloc mask marks an allocation");
            if used_in_port[in_port] || self.routers.credit(r, out_port, out_vc) == 0 {
                continue;
            }
            if self.routers.front_ready(r, in_port, in_vc) > now {
                continue;
            }
            // Distance from the RR pointer, both in `0..total`.
            let in_slot = in_port * vcs + in_vc;
            let key = if in_slot >= rr { in_slot - rr } else { in_slot + total - rr };
            if best.is_none_or(|(bk, _)| key < bk) {
                best = Some((key, (in_port, in_vc, out_vc)));
            }
        }
        best.map(|(_, m)| m)
    }

    #[allow(clippy::too_many_arguments)]
    fn apply_forward(
        &mut self,
        now: Cycle,
        r: usize,
        in_port: usize,
        in_vc: usize,
        out_port: usize,
        out_vc: usize,
    ) {
        let bf = self.routers.pop(r, in_port, in_vc);
        let flit = bf.flit;
        let dir = Direction::ALL[out_port];

        // Absorb copy (forward-and-absorb).
        if let VcMode::Active { absorb: Some(cc), .. } = self.routers.mode(r, in_port, in_vc) {
            self.consume(r, cc as usize, flit);
        }

        // Stats + credits.
        self.stats.flit_hops += 1;
        self.stats.link_busy[r * 4 + out_port] += 1;
        if let Some(p) = self.probe.as_deref_mut() {
            p.record_forward(now, r * 4 + out_port, out_vc);
        }
        self.routers.take_credit(r, out_port, out_vc);
        self.return_credit(r, in_port, in_vc);

        // Head bookkeeping: the worm may enter its "turned" phase.
        if flit.kind == FlitKind::Head {
            let rule = self.cfg.rule_for(self.worms.hot(flit.worm).vnet);
            let turns = match rule {
                PathRule::XY => matches!(dir, Direction::North | Direction::South),
                PathRule::YX => matches!(dir, Direction::East | Direction::West),
                PathRule::WestFirst => dir != Direction::West,
                PathRule::EastFirst => dir != Direction::East,
            };
            if turns {
                self.worms.set_turned(flit.worm, true);
            }
        }

        // Deposit downstream. The flit becomes eligible after the router
        // delay (heads) or one link cycle (bodies), so it never moves
        // again this cycle.
        let nb = self.neighbors[r][out_port];
        assert!(nb != NO_NEIGHBOR, "route computation never leaves the mesh");
        let nb = nb as usize;
        let in_port_nb = dir.opposite().index();
        self.routers.deposit(nb, in_port_nb, out_vc, flit, now);
        self.activate_router(nb);

        // Tail releases allocations.
        if flit.kind == FlitKind::Tail {
            self.routers.set_mode(r, in_port, in_vc, VcMode::Normal);
            self.routers.set_alloc(r, out_port, out_vc, None);
        }
    }

    fn apply_consume(&mut self, r: usize, in_port: usize, in_vc: usize, cc: usize) {
        let bf = self.routers.pop(r, in_port, in_vc);
        self.consume(r, cc, bf.flit);
        self.return_credit(r, in_port, in_vc);
        if bf.flit.kind == FlitKind::Tail {
            self.routers.set_mode(r, in_port, in_vc, VcMode::Normal);
        }
    }

    /// One flit enters consumption channel `cc` of node `r`. A flit of
    /// any worm but the channel's owner, or one that finds the channel
    /// still holding an undrained flit, means the consumption bookkeeping
    /// is corrupt: record it (always, release builds included) and carry
    /// on, so the dump shows both ids.
    fn consume(&mut self, r: usize, cc: usize, flit: Flit) {
        if let Err(found) = self.nics.cons_push(r, cc, flit) {
            self.violation.get_or_insert_with(|| match found.owner() {
                Some(w) if w == flit.worm => format!(
                    "consumption channel {cc} at node {r} received a flit of worm {} before \
                     draining the last",
                    w.0
                ),
                owner => {
                    let owner = owner.map_or("no worm".to_string(), |w| format!("worm {}", w.0));
                    format!(
                        "consumption channel {cc} at node {r} received a flit of worm {} but is \
                         owned by {owner}",
                        flit.worm.0
                    )
                }
            });
        }
        self.stats.flits_consumed += 1;
        self.activate_nic(r);
    }

    fn apply_park_drain(&mut self, r: usize, in_port: usize, in_vc: usize, entry: usize) {
        let bf = self.routers.pop(r, in_port, in_vc);
        self.return_credit(r, in_port, in_vc);
        let is_tail = bf.flit.kind == FlitKind::Tail;
        if self.nics.park_drain(r, entry, is_tail).is_some() {
            // Park resolved onto the resume queue.
            self.activate_nic(r);
        }
        if is_tail {
            self.routers.set_mode(r, in_port, in_vc, VcMode::Normal);
        }
    }

    /// Return one credit to the upstream router for the vacated slot
    /// (same-cycle credit return; see the module docs).
    fn return_credit(&mut self, r: usize, in_port: usize, in_vc: usize) {
        if in_port == LOCAL {
            return; // NIC injection checks buffer space directly.
        }
        let up = self.neighbors[r][in_port];
        assert!(up != NO_NEIGHBOR, "input port faces a neighbor");
        let up_out = Direction::ALL[in_port].opposite().index();
        self.routers.add_credit(up as usize, up_out, in_vc);
    }

    // ------------------------------------------------------------------
    // Phase 3: NIC work.
    // ------------------------------------------------------------------

    fn phase_nic(&mut self, now: Cycle, work: &[u64]) {
        for n in members(work) {
            self.nic_flush_deposits(n);
            self.nic_drain(now, n);
            self.nic_resume(n);
            self.nic_inject(now, n);
        }
    }

    /// Retry deposits that previously found the i-ack buffer full.
    /// Rotates the queue in place (one pass, no fresh queue allocation):
    /// failed retries go to the back, preserving relative order.
    fn nic_flush_deposits(&mut self, n: usize) {
        for _ in 0..self.nics.pending_len(n) {
            let (txn, acks) = self.nics.pop_pending(n).expect("counted");
            if self.nics.post_iack_count(n, txn, acks).is_no_space() {
                self.nics.push_pending(n, txn, acks);
            } else {
                self.stats.deposits += 1;
            }
        }
    }

    /// Drain one flit per consumption channel; complete a worm's copy
    /// when its tail drains.
    fn nic_drain(&mut self, now: Cycle, n: usize) {
        for cc in 0..self.cfg.cons_channels {
            let Some(done) = self.nics.cons_pop(n, cc) else { continue };
            // An unowned channel's flits were reported as they arrived.
            let Some(wid) = done.owner() else { continue };
            let absorb = done.absorb();
            let node = NodeId(n as u16);

            let (src, payload, txn, acks, deposit, bounced, queued_at) = {
                let w = self.worms.get(wid);
                (w.src(), w.payload(), w.txn(), w.acks, w.gather_deposit(), w.bounced, w.queued_at)
            };

            if absorb {
                // Absorbed copy at an intermediate destination.
                self.nics.push_delivery(Delivery {
                    node,
                    worm: wid,
                    src,
                    payload,
                    acks: 0,
                    at: now,
                    txn,
                });
                self.stats.deliveries += 1;
                self.copy_drained(now, wid, n, None);
                continue;
            }

            if bounced {
                // Bounced gather fully drained: requeue it at this NIC;
                // it retries its i-ack check from here.
                let w = self.worms.get_mut(wid);
                w.copies -= 1;
                w.bounced = false;
                w.state = WormState::Queued;
                let vnet = w.vnet();
                self.worms.set_turned(wid, false);
                self.nics.enqueue(n, vnet, wid, &mut self.worms);
                continue;
            }

            // Final consumption.
            let latency = (now - queued_at) as f64;
            if deposit {
                // First-level gather of the two-phase scheme: deposit the
                // accumulated count into the local i-ack buffer. A full
                // buffer queues the deposit for per-cycle retry — a
                // pending deposit whose sweep has already parked resolves
                // into the parked entry without needing a free slot, so
                // the queue always drains.
                if self.nics.post_iack_count(n, txn, acks).is_no_space() {
                    self.stats.deposit_retries += 1;
                    self.nics.push_pending(n, txn, acks);
                } else {
                    self.stats.deposits += 1;
                }
            } else {
                self.nics.push_delivery(Delivery {
                    node,
                    worm: wid,
                    src,
                    payload,
                    acks,
                    at: now,
                    txn,
                });
                self.stats.deliveries += 1;
            }
            self.copy_drained(now, wid, n, Some(latency));
        }
    }

    /// Account one drained copy of worm `wid` at `node`: an absorb copy
    /// (`final_latency = None`) or the final consumption, which delivers
    /// the worm and records its latency. Retires the worm's slot once no
    /// copies remain.
    fn copy_drained(&mut self, now: Cycle, wid: WormId, node: usize, final_latency: Option<f64>) {
        if self.trace.wants(TraceClass::Flit) {
            let txn = self.worms.get(wid).txn().0;
            self.trace.push(
                now,
                TraceKind::WormDeliver {
                    worm: wid.0 as u64,
                    txn,
                    node: node as u32,
                    is_final: final_latency.is_some(),
                    latency: final_latency.unwrap_or(0.0) as u64,
                },
            );
        }
        let w = self.worms.get_mut(wid);
        w.copies -= 1;
        if let Some(latency) = final_latency {
            w.state = WormState::Delivered;
            self.live_worms -= 1;
            match w.kind() {
                WormKind::Unicast => self.stats.unicast_latency.record(latency),
                WormKind::Multicast => self.stats.multicast_latency.record(latency),
                WormKind::Gather => self.stats.gather_latency.record(latency),
            }
        }
        if w.state == WormState::Delivered && w.copies == 0 {
            self.worms.retire(wid);
        }
    }

    /// Re-inject parked gather worms whose ack arrived.
    fn nic_resume(&mut self, n: usize) {
        while let Some((wid, count)) = self.nics.pop_resume(n) {
            let vnet = {
                let w = self.worms.get_mut(wid);
                w.acks += count;
                w.state = WormState::Queued;
                w.vnet()
            };
            self.worms.advance(wid);
            self.worms.set_turned(wid, false);
            self.nics.enqueue(n, vnet, wid, &mut self.worms);
            self.stats.resumes += 1;
        }
    }

    /// Stream injection-queue worms into the router's local input port.
    fn nic_inject(&mut self, now: Cycle, n: usize) {
        let vcs = self.cfg.vcs_total();
        for vc in 0..vcs {
            // Start a new stream if this VC is idle and a worm of its
            // virtual-network class is waiting.
            if self.nics.streaming(n, vc).is_none() {
                let vnet = self.cfg.vnet_of(vc);
                if let Some(wid) = self.nics.pop_inject(n, vnet, &mut self.worms) {
                    let len = self.worms.get(wid).len_flits();
                    self.nics.set_streaming(
                        n,
                        vc,
                        Some(StreamState { worm: wid, next_seq: 0, len }),
                    );
                }
            }
            let Some(mut st) = self.nics.streaming(n, vc) else { continue };
            if self.routers.space(n, LOCAL, vc) == 0 {
                continue;
            }
            let flit = Flit::nth(st.worm, st.next_seq, st.len);
            self.routers.deposit(n, LOCAL, vc, flit, now);
            self.activate_router(n);
            self.stats.flits_injected += 1;
            if flit.kind == FlitKind::Head {
                self.worms.get_mut(st.worm).state = WormState::InFlight;
            }
            st.next_seq += 1;
            self.nics.set_streaming(n, vc, if st.next_seq == st.len { None } else { Some(st) });
        }
    }

    /// True when ticking would be a complete no-op: no worms live anywhere
    /// and no NIC has queued work (deposit retries included). Undrained
    /// deliveries don't matter — `tick` never touches them.
    pub fn fully_idle(&self) -> bool {
        self.live_worms == 0
            && self.router_active.iter().all(|&w| w == 0)
            && self.nic_active.iter().all(|&w| w == 0)
    }

    /// Jump the clock to `t` without ticking. Only legal when
    /// [`Network::fully_idle`] holds, in which case every skipped tick is
    /// provably a no-op and the jump is bit-identical to ticking.
    ///
    /// An illegal jump (non-idle network, or `t` in the past) is refused
    /// and recorded as an invariant violation — promoted from a
    /// `debug_assert!` so release runs fail loudly instead of silently
    /// teleporting in-flight flits through time.
    pub fn advance_to(&mut self, t: Cycle) {
        if !self.fully_idle() {
            self.violation.get_or_insert_with(|| {
                format!(
                    "advance_to({t}) on a non-idle network at cycle {} ({} live worms)",
                    self.now, self.live_worms
                )
            });
            return;
        }
        if t < self.now {
            self.violation
                .get_or_insert_with(|| format!("advance_to({t}) goes backwards from {}", self.now));
            return;
        }
        self.now = t;
    }

    /// Serialize the network's full dynamic state: routers, NICs (the
    /// delivery queue included), worm table, clock, live-worm count,
    /// worklist bitsets, statistics and the sticky violation.
    /// Configuration, routing tables and observers (flight recorder,
    /// contention probe) are *not* saved — the loader rebuilds them from
    /// its own [`MeshConfig`], which must match the saving side's
    /// (validated by the caller; `DsmSystem` gates on a config
    /// fingerprint).
    pub fn save_state(&self, w: &mut SnapWriter) {
        w.put_u64(self.now);
        self.routers.save_state(w);
        self.nics.save_state(w, &self.worms);
        self.worms.save(w);
        w.put_usize(self.live_worms);
        self.router_active.save(w);
        self.nic_active.save(w);
        self.stats.save(w);
        self.violation.save(w);
        // The link-load meter is plan-affecting simulated state (adaptive
        // schemes read its committed summaries), unlike the pure
        // observers above — it must resume exactly where it left off.
        match &self.link_load {
            None => w.put_bool(false),
            Some(m) => {
                w.put_bool(true);
                m.save(w);
            }
        }
    }

    /// Load a [`Network::save_state`] stream into this network, which
    /// must be as [`Network::new`] built it from the saving side's
    /// configuration (a link-load meter attached or not: the stream says
    /// which it holds), cross-validating the stream's geometry against
    /// the configuration. Trace and probe state stay fresh (callers
    /// re-apply). Loading in place holds one network's slabs at a time
    /// instead of two. On an error the network is partly loaded and must
    /// be dropped.
    pub fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        debug_assert!(self.now == 0 && self.live_worms == 0, "loading into a used network");
        let nodes = self.cfg.mesh.nodes();
        self.now = r.get_u64()?;
        self.routers.load_state(r)?;
        let queued = self.nics.load_state(r)?;
        self.worms = WormTable::load(r)?;
        self.live_worms = r.get_usize()?;
        self.router_active = load_node_set(r, nodes, "router")?;
        self.nic_active = load_node_set(r, nodes, "NIC")?;
        self.stats = NetStats::load(r)?;
        self.violation = Option::load(r)?;
        self.link_load = if r.get_bool()? {
            let m = LinkLoadMeter::load(r)?;
            if m.prev.len() != nodes * 4 || m.committed.len() != nodes * 4 {
                return Err(SnapError::Mismatch(
                    "link-load meter slabs mismatch node count".into(),
                ));
            }
            Some(Box::new(m))
        } else {
            None
        };
        if self.stats.link_busy.len() != nodes * 4 {
            return Err(SnapError::Mismatch("snapshot link stats mismatch node count".into()));
        }
        let table = self.worms.len();
        let dangling =
            self.routers.worm_ids().chain(self.nics.worm_ids()).find(|id| id.0 as usize >= table);
        if let Some(id) = dangling {
            return Err(SnapError::Corrupt(format!(
                "worm id {} named outside a table of {table}",
                id.0
            )));
        }
        self.nics.link_queues(&queued, &mut self.worms).map_err(SnapError::Corrupt)?;
        self.worms.check(nodes).map_err(SnapError::Corrupt)?;
        if let Some(d) =
            self.nics.undrained().find(|d| d.node.idx() >= nodes || d.src.idx() >= nodes)
        {
            return Err(SnapError::Corrupt(format!("{d:?} names a node outside the mesh")));
        }
        self.check_credits().map_err(SnapError::Corrupt)?;
        self.check_worm_accounting().map_err(SnapError::Corrupt)?;
        self.check_clocks().map_err(SnapError::Corrupt)
    }

    /// The first worm whose accounting a loaded network breaks: the live
    /// count must be the number of worms not yet delivered, and each
    /// worm's `copies` the number of consumption channels it owns (a
    /// drain releases the one and decrements the other).
    fn check_worm_accounting(&self) -> Result<(), String> {
        let live = self.worms.iter().filter(|w| w.state != WormState::Delivered).count();
        if live != self.live_worms {
            return Err(format!("{} live worms, {live} not delivered", self.live_worms));
        }
        let mut owned = vec![0u32; self.worms.len()];
        for n in 0..self.cfg.mesh.nodes() {
            for cc in 0..self.cfg.cons_channels {
                if let Some(w) = self.nics.cons_owner(n, cc) {
                    owned[w.0 as usize] += 1;
                }
            }
        }
        match self.worms.iter().zip(&owned).position(|(w, &o)| w.copies != o) {
            Some(i) => Err(format!(
                "worm {i}: {} copies, {} consumption channels",
                self.worms.get(WormId(i as u32)).copies,
                owned[i]
            )),
            None => Ok(()),
        }
    }

    /// The first clock or counter in a loaded network that stepping it
    /// could overflow: the clock past [`MAX_CLOCK`], a worm queued or a
    /// buffered flit deposited after it, a statistics counter past
    /// [`counter_limit`], or a link-load meter whose window boundary lies
    /// more than a window ahead or whose last reading exceeds the link's
    /// busy count.
    fn check_clocks(&self) -> Result<(), String> {
        let now = self.now;
        if now > MAX_CLOCK {
            return Err(format!("network clock {now} past the last cycle a run reaches"));
        }
        if let Some(w) = self.worms.iter().find(|w| w.queued_at > now) {
            return Err(format!("a worm queued at cycle {}, after cycle {now}", w.queued_at));
        }
        if let Some(at) = self.routers.newest_deposit().filter(|&at| at > now) {
            return Err(format!("a router FIFO flit deposited at cycle {at}, after cycle {now}"));
        }
        let limit = counter_limit(now, self.cfg.mesh.nodes());
        if self.stats.max_count() > limit {
            return Err(format!(
                "a network counter of {} by cycle {now}, past {limit}",
                self.stats.max_count()
            ));
        }
        if let Some(m) = &self.link_load {
            if m.next_boundary > now.saturating_add(m.window) || m.commits > limit {
                return Err(format!(
                    "link-load meter at boundary {} after {} commits, by cycle {now}",
                    m.next_boundary, m.commits
                ));
            }
            if m.prev.iter().zip(&self.stats.link_busy).any(|(p, b)| p > b) {
                return Err("link-load meter read more busy cycles than a link had".to_string());
            }
        }
        Ok(())
    }

    /// Run until quiescent or `max` additional cycles elapse; uses a
    /// watchdog so a deadlock reports instead of spinning forever.
    pub fn run_until_quiescent(&mut self, max: Cycle) -> Result<Cycle, NoProgress> {
        let mut wd = Watchdog::new(10_000.min(max));
        let mut last_live = self.live_worms;
        let mut last_hops = self.stats.flit_hops;
        let deadline = self.now + max;
        wd.progress(self.now);
        while !self.quiescent() {
            if self.now >= deadline {
                return Err(NoProgress { since: self.now, now: self.now, limit: max });
            }
            self.tick();
            if self.live_worms != last_live || self.stats.flit_hops != last_hops {
                last_live = self.live_worms;
                last_hops = self.stats.flit_hops;
                wd.progress(self.now);
            }
            wd.check(self.now)?;
        }
        Ok(self.now)
    }
}

impl Snap for LinkLoadMeter {
    fn save(&self, w: &mut SnapWriter) {
        w.put_u64(self.window);
        w.put_u64(self.next_boundary);
        self.prev.save(w);
        self.committed.save(w);
        w.put_u64(self.commits);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let window = r.get_u64()?;
        if window == 0 {
            return Err(SnapError::Corrupt("link-load meter window 0".into()));
        }
        Ok(Self {
            window,
            next_boundary: r.get_u64()?,
            prev: Vec::load(r)?,
            committed: Vec::load(r)?,
            commits: r.get_u64()?,
        })
    }
}

snap_struct!(NetStats {
    flit_hops,
    flits_injected,
    flits_consumed,
    worms_injected,
    deliveries,
    gather_blocked_cycles,
    multicast_blocked_cycles,
    parks,
    bounces,
    resumes,
    deposits,
    deposit_retries,
    link_busy,
    unicast_latency,
    multicast_latency,
    gather_latency,
    worm_slots_reused,
});

#[cfg(test)]
mod tests {
    use super::*;
    use wormdsm_sim::Rng;

    #[test]
    fn validate_rejects_a_fifo_deeper_than_the_ring_index() {
        let mut cfg = MeshConfig::paper_defaults(4);
        cfg.vc_buf_flits = RouterSlab::MAX_VC_CAP;
        assert_eq!(cfg.validate(), Ok(()));
        cfg.vc_buf_flits = RouterSlab::MAX_VC_CAP + 1;
        let e = cfg.validate().unwrap_err();
        assert!(e.contains("vc_buf_flits must be <="), "{e}");
    }

    #[test]
    fn validate_rejects_a_router_delay_past_the_gap_byte() {
        let mut cfg = MeshConfig::paper_defaults(4);
        cfg.router_delay = RouterSlab::MAX_ROUTER_DELAY;
        assert_eq!(cfg.validate(), Ok(()));
        cfg.router_delay = RouterSlab::MAX_ROUTER_DELAY + 1;
        let e = cfg.validate().unwrap_err();
        assert!(
            e.contains("router_delay must be <= 256 (got 257)") && e.contains("one byte"),
            "{e}"
        );
    }

    #[test]
    fn validate_rejects_a_vc_count_whose_slot_count_overflows() {
        let mut cfg = MeshConfig::paper_defaults(4);
        cfg.vcs_per_vnet = usize::MAX;
        let e = cfg.validate().unwrap_err();
        assert!(e.contains("occupancy bitset"), "{e}");
    }

    #[test]
    fn validate_rejects_a_fifo_slab_whose_size_overflows() {
        let mut cfg = MeshConfig::paper_defaults(64);
        cfg.vc_buf_flits = usize::MAX / 8;
        let e = cfg.validate().unwrap_err();
        assert!(e.contains("FIFO slab") && e.contains("overflows"), "{e}");
    }

    fn save(net: &Network) -> Vec<u8> {
        let mut w = SnapWriter::new();
        net.save_state(&mut w);
        w.finish()
    }

    fn load(cfg: &MeshConfig, bytes: &[u8]) -> Result<Network, SnapError> {
        let mut net = Network::new(cfg.clone());
        net.load_state(&mut SnapReader::new(bytes)?)?;
        Ok(net)
    }

    /// Unicasts and column multicasts on a 6x6 mesh with 3-flit FIFOs, so
    /// the rings wrap within a few worms.
    fn busy_network() -> (MeshConfig, Network) {
        let k = 6;
        let cfg = MeshConfig { vc_buf_flits: 3, ..MeshConfig::paper_defaults(k) };
        let mut net = Network::new(cfg.clone());
        let mut rng = Rng::new(0x5A0_0005);
        let mesh = cfg.mesh;
        for i in 0..60 {
            if i % 4 == 0 {
                let col = rng.index(k);
                let dests: Vec<NodeId> = [2, 3, 5].iter().map(|&y| mesh.node_at(col, y)).collect();
                net.inject(WormSpec {
                    src: mesh.node_at(rng.index(k), 0),
                    vnet: VNet::Req,
                    kind: WormKind::Multicast,
                    dests,
                    len_flits: 9,
                    payload: i,
                    reserve_iack: false,
                    txn: TxnId(0),
                    initial_acks: 0,
                    gather_deposit: false,
                    deliver: None,
                });
            } else {
                let src = rng.below(36) as u16;
                let dst = (src + 1 + rng.below(35) as u16) % 36;
                let vnet = if rng.chance(0.5) { VNet::Reply } else { VNet::Req };
                let len = rng.range(3, 14) as u16;
                net.inject(WormSpec::unicast(NodeId(src), NodeId(dst), vnet, len, i));
            }
        }
        (cfg, net)
    }

    fn finish(net: &mut Network) -> (Registry, Vec<Vec<Delivery>>) {
        net.run_until_quiescent(1_000_000).expect("quiesces");
        assert!(net.violation().is_none(), "{:?}", net.violation());
        let nodes = net.cfg.mesh.nodes();
        let delivered = (0..nodes).map(|n| net.take_deliveries(NodeId(n as u16))).collect();
        (net.stats().export(net.now()), delivered)
    }

    /// A snapshot taken while FIFO rings are wrapped, the router and NIC
    /// worklists are non-empty, and deliveries wait undrained resumes
    /// bit-identically.
    #[test]
    fn snapshot_with_wrapped_fifos_and_live_worklists_resumes_bit_identically() {
        let (cfg, mut a) = busy_network();
        let mut wd = 0;
        let live = |set: &[u64]| set.iter().any(|&w| w != 0);
        while !(a.routers.wrapped_fifos() > 0
            && live(&a.router_active)
            && live(&a.nic_active)
            && a.nics.undrained().next().is_some())
        {
            a.tick();
            wd += 1;
            assert!(wd < 5_000, "traffic never wrapped a FIFO with every worklist live");
        }
        let bytes = save(&a);
        let mut b = load(&cfg, &bytes).expect("loads");
        b.check_router_slab().expect("rebuilt masks are consistent");
        assert_eq!(save(&b), bytes, "the restored network saves the same stream");
        let now = a.now();
        let (stats_a, del_a) = finish(&mut a);
        let (stats_b, del_b) = finish(&mut b);
        assert!(a.now() > now);
        assert_eq!(a.now(), b.now());
        assert_eq!(stats_a, stats_b);
        assert_eq!(del_a, del_b);
        assert_eq!(save(&a), save(&b));
    }

    /// A worm table that mixes plain unicasts (queued, in flight and
    /// retired), unicasts that carry acks or deposit them, multicasts with
    /// waypoints and gathers saves, loads and saves again to the same
    /// bytes, and every plain unicast comes back compact.
    #[test]
    fn a_mixed_worm_table_round_trips_and_plain_unicasts_load_compact() {
        let cfg = MeshConfig::paper_defaults(6);
        let mut net = Network::new(cfg.clone());
        let mesh = cfg.mesh;
        let mut rng = Rng::new(0x3A1D_0010);
        for i in 0..60u64 {
            let col = rng.index(6);
            let column = |ys: &[usize]| ys.iter().map(|&y| mesh.node_at(col, y)).collect();
            let src = NodeId(rng.below(36) as u16);
            let dst = NodeId(((src.0 as u64 + 1 + rng.below(35)) % 36) as u16);
            let plain = WormSpec::unicast(src, dst, VNet::Req, rng.range(2, 10) as u16, i);
            let spec = match i % 6 {
                0 => WormSpec {
                    src: mesh.node_at(col, 0),
                    kind: WormKind::Multicast,
                    dests: column(&[2, 3, 5]),
                    deliver: Some(vec![false, true, true]),
                    ..plain
                },
                1 => WormSpec {
                    src: mesh.node_at(col, 0),
                    vnet: VNet::Reply,
                    kind: WormKind::Gather,
                    dests: column(&[2, 4]),
                    txn: TxnId(100 + i),
                    initial_acks: 1,
                    ..plain
                },
                2 => WormSpec { txn: TxnId(100 + i), initial_acks: 2, ..plain },
                3 => WormSpec { txn: TxnId(100 + i), gather_deposit: true, ..plain },
                _ => plain,
            };
            net.inject(spec);
        }
        let plain_in = |net: &Network, state: WormState| {
            net.worms.iter().any(|w| w.is_plain() && w.state == state)
        };
        let mut wd = 0;
        while !(plain_in(&net, WormState::Queued)
            && plain_in(&net, WormState::InFlight)
            && plain_in(&net, WormState::Delivered))
        {
            net.tick();
            wd += 1;
            assert!(wd < 5_000, "never held queued, in-flight and retired unicasts at once");
        }
        let bytes = save(&net);
        let back = load(&cfg, &bytes).expect("loads");
        assert_eq!(save(&back), bytes, "save, load, save is a fixed point");
        let forms = |net: &Network| net.worms.iter().map(Worm::is_plain).collect::<Vec<_>>();
        assert_eq!(forms(&back), forms(&net));
        for w in back.worms.iter() {
            assert_eq!(w.is_plain(), Unicast::of(&w.spec()).is_some(), "{w:?}");
        }
        let routed = back.worms.iter().filter(|w| !w.is_plain()).count();
        assert!(routed >= 30 && routed < back.worms.len(), "{routed} of {}", back.worms.len());
    }

    /// A worm id past the table, named by a buffered flit, a NIC queue or
    /// a consumption channel, a link whose credits and downstream flits do
    /// not make its depth, and a delivery to a node outside the mesh are
    /// refused at load instead of panicking once ticked.
    #[test]
    fn load_rejects_dangling_worm_ids_and_unbalanced_credits() {
        type Corrupt = fn(&mut Network);
        let corrupt: [(Corrupt, &str); 6] = [
            (
                // The last worm of a queue links on to a worm past the
                // table, the saved queue's new last worm.
                |n| {
                    let last = WormId(59);
                    let src = n.worms.get(last).src().idx();
                    let vnet = n.worms.get(last).vnet();
                    n.worms.set_next(last, Some(WormId(60)));
                    n.nics.set_queue_tail(src, vnet, WormId(60));
                },
                "worm id 60 named outside a table of 60",
            ),
            (|n| n.nics.reserve_cons(3, 0, WormId(99), false), "worm id 99"),
            (|n| n.routers.deposit(0, LOCAL, 0, Flit::nth(WormId(61), 0, 2), n.now), "worm id 61"),
            (|n| n.routers.take_credit(0, 0, 0), "node 0 output (0, 0): 2 credits and 0 flits"),
            // A credit above the depth is refused before it narrows.
            (|n| n.routers.add_credit(0, 1, 0), "router credit 4 above the 3-flit buffer"),
            (
                |n| {
                    let d = Delivery {
                        node: NodeId(40),
                        worm: WormId(0),
                        src: NodeId(1),
                        payload: 0,
                        acks: 0,
                        at: 0,
                        txn: TxnId(0),
                    };
                    n.nics.push_delivery(d);
                },
                "names a node outside the mesh",
            ),
        ];
        for (i, (corrupt, want)) in corrupt.into_iter().enumerate() {
            let (cfg, mut net) = busy_network();
            assert_eq!(net.check_router_slab(), Ok(()));
            load(&cfg, &save(&net)).expect("well-formed stream loads");
            corrupt(&mut net);
            let Err(SnapError::Corrupt(e)) = load(&cfg, &save(&net)) else {
                panic!("case {i}: corrupt network loaded")
            };
            assert!(e.contains(want), "case {i}: {e}");
        }
    }

    /// Every consumption channel is empty between ticks, so a stream
    /// whose channel holds a flit, or flags its tail as arrived, is
    /// refused at load.
    #[test]
    fn load_rejects_a_consumption_channel_holding_a_flit() {
        for kind in [FlitKind::Body, FlitKind::Tail] {
            let (cfg, mut net) = busy_network();
            net.nics.reserve_cons(3, 0, WormId(0), false);
            assert_eq!(net.nics.cons_push(3, 0, Flit { worm: WormId(0), kind }), Ok(()));
            let Err(SnapError::Corrupt(e)) = load(&cfg, &save(&net)) else {
                panic!("{kind:?}: a channel holding a flit loaded")
            };
            assert!(e.contains("between ticks"), "{kind:?}: {e}");
        }
    }

    /// A live-worm count or a worm's copy count that disagrees with the
    /// worms and consumption channels, and a clock or counter that
    /// stepping could overflow (a buffered flit deposited after the clock
    /// among them), are refused at load.
    #[test]
    fn load_rejects_broken_worm_accounting_and_overflowing_clocks() {
        type Corrupt = fn(&mut Network);
        let corrupt: [(Corrupt, &str); 6] = [
            (|n| n.live_worms -= 1, "live worms"),
            (|n| n.worms.get_mut(WormId(0)).copies += 1, "worm 0: 1 copies, 0 consumption"),
            (|n| n.worms.get_mut(WormId(3)).queued_at = n.now + 1, "queued at cycle"),
            (
                |n| n.routers.deposit(0, LOCAL, 0, Flit::nth(WormId(0), 0, 2), n.now + 1),
                "a router FIFO flit deposited at cycle 1, after cycle 0",
            ),
            (|n| n.stats.flit_hops = u64::MAX, "network counter"),
            (|n| n.now = MAX_CLOCK + 1, "past the last cycle"),
        ];
        for (i, (corrupt, want)) in corrupt.into_iter().enumerate() {
            let (cfg, mut net) = busy_network();
            corrupt(&mut net);
            let Err(SnapError::Corrupt(e)) = load(&cfg, &save(&net)) else {
                panic!("case {i}: corrupt network loaded")
            };
            assert!(e.contains(want), "case {i}: {e}");
        }
    }

    /// A flit of another worm entering an owned consumption channel is
    /// recorded as a violation naming both worms, as it arrives.
    #[test]
    fn a_flit_entering_another_worms_channel_is_a_violation() {
        let mut net = Network::new(MeshConfig::paper_defaults(4));
        let dst = NodeId(2);
        let a = net.inject(WormSpec::unicast(NodeId(0), dst, VNet::Req, 8, 1));
        let b = net.inject(WormSpec::unicast(NodeId(15), NodeId(12), VNet::Req, 8, 2));
        while net.nics.cons_owner(dst.idx(), 0) != Some(a) {
            net.tick();
            assert!(net.now() < 100, "worm {a:?} never reached its channel");
        }
        assert_eq!(net.violation(), None);
        net.nics.set_cons_owner(dst.idx(), 0, b);
        while net.violation().is_none() {
            net.tick();
            assert!(net.now() < 100, "the stray flit was never reported");
        }
        let e = net.violation().unwrap();
        assert!(
            e.contains("channel 0 at node 2 received a flit of worm 0 but is owned by worm 1"),
            "{e}"
        );
    }

    /// A flit that finds its channel still holding an undrained flit (a
    /// stray flit forged in between ticks here) is recorded as a
    /// violation: a channel holds one flit, for the tick it arrives in.
    #[test]
    fn a_flit_entering_an_undrained_channel_is_a_violation() {
        let mut net = Network::new(MeshConfig::paper_defaults(4));
        let dst = NodeId(2);
        let a = net.inject(WormSpec::unicast(NodeId(0), dst, VNet::Req, 8, 1));
        while net.nics.cons_owner(dst.idx(), 0) != Some(a) {
            net.tick();
            assert!(net.now() < 100, "worm {a:?} never reached its channel");
        }
        assert_eq!(net.check_consumption_drained(), Ok(()));
        let stray = Flit { worm: a, kind: FlitKind::Body };
        assert_eq!(net.nics.cons_push(dst.idx(), 0, stray), Ok(()));
        while net.violation().is_none() {
            net.tick();
            assert!(net.now() < 100, "the undrained flit was never reported");
        }
        let e = net.violation().unwrap();
        assert!(
            e.contains("channel 0 at node 2 received a flit of worm 0 before draining the last"),
            "{e}"
        );
    }

    #[test]
    fn load_rejects_malformed_worklist_bitsets() {
        let (cfg, mut net) = busy_network();
        for _ in 0..20 {
            net.tick();
        }
        load(&cfg, &save(&net)).expect("well-formed stream loads");

        // A word too many.
        let mut long = busy_network().1;
        long.router_active.push(0);
        let Err(e) = load(&cfg, &save(&long)) else { panic!("extra word accepted") };
        assert!(e.to_string().contains("router worklist has 2 words"), "{e}");

        // A member past the last node (36 nodes fill bits 0..36 of one word).
        for set in 0..2 {
            let mut bad = busy_network().1;
            let field = if set == 0 { &mut bad.router_active } else { &mut bad.nic_active };
            field[0] |= 1 << 40;
            let Err(e) = load(&cfg, &save(&bad)) else { panic!("node 40 of 36 accepted") };
            assert!(e.to_string().contains("names a node >= 36"), "{e}");
        }
    }
}
