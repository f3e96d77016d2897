//! The cycle-level network engine.
//!
//! [`Network`] owns every router and NIC (as field-major slabs — see
//! [`crate::router::RouterSlab`] / [`crate::nic::NicSlab`]) plus the worm
//! table, and advances the whole mesh one cycle at a time in three
//! deterministic phases:
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
//! Timing: a head flit pays `router_delay` cycles at every router
//! (including intermediate-destination reprocessing charged at
//! `strip_delay`/`iack_check_delay`); body flits stream at one flit per
//! cycle per link. Links crossing a chip boundary of an optional two-level
//! [`Hierarchy`] add `inter_chip_extra` cycles to every traversal. Credit
//! return is same-cycle (documented idealization: real credit return takes
//! one link cycle; the simplification affects back-to-back worm reuse of a
//! VC by at most one cycle).
//!
//! # Space-partitioned parallel tick
//!
//! With [`MeshConfig::tiles`] > 1 the mesh is split into contiguous row
//! bands ([`Mesh2D::row_bands`]) and all three phases run for every tile
//! concurrently on a persistent worker pool, **bit-identically** to the
//! serial schedule. The phase logic is written once, against a
//! [`TileView`] holding the tile's disjoint window of every per-node slab;
//! `tiles = 1` is simply the single-tile instance of the same code.
//! Bit-identity rests on four mechanisms:
//!
//! * **Lookahead on links.** A flit deposited downstream carries a future
//!   `ready_at` (`now + router_delay` for heads, `now + 1` for bodies,
//!   plus any hierarchy link delay), and every same-cycle reader checks
//!   `ready_at <= now` or an allocation mode the fresh flit cannot have —
//!   so a deposit is behavior-invisible in the cycle it is made, and
//!   deferring cross-tile deposits to the cycle barrier changes nothing.
//! * **One-writer buffers.** Each router input `(port, vc)` has exactly
//!   one possible upstream writer per cycle, so deferred deposits commute.
//! * **Speculative credit validation.** Credit return is same-cycle, and
//!   the ascending serial sweep makes exactly one direction observable: a
//!   router in the *first row of a tile* sending **north** across the
//!   boundary could consume, in the same cycle, a credit returned by the
//!   downstream router in the tile above. All other cross-tile credits
//!   are returned to routers the serial sweep has already passed, so
//!   deferring them to the barrier is exact. Tiles therefore run
//!   *optimistically* with **virtual credits**: at the one arbitration
//!   point where the divergence can matter (`pick_link_winner` on a
//!   credit-starved northbound first-row output), the starved candidate
//!   competes as if one credit were available — betting the same-cycle
//!   boundary credit *does* arrive, which under sustained streaming it
//!   almost always does (the downstream channel drains one flit per
//!   cycle). If it wins, the forward proceeds without decrementing the
//!   (zero) credit counter and the borrow is recorded as a
//!   [`SpecAssume`]. At the barrier, *before* any deferred work is
//!   applied, per-tile FNV-64 digests over the assumed credits and the
//!   deferred credits that actually landed on an assumed slot are
//!   compared. On a match the cycle commits ([`NetStats::spec_commits`])
//!   and each matched credit is swallowed — the forward already spent it,
//!   so also returning it would mint one. On a mismatch (the bet credit
//!   never came) the engine restores a pre-dispatch checkpoint of every
//!   node a tile could have touched (worklists plus their in-tile
//!   neighbors) and replays the cycle on the single-tile serial schedule
//!   ([`NetStats::spec_rollbacks`], [`NetStats::spec_replayed_cycles`]),
//!   which is exact by construction. Exactness of a commit: the tiled
//!   candidate set is a superset of the serial one, and RR arbitration
//!   picks the minimum-key candidate, so non-winning virtual candidates
//!   can never change the winner; if the winner's credit did arrive, the
//!   serial sweep had the identical candidate (credit applied before `r`
//!   was swept) and made the identical move.
//! * **Ordered replay.** Worm-table mutations from phase 3 (copy counts,
//!   delivery state, retire order, f64 latency accumulation) are recorded
//!   as per-tile event lists and replayed at the barrier in tile order —
//!   which is ascending node order, i.e. exactly the serial schedule.
//!   Phase-1/2 worm access needs no replay: only the router holding a
//!   worm's *head* mutates its record, and a head exists at one router.

use crate::nic::{
    Delivery, DeliveryKind, GatherCheck, IackMode, NicNodeCk, NicSlab, NicTile, StreamState,
};
use crate::router::{BufFlit, RouterNodeCk, RouterSlab, RouterTile, VcMode};
use crate::routing::{BaseRouting, PathRule, RouteTable};
use crate::topology::{ChipGrid, Direction, Mesh2D, NodeId, Port, NUM_PORTS};
use crate::worm::{
    Flit, FlitKind, TxnId, VNet, Worm, WormId, WormKind, WormRt, WormSpec, WormState, WormTable,
    NUM_VNETS,
};
use std::sync::Mutex;
use wormdsm_sim::snap::{Snap, SnapError, SnapReader, SnapWriter};

use wormdsm_sim::trace::{FlightRecorder, TraceClass, TraceKind, TraceLevel};
use wormdsm_sim::{BitSet128, Cycle, Fnv64, NoProgress, Registry, Summary, Watchdog, WorkerPool};

/// Flight-recorder label for a worm kind.
fn worm_kind_label(kind: WormKind) -> &'static str {
    match kind {
        WormKind::Unicast => "unicast",
        WormKind::Multicast => "multicast",
        WormKind::Gather => "gather",
    }
}

/// Two-level mesh-of-meshes topology: the flat mesh is grouped into
/// `chip_w x chip_h` chips, and every link crossing a chip boundary (an
/// inter-chip express link) pays [`Hierarchy::inter_chip_extra`] additional
/// cycles per traversal. Routing and worm conformance are untouched — the
/// hierarchy only stretches boundary-link timing — so `inter_chip_extra =
/// 0` reproduces the flat mesh bit-identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hierarchy {
    /// Chip tiling of the mesh (must evenly divide both dimensions).
    pub chip: ChipGrid,
    /// Extra cycles added to every boundary-crossing link traversal.
    pub inter_chip_extra: Cycle,
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
    /// Consumption channel FIFO depth, in flits.
    pub cons_buf_flits: usize,
    /// i-ack buffer entries per router interface (the paper studies 2-4).
    pub iack_buffers: usize,
    /// Behaviour of gather worms whose ack has not been posted.
    pub iack_mode: IackMode,
    /// Row-band tiles stepped concurrently each cycle (1 = serial; clamped
    /// to the mesh height). Every value produces bit-identical results.
    pub tiles: usize,
    /// Optional two-level mesh-of-meshes grouping (None = flat mesh).
    pub hierarchy: Option<Hierarchy>,
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
            cons_buf_flits: 8,
            iack_buffers: 4,
            iack_mode: IackMode::VctDefer,
            tiles: 1,
            hierarchy: None,
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
    /// or channel count would otherwise only fail once slabs allocate).
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
        let slots = NUM_PORTS * self.vcs_total();
        if slots > BitSet128::CAPACITY {
            return Err(format!(
                "router occupancy bitset limits ports * vcs to {} (got {} * {})",
                BitSet128::CAPACITY,
                NUM_PORTS,
                self.vcs_total()
            ));
        }
        if self.cons_channels < 1 || self.cons_channels > 255 {
            return Err(format!(
                "cons_channels must be 1..=255 (got {}); channel indices are u8-encoded",
                self.cons_channels
            ));
        }
        if self.cons_buf_flits < 1 {
            return Err("cons_buf_flits must be >= 1".into());
        }
        if self.iack_buffers < 1 || self.iack_buffers > 255 {
            return Err(format!(
                "iack_buffers must be 1..=255 (got {}); entry indices are u8-encoded",
                self.iack_buffers
            ));
        }
        if let Some(h) = self.hierarchy {
            if h.chip.chip_w() == 0
                || h.chip.chip_h() == 0
                || !self.mesh.width().is_multiple_of(h.chip.chip_w())
                || !self.mesh.height().is_multiple_of(h.chip.chip_h())
            {
                return Err(format!(
                    "hierarchy chip tile {}x{} must evenly divide the {}x{} mesh",
                    h.chip.chip_w(),
                    h.chip.chip_h(),
                    self.mesh.width(),
                    self.mesh.height()
                ));
            }
        }
        Ok(())
    }
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
    /// Worm-table inserts served from a recycled slot instead of growing
    /// the table (allocation-avoidance diagnostic; zero unless recycling
    /// is enabled via [`Network::set_worm_recycling`]).
    pub worm_slots_reused: u64,
    /// Times a per-tick worklist scratch buffer had to grow. In steady
    /// state this stays at its warm-up value: the per-cycle hot loop
    /// reuses the same buffers and allocates nothing.
    pub scratch_grows: u64,
    /// Speculative multi-tile cycles whose boundary-credit validation
    /// digests matched and committed (see the module docs). Zero when
    /// `tiles = 1`.
    pub spec_commits: u64,
    /// Speculative multi-tile cycles rolled back to the pre-dispatch
    /// checkpoint because a validation digest mismatched.
    pub spec_rollbacks: u64,
    /// Cycles re-executed on the serial schedule after a rollback. The
    /// engine replays exactly the mis-speculated cycle, so this equals
    /// [`NetStats::spec_rollbacks`].
    pub spec_replayed_cycles: u64,
    /// Rollback causes by tile: `spec_rollback_by_tile[t]` counts the
    /// rollbacks in which tile `t`'s validation digest mismatched (a
    /// single rollback can charge several tiles). Sized by
    /// [`Network::set_tiles`].
    pub spec_rollback_by_tile: Vec<u64>,
}

impl NetStats {
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
            scratch_grows: 0,
            spec_commits: 0,
            spec_rollbacks: 0,
            spec_replayed_cycles: 0,
            spec_rollback_by_tile: Vec::new(),
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
        r.counter("scratch_grows", self.scratch_grows);
        r.counter("spec_commits", self.spec_commits);
        r.counter("spec_rollbacks", self.spec_rollbacks);
        r.counter("spec_replayed_cycles", self.spec_replayed_cycles);
        for (t, &n) in self.spec_rollback_by_tile.iter().enumerate() {
            r.counter(&format!("spec_rollback_tile{t}"), n);
        }
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
/// slots. The probe is a pure observer fed from the serial tile pass
/// (enabling it forces the single-tile schedule, like flit tracing), so
/// it cannot perturb results. Consumed by `exp_profile` for per-scheme
/// contention heatmaps and Chrome-trace counter tracks.
#[derive(Debug, Clone)]
pub struct ContentionProbe {
    window: Cycle,
    vcs: usize,
    cur_start: Cycle,
    cur_dirty: bool,
    cur_flits: Vec<u32>,
    cur_stalls: Vec<u32>,
    windows: Vec<ContentionWindow>,
    busy_total: Vec<u64>,
    stall_total: Vec<u64>,
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
            busy_total: vec![0; nodes * 4],
            stall_total: vec![0; nodes * 4],
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
        self.busy_total[link] += 1;
        self.cur_dirty = true;
    }

    /// Record one credit-stalled cycle of `link`'s `vc` at cycle `now`.
    pub fn record_stall(&mut self, now: Cycle, link: usize, vc: usize) {
        self.roll(now);
        self.cur_stalls[link * self.vcs + vc] += 1;
        self.stall_total[link] += 1;
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

    /// Total flits forwarded per directed link (`node * 4 + dir`).
    pub fn busy_total(&self) -> &[u64] {
        &self.busy_total
    }

    /// Total credit-stall cycles per directed link.
    pub fn stall_total(&self) -> &[u64] {
        &self.stall_total
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
/// Unlike the [`ContentionProbe`], which instruments the flit path and
/// therefore forces the serial tile schedule, the meter never observes
/// individual forwards: at the first tick of each `window`-cycle
/// accounting window it *commits* the delta of [`NetStats::link_busy`]
/// since the previous commit. `link_busy` is maintained bit-identically
/// across tile counts at every cycle boundary (each tile writes its own
/// row-band slice), so the committed summaries — and any plan decisions
/// derived from them — are identical under any tiling.
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

const LOCAL: usize = 4;
/// [`LOCAL`] as the `u8` stored in [`VcMode`] fields (constant patterns
/// must match the field type exactly).
const LOCAL8: u8 = LOCAL as u8;

/// Minimum worklist entries *per tile* before a cycle is dispatched to the
/// worker pool. A worklist visit costs on the order of 100ns; the
/// fan-out/barrier round trip costs a few microseconds even with spinning
/// workers, so thin cycles are faster on the serial inline path. Purely a
/// wall-time heuristic — both paths compute bit-identical state.
const PARALLEL_WORK_PER_TILE: usize = 12;

/// One recorded speculation assumption about the same-cycle northbound
/// boundary credit at `node`'s north output VC `vc`, validated at the
/// barrier against the deferred [`XCredit`] traffic. Recorded when a
/// credit-starved candidate **won** arbitration on a *virtual credit* —
/// the bet is that the matching credit **does** arrive (it almost always
/// does under sustained streaming, where the downstream channel drains
/// one flit per cycle). Commit requires a matching deferred credit, which
/// the barrier then swallows (the forward already spent it).
#[derive(Debug, Clone, Copy)]
struct SpecAssume {
    node: u32,
    vc: u8,
}

/// Per-tile counter deltas, summed into [`NetStats`] at the cycle barrier
/// (u64 additions commute, so per-tile accumulation is exact).
#[derive(Debug, Default, Clone)]
struct TileStats {
    flit_hops: u64,
    flits_injected: u64,
    flits_consumed: u64,
    deliveries: u64,
    gather_blocked_cycles: u64,
    multicast_blocked_cycles: u64,
    parks: u64,
    bounces: u64,
    resumes: u64,
    deposits: u64,
    deposit_retries: u64,
}

impl TileStats {
    fn merge_into(&mut self, g: &mut NetStats) {
        g.flit_hops += self.flit_hops;
        g.flits_injected += self.flits_injected;
        g.flits_consumed += self.flits_consumed;
        g.deliveries += self.deliveries;
        g.gather_blocked_cycles += self.gather_blocked_cycles;
        g.multicast_blocked_cycles += self.multicast_blocked_cycles;
        g.parks += self.parks;
        g.bounces += self.bounces;
        g.resumes += self.resumes;
        g.deposits += self.deposits;
        g.deposit_retries += self.deposit_retries;
        *self = TileStats::default();
    }
}

/// A flit handoff crossing a tile boundary, applied at the cycle barrier.
#[derive(Debug, Clone, Copy)]
struct XDeposit {
    node: usize,
    port: usize,
    vc: usize,
    bf: BufFlit,
}

/// A credit return crossing a tile boundary, applied at the cycle barrier.
#[derive(Debug, Clone, Copy)]
struct XCredit {
    node: usize,
    port: usize,
    vc: usize,
}

/// A worm completion (tail drained at a NIC) recorded by a tile worker and
/// replayed at the barrier: worm-table writes shared between tiles, the
/// LIFO retire order, the live-worm count, and f64 latency accumulation
/// are all order-sensitive, so they run in the exact serial schedule.
#[derive(Debug, Clone, Copy)]
struct WormEvent {
    wid: WormId,
    /// Node the tail drained at (flight-recorder diagnostics).
    node: usize,
    /// Final consumption (vs. an absorb-copy drain).
    is_final: bool,
    kind: WormKind,
    latency: f64,
}

/// Per-tile deferred-work buffers. Persistent across cycles so the steady
/// state hot loop allocates nothing.
#[derive(Debug, Default)]
struct TileScratch {
    stats: TileStats,
    /// First mesh-level invariant violation detected by this tile's pass
    /// (e.g. a consumption-channel owner mismatch), surfaced at the
    /// barrier. Always-on, unlike the `debug_assert!` it replaced.
    violation: Option<String>,
    deposits: Vec<XDeposit>,
    credits: Vec<XCredit>,
    events: Vec<WormEvent>,
    /// Routers to put on the *next* cycle's worklist.
    new_routers: Vec<usize>,
    /// NICs to put on the *next* cycle's worklist.
    new_nics: Vec<usize>,
    /// Nodes with fresh undrained deliveries.
    delivered: Vec<usize>,
    /// This cycle's NIC worklist (pre-tick actives + phase-1/2
    /// activations), built and consumed inside the tile pass.
    nic_work: Vec<usize>,
    /// Boundary-credit assumptions recorded by this tile's speculative
    /// pass (empty under `tiles = 1`, where no boundary exists).
    assumptions: Vec<SpecAssume>,
}

impl TileScratch {
    /// Discard everything this tile's mis-speculated pass produced, ahead
    /// of a rollback replay. Buffers keep their capacity.
    fn reset_for_rollback(&mut self) {
        self.stats = TileStats::default();
        self.violation = None;
        self.deposits.clear();
        self.credits.clear();
        self.events.clear();
        self.new_routers.clear();
        self.new_nics.clear();
        self.delivered.clear();
        self.nic_work.clear();
        self.assumptions.clear();
    }
}

/// Pre-dispatch checkpoint for one speculative cycle: the full router,
/// NIC, flag and link-accounting state of every node a tile pass could
/// possibly write this cycle (the router/NIC worklists plus the in-mesh
/// 4-neighbors of the router worklist — deposits and credit returns reach
/// exactly one hop), plus every worm's mutable runtime fields. All
/// buffers are pooled: in steady state a capture allocates nothing.
#[derive(Debug, Default)]
struct SpecCheckpoint {
    /// Captured node ids (deduplicated, insertion order; parallel to
    /// `routers` / `nics` / `flags` / `link_busy`).
    nodes: Vec<u32>,
    /// Stamp per mesh node: `marks[n] == stamp` means `n` is in `nodes`.
    marks: Vec<u32>,
    stamp: u32,
    routers: Vec<RouterNodeCk>,
    nics: Vec<NicNodeCk>,
    /// `(router_active, nic_active, delivered_flag)` per captured node.
    flags: Vec<(bool, bool, bool)>,
    /// The node's four [`NetStats::link_busy`] slots.
    link_busy: Vec<[u64; 4]>,
    worm_rt: Vec<WormRt>,
}

impl SpecCheckpoint {
    /// Start a fresh capture over a mesh of `nodes` nodes.
    fn begin(&mut self, nodes: usize) {
        self.nodes.clear();
        if self.marks.len() != nodes {
            self.marks = vec![0; nodes];
            self.stamp = 0;
        }
        self.stamp = match self.stamp.checked_add(1) {
            Some(s) => s,
            None => {
                self.marks.fill(0);
                1
            }
        };
    }

    /// Add node `n` to the capture set (idempotent).
    #[inline]
    fn add(&mut self, n: usize) {
        if self.marks[n] != self.stamp {
            self.marks[n] = self.stamp;
            self.nodes.push(n as u32);
        }
    }

    /// Capture state for every node added so far.
    #[allow(clippy::too_many_arguments)]
    fn capture(
        &mut self,
        routers: &RouterSlab,
        nics: &NicSlab,
        router_active: &[bool],
        nic_active: &[bool],
        delivered_flag: &[bool],
        link_busy: &[u64],
        worms: &WormTable,
    ) {
        self.flags.clear();
        self.link_busy.clear();
        for (i, &n) in self.nodes.iter().enumerate() {
            let n = n as usize;
            if self.routers.len() <= i {
                self.routers.push(RouterNodeCk::default());
                self.nics.push(NicNodeCk::default());
            }
            routers.capture_node(n, &mut self.routers[i]);
            nics.capture_node(n, &mut self.nics[i]);
            self.flags.push((router_active[n], nic_active[n], delivered_flag[n]));
            self.link_busy.push(link_busy[n * 4..n * 4 + 4].try_into().expect("4 slots"));
        }
        worms.capture_rt(&mut self.worm_rt);
    }

    /// Undo a mis-speculated pass: restore every captured node and the
    /// worm table to their pre-dispatch state.
    #[allow(clippy::too_many_arguments)]
    fn restore(
        &self,
        routers: &mut RouterSlab,
        nics: &mut NicSlab,
        router_active: &mut [bool],
        nic_active: &mut [bool],
        delivered_flag: &mut [bool],
        link_busy: &mut [u64],
        worms: &mut WormTable,
    ) {
        for (i, &n) in self.nodes.iter().enumerate() {
            let n = n as usize;
            routers.restore_node(n, &self.routers[i]);
            nics.restore_node(n, &self.nics[i]);
            let (ra, na, df) = self.flags[i];
            router_active[n] = ra;
            nic_active[n] = na;
            delivered_flag[n] = df;
            link_busy[n * 4..n * 4 + 4].copy_from_slice(&self.link_busy[i]);
        }
        worms.restore_rt(&self.worm_rt);
    }
}

/// Shared access to the worm table from concurrent tile workers.
///
/// # Safety
///
/// This is the engine's one `unsafe` aliasing construct; soundness rests
/// on scheduling invariants of the tick, not on types:
///
/// * No insert or retire runs while workers hold the snapshot (injection
///   is an inter-tick API; retire is replayed at the barrier), so the
///   base pointer stays valid and no record moves.
/// * `get_mut` is only called for worms the calling tile has *exclusive*
///   dynamic ownership of: a worm's head flit sits in exactly one router
///   (phase 1/2 mutations), and streaming/parked/bounced worms live at
///   exactly one NIC (phase 3 mutations). Shared-worm completions are
///   never mutated in workers — they defer to [`WormEvent`] replay.
/// * `get` from workers only reads fields that are stable for the whole
///   cycle (the immutable `spec`, plus `acks`/`bounced`/`queued_at` of
///   fully-consumed worms, which nothing mutates until replay).
#[derive(Debug, Clone, Copy)]
struct SharedWorms {
    base: *mut Worm,
    len: usize,
}

unsafe impl Send for SharedWorms {}
unsafe impl Sync for SharedWorms {}

impl SharedWorms {
    fn new(table: &mut WormTable) -> Self {
        let (base, len) = table.raw();
        Self { base, len }
    }

    #[inline]
    fn get(&self, id: WormId) -> &Worm {
        debug_assert!((id.0 as usize) < self.len);
        unsafe { &*self.base.add(id.0 as usize) }
    }

    #[inline]
    #[allow(clippy::mut_from_ref)] // exclusivity is the documented invariant
    fn get_mut(&self, id: WormId) -> &mut Worm {
        debug_assert!((id.0 as usize) < self.len);
        unsafe { &mut *self.base.add(id.0 as usize) }
    }
}

/// One tile's view of the network for a single tick: an exclusive window
/// of every per-node slab, shared read-only configuration, and deferred
/// queues for the few effects that cross tile boundaries. All phase logic
/// is written against this view; the serial engine is the `tiles = 1`
/// single-view instance, so there is exactly one code path to keep
/// bit-identical.
struct TileView<'a> {
    /// First node index of the tile; the slab windows and the flag slices
    /// below cover `base..end`.
    base: usize,
    /// One-past-last node index of the tile.
    end: usize,
    routers: RouterTile<'a>,
    nics: NicTile<'a>,
    router_active: &'a mut [bool],
    nic_active: &'a mut [bool],
    delivered_flag: &'a mut [bool],
    /// This tile's `node * 4 + dir` slice of [`NetStats::link_busy`].
    link_busy: &'a mut [u64],
    /// Extra per-link delays from the hierarchy, indexed `node * 4 + dir`
    /// with *global* node ids (read-only, so the full slice is shared by
    /// every tile; all zeros on a flat mesh).
    link_extra: &'a [Cycle],
    worms: SharedWorms,
    cfg: &'a MeshConfig,
    /// Precomputed next-hop tables, indexed by `VNet::index()`.
    tables: &'a [RouteTable; NUM_VNETS],
    scratch: &'a mut TileScratch,
    /// Flight recorder for per-hop route events. Only the single-tile
    /// (serial) schedule carries it; [`TraceLevel::Flit`] forces that
    /// schedule (see [`Network::tick`]), so no hop is ever lost.
    trace: Option<&'a mut FlightRecorder>,
    /// Contention probe for per-link/VC occupancy windows. Like `trace`,
    /// only the single-tile schedule carries it, and an enabled probe
    /// forces that schedule.
    probe: Option<&'a mut ContentionProbe>,
    /// Read-only borrow-eligibility stamps from
    /// [`Network::spec_borrow_scan`] (`node * vcs + vc == now` ⇒ a
    /// virtual-credit borrow is worth betting on). Empty on schedules
    /// that never consult it (serial, rollback replay).
    borrow_marks: &'a [Cycle],
}

/// Work assigned to one tile for one tick.
type TileJob<'a> = (TileView<'a>, &'a [usize], &'a [usize]);

impl<'a> TileView<'a> {
    #[inline]
    fn in_tile(&self, n: usize) -> bool {
        (self.base..self.end).contains(&n)
    }

    /// Put an in-tile router on the next cycle's worklist.
    fn activate_router(&mut self, r: usize) {
        let l = r - self.base;
        if !self.router_active[l] {
            self.router_active[l] = true;
            self.scratch.new_routers.push(r);
        }
    }

    /// Put an in-tile NIC on *this* cycle's phase-3 worklist (mirrors the
    /// serial engine, whose NIC snapshot is taken after the router phases
    /// and therefore includes same-cycle activations).
    fn activate_nic(&mut self, n: usize) {
        let l = n - self.base;
        if !self.nic_active[l] {
            self.nic_active[l] = true;
            self.scratch.nic_work.push(n);
        }
    }

    /// Put an in-tile NIC on the next cycle's worklist (post-phase-3
    /// re-arm; flags were cleared at phase-3 start).
    fn rearm_nic(&mut self, n: usize) {
        let l = n - self.base;
        if !self.nic_active[l] {
            self.nic_active[l] = true;
            self.scratch.new_nics.push(n);
        }
    }

    fn note_delivery(&mut self, n: usize) {
        let l = n - self.base;
        if !self.delivered_flag[l] {
            self.delivered_flag[l] = true;
            self.scratch.delivered.push(n);
        }
    }

    /// Run all three phases for this tile. `router_work` and `nic_seed`
    /// are this tile's (sorted) partitions of the global worklists.
    fn run_pass(&mut self, now: Cycle, router_work: &[usize], nic_seed: &[usize]) {
        // Clear membership flags so same-cycle deposits re-arm receivers
        // on the fresh list, exactly like the serial engine.
        for &r in router_work {
            self.router_active[r - self.base] = false;
        }
        self.phase_heads(now, router_work);
        self.phase_movement(now, router_work);
        // Routers that still hold flits stay active next cycle. Cross-tile
        // deposits into this tile are activated by the barrier instead.
        for &r in router_work {
            if self.routers.flits(r) > 0 {
                self.activate_router(r);
            }
        }

        // Phase-3 worklist: phase-1/2 activations (pushed above) plus the
        // pre-tick snapshot; flags dedupe the union, sorting restores the
        // ascending order of the serial sweep.
        self.scratch.nic_work.extend_from_slice(nic_seed);
        let mut nw = std::mem::take(&mut self.scratch.nic_work);
        nw.sort_unstable();
        for &n in &nw {
            self.nic_active[n - self.base] = false;
        }
        self.phase_nic(now, &nw);
        for &n in &nw {
            if self.nics.has_work(n) {
                self.rearm_nic(n);
            }
        }
        nw.clear();
        self.scratch.nic_work = nw;
    }

    // ------------------------------------------------------------------
    // Phase 1: head processing.
    // ------------------------------------------------------------------

    fn phase_heads(&mut self, now: Cycle, work: &[usize]) {
        let vcs = self.cfg.vcs_total();
        for &r in work {
            // Walk only occupied VC slots, ascending `(port, vc)` exactly
            // like a full sweep. Head processing never moves flits, so the
            // snapshot stays exact for the whole walk.
            let occ = self.routers.occ(r);
            for slot in occ.iter() {
                self.process_head(now, r, slot / vcs, slot % vcs);
            }
        }
    }

    fn process_head(&mut self, now: Cycle, r: usize, port: usize, vc: usize) {
        if self.routers.mode(r, port, vc) != VcMode::Normal {
            return;
        }
        // `front_ready` is `Cycle::MAX` when the buffer is empty, so one
        // comparison covers both "nothing there" and "not eligible yet".
        if self.routers.front_ready(r, port, vc) > now {
            return;
        }
        let front = self.routers.front(r, port, vc).expect("ready head present");
        debug_assert_eq!(front.flit.kind, FlitKind::Head, "non-head at front of unallocated VC");
        let wid = front.flit.worm;
        let here = NodeId(r as u16);
        let worms = self.worms;
        let (kind, next_dest, at_last, reserve, txn, len, vnet) = {
            let w = worms.get(wid);
            (
                w.spec.kind,
                w.next_dest(),
                w.at_last_dest_idx(),
                w.spec.reserve_iack,
                w.spec.txn,
                w.spec.len_flits,
                w.spec.vnet,
            )
        };

        if next_dest == here {
            if at_last {
                self.process_final_dest(r, port, vc, wid);
            } else if !worms.get(wid).delivers_here() {
                // Pure routing waypoint: strip the header hop and continue.
                worms.get_mut(wid).dest_idx += 1;
                self.routers.set_front_ready(r, port, vc, now + self.cfg.strip_delay);
            } else {
                match kind {
                    WormKind::Unicast => unreachable!("unicast has a single destination"),
                    WormKind::Multicast => {
                        self.process_multicast_intermediate(now, r, port, vc, wid, reserve, txn)
                    }
                    WormKind::Gather => {
                        self.process_gather_intermediate(now, r, port, vc, wid, txn, len)
                    }
                }
            }
        } else {
            self.allocate_route(now, r, port, vc, wid, here, next_dest, vnet);
        }
    }

    /// Final destination: acquire a consumption channel and switch the VC
    /// toward the local port. An i-reserve worm does *not* reserve an i-ack
    /// entry at its final destination — that node initiates the i-gather
    /// and carries its own acknowledgement as the gather's initial count.
    fn process_final_dest(&mut self, r: usize, port: usize, vc: usize, wid: WormId) {
        let Some(cc) = self.nics.free_cons(r) else {
            self.scratch.stats.multicast_blocked_cycles += 1;
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
    #[allow(clippy::too_many_arguments)]
    fn process_multicast_intermediate(
        &mut self,
        now: Cycle,
        r: usize,
        port: usize,
        vc: usize,
        wid: WormId,
        reserve: bool,
        txn: TxnId,
    ) {
        if reserve && !self.nics.reserve_iack(r, txn) {
            self.scratch.stats.multicast_blocked_cycles += 1;
            return;
        }
        let Some(cc) = self.nics.free_cons(r) else {
            self.scratch.stats.multicast_blocked_cycles += 1;
            return;
        };
        self.nics.reserve_cons(r, cc, wid, true);
        let worms = self.worms;
        worms.get_mut(wid).copies += 1;
        self.routers.set_pending_absorb(r, port, vc, cc);
        worms.get_mut(wid).dest_idx += 1;
        self.routers.set_front_ready(r, port, vc, now + self.cfg.strip_delay);
    }

    /// Intermediate destination of a gather: check the i-ack buffer;
    /// absorb-and-go, block, or park.
    #[allow(clippy::too_many_arguments)]
    fn process_gather_intermediate(
        &mut self,
        now: Cycle,
        r: usize,
        port: usize,
        vc: usize,
        wid: WormId,
        txn: TxnId,
        len: u16,
    ) {
        let worms = self.worms;
        match self.nics.gather_check(r, txn) {
            GatherCheck::Ready(count) => {
                let w = worms.get_mut(wid);
                w.acks += count;
                w.dest_idx += 1;
                self.routers.set_front_ready(r, port, vc, now + self.cfg.iack_check_delay);
            }
            GatherCheck::NotReady => match self.cfg.iack_mode {
                IackMode::Block => {
                    self.scratch.stats.gather_blocked_cycles += 1;
                }
                IackMode::VctDefer => {
                    if let Some(entry) = self.nics.park(r, txn, wid, len) {
                        self.routers.set_mode(
                            r,
                            port,
                            vc,
                            VcMode::DrainPark { entry: entry as u8 },
                        );
                        worms.get_mut(wid).state = WormState::Parked(NodeId(r as u16));
                        self.scratch.stats.parks += 1;
                    } else if let Some(cc) = self.nics.free_cons(r) {
                        // No entry to park in: *bounce* — consume the worm
                        // at this node and re-inject it, so it never holds
                        // network channels while waiting (holding them can
                        // deadlock the reply network against the very
                        // gathers that would free the entries).
                        self.nics.reserve_cons(r, cc, wid, false);
                        worms.get_mut(wid).copies += 1;
                        worms.get_mut(wid).bounced = true;
                        self.routers.set_mode(
                            r,
                            port,
                            vc,
                            VcMode::Active { out_port: LOCAL8, out_vc: cc as u8, absorb: None },
                        );
                        self.scratch.stats.bounces += 1;
                    } else {
                        self.scratch.stats.gather_blocked_cycles += 1;
                    }
                }
            },
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
        dest: NodeId,
        vnet: VNet,
    ) {
        let turned = self.worms.get(wid).turned;
        let mask = self.tables[vnet.index()].mask(here, dest, turned);
        assert!(
            mask != 0,
            "worm {wid:?} at {here} cannot reach {dest} under {:?} (turned={turned}): scheme constructed a non-conformant path",
            self.cfg.rule_for(vnet)
        );
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
        if let Some(rec) = self.trace.as_deref_mut() {
            if rec.wants(TraceClass::Flit) {
                rec.push(
                    now,
                    TraceKind::WormRoute {
                        worm: wid.0 as u64,
                        node: here.idx() as u32,
                        port: out_port as u32,
                    },
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // Phase 2: movement.
    // ------------------------------------------------------------------

    #[allow(clippy::needless_range_loop)]
    fn phase_movement(&mut self, now: Cycle, work: &[usize]) {
        let vcs = self.cfg.vcs_total();
        for &r in work {
            if self.routers.flits(r) == 0 {
                continue;
            }
            let mut used_in_port = [false; NUM_PORTS];

            // Contention accounting: scan the pre-movement state so every
            // allocated output VC whose ready flit cannot move for lack of
            // downstream credits books one stall cycle this cycle.
            if self.probe.is_some() {
                for out_port in 0..4 {
                    for vc in 0..vcs {
                        if self.routers.credit_starved(now, r, out_port, vc) {
                            let link = r * 4 + out_port;
                            self.probe.as_deref_mut().expect("checked").record_stall(now, link, vc);
                        }
                    }
                }
            }

            // Link outputs (E, W, N, S): one flit per port per cycle.
            for out_port in 0..4 {
                let winner = self.pick_link_winner(now, r, out_port, vcs, &used_in_port);
                if let Some((in_port, in_vc, out_vc, virt)) = winner {
                    used_in_port[in_port] = true;
                    self.routers.set_rr(r, out_port, in_port * vcs + in_vc + 1);
                    if virt {
                        // The winner forwarded on a borrowed virtual
                        // credit: record the bet for barrier validation.
                        self.scratch
                            .assumptions
                            .push(SpecAssume { node: r as u32, vc: out_vc as u8 });
                    }
                    self.apply_forward(now, r, in_port, in_vc, out_port, out_vc, virt);
                }
            }

            // Local consumption: one flit per consumption channel per
            // cycle. Occupancy bits ascend `(port, vc)` like the full
            // sweep; the used-port flag keeps one consume per input port.
            let occ = self.routers.occ(r);
            for slot in occ.iter() {
                let (in_port, in_vc) = (slot / vcs, slot % vcs);
                if used_in_port[in_port] {
                    continue;
                }
                let VcMode::Active { out_port: LOCAL8, out_vc: cc, absorb: _ } =
                    self.routers.mode(r, in_port, in_vc)
                else {
                    continue;
                };
                let cc = cc as usize;
                if self.routers.front_ready(r, in_port, in_vc) > now
                    || !self.nics.cons_has_space(r, cc)
                {
                    continue;
                }
                self.apply_consume(r, in_port, in_vc, cc);
                used_in_port[in_port] = true;
            }

            // Parked gather drains: absorbed at the router interface, no
            // crossbar involvement.
            let occ = self.routers.occ(r);
            for slot in occ.iter() {
                let (in_port, in_vc) = (slot / vcs, slot % vcs);
                let VcMode::DrainPark { entry } = self.routers.mode(r, in_port, in_vc) else {
                    continue;
                };
                if self.routers.front_ready(r, in_port, in_vc) > now {
                    continue;
                }
                self.apply_park_drain(r, in_port, in_vc, entry as usize);
            }
        }
    }

    /// Round-robin arbitration for a link output port: pick the eligible
    /// allocated input VC at-or-after the RR pointer. The fourth element
    /// of the returned move is the *virtual-credit* flag: the winner was
    /// credit-starved and forwarded on a borrowed credit (see below).
    ///
    /// Speculation hook: a candidate that is eligible except for credit
    /// starvation on a northbound first-row output of a non-first tile is
    /// exactly the case where a same-cycle boundary credit (deferred to
    /// the barrier by the tile above) could have changed the serial
    /// outcome. Such a candidate competes with a borrowed *virtual
    /// credit* — betting the credit arrives; the caller records the
    /// borrow as a [`SpecAssume`] iff the candidate wins, and the barrier
    /// validates the bet. Candidates skipped for any other reason
    /// (input already used, flit not ready, absorb channel full) lose
    /// identically under both schedules — those checks read state only
    /// this tile writes — and need no record; and because arbitration
    /// picks the minimum RR-distance key, a *losing* virtual candidate
    /// never changes the winner and needs no record either.
    fn pick_link_winner(
        &mut self,
        now: Cycle,
        r: usize,
        out_port: usize,
        vcs: usize,
        used_in_port: &[bool; NUM_PORTS],
    ) -> Option<(usize, usize, usize, bool)> {
        // (rr-distance key, (in_port, in_vc, out_vc, virtual-credit))
        let mut best: Option<(usize, (usize, usize, usize, bool))> = None;
        let rr = self.routers.rr(r, out_port);
        let total = NUM_PORTS * vcs;
        let spec_row = self.base > 0
            && out_port == Direction::North.index()
            && r < self.base + self.cfg.mesh.width();
        for out_vc in 0..vcs {
            let Some((in_port, in_vc)) = self.routers.alloc(r, out_port, out_vc) else { continue };
            if used_in_port[in_port] {
                continue;
            }
            let starved = self.routers.credit(r, out_port, out_vc) == 0;
            if starved && !spec_row {
                continue;
            }
            if self.routers.front_ready(r, in_port, in_vc) > now {
                continue;
            }
            if let VcMode::Active { absorb: Some(cc), .. } = self.routers.mode(r, in_port, in_vc) {
                if !self.nics.cons_has_space(r, cc as usize) {
                    continue;
                }
            }
            // Borrow a virtual credit and compete normally — but only
            // where the pre-dispatch chain scan stamped the slot as able
            // to receive the same-cycle credit; an unstamped slot provably
            // cannot (`vc_could_pop` false is exact), so the skip needs no
            // validation.
            if starved && self.borrow_marks.get(r * vcs + out_vc).copied() != Some(now) {
                continue;
            }
            let key = (in_port * vcs + in_vc + total - rr % total) % total;
            if best.is_none_or(|(bk, _)| key < bk) {
                best = Some((key, (in_port, in_vc, out_vc, starved)));
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
        virtual_credit: bool,
    ) {
        let bf = self.routers.pop(r, in_port, in_vc);
        let flit = bf.flit;
        let node = NodeId(r as u16);
        let dir = match Port::from_index(out_port) {
            Port::Dir(d) => d,
            Port::Local => unreachable!("apply_forward is for link ports"),
        };

        // Absorb copy (forward-and-absorb).
        if let VcMode::Active { absorb: Some(cc), .. } = self.routers.mode(r, in_port, in_vc) {
            self.nics.cons_push(r, cc as usize, flit);
            self.scratch.stats.flits_consumed += 1;
            self.activate_nic(r);
        }

        // Stats + credits.
        self.scratch.stats.flit_hops += 1;
        self.link_busy[(r - self.base) * 4 + out_port] += 1;
        if let Some(p) = self.probe.as_deref_mut() {
            p.record_forward(now, r * 4 + out_port, out_vc);
        }
        // A virtual-credit forward spends the borrowed credit, not the
        // (zero) counter; the barrier swallows the matching deferred
        // credit on commit, so the books balance exactly as in serial
        // (+1 arrival, -1 spend).
        if !virtual_credit {
            self.routers.take_credit(r, out_port, out_vc);
        }
        self.return_credit(r, in_port, in_vc);

        // Head bookkeeping: the worm may enter its "turned" phase.
        if flit.kind == FlitKind::Head {
            let w = self.worms.get_mut(flit.worm);
            let rule = self.cfg.rule_for(w.spec.vnet);
            w.turned |= match rule {
                PathRule::XY => matches!(dir, Direction::North | Direction::South),
                PathRule::YX => matches!(dir, Direction::East | Direction::West),
                PathRule::WestFirst => dir != Direction::West,
                PathRule::EastFirst => dir != Direction::East,
            };
        }

        // Deposit downstream; a boundary crossing defers to the barrier
        // (exact: the flit's future `ready_at` makes it invisible this
        // cycle either way). Hierarchy boundary links add their extra
        // delay here, which only *raises* `ready_at` and therefore
        // preserves the lookahead invariant.
        let nb =
            self.cfg.mesh.neighbor(node, dir).expect("route computation never leaves the mesh");
        let in_port_nb = Port::Dir(dir.opposite()).index();
        let ready = now
            + if flit.kind == FlitKind::Head { self.cfg.router_delay } else { 1 }
            + self.link_extra[r * 4 + out_port];
        let nbi = nb.idx();
        if self.in_tile(nbi) {
            self.routers.deposit(nbi, in_port_nb, out_vc, BufFlit { flit, ready_at: ready });
            self.activate_router(nbi);
        } else {
            self.scratch.deposits.push(XDeposit {
                node: nbi,
                port: in_port_nb,
                vc: out_vc,
                bf: BufFlit { flit, ready_at: ready },
            });
        }

        // Tail releases allocations.
        if flit.kind == FlitKind::Tail {
            self.routers.set_mode(r, in_port, in_vc, VcMode::Normal);
            self.routers.set_alloc(r, out_port, out_vc, None);
        }
    }

    fn apply_consume(&mut self, r: usize, in_port: usize, in_vc: usize, cc: usize) {
        let bf = self.routers.pop(r, in_port, in_vc);
        self.nics.cons_push(r, cc, bf.flit);
        self.activate_nic(r);
        self.scratch.stats.flits_consumed += 1;
        self.return_credit(r, in_port, in_vc);
        if bf.flit.kind == FlitKind::Tail {
            self.routers.set_mode(r, in_port, in_vc, VcMode::Normal);
        }
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

    /// Return one credit to the upstream router for the vacated slot. A
    /// boundary crossing defers to the barrier; the barrier's speculation
    /// settlement makes the deferral exact (see the module docs).
    fn return_credit(&mut self, r: usize, in_port: usize, in_vc: usize) {
        if in_port == LOCAL {
            return; // NIC injection checks buffer space directly.
        }
        let dir = match Port::from_index(in_port) {
            Port::Dir(d) => d,
            Port::Local => unreachable!(),
        };
        let node = NodeId(r as u16);
        let up = self.cfg.mesh.neighbor(node, dir).expect("input port faces a neighbor");
        let up_out = Port::Dir(dir.opposite()).index();
        let ui = up.idx();
        if self.in_tile(ui) {
            self.routers.add_credit(ui, up_out, in_vc);
        } else {
            self.scratch.credits.push(XCredit { node: ui, port: up_out, vc: in_vc });
        }
    }

    // ------------------------------------------------------------------
    // Phase 3: NIC work.
    // ------------------------------------------------------------------

    fn phase_nic(&mut self, now: Cycle, work: &[usize]) {
        for &n in work {
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
                self.scratch.stats.deposits += 1;
            }
        }
    }

    /// Drain one flit per consumption channel; complete worms at tails.
    ///
    /// NIC-local effects (delivered queue, bounce requeue, ack deposits)
    /// happen inline so this NIC's same-cycle resume/inject see them, as
    /// in the serial schedule; the fields read for them (`spec`, `acks`,
    /// `bounced`, `queued_at`) are stable all cycle for a fully-consumed
    /// worm. Worm-table writes shared across tiles defer to [`WormEvent`]
    /// replay at the barrier.
    fn nic_drain(&mut self, now: Cycle, n: usize) {
        let worms = self.worms;
        for cc in 0..self.cfg.cons_channels {
            let Some(flit) = self.nics.cons_pop(n, cc) else { continue };
            if flit.kind != FlitKind::Tail {
                continue;
            }
            let wid = self.nics.cons_owner(n, cc).expect("draining channel has an owner");
            if wid != flit.worm && self.scratch.violation.is_none() {
                // Promoted from a debug_assert: a tail draining under the
                // wrong owner means the consumption-channel bookkeeping is
                // corrupt. Record (always, release included) and carry on
                // with the owner's completion so the dump shows both ids.
                self.scratch.violation = Some(format!(
                    "consumption channel {cc} at node {n} drained a tail of worm {} but is owned by worm {}",
                    flit.worm.0, wid.0
                ));
            }
            let absorb = self.nics.cons_absorb(n, cc);
            self.nics.release_cons(n, cc);
            let node = NodeId(n as u16);

            let (src, payload, txn, acks, deposit, kind, bounced, queued_at) = {
                let w = worms.get(wid);
                (
                    w.spec.src,
                    w.spec.payload,
                    w.spec.txn,
                    w.acks,
                    w.spec.gather_deposit,
                    w.spec.kind,
                    w.bounced,
                    w.queued_at,
                )
            };

            if absorb {
                // Absorbed copy at an intermediate destination.
                self.nics.push_delivery(
                    n,
                    Delivery {
                        node,
                        worm: wid,
                        src,
                        payload,
                        kind: DeliveryKind::Absorb,
                        acks: 0,
                        at: now,
                        txn,
                    },
                );
                self.scratch.stats.deliveries += 1;
                self.note_delivery(n);
                // The copy count (and a possible retire) is shared with
                // other tiles: replay at the barrier in serial order.
                self.scratch.events.push(WormEvent {
                    wid,
                    node: n,
                    is_final: false,
                    kind,
                    latency: 0.0,
                });
                continue;
            }

            if bounced {
                // Bounced gather fully drained: requeue it at this NIC;
                // it retries its i-ack check from here. The worm is
                // referenced nowhere else, so inline mutation is exact.
                let w = worms.get_mut(wid);
                w.copies -= 1;
                w.bounced = false;
                w.turned = false;
                w.state = WormState::Queued;
                let vnet = w.spec.vnet;
                self.nics.enqueue(n, vnet, wid);
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
                    self.scratch.stats.deposit_retries += 1;
                    self.nics.push_pending(n, txn, acks);
                } else {
                    self.scratch.stats.deposits += 1;
                }
            } else {
                self.nics.push_delivery(
                    n,
                    Delivery {
                        node,
                        worm: wid,
                        src,
                        payload,
                        kind: DeliveryKind::Final,
                        acks,
                        at: now,
                        txn,
                    },
                );
                self.scratch.stats.deliveries += 1;
                self.note_delivery(n);
            }
            self.scratch.events.push(WormEvent { wid, node: n, is_final: true, kind, latency });
        }
    }

    /// Re-inject parked gather worms whose ack arrived.
    fn nic_resume(&mut self, n: usize) {
        let worms = self.worms;
        while let Some((wid, count)) = self.nics.pop_resume(n) {
            let vnet = {
                let w = worms.get_mut(wid);
                w.acks += count;
                w.dest_idx += 1;
                w.turned = false;
                w.state = WormState::Queued;
                w.spec.vnet
            };
            self.nics.enqueue(n, vnet, wid);
            self.scratch.stats.resumes += 1;
        }
    }

    /// Stream injection-queue worms into the router's local input port.
    fn nic_inject(&mut self, now: Cycle, n: usize) {
        let vcs = self.cfg.vcs_total();
        let worms = self.worms;
        for vc in 0..vcs {
            // Start a new stream if this VC is idle and a worm of its
            // virtual-network class is waiting.
            if self.nics.streaming(n, vc).is_none() {
                let vnet = self.cfg.vnet_of(vc);
                if let Some(wid) = self.nics.pop_inject(n, vnet) {
                    let len = worms.get(wid).spec.len_flits;
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
            let flit = Flit {
                worm: st.worm,
                kind: if st.next_seq == 0 {
                    FlitKind::Head
                } else if st.next_seq + 1 == st.len {
                    FlitKind::Tail
                } else {
                    FlitKind::Body
                },
                seq: st.next_seq,
            };
            let ready = now + if flit.kind == FlitKind::Head { self.cfg.router_delay } else { 1 };
            self.routers.deposit(n, LOCAL, vc, BufFlit { flit, ready_at: ready });
            self.activate_router(n);
            self.scratch.stats.flits_injected += 1;
            if flit.kind == FlitKind::Head {
                let w = worms.get_mut(st.worm);
                if w.injected_at.is_none() {
                    w.injected_at = Some(now);
                }
                w.state = WormState::InFlight;
            }
            st.next_seq += 1;
            self.nics.set_streaming(n, vc, if st.next_seq == st.len { None } else { Some(st) });
        }
    }
}

/// Per-link extra delays implied by the hierarchy: `node * 4 + dir`,
/// zero everywhere on a flat mesh, `inter_chip_extra` on every link that
/// crosses a chip boundary. Built once per network; the tick only reads.
fn build_link_extra(cfg: &MeshConfig) -> Vec<Cycle> {
    let nodes = cfg.mesh.nodes();
    let mut extra = vec![0; nodes * 4];
    if let Some(h) = cfg.hierarchy {
        for n in 0..nodes {
            for dir in Direction::ALL {
                if h.chip.crosses_boundary(&cfg.mesh, NodeId(n as u16), dir) {
                    extra[n * 4 + dir.index()] = h.inter_chip_extra;
                }
            }
        }
    }
    extra
}

/// The whole wormhole-routed mesh: routers, NICs, worms, clock.
///
/// `tick` iterates *worklists* rather than sweeping every node: a router
/// is on the active list whenever it holds buffered flits, and a NIC
/// whenever it has phase-3 work (queued injections, streaming, consumption
/// FIFO contents, resumes, or deposit retries). Nodes off both lists are
/// provably no-ops in every phase, so skipping them is bit-identical to
/// the full sweep. With [`MeshConfig::tiles`] > 1 the worklists are
/// partitioned into row bands stepped concurrently (see the module docs).
#[derive(Debug)]
pub struct Network {
    cfg: MeshConfig,
    routers: RouterSlab,
    nics: NicSlab,
    worms: WormTable,
    now: Cycle,
    stats: NetStats,
    /// Extra per-link delay from the hierarchy (`node * 4 + dir`); all
    /// zeros on a flat mesh. See [`build_link_extra`].
    link_extra: Vec<Cycle>,
    /// Worms not yet fully delivered (fast quiescence check).
    live_worms: usize,
    /// Membership flags for `active_routers` (one per node).
    router_active: Vec<bool>,
    /// Routers that may hold flits; superset of `{r : flits > 0}`.
    active_routers: Vec<usize>,
    /// Membership flags for `active_nics` (one per node).
    nic_active: Vec<bool>,
    /// NICs that may have phase-3 work.
    active_nics: Vec<usize>,
    /// Recycled worklist buffer for `tick`'s router snapshot (capacity
    /// persists across cycles so the hot loop never reallocates).
    router_scratch: Vec<usize>,
    /// Recycled worklist buffer for `tick`'s NIC snapshot.
    nic_scratch: Vec<usize>,
    /// Membership flags for `delivered_nodes`.
    delivered_flag: Vec<bool>,
    /// Nodes holding undrained deliveries (fed by the NIC phase, drained
    /// by [`Network::take_delivery_nodes`]).
    delivered_nodes: Vec<usize>,
    /// Precomputed next-hop tables, indexed by `VNet::index()`, built once
    /// per network so the parallel section never recomputes routes.
    tables: [RouteTable; NUM_VNETS],
    /// Row-band node ranges, one per tile.
    tile_bounds: Vec<core::ops::Range<usize>>,
    /// Per-tile deferred-work buffers (persistent across cycles).
    tile_scratch: Vec<TileScratch>,
    /// Parked worker threads (`tiles - 1` of them) when `tiles > 1`.
    pool: Option<WorkerPool>,
    /// Flight recorder: one time-ordered stream for the whole system (the
    /// protocol layer pushes its transaction events here too).
    trace: FlightRecorder,
    /// Optional per-link/VC contention probe (None unless enabled via
    /// [`Network::enable_contention_probe`]). Enabling forces the serial
    /// tick schedule, like flit tracing; results stay bit-identical.
    probe: Option<Box<ContentionProbe>>,
    /// Optional windowed link-load summary (None unless enabled via
    /// [`Network::enable_link_load`]). Fed from `NetStats::link_busy`
    /// deltas at window boundaries, so it does *not* force the serial
    /// tick schedule. Plan-affecting state: snapshotted (see
    /// [`LinkLoadMeter`]).
    link_load: Option<Box<LinkLoadMeter>>,
    /// First mesh-level invariant violation (sticky). The protocol layer
    /// polls this each step and converts it into a structured error.
    violation: Option<String>,
    /// Pre-dispatch checkpoint for the multi-tile schedule (pooled
    /// buffers).
    spec_ck: SpecCheckpoint,
    /// Per-`(node, vc)` borrow-eligibility stamps written by
    /// [`Network::spec_borrow_scan`]: slot `n * vcs + vc` equals the
    /// current cycle when a starved northbound first-row candidate may
    /// forward on a virtual credit. Same-cycle scratch — never
    /// snapshotted (stale stamps can only change *which bet* a future
    /// cycle makes, and both bet outcomes are exact).
    borrow_marks: Vec<Cycle>,
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
        let routers = RouterSlab::new(nodes, NUM_PORTS, vcs, cfg.vc_buf_flits);
        let nics =
            NicSlab::new(nodes, cfg.cons_channels, cfg.cons_buf_flits, cfg.iack_buffers, vcs);
        let link_extra = build_link_extra(&cfg);
        let stats = NetStats::new(nodes);
        let tables = [
            RouteTable::build(cfg.rule_for(VNet::Req), &cfg.mesh),
            RouteTable::build(cfg.rule_for(VNet::Reply), &cfg.mesh),
        ];
        let tiles = cfg.tiles;
        let mut net = Self {
            cfg,
            routers,
            nics,
            worms: WormTable::new(),
            now: 0,
            stats,
            link_extra,
            live_worms: 0,
            router_active: vec![false; nodes],
            active_routers: Vec::new(),
            nic_active: vec![false; nodes],
            active_nics: Vec::new(),
            router_scratch: Vec::new(),
            nic_scratch: Vec::new(),
            delivered_flag: vec![false; nodes],
            delivered_nodes: Vec::new(),
            tables,
            tile_bounds: Vec::new(),
            tile_scratch: Vec::new(),
            pool: None,
            trace: FlightRecorder::default(),
            probe: None,
            link_load: None,
            violation: None,
            spec_ck: SpecCheckpoint::default(),
            borrow_marks: Vec::new(),
        };
        net.set_tiles(tiles);
        net
    }

    /// Repartition the mesh into `tiles` row-band tiles (clamped to the
    /// mesh height) and size the worker pool accordingly. Results are
    /// bit-identical for every value; `1` is the serial schedule.
    pub fn set_tiles(&mut self, tiles: usize) {
        let bounds = self.cfg.mesh.row_bands(tiles.max(1));
        let t = bounds.len();
        self.cfg.tiles = t;
        self.tile_bounds = bounds;
        self.tile_scratch = (0..t).map(|_| TileScratch::default()).collect();
        self.stats.spec_rollback_by_tile.resize(t, 0);
        // Size the pool by the host, not the tile count: `T` tiles need at
        // most `T - 1` workers (the caller is a lane), and workers beyond
        // the effective core budget only add contention — on a single-core
        // host the pool gets zero workers and `WorkerPool::run`
        // degenerates to a serial loop over the tile jobs, still
        // exercising the full partitioned schedule (tile slices, deferred
        // exchange, barrier replay) with bit-identical results.
        // `WorkerPool::new_sized` reads `available_parallelism` and the
        // `WORMDSM_POOL_WORKERS` override.
        self.pool = (t > 1).then(|| WorkerPool::new_sized(t - 1));
    }

    /// Worker threads actually backing the tile pool (0 when `tiles = 1`
    /// or on a single-core host; the calling thread is always a lane on
    /// top of this). May be fewer than `tiles - 1` requested by
    /// [`Network::set_tiles`] — see `WorkerPool::sized_workers`.
    pub fn effective_workers(&self) -> usize {
        self.pool.as_ref().map_or(0, |p| p.threads())
    }

    /// Current tile count of the partitioned tick engine (1 = serial).
    pub fn tiles(&self) -> usize {
        self.cfg.tiles
    }

    /// Enable worm-table slot recycling: retired worms (delivered, all
    /// copies drained) free their slot for reuse by later injections.
    ///
    /// Callers that inspect worm records *after* delivery (diagnostics,
    /// latency probes) must leave this off — a recycled slot's record is
    /// overwritten by the next injection. The full-system protocol layer
    /// only reads [`Delivery`] snapshots, so it opts in.
    pub fn set_worm_recycling(&mut self, on: bool) {
        self.worms.set_recycle(on);
    }

    fn activate_router(&mut self, r: usize) {
        if !self.router_active[r] {
            self.router_active[r] = true;
            self.active_routers.push(r);
        }
    }

    fn activate_nic(&mut self, n: usize) {
        if !self.nic_active[n] {
            self.nic_active[n] = true;
            self.active_nics.push(n);
        }
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

    /// Deepest any NIC's injection backlog (both vnets combined) has ever
    /// been — upper-bounds the queueing the profiler's `inject_queue`
    /// phase can attribute to a single home NIC.
    pub fn inject_backlog_hwm(&self) -> usize {
        self.nics.max_inject_backlog()
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
    ///
    /// [`TraceLevel::Flit`] additionally forces the single-tile (serial)
    /// tick schedule so per-hop route events are never lost to a parallel
    /// pass; the two schedules are bit-identical, so this changes wall
    /// time only, never results.
    pub fn set_trace_level(&mut self, level: TraceLevel) {
        self.trace.set_level(level);
    }

    /// Enable per-link/VC contention accounting in `window`-cycle
    /// buckets (replaces any previous probe). Forces the single-tile
    /// tick schedule while enabled; a pure observer, so results are
    /// bit-identical with the probe on or off.
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
    /// (replaces any previous meter). Unlike the contention probe this
    /// does not force the serial tick schedule — see [`LinkLoadMeter`]
    /// for the determinism argument.
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

    /// Access a worm record.
    pub fn worm(&self, id: WormId) -> &Worm {
        self.worms.get(id)
    }

    /// Number of worms not yet fully delivered.
    pub fn live_worms(&self) -> usize {
        self.live_worms
    }

    /// True when nothing is queued, streaming, in flight or parked.
    pub fn quiescent(&self) -> bool {
        self.live_worms == 0
    }

    /// Hand a worm to its source NIC for injection.
    ///
    /// Destination sequences must be conformant to the worm's virtual
    /// network rule (checked in debug builds), must not start at the
    /// source, and must not repeat nodes.
    pub fn inject(&mut self, spec: WormSpec) -> WormId {
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
        let vnet = spec.vnet;
        let src = spec.src;
        let tr = self
            .trace
            .wants(TraceClass::Flit)
            .then(|| (spec.txn.0, worm_kind_label(spec.kind), spec.dests.len() as u32));
        if self.worms.will_reuse_slot() {
            self.stats.worm_slots_reused += 1;
        }
        let id = self.worms.insert(spec, self.now);
        if let Some((txn, kind, dests)) = tr {
            let ev = TraceKind::WormInject {
                worm: id.0 as u64,
                txn,
                src: src.idx() as u32,
                kind,
                dests,
            };
            self.trace.push(self.now, ev);
        }
        self.nics.enqueue(src.idx(), vnet, id);
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

    /// Take all messages delivered to `node` so far.
    ///
    /// Convenience API for tests and examples; the allocation-free path is
    /// [`Network::take_delivery_nodes`] + [`Network::pop_delivery`].
    pub fn take_deliveries(&mut self, node: NodeId) -> Vec<Delivery> {
        self.nics.delivered_mut(node.idx()).drain(..).collect()
    }

    /// True if `node` has pending deliveries.
    pub fn has_deliveries(&self, node: NodeId) -> bool {
        !self.nics.delivered(node.idx()).is_empty()
    }

    /// Drain the list of nodes with undrained deliveries into `buf`
    /// (ascending node order), reusing the caller's buffer. Callers should
    /// then [`Network::pop_delivery`] each listed node dry; a node whose
    /// deliveries are left undrained is only re-listed when its next
    /// delivery arrives.
    pub fn take_delivery_nodes(&mut self, buf: &mut Vec<NodeId>) {
        buf.clear();
        for n in self.delivered_nodes.drain(..) {
            self.delivered_flag[n] = false;
            buf.push(NodeId(n as u16));
        }
        // Worklist pushes occur in sorted phase-3 order within one tick,
        // but deliveries can straddle ticks; sort to keep the handoff
        // order identical to the historical ascending full sweep.
        buf.sort_unstable();
    }

    /// Pop the oldest undrained delivery at `node`, if any.
    pub fn pop_delivery(&mut self, node: NodeId) -> Option<Delivery> {
        self.nics.delivered_mut(node.idx()).pop_front()
    }

    /// Pre-dispatch borrow-eligibility scan for the multi-tile schedule.
    /// For every starved, ready northbound first-row candidate, follow
    /// the downstream blocking chain ([`Network::vc_could_pop`]) and
    /// stamp the slot with `now` when the same-cycle boundary credit is
    /// *possible*. `pick_link_winner` borrows a virtual credit only on
    /// stamped slots: `vc_could_pop == false` is exact, so an unstamped
    /// starved candidate provably cannot forward under the serial
    /// schedule and is skipped silently — no assumption, no validation,
    /// no rollback risk. Betting only where the credit is genuinely
    /// possible is what keeps the mis-speculation (rollback) rate at the
    /// few-percent level under sustained congestion.
    fn spec_borrow_scan(&mut self, now: Cycle) {
        let vcs = self.cfg.vcs_total();
        let width = self.cfg.mesh.width();
        let north = Direction::North.index();
        let south = Direction::South.index();
        let mut marks = std::mem::take(&mut self.borrow_marks);
        if marks.len() != self.cfg.mesh.nodes() * vcs {
            marks = vec![0; self.cfg.mesh.nodes() * vcs];
        }
        for b in &self.tile_bounds[1..] {
            for u in b.start..b.start + width {
                if self.routers.flits(u) == 0 {
                    continue;
                }
                for vc in 0..vcs {
                    let Some((ip, iv)) = self.routers.alloc(u, north, vc) else { continue };
                    if self.routers.credit(u, north, vc) != 0 {
                        continue;
                    }
                    if self.routers.front_ready(u, ip, iv) <= now
                        && self.vc_could_pop(now, u - width, south, vc)
                    {
                        marks[u * vcs + vc] = now;
                    }
                }
            }
        }
        self.borrow_marks = marks;
    }

    /// Could router `r` pop the front flit of input `(in_port, in_vc)`
    /// this cycle under the serial ascending sweep (thereby returning a
    /// credit upstream)? Conservative one-sided answer: `true` may still
    /// lose arbitration, `false` is exact.
    ///
    /// A starved *active* VC chains: its pop needs a same-cycle credit
    /// from its own downstream, which the ascending sweep only makes
    /// visible when that downstream has a lower index — i.e. the output
    /// points north (`r - width`) or west (`r - 1`). Following the chain
    /// strictly decreases the router index, so the walk terminates; any
    /// east/south-facing starved link breaks it (those credits come from
    /// higher-index routers and are never same-cycle visible serially).
    fn vc_could_pop(&self, now: Cycle, mut r: usize, mut in_port: usize, mut in_vc: usize) -> bool {
        let width = self.cfg.mesh.width();
        let north = Direction::North.index();
        let west = Direction::West.index();
        loop {
            if self.routers.front_ready(r, in_port, in_vc) > now {
                return false;
            }
            match self.routers.mode(r, in_port, in_vc) {
                // Park drains bypass the crossbar: a ready front always pops.
                VcMode::DrainPark { .. } => return true,
                VcMode::Active { out_port, out_vc, absorb } => {
                    let (out_port, out_vc) = (out_port as usize, out_vc as usize);
                    if out_port == LOCAL {
                        // Consumption space only shrinks during movement
                        // (draining is phase 3), so "full now" is exact.
                        return self.nics.cons_has_space(r, out_vc);
                    }
                    if let Some(cc) = absorb {
                        if !self.nics.cons_has_space(r, cc as usize) {
                            return false;
                        }
                    }
                    if self.routers.credit(r, out_port, out_vc) > 0 {
                        return true;
                    }
                    if out_port == north {
                        r -= width;
                        in_port = Direction::South.index();
                    } else if out_port == west {
                        r -= 1;
                        in_port = Direction::East.index();
                    } else {
                        return false;
                    }
                    in_vc = out_vc;
                }
                VcMode::Normal => {
                    let front =
                        self.routers.front(r, in_port, in_vc).expect("ready implies present");
                    return self.head_could_pop(r, front.flit.worm);
                }
            }
        }
    }

    /// Could phase-1 head processing put this router's front head into a
    /// state that phase 2 pops the same cycle? Mirrors `process_head`
    /// read-only. Exactness leans on phase ordering: all head processing
    /// runs before any movement, so phase 1 sees precisely the pre-tick
    /// credit/allocation state this scan reads.
    fn head_could_pop(&self, r: usize, wid: WormId) -> bool {
        let w = self.worms.get(wid);
        let here = NodeId(r as u16);
        let next = w.next_dest();
        if next != here {
            // Forwarding head: allocation needs a legal direction with a
            // free, credited output VC; once allocated, phase 2 can move it.
            let mask = self.tables[w.spec.vnet.index()].mask(here, next, w.turned);
            let (lo, hi) = self.cfg.vc_class(w.spec.vnet);
            return Direction::ALL.iter().any(|d| {
                mask & (1 << d.index()) != 0
                    && self.routers.best_free_out_vc(r, d.index(), lo, hi).is_some()
            });
        }
        if w.at_last_dest_idx() {
            // Final consumption: a freshly reserved channel has space.
            return self.nics.free_cons(r).is_some();
        }
        if !w.delivers_here() {
            // Waypoint strip re-arms the head at `now + strip_delay`
            // (>= 1, asserted in the constructor): no pop this cycle.
            return false;
        }
        match w.spec.kind {
            WormKind::Unicast => true, // single-destination; unreachable here
            // Absorb strip also re-arms at `now + strip_delay`; the
            // failure paths (no i-ack entry / no channel) stall in place.
            WormKind::Multicast => false,
            WormKind::Gather => match self.cfg.iack_mode {
                // Ready bumps `ready_at` by `iack_check_delay` (>= 1);
                // NotReady stalls in place.
                IackMode::Block => false,
                // Parking or bouncing can start draining the same cycle.
                IackMode::VctDefer => true,
            },
        }
    }

    /// Checkpoint every node this cycle's tile pass could write: the
    /// router and NIC worklists plus the in-mesh 4-neighbors of the
    /// router worklist (forwarded flits deposit one hop downstream and
    /// credits return one hop upstream; phase 3 stays on-node). Worm
    /// runtime state is captured for the whole table — a pass never
    /// inserts or retires, so specs and slot count need no copy.
    fn spec_capture(&mut self, router_work: &[usize], nic_work: &[usize]) {
        let mut ck = std::mem::take(&mut self.spec_ck);
        ck.begin(self.cfg.mesh.nodes());
        for &r in router_work {
            ck.add(r);
            let node = NodeId(r as u16);
            for d in Direction::ALL {
                if let Some(nb) = self.cfg.mesh.neighbor(node, d) {
                    ck.add(nb.idx());
                }
            }
        }
        for &n in nic_work {
            ck.add(n);
        }
        ck.capture(
            &self.routers,
            &self.nics,
            &self.router_active,
            &self.nic_active,
            &self.delivered_flag,
            &self.stats.link_busy,
            &self.worms,
        );
        self.spec_ck = ck;
    }

    /// Barrier-time speculation validation. For each tile, an FNV-64
    /// digest of the boundary credits the pass *assumed* is compared
    /// against a digest of the deferred credits that *actually* landed on
    /// the assumed slots. Deposits need no digesting: the lookahead
    /// invariant makes a deposited flit invisible in the cycle it is
    /// made, assumed and actual alike. Returns true when any tile's
    /// digests differ, charging [`NetStats::spec_rollback_by_tile`].
    ///
    /// Each assumption is a virtual credit a winning forward already
    /// spent, so the assumed digest covers the recorded `(node, vc)`
    /// borrows and the actual digest covers the distinct matching
    /// deferred north credits. When *every* tile matches, the matched
    /// credits are swallowed before the barrier applies the rest —
    /// returning a spent credit would mint one. (At most one north winner
    /// per node per cycle and at most one credit per `(node, vc)` per
    /// cycle, so matching is 1:1.)
    fn spec_validate(&mut self) -> bool {
        let total: usize = self.tile_scratch.iter().map(|s| s.assumptions.len()).sum();
        if total == 0 {
            return false; // nothing was assumed; the cycle is trivially exact
        }
        let north = Direction::North.index();
        let mut any = false;
        // (scratch index, credit index) of credits consumed by a virtual
        // forward, pending swallow on commit.
        let mut matched: Vec<(usize, usize)> = Vec::new();
        for t in 0..self.tile_scratch.len() {
            let n_assume = self.tile_scratch[t].assumptions.len();
            if n_assume == 0 {
                continue;
            }
            let mut assumed = Fnv64::new();
            let mut actual = Fnv64::new();
            let before = matched.len();
            for i in 0..n_assume {
                let a = self.tile_scratch[t].assumptions[i];
                assumed.write_u64(a.node as u64);
                assumed.write_u32(a.vc as u32);
                'search: for (si, s) in self.tile_scratch.iter().enumerate() {
                    for (ci, c) in s.credits.iter().enumerate() {
                        if c.port == north
                            && c.node == a.node as usize
                            && c.vc == a.vc as usize
                            && !matched.contains(&(si, ci))
                        {
                            actual.write_u64(c.node as u64);
                            actual.write_u32(c.vc as u32);
                            matched.push((si, ci));
                            break 'search;
                        }
                    }
                }
            }
            let mismatch = assumed.finish() != actual.finish();
            debug_assert_eq!(
                mismatch,
                matched.len() - before < n_assume,
                "validation digest must track unmatched borrows"
            );
            if mismatch {
                any = true;
                self.stats.spec_rollback_by_tile[t] += 1;
            }
        }
        if !any {
            // Commit: swallow each borrowed credit. Descending index per
            // scratch keeps `swap_remove` targets valid (every matched
            // index above the current one is already gone); credit
            // application is commutative, so order of the survivors is
            // irrelevant.
            matched.sort_unstable_by(|a, b| b.cmp(a));
            for (si, ci) in matched {
                self.tile_scratch[si].credits.swap_remove(ci);
            }
        }
        any
    }

    /// Undo a mis-speculated cycle and replay it on the single-tile
    /// serial schedule. Exact by construction: the checkpoint restores
    /// every node a tile could have written, `reset_for_rollback` drops
    /// all deferred work and per-tile deltas, and the replay *is* the
    /// reference schedule — the barrier merge then applies its results
    /// as on any serial cycle.
    fn spec_rollback(&mut self, now: Cycle, router_work: &[usize], nic_work: &[usize]) {
        self.stats.spec_rollbacks += 1;
        self.stats.spec_replayed_cycles += 1;
        for s in &mut self.tile_scratch {
            s.reset_for_rollback();
        }
        let ck = std::mem::take(&mut self.spec_ck);
        ck.restore(
            &mut self.routers,
            &mut self.nics,
            &mut self.router_active,
            &mut self.nic_active,
            &mut self.delivered_flag,
            &mut self.stats.link_busy,
            &mut self.worms,
        );
        self.spec_ck = ck;

        let Network {
            cfg,
            routers,
            nics,
            worms,
            stats,
            link_extra,
            router_active,
            nic_active,
            delivered_flag,
            tables,
            tile_scratch,
            trace,
            probe,
            ..
        } = self;
        let shared = SharedWorms::new(worms);
        let mut view = TileView {
            base: 0,
            end: cfg.mesh.nodes(),
            routers: routers.view_mut(),
            nics: nics.view_mut(),
            router_active,
            nic_active,
            delivered_flag,
            link_busy: &mut stats.link_busy,
            link_extra: link_extra.as_slice(),
            worms: shared,
            cfg,
            tables,
            scratch: &mut tile_scratch[0],
            trace: Some(trace),
            probe: probe.as_deref_mut(),
            // `base == 0` disables speculation, so the replay is the
            // exact serial reference schedule.
            borrow_marks: &[],
        };
        view.run_pass(now, router_work, nic_work);
    }

    /// Advance one cycle.
    pub fn tick(&mut self) {
        self.now += 1;
        let now = self.now;
        // Commit completed link-load windows before any of this cycle's
        // traffic is stepped: the meter's committed summaries then depend
        // only on cycles `< now`, whose `link_busy` totals are
        // bit-identical across tile counts.
        if let Some(m) = self.link_load.as_mut() {
            m.observe(now, &self.stats.link_busy);
        }

        // Snapshot the worklists for this cycle by swapping them with
        // persistent scratch buffers (both keep their capacity, so the
        // steady-state hot loop allocates nothing). Sorting restores the
        // ascending node order of the historical full sweep, keeping runs
        // bit-identical.
        let mut router_work = std::mem::take(&mut self.router_scratch);
        router_work.clear();
        std::mem::swap(&mut router_work, &mut self.active_routers);
        let router_cap = self.active_routers.capacity();
        router_work.sort_unstable();

        let mut nic_work = std::mem::take(&mut self.nic_scratch);
        nic_work.clear();
        std::mem::swap(&mut nic_work, &mut self.active_nics);
        let nic_cap = self.active_nics.capacity();
        nic_work.sort_unstable();

        // Dispatch to the pool only when the cycle carries enough work to
        // amortize the fan-out/barrier round trip; light cycles run the
        // serial schedule inline. Both schedules produce identical state,
        // so the threshold choice (a pure function of pre-tick state)
        // affects wall time only, never results.
        let configured = self.tile_bounds.len();
        let enough_work = router_work.len() + nic_work.len() >= PARALLEL_WORK_PER_TILE * configured;
        // Flit-level tracing and the contention probe force the
        // single-tile schedule: per-hop events are recorded inside the
        // tile pass, and only the serial view carries the recorder and
        // probe. Bit-identical either way.
        let trace_serial = self.trace.wants(TraceClass::Flit) || self.probe.is_some();
        let parallel = configured > 1 && enough_work && !trace_serial;
        // Stamp the slots where a virtual-credit borrow is worth betting
        // on, then checkpoint everything this cycle's tile pass could
        // write, so a validation mismatch can roll the cycle back.
        if parallel {
            self.spec_borrow_scan(now);
            self.spec_capture(&router_work, &nic_work);
        }
        let whole = [0..self.cfg.mesh.nodes(); 1];

        {
            let Network {
                cfg,
                routers,
                nics,
                worms,
                stats,
                link_extra,
                router_active,
                nic_active,
                delivered_flag,
                tables,
                tile_bounds,
                tile_scratch,
                pool,
                trace,
                probe,
                borrow_marks,
                ..
            } = self;
            let bounds: &[core::ops::Range<usize>] =
                if parallel { &tile_bounds[..] } else { &whole[..] };
            let shared = SharedWorms::new(worms);

            if bounds.len() == 1 {
                // Single-tile schedule (T = 1, thin cycles, forced
                // serial): the whole mesh is one view — no slice
                // carving, no job vector, no per-tick allocation.
                let mut view = TileView {
                    base: 0,
                    end: cfg.mesh.nodes(),
                    routers: routers.view_mut(),
                    nics: nics.view_mut(),
                    router_active,
                    nic_active,
                    delivered_flag,
                    link_busy: &mut stats.link_busy,
                    link_extra: link_extra.as_slice(),
                    worms: shared,
                    cfg,
                    tables,
                    scratch: &mut tile_scratch[0],
                    trace: Some(trace),
                    probe: probe.as_deref_mut(),
                    borrow_marks: &[],
                };
                view.run_pass(now, &router_work, &nic_work);
            } else {
                self::run_tiles(
                    now,
                    bounds,
                    cfg,
                    tables,
                    shared,
                    routers.view_mut(),
                    nics.view_mut(),
                    router_active,
                    nic_active,
                    delivered_flag,
                    &mut stats.link_busy,
                    link_extra.as_slice(),
                    tile_scratch,
                    &router_work,
                    &nic_work,
                    pool.as_ref().expect("pool exists when tiles > 1"),
                    borrow_marks.as_slice(),
                );
            }
        }

        // Speculation settlement: before any deferred work is applied,
        // compare each tile's assumed and actual boundary-credit digests.
        // A mismatch means the serial schedule might have moved a flit
        // this cycle that the speculative pass did not (or vice versa):
        // roll back and replay serially.
        if parallel {
            if self.spec_validate() {
                self.spec_rollback(now, &router_work, &nic_work);
            } else {
                self.stats.spec_commits += 1;
            }
        }

        // Cycle barrier: fold per-tile deltas and deferred cross-tile work
        // back into the global state. Worm events replay in tile order ==
        // ascending node order == the serial schedule.
        let mut scratch = std::mem::take(&mut self.tile_scratch);
        for s in scratch.iter_mut() {
            s.assumptions.clear();
            s.stats.merge_into(&mut self.stats);
            if let Some(v) = s.violation.take() {
                self.violation.get_or_insert(v);
            }
            for c in s.credits.drain(..) {
                self.routers.add_credit(c.node, c.port, c.vc);
            }
            for d in s.deposits.drain(..) {
                self.routers.deposit(d.node, d.port, d.vc, d.bf);
                self.activate_router(d.node);
            }
            for ev in s.events.drain(..) {
                self.apply_worm_event(now, ev);
            }
            self.delivered_nodes.append(&mut s.delivered);
            self.active_routers.append(&mut s.new_routers);
            self.active_nics.append(&mut s.new_nics);
        }
        self.tile_scratch = scratch;

        if self.active_routers.capacity() != router_cap {
            self.stats.scratch_grows += 1;
        }
        self.router_scratch = router_work;
        if self.active_nics.capacity() != nic_cap {
            self.stats.scratch_grows += 1;
        }
        self.nic_scratch = nic_work;
    }
}

/// Concurrent tile pass: carve the per-node slabs into per-tile exclusive
/// windows, partition the sorted worklists by tile range, and fan the tile
/// jobs out across the worker pool.
#[allow(clippy::too_many_arguments)]
fn run_tiles<'a>(
    now: Cycle,
    bounds: &[core::ops::Range<usize>],
    cfg: &'a MeshConfig,
    tables: &'a [RouteTable; NUM_VNETS],
    shared: SharedWorms,
    routers: RouterTile<'a>,
    nics: NicTile<'a>,
    mut ra_rest: &'a mut [bool],
    mut na_rest: &'a mut [bool],
    mut df_rest: &'a mut [bool],
    mut lb_rest: &'a mut [u64],
    link_extra: &'a [Cycle],
    tile_scratch: &'a mut [TileScratch],
    router_work: &'a [usize],
    nic_work: &'a [usize],
    pool: &WorkerPool,
    borrow_marks: &'a [Cycle],
) {
    let mut routers_rest = routers;
    let mut nics_rest = nics;
    let mut scratch_iter = tile_scratch.iter_mut();
    let mut rw_rest: &[usize] = router_work;
    let mut nw_rest: &[usize] = nic_work;
    let mut jobs: Vec<Mutex<TileJob>> = Vec::with_capacity(bounds.len());
    for b in bounds {
        let len = b.end - b.start;
        let (r_s, r_r) = routers_rest.split_at(len);
        routers_rest = r_r;
        let (n_s, n_r) = nics_rest.split_at(len);
        nics_rest = n_r;
        let (ra_s, ra_r) = std::mem::take(&mut ra_rest).split_at_mut(len);
        ra_rest = ra_r;
        let (na_s, na_r) = std::mem::take(&mut na_rest).split_at_mut(len);
        na_rest = na_r;
        let (df_s, df_r) = std::mem::take(&mut df_rest).split_at_mut(len);
        df_rest = df_r;
        let (lb_s, lb_r) = std::mem::take(&mut lb_rest).split_at_mut(len * 4);
        lb_rest = lb_r;
        let rsplit = rw_rest.partition_point(|&r| r < b.end);
        let (rw, rw_r) = rw_rest.split_at(rsplit);
        rw_rest = rw_r;
        let nsplit = nw_rest.partition_point(|&n| n < b.end);
        let (nw, nw_r) = nw_rest.split_at(nsplit);
        nw_rest = nw_r;
        let view = TileView {
            base: b.start,
            end: b.end,
            routers: r_s,
            nics: n_s,
            router_active: ra_s,
            nic_active: na_s,
            delivered_flag: df_s,
            link_busy: lb_s,
            link_extra,
            worms: shared,
            cfg,
            tables,
            scratch: scratch_iter.next().expect("scratch per tile"),
            trace: None,
            probe: None,
            borrow_marks,
        };
        jobs.push(Mutex::new((view, rw, nw)));
    }

    let jobs_ref = &jobs;
    pool.run(jobs_ref.len(), &|i| {
        let mut guard = jobs_ref[i].lock().expect("unpoisoned");
        let (view, rw, nw) = &mut *guard;
        view.run_pass(now, rw, nw);
    });
}

impl Network {
    /// Replay one deferred worm completion in serial order.
    fn apply_worm_event(&mut self, now: Cycle, ev: WormEvent) {
        if self.trace.wants(TraceClass::Flit) {
            let txn = self.worms.get(ev.wid).spec.txn.0;
            self.trace.push(
                now,
                TraceKind::WormDeliver {
                    worm: ev.wid.0 as u64,
                    txn,
                    node: ev.node as u32,
                    is_final: ev.is_final,
                    latency: ev.latency as u64,
                },
            );
        }
        let w = self.worms.get_mut(ev.wid);
        w.copies -= 1;
        if ev.is_final {
            w.state = WormState::Delivered;
            w.delivered_at = Some(now);
            self.live_worms -= 1;
            match ev.kind {
                WormKind::Unicast => self.stats.unicast_latency.record(ev.latency),
                WormKind::Multicast => self.stats.multicast_latency.record(ev.latency),
                WormKind::Gather => self.stats.gather_latency.record(ev.latency),
            }
        }
        self.maybe_retire(ev.wid);
    }

    /// Free a worm's table slot once it is delivered with no outstanding
    /// consumption copies (no-op while recycling is off).
    fn maybe_retire(&mut self, wid: WormId) {
        let w = self.worms.get(wid);
        if w.state == WormState::Delivered && w.copies == 0 {
            self.worms.retire(wid);
        }
    }

    /// True when ticking would be a complete no-op: no worms live anywhere
    /// and no NIC has queued work (deposit retries included). Undrained
    /// `delivered` queues don't matter — `tick` never touches them.
    pub fn fully_idle(&self) -> bool {
        self.live_worms == 0 && self.active_routers.is_empty() && self.active_nics.is_empty()
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

    /// Serialize the network's full dynamic state: routers, NICs, worm
    /// table, clock, live-worm count, worklists, delivery flags,
    /// statistics and the sticky violation. Configuration, routing
    /// tables, tiling and observers (flight recorder, contention probe)
    /// are *not* saved — the loader rebuilds them from
    /// its own [`MeshConfig`], which must match the saving side's
    /// (validated by the caller; `DsmSystem` gates on a config
    /// fingerprint).
    pub fn save_state(&self, w: &mut SnapWriter) {
        w.put_u64(self.now);
        self.routers.save(w);
        self.nics.save(w);
        self.worms.save(w);
        w.put_usize(self.live_worms);
        self.router_active.save(w);
        self.active_routers.save(w);
        self.nic_active.save(w);
        self.active_nics.save(w);
        // Worklist *capacities* travel too: `scratch_grows` counts
        // allocator warm-up, so a restored network must start with the
        // donor's buffer capacities or that counter (and with it
        // full-registry bit-identity vs the uninterrupted run) diverges.
        w.put_usize(self.active_routers.capacity());
        w.put_usize(self.router_scratch.capacity());
        w.put_usize(self.active_nics.capacity());
        w.put_usize(self.nic_scratch.capacity());
        self.delivered_flag.save(w);
        self.delivered_nodes.save(w);
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

    /// Rebuild a network from `cfg` and a [`Network::save_state`] stream,
    /// cross-validating the stream's geometry against the configuration.
    /// The worm-recycling flag travels with the worm table; tiling and
    /// trace/probe state are fresh (callers re-apply).
    pub fn load_state(cfg: MeshConfig, r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let mut net = Network::new(cfg);
        let nodes = net.cfg.mesh.nodes();
        net.now = r.get_u64()?;
        net.routers = RouterSlab::load(r)?;
        net.nics = NicSlab::load(r)?;
        net.worms = WormTable::load(r)?;
        net.live_worms = r.get_usize()?;
        net.router_active = Vec::load(r)?;
        net.active_routers = Vec::load(r)?;
        net.nic_active = Vec::load(r)?;
        net.active_nics = Vec::load(r)?;
        let ar_cap = r.get_usize()?;
        let rs_cap = r.get_usize()?;
        let an_cap = r.get_usize()?;
        let ns_cap = r.get_usize()?;
        net.active_routers.reserve_exact(ar_cap.saturating_sub(net.active_routers.len()));
        net.router_scratch = Vec::with_capacity(rs_cap);
        net.active_nics.reserve_exact(an_cap.saturating_sub(net.active_nics.len()));
        net.nic_scratch = Vec::with_capacity(ns_cap);
        net.delivered_flag = Vec::load(r)?;
        net.delivered_nodes = Vec::load(r)?;
        net.stats = NetStats::load(r)?;
        net.violation = Option::load(r)?;
        net.link_load = if r.get_bool()? {
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
        if net.routers.nodes() != nodes {
            return Err(SnapError::Mismatch(format!(
                "snapshot has {} routers, config wants {nodes}",
                net.routers.nodes()
            )));
        }
        if net.routers.vcs() != net.cfg.vcs_total() {
            return Err(SnapError::Mismatch(format!(
                "snapshot has {} VCs per port, config wants {}",
                net.routers.vcs(),
                net.cfg.vcs_total()
            )));
        }
        if net.router_active.len() != nodes
            || net.nic_active.len() != nodes
            || net.delivered_flag.len() != nodes
            || net.stats.link_busy.len() != nodes * 4
        {
            return Err(SnapError::Mismatch("snapshot flag/stat slabs mismatch node count".into()));
        }
        if net
            .active_routers
            .iter()
            .chain(&net.active_nics)
            .chain(&net.delivered_nodes)
            .any(|&n| n >= nodes)
        {
            return Err(SnapError::Corrupt("worklist node id out of range".into()));
        }
        if net.live_worms > net.worms.len() {
            return Err(SnapError::Corrupt(format!(
                "{} live worms exceeds table of {}",
                net.live_worms,
                net.worms.len()
            )));
        }
        net.stats.spec_rollback_by_tile.resize(net.cfg.tiles, 0);
        Ok(net)
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

impl Snap for NetStats {
    fn save(&self, w: &mut SnapWriter) {
        w.put_u64(self.flit_hops);
        w.put_u64(self.flits_injected);
        w.put_u64(self.flits_consumed);
        w.put_u64(self.worms_injected[0]);
        w.put_u64(self.worms_injected[1]);
        w.put_u64(self.deliveries);
        w.put_u64(self.gather_blocked_cycles);
        w.put_u64(self.multicast_blocked_cycles);
        w.put_u64(self.parks);
        w.put_u64(self.bounces);
        w.put_u64(self.resumes);
        w.put_u64(self.deposits);
        w.put_u64(self.deposit_retries);
        self.link_busy.save(w);
        self.unicast_latency.save(w);
        self.multicast_latency.save(w);
        self.gather_latency.save(w);
        w.put_u64(self.worm_slots_reused);
        w.put_u64(self.scratch_grows);
        w.put_u64(self.spec_commits);
        w.put_u64(self.spec_rollbacks);
        w.put_u64(self.spec_replayed_cycles);
        self.spec_rollback_by_tile.save(w);
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Self {
            flit_hops: r.get_u64()?,
            flits_injected: r.get_u64()?,
            flits_consumed: r.get_u64()?,
            worms_injected: [r.get_u64()?, r.get_u64()?],
            deliveries: r.get_u64()?,
            gather_blocked_cycles: r.get_u64()?,
            multicast_blocked_cycles: r.get_u64()?,
            parks: r.get_u64()?,
            bounces: r.get_u64()?,
            resumes: r.get_u64()?,
            deposits: r.get_u64()?,
            deposit_retries: r.get_u64()?,
            link_busy: Vec::load(r)?,
            unicast_latency: Summary::load(r)?,
            multicast_latency: Summary::load(r)?,
            gather_latency: Summary::load(r)?,
            worm_slots_reused: r.get_u64()?,
            scratch_grows: r.get_u64()?,
            spec_commits: r.get_u64()?,
            spec_rollbacks: r.get_u64()?,
            spec_replayed_cycles: r.get_u64()?,
            spec_rollback_by_tile: Vec::load(r)?,
        })
    }
}
