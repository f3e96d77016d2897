//! Force each promoted protocol invariant to fire and verify the
//! always-on auditing pipeline end-to-end: the violation is recorded
//! (never a panic — these run in release too), the run surfaces it as
//! [`SimError::Invariant`], and the attached flight-recorder dump is
//! non-empty even with tracing at its default runtime level (Off).
//!
//! Malformed traffic is injected through [`DsmSystem::debug_deliver`],
//! which hands a forged protocol message straight to a node's cache
//! controller as if the network had delivered it.

use wormdsm_coherence::{Addr, BlockId, ProtoMsg};
use wormdsm_core::{ConsistencyModel, DsmSystem, MemOp, SchemeKind, SimError, SystemConfig};
use wormdsm_mesh::topology::{Mesh2D, NodeId};
use wormdsm_mesh::TxnId;
use wormdsm_sim::trace::TraceKind;

fn system(k: usize, scheme: SchemeKind) -> DsmSystem {
    DsmSystem::new(SystemConfig::for_scheme(k, scheme), scheme.build())
}

fn addr_of_block(sys: &DsmSystem, b: u64) -> Addr {
    Addr(b * sys.config().block_bytes)
}

/// Seed a scattered sharer set on block 0 (home = node 0), start a write
/// from the far corner and step until the invalidation transaction opens.
fn open_invalidation(sys: &mut DsmSystem) -> (TxnId, BlockId) {
    let k = 4;
    let mesh = Mesh2D::square(k);
    let a = addr_of_block(sys, 0);
    let b = sys.geometry().block_of(a);
    let sharers: Vec<NodeId> =
        [(1, 1), (2, 2), (3, 1), (1, 3)].iter().map(|&(x, y)| mesh.node_at(x, y)).collect();
    sys.seed_shared(b, &sharers);
    sys.issue(mesh.node_at(k - 1, 0), MemOp::Write(a));
    for _ in 0..10_000 {
        if let Some(&txn) = sys.open_txn_ids().first() {
            return (txn, b);
        }
        sys.step();
    }
    panic!("invalidation transaction never opened");
}

/// Every surfaced violation must carry a non-empty recorder dump (the
/// `invariant_fired` event is pushed unconditionally, so even a run with
/// tracing off has at least that) and a bumped failure counter.
fn assert_violation(sys: &mut DsmSystem, needle: &str) {
    let err = sys.run_until_idle(100_000).unwrap_err();
    let SimError::Invariant(v) = err else { panic!("expected invariant error, got {err}") };
    assert!(v.what.contains(needle), "violation {:?} does not mention {needle:?}", v.what);
    assert!(!v.recent.is_empty(), "violation dump is empty");
    assert!(
        v.recent.iter().any(|e| matches!(e.kind, TraceKind::InvariantFired { .. })),
        "dump lacks the invariant_fired marker"
    );
    assert!(sys.metrics().invariant_failures >= 1);
    let shown = v.to_string();
    assert!(shown.contains("protocol invariant violated"), "{shown}");
    // The same violation is also available without consuming the error.
    assert_eq!(sys.invariant_violation().map(|w| w.what.as_str()), Some(v.what.as_str()));
}

#[test]
fn ack_for_dead_transaction_is_caught() {
    let mut sys = system(4, SchemeKind::UiUa);
    let b = sys.geometry().block_of(addr_of_block(&sys, 0));
    sys.debug_deliver(
        NodeId(0),
        ProtoMsg::InvAck { block: b, txn: TxnId(42), count: 1 },
        1,
        NodeId(5),
    );
    assert_violation(&mut sys, "dead transaction");
}

#[test]
fn ack_delivered_to_wrong_home_is_caught() {
    let mut sys = system(4, SchemeKind::UiUa);
    let (txn, b) = open_invalidation(&mut sys);
    let not_home = NodeId(5);
    sys.debug_deliver(not_home, ProtoMsg::InvAck { block: b, txn, count: 1 }, 1, NodeId(6));
    assert_violation(&mut sys, "homed at");
}

#[test]
fn over_collected_acks_are_caught() {
    let mut sys = system(4, SchemeKind::UiUa);
    let (txn, b) = open_invalidation(&mut sys);
    // A forged bulk ack overshoots the needed count; completion must
    // notice got != needed.
    sys.debug_deliver(NodeId(0), ProtoMsg::InvAck { block: b, txn, count: 1000 }, 1, NodeId(6));
    assert_violation(&mut sys, "over-collected");
}

#[test]
fn completion_while_not_stalled_is_caught() {
    let mut sys = system(4, SchemeKind::UiUa);
    let b = sys.geometry().block_of(addr_of_block(&sys, 3));
    // Node 9 never asked for anything; a stray read reply must not panic
    // or silently resume it.
    sys.debug_deliver(NodeId(9), ProtoMsg::ReadReply { block: b }, 0, NodeId(3));
    assert_violation(&mut sys, "not stalled");
}

#[test]
fn completion_for_wrong_block_is_caught() {
    let mut sys = system(4, SchemeKind::UiUa);
    let a1 = addr_of_block(&sys, 5);
    let b2 = sys.geometry().block_of(addr_of_block(&sys, 6));
    let reader = NodeId(10);
    // Stall the reader on block 5, then forge a reply for block 6: the
    // completion-vs-stall match must reject it.
    sys.issue(reader, MemOp::Read(a1));
    assert!(!sys.proc_idle(reader), "read miss should stall");
    sys.debug_deliver(reader, ProtoMsg::ReadReply { block: b2 }, 0, NodeId(6));
    assert_violation(&mut sys, "does not match its stall");
}

#[test]
fn write_grant_with_no_pending_write_is_caught() {
    let mut sys = system(4, SchemeKind::UiUa);
    let b = sys.geometry().block_of(addr_of_block(&sys, 7));
    sys.debug_deliver(NodeId(2), ProtoMsg::WriteGrant { block: b, with_data: true }, 0, NodeId(7));
    assert_violation(&mut sys, "no pending write");
}

#[test]
fn first_violation_is_sticky() {
    let mut sys = system(4, SchemeKind::UiUa);
    let b = sys.geometry().block_of(addr_of_block(&sys, 0));
    sys.debug_deliver(
        NodeId(0),
        ProtoMsg::InvAck { block: b, txn: TxnId(42), count: 1 },
        1,
        NodeId(5),
    );
    assert_violation(&mut sys, "dead transaction");
    // A second violation bumps the counter but must not displace the
    // structured report of the first.
    sys.debug_deliver(NodeId(9), ProtoMsg::ReadReply { block: b }, 0, NodeId(3));
    // `run_until_idle` refuses to continue a poisoned run, so step the
    // engine by hand to let the second delivery dispatch.
    for _ in 0..100 {
        sys.step();
    }
    assert_eq!(sys.metrics().invariant_failures, 2);
    let v = sys.invariant_violation().expect("violation still recorded");
    assert!(v.what.contains("dead transaction"), "first violation displaced: {:?}", v.what);
}

// ---------------------------------------------------------------------
// Dead-cycle fast-forward boundary behaviour (audit regression tests).
// ---------------------------------------------------------------------

#[test]
fn wakeup_at_next_cycle_is_never_skipped() {
    let mut sys = system(4, SchemeKind::UiUa);
    // BusyUntil(now + 1): the jump guard (`t > now + 1`) must not fire —
    // skipping here would land on the wake-up cycle itself.
    sys.issue(NodeId(0), MemOp::Compute(1));
    sys.run_until_idle(100).unwrap();
    assert_eq!(sys.skipped_cycles(), 0);
}

#[test]
fn two_cycle_sleep_skips_exactly_one() {
    let mut sys = system(4, SchemeKind::UiUa);
    // BusyUntil(now + 2): exactly one dead cycle exists between now and
    // the wake-up; the jump must stop at wake-up minus one.
    sys.issue(NodeId(0), MemOp::Compute(2));
    sys.run_until_idle(100).unwrap();
    assert_eq!(sys.skipped_cycles(), 1);
}

#[test]
fn fast_forward_is_bit_identical() {
    let run = |ff: bool| {
        let mut sys = system(4, SchemeKind::MiMaCol);
        sys.set_fast_forward(ff);
        let mesh = Mesh2D::square(4);
        let a = addr_of_block(&sys, 0);
        let b = sys.geometry().block_of(a);
        let sharers: Vec<NodeId> =
            [(1, 1), (2, 2), (3, 1)].iter().map(|&(x, y)| mesh.node_at(x, y)).collect();
        sys.seed_shared(b, &sharers);
        sys.issue(mesh.node_at(3, 0), MemOp::Write(a));
        let end = sys.run_until_idle(200_000).unwrap();
        (end, sys.metrics().inval_txns, sys.metrics().inval_latency.sum(), sys.skipped_cycles())
    };
    let fast = run(true);
    let slow = run(false);
    assert_eq!((fast.0, fast.1, fast.2), (slow.0, slow.1, slow.2));
    assert!(fast.3 > 0, "fast-forward never engaged");
    assert_eq!(slow.3, 0);
}

#[test]
fn try_new_rejects_bad_configs_before_any_cycle() {
    // An over-provisioned VC config blows the router occupancy bitset:
    // rejected as SimError::Config with the mesh-level message, not a
    // panic deep inside Network::new.
    let mut cfg = SystemConfig::for_scheme(4, SchemeKind::UiUa);
    cfg.mesh.vcs_per_vnet = 64;
    let err = DsmSystem::try_new(cfg, SchemeKind::UiUa.build()).err().expect("must reject");
    let SimError::Config(msg) = err else { panic!("expected config error, got {err}") };
    assert!(msg.contains("occupancy bitset"), "{msg}");

    // Scheme/routing mismatch surfaces the same way.
    let mut cfg = SystemConfig::for_scheme(4, SchemeKind::MiUaWf);
    cfg.mesh.routing = wormdsm_mesh::routing::BaseRouting::ECube;
    let err = DsmSystem::try_new(cfg, SchemeKind::MiUaWf.build()).err().expect("must reject");
    let SimError::Config(msg) = err else { panic!("expected config error, got {err}") };
    assert!(msg.contains("not conformant"), "{msg}");

    // A valid config still constructs.
    let cfg = SystemConfig::for_scheme(4, SchemeKind::UiUa);
    assert!(DsmSystem::try_new(cfg, SchemeKind::UiUa.build()).is_ok());
}

/// The message `try_new` refuses `scheme` with once `edit` has been
/// applied to its paper-default 4x4 config; panics unless it is a
/// [`SimError::Config`].
fn config_error(scheme: SchemeKind, edit: impl FnOnce(&mut SystemConfig)) -> String {
    let mut cfg = SystemConfig::for_scheme(4, scheme);
    edit(&mut cfg);
    match DsmSystem::try_new(cfg, scheme.build()) {
        Err(SimError::Config(msg)) => msg,
        Err(e) => panic!("expected config error, got {e}"),
        Ok(_) => panic!("config must be refused"),
    }
}

/// `Cache::new` asserts a power-of-two set count.
#[test]
fn try_new_rejects_a_cache_set_count_that_is_not_a_power_of_two() {
    let msg = config_error(SchemeKind::UiUa, |c| c.cache_sets = 3);
    assert!(msg.contains("cache_sets"), "{msg}");
}

/// `MemGeometry::new` asserts a power-of-two block of at least 4 bytes.
#[test]
fn try_new_rejects_bad_block_sizes() {
    for bytes in [48, 2] {
        let msg = config_error(SchemeKind::UiUa, |c| c.block_bytes = bytes);
        assert!(msg.contains("block_bytes"), "{bytes}: {msg}");
    }
}

/// A worm needs a head and a tail flit: zero-flit control messages
/// panicked on the first send, zero-flit gathers on the first i-gather
/// worm of MI-MA(col) and MI-MA(2ph).
#[test]
fn try_new_rejects_message_sizes_without_head_and_tail_flits() {
    let msg = config_error(SchemeKind::UiUa, |c| c.sizes.control = 0);
    assert!(msg.contains("sizes.control"), "{msg}");
    for scheme in [SchemeKind::MiMaCol, SchemeKind::MiMaTwoPhase] {
        let msg = config_error(scheme, |c| c.sizes.gather = 0);
        assert!(msg.contains("sizes.gather"), "{scheme:?}: {msg}");
    }
    let msg = config_error(SchemeKind::MiMaCol, |c| c.sizes.per_extra_dest_x4 = u16::MAX);
    assert!(msg.contains("u16 length limit"), "{msg}");
    let mut cfg = SystemConfig::for_scheme(4, SchemeKind::MiMaCol);
    (cfg.sizes.control, cfg.sizes.gather) = (2, 2);
    assert!(DsmSystem::try_new(cfg, SchemeKind::MiMaCol.build()).is_ok());
}

/// A release-consistency write buffer of depth 0 deferred the first
/// write forever.
#[test]
fn try_new_rejects_an_empty_release_write_buffer() {
    let msg = config_error(SchemeKind::UiUa, |c| {
        c.consistency = ConsistencyModel::Release { write_buffer: 0 }
    });
    assert!(msg.contains("write_buffer"), "{msg}");
}

/// One edit of a paper-default config.
type Edit = fn(&mut SystemConfig);

/// A router delay near `u64::MAX` overflowed `now + delay`: a panic in
/// debug builds, a wrapped clock and a wrong cycle count in release. A
/// router delay past 256 cycles is refused too: a buffered flit keeps its
/// deposit gap in one byte.
#[test]
fn try_new_rejects_mesh_delays_that_overflow_the_clock() {
    const MAX: u64 = wormdsm_core::MAX_TIMING_CYCLES;
    let cases: [(&str, Edit); 4] = [
        ("mesh.router_delay", |c| c.mesh.router_delay = MAX + 1),
        ("router_delay must be <= 256 (got 257)", |c| c.mesh.router_delay = 257),
        ("mesh.strip_delay", |c| c.mesh.strip_delay = u64::MAX / 2),
        ("mesh.iack_check_delay", |c| c.mesh.iack_check_delay = u64::MAX),
    ];
    for (field, edit) in cases {
        let msg = config_error(SchemeKind::MiMaCol, edit);
        assert!(msg.contains(field), "{msg}");
    }
    let mut cfg = SystemConfig::for_scheme(4, SchemeKind::MiMaCol);
    cfg.mesh.router_delay = 256;
    assert!(DsmSystem::try_new(cfg, SchemeKind::MiMaCol.build()).is_ok());
}

/// The same for every controller and memory cost (`dc_proc`,
/// `mem_access` and `iack_post` overflowed at `u64::MAX`).
#[test]
fn try_new_rejects_costs_that_overflow_the_clock() {
    const MAX: u64 = wormdsm_core::MAX_TIMING_CYCLES;
    let cases: [(&str, Edit); 7] = [
        ("costs.dc_proc", |c| c.costs.dc_proc = u64::MAX),
        ("costs.dc_send", |c| c.costs.dc_send = MAX + 1),
        ("costs.cc_proc", |c| c.costs.cc_proc = u64::MAX / 2),
        ("costs.cc_send", |c| c.costs.cc_send = MAX + 1),
        ("costs.cache_access", |c| c.costs.cache_access = MAX + 1),
        ("costs.mem_access", |c| c.costs.mem_access = u64::MAX),
        ("costs.iack_post", |c| c.costs.iack_post = u64::MAX),
    ];
    for (field, edit) in cases {
        let msg = config_error(SchemeKind::MiMaCol, edit);
        assert!(msg.contains(field), "{msg}");
    }
    let mut cfg = SystemConfig::for_scheme(4, SchemeKind::MiMaCol);
    cfg.costs.mem_access = MAX;
    assert!(DsmSystem::try_new(cfg, SchemeKind::MiMaCol.build()).is_ok());
}
