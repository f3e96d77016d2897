//! End-to-end protocol tests: full invalidation transactions under every
//! scheme, read/write miss paths, ownership transfer, queuing, sync
//! services, and determinism.

use wormdsm_coherence::{Addr, DirState, LineState};
use wormdsm_core::{ConsistencyModel, DsmSystem, MemOp, SchemeKind, SystemConfig};
use wormdsm_mesh::topology::{Mesh2D, NodeId};

fn system(k: usize, scheme: SchemeKind) -> DsmSystem {
    DsmSystem::new(SystemConfig::for_scheme(k, scheme), scheme.build())
}

/// Block 0's home is node 0; use block ids directly via addresses.
fn addr_of_block(sys: &DsmSystem, b: u64) -> Addr {
    Addr(b * sys.config().block_bytes)
}

#[test]
fn read_miss_installs_shared_copy() {
    let mut sys = system(4, SchemeKind::UiUa);
    let a = addr_of_block(&sys, 5); // home = node 5
    let reader = NodeId(10);
    sys.issue(reader, MemOp::Read(a));
    sys.run_until_idle(50_000).unwrap();
    let b = sys.geometry().block_of(a);
    assert_eq!(sys.cache_state(reader, b), Some(LineState::Shared));
    assert_eq!(sys.dir_state(b), DirState::Shared);
    assert_eq!(sys.metrics().read_misses, 1);
    let lat = sys.metrics().read_latency.mean();
    // Clean remote read miss: request + DRAM + 40-flit data reply. Must
    // land in the DASH-era few-hundred-ns range (paper Table 4/5 scale).
    assert!(lat > 50.0 && lat < 400.0, "read miss latency {lat} cycles");
}

#[test]
fn local_read_miss_skips_network() {
    let mut sys = system(4, SchemeKind::UiUa);
    let a = addr_of_block(&sys, 3);
    let reader = NodeId(3); // reader == home
    sys.issue(reader, MemOp::Read(a));
    sys.run_until_idle(50_000).unwrap();
    assert_eq!(sys.net_stats().flit_hops, 0, "local miss must not touch the network");
    let b = sys.geometry().block_of(a);
    assert_eq!(sys.cache_state(reader, b), Some(LineState::Shared));
}

#[test]
fn write_to_uncached_gets_exclusive() {
    let mut sys = system(4, SchemeKind::UiUa);
    let a = addr_of_block(&sys, 7);
    let writer = NodeId(2);
    sys.issue(writer, MemOp::Write(a));
    sys.run_until_idle(50_000).unwrap();
    let b = sys.geometry().block_of(a);
    assert_eq!(sys.cache_state(writer, b), Some(LineState::Modified));
    assert_eq!(sys.dir_state(b), DirState::Exclusive(writer));
    assert_eq!(sys.metrics().inval_txns, 0, "no sharers, no invalidation");
    // Subsequent write hits.
    sys.issue(writer, MemOp::Write(a));
    sys.run_until_idle(50_000).unwrap();
    assert_eq!(sys.metrics().write_hits, 1);
}

/// The core cross-scheme test: seed a scattered sharer set, write, and
/// verify the invalidation transaction end-to-end.
fn run_invalidation(scheme: SchemeKind, k: usize, sharer_xy: &[(usize, usize)]) -> DsmSystem {
    let mut sys = system(k, scheme);
    let mesh = Mesh2D::square(k);
    let a = addr_of_block(&sys, 0); // home = node 0 at (0,0)
    let b = sys.geometry().block_of(a);
    let sharers: Vec<NodeId> = sharer_xy.iter().map(|&(x, y)| mesh.node_at(x, y)).collect();
    sys.seed_shared(b, &sharers);
    let writer = mesh.node_at(k - 1, 0);
    assert!(!sharers.contains(&writer));
    sys.issue(writer, MemOp::Write(a));
    sys.run_until_idle(200_000).unwrap_or_else(|e| panic!("{scheme}: {e}"));
    for &s in &sharers {
        assert_eq!(sys.cache_state(s, b), None, "{scheme}: {s} still cached");
    }
    assert_eq!(sys.cache_state(writer, b), Some(LineState::Modified), "{scheme}");
    assert_eq!(sys.dir_state(b), DirState::Exclusive(writer), "{scheme}");
    assert_eq!(sys.metrics().inval_txns, 1, "{scheme}");
    assert_eq!(sys.metrics().inval_set_size.summary().mean(), sharers.len() as f64);
    sys
}

const SCATTER: [(usize, usize); 6] = [(1, 2), (1, 5), (3, 1), (3, 3), (5, 6), (6, 2)];

#[test]
fn invalidation_ui_ua() {
    let sys = run_invalidation(SchemeKind::UiUa, 8, &SCATTER);
    // 1 write req + 6 invals sent + 6 acks + 1 grant = 14.
    assert_eq!(sys.metrics().inval_home_msgs.mean(), 14.0);
}

#[test]
fn invalidation_mi_ua_col() {
    let sys = run_invalidation(SchemeKind::MiUaCol, 8, &SCATTER);
    // 4 column worms instead of 6 unicasts: 1 + 4 + 6 + 1 = 12.
    assert_eq!(sys.metrics().inval_home_msgs.mean(), 12.0);
}

#[test]
fn invalidation_mi_ma_col() {
    let sys = run_invalidation(SchemeKind::MiMaCol, 8, &SCATTER);
    // 4 worms out, 4 gathers in: 1 + 4 + 4 + 1 = 10.
    assert_eq!(sys.metrics().inval_home_msgs.mean(), 10.0);
}

#[test]
fn invalidation_mi_ma_tree() {
    let sys = run_invalidation(SchemeKind::MiMaTree, 8, &SCATTER);
    // Home sends 1 east relay (all sharer columns are east of home at
    // (0,0)); receives 4 gathers: 1 + 1 + 4 + 1 = 7.
    assert_eq!(sys.metrics().inval_home_msgs.mean(), 7.0);
}

#[test]
fn invalidation_mi_ma_two_phase() {
    let sys = run_invalidation(SchemeKind::MiMaTwoPhase, 8, &SCATTER);
    // Home at (0,0): all four groups are south side. Row assignment gives
    // a trigger (row 6), two deposits (rows 2, 1) and one group that runs
    // into the home row and degrades to a direct gather:
    // 1 req + 4 sends + (1 sweep + 1 direct) + 1 grant = 8.
    assert_eq!(sys.metrics().inval_home_msgs.mean(), 8.0);
    assert!(sys.net_stats().deposits > 0, "two-phase must use i-ack deposits");
}

#[test]
fn invalidation_mi_ua_wf() {
    let sys = run_invalidation(SchemeKind::MiUaWf, 8, &SCATTER);
    // One serpentine worm out, d unicast acks: 1 + 1 + 6 + 1 = 9.
    assert_eq!(sys.metrics().inval_home_msgs.mean(), 9.0);
}

#[test]
fn invalidation_mi_ma_wf() {
    let sys = run_invalidation(SchemeKind::MiMaWf, 8, &SCATTER);
    // One serpentine out; ack side as MI-MA(2ph): sweep + one degraded
    // direct gather: 1 + 1 + 2 + 1 = 5.
    assert_eq!(sys.metrics().inval_home_msgs.mean(), 5.0);
}

#[test]
fn home_message_count_ordering_matches_paper() {
    // The paper's occupancy argument: UI-UA > MI-UA > MI-MA in home
    // message involvement.
    let ui = run_invalidation(SchemeKind::UiUa, 8, &SCATTER).metrics().inval_home_msgs.mean();
    let mi_ua = run_invalidation(SchemeKind::MiUaCol, 8, &SCATTER).metrics().inval_home_msgs.mean();
    let mi_ma = run_invalidation(SchemeKind::MiMaCol, 8, &SCATTER).metrics().inval_home_msgs.mean();
    let two_ph =
        run_invalidation(SchemeKind::MiMaTwoPhase, 8, &SCATTER).metrics().inval_home_msgs.mean();
    let wf = run_invalidation(SchemeKind::MiMaWf, 8, &SCATTER).metrics().inval_home_msgs.mean();
    assert!(
        ui > mi_ua && mi_ua > mi_ma && mi_ma >= two_ph && two_ph >= wf,
        "{ui} {mi_ua} {mi_ma} {two_ph} {wf}"
    );
}

#[test]
fn every_scheme_handles_every_sharer_count() {
    // Sweep d = 1..=10 on an 8x8 mesh with a deterministic scatter.
    let mesh = Mesh2D::square(8);
    let all: Vec<(usize, usize)> =
        vec![(1, 2), (1, 5), (3, 1), (3, 3), (5, 6), (6, 2), (2, 7), (7, 4), (4, 4), (0, 6)];
    for scheme in SchemeKind::ALL {
        for d in 1..=all.len() {
            let mut sys = system(8, scheme);
            let a = addr_of_block(&sys, 0);
            let b = sys.geometry().block_of(a);
            let sharers: Vec<NodeId> = all[..d].iter().map(|&(x, y)| mesh.node_at(x, y)).collect();
            sys.seed_shared(b, &sharers);
            let writer = mesh.node_at(7, 0);
            sys.issue(writer, MemOp::Write(a));
            sys.run_until_idle(200_000).unwrap_or_else(|e| panic!("{scheme} d={d}: {e}"));
            assert_eq!(sys.metrics().inval_txns, 1, "{scheme} d={d}");
            for &s in &sharers {
                assert_eq!(sys.cache_state(s, b), None, "{scheme} d={d} at {s}");
            }
        }
    }
}

#[test]
fn dirty_read_miss_fetches_from_owner() {
    let mut sys = system(4, SchemeKind::UiUa);
    let a = addr_of_block(&sys, 9);
    let b = sys.geometry().block_of(a);
    let (owner, reader) = (NodeId(2), NodeId(14));
    sys.issue(owner, MemOp::Write(a));
    sys.run_until_idle(50_000).unwrap();
    sys.issue(reader, MemOp::Read(a));
    sys.run_until_idle(50_000).unwrap();
    assert_eq!(sys.cache_state(reader, b), Some(LineState::Shared));
    assert_eq!(sys.cache_state(owner, b), Some(LineState::Shared), "owner downgraded");
    assert_eq!(sys.dir_state(b), DirState::Shared);
}

#[test]
fn dirty_write_miss_transfers_ownership() {
    let mut sys = system(4, SchemeKind::UiUa);
    let a = addr_of_block(&sys, 9);
    let b = sys.geometry().block_of(a);
    let (w1, w2) = (NodeId(2), NodeId(14));
    sys.issue(w1, MemOp::Write(a));
    sys.run_until_idle(50_000).unwrap();
    sys.issue(w2, MemOp::Write(a));
    sys.run_until_idle(50_000).unwrap();
    assert_eq!(sys.cache_state(w1, b), None, "old owner invalidated");
    assert_eq!(sys.cache_state(w2, b), Some(LineState::Modified));
    assert_eq!(sys.dir_state(b), DirState::Exclusive(w2));
}

#[test]
fn upgrade_after_read_uses_invalidation() {
    let mut sys = system(4, SchemeKind::MiMaCol);
    let a = addr_of_block(&sys, 6);
    let b = sys.geometry().block_of(a);
    let (r1, r2) = (NodeId(9), NodeId(10));
    sys.issue(r1, MemOp::Read(a));
    sys.run_until_idle(50_000).unwrap();
    sys.issue(r2, MemOp::Read(a));
    sys.run_until_idle(50_000).unwrap();
    // r1 upgrades; r2 must be invalidated.
    sys.issue(r1, MemOp::Write(a));
    sys.run_until_idle(50_000).unwrap();
    assert_eq!(sys.cache_state(r1, b), Some(LineState::Modified));
    assert_eq!(sys.cache_state(r2, b), None);
    assert_eq!(sys.metrics().inval_txns, 1);
}

#[test]
fn concurrent_writers_serialize_through_waiting_state() {
    let mut sys = system(4, SchemeKind::MiMaCol);
    let a = addr_of_block(&sys, 0);
    let b = sys.geometry().block_of(a);
    let mesh = Mesh2D::square(4);
    let sharers: Vec<NodeId> = vec![mesh.node_at(1, 1), mesh.node_at(2, 2)];
    sys.seed_shared(b, &sharers);
    let (w1, w2) = (mesh.node_at(3, 0), mesh.node_at(0, 3));
    // Both issue in the same cycle: the loser queues at the home.
    sys.issue(w1, MemOp::Write(a));
    sys.issue(w2, MemOp::Write(a));
    sys.run_until_idle(200_000).unwrap();
    // Exactly one of them holds the block; both writes completed.
    let final_owner = match sys.dir_state(b) {
        DirState::Exclusive(n) => n,
        s => panic!("unexpected state {s:?}"),
    };
    assert!(final_owner == w1 || final_owner == w2);
    assert_eq!(sys.cache_state(final_owner, b), Some(LineState::Modified));
    let loser = if final_owner == w1 { w2 } else { w1 };
    assert_eq!(sys.cache_state(loser, b), None, "loser's copy invalidated by the second txn");
    assert_eq!(sys.metrics().write_misses, 2);
}

#[test]
fn barrier_releases_all_participants() {
    let mut sys = system(4, SchemeKind::UiUa);
    let nodes: Vec<NodeId> = (0..16).map(NodeId).collect();
    for &n in &nodes {
        sys.issue(n, MemOp::Barrier { id: 3, participants: 16 });
    }
    sys.run_until_idle(100_000).unwrap();
    assert_eq!(sys.metrics().barriers, 1);
    for &n in &nodes {
        assert!(sys.proc_idle(n));
    }
}

#[test]
fn lock_grants_are_exclusive_and_fair() {
    let mut sys = system(4, SchemeKind::UiUa);
    sys.issue(NodeId(1), MemOp::Lock(5));
    sys.issue(NodeId(2), MemOp::Lock(5));
    sys.run_until_idle(100_000).unwrap_err(); // NodeId(2) still stalled
    assert!(sys.proc_idle(NodeId(1)));
    assert!(!sys.proc_idle(NodeId(2)));
    sys.issue(NodeId(1), MemOp::Unlock(5));
    sys.run_until_idle(100_000).unwrap();
    assert!(sys.proc_idle(NodeId(2)));
}

#[test]
fn dirty_eviction_writes_back() {
    let mut sys = system(4, SchemeKind::UiUa);
    // Two blocks mapping to the same cache set: sets * block_bytes apart.
    let sets = sys.config().cache_sets as u64;
    let a1 = addr_of_block(&sys, 1);
    let a2 = addr_of_block(&sys, 1 + sets);
    let n = NodeId(6);
    sys.issue(n, MemOp::Write(a1));
    sys.run_until_idle(50_000).unwrap();
    sys.issue(n, MemOp::Write(a2));
    sys.run_until_idle(50_000).unwrap();
    let b1 = sys.geometry().block_of(a1);
    assert_eq!(sys.metrics().writebacks, 1);
    assert_eq!(sys.dir_state(b1), DirState::Uncached, "written back to memory");
    assert_eq!(sys.cache_state(n, b1), None);
}

#[test]
fn compute_op_just_burns_cycles() {
    let mut sys = system(4, SchemeKind::UiUa);
    sys.issue(NodeId(0), MemOp::Compute(100));
    assert!(!sys.proc_idle(NodeId(0)));
    sys.run_cycles(99);
    assert!(!sys.proc_idle(NodeId(0)));
    sys.run_cycles(2);
    assert!(sys.proc_idle(NodeId(0)));
}

#[test]
fn write_latency_reflects_invalidation_cost() {
    // The SC write stall must exceed the invalidation latency the home
    // observed (the write also pays request + grant travel).
    let sys = run_invalidation(SchemeKind::UiUa, 8, &SCATTER);
    let wl = sys.metrics().write_latency.mean();
    let il = sys.metrics().inval_latency.mean();
    assert!(wl > il, "write latency {wl} <= inval latency {il}");
}

#[test]
fn deterministic_across_runs() {
    let run = |scheme: SchemeKind| {
        let sys = run_invalidation(scheme, 8, &SCATTER);
        (sys.now(), sys.metrics().inval_latency.mean(), sys.net_stats().flit_hops)
    };
    for scheme in SchemeKind::ALL {
        assert_eq!(run(scheme), run(scheme), "{scheme}");
    }
}

#[test]
fn spurious_invalidation_still_acked() {
    // A sharer silently evicts (clean) before the invalidation arrives;
    // the protocol must still collect d acks.
    let mut sys = system(4, SchemeKind::UiUa);
    let a = addr_of_block(&sys, 2);
    let b = sys.geometry().block_of(a);
    let sets = sys.config().cache_sets as u64;
    let s = NodeId(9);
    sys.issue(s, MemOp::Read(a));
    sys.run_until_idle(50_000).unwrap();
    // Conflict-evict the clean line (same set).
    let a_conflict = addr_of_block(&sys, 2 + sets);
    sys.issue(s, MemOp::Read(a_conflict));
    sys.run_until_idle(50_000).unwrap();
    assert_eq!(sys.cache_state(s, b), None);
    // Directory still thinks s shares the block; write triggers an inval.
    let w = NodeId(4);
    sys.issue(w, MemOp::Write(a));
    sys.run_until_idle(50_000).unwrap();
    assert_eq!(sys.metrics().inval_txns, 1);
    assert_eq!(sys.metrics().spurious_invals, 1);
    assert_eq!(sys.dir_state(b), DirState::Exclusive(w));
}

// ---------------------------------------------------------------------
// Release consistency and multicast barriers.
// ---------------------------------------------------------------------

fn rc_system(k: usize, scheme: SchemeKind, write_buffer: usize) -> DsmSystem {
    let mut cfg = SystemConfig::for_scheme(k, scheme);
    cfg.consistency = ConsistencyModel::Release { write_buffer };
    DsmSystem::new(cfg, scheme.build())
}

#[test]
fn rc_writes_do_not_stall_the_processor() {
    let mut sys = rc_system(4, SchemeKind::UiUa, 8);
    let n = NodeId(0);
    // Two write misses to different blocks issue back to back: under RC
    // the processor is busy only for the cache access, not the miss.
    sys.issue(n, MemOp::Write(addr_of_block(&sys, 5)));
    sys.run_cycles(4);
    assert!(sys.proc_idle(n), "RC write must not block");
    sys.issue(n, MemOp::Write(addr_of_block(&sys, 9)));
    sys.run_until_idle(100_000).unwrap();
    assert_eq!(sys.metrics().write_misses, 2);
    // Both lines arrived Modified.
    assert_eq!(
        sys.cache_state(n, sys.geometry().block_of(addr_of_block(&sys, 5))),
        Some(LineState::Modified)
    );
    assert_eq!(
        sys.cache_state(n, sys.geometry().block_of(addr_of_block(&sys, 9))),
        Some(LineState::Modified)
    );
}

#[test]
fn rc_same_block_write_defers() {
    let mut sys = rc_system(4, SchemeKind::UiUa, 8);
    let n = NodeId(0);
    let a = addr_of_block(&sys, 5);
    sys.issue(n, MemOp::Write(a));
    sys.run_cycles(4);
    assert!(sys.proc_idle(n));
    // Second access to the same in-flight block defers.
    sys.issue(n, MemOp::Read(a));
    sys.run_cycles(4);
    assert!(!sys.proc_idle(n), "same-block access must wait for the pending write");
    sys.run_until_idle(100_000).unwrap();
    assert_eq!(sys.metrics().read_hits, 1, "deferred read hits after the write retires");
}

#[test]
fn rc_write_buffer_fills_and_drains() {
    let mut sys = rc_system(4, SchemeKind::UiUa, 2);
    let n = NodeId(0);
    sys.issue(n, MemOp::Write(addr_of_block(&sys, 1)));
    sys.run_cycles(4);
    sys.issue(n, MemOp::Write(addr_of_block(&sys, 2)));
    sys.run_cycles(4);
    // Third write: buffer (depth 2) is full.
    sys.issue(n, MemOp::Write(addr_of_block(&sys, 6)));
    sys.run_cycles(4);
    assert!(!sys.proc_idle(n), "write buffer full must stall");
    sys.run_until_idle(100_000).unwrap();
    assert_eq!(sys.metrics().write_misses, 3);
}

#[test]
fn rc_release_drains_write_buffer() {
    let mut sys = rc_system(4, SchemeKind::UiUa, 8);
    let n = NodeId(2);
    sys.issue(n, MemOp::Lock(3));
    sys.run_until_idle(100_000).unwrap();
    assert!(sys.proc_idle(n));
    // Write in flight, then a release: the unlock must defer until the
    // write retires.
    sys.issue(n, MemOp::Write(addr_of_block(&sys, 9)));
    sys.run_cycles(4);
    assert!(sys.proc_idle(n), "RC write retired into the buffer");
    sys.issue(n, MemOp::Unlock(3));
    sys.run_cycles(4);
    assert!(!sys.proc_idle(n), "release fence defers behind the pending write");
    sys.run_until_idle(100_000).unwrap();
    // Lock is free again afterwards.
    sys.issue(NodeId(5), MemOp::Lock(3));
    sys.run_until_idle(100_000).unwrap();
    assert!(sys.proc_idle(NodeId(5)));
}

#[test]
fn rc_overlapped_writes_reduce_stall_cycles() {
    // Same invalidation-heavy pattern under SC vs RC: RC must show less
    // processor stall time.
    let run = |rc: bool| {
        let scheme = SchemeKind::UiUa;
        let mut cfg = SystemConfig::for_scheme(8, scheme);
        if rc {
            cfg.consistency = ConsistencyModel::Release { write_buffer: 8 };
        }
        let mut sys = DsmSystem::new(cfg, scheme.build());
        let n = NodeId(0);
        for b in [70u64, 75, 81, 86] {
            sys.issue(n, MemOp::Write(Addr(b * 32)));
            while !sys.proc_idle(n) {
                sys.step();
            }
        }
        sys.run_until_idle(200_000).unwrap();
        sys.metrics().stall_cycles
    };
    let sc = run(false);
    let rc = run(true);
    assert!(rc < sc, "RC stall {rc} should be far below SC stall {sc}");
}

#[test]
fn multicast_barrier_releases_everyone_with_fewer_home_sends() {
    for scheme in [SchemeKind::UiUa, SchemeKind::MiMaCol] {
        let mut cfg = SystemConfig::for_scheme(4, scheme);
        cfg.multicast_barriers = true;
        let mut sys = DsmSystem::new(cfg, scheme.build());
        for p in 0..16u16 {
            sys.issue(NodeId(p), MemOp::Barrier { id: 3, participants: 16 });
        }
        sys.run_until_idle(100_000).unwrap();
        assert_eq!(sys.metrics().barriers, 1, "{scheme}");
        for p in 0..16u16 {
            assert!(sys.proc_idle(NodeId(p)), "{scheme}: node {p} released");
        }
        // Release worms: at most 2 per row (4 rows on a 4x4) + local,
        // versus 16 unicasts.
        let reply_worms = sys.net_stats().worms_injected[1];
        assert!(reply_worms <= 8, "{scheme}: {reply_worms} release worms");
    }
}

#[test]
fn writeback_fetch_race_scan() {
    // Sweep the interleaving between a dirty eviction's writeback and a
    // competing write request over a range of issue offsets. Some offsets
    // make the fetch race the writeback (home in Waiting when the
    // writeback lands); the home must defer the writeback rather than
    // ack-and-drop it, or the fetch spins forever at a node with no data.
    for offset in (0..200).step_by(7) {
        let scheme = SchemeKind::UiUa;
        let mut cfg = SystemConfig::for_scheme(4, scheme);
        cfg.cache_sets = 1; // every block conflicts: writes force evictions
        let mut sys = DsmSystem::new(cfg, scheme.build());
        let (o, w2) = (NodeId(5), NodeId(10));
        let a = addr_of_block(&sys, 3);
        let b = addr_of_block(&sys, 7);
        sys.issue(o, MemOp::Write(a));
        sys.run_until_idle(100_000).unwrap();
        // Evicting write and competing write, offset cycles apart.
        sys.issue(o, MemOp::Write(b));
        sys.run_cycles(offset);
        sys.issue(w2, MemOp::Write(a));
        sys.run_until_idle(500_000).unwrap_or_else(|e| panic!("offset {offset}: {e}"));
        let blk = sys.geometry().block_of(a);
        assert_eq!(sys.cache_state(w2, blk), Some(LineState::Modified), "offset {offset}");
    }
}

#[test]
fn rectangular_mesh_works_end_to_end() {
    // The paper uses square k x k meshes; the model supports rectangles.
    use wormdsm_mesh::network::MeshConfig;
    for scheme in [SchemeKind::UiUa, SchemeKind::MiMaCol, SchemeKind::MiMaWf] {
        let mut cfg = SystemConfig::for_scheme(4, scheme);
        cfg.mesh = MeshConfig { mesh: Mesh2D::new(8, 4), ..cfg.mesh };
        cfg.mesh.routing = scheme.natural_routing();
        let mut sys = DsmSystem::new(cfg, scheme.build());
        let mesh = Mesh2D::new(8, 4);
        let a = addr_of_block(&sys, 0);
        let b = sys.geometry().block_of(a);
        let sharers: Vec<NodeId> =
            [(1, 1), (3, 2), (6, 1), (6, 3)].iter().map(|&(x, y)| mesh.node_at(x, y)).collect();
        sys.seed_shared(b, &sharers);
        sys.issue(mesh.node_at(7, 0), MemOp::Write(a));
        sys.run_until_idle(200_000).unwrap_or_else(|e| panic!("{scheme}: {e}"));
        assert_eq!(sys.metrics().inval_txns, 1, "{scheme}");
        sys.verify_coherence().unwrap_or_else(|e| panic!("{scheme}: {e}"));
    }
}

/// Regression: seeding a shared line over a Modified line in the same
/// cache set used to drop the dirty line without a writeback, and
/// `verify_coherence` failed much later. The seam must refuse, naming the
/// blocks and the node.
#[test]
#[should_panic(
    expected = "seed_shared: installing block b0x807 at node n2 would drop Modified block b0x7"
)]
fn seed_shared_refuses_to_drop_a_modified_line() {
    let mut sys = system(4, SchemeKind::UiUa);
    let sets = sys.config().cache_sets as u64;
    let a = addr_of_block(&sys, 7);
    let writer = NodeId(2);
    sys.issue(writer, MemOp::Write(a));
    sys.run_until_idle(50_000).unwrap();
    let b = sys.geometry().block_of(a);
    assert_eq!(sys.cache_state(writer, b), Some(LineState::Modified));
    // Same cache set, and homed at the same node as block 7.
    let conflict = sys.geometry().block_of(addr_of_block(&sys, 7 + sets));
    sys.seed_shared(conflict, &[writer]);
}
