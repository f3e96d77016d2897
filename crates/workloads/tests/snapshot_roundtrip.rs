//! End-to-end snapshot/resume round trips at the DSM level: a scenario
//! checkpointed mid-flight, resumed into a *fresh* [`DsmSystem`], and
//! driven to completion must land on the uninterrupted run bit for bit —
//! same final cycle, same issued count, same exported metrics JSON —
//! across schemes with very different in-flight machinery (unicast UI-UA
//! vs. multidestination MI-MA(col) with i-reserve/i-gather worms) and
//! across applications with different sharing structure.
//!
//! [`DsmSystem`]: wormdsm_core::DsmSystem

use wormdsm_core::{DsmSystem, SchemeKind, SimError, SystemConfig};
use wormdsm_mesh::topology::NodeId;
use wormdsm_sim::snap::{fnv64, Fnv64, SnapWriter};
use wormdsm_sim::{Rng, ToJson};
use wormdsm_workloads::synthetic::migratory_workload;
use wormdsm_workloads::{Observe, RunEnd, RunReport, Scenario};

/// The busy-cycle (compute scale 1) application scenario on a 4x4 mesh,
/// so the matrix stays debug-test fast.
fn scenario(app: &str, scheme: SchemeKind) -> Scenario {
    Scenario { scheme, app: app.into(), k: 4, max_cycles: 50_000_000, ..Scenario::default() }
}

fn metrics(r: &RunReport) -> String {
    r.sys.export_metrics().to_json()
}

/// Checkpoints of `s` taken every `every` cycles by an observer that
/// never pauses, with the finished run.
fn checkpointed(s: &Scenario, every: u64) -> (RunReport, Vec<(u64, Vec<u8>)>) {
    let mut taken = Vec::new();
    let r = s
        .finish(Observe {
            observer: Some((
                every,
                Box::new(|sys, st| {
                    taken.push((sys.now(), s.checkpoint(sys, st)));
                    true
                }),
            )),
            ..Observe::default()
        })
        .unwrap();
    (r, taken)
}

/// Checkpoint mid-run, resume into a fresh system, finish, compare bit
/// for bit.
fn roundtrip(s: Scenario) {
    let (app, scheme) = (&s.app, s.scheme);
    let whole = s.finish(Observe::default()).unwrap();

    // Checkpoint roughly every seventh of the run; the checkpointing run
    // itself must not perturb anything.
    let (first, taken) = checkpointed(&s, (whole.result.cycles / 7).max(1));
    assert_eq!(first.result, whole.result, "{app}/{scheme:?}: checkpointing perturbed the run");
    assert_eq!(
        metrics(&first),
        metrics(&whole),
        "{app}/{scheme:?}: checkpointing perturbed metrics"
    );
    assert!(taken.len() >= 3, "{app}/{scheme:?}: run long enough to checkpoint mid-flight");

    // Resume from a mid-run checkpoint into a brand-new system.
    let (at, bytes) = &taken[taken.len() / 2];
    let resumed = s.finish(Observe { resume: Some(bytes), ..Observe::default() }).unwrap();
    assert_eq!(
        resumed.result.cycles,
        whole.result.cycles - at,
        "{app}/{scheme:?}: restore lands on the checkpoint cycle"
    );
    assert_eq!(resumed.result.issued, whole.result.issued, "{app}/{scheme:?}: issued count");
    assert_eq!(resumed.sys.now(), whole.sys.now(), "{app}/{scheme:?}: resumed run final cycle");
    assert_eq!(metrics(&resumed), metrics(&whole), "{app}/{scheme:?}: resumed metrics diverged");
}

#[test]
fn bh_uiua_snapshot_roundtrip() {
    roundtrip(scenario("bh", SchemeKind::UiUa));
}

#[test]
fn bh_mimacol_snapshot_roundtrip() {
    roundtrip(scenario("bh", SchemeKind::MiMaCol));
}

#[test]
fn lu_uiua_snapshot_roundtrip() {
    roundtrip(scenario("lu", SchemeKind::UiUa));
}

#[test]
fn lu_mimacol_snapshot_roundtrip() {
    roundtrip(scenario("lu", SchemeKind::MiMaCol));
}

/// A checkpoint is rejected, not misapplied, when resumed under any other
/// scenario — another mesh, another application, another compute scale.
/// The error names both scenarios.
#[test]
fn mismatched_config_is_rejected() {
    let s = scenario("bh", SchemeKind::UiUa);
    let (_, taken) = checkpointed(&s, 10_000);
    let (_, bytes) = &taken[1];
    let others = [
        Scenario { k: 8, ..s.clone() },
        Scenario { app: "lu".into(), ..s.clone() },
        Scenario { app: "apsp".into(), ..s.clone() },
        Scenario { compute_scale: 2, ..s.clone() },
    ];
    for other in others {
        match other.run(Observe { resume: Some(bytes), ..Observe::default() }) {
            Err(e) => {
                assert!(e.contains("checkpoint belongs to scenario"), "{e}");
                assert!(e.contains(&s.canonical()) && e.contains(&other.canonical()), "{e}");
            }
            Ok(_) => panic!("{} resumed a checkpoint of {}", other.canonical(), s.canonical()),
        }
    }
}

/// Below the scenario's canonical-string check, `DsmSystem` refuses a
/// snapshot taken under another scheme or another system configuration.
/// The configuration gate is what refuses a checkpoint whose scenario
/// string matches but which was written by a build with other
/// `SystemConfig` defaults (here: another cache size on the same mesh).
#[test]
fn system_restore_checks_scheme_and_config() {
    let s = scenario("bh", SchemeKind::UiUa);
    let snap = s.finish(Observe::default()).unwrap().sys.save_snapshot();
    let restore = |cfg: SystemConfig, scheme: SchemeKind| {
        DsmSystem::restore_snapshot(cfg, scheme.build(), &snap).map(|_| ())
    };
    restore(SystemConfig::for_scheme(4, SchemeKind::UiUa), SchemeKind::UiUa).unwrap();

    let mut other_defaults = SystemConfig::for_scheme(4, SchemeKind::UiUa);
    other_defaults.cache_sets /= 2;
    for cfg in [SystemConfig::for_scheme(8, SchemeKind::UiUa), other_defaults] {
        let e = restore(cfg, SchemeKind::UiUa).unwrap_err().to_string();
        assert!(e.contains("configuration fingerprint does not match"), "{e}");
    }
    let e = restore(SystemConfig::for_scheme(4, SchemeKind::MiMaCol), SchemeKind::MiMaCol)
        .unwrap_err()
        .to_string();
    assert!(e.contains("taken under scheme UI-UA"), "{e}");
}

/// A run resumed with no deadline at all (`max_cycles = u64::MAX`, which
/// the farm's query parser accepts) finishes bit-identically: the
/// resumed part's deadline saturates instead of overflowing past the end
/// of time.
#[test]
fn bh_mimacol_unbounded_deadline_roundtrip() {
    roundtrip(Scenario { max_cycles: u64::MAX, ..scenario("bh", SchemeKind::MiMaCol) });
}

/// Folds `fnv64` of `sys.save_snapshot()` into one running hash.
fn fold(h: &mut Fnv64, sys: &DsmSystem) {
    h.write_u64(fnv64(&sys.save_snapshot()));
}

/// One value per run: the hash of a snapshot taken every 1,000 cycles
/// over the whole scenario, plus its final state.
fn scenario_format_hash(s: &Scenario) -> (u64, DsmSystem) {
    let mut h = Fnv64::new();
    let r = s
        .finish(Observe {
            observer: Some((
                1_000,
                Box::new(|sys, _| {
                    fold(&mut h, sys);
                    true
                }),
            )),
            ..Observe::default()
        })
        .unwrap();
    fold(&mut h, &r.sys);
    (h.finish(), r.sys)
}

/// The lock workload: per-block lock-protected read-modify-writes,
/// driven by a plain loop that hands out ops and steps the system,
/// snapshotted every 1,000 cycles.
fn lock_format_hash() -> (u64, DsmSystem) {
    let scheme = SchemeKind::MiMaCol;
    let mut sys = DsmSystem::new(SystemConfig::for_scheme(4, scheme), scheme.build());
    let mut w = migratory_workload(16, 4, 3, 40);
    let mut h = Fnv64::new();
    let mut boundary = 0;
    loop {
        if sys.now() >= boundary {
            fold(&mut h, &sys);
            boundary = sys.now() + 1_000;
        }
        for (p, ops) in w.ops.iter_mut().enumerate() {
            let node = NodeId(p as u16);
            if !ops.is_empty() && sys.proc_idle(node) {
                sys.issue(node, ops.pop_front().expect("non-empty"));
            }
        }
        if w.ops.iter().all(|q| q.is_empty()) && sys.idle() {
            break;
        }
        assert!(sys.now() < 10_000_000, "lock workload wedged");
        sys.step();
    }
    fold(&mut h, &sys);
    (h.finish(), sys)
}

/// A synthetic scenario under `scheme` on a 6x6 mesh, wide enough that
/// two-phase gathers deposit and park.
fn synth(scheme: SchemeKind) -> Scenario {
    Scenario {
        scheme,
        app: "synth".into(),
        k: 6,
        pattern: "uniform".into(),
        d: 6,
        episodes: 24,
        seed: 7,
        ..Scenario::default()
    }
}

/// Pins the snapshot byte format: every per-run hash below was recorded
/// before the `Snap` impls moved onto `snap_struct!`/`snap_enum!`, so a
/// codec change that moves one byte of any snapshot fails here. The runs
/// cover the busy applications under MI-MA(col), gather deposits and
/// parks under MI-MA(2ph), the link-load meter under MI-MA(ada), and
/// lock state. The hashes were re-recorded seven times since: once when
/// `MeshConfig` lost its `hierarchy` field (a snapshot opens with a
/// fingerprint of the config's `Debug` text, and that fingerprint was the
/// only byte range that moved), once for format version 6, which
/// stores only each cache's occupied lines and drops four fields no run
/// read (a worm's id and injection cycle, the `kind` of `Ev::Recv` and
/// `Ev::Handle`, and the NICs' injection-backlog high-water marks),
/// once for format version 7, which stores only the message-table slots
/// still held (generation-stamped keys, collected at the tick boundary),
/// fingerprints the configuration field by field instead of by its
/// `Debug` text, and drops a worm's delivery cycle and a delivery's
/// final/absorb kind, once for format version 8, which drops the
/// worm table's slot-recycling flag (every network now recycles), once
/// for format version 9, which stores each consumption channel as a
/// counter record, the deliveries as one queue without their node
/// bitset, one directory map for every home, and flits without their
/// sequence number, and once for format version 10, which stores each
/// router FIFO's front ready time and each buffered flit's deposit cycle
/// instead of each flit's ready time, and each live transaction's sharer
/// actions as a (node, action) table with its gather worms held once and
/// no request worms (a scratch build writing the version 9 encodings back
/// reproduced the version 9 hashes), and once for format version 11,
/// which drops the NICs' consumption-channel depth along with the config
/// field and its fingerprint entry, when the message table also began to
/// store a message pushed again as the newest once, under one key (a
/// scratch build writing the depth, the old fingerprint field list and
/// one key per push back under version 10 reproduced the version 10
/// hashes).
#[test]
fn snapshot_bytes_are_pinned() {
    let mut got = Vec::new();
    for app in ["bh", "lu", "apsp"] {
        got.push((app, scenario_format_hash(&scenario(app, SchemeKind::MiMaCol)).0));
    }
    let (h, sys) = scenario_format_hash(&synth(SchemeKind::MiMaTwoPhase));
    assert!(sys.net_stats().deposits > 0 && sys.net_stats().parks > 0, "{:?}", sys.net_stats());
    got.push(("synth 2ph", h));
    got.push(("synth ada", scenario_format_hash(&synth(SchemeKind::MiMaAdaptive)).0));
    let (h, sys) = lock_format_hash();
    assert!(sys.metrics().sync_stall_cycles > 0, "the lock run contends for locks");
    got.push(("locks", h));
    let want = [
        ("bh", 0x5221_05a0_e603_dfba),
        ("lu", 0x43c6_23c6_5d42_84f7),
        ("apsp", 0x4ad3_ddd8_0d4c_15bb),
        ("synth 2ph", 0x7cde_4d83_2836_d9e1),
        ("synth ada", 0xdd30_a709_deb3_caaf),
        ("locks", 0xe6c9_937e_7ea1_d235),
    ];
    let got_hex: Vec<String> = got.iter().map(|(n, h)| format!("{n}: {h:#018x}")).collect();
    assert_eq!(got, want, "snapshot format moved: {got_hex:?}");
}

/// A checkpoint pays for the cache lines a run holds, not for the sets it
/// could hold: a fresh system's snapshot is as long at 64 sets a cache as
/// at 2048, and a fresh k=64 system (4096 caches of 2048 sets) stays small.
/// Each fresh snapshot restores and saves the same bytes again, also at
/// 1 << 16 sets, where a cache's set count exceeds the bytes after it.
#[test]
fn fresh_snapshots_do_not_grow_with_cache_sets() {
    let fresh = |k: usize, sets: usize| {
        let mut cfg = SystemConfig::for_scheme(k, SchemeKind::UiUa);
        cfg.cache_sets = sets;
        let bytes = DsmSystem::new(cfg.clone(), SchemeKind::UiUa.build()).save_snapshot();
        let back = DsmSystem::restore_snapshot(cfg, SchemeKind::UiUa.build(), &bytes)
            .unwrap_or_else(|e| panic!("k={k}, {sets} sets: {e}"));
        assert_eq!(back.save_snapshot(), bytes, "k={k}, {sets} sets");
        bytes.len()
    };
    assert_eq!(fresh(4, 1 << 16), fresh(4, 64));
    assert_eq!(fresh(8, 64), fresh(8, 2048));
    let k64 = fresh(64, 2048);
    assert!(k64 < 1_500_000, "fresh k=64 snapshot is {k64} B");
}

/// `save_snapshot()` bytes of `s` at its first observation at or past
/// cycle `at`; the run stops there.
fn snapshot_at(s: &Scenario, at: u64) -> Vec<u8> {
    let mut bytes = None;
    let end = s
        .run(Observe {
            observer: Some((
                at,
                Box::new(|sys, _| {
                    if sys.now() < at {
                        return true;
                    }
                    bytes = Some(sys.save_snapshot());
                    false
                }),
            )),
            ..Observe::default()
        })
        .unwrap();
    assert!(matches!(end, RunEnd::Paused(_)), "{} ended before cycle {at}", s.canonical());
    bytes.expect("observer fired")
}

/// One seeded mutation of a snapshot payload (the bytes between the
/// 8-byte header and the 8-byte hash trailer).
fn mutate(payload: &[u8], case: usize, rng: &mut Rng) -> Vec<u8> {
    let mut p = payload.to_vec();
    let at = rng.index(p.len());
    match case % 5 {
        0 => p[at] ^= 1 << rng.index(8),
        1 => p[at] = 0x00,
        2 => p[at] = 0xFF,
        3 => p.truncate(at),
        _ => {
            // A plausible length prefix (a small little-endian u64) is
            // set to u64::MAX; the scan starts at a random offset so the
            // cases spread over the whole payload.
            let word = |i: usize| u64::from_le_bytes(p[i..i + 8].try_into().expect("8 bytes"));
            let last = p.len() - 8;
            let i = (at..=last)
                .chain(0..at.min(last))
                .find(|&i| (1..=4096).contains(&word(i)))
                .unwrap_or(at.min(last));
            p[i..i + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        }
    }
    p
}

/// Cycles each accepted restore is stepped, in debug and release builds
/// alike: the loaders refuse clocks past `now` and counters `now` cannot
/// have reached, so no accepted state trips an overflow check.
const STEP_AFTER_RESTORE: u64 = 3_000;

/// Restores 1,000 seeded mutations of the payload of `s` snapshotted at
/// cycle `at`, each re-sealed so the integrity hash passes. Every one
/// must come back `Ok` or `Err`, and every restored system must then step
/// [`STEP_AFTER_RESTORE`] cycles; a panic in either fails the test naming
/// its case.
fn restore_mutations(s: &Scenario, at: u64, seed: u64) {
    let bytes = snapshot_at(s, at);
    let payload = &bytes[8..bytes.len() - 8];
    let cfg = SystemConfig::for_scheme(s.k, s.scheme);
    let mut rng = Rng::new(seed);
    let mut panics = Vec::new();
    let mut refused = 0;
    for case in 0..1_000 {
        let mut w = SnapWriter::new();
        w.put_bytes(&mutate(payload, case, &mut rng));
        let sealed = w.finish();
        let restore = || {
            let mut sys = DsmSystem::restore_snapshot(cfg.clone(), s.scheme.build(), &sealed)?;
            sys.run_cycles(STEP_AFTER_RESTORE);
            Ok::<_, SimError>(sys)
        };
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(restore)) {
            Ok(Ok(_)) => {}
            Ok(Err(_)) => refused += 1,
            Err(_) => panics.push(case),
        }
    }
    assert!(panics.is_empty(), "{}: mutation cases {panics:?} panicked", s.app);
    assert!(refused > 300, "{}: only {refused} of 1000 mutations refused", s.app);
}

/// Garbage below the seal (ROADMAP 3b) from a busy application under
/// MI-MA(col): bit flips, zeroed and saturated bytes, truncations and
/// oversized length prefixes spread over the whole payload.
#[test]
fn mutated_app_snapshot_payloads_are_refused_not_panicked() {
    restore_mutations(&scenario("apsp", SchemeKind::MiMaCol), 40_000, 0x5EED_F022);
}

/// The same over a synthetic MI-MA(2ph) run, whose state holds i-ack
/// deposits and parked gathers.
#[test]
fn mutated_2ph_snapshot_payloads_are_refused_not_panicked() {
    restore_mutations(&synth(SchemeKind::MiMaTwoPhase), 6_000, 0x5EED_F023);
}
