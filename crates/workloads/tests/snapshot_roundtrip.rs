//! End-to-end snapshot/resume round trips at the DSM level: a scenario
//! checkpointed mid-flight, resumed into a *fresh* [`DsmSystem`], and
//! driven to completion must land on the uninterrupted run bit for bit —
//! same final cycle, same issued count, same exported metrics JSON —
//! across schemes with very different in-flight machinery (unicast UI-UA
//! vs. multidestination MI-MA(col) with i-reserve/i-gather worms) and
//! across applications with different sharing structure.
//!
//! [`DsmSystem`]: wormdsm_core::DsmSystem

use wormdsm_core::{DsmSystem, SchemeKind, SystemConfig};
use wormdsm_workloads::{Observe, RunReport, Scenario};

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
