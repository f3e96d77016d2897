//! The simulated results of two benchmark workloads, pinned.
//!
//! `exp_perf --rep apsp-busy-k8 --seed 0` and `--rep bh-idle-k8 --seed 0`
//! print a fingerprint of every metric their one run exports. Seed 0
//! places each application on the mesh unpermuted, so the same runs
//! through `Workload::run` must give the same fingerprints. A change that
//! moves one simulated number of either run fails here. The two k=64
//! workloads take minutes in a debug build and are pinned only where
//! `exp_perf` runs in release.

use wormdsm_core::{DsmSystem, SchemeKind, SystemConfig};
use wormdsm_farm::metrics_fingerprint;
use wormdsm_sim::Fnv64;
use wormdsm_workloads::apps;

/// The fingerprint `exp_perf` reports for `app` at `compute_scale` on an
/// 8x8 mesh under MI-MA(col).
fn fingerprint(app: &str, compute_scale: u64) -> u64 {
    let w = apps::seeded(app, 64, compute_scale).unwrap();
    let scheme = SchemeKind::MiMaCol;
    let mut sys = DsmSystem::new(SystemConfig::for_scheme(8, scheme), scheme.build());
    w.run(&mut sys, 20_000_000).unwrap_or_else(|e| panic!("{app}: {e}"));
    let mut fp = Fnv64::new();
    fp.write_u64(metrics_fingerprint(&sys.export_metrics()));
    fp.finish()
}

#[test]
fn apsp_busy_k8_fingerprint_is_pinned() {
    assert_eq!(format!("{:016x}", fingerprint("apsp", 1)), "1aa49fb2d4da530f");
}

#[test]
fn bh_idle_k8_fingerprint_is_pinned() {
    assert_eq!(format!("{:016x}", fingerprint("bh", 256)), "e5581ece4ea29a92");
}
