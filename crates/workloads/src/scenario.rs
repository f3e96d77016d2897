//! Scenarios: the one description of a seeded run, and the one place a
//! run is built, observed, checkpointed and audited.
//!
//! A [`Scenario`] names everything a result depends on, and its
//! canonical string ([`Scenario::canonical`]) is its identity: the farm
//! deduplicates submissions by its hash, and every checkpoint carries
//! it, so a checkpoint resumes only the scenario that wrote it. The
//! bench binaries, the farm and the tests all run through
//! [`Scenario::run`].

use crate::driver::{IssueState, RunResult, Workload};
use crate::{apps, gen_pattern, PatternKind};
use std::time::Instant;
use wormdsm_coherence::Addr;
use wormdsm_core::{DsmSystem, MemOp, SchemeKind, SystemConfig, TraceLevel};
use wormdsm_mesh::topology::Mesh2D;
use wormdsm_sim::json::{self, ToJson};
use wormdsm_sim::snap::{fnv64, SnapReader, SnapWriter};
use wormdsm_sim::{Cycle, Rng};

/// Shared-memory region base for synthetic-pattern scenarios, beyond
/// every application region (see [`apps::layout`]).
const SYNTH_BASE_BLOCK: u64 = 0x10_0000;

/// Default episode count for synthetic scenarios.
const SYNTH_EPISODES: usize = 4;

/// Most ops a synthetic scenario may generate (2^24, about 256 MiB of
/// `MemOp`s): [`Scenario::validate`] refuses a larger run before
/// [`Scenario::workload`] allocates it.
const SYNTH_OP_BUDGET: usize = 1 << 24;

/// Complete configuration of one seeded run.
///
/// The canonical string form ([`Scenario::canonical`]) defines identity:
/// two scenarios with equal canonical strings are the *same experiment*
/// ([`Scenario::config_hash`] is the farm's dedup key). Every field below
/// participates in the string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scenario {
    /// Invalidation scheme under test.
    pub scheme: SchemeKind,
    /// Workload: `"bh"`, `"lu"`, `"apsp"` (seeded applications) or
    /// `"synth"` (seeded invalidation-pattern episodes).
    pub app: String,
    /// Mesh side (k x k processors).
    pub k: usize,
    /// Synthetic pattern kind: `"uniform"`, `"col"`, `"row"`,
    /// `"cluster"`. Validated and hashed for every app; applications
    /// ignore it.
    pub pattern: String,
    /// Sharers per synthetic episode. Ignored for applications.
    pub d: usize,
    /// Invalidation episodes for synthetic scenarios — the run-length
    /// knob (each episode is one `d`-sharer invalidation round).
    pub episodes: usize,
    /// Pattern-stream seed for synthetic scenarios.
    pub seed: u64,
    /// Compute-phase scale factor for applications.
    pub compute_scale: u64,
    /// Completion deadline in cycles, counted from where the run (or
    /// the resumed part of it) starts.
    pub max_cycles: Cycle,
    /// Attach the latency-attribution profiler (forces flit tracing;
    /// results stay bit-identical).
    pub profile: bool,
}

/// A JSON object (embedded in the farm's `/jobs` rows).
impl ToJson for Scenario {
    fn write_json(&self, out: &mut String) {
        json::object(out, |o| {
            o.field("scheme", self.scheme.name()).field("app", &self.app).field("k", self.k);
            o.field("pattern", &self.pattern).field("d", self.d).field("episodes", self.episodes);
            o.field("seed", self.seed).field("compute_scale", self.compute_scale);
            o.field("max_cycles", self.max_cycles).field("profile", self.profile);
        });
    }
}

impl Default for Scenario {
    fn default() -> Self {
        Self {
            scheme: SchemeKind::UiUa,
            app: "bh".to_string(),
            k: 4,
            pattern: "uniform".to_string(),
            d: 4,
            episodes: SYNTH_EPISODES,
            seed: 1,
            compute_scale: 1,
            max_cycles: 500_000_000,
            profile: false,
        }
    }
}

/// How a [`Scenario::run`] is watched. No setting changes a simulated
/// result: each is a pure observer. Every field stands for one
/// `DsmSystem` call, which `run` makes after the system is built or
/// restored (a restore drops observers, so they must come after it).
pub struct Observe<'a> {
    /// Flight-recorder level (`DsmSystem::set_trace_level`). A profiled
    /// scenario raises it to `Flit`.
    pub trace_level: TraceLevel,
    /// Contention-probe window in cycles
    /// (`DsmSystem::enable_contention_probe`); 0 leaves the probe off.
    pub probe_window: Cycle,
    /// Observation windows: `(every, observer)`. The observer sees the
    /// system once before the first issue pass and then before the issue
    /// pass of every `every`-th cycle — the point [`Scenario::checkpoint`]
    /// captures. It returns `false` to pause the run. It may read
    /// anything and may change pure observation layers (attach taps,
    /// drain probe windows), but must leave simulated state alone.
    pub observer: Option<(Cycle, Box<Observer<'a>>)>,
    /// Checkpoint to resume from, as written by [`Scenario::checkpoint`]
    /// or returned by a paused run.
    pub resume: Option<&'a [u8]>,
}

/// The callback type of [`Observe::observer`].
pub type Observer<'a> = dyn FnMut(&mut DsmSystem, &IssueState) -> bool + 'a;

impl Default for Observe<'_> {
    fn default() -> Self {
        Self { trace_level: TraceLevel::Off, probe_window: 0, observer: None, resume: None }
    }
}

/// A finished, audited run. The registry, profiler, contention probe and
/// flight recorder are all read off `sys`.
pub struct RunReport {
    /// The system at completion.
    pub sys: DsmSystem,
    /// Cycles this call simulated and the run's lifetime issued count.
    pub result: RunResult,
    /// Host seconds spent driving the run (setup excluded).
    pub wall_s: f64,
}

/// How a [`Scenario::run`] ended without error.
pub enum RunEnd {
    /// The workload completed and passed its audit.
    Done(Box<RunReport>),
    /// The observer paused the run; the bytes are a checkpoint that
    /// resumes it bit-identically.
    Paused(Vec<u8>),
}

impl Scenario {
    /// Canonical identity string. Versioned so a future field change
    /// re-keys the dedup space instead of silently colliding with
    /// pre-existing hashes (v2 dropped the tile count).
    pub fn canonical(&self) -> String {
        format!(
            "v2;scheme={};app={};k={};pattern={};d={};eps={};seed={};scale={};max={};profile={}",
            self.scheme.name(),
            self.app,
            self.k,
            self.pattern,
            self.d,
            self.episodes,
            self.seed,
            self.compute_scale,
            self.max_cycles,
            self.profile
        )
    }

    /// FNV-1a 64 hash of the canonical string — the dedup key.
    pub fn config_hash(&self) -> u64 {
        fnv64(self.canonical().as_bytes())
    }

    /// Validate ranges that would otherwise panic deep inside the
    /// simulator, so bad submissions come back as errors.
    pub fn validate(&self) -> Result<(), String> {
        if self.k < 2 {
            return Err(format!("k={} too small (need a 2x2 mesh or larger)", self.k));
        }
        // Checked before any `k * k` below, which overflows for huge `k`.
        if self.k > Mesh2D::MAX_DIM {
            let max = Mesh2D::MAX_DIM;
            return Err(format!("k={} too large (the mesh side is at most {max})", self.k));
        }
        if self.max_cycles < 1 {
            return Err("max_cycles must be >= 1".to_string());
        }
        // Checked for every app: the pattern is part of the scenario's
        // identity even where the workload ignores it.
        let kind = self.pattern_kind()?;
        match self.app.as_str() {
            "synth" => {
                if self.episodes < 1 {
                    return Err("episodes must be >= 1".to_string());
                }
                // Worst-case candidate pool of `gen_pattern` for this
                // kind (home may consume one slot): enough room for `d`
                // sharers + writer on every episode, no seed-dependent
                // panics deep in the generator.
                let pool = match kind {
                    PatternKind::UniformRandom => self.k * self.k,
                    PatternKind::SameColumn | PatternKind::SameRow => self.k,
                    PatternKind::Cluster { radius } => {
                        (self.k * self.k).min((radius + 1) * (radius + 1))
                    }
                };
                if self.d.saturating_add(2) > pool {
                    return Err(format!(
                        "d={} does not fit pattern {:?} on a {k}x{k} mesh (need d+2 <= {pool})",
                        self.d,
                        self.pattern,
                        k = self.k
                    ));
                }
                // Each episode is d reads, a barrier op per processor and
                // one write.
                let ops = (self.d + self.k * self.k + 1).checked_mul(self.episodes);
                match ops {
                    Some(ops) if ops <= SYNTH_OP_BUDGET => Ok(()),
                    _ => Err(format!(
                        "episodes={} x (d + k*k + 1) ops exceeds the synthetic op budget of \
                         {SYNTH_OP_BUDGET}",
                        self.episodes
                    )),
                }
            }
            app if apps::APP_NAMES.contains(&app) => Ok(()),
            other => Err(format!("unknown app {other:?} (expected one of {:?} or \"synth\")", {
                apps::APP_NAMES
            })),
        }
    }

    fn pattern_kind(&self) -> Result<PatternKind, String> {
        match self.pattern.as_str() {
            "uniform" => Ok(PatternKind::UniformRandom),
            "col" => Ok(PatternKind::SameColumn),
            "row" => Ok(PatternKind::SameRow),
            "cluster" => Ok(PatternKind::Cluster { radius: 1 }),
            other => {
                Err(format!("unknown pattern {other:?} (expected uniform, col, row, or cluster)"))
            }
        }
    }

    /// Build the deterministic op-stream workload this scenario describes.
    pub fn workload(&self) -> Result<Workload, String> {
        self.validate()?;
        if self.app == "synth" {
            return Ok(self.synth_workload());
        }
        apps::seeded(&self.app, self.k * self.k, self.compute_scale)
    }

    /// Synthetic scenario: `episodes` seeded invalidation episodes. Each
    /// episode has the pattern's sharers read a fresh block, every
    /// processor synchronize at a barrier, then the pattern's writer
    /// write the block — producing exactly one `d`-sharer invalidation
    /// per episode, at blocks disjoint from every application region.
    fn synth_workload(&self) -> Workload {
        let kind = self.pattern_kind().expect("validated above");
        let procs = self.k * self.k;
        let mesh = Mesh2D::square(self.k);
        let mut rng = Rng::new(self.seed);
        let mut w = Workload::new(procs);
        for ep in 0..self.episodes {
            let p = gen_pattern(&mesh, kind, self.d, &mut rng);
            let addr = Addr((SYNTH_BASE_BLOCK + ep as u64) * 32);
            for &s in &p.sharers {
                w.push(s.0 as usize, MemOp::Read(addr));
            }
            for proc in 0..procs {
                w.push(proc, MemOp::Barrier { id: ep as u16, participants: procs as u32 });
            }
            w.push(p.writer.0 as usize, MemOp::Write(addr));
        }
        w
    }

    /// Parse an `application/x-www-form-urlencoded` query string
    /// (`scheme=MI-MA(col)&app=lu&k=4`), the submission format of both
    /// the farm's `POST /jobs` bodies and `GET /submit` queries. Unknown
    /// keys are rejected — a typo'd key silently falling back to a
    /// default would run the wrong experiment under a fresh hash.
    pub fn parse_query(query: &str) -> Result<Scenario, String> {
        let mut s = Scenario::default();
        for pair in query.split('&').filter(|p| !p.is_empty()) {
            let (k, v) = pair.split_once('=').ok_or_else(|| format!("malformed pair {pair:?}"))?;
            let v = percent_decode(v)?;
            match k {
                "scheme" => {
                    s.scheme =
                        SchemeKind::parse(&v).ok_or_else(|| format!("unknown scheme {v:?}"))?;
                }
                "app" => s.app = v,
                "k" => s.k = parse_num(k, &v)?,
                "pattern" => s.pattern = v,
                "d" => s.d = parse_num(k, &v)?,
                "episodes" => s.episodes = parse_num(k, &v)?,
                "seed" => s.seed = parse_num(k, &v)?,
                "compute_scale" => s.compute_scale = parse_num(k, &v)?,
                "max_cycles" => s.max_cycles = parse_num(k, &v)?,
                "profile" => {
                    s.profile = v.parse().map_err(|_| format!("profile={v:?} not a bool"))?;
                }
                other => return Err(format!("unknown key {other:?}")),
            }
        }
        s.validate()?;
        Ok(s)
    }

    /// Run this scenario: build the system and workload, or restore both
    /// from `obs.resume`; apply the observation settings; drive the run;
    /// and audit the end state (a fired protocol invariant, then
    /// `verify_coherence`), so no caller reports numbers from a corrupted
    /// machine.
    ///
    /// A pause by the observer returns [`RunEnd::Paused`] with a
    /// checkpoint. A resumed run finishes bit-identically to one that was
    /// never interrupted; its `result.cycles` counts the resumed part
    /// only and `result.issued` the whole run.
    pub fn run(&self, obs: Observe<'_>) -> Result<RunEnd, String> {
        let Observe { trace_level, probe_window, observer, resume } = obs;
        let resume = resume.map(|bytes| self.open_checkpoint(bytes)).transpose()?;
        let workload = self.workload()?;
        let cfg = SystemConfig::for_scheme(self.k, self.scheme);
        let (mut sys, mut st) = match resume {
            Some(bytes) => workload.resume(cfg, self.scheme.build(), bytes)?,
            None => (DsmSystem::new(cfg, self.scheme.build()), workload.start()),
        };
        sys.set_trace_level(trace_level);
        if self.profile {
            sys.enable_profiling();
        }
        if probe_window > 0 {
            sys.enable_contention_probe(probe_window);
        }
        let (every, mut observer) = observer.unwrap_or((Cycle::MAX, Box::new(|_, _| true)));
        let t0 = Instant::now();
        let done = workload.drive(&mut sys, &mut st, self.max_cycles, every, &mut *observer)?;
        let wall_s = t0.elapsed().as_secs_f64();
        let Some(result) = done else {
            return Ok(RunEnd::Paused(self.checkpoint(&sys, &st)));
        };
        sys.finish_contention_probe();
        if let Some(v) = sys.invariant_violation() {
            return Err(format!("protocol invariant fired: {v}"));
        }
        sys.verify_coherence().map_err(|e| format!("coherence audit failed: {e}"))?;
        Ok(RunEnd::Done(Box::new(RunReport { sys, result, wall_s })))
    }

    /// [`Scenario::run`] for a run that must complete: a pause by the
    /// observer is an error, like a failed audit.
    pub fn finish(&self, obs: Observe<'_>) -> Result<RunReport, String> {
        match self.run(obs)? {
            RunEnd::Done(report) => Ok(*report),
            RunEnd::Paused(_) => Err("the observer paused a run that must finish".to_string()),
        }
    }

    /// Serialize a resumable checkpoint of this scenario's run: the
    /// canonical string, then the system snapshot plus issue state. Call
    /// it from an observer (that is where `sys` and `st` agree on the
    /// point a resume continues from).
    pub fn checkpoint(&self, sys: &DsmSystem, st: &IssueState) -> Vec<u8> {
        let inner = Workload::checkpoint(sys, st);
        let mut w = SnapWriter::new();
        w.put_str(&self.canonical());
        w.put_usize(inner.len());
        w.put_bytes(&inner);
        w.finish()
    }

    /// Check a checkpoint's framing and that it names this scenario, as
    /// a resume does first; the error says why it is not ours.
    pub fn check_checkpoint(&self, bytes: &[u8]) -> Result<(), String> {
        self.open_checkpoint(bytes).map(|_| ())
    }

    /// Check a checkpoint's framing and that it names this scenario;
    /// return the workload checkpoint inside.
    fn open_checkpoint<'b>(&self, bytes: &'b [u8]) -> Result<&'b [u8], String> {
        let err = |e: wormdsm_sim::snap::SnapError| format!("bad checkpoint: {e}");
        let mut r = SnapReader::new(bytes).map_err(err)?;
        let theirs = r.get_str().map_err(err)?;
        let ours = self.canonical();
        if theirs != ours {
            return Err(format!("checkpoint belongs to scenario {theirs:?}, not {ours:?}"));
        }
        let n = r.get_len().map_err(err)?;
        r.get_bytes(n).map_err(err)
    }
}

fn parse_num<T: std::str::FromStr>(key: &str, v: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("{key}={v:?} is not a valid number"))
}

/// Decode `%XX` escapes and `+` (space) in a query-string component.
pub fn percent_decode(s: &str) -> Result<String, String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => out.push(b' '),
            b'%' => {
                let hex = bytes
                    .get(i + 1..i + 3)
                    .ok_or_else(|| format!("truncated %-escape in {s:?}"))?;
                let hv = u8::from_str_radix(
                    std::str::from_utf8(hex).map_err(|_| format!("bad %-escape in {s:?}"))?,
                    16,
                )
                .map_err(|_| format!("bad %-escape in {s:?}"))?;
                out.push(hv);
                i += 2;
            }
            b => out.push(b),
        }
        i += 1;
    }
    String::from_utf8(out).map_err(|_| format!("query component {s:?} is not UTF-8"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_round_trips_through_query_parse() {
        let s = Scenario {
            scheme: SchemeKind::MiMaTree,
            app: "synth".into(),
            k: 8,
            pattern: "col".into(),
            d: 6,
            episodes: 5,
            seed: 42,
            compute_scale: 3,
            max_cycles: 1_000_000,
            profile: true,
        };
        let q = "scheme=MI-MA%28tree%29&app=synth&k=8&pattern=col&d=6&episodes=5&seed=42\
                 &compute_scale=3&max_cycles=1000000&profile=true";
        let parsed = Scenario::parse_query(q).unwrap();
        assert_eq!(parsed, s);
        assert_eq!(parsed.config_hash(), s.config_hash());
        // Recorded from the farm's job spec before it became `Scenario`:
        // dedup hashes and state-dir file names must not move.
        assert_eq!(
            s.canonical(),
            "v2;scheme=MI-MA(tree);app=synth;k=8;pattern=col;d=6;eps=5;seed=42;scale=3;\
             max=1000000;profile=true"
        );
        assert_eq!(
            Scenario::default().canonical(),
            "v2;scheme=UI-UA;app=bh;k=4;pattern=uniform;d=4;eps=4;seed=1;scale=1;\
             max=500000000;profile=false"
        );
        assert_eq!(Scenario::default().config_hash(), 0x8cd3_6502_bff3_c07d);
    }

    #[test]
    fn every_field_perturbs_the_hash() {
        let base = Scenario::default();
        let variants = [
            Scenario { scheme: SchemeKind::Dpm, ..base.clone() },
            Scenario { app: "lu".into(), ..base.clone() },
            Scenario { k: 8, ..base.clone() },
            Scenario { pattern: "row".into(), ..base.clone() },
            Scenario { d: 5, ..base.clone() },
            Scenario { episodes: 9, ..base.clone() },
            Scenario { seed: 2, ..base.clone() },
            Scenario { compute_scale: 2, ..base.clone() },
            Scenario { max_cycles: 7, ..base.clone() },
            Scenario { profile: true, ..base.clone() },
        ];
        let h0 = base.config_hash();
        for v in &variants {
            assert_ne!(v.config_hash(), h0, "field change invisible to hash: {v:?}");
        }
    }

    /// Every app validates its pattern (it is hashed into the identity),
    /// and the JSON row escapes whatever a hand-built scenario holds.
    #[test]
    fn pattern_is_validated_for_every_app() {
        for app in ["bh", "lu", "apsp", "synth"] {
            let e = Scenario::parse_query(&format!("app={app}&pattern=%22")).unwrap_err();
            assert!(e.contains("unknown pattern"), "{app}: {e}");
            assert!(Scenario::parse_query(&format!("app={app}&pattern=uniform")).is_ok(), "{app}");
        }
        let odd = Scenario { app: "a\"\\".into(), pattern: "\"\n".into(), ..Scenario::default() };
        let json = odd.to_json();
        json::validate_json(&json).unwrap_or_else(|e| panic!("{json}: {e}"));
    }

    #[test]
    fn rejects_bad_submissions() {
        assert!(Scenario::parse_query("scheme=BOGUS").is_err());
        assert!(Scenario::parse_query("app=quake").is_err());
        assert!(Scenario::parse_query("k=1").is_err());
        assert!(Scenario::parse_query("nope=1").is_err());
        assert!(Scenario::parse_query("tiles=2").unwrap_err().contains("unknown key"));
        assert!(Scenario::parse_query("k=abc").is_err());
        assert!(Scenario::parse_query("app=synth&pattern=zigzag").is_err());
        assert!(Scenario::parse_query("app=synth&k=2&d=9").is_err(), "d+2 > k*k");
        assert!(Scenario::parse_query("app=synth&pattern=col&d=3").is_err(), "column pool is k");
        assert!(Scenario::parse_query("app=synth&pattern=cluster&d=4").is_err(), "corner cluster");
        assert!(Scenario::parse_query("app=synth&episodes=0").is_err());
        for eps in ["1000000000000", "18446744073709551615"] {
            let e = Scenario::parse_query(&format!("app=synth&episodes={eps}")).unwrap_err();
            assert!(e.contains(&SYNTH_OP_BUDGET.to_string()), "episodes={eps}: {e}");
        }
        // The largest run inside the budget on a 4x4 mesh: d + 16 + 1 = 21
        // ops an episode.
        let most = SYNTH_OP_BUDGET / 21;
        assert!(Scenario::parse_query(&format!("app=synth&episodes={most}")).is_ok());
        assert!(Scenario::parse_query(&format!("app=synth&episodes={}", most + 1)).is_err());
        assert!(Scenario::parse_query("seed=%zz").is_err(), "bad escape");
        let e = Scenario::parse_query("app=synth&d=18446744073709551615").unwrap_err();
        assert!(e.contains("does not fit"), "d+2 must not overflow: {e}");
        for app in apps::APP_NAMES {
            let q = format!("app={app}&compute_scale=18446744073709551615");
            let e = Scenario::parse_query(&q).unwrap().workload().unwrap_err();
            assert!(e.contains("compute_scale"), "{app}: scaled costs must not overflow: {e}");
        }
    }

    #[test]
    fn mesh_side_is_bounded_by_the_simulator() {
        let k = Mesh2D::MAX_DIM;
        assert!(Scenario::parse_query(&format!("app=lu&k={k}")).is_ok(), "largest mesh");
        for k in [k + 1, usize::MAX] {
            for app in ["lu", "synth&pattern=uniform"] {
                let e = Scenario::parse_query(&format!("app={app}&k={k}")).unwrap_err();
                assert!(e.contains("too large"), "k={k} app={app}: {e}");
            }
        }
    }

    #[test]
    fn synth_workload_is_seed_deterministic() {
        let s = Scenario { app: "synth".into(), seed: 9, ..Scenario::default() };
        let a = s.workload().unwrap();
        let b = s.workload().unwrap();
        assert_eq!(a.total_ops(), b.total_ops());
        assert_eq!(a.mem_ops(), b.mem_ops());
        // One write + d reads per episode.
        assert_eq!(a.mem_ops(), s.episodes * (s.d + 1));
        let other = Scenario { seed: 10, ..s }.workload().unwrap();
        assert_eq!(other.mem_ops(), a.mem_ops(), "size is seed-independent");
    }

    /// Profiling is the scenario's own (hashed) field; the profiler it
    /// attaches sees every invalidation and stays on the system.
    #[test]
    fn profiled_scenario_attributes_every_invalidation() {
        let s = Scenario { app: "synth".into(), profile: true, ..Scenario::default() };
        let mut r = s.finish(Observe::default()).unwrap();
        let p = r.sys.take_profiler().expect("profiled scenario attaches a profiler");
        assert_eq!(p.closed(), r.sys.metrics().inval_txns);
        assert_eq!(p.closed(), s.episodes as u64, "one invalidation per episode");
        assert_eq!(p.latency_total() as f64, r.sys.metrics().inval_latency.sum());
        p.verify_exact().unwrap();
    }

    /// Random query strings built from real keys, values and junk: each
    /// parses or returns an error, and never panics.
    #[test]
    fn random_queries_never_panic() {
        let pieces: Vec<&str> = "scheme= app= k= pattern= d= episodes= seed= compute_scale= \
             max_cycles= profile= & & = % %2 %28 + synth bh MI-MA(col) -1 \u{e9} \
             18446744073709551615 99999999999999999999"
            .split_whitespace()
            .collect();
        let mut rng = Rng::new(0x5CE7_A210);
        for _ in 0..2_000 {
            let mut q = String::new();
            for _ in 0..rng.below(12) {
                q.push_str(pieces[rng.index(pieces.len())]);
                if rng.below(3) == 0 {
                    q.push_str(&rng.below(70).to_string());
                }
            }
            if let Ok(s) = Scenario::parse_query(&q) {
                assert_eq!(Scenario::parse_query(&q), Ok(s), "{q:?}: parsing is deterministic");
            }
        }
    }

    /// Truncated or bit-flipped checkpoints are refused with an error.
    #[test]
    fn corrupt_checkpoints_are_rejected() {
        let s = Scenario { app: "synth".into(), episodes: 2, ..Scenario::default() };
        let pause = Observe {
            observer: Some((64, Box::new(|_, st| st.issued() == 0))),
            ..Observe::default()
        };
        let RunEnd::Paused(ckpt) = s.run(pause).unwrap() else { panic!("paused mid-run") };
        s.check_checkpoint(&ckpt).unwrap();
        s.finish(Observe { resume: Some(&ckpt), ..Observe::default() }).unwrap();
        let mut rng = Rng::new(0xC4EC);
        for _ in 0..200 {
            let cut = rng.index(ckpt.len());
            assert!(s.check_checkpoint(&ckpt[..cut]).is_err(), "truncated to {cut} bytes");
            let e = s.run(Observe { resume: Some(&ckpt[..cut]), ..Observe::default() });
            assert!(e.is_err(), "checkpoint truncated to {cut} bytes was accepted");
            let mut flipped = ckpt.clone();
            let bit = rng.index(ckpt.len() * 8);
            flipped[bit / 8] ^= 1 << (bit % 8);
            let e = s.run(Observe { resume: Some(&flipped), ..Observe::default() });
            assert!(e.is_err(), "checkpoint with bit {bit} flipped was accepted");
        }
    }
}
