//! Workload representation and the execution driver.
//!
//! Issuance is cursor-based: a [`Workload`] is an immutable set of op
//! streams, and all run progress lives in an [`IssueState`] (per-processor
//! cursors + issued count). That split is what makes runs *resumable*: an
//! `IssueState` plus a [`wormdsm_core::DsmSystem`] snapshot is a complete
//! checkpoint. Checkpoints are taken and resumed through
//! [`crate::Scenario`], which prefixes them with the scenario they belong
//! to.

use std::collections::VecDeque;
use wormdsm_core::{DsmSystem, InvalidationScheme, MemOp, SystemConfig};
use wormdsm_mesh::topology::NodeId;
use wormdsm_sim::snap::{SnapError, SnapReader, SnapWriter};
use wormdsm_sim::Cycle;

/// One deterministic operation stream per processor.
#[derive(Debug, Clone, Default)]
pub struct Workload {
    /// Per-processor operation queues (index = node id).
    pub ops: Vec<VecDeque<MemOp>>,
}

/// Issue-side progress of a run: how far into each processor's op stream
/// the driver has issued. Together with a [`DsmSystem::save_snapshot`]
/// stream this is everything needed to resume a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IssueState {
    /// Next un-issued op per processor (index = node id).
    cursors: Vec<usize>,
    /// Operations issued so far.
    issued: u64,
    /// Operations in the workload (not serialized: it is the workload's).
    total: u64,
}

impl IssueState {
    /// Operations issued so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Operations in the whole workload.
    pub fn total(&self) -> u64 {
        self.total
    }
}

impl Workload {
    /// Empty workload for `procs` processors.
    pub fn new(procs: usize) -> Self {
        Self { ops: vec![VecDeque::new(); procs] }
    }

    /// Append an op to processor `p`'s stream.
    pub fn push(&mut self, p: usize, op: MemOp) {
        self.ops[p].push_back(op);
    }

    /// Drop every queue's spare capacity. A generator's queues grow by
    /// doubling, so up to half of each buffer is spare once it is done.
    /// Each queue is copied into a fresh buffer of its length rather than
    /// shrunk in place, so the old buffers are freed whole instead of
    /// leaving a spare tail behind every queue for later allocations to
    /// fragment.
    pub fn shrink_to_fit(&mut self) {
        self.ops.iter_mut().for_each(|q| *q = q.iter().copied().collect());
    }

    /// Total operations across all processors.
    pub fn total_ops(&self) -> usize {
        self.ops.iter().map(|q| q.len()).sum()
    }

    /// Number of memory operations (reads + writes).
    pub fn mem_ops(&self) -> usize {
        self.ops
            .iter()
            .flatten()
            .filter(|op| matches!(op, MemOp::Read(_) | MemOp::Write(_)))
            .count()
    }

    /// Fresh issue state: nothing issued yet.
    pub fn start(&self) -> IssueState {
        IssueState { cursors: vec![0; self.ops.len()], issued: 0, total: self.total_ops() as u64 }
    }

    /// Run this workload to completion on `sys`.
    ///
    /// Every cycle, each idle processor issues its next op. Returns the
    /// completion cycle and counts, or an error if `max_cycles` pass
    /// without finishing (deadlock / lost message).
    pub fn run(&self, sys: &mut DsmSystem, max_cycles: Cycle) -> Result<RunResult, String> {
        let r = self.drive(sys, &mut self.start(), max_cycles, Cycle::MAX, &mut |_, _| true)?;
        Ok(r.expect("an observer that never pauses"))
    }

    /// The one run loop: drive toward completion, handing `observer`
    /// control before the first issue pass and then whenever `every`
    /// cycles have passed since it last ran.
    ///
    /// The observer sees the system *before* that cycle's issue pass —
    /// the point [`Workload::checkpoint`] captures — and returns `true`
    /// to keep running or `false` to pause. A pause returns `Ok(None)`
    /// with `st` holding exactly the progress an uninterrupted run would
    /// have at that cycle: exactly one issue pass runs per simulated
    /// cycle however the run is paused and resumed, so a sliced run is
    /// bit-identical to an uninterrupted one. Completion (every op issued
    /// and the system idle) returns `Ok(Some(result))` with `cycles`
    /// counting this call only and `issued` the state's lifetime total.
    /// The deadline is `max_cycles` past the cycle this call starts on,
    /// saturating at the end of time.
    pub(crate) fn drive(
        &self,
        sys: &mut DsmSystem,
        st: &mut IssueState,
        max_cycles: Cycle,
        every: Cycle,
        observer: &mut dyn FnMut(&mut DsmSystem, &IssueState) -> bool,
    ) -> Result<Option<RunResult>, String> {
        assert!(every >= 1, "observation interval must be at least one cycle");
        assert_eq!(self.ops.len(), sys.config().nodes(), "one op stream per node");
        assert_eq!(st.cursors.len(), self.ops.len(), "issue state matches this workload");
        let start = sys.now();
        let deadline = start.saturating_add(max_cycles);
        let mut boundary = start;
        // Poll only processors that still have queued ops. The set is kept
        // in ascending node order and only ever shrinks, so issue order is
        // identical to sweeping every node each cycle.
        let mut runnable: Vec<usize> =
            (0..self.ops.len()).filter(|&p| st.cursors[p] < self.ops[p].len()).collect();
        loop {
            // The promoted invariants record instead of panicking; a
            // workload run must not report numbers from a corrupted state.
            if let Some(v) = sys.invariant_violation() {
                return Err(format!("workload aborted: {v}"));
            }
            if sys.now() > deadline {
                let left = st.total - st.issued;
                return Err(format!(
                    "workload incomplete after {max_cycles} cycles: {} issued, {left} queued",
                    st.issued
                ));
            }
            if sys.now() >= boundary {
                if !observer(sys, st) {
                    return Ok(None);
                }
                boundary = sys.now().saturating_add(every);
            }
            runnable.retain(|&p| {
                let node = NodeId(p as u16);
                if sys.proc_idle(node) {
                    let op = self.ops[p][st.cursors[p]];
                    st.cursors[p] += 1;
                    sys.issue(node, op);
                    st.issued += 1;
                }
                st.cursors[p] < self.ops[p].len()
            });
            if runnable.is_empty() && sys.idle() {
                return Ok(Some(RunResult { cycles: sys.now() - start, issued: st.issued }));
            }
            sys.step();
        }
    }

    /// Serialize a resumable checkpoint: the full system snapshot plus
    /// the run's issue state, one sealed stream.
    pub(crate) fn checkpoint(sys: &DsmSystem, st: &IssueState) -> Vec<u8> {
        let mut w = SnapWriter::new();
        let sys_bytes = sys.save_snapshot();
        w.put_usize(sys_bytes.len());
        w.put_bytes(&sys_bytes);
        w.put_usize(st.cursors.len());
        for &c in &st.cursors {
            w.put_usize(c);
        }
        w.put_u64(st.issued);
        w.finish()
    }

    /// Rebuild a system and issue state from [`Workload::checkpoint`]
    /// bytes. `cfg` and `scheme` must match the checkpointing run (the
    /// system snapshot's fingerprint enforces it), and the checkpoint's
    /// cursors must fit this workload's op streams.
    pub(crate) fn resume(
        &self,
        cfg: SystemConfig,
        scheme: Box<dyn InvalidationScheme>,
        bytes: &[u8],
    ) -> Result<(DsmSystem, IssueState), String> {
        let err = |e: SnapError| e.to_string();
        let mut r = SnapReader::new(bytes).map_err(err)?;
        let n = r.get_len().map_err(err)?;
        let sys_bytes = r.get_bytes(n).map_err(err)?;
        let streams = r.get_len().map_err(err)?;
        if streams != self.ops.len() {
            return Err(format!(
                "checkpoint has {streams} op streams, workload has {}",
                self.ops.len()
            ));
        }
        let mut cursors = Vec::with_capacity(streams);
        for (p, q) in self.ops.iter().enumerate() {
            let c = r.get_usize().map_err(err)?;
            if c > q.len() {
                return Err(format!(
                    "checkpoint cursor {c} exceeds processor {p}'s {} ops",
                    q.len()
                ));
            }
            cursors.push(c);
        }
        let issued = r.get_u64().map_err(err)?;
        if issued != cursors.iter().map(|&c| c as u64).sum::<u64>() {
            return Err(format!("checkpoint issued count {issued} disagrees with its cursors"));
        }
        let sys = DsmSystem::restore_snapshot(cfg, scheme, sys_bytes).map_err(|e| e.to_string())?;
        Ok((sys, IssueState { cursors, issued, total: self.total_ops() as u64 }))
    }
}

/// Outcome of a completed workload run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunResult {
    /// Cycles from start to everything idle.
    pub cycles: Cycle,
    /// Operations issued.
    pub issued: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormdsm_coherence::Addr;
    use wormdsm_core::{SchemeKind, SystemConfig};
    use wormdsm_sim::ToJson;

    fn sys() -> DsmSystem {
        DsmSystem::new(SystemConfig::for_scheme(4, SchemeKind::UiUa), SchemeKind::UiUa.build())
    }

    #[test]
    fn empty_workload_finishes_immediately() {
        let mut s = sys();
        let r = Workload::new(16).run(&mut s, 1000).unwrap();
        assert_eq!(r.issued, 0);
    }

    #[test]
    fn counts_ops() {
        let mut w = Workload::new(16);
        w.push(0, MemOp::Read(Addr(0)));
        w.push(0, MemOp::Compute(10));
        w.push(3, MemOp::Write(Addr(64)));
        assert_eq!(w.total_ops(), 3);
        assert_eq!(w.mem_ops(), 2);
    }

    fn sharing_workload() -> Workload {
        let mut w = Workload::new(16);
        // Everyone reads block 1, then node 0 writes it.
        for p in 1..16 {
            w.push(p, MemOp::Read(Addr(32)));
            w.push(p, MemOp::Barrier { id: 0, participants: 16 });
        }
        w.push(0, MemOp::Barrier { id: 0, participants: 16 });
        w.push(0, MemOp::Write(Addr(32)));
        w
    }

    #[test]
    fn runs_simple_sharing_pattern() {
        let w = sharing_workload();
        let mut s = sys();
        let r = w.run(&mut s, 500_000).unwrap();
        assert_eq!(r.issued, 15 * 2 + 2);
        assert_eq!(s.metrics().inval_txns, 1);
        // Block 32 is homed at node 1, which is itself a reader: its copy
        // is invalidated locally, leaving 14 remote sharers.
        assert_eq!(s.metrics().inval_set_size.summary().mean(), 14.0);
    }

    /// Chopping a run into many tiny observation windows must not change
    /// a single result: exactly one issue pass per simulated cycle.
    #[test]
    fn sliced_run_is_bit_identical_to_uninterrupted() {
        let w = sharing_workload();
        let mut whole = sys();
        let r_whole = w.run(&mut whole, 500_000).unwrap();

        let mut sliced = sys();
        let mut windows = 0;
        // An awkward non-divisor window width.
        let r = w
            .drive(&mut sliced, &mut w.start(), 500_000, 6, &mut |_, _| {
                windows += 1;
                true
            })
            .unwrap();
        assert!(windows > 10, "many windows");
        assert_eq!(r, Some(r_whole));
        assert_eq!(sliced.now(), whole.now());
        assert_eq!(sliced.export_metrics().to_json(), whole.export_metrics().to_json());
    }

    fn resume(w: &Workload, bytes: &[u8]) -> (DsmSystem, IssueState) {
        let cfg = SystemConfig::for_scheme(4, SchemeKind::UiUa);
        w.resume(cfg, SchemeKind::UiUa.build(), bytes).unwrap()
    }

    /// A run paused by the observer and continued — in the same process
    /// or from a checkpoint taken at the pause point — must be
    /// bit-identical to the uninterrupted run. This is the farm's
    /// graceful-shutdown contract.
    #[test]
    fn observed_pause_and_resume_is_bit_identical() {
        let w = sharing_workload();
        let mut whole = sys();
        let r_whole = w.run(&mut whole, 500_000).unwrap();

        // The observer runs once before the first window, then pauses at
        // the third boundary; checkpoint there and finish both the live
        // system and a system rebuilt from the checkpoint.
        let mut live = sys();
        let mut st = w.start();
        let mut calls = 0;
        let paused = w
            .drive(&mut live, &mut st, 500_000, 50, &mut |_, _| {
                calls += 1;
                calls <= 3
            })
            .unwrap();
        assert!(paused.is_none(), "observer paused the run");
        assert_eq!(live.now(), 150, "paused at the third 50-cycle boundary");
        assert!(st.issued() > 0 && st.issued() < r_whole.issued, "paused mid-run");
        let bytes = Workload::checkpoint(&live, &st);

        let r_live = w.drive(&mut live, &mut st, 500_000, Cycle::MAX, &mut |_, _| true).unwrap();
        assert_eq!(r_live.expect("runs to completion").issued, r_whole.issued);
        assert_eq!(live.export_metrics().to_json(), whole.export_metrics().to_json());

        let (mut rebuilt, mut st2) = resume(&w, &bytes);
        assert_eq!(rebuilt.now(), 150);
        let mut observed = 0;
        let r2 = w
            .drive(&mut rebuilt, &mut st2, 500_000, 50, &mut |sys, st| {
                // Observer reads are free; progress is monotone.
                assert!(st.issued() <= st.total());
                assert!(sys.now() > 0);
                observed += 1;
                true
            })
            .unwrap()
            .expect("runs to completion");
        assert!(observed >= 2, "completion crossed at least one boundary");
        assert_eq!(r2.issued, r_whole.issued);
        assert_eq!(rebuilt.now(), whole.now());
        assert_eq!(rebuilt.export_metrics().to_json(), whole.export_metrics().to_json());
    }

    /// Checkpoints taken at every boundary of a run that keeps going
    /// must each resume to the uninterrupted run's final state bit for
    /// bit, including metrics accumulated before the checkpoint.
    #[test]
    fn checkpoint_resume_is_bit_identical() {
        let w = sharing_workload();
        let mut whole = sys();
        let r_whole = w.run(&mut whole, 500_000).unwrap();

        let mut first = sys();
        let mut st = w.start();
        let mut taken = Vec::new();
        let r = w
            .drive(&mut first, &mut st, 500_000, 100, &mut |sys, st| {
                taken.push((sys.now(), Workload::checkpoint(sys, st)));
                true
            })
            .unwrap()
            .expect("runs to completion");
        assert_eq!(r.cycles, r_whole.cycles);
        assert!(taken.len() > 2, "run long enough to checkpoint");

        let (at, bytes) = &taken[taken.len() / 2];
        let (mut resumed, mut st) = resume(&w, bytes);
        assert_eq!(resumed.now(), *at);
        let rr = w
            .drive(&mut resumed, &mut st, 500_000, Cycle::MAX, &mut |_, _| true)
            .unwrap()
            .expect("runs to completion");
        assert_eq!(rr.cycles, r_whole.cycles - at, "cycles count the resumed part");
        assert_eq!(rr.issued, r_whole.issued, "issued counts the whole run");
        assert_eq!(resumed.now(), whole.now());
        assert_eq!(resumed.export_metrics().to_json(), whole.export_metrics().to_json());
    }

    #[test]
    fn invariant_violation_aborts_the_run() {
        use wormdsm_coherence::ProtoMsg;
        use wormdsm_mesh::TxnId;
        let mut s = sys();
        // A forged ack for a transaction that never existed trips the
        // dead-transaction invariant; the driver must refuse to report
        // numbers from the corrupted run.
        s.debug_deliver(
            NodeId(0),
            ProtoMsg::InvAck { block: wormdsm_coherence::BlockId(0), txn: TxnId(42), count: 1 },
            1,
            NodeId(5),
        );
        let mut w = Workload::new(16);
        w.push(0, MemOp::Compute(10));
        let e = w.run(&mut s, 10_000).unwrap_err();
        assert!(e.contains("workload aborted"), "{e}");
        assert!(e.contains("dead transaction"), "{e}");
    }

    #[test]
    fn timeout_reports_error() {
        let mut w = Workload::new(16);
        // A lock that is never released stalls node 1 forever.
        w.push(0, MemOp::Lock(1));
        w.push(1, MemOp::Lock(1));
        let mut s = sys();
        let e = w.run(&mut s, 10_000).unwrap_err();
        assert!(e.contains("incomplete"), "{e}");
    }
}
