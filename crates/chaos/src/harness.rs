//! The chaos harness: seeded fault-injection runs over real workloads with
//! invariant checking after every wave.
//!
//! A run is a sequence of *waves*: every `(node, worker)` pair drives a
//! session through a fixed number of generated transactions, then the
//! cluster is quiesced (held-back messages flushed, switch drained) and the
//! invariants are checked. Between waves the harness can crash and recover a
//! database node, and crash the switch and recover it from the WALs —
//! optionally re-offloading the hot set into fresh register slots.
//!
//! Everything derives from `ChaosOptions::seed`: the workload streams, the
//! fault decision stream and the re-offload shuffle. A seeded test draws its
//! seeds through [`seeds`], so a failing report's [`ChaosReport::repro`]
//! line — `CHAOS_SEED=<s>` and the test's own name — reruns exactly that
//! test at that seed, every arm and every option included. When violations
//! are found and the plan mixes several fault classes, the harness re-runs
//! the seed with one class at a time to report the minimal set that still
//! reproduces the failure.

use crate::invariants::{self, InvariantReport, SemanticChecks};
use p4db_common::faults::{FaultEvent, FaultPlan};
use p4db_common::stats::RunStats;
use p4db_common::{Error, NodeId, Result, SwitchId, SystemMode, TxnId};
use p4db_core::{Cluster, Load, NodeRecoveryReport, ResolverReport, Stop, SupervisorReport, SwitchRecoveryReport};
use p4db_net::{EndpointId, RecvOutcome};
use p4db_storage::LogRecord;
use p4db_switch::{Instruction, SwitchMessage, SwitchTxn, TxnHeader};
use p4db_workloads::{ReadMix, SmallBank, SmallBankConfig, Tpcc, TpccConfig, Workload, Ycsb, YcsbConfig, YcsbMix};
use std::sync::Arc;
use std::time::Duration;

/// Which workload a chaos run drives.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ChaosWorkload {
    Ycsb,
    SmallBank,
    Tpcc,
}

impl ChaosWorkload {
    pub fn name(self) -> &'static str {
        match self {
            ChaosWorkload::Ycsb => "ycsb",
            ChaosWorkload::SmallBank => "smallbank",
            ChaosWorkload::Tpcc => "tpcc",
        }
    }
}

/// One chaos scenario, fully determined by its fields.
#[derive(Clone, Debug)]
pub struct ChaosOptions {
    pub workload: ChaosWorkload,
    /// Master seed: workload streams, fault stream and re-offload shuffle
    /// all derive from it.
    pub seed: u64,
    pub mode: SystemMode,
    pub nodes: u16,
    pub workers: u16,
    /// Switches in the topology (`ClusterBuilder::switches`). With more
    /// than one, the hot set is partitioned across switches and
    /// `crash_switch` crashes and recovers **each switch independently**
    /// (its own WAL-suffix replay, epoch and — with `reoffload` — its own
    /// seeded reshuffle).
    pub switches: u16,
    /// Traffic waves; crashes (if any) happen after the first wave.
    pub waves: usize,
    /// Transactions per driver per wave.
    pub txns_per_wave: usize,
    pub distributed_prob: f64,
    /// Message faults; `None` runs the faults-off control arm (still with
    /// audit log + invariant checking).
    pub faults: Option<FaultPlan>,
    /// Crash + WAL-recover this node between waves. Crash scenarios should
    /// run with `distributed_prob == 0.0` so cross-coordinator write
    /// ordering cannot make recovery ambiguous.
    pub crash_node: Option<NodeId>,
    /// Crash the switch between waves and recover it from the WALs.
    pub crash_switch: bool,
    /// With `crash_switch`: re-offload the hot set into fresh register slots
    /// and swap the replicated index, instead of restoring in place.
    pub reoffload: bool,
    /// Retry budget per transaction (aborts only; in-doubt is never retried).
    pub max_attempts: u32,
    /// Hot-path batching degree (`ClusterBuilder::batch_size`), and each
    /// session's in-flight window (`Load::window`): an executor only batches
    /// what is queued. `1` = unbatched, one request in flight per session.
    pub batch: u16,
    /// Fuzzy-checkpoint cadence (`ClusterBuilder::checkpoint_interval`). When
    /// set, the harness thread races every traffic wave, checkpointing
    /// any node whose WAL grew by this many records — the scans are
    /// genuinely fuzzy, racing live writers — and the invariant checker
    /// verifies checkpoint+tail reconstruction against the live tables.
    pub checkpoint_interval: Option<u64>,
    /// With `crash_node`: simulate a crash landing *mid-checkpoint-write* —
    /// a complete generation is taken, then a newer one torn mid-blob before
    /// recovery runs. Recovery must skip the torn generation and start from
    /// the complete one; [`ChaosReport::is_clean`] enforces it.
    pub torn_checkpoint: bool,
    /// Fraction of generated transactions converted to all-reads over the
    /// same tuples and homes by [`ReadMix`] (the read-mostly traffic of the
    /// MVCC differential suite); `0.0` keeps legacy schedules.
    pub read_only_frac: f64,
    /// Marks the converted all-read transactions `read_only`, steering them
    /// onto the lock-free snapshot path. `false` runs the same schedule
    /// through ordinary 2PL — the differential baseline arm.
    pub snapshot_arm: bool,
    /// Runs every wave under the self-healing supervisor: the circuit
    /// breaker is enabled, the supervisor loop detects trips, stands up
    /// degraded mode, probes, resolves in-doubt transactions and re-admits —
    /// no manual recovery calls. (The blackhole fault itself rides in
    /// [`ChaosOptions::faults`] via [`FaultPlan::blackhole`].) Not combined
    /// with `checkpoint_interval` — the supervisor owns the harness thread
    /// the checkpointer would use.
    pub supervised: bool,
}

impl ChaosOptions {
    /// A standard faulty scenario: 2×2 cluster, two waves, seeded faults.
    pub fn new(workload: ChaosWorkload, seed: u64) -> Self {
        ChaosOptions {
            workload,
            seed,
            mode: SystemMode::P4db,
            nodes: 2,
            workers: 2,
            switches: 1,
            waves: 2,
            txns_per_wave: 120,
            distributed_prob: 0.2,
            faults: Some(FaultPlan::seeded(seed)),
            crash_node: None,
            crash_switch: false,
            reoffload: false,
            max_attempts: 30,
            batch: 16,
            checkpoint_interval: None,
            torn_checkpoint: false,
            read_only_frac: 0.0,
            snapshot_arm: false,
            supervised: false,
        }
    }

    /// The faults-off control arm of the same scenario.
    pub fn faults_off(mut self) -> Self {
        self.faults = None;
        self
    }
}

/// Everything a chaos run observed.
#[derive(Debug)]
pub struct ChaosReport {
    pub workload: &'static str,
    pub seed: u64,
    pub committed: u64,
    pub aborted: u64,
    /// Transactions that committed in doubt (switch reply lost).
    pub in_doubt: u64,
    /// In-doubt commits noted per `SwitchId` over the run (cumulative: the
    /// resolver settles entries but this counter records where they arose).
    pub in_doubt_per_switch: Vec<u64>,
    /// Committed transactions per wave — the liveness trace: under a
    /// supervised mid-run outage every wave must stay non-zero.
    pub wave_committed: Vec<u64>,
    /// What the self-healing supervisor observed (supervised runs only).
    pub supervisor: Option<SupervisorReport>,
    /// Committed transactions served on the lock-free snapshot read path
    /// (non-zero only with `read_only_frac > 0` and `snapshot_arm`).
    pub snapshot_reads: u64,
    /// Messages the nodes sent towards the switches, as the latency model
    /// counted them: two per switch round trip, whether it carried one
    /// transaction or a whole frame.
    pub messages_to_switch: u64,
    /// Transactions the switches executed (since their last recovery).
    /// Without faults or lock-manager traffic, fewer than
    /// `2 * switch_txns_executed` messages means frames were shared.
    pub switch_txns_executed: u64,
    /// Total network faults injected (the trace below is capped, this is
    /// not).
    pub faults_injected: u64,
    pub fault_events: Vec<FaultEvent>,
    pub invariants: InvariantReport,
    pub node_recovery: Option<NodeRecoveryReport>,
    /// One report per crashed switch, indexed by switch (empty without
    /// `crash_switch`).
    pub switch_recovery: Vec<SwitchRecoveryReport>,
    /// Fuzzy checkpoints installed while traffic was live.
    pub checkpoints_taken: usize,
    /// Set by the crash-during-checkpoint drill: the complete generation
    /// recovery must fall back to, the newer one having been torn.
    pub expected_checkpoint: Option<u64>,
    /// Whether every quiesce completed before its timeout.
    pub quiesced: bool,
    /// Fault classes that alone still reproduce the failure (populated only
    /// when the full plan failed and mixes several classes).
    pub minimized_faults: Vec<&'static str>,
    /// `CHAOS_SEED=<seed> cargo test … <test> -- --exact`: reruns the test
    /// that ran this scenario, at its seed only. Off a test thread (an
    /// example's `main`), just `seed <seed>`.
    pub repro: String,
}

impl ChaosReport {
    /// No invariant violations, no recovery divergence, clean quiesce — and,
    /// for the crash-during-checkpoint drill, recovery actually fell back to
    /// the expected complete generation instead of using the torn one.
    pub fn is_clean(&self) -> bool {
        self.invariants.is_clean()
            && self.quiesced
            && self
                .node_recovery
                .as_ref()
                .is_none_or(|r| r.divergences.is_empty() && r.ambiguous == 0 && r.codec_error.is_none())
            && self.switch_recovery.iter().all(|r| r.unexplained_divergences.is_empty())
            && self
                .expected_checkpoint
                .is_none_or(|expected| self.node_recovery.as_ref().is_some_and(|r| r.from_checkpoint == Some(expected)))
    }

    /// A one-screen failure summary: seed, violations, minimized fault trace.
    pub fn failure_summary(&self) -> String {
        let mut out = format!(
            "chaos run failed: workload={} seed={} ({} committed, {} in doubt)\nreproduce with: {}\n",
            self.workload, self.seed, self.committed, self.in_doubt, self.repro
        );
        for v in &self.invariants.violations {
            out.push_str(&format!("  violation: {v}\n"));
        }
        if let Some(r) = &self.node_recovery {
            if !r.divergences.is_empty() {
                out.push_str(&format!("  node recovery divergences: {:?}\n", r.divergences));
            }
            if let Some(expected) = self.expected_checkpoint {
                if r.from_checkpoint != Some(expected) {
                    out.push_str(&format!(
                        "  recovery used checkpoint {:?}, expected fallback to complete generation {expected}\n",
                        r.from_checkpoint
                    ));
                }
            }
        }
        for (s, r) in self.switch_recovery.iter().enumerate() {
            if !r.unexplained_divergences.is_empty() {
                out.push_str(&format!("  switch{s} recovery divergences: {:?}\n", r.unexplained_divergences));
            }
        }
        if !self.minimized_faults.is_empty() {
            out.push_str(&format!("  minimized fault classes: {:?}\n", self.minimized_faults));
        }
        let shown = self.fault_events.len().min(12);
        for event in &self.fault_events[..shown] {
            out.push_str(&format!("  fault: {:?} on {}\n", event.kind, event.link));
        }
        if self.faults_injected > shown as u64 {
            out.push_str(&format!("  ... {} more faults\n", self.faults_injected - shown as u64));
        }
        out
    }
}

fn build_workload(options: &ChaosOptions) -> (Arc<dyn Workload>, SemanticChecks) {
    match options.workload {
        ChaosWorkload::Ycsb => {
            let w = Ycsb::new(YcsbConfig { keys_per_node: 2_000, ..YcsbConfig::new(YcsbMix::A) });
            (Arc::new(w), SemanticChecks::None)
        }
        ChaosWorkload::SmallBank => {
            let config = SmallBankConfig { customers_per_node: 2_000, ..SmallBankConfig::default() };
            let checks = SemanticChecks::SmallBank {
                initial_balance: p4db_workloads::smallbank::INITIAL_BALANCE,
                max_amount: config.max_amount,
            };
            (Arc::new(SmallBank::new(config)), checks)
        }
        ChaosWorkload::Tpcc => {
            let config = TpccConfig { items_loaded: 300, ..TpccConfig::new(2) };
            let checks = SemanticChecks::Tpcc { warehouses: config.warehouses, initial_customer_balance: 1_000 };
            (Arc::new(Tpcc::new(config)), checks)
        }
    }
}

/// Runs one chaos scenario end to end and returns the full report. On
/// failure (and a multi-class fault plan) the seed is re-run once per fault
/// class to minimize the reproducing trace.
pub fn run_chaos(options: &ChaosOptions) -> Result<ChaosReport> {
    let mut report = run_once(options)?;
    if !report.is_clean() {
        if let Some(plan) = &options.faults {
            let kinds = plan.active_kinds();
            if kinds.len() > 1 {
                for kind in kinds {
                    let mut narrowed = options.clone();
                    narrowed.faults = Some(plan.only(kind));
                    if let Ok(rerun) = run_once(&narrowed) {
                        if !rerun.is_clean() {
                            report.minimized_faults.push(kind.name());
                        }
                    }
                }
            }
        }
    }
    Ok(report)
}

fn run_once(options: &ChaosOptions) -> Result<ChaosReport> {
    let (workload, semantics) = build_workload(options);
    let workload = Arc::new(ReadMix::new(workload, options.read_only_frac, options.snapshot_arm));
    let mut builder = Cluster::builder(workload)
        .nodes(options.nodes)
        .workers(options.workers)
        .switches(options.switches)
        .mode(options.mode)
        .distributed_prob(options.distributed_prob)
        .seed(options.seed)
        .batch_size(options.batch)
        .test_latencies();
    if let Some(interval) = options.checkpoint_interval {
        builder = builder.checkpoint_interval(interval);
    }
    if let Some(plan) = &options.faults {
        builder = builder.with_faults(plan.clone());
    }
    if options.supervised {
        builder = builder.breaker(true);
    }
    let mut cluster = builder.try_build()?;

    let mut traffic = RunStats::default();
    let mut quiesced = true;
    let mut node_recovery = None;
    let mut switch_recovery = Vec::new();
    let mut checkpoints_taken = 0usize;
    let mut expected_checkpoint = None;
    let mut wave_committed = Vec::with_capacity(options.waves.max(1));
    let mut supervisor: Option<SupervisorReport> = None;
    let mut resolver = ResolverReport::default();

    // Each wave is one drive of the cluster, so wave `w` draws the seeds of
    // the cluster's `w`-th drive.
    let load = Load {
        window: options.batch.into(),
        stop: Stop::Txns(options.txns_per_wave),
        max_attempts: options.max_attempts,
    };
    for wave in 0..options.waves.max(1) {
        let driving = cluster.start(load);
        if options.supervised {
            // The supervisor loop owns this thread while the wave runs: trip
            // detection, degraded mode, probes, in-doubt resolution and
            // re-admission all happen *during* the wave, with no manual
            // recovery calls anywhere.
            let sup = cluster.supervise_until(|| driving.is_done(), Duration::from_secs(20))?;
            resolver.merge(&sup.resolver);
            supervisor.get_or_insert_with(SupervisorReport::default).merge(sup);
        } else if options.checkpoint_interval.is_some() {
            // The checkpointer races the wave's live traffic on purpose:
            // the scans are fuzzy, and the invariant checker later proves
            // checkpoint+tail reconstruction still matches the live state.
            loop {
                checkpoints_taken += cluster.maybe_checkpoint();
                if driving.is_done() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        let run = driving.join()?;
        wave_committed.push(run.merged.committed_total());
        traffic.merge(&run);
        quiesced &= cluster.quiesce_switch(Duration::from_secs(10));

        if wave == 0 {
            if let Some(node) = options.crash_node {
                if options.torn_checkpoint {
                    // Crash-during-checkpoint drill: one complete generation,
                    // then a newer one torn mid-write by the "crash".
                    // Recovery must skip the torn blob and fall back.
                    let complete = cluster.checkpoint_node(node)?;
                    let _torn_generation = cluster.checkpoint_node(node)?;
                    assert!(
                        cluster.shared().node(node).checkpoints().tear_latest(17),
                        "the drill needs a blob to tear"
                    );
                    expected_checkpoint = Some(complete);
                }
                node_recovery = Some(cluster.crash_and_recover_node(node)?);
            }
            if options.crash_switch {
                let reoffload_seed = options.reoffload.then_some(options.seed ^ 0xC0DE);
                // Each switch crashes and recovers *independently*
                // (per-switch WAL-suffix replay, epoch and reshuffle).
                for s in 0..cluster.num_switches() {
                    switch_recovery.push(cluster.crash_and_recover_switch_at(SwitchId(s as u16), reoffload_seed)?);
                }
            }
        }
    }

    // A final resolution pass over anything still parked on the in-doubt
    // ledger (entries noted after the last supervisor pass, or re-parked as
    // unresolved). The switch path is quiescent here, so status verdicts
    // are trustworthy.
    if options.supervised {
        let mut session = cluster.session(NodeId(0))?;
        resolver.merge(&session.resolve_in_doubt()?);
    }

    // Every wave already ended in a quiesce, so the cluster is quiet here.
    let mut invariants = invariants::check(&cluster, semantics);
    if options.supervised {
        invariants.resolved_committed = resolver.resolved_committed;
        invariants.resolved_retried = resolver.resolved_retried;
        // What matters for cleanliness is the *final* ledger, not how many
        // passes an entry needed: an entry unresolved in one pass and
        // settled in a later one is settled.
        invariants.unresolved = cluster.health().ledger_len() as u64;
    }
    Ok(ChaosReport {
        workload: options.workload.name(),
        seed: options.seed,
        committed: traffic.merged.committed_total(),
        aborted: traffic.failed,
        in_doubt: traffic.in_doubt,
        in_doubt_per_switch: cluster.health().in_doubt_per_switch(),
        wave_committed,
        supervisor,
        snapshot_reads: traffic.merged.snapshot_reads,
        messages_to_switch: cluster.shared().latency.stats().snapshot().0,
        switch_txns_executed: cluster.switch_stats().txns_executed,
        faults_injected: cluster.faults_injected(),
        fault_events: cluster.fault_trace(),
        invariants,
        node_recovery,
        switch_recovery,
        checkpoints_taken,
        expected_checkpoint,
        quiesced,
        minimized_faults: Vec::new(),
        repro: repro_command(options.seed),
    })
}

/// The seeds a seeded chaos test runs: `given`, or only the seed in
/// `CHAOS_SEED` when that variable is set — the variable a failing report's
/// [`ChaosReport::repro`] line sets, so rerunning one test replays one seed.
///
/// # Panics
/// Panics, naming the variable, when `CHAOS_SEED` is set but is not a `u64`.
pub fn seeds(given: impl IntoIterator<Item = u64>) -> Vec<u64> {
    let pinned = match std::env::var("CHAOS_SEED") {
        Ok(value) => Some(value),
        Err(std::env::VarError::NotPresent) => None,
        Err(e) => panic!("CHAOS_SEED: {e}"),
    };
    pick_seeds(pinned.as_deref(), given).unwrap_or_else(|e| panic!("{e}"))
}

/// [`seeds`] without the environment: `pinned` is `CHAOS_SEED`'s value.
fn pick_seeds(pinned: Option<&str>, given: impl IntoIterator<Item = u64>) -> std::result::Result<Vec<u64>, String> {
    let Some(value) = pinned else { return Ok(given.into_iter().collect()) };
    value.parse().map(|seed| vec![seed]).map_err(|_| format!("CHAOS_SEED={value:?} is not a u64 seed"))
}

/// The command that reruns the calling test at `seed`. libtest names each
/// test's thread after the test, and cargo names the test binary
/// `<target>-<hash>`; off a named test thread only the seed is known.
fn repro_command(seed: u64) -> String {
    let thread = std::thread::current();
    let exe = std::env::current_exe().ok();
    let stem = exe.as_deref().and_then(|exe| exe.file_stem()?.to_str());
    let binary = stem.map(|stem| stem.rsplit_once('-').map_or(stem, |(target, _hash)| target));
    match (binary, thread.name().filter(|name| *name != "main")) {
        (Some(binary), Some(test)) => {
            format!("CHAOS_SEED={seed} cargo test --offline --test {binary} {test} -- --exact --nocapture")
        }
        _ => format!("seed {seed}"),
    }
}

/// Re-sends an already-executed logged intent to the switch, byte for byte —
/// the retransmission bug the exactly-once invariant exists to catch. Used
/// by the negative tests to prove the checker is alive. Returns the tuple
/// count of the replayed intent.
///
/// # Panics
/// Panics if called twice on the same cluster (its reply endpoint can only
/// be registered once).
pub fn resend_logged_intent(cluster: &Cluster, txn: TxnId) -> Result<usize> {
    let ops = cluster
        .shared()
        .nodes
        .iter()
        .find_map(|storage| {
            storage.wal().records().into_iter().find_map(|r| match r {
                LogRecord::SwitchIntent { txn: t, ops } if t == txn => Some(ops),
                _ => None,
            })
        })
        .ok_or_else(|| Error::InvalidTxn(format!("no logged intent for {txn}")))?;

    let index = cluster.shared().hot_index.load();
    let mut instructions = Vec::with_capacity(ops.len());
    for op in &ops {
        let slot =
            index.slot(op.tuple).ok_or_else(|| Error::InvalidTxn(format!("{} is no longer offloaded", op.tuple)))?;
        let mut instr = Instruction::new(slot, op.op, op.operand);
        instr.operand_from = op.operand_from;
        instructions.push(instr);
    }
    // Route the duplicate to the switch that owns the intent's tuples, just
    // like the executor would (an intent is single-switch by construction).
    let switch = ops
        .first()
        .and_then(|op| index.owner(op.tuple))
        .ok_or_else(|| Error::InvalidTxn(format!("intent of {txn} has no owning switch")))?;

    // A control port outside the worker id space.
    let mailbox = cluster.shared().fabric.control_port();
    let origin = mailbox.id();
    let mut header = TxnHeader::new(origin, u64::MAX);
    header.txn_id = txn;
    let sent = cluster.shared().fabric.send(
        origin,
        EndpointId::Switch(switch),
        SwitchMessage::Txn(SwitchTxn::new(header, instructions)),
    );
    if !sent {
        return Err(Error::Disconnected);
    }
    // Wait for the duplicate execution to finish so the checker sees it.
    loop {
        match mailbox.recv_timeout(Duration::from_secs(10)) {
            RecvOutcome::Msg(env) => {
                if matches!(env.payload, SwitchMessage::TxnReply(_)) {
                    break;
                }
            }
            // The two outcomes are distinct: a timeout means the duplicated
            // packet (or its reply) was lost — possible when the cluster
            // itself injects faults — while a disconnect means it shut down.
            RecvOutcome::TimedOut => {
                return Err(Error::SwitchControlPlane(format!(
                    "no reply to the duplicated intent of {txn} within 10s (packet lost under fault injection?)"
                )));
            }
            RecvOutcome::Disconnected => return Err(Error::Disconnected),
        }
    }
    Ok(ops.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pinned_seed_replaces_the_given_ones_and_garbage_is_an_error() {
        assert_eq!(pick_seeds(None, 1..4), Ok(vec![1, 2, 3]));
        assert_eq!(pick_seeds(Some("5"), 1..4), Ok(vec![5]));
        assert_eq!(pick_seeds(Some("77"), [7]), Ok(vec![77]));
        for garbage in ["", "five", "-1", "1..4"] {
            let err = pick_seeds(Some(garbage), 1..4).unwrap_err();
            assert!(err.contains("CHAOS_SEED"), "{err}");
        }
    }
}
