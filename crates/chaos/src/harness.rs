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
//! fault decision stream and the re-offload shuffle, so a failing seed is
//! re-run with one command. When violations are found and the plan mixes
//! several fault classes, the harness re-runs the seed with one class at a
//! time to report the minimal set that still reproduces the failure.

use crate::invariants::{self, InvariantReport, SemanticChecks};
use p4db_common::faults::{BlackholeFault, FaultEvent, FaultPlan};
use p4db_common::rand_util::FastRng;
use p4db_common::{Error, NodeId, Result, SystemMode, TxnId};
use p4db_core::{Cluster, NodeRecoveryReport, ResolverReport, SupervisorReport, SwitchRecoveryReport};
use p4db_net::{EndpointId, RecvOutcome};
use p4db_storage::LogRecord;
use p4db_switch::{Instruction, SwitchMessage, SwitchTxn, TxnHeader};
use p4db_txn::{OpKind, TxnOp};
use p4db_workloads::{SmallBank, SmallBankConfig, Tpcc, TpccConfig, Workload, WorkloadCtx, Ycsb, YcsbConfig, YcsbMix};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
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

    /// Parses the `CHAOS_WORKLOAD` environment value.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "ycsb" => Some(ChaosWorkload::Ycsb),
            "smallbank" => Some(ChaosWorkload::SmallBank),
            "tpcc" => Some(ChaosWorkload::Tpcc),
            _ => None,
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
    /// Hot-path batching degree (`ClusterConfig::batch_size`): the switch
    /// dequeues/replies in frames of up to this many packets and the
    /// executors pipeline queued all-hot transactions. It is also each
    /// driver's in-flight window — an executor only ever batches what is
    /// queued, and a closed-loop driver queues one request at a time.
    /// `1` = unbatched, one request in flight per driver.
    pub batch: u16,
    /// Fuzzy-checkpoint cadence (`ClusterConfig::checkpoint_interval`). When
    /// set, a checkpointer thread races every traffic wave, checkpointing
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
    /// same tuples and homes (the read-mostly traffic of the MVCC
    /// differential suite). The conversion decision consumes exactly one
    /// rng draw per transaction in *both* arms, so a snapshot-arm run and a
    /// 2PL-arm run with the same seed drive identical schedules; `0.0`
    /// skips the draw entirely and keeps legacy scenarios byte-identical.
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

    /// The `VAR=value` environment prefix that makes
    /// [`ChaosOptions::from_env`] rebuild this exact scenario. Only
    /// non-default knobs are emitted.
    pub fn repro_env(&self) -> String {
        let defaults = ChaosOptions::new(self.workload, self.seed);
        let mut env = format!("CHAOS_WORKLOAD={} CHAOS_SEED={}", self.workload.name(), self.seed);
        match &self.faults {
            None => env.push_str(" CHAOS_FAULTS=off"),
            // A plan with no probabilistic message faults (quiet net, e.g. a
            // blackhole-only scenario) must not round-trip into the seeded
            // default's drop/delay/reorder mix.
            Some(plan) if plan.net.drop_prob == 0.0 && plan.net.delay_prob == 0.0 && plan.net.reorder_prob == 0.0 => {
                env.push_str(" CHAOS_FAULTS=quiet");
            }
            Some(_) => {}
        }
        if self.mode != defaults.mode {
            let mode = match self.mode {
                SystemMode::P4db => "p4db",
                SystemMode::LmSwitch => "lmswitch",
                SystemMode::NoSwitch => "noswitch",
            };
            env.push_str(&format!(" CHAOS_MODE={mode}"));
        }
        if self.distributed_prob != defaults.distributed_prob {
            env.push_str(&format!(" CHAOS_DIST={}", self.distributed_prob));
        }
        if let Some(node) = self.crash_node {
            env.push_str(&format!(" CHAOS_CRASH_NODE={}", node.0));
        }
        if self.crash_switch {
            env.push_str(" CHAOS_CRASH_SWITCH=1");
        }
        if self.reoffload {
            env.push_str(" CHAOS_REOFFLOAD=1");
        }
        if let Some(interval) = self.checkpoint_interval {
            env.push_str(&format!(" CHAOS_CKPT={interval}"));
        }
        if self.torn_checkpoint {
            env.push_str(" CHAOS_TORN_CKPT=1");
        }
        if self.read_only_frac != defaults.read_only_frac {
            env.push_str(&format!(" CHAOS_RO_FRAC={}", self.read_only_frac));
        }
        if self.snapshot_arm {
            env.push_str(" CHAOS_SNAPSHOT=1");
        }
        if self.supervised {
            env.push_str(" CHAOS_SUPERVISED=1");
        }
        if let Some(bh) = self.faults.as_ref().and_then(|p| p.blackhole) {
            env.push_str(&format!(
                " CHAOS_BLACKHOLE={} CHAOS_BH_AFTER={} CHAOS_BH_HEAL={}",
                bh.switch, bh.after_messages, bh.heal_after_drops
            ));
        }
        for (var, actual, default) in [
            ("CHAOS_NODES", self.nodes as u64, defaults.nodes as u64),
            ("CHAOS_WORKERS", self.workers as u64, defaults.workers as u64),
            ("CHAOS_SWITCHES", self.switches as u64, defaults.switches as u64),
            ("CHAOS_WAVES", self.waves as u64, defaults.waves as u64),
            ("CHAOS_TXNS", self.txns_per_wave as u64, defaults.txns_per_wave as u64),
            ("CHAOS_ATTEMPTS", self.max_attempts as u64, defaults.max_attempts as u64),
            ("CHAOS_BATCH", self.batch as u64, defaults.batch as u64),
        ] {
            if actual != default {
                env.push_str(&format!(" {var}={actual}"));
            }
        }
        env
    }

    /// Rebuilds a scenario from `CHAOS_*` environment variables (the
    /// counterpart of [`ChaosOptions::repro_env`]); unset variables keep the
    /// standard-scenario defaults. Used by the repro test a failing run
    /// points at.
    pub fn from_env() -> Self {
        let var = |name: &str| std::env::var(name).ok();
        let parse = |name: &str| var(name).and_then(|v| v.parse::<u64>().ok());
        let workload = var("CHAOS_WORKLOAD").and_then(|w| ChaosWorkload::parse(&w)).unwrap_or(ChaosWorkload::SmallBank);
        let seed = parse("CHAOS_SEED").unwrap_or(7);
        let mut options = ChaosOptions::new(workload, seed);
        match var("CHAOS_FAULTS").as_deref() {
            Some("off") => options.faults = None,
            Some("quiet") => options.faults = Some(FaultPlan::quiet(seed)),
            _ => {}
        }
        options.mode = match var("CHAOS_MODE").as_deref() {
            Some("lmswitch") => SystemMode::LmSwitch,
            Some("noswitch") => SystemMode::NoSwitch,
            _ => options.mode,
        };
        if let Some(p) = var("CHAOS_DIST").and_then(|v| v.parse::<f64>().ok()) {
            options.distributed_prob = p;
        }
        let flag = |name: &str| matches!(var(name).as_deref(), Some("1") | Some("true"));
        options.crash_node = parse("CHAOS_CRASH_NODE").map(|n| NodeId(n as u16));
        options.crash_switch = flag("CHAOS_CRASH_SWITCH");
        options.reoffload = flag("CHAOS_REOFFLOAD");
        options.checkpoint_interval = parse("CHAOS_CKPT").filter(|&n| n > 0);
        options.torn_checkpoint = flag("CHAOS_TORN_CKPT");
        if let Some(f) = var("CHAOS_RO_FRAC").and_then(|v| v.parse::<f64>().ok()) {
            options.read_only_frac = f;
        }
        options.snapshot_arm = flag("CHAOS_SNAPSHOT");
        options.supervised = flag("CHAOS_SUPERVISED");
        if let Some(switch) = parse("CHAOS_BLACKHOLE") {
            let blackhole = BlackholeFault {
                switch: switch as u16,
                after_messages: parse("CHAOS_BH_AFTER").unwrap_or(50),
                heal_after_drops: parse("CHAOS_BH_HEAL").unwrap_or(0),
            };
            options.faults.get_or_insert_with(|| FaultPlan::quiet(seed)).blackhole = Some(blackhole);
        }
        if let Some(n) = parse("CHAOS_NODES") {
            options.nodes = n as u16;
        }
        if let Some(n) = parse("CHAOS_WORKERS") {
            options.workers = n as u16;
        }
        if let Some(n) = parse("CHAOS_SWITCHES") {
            options.switches = n as u16;
        }
        if let Some(n) = parse("CHAOS_WAVES") {
            options.waves = n as usize;
        }
        if let Some(n) = parse("CHAOS_TXNS") {
            options.txns_per_wave = n as usize;
        }
        if let Some(n) = parse("CHAOS_ATTEMPTS") {
            options.max_attempts = n as u32;
        }
        if let Some(n) = parse("CHAOS_BATCH") {
            options.batch = n as u16;
        }
        options
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
    pub switch_recovery: Option<SwitchRecoveryReport>,
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
    /// One command that reproduces this exact scenario.
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
            && self.switch_recovery.as_ref().is_none_or(|r| r.unexplained_divergences.is_empty())
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
        if let Some(r) = &self.switch_recovery {
            if !r.unexplained_divergences.is_empty() {
                out.push_str(&format!("  switch recovery divergences: {:?}\n", r.unexplained_divergences));
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
    let mut builder = Cluster::builder(Arc::clone(&workload))
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

    let mut committed = 0u64;
    let mut aborted = 0u64;
    let mut in_doubt = 0u64;
    let mut snapshot_reads = 0u64;
    let mut quiesced = true;
    let mut node_recovery = None;
    let mut switch_recovery = None;
    let mut checkpoints_taken = 0usize;
    let mut expected_checkpoint = None;
    let mut wave_committed = Vec::with_capacity(options.waves.max(1));
    let mut supervisor: Option<SupervisorReport> = None;
    let mut resolver = ResolverReport::default();

    for wave in 0..options.waves.max(1) {
        let (c, a, d, s) = if options.supervised {
            // The drivers run detached while the supervisor loop owns this
            // thread: trip detection, degraded mode, probes, in-doubt
            // resolution and re-admission all happen *during* the wave, with
            // no manual recovery calls anywhere.
            let (handles, active) = spawn_wave_drivers(&cluster, &workload, options, wave)?;
            let sup = cluster.supervise_until(|| active.load(Ordering::Acquire) == 0, Duration::from_secs(20))?;
            resolver.merge(&sup.resolver);
            match supervisor.as_mut() {
                Some(total) => {
                    total.degraded.extend(sup.degraded);
                    total.recovered.extend(sup.recovered);
                    total.probes_sent += sup.probes_sent;
                    total.probes_answered += sup.probes_answered;
                    total.resolver.merge(&sup.resolver);
                    total.deadline_forced |= sup.deadline_forced;
                    total.trips_seen = sup.trips_seen;
                }
                None => supervisor = Some(sup),
            }
            join_wave(handles)?
        } else if options.checkpoint_interval.is_some() {
            // The checkpointer races the wave's live traffic on purpose:
            // the scans are fuzzy, and the invariant checker later proves
            // checkpoint+tail reconstruction still matches the live state.
            let stop = std::sync::atomic::AtomicBool::new(false);
            std::thread::scope(|scope| {
                let stop = &stop;
                let cluster = &cluster;
                let checkpointer = scope.spawn(|| {
                    let mut taken = 0usize;
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        taken += cluster.maybe_checkpoint();
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    taken
                });
                let result = drive_wave(cluster, &workload, options, wave);
                stop.store(true, std::sync::atomic::Ordering::Relaxed);
                checkpoints_taken += checkpointer.join().expect("checkpointer panicked");
                result
            })?
        } else {
            drive_wave(&cluster, &workload, options, wave)?
        };
        committed += c;
        aborted += a;
        in_doubt += d;
        snapshot_reads += s;
        wave_committed.push(c);
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
                // In a multi-switch topology this crashes and recovers each
                // switch *independently* (per-switch WAL-suffix replay,
                // epoch and reshuffle) and merges the per-switch reports.
                switch_recovery = Some(cluster.crash_and_recover_switch(reoffload_seed)?);
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
    let repro =
        format!("{} cargo test --offline --test chaos smoke_reproduce_from_env -- --nocapture", options.repro_env());
    Ok(ChaosReport {
        workload: options.workload.name(),
        seed: options.seed,
        committed,
        aborted,
        in_doubt,
        in_doubt_per_switch: cluster.health().in_doubt_per_switch(),
        wave_committed,
        supervisor,
        snapshot_reads,
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
        repro,
    })
}

/// One traffic wave: every `(node, worker)` pair drives its session through
/// `txns_per_wave` generated transactions, `batch` of them in flight at a
/// time. Returns (committed, aborted, in-doubt, snapshot-read) counts.
fn drive_wave(
    cluster: &Cluster,
    workload: &Arc<dyn Workload>,
    options: &ChaosOptions,
    wave: usize,
) -> Result<(u64, u64, u64, u64)> {
    let (handles, _active) = spawn_wave_drivers(cluster, workload, options, wave)?;
    join_wave(handles)
}

type WaveCounts = (u64, u64, u64, u64);
type WaveHandle = std::thread::JoinHandle<Result<WaveCounts>>;

/// Spawns one driver thread per `(node, worker)` pair and returns the
/// handles plus a live-driver counter. Sessions are self-contained (they own
/// their engine handle and submission queue), so the threads do not borrow
/// the cluster — the caller's thread is free to run the self-healing
/// supervisor while the wave is in flight, watching the counter to know when
/// the drivers are done.
fn spawn_wave_drivers(
    cluster: &Cluster,
    workload: &Arc<dyn Workload>,
    options: &ChaosOptions,
    wave: usize,
) -> Result<(Vec<WaveHandle>, Arc<AtomicUsize>)> {
    let active = Arc::new(AtomicUsize::new((options.nodes as usize) * (options.workers as usize)));
    let mut handles = Vec::new();
    for node in 0..options.nodes {
        for worker in 0..options.workers {
            let mut session = cluster.session(NodeId(node))?;
            session.set_max_attempts(options.max_attempts);
            let workload = Arc::clone(workload);
            let ctx = WorkloadCtx::new(options.nodes, NodeId(node), options.distributed_prob);
            let seed = options
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add((wave as u64) << 40 | (node as u64) << 20 | worker as u64);
            let count = options.txns_per_wave;
            let window = options.batch.max(1) as usize;
            let (ro_frac, snapshot_arm) = (options.read_only_frac, options.snapshot_arm);
            let active = Arc::clone(&active);
            handles.push(std::thread::spawn(move || {
                // Decrement on every exit path — return, error, or panic
                // unwind — so the supervisor always learns the wave ended.
                struct Done(Arc<AtomicUsize>);
                impl Drop for Done {
                    fn drop(&mut self) {
                        self.0.fetch_sub(1, Ordering::Release);
                    }
                }
                let _done = Done(active);
                let mut rng = FastRng::new(seed);
                let mut generate = || {
                    let mut req = workload.generate(&ctx, &mut rng);
                    // The conversion decision costs one rng draw in every
                    // arm (schedules stay seed-identical whichever arm
                    // executes them); frac 0.0 skips the draw so legacy
                    // scenarios keep their historical schedules. Inserts
                    // are dropped rather than converted — an insert's key
                    // has no pre-image, so reading it would be a guaranteed
                    // TupleNotFound (TPC-C NewOrder/Payment). The transform
                    // is keyed on the generated ops alone, so both arms
                    // execute the same converted footprint.
                    if ro_frac > 0.0 && rng.gen_f64() < ro_frac {
                        let reads: Vec<TxnOp> = req
                            .ops
                            .iter()
                            .filter(|op| !matches!(op.kind, OpKind::Insert(_)))
                            .map(|op| TxnOp::new(op.tuple, OpKind::Read, op.home))
                            .collect();
                        if !reads.is_empty() {
                            req.ops = reads;
                            if snapshot_arm {
                                req = req.into_read_only();
                            }
                        }
                    }
                    req
                };
                let (mut committed, mut aborted, mut in_doubt) = (0u64, 0u64, 0u64);
                // Each driver keeps `min(batch, remaining)` requests in
                // flight and redeems them in submission order, so an
                // executor's share of the queue holds several transactions
                // and the batched paths (pipelined frames, group commit) are
                // exercised by construction. A window of 1 is the closed
                // loop of `execute_request`, schedule included.
                let mut in_flight = VecDeque::with_capacity(window);
                let mut remaining = count;
                loop {
                    while remaining > 0 && in_flight.len() < window {
                        in_flight.push_back(session.submit_request(&generate())?);
                        remaining -= 1;
                    }
                    let Some(pending) = in_flight.pop_front() else { break };
                    match session.wait(pending) {
                        Ok(outcome) => {
                            committed += 1;
                            if outcome.in_doubt {
                                in_doubt += 1;
                            }
                        }
                        Err(e) if e.is_abort() => aborted += 1,
                        Err(e) => return Err(e),
                    }
                }
                Ok((committed, aborted, in_doubt, session.take_stats().snapshot_reads))
            }));
        }
    }
    Ok((handles, active))
}

/// Joins every driver of a wave and sums the counts.
///
/// Joins *every* driver before propagating any error, so no driver thread
/// outlives the wave and keeps submitting into a cluster the caller
/// believes is quiet. A driver panic is re-raised with its own payload —
/// it carries the seed-specific diagnostic the repro workflow needs.
fn join_wave(handles: Vec<WaveHandle>) -> Result<WaveCounts> {
    let joined: Vec<std::thread::Result<Result<WaveCounts>>> = handles.into_iter().map(|h| h.join()).collect();
    let results: Vec<Result<WaveCounts>> =
        joined.into_iter().map(|r| r.unwrap_or_else(|payload| std::panic::resume_unwind(payload))).collect();
    let (mut committed, mut aborted, mut in_doubt, mut snapshot_reads) = (0u64, 0u64, 0u64, 0u64);
    for result in results {
        let (c, a, d, s) = result?;
        committed += c;
        aborted += a;
        in_doubt += d;
        snapshot_reads += s;
    }
    Ok((committed, aborted, in_doubt, snapshot_reads))
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

    // A rogue endpoint outside the worker id space.
    let origin = EndpointId::Node(NodeId(u16::MAX));
    let mailbox = cluster.shared().fabric.register(origin);
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
