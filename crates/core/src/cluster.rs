//! Cluster assembly and the experiment driver.
//!
//! A [`Cluster`] is the full system of the paper's evaluation: `n` database
//! nodes (each with its partition, lock table and WAL), the programmable
//! switch (simulator), the rack fabric with the ½-RTT latency model, the
//! offloaded hot set with its declustered layout, and the per-node executor
//! pool that runs submitted transactions. The cluster is a *database first*:
//! any code can open a [`Session`] and execute ad-hoc
//! transactions; [`Cluster::run_for`] is merely the built-in closed-loop
//! client that drives the workload generators through the same session API
//! to produce one data point of one figure.

use crate::session::{ResolverReport, Session, SubmissionPool};
use p4db_common::faults::{FaultEvent, FaultInjector, FaultPlan};
use p4db_common::rand_util::FastRng;
use p4db_common::stats::{RunStats, WorkerStats};
use p4db_common::{
    CcScheme, Error, GlobalTxnId, LatencyConfig, NodeId, Result, SwitchId, SystemMode, TupleId, TxnId, Value,
};
use p4db_layout::{assign_tuples_to_switches, LayoutPlanner, LayoutStrategy};
use p4db_net::{EndpointId, Fabric, LatencyModel, Mailbox, RecvOutcome};
use p4db_storage::{
    decode_segment_tail, recover_cold_records, recover_switch_state, take_fuzzy_checkpoint, LogRecord, NodeStorage,
    SwitchRecoveryOutcome, Wal, DEFAULT_SEGMENT_RECORDS, DEFAULT_TABLE_SHARDS,
};
use p4db_switch::{
    start_switch_with_id, ControlPlane, ProbeRequest, RegisterMemory, SwitchConfig, SwitchHandle, SwitchMessage,
    SwitchStatsSnapshot,
};
use p4db_txn::{EngineConfig, EngineShared, HotIndexCell, HotSetIndex, SwitchHealth};
use p4db_workloads::{PartitionMap, Workload, WorkloadCtx};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Everything needed to build a cluster for one experiment configuration.
///
/// This is the *resolved* form that [`crate::ClusterBuilder`] produces; the
/// benchmark harness still constructs it directly for its sweep loops.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    pub num_nodes: u16,
    pub workers_per_node: u16,
    /// Number of programmable switches the hot set is partitioned over.
    /// `1` is the paper's topology and the default; a multi-switch cluster
    /// splits the hot set across switches with the capacity-aware,
    /// co-access-affine assignment of [`p4db_layout::assign_tuples_to_switches`].
    /// `0` is rejected by [`Cluster::try_build`].
    pub num_switches: u16,
    pub mode: SystemMode,
    pub cc: CcScheme,
    pub latency: LatencyConfig,
    pub switch: SwitchConfig,
    pub layout: LayoutStrategy,
    /// Fraction of generated transactions that are distributed.
    pub distributed_prob: f64,
    /// Chiller-style contention-centric host execution (Fig 18b only).
    pub chiller: bool,
    /// Hot-path batching degree, applied to both ends of the switch path:
    /// an executor drains at most this many queued jobs at a time (the
    /// upper bound on its share, `⌈queued ÷ workers⌉`) and sends the
    /// all-hot ones through one switch exchange (group-committed intents,
    /// one fabric frame per switch), and the switch dequeues/executes up to
    /// this many packets per scheduling quantum, coalescing their replies
    /// into per-worker frames.
    /// `1` reproduces the unbatched behaviour exactly; the differential
    /// suite in `tests/batching.rs` proves the histories are
    /// invariant-equivalent across batch sizes.
    pub batch_size: u16,
    /// Records per sealed WAL segment (clamped to ≥ 1).
    /// Smaller segments seal — and checksum — more eagerly; larger ones
    /// amortise the encode.
    pub wal_segment_records: usize,
    /// Fuzzy-checkpoint cadence: when set, [`Cluster::maybe_checkpoint`]
    /// checkpoints any node whose own WAL grew by at least this many records
    /// since its last complete checkpoint. `None` (the default) disables the
    /// automatic cadence; [`Cluster::checkpoint_node`] still works.
    pub checkpoint_interval: Option<u64>,
    /// RNG seed (workers derive their own seeds from it).
    pub seed: u64,
    /// Seeded fault-injection plan (chaos testing). When set, the fabric
    /// routes every unicast send through a [`FaultInjector`], workers use the
    /// plan's short switch timeout, and the switch keeps its data-plane
    /// audit log for the invariant checker.
    pub faults: Option<FaultPlan>,
    /// Per-switch circuit breakers (thresholds in [`p4db_txn::health`]).
    /// Off by default: every health check short-circuits to "healthy" and
    /// the engine behaves byte-for-byte like the breaker-less build.
    pub breaker: bool,
}

impl ClusterConfig {
    /// A small default cluster: the paper's 8×8–20 configuration scaled down
    /// so it can be driven by the slow-motion latency profile on machines
    /// with few cores (see `LatencyConfig::bench_profile`).
    pub fn new(mode: SystemMode, cc: CcScheme) -> Self {
        ClusterConfig {
            num_nodes: 4,
            workers_per_node: 4,
            num_switches: 1,
            mode,
            cc,
            latency: LatencyConfig::bench_profile(),
            switch: SwitchConfig::tofino_defaults(),
            layout: LayoutStrategy::Declustered,
            distributed_prob: 0.2,
            chiller: false,
            batch_size: 16,
            wal_segment_records: DEFAULT_SEGMENT_RECORDS,
            checkpoint_interval: None,
            seed: 42,
            faults: None,
            breaker: false,
        }
    }

    /// Fast functional-test profile: tiny latencies, tiny switch.
    pub fn test_profile(mode: SystemMode, cc: CcScheme) -> Self {
        ClusterConfig {
            num_nodes: 2,
            workers_per_node: 2,
            latency: LatencyConfig::zero(),
            switch: SwitchConfig::tiny(),
            ..Self::new(mode, cc)
        }
    }
}

/// The checker baseline for the current *switch epoch* of one switch.
///
/// A switch epoch starts at offload time and at every recovery event of that
/// switch ([`Cluster::crash_and_recover_switch_at`]): recovery may fold
/// previously in-flight intents into the restored state, so invariant
/// checking replays the audit log only from the epoch start against the
/// epoch's baseline values, and reads WAL records only from the epoch's
/// per-node offsets. In a multi-switch topology every switch keeps its own
/// epoch — crashing one switch moves only that switch's baseline.
#[derive(Clone, Debug)]
pub struct SwitchEpoch {
    /// Value of every offloaded tuple at the epoch start.
    pub baseline: HashMap<TupleId, u64>,
    /// Audit-log length at the epoch start.
    pub audit_start: usize,
    /// Per-node WAL lengths at the epoch start.
    pub wal_start: Vec<usize>,
}

/// What [`Cluster::crash_and_recover_node`] did and found.
#[derive(Clone, Debug)]
pub struct NodeRecoveryReport {
    pub node: NodeId,
    /// Total WAL records replayed (across all coordinators' logs).
    pub wal_records: usize,
    /// Tuples of the crashed node's partition restored from the logs.
    pub restored_tuples: usize,
    /// Tuples whose recovered value disagreed with the pre-crash live value
    /// — must be empty; anything here is a durability bug.
    pub divergences: Vec<(TupleId, u64, u64)>,
    /// Tuples written by more than one coordinator with disagreeing final
    /// images (cross-log ordering unknown — only possible with distributed
    /// transactions). Recovery leaves these tuples at their live value.
    pub ambiguous: usize,
    /// Rows present in a log but absent from the live table (undone inserts;
    /// skipped rather than resurrected).
    pub missing_rows: usize,
    /// Set when a serialised log failed to parse cleanly.
    pub codec_error: Option<String>,
    /// Generation of the complete checkpoint recovery started from, or
    /// `None` for a genesis replay (no usable checkpoint).
    pub from_checkpoint: Option<u64>,
    /// Rows loaded from the checkpoint before tail replay.
    pub checkpoint_rows: usize,
    /// WAL records actually replayed — the per-coordinator suffixes past the
    /// checkpoint's start fences, or everything (= `wal_records`) for a
    /// genesis replay.
    pub tail_records: usize,
}

/// What [`Cluster::crash_and_recover_switch`] did and found.
#[derive(Clone, Debug)]
pub struct SwitchRecoveryReport {
    /// The raw log-replay outcome (completed / in-flight counts).
    pub outcome: SwitchRecoveryOutcome,
    /// Tuples written back into register memory.
    pub restored_tuples: usize,
    /// Whether the hot set was re-offloaded into fresh register slots (and
    /// the replicated hot-set index swapped cluster-wide).
    pub reoffloaded: bool,
    /// Tuples whose recovered value differs from the pre-crash live value
    /// with no unexecuted in-flight intent explaining the difference — must
    /// be empty.
    pub unexplained_divergences: Vec<(TupleId, u64, u64)>,
}

/// Heartbeat cadence of [`Cluster::supervise_until`]: how long it sleeps
/// between degrade/probe rounds.
const PROBE_INTERVAL: Duration = Duration::from_millis(2);

/// What one [`Cluster::supervise_until`] run observed and did.
#[derive(Clone, Debug, Default)]
pub struct SupervisorReport {
    /// Switches the supervisor stood degraded mode up for, in trip order.
    pub degraded: Vec<SwitchId>,
    /// Switches re-admitted after their half-open probe streak closed.
    pub recovered: Vec<SwitchId>,
    /// Heartbeat probes sent to open switches.
    pub probes_sent: u64,
    /// Probes echoed back within the probe timeout.
    pub probes_answered: u64,
    /// Outcomes of the in-doubt resolution pass run before re-admission.
    pub resolver: ResolverReport,
    /// Whether the deadline elapsed and the supervisor force-healed the
    /// network fault to restore liveness.
    pub deadline_forced: bool,
    /// Total breaker trips observed across the cluster's lifetime.
    pub trips_seen: u64,
}

/// A fully assembled cluster, ready to serve sessions and run measurements.
pub struct Cluster {
    config: ClusterConfig,
    workload: Arc<dyn Workload>,
    shared: Arc<EngineShared>,
    partition_map: PartitionMap,
    /// Offload-time initial values of the full hot set, captured once at
    /// build time (the conservation checker's run-wide reference).
    initial_values: HashMap<TupleId, u64>,
    /// Per-switch offload snapshot: the values each switch's registers held
    /// at the start of its current epoch. Captured at offload time and
    /// *recaptured on every recovery / re-offload* of that switch, so
    /// recovery never replays against a stale placement map.
    offload_snapshots: Vec<HashMap<TupleId, u64>>,
    /// Declared before `switches` so the executors — the threads that run
    /// the switch pipelines when they send to them — drain and stop while
    /// the switches are still alive (struct fields drop in declaration
    /// order).
    pool: SubmissionPool,
    /// One per switch. A switch has no thread: its pipeline runs on the
    /// threads that deliver to it, and dropping its handle detaches it.
    switches: Vec<SwitchHandle>,
    control_planes: Vec<ControlPlane>,
    offloaded: usize,
    hot_total: usize,
    epochs: Vec<SwitchEpoch>,
}

impl Cluster {
    /// Starts a fluent [`crate::ClusterBuilder`] for this workload.
    pub fn builder(workload: Arc<dyn Workload>) -> crate::ClusterBuilder {
        crate::ClusterBuilder::new(workload)
    }

    /// Builds the cluster: creates and loads every node's partition, detects
    /// and offloads the hot set under the configured layout strategy, starts
    /// the switch, wires up the engine and spawns the submission pool.
    ///
    /// # Panics
    /// Panics on an invalid configuration; see [`Cluster::try_build`] for
    /// the error-reporting variant.
    pub fn build(config: ClusterConfig, workload: Arc<dyn Workload>) -> Self {
        Self::try_build(config, workload).expect("failed to build cluster")
    }

    /// Builds the cluster, reporting invalid configurations and worker-id
    /// exhaustion as structured errors instead of panicking.
    pub fn try_build(mut config: ClusterConfig, workload: Arc<dyn Workload>) -> Result<Self> {
        if config.num_nodes == 0 || config.workers_per_node == 0 {
            return Err(Error::InvalidConfig("cluster needs nodes and workers".into()));
        }
        if config.num_switches == 0 {
            return Err(Error::InvalidConfig("cluster needs at least one switch (.switches(n) with n >= 1)".into()));
        }
        // Fault injection needs the data-plane audit log as ground truth for
        // the invariant checker, whatever switch profile was selected.
        if config.faults.is_some() {
            config.switch.audit_data_plane = true;
        }
        // The cluster-level batching knobs are authoritative: the switch
        // engine and the executor pool always agree on the batching degree.
        config.switch.batch_size = config.batch_size.max(1);
        config.switch.validate().map_err(Error::InvalidConfig)?;

        // --- Host storage ----------------------------------------------------
        let nodes: Vec<Arc<NodeStorage>> = (0..config.num_nodes)
            .map(|n| {
                let storage = NodeStorage::with_shards_and_segments(
                    NodeId(n),
                    workload.tables(),
                    DEFAULT_TABLE_SHARDS,
                    config.wal_segment_records,
                );
                workload.load_node(&storage, config.num_nodes);
                Arc::new(storage)
            })
            .collect();

        // --- Hot set detection + declustered layout --------------------------
        let mut rng = FastRng::new(config.seed ^ 0xFEED);
        let hot_tuples = workload.hot_tuples(config.num_nodes);
        let hot_total = hot_tuples.len();
        let initial_values: HashMap<TupleId, u64> = hot_tuples.iter().map(|h| (h.tuple, h.initial)).collect();
        let traces = workload.layout_traces(config.num_nodes, &mut rng);
        let planner =
            LayoutPlanner::new(config.switch.num_stages, config.switch.arrays_per_stage, config.switch.slots_per_array);
        // Very large hot sets (Fig 17) skip graph construction.
        let strategy = if matches!(config.layout, LayoutStrategy::Declustered) && hot_tuples.len() > 20_000 {
            LayoutStrategy::Hashed
        } else {
            config.layout
        };
        let num_switches = config.num_switches as usize;
        let per_switch_slots = config.switch.total_slots() as usize;
        let aggregate_slots = per_switch_slots.saturating_mul(num_switches);
        // A single switch keeps the documented Fig-17 semantics: a hot set
        // larger than the register file is silently capped. The multi-switch
        // assignment pass has no partial-offload notion, so there an
        // oversized hot set is a configuration error rather than a cap.
        if num_switches > 1 && hot_total > aggregate_slots {
            return Err(Error::InvalidConfig(format!(
                "hot set of {hot_total} tuples exceeds the aggregate register capacity of {num_switches} \
                 switches ({aggregate_slots} cells); shrink the hot set, deepen the arrays or add switches"
            )));
        }
        let offload_candidates: Vec<TupleId> = hot_tuples.iter().map(|h| h.tuple).take(aggregate_slots).collect();
        // Partition the candidates over the switches. The balanced capacity
        // (rather than the full per-switch register file) forces the
        // assignment to spread load: with slack capacity the co-access
        // heuristic's optimum is "everything on one switch".
        let assignment: Vec<Vec<TupleId>> = if num_switches > 1 {
            let capacity = offload_candidates.len().div_ceil(num_switches).max(1);
            assign_tuples_to_switches(&offload_candidates, &traces, num_switches, capacity, config.seed)
        } else {
            vec![offload_candidates.clone()]
        };

        // --- Switches --------------------------------------------------------
        // One register memory, control plane and (below) data-plane engine
        // per switch; the switches share nothing but the fabric.
        let hot_meta: HashMap<TupleId, (usize, u64)> =
            hot_tuples.iter().map(|h| (h.tuple, (h.byte_width, h.initial))).collect();
        let mut memories = Vec::with_capacity(num_switches);
        let mut control_planes = Vec::with_capacity(num_switches);
        let mut offloaded = 0usize;
        for tuples in &assignment {
            let memory = Arc::new(RegisterMemory::new(config.switch));
            let mut control_plane = ControlPlane::new(config.switch, Arc::clone(&memory));
            let layout = planner.plan(tuples, &traces, strategy);
            if config.mode == SystemMode::P4db {
                for &tuple in tuples {
                    let Some(at) = layout.get(tuple) else { continue };
                    let (byte_width, initial) = hot_meta.get(&tuple).copied().unwrap_or((8, 0));
                    if control_plane.offload_into(tuple, at.stage, at.array, byte_width, initial).is_ok() {
                        offloaded += 1;
                    }
                }
            }
            memories.push(memory);
            control_planes.push(control_plane);
        }

        let latency = LatencyModel::new(config.latency);
        let fabric = match &config.faults {
            Some(plan) => Fabric::with_faults(latency.clone(), Arc::new(FaultInjector::new(plan))),
            None => Fabric::new(latency.clone()),
        };
        let switches: Vec<SwitchHandle> = memories
            .into_iter()
            .enumerate()
            .map(|(s, memory)| start_switch_with_id(SwitchId(s as u16), config.switch, memory, fabric.clone()))
            .collect();

        // --- Engine ----------------------------------------------------------
        let hot_index = match config.mode {
            SystemMode::P4db => HotSetIndex::from_control_planes(
                control_planes.iter().enumerate().map(|(s, cp)| (SwitchId(s as u16), cp)),
            ),
            // The LM-Switch and Chiller baselines need hot-tuple *identity*
            // even though the data stays on the nodes.
            SystemMode::LmSwitch | SystemMode::NoSwitch => HotSetIndex::from_tuples(hot_tuples.iter().map(|h| h.tuple)),
        };
        let engine_config = EngineConfig {
            chiller: config.chiller,
            switch_timeout: config.faults.as_ref().map(|plan| plan.switch_timeout),
            ..EngineConfig::new(config.mode, config.cc, config.switch)
        };
        let shared = Arc::new(EngineShared {
            nodes,
            latency,
            fabric,
            hot_index: HotIndexCell::new(hot_index),
            config: engine_config,
            mvcc: p4db_txn::MvccState::new(),
            health: SwitchHealth::new(num_switches, config.num_nodes as usize, config.breaker),
        });

        // --- Submission pool --------------------------------------------------
        let pool = SubmissionPool::spawn(&shared, &config)?;
        let partition_map = PartitionMap::new(Arc::clone(&workload), config.num_nodes);

        let epochs: Vec<SwitchEpoch> = control_planes
            .iter()
            .map(|cp| SwitchEpoch {
                baseline: cp.snapshot().into_iter().collect(),
                audit_start: 0,
                wal_start: vec![0; config.num_nodes as usize],
            })
            .collect();
        let offload_snapshots: Vec<HashMap<TupleId, u64>> = epochs.iter().map(|e| e.baseline.clone()).collect();
        Ok(Cluster {
            config,
            workload,
            shared,
            partition_map,
            initial_values,
            offload_snapshots,
            pool,
            switches,
            control_planes,
            offloaded,
            hot_total,
            epochs,
        })
    }

    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    pub fn shared(&self) -> &Arc<EngineShared> {
        &self.shared
    }

    pub fn workload_name(&self) -> String {
        self.workload.name()
    }

    /// The workload's partitioning scheme bound to this cluster's size, used
    /// to resolve [`p4db_txn::Txn`] builders into placed requests.
    pub fn partition_map(&self) -> PartitionMap {
        self.partition_map.clone()
    }

    /// Opens a client session coordinated by `node`. Sessions are cheap and
    /// independent; open as many as needed and move them across threads.
    pub fn session(&self, node: NodeId) -> Result<Session> {
        let submit = self.pool.queue(node).ok_or(Error::UnknownNode(node))?.clone();
        Ok(Session::new(node, submit, self.partition_map.clone(), Arc::clone(&self.shared)))
    }

    /// Number of hot tuples actually offloaded to the switch (may be smaller
    /// than the hot set when the switch capacity is exceeded, Fig 17).
    pub fn offloaded_tuples(&self) -> usize {
        self.offloaded
    }

    /// Size of the workload-defined hot set.
    pub fn hot_set_size(&self) -> usize {
        self.hot_total
    }

    /// Number of switches in the topology.
    pub fn num_switches(&self) -> usize {
        self.switches.len()
    }

    /// Data-plane statistics summed over every switch of the topology.
    pub fn switch_stats(&self) -> SwitchStatsSnapshot {
        let mut merged = SwitchStatsSnapshot::default();
        for handle in &self.switches {
            let s = handle.stats();
            merged.txns_executed += s.txns_executed;
            merged.single_pass += s.single_pass;
            merged.multi_pass += s.multi_pass;
            merged.passes += s.passes;
            merged.recirc_waiting += s.recirc_waiting;
            merged.recirc_owner += s.recirc_owner;
            merged.lm_requests += s.lm_requests;
            merged.lm_denied += s.lm_denied;
            merged.multicasts += s.multicasts;
        }
        merged
    }

    /// Data-plane statistics of one switch.
    ///
    /// # Panics
    /// Panics when `switch` is outside the topology.
    pub fn switch_stats_at(&self, switch: SwitchId) -> SwitchStatsSnapshot {
        self.switches[switch.index()].stats()
    }

    /// The control plane of one switch.
    ///
    /// # Panics
    /// Panics when `switch` is outside the topology.
    pub fn control_plane_at(&self, switch: SwitchId) -> &ControlPlane {
        &self.control_planes[switch.index()]
    }

    /// Current switch-side value of an offloaded tuple, whichever switch
    /// owns it (placement maps are disjoint across switches).
    pub fn switch_value(&self, tuple: TupleId) -> Option<u64> {
        self.control_planes.iter().find_map(|cp| cp.read_tuple(tuple))
    }

    /// Offload-time initial values of the full hot set, captured once at
    /// build time — the conservation checker's run-wide reference.
    pub fn offload_snapshot(&self) -> &HashMap<TupleId, u64> {
        &self.initial_values
    }

    /// One switch's offload snapshot: the values its registers held at the
    /// start of its current epoch. Recaptured (never stale) on every
    /// recovery / re-offload of that switch; recovery replays the WAL suffix
    /// of the epoch against exactly this baseline.
    ///
    /// # Panics
    /// Panics when `switch` is outside the topology.
    pub fn offload_snapshot_at(&self, switch: SwitchId) -> &HashMap<TupleId, u64> {
        &self.offload_snapshots[switch.index()]
    }

    // --- Chaos-testing surface --------------------------------------------

    /// The recorded network fault trace (empty without fault injection).
    pub fn fault_trace(&self) -> Vec<FaultEvent> {
        self.shared.fabric.fault_trace()
    }

    /// Number of network faults injected so far.
    pub fn faults_injected(&self) -> u64 {
        self.shared.fabric.faults_injected()
    }

    /// Delivers every message the fault injector is still holding back, so
    /// reordered messages do not retroactively become drops. Call between
    /// chaos waves.
    pub fn flush_network(&self) {
        self.shared.fabric.flush_faults();
    }

    /// The data-plane audit log of one switch (`(TxnId, GID)` in serial
    /// execution order). Empty unless the switch profile enables
    /// `audit_data_plane` (the test profile and every fault-injection
    /// cluster do). GIDs are per-switch serial, so there is no merged
    /// multi-switch audit.
    ///
    /// # Panics
    /// Panics when `switch` is outside the topology.
    pub fn switch_audit_at(&self, switch: SwitchId) -> Vec<(TxnId, GlobalTxnId)> {
        self.switches[switch.index()].audit_log()
    }

    /// The checker baseline of one switch's current epoch.
    ///
    /// # Panics
    /// Panics when `switch` is outside the topology.
    pub fn switch_epoch_at(&self, switch: SwitchId) -> &SwitchEpoch {
        &self.epochs[switch.index()]
    }

    /// Waits until every switch has gone quiet: no execution progress across
    /// several consecutive polls (so a pipeline still running on a briefly
    /// descheduled sender's thread is not mistaken for silence) and no
    /// held-back messages. Flushing the network delivers the held-back
    /// messages, so their pipeline work runs on this thread. Returns `false` if a switch is still
    /// moving when `timeout` expires. Call after the chaos drivers stopped
    /// submitting (flushes the network first so stranded reordered packets
    /// get executed rather than lost).
    pub fn quiesce_switch(&self, timeout: Duration) -> bool {
        let executed = || self.switches.iter().map(|s| s.executed_count()).sum::<u64>();
        let deadline = Instant::now() + timeout;
        let mut last = executed();
        let mut stable_polls = 0;
        loop {
            // Flushing inside the loop: a message held back *during* the
            // drain (e.g. the reply to a just-flushed request) is released
            // on the next poll rather than left stranded.
            self.flush_network();
            std::thread::sleep(Duration::from_millis(5));
            let now = executed();
            if now == last {
                stable_polls += 1;
                if stable_polls >= 4 {
                    return true;
                }
            } else {
                stable_polls = 0;
                last = now;
            }
            if Instant::now() >= deadline {
                return false;
            }
        }
    }

    /// Round-trips one node's log through its segment bytes — the crash
    /// model is that only the serialised form survives. Returns the decoded
    /// log plus the torn-tail note, if the tail was torn. Interior corruption
    /// (intact records after the failure) is a hard error.
    fn roundtrip_wal(&self, storage: &NodeStorage) -> Result<(Wal, Option<String>)> {
        let blobs = storage.wal().serialize_segments();
        let views: Vec<&[u8]> = blobs.iter().map(|b| b.as_slice()).collect();
        let (wal, torn) = Wal::deserialize_segments(&views, self.config.wal_segment_records.max(1))
            .map_err(|e| Error::InvalidConfig(format!("WAL round-trip failed during recovery: {e}")))?;
        Ok((wal, torn.map(|t| t.to_string())))
    }

    /// Takes a fuzzy checkpoint of one node's partition and installs it in
    /// that node's [`p4db_storage::CheckpointStore`]: per-coordinator WAL
    /// fences are captured first, then every shard of every table is scanned
    /// under its own read latch — no global pause, concurrent traffic keeps
    /// running. Returns the generation number.
    pub fn checkpoint_node(&self, node: NodeId) -> Result<u64> {
        if node.index() >= self.shared.num_nodes() {
            return Err(Error::UnknownNode(node));
        }
        let storage = self.shared.node(node);
        let wals: Vec<&Wal> = self.shared.nodes.iter().map(|n| n.wal()).collect();
        let generation = storage.checkpoints().begin_generation();
        let blob = take_fuzzy_checkpoint(storage, &wals, generation);
        storage.checkpoints().install(blob);
        Ok(generation)
    }

    /// Checkpoints every node whose own WAL grew by at least the configured
    /// [`ClusterConfig::checkpoint_interval`] since its last complete
    /// checkpoint (all records, for a node that never checkpointed). No-op
    /// without an interval. Returns how many checkpoints were taken.
    pub fn maybe_checkpoint(&self) -> usize {
        let Some(interval) = self.config.checkpoint_interval else {
            return 0;
        };
        let mut taken = 0;
        for storage in self.shared.nodes.iter() {
            let node = storage.node();
            let own = storage.wal().len() as u64;
            let since = match storage.checkpoints().latest_complete() {
                Some(c) => own.saturating_sub(c.start_fence.get(node.index()).copied().unwrap_or(0)),
                None => own,
            };
            if since >= interval.max(1) && self.checkpoint_node(node).is_ok() {
                taken += 1;
            }
        }
        taken
    }

    /// The version-GC low-watermark: the oldest snapshot timestamp any
    /// active read-only transaction may still read, or the commit clock's
    /// stable timestamp when no reader is active. No version at or above
    /// this timestamp is ever reclaimed.
    pub fn low_watermark(&self) -> u64 {
        self.shared.mvcc.low_watermark()
    }

    /// Sweeps every node's row store and folds each row's displaced
    /// versions at or below the cluster [`Cluster::low_watermark`] into its
    /// base (commits already fold what they displace) — one shard latch at a
    /// time, concurrent traffic keeps running, no global pause. Returns the
    /// number of version entries reclaimed.
    pub fn collect_versions(&self) -> usize {
        let watermark = self.low_watermark();
        self.shared.nodes.iter().map(|n| n.collect_versions(watermark)).sum()
    }

    /// Simulates a crash + restart of one database node: the node's volatile
    /// partition state is rebuilt from the *serialised* durability artifacts
    /// (decoding the WAL's segment bytes), compared against the pre-crash
    /// state, and written back.
    ///
    /// With a complete checkpoint available, recovery loads it and replays
    /// only each coordinator's log suffix past the checkpoint's start fence
    /// (fuzzy scans are sound because a transaction's cold writes and its
    /// verdict land in the log as one atomic group — whatever in-progress
    /// value a scan captured, the tail rewrites it); the merged rows are
    /// written back shard-parallel across worker threads. Torn checkpoint
    /// generations decode as errors and are skipped in favour of the
    /// previous complete one; with none, recovery replays from genesis.
    ///
    /// Every coordinator logs its own cold writes, so the crashed node's
    /// tuples are recovered from all logs and filtered to its partition; a
    /// tuple written by several coordinators whose final images disagree has
    /// no recoverable order. It is reported as ambiguous and left as it is —
    /// neither a log image nor a checkpoint row is written back over it, on
    /// either path. Call only while the node's traffic is quiesced.
    pub fn crash_and_recover_node(&self, node: NodeId) -> Result<NodeRecoveryReport> {
        if node.index() >= self.shared.num_nodes() {
            return Err(Error::UnknownNode(node));
        }
        let mut report = NodeRecoveryReport {
            node,
            wal_records: 0,
            restored_tuples: 0,
            divergences: Vec::new(),
            ambiguous: 0,
            missing_rows: 0,
            codec_error: None,
            from_checkpoint: None,
            checkpoint_rows: 0,
            tail_records: 0,
        };
        let storage = self.shared.node(node);
        // Newest *complete* generation — torn blobs fail to decode and are
        // skipped by `latest_complete`, falling back to the previous one.
        let checkpoint = storage.checkpoints().latest_complete();

        // Recover each coordinator's log through the serialised format and
        // keep the images of tuples homed on the crashed node. With a
        // checkpoint, only the suffix past that coordinator's start fence is
        // replayed.
        let mut candidates: HashMap<TupleId, Vec<Value>> = HashMap::new();
        for (n, coordinator) in self.shared.nodes.iter().enumerate() {
            let fence = checkpoint.as_ref().map(|c| c.start_fence.get(n).copied().unwrap_or(0));
            report.wal_records += coordinator.wal().len();
            // Decode straight from the serialised segments. With a fence this
            // is the O(tail) restart path: sealed segments wholly below it
            // are skipped without being decoded.
            let blobs = coordinator.wal().serialize_segments();
            let views: Vec<&[u8]> = blobs.iter().map(|b| b.as_slice()).collect();
            let (records, torn) = decode_segment_tail(&views, fence.unwrap_or(0))
                .map_err(|e| Error::InvalidConfig(format!("WAL tail decode failed during recovery: {e}")))?;
            if let Some(note) = torn {
                report.codec_error = Some(note.to_string());
            }
            report.tail_records += records.len();
            for (tuple, value) in recover_cold_records(&records) {
                if self.partition_map.home(tuple) == Some(node) {
                    candidates.entry(tuple).or_default().push(value);
                }
            }
        }

        // Resolve cross-coordinator disagreements before write-back.
        let mut resolved: HashMap<TupleId, Value> = HashMap::new();
        let mut ambiguous: HashSet<TupleId> = HashSet::new();
        for (tuple, images) in candidates {
            if images.iter().any(|v| *v != images[0]) {
                ambiguous.insert(tuple);
                continue;
            }
            resolved.insert(tuple, images[0]);
        }
        report.ambiguous = ambiguous.len();

        let Some(c) = checkpoint else {
            // Genesis replay: write the log-derived images straight back.
            for (tuple, recovered) in resolved {
                let table = storage.table(tuple.table)?;
                match table.read(tuple.key) {
                    Ok(live) => {
                        if live != recovered {
                            report.divergences.push((tuple, live.switch_word(), recovered.switch_word()));
                        }
                        // The "restart": volatile state is rebuilt from the log.
                        table.write(tuple.key, recovered)?;
                        report.restored_tuples += 1;
                    }
                    // A logged row absent from the live table is an undone
                    // insert; recovery must not resurrect it.
                    Err(_) => report.missing_rows += 1,
                }
            }
            return Ok(report);
        };

        report.from_checkpoint = Some(c.generation);
        report.checkpoint_rows = c.total_rows();
        // Merge per (table, shard) cell: checkpoint rows first, tail images
        // on top (the tail is authoritative for anything written after the
        // fence, including whatever in-progress value the fuzzy scan caught).
        // An ambiguous tuple keeps its live value, as on the genesis path:
        // its checkpoint row predates tail writes whose order is unknown.
        let mut cells: HashMap<(p4db_common::TableId, u32), HashMap<u64, Value>> = HashMap::new();
        for shard_rows in &c.shards {
            let cell = cells.entry((shard_rows.table, shard_rows.shard)).or_default();
            for &(key, value) in &shard_rows.rows {
                if !ambiguous.contains(&TupleId::new(shard_rows.table, key)) {
                    cell.insert(key, value);
                }
            }
        }
        for (tuple, value) in &resolved {
            let shard = storage.table(tuple.table)?.shard_of(tuple.key) as u32;
            cells.entry((tuple.table, shard)).or_default().insert(tuple.key, *value);
        }
        let mut work: Vec<(&p4db_storage::Table, Vec<(u64, Value)>)> = Vec::with_capacity(cells.len());
        for ((table_id, _), rows) in cells {
            work.push((storage.table(table_id)?, rows.into_iter().collect()));
        }

        // Shard-parallel write-back: cells are latch-disjoint, so worker
        // threads restore them concurrently without contending.
        let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(work.len().max(1)).max(1);
        let chunk = work.len().div_ceil(threads).max(1);
        type WorkerPart = (usize, Vec<(TupleId, u64, u64)>, usize);
        let parts: Vec<WorkerPart> = std::thread::scope(|scope| {
            let handles: Vec<_> = work
                .chunks(chunk)
                .map(|cells| {
                    scope.spawn(move || {
                        let mut restored = 0usize;
                        let mut divergences = Vec::new();
                        let mut missing = 0usize;
                        for (table, rows) in cells {
                            for &(key, recovered) in rows {
                                match table.read(key) {
                                    Ok(live) => {
                                        if live != recovered {
                                            divergences.push((
                                                TupleId::new(table.id(), key),
                                                live.switch_word(),
                                                recovered.switch_word(),
                                            ));
                                        }
                                        table.write(key, recovered).expect("row vanished during quiesced recovery");
                                        restored += 1;
                                    }
                                    // Checkpointed or logged but absent live:
                                    // an undone insert — not resurrected.
                                    Err(_) => missing += 1,
                                }
                            }
                        }
                        (restored, divergences, missing)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("recovery worker panicked")).collect()
        });
        for (restored, divergences, missing) in parts {
            report.restored_tuples += restored;
            report.divergences.extend(divergences);
            report.missing_rows += missing;
        }
        Ok(report)
    }

    /// Crashes and recovers **every** switch of the topology in turn (see
    /// [`Cluster::crash_and_recover_switch_at`]) and merges the reports —
    /// the single-switch API, kept byte-compatible for existing callers.
    pub fn crash_and_recover_switch(&mut self, reoffload_seed: Option<u64>) -> Result<SwitchRecoveryReport> {
        let mut merged: Option<SwitchRecoveryReport> = None;
        for s in 0..self.switches.len() {
            let report = self.crash_and_recover_switch_at(SwitchId(s as u16), reoffload_seed)?;
            merged = Some(match merged {
                None => report,
                Some(mut acc) => {
                    acc.outcome.values.extend(report.outcome.values);
                    acc.outcome.completed += report.outcome.completed;
                    acc.outcome.inflight_ordered += report.outcome.inflight_ordered;
                    acc.outcome.inflight_unordered += report.outcome.inflight_unordered;
                    acc.outcome.inconsistencies += report.outcome.inconsistencies;
                    acc.restored_tuples += report.restored_tuples;
                    acc.reoffloaded |= report.reoffloaded;
                    acc.unexplained_divergences.extend(report.unexplained_divergences);
                    acc
                }
            });
        }
        Ok(merged.expect("a cluster has at least one switch"))
    }

    /// Round-trips every node's WAL through the serialised format, slices it
    /// to switch `s`'s current epoch and filters it to the records that
    /// switch owns — a cross-switch transaction logs one intent/result pair
    /// *per switch* under the same TxnId, and ownership filtering is what
    /// keeps each switch's view collision-free — then replays the result
    /// against the switch's offload snapshot. Returns the replay outcome,
    /// the filtered per-node logs (for divergence analysis) and the per-node
    /// *consumed* WAL lengths: intents logged at or below those indices are
    /// folded into the reconstruction (the resolver's fence).
    fn replay_switch_suffix(
        &self,
        s: usize,
        owned: &HashSet<TupleId>,
    ) -> Result<(SwitchRecoveryOutcome, Vec<Wal>, Vec<usize>)> {
        let epoch_wal_start = self.epochs[s].wal_start.clone();
        let mut wals = Vec::with_capacity(self.shared.num_nodes());
        let mut consumed = Vec::with_capacity(self.shared.num_nodes());
        for (n, storage) in self.shared.nodes.iter().enumerate() {
            let (full, torn) = self.roundtrip_wal(storage)?;
            if let Some(note) = torn {
                // Switch recovery replays intent/result pairs and cannot
                // tolerate a truncated log the way node recovery can.
                return Err(Error::InvalidConfig(format!("WAL torn during switch recovery: {note}")));
            }
            consumed.push(full.len());
            let start = epoch_wal_start.get(n).copied().unwrap_or(0);
            let filtered = Wal::new();
            for record in full.records_from(start as u64) {
                let keep = match &record {
                    LogRecord::SwitchIntent { ops, .. } => ops.first().is_some_and(|op| owned.contains(&op.tuple)),
                    LogRecord::SwitchResult { results, .. } => results.first().is_some_and(|(t, _)| owned.contains(t)),
                    _ => false,
                };
                if keep {
                    filtered.append(record);
                }
            }
            wals.push(filtered);
        }
        let wal_refs: Vec<&Wal> = wals.iter().collect();
        let outcome = recover_switch_state(&self.offload_snapshots[s], &wal_refs);
        Ok((outcome, wals, consumed))
    }

    /// Simulates a crash + recovery of **one** switch from the node WALs
    /// (§6.1, §A.3): its register state is lost, rebuilt by replaying the
    /// *serialised* logs of all nodes in GID order (in-flight intents
    /// ordered by data dependencies, Fig 9), and written back — either into
    /// the existing placements, or, with `reoffload_seed`, into **fresh
    /// register slots** chosen in a seeded random order, after which the
    /// rebuilt hot-set index is swapped in cluster-wide (the mid-run
    /// re-offload path).
    ///
    /// Only WAL records owned by this switch (by the tuples they touch) and
    /// only the suffix since this switch's epoch start are replayed, against
    /// the per-switch offload snapshot — other switches' epochs, registers
    /// and traffic are untouched.
    ///
    /// Starts a new [`SwitchEpoch`] *for this switch*: recovery legitimately
    /// applies intents whose packets never reached the switch, so the
    /// checker baseline moves here, and the offload snapshot is recaptured.
    /// Call only while switch traffic is quiesced
    /// ([`Cluster::quiesce_switch`]).
    pub fn crash_and_recover_switch_at(
        &mut self,
        switch: SwitchId,
        reoffload_seed: Option<u64>,
    ) -> Result<SwitchRecoveryReport> {
        let s = switch.index();
        if s >= self.switches.len() {
            return Err(Error::InvalidConfig(format!("no {switch} in a {}-switch topology", self.switches.len())));
        }
        let pre_crash: HashMap<TupleId, u64> = self.control_planes[s].snapshot().into_iter().collect();
        let owned: HashSet<TupleId> = self.control_planes[s].placements().map(|(t, _)| t).collect();
        let (outcome, wals, consumed) = self.replay_switch_suffix(s, &owned)?;
        // Resolver fence: intents at or below the consumed WAL lengths are
        // folded into this reconstruction — in-doubt entries below the fence
        // resolve as committed without querying the switch.
        self.shared.health.set_fence(switch, consumed);

        // Intents without a result record are in-flight as far as the logs
        // are concerned: recovery chooses *a* valid position for them (§A.3
        // — "any order is valid"), which need not be where the live switch
        // actually executed them (if it did at all), so their tuples may
        // legitimately diverge from the pre-crash values — and the
        // difference propagates through any completed transaction that
        // touches the same tuples (its read-dependent writes replay with
        // different operands). Tuples outside that closure must match
        // exactly.
        let mut explained: HashSet<TupleId> = HashSet::new();
        let mut completed_ops: Vec<Vec<TupleId>> = Vec::new();
        for wal in &wals {
            let records = wal.records();
            let with_result: HashSet<TxnId> = records
                .iter()
                .filter_map(|r| match r {
                    LogRecord::SwitchResult { txn, .. } => Some(*txn),
                    _ => None,
                })
                .collect();
            for record in &records {
                if let LogRecord::SwitchIntent { txn, ops } = record {
                    let tuples: Vec<TupleId> = ops.iter().map(|op| op.tuple).collect();
                    if with_result.contains(txn) {
                        completed_ops.push(tuples);
                    } else {
                        explained.extend(tuples);
                    }
                }
            }
        }
        loop {
            let before = explained.len();
            for tuples in &completed_ops {
                if tuples.iter().any(|t| explained.contains(t)) {
                    explained.extend(tuples.iter().copied());
                }
            }
            if explained.len() == before {
                break;
            }
        }
        let mut unexplained_divergences = Vec::new();
        for (&tuple, &live) in &pre_crash {
            let recovered = outcome.values.get(&tuple).copied().unwrap_or(live);
            if recovered != live && !explained.contains(&tuple) {
                unexplained_divergences.push((tuple, live, recovered));
            }
        }

        // The crash: this switch's register memory is gone. Restore it —
        // into fresh placements when re-offloading. Ownership is stable:
        // recovery never migrates tuples between switches, only reshuffles
        // slots within the crashed one.
        let control_plane = &mut self.control_planes[s];
        let mut original: Vec<(TupleId, p4db_switch::RegisterSlot)> = control_plane.placements().collect();
        // Cell indices are assigned in next_free order, so replaying inserts
        // in slot order reproduces the original placement exactly.
        original.sort_by_key(|&(_, slot)| (slot.stage, slot.array, slot.index));
        let recovered_value = |tuple: TupleId| {
            outcome.values.get(&tuple).copied().unwrap_or_else(|| pre_crash.get(&tuple).copied().unwrap_or(0))
        };
        let swap_index = |planes: &[ControlPlane], shared: &EngineShared| {
            shared.hot_index.swap(Arc::new(HotSetIndex::from_control_planes(
                planes.iter().enumerate().map(|(i, cp)| (SwitchId(i as u16), cp)),
            )));
        };
        let reoffloaded = if let Some(seed) = reoffload_seed {
            let widths: HashMap<TupleId, usize> =
                self.workload.hot_tuples(self.config.num_nodes).into_iter().map(|h| (h.tuple, h.byte_width)).collect();
            control_plane.reset();
            // Seeded shuffle so the new placement differs from the old one.
            let mut order: Vec<TupleId> = original.iter().map(|&(t, _)| t).collect();
            let mut rng = FastRng::new(seed ^ 0x0FF_10AD ^ switch.0 as u64);
            for i in (1..order.len()).rev() {
                order.swap(i, rng.pick(i + 1));
            }
            let mut failure = None;
            for &tuple in &order {
                let width = widths.get(&tuple).copied().unwrap_or(8);
                if let Err(e) = control_plane.offload_anywhere(tuple, width, recovered_value(tuple)) {
                    failure = Some(e);
                    break;
                }
            }
            if let Some(e) = failure {
                // A partial re-offload must not leave workers with a stale
                // index over reshuffled registers: rebuild the *original*
                // placement (which held every tuple before the crash), then
                // report the failure.
                control_plane.reset();
                for &(tuple, slot) in &original {
                    let width = widths.get(&tuple).copied().unwrap_or(8);
                    control_plane.offload_into(tuple, slot.stage, slot.array, width, recovered_value(tuple))?;
                }
                swap_index(&self.control_planes, &self.shared);
                return Err(e);
            }
            swap_index(&self.control_planes, &self.shared);
            true
        } else {
            control_plane.crash_data();
            let restore: Vec<(TupleId, u64)> = original.iter().map(|&(t, _)| (t, recovered_value(t))).collect();
            control_plane.restore(&restore);
            false
        };

        // New epoch for this switch: the restored values are the checker's
        // new baseline, and the offload snapshot is recaptured so the next
        // recovery of this switch replays only the new epoch's WAL suffix
        // against a never-stale baseline.
        self.epochs[s] = SwitchEpoch {
            baseline: self.control_planes[s].snapshot().into_iter().collect(),
            audit_start: self.switches[s].audit_len(),
            wal_start: self.shared.nodes.iter().map(|n| n.wal().len()).collect(),
        };
        self.offload_snapshots[s] = self.epochs[s].baseline.clone();

        Ok(SwitchRecoveryReport {
            restored_tuples: self.epochs[s].baseline.len(),
            outcome,
            reoffloaded,
            unexplained_divergences,
        })
    }

    // --- Self-healing: degraded mode, probes, supervised recovery ----------

    /// The per-switch health state: circuit breakers, degraded flags and the
    /// in-doubt ledger.
    pub fn health(&self) -> &SwitchHealth {
        &self.shared.health
    }

    /// Stands up **degraded mode** for one switch whose breaker has tripped:
    /// reconstructs the switch's authoritative values from the node WALs
    /// (the same epoch-sliced, ownership-filtered replay recovery uses — the
    /// unreachable switch is never involved), writes them into the owning
    /// host rows' switch words, publishes a hot-set index that *excludes*
    /// the switch, and only then raises the degraded flag. From that moment
    /// workers route the switch's tuples through the host 2PL path:
    /// throughput degrades to a floor instead of collapsing to zero.
    ///
    /// The per-node WAL lengths the replay consumed are recorded as the
    /// switch's resolver fence — in-doubt intents logged at or below the
    /// fence are already folded into the reconstruction.
    ///
    /// Safe to call while traffic is live: hot sends to the switch already
    /// fast-fail (breaker open), so no new intents can land past the fence,
    /// and the owned rows see no host writers until the flag flips. Returns
    /// the number of host rows seeded.
    pub fn degrade_switch(&self, switch: SwitchId) -> Result<usize> {
        let s = switch.index();
        if s >= self.switches.len() {
            return Err(Error::InvalidConfig(format!("no {switch} in a {}-switch topology", self.switches.len())));
        }
        let owned: HashSet<TupleId> = self.control_planes[s].placements().map(|(t, _)| t).collect();
        let (outcome, _wals, consumed) = self.replay_switch_suffix(s, &owned)?;
        let mut restored = 0usize;
        for &tuple in &owned {
            let value = outcome
                .values
                .get(&tuple)
                .copied()
                .or_else(|| self.offload_snapshots[s].get(&tuple).copied())
                .unwrap_or(0);
            let Some(home) = self.partition_map.home(tuple) else { continue };
            let Ok(table) = self.shared.node(home).table(tuple.table) else { continue };
            if let Ok(mut live) = table.read(tuple.key) {
                live.set_switch_word(value);
                table.write(tuple.key, live)?;
                restored += 1;
            }
        }
        // Publish the shrunken index *before* raising the flag: a worker
        // that observes the flag (and demotes a stale-index hot op) must be
        // guaranteed the host rows already hold the reconstructed values.
        self.shared.hot_index.swap(Arc::new(HotSetIndex::from_control_planes(
            self.control_planes.iter().enumerate().filter(|&(i, _)| i != s).map(|(i, cp)| (SwitchId(i as u16), cp)),
        )));
        self.shared.health.set_fence(switch, consumed);
        self.shared.health.set_degraded(switch, true);
        Ok(restored)
    }

    /// Re-admits a degraded switch once its half-open probe streak has
    /// earned a close: re-seeds its registers from the owning host rows
    /// (during degraded mode the host rows are the authoritative values — a
    /// WAL switch-replay alone would miss the degraded-era cold commits),
    /// swaps the full hot-set index back in, starts a fresh checker epoch,
    /// heals any lingering targeted network fault, closes the breaker and
    /// lifts the degraded flag. Returns the number of registers re-seeded.
    ///
    /// Call only while switch traffic is quiesced (the supervisor re-admits
    /// after its drivers finish), and resolve the in-doubt ledger first —
    /// while the host rows are still authoritative, so a replayed intent's
    /// effect survives the re-seeding.
    pub fn readmit_switch(&mut self, switch: SwitchId) -> Result<usize> {
        let s = switch.index();
        if s >= self.switches.len() {
            return Err(Error::InvalidConfig(format!("no {switch} in a {}-switch topology", self.switches.len())));
        }
        let placements: Vec<(TupleId, p4db_switch::RegisterSlot)> = self.control_planes[s].placements().collect();
        let mut restore = Vec::with_capacity(placements.len());
        for &(tuple, _) in &placements {
            let value = self
                .partition_map
                .home(tuple)
                .and_then(|home| self.shared.node(home).table(tuple.table).ok())
                .and_then(|table| table.read(tuple.key).ok())
                .map(|v| v.switch_word())
                .or_else(|| self.offload_snapshots[s].get(&tuple).copied())
                .unwrap_or(0);
            restore.push((tuple, value));
        }
        let control_plane = &mut self.control_planes[s];
        control_plane.crash_data();
        control_plane.restore(&restore);
        // The full index goes back into circulation.
        self.shared.hot_index.swap(Arc::new(HotSetIndex::from_control_planes(
            self.control_planes.iter().enumerate().map(|(i, cp)| (SwitchId(i as u16), cp)),
        )));
        // Fresh checker epoch: the re-seeded registers are the new baseline.
        self.epochs[s] = SwitchEpoch {
            baseline: self.control_planes[s].snapshot().into_iter().collect(),
            audit_start: self.switches[s].audit_len(),
            wal_start: self.shared.nodes.iter().map(|n| n.wal().len()).collect(),
        };
        self.offload_snapshots[s] = self.epochs[s].baseline.clone();
        // Open the road back up.
        self.shared.fabric.heal_switch(switch.0);
        self.shared.health.close(switch);
        self.shared.health.set_degraded(switch, false);
        Ok(restore.len())
    }

    /// Sends one heartbeat probe through the fabric (subject to fault
    /// injection, exactly like real traffic) and waits for the echo.
    fn probe_switch(
        &self,
        switch: SwitchId,
        origin: EndpointId,
        mailbox: &Mailbox<SwitchMessage>,
        token: u64,
        timeout: Duration,
    ) -> bool {
        let sent = self.shared.fabric.send(
            origin,
            EndpointId::Switch(switch),
            SwitchMessage::ProbeRequest(ProbeRequest { origin, token }),
        );
        if !sent {
            return false;
        }
        let deadline = Instant::now() + timeout;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            match mailbox.recv_timeout(remaining) {
                RecvOutcome::Msg(env) => match env.payload {
                    SwitchMessage::ProbeReply(r) if r.token == token => return true,
                    // Stale replies from earlier, timed-out probes.
                    _ => continue,
                },
                RecvOutcome::TimedOut | RecvOutcome::Disconnected => return false,
            }
        }
    }

    /// The self-healing supervisor loop. Runs **on the calling thread**
    /// (degrade and re-admission need `&mut Cluster`; driver sessions are
    /// self-contained and run on their own threads) until `drivers_done`
    /// returns true *and* every breaker is closed:
    ///
    /// 1. a tripped breaker stands up degraded mode ([`Cluster::degrade_switch`]),
    /// 2. every open breaker is heartbeat-probed every 2 ms (probe outcomes
    ///    walk the breaker Open → Half-Open → ready-to-close),
    /// 3. once the drivers are done, a ready switch is re-admitted — quiesce,
    ///    resolve the in-doubt ledger while host rows are authoritative,
    ///    then [`Cluster::readmit_switch`].
    ///
    /// Past `deadline` the supervisor force-heals the targeted network fault
    /// (the model's "replace the broken hardware" escape hatch) and gives
    /// the loop one more deadline before giving up; the report records it.
    pub fn supervise_until<F: Fn() -> bool>(
        &mut self,
        drivers_done: F,
        deadline: Duration,
    ) -> Result<SupervisorReport> {
        let origin = crate::session::rogue_endpoint();
        let mailbox = self.shared.fabric.register(origin);
        let probe_timeout = Duration::from_millis(2).max(Duration::from_nanos(8 * self.config.latency.one_way_ns));
        let start = Instant::now();
        let mut report = SupervisorReport::default();
        let mut token = 0u64;
        loop {
            let done = drivers_done();
            for s in 0..self.switches.len() {
                let sid = SwitchId(s as u16);
                if self.shared.health.is_open(sid) && !self.shared.health.is_degraded(sid) {
                    self.degrade_switch(sid)?;
                    report.degraded.push(sid);
                }
            }
            for s in 0..self.switches.len() {
                let sid = SwitchId(s as u16);
                if !self.shared.health.is_open(sid) {
                    continue;
                }
                token += 1;
                report.probes_sent += 1;
                let answered = self.probe_switch(sid, origin, &mailbox, token, probe_timeout);
                if answered {
                    report.probes_answered += 1;
                }
                self.shared.health.probe_outcome(sid, answered);
            }
            if done {
                let ready: Vec<SwitchId> = (0..self.switches.len())
                    .map(|s| SwitchId(s as u16))
                    .filter(|&sid| self.shared.health.is_open(sid) && self.shared.health.ready_to_close(sid))
                    .collect();
                if !ready.is_empty() {
                    self.quiesce_switch(Duration::from_secs(5));
                    let mut session = self.session(NodeId(0))?;
                    report.resolver.merge(&session.resolve_in_doubt()?);
                    for sid in ready {
                        self.readmit_switch(sid)?;
                        report.recovered.push(sid);
                    }
                }
                if (0..self.switches.len()).all(|s| !self.shared.health.is_open(SwitchId(s as u16))) {
                    break;
                }
            }
            if start.elapsed() >= deadline {
                if !report.deadline_forced {
                    report.deadline_forced = true;
                    for s in 0..self.switches.len() {
                        self.shared.fabric.heal_switch(s as u16);
                    }
                } else if start.elapsed() >= deadline * 2 {
                    break;
                }
            }
            std::thread::sleep(PROBE_INTERVAL);
        }
        report.trips_seen = self.shared.health.trips();
        Ok(report)
    }

    /// Runs the workload generators closed-loop for `duration` and returns
    /// the merged statistics. Each node contributes `workers_per_node` driver
    /// threads, each owning a [`Session`] — the measurement exercises exactly
    /// the code path ad-hoc clients use. Can be called repeatedly (data is
    /// *not* reloaded between calls).
    pub fn run_for(&self, duration: Duration) -> RunStats {
        let stop = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::new();
        for node in 0..self.config.num_nodes {
            for wid in 0..self.config.workers_per_node {
                let mut session = self.session(NodeId(node)).expect("driver node exists");
                // The stop signal doubles as the retry-loop cancellation so
                // an aborting transaction cannot drag the measurement past
                // its window.
                session.set_cancel_flag(Arc::clone(&stop));
                let workload = Arc::clone(&self.workload);
                let stop = Arc::clone(&stop);
                let config = self.config.clone();
                let seed =
                    config.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add((node as u64) << 20 | wid as u64);
                handles.push(std::thread::spawn(move || {
                    let ctx = WorkloadCtx::new(config.num_nodes, NodeId(node), config.distributed_prob);
                    let mut rng = FastRng::new(seed);
                    while !stop.load(Ordering::Relaxed) {
                        let req = workload.generate(&ctx, &mut rng);
                        // A transaction that exhausts its retry budget (or a
                        // cluster shutting down) just moves the closed loop
                        // on to the next generated request; the aborts are
                        // already in the session's statistics. A *rejected*
                        // request, however, is a generator bug — fail loudly
                        // instead of silently skewing the workload mix.
                        if let Err(e) = session.execute_request(&req) {
                            assert!(
                                !matches!(e, Error::InvalidTxn(_) | Error::UnknownNode(_)),
                                "workload generator produced an invalid transaction: {e}"
                            );
                        }
                    }
                    session.take_stats()
                }));
            }
        }

        std::thread::sleep(duration);
        stop.store(true, Ordering::Relaxed);
        let worker_stats: Vec<WorkerStats> = handles.into_iter().map(|h| h.join().expect("driver panicked")).collect();
        RunStats::from_workers(worker_stats.iter(), duration)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4db_common::stats::TxnClass;
    use p4db_txn::Txn;
    use p4db_workloads::{SmallBank, SmallBankConfig, Ycsb, YcsbConfig, YcsbMix};

    fn small_ycsb() -> Arc<dyn Workload> {
        Arc::new(Ycsb::new(YcsbConfig { keys_per_node: 2_000, ..YcsbConfig::new(YcsbMix::A) }))
    }

    #[test]
    fn cluster_builds_and_offloads_hot_set_in_p4db_mode() {
        let cluster = Cluster::build(ClusterConfig::test_profile(SystemMode::P4db, CcScheme::NoWait), small_ycsb());
        assert_eq!(cluster.hot_set_size(), 2 * 50);
        assert_eq!(cluster.offloaded_tuples(), 100);
        assert!(cluster.switch_value(TupleId::new(p4db_workloads::ycsb::YCSB_TABLE, 0)).is_some());
    }

    #[test]
    fn no_switch_mode_offloads_nothing() {
        let cluster = Cluster::build(ClusterConfig::test_profile(SystemMode::NoSwitch, CcScheme::NoWait), small_ycsb());
        assert_eq!(cluster.offloaded_tuples(), 0);
    }

    #[test]
    fn builder_resolves_the_same_config_as_the_field_bag() {
        let cluster = Cluster::builder(small_ycsb())
            .nodes(3)
            .workers(1)
            .mode(SystemMode::NoSwitch)
            .cc(CcScheme::WaitDie)
            .distributed_prob(0.4)
            .seed(7)
            .test_latencies()
            .build();
        let config = cluster.config();
        assert_eq!(config.num_nodes, 3);
        assert_eq!(config.workers_per_node, 1);
        assert_eq!(config.mode, SystemMode::NoSwitch);
        assert_eq!(config.cc, CcScheme::WaitDie);
        assert_eq!(config.distributed_prob, 0.4);
        assert_eq!(config.seed, 7);
        assert_eq!(config.latency, LatencyConfig::zero());
    }

    #[test]
    fn batching_knobs_propagate_to_switch_and_engine() {
        let cluster = Cluster::builder(small_ycsb()).test_profile().batch_size(8).build();
        assert_eq!(cluster.config().batch_size, 8);
        assert_eq!(cluster.config().switch.batch_size, 8);
        // batch_size(0) clamps to the unbatched behaviour instead of failing
        // validation.
        let unbatched = Cluster::builder(small_ycsb()).test_profile().batch_size(0).build();
        assert_eq!(unbatched.config().batch_size, 1);
        let stats = unbatched.run_for(Duration::from_millis(100));
        assert!(stats.merged.committed_total() > 0);
    }

    #[test]
    fn storage_knobs_propagate_to_node_storage_and_engine() {
        // Every table of every node is split into DEFAULT_TABLE_SHARDS shards.
        let cluster = Cluster::builder(small_ycsb()).test_profile().build();
        for storage in cluster.shared().nodes.iter() {
            for table in storage.tables() {
                assert_eq!(table.shard_count(), DEFAULT_TABLE_SHARDS);
            }
        }
        let stats = cluster.run_for(Duration::from_millis(100));
        assert!(stats.merged.committed_total() > 0, "the sharded store serves traffic");
    }

    #[test]
    fn a_fault_plan_sets_the_switch_timeout_and_keeps_the_audit_log() {
        let quiet_switch = SwitchConfig { audit_data_plane: false, ..SwitchConfig::tiny() };
        // Without faults a missing reply means a wedged switch: no in-doubt
        // timeout, and the switch keeps no audit log.
        let plain = Cluster::builder(small_ycsb()).test_profile().switch(quiet_switch).build();
        assert_eq!(plain.shared().config.switch_timeout, None);
        assert!(!plain.config().switch.audit_data_plane);
        // With faults a missing reply is a lost packet: the plan's timeout
        // commits in doubt, and the checker's audit log is on.
        let plan = FaultPlan::quiet(3);
        let faulty =
            Cluster::builder(small_ycsb()).test_profile().switch(quiet_switch).with_faults(plan.clone()).build();
        assert_eq!(faulty.shared().config.switch_timeout, Some(plan.switch_timeout));
        assert!(faulty.config().switch.audit_data_plane);
    }

    #[test]
    fn try_build_reports_invalid_configs_as_errors() {
        match Cluster::builder(small_ycsb()).nodes(0).try_build() {
            Err(err) => assert!(matches!(err, Error::InvalidConfig(_)), "got {err:?}"),
            Ok(_) => panic!("a zero-node cluster must not build"),
        }
    }

    #[test]
    fn run_for_commits_transactions_in_all_modes() {
        for mode in [SystemMode::NoSwitch, SystemMode::LmSwitch, SystemMode::P4db] {
            let cluster = Cluster::build(ClusterConfig::test_profile(mode, CcScheme::NoWait), small_ycsb());
            let stats = cluster.run_for(Duration::from_millis(200));
            assert!(
                stats.merged.committed_total() > 100,
                "{:?} committed only {}",
                mode,
                stats.merged.committed_total()
            );
            if mode == SystemMode::P4db {
                assert!(stats.merged.committed_hot > 0, "P4DB must execute hot transactions on the switch");
                assert!(cluster.switch_stats().txns_executed > 0);
            }
        }
    }

    #[test]
    fn sessions_execute_ad_hoc_transactions() {
        let cluster = Cluster::build(ClusterConfig::test_profile(SystemMode::P4db, CcScheme::NoWait), small_ycsb());
        let mut session = cluster.session(NodeId(0)).unwrap();
        let t = |key| TupleId::new(p4db_workloads::ycsb::YCSB_TABLE, key);

        // Hot tuple (local key 1 on node 0): executed on the switch.
        let hot = session.execute(&Txn::new().add(t(1), 5)).unwrap();
        assert_eq!(hot.class, TxnClass::Hot);
        assert_eq!(hot.results[0], 5);
        assert!(hot.gid.is_some());

        // Cold tuples spanning both nodes: a distributed host transaction.
        let cold = session.execute(&Txn::new().add(t(100), 1).add(t(2_100), 2)).unwrap();
        assert_eq!(cold.class, TxnClass::Cold);
        assert_eq!(cold.results, vec![1, 2]);
        assert_eq!(session.stats().committed_total(), 2);

        // Sessions for unknown nodes are rejected.
        assert!(matches!(cluster.session(NodeId(9)), Err(Error::UnknownNode(_))));
    }

    #[test]
    fn open_loop_submission_overlaps_transactions() {
        let cluster = Cluster::build(ClusterConfig::test_profile(SystemMode::P4db, CcScheme::NoWait), small_ycsb());
        let mut session = cluster.session(NodeId(1)).unwrap();
        let t = |key| TupleId::new(p4db_workloads::ycsb::YCSB_TABLE, key);
        let tickets: Vec<_> =
            (0..32).map(|i| session.submit(&Txn::new().add(t(2_000 + 100 + i), 1)).unwrap()).collect();
        for ticket in tickets {
            let outcome = session.wait(ticket).unwrap();
            assert_eq!(outcome.results[0], 1);
        }
        assert_eq!(session.stats().committed_total(), 32);
    }

    #[test]
    fn session_rejects_malformed_requests() {
        let cluster = Cluster::build(ClusterConfig::test_profile(SystemMode::P4db, CcScheme::NoWait), small_ycsb());
        let mut session = cluster.session(NodeId(0)).unwrap();
        let t = |key| TupleId::new(p4db_workloads::ycsb::YCSB_TABLE, key);

        // A read-dependency crossing the hot/cold split.
        let split = Txn::new().read(t(100)).add(t(1), 0).operand_from(0);
        assert!(matches!(session.execute(&split), Err(Error::InvalidTxn(_))));

        // An explicit home outside the cluster.
        use p4db_txn::{OpKind, TxnOp, TxnRequest};
        let bad = TxnRequest::new(vec![TxnOp::new(t(0), OpKind::Read, NodeId(7))]);
        assert!(matches!(session.execute_request(&bad), Err(Error::UnknownNode(_))));
    }

    #[test]
    fn node_crash_recovery_round_trips_the_serialised_wal() {
        let workload: Arc<dyn Workload> =
            Arc::new(SmallBank::new(SmallBankConfig { customers_per_node: 2_000, ..SmallBankConfig::default() }));
        let mut config = ClusterConfig::test_profile(SystemMode::P4db, CcScheme::NoWait);
        config.distributed_prob = 0.0; // single-partition traffic: unambiguous recovery
        let cluster = Cluster::build(config, workload);
        let _ = cluster.run_for(Duration::from_millis(150));
        assert!(cluster.quiesce_switch(Duration::from_secs(5)));
        let report = cluster.crash_and_recover_node(NodeId(0)).unwrap();
        assert!(report.wal_records > 0, "the run must have logged something");
        assert!(report.restored_tuples > 0);
        assert!(report.divergences.is_empty(), "recovered state diverges: {:?}", report.divergences);
        assert_eq!(report.ambiguous, 0);
        assert!(report.codec_error.is_none(), "{:?}", report.codec_error);
        // Recovering an unknown node is a structured error.
        assert!(matches!(cluster.crash_and_recover_node(NodeId(9)), Err(Error::UnknownNode(_))));
    }

    #[test]
    fn switch_crash_recovery_restores_registers_and_reoffload_swaps_the_index() {
        let workload: Arc<dyn Workload> =
            Arc::new(SmallBank::new(SmallBankConfig { customers_per_node: 2_000, ..SmallBankConfig::default() }));
        let mut cluster = Cluster::build(ClusterConfig::test_profile(SystemMode::P4db, CcScheme::NoWait), workload);
        let _ = cluster.run_for(Duration::from_millis(150));
        assert!(cluster.quiesce_switch(Duration::from_secs(5)));

        let live: Vec<(TupleId, u64)> = cluster.control_plane_at(SwitchId(0)).snapshot();
        let old_slots: HashMap<TupleId, _> = cluster.shared().hot_index.load().iter().collect();

        // Plain restore first: values come back into the same placements.
        let report = cluster.crash_and_recover_switch(None).unwrap();
        assert!(!report.reoffloaded);
        assert!(report.unexplained_divergences.is_empty(), "{:?}", report.unexplained_divergences);
        assert_eq!(cluster.control_plane_at(SwitchId(0)).snapshot(), live);

        // Re-offload: same values, fresh placements, index swapped.
        let report = cluster.crash_and_recover_switch(Some(7)).unwrap();
        assert!(report.reoffloaded);
        assert!(report.unexplained_divergences.is_empty(), "{:?}", report.unexplained_divergences);
        for (tuple, value) in &live {
            assert_eq!(cluster.switch_value(*tuple), Some(*value), "value of {tuple} lost in re-offload");
        }
        let new_slots: HashMap<TupleId, _> = cluster.shared().hot_index.load().iter().collect();
        assert_eq!(new_slots.len(), old_slots.len());
        assert!(
            old_slots.iter().any(|(t, slot)| new_slots.get(t) != Some(slot)),
            "a seeded re-offload should move at least one tuple"
        );
        // The epoch moved: the checker baseline is the restored state.
        assert_eq!(cluster.switch_epoch_at(SwitchId(0)).audit_start, cluster.switch_audit_at(SwitchId(0)).len());

        // The cluster still serves transactions against the new layout.
        let stats = cluster.run_for(Duration::from_millis(100));
        assert!(stats.merged.committed_total() > 0);
        assert!(stats.merged.committed_hot > 0, "hot path must survive the re-offload");
    }

    #[test]
    fn faulty_cluster_still_commits_and_records_its_fault_trace() {
        use p4db_common::faults::FaultPlan;
        let cluster = Cluster::builder(small_ycsb()).test_profile().with_faults(FaultPlan::seeded(11)).build();
        let stats = cluster.run_for(Duration::from_millis(200));
        assert!(stats.merged.committed_total() > 10, "faults must degrade, not stop, the cluster");
        assert!(cluster.faults_injected() > 0, "the seeded plan should have fired");
        assert!(!cluster.fault_trace().is_empty());
        cluster.flush_network();
        // The audit log was forced on and tracks executions.
        assert!(cluster.quiesce_switch(Duration::from_secs(5)));
        assert_eq!(cluster.switch_audit_at(SwitchId(0)).len() as u64, cluster.switch_stats().txns_executed);
    }

    #[test]
    fn two_switch_cluster_partitions_the_hot_set_and_commits() {
        let cluster = Cluster::builder(small_ycsb()).test_profile().switches(2).build();
        assert_eq!(cluster.num_switches(), 2);
        assert_eq!(cluster.offloaded_tuples(), 100, "the full hot set is offloaded across the topology");
        let index = cluster.shared().hot_index.load();
        for s in 0..2u16 {
            let owned = index.iter_with_owner().filter(|&(_, sw, _)| sw == SwitchId(s)).count();
            assert_eq!(owned, 50, "balanced capacity forces an even split, switch{s} holds {owned}");
            assert_eq!(cluster.control_plane_at(SwitchId(s)).offloaded_tuples(), owned);
        }
        // Every hot tuple is readable through the topology-wide view.
        for (tuple, _) in index.iter() {
            assert!(cluster.switch_value(tuple).is_some(), "{tuple} unreadable");
        }
        let stats = cluster.run_for(Duration::from_millis(200));
        assert!(stats.merged.committed_total() > 100);
        assert!(stats.merged.committed_hot > 0, "hot transactions execute on the switches");
        for s in 0..2u16 {
            assert!(
                cluster.switch_stats_at(SwitchId(s)).txns_executed > 0,
                "switch{s} received no traffic — routing is not per-owner"
            );
        }
    }

    #[test]
    fn zero_switch_topologies_are_invalid_configs() {
        match Cluster::builder(small_ycsb()).test_profile().switches(0).try_build() {
            Err(Error::InvalidConfig(msg)) => assert!(msg.contains("switch"), "{msg}"),
            other => panic!("a zero-switch cluster must not build: {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn multi_switch_hot_set_over_aggregate_capacity_is_an_invalid_config() {
        // 2 switches × 48 cells < 100 hot tuples: the multi-switch splitter
        // rejects the topology instead of silently capping (the cap is the
        // documented single-switch Fig 17 behaviour).
        let tiny = SwitchConfig { slots_per_array: 6, ..SwitchConfig::tiny() };
        assert_eq!(tiny.total_slots(), 48);
        match Cluster::builder(small_ycsb()).test_profile().switch(tiny).switches(2).try_build() {
            Err(Error::InvalidConfig(msg)) => assert!(msg.contains("aggregate"), "{msg}"),
            other => panic!("an oversubscribed multi-switch cluster must not build: {:?}", other.map(|_| ())),
        }
        // The same geometry with one switch keeps the capping semantics.
        let capped = Cluster::builder(small_ycsb()).test_profile().switch(tiny).build();
        assert_eq!(capped.offloaded_tuples(), 48);
    }

    #[test]
    fn per_switch_crash_recovery_touches_only_the_crashed_switch() {
        let workload: Arc<dyn Workload> =
            Arc::new(SmallBank::new(SmallBankConfig { customers_per_node: 2_000, ..SmallBankConfig::default() }));
        let mut cluster = Cluster::builder(workload).test_profile().switches(2).build();
        let _ = cluster.run_for(Duration::from_millis(150));
        assert!(cluster.quiesce_switch(Duration::from_secs(5)));

        let live0 = cluster.control_plane_at(SwitchId(0)).snapshot();
        let live1 = cluster.control_plane_at(SwitchId(1)).snapshot();
        let audit0 = cluster.switch_epoch_at(SwitchId(0)).audit_start;

        // Crash switch 1 only: its values come back, switch 0's epoch and
        // registers are untouched.
        let report = cluster.crash_and_recover_switch_at(SwitchId(1), None).unwrap();
        assert!(!report.reoffloaded);
        assert!(report.unexplained_divergences.is_empty(), "{:?}", report.unexplained_divergences);
        assert_eq!(cluster.control_plane_at(SwitchId(1)).snapshot(), live1);
        assert_eq!(cluster.control_plane_at(SwitchId(0)).snapshot(), live0);
        assert_eq!(cluster.switch_epoch_at(SwitchId(0)).audit_start, audit0, "switch 0's epoch must not move");
        assert_eq!(
            cluster.switch_epoch_at(SwitchId(1)).audit_start,
            cluster.switch_audit_at(SwitchId(1)).len(),
            "switch 1 starts a fresh epoch"
        );
        // Satellite: the crashed switch's offload snapshot was recaptured.
        assert_eq!(
            cluster.offload_snapshot_at(SwitchId(1)),
            &cluster.switch_epoch_at(SwitchId(1)).baseline.clone(),
            "snapshot must equal the new epoch baseline"
        );

        // A seeded re-offload of switch 1 moves placements there only.
        let slots_before0: HashMap<TupleId, _> = cluster.control_plane_at(SwitchId(0)).placements().collect();
        let report = cluster.crash_and_recover_switch_at(SwitchId(1), Some(9)).unwrap();
        assert!(report.reoffloaded);
        assert!(report.unexplained_divergences.is_empty(), "{:?}", report.unexplained_divergences);
        let slots_after0: HashMap<TupleId, _> = cluster.control_plane_at(SwitchId(0)).placements().collect();
        assert_eq!(slots_before0, slots_after0, "switch 0's placements must not move");
        for (tuple, value) in &live1 {
            assert_eq!(cluster.switch_value(*tuple), Some(*value), "value of {tuple} lost in re-offload");
        }
        // Recovering a switch outside the topology is a structured error.
        assert!(matches!(cluster.crash_and_recover_switch_at(SwitchId(7), None), Err(Error::InvalidConfig(_))));

        // The cluster still serves hot traffic on both switches.
        let stats = cluster.run_for(Duration::from_millis(150));
        assert!(stats.merged.committed_hot > 0);
    }

    fn small_smallbank() -> Arc<dyn Workload> {
        Arc::new(SmallBank::new(SmallBankConfig { customers_per_node: 2_000, ..SmallBankConfig::default() }))
    }

    #[test]
    fn durability_knobs_propagate_and_checkpointed_recovery_replays_only_the_tail() {
        let cluster = Cluster::builder(small_smallbank())
            .test_profile()
            .distributed_prob(0.0) // single-partition traffic: unambiguous recovery
            .wal_segment_records(32)
            .checkpoint_interval(64)
            .build();
        for storage in cluster.shared().nodes.iter() {
            assert_eq!(storage.wal().segment_capacity(), 32, "segment knob must reach every node's WAL");
        }
        let _ = cluster.run_for(Duration::from_millis(150));
        assert!(cluster.quiesce_switch(Duration::from_secs(5)));
        assert!(cluster.maybe_checkpoint() > 0, "the run must have crossed the checkpoint interval");
        let _ = cluster.run_for(Duration::from_millis(100));
        assert!(cluster.quiesce_switch(Duration::from_secs(5)));
        let report = cluster.crash_and_recover_node(NodeId(0)).unwrap();
        assert!(report.from_checkpoint.is_some(), "a complete checkpoint must be used");
        assert!(report.checkpoint_rows > 0);
        assert!(
            report.tail_records < report.wal_records,
            "the tail ({}) must be shorter than the full log ({})",
            report.tail_records,
            report.wal_records
        );
        assert!(report.divergences.is_empty(), "checkpoint+tail diverges: {:?}", report.divergences);
        assert_eq!(report.ambiguous, 0);
        assert!(report.codec_error.is_none(), "{:?}", report.codec_error);
    }

    #[test]
    fn torn_checkpoint_generations_fall_back_to_the_previous_complete_one() {
        let cluster = Cluster::builder(small_smallbank()).test_profile().distributed_prob(0.0).build();
        let _ = cluster.run_for(Duration::from_millis(100));
        assert!(cluster.quiesce_switch(Duration::from_secs(5)));
        let first = cluster.checkpoint_node(NodeId(0)).unwrap();
        let _ = cluster.run_for(Duration::from_millis(100));
        assert!(cluster.quiesce_switch(Duration::from_secs(5)));
        let second = cluster.checkpoint_node(NodeId(0)).unwrap();
        assert!(second > first);
        // The crash hit mid-checkpoint-write: the newest blob is torn.
        // Recovery must skip it and use the previous complete generation.
        assert!(cluster.shared().node(NodeId(0)).checkpoints().tear_latest(17));
        let report = cluster.crash_and_recover_node(NodeId(0)).unwrap();
        assert_eq!(report.from_checkpoint, Some(first), "recovery must fall back past the torn generation");
        assert!(report.divergences.is_empty(), "{:?}", report.divergences);
        assert!(report.codec_error.is_none(), "{:?}", report.codec_error);
    }

    #[test]
    fn smallbank_cluster_preserves_non_negative_switch_balances() {
        let workload: Arc<dyn Workload> =
            Arc::new(SmallBank::new(SmallBankConfig { customers_per_node: 2_000, ..SmallBankConfig::default() }));
        let cluster = Cluster::build(ClusterConfig::test_profile(SystemMode::P4db, CcScheme::NoWait), workload);
        let _ = cluster.run_for(Duration::from_millis(200));
        for (tuple, _) in cluster.shared().hot_index.load().iter() {
            let value = cluster.switch_value(tuple).unwrap();
            assert!((value as i64) >= 0, "balance of {tuple} went negative: {value}");
        }
    }
}
