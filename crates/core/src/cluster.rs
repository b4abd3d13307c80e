//! Cluster assembly and the experiment driver.
//!
//! A [`Cluster`] is the full system of the paper's evaluation: `n` database
//! nodes (each with its partition, lock table and WAL), the programmable
//! switch (simulator), the rack fabric with the ½-RTT latency model, the
//! offloaded hot set with its declustered layout, and the per-node executor
//! pool that runs submitted transactions. The cluster is a *database first*:
//! any code can open a [`Session`] and execute ad-hoc
//! transactions; [`Cluster::drive`] is merely the built-in closed-loop
//! client that drives the workload generators through the same session API
//! (see [`crate::driver`]) to produce one data point of one figure, one chaos
//! wave or one test's traffic.

use crate::driver::{Driving, Load};
use crate::lifecycle::SwitchEpoch;
use crate::session::{Session, SubmissionPool};
use p4db_common::faults::{FaultEvent, FaultInjector, FaultPlan};
use p4db_common::rand_util::FastRng;
use p4db_common::stats::RunStats;
use p4db_common::{
    CcScheme, Error, GlobalTxnId, LatencyConfig, NodeId, Result, SwitchId, SystemMode, TupleId, TxnId, Value,
};
use p4db_layout::{assign_tuples_to_switches, LayoutPlanner, LayoutStrategy};
use p4db_net::{Fabric, LatencyModel};
use p4db_storage::{
    decode_segment_tail, recover_cold_records, take_fuzzy_checkpoint, LogRecord, NodeStorage, Wal, WalCodecError,
    DEFAULT_TABLE_SHARDS,
};
use p4db_switch::{
    start_switch_with_id, ControlPlane, RegisterMemory, SwitchConfig, SwitchHandle, SwitchStatsSnapshot,
};
use p4db_txn::{EngineConfig, EngineShared, HotIndexCell, HotSetIndex, SwitchHealth};
use p4db_workloads::{PartitionMap, Workload};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Everything needed to build a cluster for one experiment configuration.
///
/// This is the *resolved* form that [`crate::ClusterBuilder`] produces and
/// [`Cluster::config`] reads back; no public constructor takes one.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    pub num_nodes: u16,
    pub workers_per_node: u16,
    /// Number of programmable switches the hot set is partitioned over.
    /// `1` is the paper's topology and the default; a multi-switch cluster
    /// splits the hot set across switches with the capacity-aware,
    /// co-access-affine assignment of [`p4db_layout::assign_tuples_to_switches`].
    /// `0` is rejected by [`crate::ClusterBuilder::try_build`].
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

/// Decodes one node's log from LSN `from` straight from its serialised
/// segments — the crash model is that only the serialised form survives.
/// Sealed segments wholly below `from` are skipped undecoded, so a read from
/// a fence is O(tail). A torn tail comes back as a note; interior corruption
/// is an error.
pub(crate) fn decode_log(storage: &NodeStorage, from: u64) -> Result<(Vec<LogRecord>, Option<WalCodecError>)> {
    let blobs = storage.wal().serialize_segments();
    let views: Vec<&[u8]> = blobs.iter().map(|b| b.as_slice()).collect();
    decode_segment_tail(&views, from)
        .map_err(|e| Error::InvalidConfig(format!("WAL decode failed during recovery: {e}")))
}

/// A fully assembled cluster, ready to serve sessions and run measurements.
pub struct Cluster {
    pub(crate) config: ClusterConfig,
    pub(crate) workload: Arc<dyn Workload>,
    pub(crate) shared: Arc<EngineShared>,
    pub(crate) partition_map: PartitionMap,
    /// Offload-time initial values of the full hot set, captured once at
    /// build time (the conservation checker's run-wide reference).
    initial_values: HashMap<TupleId, u64>,
    /// Declared before `switches` so the executors — the threads that run
    /// the switch pipelines when they send to them — drain and stop while
    /// the switches are still alive (struct fields drop in declaration
    /// order).
    pool: SubmissionPool,
    /// One per switch. A switch has no thread: its pipeline runs on the
    /// threads that deliver to it, and dropping its handle detaches it.
    pub(crate) switches: Vec<SwitchHandle>,
    pub(crate) control_planes: Vec<ControlPlane>,
    offloaded: usize,
    hot_total: usize,
    /// One per switch, started at offload time and on every recovery or
    /// re-admission of that switch.
    pub(crate) epochs: Vec<SwitchEpoch>,
    /// Drives started on this cluster: the next one's seed salt.
    drives: AtomicU64,
}

impl Cluster {
    /// Starts a fluent [`crate::ClusterBuilder`] for this workload.
    pub fn builder(workload: Arc<dyn Workload>) -> crate::ClusterBuilder {
        crate::ClusterBuilder::new(workload)
    }

    /// Builds the cluster: creates and loads every node's partition, detects
    /// and offloads the hot set under the configured layout strategy, starts
    /// the switch, wires up the engine and spawns the submission pool.
    /// Invalid configurations and worker-id exhaustion are structured errors.
    pub(crate) fn try_build(mut config: ClusterConfig, workload: Arc<dyn Workload>) -> Result<Self> {
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

        let mut cluster = Cluster {
            config,
            workload,
            shared,
            partition_map,
            initial_values,
            pool,
            switches,
            control_planes,
            offloaded,
            hot_total,
            epochs: Vec::new(),
            drives: AtomicU64::new(0),
        };
        cluster.epochs = (0..num_switches).map(|s| cluster.epoch_starting_now(s)).collect();
        Ok(cluster)
    }

    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    pub fn shared(&self) -> &Arc<EngineShared> {
        &self.shared
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
    /// value a scan captured, the tail rewrites it). Torn checkpoint
    /// generations decode as errors and are skipped in favour of the
    /// previous complete one; with none, recovery replays every log from
    /// genesis, which is the same path with no checkpoint rows. Either way
    /// the merged rows are written back shard-parallel across worker threads.
    ///
    /// Every coordinator logs its own cold writes, so the crashed node's
    /// tuples are recovered from all logs and filtered to its partition; a
    /// tuple written by several coordinators whose final images disagree has
    /// no recoverable order. It is reported as ambiguous and left as it is —
    /// neither a log image nor a checkpoint row is written back over it.
    /// Call only while the node's traffic is quiesced.
    pub fn crash_and_recover_node(&self, node: NodeId) -> Result<NodeRecoveryReport> {
        if node.index() >= self.shared.num_nodes() {
            return Err(Error::UnknownNode(node));
        }
        let storage = self.shared.node(node);
        // Newest *complete* generation — torn blobs fail to decode and are
        // skipped by `latest_complete`, falling back to the previous one.
        let checkpoint = storage.checkpoints().latest_complete();
        let mut report = NodeRecoveryReport {
            node,
            wal_records: 0,
            restored_tuples: 0,
            divergences: Vec::new(),
            ambiguous: 0,
            missing_rows: 0,
            codec_error: None,
            from_checkpoint: checkpoint.as_ref().map(|c| c.generation),
            checkpoint_rows: checkpoint.as_ref().map_or(0, |c| c.total_rows()),
            tail_records: 0,
        };

        // Recover each coordinator's log suffix past its checkpoint start
        // fence (all of it without a checkpoint) and keep the images of
        // tuples homed on the crashed node.
        let mut candidates: HashMap<TupleId, Vec<Value>> = HashMap::new();
        for (n, coordinator) in self.shared.nodes.iter().enumerate() {
            let fence = checkpoint.as_ref().map_or(0, |c| c.start_fence.get(n).copied().unwrap_or(0));
            report.wal_records += coordinator.wal().len();
            let (records, torn) = decode_log(coordinator, fence)?;
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

        // Merge per (table, shard) cell: checkpoint rows first, tail images
        // on top (the tail is authoritative for anything written after the
        // fence, including whatever in-progress value the fuzzy scan caught).
        // An ambiguous tuple keeps its live value: its checkpoint row
        // predates tail writes whose order is unknown.
        let mut cells: HashMap<(p4db_common::TableId, u32), HashMap<u64, Value>> = HashMap::new();
        for shard_rows in checkpoint.iter().flat_map(|c| &c.shards) {
            cells.entry((shard_rows.table, shard_rows.shard)).or_default().extend(shard_rows.rows.iter().copied());
        }
        for (tuple, images) in candidates {
            let shard = storage.table(tuple.table)?.shard_of(tuple.key) as u32;
            let cell = cells.entry((tuple.table, shard)).or_default();
            if images.iter().any(|v| *v != images[0]) {
                cell.remove(&tuple.key);
                report.ambiguous += 1;
            } else {
                cell.insert(tuple.key, images[0]);
            }
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

    /// Drives the workload's generators with `load` (see [`crate::driver`])
    /// and returns the merged statistics. Data is *not* reloaded between
    /// drives, and each drive on a cluster draws a new stream.
    pub fn drive(&self, load: Load) -> Result<RunStats> {
        self.start(load).join()
    }

    /// Starts `load` and returns without waiting: poll
    /// [`Driving::is_done`], then [`Driving::join`]. The sessions borrow
    /// nothing, so the caller may take `&mut self` meanwhile (the
    /// supervised chaos wave runs [`Cluster::supervise_until`]).
    pub fn start(&self, load: Load) -> Driving {
        let call = self.drives.fetch_add(1, Ordering::Relaxed);
        Driving::spawn(self, &self.workload, call, load)
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

    /// Drives `n` transactions per session at a window of 1 and checks that
    /// every one settled, at fewer than 3 execution attempts per commit.
    fn drive_n(cluster: &Cluster, n: usize) -> RunStats {
        let stats = cluster.drive(Load::new(crate::Stop::Txns(n))).unwrap();
        let sessions = u64::from(cluster.config().num_nodes) * u64::from(cluster.config().workers_per_node);
        assert_eq!(stats.merged.committed_total() + stats.failed, sessions * n as u64, "every transaction settles");
        assert!(stats.attempts_per_commit() < 3.0, "{:.2} attempts per commit", stats.attempts_per_commit());
        stats
    }

    #[test]
    fn cluster_builds_and_offloads_hot_set_in_p4db_mode() {
        let cluster = Cluster::builder(small_ycsb()).test_profile().build();
        assert_eq!(cluster.hot_set_size(), 2 * 50);
        assert_eq!(cluster.offloaded_tuples(), 100);
        assert!(cluster.switch_value(TupleId::new(p4db_workloads::ycsb::YCSB_TABLE, 0)).is_some());
    }

    #[test]
    fn no_switch_mode_offloads_nothing() {
        let cluster = Cluster::builder(small_ycsb()).test_profile().mode(SystemMode::NoSwitch).build();
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
        drive_n(&unbatched, 50);
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
        drive_n(&cluster, 50);
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
    fn drive_settles_every_transaction_in_all_modes() {
        for mode in [SystemMode::NoSwitch, SystemMode::LmSwitch, SystemMode::P4db] {
            let cluster = Cluster::builder(small_ycsb()).test_profile().mode(mode).build();
            let stats = drive_n(&cluster, 100);
            if mode == SystemMode::P4db {
                assert!(stats.merged.committed_hot > 0, "P4DB must execute hot transactions on the switch");
                assert!(cluster.switch_stats().txns_executed > 0);
            }
        }
    }

    #[test]
    fn sessions_execute_ad_hoc_transactions() {
        let cluster = Cluster::builder(small_ycsb()).test_profile().build();
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
        let cluster = Cluster::builder(small_ycsb()).test_profile().build();
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
        let cluster = Cluster::builder(small_ycsb()).test_profile().build();
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
        // Single-partition traffic: unambiguous recovery.
        let cluster = Cluster::builder(workload).test_profile().distributed_prob(0.0).build();
        drive_n(&cluster, 100);
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
        let mut cluster = Cluster::builder(workload).test_profile().build();
        drive_n(&cluster, 100);
        assert!(cluster.quiesce_switch(Duration::from_secs(5)));

        let live: Vec<(TupleId, u64)> = cluster.control_plane_at(SwitchId(0)).snapshot();
        let old_slots: HashMap<TupleId, _> = cluster.shared().hot_index.load().iter().collect();

        // Plain restore first: values come back into the same placements.
        let report = cluster.crash_and_recover_switch_at(SwitchId(0), None).unwrap();
        assert!(!report.reoffloaded);
        assert!(report.unexplained_divergences.is_empty(), "{:?}", report.unexplained_divergences);
        assert_eq!(cluster.control_plane_at(SwitchId(0)).snapshot(), live);

        // Re-offload: same values, fresh placements, index swapped.
        let report = cluster.crash_and_recover_switch_at(SwitchId(0), Some(7)).unwrap();
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
        let stats = drive_n(&cluster, 50);
        assert!(stats.merged.committed_hot > 0, "hot path must survive the re-offload");
    }

    #[test]
    fn faulty_cluster_still_commits_and_records_its_fault_trace() {
        use p4db_common::faults::FaultPlan;
        let cluster = Cluster::builder(small_ycsb()).test_profile().with_faults(FaultPlan::seeded(11)).build();
        // Faults degrade, not stop, the cluster.
        drive_n(&cluster, 100);
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
            let owned = index.iter().filter(|&(t, _)| index.owner(t) == Some(SwitchId(s))).count();
            assert_eq!(owned, 50, "balanced capacity forces an even split, switch{s} holds {owned}");
            assert_eq!(cluster.control_plane_at(SwitchId(s)).offloaded_tuples(), owned);
        }
        // Every hot tuple is readable through the topology-wide view.
        for (tuple, _) in index.iter() {
            assert!(cluster.switch_value(tuple).is_some(), "{tuple} unreadable");
        }
        let stats = drive_n(&cluster, 100);
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
        drive_n(&cluster, 100);
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
        // The new epoch's baseline is the restored state.
        assert_eq!(cluster.switch_epoch_at(SwitchId(1)).baseline, live1.iter().copied().collect::<HashMap<_, _>>());

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
        let stats = drive_n(&cluster, 50);
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
        drive_n(&cluster, 100);
        assert!(cluster.quiesce_switch(Duration::from_secs(5)));
        assert!(cluster.maybe_checkpoint() > 0, "the run must have crossed the checkpoint interval");
        drive_n(&cluster, 50);
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
        drive_n(&cluster, 50);
        assert!(cluster.quiesce_switch(Duration::from_secs(5)));
        let first = cluster.checkpoint_node(NodeId(0)).unwrap();
        drive_n(&cluster, 50);
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
        let cluster = Cluster::builder(workload).test_profile().build();
        drive_n(&cluster, 100);
        for (tuple, _) in cluster.shared().hot_index.load().iter() {
            let value = cluster.switch_value(tuple).unwrap();
            assert!((value as i64) >= 0, "balance of {tuple} went negative: {value}");
        }
    }
}
