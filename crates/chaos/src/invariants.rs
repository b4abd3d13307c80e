//! Cluster-wide invariant checking: replay the committed history against a
//! shadow single-threaded store and compare it with the live cluster.
//!
//! The checker treats the cluster as a white box and uses three sources of
//! ground truth that the real system also relies on (plus one that only the
//! simulator can provide):
//!
//! 1. **The node WALs** — every switch intent, switch result, cold
//!    before/after image and commit/abort decision (§6.1).
//! 2. **The switch data-plane audit log** — the `(TxnId, GID)` sequence in
//!    true serial execution order (simulator-only oracle, enabled by
//!    [`p4db_switch::SwitchConfig::audit_data_plane`]).
//! 3. **The live state** — register memory and host tables.
//!
//! From these it asserts, per [`check`]:
//!
//! * **serializability equivalence** — replaying the audited execution order
//!   on a shadow store reproduces every logged result *and* the live
//!   register state exactly;
//! * **exactly-once application** — no intent executed twice, nothing
//!   executed without a logged intent, every completed intent executed
//!   exactly once under its logged GID;
//! * **cold durability** — redo/undo replay of every coordinator log matches
//!   the live host tables;
//! * **workload semantics** — SmallBank balance conservation and
//!   non-negativity, TPC-C warehouse-YTD vs. customer-deduction
//!   conservation (with in-doubt, not-yet-applied intents accounted for).

use p4db_common::{GlobalTxnId, NodeId, SwitchId, TupleId, TxnId};
use p4db_core::Cluster;
use p4db_storage::{recover_cold_records, replay_logged_op, LogRecord, LoggedSwitchOp};
use p4db_workloads::smallbank::{CHECKING, SAVINGS};
use p4db_workloads::tpcc::{keys, CUSTOMER, CUSTOMERS_PER_DISTRICT, DISTRICTS_PER_WAREHOUSE, WAREHOUSE};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// One invariant violation. Every variant names enough state to reproduce
/// the investigation; the chaos harness attaches the seed and fault trace.
#[derive(Clone, Debug, PartialEq)]
pub enum Violation {
    /// A live switch register disagrees with the shadow replay.
    SwitchDivergence { tuple: TupleId, live: u64, shadow: u64 },
    /// The switch executed the same intent more than once.
    DoubleExecution { txn: TxnId, times: usize },
    /// The switch executed a transaction no node ever logged an intent for
    /// (the durability protocol logs the intent *before* sending, §6.1).
    ExecutedWithoutIntent { txn: TxnId },
    /// A transaction with a logged result never shows up in the audit log.
    MissingExecution { txn: TxnId },
    /// The GID a node logged differs from the GID the switch assigned.
    GidMismatch { txn: TxnId, logged: GlobalTxnId, executed: GlobalTxnId },
    /// Replaying a transaction does not reproduce its logged result values.
    ResultMismatch { txn: TxnId },
    /// Redo/undo replay of the coordinator logs disagrees with a live host
    /// row.
    ColdDivergence { node: NodeId, tuple: TupleId, live: u64, recovered: u64 },
    /// Loading a node's latest complete checkpoint and replaying only the
    /// WAL suffixes past its start fences disagrees with a live host row —
    /// the fuzzy checkpoint + tail-replay contract is broken.
    CheckpointDivergence { node: NodeId, generation: u64, tuple: TupleId, live: u64, recovered: u64 },
    /// An account balance went negative.
    NegativeBalance { tuple: TupleId, value: u64 },
    /// Total money in the system differs from what the committed history
    /// injected or removed.
    ConservationViolation { expected: i128, actual: i128, context: &'static str },
    /// A committed host transaction moved money in a shape no SmallBank
    /// transaction type can produce.
    IllegalMoneyMovement { txn: TxnId, delta: i128 },
    /// A switch epoch's baseline holds a money tuple the build-time offload
    /// snapshot never captured: its pre-epoch delta has no reference value,
    /// so the conservation equation cannot be formed soundly. (Silently
    /// treating the delta as zero — the old behaviour — would absorb real
    /// pre-epoch money movement.)
    MissingOffloadBaseline { switch: SwitchId, tuple: TupleId },
    /// A row's version chain is out of timestamp order at entry `at`.
    VersionOrder { tuple: TupleId, at: usize },
    /// A version-chain transition (`before` → `after` at commit timestamp
    /// `ts`) that no committed transaction's logged cold writes explain.
    PhantomVersion { tuple: TupleId, ts: u64, before: u64, after: u64 },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::SwitchDivergence { tuple, live, shadow } => {
                write!(f, "switch register {tuple} holds {live}, replay says {shadow}")
            }
            Violation::DoubleExecution { txn, times } => write!(f, "{txn} executed {times} times on the switch"),
            Violation::ExecutedWithoutIntent { txn } => write!(f, "{txn} executed without a logged intent"),
            Violation::MissingExecution { txn } => write!(f, "{txn} has a logged result but never executed"),
            Violation::GidMismatch { txn, logged, executed } => {
                write!(f, "{txn} logged {logged} but executed as {executed}")
            }
            Violation::ResultMismatch { txn } => write!(f, "replaying {txn} does not reproduce its logged results"),
            Violation::ColdDivergence { node, tuple, live, recovered } => {
                write!(f, "{node} row {tuple} holds {live}, log replay says {recovered}")
            }
            Violation::CheckpointDivergence { node, generation, tuple, live, recovered } => {
                write!(f, "{node} row {tuple} holds {live}, checkpoint {generation} + tail replay says {recovered}")
            }
            Violation::NegativeBalance { tuple, value } => {
                write!(f, "balance {tuple} is negative ({value} as i64 = {})", *value as i64)
            }
            Violation::ConservationViolation { expected, actual, context } => {
                write!(f, "{context}: expected total {expected}, found {actual}")
            }
            Violation::IllegalMoneyMovement { txn, delta } => {
                write!(f, "committed {txn} moved a net of {delta} across accounts")
            }
            Violation::MissingOffloadBaseline { switch, tuple } => {
                write!(f, "{switch} epoch baseline holds {tuple}, which the offload snapshot never captured")
            }
            Violation::VersionOrder { tuple, at } => {
                write!(f, "version chain of {tuple} is out of timestamp order at entry {at}")
            }
            Violation::PhantomVersion { tuple, ts, before, after } => {
                write!(f, "version chain of {tuple} holds a transition {before} -> {after} at ts {ts} that no committed transaction explains")
            }
        }
    }
}

/// Workload-specific semantic invariants to check on top of the generic
/// replay and exactly-once checks.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum SemanticChecks {
    /// Generic checks only (YCSB has no cross-tuple semantics).
    None,
    /// Balance conservation + non-negativity over savings/checking.
    SmallBank { initial_balance: u64, max_amount: u64 },
    /// Warehouse YTD must equal the total deducted from customers.
    Tpcc { warehouses: u64, initial_customer_balance: u64 },
}

/// The checker's findings plus the bookkeeping that explains them.
#[derive(Clone, Debug, Default)]
pub struct InvariantReport {
    pub violations: Vec<Violation>,
    /// Switch transactions replayed from the audit log (this epoch).
    pub replayed: usize,
    /// In-doubt intents that did execute (reply lost).
    pub in_doubt_executed: usize,
    /// In-doubt intents that never executed (request lost) — recovery is
    /// responsible for them.
    pub in_doubt_lost: usize,
    /// Constrained switch writes whose predicate failed during replay.
    pub partial_applies: usize,
    /// Cold tuples compared against log replay.
    pub cold_compared: usize,
    /// Nodes holding at least one complete checkpoint generation.
    pub checkpointed_nodes: usize,
    /// Rows compared against checkpoint + tail-replay reconstruction.
    pub checkpoint_compared: usize,
    /// Version-chain entries verified against the committed write history.
    pub version_entries_checked: usize,
    /// In-doubt intents the resolver settled as already durable (below the
    /// recovery fence, or confirmed executed by the switch audit). Filled by
    /// the harness from [`p4db_core::ResolverReport`].
    pub resolved_committed: u64,
    /// In-doubt intents the switch confirmed never executed, re-run as host
    /// transactions by the resolver.
    pub resolved_retried: u64,
    /// In-doubt intents still unsettled after resolution — a clean run must
    /// end with zero.
    pub unresolved: u64,
}

impl InvariantReport {
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.unresolved == 0
    }
}

/// Switch transactions the nodes logged during one switch's current epoch.
struct EpochLog {
    intents: HashMap<TxnId, Vec<LoggedSwitchOp>>,
    results: HashMap<TxnId, (GlobalTxnId, Vec<(TupleId, u64)>)>,
}

/// Materializes one switch's epoch-relative log view: records sliced from
/// *that switch's* epoch start and filtered to the tuples it owns. The
/// ownership filter is what keeps the per-`TxnId` maps collision-free — a
/// cross-switch transaction logs one intent/result pair per owning switch
/// under the same `TxnId`, but within one switch's view each `TxnId` appears
/// at most once (the executor sends at most one sub-transaction per switch).
fn epoch_log(cluster: &Cluster, switch: SwitchId, logs: &[Vec<LogRecord>]) -> EpochLog {
    let epoch = cluster.switch_epoch_at(switch);
    let owned: HashSet<TupleId> = cluster.control_plane_at(switch).placements().map(|(t, _)| t).collect();
    let mut intents = HashMap::new();
    let mut results = HashMap::new();
    for (n, records) in logs.iter().enumerate() {
        let start = epoch.wal_start.get(n).copied().unwrap_or(0).min(records.len());
        for record in &records[start..] {
            match record {
                LogRecord::SwitchIntent { txn, ops } if ops.first().is_some_and(|op| owned.contains(&op.tuple)) => {
                    intents.insert(*txn, ops.clone());
                }
                LogRecord::SwitchResult { txn, gid, results: r }
                    if r.first().is_some_and(|(t, _)| owned.contains(t)) =>
                {
                    results.insert(*txn, (*gid, r.clone()));
                }
                _ => {}
            }
        }
    }
    EpochLog { intents, results }
}

/// Replays one logged transaction on the shadow store through the storage
/// crate's ALU-exact replayer (operand forwarding included). Returns the
/// per-op values and accumulates the money delta over `money_tables`.
fn replay_txn(
    shadow: &mut HashMap<TupleId, u64>,
    ops: &[LoggedSwitchOp],
    money_tables: &[p4db_common::TableId],
    money_delta: &mut i128,
    partial_applies: &mut usize,
) -> Vec<u64> {
    let mut values = Vec::with_capacity(ops.len());
    for op in ops {
        let effect = replay_logged_op(shadow, &values, op);
        if !effect.applied {
            *partial_applies += 1;
        }
        if money_tables.contains(&op.tuple.table) {
            *money_delta += effect.new as i64 as i128 - effect.previous as i64 as i128;
        }
        values.push(effect.value);
    }
    values
}

/// Runs every applicable invariant against the cluster. The caller must have
/// quiesced traffic first ([`Cluster::quiesce_switch`]) — the checker reads
/// logs, audit and live state non-atomically.
pub fn check(cluster: &Cluster, semantics: SemanticChecks) -> InvariantReport {
    let mut report = InvariantReport::default();
    let money_tables: Vec<p4db_common::TableId> = match semantics {
        SemanticChecks::SmallBank { .. } => vec![SAVINGS, CHECKING],
        SemanticChecks::Tpcc { .. } => vec![WAREHOUSE],
        SemanticChecks::None => Vec::new(),
    };

    // Every node's log is decoded once: the WAL holds only segment bytes, so
    // each `records()` call is a full decode, and every pass below reads the
    // same snapshot.
    let node_logs: Vec<Vec<LogRecord>> = cluster.shared().nodes.iter().map(|n| n.wal().records()).collect();

    // The committed history is materialized once per switch: every sub-check
    // reads the same epoch-relative log and audit snapshots. Epochs are
    // per-switch (crashing one switch moves only its baseline), so each
    // switch's history is sliced by its own epoch and replayed against its
    // own registers; the money deltas are then summed across the topology.
    let audit_enabled = cluster.config().switch.audit_data_plane;
    let mut logs = Vec::with_capacity(cluster.num_switches());
    let mut audits: Vec<Vec<(TxnId, GlobalTxnId)>> = Vec::with_capacity(cluster.num_switches());
    let mut switch_money_delta: i128 = 0;
    for s in 0..cluster.num_switches() {
        let switch = SwitchId(s as u16);
        let log = epoch_log(cluster, switch, &node_logs);
        let audit: Vec<(TxnId, GlobalTxnId)> = {
            let full = cluster.switch_audit_at(switch);
            let start = cluster.switch_epoch_at(switch).audit_start.min(full.len());
            full[start..].to_vec()
        };
        if audit_enabled {
            check_switch(cluster, switch, &log, &audit, &mut report, &money_tables, &mut switch_money_delta);
        }
        logs.push(log);
        audits.push(audit);
    }
    let cold_money_delta = check_cold(cluster, &node_logs, &mut report, &money_tables);
    check_checkpoints(cluster, &node_logs, &mut report);
    check_version_chains(cluster, &node_logs, &mut report);

    match semantics {
        SemanticChecks::None => {}
        SemanticChecks::SmallBank { initial_balance, max_amount } => {
            check_smallbank(
                cluster,
                &node_logs,
                audit_enabled,
                &mut report,
                initial_balance,
                max_amount,
                switch_money_delta,
                cold_money_delta,
            );
        }
        SemanticChecks::Tpcc { warehouses, initial_customer_balance } => {
            check_tpcc(cluster, &logs, &audits, audit_enabled, &mut report, warehouses, initial_customer_balance);
        }
    }
    report
}

/// Commit status of every transaction in one coordinator's log, under the
/// rules recovery applies (§A.3): an explicit `Commit`/`Abort` decides, and
/// a logged switch intent pre-commits the transaction.
fn commit_status(records: &[LogRecord]) -> HashMap<TxnId, bool> {
    let mut committed: HashMap<TxnId, bool> = HashMap::new();
    for r in records {
        match r {
            LogRecord::Commit { txn } => {
                committed.insert(*txn, true);
            }
            LogRecord::Abort { txn } => {
                committed.insert(*txn, false);
            }
            LogRecord::SwitchIntent { txn, .. } => {
                committed.entry(*txn).or_insert(true);
            }
            _ => {}
        }
    }
    committed
}

/// Serializability replay + exactly-once accounting for one switch.
#[allow(clippy::too_many_arguments)]
fn check_switch(
    cluster: &Cluster,
    switch: SwitchId,
    log: &EpochLog,
    audit: &[(TxnId, GlobalTxnId)],
    report: &mut InvariantReport,
    money_tables: &[p4db_common::TableId],
    money_delta: &mut i128,
) {
    let epoch = cluster.switch_epoch_at(switch);

    // --- Exactly-once accounting ---------------------------------------
    let mut executed_times: HashMap<TxnId, usize> = HashMap::new();
    let mut executed_gid: HashMap<TxnId, GlobalTxnId> = HashMap::new();
    for (txn, gid) in audit {
        *executed_times.entry(*txn).or_insert(0) += 1;
        executed_gid.insert(*txn, *gid);
    }
    for (&txn, &times) in &executed_times {
        if txn == TxnId(0) {
            continue; // raw clients outside the durability protocol
        }
        if times > 1 {
            report.violations.push(Violation::DoubleExecution { txn, times });
        }
        if !log.intents.contains_key(&txn) {
            report.violations.push(Violation::ExecutedWithoutIntent { txn });
        }
    }
    for (&txn, &(logged_gid, _)) in &log.results {
        match executed_gid.get(&txn) {
            None => report.violations.push(Violation::MissingExecution { txn }),
            Some(&gid) if gid != logged_gid => {
                report.violations.push(Violation::GidMismatch { txn, logged: logged_gid, executed: gid });
            }
            Some(_) => {}
        }
    }
    for &txn in log.intents.keys() {
        if !log.results.contains_key(&txn) {
            if executed_times.contains_key(&txn) {
                report.in_doubt_executed += 1;
            } else {
                report.in_doubt_lost += 1;
            }
        }
    }

    // --- Shadow replay in audited serial order -------------------------
    // Each committed intent is replayed exactly once, at its first audited
    // position: a duplicate execution (retransmission bug) is excluded from
    // the shadow, so its effect on the live registers surfaces as a
    // divergence on top of the DoubleExecution violation.
    let mut shadow = epoch.baseline.clone();
    let mut replayed_txns: HashSet<TxnId> = HashSet::new();
    for (txn, _) in audit {
        if !replayed_txns.insert(*txn) {
            continue;
        }
        let Some(ops) = log.intents.get(txn) else { continue };
        let values = replay_txn(&mut shadow, ops, money_tables, money_delta, &mut report.partial_applies);
        report.replayed += 1;
        if let Some((_, logged)) = log.results.get(txn) {
            let matches = logged.len() == values.len()
                && logged.iter().zip(ops.iter()).all(|((t, _), op)| *t == op.tuple)
                && logged.iter().zip(values.iter()).all(|((_, want), got)| want == got);
            if !matches {
                report.violations.push(Violation::ResultMismatch { txn: *txn });
            }
        }
    }
    for (tuple, live) in cluster.control_plane_at(switch).snapshot() {
        let expected = shadow.get(&tuple).copied().unwrap_or_else(|| epoch.baseline.get(&tuple).copied().unwrap_or(0));
        if live != expected {
            report.violations.push(Violation::SwitchDivergence { tuple, live, shadow: expected });
        }
    }
}

/// Which switch currently owns each offloaded tuple (placement maps are
/// disjoint across switches).
fn switch_owned(cluster: &Cluster) -> HashMap<TupleId, SwitchId> {
    let mut owned = HashMap::new();
    for s in 0..cluster.num_switches() {
        let switch = SwitchId(s as u16);
        for (tuple, _) in cluster.control_plane_at(switch).placements() {
            owned.insert(tuple, switch);
        }
    }
    owned
}

/// Cold durability: redo/undo replay of every coordinator log must match the
/// live host tables. Returns the committed money delta over `money_tables`.
///
/// Tuples a switch currently owns get special treatment, because degraded
/// mode makes their host rows temporarily authoritative: cold writes they
/// accumulated while the switch was out are folded into the re-admission
/// baseline (the registers were re-seeded from the host rows), so counting
/// them again here would double their money movement — records before the
/// owning switch's epoch start are excluded. And post-re-admission the
/// registers are authoritative again while the host row stays a stale
/// degraded-era artifact, so owned tuples are exempt from the host-row
/// divergence comparison (their live state is proven by the switch replay).
fn check_cold(
    cluster: &Cluster,
    node_logs: &[Vec<LogRecord>],
    report: &mut InvariantReport,
    money_tables: &[p4db_common::TableId],
) -> i128 {
    let map = cluster.partition_map();
    let owned = switch_owned(cluster);
    let epochs: Vec<_> = (0..cluster.num_switches()).map(|s| cluster.switch_epoch_at(SwitchId(s as u16))).collect();
    // (home, tuple) -> recovered final images from each coordinator's log.
    let mut candidates: HashMap<(NodeId, TupleId), Vec<u64>> = HashMap::new();
    let mut money_delta: i128 = 0;

    for (n, (storage, records)) in cluster.shared().nodes.iter().zip(node_logs).enumerate() {
        let committed = commit_status(records);
        for (i, r) in records.iter().enumerate() {
            if let LogRecord::ColdWrite { txn, tuple, before, after } = r {
                if committed.get(txn).copied().unwrap_or(false) && money_tables.contains(&tuple.table) {
                    if let Some(&s) = owned.get(tuple) {
                        let fence = epochs[s.index()].wal_start.get(n).copied().unwrap_or(0);
                        if i < fence {
                            continue; // baked into the re-admission baseline
                        }
                    }
                    money_delta += after.switch_word() as i64 as i128 - before.switch_word() as i64 as i128;
                }
            }
        }

        for (tuple, value) in recover_cold_records(records) {
            let home = map.home(tuple).unwrap_or(storage.node());
            candidates.entry((home, tuple)).or_default().push(value.switch_word());
        }
    }

    for ((home, tuple), images) in candidates {
        if owned.contains_key(&tuple) {
            continue; // switch-resident: the register replay is authoritative
        }
        let Ok(table) = cluster.shared().node(home).table(tuple.table) else { continue };
        let Ok(live) = table.read(tuple.key) else {
            // A logged row absent from the live table is an undone insert.
            continue;
        };
        let live = live.switch_word();
        report.cold_compared += 1;
        // With several coordinators the cross-log order is unknown: the live
        // value must match at least one final image. With one log it must
        // match exactly.
        if !images.contains(&live) {
            report.violations.push(Violation::ColdDivergence { node: home, tuple, live, recovered: images[0] });
        }
    }
    money_delta
}

/// Fuzzy-checkpoint durability: for every node holding a complete
/// checkpoint, loading it and overlaying the per-coordinator WAL suffixes
/// past its start fences must reproduce the live host tables — the same
/// contract `check_cold` proves for full genesis replay, but over the
/// checkpoint + tail-replay restart path. Sound even for checkpoints taken
/// mid-traffic: the scans are fuzzy, but a transaction's cold writes land in
/// the log atomically with its verdict, so whatever in-progress value a scan
/// captured is rewritten by the tail.
fn check_checkpoints(cluster: &Cluster, node_logs: &[Vec<LogRecord>], report: &mut InvariantReport) {
    let map = cluster.partition_map();
    let shared = cluster.shared();
    for storage in shared.nodes.iter() {
        let Some(checkpoint) = storage.checkpoints().latest_complete() else { continue };
        report.checkpointed_nodes += 1;
        let node = storage.node();

        // Tail images of the crashed-node partition, per coordinator. With
        // several coordinators the cross-log order is unknown, so (like
        // check_cold) the live value must match at least one image.
        let mut tails: HashMap<TupleId, Vec<u64>> = HashMap::new();
        for (n, records) in node_logs.iter().enumerate() {
            let fence = (checkpoint.start_fence.get(n).copied().unwrap_or(0) as usize).min(records.len());
            for (tuple, value) in recover_cold_records(&records[fence..]) {
                if map.home(tuple) == Some(node) {
                    tails.entry(tuple).or_default().push(value.switch_word());
                }
            }
        }

        // Checkpoint rows first, tail images on top (the tail is
        // authoritative for everything written after the fences).
        let mut expected: HashMap<TupleId, Vec<u64>> = HashMap::new();
        for shard in &checkpoint.shards {
            for &(key, value) in &shard.rows {
                expected.insert(TupleId::new(shard.table, key), vec![value.switch_word()]);
            }
        }
        for (tuple, images) in tails {
            expected.insert(tuple, images);
        }

        for (tuple, images) in expected {
            let Ok(table) = storage.table(tuple.table) else { continue };
            let Ok(live) = table.read(tuple.key) else {
                // Checkpointed or logged but absent live: an undone insert.
                continue;
            };
            let live = live.switch_word();
            report.checkpoint_compared += 1;
            if !images.contains(&live) {
                report.violations.push(Violation::CheckpointDivergence {
                    node,
                    generation: checkpoint.generation,
                    tuple,
                    live,
                    recovered: images[0],
                });
            }
        }
    }
}

/// Pre-epoch switch money delta of every epoch baseline tuple over
/// `money_tables`, relative to the build-time offload snapshot. A baseline
/// tuple the offload snapshot never captured has no reference value and is
/// reported as [`Violation::MissingOffloadBaseline`] instead of being
/// silently counted as a zero delta — the old behaviour, which would absorb
/// real pre-epoch money movement into the conservation equation.
fn pre_epoch_money_delta(
    baselines: &[(SwitchId, &HashMap<TupleId, u64>)],
    offload_snapshot: &HashMap<TupleId, u64>,
    money_tables: &[p4db_common::TableId],
    violations: &mut Vec<Violation>,
) -> i128 {
    let mut delta: i128 = 0;
    for &(switch, baseline) in baselines {
        for (tuple, &value) in baseline {
            if !money_tables.contains(&tuple.table) {
                continue;
            }
            match offload_snapshot.get(tuple) {
                Some(&initial) => delta += value as i64 as i128 - initial as i64 as i128,
                None => violations.push(Violation::MissingOffloadBaseline { switch, tuple: *tuple }),
            }
        }
    }
    delta
}

/// Snapshot-read ground truth: every retained version-chain entry must be
/// explained by exactly one committed transaction's *net* cold-write
/// transition on that tuple (first before-image → last after-image), chain
/// timestamps must be strictly increasing, and every chain grounds its
/// first entry in the row's base — the exact predecessor of the first
/// retained version, however many versions were folded into it.
fn check_version_chains(cluster: &Cluster, node_logs: &[Vec<LogRecord>], report: &mut InvariantReport) {
    let owned = switch_owned(cluster);
    // Net committed transition per (txn, tuple): versions install at commit
    // time, so a transaction's several writes to one tuple collapse into a
    // single chain entry carrying its final image.
    let mut nets: HashMap<(TxnId, TupleId), (u64, u64)> = HashMap::new();
    for records in node_logs {
        let committed = commit_status(records);
        for r in records {
            if let LogRecord::ColdWrite { txn, tuple, before, after } = r {
                if committed.get(txn).copied().unwrap_or(false) {
                    nets.entry((*txn, *tuple))
                        .and_modify(|(_, a)| *a = after.switch_word())
                        .or_insert((before.switch_word(), after.switch_word()));
                }
            }
        }
    }
    let mut transitions: HashMap<TupleId, HashMap<(u64, u64), usize>> = HashMap::new();
    for ((_, tuple), net) in nets {
        *transitions.entry(tuple).or_default().entry(net).or_insert(0) += 1;
    }

    for storage in cluster.shared().nodes.iter() {
        for table in storage.tables() {
            table.for_each(|key, row| {
                let (entries, base) = row.version_chain();
                if entries.is_empty() {
                    return;
                }
                let tuple = TupleId::new(table.id(), key);
                let mut avail = transitions.get(&tuple).cloned().unwrap_or_default();
                let mut prev_ts = 0u64;
                for (i, &(ts, word)) in entries.iter().enumerate() {
                    if i > 0 && ts <= prev_ts {
                        report.violations.push(Violation::VersionOrder { tuple, at: i });
                    }
                    prev_ts = ts;
                    // A switch-owned tuple's host-row pre-history is not
                    // `base`: degraded-mode reconstruction raw-writes the
                    // live word without installing a version, so its first
                    // chain entry grounds in that reconstructed word — an
                    // unknown predecessor.
                    let before = match i {
                        0 if owned.contains_key(&tuple) => None,
                        0 => Some(base.unwrap_or(0)),
                        _ => Some(entries[i - 1].1),
                    };
                    report.version_entries_checked += 1;
                    if let Some(b) = before {
                        match avail.get_mut(&(b, word)) {
                            Some(n) if *n > 0 => *n -= 1,
                            _ => {
                                report.violations.push(Violation::PhantomVersion { tuple, ts, before: b, after: word })
                            }
                        }
                    }
                }
            });
        }
    }
}

/// SmallBank: every balance non-negative; total money == initial money plus
/// what the committed history injected; committed host transactions move
/// money only in legal shapes.
#[allow(clippy::too_many_arguments)]
fn check_smallbank(
    cluster: &Cluster,
    node_logs: &[Vec<LogRecord>],
    audit_enabled: bool,
    report: &mut InvariantReport,
    initial_balance: u64,
    max_amount: u64,
    switch_money_delta: i128,
    cold_money_delta: i128,
) {
    let shared = cluster.shared();
    let mut live_total: i128 = 0;
    let mut accounts: i128 = 0;
    for storage in shared.nodes.iter() {
        for table in [SAVINGS, CHECKING] {
            let Ok(table) = storage.table(table) else { continue };
            // Per-shard iteration: no whole-table key vector, and the row is
            // already in hand — no second lookup per account.
            table.for_each(|key, row| {
                let tuple = TupleId::new(table.id(), key);
                // The switch is authoritative for offloaded accounts.
                let value = cluster.switch_value(tuple).unwrap_or_else(|| row.read().switch_word());
                if (value as i64) < 0 {
                    report.violations.push(Violation::NegativeBalance { tuple, value });
                }
                live_total += value as i64 as i128;
                accounts += 1;
            });
        }
    }

    // The epoch baselines already contain pre-epoch switch deltas; account
    // for them relative to the offload-time values, switch by switch (each
    // switch's epoch moves independently under per-switch crash/recovery).
    let epochs: Vec<_> = (0..cluster.num_switches()).map(|s| cluster.switch_epoch_at(SwitchId(s as u16))).collect();
    let baselines: Vec<(SwitchId, &HashMap<TupleId, u64>)> =
        epochs.iter().enumerate().map(|(s, epoch)| (SwitchId(s as u16), &epoch.baseline)).collect();
    let pre_epoch_delta =
        pre_epoch_money_delta(&baselines, cluster.offload_snapshot(), &[SAVINGS, CHECKING], &mut report.violations);

    // Without the audit log there is no switch delta to account against, so
    // the conservation equation would flag healthy hot traffic; only the
    // per-balance and per-transaction checks apply then (check_tpcc guards
    // its pending-YTD term the same way).
    let expected = accounts * initial_balance as i128 + cold_money_delta + switch_money_delta + pre_epoch_delta;
    if audit_enabled && expected != live_total {
        report.violations.push(Violation::ConservationViolation {
            expected,
            actual: live_total,
            context: "SmallBank total balance",
        });
    }

    // Per-transaction shape check on the host path: net delta of a committed
    // transaction's cold money writes is 0 (transfer) or ±amount.
    for records in node_logs {
        let committed = commit_status(records);
        let mut per_txn: HashMap<TxnId, i128> = HashMap::new();
        let mut touched_money: HashSet<TxnId> = HashSet::new();
        for r in records {
            if let LogRecord::ColdWrite { txn, tuple, before, after } = r {
                if (tuple.table == SAVINGS || tuple.table == CHECKING) && committed.get(txn).copied().unwrap_or(false) {
                    *per_txn.entry(*txn).or_insert(0) +=
                        after.switch_word() as i64 as i128 - before.switch_word() as i64 as i128;
                    touched_money.insert(*txn);
                }
            }
        }
        for txn in touched_money {
            let delta = per_txn[&txn];
            // Amalgamate drains a whole balance (net 0); every other type
            // moves at most max_amount in one direction.
            if delta != 0 && delta.unsigned_abs() > max_amount as u128 {
                report.violations.push(Violation::IllegalMoneyMovement { txn, delta });
            }
        }
    }
}

/// TPC-C: the warehouse YTD counters must account for every committed
/// customer deduction — including Payments whose switch part is still
/// in-doubt and unexecuted (recovery will apply them; until then their YTD
/// contribution is pending).
#[allow(clippy::too_many_arguments)]
fn check_tpcc(
    cluster: &Cluster,
    logs: &[EpochLog],
    audits: &[Vec<(TxnId, GlobalTxnId)>],
    audit_enabled: bool,
    report: &mut InvariantReport,
    warehouses: u64,
    initial_customer_balance: u64,
) {
    let shared = cluster.shared();
    let mut live_ytd: i128 = 0;
    for w in 0..warehouses {
        let tuple = TupleId::new(WAREHOUSE, keys::warehouse(w));
        let value = cluster.switch_value(tuple).unwrap_or_else(|| {
            let home = cluster.partition_map().home(tuple).unwrap_or(NodeId(0));
            shared.node(home).table(WAREHOUSE).and_then(|t| t.read(tuple.key)).map(|v| v.switch_word()).unwrap_or(0)
        });
        live_ytd += value as i64 as i128;
    }

    let mut customer_delta: i128 = 0;
    for storage in shared.nodes.iter() {
        let Ok(table) = storage.table(CUSTOMER) else { continue };
        table.for_each(|_, row| {
            let balance = row.read().switch_word();
            customer_delta += initial_customer_balance as i128 - balance as i64 as i128;
        });
    }

    // Unexecuted in-doubt intents of each switch's epoch still owe their YTD
    // adds — accounted per switch against that switch's own audit.
    let mut pending_ytd: i128 = 0;
    if audit_enabled {
        for (log, audit) in logs.iter().zip(audits.iter()) {
            let executed: HashSet<TxnId> = audit.iter().map(|(t, _)| *t).collect();
            for (txn, ops) in &log.intents {
                if log.results.contains_key(txn) || executed.contains(txn) {
                    continue;
                }
                for op in ops {
                    if op.tuple.table == WAREHOUSE {
                        pending_ytd += op.operand as i64 as i128;
                    }
                }
            }
        }
    }

    if live_ytd + pending_ytd != customer_delta {
        report.violations.push(Violation::ConservationViolation {
            expected: customer_delta,
            actual: live_ytd + pending_ytd,
            context: "TPC-C warehouse YTD vs customer deductions",
        });
    }
    let _ = (DISTRICTS_PER_WAREHOUSE, CUSTOMERS_PER_DISTRICT);
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4db_common::TableId;

    fn t(key: u64) -> TupleId {
        TupleId::new(CHECKING, key)
    }

    #[test]
    fn pre_epoch_delta_counts_known_baseline_tuples() {
        let offload: HashMap<TupleId, u64> = [(t(1), 100), (t(2), 100)].into_iter().collect();
        let baseline: HashMap<TupleId, u64> = [(t(1), 130), (t(2), 90)].into_iter().collect();
        let mut violations = Vec::new();
        let delta = pre_epoch_money_delta(&[(SwitchId(0), &baseline)], &offload, &[CHECKING, SAVINGS], &mut violations);
        assert_eq!(delta, 30 - 10);
        assert!(violations.is_empty(), "got {violations:?}");
    }

    /// Doctored negative case: a baseline tuple the offload snapshot never
    /// captured must surface as a violation, not silently contribute a zero
    /// delta (the pre-fix behaviour, which made the conservation equation
    /// absorb real pre-epoch money movement).
    #[test]
    fn pre_epoch_delta_flags_baseline_tuples_missing_from_the_offload_snapshot() {
        let offload: HashMap<TupleId, u64> = [(t(1), 100)].into_iter().collect();
        // t(9) carries real money but has no offload-time reference value.
        let baseline: HashMap<TupleId, u64> = [(t(1), 100), (t(9), 5_000)].into_iter().collect();
        let mut violations = Vec::new();
        let delta = pre_epoch_money_delta(&[(SwitchId(0), &baseline)], &offload, &[CHECKING, SAVINGS], &mut violations);
        assert_eq!(delta, 0, "the unknown tuple must not contribute a made-up delta");
        assert_eq!(violations, vec![Violation::MissingOffloadBaseline { switch: SwitchId(0), tuple: t(9) }]);
        // Tuples outside the money tables are not the checker's business.
        let other: HashMap<TupleId, u64> = [(TupleId::new(TableId(40), 0), 7)].into_iter().collect();
        let mut none = Vec::new();
        assert_eq!(pre_epoch_money_delta(&[(SwitchId(0), &other)], &offload, &[CHECKING, SAVINGS], &mut none), 0);
        assert!(none.is_empty());
    }
}
