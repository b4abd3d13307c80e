//! The switch lifecycle: crash recovery from the node logs, degraded mode,
//! heartbeat probes, re-admission and the self-healing supervisor.
//!
//! Every operation here takes `&self`. Each switch keeps its control plane
//! and checker epoch behind one lock (`SwitchState`), held for a whole
//! operation on that switch, so the supervisor can run on a scoped thread
//! beside [`Cluster::drive`]. No transaction path takes that lock: workers
//! read only the published hot-set index and the health state.

use crate::cluster::{decode_log, Cluster};
use crate::session::ResolverReport;
use p4db_common::rand_util::FastRng;
use p4db_common::sync::unpoison;
use p4db_common::{Error, NodeId, Result, SwitchId, TupleId, TxnId};
use p4db_net::{EndpointId, Mailbox};
use p4db_storage::{recover_switch_state, LogRecord, NodeStorage, SwitchRecoveryOutcome, Table};
use p4db_switch::{ControlPlane, ProbeRequest, RegisterSlot, SwitchHandle, SwitchMessage};
use p4db_txn::SwitchHealth;
use std::collections::{HashMap, HashSet};
use std::ops::Deref;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

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

impl SwitchEpoch {
    /// The epoch that starts now: the switch's current registers are the
    /// baseline.
    fn starting_now(handle: &SwitchHandle, control_plane: &ControlPlane, nodes: &[Arc<NodeStorage>]) -> Arc<Self> {
        Arc::new(SwitchEpoch {
            baseline: control_plane.snapshot().into_iter().collect(),
            audit_start: handle.audit_len(),
            wal_start: nodes.iter().map(|n| n.wal().len()).collect(),
        })
    }
}

/// One switch of the topology: its data-plane handle and its lifecycle
/// state.
pub(crate) struct SwitchState {
    /// A switch has no thread: its pipeline runs on the threads that
    /// deliver to it, and dropping its handle detaches it.
    pub(crate) handle: SwitchHandle,
    lifecycle: Mutex<Lifecycle>,
}

/// What a lifecycle operation reads and rewrites, under one lock.
struct Lifecycle {
    control_plane: ControlPlane,
    /// Started at offload time and on every recovery or re-admission.
    epoch: Arc<SwitchEpoch>,
}

impl SwitchState {
    /// A switch whose first epoch starts now.
    pub(crate) fn new(handle: SwitchHandle, control_plane: ControlPlane, nodes: &[Arc<NodeStorage>]) -> Self {
        let epoch = SwitchEpoch::starting_now(&handle, &control_plane, nodes);
        SwitchState { handle, lifecycle: Mutex::new(Lifecycle { control_plane, epoch }) }
    }

    fn lock(&self) -> MutexGuard<'_, Lifecycle> {
        unpoison(self.lifecycle.lock())
    }
}

/// What [`Cluster::crash_and_recover_switch_at`] did and found.
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

impl SupervisorReport {
    /// Folds a later run's report into this one.
    pub fn merge(&mut self, later: SupervisorReport) {
        self.degraded.extend(later.degraded);
        self.recovered.extend(later.recovered);
        self.probes_sent += later.probes_sent;
        self.probes_answered += later.probes_answered;
        self.resolver.merge(&later.resolver);
        self.deadline_forced |= later.deadline_forced;
        self.trips_seen = later.trips_seen;
    }
}

impl Cluster {
    /// The state of `switch`, or a structured error outside the topology.
    fn switch_state(&self, switch: SwitchId) -> Result<&SwitchState> {
        self.switches
            .get(switch.index())
            .ok_or_else(|| Error::InvalidConfig(format!("no {switch} in a {}-switch topology", self.switches.len())))
    }

    /// The control plane of one switch. The returned guard holds the
    /// switch's lifecycle lock, so a lifecycle operation on that switch
    /// waits until it is dropped.
    ///
    /// # Panics
    /// Panics when `switch` is outside the topology.
    pub fn control_plane_at(&self, switch: SwitchId) -> impl Deref<Target = ControlPlane> + '_ {
        struct Guard<'a>(MutexGuard<'a, Lifecycle>);
        impl Deref for Guard<'_> {
            type Target = ControlPlane;
            fn deref(&self) -> &ControlPlane {
                &self.0.control_plane
            }
        }
        Guard(self.switches[switch.index()].lock())
    }

    /// Current switch-side value of an offloaded tuple, whichever switch
    /// owns it (placement maps are disjoint across switches).
    pub fn switch_value(&self, tuple: TupleId) -> Option<u64> {
        self.switches.iter().find_map(|switch| switch.lock().control_plane.read_tuple(tuple))
    }

    /// The checker baseline of one switch's current epoch.
    ///
    /// # Panics
    /// Panics when `switch` is outside the topology.
    pub fn switch_epoch_at(&self, switch: SwitchId) -> Arc<SwitchEpoch> {
        Arc::clone(&self.switches[switch.index()].lock().epoch)
    }

    /// Rebuilds a switch's registers from the node logs (§6.1, §A.3).
    /// Each node's log is decoded once, from the switch's epoch fence,
    /// straight from its serialised segments, and filtered in place to the
    /// intent and result records this switch owns: a cross-switch
    /// transaction logs one intent/result pair *per switch* under the same
    /// TxnId, and ownership keeps each switch's view collision-free. The
    /// records are replayed against the epoch's baseline. Returns the replay
    /// outcome, the per-node owned records (for the divergence check) and
    /// the per-node log lengths consumed: intents logged at or below them
    /// are folded into the reconstruction (the resolver's fence).
    fn replay_switch_suffix(
        &self,
        lifecycle: &Lifecycle,
    ) -> Result<(SwitchRecoveryOutcome, Vec<Vec<LogRecord>>, Vec<usize>)> {
        let owned: HashSet<TupleId> = lifecycle.control_plane.placements().map(|(t, _)| t).collect();
        let owns = |tuple: Option<&TupleId>| tuple.is_some_and(|t| owned.contains(t));
        let mut logs = Vec::with_capacity(self.shared.num_nodes());
        let mut consumed = Vec::with_capacity(self.shared.num_nodes());
        for (storage, &start) in self.shared.nodes.iter().zip(&lifecycle.epoch.wal_start) {
            let (mut records, torn) = decode_log(storage, start as u64)?;
            if let Some(note) = torn {
                // Switch recovery replays intent/result pairs and cannot
                // tolerate a truncated log the way node recovery can.
                return Err(Error::InvalidConfig(format!("WAL torn during switch recovery: {note}")));
            }
            consumed.push(start + records.len());
            records.retain(|record| match record {
                LogRecord::SwitchIntent { ops, .. } => owns(ops.first().map(|op| &op.tuple)),
                LogRecord::SwitchResult { results, .. } => owns(results.first().map(|(t, _)| t)),
                _ => false,
            });
            logs.push(records);
        }
        Ok((recover_switch_state(&lifecycle.epoch.baseline, &logs), logs, consumed))
    }

    /// Simulates a crash + recovery of **one** switch from the node WALs
    /// (§6.1, §A.3): its register state is lost, rebuilt by replaying the
    /// *serialised* logs of all nodes in GID order (in-flight intents
    /// ordered by data dependencies, Fig 9), and written back — either into
    /// the existing placements, or, with `reoffload_seed`, into **fresh
    /// register slots** chosen in a seeded random order, after which the
    /// rebuilt hot-set index is published cluster-wide (the mid-run
    /// re-offload path).
    ///
    /// The replay is the one [`Cluster::degrade_switch`] runs: only records
    /// owned by this switch (by the tuples they touch) and only each log's
    /// suffix since this switch's epoch start, against the epoch's baseline
    /// — other switches' epochs, registers and traffic are untouched.
    ///
    /// Starts a new [`SwitchEpoch`] *for this switch*: recovery legitimately
    /// applies intents whose packets never reached the switch, so the
    /// checker baseline moves here, and the offload snapshot is recaptured.
    /// Call only while switch traffic is quiesced
    /// ([`Cluster::quiesce_switch`]).
    pub fn crash_and_recover_switch_at(
        &self,
        switch: SwitchId,
        reoffload_seed: Option<u64>,
    ) -> Result<SwitchRecoveryReport> {
        let state = self.switch_state(switch)?;
        let mut lifecycle = state.lock();
        let pre_crash: HashMap<TupleId, u64> = lifecycle.control_plane.snapshot().into_iter().collect();
        let (outcome, logs, consumed) = self.replay_switch_suffix(&lifecycle)?;
        // Resolver fence: intents at or below the consumed WAL lengths are
        // folded into this reconstruction — in-doubt entries below the fence
        // resolve as committed without querying the switch.
        self.shared.health.set_fence(switch, consumed);
        let unexplained_divergences = unexplained_divergences(&pre_crash, &outcome.values, &logs);

        // The crash: this switch's register memory is gone. Restore it —
        // into fresh placements when re-offloading. Ownership is stable:
        // recovery never migrates tuples between switches, only reshuffles
        // slots within the crashed one. Cell indices are assigned in
        // next_free order, so placing in slot order reproduces the original
        // placement exactly.
        let mut original: Vec<(TupleId, RegisterSlot)> = lifecycle.control_plane.placements().collect();
        original.sort_by_key(|&(_, slot)| (slot.stage, slot.array, slot.index));
        // The replay starts from the epoch baseline, which holds every owned
        // tuple, so each has a rebuilt value.
        let values: Vec<(TupleId, u64)> =
            original.iter().map(|&(t, _)| (t, outcome.values.get(&t).copied().unwrap_or(0))).collect();
        match reoffload_seed {
            Some(seed) => self.reoffload(switch, &mut lifecycle.control_plane, seed, &original, &values)?,
            None => restore_registers(&mut lifecycle.control_plane, &values),
        }

        // New epoch for this switch: the restored values are the checker's
        // new baseline, so the next recovery of this switch replays only the
        // new epoch's WAL suffix against a never-stale baseline.
        lifecycle.epoch = SwitchEpoch::starting_now(&state.handle, &lifecycle.control_plane, &self.shared.nodes);

        Ok(SwitchRecoveryReport {
            restored_tuples: lifecycle.epoch.baseline.len(),
            outcome,
            reoffloaded: reoffload_seed.is_some(),
            unexplained_divergences,
        })
    }

    /// Re-offloads `switch`'s tuples into fresh register slots in a seeded
    /// random order and publishes the new index. If they do not fit, the
    /// `original` placement (which held every tuple before the crash) is
    /// rebuilt and published before the failure is returned, so no worker
    /// keeps a stale index over reshuffled registers.
    fn reoffload(
        &self,
        switch: SwitchId,
        control_plane: &mut ControlPlane,
        seed: u64,
        original: &[(TupleId, RegisterSlot)],
        values: &[(TupleId, u64)],
    ) -> Result<()> {
        let mut order = values.to_vec();
        let mut rng = FastRng::new(seed ^ 0x0FF_10AD ^ switch.index() as u64);
        for i in (1..order.len()).rev() {
            order.swap(i, rng.pick(i + 1));
        }
        control_plane.reset();
        let placed = order.iter().try_for_each(|&(t, v)| control_plane.offload_anywhere(t, 8, v).map(drop));
        if placed.is_err() {
            control_plane.reset();
            for (&(t, slot), &(_, v)) in original.iter().zip(values) {
                control_plane.offload_into(t, slot.stage, slot.array, 8, v)?;
            }
        }
        self.publish_hot_index(switch, Some(control_plane));
        placed
    }

    /// Publishes the hot-set index with `switch`'s entries taken from
    /// `control_plane`, or dropped without one.
    fn publish_hot_index(&self, switch: SwitchId, control_plane: Option<&ControlPlane>) {
        self.shared.hot_index.update(|index| index.with_switch(switch, control_plane));
    }

    /// The host table that holds an offloaded tuple's row.
    fn host_table(&self, tuple: TupleId) -> Option<&Table> {
        let home = self.partition_map.home(tuple)?;
        self.shared.node(home).table(tuple.table).ok()
    }

    // --- Self-healing: degraded mode, probes, supervised recovery ----------

    /// The per-switch health state: circuit breakers, degraded flags and the
    /// in-doubt ledger.
    pub fn health(&self) -> &SwitchHealth {
        &self.shared.health
    }

    /// Stands up **degraded mode** for one switch whose breaker has tripped:
    /// rebuilds the switch's authoritative values with the replay crash
    /// recovery runs ([`Cluster::crash_and_recover_switch_at`] — the
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
        let lifecycle = self.switch_state(switch)?.lock();
        let (outcome, _, consumed) = self.replay_switch_suffix(&lifecycle)?;
        let mut restored = 0usize;
        for (tuple, _) in lifecycle.control_plane.placements() {
            let Some(table) = self.host_table(tuple) else { continue };
            if let Ok(mut live) = table.read(tuple.key) {
                live.set_switch_word(outcome.values.get(&tuple).copied().unwrap_or(0));
                table.write(tuple.key, live)?;
                restored += 1;
            }
        }
        // Publish the shrunken index *before* raising the flag: a worker
        // that observes the flag (and demotes a stale-index hot op) must be
        // guaranteed the host rows already hold the reconstructed values.
        self.publish_hot_index(switch, None);
        self.shared.health.set_fence(switch, consumed);
        self.shared.health.set_degraded(switch, true);
        Ok(restored)
    }

    /// Stands up degraded mode ([`Cluster::degrade_switch`]) for every
    /// switch whose breaker is open and that is not degraded yet: the
    /// supervisor's first step. Returns those switches in index order.
    fn degrade_tripped(&self) -> Result<Vec<SwitchId>> {
        let health = &self.shared.health;
        let mut degraded = Vec::new();
        for sid in (0..self.switches.len()).map(|s| SwitchId(s as u16)) {
            if health.is_open(sid) && !health.is_degraded(sid) {
                self.degrade_switch(sid)?;
                degraded.push(sid);
            }
        }
        Ok(degraded)
    }

    /// Re-admits a degraded switch once its half-open probe streak has
    /// earned a close: re-seeds its registers from the owning host rows
    /// (during degraded mode the host rows are the authoritative values — a
    /// WAL switch-replay alone would miss the degraded-era cold commits),
    /// publishes its hot-set index entries, starts a fresh checker epoch,
    /// heals any lingering targeted network fault, closes the breaker and
    /// lifts the degraded flag. Returns the number of registers re-seeded.
    ///
    /// Call only while switch traffic is quiesced (the supervisor re-admits
    /// after its drivers finish), and resolve the in-doubt ledger first —
    /// while the host rows are still authoritative, so a replayed intent's
    /// effect survives the re-seeding.
    pub fn readmit_switch(&self, switch: SwitchId) -> Result<usize> {
        let state = self.switch_state(switch)?;
        let mut lifecycle = state.lock();
        let values: Vec<(TupleId, u64)> = lifecycle
            .control_plane
            .placements()
            .map(|(tuple, _)| {
                let host = self.host_table(tuple).and_then(|table| table.read(tuple.key).ok());
                let value = host.map(|v| v.switch_word()).or_else(|| lifecycle.epoch.baseline.get(&tuple).copied());
                (tuple, value.unwrap_or(0))
            })
            .collect();
        restore_registers(&mut lifecycle.control_plane, &values);
        self.publish_hot_index(switch, Some(&lifecycle.control_plane));
        // Fresh checker epoch: the re-seeded registers are the new baseline.
        lifecycle.epoch = SwitchEpoch::starting_now(&state.handle, &lifecycle.control_plane, &self.shared.nodes);
        // Open the road back up.
        self.shared.fabric.heal_switch(switch.0);
        self.shared.health.close(switch);
        self.shared.health.set_degraded(switch, false);
        Ok(values.len())
    }

    /// Sends one heartbeat probe from `port` through the fabric (subject to
    /// fault injection, exactly like real traffic) and waits for its echo.
    fn probe_switch(&self, switch: SwitchId, port: &Mailbox<SwitchMessage>, token: u64, timeout: Duration) -> bool {
        let origin = port.id();
        let request = SwitchMessage::ProbeRequest(ProbeRequest { origin, token });
        let echo = |m| matches!(m, SwitchMessage::ProbeReply(r) if r.token == token).then_some(());
        self.shared.fabric.send(origin, EndpointId::Switch(switch), request)
            && port.recv_until(Instant::now() + timeout, echo).is_ok()
    }

    /// The self-healing supervisor loop. Runs on the calling thread —
    /// typically a scoped thread beside [`Cluster::drive`] — until
    /// `drivers_done` returns true *and* every breaker is closed. Its first
    /// call arms the circuit breakers ([`SwitchHealth::arm`]); they stay
    /// armed, since a later re-trip needs a supervisor run to close it.
    ///
    /// 1. a tripped breaker stands up degraded mode
    ///    ([`Cluster::degrade_switch`]),
    /// 2. every open breaker is heartbeat-probed every 2 ms (probe outcomes
    ///    walk the breaker Open → Half-Open → ready-to-close),
    /// 3. once the drivers are done, a ready switch is re-admitted — quiesce,
    ///    resolve the in-doubt ledger while host rows are authoritative,
    ///    then [`Cluster::readmit_switch`].
    ///
    /// Past `deadline` the supervisor force-heals the targeted network fault
    /// (the model's "replace the broken hardware" escape hatch) and gives
    /// the loop one more deadline before giving up; the report records it.
    pub fn supervise_until<F: Fn() -> bool>(&self, drivers_done: F, deadline: Duration) -> Result<SupervisorReport> {
        self.shared.health.arm();
        let port = self.shared.fabric.control_port();
        let probe_timeout = Duration::from_millis(2).max(Duration::from_nanos(8 * self.config.latency.one_way_ns));
        let start = Instant::now();
        let mut report = SupervisorReport::default();
        let mut token = 0u64;
        loop {
            let done = drivers_done();
            report.degraded.extend(self.degrade_tripped()?);
            for s in 0..self.switches.len() {
                let sid = SwitchId(s as u16);
                if !self.shared.health.is_open(sid) {
                    continue;
                }
                token += 1;
                report.probes_sent += 1;
                let answered = self.probe_switch(sid, &port, token, probe_timeout);
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
}

/// Rewrites a switch's registers in their current placements: the crashed
/// data is lost, the data-plane program and placements stay.
fn restore_registers(control_plane: &mut ControlPlane, values: &[(TupleId, u64)]) {
    control_plane.crash_data();
    control_plane.restore(values);
}

/// The tuples whose rebuilt value differs from the live pre-crash value with
/// no in-flight intent to explain it, as `(tuple, live, rebuilt)`.
///
/// Intents without a result record are in-flight as far as the logs are
/// concerned: recovery chooses *a* valid position for them (§A.3 — "any
/// order is valid"), which need not be where the live switch actually
/// executed them (if it did at all), so their tuples may legitimately
/// diverge from the pre-crash values — and the difference propagates
/// through any completed transaction that touches the same tuples (its
/// read-dependent writes replay with different operands). Tuples outside
/// that closure must match exactly.
fn unexplained_divergences(
    pre_crash: &HashMap<TupleId, u64>,
    rebuilt: &HashMap<TupleId, u64>,
    logs: &[Vec<LogRecord>],
) -> Vec<(TupleId, u64, u64)> {
    let mut explained: HashSet<TupleId> = HashSet::new();
    let mut completed_ops: Vec<Vec<TupleId>> = Vec::new();
    for records in logs {
        let with_result: HashSet<TxnId> = records
            .iter()
            .filter_map(|r| match r {
                LogRecord::SwitchResult { txn, .. } => Some(*txn),
                _ => None,
            })
            .collect();
        for record in records {
            if let LogRecord::SwitchIntent { txn, ops } = record {
                let tuples = ops.iter().map(|op| op.tuple);
                if with_result.contains(txn) {
                    completed_ops.push(tuples.collect());
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
    let mut unexplained = Vec::new();
    for (&tuple, &live) in pre_crash {
        let recovered = rebuilt.get(&tuple).copied().unwrap_or(live);
        if recovered != live && !explained.contains(&tuple) {
            unexplained.push((tuple, live, recovered));
        }
    }
    unexplained
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Load, Stop};
    use p4db_common::faults::FaultPlan;
    use p4db_common::{GlobalTxnId, WorkerId};
    use p4db_storage::LoggedSwitchOp;
    use p4db_switch::OpCode;
    use p4db_txn::health::TRIP_THRESHOLD;
    use p4db_workloads::{Workload, Ycsb, YcsbConfig, YcsbMix};
    use std::sync::atomic::{AtomicBool, Ordering};

    fn small_cluster() -> Cluster {
        let workload: Arc<dyn Workload> =
            Arc::new(Ycsb::new(YcsbConfig { keys_per_node: 2_000, ..YcsbConfig::new(YcsbMix::A) }));
        Cluster::builder(workload).test_profile().build()
    }

    #[test]
    fn a_tripped_switch_is_degraded_once_and_a_closed_one_never() {
        let workload: Arc<dyn Workload> =
            Arc::new(Ycsb::new(YcsbConfig { keys_per_node: 2_000, ..YcsbConfig::new(YcsbMix::A) }));
        let cluster = Cluster::builder(workload).test_profile().switches(2).build();
        cluster.health().arm();
        let (tripped, closed) = (SwitchId(1), SwitchId(0));
        assert!(cluster.degrade_tripped().unwrap().is_empty(), "no breaker is open yet");
        for _ in 0..TRIP_THRESHOLD {
            cluster.health().record_failure(tripped);
        }
        assert!(cluster.health().is_open(tripped));
        assert_eq!(cluster.degrade_tripped().unwrap(), vec![tripped]);
        assert!(cluster.health().is_degraded(tripped));
        let index = cluster.shared().hot_index.load();
        assert!(
            index.iter().all(|(t, _)| index.owner(t) == Some(closed)),
            "the published index drops the tripped switch"
        );
        assert!(cluster.degrade_tripped().unwrap().is_empty(), "an already degraded switch is not degraded again");
        assert!(!cluster.health().is_degraded(closed));
    }

    #[test]
    fn the_divergence_check_reports_an_unlogged_change_but_not_an_in_flight_closure() {
        let cluster = small_cluster();
        let sw = SwitchId(0);
        let live = |cluster: &Cluster, tuple| cluster.switch_value(tuple).expect("offloaded");
        let hot: Vec<TupleId> = cluster.control_plane_at(sw).snapshot().into_iter().map(|(t, _)| t).collect();
        let (a, b, c) = (hot[0], hot[1], hot[2]);
        let (a0, b0, c0) = (live(&cluster, a), live(&cluster, b), live(&cluster, c));

        // Case 1: an intent `a += 5` was logged but never answered, and a
        // completed transaction read `a` and added what it read to `b`. Its
        // recorded results are only explainable with the in-flight intent
        // ordered first, so recovery moves both `a` and `b` away from their
        // live values — both explained, neither reported.
        let op = |tuple, op, operand, operand_from| LoggedSwitchOp { tuple, op, operand, operand_from };
        let (inflight, completed) =
            (TxnId::compose(1, NodeId(0), WorkerId(0)), TxnId::compose(2, NodeId(0), WorkerId(0)));
        let wal = cluster.shared().node(NodeId(0)).wal();
        wal.append(LogRecord::SwitchIntent { txn: inflight, ops: vec![op(a, OpCode::Add, 5, None)] });
        let ops = vec![op(a, OpCode::Read, 0, None), op(b, OpCode::Add, 0, Some(0))];
        wal.append(LogRecord::SwitchIntent { txn: completed, ops });
        let results = vec![(a, a0 + 5), (b, b0 + a0 + 5)];
        wal.append(LogRecord::SwitchResult { txn: completed, gid: GlobalTxnId(0), results });
        let report = cluster.crash_and_recover_switch_at(sw, None).unwrap();
        assert_eq!((report.outcome.completed, report.outcome.inflight_ordered), (1, 1));
        assert_eq!((live(&cluster, a), live(&cluster, b)), (a0 + 5, b0 + a0 + 5), "the closure diverges");
        assert!(report.unexplained_divergences.is_empty(), "{:?}", report.unexplained_divergences);

        // Case 2: a register changed behind the log's back — no intent
        // explains it, so recovery restores the logged value and reports it.
        cluster.switches[sw.index()].lock().control_plane.restore(&[(c, c0 + 1)]);
        let report = cluster.crash_and_recover_switch_at(sw, None).unwrap();
        assert_eq!(report.unexplained_divergences, vec![(c, c0 + 1, c0)]);
        assert_eq!(live(&cluster, c), c0);
    }

    #[test]
    fn supervision_passes_leave_the_fabric_registry_as_they_found_it() {
        let cluster = small_cluster();
        let endpoints = |cluster: &Cluster| cluster.shared().fabric.endpoints().into_iter().collect::<HashSet<_>>();
        let before = endpoints(&cluster);
        for _ in 0..3 {
            let report = cluster.supervise_until(|| true, Duration::from_secs(5)).unwrap();
            assert!(report.degraded.is_empty() && !report.deadline_forced);
        }
        assert_eq!(endpoints(&cluster), before);
    }

    /// One supervised drive: a supervisor runs on a scoped thread while
    /// `TRIP_THRESHOLD` forced failures open `switch`'s breaker and a drive
    /// runs through the outage; once the drive has settled, the supervisor
    /// re-admits the switch and returns.
    fn supervised_trip(cluster: &Cluster, switch: SwitchId) -> SupervisorReport {
        let drivers_done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let supervisor = scope
                .spawn(|| cluster.supervise_until(|| drivers_done.load(Ordering::Acquire), Duration::from_secs(20)));
            // Failures count once the supervisor has armed the breaker.
            let deadline = Instant::now() + Duration::from_secs(10);
            while !cluster.health().record_failure(switch) {
                assert!(Instant::now() < deadline, "the supervisor never armed the breaker");
                std::thread::yield_now();
            }
            let stats = cluster.drive(Load::new(Stop::Txns(50)));
            drivers_done.store(true, Ordering::Release);
            let report = supervisor.join().expect("supervisor panicked").expect("supervisor failed");
            assert!(stats.expect("drive failed").merged.committed_total() > 0, "the outage stopped all traffic");
            report
        })
    }

    #[test]
    fn a_re_trip_after_re_admission_is_degraded_and_re_admitted_again() {
        let workload: Arc<dyn Workload> =
            Arc::new(Ycsb::new(YcsbConfig { keys_per_node: 2_000, ..YcsbConfig::new(YcsbMix::A) }));
        let cluster = Cluster::builder(workload).test_profile().with_faults(FaultPlan::quiet(5)).build();
        let sw = SwitchId(0);
        let mut report = supervised_trip(&cluster, sw);
        assert_eq!(report.recovered, vec![sw], "the first trip is re-admitted");
        report.merge(supervised_trip(&cluster, sw));
        assert_eq!(report.degraded, vec![sw, sw], "both trips are degraded");
        assert_eq!(report.recovered, vec![sw, sw], "both trips are re-admitted");
        assert_eq!(report.trips_seen, 2);
        assert!(!report.deadline_forced);
        assert!(!cluster.health().is_open(sw), "the breaker ends closed");
        assert!(!cluster.health().is_degraded(sw));
        assert_eq!(cluster.health().ledger_len(), 0, "the ledger ends empty");
    }
}
