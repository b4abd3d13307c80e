//! The distributed transaction engine of the host DBMS, integrating the
//! switch as an "additional database node" (§6).
//!
//! Every worker thread owns a [`Worker`] handle and runs each share of its
//! node's queue through [`Worker::execute_batch`] ([`Worker::execute`] is the
//! share of one). The engine classifies each request's operations into hot
//! (offloaded to the switch) and cold (host) sets and runs one of three
//! flows:
//!
//! * **hot** — all operations hot on one switch: a switch sub-transaction, no
//!   host locks at all (§6.1); the hot requests of a share travel in one
//!   exchange;
//! * **cold** — no hot operations: classic 2PL (NO_WAIT / WAIT_DIE) with 2PC
//!   for distributed transactions (§3.2);
//! * **warm** — a mix: the cold part runs under 2PL up to the point where it
//!   can no longer abort, then the share's exchange carries the hot part
//!   beside its batchmates' sub-transactions, then the cold part commits; the
//!   switch multicasts the decision for distributed warm transactions (§6.2,
//!   Fig 8/10). A warm transaction whose hot part spans several switches runs
//!   one exchange per owning switch in place, in dependency order.
//!
//! Both switch flows go through the one worker-to-switch exchange
//! (`Worker::run_exchange`): every intent group-committed before any packet
//! leaves, one frame per destination switch, replies awaited by token, a lost
//! reply parked in the in-doubt ledger, every result group-committed.
//!
//! The LM-Switch baseline (switch as central lock manager) and the
//! Chiller-style contention-centric re-ordering (Fig 18b) are variations of
//! the cold path selected through [`EngineConfig`].

use crate::health::{InDoubtEntry, SwitchHealth};
use crate::hotset::{HotIndexCell, HotSetIndex};
use crate::request::{OpKind, TxnOp, TxnOutcome, TxnRequest};
use crate::switch_client::build_switch_txn;
use p4db_common::channel::RecvTimeoutError;
use p4db_common::simtime::Stopwatch;
use p4db_common::stats::{Phase, TxnClass, WorkerStats};
use p4db_common::{
    AbortReason, CcScheme, Error, GlobalTxnId, NodeId, Result, SwitchId, SystemMode, TupleId, TxnId, Value, WorkerId,
};
use p4db_net::{EndpointId, Fabric, LatencyModel, Mailbox, RecvOutcome};
use p4db_storage::{Grant, LockMode, LogRecord, MvccState, NodeStorage, RowHandle, SnapshotSlot};
use p4db_switch::{SwitchConfig, SwitchMessage, SwitchTxn, TxnHeader, TxnReply};
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Engine-wide configuration (immutable during a run).
#[derive(Clone, Debug)]
pub struct EngineConfig {
    pub mode: SystemMode,
    pub cc: CcScheme,
    pub switch_config: SwitchConfig,
    /// Chiller-style contention-centric execution for the host path:
    /// contended (hot-set) tuples are accessed last and their locks released
    /// first (used only by the Fig 18b comparison).
    pub chiller: bool,
    /// How long a worker waits for a switch reply, and what running out
    /// means. `None` (the default): nothing can be lost on the wire, so a
    /// reply still missing after 30 s is a wedged switch and surfaces loudly
    /// as [`p4db_common::Error::Disconnected`]. `Some(d)` (fault injection):
    /// a reply missing after `d` is an expected lost packet, and the
    /// transaction commits *in doubt* (its intent is logged, the switch
    /// cannot abort).
    pub switch_timeout: Option<Duration>,
}

/// How long a worker without fault injection waits for a switch reply
/// before it declares the switch wedged.
const WEDGED_SWITCH_TIMEOUT: Duration = Duration::from_secs(30);

impl EngineConfig {
    pub fn new(mode: SystemMode, cc: CcScheme, switch_config: SwitchConfig) -> Self {
        EngineConfig { mode, cc, switch_config, chiller: false, switch_timeout: None }
    }
}

/// State shared by every worker of the cluster.
pub struct EngineShared {
    pub nodes: Vec<Arc<NodeStorage>>,
    pub latency: LatencyModel,
    pub fabric: Fabric<SwitchMessage>,
    /// The replicated hot-set index, swappable for mid-run re-offload
    /// recovery. Workers snapshot it once per transaction.
    pub hot_index: HotIndexCell,
    pub config: EngineConfig,
    /// MVCC plumbing of the snapshot read path: the commit clock that stamps
    /// row versions and the registry of active snapshots, whose low
    /// watermark decides which displaced versions fold at install. One
    /// logical clock serves the whole cluster (the synchronized-clock
    /// assumption the epoch machinery already makes).
    pub mvcc: MvccState,
    /// Per-switch circuit breakers, degraded-mode flags and the in-doubt
    /// ledger. With the breaker disabled (the default) every check
    /// short-circuits to "healthy" — byte-compatible with the pre-breaker
    /// engine.
    pub health: SwitchHealth,
}

impl EngineShared {
    pub fn node(&self, id: NodeId) -> &Arc<NodeStorage> {
        &self.nodes[id.index()]
    }

    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }
}

/// Where the host path left a transaction.
enum HostEnd {
    /// Committed, with the GID of its first completed switch
    /// sub-transaction, if any, and whether one ended in doubt.
    Committed(Option<GlobalTxnId>, bool),
    /// A warm transaction whose hot part this one switch owns: its cold part
    /// has voted and waits, locks held, for the share's exchange.
    Voted(SwitchId),
}

/// The queued sub-transactions of the share's worker-to-switch exchange and
/// its buffers. One instance lives inside each [`Worker`] as reusable
/// scratch, like [`HostTxnState`]: a steady stream of exchanges allocates
/// none of them.
///
/// A warm transaction whose hot part one switch owns queues its
/// sub-transaction here beside the share's hot requests and parks its voted
/// host state in `parked` until the exchange has run. A warm transaction
/// spanning several switches cannot wait: each group's values may feed the
/// next, so it pushes one sub-transaction at a time on top of the queue,
/// runs the exchange over that alone and truncates it away again.
#[derive(Default)]
struct Exchange {
    subs: Vec<SubTxn>,
    /// Every sub-transaction's `(request index, operation)` pairs, back to
    /// back; [`SubTxn::ops`] is one sub-transaction's range.
    ops: Vec<(usize, TxnOp)>,
    /// The records of one group commit: the intents, then the results.
    log: Vec<LogRecord>,
    /// `(index into subs, host state)` of each voted warm transaction.
    parked: Vec<(usize, HostTxnState)>,
    /// Host states whose transactions have finished, for reuse.
    spare: Vec<HostTxnState>,
}

impl Exchange {
    /// Drops the sub-transactions from index `from` on, with their
    /// operations.
    fn truncate(&mut self, from: usize) {
        if let Some(sub) = self.subs.get(from) {
            self.ops.truncate(sub.ops.start);
        }
        self.subs.truncate(from);
    }

    /// Queues a sub-transaction of `ops` for `switch`, whose values scatter
    /// into the caller's result slot `slot`.
    fn push(
        &mut self,
        slot: usize,
        switch: SwitchId,
        txn: TxnId,
        multicast_decision: bool,
        ops: impl IntoIterator<Item = (usize, TxnOp)>,
    ) {
        let start = self.ops.len();
        self.ops.extend(ops);
        let ops = start..self.ops.len();
        let (packet, orig_index, reply, outcome) = (None, Vec::new(), None, Ok(None));
        self.subs.push(SubTxn {
            slot,
            switch,
            txn,
            multicast_decision,
            ops,
            token: 0,
            packet,
            orig_index,
            reply,
            outcome,
        });
    }
}

/// One switch sub-transaction: the hot operations of one request that one
/// switch owns.
struct SubTxn {
    slot: usize,
    switch: SwitchId,
    txn: TxnId,
    /// Asks the switch to multicast the decision to every node: the hot part
    /// of a distributed warm transaction (Fig 10).
    multicast_decision: bool,
    /// This sub-transaction's operations: a range of [`Exchange::ops`].
    ops: Range<usize>,
    /// The reply's correlation token.
    token: u64,
    /// The built packet, until its frame leaves.
    packet: Option<SwitchTxn>,
    /// `orig_index[i]`: the request index of the operation instruction `i`
    /// implements.
    orig_index: Vec<usize>,
    reply: Option<TxnReply>,
    /// How the exchange ended for this sub-transaction: `Ok(Some(gid))`
    /// completed, `Ok(None)` in doubt (the intent is logged and the switch
    /// cannot abort, so it counts as committed; recovery orders it from the
    /// logs), or `Err` when its breaker was open or it did not build —
    /// nothing logged, nothing sent.
    outcome: Result<Option<GlobalTxnId>>,
}

/// Undo and footprint state of one host (sub-)transaction. One instance
/// lives inside each [`Worker`] as reusable scratch: `clear()` keeps every
/// vector's capacity, so a steady-state host transaction allocates nothing
/// per operation.
#[derive(Default)]
struct HostTxnState {
    /// Every held host lock, one [`Grant`] per `(home node, tuple)`: the
    /// row locks admission took (with the handles that release them), the
    /// keys without a row it locked in the map, and the rows this
    /// transaction inserted.
    locks: Vec<(NodeId, Grant)>,
    /// `(row handle, before image)` pairs, undone in reverse on abort — no
    /// table lookups on the rollback path.
    undo: Vec<(RowHandle, Value)>,
    inserted: Vec<(NodeId, TupleId)>,
    cold_writes: Vec<LogRecord>,
    /// LM-Switch: lock ids currently held on the switch lock manager.
    switch_locks: Vec<(u64, bool)>,
    /// Admission-resolved row handles, aligned with `order`; `None` for
    /// inserting operations (their rows do not exist yet).
    resolved: Vec<Option<RowHandle>>,
    /// Cold operation indices in execution order (Chiller may reorder).
    order: Vec<usize>,
    /// Per-node `(hash, tuple)` scratch of the grouped release of keys.
    release_scratch: Vec<(u64, TupleId)>,
    /// `(row handle, after word)` of every host write, in operation order —
    /// the versions to install at commit, stamped with one reserved commit
    /// timestamp while the exclusive locks are still held.
    installs: Vec<(RowHandle, u64)>,
    /// The transaction's remote participants — the distinct remote home
    /// nodes of *every* operation, switch-resident ones included, as
    /// [`TxnRequest::is_distributed`] defines a distributed transaction.
    /// Collected once at admission; the 2PC vote addresses exactly these.
    participants: Vec<NodeId>,
    /// The participants of the lock-and-resolve round being sent (see
    /// [`remote_homes`]).
    round: Vec<NodeId>,
}

impl HostTxnState {
    fn clear(&mut self) {
        self.locks.clear();
        self.undo.clear();
        self.inserted.clear();
        self.cold_writes.clear();
        self.switch_locks.clear();
        self.resolved.clear();
        self.order.clear();
        self.release_scratch.clear();
        self.installs.clear();
        self.participants.clear();
        self.round.clear();
    }
}

/// Collects the distinct home nodes of `ops` other than `coordinator` into
/// `out`: the participants one round of remote work addresses. A participant
/// gets **one** request carrying all of its operations, so the round costs
/// [`LatencyModel::impose_node_round_trip`]`(out.len())` whatever the
/// operation count. (Footprints span a handful of nodes: a linear `contains`
/// beats any set.)
fn remote_homes<'a>(coordinator: NodeId, ops: impl IntoIterator<Item = &'a TxnOp>, out: &mut Vec<NodeId>) {
    out.clear();
    for op in ops {
        if op.home != coordinator && !out.contains(&op.home) {
            out.push(op.home);
        }
    }
}

/// The lock-free snapshot read path (read-only transactions), owned by the
/// thread that runs it: a [`Worker`] keeps one for the read-only requests of
/// its shares, and a client session keeps one to serve a node-local read on
/// the caller's thread. Such a read takes no lock, cannot abort and crosses
/// no wire, so nothing is gained by handing it to another thread.
///
/// It picks a snapshot timestamp at admission, announces it in its
/// [`SnapshotSlot`] (so GC never reclaims a version it still needs), and
/// reads each tuple's newest version at or below the snapshot — **zero
/// lock-table interaction, zero 2PC, zero per-op allocations** (the one
/// allocation is the per-transaction results vector, exactly like the
/// locking path). Remote-home reads travel as one request per remote
/// participant, all sent with the snapshot timestamp before the first
/// read: one node round trip however many rows are remote.
#[derive(Debug)]
pub struct SnapshotReader {
    /// Announces the snapshot of the read in flight to the version-chain GC.
    slot: SnapshotSlot,
    /// The remote participants of the read in flight (see [`remote_homes`]).
    round: Vec<NodeId>,
}

impl SnapshotReader {
    /// A reader with a slot of its own in `mvcc`'s snapshot registry; the
    /// slot goes back to the registry when the reader is dropped.
    pub fn new(mvcc: &MvccState) -> Self {
        SnapshotReader { slot: mvcc.snapshots.register(), round: Vec::new() }
    }

    /// Reads `req` at one snapshot, coordinated by `node`.
    ///
    /// Returns `Ok(None)`, having recorded nothing, when the request is not
    /// eligible: an operation is not a plain `Read`, or a tuple is offloaded
    /// to a switch (its host row is stale while the switch owns it) — those
    /// fall back to the locking path, still correct, just not lock-free.
    pub fn try_read(
        &mut self,
        shared: &EngineShared,
        node: NodeId,
        req: &TxnRequest,
        index: &HotSetIndex,
        stats: &mut WorkerStats,
    ) -> Result<Option<TxnOutcome>> {
        for op in &req.ops {
            let offloaded = shared.config.mode == SystemMode::P4db && index.is_hot(op.tuple);
            if op.kind != OpKind::Read || offloaded {
                return Ok(None);
            }
        }
        let mut watch = Stopwatch::start();
        let mut results = vec![0u64; req.ops.len()];
        let snap = self.slot.begin(&shared.mvcc.clock);
        remote_homes(node, &req.ops, &mut self.round);
        if !self.round.is_empty() {
            shared.latency.impose_node_round_trip(self.round.len());
            stats.record_phase(Phase::RemoteAccess, watch.lap());
        }
        let mut run = Ok(());
        for (i, op) in req.ops.iter().enumerate() {
            let visible = match shared.node(op.home).peek(op.tuple) {
                Ok(row) => row.and_then(|r| r.read_at(snap)),
                Err(e) => {
                    run = Err(e);
                    break;
                }
            };
            match visible {
                Some(word) => results[i] = word,
                None => {
                    // No version at or below the snapshot: the row did not
                    // exist (yet) in this transaction's consistent view —
                    // the same error a locking read of a missing row raises.
                    run = Err(Error::TupleNotFound(op.tuple));
                    break;
                }
            }
        }
        // The slot is cleared on *every* exit, error paths included — a
        // leaked announcement would pin the GC watermark forever.
        self.slot.end();
        stats.record_phase(Phase::LocalAccess, watch.lap());
        run?;
        stats.snapshot_reads += 1;
        Ok(Some(TxnOutcome { class: TxnClass::Cold, results, gid: None, in_doubt: false, snapshot: Some(snap) }))
    }
}

/// A per-thread handle into the transaction engine.
pub struct Worker {
    shared: Arc<EngineShared>,
    node: NodeId,
    id: WorkerId,
    endpoint: EndpointId,
    mailbox: Mailbox<SwitchMessage>,
    seq: u32,
    token: u64,
    /// Reusable host-transaction scratch (see [`HostTxnState`]).
    scratch: HostTxnState,
    /// Reusable switch-exchange scratch (see [`Exchange`]).
    exchange: Exchange,
    /// Reusable classification buffers (hot / cold operation indices).
    scratch_hot: Vec<usize>,
    scratch_cold: Vec<usize>,
    /// The result buffer of [`Worker::execute`], a share of one.
    scratch_outcome: Vec<Result<TxnOutcome>>,
    /// The snapshot read path of this worker's read-only requests.
    snapshot: SnapshotReader,
}

impl Worker {
    /// Creates the worker and registers its response endpoint on the fabric.
    pub fn new(shared: Arc<EngineShared>, node: NodeId, id: WorkerId) -> Self {
        let endpoint = EndpointId::Worker(node, id);
        let mailbox = shared.fabric.register(endpoint);
        let snapshot = SnapshotReader::new(&shared.mvcc);
        Worker {
            shared,
            node,
            id,
            endpoint,
            mailbox,
            seq: 0,
            token: 0,
            scratch: HostTxnState::default(),
            exchange: Exchange::default(),
            scratch_hot: Vec::new(),
            scratch_cold: Vec::new(),
            scratch_outcome: Vec::new(),
            snapshot,
        }
    }

    pub fn node(&self) -> NodeId {
        self.node
    }

    pub fn id(&self) -> WorkerId {
        self.id
    }

    pub fn shared(&self) -> &Arc<EngineShared> {
        &self.shared
    }

    fn next_txn_id(&mut self) -> TxnId {
        self.seq = self.seq.wrapping_add(1);
        TxnId::compose(self.seq, self.node, self.id)
    }

    fn next_token(&mut self) -> u64 {
        self.token = self.token.wrapping_add(1);
        self.token
    }

    /// Executes one transaction attempt: [`Worker::execute_batch`] over a
    /// share of one. Aborts are returned as `Err(Error::Abort(_))`; the caller
    /// (worker loop) decides whether to retry.
    pub fn execute(&mut self, req: &TxnRequest, stats: &mut WorkerStats) -> Result<TxnOutcome> {
        let mut out = std::mem::take(&mut self.scratch_outcome);
        self.execute_batch([req], stats, &mut out);
        let result = out.pop().expect("one result per request");
        self.scratch_outcome = out;
        result
    }

    /// Executes a share of requests into `out`: one result per request, in
    /// request order. The hot-set index is snapshotted once here, so
    /// classification, packet construction and Chiller ordering always agree
    /// even if a re-offload swaps the index mid-share.
    ///
    /// The requests are scanned in order. Empty, snapshot and cold requests
    /// run to their result as they come. An all-hot request queues its
    /// sub-transaction on the share's one exchange. A warm request whose hot
    /// part one switch owns runs its cold part through admission, execution
    /// and the 2PC vote, then queues its sub-transaction beside the hot ones
    /// and waits. The exchange then carries them all: their intents
    /// group-committed in one WAL write, one fabric frame per destination
    /// switch, their replies drained together and their results
    /// group-committed again — the engine-side half of the switch's frame
    /// batching. Each waiting warm transaction finishes last, from its own
    /// sub-transaction's fate: it commits if the sub-transaction completed or
    /// ended in doubt, and rolls back if it never left the node.
    ///
    /// A waiting warm transaction holds its locks until its commit, so a
    /// later batchmate that conflicts with it aborts and retries after the
    /// share, like any lock conflict. Hot transactions cannot abort on a
    /// conflict, so only host-path results ever need the caller's retry loop.
    pub fn execute_batch<'r>(
        &mut self,
        reqs: impl IntoIterator<Item = &'r TxnRequest>,
        stats: &mut WorkerStats,
        out: &mut Vec<Result<TxnOutcome>>,
    ) {
        out.clear();
        let index = self.shared.hot_index.load();
        self.exchange.truncate(0);
        for (slot, req) in reqs.into_iter().enumerate() {
            let result = self.route(slot, req, &index, stats);
            out.push(result);
        }
        if self.exchange.subs.is_empty() {
            return;
        }
        let scatter = |slot: usize, i: usize, value| {
            if let Ok(outcome) = &mut out[slot] {
                outcome.results[i] = value;
            }
        };
        let run = self.run_exchange(0, &index, scatter, stats);
        if !self.exchange.parked.is_empty() {
            self.finish_parked(run.is_ok(), stats);
        }
        for sub in &self.exchange.subs {
            match (&run, &sub.outcome) {
                // A wedged or shutting-down cluster fails the whole exchange.
                (Err(e), _) | (_, Err(e)) => out[sub.slot] = Err(e.clone()),
                (Ok(()), Ok(gid)) => {
                    if let Ok(outcome) = &mut out[sub.slot] {
                        outcome.gid = *gid;
                        outcome.in_doubt = gid.is_none();
                    }
                }
            }
        }
    }

    /// Runs `req`, the share's request `slot`, as far as it goes before the
    /// share's exchange: to its result, unless it has a sub-transaction to
    /// queue. An all-hot request on one switch takes the abort-free switch
    /// path (§6.1) and queues all of itself.
    fn route(
        &mut self,
        slot: usize,
        req: &TxnRequest,
        index: &HotSetIndex,
        stats: &mut WorkerStats,
    ) -> Result<TxnOutcome> {
        if req.is_empty() {
            return Ok(TxnOutcome {
                class: TxnClass::Cold,
                results: Vec::new(),
                gid: None,
                in_doubt: false,
                snapshot: None,
            });
        }
        // Declared read-only: try the lock-free snapshot path first. An
        // ineligible request (a non-`Read` operation, or a tuple offloaded
        // to a switch whose host row is therefore stale) falls through to
        // the locking path below.
        if req.read_only {
            if let Some(ran) = self.snapshot.try_read(&self.shared, self.node, req, index, stats).transpose() {
                return ran;
            }
        }
        // Classification reuses the worker's buffers.
        let mut hot = std::mem::take(&mut self.scratch_hot);
        let mut cold = std::mem::take(&mut self.scratch_cold);
        stats.degraded_hot += self.classify(req, index, &mut hot, &mut cold);
        // All-hot *and* single-owner: the abort-free switch path. A hot set
        // spanning two switches has no single pipeline that can execute it,
        // so it falls back to the host path.
        let owner = if cold.is_empty() { Self::single_owner(req, &hot, index) } else { None };
        let result = match owner {
            Some(switch) => {
                let txn = self.next_txn_id();
                self.exchange.push(slot, switch, txn, false, req.ops.iter().copied().enumerate());
                let results = vec![0; req.ops.len()];
                Ok(TxnOutcome { class: TxnClass::Hot, results, gid: None, in_doubt: false, snapshot: None })
            }
            None => self.execute_host(slot, req, &hot, &cold, index, stats),
        };
        self.scratch_hot = hot;
        self.scratch_cold = cold;
        result
    }

    /// The one switch that owns every hot operation, or `None` for the
    /// *cross-switch* class. No single switch can execute such a transaction
    /// abort-free, so it runs through the host path, which sends at most one
    /// sub-transaction per owning switch (see [`Worker::commit_host_txn`]).
    /// Single-switch topologies never produce it.
    fn single_owner(req: &TxnRequest, hot: &[usize], index: &HotSetIndex) -> Option<SwitchId> {
        let mut owners = hot.iter().filter_map(|&i| index.owner(req.ops[i].tuple));
        let first = owners.next().unwrap_or(SwitchId(0));
        owners.all(|owner| owner == first).then_some(first)
    }

    /// Splits the request's operation indices into hot (switch) and cold
    /// (host) sets, in caller-provided buffers. Everything is cold unless the
    /// full P4DB mode is active. Returns the number of hot-eligible
    /// operations demoted to the host path because their owning switch is in
    /// degraded mode.
    fn classify(&self, req: &TxnRequest, index: &HotSetIndex, hot: &mut Vec<usize>, cold: &mut Vec<usize>) -> u64 {
        hot.clear();
        cold.clear();
        let mut demoted = 0u64;
        for (i, op) in req.ops.iter().enumerate() {
            let hot_eligible =
                self.shared.config.mode == SystemMode::P4db && op.kind.switch_executable() && index.is_hot(op.tuple);
            // Degraded mode: the switch's values have been reconstructed
            // into the host rows, so its tuples run under host 2PL. The
            // check matters only for workers still holding a pre-degrade
            // index snapshot — the post-degrade index no longer contains
            // these tuples at all.
            let degraded = hot_eligible && index.owner(op.tuple).is_some_and(|s| self.shared.health.is_degraded(s));
            if degraded {
                demoted += 1;
            }
            if hot_eligible && !degraded {
                hot.push(i);
            } else {
                cold.push(i);
            }
        }
        demoted
    }

    // --- The worker-to-switch exchange --------------------------------------

    /// The switch-transaction protocol (§6.1) over the sub-transactions
    /// queued in `self.exchange` from index `from` on, in order:
    ///
    /// 1. a sub-transaction whose breaker is open fast-fails, and one that
    ///    does not build fails, neither touching its batchmates;
    /// 2. every intent is group-committed *before* any packet leaves the node
    ///    — from here the sub-transactions count as committed, the switch
    ///    cannot abort;
    /// 3. one frame per destination switch;
    /// 4. the replies are awaited by token until the deadline;
    /// 5. a lost one is parked in the in-doubt ledger;
    /// 6. the values are scattered through `scatter(slot, request index,
    ///    value)` and the results group-committed.
    ///
    /// Each sub-transaction's fate is left in [`SubTxn::outcome`]. `Err` is
    /// reserved for the exchange as a whole: a cluster shutting down or a
    /// wedged switch.
    fn run_exchange(
        &mut self,
        from: usize,
        index: &HotSetIndex,
        mut scatter: impl FnMut(usize, usize, u64),
        stats: &mut WorkerStats,
    ) -> Result<()> {
        let Worker { shared, node, endpoint, mailbox, token, exchange, .. } = self;
        let Exchange { subs, ops: queued_ops, log, .. } = exchange;
        let subs = &mut subs[from..];
        let mut watch = Stopwatch::start();
        for sub in subs.iter_mut() {
            // Breaker open: nothing is logged or sent, so the abort is clean
            // to retry. The retry re-classifies and lands on the host path
            // once degraded mode is up.
            if shared.health.is_open(sub.switch) {
                sub.outcome = Err(Error::Abort(AbortReason::SwitchUnavailable { switch: sub.switch }));
                continue;
            }
            *token = token.wrapping_add(1);
            let mut header = TxnHeader::new(*endpoint, *token);
            header.txn_id = sub.txn;
            header.multicast_decision = sub.multicast_decision;
            let built =
                match build_switch_txn(&queued_ops[sub.ops.clone()], index, &shared.config.switch_config, header) {
                    Ok(built) => built,
                    Err(e) => {
                        sub.outcome = Err(e);
                        continue;
                    }
                };
            if built.txn.header.is_multipass {
                stats.switch_multi_pass += 1;
            } else {
                stats.switch_single_pass += 1;
            }
            log.push(LogRecord::SwitchIntent { txn: sub.txn, ops: built.logged_ops });
            sub.token = *token;
            sub.packet = Some(built.txn);
            sub.orig_index = built.orig_index;
        }
        if log.is_empty() {
            return Ok(());
        }
        let wal = shared.node(*node).wal();
        wal.append_group(log.drain(..));
        // The in-doubt ledger fence: every intent is in the coordinator WAL
        // at or below this index.
        let logged_at = wal.len();
        stats.record_phase(Phase::TxnEngine, watch.lap());

        // The sub-transactions bound for one switch share the NIC doorbell
        // and the ½ RTT to it (a frame of one is the same wire event as a
        // single send).
        let mut in_flight = 0;
        for k in 0..subs.len() {
            let switch = subs[k].switch;
            let frame: Vec<SwitchMessage> = subs[k..]
                .iter_mut()
                .filter(|s| s.switch == switch)
                .filter_map(|s| s.packet.take())
                .map(SwitchMessage::Txn)
                .collect();
            in_flight += frame.len();
            if !shared.fabric.send_frame(*endpoint, EndpointId::Switch(switch), frame) {
                return Err(Error::Disconnected);
            }
        }
        let deadline = Instant::now() + shared.config.switch_timeout.unwrap_or(WEDGED_SWITCH_TIMEOUT);
        let mut replies = 0;
        while replies < in_flight {
            let remaining = deadline.saturating_duration_since(Instant::now());
            match mailbox.recv_timeout(remaining) {
                RecvOutcome::Msg(env) => {
                    // Stale replies (from earlier, timed-out exchanges) and
                    // unrelated messages are dropped.
                    let SwitchMessage::TxnReply(reply) = env.payload else { continue };
                    if let Some(sub) = subs.iter_mut().find(|s| s.token == reply.token && s.reply.is_none()) {
                        sub.reply = Some(reply);
                        replies += 1;
                    }
                }
                // Under fault injection the missing packets or replies were
                // lost on the wire: their sub-transactions commit in doubt
                // below. Without faults nothing can be lost, so a timeout
                // means the switch is wedged — fail loudly instead.
                RecvOutcome::TimedOut if shared.config.switch_timeout.is_some() => break,
                RecvOutcome::TimedOut | RecvOutcome::Disconnected => return Err(Error::Disconnected),
            }
        }
        // A full wire RTT on top of the outbound ½ RTT the fabric imposed
        // (1.5 in all — ROADMAP item 13), once per exchange; none when every
        // reply was lost.
        if replies > 0 {
            shared.latency.impose_switch_rtt_wire();
        }
        stats.record_phase(Phase::SwitchTxn, watch.lap());

        for sub in subs.iter_mut().filter(|s| s.outcome.is_ok()) {
            let ops = &queued_ops[sub.ops.clone()];
            let position = |orig: usize| ops.iter().position(|&(o, _)| o == orig);
            let Some(reply) = sub.reply.take() else {
                // Intent logged, switch cannot abort: committed in doubt.
                // Recovery orders it from the logs (§A.3, Fig 9). The ledger
                // entry is self-contained: operand references are remapped
                // to positions within the sub-transaction (the caller has
                // patched dependencies on other operations into literals).
                stats.switch_timeouts += 1;
                if shared.health.record_failure(sub.switch) {
                    stats.breaker_trips += 1;
                }
                let remap = |&(_, mut op): &(usize, TxnOp)| {
                    op.operand_from = op.operand_from.and_then(|src| position(src as usize)).map(|p| p as u8);
                    op
                };
                let ops = ops.iter().map(remap).collect();
                shared.health.note_in_doubt(InDoubtEntry {
                    switch: sub.switch,
                    txn: sub.txn,
                    node: *node,
                    logged_at,
                    ops,
                });
                continue;
            };
            shared.health.record_success(sub.switch);
            let mut results = Vec::with_capacity(reply.results.len());
            for (result, &orig) in reply.results.iter().zip(&sub.orig_index) {
                scatter(sub.slot, orig, result.value);
                results.push((ops[position(orig).expect("built from these operations")].1.tuple, result.value));
            }
            log.push(LogRecord::SwitchResult { txn: sub.txn, gid: reply.gid, results });
            sub.outcome = Ok(Some(reply.gid));
        }
        wal.append_group(log.drain(..));
        stats.record_phase(Phase::TxnEngine, watch.lap());
        Ok(())
    }

    /// Finishes the share's voted warm transactions after its exchange, each
    /// from its own sub-transaction's fate. The switch cannot abort, so an
    /// `Ok` outcome — completed or in doubt — decides the transaction: the
    /// cold part is beyond its abort point and the logged intent makes the
    /// switch part durable, so it commits rather than rolling back half of
    /// itself. An `Err` outcome (breaker open, or the packet did not build)
    /// logged and sent nothing, so rolling the cold part back is sound and the
    /// only way not to leak its locks. When the exchange failed as a whole
    /// (`exchanged` false: the cluster is shutting down or a switch is
    /// wedged) a cold part whose intent is logged is neither rolled back nor
    /// committed; the transaction fails with the exchange's error.
    fn finish_parked(&mut self, exchanged: bool, stats: &mut WorkerStats) {
        let mut watch = Stopwatch::start();
        let mut parked = std::mem::take(&mut self.exchange.parked);
        for (k, mut state) in parked.drain(..) {
            let sub = &self.exchange.subs[k];
            let (txn, failed) = (sub.txn, sub.outcome.as_ref().err().cloned());
            match failed {
                Some(e) => self.fail_host(txn, &mut state, stats, &e),
                None if exchanged => self.commit_cold(txn, &mut state),
                None => {}
            }
            self.exchange.spare.push(state);
        }
        self.exchange.parked = parked;
        stats.record_phase(Phase::TxnEngine, watch.lap());
    }

    fn coordinator_storage(&self) -> &Arc<NodeStorage> {
        self.shared.node(self.node)
    }

    // --- Cold / warm transactions ------------------------------------------

    /// Executes the host part of a transaction (all of it for cold
    /// transactions, the cold subset for warm ones), the share's request
    /// `slot`. A warm transaction whose hot part one switch owns stops after
    /// its vote: its sub-transaction is queued on the share's exchange and
    /// its host state parked until [`Worker::finish_parked`]. A warm
    /// transaction spanning several switches runs its sub-transactions in
    /// place before committing.
    ///
    /// It runs shared-nothing end to end: the whole cold footprint is
    /// resolved to [`RowHandle`]s at *admission* and locked in the rows
    /// themselves (one tuple hash each, one lock per tuple), execution then
    /// touches no maps at all, and the commit releases each row lock through
    /// its handle.
    fn execute_host(
        &mut self,
        slot: usize,
        req: &TxnRequest,
        hot: &[usize],
        cold: &[usize],
        index: &HotSetIndex,
        stats: &mut WorkerStats,
    ) -> Result<TxnOutcome> {
        let txn_id = self.next_txn_id();
        let mut results = vec![0u64; req.ops.len()];
        // The scratch moves out of `self` for the duration of the
        // transaction (so `&mut self` methods can run against it) and moves
        // back afterwards, keeping its capacity across transactions: steady
        // state allocates nothing per operation.
        let mut state = std::mem::take(&mut self.scratch);
        state.clear();
        let end = self.run_host_txn(req, hot, cold, index, stats, txn_id, &mut state, &mut results);
        let (gid, in_doubt) = match end {
            Ok(HostEnd::Voted(switch)) => {
                // Parked, the transaction holds its locks until its commit
                // group after the exchange. A later batchmate that conflicts
                // aborts under NO_WAIT. Under WAIT_DIE it dies instead of
                // waiting: this worker's later `TxnId` is always younger,
                // and only an older requester waits, so no batchmate ever
                // waits on a parked transaction and no wait cycle can form
                // across the share. (The sequence wraps once in 2^32
                // transactions; there the wait ends at the lock table's
                // timeout, as a conflict.)
                let distributed = !state.participants.is_empty();
                let k = self.exchange.subs.len();
                self.exchange.push(slot, switch, txn_id, distributed, Self::patched(req, hot, &results));
                self.exchange.parked.push((k, state));
                self.scratch = self.exchange.spare.pop().unwrap_or_default();
                (None, false)
            }
            Ok(HostEnd::Committed(gid, in_doubt)) => {
                self.scratch = state;
                (gid, in_doubt)
            }
            Err(e) => {
                self.scratch = state;
                return Err(e);
            }
        };
        let class = if hot.is_empty() { TxnClass::Cold } else { TxnClass::Warm };
        Ok(TxnOutcome { class, results, gid, in_doubt, snapshot: None })
    }

    /// The shared-nothing host path: admission, zero-lookup execution, then
    /// the common vote/switch/commit tail.
    #[allow(clippy::too_many_arguments)]
    fn run_host_txn(
        &mut self,
        req: &TxnRequest,
        hot: &[usize],
        cold: &[usize],
        index: &HotSetIndex,
        stats: &mut WorkerStats,
        txn_id: TxnId,
        state: &mut HostTxnState,
        results: &mut [u64],
    ) -> Result<HostEnd> {
        let mut watch = Stopwatch::start();

        // Chiller-style ordering: contended tuples last, so their locks are
        // held for the shortest time.
        state.order.extend_from_slice(cold);
        if self.shared.config.chiller {
            let ops = &req.ops;
            state.order.sort_by_key(|&i| index.is_hot(ops[i].tuple));
        }

        // Chiller-contended tuples skip admission: their whole point is
        // *late* acquisition + early release, so they are locked at access
        // time in the execution loop below. (Not in LM-Switch mode, where
        // the switch lock manager owns the hot set's locks.)
        let lm_switch = self.shared.config.mode == SystemMode::LmSwitch;
        let late_acquisition = self.shared.config.chiller && !lm_switch;
        let late = |op: &TxnOp| late_acquisition && index.is_hot(op.tuple);

        // --- The wire: admission knows the whole footprint before it sends
        // anything, so every remote participant gets one lock-and-resolve
        // request carrying all of its operations, the requests travel
        // concurrently, and the coordinator waits one node round trip for
        // all the replies (the paper's 2PL/2PC baseline, §3.2). The locks
        // themselves are then taken below, in operation order.
        remote_homes(self.node, &req.ops, &mut state.participants);
        if !state.participants.is_empty() {
            let ops = &req.ops;
            remote_homes(self.node, state.order.iter().map(|&i| &ops[i]).filter(|op| !late(op)), &mut state.round);
            if !state.round.is_empty() {
                self.shared.latency.impose_node_round_trip(state.round.len());
                stats.record_phase(Phase::RemoteAccess, watch.lap());
            }
        }

        // --- Admission, passes 1 and 2: prefetch every admitted tuple's
        // index slot, then probe the slots and prefetch the rows, so the
        // footprint's index misses and then its row misses overlap instead
        // of each waiting in turn behind a shard latch's locked RMW (see
        // `p4db_storage::table`). They run after the round trip above, so
        // no line goes cold while that sleeps.
        let admitted = state.order.iter().map(|&i| &req.ops[i]).filter(|op| !late(op));
        for op in admitted.clone() {
            self.shared.node(op.home).prefetch_slot(op.tuple);
        }
        for op in admitted {
            self.shared.node(op.home).prefetch(op.tuple);
        }

        // --- Admission, pass 3: resolve + lock the whole footprint, one
        // hash and one lock per tuple. A row is locked through its own lock
        // word; a key without a row (an insert) through the lock table's
        // map.
        for slot in 0..state.order.len() {
            let i = state.order[slot];
            let op = &req.ops[i];
            if late(op) {
                state.resolved.push(None);
                continue;
            }
            let lm_lock = lm_switch && index.is_hot(op.tuple);
            // Lock acquisition: at the owning node (normal path) or at the
            // switch lock manager for hot-set tuples in LM-Switch mode.
            let handle = if lm_lock {
                if let Err(e) = self.lm_lock_once(req, op.tuple, state) {
                    self.fail_host(txn_id, state, stats, &e);
                    return Err(e);
                }
                // The data still lives on the host; resolve without a host
                // lock (the switch lock manager serialises access).
                match self.shared.node(op.home).table(op.tuple.table) {
                    Ok(table) => table.get(op.tuple.key),
                    Err(e) => {
                        self.fail_host(txn_id, state, stats, &e);
                        return Err(e);
                    }
                }
            } else {
                match self.admit_op(txn_id, &req.ops, op, state) {
                    Ok(handle) => handle,
                    Err(e) => {
                        self.fail_host(txn_id, state, stats, &e);
                        return Err(e);
                    }
                }
            };
            state.resolved.push(handle);
        }
        // One phase lap covers the whole admission loop (per-op laps would
        // cost a clock read per tuple for the same Fig 18a totals).
        stats.record_phase(Phase::LockAcquisition, watch.lap());

        // --- Execution: pre-resolved handles only — no map lookups, no
        // per-op allocations. (Remote rows were paid for at admission; the
        // data accesses themselves run on local handles, so the whole loop
        // accounts as local access.)
        let mut late_round_sent = false;
        for slot in 0..state.order.len() {
            let i = state.order[slot];
            let op = &req.ops[i];
            // Chiller: contended tuples were skipped at admission — acquire
            // their locks now, at access time (late acquisition), and
            // resolve the handle under the same hash. The laps around the
            // acquisition keep its time (including any WAIT_DIE waiting) in
            // the lock-acquisition phase.
            if late(op) && state.resolved[slot].is_none() {
                stats.record_phase(Phase::LocalAccess, watch.lap());
                // The late set is known as well as the admission set was:
                // its first access sends one request per participant for
                // all of it, so it costs one more round trip, not one per
                // contended tuple.
                if !late_round_sent {
                    late_round_sent = true;
                    let ops = &req.ops;
                    let rest = state.order[slot..].iter().map(|&i| &ops[i]).filter(|op| late(op));
                    remote_homes(self.node, rest, &mut state.round);
                    if !state.round.is_empty() {
                        self.shared.latency.impose_node_round_trip(state.round.len());
                        stats.record_phase(Phase::RemoteAccess, watch.lap());
                    }
                }
                match self.admit_op(txn_id, &req.ops, op, state) {
                    Ok(handle) => state.resolved[slot] = handle,
                    Err(e) => {
                        self.fail_host(txn_id, state, stats, &e);
                        return Err(e);
                    }
                }
                stats.record_phase(Phase::LockAcquisition, watch.lap());
            }
            match self.apply_resolved_op(txn_id, &req.ops, slot, results, state) {
                Ok(value) => results[i] = value,
                Err(e) => {
                    self.fail_host(txn_id, state, stats, &e);
                    return Err(e);
                }
            }
            // Chiller: release the lock on a contended tuple as soon as its
            // *last* operation is done (early lock release). Releasing at
            // every occurrence would leave a later access of the same tuple
            // running without its lock — this path never re-acquires at
            // access time for already-admitted tuples.
            // LM-held tuples are not in `state.locks`, so the scan skips
            // them naturally.
            if self.shared.config.chiller
                && index.is_hot(op.tuple)
                && !state.order[slot + 1..].iter().any(|&later| req.ops[later].tuple == op.tuple)
            {
                if let Some(pos) = state.locks.iter().position(|(n, g)| *n == op.home && g.tuple() == op.tuple) {
                    let (home, grant) = state.locks.remove(pos);
                    self.shared.node(home).release(txn_id, &grant);
                }
            }
        }
        stats.record_phase(Phase::LocalAccess, watch.lap());

        self.commit_host_txn(req, hot, index, stats, txn_id, state, results, &mut watch)
    }

    /// Applies one cold operation against its admission-resolved handle,
    /// staging undo and log records. Only inserts (whose rows do not exist
    /// at admission) and reads of rows inserted *by this transaction* touch
    /// the table maps.
    ///
    /// Insert is a *replace*: aborting a transaction whose insert displaced
    /// an existing row removes the key outright (before-image `0`) — the
    /// workloads only ever insert fresh keys.
    fn apply_resolved_op(
        &self,
        txn_id: TxnId,
        ops: &[TxnOp],
        slot: usize,
        results: &[u64],
        state: &mut HostTxnState,
    ) -> Result<u64> {
        let op = &ops[state.order[slot]];
        let operand_override = op.operand_from.map(|src| results[src as usize]);
        match op.kind {
            OpKind::Insert(v) => {
                let v = operand_override.unwrap_or(v);
                let table = self.shared.node(op.home).table(op.tuple.table)?;
                // `insert_fresh`: the row is created *by this transaction*,
                // so snapshot readers older than its commit must see
                // tuple-not-found rather than the uncommitted value. It is
                // born locked by this transaction and joins its locks; a
                // live row it replaces is retired, so a rival still holding
                // that row's handle conflicts and resolves the key again.
                let handle = table.insert_fresh(op.tuple.key, Value::scalar(v), txn_id);
                state.locks.push((op.home, Grant::inserted(op.tuple, Arc::clone(&handle))));
                // The insert may have *replaced* a live row with a fresh
                // one: every later operation of this transaction on the
                // same tuple was admission-resolved to the old row and must
                // be re-pointed at the fresh handle (and the fresh row is
                // made resolvable for rows that did not exist at admission).
                state.resolved[slot] = Some(Arc::clone(&handle));
                for later in slot + 1..state.order.len() {
                    if ops[state.order[later]].tuple == op.tuple {
                        state.resolved[later] = Some(Arc::clone(&handle));
                    }
                }
                state.inserted.push((op.home, op.tuple));
                state.installs.push((handle, v));
                state.cold_writes.push(LogRecord::ColdWrite {
                    txn: txn_id,
                    tuple: op.tuple,
                    before: Value::scalar(0),
                    after: Value::scalar(v),
                });
                Ok(v)
            }
            _ => {
                if state.resolved[slot].is_none() {
                    // Not found at admission: either an earlier operation of
                    // this transaction inserted the row since, or it is a
                    // genuine miss — resolve now, erroring on a miss.
                    let table = self.shared.node(op.home).table(op.tuple.table)?;
                    state.resolved[slot] = Some(table.get_or_err(op.tuple.key)?);
                }
                let row = state.resolved[slot].as_ref().expect("resolved above");
                if op.kind == OpKind::Read {
                    return Ok(row.read().switch_word());
                }
                let before = row.read();
                let current = before.switch_word();
                let new = match op.kind {
                    OpKind::Write(v) => operand_override.unwrap_or(v),
                    OpKind::Add(d) => {
                        let delta = operand_override.map(|v| v as i64).unwrap_or(d);
                        (current as i64).wrapping_add(delta) as u64
                    }
                    OpKind::FetchAdd(d) => {
                        let delta = operand_override.map(|v| v as i64).unwrap_or(d);
                        (current as i64).wrapping_add(delta) as u64
                    }
                    OpKind::CondSub(a) => {
                        let amount = operand_override.unwrap_or(a);
                        if amount > i64::MAX as u64 || (current as i64) < amount as i64 {
                            return Err(Error::Abort(AbortReason::ConstraintViolation));
                        }
                        ((current as i64) - amount as i64) as u64
                    }
                    OpKind::Read | OpKind::Insert(_) => unreachable!("handled above"),
                };
                let mut after = before;
                after.set_switch_word(new);
                row.write(after);
                state.undo.push((Arc::clone(row), before));
                state.installs.push((Arc::clone(row), new));
                state.cold_writes.push(LogRecord::ColdWrite { txn: txn_id, tuple: op.tuple, before, after });
                Ok(if matches!(op.kind, OpKind::FetchAdd(_)) { current } else { new })
            }
        }
    }

    /// The commit tail of the host path: the 2PC vote, then a warm
    /// transaction's switch sub-transactions, then the commit. A warm
    /// transaction whose hot part one switch owns stops after the vote
    /// ([`HostEnd::Voted`]): the share's exchange carries its hot part.
    #[allow(clippy::too_many_arguments)]
    fn commit_host_txn(
        &mut self,
        req: &TxnRequest,
        hot: &[usize],
        index: &HotSetIndex,
        stats: &mut WorkerStats,
        txn_id: TxnId,
        state: &mut HostTxnState,
        results: &mut [u64],
        watch: &mut Stopwatch,
    ) -> Result<HostEnd> {
        // The cold part can no longer abort. For distributed transactions run
        // the 2PC voting phase now (participants hold their locks and have
        // validated constraints, so they vote yes): one prepare/vote pair
        // per remote participant, all in flight together, one wait.
        let remote_participants = state.participants.len();
        let distributed = remote_participants > 0;
        if distributed {
            self.shared.latency.impose_node_round_trip(remote_participants);
            stats.record_phase(Phase::RemoteAccess, watch.lap());
        }

        // Warm transactions: the switch sub-transactions run between the
        // voting phase and the commit (Fig 8 / Fig 10). The switch cannot
        // abort, so the outcome is already decided — even a lost reply does
        // not change it: the cold part is beyond its abort point and the
        // logged intent makes the switch part durable, so the transaction
        // commits in doubt rather than rolling back half of itself.
        let mut gid = None;
        let mut in_doubt = false;
        if !hot.is_empty() {
            if let Some(switch) = Self::single_owner(req, hot, index) {
                stats.record_phase(Phase::TxnEngine, watch.lap());
                return Ok(HostEnd::Voted(switch));
            }
            // Cross-switch: group the hot operations by owning switch, at
            // most one sub-transaction per switch per transaction (a second
            // one under the same TxnId would double-apply during recovery).
            stats.cross_switch_fallback += 1;
            let mut groups: Vec<(SwitchId, Vec<usize>)> = Vec::new();
            for &i in hot {
                let owner = index.owner(req.ops[i].tuple).unwrap_or(SwitchId(0));
                match groups.iter_mut().find(|(s, _)| *s == owner) {
                    Some((_, group)) => group.push(i),
                    None => groups.push((owner, vec![i])),
                }
            }
            // `have[i]`: `results[i]` already holds operation i's final value
            // (cold operations ran above; hot ones as their group's reply
            // arrives), so it can be patched into a dependent instruction.
            let mut have = vec![true; req.ops.len()];
            for &i in hot {
                have[i] = false;
            }
            while !groups.is_empty() {
                // Run groups whose external dependencies are satisfied
                // first, so their values can be patched into later groups.
                // An unsatisfiable cycle across groups cannot stall the loop
                // (the fallback runs the first group with the values at
                // hand); no generated workload produces one.
                let next = groups
                    .iter()
                    .position(|(_, group)| {
                        group.iter().all(|&i| match req.ops[i].operand_from {
                            Some(src) => group.contains(&(src as usize)) || have[src as usize],
                            None => true,
                        })
                    })
                    .unwrap_or(0);
                let (switch, group) = groups.remove(next);
                // On top of the share's queued sub-transactions (see
                // `Exchange`).
                let from = self.exchange.subs.len();
                self.exchange.push(0, switch, txn_id, distributed, Self::patched(req, &group, results));
                // The exchange records its own engine and switch laps: close
                // the outer lap before it and re-base it after, or its whole
                // span would be counted twice.
                stats.record_phase(Phase::TxnEngine, watch.lap());
                let scatter = |_, i: usize, value| {
                    results[i] = value;
                    have[i] = true;
                };
                let run = self.run_exchange(from, index, scatter, stats);
                watch.reset();
                let outcome = self.exchange.subs[from].outcome.clone();
                self.exchange.truncate(from);
                // Any error of the exchange as a whole means the fabric or
                // switch is gone mid-shutdown: propagate it.
                run?;
                match outcome {
                    // The first completed sub-transaction's GID stands in for
                    // the transaction (GIDs are per-switch serial numbers, so
                    // there is no single global one).
                    Ok(sub_gid) => {
                        in_doubt |= sub_gid.is_none();
                        gid = gid.or(sub_gid);
                    }
                    // A sub-transaction that failed to build — or was fast-
                    // failed by an open circuit breaker — never logged an
                    // intent and never left the node, so — although the cold
                    // part is past its conflict-abort point — rolling it back
                    // is still sound, and the only way not to leak its locks.
                    // Sub-transactions already sent to other switches stay
                    // committed through their logged intents, exactly like
                    // any in-doubt outcome.
                    Err(e) => {
                        self.fail_host(txn_id, state, stats, &e);
                        return Err(e);
                    }
                }
            }
        }
        self.commit_cold(txn_id, state);
        stats.record_phase(Phase::TxnEngine, watch.lap());
        Ok(HostEnd::Committed(gid, in_doubt))
    }

    /// The operations `group` of `req` as one switch sub-transaction.
    /// Dependencies crossing the sub-transaction's boundary are resolved here
    /// on the host: the dependent instruction gets the already-known value
    /// from `results` as a literal operand. The logged intent carries the
    /// same literal, so replay and recovery reproduce exactly what the switch
    /// executed.
    fn patched<'a>(
        req: &'a TxnRequest,
        group: &'a [usize],
        results: &'a [u64],
    ) -> impl Iterator<Item = (usize, TxnOp)> + 'a {
        group.iter().map(move |&i| {
            let mut op = req.ops[i];
            if let Some(src) = op.operand_from.filter(|&src| !group.contains(&(src as usize))) {
                op.kind = Self::patch_operand(op.kind, results[src as usize]);
                op.operand_from = None;
            }
            (i, op)
        })
    }

    /// Commits the host part of a transaction: its cold writes and commit
    /// record as one group commit, its versions installed, its locks
    /// released.
    fn commit_cold(&mut self, txn_id: TxnId, state: &mut HostTxnState) {
        // The transaction's records were staged in `state.cold_writes`; one
        // log write makes them durable together. They drain straight into
        // the log under its one lock acquisition — no intermediate vector.
        let wal = self.coordinator_storage().wal();
        wal.append_group(state.cold_writes.drain(..).chain(std::iter::once(LogRecord::Commit { txn: txn_id })));
        // Version installation: one commit timestamp for the whole
        // transaction, reserved only *after* the commit group is durable (a
        // reserved timestamp is always published) and installed while the
        // exclusive locks are still held — per-row version order therefore
        // agrees with the 2PL serialization order. `publish` makes the
        // timestamp visible to snapshot readers only once every earlier
        // timestamp is fully installed. One low-watermark reading serves
        // every row: a displaced version at or below it folds into the
        // row's base, so without snapshot readers no install touches the
        // heap.
        if !state.installs.is_empty() {
            let mvcc = &self.shared.mvcc;
            let ts = mvcc.clock.reserve();
            let watermark = mvcc.low_watermark();
            for (row, word) in state.installs.drain(..) {
                row.install_version_folding(ts, word, watermark);
            }
            mvcc.clock.publish(ts);
        }
        self.release_all(txn_id, state);
    }

    /// The admission step for a single cold operation: resolves and locks
    /// its tuple through [`NodeStorage::admit`] and records the [`Grant`] in
    /// `state.locks`, so every later error path releases it through
    /// [`Worker::abort_host`]. Both the admission loop and the Chiller
    /// late-acquisition path go through here.
    ///
    /// Each `(home, tuple)` is locked **once**, in the strongest mode any
    /// cold operation of the footprint `ops` needs (as [`Worker::lm_lock_once`]
    /// does for the switch lock manager); a later operation on the tuple
    /// reuses the held grant's handle. So a row lock is never re-entered or
    /// upgraded.
    fn admit_op(
        &self,
        txn_id: TxnId,
        ops: &[TxnOp],
        op: &TxnOp,
        state: &mut HostTxnState,
    ) -> Result<Option<RowHandle>> {
        if let Some((_, held)) = state.locks.iter().rev().find(|(home, g)| *home == op.home && g.tuple() == op.tuple) {
            return Ok(held.row().cloned());
        }
        let exclusive = op.kind.is_write()
            || state
                .order
                .iter()
                .any(|&i| ops[i].kind.is_write() && ops[i].tuple == op.tuple && ops[i].home == op.home);
        let mode = if exclusive { LockMode::Exclusive } else { LockMode::Shared };
        let grant = self.shared.node(op.home).admit(txn_id, op.tuple, mode, self.shared.config.cc)?;
        let row = grant.row().cloned();
        state.locks.push((op.home, grant));
        Ok(row)
    }

    /// Replaces an operation's operand with an already-known value — the
    /// host-side resolution of an `operand_from` dependency that crosses a
    /// switch sub-transaction boundary. Mirrors the host path's
    /// `operand_override` semantics for each kind.
    fn patch_operand(kind: OpKind, value: u64) -> OpKind {
        match kind {
            OpKind::Write(_) => OpKind::Write(value),
            OpKind::Add(_) => OpKind::Add(value as i64),
            OpKind::FetchAdd(_) => OpKind::FetchAdd(value as i64),
            OpKind::CondSub(_) => OpKind::CondSub(value),
            other => other,
        }
    }

    /// Aborts the host transaction and records the abort in the statistics.
    fn fail_host(&mut self, txn_id: TxnId, state: &mut HostTxnState, stats: &mut WorkerStats, e: &Error) {
        self.abort_host(txn_id, state, stats);
        stats.record_abort(e.abort_reason().unwrap_or(AbortReason::ConstraintViolation));
    }

    /// LM-Switch: makes sure this transaction holds the switch lock of
    /// `tuple`, asking for it at most once. The switch lock manager is
    /// ownerless — it cannot tell a transaction's second request from a
    /// rival's — so a read-then-write of one tuple that asked per operation
    /// (shared, then exclusive) would be denied by its own grant. The
    /// footprint is deduplicated here instead: one request per lock id, in
    /// the strongest mode any cold operation of the transaction needs, one
    /// `switch_locks` entry, one release. A denial is a lock conflict.
    fn lm_lock_once(&mut self, req: &TxnRequest, tuple: TupleId, state: &mut HostTxnState) -> Result<()> {
        let lock_id = HotSetIndex::lock_id(tuple);
        if state.switch_locks.iter().any(|&(held, _)| held == lock_id) {
            return Ok(());
        }
        let exclusive = state.order.iter().any(|&i| {
            let op = &req.ops[i];
            op.kind.is_write() && HotSetIndex::lock_id(op.tuple) == lock_id
        });
        if !self.lm_acquire(lock_id, exclusive)? {
            return Err(Error::lock_conflict(tuple));
        }
        state.switch_locks.push((lock_id, exclusive));
        Ok(())
    }

    /// Acquires a lock on the switch lock manager (LM-Switch baseline).
    fn lm_acquire(&mut self, lock_id: u64, exclusive: bool) -> Result<bool> {
        let token = self.next_token();
        let req = p4db_switch::LockRequest { origin: self.endpoint, token, lock_id, exclusive };
        // The LM-Switch baseline is a single-switch comparison arm: the lock
        // manager always runs on switch 0.
        if !self.shared.fabric.send(self.endpoint, EndpointId::Switch(SwitchId(0)), SwitchMessage::LockRequest(req)) {
            return Err(Error::Disconnected);
        }
        let deadline = Instant::now() + self.shared.config.switch_timeout.unwrap_or(WEDGED_SWITCH_TIMEOUT);
        let grant = |m| match m {
            SwitchMessage::LockReply(r) if r.token == token => Some(r.granted),
            _ => None,
        };
        let granted = match self.mailbox.recv_until(deadline, grant) {
            Ok(granted) => granted,
            // Under fault injection a lost lock request or grant is
            // treated as a denial: the transaction aborts under NO_WAIT
            // and retries with a fresh request. (If the grant itself was
            // lost the switch-side lock leaks — contention on that tuple
            // then shows up as repeated denials, a degradation the chaos
            // harness tolerates.) Without faults, fail loudly.
            Err(RecvTimeoutError::Timeout) if self.shared.config.switch_timeout.is_some() => return Ok(false),
            Err(_) => return Err(Error::Disconnected),
        };
        // The grant/deny message: a full wire RTT on top of the request's
        // ½ RTT, like every switch exchange (ROADMAP item 13).
        self.shared.latency.impose_switch_rtt_wire();
        Ok(granted)
    }

    /// Rolls a host (sub-)transaction back: undoes writes through their
    /// admission-resolved handles (no table lookups), removes inserted rows,
    /// releases all locks and logs the abort.
    fn abort_host(&mut self, txn_id: TxnId, state: &mut HostTxnState, _stats: &mut WorkerStats) {
        for (row, before) in state.undo.drain(..).rev() {
            row.write(before);
        }
        for (home, tuple) in state.inserted.drain(..).rev() {
            if let Ok(table) = self.shared.node(home).table(tuple.table) {
                table.remove(tuple.key);
            }
        }
        // The staged cold writes go into the log *with* the abort, as one
        // atomic group — mirroring the commit path. Genesis replay treats
        // them as undone either way, but checkpoint-tail recovery depends on
        // the before-images: a fuzzy shard scan may have captured this
        // transaction's dirty value, and only the logged group lets the tail
        // rewrite the row back to its pre-transaction image.
        let wal = self.coordinator_storage().wal();
        wal.append_group(state.cold_writes.drain(..).chain(std::iter::once(LogRecord::Abort { txn: txn_id })));
        self.release_all(txn_id, state);
    }

    /// Releases every lock still held by the transaction (host locks and,
    /// in LM-Switch mode, the switch lock manager). A row lock goes back in
    /// one atomic step through the handle recorded at admission; keys
    /// without a row go back to their node's lock table in grouped
    /// per-shard batches, reusing the admission-time hashes.
    fn release_all(&mut self, txn_id: TxnId, state: &mut HostTxnState) {
        // Keys are batched per run of same-node grants (footprints are
        // usually single-node, so this is one batch; an interleaved
        // multi-node footprint just produces a few more).
        let mut at = 0;
        while at < state.locks.len() {
            let home = state.locks[at].0;
            state.release_scratch.clear();
            while at < state.locks.len() && state.locks[at].0 == home {
                let grant = &state.locks[at].1;
                grant.release_row();
                state.release_scratch.extend(grant.key());
                at += 1;
            }
            if !state.release_scratch.is_empty() {
                self.shared.node(home).locks().release_batch(txn_id, &state.release_scratch);
            }
        }
        // A row lock has no owner list to check a second release against:
        // each grant goes back exactly once.
        state.locks.clear();
        for &(lock_id, exclusive) in &state.switch_locks {
            // Releases are asynchronous (no grant to wait for); the switch
            // processes them at line rate.
            self.shared.fabric.send_no_latency(
                self.endpoint,
                EndpointId::Switch(SwitchId(0)),
                SwitchMessage::LockRelease(p4db_switch::LockRelease { lock_id, exclusive }),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4db_common::faults::{BlackholeFault, FaultInjector, FaultPlan};
    use p4db_common::{LatencyConfig, TableId};
    use p4db_storage::recover_switch_state;
    use p4db_switch::{start_switch, ControlPlane, RegisterMemory, SwitchHandle};
    use std::collections::HashMap;

    const TBL: TableId = TableId(0);

    struct Rig {
        shared: Arc<EngineShared>,
        _switch: SwitchHandle,
        control_plane: ControlPlane,
    }

    fn t(key: u64) -> TupleId {
        TupleId::new(TBL, key)
    }

    /// Two-node cluster at zero latency; keys 0..10 are hot (offloaded in
    /// P4DB mode), keys 100.. are cold. Key k lives on node (k % 2).
    fn rig(mode: SystemMode, cc: CcScheme) -> Rig {
        rig_on(mode, cc, 2, LatencyConfig::zero())
    }

    /// A latency profile whose node round trip (8 ms) dwarfs every software
    /// cost and every scheduling hiccup of a loaded test machine.
    fn slow_rack() -> LatencyConfig {
        LatencyConfig { one_way_ns: 2_000_000, sw_overhead_ns: 0 }
    }

    /// The rig on `num_nodes` nodes under `latency`: key k lives on node
    /// (k % num_nodes).
    fn rig_on(mode: SystemMode, cc: CcScheme, num_nodes: u16, latency: LatencyConfig) -> Rig {
        rig_with(mode, cc, num_nodes, latency, None)
    }

    /// The P4DB rig with switch 0 dark from the first packet: every
    /// switch-bound message is dropped, so every switch sub-transaction times
    /// out (after 20 ms) and commits in doubt.
    fn dark_rig() -> Rig {
        let plan = FaultPlan {
            blackhole: Some(BlackholeFault { switch: 0, after_messages: 1, heal_after_drops: 0 }),
            ..FaultPlan::quiet(1)
        };
        let mut rig = rig_with(SystemMode::P4db, CcScheme::NoWait, 2, LatencyConfig::zero(), Some(plan));
        let config = &mut Arc::get_mut(&mut rig.shared).expect("rig shared is unshared").config;
        config.switch_timeout = Some(Duration::from_millis(20));
        rig
    }

    fn rig_with(
        mode: SystemMode,
        cc: CcScheme,
        num_nodes: u16,
        latency: LatencyConfig,
        faults: Option<FaultPlan>,
    ) -> Rig {
        let switch_config = p4db_switch::SwitchConfig::tiny();
        let latency = LatencyModel::new(latency);
        let fabric: Fabric<SwitchMessage> = match faults {
            Some(plan) => Fabric::with_faults(latency.clone(), Arc::new(FaultInjector::new(&plan))),
            None => Fabric::new(latency.clone()),
        };
        let memory = Arc::new(RegisterMemory::new(switch_config));
        let mut control_plane = ControlPlane::new(switch_config, Arc::clone(&memory));

        let nodes: Vec<Arc<NodeStorage>> = (0..num_nodes)
            .map(|n| {
                let storage = NodeStorage::new(NodeId(n), [TBL]);
                let table = storage.table(TBL).unwrap();
                // Hot rows 0..10 and cold rows 100..120, initial value 100.
                for k in (0..10u64).chain(100..120) {
                    if k % num_nodes as u64 == n as u64 {
                        table.insert(k, Value::scalar(100));
                    }
                }
                Arc::new(storage)
            })
            .collect();

        // Offload the hot set (all modes build the index; only P4DB stores
        // data on the switch, LM-Switch uses identity only).
        for k in 0..10u64 {
            control_plane.offload_into(t(k), (k % 4) as u8, ((k / 4) % 2) as u8, 8, 100).unwrap();
        }
        let hot_index = match mode {
            SystemMode::P4db => HotSetIndex::from_control_plane(&control_plane),
            SystemMode::LmSwitch => HotSetIndex::from_tuples((0..10).map(t)),
            SystemMode::NoSwitch => HotSetIndex::empty(),
        };

        let switch = start_switch(switch_config, memory, fabric.clone());
        let shared = Arc::new(EngineShared {
            nodes,
            latency,
            fabric,
            hot_index: HotIndexCell::new(hot_index),
            config: EngineConfig::new(mode, cc, switch_config),
            mvcc: MvccState::default(),
            health: SwitchHealth::new(1, num_nodes as usize, false),
        });
        Rig { shared, _switch: switch, control_plane }
    }

    fn worker(rig: &Rig, node: u16, id: u16) -> Worker {
        Worker::new(Arc::clone(&rig.shared), NodeId(node), WorkerId(id))
    }

    fn home(key: u64) -> NodeId {
        NodeId((key % 2) as u16)
    }

    fn op(key: u64, kind: OpKind) -> TxnOp {
        TxnOp::new(t(key), kind, home(key))
    }

    #[test]
    fn hot_txn_runs_entirely_on_the_switch() {
        let rig = rig(SystemMode::P4db, CcScheme::NoWait);
        let mut w = worker(&rig, 0, 0);
        let mut stats = WorkerStats::new();
        let req = TxnRequest::new(vec![op(1, OpKind::Add(5)), op(2, OpKind::Read)]);
        let out = w.execute(&req, &mut stats).unwrap();
        assert_eq!(out.class, TxnClass::Hot);
        assert!(out.gid.is_some());
        assert_eq!(out.results[0], 105);
        assert_eq!(out.results[1], 100);
        // Host rows are untouched; the switch is authoritative for hot data.
        assert_eq!(rig.shared.node(home(1)).table(TBL).unwrap().read(1).unwrap().switch_word(), 100);
        assert_eq!(rig.control_plane.read_tuple(t(1)), Some(105));
        // No host locks were taken.
        assert_eq!(rig.shared.node(NodeId(0)).locked_count(), 0);
        assert_eq!(rig.shared.node(NodeId(1)).locked_count(), 0);
        assert_eq!(stats.switch_single_pass, 1);
    }

    #[test]
    fn execute_batch_pipelines_all_hot_requests() {
        let rig = rig(SystemMode::P4db, CcScheme::NoWait);
        let mut w = worker(&rig, 0, 0);
        let mut stats = WorkerStats::new();
        // Mixed batch: two all-hot requests (pipelined), one cold, one empty.
        let reqs = [
            TxnRequest::new(vec![op(1, OpKind::Add(5)), op(2, OpKind::Read)]),
            TxnRequest::new(vec![op(100, OpKind::Add(7))]),
            TxnRequest::new(vec![op(3, OpKind::FetchAdd(10))]),
            TxnRequest::new(vec![]),
        ];
        let mut results = Vec::new();
        w.execute_batch(&reqs, &mut stats, &mut results);
        assert_eq!(results.len(), 4);
        let hot_a = results[0].as_ref().unwrap();
        assert_eq!(hot_a.class, TxnClass::Hot);
        assert_eq!(hot_a.results, vec![105, 100]);
        assert!(hot_a.gid.is_some());
        let cold = results[1].as_ref().unwrap();
        assert_eq!(cold.class, TxnClass::Cold);
        assert_eq!(cold.results, vec![107]);
        let hot_b = results[2].as_ref().unwrap();
        assert_eq!(hot_b.class, TxnClass::Hot);
        assert_eq!(hot_b.results, vec![100], "FetchAdd returns the previous value");
        assert_ne!(hot_a.gid, hot_b.gid, "every batched transaction gets its own GID");
        assert_eq!(results[3].as_ref().unwrap().class, TxnClass::Cold);
        assert_eq!(rig.control_plane.read_tuple(t(1)), Some(105));
        assert_eq!(rig.control_plane.read_tuple(t(3)), Some(110));
        assert_eq!(stats.switch_single_pass, 2);
        // The WAL holds intents + results for both hot txns (group-committed)
        // and the cold write + commit for the cold one.
        let records = rig.shared.node(NodeId(0)).wal().records();
        assert_eq!(records.iter().filter(|r| matches!(r, LogRecord::SwitchIntent { .. })).count(), 2);
        assert_eq!(records.iter().filter(|r| matches!(r, LogRecord::SwitchResult { .. })).count(), 2);
        // Both intents precede both results: intents hit stable storage
        // before the frame left the node.
        let first_result = records.iter().position(|r| matches!(r, LogRecord::SwitchResult { .. })).unwrap();
        let last_intent = records.iter().rposition(|r| matches!(r, LogRecord::SwitchIntent { .. })).unwrap();
        assert!(last_intent < first_result);
    }

    #[test]
    fn a_warm_txn_in_a_share_leaves_its_queued_batchmates_alone() {
        let rig = rig(SystemMode::P4db, CcScheme::NoWait);
        let mut w = worker(&rig, 0, 0);
        let mut stats = WorkerStats::new();
        // The warm request's sub-transaction rides the share's exchange
        // between its batchmates' hot ones.
        let reqs = [
            TxnRequest::new(vec![op(1, OpKind::Add(5))]),
            TxnRequest::new(vec![op(3, OpKind::Add(10)), op(100, OpKind::Add(1))]),
            TxnRequest::new(vec![op(2, OpKind::Add(7))]),
        ];
        let mut out = Vec::new();
        w.execute_batch(&reqs, &mut stats, &mut out);
        let out: Vec<TxnOutcome> = out.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(out.iter().map(|o| o.class).collect::<Vec<_>>(), [TxnClass::Hot, TxnClass::Warm, TxnClass::Hot]);
        assert_eq!(out.iter().map(|o| o.results.clone()).collect::<Vec<_>>(), [vec![105], vec![110, 101], vec![107]]);
        assert!(out.iter().all(|o| o.gid.is_some() && !o.in_doubt));
        // Each sub-transaction executed exactly once.
        assert_eq!(rig._switch.stats().txns_executed, 3);
        assert_eq!(rig.control_plane.read_tuple(t(1)), Some(105));
        assert_eq!(rig.control_plane.read_tuple(t(3)), Some(110));
        assert_eq!(rig.control_plane.read_tuple(t(2)), Some(107));
        assert_eq!(rig.shared.node(NodeId(0)).locked_count(), 0);
    }

    /// Switch messages so far: a frame out and its reply charge one each.
    fn switch_messages(rig: &Rig) -> u64 {
        rig.shared.latency.stats().snapshot().0
    }

    #[test]
    fn a_share_of_three_warm_requests_travels_in_one_frame() {
        let rig = rig(SystemMode::P4db, CcScheme::NoWait);
        let mut w = worker(&rig, 0, 0);
        let mut stats = WorkerStats::new();
        let reqs = [
            TxnRequest::new(vec![op(1, OpKind::Add(1)), op(100, OpKind::Add(1))]),
            TxnRequest::new(vec![op(102, OpKind::Add(2)), op(2, OpKind::Add(2))]),
            TxnRequest::new(vec![op(3, OpKind::Add(3)), op(104, OpKind::Add(3))]),
        ];
        let mut out = Vec::new();
        w.execute_batch(&reqs, &mut stats, &mut out);
        let out: Vec<TxnOutcome> = out.into_iter().map(|r| r.unwrap()).collect();
        assert!(out.iter().all(|o| o.class == TxnClass::Warm && o.gid.is_some() && !o.in_doubt));
        assert_eq!(out.iter().map(|o| o.results.clone()).collect::<Vec<_>>(), [[101, 101], [102, 102], [103, 103]]);
        assert_eq!(switch_messages(&rig), 2, "one frame out, one reply");
        assert_eq!(rig._switch.stats().txns_executed, 3);
        // The log: three intents, three results, then each cold part's
        // writes and commit record.
        let log = rig.shared.node(NodeId(0)).wal().records();
        let kinds: Vec<&str> = log
            .iter()
            .map(|r| match r {
                LogRecord::SwitchIntent { .. } => "intent",
                LogRecord::SwitchResult { .. } => "result",
                LogRecord::ColdWrite { .. } => "write",
                LogRecord::Commit { .. } => "commit",
                _ => "other",
            })
            .collect();
        let expected = ["intent", "intent", "intent", "result", "result", "result"]
            .into_iter()
            .chain(["write", "commit"].repeat(3))
            .collect::<Vec<_>>();
        assert_eq!(kinds, expected);
        assert_eq!(rig.shared.node(NodeId(0)).locked_count(), 0);
        let cold = |k| rig.shared.node(NodeId(0)).table(TBL).unwrap().read(k).unwrap().switch_word();
        assert_eq!([cold(100), cold(102), cold(104)], [101, 102, 103]);
    }

    #[test]
    fn a_distributed_warm_and_a_local_hot_request_multicast_once() {
        let rig = rig(SystemMode::P4db, CcScheme::NoWait);
        let mut w = worker(&rig, 0, 0);
        let mut stats = WorkerStats::new();
        // The warm request's cold tuple lives on node 1: it is distributed,
        // so the switch multicasts its decision. The hot one is local.
        let reqs = [
            TxnRequest::new(vec![op(1, OpKind::Add(5))]),
            TxnRequest::new(vec![op(3, OpKind::Add(10)), op(101, OpKind::Add(1))]),
        ];
        let mut out = Vec::new();
        w.execute_batch(&reqs, &mut stats, &mut out);
        assert!(out.iter().all(|r| r.is_ok()), "{out:?}");
        assert_eq!(switch_messages(&rig), 2, "one frame out, one reply");
        // The switch multicasts after it replies: stop it so every decision
        // it made is counted.
        let Rig { shared, _switch: switch, .. } = rig;
        switch.shutdown();
        assert_eq!(shared.latency.stats().snapshot().2, 1, "exactly one multicast");
    }

    /// Two warm requests of one share write cold tuple 100. The first parks
    /// holding its lock; the second conflicts with it. Returns the second's
    /// error and how long the share took.
    fn warm_batchmates_on_one_cold_tuple(rig: &Rig, w: &mut Worker) -> (Error, Duration) {
        let reqs = [
            TxnRequest::new(vec![op(1, OpKind::Add(1)), op(100, OpKind::Add(1))]),
            TxnRequest::new(vec![op(2, OpKind::Add(2)), op(100, OpKind::Add(2))]),
        ];
        let mut stats = WorkerStats::new();
        let mut out = Vec::new();
        let started = Instant::now();
        w.execute_batch(&reqs, &mut stats, &mut out);
        let took = started.elapsed();
        let first = out[0].as_ref().expect("the first commits");
        assert_eq!(first.results, [101, 101]);
        assert!(first.gid.is_some());
        let err = out[1].clone().expect_err("the second conflicts with its parked batchmate");
        assert_eq!(stats.aborts_total(), 1);
        for n in 0..2 {
            assert_eq!(rig.shared.node(NodeId(n)).locked_count(), 0, "node {n} holds a lock");
        }
        // Its retry runs after the share, like the session's.
        let retry = w.execute(&reqs[1], &mut stats).expect("the retry commits");
        assert_eq!(retry.results, [102, 103]);
        assert_eq!(rig.control_plane.read_tuple(t(2)), Some(102), "the aborted attempt never reached the switch");
        assert_eq!(rig.shared.node(NodeId(0)).table(TBL).unwrap().read(100).unwrap().switch_word(), 103);
        (err, took)
    }

    #[test]
    fn a_warm_batchmate_conflicting_with_a_parked_one_aborts_under_no_wait() {
        let rig = rig(SystemMode::P4db, CcScheme::NoWait);
        let mut w = worker(&rig, 0, 0);
        let (err, _) = warm_batchmates_on_one_cold_tuple(&rig, &mut w);
        assert_eq!(err.abort_reason(), Some(AbortReason::LockConflict { tuple: t(100) }));
    }

    #[test]
    fn a_warm_batchmate_conflicting_with_a_parked_one_dies_under_wait_die() {
        let rig = rig(SystemMode::P4db, CcScheme::WaitDie);
        let mut w = worker(&rig, 0, 0);
        let (err, took) = warm_batchmates_on_one_cold_tuple(&rig, &mut w);
        assert!(matches!(err.abort_reason(), Some(AbortReason::WaitDieDied { tuple, .. }) if tuple == t(100)), "{err}");
        // The younger batchmate died at once: it never waited for the lock
        // table's 100 ms timeout on a transaction its own thread parked.
        assert_eq!(rig.shared.node(NodeId(0)).locks().wait_stats().waits, 0);
        assert!(took < Duration::from_millis(50), "the share took {took:?}");
    }

    // --- The in-doubt ledger: every switch-bound message is lost ----------

    /// Takes the ledger, asserting one entry per lost sub-transaction, each
    /// fenced past its intent's index in the coordinator WAL and carrying no
    /// result.
    fn parked(rig: &Rig, entries: usize) -> Vec<InDoubtEntry> {
        let ledger = rig.shared.health.take_ledger();
        assert_eq!(ledger.len(), entries, "one entry per sub-transaction");
        let log = rig.shared.node(NodeId(0)).wal().records();
        for entry in &ledger {
            let logged = |r: &LogRecord| matches!(r, LogRecord::SwitchIntent { txn, .. } if *txn == entry.txn);
            let intent = log.iter().position(logged).expect("the intent is logged");
            assert!(entry.logged_at > intent, "fence {} is below the intent at {intent}", entry.logged_at);
            assert!(!log.iter().any(|r| matches!(r, LogRecord::SwitchResult { txn, .. } if *txn == entry.txn)));
        }
        ledger
    }

    /// Replays a ledger entry's operations on their own, as the resolver
    /// does: an ordinary transaction, here on a fresh host-only rig.
    fn assert_replays(ops: &[TxnOp], expected: &[u64]) {
        let host = rig(SystemMode::NoSwitch, CcScheme::NoWait);
        let out = worker(&host, 0, 0).execute(&TxnRequest::new(ops.to_vec()), &mut WorkerStats::new());
        assert_eq!(out.expect("the entry replays on its own").results, expected);
    }

    #[test]
    fn a_lost_hot_txn_parks_one_self_contained_entry() {
        let rig = dark_rig();
        let mut w = worker(&rig, 0, 0);
        let mut stats = WorkerStats::new();
        let req = TxnRequest::new(vec![op(1, OpKind::Read), op(2, OpKind::Add(0)).with_operand_from(0)]);
        let out = w.execute(&req, &mut stats).unwrap();
        assert!(out.in_doubt && out.gid.is_none());
        assert_eq!(stats.switch_timeouts, 1);
        let ledger = parked(&rig, 1);
        assert_eq!(ledger[0].ops, req.ops, "all-hot: operand sources are already positions");
        assert_replays(&ledger[0].ops, &[100, 200]);
    }

    #[test]
    fn a_lost_share_of_three_parks_one_entry_each() {
        let rig = dark_rig();
        let mut w = worker(&rig, 0, 0);
        let mut stats = WorkerStats::new();
        let reqs = [
            TxnRequest::new(vec![op(1, OpKind::Add(5))]),
            TxnRequest::new(vec![op(2, OpKind::Read), op(3, OpKind::Add(0)).with_operand_from(0)]),
            TxnRequest::new(vec![op(4, OpKind::FetchAdd(1))]),
        ];
        let mut out = Vec::new();
        w.execute_batch(&reqs, &mut stats, &mut out);
        assert!(out.iter().all(|r| r.as_ref().is_ok_and(|o| o.in_doubt)), "{out:?}");
        assert_eq!(stats.switch_timeouts, 3);
        let ledger = parked(&rig, 3);
        assert!(ledger.iter().all(|e| e.logged_at == ledger[0].logged_at), "one group commit, one fence");
        for (entry, req) in ledger.iter().zip(&reqs) {
            assert_eq!(entry.ops, req.ops);
        }
        assert_replays(&ledger[0].ops, &[105]);
        assert_replays(&ledger[1].ops, &[100, 200]);
        assert_replays(&ledger[2].ops, &[100]);
    }

    #[test]
    fn a_lost_warm_txn_parks_its_patched_literal() {
        let rig = dark_rig();
        let mut w = worker(&rig, 0, 0);
        let mut stats = WorkerStats::new();
        // The first hot add takes its operand from a cold read: the exchange
        // carries the read's value as a literal. The second takes it from a
        // hot read, which sits at position 1 of the sub-transaction.
        let req = TxnRequest::new(vec![
            op(100, OpKind::Read),
            op(1, OpKind::Add(0)).with_operand_from(0),
            op(2, OpKind::Read),
            op(3, OpKind::Add(0)).with_operand_from(2),
        ]);
        let out = w.execute(&req, &mut stats).unwrap();
        assert_eq!(out.class, TxnClass::Warm);
        assert!(out.in_doubt && out.gid.is_none());
        let ledger = parked(&rig, 1);
        let expected = [op(1, OpKind::Add(100)), op(2, OpKind::Read), op(3, OpKind::Add(0)).with_operand_from(1)];
        assert_eq!(ledger[0].ops, expected, "the patched literal, and operand sources as positions");
        assert_replays(&ledger[0].ops, &[200, 100, 200]);
        assert_eq!(rig.shared.node(NodeId(0)).locked_count(), 0);
        assert_eq!(rig.shared.node(NodeId(1)).locked_count(), 0);
    }

    #[test]
    fn cold_txn_updates_host_rows_under_locks() {
        let rig = rig(SystemMode::P4db, CcScheme::NoWait);
        let mut w = worker(&rig, 0, 0);
        let mut stats = WorkerStats::new();
        let req = TxnRequest::new(vec![op(100, OpKind::Add(7)), op(101, OpKind::Read)]);
        let out = w.execute(&req, &mut stats).unwrap();
        assert_eq!(out.class, TxnClass::Cold);
        assert_eq!(out.results[0], 107);
        assert_eq!(out.results[1], 100);
        assert_eq!(rig.shared.node(home(100)).table(TBL).unwrap().read(100).unwrap().switch_word(), 107);
        // All locks released after commit.
        assert_eq!(rig.shared.node(NodeId(0)).locked_count(), 0);
        assert_eq!(rig.shared.node(NodeId(1)).locked_count(), 0);
        // WAL has the cold write and the commit record.
        let records = rig.shared.node(NodeId(0)).wal().records();
        assert!(records.iter().any(|r| matches!(r, LogRecord::ColdWrite { .. })));
        assert!(records.iter().any(|r| matches!(r, LogRecord::Commit { .. })));
    }

    #[test]
    fn no_switch_mode_treats_hot_tuples_as_cold() {
        let rig = rig(SystemMode::NoSwitch, CcScheme::NoWait);
        let mut w = worker(&rig, 0, 0);
        let mut stats = WorkerStats::new();
        let req = TxnRequest::new(vec![op(1, OpKind::Add(5))]);
        let out = w.execute(&req, &mut stats).unwrap();
        assert_eq!(out.class, TxnClass::Cold);
        assert!(out.gid.is_none());
        assert_eq!(rig.shared.node(home(1)).table(TBL).unwrap().read(1).unwrap().switch_word(), 105);
    }

    #[test]
    fn warm_txn_spans_switch_and_host_and_commits_both() {
        let rig = rig(SystemMode::P4db, CcScheme::NoWait);
        let mut w = worker(&rig, 0, 0);
        let mut stats = WorkerStats::new();
        // Hot op on tuple 3 (switch) plus cold ops on 100 (node 0) and 101
        // (node 1) → a distributed warm transaction.
        let req = TxnRequest::new(vec![op(3, OpKind::Add(10)), op(100, OpKind::Add(1)), op(101, OpKind::Write(55))]);
        let out = w.execute(&req, &mut stats).unwrap();
        assert_eq!(out.class, TxnClass::Warm);
        assert!(out.gid.is_some());
        assert_eq!(out.results[0], 110);
        assert_eq!(rig.control_plane.read_tuple(t(3)), Some(110));
        assert_eq!(rig.shared.node(home(100)).table(TBL).unwrap().read(100).unwrap().switch_word(), 101);
        assert_eq!(rig.shared.node(home(101)).table(TBL).unwrap().read(101).unwrap().switch_word(), 55);
        assert_eq!(rig.shared.node(NodeId(0)).locked_count(), 0);
        assert_eq!(rig.shared.node(NodeId(1)).locked_count(), 0);
    }

    #[test]
    fn lock_conflict_aborts_and_rolls_back_under_no_wait() {
        let rig = rig(SystemMode::P4db, CcScheme::NoWait);
        let mut w1 = worker(&rig, 0, 0);
        let mut w2 = worker(&rig, 0, 1);
        let mut stats = WorkerStats::new();

        // w1 manually holds an exclusive lock on tuple 101 (node 1).
        let blocker = TxnId::compose(1, NodeId(1), WorkerId(9));
        let held = rig.shared.node(NodeId(1)).admit(blocker, t(101), LockMode::Exclusive, CcScheme::NoWait).unwrap();

        // w2's transaction writes 100 first (succeeds) then 101 (conflicts).
        let req = TxnRequest::new(vec![op(100, OpKind::Add(5)), op(101, OpKind::Add(5))]);
        let err = w2.execute(&req, &mut stats).unwrap_err();
        assert!(err.is_abort());
        assert_eq!(stats.aborts_total(), 1);
        // The write to 100 was rolled back and its lock released.
        assert_eq!(rig.shared.node(home(100)).table(TBL).unwrap().read(100).unwrap().switch_word(), 100);
        assert!(!rig.shared.node(NodeId(0)).is_locked(t(100)));

        // Cleanup so w1 is not reported unused.
        rig.shared.node(NodeId(1)).release(blocker, &held);
        let _ = &mut w1;
    }

    #[test]
    fn constraint_violation_aborts_on_the_host_path() {
        let rig = rig(SystemMode::NoSwitch, CcScheme::NoWait);
        let mut w = worker(&rig, 0, 0);
        let mut stats = WorkerStats::new();
        // Balance is 100; withdrawing 150 must abort and leave state intact.
        let req = TxnRequest::new(vec![op(100, OpKind::CondSub(150)), op(102, OpKind::Add(1))]);
        let err = w.execute(&req, &mut stats).unwrap_err();
        assert_eq!(err.abort_reason(), Some(AbortReason::ConstraintViolation));
        assert_eq!(rig.shared.node(home(100)).table(TBL).unwrap().read(100).unwrap().switch_word(), 100);
        assert_eq!(rig.shared.node(home(102)).table(TBL).unwrap().read(102).unwrap().switch_word(), 100);
    }

    #[test]
    fn constrained_write_on_the_switch_does_not_abort() {
        let rig = rig(SystemMode::P4db, CcScheme::NoWait);
        let mut w = worker(&rig, 0, 0);
        let mut stats = WorkerStats::new();
        // Overdraft on a hot tuple: the switch simply does not apply it.
        let req = TxnRequest::new(vec![op(1, OpKind::CondSub(500))]);
        let out = w.execute(&req, &mut stats).unwrap();
        assert_eq!(out.class, TxnClass::Hot);
        assert_eq!(out.results[0], 100, "value unchanged");
        assert_eq!(rig.control_plane.read_tuple(t(1)), Some(100));
        assert_eq!(stats.aborts_total(), 0);
    }

    #[test]
    fn insert_over_existing_key_rebinds_later_ops_to_the_fresh_row() {
        let rig = rig(SystemMode::NoSwitch, CcScheme::NoWait);
        let mut w = worker(&rig, 0, 0);
        let mut stats = WorkerStats::new();
        // Key 100 exists (value 100); the Insert *replaces* its row. The Add
        // was admission-resolved against the old row and must be re-pointed
        // at the fresh one, or it would update a detached row.
        let req = TxnRequest::new(vec![op(100, OpKind::Insert(7)), op(100, OpKind::Add(1))]);
        let out = w.execute(&req, &mut stats).unwrap();
        assert_eq!(out.results, vec![7, 8]);
        assert_eq!(rig.shared.node(home(100)).table(TBL).unwrap().read(100).unwrap().switch_word(), 8);
        assert_eq!(rig.shared.node(NodeId(0)).locked_count(), 0);
    }

    // --- Inserts and the row lock -----------------------------------------

    #[test]
    fn a_row_inserted_by_an_open_transaction_is_locked_to_others() {
        let rig = rig(SystemMode::P4db, CcScheme::NoWait);
        let mut w = worker(&rig, 0, 0);
        let mut stats = WorkerStats::new();
        // The warm inserter parks, still open, until the share's exchange;
        // its batchmate reads the row the insert created meanwhile.
        let reqs = [
            TxnRequest::new(vec![op(1, OpKind::Add(1)), op(5000, OpKind::Insert(42))]),
            TxnRequest::new(vec![op(5000, OpKind::Read)]),
        ];
        let mut out = Vec::new();
        w.execute_batch(&reqs, &mut stats, &mut out);
        assert_eq!(out[0].as_ref().expect("the inserter commits").results, [101, 42]);
        let err = out[1].clone().expect_err("the uncommitted row is born locked");
        assert_eq!(err.abort_reason(), Some(AbortReason::LockConflict { tuple: t(5000) }));
        for n in 0..2 {
            assert_eq!(rig.shared.node(NodeId(n)).locked_count(), 0, "node {n} holds a lock");
        }
        assert_eq!(w.execute(&reqs[1], &mut stats).expect("the retry commits").results, [42]);
    }

    #[test]
    fn the_row_of_an_aborted_insert_cannot_be_locked() {
        // Chiller acquires the contended tuple 3 late, after the insert ran.
        // A younger rival holds it, so the older inserter waits under
        // WAIT_DIE with its inserted row in the table, until the row it
        // waits for is replaced (retired): then it aborts.
        let mut rig = rig(SystemMode::NoSwitch, CcScheme::WaitDie);
        Arc::get_mut(&mut rig.shared).expect("rig shared is unshared").config.chiller = true;
        rig.shared.hot_index.swap(Arc::new(HotSetIndex::from_tuples((0..10).map(t))));
        let rival = TxnId::compose(1000, NodeId(1), WorkerId(9));
        let held = rig.shared.node(NodeId(1)).admit(rival, t(3), LockMode::Exclusive, CcScheme::WaitDie).unwrap();
        let table = rig.shared.node(NodeId(0)).table(TBL).unwrap();
        let req = TxnRequest::new(vec![op(5000, OpKind::Insert(7)), op(3, OpKind::Add(1))]);
        let (handle, result) = std::thread::scope(|scope| {
            let mut w = worker(&rig, 0, 0);
            let inserter = scope.spawn(move || w.execute(&req, &mut WorkerStats::new()));
            let handle = loop {
                if let Some(row) = table.get(5000) {
                    break row;
                }
                assert!(!inserter.is_finished(), "the inserted row was never seen");
                std::thread::yield_now();
            };
            // The rival's acquisition, then the inserter's of tuple 3: it
            // holds the handle of the row it waits for. Replacing the row
            // any earlier would hand the inserter the fresh, free row.
            while rig.shared.node(NodeId(1)).locks().acquisition_count() < 2 {
                assert!(!inserter.is_finished(), "the inserter never asked for tuple 3");
                std::thread::yield_now();
            }
            rig.shared.node(NodeId(1)).table(TBL).unwrap().insert(3, Value::scalar(100));
            (handle, inserter.join().unwrap())
        });
        assert_eq!(result.unwrap_err().abort_reason(), Some(AbortReason::LockConflict { tuple: t(3) }));
        assert!(table.get(5000).is_none(), "the abort removed the row");
        // A rival that resolved the row before the abort cannot lock it.
        let late = TxnId::compose(1, NodeId(0), WorkerId(8));
        let locks = rig.shared.node(NodeId(0)).locks();
        let err = locks.acquire_row(handle.lock(), late, t(5000), LockMode::Shared, CcScheme::WaitDie).unwrap_err();
        assert_eq!(err.abort_reason(), Some(AbortReason::LockConflict { tuple: t(5000) }));
        rig.shared.node(NodeId(1)).release(rival, &held);
        for n in 0..2 {
            assert_eq!(rig.shared.node(NodeId(n)).locked_count(), 0, "node {n} holds a lock");
        }
    }

    #[test]
    fn an_insert_over_a_live_key_retires_the_old_row() {
        let rig = rig(SystemMode::NoSwitch, CcScheme::NoWait);
        let storage = rig.shared.node(NodeId(0));
        // A rival resolved key 100 before the insert replaced its row.
        let old = storage.table(TBL).unwrap().get(100).unwrap();
        let mut w = worker(&rig, 0, 0);
        w.execute(&TxnRequest::new(vec![op(100, OpKind::Insert(7))]), &mut WorkerStats::new()).unwrap();
        let rival = TxnId::compose(1, NodeId(0), WorkerId(9));
        let err = storage.locks().acquire_row(old.lock(), rival, t(100), LockMode::Exclusive, CcScheme::NoWait);
        assert_eq!(err.unwrap_err().abort_reason(), Some(AbortReason::LockConflict { tuple: t(100) }));
        // Its retry resolves the key again, to the fresh row.
        let grant = storage.admit(rival, t(100), LockMode::Exclusive, CcScheme::NoWait).unwrap();
        let fresh = grant.row().expect("the fresh row");
        assert!(Arc::ptr_eq(fresh, &storage.table(TBL).unwrap().get(100).unwrap()));
        assert_eq!(fresh.read().switch_word(), 7);
        storage.release(rival, &grant);
        assert_eq!(storage.locked_count(), 0);
    }

    #[test]
    fn a_footprint_locks_each_tuple_once_in_its_strongest_mode() {
        let rig = rig(SystemMode::P4db, CcScheme::NoWait);
        let mut w = worker(&rig, 0, 0);
        let mut stats = WorkerStats::new();
        let locks = rig.shared.node(NodeId(0)).locks();
        let before = locks.acquisition_count();
        // The warm transaction reads, then writes, tuple 100, and parks
        // holding its lock; its batchmate only reads the tuple.
        let reqs = [
            TxnRequest::new(vec![op(100, OpKind::Read), op(1, OpKind::Add(1)), op(100, OpKind::Add(1))]),
            TxnRequest::new(vec![op(100, OpKind::Read)]),
        ];
        let mut out = Vec::new();
        w.execute_batch(&reqs, &mut stats, &mut out);
        assert_eq!(out[0].as_ref().expect("no self-conflict").results, [100, 101, 101]);
        assert_eq!(locks.acquisition_count() - before, 2, "one acquisition per transaction, not per operation");
        let err = out[1].clone().expect_err("the parked lock is exclusive from the read on");
        assert_eq!(err.abort_reason(), Some(AbortReason::LockConflict { tuple: t(100) }));
        assert_eq!(rig.shared.node(NodeId(0)).locked_count(), 0);
    }

    #[test]
    fn the_prefetch_pass_adds_no_acquisition() {
        let rig = rig(SystemMode::P4db, CcScheme::NoWait);
        let mut w = worker(&rig, 0, 0);
        let (local, remote) = (rig.shared.node(NodeId(0)), rig.shared.node(NodeId(1)));
        // A rival holds keys 100 and 101 in the lock table's map. Both have
        // rows, so admission locks them in the row and never sees the map.
        let rival = TxnId::compose(1, NodeId(0), WorkerId(9));
        local.locks().acquire(rival, t(100), LockMode::Exclusive, CcScheme::NoWait).unwrap();
        remote.locks().acquire(rival, t(101), LockMode::Exclusive, CcScheme::NoWait).unwrap();
        let before = [local.locks().acquisition_count(), remote.locks().acquisition_count()];
        // A remote-home read, a read-then-write of one local tuple and a
        // local insert: three distinct `(home, tuple)`s over two nodes.
        let req = TxnRequest::new(vec![
            op(101, OpKind::Read),
            op(100, OpKind::Read),
            op(5000, OpKind::Insert(7)),
            op(100, OpKind::Add(1)),
        ]);
        let out = w.execute(&req, &mut WorkerStats::new()).expect("no map entry for a key with a row");
        assert_eq!(out.results[..2], [100, 100]);
        let after = [local.locks().acquisition_count(), remote.locks().acquisition_count()];
        assert_eq!(after[0] - before[0], 2, "tuples 100 and 5000 once each on the home node");
        assert_eq!(after[1] - before[1], 1, "tuple 101 once on the remote node");
        assert_eq!(local.table(TBL).unwrap().read(100).unwrap().switch_word(), 101);
        assert_eq!(local.table(TBL).unwrap().read(5000).unwrap().switch_word(), 7);
        local.locks().release(rival, t(100));
        remote.locks().release(rival, t(101));
        assert_eq!(local.locked_count() + remote.locked_count(), 0);
    }

    #[test]
    fn insert_goes_to_the_host_even_in_p4db_mode() {
        let rig = rig(SystemMode::P4db, CcScheme::NoWait);
        let mut w = worker(&rig, 0, 0);
        let mut stats = WorkerStats::new();
        let req = TxnRequest::new(vec![TxnOp::new(t(5000), OpKind::Insert(42), NodeId(0))]);
        let out = w.execute(&req, &mut stats).unwrap();
        assert_eq!(out.class, TxnClass::Cold);
        assert_eq!(rig.shared.node(NodeId(0)).table(TBL).unwrap().read(5000).unwrap().switch_word(), 42);
    }

    #[test]
    fn lm_switch_mode_serialises_hot_tuples_through_the_switch_lock_manager() {
        let rig = rig(SystemMode::LmSwitch, CcScheme::NoWait);
        let mut w1 = worker(&rig, 0, 0);
        let mut w2 = worker(&rig, 1, 0);
        let mut stats = WorkerStats::new();

        // Both touch hot tuple 1. Sequentially they must both succeed (locks
        // are released after commit), and the data lives on the host.
        let req = TxnRequest::new(vec![op(1, OpKind::Add(5))]);
        w1.execute(&req, &mut stats).unwrap();
        w2.execute(&req, &mut stats).unwrap();
        assert_eq!(rig.shared.node(home(1)).table(TBL).unwrap().read(1).unwrap().switch_word(), 110);
        // The switch data plane never executed a transaction in LM mode.
        assert_eq!(rig._switch.stats().txns_executed, 0);
        assert!(rig._switch.stats().lm_requests >= 2);
    }

    #[test]
    fn lm_switch_read_then_write_of_one_hot_tuple_commits_on_the_first_attempt() {
        // The switch lock manager is ownerless: asked per operation, the
        // write's exclusive request would be denied by the read's own shared
        // grant. The engine asks once per lock id, at the strongest mode.
        let rig = rig(SystemMode::LmSwitch, CcScheme::NoWait);
        let mut w = worker(&rig, 0, 0);
        let mut stats = WorkerStats::new();
        // Amalgamate's shape: read a hot balance, then overwrite it.
        let req = TxnRequest::new(vec![op(1, OpKind::Read), op(1, OpKind::Write(0)), op(2, OpKind::Read)]);
        let out = w.execute(&req, &mut stats).expect("no self-conflict");
        assert_eq!(out.results, vec![100, 0, 100]);
        assert_eq!(stats.aborts_lock_conflict, 0);
        // One request per lock id (tuples 1 and 2), not one per operation.
        assert_eq!(rig._switch.stats().lm_requests, 2);
        // The one exclusive grant was released once: a rival gets the lock.
        let mut rival = worker(&rig, 1, 0);
        rival.execute(&TxnRequest::new(vec![op(1, OpKind::Add(5))]), &mut stats).expect("lock was released");
        assert_eq!(rig.shared.node(home(1)).table(TBL).unwrap().read(1).unwrap().switch_word(), 5);
    }

    #[test]
    fn wait_die_lets_the_older_transaction_wait_and_commit() {
        let rig = rig(SystemMode::NoSwitch, CcScheme::WaitDie);
        let shared = Arc::clone(&rig.shared);
        // A younger transaction holds the lock briefly on another thread; the
        // older transaction (smaller sequence from worker 0, seq 1) waits.
        let blocker = TxnId::compose(1000, NodeId(0), WorkerId(5));
        let held = shared.node(NodeId(1)).admit(blocker, t(101), LockMode::Exclusive, CcScheme::WaitDie).unwrap();
        let release = std::thread::spawn({
            let shared = Arc::clone(&shared);
            move || {
                std::thread::sleep(Duration::from_millis(20));
                shared.node(NodeId(1)).release(blocker, &held);
            }
        });
        let mut w = worker(&rig, 0, 0);
        let mut stats = WorkerStats::new();
        let req = TxnRequest::new(vec![op(101, OpKind::Add(3))]);
        let out = w.execute(&req, &mut stats).unwrap();
        assert_eq!(out.results[0], 103);
        release.join().unwrap();
    }

    #[test]
    fn switch_state_is_recoverable_from_the_node_logs() {
        let rig = rig(SystemMode::P4db, CcScheme::NoWait);
        let mut w = worker(&rig, 0, 0);
        let mut stats = WorkerStats::new();
        for _ in 0..5 {
            w.execute(&TxnRequest::new(vec![op(1, OpKind::Add(10))]), &mut stats).unwrap();
        }
        // Crash the switch data and recover it from the logs.
        let initial: HashMap<TupleId, u64> = (0..10).map(|k| (t(k), 100u64)).collect();
        let logs: Vec<_> = rig.shared.nodes.iter().map(|n| n.wal().records()).collect();
        let outcome = recover_switch_state(&initial, &logs);
        assert_eq!(outcome.values[&t(1)], 150);
        assert_eq!(outcome.inconsistencies, 0);
        assert_eq!(outcome.completed, 5);
        assert_eq!(rig.control_plane.read_tuple(t(1)), Some(150), "recovered value matches live switch");
    }

    #[test]
    fn chiller_mode_reorders_and_releases_contended_locks_early() {
        let mut cfg_rig = rig(SystemMode::NoSwitch, CcScheme::NoWait);
        // Chiller needs hot-tuple identity even though data stays on the host.
        Arc::get_mut(&mut cfg_rig.shared).map(|_| ()).unwrap_or(());
        let shared = Arc::new(EngineShared {
            nodes: cfg_rig.shared.nodes.clone(),
            latency: cfg_rig.shared.latency.clone(),
            fabric: cfg_rig.shared.fabric.clone(),
            hot_index: HotIndexCell::new(HotSetIndex::from_tuples((0..10).map(t))),
            config: EngineConfig {
                chiller: true,
                ..EngineConfig::new(SystemMode::NoSwitch, CcScheme::NoWait, cfg_rig.shared.config.switch_config)
            },
            mvcc: MvccState::default(),
            health: SwitchHealth::new(1, 2, false),
        });
        let mut w = Worker::new(shared.clone(), NodeId(0), WorkerId(7));
        let mut stats = WorkerStats::new();
        let req = TxnRequest::new(vec![op(1, OpKind::Add(5)), op(100, OpKind::Add(5))]);
        let out = w.execute(&req, &mut stats).unwrap();
        assert_eq!(out.class, TxnClass::Cold);
        assert_eq!(shared.node(home(1)).table(TBL).unwrap().read(1).unwrap().switch_word(), 105);
        assert_eq!(shared.node(NodeId(0)).locked_count(), 0);

        // A contended tuple touched twice: the early release must wait for
        // the *last* access (releasing after the first would let the second
        // run unlocked), and the repeated access sees the first one's write.
        let req = TxnRequest::new(vec![op(3, OpKind::Add(5)), op(100, OpKind::Read), op(3, OpKind::Add(7))]);
        let out = w.execute(&req, &mut stats).unwrap();
        assert_eq!(out.results[0], 105);
        assert_eq!(out.results[2], 112);
        assert_eq!(shared.node(home(3)).table(TBL).unwrap().read(3).unwrap().switch_word(), 112);
        assert_eq!(shared.node(NodeId(0)).locked_count(), 0);
        assert_eq!(shared.node(NodeId(1)).locked_count(), 0);
    }

    // --- The wire: one round trip per participant --------------------------

    /// Runs `req` and reports, beside its result, how many node round trips
    /// of `slow_rack()` it took (wall time ÷ 8 ms) and how many node messages
    /// it added. The count is the verdict a noisy box cannot bend; the time
    /// shows the rounds really were concurrent.
    fn on_the_wire(rig: &Rig, w: &mut Worker, req: &TxnRequest) -> (Result<TxnOutcome>, f64, u64) {
        let (_, before, _) = rig.shared.latency.stats().snapshot();
        let started = Instant::now();
        let result = w.execute(req, &mut WorkerStats::new());
        let rtts = started.elapsed().as_secs_f64() / slow_rack().node_rtt().as_secs_f64();
        let (_, after, _) = rig.shared.latency.stats().snapshot();
        (result, rtts, after - before)
    }

    #[test]
    fn four_remote_ops_on_one_participant_cost_two_round_trips() {
        let rig = rig_on(SystemMode::NoSwitch, CcScheme::NoWait, 2, slow_rack());
        let mut w = worker(&rig, 0, 0);
        // A distributed YCSB transaction's shape: every other operation is
        // homed on the one other node.
        let req = TxnRequest::new(vec![
            op(101, OpKind::Add(1)),
            op(100, OpKind::Read),
            op(103, OpKind::Add(1)),
            op(105, OpKind::Add(1)),
            op(107, OpKind::Read),
        ]);
        let (result, rtts, msgs) = on_the_wire(&rig, &mut w, &req);
        assert_eq!(result.unwrap().results, vec![101, 100, 101, 101, 100]);
        assert_eq!(msgs, 4, "one admission request + reply, one prepare + vote");
        assert!((2.0..3.0).contains(&rtts), "admission + vote are two round trips, took {rtts:.2}");
    }

    #[test]
    fn two_remote_participants_are_asked_concurrently() {
        let rig = rig_on(SystemMode::NoSwitch, CcScheme::NoWait, 3, slow_rack());
        let mut w = worker(&rig, 0, 0);
        // Key k lives on node k % 3: two operations on node 1, two on node 2.
        let at = |k: u64, kind| TxnOp::new(t(k), kind, NodeId((k % 3) as u16));
        let req = TxnRequest::new(vec![
            at(100, OpKind::Add(1)),
            at(101, OpKind::Add(1)),
            at(103, OpKind::Add(1)),
            at(104, OpKind::Add(1)),
            at(102, OpKind::Read),
        ]);
        let (result, rtts, msgs) = on_the_wire(&rig, &mut w, &req);
        assert_eq!(result.unwrap().results, vec![101, 101, 101, 101, 100]);
        assert_eq!(msgs, 8, "a request + reply and a prepare + vote per participant");
        assert!((2.0..3.0).contains(&rtts), "two participants still cost two round trips, took {rtts:.2}");
        for n in 0..3 {
            assert_eq!(rig.shared.node(NodeId(n)).locked_count(), 0);
        }
    }

    #[test]
    fn a_snapshot_read_of_four_remote_rows_costs_one_round_trip() {
        let rig = rig_on(SystemMode::NoSwitch, CcScheme::NoWait, 2, slow_rack());
        let mut w = worker(&rig, 0, 0);
        let req = TxnRequest::new(vec![
            op(101, OpKind::Read),
            op(103, OpKind::Read),
            op(105, OpKind::Read),
            op(107, OpKind::Read),
        ])
        .into_read_only();
        let (result, rtts, msgs) = on_the_wire(&rig, &mut w, &req);
        let out = result.unwrap();
        assert_eq!(out.results, vec![100; 4]);
        assert!(out.snapshot.is_some(), "still served by the lock-free snapshot path");
        assert_eq!(msgs, 2, "one read request + reply, no vote");
        assert!((1.0..2.0).contains(&rtts), "took {rtts:.2} round trips");
    }

    #[test]
    fn a_remote_conflict_aborts_after_one_round_trip() {
        let rig = rig_on(SystemMode::NoSwitch, CcScheme::NoWait, 2, slow_rack());
        let mut w = worker(&rig, 0, 0);
        // A rival holds the participant's *third* tuple: the first two remote
        // locks and the local one are granted, then admission is denied.
        let rival = TxnId::compose(1, NodeId(1), WorkerId(9));
        let held = rig.shared.node(NodeId(1)).admit(rival, t(105), LockMode::Exclusive, CcScheme::NoWait).unwrap();
        let req = TxnRequest::new(vec![
            op(100, OpKind::Add(1)),
            op(101, OpKind::Add(1)),
            op(103, OpKind::Add(1)),
            op(105, OpKind::Add(1)),
            op(107, OpKind::Add(1)),
        ]);
        let (result, rtts, msgs) = on_the_wire(&rig, &mut w, &req);
        assert!(result.unwrap_err().is_abort());
        assert_eq!(msgs, 2, "the denial rides the one admission reply; nothing is voted on");
        assert!((1.0..2.0).contains(&rtts), "took {rtts:.2} round trips");
        rig.shared.node(NodeId(1)).release(rival, &held);
        for n in 0..2 {
            assert_eq!(rig.shared.node(NodeId(n)).locked_count(), 0, "node {n} leaked a lock");
        }
        let log = rig.shared.node(NodeId(0)).wal().records();
        assert!(matches!(log.last(), Some(LogRecord::Abort { .. })), "the coordinator logs the abort");
    }

    #[test]
    fn chiller_late_set_on_one_participant_adds_one_round_trip() {
        let mut rig = rig_on(SystemMode::NoSwitch, CcScheme::NoWait, 2, slow_rack());
        Arc::get_mut(&mut rig.shared).expect("rig shared is unshared").config.chiller = true;
        // Chiller needs hot-tuple identity even though data stays on the host.
        rig.shared.hot_index.swap(Arc::new(HotSetIndex::from_tuples((0..10).map(t))));
        let mut w = worker(&rig, 0, 0);
        // One cold and two contended tuples, all on node 1: the contended
        // pair is acquired late, after the cold admission round.
        let req = TxnRequest::new(vec![op(1, OpKind::Add(1)), op(101, OpKind::Add(1)), op(3, OpKind::Add(1))]);
        let (result, rtts, msgs) = on_the_wire(&rig, &mut w, &req);
        assert_eq!(result.unwrap().results, vec![101, 101, 101]);
        assert_eq!(msgs, 6, "admission, one late round for both contended tuples, vote");
        assert!((3.0..4.0).contains(&rtts), "took {rtts:.2} round trips");
        assert_eq!(rig.shared.node(NodeId(1)).locked_count(), 0);
    }

    #[test]
    fn a_warm_txn_counts_its_switch_subtxn_once() {
        let rig = rig_on(SystemMode::P4db, CcScheme::NoWait, 2, slow_rack());
        let mut w = worker(&rig, 0, 0);
        let mut stats = WorkerStats::new();
        // One hot and one cold operation, both homed on the coordinator: the
        // switch exchange (1.5 wire RTTs) is nearly all of the wall time.
        let req = TxnRequest::new(vec![op(2, OpKind::Add(1)), op(100, OpKind::Add(1))]);
        let started = Instant::now();
        let out = w.execute(&req, &mut stats).unwrap();
        let wall = started.elapsed().as_nanos() as f64;
        assert_eq!(out.class, TxnClass::Warm);
        let phases = stats.phase_ns.iter().sum::<u64>() as f64;
        assert!(phases <= 1.05 * wall, "phases sum to {:.2}x the wall time of execute", phases / wall);
        assert!(phases >= 0.5 * wall, "phases cover only {:.2}x the wall time of execute", phases / wall);
    }
}
