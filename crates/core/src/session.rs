//! Client sessions and the per-node open-loop submission pool.
//!
//! The pool decouples *submitting* a transaction from *executing* it: every
//! node owns `workers_per_node` executor threads fed by one MPMC queue (the
//! in-house `p4db_common::channel`), so any number of lightweight [`Session`]
//! handles can drive the cluster concurrently — closed-loop via
//! [`Session::execute`], or open-loop via [`Session::submit`] +
//! [`Session::wait`] — without owning a worker thread. The benchmark driver
//! (`Cluster::run_for`) is itself a session client, so the closed-loop
//! measurement path and the ad-hoc client path are the same code.
//!
//! **A node-local snapshot read runs where it is submitted.** A read-only
//! request whose rows are all homed on the session's node takes no lock,
//! cannot abort and crosses no wire, so [`Session::submit_request`] serves it
//! on the caller's thread through the session's own [`SnapshotReader`] — the
//! one body a pool [`Worker`] runs too — and files its reply into the
//! session's queue before returning. Every other request (writes,
//! remote-home reads, a read of a switch-resident tuple in P4DB mode) goes
//! to the pool.
//!
//! The pool is **work-conserving**: an executor that wakes on a queue holding
//! `q` jobs takes its fair share, `⌈q ÷ executors⌉` of them (at least 1, at
//! most `batch_size`), not everything it can carry. A drained share runs its
//! cold and warm jobs one after the other, so a job in a hoarded batch would
//! wait behind its batchmates' execution while the sibling executors sleep on
//! an empty queue — with `W` executors and at most `W` jobs queued every job
//! gets its own thread instead. With one executor per node the share *is* the
//! queue, which keeps the batches (and the one switch exchange
//! [`Worker::execute_batch`] gives their hot and warm jobs) as deep as the
//! clients' in-flight window allows.
//!
//! **Replies travel per session, not per job.** Each [`Session`] owns one
//! `ReplyQueue` (a mutex, a condvar and a short vec of `(ticket, reply)`),
//! and every job it submits carries a `ReplyTo` naming that queue and the
//! job's ticket, so a submission allocates no channel. An executor files the
//! replies of a drained share together once the share is done: one lock and
//! at most one wake-up per distinct session. A job whose first attempt must
//! retry first files every batchmate reply already settled, so a commit never
//! waits out a sibling's backoff schedule. A waiter parks with its ticket
//! recorded, and a filing wakes the queue only when it carries a ticket
//! somebody is parked on: a FIFO client of an 8-executor node is not woken by
//! every reply that overtakes the one it waits for.

use p4db_common::channel::{unbounded, Receiver, Sender};
use p4db_common::rand_util::FastRng;
use p4db_common::simtime::wait_for;
use p4db_common::stats::WorkerStats;
use p4db_common::sync::unpoison;
use p4db_common::{Error, NodeId, Result, SystemMode, WorkerId};
use p4db_net::{EndpointId, RecvOutcome};
use p4db_switch::{IntentStatusRequest, SwitchMessage};
use p4db_txn::{EngineShared, HotSetIndex, OpKind, SnapshotReader, Txn, TxnOp, TxnOutcome, TxnRequest, Worker};
use p4db_workloads::PartitionMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering as AtomicOrdering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::cluster::ClusterConfig;

/// Default cap on execution attempts per submitted transaction, matching the
/// closed-loop driver's historical retry budget.
pub const DEFAULT_MAX_ATTEMPTS: u32 = 1000;

/// Floor of the retry backoff base. The base is latency-proportional (half a
/// one-way hop), which is zero at zero modelled latency: without a floor a
/// conflict with a lock holder that lost its CPU burns a whole retry budget
/// in microseconds. From 2 µs the jittered exponential schedule of
/// `retry_until_settled` spends at least 350 µs over a budget of 16 attempts.
const MIN_BACKOFF: Duration = Duration::from_micros(2);

/// One unit of work travelling from a session to a pool executor.
pub(crate) enum Job {
    Execute(ExecJob),
    /// Poison pill: the receiving executor exits without re-queueing it.
    Shutdown,
}

/// A submitted transaction and where its reply goes.
pub(crate) struct ExecJob {
    req: TxnRequest,
    max_attempts: u32,
    /// Cooperative cancellation: checked between retry attempts so a
    /// closed-loop driver's stop signal ends a retry storm promptly.
    cancel: Option<Arc<AtomicBool>>,
    reply: ReplyTo,
}

/// What an executor files for one job: the outcome plus everything the
/// engine recorded while producing it (phases, switch passes, aborts, the
/// commit itself). The waiting session folds the stats into its own counters,
/// which is how `run_for` assembles a complete [`p4db_common::stats::RunStats`]
/// without workers that outlive the measurement window.
pub(crate) struct JobReply {
    pub result: Result<TxnOutcome>,
    pub stats: WorkerStats,
}

/// The reply queue one [`Session`] owns. Executors file its jobs' replies
/// here, [`Session::wait`] takes them out by ticket, and a dropped
/// [`Pending`] has its reply discarded on arrival, so nothing accumulates.
pub(crate) struct ReplyQueue {
    state: Mutex<ReplyState>,
    /// Signalled by a filing that carries a ticket in `ReplyState::parked`.
    filed: Condvar,
    /// Returns from the condvar wait, so a test can count wake-ups.
    #[cfg(test)]
    wakeups: std::sync::atomic::AtomicUsize,
}

#[derive(Default)]
struct ReplyState {
    /// Filed replies not taken yet, in no particular order.
    replies: Vec<(u64, JobReply)>,
    /// Tickets a thread is parked on in [`ReplyQueue::take`].
    parked: Vec<u64>,
    /// Tickets whose [`Pending`] was dropped before their reply arrived.
    abandoned: Vec<u64>,
    /// Statistics of dropped tickets' replies, folded into the owning
    /// session at its next `wait` / `take_stats`.
    abandoned_stats: Option<WorkerStats>,
}

impl ReplyState {
    /// Files one reply, or discards it (keeping its statistics) when its
    /// ticket was dropped. Returns whether a thread is parked on it.
    fn deliver(&mut self, ticket: u64, reply: JobReply) -> bool {
        if let Some(i) = self.abandoned.iter().position(|&t| t == ticket) {
            self.abandoned.swap_remove(i);
            self.abandoned_stats.get_or_insert_with(WorkerStats::new).merge(&reply.stats);
            return false;
        }
        self.replies.push((ticket, reply));
        self.parked.contains(&ticket)
    }
}

impl ReplyQueue {
    fn new() -> Self {
        ReplyQueue {
            state: Mutex::new(ReplyState::default()),
            filed: Condvar::new(),
            #[cfg(test)]
            wakeups: Default::default(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, ReplyState> {
        // Every critical section leaves the vecs consistent between pushes
        // and removals, so a poisoned state is safe to adopt.
        unpoison(self.state.lock())
    }

    /// Blocks until `ticket`'s reply is filed and takes it. `adopt` receives
    /// the statistics of dropped tickets filed so far.
    fn take(&self, ticket: u64, adopt: Option<&mut WorkerStats>) -> JobReply {
        let mut state = self.lock();
        let reply = loop {
            if let Some(i) = state.replies.iter().position(|(t, _)| *t == ticket) {
                break state.replies.swap_remove(i).1;
            }
            state.parked.push(ticket);
            state = unpoison(self.filed.wait(state));
            #[cfg(test)]
            self.wakeups.fetch_add(1, AtomicOrdering::Relaxed);
            if let Some(i) = state.parked.iter().position(|&t| t == ticket) {
                state.parked.swap_remove(i);
            }
        };
        if let (Some(stats), Some(abandoned)) = (adopt, state.abandoned_stats.take()) {
            stats.merge(&abandoned);
        }
        reply
    }

    /// Records a dropped ticket: a reply already filed is discarded now, a
    /// later one on arrival; either way its statistics are kept.
    fn abandon(&self, ticket: u64) {
        let mut state = self.lock();
        match state.replies.iter().position(|(t, _)| *t == ticket) {
            Some(i) => {
                let (_, reply) = state.replies.swap_remove(i);
                state.abandoned_stats.get_or_insert_with(WorkerStats::new).merge(&reply.stats);
            }
            None => state.abandoned.push(ticket),
        }
    }

    fn take_abandoned_stats(&self) -> Option<WorkerStats> {
        self.lock().abandoned_stats.take()
    }
}

/// Where one job's reply goes: its session's queue and its ticket. Dropped
/// unfiled — the pool shut down with the job still queued — it files
/// `Err(Disconnected)` instead, so the ticket's `wait` still returns.
pub(crate) struct ReplyTo {
    /// `None` once the reply is filed.
    queue: Option<Arc<ReplyQueue>>,
    ticket: u64,
}

impl Drop for ReplyTo {
    fn drop(&mut self) {
        if let Some(queue) = self.queue.take() {
            let reply = JobReply { result: Err(Error::Disconnected), stats: WorkerStats::new() };
            if queue.lock().deliver(self.ticket, reply) {
                queue.filed.notify_all();
            }
        }
    }
}

/// Files every settled reply, grouped by session: one lock per distinct
/// queue, and one wake-up only if the queue has a waiter parked on one of
/// the tickets filed. Leaves `settled` empty (its capacity is reused).
fn file_replies(settled: &mut Vec<(ReplyTo, JobReply)>) {
    while let Some((mut to, reply)) = settled.pop() {
        let Some(queue) = to.queue.take() else { continue };
        let mut state = queue.lock();
        let mut wake = state.deliver(to.ticket, reply);
        let mut i = 0;
        while i < settled.len() {
            if settled[i].0.queue.as_ref().is_some_and(|q| Arc::ptr_eq(q, &queue)) {
                let (mut to, reply) = settled.swap_remove(i);
                to.queue = None;
                wake |= state.deliver(to.ticket, reply);
            } else {
                i += 1;
            }
        }
        drop(state);
        if wake {
            queue.filed.notify_all();
        }
    }
}

/// Process-wide worker-endpoint allocator: every spawned executor gets a
/// fresh endpoint id so repeated cluster builds in one process never collide
/// on the fabric registry. The id space is a `u16` (it is embedded in
/// transaction ids and switch packets); exhausting it is reported as
/// [`Error::WorkerIdSpaceExhausted`] instead of silently wrapping into a
/// fabric endpoint collision panic.
/// Allocates a fabric endpoint for out-of-band control traffic (supervisor
/// probes, in-doubt status queries). The high bit keeps these clear of real
/// node ids and of the recovery drill's fixed `NodeId(u16::MAX)` resend
/// endpoint; a fresh id per caller sidesteps the fabric's duplicate-
/// registration panic across repeated cluster builds in one process.
pub(crate) fn rogue_endpoint() -> EndpointId {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    let n = NEXT.fetch_add(1, AtomicOrdering::Relaxed);
    EndpointId::Node(NodeId(0x8000 | (n as u16 & 0x3FFF)))
}

fn next_worker_slot() -> Result<WorkerId> {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    let slot = NEXT.fetch_add(1, AtomicOrdering::Relaxed);
    if slot > u16::MAX as u32 {
        // Park the counter just past the limit so it cannot creep towards a
        // u32 wrap-around over billions of failed calls.
        NEXT.store(u16::MAX as u32 + 1, AtomicOrdering::Relaxed);
        return Err(Error::WorkerIdSpaceExhausted);
    }
    Ok(WorkerId(slot as u16))
}

/// The per-node executor pool. Owned by the cluster; dropped before the
/// switch handle so in-flight jobs can still complete.
pub(crate) struct SubmissionPool {
    /// One submission queue per node, indexed by `NodeId`.
    queues: Vec<Sender<Job>>,
    threads_per_node: u16,
    handles: Vec<JoinHandle<()>>,
}

impl SubmissionPool {
    /// Spawns `workers_per_node` executor threads per node, each owning a
    /// registered fabric endpoint.
    pub(crate) fn spawn(shared: &Arc<EngineShared>, config: &ClusterConfig) -> Result<SubmissionPool> {
        let backoff = Duration::from_nanos(config.latency.one_way_ns / 2).max(MIN_BACKOFF);
        let batch_size = config.batch_size.max(1) as usize;
        let mut queues = Vec::with_capacity(config.num_nodes as usize);
        let mut handles = Vec::new();
        for node in 0..config.num_nodes {
            let (tx, rx) = unbounded();
            for slot in 0..config.workers_per_node {
                let wid = next_worker_slot()?;
                let worker = Worker::new(Arc::clone(shared), NodeId(node), wid);
                let rx = rx.clone();
                // Executors drain jobs in batches; a drained share can
                // contain other executors' poison pills, which are
                // re-forwarded through this sender (see `executor_loop`).
                let pill_tx = tx.clone();
                let rng = FastRng::new(config.seed ^ ((wid.0 as u64) << 32) ^ 0xC0FF_EE00);
                let thread = std::thread::Builder::new()
                    .name(format!("p4db-exec-{node}.{slot}"))
                    .spawn(move || executor_loop(worker, rx, pill_tx, batch_size, backoff, rng))
                    .expect("spawn executor thread");
                handles.push(thread);
            }
            queues.push(tx);
        }
        Ok(SubmissionPool { queues, threads_per_node: config.workers_per_node, handles })
    }

    pub(crate) fn queue(&self, node: NodeId) -> Option<&Sender<Job>> {
        self.queues.get(node.index())
    }
}

impl Drop for SubmissionPool {
    fn drop(&mut self) {
        // One poison pill per executor; the MPMC queue delivers each exactly
        // once, and jobs enqueued before the pills are still served.
        for queue in &self.queues {
            for _ in 0..self.threads_per_node {
                let _ = queue.send(Job::Shutdown);
            }
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Body of one executor thread: drain this executor's fair share of the
/// queued jobs — `⌈queued ÷ executors⌉`, at most `batch_size`, decided by
/// [`Receiver::recv_share`] under the queue's lock (every executor of the
/// node owns exactly one receiver, so the channel's receiver count is the
/// executor count) — run it through [`Worker::execute_batch`] (the hot
/// parts of the all-hot and warm jobs in one switch exchange: intents
/// group-committed, packets framed, replies drained together; the host work
/// one job at a time), take each job to
/// commit or to its retry budget, then file the share's replies together:
/// one lock and at most one wake-up per distinct session.
///
/// The share, not the whole queue: its cold and warm jobs run serially, so
/// every job an executor takes beyond its share waits behind its batchmates'
/// execution while a sibling idles. A retry does not hold the share's other
/// replies: every job the first pass decides is settled before any retry
/// starts, and each retrying job files what is settled before it backs off
/// ([`retry_until_settled`]). A drained share can legally be all pills,
/// leaving no work: an executor must never panic over its share's
/// composition, since a dead executor strands every job queued behind it.
fn executor_loop(
    mut worker: Worker,
    rx: Receiver<Job>,
    pill_tx: Sender<Job>,
    batch_size: usize,
    backoff: Duration,
    mut rng: FastRng,
) {
    // Reused across shares, so a steady stream of jobs allocates none of them.
    let mut jobs = Vec::with_capacity(batch_size);
    let mut work = Vec::with_capacity(batch_size);
    let mut firsts = Vec::with_capacity(batch_size);
    let mut retrying = Vec::new();
    let mut settled = Vec::with_capacity(batch_size);
    while rx.recv_share(batch_size, &mut jobs).is_ok() {
        let mut pills = 0usize;
        for job in jobs.drain(..) {
            match job {
                Job::Execute(job) => work.push(job),
                Job::Shutdown => pills += 1,
            }
        }
        let started = Instant::now();
        // Borrowed, not cloned: the jobs keep ownership of their requests
        // for the per-job retry path below.
        let mut stats = WorkerStats::new();
        worker.execute_batch(work.iter().map(|job: &ExecJob| &job.req), &mut stats, &mut firsts);
        // The share's engine-phase statistics ride with the first job (a
        // dropped ticket's statistics still reach its session, so totals
        // stay exact); commits and latencies are recorded per job.
        for (job, first) in work.drain(..).zip(firsts.drain(..)) {
            let stats = std::mem::take(&mut stats);
            retrying.extend(settle(job, started, first, stats, 0, &mut settled));
        }
        for retry in retrying.drain(..) {
            retry_until_settled(&mut worker, &mut rng, backoff, retry, started, &mut settled);
        }
        file_replies(&mut settled);
        if pills > 0 {
            // A drained share may have swallowed pills addressed to other
            // executors: keep one for ourselves, hand the rest back.
            for _ in 1..pills {
                let _ = pill_tx.send(Job::Shutdown);
            }
            break;
        }
    }
}

/// A job whose last attempt aborted with a retry left in its budget.
struct Retry {
    job: ExecJob,
    stats: WorkerStats,
    aborts: u32,
}

/// Settles a job on `attempt` — a commit, an abort no retry can change
/// (`AbortReason::is_retryable`), an exhausted budget, a cancelled session
/// or a shutting-down cluster — by adding its reply to `settled`, or hands
/// it back as a [`Retry`]. `aborts` counts the job's earlier aborts.
fn settle(
    job: ExecJob,
    started: Instant,
    attempt: Result<TxnOutcome>,
    mut stats: WorkerStats,
    aborts: u32,
    settled: &mut Vec<(ReplyTo, JobReply)>,
) -> Option<Retry> {
    let result = match attempt {
        Ok(outcome) => {
            stats.record_commit(outcome.class, started.elapsed());
            Ok(outcome)
        }
        Err(Error::Abort(reason)) => {
            let aborts = aborts + 1;
            let cancelled = job.cancel.as_ref().is_some_and(|c| c.load(AtomicOrdering::Relaxed));
            if reason.is_retryable() && aborts < job.max_attempts && !cancelled {
                return Some(Retry { job, stats, aborts });
            }
            Err(Error::Abort(reason))
        }
        Err(e) => Err(e), // cluster shutting down
    };
    settled.push((job.reply, JobReply { result, stats }));
    None
}

/// Re-runs an aborted job through [`Worker::execute`], a share of one, until
/// [`settle`] settles it. Every reply already in `settled`
/// is filed before the first backoff, so a batchmate's commit never waits
/// out this job's retry schedule.
fn retry_until_settled(
    worker: &mut Worker,
    rng: &mut FastRng,
    backoff: Duration,
    mut retry: Retry,
    started: Instant,
    settled: &mut Vec<(ReplyTo, JobReply)>,
) {
    file_replies(settled);
    loop {
        // Jittered exponential backoff, capped at 32× the base: a contended
        // tuple (or a whole switch's traffic demoted to the host path) backs
        // its retry storm off instead of hammering the lock table in
        // lock-step. The yield lets a lock holder that shares this CPU run
        // before the (short, busy-waited) backoff spins on it.
        let scale = 1u32 << (retry.aborts - 1).min(5);
        std::thread::yield_now();
        wait_for((backoff * scale).mul_f64(0.5 + rng.gen_f64()));
        retry.stats.retry_rounds += 1;
        let attempt = worker.execute(&retry.job.req, &mut retry.stats);
        match settle(retry.job, started, attempt, retry.stats, retry.aborts, settled) {
            Some(next) => retry = next,
            None => return,
        }
    }
}

/// Outcomes of one [`Session::resolve_in_doubt`] pass over the in-doubt
/// ledger. A clean run ends with `unresolved == 0`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResolverReport {
    /// Intents whose effect is already durable: logged at or below the
    /// switch's recovery fence (folded into the WAL reconstruction), or
    /// confirmed executed by the switch's audit log.
    pub resolved_committed: u64,
    /// Intents the switch confirmed it never executed; their footprint was
    /// re-run as an ordinary host transaction (a clean abort also settles
    /// the entry — the history simply never contains it).
    pub resolved_retried: u64,
    /// Intents whose status could not be learned within the retry budget;
    /// re-parked on the ledger for a later pass.
    pub unresolved: u64,
}

impl ResolverReport {
    /// Folds another pass's counters into this one.
    pub fn merge(&mut self, other: &ResolverReport) {
        self.resolved_committed += other.resolved_committed;
        self.resolved_retried += other.resolved_retried;
        self.unresolved += other.unresolved;
    }
}

/// A ticket for a transaction submitted open-loop; redeem it with
/// [`Session::wait`]. Dropping the ticket abandons the result (the
/// transaction still executes, and its statistics still reach the
/// submitting session's counters).
#[must_use = "redeem the ticket with Session::wait to observe the outcome"]
pub struct Pending {
    /// The submitting session's reply queue; `None` once redeemed.
    queue: Option<Arc<ReplyQueue>>,
    ticket: u64,
}

impl Drop for Pending {
    fn drop(&mut self) {
        if let Some(queue) = self.queue.take() {
            queue.abandon(self.ticket);
        }
    }
}

/// A client handle for submitting transactions to one node of a cluster.
///
/// Sessions are cheap (a queue handle plus a partition map) and independent:
/// create as many as needed, move them across threads freely. A submitted
/// transaction is executed by the node's executor pool through the full
/// hot/cold/warm classification, switch path and 2PC of the engine — unless
/// it is a read-only transaction whose rows all live on the session's node,
/// which the session reads at a snapshot on the caller's thread (see
/// [`Session::submit_request`]). Either way its reply reaches the caller
/// through the session's reply queue, and the session accumulates the
/// statistics of everything it has waited on.
///
/// ```
/// use p4db_common::{NodeId, TupleId};
/// use p4db_core::Cluster;
/// use p4db_txn::Txn;
/// use p4db_workloads::{Workload, Ycsb, YcsbConfig, YcsbMix};
/// use std::sync::Arc;
///
/// let workload: Arc<dyn Workload> =
///     Arc::new(Ycsb::new(YcsbConfig { keys_per_node: 1_000, ..YcsbConfig::new(YcsbMix::A) }));
/// let cluster = Cluster::builder(workload).test_profile().build();
/// let mut session = cluster.session(NodeId(0)).unwrap();
///
/// // An ad-hoc read-modify-write over two tuples; their home nodes are
/// // resolved by the cluster's partition map, not by the caller.
/// let t = |key| TupleId::new(p4db_workloads::ycsb::YCSB_TABLE, key);
/// let outcome = session.execute(&Txn::new().add(t(3), 5).read(t(1_003))).unwrap();
/// assert_eq!(outcome.results[0], 5);
/// assert_eq!(session.stats().committed_total(), 1);
/// ```
pub struct Session {
    node: NodeId,
    submit: Sender<Job>,
    partition_map: PartitionMap,
    shared: Arc<EngineShared>,
    max_attempts: u32,
    cancel: Option<Arc<AtomicBool>>,
    stats: WorkerStats,
    /// Where the executors file this session's replies.
    replies: Arc<ReplyQueue>,
    /// The ticket of the last submission.
    ticket: u64,
    /// Serves node-local snapshot reads on the caller's thread. Registered
    /// on the first one, so a session that only writes holds no slot in
    /// the snapshot registry.
    reader: Option<SnapshotReader>,
}

impl Session {
    pub(crate) fn new(
        node: NodeId,
        submit: Sender<Job>,
        partition_map: PartitionMap,
        shared: Arc<EngineShared>,
    ) -> Self {
        Session {
            node,
            submit,
            partition_map,
            shared,
            max_attempts: DEFAULT_MAX_ATTEMPTS,
            cancel: None,
            stats: WorkerStats::new(),
            replies: Arc::new(ReplyQueue::new()),
            ticket: 0,
            reader: None,
        }
    }

    /// The node this session submits through (the coordinator of its
    /// transactions).
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The partition map this session resolves transactions against.
    pub fn partition_map(&self) -> &PartitionMap {
        &self.partition_map
    }

    /// Caps the number of execution attempts per transaction (aborted
    /// attempts are retried with randomised backoff up to this budget).
    /// Values below 1 are treated as 1.
    pub fn set_max_attempts(&mut self, attempts: u32) {
        self.max_attempts = attempts.max(1);
    }

    /// Attaches a cooperative cancellation flag to this session's future
    /// submissions: once the flag is set, an aborting transaction stops
    /// retrying and returns its abort error instead of burning the rest of
    /// its retry budget. The closed-loop driver uses this so its stop signal
    /// ends the measurement promptly; long-lived clients can use it for
    /// graceful shutdown.
    pub fn set_cancel_flag(&mut self, flag: Arc<AtomicBool>) {
        self.cancel = Some(flag);
    }

    /// Statistics accumulated over everything this session has waited on:
    /// commits by class, latency, aborts, engine phases, switch passes. A
    /// ticket dropped unredeemed counts too: its statistics are folded in at
    /// the session's next [`Session::wait`] or [`Session::take_stats`] after
    /// its transaction finished.
    pub fn stats(&self) -> &WorkerStats {
        &self.stats
    }

    /// Takes the accumulated statistics, resetting the session's counters.
    pub fn take_stats(&mut self) -> WorkerStats {
        if let Some(abandoned) = self.replies.take_abandoned_stats() {
            self.stats.merge(&abandoned);
        }
        std::mem::take(&mut self.stats)
    }

    /// Executes a transaction built with [`Txn`], blocking until it commits
    /// or exhausts its retry budget. Home nodes are resolved through the
    /// cluster's partition map with this session's node as coordinator.
    pub fn execute(&mut self, txn: &Txn) -> Result<TxnOutcome> {
        let pending = self.submit(txn)?;
        self.wait(pending)
    }

    /// Executes an already-placed [`TxnRequest`], blocking until done.
    pub fn execute_request(&mut self, req: &TxnRequest) -> Result<TxnOutcome> {
        let pending = self.submit_request(req)?;
        self.wait(pending)
    }

    /// Executes a transaction on the lock-free snapshot read path: every
    /// operation reads the newest committed version at one snapshot
    /// timestamp, with zero lock-table interaction and zero 2PC. The
    /// returned outcome carries the snapshot timestamp in
    /// [`TxnOutcome::snapshot`]. When every row lives on this session's
    /// node the read runs on the caller's thread; otherwise an executor
    /// runs it, paying one node round trip for its remote rows. Rejects
    /// transactions containing any non-read operation with
    /// [`Error::InvalidTxn`]; transactions the snapshot path cannot serve
    /// (switch-resident hot tuples in P4DB mode) transparently fall back to
    /// the locking path on an executor and return `snapshot: None`.
    pub fn read_only(&mut self, txn: &Txn) -> Result<TxnOutcome> {
        let req = txn.clone().read_only().resolve(&self.partition_map, self.node)?;
        self.execute_request(&req)
    }

    /// Submits a transaction without waiting for it (open loop). Any number
    /// of submissions can be in flight per session; redeem the tickets with
    /// [`Session::wait`] in any order.
    pub fn submit(&mut self, txn: &Txn) -> Result<Pending> {
        let req = txn.resolve(&self.partition_map, self.node)?;
        self.submit_request(&req)
    }

    /// Submits an already-placed request without waiting for it.
    ///
    /// A read-only request whose rows are all homed on this session's node
    /// is read at a snapshot right here, on the caller's thread: its reply
    /// is filed before this returns, and [`Session::wait`] takes it without
    /// blocking. Every other request is queued for the node's executor pool.
    /// Either way, once the cluster is dropped this returns
    /// [`Error::Disconnected`].
    pub fn submit_request(&mut self, req: &TxnRequest) -> Result<Pending> {
        let index = self.shared.hot_index.load();
        self.validate(req, &index)?;
        self.ticket += 1;
        let ticket = self.ticket;
        if let Some(reply) = self.read_here(req, &index)? {
            // A fresh ticket: nobody can be parked on it, so no wake-up.
            let parked = self.replies.lock().deliver(ticket, reply);
            debug_assert!(!parked, "a thread parked on a ticket not handed out yet");
            return Ok(Pending { queue: Some(Arc::clone(&self.replies)), ticket });
        }
        // Made first, so a rejected job's disconnect reply (filed when the
        // job drops) is discarded with the ticket.
        let pending = Pending { queue: Some(Arc::clone(&self.replies)), ticket };
        let job = Job::Execute(ExecJob {
            req: req.clone(),
            max_attempts: self.max_attempts,
            cancel: self.cancel.clone(),
            reply: ReplyTo { queue: Some(Arc::clone(&self.replies)), ticket },
        });
        if self.submit.send(job).is_err() {
            return Err(Error::Disconnected);
        }
        Ok(pending)
    }

    /// Serves `req` on the snapshot read path on the caller's thread if it
    /// is a non-empty read-only request homed wholly on this node, recording
    /// its commit as an executor would. `Ok(None)` sends it to the pool: it
    /// is not such a request, or the snapshot path refuses it.
    fn read_here(&mut self, req: &TxnRequest, index: &HotSetIndex) -> Result<Option<JobReply>> {
        if !req.read_only || req.is_empty() || req.ops.iter().any(|op| op.home != self.node) {
            return Ok(None);
        }
        // The pool's contract holds here too: a dropped cluster answers
        // nothing, even though its rows are still in reach.
        if self.submit.is_disconnected() {
            return Err(Error::Disconnected);
        }
        let started = Instant::now();
        let mut stats = WorkerStats::new();
        let reader = self.reader.get_or_insert_with(|| SnapshotReader::new(&self.shared.mvcc));
        let Some(result) = reader.try_read(&self.shared, self.node, req, index, &mut stats).transpose() else {
            return Ok(None);
        };
        if let Ok(outcome) = &result {
            stats.record_commit(outcome.class, started.elapsed());
        }
        Ok(Some(JobReply { result, stats }))
    }

    /// Waits for a submitted transaction and folds the execution's
    /// statistics into this session's counters. The ticket may come from
    /// another session; its reply is taken from the queue it was filed on.
    /// Returns [`Error::Disconnected`] when the pool shut down with the job
    /// still queued.
    pub fn wait(&mut self, mut pending: Pending) -> Result<TxnOutcome> {
        let queue = pending.queue.take().expect("an unredeemed ticket names its queue");
        let own = Arc::ptr_eq(&queue, &self.replies);
        let reply = queue.take(pending.ticket, own.then_some(&mut self.stats));
        self.stats.merge(&reply.stats);
        reply.result
    }

    /// Drains the in-doubt ledger — switch sub-transactions whose intent was
    /// logged but whose reply never arrived — and settles each entry
    /// exactly-once:
    ///
    /// 1. **Fence check.** An intent logged at or below its switch's
    ///    recovery fence is already folded into the degraded-mode WAL
    ///    reconstruction: *resolved committed*, no network needed.
    /// 2. **Audit query.** Otherwise the switch's audit log is queried (up
    ///    to 3 times). Confirmed executed → *resolved committed*; confirmed
    ///    never-executed → the entry's operation footprint is re-run as an
    ///    ordinary host transaction under 2PL → *resolved retried*.
    /// 3. Entries whose status cannot be learned are re-parked on the
    ///    ledger and counted `unresolved`.
    ///
    /// Call while the switch path is quiescent (the supervisor runs this
    /// after its drivers finish, before re-admission): a status verdict is
    /// only trustworthy when no delayed duplicate of the intent can still
    /// execute after the query.
    pub fn resolve_in_doubt(&mut self) -> Result<ResolverReport> {
        let mut report = ResolverReport::default();
        let entries = self.shared.health.take_ledger();
        if entries.is_empty() {
            return Ok(report);
        }
        let origin = rogue_endpoint();
        let mailbox = self.shared.fabric.register(origin);
        // A status query is a single round trip; don't let the engine's
        // (deliberately generous) switch timeout stall a resolution pass
        // over an unreachable switch for seconds per entry.
        const MAX_TRY: Duration = Duration::from_millis(20);
        // Status queries per entry before it is re-parked as unresolved.
        const TRIES: u32 = 3;
        let per_try = self.shared.config.switch_timeout.map_or(MAX_TRY, |t| t.min(MAX_TRY));
        let mut token = 0u64;
        let mut reparked = Vec::new();
        for entry in entries {
            if entry.logged_at <= self.shared.health.fence(entry.switch, entry.node) {
                report.resolved_committed += 1;
                continue;
            }
            let mut executed = None;
            'query: for _ in 0..TRIES {
                token += 1;
                let sent = self.shared.fabric.send(
                    origin,
                    EndpointId::Switch(entry.switch),
                    SwitchMessage::IntentStatusRequest(IntentStatusRequest { origin, token, txn: entry.txn }),
                );
                if !sent {
                    continue;
                }
                let deadline = Instant::now() + per_try;
                loop {
                    let remaining = deadline.saturating_duration_since(Instant::now());
                    match mailbox.recv_timeout(remaining) {
                        RecvOutcome::Msg(env) => match env.payload {
                            SwitchMessage::IntentStatusReply(r) if r.token == token => {
                                executed = Some(r.executed);
                                break 'query;
                            }
                            // Stale replies from earlier, timed-out tries.
                            _ => continue,
                        },
                        RecvOutcome::TimedOut | RecvOutcome::Disconnected => break,
                    }
                }
            }
            match executed {
                Some(true) => report.resolved_committed += 1,
                Some(false) => match self.execute_request(&TxnRequest::new(entry.ops.clone())) {
                    Ok(_) => report.resolved_retried += 1,
                    // A clean abort settles the entry too: the transaction
                    // observably never happened, which is a legal history
                    // for an intent the switch never executed.
                    Err(e) if e.is_abort() => report.resolved_retried += 1,
                    Err(e) => return Err(e),
                },
                None => {
                    report.unresolved += 1;
                    reparked.push(entry);
                }
            }
        }
        self.shared.health.park_unresolved(reparked);
        Ok(report)
    }

    /// Rejects requests the engine would panic on instead of abort: homes
    /// outside the cluster, forward `operand_from` references,
    /// read-dependencies that cross the hot/cold split (the switch cannot
    /// consume a host-produced operand mid-transaction, §6.2), and
    /// read-only-declared requests containing a write.
    fn validate(&self, req: &TxnRequest, hot_index: &HotSetIndex) -> Result<()> {
        let is_hot = |op: &TxnOp| {
            self.shared.config.mode == SystemMode::P4db && op.kind.switch_executable() && hot_index.is_hot(op.tuple)
        };
        for (index, op) in req.ops.iter().enumerate() {
            if req.read_only && op.kind != OpKind::Read {
                return Err(Error::InvalidTxn(format!(
                    "read-only transaction contains a {:?} at operation {index}",
                    op.kind
                )));
            }
            if op.home.index() >= self.shared.num_nodes() {
                return Err(Error::UnknownNode(op.home));
            }
            if let Some(src) = op.operand_from {
                if src as usize >= index {
                    return Err(Error::InvalidTxn(format!(
                        "operation {index} takes its operand from operation {src}, which is not an earlier operation"
                    )));
                }
                let src_op = &req.ops[src as usize];
                if is_hot(op) != is_hot(src_op) {
                    return Err(Error::InvalidTxn(format!(
                        "operation {index} ({}) and its operand source {src} ({}) are split between the switch and \
                         the host; read-dependent pairs must share a temperature class",
                        op.tuple, src_op.tuple
                    )));
                }
            }
        }
        Ok(())
    }
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("node", &self.node)
            .field("max_attempts", &self.max_attempts)
            .field("committed", &self.stats.committed_total())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, ClusterConfig};
    use p4db_common::stats::TxnClass;
    use p4db_common::{AbortReason, CcScheme, LatencyConfig, SystemMode, TupleId, TxnId};
    use p4db_storage::LockMode;
    use p4db_workloads::{SmallBank, SmallBankConfig, Workload, Ycsb, YcsbConfig, YcsbMix};

    fn ycsb() -> Arc<dyn Workload> {
        Arc::new(Ycsb::new(YcsbConfig { keys_per_node: 1_000, ..YcsbConfig::new(YcsbMix::A) }))
    }

    fn small_cluster() -> Cluster {
        Cluster::build(ClusterConfig::test_profile(SystemMode::NoSwitch, CcScheme::NoWait), ycsb())
    }

    fn t(key: u64) -> TupleId {
        TupleId::new(p4db_workloads::ycsb::YCSB_TABLE, key)
    }

    /// Regression test for the executor batch loop: a shutdown round drains
    /// shares that mix `Execute` jobs with poison pills in every proportion
    /// (including all-pills). Every job submitted *before* the pills must
    /// still be served — an executor panicking over its batch composition,
    /// or keeping a sibling's pill, would strand the queue and fail the
    /// `wait`s below.
    #[test]
    fn jobs_queued_before_shutdown_pills_are_served() {
        for workers in [2, 4] {
            let cluster = Cluster::builder(ycsb()).test_profile().workers(workers).mode(SystemMode::NoSwitch).build();
            let mut session = cluster.session(NodeId(0)).unwrap();
            // More jobs than executors, open-loop, so the queue still holds
            // work when the pool drops its pills in behind it (test profile
            // batch_size = 16 caps a share far above what is queued).
            let pendings: Vec<Pending> = (0..24).map(|k| session.submit(&Txn::new().add(t(k), 1)).unwrap()).collect();
            drop(cluster);
            for pending in pendings {
                let outcome = session.wait(pending).expect("job queued before shutdown must execute");
                assert_eq!(outcome.results[0], 1);
            }
            assert_eq!(session.take_stats().committed_total(), 24, "workers({workers})");
        }
    }

    /// A latency profile whose node round trip (8 ms) dwarfs every software
    /// cost and every scheduling hiccup of a loaded test machine.
    fn slow_rack() -> LatencyConfig {
        LatencyConfig { one_way_ns: 2_000_000, sw_overhead_ns: 0 }
    }

    /// Reads one row of node 1 through a session of node 0.
    fn remote_read(k: u64) -> Txn {
        Txn::new().read(t(1_000 + k))
    }

    /// The convoy test: eight jobs queued on a node with eight executors are
    /// eight executors' work. An executor that drained more than its share
    /// would run them one after the other while its siblings slept. (The
    /// probe is one remote lock: two node round trips, admission and vote,
    /// whatever the transaction's size — so 2.5 probes is room for one
    /// straggler behind a busy executor, not for the convoy's eight.)
    #[test]
    fn queued_jobs_spread_over_idle_executors() {
        let cluster =
            Cluster::builder(ycsb()).test_profile().workers(8).mode(SystemMode::NoSwitch).latency(slow_rack()).build();
        let mut session = cluster.session(NodeId(0)).unwrap();
        let started = Instant::now();
        session.execute(&remote_read(0)).unwrap();
        let one = started.elapsed();
        assert!(one >= slow_rack().node_rtt(), "the probe must pay a node round trip, took {one:?}");

        let started = Instant::now();
        let pendings: Vec<Pending> = (1..=8).map(|k| session.submit(&remote_read(k)).unwrap()).collect();
        for pending in pendings {
            session.wait(pending).unwrap();
        }
        let eight = started.elapsed();
        assert!(
            eight <= one.mul_f64(2.5),
            "8 open-loop remote reads on 8 executors took {eight:?}, one takes {one:?}: jobs queued behind each other"
        );
    }

    /// The opposite invariant for a single-executor pool: its share is the
    /// whole queue, so everything queued while it was busy is served in
    /// submission order, in batches capped by `batch_size` alone — which is
    /// what lets `execute_batch` pipeline them into shared switch frames.
    #[test]
    fn a_single_executor_drains_the_whole_queue_in_order() {
        let cluster =
            Cluster::builder(ycsb()).test_profile().workers(1).mode(SystemMode::P4db).latency(slow_rack()).build();
        assert_eq!(cluster.config().batch_size, 16);
        let mut session = cluster.session(NodeId(0)).unwrap();
        // Park the executor on a cold remote read (taken alone: the queue is
        // empty again before anything else is submitted), then queue 20 hot
        // increments of one switch register behind it.
        let blocker = session.submit(&remote_read(500)).unwrap();
        while !session.submit.is_empty() {
            std::thread::yield_now();
        }
        let pendings: Vec<Pending> = (0..20).map(|_| session.submit(&Txn::new().add(t(0), 1)).unwrap()).collect();
        session.wait(blocker).unwrap();
        for (i, pending) in pendings.into_iter().enumerate() {
            assert_eq!(session.wait(pending).unwrap().results[0], i as u64 + 1, "served in submission order");
        }
        // 20 queued = one share of 16 and one of 4; a pipelined frame costs
        // two switch messages (out, back) however many transactions it holds.
        let (to_switch, ..) = cluster.shared().latency.stats().snapshot();
        assert_eq!(to_switch, 4, "20 hot jobs behind one executor must travel as frames of 16 + 4");
    }

    /// A constraint violation is a verdict on the transaction, not on the
    /// schedule: it goes back to the client on the first attempt.
    #[test]
    fn constraint_violation_is_returned_without_retrying() {
        use p4db_workloads::smallbank::{CHECKING, INITIAL_BALANCE};
        let workload: Arc<dyn Workload> =
            Arc::new(SmallBank::new(SmallBankConfig { customers_per_node: 1_000, ..SmallBankConfig::default() }));
        let cluster = Cluster::builder(workload).test_profile().mode(SystemMode::NoSwitch).build();
        let mut session = cluster.session(NodeId(0)).unwrap();
        let overdraft = Txn::new().cond_sub(TupleId::new(CHECKING, 200), INITIAL_BALANCE + 1);
        let err = session.execute(&overdraft).unwrap_err();
        assert_eq!(err, Error::Abort(AbortReason::ConstraintViolation));
        assert_eq!(session.stats().aborts_constraint, 1);
        assert_eq!(session.stats().retry_rounds, 0);
    }

    /// The latency-proportional backoff base is zero at zero modelled
    /// latency; without the floor sixteen attempts against a held lock are
    /// over in microseconds, long before a holder that lost its CPU can
    /// release it.
    #[test]
    fn backoff_has_a_floor_at_zero_latency() {
        let cluster = small_cluster();
        let mut session = cluster.session(NodeId(0)).unwrap();
        session.set_max_attempts(16);
        let node = &cluster.shared().nodes[0];
        let locks = node.locks();
        let holder = TxnId::compose(1, NodeId(0), WorkerId(u16::MAX));
        let grant = node.admit(holder, t(7), LockMode::Exclusive, CcScheme::NoWait).unwrap();
        let held = locks.acquisition_count();
        let pending = session.submit(&Txn::new().add(t(7), 1)).unwrap();
        // The clock starts at the job's first denied attempt. Even with the
        // smallest jitter on every round, fifteen backoffs from the floor
        // add up to more than the 300 µs the lock stays held.
        while locks.acquisition_count() == held {
            std::thread::yield_now();
        }
        p4db_common::simtime::spin_for(Duration::from_micros(300));
        node.release(holder, &grant);
        session.wait(pending).expect("a lock released 300 µs after the first conflict is within a budget of 16");
        assert!(session.stats().retry_rounds > 0);
    }

    /// A ticket dropped unredeemed still counts: its commit reaches the
    /// session's statistics at the next `wait`.
    #[test]
    fn a_dropped_tickets_statistics_still_count() {
        let cluster = Cluster::builder(ycsb()).test_profile().workers(1).mode(SystemMode::NoSwitch).build();
        let mut session = cluster.session(NodeId(0)).unwrap();
        let wal = cluster.shared().nodes[0].wal();
        let logged = wal.len();
        drop(session.submit(&Txn::new().add(t(3), 1)).unwrap());
        while wal.len() == logged {
            std::thread::yield_now();
        }
        session.execute(&Txn::new().add(t(4), 1)).unwrap();
        assert_eq!(session.stats().committed_total(), 2, "the dropped ticket's commit must count");
    }

    /// A job that must retry does not hold its batchmates' replies: with
    /// `t(7)` held by a foreign lock, job A (`add t(7)`) backs off again and
    /// again, while job B — drained in the same share and committed by its
    /// first attempt — is answered at once.
    #[test]
    fn a_batchmates_retry_does_not_hold_committed_replies() {
        let cluster =
            Cluster::builder(ycsb()).test_profile().workers(1).mode(SystemMode::NoSwitch).latency(slow_rack()).build();
        let mut session = cluster.session(NodeId(0)).unwrap();
        let node = &cluster.shared().nodes[0];
        let holder = TxnId::compose(1, NodeId(0), WorkerId(u16::MAX));
        let grant = node.admit(holder, t(7), LockMode::Exclusive, CcScheme::NoWait).unwrap();
        let released = AtomicBool::new(false);
        let (release_tx, release_rx) = unbounded::<()>();
        std::thread::scope(|scope| {
            // Releases the lock when told to, or after 2 s at the latest, so
            // the test ends whatever happens.
            scope.spawn(|| {
                let _ = release_rx.recv_timeout(Duration::from_secs(2));
                released.store(true, AtomicOrdering::SeqCst);
                node.release(holder, &grant);
            });
            // Park the executor on a remote read (taken alone), then queue
            // A and B behind it so they drain as one share.
            let blocker = session.submit(&remote_read(500)).unwrap();
            while !session.submit.is_empty() {
                std::thread::yield_now();
            }
            let a = session.submit(&Txn::new().add(t(7), 1)).unwrap();
            let b = session.submit(&Txn::new().add(t(8), 1)).unwrap();
            session.wait(blocker).unwrap();
            assert_eq!(session.wait(b).unwrap().results[0], 1);
            assert!(!released.load(AtomicOrdering::SeqCst), "B's reply waited out A's retries on the held lock");
            release_tx.send(()).unwrap();
            assert_eq!(session.wait(a).expect("A commits once the lock is released").results[0], 1);
        });
        assert!(session.stats().retry_rounds > 0, "A must have retried");
    }

    fn reply(ticket: u64) -> JobReply {
        let outcome = TxnOutcome {
            class: p4db_common::stats::TxnClass::Cold,
            results: vec![ticket],
            gid: None,
            in_doubt: false,
            snapshot: None,
        };
        JobReply { result: Ok(outcome), stats: WorkerStats::new() }
    }

    fn file(queue: &Arc<ReplyQueue>, tickets: impl IntoIterator<Item = u64>) {
        let mut settled: Vec<_> = tickets
            .into_iter()
            .map(|ticket| (ReplyTo { queue: Some(Arc::clone(queue)), ticket }, reply(ticket)))
            .collect();
        file_replies(&mut settled);
        assert!(settled.is_empty());
    }

    /// The wake rule: a FIFO waiter parked on ticket 1 sleeps through the
    /// replies that overtake it, and is woken once, by its own.
    #[test]
    fn a_parked_waiter_is_woken_only_by_its_own_ticket() {
        let queue = Arc::new(ReplyQueue::new());
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| queue.take(1, None));
            while !queue.lock().parked.contains(&1) {
                std::thread::yield_now();
            }
            for ticket in 2..=4 {
                file(&queue, [ticket]);
            }
            std::thread::sleep(Duration::from_millis(20));
            assert_eq!(queue.wakeups.load(AtomicOrdering::Relaxed), 0, "woken by another ticket's reply");
            file(&queue, [1]);
            assert_eq!(waiter.join().unwrap().result.unwrap().results, vec![1]);
        });
        assert_eq!(queue.wakeups.load(AtomicOrdering::Relaxed), 1);
        // The overtaking replies wait, filed, for their own tickets.
        for ticket in 2..=4 {
            assert_eq!(queue.take(ticket, None).result.unwrap().results, vec![ticket]);
        }
        assert_eq!(queue.wakeups.load(AtomicOrdering::Relaxed), 1);
    }

    /// Drop semantics: a `ReplyTo` dropped unfiled answers its ticket with
    /// `Disconnected`; a dropped ticket's reply is discarded — before or
    /// after it arrives — with its statistics kept for the session.
    #[test]
    fn dropped_reply_handles_and_tickets_leave_nothing_behind() {
        let queue = Arc::new(ReplyQueue::new());
        drop(ReplyTo { queue: Some(Arc::clone(&queue)), ticket: 1 });
        assert_eq!(queue.take(1, None).result.unwrap_err(), Error::Disconnected);

        let committed = |ticket| {
            let mut reply = reply(ticket);
            reply.stats.record_commit(p4db_common::stats::TxnClass::Cold, Duration::from_micros(1));
            (ReplyTo { queue: Some(Arc::clone(&queue)), ticket }, reply)
        };
        queue.abandon(2); // dropped before its reply arrives
        file_replies(&mut vec![committed(2), committed(3)]);
        queue.abandon(3); // dropped after
        let state = queue.lock();
        assert!(state.replies.is_empty() && state.abandoned.is_empty() && state.parked.is_empty());
        drop(state);
        assert_eq!(queue.take_abandoned_stats().map(|s| s.committed_total()), Some(2));
    }

    #[test]
    fn read_only_serves_snapshot_and_rejects_writes() {
        let cluster = small_cluster();
        let mut session = cluster.session(NodeId(0)).unwrap();
        session.execute(&Txn::new().add(t(7), 41)).unwrap();
        let outcome = session.read_only(&Txn::new().read(t(7)).read(t(1_007))).unwrap();
        assert_eq!(outcome.results[0], 41);
        assert!(outcome.snapshot.is_some(), "read-only txn must execute on the snapshot path");

        let err = session.read_only(&Txn::new().add(t(7), 1)).unwrap_err();
        assert!(matches!(err, Error::InvalidTxn(_)), "got {err:?}");
    }

    /// A read-only request of `keys`, coordinated by the session's node.
    fn reads(session: &Session, keys: &[u64]) -> TxnRequest {
        let txn = keys.iter().fold(Txn::new(), |txn, &key| txn.read(t(key)));
        txn.read_only().resolve(session.partition_map(), session.node()).unwrap()
    }

    /// Runs `body` while the one executor of the session's node is held in
    /// a retry loop: it retries a write of `row`, which a foreign
    /// transaction holds locked, until `body` returns. A job `body` queues
    /// meanwhile stays queued, and a reply filed meanwhile was filed by
    /// somebody else.
    fn with_the_executor_held(cluster: &Cluster, session: &mut Session, row: TupleId, body: impl FnOnce(&mut Session)) {
        let node = &cluster.shared().nodes[session.node().index()];
        let holder = TxnId::compose(1, session.node(), WorkerId(u16::MAX));
        let grant = node.admit(holder, row, LockMode::Exclusive, CcScheme::NoWait).unwrap();
        session.set_max_attempts(u32::MAX);
        let held = session.submit(&Txn::new().add(row, 1)).unwrap();
        while !session.submit.is_empty() {
            std::thread::yield_now();
        }
        // A failed assertion must still release the row: the executor
        // would otherwise retry forever and the cluster's drop would hang.
        let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(session)));
        node.release(holder, &grant);
        if let Err(panic) = ran {
            std::panic::resume_unwind(panic);
        }
        session.wait(held).expect("the held write commits once the row is released");
        session.set_max_attempts(DEFAULT_MAX_ATTEMPTS);
    }

    /// A read-only request homed wholly on the session's node runs on the
    /// caller's thread: its reply is filed before `submit_request` returns,
    /// while the node's one executor is busy, and nothing is queued.
    #[test]
    fn a_node_local_snapshot_read_is_answered_before_submit_returns() {
        let cluster = Cluster::builder(ycsb()).test_profile().workers(1).mode(SystemMode::NoSwitch).build();
        let mut session = cluster.session(NodeId(0)).unwrap();
        session.execute(&Txn::new().write(t(8), 41)).unwrap();
        let local = reads(&session, &[8, 9]);
        with_the_executor_held(&cluster, &mut session, t(7), |session| {
            let woken = session.replies.wakeups.load(AtomicOrdering::Relaxed);
            let pending = session.submit_request(&local).unwrap();
            let filed = session.replies.lock().replies.iter().any(|(ticket, _)| *ticket == pending.ticket);
            assert!(filed, "the reply must be filed before submit_request returns");
            assert!(session.submit.is_empty(), "a node-local snapshot read must not reach the pool");
            let outcome = session.wait(pending).unwrap();
            assert_eq!(outcome.results[0], 41);
            assert!(outcome.snapshot.is_some());
            let woken = session.replies.wakeups.load(AtomicOrdering::Relaxed) - woken;
            assert_eq!(woken, 0, "a reply filed before its wait needs no wake-up");
        });
        assert_eq!(session.stats().snapshot_reads, 1);
    }

    /// What the snapshot path must not serve inline still goes to the pool:
    /// a read with a remote-home row (one node round trip, paid by an
    /// executor) and, in P4DB mode, a read of a switch-resident tuple.
    #[test]
    fn remote_and_switch_resident_reads_still_go_to_the_pool() {
        let cluster = Cluster::builder(ycsb()).test_profile().workers(1).mode(SystemMode::NoSwitch).build();
        let mut session = cluster.session(NodeId(0)).unwrap();
        let remote = reads(&session, &[8, 1_005, 1_006]);
        let to_nodes = || cluster.shared().latency.stats().snapshot().1;
        let before = to_nodes();
        let mut pending = None;
        with_the_executor_held(&cluster, &mut session, t(7), |session| {
            pending = Some(session.submit_request(&remote).unwrap());
            assert_eq!(session.submit.len(), 1, "a read with a remote-home row must queue for the pool");
        });
        let outcome = session.wait(pending.unwrap()).unwrap();
        assert!(outcome.snapshot.is_some(), "still served by the lock-free snapshot path");
        assert_eq!(to_nodes() - before, 2, "one node round trip: one request to node 1 and its reply");
        assert!(session.reader.is_none(), "a session that never read inline holds no snapshot slot");

        let cluster = Cluster::builder(ycsb()).test_profile().workers(1).mode(SystemMode::P4db).build();
        let index = cluster.shared().hot_index.load();
        assert!(index.is_hot(t(3)) && !index.is_hot(t(500)));
        let mut session = cluster.session(NodeId(0)).unwrap();
        let hot = reads(&session, &[3]);
        let mut pending = None;
        with_the_executor_held(&cluster, &mut session, t(500), |session| {
            pending = Some(session.submit_request(&hot).unwrap());
            assert_eq!(session.submit.len(), 1, "a read of a switch-resident tuple must queue for the pool");
        });
        let outcome = session.wait(pending.unwrap()).unwrap();
        assert_eq!((outcome.class, outcome.snapshot), (TxnClass::Hot, None), "served by the switch");
        assert_eq!(session.stats().snapshot_reads, 0);
    }

    /// An inline read's reply is filed before its ticket can be dropped;
    /// dropping the ticket discards the reply and keeps its statistics.
    #[test]
    fn a_dropped_inline_reads_statistics_still_count() {
        let cluster = small_cluster();
        let mut session = cluster.session(NodeId(0)).unwrap();
        drop(session.submit_request(&reads(&session, &[3, 4])).unwrap());
        let stats = session.take_stats();
        assert_eq!(stats.snapshot_reads, 1);
        assert_eq!(stats.committed_total(), 1, "the dropped ticket's commit must count");
        let state = session.replies.lock();
        assert!(state.replies.is_empty() && state.abandoned.is_empty(), "the dropped reply must not linger");
    }

    /// A dropped cluster answers nothing: a read the session could still
    /// serve on its own thread is refused like any other request.
    #[test]
    fn a_read_after_the_cluster_is_dropped_is_disconnected() {
        let cluster = small_cluster();
        let mut session = cluster.session(NodeId(0)).unwrap();
        let local = reads(&session, &[3]);
        let remote = reads(&session, &[1_003]);
        let write = Txn::new().add(t(3), 1).resolve(session.partition_map(), NodeId(0)).unwrap();
        session.execute_request(&local).unwrap();
        drop(cluster);
        for req in [&local, &remote, &write] {
            assert!(matches!(session.submit_request(req), Err(Error::Disconnected)), "{req:?}");
        }
        let state = session.replies.lock();
        assert!(state.replies.is_empty() && state.abandoned.is_empty(), "a refused request leaves nothing behind");
    }

    /// A session registers its snapshot slot on its first inline read and
    /// gives it back when dropped, so a stream of short-lived sessions does
    /// not grow the registry every committing writer scans.
    #[test]
    fn dropped_sessions_give_their_snapshot_slots_back() {
        let cluster = small_cluster();
        let executors = cluster.config().num_nodes as usize * cluster.config().workers_per_node as usize;
        let snapshots = &cluster.shared().mvcc.snapshots;
        let mut writer = cluster.session(NodeId(0)).unwrap();
        writer.execute(&Txn::new().add(t(3), 1)).unwrap();
        assert!(writer.reader.is_none(), "a session that only writes registers no slot");
        assert_eq!(snapshots.len(), executors);
        for _ in 0..1_000 {
            let mut session = cluster.session(NodeId(0)).unwrap();
            session.execute_request(&reads(&session, &[3])).unwrap();
            assert_eq!(session.stats().snapshot_reads, 1);
        }
        let slots = snapshots.len();
        assert!(slots <= executors + 2, "{slots} snapshot slots after 1,000 sessions on {executors} executors");
    }

    #[test]
    fn validate_rejects_hand_built_read_only_request_with_a_write() {
        let cluster = small_cluster();
        let mut session = cluster.session(NodeId(0)).unwrap();
        let req = Txn::new().write(t(3), 9).resolve(session.partition_map(), NodeId(0)).unwrap().into_read_only();
        let err = match session.submit_request(&req) {
            Err(e) => e,
            Ok(_) => panic!("read-only request with a write must be rejected"),
        };
        assert!(matches!(err, Error::InvalidTxn(_)), "got {err:?}");
    }
}
