//! The one load driver behind the figures, the chaos waves, the examples and
//! the tests. [`Cluster::drive`] runs `workers_per_node` sessions per node,
//! one thread each. A session keeps up to [`Load::window`] generated
//! transactions in flight and redeems them in submission order (a window of
//! 1 is the closed loop of [`crate::Session::execute_request`]; a deeper one fills
//! executors' shares, so the batched paths run) until it has settled its
//! quota ([`Stop::Txns`]) or the span of [`Stop::For`] has passed. Session
//! `s` of node `n` in the `c`-th drive of a cluster draws from the seed
//! `seed·0x9E3779B97F4A7C15 + (c << 40 | n << 20 | s)`.

use crate::session::DEFAULT_MAX_ATTEMPTS;
use crate::Cluster;
use p4db_common::rand_util::FastRng;
use p4db_common::stats::RunStats;
use p4db_common::{NodeId, Result};
use p4db_workloads::{Workload, WorkloadCtx};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// When a drive's sessions stop submitting.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Stop {
    /// Each session settles exactly this many transactions.
    Txns(usize),
    /// The sessions submit until this span has passed. The stop also
    /// cancels retry loops, so an aborting transaction settles as failed
    /// instead of dragging the drive past its span.
    For(Duration),
}

/// One drive of a cluster's workload.
#[derive(Copy, Clone, Debug)]
pub struct Load {
    /// Transactions each session keeps in flight (at least 1).
    pub window: usize,
    pub stop: Stop,
    /// Retry budget per transaction ([`crate::Session::set_max_attempts`]).
    pub max_attempts: u32,
}

impl Load {
    /// `stop` at a window of 1 with the default retry budget.
    pub fn new(stop: Stop) -> Self {
        Load { window: 1, stop, max_attempts: DEFAULT_MAX_ATTEMPTS }
    }
}

/// A drive in progress, returned by [`Cluster::start`].
pub struct Driving {
    sessions: Vec<JoinHandle<Result<RunStats>>>,
    stop: Arc<AtomicBool>,
    /// Set for [`Stop::For`].
    deadline: Option<Instant>,
    started: Instant,
}

impl Driving {
    /// Spawns one thread per session; `call` salts the seeds.
    pub(crate) fn spawn(cluster: &Cluster, workload: &Arc<dyn Workload>, call: u64, load: Load) -> Self {
        let config = cluster.config();
        let started = Instant::now();
        let stop = Arc::new(AtomicBool::new(false));
        let (quota, deadline) = match load.stop {
            Stop::Txns(n) => (n, None),
            Stop::For(span) => (usize::MAX, Some(started + span)),
        };
        let mut sessions = Vec::new();
        for node in 0..config.num_nodes {
            for s in 0..config.workers_per_node {
                let mut session = cluster.session(NodeId(node)).expect("every cluster node has a submission queue");
                session.set_max_attempts(load.max_attempts);
                session.set_cancel_flag(Arc::clone(&stop));
                let ctx = WorkloadCtx::new(config.num_nodes, NodeId(node), config.distributed_prob);
                let salt = call << 40 | (node as u64) << 20 | s as u64;
                let mut rng = FastRng::new(config.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(salt));
                let (workload, stop, window, mut quota) =
                    (Arc::clone(workload), Arc::clone(&stop), load.window.max(1), quota);
                // The closed loop: keep `window` transactions in flight until
                // the quota is submitted or the stop is raised, then settle
                // the rest. An abort settles as failed; any other error ends
                // the session with it.
                sessions.push(std::thread::spawn(move || {
                    let mut run = RunStats::default();
                    let mut in_flight = VecDeque::with_capacity(window);
                    loop {
                        while quota > 0 && in_flight.len() < window && !stop.load(Ordering::Relaxed) {
                            in_flight.push_back(session.submit_request(&workload.generate(&ctx, &mut rng))?);
                            quota -= 1;
                        }
                        let Some(pending) = in_flight.pop_front() else { break };
                        match session.wait(pending) {
                            Ok(outcome) => run.in_doubt += u64::from(outcome.in_doubt),
                            Err(e) if e.is_abort() => run.failed += 1,
                            Err(e) => return Err(e),
                        }
                    }
                    run.merged = session.take_stats();
                    Ok(run)
                }));
            }
        }
        Driving { sessions, stop, deadline, started }
    }

    /// Whether every session has settled its last transaction (raising the
    /// stop of a [`Stop::For`] drive once its span has passed).
    pub fn is_done(&self) -> bool {
        if self.deadline.is_some_and(|deadline| Instant::now() >= deadline) {
            self.stop.store(true, Ordering::Relaxed);
        }
        self.sessions.iter().all(JoinHandle::is_finished)
    }

    /// Waits for the stop, joins every session and merges what they
    /// settled. `wall_time` is the measured span from the first spawn to
    /// the last join. Every session is joined before an error is returned,
    /// so none outlives the drive; a session's panic is re-raised with its
    /// own payload.
    pub fn join(self) -> Result<RunStats> {
        if let Some(deadline) = self.deadline {
            std::thread::sleep(deadline.saturating_duration_since(Instant::now()));
            self.stop.store(true, Ordering::Relaxed);
        }
        let joined: Vec<_> = self.sessions.into_iter().map(JoinHandle::join).collect();
        let mut run = RunStats::from_workers([], self.started.elapsed());
        for session in joined {
            run.merge(&session.unwrap_or_else(|payload| std::panic::resume_unwind(payload))?);
        }
        Ok(run)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4db_common::{CcScheme, SystemMode, TableId, TupleId, TxnId, WorkerId};
    use p4db_layout::TxnTrace;
    use p4db_storage::{LockMode, NodeStorage};
    use p4db_txn::TxnRequest;
    use p4db_workloads::{HotTuple, SmallBank, SmallBankConfig, Ycsb, YcsbConfig, YcsbMix};
    use std::sync::Mutex;

    fn ycsb() -> Arc<dyn Workload> {
        Arc::new(Ycsb::new(YcsbConfig { keys_per_node: 2_000, ..YcsbConfig::new(YcsbMix::A) }))
    }

    #[test]
    fn a_txns_stop_settles_exactly_n_per_session_at_windows_1_and_4() {
        for window in [1, 4] {
            let cluster = Cluster::builder(ycsb()).test_profile().build();
            let load = Load { window, ..Load::new(Stop::Txns(40)) };
            let stats = cluster.drive(load).unwrap();
            // 2 nodes x 2 sessions.
            assert_eq!(stats.merged.committed_total() + stats.failed, 4 * 40, "window {window}");
            assert!(stats.attempts_per_commit() < 3.0, "window {window}: {:.2}", stats.attempts_per_commit());
        }
    }

    /// Every hot SmallBank row is held by a foreign transaction for the whole
    /// drive, so a transaction touching one retries without end under an
    /// unbounded budget: only the stop's cancel ends its retry loop.
    #[test]
    fn a_timed_stop_cancels_retry_loops_and_measures_its_span() {
        let workload: Arc<dyn Workload> =
            Arc::new(SmallBank::new(SmallBankConfig { customers_per_node: 200, ..SmallBankConfig::default() }));
        let cluster = Cluster::builder(Arc::clone(&workload)).test_profile().mode(SystemMode::NoSwitch).build();
        let holder = TxnId::compose(1, NodeId(0), WorkerId(u16::MAX));
        let grants: Vec<_> = workload
            .hot_tuples(2)
            .into_iter()
            .map(|hot| {
                let node = cluster.shared().node(cluster.partition_map().home(hot.tuple).unwrap());
                (node, node.admit(holder, hot.tuple, LockMode::Exclusive, CcScheme::NoWait).unwrap())
            })
            .collect();
        let span = Duration::from_millis(150);
        let started = Instant::now();
        let stats = cluster.drive(Load { max_attempts: u32::MAX, ..Load::new(Stop::For(span)) });
        let elapsed = started.elapsed();
        for (node, grant) in &grants {
            node.release(holder, grant);
        }
        let stats = stats.unwrap();
        assert!(elapsed < span + Duration::from_secs(1), "the drive took {elapsed:?}");
        // The measured span covers the settlements after the stop too, so it
        // is longer than the requested one.
        assert!(stats.wall_time > span, "wall time {:?} is not past the span", stats.wall_time);
        assert!(stats.failed > 0, "the cancelled retry loops settle as failed");
    }

    /// Records every request its inner workload generates.
    struct Recorder {
        inner: Arc<dyn Workload>,
        seen: Mutex<Vec<TxnRequest>>,
    }

    impl Workload for Recorder {
        fn name(&self) -> String {
            self.inner.name()
        }
        fn tables(&self) -> Vec<TableId> {
            self.inner.tables()
        }
        fn load_node(&self, storage: &NodeStorage, num_nodes: u16) {
            self.inner.load_node(storage, num_nodes)
        }
        fn hot_tuples(&self, num_nodes: u16) -> Vec<HotTuple> {
            self.inner.hot_tuples(num_nodes)
        }
        fn layout_traces(&self, num_nodes: u16, rng: &mut FastRng) -> Vec<TxnTrace> {
            self.inner.layout_traces(num_nodes, rng)
        }
        fn generate(&self, ctx: &WorkloadCtx, rng: &mut FastRng) -> TxnRequest {
            let req = self.inner.generate(ctx, rng);
            self.seen.lock().unwrap().push(req.clone());
            req
        }
        fn tuple_home(&self, tuple: TupleId, num_nodes: u16) -> Option<NodeId> {
            self.inner.tuple_home(tuple, num_nodes)
        }
    }

    #[test]
    fn each_drive_on_a_cluster_draws_the_stream_of_its_call_index() {
        let recorder = Arc::new(Recorder { inner: ycsb(), seen: Mutex::new(Vec::new()) });
        let cluster =
            Cluster::builder(Arc::clone(&recorder) as Arc<dyn Workload>).test_profile().nodes(1).workers(1).build();
        let expected = |call: u64| {
            let config = cluster.config();
            let ctx = WorkloadCtx::new(1, NodeId(0), config.distributed_prob);
            let mut rng = FastRng::new(config.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(call << 40));
            (0..30).map(|_| recorder.inner.generate(&ctx, &mut rng)).collect::<Vec<_>>()
        };
        let mut streams = Vec::new();
        for _ in 0..2 {
            cluster.drive(Load::new(Stop::Txns(30))).unwrap();
            streams.push(std::mem::take(&mut *recorder.seen.lock().unwrap()));
        }
        assert_eq!(streams[0], expected(0), "the first drive replays the cluster's seed");
        assert_eq!(streams[1], expected(1), "the second drive draws the stream of call 1");
        assert_ne!(streams[0], streams[1]);
    }
}
