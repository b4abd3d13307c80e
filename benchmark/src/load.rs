//! The closed-loop load generator: one client thread and one `Session` per
//! node, each keeping a fixed window of transactions in flight through the
//! public client path (`Session::submit_request` / `wait`).

use crate::spec::{Spec, NODES};
use crate::stats::{classify, Outcome, Tally};
use crate::{counters::Global, procfs};
use p4db::common::rand_util::FastRng;
use p4db::common::stats::WorkerStats;
use p4db::workloads::WorkloadCtx;
use p4db::{Cluster, NodeId, Pending, Session, Workload};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A round aborts with an error, not an OOM kill, past this much resident
/// memory (the engine retains its whole log in memory).
const RSS_LIMIT_BYTES: u64 = 8 << 30;

/// Latency samples each client can take before its buffer has to grow.
const SAMPLE_CAPACITY: usize = 2 << 20;

/// A latency buffer whose pages are already resident, so that taking samples
/// does not show up as memory growth of the system under test.
pub fn sample_buffers() -> Vec<Vec<u32>> {
    (0..NODES)
        .map(|_| {
            let mut buffer = Vec::with_capacity(SAMPLE_CAPACITY);
            buffer.resize(SAMPLE_CAPACITY, 1);
            buffer.clear();
            buffer
        })
        .collect()
}

/// The RNG seed of one client in one round: a pure function of the run's
/// seed, so the same `--seed` replays the same request streams.
pub fn client_seed(seed: u64, round: u64, node: u16) -> u64 {
    let mut rng = FastRng::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (round << 32) ^ (node as u64 + 1));
    rng.next_u64()
}

/// A resource reading taken by the coordinating thread at a window edge.
#[derive(Copy, Clone, Debug)]
pub struct Edge {
    pub global: Global,
    pub cpu_us: u64,
    pub rss_bytes: u64,
}

impl Edge {
    pub fn read(cluster: &Cluster) -> Edge {
        // Memory first: reading the global counters serialises the WAL tails.
        let rss_bytes = procfs::rss_bytes();
        Edge { global: Global::read(cluster), cpu_us: procfs::cpu_us(), rss_bytes }
    }
}

/// What one load phase observed.
pub struct Load {
    /// Outcomes before, inside and after the timed window.
    pub warm: Tally,
    pub timed: Tally,
    pub drain: Tally,
    /// Submit→`wait`-returns latency (ns) of every transaction committed
    /// inside the window, ascending.
    pub samples: Vec<u32>,
    /// The sessions' statistics over the window, merged.
    pub timed_stats: WorkerStats,
    /// Commits in the sessions' statistics over all three phases.
    pub session_commits: u64,
    pub start: Edge,
    pub end: Edge,
    /// The first non-rollback error, so a failed transaction is never silent.
    pub first_error: Option<String>,
}

impl Load {
    pub fn commits(&self) -> u64 {
        self.warm.committed + self.timed.committed + self.drain.committed
    }
}

struct ClientResult {
    tallies: [Tally; 3],
    samples: Vec<u32>,
    timed_stats: WorkerStats,
    session_commits: u64,
    first_error: Option<String>,
}

/// Runs `warmup` of untimed traffic, then a timed `window`, then drains the
/// transactions still in flight. Fails when resident memory passes 8 GB.
pub fn drive(
    cluster: &Cluster,
    spec: &'static Spec,
    workload: &Arc<dyn Workload>,
    seeds: impl Fn(u16) -> u64,
    buffers: Vec<Vec<u32>>,
    warmup: Duration,
    window: Duration,
) -> Result<Load, String> {
    let abort = Arc::new(AtomicBool::new(false));
    let t0 = Instant::now() + warmup;
    let t1 = t0 + window;
    let handles: Vec<_> = buffers
        .into_iter()
        .enumerate()
        .map(|(node, samples)| {
            let node = node as u16;
            let session = cluster.session(NodeId(node)).expect("client node exists");
            let workload = Arc::clone(workload);
            let rng = FastRng::new(seeds(node));
            let abort = Arc::clone(&abort);
            std::thread::Builder::new()
                .name(format!("bench-client-{node}"))
                .spawn(move || client(session, spec, workload.as_ref(), rng, samples, t0, t1, &abort))
                .expect("spawn client thread")
        })
        .collect();

    let mut over_limit = None;
    let mut sleep_until = |deadline: Instant| {
        while let Some(left) = deadline.checked_duration_since(Instant::now()) {
            std::thread::sleep(left.min(Duration::from_millis(50)));
            let rss = procfs::rss_bytes();
            if rss > RSS_LIMIT_BYTES && over_limit.is_none() {
                over_limit = Some(rss);
                abort.store(true, Ordering::Relaxed);
            }
        }
    };
    sleep_until(t0);
    let start = Edge::read(cluster);
    sleep_until(t1);
    let end = Edge::read(cluster);

    let mut load = Load {
        warm: Tally::default(),
        timed: Tally::default(),
        drain: Tally::default(),
        samples: Vec::new(),
        timed_stats: WorkerStats::new(),
        session_commits: 0,
        start,
        end,
        first_error: None,
    };
    for handle in handles {
        let c = handle.join().map_err(|_| "a client thread panicked".to_string())?;
        load.warm.merge(&c.tallies[0]);
        load.timed.merge(&c.tallies[1]);
        load.drain.merge(&c.tallies[2]);
        load.samples.extend_from_slice(&c.samples);
        load.timed_stats.merge(&c.timed_stats);
        load.session_commits += c.session_commits;
        load.first_error = load.first_error.or(c.first_error);
    }
    if let Some(rss) = over_limit {
        return Err(format!("resident memory reached {} MB (limit {} MB)", rss >> 20, RSS_LIMIT_BYTES >> 20));
    }
    load.samples.sort_unstable();
    Ok(load)
}

#[allow(clippy::too_many_arguments)]
fn client(
    mut session: Session,
    spec: &Spec,
    workload: &dyn Workload,
    mut rng: FastRng,
    mut samples: Vec<u32>,
    t0: Instant,
    t1: Instant,
    abort: &AtomicBool,
) -> ClientResult {
    session.set_max_attempts(spec.max_attempts);
    let ctx = WorkloadCtx::new(NODES, session.node(), spec.distributed);
    let mut tallies = [Tally::default(); 3];
    let mut timed_stats = WorkerStats::new();
    let mut session_commits = 0;
    let mut first_error = None;
    let mut inflight: VecDeque<(Instant, Pending)> = VecDeque::with_capacity(spec.window);
    // 0 = warm-up, 1 = timed window, 2 = drain. A completion is counted in
    // the phase it was waited for in, and the session's statistics are cut
    // at the same completion, so the two always describe the same
    // transactions.
    let mut phase = 0;
    loop {
        while phase < 2 && inflight.len() < spec.window {
            let req = spec.next_request(workload, &ctx, &mut rng);
            let submitted = Instant::now();
            match session.submit_request(&req) {
                Ok(pending) => inflight.push_back((submitted, pending)),
                Err(e) => {
                    // A request the session rejects is a generator bug, a
                    // dead pool is fatal: either way stop submitting.
                    tallies[phase].failed += 1;
                    first_error.get_or_insert(format!("submit: {e}"));
                    phase = 2;
                }
            }
        }
        let Some((submitted, pending)) = inflight.pop_front() else { break };
        let result = session.wait(pending);
        let now = Instant::now();
        let outcome = classify(&result);
        tallies[phase].record(outcome);
        match (outcome, &result) {
            (Outcome::Committed, _) if phase == 1 => {
                samples.push((now - submitted).as_nanos().min(u32::MAX as u128) as u32)
            }
            (Outcome::Failed, Err(e)) => {
                first_error.get_or_insert(format!("{e}"));
            }
            _ => {}
        }
        let edge = if abort.load(Ordering::Relaxed) { 2 } else { (now >= t0) as usize + (now >= t1) as usize };
        while phase < edge {
            let stats = session.take_stats();
            session_commits += stats.committed_total();
            if phase == 1 {
                timed_stats = stats;
            }
            phase += 1;
        }
    }
    session_commits += session.stats().committed_total();
    ClientResult { tallies, samples, timed_stats, session_commits, first_error }
}
