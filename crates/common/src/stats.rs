//! Throughput counters, latency histograms and per-phase latency breakdowns.
//!
//! Workers record into thread-local [`WorkerStats`]; the experiment driver
//! merges them into a [`RunStats`] at the end of a run. Nothing here is
//! shared between threads during measurement, so recording is branch-cheap
//! and lock-free.

use crate::error::AbortReason;
use std::time::Duration;

/// Classification of a committed transaction, matching the paper's
/// terminology: *hot* = switch-only, *cold* = host-only, *warm* = spans both.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum TxnClass {
    Hot,
    Cold,
    Warm,
}

impl TxnClass {
    pub fn label(self) -> &'static str {
        match self {
            TxnClass::Hot => "hot",
            TxnClass::Cold => "cold",
            TxnClass::Warm => "warm",
        }
    }
}

/// The execution phases used in the Fig 18a latency breakdown.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Phase {
    /// Time spent acquiring (and waiting on) row locks.
    LockAcquisition,
    /// Local reads/writes on the executing node.
    LocalAccess,
    /// Remote reads/writes on other nodes (includes the network round trips).
    RemoteAccess,
    /// Round trip to the switch plus pipeline execution.
    SwitchTxn,
    /// Everything else: parameter generation, commit bookkeeping, logging.
    TxnEngine,
}

pub const PHASES: [Phase; 5] =
    [Phase::LockAcquisition, Phase::LocalAccess, Phase::RemoteAccess, Phase::SwitchTxn, Phase::TxnEngine];

impl Phase {
    pub fn label(self) -> &'static str {
        match self {
            Phase::LockAcquisition => "Lock Acquisition",
            Phase::LocalAccess => "Local Access",
            Phase::RemoteAccess => "Remote Access",
            Phase::SwitchTxn => "Switch Txn",
            Phase::TxnEngine => "Txn Engine",
        }
    }

    fn index(self) -> usize {
        match self {
            Phase::LockAcquisition => 0,
            Phase::LocalAccess => 1,
            Phase::RemoteAccess => 2,
            Phase::SwitchTxn => 3,
            Phase::TxnEngine => 4,
        }
    }
}

/// A fixed-bucket log-scale latency histogram (nanoseconds). Buckets are
/// powers of two from 64 ns to ~8 s, which covers everything from a switch
/// pass to a pathological multi-second stall. The buckets are an inline
/// array, so a fresh histogram (and the [`WorkerStats`] every executor
/// reply carries) allocates nothing.
#[derive(Clone, Debug, Default)]
pub struct LatencyHistogram {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum_ns: u64,
    max_ns: u64,
}

const HIST_BUCKETS: usize = 28;
const HIST_BASE_SHIFT: u32 = 6; // first bucket: < 2^6 = 64 ns

impl LatencyHistogram {
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one latency sample.
    #[inline]
    pub fn record(&mut self, d: Duration) {
        let ns = d.as_nanos().min(u128::from(u64::MAX)) as u64;
        let bucket = if ns < (1 << HIST_BASE_SHIFT) {
            0
        } else {
            let log = 63 - ns.leading_zeros();
            ((log - HIST_BASE_SHIFT + 1) as usize).min(HIST_BUCKETS - 1)
        };
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum_ns = self.sum_ns.saturating_add(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency.
    pub fn mean(&self) -> Duration {
        match self.sum_ns.checked_div(self.count) {
            Some(ns) => Duration::from_nanos(ns),
            None => Duration::ZERO,
        }
    }

    pub fn max(&self) -> Duration {
        Duration::from_nanos(self.max_ns)
    }

    /// Approximate quantile (upper bucket bound of the bucket containing the
    /// q-quantile sample).
    pub fn quantile(&self, q: f64) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target.max(1) {
                let bound_ns = 1u64 << (HIST_BASE_SHIFT + i as u32);
                return Duration::from_nanos(bound_ns);
            }
        }
        self.max()
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

/// Per-worker statistics, merged into [`RunStats`] after a run.
#[derive(Clone, Debug, Default)]
pub struct WorkerStats {
    pub committed_hot: u64,
    pub committed_cold: u64,
    pub committed_warm: u64,
    pub aborts_lock_conflict: u64,
    pub aborts_wait_die: u64,
    pub aborts_remote_vote: u64,
    pub aborts_constraint: u64,
    pub aborts_other: u64,
    pub commit_latency: LatencyHistogram,
    /// Per-phase accumulated time (ns), Fig 18a.
    pub phase_ns: [u64; 5],
    /// Number of single-pass / multi-pass switch transactions issued.
    pub switch_single_pass: u64,
    pub switch_multi_pass: u64,
    /// Committed transactions whose hot set spanned more than one switch and
    /// therefore fell back to the host path (one sub-transaction per owning
    /// switch). Always 0 on single-switch topologies.
    pub cross_switch_fallback: u64,
    /// Read-only transactions that completed on the lock-free snapshot read
    /// path (they also count in `committed_cold`; this counter attributes
    /// them to the MVCC fast path).
    pub snapshot_reads: u64,
    /// Retry rounds: aborted attempts that were re-executed after a jittered
    /// exponential backoff (one per wait, not per abort — a transaction that
    /// exhausts its budget waits one time fewer than it aborted).
    pub retry_rounds: u64,
    /// Switch sub-transactions that ended in a timeout / in-doubt outcome —
    /// the health signal the per-switch circuit breaker trips on.
    pub switch_timeouts: u64,
    /// Hot operations demoted to the host 2PL path because their owning
    /// switch is in degraded mode (breaker open, authority on the host rows).
    pub degraded_hot: u64,
    /// Circuit-breaker trips observed by this worker (Closed → Open edges).
    pub breaker_trips: u64,
}

impl WorkerStats {
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a committed transaction of the given class with its end-to-end
    /// latency.
    #[inline]
    pub fn record_commit(&mut self, class: TxnClass, latency: Duration) {
        match class {
            TxnClass::Hot => self.committed_hot += 1,
            TxnClass::Cold => self.committed_cold += 1,
            TxnClass::Warm => self.committed_warm += 1,
        }
        self.commit_latency.record(latency);
    }

    /// Records an abort attempt (the transaction will usually be retried).
    #[inline]
    pub fn record_abort(&mut self, reason: AbortReason) {
        match reason {
            AbortReason::LockConflict { .. } => self.aborts_lock_conflict += 1,
            AbortReason::WaitDieDied { .. } => self.aborts_wait_die += 1,
            AbortReason::RemoteVoteAbort { .. } => self.aborts_remote_vote += 1,
            AbortReason::ConstraintViolation => self.aborts_constraint += 1,
            AbortReason::RetryBudgetExhausted => self.aborts_other += 1,
            AbortReason::SwitchUnavailable { .. } => self.aborts_other += 1,
        }
    }

    /// Adds time to one of the Fig 18a phases.
    #[inline]
    pub fn record_phase(&mut self, phase: Phase, d: Duration) {
        self.phase_ns[phase.index()] += d.as_nanos().min(u128::from(u64::MAX)) as u64;
    }

    pub fn committed_total(&self) -> u64 {
        self.committed_hot + self.committed_cold + self.committed_warm
    }

    pub fn aborts_total(&self) -> u64 {
        self.aborts_lock_conflict
            + self.aborts_wait_die
            + self.aborts_remote_vote
            + self.aborts_constraint
            + self.aborts_other
    }

    /// Merges another worker's stats into this one.
    pub fn merge(&mut self, other: &WorkerStats) {
        self.committed_hot += other.committed_hot;
        self.committed_cold += other.committed_cold;
        self.committed_warm += other.committed_warm;
        self.aborts_lock_conflict += other.aborts_lock_conflict;
        self.aborts_wait_die += other.aborts_wait_die;
        self.aborts_remote_vote += other.aborts_remote_vote;
        self.aborts_constraint += other.aborts_constraint;
        self.aborts_other += other.aborts_other;
        self.commit_latency.merge(&other.commit_latency);
        for i in 0..self.phase_ns.len() {
            self.phase_ns[i] += other.phase_ns[i];
        }
        self.switch_single_pass += other.switch_single_pass;
        self.switch_multi_pass += other.switch_multi_pass;
        self.cross_switch_fallback += other.cross_switch_fallback;
        self.snapshot_reads += other.snapshot_reads;
        self.retry_rounds += other.retry_rounds;
        self.switch_timeouts += other.switch_timeouts;
        self.degraded_hot += other.degraded_hot;
        self.breaker_trips += other.breaker_trips;
    }
}

/// Aggregated statistics for one experiment run (one bar / one data point in
/// the paper's figures).
#[derive(Clone, Debug, Default)]
pub struct RunStats {
    pub merged: WorkerStats,
    pub wall_time: Duration,
    /// Transactions that settled without committing: an abort no retry
    /// could change, an exhausted retry budget or a cancelled retry loop.
    pub failed: u64,
    /// Committed transactions whose switch reply was lost (committed in
    /// doubt, settled later by the resolver).
    pub in_doubt: u64,
}

impl RunStats {
    pub fn from_workers<'a>(workers: impl IntoIterator<Item = &'a WorkerStats>, wall_time: Duration) -> Self {
        let mut merged = WorkerStats::new();
        for w in workers {
            merged.merge(w);
        }
        RunStats { merged, wall_time, failed: 0, in_doubt: 0 }
    }

    /// Adds another run's counts and wall time to this one (back-to-back
    /// runs read as one).
    pub fn merge(&mut self, other: &RunStats) {
        self.merged.merge(&other.merged);
        self.wall_time += other.wall_time;
        self.failed += other.failed;
        self.in_doubt += other.in_doubt;
    }

    /// Execution attempts (commits plus aborted attempts) per commit.
    pub fn attempts_per_commit(&self) -> f64 {
        let commits = self.merged.committed_total().max(1) as f64;
        (self.merged.committed_total() + self.merged.aborts_total()) as f64 / commits
    }

    /// Committed transactions per second.
    pub fn throughput(&self) -> f64 {
        if self.wall_time.is_zero() {
            return 0.0;
        }
        self.merged.committed_total() as f64 / self.wall_time.as_secs_f64()
    }

    /// Abort rate: aborted attempts / (aborted attempts + commits).
    pub fn abort_rate(&self) -> f64 {
        let aborts = self.merged.aborts_total() as f64;
        let commits = self.merged.committed_total() as f64;
        if aborts + commits == 0.0 {
            0.0
        } else {
            aborts / (aborts + commits)
        }
    }

    /// Fraction of committed transactions that were hot (switch-only).
    pub fn hot_fraction(&self) -> f64 {
        let total = self.merged.committed_total() as f64;
        if total == 0.0 {
            0.0
        } else {
            self.merged.committed_hot as f64 / total
        }
    }

    /// Mean commit latency.
    pub fn mean_latency(&self) -> Duration {
        self.merged.commit_latency.mean()
    }

    /// Per-phase mean time per committed transaction, Fig 18a.
    pub fn phase_breakdown(&self) -> Vec<(Phase, Duration)> {
        let commits = self.merged.committed_total().max(1);
        PHASES.iter().map(|&p| (p, Duration::from_nanos(self.merged.phase_ns[p.index()] / commits))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{TableId, TupleId};

    #[test]
    fn histogram_mean_and_quantile_are_plausible() {
        let mut h = LatencyHistogram::new();
        for us in [10u64, 20, 30, 40, 50] {
            h.record(Duration::from_micros(us));
        }
        assert_eq!(h.count(), 5);
        let mean = h.mean();
        assert!(mean >= Duration::from_micros(25) && mean <= Duration::from_micros(35));
        assert!(h.quantile(1.0) >= Duration::from_micros(50));
        assert!(h.quantile(0.0) >= Duration::from_micros(8));
    }

    #[test]
    fn histogram_merge_adds_counts() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(Duration::from_micros(5));
        b.record(Duration::from_micros(500));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!(a.max() >= Duration::from_micros(500));
    }

    #[test]
    fn worker_stats_classify_commits_and_aborts() {
        let mut w = WorkerStats::new();
        w.record_commit(TxnClass::Hot, Duration::from_micros(3));
        w.record_commit(TxnClass::Cold, Duration::from_micros(30));
        w.record_commit(TxnClass::Warm, Duration::from_micros(50));
        w.record_abort(AbortReason::LockConflict { tuple: TupleId::new(TableId(0), 1) });
        w.record_abort(AbortReason::ConstraintViolation);
        assert_eq!(w.committed_total(), 3);
        assert_eq!(w.aborts_total(), 2);
        assert_eq!(w.committed_hot, 1);
        assert_eq!(w.aborts_lock_conflict, 1);
        assert_eq!(w.aborts_constraint, 1);
    }

    #[test]
    fn run_stats_throughput_uses_wall_time() {
        let mut w = WorkerStats::new();
        for _ in 0..1000 {
            w.record_commit(TxnClass::Cold, Duration::from_micros(10));
        }
        let run = RunStats::from_workers([&w], Duration::from_secs(2));
        assert!((run.throughput() - 500.0).abs() < 1e-6);
        assert_eq!(run.abort_rate(), 0.0);
    }

    #[test]
    fn run_stats_merges_multiple_workers() {
        let mut a = WorkerStats::new();
        let mut b = WorkerStats::new();
        a.record_commit(TxnClass::Hot, Duration::from_micros(1));
        b.record_commit(TxnClass::Cold, Duration::from_micros(1));
        b.record_abort(AbortReason::ConstraintViolation);
        let run = RunStats::from_workers([&a, &b], Duration::from_secs(1));
        assert_eq!(run.merged.committed_total(), 2);
        assert!((run.hot_fraction() - 0.5).abs() < f64::EPSILON);
        assert!(run.abort_rate() > 0.0);
    }

    #[test]
    fn phase_breakdown_is_per_commit() {
        let mut w = WorkerStats::new();
        w.record_commit(TxnClass::Cold, Duration::from_micros(10));
        w.record_commit(TxnClass::Cold, Duration::from_micros(10));
        w.record_phase(Phase::LockAcquisition, Duration::from_micros(8));
        let run = RunStats::from_workers([&w], Duration::from_secs(1));
        let breakdown = run.phase_breakdown();
        let lock = breakdown.iter().find(|(p, _)| *p == Phase::LockAcquisition).unwrap().1;
        assert_eq!(lock, Duration::from_micros(4));
    }
}
