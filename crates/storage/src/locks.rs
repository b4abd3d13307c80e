//! The row-granularity 2PL lock manager of the host DBMS.
//!
//! Two deadlock-prevention variants are implemented, matching §7.1:
//!
//! * **NO_WAIT** — a transaction aborts as soon as a conflicting lock request
//!   is denied.
//! * **WAIT_DIE** — on conflict, the requester waits if it is *older* than
//!   every current owner (its timestamp is smaller), otherwise it aborts
//!   ("dies"). Waiting is deadlock-free because waits only ever go from older
//!   to younger transactions.
//!
//! The table is sharded by tuple hash so that unrelated lock requests never
//! contend on the same mutex; contention on the *same* tuple (the hot set) is
//! exactly the effect the paper measures. The shard hash is
//! [`TupleId::mix`] — the same value the sharded row store uses — so the
//! admission path of the transaction engine computes it once per tuple and
//! feeds both structures ([`LockTable::acquire_prehashed`]).
//!
//! Waiting (WAIT_DIE only) uses bounded exponential backoff: short spin
//! bursts that double up to a cap, then `yield_now`, so an older waiter
//! neither hammers the shard mutex nor burns a full core while a lock-hold
//! of microseconds drains. Cumulative wait time is recorded per node
//! ([`LockTable::wait_stats`]) for the perf pipeline.

use p4db_common::hash::FastBuildHasher;
use p4db_common::sync::unpoison;
use p4db_common::{CcScheme, Error, Result, TupleId, TxnId};
use std::collections::HashMap;
use std::hint;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const SHARDS: usize = 64;

/// Spin-burst cap of the WAIT_DIE backoff: bursts double from 1 iteration up
/// to this, after which every retry also yields the core.
const MAX_SPIN_BURST: u32 = 1 << 10;

/// Lock mode of a request / grant.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum LockMode {
    Shared,
    Exclusive,
}

#[derive(Debug)]
struct LockEntry {
    mode: LockMode,
    owners: Vec<TxnId>,
}

/// Cumulative waiting behaviour of one node's lock table.
///
/// **Accounting contract** (pinned by `wait_accounting_counts_once_per_
/// contended_acquisition`): one *acquisition* is one `acquire` /
/// `acquire_prehashed` call, and it targets exactly **one** tuple in exactly
/// **one** shard (`mix(tuple) & (SHARDS-1)`) — a multi-tuple footprint is
/// multiple acquisitions, each with its own wait clock. Per acquisition the
/// clock starts lazily at the acquisition's *first* conflict and stops when
/// the acquisition resolves (grant, WAIT_DIE death after a wait, or
/// timeout); the result is folded into the totals exactly once, however many
/// backoff rounds the wait spanned. `waits` therefore counts *contended
/// acquisitions*, not backoff rounds, and `total_wait_ns` is the sum of
/// full first-conflict-to-resolution spans. Acquisitions granted on first
/// probe never read the clock and contribute to neither field.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct LockWaitStats {
    /// Acquisitions that had to wait at least one backoff round.
    pub waits: u64,
    /// Total time spent waiting across all of them (ns).
    pub total_wait_ns: u64,
}

impl LockWaitStats {
    pub fn total_wait(&self) -> Duration {
        Duration::from_nanos(self.total_wait_ns)
    }
}

type ShardMap = HashMap<TupleId, LockEntry, FastBuildHasher>;

/// The per-node lock table.
#[derive(Debug)]
pub struct LockTable {
    shards: Box<[Mutex<ShardMap>]>,
    /// Upper bound on how long WAIT_DIE waits before giving up; prevents a
    /// simulation bug (an owner that never releases) from hanging a worker
    /// forever. Generously larger than any realistic lock hold time.
    wait_timeout: Duration,
    /// Cumulative WAIT_DIE waiting, for the node-stats surface.
    waits: AtomicU64,
    waited_ns: AtomicU64,
    /// Total `acquire`/`acquire_prehashed` calls, contended or not. The
    /// snapshot read path's "zero lock-table interaction" claim is asserted
    /// against this counter (it is deliberately *not* part of
    /// [`LockWaitStats`], which only describes waiting).
    acquisitions: AtomicU64,
}

impl Default for LockTable {
    fn default() -> Self {
        Self::new()
    }
}

impl LockTable {
    pub fn new() -> Self {
        LockTable {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::default())).collect(),
            wait_timeout: Duration::from_millis(100),
            waits: AtomicU64::new(0),
            waited_ns: AtomicU64::new(0),
            acquisitions: AtomicU64::new(0),
        }
    }

    /// The shard mutex of a tuple with [`TupleId::mix`] hash `hash`.
    #[inline]
    fn shard(&self, hash: u64) -> &Mutex<ShardMap> {
        &self.shards[(hash as usize) & (SHARDS - 1)]
    }

    /// Overrides the WAIT_DIE waiting timeout (tests use a small value).
    pub fn with_wait_timeout(mut self, timeout: Duration) -> Self {
        self.wait_timeout = timeout;
        self
    }

    /// Total number of lock acquisitions attempted since construction
    /// (each `acquire`/`acquire_prehashed` call counts once, whatever its
    /// outcome). Read-only snapshot transactions must leave this unchanged.
    pub fn acquisition_count(&self) -> u64 {
        self.acquisitions.load(Ordering::Relaxed)
    }

    /// Cumulative waiting behaviour since construction. See
    /// [`LockWaitStats`] for the precise accounting contract.
    pub fn wait_stats(&self) -> LockWaitStats {
        LockWaitStats {
            waits: self.waits.load(Ordering::Relaxed),
            total_wait_ns: self.waited_ns.load(Ordering::Relaxed),
        }
    }

    /// Attempts to acquire `tuple` in `mode` for `txn` under the given
    /// concurrency-control scheme. Re-acquisition by the same transaction is
    /// idempotent (upgrades from shared to exclusive are treated as a
    /// conflict with other shared owners, as in standard 2PL).
    pub fn acquire(&self, txn: TxnId, tuple: TupleId, mode: LockMode, scheme: CcScheme) -> Result<()> {
        self.acquire_prehashed(tuple.mix(), txn, tuple, mode, scheme)
    }

    /// [`LockTable::acquire`] with the tuple's [`TupleId::mix`] hash already
    /// computed — the admission path hashes each tuple once and reuses the
    /// value for the lock shard and the row-store shard.
    pub fn acquire_prehashed(
        &self,
        hash: u64,
        txn: TxnId,
        tuple: TupleId,
        mode: LockMode,
        scheme: CcScheme,
    ) -> Result<()> {
        self.acquisitions.fetch_add(1, Ordering::Relaxed);
        // The deadline (and its `Instant::now()` call) is only materialised
        // once a conflict forces a wait; the granted-first-try fast path
        // never reads the clock. One acquisition probes exactly one shard
        // (the tuple's), so this single clock covers the acquisition's whole
        // first-conflict-to-resolution span — every return path below runs
        // through `note_wait`, which folds it into the totals exactly once
        // (see the `LockWaitStats` contract).
        let mut wait_started: Option<Instant> = None;
        let mut spins: u32 = 1;
        loop {
            {
                let mut shard = unpoison(self.shard(hash).lock());
                match shard.get_mut(&tuple) {
                    None => {
                        shard.insert(tuple, LockEntry { mode, owners: vec![txn] });
                        self.note_wait(wait_started);
                        return Ok(());
                    }
                    Some(entry) => {
                        if entry.owners.contains(&txn) {
                            if entry.mode == LockMode::Exclusive || mode == LockMode::Shared {
                                // Already held in a sufficient mode.
                                self.note_wait(wait_started);
                                return Ok(());
                            }
                            if entry.owners.len() == 1 {
                                // Sole shared owner upgrading to exclusive.
                                entry.mode = LockMode::Exclusive;
                                self.note_wait(wait_started);
                                return Ok(());
                            }
                        } else if entry.mode == LockMode::Shared && mode == LockMode::Shared {
                            entry.owners.push(txn);
                            self.note_wait(wait_started);
                            return Ok(());
                        }
                        // Conflict.
                        match scheme {
                            CcScheme::NoWait => return Err(Error::lock_conflict(tuple)),
                            CcScheme::WaitDie => {
                                // Wait only if older than *every* owner,
                                // otherwise die.
                                let oldest_owner =
                                    entry.owners.iter().copied().filter(|o| *o != txn).min().unwrap_or(txn);
                                if !txn.is_older_than(oldest_owner) {
                                    drop(shard);
                                    self.note_wait(wait_started);
                                    return Err(Error::wait_die(tuple, oldest_owner));
                                }
                                // Older than every owner: fall through to wait.
                            }
                        }
                    }
                }
            }
            let started = *wait_started.get_or_insert_with(Instant::now);
            if started.elapsed() >= self.wait_timeout {
                self.note_wait(wait_started);
                return Err(Error::lock_conflict(tuple));
            }
            // Bounded exponential backoff outside the shard mutex: bursts of
            // busy-spins that double up to a cap — owners release within
            // microseconds in this system, so early retries should be nearly
            // instant — then yield the core on every retry so a descheduled
            // owner can actually run.
            for _ in 0..spins {
                hint::spin_loop();
            }
            if spins < MAX_SPIN_BURST {
                spins <<= 1;
            } else {
                std::thread::yield_now();
            }
        }
    }

    /// Folds a completed wait (if any) into the cumulative node stats.
    #[inline]
    fn note_wait(&self, wait_started: Option<Instant>) {
        if let Some(started) = wait_started {
            self.waits.fetch_add(1, Ordering::Relaxed);
            self.waited_ns.fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
    }

    /// Releases `tuple` for `txn`. Releasing a lock that is not held is a
    /// no-op, which keeps abort paths simple (a transaction may abort halfway
    /// through its acquisition loop).
    pub fn release(&self, txn: TxnId, tuple: TupleId) {
        let mut shard = unpoison(self.shard(tuple.mix()).lock());
        release_in(&mut shard, txn, tuple);
    }

    /// Releases a whole footprint in per-shard groups: consecutive locks in
    /// the same shard (as recorded at admission, with their precomputed
    /// [`TupleId::mix`] hashes) share one mutex acquisition — the shard
    /// guard is handed from element to element and only swapped when the
    /// shard changes. Contended footprints, whose tuples cluster in few
    /// shards, pay far fewer mutex round trips than a per-tuple release;
    /// spread footprints degrade to exactly one acquisition per tuple.
    ///
    /// At most one shard is locked at any moment — holding a shard while
    /// acquiring the next would deadlock two transactions releasing their
    /// footprints in opposite shard orders.
    pub fn release_batch(&self, txn: TxnId, locks: &[(u64, TupleId)]) {
        let mut at = 0;
        while at < locks.len() {
            let index = (locks[at].0 as usize) & (SHARDS - 1);
            let mut guard = unpoison(self.shards[index].lock());
            while at < locks.len() && (locks[at].0 as usize) & (SHARDS - 1) == index {
                release_in(&mut guard, txn, locks[at].1);
                at += 1;
            }
        }
    }

    /// Releases every lock in `tuples` for `txn` (commit / abort path of
    /// callers that did not keep admission hashes around).
    pub fn release_all(&self, txn: TxnId, tuples: &[TupleId]) {
        for &tuple in tuples {
            self.release(txn, tuple);
        }
    }

    /// Whether any transaction currently holds a lock on `tuple` (test /
    /// stats helper).
    pub fn is_locked(&self, tuple: TupleId) -> bool {
        unpoison(self.shard(tuple.mix()).lock()).contains_key(&tuple)
    }

    /// Number of currently locked tuples (test / stats helper).
    pub fn locked_count(&self) -> usize {
        self.shards.iter().map(|s| unpoison(s.lock()).len()).sum()
    }
}

/// Removes `txn` from the entry of `tuple` inside an already-locked shard.
fn release_in(shard: &mut ShardMap, txn: TxnId, tuple: TupleId) {
    if let Some(entry) = shard.get_mut(&tuple) {
        let before = entry.owners.len();
        entry.owners.retain(|o| *o != txn);
        if entry.owners.is_empty() {
            shard.remove(&tuple);
        } else if entry.owners.len() != before && entry.mode == LockMode::Exclusive {
            // An exclusive lock has exactly one owner; if owners remain
            // after actually removing `txn`, the entry was shared all
            // along. The `len` guard matters: a *spurious* release (e.g. a
            // duplicate footprint entry whose lock another transaction
            // since re-acquired) must not downgrade that holder's
            // exclusive lock to shared.
            entry.mode = LockMode::Shared;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4db_common::{NodeId, TableId, WorkerId};
    use std::sync::Arc;

    fn t(key: u64) -> TupleId {
        TupleId::new(TableId(0), key)
    }

    fn txn(seq: u32) -> TxnId {
        TxnId::compose(seq, NodeId(0), WorkerId(0))
    }

    #[test]
    fn exclusive_conflicts_under_no_wait() {
        let lt = LockTable::new();
        assert!(lt.acquire(txn(1), t(5), LockMode::Exclusive, CcScheme::NoWait).is_ok());
        let err = lt.acquire(txn(2), t(5), LockMode::Exclusive, CcScheme::NoWait).unwrap_err();
        assert!(err.is_abort());
        lt.release(txn(1), t(5));
        assert!(lt.acquire(txn(2), t(5), LockMode::Exclusive, CcScheme::NoWait).is_ok());
    }

    #[test]
    fn shared_locks_are_compatible() {
        let lt = LockTable::new();
        assert!(lt.acquire(txn(1), t(5), LockMode::Shared, CcScheme::NoWait).is_ok());
        assert!(lt.acquire(txn(2), t(5), LockMode::Shared, CcScheme::NoWait).is_ok());
        assert!(lt.acquire(txn(3), t(5), LockMode::Exclusive, CcScheme::NoWait).is_err());
        lt.release(txn(1), t(5));
        lt.release(txn(2), t(5));
        assert!(lt.acquire(txn(3), t(5), LockMode::Exclusive, CcScheme::NoWait).is_ok());
    }

    #[test]
    fn reacquisition_is_idempotent_and_upgrade_works_when_sole_owner() {
        let lt = LockTable::new();
        assert!(lt.acquire(txn(1), t(9), LockMode::Shared, CcScheme::NoWait).is_ok());
        assert!(lt.acquire(txn(1), t(9), LockMode::Shared, CcScheme::NoWait).is_ok());
        assert!(lt.acquire(txn(1), t(9), LockMode::Exclusive, CcScheme::NoWait).is_ok());
        // Now exclusive: another shared request conflicts.
        assert!(lt.acquire(txn(2), t(9), LockMode::Shared, CcScheme::NoWait).is_err());
    }

    #[test]
    fn wait_die_younger_requester_dies() {
        let lt = LockTable::new();
        let older = txn(1);
        let younger = txn(2);
        assert!(lt.acquire(older, t(3), LockMode::Exclusive, CcScheme::WaitDie).is_ok());
        let err = lt.acquire(younger, t(3), LockMode::Exclusive, CcScheme::WaitDie).unwrap_err();
        match err {
            Error::Abort(p4db_common::AbortReason::WaitDieDied { owner, .. }) => assert_eq!(owner, older),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn wait_die_older_requester_waits_until_release() {
        let lt = Arc::new(LockTable::new());
        let older = txn(1);
        let younger = txn(2);
        assert!(lt.acquire(younger, t(3), LockMode::Exclusive, CcScheme::WaitDie).is_ok());

        let lt2 = Arc::clone(&lt);
        let waiter = std::thread::spawn(move || lt2.acquire(older, t(3), LockMode::Exclusive, CcScheme::WaitDie));
        std::thread::sleep(Duration::from_millis(10));
        lt.release(younger, t(3));
        assert!(waiter.join().unwrap().is_ok(), "older transaction must eventually obtain the lock");
        // The wait was recorded in the cumulative node stats.
        let stats = lt.wait_stats();
        assert!(stats.waits >= 1, "wait count not recorded: {stats:?}");
        assert!(stats.total_wait() >= Duration::from_millis(5), "wait time not recorded: {stats:?}");
    }

    #[test]
    fn wait_die_gives_up_after_timeout() {
        let lt = LockTable::new().with_wait_timeout(Duration::from_millis(20));
        let older = txn(1);
        let younger = txn(2);
        assert!(lt.acquire(younger, t(3), LockMode::Exclusive, CcScheme::WaitDie).is_ok());
        // The younger owner never releases: the older waiter must not hang.
        let start = Instant::now();
        assert!(lt.acquire(older, t(3), LockMode::Exclusive, CcScheme::WaitDie).is_err());
        assert!(start.elapsed() < Duration::from_secs(2));
    }

    #[test]
    fn uncontended_acquisitions_record_no_waits() {
        let lt = LockTable::new();
        for seq in 0..100 {
            lt.acquire(txn(seq), t(seq as u64), LockMode::Exclusive, CcScheme::WaitDie).unwrap();
        }
        assert_eq!(lt.wait_stats(), LockWaitStats::default());
        // Every call still counted as an acquisition.
        assert_eq!(lt.acquisition_count(), 100);
    }

    #[test]
    fn wait_accounting_counts_once_per_contended_acquisition() {
        // Pins the `LockWaitStats` contract: a transaction whose footprint
        // conflicts on two tuples in two *different shards* performs two
        // acquisitions, and each contributes exactly one wait whose span
        // covers that acquisition's full first-conflict-to-resolution time —
        // however many backoff rounds it looped through.
        let lt = Arc::new(LockTable::new());
        let a = t(0);
        // Find a tuple that hashes to a different lock shard than `a`.
        let b = (1..)
            .map(t)
            .find(|tuple| (tuple.mix() as usize) & (SHARDS - 1) != (a.mix() as usize) & (SHARDS - 1))
            .unwrap();
        let older = txn(1);
        let holder_a = txn(2);
        let holder_b = txn(3);
        assert!(lt.acquire(holder_a, a, LockMode::Exclusive, CcScheme::WaitDie).is_ok());
        assert!(lt.acquire(holder_b, b, LockMode::Exclusive, CcScheme::WaitDie).is_ok());

        let lt2 = Arc::clone(&lt);
        let waiter = std::thread::spawn(move || {
            lt2.acquire(older, a, LockMode::Exclusive, CcScheme::WaitDie)?;
            lt2.acquire(older, b, LockMode::Exclusive, CcScheme::WaitDie)
        });
        // Hold each lock ~10ms past the point the waiter needs it, releasing
        // `b` only after `a` so both acquisitions are forced to wait.
        std::thread::sleep(Duration::from_millis(10));
        lt.release(holder_a, a);
        std::thread::sleep(Duration::from_millis(10));
        lt.release(holder_b, b);
        assert!(waiter.join().unwrap().is_ok());

        let stats = lt.wait_stats();
        assert_eq!(stats.waits, 2, "one wait per contended acquisition, not per backoff round: {stats:?}");
        // Each span covers its whole wait (~10ms under the sleeps above);
        // assert a conservative floor to stay robust on loaded machines.
        assert!(stats.total_wait() >= Duration::from_millis(10), "under-reported cumulative wait: {stats:?}");
        // 2 holders + 2 waiter acquisitions.
        assert_eq!(lt.acquisition_count(), 4);
        lt.release_all(older, &[a, b]);
    }

    #[test]
    fn release_all_clears_everything() {
        let lt = LockTable::new();
        let tuples: Vec<_> = (0..10).map(t).collect();
        for &tuple in &tuples {
            lt.acquire(txn(1), tuple, LockMode::Exclusive, CcScheme::NoWait).unwrap();
        }
        assert_eq!(lt.locked_count(), 10);
        lt.release_all(txn(1), &tuples);
        assert_eq!(lt.locked_count(), 0);
        assert!(!lt.is_locked(t(0)));
    }

    #[test]
    fn release_batch_clears_grouped_footprints() {
        let lt = LockTable::new();
        // Enough tuples that several share a shard (64 shards, 300 tuples),
        // in arbitrary order so guard reuse sees both same- and
        // different-shard neighbours.
        let locks: Vec<(u64, TupleId)> = (0..300)
            .map(|k| {
                let tuple = t(k);
                lt.acquire_prehashed(tuple.mix(), txn(1), tuple, LockMode::Exclusive, CcScheme::NoWait).unwrap();
                (tuple.mix(), tuple)
            })
            .collect();
        assert_eq!(lt.locked_count(), 300);
        lt.release_batch(txn(1), &locks);
        assert_eq!(lt.locked_count(), 0);

        // Batch release only removes the given transaction's ownership.
        lt.acquire(txn(1), t(0), LockMode::Shared, CcScheme::NoWait).unwrap();
        lt.acquire(txn(2), t(0), LockMode::Shared, CcScheme::NoWait).unwrap();
        lt.release_batch(txn(1), &[(t(0).mix(), t(0))]);
        assert!(lt.is_locked(t(0)));
        lt.release(txn(2), t(0));
        assert!(!lt.is_locked(t(0)));
    }

    #[test]
    fn spurious_release_is_harmless() {
        let lt = LockTable::new();
        lt.release(txn(1), t(1));
        lt.acquire(txn(2), t(1), LockMode::Shared, CcScheme::NoWait).unwrap();
        lt.release(txn(1), t(1)); // not an owner
        assert!(lt.is_locked(t(1)));
    }

    #[test]
    fn spurious_release_never_downgrades_another_owners_exclusive_lock() {
        // The shape a duplicate footprint entry produces: the tuple was
        // early-released, another transaction re-acquired it exclusively,
        // and the stale duplicate entry is released at commit.
        let lt = LockTable::new();
        lt.acquire(txn(2), t(1), LockMode::Exclusive, CcScheme::NoWait).unwrap();
        lt.release_batch(txn(1), &[(t(1).mix(), t(1))]); // txn(1) is not an owner
                                                         // txn(2)'s lock must still be exclusive: a shared request conflicts.
        assert!(lt.acquire(txn(3), t(1), LockMode::Shared, CcScheme::NoWait).is_err());
        lt.release(txn(2), t(1));
        assert!(!lt.is_locked(t(1)));
    }

    #[test]
    fn no_wait_under_concurrency_never_grants_conflicting_locks() {
        let lt = Arc::new(LockTable::new());
        let tuple = t(0);
        let successes = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let in_cs = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let threads: Vec<_> = (0..8)
            .map(|i| {
                let lt = Arc::clone(&lt);
                let successes = Arc::clone(&successes);
                let in_cs = Arc::clone(&in_cs);
                std::thread::spawn(move || {
                    for s in 0..2000u32 {
                        let id = TxnId::compose(s, NodeId(0), WorkerId(i as u16));
                        if lt.acquire(id, tuple, LockMode::Exclusive, CcScheme::NoWait).is_ok() {
                            let now = in_cs.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                            assert_eq!(now, 0, "two holders of an exclusive lock");
                            successes.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            in_cs.fetch_sub(1, std::sync::atomic::Ordering::SeqCst);
                            lt.release(id, tuple);
                        }
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        assert!(successes.load(std::sync::atomic::Ordering::Relaxed) > 0);
        assert_eq!(lt.locked_count(), 0);
    }
}
