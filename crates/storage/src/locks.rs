//! The row-granularity 2PL locks of the host DBMS.
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
//! **The lock lives in the row.** The lock of a key that has a row is that
//! row's [`RowLock`]: one word, changed by a single CAS, as main-memory
//! engines keep a tuple's lock in the tuple's header. Admission already
//! resolves each tuple's row, so locking it costs no second probe and no
//! allocation, and releasing it is one atomic step through the handle the
//! transaction kept.
//!
//! The [`LockTable`]'s sharded map is left with one job: keys that have no
//! row yet, i.e. inserts. It is sharded by [`TupleId::mix`] — the same value
//! the sharded row store uses — so unrelated requests never contend on the
//! same mutex. Both kinds of lock are taken through the node's one
//! `LockTable`, which counts every acquisition and folds every wait into
//! [`LockTable::wait_stats`].
//!
//! Waiting (WAIT_DIE only) uses bounded exponential backoff: short spin
//! bursts that double up to a cap, then `yield_now`, so an older waiter
//! neither hammers a shard mutex or a row's cache line nor burns a full core
//! while a lock-hold of microseconds drains.

use p4db_common::hash::FastBuildHasher;
use p4db_common::sync::unpoison;
use p4db_common::{CcScheme, Error, NodeId, Result, TupleId, TxnId, WorkerId};
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

// The bits of a `RowLock` word, high to low: exclusive, retired, a 14-bit
// shared count, and the 48-bit WAIT_DIE age of the oldest owner since the
// lock was last free.
const EXCLUSIVE: u64 = 1 << 63;
const RETIRED: u64 = 1 << 62;
const SHARED_ONE: u64 = 1 << 48;
const SHARED_MASK: u64 = ((1 << 14) - 1) * SHARED_ONE;
const AGE_MASK: u64 = SHARED_ONE - 1;

/// The WAIT_DIE age of `txn` in 48 bits: its sequence, then the low bytes of
/// its node and worker. Ages order exactly like [`TxnId::is_older_than`]
/// while node and worker ids stay below 256; beyond that two transactions
/// can share an age, and an equal age dies rather than waits, so waits still
/// cannot form a cycle.
fn age(txn: TxnId) -> u64 {
    ((txn.sequence() as u64) << 16) | ((txn.node().0 as u64 & 0xff) << 8) | (txn.worker().0 as u64 & 0xff)
}

/// The transaction an age was taken from (exact while node and worker ids
/// stay below 256), for the abort it reports.
fn owner_of(age: u64) -> TxnId {
    TxnId::compose((age >> 16) as u32, NodeId((age >> 8) as u16 & 0xff), WorkerId(age as u16 & 0xff))
}

/// The 2PL lock of one row, held in the row: an exclusive bit, a retired
/// bit, a shared count and the WAIT_DIE age of the oldest owner since the
/// lock was last free, in one word that every acquisition changes by a
/// single CAS. It has no owner list: a transaction locks each row once, in
/// the strongest mode it needs, and releases it through the mode it was
/// granted, so it never re-enters or upgrades a row lock.
///
/// A **retired** row has left its table — replaced by an insert over its
/// key, or removed by an aborted insert. Acquiring it is a lock conflict:
/// the requester aborts, and its retry resolves the key again.
///
/// Orderings: a granting CAS is `Acquire` and a release is `Release`, so
/// what one holder wrote under the lock happens-before the next holder's
/// grant; `retire` is `Release` and every probe loads with `Acquire`.
#[derive(Debug, Default)]
pub struct RowLock(AtomicU64);

/// What one probe of a lock found.
enum Probe {
    Granted,
    /// Held in a conflicting mode; `may_wait` when the requester is older
    /// than every owner.
    Held {
        owner: TxnId,
        may_wait: bool,
    },
    /// Never grantable as it stands: a retired row, or a saturated shared
    /// count.
    Unavailable,
}

impl RowLock {
    /// A lock held exclusively by `txn` from the start: the lock of a row
    /// that `txn` inserts, so no rival can lock the row before `txn` ends.
    pub(crate) fn held_by(txn: TxnId) -> Self {
        RowLock(AtomicU64::new(EXCLUSIVE | age(txn)))
    }

    fn try_acquire(&self, txn: TxnId, mode: LockMode) -> Probe {
        let age = age(txn);
        let mut word = self.0.load(Ordering::Acquire);
        loop {
            if word & RETIRED != 0 {
                return Probe::Unavailable;
            }
            let next = if word & (EXCLUSIVE | SHARED_MASK) == 0 {
                age | if mode == LockMode::Exclusive { EXCLUSIVE } else { SHARED_ONE }
            } else if mode == LockMode::Shared && word & EXCLUSIVE == 0 {
                if word & SHARED_MASK == SHARED_MASK {
                    return Probe::Unavailable;
                }
                ((word & !AGE_MASK) + SHARED_ONE) | (word & AGE_MASK).min(age)
            } else {
                let oldest = word & AGE_MASK;
                return Probe::Held { owner: owner_of(oldest), may_wait: age < oldest };
            };
            match self.0.compare_exchange_weak(word, next, Ordering::Acquire, Ordering::Acquire) {
                Ok(_) => return Probe::Granted,
                Err(now) => word = now,
            }
        }
    }

    /// Gives back one hold granted in `mode`, in one atomic step. A retired
    /// lock stays retired.
    pub fn release(&self, mode: LockMode) {
        match mode {
            LockMode::Exclusive => self.0.fetch_and(RETIRED, Ordering::Release),
            LockMode::Shared => self.0.fetch_sub(SHARED_ONE, Ordering::Release),
        };
    }

    /// Marks the row as gone from its table: every later acquisition is a
    /// conflict. Current holders keep their hold until they release it.
    pub(crate) fn retire(&self) {
        self.0.fetch_or(RETIRED, Ordering::Release);
    }

    /// Whether any transaction holds the lock.
    pub fn is_locked(&self) -> bool {
        self.0.load(Ordering::Acquire) & (EXCLUSIVE | SHARED_MASK) != 0
    }

    /// Whether the row has left its table (see [`RowLock::retire`]).
    #[cfg(test)]
    pub(crate) fn is_retired(&self) -> bool {
        self.0.load(Ordering::Acquire) & RETIRED != 0
    }
}

/// A key's lock in the map. The first owner is inline, so a key one
/// transaction holds — every insert's — allocates nothing beyond its map
/// slot; only further shared owners spill into `others`.
#[derive(Debug)]
struct LockEntry {
    mode: LockMode,
    owner: TxnId,
    others: Vec<TxnId>,
}

impl LockEntry {
    fn owners(&self) -> impl Iterator<Item = TxnId> + '_ {
        std::iter::once(self.owner).chain(self.others.iter().copied())
    }
}

/// Cumulative waiting behaviour of one node's locks.
///
/// **Accounting contract** (pinned by `wait_accounting_counts_once_per_
/// contended_acquisition`): one *acquisition* is one `acquire` /
/// `acquire_prehashed` / `acquire_row` call, and it targets exactly **one**
/// lock — a row's, or one key in one shard — so a multi-tuple footprint is
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

/// The per-node lock table: the entry point of every lock acquisition, and
/// the map that locks keys without a row.
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
    /// Total acquisitions, of keys and rows, contended or not. The snapshot
    /// read path's "zero lock interaction" claim is asserted against this
    /// counter (it is deliberately *not* part of [`LockWaitStats`], which
    /// only describes waiting).
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

    /// Total number of lock acquisitions attempted since construction, of
    /// keys and rows alike (each call counts once, whatever its outcome).
    /// Read-only snapshot transactions must leave this unchanged.
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

    /// Attempts to lock the key `tuple` in the map, in `mode`, for `txn`
    /// under the given concurrency-control scheme. Re-acquisition by the
    /// same transaction is idempotent (upgrades from shared to exclusive are
    /// treated as a conflict with other shared owners, as in standard 2PL).
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
        self.acquire_with(tuple, scheme, || {
            let mut shard = unpoison(self.shard(hash).lock());
            let Some(entry) = shard.get_mut(&tuple) else {
                shard.insert(tuple, LockEntry { mode, owner: txn, others: Vec::new() });
                return Probe::Granted;
            };
            if entry.owners().any(|o| o == txn) {
                if entry.mode == LockMode::Exclusive || mode == LockMode::Shared {
                    // Already held in a sufficient mode.
                    return Probe::Granted;
                }
                if entry.others.is_empty() {
                    // Sole shared owner upgrading to exclusive.
                    entry.mode = LockMode::Exclusive;
                    return Probe::Granted;
                }
            } else if entry.mode == LockMode::Shared && mode == LockMode::Shared {
                entry.others.push(txn);
                return Probe::Granted;
            }
            let owner = entry.owners().filter(|o| *o != txn).min().unwrap_or(txn);
            Probe::Held { owner, may_wait: txn.is_older_than(owner) }
        })
    }

    /// Attempts to lock a row through its [`RowLock`] — `tuple` names the
    /// row in the abort a conflict reports. A retired row, or a shared
    /// count at its limit, is a lock conflict under both schemes.
    pub fn acquire_row(
        &self,
        lock: &RowLock,
        txn: TxnId,
        tuple: TupleId,
        mode: LockMode,
        scheme: CcScheme,
    ) -> Result<()> {
        self.acquire_with(tuple, scheme, || lock.try_acquire(txn, mode))
    }

    /// One acquisition: probes until granted, or until the scheme says to
    /// give up. The wait clock (and its `Instant::now()` call) is only
    /// started once a conflict forces a wait; the granted-first-try fast
    /// path never reads it. One acquisition probes exactly one lock, so this
    /// single clock covers its whole first-conflict-to-resolution span, and
    /// every decision is folded into the totals exactly once by `note_wait`
    /// (see the `LockWaitStats` contract).
    fn acquire_with(&self, tuple: TupleId, scheme: CcScheme, mut probe: impl FnMut() -> Probe) -> Result<()> {
        self.acquisitions.fetch_add(1, Ordering::Relaxed);
        let mut wait_started: Option<Instant> = None;
        let mut spins: u32 = 1;
        loop {
            let decided = match probe() {
                Probe::Granted => Some(Ok(())),
                Probe::Unavailable => Some(Err(Error::lock_conflict(tuple))),
                Probe::Held { .. } if matches!(scheme, CcScheme::NoWait) => Some(Err(Error::lock_conflict(tuple))),
                Probe::Held { owner, may_wait: false } => Some(Err(Error::wait_die(tuple, owner))),
                // Older than every owner: wait, until the timeout.
                Probe::Held { may_wait: true, .. } => {
                    let started = *wait_started.get_or_insert_with(Instant::now);
                    (started.elapsed() >= self.wait_timeout).then(|| Err(Error::lock_conflict(tuple)))
                }
            };
            if let Some(result) = decided {
                self.note_wait(wait_started);
                return result;
            }
            // Bounded exponential backoff, holding nothing: bursts of
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

    /// Releases the key `tuple` for `txn`. Releasing a lock that is not
    /// held is a no-op, which keeps abort paths simple (a transaction may abort halfway
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

    /// Whether any transaction currently holds the key `tuple` in the map
    /// (test / stats helper). Row locks live in the rows:
    /// `NodeStorage::is_locked` sees both.
    pub fn is_locked(&self, tuple: TupleId) -> bool {
        unpoison(self.shard(tuple.mix()).lock()).contains_key(&tuple)
    }

    /// Number of keys currently locked in the map (test / stats helper).
    /// Row locks live in the rows: `NodeStorage::locked_count` counts both.
    pub fn locked_count(&self) -> usize {
        self.shards.iter().map(|s| unpoison(s.lock()).len()).sum()
    }
}

/// Removes `txn` from the entry of `tuple` inside an already-locked shard.
fn release_in(shard: &mut ShardMap, txn: TxnId, tuple: TupleId) {
    let Some(entry) = shard.get_mut(&tuple) else { return };
    if entry.owner == txn {
        let Some(next) = entry.others.pop() else {
            shard.remove(&tuple);
            return;
        };
        entry.owner = next;
    } else if let Some(at) = entry.others.iter().position(|&o| o == txn) {
        entry.others.swap_remove(at);
    } else {
        // A *spurious* release (e.g. a duplicate footprint entry whose lock
        // another transaction since re-acquired) must not downgrade that
        // holder's exclusive lock to shared.
        return;
    }
    // An exclusive lock has exactly one owner: owners remain after `txn`
    // left, so the entry was shared all along.
    entry.mode = LockMode::Shared;
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

    // --- Row locks ---------------------------------------------------------

    /// A free row lock and the lock table that acquires it.
    fn row() -> (LockTable, RowLock) {
        (LockTable::new(), RowLock::default())
    }

    #[test]
    fn no_wait_under_concurrency_never_grants_conflicting_row_locks() {
        let lt = Arc::new(LockTable::new());
        let lock = Arc::new(RowLock::default());
        let successes = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let in_cs = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let threads: Vec<_> = (0..8)
            .map(|i| {
                let (lt, lock) = (Arc::clone(&lt), Arc::clone(&lock));
                let successes = Arc::clone(&successes);
                let in_cs = Arc::clone(&in_cs);
                std::thread::spawn(move || {
                    for s in 0..2000u32 {
                        let id = TxnId::compose(s, NodeId(0), WorkerId(i as u16));
                        if lt.acquire_row(&lock, id, t(0), LockMode::Exclusive, CcScheme::NoWait).is_ok() {
                            let now = in_cs.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                            assert_eq!(now, 0, "two holders of an exclusive row lock");
                            successes.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            in_cs.fetch_sub(1, std::sync::atomic::Ordering::SeqCst);
                            lock.release(LockMode::Exclusive);
                        }
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        assert!(successes.load(std::sync::atomic::Ordering::Relaxed) > 0);
        assert!(!lock.is_locked());
        assert_eq!(lt.acquisition_count(), 8 * 2000);
    }

    #[test]
    fn shared_row_holders_count_up_and_down_and_the_last_release_frees_the_lock() {
        let (lt, lock) = row();
        for seq in 1..=3 {
            lt.acquire_row(&lock, txn(seq), t(1), LockMode::Shared, CcScheme::NoWait).unwrap();
        }
        assert!(lt.acquire_row(&lock, txn(9), t(1), LockMode::Exclusive, CcScheme::NoWait).is_err());
        lock.release(LockMode::Shared);
        lock.release(LockMode::Shared);
        assert!(lock.is_locked(), "one shared holder is left");
        assert!(lt.acquire_row(&lock, txn(9), t(1), LockMode::Exclusive, CcScheme::NoWait).is_err());
        lock.release(LockMode::Shared);
        assert!(!lock.is_locked());
        lt.acquire_row(&lock, txn(9), t(1), LockMode::Exclusive, CcScheme::NoWait).unwrap();
        assert!(lt.acquire_row(&lock, txn(10), t(1), LockMode::Shared, CcScheme::NoWait).is_err());
        lock.release(LockMode::Exclusive);
        assert!(!lock.is_locked());
    }

    #[test]
    fn a_retired_row_conflicts_under_both_schemes() {
        for scheme in [CcScheme::NoWait, CcScheme::WaitDie] {
            for mode in [LockMode::Shared, LockMode::Exclusive] {
                let (lt, lock) = row();
                lock.retire();
                let err = lt.acquire_row(&lock, txn(1), t(4), mode, scheme).unwrap_err();
                assert_eq!(err.abort_reason(), Some(p4db_common::AbortReason::LockConflict { tuple: t(4) }));
                assert!(!lock.is_locked() && lock.is_retired());
            }
        }
        // A holder's release keeps the row retired.
        let lt = LockTable::new();
        let lock = RowLock::held_by(txn(1));
        lock.retire();
        lock.release(LockMode::Exclusive);
        assert!(!lock.is_locked() && lock.is_retired());
        assert!(lt.acquire_row(&lock, txn(2), t(4), LockMode::Shared, CcScheme::NoWait).is_err());
        // Nobody waited for it.
        assert_eq!(lt.wait_stats(), LockWaitStats::default());
    }

    #[test]
    fn under_wait_die_an_older_row_requester_waits_and_a_younger_or_equal_one_dies() {
        let lt = Arc::new(LockTable::new());
        let lock = Arc::new(RowLock::default());
        let holder = TxnId::compose(5, NodeId(1), WorkerId(2));
        lt.acquire_row(&lock, holder, t(3), LockMode::Exclusive, CcScheme::WaitDie).unwrap();
        // Younger dies at once, naming the holder.
        let younger = TxnId::compose(6, NodeId(0), WorkerId(0));
        match lt.acquire_row(&lock, younger, t(3), LockMode::Shared, CcScheme::WaitDie) {
            Err(Error::Abort(p4db_common::AbortReason::WaitDieDied { owner, .. })) => assert_eq!(owner, holder),
            other => panic!("unexpected {other:?}"),
        }
        // An equal age dies too: node and worker ids agree in their low
        // bytes, so the two transactions cannot be told apart.
        let twin = TxnId::compose(5, NodeId(257), WorkerId(258));
        assert!(lt.acquire_row(&lock, twin, t(3), LockMode::Exclusive, CcScheme::WaitDie).is_err());
        assert_eq!(lt.wait_stats(), LockWaitStats::default(), "neither waited");
        // Older waits, and is granted once the holder releases.
        let older = TxnId::compose(4, NodeId(3), WorkerId(3));
        let waiter = {
            let (lt, lock) = (Arc::clone(&lt), Arc::clone(&lock));
            std::thread::spawn(move || lt.acquire_row(&lock, older, t(3), LockMode::Exclusive, CcScheme::WaitDie))
        };
        std::thread::sleep(Duration::from_millis(10));
        lock.release(LockMode::Exclusive);
        waiter.join().unwrap().expect("the older requester waits and succeeds");
        assert!(lock.is_locked());
        let stats = lt.wait_stats();
        assert_eq!(stats.waits, 1, "{stats:?}");
        assert!(stats.total_wait() >= Duration::from_millis(5), "{stats:?}");
    }

    #[test]
    fn under_wait_die_a_shared_row_remembers_its_oldest_owner() {
        let (lt, lock) = row();
        lt.acquire_row(&lock, txn(5), t(2), LockMode::Shared, CcScheme::WaitDie).unwrap();
        lt.acquire_row(&lock, txn(3), t(2), LockMode::Shared, CcScheme::WaitDie).unwrap();
        lt.acquire_row(&lock, txn(7), t(2), LockMode::Shared, CcScheme::WaitDie).unwrap();
        // A writer of age 4 is younger than the oldest owner (3): it dies.
        match lt.acquire_row(&lock, txn(4), t(2), LockMode::Exclusive, CcScheme::WaitDie) {
            Err(Error::Abort(p4db_common::AbortReason::WaitDieDied { owner, .. })) => assert_eq!(owner, txn(3)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn a_saturated_shared_count_conflicts_instead_of_overflowing() {
        let (lt, lock) = row();
        let limit = (SHARED_MASK / SHARED_ONE) as u32;
        for seq in 0..limit {
            lt.acquire_row(&lock, txn(seq), t(6), LockMode::Shared, CcScheme::NoWait).unwrap();
        }
        for scheme in [CcScheme::NoWait, CcScheme::WaitDie] {
            let err = lt.acquire_row(&lock, txn(0), t(6), LockMode::Shared, scheme).unwrap_err();
            assert_eq!(err.abort_reason(), Some(p4db_common::AbortReason::LockConflict { tuple: t(6) }));
        }
        // The count did not wrap into the retired or exclusive bits.
        assert!(!lock.is_retired());
        assert!(lt.acquire_row(&lock, txn(0), t(6), LockMode::Exclusive, CcScheme::NoWait).is_err());
        for _ in 0..limit {
            lock.release(LockMode::Shared);
        }
        assert!(!lock.is_locked());
        lt.acquire_row(&lock, txn(0), t(6), LockMode::Exclusive, CcScheme::NoWait).unwrap();
    }
}
