//! In-memory tables of the host DBMS.
//!
//! The host DBMS in the paper is a shared-nothing main-memory store; each
//! node owns one horizontal partition per table. A [`Table`] here is one such
//! partition, hash-sharded: a fixed power-of-two array of shards, each an
//! independent latch over its own row index, so unrelated accesses never
//! touch the same cache line, let alone the same lock.
//!
//! A shard's index is open addressing over 16-byte `(key, RowHandle)`
//! slots: linear probing from a home slot taken from the top bits of the
//! tuple's [`TupleId::mix`] (the shard took its low bits), a power-of-two
//! slot array that doubles at ¾ load, and backward-shift deletion, so no
//! tombstone lengthens a probe. A key's home slot is an address known
//! before the probe, and a probe usually reads one cache line.
//!
//! Lookups hand out [`RowHandle`]s (`Arc<Row>`): a handle stays valid for the
//! life of the row — across concurrent inserts, index growth and even
//! removal of the row itself (the `Arc` keeps the storage alive; the row just
//! stops being reachable through the table). The transaction engine resolves
//! a transaction's whole footprint into handles once at admission.
//!
//! Admission resolves that footprint in three passes, so that its cache
//! misses overlap. Each lookup takes its shard's read latch, a locked
//! read-modify-write that on x86 waits for every earlier load: a probe
//! that misses under the latch holds up the next tuple's probe until the
//! miss lands. Pass 1 ([`Table::prefetch_slot_prehashed`]) reads only the
//! latch and the slot array's header, lines it keeps hot, and prefetches
//! each tuple's home slot. Pass 2 ([`Table::prefetch_prehashed`]) probes
//! the slots, now in cache, and prefetches the rows. Pass 3
//! ([`crate::NodeStorage::admit`]: the clone of [`Table::get_prehashed`],
//! a locked increment on the row, then the row lock) finds both in cache.
//!
//! Latches protect *physical* consistency only; *logical* (transactional)
//! consistency comes from 2PL. Each row carries its own 2PL lock, a
//! [`RowLock`] word beside the value; a key without a row is locked in the
//! lock table's map (see [`crate::locks`]). A row that leaves the table —
//! replaced by an insert over its key, or removed — is *retired*: a
//! transaction still holding its handle can no longer lock it and must
//! resolve the key again.

use crate::locks::RowLock;
use p4db_common::prefetch::prefetch;
use p4db_common::sync::unpoison;
use p4db_common::{Error, Result, TableId, TupleId, TxnId, Value};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock, RwLockWriteGuard};

/// Default shard count of a table partition: large enough that a handful of
/// workers rarely collide, small enough that per-shard iteration stays
/// cheap.
pub const DEFAULT_TABLE_SHARDS: usize = 64;

/// A single row: its 2PL lock, the live value word, and the committed
/// versions lock-free snapshot readers resolve against.
///
/// The live `value` is what the 2PL path reads and writes; it can hold
/// uncommitted data while the writer's locks pin it. It has no latch of its
/// own: the 2PL row lock already serialises writers, and the value is one
/// [`Value`] word, so a single atomic load or store moves it whole. The two
/// readers that take no row lock — the fuzzy checkpoint scan and LM-Switch's
/// resolve — therefore see either the old word or the new one, never a torn
/// mix. Snapshot readers never touch it. They see only the row's
/// `VersionChain`, which committing writers install into *while still
/// holding their exclusive locks* — so per-row version timestamps are
/// strictly increasing and consistent with the 2PL serialization order.
#[derive(Debug)]
pub struct Row {
    lock: RowLock,
    value: AtomicU64,
    versions: RwLock<VersionChain>,
}

/// A row's committed history — only as much of it as a snapshot can still
/// resolve to. A row written while no snapshot older than its newest
/// version is active costs no heap at all.
///
/// * `versions` is the retained versions, `(commit_ts, switch_word)`,
///   oldest first: none yet, the newest alone (inline), or — only while a
///   displaced version is *above* the low watermark, i.e. some snapshot
///   announced now or later may still need it — a heap list ending in the
///   newest. Folding the list back to one version frees it.
/// * `base` is the exact predecessor of the first retained version — the
///   load-time switch word, the last version folded away, or `None` for a
///   row an inserting transaction created (a snapshot older than the
///   insert gets tuple-not-found, exactly like a 2PL read would have). A
///   snapshot older than every retained version reads it.
///
/// **Folding.** A displaced version at or below the low watermark becomes
/// `base`, and everything older is dropped. This is the guarantee the
/// mvcc module's "guarded reclamation" gives: every snapshot announced now
/// or later is at or above the watermark, so one that could resolve to the
/// folded version (or anything older) reads it from `base` instead.
#[derive(Debug, Default)]
struct VersionChain {
    base: Option<u64>,
    versions: Versions,
}

#[derive(Debug, Default)]
enum Versions {
    #[default]
    None,
    Newest((u64, u64)),
    /// At least two versions, the newest last.
    Spilled(Vec<(u64, u64)>),
}

impl VersionChain {
    /// Every retained version, oldest first.
    fn entries(&self) -> &[(u64, u64)] {
        match &self.versions {
            Versions::None => &[],
            Versions::Newest(version) => std::slice::from_ref(version),
            Versions::Spilled(versions) => versions,
        }
    }

    /// The newest committed word at or below `snap`, else `base`. Scans
    /// from the newest version, which answers every snapshot taken since it
    /// committed.
    fn resolve(&self, snap: u64) -> Option<u64> {
        self.entries().iter().rev().find(|&&(ts, _)| ts <= snap).map_or(self.base, |&(_, word)| Some(word))
    }

    /// Makes `(ts, word)` the newest version. Every retained version is
    /// displaced by it: those at or below `watermark` fold into `base`,
    /// the rest spill (see the type docs). Returns the retained count.
    fn install(&mut self, ts: u64, word: u64, watermark: u64) -> usize {
        let displaced = self.entries();
        if let Some(&(last, _)) = displaced.last() {
            debug_assert!(last <= ts, "version timestamps must be non-decreasing per row");
            if last == ts {
                // The same transaction wrote the row again: one net version.
                let len = displaced.len();
                match &mut self.versions {
                    Versions::Newest(newest) => newest.1 = word,
                    Versions::Spilled(versions) => versions[len - 1].1 = word,
                    Versions::None => {}
                }
                return len;
            }
        }
        let folded = displaced.partition_point(|&(ts, _)| ts <= watermark);
        let all_folded = folded == displaced.len();
        if folded > 0 {
            self.base = Some(displaced[folded - 1].1);
        }
        match &mut self.versions {
            Versions::Spilled(kept) if !all_folded => {
                kept.drain(..folded);
                kept.push((ts, word));
            }
            Versions::Newest(kept) if !all_folded => {
                let kept = *kept;
                self.versions = Versions::Spilled(vec![kept, (ts, word)]);
            }
            _ => self.versions = Versions::Newest((ts, word)),
        }
        self.entries().len()
    }

    /// GC: folds the newest displaced version at or below `watermark` into
    /// `base` and drops everything older; the newest version stays.
    /// Returns the number of versions reclaimed.
    fn fold(&mut self, watermark: u64) -> usize {
        let Versions::Spilled(versions) = &mut self.versions else { return 0 };
        let newest = versions.len() - 1;
        let folded = versions[..newest].partition_point(|&(ts, _)| ts <= watermark);
        if folded == 0 {
            return 0;
        }
        self.base = Some(versions[folded - 1].1);
        if folded == newest {
            self.versions = Versions::Newest(versions[newest]);
        } else {
            versions.drain(..folded);
        }
        folded
    }
}

/// A stable reference to one row. Cloning is one atomic increment; the
/// handle keeps the row alive (and readable/writable) for as long as it is
/// held, independent of what happens to the table maps.
pub type RowHandle = Arc<Row>;

impl Row {
    fn new(value: Value) -> Self {
        let base = Some(value.switch_word());
        Row {
            lock: RowLock::default(),
            value: AtomicU64::new(value.switch_word()),
            versions: RwLock::new(VersionChain { base, ..VersionChain::default() }),
        }
    }

    /// A row created by the inserting *transaction* `txn` (as opposed to a
    /// loader): born exclusively locked by `txn`, and with no pre-history,
    /// so snapshots older than the insert's commit timestamp must not see
    /// it.
    fn new_fresh(value: Value, txn: TxnId) -> Self {
        Row {
            lock: RowLock::held_by(txn),
            value: AtomicU64::new(value.switch_word()),
            versions: RwLock::new(VersionChain::default()),
        }
    }

    /// The row's 2PL lock.
    #[inline]
    pub fn lock(&self) -> &RowLock {
        &self.lock
    }

    /// Reads the row. The Acquire pairs with [`Row::write`]'s Release, so a
    /// reader that sees a word also sees what its writer did before storing
    /// it.
    #[inline]
    pub fn read(&self) -> Value {
        Value::scalar(self.value.load(Ordering::Acquire))
    }

    /// Overwrites the row. The caller holds the row's exclusive 2PL lock (or
    /// owns the row outright, as a loader or recovery does), so there is no
    /// racing writer to order against.
    #[inline]
    pub fn write(&self, value: Value) {
        self.value.store(value.switch_word(), Ordering::Release);
    }

    /// Snapshot read: the newest committed switch word at or below `snap`,
    /// or `None` when the row did not yet exist at `snap`. Never touches
    /// the live `value`, so it can run with zero lock-table interaction.
    ///
    /// Falling back to `base` when every retained version is newer than
    /// `snap` is sound because only versions at or below the low watermark
    /// are ever folded, and any snapshot a live reader holds is at least
    /// that watermark (see `VersionChain`).
    pub fn read_at(&self, snap: u64) -> Option<u64> {
        unpoison(self.versions.read()).resolve(snap)
    }

    /// Installs a committed version at commit time, while the writer still
    /// holds the tuple's exclusive 2PL lock (which serializes installers and
    /// keeps per-row timestamps strictly increasing), folding the version
    /// it displaces if that is at or below `watermark` — the committing
    /// transaction's one reading of the low watermark. `ts` must be above
    /// the clock's stable timestamp, so the new version itself never folds.
    /// A transaction that wrote the row more than once installs under one
    /// timestamp: the later install overwrites the earlier word, so the
    /// chain holds the transaction's *net* effect. Returns the retained
    /// chain length.
    pub fn install_version_folding(&self, ts: u64, word: u64, watermark: u64) -> usize {
        unpoison(self.versions.write()).install(ts, word, watermark)
    }

    /// [`Row::install_version_folding`] at watermark 0: retains every
    /// version (timestamps start at 1).
    pub fn install_version(&self, ts: u64, word: u64) -> usize {
        self.install_version_folding(ts, word, 0)
    }

    /// GC: folds the newest displaced version at or below `watermark` into
    /// the base and drops everything older. The newest version stays
    /// inline. Returns the number of versions reclaimed.
    pub fn trim_versions_below(&self, watermark: u64) -> usize {
        unpoison(self.versions.write()).fold(watermark)
    }

    /// A consistent copy of the retained versions, oldest first, and the
    /// base word they start from — the invariant checker's view. The base
    /// is the exact predecessor of the first entry.
    pub fn version_chain(&self) -> (Vec<(u64, u64)>, Option<u64>) {
        let chain = unpoison(self.versions.read());
        (chain.entries().to_vec(), chain.base)
    }

    /// Retained chain length (diagnostic).
    pub fn version_count(&self) -> usize {
        unpoison(self.versions.read()).entries().len()
    }
}

/// One slot of a shard's index: empty, or a key and its row. The handle's
/// non-null pointer is the `None` niche, so a slot is two words.
type Slot = Option<(u64, RowHandle)>;

const _: () = assert!(std::mem::size_of::<Slot>() == 16);

/// One shard's map from key to row (see the module docs): linear probing
/// over a power-of-two slot array, at most ¾ full so every probe run ends
/// at an empty slot.
#[derive(Debug)]
struct RowIndex {
    /// The table the keys belong to: a key's hash is its [`TupleId::mix`].
    table: TableId,
    slots: Vec<Slot>,
    len: usize,
}

impl RowIndex {
    fn new(table: TableId) -> Self {
        RowIndex { table, slots: vec![None; 8], len: 0 }
    }

    /// The slot a probe for `hash` starts at: the hash's top bits, where
    /// the shard took its low bits.
    #[inline]
    fn home(&self, hash: u64) -> usize {
        (hash >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    /// The slot holding `key`, else the empty slot that ends its probe run.
    #[inline]
    fn probe(&self, hash: u64, key: u64) -> usize {
        let mut at = self.home(hash);
        while self.slots[at].as_ref().is_some_and(|(k, _)| *k != key) {
            at = (at + 1) & (self.slots.len() - 1);
        }
        at
    }

    #[inline]
    fn get(&self, hash: u64, key: u64) -> Option<&RowHandle> {
        self.slots[self.probe(hash, key)].as_ref().map(|(_, row)| row)
    }

    /// Puts `row` under `key`, doubling the slot array first if that would
    /// fill it past ¾; returns the row it replaced.
    fn insert(&mut self, hash: u64, key: u64, row: RowHandle) -> Option<RowHandle> {
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            let grown = vec![None; self.slots.len() * 2];
            for (key, row) in std::mem::replace(&mut self.slots, grown).into_iter().flatten() {
                let at = self.probe(TupleId::new(self.table, key).mix(), key);
                self.slots[at] = Some((key, row));
            }
        }
        let at = self.probe(hash, key);
        let replaced = self.slots[at].replace((key, row)).map(|(_, old)| old);
        self.len += replaced.is_none() as usize;
        replaced
    }

    /// Takes `key`'s row out, then shifts back each later entry of the run
    /// whose probe passes the hole, so no key is cut off from its home.
    fn remove(&mut self, hash: u64, key: u64) -> Option<RowHandle> {
        let mut hole = self.probe(hash, key);
        let (_, row) = self.slots[hole].take()?;
        self.len -= 1;
        let mask = self.slots.len() - 1;
        let mut at = (hole + 1) & mask;
        while let Some((next, _)) = &self.slots[at] {
            let home = self.home(TupleId::new(self.table, *next).mix());
            if at.wrapping_sub(home) & mask >= at.wrapping_sub(hole) & mask {
                self.slots.swap(hole, at);
                hole = at;
            }
            at = (at + 1) & mask;
        }
        Some(row)
    }
}

type Shard = RwLock<RowIndex>;

/// One partition of one table: a fixed array of latch-protected index shards.
#[derive(Debug)]
pub struct Table {
    id: TableId,
    shards: Box<[Shard]>,
    /// Power-of-two shard mask; shard of key `k` is `mix(k) & mask`.
    mask: u64,
    /// Live row count, maintained on insert/remove so `len()` never has to
    /// sweep the shards.
    rows: AtomicUsize,
}

impl Table {
    /// A partition with the default shard count.
    pub fn new(id: TableId) -> Self {
        Self::with_shards(id, DEFAULT_TABLE_SHARDS)
    }

    /// A partition with an explicit shard count. `shards` is rounded up to
    /// the next power of two (minimum 1).
    pub fn with_shards(id: TableId, shards: usize) -> Self {
        let count = shards.max(1).next_power_of_two();
        let shards = (0..count).map(|_| RwLock::new(RowIndex::new(id))).collect();
        Table { id, shards, mask: count as u64 - 1, rows: AtomicUsize::new(0) }
    }

    pub fn id(&self) -> TableId {
        self.id
    }

    /// Number of shards (a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard latch that owns the key hashing to `hash`.
    #[inline]
    fn shard(&self, hash: u64) -> &Shard {
        &self.shards[(hash & self.mask) as usize]
    }

    /// The hash a key shards under: [`TupleId::mix`] of `(self.id, key)`,
    /// the exact value the admission path precomputes — `get` and
    /// `get_prehashed` always probe the same shard.
    #[inline]
    fn key_hash(&self, key: u64) -> u64 {
        TupleId::new(self.id, key).mix()
    }

    /// Number of rows in this partition.
    pub fn len(&self) -> usize {
        self.rows.load(Ordering::Relaxed)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inserts (or replaces) a row. Used by the loaders and by inserting
    /// transactions (TPC-C NewOrder). Returns the handle of the fresh row so
    /// the caller can keep operating on it without a second lookup.
    pub fn insert(&self, key: u64, value: Value) -> RowHandle {
        self.insert_row(key, Row::new(value))
    }

    /// Like [`Table::insert`], but for rows created *by the transaction*
    /// `txn` rather than a loader: the row is born exclusively locked by
    /// `txn` (no rival can lock it before `txn` releases it), and it has no
    /// pre-history, so snapshot reads older than the inserting transaction's
    /// commit see tuple-not-found instead of the load-time value.
    pub fn insert_fresh(&self, key: u64, value: Value, txn: TxnId) -> RowHandle {
        self.insert_row(key, Row::new_fresh(value, txn))
    }

    /// Puts `row` under `key`, retiring the row it replaces.
    fn insert_row(&self, key: u64, row: Row) -> RowHandle {
        let handle = Arc::new(row);
        let hash = self.key_hash(key);
        // The count moves while the shard latch is still held: updating it
        // after the guard drops would let a concurrent remove of the same
        // key decrement first and underflow the counter.
        let mut guard = unpoison(self.shard(hash).write());
        match guard.insert(hash, key, Arc::clone(&handle)) {
            Some(replaced) => replaced.lock.retire(),
            None => _ = self.rows.fetch_add(1, Ordering::Relaxed),
        }
        handle
    }

    /// Version-chain GC sweep: folds every row's chain against `watermark`
    /// ([`Row::trim_versions_below`]), one shard latch at a time — no
    /// global pause, concurrent readers and
    /// writers in other shards keep moving. Returns the number of versions
    /// reclaimed. The caller supplies the cluster low-watermark
    /// (`min(active snapshots, stable clock)`); see
    /// [`crate::mvcc::SnapshotRegistry::low_watermark`].
    pub fn collect_versions(&self, watermark: u64) -> usize {
        let mut reclaimed = 0;
        for shard in 0..self.shard_count() {
            self.for_each_in_shard(shard, |_, row| {
                reclaimed += row.trim_versions_below(watermark);
            });
        }
        reclaimed
    }

    /// Bulk-load helper: takes each shard latch once per consecutive run of
    /// same-shard keys rather than once per row. At most one shard is ever
    /// latched at a time (holding one latch while acquiring another could
    /// deadlock against a concurrent multi-shard operation).
    pub fn bulk_load(&self, rows: impl IntoIterator<Item = (u64, Value)>) {
        let mut held: Option<(usize, RwLockWriteGuard<'_, _>)> = None;
        for (key, value) in rows {
            let hash = self.key_hash(key);
            let index = (hash & self.mask) as usize;
            let mut guard = match held.take() {
                Some((held_index, guard)) if held_index == index => guard,
                other => {
                    // Release the previously held shard *before* locking the
                    // next one.
                    drop(other);
                    unpoison(self.shards[index].write())
                }
            };
            match guard.insert(hash, key, Arc::new(Row::new(value))) {
                Some(replaced) => replaced.lock.retire(),
                // Under the latch, like `insert` — see the comment there.
                None => _ = self.rows.fetch_add(1, Ordering::Relaxed),
            }
            held = Some((index, guard));
        }
    }

    /// Looks up a row handle. The returned handle keeps the row alive even if
    /// it is concurrently deleted, which keeps readers safe.
    pub fn get(&self, key: u64) -> Option<RowHandle> {
        self.get_prehashed(self.key_hash(key), key)
    }

    /// Looks up a row handle with a precomputed tuple hash (admission-time
    /// resolution: the tuple is hashed once, and a key with no row locks
    /// its lock-table shard with the same hash).
    #[inline]
    pub fn get_prehashed(&self, hash: u64, key: u64) -> Option<RowHandle> {
        unpoison(self.shard(hash).read()).get(hash, key).cloned()
    }

    /// Pass 1 of a batch of lookups (see the module docs): prefetches the
    /// home slot of `hash` in its shard's index under the shard's read
    /// latch, without reading the slot. Takes no handle, no lock, resolves
    /// no key and allocates nothing.
    #[inline]
    pub fn prefetch_slot_prehashed(&self, hash: u64) {
        let index = unpoison(self.shard(hash).read());
        prefetch(index.slots.as_ptr().wrapping_add(index.home(hash)).cast(), std::mem::size_of::<Slot>());
    }

    /// Pass 2 of a batch of lookups (see the module docs): probes the
    /// shard's index under its read latch and prefetches every cache line
    /// of the row's allocation, the `Arc` counts before the row included.
    /// Takes no handle, no lock and allocates nothing; a missing key does
    /// nothing.
    #[inline]
    pub fn prefetch_prehashed(&self, hash: u64, key: u64) {
        if let Some(row) = unpoison(self.shard(hash).read()).get(hash, key) {
            // `ArcInner` is `#[repr(C)]` `{ strong, weak, data }`: the two
            // counts sit right before `Arc::as_ptr`, which is the word the
            // clone of `get_prehashed` increments. Were the layout ever
            // to differ, a hint at the wrong line costs only the hint.
            let header = (2 * std::mem::size_of::<usize>()).next_multiple_of(std::mem::align_of::<Row>());
            let start = Arc::as_ptr(row).cast::<u8>().wrapping_sub(header);
            prefetch(start, header + std::mem::size_of::<Row>());
        }
    }

    /// Looks up a row handle or returns a typed error.
    pub fn get_or_err(&self, key: u64) -> Result<RowHandle> {
        self.get(key).ok_or(Error::TupleNotFound(TupleId::new(self.id, key)))
    }

    /// Reads a row's value directly.
    pub fn read(&self, key: u64) -> Result<Value> {
        Ok(self.get_or_err(key)?.read())
    }

    /// Writes a row's value directly (the row must exist).
    pub fn write(&self, key: u64, value: Value) -> Result<()> {
        self.get_or_err(key)?.write(value);
        Ok(())
    }

    /// Removes a row; returns whether it existed. Handles already resolved
    /// to the row stay valid — the row is merely unreachable for new lookups,
    /// and retired, so it can no longer be locked.
    pub fn remove(&self, key: u64) -> bool {
        let hash = self.key_hash(key);
        let mut guard = unpoison(self.shard(hash).write());
        let Some(removed) = guard.remove(hash, key) else { return false };
        removed.lock.retire();
        // Under the latch, like `insert` — see the comment there.
        self.rows.fetch_sub(1, Ordering::Relaxed);
        true
    }

    /// Visits every row, one shard at a time, without materializing a key
    /// vector. Each shard's latch is held only while that shard is visited;
    /// rows inserted or removed concurrently in other shards may or may not
    /// be seen.
    pub fn for_each(&self, mut f: impl FnMut(u64, &Row)) {
        for shard in 0..self.shard_count() {
            self.for_each_in_shard(shard, &mut f);
        }
    }

    /// Visits every row of **one** shard under that shard's read latch — the
    /// unit of a fuzzy checkpoint scan: each shard is snapshotted
    /// independently, so the table as a whole is never paused. The shard's
    /// rows are physically consistent (the latch is held for the visit);
    /// rows in other shards keep moving.
    pub fn for_each_in_shard(&self, shard: usize, mut f: impl FnMut(u64, &Row)) {
        for (key, row) in unpoison(self.shards[shard].read()).slots.iter().flatten() {
            f(*key, row);
        }
    }

    /// The shard a tuple key lives in (`mix(table, key) & mask`) — the index
    /// checkpoint-tail recovery uses to route a WAL record to the shard that
    /// owns its row.
    #[inline]
    pub fn shard_of(&self, key: u64) -> usize {
        (self.key_hash(key) & self.mask) as usize
    }
}

#[cfg(test)]
impl Table {
    /// Slots allocated over every shard's index (growth checks).
    pub(crate) fn slot_count(&self) -> usize {
        self.shards.iter().map(|shard| unpoison(shard.read()).slots.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Table {
        Table::new(TableId(1))
    }

    #[test]
    fn insert_read_write_roundtrip() {
        let t = table();
        t.insert(7, Value::scalar(10));
        assert_eq!(t.read(7).unwrap().switch_word(), 10);
        t.write(7, Value::scalar(20)).unwrap();
        assert_eq!(t.read(7).unwrap().switch_word(), 20);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn missing_key_yields_typed_error() {
        let t = table();
        match t.read(99) {
            Err(Error::TupleNotFound(tid)) => {
                assert_eq!(tid, TupleId::new(TableId(1), 99));
            }
            other => panic!("unexpected result {other:?}"),
        }
    }

    #[test]
    fn bulk_load_inserts_everything() {
        let t = table();
        t.bulk_load((0..100).map(|k| (k, Value::scalar(k))));
        assert_eq!(t.len(), 100);
        assert_eq!(t.read(42).unwrap().switch_word(), 42);
    }

    #[test]
    fn remove_deletes_row() {
        let t = table();
        t.insert(1, Value::scalar(1));
        assert!(t.remove(1));
        assert!(!t.remove(1));
        assert!(t.read(1).is_err());
    }

    #[test]
    fn len_tracks_replacing_inserts_and_removes() {
        let t = table();
        t.insert(1, Value::scalar(1));
        t.insert(1, Value::scalar(2)); // replacement, not growth
        assert_eq!(t.len(), 1);
        t.bulk_load([(1, Value::scalar(3)), (2, Value::scalar(4))]);
        assert_eq!(t.len(), 2);
        t.remove(1);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn shard_count_rounds_up_to_a_power_of_two() {
        assert_eq!(Table::with_shards(TableId(0), 3).shard_count(), 4);
        assert_eq!(Table::with_shards(TableId(0), 0).shard_count(), 1);
        assert_eq!(Table::with_shards(TableId(0), 64).shard_count(), 64);
    }

    #[test]
    fn for_each_visits_every_row_exactly_once() {
        let t = table();
        t.bulk_load((0..500).map(|k| (k, Value::scalar(k + 1))));
        let mut seen = vec![false; 500];
        let mut sum = 0u64;
        t.for_each(|key, row| {
            assert!(!seen[key as usize], "key {key} visited twice");
            seen[key as usize] = true;
            sum += row.read().switch_word();
        });
        assert!(seen.iter().all(|&s| s));
        assert_eq!(sum, (1..=500).sum::<u64>());
    }

    #[test]
    fn prehashed_get_agrees_with_plain_get() {
        let t = table();
        t.bulk_load((0..200).map(|k| (k, Value::scalar(k))));
        for k in 0..200u64 {
            let hash = TupleId::new(t.id(), k).mix();
            let a = t.get_prehashed(hash, k).expect("present");
            let b = t.get(k).expect("present");
            assert!(Arc::ptr_eq(&a, &b), "handles for key {k} disagree");
        }
    }

    /// The row index against a `std` map model: random inserts, replacing
    /// inserts, removes, gets and iterations over one shard, through
    /// several growths. Half the key pool hashes into the last eighth of
    /// the slot array at every capacity, so those keys collide and their
    /// probe runs wrap past the end to slot 0 — where backward-shift
    /// deletion has to move entries across the wrap.
    #[test]
    fn property_the_row_index_matches_a_map_model() {
        use p4db_common::rand_util::FastRng;
        use std::collections::HashMap;
        let t = Table::with_shards(TableId(3), 1);
        let hash = |key: u64| TupleId::new(t.id(), key).mix();
        let colliding = (0..).filter(|&key| hash(key) >> 61 == 0b111).take(300);
        let pool: Vec<u64> = colliding.chain(1_000_000..1_000_300).collect();
        let mut model: HashMap<u64, RowHandle> = HashMap::new();
        let mut rng = FastRng::new(41);
        let (mut slots, mut growths, mut wrapped) = (0, 0, false);
        for step in 0..20_000u64 {
            let key = pool[rng.gen_range(pool.len() as u64) as usize];
            match rng.gen_range(8) {
                0..=3 => {
                    let row = t.insert(key, Value::scalar(step));
                    if let Some(old) = model.insert(key, Arc::clone(&row)) {
                        assert!(old.lock().is_retired(), "a replaced row is retired");
                    }
                }
                4 | 5 => {
                    let removed = model.remove(&key);
                    assert_eq!(t.remove(key), removed.is_some(), "remove of key {key}");
                    assert!(removed.is_none_or(|row| row.lock().is_retired()), "a removed row is retired");
                }
                _ => match (t.get(key), model.get(&key)) {
                    (Some(got), Some(want)) => assert!(Arc::ptr_eq(&got, want), "get of key {key}"),
                    (got, want) => assert_eq!(got.is_some(), want.is_some(), "get of key {key}"),
                },
            }
            assert_eq!(t.len(), model.len());
            if t.slot_count() != slots {
                slots = t.slot_count();
                growths += 1;
            }
            if step % 64 == 0 {
                let index = unpoison(t.shards[0].read());
                wrapped |= index
                    .slots
                    .iter()
                    .enumerate()
                    .any(|(at, slot)| slot.as_ref().is_some_and(|(key, _)| index.home(hash(*key)) > at));
                let flat = index.slots.iter().flatten();
                let mut seen: Vec<(u64, *const Row)> = flat.map(|(k, row)| (*k, Arc::as_ptr(row))).collect();
                let mut want: Vec<(u64, *const Row)> = model.iter().map(|(&k, row)| (k, Arc::as_ptr(row))).collect();
                seen.sort_unstable();
                want.sort_unstable();
                assert_eq!(seen, want, "iteration at step {step}");
            }
        }
        assert!(growths >= 6, "the run passed {growths} growths");
        assert!(wrapped, "no probe run wrapped past the end of the slot array");

        let keys: Vec<u64> = model.keys().copied().collect();
        for key in keys {
            assert!(t.remove(key), "key {key} was reachable");
            assert!(t.get(key).is_none());
        }
        assert!(t.is_empty());
        let index = unpoison(t.shards[0].read());
        assert_eq!(index.len, 0);
        assert!(index.slots.iter().all(Option::is_none), "a removed key left its slot behind");
    }

    #[test]
    fn handles_stay_valid_across_removal() {
        let t = table();
        let handle = t.insert(9, Value::scalar(42));
        assert!(t.remove(9));
        // The row is unreachable through the table but the handle still
        // reads and writes the same storage.
        assert_eq!(handle.read().switch_word(), 42);
        handle.write(Value::scalar(43));
        assert_eq!(handle.read().switch_word(), 43);
    }
}
