//! Per-node storage assembly: the tables of the node's partition, its lock
//! table and write-ahead log.
//!
//! [`NodeStorage::admit`] is the 2PL admission of one tuple: it resolves the
//! tuple's row and locks it in one step, through the row's own lock when the
//! row exists and through the lock table's map when it does not (an
//! insert). The [`Grant`] it returns is what releasing takes.
//!
//! A caller admitting a whole footprint runs three passes over it, each to
//! the end before the next begins: [`NodeStorage::prefetch_slot`] over
//! every tuple, then [`NodeStorage::prefetch`], then `admit` in order. Each
//! pass takes the tuple's shard latch, a locked read-modify-write that on
//! x86 waits for every earlier load, so a probe that misses under it holds
//! up the next tuple's. Pass 1 reads only hot lines and prefetches each
//! tuple's home slot in its table's index; pass 2 probes the slots, now in
//! cache, and prefetches the rows; pass 3's handle clone, another locked
//! increment, finds the row in cache. So a footprint's index misses
//! overlap, and then its row misses do (see [`crate::table`]).
//!
//! Table ids are small and dense in every workload, so the table directory
//! is a plain vector indexed by `TableId` — the admission path resolves a
//! tuple's table with one bounds-checked load instead of a map probe.

use crate::checkpoint::CheckpointStore;
use crate::locks::{LockMode, LockTable};
use crate::table::{RowHandle, Table};
use crate::wal::Wal;
use p4db_common::{CcScheme, Error, NodeId, Result, TableId, TupleId, TxnId};

/// The locks one transaction holds on one tuple of a node, as admission (or
/// an insert) granted them: its row's lock in `mode`, the key's lock in the
/// lock table's map, or — for a row that appeared between the two probes of
/// an admission — both. Released through [`NodeStorage::release`], or by the
/// holder one piece at a time ([`Grant::release_row`], [`Grant::key`]).
#[derive(Clone, Debug)]
pub struct Grant {
    tuple: TupleId,
    mode: LockMode,
    /// The row, locked in `mode`; `None` when the key had no row.
    row: Option<RowHandle>,
    /// The tuple's [`TupleId::mix`] hash when the key is locked in the map.
    key_hash: Option<u64>,
}

impl Grant {
    /// The grant of a row the holder inserted: [`crate::Table::insert_fresh`]
    /// creates it exclusively locked.
    pub fn inserted(tuple: TupleId, row: RowHandle) -> Self {
        Grant { tuple, mode: LockMode::Exclusive, row: Some(row), key_hash: None }
    }

    pub fn tuple(&self) -> TupleId {
        self.tuple
    }

    /// The locked row, if the key had one.
    pub fn row(&self) -> Option<&RowHandle> {
        self.row.as_ref()
    }

    /// `(hash, tuple)` when the key is locked in the lock table's map — the
    /// shape [`LockTable::release_batch`] takes.
    pub fn key(&self) -> Option<(u64, TupleId)> {
        self.key_hash.map(|hash| (hash, self.tuple))
    }

    /// Gives back the row lock, if any: one atomic step.
    pub fn release_row(&self) {
        if let Some(row) = &self.row {
            row.lock().release(self.mode);
        }
    }
}

/// All storage owned by one database node.
#[derive(Debug)]
pub struct NodeStorage {
    node: NodeId,
    /// Dense table directory indexed by `TableId`; `None` = undeclared.
    tables: Vec<Option<Table>>,
    locks: LockTable,
    wal: Wal,
    checkpoints: CheckpointStore,
}

impl NodeStorage {
    /// Creates storage for `node` with the given (empty) tables, using the
    /// default shard count per table.
    pub fn new(node: NodeId, table_ids: impl IntoIterator<Item = TableId>) -> Self {
        Self::with_shards(node, table_ids, crate::table::DEFAULT_TABLE_SHARDS)
    }

    /// Creates storage with an explicit per-table shard count
    /// (non-powers-of-two round up).
    pub fn with_shards(node: NodeId, table_ids: impl IntoIterator<Item = TableId>, shards: usize) -> Self {
        Self::with_shards_and_segments(node, table_ids, shards, crate::wal::DEFAULT_SEGMENT_RECORDS)
    }

    /// [`NodeStorage::with_shards`] with an explicit WAL segment capacity
    /// (records per sealed segment; clamps to at least 1).
    pub fn with_shards_and_segments(
        node: NodeId,
        table_ids: impl IntoIterator<Item = TableId>,
        shards: usize,
        segment_records: usize,
    ) -> Self {
        let mut tables: Vec<Option<Table>> = Vec::new();
        for id in table_ids {
            if tables.len() <= id.index() {
                tables.resize_with(id.index() + 1, || None);
            }
            tables[id.index()] = Some(Table::with_shards(id, shards));
        }
        NodeStorage {
            node,
            tables,
            locks: LockTable::new(),
            wal: Wal::with_segment_capacity(segment_records),
            checkpoints: CheckpointStore::new(),
        }
    }

    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The node's partition of `table`.
    #[inline]
    pub fn table(&self, table: TableId) -> Result<&Table> {
        match self.tables.get(table.index()) {
            Some(Some(t)) => Ok(t),
            _ => Err(Error::InvalidConfig(format!("table {table:?} not declared on {}", self.node))),
        }
    }

    /// All declared table ids.
    pub fn table_ids(&self) -> Vec<TableId> {
        self.tables.iter().flatten().map(Table::id).collect()
    }

    /// The node's 2PL lock table.
    #[inline]
    pub fn locks(&self) -> &LockTable {
        &self.locks
    }

    /// The node's write-ahead log.
    pub fn wal(&self) -> &Wal {
        &self.wal
    }

    /// The node's retained checkpoint generations (see
    /// [`crate::checkpoint`]).
    pub fn checkpoints(&self) -> &CheckpointStore {
        &self.checkpoints
    }

    /// Admission-time footprint resolution: resolves `tuple`'s row and
    /// acquires its 2PL lock in one step, hashing the tuple exactly once.
    ///
    /// A row found by the first probe is locked through its own
    /// [`crate::RowLock`]; the map is not touched. A key without a row (an
    /// inserting operation, or a caller-level tuple-not-found) is locked in
    /// the lock table's map and probed again: a row inserted in between is
    /// row-locked as well. Lock conflicts and WAIT_DIE deaths — a retired
    /// row among them — surface as the usual abort errors *without* a
    /// granted lock.
    #[inline]
    pub fn admit(&self, txn: TxnId, tuple: TupleId, mode: LockMode, scheme: CcScheme) -> Result<Grant> {
        let table = self.table(tuple.table)?;
        let hash = tuple.mix();
        let mut grant = Grant { tuple, mode, row: table.get_prehashed(hash, tuple.key), key_hash: None };
        if grant.row.is_none() {
            self.locks.acquire_prehashed(hash, txn, tuple, mode, scheme)?;
            grant.key_hash = Some(hash);
            grant.row = table.get_prehashed(hash, tuple.key);
        }
        if let Some(row) = &grant.row {
            if let Err(e) = self.locks.acquire_row(row.lock(), txn, tuple, mode, scheme) {
                // The error contract promises no lock on any `Err`.
                if grant.key_hash.is_some() {
                    self.locks.release(txn, tuple);
                }
                return Err(e);
            }
        }
        Ok(grant)
    }

    /// Pass 1 of a footprint's admission (see the module docs): prefetches
    /// `tuple`'s home slot in its table's index without reading it,
    /// resolving nothing and locking nothing. An undeclared table does
    /// nothing; the pass 3 `admit` of the same tuple reports it.
    #[inline]
    pub fn prefetch_slot(&self, tuple: TupleId) {
        if let Some(Some(table)) = self.tables.get(tuple.table.index()) {
            table.prefetch_slot_prehashed(tuple.mix());
        }
    }

    /// Pass 2 of a footprint's admission (see the module docs): probes
    /// `tuple`'s row and prefetches it, resolving nothing and locking
    /// nothing. A key with no row and an undeclared table do nothing; the
    /// pass 3 `admit` of the same tuple reports what is wrong.
    #[inline]
    pub fn prefetch(&self, tuple: TupleId) {
        if let Some(Some(table)) = self.tables.get(tuple.table.index()) {
            table.prefetch_prehashed(tuple.mix(), tuple.key);
        }
    }

    /// Gives back every lock of `grant`, held by `txn`.
    pub fn release(&self, txn: TxnId, grant: &Grant) {
        grant.release_row();
        if let Some((_, tuple)) = grant.key() {
            self.locks.release(txn, tuple);
        }
    }

    /// Whether any transaction holds a lock on `tuple`: its key in the lock
    /// table's map, or the row the table holds under it (test / stats
    /// helper).
    pub fn is_locked(&self, tuple: TupleId) -> bool {
        self.locks.is_locked(tuple) || self.peek(tuple).ok().flatten().is_some_and(|row| row.lock().is_locked())
    }

    /// Number of locks held on this node: keys locked in the lock table's
    /// map plus locked rows, found by sweeping every table (test / stats
    /// helper). A retired row has left its table and is not counted.
    pub fn locked_count(&self) -> usize {
        let mut rows = 0;
        for table in self.tables() {
            table.for_each(|_, row| rows += row.lock().is_locked() as usize);
        }
        self.locks.locked_count() + rows
    }

    /// Snapshot-path resolution: resolves a tuple's [`RowHandle`] with the
    /// same single hash the 2PL admission path uses, but with **zero lock
    /// interaction** — the read-only fast path. Returns
    /// `Ok(None)` when no row exists under the key.
    #[inline]
    pub fn peek(&self, tuple: TupleId) -> Result<Option<RowHandle>> {
        let table = self.table(tuple.table)?;
        Ok(table.get_prehashed(tuple.mix(), tuple.key))
    }

    /// Version-chain GC across every table on this node; returns the number
    /// of versions reclaimed (see [`Table::collect_versions`]).
    pub fn collect_versions(&self, watermark: u64) -> usize {
        self.tables.iter().flatten().map(|t| t.collect_versions(watermark)).sum()
    }

    /// Every table stored on this node (checkers and sweepers).
    pub fn tables(&self) -> impl Iterator<Item = &Table> {
        self.tables.iter().flatten()
    }

    /// Total number of rows stored on this node (all tables).
    pub fn total_rows(&self) -> usize {
        self.tables.iter().flatten().map(Table::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4db_common::Value;
    use std::sync::Arc;

    #[test]
    fn node_storage_exposes_declared_tables() {
        let storage = NodeStorage::new(NodeId(2), [TableId(0), TableId(1)]);
        assert_eq!(storage.node(), NodeId(2));
        assert_eq!(storage.table_ids(), vec![TableId(0), TableId(1)]);
        assert!(storage.table(TableId(0)).is_ok());
        assert!(storage.table(TableId(7)).is_err());
    }

    #[test]
    fn sparse_table_ids_resolve_correctly() {
        let storage = NodeStorage::new(NodeId(0), [TableId(5), TableId(2)]);
        assert_eq!(storage.table_ids(), vec![TableId(2), TableId(5)]);
        assert!(storage.table(TableId(2)).is_ok());
        assert!(storage.table(TableId(3)).is_err());
        assert!(storage.table(TableId(6)).is_err());
    }

    #[test]
    fn admit_locks_and_resolves_in_one_step() {
        use p4db_common::WorkerId;
        let storage = NodeStorage::new(NodeId(0), [TableId(0)]);
        storage.table(TableId(0)).unwrap().insert(7, Value::scalar(70));
        let txn = TxnId::compose(1, NodeId(0), WorkerId(0));
        let tuple = TupleId::new(TableId(0), 7);

        // An existing row is locked in the row: no map entry.
        let row = storage.admit(txn, tuple, LockMode::Exclusive, CcScheme::NoWait).unwrap();
        assert_eq!(row.row().expect("row exists").read().switch_word(), 70);
        assert!(storage.is_locked(tuple));
        assert!(!storage.locks().is_locked(tuple), "a key with a row got a map entry");
        assert_eq!(storage.locks().locked_count(), 0);

        // Missing row: the key is locked in the map, no handle (the Insert
        // admission shape).
        let missing = TupleId::new(TableId(0), 999);
        let key = storage.admit(txn, missing, LockMode::Exclusive, CcScheme::NoWait).unwrap();
        assert!(key.row().is_none());
        assert!(storage.locks().is_locked(missing));
        assert_eq!(storage.locked_count(), 2);

        // A conflicting admission aborts without resolving, on either path.
        let other = TxnId::compose(2, NodeId(0), WorkerId(1));
        assert!(storage.admit(other, tuple, LockMode::Exclusive, CcScheme::NoWait).is_err());
        assert!(storage.admit(other, missing, LockMode::Shared, CcScheme::NoWait).is_err());
        storage.release(txn, &row);
        storage.release(txn, &key);
        assert_eq!(storage.locked_count(), 0);

        // An undeclared table errors *and* leaves no lock behind.
        let foreign = TupleId::new(TableId(9), 1);
        assert!(storage.admit(txn, foreign, LockMode::Exclusive, CcScheme::NoWait).is_err());
        assert!(!storage.is_locked(foreign), "admit leaked a lock on an undeclared table");
    }

    #[test]
    fn a_row_inserted_between_the_two_probes_is_row_locked_too() {
        use p4db_common::WorkerId;
        let storage = NodeStorage::new(NodeId(0), [TableId(0)]);
        let tuple = TupleId::new(TableId(0), 5);
        // A younger rival holds the key in the map; the older admission
        // finds no row and takes the key, waiting under WAIT_DIE while the
        // rival holds it.
        let older = TxnId::compose(1, NodeId(0), WorkerId(0));
        let rival = TxnId::compose(2, NodeId(0), WorkerId(1));
        storage.locks().acquire(rival, tuple, LockMode::Exclusive, CcScheme::WaitDie).unwrap();
        let grant = std::thread::scope(|scope| {
            let waiter = scope.spawn(|| storage.admit(older, tuple, LockMode::Exclusive, CcScheme::WaitDie));
            // The rival's acquisition, then the waiter's of the key: its
            // first probe of the table found no row.
            while storage.locks().acquisition_count() < 2 {
                std::thread::yield_now();
            }
            // Meanwhile the rival inserts the row and commits.
            let row = storage.table(TableId(0)).unwrap().insert_fresh(5, Value::scalar(1), rival);
            row.lock().release(LockMode::Exclusive);
            storage.locks().release(rival, tuple);
            waiter.join().unwrap().expect("the older admission is granted")
        });
        let row = grant.row().expect("the second probe finds the row");
        assert!(grant.key().is_some(), "the key is locked in the map as well");
        assert!(row.lock().is_locked(), "the row that appeared is row-locked too");
        storage.release(older, &grant);
        assert_eq!(storage.locked_count(), 0);
    }

    #[test]
    fn a_prefetch_takes_no_lock_and_resolves_nothing() {
        let storage = NodeStorage::new(NodeId(0), [TableId(0)]);
        let table = storage.table(TableId(0)).unwrap();
        let row = table.insert(7, Value::scalar(70));
        let acquisitions = storage.locks().acquisition_count();
        let locked = storage.locked_count();
        let handles = Arc::strong_count(&row);
        let slots = table.slot_count();

        for key in [7, 999] {
            storage.prefetch_slot(TupleId::new(TableId(0), key));
            storage.prefetch(TupleId::new(TableId(0), key));
        }
        storage.prefetch_slot(TupleId::new(TableId(9), 1));
        storage.prefetch(TupleId::new(TableId(9), 1));

        assert_eq!(storage.locks().acquisition_count(), acquisitions, "a prefetch acquired a lock");
        assert_eq!(storage.locked_count(), locked, "a prefetch left a lock behind");
        assert!(!row.lock().is_locked(), "the row's lock is still free");
        assert_eq!(Arc::strong_count(&row), handles, "a prefetch kept a handle");
        assert_eq!(storage.total_rows(), 1, "a prefetch inserted a row");
        assert_eq!(table.slot_count(), slots, "a prefetch grew the index");
    }

    #[test]
    fn wal_and_locks_are_per_node() {
        let storage = NodeStorage::new(NodeId(0), [TableId(0)]);
        assert!(storage.wal().is_empty());
        assert_eq!(storage.locked_count(), 0);
    }
}
