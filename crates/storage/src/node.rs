//! Per-node storage assembly: the tables of the node's partition, its lock
//! table, secondary indexes and write-ahead log.
//!
//! Table ids are small and dense in every workload, so the table directory
//! is a plain vector indexed by `TableId` — the admission path resolves a
//! tuple's table with one bounds-checked load instead of a map probe.

use crate::checkpoint::CheckpointStore;
use crate::index::SecondaryIndex;
use crate::locks::LockTable;
use crate::table::{RowHandle, Table};
use crate::wal::Wal;
use p4db_common::{CcScheme, Error, NodeId, Result, TableId, TupleId, TxnId};
use std::collections::HashMap;

use crate::locks::LockMode;

/// All storage owned by one database node.
#[derive(Debug)]
pub struct NodeStorage {
    node: NodeId,
    /// Dense table directory indexed by `TableId`; `None` = undeclared.
    tables: Vec<Option<Table>>,
    secondary: HashMap<TableId, SecondaryIndex>,
    /// Shard count for secondary indexes created on this node (matches the
    /// tables).
    index_shards: usize,
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
            secondary: HashMap::new(),
            index_shards: shards,
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

    /// Registers (or returns) a secondary index for `table`, sharded like
    /// the node's tables.
    pub fn secondary_index_mut(&mut self, table: TableId) -> &mut SecondaryIndex {
        let shards = self.index_shards;
        self.secondary.entry(table).or_insert_with(|| SecondaryIndex::with_shards(shards))
    }

    /// Looks up a secondary index.
    pub fn secondary_index(&self, table: TableId) -> Option<&SecondaryIndex> {
        self.secondary.get(&table)
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

    /// Admission-time footprint resolution: acquires the 2PL lock on `tuple`
    /// and resolves its [`RowHandle`] in one step, hashing the tuple exactly
    /// once — the mix feeds both the lock-table shard and the row-store
    /// shard. Returns `Ok(None)` when the lock was granted but no row exists
    /// under the key (an inserting operation, or a caller-level
    /// tuple-not-found); lock conflicts and WAIT_DIE deaths surface as the
    /// usual abort errors *without* a granted lock.
    #[inline]
    pub fn admit(&self, txn: TxnId, tuple: TupleId, mode: LockMode, scheme: CcScheme) -> Result<Option<RowHandle>> {
        let hash = tuple.mix();
        self.locks.acquire_prehashed(hash, txn, tuple, mode, scheme)?;
        match self.table(tuple.table) {
            Ok(table) => Ok(table.get_prehashed(hash, tuple.key)),
            Err(e) => {
                // An undeclared table must not leak the just-granted lock
                // (the error contract promises no lock on any `Err`).
                self.locks.release(txn, tuple);
                Err(e)
            }
        }
    }

    /// Snapshot-path resolution: resolves a tuple's [`RowHandle`] with the
    /// same single hash the 2PL admission path uses, but with **zero
    /// lock-table interaction** — the read-only fast path. Returns
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
    fn rows_and_secondary_indexes_work_together() {
        let mut storage = NodeStorage::new(NodeId(0), [TableId(0)]);
        storage.table(TableId(0)).unwrap().insert(11, Value::scalar(100));
        storage.secondary_index_mut(TableId(0)).insert(555, 11);
        let primary = storage.secondary_index(TableId(0)).unwrap().lookup_unique(555).unwrap();
        assert_eq!(storage.table(TableId(0)).unwrap().read(primary).unwrap().switch_word(), 100);
        assert_eq!(storage.total_rows(), 1);
    }

    #[test]
    fn admit_locks_and_resolves_in_one_step() {
        use p4db_common::WorkerId;
        let storage = NodeStorage::new(NodeId(0), [TableId(0)]);
        storage.table(TableId(0)).unwrap().insert(7, Value::scalar(70));
        let txn = TxnId::compose(1, NodeId(0), WorkerId(0));
        let tuple = TupleId::new(TableId(0), 7);

        let handle = storage.admit(txn, tuple, LockMode::Exclusive, CcScheme::NoWait).unwrap();
        assert_eq!(handle.expect("row exists").read().switch_word(), 70);
        assert!(storage.locks().is_locked(tuple));

        // Missing row: lock granted, no handle (the Insert admission shape).
        let missing = TupleId::new(TableId(0), 999);
        let none = storage.admit(txn, missing, LockMode::Exclusive, CcScheme::NoWait).unwrap();
        assert!(none.is_none());
        assert!(storage.locks().is_locked(missing));

        // A conflicting admission aborts without resolving.
        let other = TxnId::compose(2, NodeId(0), WorkerId(1));
        assert!(storage.admit(other, tuple, LockMode::Exclusive, CcScheme::NoWait).is_err());
        storage.locks().release_all(txn, &[tuple, missing]);

        // An undeclared table errors *and* leaves no lock behind.
        let foreign = TupleId::new(TableId(9), 1);
        assert!(storage.admit(txn, foreign, LockMode::Exclusive, CcScheme::NoWait).is_err());
        assert!(!storage.locks().is_locked(foreign), "admit leaked a lock on an undeclared table");
    }

    #[test]
    fn secondary_indexes_inherit_the_node_shard_layout() {
        let mut sharded = NodeStorage::with_shards(NodeId(0), [TableId(0)], 16);
        assert_eq!(sharded.secondary_index_mut(TableId(0)).shard_count(), 16);
        let mut single = NodeStorage::with_shards(NodeId(0), [TableId(0)], 1);
        assert_eq!(single.secondary_index_mut(TableId(0)).shard_count(), 1);
    }

    #[test]
    fn wal_and_locks_are_per_node() {
        let storage = NodeStorage::new(NodeId(0), [TableId(0)]);
        assert!(storage.wal().is_empty());
        assert_eq!(storage.locks().locked_count(), 0);
    }
}
