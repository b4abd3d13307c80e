//! Strongly-typed identifiers used across the system.
//!
//! All identifiers are small `Copy` newtypes over integers so that they can be
//! embedded in switch packets, lock-table entries and log records without
//! allocation, while still preventing accidental mixups (e.g. passing a
//! [`NodeId`] where a [`TableId`] is expected).

use std::fmt;

/// Identifier of a database node (server) in the cluster.
///
/// Node ids are dense: a cluster of `n` nodes uses ids `0..n`.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u16);

impl NodeId {
    /// Returns the raw index, convenient for indexing per-node vectors.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// Identifier of a programmable switch in the topology.
///
/// Switch ids are dense: a topology of `n` switches uses ids `0..n`. The
/// single-switch configuration is `SwitchId(0)` everywhere.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SwitchId(pub u16);

impl SwitchId {
    /// Returns the raw index, convenient for indexing per-switch vectors.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SwitchId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "switch{}", self.0)
    }
}

/// Identifier of a worker thread within a node.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct WorkerId(pub u16);

impl WorkerId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for WorkerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "worker{}", self.0)
    }
}

/// Identifier of a table in the schema.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TableId(pub u16);

impl TableId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Globally unique identifier of a tuple: `(table, primary key)`.
///
/// TPC-C style composite keys are encoded into the 64-bit `key` field by the
/// workload crates (see `p4db-workloads::tpcc::keys`); the encoding is
/// workload-local, the rest of the system treats the key as opaque.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TupleId {
    pub table: TableId,
    pub key: u64,
}

impl TupleId {
    #[inline]
    pub const fn new(table: TableId, key: u64) -> Self {
        Self { table, key }
    }

    /// One full-avalanche hash of the tuple id. The lock table and the row
    /// store both derive their shard from this value, so admission-time
    /// footprint resolution computes it once per tuple per transaction and
    /// reuses it for every sharded structure the tuple touches.
    #[inline]
    pub fn mix(self) -> u64 {
        crate::hash::mix64(self.key ^ ((self.table.0 as u64) << 48))
    }
}

impl fmt::Display for TupleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}:{}", self.table.0, self.key)
    }
}

/// Identifier of a transaction issued by a host node, unique within the
/// cluster run. Encodes the issuing node and worker so that WAIT_DIE
/// timestamps are totally ordered and ties are broken deterministically.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TxnId(pub u64);

impl TxnId {
    /// Builds a transaction id from a monotonically increasing per-worker
    /// sequence number plus the worker's coordinates.
    ///
    /// Layout (high to low): 32-bit sequence, 16-bit node, 16-bit worker.
    /// The sequence occupies the high bits so that *older* transactions
    /// (smaller sequence numbers) compare as smaller, which is exactly the
    /// priority order WAIT_DIE needs.
    #[inline]
    pub fn compose(seq: u32, node: NodeId, worker: WorkerId) -> Self {
        TxnId(((seq as u64) << 32) | ((node.0 as u64) << 16) | worker.0 as u64)
    }

    #[inline]
    pub fn sequence(self) -> u32 {
        (self.0 >> 32) as u32
    }

    #[inline]
    pub fn node(self) -> NodeId {
        NodeId(((self.0 >> 16) & 0xffff) as u16)
    }

    #[inline]
    pub fn worker(self) -> WorkerId {
        WorkerId((self.0 & 0xffff) as u16)
    }

    /// WAIT_DIE priority: smaller ids are *older* and therefore have higher
    /// priority.
    #[inline]
    pub fn is_older_than(self, other: TxnId) -> bool {
        self.0 < other.0
    }
}

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "txn{}@{}/{}", self.sequence(), self.node(), self.worker())
    }
}

/// Globally-unique, serially-ordered transaction id assigned by the switch to
/// every switch (sub-)transaction it executes (§6.1 of the paper). The switch
/// increments it once per executed packet, so the numeric order *is* the
/// serial execution order and it can be used to replay switch transactions
/// during recovery.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct GlobalTxnId(pub u64);

impl fmt::Display for GlobalTxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "gid{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn txn_id_roundtrips_components() {
        let id = TxnId::compose(42, NodeId(7), WorkerId(19));
        assert_eq!(id.sequence(), 42);
        assert_eq!(id.node(), NodeId(7));
        assert_eq!(id.worker(), WorkerId(19));
    }

    #[test]
    fn txn_id_orders_by_sequence_first() {
        let older = TxnId::compose(1, NodeId(7), WorkerId(3));
        let newer = TxnId::compose(2, NodeId(0), WorkerId(0));
        assert!(older.is_older_than(newer));
        assert!(!newer.is_older_than(older));
    }

    #[test]
    fn txn_id_breaks_ties_by_node_then_worker() {
        let a = TxnId::compose(5, NodeId(1), WorkerId(0));
        let b = TxnId::compose(5, NodeId(2), WorkerId(0));
        let c = TxnId::compose(5, NodeId(2), WorkerId(1));
        assert!(a.is_older_than(b));
        assert!(b.is_older_than(c));
    }

    #[test]
    fn tuple_id_equality_and_display() {
        let a = TupleId::new(TableId(3), 99);
        let b = TupleId::new(TableId(3), 99);
        let c = TupleId::new(TableId(4), 99);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.to_string(), "t3:99");
    }
}
