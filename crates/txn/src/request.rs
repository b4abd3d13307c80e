//! The logical transaction representation handed from the workload generators
//! to the transaction engine.
//!
//! A transaction is an ordered list of operations over tuples; every
//! operation knows the node that owns its tuple in the shared-nothing
//! partitioning. The engine classifies the operations into hot (switch) and
//! cold (host) sets, which yields the paper's hot / cold / warm transaction
//! classes.

use p4db_common::stats::TxnClass;
use p4db_common::{NodeId, TupleId};

/// What an operation does to its tuple. All operations work on the tuple's
/// 64-bit switch column, the row's one value word.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum OpKind {
    /// Read the value.
    Read,
    /// Overwrite the value.
    Write(u64),
    /// Add a (signed) delta.
    Add(i64),
    /// Add a delta but return the previous value (TPC-C `d_next_o_id`).
    FetchAdd(i64),
    /// Subtract `amount` only if the result stays non-negative; otherwise the
    /// operation reports failure (SmallBank overdraft checks). On the host
    /// path a failed check aborts the transaction; on the switch it becomes a
    /// constrained write that simply does not apply.
    CondSub(u64),
    /// Insert a new row with the given initial value (always executed on the
    /// host — the switch does not allocate rows at runtime).
    Insert(u64),
}

impl OpKind {
    /// Whether this operation may modify data (and therefore needs an
    /// exclusive lock on the host path).
    pub fn is_write(self) -> bool {
        !matches!(self, OpKind::Read)
    }

    /// Whether the switch can execute this operation on an offloaded tuple.
    pub fn switch_executable(self) -> bool {
        !matches!(self, OpKind::Insert(_))
    }
}

/// One operation of a transaction.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct TxnOp {
    pub tuple: TupleId,
    pub kind: OpKind,
    /// Node owning the tuple's partition.
    pub home: NodeId,
    /// Read-dependent operand: index of an earlier operation whose result
    /// value replaces this operation's immediate operand (e.g. SmallBank
    /// `Amalgamate` credits the amount read from the other account).
    pub operand_from: Option<u8>,
}

impl TxnOp {
    pub fn new(tuple: TupleId, kind: OpKind, home: NodeId) -> Self {
        TxnOp { tuple, kind, home, operand_from: None }
    }

    pub fn with_operand_from(mut self, src: u8) -> Self {
        self.operand_from = Some(src);
        self
    }
}

/// A logical transaction request.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TxnRequest {
    pub ops: Vec<TxnOp>,
    /// Declared read-only (every operation is a `Read`): the engine may
    /// execute it on the lock-free snapshot path — a consistent snapshot
    /// timestamp instead of 2PL locks, zero lock-table interaction, zero
    /// 2PC. Set via [`crate::Txn::read_only`] or
    /// [`TxnRequest::into_read_only`].
    pub read_only: bool,
}

impl TxnRequest {
    pub fn new(ops: Vec<TxnOp>) -> Self {
        TxnRequest { ops, read_only: false }
    }

    /// Marks the request read-only. Callers must only set this on requests
    /// whose every operation is a `Read`; the engine falls back to the
    /// locking path (and `Session::read_only` rejects outright) otherwise.
    pub fn into_read_only(mut self) -> Self {
        self.read_only = true;
        self
    }

    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Whether the transaction touches partitions of more than one node or a
    /// partition that is not the coordinator's — the paper's definition of a
    /// distributed transaction.
    pub fn is_distributed(&self, coordinator: NodeId) -> bool {
        self.ops.iter().any(|op| op.home != coordinator)
    }

    /// The distinct home nodes of this transaction's operations.
    pub fn participant_nodes(&self) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = self.ops.iter().map(|op| op.home).collect();
        nodes.sort();
        nodes.dedup();
        nodes
    }
}

/// The result of executing a transaction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TxnOutcome {
    /// Hot / cold / warm classification it executed as.
    pub class: TxnClass,
    /// One result value per operation, in operation order (reads return the
    /// value read, writes/adds the new value, fetch-adds the old value).
    pub results: Vec<u64>,
    /// The switch-assigned GID if a switch sub-transaction was involved.
    pub gid: Option<p4db_common::GlobalTxnId>,
    /// `true` when the switch sub-transaction's reply never arrived (the
    /// request or the reply was lost, e.g. under fault injection). The
    /// transaction still *counts as committed* — its intent was logged
    /// before the packet left the node (§6.1) and switch transactions never
    /// abort — but the result values of its hot operations are unknown
    /// (reported as 0) and `gid` is `None`; recovery resolves its position
    /// from the logs (§A.3, Fig 9).
    pub in_doubt: bool,
    /// The snapshot timestamp this transaction read at, when it executed on
    /// the lock-free snapshot path (`None` for every locking execution).
    pub snapshot: Option<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4db_common::TableId;

    fn t(key: u64) -> TupleId {
        TupleId::new(TableId(0), key)
    }

    #[test]
    fn op_kind_classification() {
        assert!(!OpKind::Read.is_write());
        assert!(OpKind::Write(1).is_write());
        assert!(OpKind::CondSub(5).is_write());
        assert!(OpKind::Insert(0).is_write());
        assert!(OpKind::Add(1).switch_executable());
        assert!(!OpKind::Insert(0).switch_executable());
    }

    #[test]
    fn distributed_detection() {
        let req =
            TxnRequest::new(vec![TxnOp::new(t(1), OpKind::Read, NodeId(0)), TxnOp::new(t(2), OpKind::Read, NodeId(1))]);
        assert!(req.is_distributed(NodeId(0)));
        assert!(req.is_distributed(NodeId(2)));
        assert_eq!(req.participant_nodes(), vec![NodeId(0), NodeId(1)]);

        let local = TxnRequest::new(vec![TxnOp::new(t(1), OpKind::Read, NodeId(0))]);
        assert!(!local.is_distributed(NodeId(0)));
    }

    #[test]
    fn operand_forwarding_builder() {
        let op = TxnOp::new(t(1), OpKind::Add(0), NodeId(0)).with_operand_from(2);
        assert_eq!(op.operand_from, Some(2));
    }
}
