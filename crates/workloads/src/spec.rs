//! The workload abstraction shared by YCSB, SmallBank and TPC-C.
//!
//! A workload knows how to (1) populate every node's partition, (2) name the
//! hot tuples that should be offloaded to the switch together with their
//! initial switch-column values, (3) provide representative transaction
//! traces for the declustered layout planner (§3.1's offline replay),
//! (4) generate transaction requests for the worker threads at runtime, and
//! (5) resolve any tuple's home node ([`Workload::tuple_home`]), which the
//! [`PartitionMap`] exposes to ad-hoc clients so they never hand-place
//! operations.

use p4db_common::rand_util::FastRng;
use p4db_common::{NodeId, TableId, TupleId};
use p4db_layout::TxnTrace;
use p4db_storage::NodeStorage;
use p4db_txn::{Placement, TxnRequest};
use std::sync::Arc;

/// A tuple to offload to the switch.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct HotTuple {
    pub tuple: TupleId,
    /// Initial value of the switch column at offload time.
    pub initial: u64,
}

/// Per-worker generation context.
#[derive(Copy, Clone, Debug)]
pub struct WorkloadCtx {
    /// Number of database nodes in the cluster.
    pub num_nodes: u16,
    /// The node the generating worker runs on (the transaction coordinator).
    pub coordinator: NodeId,
    /// Probability that a generated transaction is distributed (accesses at
    /// least one remote partition).
    pub distributed_prob: f64,
}

impl WorkloadCtx {
    pub fn new(num_nodes: u16, coordinator: NodeId, distributed_prob: f64) -> Self {
        assert!(num_nodes > 0 && coordinator.0 < num_nodes, "coordinator must be a cluster node");
        assert!((0.0..=1.0).contains(&distributed_prob));
        WorkloadCtx { num_nodes, coordinator, distributed_prob }
    }

    /// A uniformly random node other than the coordinator (or the coordinator
    /// itself in a single-node cluster).
    pub fn remote_node(&self, rng: &mut FastRng) -> NodeId {
        if self.num_nodes == 1 {
            return self.coordinator;
        }
        loop {
            let n = NodeId(rng.gen_range(self.num_nodes as u64) as u16);
            if n != self.coordinator {
                return n;
            }
        }
    }
}

/// A benchmark workload.
pub trait Workload: Send + Sync {
    /// Human-readable name ("YCSB-A", "SmallBank 8x5", ...).
    fn name(&self) -> String;

    /// The table ids every node must declare.
    fn tables(&self) -> Vec<TableId>;

    /// Populates one node's partition.
    fn load_node(&self, storage: &NodeStorage, num_nodes: u16);

    /// The hot set to offload, in descending access-frequency order.
    fn hot_tuples(&self, num_nodes: u16) -> Vec<HotTuple>;

    /// Representative hot-transaction traces for the layout planner.
    fn layout_traces(&self, num_nodes: u16, rng: &mut FastRng) -> Vec<TxnTrace>;

    /// Generates the next transaction request for a worker.
    fn generate(&self, ctx: &WorkloadCtx, rng: &mut FastRng) -> TxnRequest;

    /// The node owning `tuple` under this workload's static partitioning
    /// scheme, or `None` when the tuple has no fixed owner (replicated
    /// read-only data, rows created at runtime): such operations execute on
    /// whichever node coordinates the transaction.
    fn tuple_home(&self, tuple: TupleId, num_nodes: u16) -> Option<NodeId>;
}

/// The workload's partitioning scheme, bound to a concrete cluster size — the
/// [`Placement`] that ad-hoc clients resolve [`p4db_txn::Txn`] builders
/// against instead of hand-constructing `TxnOp`s with explicit homes.
#[derive(Clone)]
pub struct PartitionMap {
    workload: Arc<dyn Workload>,
    num_nodes: u16,
}

impl PartitionMap {
    pub fn new(workload: Arc<dyn Workload>, num_nodes: u16) -> Self {
        assert!(num_nodes > 0, "a partition map needs at least one node");
        PartitionMap { workload, num_nodes }
    }

    /// Number of nodes the map resolves against.
    pub fn num_nodes(&self) -> u16 {
        self.num_nodes
    }

    /// The node owning `tuple`, or `None` for coordinator-local data.
    pub fn home(&self, tuple: TupleId) -> Option<NodeId> {
        self.workload.tuple_home(tuple, self.num_nodes)
    }
}

impl Placement for PartitionMap {
    fn home_of(&self, tuple: TupleId) -> Option<NodeId> {
        self.home(tuple)
    }
}

impl std::fmt::Debug for PartitionMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PartitionMap")
            .field("workload", &self.workload.name())
            .field("num_nodes", &self.num_nodes)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remote_node_never_returns_coordinator_in_multi_node_clusters() {
        let ctx = WorkloadCtx::new(4, NodeId(2), 0.5);
        let mut rng = FastRng::new(1);
        for _ in 0..200 {
            assert_ne!(ctx.remote_node(&mut rng), NodeId(2));
        }
    }

    #[test]
    fn remote_node_degenerates_gracefully_for_single_node() {
        let ctx = WorkloadCtx::new(1, NodeId(0), 1.0);
        let mut rng = FastRng::new(1);
        assert_eq!(ctx.remote_node(&mut rng), NodeId(0));
    }

    #[test]
    #[should_panic(expected = "coordinator must be a cluster node")]
    fn invalid_coordinator_is_rejected() {
        let _ = WorkloadCtx::new(2, NodeId(2), 0.0);
    }
}
