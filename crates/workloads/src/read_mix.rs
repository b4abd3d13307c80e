//! The read-mostly variant of any workload.

use crate::spec::{HotTuple, Workload, WorkloadCtx};
use p4db_common::rand_util::FastRng;
use p4db_common::{NodeId, TableId, TupleId};
use p4db_layout::TxnTrace;
use p4db_storage::NodeStorage;
use p4db_txn::{OpKind, TxnOp, TxnRequest};
use std::sync::Arc;

/// Wraps a workload and converts `frac` of its generated transactions into
/// reads of the same tuples at the same homes, dropping inserts (an insert's
/// key has no pre-image to read). With `snapshot` they are also marked
/// read-only, for the lock-free snapshot path. The decision is one rng draw
/// after `generate` whatever `snapshot` is, so both arms of a seed drive the
/// same schedule; `frac == 0.0` skips it. All else is the inner workload's.
pub struct ReadMix {
    inner: Arc<dyn Workload>,
    frac: f64,
    snapshot: bool,
}

impl ReadMix {
    pub fn new(inner: Arc<dyn Workload>, frac: f64, snapshot: bool) -> Self {
        ReadMix { inner, frac, snapshot }
    }
}

impl Workload for ReadMix {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn tables(&self) -> Vec<TableId> {
        self.inner.tables()
    }

    fn load_node(&self, storage: &NodeStorage, num_nodes: u16) {
        self.inner.load_node(storage, num_nodes)
    }

    fn hot_tuples(&self, num_nodes: u16) -> Vec<HotTuple> {
        self.inner.hot_tuples(num_nodes)
    }

    fn layout_traces(&self, num_nodes: u16, rng: &mut FastRng) -> Vec<TxnTrace> {
        self.inner.layout_traces(num_nodes, rng)
    }

    fn generate(&self, ctx: &WorkloadCtx, rng: &mut FastRng) -> TxnRequest {
        let mut req = self.inner.generate(ctx, rng);
        if self.frac > 0.0 && rng.gen_f64() < self.frac {
            let reads: Vec<TxnOp> = req
                .ops
                .iter()
                .filter(|op| !matches!(op.kind, OpKind::Insert(_)))
                .map(|op| TxnOp::new(op.tuple, OpKind::Read, op.home))
                .collect();
            if !reads.is_empty() {
                req.ops = reads;
                if self.snapshot {
                    req = req.into_read_only();
                }
            }
        }
        req
    }

    fn tuple_home(&self, tuple: TupleId, num_nodes: u16) -> Option<NodeId> {
        self.inner.tuple_home(tuple, num_nodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Tpcc, TpccConfig, Ycsb, YcsbConfig, YcsbMix};

    fn streams(inner: Arc<dyn Workload>, frac: f64, snapshot: bool) -> Vec<TxnRequest> {
        let mix = ReadMix::new(inner, frac, snapshot);
        let ctx = WorkloadCtx::new(2, NodeId(0), 0.2);
        let mut rng = FastRng::new(9);
        (0..200).map(|_| mix.generate(&ctx, &mut rng)).collect()
    }

    #[test]
    fn both_arms_draw_the_same_footprints_and_only_the_snapshot_arm_marks_them() {
        let tpcc: Arc<dyn Workload> = Arc::new(Tpcc::new(TpccConfig { items_loaded: 300, ..TpccConfig::new(2) }));
        let locking = streams(Arc::clone(&tpcc), 0.5, false);
        let snapshot = streams(tpcc, 0.5, true);
        let mut converted = 0;
        for (l, s) in locking.iter().zip(&snapshot) {
            let footprint = |r: &TxnRequest| r.ops.iter().map(|op| (op.tuple, op.home, op.kind)).collect::<Vec<_>>();
            assert_eq!(footprint(l), footprint(s));
            assert!(!l.read_only);
            if s.read_only {
                converted += 1;
                assert!(s.ops.iter().all(|op| op.kind == OpKind::Read), "a converted transaction only reads");
            }
        }
        assert!((50..150).contains(&converted), "about half convert, got {converted}");
    }

    #[test]
    fn a_zero_fraction_leaves_the_inner_stream_untouched() {
        let ycsb: Arc<dyn Workload> =
            Arc::new(Ycsb::new(YcsbConfig { keys_per_node: 2_000, ..YcsbConfig::new(YcsbMix::A) }));
        let ctx = WorkloadCtx::new(2, NodeId(0), 0.2);
        let mut rng = FastRng::new(9);
        let plain: Vec<TxnRequest> = (0..200).map(|_| ycsb.generate(&ctx, &mut rng)).collect();
        assert_eq!(streams(ycsb, 0.0, true), plain);
    }
}
