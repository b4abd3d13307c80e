//! YCSB (§7.2): a single table, transactions of 8 read/write operations,
//! workloads A (50/50), B (95/5) and C (read-only), and the paper's explicit
//! hot-set skew model (50 hot keys per node receiving 75% of all accesses).
//!
//! Scale note: the paper populates 1 billion 16-byte rows; this reproduction
//! defaults to a smaller cold key space per node (configurable). The cold key
//! space only has to be large enough that cold-cold conflicts are negligible,
//! which already holds at the default size — the hot set, which drives every
//! result, is identical to the paper's.

use crate::spec::{HotTuple, Workload, WorkloadCtx};
use p4db_common::rand_util::FastRng;
use p4db_common::{NodeId, TableId, TupleId, Value};
use p4db_layout::{TraceAccess, TxnTrace};
use p4db_storage::NodeStorage;
use p4db_txn::{Txn, TxnRequest};

/// The YCSB table.
pub const YCSB_TABLE: TableId = TableId(0);

/// YCSB workload mix (read ratio of the 8 operations).
#[derive(Copy, Clone, PartialEq, Debug)]
pub enum YcsbMix {
    /// Update heavy: 50% reads / 50% writes.
    A,
    /// Read heavy: 95% reads.
    B,
    /// Read only.
    C,
}

impl YcsbMix {
    pub fn read_ratio(self) -> f64 {
        match self {
            YcsbMix::A => 0.5,
            YcsbMix::B => 0.95,
            YcsbMix::C => 1.0,
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            YcsbMix::A => "A",
            YcsbMix::B => "B",
            YcsbMix::C => "C",
        }
    }
}

/// YCSB configuration.
#[derive(Copy, Clone, Debug)]
pub struct YcsbConfig {
    pub mix: YcsbMix,
    /// Cold + hot keys stored per node.
    pub keys_per_node: u64,
    /// Hot keys per node (the paper uses 50).
    pub hot_keys_per_node: u64,
    /// Probability that a transaction operates on the hot set (the paper's
    /// 75% of accesses; Fig 15a/b sweeps this).
    pub hot_txn_prob: f64,
    /// Operations per transaction.
    pub ops_per_txn: usize,
}

impl YcsbConfig {
    pub fn new(mix: YcsbMix) -> Self {
        YcsbConfig { mix, keys_per_node: 100_000, hot_keys_per_node: 50, hot_txn_prob: 0.75, ops_per_txn: 8 }
    }
}

/// The YCSB workload generator.
#[derive(Clone, Debug)]
pub struct Ycsb {
    config: YcsbConfig,
}

impl Ycsb {
    pub fn new(config: YcsbConfig) -> Self {
        assert!(config.hot_keys_per_node <= config.keys_per_node);
        assert!(config.ops_per_txn >= 1);
        Ycsb { config }
    }

    pub fn config(&self) -> &YcsbConfig {
        &self.config
    }

    /// Global key of `local` key on `node`.
    fn key(&self, node: NodeId, local: u64) -> u64 {
        node.0 as u64 * self.config.keys_per_node + local
    }

    /// The node owning a global key.
    pub fn home_of(&self, key: u64) -> NodeId {
        NodeId((key / self.config.keys_per_node) as u16)
    }

    fn tuple(&self, key: u64) -> TupleId {
        TupleId::new(YCSB_TABLE, key)
    }

    /// Picks the node targeted by operation `op_idx`.
    fn pick_node(&self, ctx: &WorkloadCtx, rng: &mut FastRng, distributed: bool, op_idx: usize) -> NodeId {
        if distributed && ctx.num_nodes > 1 {
            // Spread the 8 operations over the cluster: operation i leans on
            // node (coordinator + i); this mirrors the round-robin partitioned
            // table of the paper and keeps hot transactions single-pass under
            // the declustered layout.
            NodeId((ctx.coordinator.0 as usize + op_idx + 1) as u16 % ctx.num_nodes)
        } else {
            let _ = rng;
            ctx.coordinator
        }
    }

    /// Picks a hot local key for operation `op_idx`: one key out of the key
    /// group `op_idx % groups`, so that the operations of one transaction
    /// always touch distinct groups (and therefore distinct register arrays
    /// under the declustered layout).
    fn pick_hot_local(&self, rng: &mut FastRng, op_idx: usize) -> u64 {
        let groups = self.config.ops_per_txn as u64;
        let group = op_idx as u64 % groups;
        let per_group = (self.config.hot_keys_per_node / groups).max(1);
        let offset = rng.gen_range(per_group);
        (group * per_group + offset).min(self.config.hot_keys_per_node - 1)
    }

    fn pick_cold_local(&self, rng: &mut FastRng) -> u64 {
        let cold_range = self.config.keys_per_node - self.config.hot_keys_per_node;
        self.config.hot_keys_per_node + rng.gen_range(cold_range.max(1))
    }
}

impl Workload for Ycsb {
    fn name(&self) -> String {
        format!("YCSB-{}", self.config.mix.label())
    }

    fn tables(&self) -> Vec<TableId> {
        vec![YCSB_TABLE]
    }

    fn load_node(&self, storage: &NodeStorage, _num_nodes: u16) {
        let table = storage.table(YCSB_TABLE).expect("YCSB table declared");
        let node = storage.node();
        table.bulk_load((0..self.config.keys_per_node).map(|local| (self.key(node, local), Value::scalar(0))));
    }

    fn hot_tuples(&self, num_nodes: u16) -> Vec<HotTuple> {
        let mut hot = Vec::new();
        for node in 0..num_nodes {
            for local in 0..self.config.hot_keys_per_node {
                hot.push(HotTuple { tuple: self.tuple(self.key(NodeId(node), local)), initial: 0 });
            }
        }
        hot
    }

    fn layout_traces(&self, num_nodes: u16, rng: &mut FastRng) -> Vec<TxnTrace> {
        // Representative hot transactions (the only ones the layout matters
        // for), both local and distributed.
        let mut traces = Vec::new();
        for sample in 0..512 {
            let coordinator = NodeId((sample % num_nodes as usize) as u16);
            let ctx = WorkloadCtx::new(num_nodes, coordinator, if sample % 2 == 0 { 1.0 } else { 0.0 });
            let distributed = sample % 2 == 0;
            let mut accesses = Vec::with_capacity(self.config.ops_per_txn);
            for op_idx in 0..self.config.ops_per_txn {
                let node = self.pick_node(&ctx, rng, distributed, op_idx);
                let local = self.pick_hot_local(rng, op_idx);
                let tuple = self.tuple(self.key(node, local));
                rng.gen_f64(); // the former read/write coin, kept so the seeded trace stream does not move
                accesses.push(TraceAccess::new(tuple));
            }
            traces.push(TxnTrace::new(accesses));
        }
        traces
    }

    fn generate(&self, ctx: &WorkloadCtx, rng: &mut FastRng) -> TxnRequest {
        let hot = rng.gen_bool(self.config.hot_txn_prob);
        let distributed = rng.gen_bool(ctx.distributed_prob);
        let mut txn = Txn::new();
        for op_idx in 0..self.config.ops_per_txn {
            let node = self.pick_node(ctx, rng, distributed, op_idx);
            let local = if hot { self.pick_hot_local(rng, op_idx) } else { self.pick_cold_local(rng) };
            let tuple = self.tuple(self.key(node, local));
            txn = if rng.gen_f64() < self.config.mix.read_ratio() {
                txn.read(tuple)
            } else {
                txn.write(tuple, rng.next_u64())
            };
        }
        txn.resolve(&|t: TupleId| self.tuple_home(t, ctx.num_nodes), ctx.coordinator)
            .expect("generated YCSB transactions are well-formed")
    }

    fn tuple_home(&self, tuple: TupleId, num_nodes: u16) -> Option<NodeId> {
        if tuple.table != YCSB_TABLE {
            return None;
        }
        let home = self.home_of(tuple.key);
        (home.0 < num_nodes).then_some(home)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4db_layout::{single_pass_fraction, LayoutPlanner, LayoutStrategy};
    use p4db_txn::OpKind;

    fn ycsb() -> Ycsb {
        let mut config = YcsbConfig::new(YcsbMix::A);
        config.keys_per_node = 1_000;
        Ycsb::new(config)
    }

    #[test]
    fn loader_populates_each_node_partition() {
        let w = ycsb();
        let storage = NodeStorage::new(NodeId(1), w.tables());
        w.load_node(&storage, 2);
        assert_eq!(storage.total_rows(), 1_000);
        // Keys of node 1 start at keys_per_node.
        assert!(storage.table(YCSB_TABLE).unwrap().get(1_000).is_some());
        assert!(storage.table(YCSB_TABLE).unwrap().get(0).is_none());
    }

    #[test]
    fn hot_set_size_matches_paper_config() {
        let w = ycsb();
        let hot = w.hot_tuples(8);
        assert_eq!(hot.len(), 8 * 50);
    }

    #[test]
    fn hot_txns_touch_only_hot_keys_and_respect_distribution_flag() {
        let w = Ycsb::new(YcsbConfig { hot_txn_prob: 1.0, ..YcsbConfig::new(YcsbMix::A) });
        let mut rng = FastRng::new(3);
        let ctx = WorkloadCtx::new(4, NodeId(0), 0.0);
        for _ in 0..100 {
            let req = w.generate(&ctx, &mut rng);
            assert_eq!(req.ops.len(), 8);
            assert!(!req.is_distributed(NodeId(0)));
            for op in &req.ops {
                let local = op.tuple.key % w.config().keys_per_node;
                assert!(local < w.config().hot_keys_per_node);
                assert_eq!(op.home, w.home_of(op.tuple.key));
            }
        }
    }

    #[test]
    fn distributed_fraction_tracks_probability() {
        let w = ycsb();
        let mut rng = FastRng::new(9);
        let ctx = WorkloadCtx::new(4, NodeId(1), 0.5);
        let distributed = (0..2_000).filter(|_| w.generate(&ctx, &mut rng).is_distributed(NodeId(1))).count();
        let frac = distributed as f64 / 2_000.0;
        assert!((frac - 0.5).abs() < 0.05, "distributed fraction {frac}");
    }

    #[test]
    fn mix_c_is_read_only() {
        let w = Ycsb::new(YcsbConfig::new(YcsbMix::C));
        let mut rng = FastRng::new(5);
        let ctx = WorkloadCtx::new(2, NodeId(0), 0.2);
        for _ in 0..50 {
            let req = w.generate(&ctx, &mut rng);
            assert!(req.ops.iter().all(|op| op.kind == OpKind::Read));
        }
    }

    #[test]
    fn tuple_home_matches_the_key_partitioning() {
        let w = ycsb();
        assert_eq!(w.tuple_home(TupleId::new(YCSB_TABLE, 0), 4), Some(NodeId(0)));
        assert_eq!(w.tuple_home(TupleId::new(YCSB_TABLE, 2_500), 4), Some(NodeId(2)));
        // Keys beyond the cluster's partitions and foreign tables have no home.
        assert_eq!(w.tuple_home(TupleId::new(YCSB_TABLE, 999_999), 4), None);
        assert_eq!(w.tuple_home(TupleId::new(TableId(9), 0), 4), None);
    }

    #[test]
    fn declustered_layout_makes_hot_ycsb_txns_single_pass() {
        let w = ycsb();
        let mut rng = FastRng::new(7);
        let traces = w.layout_traces(4, &mut rng);
        let hot: Vec<_> = w.hot_tuples(4).iter().map(|h| h.tuple).collect();
        let planner = LayoutPlanner::new(10, 4, 2048);
        let layout = planner.plan(&hot, &traces, LayoutStrategy::Declustered);
        let frac = single_pass_fraction(&layout, &traces);
        assert!(frac > 0.9, "single-pass fraction {frac}");
    }
}
