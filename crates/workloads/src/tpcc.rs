//! TPC-C (§7.2, §7.5): the NewOrder + Payment mix used by the paper.
//!
//! TPC-C transactions mix contended tuples (the district's `next_o_id`, the
//! warehouse / district year-to-date totals, the stock rows of the most
//! ordered items) with per-transaction cold work (customer rows, order /
//! order-line / history inserts), so in P4DB they execute as *warm*
//! transactions: the cold part under 2PL on the nodes, the hot part on the
//! switch.
//!
//! Simplifications vs. the full specification (documented in DESIGN.md):
//! only the two transaction types the paper evaluates are generated, rows
//! carry a single 64-bit payload column (the offloaded column), order ids for
//! inserts are drawn from a random key space instead of `d_next_o_id` (the
//! insert key value does not affect contention), and the item table is
//! treated as replicated read-only data.

use crate::spec::{HotTuple, Workload, WorkloadCtx};
use p4db_common::rand_util::FastRng;
use p4db_common::{NodeId, TableId, TupleId, Value};
use p4db_layout::{TraceAccess, TxnTrace};
use p4db_storage::NodeStorage;
use p4db_txn::{Txn, TxnRequest};

pub const WAREHOUSE: TableId = TableId(10); // switch column: w_ytd
pub const DISTRICT: TableId = TableId(11); // switch column: d_next_o_id
pub const DISTRICT_YTD: TableId = TableId(12); // switch column: d_ytd
pub const CUSTOMER: TableId = TableId(13);
pub const HISTORY: TableId = TableId(14);
pub const NEW_ORDER: TableId = TableId(15);
pub const ORDER: TableId = TableId(16);
pub const ORDER_LINE: TableId = TableId(17);
pub const ITEM: TableId = TableId(18);
pub const STOCK: TableId = TableId(19);

pub const DISTRICTS_PER_WAREHOUSE: u64 = 10;
pub const CUSTOMERS_PER_DISTRICT: u64 = 3_000;
pub const ITEMS: u64 = 100_000;
pub const INITIAL_NEXT_O_ID: u64 = 3_001;
pub const INITIAL_STOCK: u64 = 10_000;

/// TPC-C configuration.
#[derive(Copy, Clone, Debug)]
pub struct TpccConfig {
    /// Total number of warehouses in the cluster (the paper uses 8/16/32).
    pub warehouses: u64,
    /// Number of items whose stock is offloaded to the switch ("most ordered
    /// items").
    pub hot_items: u64,
    /// Probability that an ordered item is one of the hot items.
    pub hot_item_prob: f64,
    /// Order lines per NewOrder transaction.
    pub order_lines: usize,
    /// Items loaded per node (scaled-down item catalogue; item reads are
    /// local and read-only so the size only affects load time).
    pub items_loaded: u64,
}

impl TpccConfig {
    pub fn new(warehouses: u64) -> Self {
        TpccConfig { warehouses, hot_items: 100, hot_item_prob: 0.5, order_lines: 8, items_loaded: 10_000 }
    }
}

/// Key encoding helpers (composite TPC-C keys packed into 64 bits).
pub mod keys {
    use super::*;

    pub fn warehouse(w: u64) -> u64 {
        w
    }

    pub fn district(w: u64, d: u64) -> u64 {
        w * DISTRICTS_PER_WAREHOUSE + d
    }

    pub fn customer(w: u64, d: u64, c: u64) -> u64 {
        (district(w, d)) * CUSTOMERS_PER_DISTRICT + c
    }

    pub fn stock(w: u64, i: u64) -> u64 {
        w * ITEMS + i
    }
}

/// The TPC-C workload generator (NewOrder + Payment mix).
#[derive(Clone, Debug)]
pub struct Tpcc {
    config: TpccConfig,
}

impl Tpcc {
    pub fn new(config: TpccConfig) -> Self {
        assert!(config.warehouses >= 1);
        Tpcc { config }
    }

    pub fn config(&self) -> &TpccConfig {
        &self.config
    }

    /// Warehouses are range-partitioned over the nodes.
    pub fn warehouses_per_node(&self, num_nodes: u16) -> u64 {
        self.config.warehouses.div_ceil(num_nodes as u64)
    }

    pub fn home_of_warehouse(&self, w: u64, num_nodes: u16) -> NodeId {
        NodeId((w / self.warehouses_per_node(num_nodes)).min(num_nodes as u64 - 1) as u16)
    }

    fn local_warehouse(&self, node: NodeId, num_nodes: u16, rng: &mut FastRng) -> u64 {
        let per_node = self.warehouses_per_node(num_nodes);
        let first = node.0 as u64 * per_node;
        let count = per_node.min(self.config.warehouses.saturating_sub(first)).max(1);
        first + rng.gen_range(count)
    }

    fn pick_item(&self, rng: &mut FastRng) -> u64 {
        if rng.gen_bool(self.config.hot_item_prob) {
            rng.gen_range(self.config.hot_items.max(1))
        } else {
            rng.gen_range(ITEMS)
        }
    }

    fn is_hot_item(&self, item: u64) -> bool {
        item < self.config.hot_items
    }

    /// Resolves a built transaction's homes for the generating context.
    /// Replicated item reads and the synthetic-key inserts have no fixed home
    /// ([`Workload::tuple_home`] returns `None`) and land on the coordinator.
    fn place(&self, txn: Txn, ctx: &WorkloadCtx) -> TxnRequest {
        txn.resolve(&|t: TupleId| self.tuple_home(t, ctx.num_nodes), ctx.coordinator)
            .expect("generated TPC-C transactions are well-formed")
    }

    fn new_order(&self, ctx: &WorkloadCtx, rng: &mut FastRng) -> TxnRequest {
        let num_nodes = ctx.num_nodes;
        let w = self.local_warehouse(ctx.coordinator, num_nodes, rng);
        let d = rng.gen_range(DISTRICTS_PER_WAREHOUSE);
        let c = rng.gen_range(CUSTOMERS_PER_DISTRICT);

        let mut txn = Txn::new()
            // d_next_o_id++ on the home district (contended → offloaded).
            .fetch_add(TupleId::new(DISTRICT, keys::district(w, d)), 1)
            // Customer read (cold, local).
            .read(TupleId::new(CUSTOMER, keys::customer(w, d, c)))
            // Order + NewOrder inserts (cold, local; synthetic unique keys).
            .insert(TupleId::new(ORDER, rng.next_u64()), c)
            .insert(TupleId::new(NEW_ORDER, rng.next_u64()), 0);
        for _ in 0..self.config.order_lines {
            let item = self.pick_item(rng);
            // "Varying distributed transactions": the probability that an
            // ordered item comes from a remote warehouse (§7.5).
            let supply_w = if rng.gen_bool(ctx.distributed_prob) && num_nodes > 1 {
                self.local_warehouse(ctx.remote_node(rng), num_nodes, rng)
            } else {
                w
            };
            let qty = 1 + rng.gen_range(10) as i64;
            txn = txn
                // Item lookup: replicated read-only catalogue, read locally.
                .read(TupleId::new(ITEM, item % self.config.items_loaded))
                // Stock decrement at the supplying warehouse (hot items are
                // offloaded, the rest is a cold — possibly remote — update).
                .add(TupleId::new(STOCK, keys::stock(supply_w, item)), -qty)
                // Order line insert (cold, local).
                .insert(TupleId::new(ORDER_LINE, rng.next_u64()), item);
        }
        self.place(txn, ctx)
    }

    fn payment(&self, ctx: &WorkloadCtx, rng: &mut FastRng) -> TxnRequest {
        let num_nodes = ctx.num_nodes;
        let w = self.local_warehouse(ctx.coordinator, num_nodes, rng);
        let d = rng.gen_range(DISTRICTS_PER_WAREHOUSE);
        let amount = 1 + rng.gen_range(5_000) as i64;

        // The paying customer may belong to a remote warehouse (§7.5).
        let (cw, cd, cc) = if rng.gen_bool(ctx.distributed_prob) && num_nodes > 1 {
            let remote_w = self.local_warehouse(ctx.remote_node(rng), num_nodes, rng);
            (remote_w, rng.gen_range(DISTRICTS_PER_WAREHOUSE), rng.gen_range(CUSTOMERS_PER_DISTRICT))
        } else {
            (w, d, rng.gen_range(CUSTOMERS_PER_DISTRICT))
        };

        let txn = Txn::new()
            // Contended year-to-date counters (offloaded).
            .add(TupleId::new(WAREHOUSE, keys::warehouse(w)), amount)
            .add(TupleId::new(DISTRICT_YTD, keys::district(w, d)), amount)
            // Customer balance update (cold, possibly remote).
            .add(TupleId::new(CUSTOMER, keys::customer(cw, cd, cc)), -amount)
            // History insert (cold, local).
            .insert(TupleId::new(HISTORY, rng.next_u64()), amount as u64);
        self.place(txn, ctx)
    }
}

impl Workload for Tpcc {
    fn name(&self) -> String {
        format!("TPC-C {}WH", self.config.warehouses)
    }

    fn tables(&self) -> Vec<TableId> {
        vec![WAREHOUSE, DISTRICT, DISTRICT_YTD, CUSTOMER, HISTORY, NEW_ORDER, ORDER, ORDER_LINE, ITEM, STOCK]
    }

    fn load_node(&self, storage: &NodeStorage, num_nodes: u16) {
        let node = storage.node();
        let per_node = self.warehouses_per_node(num_nodes);
        let first = node.0 as u64 * per_node;
        let last = (first + per_node).min(self.config.warehouses);

        // Replicated read-only item catalogue.
        storage
            .table(ITEM)
            .expect("item table declared")
            .bulk_load((0..self.config.items_loaded).map(|i| (i, Value::scalar(100 + i))));

        for w in first..last {
            storage.table(WAREHOUSE).expect("warehouse table declared").insert(keys::warehouse(w), Value::scalar(0));
            for d in 0..DISTRICTS_PER_WAREHOUSE {
                storage
                    .table(DISTRICT)
                    .expect("district table declared")
                    .insert(keys::district(w, d), Value::scalar(INITIAL_NEXT_O_ID));
                storage
                    .table(DISTRICT_YTD)
                    .expect("district-ytd table declared")
                    .insert(keys::district(w, d), Value::scalar(0));
                let customers = (0..CUSTOMERS_PER_DISTRICT).map(|c| (keys::customer(w, d, c), Value::scalar(1_000)));
                storage.table(CUSTOMER).expect("customer table declared").bulk_load(customers);
            }
            storage
                .table(STOCK)
                .expect("stock table declared")
                .bulk_load((0..ITEMS).map(|i| (keys::stock(w, i), Value::scalar(INITIAL_STOCK))));
        }
    }

    fn hot_tuples(&self, _num_nodes: u16) -> Vec<HotTuple> {
        let mut hot = Vec::new();
        for w in 0..self.config.warehouses {
            hot.push(HotTuple { tuple: TupleId::new(WAREHOUSE, keys::warehouse(w)), initial: 0 });
            for d in 0..DISTRICTS_PER_WAREHOUSE {
                hot.push(HotTuple { tuple: TupleId::new(DISTRICT, keys::district(w, d)), initial: INITIAL_NEXT_O_ID });
                hot.push(HotTuple { tuple: TupleId::new(DISTRICT_YTD, keys::district(w, d)), initial: 0 });
            }
            for i in 0..self.config.hot_items {
                hot.push(HotTuple { tuple: TupleId::new(STOCK, keys::stock(w, i)), initial: INITIAL_STOCK });
            }
        }
        hot
    }

    fn layout_traces(&self, num_nodes: u16, rng: &mut FastRng) -> Vec<TxnTrace> {
        let mut traces = Vec::new();
        for sample in 0..512 {
            let coordinator = NodeId((sample % num_nodes as usize) as u16);
            let ctx = WorkloadCtx::new(num_nodes, coordinator, 0.2);
            let req = if sample % 2 == 0 { self.new_order(&ctx, rng) } else { self.payment(&ctx, rng) };
            // Only the hot accesses matter for the switch layout.
            let accesses: Vec<TraceAccess> = req
                .ops
                .iter()
                .filter(|op| {
                    matches!(op.tuple.table, WAREHOUSE | DISTRICT | DISTRICT_YTD)
                        || (op.tuple.table == STOCK && self.is_hot_item(op.tuple.key % ITEMS))
                })
                .map(|op| TraceAccess::new(op.tuple))
                .collect();
            if accesses.len() >= 2 {
                traces.push(TxnTrace::new(accesses));
            }
        }
        traces
    }

    fn generate(&self, ctx: &WorkloadCtx, rng: &mut FastRng) -> TxnRequest {
        // The paper uses the NewOrder + Payment mix (~50/50 of the standard
        // transaction mix once the other types are dropped).
        if rng.gen_bool(0.5) {
            self.new_order(ctx, rng)
        } else {
            self.payment(ctx, rng)
        }
    }

    fn tuple_home(&self, tuple: TupleId, num_nodes: u16) -> Option<NodeId> {
        let warehouse = match tuple.table {
            WAREHOUSE => tuple.key,
            DISTRICT | DISTRICT_YTD => tuple.key / DISTRICTS_PER_WAREHOUSE,
            CUSTOMER => tuple.key / (DISTRICTS_PER_WAREHOUSE * CUSTOMERS_PER_DISTRICT),
            STOCK => tuple.key / ITEMS,
            // The item catalogue is replicated read-only data; order /
            // order-line / new-order / history rows use synthetic keys
            // created by the inserting transaction. Both execute on the
            // coordinator.
            _ => return None,
        };
        (warehouse < self.config.warehouses).then(|| self.home_of_warehouse(warehouse, num_nodes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4db_txn::OpKind;

    fn tpcc() -> Tpcc {
        Tpcc::new(TpccConfig { items_loaded: 1_000, ..TpccConfig::new(8) })
    }

    #[test]
    fn warehouses_are_partitioned_over_nodes() {
        let w = tpcc();
        assert_eq!(w.warehouses_per_node(4), 2);
        assert_eq!(w.home_of_warehouse(0, 4), NodeId(0));
        assert_eq!(w.home_of_warehouse(3, 4), NodeId(1));
        assert_eq!(w.home_of_warehouse(7, 4), NodeId(3));
    }

    #[test]
    fn loader_populates_only_local_warehouses() {
        let w = tpcc();
        let storage = NodeStorage::new(NodeId(0), w.tables());
        w.load_node(&storage, 4);
        // 2 warehouses: rows exist for warehouse 0/1 but not 2.
        assert!(storage.table(WAREHOUSE).unwrap().get(keys::warehouse(0)).is_some());
        assert!(storage.table(WAREHOUSE).unwrap().get(keys::warehouse(1)).is_some());
        assert!(storage.table(WAREHOUSE).unwrap().get(keys::warehouse(2)).is_none());
        assert_eq!(
            storage.table(DISTRICT).unwrap().read(keys::district(0, 3)).unwrap().switch_word(),
            INITIAL_NEXT_O_ID
        );
        assert!(storage.table(STOCK).unwrap().get(keys::stock(1, ITEMS - 1)).is_some());
    }

    #[test]
    fn hot_set_contains_warehouse_district_and_hot_stock() {
        let w = tpcc();
        let hot = w.hot_tuples(4);
        let expected = 8 * (1 + 2 * DISTRICTS_PER_WAREHOUSE + w.config().hot_items);
        assert_eq!(hot.len() as u64, expected);
    }

    #[test]
    fn new_order_touches_district_counter_and_stock() {
        let w = tpcc();
        let ctx = WorkloadCtx::new(4, NodeId(1), 0.0);
        let mut rng = FastRng::new(2);
        let req = w.new_order(&ctx, &mut rng);
        assert!(matches!(req.ops[0].kind, OpKind::FetchAdd(1)));
        assert_eq!(req.ops[0].tuple.table, DISTRICT);
        let stock_updates = req.ops.iter().filter(|op| op.tuple.table == STOCK).count();
        assert_eq!(stock_updates, w.config().order_lines);
        let inserts = req.ops.iter().filter(|op| matches!(op.kind, OpKind::Insert(_))).count();
        assert_eq!(inserts, 2 + w.config().order_lines);
        // A non-distributed NewOrder stays on the coordinator.
        assert!(!req.is_distributed(NodeId(1)));
    }

    #[test]
    fn payment_updates_both_ytd_counters_and_customer() {
        let w = tpcc();
        let ctx = WorkloadCtx::new(4, NodeId(0), 0.0);
        let mut rng = FastRng::new(3);
        let req = w.payment(&ctx, &mut rng);
        assert_eq!(req.ops.len(), 4);
        assert_eq!(req.ops[0].tuple.table, WAREHOUSE);
        assert_eq!(req.ops[1].tuple.table, DISTRICT_YTD);
        assert_eq!(req.ops[2].tuple.table, CUSTOMER);
        assert_eq!(req.ops[3].tuple.table, HISTORY);
    }

    #[test]
    fn tuple_home_follows_the_warehouse_partitioning() {
        let w = tpcc();
        assert_eq!(w.tuple_home(TupleId::new(WAREHOUSE, 3), 4), Some(NodeId(1)));
        assert_eq!(w.tuple_home(TupleId::new(DISTRICT, keys::district(7, 9)), 4), Some(NodeId(3)));
        assert_eq!(w.tuple_home(TupleId::new(DISTRICT_YTD, keys::district(0, 0)), 4), Some(NodeId(0)));
        assert_eq!(w.tuple_home(TupleId::new(CUSTOMER, keys::customer(5, 2, 17)), 4), Some(NodeId(2)));
        assert_eq!(w.tuple_home(TupleId::new(STOCK, keys::stock(6, 42)), 4), Some(NodeId(3)));
        // Replicated / synthetic-key tables are coordinator-local.
        assert_eq!(w.tuple_home(TupleId::new(ITEM, 5), 4), None);
        assert_eq!(w.tuple_home(TupleId::new(ORDER, 12345), 4), None);
        // Warehouses beyond the configured count have no home.
        assert_eq!(w.tuple_home(TupleId::new(WAREHOUSE, 99), 4), None);
    }

    #[test]
    fn distributed_probability_creates_remote_participants() {
        let w = tpcc();
        let ctx = WorkloadCtx::new(4, NodeId(0), 1.0);
        let mut rng = FastRng::new(4);
        let distributed = (0..200).filter(|_| w.generate(&ctx, &mut rng).is_distributed(NodeId(0))).count();
        assert!(distributed > 150, "expected mostly distributed transactions, got {distributed}/200");
    }
}
