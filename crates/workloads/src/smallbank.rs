//! SmallBank (§7.2): a banking workload over savings and checking accounts
//! with a fixed 15% read ratio, simple integrity constraints (no overdrafts)
//! and read-dependent writes — the workload that motivates the declustered
//! data layout.
//!
//! Six transaction types are generated (the five original ones plus the
//! `SendPayment` transfer added by the paper). Skew follows the paper's
//! model: a small per-node hot set of customers (5 / 10 / 15) receives 90% of
//! all transactions.

use crate::spec::{HotTuple, Workload, WorkloadCtx};
use p4db_common::rand_util::FastRng;
use p4db_common::{NodeId, TableId, TupleId, Value};
use p4db_layout::{TraceAccess, TxnTrace};
use p4db_storage::NodeStorage;
use p4db_txn::{Txn, TxnRequest};

/// Savings balances, keyed by customer id.
pub const SAVINGS: TableId = TableId(1);
/// Checking balances, keyed by customer id.
pub const CHECKING: TableId = TableId(2);

/// Initial balance of every account.
pub const INITIAL_BALANCE: u64 = 10_000;

/// SmallBank configuration.
#[derive(Copy, Clone, Debug)]
pub struct SmallBankConfig {
    /// Customers stored per node (the paper uses 1M total over 8 nodes).
    pub customers_per_node: u64,
    /// Hot customers per node (the paper sweeps 5 / 10 / 15).
    pub hot_customers_per_node: u64,
    /// Probability that a transaction targets hot customers (90% in the
    /// paper).
    pub hot_txn_prob: f64,
    /// Maximum amount moved by a single operation. Small relative to the
    /// initial balance so overdraft aborts stay rare, as in the original
    /// benchmark.
    pub max_amount: u64,
}

impl Default for SmallBankConfig {
    fn default() -> Self {
        SmallBankConfig { customers_per_node: 125_000, hot_customers_per_node: 5, hot_txn_prob: 0.9, max_amount: 50 }
    }
}

/// The six transaction types.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum SmallBankTxn {
    Balance,
    DepositChecking,
    TransactSavings,
    WriteCheck,
    Amalgamate,
    SendPayment,
}

const TXN_TYPES: [SmallBankTxn; 6] = [
    SmallBankTxn::Balance,
    SmallBankTxn::DepositChecking,
    SmallBankTxn::TransactSavings,
    SmallBankTxn::WriteCheck,
    SmallBankTxn::Amalgamate,
    SmallBankTxn::SendPayment,
];

/// The SmallBank workload generator.
#[derive(Clone, Debug)]
pub struct SmallBank {
    config: SmallBankConfig,
}

impl SmallBank {
    pub fn new(config: SmallBankConfig) -> Self {
        assert!(config.hot_customers_per_node <= config.customers_per_node);
        SmallBank { config }
    }

    pub fn config(&self) -> &SmallBankConfig {
        &self.config
    }

    /// Global customer id of `local` customer on `node`.
    fn customer(&self, node: NodeId, local: u64) -> u64 {
        node.0 as u64 * self.config.customers_per_node + local
    }

    pub fn home_of(&self, customer: u64) -> NodeId {
        NodeId((customer / self.config.customers_per_node) as u16)
    }

    fn savings(&self, customer: u64) -> TupleId {
        TupleId::new(SAVINGS, customer)
    }

    fn checking(&self, customer: u64) -> TupleId {
        TupleId::new(CHECKING, customer)
    }

    /// Picks a customer on `node`, hot or cold.
    fn pick_customer(&self, node: NodeId, rng: &mut FastRng, hot: bool) -> u64 {
        let local = if hot {
            rng.gen_range(self.config.hot_customers_per_node)
        } else {
            self.config.hot_customers_per_node
                + rng.gen_range(self.config.customers_per_node - self.config.hot_customers_per_node)
        };
        self.customer(node, local)
    }

    fn amount(&self, rng: &mut FastRng) -> u64 {
        1 + rng.gen_range(self.config.max_amount)
    }

    /// Builds one transaction over customers `c1` (and `c2` for two-customer
    /// transactions) as an unplaced [`Txn`]; homes are resolved against
    /// [`Workload::tuple_home`] when the request is finalised.
    fn build(&self, txn: SmallBankTxn, c1: u64, c2: u64, rng: &mut FastRng) -> Txn {
        match txn {
            SmallBankTxn::Balance => Txn::new().read(self.savings(c1)).read(self.checking(c1)),
            SmallBankTxn::DepositChecking => Txn::new().add(self.checking(c1), self.amount(rng) as i64),
            SmallBankTxn::TransactSavings => Txn::new().cond_sub(self.savings(c1), self.amount(rng)),
            SmallBankTxn::WriteCheck => Txn::new().read(self.savings(c1)).cond_sub(self.checking(c1), self.amount(rng)),
            SmallBankTxn::Amalgamate => {
                // Drain c1's savings and credit the drained amount to c2's
                // checking account: a read-dependent write (the operand of
                // the credit is the value read from the savings account).
                Txn::new().read(self.savings(c1)).write(self.savings(c1), 0).add(self.checking(c2), 0).operand_from(0)
            }
            SmallBankTxn::SendPayment => {
                let amount = self.amount(rng);
                Txn::new().cond_sub(self.checking(c1), amount).add(self.checking(c2), amount as i64)
            }
        }
    }

    /// Resolves a built transaction's homes for a cluster of `num_nodes`.
    fn place(&self, txn: Txn, num_nodes: u16, coordinator: NodeId) -> TxnRequest {
        txn.resolve(&|t: TupleId| self.tuple_home(t, num_nodes), coordinator)
            .expect("generated SmallBank transactions are well-formed")
    }

    fn pick_type(rng: &mut FastRng) -> SmallBankTxn {
        TXN_TYPES[rng.pick(TXN_TYPES.len())]
    }
}

impl Workload for SmallBank {
    fn name(&self) -> String {
        format!("SmallBank {}hot/node", self.config.hot_customers_per_node)
    }

    fn tables(&self) -> Vec<TableId> {
        vec![SAVINGS, CHECKING]
    }

    fn load_node(&self, storage: &NodeStorage, _num_nodes: u16) {
        let node = storage.node();
        let savings = storage.table(SAVINGS).expect("savings table declared");
        let checking = storage.table(CHECKING).expect("checking table declared");
        savings.bulk_load(
            (0..self.config.customers_per_node).map(|l| (self.customer(node, l), Value::scalar(INITIAL_BALANCE))),
        );
        checking.bulk_load(
            (0..self.config.customers_per_node).map(|l| (self.customer(node, l), Value::scalar(INITIAL_BALANCE))),
        );
    }

    fn hot_tuples(&self, num_nodes: u16) -> Vec<HotTuple> {
        let mut hot = Vec::new();
        for node in 0..num_nodes {
            for local in 0..self.config.hot_customers_per_node {
                let c = self.customer(NodeId(node), local);
                hot.push(HotTuple { tuple: self.savings(c), initial: INITIAL_BALANCE });
                hot.push(HotTuple { tuple: self.checking(c), initial: INITIAL_BALANCE });
            }
        }
        hot
    }

    fn layout_traces(&self, num_nodes: u16, rng: &mut FastRng) -> Vec<TxnTrace> {
        let mut traces = Vec::new();
        for sample in 0..512 {
            let coordinator = NodeId((sample % num_nodes as usize) as u16);
            let node2 = NodeId(((sample / num_nodes as usize) % num_nodes as usize) as u16);
            let c1 = self.pick_customer(coordinator, rng, true);
            let c2 = self.pick_customer(node2, rng, true);
            let txn = Self::pick_type(rng);
            let ops = self.place(self.build(txn, c1, c2, rng), num_nodes, coordinator).ops;
            let accesses = (ops.iter())
                .map(|op| {
                    if op.kind.is_write() && op.operand_from.is_some() {
                        TraceAccess::dependent_write(op.tuple)
                    } else {
                        TraceAccess::new(op.tuple)
                    }
                })
                .collect();
            traces.push(TxnTrace::new(accesses));
        }
        traces
    }

    fn generate(&self, ctx: &WorkloadCtx, rng: &mut FastRng) -> TxnRequest {
        let hot = rng.gen_bool(self.config.hot_txn_prob);
        let distributed = rng.gen_bool(ctx.distributed_prob);
        let txn = Self::pick_type(rng);
        let node1 = ctx.coordinator;
        let node2 = if distributed { ctx.remote_node(rng) } else { ctx.coordinator };
        let c1 = self.pick_customer(node1, rng, hot);
        // Two-customer transactions pick the second customer on the (possibly
        // remote) second node; make sure both customers are distinct while
        // staying in the same temperature class.
        let mut c2 = self.pick_customer(node2, rng, hot);
        if c2 == c1 {
            let range = if hot { self.config.hot_customers_per_node } else { self.config.customers_per_node };
            let base = if hot { 0 } else { self.config.hot_customers_per_node };
            let local = (c2 % self.config.customers_per_node - base + 1) % (range - base).max(1) + base;
            c2 = self.customer(node2, local);
            if c2 == c1 {
                // Degenerate single-customer hot set: fall back to a
                // one-customer transaction type.
                return self.place(
                    self.build(SmallBankTxn::DepositChecking, c1, c1, rng),
                    ctx.num_nodes,
                    ctx.coordinator,
                );
            }
        }
        self.place(self.build(txn, c1, c2, rng), ctx.num_nodes, ctx.coordinator)
    }

    fn tuple_home(&self, tuple: TupleId, num_nodes: u16) -> Option<NodeId> {
        if tuple.table != SAVINGS && tuple.table != CHECKING {
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

    fn small() -> SmallBank {
        SmallBank::new(SmallBankConfig { customers_per_node: 1_000, ..SmallBankConfig::default() })
    }

    #[test]
    fn loader_creates_both_accounts_per_customer() {
        let w = small();
        let storage = NodeStorage::new(NodeId(0), w.tables());
        w.load_node(&storage, 2);
        assert_eq!(storage.total_rows(), 2_000);
        assert_eq!(storage.table(SAVINGS).unwrap().read(0).unwrap().switch_word(), INITIAL_BALANCE);
        assert_eq!(storage.table(CHECKING).unwrap().read(0).unwrap().switch_word(), INITIAL_BALANCE);
    }

    #[test]
    fn hot_set_has_two_tuples_per_hot_customer() {
        let w = small();
        assert_eq!(w.hot_tuples(8).len(), 8 * 5 * 2);
    }

    #[test]
    fn amalgamate_is_a_read_dependent_write() {
        let w = small();
        let mut rng = FastRng::new(1);
        let ops = w.place(w.build(SmallBankTxn::Amalgamate, 3, 7, &mut rng), 2, NodeId(0)).ops;
        assert_eq!(ops.len(), 3);
        assert_eq!(ops[2].operand_from, Some(0));
        assert!(ops[2].kind.is_write());
    }

    #[test]
    fn send_payment_moves_a_bounded_amount() {
        let w = small();
        let mut rng = FastRng::new(2);
        let ops = w.place(w.build(SmallBankTxn::SendPayment, 1, 2, &mut rng), 2, NodeId(0)).ops;
        match (ops[0].kind, ops[1].kind) {
            (OpKind::CondSub(a), OpKind::Add(b)) => {
                assert_eq!(a as i64, b);
                assert!(a >= 1 && a <= w.config().max_amount);
            }
            other => panic!("unexpected ops {other:?}"),
        }
    }

    #[test]
    fn hot_transactions_hit_the_hot_customers() {
        let w = SmallBank::new(SmallBankConfig {
            customers_per_node: 1_000,
            hot_txn_prob: 1.0,
            ..SmallBankConfig::default()
        });
        let ctx = WorkloadCtx::new(4, NodeId(1), 0.0);
        let mut rng = FastRng::new(3);
        for _ in 0..200 {
            let req = w.generate(&ctx, &mut rng);
            for op in &req.ops {
                let local = op.tuple.key % w.config().customers_per_node;
                assert!(local < w.config().hot_customers_per_node, "local customer {local} is not hot");
            }
        }
    }

    #[test]
    fn tuple_home_resolves_both_account_tables() {
        let w = small();
        assert_eq!(w.tuple_home(TupleId::new(SAVINGS, 0), 4), Some(NodeId(0)));
        assert_eq!(w.tuple_home(TupleId::new(CHECKING, 1_500), 4), Some(NodeId(1)));
        assert_eq!(w.tuple_home(TupleId::new(SAVINGS, 999_999), 4), None, "beyond the loaded partitions");
        assert_eq!(w.tuple_home(TupleId::new(TableId(9), 0), 4), None, "foreign table");
    }

    #[test]
    fn two_customer_transactions_never_use_the_same_account_twice() {
        let w = small();
        let ctx = WorkloadCtx::new(2, NodeId(0), 1.0);
        let mut rng = FastRng::new(5);
        for _ in 0..500 {
            let req = w.generate(&ctx, &mut rng);
            if req.ops.len() == 2 && req.ops[0].tuple.table == CHECKING && req.ops[1].tuple.table == CHECKING {
                assert_ne!(req.ops[0].tuple.key, req.ops[1].tuple.key, "SendPayment with identical accounts");
            }
        }
    }

    #[test]
    fn declustered_layout_keeps_smallbank_hot_txns_single_pass() {
        let w = small();
        let mut rng = FastRng::new(11);
        let traces = w.layout_traces(4, &mut rng);
        let hot: Vec<_> = w.hot_tuples(4).iter().map(|h| h.tuple).collect();
        let planner = LayoutPlanner::new(10, 4, 2048);
        let declustered = planner.plan(&hot, &traces, LayoutStrategy::Declustered);
        let worst = planner.plan(&hot, &traces, LayoutStrategy::Worst);
        let good = single_pass_fraction(&declustered, &traces);
        let bad = single_pass_fraction(&worst, &traces);
        assert!(good > bad, "declustered {good} must beat worst {bad}");
        assert!(good > 0.6, "declustered single-pass fraction too low: {good}");
    }
}
