//! Cross-crate integration tests: full clusters (nodes + switch + engine +
//! workloads) exercised end to end in the zero-latency test profile.

use p4db::common::stats::{RunStats, TxnClass};
use p4db::common::{AbortReason, CcScheme, Error, NodeId, SystemMode, TupleId};
use p4db::core::{Cluster, Load, Stop};
use p4db::storage::recover_switch_state;
use p4db::workloads::smallbank::{CHECKING, INITIAL_BALANCE, SAVINGS};
use p4db::workloads::{SmallBank, SmallBankConfig, Tpcc, TpccConfig, Workload, Ycsb, YcsbConfig, YcsbMix};
use p4db::Txn;
use std::collections::HashMap;
use std::sync::Arc;

fn ycsb() -> Arc<dyn Workload> {
    Arc::new(Ycsb::new(YcsbConfig { keys_per_node: 2_000, ..YcsbConfig::new(YcsbMix::A) }))
}

fn smallbank() -> Arc<dyn Workload> {
    Arc::new(SmallBank::new(SmallBankConfig { customers_per_node: 2_000, ..SmallBankConfig::default() }))
}

fn tpcc() -> Arc<dyn Workload> {
    Arc::new(Tpcc::new(TpccConfig { items_loaded: 500, ..TpccConfig::new(4) }))
}

/// Drives `n` transactions per session at a window of 1 and checks that
/// every one settled, at fewer than 3 execution attempts per commit.
fn drive_n(cluster: &Cluster, n: usize) -> RunStats {
    let stats = cluster.drive(Load::new(Stop::Txns(n))).expect("drive failed");
    let (nodes, workers) = (cluster.config().num_nodes as u64, cluster.config().workers_per_node as u64);
    let cell = format!("{:?}", cluster.config().mode);
    assert_eq!(
        stats.merged.committed_total() + stats.failed,
        nodes * workers * n as u64,
        "{cell}: every transaction settles"
    );
    assert!(stats.attempts_per_commit() < 3.0, "{cell}: {:.2} attempts per commit", stats.attempts_per_commit());
    stats
}

/// The mode x workload matrix: every cell settles every transaction it is
/// given without a retry storm.
#[test]
fn all_workloads_commit_in_all_modes() {
    for workload in [ycsb(), smallbank(), tpcc()] {
        for mode in [SystemMode::NoSwitch, SystemMode::LmSwitch, SystemMode::P4db] {
            let cluster = Cluster::builder(Arc::clone(&workload)).test_profile().mode(mode).build();
            eprintln!("cell: {} in {mode:?}", workload.name());
            drive_n(&cluster, 100);
        }
    }
}

#[test]
fn p4db_executes_hot_transactions_on_the_switch_and_keeps_hosts_consistent() {
    // Use the full-size (Tofino-like) switch geometry so the declustered
    // layout has the pipeline depth the paper assumes; latencies stay zero.
    let cluster = Cluster::builder(ycsb()).test_profile().switch(p4db::switch::SwitchConfig::tofino_defaults()).build();
    let stats = drive_n(&cluster, 100);
    assert!(stats.merged.committed_hot > 0, "hot transactions must run on the switch");
    let sw = cluster.switch_stats();
    assert!(sw.txns_executed >= stats.merged.committed_hot);
    assert!(sw.single_pass_fraction() > 0.5, "most YCSB hot transactions should be single-pass");
}

#[test]
fn wait_die_also_makes_progress_under_contention() {
    let cluster = Cluster::builder(ycsb()).test_profile().mode(SystemMode::NoSwitch).cc(CcScheme::WaitDie).build();
    drive_n(&cluster, 100);
}

#[test]
fn tpcc_produces_warm_transactions_in_p4db_mode() {
    let cluster = Cluster::builder(tpcc()).test_profile().build();
    let stats = drive_n(&cluster, 100);
    assert!(stats.merged.committed_warm > 0, "TPC-C must produce warm transactions");
    assert!(cluster.switch_stats().multicasts > 0 || stats.merged.committed_warm > 0);
}

#[test]
fn tpcc_money_is_conserved_between_customers_and_ytd_counters() {
    // Every Payment adds `amount` to warehouse + district YTD and subtracts
    // it from a customer balance; NewOrder does not touch balances. So the
    // total warehouse YTD must equal the total amount deducted from
    // customers, whichever path (switch or host) executed the update.
    use p4db::workloads::tpcc::{keys, CUSTOMER, CUSTOMERS_PER_DISTRICT, DISTRICTS_PER_WAREHOUSE, WAREHOUSE};
    let workload = tpcc();
    let cluster = Cluster::builder(Arc::clone(&workload)).test_profile().build();
    drive_n(&cluster, 100);

    let mut ytd_total: i128 = 0;
    for w in 0..4u64 {
        let tuple = TupleId::new(WAREHOUSE, keys::warehouse(w));
        // Hot tuples live on the switch in P4DB mode.
        ytd_total += cluster.switch_value(tuple).unwrap_or(0) as i64 as i128;
    }
    let mut customer_delta: i128 = 0;
    for node in cluster.shared().nodes.iter() {
        let table = node.table(CUSTOMER).unwrap();
        table.for_each(|_, row| {
            let balance = row.read().switch_word() as i64 as i128;
            customer_delta += 1_000 - balance; // initial balance is 1 000
        });
    }
    // Each warehouse's initial YTD is 0 and every Payment moves the same
    // amount into YTD (warehouse) as it removes from a customer.
    assert_eq!(ytd_total, customer_delta, "warehouse YTD must equal total customer deductions");
    let _ = (DISTRICTS_PER_WAREHOUSE, CUSTOMERS_PER_DISTRICT);
}

#[test]
fn switch_state_recovers_from_node_logs_after_a_crash() {
    let cluster = Cluster::builder(smallbank()).test_profile().build();
    drive_n(&cluster, 100);

    let live: HashMap<TupleId, u64> =
        cluster.shared().hot_index.load().iter().map(|(t, _)| (t, cluster.switch_value(t).unwrap())).collect();

    let initial = cluster.offload_snapshot();
    let logs: Vec<_> = cluster.shared().nodes.iter().map(|n| n.wal().records()).collect();
    let outcome = recover_switch_state(initial, &logs);
    assert_eq!(outcome.inconsistencies, 0);
    for (tuple, value) in live {
        let recovered = outcome.values.get(&tuple).copied().unwrap_or(initial[&tuple]);
        assert_eq!(recovered, value, "recovered value of {tuple} diverges");
    }
}

#[test]
fn lm_switch_keeps_data_on_the_hosts() {
    let cluster = Cluster::builder(ycsb()).test_profile().mode(SystemMode::LmSwitch).build();
    drive_n(&cluster, 100);
    assert_eq!(cluster.switch_stats().txns_executed, 0, "LM-Switch must not execute data-plane transactions");
    assert!(cluster.switch_stats().lm_requests > 0, "LM-Switch must process lock requests");
}

/// SmallBank customer ids for the session tests: customers_per_node = 2 000,
/// hot customers 0..5 per node; savings/checking of hot customers live on the
/// switch in P4DB mode.
fn smallbank_cluster() -> Cluster {
    Cluster::builder(smallbank()).test_profile().mode(SystemMode::P4db).cc(CcScheme::NoWait).build()
}

#[test]
fn operand_from_forwards_results_on_the_host_path_through_a_session() {
    let cluster = smallbank_cluster();
    let mut session = cluster.session(NodeId(0)).unwrap();

    // Amalgamate over two *cold* customers on different nodes: drain c1's
    // savings and credit the read amount to c2's checking — entirely on the
    // host path, distributed, with the operand forwarded from operation 0.
    let (c1, c2) = (100u64, 2_100u64);
    let txn = Txn::new()
        .read(TupleId::new(SAVINGS, c1))
        .write(TupleId::new(SAVINGS, c1), 0)
        .add(TupleId::new(CHECKING, c2), 0)
        .operand_from(0);
    let outcome = session.execute(&txn).unwrap();
    assert_eq!(outcome.class, TxnClass::Cold);
    // Per-op results in operation order: the read value, the written value,
    // the credited balance.
    assert_eq!(outcome.results, vec![INITIAL_BALANCE, 0, 2 * INITIAL_BALANCE]);
    let node1 = &cluster.shared().nodes[1];
    assert_eq!(node1.table(CHECKING).unwrap().read(c2).unwrap().switch_word(), 2 * INITIAL_BALANCE);
    assert_eq!(cluster.shared().nodes[0].table(SAVINGS).unwrap().read(c1).unwrap().switch_word(), 0);
}

#[test]
fn operand_from_forwards_results_on_the_switch_path_through_a_session() {
    let cluster = smallbank_cluster();
    let mut session = cluster.session(NodeId(0)).unwrap();

    // The same amalgamate over two *hot* customers: all three operations are
    // offloaded, so the dependency is resolved inside the switch pipeline.
    let (c1, c2) = (1u64, 2u64);
    let txn = Txn::new()
        .read(TupleId::new(SAVINGS, c1))
        .write(TupleId::new(SAVINGS, c1), 0)
        .add(TupleId::new(CHECKING, c2), 0)
        .operand_from(0);
    let outcome = session.execute(&txn).unwrap();
    assert_eq!(outcome.class, TxnClass::Hot);
    assert!(outcome.gid.is_some());
    assert_eq!(outcome.results, vec![INITIAL_BALANCE, 0, 2 * INITIAL_BALANCE]);
    assert_eq!(cluster.switch_value(TupleId::new(SAVINGS, c1)), Some(0));
    assert_eq!(cluster.switch_value(TupleId::new(CHECKING, c2)), Some(2 * INITIAL_BALANCE));
}

#[test]
fn cond_sub_aborts_on_the_host_but_is_a_constrained_no_apply_on_the_switch() {
    let cluster = smallbank_cluster();
    let mut session = cluster.session(NodeId(0)).unwrap();
    session.set_max_attempts(1); // a constraint violation is deterministic — don't retry

    // Host path: overdrawing a cold account aborts the transaction.
    let cold = TupleId::new(CHECKING, 200);
    let err = session.execute(&Txn::new().cond_sub(cold, INITIAL_BALANCE + 1)).unwrap_err();
    assert_eq!(err.abort_reason(), Some(AbortReason::ConstraintViolation));
    assert_eq!(cluster.shared().nodes[0].table(CHECKING).unwrap().read(200).unwrap().switch_word(), INITIAL_BALANCE);

    // Switch path: the same overdraft on a hot account commits as a
    // constrained write that simply does not apply (§5.1 — the switch never
    // aborts).
    let hot = TupleId::new(CHECKING, 3);
    let outcome = session.execute(&Txn::new().cond_sub(hot, INITIAL_BALANCE + 1)).unwrap();
    assert_eq!(outcome.class, TxnClass::Hot);
    assert_eq!(outcome.results, vec![INITIAL_BALANCE], "the balance is reported unchanged");
    assert_eq!(cluster.switch_value(hot), Some(INITIAL_BALANCE));

    // The session's merged statistics saw exactly one constraint abort.
    assert_eq!(session.stats().aborts_constraint, 1);
    assert_eq!(session.stats().committed_total(), 1);
}

#[test]
fn warm_transactions_keep_per_op_results_in_operation_order() {
    let cluster = smallbank_cluster();
    let mut session = cluster.session(NodeId(0)).unwrap();

    // hot / cold / hot interleaving: results must come back in op order even
    // though the engine executes the cold part first and scatters the switch
    // results afterwards.
    let txn =
        Txn::new().read(TupleId::new(CHECKING, 4)).add(TupleId::new(SAVINGS, 300), 5).read(TupleId::new(SAVINGS, 4));
    let outcome = session.execute(&txn).unwrap();
    assert_eq!(outcome.class, TxnClass::Warm);
    assert_eq!(outcome.results, vec![INITIAL_BALANCE, INITIAL_BALANCE + 5, INITIAL_BALANCE]);
}

#[test]
fn sessions_reject_cross_temperature_operand_dependencies() {
    let cluster = smallbank_cluster();
    let mut session = cluster.session(NodeId(0)).unwrap();
    // Operand produced on the host, consumed on the switch: structured error,
    // not an executor panic.
    let txn = Txn::new().read(TupleId::new(SAVINGS, 100)).add(TupleId::new(CHECKING, 1), 0).operand_from(0);
    assert!(matches!(session.execute(&txn), Err(Error::InvalidTxn(_))));
}

#[test]
fn capacity_overflow_degrades_gracefully() {
    // Hot set larger than the switch: the prefix is offloaded, the rest runs
    // on the host, and the system still commits.
    let workload: Arc<dyn Workload> = Arc::new(Ycsb::new(YcsbConfig {
        keys_per_node: 4_000,
        hot_keys_per_node: 1_000,
        ..YcsbConfig::new(YcsbMix::A)
    }));
    // The test profile's tiny switch: 512 cells total.
    let cluster = Cluster::builder(workload).test_profile().build();
    assert!(cluster.offloaded_tuples() > 0);
    assert!(cluster.offloaded_tuples() < cluster.hot_set_size());
    let stats = drive_n(&cluster, 100);
    // With only part of the hot set on the switch, transactions over the hot
    // keys become warm (or hot if all their keys happen to be offloaded) —
    // the switch is still involved, throughput degrades gracefully.
    assert!(stats.merged.committed_hot + stats.merged.committed_warm > 0);
    assert!(stats.merged.committed_cold + stats.merged.committed_warm > 0);
}

/// The builder is the only way to build a cluster, and its defaults are the
/// figures' common operating point: the benchmark harness's rows and arms
/// state only what they change from here.
#[test]
fn the_builder_defaults_are_the_figures_operating_point() {
    let builder = Cluster::builder(ycsb());
    let config = builder.config();
    assert_eq!((config.num_nodes, config.workers_per_node, config.num_switches), (4, 4, 1));
    assert_eq!((config.mode, config.cc), (SystemMode::P4db, CcScheme::NoWait));
    assert_eq!(config.distributed_prob, 0.2);
    assert_eq!(config.batch_size, 16);
    assert_eq!(config.switch, p4db::switch::SwitchConfig::tofino_defaults());
    assert_eq!(config.latency, p4db::common::LatencyConfig::bench_profile());
    assert!(config.faults.is_none() && !config.breaker && !config.chiller);
}

/// An engine worker outside the pool's id space runs directly on a built
/// cluster's engine beside the pool (as the read-mix figure and the
/// benchmark's traced run do): no fabric endpoint collides, and its commit
/// is visible to a session.
#[test]
fn an_engine_worker_outside_the_pool_runs_beside_it() {
    let cluster = Cluster::builder(ycsb()).test_profile().mode(SystemMode::NoSwitch).build();
    let mut worker = p4db::txn::Worker::new(Arc::clone(cluster.shared()), NodeId(0), p4db::common::WorkerId(u16::MAX));
    let key = TupleId::new(p4db::workloads::ycsb::YCSB_TABLE, 100);
    let req = Txn::new().add(key, 7).resolve(&cluster.partition_map(), NodeId(0)).unwrap();
    let mut stats = p4db::common::stats::WorkerStats::new();
    assert_eq!(worker.execute(&req, &mut stats).unwrap().results, vec![7]);
    let mut session = cluster.session(NodeId(0)).unwrap();
    assert_eq!(session.execute(&Txn::new().read(key)).unwrap().results, vec![7]);
}
