//! Sharding suite: the shared-nothing node hot path (sharded row store,
//! admission-time row-handle resolution, grouped lock release) must keep the
//! serializability, exactly-once and conservation verdicts of
//! `p4db_chaos::invariants::check` clean for every seeded workload, with and
//! without message faults, and must settle every transaction it was given.

use p4db::chaos::{run_chaos, seeds, ChaosOptions, ChaosWorkload};
use p4db::storage::{NodeStorage, RowHandle, Table, DEFAULT_TABLE_SHARDS};
use p4db::workloads::{SmallBank, SmallBankConfig, Workload, Ycsb, YcsbConfig, YcsbMix};
use p4db::{Cluster, Load, NodeId, Stop, TableId};
use std::sync::Arc;

/// Seeds per workload for the sweep (12 seeds, matching the chaos suite's
/// faulty sweep).
const SEEDS: std::ops::Range<u64> = 1..13;

/// Every seed runs one traffic wave under full invariant checking; a third
/// of them run with message faults. The drivers settle every request as a
/// commit or an abort, so the attempted count is known up front: sharding
/// must not lose or invent work, faults or not.
fn sweep(workload: ChaosWorkload) {
    for seed in seeds(SEEDS) {
        let faults = seed % 3 == 0;
        let mut options = ChaosOptions::new(workload, seed);
        options.waves = 1;
        options.txns_per_wave = 60;
        if !faults {
            options.faults = None;
        }
        let report = run_chaos(&options).expect("chaos run failed to execute");
        assert!(report.invariants.is_clean(), "{workload:?} seed {seed} faults={faults}: {}", report.failure_summary());
        assert!(report.committed > 0, "{workload:?} seed {seed}: empty run");
        let attempted =
            options.nodes as u64 * options.workers as u64 * options.waves as u64 * options.txns_per_wave as u64;
        assert_eq!(
            report.committed + report.aborted,
            attempted,
            "{workload:?} seed {seed} faults={faults}: attempted-transaction count drifted"
        );
    }
}

#[test]
fn sharding_sweep_ycsb() {
    sweep(ChaosWorkload::Ycsb);
}

#[test]
fn sharding_sweep_smallbank() {
    sweep(ChaosWorkload::SmallBank);
}

#[test]
fn sharding_sweep_tpcc() {
    sweep(ChaosWorkload::Tpcc);
}

/// A full cluster serves session traffic at the storage shard count every
/// cluster is built with: each table of each node is split into
/// `DEFAULT_TABLE_SHARDS` shards (smoke over the cluster's store rather than
/// the chaos harness; `Table::with_shards(1)` is covered by the churn
/// property below).
#[test]
fn cluster_commits_at_every_storage_shard_count() {
    let workload: Arc<dyn Workload> =
        Arc::new(Ycsb::new(YcsbConfig { keys_per_node: 2_000, ..YcsbConfig::new(YcsbMix::A) }));
    let cluster = Cluster::builder(workload).test_profile().build();
    for storage in cluster.shared().nodes.iter() {
        for table in storage.tables() {
            assert_eq!(table.shard_count(), DEFAULT_TABLE_SHARDS);
        }
    }
    let stats = cluster.drive(Load::new(Stop::Txns(100))).expect("drive failed");
    assert_eq!(stats.merged.committed_total() + stats.failed, 4 * 100, "every transaction settles");
    assert!(stats.attempts_per_commit() < 3.0, "{:.2} attempts per commit", stats.attempts_per_commit());
}

/// Property test (FastRng case harness): row handles resolved before an
/// insert-heavy churn keep reading and writing *their* row — map growth,
/// rehashing, unrelated removals and even removal of the handled row itself
/// never invalidate a handle.
#[test]
fn property_row_handles_survive_insert_heavy_churn() {
    use p4db::common::rand_util::FastRng;
    for case in 0u64..24 {
        let mut rng = FastRng::new(0x5EED_CA5E ^ case);
        let shards = [1usize, 2, 64][(case % 3) as usize];
        let table = Table::with_shards(TableId(0), shards);
        // A modest initial population, then pin handles to some of it.
        let initial = 64 + rng.gen_range(192);
        table.bulk_load((0..initial).map(|k| (k, p4db::common::Value::scalar(k))));
        let pinned: Vec<(u64, RowHandle)> =
            (0..32).map(|_| rng.gen_range(initial)).map(|k| (k, table.get(k).expect("loaded"))).collect();

        // Churn: thousands of fresh inserts (forcing shard-map growth and
        // rehashes), interleaved with removals — sometimes of pinned keys.
        let mut removed = std::collections::HashSet::new();
        for i in 0..4_000u64 {
            table.insert(initial + i, p4db::common::Value::scalar(i));
            if i % 97 == 0 {
                let victim = rng.gen_range(initial);
                if table.remove(victim) {
                    removed.insert(victim);
                }
            }
        }

        // Every pinned handle still reads its original row's value and
        // remains writable, reachable through the table or not.
        for (key, handle) in &pinned {
            let expected = if removed.contains(key) {
                // Unreachable via the table, but the handle is unaffected.
                assert!(table.get(*key).is_none(), "case {case}: removed key {key} still resolvable");
                *key
            } else {
                let live = table.get(*key).expect("still present");
                assert!(Arc::ptr_eq(&live, handle), "case {case}: handle for key {key} was displaced");
                *key
            };
            assert_eq!(handle.read().switch_word(), expected, "case {case}: handle for key {key} reads a foreign row");
            handle.write(p4db::common::Value::scalar(expected + 1));
            assert_eq!(handle.read().switch_word(), expected + 1);
            handle.write(p4db::common::Value::scalar(expected));
        }
        assert_eq!(table.len() as u64, initial + 4_000 - removed.len() as u64, "case {case}: row count drifted");
    }
}

/// Concurrent variant: readers hold handles while writer threads churn the
/// same table; all handle reads stay consistent with what was written
/// through them.
#[test]
fn property_row_handles_stay_valid_under_concurrent_churn() {
    let storage = Arc::new(NodeStorage::new(NodeId(0), [TableId(0)]));
    let table = storage.table(TableId(0)).unwrap();
    table.bulk_load((0..256u64).map(|k| (k, p4db::common::Value::scalar(1_000 + k))));
    let handles: Vec<(u64, RowHandle)> = (0..256u64).map(|k| (k, table.get(k).unwrap())).collect();

    let churners: Vec<_> = (0..4)
        .map(|t| {
            let storage = Arc::clone(&storage);
            std::thread::spawn(move || {
                let table = storage.table(TableId(0)).unwrap();
                for i in 0..5_000u64 {
                    let key = 1_000 + t * 10_000 + i;
                    table.insert(key, p4db::common::Value::scalar(key));
                    if i % 11 == 0 {
                        table.remove(key.saturating_sub(5));
                    }
                }
            })
        })
        .collect();

    // While the churn runs, every pinned handle keeps returning its row.
    for _ in 0..50 {
        for (key, handle) in &handles {
            assert_eq!(handle.read().switch_word(), 1_000 + key);
        }
    }
    for th in churners {
        th.join().unwrap();
    }
    for (key, handle) in &handles {
        assert_eq!(handle.read().switch_word(), 1_000 + key);
        assert!(table.get(*key).is_some(), "pre-churn keys must survive");
    }
}

/// The cumulative lock-wait statistic surfaces real WAIT_DIE waiting
/// through the cluster path (satellite: backoff + node stats).
#[test]
fn lock_wait_time_is_recorded_under_wait_die_contention() {
    use p4db::{CcScheme, SystemMode};
    let workload: Arc<dyn Workload> = Arc::new(SmallBank::new(SmallBankConfig {
        customers_per_node: 200,
        hot_customers_per_node: 4,
        ..SmallBankConfig::default()
    }));
    // NoSwitch keeps the hot accounts on the host lock tables, so WAIT_DIE
    // actually contends on them.
    let cluster =
        Cluster::builder(workload).test_profile().workers(4).mode(SystemMode::NoSwitch).cc(CcScheme::WaitDie).build();
    let stats = cluster.drive(Load::new(Stop::Txns(100))).expect("drive failed");
    assert_eq!(stats.merged.committed_total() + stats.failed, 2 * 4 * 100, "every transaction settles");
    assert!(stats.attempts_per_commit() < 3.0, "{:.2} attempts per commit", stats.attempts_per_commit());
    let waits: u64 = cluster.shared().nodes.iter().map(|n| n.locks().wait_stats().waits).sum();
    let waited: u64 = cluster.shared().nodes.iter().map(|n| n.locks().wait_stats().total_wait_ns).sum();
    assert!(waits > 0, "a contended WAIT_DIE run must record waits");
    assert!(waited > 0, "recorded waits must accumulate wait time");
}
