//! SmallBank + switch failure and recovery.
//!
//! Runs the SmallBank workload on a P4DB cluster, then simulates a switch
//! crash and reconstructs the switch state from the per-node write-ahead
//! logs using the GID-ordered replay of §6.1 / §A.3, verifying that the
//! recovered balances match the pre-crash state and that no balance ever
//! went negative (the switch's constrained writes enforce the overdraft
//! constraint without aborts).
//!
//! Run with: `cargo run --release --example smallbank_recovery`

use p4db::common::{CcScheme, SystemMode};
use p4db::core::{Cluster, Load, Stop};
use p4db::storage::recover_switch_state;
use p4db::workloads::{SmallBank, SmallBankConfig, Workload};
use std::sync::Arc;

fn main() {
    let workload: Arc<dyn Workload> = Arc::new(SmallBank::new(SmallBankConfig {
        customers_per_node: 20_000,
        hot_customers_per_node: 5,
        ..SmallBankConfig::default()
    }));

    let cluster = Cluster::builder(Arc::clone(&workload)).mode(SystemMode::P4db).cc(CcScheme::NoWait).build();
    println!("SmallBank cluster: {} hot account balances offloaded to the switch", cluster.offloaded_tuples());

    let stats = cluster.drive(Load::new(Stop::Txns(200))).expect("drive failed");
    println!(
        "ran {} transactions ({:.0} txn/s), abort rate {:.1}%",
        stats.merged.committed_total(),
        stats.throughput(),
        stats.abort_rate() * 100.0
    );
    assert_eq!(stats.merged.committed_total() + stats.failed, 16 * 200, "every submitted transaction settles");

    // Capture the live switch state, then "crash" and recover from the logs.
    let live: Vec<(p4db::common::TupleId, u64)> = cluster
        .shared()
        .hot_index
        .load()
        .iter()
        .map(|(tuple, _)| (tuple, cluster.switch_value(tuple).expect("offloaded")))
        .collect();
    for (tuple, value) in &live {
        assert!((*value as i64) >= 0, "balance of {tuple} went negative: {value}");
    }

    let initial = cluster.offload_snapshot();
    let logs: Vec<_> = cluster.shared().nodes.iter().map(|n| n.wal().records()).collect();
    let recovered = recover_switch_state(initial, &logs);
    println!(
        "recovery replayed {} completed switch transactions ({} in-flight ordered by dependencies, {} unordered)",
        recovered.completed, recovered.inflight_ordered, recovered.inflight_unordered
    );

    let mut mismatches = 0;
    for (tuple, value) in &live {
        if recovered.values.get(tuple).copied().unwrap_or(initial[tuple]) != *value {
            mismatches += 1;
        }
    }
    assert_eq!(recovered.inconsistencies, 0, "log replay must reproduce the recorded results");
    assert_eq!(mismatches, 0, "recovered switch state must match the pre-crash state");
    println!("recovered switch state matches the pre-crash state for all {} hot tuples ✓", live.len());
}
