//! Chaos drill: one fully-seeded fault-injection scenario end to end.
//!
//! Drives SmallBank on a P4DB cluster while the fabric drops, delays and
//! reorders messages from a seeded plan, crashes a database node (WAL-driven
//! restart) and the switch (recovery from the logs with a re-offload into
//! fresh register slots) between traffic waves, then replays the committed
//! history against a shadow store and checks every cluster-wide invariant.
//!
//! ```text
//! cargo run --release --example chaos_drill
//! ```

use p4db::chaos::{run_chaos, ChaosOptions, ChaosWorkload};
use p4db::common::NodeId;

fn main() {
    let mut options = ChaosOptions::new(ChaosWorkload::SmallBank, 0xC4A0);
    options.distributed_prob = 0.0; // single-partition traffic: node recovery is unambiguous
    options.crash_node = Some(NodeId(1));
    options.crash_switch = true;
    options.reoffload = true;

    let report = run_chaos(&options).expect("chaos run failed to execute");
    println!(
        "chaos drill (seed {:#x}): {} committed, {} aborted, {} in doubt",
        report.seed, report.committed, report.aborted, report.in_doubt
    );
    println!("  faults injected: {} ({} recorded)", report.faults_injected, report.fault_events.len());
    let node = report.node_recovery.as_ref().expect("node crash ran");
    println!(
        "  node crash: {} WAL records replayed, {} tuples restored, {} divergences",
        node.wal_records,
        node.restored_tuples,
        node.divergences.len()
    );
    assert!(!report.switch_recovery.is_empty(), "switch crash ran");
    for (s, switch) in report.switch_recovery.iter().enumerate() {
        println!(
            "  switch{s} crash: {} completed / {} in-flight txns replayed, {} tuples re-offloaded",
            switch.outcome.completed,
            switch.outcome.inflight_ordered + switch.outcome.inflight_unordered,
            switch.restored_tuples
        );
        assert!(switch.reoffloaded && switch.restored_tuples > 0, "switch{s} was not re-offloaded");
    }
    println!(
        "  invariants: {} switch txns replayed, {} in-doubt executed, {} in-doubt lost, {} cold tuples compared",
        report.invariants.replayed,
        report.invariants.in_doubt_executed,
        report.invariants.in_doubt_lost,
        report.invariants.cold_compared
    );

    assert!(report.committed > 200, "the drill must commit a healthy amount of work");
    assert!(report.is_clean(), "{}", report.failure_summary());
    println!("  all invariants hold");
}
