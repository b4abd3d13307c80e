//! The write-ahead log is the engine's observable contract: what it records,
//! in which order, under which transaction ids. A change to how the engine
//! takes or releases its locks must leave it byte-identical.
//!
//! One worker on node 0 runs fixed-seed streams of YCSB, SmallBank and TPC-C
//! serially, straight through `Worker::execute` (the cluster's own executors
//! stay idle), and every node's log is hashed. The expected digests were
//! recorded from the same body before row locks moved into the rows; a
//! change that alters any logged byte shows here as a different digest.

use p4db::common::rand_util::FastRng;
use p4db::common::stats::WorkerStats;
use p4db::common::{NodeId, WorkerId};
use p4db::txn::Worker;
use p4db::workloads::{SmallBank, SmallBankConfig, Tpcc, TpccConfig, Workload, WorkloadCtx, Ycsb, YcsbConfig, YcsbMix};
use p4db::{CcScheme, Cluster, SystemMode};
use std::sync::Arc;

/// FNV-1a over every node's serialized WAL segments, in node order.
fn wal_digest(cluster: &Cluster) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for node in &cluster.shared().nodes {
        for segment in node.wal().serialize_segments() {
            for &byte in segment.iter() {
                hash = (hash ^ byte as u64).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    hash
}

/// Runs 400 requests of `workload`, generated from `seed`, one after the
/// other on one worker with a fixed id, and returns the WAL digest. At least
/// 300 must commit, so the digest of a run that only aborts cannot pass.
fn serial_run(workload: Arc<dyn Workload>, mode: SystemMode, cc: CcScheme, seed: u64) -> u64 {
    let cluster = Cluster::builder(Arc::clone(&workload)).test_profile().mode(mode).cc(cc).seed(seed).build();
    let mut worker = Worker::new(Arc::clone(cluster.shared()), NodeId(0), WorkerId(900));
    let ctx = WorkloadCtx::new(2, NodeId(0), 0.3);
    let mut rng = FastRng::new(seed);
    let mut stats = WorkerStats::new();
    let mut committed = 0;
    for _ in 0..400 {
        let req = workload.generate(&ctx, &mut rng);
        match worker.execute(&req, &mut stats) {
            Ok(_) => committed += 1,
            // Serially nothing conflicts; a constraint abort is logged like
            // any other outcome.
            Err(e) => assert!(e.is_abort() && !e.abort_reason().unwrap().is_retryable(), "{e}"),
        }
    }
    assert!(committed >= 300, "{}: only {committed} of 400 committed", workload.name());
    wal_digest(&cluster)
}

#[test]
fn a_serial_run_logs_the_recorded_wal() {
    let ycsb: Arc<dyn Workload> =
        Arc::new(Ycsb::new(YcsbConfig { keys_per_node: 2_000, ..YcsbConfig::new(YcsbMix::A) }));
    let smallbank =
        Arc::new(SmallBank::new(SmallBankConfig { customers_per_node: 2_000, ..SmallBankConfig::default() }));
    let tpcc = Arc::new(Tpcc::new(TpccConfig { items_loaded: 500, ..TpccConfig::new(4) }));
    let digests = [
        ("ycsb no-switch no-wait", serial_run(Arc::clone(&ycsb), SystemMode::NoSwitch, CcScheme::NoWait, 11)),
        ("ycsb no-switch wait-die", serial_run(ycsb, SystemMode::NoSwitch, CcScheme::WaitDie, 12)),
        ("smallbank p4db", serial_run(smallbank, SystemMode::P4db, CcScheme::NoWait, 13)),
        ("tpcc p4db", serial_run(tpcc, SystemMode::P4db, CcScheme::NoWait, 14)),
    ];
    let recorded = [
        ("ycsb no-switch no-wait", 3083260061129206147),
        ("ycsb no-switch wait-die", 5528485610873039733),
        ("smallbank p4db", 13718168940835924346),
        ("tpcc p4db", 3744712008994400171),
    ];
    assert_eq!(digests, recorded, "the WAL of a fixed serial run changed");
}
