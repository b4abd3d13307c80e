//! The write-ahead log is the engine's observable contract: what it records,
//! in which order, under which transaction ids. A change to how the engine
//! takes or releases its locks must leave it byte-identical.
//!
//! One worker on node 0 runs fixed-seed streams of YCSB, SmallBank and TPC-C
//! serially, straight through `Worker::execute` (the cluster's own executors
//! stay idle), and every node's log is hashed twice. The byte digest covers
//! the serialized segments, so it changes with the codec; the record digest
//! covers the decoded record stream, field by field, so it holds across
//! codec versions and changes only when the engine logs something else. A
//! change that alters any logged byte shows as a different byte digest; one
//! that alters what is logged shows as a different record digest too.

use p4db::common::rand_util::FastRng;
use p4db::common::stats::WorkerStats;
use p4db::common::{NodeId, WorkerId};
use p4db::storage::LogRecord;
use p4db::txn::Worker;
use p4db::workloads::{SmallBank, SmallBankConfig, Tpcc, TpccConfig, Workload, WorkloadCtx, Ycsb, YcsbConfig, YcsbMix};
use p4db::{CcScheme, Cluster, SystemMode};
use std::sync::Arc;

/// FNV-1a, one byte at a time.
fn fnv(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |hash, &byte| (hash ^ byte as u64).wrapping_mul(0x0100_0000_01b3))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over every node's serialized WAL segments, in node order.
fn byte_digest(cluster: &Cluster) -> u64 {
    let mut hash = FNV_OFFSET;
    for node in &cluster.shared().nodes {
        for segment in node.wal().serialize_segments() {
            hash = fnv(hash, &segment);
        }
    }
    hash
}

/// FNV-1a over every node's decoded records, in node and LSN order: each
/// record's kind and fields as little-endian words, independent of how the
/// codec lays them out.
fn record_digest(cluster: &Cluster) -> u64 {
    let mut words: Vec<u64> = Vec::new();
    for (node, storage) in cluster.shared().nodes.iter().enumerate() {
        words.push(node as u64);
        for record in storage.wal().records() {
            match record {
                LogRecord::ColdWrite { txn, tuple, before, after } => {
                    words.extend([1, txn.0, tuple.table.0 as u64, tuple.key, before.switch_word(), after.switch_word()])
                }
                LogRecord::SwitchIntent { txn, ops } => {
                    words.extend([2, txn.0, ops.len() as u64]);
                    for op in ops {
                        let from = op.operand_from.map_or(u64::MAX, u64::from);
                        words.extend([op.tuple.table.0 as u64, op.tuple.key, op.op as u64, op.operand, from]);
                    }
                }
                LogRecord::SwitchResult { txn, gid, results } => {
                    words.extend([3, txn.0, gid.0, results.len() as u64]);
                    for (tuple, value) in results {
                        words.extend([tuple.table.0 as u64, tuple.key, value]);
                    }
                }
                LogRecord::Commit { txn } => words.extend([4, txn.0]),
                LogRecord::Abort { txn } => words.extend([5, txn.0]),
            }
        }
    }
    words.iter().fold(FNV_OFFSET, |hash, word| fnv(hash, &word.to_le_bytes()))
}

/// Runs 400 requests of `workload`, generated from `seed`, one after the
/// other on one worker with a fixed id, and returns the WAL's byte and record
/// digests. At least 300 must commit, so the digests of a run that only
/// aborts cannot pass.
fn serial_run(workload: Arc<dyn Workload>, mode: SystemMode, cc: CcScheme, seed: u64) -> (u64, u64) {
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
    (byte_digest(&cluster), record_digest(&cluster))
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
    // (byte digest, record digest) per run.
    let recorded = [
        ("ycsb no-switch no-wait", (3135877737847000704, 15442751317314299248)),
        ("ycsb no-switch wait-die", (619982367432061426, 6228045957330912152)),
        ("smallbank p4db", (646034544560698053, 3917856821762421423)),
        ("tpcc p4db", (6323496073844993490, 1612873746817200126)),
    ];
    let records = |runs: &[(&'static str, (u64, u64))]| runs.iter().map(|&(run, (_, r))| (run, r)).collect::<Vec<_>>();
    assert_eq!(records(&digests), records(&recorded), "the records logged by a fixed serial run changed");
    assert_eq!(digests, recorded, "the WAL bytes of a fixed serial run changed");
}
