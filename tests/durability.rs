//! Durability suite: fuzzy checkpoints racing live traffic,
//! crash-during-checkpoint fallback, and node restarts from genesis and from
//! a checkpoint — every restart decoding the WALs from their segment bytes.
//!
//! Every scenario must end with a clean invariant verdict and the crashed
//! node recovered; in the torn-checkpoint drill, recovery must also have
//! fallen back to the previous complete generation. The `smoke_recovery_*`
//! tests are the fixed-seed fast subset that `ci.sh` runs as its recovery
//! gate.

use p4db::chaos::{check, run_chaos, seeds, ChaosOptions, ChaosReport, ChaosWorkload, SemanticChecks};
use p4db::common::stats::RunStats;
use p4db::common::NodeId;
use p4db::workloads::{SmallBank, SmallBankConfig, Workload, Ycsb, YcsbConfig, YcsbMix};
use p4db::{Cluster, Load, Stop};
use std::sync::Arc;
use std::time::Duration;

/// Drives `n` transactions per session of the 2x2 test-profile cluster and
/// checks that every one settled, at fewer than 3 attempts per commit.
fn drive_n(cluster: &Cluster, n: usize) -> RunStats {
    let stats = cluster.drive(Load::new(Stop::Txns(n))).expect("drive failed");
    assert_eq!(stats.merged.committed_total() + stats.failed, 4 * n as u64, "every transaction settles");
    assert!(stats.attempts_per_commit() < 3.0, "{:.2} attempts per commit", stats.attempts_per_commit());
    stats
}

/// Seeds per workload for the sweep (faults enabled).
const SWEEP_SEEDS: std::ops::Range<u64> = 1..13;

/// One durability scenario: node crash with fuzzy checkpointing racing the
/// traffic waves; every third seed additionally tears the newest checkpoint
/// generation mid-write (the crash-during-checkpoint drill).
fn durability_options(workload: ChaosWorkload, seed: u64) -> ChaosOptions {
    let mut options = ChaosOptions::new(workload, seed);
    // Single-partition traffic: node recovery is unambiguous.
    options.distributed_prob = 0.0;
    options.crash_node = Some(NodeId(0));
    options.checkpoint_interval = Some(40);
    options.torn_checkpoint = seed.is_multiple_of(3);
    options
}

/// Clean, non-empty, and the scheduled node crash really happened.
fn assert_clean(report: &ChaosReport) {
    assert!(report.is_clean(), "{}", report.failure_summary());
    assert!(report.committed > 0, "seed {} committed nothing", report.seed);
    assert!(report.node_recovery.is_some(), "seed {}: the node was not recovered", report.seed);
}

/// Torn-checkpoint drill: recovery used the expected complete generation,
/// skipping the torn one.
fn fell_back(report: &ChaosReport) -> bool {
    report.expected_checkpoint.is_some()
        && report.node_recovery.as_ref().is_some_and(|r| r.from_checkpoint == report.expected_checkpoint)
}

fn sweep(workload: ChaosWorkload) {
    for seed in seeds(SWEEP_SEEDS) {
        let report = run_chaos(&durability_options(workload, seed)).expect("durability run failed");
        assert_clean(&report);
        if seed.is_multiple_of(3) {
            assert!(
                fell_back(&report),
                "seed {seed}: torn-checkpoint drill did not fall back: {}",
                report.failure_summary()
            );
        }
    }
}

#[test]
fn durability_sweep_ycsb() {
    sweep(ChaosWorkload::Ycsb);
}

#[test]
fn durability_sweep_smallbank() {
    sweep(ChaosWorkload::SmallBank);
}

#[test]
fn durability_sweep_tpcc() {
    sweep(ChaosWorkload::Tpcc);
}

// --- Fixed-seed smoke subset (the ci.sh recovery gate) ---------------------

fn smallbank_semantics() -> SemanticChecks {
    SemanticChecks::SmallBank {
        initial_balance: p4db::workloads::smallbank::INITIAL_BALANCE,
        max_amount: SmallBankConfig::default().max_amount,
    }
}

/// The recovery gate: on the same cluster, a genesis-replay restart and a
/// checkpoint+tail restart must both reconstruct the live state exactly, and
/// `p4db::chaos::invariants::check` must return the same (clean) verdict
/// after each — including its checkpoint+tail durability sub-check once a
/// complete generation exists.
#[test]
fn smoke_recovery_checkpoint_tail_matches_genesis_verdict() {
    let workload: Arc<dyn Workload> =
        Arc::new(SmallBank::new(SmallBankConfig { customers_per_node: 2_000, ..SmallBankConfig::default() }));
    let cluster = Cluster::builder(workload).test_profile().distributed_prob(0.0).wal_segment_records(64).build();
    drive_n(&cluster, 100);
    assert!(cluster.quiesce_switch(Duration::from_secs(5)));

    // Genesis-replay restart: no checkpoint exists yet.
    let genesis = cluster.crash_and_recover_node(NodeId(0)).unwrap();
    assert!(genesis.from_checkpoint.is_none(), "nothing to checkpoint from yet");
    assert_eq!(genesis.tail_records, genesis.wal_records, "genesis replay reads the whole log");
    assert!(genesis.divergences.is_empty(), "{:?}", genesis.divergences);
    assert_eq!(genesis.ambiguous, 0);
    let genesis_verdict = check(&cluster, smallbank_semantics());
    assert!(genesis_verdict.is_clean(), "{:?}", genesis_verdict.violations);
    assert_eq!(genesis_verdict.checkpointed_nodes, 0);

    // Checkpoint, run more traffic, then a checkpoint+tail restart.
    let generation = cluster.checkpoint_node(NodeId(0)).unwrap();
    drive_n(&cluster, 50);
    assert!(cluster.quiesce_switch(Duration::from_secs(5)));
    let ckpt = cluster.crash_and_recover_node(NodeId(0)).unwrap();
    assert_eq!(ckpt.from_checkpoint, Some(generation), "recovery must use the checkpoint");
    assert!(ckpt.checkpoint_rows > 0);
    assert!(ckpt.tail_records < ckpt.wal_records, "the tail must be a strict suffix");
    assert!(ckpt.divergences.is_empty(), "{:?}", ckpt.divergences);
    assert_eq!(ckpt.ambiguous, 0);
    assert!(ckpt.codec_error.is_none(), "{:?}", ckpt.codec_error);

    // Same verdict under the invariant checker, now with its checkpoint+tail
    // sub-check active.
    let ckpt_verdict = check(&cluster, smallbank_semantics());
    assert!(ckpt_verdict.is_clean(), "{:?}", ckpt_verdict.violations);
    assert_eq!(ckpt_verdict.is_clean(), genesis_verdict.is_clean(), "restart paths must agree");
    assert_eq!(ckpt_verdict.checkpointed_nodes, 1);
    assert!(ckpt_verdict.checkpoint_compared > 0, "the checkpoint sub-check must have compared rows");
}

/// A checkpointed restart after distributed traffic: tuples whose tail images
/// disagree across coordinators have no recoverable order, so recovery must
/// leave them at their live value — writing the checkpoint's stale row back
/// over them would diverge, which the genesis path has never done.
#[test]
fn smoke_recovery_checkpointed_restart_leaves_ambiguous_tuples_alone() {
    let workload: Arc<dyn Workload> =
        Arc::new(Ycsb::new(YcsbConfig { keys_per_node: 2_000, ..YcsbConfig::new(YcsbMix::A) }));
    let cluster = Cluster::builder(workload).test_profile().distributed_prob(0.5).build();
    drive_n(&cluster, 100);
    assert!(cluster.quiesce_switch(Duration::from_secs(5)));
    let generation = cluster.checkpoint_node(NodeId(0)).unwrap();
    drive_n(&cluster, 100);
    assert!(cluster.quiesce_switch(Duration::from_secs(5)));
    let report = cluster.crash_and_recover_node(NodeId(0)).unwrap();
    assert_eq!(report.from_checkpoint, Some(generation), "recovery must use the checkpoint");
    assert!(report.ambiguous > 0, "distributed traffic must leave ambiguous tuples, or this test is vacuous");
    assert!(
        report.divergences.is_empty(),
        "{} divergences over {} ambiguous tuples: {:?}",
        report.divergences.len(),
        report.ambiguous,
        &report.divergences[..report.divergences.len().min(5)]
    );
}

/// Fast fixed-seed crash-during-checkpoint smoke: the newest generation is
/// torn mid-write, recovery falls back to the previous complete one, and the
/// invariants stay green.
#[test]
fn smoke_recovery_torn_checkpoint_falls_back() {
    for seed in seeds([7]) {
        let mut options = ChaosOptions::new(ChaosWorkload::SmallBank, seed);
        options.distributed_prob = 0.0;
        options.txns_per_wave = 80;
        options.crash_node = Some(NodeId(0));
        options.checkpoint_interval = Some(40);
        options.torn_checkpoint = true;
        let report = run_chaos(&options).unwrap();
        assert_clean(&report);
        let recovery = report.node_recovery.as_ref().expect("node crash must have happened");
        assert!(recovery.from_checkpoint.is_some());
        assert_eq!(recovery.from_checkpoint, report.expected_checkpoint, "{}", report.failure_summary());
    }
}

/// Nodes with a complete checkpoint at the end of the seed-9 smoke: the
/// checkpointer covers both nodes of the 2-node cluster. Recorded when the
/// text and binary WAL codecs both read 2 on every run.
const CHECKPOINTED_NODES: usize = 2;

/// Fast fixed-seed smoke of the sweep's scenario: fuzzy checkpoints race the
/// traffic, the node crashes, and the run ends clean with every node's
/// checkpoint+tail reconstruction checked.
#[test]
fn smoke_recovery_fuzzy_checkpoint_crash_is_clean() {
    for seed in seeds([9]) {
        let report = run_chaos(&durability_options(ChaosWorkload::SmallBank, seed)).unwrap();
        assert_clean(&report);
        assert_eq!(report.invariants.checkpointed_nodes, CHECKPOINTED_NODES, "{}", report.failure_summary());
    }
}
