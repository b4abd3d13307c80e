//! Differential batching suite: the batched hot paths (fabric frames, switch
//! quantum execution, WAL group commit, executor pipelining) must be
//! *invariant-equivalent* to the unbatched ones — same serializability,
//! exactly-once and conservation verdicts from `p4db_chaos::invariants::check`
//! for the same seeded workload — and whole-frame faults (a dropped or
//! reordered reply frame loses/reorders every transaction it carries) must
//! never double-apply intents.
//!
//! `batch_size = 1` reproduces the pre-batching engine exactly, so every
//! `batch=1` arm below is the historical behaviour; the batched arm runs the
//! same seed at batch 4/16/64, with as many requests in flight per driver —
//! an executor batches its share of what is *queued*, so a closed loop of
//! one request per driver would leave the batched paths unexercised.

use p4db::chaos::{run_chaos, ChaosOptions, ChaosReport, ChaosWorkload, SemanticChecks, Violation};
use p4db::workloads::{SmallBank, SmallBankConfig, Workload};
use p4db::{Cluster, NodeId, TupleId};
use std::sync::Arc;
use std::time::Duration;

/// Seeds per workload for the differential sweep (12 seeds, as many as the
/// chaos suite's faulty sweep).
const SEEDS: std::ops::Range<u64> = 1..13;

/// The batched arm's batch size cycles through {4, 16, 64} across seeds, so
/// the sweep covers every size at every workload.
fn batch_for(seed: u64) -> u16 {
    [4u16, 16, 64][(seed % 3) as usize]
}

/// Runs one seeded scenario at a given batch size: one traffic wave, no
/// faults (the fault arm has its own tests below), full invariant checking.
fn run(workload: ChaosWorkload, seed: u64, batch: u16) -> ChaosReport {
    let mut options = ChaosOptions::new(workload, seed);
    options.batch = batch;
    options.waves = 1;
    options.txns_per_wave = 60;
    options.faults = None;
    run_chaos(&options).expect("chaos run failed to execute")
}

/// The differential assertion: both arms of a seed must reach the *same*
/// invariant verdict — and since batch=1 is the known-good pre-batching
/// engine, that verdict must be clean.
fn assert_equivalent(workload: ChaosWorkload, seed: u64, unbatched: &ChaosReport, batched: &ChaosReport, batch: u16) {
    assert_eq!(
        unbatched.invariants.is_clean(),
        batched.invariants.is_clean(),
        "{workload:?} seed {seed}: verdicts diverge between batch=1 and batch={batch}\nunbatched: {:?}\nbatched: {}",
        unbatched.invariants.violations,
        batched.failure_summary(),
    );
    assert!(unbatched.invariants.is_clean(), "{workload:?} seed {seed} batch=1: {}", unbatched.failure_summary());
    assert!(batched.invariants.is_clean(), "{workload:?} seed {seed} batch={batch}: {}", batched.failure_summary());
    assert!(unbatched.committed > 0 && batched.committed > 0, "{workload:?} seed {seed}: empty run");
    // Same closed-loop drivers, same seed, no faults: both arms commit the
    // same number of transactions — batching must not lose or invent work.
    assert_eq!(
        unbatched.committed + unbatched.aborted,
        batched.committed + batched.aborted,
        "{workload:?} seed {seed}: attempted-transaction counts diverge"
    );
    // Anti-vacuity: a switch round trip costs two messages whether it
    // carries one transaction or a frame, so the unbatched arm pays exactly
    // two per switch transaction and the batched arm must have paid less —
    // at least one frame carried more than one transaction. (SmallBank is
    // ~90% all-hot and TPC-C's warm transactions share their share's frame;
    // YCSB's switch traffic is too thin to promise a shared frame on every
    // seed.)
    assert_eq!(unbatched.messages_to_switch, 2 * unbatched.switch_txns_executed, "{workload:?} seed {seed} batch=1");
    if workload != ChaosWorkload::Ycsb {
        assert!(
            batched.messages_to_switch < 2 * batched.switch_txns_executed,
            "{workload:?} seed {seed} batch={batch}: {} switch transactions in {} messages, no frame was shared",
            batched.switch_txns_executed,
            batched.messages_to_switch
        );
    }
}

fn differential_sweep(workload: ChaosWorkload) {
    for seed in SEEDS {
        let batch = batch_for(seed);
        let unbatched = run(workload, seed, 1);
        let batched = run(workload, seed, batch);
        assert_equivalent(workload, seed, &unbatched, &batched, batch);
    }
}

#[test]
fn differential_sweep_ycsb() {
    differential_sweep(ChaosWorkload::Ycsb);
}

#[test]
fn differential_sweep_smallbank() {
    differential_sweep(ChaosWorkload::SmallBank);
}

#[test]
fn differential_sweep_tpcc() {
    differential_sweep(ChaosWorkload::Tpcc);
}

/// Faults enabled at batch_size=16: drops, delays and reorders now hit whole
/// frames (an entire reply frame can vanish, putting every transaction it
/// carried in doubt), and the exactly-once/serializability/conservation
/// invariants must still hold — lost frames degrade, never double-apply.
#[test]
fn batched_chaos_with_faults_never_double_applies() {
    for workload in [ChaosWorkload::Ycsb, ChaosWorkload::SmallBank, ChaosWorkload::Tpcc] {
        for seed in 1..5 {
            let mut options = ChaosOptions::new(workload, seed);
            options.batch = 16;
            let report = run_chaos(&options).expect("chaos run failed to execute");
            assert!(report.is_clean(), "{}", report.failure_summary());
            assert!(report.committed > 0, "{workload:?} seed {seed} committed nothing");
            assert!(report.faults_injected > 0, "{workload:?} seed {seed}: the seeded plan should have fired");
        }
    }
}

/// The repro line of a batched scenario round-trips the batch size, so a
/// failing differential seed is reproducible with one command.
#[test]
fn batched_repro_env_names_the_batch_size() {
    let mut options = ChaosOptions::new(ChaosWorkload::SmallBank, 3);
    options.batch = 64;
    assert!(options.repro_env().contains("CHAOS_BATCH=64"), "{}", options.repro_env());
}

/// Negative control under batching: a deliberately re-transmitted intent
/// must still be caught by the exactly-once checker when the switch executes
/// and replies in frames — batching must not hide double-applies from the
/// audit log.
#[test]
fn double_apply_is_still_caught_at_batch_16() {
    let workload: Arc<dyn Workload> =
        Arc::new(SmallBank::new(SmallBankConfig { customers_per_node: 2_000, ..SmallBankConfig::default() }));
    let cluster = Cluster::builder(workload).test_profile().batch_size(16).build();

    let mut session = cluster.session(NodeId(0)).unwrap();
    let hot = TupleId::new(p4db::workloads::smallbank::CHECKING, 1);
    for i in 0..5 {
        let outcome = session.execute(&p4db::txn::Txn::new().add(hot, 1 + i)).unwrap();
        assert!(outcome.gid.is_some());
    }
    assert!(cluster.quiesce_switch(Duration::from_secs(5)));
    let clean = p4db::chaos::check(&cluster, SemanticChecks::None);
    assert!(clean.is_clean(), "pre-injection state must be clean: {:?}", clean.violations);

    let txn = cluster.shared().nodes[0]
        .wal()
        .records()
        .iter()
        .rev()
        .find_map(|r| match r {
            p4db::storage::LogRecord::SwitchIntent { txn, .. } => Some(*txn),
            _ => None,
        })
        .expect("hot transactions must have logged intents");
    p4db::chaos::resend_logged_intent(&cluster, txn).unwrap();
    assert!(cluster.quiesce_switch(Duration::from_secs(5)));

    let report = p4db::chaos::check(&cluster, SemanticChecks::None);
    assert!(
        report.violations.iter().any(|v| matches!(v, Violation::DoubleExecution { times: 2, .. })),
        "expected a DoubleExecution violation under batching, got {:?}",
        report.violations
    );
}
