//! Chaos suite: seeded fault-injection sweeps with cluster-wide invariant
//! checking (see `p4db::chaos`).
//!
//! Each run drives one workload through waves of generated transactions
//! while the fabric drops, delays and reorders messages from a seeded plan;
//! afterwards the committed history (node WALs + the switch's data-plane
//! audit log) is replayed against a shadow store and checked for
//! serializability equivalence, exactly-once switch-intent application, cold
//! durability and workload-level conservation. Every test draws its seeds
//! through `p4db::chaos::seeds`, so a failure's repro line
//! (`CHAOS_SEED=<s> cargo test --offline --test chaos <test> -- --exact`)
//! reruns that one test at that one seed.
//!
//! The `smoke_*` tests are the fixed-seed fast subset that `ci.sh` runs as
//! its chaos gate.

use p4db::chaos::{
    resend_logged_intent, run_chaos, seeds, ChaosOptions, ChaosReport, ChaosWorkload, SemanticChecks, Violation,
};
use p4db::common::NodeId;
use p4db::workloads::{SmallBank, SmallBankConfig, Workload};
use p4db::{Cluster, TupleId};
use std::sync::Arc;
use std::time::Duration;

/// Seeds per workload for the faulty sweep: 3 × 11 = 33 distinct seeded
/// scenarios with faults enabled.
const SWEEP_SEEDS: std::ops::Range<u64> = 1..12;

/// Prints one line per scenario (`ci.sh` counts them under `CHAOS_SEED`)
/// and asserts the run clean and non-empty.
fn assert_clean(report: &ChaosReport) {
    println!(
        "chaos scenario: {} seed {}: {} committed, {} aborted, {} in doubt, {} faults injected, {} violations",
        report.workload,
        report.seed,
        report.committed,
        report.aborted,
        report.in_doubt,
        report.faults_injected,
        report.invariants.violations.len()
    );
    assert!(report.is_clean(), "{}", report.failure_summary());
    assert!(report.committed > 0, "seed {} committed nothing", report.seed);
}

fn sweep(workload: ChaosWorkload) {
    for seed in seeds(SWEEP_SEEDS) {
        let report = run_chaos(&ChaosOptions::new(workload, seed)).expect("chaos run failed to execute");
        assert_clean(&report);
    }
}

#[test]
fn chaos_sweep_ycsb_with_faults() {
    sweep(ChaosWorkload::Ycsb);
}

#[test]
fn chaos_sweep_smallbank_with_faults() {
    sweep(ChaosWorkload::SmallBank);
}

#[test]
fn chaos_sweep_tpcc_with_faults() {
    sweep(ChaosWorkload::Tpcc);
}

#[test]
fn chaos_control_arm_without_faults_is_silent() {
    for workload in [ChaosWorkload::Ycsb, ChaosWorkload::SmallBank, ChaosWorkload::Tpcc] {
        for seed in seeds(1..3) {
            let report = run_chaos(&ChaosOptions::new(workload, seed).faults_off()).unwrap();
            assert_clean(&report);
            assert!(report.fault_events.is_empty(), "no faults were configured");
            assert_eq!(report.in_doubt, 0, "without faults nothing can be in doubt");
        }
    }
}

#[test]
fn chaos_node_crash_with_wal_restart() {
    for workload in [ChaosWorkload::SmallBank, ChaosWorkload::Ycsb] {
        for seed in seeds(1..4) {
            let mut options = ChaosOptions::new(workload, seed);
            // Single-partition traffic: node recovery is unambiguous.
            options.distributed_prob = 0.0;
            options.crash_node = Some(NodeId(0));
            let report = run_chaos(&options).unwrap();
            assert_clean(&report);
            let recovery = report.node_recovery.as_ref().expect("node crash must have happened");
            assert!(recovery.restored_tuples > 0, "seed {seed}: recovery restored nothing");
        }
    }
}

#[test]
fn chaos_switch_crash_with_recovery() {
    for seed in seeds(1..4) {
        let mut options = ChaosOptions::new(ChaosWorkload::SmallBank, seed);
        options.crash_switch = true;
        let report = run_chaos(&options).unwrap();
        assert_clean(&report);
        let [recovery] = &report.switch_recovery[..] else {
            panic!("seed {seed}: one switch crash must have happened")
        };
        assert!(!recovery.reoffloaded);
        assert!(recovery.restored_tuples > 0);
    }
}

#[test]
fn chaos_switch_crash_with_reoffload() {
    let smallbank = seeds([5, 6]).into_iter().map(|seed| (ChaosWorkload::SmallBank, seed));
    for (workload, seed) in smallbank.chain(seeds([5]).into_iter().map(|seed| (ChaosWorkload::Tpcc, seed))) {
        let mut options = ChaosOptions::new(workload, seed);
        options.crash_switch = true;
        options.reoffload = true;
        let report = run_chaos(&options).unwrap();
        assert_clean(&report);
        let [recovery] = &report.switch_recovery[..] else {
            panic!("seed {seed}: one switch crash must have happened")
        };
        assert!(recovery.reoffloaded);
    }
}

/// Two-switch topology under message faults: drops, delays and reorders now
/// hit two independent switch endpoints, and the per-switch invariant
/// checking (each switch's epoch log filtered to the tuples it owns) must
/// stay clean — including for cross-switch transactions whose intents appear
/// in more than one switch's view.
#[test]
fn chaos_two_switch_sweep_with_faults() {
    for workload in [ChaosWorkload::SmallBank, ChaosWorkload::Ycsb] {
        for seed in seeds(1..6) {
            let mut options = ChaosOptions::new(workload, seed);
            options.switches = 2;
            let report = run_chaos(&options).unwrap();
            assert_clean(&report);
        }
    }
}

/// Two-switch crash drill: `crash_switch` crashes and recovers *each* switch
/// independently (per-switch epoch, per-switch WAL suffix replay filtered to
/// owned tuples): each switch's recovery report and invariant checks must
/// come back clean, and each switch must restore its own tuples.
#[test]
fn chaos_two_switch_crash_with_recovery() {
    for seed in seeds(1..4) {
        let mut options = ChaosOptions::new(ChaosWorkload::SmallBank, seed);
        options.switches = 2;
        options.crash_switch = true;
        let report = run_chaos(&options).unwrap();
        assert_clean(&report);
        assert_eq!(report.switch_recovery.len(), 2, "seed {seed}: both switches must have crashed");
        for (s, recovery) in report.switch_recovery.iter().enumerate() {
            assert!(!recovery.reoffloaded);
            assert!(recovery.restored_tuples > 0, "seed {seed}: switch{s} restored nothing");
        }
    }
}

#[test]
fn chaos_lm_switch_mode_survives_message_faults() {
    for seed in seeds([9]) {
        let mut options = ChaosOptions::new(ChaosWorkload::Ycsb, seed);
        options.mode = p4db::SystemMode::LmSwitch;
        // Lost lock grants leak switch-side locks (a liveness degradation,
        // not a safety violation); keep the retry budget small so the run
        // terminates.
        options.max_attempts = 5;
        let report = run_chaos(&options).unwrap();
        assert_clean(&report);
    }
}

/// The negative test: a deliberately re-transmitted (double-applied) switch
/// intent must be caught by the exactly-once checker.
#[test]
fn double_apply_is_caught_by_the_checker() {
    let workload: Arc<dyn Workload> =
        Arc::new(SmallBank::new(SmallBankConfig { customers_per_node: 2_000, ..SmallBankConfig::default() }));
    let cluster = Cluster::builder(workload).test_profile().build();

    // Commit a few hot transactions so intents + results are logged.
    let mut session = cluster.session(NodeId(0)).unwrap();
    let hot = TupleId::new(p4db::workloads::smallbank::CHECKING, 1);
    let mut victim = None;
    for i in 0..5 {
        let outcome = session.execute(&p4db::txn::Txn::new().add(hot, 1 + i)).unwrap();
        assert!(outcome.gid.is_some());
        victim = Some(outcome);
    }
    assert!(cluster.quiesce_switch(Duration::from_secs(5)));
    let clean = p4db::chaos::check(&cluster, SemanticChecks::None);
    assert!(clean.is_clean(), "pre-injection state must be clean: {:?}", clean.violations);

    // Find the victim's TxnId in the WAL (the last logged intent).
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
    let _ = victim;

    // The "retransmission bug": the same intent executes a second time.
    resend_logged_intent(&cluster, txn).unwrap();
    assert!(cluster.quiesce_switch(Duration::from_secs(5)));

    let report = p4db::chaos::check(&cluster, SemanticChecks::None);
    assert!(!report.is_clean(), "the checker must catch a double-apply");
    assert!(
        report.violations.iter().any(|v| matches!(v, Violation::DoubleExecution { times: 2, .. })),
        "expected a DoubleExecution violation, got {:?}",
        report.violations
    );
    assert!(
        report.violations.iter().any(|v| matches!(v, Violation::SwitchDivergence { .. })),
        "the double-applied delta must surface as a register divergence, got {:?}",
        report.violations
    );
}

// --- Fixed-seed smoke subset (the ci.sh chaos gate) -----------------------

/// One fast fixed-seed faulty run per workload: exercises drop/delay/reorder,
/// the in-doubt commit path and the full invariant checker on every PR.
#[test]
fn smoke_fixed_seed_fault_paths() {
    for workload in [ChaosWorkload::Ycsb, ChaosWorkload::SmallBank, ChaosWorkload::Tpcc] {
        for seed in seeds([7]) {
            let mut options = ChaosOptions::new(workload, seed);
            options.waves = 1;
            options.txns_per_wave = 80;
            let report = run_chaos(&options).unwrap();
            assert_clean(&report);
        }
    }
}

/// Fast fixed-seed crash smoke: node crash + switch crash with re-offload.
#[test]
fn smoke_fixed_seed_crash_paths() {
    for seed in seeds([7]) {
        let mut options = ChaosOptions::new(ChaosWorkload::SmallBank, seed);
        options.distributed_prob = 0.0;
        options.txns_per_wave = 80;
        options.crash_node = Some(NodeId(1));
        options.crash_switch = true;
        options.reoffload = true;
        let report = run_chaos(&options).unwrap();
        assert_clean(&report);
        assert!(report.node_recovery.is_some());
        assert_eq!(report.switch_recovery.len(), 1);
    }
}

/// Fast fixed-seed two-switch gate: independent per-switch crash/recovery
/// with re-offload on a partitioned hot set, with faults enabled, must
/// report zero invariant violations — the acceptance scenario of the
/// multi-switch topology work.
#[test]
fn smoke_two_switch_crash_recovery() {
    for seed in seeds([7]) {
        let mut options = ChaosOptions::new(ChaosWorkload::SmallBank, seed);
        options.switches = 2;
        options.txns_per_wave = 80;
        options.crash_switch = true;
        options.reoffload = true;
        let report = run_chaos(&options).unwrap();
        assert_clean(&report);
        assert_eq!(report.switch_recovery.len(), 2, "both switches must have crashed");
        for (s, recovery) in report.switch_recovery.iter().enumerate() {
            assert!(recovery.reoffloaded, "switch{s} was not re-offloaded");
            assert!(recovery.restored_tuples > 0, "switch{s} restored nothing");
        }
    }
}

/// The self-healing acceptance drill: a switch is blackholed mid-run (it
/// silently swallows every packet) and **no manual recovery is ever
/// called** — the circuit breaker must trip, the supervisor must stand up
/// degraded mode (hot traffic demoted to the host 2PL path), heartbeat
/// probes must walk the breaker back through half-open once the outage
/// clears, the in-doubt resolver must settle every parked entry, and the
/// switch must be re-admitted — all while every wave keeps committing.
#[test]
fn smoke_switch_outage_liveness() {
    for seed in seeds([7]) {
        let mut options = ChaosOptions::new(ChaosWorkload::SmallBank, seed);
        options.waves = 3;
        options.supervised = true;
        // Blackhole only — no probabilistic message faults — so the drill is
        // the pure outage→floor→recovery story: activates after 60 requests
        // ("mid-run"), heals itself after swallowing 40 messages (a
        // transient outage: the probes themselves burn it down).
        let mut plan = p4db::common::faults::FaultPlan::quiet(seed);
        plan.blackhole =
            Some(p4db::common::faults::BlackholeFault { switch: 0, after_messages: 60, heal_after_drops: 40 });
        options.faults = Some(plan);

        let report = run_chaos(&options).unwrap();
        assert_clean(&report);

        // Liveness: committed throughput never hits zero in any wave, outage
        // or not — the breaker's degraded floor, not a stall.
        assert_eq!(report.wave_committed.len(), 3);
        for (wave, &c) in report.wave_committed.iter().enumerate() {
            assert!(c > 0, "wave {wave} committed nothing during the outage: {report:?}");
        }

        let sup = report.supervisor.as_ref().expect("supervised run must carry a supervisor report");
        assert!(sup.trips_seen >= 1, "the blackhole must trip the breaker: {sup:?}");
        assert!(sup.degraded.contains(&p4db::SwitchId(0)), "switch 0 must have been degraded: {sup:?}");
        assert!(sup.recovered.contains(&p4db::SwitchId(0)), "switch 0 must have been re-admitted: {sup:?}");
        assert!(sup.probes_answered > 0, "recovery must come from answered probes: {sup:?}");
        assert!(!sup.deadline_forced, "recovery must not need the deadline escape hatch: {sup:?}");

        // The swallowed replies became in-doubt commits, all of them settled.
        assert!(report.in_doubt > 0, "a blackholed switch must strand in-doubt commits");
        assert!(report.in_doubt_per_switch[0] > 0);
        let resolved = report.invariants.resolved_committed + report.invariants.resolved_retried;
        assert!(resolved > 0, "the resolver must have settled the parked entries: {:?}", report.invariants);
        assert_eq!(report.invariants.unresolved, 0, "no entry may stay unresolved: {:?}", report.invariants);
    }
}

/// A report's repro line reruns the test that ran the scenario, at its seed:
/// `CHAOS_SEED` pins the seed, and the test binary and this test's own name
/// pick the scenario, so every option and every arm is replayed.
#[test]
fn smoke_failure_report_names_its_test_and_seed() {
    for seed in seeds([77]) {
        let mut options = ChaosOptions::new(ChaosWorkload::Ycsb, seed);
        options.waves = 1;
        options.txns_per_wave = 40;
        let report = run_chaos(&options).unwrap();
        assert_clean(&report);
        for fragment in [
            format!("CHAOS_SEED={seed} "),
            "--test chaos ".to_string(),
            " smoke_failure_report_names_its_test_and_seed ".to_string(),
            "-- --exact".to_string(),
        ] {
            assert!(report.repro.contains(&fragment), "repro {:?} misses {fragment:?}", report.repro);
        }
        // failure_summary always renders, clean or not.
        assert!(report.failure_summary().contains(&format!("seed={seed}")));
    }
}

/// Off a test thread — an example's `main`, or a thread a test spawns — no
/// test can be named for a rerun, so the repro line is the seed alone.
#[test]
fn smoke_a_report_off_a_test_thread_names_only_its_seed() {
    for seed in seeds([78]) {
        let mut options = ChaosOptions::new(ChaosWorkload::Ycsb, seed);
        options.waves = 1;
        options.txns_per_wave = 20;
        let report = std::thread::spawn(move || run_chaos(&options).unwrap()).join().unwrap();
        assert_clean(&report);
        assert_eq!(report.repro, format!("seed {seed}"));
    }
}
