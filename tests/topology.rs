//! Differential topology suite: the multi-switch refactor must not change
//! the behaviour of the default single-switch topology, and multi-switch
//! clusters must reach the same invariant verdicts on the same seeded
//! traffic.
//!
//! `switches = 1` (the builder default) is byte-compatible with the
//! pre-refactor engine: one switch endpoint, one engine thread, the whole
//! hot set offloaded to switch 0 and the partition→switch assignment pass
//! degenerating to a single bucket (its shuffle seed XORs with the switch id,
//! which is 0). So every `switches=1` arm below reproduces the historical
//! behaviour the chaos suite was green on; the `switches=2` arm runs the
//! same seed with the hot set partitioned across two switch pipelines,
//! single-switch hot transactions routed to their owning switch and
//! cross-switch ones demoted to the host-coordinated fallback path.

use p4db::chaos::{run_chaos, seeds, ChaosOptions, ChaosReport, ChaosWorkload};

/// Seeds per workload for the differential sweep (12 seeds, matching the
/// chaos suite's faulty sweep and the batching differential suite).
const SEEDS: std::ops::Range<u64> = 1..13;

/// Runs one seeded scenario at a given switch count: one traffic wave, no
/// faults (the faulty multi-switch arm lives in the chaos suite), full
/// invariant checking.
fn run(workload: ChaosWorkload, seed: u64, switches: u16) -> ChaosReport {
    let mut options = ChaosOptions::new(workload, seed);
    options.switches = switches;
    options.waves = 1;
    options.txns_per_wave = 60;
    options.faults = None;
    run_chaos(&options).expect("chaos run failed to execute")
}

/// The differential assertion: both topologies of a seed must reach the
/// *same* invariant verdict — and since `switches=1` is the known-good
/// pre-refactor engine, that verdict must be clean.
fn assert_equivalent(workload: ChaosWorkload, seed: u64, one: &ChaosReport, multi: &ChaosReport, switches: u16) {
    assert_eq!(
        one.invariants.is_clean(),
        multi.invariants.is_clean(),
        "{workload:?} seed {seed}: verdicts diverge between switches=1 and switches={switches}\n1-switch: \
         {:?}\nmulti: {}",
        one.invariants.violations,
        multi.failure_summary(),
    );
    assert!(one.invariants.is_clean(), "{workload:?} seed {seed} switches=1: {}", one.failure_summary());
    assert!(multi.invariants.is_clean(), "{workload:?} seed {seed} switches={switches}: {}", multi.failure_summary());
    assert!(one.committed > 0 && multi.committed > 0, "{workload:?} seed {seed}: empty run");
    // Same closed-loop drivers, same seed, no faults: every generated
    // transaction terminates as committed or aborted in both topologies —
    // partitioning the hot set must not lose or invent work.
    assert_eq!(
        one.committed + one.aborted,
        multi.committed + multi.aborted,
        "{workload:?} seed {seed}: attempted-transaction counts diverge between topologies"
    );
}

fn differential_sweep(workload: ChaosWorkload) {
    for seed in seeds(SEEDS) {
        let one = run(workload, seed, 1);
        let two = run(workload, seed, 2);
        assert_equivalent(workload, seed, &one, &two, 2);
    }
}

#[test]
fn topology_differential_ycsb() {
    differential_sweep(ChaosWorkload::Ycsb);
}

#[test]
fn topology_differential_smallbank() {
    differential_sweep(ChaosWorkload::SmallBank);
}

#[test]
fn topology_differential_tpcc() {
    differential_sweep(ChaosWorkload::Tpcc);
}

/// Spot check beyond two switches: a 4-switch topology still reaches clean
/// verdicts on a few seeds of each workload.
#[test]
fn topology_four_switches_is_clean() {
    for workload in [ChaosWorkload::Ycsb, ChaosWorkload::SmallBank, ChaosWorkload::Tpcc] {
        for seed in seeds(1..4) {
            let report = run(workload, seed, 4);
            assert!(report.invariants.is_clean(), "{workload:?} seed {seed} switches=4: {}", report.failure_summary());
            assert!(report.committed > 0, "{workload:?} seed {seed} switches=4 committed nothing");
        }
    }
}
