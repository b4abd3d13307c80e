//! Differential MVCC suite: the lock-free snapshot read path must be
//! *invariant-equivalent* to the locking engine — same serializability,
//! exactly-once and conservation verdicts from `p4db_chaos::invariants::check`
//! for the *same seeded schedule*, with and without message faults.
//!
//! Both arms of every seed draw identical transaction schedules (the
//! read-only conversion costs one rng draw in each arm); the only difference
//! is the `read_only` marker that routes eligible transactions onto the
//! snapshot path instead of 2PL + 2PC. The locking arm is the known-good
//! baseline, so both verdicts must also be clean.

use p4db::chaos::invariants::{self, SemanticChecks, Violation};
use p4db::chaos::{run_chaos, seeds, ChaosOptions, ChaosReport, ChaosWorkload};
use p4db::common::rand_util::FastRng;
use p4db::common::{SwitchId, Value};
use p4db::storage::{LogRecord, MvccState, Row, Table};
use p4db::workloads::{Workload, Ycsb, YcsbConfig, YcsbMix};
use p4db::{Cluster, NodeId, SystemMode, TableId, TupleId, Txn};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Seeds per workload for the differential sweep (12 seeds, matching the
/// sharding and chaos suites).
const SEEDS: std::ops::Range<u64> = 1..13;

fn t(key: u64) -> TupleId {
    TupleId::new(TableId(0), key)
}

/// Runs one seeded scenario on one arm: half of all generated transactions
/// are converted to all-reads in *both* arms; `snapshot_arm` additionally
/// marks them read-only so eligible ones take the lock-free snapshot path.
fn run(workload: ChaosWorkload, seed: u64, snapshot_arm: bool, faults: bool) -> ChaosReport {
    let mut options = ChaosOptions::new(workload, seed);
    if workload == ChaosWorkload::Tpcc {
        // In P4DB mode no TPC-C transaction is snapshot-eligible (NewOrder
        // carries inserts, Payment touches the offloaded warehouse row), so
        // the TPC-C sweep runs host-only — same arms, and the converted
        // Payments actually reach the snapshot path.
        options.mode = SystemMode::NoSwitch;
    }
    options.read_only_frac = 0.5;
    options.snapshot_arm = snapshot_arm;
    options.waves = 1;
    options.txns_per_wave = 60;
    if !faults {
        options.faults = None;
    }
    run_chaos(&options).expect("chaos run failed to execute")
}

/// The differential assertion: both arms of a seed must reach the *same*
/// invariant verdict — and since the locking arm is the known-good engine,
/// that verdict must be clean.
fn assert_equivalent(workload: ChaosWorkload, seed: u64, faults: bool, locking: &ChaosReport, snapshot: &ChaosReport) {
    assert_eq!(
        locking.invariants.is_clean(),
        snapshot.invariants.is_clean(),
        "{workload:?} seed {seed} faults={faults}: verdicts diverge between locking and snapshot arms\nlocking: \
         {:?}\nsnapshot: {}",
        locking.invariants.violations,
        snapshot.failure_summary(),
    );
    assert!(locking.invariants.is_clean(), "{workload:?} seed {seed} locking arm: {}", locking.failure_summary());
    assert!(snapshot.invariants.is_clean(), "{workload:?} seed {seed} snapshot arm: {}", snapshot.failure_summary());
    assert!(locking.committed > 0 && snapshot.committed > 0, "{workload:?} seed {seed}: empty run");
    assert_eq!(locking.snapshot_reads, 0, "{workload:?} seed {seed}: locking arm took the snapshot path");
    if !faults {
        // Same closed-loop drivers, same seed, no faults: both arms attempt
        // the same transactions — the snapshot path must not lose or invent
        // work.
        assert_eq!(
            locking.committed + locking.aborted,
            snapshot.committed + snapshot.aborted,
            "{workload:?} seed {seed}: attempted-transaction counts diverge"
        );
    }
}

fn differential_sweep(workload: ChaosWorkload) {
    let mut snapshot_reads = 0u64;
    let mut version_entries = 0usize;
    for seed in seeds(SEEDS) {
        let faults = seed % 3 == 0;
        let locking = run(workload, seed, false, faults);
        let snapshot = run(workload, seed, true, faults);
        assert_equivalent(workload, seed, faults, &locking, &snapshot);
        snapshot_reads += snapshot.snapshot_reads;
        version_entries += snapshot.invariants.version_entries_checked;
    }
    // Anti-vacuity: the sweep must actually have exercised the snapshot
    // path and the version-chain checker, or the equivalence is trivial.
    assert!(snapshot_reads > 0, "{workload:?}: no transaction ever took the snapshot path");
    assert!(version_entries > 0, "{workload:?}: the checker never verified a version-chain entry");
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

/// Snapshot traffic through full crash chaos: switch crash + WAL-driven
/// recovery (with and without re-offload) and a node crash/recovery, all
/// with half the schedule converted to snapshot reads. The verdict must
/// stay clean and the chains must actually be checked.
#[test]
fn snapshot_arm_survives_switch_and_node_recovery() {
    for seed in seeds([3, 10]) {
        let mut options = ChaosOptions::new(ChaosWorkload::SmallBank, seed);
        options.read_only_frac = 0.5;
        options.snapshot_arm = true;
        options.crash_switch = true;
        options.reoffload = seed % 2 == 0;
        options.crash_node = Some(NodeId(0));
        options.distributed_prob = 0.0;
        options.faults = None;
        options.waves = 2;
        options.txns_per_wave = 60;
        let report = run_chaos(&options).expect("chaos run failed to execute");
        assert!(report.is_clean(), "seed {seed}: {}", report.failure_summary());
        assert!(report.committed > 0, "seed {seed}: empty run");
        assert!(report.invariants.version_entries_checked > 0, "seed {seed}: no version chains verified");
    }
}

fn ycsb_cluster() -> Cluster {
    let workload: Arc<dyn Workload> =
        Arc::new(Ycsb::new(YcsbConfig { keys_per_node: 1_000, ..YcsbConfig::new(YcsbMix::A) }));
    Cluster::builder(workload).test_profile().build()
}

/// Live race: snapshot readers keep reading *during* repeated switch
/// crash/recovery cycles. The snapshot path never touches the switch (cold
/// tuples only), so it legitimately continues while the switch is down —
/// and must keep returning the committed values.
#[test]
fn snapshot_readers_race_switch_recovery() {
    let cluster = ycsb_cluster();
    let mut setup = cluster.session(NodeId(0)).expect("session");
    // Keys >= hot_keys_per_node (50) are cold: resident on the hosts, never
    // offloaded, visible to the snapshot path in P4DB mode.
    for k in 200..216u64 {
        setup.execute(&Txn::new().write(t(k), k * 10)).expect("seed write");
    }

    let stop = Arc::new(AtomicBool::new(false));
    let reads_done = Arc::new(AtomicU64::new(0));
    let readers: Vec<_> = (0..2)
        .map(|r| {
            let mut session = cluster.session(NodeId(r)).expect("session");
            let stop = Arc::clone(&stop);
            let reads_done = Arc::clone(&reads_done);
            std::thread::spawn(move || {
                let mut reads = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let txn = Txn::new().read(t(200)).read(t(207)).read(t(215));
                    let outcome = session.read_only(&txn).expect("snapshot read");
                    assert_eq!(outcome.results, vec![2_000, 2_070, 2_150]);
                    assert!(outcome.snapshot.is_some(), "read-only txn fell off the snapshot path");
                    reads += 1;
                    reads_done.fetch_add(1, Ordering::Relaxed);
                }
                reads
            })
        })
        .collect();

    // Don't let the recovery rounds win the scheduler race outright: on a
    // loaded single-core runner the main thread can finish all three rounds
    // before a reader thread ever runs. Wait for the readers to be live
    // first, so every round genuinely overlaps snapshot traffic.
    while reads_done.load(Ordering::Relaxed) == 0 {
        std::thread::yield_now();
    }

    for round in 0..3u64 {
        let report = cluster
            .crash_and_recover_switch_at(SwitchId(0), (round % 2 == 0).then_some(round + 7))
            .expect("switch recovery");
        assert!(report.unexplained_divergences.is_empty(), "round {round}: {:?}", report.unexplained_divergences);
    }

    stop.store(true, Ordering::Relaxed);
    let total: u64 = readers.into_iter().map(|h| h.join().expect("reader panicked")).sum();
    assert!(total > 0, "no snapshot read ever raced the recovery");
    let report = invariants::check(&cluster, SemanticChecks::None);
    assert!(report.is_clean(), "{:?}", report.violations);
}

/// The headline acceptance bar: read-only transactions acquire **zero**
/// locks. Every lock-table acquisition and wait counter across the cluster
/// must be byte-identical before and after a batch of snapshot reads.
#[test]
fn read_only_transactions_acquire_zero_locks() {
    let workload: Arc<dyn Workload> =
        Arc::new(Ycsb::new(YcsbConfig { keys_per_node: 1_000, ..YcsbConfig::new(YcsbMix::A) }));
    let cluster = Cluster::builder(workload).test_profile().mode(SystemMode::NoSwitch).build();
    let mut session = cluster.session(NodeId(0)).expect("session");
    // Warm-up writes (these do lock) on keys homed on both nodes.
    for k in [60u64, 61, 1_060, 1_061] {
        session.execute(&Txn::new().write(t(k), k + 1)).expect("seed write");
    }

    let acquisitions =
        |cluster: &Cluster| -> u64 { cluster.shared().nodes.iter().map(|n| n.locks().acquisition_count()).sum() };
    let waits =
        |cluster: &Cluster| -> u64 { cluster.shared().nodes.iter().map(|n| n.locks().wait_stats().waits).sum() };
    let before_acq = acquisitions(&cluster);
    let before_waits = waits(&cluster);
    assert!(before_acq > 0, "warm-up writes must have locked");

    let mut reader = cluster.session(NodeId(0)).expect("session");
    const N: u64 = 40;
    for _ in 0..N {
        let txn = Txn::new().read(t(60)).read(t(1_061));
        let outcome = reader.read_only(&txn).expect("snapshot read");
        assert_eq!(outcome.results, vec![61, 1_062]);
        assert!(outcome.snapshot.is_some(), "read-only txn fell back to the locking path");
    }

    assert_eq!(acquisitions(&cluster), before_acq, "a read-only transaction acquired a lock");
    assert_eq!(waits(&cluster), before_waits, "a read-only transaction waited on a lock");
    assert_eq!(reader.stats().snapshot_reads, N, "snapshot-path accounting lost transactions");
}

/// GC safety property, storage-level: with an active reader announced in a
/// snapshot slot, trimming at the low-watermark must never reclaim a
/// version that reader can still see — `read_at(snap)` always returns the
/// newest committed value at or below the snapshot, across 16 seeded
/// interleavings of commits, reads and collections.
#[test]
fn property_gc_never_reclaims_visible_versions() {
    for case in 0u64..16 {
        let mut rng = FastRng::new(0x06C0_FFEE ^ case);
        let mvcc = MvccState::new();
        let table = Table::with_shards(TableId(0), 4);
        table.bulk_load([(0u64, Value::scalar(0))]);
        let row = table.get(0).expect("loaded row");
        let slot = mvcc.snapshots.register();
        // (commit ts, value) history; ts 0 is the loaded base image.
        let mut history: Vec<(u64, u64)> = vec![(0, 0)];
        for step in 1..=200u64 {
            let ts = mvcc.clock.reserve();
            row.install_version(ts, step);
            mvcc.clock.publish(ts);
            history.push((ts, step));
            if rng.gen_range(4) == 0 {
                // Reader active while a collection runs underneath it.
                let snap = slot.begin(&mvcc.clock);
                let watermark = mvcc.low_watermark();
                assert!(watermark <= snap, "case {case} step {step}: watermark overtook an active snapshot");
                row.trim_versions_below(watermark);
                let expect = history.iter().rev().find(|&&(ts, _)| ts <= snap).expect("grounded history").1;
                assert_eq!(row.read_at(snap), Some(expect), "case {case} step {step}: trimmed a visible version");
                slot.end();
            } else {
                // Idle-reader collection: watermark rides the stable clock.
                row.trim_versions_below(mvcc.low_watermark());
            }
            let (entries, _) = row.version_chain();
            assert!(entries.len() <= history.len(), "case {case} step {step}: chain grew past history");
        }
    }
}

/// Reference model of the row layout: installs at the live watermark,
/// readers beginning and ending snapshots, and table-wide collections
/// interleave at random over loaded rows and one transaction-inserted row.
/// Every active snapshot must read the newest committed word at or below
/// it (tuple-not-found before the insert), and a chain holds the newest
/// version plus at most one spilled version per install made while a
/// snapshot older than the displaced version was active — one entry, and
/// no heap, as soon as an install finds no such snapshot.
#[test]
fn property_fold_at_install_matches_the_reference_model() {
    const ROWS: usize = 4;
    for case in 0u64..16 {
        let mut rng = FastRng::new(0xF01D_0000 ^ case);
        let mvcc = MvccState::new();
        let table = Table::with_shards(TableId(0), 4);
        table.bulk_load((0..ROWS as u64 - 1).map(|k| (k, Value::scalar(k))));
        table.insert_fresh(ROWS as u64 - 1, Value::scalar(0), p4db::common::TxnId(1));
        let rows: Vec<_> = (0..ROWS as u64).map(|k| table.get(k).expect("row exists")).collect();
        // Committed (ts, word) history per row; ts 0 is the loaded image.
        let mut history: Vec<Vec<(u64, u64)>> = (0..ROWS as u64 - 1).map(|k| vec![(0, k)]).collect();
        history.push(Vec::new());
        let mut spill_budget = [0usize; ROWS];
        let slots: Vec<_> = (0..3).map(|_| mvcc.snapshots.register()).collect();
        for step in 1..=400u64 {
            match rng.gen_range(8) {
                0 => {
                    let slot = &slots[rng.pick(slots.len())];
                    match slot.active() {
                        Some(_) => slot.end(),
                        None => _ = slot.begin(&mvcc.clock),
                    }
                }
                1 => _ = table.collect_versions(mvcc.low_watermark()),
                _ => {
                    let r = rng.pick(ROWS);
                    let ts = mvcc.clock.reserve();
                    let watermark = mvcc.low_watermark();
                    let displaced = history[r].last().map(|&(ts, _)| ts);
                    let older_snapshot_active =
                        slots.iter().filter_map(|s| s.active()).any(|snap| displaced.is_some_and(|d| snap < d));
                    rows[r].install_version_folding(ts, step, watermark);
                    mvcc.clock.publish(ts);
                    history[r].push((ts, step));
                    spill_budget[r] = if older_snapshot_active { spill_budget[r] + 1 } else { 0 };
                }
            }
            for (r, row) in rows.iter().enumerate() {
                for snap in slots.iter().filter_map(|s| s.active()) {
                    let expect = history[r].iter().rev().find(|&&(ts, _)| ts <= snap).map(|&(_, word)| word);
                    assert_eq!(row.read_at(snap), expect, "case {case} step {step} row {r}: wrong read at {snap}");
                }
                assert!(
                    row.version_count() <= 1 + spill_budget[r],
                    "case {case} step {step} row {r}: {} versions retained, budget {}",
                    row.version_count(),
                    spill_budget[r]
                );
            }
        }
    }
}

/// `Row` is most of a loaded table's memory (1M rows on `ycsb_cold`): lock
/// word, value word and version chain fit in 72 B. The value is one word,
/// and a cold write logs two of them, so a `LogRecord` fits in 64 B. (A
/// 16-word value behind its own latch made these 216 B, 136 B and 304 B.)
#[test]
fn a_row_stays_within_its_size_budget() {
    let size = std::mem::size_of::<Row>();
    assert!(size <= 72, "size_of::<Row>() = {size} B, budget 72 B");
    assert_eq!(std::mem::size_of::<Value>(), 8, "a value is one word");
    let record = std::mem::size_of::<LogRecord>();
    assert!(record <= 64, "size_of::<LogRecord>() = {record} B, budget 64 B");
}

/// GC safety under real concurrency: one writer commits increments while
/// readers snapshot-read the same tuple and a collector thread sweeps
/// version chains. Each reader's observed values must be non-decreasing —
/// an over-eager trim would surface as a travel back in time to an older
/// version (or the stale base image).
#[test]
fn concurrent_snapshot_readers_observe_monotonic_values() {
    let workload: Arc<dyn Workload> =
        Arc::new(Ycsb::new(YcsbConfig { keys_per_node: 1_000, ..YcsbConfig::new(YcsbMix::A) }));
    // Every commit folds the version it displaces against the watermark the
    // readers hold down, so commit-time reclamation is constantly active.
    let cluster = Arc::new(Cluster::builder(workload).test_profile().mode(SystemMode::NoSwitch).build());
    let mut writer = cluster.session(NodeId(0)).expect("session");
    writer.execute(&Txn::new().write(t(300), 0)).expect("seed write");

    let done = Arc::new(AtomicBool::new(false));
    let collector = {
        let cluster = Arc::clone(&cluster);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let mut reclaimed = 0usize;
            while !done.load(Ordering::Relaxed) {
                reclaimed += cluster.collect_versions();
                std::thread::yield_now();
            }
            reclaimed
        })
    };
    let readers: Vec<_> = (0..2)
        .map(|_| {
            let mut session = cluster.session(NodeId(0)).expect("session");
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut last = 0u64;
                let mut reads = 0u64;
                while !done.load(Ordering::Relaxed) {
                    let outcome = session.read_only(&Txn::new().read(t(300))).expect("snapshot read");
                    let value = outcome.results[0];
                    assert!(value >= last, "snapshot read went back in time: {last} -> {value}");
                    last = value;
                    reads += 1;
                }
                reads
            })
        })
        .collect();

    for v in 1..=400u64 {
        writer.execute(&Txn::new().write(t(300), v)).expect("increment");
    }
    done.store(true, Ordering::Relaxed);
    let reads: u64 = readers.into_iter().map(|h| h.join().expect("reader panicked")).sum();
    collector.join().expect("collector panicked");
    assert!(reads > 0, "no snapshot read raced the writer");
    // The final committed value is visible to a fresh snapshot.
    let mut session = cluster.session(NodeId(1)).expect("session");
    let outcome = session.read_only(&Txn::new().read(t(300))).expect("snapshot read");
    assert_eq!(outcome.results[0], 400);
}

/// Checker-alive negative test: an out-of-history version doctored into a
/// row's chain must be flagged as a `PhantomVersion` — proving the
/// version-chain invariant is actually enforced, not vacuously clean.
#[test]
fn doctored_version_chain_is_flagged() {
    let cluster = ycsb_cluster();
    let mut session = cluster.session(NodeId(0)).expect("session");
    session.execute(&Txn::new().write(t(400), 44)).expect("seed write");
    // Written three times with no reader: its first two versions folded
    // into the base, which now grounds the one version left inline.
    for word in [45, 46, 47] {
        session.execute(&Txn::new().write(t(401), word)).expect("seed write");
    }
    assert!(cluster.quiesce_switch(Duration::from_secs(10)), "switch failed to quiesce");
    let row_of = |tuple: TupleId| {
        let home = cluster.partition_map().home(tuple).expect("homed tuple");
        cluster.shared().node(home).peek(tuple).expect("declared table").expect("row exists")
    };
    assert_eq!(row_of(t(401)).version_chain().1, Some(46), "the folded chain's base is its last displaced version");

    let clean = invariants::check(&cluster, SemanticChecks::None);
    assert!(clean.is_clean(), "pre-doctor report must be clean: {:?}", clean.violations);
    assert!(clean.version_entries_checked >= 2, "the committed writes left no chain entries to verify");

    // Doctor: install a version no committed transaction ever wrote.
    for tuple in [t(400), t(401)] {
        row_of(tuple).install_version(1 << 40, 999_999);
    }

    let doctored = invariants::check(&cluster, SemanticChecks::None);
    for doctored_tuple in [t(400), t(401)] {
        assert!(
            doctored
                .violations
                .iter()
                .any(|v| matches!(v, Violation::PhantomVersion { tuple, .. } if *tuple == doctored_tuple)),
            "the doctored version on {doctored_tuple:?} went undetected: {:?}",
            doctored.violations
        );
    }
}
