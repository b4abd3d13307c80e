//! The session path allocates per transaction only what the transaction
//! itself needs.
//!
//! A counting global allocator counts heap allocations over warm
//! `submit_request` → `wait` round trips, one transaction in flight, on a
//! 1-node NoSwitch cluster with one executor. A node-local snapshot read runs
//! on the caller's thread and allocates only the outcome's result vector. A
//! write also allocates the request its job owns, a lock-table entry and
//! the log's amortised segment growth. A reply channel per transaction
//! (three allocations), a heap-allocated histogram in every reply, a fresh
//! executor buffer per share or a job for a snapshot read would each show.
//! A second,
//! P4DB cluster pins the hot and warm paths through the switch exchange the
//! same way.
//!
//! This file holds exactly one test: the allocator is process-wide, and a
//! second test running on another thread would be counted too.

use p4db::common::stats::TxnClass;
use p4db::workloads::ycsb::YCSB_TABLE;
use p4db::workloads::{Workload, Ycsb, YcsbConfig, YcsbMix};
use p4db::{Cluster, NodeId, Session, SystemMode, TupleId, Txn, TxnRequest};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Heap allocations (and reallocations) so far. A statistic that publishes
/// no other data, hence `Relaxed`.
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter updates touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations per round trip over `rounds` warm round trips of `req`.
fn allocations_per_round_trip(session: &mut Session, req: &TxnRequest, rounds: usize) -> f64 {
    // Warm-up: every reused buffer on the path reaches its steady capacity.
    for _ in 0..1_000 {
        let pending = session.submit_request(req).unwrap();
        session.wait(pending).unwrap();
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..rounds {
        let pending = session.submit_request(req).unwrap();
        session.wait(pending).unwrap();
    }
    (ALLOCATIONS.load(Ordering::Relaxed) - before) as f64 / rounds as f64
}

#[test]
fn a_session_round_trip_allocates_only_what_the_transaction_needs() {
    let workload: Arc<dyn Workload> =
        Arc::new(Ycsb::new(YcsbConfig { keys_per_node: 1_000, ..YcsbConfig::new(YcsbMix::A) }));
    let cluster =
        Cluster::builder(Arc::clone(&workload)).test_profile().nodes(1).workers(1).mode(SystemMode::NoSwitch).build();
    let mut session = cluster.session(NodeId(0)).unwrap();
    let t = |key| TupleId::new(YCSB_TABLE, key);

    let read = Txn::new().read(t(3)).read(t(4)).read_only().resolve(session.partition_map(), NodeId(0)).unwrap();
    let snapshot_reads = allocations_per_round_trip(&mut session, &read, 8_000);
    let write = Txn::new().add(t(5), 1).resolve(session.partition_map(), NodeId(0)).unwrap();
    let cold_writes = allocations_per_round_trip(&mut session, &write, 8_000);
    assert_eq!(session.stats().snapshot_reads, 9_000, "the reads must take the snapshot path");

    // Measured: 1.00 and 3.01 (2 while a snapshot read went to an executor
    // as a job owning a copy of its request; 7 and 8.01 with a reply channel
    // per transaction).
    assert!(snapshot_reads <= 1.05, "a two-row snapshot read allocates {snapshot_reads:.2} times per round trip");
    assert!(cold_writes <= 3.05, "a one-row cold write allocates {cold_writes:.2} times per round trip");
    drop(session);
    drop(cluster);

    // The switch exchange, on a cluster whose switch holds the hot set (the
    // first 50 keys). Both sides count: the packet and its log records, the
    // reply, the audit log's amortised growth.
    let cluster = Cluster::builder(workload).test_profile().nodes(1).workers(1).mode(SystemMode::P4db).build();
    let mut session = cluster.session(NodeId(0)).unwrap();
    let hot = Txn::new().add(t(3), 1).resolve(session.partition_map(), NodeId(0)).unwrap();
    let warm = Txn::new().add(t(3), 1).add(t(500), 1).resolve(session.partition_map(), NodeId(0)).unwrap();
    for (req, class) in [(&hot, TxnClass::Hot), (&warm, TxnClass::Warm)] {
        let pending = session.submit_request(req).unwrap();
        assert_eq!(session.wait(pending).unwrap().class, class);
    }
    let hot_adds = allocations_per_round_trip(&mut session, &hot, 8_000);
    let warm_adds = allocations_per_round_trip(&mut session, &warm, 8_000);

    // Measured: 21.01 and 22.02 (23.01 and 27.02 before the hot and warm
    // paths shared one exchange; the warm add read 25.02 while it still
    // grouped its hot operations by switch in fresh vectors). A per-call
    // map or vector would show.
    assert!(hot_adds <= 23.05, "a one-row hot add allocates {hot_adds:.2} times per round trip");
    assert!(warm_adds <= 22.05, "a hot-and-cold warm add allocates {warm_adds:.2} times per round trip");
}
