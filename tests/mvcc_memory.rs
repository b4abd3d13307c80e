//! Versions cost nothing until a snapshot needs them.
//!
//! A counting global allocator measures the live heap around a write-only
//! stream of committed cold transactions through `Worker::execute`, one
//! distinct row each, with no snapshot reader: each row keeps its one
//! version inline, so what the stream retains is its log and nothing else —
//! within 1.1x of the log's segment bytes (1.01x measured). A row that
//! keeps its versions in a heap chain from the first install retains 64 B
//! more per transaction: 1.92x, measured on the layout before this test.
//!
//! This file holds exactly one test: the allocator is process-wide, and a
//! second test running on another thread would be counted too.

use p4db::common::stats::WorkerStats;
use p4db::common::{LatencyConfig, NodeId, TableId, TupleId, Value, WorkerId};
use p4db::net::{Fabric, LatencyModel};
use p4db::storage::{MvccState, NodeStorage};
use p4db::switch::SwitchConfig;
use p4db::txn::{EngineConfig, EngineShared, HotIndexCell, HotSetIndex, SwitchHealth, TxnOp, TxnRequest, Worker};
use p4db::{CcScheme, OpKind, SystemMode};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::Arc;

/// Bytes currently allocated and not yet freed. A statistic that publishes no
/// other data, hence `Relaxed`.
static LIVE: AtomicIsize = AtomicIsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter updates touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = System.realloc(ptr, layout, new_size);
        if !new_ptr.is_null() {
            LIVE.fetch_add(new_size as isize - layout.size() as isize, Ordering::Relaxed);
        }
        new_ptr
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn a_write_only_stream_retains_its_log_and_no_versions() {
    const ROWS: u64 = 50_000;
    const TABLE: TableId = TableId(0);
    let storage = NodeStorage::new(NodeId(0), [TABLE]);
    storage.table(TABLE).expect("declared table").bulk_load((0..ROWS).map(|k| (k, Value::scalar(k))));
    let latency = LatencyModel::new(LatencyConfig::zero());
    let shared = Arc::new(EngineShared {
        nodes: vec![Arc::new(storage)],
        fabric: Fabric::new(latency.clone()),
        latency,
        hot_index: HotIndexCell::new(HotSetIndex::empty()),
        config: EngineConfig::new(SystemMode::NoSwitch, CcScheme::NoWait, SwitchConfig::tiny()),
        mvcc: MvccState::default(),
        health: SwitchHealth::new(1, 1),
    });
    let mut worker = Worker::new(Arc::clone(&shared), NodeId(0), WorkerId(0));
    let mut stats = WorkerStats::new();

    let before = LIVE.load(Ordering::Relaxed);
    for key in 0..ROWS {
        let req = TxnRequest::new(vec![TxnOp::new(TupleId::new(TABLE, key), OpKind::Write(key + 1), NodeId(0))]);
        worker.execute(&req, &mut stats).expect("an uncontended write commits");
    }
    let retained = LIVE.load(Ordering::Relaxed) - before;

    // Measured before the snapshot below allocates its own copy of the tail.
    let wal = shared.node(NodeId(0)).wal();
    let log_bytes: usize = wal.serialize_segments().iter().map(|b| b.len()).sum();
    assert_eq!(wal.len(), 2 * ROWS as usize, "one cold write and one commit record per transaction");
    assert!(
        retained as f64 <= 1.1 * log_bytes as f64,
        "{ROWS} single-row writes retain {retained} B of heap for {log_bytes} B of log ({:.2}x)",
        retained as f64 / log_bytes as f64
    );
}
