//! The write-ahead log retains its serialised bytes and nothing else.
//!
//! A counting global allocator measures the live heap around 100k committed
//! cold transactions' worth of appends: what the log keeps must stay within
//! 1.25x of the segment bytes it reports. (A log that also kept its decoded
//! records — a 64-byte slot each plus each switch result's heap list — would
//! be well over.)
//!
//! This file holds exactly one test: the allocator is process-wide, and a
//! second test running on another thread would be counted too.

use p4db::common::{GlobalTxnId, NodeId, TableId, TupleId, TxnId, Value, WorkerId};
use p4db::storage::{LogRecord, Wal};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

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
fn the_log_retains_its_segment_bytes_and_little_else() {
    const GROUPS: u32 = 100_000;
    let wal = Wal::new();
    let before = LIVE.load(Ordering::Relaxed);
    // One reusable staging buffer, like a worker's `cold_writes`.
    let mut staged = Vec::with_capacity(4);
    let mut appended = 0;
    for seq in 0..GROUPS {
        let txn = TxnId::compose(seq, NodeId(0), WorkerId(0));
        // 1..=3 cold writes and a switch result of 1..=4 results, so
        // segments differ in size and a buffer sized from the last one is
        // sometimes too big, sometimes too small.
        for w in 0..1 + seq % 3 {
            staged.push(LogRecord::ColdWrite {
                txn,
                tuple: TupleId::new(TableId(0), (seq + w) as u64),
                before: Value::scalar(seq as u64),
                after: Value::scalar(seq as u64 + 1),
            });
        }
        let results = (0..1 + seq as u64 % 4).map(|k| (TupleId::new(TableId(1), k), seq as u64 + k)).collect();
        staged.push(LogRecord::SwitchResult { txn, gid: GlobalTxnId(seq as u64), results });
        staged.push(LogRecord::Commit { txn });
        appended += staged.len();
        wal.append_group(staged.drain(..));
    }
    drop(staged);
    let retained = LIVE.load(Ordering::Relaxed) - before;

    // Measured before the snapshot below allocates its own copy of the tail.
    let blobs = wal.serialize_segments();
    let log_bytes: usize = blobs.iter().map(|b| b.len()).sum();
    assert_eq!(wal.len(), appended);
    assert!(
        retained as f64 <= 1.25 * log_bytes as f64,
        "the log retains {retained} B of heap for {log_bytes} B of segments ({:.2}x)",
        retained as f64 / log_bytes as f64
    );
}
