//! A row costs little more than its own three words.
//!
//! A counting global allocator measures the live heap of a table partition
//! that 100k rows were inserted into through `Table::insert_fresh`, the path
//! TPC-C's inserting transactions take: the `Arc`-allocated row (lock word,
//! value word, version chain) plus its share of the shard maps must stay
//! within 128 B per row (~110 B measured). A row whose value was sixteen
//! words behind its own latch retained ~250 B. Inserted rows are what a
//! `tpcc_warm` run keeps growing by, so this bounds its live bytes per
//! transaction.
//!
//! This file holds exactly one test: the allocator is process-wide, and a
//! second test running on another thread would be counted too.

use p4db::common::{NodeId, TableId, TxnId, Value, WorkerId};
use p4db::storage::Table;
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
fn an_inserted_row_retains_at_most_128_bytes_of_heap() {
    const ROWS: u64 = 100_000;
    let before = LIVE.load(Ordering::Relaxed);
    let table = Table::new(TableId(0));
    for key in 0..ROWS {
        let txn = TxnId::compose(key as u32, NodeId(0), WorkerId(0));
        table.insert_fresh(key, Value::scalar(key), txn);
    }
    let per_row = (LIVE.load(Ordering::Relaxed) - before) as f64 / ROWS as f64;
    assert_eq!(table.len(), ROWS as usize);
    assert!(per_row <= 128.0, "an inserted row retains {per_row:.1} B of heap, budget 128 B");
}
