//! Multi-version concurrency control plumbing: the commit clock that stamps
//! row versions and the snapshot registry that tracks active read-only
//! transactions.
//!
//! The shape follows the paper's division of labor: writers keep using the
//! 2PL host path (conflicting writers are already serialized by the lock
//! table), and each committed write additionally *installs* a version tagged
//! with a commit timestamp. Read-only transactions pick a snapshot timestamp
//! at admission and read the newest version at or below it — zero lock-table
//! interaction, zero 2PC. Correctness rests on two properties enforced here:
//!
//! 1. **Ordered publication.** [`CommitClock::reserve`] hands out timestamps,
//!    but [`CommitClock::stable`] only advances over the *contiguous prefix*
//!    of published timestamps: a timestamp published before its predecessors
//!    parks in a small pending set and is absorbed once the gap below it
//!    closes ([`CommitClock::publish`] never blocks — a descheduled
//!    committer delays `stable`, not its peers). A reader that snapshots at
//!    `stable()` can therefore never miss an in-flight install below its
//!    snapshot.
//! 2. **Guarded reclamation.** [`SnapshotSlot::begin`] announces a snapshot
//!    *and re-validates* the clock after the announcement; the garbage
//!    collector ([`SnapshotRegistry::low_watermark`]) reads the clock
//!    *before* scanning the slots. Between the two, any reader that finished
//!    `begin()` with snapshot `s` is either visible to the scan (watermark
//!    `<= s`) or started after the collector's clock read (watermark
//!    `<= bound <= s`) — so no version a completed `begin()` can still see
//!    is ever reclaimed.
//!
//! Reclamation is folding, and it mostly happens at install: a row keeps
//! its newest version inline, and a committing writer — which reads the
//! watermark once per transaction — folds the version it displaces into
//! the row's base when that version is at or below the watermark, dropping
//! everything older. Only a displaced version above the watermark (one an
//! active snapshot may still resolve to) spills to the heap, and GC
//! ([`crate::table::Table::collect_versions`]) folds spilled versions the
//! same way once the watermark passes them. A workload with no snapshot
//! readers therefore keeps one inline version per written row and no
//! version heap (a displaced version whose publish is still parked behind
//! a slower predecessor spills until the next install or sweep).
//!
//! Timestamps are drawn from one logical clock for the whole cluster: the
//! simulator's nodes share an address space, which models the
//! synchronized-clock assumption the paper's epoch machinery already makes
//! for switch epochs.

use p4db_common::sync::unpoison;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Slot value of a worker with no read-only transaction in flight. Folds
/// away naturally in the watermark minimum.
pub const IDLE_SNAPSHOT: u64 = u64::MAX;

/// The cluster commit clock. `reserve()` is called exactly once per
/// committing transaction that installed at least one host write — *after*
/// its WAL commit group is appended, so a reserved timestamp is always
/// published. Read-only and hot-only transactions never tick the clock.
#[derive(Debug)]
pub struct CommitClock {
    /// Next timestamp to hand out (timestamps start at 1).
    next: AtomicU64,
    /// Highest timestamp whose versions are fully installed, as are those of
    /// every timestamp below it.
    stable: AtomicU64,
    /// Timestamps published ahead of a still-installing predecessor, waiting
    /// for the gap below them to close. Bounded by the number of concurrently
    /// committing workers, so a linear scan is cheaper than a heap.
    pending: Mutex<Vec<u64>>,
}

impl Default for CommitClock {
    fn default() -> Self {
        Self::new()
    }
}

impl CommitClock {
    pub fn new() -> Self {
        CommitClock { next: AtomicU64::new(1), stable: AtomicU64::new(0), pending: Mutex::new(Vec::new()) }
    }

    /// Draws the next commit timestamp. The caller *must* follow up with
    /// [`CommitClock::publish`] after installing its versions, or `stable`
    /// stalls forever.
    #[inline]
    pub fn reserve(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Publishes `ts` without ever blocking. If every smaller timestamp has
    /// already published, `stable` advances to `ts` and then absorbs any
    /// parked successors whose gap this publish just closed; otherwise `ts`
    /// parks in the pending set and the eventual publisher of its
    /// predecessor absorbs it. A committer descheduled mid-install therefore
    /// delays only `stable` (readers snapshot slightly older states), never
    /// its peers' commit latency. All `stable` stores happen under the
    /// pending lock, so the advance itself is serialized and monotonic.
    pub fn publish(&self, ts: u64) {
        debug_assert!(ts >= 1);
        let mut pending = unpoison(self.pending.lock());
        let stable = self.stable.load(Ordering::Acquire);
        if ts != stable + 1 {
            debug_assert!(ts > stable, "timestamp published twice");
            pending.push(ts);
            return;
        }
        let mut new_stable = ts;
        while let Some(at) = pending.iter().position(|&parked| parked == new_stable + 1) {
            pending.swap_remove(at);
            new_stable += 1;
        }
        self.stable.store(new_stable, Ordering::SeqCst);
    }

    /// The newest timestamp that is safe to snapshot: all versions at or
    /// below it are fully installed.
    #[inline]
    pub fn stable(&self) -> u64 {
        self.stable.load(Ordering::SeqCst)
    }
}

/// One reader's published snapshot: `IDLE_SNAPSHOT` when no read-only
/// transaction is in flight, the active snapshot timestamp otherwise.
/// Registered once per reader (never by slot-index arithmetic — a shared
/// slot would let one reader's `end()` hide another's active snapshot from
/// the watermark).
#[derive(Debug, Clone)]
pub struct SnapshotSlot(Arc<AtomicU64>);

impl SnapshotSlot {
    /// Announces a snapshot at the clock's current stable timestamp and
    /// returns it. The store-then-revalidate loop closes the race against a
    /// concurrent collector (see the module docs): once `begin` returns,
    /// every `low_watermark()` computed from here on is `<=` the returned
    /// snapshot until [`SnapshotSlot::end`] is called.
    pub fn begin(&self, clock: &CommitClock) -> u64 {
        loop {
            let snap = clock.stable();
            self.0.store(snap, Ordering::SeqCst);
            if clock.stable() == snap {
                return snap;
            }
        }
    }

    /// Clears the announcement. Must be called on every exit from the
    /// snapshot read path, including error paths.
    pub fn end(&self) {
        self.0.store(IDLE_SNAPSHOT, Ordering::SeqCst);
    }

    /// The currently announced snapshot, if any (test/diagnostic hook).
    pub fn active(&self) -> Option<u64> {
        match self.0.load(Ordering::SeqCst) {
            IDLE_SNAPSHOT => None,
            snap => Some(snap),
        }
    }
}

/// The cluster-wide set of snapshot slots. A slot whose every handle was
/// dropped is handed to the next registration, so the set is as large as
/// the most readers ever alive at once, not the number ever created: every
/// committing writer scans it once per transaction.
#[derive(Debug, Default)]
pub struct SnapshotRegistry {
    slots: RwLock<Vec<Arc<AtomicU64>>>,
}

impl SnapshotRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an idle slot for one reader: a slot no handle refers to any
    /// more, or a fresh one. The registry's own reference is the only one
    /// left to such a slot, and no handle can be cloned from it except here,
    /// under the write lock, so it cannot be handed out twice.
    pub fn register(&self) -> SnapshotSlot {
        let mut slots = unpoison(self.slots.write());
        let slot = match slots.iter().find(|slot| Arc::strong_count(slot) == 1) {
            Some(orphan) => {
                // Pairs with the Release decrement of the last handle's
                // drop: that handle's stores are ordered before this one.
                fence(Ordering::Acquire);
                // Idle already unless its last handle was dropped mid-read.
                orphan.store(IDLE_SNAPSHOT, Ordering::SeqCst);
                Arc::clone(orphan)
            }
            None => {
                let slot = Arc::new(AtomicU64::new(IDLE_SNAPSHOT));
                slots.push(Arc::clone(&slot));
                slot
            }
        };
        SnapshotSlot(slot)
    }

    /// The cluster low-watermark: the minimum of the clock's stable
    /// timestamp and every active snapshot. Versions strictly below the
    /// newest version at or below this bound are reclaimable. The clock is
    /// read *before* the slot scan — the ordering half of the reclamation
    /// guarantee (see the module docs).
    pub fn low_watermark(&self, clock: &CommitClock) -> u64 {
        let bound = clock.stable();
        let slots = unpoison(self.slots.read());
        slots.iter().map(|slot| slot.load(Ordering::SeqCst)).fold(bound, u64::min)
    }

    /// Number of registered slots (diagnostic).
    pub fn len(&self) -> usize {
        unpoison(self.slots.read()).len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Everything the engine shares for MVCC: the commit clock and the snapshot
/// registry.
#[derive(Debug, Default)]
pub struct MvccState {
    pub clock: CommitClock,
    pub snapshots: SnapshotRegistry,
}

impl MvccState {
    pub fn new() -> Self {
        Self::default()
    }

    /// The minimum active snapshot merged with the stable timestamp — the
    /// bound at or below which a displaced version may be folded. A
    /// committing writer reads it once per transaction and installs every
    /// row against it.
    pub fn low_watermark(&self) -> u64 {
        self.snapshots.low_watermark(&self.clock)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_starts_stable_at_zero_and_publishes_in_order() {
        let clock = CommitClock::new();
        assert_eq!(clock.stable(), 0);
        let a = clock.reserve();
        let b = clock.reserve();
        assert_eq!((a, b), (1, 2));
        clock.publish(a);
        assert_eq!(clock.stable(), 1);
        clock.publish(b);
        assert_eq!(clock.stable(), 2);
    }

    #[test]
    fn out_of_order_publish_parks_until_the_gap_closes() {
        let clock = CommitClock::new();
        let a = clock.reserve();
        let b = clock.reserve();
        let c = clock.reserve();
        // b and c publish ahead of a: stable must not move (a reader
        // snapshotting now would miss a's still-uninstalled versions).
        clock.publish(c);
        clock.publish(b);
        assert_eq!(clock.stable(), 0, "stable advanced over an unpublished gap");
        // Publishing a closes the gap and absorbs both parked successors.
        clock.publish(a);
        assert_eq!(clock.stable(), c);
    }

    #[test]
    fn watermark_tracks_minimum_active_snapshot() {
        let state = MvccState::new();
        // No readers: watermark == stable.
        assert_eq!(state.low_watermark(), 0);
        let ts = state.clock.reserve();
        state.clock.publish(ts);
        assert_eq!(state.low_watermark(), 1);

        let slot_a = state.snapshots.register();
        let slot_b = state.snapshots.register();
        let snap_a = slot_a.begin(&state.clock);
        assert_eq!(snap_a, 1);
        // Advance the clock past the reader.
        let ts = state.clock.reserve();
        state.clock.publish(ts);
        assert_eq!(state.clock.stable(), 2);
        // Active reader at 1 holds the watermark down.
        assert_eq!(state.low_watermark(), 1);
        let snap_b = slot_b.begin(&state.clock);
        assert_eq!(snap_b, 2);
        assert_eq!(state.low_watermark(), 1);
        slot_a.end();
        assert_eq!(state.low_watermark(), 2);
        slot_b.end();
        assert_eq!(state.low_watermark(), 2);
        assert_eq!(state.snapshots.len(), 2);
    }

    #[test]
    fn idle_slots_never_hold_the_watermark_back() {
        let state = MvccState::default();
        for _ in 0..16 {
            let _ = state.snapshots.register(); // dropped immediately, stays idle
        }
        for _ in 0..5 {
            let ts = state.clock.reserve();
            state.clock.publish(ts);
        }
        assert_eq!(state.low_watermark(), 5);
    }

    #[test]
    fn a_dropped_slot_is_handed_to_the_next_registration() {
        let state = MvccState::default();
        let held = state.snapshots.register();
        for _ in 0..1_000 {
            let slot = state.snapshots.register();
            slot.begin(&state.clock);
            // Dropped mid-read: the next registration still starts idle.
        }
        assert_eq!(state.snapshots.len(), 2, "one slot held, one reused");
        let again = state.snapshots.register();
        assert_eq!(again.active(), None);
        assert_eq!(held.active(), None);
        assert_eq!(state.snapshots.len(), 2);
        // Both handles alive: the next registration needs a slot of its own.
        let _third = state.snapshots.register();
        assert_eq!(state.snapshots.len(), 3);
    }

    #[test]
    fn slot_active_reflects_begin_and_end() {
        let state = MvccState::default();
        let slot = state.snapshots.register();
        assert_eq!(slot.active(), None);
        let snap = slot.begin(&state.clock);
        assert_eq!(slot.active(), Some(snap));
        slot.end();
        assert_eq!(slot.active(), None);
    }
}
