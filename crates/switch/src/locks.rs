//! Pipeline locks for multi-pass transactions.
//!
//! A multi-pass transaction holds state across pipeline passes, so other
//! transactions that would touch the same registers must be kept out of the
//! pipeline until it finishes (§5.2). The naïve scheme uses a single
//! pipeline lock; the fine-grained optimization of §5.3 (Listing 1) packs two
//! independent lock bits ("left" / "right") into a single register so that
//! two multi-pass transactions over disjoint pipeline halves can run
//! concurrently — more bits are not implementable on the current Tofino
//! generation, which is why the maximum here is two as well.

use crate::config::{LockGranularity, SwitchConfig};

/// A set of pipeline locks, as a bitmask. Bit 0 = the single coarse lock or
/// the "left" fine-grained lock, bit 1 = the "right" fine-grained lock.
#[derive(Copy, Clone, PartialEq, Eq, Default, Debug)]
pub struct LockMask(pub u8);

impl LockMask {
    pub const NONE: LockMask = LockMask(0);
    pub const LEFT: LockMask = LockMask(0b01);
    pub const RIGHT: LockMask = LockMask(0b10);
    pub const BOTH: LockMask = LockMask(0b11);

    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    #[inline]
    pub fn contains(self, other: LockMask) -> bool {
        self.0 & other.0 == other.0
    }

    #[inline]
    pub fn union(self, other: LockMask) -> LockMask {
        LockMask(self.0 | other.0)
    }
}

/// Computes the pipeline locks that cover a set of MAU stages under the given
/// configuration. Single-pass transactions use this to know which locks must
/// be *free* for admission; multi-pass transactions use it to know which
/// locks to *acquire*.
pub fn locks_for_stages<I: IntoIterator<Item = u8>>(stages: I, config: &SwitchConfig) -> LockMask {
    let mut mask = LockMask::NONE;
    let boundary = config.num_stages / 2;
    for stage in stages {
        match config.lock_granularity {
            LockGranularity::Coarse => return LockMask::LEFT,
            LockGranularity::FineGrained => {
                if stage < boundary {
                    mask = mask.union(LockMask::LEFT);
                } else {
                    mask = mask.union(LockMask::RIGHT);
                }
            }
        }
    }
    mask
}

/// The pipeline lock register, mirroring Listing 1: `try_acquire` succeeds
/// only if none of the requested bits is currently set, and sets all of them
/// atomically (the data plane implements this as a single stateful register
/// action, so there is no partial acquisition to undo).
#[derive(Debug, Default)]
pub struct PipelineLocks {
    held: u8,
}

impl PipelineLocks {
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether all locks in `mask` are currently free.
    #[inline]
    pub fn is_free(&self, mask: LockMask) -> bool {
        self.held & mask.0 == 0
    }

    /// Attempts to acquire every lock in `mask`. All-or-nothing, like the
    /// `try_lock` register action in Listing 1.
    #[inline]
    pub fn try_acquire(&mut self, mask: LockMask) -> bool {
        if self.is_free(mask) {
            self.held |= mask.0;
            true
        } else {
            false
        }
    }

    /// Releases the locks in `mask`.
    ///
    /// # Panics
    /// Panics (in debug builds) if a lock being released is not held — that
    /// would indicate a protocol bug in the pipeline loop.
    #[inline]
    pub fn release(&mut self, mask: LockMask) {
        debug_assert_eq!(self.held & mask.0, mask.0, "releasing a lock that is not held");
        self.held &= !mask.0;
    }

    /// Bitmask of currently held locks (for stats / tests).
    pub fn held(&self) -> LockMask {
        LockMask(self.held)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_set_operations() {
        assert!(LockMask::BOTH.contains(LockMask::LEFT));
        assert!(!LockMask::LEFT.contains(LockMask::RIGHT));
        assert_eq!(LockMask::LEFT.union(LockMask::RIGHT), LockMask::BOTH);
        assert!(LockMask::NONE.is_empty());
    }

    #[test]
    fn coarse_granularity_always_maps_to_single_lock() {
        let config = SwitchConfig { lock_granularity: LockGranularity::Coarse, ..SwitchConfig::tiny() };
        assert_eq!(locks_for_stages([0], &config), LockMask::LEFT);
        assert_eq!(locks_for_stages([3], &config), LockMask::LEFT);
        assert_eq!(locks_for_stages([], &config), LockMask::NONE);
    }

    #[test]
    fn fine_grained_splits_pipeline_in_half() {
        let config = SwitchConfig::tiny(); // 4 stages, boundary at 2
        assert_eq!(locks_for_stages([0, 1], &config), LockMask::LEFT);
        assert_eq!(locks_for_stages([2, 3], &config), LockMask::RIGHT);
        assert_eq!(locks_for_stages([1, 2], &config), LockMask::BOTH);
    }

    #[test]
    fn try_acquire_is_all_or_nothing() {
        let mut locks = PipelineLocks::new();
        assert!(locks.try_acquire(LockMask::LEFT));
        // Requesting BOTH must fail because LEFT is taken, and must not
        // implicitly grab RIGHT.
        assert!(!locks.try_acquire(LockMask::BOTH));
        assert!(locks.is_free(LockMask::RIGHT));
        assert!(locks.try_acquire(LockMask::RIGHT));
        assert_eq!(locks.held(), LockMask::BOTH);
    }

    #[test]
    fn release_frees_only_requested_bits() {
        let mut locks = PipelineLocks::new();
        assert!(locks.try_acquire(LockMask::BOTH));
        locks.release(LockMask::LEFT);
        assert!(locks.is_free(LockMask::LEFT));
        assert!(!locks.is_free(LockMask::RIGHT));
        locks.release(LockMask::RIGHT);
        assert_eq!(locks.held(), LockMask::NONE);
    }

    #[test]
    fn two_disjoint_multipass_transactions_can_coexist_only_with_fine_granularity() {
        // With the coarse configuration both map to the same lock.
        let coarse = SwitchConfig { lock_granularity: LockGranularity::Coarse, ..SwitchConfig::tiny() };
        let fine = SwitchConfig::tiny();
        let txn_a_stages = [0u8, 1];
        let txn_b_stages = [2u8, 3];

        let mut locks = PipelineLocks::new();
        let a = locks_for_stages(txn_a_stages, &coarse);
        let b = locks_for_stages(txn_b_stages, &coarse);
        assert!(locks.try_acquire(a));
        assert!(!locks.try_acquire(b), "coarse lock must serialise them");

        let mut locks = PipelineLocks::new();
        let a = locks_for_stages(txn_a_stages, &fine);
        let b = locks_for_stages(txn_b_stages, &fine);
        assert!(locks.try_acquire(a));
        assert!(locks.try_acquire(b), "fine-grained locks must allow disjoint halves");
    }
}
