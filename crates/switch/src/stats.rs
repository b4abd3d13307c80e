//! Data-plane statistics exported by the switch simulator.

use std::sync::atomic::{AtomicU64, Ordering};

/// Counters maintained by the engine, on whichever thread runs the pipeline.
/// Shared via `Arc` so the experiment driver and tests can observe them while
/// the switch runs.
#[derive(Debug, Default)]
pub struct SwitchStats {
    /// Transactions executed to completion.
    pub txns_executed: AtomicU64,
    /// Transactions that completed in a single pipeline pass.
    pub single_pass: AtomicU64,
    /// Transactions that needed more than one pass.
    pub multi_pass: AtomicU64,
    /// Total pipeline passes executed (≥ txns_executed).
    pub passes: AtomicU64,
    /// Recirculations of packets *waiting* for a pipeline lock (admission
    /// denied).
    pub recirc_waiting: AtomicU64,
    /// Recirculations of packets that own a pipeline lock and continue their
    /// next pass (the §5.3 fast path).
    pub recirc_owner: AtomicU64,
    /// LM-Switch: lock requests processed.
    pub lm_requests: AtomicU64,
    /// LM-Switch: lock requests denied.
    pub lm_denied: AtomicU64,
    /// Warm-transaction decisions multicast to the nodes.
    pub multicasts: AtomicU64,
}

/// A point-in-time copy of [`SwitchStats`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct SwitchStatsSnapshot {
    pub txns_executed: u64,
    pub single_pass: u64,
    pub multi_pass: u64,
    pub passes: u64,
    pub recirc_waiting: u64,
    pub recirc_owner: u64,
    pub lm_requests: u64,
    pub lm_denied: u64,
    pub multicasts: u64,
}

impl SwitchStats {
    #[inline]
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> SwitchStatsSnapshot {
        SwitchStatsSnapshot {
            txns_executed: self.txns_executed.load(Ordering::Relaxed),
            single_pass: self.single_pass.load(Ordering::Relaxed),
            multi_pass: self.multi_pass.load(Ordering::Relaxed),
            passes: self.passes.load(Ordering::Relaxed),
            recirc_waiting: self.recirc_waiting.load(Ordering::Relaxed),
            recirc_owner: self.recirc_owner.load(Ordering::Relaxed),
            lm_requests: self.lm_requests.load(Ordering::Relaxed),
            lm_denied: self.lm_denied.load(Ordering::Relaxed),
            multicasts: self.multicasts.load(Ordering::Relaxed),
        }
    }
}

impl SwitchStatsSnapshot {
    /// Fraction of executed transactions that were single-pass.
    pub fn single_pass_fraction(&self) -> f64 {
        if self.txns_executed == 0 {
            0.0
        } else {
            self.single_pass as f64 / self.txns_executed as f64
        }
    }

    /// Average pipeline passes per transaction.
    pub fn passes_per_txn(&self) -> f64 {
        if self.txns_executed == 0 {
            0.0
        } else {
            self.passes as f64 / self.txns_executed as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_counters() {
        let stats = SwitchStats::default();
        SwitchStats::bump(&stats.txns_executed);
        SwitchStats::bump(&stats.txns_executed);
        SwitchStats::bump(&stats.single_pass);
        SwitchStats::bump(&stats.multi_pass);
        stats.passes.store(3, Ordering::Relaxed);
        let snap = stats.snapshot();
        assert_eq!(snap.txns_executed, 2);
        assert_eq!(snap.single_pass_fraction(), 0.5);
        assert_eq!(snap.passes_per_txn(), 1.5);
    }

    #[test]
    fn empty_snapshot_ratios_are_zero() {
        let snap = SwitchStats::default().snapshot();
        assert_eq!(snap.single_pass_fraction(), 0.0);
        assert_eq!(snap.passes_per_txn(), 0.0);
    }
}
