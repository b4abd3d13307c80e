//! Exact order statistics and transaction-outcome classification.
//!
//! The benchmark keeps every latency sample (nanoseconds) and selects
//! percentiles by rank; it does not go through the program's
//! `LatencyHistogram`, whose power-of-two buckets can only move by 2x.

use p4db::common::AbortReason;
use p4db::Result;

/// Nearest-rank percentile of an ascending-sorted slice: the smallest sample
/// such that at least `q` of the samples are at or below it. `0.0` for an
/// empty slice.
pub fn percentile_sorted(sorted: &[u32], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// Median of a set of per-round values (mean of the two middle values for an
/// even count). `0.0` for an empty set.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile, by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method): position
/// `p * (n + 1)` on the 1-based sorted values, linearly interpolated and
/// clamped to the ends. With fewer than two values both are the median.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let m = median(values);
        return (m, m);
    }
    let at = |p: f64| {
        let pos = (p * (n as f64 + 1.0)).clamp(1.0, n as f64);
        let lo = pos.floor() as usize;
        let frac = pos - lo as f64;
        let hi = (lo + 1).min(n);
        v[lo - 1] + (v[hi - 1] - v[lo - 1]) * frac
    };
    (at(0.25), at(0.75))
}

/// What one transaction's `wait` returned, as the benchmark accounts for it.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Outcome {
    Committed,
    /// `Err(Abort(ConstraintViolation))`: a business outcome (an overdraft
    /// refused). Its frequency grows with how many accounts a faster engine
    /// drains, so it must not count as a failure.
    Rollback,
    /// Every other error: an exhausted retry budget, a rejected request, a
    /// dead cluster.
    Failed,
}

pub fn classify<T>(result: &Result<T>) -> Outcome {
    match result {
        Ok(_) => Outcome::Committed,
        Err(e) => match e.abort_reason() {
            Some(AbortReason::ConstraintViolation) => Outcome::Rollback,
            _ => Outcome::Failed,
        },
    }
}

/// Per-outcome counts of one phase of one client.
#[derive(Copy, Clone, Default, Debug, PartialEq, Eq)]
pub struct Tally {
    pub committed: u64,
    pub rollback: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, outcome: Outcome) {
        match outcome {
            Outcome::Committed => self.committed += 1,
            Outcome::Rollback => self.rollback += 1,
            Outcome::Failed => self.failed += 1,
        }
    }

    pub fn attempted(&self) -> u64 {
        self.committed + self.rollback + self.failed
    }

    pub fn merge(&mut self, other: &Tally) {
        self.committed += other.committed;
        self.rollback += other.rollback;
        self.failed += other.failed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4db::{Error, NodeId, TableId, TupleId};

    #[test]
    fn percentile_selects_by_exact_rank() {
        let samples: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile_sorted(&samples, 0.5), 50.0);
        assert_eq!(percentile_sorted(&samples, 0.99), 99.0);
        assert_eq!(percentile_sorted(&samples, 0.999), 100.0);
        assert_eq!(percentile_sorted(&samples, 1.0), 100.0);
        assert_eq!(percentile_sorted(&samples, 0.0), 1.0);
        // Not a bucket bound: an odd value survives untouched.
        assert_eq!(percentile_sorted(&[7, 1_048_577, 3_000_001], 0.5), 1_048_577.0);
        assert_eq!(percentile_sorted(&[42], 0.99), 42.0);
        assert_eq!(percentile_sorted(&[], 0.5), 0.0);
    }

    #[test]
    fn median_of_rounds() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[9.5]), 9.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), (1.0, 3.0));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn outcomes_are_classified_from_the_abort_reason() {
        let tuple = TupleId::new(TableId(0), 1);
        assert_eq!(classify(&Ok(())), Outcome::Committed);
        assert_eq!(classify::<()>(&Err(Error::Abort(AbortReason::ConstraintViolation))), Outcome::Rollback);
        assert_eq!(classify::<()>(&Err(Error::lock_conflict(tuple))), Outcome::Failed);
        assert_eq!(classify::<()>(&Err(Error::Abort(AbortReason::RetryBudgetExhausted))), Outcome::Failed);
        assert_eq!(classify::<()>(&Err(Error::Disconnected)), Outcome::Failed);
        assert_eq!(classify::<()>(&Err(Error::UnknownNode(NodeId(9)))), Outcome::Failed);

        let mut tally = Tally::default();
        for outcome in [Outcome::Committed, Outcome::Committed, Outcome::Rollback, Outcome::Failed] {
            tally.record(outcome);
        }
        assert_eq!(tally, Tally { committed: 2, rollback: 1, failed: 1 });
        assert_eq!(tally.attempted(), 4);
    }
}
