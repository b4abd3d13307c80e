//! Simulated network/hardware delays.
//!
//! The reproduction replaces the physical 10G network and the Tofino pipeline
//! with in-process components, but the paper's results hinge on *relative*
//! latencies (switch reachable in ½ RTT, pipeline pass ≪ host lock hold time).
//! Every modelled delay goes through [`wait_for`], which ends each wait at its
//! deadline, never before it and at most a few µs after it.
//!
//! Calibration rule: `thread::sleep` wakes late, by timer slack plus the
//! scheduler's wake-up (50–65 µs on a loaded Linux box), and a modelled hop
//! lasts a few hundred µs, so a plain sleep would lengthen every hop by a
//! fifth. A long wait therefore sleeps short of its deadline by the thread's
//! wake-up lag, then spins the rest of the way. The lag is learned per thread
//! from each sleep's measured overrun: it falls fast, because a lag above what
//! the sleeps need is CPU burnt spinning, and rises slowly, because one
//! descheduled sleep must not make the next hundred waits spin. It is capped
//! at [`SLEEP_THRESHOLD`], so a sleep is never asked for less than nothing.
//! Short waits spin throughout. Each thread also totals the modelled time it
//! waited and how far past the deadlines its waits ended
//! ([`take_wait_totals`]).

use std::cell::Cell;
use std::time::{Duration, Instant};

/// Busy-waits for `d`. Zero durations return immediately, which is what the
/// functional tests use ([`crate::LatencyConfig::zero`]).
#[inline]
pub fn spin_for(d: Duration) {
    if d.is_zero() {
        return;
    }
    spin_until(Instant::now() + d);
}

/// Busy-waits until `due`; returns the first instant read at or after it.
#[inline]
fn spin_until(due: Instant) -> Instant {
    loop {
        let now = Instant::now();
        if now >= due {
            return now;
        }
        std::hint::spin_loop();
    }
}

/// Threshold from which [`wait_for`] sleeps before it spins, and the cap on
/// a thread's learned wake-up lag. Below it the whole wait spins: a sleep
/// would wake too late to leave anything to spin.
pub const SLEEP_THRESHOLD: Duration = Duration::from_micros(100);

/// Modelled time one thread has waited out: what it asked [`wait_for`] for,
/// and how far past their deadlines those waits ended.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WaitTotals {
    pub modelled_ns: u64,
    pub overrun_ns: u64,
}

thread_local! {
    /// How late this thread's sleeps wake, in ns. It starts at the cap, so
    /// a thread's first waits spin long rather than end late.
    static LAG_NS: Cell<u64> = const { Cell::new(SLEEP_THRESHOLD.as_nanos() as u64) };
    /// Waits since the last [`take_wait_totals`].
    static TOTALS: Cell<WaitTotals> = const { Cell::new(WaitTotals { modelled_ns: 0, overrun_ns: 0 }) };
}

/// Waits for `d` and ends at its deadline: a wait of at least
/// [`SLEEP_THRESHOLD`] sleeps short of it by this thread's learned wake-up
/// lag, so that tens of worker threads can share a few cores (the
/// "slow-motion" benchmark profile, see `LatencyConfig::bench_profile`), then
/// spins to it; a shorter wait spins all the way. The wait is added to this
/// thread's [`WaitTotals`]. A zero wait returns at once and touches no
/// thread-local state, so the zero-latency profile runs no extra code.
#[inline]
pub fn wait_for(d: Duration) {
    if d.is_zero() {
        return;
    }
    let due = Instant::now() + d;
    if d >= SLEEP_THRESHOLD {
        sleep_short_of(d);
    }
    let ended = spin_until(due);
    TOTALS.with(|totals| {
        let mut t = totals.get();
        t.modelled_ns += nanos(d);
        t.overrun_ns += nanos(ended - due);
        totals.set(t);
    });
}

/// Sleeps `d` less this thread's wake-up lag, and learns the lag from how
/// late the sleep woke: halfway down to a lower reading, an eighth of the
/// way up to a higher one (a reading is capped at [`SLEEP_THRESHOLD`]).
fn sleep_short_of(d: Duration) {
    LAG_NS.with(|lag_ns| {
        let lag = lag_ns.get();
        let nap = d.saturating_sub(Duration::from_nanos(lag));
        if nap.is_zero() {
            return;
        }
        let slept = Instant::now();
        std::thread::sleep(nap);
        let late = nanos(slept.elapsed().saturating_sub(nap)).min(nanos(SLEEP_THRESHOLD));
        lag_ns.set(if late < lag { late + (lag - late) / 2 } else { lag + (late - lag) / 8 });
    });
}

/// This thread's [`WaitTotals`] since the previous call, which resets them.
pub fn take_wait_totals() -> WaitTotals {
    TOTALS.with(|totals| totals.replace(WaitTotals::default()))
}

fn nanos(d: Duration) -> u64 {
    d.as_nanos().min(u128::from(u64::MAX)) as u64
}

/// A simple stopwatch for latency-breakdown measurements (Fig 18a). Each
/// worker owns one; `lap` returns the time since the previous lap and resets
/// the reference point, so consecutive phases of a transaction can be
/// attributed without nested timers.
#[derive(Debug)]
pub struct Stopwatch {
    last: Instant,
}

impl Stopwatch {
    pub fn start() -> Self {
        Stopwatch { last: Instant::now() }
    }

    /// Time elapsed since start or the previous lap; resets the lap point.
    #[inline]
    pub fn lap(&mut self) -> Duration {
        let now = Instant::now();
        let d = now - self.last;
        self.last = now;
        d
    }

    /// Resets the lap point without reporting.
    #[inline]
    pub fn reset(&mut self) {
        self.last = Instant::now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spin_for_zero_is_instant() {
        let start = Instant::now();
        spin_for(Duration::ZERO);
        assert!(start.elapsed() < Duration::from_millis(5));
    }

    #[test]
    fn spin_for_waits_at_least_the_requested_time() {
        let start = Instant::now();
        spin_for(Duration::from_micros(200));
        assert!(start.elapsed() >= Duration::from_micros(200));
    }

    #[test]
    fn stopwatch_laps_are_monotonic() {
        let mut sw = Stopwatch::start();
        spin_for(Duration::from_micros(50));
        let first = sw.lap();
        assert!(first >= Duration::from_micros(50));
        let second = sw.lap();
        // The second lap starts after the first lap's reset, so it must be
        // (much) smaller than the first.
        assert!(second <= first);
    }

    fn median(mut xs: Vec<Duration>) -> Duration {
        xs.sort();
        xs[xs.len() / 2]
    }

    #[test]
    fn every_wait_ends_at_or_after_its_due_time() {
        for i in 0..200u64 {
            // 0–600 µs, spun and slept, in an order that jumps about.
            let d = Duration::from_micros(i * 37 % 601);
            let start = Instant::now();
            wait_for(d);
            let took = start.elapsed();
            assert!(took >= d, "wait {i} of {d:?} ended after {took:?}");
        }
    }

    #[test]
    fn calibrated_waits_overrun_at_most_half_as_much_as_plain_sleeps() {
        // Interleaved, so whatever load the machine carries falls on both.
        let d = Duration::from_micros(300);
        let (mut plain, mut calibrated) = (Vec::new(), Vec::new());
        for _ in 0..100 {
            let start = Instant::now();
            std::thread::sleep(d);
            plain.push(start.elapsed() - d);
            let start = Instant::now();
            wait_for(d);
            calibrated.push(start.elapsed() - d);
        }
        let (plain, calibrated) = (median(plain), median(calibrated));
        assert!(calibrated * 2 <= plain, "median overrun: calibrated {calibrated:?}, plain sleep {plain:?}");
    }

    #[test]
    fn the_totals_count_each_wait_and_a_zero_wait_leaves_them_untouched() {
        take_wait_totals();
        wait_for(Duration::from_micros(150));
        wait_for(Duration::from_micros(20));
        let totals = take_wait_totals();
        assert_eq!(totals.modelled_ns, 170_000);
        assert!(totals.overrun_ns < 50_000_000, "{totals:?}");
        wait_for(Duration::ZERO);
        assert_eq!(take_wait_totals(), WaitTotals::default());
    }
}
