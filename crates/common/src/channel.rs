//! A small in-house MPMC channel.
//!
//! The build environment has no access to crates.io, so the message fabric
//! cannot use `crossbeam::channel`. This module provides the subset the
//! system needs: an unbounded multi-producer multi-consumer queue with
//! cloneable senders *and* receivers, non-blocking and timed receives, and
//! crossbeam-compatible disconnect semantics (a send fails once every
//! receiver is gone; a receive fails once every sender is gone *and* the
//! queue is drained).
//!
//! The implementation is a `Mutex<VecDeque>` plus a `Condvar`. That is not
//! lock-free, but the fabric's queues are short (the switch drains its
//! ingress continuously) and the critical sections are a few dozen
//! instructions, so the mutex never becomes the bottleneck next to the
//! imposed wire latency — see `p4db-net::latency`.
//!
//! **A send signals only a sleeper.** Every blocking receive counts itself
//! into `State::parked` before it waits on the condvar and out after, under
//! the queue lock; a send notifies only when that count is non-zero. The
//! rule exists because std's futex `Condvar::notify_*` is a system call even
//! when nobody waits, and on a busy queue (the submission queue, a fabric
//! mailbox) the consumer is usually awake. A send nobody waits for costs
//! 32–41 ns with the rule and 180–250 ns with an unconditional notify (the
//! repo benchmark's `common.channel.send_ns`, 2-CPU x86-64 VM). No wake-up
//! can be lost: the sender reads `parked` under the same lock the waiter
//! registered under, and the waiter releases that lock only inside the
//! condvar wait.

use crate::sync::unpoison;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Error returned by [`Sender::send`] when every receiver has been dropped.
/// Carries the rejected message back to the caller.
#[derive(Debug, PartialEq, Eq)]
pub struct SendError<T>(pub T);

/// Error returned by [`Receiver::try_recv`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum TryRecvError {
    /// The queue is currently empty but senders still exist.
    Empty,
    /// The queue is empty and every sender has been dropped.
    Disconnected,
}

/// Error returned by [`Receiver::recv_timeout`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// No message arrived within the timeout.
    Timeout,
    /// The queue is empty and every sender has been dropped.
    Disconnected,
}

/// Error returned by [`Receiver::recv`]: every sender has been dropped and
/// the queue is drained.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct RecvError;

struct State<T> {
    queue: VecDeque<T>,
    senders: usize,
    receivers: usize,
    /// Receivers blocked in a condvar wait right now; a send skips the
    /// notify when there are none (see the module docs).
    parked: usize,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    available: Condvar,
}

impl<T> Shared<T> {
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        // A panic while holding this mutex can only happen on an allocation
        // failure inside `VecDeque::push_back`; the queue itself is never
        // left half-updated, so the poisoned state is safe to adopt.
        unpoison(self.state.lock())
    }

    /// Blocks on the condvar, counted in `parked` for the duration.
    fn park<'a>(&self, mut state: MutexGuard<'a, State<T>>) -> MutexGuard<'a, State<T>> {
        state.parked += 1;
        let mut state = unpoison(self.available.wait(state));
        state.parked -= 1;
        state
    }

    /// Blocks on the condvar for at most `timeout`, counted in `parked` for
    /// the duration.
    fn park_timeout<'a>(&self, mut state: MutexGuard<'a, State<T>>, timeout: Duration) -> MutexGuard<'a, State<T>> {
        state.parked += 1;
        let (mut state, _timed_out) = unpoison(self.available.wait_timeout(state, timeout));
        state.parked -= 1;
        state
    }
}

/// The sending half. Cloning produces another producer on the same queue.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// The receiving half. Cloning produces another consumer on the same queue
/// (each message is delivered to exactly one consumer).
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

/// Creates an unbounded MPMC channel.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(State { queue: VecDeque::new(), senders: 1, receivers: 1, parked: 0 }),
        available: Condvar::new(),
    });
    (Sender { shared: Arc::clone(&shared) }, Receiver { shared })
}

impl<T> Sender<T> {
    /// Enqueues a message. Fails (returning the message) only when every
    /// receiver has been dropped.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut state = self.shared.lock();
        if state.receivers == 0 {
            return Err(SendError(value));
        }
        state.queue.push_back(value);
        let sleeping = state.parked > 0;
        drop(state);
        if sleeping {
            self.shared.available.notify_one();
        }
        Ok(())
    }

    /// Enqueues a whole batch of messages under **one** lock acquisition and
    /// one wake-up — the channel-level half of the fabric's frame batching.
    /// The batch is delivered in order, contiguously (no other producer's
    /// message can interleave inside it). Fails (returning the batch) only
    /// when every receiver has been dropped; an empty batch is a no-op.
    pub fn send_batch(&self, values: Vec<T>) -> Result<(), SendError<Vec<T>>> {
        if values.is_empty() {
            return Ok(());
        }
        let mut state = self.shared.lock();
        if state.receivers == 0 {
            return Err(SendError(values));
        }
        state.queue.extend(values);
        let sleeping = state.parked > 0;
        drop(state);
        // One notify per frame: consumers drain multiple messages per
        // wake-up via `recv_many_timeout`/`try_recv_many`.
        if sleeping {
            self.shared.available.notify_all();
        }
        Ok(())
    }

    /// Number of queued messages (approximate under concurrency).
    pub fn len(&self) -> usize {
        self.shared.lock().queue.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether every receiver has been dropped, so that a send would fail.
    pub fn is_disconnected(&self) -> bool {
        self.shared.lock().receivers == 0
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared.lock().senders += 1;
        Sender { shared: Arc::clone(&self.shared) }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut state = self.shared.lock();
        state.senders -= 1;
        let last = state.senders == 0 && state.parked > 0;
        drop(state);
        if last {
            // Wake blocked receivers so they can observe the disconnect.
            self.shared.available.notify_all();
        }
    }
}

impl<T> Receiver<T> {
    /// Non-blocking receive.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut state = self.shared.lock();
        match state.queue.pop_front() {
            Some(v) => Ok(v),
            None if state.senders == 0 => Err(TryRecvError::Disconnected),
            None => Err(TryRecvError::Empty),
        }
    }

    /// Blocking receive: returns an error only when every sender is gone and
    /// the queue is drained.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut state = self.shared.lock();
        loop {
            if let Some(v) = state.queue.pop_front() {
                return Ok(v);
            }
            if state.senders == 0 {
                return Err(RecvError);
            }
            state = self.shared.park(state);
        }
    }

    /// Blocking receive with a timeout.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let deadline = Instant::now() + timeout;
        let mut state = self.shared.lock();
        loop {
            if let Some(v) = state.queue.pop_front() {
                return Ok(v);
            }
            if state.senders == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(RecvTimeoutError::Timeout);
            }
            state = self.shared.park_timeout(state, deadline - now);
        }
    }

    /// Non-blocking batch receive: pops up to `max` queued messages under one
    /// lock acquisition. Returns an empty vector when nothing is queued (the
    /// disconnect state is *not* reported here; use the blocking variants).
    pub fn try_recv_many(&self, max: usize) -> Vec<T> {
        if max == 0 {
            return Vec::new();
        }
        let mut state = self.shared.lock();
        let n = state.queue.len().min(max);
        state.queue.drain(..n).collect()
    }

    /// Blocking batch receive: waits until at least one message is available
    /// (or the timeout/disconnect), then drains up to `max` messages in the
    /// same lock acquisition — the receiving half of frame batching.
    pub fn recv_many_timeout(&self, timeout: Duration, max: usize) -> Result<Vec<T>, RecvTimeoutError> {
        let deadline = Instant::now() + timeout;
        let mut state = self.shared.lock();
        loop {
            if !state.queue.is_empty() {
                let n = state.queue.len().min(max.max(1));
                return Ok(state.queue.drain(..n).collect());
            }
            if state.senders == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(RecvTimeoutError::Timeout);
            }
            state = self.shared.park_timeout(state, deadline - now);
        }
    }

    /// Blocking fair-share receive: waits until at least one message is
    /// queued, then moves this consumer's share of the queue —
    /// `⌈queued ÷ receivers⌉`, at least 1 and at most `max` — onto the end of
    /// `into`, counted and taken under the same lock acquisition, so a
    /// sibling draining concurrently can never make this consumer over-take.
    /// With one receiver the share is the whole queue (up to `max`); with
    /// `R` receivers and at most `R` messages queued every message goes to
    /// its own consumer, which is what keeps a pool of consumers
    /// work-conserving: nobody idles on a queue whose messages wait behind
    /// each other inside one sibling. The caller owns the buffer, so a
    /// consumer that reuses it allocates nothing per drain. Reports
    /// disconnect like [`Receiver::recv`].
    pub fn recv_share(&self, max: usize, into: &mut Vec<T>) -> Result<(), RecvError> {
        let mut state = self.shared.lock();
        loop {
            if !state.queue.is_empty() {
                let n = fair_share(state.queue.len(), state.receivers, max);
                into.extend(state.queue.drain(..n));
                return Ok(());
            }
            if state.senders == 0 {
                return Err(RecvError);
            }
            state = self.shared.park(state);
        }
    }

    /// Number of queued messages (approximate under concurrency).
    pub fn len(&self) -> usize {
        self.shared.lock().queue.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One consumer's share of `queued` messages among `receivers` consumers
/// (at least the caller itself), capped at `max`; never 0, so a woken
/// consumer always makes progress.
fn fair_share(queued: usize, receivers: usize, max: usize) -> usize {
    queued.div_ceil(receivers).clamp(1, max.max(1))
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.shared.lock().receivers += 1;
        Receiver { shared: Arc::clone(&self.shared) }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut state = self.shared.lock();
        state.receivers -= 1;
        if state.receivers == 0 {
            // No consumer will ever drain these; free them eagerly so a
            // shut-down mailbox does not pin large envelopes.
            state.queue.clear();
        }
    }
}

impl<T> std::fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sender").field("len", &self.len()).finish()
    }
}

impl<T> std::fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Receiver").field("len", &self.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread;

    #[test]
    fn send_and_receive_in_order() {
        let (tx, rx) = unbounded();
        for i in 0..10 {
            tx.send(i).unwrap();
        }
        for i in 0..10 {
            assert_eq!(rx.try_recv(), Ok(i));
        }
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    }

    #[test]
    fn mpmc_fan_in_fan_out_delivers_each_message_once() {
        let (tx, rx) = unbounded::<u64>();
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let tx = tx.clone();
                thread::spawn(move || {
                    for i in 0..1_000u64 {
                        tx.send(p * 1_000 + i).unwrap();
                    }
                })
            })
            .collect();
        drop(tx);
        let received = Arc::new(AtomicUsize::new(0));
        let sum = Arc::new(AtomicUsize::new(0));
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let rx = rx.clone();
                let received = Arc::clone(&received);
                let sum = Arc::clone(&sum);
                thread::spawn(move || {
                    while let Ok(v) = rx.recv() {
                        received.fetch_add(1, Ordering::Relaxed);
                        sum.fetch_add(v as usize, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        for c in consumers {
            c.join().unwrap();
        }
        assert_eq!(received.load(Ordering::Relaxed), 4_000);
        // Each message delivered exactly once: the sum identifies the set.
        let expected: usize = (0..4u64).flat_map(|p| (0..1_000).map(move |i| (p * 1_000 + i) as usize)).sum();
        assert_eq!(sum.load(Ordering::Relaxed), expected);
    }

    #[test]
    fn recv_timeout_expires_when_no_message_arrives() {
        let (tx, rx) = unbounded::<u8>();
        let start = Instant::now();
        assert_eq!(rx.recv_timeout(Duration::from_millis(30)), Err(RecvTimeoutError::Timeout));
        assert!(start.elapsed() >= Duration::from_millis(30));
        drop(tx);
    }

    #[test]
    fn recv_timeout_wakes_on_message() {
        let (tx, rx) = unbounded();
        let sender = thread::spawn(move || {
            thread::sleep(Duration::from_millis(10));
            tx.send(42u32).unwrap();
        });
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(42));
        sender.join().unwrap();
    }

    #[test]
    fn dropping_all_senders_disconnects_after_drain() {
        let (tx, rx) = unbounded();
        let tx2 = tx.clone();
        tx.send(1).unwrap();
        drop(tx);
        // A sender is still alive: empty means Empty once drained.
        assert_eq!(rx.try_recv(), Ok(1));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        tx2.send(2).unwrap();
        drop(tx2);
        // Queued messages survive the disconnect, then it surfaces.
        assert_eq!(rx.try_recv(), Ok(2));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        assert_eq!(rx.recv_timeout(Duration::from_millis(5)), Err(RecvTimeoutError::Disconnected));
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn dropping_all_receivers_fails_sends() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        assert!(!tx.is_disconnected());
        drop(rx);
        assert!(tx.is_disconnected());
        assert_eq!(tx.send(2), Err(SendError(2)));
    }

    #[test]
    fn blocked_recv_wakes_on_sender_disconnect() {
        let (tx, rx) = unbounded::<u8>();
        let waiter = thread::spawn(move || rx.recv());
        thread::sleep(Duration::from_millis(10));
        drop(tx);
        assert_eq!(waiter.join().unwrap(), Err(RecvError));
    }

    #[test]
    fn send_batch_is_contiguous_and_ordered() {
        let (tx, rx) = unbounded();
        tx.send(0u64).unwrap();
        tx.send_batch(vec![1, 2, 3]).unwrap();
        tx.send_batch(Vec::new()).unwrap(); // empty batch is a no-op
        tx.send(4).unwrap();
        let got = rx.try_recv_many(16);
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
        assert!(rx.try_recv_many(4).is_empty());
    }

    #[test]
    fn send_batch_fails_when_all_receivers_are_gone() {
        let (tx, rx) = unbounded();
        drop(rx);
        assert_eq!(tx.send_batch(vec![1, 2]), Err(SendError(vec![1, 2])));
    }

    #[test]
    fn recv_many_timeout_drains_up_to_max() {
        let (tx, rx) = unbounded();
        tx.send_batch((0..10u64).collect()).unwrap();
        assert_eq!(rx.recv_many_timeout(Duration::from_secs(1), 4).unwrap(), vec![0, 1, 2, 3]);
        assert_eq!(rx.recv_many_timeout(Duration::from_secs(1), 100).unwrap(), (4..10).collect::<Vec<_>>());
        assert_eq!(rx.recv_many_timeout(Duration::from_millis(5), 4), Err(RecvTimeoutError::Timeout));
        drop(tx);
        assert_eq!(rx.recv_many_timeout(Duration::from_millis(5), 4), Err(RecvTimeoutError::Disconnected));
    }

    #[test]
    fn recv_many_timeout_wakes_on_batched_send() {
        let (tx, rx) = unbounded();
        let sender = thread::spawn(move || {
            thread::sleep(Duration::from_millis(10));
            tx.send_batch(vec![7u32, 8, 9]).unwrap();
        });
        let got = rx.recv_many_timeout(Duration::from_secs(5), 8).unwrap();
        assert_eq!(got, vec![7, 8, 9]);
        sender.join().unwrap();
    }

    /// `count` consumers of one queue preloaded with `0..queued`.
    fn preloaded(queued: u64, count: usize) -> (Sender<u64>, Vec<Receiver<u64>>) {
        let (tx, rx) = unbounded();
        tx.send_batch((0..queued).collect()).unwrap();
        let mut consumers = vec![rx];
        while consumers.len() < count {
            consumers.push(consumers[0].clone());
        }
        (tx, consumers)
    }

    #[test]
    fn recv_share_takes_queued_over_receivers_rounded_up_and_capped() {
        for (queued, receivers, max, share) in
            [(8, 8, 16, 1), (9, 8, 16, 2), (64, 8, 16, 8), (64, 1, 16, 16), (3, 1, 16, 3), (5, 8, 1, 1)]
        {
            let (_tx, consumers) = preloaded(queued, receivers);
            let mut got = Vec::new();
            consumers[0].recv_share(max, &mut got).unwrap();
            assert_eq!(got, (0..share).collect::<Vec<_>>(), "share of ({queued}, {receivers}, {max})");
            assert_eq!(consumers[0].len() as u64, queued - share, "the rest stays queued for the siblings");
        }
        // A zero cap still makes progress, like `recv_many_timeout`.
        let (_tx, consumers) = preloaded(4, 1);
        let mut got = Vec::new();
        consumers[0].recv_share(0, &mut got).unwrap();
        assert_eq!(got, vec![0]);
    }

    #[test]
    fn recv_share_blocks_on_empty_and_reports_disconnect_like_recv() {
        let (tx, rx) = unbounded();
        let waiter = thread::spawn(move || {
            let mut got = Vec::new();
            (rx.recv_share(4, &mut got), rx.recv_share(4, &mut got), got)
        });
        thread::sleep(Duration::from_millis(10));
        tx.send(7u32).unwrap();
        drop(tx);
        // Queued messages survive the disconnect, then it surfaces.
        assert_eq!(waiter.join().unwrap(), (Ok(()), Err(RecvError), vec![7]));
    }

    #[test]
    fn racing_recv_share_consumers_deliver_each_message_once_and_never_over_take() {
        const TOTAL: u64 = 10_000;
        const CONSUMERS: usize = 8;
        const MAX: usize = 16;
        let (tx, consumers) = preloaded(TOTAL, CONSUMERS);
        drop(tx);
        let start = Arc::new(std::sync::Barrier::new(CONSUMERS));
        let threads: Vec<_> = consumers
            .into_iter()
            .map(|rx| {
                let start = Arc::clone(&start);
                thread::spawn(move || {
                    start.wait();
                    let mut drains = Vec::new();
                    let mut got = Vec::new();
                    while rx.recv_share(MAX, &mut got).is_ok() {
                        drains.push(std::mem::take(&mut got));
                    }
                    // Every receiver stays alive until the queue is empty,
                    // so each drain below was shared among all of them.
                    start.wait();
                    drains
                })
            })
            .collect();
        let mut seen = vec![false; TOTAL as usize];
        for t in threads {
            for drain in t.join().unwrap() {
                // Nothing is sent after the preload, so a drain that starts
                // at message `first` saw exactly `TOTAL - first` queued.
                let queued = (TOTAL - drain[0]) as usize;
                assert_eq!(drain.len(), fair_share(queued, CONSUMERS, MAX), "drain at {} of {queued} queued", drain[0]);
                for (i, v) in drain.iter().enumerate() {
                    assert_eq!(*v, drain[0] + i as u64, "a drain is contiguous");
                    assert!(!std::mem::replace(&mut seen[*v as usize], true), "message {v} delivered twice");
                }
            }
        }
        assert!(seen.iter().all(|&s| s), "every message delivered");
    }

    /// Runs 4 producers mixing `send` and `send_batch` in bursts against
    /// one consumer per entry of `kinds` (0 = `recv`, 1 = `recv_timeout`,
    /// 2 = `recv_many_timeout`, 3 = `recv_share`), then checks every message
    /// was delivered exactly once and every consumer returned on the
    /// disconnect within the deadline.
    fn stress(kinds: &[u8]) {
        const PRODUCERS: u64 = 4;
        const PER_PRODUCER: u64 = 20_000;
        let (tx, rx) = unbounded::<u64>();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<Vec<u64>>();
        for &kind in kinds {
            let rx = rx.clone();
            let done_tx = done_tx.clone();
            thread::spawn(move || {
                let mut got = Vec::new();
                // Short enough that waits also end on the timeout path.
                let short = Duration::from_micros(50);
                loop {
                    match kind {
                        0 => match rx.recv() {
                            Ok(v) => got.push(v),
                            Err(RecvError) => break,
                        },
                        1 => match rx.recv_timeout(short) {
                            Ok(v) => got.push(v),
                            Err(RecvTimeoutError::Timeout) => {}
                            Err(RecvTimeoutError::Disconnected) => break,
                        },
                        2 => match rx.recv_many_timeout(short, 8) {
                            Ok(batch) => got.extend(batch),
                            Err(RecvTimeoutError::Timeout) => {}
                            Err(RecvTimeoutError::Disconnected) => break,
                        },
                        _ => {
                            if rx.recv_share(8, &mut got).is_err() {
                                break;
                            }
                        }
                    }
                }
                done_tx.send(got).unwrap();
            });
        }
        drop((rx, done_tx));
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let tx = tx.clone();
                thread::spawn(move || {
                    let mut next = p * PER_PRODUCER;
                    let end = next + PER_PRODUCER;
                    let mut burst = 0u64;
                    while next < end {
                        let len = (1 + burst % 7).min(end - next);
                        if burst.is_multiple_of(2) {
                            for v in next..next + len {
                                tx.send(v).unwrap();
                            }
                        } else {
                            tx.send_batch((next..next + len).collect()).unwrap();
                        }
                        next += len;
                        burst += 1;
                        // Pause now and then so the consumers drain the
                        // queue and park.
                        if burst.is_multiple_of(16) {
                            thread::sleep(Duration::from_micros(20));
                        }
                    }
                })
            })
            .collect();
        drop(tx);
        for p in producers {
            p.join().unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut seen = vec![false; (PRODUCERS * PER_PRODUCER) as usize];
        for returned in 0..kinds.len() {
            let got = done_rx
                .recv_timeout(deadline.saturating_duration_since(Instant::now()))
                .unwrap_or_else(|_| panic!("{kinds:?}: {} consumers still blocked", kinds.len() - returned));
            for v in got {
                assert!(!std::mem::replace(&mut seen[v as usize], true), "{kinds:?}: message {v} delivered twice");
            }
        }
        assert!(seen.iter().all(|&s| s), "{kinds:?}: every message delivered");
    }

    /// The wake rule under stress: every blocking receive parks, the timed
    /// ones also leave `parked` on the timeout path. A notify skipped while
    /// a receiver slept would strand it; the second round has no timed
    /// consumer whose own wake-ups could hide that.
    #[test]
    fn wake_rule_stress_delivers_every_message_once_and_loses_no_wake_up() {
        stress(&[0, 1, 2, 3]);
        stress(&[0, 3, 0, 3]);
    }

    #[test]
    fn len_tracks_queue_depth() {
        let (tx, rx) = unbounded();
        assert!(rx.is_empty());
        for i in 0..5 {
            tx.send(i).unwrap();
        }
        assert_eq!(rx.len(), 5);
        assert_eq!(tx.len(), 5);
        let _ = rx.try_recv();
        assert_eq!(rx.len(), 4);
    }
}
