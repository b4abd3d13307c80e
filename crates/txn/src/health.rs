//! Per-switch health accounting: the circuit breaker that guards the hot
//! path and the in-doubt ledger consumed by the resolver.
//!
//! The paper's premise — routing hot transactions through an in-network
//! accelerator — makes each switch a single point of failure for its slice
//! of the hot set. This module is the detection half of the self-healing
//! story: workers feed per-switch success/failure observations into a
//! deterministic Closed → Open → Half-Open breaker
//! ([`BreakerState`]), and every in-doubt outcome (intent logged, reply
//! lost) is parked in a ledger ([`InDoubtEntry`]) for definitive
//! resolution against the switch's audit log later.
//!
//! Division of labour:
//! - **This module** is pure bookkeeping — no I/O, no knowledge of the
//!   fabric. That keeps the breaker state machine property-testable.
//! - The **executor** consults [`SwitchHealth::is_open`] before sending a
//!   hot packet (fast-fail, no intent in flight) and
//!   [`SwitchHealth::is_degraded`] at classification (demote to the host
//!   2PL path once degraded mode is up).
//! - The **supervisor** (core crate) drives probes, degrade, recovery and
//!   re-admission, closing the loop.

use crate::request::TxnOp;
use p4db_common::sync::unpoison;
use p4db_common::{NodeId, SwitchId, TxnId};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// Consecutive switch failures (timeouts / in-doubt outcomes) that trip a
/// breaker Closed → Open. Deterministic thresholds — no wall-clock decay —
/// so chaos runs reproduce bit-for-bit from a seed.
pub const TRIP_THRESHOLD: u32 = 4;

/// Consecutive successful probes in Half-Open required before the
/// supervisor may close a breaker and re-admit traffic.
pub const CLOSE_THRESHOLD: u32 = 3;

/// The three breaker states.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum BreakerState {
    /// Healthy: hot traffic flows to the switch.
    Closed,
    /// Tripped: hot sends fast-fail, the supervisor degrades and probes.
    Open,
    /// A probe got through: counting consecutive probe successes toward
    /// re-admission.
    HalfOpen,
}

/// Pure breaker state machine. All transitions are driven by explicit
/// observations — no timers — so the whole space is enumerable in tests.
#[derive(Clone, Debug)]
pub(crate) struct BreakerCore {
    state: BreakerState,
    consecutive_failures: u32,
    consecutive_probe_oks: u32,
}

impl BreakerCore {
    pub fn new() -> Self {
        BreakerCore { state: BreakerState::Closed, consecutive_failures: 0, consecutive_probe_oks: 0 }
    }

    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// A switch interaction failed (timeout or in-doubt). Returns `true`
    /// exactly when this observation trips the breaker (a transition into
    /// `Open` from a non-`Open` state).
    pub fn on_failure(&mut self) -> bool {
        match self.state {
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= TRIP_THRESHOLD {
                    self.state = BreakerState::Open;
                    self.consecutive_failures = 0;
                    self.consecutive_probe_oks = 0;
                    true
                } else {
                    false
                }
            }
            // A real transaction failing during half-open re-trips
            // immediately: the recovery was premature.
            BreakerState::HalfOpen => {
                self.state = BreakerState::Open;
                self.consecutive_probe_oks = 0;
                true
            }
            BreakerState::Open => false,
        }
    }

    /// A switch interaction succeeded: a healthy reply clears the failure
    /// streak (only consecutive failures trip).
    pub fn on_success(&mut self) {
        if self.state == BreakerState::Closed {
            self.consecutive_failures = 0;
        }
    }

    /// A heartbeat probe was answered. Open → Half-Open (the answered probe
    /// counts as the first success); in Half-Open the streak grows.
    pub fn probe_ok(&mut self) {
        match self.state {
            BreakerState::Open => {
                self.state = BreakerState::HalfOpen;
                self.consecutive_probe_oks = 1;
            }
            BreakerState::HalfOpen => self.consecutive_probe_oks += 1,
            BreakerState::Closed => {}
        }
    }

    /// A heartbeat probe went unanswered: any half-open progress is lost.
    pub fn probe_failed(&mut self) {
        if self.state == BreakerState::HalfOpen {
            self.state = BreakerState::Open;
            self.consecutive_probe_oks = 0;
        }
    }

    /// Whether the half-open streak has reached the close threshold.
    pub fn ready_to_close(&self) -> bool {
        self.state == BreakerState::HalfOpen && self.consecutive_probe_oks >= CLOSE_THRESHOLD
    }

    /// Closes the breaker (re-admission complete). Idempotent when already
    /// closed.
    pub fn close(&mut self) {
        if self.state != BreakerState::Closed {
            self.state = BreakerState::Closed;
            self.consecutive_failures = 0;
            self.consecutive_probe_oks = 0;
        }
    }
}

/// One unresolved in-doubt outcome: the intent reached the coordinator WAL
/// (record index `logged_at` on `node`), the packet went out, and no reply
/// came back. The switch either executed it or never saw it — the resolver
/// finds out which.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct InDoubtEntry {
    pub switch: SwitchId,
    pub txn: TxnId,
    pub node: NodeId,
    /// Coordinator WAL length right after the intent was appended. Compared
    /// against the recovery fence to detect intents already folded into a
    /// WAL-reconstruction of the switch state.
    pub logged_at: usize,
    /// The sub-transaction's operation footprint, self-contained
    /// (`operand_from` remapped to positions within this list). When the
    /// switch confirms the intent never executed, the resolver replays these
    /// as an ordinary host transaction.
    pub ops: Vec<TxnOp>,
}

/// Shared per-switch health state, owned by `EngineShared`. Hot-path reads
/// (`is_open` / `is_degraded`) are single atomic loads; state transitions
/// take the per-switch breaker mutex.
pub struct SwitchHealth {
    /// Whether failures count: set by [`SwitchHealth::arm`] (the supervisor
    /// arms the breakers when it starts, since only it closes an open one)
    /// and never cleared. Unarmed, no breaker trips, so none is open.
    armed: AtomicBool,
    breakers: Vec<Mutex<BreakerCore>>,
    /// Lock-free mirror of `state == Open || state == HalfOpen` per switch —
    /// consulted before every hot send.
    open: Vec<AtomicBool>,
    /// Set once degraded mode is up (host rows reconstructed, index
    /// swapped): only then does classification demote the switch's tuples.
    degraded: Vec<AtomicBool>,
    /// In-doubt outcomes observed per switch (monotonic; resolution does not
    /// decrement — the resolver reports its own outcome counts).
    in_doubt: Vec<AtomicU64>,
    trips: AtomicU64,
    ledger: Mutex<Vec<InDoubtEntry>>,
    /// Per-switch recovery fence: the per-node WAL lengths captured when the
    /// switch's state was last WAL-reconstructed. Intents logged strictly
    /// before the fence are already folded into the reconstruction.
    fences: Mutex<Vec<Vec<usize>>>,
}

impl SwitchHealth {
    /// Unarmed health state for `num_switches` switches and `num_nodes` logs.
    pub fn new(num_switches: usize, num_nodes: usize) -> Self {
        SwitchHealth {
            armed: AtomicBool::new(false),
            breakers: (0..num_switches).map(|_| Mutex::new(BreakerCore::new())).collect(),
            open: (0..num_switches).map(|_| AtomicBool::new(false)).collect(),
            degraded: (0..num_switches).map(|_| AtomicBool::new(false)).collect(),
            in_doubt: (0..num_switches).map(|_| AtomicU64::new(0)).collect(),
            trips: AtomicU64::new(0),
            ledger: Mutex::new(Vec::new()),
            fences: Mutex::new(vec![vec![0; num_nodes]; num_switches]),
        }
    }

    pub fn num_switches(&self) -> usize {
        self.breakers.len()
    }

    /// Arms the breakers: from now on failures count and can trip one. The
    /// flag publishes no other data, so its ordering is relaxed.
    pub fn arm(&self) {
        self.armed.store(true, Ordering::Relaxed);
    }

    /// Whether the breaker is open (or half-open): hot sends must fast-fail.
    pub fn is_open(&self, switch: SwitchId) -> bool {
        self.open[switch.index()].load(Ordering::Acquire)
    }

    /// Whether degraded mode is up for this switch: classification demotes
    /// its tuples to the host path.
    pub fn is_degraded(&self, switch: SwitchId) -> bool {
        self.degraded[switch.index()].load(Ordering::Acquire)
    }

    pub fn set_degraded(&self, switch: SwitchId, value: bool) {
        self.degraded[switch.index()].store(value, Ordering::Release);
    }

    /// Records a failed switch interaction. Returns `true` when this
    /// observation trips the breaker (the caller owns the open→degrade
    /// follow-up).
    pub fn record_failure(&self, switch: SwitchId) -> bool {
        if !self.armed.load(Ordering::Relaxed) {
            return false;
        }
        let mut breaker = unpoison(self.breakers[switch.index()].lock());
        let tripped = breaker.on_failure();
        if tripped {
            self.open[switch.index()].store(true, Ordering::Release);
            self.trips.fetch_add(1, Ordering::Relaxed);
        }
        tripped
    }

    /// Records a healthy switch reply (clears the failure streak).
    pub fn record_success(&self, switch: SwitchId) {
        if !self.armed.load(Ordering::Relaxed) {
            return;
        }
        unpoison(self.breakers[switch.index()].lock()).on_success();
    }

    /// Feeds a probe outcome into the breaker.
    pub fn probe_outcome(&self, switch: SwitchId, answered: bool) {
        let mut breaker = unpoison(self.breakers[switch.index()].lock());
        if answered {
            breaker.probe_ok();
        } else {
            breaker.probe_failed();
        }
    }

    /// Whether the half-open streak has earned re-admission.
    pub fn ready_to_close(&self, switch: SwitchId) -> bool {
        unpoison(self.breakers[switch.index()].lock()).ready_to_close()
    }

    /// Closes the breaker after re-admission: hot sends flow again.
    pub fn close(&self, switch: SwitchId) {
        let mut breaker = unpoison(self.breakers[switch.index()].lock());
        breaker.close();
        self.open[switch.index()].store(false, Ordering::Release);
    }

    pub fn state(&self, switch: SwitchId) -> BreakerState {
        unpoison(self.breakers[switch.index()].lock()).state()
    }

    /// Total breaker trips across all switches.
    pub fn trips(&self) -> u64 {
        self.trips.load(Ordering::Relaxed)
    }

    /// Parks an in-doubt outcome for later resolution.
    pub fn note_in_doubt(&self, entry: InDoubtEntry) {
        self.in_doubt[entry.switch.index()].fetch_add(1, Ordering::Relaxed);
        unpoison(self.ledger.lock()).push(entry);
    }

    /// In-doubt outcomes observed so far, per switch.
    pub fn in_doubt_per_switch(&self) -> Vec<u64> {
        self.in_doubt.iter().map(|c| c.load(Ordering::Relaxed)).collect()
    }

    /// Drains the unresolved ledger (the resolver re-parks what it cannot
    /// settle via [`SwitchHealth::park_unresolved`]).
    pub fn take_ledger(&self) -> Vec<InDoubtEntry> {
        std::mem::take(&mut *unpoison(self.ledger.lock()))
    }

    /// Number of entries currently awaiting resolution.
    pub fn ledger_len(&self) -> usize {
        unpoison(self.ledger.lock()).len()
    }

    /// Returns entries the resolver could not settle to the ledger.
    pub fn park_unresolved(&self, entries: impl IntoIterator<Item = InDoubtEntry>) {
        unpoison(self.ledger.lock()).extend(entries);
    }

    /// Records the per-node WAL fence captured when `switch`'s state was
    /// WAL-reconstructed (degrade or recovery): intents logged before the
    /// fence are already folded into the reconstruction.
    pub fn set_fence(&self, switch: SwitchId, per_node_wal_lens: Vec<usize>) {
        unpoison(self.fences.lock())[switch.index()] = per_node_wal_lens;
    }

    /// The fence for (`switch`, `node`); 0 until a reconstruction happens.
    pub fn fence(&self, switch: SwitchId, node: NodeId) -> usize {
        unpoison(self.fences.lock())[switch.index()].get(node.index()).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breaker_walks_closed_open_halfopen_closed() {
        let mut b = BreakerCore::new();
        assert_eq!(b.state(), BreakerState::Closed);
        for _ in 1..TRIP_THRESHOLD {
            assert!(!b.on_failure());
        }
        assert!(b.on_failure(), "the TRIP_THRESHOLD-th consecutive failure trips");
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.on_failure(), "already open: no second trip signal");

        for _ in 1..CLOSE_THRESHOLD {
            b.probe_ok();
            assert_eq!(b.state(), BreakerState::HalfOpen);
            assert!(!b.ready_to_close(), "fewer than CLOSE_THRESHOLD answered probes");
        }
        b.probe_ok();
        assert!(b.ready_to_close());
        b.close();
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn successes_reset_the_failure_streak() {
        let mut b = BreakerCore::new();
        for _ in 0..100 {
            for _ in 1..TRIP_THRESHOLD {
                assert!(!b.on_failure());
            }
            b.on_success();
        }
        assert_eq!(b.state(), BreakerState::Closed, "never TRIP_THRESHOLD in a row: never trips");
    }

    #[test]
    fn halfopen_failure_or_failed_probe_reopens_and_resets_the_streak() {
        let mut b = BreakerCore::new();
        for _ in 1..TRIP_THRESHOLD {
            b.on_failure();
        }
        assert!(b.on_failure());
        for _ in 1..CLOSE_THRESHOLD {
            b.probe_ok();
        }
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.probe_failed();
        assert_eq!(b.state(), BreakerState::Open, "failed probe loses all half-open progress");

        b.probe_ok();
        assert!(b.on_failure(), "a real txn failure during half-open re-trips");
        assert_eq!(b.state(), BreakerState::Open);
        for _ in 1..CLOSE_THRESHOLD {
            b.probe_ok();
            assert!(!b.ready_to_close(), "streak restarted from one");
        }
        b.probe_ok();
        assert!(b.ready_to_close());
    }

    /// Exhaustive property sweep: for every observation sequence of length 9
    /// drawn from a 4-symbol alphabet — long enough to trip at
    /// `TRIP_THRESHOLD` and earn re-admission at `CLOSE_THRESHOLD` — the
    /// breaker obeys its invariants. Deterministic — no randomness.
    #[test]
    fn breaker_property_sweep_holds_invariants() {
        #[derive(Copy, Clone, Debug)]
        enum Obs {
            Fail,
            Ok,
            ProbeOk,
            ProbeFail,
        }
        const ALPHABET: [Obs; 4] = [Obs::Fail, Obs::Ok, Obs::ProbeOk, Obs::ProbeFail];
        const LEN: usize = 9;

        // Enumerate all 4^LEN observation sequences via counting.
        for seq_id in 0..4usize.pow(LEN as u32) {
            let mut b = BreakerCore::new();
            let mut id = seq_id;
            for _ in 0..LEN {
                let obs = ALPHABET[id % 4];
                id /= 4;
                let before = b.state();
                match obs {
                    Obs::Fail => {
                        let tripped = b.on_failure();
                        // The trip signal fires iff we entered Open.
                        assert_eq!(tripped, before != BreakerState::Open && b.state() == BreakerState::Open);
                    }
                    Obs::Ok => {
                        b.on_success();
                        assert_eq!(b.state(), before, "on_success never changes state");
                    }
                    Obs::ProbeOk => {
                        b.probe_ok();
                        match before {
                            BreakerState::Open => assert_eq!(b.state(), BreakerState::HalfOpen),
                            s => assert_eq!(b.state(), s),
                        }
                    }
                    Obs::ProbeFail => {
                        b.probe_failed();
                        match before {
                            BreakerState::HalfOpen => assert_eq!(b.state(), BreakerState::Open),
                            s => assert_eq!(b.state(), s),
                        }
                    }
                }
                // ready_to_close implies HalfOpen, always.
                if b.ready_to_close() {
                    assert_eq!(b.state(), BreakerState::HalfOpen);
                }
            }
            // Closing from any state is safe and lands Closed.
            b.close();
            assert_eq!(b.state(), BreakerState::Closed);
        }
    }

    #[test]
    fn an_unarmed_breaker_never_trips_or_opens() {
        let health = SwitchHealth::new(2, 2);
        let s = SwitchId(0);
        for _ in 0..1000 {
            assert!(!health.record_failure(s));
        }
        assert!(!health.is_open(s));
        assert!(!health.is_degraded(s));
        assert_eq!(health.trips(), 0);
    }

    #[test]
    fn switch_health_tracks_per_switch_state_independently() {
        let health = SwitchHealth::new(2, 3);
        health.arm();
        let (a, b) = (SwitchId(0), SwitchId(1));
        for _ in 1..TRIP_THRESHOLD {
            assert!(!health.record_failure(a));
        }
        assert!(health.record_failure(a));
        assert!(health.is_open(a));
        assert!(!health.is_open(b), "switch 1 unaffected");
        assert_eq!(health.trips(), 1);

        for _ in 0..CLOSE_THRESHOLD {
            health.probe_outcome(a, true);
            assert_eq!(health.state(a), BreakerState::HalfOpen);
            assert!(health.is_open(a), "half-open still fast-fails real traffic");
        }
        assert!(health.ready_to_close(a));
        health.close(a);
        assert!(!health.is_open(a));
        assert_eq!(health.state(a), BreakerState::Closed);
    }

    #[test]
    fn ledger_and_fences_round_trip() {
        let health = SwitchHealth::new(1, 2);
        let entry =
            InDoubtEntry { switch: SwitchId(0), txn: TxnId(7), node: NodeId(1), logged_at: 42, ops: Vec::new() };
        health.note_in_doubt(entry.clone());
        assert_eq!(health.in_doubt_per_switch(), vec![1]);
        assert_eq!(health.ledger_len(), 1);
        let drained = health.take_ledger();
        assert_eq!(drained, vec![entry]);
        assert_eq!(health.ledger_len(), 0);
        health.park_unresolved(drained);
        assert_eq!(health.ledger_len(), 1);
        assert_eq!(health.in_doubt_per_switch(), vec![1], "re-parking does not double-count");

        assert_eq!(health.fence(SwitchId(0), NodeId(1)), 0);
        health.set_fence(SwitchId(0), vec![10, 50]);
        assert_eq!(health.fence(SwitchId(0), NodeId(0)), 10);
        assert_eq!(health.fence(SwitchId(0), NodeId(1)), 50);
    }
}
