//! A typed, multi-endpoint message fabric backed by lock-free channels.
//!
//! Endpoints register once at cluster construction time; afterwards sending
//! is wait-free apart from the imposed wire latency. Receivers own a
//! [`Mailbox`] and poll or block on it. The switch's ingress port, every
//! worker's response port, and every node's 2PC control port are fabric
//! endpoints.
//!
//! An endpoint registered with a [`Pump`] ([`Fabric::register_pumped`]) is
//! served by whoever delivers to it: every delivery queues the message and
//! then runs the pump on the delivering thread, outside the registry lock.
//! The switch uses this to run its pipeline on the sender's thread instead
//! of waking a thread of its own for every exchange.
//!
//! The fabric is also the chaos-testing injection point for network faults:
//! when constructed with [`Fabric::with_faults`], every unicast send consults
//! a seeded [`FaultInjector`] which may drop the message (the sender still
//! sees success, exactly like a lost packet), delay it, or hold it back until
//! the next message to the same destination (a reordering).

use crate::endpoint::EndpointId;
use crate::latency::LatencyModel;
use crate::message::Envelope;
use p4db_common::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use p4db_common::faults::{FaultAction, FaultEvent, FaultInjector};
use p4db_common::hash::FastMap;
use p4db_common::simtime::wait_for;
use p4db_common::sync::unpoison;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Outcome of a timed receive, distinguishing "nothing arrived in time" from
/// "no sender can ever deliver again". The distinction matters to
/// fault-injection clients: a timeout means the request (or its reply) may
/// have been lost on the wire and the transaction is *in doubt*, while a
/// disconnect means the cluster is shutting down.
#[derive(Debug, PartialEq)]
pub enum RecvOutcome<M> {
    /// A message arrived.
    Msg(Envelope<M>),
    /// The timeout elapsed with senders still connected.
    TimedOut,
    /// Every sender has been dropped and the queue is drained.
    Disconnected,
}

impl<M> RecvOutcome<M> {
    /// The received envelope, if any — convenient for tests and callers that
    /// treat both failure modes alike.
    pub fn msg(self) -> Option<Envelope<M>> {
        match self {
            RecvOutcome::Msg(env) => Some(env),
            RecvOutcome::TimedOut | RecvOutcome::Disconnected => None,
        }
    }

    pub fn is_timeout(&self) -> bool {
        matches!(self, RecvOutcome::TimedOut)
    }

    pub fn is_disconnected(&self) -> bool {
        matches!(self, RecvOutcome::Disconnected)
    }
}

/// Outcome of a timed **batch** receive ([`Mailbox::recv_batch_timeout`]):
/// like [`RecvOutcome`], but a successful receive carries a whole frame of
/// envelopes drained in one channel operation. The frame is never empty.
#[derive(Debug, PartialEq)]
pub enum BatchRecvOutcome<M> {
    /// At least one message arrived; up to `max` were drained together.
    Frame(Vec<Envelope<M>>),
    /// The timeout elapsed with senders still connected.
    TimedOut,
    /// Every sender has been dropped and the queue is drained.
    Disconnected,
}

impl<M> BatchRecvOutcome<M> {
    pub fn is_disconnected(&self) -> bool {
        matches!(self, BatchRecvOutcome::Disconnected)
    }
}

/// The receiving end of a fabric endpoint.
#[derive(Debug)]
pub struct Mailbox<M> {
    id: EndpointId,
    rx: Receiver<Envelope<M>>,
}

impl<M> Mailbox<M> {
    /// The endpoint this mailbox belongs to.
    pub fn id(&self) -> EndpointId {
        self.id
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<Envelope<M>> {
        self.rx.try_recv().ok()
    }

    /// Blocking receive with a timeout, reporting timeout and sender
    /// disconnect as distinct outcomes.
    pub fn recv_timeout(&self, timeout: Duration) -> RecvOutcome<M> {
        match self.rx.recv_timeout(timeout) {
            Ok(env) => RecvOutcome::Msg(env),
            Err(RecvTimeoutError::Timeout) => RecvOutcome::TimedOut,
            Err(RecvTimeoutError::Disconnected) => RecvOutcome::Disconnected,
        }
    }

    /// Receives until `accept` takes a message or `deadline` passes. Every
    /// message `accept` declines is dropped: a stale reply to an earlier,
    /// timed-out request, or one meant for no waiter.
    pub fn recv_until<T>(
        &self,
        deadline: Instant,
        mut accept: impl FnMut(M) -> Option<T>,
    ) -> Result<T, RecvTimeoutError> {
        loop {
            let env = self.rx.recv_timeout(deadline.saturating_duration_since(Instant::now()))?;
            if let Some(taken) = accept(env.payload) {
                return Ok(taken);
            }
        }
    }

    /// Blocking receive; returns `None` only when every sender is gone.
    pub fn recv(&self) -> Option<Envelope<M>> {
        self.rx.recv().ok()
    }

    /// Non-blocking batch receive: drains up to `max` queued envelopes in a
    /// single channel operation. The batched counterpart of [`Mailbox::try_recv`].
    pub fn drain_batch(&self, max: usize) -> Vec<Envelope<M>> {
        self.rx.try_recv_many(max)
    }

    /// Blocking batch receive: waits for at least one envelope (up to
    /// `timeout`), then drains up to `max` envelopes in the same channel
    /// operation. This is how the switch ingress pulls a whole frame of
    /// packets per scheduling quantum instead of paying one lock + wake-up
    /// per packet.
    pub fn recv_batch_timeout(&self, timeout: Duration, max: usize) -> BatchRecvOutcome<M> {
        match self.rx.recv_many_timeout(timeout, max) {
            Ok(frame) => BatchRecvOutcome::Frame(frame),
            Err(RecvTimeoutError::Timeout) => BatchRecvOutcome::TimedOut,
            Err(RecvTimeoutError::Disconnected) => BatchRecvOutcome::Disconnected,
        }
    }

    /// Number of queued messages (approximate).
    pub fn len(&self) -> usize {
        self.rx.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rx.is_empty()
    }
}

/// Serves a pumped endpoint's queue; runs on the delivering thread after
/// every delivery to that endpoint.
pub type Pump = Arc<dyn Fn() + Send + Sync>;

/// One registered endpoint: its queue, plus the pump that serves it if it
/// has one.
struct Endpoint<M> {
    tx: Sender<Envelope<M>>,
    pump: Option<Pump>,
}

struct Registry<M> {
    endpoints: FastMap<EndpointId, Endpoint<M>>,
    /// Cached senders of every `EndpointId::Node(_)` endpoint, maintained by
    /// [`Fabric::register`], so the warm-decision multicast does not allocate
    /// (or filter the whole registry) on every call.
    node_senders: Vec<(EndpointId, Sender<Envelope<M>>)>,
    /// The id of the last [`Fabric::control_port`].
    last_control: u32,
}

/// A registered [`EndpointId::Control`] endpoint: its mailbox, which it
/// derefs to. Dropping the port unregisters the endpoint.
pub struct ControlPort<M> {
    mailbox: Mailbox<M>,
    registry: Arc<RwLock<Registry<M>>>,
}

impl<M> std::ops::Deref for ControlPort<M> {
    type Target = Mailbox<M>;

    fn deref(&self) -> &Mailbox<M> {
        &self.mailbox
    }
}

impl<M> Drop for ControlPort<M> {
    fn drop(&mut self) {
        unpoison(self.registry.write()).endpoints.remove(&self.mailbox.id);
    }
}

/// Chaos-testing state attached to a fabric: the seeded fault decision
/// stream plus the per-destination holdback buffer implementing reorders.
struct ChaosState<M> {
    injector: Arc<FaultInjector>,
    held: Mutex<HashMap<EndpointId, Vec<Envelope<M>>>>,
}

/// The fabric: a registry of endpoints plus the latency model. Cloning is
/// cheap and shares the registry, so every worker and every switch engine
/// hold their own handle.
pub struct Fabric<M> {
    registry: Arc<RwLock<Registry<M>>>,
    latency: LatencyModel,
    chaos: Option<Arc<ChaosState<M>>>,
}

impl<M> Clone for Fabric<M> {
    fn clone(&self) -> Self {
        Fabric { registry: Arc::clone(&self.registry), latency: self.latency.clone(), chaos: self.chaos.clone() }
    }
}

impl<M> Fabric<M> {
    pub fn new(latency: LatencyModel) -> Self {
        Fabric {
            registry: Arc::new(RwLock::new(Registry {
                endpoints: FastMap::default(),
                node_senders: Vec::new(),
                last_control: 0,
            })),
            latency,
            chaos: None,
        }
    }

    /// A fabric that routes every unicast send through `injector`.
    pub fn with_faults(latency: LatencyModel, injector: Arc<FaultInjector>) -> Self {
        let chaos = Some(Arc::new(ChaosState { injector, held: Mutex::new(HashMap::new()) }));
        Fabric { chaos, ..Self::new(latency) }
    }

    /// The latency model this fabric uses (shared with direct-call accesses).
    pub fn latency(&self) -> &LatencyModel {
        &self.latency
    }

    /// The fault trace recorded so far (empty without fault injection).
    pub fn fault_trace(&self) -> Vec<FaultEvent> {
        self.chaos.as_ref().map(|c| c.injector.trace()).unwrap_or_default()
    }

    /// Number of faults injected so far.
    pub fn faults_injected(&self) -> u64 {
        self.chaos.as_ref().map(|c| c.injector.injected()).unwrap_or(0)
    }

    /// Messages swallowed by a blackholed switch so far (separate from the
    /// probabilistic fault budget).
    pub fn blackhole_drops(&self) -> u64 {
        self.chaos.as_ref().map(|c| c.injector.blackhole_drops()).unwrap_or(0)
    }

    /// Clears any blackhole targeting `switch` — invoked by switch recovery
    /// / re-admission, the model of replacing the dead hardware.
    pub fn heal_switch(&self, switch: u16) {
        if let Some(chaos) = self.chaos.as_ref() {
            chaos.injector.heal_blackhole(switch);
        }
    }

    /// Whether a blackhole swallows this message. Requests *to* a switch
    /// count toward activation; once active, both directions are dark.
    fn blackholed(&self, chaos: &ChaosState<M>, src: EndpointId, dst: EndpointId, link: &dyn Fn() -> String) -> bool {
        match (src, dst) {
            (_, EndpointId::Switch(s)) => chaos.injector.blackhole_decide(s.0, true, link),
            (EndpointId::Switch(s), _) => chaos.injector.blackhole_decide(s.0, false, link),
            _ => false,
        }
    }

    /// Registers an endpoint and returns its mailbox.
    ///
    /// # Panics
    /// Panics if the endpoint is already registered — endpoint identity is a
    /// construction-time invariant of the cluster.
    pub fn register(&self, id: EndpointId) -> Mailbox<M> {
        self.register_endpoint(id, None)
    }

    /// Registers an endpoint served by `pump`: every delivery to it — a
    /// unicast, a frame, a released held-back message — runs `pump` on the
    /// delivering thread once the message is queued. A message that is
    /// dropped, blackholed or held back is not delivered and does not pump.
    ///
    /// # Panics
    /// Panics if the endpoint is already registered.
    pub fn register_pumped(&self, id: EndpointId, pump: Pump) -> Mailbox<M> {
        self.register_endpoint(id, Some(pump))
    }

    /// Registers a control port with an id no live endpoint has, for
    /// out-of-band traffic such as heartbeat probes. Ids are not reused
    /// until the `u32` space wraps, so a late reply to an earlier port
    /// finds no mailbox.
    pub fn control_port(&self) -> ControlPort<M> {
        let id = {
            let mut reg = unpoison(self.registry.write());
            reg.last_control = reg.last_control.wrapping_add(1);
            EndpointId::Control(reg.last_control)
        };
        ControlPort { mailbox: self.register(id), registry: Arc::clone(&self.registry) }
    }

    fn register_endpoint(&self, id: EndpointId, pump: Option<Pump>) -> Mailbox<M> {
        let (tx, rx) = unbounded();
        let mut reg = unpoison(self.registry.write());
        let prev = reg.endpoints.insert(id, Endpoint { tx: tx.clone(), pump });
        assert!(prev.is_none(), "endpoint {id} registered twice");
        // Keep the multicast cache in sync: registering a node endpoint is
        // the only event that can change the node sender set.
        if matches!(id, EndpointId::Node(_)) {
            reg.node_senders.push((id, tx));
        }
        Mailbox { id, rx }
    }

    /// Sends `payload` from `src` to `dst`, imposing the one-way wire latency
    /// on the *caller* (the sending thread models the NIC serialisation +
    /// propagation delay; the receiver does not pay it again).
    ///
    /// Returns `false` if the destination endpoint is not registered or its
    /// mailbox has been dropped (cluster shutdown).
    pub fn send(&self, src: EndpointId, dst: EndpointId, payload: M) -> bool {
        self.latency.impose(src, dst);
        self.send_no_latency(src, dst, payload)
    }

    /// Sends without imposing latency. Used by the switch egress path, which
    /// accounts for its own delays, and by tests.
    ///
    /// Under fault injection a message may be dropped (the send still
    /// reports success — a lost packet is invisible to the sender), delayed,
    /// or delivered after the next message to the same destination.
    pub fn send_no_latency(&self, src: EndpointId, dst: EndpointId, payload: M) -> bool {
        let Some(chaos) = self.chaos.as_ref() else {
            return self.deliver(src, dst, payload);
        };
        if self.blackholed(chaos, src, dst, &|| format!("{src}->{dst}")) {
            return true;
        }
        match chaos.injector.decide(&|| format!("{src}->{dst}")) {
            FaultAction::Deliver => {}
            FaultAction::Drop => return true,
            FaultAction::Delay(d) => wait_for(d),
            FaultAction::HoldBack => {
                unpoison(chaos.held.lock()).entry(dst).or_default().push(Envelope::new(src, dst, payload));
                return true;
            }
        }
        let sent = self.deliver(src, dst, payload);
        // Release any held messages for this destination *after* the fresh
        // one: the held message has now been overtaken — a reordering.
        let held = unpoison(chaos.held.lock()).remove(&dst);
        if let Some(envelopes) = held {
            for env in envelopes {
                self.deliver(env.src, env.dst, env.payload);
            }
        }
        sent
    }

    /// Sends a whole frame of payloads from `src` to `dst`, imposing the wire
    /// latency **once** for the frame: batching is exactly the amortisation of
    /// per-message costs over a frame, both in the simulator (one channel
    /// operation, one wake-up) and on the modelled wire (one NIC doorbell).
    ///
    /// An empty frame is a no-op that reports success.
    pub fn send_frame(&self, src: EndpointId, dst: EndpointId, payloads: Vec<M>) -> bool {
        if payloads.is_empty() {
            return true;
        }
        self.latency.impose(src, dst);
        self.send_frame_no_latency(src, dst, payloads)
    }

    /// Sends a frame without imposing latency (switch egress path, tests).
    ///
    /// Under fault injection the **whole frame** is the unit of damage: one
    /// injector decision drops, delays or holds back all of its envelopes
    /// together — a lost or reordered frame on a real wire loses or reorders
    /// every transaction it carries. The differential chaos tests rely on
    /// this to prove whole-frame faults never double-apply intents.
    pub fn send_frame_no_latency(&self, src: EndpointId, dst: EndpointId, payloads: Vec<M>) -> bool {
        if payloads.is_empty() {
            return true;
        }
        let Some(chaos) = self.chaos.as_ref() else {
            return self.deliver_frame(src, dst, payloads);
        };
        if self.blackholed(chaos, src, dst, &|| format!("{src}->{dst} (frame of {})", payloads.len())) {
            return true;
        }
        match chaos.injector.decide(&|| format!("{src}->{dst} (frame of {})", payloads.len())) {
            FaultAction::Deliver => {}
            FaultAction::Drop => return true,
            FaultAction::Delay(d) => wait_for(d),
            FaultAction::HoldBack => {
                let mut held = unpoison(chaos.held.lock());
                let buffer = held.entry(dst).or_default();
                buffer.extend(payloads.into_iter().map(|p| Envelope::new(src, dst, p)));
                return true;
            }
        }
        let sent = self.deliver_frame(src, dst, payloads);
        // Release held-back messages for this destination *after* the fresh
        // frame, exactly like the unicast path: an overtaking reorder.
        let held = unpoison(chaos.held.lock()).remove(&dst);
        if let Some(envelopes) = held {
            for env in envelopes {
                self.deliver(env.src, env.dst, env.payload);
            }
        }
        sent
    }

    /// Delivers every held-back message (end of a chaos wave, so reordered
    /// messages are not retroactively turned into drops).
    pub fn flush_faults(&self) {
        let Some(chaos) = self.chaos.as_ref() else { return };
        let held: Vec<Envelope<M>> = unpoison(chaos.held.lock()).drain().flat_map(|(_, envelopes)| envelopes).collect();
        for env in held {
            self.deliver(env.src, env.dst, env.payload);
        }
    }

    fn deliver(&self, src: EndpointId, dst: EndpointId, payload: M) -> bool {
        self.deliver_with(dst, |tx| tx.send(Envelope::new(src, dst, payload)).is_ok())
    }

    /// Delivers a whole frame in one registry lookup + one channel operation.
    fn deliver_frame(&self, src: EndpointId, dst: EndpointId, payloads: Vec<M>) -> bool {
        self.deliver_with(dst, |tx| {
            tx.send_batch(payloads.into_iter().map(|p| Envelope::new(src, dst, p)).collect()).is_ok()
        })
    }

    /// Looks `dst` up once, queues through `send`, and — if the message was
    /// queued and the endpoint has a pump — runs the pump after the registry
    /// lock is released (a pump sends too, and must not nest the lock).
    fn deliver_with(&self, dst: EndpointId, send: impl FnOnce(&Sender<Envelope<M>>) -> bool) -> bool {
        let pump = {
            let reg = unpoison(self.registry.read());
            let Some(endpoint) = reg.endpoints.get(&dst) else { return false };
            if !send(&endpoint.tx) {
                return false;
            }
            endpoint.pump.clone()
        };
        if let Some(pump) = pump {
            pump();
        }
        true
    }

    /// All currently registered endpoints (used by the switch multicast).
    pub fn endpoints(&self) -> Vec<EndpointId> {
        unpoison(self.registry.read()).endpoints.keys().copied().collect()
    }
}

impl<M: Clone> Fabric<M> {
    /// Multicasts `payload` from the switch to every node endpoint
    /// (`EndpointId::Node(_)`), the way the switch broadcasts the commit
    /// decision + results of a warm transaction (Fig 10). Counted as a single
    /// multicast, no per-destination latency is imposed on the caller.
    /// Multicasts bypass fault injection: the warm-decision broadcast is
    /// advisory and injecting faults there would only hide message faults on
    /// the paths the invariants actually depend on.
    pub fn multicast_to_nodes(&self, src: EndpointId, payload: M) -> usize {
        self.latency.count_multicast();
        let reg = unpoison(self.registry.read());
        let mut sent = 0;
        for (id, tx) in reg.node_senders.iter() {
            if tx.send(Envelope::new(src, *id, payload.clone())).is_ok() {
                sent += 1;
            }
        }
        sent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4db_common::faults::{BlackholeFault, FaultKind, FaultPlan, NetFaultConfig};
    use p4db_common::{LatencyConfig, NodeId, SwitchId, WorkerId};
    use std::thread;

    /// The tests use a single-switch topology: switch 0 everywhere.
    const SW: EndpointId = EndpointId::Switch(SwitchId(0));

    fn fabric() -> Fabric<u64> {
        Fabric::new(LatencyModel::new(LatencyConfig::zero()))
    }

    #[test]
    fn send_and_receive_roundtrip() {
        let f = fabric();
        let switch_mb = f.register(SW);
        let node = EndpointId::Node(NodeId(0));
        let _node_mb = f.register(node);
        assert!(f.send(node, SW, 7));
        let env = switch_mb.try_recv().expect("message delivered");
        assert_eq!(env.payload, 7);
        assert_eq!(env.src, node);
    }

    #[test]
    fn send_to_unregistered_endpoint_fails() {
        let f = fabric();
        let node = EndpointId::Node(NodeId(0));
        let _mb = f.register(node);
        assert!(!f.send(node, SW, 1));
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_registration_panics() {
        let f = fabric();
        let _a = f.register(SW);
        let _b = f.register(SW);
    }

    #[test]
    fn multicast_reaches_all_nodes_but_not_workers() {
        let f = fabric();
        let n0 = f.register(EndpointId::Node(NodeId(0)));
        let n1 = f.register(EndpointId::Node(NodeId(1)));
        let w = f.register(EndpointId::Worker(NodeId(0), WorkerId(0)));
        let sent = f.multicast_to_nodes(SW, 99);
        assert_eq!(sent, 2);
        assert_eq!(n0.try_recv().unwrap().payload, 99);
        assert_eq!(n1.try_recv().unwrap().payload, 99);
        assert!(w.try_recv().is_none());
    }

    #[test]
    fn mailbox_blocks_until_message_arrives() {
        let f = fabric();
        let mb = f.register(SW);
        let sender = f.clone();
        let handle = thread::spawn(move || {
            let node = EndpointId::Node(NodeId(4));
            let _mb = sender.register(node);
            sender.send(node, SW, 1234)
        });
        let env = mb.recv_timeout(Duration::from_secs(5)).msg().expect("delivered");
        assert_eq!(env.payload, 1234);
        assert!(handle.join().unwrap());
    }

    #[test]
    fn recv_timeout_distinguishes_timeout_from_disconnect() {
        let f = fabric();
        let mb = f.register(SW);
        // Senders (fabric clones) still alive: a short wait times out.
        assert!(mb.recv_timeout(Duration::from_millis(5)).is_timeout());
        // Dropping the whole fabric (all senders) disconnects the mailbox.
        drop(f);
        assert!(mb.recv_timeout(Duration::from_millis(5)).is_disconnected());
    }

    #[test]
    fn a_control_port_is_no_node_and_unregisters_when_dropped() {
        let f = fabric();
        let _sw = f.register(SW);
        let port = f.control_port();
        let other = f.control_port();
        assert!(matches!(port.id(), EndpointId::Control(_)));
        assert_ne!(port.id(), other.id());
        assert_eq!(f.endpoints().len(), 3);
        assert_eq!(f.multicast_to_nodes(SW, 1), 0, "a control port gets no node multicast");
        // Awaiting by matcher drops what it declines and times out cleanly.
        for v in [1, 2, 3] {
            assert!(f.send(SW, port.id(), v));
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        assert_eq!(port.recv_until(deadline, |v| (v == 2).then_some(v * 10)), Ok(20));
        assert_eq!(port.recv_until(Instant::now(), |v| (v == 2).then_some(v)), Err(RecvTimeoutError::Timeout));
        assert!(port.is_empty(), "the declined 3 was dropped");
        let id = port.id();
        drop((port, other));
        assert_eq!(f.endpoints(), vec![SW]);
        assert!(!f.send(SW, id, 4), "a dropped port receives nothing");
    }

    #[test]
    fn mailbox_len_tracks_backlog() {
        let f = fabric();
        let mb = f.register(SW);
        let node = EndpointId::Node(NodeId(0));
        let _n = f.register(node);
        for i in 0..5 {
            f.send(node, SW, i);
        }
        assert_eq!(mb.len(), 5);
        assert!(!mb.is_empty());
        while mb.try_recv().is_some() {}
        assert!(mb.is_empty());
    }

    #[test]
    fn send_frame_delivers_in_order_and_drains_as_a_batch() {
        let f = fabric();
        let mb = f.register(SW);
        let node = EndpointId::Node(NodeId(0));
        let _n = f.register(node);
        assert!(f.send_frame(node, SW, vec![1, 2, 3]));
        assert!(f.send_frame(node, SW, Vec::new()), "empty frame is a no-op");
        assert!(f.send(node, SW, 4));
        match mb.recv_batch_timeout(Duration::from_secs(5), 16) {
            BatchRecvOutcome::Frame(envs) => {
                assert_eq!(envs.iter().map(|e| e.payload).collect::<Vec<_>>(), vec![1, 2, 3, 4]);
                assert!(envs.iter().all(|e| e.src == node));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(mb.recv_batch_timeout(Duration::from_millis(5), 16), BatchRecvOutcome::TimedOut);
        drop(f);
        assert!(mb.recv_batch_timeout(Duration::from_millis(5), 16).is_disconnected());
    }

    #[test]
    fn send_frame_to_unregistered_endpoint_fails() {
        let f = fabric();
        let node = EndpointId::Node(NodeId(0));
        let _n = f.register(node);
        assert!(!f.send_frame(node, SW, vec![1]));
    }

    #[test]
    fn recv_batch_caps_at_max() {
        let f = fabric();
        let mb = f.register(SW);
        let node = EndpointId::Node(NodeId(0));
        let _n = f.register(node);
        f.send_frame(node, SW, (0..10).collect());
        match mb.recv_batch_timeout(Duration::from_secs(1), 4) {
            BatchRecvOutcome::Frame(envs) => assert_eq!(envs.len(), 4),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(mb.drain_batch(100).len(), 6);
        assert!(mb.drain_batch(100).is_empty());
    }

    /// One entry per pump run: `(messages queued at SW, registry unlocked)`.
    type PumpLog = Arc<Mutex<Vec<(usize, bool)>>>;

    /// Registers `SW` with a pump that records, on every run, how many
    /// messages were queued at `SW` and whether it could take the registry's
    /// write lock (it can only outside the registry lock).
    fn pumped(f: &Fabric<u64>) -> (Mailbox<u64>, PumpLog) {
        let runs = Arc::new(Mutex::new(Vec::new()));
        let (fabric, log) = (f.clone(), Arc::clone(&runs));
        let mb = f.register_pumped(
            SW,
            Arc::new(move || {
                let unlocked = fabric.registry.try_write().is_ok();
                let queued = fabric.registry.read().unwrap().endpoints[&SW].tx.len();
                log.lock().unwrap().push((queued, unlocked));
            }),
        );
        (mb, runs)
    }

    #[test]
    fn every_delivery_to_a_pumped_endpoint_runs_its_pump_after_queueing() {
        let f = fabric();
        let (mb, runs) = pumped(&f);
        let node = EndpointId::Node(NodeId(0));
        let node_mb = f.register(node);
        assert!(f.send(node, SW, 1));
        assert!(f.send_frame(node, SW, vec![2, 3]));
        assert!(f.send_no_latency(node, SW, 4));
        assert_eq!(
            *runs.lock().unwrap(),
            vec![(1, true), (3, true), (4, true)],
            "one run per delivery, message queued"
        );
        assert_eq!(mb.drain_batch(16).len(), 4);
        // Traffic to other endpoints, and multicasts, never pump.
        assert!(f.send(SW, node, 5));
        assert_eq!(f.multicast_to_nodes(SW, 6), 1);
        assert!(f.send_frame(node, SW, Vec::new()));
        assert_eq!(runs.lock().unwrap().len(), 3);
        assert_eq!(node_mb.drain_batch(16).len(), 2);
    }

    #[test]
    fn undelivered_messages_do_not_pump_and_released_ones_do() {
        let f = chaos_fabric(NetFaultConfig { reorder_prob: 1.0, max_faults: 2, ..NetFaultConfig::none() });
        let (mb, runs) = pumped(&f);
        let node = EndpointId::Node(NodeId(0));
        let _n = f.register(node);
        // Both held back: nothing delivered, no pump.
        assert!(f.send(node, SW, 1));
        assert!(f.send_frame(node, SW, vec![2, 3]));
        assert!(runs.lock().unwrap().is_empty());
        // The fresh message pumps, then each released one pumps again.
        assert!(f.send(node, SW, 4));
        assert_eq!(runs.lock().unwrap().iter().map(|r| r.0).collect::<Vec<_>>(), vec![1, 2, 3, 4]);
        assert_eq!(mb.drain_batch(16).iter().map(|e| e.payload).collect::<Vec<_>>(), vec![4, 1, 2, 3]);

        let f = chaos_fabric(NetFaultConfig { reorder_prob: 1.0, max_faults: 1, ..NetFaultConfig::none() });
        let (mb, runs) = pumped(&f);
        let _n = f.register(node);
        assert!(f.send(node, SW, 7));
        assert!(runs.lock().unwrap().is_empty());
        f.flush_faults();
        assert_eq!(*runs.lock().unwrap(), vec![(1, true)], "flush_faults delivers, so it pumps");
        assert_eq!(mb.try_recv().unwrap().payload, 7);

        let f = chaos_fabric(NetFaultConfig { drop_prob: 1.0, max_faults: u64::MAX, ..NetFaultConfig::none() });
        let (mb, runs) = pumped(&f);
        let _n = f.register(node);
        assert!(f.send(node, SW, 8));
        assert!(f.send_frame(node, SW, vec![9]));
        assert!(mb.is_empty() && runs.lock().unwrap().is_empty(), "a dropped message does not pump");
    }

    fn chaos_fabric(net: NetFaultConfig) -> Fabric<u64> {
        let plan = FaultPlan { net, ..FaultPlan::seeded(1) };
        Fabric::with_faults(LatencyModel::new(LatencyConfig::zero()), Arc::new(FaultInjector::new(&plan)))
    }

    #[test]
    fn dropped_messages_report_success_but_never_arrive() {
        let f = chaos_fabric(NetFaultConfig { drop_prob: 1.0, max_faults: u64::MAX, ..NetFaultConfig::none() });
        let mb = f.register(SW);
        let node = EndpointId::Node(NodeId(0));
        let _n = f.register(node);
        for i in 0..10 {
            assert!(f.send(node, SW, i), "drops are invisible to the sender");
        }
        assert!(mb.is_empty());
        assert_eq!(f.faults_injected(), 10);
        assert!(f.fault_trace().iter().all(|e| e.kind == FaultKind::Drop));
    }

    #[test]
    fn held_back_message_is_delivered_after_the_next_one() {
        let f = chaos_fabric(NetFaultConfig { reorder_prob: 1.0, max_faults: 1, ..NetFaultConfig::none() });
        let mb = f.register(SW);
        let node = EndpointId::Node(NodeId(0));
        let _n = f.register(node);
        // First send is held back (budget 1), second is delivered and
        // releases the first: arrival order is 2, 1.
        assert!(f.send(node, SW, 1));
        assert!(mb.is_empty());
        assert!(f.send(node, SW, 2));
        assert_eq!(mb.try_recv().unwrap().payload, 2);
        assert_eq!(mb.try_recv().unwrap().payload, 1);
    }

    #[test]
    fn flush_faults_delivers_stranded_holdbacks() {
        let f = chaos_fabric(NetFaultConfig { reorder_prob: 1.0, max_faults: 1, ..NetFaultConfig::none() });
        let mb = f.register(SW);
        let node = EndpointId::Node(NodeId(0));
        let _n = f.register(node);
        assert!(f.send(node, SW, 7));
        assert!(mb.is_empty());
        f.flush_faults();
        assert_eq!(mb.try_recv().unwrap().payload, 7);
        // Flushing twice is harmless.
        f.flush_faults();
        assert!(mb.is_empty());
    }

    #[test]
    fn dropped_frames_vanish_whole() {
        let f = chaos_fabric(NetFaultConfig { drop_prob: 1.0, max_faults: 1, ..NetFaultConfig::none() });
        let mb = f.register(SW);
        let node = EndpointId::Node(NodeId(0));
        let _n = f.register(node);
        // One fault budget: the first frame is dropped in its entirety, the
        // second arrives in its entirety.
        assert!(f.send_frame(node, SW, vec![1, 2, 3]));
        assert!(f.send_frame(node, SW, vec![4, 5]));
        let got: Vec<u64> = std::iter::from_fn(|| mb.try_recv().map(|e| e.payload)).collect();
        assert_eq!(got, vec![4, 5], "frames are the unit of loss: no partial delivery");
        assert_eq!(f.faults_injected(), 1);
    }

    #[test]
    fn held_back_frames_stay_contiguous_when_released() {
        let f = chaos_fabric(NetFaultConfig { reorder_prob: 1.0, max_faults: 1, ..NetFaultConfig::none() });
        let mb = f.register(SW);
        let node = EndpointId::Node(NodeId(0));
        let _n = f.register(node);
        assert!(f.send_frame(node, SW, vec![1, 2]));
        assert!(mb.is_empty(), "whole frame held back");
        assert!(f.send_frame(node, SW, vec![3, 4]));
        let got: Vec<u64> = std::iter::from_fn(|| mb.try_recv().map(|e| e.payload)).collect();
        assert_eq!(got, vec![3, 4, 1, 2], "overtaken frame is released intact, after the fresh one");
    }

    #[test]
    fn budget_exhaustion_restores_normal_delivery() {
        let f = chaos_fabric(NetFaultConfig { drop_prob: 1.0, max_faults: 3, ..NetFaultConfig::none() });
        let mb = f.register(SW);
        let node = EndpointId::Node(NodeId(0));
        let _n = f.register(node);
        for i in 0..10 {
            f.send(node, SW, i);
        }
        // The first three were dropped; everything after the budget arrives.
        let received: Vec<u64> = std::iter::from_fn(|| mb.try_recv().map(|e| e.payload)).collect();
        assert_eq!(received, vec![3, 4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn blackholed_switch_swallows_both_directions_until_healed() {
        let plan = FaultPlan {
            blackhole: Some(BlackholeFault { switch: 0, after_messages: 2, heal_after_drops: 0 }),
            ..FaultPlan::quiet(1)
        };
        let f: Fabric<u64> =
            Fabric::with_faults(LatencyModel::new(LatencyConfig::zero()), Arc::new(FaultInjector::new(&plan)));
        let sw_mb = f.register(SW);
        let node = EndpointId::Node(NodeId(0));
        let node_mb = f.register(node);

        // First request toward the switch still gets through (activation
        // threshold 2): only the *count* of request-direction messages arms it.
        assert!(f.send(node, SW, 1));
        assert_eq!(sw_mb.try_recv().unwrap().payload, 1);

        // Second request activates the hole and is swallowed — and so is the
        // reply direction and every whole frame after it.
        assert!(f.send(node, SW, 2), "blackhole drops are invisible to the sender");
        assert!(f.send(SW, node, 3));
        assert!(f.send_frame(node, SW, vec![4, 5]));
        assert!(sw_mb.is_empty());
        assert!(node_mb.try_recv().is_none());
        assert_eq!(f.blackhole_drops(), 3, "a frame is one swallowed message");
        assert_eq!(f.faults_injected(), 0, "blackhole drops are not charged to the fault budget");

        // Node-to-node traffic is unaffected throughout.
        let other = EndpointId::Node(NodeId(1));
        let other_mb = f.register(other);
        assert!(f.send(node, other, 9));
        assert_eq!(other_mb.try_recv().unwrap().payload, 9);

        // Healing (hardware replaced) restores delivery permanently.
        f.heal_switch(0);
        assert!(f.send(node, SW, 6));
        assert_eq!(sw_mb.try_recv().unwrap().payload, 6);
        assert!(f.send(SW, node, 7));
        assert_eq!(node_mb.try_recv().unwrap().payload, 7);
    }
}
