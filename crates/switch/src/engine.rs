//! The switch data-plane engine: pipelined, abort-free transaction execution.
//!
//! One network packet is one transaction (§4.1). The engine consumes packets
//! from its ingress mailbox and executes them **strictly one at a time**, so
//! the resulting schedule is — by construction — the serial order in which
//! packets were admitted to the pipeline. This is exactly the isolation
//! argument of §5.1: on a PISA switch there is one packet per MAU stage per
//! cycle and packets are never reordered, so the pipelined execution is
//! equivalent to a serial execution.
//!
//! Multi-pass transactions (§5.2) acquire pipeline locks on admission, are
//! recirculated between passes (through the dedicated lock-owner port when
//! fast recirculation is enabled, §5.3), and release their locks when their
//! last pass completes. Transactions whose admission is blocked by a held
//! lock are recirculated through the waiting port, incrementing the
//! `nb_recircs` counter in their header.
//!
//! A switch has no thread of its own. Its ingress endpoint is registered on
//! the fabric with a pump, so the pipeline runs on whichever thread delivers
//! a packet to it. The pump is flat combining (Hendler, Incze, Shavit and
//! Tzafrir, SPAA 2010): the thread that finds the pipeline free serves every
//! packet queued at ingress, its own and everyone else's, until the switch is
//! quiet, and flushes the replies before it lets go. A thread that finds the
//! pipeline busy leaves its packet to the holder, which looks at ingress again
//! after it lets go — so no packet is stranded, and no sender blocks on
//! another sender's pipeline. The modelled costs do not change: the sender
//! pays the ½ RTT to the switch before its packet arrives, and the pass
//! latency is charged while the pipeline is held, so packets queue behind it.

use crate::config::SwitchConfig;
use crate::instruction::{plan_passes, InstrResult};
use crate::lock_manager::SwitchLockTable;
use crate::locks::{LockMask, PipelineLocks};
use crate::memory::RegisterMemory;
use crate::packet::{IntentStatusReply, LockReply, ProbeReply, SwitchMessage, SwitchTxn, TxnReply, WarmDecision};
use crate::stats::{SwitchStats, SwitchStatsSnapshot};
use p4db_common::simtime::wait_for;
use p4db_common::sync::unpoison;
use p4db_common::{GlobalTxnId, SwitchId, TxnId};
use p4db_net::{EndpointId, Fabric, FrameBatcher, Mailbox, Pump};
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::Duration;

/// A packet currently inside the switch (being processed or recirculating).
struct Inflight {
    txn: SwitchTxn,
    passes: Vec<Range<usize>>,
    next_pass: usize,
    results: Vec<InstrResult>,
    /// Pipeline locks this packet holds (non-empty only for admitted
    /// multi-pass packets).
    holds: LockMask,
}

impl Inflight {
    fn new(txn: SwitchTxn) -> Self {
        let passes = plan_passes(&txn.instructions);
        let results = Vec::with_capacity(txn.instructions.len());
        Inflight { txn, passes, next_pass: 0, results, holds: LockMask::NONE }
    }

    fn is_multipass(&self) -> bool {
        self.passes.len() > 1
    }
}

/// Handle to a running switch. Dropping it shuts the switch down.
pub struct SwitchHandle {
    stats: Arc<SwitchStats>,
    memory: Arc<RegisterMemory>,
    gid_counter: Arc<AtomicU64>,
    audit: Arc<Mutex<Vec<(TxnId, GlobalTxnId)>>>,
    /// The only strong reference: the fabric's pump holds a weak one, so
    /// dropping the handle drops the ingress queue and later sends fail.
    pipeline: Arc<Pipeline>,
}

impl SwitchHandle {
    /// Snapshot of the data-plane statistics.
    pub fn stats(&self) -> SwitchStatsSnapshot {
        self.stats.snapshot()
    }

    /// The register memory shared with the control plane.
    pub fn memory(&self) -> &Arc<RegisterMemory> {
        &self.memory
    }

    /// Number of switch transactions executed so far (== the next GID to be
    /// assigned).
    pub fn executed_count(&self) -> u64 {
        self.gid_counter.load(Ordering::Relaxed)
    }

    /// The data-plane audit log: `(issuing TxnId, assigned GID)` of every
    /// executed transaction, in serial execution order. Empty unless
    /// [`SwitchConfig::audit_data_plane`] is enabled. This is the ground
    /// truth the chaos invariant checker replays against — it exists only in
    /// the simulator, never in the real data plane.
    pub fn audit_log(&self) -> Vec<(TxnId, GlobalTxnId)> {
        unpoison(self.audit.lock()).clone()
    }

    /// Number of audit-log entries, without cloning the log.
    pub fn audit_len(&self) -> usize {
        unpoison(self.audit.lock()).len()
    }

    /// Shuts the switch down: waits for a pump in progress to let go of the
    /// pipeline, drops the engine and detaches the pump, so a later send to
    /// the switch fails. Queued packets that have not started execution are
    /// dropped.
    pub fn shutdown(self) {}
}

impl Drop for SwitchHandle {
    fn drop(&mut self) {
        let engine = unpoison(self.pipeline.engine.lock()).take();
        drop(engine);
    }
}

/// Starts the switch data plane for switch 0 — the single-switch topology.
/// See [`start_switch_with_id`] for multi-switch clusters.
pub fn start_switch(config: SwitchConfig, memory: Arc<RegisterMemory>, fabric: Fabric<SwitchMessage>) -> SwitchHandle {
    start_switch_with_id(SwitchId(0), config, memory, fabric)
}

/// Starts one switch data plane: registers its [`EndpointId::Switch`]
/// endpoint on the fabric with the pump that runs the pipeline. A
/// multi-switch topology calls this once per switch, each with its own
/// register memory; the engines share nothing but the fabric.
///
/// # Panics
/// Panics if this switch's endpoint is already registered on the fabric.
pub fn start_switch_with_id(
    id: SwitchId,
    config: SwitchConfig,
    memory: Arc<RegisterMemory>,
    fabric: Fabric<SwitchMessage>,
) -> SwitchHandle {
    config.validate().expect("invalid switch configuration");
    assert_eq!(memory.config(), &config, "switch engine and memory must share a configuration");
    let endpoint = EndpointId::Switch(id);
    let stats = Arc::new(SwitchStats::default());
    let gid_counter = Arc::new(AtomicU64::new(0));
    let audit = Arc::new(Mutex::new(Vec::new()));

    let engine = Engine {
        config,
        endpoint,
        memory: Arc::clone(&memory),
        fabric: fabric.clone(),
        stats: Arc::clone(&stats),
        gid_counter: Arc::clone(&gid_counter),
        audit: Arc::clone(&audit),
        locks: PipelineLocks::new(),
        lock_table: SwitchLockTable::new(),
        owner_queue: VecDeque::new(),
        waiting_queue: VecDeque::new(),
        reply_batcher: FrameBatcher::new(config.batch_size as usize),
        audit_buf: Vec::new(),
        frame_pipelined: 0,
    };
    let pipeline = Arc::new_cyclic(|pipeline: &Weak<Pipeline>| {
        let pipeline = pipeline.clone();
        let pump: Pump = Arc::new(move || {
            if let Some(pipeline) = pipeline.upgrade() {
                pipeline.pump();
            }
        });
        Pipeline { ingress: fabric.register_pumped(endpoint, pump), engine: Mutex::new(Some(engine)) }
    });
    // Serve anything delivered before the pump could reach the pipeline.
    pipeline.pump();

    SwitchHandle { stats, memory, gid_counter, audit, pipeline }
}

/// One switch: its ingress queue and its engine behind a mutex.
struct Pipeline {
    ingress: Mailbox<SwitchMessage>,
    /// `None` once the switch is shut down.
    engine: Mutex<Option<Engine>>,
}

impl Pipeline {
    /// The flat-combining pump, run by every thread that delivers to the
    /// switch once its message is queued. It never blocks: a busy pipeline is
    /// left to its holder, which looks at ingress again after it lets go, so
    /// a packet queued while it ran is served by it or by the next pump. A
    /// pipeline poisoned by a panic mid-pass serves nobody, like a dead
    /// switch.
    fn pump(&self) {
        loop {
            let Ok(mut guard) = self.engine.try_lock() else { return };
            let Some(engine) = guard.as_mut() else { return };
            engine.run_until_quiet(&self.ingress);
            drop(guard);
            if self.ingress.is_empty() {
                return;
            }
        }
    }
}

struct Engine {
    config: SwitchConfig,
    /// This engine's own fabric endpoint (`EndpointId::Switch(id)`), the
    /// source address of everything it sends.
    endpoint: EndpointId,
    memory: Arc<RegisterMemory>,
    fabric: Fabric<SwitchMessage>,
    stats: Arc<SwitchStats>,
    gid_counter: Arc<AtomicU64>,
    audit: Arc<Mutex<Vec<(TxnId, GlobalTxnId)>>>,
    locks: PipelineLocks,
    lock_table: SwitchLockTable,
    /// Recirculation port reserved for packets that own a pipeline lock
    /// (§5.3 fast recirculating). Only used when `fast_recirculation` is on.
    owner_queue: VecDeque<Inflight>,
    /// Recirculation port for packets waiting to be admitted (and, when fast
    /// recirculation is disabled, also for lock owners between passes).
    waiting_queue: VecDeque<Inflight>,
    /// Egress frame batching for [`TxnReply`]s: replies accumulate per origin
    /// and leave as one fabric frame when full or, at the latest, when the
    /// switch goes quiet and the pump lets go of the pipeline. At
    /// `batch_size <= 1` every reply is a frame of one.
    reply_batcher: FrameBatcher<SwitchMessage>,
    /// Audit entries not yet in the shared audit log, appended in one lock
    /// acquisition before the next reply frame leaves (order preserved).
    audit_buf: Vec<(TxnId, GlobalTxnId)>,
    /// Single-pass packets executed in the current ingress frame: they are
    /// pipelined back-to-back (§4.1), so the per-pass pipeline latency is
    /// paid once per frame, not once per packet.
    frame_pipelined: u32,
}

impl Engine {
    /// Runs the pipeline until the switch is quiet — both recirculation
    /// ports and the ingress queue empty — then flushes every buffered reply
    /// and audit entry, so nothing waits for a later pump.
    fn run_until_quiet(&mut self, ingress: &Mailbox<SwitchMessage>) {
        let batch = self.config.batch_size.max(1) as usize;
        loop {
            // 1. Fast path: a lock owner recirculating between passes has the
            //    shortest queue and therefore the lowest waiting time (§5.3).
            // 2. Waiting port: the first admissible waiting packet.
            // 3. Ingress: the next frame off the wire — up to `batch_size`
            //    packets in one channel operation. A waiting packet is only
            //    ever blocked by a lock owner that is itself recirculating,
            //    so an empty frame here means the switch is quiet.
            if let Some(pkt) = self.owner_queue.pop_front() {
                self.execute_pass(pkt);
            } else if !self.admit_waiting() {
                let frame = ingress.drain_batch(batch);
                if frame.is_empty() {
                    debug_assert!(self.waiting_queue.is_empty(), "a waiting packet outlived every lock owner");
                    break;
                }
                for env in frame {
                    self.handle_ingress(env.payload);
                }
            }
            self.end_frame();
        }
        self.flush_pending();
    }

    /// Rotates the waiting port until an admissible packet is found and runs
    /// its pass; every rotation of a blocked packet is one recirculation.
    /// Returns whether a packet was admitted.
    fn admit_waiting(&mut self) -> bool {
        for _ in 0..self.waiting_queue.len() {
            let Some(mut pkt) = self.waiting_queue.pop_front() else { break };
            if self.try_admit(&mut pkt) {
                self.execute_pass(pkt);
                return true;
            }
            pkt.txn.header.nb_recircs += 1;
            SwitchStats::bump(&self.stats.recirc_waiting);
            self.waiting_queue.push_back(pkt);
        }
        false
    }

    /// Ends one ingress frame: the frame's single-pass packets traversed the
    /// pipeline back-to-back, so their pass latency is imposed once here.
    fn end_frame(&mut self) {
        if self.frame_pipelined > 0 {
            if self.config.pass_latency_ns > 0 {
                wait_for(Duration::from_nanos(self.config.pass_latency_ns));
            }
            self.frame_pipelined = 0;
        }
    }

    /// Flushes everything pending: audit entries (one lock acquisition) and
    /// every partially filled reply frame.
    fn flush_pending(&mut self) {
        self.flush_audit();
        for (dst, frame) in self.reply_batcher.flush_all() {
            self.fabric.send_frame_no_latency(self.endpoint, dst, frame);
        }
    }

    /// Appends the buffered audit entries to the shared audit log.
    fn flush_audit(&mut self) {
        if !self.audit_buf.is_empty() {
            unpoison(self.audit.lock()).append(&mut self.audit_buf);
        }
    }

    /// Admission check at the first MAU stage (§5.2): multi-pass packets try
    /// to acquire their pipeline locks; single-pass packets only require that
    /// the locks covering their stages are currently free. Packets that
    /// already hold locks (possible only when fast recirculation is disabled
    /// and owners share the waiting port) are always admissible.
    fn try_admit(&mut self, pkt: &mut Inflight) -> bool {
        if !pkt.holds.is_empty() {
            return true;
        }
        let demand = pkt.txn.header.locks;
        if pkt.txn.header.is_multipass || pkt.is_multipass() {
            if self.locks.try_acquire(demand) {
                pkt.holds = demand;
                true
            } else {
                false
            }
        } else {
            self.locks.is_free(demand)
        }
    }

    /// Executes the packet's next pipeline pass and either recirculates it or
    /// completes it.
    fn execute_pass(&mut self, mut pkt: Inflight) {
        let range = pkt.passes[pkt.next_pass].clone();
        for idx in range {
            let instr = &pkt.txn.instructions[idx];
            // Read-dependent write: the operand comes from the result of an
            // earlier instruction, carried in the packet metadata across
            // stages (and across passes, since metadata survives
            // recirculation).
            let operand = match instr.operand_from {
                Some(src) if (src as usize) < pkt.results.len() => pkt.results[src as usize].value,
                Some(_) => instr.operand, // malformed forward reference: fall back to the immediate
                None => instr.operand,
            };
            let result = self.memory.execute_resolved(instr, operand);
            pkt.results.push(result);
        }
        SwitchStats::bump(&self.stats.passes);
        if self.config.batch_size > 1 && pkt.passes.len() <= 1 {
            // Batched mode: single-pass packets of one ingress frame ride the
            // pipeline back-to-back, so the frame pays the pass latency once
            // (in `end_frame`). Recirculating multi-pass packets still pay
            // per pass — recirculation is a fresh pipeline traversal.
            self.frame_pipelined += 1;
        } else if self.config.pass_latency_ns > 0 {
            wait_for(Duration::from_nanos(self.config.pass_latency_ns));
        }
        pkt.next_pass += 1;

        if pkt.next_pass < pkt.passes.len() {
            // Needs another pass: recirculate. Lock owners use the dedicated
            // port when fast recirculation is enabled.
            pkt.txn.header.nb_recircs += 1;
            if self.config.fast_recirculation {
                SwitchStats::bump(&self.stats.recirc_owner);
                self.owner_queue.push_back(pkt);
            } else {
                SwitchStats::bump(&self.stats.recirc_waiting);
                self.waiting_queue.push_back(pkt);
            }
        } else {
            self.complete(pkt);
        }
    }

    /// Completes a packet: assigns the GID, releases pipeline locks, replies
    /// to the issuing worker, and multicasts the warm-transaction decision if
    /// requested.
    fn complete(&mut self, pkt: Inflight) {
        let gid = GlobalTxnId(self.gid_counter.fetch_add(1, Ordering::Relaxed));
        if self.config.audit_data_plane {
            // One audit-lock acquisition per reply frame, not per
            // transaction; the buffer preserves the serial execution order.
            self.audit_buf.push((pkt.txn.header.txn_id, gid));
        }
        if !pkt.holds.is_empty() {
            self.locks.release(pkt.holds);
        }
        SwitchStats::bump(&self.stats.txns_executed);
        if pkt.passes.len() <= 1 {
            SwitchStats::bump(&self.stats.single_pass);
        } else {
            SwitchStats::bump(&self.stats.multi_pass);
        }

        let header = pkt.txn.header;
        let reply = TxnReply { token: header.token, gid, results: pkt.results, recirculations: header.nb_recircs };
        if let Some((dst, frame)) = self.reply_batcher.push(header.origin, SwitchMessage::TxnReply(reply)) {
            // Audit entries always reach the shared log before their replies
            // become visible.
            self.flush_audit();
            self.fabric.send_frame_no_latency(self.endpoint, dst, frame);
        }

        if header.multicast_decision {
            SwitchStats::bump(&self.stats.multicasts);
            self.fabric.multicast_to_nodes(
                self.endpoint,
                SwitchMessage::WarmDecision(WarmDecision { token: header.token, gid, commit: true }),
            );
        }
    }

    fn handle_ingress(&mut self, msg: SwitchMessage) {
        match msg {
            SwitchMessage::Txn(txn) => {
                let mut pkt = Inflight::new(txn);
                if pkt.passes.is_empty() {
                    // A transaction with no instructions completes trivially
                    // (still gets a GID so recovery bookkeeping stays simple).
                    self.complete(pkt);
                    return;
                }
                if self.try_admit(&mut pkt) {
                    self.execute_pass(pkt);
                } else {
                    pkt.txn.header.nb_recircs += 1;
                    SwitchStats::bump(&self.stats.recirc_waiting);
                    self.waiting_queue.push_back(pkt);
                }
            }
            SwitchMessage::LockRequest(req) => {
                SwitchStats::bump(&self.stats.lm_requests);
                let granted = self.lock_table.try_acquire(req.lock_id, req.exclusive);
                if !granted {
                    SwitchStats::bump(&self.stats.lm_denied);
                }
                self.fabric.send_no_latency(
                    self.endpoint,
                    req.origin,
                    SwitchMessage::LockReply(LockReply { token: req.token, granted }),
                );
            }
            SwitchMessage::LockRelease(rel) => {
                self.lock_table.release(rel.lock_id, rel.exclusive);
            }
            SwitchMessage::ProbeRequest(req) => {
                // A heartbeat is one pipeline pass that touches no registers:
                // the reply itself is the proof of life, the executed count a
                // coarse progress indicator for the supervisor.
                let executed = self.gid_counter.load(Ordering::Relaxed);
                self.fabric.send_no_latency(
                    self.endpoint,
                    req.origin,
                    SwitchMessage::ProbeReply(ProbeReply { token: req.token, executed }),
                );
            }
            SwitchMessage::IntentStatusRequest(req) => {
                // Definitive answer from the audit log: has this intent been
                // executed? Scan the buffered (not yet flushed) entries too so
                // a batched execution is never reported as missing.
                let gid = self
                    .audit_buf
                    .iter()
                    .rev()
                    .chain(unpoison(self.audit.lock()).iter().rev())
                    .find(|(txn, _)| *txn == req.txn)
                    .map(|(_, gid)| *gid);
                self.fabric.send_no_latency(
                    self.endpoint,
                    req.origin,
                    SwitchMessage::IntentStatusReply(IntentStatusReply {
                        token: req.token,
                        txn: req.txn,
                        executed: gid.is_some(),
                        gid,
                    }),
                );
            }
            // Replies and decisions are egress-only; receiving one here means
            // a client misaddressed a message. Ignore rather than crash the
            // data plane.
            SwitchMessage::TxnReply(_)
            | SwitchMessage::LockReply(_)
            | SwitchMessage::WarmDecision(_)
            | SwitchMessage::ProbeReply(_)
            | SwitchMessage::IntentStatusReply(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instruction::{Instruction, OpCode, RegisterSlot};
    use crate::locks::locks_for_stages;
    use crate::packet::TxnHeader;
    use p4db_common::{LatencyConfig, NodeId, WorkerId};
    use p4db_net::LatencyModel;

    /// These tests run a single-switch topology: switch 0 everywhere.
    const SW: EndpointId = EndpointId::Switch(SwitchId(0));

    struct TestRig {
        fabric: Fabric<SwitchMessage>,
        handle: SwitchHandle,
        worker: Mailbox<SwitchMessage>,
        worker_ep: EndpointId,
    }

    fn rig(config: SwitchConfig) -> TestRig {
        let fabric = Fabric::new(LatencyModel::new(LatencyConfig::zero()));
        let memory = Arc::new(RegisterMemory::new(config));
        let handle = start_switch(config, memory, fabric.clone());
        let worker_ep = EndpointId::Worker(NodeId(0), WorkerId(0));
        let worker = fabric.register(worker_ep);
        TestRig { fabric, handle, worker, worker_ep }
    }

    fn send_and_wait(rig: &TestRig, txn: SwitchTxn) -> TxnReply {
        rig.fabric.send(rig.worker_ep, SW, SwitchMessage::Txn(txn));
        match rig.worker.recv_timeout(Duration::from_secs(10)).msg().expect("switch reply").payload {
            SwitchMessage::TxnReply(r) => r,
            other => panic!("unexpected message {other:?}"),
        }
    }

    fn slot(stage: u8, array: u8, index: u32) -> RegisterSlot {
        RegisterSlot::new(stage, array, index)
    }

    #[test]
    fn single_pass_txn_executes_and_replies() {
        let rig = rig(SwitchConfig::tiny());
        rig.handle.memory().write(slot(0, 0, 1), 100);
        let txn = SwitchTxn::new(
            TxnHeader::new(rig.worker_ep, 42),
            vec![
                Instruction::read(slot(0, 0, 1)),
                Instruction::add(slot(1, 0, 2), 5),
                Instruction::new(slot(2, 0, 3), OpCode::Write, 9),
            ],
        );
        let reply = send_and_wait(&rig, txn);
        assert_eq!(reply.token, 42);
        assert_eq!(reply.results.len(), 3);
        assert_eq!(reply.results[0].value, 100);
        assert_eq!(reply.results[1].value, 5);
        assert_eq!(reply.results[2].value, 9);
        assert_eq!(reply.recirculations, 0);
        assert_eq!(rig.handle.memory().read(slot(1, 0, 2)), 5);
        let stats = rig.handle.stats();
        assert_eq!(stats.txns_executed, 1);
        assert_eq!(stats.single_pass, 1);
        assert_eq!(stats.multi_pass, 0);
    }

    #[test]
    fn multipass_txn_recirculates_and_stays_consistent() {
        let config = SwitchConfig::tiny();
        let rig = rig(config);
        rig.handle.memory().write(slot(2, 0, 7), 50);
        // Read stage 2 then write stage 0: violates stage order, needs 2
        // passes.
        let instructions = vec![Instruction::read(slot(2, 0, 7)), Instruction::add(slot(0, 0, 3), 50)];
        let mut header = TxnHeader::new(rig.worker_ep, 1);
        header.is_multipass = true;
        header.locks = locks_for_stages([2u8, 0u8], &config);
        let reply = send_and_wait(&rig, SwitchTxn::new(header, instructions));
        assert_eq!(reply.results.len(), 2);
        assert_eq!(reply.results[0].value, 50);
        assert_eq!(reply.results[1].value, 50);
        assert!(reply.recirculations >= 1);
        let stats = rig.handle.stats();
        assert_eq!(stats.multi_pass, 1);
        assert!(stats.passes >= 2);
        assert!(stats.recirc_owner >= 1);
    }

    #[test]
    fn read_dependent_write_forwards_operand_across_stages() {
        // SmallBank Amalgamate: drain account A (stage 0) and credit the
        // drained amount to account B (stage 1).
        let rig = rig(SwitchConfig::tiny());
        let a = slot(0, 0, 1);
        let b = slot(1, 0, 2);
        rig.handle.memory().write(a, 120);
        rig.handle.memory().write(b, 30);
        let instructions = vec![
            // Read A's balance, then zero it: FetchAdd with the negated
            // balance is not expressible without knowing the balance, so the
            // workload uses Read followed by a dependent CondSub in a later
            // pass — here we exercise the simpler one-pass variant:
            Instruction::read(a),
            Instruction::with_operand_from(b, OpCode::Add, 0),
        ];
        let reply = send_and_wait(&rig, SwitchTxn::new(TxnHeader::new(rig.worker_ep, 3), instructions));
        assert_eq!(reply.results[0].value, 120);
        assert_eq!(reply.results[1].value, 150, "B must be credited with A's balance");
        assert_eq!(rig.handle.memory().read(b), 150);
    }

    #[test]
    fn operand_forwarding_works_across_passes() {
        // Dependent write targeting an *earlier* stage: needs a second pass,
        // and the forwarded value must survive recirculation.
        let config = SwitchConfig::tiny();
        let rig = rig(config);
        let src = slot(2, 0, 1);
        let dst = slot(0, 0, 2);
        rig.handle.memory().write(src, 77);
        let instructions = vec![Instruction::read(src), Instruction::with_operand_from(dst, OpCode::Write, 0)];
        let mut header = TxnHeader::new(rig.worker_ep, 9);
        header.is_multipass = true;
        header.locks = locks_for_stages([2u8, 0u8], &config);
        let reply = send_and_wait(&rig, SwitchTxn::new(header, instructions));
        assert!(reply.recirculations >= 1);
        assert_eq!(rig.handle.memory().read(dst), 77);
    }

    #[test]
    fn gids_are_dense_and_ordered() {
        let rig = rig(SwitchConfig::tiny());
        let mut gids = Vec::new();
        for i in 0..20u64 {
            let txn = SwitchTxn::new(TxnHeader::new(rig.worker_ep, i), vec![Instruction::add(slot(0, 0, 0), 1)]);
            gids.push(send_and_wait(&rig, txn).gid.0);
        }
        // One client sending synchronously: GIDs must be exactly 0..20 in
        // order (serial execution order == send order).
        assert_eq!(gids, (0..20).collect::<Vec<_>>());
        assert_eq!(rig.handle.memory().read(slot(0, 0, 0)), 20);
        assert_eq!(rig.handle.executed_count(), 20);
    }

    #[test]
    fn empty_txn_completes_with_gid() {
        let rig = rig(SwitchConfig::tiny());
        let reply = send_and_wait(&rig, SwitchTxn::new(TxnHeader::new(rig.worker_ep, 5), vec![]));
        assert_eq!(reply.results.len(), 0);
        assert_eq!(reply.gid.0, 0);
    }

    #[test]
    fn probe_replies_with_progress_counter() {
        let rig = rig(SwitchConfig::tiny());
        for i in 0..3u64 {
            let txn = SwitchTxn::new(TxnHeader::new(rig.worker_ep, i), vec![Instruction::add(slot(0, 0, 0), 1)]);
            send_and_wait(&rig, txn);
        }
        rig.fabric.send(
            rig.worker_ep,
            SW,
            SwitchMessage::ProbeRequest(crate::packet::ProbeRequest { origin: rig.worker_ep, token: 99 }),
        );
        match rig.worker.recv_timeout(Duration::from_secs(10)).msg().expect("probe reply").payload {
            SwitchMessage::ProbeReply(r) => {
                assert_eq!(r.token, 99);
                assert_eq!(r.executed, 3);
            }
            other => panic!("unexpected message {other:?}"),
        }
    }

    #[test]
    fn intent_status_answers_from_the_audit_log() {
        let rig = rig(SwitchConfig::tiny());
        let executed_txn = TxnId::compose(7, NodeId(0), WorkerId(0));
        let mut header = TxnHeader::new(rig.worker_ep, 1);
        header.txn_id = executed_txn;
        send_and_wait(&rig, SwitchTxn::new(header, vec![Instruction::add(slot(0, 0, 0), 5)]));

        let status = |txn: TxnId| {
            rig.fabric.send(
                rig.worker_ep,
                SW,
                SwitchMessage::IntentStatusRequest(crate::packet::IntentStatusRequest {
                    origin: rig.worker_ep,
                    token: txn.0,
                    txn,
                }),
            );
            match rig.worker.recv_timeout(Duration::from_secs(10)).msg().expect("status reply").payload {
                SwitchMessage::IntentStatusReply(r) => r,
                other => panic!("unexpected message {other:?}"),
            }
        };

        let hit = status(executed_txn);
        assert!(hit.executed, "executed intent must be found in the audit log");
        assert_eq!(hit.txn, executed_txn);
        assert_eq!(hit.gid, Some(GlobalTxnId(0)));

        let never_sent = TxnId::compose(8, NodeId(0), WorkerId(0));
        let miss = status(never_sent);
        assert!(!miss.executed, "a lost (never executed) intent must be reported as missing");
        assert_eq!(miss.gid, None);
    }

    #[test]
    fn warm_decision_is_multicast_to_nodes() {
        let rig = rig(SwitchConfig::tiny());
        let node_mb = rig.fabric.register(EndpointId::Node(NodeId(0)));
        let mut header = TxnHeader::new(rig.worker_ep, 77);
        header.multicast_decision = true;
        let reply = send_and_wait(&rig, SwitchTxn::new(header, vec![Instruction::add(slot(0, 0, 0), 1)]));
        let decision = node_mb.recv_timeout(Duration::from_secs(5)).msg().expect("multicast");
        match decision.payload {
            SwitchMessage::WarmDecision(d) => {
                assert_eq!(d.token, 77);
                assert_eq!(d.gid, reply.gid);
                assert!(d.commit);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(rig.handle.stats().multicasts, 1);
    }

    #[test]
    fn lock_manager_requests_are_served() {
        let rig = rig(SwitchConfig::tiny());
        let req =
            |token, lock_id, exclusive| crate::packet::LockRequest { origin: rig.worker_ep, token, lock_id, exclusive };
        rig.fabric.send(rig.worker_ep, SW, SwitchMessage::LockRequest(req(1, 99, true)));
        let granted = match rig.worker.recv_timeout(Duration::from_secs(5)).msg().unwrap().payload {
            SwitchMessage::LockReply(r) => r.granted,
            other => panic!("unexpected {other:?}"),
        };
        assert!(granted);
        rig.fabric.send(rig.worker_ep, SW, SwitchMessage::LockRequest(req(2, 99, true)));
        let granted = match rig.worker.recv_timeout(Duration::from_secs(5)).msg().unwrap().payload {
            SwitchMessage::LockReply(r) => r.granted,
            other => panic!("unexpected {other:?}"),
        };
        assert!(!granted, "conflicting exclusive lock must be denied");
        rig.fabric.send(
            rig.worker_ep,
            SW,
            SwitchMessage::LockRelease(crate::packet::LockRelease { lock_id: 99, exclusive: true }),
        );
        // After the release a new request succeeds.
        rig.fabric.send(rig.worker_ep, SW, SwitchMessage::LockRequest(req(3, 99, false)));
        let granted = match rig.worker.recv_timeout(Duration::from_secs(5)).msg().unwrap().payload {
            SwitchMessage::LockReply(r) => r.granted,
            other => panic!("unexpected {other:?}"),
        };
        assert!(granted);
        let stats = rig.handle.stats();
        assert_eq!(stats.lm_requests, 3);
        assert_eq!(stats.lm_denied, 1);
    }

    #[test]
    fn batched_engine_preserves_serial_order_and_audit() {
        // Same assertions as the unbatched GID test, but with frame batching
        // on: a synchronous client must still see dense in-order GIDs, and
        // the audit log must record the intra-batch serial order.
        let config = SwitchConfig { batch_size: 16, ..SwitchConfig::tiny() };
        let rig = rig(config);
        let mut gids = Vec::new();
        for i in 0..20u64 {
            let mut header = TxnHeader::new(rig.worker_ep, i);
            header.txn_id = p4db_common::TxnId(i + 1);
            let txn = SwitchTxn::new(header, vec![Instruction::add(slot(0, 0, 0), 1)]);
            gids.push(send_and_wait(&rig, txn).gid.0);
        }
        assert_eq!(gids, (0..20).collect::<Vec<_>>());
        assert_eq!(rig.handle.memory().read(slot(0, 0, 0)), 20);
        // Audit entries flushed (engine idle after the last reply) in serial
        // order, one per executed transaction.
        let audit = rig.handle.audit_log();
        assert_eq!(audit.len(), 20);
        assert!(audit.windows(2).all(|w| w[0].1 .0 + 1 == w[1].1 .0), "audit must be in GID order");
    }

    #[test]
    fn batched_engine_coalesces_replies_under_open_loop_load() {
        // Open loop: push a burst of transactions, then collect every reply.
        // The replies arrive as frames (multiple envelopes drained per
        // channel operation), all tokens come back exactly once.
        let config = SwitchConfig { batch_size: 8, ..SwitchConfig::tiny() };
        let rig = rig(config);
        let burst = 64u64;
        for i in 0..burst {
            let txn = SwitchTxn::new(TxnHeader::new(rig.worker_ep, i), vec![Instruction::add(slot(0, 0, 1), 1)]);
            rig.fabric.send(rig.worker_ep, SW, SwitchMessage::Txn(txn));
        }
        let mut tokens = Vec::new();
        while tokens.len() < burst as usize {
            match rig.worker.recv_batch_timeout(Duration::from_secs(10), 64) {
                p4db_net::BatchRecvOutcome::Frame(envs) => {
                    for env in envs {
                        match env.payload {
                            SwitchMessage::TxnReply(r) => tokens.push(r.token),
                            other => panic!("unexpected {other:?}"),
                        }
                    }
                }
                other => panic!("burst replies missing: {other:?}"),
            }
        }
        tokens.sort_unstable();
        assert_eq!(tokens, (0..burst).collect::<Vec<_>>());
        assert_eq!(rig.handle.memory().read(slot(0, 0, 1)), burst);
        assert_eq!(rig.handle.stats().txns_executed, burst);
    }

    #[test]
    fn batched_engine_still_recirculates_multipass_txns() {
        let config = SwitchConfig { batch_size: 8, ..SwitchConfig::tiny() };
        let rig = rig(config);
        rig.handle.memory().write(slot(2, 0, 7), 50);
        let instructions = vec![Instruction::read(slot(2, 0, 7)), Instruction::add(slot(0, 0, 3), 50)];
        let mut header = TxnHeader::new(rig.worker_ep, 1);
        header.is_multipass = true;
        header.locks = locks_for_stages([2u8, 0u8], &config);
        let reply = send_and_wait(&rig, SwitchTxn::new(header, instructions));
        assert_eq!(reply.results.len(), 2);
        assert!(reply.recirculations >= 1);
        assert_eq!(rig.handle.stats().multi_pass, 1);
    }

    /// A reply as the script observes it: `(token, gid, result values,
    /// recirculations)`.
    type ScriptReply = (u64, u64, Vec<u64>, u32);

    /// What a script run observes: every reply in arrival order, the audit
    /// log as `(TxnId, GID)` pairs and the multicast decisions as `(token,
    /// GID)` pairs.
    type ScriptRun = (Vec<ScriptReply>, Vec<(u64, u64)>, Vec<(u64, u64)>);

    /// One worker drives a fixed script through the switch: two hot
    /// single-pass transactions in one frame; a frame holding a multi-pass
    /// transaction (it recirculates through the owner port), a single-pass
    /// packet that conflicts with its pipeline lock (it recirculates through
    /// the waiting port) and one that does not; then a warm transaction
    /// whose decision is multicast.
    fn serial_script(config: SwitchConfig) -> ScriptRun {
        let rig = rig(config);
        let node = rig.fabric.register(EndpointId::Node(NodeId(0)));
        let memory = rig.handle.memory();
        memory.write(slot(1, 0, 4), 40);
        memory.write(slot(0, 0, 5), 7);
        memory.write(slot(3, 1, 6), 100);
        let txn = |id: u64, instructions: Vec<Instruction>, edit: &dyn Fn(&mut TxnHeader)| {
            let mut header = TxnHeader::new(rig.worker_ep, id);
            header.txn_id = TxnId(id);
            edit(&mut header);
            SwitchMessage::Txn(SwitchTxn::new(header, instructions))
        };
        let mut replies = Vec::new();
        let mut collect = |n: usize| {
            for _ in 0..n {
                match rig.worker.recv_timeout(Duration::from_secs(10)).msg().expect("switch reply").payload {
                    SwitchMessage::TxnReply(r) => {
                        replies.push((r.token, r.gid.0, r.results.iter().map(|x| x.value).collect(), r.recirculations))
                    }
                    other => panic!("unexpected message {other:?}"),
                }
            }
        };

        let hot = vec![
            txn(1, vec![Instruction::add(slot(0, 0, 0), 3), Instruction::read(slot(1, 0, 4))], &|_| {}),
            txn(2, vec![Instruction::add(slot(0, 0, 0), 4), Instruction::add(slot(2, 1, 1), 9)], &|_| {}),
        ];
        rig.fabric.send_frame(rig.worker_ep, SW, hot);
        collect(2);

        // Read stage 1, then add the value read into stage 0: two passes,
        // both under the left pipeline lock.
        let multi = vec![
            txn(
                3,
                vec![Instruction::read(slot(1, 0, 4)), Instruction::with_operand_from(slot(0, 0, 5), OpCode::Add, 0)],
                &|h| {
                    h.is_multipass = true;
                    h.locks = locks_for_stages([1u8, 0u8], &config);
                },
            ),
            txn(4, vec![Instruction::add(slot(0, 0, 5), 1)], &|h| h.locks = locks_for_stages([0u8], &config)),
            txn(5, vec![Instruction::add(slot(3, 1, 6), 2)], &|h| h.locks = locks_for_stages([3u8], &config)),
        ];
        rig.fabric.send_frame(rig.worker_ep, SW, multi);
        collect(3);

        let warm = txn(6, vec![Instruction::add(slot(0, 0, 0), 10), Instruction::read(slot(2, 1, 1))], &|h| {
            h.multicast_decision = true
        });
        rig.fabric.send(rig.worker_ep, SW, warm);
        collect(1);

        let mut decisions = Vec::new();
        while let Some(env) = node.try_recv() {
            match env.payload {
                SwitchMessage::WarmDecision(d) => decisions.push((d.token, d.gid.0)),
                other => panic!("unexpected message {other:?}"),
            }
        }
        let audit = rig.handle.audit_log().iter().map(|(t, g)| (t.0, g.0)).collect();
        (replies, audit, decisions)
    }

    #[test]
    fn a_serial_script_keeps_its_audit_order_and_replies() {
        // Recorded from the engine when it still ran on a pipeline thread of
        // its own; running it inline must leave the schedule byte-identical.
        // Batched, the conflicting packet (4) waits while the unrelated one
        // (5) overtakes the multi-pass transaction (3) inside their frame.
        let batched = serial_script(SwitchConfig { batch_size: 16, ..SwitchConfig::tiny() });
        assert_eq!(
            batched.0,
            vec![
                (1, 0, vec![3, 40], 0),
                (2, 1, vec![7, 9], 0),
                (5, 2, vec![102], 0),
                (3, 3, vec![40, 47], 1),
                (4, 4, vec![48], 1),
                (6, 5, vec![17, 9], 0),
            ]
        );
        assert_eq!(batched.1, vec![(1, 0), (2, 1), (5, 2), (3, 3), (4, 4), (6, 5)]);
        assert_eq!(batched.2, vec![(6, 5)]);

        // Unbatched, every packet is its own quantum: the multi-pass
        // transaction finishes before the next packet is admitted.
        let unbatched = serial_script(SwitchConfig { batch_size: 1, ..SwitchConfig::tiny() });
        assert_eq!(
            unbatched.0,
            vec![
                (1, 0, vec![3, 40], 0),
                (2, 1, vec![7, 9], 0),
                (3, 2, vec![40, 47], 1),
                (4, 3, vec![48], 0),
                (5, 4, vec![102], 0),
                (6, 5, vec![17, 9], 0),
            ]
        );
        assert_eq!(unbatched.1, vec![(1, 0), (2, 1), (3, 2), (4, 3), (5, 4), (6, 5)]);
        assert_eq!(unbatched.2, vec![(6, 5)]);
    }

    #[test]
    fn a_frame_is_answered_before_its_send_returns() {
        // The pipeline runs on the sending thread: by the time the send
        // returns, every reply is already in the worker's mailbox.
        for batch_size in [1, 16] {
            let rig = rig(SwitchConfig { batch_size, ..SwitchConfig::tiny() });
            let frame = (0..4u64)
                .map(|i| {
                    SwitchMessage::Txn(SwitchTxn::new(
                        TxnHeader::new(rig.worker_ep, i),
                        vec![Instruction::add(slot(0, 0, 0), 1)],
                    ))
                })
                .collect();
            assert!(rig.fabric.send_frame(rig.worker_ep, SW, frame));
            let tokens: Vec<u64> = std::iter::from_fn(|| rig.worker.try_recv())
                .map(|env| match env.payload {
                    SwitchMessage::TxnReply(r) => r.token,
                    other => panic!("unexpected message {other:?}"),
                })
                .collect();
            assert_eq!(tokens, vec![0, 1, 2, 3], "batch {batch_size}");

            let txn = SwitchTxn::new(TxnHeader::new(rig.worker_ep, 9), vec![Instruction::read(slot(0, 0, 0))]);
            assert!(rig.fabric.send(rig.worker_ep, SW, SwitchMessage::Txn(txn)));
            match rig.worker.try_recv().expect("reply queued before the send returned").payload {
                SwitchMessage::TxnReply(r) => assert_eq!((r.token, r.results[0].value), (9, 4)),
                other => panic!("unexpected message {other:?}"),
            }
        }
    }

    #[test]
    fn no_frame_is_stranded_behind_a_busy_pipeline() {
        // Eight senders race for one pipeline that holds each pass for a
        // while, so most deliveries find it busy and leave their frame to
        // the holder. Every frame must still be answered, and the schedule
        // must be serial: dense audit GIDs, and replies and registers equal
        // to a replay of the audit order.
        for batch_size in [1, 16] {
            let config = SwitchConfig { batch_size, pass_latency_ns: 20_000, ..SwitchConfig::tiny() };
            let fabric = Fabric::new(LatencyModel::new(LatencyConfig::zero()));
            let handle = start_switch(config, Arc::new(RegisterMemory::new(config)), fabric.clone());
            let (clients, rounds) = (8u16, 12u64);
            let joins: Vec<_> = (0..clients)
                .map(|c| {
                    let fabric = fabric.clone();
                    std::thread::spawn(move || {
                        let ep = EndpointId::Worker(NodeId(0), WorkerId(c));
                        let mb = fabric.register(ep);
                        let lane = (c % 4) as u32;
                        let mut sent = Vec::new();
                        let mut replies = Vec::new();
                        for r in 0..rounds {
                            // Token and TxnId are the same unique number.
                            let header = |k: u64, stages: &[u8]| {
                                let id = c as u64 * 1_000 + r * 3 + k + 1;
                                let mut header = TxnHeader::new(ep, id);
                                header.txn_id = TxnId(id);
                                header.is_multipass = stages.len() > 1;
                                header.locks = locks_for_stages(stages.iter().copied(), &config);
                                header
                            };
                            let frame = [
                                SwitchTxn::new(header(0, &[2]), vec![Instruction::add(slot(2, 0, lane), c as i64 + 1)]),
                                SwitchTxn::new(
                                    header(1, &[2, 0]),
                                    vec![
                                        Instruction::read(slot(2, 0, (lane + 1) % 4)),
                                        Instruction::with_operand_from(slot(0, 0, lane), OpCode::Add, 0),
                                    ],
                                ),
                                SwitchTxn::new(
                                    header(2, &[1]),
                                    vec![Instruction::new(slot(1, 1, 0), OpCode::Write, c as u64 * 1_000 + r)],
                                ),
                            ];
                            let n = frame.len();
                            sent.extend(frame.iter().cloned());
                            assert!(fabric.send_frame(ep, SW, frame.into_iter().map(SwitchMessage::Txn).collect()));
                            for _ in 0..n {
                                match mb.recv_timeout(Duration::from_secs(10)).msg().expect("stranded frame").payload {
                                    SwitchMessage::TxnReply(r) => replies.push(r),
                                    other => panic!("unexpected {other:?}"),
                                }
                            }
                        }
                        (sent, replies)
                    })
                })
                .collect();
            let mut sent = std::collections::HashMap::new();
            let mut replies = std::collections::HashMap::new();
            for join in joins {
                let (txns, rs) = join.join().unwrap();
                sent.extend(txns.into_iter().map(|t| (t.header.txn_id, t)));
                replies.extend(rs.into_iter().map(|r| (TxnId(r.token), r)));
            }

            let audit = handle.audit_log();
            assert_eq!(audit.len(), sent.len(), "batch {batch_size}");
            assert!(audit.iter().enumerate().all(|(i, (_, gid))| gid.0 == i as u64), "audit GIDs must be dense");
            let replay = RegisterMemory::new(config);
            for (txn_id, gid) in &audit {
                let txn = &sent[txn_id];
                let mut results: Vec<InstrResult> = Vec::new();
                for instr in &txn.instructions {
                    let operand = instr.operand_from.map_or(instr.operand, |src| results[src as usize].value);
                    results.push(replay.execute_resolved(instr, operand));
                }
                let reply = &replies[txn_id];
                assert_eq!(reply.gid, *gid);
                assert_eq!(reply.results, results, "{txn_id:?} saw a non-serial schedule");
            }
            for (stage, array, index) in (0..4).map(|i| (0, 0, i)).chain((0..4).map(|i| (2, 0, i))).chain([(1, 1, 0)]) {
                let at = slot(stage, array, index);
                assert_eq!(handle.memory().read(at), replay.read(at), "register {at:?}");
            }
            handle.shutdown();
        }
    }

    #[test]
    fn a_reply_addressed_to_the_switch_itself_is_ignored() {
        // A transaction whose origin is the switch's own endpoint makes the
        // pipeline send its reply to itself while it holds itself: the send
        // must return, and the switch must go on serving.
        for batch_size in [1, 16] {
            let rig = rig(SwitchConfig { batch_size, ..SwitchConfig::tiny() });
            let (fabric, worker_ep) = (rig.fabric.clone(), rig.worker_ep);
            let (done_tx, done_rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let txn = SwitchTxn::new(TxnHeader::new(SW, 1), vec![Instruction::add(slot(0, 0, 0), 1)]);
                done_tx.send(fabric.send(worker_ep, SW, SwitchMessage::Txn(txn))).unwrap();
            });
            assert_eq!(done_rx.recv_timeout(Duration::from_secs(10)), Ok(true), "send to the switch hung");
            assert!(rig.worker.try_recv().is_none(), "the misaddressed reply reached no worker");
            let txn = SwitchTxn::new(TxnHeader::new(rig.worker_ep, 2), vec![Instruction::read(slot(0, 0, 0))]);
            let reply = send_and_wait(&rig, txn);
            assert_eq!((reply.token, reply.gid.0, reply.results[0].value), (2, 1, 1));
            assert_eq!(rig.handle.stats().txns_executed, 2);
        }
    }

    #[test]
    fn concurrent_clients_preserve_register_consistency() {
        // Many clients hammer Add(+1) on the same register; the final value
        // must equal the number of transactions (abort-free, lost-update-free
        // execution) and GIDs must be unique.
        let config = SwitchConfig::tiny();
        let fabric = Fabric::new(LatencyModel::new(LatencyConfig::zero()));
        let memory = Arc::new(RegisterMemory::new(config));
        let handle = start_switch(config, memory, fabric.clone());

        let clients = 8;
        let per_client = 200u64;
        let mut joins = Vec::new();
        for c in 0..clients {
            let fabric = fabric.clone();
            joins.push(std::thread::spawn(move || {
                let ep = EndpointId::Worker(NodeId(0), WorkerId(c as u16));
                let mb = fabric.register(ep);
                let mut gids = Vec::new();
                for i in 0..per_client {
                    let txn =
                        SwitchTxn::new(TxnHeader::new(ep, i), vec![Instruction::add(RegisterSlot::new(0, 0, 0), 1)]);
                    fabric.send(ep, SW, SwitchMessage::Txn(txn));
                    match mb.recv_timeout(Duration::from_secs(20)).msg().expect("reply").payload {
                        SwitchMessage::TxnReply(r) => gids.push(r.gid.0),
                        other => panic!("unexpected {other:?}"),
                    }
                }
                gids
            }));
        }
        let mut all_gids: Vec<u64> = joins.into_iter().flat_map(|j| j.join().unwrap()).collect();
        all_gids.sort_unstable();
        all_gids.dedup();
        assert_eq!(all_gids.len() as u64, clients as u64 * per_client, "GIDs must be unique");
        assert_eq!(handle.memory().read(RegisterSlot::new(0, 0, 0)), clients as u64 * per_client);
        handle.shutdown();
    }
}
