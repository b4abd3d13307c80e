//! The network packet format of switch transactions and the message types
//! exchanged between database nodes and the switch.
//!
//! Mirrors Fig 6: a header with processing information (`is_multipass`,
//! `locks`, `nb_recircs`) followed by a variable number of instructions. The
//! responses carry the results of all read/write operations plus the
//! switch-assigned globally-unique transaction id (GID) used for durability
//! and recovery (§6.1).

use crate::instruction::{InstrResult, Instruction};
use crate::locks::LockMask;
use p4db_common::{GlobalTxnId, TxnId};
use p4db_net::EndpointId;

/// Processing information carried in the packet header (the grey fields of
/// Fig 6).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct TxnHeader {
    /// Endpoint (worker) that issued the transaction and receives the reply.
    pub origin: EndpointId,
    /// Client-chosen correlation token, echoed in the reply.
    pub token: u64,
    /// The issuing node's transaction id, carried in the packet so the
    /// data-plane audit log can attribute every execution to the intent the
    /// node logged before sending (exactly-once accounting; `TxnId(0)` for
    /// raw clients that do not participate in the durability protocol).
    pub txn_id: TxnId,
    /// Whether the issuing node determined (from its replica of the data
    /// layout) that the transaction needs more than one pipeline pass.
    pub is_multipass: bool,
    /// For multi-pass transactions: the pipeline locks to acquire on the
    /// first pass and release on the last. For single-pass transactions: the
    /// locks that must be *free* for the transaction to be admitted.
    pub locks: LockMask,
    /// Recirculation counter, incremented every time the transaction could
    /// not be admitted (or needs another pass) and is recirculated.
    pub nb_recircs: u32,
    /// Whether the switch should multicast the commit decision and results to
    /// all database nodes after execution (warm transactions, Fig 10).
    pub multicast_decision: bool,
}

impl TxnHeader {
    pub fn new(origin: EndpointId, token: u64) -> Self {
        TxnHeader {
            origin,
            token,
            txn_id: TxnId(0),
            is_multipass: false,
            locks: LockMask::NONE,
            nb_recircs: 0,
            multicast_decision: false,
        }
    }
}

/// A switch transaction: one network packet, one transaction (§4.1).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SwitchTxn {
    pub header: TxnHeader,
    pub instructions: Vec<Instruction>,
}

impl SwitchTxn {
    pub fn new(header: TxnHeader, instructions: Vec<Instruction>) -> Self {
        SwitchTxn { header, instructions }
    }
}

/// Reply to a [`SwitchTxn`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TxnReply {
    pub token: u64,
    /// Globally-unique, serially-ordered id assigned by the switch; its order
    /// is the serial execution order on the switch.
    pub gid: GlobalTxnId,
    /// One result per instruction, in instruction order.
    pub results: Vec<InstrResult>,
    /// How many times the packet was recirculated before completing.
    pub recirculations: u32,
}

/// A lock request processed by the switch when it acts as a central lock
/// manager (the LM-Switch / NetLock-style baseline, §7.1).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct LockRequest {
    pub origin: EndpointId,
    pub token: u64,
    /// Lock name; the transaction engine hashes the tuple id into this.
    pub lock_id: u64,
    pub exclusive: bool,
}

/// Reply to a [`LockRequest`]. The LM-Switch grants or denies immediately
/// (deny → the requesting transaction aborts under NO_WAIT / retries), which
/// mirrors how the lock-manager baseline behaves under contention.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct LockReply {
    pub token: u64,
    pub granted: bool,
}

/// Releases a previously granted lock on the LM-Switch.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct LockRelease {
    pub lock_id: u64,
    pub exclusive: bool,
}

/// Commit decision + switch results multicast to all database nodes for warm
/// transactions (Fig 10). Nodes use it to commit their cold sub-transaction
/// without an extra coordinator round trip.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct WarmDecision {
    pub token: u64,
    pub gid: GlobalTxnId,
    pub commit: bool,
}

/// Health-check heartbeat sent to a switch by the supervisor / breaker
/// half-open path. Costs one pipeline pass and touches no registers.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct ProbeRequest {
    pub origin: EndpointId,
    /// Correlation token, echoed in the reply.
    pub token: u64,
}

/// Reply to a [`ProbeRequest`]: proof of life plus a coarse progress
/// indicator (how many transactions the switch has executed so far).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct ProbeReply {
    pub token: u64,
    /// Transactions executed by this switch since start (its GID counter).
    pub executed: u64,
}

/// Asks the switch whether it executed the intent logged under `txn` — the
/// in-doubt resolver's query. Answerable because every execution is recorded
/// in the audit log keyed by the issuing node's [`TxnId`] (exactly-once
/// dedup, §6.1).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct IntentStatusRequest {
    pub origin: EndpointId,
    pub token: u64,
    /// The intent's transaction id as logged in the coordinator WAL.
    pub txn: TxnId,
}

/// Reply to an [`IntentStatusRequest`].
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct IntentStatusReply {
    pub token: u64,
    pub txn: TxnId,
    /// Whether the switch's audit log contains an execution for `txn`.
    pub executed: bool,
    /// The GID assigned at execution, when `executed`.
    pub gid: Option<GlobalTxnId>,
}

/// Everything that travels over the rack fabric in this system.
#[derive(Clone, PartialEq, Debug)]
pub enum SwitchMessage {
    /// Node → switch: execute a transaction on the hot set.
    Txn(SwitchTxn),
    /// Switch → issuing worker: transaction results.
    TxnReply(TxnReply),
    /// Node → switch (LM-Switch mode): acquire a lock.
    LockRequest(LockRequest),
    /// Switch → issuing worker (LM-Switch mode): grant / deny.
    LockReply(LockReply),
    /// Node → switch (LM-Switch mode): release a lock.
    LockRelease(LockRelease),
    /// Switch → all nodes: warm transaction decision multicast.
    WarmDecision(WarmDecision),
    /// Supervisor → switch: health-check heartbeat.
    ProbeRequest(ProbeRequest),
    /// Switch → supervisor: proof of life.
    ProbeReply(ProbeReply),
    /// Resolver → switch: did you execute this intent?
    IntentStatusRequest(IntentStatusRequest),
    /// Switch → resolver: definitive executed / not-executed answer.
    IntentStatusReply(IntentStatusReply),
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4db_common::{NodeId, WorkerId};

    fn origin() -> EndpointId {
        EndpointId::Worker(NodeId(1), WorkerId(2))
    }

    #[test]
    fn header_defaults_are_single_pass_no_locks() {
        let h = TxnHeader::new(origin(), 7);
        assert!(!h.is_multipass);
        assert!(h.locks.is_empty());
        assert_eq!(h.nb_recircs, 0);
        assert!(!h.multicast_decision);
        assert_eq!(h.token, 7);
    }

    #[test]
    fn switch_message_variants_are_distinguishable() {
        let msg = SwitchMessage::LockReply(LockReply { token: 9, granted: true });
        match msg {
            SwitchMessage::LockReply(r) => assert!(r.granted),
            _ => panic!("wrong variant"),
        }
    }
}
