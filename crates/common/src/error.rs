//! Error and abort types shared across the host DBMS and the switch client.

use crate::ids::{NodeId, TupleId, TxnId};
use std::fmt;

/// Why a host (cold / warm) transaction aborted.
///
/// Switch transactions never abort (§5.1): once a packet is admitted to the
/// pipeline its execution is unconditional, which is why none of these
/// variants can originate from the switch data plane.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AbortReason {
    /// NO_WAIT: a lock request was denied because the row was already locked
    /// in a conflicting mode.
    LockConflict { tuple: TupleId },
    /// WAIT_DIE: the requesting transaction was younger than the lock owner
    /// and therefore died.
    WaitDieDied { tuple: TupleId, owner: TxnId },
    /// A remote participant voted "abort" during two-phase commit.
    RemoteVoteAbort { participant: NodeId },
    /// An application-level integrity constraint failed (e.g. SmallBank
    /// balance would go negative on the host path).
    ConstraintViolation,
    /// The transaction exceeded its retry budget and was given up on by the
    /// worker loop (only used by the experiment driver, never by the engine).
    RetryBudgetExhausted,
    /// The owning switch's circuit breaker is open: the packet was not sent
    /// (no intent is in flight). The retry re-classifies against the updated
    /// hot-set index and runs on the host path once degraded mode is up.
    SwitchUnavailable { switch: crate::ids::SwitchId },
}

impl AbortReason {
    /// Whether re-running the same transaction can end differently. A
    /// conflict or an unreachable switch depends on what else is in flight;
    /// a constraint violation is a property of the transaction and the data
    /// (and an exhausted budget is already a verdict), so the retry loop
    /// returns those to the client on the first attempt.
    pub fn is_retryable(&self) -> bool {
        match self {
            AbortReason::LockConflict { .. }
            | AbortReason::WaitDieDied { .. }
            | AbortReason::RemoteVoteAbort { .. }
            | AbortReason::SwitchUnavailable { .. } => true,
            AbortReason::ConstraintViolation | AbortReason::RetryBudgetExhausted => false,
        }
    }
}

impl fmt::Display for AbortReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AbortReason::LockConflict { tuple } => write!(f, "lock conflict on {tuple}"),
            AbortReason::WaitDieDied { tuple, owner } => {
                write!(f, "wait-die died on {tuple} (owner {owner})")
            }
            AbortReason::RemoteVoteAbort { participant } => {
                write!(f, "participant {participant} voted abort")
            }
            AbortReason::ConstraintViolation => write!(f, "constraint violation"),
            AbortReason::RetryBudgetExhausted => write!(f, "retry budget exhausted"),
            AbortReason::SwitchUnavailable { switch } => {
                write!(f, "circuit breaker open for {switch}")
            }
        }
    }
}

/// Crate-wide error type.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Error {
    /// The transaction must abort (and will usually be retried by the worker).
    Abort(AbortReason),
    /// A tuple was not found in the addressed partition or on the switch.
    TupleNotFound(TupleId),
    /// The addressed node does not exist in the cluster.
    UnknownNode(NodeId),
    /// The switch rejected an offload request (e.g. register capacity
    /// exceeded); carries a human-readable reason from the control plane.
    SwitchControlPlane(String),
    /// A configuration value was inconsistent (e.g. zero nodes).
    InvalidConfig(String),
    /// A client-submitted transaction failed builder/placement validation
    /// before it reached the engine (e.g. an `operand_from` reference to a
    /// later operation).
    InvalidTxn(String),
    /// The process-wide worker-endpoint id space (one `u16` per spawned
    /// executor) is exhausted; no further clusters can be built in this
    /// process.
    WorkerIdSpaceExhausted,
    /// A network endpoint was disconnected (cluster shutdown while a request
    /// was in flight).
    Disconnected,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Abort(reason) => write!(f, "transaction aborted: {reason}"),
            Error::TupleNotFound(t) => write!(f, "tuple not found: {t}"),
            Error::UnknownNode(n) => write!(f, "unknown node: {n}"),
            Error::SwitchControlPlane(msg) => write!(f, "switch control plane error: {msg}"),
            Error::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            Error::InvalidTxn(msg) => write!(f, "invalid transaction: {msg}"),
            Error::WorkerIdSpaceExhausted => {
                write!(f, "worker endpoint id space exhausted (65536 executors spawned in this process)")
            }
            Error::Disconnected => write!(f, "network endpoint disconnected"),
        }
    }
}

impl std::error::Error for Error {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;

impl Error {
    /// Convenience constructor for NO_WAIT lock-denied aborts.
    pub fn lock_conflict(tuple: TupleId) -> Self {
        Error::Abort(AbortReason::LockConflict { tuple })
    }

    /// Convenience constructor for WAIT_DIE aborts.
    pub fn wait_die(tuple: TupleId, owner: TxnId) -> Self {
        Error::Abort(AbortReason::WaitDieDied { tuple, owner })
    }

    /// Whether the error is a transaction abort (see
    /// [`AbortReason::is_retryable`] for whether a retry can help).
    pub fn is_abort(&self) -> bool {
        matches!(self, Error::Abort(_))
    }

    /// The abort reason, if this is an abort.
    pub fn abort_reason(&self) -> Option<AbortReason> {
        match self {
            Error::Abort(r) => Some(*r),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::TableId;

    #[test]
    fn abort_helpers_classify_correctly() {
        let t = TupleId::new(TableId(0), 5);
        let e = Error::lock_conflict(t);
        assert!(e.is_abort());
        assert_eq!(e.abort_reason(), Some(AbortReason::LockConflict { tuple: t }));

        let e = Error::TupleNotFound(t);
        assert!(!e.is_abort());
        assert_eq!(e.abort_reason(), None);
    }

    #[test]
    fn only_aborts_that_depend_on_concurrent_traffic_are_retryable() {
        let t = TupleId::new(TableId(0), 5);
        let owner = TxnId::compose(3, NodeId(0), WorkerId(1));
        for reason in [
            AbortReason::LockConflict { tuple: t },
            AbortReason::WaitDieDied { tuple: t, owner },
            AbortReason::RemoteVoteAbort { participant: NodeId(1) },
            AbortReason::SwitchUnavailable { switch: crate::ids::SwitchId(0) },
        ] {
            assert!(reason.is_retryable(), "{reason}");
        }
        assert!(!AbortReason::ConstraintViolation.is_retryable());
        assert!(!AbortReason::RetryBudgetExhausted.is_retryable());
    }

    #[test]
    fn display_is_informative() {
        let t = TupleId::new(TableId(1), 9);
        let owner = TxnId::compose(3, NodeId(0), WorkerId(1));
        let msg = Error::wait_die(t, owner).to_string();
        assert!(msg.contains("wait-die"));
        assert!(msg.contains("t1:9"));
    }

    use crate::ids::WorkerId;
}
