//! # p4db-txn
//!
//! The distributed transaction engine of P4DB's host DBMS (§6): hot / cold /
//! warm classification against the replicated hot-set index, switch packet
//! construction with the node-side view of the data layout, 2PL (NO_WAIT /
//! WAIT_DIE) with 2PC for the host path, the warm-transaction scheme that
//! stitches the abort-free switch sub-transaction into the commit protocol,
//! the durability protocol (switch intents and GIDs in the node WALs), and
//! the LM-Switch / Chiller baselines used in the evaluation.

pub mod builder;
pub mod executor;
pub mod health;
pub mod hotset;
pub mod request;
pub mod switch_client;

pub use builder::{Placement, Txn};
pub use executor::{EngineConfig, EngineShared, SnapshotReader, Worker};
pub use health::{BreakerState, InDoubtEntry, SwitchHealth};
pub use hotset::{HotIndexCell, HotSetIndex};
pub use p4db_storage::mvcc::MvccState;
pub use request::{OpKind, TxnOp, TxnOutcome, TxnRequest};
pub use switch_client::{build_switch_txn, BuiltSwitchTxn};
