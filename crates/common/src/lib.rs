//! # p4db-common
//!
//! Shared foundation types for the P4DB reproduction: identifiers for nodes,
//! tables, tuples and transactions, the one-word value representation used
//! both on host nodes and in the (simulated) switch register arrays, error
//! types, workload randomness (Zipf / hot-set generators), throughput and
//! latency statistics, and a calibrated simulated-latency primitive used by
//! the network fabric.
//!
//! Every other crate in the workspace depends on this one and nothing here
//! depends on the rest of the system, so the crate intentionally stays small
//! and allocation-free on hot paths.

pub mod channel;
pub mod config;
pub mod error;
pub mod faults;
pub mod hash;
pub mod ids;
pub mod prefetch;
pub mod rand_util;
pub mod simtime;
pub mod stats;
pub mod sync;
pub mod value;

pub use config::{CcScheme, LatencyConfig, SystemMode};
pub use error::{AbortReason, Error, Result};
pub use faults::{FaultAction, FaultEvent, FaultInjector, FaultKind, FaultPlan, NetFaultConfig};
pub use ids::{GlobalTxnId, NodeId, PartitionId, SwitchId, TableId, TupleId, TxnId, WorkerId};
pub use value::Value;
