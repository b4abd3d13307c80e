//! # P4DB — The Case for In-Network OLTP (Rust reproduction)
//!
//! This facade crate re-exports the whole workspace behind a single
//! dependency, which is what the examples under `examples/` and the
//! integration tests under `tests/` use.
//!
//! The crates, from substrate to system:
//!
//! * [`common`] — ids, values, errors, workload randomness, statistics.
//! * [`net`] — in-process message fabric with the paper's ½-RTT latency model.
//! * [`switch`] — the PISA/Tofino pipeline simulator: register stages,
//!   one-packet-one-transaction execution, recirculation, pipeline locks.
//! * [`layout`] — the declustered storage model: access graph, max-cut,
//!   direction-aware stage assignment.
//! * [`storage`] — host node storage: tables, row locks (NO_WAIT / WAIT_DIE),
//!   write-ahead log, checkpoints and recovery.
//! * [`txn`] — the distributed transaction engine: hot/cold/warm
//!   classification, switch transaction construction, 2PC integration,
//!   the LM-Switch and Chiller-style baselines.
//! * [`workloads`] — YCSB, SmallBank and TPC-C generators.
//! * [`core`] — the cluster runner, worker loops, experiment driver and
//!   metrics used by the benchmark harness.
//! * [`chaos`] — seeded fault injection (message drops/delays/reorders,
//!   node and switch crashes with WAL-driven recovery) plus the
//!   cluster-wide invariant checker.

#![deny(unsafe_code)]

pub use p4db_chaos as chaos;
pub use p4db_common as common;
pub use p4db_core as core;
pub use p4db_layout as layout;
pub use p4db_net as net;
pub use p4db_storage as storage;
pub use p4db_switch as switch;
pub use p4db_txn as txn;
pub use p4db_workloads as workloads;

// The client-facing API at the crate root: build a cluster, open sessions,
// submit typed transactions. See README.md § "Using P4DB as a library".
pub use p4db_common::{CcScheme, Error, NodeId, Result, SwitchId, SystemMode, TableId, TupleId};
pub use p4db_core::{
    Cluster, ClusterBuilder, ClusterConfig, Driving, Load, Pending, ResolverReport, Session, Stop, SupervisorReport,
};
pub use p4db_txn::{OpKind, Placement, Txn, TxnOutcome, TxnRequest};
pub use p4db_workloads::{PartitionMap, Workload};

/// Compiles the README's code blocks as doctests so the documented client
/// API can never drift from the code.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;
