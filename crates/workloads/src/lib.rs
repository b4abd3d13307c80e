//! # p4db-workloads
//!
//! The three OLTP benchmarks of the paper's evaluation (§7.2) — YCSB,
//! SmallBank and TPC-C (NewOrder + Payment) — behind one [`Workload`]
//! abstraction: loaders, hot-set definitions, representative traces for the
//! declustered layout planner, and runtime transaction generators with the
//! paper's skew and distributed-transaction knobs.

pub mod read_mix;
pub mod smallbank;
pub mod spec;
pub mod tpcc;
pub mod ycsb;

pub use read_mix::ReadMix;
pub use smallbank::{SmallBank, SmallBankConfig};
pub use spec::{HotTuple, PartitionMap, Workload, WorkloadCtx};
pub use tpcc::{Tpcc, TpccConfig};
pub use ycsb::{Ycsb, YcsbConfig, YcsbMix};
