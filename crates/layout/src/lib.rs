//! # p4db-layout
//!
//! The *declustered storage model* of P4DB (§4): deciding which register
//! array of which MAU stage each hot tuple is placed in, so that as many hot
//! transactions as possible can execute in a single pipeline pass.
//!
//! * [`graph`] — the weighted, directed transaction-access graph built from
//!   representative transaction traces.
//! * [`maxcut`] — the capacity-constrained max-cut heuristic that spreads
//!   co-accessed tuples across register arrays (substituting for the MQLib
//!   solver used in the paper; see `DESIGN.md`).
//! * [`layout`] — the planner that turns the partitioning into a concrete
//!   `(stage, array)` assignment, the alternative layouts used in the
//!   ablations (random / worst / hashed), and the single-pass-fraction
//!   evaluator.
//!
//! The hot set itself is declared per workload (`Workload::hot_tuples`), the
//! offline choice §3.1 describes; this crate only places it.

pub mod graph;
pub mod layout;
pub mod maxcut;

pub use graph::{AccessGraph, TraceAccess, TxnTrace};
pub use layout::{
    assign_tuples_to_switches, single_pass_fraction, trace_is_single_pass, DataLayout, LayoutPlanner, LayoutStrategy,
    StageArray,
};
pub use maxcut::{assign_switches, cut_value, max_cut, Partitioning, SwitchAssignment};
