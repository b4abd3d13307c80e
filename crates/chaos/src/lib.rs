//! # p4db-chaos
//!
//! Deterministic fault-injection harness and cluster-wide invariant checker.
//!
//! The paper's strongest claims are about what happens *off* the happy path:
//! switch transactions never abort, in-flight intents are recovered from the
//! WALs by data-dependency ordering (§6, Fig 9), warm transactions commit
//! even when half of them lives on the switch. This crate turns those claims
//! from "tested by example" into "tested by search":
//!
//! * [`harness::run_chaos`] sweeps a seeded scenario — message drops, delays
//!   and reorders on the fabric, a mid-run node crash with WAL-driven
//!   restart, a mid-run switch crash with recovery and optional re-offload
//!   into fresh register slots — over any of the three workloads;
//! * [`invariants::check`] then replays the committed history (node WALs +
//!   the switch's data-plane audit log) against a shadow single-threaded
//!   store and asserts serializability equivalence, exactly-once application
//!   of switch intents, cold durability, SmallBank balance conservation and
//!   TPC-C money conservation;
//! * failures report the seed, a minimized fault-class trace
//!   ([`harness::ChaosReport::failure_summary`]) and a repro line that
//!   reruns the failing test at that seed: seeded tests draw their seeds
//!   through [`harness::seeds`], which honours `CHAOS_SEED`.

pub mod harness;
pub mod invariants;

pub use harness::{resend_logged_intent, run_chaos, seeds, ChaosOptions, ChaosReport, ChaosWorkload};
pub use invariants::{check, InvariantReport, SemanticChecks, Violation};
