//! # p4db-core
//!
//! Cluster assembly and the client/driver layer: builds the full system of
//! the paper's evaluation (nodes + switch + hot-set offload + executor pool)
//! for one configuration, serves ad-hoc transactions through [`Session`]s,
//! and drives closed-loop load ([`Cluster::drive`]) on top of the same
//! session API.

pub mod builder;
pub mod cluster;
pub mod driver;
pub mod lifecycle;
pub mod session;

pub use builder::ClusterBuilder;
pub use cluster::{Cluster, ClusterConfig, NodeRecoveryReport};
pub use driver::{Driving, Load, Stop};
pub use lifecycle::{SupervisorReport, SwitchEpoch, SwitchRecoveryReport};
pub use p4db_txn::BreakerState;
pub use session::{Pending, ResolverReport, Session, DEFAULT_MAX_ATTEMPTS};
