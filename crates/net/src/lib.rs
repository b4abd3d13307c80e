//! # p4db-net
//!
//! The in-process stand-in for the paper's data-center network (8 nodes, 10G
//! NICs, DPDK, all connected to one Top-of-Rack switch).
//!
//! Two things matter to P4DB's evaluation and both are preserved here:
//!
//! 1. **Relative latency** — a node reaches the switch in ½ the latency it
//!    needs to reach another node (one hop vs. two hops through the same
//!    switch). [`latency::LatencyModel`] imposes exactly that, by busy-waiting
//!    for calibrated sub-microsecond delays.
//! 2. **Message passing** — switch transactions are network packets sent to
//!    the switch and answered asynchronously, possibly after recirculation.
//!    [`fabric::Fabric`] is a typed, multi-endpoint message fabric (backed by
//!    lock-free channels) used for the node ⇄ switch path and for the
//!    switch-side result multicast of warm transactions (Fig 10).
//!
//! Remote *data* accesses between nodes are modelled as direct calls into the
//! owning node's partition plus the corresponding [`latency::LatencyModel`]
//! delay (see `p4db-txn::executor`); routing them through the fabric as well
//! would only add queueing that the real system does not have (DPDK polls the
//! NIC from the worker thread itself).

pub mod endpoint;
pub mod fabric;
pub mod frame;
pub mod latency;
pub mod message;

pub use endpoint::EndpointId;
pub use fabric::{BatchRecvOutcome, Fabric, Mailbox, Pump, RecvOutcome};
pub use frame::{decode_frame, decode_frame_prefix, encode_frame, FrameBatcher, FrameCodecError};
pub use latency::{LatencyModel, NetStats};
pub use message::Envelope;
