//! The rack latency model and per-worker network statistics.

use crate::endpoint::EndpointId;
use p4db_common::simtime::wait_for;
use p4db_common::LatencyConfig;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Counters describing the traffic a component generated on the simulated
/// network. Shared via `Arc`, updated with relaxed atomics (counts only, no
/// ordering requirements).
#[derive(Debug, Default)]
pub struct NetStats {
    pub messages_to_switch: AtomicU64,
    pub messages_to_nodes: AtomicU64,
    pub multicasts: AtomicU64,
}

impl NetStats {
    pub fn snapshot(&self) -> (u64, u64, u64) {
        (
            self.messages_to_switch.load(Ordering::Relaxed),
            self.messages_to_nodes.load(Ordering::Relaxed),
            self.multicasts.load(Ordering::Relaxed),
        )
    }
}

/// Imposes the paper's relative latencies on every simulated hop.
///
/// A clone is cheap (it shares the stats), so every worker can own one.
#[derive(Clone, Debug)]
pub struct LatencyModel {
    config: LatencyConfig,
    stats: Arc<NetStats>,
}

impl LatencyModel {
    pub fn new(config: LatencyConfig) -> Self {
        LatencyModel { config, stats: Arc::new(NetStats::default()) }
    }

    pub fn config(&self) -> LatencyConfig {
        self.config
    }

    pub fn stats(&self) -> &Arc<NetStats> {
        &self.stats
    }

    /// Delay for one hop between the given endpoints, following the rack
    /// topology: node → switch is one hop, node → node is two hops (through
    /// the switch), switch → node is one hop. Messages between endpoints on
    /// the same node are free (shared memory).
    pub fn one_way(&self, src: EndpointId, dst: EndpointId) -> Duration {
        match (src.node(), dst.node()) {
            // node -> switch or switch -> node: single hop.
            (Some(_), None) | (None, Some(_)) => self.config.to_switch(),
            // switch -> switch does not exist, treat as free.
            (None, None) => Duration::ZERO,
            (Some(a), Some(b)) => {
                if a == b {
                    Duration::ZERO
                } else {
                    self.config.to_node()
                }
            }
        }
    }

    /// Blocks the caller for the one-way delay of this hop and counts it.
    pub fn impose(&self, src: EndpointId, dst: EndpointId) {
        let d = self.one_way(src, dst);
        match dst {
            EndpointId::Switch(_) => {
                self.stats.messages_to_switch.fetch_add(1, Ordering::Relaxed);
            }
            _ => {
                self.stats.messages_to_nodes.fetch_add(1, Ordering::Relaxed);
            }
        }
        wait_for(d);
    }

    /// One request/response exchange with `participants` distinct remote
    /// nodes, all in flight at once: counts two messages per participant and
    /// blocks the caller for a single node round trip — the slowest reply
    /// sets the wait, not the number of replies. Free without participants.
    /// (The direct-call model's remote step: what the requests carry —
    /// locks, row resolutions, reads, a 2PC prepare — runs in the caller.)
    pub fn impose_node_round_trip(&self, participants: usize) {
        if participants == 0 {
            return;
        }
        self.stats.messages_to_nodes.fetch_add(2 * participants as u64, Ordering::Relaxed);
        wait_for(self.config.node_rtt());
    }

    /// Counts one switch message and blocks the caller for a **full** wire
    /// round trip to the switch ([`LatencyConfig::switch_rtt`]), excluding
    /// the pipeline pass (the switch simulator accounts for its own). Callers
    /// impose it when a reply arrives, *after* `Fabric::send` already
    /// imposed the outbound ½ RTT — so a switch exchange costs 1.5 wire
    /// RTTs, not 1 (ROADMAP item 13, which owns the re-basing).
    pub fn impose_switch_rtt_wire(&self) {
        self.stats.messages_to_switch.fetch_add(1, Ordering::Relaxed);
        wait_for(self.config.switch_rtt());
    }

    /// Counts a multicast (switch → all nodes) without blocking: the multicast
    /// happens on the switch's egress path, concurrently with the caller.
    pub fn count_multicast(&self) {
        self.stats.multicasts.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4db_common::{NodeId, SwitchId, WorkerId};
    use std::time::Instant;

    fn endpoints() -> (EndpointId, EndpointId, EndpointId, EndpointId) {
        (
            EndpointId::Node(NodeId(0)),
            EndpointId::Node(NodeId(1)),
            EndpointId::Worker(NodeId(0), WorkerId(2)),
            EndpointId::Switch(SwitchId(0)),
        )
    }

    #[test]
    fn switch_hop_is_half_of_node_hop() {
        let lat = LatencyModel::new(LatencyConfig { one_way_ns: 1_000, sw_overhead_ns: 0 });
        let (n0, n1, _, sw) = endpoints();
        let to_switch = lat.one_way(n0, sw);
        let to_node = lat.one_way(n0, n1);
        assert_eq!(to_switch.as_nanos() * 2, to_node.as_nanos());
    }

    #[test]
    fn same_node_messages_are_free() {
        let lat = LatencyModel::new(LatencyConfig::realistic());
        let (n0, _, w0, _) = endpoints();
        assert_eq!(lat.one_way(n0, w0), Duration::ZERO);
    }

    #[test]
    fn impose_counts_traffic() {
        let lat = LatencyModel::new(LatencyConfig::zero());
        let (n0, n1, _, sw) = endpoints();
        lat.impose(n0, sw);
        lat.impose(sw, n0);
        lat.impose(n0, n1);
        lat.count_multicast();
        let (to_switch, to_nodes, mc) = lat.stats().snapshot();
        assert_eq!(to_switch, 1);
        assert_eq!(to_nodes, 2);
        assert_eq!(mc, 1);
    }

    #[test]
    fn impose_actually_waits() {
        let lat = LatencyModel::new(LatencyConfig { one_way_ns: 100_000, sw_overhead_ns: 0 });
        let (n0, n1, _, _) = endpoints();
        let start = Instant::now();
        lat.impose(n0, n1);
        assert!(start.elapsed() >= Duration::from_micros(200));
    }

    #[test]
    fn a_round_trip_counts_per_participant_and_waits_once() {
        let lat = LatencyModel::new(LatencyConfig { one_way_ns: 2_000_000, sw_overhead_ns: 0 });
        let rtt = lat.config().node_rtt();
        let start = Instant::now();
        lat.impose_node_round_trip(0);
        assert!(start.elapsed() < rtt / 2, "nobody to ask: no wait");
        assert_eq!(lat.stats().snapshot().1, 0);
        let start = Instant::now();
        lat.impose_node_round_trip(3);
        let took = start.elapsed();
        assert!(took >= rtt && took < rtt * 2, "three concurrent exchanges took {took:?}, one round trip is {rtt:?}");
        assert_eq!(lat.stats().snapshot().1, 6);
    }

    #[test]
    fn zero_config_never_blocks() {
        let lat = LatencyModel::new(LatencyConfig::zero());
        let start = Instant::now();
        for _ in 0..1000 {
            lat.impose_node_round_trip(3);
            lat.impose_switch_rtt_wire();
        }
        assert!(start.elapsed() < Duration::from_millis(100));
    }
}
