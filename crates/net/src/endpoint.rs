//! Network endpoints: every addressable entity on the simulated rack network.

use p4db_common::{NodeId, SwitchId, WorkerId};
use std::fmt;

/// An addressable endpoint on the rack network.
///
/// Worker endpoints exist because switch transaction *responses* are routed
/// back to the issuing worker thread (the paper keeps all transaction state on
/// the issuing database node, §5.4); giving every worker its own mailbox means
/// responses never need demultiplexing locks.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum EndpointId {
    /// A database node's control endpoint (2PC votes, recovery traffic).
    Node(NodeId),
    /// A specific worker thread on a node (switch transaction responses).
    Worker(NodeId, WorkerId),
    /// A programmable switch's packet-processing engine. Multi-switch
    /// topologies register one such endpoint per switch.
    Switch(SwitchId),
    /// A short-lived host-side control port (supervisor probes, in-doubt
    /// status queries): not a node, so no warm-decision multicast reaches
    /// it. See [`crate::Fabric::control_port`].
    Control(u32),
}

impl EndpointId {
    /// Whether this endpoint lives on a switch.
    pub fn is_switch(self) -> bool {
        matches!(self, EndpointId::Switch(_))
    }

    /// The node this endpoint belongs to (`None` for switches and control
    /// ports).
    pub fn node(self) -> Option<NodeId> {
        match self {
            EndpointId::Node(n) | EndpointId::Worker(n, _) => Some(n),
            EndpointId::Switch(_) | EndpointId::Control(_) => None,
        }
    }

    /// The switch this endpoint belongs to (`None` for host endpoints).
    pub fn switch(self) -> Option<SwitchId> {
        match self {
            EndpointId::Switch(s) => Some(s),
            _ => None,
        }
    }
}

impl fmt::Display for EndpointId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EndpointId::Node(n) => write!(f, "{n}"),
            EndpointId::Worker(n, w) => write!(f, "{n}/{w}"),
            EndpointId::Switch(s) => write!(f, "{s}"),
            EndpointId::Control(c) => write!(f, "control{c}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_node_extraction() {
        assert_eq!(EndpointId::Node(NodeId(3)).node(), Some(NodeId(3)));
        assert_eq!(EndpointId::Worker(NodeId(1), WorkerId(4)).node(), Some(NodeId(1)));
        assert_eq!(EndpointId::Switch(SwitchId(0)).node(), None);
        assert_eq!(EndpointId::Switch(SwitchId(2)).switch(), Some(SwitchId(2)));
        assert_eq!(EndpointId::Node(NodeId(0)).switch(), None);
        assert!(EndpointId::Switch(SwitchId(0)).is_switch());
        assert!(!EndpointId::Node(NodeId(0)).is_switch());
        assert_eq!(EndpointId::Control(5).node(), None);
        assert!(!EndpointId::Control(5).is_switch());
    }

    #[test]
    fn endpoints_are_distinct_hash_keys() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(EndpointId::Node(NodeId(0)));
        set.insert(EndpointId::Worker(NodeId(0), WorkerId(0)));
        set.insert(EndpointId::Switch(SwitchId(0)));
        set.insert(EndpointId::Switch(SwitchId(1)));
        assert_eq!(set.len(), 4);
    }

    #[test]
    fn switch_endpoints_display_their_id() {
        assert_eq!(EndpointId::Switch(SwitchId(0)).to_string(), "switch0");
        assert_eq!(EndpointId::Switch(SwitchId(3)).to_string(), "switch3");
    }
}
