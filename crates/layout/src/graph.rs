//! The transaction-access graph of the declustered storage model (§4.2).
//!
//! Tuples are graph nodes. If two tuples are accessed by the same transaction
//! an edge connects them, weighted by how often that co-access occurs. Edges
//! are *directed* when the transaction imposes an access order between the
//! two tuples (a read-dependent write must be placed in a later MAU stage
//! than the tuple it depends on); co-accesses without an ordering dependency
//! contribute weight in both directions ("bidirectional" edges in the paper).

use p4db_common::TupleId;
use std::collections::HashMap;

/// One access of a transaction trace, in execution order.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct TraceAccess {
    pub tuple: TupleId,
    /// Whether the access writes the tuple.
    pub write: bool,
    /// Whether this access depends on the values read by *earlier* accesses
    /// of the same transaction (e.g. SmallBank's `SendPayment` writes depend
    /// on the balances read before). Dependencies force a stage ordering.
    pub depends_on_prior: bool,
}

impl TraceAccess {
    pub fn read(tuple: TupleId) -> Self {
        TraceAccess { tuple, write: false, depends_on_prior: false }
    }

    pub fn write(tuple: TupleId) -> Self {
        TraceAccess { tuple, write: true, depends_on_prior: false }
    }

    pub fn dependent_write(tuple: TupleId) -> Self {
        TraceAccess { tuple, write: true, depends_on_prior: true }
    }
}

/// The ordered accesses of one (representative) transaction, used both for
/// building the access graph and for evaluating a layout's single-pass
/// fraction.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TxnTrace {
    pub accesses: Vec<TraceAccess>,
}

impl TxnTrace {
    pub fn new(accesses: Vec<TraceAccess>) -> Self {
        TxnTrace { accesses }
    }

    /// Distinct tuples touched by this trace, in first-access order.
    pub fn tuples(&self) -> Vec<TupleId> {
        let mut seen = Vec::new();
        for a in &self.accesses {
            if !seen.contains(&a.tuple) {
                seen.push(a.tuple);
            }
        }
        seen
    }
}

/// The weighted, directed access graph.
#[derive(Clone, Debug, Default)]
pub struct AccessGraph {
    tuples: Vec<TupleId>,
    index: HashMap<TupleId, usize>,
    /// Directed edge weights `(from, to) -> weight`.
    edges: HashMap<(usize, usize), u64>,
    /// Per-tuple total access frequency.
    freq: Vec<u64>,
    /// Per-tuple sum of access positions (used to derive the average position
    /// of a tuple within transactions — earlier-accessed tuples should end up
    /// in earlier MAU stages).
    position_sum: Vec<u64>,
}

impl AccessGraph {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn from_traces<'a>(traces: impl IntoIterator<Item = &'a TxnTrace>) -> Self {
        let mut g = Self::new();
        for t in traces {
            g.add_trace(t);
        }
        g
    }

    fn intern(&mut self, tuple: TupleId) -> usize {
        if let Some(&i) = self.index.get(&tuple) {
            return i;
        }
        let i = self.tuples.len();
        self.tuples.push(tuple);
        self.index.insert(tuple, i);
        self.freq.push(0);
        self.position_sum.push(0);
        i
    }

    /// Adds one transaction trace to the graph.
    pub fn add_trace(&mut self, trace: &TxnTrace) {
        // Intern and count.
        let mut ids = Vec::with_capacity(trace.accesses.len());
        for (pos, a) in trace.accesses.iter().enumerate() {
            let id = self.intern(a.tuple);
            self.freq[id] += 1;
            self.position_sum[id] += pos as u64;
            ids.push(id);
        }
        // Pairwise edges.
        for j in 1..trace.accesses.len() {
            for i in 0..j {
                let (u, v) = (ids[i], ids[j]);
                if u == v {
                    continue;
                }
                if trace.accesses[j].depends_on_prior {
                    // Ordered dependency: u must come before v.
                    *self.edges.entry((u, v)).or_insert(0) += 1;
                } else {
                    // No ordering constraint: bidirectional edge.
                    *self.edges.entry((u, v)).or_insert(0) += 1;
                    *self.edges.entry((v, u)).or_insert(0) += 1;
                }
            }
        }
    }

    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    pub fn tuples(&self) -> &[TupleId] {
        &self.tuples
    }

    pub fn tuple_index(&self, tuple: TupleId) -> Option<usize> {
        self.index.get(&tuple).copied()
    }

    /// Access frequency of a tuple (by graph index).
    pub fn frequency(&self, idx: usize) -> u64 {
        self.freq[idx]
    }

    /// Average position of the tuple within the transactions that access it
    /// (0 = always accessed first). Used by the stage-ordering heuristic.
    pub fn mean_position(&self, idx: usize) -> f64 {
        if self.freq[idx] == 0 {
            0.0
        } else {
            self.position_sum[idx] as f64 / self.freq[idx] as f64
        }
    }

    /// Directed edge weight from `u` to `v` (graph indices).
    pub fn weight(&self, u: usize, v: usize) -> u64 {
        self.edges.get(&(u, v)).copied().unwrap_or(0)
    }

    /// Undirected co-access weight between `u` and `v`: the sum of both
    /// directions, which is what the max-cut maximises across partitions.
    pub fn coaccess_weight(&self, u: usize, v: usize) -> u64 {
        self.weight(u, v) + self.weight(v, u)
    }

    /// Iterates all directed edges `(u, v, weight)`.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize, u64)> + '_ {
        self.edges.iter().map(|(&(u, v), &w)| (u, v, w))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4db_common::TableId;

    fn t(key: u64) -> TupleId {
        TupleId::new(TableId(0), key)
    }

    #[test]
    fn trace_tuples_deduplicates_in_order() {
        let trace = TxnTrace::new(vec![TraceAccess::read(t(5)), TraceAccess::write(t(3)), TraceAccess::write(t(5))]);
        assert_eq!(trace.tuples(), vec![t(5), t(3)]);
    }

    #[test]
    fn independent_accesses_produce_bidirectional_edges() {
        let trace = TxnTrace::new(vec![TraceAccess::read(t(1)), TraceAccess::read(t(2))]);
        let g = AccessGraph::from_traces([&trace]);
        let a = g.tuple_index(t(1)).unwrap();
        let b = g.tuple_index(t(2)).unwrap();
        assert_eq!(g.weight(a, b), 1);
        assert_eq!(g.weight(b, a), 1);
        assert_eq!(g.coaccess_weight(a, b), 2);
    }

    #[test]
    fn dependent_write_produces_directed_edge() {
        let trace = TxnTrace::new(vec![TraceAccess::read(t(1)), TraceAccess::dependent_write(t(2))]);
        let g = AccessGraph::from_traces([&trace]);
        let a = g.tuple_index(t(1)).unwrap();
        let b = g.tuple_index(t(2)).unwrap();
        assert_eq!(g.weight(a, b), 1);
        assert_eq!(g.weight(b, a), 0);
    }

    #[test]
    fn repeated_traces_accumulate_weight_and_frequency() {
        let trace = TxnTrace::new(vec![TraceAccess::read(t(1)), TraceAccess::read(t(2))]);
        let mut g = AccessGraph::new();
        for _ in 0..10 {
            g.add_trace(&trace);
        }
        let a = g.tuple_index(t(1)).unwrap();
        let b = g.tuple_index(t(2)).unwrap();
        assert_eq!(g.coaccess_weight(a, b), 20);
        assert_eq!(g.frequency(a), 10);
        assert_eq!(g.len(), 2);
    }

    #[test]
    fn mean_position_reflects_access_order() {
        let trace = TxnTrace::new(vec![TraceAccess::read(t(1)), TraceAccess::read(t(2)), TraceAccess::read(t(3))]);
        let g = AccessGraph::from_traces([&trace]);
        assert!(g.mean_position(g.tuple_index(t(1)).unwrap()) < g.mean_position(g.tuple_index(t(3)).unwrap()));
    }

    #[test]
    fn same_tuple_twice_in_one_txn_adds_no_self_edge() {
        let trace = TxnTrace::new(vec![TraceAccess::read(t(1)), TraceAccess::write(t(1))]);
        let g = AccessGraph::from_traces([&trace]);
        let a = g.tuple_index(t(1)).unwrap();
        assert_eq!(g.weight(a, a), 0);
        assert_eq!(g.frequency(a), 2);
    }
}
