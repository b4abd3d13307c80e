//! The transaction-access graph of the declustered storage model (§4.2).
//!
//! Tuples are graph nodes. If two tuples are accessed by the same transaction
//! an undirected edge connects them, weighted by how often that co-access
//! occurs: 2 for an unordered pair and 1 for a pair whose later access
//! depends on the values read before it (the paper's "bidirectional" and
//! directed edges, summed over both directions). No consumer orders stages
//! by edges: the planner orders them by each tuple's mean access position.

use p4db_common::TupleId;
use std::collections::HashMap;

/// One access of a transaction trace, in execution order.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct TraceAccess {
    pub tuple: TupleId,
    /// Whether this access depends on the values read by *earlier* accesses
    /// of the same transaction (e.g. SmallBank's `SendPayment` writes depend
    /// on the balances read before). Such a pair weighs half an unordered one.
    pub depends_on_prior: bool,
}

impl TraceAccess {
    /// A read or write with no dependency on earlier accesses.
    pub fn new(tuple: TupleId) -> Self {
        TraceAccess { tuple, depends_on_prior: false }
    }

    pub fn dependent_write(tuple: TupleId) -> Self {
        TraceAccess { tuple, depends_on_prior: true }
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

/// The weighted, undirected access graph.
#[derive(Clone, Debug)]
pub struct AccessGraph {
    tuples: Vec<TupleId>,
    index: HashMap<TupleId, usize>,
    /// Per-tuple `(neighbour, co-access weight)` lists, sorted by neighbour;
    /// each edge appears in both endpoints' lists.
    adjacency: Vec<Vec<(usize, u64)>>,
    /// Per-tuple total access frequency.
    freq: Vec<u64>,
    /// Per-tuple sum of access positions (used to derive the average position
    /// of a tuple within transactions — earlier-accessed tuples should end up
    /// in earlier MAU stages).
    position_sum: Vec<u64>,
}

impl AccessGraph {
    pub fn from_traces<'a>(traces: impl IntoIterator<Item = &'a TxnTrace>) -> Self {
        let (mut tuples, mut index, mut freq, mut position_sum) = (Vec::new(), HashMap::new(), Vec::new(), Vec::new());
        let mut pairs: HashMap<(usize, usize), u64> = HashMap::new();
        for trace in traces {
            let ids: Vec<usize> = (trace.accesses.iter().enumerate())
                .map(|(pos, a)| {
                    let id = *index.entry(a.tuple).or_insert_with(|| {
                        tuples.push(a.tuple);
                        freq.push(0);
                        position_sum.push(0);
                        tuples.len() - 1
                    });
                    freq[id] += 1;
                    position_sum[id] += pos as u64;
                    id
                })
                .collect();
            for (j, later) in trace.accesses.iter().enumerate() {
                let weight = if later.depends_on_prior { 1 } else { 2 };
                for &u in ids[..j].iter().filter(|&&u| u != ids[j]) {
                    *pairs.entry((u.min(ids[j]), u.max(ids[j]))).or_insert(0) += weight;
                }
            }
        }
        let mut adjacency = vec![Vec::new(); tuples.len()];
        for ((u, v), w) in pairs {
            adjacency[u].push((v, w));
            adjacency[v].push((u, w));
        }
        adjacency.iter_mut().for_each(|list| list.sort_unstable());
        AccessGraph { tuples, index, adjacency, freq, position_sum }
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

    /// The `(neighbour, co-access weight)` pairs of a tuple (by graph index).
    pub fn neighbours(&self, idx: usize) -> &[(usize, u64)] {
        &self.adjacency[idx]
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4db_common::TableId;

    fn t(key: u64) -> TupleId {
        TupleId::new(TableId(0), key)
    }

    fn weight(g: &AccessGraph, a: TupleId, b: TupleId) -> u64 {
        let (a, b) = (g.tuple_index(a).unwrap(), g.tuple_index(b).unwrap());
        let w = g.neighbours(a).iter().find(|&&(o, _)| o == b).map_or(0, |&(_, w)| w);
        assert_eq!(g.neighbours(b).iter().find(|&&(o, _)| o == a).map_or(0, |&(_, w)| w), w, "edges are undirected");
        w
    }

    #[test]
    fn trace_tuples_deduplicates_in_order() {
        let trace = TxnTrace::new(vec![TraceAccess::new(t(5)), TraceAccess::new(t(3)), TraceAccess::new(t(5))]);
        assert_eq!(trace.tuples(), vec![t(5), t(3)]);
    }

    #[test]
    fn an_unordered_pair_weighs_two() {
        let trace = TxnTrace::new(vec![TraceAccess::new(t(1)), TraceAccess::new(t(2))]);
        let g = AccessGraph::from_traces([&trace]);
        assert_eq!(weight(&g, t(1), t(2)), 2);
    }

    #[test]
    fn a_read_dependent_pair_weighs_one() {
        let trace = TxnTrace::new(vec![TraceAccess::new(t(1)), TraceAccess::dependent_write(t(2))]);
        let g = AccessGraph::from_traces([&trace]);
        assert_eq!(weight(&g, t(1), t(2)), 1);
        // The same pair in the other order, also read-dependent, adds one more.
        let back = TxnTrace::new(vec![TraceAccess::new(t(2)), TraceAccess::dependent_write(t(1))]);
        assert_eq!(weight(&AccessGraph::from_traces([&trace, &back]), t(1), t(2)), 2);
    }

    #[test]
    fn repeated_traces_accumulate_weight_and_frequency() {
        let trace = TxnTrace::new(vec![TraceAccess::new(t(1)), TraceAccess::new(t(2))]);
        let g = AccessGraph::from_traces(std::iter::repeat_n(&trace, 10));
        assert_eq!(weight(&g, t(1), t(2)), 20);
        assert_eq!(g.frequency(g.tuple_index(t(1)).unwrap()), 10);
        assert_eq!(g.len(), 2);
    }

    #[test]
    fn mean_position_reflects_access_order() {
        let trace = TxnTrace::new(vec![TraceAccess::new(t(1)), TraceAccess::new(t(2)), TraceAccess::new(t(3))]);
        let g = AccessGraph::from_traces([&trace]);
        assert!(g.mean_position(g.tuple_index(t(1)).unwrap()) < g.mean_position(g.tuple_index(t(3)).unwrap()));
    }

    #[test]
    fn same_tuple_twice_in_one_txn_adds_no_self_edge() {
        let trace = TxnTrace::new(vec![TraceAccess::new(t(1)), TraceAccess::new(t(1))]);
        let g = AccessGraph::from_traces([&trace]);
        let a = g.tuple_index(t(1)).unwrap();
        assert!(g.neighbours(a).is_empty());
        assert_eq!(g.frequency(a), 2);
    }
}
