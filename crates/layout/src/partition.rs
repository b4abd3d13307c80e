//! Capacity-constrained partitioning of the access graph.
//!
//! Within one pipeline the paper uses MQLib's heuristics to split the hot set
//! into one partition per register array so that tuples frequently accessed
//! together land in *different* partitions: a max-cut subject to the array
//! capacity. MQLib is an external C++ library, so this crate substitutes a
//! greedy construction followed by first-improvement single moves. Across the
//! switches of a topology the goal flips: a co-accessed pair split between
//! two switches is a transaction that falls back to the host, so the same
//! heuristic keeps co-accessed tuples *together*. The evaluation only
//! consumes the resulting layouts, not the cut value itself.

use crate::graph::AccessGraph;
use p4db_common::rand_util::FastRng;
use std::cmp::Reverse;

/// What the partitioner does with co-accessed tuples.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Goal {
    /// Put them in different parts (the register arrays of a stage).
    Spread,
    /// Put them in the same part (the switches of a topology).
    Gather,
}

/// Bound on the local-search sweeps, so planning stays fast on large hot sets.
pub(crate) const MAX_SWEEPS: usize = 8;

/// Assigns every node of `graph` to one of `parts` parts of at most
/// `capacity` nodes each and returns the part of every node (same indexing
/// as [`AccessGraph::tuples`]). Deterministic for a given `(graph, seed)`.
///
/// Nodes choose in descending access frequency (the most contended tuples
/// first, when the most freedom is left), each taking the part with room
/// that minimises `(±co-access weight to its members, size)`; the goal only
/// supplies the sign. Exact ties go to a seeded coin, which spreads
/// affinity-free nodes evenly. First-improvement single moves into parts
/// with room then lower the signed weight further.
///
/// Without a capacity bound [`Goal::Gather`]'s optimum is one part holding
/// everything; callers that want the load spread pass a balanced capacity.
///
/// # Panics
/// Panics if the graph does not fit (`graph.len() > parts * capacity`).
pub fn partition(graph: &AccessGraph, parts: usize, capacity: usize, goal: Goal, seed: u64) -> Vec<usize> {
    let n = graph.len();
    assert!(n <= parts * capacity, "hot set of {n} tuples does not fit into {parts} parts of {capacity}");
    let (sign, salt): (i64, u64) = match goal {
        Goal::Spread => (1, 0xD1CE_5EED),
        Goal::Gather => (-1, 0x5117_C4A5),
    };

    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| Reverse(graph.frequency(i)));
    let mut part_of = vec![usize::MAX; n];
    let mut sizes = vec![0usize; parts];
    let mut rng = FastRng::new(seed ^ salt);
    for &node in &order {
        let weight_to = weight_to_parts(graph, node, &part_of, parts);
        let mut best: Option<(usize, (i64, usize))> = None;
        for p in (0..parts).filter(|&p| sizes[p] < capacity) {
            let key = (sign * weight_to[p] as i64, sizes[p]);
            let better = match best {
                None => true,
                Some((_, best_key)) => key < best_key || (key == best_key && rng.gen_bool(0.5)),
            };
            if better {
                best = Some((p, key));
            }
        }
        let (p, _) = best.expect("capacity check guarantees a free part");
        part_of[node] = p;
        sizes[p] += 1;
    }

    for _ in 0..MAX_SWEEPS {
        let mut improved = false;
        for node in 0..n {
            let current = part_of[node];
            let weight_to = weight_to_parts(graph, node, &part_of, parts);
            let signed = |p: usize| sign * weight_to[p] as i64;
            let mut best = current;
            for p in (0..parts).filter(|&p| p != current && sizes[p] < capacity) {
                if signed(p) < signed(best) {
                    best = p;
                }
            }
            if best != current {
                sizes[current] -= 1;
                sizes[best] += 1;
                part_of[node] = best;
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }
    part_of
}

/// Co-access weight from `node` to the members of each of `parts` parts; a
/// neighbour not yet placed (`usize::MAX`) counts toward none.
pub(crate) fn weight_to_parts(graph: &AccessGraph, node: usize, part_of: &[usize], parts: usize) -> Vec<u64> {
    let mut weight_to = vec![0u64; parts];
    for &(other, w) in graph.neighbours(node) {
        if let Some(total) = weight_to.get_mut(part_of[other]) {
            *total += w;
        }
    }
    weight_to
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{TraceAccess, TxnTrace};
    use p4db_common::{TableId, TupleId};

    fn t(key: u64) -> TupleId {
        TupleId::new(TableId(0), key)
    }

    fn pair_trace(a: u64, b: u64) -> TxnTrace {
        TxnTrace::new(vec![TraceAccess::new(t(a)), TraceAccess::new(t(b))])
    }

    /// `(cut, intra)` co-access weight of an assignment, each edge once.
    fn cut_value(graph: &AccessGraph, part_of: &[usize]) -> (u64, u64) {
        let (mut cut, mut intra) = (0, 0);
        for u in 0..graph.len() {
            for &(v, w) in graph.neighbours(u).iter().filter(|&&(v, _)| u < v) {
                if part_of[u] == part_of[v] {
                    intra += w;
                } else {
                    cut += w;
                }
            }
        }
        (cut, intra)
    }

    fn sizes(part_of: &[usize], parts: usize) -> Vec<usize> {
        (0..parts).map(|p| part_of.iter().filter(|&&q| q == p).count()).collect()
    }

    #[test]
    fn empty_graph_yields_empty_partitioning() {
        let g = AccessGraph::from_traces(&[]);
        assert!(partition(&g, 4, 10, Goal::Spread, 1).is_empty());
    }

    #[test]
    fn coaccessed_pairs_are_separated() {
        // Three transactions each touching a distinct pair: the pairs should
        // be split across partitions, giving a full cut.
        let traces = vec![pair_trace(1, 2), pair_trace(3, 4), pair_trace(5, 6)];
        let g = AccessGraph::from_traces(&traces);
        let p = partition(&g, 2, 3, Goal::Spread, 7);
        assert_eq!(cut_value(&g, &p).1, 0, "every co-accessed pair must be cut");
        for trace in &traces {
            let ids: Vec<_> = trace.tuples().iter().map(|&x| g.tuple_index(x).unwrap()).collect();
            assert_ne!(p[ids[0]], p[ids[1]]);
        }
    }

    #[test]
    fn capacity_constraint_is_respected() {
        let traces: Vec<_> = (0..12).map(|i| pair_trace(2 * i, 2 * i + 1)).collect();
        let g = AccessGraph::from_traces(&traces);
        for goal in [Goal::Spread, Goal::Gather] {
            let sizes = sizes(&partition(&g, 4, 6, goal, 3), 4);
            assert_eq!(sizes.iter().sum::<usize>(), 24);
            assert!(sizes.iter().all(|&s| s <= 6), "{goal:?}: part over capacity: {sizes:?}");
        }
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversubscription_panics() {
        let traces: Vec<_> = (0..10).map(|i| pair_trace(2 * i, 2 * i + 1)).collect();
        let g = AccessGraph::from_traces(&traces);
        let _ = partition(&g, 2, 5, Goal::Spread, 1);
    }

    #[test]
    fn clique_is_spread_across_partitions() {
        // One transaction touching 8 tuples: with 8 partitions, all tuples
        // should land in distinct partitions so the transaction can be
        // executed in a single pass.
        let trace = TxnTrace::new((0..8).map(|i| TraceAccess::new(t(i))).collect());
        let g = AccessGraph::from_traces([&trace]);
        let p = partition(&g, 8, 1, Goal::Spread, 11);
        assert_eq!(sizes(&p, 8), vec![1; 8], "all 8 tuples in distinct partitions");
        assert_eq!(cut_value(&g, &p).1, 0);
    }

    #[test]
    fn gathering_keeps_coaccessed_pairs_together() {
        // Three heavy pairs: with two parts of capacity 4, every pair can
        // stay whole in one part (capacity 3 could not — a pair would have
        // to straddle the boundary).
        let mut traces = Vec::new();
        for _ in 0..10 {
            traces.push(pair_trace(1, 2));
            traces.push(pair_trace(3, 4));
            traces.push(pair_trace(5, 6));
        }
        let g = AccessGraph::from_traces(&traces);
        let p = partition(&g, 2, 4, Goal::Gather, 7);
        assert_eq!(cut_value(&g, &p).0, 0, "every co-accessed pair fits in one part");
        assert!(sizes(&p, 2).iter().all(|&s| s <= 4));
    }

    #[test]
    fn partitioning_is_deterministic_under_seed() {
        let traces: Vec<_> = (0..20).map(|i| pair_trace(i % 13, (i * 7) % 13)).collect();
        for goal in [Goal::Spread, Goal::Gather] {
            let a = partition(&AccessGraph::from_traces(&traces), 4, 4, goal, 42);
            let b = partition(&AccessGraph::from_traces(&traces), 4, 4, goal, 42);
            assert_eq!(a, b, "{goal:?}");
        }
    }

    #[test]
    fn local_search_improves_over_random_assignment() {
        // Heavier structure: two "communities" that are frequently
        // co-accessed internally; the cut should separate members of the same
        // community.
        let mut traces = Vec::new();
        for _ in 0..50 {
            traces.push(pair_trace(0, 1));
            traces.push(pair_trace(2, 3));
        }
        traces.push(pair_trace(0, 2)); // light cross edge
        let g = AccessGraph::from_traces(&traces);
        let p = partition(&g, 2, 2, Goal::Spread, 5);
        // The heavy pairs (0,1) and (2,3) must both be cut.
        let idx = |k| g.tuple_index(t(k)).unwrap();
        assert_ne!(p[idx(0)], p[idx(1)]);
        assert_ne!(p[idx(2)], p[idx(3)]);
        assert!(cut_value(&g, &p).0 >= 200);
    }
}
