//! The declustered data layout: assigning hot tuples to register arrays of
//! MAU stages (§4.3).
//!
//! The planner runs the capacity-constrained max-cut, then orders the
//! resulting partitions along the pipeline using the directed edges of the
//! access graph (tuples that are read before other tuples are written must
//! sit in earlier stages), and finally maps partitions onto concrete
//! `(stage, array)` register arrays. The alternative strategies (`Random`,
//! `Worst`, `Hashed`) exist for the Fig 15c / Fig 16 ablations and for hot
//! sets too large to justify graph construction (Fig 17).

use crate::graph::{AccessGraph, TxnTrace};
use crate::maxcut::{assign_switches, max_cut};
use p4db_common::rand_util::FastRng;
use p4db_common::TupleId;
use std::collections::{HashMap, HashSet};

/// Assigns every hot tuple to exactly one switch of a multi-switch topology:
/// the first level of the multi-switch layout, run *before* the per-switch
/// [`LayoutPlanner`] places each switch's share onto its own pipeline.
///
/// Tuples that co-occur in the traces are kept on the same switch where the
/// per-switch `capacity` allows (each crossing pair is a transaction that
/// falls back to the host path); tuples never seen in a trace fill the
/// least-loaded switches. Deterministic for a given `(inputs, seed)` pair,
/// and every hot tuple lands on exactly one switch.
///
/// # Panics
/// Panics if the hot set does not fit (`hot_tuples.len() > num_switches *
/// capacity`) or if `num_switches == 0`.
pub fn assign_tuples_to_switches(
    hot_tuples: &[TupleId],
    traces: &[TxnTrace],
    num_switches: usize,
    capacity: usize,
    seed: u64,
) -> Vec<Vec<TupleId>> {
    assert!(num_switches > 0, "need at least one switch");
    assert!(
        hot_tuples.len() <= num_switches * capacity,
        "hot set of {} tuples does not fit onto {num_switches} switches of {capacity}",
        hot_tuples.len()
    );
    if num_switches == 1 {
        return vec![hot_tuples.to_vec()];
    }

    // Affinity assignment over the hot-projected access graph (cold accesses
    // carry no cross-switch cost, so they are dropped first).
    let sub_traces = project_traces(traces, hot_tuples);
    let graph = AccessGraph::from_traces(&sub_traces);
    let hot_set: HashSet<TupleId> = hot_tuples.iter().copied().collect();
    let mut members: Vec<Vec<TupleId>> = vec![Vec::new(); num_switches];
    let mut assigned: HashSet<TupleId> = HashSet::new();
    if !graph.is_empty() {
        let assignment = assign_switches(&graph, num_switches, capacity, seed);
        for (node, &tuple) in graph.tuples().iter().enumerate() {
            if hot_set.contains(&tuple) {
                members[assignment.switch_of[node]].push(tuple);
                assigned.insert(tuple);
            }
        }
    }

    // Untraced hot tuples: fill the least-loaded switch (first on ties, so
    // the result does not depend on iteration luck).
    for &tuple in hot_tuples {
        if assigned.contains(&tuple) {
            continue;
        }
        let (s, _) = members
            .iter()
            .enumerate()
            .filter(|(_, m)| m.len() < capacity)
            .min_by_key(|(s, m)| (m.len(), *s))
            .expect("capacity checked at entry");
        members[s].push(tuple);
    }
    members
}

/// A register array position on the switch (the cell index within the array
/// is assigned later by the switch control plane during offload).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct StageArray {
    pub stage: u8,
    pub array: u8,
}

/// The hot-set data layout: tuple → register array.
#[derive(Clone, Debug, Default)]
pub struct DataLayout {
    placement: HashMap<TupleId, StageArray>,
}

impl DataLayout {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn insert(&mut self, tuple: TupleId, at: StageArray) {
        self.placement.insert(tuple, at);
    }

    pub fn get(&self, tuple: TupleId) -> Option<StageArray> {
        self.placement.get(&tuple).copied()
    }

    pub fn contains(&self, tuple: TupleId) -> bool {
        self.placement.contains_key(&tuple)
    }

    pub fn len(&self) -> usize {
        self.placement.len()
    }

    pub fn is_empty(&self) -> bool {
        self.placement.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = (TupleId, StageArray)> + '_ {
        self.placement.iter().map(|(t, s)| (*t, *s))
    }

    /// Number of tuples per (stage, array), used to check capacity and in
    /// tests.
    pub fn occupancy(&self) -> HashMap<StageArray, usize> {
        let mut occ = HashMap::new();
        for (_, sa) in self.iter() {
            *occ.entry(sa).or_insert(0) += 1;
        }
        occ
    }
}

/// How the planner assigns tuples to register arrays.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum LayoutStrategy {
    /// The paper's declustered storage model: max-cut + direction-aware
    /// ordering of partitions onto stages.
    Declustered,
    /// Tuples are assigned to register arrays pseudo-randomly (the
    /// "random / worst-case data layout" baseline of Fig 15c and Fig 16).
    Random { seed: u64 },
    /// Adversarial layout: tuples are placed so that the access order of the
    /// traces is *reversed* along the pipeline, maximising multi-pass
    /// executions. Used to bound the cost of a bad layout.
    Worst,
    /// Key-hash placement without looking at the workload. Used for very
    /// large hot sets (Fig 17) where building the access graph would dominate
    /// and the workload (YCSB) has no ordering dependencies anyway.
    Hashed,
}

/// The data-layout planner. Mirrors the geometry of the switch it plans for.
#[derive(Copy, Clone, Debug)]
pub struct LayoutPlanner {
    pub num_stages: u8,
    pub arrays_per_stage: u8,
    pub slots_per_array: u32,
}

impl LayoutPlanner {
    pub fn new(num_stages: u8, arrays_per_stage: u8, slots_per_array: u32) -> Self {
        assert!(num_stages > 0 && arrays_per_stage > 0 && slots_per_array > 0);
        LayoutPlanner { num_stages, arrays_per_stage, slots_per_array }
    }

    fn num_arrays(&self) -> usize {
        self.num_stages as usize * self.arrays_per_stage as usize
    }

    fn nth_array(&self, n: usize) -> StageArray {
        // Stage-major order: arrays of stage 0 first, then stage 1, ...
        StageArray {
            stage: (n / self.arrays_per_stage as usize) as u8,
            array: (n % self.arrays_per_stage as usize) as u8,
        }
    }

    /// Plans a layout for `hot_tuples` given representative transaction
    /// `traces` over (a subset of) those tuples.
    ///
    /// Tuples never seen in any trace are placed with the hashed strategy —
    /// they carry no ordering information, so any free array is as good as
    /// another.
    ///
    /// # Panics
    /// Panics if the hot set does not fit on the switch.
    pub fn plan(&self, hot_tuples: &[TupleId], traces: &[TxnTrace], strategy: LayoutStrategy) -> DataLayout {
        let capacity_total = self.num_arrays() as u64 * self.slots_per_array as u64;
        assert!(
            hot_tuples.len() as u64 <= capacity_total,
            "hot set of {} tuples exceeds switch capacity of {capacity_total}",
            hot_tuples.len()
        );

        match strategy {
            LayoutStrategy::Hashed => self.plan_hashed(hot_tuples),
            LayoutStrategy::Random { seed } => self.plan_random(hot_tuples, seed),
            LayoutStrategy::Worst => self.plan_worst(hot_tuples, traces),
            LayoutStrategy::Declustered => self.plan_declustered(hot_tuples, traces),
        }
    }

    fn plan_hashed(&self, hot_tuples: &[TupleId]) -> DataLayout {
        let mut layout = DataLayout::new();
        let arrays = self.num_arrays();
        let mut occupancy = vec![0u32; arrays];
        for (i, &t) in hot_tuples.iter().enumerate() {
            // Round-robin over arrays keeps occupancy balanced regardless of
            // key distribution.
            let mut n = i % arrays;
            while occupancy[n] >= self.slots_per_array {
                n = (n + 1) % arrays;
            }
            occupancy[n] += 1;
            layout.insert(t, self.nth_array(n));
        }
        layout
    }

    fn plan_random(&self, hot_tuples: &[TupleId], seed: u64) -> DataLayout {
        let mut layout = DataLayout::new();
        let arrays = self.num_arrays();
        let mut occupancy = vec![0u32; arrays];
        let mut rng = FastRng::new(seed);
        for &t in hot_tuples {
            let mut n = rng.pick(arrays);
            while occupancy[n] >= self.slots_per_array {
                n = (n + 1) % arrays;
            }
            occupancy[n] += 1;
            layout.insert(t, self.nth_array(n));
        }
        layout
    }

    /// Worst-case layout: order tuples by the position at which transactions
    /// access them and then place *later-accessed* tuples into *earlier*
    /// stages, so that single-pass execution is impossible whenever an order
    /// dependency exists.
    fn plan_worst(&self, hot_tuples: &[TupleId], traces: &[TxnTrace]) -> DataLayout {
        let graph = AccessGraph::from_traces(traces);
        let mut ranked: Vec<(TupleId, f64)> = hot_tuples
            .iter()
            .map(|&t| {
                let pos = graph.tuple_index(t).map(|i| graph.mean_position(i)).unwrap_or(0.0);
                (t, pos)
            })
            .collect();
        // Descending mean position: tuples accessed last go to stage 0.
        ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));

        let mut layout = DataLayout::new();
        let arrays = self.num_arrays();
        let mut occupancy = vec![0u32; arrays];
        let mut n = 0usize;
        for (t, _) in ranked {
            while occupancy[n] >= self.slots_per_array {
                n = (n + 1) % arrays;
            }
            occupancy[n] += 1;
            layout.insert(t, self.nth_array(n));
            // Advance slowly so consecutive (by reversed order) tuples fill an
            // array before moving on — this concentrates co-accessed tuples in
            // the same array, the other ingredient of a bad layout.
            if occupancy[n] >= self.slots_per_array {
                n = (n + 1) % arrays;
            }
        }
        layout
    }

    /// The declustered storage model proper (§4.3), realised in two levels:
    ///
    /// 1. **Stage ordering** — tuples are ranked by the mean position at
    ///    which transactions access them and split evenly into one group per
    ///    MAU stage, so that tuples accessed earlier (the sources of directed
    ///    access-graph edges) land in earlier stages. This is the
    ///    direction-aware ordering step of the paper: it ensures that
    ///    read-dependent writes can be satisfied downstream of the reads they
    ///    depend on.
    /// 2. **Intra-stage declustering** — within each stage group a
    ///    capacity-constrained max-cut over the induced access graph spreads
    ///    co-accessed tuples across the stage's register arrays, so that a
    ///    transaction never has to touch the same array twice in a pass.
    fn plan_declustered(&self, hot_tuples: &[TupleId], traces: &[TxnTrace]) -> DataLayout {
        let graph = AccessGraph::from_traces(traces);
        let mut layout = DataLayout::new();
        let mut occupancy = vec![0u32; self.num_arrays()];

        // --- Level 1: order traced tuples by mean access position ----------
        let hot_set: HashSet<TupleId> = hot_tuples.iter().copied().collect();
        let mut traced: Vec<(TupleId, f64)> = graph
            .tuples()
            .iter()
            .enumerate()
            .filter(|(_, t)| hot_set.contains(t))
            .map(|(i, &t)| (t, graph.mean_position(i)))
            .collect();
        traced.sort_by(|a, b| {
            a.1.partial_cmp(&b.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| (a.0.table.0, a.0.key).cmp(&(b.0.table.0, b.0.key)))
        });

        if !traced.is_empty() {
            let stage_capacity = self.arrays_per_stage as usize * self.slots_per_array as usize;
            // Spread evenly over all stages (never exceeding a stage's
            // capacity) so the pipeline depth is fully used for ordering.
            let per_stage = traced.len().div_ceil(self.num_stages as usize).min(stage_capacity);
            for (stage_idx, chunk) in traced.chunks(per_stage.max(1)).enumerate() {
                let stage = (stage_idx as u8).min(self.num_stages - 1);
                // --- Level 2: decluster within the stage -------------------
                let chunk_tuples: Vec<TupleId> = chunk.iter().map(|(t, _)| *t).collect();
                let sub_traces = project_traces(traces, &chunk_tuples);
                let sub_graph = AccessGraph::from_traces(&sub_traces);
                let partitioning = if sub_graph.is_empty() {
                    None
                } else {
                    Some(max_cut(
                        &sub_graph,
                        self.arrays_per_stage as usize,
                        self.slots_per_array as usize,
                        0x1A70_5EED ^ stage_idx as u64,
                    ))
                };
                let mut next_rr = 0usize;
                for &tuple in &chunk_tuples {
                    let array = match partitioning
                        .as_ref()
                        .and_then(|p| sub_graph.tuple_index(tuple).map(|i| p.partition_of[i]))
                    {
                        Some(a) => a as u8,
                        None => {
                            let a = (next_rr % self.arrays_per_stage as usize) as u8;
                            next_rr += 1;
                            a
                        }
                    };
                    // Respect per-array capacity; overflow spills to the next
                    // array of the same stage.
                    let mut array = array;
                    let mut attempts = 0;
                    while occupancy[self.flat_index(stage, array)] >= self.slots_per_array
                        && attempts < self.arrays_per_stage
                    {
                        array = (array + 1) % self.arrays_per_stage;
                        attempts += 1;
                    }
                    let sa = StageArray { stage, array };
                    occupancy[self.flat_index(stage, array)] += 1;
                    layout.insert(tuple, sa);
                }
            }
        }

        // Hot tuples never observed in a trace: spread them over the
        // least-loaded arrays.
        for &t in hot_tuples {
            if layout.contains(t) {
                continue;
            }
            let (n, _) = occupancy
                .iter()
                .enumerate()
                .filter(|(_, &o)| o < self.slots_per_array)
                .min_by_key(|(_, &o)| o)
                .expect("capacity checked at entry");
            occupancy[n] += 1;
            layout.insert(t, self.nth_array(n));
        }
        layout
    }

    fn flat_index(&self, stage: u8, array: u8) -> usize {
        stage as usize * self.arrays_per_stage as usize + array as usize
    }
}

/// Restricts traces to the accesses that touch `tuples`, dropping everything
/// else. Used to build the per-stage sub-graphs of the declustered planner.
fn project_traces(traces: &[TxnTrace], tuples: &[TupleId]) -> Vec<TxnTrace> {
    let keep: HashSet<TupleId> = tuples.iter().copied().collect();
    traces
        .iter()
        .filter_map(|t| {
            let accesses: Vec<_> = t.accesses.iter().copied().filter(|a| keep.contains(&a.tuple)).collect();
            if accesses.len() >= 2 {
                Some(TxnTrace::new(accesses))
            } else {
                None
            }
        })
        .collect()
}

/// Evaluates a layout: the fraction of the given traces that can execute in a
/// single pipeline pass under it (the metric Fig 15c / Fig 16 turn on).
///
/// A trace is single-pass iff visiting its accesses in order never goes to a
/// strictly earlier stage and never touches the same register array twice.
/// Tuples missing from the layout are ignored (they are cold and execute on
/// the host).
pub fn single_pass_fraction(layout: &DataLayout, traces: &[TxnTrace]) -> f64 {
    if traces.is_empty() {
        return 1.0;
    }
    let single = traces.iter().filter(|t| trace_is_single_pass(layout, t)).count();
    single as f64 / traces.len() as f64
}

/// Whether one trace is single-pass under the layout.
pub fn trace_is_single_pass(layout: &DataLayout, trace: &TxnTrace) -> bool {
    let mut last_stage: i32 = -1;
    let mut touched: Vec<StageArray> = Vec::new();
    for access in &trace.accesses {
        let Some(sa) = layout.get(access.tuple) else { continue };
        if (sa.stage as i32) < last_stage || touched.contains(&sa) {
            return false;
        }
        last_stage = sa.stage as i32;
        touched.push(sa);
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::TraceAccess;
    use p4db_common::TableId;

    fn t(key: u64) -> TupleId {
        TupleId::new(TableId(0), key)
    }

    fn planner() -> LayoutPlanner {
        LayoutPlanner::new(4, 2, 16)
    }

    /// SmallBank-like traces: read A, read B, then dependent writes to both.
    fn dependent_traces() -> Vec<TxnTrace> {
        let mut traces = Vec::new();
        for i in 0..8u64 {
            let a = t(2 * i);
            let b = t(2 * i + 1);
            traces.push(TxnTrace::new(vec![TraceAccess::read(a), TraceAccess::dependent_write(b)]));
        }
        traces
    }

    #[test]
    fn hashed_layout_balances_occupancy() {
        let tuples: Vec<_> = (0..64).map(t).collect();
        let layout = planner().plan(&tuples, &[], LayoutStrategy::Hashed);
        assert_eq!(layout.len(), 64);
        let occ = layout.occupancy();
        assert_eq!(occ.len(), 8);
        for (_, count) in occ {
            assert_eq!(count, 8);
        }
    }

    #[test]
    fn random_layout_respects_capacity() {
        let tuples: Vec<_> = (0..128).map(t).collect(); // exactly full: 8 arrays * 16
        let layout = planner().plan(&tuples, &[], LayoutStrategy::Random { seed: 3 });
        assert_eq!(layout.len(), 128);
        for (_, count) in layout.occupancy() {
            assert!(count <= 16);
        }
    }

    #[test]
    #[should_panic(expected = "exceeds switch capacity")]
    fn oversized_hot_set_is_rejected() {
        let tuples: Vec<_> = (0..129).map(t).collect();
        let _ = planner().plan(&tuples, &[], LayoutStrategy::Hashed);
    }

    #[test]
    fn declustered_layout_makes_dependent_traces_single_pass() {
        let traces = dependent_traces();
        let tuples: Vec<_> = (0..16).map(t).collect();
        let layout = planner().plan(&tuples, &traces, LayoutStrategy::Declustered);
        assert_eq!(layout.len(), 16);
        let frac = single_pass_fraction(&layout, &traces);
        assert!(frac > 0.95, "declustered layout should make (almost) all traces single-pass, got {frac}");
    }

    #[test]
    fn worst_layout_defeats_single_pass_execution() {
        let traces = dependent_traces();
        let tuples: Vec<_> = (0..16).map(t).collect();
        let worst = planner().plan(&tuples, &traces, LayoutStrategy::Worst);
        let declustered = planner().plan(&tuples, &traces, LayoutStrategy::Declustered);
        let worst_frac = single_pass_fraction(&worst, &traces);
        let good_frac = single_pass_fraction(&declustered, &traces);
        assert!(worst_frac < good_frac, "worst={worst_frac} declustered={good_frac}");
    }

    #[test]
    fn single_pass_check_detects_same_array_reuse() {
        let mut layout = DataLayout::new();
        layout.insert(t(1), StageArray { stage: 0, array: 0 });
        layout.insert(t(2), StageArray { stage: 0, array: 0 });
        let trace = TxnTrace::new(vec![TraceAccess::read(t(1)), TraceAccess::read(t(2))]);
        assert!(!trace_is_single_pass(&layout, &trace));
        layout.insert(t(2), StageArray { stage: 0, array: 1 });
        assert!(trace_is_single_pass(&layout, &trace));
    }

    #[test]
    fn single_pass_check_detects_stage_order_violation() {
        let mut layout = DataLayout::new();
        layout.insert(t(1), StageArray { stage: 3, array: 0 });
        layout.insert(t(2), StageArray { stage: 1, array: 1 });
        let trace = TxnTrace::new(vec![TraceAccess::read(t(1)), TraceAccess::dependent_write(t(2))]);
        assert!(!trace_is_single_pass(&layout, &trace));
    }

    #[test]
    fn cold_tuples_are_ignored_by_single_pass_check() {
        let mut layout = DataLayout::new();
        layout.insert(t(1), StageArray { stage: 0, array: 0 });
        let trace = TxnTrace::new(vec![
            TraceAccess::read(t(99)), // not offloaded
            TraceAccess::read(t(1)),
        ]);
        assert!(trace_is_single_pass(&layout, &trace));
    }

    #[test]
    fn untraced_hot_tuples_still_get_placed() {
        let traces = dependent_traces(); // uses tuples 0..16
        let tuples: Vec<_> = (0..32).map(t).collect(); // 16 extra untraced
        let layout = planner().plan(&tuples, &traces, LayoutStrategy::Declustered);
        assert_eq!(layout.len(), 32);
        for tuple in tuples {
            assert!(layout.contains(tuple));
        }
    }

    #[test]
    fn empty_traces_give_full_single_pass_fraction() {
        let layout = DataLayout::new();
        assert_eq!(single_pass_fraction(&layout, &[]), 1.0);
    }

    #[test]
    fn switch_assignment_covers_every_tuple_exactly_once() {
        let traces = dependent_traces(); // uses tuples 0..16
        let tuples: Vec<_> = (0..24).map(t).collect(); // 8 extra untraced
        let members = assign_tuples_to_switches(&tuples, &traces, 3, 8, 9);
        assert_eq!(members.len(), 3);
        let mut seen: Vec<TupleId> = members.iter().flatten().copied().collect();
        assert_eq!(seen.len(), 24, "every hot tuple assigned");
        seen.sort_by_key(|t| t.key);
        seen.dedup();
        assert_eq!(seen.len(), 24, "no tuple assigned twice");
        for m in &members {
            assert!(m.len() <= 8, "switch over capacity: {}", m.len());
        }
    }

    #[test]
    fn switch_assignment_keeps_traced_pairs_on_one_switch() {
        let traces = dependent_traces();
        let tuples: Vec<_> = (0..16).map(t).collect();
        let members = assign_tuples_to_switches(&tuples, &traces, 2, 8, 5);
        let switch_of = |tuple: TupleId| members.iter().position(|m| m.contains(&tuple)).unwrap();
        for i in 0..8u64 {
            assert_eq!(
                switch_of(t(2 * i)),
                switch_of(t(2 * i + 1)),
                "co-accessed pair ({}, {}) split across switches",
                2 * i,
                2 * i + 1
            );
        }
    }

    #[test]
    fn switch_assignment_is_deterministic() {
        let traces = dependent_traces();
        let tuples: Vec<_> = (0..24).map(t).collect();
        let a = assign_tuples_to_switches(&tuples, &traces, 3, 8, 11);
        let b = assign_tuples_to_switches(&tuples, &traces, 3, 8, 11);
        assert_eq!(a, b);
    }

    #[test]
    fn single_switch_assignment_is_the_identity() {
        let tuples: Vec<_> = (0..5).map(t).collect();
        let members = assign_tuples_to_switches(&tuples, &[], 1, 16, 3);
        assert_eq!(members, vec![tuples]);
    }
}
