//! The declustered data layout: assigning hot tuples to register arrays of
//! MAU stages (§4.3).
//!
//! The planner orders the traced hot tuples along the pipeline by the mean
//! position at which transactions access them (tuples read before others are
//! written sit in earlier stages), then spreads each stage's share over its
//! register arrays with the capacity-constrained max-cut. The alternative
//! strategies (`Random`, `Worst`, `Hashed`) exist for the Fig 15c / Fig 16
//! ablations and for hot sets too large to justify graph construction
//! (Fig 17).

use crate::graph::{AccessGraph, TxnTrace};
use crate::partition::{partition, weight_to_parts, Goal, MAX_SWEEPS};
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
    let graph = AccessGraph::from_traces(&project_traces(traces, hot_tuples));
    let mut switch_of = partition(&graph, num_switches, capacity, Goal::Gather, seed);
    swap_repair(&graph, &mut switch_of, num_switches);
    let mut members: Vec<Vec<TupleId>> = vec![Vec::new(); num_switches];
    for (&tuple, &s) in graph.tuples().iter().zip(&switch_of) {
        members[s].push(tuple);
    }
    for &tuple in hot_tuples.iter().filter(|&&t| graph.tuple_index(t).is_none()) {
        let s = least_loaded(members.iter().map(Vec::len), capacity);
        members[s].push(tuple);
    }
    members
}

/// Pairwise swaps repair what single moves cannot under tight capacity (a
/// balanced topology fills every switch exactly, so a full switch blocks a
/// move even when two nodes would both rather trade places). Quadratic in
/// the graph size, so it runs only where that stays cheap: the partition
/// already stands on larger hot sets.
fn swap_repair(graph: &AccessGraph, switch_of: &mut [usize], num_switches: usize) {
    let n = graph.len();
    if n > 2048 {
        return;
    }
    for _ in 0..MAX_SWEEPS {
        let mut improved = false;
        for u in 0..n {
            let wu = weight_to_parts(graph, u, switch_of, num_switches);
            let cu = switch_of[u];
            for v in u + 1..n {
                let cv = switch_of[v];
                if cv == cu {
                    continue;
                }
                let wv = weight_to_parts(graph, v, switch_of, num_switches);
                let w_uv = graph.neighbours(u).iter().find(|&&(o, _)| o == v).map_or(0, |&(_, w)| w);
                // Intra-switch weight gained by trading places; the u—v
                // edge itself stays cross either way, but it is counted in
                // both nodes' affinity to the other's switch.
                let gain = (wu[cv] + wv[cu]) as i64 - (wu[cu] + wv[cv]) as i64 - 2 * w_uv as i64;
                if gain > 0 {
                    switch_of.swap(u, v);
                    improved = true;
                    break;
                }
            }
        }
        if !improved {
            break;
        }
    }
}

/// The first of the least-loaded bins that has room below `capacity`.
fn least_loaded(loads: impl Iterator<Item = usize>, capacity: usize) -> usize {
    let (bin, _) = loads
        .enumerate()
        .filter(|&(_, load)| load < capacity)
        .min_by_key(|&(_, load)| load)
        .expect("capacity checked at entry");
    bin
}

/// Takes a slot in bin `n` or, when it is full, in the next bin with room
/// (wrapping around), and returns the bin taken.
fn claim(occupancy: &mut [u32], mut n: usize, capacity: u32) -> usize {
    while occupancy[n] >= capacity {
        n = (n + 1) % occupancy.len();
    }
    occupancy[n] += 1;
    n
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
    /// The paper's declustered storage model: stages ordered by mean access
    /// position, then a max-cut over each stage's register arrays.
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

    /// Places `tuples` in order, each in the array `preferred` names for its
    /// position or, when that array is full, the next one with room.
    fn place_in_order(
        &self,
        tuples: impl IntoIterator<Item = TupleId>,
        mut preferred: impl FnMut(usize) -> usize,
    ) -> DataLayout {
        let mut layout = DataLayout::new();
        let mut occupancy = vec![0u32; self.num_arrays()];
        for (i, t) in tuples.into_iter().enumerate() {
            let n = claim(&mut occupancy, preferred(i), self.slots_per_array);
            layout.insert(t, self.nth_array(n));
        }
        layout
    }

    /// Round-robin over arrays keeps occupancy balanced regardless of key
    /// distribution.
    fn plan_hashed(&self, hot_tuples: &[TupleId]) -> DataLayout {
        let arrays = self.num_arrays();
        self.place_in_order(hot_tuples.iter().copied(), |i| i % arrays)
    }

    fn plan_random(&self, hot_tuples: &[TupleId], seed: u64) -> DataLayout {
        let mut rng = FastRng::new(seed);
        let arrays = self.num_arrays();
        self.place_in_order(hot_tuples.iter().copied(), |_| rng.pick(arrays))
    }

    /// Worst-case layout: order tuples by the position at which transactions
    /// access them and then place *later-accessed* tuples into *earlier*
    /// stages, so that single-pass execution is impossible whenever an order
    /// dependency exists. Every tuple prefers array 0, so arrays fill one
    /// after the other: consecutive (by reversed order) tuples share an
    /// array, which concentrates co-accessed tuples in it, the other
    /// ingredient of a bad layout.
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
        self.place_in_order(ranked.into_iter().map(|(t, _)| t), |_| 0)
    }

    /// The declustered storage model proper (§4.3), realised in two levels:
    ///
    /// 1. **Stage ordering** — tuples are ranked by the mean position at
    ///    which transactions access them and split evenly into one group per
    ///    MAU stage, so that tuples accessed earlier land in earlier stages.
    ///    This is the ordering step of the paper: it ensures that
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
        let arrays_per_stage = self.arrays_per_stage as usize;

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

        // Spread evenly over all stages so the pipeline depth is fully used
        // for ordering; the entry check keeps each group within its stage.
        let per_stage = traced.len().div_ceil(self.num_stages as usize).max(1);
        for (stage, chunk) in traced.chunks(per_stage).enumerate() {
            // --- Level 2: decluster within the stage -----------------------
            let chunk_tuples: Vec<TupleId> = chunk.iter().map(|(t, _)| *t).collect();
            let sub_graph = AccessGraph::from_traces(&project_traces(traces, &chunk_tuples));
            let array_of = partition(
                &sub_graph,
                arrays_per_stage,
                self.slots_per_array as usize,
                Goal::Spread,
                0x1A70_5EED ^ stage as u64,
            );
            // Tuples without a co-access in the stage go round-robin; a full
            // array spills to the next one of the same stage.
            let stage_occupancy = &mut occupancy[stage * arrays_per_stage..][..arrays_per_stage];
            let mut next_rr = 0usize;
            for &tuple in &chunk_tuples {
                let preferred = match sub_graph.tuple_index(tuple) {
                    Some(i) => array_of[i],
                    None => {
                        next_rr += 1;
                        (next_rr - 1) % arrays_per_stage
                    }
                };
                let array = claim(stage_occupancy, preferred, self.slots_per_array);
                layout.insert(tuple, StageArray { stage: stage as u8, array: array as u8 });
            }
        }

        // Hot tuples never observed in a trace: spread them over the
        // least-loaded arrays.
        for &t in hot_tuples {
            if layout.contains(t) {
                continue;
            }
            let n = least_loaded(occupancy.iter().map(|&o| o as usize), self.slots_per_array as usize);
            occupancy[n] += 1;
            layout.insert(t, self.nth_array(n));
        }
        layout
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
            traces.push(TxnTrace::new(vec![TraceAccess::new(a), TraceAccess::dependent_write(b)]));
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
        let trace = TxnTrace::new(vec![TraceAccess::new(t(1)), TraceAccess::new(t(2))]);
        assert!(!trace_is_single_pass(&layout, &trace));
        layout.insert(t(2), StageArray { stage: 0, array: 1 });
        assert!(trace_is_single_pass(&layout, &trace));
    }

    #[test]
    fn single_pass_check_detects_stage_order_violation() {
        let mut layout = DataLayout::new();
        layout.insert(t(1), StageArray { stage: 3, array: 0 });
        layout.insert(t(2), StageArray { stage: 1, array: 1 });
        let trace = TxnTrace::new(vec![TraceAccess::new(t(1)), TraceAccess::dependent_write(t(2))]);
        assert!(!trace_is_single_pass(&layout, &trace));
    }

    #[test]
    fn cold_tuples_are_ignored_by_single_pass_check() {
        let mut layout = DataLayout::new();
        layout.insert(t(1), StageArray { stage: 0, array: 0 });
        let trace = TxnTrace::new(vec![
            TraceAccess::new(t(99)), // not offloaded
            TraceAccess::new(t(1)),
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
