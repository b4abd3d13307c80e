//! The hot-set layout is the planner's observable contract: which register
//! array of which stage each hot tuple lands in, and which switch owns it in
//! a multi-switch topology. A change to how the planner computes a layout
//! must leave every placement bit-identical.
//!
//! For YCSB-A, SmallBank and TPC-C, the workload's own `layout_traces` are
//! drawn exactly as cluster setup draws them (default node count, seed and
//! Tofino switch geometry). Each of the four layout strategies plans the
//! whole hot set, and the placements are hashed in tuple order. The switch
//! assignment is hashed at 2 and 4 switches with the balanced capacity the
//! cluster passes, each switch's members in the order returned (the
//! per-switch planner sees them in that order).

use p4db::common::rand_util::FastRng;
use p4db::common::TupleId;
use p4db::layout::{assign_tuples_to_switches, LayoutPlanner, LayoutStrategy};
use p4db::switch::SwitchConfig;
use p4db::workloads::{SmallBank, SmallBankConfig, Tpcc, TpccConfig, Ycsb, YcsbConfig, YcsbMix};
use p4db::Workload;

/// The cluster builder's defaults: node count and seed.
const NODES: u16 = 4;
const SEED: u64 = 42;

/// FNV-1a over the little-endian bytes of `words`.
fn digest(words: &[u64]) -> u64 {
    words
        .iter()
        .flat_map(|word| word.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |hash, byte| (hash ^ byte as u64).wrapping_mul(0x0100_0000_01b3))
}

fn tuple_words(tuple: TupleId) -> [u64; 2] {
    [tuple.table.0 as u64, tuple.key]
}

/// Digests of the Declustered, Random, Worst and Hashed layouts, then of the
/// 2- and 4-switch assignments, of `workload`'s hot set.
fn layout_digests(workload: &dyn Workload) -> [u64; 6] {
    let hot: Vec<TupleId> = workload.hot_tuples(NODES).iter().map(|h| h.tuple).collect();
    let traces = workload.layout_traces(NODES, &mut FastRng::new(SEED ^ 0xFEED));
    let geometry = SwitchConfig::tofino_defaults();
    let planner = LayoutPlanner::new(geometry.num_stages, geometry.arrays_per_stage, geometry.slots_per_array);
    let strategies = [
        LayoutStrategy::Declustered,
        LayoutStrategy::Random { seed: SEED },
        LayoutStrategy::Worst,
        LayoutStrategy::Hashed,
    ];
    let mut digests = [0; 6];
    for (slot, strategy) in strategies.into_iter().enumerate() {
        let layout = planner.plan(&hot, &traces, strategy);
        assert_eq!(layout.len(), hot.len(), "{strategy:?} must place the whole hot set");
        let mut placed: Vec<_> = layout.iter().collect();
        placed.sort_by_key(|&(tuple, _)| tuple_words(tuple));
        let words: Vec<u64> = placed
            .iter()
            .flat_map(|&(tuple, at)| tuple_words(tuple).into_iter().chain([at.stage as u64, at.array as u64]))
            .collect();
        digests[slot] = digest(&words);
    }
    for (slot, switches) in [(4, 2), (5, 4)] {
        let capacity = hot.len().div_ceil(switches);
        let members = assign_tuples_to_switches(&hot, &traces, switches, capacity, SEED);
        let mut words = Vec::new();
        for (switch, tuples) in members.iter().enumerate() {
            words.extend([switch as u64, tuples.len() as u64]);
            words.extend(tuples.iter().flat_map(|&tuple| tuple_words(tuple)));
        }
        digests[slot] = digest(&words);
    }
    digests
}

#[test]
fn every_workload_plans_the_recorded_layouts() {
    let digests = [
        ("ycsb-a", layout_digests(&Ycsb::new(YcsbConfig::new(YcsbMix::A)))),
        ("smallbank", layout_digests(&SmallBank::new(SmallBankConfig::default()))),
        ("tpcc", layout_digests(&Tpcc::new(TpccConfig::new(NODES as u64)))),
    ];
    // [declustered, random, worst, hashed, 2 switches, 4 switches] per workload.
    let recorded = [
        (
            "ycsb-a",
            [
                13313330634331264807,
                18180816204335309641,
                13423379505306662169,
                13773923524336559941,
                15269978733134045784,
                14639040776790970941,
            ],
        ),
        (
            "smallbank",
            [
                6610484394961707941,
                8518653828844116849,
                13870314034967201861,
                657877467808754277,
                2478999235849718708,
                18396019033238063893,
            ],
        ),
        (
            "tpcc",
            [
                747142565387217049,
                1555431529675664476,
                4437653985641440389,
                1462363192913373481,
                13270526680750931972,
                1420812799219120173,
            ],
        ),
    ];
    assert_eq!(digests, recorded, "a layout of a fixed hot set and trace stream changed");
}
