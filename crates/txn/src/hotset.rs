//! The replicated hot-set index (§6.1).
//!
//! Every database node keeps a small index with the primary keys of all hot
//! tuples and, for each, the owning switch plus the MAU stage / register
//! array / cell it was offloaded to. The index is consulted on every
//! transaction to decide whether it is hot, cold or warm, to route a hot
//! transaction to its owning switch, and to build the switch packet
//! (including the `is_multipass` flag and the pipeline-lock demand) without
//! asking any switch. In this reproduction the "replica" is a shared
//! immutable structure built once after offloading.

use p4db_common::hash::FastMap;
use p4db_common::sync::unpoison;
use p4db_common::{SwitchId, TupleId};
use p4db_switch::{ControlPlane, RegisterSlot};
use std::sync::{Arc, RwLock};

/// Immutable hot-set index, shared by all workers of all nodes. Each hot
/// tuple maps to exactly one `(switch, register slot)` pair.
#[derive(Clone, Debug, Default)]
pub struct HotSetIndex {
    map: FastMap<TupleId, (SwitchId, RegisterSlot)>,
}

impl HotSetIndex {
    /// An empty index: every tuple is cold (the No-Switch / LM-Switch data
    /// path still consults it for hot-tuple *identity* in LM mode, see
    /// [`Self::from_tuples`]).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Builds the index from a single switch control plane after offloading
    /// (the single-switch topology: everything owned by switch 0).
    pub fn from_control_plane(cp: &ControlPlane) -> Self {
        Self::empty().with_switch(SwitchId(0), Some(cp))
    }

    /// This index with `switch`'s entries replaced by `cp`'s placements, or
    /// dropped without one; every other switch's entries stay as they are.
    /// Placement maps are disjoint across switches (the layout assigns every
    /// hot tuple to one switch), so a multi-switch topology's index is the
    /// empty one with each switch's placements added in any order.
    pub fn with_switch(&self, switch: SwitchId, cp: Option<&ControlPlane>) -> Self {
        let mut map = self.map.clone();
        map.retain(|_, &mut (owner, _)| owner != switch);
        for (tuple, slot) in cp.into_iter().flat_map(ControlPlane::placements) {
            map.insert(tuple, (switch, slot));
        }
        HotSetIndex { map }
    }

    /// Builds an index that only records hot-tuple identity (used by the
    /// LM-Switch baseline, where hot tuples stay on the nodes but their locks
    /// are managed by the switch). The register slots are synthetic.
    pub fn from_tuples(tuples: impl IntoIterator<Item = TupleId>) -> Self {
        HotSetIndex { map: tuples.into_iter().map(|t| (t, (SwitchId(0), RegisterSlot::new(0, 0, 0)))).collect() }
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Whether a tuple is part of the offloaded hot set.
    #[inline]
    pub fn is_hot(&self, tuple: TupleId) -> bool {
        self.map.contains_key(&tuple)
    }

    /// The register slot of a hot tuple.
    #[inline]
    pub fn slot(&self, tuple: TupleId) -> Option<RegisterSlot> {
        self.map.get(&tuple).map(|&(_, slot)| slot)
    }

    /// The switch a hot tuple is offloaded to.
    #[inline]
    pub fn owner(&self, tuple: TupleId) -> Option<SwitchId> {
        self.map.get(&tuple).map(|&(s, _)| s)
    }

    /// Both coordinates at once: `(owning switch, register slot)`.
    #[inline]
    pub fn entry(&self, tuple: TupleId) -> Option<(SwitchId, RegisterSlot)> {
        self.map.get(&tuple).copied()
    }

    /// Iterates all `(tuple, slot)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (TupleId, RegisterSlot)> + '_ {
        self.map.iter().map(|(t, &(_, s))| (*t, s))
    }

    /// A stable lock id for a hot tuple, used by the LM-Switch baseline.
    pub fn lock_id(tuple: TupleId) -> u64 {
        (tuple.table.0 as u64) << 48 ^ tuple.key.wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }
}

/// The cluster-wide slot for the current hot-set index.
///
/// The index itself stays immutable (workers snapshot it once per
/// transaction so classification and packet construction always agree), but
/// the *slot* is updatable: a mid-run switch re-offload — crash recovery
/// that places the hot set into fresh register slots — publishes the rebuilt
/// index here and every subsequent transaction picks it up. This models the
/// control plane pushing an updated index replica to the nodes (§6.1).
#[derive(Debug)]
pub struct HotIndexCell {
    inner: RwLock<Arc<HotSetIndex>>,
}

impl HotIndexCell {
    pub fn new(index: HotSetIndex) -> Self {
        HotIndexCell { inner: RwLock::new(Arc::new(index)) }
    }

    /// The current index. Cheap (an `Arc` clone under a read lock); callers
    /// executing a transaction take one snapshot and use it throughout.
    pub fn load(&self) -> Arc<HotSetIndex> {
        let guard = unpoison(self.inner.read());
        Arc::clone(&guard)
    }

    /// Publishes `f` of the current index. No other publication lands in
    /// between, so updates of different switches' entries never overwrite
    /// each other.
    pub fn update(&self, f: impl FnOnce(&HotSetIndex) -> HotSetIndex) {
        let mut guard = unpoison(self.inner.write());
        *guard = Arc::new(f(&guard));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4db_common::TableId;
    use p4db_switch::{RegisterMemory, SwitchConfig};
    use std::sync::Arc;

    fn t(key: u64) -> TupleId {
        TupleId::new(TableId(0), key)
    }

    #[test]
    fn from_control_plane_reflects_offloads() {
        let config = SwitchConfig::tiny();
        let memory = Arc::new(RegisterMemory::new(config));
        let mut cp = ControlPlane::new(config, memory);
        cp.offload_into(t(1), 0, 0, 8, 5).unwrap();
        cp.offload_into(t(2), 1, 1, 8, 7).unwrap();
        let idx = HotSetIndex::from_control_plane(&cp);
        assert_eq!(idx.len(), 2);
        assert!(idx.is_hot(t(1)));
        assert!(!idx.is_hot(t(3)));
        let slot = idx.slot(t(2)).unwrap();
        assert_eq!((slot.stage, slot.array), (1, 1));
        assert_eq!(idx.owner(t(1)), Some(SwitchId(0)), "single-switch topologies own everything at switch 0");
    }

    #[test]
    fn with_switch_records_per_switch_ownership() {
        let config = SwitchConfig::tiny();
        let mut cps = Vec::new();
        for keys in [[1u64, 2], [3, 4]] {
            let memory = Arc::new(RegisterMemory::new(config));
            let mut cp = ControlPlane::new(config, memory);
            for k in keys {
                cp.offload_into(t(k), (k % 4) as u8, 0, 8, 0).unwrap();
            }
            cps.push(cp);
        }
        let idx = (cps.iter().enumerate())
            .fold(HotSetIndex::empty(), |idx, (i, cp)| idx.with_switch(SwitchId(i as u16), Some(cp)));
        assert_eq!(idx.len(), 4);
        assert_eq!(idx.owner(t(1)), Some(SwitchId(0)));
        assert_eq!(idx.owner(t(2)), Some(SwitchId(0)));
        assert_eq!(idx.owner(t(3)), Some(SwitchId(1)));
        assert_eq!(idx.owner(t(4)), Some(SwitchId(1)));
        assert_eq!(idx.owner(t(9)), None);
        let (sw, slot) = idx.entry(t(3)).unwrap();
        assert_eq!(sw, SwitchId(1));
        assert_eq!(slot.stage, 3);
        assert_eq!(idx.iter().filter(|&(t, _)| idx.owner(t) == Some(SwitchId(1))).count(), 2);

        // Dropping switch 1 keeps switch 0's entries; giving it a control
        // plane back restores its own.
        let without = idx.with_switch(SwitchId(1), None);
        assert_eq!((without.len(), without.owner(t(1)), without.owner(t(3))), (2, Some(SwitchId(0)), None));
        let with = without.with_switch(SwitchId(1), Some(&cps[1]));
        assert_eq!((with.len(), with.entry(t(3))), (4, idx.entry(t(3))));
    }

    #[test]
    fn from_tuples_marks_identity_only() {
        let idx = HotSetIndex::from_tuples([t(1), t(2)]);
        assert!(idx.is_hot(t(1)));
        assert!(idx.slot(t(1)).is_some());
        assert!(!idx.is_hot(t(9)));
    }

    #[test]
    fn empty_index_classifies_everything_cold() {
        let idx = HotSetIndex::empty();
        assert!(idx.is_empty());
        assert!(!idx.is_hot(t(0)));
    }

    #[test]
    fn hot_index_cell_updates_atomically() {
        let cell = HotIndexCell::new(HotSetIndex::from_tuples([t(1)]));
        let before = cell.load();
        assert!(before.is_hot(t(1)));
        cell.update(|old| {
            assert!(old.is_hot(t(1)), "the update sees the current index");
            HotSetIndex::from_tuples([t(2)])
        });
        assert!(cell.load().is_hot(t(2)));
        assert!(!cell.load().is_hot(t(1)));
        // Snapshots taken before the update stay valid.
        assert!(before.is_hot(t(1)));
    }

    #[test]
    fn lock_ids_are_stable_and_distinct_enough() {
        assert_eq!(HotSetIndex::lock_id(t(5)), HotSetIndex::lock_id(t(5)));
        assert_ne!(HotSetIndex::lock_id(t(5)), HotSetIndex::lock_id(t(6)));
        assert_ne!(HotSetIndex::lock_id(TupleId::new(TableId(1), 5)), HotSetIndex::lock_id(t(5)));
    }
}
