//! Secondary indexes.
//!
//! P4DB keeps secondary indexes on the database nodes even for hot tuples
//! (§6.1): a secondary-key lookup first resolves to a primary key on the
//! node, and only then does the engine decide whether the primary key is hot
//! (switch) or cold (host). Index maintenance after switch transactions is
//! possible precisely because switch transactions cannot fail.
//!
//! Sharded identically to [`crate::table::Table`]: a fixed power-of-two
//! array of latch-protected map shards selected by the mixed secondary key,
//! so concurrent lookups of unrelated secondary keys never contend.

use p4db_common::hash::{mix64, FastMap};
use p4db_common::sync::unpoison;
use std::sync::RwLock;

/// Default shard count, matching the row store.
const INDEX_SHARDS: usize = 64;

type IndexShard = RwLock<FastMap<u64, Vec<u64>>>;

/// A secondary index: 64-bit secondary key → primary keys.
///
/// Non-unique by design (e.g. several TPC-C customers share a last name).
#[derive(Debug)]
pub struct SecondaryIndex {
    shards: Box<[IndexShard]>,
    mask: u64,
}

impl Default for SecondaryIndex {
    fn default() -> Self {
        Self::with_shards(INDEX_SHARDS)
    }
}

impl SecondaryIndex {
    pub fn new() -> Self {
        Self::default()
    }

    /// An index with an explicit shard count (rounded up to a power of two;
    /// `1` puts every entry behind one latch).
    pub fn with_shards(shards: usize) -> Self {
        let shards = shards.max(1).next_power_of_two();
        SecondaryIndex {
            shards: (0..shards).map(|_| RwLock::new(FastMap::default())).collect(),
            mask: shards as u64 - 1,
        }
    }

    #[inline]
    fn shard(&self, secondary: u64) -> &IndexShard {
        &self.shards[(mix64(secondary) & self.mask) as usize]
    }

    /// Adds a `(secondary, primary)` association. Duplicate associations are
    /// ignored.
    pub fn insert(&self, secondary: u64, primary: u64) {
        let mut map = unpoison(self.shard(secondary).write());
        let entry = map.entry(secondary).or_default();
        if !entry.contains(&primary) {
            entry.push(primary);
        }
    }

    /// Removes one association; returns whether it existed.
    pub fn remove(&self, secondary: u64, primary: u64) -> bool {
        let mut map = unpoison(self.shard(secondary).write());
        match map.get_mut(&secondary) {
            Some(entry) => {
                let before = entry.len();
                entry.retain(|&p| p != primary);
                let removed = entry.len() != before;
                if entry.is_empty() {
                    map.remove(&secondary);
                }
                removed
            }
            None => false,
        }
    }

    /// All primary keys registered under `secondary`.
    pub fn lookup(&self, secondary: u64) -> Vec<u64> {
        unpoison(self.shard(secondary).read()).get(&secondary).cloned().unwrap_or_default()
    }

    /// The unique primary key under `secondary`, if there is exactly one.
    pub fn lookup_unique(&self, secondary: u64) -> Option<u64> {
        let map = unpoison(self.shard(secondary).read());
        match map.get(&secondary) {
            Some(v) if v.len() == 1 => Some(v[0]),
            _ => None,
        }
    }

    /// Number of shards (a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of distinct secondary keys.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| unpoison(s.read()).len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_lookup() {
        let idx = SecondaryIndex::new();
        idx.insert(100, 1);
        idx.insert(100, 2);
        idx.insert(200, 3);
        let mut hits = idx.lookup(100);
        hits.sort_unstable();
        assert_eq!(hits, vec![1, 2]);
        assert_eq!(idx.lookup_unique(200), Some(3));
        assert_eq!(idx.lookup_unique(100), None);
        assert_eq!(idx.len(), 2);
    }

    #[test]
    fn duplicate_insert_is_ignored() {
        let idx = SecondaryIndex::new();
        idx.insert(1, 7);
        idx.insert(1, 7);
        assert_eq!(idx.lookup(1), vec![7]);
    }

    #[test]
    fn remove_cleans_up_empty_entries() {
        let idx = SecondaryIndex::new();
        idx.insert(1, 7);
        assert!(idx.remove(1, 7));
        assert!(!idx.remove(1, 7));
        assert!(idx.lookup(1).is_empty());
        assert!(idx.is_empty());
    }

    #[test]
    fn missing_key_lookup_is_empty() {
        let idx = SecondaryIndex::new();
        assert!(idx.lookup(42).is_empty());
        assert_eq!(idx.lookup_unique(42), None);
    }

    #[test]
    fn single_shard_index_behaves_identically() {
        let idx = SecondaryIndex::with_shards(1);
        for secondary in 0..100u64 {
            idx.insert(secondary, secondary * 10);
        }
        assert_eq!(idx.len(), 100);
        assert_eq!(idx.lookup_unique(99), Some(990));
    }
}
