//! The High-Group (HG) index.
//!
//! SAP IQ's HG index "combines the power of B+-trees with the scalability
//! and compression of bitmaps" (§1): an ordered structure over distinct
//! values whose leaves are compressed row-id bitmaps. We reproduce the
//! shape with a `BTreeMap<key, row-id interval set>`: ordered traversal
//! gives B+-tree range semantics; [`iq_common::KeySet`] gives the
//! compressed-bitmap posting lists. The paper's experiments build HG
//! indexes on seven join columns (§6) — the same columns `iq-tpch`
//! declares.
//!
//! A posting addresses its row as `(row group, row within the group)`
//! ([`posting`] / [`locate`]), not as a table-wide ordinal: a refresh
//! that rewrites one group in place shifts no row of any other group, so
//! every other group's postings survive it.

use std::collections::BTreeMap;

use iq_common::KeySet;
use serde::{Deserialize, Serialize};

/// The posting of row `row` of row group `group`: `group << 32 | row`.
pub fn posting(group: usize, row: usize) -> u64 {
    debug_assert!(row <= u32::MAX as usize, "row-group sizes are u32");
    (group as u64) << 32 | row as u64
}

/// The `(row group, row within the group)` a [`posting`] addresses.
pub fn locate(posting: u64) -> (usize, usize) {
    (
        (posting >> 32) as usize,
        (posting & u32::MAX as u64) as usize,
    )
}

/// An HG index over an integer-keyed column (TPC-H HG columns are all
/// integer keys).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct HgIndex {
    groups: BTreeMap<i64, KeySet>,
    rows: u64,
}

impl HgIndex {
    /// Empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from a column of key values (row ids are positions).
    pub fn build(values: &[i64]) -> Self {
        let mut idx = Self::new();
        for (row, &v) in values.iter().enumerate() {
            idx.insert(v, row as u64);
        }
        idx
    }

    /// Add one `(key, row)` posting.
    pub fn insert(&mut self, key: i64, row: u64) {
        self.groups.entry(key).or_default().insert(row);
        self.rows += 1;
    }

    /// Drop one `(key, row)` posting; absent postings are ignored.
    pub fn remove(&mut self, key: i64, row: u64) {
        let Some(set) = self.groups.get_mut(&key) else {
            return;
        };
        if set.contains(row) {
            set.remove(row);
            self.rows -= 1;
            if set.is_empty() {
                self.groups.remove(&key);
            }
        }
    }

    /// Row ids holding exactly `key`.
    pub fn lookup(&self, key: i64) -> Option<&KeySet> {
        self.groups.get(&key)
    }

    /// Row ids with keys in `[lo, hi]`, merged.
    pub fn range(&self, lo: i64, hi: i64) -> KeySet {
        let mut out = KeySet::new();
        for (_, set) in self.groups.range(lo..=hi) {
            out.union_with(set);
        }
        out
    }

    /// Number of distinct keys ("high groups").
    pub fn distinct_keys(&self) -> usize {
        self.groups.len()
    }

    /// Total postings.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Distinct keys in ascending order (ordered B+-tree traversal).
    pub fn keys(&self) -> impl Iterator<Item = i64> + '_ {
        self.groups.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_lookup_range() {
        // o_custkey-like column.
        let col = vec![5i64, 3, 5, 9, 3, 5];
        let idx = HgIndex::build(&col);
        assert_eq!(idx.distinct_keys(), 3);
        assert_eq!(idx.rows(), 6);
        assert_eq!(
            idx.lookup(5).unwrap().iter().collect::<Vec<_>>(),
            vec![0, 2, 5]
        );
        assert!(idx.lookup(7).is_none());
        let r = idx.range(3, 5);
        assert_eq!(r.iter().collect::<Vec<_>>(), vec![0, 1, 2, 4, 5]);
        assert_eq!(idx.keys().collect::<Vec<_>>(), vec![3, 5, 9]);
    }

    #[test]
    fn dense_runs_compress_in_posting_lists() {
        // A sorted clustered column produces contiguous row-id runs: the
        // KeySet representation stores one interval per key.
        let mut idx = HgIndex::new();
        for row in 0..1000u64 {
            idx.insert((row / 100) as i64, row);
        }
        for key in 0..10i64 {
            let set = idx.lookup(key).unwrap();
            assert_eq!(set.runs().len(), 1, "key {key} should be one run");
            assert_eq!(set.len(), 100);
        }
    }

    #[test]
    fn serde_roundtrip() {
        let idx = HgIndex::build(&[1, 2, 1]);
        let json = serde_json::to_string(&idx).unwrap();
        let back: HgIndex = serde_json::from_str(&json).unwrap();
        assert_eq!(back.lookup(1).unwrap().len(), 2);
        assert_eq!(back.rows(), 3);
    }

    #[test]
    fn remove_drops_postings_and_emptied_keys() {
        let mut idx = HgIndex::build(&[5, 3, 5]);
        idx.remove(5, 0);
        idx.remove(5, 0); // already gone
        idx.remove(7, 1); // never there
        assert_eq!(idx.lookup(5).unwrap().iter().collect::<Vec<_>>(), vec![2]);
        assert_eq!(idx.rows(), 2);
        idx.remove(3, 1);
        assert!(idx.lookup(3).is_none());
        assert_eq!(idx.keys().collect::<Vec<_>>(), vec![5]);
    }

    #[test]
    fn postings_round_trip_group_and_row() {
        assert_eq!(posting(0, 42), 42);
        assert_eq!(locate(posting(7, 4095)), (7, 4095));
        // Postings of one group are contiguous: one run per clustered key.
        assert_eq!(posting(3, 1), posting(3, 0) + 1);
    }

    #[test]
    fn empty_range_is_empty() {
        let idx = HgIndex::build(&[10, 20]);
        assert!(idx.range(11, 19).is_empty());
    }
}
