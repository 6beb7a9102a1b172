//! Roll-forward / roll-back bitmaps.
//!
//! "Each transaction has its own pair of RF/RB bitmaps: the RF bitmap
//! records the pages that have been marked for deletion by the transaction
//! whereas the RB bitmap records the pages that have been allocated"
//! (§3.3). On conventional dbspaces an entry is the block run a page
//! occupies; for a cloud page it is the object key — "an integer in the
//! range `[2^63, 2^64)`, as a single bit in the bitmap. We distinguish
//! between the two types of representations by simply looking at the range
//! in which a bit is recorded."
//!
//! [`RfRb`] keeps the two representations side by side: dense block-run
//! lists per dbspace and sparse [`KeySet`]s for object keys, which is how
//! the "key-ranges as opposed to singleton keys" optimization (§3.2) pays
//! off during GC.

use std::collections::BTreeMap;

use iq_common::trace::{self, EventKind};
use iq_common::{BlockNum, DbSpaceId, KeySet, ObjectKey, PhysicalLocator};

/// The bitmap bit a locator flips: the key offset for cloud pages, the
/// first block number for conventional runs.
fn locator_bit(loc: PhysicalLocator) -> u64 {
    match loc {
        PhysicalLocator::Object(key) | PhysicalLocator::ObjectRange { key, .. } => key.offset(),
        PhysicalLocator::Blocks { start, .. } => start.0,
    }
}

/// One page's placement inside a composite object: which logical page the
/// member holds and where its sealed image sits. Recorded in the
/// committing transaction's [`RfRb`], so a reopen registers the
/// composites committed after the last checkpoint from the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackMember {
    /// Owning table.
    pub table: u32,
    /// Logical page number (a blockmap node's is tagged with
    /// `iq_storage::NODE_PAGE_TAG`).
    pub page: u64,
    /// Byte offset of the sealed image inside the composite.
    pub offset: u32,
    /// Byte length of the sealed image.
    pub len: u32,
}

/// One side (RF or RB) of the bitmap pair.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PageSet {
    /// Cloud pages: object-key offsets (values in the reserved range,
    /// stored as offsets).
    pub keys: KeySet,
    /// Conventional pages: block runs per dbspace.
    pub blocks: BTreeMap<u32, Vec<(u64, u8)>>,
    /// Composite members: `(offset, len)` ranges per composite-key offset.
    /// A member entry frees one page *inside* a shared object — the GC
    /// must not delete the object until every member is dead, so these
    /// route to the composite registry instead of the delete pipeline.
    pub members: BTreeMap<u64, Vec<(u32, u32)>>,
}

impl PageSet {
    /// Record a page's physical location.
    pub fn record(&mut self, space: DbSpaceId, loc: PhysicalLocator) {
        match loc {
            PhysicalLocator::Object(key) => {
                self.keys.insert(key.offset());
            }
            PhysicalLocator::ObjectRange { key, offset, len } => {
                self.members
                    .entry(key.offset())
                    .or_default()
                    .push((offset, len));
            }
            PhysicalLocator::Blocks { start, count } => {
                self.blocks
                    .entry(space.0)
                    .or_default()
                    .push((start.0, count));
            }
        }
    }

    /// Whether a cloud key is recorded.
    pub fn contains_key(&self, key: ObjectKey) -> bool {
        self.keys.contains(key.offset())
    }

    /// Total recorded entries (cloud keys + block runs + composite
    /// members).
    pub fn len(&self) -> u64 {
        self.keys.len()
            + self.blocks.values().map(|v| v.len() as u64).sum::<u64>()
            + self.members.values().map(|v| v.len() as u64).sum::<u64>()
    }

    /// True if nothing is recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterate cloud keys.
    pub fn iter_keys(&self) -> impl Iterator<Item = ObjectKey> + '_ {
        self.keys.iter().map(ObjectKey::from_offset)
    }

    /// Iterate block runs as `(dbspace, start, count)`.
    pub fn iter_blocks(&self) -> impl Iterator<Item = (DbSpaceId, BlockNum, u8)> + '_ {
        self.blocks.iter().flat_map(|(space, runs)| {
            runs.iter()
                .map(move |&(start, count)| (DbSpaceId(*space), BlockNum(start), count))
        })
    }
}

/// Sort, dedupe and merge adjacent `(start, count)` block runs: runs whose
/// ranges touch or overlap collapse into one as long as the combined
/// length still fits the `u8` run-length field (pages occupy 1–16 blocks,
/// so a merged trim can cover many freed pages). The GC uses this to turn
/// per-page trims into per-extent trims before hitting the device.
pub fn coalesce_block_runs(runs: &mut Vec<(u64, u8)>) {
    if runs.len() < 2 {
        return;
    }
    runs.sort_unstable();
    runs.dedup();
    let mut out: Vec<(u64, u8)> = Vec::with_capacity(runs.len());
    for &(start, count) in runs.iter() {
        if let Some(&mut (ref mut pstart, ref mut pcount)) = out.last_mut() {
            let pend = *pstart + u64::from(*pcount);
            let combined = u64::from(*pcount).saturating_add(u64::from(count));
            if start <= pend && combined <= u64::from(u8::MAX) {
                // Adjacent or overlapping and still expressible: extend.
                let end = (start + u64::from(count)).max(pend);
                *pcount = (end - *pstart) as u8;
                continue;
            }
        }
        out.push((start, count));
    }
    *runs = out;
}

/// A transaction's pair of RF/RB bitmaps.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RfRb {
    /// Roll-forward: pages this transaction superseded/deleted — to be
    /// garbage collected *after* commit, once no snapshot references them.
    pub rf: PageSet,
    /// Roll-back: pages this transaction allocated — to be deleted
    /// *immediately* if the transaction rolls back.
    pub rb: PageSet,
    /// Composite objects this transaction wrote: member layout per
    /// composite-key offset. Registered with the composite registry at
    /// commit, and again at reopen when the commit follows the last
    /// checkpoint.
    pub packs: BTreeMap<u64, Vec<PackMember>>,
}

impl RfRb {
    /// Fresh empty pair.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a page allocation (RB). A composite member records the
    /// *whole* object key: rollback deletes the uncommitted composite in
    /// one request, and `KeySet` insertion is idempotent across members.
    pub fn record_alloc(&mut self, space: DbSpaceId, loc: PhysicalLocator) {
        trace::emit(EventKind::RbFlip {
            key: locator_bit(loc),
        });
        match loc {
            PhysicalLocator::ObjectRange { key, .. } => {
                self.rb.record(space, PhysicalLocator::Object(key));
            }
            other => self.rb.record(space, other),
        }
    }

    /// Record the member layout of a composite object this transaction
    /// wrote.
    pub fn record_pack(&mut self, key: ObjectKey, members: Vec<PackMember>) {
        self.packs.insert(key.offset(), members);
    }

    /// Record a page deletion/supersession (RF).
    pub fn record_free(&mut self, space: DbSpaceId, loc: PhysicalLocator) {
        trace::emit(EventKind::RfFlip {
            key: locator_bit(loc),
        });
        self.rf.record(space, loc);
    }

    /// The cloud key ranges consumed by this transaction (the RB keys) —
    /// what the coordinator trims from the node's active set at commit.
    pub fn consumed_ranges(&self) -> Vec<(u64, u64)> {
        self.rb.keys.runs().to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cloud(off: u64) -> PhysicalLocator {
        PhysicalLocator::Object(ObjectKey::from_offset(off))
    }

    fn blocks(start: u64, count: u8) -> PhysicalLocator {
        PhysicalLocator::Blocks {
            start: BlockNum(start),
            count,
        }
    }

    #[test]
    fn records_both_representations() {
        let mut rfrb = RfRb::new();
        rfrb.record_alloc(DbSpaceId(1), cloud(100));
        rfrb.record_alloc(DbSpaceId(1), cloud(101));
        rfrb.record_alloc(DbSpaceId(2), blocks(40, 4));
        rfrb.record_free(DbSpaceId(1), cloud(50));
        assert_eq!(rfrb.rb.len(), 3);
        assert_eq!(rfrb.rf.len(), 1);
        assert!(rfrb.rb.contains_key(ObjectKey::from_offset(100)));
        assert!(!rfrb.rb.contains_key(ObjectKey::from_offset(50)));
        let blocks: Vec<_> = rfrb.rb.iter_blocks().collect();
        assert_eq!(blocks, vec![(DbSpaceId(2), BlockNum(40), 4)]);
    }

    #[test]
    fn consecutive_keys_collapse_to_ranges() {
        // The "key-ranges as opposed to singleton keys" optimization: a
        // bulk load allocating keys 101..=130 stores one run.
        let mut rfrb = RfRb::new();
        for off in 101..=130 {
            rfrb.record_alloc(DbSpaceId(1), cloud(off));
        }
        assert_eq!(rfrb.rb.keys.runs(), &[(101, 131)]);
        assert_eq!(rfrb.consumed_ranges(), vec![(101, 131)]);
    }

    #[test]
    fn composite_members_route_to_member_map_not_delete_keys() {
        let ranged = |off: u64, byte_off: u32| PhysicalLocator::ObjectRange {
            key: ObjectKey::from_offset(off),
            offset: byte_off,
            len: 512,
        };
        let mut rfrb = RfRb::new();
        // Allocating two members of composite 40 burns the key once.
        rfrb.record_alloc(DbSpaceId(1), ranged(40, 0));
        rfrb.record_alloc(DbSpaceId(1), ranged(40, 512));
        assert_eq!(rfrb.rb.keys.runs(), &[(40, 41)]);
        assert!(rfrb.rb.members.is_empty());
        // Freeing a member must NOT enter the whole-key delete set.
        rfrb.record_free(DbSpaceId(1), ranged(77, 1024));
        assert!(rfrb.rf.keys.is_empty());
        assert_eq!(rfrb.rf.members.get(&77), Some(&vec![(1024u32, 512u32)]));
        assert_eq!(rfrb.rf.len(), 1);
    }

    #[test]
    fn coalesce_merges_adjacent_runs_capped_at_u8() {
        let mut runs = vec![(10, 4), (14, 4), (30, 2), (14, 4), (18, 2)];
        coalesce_block_runs(&mut runs);
        assert_eq!(runs, vec![(10, 10), (30, 2)]);
        // A merge that would overflow the u8 run-length field stays split.
        let mut big = vec![(0, 200), (200, 100)];
        coalesce_block_runs(&mut big);
        assert_eq!(big, vec![(0, 200), (200, 100)]);
    }

    #[test]
    fn iter_keys_in_order() {
        let mut set = PageSet::default();
        for off in [5u64, 2, 9] {
            set.record(DbSpaceId(1), cloud(off));
        }
        let offs: Vec<u64> = set.iter_keys().map(|k| k.offset()).collect();
        assert_eq!(offs, vec![2, 5, 9]);
    }
}
