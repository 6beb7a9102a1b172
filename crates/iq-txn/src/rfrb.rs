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
use serde::{Content, Deserialize, Serialize};

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

// Every commit record lists its composites' members and the log is JSON,
// so a member is the tuple `[table, page, offset, len]` rather than an
// object that repeats its four field names.
impl Serialize for PackMember {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        (self.table, self.page, self.offset, self.len).serialize(serializer)
    }
}

impl<'de> Deserialize<'de> for PackMember {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let (table, page, offset, len) = <(u32, u64, u32, u32)>::deserialize(deserializer)?;
        Ok(Self {
            table,
            page,
            offset,
            len,
        })
    }
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

// Every commit record carries two page sets, and most of their fields are
// empty: a cloud commit frees composite members and allocates one key run
// and no block run. So only the fields that hold something are written,
// the key set as its bare runs; a missing field reads back empty.
impl Serialize for PageSet {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut fields = Vec::new();
        let mut field = |name: &str, value: Result<Content, serde::Fail>| {
            let value = value.map_err(serde::ser::Error::custom)?;
            fields.push((Content::Str(name.into()), value));
            Ok::<(), S::Error>(())
        };
        if !self.keys.is_empty() {
            field("keys", serde::to_content(self.keys.runs()))?;
        }
        if !self.blocks.is_empty() {
            field("blocks", serde::to_content(&self.blocks))?;
        }
        if !self.members.is_empty() {
            field("members", serde::to_content(&self.members))?;
        }
        serializer.serialize_content(Content::Map(fields))
    }
}

impl<'de> Deserialize<'de> for PageSet {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        use serde::de::Error;
        let Content::Map(fields) = deserializer.deserialize_content()? else {
            return Err(D::Error::custom("a page set is a map"));
        };
        let mut set = PageSet::default();
        for (name, value) in fields {
            match name {
                Content::Str(n) if n == "keys" => {
                    let runs: Vec<(u64, u64)> =
                        serde::from_content(value).map_err(D::Error::custom)?;
                    for (start, end) in runs {
                        set.keys.insert_range(start, end);
                    }
                }
                Content::Str(n) if n == "blocks" => {
                    set.blocks = serde::from_content(value).map_err(D::Error::custom)?;
                }
                Content::Str(n) if n == "members" => {
                    set.members = serde::from_content(value).map_err(D::Error::custom)?;
                }
                other => {
                    return Err(D::Error::custom(format!(
                        "unknown page-set field {other:?}"
                    )))
                }
            }
        }
        Ok(set)
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
#[derive(Debug, Clone, Default, Serialize, Deserialize, PartialEq)]
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

    /// Serialized image ("its RF/RB bitmaps are flushed to storage" at
    /// commit, §3.3).
    pub fn to_bytes(&self) -> Vec<u8> {
        serde_json::to_vec(self).expect("RfRb serialization cannot fail")
    }

    /// Restore from a flushed image.
    pub fn from_bytes(data: &[u8]) -> Option<Self> {
        serde_json::from_slice(data).ok()
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
    fn packs_survive_the_flush_image() {
        let mut rfrb = RfRb::new();
        rfrb.record_pack(
            ObjectKey::from_offset(9),
            vec![
                PackMember {
                    table: 1,
                    page: 10,
                    offset: 0,
                    len: 600,
                },
                PackMember {
                    table: 1,
                    page: 11,
                    offset: 600,
                    len: 600,
                },
            ],
        );
        let image = rfrb.to_bytes();
        let back = RfRb::from_bytes(&image).unwrap();
        assert_eq!(back.packs[&9].len(), 2);
        assert_eq!(back, rfrb);
    }

    #[test]
    fn pack_members_serialize_as_four_tuples() {
        let node = PackMember {
            table: 3,
            page: iq_storage::NODE_PAGE_TAG | 7,
            offset: 32_886,
            len: 646,
        };
        let json = serde_json::to_string(&node).unwrap();
        assert_eq!(json, "[3,4611686018427387911,32886,646]");
        assert_eq!(serde_json::from_str::<PackMember>(&json).unwrap(), node);
        assert!(serde_json::from_str::<PackMember>("[3,7,0]").is_err());
    }

    /// The commit record of one small packed transaction: it frees four
    /// data members and the two nodes the previous commit wrote, allocates
    /// one composite, and lists that composite's six members.
    #[test]
    fn commit_records_list_tuples_and_only_fields_that_hold_something() {
        let member = |key: u64, offset: u32, len: u32| PhysicalLocator::ObjectRange {
            key: ObjectKey::from_offset(key),
            offset,
            len,
        };
        let node = iq_storage::NODE_PAGE_TAG | 1_998;
        let mut rfrb = RfRb::new();
        for i in 0..4 {
            rfrb.record_free(DbSpaceId(1), member(8_871, i * 8_232, 8_232));
        }
        rfrb.record_free(DbSpaceId(1), member(8_934, 32_928, 1_176));
        rfrb.record_free(DbSpaceId(1), member(8_934, 34_104, 133));
        let layout = [
            (220, 0, 8_232),
            (221, 8_232, 8_232),
            (222, 16_464, 8_232),
            (223, 24_696, 8_232),
            (node, 32_928, 1_176),
            (node + 1, 34_104, 133),
        ];
        let mut members = Vec::new();
        for (page, offset, len) in layout {
            rfrb.record_alloc(DbSpaceId(1), member(8_935, offset, len));
            members.push(PackMember {
                table: 1,
                page,
                offset,
                len,
            });
        }
        rfrb.record_pack(ObjectKey::from_offset(8_935), members);
        let image = rfrb.to_bytes();
        assert_eq!(
            String::from_utf8_lossy(&image),
            concat!(
                r#"{"rf":{"members":{"8871":[[0,8232],[8232,8232],[16464,8232],[24696,8232]],"#,
                r#""8934":[[32928,1176],[34104,133]]}},"rb":{"keys":[[8935,8936]]},"#,
                r#""packs":{"8935":[[1,220,0,8232],[1,221,8232,8232],[1,222,16464,8232],"#,
                r#"[1,223,24696,8232],[1,4611686018427389902,32928,1176],"#,
                r#"[1,4611686018427389903,34104,133]]}}"#
            )
        );
        assert_eq!(image.len(), 297);
        assert_eq!(RfRb::from_bytes(&image), Some(rfrb));
        assert_eq!(RfRb::new().to_bytes(), br#"{"rf":{},"rb":{},"packs":{}}"#);
        assert_eq!(
            RfRb::from_bytes(br#"{"rf":{},"rb":{},"packs":{}}"#),
            Some(RfRb::new())
        );
        assert_eq!(
            RfRb::from_bytes(br#"{"rf":{"kees":[]},"rb":{},"packs":{}}"#),
            None
        );
    }

    #[test]
    fn flush_image_roundtrip() {
        let mut rfrb = RfRb::new();
        rfrb.record_alloc(DbSpaceId(1), cloud(7));
        rfrb.record_free(DbSpaceId(3), blocks(0, 16));
        let image = rfrb.to_bytes();
        assert_eq!(RfRb::from_bytes(&image), Some(rfrb));
        assert_eq!(RfRb::from_bytes(b"garbage"), None);
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
