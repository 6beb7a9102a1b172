//! The blockmap: logical page → physical locator, as a tree of blockmap
//! pages.
//!
//! "The buffer manager relies on a data structure called the blockmap to
//! maintain the mappings between logical pages and a sequence of blocks on
//! disk" (§2); in the cloud version the same structure also maps logical
//! pages to object keys (§3.1). Blockmap pages are themselves pages,
//! "organized as a tree": the key of a data page is recorded in the
//! blockmap page that owns it, the key of a blockmap page in its parent,
//! and the root's key in an identity object in the system catalog.
//!
//! [`Blockmap::flush`] reproduces Figure 2's lifecycle exactly: flushing a
//! dirtied data page H under a fresh key dirties its leaf D; when D is
//! flushed it too takes a fresh key, dirtying its parent A; the new root
//! locator is returned for the identity object, and every superseded
//! locator (H, D, A's old versions) is reported so the transaction can
//! mark it for garbage collection at commit.

use std::collections::HashMap;

use bytes::Bytes;
use iq_common::{IqError, IqResult, PageId, PhysicalLocator, VersionId};

use crate::dbspace::PageIo;
use crate::page::{Page, PageKind};

/// In-memory handle to a node.
type NodeId = u64;

#[derive(Debug, Clone, PartialEq, Eq)]
enum Slot {
    /// Nothing mapped here.
    Empty,
    /// Loaded child node (internal levels).
    Child(NodeId),
    /// Child node not yet loaded; its persisted location.
    ChildOnDisk(PhysicalLocator),
    /// Data page locator (leaf level).
    Data(PhysicalLocator),
}

#[derive(Debug, Clone)]
struct Node {
    /// 0 = leaf (slots hold data locators), >0 = internal.
    level: u32,
    slots: Vec<Slot>,
    dirty: bool,
    /// Where the latest clean version of this node lives.
    persisted: Option<PhysicalLocator>,
}

impl Node {
    fn new(level: u32, fanout: usize) -> Self {
        Self {
            level,
            slots: vec![Slot::Empty; fanout],
            dirty: true,
            persisted: None,
        }
    }
}

/// Result of flushing a blockmap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlushOutcome {
    /// New locator of the root blockmap page — to be recorded in the
    /// identity object.
    pub root: PhysicalLocator,
    /// Locators superseded by this flush (old versions of blockmap pages);
    /// the committing transaction garbage collects them.
    pub superseded: Vec<PhysicalLocator>,
    /// Locators newly written by this flush (for the RB bitmap).
    pub written: Vec<PhysicalLocator>,
}

/// The blockmap tree for one table (or other page-owning object).
///
/// `Clone` produces an independent working copy — the mechanism behind
/// table-level versioning: a writer clones the committed tree, mutates
/// the copy, and installs it at commit while readers keep the original.
#[derive(Clone)]
pub struct Blockmap {
    fanout: usize,
    depth: u32,
    root: NodeId,
    nodes: HashMap<NodeId, Node>,
    next_node: NodeId,
    next_bm_page: u64,
}

impl Blockmap {
    /// An empty blockmap with the given fanout (entries per node).
    pub fn new(fanout: usize) -> Self {
        assert!(fanout >= 2, "fanout must be at least 2");
        let mut nodes = HashMap::new();
        nodes.insert(0, Node::new(0, fanout));
        Self {
            fanout,
            depth: 1,
            root: 0,
            nodes,
            next_node: 1,
            next_bm_page: 0,
        }
    }

    /// Open a blockmap whose root was persisted at `root_loc` (from an
    /// identity object). Nodes are loaded lazily on access.
    pub fn open(fanout: usize, root_loc: PhysicalLocator, io: &PageIo<'_>) -> IqResult<Self> {
        let mut bm = Self::new(fanout);
        bm.nodes.clear();
        let root = bm.load_node(root_loc, io)?;
        bm.root = root;
        bm.depth = bm.nodes[&root].level + 1;
        Ok(bm)
    }

    /// Pages addressable at the current depth.
    pub fn capacity(&self) -> u64 {
        (self.fanout as u64).saturating_pow(self.depth)
    }

    /// Current tree depth (levels).
    pub fn depth(&self) -> u32 {
        self.depth
    }

    fn load_node(&mut self, loc: PhysicalLocator, io: &PageIo<'_>) -> IqResult<NodeId> {
        let page = io.read(loc)?;
        if page.kind != PageKind::Blockmap {
            return Err(IqError::Corruption(format!(
                "expected blockmap page at {loc:?}, found {:?}",
                page.kind
            )));
        }
        let node = decode_node(&page.body, self.fanout)?;
        let id = self.next_node;
        self.next_node += 1;
        self.nodes.insert(
            id,
            Node {
                level: node.0,
                slots: node.1,
                dirty: false,
                persisted: Some(loc),
            },
        );
        Ok(id)
    }

    /// Index path of `page_no` from root (most significant digit first).
    fn path(&self, page_no: u64) -> Vec<usize> {
        let mut digits = vec![0usize; self.depth as usize];
        let mut v = page_no;
        for d in (0..self.depth as usize).rev() {
            digits[d] = (v % self.fanout as u64) as usize;
            v /= self.fanout as u64;
        }
        debug_assert_eq!(v, 0);
        digits
    }

    /// Grow the tree until `page_no` is addressable.
    fn grow_to(&mut self, page_no: u64) {
        while page_no >= self.capacity() {
            let mut new_root = Node::new(self.depth, self.fanout);
            new_root.slots[0] = Slot::Child(self.root);
            let id = self.next_node;
            self.next_node += 1;
            self.nodes.insert(id, new_root);
            self.root = id;
            self.depth += 1;
        }
    }

    /// Look up the data locator of `page`.
    pub fn get(&mut self, page: PageId, io: &PageIo<'_>) -> IqResult<Option<PhysicalLocator>> {
        if page.0 >= self.capacity() {
            return Ok(None);
        }
        let path = self.path(page.0);
        let mut node = self.root;
        for (i, &digit) in path.iter().enumerate() {
            let slot = self.nodes[&node].slots[digit].clone();
            let last = i + 1 == path.len();
            match slot {
                Slot::Empty => return Ok(None),
                Slot::Data(loc) if last => return Ok(Some(loc)),
                Slot::Child(child) if !last => node = child,
                Slot::ChildOnDisk(loc) if !last => {
                    let child = self.load_node(loc, io)?;
                    self.nodes.get_mut(&node).expect("node present").slots[digit] =
                        Slot::Child(child);
                    node = child;
                }
                other => {
                    return Err(IqError::Corruption(format!(
                        "blockmap slot {other:?} at level {} for page {page}",
                        path.len() - 1 - i
                    )))
                }
            }
        }
        unreachable!("path consumed without returning")
    }

    /// Map `page` to `loc`, returning the superseded data locator (which
    /// the caller records in the transaction's RF bitmap for GC).
    pub fn set(
        &mut self,
        page: PageId,
        loc: PhysicalLocator,
        io: &PageIo<'_>,
    ) -> IqResult<Option<PhysicalLocator>> {
        self.grow_to(page.0);
        let path = self.path(page.0);
        let mut node = self.root;
        // Descend, creating or loading children; mark the whole path dirty
        // (the Figure 2 cascade).
        for (i, &digit) in path.iter().enumerate() {
            let last = i + 1 == path.len();
            self.nodes.get_mut(&node).expect("node present").dirty = true;
            if last {
                let n = self.nodes.get_mut(&node).expect("node present");
                debug_assert_eq!(n.level, 0, "leaf write must land on level 0");
                let old = std::mem::replace(&mut n.slots[digit], Slot::Data(loc));
                return Ok(match old {
                    Slot::Data(prev) => Some(prev),
                    Slot::Empty => None,
                    other => {
                        return Err(IqError::Corruption(format!(
                            "data slot held {other:?} for page {page}"
                        )))
                    }
                });
            }
            let slot = self.nodes[&node].slots[digit].clone();
            let child = match slot {
                Slot::Child(c) => c,
                Slot::ChildOnDisk(l) => {
                    let c = self.load_node(l, io)?;
                    self.nodes.get_mut(&node).expect("node present").slots[digit] = Slot::Child(c);
                    c
                }
                Slot::Empty => {
                    let level = self.nodes[&node].level - 1;
                    let c = self.next_node;
                    self.next_node += 1;
                    self.nodes.insert(c, Node::new(level, self.fanout));
                    self.nodes.get_mut(&node).expect("node present").slots[digit] = Slot::Child(c);
                    c
                }
                Slot::Data(_) => {
                    return Err(IqError::Corruption(
                        "data locator in internal blockmap slot".into(),
                    ))
                }
            };
            node = child;
        }
        unreachable!()
    }

    /// Unmap `page`, returning the previous locator if any.
    pub fn remove(&mut self, page: PageId, io: &PageIo<'_>) -> IqResult<Option<PhysicalLocator>> {
        if page.0 >= self.capacity() {
            return Ok(None);
        }
        // Only mutate if the page is mapped.
        if self.get(page, io)?.is_none() {
            return Ok(None);
        }
        let path = self.path(page.0);
        let mut node = self.root;
        for (i, &digit) in path.iter().enumerate() {
            self.nodes.get_mut(&node).expect("node present").dirty = true;
            if i + 1 == path.len() {
                let n = self.nodes.get_mut(&node).expect("node present");
                let old = std::mem::replace(&mut n.slots[digit], Slot::Empty);
                return Ok(match old {
                    Slot::Data(prev) => Some(prev),
                    _ => None,
                });
            }
            match self.nodes[&node].slots[digit] {
                Slot::Child(c) => node = c,
                _ => return Ok(None),
            }
        }
        unreachable!()
    }

    /// Flush every dirty node bottom-up, writing each under a fresh
    /// locator and recording its new position in the parent. Returns the
    /// new root locator (for the identity object) and the locators
    /// superseded along the way.
    pub fn flush(&mut self, version: VersionId, io: &PageIo<'_>) -> IqResult<FlushOutcome> {
        let mut superseded = Vec::new();
        let mut written = Vec::new();
        let root = self.root;
        let root_loc = self.flush_node(root, version, io, &mut superseded, &mut written)?;
        Ok(FlushOutcome {
            root: root_loc,
            superseded,
            written,
        })
    }

    fn flush_node(
        &mut self,
        id: NodeId,
        version: VersionId,
        io: &PageIo<'_>,
        superseded: &mut Vec<PhysicalLocator>,
        written: &mut Vec<PhysicalLocator>,
    ) -> IqResult<PhysicalLocator> {
        if !self.nodes[&id].dirty {
            return Ok(self.nodes[&id]
                .persisted
                .expect("clean node must have a persisted location"));
        }
        // Flush dirty children first; update slots with their new homes.
        let child_slots: Vec<(usize, NodeId)> = self.nodes[&id]
            .slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| match s {
                Slot::Child(c) => Some((i, *c)),
                _ => None,
            })
            .collect();
        for (i, child) in child_slots {
            let loc = self.flush_node(child, version, io, superseded, written)?;
            self.nodes.get_mut(&id).expect("node present").slots[i] = Slot::Child(child);
            // The serialized form needs the child's locator; stash it in
            // the node's persisted field — encode_node reads it below.
            self.nodes.get_mut(&child).expect("child present").persisted = Some(loc);
        }
        let node = &self.nodes[&id];
        let body = encode_node(node, &self.nodes);
        let page_id = PageId((1 << 62) | self.next_bm_page);
        self.next_bm_page += 1;
        let page = Page::new(page_id, version, PageKind::Blockmap, Bytes::from(body));
        let new_loc = io.write(&page)?;
        written.push(new_loc);
        let node = self.nodes.get_mut(&id).expect("node present");
        if let Some(old) = node.persisted {
            superseded.push(old);
        }
        node.persisted = Some(new_loc);
        node.dirty = false;
        Ok(new_loc)
    }

    /// Whether any node is dirty.
    pub fn is_dirty(&self) -> bool {
        self.nodes.values().any(|n| n.dirty)
    }

    /// All live data-page locators (walks loaded and on-disk nodes).
    pub fn live_data_locators(&mut self, io: &PageIo<'_>) -> IqResult<Vec<PhysicalLocator>> {
        let mut out = Vec::new();
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            // Load any on-disk children of this node first.
            let pending: Vec<(usize, PhysicalLocator)> = self.nodes[&id]
                .slots
                .iter()
                .enumerate()
                .filter_map(|(i, s)| match s {
                    Slot::ChildOnDisk(l) => Some((i, *l)),
                    _ => None,
                })
                .collect();
            for (i, loc) in pending {
                let child = self.load_node(loc, io)?;
                self.nodes.get_mut(&id).expect("node present").slots[i] = Slot::Child(child);
            }
            for slot in &self.nodes[&id].slots {
                match slot {
                    Slot::Data(l) => out.push(*l),
                    Slot::Child(c) => stack.push(*c),
                    _ => {}
                }
            }
        }
        Ok(out)
    }

    /// All live blockmap-node locators, including the root (must be called
    /// after a flush; dirty nodes have no persisted location).
    pub fn live_node_locators(&self) -> Vec<PhysicalLocator> {
        self.nodes.values().filter_map(|n| n.persisted).collect()
    }
}

/// Magic tag opening a v2 blockmap node; a body that opens with anything
/// else is refused. (The v1 format's first `u32` was the node's `level`,
/// which never comes close to this value.)
const BM_NODE_V2_MAGIC: u32 = 0xB10C_4DF2;

/// Bytes of one v2 slot: `tag u8` + 17 payload bytes.
const V2_SLOT_LEN: usize = 18;

/// Binary node format, **v2**:
/// `magic u32 | level u32 | fanout u32 | fanout × slot`, where a slot is
/// 18 bytes: `tag u8` + payload. Tag 0 = empty (payload zero); tag 1 =
/// legacy locator (`raw u64 | count u8 | 8 zero bytes` — a block run or
/// whole object, exactly the v1 payload); tag 2 = ranged locator
/// (`key u64 | offset u32 | len u32 | 1 zero byte` — one member of a
/// composite object). The superseded **v1** format had no magic and
/// 10-byte slots (tags 0/1 only); nothing writes it and [`decode_node`]
/// refuses it as corruption.
fn encode_node(node: &Node, nodes: &HashMap<NodeId, Node>) -> Vec<u8> {
    let mut out = Vec::with_capacity(12 + node.slots.len() * V2_SLOT_LEN);
    out.extend_from_slice(&BM_NODE_V2_MAGIC.to_le_bytes());
    out.extend_from_slice(&node.level.to_le_bytes());
    out.extend_from_slice(&(node.slots.len() as u32).to_le_bytes());
    for slot in &node.slots {
        let loc = match slot {
            Slot::Empty => None,
            Slot::Data(l) | Slot::ChildOnDisk(l) => Some(*l),
            Slot::Child(c) => nodes[c].persisted,
        };
        match loc {
            None => {
                out.push(0);
                out.extend_from_slice(&[0u8; 17]);
            }
            Some(PhysicalLocator::ObjectRange { key, offset, len }) => {
                out.push(2);
                out.extend_from_slice(&key.raw().to_le_bytes());
                out.extend_from_slice(&offset.to_le_bytes());
                out.extend_from_slice(&len.to_le_bytes());
                out.push(0);
            }
            Some(l) => {
                let (raw, count) = l.encode();
                out.push(1);
                out.extend_from_slice(&raw.to_le_bytes());
                out.push(count);
                out.extend_from_slice(&[0u8; 8]);
            }
        }
    }
    out
}

fn decode_node(body: &[u8], expected_fanout: usize) -> IqResult<(u32, Vec<Slot>)> {
    if body.len() < 12 {
        return Err(IqError::Corruption("blockmap node too short".into()));
    }
    if u32::from_le_bytes(body[0..4].try_into().unwrap()) != BM_NODE_V2_MAGIC {
        return Err(IqError::Corruption(
            "blockmap node does not open with the v2 magic".into(),
        ));
    }
    let level = u32::from_le_bytes(body[4..8].try_into().unwrap());
    let fanout = u32::from_le_bytes(body[8..12].try_into().unwrap()) as usize;
    if fanout != expected_fanout {
        return Err(IqError::Corruption(format!(
            "blockmap fanout mismatch: node {fanout}, expected {expected_fanout}"
        )));
    }
    if body.len() < 12 + fanout * V2_SLOT_LEN {
        return Err(IqError::Corruption("blockmap node truncated".into()));
    }
    let mut slots = Vec::with_capacity(fanout);
    for i in 0..fanout {
        let off = 12 + i * V2_SLOT_LEN;
        let tag = body[off];
        let loc = match tag {
            0 => {
                slots.push(Slot::Empty);
                continue;
            }
            1 => {
                let raw = u64::from_le_bytes(body[off + 1..off + 9].try_into().unwrap());
                let count = body[off + 9];
                PhysicalLocator::decode(raw, count)
                    .ok_or_else(|| IqError::Corruption("bad locator in blockmap node".into()))?
            }
            2 => {
                let raw = u64::from_le_bytes(body[off + 1..off + 9].try_into().unwrap());
                let key = iq_common::ObjectKey::from_raw(raw).ok_or_else(|| {
                    IqError::Corruption("bad composite key in blockmap node".into())
                })?;
                let offset = u32::from_le_bytes(body[off + 9..off + 13].try_into().unwrap());
                let len = u32::from_le_bytes(body[off + 13..off + 17].try_into().unwrap());
                PhysicalLocator::ObjectRange { key, offset, len }
            }
            other => {
                return Err(IqError::Corruption(format!(
                    "unknown blockmap v2 slot tag {other}"
                )))
            }
        };
        slots.push(if level == 0 {
            Slot::Data(loc)
        } else {
            Slot::ChildOnDisk(loc)
        });
    }
    Ok((level, slots))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use iq_common::{DbSpaceId, ObjectKey};
    use iq_objectstore::{ConsistencyConfig, ObjectStoreSim, RetryPolicy};

    use crate::dbspace::{CountingKeySource, DbSpace};
    use crate::page::StorageConfig;

    struct Fixture {
        space: DbSpace,
        store: Arc<ObjectStoreSim>,
        keys: CountingKeySource,
    }

    fn fixture() -> Fixture {
        let store = Arc::new(ObjectStoreSim::new(ConsistencyConfig::default()));
        let space = DbSpace::cloud(
            DbSpaceId(1),
            "cloud",
            StorageConfig::test_small(),
            store.clone(),
            RetryPolicy::default(),
        );
        Fixture {
            space,
            store,
            keys: CountingKeySource::starting_at(1_000_000),
        }
    }

    fn data_loc(off: u64) -> PhysicalLocator {
        PhysicalLocator::Object(ObjectKey::from_offset(off))
    }

    #[test]
    fn set_get_within_one_leaf() {
        let f = fixture();
        let io = PageIo {
            space: &f.space,
            keys: &f.keys,
        };
        let mut bm = Blockmap::new(8);
        assert_eq!(bm.set(PageId(3), data_loc(42), &io).unwrap(), None);
        assert_eq!(bm.get(PageId(3), &io).unwrap(), Some(data_loc(42)));
        assert_eq!(bm.get(PageId(4), &io).unwrap(), None);
        // Replacing returns the superseded locator (RF bitmap feed).
        assert_eq!(
            bm.set(PageId(3), data_loc(43), &io).unwrap(),
            Some(data_loc(42))
        );
    }

    #[test]
    fn tree_grows_beyond_leaf_capacity() {
        let f = fixture();
        let io = PageIo {
            space: &f.space,
            keys: &f.keys,
        };
        let mut bm = Blockmap::new(4);
        assert_eq!(bm.depth(), 1);
        for p in 0..64u64 {
            bm.set(PageId(p), data_loc(p), &io).unwrap();
        }
        assert_eq!(bm.depth(), 3); // 4^3 = 64
        for p in 0..64u64 {
            assert_eq!(
                bm.get(PageId(p), &io).unwrap(),
                Some(data_loc(p)),
                "page {p}"
            );
        }
        assert_eq!(bm.get(PageId(64), &io).unwrap(), None);
    }

    #[test]
    fn flush_persists_and_reopens() {
        let f = fixture();
        let io = PageIo {
            space: &f.space,
            keys: &f.keys,
        };
        let mut bm = Blockmap::new(4);
        for p in [0u64, 5, 17, 63] {
            bm.set(PageId(p), data_loc(100 + p), &io).unwrap();
        }
        let outcome = bm.flush(VersionId(1), &io).unwrap();
        assert!(!bm.is_dirty());
        // Reopen from the root locator (as the identity object would).
        let mut reopened = Blockmap::open(4, outcome.root, &io).unwrap();
        for p in [0u64, 5, 17, 63] {
            assert_eq!(
                reopened.get(PageId(p), &io).unwrap(),
                Some(data_loc(100 + p))
            );
        }
        assert_eq!(reopened.get(PageId(1), &io).unwrap(), None);
    }

    #[test]
    fn figure2_cascade_supersedes_path_to_root() {
        // Build + flush, then dirty one page: the reflush must version the
        // leaf-to-root path and report the old versions for GC.
        let f = fixture();
        let io = PageIo {
            space: &f.space,
            keys: &f.keys,
        };
        let mut bm = Blockmap::new(4);
        for p in 0..16u64 {
            bm.set(PageId(p), data_loc(p), &io).unwrap();
        }
        let first = bm.flush(VersionId(1), &io).unwrap();
        assert!(
            first.superseded.is_empty(),
            "first flush supersedes nothing"
        );
        let node_count_before = bm.live_node_locators().len();

        // Dirty page H (page 15 lives under one specific leaf).
        bm.set(PageId(15), data_loc(999), &io).unwrap();
        let second = bm.flush(VersionId(2), &io).unwrap();
        // Root changed (identity object must be updated).
        assert_ne!(second.root, first.root);
        // Exactly the path depth (leaf + root here, depth=2) superseded.
        assert_eq!(second.superseded.len(), bm.depth() as usize);
        assert!(second.superseded.contains(&first.root));
        assert_eq!(bm.live_node_locators().len(), node_count_before);
    }

    #[test]
    fn clean_reflush_is_noop() {
        let f = fixture();
        let io = PageIo {
            space: &f.space,
            keys: &f.keys,
        };
        let mut bm = Blockmap::new(4);
        bm.set(PageId(0), data_loc(1), &io).unwrap();
        let a = bm.flush(VersionId(1), &io).unwrap();
        let b = bm.flush(VersionId(1), &io).unwrap();
        assert_eq!(a.root, b.root);
        assert!(b.superseded.is_empty());
    }

    #[test]
    fn remove_returns_old_locator() {
        let f = fixture();
        let io = PageIo {
            space: &f.space,
            keys: &f.keys,
        };
        let mut bm = Blockmap::new(4);
        bm.set(PageId(7), data_loc(7), &io).unwrap();
        assert_eq!(bm.remove(PageId(7), &io).unwrap(), Some(data_loc(7)));
        assert_eq!(bm.get(PageId(7), &io).unwrap(), None);
        assert_eq!(bm.remove(PageId(7), &io).unwrap(), None);
        assert_eq!(bm.remove(PageId(1000), &io).unwrap(), None);
    }

    #[test]
    fn live_data_locators_complete_after_reopen() {
        let f = fixture();
        let io = PageIo {
            space: &f.space,
            keys: &f.keys,
        };
        let mut bm = Blockmap::new(4);
        for p in 0..20u64 {
            bm.set(PageId(p), data_loc(p), &io).unwrap();
        }
        let outcome = bm.flush(VersionId(1), &io).unwrap();
        let mut reopened = Blockmap::open(4, outcome.root, &io).unwrap();
        let mut locs = reopened.live_data_locators(&io).unwrap();
        locs.sort_by_key(|l| l.encode().0);
        assert_eq!(locs, (0..20u64).map(data_loc).collect::<Vec<_>>());
    }

    #[test]
    fn ranged_locators_survive_flush_and_reopen() {
        let f = fixture();
        let io = PageIo {
            space: &f.space,
            keys: &f.keys,
        };
        let mut bm = Blockmap::new(4);
        let ranged = |off: u64, byte_off: u32| PhysicalLocator::ObjectRange {
            key: ObjectKey::from_offset(off),
            offset: byte_off,
            len: 4096,
        };
        // Mix of whole-object and composite-member locators across levels.
        for p in 0..20u64 {
            bm.set(PageId(p), ranged(500, p as u32 * 4096), &io)
                .unwrap();
        }
        bm.set(PageId(20), data_loc(7), &io).unwrap();
        let outcome = bm.flush(VersionId(1), &io).unwrap();
        let mut reopened = Blockmap::open(4, outcome.root, &io).unwrap();
        for p in 0..20u64 {
            assert_eq!(
                reopened.get(PageId(p), &io).unwrap(),
                Some(ranged(500, p as u32 * 4096)),
                "page {p}"
            );
        }
        assert_eq!(reopened.get(PageId(20), &io).unwrap(), Some(data_loc(7)));
    }

    #[test]
    fn v1_node_bytes_are_refused_as_corruption() {
        // Hand-build a v1 leaf (no magic, 10-byte slots): fanout 4, slots
        // [empty, object(+9), blocks(50×2), empty]. Nothing has written
        // one since the v2 cut, so bytes without the magic are not a node.
        let mut body = Vec::new();
        body.extend_from_slice(&0u32.to_le_bytes()); // level
        body.extend_from_slice(&4u32.to_le_bytes()); // fanout
        body.push(0);
        body.extend_from_slice(&[0u8; 9]);
        body.push(1);
        body.extend_from_slice(&ObjectKey::from_offset(9).raw().to_le_bytes());
        body.push(0);
        body.push(1);
        body.extend_from_slice(&50u64.to_le_bytes());
        body.push(2);
        body.push(0);
        body.extend_from_slice(&[0u8; 9]);
        assert!(matches!(decode_node(&body, 4), Err(IqError::Corruption(_))));
    }

    #[test]
    fn v2_roundtrip_preserves_every_slot_kind() {
        let mut node = Node::new(0, 4);
        node.slots[0] = Slot::Data(data_loc(1));
        node.slots[1] = Slot::Data(PhysicalLocator::ObjectRange {
            key: ObjectKey::from_offset(2),
            offset: 8192,
            len: 777,
        });
        node.slots[2] = Slot::Data(PhysicalLocator::Blocks {
            start: iq_common::BlockNum(5),
            count: 1,
        });
        let body = encode_node(&node, &HashMap::new());
        assert_eq!(
            u32::from_le_bytes(body[0..4].try_into().unwrap()),
            BM_NODE_V2_MAGIC
        );
        let (level, slots) = decode_node(&body, 4).unwrap();
        assert_eq!(level, 0);
        assert_eq!(slots, node.slots);
    }

    #[test]
    fn never_write_twice_holds_for_blockmap_pages() {
        let f = fixture();
        let io = PageIo {
            space: &f.space,
            keys: &f.keys,
        };
        let mut bm = Blockmap::new(4);
        for round in 0..5u64 {
            for p in 0..16u64 {
                bm.set(PageId(p), data_loc(round * 100 + p), &io).unwrap();
            }
            bm.flush(VersionId(round), &io).unwrap();
        }
        // Every object in the store (all blockmap pages here) was written
        // exactly once.
        assert_eq!(f.store.max_write_count(), 1);
    }
}
