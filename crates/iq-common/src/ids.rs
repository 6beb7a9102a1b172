//! Strongly typed identifiers.
//!
//! The most interesting type here is [`ObjectKey`]: the paper stores object
//! keys in the *same* 64-bit field the blockmap already used for physical
//! block numbers. Block numbers are capped at `2^48 - 1`, so the range
//! `[2^63, 2^64)` is reserved for object keys, and the two cases are
//! distinguished by inspecting the value (§3.1). [`PhysicalLocator`]
//! reproduces exactly that encoding.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{IqError, IqResult};

/// The value below which a raw 64-bit locator is a physical block number.
/// SAP IQ's maximum physical block number is `2^48 - 1`.
pub const MAX_BLOCK_NUM: u64 = (1 << 48) - 1;

/// The lowest raw value that denotes an object key: `2^63`.
pub const OBJECT_KEY_BASE: u64 = 1 << 63;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident($inner:ty)) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
        )]
        pub struct $name(pub $inner);

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), self.0)
            }
        }

        impl From<$inner> for $name {
            fn from(v: $inner) -> Self {
                Self(v)
            }
        }
    };
}

id_type!(
    /// Logical page number. The query engine addresses pages by
    /// `(PageId, VersionId)`; the blockmap resolves the physical location.
    PageId(u64)
);
id_type!(
    /// Version counter attached to a table (table-level versioning) or to a
    /// page request.
    VersionId(u64)
);
id_type!(
    /// Identifier of a dbspace (a named collection of storage).
    DbSpaceId(u32)
);
id_type!(
    /// Identifier of a user table.
    TableId(u32)
);
id_type!(
    /// Transaction identifier, unique across the multiplex.
    TxnId(u64)
);
id_type!(
    /// A multiplex node. Node 0 is conventionally the coordinator.
    NodeId(u32)
);

/// Physical block number on a conventional (block device) dbspace.
///
/// Pages occupy 1–16 contiguous blocks; a block run is `(BlockNum, count)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct BlockNum(pub u64);

impl BlockNum {
    /// Construct, checking the IQ cap of `2^48 - 1`.
    pub fn new(v: u64) -> Option<Self> {
        (v <= MAX_BLOCK_NUM).then_some(Self(v))
    }
}

impl fmt::Display for BlockNum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BlockNum({})", self.0)
    }
}

/// Key of an object stored in an object store.
///
/// Internally a 64-bit integer in `[2^63, 2^64)`. The *offset* (key minus
/// `2^63`) is what the Object Key Generator hands out monotonically; the
/// full S3 key string additionally gets a hashed prefix (see
/// `prefixed_name`) so that consecutive keys land on distinct S3 prefixes
/// and dodge per-prefix request-rate limits (§3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ObjectKey(u64);

impl ObjectKey {
    /// Construct from a raw 64-bit value; `None` unless in `[2^63, 2^64)`.
    pub fn from_raw(raw: u64) -> Option<Self> {
        (raw >= OBJECT_KEY_BASE).then_some(Self(raw))
    }

    /// Construct from a monotone offset (the generator's counter value).
    pub fn from_offset(offset: u64) -> Self {
        debug_assert!(offset < OBJECT_KEY_BASE, "offset overflows the key range");
        Self(OBJECT_KEY_BASE | offset)
    }

    /// The raw 64-bit representation, as stored in the blockmap field.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// The monotone offset within the reserved range.
    pub fn offset(self) -> u64 {
        self.0 & !OBJECT_KEY_BASE
    }

    /// The randomized prefix prepended to the key on the object store.
    ///
    /// The paper applies "a computationally efficient hash function" to the
    /// 64-bit value so that request-rate limits, which AWS applies *per
    /// prefix*, spread across many prefixes. We use the SplitMix64 finalizer
    /// (a cheap, well-distributed 64→64 mixer) and keep 16 bits of prefix.
    pub fn hashed_prefix(self) -> u16 {
        let mut z = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) as u16
    }

    /// Full object name as uploaded to the store: `"{prefix:04x}/{key:016x}"`.
    pub fn prefixed_name(self) -> String {
        format!("{:04x}/{:016x}", self.hashed_prefix(), self.0)
    }

    /// The next key in offset order (used for range iteration).
    pub fn successor(self) -> ObjectKey {
        ObjectKey(self.0 + 1)
    }
}

impl fmt::Display for ObjectKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ObjectKey(+{})", self.offset())
    }
}

/// Where a page version physically lives: a run of blocks on a conventional
/// dbspace, an object in an object store, or a byte range inside a
/// *composite* object (several sealed page images packed into one few-MB
/// immutable upload). A blockmap node stores one in an 18-byte slot
/// ([`PhysicalLocator::to_slot`]): whole objects and block runs as the
/// single overloaded 64-bit field plus the run length (which is 0 for
/// objects), ranged locators as the key plus `(offset, len)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PhysicalLocator {
    /// `count` contiguous blocks starting at `start` (1–16 per page).
    Blocks {
        /// First block of the run.
        start: BlockNum,
        /// Number of blocks in the run.
        count: u8,
    },
    /// A single object holding the whole page image.
    Object(ObjectKey),
    /// One member of a composite object: `len` bytes at `offset` inside
    /// the object at `key`. Served by ranged GETs; pages are ≤512 KiB so
    /// `u32` offsets cover any sane pack size.
    ObjectRange {
        /// Composite object's key.
        key: ObjectKey,
        /// Byte offset of this member's sealed image.
        offset: u32,
        /// Byte length of this member's sealed image.
        len: u32,
    },
}

impl PhysicalLocator {
    /// Bytes of one blockmap slot: a tag byte and 17 payload bytes.
    pub const SLOT_LEN: usize = 18;

    /// The blockmap slot holding this locator. Tag 1 is the overloaded
    /// field of §3.1 — `raw u64 | count u8 | 8 zero bytes`, a block run or
    /// (count 0) a whole object; tag 2 a composite member — `key u64 |
    /// offset u32 | len u32 | 1 zero byte`. An all-zero slot (tag 0) is
    /// empty. Integers are little-endian.
    pub fn to_slot(self) -> [u8; Self::SLOT_LEN] {
        let mut slot = [0u8; Self::SLOT_LEN];
        let (tag, raw) = match self {
            PhysicalLocator::Blocks { start, count } => {
                slot[9] = count;
                (1, start.0)
            }
            PhysicalLocator::Object(key) => (1, key.raw()),
            PhysicalLocator::ObjectRange { key, offset, len } => {
                slot[9..13].copy_from_slice(&offset.to_le_bytes());
                slot[13..17].copy_from_slice(&len.to_le_bytes());
                (2, key.raw())
            }
        };
        slot[0] = tag;
        slot[1..9].copy_from_slice(&raw.to_le_bytes());
        slot
    }

    /// Read a blockmap slot: `None` for an empty one, and `Corruption` for
    /// a tag or payload no locator writes. A tag-1 value is told apart "by
    /// simply looking at the range in which" it falls (§3.3).
    pub fn from_slot(slot: &[u8; Self::SLOT_LEN]) -> IqResult<Option<Self>> {
        let raw = u64::from_le_bytes(std::array::from_fn(|i| slot[1 + i]));
        let word = |at: usize| u32::from_le_bytes(std::array::from_fn(|i| slot[at + i]));
        let loc = match slot[0] {
            0 => return Ok(None),
            1 if raw >= OBJECT_KEY_BASE => PhysicalLocator::Object(ObjectKey(raw)),
            1 if raw <= MAX_BLOCK_NUM && (1..=16).contains(&slot[9]) => PhysicalLocator::Blocks {
                start: BlockNum(raw),
                count: slot[9],
            },
            1 => return Err(IqError::Corruption("bad locator in blockmap node".into())),
            2 => PhysicalLocator::ObjectRange {
                key: ObjectKey::from_raw(raw).ok_or_else(|| {
                    IqError::Corruption("bad composite key in blockmap node".into())
                })?,
                offset: word(9),
                len: word(13),
            },
            other => {
                return Err(IqError::Corruption(format!(
                    "unknown blockmap v2 slot tag {other}"
                )))
            }
        };
        Ok(Some(loc))
    }

    /// True if this locator points into an object store.
    pub fn is_cloud(self) -> bool {
        matches!(
            self,
            PhysicalLocator::Object(_) | PhysicalLocator::ObjectRange { .. }
        )
    }

    /// The object key behind a cloud locator (whole or ranged).
    pub fn object_key(self) -> Option<ObjectKey> {
        match self {
            PhysicalLocator::Object(key) | PhysicalLocator::ObjectRange { key, .. } => Some(key),
            PhysicalLocator::Blocks { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn object_key_roundtrip() {
        let k = ObjectKey::from_offset(12345);
        assert_eq!(k.offset(), 12345);
        assert!(k.raw() >= OBJECT_KEY_BASE);
        assert_eq!(ObjectKey::from_raw(k.raw()), Some(k));
        assert_eq!(ObjectKey::from_raw(12345), None);
    }

    #[test]
    fn successor_is_monotone() {
        let k = ObjectKey::from_offset(7);
        assert_eq!(k.successor().offset(), 8);
        assert!(k.successor() > k);
    }

    #[test]
    fn hashed_prefixes_spread() {
        // Consecutive keys must not share a prefix in general; count distinct
        // prefixes over a consecutive run.
        let mut prefixes = std::collections::HashSet::new();
        for off in 0..1000u64 {
            prefixes.insert(ObjectKey::from_offset(off).hashed_prefix());
        }
        assert!(
            prefixes.len() > 900,
            "prefixes too clustered: {}",
            prefixes.len()
        );
    }

    #[test]
    fn prefixed_name_format() {
        let k = ObjectKey::from_offset(1);
        let name = k.prefixed_name();
        let (p, rest) = name.split_once('/').unwrap();
        assert_eq!(p.len(), 4);
        assert_eq!(rest.len(), 16);
        assert_eq!(u64::from_str_radix(rest, 16).unwrap(), k.raw());
    }

    #[test]
    fn locator_slot_roundtrip() {
        let b = PhysicalLocator::Blocks {
            start: BlockNum(99),
            count: 4,
        };
        assert_eq!(PhysicalLocator::from_slot(&b.to_slot()).unwrap(), Some(b));
        assert!(!b.is_cloud());

        let o = PhysicalLocator::Object(ObjectKey::from_offset(5));
        let slot = o.to_slot();
        assert_eq!(
            (slot[0], slot[9]),
            (1, 0),
            "a whole object is a count-0 run"
        );
        assert_eq!(PhysicalLocator::from_slot(&slot).unwrap(), Some(o));
        assert!(o.is_cloud());
        assert_eq!(PhysicalLocator::from_slot(&[0; 18]).unwrap(), None);
    }

    #[test]
    fn ranged_locator_is_cloud_and_exposes_its_key() {
        let key = ObjectKey::from_offset(5);
        let r = PhysicalLocator::ObjectRange {
            key,
            offset: 4096,
            len: 512,
        };
        assert!(r.is_cloud());
        assert_eq!(r.object_key(), Some(key));
        assert_eq!(PhysicalLocator::Object(key).object_key(), Some(key));
        assert_eq!(
            PhysicalLocator::Blocks {
                start: BlockNum(3),
                count: 1
            }
            .object_key(),
            None
        );
    }

    #[test]
    fn locator_slot_rejects_garbage() {
        let slot = |tag: u8, raw: u64, count: u8| {
            let mut s = [0u8; 18];
            s[0] = tag;
            s[1..9].copy_from_slice(&raw.to_le_bytes());
            s[9] = count;
            s
        };
        // Block number beyond the 2^48-1 cap but below the key base.
        assert!(PhysicalLocator::from_slot(&slot(1, 1 << 50, 1)).is_err());
        // Zero-length block run.
        assert!(PhysicalLocator::from_slot(&slot(1, 100, 0)).is_err());
        // 17-block run.
        assert!(PhysicalLocator::from_slot(&slot(1, 100, 17)).is_err());
        // A composite member whose key is a block number.
        assert!(PhysicalLocator::from_slot(&slot(2, 100, 0)).is_err());
        // A tag no format writes.
        assert!(PhysicalLocator::from_slot(&slot(3, 0, 0)).is_err());
    }

    /// Offsets and lengths anywhere in `u32`, their extremes included.
    fn edge_u32() -> impl Strategy<Value = u32> {
        prop_oneof![any::<u32>(), Just(0u32), Just(u32::MAX)]
    }

    /// Every variant, each field over its whole valid domain.
    fn locator() -> impl Strategy<Value = PhysicalLocator> {
        prop_oneof![
            (0..=MAX_BLOCK_NUM, 1u8..=16).prop_map(|(start, count)| PhysicalLocator::Blocks {
                start: BlockNum(start),
                count
            }),
            (0..OBJECT_KEY_BASE)
                .prop_map(|off| PhysicalLocator::Object(ObjectKey::from_offset(off))),
            (0..OBJECT_KEY_BASE, edge_u32(), edge_u32()).prop_map(|(off, offset, len)| {
                PhysicalLocator::ObjectRange {
                    key: ObjectKey::from_offset(off),
                    offset,
                    len,
                }
            }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        #[test]
        fn any_slot_decodes_without_panicking(
            tag in 0u8..4,
            payload in proptest::collection::vec(any::<u8>(), 17..18),
        ) {
            let mut slot = [tag; 18];
            slot[1..].copy_from_slice(&payload);
            if let Ok(Some(loc)) = PhysicalLocator::from_slot(&slot) {
                // Whatever decodes re-encodes to a slot that decodes alike.
                prop_assert_eq!(PhysicalLocator::from_slot(&loc.to_slot()).ok(), Some(Some(loc)));
            }
        }

        #[test]
        fn every_locator_round_trips_through_its_slot(loc in locator()) {
            prop_assert_eq!(PhysicalLocator::from_slot(&loc.to_slot()).ok(), Some(Some(loc)));
        }
    }

    #[test]
    fn block_num_cap() {
        assert!(BlockNum::new(MAX_BLOCK_NUM).is_some());
        assert!(BlockNum::new(MAX_BLOCK_NUM + 1).is_none());
    }
}
