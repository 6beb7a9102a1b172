//! System-catalog persistence.
//!
//! The catalog is the strongly consistent root of the whole database: it
//! holds the identity objects (blockmap anchors), registered dbspaces,
//! and opaque metadata sections contributed by higher layers (the key
//! generator's checkpoint state, the snapshot manager's FIFO pointer, …).
//! It lives on the **system dbspace**, which stays on a block device with
//! strong consistency, so it can be updated in place (§3.1) — and because
//! the freelist's role shrinks in the cloud version, this is the only
//! thing a snapshot has to copy in full (§5).

use std::collections::BTreeMap;

use iq_common::{BlockNum, IqError, IqResult, TableId, VersionId};
use iq_objectstore::BlockBackend;
use serde::{Deserialize, Serialize};

use crate::checksum::checksum64;
use crate::identity::IdentityObject;

const CATALOG_MAGIC: u32 = 0x4951_4341; // "IQCA"

/// The system catalog.
#[derive(Debug, Clone, Default, Serialize, Deserialize, PartialEq)]
pub struct Catalog {
    /// Identity objects: one per (table, current version).
    pub identities: BTreeMap<u64, IdentityObject>,
    /// Monotone database-wide version counter.
    pub version_watermark: u64,
    /// Opaque metadata sections keyed by owner (e.g. `"keygen"`,
    /// `"snapshots"`, `"tables"`). Each layer serializes its own state.
    pub sections: BTreeMap<String, serde_json::Value>,
}

impl Catalog {
    /// Get the identity anchor for a table.
    pub fn identity(&self, table: TableId) -> Option<&IdentityObject> {
        self.identities.get(&(table.0 as u64))
    }

    /// Install or replace a table's identity anchor (in-place update, as
    /// the system dbspace permits).
    pub fn set_identity(&mut self, identity: IdentityObject) {
        self.identities.insert(identity.table.0 as u64, identity);
    }

    /// Drop a table's identity anchor.
    pub fn remove_identity(&mut self, table: TableId) -> Option<IdentityObject> {
        self.identities.remove(&(table.0 as u64))
    }

    /// Next database version (monotone).
    pub fn bump_version(&mut self) -> VersionId {
        self.version_watermark += 1;
        VersionId(self.version_watermark)
    }

    /// Store a typed metadata section.
    pub fn put_section<T: Serialize>(&mut self, name: &str, value: &T) -> IqResult<()> {
        let v = serde_json::to_value(value)
            .map_err(|e| IqError::Catalog(format!("serialize section {name}: {e}")))?;
        self.sections.insert(name.to_string(), v);
        Ok(())
    }

    /// Load a typed metadata section.
    pub fn get_section<T: for<'de> Deserialize<'de>>(&self, name: &str) -> IqResult<Option<T>> {
        match self.sections.get(name) {
            None => Ok(None),
            Some(v) => serde_json::from_value(v.clone())
                .map(Some)
                .map_err(|e| IqError::Catalog(format!("deserialize section {name}: {e}"))),
        }
    }

    /// Persist to `device` starting at block `start`. Layout: one header
    /// block (`magic | len | checksum`) followed by the JSON payload from
    /// the next block on (the device zero-fills its last block). Returns
    /// blocks written.
    pub fn save(&self, device: &dyn BlockBackend, start: BlockNum) -> IqResult<u32> {
        let payload = serde_json::to_vec(self)
            .map_err(|e| IqError::Catalog(format!("serialize catalog: {e}")))?;
        let bs = device.block_size() as usize;
        let mut image = Vec::with_capacity(bs + payload.len());
        image.extend_from_slice(&CATALOG_MAGIC.to_le_bytes());
        image.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        image.extend_from_slice(&checksum64(0, &payload).to_le_bytes());
        image.resize(bs, 0);
        image.extend_from_slice(&payload);
        device.write_blocks(start, &image)?;
        Ok(image.len().div_ceil(bs) as u32)
    }

    /// Load from `device` at block `start`.
    pub fn load(device: &dyn BlockBackend, start: BlockNum) -> IqResult<Catalog> {
        let bs = device.block_size() as usize;
        let header = device.read_blocks(start, 1)?;
        let magic = u32::from_le_bytes(header[0..4].try_into().unwrap());
        if magic != CATALOG_MAGIC {
            return Err(IqError::Catalog(format!("bad catalog magic {magic:#x}")));
        }
        let len = u64::from_le_bytes(header[4..12].try_into().unwrap()) as usize;
        let checksum = u64::from_le_bytes(header[12..20].try_into().unwrap());
        let payload_blocks = len.div_ceil(bs) as u32;
        let payload = device.read_blocks(BlockNum(start.0 + 1), payload_blocks.max(1))?;
        let payload = &payload[..len.min(payload.len())];
        if payload.len() != len {
            return Err(IqError::Catalog("catalog payload truncated".into()));
        }
        if checksum64(0, payload) != checksum {
            return Err(IqError::Catalog("catalog checksum mismatch".into()));
        }
        serde_json::from_slice(payload).map_err(|e| IqError::Catalog(format!("parse catalog: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iq_common::{ObjectKey, PhysicalLocator};
    use iq_objectstore::BlockDeviceSim;

    fn sample() -> Catalog {
        let mut c = Catalog::default();
        c.set_identity(IdentityObject::new(
            TableId(1),
            VersionId(4),
            PhysicalLocator::Object(ObjectKey::from_offset(11)),
            64,
            500,
        ));
        c.put_section("keygen", &serde_json::json!({"max_key": 12345}))
            .unwrap();
        c
    }

    #[test]
    fn save_load_roundtrip() {
        let dev = BlockDeviceSim::new(256, 1024);
        let c = sample();
        let blocks = c.save(&dev, BlockNum(0)).unwrap();
        assert!(blocks >= 2);
        let back = Catalog::load(&dev, BlockNum(0)).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn in_place_update_supported() {
        let dev = BlockDeviceSim::new(256, 1024);
        let mut c = sample();
        c.save(&dev, BlockNum(0)).unwrap();
        c.set_identity(IdentityObject::new(
            TableId(1),
            VersionId(5),
            PhysicalLocator::Object(ObjectKey::from_offset(99)),
            64,
            600,
        ));
        c.save(&dev, BlockNum(0)).unwrap(); // same location, in place
        let back = Catalog::load(&dev, BlockNum(0)).unwrap();
        assert_eq!(back.identity(TableId(1)).unwrap().version, VersionId(5));
    }

    #[test]
    fn corruption_detected() {
        let dev = BlockDeviceSim::new(256, 1024);
        sample().save(&dev, BlockNum(0)).unwrap();
        // Flip a payload byte.
        let mut blk = dev.read_blocks(BlockNum(1), 1).unwrap().to_vec();
        blk[0] ^= 0xff;
        dev.write_blocks(BlockNum(1), &blk).unwrap();
        assert!(Catalog::load(&dev, BlockNum(0)).is_err());
        // Empty device: bad magic.
        let fresh = BlockDeviceSim::new(256, 16);
        assert!(Catalog::load(&fresh, BlockNum(0)).is_err());
    }

    #[test]
    fn sections_typed_roundtrip() {
        #[derive(Serialize, Deserialize, PartialEq, Debug)]
        struct S {
            a: u64,
            b: Vec<String>,
        }
        let mut c = Catalog::default();
        let s = S {
            a: 7,
            b: vec!["x".into()],
        };
        c.put_section("test", &s).unwrap();
        assert_eq!(c.get_section::<S>("test").unwrap(), Some(s));
        assert_eq!(c.get_section::<S>("missing").unwrap(), None);
    }

    #[test]
    fn version_watermark_monotone() {
        let mut c = Catalog::default();
        let v1 = c.bump_version();
        let v2 = c.bump_version();
        assert!(v2 > v1);
    }
}
