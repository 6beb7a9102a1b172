//! The simulated block device.
//!
//! [`BlockDeviceSim`] models strongly consistent, fixed-block storage: EBS
//! and EFS volumes holding conventional dbspaces, and the instance-local
//! NVMe SSD backing the Object Cache Manager. Unlike the object store it
//! supports in-place writes — which is exactly why the paper keeps the
//! *system* dbspace (identity objects, checkpoint blocks) on such a device:
//! "the identity object is part of the system dbspace, which is always
//! stored on devices with strong consistency guarantees; therefore, it can
//! be updated in-place" (§3.1).

use std::collections::HashMap;

use bytes::Bytes;
use iq_common::{BlockNum, IqError, IqResult};
use parking_lot::Mutex;

use crate::metrics::{DeviceStats, IoOp};
use crate::traits::BlockBackend;

/// In-process strongly consistent block device.
pub struct BlockDeviceSim {
    blocks: Mutex<HashMap<u64, Bytes>>,
    block_size: u32,
    capacity_blocks: u64,
    /// Request ledger.
    pub stats: DeviceStats,
}

impl BlockDeviceSim {
    /// Create a device of `capacity_blocks` blocks of `block_size` bytes.
    pub fn new(block_size: u32, capacity_blocks: u64) -> Self {
        assert!(block_size > 0, "block size must be nonzero");
        Self {
            blocks: Mutex::new(HashMap::new()),
            block_size,
            capacity_blocks,
            stats: DeviceStats::new(),
        }
    }

    /// Number of blocks currently holding data.
    pub fn used_blocks(&self) -> u64 {
        self.blocks.lock().len() as u64
    }

    fn check_range(&self, start: BlockNum, count: u32) -> IqResult<()> {
        if count == 0 {
            return Err(IqError::Invalid("zero-length block range".into()));
        }
        if start.0 + count as u64 > self.capacity_blocks {
            return Err(IqError::Invalid(format!(
                "block range {}..{} exceeds device capacity {}",
                start.0,
                start.0 + count as u64,
                self.capacity_blocks
            )));
        }
        Ok(())
    }
}

impl BlockBackend for BlockDeviceSim {
    fn block_size(&self) -> u32 {
        self.block_size
    }

    fn capacity_blocks(&self) -> u64 {
        self.capacity_blocks
    }

    fn write_blocks(&self, start: BlockNum, data: &[u8]) -> IqResult<()> {
        let block = self.block_size as usize;
        if data.is_empty() {
            return Err(IqError::Invalid("zero-length block write".into()));
        }
        let count = data.len().div_ceil(block) as u32;
        self.check_range(start, count)?;
        // The device stores, and is charged for, whole blocks.
        self.stats
            .record(IoOp::BlockWrite, count as u64 * self.block_size as u64);
        let mut blocks = self.blocks.lock();
        for (i, chunk) in data.chunks(block).enumerate() {
            let stored = if chunk.len() == block {
                Bytes::copy_from_slice(chunk)
            } else {
                let mut tail = vec![0u8; block];
                tail[..chunk.len()].copy_from_slice(chunk);
                Bytes::from(tail)
            };
            blocks.insert(start.0 + i as u64, stored);
        }
        Ok(())
    }

    fn read_blocks(&self, start: BlockNum, count: u32) -> IqResult<Bytes> {
        self.check_range(start, count)?;
        self.stats
            .record(IoOp::BlockRead, count as u64 * self.block_size as u64);
        let blocks = self.blocks.lock();
        let mut out = Vec::with_capacity(count as usize * self.block_size as usize);
        for b in start.0..start.0 + count as u64 {
            match blocks.get(&b) {
                Some(bytes) => out.extend_from_slice(bytes),
                // Unwritten blocks read back as zeroes, like a fresh volume.
                None => out.resize(out.len() + self.block_size as usize, 0),
            }
        }
        Ok(Bytes::from(out))
    }

    fn trim_blocks(&self, start: BlockNum, count: u32) -> IqResult<()> {
        self.check_range(start, count)?;
        let mut blocks = self.blocks.lock();
        for b in start.0..start.0 + count as u64 {
            blocks.remove(&b);
        }
        Ok(())
    }

    fn resident_bytes(&self) -> u64 {
        self.used_blocks() * self.block_size as u64
    }

    fn stats_snapshot(&self) -> crate::metrics::StatsSnapshot {
        self.stats.snapshot()
    }

    fn reset_stats(&self) {
        self.stats.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_roundtrip() {
        let d = BlockDeviceSim::new(512, 1024);
        let data = vec![7u8; 512 * 3];
        d.write_blocks(BlockNum(10), &data).unwrap();
        let back = d.read_blocks(BlockNum(10), 3).unwrap();
        assert_eq!(&back[..], &data[..]);
        assert_eq!(d.used_blocks(), 3);
        assert_eq!(d.resident_bytes(), 512 * 3);
    }

    #[test]
    fn in_place_overwrite_allowed() {
        let d = BlockDeviceSim::new(512, 16);
        d.write_blocks(BlockNum(0), &[1u8; 512]).unwrap();
        d.write_blocks(BlockNum(0), &[2u8; 512]).unwrap();
        assert_eq!(d.read_blocks(BlockNum(0), 1).unwrap()[0], 2);
    }

    #[test]
    fn unwritten_blocks_read_zero() {
        let d = BlockDeviceSim::new(256, 16);
        let b = d.read_blocks(BlockNum(4), 2).unwrap();
        assert!(b.iter().all(|&x| x == 0));
        assert_eq!(b.len(), 512);
    }

    #[test]
    fn short_final_block_is_zero_filled_and_charged_whole() {
        let d = BlockDeviceSim::new(512, 4);
        // Dirty the block first: the fill must overwrite, not leave stale
        // bytes behind the short write.
        d.write_blocks(BlockNum(0), &[9u8; 512]).unwrap();
        d.reset_stats();
        d.write_blocks(BlockNum(0), &[5u8; 100]).unwrap();
        assert_eq!(d.used_blocks(), 1);
        assert_eq!(d.stats.snapshot().op(IoOp::BlockWrite).bytes, 512);
        let back = d.read_blocks(BlockNum(0), 1).unwrap();
        assert!(back[..100].iter().all(|&x| x == 5));
        assert!(back[100..].iter().all(|&x| x == 0));
        // A write that ends mid-block takes every block it touches.
        d.write_blocks(BlockNum(1), &[6u8; 513]).unwrap();
        assert_eq!(d.used_blocks(), 3);
        assert_eq!(d.resident_bytes(), 3 * 512);
    }

    #[test]
    fn rejects_empty_and_out_of_range() {
        let d = BlockDeviceSim::new(512, 4);
        assert!(d.write_blocks(BlockNum(0), &[]).is_err());
        assert!(d.write_blocks(BlockNum(3), &[0u8; 1024]).is_err());
        assert!(d.write_blocks(BlockNum(3), &[0u8; 513]).is_err());
        assert!(d.read_blocks(BlockNum(0), 0).is_err());
        assert!(d.read_blocks(BlockNum(4), 1).is_err());
        assert_eq!(d.used_blocks(), 0);
    }

    #[test]
    fn trim_frees_space() {
        let d = BlockDeviceSim::new(512, 16);
        d.write_blocks(BlockNum(0), &[1u8; 512 * 4]).unwrap();
        d.trim_blocks(BlockNum(1), 2).unwrap();
        assert_eq!(d.used_blocks(), 2);
        // Trimmed blocks read back as zero.
        assert!(d
            .read_blocks(BlockNum(1), 1)
            .unwrap()
            .iter()
            .all(|&x| x == 0));
        assert_eq!(d.read_blocks(BlockNum(0), 1).unwrap()[0], 1);
    }

    #[test]
    fn stats_account_bytes() {
        let d = BlockDeviceSim::new(512, 16);
        d.write_blocks(BlockNum(0), &[1u8; 1024]).unwrap();
        d.read_blocks(BlockNum(0), 2).unwrap();
        let snap = d.stats.snapshot();
        assert_eq!(snap.op(IoOp::BlockWrite).bytes, 1024);
        assert_eq!(snap.op(IoOp::BlockRead).bytes, 1024);
    }
}
