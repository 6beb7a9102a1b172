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

/// One written block: block `at` of the bytes one write stored. The write
/// is kept as it came, so its last block may be short; the rest of that
/// block reads back as zeroes. A read inside one write is a slice of it,
/// with no copy.
struct Block {
    run: Bytes,
    at: usize,
}

/// In-process strongly consistent block device.
pub struct BlockDeviceSim {
    blocks: Mutex<HashMap<u64, Block>>,
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

    /// Size of one block in bytes.
    pub fn block_size(&self) -> u32 {
        self.block_size
    }

    /// Device capacity in blocks.
    pub fn capacity_blocks(&self) -> u64 {
        self.capacity_blocks
    }

    /// Write `data` starting at block `start`, over `data.len()` rounded
    /// up to whole blocks. A short final block is zero-filled: this is the
    /// one place a page image is padded, because only a block device
    /// stores whole blocks. `data` must not be empty.
    pub fn write_blocks(&self, start: BlockNum, data: &[u8]) -> IqResult<()> {
        let block = self.block_size as usize;
        if data.is_empty() {
            return Err(IqError::Invalid("zero-length block write".into()));
        }
        let count = data.len().div_ceil(block) as u32;
        self.check_range(start, count)?;
        // The device stores, and is charged for, whole blocks: the short
        // tail of the last one reads back as zeroes.
        self.stats
            .record(IoOp::BlockWrite, count as u64 * self.block_size as u64);
        let run = Bytes::copy_from_slice(data);
        let mut blocks = self.blocks.lock();
        let mut covered = Vec::new();
        for at in 0..count as usize {
            let run = run.clone();
            let b = start.0 + at as u64;
            if let Some(old) = blocks.insert(b, Block { run, at }) {
                covered.push((b, old));
            }
        }
        unpin(&mut blocks, block, covered);
        Ok(())
    }

    /// Read `count` blocks starting at `start`.
    pub fn read_blocks(&self, start: BlockNum, count: u32) -> IqResult<Bytes> {
        self.check_range(start, count)?;
        self.stats
            .record(IoOp::BlockRead, count as u64 * self.block_size as u64);
        Ok(self.gather(start, count as usize * self.block_size as usize))
    }

    /// Discard `count` blocks starting at `start` (frees simulated space).
    pub fn trim_blocks(&self, start: BlockNum, count: u32) -> IqResult<()> {
        self.check_range(start, count)?;
        let mut blocks = self.blocks.lock();
        let trimmed = (start.0..start.0 + count as u64)
            .filter_map(|b| Some((b, blocks.remove(&b)?)))
            .collect();
        unpin(&mut blocks, self.block_size as usize, trimmed);
        Ok(())
    }

    /// Total bytes currently resident (for data-at-rest costing).
    pub fn resident_bytes(&self) -> u64 {
        self.used_blocks() * self.block_size as u64
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

    /// The first `len` bytes of the blocks from `start`, charged as the
    /// whole blocks they touch, exactly as [`BlockDeviceSim::read_blocks`]
    /// charges them. Bytes one write stored are served as a slice of it.
    pub fn read_bytes(&self, start: BlockNum, len: u32) -> IqResult<Bytes> {
        let count = len.div_ceil(self.block_size).max(1);
        self.check_range(start, count)?;
        self.stats
            .record(IoOp::BlockRead, count as u64 * self.block_size as u64);
        Ok(self.gather(start, len as usize))
    }

    /// `len` bytes from the start of block `start`: a slice when one write
    /// holds them all, else assembled block by block.
    fn gather(&self, start: BlockNum, len: usize) -> Bytes {
        let block = self.block_size as usize;
        let blocks = self.blocks.lock();
        if let Some(first) = blocks.get(&start.0) {
            let from = first.at * block;
            let one_write = from + len <= first.run.len()
                && (start.0..)
                    .zip(first.at..)
                    .take(len.div_ceil(block))
                    .all(|(b, at)| {
                        blocks
                            .get(&b)
                            .is_some_and(|x| x.at == at && x.run.as_ptr() == first.run.as_ptr())
                    });
            if one_write {
                return first.run.slice(from..from + len);
            }
        }
        let mut out = vec![0u8; len];
        for (i, chunk) in out.chunks_mut(block).enumerate() {
            if let Some(x) = blocks.get(&(start.0 + i as u64)) {
                let from = (x.at * block).min(x.run.len());
                let have = &x.run[from..(from + chunk.len()).min(x.run.len())];
                chunk[..have.len()].copy_from_slice(have);
            }
        }
        Bytes::from(out)
    }
}

/// `gone` are blocks just overwritten or trimmed, by block number. Any
/// other block of their writes that is still mapped gets a copy of its own
/// bytes, so an old write's memory goes once it is partly overwritten, as
/// each block's would on its own.
fn unpin(blocks: &mut HashMap<u64, Block>, block: usize, gone: Vec<(u64, Block)>) {
    let mut seen: Vec<*const u8> = Vec::new();
    for (b, old) in gone {
        let ptr = old.run.as_ptr();
        if seen.contains(&ptr) {
            continue;
        }
        seen.push(ptr);
        let first = b - old.at as u64;
        for (at, b) in (first..).take(old.run.len().div_ceil(block)).enumerate() {
            if let Some(x) = blocks.get_mut(&b) {
                if x.run.as_ptr() == ptr && x.at == at {
                    let end = ((at + 1) * block).min(old.run.len());
                    let own = Bytes::copy_from_slice(&old.run[at * block..end]);
                    *x = Block { run: own, at: 0 };
                }
            }
        }
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
        d.stats.reset();
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
    fn reads_across_writes_see_the_latest_block() {
        let d = BlockDeviceSim::new(4, 16);
        d.write_blocks(BlockNum(0), &[1u8; 16]).unwrap();
        d.write_blocks(BlockNum(1), &[2u8; 6]).unwrap();
        let back = d.read_blocks(BlockNum(0), 4).unwrap();
        assert_eq!(&back[..], &[1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 0, 0, 1, 1, 1, 1]);
        // Within one write, a read is that write's bytes.
        assert_eq!(
            &d.read_blocks(BlockNum(1), 2).unwrap()[..],
            &[2, 2, 2, 2, 2, 2, 0, 0]
        );
        assert_eq!(&d.read_blocks(BlockNum(3), 1).unwrap()[..], &[1, 1, 1, 1]);
    }

    #[test]
    fn a_partly_overwritten_write_keeps_only_its_surviving_blocks() {
        let d = BlockDeviceSim::new(4, 16);
        d.write_blocks(BlockNum(0), &[1u8; 16]).unwrap();
        d.write_blocks(BlockNum(0), &[2u8; 4]).unwrap();
        d.trim_blocks(BlockNum(3), 1).unwrap();
        let back = d.read_blocks(BlockNum(0), 4).unwrap();
        assert_eq!(&back[..], &[2, 2, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0]);
        // Blocks 1 and 2 of the first write survive, each on its own.
        let blocks = d.blocks.lock();
        for b in [1, 2] {
            assert_eq!(
                (blocks[&b].run.len(), &blocks[&b].run[..]),
                (4, &[1u8; 4][..])
            );
        }
        assert_eq!(blocks.len(), 3);
    }

    #[test]
    fn read_bytes_slices_one_write_and_charges_whole_blocks() {
        let d = BlockDeviceSim::new(4, 16);
        d.write_blocks(BlockNum(2), &[3, 4, 5, 6, 7, 8]).unwrap();
        assert_eq!(
            &d.read_bytes(BlockNum(2), 6).unwrap()[..],
            &[3, 4, 5, 6, 7, 8]
        );
        assert_eq!(&d.read_bytes(BlockNum(3), 2).unwrap()[..], &[7, 8]);
        // Past what the write stored, the block reads zero.
        assert_eq!(&d.read_bytes(BlockNum(3), 4).unwrap()[..], &[7, 8, 0, 0]);
        assert_eq!(d.stats.snapshot().op(IoOp::BlockRead).bytes, 4 * 4);
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
