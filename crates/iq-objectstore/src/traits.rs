//! Backend traits implemented by the simulated devices.

use bytes::Bytes;
use iq_common::{BlockNum, IqResult, ObjectKey, SimDuration};

use crate::metrics::StatsSnapshot;

/// Result of a ranged GET: the requested slice plus the bytes the backend
/// actually moved to serve it. Range-native backends fetch exactly the
/// slice; the default fallback downloads the whole object, and the
/// difference (`fetched - data.len()`) is the over-read the `pack.*`
/// metrics surface.
#[derive(Debug, Clone)]
pub struct RangeRead {
    /// The requested byte range.
    pub data: Bytes,
    /// Bytes transferred from the store to serve the request.
    pub fetched: u64,
}

/// Maximum number of keys a single multi-object delete request may carry.
/// Mirrors the S3 `DeleteObjects` limit of 1000 keys per request; callers
/// may pass larger slices to [`ObjectBackend::delete_batch`] and the
/// backend splits them into requests of at most this size.
pub const DELETE_BATCH_MAX: usize = 1000;

/// An object store: flat key space, whole-object PUT/GET, no in-place
/// update (unless an ablation explicitly enables overwrites).
///
/// Implementations are internally synchronized; `&self` methods may be
/// called from many threads (the OCM's background writer, the prefetcher
/// and query workers all hit the store concurrently).
pub trait ObjectBackend: Send + Sync {
    /// Upload a new object. Fails with `DuplicateObjectKey` if the key was
    /// already written and overwrites are disallowed (the default; the
    /// never-write-twice policy of §3).
    fn put(&self, key: ObjectKey, data: Bytes) -> IqResult<()>;

    /// Fetch an object. May fail with `ObjectNotFound` inside the
    /// eventual-consistency visibility window even though the PUT
    /// succeeded; callers retry (see [`crate::retry::RetryPolicy`]).
    fn get(&self, key: ObjectKey) -> IqResult<Bytes>;

    /// Fetch `len` bytes at `offset` of an object (an HTTP `Range` GET).
    ///
    /// The cloud simulation charges this as **one** GET request moving
    /// `len` bytes — the point of composite objects. The default
    /// implementation serves backends with no native range support by
    /// slicing a whole-object [`Self::get`], which still works but
    /// over-reads `object_len - len` bytes (visible in
    /// [`RangeRead::fetched`]). A range that extends past the object's end
    /// is an error, like S3's `InvalidRange`.
    fn get_range(&self, key: ObjectKey, offset: u32, len: u32) -> IqResult<RangeRead> {
        let full = self.get(key)?;
        let fetched = full.len() as u64;
        // Widen before adding: `offset + len` can exceed u32::MAX (and
        // usize on 32-bit targets).
        let start = offset as u64;
        let end = start + len as u64;
        if end > full.len() as u64 {
            return Err(iq_common::IqError::Invalid(format!(
                "range {start}..{end} exceeds object {key} of {} bytes",
                full.len()
            )));
        }
        Ok(RangeRead {
            data: full.slice(start as usize..end as usize),
            fetched,
        })
    }

    /// Delete an object. Deleting a key that does not exist is a no-op:
    /// the paper's garbage collector *polls* whole key ranges, many of
    /// which were never flushed (§3.3).
    fn delete(&self, key: ObjectKey) -> IqResult<()>;

    /// Delete many objects, reporting a per-key outcome in input order.
    ///
    /// Models multi-object delete (S3 `DeleteObjects`): a cost-aware
    /// backend charges one request per [`DELETE_BATCH_MAX`] keys instead
    /// of one per key, and a fault-injecting backend may fail an arbitrary
    /// subset of the batch while the rest succeed. Like [`Self::delete`],
    /// deleting an absent key is a success. The default implementation
    /// falls back to one `delete` call per key.
    fn delete_batch(&self, keys: &[ObjectKey]) -> Vec<(ObjectKey, IqResult<()>)> {
        keys.iter().map(|&k| (k, self.delete(k))).collect()
    }

    /// Whether the object currently exists (ignores the visibility window;
    /// used by tests and the GC's existence poll).
    fn exists(&self, key: ObjectKey) -> bool;

    /// Total bytes currently resident (for data-at-rest costing).
    fn resident_bytes(&self) -> u64;

    /// Snapshot of the request ledger.
    fn stats_snapshot(&self) -> StatsSnapshot;

    /// Reset the request ledger (benchmark phase boundaries).
    fn reset_stats(&self);

    /// Charge a retry backoff against the device's clocks.
    ///
    /// Real clients sleep between retries; in the simulation a backoff is
    /// two bookkeeping effects instead: the store's op clock advances by
    /// `ops` (other traffic would have proceeded while we slept, so
    /// visibility windows genuinely close) and `wait` is recorded into the
    /// request ledger so the time/cost models account for the stall. The
    /// default is a no-op for backends with no notion of simulated time.
    fn note_backoff(&self, ops: u64, wait: SimDuration) {
        let _ = (ops, wait);
    }
}

/// A block device: fixed-size blocks, strong consistency, in-place writes.
/// Models EBS/EFS dbspaces and the OCM's local SSD area.
pub trait BlockBackend: Send + Sync {
    /// Size of one block in bytes.
    fn block_size(&self) -> u32;

    /// Device capacity in blocks.
    fn capacity_blocks(&self) -> u64;

    /// Write `data` starting at block `start`, over `data.len()` rounded
    /// up to whole blocks. A short final block is zero-filled: this is the
    /// one place a page image is padded, because only a block device
    /// stores whole blocks. `data` must not be empty.
    fn write_blocks(&self, start: BlockNum, data: &[u8]) -> IqResult<()>;

    /// Read `count` blocks starting at `start`.
    fn read_blocks(&self, start: BlockNum, count: u32) -> IqResult<Bytes>;

    /// Discard `count` blocks starting at `start` (frees simulated space).
    fn trim_blocks(&self, start: BlockNum, count: u32) -> IqResult<()>;

    /// Total bytes currently resident (for data-at-rest costing).
    fn resident_bytes(&self) -> u64;

    /// Snapshot of the request ledger.
    fn stats_snapshot(&self) -> StatsSnapshot;

    /// Reset the request ledger (benchmark phase boundaries).
    fn reset_stats(&self);
}
