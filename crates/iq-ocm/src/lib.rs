#![warn(missing_docs)]

//! The Object Cache Manager (OCM) — §4 of the paper.
//!
//! A disk-based extension to the buffer manager: a read/write cache on
//! instance-local SSD sitting between RAM and the object store. "Latency
//! on the locally-attached SSD or HDD is significantly lower than object
//! stores, and pricing is more affordable than RAM" (§4).
//!
//! Semantics reproduced here:
//!
//! * **Extents**: the cache is keyed by [`Extent`] — an object key and a
//!   byte offset, one page per slot — so a whole object and each member
//!   of a composite object are cached alike, and every page read goes
//!   through the OCM.
//! * **Read-through**: a miss fetches from the object store (a ranged GET
//!   for a member), returns to the caller, and caches the extent on SSD
//!   *asynchronously*.
//! * **Write-back** (churn phase): synchronous SSD write of every page of
//!   the object, one asynchronous object-store upload; the entries join
//!   the LRU only after the upload succeeds, "to prevent unnecessary
//!   build-up of pages in the OCM cache (e.g., pages of
//!   failed/rolled-back transactions)". Until then a read is served from
//!   the page's slot.
//! * **Write-through** (commit phase): synchronous object-store upload,
//!   asynchronous SSD caching.
//! * **FlushForCommit**: moves the committing transaction's queued jobs to
//!   the head of the write queue and switches its subsequent writes to
//!   write-through; returns only when every upload of that transaction has
//!   drained (or surfaces the failure so the transaction rolls back).
//! * A **single LRU** across reads and writes, and hit/miss/eviction
//!   counters (Table 5).
//! * Queue-depth samples taken on SSD reads feed the virtual-time model's
//!   write-pressure term — the mechanism behind Figure 6's Q3/Q4 anomaly,
//!   where "under heavy load, where the OCM saturates the underlying SSD
//!   devices with a significant volume of (asynchronous) writes, reads for
//!   cache hits might suffer".

pub mod manager;
pub mod slots;

pub use manager::{
    validate_slot_len, Extent, Ocm, OcmConfig, OcmStats, OcmStatsSnapshot, WriteMode,
};
pub use slots::SlotAllocator;
