#![warn(missing_docs)]

//! SAP IQ's buffer manager, extended for cloud dbspaces.
//!
//! "In SAP IQ, new pages get created in-memory first; that is, the
//! lifetime of a page starts in the buffer cache. When a page is modified,
//! it is marked as dirty. The buffer manager maintains a list of all the
//! dirty pages associated with active transactions. Before a transaction
//! commits, all associated dirty pages are flushed to permanent storage"
//! (§3.1). This crate reproduces that machinery:
//!
//! * [`lru`] — an O(1) intrusive LRU, the building block of both
//!   replacement policies.
//! * [`slru`] — a scan-resistant segmented LRU (probationary/protected)
//!   with admission control, used for frame replacement here and for the
//!   OCM's slot list (the paper's §5 cache hierarchy must survive large
//!   scans without evicting the point-read working set).
//! * [`shard`] — the frame table's sharding: per-shard `Mutex` + `Condvar`
//!   so parallel scan workers take disjoint locks.
//! * [`manager`] — the buffer manager proper: a RAM-budgeted sharded cache
//!   of decompressed pages, per-transaction dirty lists, eviction through
//!   a [`manager::FlushSink`] (which the storage layer implements with the
//!   never-write-twice cloud flush path; no shard lock is held across a
//!   flush), and a prefetch entry point that distinguishes demand misses
//!   from prefetched loads so the virtual-time model can price unmasked
//!   latency.

pub mod lru;
pub mod manager;
pub mod shard;
pub mod slru;

pub use lru::LruCache;
pub use manager::{
    BufferManager, BufferOptions, BufferStats, BufferStatsSnapshot, FlushCause, FlushGroup,
    FlushSink, FrameKey,
};
pub use slru::{Admission, SlruCache};
