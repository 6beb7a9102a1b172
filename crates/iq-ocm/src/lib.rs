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
//!   byte offset, one page image per entry — so a whole object and each
//!   member of a composite object are cached alike, and every page read
//!   goes through the OCM.
//! * **A byte budget**: an entry takes the run of SSD blocks its image
//!   covers from an [`iq_storage::Freelist`], and the LRU evicts until the
//!   run fits, so a budget holds as many pages as their bytes allow. An
//!   image larger than a page is served but never cached.
//! * **Read-through**: a miss fetches from the object store (a ranged GET
//!   for a member) and caches the extent on SSD before it returns, so the
//!   cache holds what a run's reads put there in the order they made them.
//!   The paper populates *asynchronously*; that is a timing claim, and the
//!   virtual-time model keeps it by charging the SSD write as overlapped
//!   work, never on the read's serial path.
//! * **One write path**: [`Ocm::write_group`] uploads an object — one
//!   page, or a composite of several — in one PUT, then caches each page
//!   as a read-through miss is. A page joins the LRU only after the upload
//!   succeeds, "to prevent unnecessary build-up of pages in the OCM cache
//!   (e.g., pages of failed/rolled-back transactions)". The paper uploads
//!   churn-phase evictions *asynchronously* (write-back) and drains them
//!   at commit with FlushForCommit; that too is a timing claim, priced by
//!   the virtual-time model, so here the upload runs on the thread that
//!   evicts, a failed one fails that call and its transaction's commit,
//!   and there is nothing left to drain.
//! * A **single LRU** across reads and writes, with one admission: every
//!   read-through miss and written page enters probation and is promoted
//!   on its next hit, whoever asked for it; and hit/miss/eviction
//!   counters (Table 5).
//! * Every SSD write lands on the SSD's request ledger. The virtual-time
//!   model slows a phase's SSD reads by its write-to-read byte ratio —
//!   the mechanism behind Figure 6's Q3/Q4 anomaly, where "under heavy
//!   load, where the OCM saturates the underlying SSD devices with a
//!   significant volume of (asynchronous) writes, reads for cache hits
//!   might suffer".

pub mod manager;

pub use manager::{Extent, Ocm, OcmConfig, OcmStats, OcmStatsSnapshot};
