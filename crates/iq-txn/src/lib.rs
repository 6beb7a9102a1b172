#![warn(missing_docs)]

//! Transaction management for the `cloudiq` reproduction: MVCC with
//! snapshot isolation, the Object Key Generator, RF/RB garbage-collection
//! bitmaps, the transaction log, crash recovery, and the multiplex
//! (coordinator / writer / reader) topology.
//!
//! The paper's §3.2–§3.3 are reproduced structurally:
//!
//! * [`log`] — the transaction log. The log "does not store the data that
//!   are updated ...; instead, it stores the metadata" (§3.1): checkpoint
//!   records (the base recovery starts from, garbage-collector state
//!   included), key-range allocations, and commit records carrying RF/RB
//!   bitmap identities and the identity objects the commit installs.
//!   [`codec`] is the binary form a durable sink uploads; [`fence`] keeps a
//!   checkpoint's image and its place in the log in agreement.
//! * [`keygen`] — the Object Key Generator: coordinator-resident,
//!   transactional, strictly monotone range allocation with per-node
//!   *active sets*; plus the per-node key cache with adaptive range sizing
//!   that implements [`iq_storage::KeySource`].
//! * [`rfrb`] — per-transaction roll-forward/roll-back bitmaps. Block runs
//!   on conventional dbspaces are dense bit runs; cloud pages are single
//!   keys in `[2^63, 2^64)`, held as interval sets.
//! * [`manager`] — the transaction manager: begin/commit/rollback,
//!   snapshot-isolation sequence numbers, the committed-transaction chain
//!   whose oldest unreferenced entry drives garbage collection, and the
//!   [`manager::DeletionSink`] through which pages die (or are handed to
//!   the snapshot manager instead, §5).
//! * [`multiplex`] — coordinator and secondary nodes with simulated RPC,
//!   crash, and restart; reproduces Table 1's recovery walkthrough.

pub mod codec;
pub mod composites;
pub mod fence;
pub mod keygen;
pub mod log;
pub mod manager;
pub mod multiplex;
pub mod rfrb;

pub use codec::LogBatch;
pub use composites::{CompositeImage, CompositeRegistry, CompositeStats};
pub use fence::CheckpointFence;
pub use keygen::{KeyGenerator, KeyRange, NodeKeyCache, RangeProvider};
pub use log::{Checkpoint, LogRecord, LogSink, RecordKind, RetentionImage, TxnLog};
pub use manager::{
    BulkDeleteOutcome, DeletionSink, GcStats, GcStatsSnapshot, ImmediateDeletion,
    TransactionManager,
};
pub use multiplex::{Coordinator, Multiplex, NodeRole, SecondaryNode};
pub use rfrb::{coalesce_block_runs, PackMember, RfRb};
