#![warn(missing_docs)]

//! The snapshot manager (§5).
//!
//! "On the cloud, the ability to store user data on object stores has
//! prompted us to revisit our backup strategy... we capitalize on the fact
//! that storing data on object stores is affordable; hence, we can defer
//! the deletion of pages from object stores for a user-defined retention
//! period."
//!
//! Mechanics reproduced here:
//!
//! * When the transaction manager drops a page version, ownership moves to
//!   the snapshot manager instead of the page being deleted — the manager
//!   is a [`iq_txn::DeletionSink`] wrapping the real one.
//! * Retained pages sit in a FIFO of `(object-key, expiry)` records; a
//!   background sweep permanently deletes expired pages and prunes the
//!   list. The FIFO is stored "just like the user data" through the
//!   checkpoint record, which carries it and its clock
//!   ([`SnapshotManager::retention_image`]); reopen restores it from there.
//! * Taking a snapshot backs up only the snapshot-manager metadata, the
//!   system catalog and non-cloud dbspaces — cloud dbspaces are *not*
//!   copied, which is what makes snapshots near-instantaneous.
//! * Point-in-time restore reinstates the catalog; because object keys are
//!   monotone, the keys created between snapshot and restore form one
//!   contiguous range that can be polled for garbage collection.

pub mod manager;

pub use manager::{RetainingSink, Snapshot, SnapshotManager};
