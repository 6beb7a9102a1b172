#![warn(missing_docs)]

//! The storage subsystem of the `cloudiq` reproduction: pages, dbspaces,
//! the freelist, the blockmap, and identity objects.
//!
//! SAP IQ "makes a clear distinction between the logical (in-memory) and
//! the physical (on-disk) representation of a page" (§2) — the single
//! abstraction the paper credits with making the cloud port tractable.
//! This crate reproduces that layering:
//!
//! * [`page`] — the physical page image: header, checksum, page-level
//!   compression, byte-exact (a block device pads it to 1–16 blocks).
//! * [`checksum`] — the one word-at-a-time 64-bit sum over page images
//!   (header fields and payload) and the catalog blob.
//! * [`compress`] — the page-level compressor (an LZ77-class codec built
//!   from scratch) standing in for IQ's page compression.
//! * [`freelist`] — the dense allocation bitmap for conventional dbspaces;
//!   "a bit set in the freelist indicates that the block is in use" (§2).
//!   Cloud dbspaces do not use it — that is the point of the paper.
//! * [`dbspace`] — a dbspace over either a strongly consistent block
//!   device (conventional) or an object store (cloud). The cloud side
//!   enforces never-write-twice: every flush takes a fresh key from a
//!   [`KeySource`].
//! * [`blockmap`] — the tree of blockmap pages mapping logical pages to
//!   [`iq_common::PhysicalLocator`]s, including the Figure 2 versioning
//!   cascade: flushing a dirtied leaf re-keys it, which dirties its
//!   parent, up to the root, whose new locator lands in the identity
//!   object.
//! * [`identity`] — identity objects: the system-catalog anchors that
//!   point at blockmap roots; updated in place because the system dbspace
//!   lives on strongly consistent storage.
//! * [`catalog`] — persistence of the system catalog on the system
//!   dbspace.

pub mod blockmap;
pub mod catalog;
pub mod checksum;
pub mod compress;
pub mod dbspace;
pub mod freelist;
pub mod identity;
pub mod page;

pub use blockmap::{Blockmap, FlushOutcome};
pub use catalog::Catalog;
pub use dbspace::{CountingKeySource, DbSpace, KeySource, PageIo};
pub use freelist::Freelist;
pub use identity::IdentityObject;
pub use page::{Page, PageKind, StorageConfig};
