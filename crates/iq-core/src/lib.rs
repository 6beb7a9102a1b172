#![warn(missing_docs)]

//! `cloudiq` — the assembled cloud-native SAP IQ reproduction.
//!
//! [`Database`] wires every subsystem the paper describes into one engine:
//!
//! ```text
//!   query engine (iq-engine)            ← 22 TPC-H plans (iq-tpch)
//!        │  logical (table, page) reads/writes
//!   Pager: buffer manager (RAM, iq-buffer)
//!        │  miss / flush
//!   Object Cache Manager (local SSD, iq-ocm)        [optional]
//!        │  read-through / write-back / write-through
//!   dbspaces (iq-storage) ── blockmap ── identity objects ── catalog
//!        │                      keys from the Object Key Generator (iq-txn)
//!   simulated S3 / EBS / EFS (iq-objectstore)
//! ```
//!
//! Writes follow the paper's never-write-twice discipline: every flush of
//! a dirty cloud page takes a fresh object key, records the superseded
//! version in the transaction's RF bitmap and the new one in its RB
//! bitmap, and the Figure 2 cascade re-keys the blockmap path up to the
//! identity object at commit. Rollback deletes RB pages immediately;
//! commit hands RF pages to the transaction manager's chain — or to the
//! snapshot manager's retention FIFO when snapshots are enabled (§5).

pub mod config;
pub mod database;
pub mod encrypt;
pub mod group_commit;
pub mod log_recovery;
pub mod pager;
pub mod tablestore;
pub mod view;

pub use config::{DatabaseConfig, GroupCommitMode};
pub use database::Database;
pub use group_commit::{CommitOutcome, DurableLog, DurableLogStats};
pub use log_recovery::RecoveryReport;
pub use pager::Pager;
pub use view::SnapshotView;
