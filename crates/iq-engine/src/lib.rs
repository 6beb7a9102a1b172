#![warn(missing_docs)]

//! A disk-based columnar execution engine standing in for SAP IQ's
//! (closed-source) engine.
//!
//! The paper's evaluation drives TPC-H through SAP IQ's columnar storage
//! and load engine. This crate provides enough of that architecture to
//! push the same workload through the *reproduced* storage path (buffer
//! manager → OCM → object store):
//!
//! * [`value`] / [`chunk`] / [`mask`] — typed values, columnar batches
//!   and the word-bitset row selections predicates produce.
//! * [`strcol`] — string columns: `u32` codes over the shared string list
//!   of their column's dictionary, read as strings only where an operator
//!   needs the content, once per distinct code.
//! * [`encode`] — column encodings: dictionary encoding for strings and
//!   n-bit (frame-of-reference bit-packed) integers, the two encodings the
//!   paper names (§1, citing the n-bit dictionary patent).
//! * [`zonemap`] — per-page min/max zone maps used "to early-prune pages
//!   that are not needed for a query" (§1).
//! * [`table`] — tables stored as row groups, one page per (row-group,
//!   column); the load path and the pruning scan, which asks the store
//!   for exactly the pages it reads — nothing is fetched ahead.
//! * [`store`] — the [`store::PageStore`] trait the engine reads/writes
//!   pages through; `iq-core` implements it with the full cloud storage
//!   stack, unit tests with an in-memory map.
//! * [`expr`] / [`ops`] — vectorized expressions and physical operators
//!   (filter, hash join incl. semi/anti/left, hash aggregate, sort,
//!   limit) sufficient to express all 22 TPC-H queries; the row-local
//!   ones run inside a scan's lanes as its [`table::Stage`].
//! * [`meter`] — abstract CPU-work accounting feeding the virtual-time
//!   model.

pub mod chunk;
pub mod encode;
pub mod expr;
pub mod mask;
pub mod meter;
pub mod ops;
pub mod scanstats;
pub mod store;
pub mod strcol;
pub mod table;
pub mod value;
pub mod zonemap;

pub use chunk::{Chunk, Col};
pub use expr::Expr;
pub use mask::Mask;
pub use meter::WorkMeter;
pub use ops::OpExec;
pub use scanstats::ScanStats;
pub use store::{MemPageStore, PageStore};
pub use strcol::{StrCol, StrList};
pub use table::{ColumnDef, ScanOptions, Schema, Stage, TableMeta, TableWriter};
pub use value::{DataType, Value};
