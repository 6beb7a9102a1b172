#![warn(missing_docs)]

//! TPC-H workload for the `cloudiq` reproduction: a dbgen-equivalent data
//! generator and the 22 benchmark queries as hand-built physical plans
//! over `iq-engine`.
//!
//! The paper's evaluation (§6) runs TPC-H at scale factor 1000 with
//! range-partitioned tables and HG indexes on `o_custkey`, `n_regionkey`,
//! `s_nationkey`, `c_nationkey`, `ps_suppkey`, `ps_partkey` and
//! `l_orderkey`. [`db::TpchDb`] declares neither: no plan here probes an
//! index and row-group zone maps do the partitions' pruning.
//! The generator reproduces dbgen's schema, key structure, value
//! distributions and date ranges at any scale factor — the official
//! qualification answers apply only at SF 1, so tests validate queries by
//! structural properties and independent recomputation instead.

pub mod db;
pub mod gen;
pub mod queries;
pub mod refresh;
pub mod text;

pub use db::TpchDb;
pub use gen::Generator;
pub use queries::run_query;
