//! The section table: everything `repro` can run, declared once.
//!
//! `repro`'s help text, argument parsing, dispatch, `--all` /
//! `--ablations` grouping, `BENCH_<name>.json` writing and gate checking,
//! the integration tests under `tests/` and CI all read [`SECTIONS`];
//! adding an experiment is one entry here plus its driver in
//! [`crate::experiments`].

use std::any::Any;

use iq_common::IqResult;

use crate::experiments::{self as ex, VolumeSuite};
use crate::report::Report;
use crate::throughput;
use Kind::{Ablation, Aid, Drill, Paper};

/// Where a section belongs, which decides the group flags selecting it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One of the paper's tables and figures.
    Paper,
    /// A design-choice ablation, model-only or measured.
    Ablation,
    /// The throughput drill.
    Drill,
    /// A calibration aid, run only when asked for by name.
    Aid,
}

/// A flag selecting several sections at once.
pub struct Group {
    /// `repro --<flag>`.
    pub flag: &'static str,
    /// One-line help.
    pub help: &'static str,
    /// The kinds of section it selects.
    pub selects: fn(Kind) -> bool,
}

/// The groups; the first is what `repro` runs by default.
pub static GROUPS: [Group; 2] = [
    Group {
        flag: "all",
        help: "every section below except --explain (the default)",
        selects: |k| k != Kind::Aid,
    },
    Group {
        flag: "ablations",
        help: "the design-choice ablations, model-only and measured",
        selects: |k| k == Kind::Ablation,
    },
];

/// The rows a measured ablation produces: they serialise into
/// `BENCH_<name>.json`, render as the section's report, and carry the
/// ablation's acceptance gates.
pub trait Rows: Any + Json {
    /// The section's report.
    fn report(&self) -> Report;
    /// Every condition the rows must satisfy — the bar the ablation's PR
    /// set, checked on each `repro` run and by `tests/ablations.rs`.
    fn gates(&self) -> Result<(), String>;
}

/// `serde_json::to_string`, callable on a `dyn` [`Rows`].
pub trait Json {
    /// The value as one line of JSON.
    fn json(&self) -> String;
}

impl<T: serde::Serialize> Json for T {
    fn json(&self) -> String {
        serde_json::to_string(self).expect("bench rows serialize")
    }
}

/// One gate condition inside a [`Rows::gates`]: returns the failed
/// condition's text (prefixed by the row it was checked on, if given)
/// unless it holds. The numbers are in the report printed above it.
macro_rules! gate {
    ($cond:expr) => {
        gate!($cond, "rows")
    };
    ($cond:expr, $row:expr) => {
        let holds: bool = $cond;
        if !holds {
            return Err(format!("{}: `{}` does not hold", $row, stringify!($cond)));
        }
    };
}
pub(crate) use gate;

/// How a section is produced.
pub enum Run {
    /// A report computed at a scale factor.
    Report(fn(f64) -> IqResult<Report>),
    /// A report fed by the S3/EBS/EFS volume suite, which one invocation
    /// runs once however many of these it selects.
    Volume(fn(&VolumeSuite) -> Report),
    /// A measured ablation: its rows are gated and written to
    /// [`Section::bench_file`].
    Measured(fn(f64) -> IqResult<Box<dyn Rows>>),
    /// Free-form text.
    Text(fn(f64) -> IqResult<String>),
}

/// One entry of the table.
pub struct Section {
    /// Which groups select it.
    pub kind: Kind,
    /// `repro --<flag>`.
    pub flag: &'static str,
    /// One-line help.
    pub help: &'static str,
    /// How to run it.
    pub run: Run,
}

const fn row(kind: Kind, flag: &'static str, help: &'static str, run: Run) -> Section {
    Section {
        kind,
        flag,
        help,
        run,
    }
}

/// The fault sweep's flag, which doubles as the fault-injection modifier
/// of `repro --trace` / `--metrics`.
pub const FAULTS: &str = "faults";

/// Every section, in `--all` output order.
pub static SECTIONS: [Section; 24] = [
    row(Paper, "table1", "recovery & GC walkthrough", Run::Report(|_| ex::table1())),
    row(Paper, "table2", "load + query times (S3/EBS/EFS)", Run::Volume(ex::table2)),
    row(Paper, "table3", "compute cost of load and query sweep", Run::Volume(ex::table3)),
    row(Paper, "table4", "monthly data-at-rest cost", Run::Volume(ex::table4)),
    row(Paper, "table5", "OCM utilization", Run::Report(ex::table5)),
    row(Paper, "fig8", "network bandwidth during load", Run::Volume(ex::fig8)),
    row(Paper, "fig6", "OCM on/off per query, two instances", Run::Report(ex::fig6)),
    row(Paper, "fig7", "scale-up (16/48/96 CPUs)", Run::Report(ex::fig7)),
    row(Paper, "fig9", "scale-out (2/4/8 nodes)", Run::Report(ex::fig9)),
    row(
        Ablation,
        FAULTS,
        "fault sweep: retry/backoff under a flaky store",
        Run::Report(|_| Ok(ex::fault_sweep())),
    ),
    row(
        Ablation,
        "scan-parallelism",
        "morsel-parallel scan worker sweep (companion to Figure 7)",
        Run::Report(ex::scan_parallelism),
    ),
    row(
        Ablation,
        "consistency",
        "never-write-twice vs update-in-place: observable stale reads",
        Run::Report(|_| Ok(ex::consistency())),
    ),
    row(
        Ablation,
        "prefix",
        "hashed vs monotone key prefixes under S3's per-prefix rate limits",
        Run::Report(|_| Ok(ex::prefix())),
    ),
    row(
        Ablation,
        "keyrange",
        "key-range size vs coordinator RPC count",
        Run::Report(|_| Ok(ex::keyrange())),
    ),
    row(
        Ablation,
        "ocm-mode",
        "OCM write-back vs write-through for churn-phase evictions",
        Run::Report(|_| Ok(ex::ocm_mode())),
    ),
    row(
        Ablation,
        "rollback-notify",
        "notifying the coordinator on rollback vs restart-time polls",
        Run::Report(|_| Ok(ex::rollback_notify())),
    ),
    row(
        Ablation,
        "gc",
        "batched multi-object GC deletion: per-key vs batched vs batched + parallel",
        Run::Measured(|sf| Ok(Box::new(ex::gc_rows(sf)?))),
    ),
    row(
        Ablation,
        "cache",
        "sharded scan-resistant buffer cache: {1, 8} shards x {LRU, SLRU}",
        Run::Measured(|sf| Ok(Box::new(ex::cache_rows(sf)?))),
    ),
    row(
        Ablation,
        "pack",
        "commit-flush page packing: pack sizes 1/4/16/64 + a whole-object-GET leg",
        Run::Measured(|sf| Ok(Box::new(ex::pack_rows(sf)?))),
    ),
    row(
        Ablation,
        "group-commit",
        "coalesced transaction-log appends vs one PUT per record, 1/4/8 committers",
        Run::Measured(|sf| Ok(Box::new(ex::group_commit_rows(sf)?))),
    ),
    row(
        Ablation,
        "recovery",
        "durable-log replay drill: commits under a cut log store error, then reconcile away at reopen",
        Run::Measured(|sf| Ok(Box::new(ex::recovery_rows(sf)?))),
    ),
    row(
        Ablation,
        "prune",
        "late-materialization scan: eager vs two-phase page reads, unclustered sweep",
        Run::Measured(|sf| Ok(Box::new(ex::prune_rows(sf)?))),
    ),
    row(
        Drill,
        "throughput",
        "fair-queued TPC-H drill: 24 query + 4 refresh streams over 16 slots, fair vs FIFO",
        Run::Measured(|sf| Ok(Box::new(throughput::rows(sf)?))),
    ),
    row(
        Aid,
        "explain",
        "calibration aid: time-model phase totals + folded event journal of one power run",
        Run::Text(ex::explain),
    ),
];

/// Resolve `--<flag>` arguments — group or section flags, none meaning
/// the default group — to the selected sections, in table order, each at
/// most once.
pub fn select(flags: &[&str]) -> Result<Vec<&'static Section>, String> {
    let flags = if flags.is_empty() {
        &[GROUPS[0].flag]
    } else {
        flags
    };
    let group = |f: &str| GROUPS.iter().find(|g| g.flag == f);
    for flag in flags {
        if group(flag).is_none() && !SECTIONS.iter().any(|s| s.flag == *flag) {
            let known = GROUPS.iter().map(|g| g.flag);
            let known: Vec<_> = known.chain(SECTIONS.iter().map(|s| s.flag)).collect();
            return Err(format!(
                "unknown section --{flag}; known: --{}",
                known.join(" --")
            ));
        }
    }
    let selected = |s: &&Section| {
        flags
            .iter()
            .any(|f| s.flag == *f || group(f).is_some_and(|g| (g.selects)(s.kind)))
    };
    Ok(SECTIONS.iter().filter(selected).collect())
}

impl Section {
    /// Run the section at scale factor `sf`: the text `repro` prints and,
    /// for a measured ablation, its rows. `suite` carries the volume suite
    /// from one section of an invocation to the next.
    pub fn run(
        &self,
        sf: f64,
        suite: &mut Option<VolumeSuite>,
    ) -> IqResult<(String, Option<Box<dyn Rows>>)> {
        // A report is followed by a blank line.
        let page = |r: Report| format!("{}\n", r.to_text());
        Ok(match self.run {
            Run::Report(f) => (page(f(sf)?), None),
            Run::Volume(f) => {
                if suite.is_none() {
                    *suite = Some(ex::run_volume_suite(sf)?);
                }
                (page(f(suite.as_ref().expect("set above"))), None)
            }
            Run::Measured(f) => {
                let rows = f(sf)?;
                (page(rows.report()), Some(rows))
            }
            Run::Text(f) => (f(sf)?, None),
        })
    }

    /// `BENCH_<name>.json`, the file a measured ablation's rows are
    /// written to so the perf trajectory is tracked PR-over-PR.
    pub fn bench_file(&self) -> String {
        format!("BENCH_{}.json", self.flag.replace('-', "_"))
    }
}

/// The contents of a BENCH file: `{"sf": ..., "rows": ...}`.
pub fn bench_doc(sf: f64, rows: &dyn Rows) -> String {
    format!("{{\n  \"sf\": {sf},\n  \"rows\": {}\n}}\n", rows.json())
}
