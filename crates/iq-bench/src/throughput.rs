//! TPC-H throughput drill: fair-queued concurrent query + refresh streams.
//!
//! The power run (`runner.rs`) answers "how fast is one stream"; this
//! module answers the throughput question the paper's §6 leaves open:
//! what happens when *many* closed-loop streams share one cloud dbspace.
//! The drill
//!
//! 1. executes each of Q1–Q22 and RF1/RF2 **once**, functionally, against
//!    a real simulated S3 dbspace, capturing per-phase device activity,
//!    metered CPU work, and output rows (the refreshes commit real new
//!    table versions; a reader opened before them re-scans its snapshot
//!    unchanged — the snapshot-isolation guarantee the streams rely on);
//! 2. folds each capture through the virtual [`TimeModel`] at the
//!    projected scale into a per-job service time, request count, and
//!    request-dollar cost;
//! 3. classifies queries light/heavy by metered cost (median split) and
//!    replays seeded shuffled streams through the deterministic
//!    [`QueryScheduler`] under weighted-fair and FIFO admission.
//!
//! Everything downstream of the capture is pure arithmetic over a fixed
//! seed, so a repeated run at the same scale factor produces a
//! byte-identical [`ThroughputMeasure`] (and `BENCH_throughput.json`).
//!
//! The capture is the power run's: one scan worker, so store traffic is
//! issued in one order, and operators fanned out over 8 workers, which
//! changes wall-clock only, never the capture. Unlike the power run, the
//! drill captures without the OCM SSD tier, because its job specs are
//! pinned on store-only captures.

use std::collections::BTreeMap;

use iq_common::trace::MetricValue;
use iq_common::{DetRng, IqResult};
use iq_objectstore::{CostLedger, TimeModel};
use iq_tpch::refresh::{rf1, rf2};
use serde::Serialize;

use crate::report::{Column, Report};
use crate::runner::{scale_phase, Capture, PhaseCapture, RunConfig, EXEC_WORKERS, SEED};
use crate::scheduler::{
    percentile, summarize, ClassSummary, Completion, JobSpec, QueryClass, QueryScheduler,
    SchedulerConfig,
};
use crate::sections::{gate, Rows};

/// Closed-loop query streams (TPC-H style, each a shuffled Q1..Q22).
const QUERY_STREAMS: usize = 24;
/// Refresh streams, each alternating RF1/RF2.
const REFRESH_STREAMS: usize = 4;
/// Refresh jobs per refresh stream.
const REFRESH_ROUNDS: usize = 8;
/// Execution slots (multiprogramming level).
const SLOTS: usize = 16;
/// Weighted-fair share: light gets 4× a heavy stream's slot share.
const LIGHT_WEIGHT: f64 = 4.0;
/// Heavy-class weight.
const HEAVY_WEIGHT: f64 = 1.0;

/// The full throughput measurement written to `BENCH_throughput.json`.
#[derive(Debug, Clone, Serialize)]
pub struct ThroughputMeasure {
    /// Functional scale factor of the capture.
    pub sf: f64,
    /// Workload seed.
    pub seed: u64,
    /// Execution slots.
    pub slots: usize,
    /// Query streams.
    pub query_streams: usize,
    /// Refresh streams.
    pub refresh_streams: usize,
    /// Light-class fair-queueing weight.
    pub light_weight: f64,
    /// Heavy-class fair-queueing weight.
    pub heavy_weight: f64,
    /// Per-class digest under weighted-fair admission (`[light, heavy]`).
    pub fair: Vec<ClassSummary>,
    /// Per-class digest under the FIFO baseline (`[light, heavy]`).
    pub fifo: Vec<ClassSummary>,
    /// Virtual makespan of the fair run (seconds).
    pub makespan_s: f64,
    /// Virtual makespan of the FIFO run (seconds).
    pub fifo_makespan_s: f64,
    /// Query-class completions per virtual hour under fair admission.
    pub queries_per_hour: f64,
    /// Modeled partitioned-aggregate speedup at 8 workers (Q1 shape).
    pub agg_speedup_8w: f64,
    /// The `query.*` metrics-registry snapshot for this run.
    pub metrics: BTreeMap<String, MetricValue>,
}

fn makespan(completions: &[Completion]) -> f64 {
    completions.iter().map(|c| c.finish).fold(0.0, f64::max)
}

/// The throughput drill (`repro --throughput`): capture Q1–Q22 and
/// RF1/RF2 once and replay the seeded stream mix through weighted-fair
/// and FIFO admission. Deterministic per `sf`.
pub(crate) fn rows(sf: f64) -> IqResult<ThroughputMeasure> {
    // No OCM: the drill's job specs are pinned on store-only captures.
    // The OCM caches in the caller's order, so a capture with it would
    // repeat as well; it stays off so `BENCH_throughput.json` keeps its
    // pinned figures.
    let config = RunConfig {
        ocm_enabled: false,
        ..RunConfig::paper_default(sf)
    };
    let mut cap = Capture::open(config)?;
    let (mut tpch, _load) = cap.load_tpch()?;
    let db = &cap.db;
    db.gc_drain()?;
    let lineitem_rows = tpch.lineitem.row_count();
    cap.restart()?;

    // ---- Capture Q1..Q22, one execution each ----
    let mut profiles = cap.run_queries(&tpch)?;

    // ---- Capture RF1/RF2, each committing a new table version ----
    // A reader opened *before* the refreshes pins its snapshot: the
    // superseded versions stay readable (the table store keeps their
    // blockmaps, the committed chain defers their pages' GC) and not one
    // value of its `orders` may move while RF1/RF2 commit. A row count
    // would not do: the refreshed table read under the old metadata has
    // the same one.
    let rtxn = db.begin();
    let rpager = db.pager(rtxn)?;
    let snapshot_orders = tpch.orders.clone();
    let every_column: Vec<usize> = (0..snapshot_orders.schema.len()).collect();
    let orders_before = snapshot_orders.scan(&rpager, &every_column, None, db.meter())?;

    for rf in ["RF1", "RF2"] {
        let mark = cap.begin_phase();
        let wtxn = db.begin();
        let wpager = db.pager(wtxn)?;
        let (orders, lineitem) = if rf == "RF1" {
            let (o, l, _first_key) = rf1(&tpch, &wpager, wtxn, db.meter(), 0)?;
            (o, l)
        } else {
            let (o, l, _victims) = rf2(&tpch, &wpager, wtxn, db.meter())?;
            (o, l)
        };
        db.commit(wtxn)?;
        // Deletion of superseded versions runs on background GC workers;
        // drain it synchronously so the refresh capture window holds the
        // complete, deterministic DELETE traffic rather than a
        // timing-dependent prefix of it.
        db.gc_drain()?;
        // Install the new versions for subsequent streams/refreshes.
        tpch.orders = orders;
        tpch.lineitem = lineitem;
        profiles.push(cap.end_phase(rf, mark, 0)?);
    }
    let orders_after = snapshot_orders.scan(&rpager, &every_column, None, db.meter())?;
    assert!(
        orders_before == orders_after,
        "snapshot isolation: a pre-refresh reader must see its version unchanged"
    );
    db.rollback(rtxn)?;

    // ---- Fold captures into virtual-time job specs ----
    let scale = cap.config.scale();
    let model = TimeModel::new(cap.config.compute.clone());
    let fold = |p: &PhaseCapture, class: QueryClass| -> JobSpec {
        let mut requests = 0.0;
        let mut ledger = CostLedger::default();
        for d in &p.load.devices {
            let snap = d.snapshot.rechunked(512 * 1024).scaled(scale);
            requests += snap.total_requests as f64;
            ledger.charge_requests(&d.profile, &snap);
        }
        JobSpec {
            label: p.name.clone(),
            class,
            service_secs: model.phase_time(&scale_phase(&p.load, scale)).as_secs_f64(),
            requests,
            cost_usd: ledger.request_usd(),
        }
    };

    // Light/heavy split by metered cost: at or below the median metered
    // units is a point/light query, above is scan-heavy. Refreshes join
    // the heavy class: they are the streams that write.
    let (queries, refreshes) = profiles.split_at(22);
    let mut units: Vec<f64> = queries.iter().map(|p| p.load.cpu_work).collect();
    units.sort_unstable_by(f64::total_cmp);
    let median = units[units.len() / 2 - 1];
    let query_jobs: Vec<JobSpec> = queries
        .iter()
        .map(|p| {
            let class = if p.load.cpu_work <= median {
                QueryClass::Light
            } else {
                QueryClass::Heavy
            };
            fold(p, class)
        })
        .collect();
    let rf_jobs = [
        fold(&refreshes[0], QueryClass::Heavy),
        fold(&refreshes[1], QueryClass::Heavy),
    ];

    // ---- Seeded closed-loop stream mix ----
    let mut rng = DetRng::new(SEED ^ 0x7487_0909);
    let mut streams: Vec<Vec<JobSpec>> = Vec::with_capacity(QUERY_STREAMS + REFRESH_STREAMS);
    for s in 0..QUERY_STREAMS {
        let mut order: Vec<usize> = (0..22).collect();
        rng.fork(s as u64).shuffle(&mut order);
        streams.push(order.into_iter().map(|i| query_jobs[i].clone()).collect());
    }
    for _ in 0..REFRESH_STREAMS {
        streams.push(
            (0..REFRESH_ROUNDS)
                .map(|k| rf_jobs[k % 2].clone())
                .collect(),
        );
    }

    let fair_done =
        QueryScheduler::new(SchedulerConfig::weighted(SLOTS, LIGHT_WEIGHT, HEAVY_WEIGHT))
            .run(&streams);
    let fifo_done = QueryScheduler::new(SchedulerConfig::fifo(SLOTS)).run(&streams);

    let fair = summarize(&fair_done);
    let fifo = summarize(&fifo_done);
    let makespan_s = makespan(&fair_done);
    let fifo_makespan_s = makespan(&fifo_done);
    let query_completions = (QUERY_STREAMS * 22) as f64;
    let queries_per_hour = query_completions / makespan_s.max(1e-9) * 3600.0;

    // Modeled partitioned-aggregate speedup at 8 workers on the Q1 shape:
    // two passes over n rows (partition + fold, the fold carrying A
    // aggregate updates per row) against the serial n·A update stream,
    // plus the serial G·A stitch (DESIGN.md §6g).
    let n = lineitem_rows as f64 * scale;
    let a = 8.0; // Q1 carries 8 aggregates
    let g = queries[0].rows.max(1) as f64;
    let agg_speedup_8w = (n * a) / (n * (1.0 + a) / EXEC_WORKERS as f64 + g * a);

    let fifo_light_p99 = {
        let lat: Vec<f64> = fifo_done
            .iter()
            .filter(|c| c.class == QueryClass::Light)
            .map(|c| c.latency())
            .collect();
        percentile(&lat, 99.0)
    };

    // Register the run's digest as a `query.*` metrics source so it
    // rides the same export as every other subsystem counter.
    let f = |name: &str, v: f64| (name.to_string(), MetricValue::F64(v));
    let source_rows = vec![
        f("light_p50_s", fair[0].p50_s),
        f("light_p99_s", fair[0].p99_s),
        f("heavy_p50_s", fair[1].p50_s),
        f("heavy_p99_s", fair[1].p99_s),
        f("fifo_light_p99_s", fifo_light_p99),
        f("light_requests_per_query", fair[0].requests_per_query),
        f("heavy_requests_per_query", fair[1].requests_per_query),
        f("light_usd_per_query", fair[0].usd_per_query),
        f("heavy_usd_per_query", fair[1].usd_per_query),
        f("agg_speedup_8w", agg_speedup_8w),
        ("completed".into(), MetricValue::U64(fair_done.len() as u64)),
        f("makespan_s", makespan_s),
        f("queries_per_hour", queries_per_hour),
    ];
    db.metrics_registry()
        .register("query", move || source_rows.clone());
    let metrics: BTreeMap<String, MetricValue> = db
        .metrics()
        .into_iter()
        .filter(|(k, _)| k.starts_with("query."))
        .collect();

    Ok(ThroughputMeasure {
        sf,
        seed: SEED,
        slots: SLOTS,
        query_streams: QUERY_STREAMS,
        refresh_streams: REFRESH_STREAMS,
        light_weight: LIGHT_WEIGHT,
        heavy_weight: HEAVY_WEIGHT,
        fair,
        fifo,
        makespan_s,
        fifo_makespan_s,
        queries_per_hour,
        agg_speedup_8w,
        metrics,
    })
}

impl Rows for ThroughputMeasure {
    fn report(&self) -> Report {
        let by_policy = [("fair", &self.fair), ("fifo", &self.fifo)]
            .into_iter()
            .flat_map(|(policy, rows)| rows.iter().map(move |c| (policy, c)));
        let columns: &[Column<(&str, &ClassSummary)>] = &[
            ("Policy", &|(policy, _)| policy.to_string()),
            ("Class", &|(_, c)| c.class.name().to_string()),
            ("Done", &|(_, c)| c.completed.to_string()),
            ("p50 (s)", &|(_, c)| format!("{:.2}", c.p50_s)),
            ("p99 (s)", &|(_, c)| format!("{:.2}", c.p99_s)),
            ("Wait (s)", &|(_, c)| format!("{:.2}", c.mean_wait_s)),
            ("Req/query", &|(_, c)| {
                format!("{:.0}", c.requests_per_query)
            }),
            ("$/query", &|(_, c)| format!("{:.4}", c.usd_per_query)),
        ];
        let mut r = Report::from_columns(
            format!(
                "Throughput — {} query + {} refresh streams over {} slots (virtual s, SF 1000)",
                self.query_streams, self.refresh_streams, self.slots
            ),
            by_policy,
            columns,
        );
        let fair_p99 = self.fair[0].p99_s.max(1e-9);
        r.note(format!(
            "weighted-fair admission ({}:{}) cuts light-class p99 {:.1}x vs FIFO ({:.2}s -> {:.2}s)",
            self.light_weight,
            self.heavy_weight,
            self.fifo[0].p99_s / fair_p99,
            self.fifo[0].p99_s,
            self.fair[0].p99_s,
        ));
        r.note(format!(
            "fair makespan {:.0}s vs FIFO {:.0}s; {:.0} queries/virtual hour",
            self.makespan_s, self.fifo_makespan_s, self.queries_per_hour
        ));
        r.note(format!(
            "modeled partitioned-aggregate speedup at {} workers (Q1 shape): {:.1}x",
            EXEC_WORKERS, self.agg_speedup_8w
        ));
        r
    }

    /// The `query.*` schema is present, the partitioned aggregate models
    /// at least 2x at 8 workers, and weighted-fair admission shields the
    /// light class: its p99 does not exceed FIFO's and stays inside a
    /// pinned bound (82–88 s at the scale factors CI and the committed
    /// file use; 120 s leaves drift room).
    fn gates(&self) -> Result<(), String> {
        gate!(self.fair.len() == 2 && self.fifo.len() == 2);
        gate!(self.fair[0].class == QueryClass::Light);
        for key in [
            "light_p99_s",
            "heavy_p99_s",
            "fifo_light_p99_s",
            "queries_per_hour",
            "light_usd_per_query",
            "heavy_usd_per_query",
            "agg_speedup_8w",
        ] {
            gate!(self.metrics.contains_key(&format!("query.{key}")), key);
        }
        gate!(self.agg_speedup_8w >= 2.0);
        gate!(self.fair[0].p99_s <= self.fifo[0].p99_s);
        gate!(self.fair[0].p99_s < 120.0);
        Ok(())
    }
}
