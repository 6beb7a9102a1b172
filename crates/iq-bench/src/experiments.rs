//! Drivers for every table and figure in the paper's evaluation (§6),
//! plus the DESIGN.md ablations. [`crate::sections::SECTIONS`] is the one
//! list of them: what `repro` can run, under which flag, and — for the
//! measured ablations, whose rows implement [`Rows`] — which
//! `BENCH_*.json` they write and which gates they must pass.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

use bytes::Bytes;
use iq_common::{
    DbSpaceId, DetRng, IqError, IqResult, NodeId, ObjectKey, PageId, PhysicalLocator, SimDuration,
    TableId, TxnId, VersionId, GIB,
};
use iq_core::{Database, DatabaseConfig, GroupCommitMode};
use iq_engine::{DataType, PageStore, Schema, TableMeta, TableWriter, Value};
use iq_objectstore::metrics::TraceBucket;
use iq_objectstore::timemodel::DeviceLoad;
use iq_objectstore::{
    cost::monthly_storage_usd, ComputeProfile, ConsistencyConfig, CostSummary, DeviceProfile,
    DeviceStats, FaultInjector, FaultPlan, IoOp, ObjectBackend, ObjectStoreSim, RetryPolicy,
    TimeModel, VolumeKind,
};
use iq_storage::{DbSpace, KeySource, Page, PageKind, StorageConfig};
use iq_txn::{Multiplex, RfRb, TxnLog};

use crate::report::{secs, usd, Report};
use crate::runner::{scale_phase, PowerRun, RunConfig, SEED};
use crate::sections::{gate, Rows};

/// The three volume runs behind Tables 2–4 and Figure 8.
pub struct VolumeSuite {
    /// S3 (with OCM), EBS, EFS runs on the big instance.
    pub runs: BTreeMap<&'static str, PowerRun>,
}

/// Execute the S3/EBS/EFS power runs (m5ad.24xlarge, as in the paper's
/// first experiment).
pub fn run_volume_suite(sf: f64) -> IqResult<VolumeSuite> {
    let mut runs = BTreeMap::new();
    for (name, volume) in [
        ("AWS S3", VolumeKind::S3),
        ("AWS EBS", VolumeKind::EbsGp2),
        ("AWS EFS", VolumeKind::Efs),
    ] {
        let cfg = RunConfig {
            volume,
            ..RunConfig::paper_default(sf)
        };
        runs.insert(name, PowerRun::execute(cfg)?);
    }
    Ok(VolumeSuite { runs })
}

/// **Table 2** — load and per-query execution times per volume.
pub fn table2(suite: &VolumeSuite) -> Report {
    let mut headers = vec!["Volume", "Load"];
    let qnames: Vec<String> = (1..=22).map(|n| format!("Q{n}")).collect();
    headers.extend(qnames.iter().map(|s| s.as_str()));
    headers.push("geomean");
    let mut r = Report::new(
        "Table 2 — load and query times (virtual seconds, projected to SF 1000)",
        &headers,
    );
    for (name, run) in &suite.runs {
        let mut cells = vec![name.to_string(), secs(run.phase_seconds(&run.load))];
        for q in &run.queries {
            cells.push(secs(run.phase_seconds(q)));
        }
        cells.push(secs(run.query_geomean()));
        r.row(cells);
    }
    r.note("paper (SF1000, wall-clock): load 2657/4294/12677 s; query geomean 23.2/52.1/119.3 s");
    r
}

/// **Table 3** — compute cost of loading and of one query sweep.
pub fn table3(suite: &VolumeSuite) -> Report {
    let mut r = Report::new(
        "Table 3 — compute cost (USD) of load and one query sweep",
        &["Volume", "Load Cost", "Query Cost"],
    );
    for (name, run) in &suite.runs {
        let load_secs = run.phase_seconds(&run.load);
        let query_secs = run.query_sweep_seconds();
        let load_ledger = run.request_cost(&[&run.load]);
        let query_refs: Vec<&_> = run.queries.iter().collect();
        let query_ledger = run.request_cost(&query_refs);
        // 80 GiB of gp2 for the system dbspaces (main + temp), as a small
        // fixed auxiliary volume.
        let load_cost = CostSummary::for_run(
            &run.config.compute,
            1,
            SimDuration::from_secs_f64(load_secs),
            &load_ledger,
            80,
        );
        let query_cost = CostSummary::for_run(
            &run.config.compute,
            1,
            SimDuration::from_secs_f64(query_secs),
            &query_ledger,
            80,
        );
        r.row(vec![
            name.to_string(),
            usd(load_cost.total()),
            usd(query_cost.total()),
        ]);
    }
    r.note("paper: load 15.18/5.04/15.39; queries 2.35/3.88/8.53 (USD)");
    r
}

/// **Table 4** — monthly data-at-rest storage cost.
pub fn table4(suite: &VolumeSuite) -> Report {
    let mut r = Report::new(
        "Table 4 — monthly data-at-rest cost (USD, projected to SF 1000)",
        &["Volume", "Resident GiB", "Monthly Cost"],
    );
    for (name, run) in &suite.runs {
        let bytes = run.resident_bytes_scaled();
        // Suite runs are always S3/EBS/EFS, so this cannot fail; skip the
        // row rather than panic if a future volume kind slips through.
        let Ok(profile) = run.volume_profile() else {
            continue;
        };
        let cost = monthly_storage_usd(&profile, bytes);
        r.row(vec![
            name.to_string(),
            format!("{}", bytes / GIB),
            usd(cost),
        ]);
    }
    r.note("paper: 12.05 / 51.80 / 155.40 USD — an order of magnitude apart");
    r
}

/// **Table 5** — OCM utilization during the query sweep. The paper
/// stresses the OCM with the m5ad.4xlarge (whose SSD barely fits the
/// working set), so this experiment runs that shape.
pub fn table5(sf: f64) -> IqResult<Report> {
    let run = PowerRun::execute(RunConfig {
        compute: ComputeProfile::m5ad_4xlarge(),
        ..RunConfig::paper_default(sf)
    })?;
    let s = run.ocm_stats;
    let scale = run.config.scale();
    let mut r = Report::new(
        "Table 5 — OCM utilization during the query sweep",
        &["", "Objects (measured)", "Objects (scaled)", "Percentage"],
    );
    let total = (s.hits + s.misses).max(1) as f64;
    let share = |n: u64| format!("{:.1}%", 100.0 * n as f64 / total);
    for (name, n, share) in [
        ("Cache Misses", s.misses, share(s.misses)),
        ("Cache Hits", s.hits, share(s.hits)),
        ("Evictions", s.evictions, String::new()),
    ] {
        let scaled = format!("{:.0}", n as f64 * scale);
        r.row(vec![name.into(), n.to_string(), scaled, share]);
    }
    r.note("paper: 962,573 misses (25.5%), 2,807,368 hits (74.5%)");
    Ok(r)
}

/// **Figure 6** — per-query times with vs without the OCM on the small
/// and the big instance.
pub fn fig6(sf: f64) -> IqResult<Report> {
    let mut r = Report::new(
        "Figure 6 — impact of the OCM on query times (virtual seconds, SF 1000)",
        &["Query", "4xl no-OCM", "4xl OCM", "24xl no-OCM", "24xl OCM"],
    );
    let mut runs = Vec::new();
    for compute in [
        ComputeProfile::m5ad_4xlarge(),
        ComputeProfile::m5ad_24xlarge(),
    ] {
        for ocm in [false, true] {
            let cfg = RunConfig {
                compute: compute.clone(),
                ocm_enabled: ocm,
                ..RunConfig::paper_default(sf)
            };
            runs.push(PowerRun::execute(cfg)?);
        }
    }
    for qi in 0..22 {
        let mut cells = vec![format!("Q{}", qi + 1)];
        for run in &runs {
            cells.push(secs(run.phase_seconds(&run.queries[qi])));
        }
        r.row(cells);
    }
    let mut cells = vec!["geomean".to_string()];
    for run in &runs {
        cells.push(secs(run.query_geomean()));
    }
    r.row(cells);
    let improvement =
        |off: &PowerRun, on: &PowerRun| 100.0 * (1.0 - on.query_geomean() / off.query_geomean());
    r.note(format!(
        "geomean improvement from the OCM: {:.1}% (4xl), {:.1}% (24xl); paper: 25.8% and 25.6%",
        improvement(&runs[0], &runs[1]),
        improvement(&runs[2], &runs[3]),
    ));
    Ok(r)
}

/// **Figure 7** — scale-up: load/query/total time vs CPUs.
pub fn fig7(sf: f64) -> IqResult<Report> {
    let mut r = Report::new(
        "Figure 7 — scale-up behaviour (virtual seconds vs CPUs, log-log in the paper)",
        &["Instance", "CPUs", "Load", "Queries", "Total"],
    );
    for compute in [
        ComputeProfile::m5ad_4xlarge(),
        ComputeProfile::m5ad_12xlarge(),
        ComputeProfile::m5ad_24xlarge(),
    ] {
        let cfg = RunConfig {
            compute: compute.clone(),
            ..RunConfig::paper_default(sf)
        };
        let run = PowerRun::execute(cfg)?;
        let load = run.phase_seconds(&run.load);
        let queries = run.query_sweep_seconds();
        r.row(vec![
            compute.name.clone(),
            compute.cpus.to_string(),
            secs(load),
            secs(queries),
            secs(load + queries),
        ]);
    }
    r.note("expect near-linear scaling with a tail-off at 96 CPUs (NIC saturation)");
    Ok(r)
}

/// **Figure 8** — network bandwidth during the load, as a time series.
///
/// The ledger buckets the dbspace's traffic by bytes moved, so the series
/// keeps its length however few and large the requests are. Each bucket's
/// share of the load time is what the S3 profile charges for it — a write
/// latency per request begun in it, plus its bytes over one stream — so a
/// stretch of many small requests reads as low bandwidth and a stretch of
/// large composites as high.
pub fn fig8(suite: &VolumeSuite) -> Report {
    let run = &suite.runs["AWS S3"];
    let load_secs = run.phase_seconds(&run.load);
    let scale = run.config.scale();
    // The user volume is the load phase's first device, the input flat
    // files its second.
    let devices = &run.load.load.devices;
    let buckets = &devices[0].snapshot.buckets;
    // Dbspace traffic shares the NIC with the input-file reads streaming
    // in beside it: spread the input over the buckets in proportion.
    let dbspace_bytes: u64 = buckets.iter().map(|b| b.bytes).sum();
    let input_bytes = devices[1].snapshot.bytes_for(&[IoOp::Get]);
    let nic_share = 1.0 + input_bytes as f64 / dbspace_bytes.max(1) as f64;
    let s3 = DeviceProfile::s3();
    let cost = |b: &TraceBucket| {
        b.requests as f64 * s3.write_latency.as_secs_f64()
            + b.bytes as f64 / s3.per_stream_bandwidth as f64
    };
    let total_cost: f64 = buckets.iter().map(cost).sum();
    let mut r = Report::new(
        "Figure 8 — network bandwidth during load (S3 dbspace traffic)",
        &["t (s)", "Gbit/s"],
    );
    // Down-sample to ~20 points for readability.
    let step = buckets.len().div_ceil(20).max(1);
    let mut t = 0.0;
    for chunk in buckets.chunks(step) {
        let bytes: u64 = chunk.iter().map(|b| b.bytes).sum();
        let secs_span = load_secs * chunk.iter().map(cost).sum::<f64>() / total_cost.max(1e-12);
        let gbps = (bytes as f64 * scale * nic_share) * 8.0 / secs_span.max(1e-9) / 1e9;
        r.row(vec![format!("{t:.0}"), format!("{:.2}", gbps.min(9.0))]);
        t += secs_span;
    }
    r.note("paper: saturates at ≈9 Gbit/s on a 20 Gbit/s NIC (intrinsic engine limit)");
    r
}

/// **Figure 9** — scale-out: 8 query streams over 2/4/8 writer nodes.
pub fn fig9(sf: f64) -> IqResult<Report> {
    // One functional run on the per-node instance shape provides the
    // per-query activity; streams are pseudo-random permutations (as in
    // TPC-H throughput mode) and nodes execute their streams serially.
    let cfg = RunConfig {
        compute: ComputeProfile::m5ad_4xlarge(),
        ..RunConfig::paper_default(sf)
    };
    let run = PowerRun::execute(cfg)?;
    let model = TimeModel::new(ComputeProfile::m5ad_4xlarge());
    let per_query: Vec<f64> = run
        .queries
        .iter()
        .map(|q| {
            model
                .phase_time(&scale_phase(&q.load, run.config.scale()))
                .as_secs_f64()
        })
        .collect();

    // Eight streams, each a seeded permutation of the 22 queries.
    let mut rng = DetRng::new(SEED);
    let streams: Vec<Vec<usize>> = (0..8)
        .map(|_| {
            let mut order: Vec<usize> = (0..22).collect();
            rng.shuffle(&mut order);
            order
        })
        .collect();

    let mut r = Report::new(
        "Figure 9 — scale-out: total time for 8 concurrent query streams",
        &["Secondary nodes", "Total (s)", "Speedup vs 2 nodes"],
    );
    let mut base = None;
    for nodes in [2usize, 4, 8] {
        // Streams balance evenly across nodes; each node runs its streams
        // serially; nodes run in parallel (S3 throughput scales with
        // nodes, so no cross-node storage contention).
        let mut node_time = vec![0.0f64; nodes];
        for (si, stream) in streams.iter().enumerate() {
            let t: f64 = stream.iter().map(|&q| per_query[q]).sum();
            node_time[si % nodes] += t;
        }
        let total = node_time.iter().cloned().fold(0.0, f64::max);
        let speedup = base.get_or_insert(total * 1.0);
        r.row(vec![
            nodes.to_string(),
            secs(total),
            format!("{:.2}x", *speedup / total),
        ]);
    }
    r.note("paper: doubling the nodes almost halves the time (S3 throughput scales with nodes)");
    Ok(r)
}

/// Cloud dbspace 1 over `backend`, at the small test geometry — what the
/// storage-level legs (no [`Database`]) write to.
fn cloud_space(backend: Arc<dyn ObjectBackend>, retry: RetryPolicy) -> DbSpace {
    let config = StorageConfig::test_small();
    DbSpace::cloud(DbSpaceId(1), "cloud", config, backend, retry)
}

/// Data page `p` at its first version, holding `body`.
fn data_page(p: u64, body: Vec<u8>) -> Page {
    Page::new(PageId(p), VersionId(1), PageKind::Data, Bytes::from(body))
}

/// The synthetic-ledger idiom: `n` requests of `op` × `bytes` against
/// `profile`, spread round-robin over `prefixes` key prefixes if given,
/// ready to be priced by [`TimeModel::device_time`].
fn synthetic_load(
    profile: DeviceProfile,
    op: IoOp,
    n: u64,
    bytes: u64,
    prefixes: Option<u64>,
) -> DeviceLoad {
    let stats = DeviceStats::new();
    for i in 0..n {
        stats.record_prefixed(op, bytes, prefixes.map(|m| (i % m) as u16));
    }
    DeviceLoad {
        profile,
        snapshot: stats.snapshot(),
        serial_read_fraction: 0.0,
    }
}

/// **Table 1** — the recovery/GC walkthrough, executed and tabulated.
pub fn table1() -> IqResult<Report> {
    table1_walkthrough(false)
}

/// The Table-1 lifecycle, optionally with the scripted fault injector
/// layered under the retry policy. The walkthrough is single-threaded end
/// to end and both the injector and the retry backoff draw from seeded
/// streams, so every run replays the same operation sequence — which is
/// what makes the traced journal ([`trace_table1`]) a usable golden file.
fn table1_walkthrough(faults: bool) -> IqResult<Report> {
    use iq_objectstore::{IoReactor, ReactorStore};
    use iq_txn::LogRecord;

    let log = Arc::new(TxnLog::new());
    let mx = Multiplex::new(Arc::clone(&log), 1, 0);
    let w1 = mx.secondary(NodeId(1)).expect("writer");
    let store = Arc::new(ObjectStoreSim::new(ConsistencyConfig::default()));
    let (fault, retry) = if faults {
        let retry = RetryPolicy {
            seed: 7,
            ..RetryPolicy::attempts(12)
        };
        (Some(FaultPlan::flaky(7, 0.08)), retry)
    } else {
        (None, RetryPolicy::default())
    };
    // The walkthrough runs on the same store stack as the full database,
    // reactor included: a single-threaded caller passes its gate in call
    // order, so the golden trace is byte-identical to the direct-call era.
    let (backend, _) = ReactorStore::stack(Arc::new(IoReactor::new()), store.clone(), fault);
    let space = cloud_space(backend, retry);

    let mut r = Report::new(
        "Table 1 — recovery and garbage collection walkthrough",
        &["Clock", "Event", "Active set(s)"],
    );
    // One row per clock tick: what happened, and the active set after it.
    let mut tick = |clock: &str, event: String| {
        let active = match mx.coordinator.keygen() {
            Ok(kg) => format!("W1: {:?}", kg.active_set(NodeId(1)).runs()),
            Err(_) => "∅ (down)".into(),
        };
        r.row(vec![clock.into(), event, active]);
    };
    mx.coordinator.checkpoint()?;
    tick("50", "Checkpoint".into());

    let cache = w1.key_cache()?;
    let flush = |n: u64| -> IqResult<(u64, u64)> {
        let mut first = u64::MAX;
        let mut last = 0;
        for i in 0..n {
            let k = KeySource::next_key(cache.as_ref())?;
            first = first.min(k.offset());
            last = last.max(k.offset());
            space.write_page_with_key(&data_page(i, vec![0u8; 32]), k)?;
        }
        Ok((first, last))
    };
    let (t1_lo, t1_hi) = flush(30)?;
    tick(
        "60/70",
        format!("Range allocated; T1 flushes keys {t1_lo}–{t1_hi}"),
    );
    let (t2_lo, t2_hi) = flush(20)?;
    tick("80", format!("T2 flushes keys {t2_lo}–{t2_hi}"));

    let mut rfrb = RfRb::new();
    for k in t1_lo..=t1_hi {
        rfrb.record_alloc(
            DbSpaceId(1),
            PhysicalLocator::Object(ObjectKey::from_offset(k)),
        );
    }
    log.append(LogRecord::Commit {
        txn: TxnId(1),
        node: NodeId(1),
        identities: Vec::new(),
        rfrb: rfrb.clone(),
    });
    mx.coordinator.keygen()?.note_commit(NodeId(1), &rfrb);
    tick("90", "T1 commits; active set trimmed".into());

    mx.coordinator.crash();
    tick("110", "Coordinator crashes".into());
    mx.coordinator.recover();
    tick("120", "Coordinator recovers (log replay)".into());

    for k in t2_lo..=t2_hi {
        space.poll_delete(ObjectKey::from_offset(k))?;
    }
    tick(
        "130",
        "T2 rolls back; objects deleted, coordinator NOT notified".into(),
    );

    w1.crash();
    tick("140", "W1 crashes".into());
    let (polled, deleted) = w1.restart(&space)?;
    tick(
        "150",
        format!("W1 restarts; coordinator polls {polled} keys, deletes {deleted}"),
    );
    r.note(format!(
        "objects surviving (committed T1 pages): {}",
        store.object_count()
    ));
    Ok(r)
}

/// Ablation — never-write-twice vs update-in-place on an eventually
/// consistent store: counts observable stale reads.
pub fn consistency() -> Report {
    let mut r = Report::new(
        "Ablation — never-write-twice vs update-in-place",
        &[
            "Policy",
            "Writes",
            "Reads",
            "Stale reads",
            "Transient NotFound",
        ],
    );
    for (name, fresh_keys) in [("update-in-place", false), ("never-write-twice", true)] {
        let store = ObjectStoreSim::new(ConsistencyConfig {
            max_visibility_ops: 16,
            delayed_fraction: 0.5,
            allow_overwrite: !fresh_keys,
            transient_put_failure: 0.0,
            seed: 7,
        });
        let mut stale = 0u64;
        let mut notfound = 0u64;
        let versions = 50u64;
        let pages = 20u64;
        for v in 0..versions {
            for p in 0..pages {
                // A fresh key per version, or the page's one key again.
                let key = ObjectKey::from_offset(if fresh_keys { v * pages + p } else { p });
                let payload = format!("page-{p}-version-{v}");
                store.put(key, Bytes::from(payload.clone())).unwrap();
                // Read-after-write, as the buffer manager would.
                match store.get(key) {
                    Ok(bytes) if bytes != payload.as_bytes() => stale += 1,
                    Ok(_) => {}
                    Err(_) => notfound += 1,
                }
            }
        }
        r.row(vec![
            name.into(),
            (versions * pages).to_string(),
            (versions * pages).to_string(),
            stale.to_string(),
            notfound.to_string(),
        ]);
    }
    r.note("stale reads are impossible under never-write-twice; NotFound is retried");
    r
}

/// Fault sweep — a flaky object store at increasing fault rates, with
/// the retry/backoff layer riding through. Reports the injected fault
/// counts, the retry/backoff ledger (charged in simulated time), and the
/// §4 outcome: exhausted budgets surface as transaction rollbacks, and
/// no key is ever written twice regardless of rate.
pub fn fault_sweep() -> Report {
    let mut r = Report::new(
        "Fault sweep — retry/backoff under a flaky store (400 pages, seed 7)",
        &[
            "Fault rate",
            "Injected errors",
            "Throttles",
            "Retries",
            "Backoff (sim s)",
            "Rollbacks",
            "Max writes/key",
        ],
    );
    let pages = 400u64;
    for rate in [0.0, 0.02, 0.05, 0.10] {
        let sim = Arc::new(ObjectStoreSim::new(ConsistencyConfig::default()));
        let inj = FaultInjector::new(sim.clone(), FaultPlan::flaky(7, rate));
        let policy = RetryPolicy {
            seed: 7,
            ..RetryPolicy::attempts(12)
        };
        let mut rollbacks = 0u64;
        for off in 0..pages {
            let key = ObjectKey::from_offset(off);
            match policy.put(&inj, key, Bytes::from(vec![0u8; 4096])) {
                Ok(()) => {
                    // Read-after-write, as the commit path would.
                    if let Err(IqError::RetriesExhausted { .. }) = policy.get(&inj, key) {
                        rollbacks += 1;
                    }
                }
                // "After a pre-determined number of failures of the same
                // page, the transaction is rolled back" (§4).
                Err(IqError::RetriesExhausted { .. }) => rollbacks += 1,
                Err(e) => panic!("unexpected non-transient fault: {e}"),
            }
        }
        let faults = inj.fault_stats();
        let snap = sim.stats_snapshot();
        r.row(vec![
            format!("{:.0}%", rate * 100.0),
            (faults.put_errors + faults.get_errors).to_string(),
            faults.throttles.to_string(),
            snap.retries.to_string(),
            format!("{:.3}", snap.backoff_nanos as f64 / 1e9),
            rollbacks.to_string(),
            sim.max_write_count().to_string(),
        ]);
    }
    r.note("faults are scripted (seeded splitmix64): every row replays byte-for-byte");
    r.note("max writes/key stays 1 — retries never violate never-write-twice");
    r
}

/// Ablation — hashed key prefixes vs a single hot prefix under S3's
/// per-prefix request-rate limits.
pub fn prefix() -> Report {
    let model = TimeModel::new(ComputeProfile::m5ad_24xlarge());
    let mut r = Report::new(
        "Ablation — hashed vs monotone key prefixes (1M PUTs of 64 KiB objects)",
        &["Prefix scheme", "Effective prefixes", "PUT phase (s)"],
    );
    for (name, prefixes) in [("monotone (1 hot prefix)", 1u64), ("hashed (spread)", 4096)] {
        let s3 = DeviceProfile::s3();
        let load = synthetic_load(s3, IoOp::Put, 1_000_000, 64 * 1024, Some(prefixes));
        let t = model.device_time(&load);
        r.row(vec![
            name.into(),
            format!("{:.0}", load.snapshot.effective_prefixes),
            secs(t.as_secs_f64()),
        ]);
    }
    r.note("the 3500 PUT/s per-prefix cap dominates the monotone scheme (§3.1)");
    r
}

/// Ablation — key-range size vs coordinator RPC count.
pub fn keyrange() -> Report {
    use iq_txn::keygen::{CachePolicy, KeyGenerator, NodeKeyCache};
    use iq_txn::RangeProvider;

    let mut r = Report::new(
        "Ablation — key-range size vs coordinator RPCs (100k keys consumed)",
        &["Initial range", "Adaptive max", "Coordinator RPCs"],
    );
    for (initial, max) in [(1u64, 1u64), (64, 64), (64, 65_536), (4_096, 65_536)] {
        let log = Arc::new(TxnLog::new());
        let kg: Arc<dyn RangeProvider> = Arc::new(KeyGenerator::new(Arc::clone(&log)));
        let cache = NodeKeyCache::new(
            NodeId(1),
            kg,
            CachePolicy {
                initial,
                min: 1,
                max,
            },
        );
        for _ in 0..100_000 {
            KeySource::next_key(&cache).unwrap();
        }
        // Every allocation appended one log record.
        r.row(vec![
            initial.to_string(),
            max.to_string(),
            log.len().to_string(),
        ]);
    }
    r.note("range allocation amortizes RPC + log traffic; adaptive growth wins (§3.2)");
    r
}

/// **Ablation** — morsel-parallel scan workers (companion to Figure 7).
///
/// One functional power run on the paper's primary configuration, then a
/// model-side sweep of the scan worker count. With `W` workers only
/// `1/W` of the demand misses sit on the scan's critical path (the pool
/// overlaps the rest), so each device's serial-read fraction divides by
/// `W` — the effective-parallelism term of the time model. The transfer,
/// IOPS and NIC floors do not move, which is what bends the curve flat at
/// high worker counts, mirroring Figure 7's NIC-bound tail.
pub fn scan_parallelism(sf: f64) -> IqResult<Report> {
    let run = PowerRun::execute(RunConfig::paper_default(sf))?;
    let model = TimeModel::new(run.config.compute.clone());
    let sweep = |workers: usize| -> f64 {
        run.queries
            .iter()
            .map(|q| {
                let mut scaled = scale_phase(&q.load, run.config.scale());
                for d in &mut scaled.devices {
                    d.serial_read_fraction /= workers as f64;
                }
                model.phase_time(&scaled).as_secs_f64()
            })
            .sum()
    };
    let mut r = Report::new(
        "Ablation — morsel-parallel scan workers (query sweep, S3 + OCM, m5ad.24xlarge)",
        &["Workers", "Queries (s)", "Speedup vs 1"],
    );
    let base = sweep(1);
    for w in [1usize, 2, 4, 8, 16, 32, 96] {
        let s = sweep(w);
        r.row(vec![
            w.to_string(),
            secs(s),
            format!("{:.2}x", base / s.max(1e-9)),
        ]);
    }
    r.note("demand-miss latency divides by the worker count; the transfer/NIC floor does not — the curve must improve monotonically and then flatten");
    Ok(r)
}

/// Calibration aid: execute the S3 power run under event tracing and fold
/// the journal into per-kind aggregates. The per-phase virtual times stay
/// as the header; the folded journal replaces the old ad-hoc per-device
/// prints, so what the run *did* (counts, bytes moved, op-clock span per
/// event kind) is read from the same instrumentation every other consumer
/// of the trace sees.
pub fn explain(sf: f64) -> IqResult<String> {
    use iq_common::trace;

    trace::enable(1 << 20);
    let run = PowerRun::execute(RunConfig::paper_default(sf));
    trace::disable();
    let events = trace::drain();
    let dropped = trace::dropped();
    let run = run?;

    let mut out = String::new();
    let model = TimeModel::new(run.config.compute.clone());
    for p in std::iter::once(&run.load).chain(&run.queries) {
        let scaled = scale_phase(&p.load, run.config.scale());
        let _ = writeln!(
            out,
            "{}: total={:.1}s cpu={:.1}s",
            p.name,
            model.phase_time(&scaled).as_secs_f64(),
            model.cpu_time(scaled.cpu_work).as_secs_f64()
        );
    }

    let _ = writeln!(
        out,
        "\nevent journal — {} events captured, {dropped} dropped:",
        events.len()
    );
    let _ = writeln!(
        out,
        "{:<18} {:>10} {:>16} {:>12} {:>12}",
        "kind", "count", "bytes", "first_t", "last_t"
    );
    for (kind, f) in trace::fold_journal(&events) {
        let _ = writeln!(
            out,
            "{kind:<18} {:>10} {:>16} {:>12} {:>12}",
            f.count, f.bytes, f.first_t, f.last_t
        );
    }
    Ok(out)
}

/// Capture the Table-1 lifecycle as a JSONL event journal (`repro
/// --trace <path>`). The walkthrough is single-threaded and every
/// timestamp comes from the virtual op-clock, so the returned text is
/// byte-for-byte identical across runs — including with `faults`, whose
/// injector and retry backoff are both seeded.
pub fn trace_table1(faults: bool) -> IqResult<String> {
    use iq_common::trace;

    trace::enable(1 << 16);
    let report = table1_walkthrough(faults);
    trace::disable();
    let journal = trace::render_jsonl(&trace::drain());
    report?;
    Ok(journal)
}

/// Ablation — OCM write-back vs write-through for churn-phase evictions.
///
/// The paper (§4): "the churn phase constitutes the longest period during
/// a transaction, and it must be optimized. For this reason, pages that
/// are evicted due to cache pressure during the churn phase, are written
/// out using the write-back mode." This ablation prices the churn phase
/// of a transaction that evicts N pages either way, in the paper's modes:
/// it is a model only. The OCM here uploads an evicted page on the thread
/// that evicts it; the virtual-time model charges that upload as
/// overlapped work, as the paper's write-back would.
pub fn ocm_mode() -> Report {
    let model = TimeModel::new(ComputeProfile::m5ad_24xlarge());
    let pages = 100_000u64;
    let page_bytes = 512 * 1024u64;
    let mut r = Report::new(
        "Ablation — churn-phase eviction mode (100k page evictions)",
        &["Mode", "Synchronous path", "Churn latency (s)"],
    );
    // Write-back: the synchronous leg is the local SSD write; the S3
    // upload happens in the background (it still completes before commit,
    // but the churn phase does not wait on it).
    let nvme = DeviceProfile::local_nvme(4);
    let wb = synthetic_load(nvme, IoOp::BlockWrite, pages, page_bytes, None);
    // Write-through: the synchronous leg is the S3 PUT.
    let s3 = DeviceProfile::s3();
    let wt = synthetic_load(s3, IoOp::Put, pages, page_bytes, Some(4096));
    let [wb, wt] = [wb, wt].map(|load| model.device_time(&load).as_secs_f64());
    r.row(vec!["write-back".into(), "local SSD".into(), secs(wb)]);
    r.row(vec!["write-through".into(), "S3 PUT".into(), secs(wt)]);
    r.note(format!(
        "write-back keeps churn {:.1}x cheaper; commit still drains uploads (FlushForCommit)",
        wt / wb.max(1e-9)
    ));
    r
}

/// A fresh database under `cfg` with one cloud dbspace and tables
/// `1..=tables` on it — where every database-level leg starts.
pub fn cloud_db(cfg: DatabaseConfig, tables: u32) -> IqResult<(Database, DbSpaceId)> {
    let db = Database::create(cfg)?;
    let space = db.create_cloud_dbspace("cloud")?;
    for t in 1..=tables {
        db.create_table(TableId(t), space)?;
    }
    Ok((db, space))
}

/// Begin a transaction and dirty `pages` (page number, body) of `table`
/// in it as data pages; the caller commits.
pub fn write_pages(
    db: &Database,
    table: TableId,
    pages: impl IntoIterator<Item = (u64, Bytes)>,
) -> IqResult<TxnId> {
    let txn = db.begin();
    let pager = db.pager(txn)?;
    for (p, body) in pages {
        pager.write_page(table, PageId(p), PageKind::Data, body, txn)?;
    }
    Ok(txn)
}

/// Load rows `0..n` of `row` into `meta`'s table in one committed
/// transaction and let the OCM's background uploads drain.
fn load_rows(
    db: &Database,
    meta: &mut TableMeta,
    n: i64,
    row: impl Fn(i64) -> Vec<Value>,
) -> IqResult<()> {
    let txn = db.begin();
    {
        let pager = db.pager(txn)?;
        let mut w = TableWriter::new(meta, &pager, txn, db.meter());
        for i in 0..n {
            w.append_row(&row(i))?;
        }
        w.finish()?;
    }
    db.commit(txn)?;
    Ok(())
}

/// Machine-readable metrics export behind `repro --metrics`: run a small
/// end-to-end lifecycle (load, commit, cold scan, GC) and return the
/// unified [`iq_common::MetricsRegistry`] snapshot as one JSON object.
/// `faults` layers the scripted injector under the cloud dbspace so the
/// retry/backoff counters are exercised too.
pub fn metrics_export(sf: f64, faults: bool) -> IqResult<String> {
    let mut cfg = DatabaseConfig::test_small();
    // Pack the commit flush so the `pack.*` source reports a live
    // lifecycle (composites written, ranged member GETs) rather than
    // zeros.
    cfg.pack_pages = 4;
    if faults {
        cfg.fault = Some(FaultPlan::flaky(7, 0.05));
        cfg.retry = RetryPolicy {
            seed: 7,
            ..RetryPolicy::attempts(12)
        };
    }
    let (db, _) = cloud_db(cfg, 1)?;

    let rows = ((sf * 100_000.0) as i64).clamp(200, 20_000);
    let mut meta = TableMeta::new(
        TableId(1),
        "m",
        Schema::new(&[("k", DataType::I64), ("v", DataType::Str)]),
        64,
    );
    load_rows(&db, &mut meta, rows, |i| {
        vec![Value::I64(i), Value::Str(format!("r{i}").into())]
    })?;

    // Cold scan so the buffer and OCM counters see demand loads, not just
    // the load-phase writes.
    db.shared().buffer.clear();
    let rtxn = db.begin();
    let pager = db.pager(rtxn)?;
    let out = meta.scan(&pager, &[0, 1], None, db.meter())?;
    assert_eq!(out.len(), rows as usize);
    db.rollback(rtxn)?;
    db.gc_drain()?;
    Ok(db.metrics_json())
}

/// One measured mode of the GC batching ablation (`repro --gc`).
#[derive(serde::Serialize)]
pub struct GcBatchingMeasure {
    /// Row label.
    pub label: &'static str,
    /// GC worker-pool width.
    pub workers: usize,
    /// Pages freed and reclaimed.
    pub keys: u64,
    /// Simulated store delete requests the GC issued.
    pub delete_requests: u64,
    /// Peak delete batches in flight across the pass (submission depth).
    pub in_flight_peak: u64,
    /// Virtual wall of the deletion work under the S3 time model.
    pub wall_secs: f64,
}

/// Keys per multi-object delete batch (`iq-txn`'s `GC_BATCH_KEYS`, S3's
/// `DeleteObjects` limit).
const GC_BATCH_KEYS: u64 = 1000;

/// Ablation — per-key vs batched vs batched+parallel GC deletion. Drive
/// the committed-chain GC over a real simulated cloud dbspace with batched
/// multi-object deletes, on one worker and fanned over the worker pool.
/// The request counts come from the simulated store's ledger; the wall
/// prices those requests under the S3 device model, so the batching win
/// shows up in both columns. The per-key baseline is a count of the same
/// run: one `DELETE` per reclaimed key, priced the same way.
pub(crate) fn gc_rows(sf: f64) -> IqResult<Vec<GcBatchingMeasure>> {
    use iq_storage::CountingKeySource;
    use iq_txn::{ImmediateDeletion, TransactionManager};

    const SPACE: DbSpaceId = DbSpaceId(1);
    // Table-2-scale churn: the freed-page count tracks the scale factor.
    let keys_total = ((sf * 500_000.0) as u64).clamp(2_000, 20_000);
    let txns = 20u64;
    let per_txn = keys_total / txns;

    let model = TimeModel::new(ComputeProfile::m5ad_24xlarge());
    // Price `requests` DELETEs under the S3 model.
    let wall_secs = |requests: u64| {
        let deletes = synthetic_load(DeviceProfile::s3(), IoOp::Delete, requests, 0, Some(4096));
        model.device_time(&deletes).as_secs_f64()
    };
    let mut out = Vec::new();
    for (label, workers) in [("batched", 1usize), ("batched + parallel", 8)] {
        let sim = Arc::new(ObjectStoreSim::new(ConsistencyConfig::default()));
        let space = Arc::new(cloud_space(sim.clone(), RetryPolicy::default()));
        let tm = TransactionManager::new(Arc::new(TxnLog::new()), None);
        tm.set_gc_workers(workers);
        let sink = ImmediateDeletion::new();
        sink.register(Arc::clone(&space));

        // Load: K committed pages, then churn transactions free them all
        // behind a long reader so the chain accumulates.
        let keysrc = CountingKeySource::default();
        let mut locs = Vec::with_capacity(keys_total as usize);
        for i in 0..keys_total {
            locs.push(space.write_page(&data_page(i, vec![0x5a; 64]), &keysrc)?);
        }
        let blocker = tm.begin(NodeId(9));
        for c in locs.chunks(per_txn.max(1) as usize) {
            let t = tm.begin(NodeId(1));
            for &loc in c {
                tm.record_free(t, SPACE, loc)?;
            }
            tm.commit(t, Vec::new())?;
        }
        tm.rollback(blocker, &sink)?;

        // The measured region: one drain pass over the whole chain.
        let before = sim.stats.snapshot().op(IoOp::Delete).count;
        tm.gc_tick(&sink, usize::MAX)?;
        let delete_requests = sim.stats.snapshot().op(IoOp::Delete).count - before;
        let gc = tm.gc_stats();
        assert_eq!(gc.keys_deleted, keys_total, "every freed page reclaimed");
        if out.is_empty() {
            // The per-key baseline: one DELETE per reclaimed key, through
            // the same single-worker pass.
            out.push(GcBatchingMeasure {
                label: "per-key (old path)",
                workers,
                keys: keys_total,
                delete_requests: gc.keys_deleted,
                in_flight_peak: gc.in_flight_peak,
                wall_secs: wall_secs(gc.keys_deleted),
            });
        }
        out.push(GcBatchingMeasure {
            label,
            workers,
            keys: keys_total,
            delete_requests,
            in_flight_peak: gc.in_flight_peak,
            wall_secs: wall_secs(delete_requests),
        });
    }
    Ok(out)
}

impl Rows for Vec<GcBatchingMeasure> {
    fn report(&self) -> Report {
        let (per_key, parallel) = (&self[0], &self[self.len() - 1]);
        let mut r = Report::from_columns(
            format!(
                "Ablation — batched multi-object GC deletion ({} freed pages)",
                per_key.keys
            ),
            self,
            &[
                ("Mode", &|m| m.label.to_string()),
                ("Workers", &|m| m.workers.to_string()),
                ("Delete requests", &|m| m.delete_requests.to_string()),
                ("In-flight peak", &|m| m.in_flight_peak.to_string()),
                ("GC wall (s)", &|m| secs(m.wall_secs)),
                ("vs per-key", &|m| {
                    format!("{:.1}x", per_key.wall_secs / m.wall_secs.max(1e-9))
                }),
            ],
        );
        r.note(format!(
            "multi-object delete (≤1000 keys/request) cuts {} per-key requests to {} — {:.0}x fewer; \
             the wall is request-bound, so it falls with the request count",
            per_key.delete_requests,
            parallel.delete_requests,
            per_key.delete_requests as f64 / parallel.delete_requests.max(1) as f64,
        ));
        r
    }

    /// Batched + parallel GC must issue at least 10x fewer simulated delete
    /// requests than the per-key baseline and finish in less virtual time.
    fn gates(&self) -> Result<(), String> {
        gate!(self.len() == 3);
        let (per_key, parallel) = (&self[0], &self[2]);
        gate!(per_key.keys == parallel.keys);
        gate!(per_key.delete_requests == per_key.keys);
        gate!(per_key.delete_requests >= 10 * parallel.delete_requests);
        gate!(parallel.wall_secs < per_key.wall_secs);
        // The drain is one pass, and a pass submits all its batches at
        // once whatever the worker count.
        for m in self {
            gate!(m.in_flight_peak == m.keys.div_ceil(GC_BATCH_KEYS), m.label);
        }
        Ok(())
    }
}

/// One measured configuration of the buffer-cache ablation (`repro
/// --cache`).
#[derive(serde::Serialize)]
pub struct CacheMeasure {
    /// Row label.
    pub label: &'static str,
    /// Buffer-manager shard count.
    pub shards: usize,
    /// Protected SLRU fraction (0 = plain LRU, the old policy).
    pub protected_fraction: f64,
    /// Hot-set hit rate during the steady phase, before the scan.
    pub steady_hit_rate: f64,
    /// Hot-set hit rate immediately after a cold scan of ~4× capacity.
    pub post_scan_hit_rate: f64,
    /// Cache operations in the scan phase (modeled-wall input).
    pub scan_ops: u64,
    /// Scan-phase operations landing on the busiest shard.
    pub max_shard_ops: u64,
    /// Modeled scan-phase wall at 8 workers (see `modeled_cache_wall`).
    pub modeled_wall_secs: f64,
}

/// Deterministic lock-contention model for the scan phase, mirroring the
/// synthetic-ledger idiom of `ocm_mode`: every cache operation
/// holds its shard lock for `T_LOCK` and costs `T_CPU` off-lock, spread
/// over 8 workers. The wall is whichever bottleneck binds — aggregate
/// CPU, aggregate critical section over `min(workers, shards)` locks, or
/// the single busiest shard (Amdahl floor for a skewed key split).
fn modeled_cache_wall(ops: u64, max_shard_ops: u64, shards: usize) -> f64 {
    const T_LOCK_NANOS: f64 = 400.0;
    const T_CPU_NANOS: f64 = 250.0;
    const WORKERS: f64 = 8.0;
    let ops = ops as f64;
    let cpu = ops * T_CPU_NANOS / WORKERS;
    let lock = ops * T_LOCK_NANOS / WORKERS.min(shards as f64);
    let hot_shard = max_shard_ops as f64 * T_LOCK_NANOS;
    cpu.max(lock).max(hot_shard) * 1e-9
}

/// Ablation — sharded, scan-resistant buffer cache. Drive one synthetic
/// trace — warm a hot set, run a steady point-read phase, cold-scan ~4×
/// the cache capacity, then re-read the hot set — through four
/// buffer-manager geometries: {1, 8} shards × {LRU, SLRU}, so the
/// sharding win and the scan-resistance win each show up in their own
/// column.
///
/// Hit rates come from the manager's own epoch counters, so the numbers
/// are exactly what `repro --metrics` reports for a real run; the scan
/// wall is priced with [`modeled_cache_wall`] from the deterministic
/// per-shard operation counts (`BufferManager::shard_of` is a pure
/// function of the key), so two runs serialize identically. The measured
/// hit-path wall lives in `bench/` (`buffer.hit_ns`).
pub(crate) fn cache_rows(sf: f64) -> IqResult<Vec<CacheMeasure>> {
    use iq_buffer::{BufferManager, BufferOptions, FlushCause, FlushSink, FrameKey};

    struct NoFlush;
    impl FlushSink for NoFlush {
        fn flush(&self, _: FrameKey, _: &Page, _: TxnId, _: FlushCause) -> IqResult<()> {
            Ok(())
        }
    }

    const PAGE_BODY: usize = 4096;
    let capacity_pages = 256usize;
    let hot_pages = 64u64;
    let steady_rounds = 8u64;
    // Scan length tracks the scale factor; the floor keeps even the CI
    // smoke run at ~4× capacity so the scan always overwhelms plain LRU.
    let scan_pages = ((sf * 500_000.0) as u64).clamp(1_024, 16_384);

    let key = |page: u64| FrameKey {
        table: TableId(1),
        page: PageId(page),
        epoch: 0,
    };

    let mut out = Vec::new();
    for (label, shards, protected_fraction) in [
        ("1 shard, LRU (old path)", 1usize, 0.0f64),
        ("1 shard, SLRU", 1, 0.8),
        ("8 shards, LRU", 8, 0.0),
        ("8 shards, SLRU (new path)", 8, 0.8),
    ] {
        let mgr = BufferManager::with_options(
            capacity_pages * (PAGE_BODY + 128),
            BufferOptions {
                shards,
                protected_fraction,
            },
        );
        // One read of `page`, loading it on a miss; a scan read is a
        // non-demand load, as a scan's later groups are. Every load
        // enters probation, and scan pages are never read again.
        let read = |page: u64, demand: bool| {
            let load = || Ok(data_page(page, vec![0x6b; PAGE_BODY]));
            mgr.get_or_load(key(page), demand, &NoFlush, load)
        };

        // Warm: demand-load the hot set, then re-read it once so SLRU
        // promotes it into the protected segment.
        for p in (0..hot_pages).chain(0..hot_pages) {
            read(p, true)?;
        }

        // Steady phase: repeated point reads of the hot set.
        mgr.stats.begin_epoch();
        for _ in 0..steady_rounds {
            for p in 0..hot_pages {
                read(p, true)?;
            }
        }
        let steady = mgr.stats.snapshot();
        let steady_hit_rate =
            steady.hits as f64 / (steady.hits + steady.demand_misses).max(1) as f64;

        // Cold scan: ~4× capacity of never-again pages.
        let mut scan_ops = 0u64;
        let mut shard_ops = vec![0u64; mgr.shard_count()];
        for p in 0..scan_pages {
            scan_ops += 1;
            shard_ops[mgr.shard_of(&key(1 << 32 | p))] += 1;
            read(1 << 32 | p, false)?;
        }
        let max_shard_ops = shard_ops.iter().copied().max().unwrap_or(0);

        // Post-scan: is the hot set still resident?
        mgr.stats.begin_epoch();
        for p in 0..hot_pages {
            read(p, true)?;
        }
        let post = mgr.stats.snapshot();
        let post_scan_hit_rate = post.hits as f64 / (post.hits + post.demand_misses).max(1) as f64;

        out.push(CacheMeasure {
            label,
            shards,
            protected_fraction,
            steady_hit_rate,
            post_scan_hit_rate,
            scan_ops,
            max_shard_ops,
            modeled_wall_secs: modeled_cache_wall(scan_ops, max_shard_ops, shards),
        });
    }
    Ok(out)
}

impl Rows for Vec<CacheMeasure> {
    fn report(&self) -> Report {
        let base = &self[0];
        let mut r = Report::from_columns(
            format!(
                "Ablation — sharded scan-resistant buffer cache ({}-page cold scan, 8 workers)",
                base.scan_ops
            ),
            self,
            &[
                ("Config", &|m| m.label.to_string()),
                ("Steady hot hits", &|m| {
                    format!("{:.0}%", m.steady_hit_rate * 100.0)
                }),
                ("Post-scan hot hits", &|m| {
                    format!("{:.0}%", m.post_scan_hit_rate * 100.0)
                }),
                ("Scan wall modeled (ms)", &|m| {
                    format!("{:.3}", m.modeled_wall_secs * 1e3)
                }),
                ("vs 1-shard LRU", &|m| {
                    let speedup = base.modeled_wall_secs / m.modeled_wall_secs.max(1e-12);
                    format!("{speedup:.1}x")
                }),
            ],
        );
        r.note(
            "sharding divides the lock bottleneck by min(workers, shards); the SLRU's protected \
             segment keeps the promoted hot set resident through a cold scan that flushes plain LRU \
             to 0%",
        );
        r
    }

    /// Under the deterministic lock model the sharded SLRU cache must
    /// finish the scan phase at least 1.5x faster than the single-lock LRU
    /// baseline, and a cold full-table scan must not regress the hot set's
    /// hit rate under SLRU while plain LRU demonstrably collapses on the
    /// same trace.
    fn gates(&self) -> Result<(), String> {
        gate!(self.len() == 4);
        let (base, lru, slru) = (&self[0], &self[2], &self[3]);
        gate!(base.shards == 1 && lru.shards == 8 && slru.shards == 8);
        gate!(base.modeled_wall_secs >= 1.5 * slru.modeled_wall_secs);
        // The hot set fits, so steady is 100% and the scan must not
        // displace the protected segment.
        gate!(slru.steady_hit_rate == 1.0);
        gate!(slru.post_scan_hit_rate >= slru.steady_hit_rate);
        gate!(lru.post_scan_hit_rate < 0.5);
        gate!(slru.post_scan_hit_rate > lru.post_scan_hit_rate);
        Ok(())
    }
}

/// One measured configuration of the page-packing ablation (`repro
/// --pack`).
#[derive(serde::Serialize)]
pub struct PackMeasure {
    /// Row label.
    pub label: &'static str,
    /// Commit-flush packing factor (`DatabaseConfig::pack_pages`).
    pub pack_pages: usize,
    /// Data pages written by the load commit.
    pub pages: u64,
    /// Dirty pages the load evicted before its commit (only the
    /// eviction-bound leg's buffer is smaller than the load).
    pub evicted: u64,
    /// Simulated-store PUT requests issued by the load, evictions and
    /// commit (data pages + blockmap nodes).
    pub load_puts: u64,
    /// GET-class requests for the cold full read-back after the load.
    pub cold_gets: u64,
    /// Composite objects written across the lifecycle.
    pub objects_written: u64,
    /// Compaction rounds driven to a commit.
    pub compactions: u64,
    /// Live members rewritten into fresh composites by compaction.
    pub compaction_rewritten: u64,
    /// Fully-dead composites the GC reclaimed.
    pub composites_reclaimed: u64,
    /// PUT requests across the whole lifecycle.
    pub total_puts: u64,
    /// GET-class requests across the whole lifecycle.
    pub total_gets: u64,
    /// Modeled S3 request charges for the whole lifecycle (USD).
    pub request_usd: f64,
    /// FNV-1a over every byte served by the two cold read-backs — must
    /// be identical across every packing geometry.
    pub checksum: u64,
    /// OCM hits of a last read-back with only the buffer dropped.
    pub ocm_hits: u64,
    /// GET-class store requests of that read-back: zero when the OCM
    /// holds every page, whole object or composite member.
    pub store_gets: u64,
}

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

/// One full packed lifecycle on the simulated cloud store: load `pages`
/// pages in one commit, cold-read everything back, overwrite every other
/// page (leaving each composite half dead), GC, compact, GC again, and
/// cold-read everything back once more — asserting byte-exact contents
/// throughout — then read everything once more with only the buffer
/// dropped. Request counts come from the store's own ledger.
///
/// With `evict`, the buffer holds a quarter of the load, so most of it
/// leaves in eviction groups written back through an OCM that holds every
/// page; otherwise the OCM is off.
fn pack_lifecycle(
    pages: u64,
    pack_pages: usize,
    label: &'static str,
    evict: bool,
) -> IqResult<PackMeasure> {
    use iq_objectstore::{CostLedger, IoOp};
    use std::sync::atomic::Ordering;

    let mut cfg = DatabaseConfig::test_small();
    // Table-1 geometry: a wide blockmap so node flushes stay a small
    // constant against the data-page PUTs; OCM off so every request in
    // the ledger is the flush/read path itself; retention off so frees
    // reach the GC directly.
    cfg.blockmap_fanout = 128;
    cfg.ocm_bytes = 0;
    cfg.retention = None;
    cfg.pack_pages = pack_pages;
    if evict {
        // A 1 KiB body costs its frame 1 152 bytes.
        cfg.buffer_bytes = (pages * 1_152 / 4) as usize;
        cfg.ocm_bytes = 4 * pages * u64::from(cfg.storage.page_size);
    }
    let (db, space) = cloud_db(cfg, 1)?;
    let table = TableId(1);
    let store = db.cloud_store(space).expect("cloud dbspace is simulated");

    let body = |p: u64, v: u64| -> Bytes {
        let mut buf = vec![0u8; 1024];
        for (i, b) in buf.iter_mut().enumerate() {
            *b = (p.wrapping_mul(31) ^ v.wrapping_mul(131) ^ i as u64) as u8;
        }
        Bytes::from(buf)
    };
    // Cold read-back of every page against the version it must hold,
    // summed into `checksum` unless it repeats one already summed.
    let mut checksum = 0xcbf2_9ce4_8422_2325u64;
    let mut read_back = |version: &dyn Fn(u64) -> u64, when: &str, sum: bool| -> IqResult<()> {
        db.shared().buffer.clear();
        let rtxn = db.begin();
        {
            let pager = db.pager(rtxn)?;
            for p in 0..pages {
                let page = pager.read_page(table, PageId(p), true)?;
                assert_eq!(
                    page.body,
                    body(p, version(p)),
                    "{label}: page {p} after {when}"
                );
                if sum {
                    fnv1a(&mut checksum, &page.body);
                }
            }
        }
        db.rollback(rtxn)
    };

    // Load: one transaction, `pages` dirty pages, one commit flush.
    db.commit(write_pages(
        &db,
        table,
        (0..pages).map(|p| (p, body(p, 1))),
    )?)?;
    let load_puts = store.stats.snapshot().op(IoOp::Put).count;
    let evicted = db
        .shared()
        .buffer
        .stats
        .dirty_evictions
        .load(Ordering::Relaxed);

    let gets_before = store.stats.snapshot().op(IoOp::Get).count;
    read_back(&|_| 1, "load", true)?;
    let cold_gets = store.stats.snapshot().op(IoOp::Get).count - gets_before;

    // Churn: overwrite every other page, leaving every load composite
    // exactly half live — the compaction candidate shape.
    db.commit(write_pages(
        &db,
        table,
        (0..pages).step_by(2).map(|p| (p, body(p, 2))),
    )?)?;
    db.gc_drain()?;
    db.compact_tick(0.6, 10_000)?;
    db.gc_drain()?;

    // The overwrites and the compaction rewrites must both serve the
    // exact bytes that were committed.
    let compacted = |p: u64| if p.is_multiple_of(2) { 2 } else { 1 };
    read_back(&compacted, "compaction", true)?;

    let snap = store.stats.snapshot();
    // A re-read with only the buffer dropped: an OCM that caches members
    // serves all of it.
    let ocm = db.ocm();
    let hits = || ocm.as_ref().map_or(0, |o| o.stats_snapshot().hits);
    let hits_before = hits();
    read_back(&compacted, "a warm re-read", false)?;
    let warm = store.stats.snapshot();
    let mut ledger = CostLedger::default();
    ledger.charge_requests(&DeviceProfile::s3(), &snap);
    let ps = &db.shared().pack_stats;
    let cs = db.shared().txns.composites().stats();
    Ok(PackMeasure {
        label,
        pack_pages,
        pages,
        evicted,
        load_puts,
        cold_gets,
        objects_written: ps.objects_written.load(Ordering::Relaxed),
        compactions: ps.compactions.load(Ordering::Relaxed),
        compaction_rewritten: ps.compaction_rewritten.load(Ordering::Relaxed),
        composites_reclaimed: cs.reclaimed,
        total_puts: snap.op(IoOp::Put).count,
        total_gets: snap.count_for(&[IoOp::Get, IoOp::GetMiss, IoOp::Head]),
        request_usd: ledger.request_usd(),
        checksum,
        ocm_hits: hits() - hits_before,
        store_gets: warm.count_for(&[IoOp::Get, IoOp::GetMiss, IoOp::Head])
            - snap.count_for(&[IoOp::Get, IoOp::GetMiss, IoOp::Head]),
    })
}

/// Ablation — commit-flush page packing: composite objects, ranged GETs
/// and compaction. One PUT per ~`pack_pages` dirty pages instead of one
/// per page, across the pack-size sweep {1, 4, 16, 64}; request counts and
/// the modeled request bill come straight from the simulated store's
/// ledger. Members are read by ranged GET, the only read path, so nothing
/// is over-read.
pub(crate) fn pack_rows(sf: f64) -> IqResult<Vec<PackMeasure>> {
    // Page count tracks the scale factor; the floor keeps even the CI
    // smoke at 512 pages (= 4 blockmap leaves at fanout 128), the shape
    // the >=10x PUT claim is pinned against.
    let pages = (((sf * 50_000.0) as u64).clamp(512, 4096) / 2) * 2;
    [
        ("pack=1 (per-page baseline)", 1usize, false),
        ("pack=4", 4, false),
        ("pack=16 (default)", 16, false),
        ("pack=64", 64, false),
        ("pack=16, load > buffer, OCM on", 16, true),
    ]
    .into_iter()
    .map(|(label, pack, evict)| pack_lifecycle(pages, pack, label, evict))
    .collect()
}

impl Rows for Vec<PackMeasure> {
    fn report(&self) -> Report {
        let (base, packed) = (&self[0], &self[2]);
        let mut r = Report::from_columns(
            format!(
                "Ablation — commit-flush page packing ({}-page load, half overwritten, compacted)",
                base.pages
            ),
            self,
            &[
                ("Config", &|m| m.label.to_string()),
                ("Evicted", &|m| m.evicted.to_string()),
                ("Load PUTs", &|m| m.load_puts.to_string()),
                ("vs pack=1", &|m| {
                    format!("{:.1}x", base.load_puts as f64 / m.load_puts.max(1) as f64)
                }),
                ("Cold GETs", &|m| m.cold_gets.to_string()),
                ("Composites", &|m| m.objects_written.to_string()),
                ("Compactions", &|m| m.compactions.to_string()),
                ("Reclaimed", &|m| m.composites_reclaimed.to_string()),
                ("Request $", &|m| format!("{:.6}", m.request_usd)),
                ("Warm OCM hits", &|m| m.ocm_hits.to_string()),
                ("Warm GETs", &|m| m.store_gets.to_string()),
            ],
        );
        let evict = &self[4];
        r.note(format!(
            "packing {} dirty pages per composite cuts the load's {} PUTs to {} ({:.0}x fewer); \
             a ranged GET reads each member, one page of bytes, so cold GETs do not move; \
             half-dead composites are rewritten by compaction and reclaimed only when every \
             member is dead",
            packed.pack_pages,
            base.load_puts,
            packed.load_puts,
            base.load_puts as f64 / packed.load_puts.max(1) as f64,
        ));
        r.note(format!(
            "with a quarter of the load buffered, {} pages leave in eviction groups of up to {} \
             and the load still costs {} PUTs; the OCM caches every member, so a re-read with \
             the buffer dropped sends {} GETs to the store",
            evict.evicted, evict.pack_pages, evict.load_puts, evict.store_gets,
        ));
        r
    }

    /// The packed commit flush must issue at least 10x fewer PUTs than the
    /// per-page baseline while serving byte-identical pages, and
    /// `pack_pages = 1` must reproduce the per-page path exactly. A load
    /// that does not fit the buffer packs as tightly, and the OCM then
    /// serves every page.
    fn gates(&self) -> Result<(), String> {
        gate!(self.len() == 5);
        let (base, packed) = (&self[0], &self[2]);
        gate!(base.pack_pages == 1 && packed.pack_pages == 16);
        for m in &self[1..] {
            gate!(m.checksum == base.checksum, m.label);
        }
        // pack=1 is exactly the old path: one PUT per data page plus the
        // blockmap-node flushes, and zero composites.
        gate!(base.load_puts >= base.pages);
        gate!(base.objects_written == 0 && base.compactions == 0);
        gate!(base.load_puts >= 10 * packed.load_puts);
        // ~pages/16 composites across load + churn.
        gate!(packed.objects_written >= packed.pages / 16);
        // One ranged GET per member read, whatever the pack size.
        gate!(packed.cold_gets == base.cold_gets);
        // Compaction ran and the GC reclaimed the half-dead composites.
        gate!(packed.compactions > 0 && packed.composites_reclaimed > 0);
        // The modeled request bill falls with the PUT count.
        gate!(packed.request_usd < base.request_usd);
        // Without an OCM every re-read page is a store GET.
        gate!(self[..4]
            .iter()
            .all(|m| m.ocm_hits == 0 && m.store_gets == m.pages));
        // Eviction-bound: most of the load leaves in eviction groups, one
        // PUT per 16 pages; the commit's last composite carries the
        // cascade, and the pages left buffered may take one group more.
        let evict = &self[4];
        gate!(evict.pack_pages == 16 && evict.evicted >= evict.pages / 2);
        gate!(evict.load_puts <= evict.pages.div_ceil(16) + 1);
        // The OCM-warm re-read never reaches the store.
        gate!(evict.store_gets == 0 && evict.ocm_hits == evict.pages);
        Ok(())
    }
}

/// One measured configuration of the group-commit ablation (`repro
/// --group-commit`).
#[derive(serde::Serialize)]
pub struct GroupCommitMeasure {
    /// Row label.
    pub label: &'static str,
    /// Concurrent committer threads.
    pub threads: usize,
    /// Barrier-synchronized commit rounds per thread.
    pub rounds: u64,
    /// Total transactions committed (`threads * rounds`).
    pub commits: u64,
    /// Log records handed to the durable-log sink — the PUTs one upload
    /// per record would cost.
    pub log_appends: u64,
    /// PUT requests the durable log issued against its store.
    pub log_puts: u64,
    /// Commit records whose PUT was absorbed into another append's batch.
    pub coalesced_records: u64,
    /// Gathered batches of size > 1.
    pub gathered_batches: u64,
    /// Largest batch uploaded by a single leader PUT.
    pub max_batch: u64,
}

/// One leg of the group-commit ablation: `threads` committers, each
/// running `rounds` barrier-synchronized commit rounds against its own
/// table, with the transaction log mirrored to a [`iq_core::DurableLog`].
fn group_commit_leg(
    threads: usize,
    rounds: u64,
    label: &'static str,
) -> IqResult<GroupCommitMeasure> {
    use std::sync::Barrier;

    let mut cfg = DatabaseConfig::test_small();
    cfg.group_commit = GroupCommitMode::Coalesced;
    let (db, _) = cloud_db(cfg, threads as u32)?;

    // Every round, all committers arrive at a barrier and then commit
    // together — the contended window the gather exists for. Each thread
    // owns its table so the only shared resource is the log itself.
    let gate = Barrier::new(threads);
    std::thread::scope(|s| {
        for t in 0..threads {
            let db = &db;
            let gate = &gate;
            s.spawn(move || {
                let table = TableId(t as u32 + 1);
                for round in 0..rounds {
                    let pages = (0..2).map(|p| (round * 2 + p, Bytes::from(vec![t as u8; 512])));
                    let txn = write_pages(db, table, pages).expect("write pages");
                    // Register with the gather *before* the barrier so
                    // the round's leader provably holds its batch open
                    // for all committers, however the OS schedules the
                    // threads (commit's own `enter_commit` nests as a
                    // no-op). Without this a committer descheduled
                    // between barrier and registration splits the batch.
                    let window = db.durable_log().map(|dl| dl.enter_commit());
                    gate.wait();
                    db.commit(txn).expect("commit");
                    drop(window);
                }
            });
        }
    });

    let stats = db
        .durable_log()
        .expect("group commit wires the log")
        .stats();
    Ok(GroupCommitMeasure {
        label,
        threads,
        rounds,
        commits: threads as u64 * rounds,
        log_appends: stats.appends,
        log_puts: stats.puts,
        coalesced_records: stats.coalesced_records,
        gathered_batches: stats.gathered_batches,
        max_batch: stats.max_batch,
    })
}

/// Ablation — group commit: coalescing concurrent transaction-log
/// appends into one PUT through the submission/completion core's gather,
/// across a committer-count sweep. The baseline, one PUT per record, is
/// the log's own append count. The first payoff of the PR-7 reactor: log
/// durability cost scales with commit *rounds*, not committer count.
pub(crate) fn group_commit_rows(sf: f64) -> IqResult<Vec<GroupCommitMeasure>> {
    // Round count tracks the scale factor; the floor keeps even the CI
    // smoke at 8 contended rounds per leg.
    let rounds = ((sf * 800.0) as u64).clamp(8, 64);
    [
        (1usize, "coalesced, 1 committer"),
        (4, "coalesced, 4 committers"),
        (8, "coalesced, 8 committers"),
    ]
    .into_iter()
    .map(|(threads, label)| group_commit_leg(threads, rounds, label))
    .collect()
}

impl Rows for Vec<GroupCommitMeasure> {
    fn report(&self) -> Report {
        let mut r = Report::from_columns(
            "Ablation — group commit (coalesced transaction-log appends)",
            self,
            &[
                ("Config", &|m| m.label.to_string()),
                ("Commits", &|m| m.commits.to_string()),
                ("Log appends", &|m| m.log_appends.to_string()),
                ("Log PUTs", &|m| m.log_puts.to_string()),
                ("vs per-append", &|m| {
                    format!("{:.1}x", m.log_appends as f64 / m.log_puts.max(1) as f64)
                }),
                ("Batches", &|m| m.gathered_batches.to_string()),
                ("Max batch", &|m| m.max_batch.to_string()),
                ("Coalesced", &|m| m.coalesced_records.to_string()),
            ],
        );
        let gc = &self[2];
        r.note(format!(
            "a commit's log append registers with the gather before flushing, so every \
             committer that reaches the log while a leader PUT is pending rides that PUT \
             for free; with 8 barrier-synchronized committers the {} appends, one PUT each \
             without the gather, cost {} PUTs ({:.1}x fewer) while a single committer pays \
             one PUT per append exactly",
            gc.log_appends,
            gc.log_puts,
            gc.log_appends as f64 / gc.log_puts.max(1) as f64,
        ));
        r
    }

    /// Every append is a PUT or a rider of one; a lone committer pays a
    /// PUT per append, and at the highest concurrency the gather must save
    /// at least half the PUTs one per append would cost (a leader PUT
    /// covering >= 2 commits on average across the barrier-synchronized
    /// rounds).
    fn gates(&self) -> Result<(), String> {
        gate!(self.len() == 3);
        let (one, gc) = (&self[0], &self[2]);
        gate!(one.threads == 1 && gc.threads == 8);
        gate!(one.log_puts == one.log_appends);
        gate!(gc.log_appends >= 2 * gc.log_puts);
        for m in self {
            gate!(m.log_appends == m.log_puts + m.coalesced_records, m.label);
            gate!(m.log_appends >= m.commits, m.label);
        }
        Ok(())
    }
}

/// One measured leg of the durable-log recovery drill (`repro
/// --recovery`).
#[derive(serde::Serialize)]
pub struct RecoveryMeasure {
    /// Row label.
    pub label: &'static str,
    /// Transactions committed durably before any fault.
    pub durable_commits: u64,
    /// Commits attempted after the log store was cut — every one must
    /// surface the PUT failure as a commit error.
    pub failed_commits: u64,
    /// Log PUTs that exhausted the retry budget (counted once each).
    pub put_failures: u64,
    /// GETs replaying the log keyspace at reopen.
    pub recovery_gets: u64,
    /// Records reconstructed from the durable stream.
    pub replayed_records: u64,
    /// Phantom in-memory commit records dropped by reconciliation.
    pub reconciled_drops: u64,
    /// Durably committed pages readable after the reopen.
    pub pages_visible: u64,
    /// Failed-transaction pages readable after the reopen (must be 0).
    pub pages_resurrected: u64,
}

/// Pages each transaction of the recovery drill writes.
const RECOVERY_PAGES_PER_TXN: u64 = 2;

/// One leg of the recovery drill: `durable_txns` clean commits, then —
/// with every log-store PUT failing past the retry budget —
/// `failed_txns` commits that must error and roll back, then a healed
/// reopen that replays the durable stream and reconciles the phantoms.
fn recovery_leg(
    durable_txns: u64,
    failed_txns: u64,
    label: &'static str,
) -> IqResult<RecoveryMeasure> {
    use iq_common::trace::MetricValue;

    // The failed transactions write a disjoint page range so the
    // post-reopen visibility sweep can tell the two populations apart.
    const FAILED_BASE: u64 = 1_000;

    let mut cfg = DatabaseConfig::test_small();
    cfg.group_commit = GroupCommitMode::Coalesced;
    cfg.log_fault = Some(FaultPlan::none());
    cfg.retry = RetryPolicy::attempts(2);
    let (db, _) = cloud_db(cfg.clone(), 1)?;
    let table = TableId(1);

    let commit_one = |base: u64| -> IqResult<bool> {
        let pages = (0..RECOVERY_PAGES_PER_TXN).map(|p| (base + p, Bytes::from(vec![7u8; 512])));
        Ok(db.commit(write_pages(&db, table, pages)?).is_ok())
    };
    for t in 0..durable_txns {
        assert!(
            commit_one(t * RECOVERY_PAGES_PER_TXN)?,
            "pre-fault commit failed"
        );
    }
    if failed_txns > 0 {
        let injector = db
            .durable_log()
            .expect("group commit wires the log")
            .fault_injector()
            .expect("log_fault wires an injector");
        injector.set_plan(FaultPlan {
            put_fail_rate: 1.0,
            ..FaultPlan::none()
        });
        for f in 0..failed_txns {
            assert!(
                !commit_one(FAILED_BASE + f * RECOVERY_PAGES_PER_TXN)?,
                "commit under a cut log store must error"
            );
        }
        injector.set_plan(FaultPlan::none());
    }
    let stats = db
        .durable_log()
        .expect("group commit wires the log")
        .stats();

    let db = Database::reopen(db.into_durable(), cfg)?;
    let metrics = db.metrics();
    let metric = |name: &str| match metrics.get(name) {
        Some(MetricValue::U64(v)) => *v,
        other => panic!("metric {name} missing or non-u64: {other:?}"),
    };
    let txn = db.begin();
    let pager = db.pager(txn)?;
    let readable = |base: u64, txns: u64| -> u64 {
        (0..txns * RECOVERY_PAGES_PER_TXN)
            .filter(|p| pager.read_page(table, PageId(base + p), true).is_ok())
            .count() as u64
    };
    let pages_visible = readable(0, durable_txns);
    let pages_resurrected = readable(FAILED_BASE, failed_txns);
    db.rollback(txn)?;

    Ok(RecoveryMeasure {
        label,
        durable_commits: durable_txns,
        failed_commits: failed_txns,
        put_failures: stats.put_failures,
        recovery_gets: metric("log.recovery_gets"),
        replayed_records: metric("log.replayed_records"),
        reconciled_drops: metric("log.reconciled_drops"),
        pages_visible,
        pages_resurrected,
    })
}

/// Ablation — durable-log replay recovery: commits whose log PUT fails
/// past the retry budget error and roll back; reopen replays the log
/// keyspace and reconciles away the phantom in-memory records. A no-fault
/// baseline (reconciliation must be the identity) and a cut-log leg.
pub(crate) fn recovery_rows(sf: f64) -> IqResult<Vec<RecoveryMeasure>> {
    // Durable working set tracks the scale factor; the floor keeps even
    // the CI smoke replaying a non-trivial stream.
    let durable = ((sf * 400.0) as u64).clamp(4, 32);
    [
        (0, "coalesced, no faults"),
        (3, "coalesced, log cut past retry budget"),
    ]
    .into_iter()
    .map(|(failed, label)| recovery_leg(durable, failed, label))
    .collect()
}

impl Rows for Vec<RecoveryMeasure> {
    fn report(&self) -> Report {
        let mut r = Report::from_columns(
            "Ablation — durable-log replay recovery (reconciled reopen)",
            self,
            &[
                ("Config", &|m| m.label.to_string()),
                ("Durable", &|m| m.durable_commits.to_string()),
                ("Failed", &|m| m.failed_commits.to_string()),
                ("PUT fails", &|m| m.put_failures.to_string()),
                ("Replay GETs", &|m| m.recovery_gets.to_string()),
                ("Records", &|m| m.replayed_records.to_string()),
                ("Drops", &|m| m.reconciled_drops.to_string()),
                ("Visible", &|m| m.pages_visible.to_string()),
                ("Resurrected", &|m| m.pages_resurrected.to_string()),
            ],
        );
        let cut = &self[1];
        r.note(format!(
            "the durable log is authoritative: each of the {} commits attempted \
             against the cut store errored in its own life, and at reopen the \
             replay ({} GETs, {} records) dropped exactly their {} phantom \
             in-memory commit records while the {} durable pages stayed visible",
            cut.failed_commits,
            cut.recovery_gets,
            cut.replayed_records,
            cut.reconciled_drops,
            cut.pages_visible,
        ));
        r
    }

    /// Failed commits error in their own life (each exhausting a PUT retry
    /// budget), their phantoms reconcile away one for one, and reopen
    /// leaves exactly the durable working set visible.
    fn gates(&self) -> Result<(), String> {
        gate!(self.len() == 2);
        gate!(self[0].failed_commits == 0 && self[1].failed_commits > 0);
        for m in self {
            gate!(m.reconciled_drops == m.failed_commits, m.label);
            gate!(m.pages_resurrected == 0, m.label);
            gate!(
                m.pages_visible == m.durable_commits * RECOVERY_PAGES_PER_TXN,
                m.label
            );
            gate!(m.put_failures >= m.failed_commits, m.label);
            gate!(m.recovery_gets > 0, m.label);
        }
        Ok(())
    }
}

/// One measured leg of the late-materialization ablation (`repro
/// --prune`): one predicate × one scan mode.
#[derive(serde::Serialize)]
pub struct PruneMeasure {
    /// Row label (predicate + mode).
    pub label: String,
    /// Two-phase late materialization on (`false` = classic eager scan).
    pub late_mat: bool,
    /// Rows loaded.
    pub rows: u64,
    /// Row groups in the table.
    pub groups: u64,
    /// Rows the predicate selected (identical across modes).
    pub matched_rows: u64,
    /// Groups pruned before any I/O (zone maps; ~0 here by construction —
    /// the predicate column is unclustered).
    pub groups_zone_pruned: u64,
    /// Surviving groups whose mask came up all-false (projection skipped).
    pub groups_empty_mask: u64,
    /// Surviving groups whose projection pages were materialized.
    pub groups_materialized: u64,
    /// Data pages demand-read for predicate evaluation.
    pub predicate_pages_read: u64,
    /// Data pages read for projection only.
    pub projection_pages_read: u64,
    /// Projection pages skipped by all-false masks.
    pub projection_pages_skipped: u64,
    /// String columns the scan evaluated in the dictionary code domain.
    pub dict_filter_columns: u64,
    /// GET-class object-store requests issued by the cold scan.
    pub scan_gets: u64,
    /// Modeled S3 request charges for the cold scan (USD).
    pub scan_request_usd: f64,
    /// FNV-1a over every result row — must be identical across modes.
    pub checksum: u64,
}

/// Run one cold scan leg of the prune ablation: fresh database, load the
/// unclustered table, clear the buffer, scan with `late_mat` on or off,
/// and read GETs from the store's own epoch ledger and group/page counts
/// from the `scan.*` counters.
fn prune_leg(
    rows: i64,
    pred_name: &str,
    pred: &iq_engine::Expr,
    late_mat: bool,
) -> IqResult<PruneMeasure> {
    use iq_engine::{ScanOptions, ScanStats};
    use iq_objectstore::CostLedger;

    let mut cfg = DatabaseConfig::test_small();
    // OCM off and one page per object, so every page the scan touches is
    // exactly one GET in the ledger — the request economy under test.
    cfg.ocm_bytes = 0;
    cfg.pack_pages = 1;
    cfg.retention = None;
    let (db, space) = cloud_db(cfg, 1)?;
    let store = db.cloud_store(space).expect("cloud dbspace is simulated");

    // Unclustered data: the predicate columns are multiplicative-hash
    // scatters, so every row group's zone spans nearly the whole value
    // domain and min/max pruning never fires — the late-materialization
    // worst case for eager scans.
    let scatter =
        |i: i64| -> i64 { ((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 16) as i64 & 0xFFF };
    let cat = |i: i64| -> &'static str {
        match scatter(i.wrapping_add(1_000_003)) % 1000 {
            0 => "NEEDLE",
            1..=19 => "RARE",
            _ => "COMMON",
        }
    };
    let mut meta = TableMeta::new(
        TableId(1),
        "unclustered",
        Schema::new(&[
            ("k", DataType::I64),
            ("cat", DataType::Str),
            ("v0", DataType::I64),
            ("v1", DataType::F64),
            ("v2", DataType::Str),
            ("v3", DataType::Date),
        ]),
        256,
    );
    load_rows(&db, &mut meta, rows, |i| {
        vec![
            Value::I64(scatter(i)),
            Value::Str(cat(i).into()),
            Value::I64(i.wrapping_mul(7)),
            Value::F64(i as f64 * 0.25),
            Value::Str(format!("pay{}", i % 97).into()),
            Value::Date((i % 10_000) as i32),
        ]
    })?;

    let projection = [2usize, 3, 4, 5];

    // Cold scan: the GETs in this epoch are the scan's and nothing else's.
    db.shared().buffer.clear();
    store.stats.begin_epoch();
    let rtxn = db.begin();
    let pager = db.pager(rtxn)?;
    let out = meta.scan_with_options(
        &pager,
        &projection,
        Some(pred),
        db.meter(),
        ScanOptions {
            workers: 4,
            late_mat,
        },
        None,
    )?;
    db.rollback(rtxn)?;
    let snap = store.stats.snapshot();
    let mut ledger = CostLedger::default();
    ledger.charge_requests(&DeviceProfile::s3(), &snap);

    let mut checksum = 0xcbf2_9ce4_8422_2325u64;
    for r in 0..out.len() {
        for v in out.row(r) {
            fnv1a(&mut checksum, format!("{v:?}").as_bytes());
        }
    }

    let sc = db.scan_stats();
    Ok(PruneMeasure {
        label: format!(
            "{pred_name}, {}",
            if late_mat { "late-mat" } else { "eager" }
        ),
        late_mat,
        rows: rows as u64,
        groups: meta.groups.len() as u64,
        matched_rows: out.len() as u64,
        groups_zone_pruned: ScanStats::get(&sc.groups_zone_pruned),
        groups_empty_mask: ScanStats::get(&sc.groups_empty_mask),
        groups_materialized: ScanStats::get(&sc.groups_materialized),
        predicate_pages_read: ScanStats::get(&sc.predicate_pages_read),
        projection_pages_read: ScanStats::get(&sc.projection_pages_read),
        projection_pages_skipped: ScanStats::get(&sc.projection_pages_skipped),
        dict_filter_columns: ScanStats::get(&sc.dict_filter_columns),
        scan_gets: snap.total_requests,
        scan_request_usd: ledger.request_usd(),
        checksum,
    })
}

/// Ablation — late-materialization scans: predicate-first page reads over
/// an unclustered selective sweep. Three predicates of decreasing
/// selectivity, each scanned eager (every needed page of every surviving
/// group) and two-phase (predicate pages first, a group's projection
/// pages skipped when the mask comes up all-false), as
/// `[eager, late-mat]` pairs.
pub(crate) fn prune_rows(sf: f64) -> IqResult<Vec<PruneMeasure>> {
    use iq_engine::Expr;
    // Row count tracks the scale factor; the floor keeps even the CI
    // smoke at 16 row groups of 256 rows, enough for the all-false-mask
    // population the ablation is about.
    let rows = ((sf * 400_000.0) as i64).clamp(4_096, 32_768);
    // An unclustered integer point probe (the headline selective leg),
    // then a rare and a common dictionary-string equality (the latter
    // materializes everything — the late-mat break-even case).
    let cat = |v| Expr::eq(Expr::col(1), Expr::lit_str(v));
    let mut out = Vec::new();
    for (name, pred) in [
        (
            "k = 777 (selective)",
            Expr::eq(Expr::col(0), Expr::lit_i64(777)),
        ),
        ("cat = 'RARE'", cat("RARE")),
        ("cat = 'COMMON'", cat("COMMON")),
    ] {
        out.push(prune_leg(rows, name, &pred, false)?);
        out.push(prune_leg(rows, name, &pred, true)?);
    }
    Ok(out)
}

impl Rows for Vec<PruneMeasure> {
    fn report(&self) -> Report {
        // Each row beside its pair's eager leg, the "vs eager" baseline.
        let with_eager = self
            .chunks(2)
            .flat_map(|pair| pair.iter().map(|m| (&pair[0], m)));
        let mut r = Report::from_columns(
            format!(
                "Ablation — late-materialization scan ({} unclustered rows, {} groups, \
                 4-col projection)",
                self[0].rows, self[0].groups
            ),
            with_eager,
            &[
                ("Predicate, mode", &|(_, m)| m.label.clone()),
                ("Matched", &|(_, m)| m.matched_rows.to_string()),
                ("Empty masks", &|(_, m)| m.groups_empty_mask.to_string()),
                ("Pred pages", &|(_, m)| m.predicate_pages_read.to_string()),
                ("Proj pages", &|(_, m)| m.projection_pages_read.to_string()),
                ("Proj skipped", &|(_, m)| {
                    m.projection_pages_skipped.to_string()
                }),
                ("Scan GETs", &|(_, m)| m.scan_gets.to_string()),
                ("GETs vs eager", &|(eager, m)| {
                    format!("{:.2}x", eager.scan_gets as f64 / m.scan_gets.max(1) as f64)
                }),
                ("Request $", &|(_, m)| format!("{:.9}", m.scan_request_usd)),
            ],
        );
        r.note(
            "the predicate columns are hash-scattered, so zone maps never prune and eager must \
             read every page of every group; the two-phase scan pays one predicate page per group \
             and materializes projection pages only where the mask has a hit — string predicates \
             are evaluated in the dictionary code domain without building a single row string",
        );
        r
    }

    /// The two modes agree row for row, and on the unclustered selective
    /// leg the two-phase scan issues at most half the data-page GETs eager
    /// does by skipping projection pages behind all-false masks.
    fn gates(&self) -> Result<(), String> {
        gate!(self.len() == 6);
        for pair in self.chunks(2) {
            let (eager, late) = (&pair[0], &pair[1]);
            gate!(!eager.late_mat && late.late_mat);
            gate!(eager.checksum == late.checksum, late.label);
            gate!(eager.matched_rows == late.matched_rows, late.label);
        }
        let (eager, late) = (&self[0], &self[1]);
        gate!(eager.scan_gets >= 2 * late.scan_gets);
        gate!(late.projection_pages_skipped > 0);
        gate!(late.scan_request_usd < eager.scan_request_usd);
        Ok(())
    }
}

/// Ablation — notifying the coordinator on rollback vs not (§3.3's
/// "conscious optimization to reduce the amount of inter-node
/// communication for transactions rolling back, which is expected to be
/// more frequent than node restarts").
///
/// Runs the same workload (R rollbacks, then one writer restart) under
/// both policies and counts coordinator messages and restart-time polls.
pub fn rollback_notify() -> Report {
    let rollbacks = 50u64;
    let pages_per_txn = 20u64;

    let run = |notify_on_rollback: bool| -> (u64, u64) {
        let log = Arc::new(TxnLog::new());
        let mx = Multiplex::new(Arc::clone(&log), 1, 0);
        let w1 = mx.secondary(NodeId(1)).expect("writer");
        let store = Arc::new(ObjectStoreSim::new(ConsistencyConfig::default()));
        let space = cloud_space(store, RetryPolicy::default());
        let cache = w1.key_cache().expect("key cache");
        let mut messages = 0u64;
        for _ in 0..rollbacks {
            let mut rfrb = RfRb::new();
            for p in 0..pages_per_txn {
                let key = KeySource::next_key(cache.as_ref()).expect("key");
                let page = data_page(p, vec![0u8; 32]);
                space.write_page_with_key(&page, key).expect("flush");
                rfrb.record_alloc(DbSpaceId(1), PhysicalLocator::Object(key));
            }
            // Roll back: objects die locally.
            for k in rfrb.rb.iter_keys() {
                space.poll_delete(k).expect("delete");
            }
            if notify_on_rollback {
                // The alternative policy: an RPC to trim the active set.
                mx.coordinator
                    .keygen()
                    .expect("up")
                    .note_commit(NodeId(1), &rfrb);
                messages += 1;
            }
        }
        // One writer restart: polls whatever the active set still covers.
        w1.crash();
        let (polled, _) = w1.restart(&space).expect("restart");
        (messages, polled)
    };

    let mut r = Report::from_columns(
        "Ablation — rollback notification policy (50 rollbacks, 1 restart)",
        [
            ("notify coordinator", run(true)),
            ("paper (no notify)", run(false)),
        ],
        &[
            ("Policy", &|(policy, _)| policy.to_string()),
            ("Rollback RPCs", &|(_, (messages, _))| messages.to_string()),
            ("Restart-time polls", &|(_, (_, polled))| polled.to_string()),
        ],
    );
    r.note(
        "the paper trades cheap idempotent restart polls for zero per-rollback RPCs — \
         correct because polling an already-deleted key is a no-op",
    );
    r
}
