//! Probes: each layer's public functions timed in isolation, on inputs
//! captured from a loaded database (real column pages, sealed images,
//! keys). They give the unit costs the traced counters are multiplied
//! with, and they are the same on every workload.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::{Arc, Barrier};
use std::time::Instant;

use bytes::Bytes;
use iq_buffer::{BufferManager, BufferOptions, FlushCause, FlushSink, FrameKey};
use iq_common::{
    trace, DbSpaceId, IoCore, IqResult, NodeId, ObjectKey, PageId, PhysicalLocator, TableId, TxnId,
    VersionId,
};
use iq_core::{Database, DatabaseConfig, GroupCommitMode};
use iq_engine::encode::{decode_codes, decode_column, encode_column};
use iq_engine::expr::Expr;
use iq_engine::ops::{hash_aggregate_exec, hash_join_exec, sort, AggSpec, JoinType, SortDir};
use iq_engine::value::parse_date;
use iq_engine::{Chunk, Col, MemPageStore, OpExec, PageStore, TableWriter, WorkMeter};
use iq_objectstore::{
    BlockDeviceSim, ConsistencyConfig, IoReactor, ObjectBackend, ObjectStoreSim, ReactorStore,
    RetryPolicy,
};
use iq_ocm::{Ocm, OcmConfig};
use iq_storage::compress::{compress, decompress};
use iq_storage::{
    Blockmap, CountingKeySource, DbSpace, KeySource, Page, PageIo, PageKind, StorageConfig,
};
use iq_tpch::queries::ident;
use iq_tpch::TpchDb;
use iq_txn::{KeyGenerator, LogRecord, NodeKeyCache, RangeProvider, TxnLog};

use crate::fixture::{generator_dry_run, Reference, ROW_GROUP, SCAN_WORKERS};
use crate::stats::median;

/// Scale of the database the probe inputs are captured from.
const PROBE_SF: f64 = 0.01;

/// The product's page size.
const PAGE_BYTES: usize = 64 * 1024;

/// Not a declared metric: the cost of unsealing one page of the loaded
/// database, which the unattributed-time estimate needs per page, not
/// per MiB.
pub const UNSEAL_NS_PER_PAGE: &str = "aux.unseal_ns_per_page";

const STORAGE: StorageConfig = StorageConfig {
    page_size: PAGE_BYTES as u32,
};

const REPS: usize = 7;

/// Median wall seconds of `REPS` calls of `f`.
fn median_secs(mut f: impl FnMut()) -> f64 {
    let secs: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&secs)
}

/// Median nanoseconds per `op(i)` over `REPS` batches of `batch` calls.
fn ns_per_op(batch: usize, mut op: impl FnMut(usize)) -> f64 {
    median_secs(|| (0..batch).for_each(&mut op)) * 1e9 / batch as f64
}

fn mib_per_s(bytes: usize, secs: f64) -> f64 {
    bytes as f64 / crate::MIB / secs
}

fn key(offset: u64) -> ObjectKey {
    ObjectKey::from_offset(offset)
}

/// A sink for clean frames only: the buffer probes never dirty a page.
struct NoFlush;

impl FlushSink for NoFlush {
    fn flush(&self, _: FrameKey, _: &Page, _: TxnId, _: FlushCause) -> IqResult<()> {
        Ok(())
    }
}

/// Raw value bytes of a decoded column (strings by their length).
fn col_bytes(col: &Col) -> usize {
    match col {
        Col::I64(v) => v.len() * 8,
        Col::F64(v) => v.len() * 8,
        Col::Date(v) => v.len() * 4,
        Col::Str(v) => v.iter().map(|s| s.len()).sum(),
        Col::Bool(v) => v.len(),
    }
}

/// The encoded pages of one lineitem column, as the load wrote them.
fn column_pages(r: &Reference, col: &str) -> (usize, Vec<Page>) {
    let meta = &r.tpch.lineitem;
    let idx = meta.schema.col(col).expect("lineitem column");
    let pages = (0..meta.groups.len())
        .map(|g| {
            r.store
                .read_page(meta.id, meta.page_id(g, idx), true)
                .expect("column page")
        })
        .collect();
    (idx, pages)
}

fn engine(r: &Reference, out: &mut BTreeMap<&'static str, f64>) {
    let meter = WorkMeter::new();
    let li = &r.tpch.lineitem;

    // Decode per encoding, and encode over the same columns.
    let mut decoded = Vec::new();
    for (name, col) in [
        ("engine.decode_mib_per_s.i64", "l_orderkey"),
        ("engine.decode_mib_per_s.f64", "l_extendedprice"),
        ("engine.decode_mib_per_s.str", "l_shipmode"),
        ("engine.decode_mib_per_s.date", "l_shipdate"),
    ] {
        let (idx, pages) = column_pages(r, col);
        let dict = li.dicts[idx].as_ref();
        let decode = || -> Vec<Col> {
            pages
                .iter()
                .map(|p| decode_column(&p.body, dict).expect("decode"))
                .collect()
        };
        let cols = decode();
        let bytes: usize = cols.iter().map(col_bytes).sum();
        out.insert(
            name,
            mib_per_s(bytes, median_secs(|| drop(black_box(decode())))),
        );
        for (p, c) in pages.iter().zip(cols) {
            let codes = dict.map(|_| decode_codes(&p.body).expect("codes"));
            decoded.push((c, codes));
        }
    }
    let bytes: usize = decoded.iter().map(|(c, _)| col_bytes(c)).sum();
    let secs = median_secs(|| {
        for (c, codes) in &decoded {
            black_box(encode_column(c, codes.as_deref()).expect("encode"));
        }
    });
    out.insert("engine.encode_mib_per_s", mib_per_s(bytes, secs));

    // Operators over materialized lineitem / orders columns.
    let scan = |meta: &iq_engine::TableMeta, cols: &[&str]| -> Chunk {
        let proj: Vec<usize> = cols
            .iter()
            .map(|c| meta.schema.col(c).expect("column"))
            .collect();
        meta.scan(&r.store, &proj, None, &meter).expect("scan")
    };
    let mrows_per_s = |rows: usize, secs: f64| rows as f64 / 1e6 / secs;

    let q6 = scan(li, &["l_shipdate", "l_discount", "l_quantity"]);
    let date = |s: &str| Expr::lit_date(parse_date(s).expect("date literal"));
    let pred = Expr::and_all(vec![
        Expr::ge(Expr::col(0), date("1994-01-01")),
        Expr::lt(Expr::col(0), date("1995-01-01")),
        Expr::between(Expr::col(1), Expr::lit_f64(0.05), Expr::lit_f64(0.07)),
        Expr::lt(Expr::col(2), Expr::lit_i64(24)),
    ]);
    let remap = ident(3);
    let secs = median_secs(|| drop(black_box(pred.eval_mask(&q6, &remap).expect("mask"))));
    out.insert("engine.eval_mask_mrows_per_s", mrows_per_s(q6.len(), secs));

    let exec = OpExec::new(SCAN_WORKERS);
    let q1 = scan(
        li,
        &[
            "l_returnflag",
            "l_linestatus",
            "l_quantity",
            "l_extendedprice",
            "l_discount",
        ],
    );
    let aggs = [
        AggSpec::sum(2),
        AggSpec::sum(3),
        AggSpec::avg(4),
        AggSpec::count(0),
    ];
    let secs = median_secs(|| {
        black_box(hash_aggregate_exec(&q1, &[0, 1], &aggs, &meter, &exec).expect("aggregate"));
    });
    out.insert("engine.hash_agg_mrows_per_s", mrows_per_s(q1.len(), secs));

    let lines = scan(li, &["l_orderkey", "l_quantity"]);
    let orders = scan(&r.tpch.orders, &["o_orderkey", "o_custkey"]);
    let secs = median_secs(|| {
        black_box(
            hash_join_exec(&lines, &orders, &[0], &[0], JoinType::Inner, &meter, &exec)
                .expect("join"),
        );
    });
    out.insert(
        "engine.hash_join_mrows_per_s",
        mrows_per_s(lines.len() + orders.len(), secs),
    );

    let prices = scan(li, &["l_extendedprice", "l_orderkey"]);
    let secs = median_secs(|| drop(black_box(sort(&prices, &[(0, SortDir::Desc)], &meter))));
    out.insert("engine.sort_mrows_per_s", mrows_per_s(prices.len(), secs));

    let all_cols: Vec<usize> = (0..li.schema.len()).collect();
    let full = li.scan(&r.store, &all_cols, None, &meter).expect("scan");
    let rows: Vec<_> = (0..full.len().min(4 * ROW_GROUP as usize))
        .map(|i| full.row(i))
        .collect();
    let secs = median_secs(|| {
        let store = MemPageStore::new();
        let mut meta = TpchDb::schemas(PROBE_SF, ROW_GROUP).lineitem;
        let mut w = TableWriter::new(&mut meta, &store, TxnId(1), &meter);
        for row in &rows {
            w.append_row(row).expect("append_row");
        }
        w.finish().expect("finish");
    });
    out.insert("engine.writer_rows_per_s", rows.len() as f64 / secs);
}

fn storage(r: &Reference, out: &mut BTreeMap<&'static str, f64>) {
    // Comment pages compress least, keys most: take one of each kind.
    let pages: Vec<Page> = ["l_orderkey", "l_extendedprice", "l_comment", "l_shipdate"]
        .into_iter()
        .flat_map(|c| column_pages(r, c).1)
        .collect();
    let body_bytes: usize = pages.iter().map(|p| p.body.len()).sum();

    let seal = || -> Vec<Bytes> {
        pages
            .iter()
            .map(|p| p.seal(&STORAGE).expect("seal").0)
            .collect()
    };
    let images = seal();
    out.insert(
        "storage.seal_mib_per_s",
        mib_per_s(body_bytes, median_secs(|| drop(black_box(seal())))),
    );
    let secs = median_secs(|| {
        for image in &images {
            black_box(Page::unseal(image).expect("unseal"));
        }
    });
    out.insert("storage.unseal_mib_per_s", mib_per_s(body_bytes, secs));
    out.insert(UNSEAL_NS_PER_PAGE, secs * 1e9 / images.len() as f64);

    let packed: Vec<Vec<u8>> = pages.iter().map(|p| compress(&p.body)).collect();
    let secs = median_secs(|| {
        for p in &pages {
            black_box(compress(&p.body));
        }
    });
    out.insert("storage.compress_mib_per_s", mib_per_s(body_bytes, secs));
    let secs = median_secs(|| {
        for (p, z) in pages.iter().zip(&packed) {
            black_box(decompress(z, p.body.len()).expect("decompress"));
        }
    });
    out.insert("storage.decompress_mib_per_s", mib_per_s(body_bytes, secs));

    // Blockmap lookups over an in-memory tree two levels deep.
    let store: Arc<dyn ObjectBackend> = Arc::new(ObjectStoreSim::new(ConsistencyConfig::strong()));
    let space = DbSpace::cloud(
        DbSpaceId(1),
        "probe",
        STORAGE,
        store,
        RetryPolicy::default(),
    );
    let keys = CountingKeySource::starting_at(1);
    let io = PageIo {
        space: &space,
        keys: &keys,
    };
    let mut map = Blockmap::new(128);
    const MAPPED: usize = 4096;
    for p in 0..MAPPED {
        map.set(
            PageId(p as u64),
            PhysicalLocator::Object(key(p as u64 + 1)),
            &io,
        )
        .expect("blockmap set");
    }
    out.insert(
        "storage.blockmap_get_ns",
        ns_per_op(MAPPED, |p| {
            black_box(map.get(PageId(p as u64), &io).expect("blockmap get"));
        }),
    );
}

fn objectstore(images: &[Bytes], out: &mut BTreeMap<&'static str, f64>) {
    let n = images.len();
    let sim = Arc::new(ObjectStoreSim::new(ConsistencyConfig::strong()));
    for (i, image) in images.iter().enumerate() {
        sim.put(key(i as u64), image.clone()).expect("put");
    }
    let bare = ns_per_op(n, |i| drop(black_box(sim.get(key(i as u64)).expect("get"))));
    out.insert("objectstore.sim_get_ns", bare);
    out.insert(
        "objectstore.sim_get_range_ns",
        ns_per_op(n, |i| {
            black_box(sim.get_range(key(i as u64), 64, 1024).expect("get_range"));
        }),
    );
    // Never write a key twice: every batch takes fresh keys.
    let next = std::cell::Cell::new(n as u64);
    out.insert(
        "objectstore.sim_put_ns",
        ns_per_op(n, |i| {
            next.set(next.get() + 1);
            sim.put(key(next.get()), images[i].clone()).expect("put");
        }),
    );
    let reactor = ReactorStore::new(Arc::new(IoReactor::new()), sim.clone());
    let via_reactor = ns_per_op(n, |i| {
        drop(black_box(reactor.get(key(i as u64)).expect("get")))
    });
    out.insert("objectstore.reactor_overhead_ns", via_reactor - bare);
    let retry = RetryPolicy::default();
    let via_retry = ns_per_op(n, |i| {
        black_box(retry.get(sim.as_ref(), key(i as u64)).expect("get"));
    });
    out.insert("objectstore.retry_overhead_ns", via_retry - bare);
}

fn caches(images: &[Bytes], out: &mut BTreeMap<&'static str, f64>) {
    // Buffer: hits on a resident set; then misses into a cache a quarter
    // the size of the key space, so each one inserts and evicts.
    let page = Page::new(
        PageId(0),
        VersionId(1),
        PageKind::Data,
        Bytes::from(vec![7u8; PAGE_BYTES / 2]),
    );
    let frame = |i: usize| FrameKey {
        table: TableId(1),
        page: PageId(i as u64),
        epoch: 0,
    };
    let options = BufferOptions {
        shards: SCAN_WORKERS * 2,
        protected_fraction: 0.8,
    };
    const FRAMES: usize = 512;
    let resident = BufferManager::with_options(FRAMES * PAGE_BYTES, options);
    let load = |buf: &BufferManager, i: usize| {
        black_box(
            buf.get_or_load(frame(i), true, &NoFlush, || Ok(page.clone()))
                .expect("get_or_load"),
        );
    };
    (0..FRAMES).for_each(|i| load(&resident, i));
    out.insert("buffer.hit_ns", ns_per_op(FRAMES, |i| load(&resident, i)));
    let small = BufferManager::with_options(FRAMES / 4 * PAGE_BYTES / 2, options);
    out.insert(
        "buffer.miss_insert_ns",
        ns_per_op(FRAMES, |i| load(&small, i)),
    );

    // OCM: read-through misses against a strong store, then hits once
    // the background populates have landed.
    let sim = Arc::new(ObjectStoreSim::new(ConsistencyConfig::strong()));
    for (i, image) in images.iter().enumerate() {
        sim.put(key(i as u64), image.clone()).expect("put");
    }
    let block = STORAGE.block_size();
    let capacity = 4 * images.len() as u64 * PAGE_BYTES as u64;
    let ocm = Ocm::new(
        Arc::new(BlockDeviceSim::new(block, capacity / u64::from(block))),
        sim,
        OcmConfig {
            slot_bytes: STORAGE.page_size,
            capacity_bytes: capacity,
            protected_fraction: 0.8,
            retry: RetryPolicy::default(),
        },
    );
    let read = |i: usize| {
        drop(black_box(
            ocm.read_hinted(key(i as u64), true).expect("ocm read"),
        ))
    };
    let n = images.len();
    let miss_ns = {
        let secs: Vec<f64> = (0..REPS)
            .map(|_| {
                ocm.clear_cache();
                let t = Instant::now();
                (0..n).for_each(read);
                let secs = t.elapsed().as_secs_f64();
                ocm.quiesce();
                secs
            })
            .collect();
        median(&secs) * 1e9 / n as f64
    };
    out.insert("ocm.miss_us", miss_ns / 1e3);
    out.insert("ocm.hit_us", ns_per_op(n, read) / 1e3);
}

fn txn_and_common(out: &mut BTreeMap<&'static str, f64>) {
    const OPS: usize = 4096;
    let log = TxnLog::new();
    out.insert(
        "txn.log_append_ns",
        ns_per_op(OPS, |i| {
            log.append(LogRecord::AllocateRange {
                node: NodeId(0),
                start: i as u64,
                end: i as u64 + 1,
            });
        }),
    );
    let keygen: Arc<dyn RangeProvider> = Arc::new(KeyGenerator::new(Arc::new(TxnLog::new())));
    let cache = NodeKeyCache::new(NodeId(0), keygen, iq_txn::keygen::CachePolicy::default());
    out.insert(
        "txn.keygen_alloc_ns",
        ns_per_op(OPS, |_| {
            black_box(cache.next_key().expect("next_key"));
        }),
    );

    // The spawn-per-batch cost of the fan-out every morsel batch pays.
    let core = IoCore::new(SCAN_WORKERS);
    out.insert(
        "common.iocore_fanout_us",
        ns_per_op(256, |_| {
            black_box(
                core.run_ordered(SCAN_WORKERS, Ok::<usize, ()>)
                    .expect("fan-out"),
            );
        }) / 1e3,
    );

    trace::disable();
    out.insert(
        "common.trace_emit_ns_off",
        ns_per_op(OPS, |i| trace::counter("probe", i as u64)),
    );
    trace::enable(OPS);
    out.insert(
        "common.trace_emit_ns_on",
        ns_per_op(OPS, |i| trace::counter("probe", i as u64)),
    );
    trace::disable();
    drop(trace::drain());
}

/// Two committers released together by a barrier, each on its own
/// table: how many log PUTs a commit costs when group commit has
/// something to coalesce.
fn group_commit(seed: u64) -> f64 {
    const COMMITS: u64 = 200;
    let db = Database::create(DatabaseConfig {
        scan_workers: SCAN_WORKERS,
        group_commit: GroupCommitMode::Coalesced,
        retention: None,
        ..DatabaseConfig::default()
    })
    .expect("create database");
    let space = db.create_cloud_dbspace("probe").expect("create dbspace");
    for t in 1..=2 {
        db.create_table(TableId(t), space).expect("create table");
    }
    let log = db.durable_log().expect("group commit is on");
    let before = log.stats().puts;
    let barrier = Barrier::new(2);
    std::thread::scope(|s| {
        for t in 1..=2u32 {
            let (db, barrier) = (&db, &barrier);
            s.spawn(move || {
                for i in 0..COMMITS {
                    let txn = db.begin();
                    let pager = db.pager(txn).expect("pager");
                    let body = Bytes::from((seed ^ i).to_le_bytes().repeat(128));
                    pager
                        .write_page(TableId(t), PageId(i % 8), PageKind::Data, body, txn)
                        .expect("write_page");
                    barrier.wait();
                    db.commit(txn).expect("commit");
                }
            });
        }
    });
    (log.stats().puts - before) as f64 / (2 * COMMITS) as f64
}

/// Every probe metric by name.
pub fn run_all(seed: u64) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    let generated = generator_dry_run(PROBE_SF, seed);
    out.insert(
        "tpch.gen_rows_per_s",
        generated.rows as f64 / generated.secs,
    );

    let reference = Reference::load(PROBE_SF, seed);
    engine(&reference, &mut out);
    storage(&reference, &mut out);
    let images: Vec<Bytes> = column_pages(&reference, "l_extendedprice")
        .1
        .iter()
        .chain(&column_pages(&reference, "l_comment").1)
        .map(|p| p.seal(&STORAGE).expect("seal").0)
        .collect();
    objectstore(&images, &mut out);
    caches(&images, &mut out);
    txn_and_common(&mut out);
    out.insert("core.log_puts_per_commit_2c", group_commit(seed));
    out
}
