//! `ingest`: bulk load, refresh pairs, GC and compaction on a fresh
//! database per round — the write use of the layers the read workloads
//! exercise.
//!
//! encode → `write_page` → dirty-eviction flush (per-page PUTs + OCM
//! write-back, the dominant path when the load is larger than the
//! buffer, as in the paper) → packed commit flush → blockmap cascade →
//! GC deletes → compaction. A read-path gain that costs writes, or the
//! reverse, shows here; so does request economy.

use std::collections::BTreeMap;

use iq_common::{TxnId, MIB};
use iq_core::{Database, DatabaseConfig};
use iq_tpch::refresh::{rf1, rf2};
use iq_tpch::TpchDb;

use crate::counters::{db_snap, Snap, Stores};
use crate::fixture::{
    create_tpch_database, digest, generator_dry_run, load_and_commit, run_queries, timed,
    tpch_config, Reference,
};
use crate::layers::{self, EndToEnd};
use crate::run::{fast_rate, Opts, Report, Run};
use crate::spans::TimedStore;
use crate::stats::geomean;

pub const NAME: &str = "ingest";

pub const SF: f64 = 0.02;

/// Paper-proportional caches: the load is larger than the buffer, so
/// most pages leave it as dirty evictions.
const BUFFER_BYTES: usize = 2 * MIB as usize;
const OCM_BYTES: u64 = 32 * MIB;

/// RF1 + RF2 pairs per round; the second pair runs over the first's
/// output.
const REFRESH_PAIRS: u64 = 2;

/// Read back after the final restart, against the refreshed reference.
const CHECK_QUERIES: [u32; 2] = [1, 6];

fn config() -> DatabaseConfig {
    DatabaseConfig {
        buffer_bytes: BUFFER_BYTES,
        ocm_bytes: OCM_BYTES,
        ..tpch_config()
    }
}

/// What every round must reproduce, from the same steps over a
/// `MemPageStore`.
struct Expected {
    /// `(orders, lineitem)` row counts after each refresh step.
    rows_after_step: Vec<(u64, u64)>,
    digests: BTreeMap<u32, u64>,
}

fn expected(seed: u64) -> Expected {
    let mut r = Reference::load(SF, seed);
    let mut rows_after_step = Vec::new();
    for pair in 0..REFRESH_PAIRS {
        let (o, l, _) = rf1(&r.tpch, &r.store, TxnId(2), &r.meter, pair).expect("reference RF1");
        (r.tpch.orders, r.tpch.lineitem) = (o, l);
        rows_after_step.push((r.tpch.orders.row_count(), r.tpch.lineitem.row_count()));
        let (o, l, _) = rf2(&r.tpch, &r.store, TxnId(3), &r.meter).expect("reference RF2");
        (r.tpch.orders, r.tpch.lineitem) = (o, l);
        rows_after_step.push((r.tpch.orders.row_count(), r.tpch.lineitem.row_count()));
    }
    Expected {
        rows_after_step,
        digests: r.digests(&CHECK_QUERIES),
    }
}

/// One refresh function and its commit, as one user-visible operation.
fn refresh_step(
    run: &mut Run,
    db: &Database,
    tpch: &mut TpchDb,
    span: &'static str,
    step: impl FnOnce(&TpchDb, &TimedStore<'_>, TxnId) -> (iq_engine::TableMeta, iq_engine::TableMeta),
) -> f64 {
    let ((), ms) = timed(|| {
        let txn = db.begin();
        let pager = db.pager(txn).expect("pager");
        let store = TimedStore::new(&pager, &run.tracer);
        let (orders, lineitem) = {
            let _s = run.tracer.span(span);
            step(tpch, &store, txn)
        };
        let _s = run.tracer.span("core.commit_refresh");
        db.commit(txn).expect("commit refresh");
        (tpch.orders, tpch.lineitem) = (orders, lineitem);
    });
    ms
}

fn gc_drain(run: &Run, db: &Database) -> f64 {
    timed(|| {
        let _s = run.tracer.span("core.gc_drain");
        db.gc_drain().expect("gc_drain");
    })
    .1
}

/// One whole round on a fresh database.
fn round(run: &mut Run, want: &Expected, input_rows: u64, round: u64) {
    run.tracer.set_request(round);
    let (db, space) = create_tpch_database(config());
    let stores = Stores::of(&db, space);
    let db_before = db_snap(&db);
    let stores_before = stores.snap();

    let (mut tpch, load_ms) = load_and_commit(&db, SF, run.opts.seed, &run.tracer);
    run.check(tpch.total_rows() == input_rows);
    run.samples().push("load", load_ms);
    run.samples()
        .push("load_rows_per_s", input_rows as f64 / (load_ms / 1e3));
    let mut round_ms = load_ms;
    let mut stall_ms = 0.0;

    for pair in 0..REFRESH_PAIRS {
        let meter = db.meter().clone();
        let rf1_ms = refresh_step(run, &db, &mut tpch, "tpch.rf1", |t, store, txn| {
            let (o, l, _) = rf1(t, store, txn, &meter, pair).expect("RF1");
            (o, l)
        });
        let want_rows = want.rows_after_step[pair as usize * 2];
        run.check((tpch.orders.row_count(), tpch.lineitem.row_count()) == want_rows);
        let rf2_ms = refresh_step(run, &db, &mut tpch, "tpch.rf2", |t, store, txn| {
            let (o, l, _) = rf2(t, store, txn, &meter).expect("RF2");
            (o, l)
        });
        let want_rows = want.rows_after_step[pair as usize * 2 + 1];
        run.check((tpch.orders.row_count(), tpch.lineitem.row_count()) == want_rows);
        run.samples().push("rf1", rf1_ms);
        run.samples().push("rf2", rf2_ms);
        run.samples().push("refresh_pair", rf1_ms + rf2_ms);
        stall_ms += gc_drain(run, &db);
        round_ms += rf1_ms + rf2_ms;
    }
    stall_ms += timed(|| {
        let _s = run.tracer.span("core.compact_tick");
        db.compact_tick(0.5, 64).expect("compact_tick");
    })
    .1;
    stall_ms += gc_drain(run, &db);
    {
        let _s = run.tracer.span("ocm.quiesce");
        db.ocm().expect("ingest runs with an OCM").quiesce();
    }
    run.samples().push("maintenance", stall_ms);
    round_ms += stall_ms;

    run.values
        .push("resident_bytes", stores.resident_bytes() as f64);
    // Never write an object twice, however many versions were written.
    run.check(stores.data.max_write_count() == 1);
    run.counters.absorb(&db_before, &db_snap(&db));

    // Durability: only what survived the power-off may be read back.
    let ((db, got), restart_ms) = timed(|| {
        let db = {
            let _s = run.tracer.span("core.reopen");
            Database::reopen(db.into_durable(), config()).expect("reopen")
        };
        let got: BTreeMap<u32, u64> = run_queries(&db, &tpch, &CHECK_QUERIES, &run.tracer, round)
            .into_iter()
            .map(|(n, _, out)| (n, digest(&out)))
            .collect();
        (db, got)
    });
    for n in CHECK_QUERIES {
        run.check(got[&n] == want.digests[&n]);
    }
    run.samples().push("restart", restart_ms);
    round_ms += restart_ms;
    run.samples().push("round", round_ms);
    run.counters.absorb(&Snap::new(), &db_snap(&db));
    let stores_after = stores.snap();
    run.counters.absorb(&stores_before, &stores_after);
    run.values.push(
        "store_puts",
        stores_after["store.put"] - stores_before["store.put"],
    );
}

pub fn run(opts: Opts) -> Report {
    let mut run = Run::new(opts);
    let input = generator_dry_run(SF, run.opts.seed);
    let want = expected(run.opts.seed);

    // Every round starts from nothing, so set-up is one discarded round:
    // it warms the allocator and the host's caches, not the program's.
    run.setup(|run| run.warm_up(|scratch| round(scratch, &want, input.rows, 0)));
    run.measure(|run, r| round(run, &want, input.rows, r));

    for (label, series) in [
        ("load + commit", "load"),
        ("refresh pair (RF1 + RF2, with commits)", "refresh_pair"),
        ("maintenance (gc_drain x3 + compact_tick)", "maintenance"),
        ("restart (reopen + Q1, Q6)", "restart"),
        ("round", "round"),
    ] {
        run.note_distribution(label, "ms", series);
    }
    run.notes.push(format!(
        "sizes: SF {SF}, buffer {} MiB, OCM {} MiB, {REFRESH_PAIRS} refresh pairs, {} rows, {:.1} MiB raw",
        BUFFER_BYTES as u64 / MIB,
        OCM_BYTES / MIB,
        input.rows,
        input.bytes as f64 / crate::MIB,
    ));

    let e2e = EndToEnd {
        round_ms: run.plain.fast("round"),
        op_geomean_ms: geomean(&[run.plain.fast("rf1"), run.plain.fast("rf2")]),
        op_tail_ms: ["load", "rf1", "rf2"]
            .iter()
            .map(|op| run.plain.fast(op))
            .fold(0.0, f64::max),
        work_per_s: fast_rate(run.plain.get("load_rows_per_s")),
        restart_ms: run.plain.fast("restart"),
        store_puts_per_user_mib: run.values.median("store_puts")
            / (input.bytes as f64 / crate::MIB),
        store_bytes_per_user_byte: run.values.median("resident_bytes") / input.bytes as f64,
    };
    layers::finish(run, NAME, e2e, input.bytes as f64)
}
