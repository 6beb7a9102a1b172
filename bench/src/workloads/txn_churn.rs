//! `txn_churn`: one committer writing small transactions, with GC,
//! retention sweeps, snapshots, checkpoints and an instance restart at
//! the end of every epoch.
//!
//! The engine does nothing here; the transaction manager (log, key
//! generator, RF/RB bitmaps, composite registry, GC chain), commit and
//! group commit, log recovery, the snapshot manager and the
//! small-composite pack path do all of it. History grows from epoch to
//! epoch within a round, so `reopen` exposes the cost of a log that is
//! never truncated. Also the durability check: only what survived
//! `into_durable` may be read back.

use bytes::Bytes;
use iq_common::{PageId, SimDuration, TableId};
use iq_core::{Database, DatabaseConfig, GroupCommitMode};
use iq_engine::PageStore;
use iq_storage::PageKind;

use crate::counters::{db_snap, Snap, Stores};
use crate::fixture::{timed, SCAN_WORKERS};
use crate::layers::{self, EndToEnd};
use crate::run::{fast_rate, Opts, Report, Run};
use crate::spans::TimedStore;

pub const NAME: &str = "txn_churn";

/// Epochs per round; each round starts from an empty database so that
/// every round sees the same history lengths whatever the host's speed.
const EPOCHS: u64 = 3;
const TXNS_PER_EPOCH: u64 = 1000;
const PAGES_PER_TXN: u64 = 4;
const PAYLOAD_BYTES: usize = 8 * 1024;
const RING_PAGES: u64 = 256;
const GC_EVERY: u64 = 64;
const GC_BUDGET: usize = 512;

const TABLE: TableId = TableId(1);

fn config() -> DatabaseConfig {
    DatabaseConfig {
        scan_workers: SCAN_WORKERS,
        group_commit: GroupCommitMode::Coalesced,
        retention: Some(SimDuration::from_secs(3600)),
        ..DatabaseConfig::default()
    }
}

/// The payload transaction `ordinal` writes to `page`: a splitmix64
/// stream keyed by the seed, so a read-back can be checked from the
/// ordinal alone.
fn payload(seed: u64, ordinal: u64, page: u64) -> Bytes {
    let mut x = seed ^ ordinal.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ page.rotate_left(32);
    let mut out = Vec::with_capacity(PAYLOAD_BYTES);
    while out.len() < PAYLOAD_BYTES {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        out.extend_from_slice(&(z ^ (z >> 31)).to_le_bytes());
    }
    Bytes::from(out)
}

/// One epoch's transactions. `last[page]` tracks the ordinal of the last
/// committed write, which is all the read-back needs.
///
/// A sample is what the committer waits for: the `gc_tick` that is due
/// before one transaction in `GC_EVERY`, then begin → writes → commit.
/// The transactions that paid for a GC pass are sampled a second time
/// on their own: a percentile high enough to reach them would mostly
/// measure the host's scheduling noise.
fn churn(run: &mut Run, db: &Database, first: u64, last: &mut [u64]) {
    for ordinal in first..first + TXNS_PER_EPOCH {
        let pages: Vec<u64> = (0..PAGES_PER_TXN)
            .map(|i| (ordinal * PAGES_PER_TXN + i) % RING_PAGES)
            .collect();
        let bodies: Vec<Bytes> = pages
            .iter()
            .map(|&p| payload(run.opts.seed, ordinal, p))
            .collect();
        run.tracer.set_request(ordinal);
        let gc_due = ordinal > first && ordinal % GC_EVERY == 0;
        let ((), commit_ms) = timed(|| {
            if gc_due {
                let _s = run.tracer.span("core.gc_tick");
                db.gc_tick(GC_BUDGET).expect("gc_tick");
            }
            let _s = run.tracer.span("txn.transaction");
            let txn = db.begin();
            let pager = db.pager(txn).expect("pager");
            let store = TimedStore::new(&pager, &run.tracer);
            for (&page, body) in pages.iter().zip(bodies) {
                store
                    .write_page(TABLE, PageId(page), PageKind::Data, body, txn)
                    .expect("write_page");
            }
            let _c = run.tracer.span("core.commit");
            db.commit(txn).expect("commit");
        });
        run.samples().push("commit_us", commit_ms * 1e3);
        if gc_due {
            run.samples().push("gc_commit_us", commit_ms * 1e3);
        }
        for page in pages {
            last[page as usize] = ordinal;
        }
    }
}

/// Let the retained pages expire, sweep them, snapshot, checkpoint: the
/// maintenance an epoch ends with, all of it in the committer's way.
///
/// The sweep runs before the snapshot because `take_snapshot` persists
/// the retention FIFO as one page and fails once an epoch's worth of
/// retained keys (about 37 bytes each) outgrows it; a workload may not
/// contain an operation that fails.
fn maintain(run: &mut Run, db: &Database) {
    db.advance_clock(SimDuration::from_secs(2 * 3600));
    let retained = db.snapshot_manager().map_or(0, |sm| sm.retained_count());
    run.values.push("snapshot.retained_keys", retained as f64);
    {
        let _s = run.tracer.span("snapshot.sweep");
        db.sweep_retention().expect("sweep_retention");
    }
    {
        let _s = run.tracer.span("snapshot.take");
        db.take_snapshot().expect("take_snapshot");
    }
    let _s = run.tracer.span("core.checkpoint");
    db.checkpoint().expect("checkpoint");
}

/// Read every page's last committed payload back from the reopened
/// instance.
fn read_back(run: &mut Run, db: &Database, last: &[u64]) {
    let ok: Vec<bool> = {
        let _s = run.tracer.span("bench.read_back");
        let txn = db.begin();
        let pager = db.pager(txn).expect("pager");
        let store = TimedStore::new(&pager, &run.tracer);
        let ok = last
            .iter()
            .enumerate()
            .map(|(page, &ordinal)| {
                store
                    .read_page(TABLE, PageId(page as u64), true)
                    .is_ok_and(|p| p.body == payload(run.opts.seed, ordinal, page as u64))
            })
            .collect();
        db.rollback(txn).expect("end read transaction");
        ok
    };
    ok.into_iter().for_each(|ok| run.check(ok));
}

/// `epochs` epochs on a fresh database.
fn round(run: &mut Run, epochs: u64) {
    let mut db = Database::create(config()).expect("create database");
    let space = db.create_cloud_dbspace("churn").expect("create dbspace");
    db.create_table(TABLE, space).expect("create table");
    let stores = Stores::of(&db, space);
    let stores_before = stores.snap();
    let mut last = vec![u64::MAX; RING_PAGES as usize];
    let mut round_ms = 0.0;

    for epoch in 0..epochs {
        let ((), churn_ms) = timed(|| churn(run, &db, epoch * TXNS_PER_EPOCH, &mut last));
        // Read the levels (log length, committed chain) at their
        // highest, before the checkpoint truncates them. Every instance
        // counts from zero, and this one has so far only been reopened
        // and read back from.
        let db_churned = db_snap(&db);
        run.counters.absorb(&Snap::new(), &db_churned);
        let ((), maintain_ms) = timed(|| maintain(run, &db));
        let epoch_ms = churn_ms + maintain_ms;
        run.samples()
            .push("commits_per_s", TXNS_PER_EPOCH as f64 / (epoch_ms / 1e3));
        run.counters.absorb(&db_churned, &db_snap(&db));

        let (reopened, reopen_ms) = timed(|| {
            let _s = run.tracer.span("core.reopen");
            Database::reopen(db.into_durable(), config()).expect("reopen")
        });
        db = reopened;
        run.samples().push("reopen", reopen_ms);
        if epoch + 1 == epochs {
            run.samples().push("reopen.longest_history", reopen_ms);
        }
        let recovered = db_snap(&db);
        run.values.push(
            &format!("reopen_log_gets.epoch{epoch}"),
            recovered["log.recovery_gets"],
        );
        run.values
            .push("reopen_log_gets", recovered["log.recovery_gets"]);
        run.values
            .push("reopen_replayed_records", recovered["log.replayed_records"]);
        let ((), read_ms) = timed(|| read_back(run, &db, &last));
        round_ms += epoch_ms + reopen_ms + read_ms;
    }
    run.samples().push("round", round_ms);
    run.counters.absorb(&Snap::new(), &db_snap(&db));
    let stores_after = stores.snap();
    run.counters.absorb(&stores_before, &stores_after);
    *run.counters
        .total
        .entry("bench.commits".into())
        .or_insert(0.0) += (epochs * TXNS_PER_EPOCH) as f64;
    run.values.push(
        "store_puts",
        ["store.put", "logstore.put"]
            .iter()
            .map(|k| stores_after[*k] - stores_before[*k])
            .sum(),
    );
    run.values
        .push("resident_bytes", stores.resident_bytes() as f64);
}

pub fn run(opts: Opts) -> Report {
    let mut run = Run::new(opts);

    // Set-up is one discarded epoch, restart and read-back included.
    run.setup(|run| run.warm_up(|scratch| round(scratch, 1)));
    run.measure(|run, _| round(run, EPOCHS));

    run.note_distribution(
        "transaction (gc_tick when due, begin, 4 writes, commit)",
        "us",
        "commit_us",
    );
    run.note_distribution(
        "transactions that waited for a gc_tick",
        "us",
        "gc_commit_us",
    );
    run.note_distribution("reopen", "ms", "reopen");
    run.note_distribution(
        "commits/s per epoch, restart excluded",
        "1/s",
        "commits_per_s",
    );
    let gets_by_epoch: Vec<String> = (0..EPOCHS)
        .map(|e| {
            run.values
                .median(&format!("reopen_log_gets.epoch{e}"))
                .to_string()
        })
        .collect();
    run.notes.push(format!(
        "log GETs at reopen, by epoch of the round: {}",
        gets_by_epoch.join(" -> ")
    ));
    run.notes.push(format!(
        "sizes: {EPOCHS} epochs x {TXNS_PER_EPOCH} transactions x {PAGES_PER_TXN} pages x {PAYLOAD_BYTES} B over a {RING_PAGES}-page ring, gc_tick({GC_BUDGET}) every {GC_EVERY} commits"
    ));

    let written_mib =
        (EPOCHS * TXNS_PER_EPOCH * PAGES_PER_TXN) as f64 * PAYLOAD_BYTES as f64 / crate::MIB;
    let live_bytes = RING_PAGES as f64 * PAYLOAD_BYTES as f64;
    let e2e = EndToEnd {
        round_ms: run.plain.fast("round"),
        op_geomean_ms: run.plain.fast("commit_us") / 1e3,
        op_tail_ms: run.plain.fast("gc_commit_us") / 1e3,
        work_per_s: fast_rate(run.plain.get("commits_per_s")),
        restart_ms: run.plain.fast("reopen.longest_history"),
        store_puts_per_user_mib: run.values.median("store_puts") / written_mib,
        store_bytes_per_user_byte: run.values.median("resident_bytes") / live_bytes,
    };
    layers::finish(run, NAME, e2e, written_mib * crate::MIB)
}
