//! Golden-trace test: the Table-1 lifecycle, captured through the unified
//! event journal, must replay byte-for-byte.
//!
//! The journal's timestamps come from the virtual op-clock (never wall
//! time) and the walkthrough is single-threaded, so the JSONL rendering is
//! fully deterministic — any drift against the checked-in golden file
//! means an accounting or event-ordering change that must be reviewed.
//! Regenerate with:
//!
//! ```sh
//! cargo run -p iq-bench --bin repro -- --trace crates/iq-bench/tests/golden/table1.jsonl
//! ```
//!
//! This lives in its own integration-test binary on purpose: the tracer is
//! process-global, and sharing a process with other trace-enabling tests
//! would interleave journals.

use std::sync::Mutex;

use iq_bench::experiments;

/// Serializes the tests in this binary — they all drive the process-global
/// tracer.
static TRACER: Mutex<()> = Mutex::new(());

#[test]
fn table1_trace_matches_golden_journal() {
    let _g = TRACER.lock().unwrap();
    let journal = experiments::trace_table1(false).expect("traced walkthrough");
    let golden = include_str!("golden/table1.jsonl");

    // The lifecycle's landmark events must all be present before the
    // byte-level comparison, so a mismatch report starts from semantics.
    for kind in [
        "ObjectPut",
        "KeyRangeAlloc",
        "\"LogAppend\":{\"record\":\"Commit\"",
        "RbFlip",
        "DeferredDelete",
        "ObjectHead",
    ] {
        assert!(
            journal.contains(kind),
            "traced walkthrough lost its {kind} events"
        );
    }

    if journal != golden {
        // Line-level diff first: a full-journal assert_eq dump is unreadable.
        for (n, (got, want)) in journal.lines().zip(golden.lines()).enumerate() {
            assert_eq!(got, want, "journal diverges from golden at line {}", n + 1);
        }
        assert_eq!(
            journal.lines().count(),
            golden.lines().count(),
            "journal length diverges from golden"
        );
        unreachable!("journals differ but no line did");
    }
}

/// The packing events must flow through the same journal as everything
/// else: a packed lifecycle (pack=4 load, cold member reads, half-dead
/// overwrite, compaction) emits `PackFlush`, `RangeGet` and `Compaction`
/// events, and two identical runs render byte-for-byte.
#[test]
fn packed_lifecycle_emits_pack_events_deterministically() {
    use bytes::Bytes;
    use iq_bench::experiments::{cloud_db, write_pages};
    use iq_common::{trace, PageId, TableId};
    use iq_core::DatabaseConfig;
    use iq_engine::PageStore;

    let _g = TRACER.lock().unwrap();
    let run = || -> String {
        trace::enable(1 << 16);
        let lifecycle = || -> iq_common::IqResult<()> {
            let mut cfg = DatabaseConfig::test_small();
            cfg.retention = None;
            cfg.pack_pages = 4;
            let (db, _) = cloud_db(cfg, 1)?;
            let table = TableId(1);
            let body = |p: u64, v: u64| Bytes::from(vec![(p ^ v) as u8; 128]);
            db.commit(write_pages(&db, table, (0..16).map(|p| (p, body(p, 1))))?)?;
            // Cold member reads: ranged GETs against the composites.
            db.shared().buffer.clear();
            let rtxn = db.begin();
            {
                let pager = db.pager(rtxn)?;
                for p in 0..16u64 {
                    pager.read_page(table, PageId(p), true)?;
                }
            }
            db.rollback(rtxn)?;
            // Leave every composite half dead, then compact.
            let evens = (0..16).step_by(2).map(|p| (p, body(p, 2)));
            db.commit(write_pages(&db, table, evens)?)?;
            db.gc_drain()?;
            db.compact_tick(0.6, 100)?;
            db.gc_drain()?;
            Ok(())
        };
        let result = lifecycle();
        trace::disable();
        let journal = trace::render_jsonl(&trace::drain());
        result.expect("packed lifecycle");
        journal
    };

    let first = run();
    for kind in ["PackFlush", "RangeGet", "Compaction"] {
        assert!(
            first.contains(kind),
            "packed lifecycle lost its {kind} events"
        );
    }
    let second = run();
    assert_eq!(
        first, second,
        "the packed lifecycle's journal must replay byte-for-byte"
    );
}

#[test]
fn table1_trace_is_deterministic_under_faults() {
    let _g = TRACER.lock().unwrap();
    let first = experiments::trace_table1(true).expect("traced faulty walkthrough");
    let second = experiments::trace_table1(true).expect("traced faulty walkthrough");
    assert_eq!(
        first, second,
        "scripted faults must replay byte-for-byte in the journal"
    );
    // The fault plan actually fired: the journal records the retry path.
    assert!(first.contains("RetryAttempt"));
    assert!(first.contains("RetryBackoff"));
}
