//! Pack-vs-baseline equivalence property: the packed commit-flush path
//! (composite objects + ranged locators + refcounted composite GC) must
//! be semantically invisible. Random commit/rollback histories replayed
//! against a `pack_pages = 1` database and a packed one must produce
//!
//! * the same live page contents (byte-for-byte, including absence),
//! * the same logically reclaimed set — every superseded or rolled-back
//!   version unreachable, every fully-dead composite deleted, nothing
//!   live deleted — and
//! * strictly fewer PUT requests on the packed side,
//!
//! with the never-write-twice invariant intact throughout, including
//! across a compaction pass. A second test pins the composite's layout:
//! byte-exact member images laid end to end, the commit's blockmap nodes
//! among them. A third pins that compaction moves a live node member.

use std::collections::BTreeMap;

use cloudiq::common::{DetRng, PageId, PhysicalLocator, TableId};
use cloudiq::core::tablestore::LATEST;
use cloudiq::core::{Database, DatabaseConfig};
use cloudiq::engine::PageStore;
use cloudiq::objectstore::{IoOp, ObjectBackend};
use cloudiq::storage::{Blockmap, CountingKeySource, Page, PageIo, PageKind, NODE_PAGE_TAG};

const TABLE: TableId = TableId(1);
const PAGE_UNIVERSE: u64 = 96;

/// One scripted transaction: the distinct pages it writes and whether it
/// commits. Page bodies are derived from `(page, round)`, so the script
/// fully determines every byte either database should serve.
struct Step {
    pages: Vec<u64>,
    commit: bool,
}

fn body(page: u64, round: u64) -> bytes::Bytes {
    let mut buf = vec![0u8; 256];
    for (i, b) in buf.iter_mut().enumerate() {
        *b = (page.wrapping_mul(31) ^ round.wrapping_mul(131) ^ i as u64) as u8;
    }
    bytes::Bytes::from(buf)
}

fn script(seed: u64, rounds: u64) -> Vec<Step> {
    let mut rng = DetRng::new(seed);
    (0..rounds)
        .map(|_| {
            let count = 1 + rng.below(24) as usize;
            let mut pages: Vec<u64> = Vec::with_capacity(count);
            while pages.len() < count {
                let p = rng.below(PAGE_UNIVERSE);
                if !pages.contains(&p) {
                    pages.push(p);
                }
            }
            Step {
                pages,
                commit: rng.below(4) != 0,
            }
        })
        .collect()
}

struct Replay {
    db: Database,
    space: cloudiq::common::DbSpaceId,
    /// Expected committed contents: page -> round of the live version.
    model: BTreeMap<u64, u64>,
}

fn replay(steps: &[Step], pack_pages: usize) -> Replay {
    let mut cfg = DatabaseConfig::test_small();
    cfg.retention = None;
    cfg.pack_pages = pack_pages;
    let db = Database::create(cfg).unwrap();
    let space = db.create_cloud_dbspace("clouddata").unwrap();
    db.create_table(TABLE, space).unwrap();

    let mut model = BTreeMap::new();
    for (round, step) in steps.iter().enumerate() {
        let round = round as u64;
        let txn = db.begin();
        {
            let pager = db.pager(txn).unwrap();
            for &p in &step.pages {
                pager
                    .write_page(TABLE, PageId(p), PageKind::Data, body(p, round), txn)
                    .unwrap();
            }
        }
        if step.commit {
            db.commit(txn).unwrap();
            for &p in &step.pages {
                model.insert(p, round);
            }
        } else {
            db.rollback(txn).unwrap();
        }
    }
    db.gc_drain().unwrap();
    Replay { db, space, model }
}

/// Every page the model knows must serve its exact bytes; every page the
/// model never committed must be absent.
fn assert_contents(r: &Replay, label: &str) {
    r.db.shared().buffer.clear();
    let txn = r.db.begin();
    let pager = r.db.pager(txn).unwrap();
    for p in 0..PAGE_UNIVERSE {
        match r.model.get(&p) {
            Some(&round) => {
                let page = pager.read_page(TABLE, PageId(p), true).unwrap();
                assert_eq!(page.body, body(p, round), "{label}: page {p}");
            }
            None => {
                assert!(
                    pager.read_page(TABLE, PageId(p), true).is_err(),
                    "{label}: page {p} was never committed yet reads back"
                );
            }
        }
    }
    r.db.rollback(txn).unwrap();
}

fn puts(r: &Replay) -> u64 {
    r.db.cloud_store(r.space)
        .unwrap()
        .stats
        .snapshot()
        .op(IoOp::Put)
        .count
}

/// A composite is its members' sealed images laid end to end: each member
/// starts where the one before it ends, the object is exactly the sum of
/// their lengths, and each member is byte for byte what `Page::seal`
/// returns — no block padding inside or after any of them. The commit's
/// blockmap nodes (a root over two leaves here) are members too: the
/// commit is that one PUT.
#[test]
fn packed_members_are_contiguous_and_the_object_is_their_sum() {
    let mut cfg = DatabaseConfig::test_small();
    cfg.pack_pages = 8;
    cfg.blockmap_fanout = 4;
    let storage = cfg.storage;
    let db = Database::create(cfg).unwrap();
    let space = db.create_cloud_dbspace("clouddata").unwrap();
    db.create_table(TABLE, space).unwrap();

    // Bodies of assorted lengths, some compressible, some not.
    let mut rng = DetRng::new(11);
    let bodies: Vec<bytes::Bytes> = (0..8u64)
        .map(|p| {
            let len = 90 + 173 * p as usize;
            let noisy = p % 2 == 0;
            (0..len)
                .map(|i| {
                    if noisy {
                        rng.below(256) as u8
                    } else {
                        (i / 64) as u8
                    }
                })
                .collect::<Vec<u8>>()
                .into()
        })
        .collect();
    let txn = db.begin();
    {
        let pager = db.pager(txn).unwrap();
        for (p, b) in bodies.iter().enumerate() {
            pager
                .write_page(TABLE, PageId(p as u64), PageKind::Data, b.clone(), txn)
                .unwrap();
        }
    }
    db.commit(txn).unwrap();

    let ts = db.shared().table_store(TABLE).unwrap();
    let dbspace = db.dbspace(space).unwrap();
    let keys = CountingKeySource::default();
    let io = PageIo {
        space: &dbspace,
        keys: &keys,
    };
    let reader = db.begin();
    let mut locs = Vec::new();
    for p in 0..bodies.len() as u64 {
        locs.push(ts.resolve(reader, LATEST, PageId(p), &io).unwrap().unwrap());
    }
    // The commit's blockmap nodes ride in the same object.
    let identity = ts.identity().unwrap();
    let mut tree = Blockmap::open(identity.fanout as usize, identity.root, &io).unwrap();
    tree.live_data_locators(&io).unwrap();
    let nodes = tree.live_node_locators();
    assert_eq!(nodes.len(), 3);
    locs.extend(&nodes);
    let mut members: Vec<_> = locs
        .iter()
        .map(|loc| match *loc {
            PhysicalLocator::ObjectRange { key, offset, len } => (key, offset, len),
            other => panic!("{other:?} is not a composite member"),
        })
        .collect();
    members.sort();
    let key = members[0].0;
    assert!(members.iter().all(|m| m.0 == key), "one composite");
    assert_eq!(members[0].1, 0);
    for w in members.windows(2) {
        assert_eq!(w[1].1, w[0].1 + w[0].2, "members {w:?} are not contiguous");
    }
    let store = db.cloud_store(space).unwrap();
    store.settle();
    let object = ObjectBackend::get(store.as_ref(), key).unwrap();
    let sum: u32 = members.iter().map(|m| m.2).sum();
    assert_eq!(object.len(), sum as usize, "object is Σ len");
    assert_eq!(store.stats.snapshot().op(IoOp::Put).count, 1, "one PUT");
    let mut unaligned = 0;
    for &(_, offset, len) in &members {
        let image = &object[offset as usize..(offset + len) as usize];
        let page = Page::unseal(image).unwrap();
        match page.kind {
            PageKind::Blockmap => assert!(page.id.0 & NODE_PAGE_TAG != 0),
            _ => assert_eq!(page.body, bodies[page.id.0 as usize]),
        }
        assert_eq!(&page.seal(&storage).unwrap().0[..], image);
        unaligned += usize::from(len % storage.block_size() != 0);
    }
    assert!(unaligned > 0, "no member exercised a short last block");
    db.rollback(reader).unwrap();
}

#[test]
fn random_histories_pack_equivalent_with_fewer_puts() {
    for seed in [7u64, 23, 4242] {
        let steps = script(seed, 14);
        let base = replay(&steps, 1);
        let packed = replay(&steps, 8);

        // Same live contents, byte for byte.
        assert_contents(&base, "baseline");
        assert_contents(&packed, "packed");
        assert_eq!(base.model, packed.model, "replays ran the same script");

        // Strictly fewer PUTs on the packed side.
        let (base_puts, packed_puts) = (puts(&base), puts(&packed));
        assert!(
            packed_puts < base_puts,
            "seed {seed}: packing must cut PUTs ({packed_puts} vs {base_puts})"
        );

        // Never-write-twice holds in both geometries.
        for r in [&base, &packed] {
            assert_eq!(r.db.cloud_store(r.space).unwrap().max_write_count(), 1);
            assert_eq!(r.db.shared().txns.active_count(), 0);
        }

        // GC parity, part 1: both drains ran to completion — nothing
        // reclaimable is still pending on either side.
        let registry = packed.db.shared().txns.composites();
        assert!(
            registry.take_fully_dead().is_empty(),
            "seed {seed}: fully-dead composites left pending after drain"
        );
        assert_eq!(base.db.shared().txns.composites().stats().registered, 0);

        // A compaction pass must be semantically invisible too.
        packed.db.compact_tick(0.7, 10_000).unwrap();
        packed.db.gc_drain().unwrap();
        assert_contents(&packed, "packed+compacted");
        assert_eq!(
            packed
                .db
                .cloud_store(packed.space)
                .unwrap()
                .max_write_count(),
            1
        );

        // GC parity, part 2 — the reclaimed set: overwrite every live
        // page once, drain, and every composite from the history must be
        // reclaimed while the final commit's stay live. The baseline's
        // equivalent (every superseded key deleted) is covered by its
        // contents check plus the chain having drained above.
        let live: Vec<u64> = packed.model.keys().copied().collect();
        let before = registry.stats();
        let txn = packed.db.begin();
        {
            let pager = packed.db.pager(txn).unwrap();
            for &p in &live {
                pager
                    .write_page(TABLE, PageId(p), PageKind::Data, body(p, 1_000), txn)
                    .unwrap();
            }
        }
        packed.db.commit(txn).unwrap();
        packed.db.gc_drain().unwrap();
        let after = registry.stats();
        let final_composites = after.registered - before.registered;
        assert_eq!(
            registry.len() as u64,
            final_composites,
            "seed {seed}: every pre-overwrite composite must be reclaimed, none leaked"
        );
        assert!(registry.take_fully_dead().is_empty());
    }
}

/// A composite whose only survivor is a blockmap node is not pinned until
/// the table happens to change under that node: compaction dirties the
/// node, its commit's cascade rewrites it, and the GC reclaims the donor.
#[test]
fn compaction_reclaims_a_composite_whose_only_survivor_is_a_node() {
    let mut cfg = DatabaseConfig::test_small();
    cfg.retention = None;
    cfg.pack_pages = 2;
    cfg.blockmap_fanout = 4;
    let db = Database::create(cfg.clone()).unwrap();
    let space = db.create_cloud_dbspace("clouddata").unwrap();
    db.create_table(TABLE, space).unwrap();
    let commit = |pages: &[u64], round: u64| {
        let txn = db.begin();
        {
            let pager = db.pager(txn).unwrap();
            for &p in pages {
                pager
                    .write_page(TABLE, PageId(p), PageKind::Data, body(p, round), txn)
                    .unwrap();
            }
        }
        db.commit(txn).unwrap();
    };
    // Pages 0 and 4 fill the first composite. Page 5 rides in the last
    // one with the whole cascade: leaf 0 (over page 0), leaf 1 (over
    // pages 4 and 5) and the root.
    commit(&[0, 4, 5], 1);
    let ts = db.shared().table_store(TABLE).unwrap();
    let PhysicalLocator::ObjectRange { key: tail, .. } = ts.identity().unwrap().root else {
        panic!("the root is a member of the commit's last composite");
    };
    // Rewriting page 5 kills its member, leaf 1 and the root: leaf 0 is
    // the last composite's only survivor.
    commit(&[5], 2);
    db.gc_drain().unwrap();
    let registry = db.shared().txns.composites();
    assert_eq!(registry.live_fraction(tail), Some(0.25));

    assert_eq!(db.compact_tick(0.5, 10).unwrap(), 1, "the node moved");
    db.gc_drain().unwrap();
    assert_eq!(registry.live_fraction(tail), None, "the donor is reclaimed");
    let store = db.cloud_store(space).unwrap();
    assert!(!store.live_keys().contains(&tail));
    assert_eq!(store.max_write_count(), 1);
    let stats = &db.shared().pack_stats;
    let moved = |c: &std::sync::atomic::AtomicU64| c.load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(
        (
            moved(&stats.compaction_rewritten),
            moved(&stats.compaction_stale_skips)
        ),
        (1, 0),
        "a live node counts as rewritten, not dead"
    );

    // The moved tree still maps every page, read back from storage.
    let reopened = Database::reopen(db.into_durable(), cfg).unwrap();
    let txn = reopened.begin();
    let pager = reopened.pager(txn).unwrap();
    for (p, round) in [(0, 1), (4, 1), (5, 2)] {
        let page = pager.read_page(TABLE, PageId(p), true).unwrap();
        assert_eq!(page.body, body(p, round), "page {p}");
    }
    reopened.rollback(txn).unwrap();
}
