//! The durable log's wire format (`iq_txn::codec`): every record kind
//! round-trips, the bytes of one record of each kind are pinned, and the
//! decoder is total — any input yields records or `Corruption`, never a
//! panic, and no allocation larger than the input can justify.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;

use iq_common::VersionId;
use iq_common::{BlockNum, IqError, KeySet, NodeId, ObjectKey, PhysicalLocator, TableId, TxnId};
use iq_storage::checksum::checksum64;
use iq_storage::{IdentityObject, NODE_PAGE_TAG};
use iq_txn::codec::decode_batch;
use iq_txn::rfrb::PageSet;
use iq_txn::{
    Checkpoint, CompositeRegistry, LogBatch, LogRecord, PackMember, RetentionImage, RfRb,
};
use proptest::prelude::*;

// ---- the largest single allocation this thread asks for ----

struct Tracking;

thread_local! {
    // Const-initialized and without a destructor, so the allocator can
    // touch them without allocating.
    static TRACKING: Cell<bool> = const { Cell::new(false) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    if TRACKING.with(Cell::get) {
        LARGEST.with(|l| l.set(l.get().max(size)));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`; the
// bookkeeping only reads sizes.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from `System` with `layout`, as the caller
        // guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Tracking = Tracking;

/// Decode `bytes`, returning whether it decoded and the largest single
/// allocation the decoder made. Panics if the result is an error other
/// than `Corruption`.
fn decode_tracked(bytes: &[u8]) -> (bool, usize) {
    LARGEST.with(|l| l.set(0));
    TRACKING.with(|t| t.set(true));
    let result = decode_batch(bytes);
    TRACKING.with(|t| t.set(false));
    let ok = match result {
        Ok(_) => true,
        Err(IqError::Corruption(_)) => false,
        Err(other) => panic!("not a corruption error: {other}"),
    };
    (ok, LARGEST.with(Cell::get))
}

/// What a decoder that sizes collections by the bytes left may ask for at
/// once: a collection grows to at most twice its element count, and each
/// element takes at least one input byte.
fn allocation_bound(input: usize) -> usize {
    2 * input * std::mem::size_of::<LogRecord>() + 64
}

// ---- generated records ----

/// A number of every varint length, most of them short.
fn number(rng: &mut TestRng) -> u64 {
    match rng.below(5) {
        0 => rng.below(128),
        1 => rng.below(1 << 20),
        2 => rng.below(1 << 40),
        3 => rng.next_u64(),
        _ => u64::MAX,
    }
}

fn small(rng: &mut TestRng, n: u64) -> usize {
    rng.below(n) as usize
}

fn keys(rng: &mut TestRng) -> KeySet {
    let mut keys = KeySet::new();
    for _ in 0..small(rng, 4) {
        let start = number(rng) >> 1;
        keys.insert_range(start, start + 1 + rng.below(1_000));
    }
    keys
}

fn locator(rng: &mut TestRng) -> PhysicalLocator {
    let key = ObjectKey::from_offset(number(rng) >> 1);
    match rng.below(3) {
        0 => PhysicalLocator::Object(key),
        1 => PhysicalLocator::ObjectRange {
            key,
            offset: rng.next_u64() as u32,
            len: rng.next_u64() as u32,
        },
        _ => PhysicalLocator::Blocks {
            start: BlockNum(rng.below(1 << 48)),
            count: 1 + rng.below(16) as u8,
        },
    }
}

fn member(rng: &mut TestRng, offset: u32) -> PackMember {
    PackMember {
        table: rng.next_u64() as u32,
        page: if rng.below(2) == 0 {
            rng.below(1 << 20)
        } else {
            NODE_PAGE_TAG | rng.below(1 << 20)
        },
        offset,
        len: rng.next_u64() as u32,
    }
}

fn members(rng: &mut TestRng) -> Vec<PackMember> {
    (0..1 + small(rng, 20))
        .map(|i| member(rng, i as u32 * 512))
        .collect()
}

fn page_set(rng: &mut TestRng) -> PageSet {
    let mut set = PageSet {
        keys: keys(rng),
        ..PageSet::default()
    };
    for _ in 0..small(rng, 3) {
        let runs = (0..small(rng, 4))
            .map(|_| (number(rng), rng.next_u64() as u8))
            .collect();
        set.blocks.insert(rng.next_u64() as u32, runs);
    }
    for _ in 0..small(rng, 3) {
        let ranges = (0..small(rng, 5))
            .map(|_| (rng.next_u64() as u32, rng.next_u64() as u32))
            .collect();
        set.members.insert(number(rng), ranges);
    }
    set
}

fn commit(rng: &mut TestRng) -> LogRecord {
    let identities = (0..small(rng, 3))
        .map(|_| {
            IdentityObject::new(
                TableId(rng.next_u64() as u32),
                VersionId(number(rng)),
                locator(rng),
                rng.next_u64() as u32,
                number(rng),
            )
        })
        .collect();
    let mut rfrb = RfRb {
        rf: page_set(rng),
        rb: page_set(rng),
        packs: BTreeMap::new(),
    };
    for _ in 0..small(rng, 3) {
        rfrb.packs.insert(number(rng), members(rng));
    }
    LogRecord::Commit {
        txn: TxnId(number(rng)),
        node: NodeId(rng.next_u64() as u32),
        identities,
        rfrb,
    }
}

fn checkpoint(rng: &mut TestRng) -> LogRecord {
    let registry = CompositeRegistry::new();
    for _ in 0..small(rng, 4) {
        let key = number(rng) >> 1;
        let layout = members(rng);
        registry.register(ObjectKey::from_offset(key), &layout);
        for m in &layout {
            if rng.below(3) == 0 {
                registry.mark_member_dead(key, m.offset);
            }
        }
    }
    LogRecord::Checkpoint(Checkpoint {
        max_allocated: number(rng),
        active_sets: (0..small(rng, 3))
            .map(|_| (rng.next_u64() as u32, keys(rng)))
            .collect(),
        freelists: (0..small(rng, 3))
            .map(|_| {
                let image = (0..small(rng, 40)).map(|_| rng.next_u64() as u8).collect();
                (rng.next_u64() as u32, image)
            })
            .collect(),
        composites: registry.image(),
        pending: page_set(rng),
        retention: (rng.below(2) == 0).then(|| RetentionImage {
            clock: number(rng),
            fifo: (0..small(rng, 5))
                .map(|_| (number(rng), number(rng)))
                .collect(),
        }),
    })
}

fn record(rng: &mut TestRng) -> LogRecord {
    match rng.below(3) {
        0 => checkpoint(rng),
        1 => LogRecord::AllocateRange {
            node: NodeId(rng.next_u64() as u32),
            start: number(rng),
            end: number(rng),
        },
        _ => commit(rng),
    }
}

/// A batch of one to four records of any kind.
struct Records;

impl Strategy for Records {
    type Value = Vec<LogRecord>;
    fn generate(&self, rng: &mut TestRng) -> Vec<LogRecord> {
        (0..1 + small(rng, 4)).map(|_| record(rng)).collect()
    }
}

fn encode(records: &[LogRecord]) -> Vec<u8> {
    let mut batch = LogBatch::default();
    for r in records {
        batch.push(r);
    }
    batch.into_bytes()
}

/// Rewrite `bytes`' header checksum to match its body, so a decoder gets
/// past the checksum and has to parse what follows.
fn reseal(bytes: &mut [u8]) {
    if bytes.len() >= 16 {
        let sum = checksum64(0, &bytes[16..]);
        bytes[8..16].copy_from_slice(&sum.to_le_bytes());
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Every record kind comes back as it went in, whether encoded into
    /// one batch or appended from batches of one.
    #[test]
    fn every_record_kind_round_trips(records in Records) {
        let bytes = encode(&records);
        prop_assert_eq!(decode_batch(&bytes).unwrap(), records.clone());
        let mut joined = LogBatch::default();
        for r in &records {
            joined.append(LogBatch::of(r));
        }
        prop_assert_eq!(joined.into_bytes(), bytes.clone());
    }

    /// Arbitrary bytes, as they come and behind a valid header.
    #[test]
    fn arbitrary_bytes_decode_or_fail_as_corruption(
        bytes in proptest::collection::vec(any::<u8>(), 0..400),
        count in 0u32..6,
    ) {
        let (_, largest) = decode_tracked(&bytes);
        prop_assert!(largest <= allocation_bound(bytes.len()));
        let mut framed = encode(&[]);
        framed[4..8].copy_from_slice(&count.to_le_bytes());
        framed.extend_from_slice(&bytes);
        reseal(&mut framed);
        let (_, largest) = decode_tracked(&framed);
        prop_assert!(largest <= allocation_bound(framed.len()), "{largest} B");
    }

    /// A valid batch with bytes changed, cut short or grown, its checksum
    /// made to match again: the parser itself must refuse what is wrong.
    #[test]
    fn damaged_batches_decode_or_fail_as_corruption(
        records in Records,
        edits in proptest::collection::vec((any::<u64>(), any::<u8>()), 1..4),
        cut in any::<u64>(),
    ) {
        let mut bytes = encode(&records);
        for &(at, value) in &edits {
            let at = 16 + at as usize % (bytes.len() - 16).max(1);
            if at < bytes.len() {
                bytes[at] = value;
            }
        }
        match cut % 3 {
            0 => bytes.truncate(16 + cut as usize % (bytes.len() - 15)),
            1 => bytes.push(cut as u8),
            _ => {}
        }
        reseal(&mut bytes);
        let (_, largest) = decode_tracked(&bytes);
        prop_assert!(largest <= allocation_bound(bytes.len()), "{largest} B");
    }
}

/// A count no input of this length can hold is refused before anything
/// is allocated for it.
#[test]
fn a_huge_count_is_refused_before_allocating() {
    let record = LogRecord::Commit {
        txn: TxnId(1),
        node: NodeId(0),
        identities: Vec::new(),
        rfrb: RfRb::default(),
    };
    let mut bytes = encode(&[record]);
    // The identity count sits after the tag, the length, the txn and the
    // node (one byte each here): claim 2^40 identities.
    let at = 16 + 5 + 2;
    assert_eq!(bytes[at], 0);
    let mut claim = vec![0x80, 0x80, 0x80, 0x80, 0x80, 0x20];
    let body_len = bytes.len() - 21 + claim.len() - 1;
    bytes.splice(at..=at, claim.drain(..));
    bytes[17..21].copy_from_slice(&(body_len as u32).to_le_bytes());
    reseal(&mut bytes);
    let (ok, largest) = decode_tracked(&bytes);
    assert!(!ok);
    assert!(largest < 1024, "{largest} B allocated for a 2^40 claim");
}

/// The bytes of one record of each kind: the batch header, then tag,
/// length and varint fields. A change here changes what every durable
/// log holds.
#[test]
fn one_record_of_each_kind_encodes_to_pinned_bytes() {
    let mut pending = PageSet::default();
    pending.keys.insert_range(40, 43);
    pending.blocks.insert(2, vec![(64, 4)]);
    let registry = CompositeRegistry::new();
    let layout = [
        PackMember {
            table: 1,
            page: 1,
            offset: 0,
            len: 600,
        },
        PackMember {
            table: 1,
            page: 2,
            offset: 600,
            len: 600,
        },
    ];
    registry.register(ObjectKey::from_offset(7), &layout);
    registry.mark_member_dead(7, 600);
    let checkpoint = LogRecord::Checkpoint(Checkpoint {
        max_allocated: 150,
        active_sets: [(1, (0..100).collect::<KeySet>())].into(),
        freelists: [(3, vec![1, 2])].into(),
        composites: registry.image(),
        pending,
        retention: Some(RetentionImage {
            clock: 5_000,
            fifo: vec![(30, 9_000)],
        }),
    });
    let allocation = LogRecord::AllocateRange {
        node: NodeId(1),
        start: 100,
        end: 200,
    };
    let mut rfrb = RfRb::new();
    rfrb.rf.members.insert(8_871, vec![(0, 8_232)]);
    rfrb.rb.keys.insert(8_935);
    rfrb.packs.insert(
        8_935,
        vec![PackMember {
            table: 1,
            page: NODE_PAGE_TAG | 3,
            offset: 0,
            len: 646,
        }],
    );
    let commit = LogRecord::Commit {
        txn: TxnId(42),
        node: NodeId(0),
        identities: vec![IdentityObject::new(
            TableId(1),
            VersionId(9),
            PhysicalLocator::ObjectRange {
                key: ObjectKey::from_offset(8_935),
                offset: 0,
                len: 646,
            },
            128,
            256,
        )],
        rfrb,
    };
    let hex = |records: &[LogRecord]| -> String {
        encode(records).iter().map(|b| format!("{b:02x}")).collect()
    };
    let all = [checkpoint, allocation, commit];
    let encoded: Vec<String> = all.iter().map(|r| hex(std::slice::from_ref(r))).collect();
    assert_eq!(
        encoded,
        [
            concat!(
                "49514c4201000000e9b7c082531dce6f", // "IQLB", 1 record, checksum64
                "012b000000",                       // checkpoint, 43 bytes
                "9601",
                "0101010064",
                "0103020102", // max key, active sets, freelists
                "010702010100d804",
                "0102d804d804",
                "02", // a composite and its death bits
                "01282b",
                "010201400400",   // pending keys, block runs, no members
                "018827011ea846", // retention clock and FIFO
            ),
            concat!("49514c4201000000271b9583724fd9a1", "0204000000", "0164c801"),
            concat!(
                "49514c42010000002f78791ef19e7eda",
                "033c000000", // commit, 60 bytes
                "2a00",       // txn, node
                "0101",
                "09",
                "02e7220000000000800000000086020000",
                "00",
                "8001",
                "8002",
                "000001a7450100a840", // RF: a composite member
                "01e745e8450000",     // RB: one key
                "01e74501",
                "01838080808080808040008605", // the composite's one node
            ),
        ]
    );
    assert_eq!(decode_batch(&encode(&all)).unwrap(), all);
}

/// A death mask naming a member past its composite's layout is refused,
/// and a mask within the layout decodes.
#[test]
fn a_death_bit_past_the_member_layout_is_corruption() {
    let registry = CompositeRegistry::new();
    let layout = [PackMember {
        table: 1,
        page: 1,
        offset: 0,
        len: 512,
    }];
    registry.register(ObjectKey::from_offset(7), &layout);
    let mut bytes = encode(&[LogRecord::Checkpoint(Checkpoint {
        composites: registry.image(),
        ..Checkpoint::default()
    })]);
    // The body ends in the composite's mask byte, the empty pending set
    // (three zero counts) and the retention flag.
    let mask = bytes.len() - 5;
    assert_eq!(bytes[mask..], [0; 5]);
    bytes[mask] = 0b01;
    reseal(&mut bytes);
    let Some(LogRecord::Checkpoint(cp)) = decode_batch(&bytes).unwrap().pop() else {
        panic!("not a checkpoint");
    };
    let restored = CompositeRegistry::new();
    restored.restore(cp.composites);
    assert_eq!(restored.live_fraction(ObjectKey::from_offset(7)), Some(0.0));
    bytes[mask] = 0b10;
    reseal(&mut bytes);
    let err = decode_batch(&bytes).unwrap_err();
    assert!(
        matches!(&err, IqError::Corruption(m) if m.contains("death bit")),
        "{err}"
    );
}
