//! The durable log's wire format.
//!
//! A log object is one **batch**: a 16-byte header — magic `"IQLB"`
//! (`u32`), the record count (`u32`) and the `checksum64` of everything
//! after the header (`u64`), all little-endian — then the records end to
//! end. A **record** is a tag byte (1 checkpoint, 2 allocation, 3 commit),
//! its body's length as a little-endian `u32`, and the body. Inside a body
//! every integer is an unsigned LEB128 varint, every collection a varint
//! count followed by its elements, and a blockmap root the 18-byte slot of
//! [`PhysicalLocator::to_slot`].
//!
//! A record is encoded once, when the log appends it ([`LogBatch::of`]);
//! a group-commit leader concatenates its riders' records behind one
//! header ([`LogBatch::append`]) and uploads the bytes as they are.
//!
//! Decoding is total: whatever the bytes, [`decode_batch`] returns the
//! records or [`IqError::Corruption`], and it allocates for a collection
//! only once the input is long enough to hold that many elements.

use std::collections::BTreeMap;

use iq_common::{IqError, IqResult, KeySet, NodeId, PhysicalLocator, TableId, TxnId, VersionId};
use iq_storage::checksum::checksum64;
use iq_storage::IdentityObject;

use crate::composites::CompositeImage;
use crate::log::{Checkpoint, LogRecord, RecordKind, RetentionImage};
use crate::rfrb::{PackMember, PageSet, RfRb};

const MAGIC: u32 = 0x424c_5149; // "IQLB"
/// Bytes of a batch header.
const HEADER_LEN: usize = 16;
/// Bytes in front of a record's body: its tag and its length.
const RECORD_PREFIX: usize = 5;

fn tag(kind: RecordKind) -> u8 {
    match kind {
        RecordKind::Checkpoint => 1,
        RecordKind::AllocateRange => 2,
        RecordKind::Commit => 3,
    }
}

fn corrupt(what: &str) -> IqError {
    IqError::Corruption(format!("log batch: {what}"))
}

/// Encoded records behind room for a batch header: what the log hands its
/// sink, and what a gather concatenates into one upload.
#[derive(Debug, Default)]
pub struct LogBatch {
    buf: Vec<u8>,
    records: u32,
}

impl LogBatch {
    /// A batch of `record` alone.
    pub fn of(record: &LogRecord) -> Self {
        let mut batch = Self::default();
        batch.push(record);
        batch
    }

    /// Encode `record` behind the ones already here.
    pub fn push(&mut self, record: &LogRecord) {
        if self.buf.is_empty() {
            self.buf.resize(HEADER_LEN, 0);
        }
        let start = self.buf.len();
        self.buf.push(tag(record.kind()));
        self.buf.extend_from_slice(&[0; 4]);
        let out = &mut self.buf;
        match record {
            LogRecord::Checkpoint(cp) => put_checkpoint(out, cp),
            LogRecord::AllocateRange { node, start, end } => {
                put(out, u64::from(node.0));
                put(out, *start);
                put(out, *end);
            }
            LogRecord::Commit {
                txn,
                node,
                identities,
                rfrb,
            } => {
                put(out, txn.0);
                put(out, u64::from(node.0));
                put_all(out, identities, put_identity);
                put_rfrb(out, rfrb);
            }
        }
        let len = (self.buf.len() - start - RECORD_PREFIX) as u32;
        self.buf[start + 1..start + RECORD_PREFIX].copy_from_slice(&len.to_le_bytes());
        self.records += 1;
    }

    /// Move `other`'s records behind these. An empty batch takes
    /// `other`'s buffer whole, so a batch of one is never copied.
    pub fn append(&mut self, other: LogBatch) {
        if self.records == 0 {
            *self = other;
        } else {
            self.buf.extend_from_slice(&other.buf[HEADER_LEN..]);
            self.records += other.records;
        }
    }

    /// Records in the batch.
    pub fn records(&self) -> u32 {
        self.records
    }

    /// The log object: the header written in front of the records.
    pub fn into_bytes(mut self) -> Vec<u8> {
        if self.buf.is_empty() {
            self.buf.resize(HEADER_LEN, 0);
        }
        let sum = checksum64(0, &self.buf[HEADER_LEN..]);
        self.buf[0..4].copy_from_slice(&MAGIC.to_le_bytes());
        self.buf[4..8].copy_from_slice(&self.records.to_le_bytes());
        self.buf[8..16].copy_from_slice(&sum.to_le_bytes());
        self.buf
    }
}

/// Every record of a log object, in order.
pub fn decode_batch(body: &[u8]) -> IqResult<Vec<LogRecord>> {
    if body.len() < HEADER_LEN {
        return Err(corrupt("shorter than its header"));
    }
    let word = |at: usize| u32::from_le_bytes(std::array::from_fn(|i| body[at + i]));
    if word(0) != MAGIC {
        return Err(corrupt("bad magic"));
    }
    let sum = u64::from_le_bytes(std::array::from_fn(|i| body[8 + i]));
    if checksum64(0, &body[HEADER_LEN..]) != sum {
        return Err(corrupt("checksum mismatch"));
    }
    let count = word(4) as usize;
    let mut r = Reader(&body[HEADER_LEN..]);
    let mut records = Vec::with_capacity(count.min(r.remaining() / RECORD_PREFIX));
    while let Some((kind, mut body)) = r.record()? {
        let record = match kind {
            RecordKind::Checkpoint => LogRecord::Checkpoint(body.checkpoint()?),
            RecordKind::AllocateRange => LogRecord::AllocateRange {
                node: NodeId(body.u32()?),
                start: body.u64()?,
                end: body.u64()?,
            },
            RecordKind::Commit => LogRecord::Commit {
                txn: TxnId(body.u64()?),
                node: NodeId(body.u32()?),
                identities: body.all(Reader::identity)?,
                rfrb: body.rfrb()?,
            },
        };
        body.finish()?;
        records.push(record);
    }
    if records.len() != count {
        return Err(corrupt("record count disagrees with the header"));
    }
    Ok(records)
}

// ---- encoding ----

fn put(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn put_all<T>(out: &mut Vec<u8>, items: &[T], each: fn(&mut Vec<u8>, &T)) {
    put(out, items.len() as u64);
    for item in items {
        each(out, item);
    }
}

fn put_map<K: Copy + Into<u64>, V>(
    out: &mut Vec<u8>,
    map: &BTreeMap<K, V>,
    each: fn(&mut Vec<u8>, &V),
) {
    put(out, map.len() as u64);
    for (k, v) in map {
        put(out, (*k).into());
        each(out, v);
    }
}

fn put_identity(out: &mut Vec<u8>, id: &IdentityObject) {
    put(out, u64::from(id.table.0));
    put(out, id.version.0);
    out.extend_from_slice(&id.root.to_slot());
    put(out, u64::from(id.fanout));
    put(out, id.page_watermark);
}

fn put_member(out: &mut Vec<u8>, m: &PackMember) {
    put(out, u64::from(m.table));
    put(out, m.page);
    put(out, u64::from(m.offset));
    put(out, u64::from(m.len));
}

fn put_keys(out: &mut Vec<u8>, keys: &KeySet) {
    put_all(out, keys.runs(), |out, &(start, end)| {
        put(out, start);
        put(out, end);
    });
}

fn put_page_set(out: &mut Vec<u8>, set: &PageSet) {
    put_keys(out, &set.keys);
    put_map(out, &set.blocks, |out, runs| {
        put_all(out, runs, |out, &(start, count)| {
            put(out, start);
            out.push(count);
        })
    });
    put_map(out, &set.members, |out, ranges| {
        put_all(out, ranges, |out, &(offset, len)| {
            put(out, u64::from(offset));
            put(out, u64::from(len));
        })
    });
}

fn put_rfrb(out: &mut Vec<u8>, rfrb: &RfRb) {
    put_page_set(out, &rfrb.rf);
    put_page_set(out, &rfrb.rb);
    put_map(out, &rfrb.packs, |out, members| {
        put_all(out, members, put_member)
    });
}

fn put_checkpoint(out: &mut Vec<u8>, cp: &Checkpoint) {
    put(out, cp.max_allocated);
    put_map(out, &cp.active_sets, put_keys);
    put_map(out, &cp.freelists, |out, image| {
        put(out, image.len() as u64);
        out.extend_from_slice(image);
    });
    put_map(out, &cp.composites, |out, image| {
        put_all(out, &image.members, put_member);
        let mut bits = vec![0u8; image.dead.len().div_ceil(8)];
        for (i, _) in image.dead.iter().enumerate().filter(|(_, d)| **d) {
            bits[i / 8] |= 1 << (i % 8);
        }
        out.extend_from_slice(&bits);
    });
    put_page_set(out, &cp.pending);
    match &cp.retention {
        None => out.push(0),
        Some(image) => {
            out.push(1);
            put(out, image.clock);
            put_all(out, &image.fifo, |out, &(key, expiry)| {
                put(out, key);
                put(out, expiry);
            });
        }
    }
}

// ---- decoding ----

/// The unread rest of a batch or of one record's body.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn remaining(&self) -> usize {
        self.0.len()
    }

    fn take(&mut self, n: usize) -> IqResult<&'a [u8]> {
        if n > self.0.len() {
            return Err(corrupt("truncated"));
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }

    fn byte(&mut self) -> IqResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// The next record's kind and body, or `None` at the end.
    fn record(&mut self) -> IqResult<Option<(RecordKind, Reader<'a>)>> {
        if self.0.is_empty() {
            return Ok(None);
        }
        let kind = match self.byte()? {
            1 => RecordKind::Checkpoint,
            2 => RecordKind::AllocateRange,
            3 => RecordKind::Commit,
            _ => return Err(corrupt("unknown record tag")),
        };
        let len = u32::from_le_bytes(self.take(4)?.try_into().expect("four bytes"));
        Ok(Some((kind, Reader(self.take(len as usize)?))))
    }

    /// A body must be read to its last byte.
    fn finish(&self) -> IqResult<()> {
        if !self.0.is_empty() {
            return Err(corrupt("record body longer than its fields"));
        }
        Ok(())
    }

    fn u64(&mut self) -> IqResult<u64> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.byte()?;
            let bits = u64::from(b & 0x7f);
            if shift == 63 && bits > 1 {
                return Err(corrupt("varint overflows 64 bits"));
            }
            v |= bits << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(corrupt("varint longer than 10 bytes"))
    }

    fn u32(&mut self) -> IqResult<u32> {
        u32::try_from(self.u64()?).map_err(|_| corrupt("value overflows 32 bits"))
    }

    /// A collection's length. Every element takes at least one byte, so a
    /// count past the bytes left is corrupt before anything is allocated.
    fn count(&mut self) -> IqResult<usize> {
        let n = self.u64()?;
        if n > self.0.len() as u64 {
            return Err(corrupt("count exceeds the bytes left"));
        }
        Ok(n as usize)
    }

    fn all<T>(&mut self, each: fn(&mut Self) -> IqResult<T>) -> IqResult<Vec<T>> {
        let n = self.count()?;
        (0..n).map(|_| each(self)).collect()
    }

    fn map<K: Ord, V>(
        &mut self,
        key: fn(&mut Self) -> IqResult<K>,
        value: fn(&mut Self) -> IqResult<V>,
    ) -> IqResult<BTreeMap<K, V>> {
        let n = self.count()?;
        (0..n).map(|_| Ok((key(self)?, value(self)?))).collect()
    }

    fn identity(&mut self) -> IqResult<IdentityObject> {
        let table = TableId(self.u32()?);
        let version = VersionId(self.u64()?);
        let slot = self.take(PhysicalLocator::SLOT_LEN)?;
        let root = PhysicalLocator::from_slot(slot.try_into().expect("slot length"))?
            .ok_or_else(|| corrupt("identity without a root"))?;
        Ok(IdentityObject {
            table,
            version,
            root,
            fanout: self.u32()?,
            page_watermark: self.u64()?,
        })
    }

    fn member(&mut self) -> IqResult<PackMember> {
        Ok(PackMember {
            table: self.u32()?,
            page: self.u64()?,
            offset: self.u32()?,
            len: self.u32()?,
        })
    }

    fn keys(&mut self) -> IqResult<KeySet> {
        let runs = self.all(|r| Ok((r.u64()?, r.u64()?)))?;
        let mut keys = KeySet::new();
        for (start, end) in runs {
            keys.insert_range(start, end);
        }
        Ok(keys)
    }

    fn page_set(&mut self) -> IqResult<PageSet> {
        Ok(PageSet {
            keys: self.keys()?,
            blocks: self.map(Self::u32, |r| r.all(|r| Ok((r.u64()?, r.byte()?))))?,
            members: self.map(Self::u64, |r| r.all(|r| Ok((r.u32()?, r.u32()?))))?,
        })
    }

    fn rfrb(&mut self) -> IqResult<RfRb> {
        Ok(RfRb {
            rf: self.page_set()?,
            rb: self.page_set()?,
            packs: self.map(Self::u64, |r| r.all(Self::member))?,
        })
    }

    fn composite(&mut self) -> IqResult<CompositeImage> {
        let members = self.all(Self::member)?;
        let bits = self.take(members.len().div_ceil(8))?;
        if bits
            .last()
            .is_some_and(|b| b >> ((members.len() - 1) % 8) > 1)
        {
            return Err(corrupt("death bit past the member layout"));
        }
        let dead = (0..members.len())
            .map(|i| bits[i / 8] >> (i % 8) & 1 == 1)
            .collect();
        Ok(CompositeImage { members, dead })
    }

    fn checkpoint(&mut self) -> IqResult<Checkpoint> {
        Ok(Checkpoint {
            max_allocated: self.u64()?,
            active_sets: self.map(Self::u32, Self::keys)?,
            freelists: self.map(Self::u32, |r| {
                let n = r.count()?;
                Ok(r.take(n)?.to_vec())
            })?,
            composites: self.map(Self::u64, Self::composite)?,
            pending: self.page_set()?,
            retention: match self.byte()? {
                0 => None,
                1 => Some(RetentionImage {
                    clock: self.u64()?,
                    fifo: self.all(|r| Ok((r.u64()?, r.u64()?)))?,
                }),
                _ => return Err(corrupt("bad retention flag")),
            },
        })
    }
}
