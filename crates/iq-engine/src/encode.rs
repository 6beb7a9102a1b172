//! Column encodings: dictionary encoding and the n-bit representation.
//!
//! "Columnar data in SAP IQ are compressed using the dictionary-encoding
//! and the n-bit representation" (§1). Strings are mapped through a
//! per-column [`Dictionary`] to dense codes; integers (and codes, and
//! dates) are stored frame-of-reference bit-packed: subtract the chunk
//! minimum, then pack each delta in exactly as many bits as the largest
//! delta needs. Floats are stored raw (they stand in for IQ's decimals).
//! The page-level LZ compressor in `iq-storage` runs on top of whatever
//! this module emits.

use std::collections::HashMap;
use std::sync::Arc;

use iq_common::{IqError, IqResult};
use serde::{Deserialize, Serialize};

use crate::chunk::Col;
use crate::mask::Mask;

/// Per-column string dictionary (built during load, stable thereafter).
#[derive(Debug, Default, Clone)]
pub struct Dictionary {
    strings: Vec<Arc<str>>,
    index: HashMap<Arc<str>, u32>,
}

impl Dictionary {
    /// Empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a string, returning its code.
    pub fn encode(&mut self, s: &str) -> u32 {
        if let Some(&c) = self.index.get(s) {
            return c;
        }
        let arc: Arc<str> = Arc::from(s);
        let code = self.strings.len() as u32;
        self.strings.push(Arc::clone(&arc));
        self.index.insert(arc, code);
        code
    }

    /// Look up a code.
    pub fn decode(&self, code: u32) -> IqResult<Arc<str>> {
        self.strings
            .get(code as usize)
            .cloned()
            .ok_or_else(|| IqError::Corruption(format!("dictionary code {code} out of range")))
    }

    /// Code for a string, if interned (query-time constant lookup).
    pub fn lookup(&self, s: &str) -> Option<u32> {
        self.index.get(s).copied()
    }

    /// Number of distinct strings.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }
}

impl Serialize for Dictionary {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let strs: Vec<&str> = self.strings.iter().map(AsRef::as_ref).collect();
        strs.serialize(serializer)
    }
}

impl<'de> Deserialize<'de> for Dictionary {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let strs = Vec::<String>::deserialize(deserializer)?;
        let mut d = Dictionary::new();
        for s in strs {
            d.encode(&s);
        }
        Ok(d)
    }
}

/// Pack `deltas` into `width` bits each, least-significant bit first,
/// appending whole 64-bit words (and a final partial one) to `out`.
fn pack_bits(deltas: impl Iterator<Item = u64>, width: u32, out: &mut Vec<u8>) {
    if width == 0 {
        return;
    }
    let keep = u64::MAX >> (64 - width);
    let (mut acc, mut bits) = (0u128, 0u32);
    for d in deltas {
        acc |= ((d & keep) as u128) << bits;
        bits += width;
        if bits >= 64 {
            out.extend_from_slice(&(acc as u64).to_le_bytes());
            acc >>= 64;
            bits -= 64;
        }
    }
    out.extend_from_slice(&(acc as u64).to_le_bytes()[..bits.div_ceil(8) as usize]);
}

/// Up to eight bytes as a little-endian word, zero-extended.
pub(crate) fn le_word(bytes: &[u8]) -> u64 {
    let mut le = [0u8; 8];
    le[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(le)
}

/// The packed bytes of `count` values of `width` bits, or `Corruption`
/// when `bytes` is too short to hold them (checked before anything is
/// allocated for the values).
fn packed_slice(bytes: &[u8], width: u32, count: usize) -> IqResult<&[u8]> {
    if width > 64 {
        return Err(IqError::Corruption(format!("bit width {width}")));
    }
    count
        .checked_mul(width as usize)
        .and_then(|bits| bytes.get(..bits.div_ceil(8)))
        .ok_or_else(|| IqError::Corruption("packed column truncated".into()))
}

/// Unpack `count` values of `width` bits from `packed` (a
/// [`packed_slice`]) in order: byte-aligned widths are straight copies,
/// the rest shift out of a 64-bit window that takes the next word when a
/// value runs past its end.
fn unpack_bits(packed: &[u8], width: u32, count: usize, mut emit: impl FnMut(u64)) {
    if width == 0 {
        (0..count).for_each(|_| emit(0));
    } else if width.is_multiple_of(8) {
        packed
            .chunks_exact(width as usize / 8)
            .for_each(|c| emit(le_word(c)));
    } else {
        let keep = u64::MAX >> (64 - width);
        let mut words = packed.chunks(8).map(le_word);
        let mut window = words.next().unwrap_or(0);
        // Bits of `window` already consumed.
        let mut used = 0u32;
        for _ in 0..count {
            let mut value = window >> used;
            used += width;
            if used >= 64 {
                window = words.next().unwrap_or(0);
                used -= 64;
                if used > 0 {
                    value |= window << (width - used);
                }
            }
            emit(value & keep);
        }
    }
}

/// Frame-of-reference n-bit encode: `min i64 | width u8 | packed`.
fn encode_for_nbit(values: impl Iterator<Item = i64> + Clone, out: &mut Vec<u8>) {
    let min = values.clone().min().unwrap_or(0);
    let max = values.clone().max().unwrap_or(0);
    let width = 64 - (max.wrapping_sub(min) as u64).leading_zeros();
    out.extend_from_slice(&min.to_le_bytes());
    out.push(width as u8);
    pack_bits(values.map(|v| v.wrapping_sub(min) as u64), width, out);
}

/// A validated n-bit payload: `count` values of `width` bits over `min`.
struct NBit<'a> {
    min: i64,
    width: u32,
    count: usize,
    packed: &'a [u8],
}

impl<'a> NBit<'a> {
    fn parse(payload: &'a [u8], count: usize) -> IqResult<Self> {
        let (head, rest) = payload
            .split_at_checked(9)
            .ok_or_else(|| IqError::Corruption("n-bit column header truncated".into()))?;
        let width = head[8] as u32;
        Ok(Self {
            min: i64::from_le_bytes(head[..8].try_into().expect("8 header bytes")),
            width,
            count,
            packed: packed_slice(rest, width, count)?,
        })
    }

    /// Decode in one pass into the final vector: `f` of each value, only
    /// of the rows `sel` selects when given.
    fn collect<T>(&self, sel: Option<&Mask>, f: impl Fn(i64) -> IqResult<T>) -> IqResult<Vec<T>> {
        let mut out = Vec::with_capacity(sel.map_or(self.count, Mask::count));
        let (mut row, mut failed) = (0usize, None);
        unpack_bits(self.packed, self.width, self.count, |delta| {
            if failed.is_none() && sel.is_none_or(|m| m.get(row)) {
                match f(self.min.wrapping_add(delta as i64)) {
                    Ok(v) => out.push(v),
                    Err(e) => failed = Some(e),
                }
            }
            row += 1;
        });
        failed.map_or(Ok(out), Err)
    }
}

const TAG_I64: u8 = 0;
const TAG_F64: u8 = 1;
const TAG_STR: u8 = 2;
const TAG_DATE: u8 = 3;

/// Encode a column into a page body. String columns must carry codes via
/// `str_codes` (the writer interns through the dictionary first).
pub fn encode_column(col: &Col, str_codes: Option<&[u32]>) -> IqResult<Vec<u8>> {
    let header = |tag: u8| {
        let mut out = Vec::with_capacity(14 + col.len() * 8);
        out.push(tag);
        out.extend_from_slice(&(col.len() as u32).to_le_bytes());
        out
    };
    Ok(match col {
        Col::I64(v) => {
            let mut out = header(TAG_I64);
            encode_for_nbit(v.iter().copied(), &mut out);
            out
        }
        Col::Date(v) => {
            let mut out = header(TAG_DATE);
            encode_for_nbit(v.iter().map(|&x| x as i64), &mut out);
            out
        }
        Col::F64(v) => {
            let mut out = header(TAG_F64);
            v.iter()
                .for_each(|x| out.extend_from_slice(&x.to_le_bytes()));
            out
        }
        Col::Str(v) => {
            let codes = str_codes
                .ok_or_else(|| IqError::Invalid("string column needs dictionary codes".into()))?;
            if codes.len() != v.len() {
                return Err(IqError::Invalid("code count mismatch".into()));
            }
            let mut out = header(TAG_STR);
            encode_for_nbit(codes.iter().map(|&c| c as i64), &mut out);
            out
        }
        Col::Bool(_) => return Err(IqError::Invalid("bool columns never persist".into())),
    })
}

/// Split a column image into `(tag, row count, payload)`. A page whose
/// stored count differs from `rows` — what the row-group metadata says it
/// holds — is corrupt, and is refused here, before any allocation sized
/// by that count.
fn image(bytes: &[u8], rows: Option<usize>) -> IqResult<(u8, usize, &[u8])> {
    let (head, payload) = bytes
        .split_at_checked(5)
        .ok_or_else(|| IqError::Corruption("column image truncated".into()))?;
    let count = u32::from_le_bytes(head[1..].try_into().expect("4 count bytes")) as usize;
    match rows {
        Some(rows) if rows != count => Err(IqError::Corruption(format!(
            "column page holds {count} rows, its row group {rows}"
        ))),
        _ => Ok((head[0], count, payload)),
    }
}

/// Decode a page body back into a column; `dict` resolves string codes.
/// Trusts the row count stored in the image — readers that know how many
/// rows the page must hold use [`decode_rows`].
pub fn decode_column(bytes: &[u8], dict: Option<&Dictionary>) -> IqResult<Col> {
    decode_rows(bytes, dict, None, None)
}

/// Decode a page body that must hold exactly `rows` rows when given
/// (`Corruption` otherwise), keeping only the rows `sel` selects when
/// given: an unselected row's value — a string above all — is never
/// materialized.
pub fn decode_rows(
    bytes: &[u8],
    dict: Option<&Dictionary>,
    rows: Option<usize>,
    sel: Option<&Mask>,
) -> IqResult<Col> {
    let (tag, count, payload) = image(bytes, rows)?;
    if sel.is_some_and(|m| m.len() != count) {
        return Err(IqError::Invalid(
            "selection length differs from page".into(),
        ));
    }
    match tag {
        TAG_I64 => Ok(Col::I64(NBit::parse(payload, count)?.collect(sel, Ok)?)),
        TAG_DATE => Ok(Col::Date(
            NBit::parse(payload, count)?.collect(sel, |v| Ok(v as i32))?,
        )),
        TAG_F64 => {
            let raw = count
                .checked_mul(8)
                .and_then(|n| payload.get(..n))
                .ok_or_else(|| IqError::Corruption("float column truncated".into()))?;
            let value = |c: &[u8]| f64::from_le_bytes(c.try_into().expect("8-byte value"));
            Ok(Col::F64(match sel {
                Some(m) => m
                    .iter_set()
                    .map(|i| value(&raw[i * 8..i * 8 + 8]))
                    .collect(),
                None => raw.chunks_exact(8).map(value).collect(),
            }))
        }
        TAG_STR => {
            let dict =
                dict.ok_or_else(|| IqError::Invalid("string column needs a dictionary".into()))?;
            Ok(Col::Str(
                NBit::parse(payload, count)?.collect(sel, |c| dict.decode(c as u32))?,
            ))
        }
        other => Err(IqError::Corruption(format!("unknown column tag {other}"))),
    }
}

/// Decode a string column image to its raw dictionary codes, skipping
/// string materialization entirely — the scan's dictionary-domain filter
/// path compares these `u32`s against code literals instead of cloning an
/// `Arc<str>` per row.
pub fn decode_codes(bytes: &[u8]) -> IqResult<Vec<u32>> {
    decode_codes_as(bytes, None, |c| c)
}

/// [`decode_codes`] straight into the caller's code type, for a page that
/// must hold `rows` rows when given.
pub(crate) fn decode_codes_as<T>(
    bytes: &[u8],
    rows: Option<usize>,
    f: impl Fn(u32) -> T,
) -> IqResult<Vec<T>> {
    let (tag, count, payload) = image(bytes, rows)?;
    if tag != TAG_STR {
        return Err(IqError::Invalid(format!(
            "code decode on non-string column (tag {tag})"
        )));
    }
    NBit::parse(payload, count)?.collect(None, |c| Ok(f(c as u32)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn dictionary_interns_stably() {
        let mut d = Dictionary::new();
        let a = d.encode("FRANCE");
        let b = d.encode("GERMANY");
        let a2 = d.encode("FRANCE");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(d.decode(b).unwrap().as_ref(), "GERMANY");
        assert_eq!(d.lookup("FRANCE"), Some(a));
        assert_eq!(d.lookup("missing"), None);
        assert!(d.decode(99).is_err());
    }

    #[test]
    fn dictionary_serde_roundtrip() {
        let mut d = Dictionary::new();
        d.encode("x");
        d.encode("y");
        let json = serde_json::to_string(&d).unwrap();
        let back: Dictionary = serde_json::from_str(&json).unwrap();
        assert_eq!(back.lookup("y"), Some(1));
        assert_eq!(back.len(), 2);
    }

    #[test]
    fn i64_roundtrip_narrow_and_wide() {
        for values in [
            vec![5i64, 5, 5, 5],              // width 0
            vec![100, 101, 102, 103],         // width 2
            vec![-1_000_000, 0, 1_000_000],   // wide
            vec![i64::MIN / 2, i64::MAX / 2], // very wide
            vec![42],                         // single
        ] {
            let enc = encode_column(&Col::I64(values.clone()), None).unwrap();
            let dec = decode_column(&enc, None).unwrap();
            assert_eq!(dec.i64s(), &values[..]);
        }
    }

    #[test]
    fn nbit_saves_space_on_narrow_ranges() {
        let values: Vec<i64> = (0..1000).map(|i| 1_000_000 + i % 4).collect();
        let enc = encode_column(&Col::I64(values), None).unwrap();
        // 2 bits per value: ~250 bytes + headers, vs 8000 raw.
        assert!(enc.len() < 400, "len={}", enc.len());
    }

    #[test]
    fn str_roundtrip_through_dictionary() {
        let mut dict = Dictionary::new();
        let values: Vec<Arc<str>> = ["AIR", "RAIL", "AIR", "TRUCK"]
            .iter()
            .map(|s| Arc::from(*s))
            .collect();
        let codes: Vec<u32> = values.iter().map(|s| dict.encode(s)).collect();
        let enc = encode_column(&Col::Str(values.clone()), Some(&codes)).unwrap();
        let dec = decode_column(&enc, Some(&dict)).unwrap();
        assert_eq!(dec.strs(), &values[..]);
        assert_eq!(dict.len(), 3);
    }

    #[test]
    fn decode_codes_skips_materialization() {
        let mut dict = Dictionary::new();
        let values: Vec<Arc<str>> = ["AIR", "RAIL", "AIR", "TRUCK"]
            .iter()
            .map(|s| Arc::from(*s))
            .collect();
        let codes: Vec<u32> = values.iter().map(|s| dict.encode(s)).collect();
        let enc = encode_column(&Col::Str(values), Some(&codes)).unwrap();
        // No dictionary needed: raw codes come straight off the page.
        assert_eq!(decode_codes(&enc).unwrap(), codes);
        // Non-string images are rejected.
        let enc = encode_column(&Col::I64(vec![1, 2]), None).unwrap();
        assert!(decode_codes(&enc).is_err());
        assert!(decode_codes(&[2, 1]).is_err());
    }

    #[test]
    fn f64_and_date_roundtrip() {
        let f = vec![1.25f64, -3.5, 0.0, f64::MAX];
        let enc = encode_column(&Col::F64(f.clone()), None).unwrap();
        assert_eq!(decode_column(&enc, None).unwrap().f64s(), &f[..]);

        let d = vec![10_000i32, 10_500, 9_000];
        let enc = encode_column(&Col::Date(d.clone()), None).unwrap();
        assert_eq!(decode_column(&enc, None).unwrap().dates(), &d[..]);
    }

    #[test]
    fn errors_on_bad_input() {
        assert!(encode_column(&Col::Bool(vec![true]), None).is_err());
        assert!(encode_column(&Col::Str(vec!["a".into()]), None).is_err());
        assert!(encode_column(&Col::Str(vec!["a".into()]), Some(&[1, 2])).is_err());
        assert!(decode_column(&[9, 0, 0, 0, 0], None).is_err()); // bad tag
        assert!(decode_column(&[0, 1], None).is_err()); // truncated
        let mut dict = Dictionary::new();
        let codes = [dict.encode("z")];
        let enc = encode_column(&Col::Str(vec!["z".into()]), Some(&codes)).unwrap();
        assert!(decode_column(&enc, None).is_err()); // dict required
    }

    // ------------------------------------------------------------------
    // The bit-fragment loops the word-at-a-time kernels replaced, and the
    // encoder built on them: the definitions the new ones must match.
    // ------------------------------------------------------------------

    fn pack_bits_bitloop(deltas: &[u64], width: u32) -> Vec<u8> {
        if width == 0 {
            return Vec::new();
        }
        let total_bits = deltas.len() * width as usize;
        let mut out = vec![0u8; total_bits.div_ceil(8)];
        let mut bit = 0usize;
        for &v in deltas {
            let mut remaining = width;
            let mut val = v;
            while remaining > 0 {
                let byte = bit / 8;
                let off = (bit % 8) as u32;
                let fit = (8 - off).min(remaining);
                out[byte] |= ((val & ((1u64 << fit) - 1)) as u8) << off;
                val >>= fit;
                bit += fit as usize;
                remaining -= fit;
            }
        }
        out
    }

    fn unpack_bits_bitloop(bytes: &[u8], width: u32, count: usize) -> IqResult<Vec<u64>> {
        if width == 0 {
            return Ok(vec![0; count]);
        }
        if width > 64 {
            return Err(IqError::Corruption(format!("bit width {width}")));
        }
        let need = (count * width as usize).div_ceil(8);
        if bytes.len() < need {
            return Err(IqError::Corruption("packed column truncated".into()));
        }
        let mut out = Vec::with_capacity(count);
        let mut bit = 0usize;
        for _ in 0..count {
            let mut val = 0u64;
            let mut got = 0u32;
            while got < width {
                let byte = bit / 8;
                let off = (bit % 8) as u32;
                let fit = (8 - off).min(width - got);
                let part = ((bytes[byte] >> off) as u64) & ((1u64 << fit) - 1);
                val |= part << got;
                got += fit;
                bit += fit as usize;
            }
            out.push(val);
        }
        Ok(out)
    }

    fn encode_for_nbit_parent(values: &[i64]) -> Vec<u8> {
        let min = values.iter().copied().min().unwrap_or(0);
        let max = values.iter().copied().max().unwrap_or(0);
        let range = (max as i128 - min as i128) as u128;
        let width = if range == 0 {
            0
        } else {
            128 - range.leading_zeros()
        };
        let deltas: Vec<u64> = values
            .iter()
            .map(|&v| (v as i128 - min as i128) as u64)
            .collect();
        let mut out = min.to_le_bytes().to_vec();
        out.push(width as u8);
        out.extend_from_slice(&pack_bits_bitloop(&deltas, width));
        out
    }

    fn encode_column_parent(col: &Col, str_codes: Option<&[u32]>) -> Vec<u8> {
        let (tag, body) = match col {
            Col::I64(v) => (TAG_I64, encode_for_nbit_parent(v)),
            Col::Date(v) => {
                let widened: Vec<i64> = v.iter().map(|&x| x as i64).collect();
                (TAG_DATE, encode_for_nbit_parent(&widened))
            }
            Col::F64(v) => (TAG_F64, v.iter().flat_map(|x| x.to_le_bytes()).collect()),
            Col::Str(_) => {
                let widened: Vec<i64> = str_codes.unwrap().iter().map(|&c| c as i64).collect();
                (TAG_STR, encode_for_nbit_parent(&widened))
            }
            Col::Bool(_) => unreachable!("bool columns never persist"),
        };
        let mut out = vec![tag];
        out.extend_from_slice(&(col.len() as u32).to_le_bytes());
        out.extend_from_slice(&body);
        out
    }

    fn unpack(bytes: &[u8], width: u32, count: usize) -> IqResult<Vec<u64>> {
        let packed = packed_slice(bytes, width, count)?;
        let mut out = Vec::with_capacity(count);
        unpack_bits(packed, width, count, |v| out.push(v));
        Ok(out)
    }

    #[test]
    fn unpack_matches_the_bit_loop_at_every_width() {
        // Counts off the 8- and 64-value grid, values using every bit.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for width in 0..=64u32 {
            for count in [0usize, 1, 7, 8, 9, 63, 64, 65, 200] {
                let keep = if width == 0 {
                    0
                } else {
                    u64::MAX >> (64 - width)
                };
                let values: Vec<u64> = (0..count)
                    .map(|_| {
                        x = x
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        (x ^ (x >> 29)) & keep
                    })
                    .collect();
                let packed = pack_bits_bitloop(&values, width);
                let mut ours = Vec::new();
                pack_bits(values.iter().copied(), width, &mut ours);
                assert_eq!(ours, packed, "pack width {width} count {count}");
                assert_eq!(unpack(&packed, width, count).unwrap(), values);
                assert_eq!(unpack_bits_bitloop(&packed, width, count).unwrap(), values);
                // Trailing bytes are ignored; a missing one is corruption.
                let mut longer = packed.clone();
                longer.extend_from_slice(&[0xff; 9]);
                assert_eq!(unpack(&longer, width, count).unwrap(), values);
                if !packed.is_empty() {
                    assert!(matches!(
                        unpack(&packed[..packed.len() - 1], width, count),
                        Err(IqError::Corruption(_))
                    ));
                }
            }
        }
        assert!(matches!(
            unpack(&[0; 16], 65, 1),
            Err(IqError::Corruption(_))
        ));
        assert!(matches!(
            unpack(&[0; 16], 64, usize::MAX),
            Err(IqError::Corruption(_))
        ));
    }

    #[test]
    fn forged_row_count_is_corruption_not_an_allocation() {
        // 14 bytes off a device: width 0, count 2³²−1. Trusting the count
        // would allocate 32 GiB; the group's row count refuses it first.
        let mut forged = encode_column(&Col::I64(vec![7; 10]), None).unwrap();
        assert_eq!(forged.len(), 14);
        forged[1..5].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_rows(&forged, None, Some(10), None),
            Err(IqError::Corruption(_))
        ));
        // Any width: a count that disagrees with the group is refused,
        // not decoded into a column of the wrong length.
        let page = encode_column(&Col::I64((0..100).collect()), None).unwrap();
        assert!(matches!(
            decode_rows(&page, None, Some(99), None),
            Err(IqError::Corruption(_))
        ));
        assert_eq!(
            decode_rows(&page, None, Some(100), None).unwrap().len(),
            100
        );
        assert!(matches!(
            decode_codes_as(&page, Some(100), |c| c),
            Err(IqError::Invalid(_))
        ));
        // A count larger than the payload can hold never allocates for it.
        let mut short = page.clone();
        short[1..5].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_column(&short, None),
            Err(IqError::Corruption(_))
        ));
    }

    #[test]
    fn selected_decode_matches_decode_then_filter() {
        let mut dict = Dictionary::new();
        let strs: Vec<Arc<str>> = (0..130).map(|i| Arc::from(format!("s{}", i % 7))).collect();
        let codes: Vec<u32> = strs.iter().map(|s| dict.encode(s)).collect();
        let cols = [
            (Col::I64((0..130).map(|i| i * 37 - 1000).collect()), None),
            (Col::F64((0..130).map(|i| i as f64 * 0.5).collect()), None),
            (Col::Date((0..130).map(|i| 9000 + i % 50).collect()), None),
            (Col::Str(strs), Some(&codes[..])),
        ];
        let sel = Mask::from_fn(130, |i| i % 3 == 0 || i > 120);
        for (col, codes) in &cols {
            let page = encode_column(col, *codes).unwrap();
            let got = decode_rows(&page, Some(&dict), Some(130), Some(&sel)).unwrap();
            assert_eq!(got, col.filter(&sel));
            assert_eq!(
                &decode_rows(&page, Some(&dict), Some(130), None).unwrap(),
                col
            );
        }
        let short = Mask::from_fn(129, |_| true);
        let page = encode_column(&cols[0].0, None).unwrap();
        assert!(decode_rows(&page, None, Some(130), Some(&short)).is_err());
    }

    proptest! {
        #[test]
        fn i64_roundtrip_arbitrary(values in proptest::collection::vec(any::<i64>(), 0..300)) {
            let enc = encode_column(&Col::I64(values.clone()), None).unwrap();
            let dec = decode_column(&enc, None).unwrap();
            prop_assert_eq!(dec.i64s(), &values[..]);
        }

        #[test]
        fn pack_unpack_arbitrary(values in proptest::collection::vec(0u64..1000, 0..200)) {
            let width = 10;
            let mut packed = Vec::new();
            pack_bits(values.iter().copied(), width, &mut packed);
            let back = unpack(&packed, width, values.len()).unwrap();
            prop_assert_eq!(back, values);
        }

        #[test]
        fn encode_is_byte_identical_to_the_parent_encoder(
            ints in proptest::collection::vec(any::<i64>(), 0..200),
            narrow in proptest::collection::vec(-40i64..40, 0..200),
            floats in proptest::collection::vec(-1.0e9f64..1.0e9, 0..100),
            dates in proptest::collection::vec(any::<i32>(), 0..200),
            codes in proptest::collection::vec(any::<u32>(), 0..200),
        ) {
            let strs = Col::Str(codes.iter().map(|_| Arc::from("x")).collect());
            for (col, codes) in [
                (Col::I64(ints), None),
                (Col::I64(narrow), None),
                (Col::F64(floats), None),
                (Col::Date(dates), None),
                (strs, Some(&codes[..])),
            ] {
                prop_assert_eq!(
                    encode_column(&col, codes).unwrap(),
                    encode_column_parent(&col, codes)
                );
            }
        }
    }
}
