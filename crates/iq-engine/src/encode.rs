//! Column encodings: dictionary encoding and the n-bit representation.
//!
//! "Columnar data in SAP IQ are compressed using the dictionary-encoding
//! and the n-bit representation" (§1). Strings are mapped through a
//! per-column [`Dictionary`] to dense codes; integers (and codes, and
//! dates) are stored frame-of-reference bit-packed: subtract the chunk
//! minimum, then pack each delta in exactly as many bits as the largest
//! delta needs. Floats (they stand in for IQ's decimals) take a page
//! dictionary of their distinct bit patterns, each row's code n-bit
//! packed, when a page holds at most 256 patterns; a page with more is
//! stored raw. The page-level LZ compressor in `iq-storage` runs on top
//! of whatever this module emits.
//!
//! A scan's `column op literal` conjuncts run on the page as it is
//! stored (`eval_page`, beside [`decode_rows`] and sharing its parsing
//! and checks): an integer or date page folds its terms into one interval
//! and tests each row's n-bit delta against it, a float dictionary
//! evaluates its at most 256 entries once, a raw float page compares
//! straight from the bytes, and a string page tests codes against a set
//! over its list. Each returns the rows' `Mask`; the column itself is
//! never materialised. What the terms need that does not depend on the
//! page — the integer interval, the float literals, the string code set —
//! is prepared once a scan for each column (`PageTest`); a page only
//! shifts the interval by its own minimum, and every page is still
//! checked in full.
//!
//! A page is `tag u8 | rows u32 | payload`, where an n-bit payload is
//! `min i64 | width u8 | packed`:
//!
//! | tag | column | payload |
//! |-----|--------|---------|
//! | 0 | `I64` | n-bit values |
//! | 1 | `F64`, raw | `rows × f64 LE` |
//! | 2 | `Str` | n-bit dictionary codes |
//! | 3 | `Date` | n-bit values |
//! | 4 | `F64`, page dictionary | `len − 1 u8 \| len × f64 LE \| n-bit codes` |

use std::borrow::Cow;
use std::sync::Arc;

use iq_common::{IqError, IqResult};
use serde::{Deserialize, Serialize};

use crate::chunk::Col;
use crate::expr::{CmpOp, PageTerm};
use crate::mask::Mask;
use crate::strcol::{remap, StrCol, StrList};
use crate::value::Value;

/// Per-column string dictionary (built during load, stable thereafter):
/// an append-only [`StrList`] behind an `Arc`, which every column decoded
/// against the dictionary shares. A string new to the dictionary goes into
/// a copy of the list when a decoded column still holds it, so no
/// column's strings change under it.
#[derive(Debug, Default, Clone)]
pub struct Dictionary {
    list: Arc<StrList>,
}

impl Dictionary {
    /// Empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a string, returning its code. A string seen for the first
    /// time is kept as the caller's `Arc`, not copied.
    pub fn encode(&mut self, s: &Arc<str>) -> u32 {
        match self.list.lookup(s) {
            Some(code) => code,
            None => Arc::make_mut(&mut self.list).intern(s),
        }
    }

    /// Code for a string, if interned (query-time constant lookup).
    pub fn lookup(&self, s: &str) -> Option<u32> {
        self.list.lookup(s)
    }

    /// Number of distinct strings.
    pub fn len(&self) -> usize {
        self.list.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }

    /// The strings in code order: the list a decoded column indexes.
    pub fn list(&self) -> &Arc<StrList> {
        &self.list
    }

    /// The codes of `col`'s strings in this dictionary: the column's own
    /// when it indexes this dictionary's list, else interned — new
    /// strings appended — once per distinct code of the column.
    pub(crate) fn codes_of<'c>(&mut self, col: &'c StrCol) -> Cow<'c, [u32]> {
        if Arc::ptr_eq(col.list(), &self.list) {
            return Cow::Borrowed(col.codes());
        }
        Cow::Owned(remap(col.codes(), col.list(), |s| self.encode(s)))
    }
}

impl Serialize for Dictionary {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let strs: Vec<&str> = self.list.iter().collect();
        strs.serialize(serializer)
    }
}

impl<'de> Deserialize<'de> for Dictionary {
    /// Refuses a list that repeats a string: interning it would collapse
    /// the repeat and shift every later code onto the wrong string.
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let strs = Vec::<String>::deserialize(deserializer)?;
        let mut d = Dictionary::new();
        for s in strs {
            if d.lookup(&s).is_some() {
                return Err(serde::de::Error::custom(format!(
                    "dictionary repeats {s:?} at code {}",
                    d.len()
                )));
            }
            d.encode(&Arc::from(s));
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

/// Frame-of-reference n-bit encode: `min i64 | width u8 | packed`.
fn encode_for_nbit(values: impl Iterator<Item = i64> + Clone, out: &mut Vec<u8>) {
    let min = values.clone().min().unwrap_or(0);
    let max = values.clone().max().unwrap_or(0);
    let width = 64 - (max.wrapping_sub(min) as u64).leading_zeros();
    write_nbit(min, width, values.map(|v| v.wrapping_sub(min) as u64), out);
}

/// An n-bit payload of `deltas` over `min`, `width` bits each.
fn write_nbit(min: i64, width: u32, deltas: impl Iterator<Item = u64>, out: &mut Vec<u8>) {
    out.extend_from_slice(&min.to_le_bytes());
    out.push(width as u8);
    pack_bits(deltas, width, out);
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

    /// The little-endian word at byte `at` of the payload; near its end,
    /// what is left from there, zero-extended.
    fn word(&self, at: usize) -> u64 {
        match self.packed.get(at..at + 8) {
            Some(word) => u64::from_le_bytes(word.try_into().expect("8 bytes")),
            None => le_word(self.packed.get(at..).unwrap_or_default()),
        }
    }

    /// The unmasked bits of row `i` from where it starts in the payload,
    /// for any row and width: the word there, and for a value past 56
    /// bits that runs out of it, the rest from the next.
    fn spill(&self, i: usize) -> u64 {
        let bit = i * self.width as usize;
        let (at, shift) = (bit / 8, bit % 8);
        let mut bits = self.word(at) >> shift;
        if shift + self.width as usize > 64 {
            bits |= self.word(at + 8) << (64 - shift);
        }
        bits
    }

    /// Decode in one pass into the final vector: `f` of each value, only
    /// of the rows `sel` selects when given. Row `i` is read where it
    /// lies: one unaligned word at byte `i·width/8`, shifted by
    /// `i·width % 8` — a value of at most 56 bits starts at most 7 bits
    /// into that byte, so the word holds all of it. The rows whose word
    /// lies inside the payload (the direct rows) are read with one bounds
    /// check each; the last few, and every row past 56 bits, take
    /// [`Self::spill`].
    fn collect<T>(&self, sel: Option<&Mask>, mut f: impl FnMut(i64) -> T) -> Vec<T> {
        let (direct, word_at) = self.direct();
        let (keep, min) = (self.keep(), self.min);
        let mut value = |bits: u64| f(min.wrapping_add((bits & keep) as i64));
        let mut out = Vec::with_capacity(sel.map_or(self.count, Mask::count));
        match sel {
            Some(m) => out.extend(m.iter_set().map(|i| {
                value(if i < direct {
                    word_at(i)
                } else {
                    self.spill(i)
                })
            })),
            None => {
                out.extend((0..direct).map(|i| value(word_at(i))));
                out.extend((direct..self.count).map(|i| value(self.spill(i))));
            }
        }
        out
    }

    /// The mask of the rows whose delta — the value less `min`, `width`
    /// bits — passes `test`, asked in row order; no value is stored.
    /// Rows are read as [`Self::collect`] reads them, into
    /// [`Mask::from_fn`]'s byte-at-a-time words: one loop for every width.
    fn mask(&self, mut test: impl FnMut(u64) -> bool) -> Mask {
        let (direct, word_at) = self.direct();
        let keep = self.keep();
        Mask::from_fn(self.count, |i| {
            test(
                if i < direct {
                    word_at(i)
                } else {
                    self.spill(i)
                } & keep,
            )
        })
    }

    /// The bits of a delta.
    fn keep(&self) -> u64 {
        u64::MAX.checked_shr(64 - self.width).unwrap_or(0)
    }

    /// How many leading rows are direct — their word lies inside the
    /// payload — and the reader of such a row's unmasked bits. A width-0
    /// row reads an all-zero word, so every row is direct.
    fn direct(&self) -> (usize, impl Fn(usize) -> u64 + '_) {
        let width = self.width as usize;
        let packed = if width == 0 { &[0; 8] } else { self.packed };
        let direct = match width {
            0 => self.count,
            1..=56 => (packed.len().saturating_sub(7) * 8)
                .div_ceil(width)
                .min(self.count),
            _ => 0,
        };
        let word_at = move |i: usize| {
            let bit = i * width;
            let word =
                u64::from_le_bytes(packed[bit / 8..bit / 8 + 8].try_into().expect("8 bytes"));
            word >> (bit % 8)
        };
        (direct, word_at)
    }
}

const TAG_I64: u8 = 0;
const TAG_F64: u8 = 1;
const TAG_STR: u8 = 2;
const TAG_DATE: u8 = 3;
const TAG_F64_DICT: u8 = 4;

/// The most distinct values a float page's dictionary holds: the page
/// stores their number less one in a byte.
const FLOAT_DICT_MAX: usize = 256;

/// A float page's dictionary — its distinct bit patterns in order of
/// first occurrence — and each row's code, or `None` when the page holds
/// no row or more than [`FLOAT_DICT_MAX`] patterns. Keyed by bit pattern,
/// so NaN payloads, −0.0 and subnormals come back bit for bit. The probe
/// is an open-addressed table on the stack, twice the dictionary's
/// size, and stops at the first pattern past the limit.
fn float_dictionary(values: &[f64]) -> Option<(Vec<u64>, Vec<u8>)> {
    const SLOTS: usize = 2 * FLOAT_DICT_MAX;
    // A slot holds a pattern and its code plus one; 0 marks it empty.
    let mut keys = [0u64; SLOTS];
    let mut slots = [0u16; SLOTS];
    let mut dict = Vec::with_capacity(FLOAT_DICT_MAX);
    let mut codes = Vec::with_capacity(values.len());
    for x in values {
        let bits = x.to_bits();
        let mut slot = (bits.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 55) as usize;
        let code = loop {
            slot %= SLOTS;
            match slots[slot] {
                0 if dict.len() == FLOAT_DICT_MAX => return None,
                0 => {
                    (keys[slot], slots[slot]) = (bits, dict.len() as u16 + 1);
                    dict.push(bits);
                    break (dict.len() - 1) as u8;
                }
                found if keys[slot] == bits => break (found - 1) as u8,
                _ => slot += 1,
            }
        };
        codes.push(code);
    }
    (!dict.is_empty()).then_some((dict, codes))
}

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
        Col::F64(v) => match float_dictionary(v) {
            Some((dict, codes)) => {
                let mut out = header(TAG_F64_DICT);
                out.push((dict.len() - 1) as u8);
                dict.iter()
                    .for_each(|bits| out.extend_from_slice(&bits.to_le_bytes()));
                // First-occurrence codes run from 0 to the last entry.
                let width = 64 - (dict.len() as u64 - 1).leading_zeros();
                write_nbit(0, width, codes.iter().map(|&c| u64::from(c)), &mut out);
                out
            }
            None => {
                let mut out = header(TAG_F64);
                v.iter()
                    .for_each(|x| out.extend_from_slice(&x.to_le_bytes()));
                out
            }
        },
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
/// given: an unselected row's value is never read. A string page needs
/// `dict` and decodes to codes over its list.
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
        TAG_I64 => Ok(Col::I64(NBit::parse(payload, count)?.collect(sel, |v| v))),
        TAG_DATE => Ok(Col::Date(
            NBit::parse(payload, count)?.collect(sel, |v| v as i32),
        )),
        TAG_F64 => {
            let raw = raw_floats(payload, count)?;
            Ok(Col::F64(match sel {
                Some(m) => m.iter_set().map(|i| f64::from_le_bytes(raw[i])).collect(),
                None => raw.iter().map(|&x| f64::from_le_bytes(x)).collect(),
            }))
        }
        TAG_F64_DICT => {
            let (table, len, codes) = float_dict(payload, count)?;
            // Every code indexes the full table; the largest is checked
            // against `len` once, after the pass.
            let mut high = 0;
            let values = codes.collect(sel, |code| {
                high = high.max(code as u8);
                table[usize::from(code as u8)]
            });
            float_codes_within(high, len)?;
            Ok(Col::F64(values))
        }
        TAG_STR => {
            let list = str_list(dict)?;
            // The codes are copied as they are; the largest is checked
            // against the list once, after the pass.
            let mut high = 0u64;
            let codes = NBit::parse(payload, count)?.collect(sel, |code| {
                high = high.max(code as u64);
                code as u32
            });
            str_codes_within(count, high, list)?;
            Ok(Col::Str(StrCol::from_codes(codes, Arc::clone(list))))
        }
        other => Err(IqError::Corruption(format!("unknown column tag {other}"))),
    }
}

/// A column's page terms — the conjuncts
/// [`Expr::page_split`](crate::expr::Expr::page_split) hands it — prepared
/// once a scan for [`eval_page`]: what each page type needs of them that
/// depends only on the terms and the column's dictionary. A type the terms
/// do not fit holds `None`.
pub(crate) struct PageTest<'d> {
    /// String pages resolve their codes here.
    dict: Option<&'d Dictionary>,
    /// `I64` pages: the values that pass, as disjoint ascending spans.
    ints: Option<Vec<(i64, i64)>>,
    /// `Date` pages: likewise, over the 32-bit range.
    dates: Option<Vec<(i64, i64)>>,
    /// Float pages, raw or dictionary: each term as `(op, literal)`.
    floats: Option<Vec<(CmpOp, f64)>>,
    /// String pages: the codes of the dictionary's list that pass.
    codes: Option<Mask>,
}

impl<'d> PageTest<'d> {
    /// `terms` over a column whose strings `dict` holds.
    pub(crate) fn new(terms: &[PageTerm], dict: Option<&'d Dictionary>) -> Self {
        let ints = cmp_lits(terms, |v| match v {
            Value::I64(v) => Some(*v),
            _ => None,
        });
        let dates = cmp_lits(terms, |v| match v {
            Value::Date(v) => Some(i64::from(*v)),
            _ => None,
        });
        Self {
            dict,
            ints: ints.map(|t| value_spans(&t, i64::MIN, i64::MAX)),
            dates: dates.map(|t| value_spans(&t, i32::MIN.into(), i32::MAX.into())),
            floats: cmp_lits(terms, |v| match v {
                Value::F64(x) => Some(*x),
                _ => None,
            }),
            codes: dict.and_then(|d| code_set(&d.list, terms)),
        }
    }
}

/// The rows of a column page that satisfy every one of `test`'s terms,
/// read off the encoding: the column is never materialised. The mask is
/// bitwise `eval_mask` of the terms' conjunction over [`decode_rows`] of
/// the page, and the page is checked as `decode_rows` checks it: it must
/// hold exactly `rows` rows, a string page needs a dictionary, and a
/// float-dictionary or string code past its dictionary is `Corruption`
/// whichever row holds it. A page whose type the terms do not fit is
/// `Corruption` too (the page disagrees with its column's type). By page
/// type:
///
/// * `I64` / `Date`: the terms' interval of values, less any `<>` points,
///   is translated into the page's delta domain, so a row costs one
///   wrapping subtract and compare on its n-bit delta;
/// * float dictionary: the terms run once per entry, and a row tests its
///   code against that set;
/// * raw float: each value is compared straight from the bytes;
/// * string: a row tests its code against the set over the column's list.
pub(crate) fn eval_page(bytes: &[u8], rows: usize, test: &PageTest<'_>) -> IqResult<Mask> {
    let (tag, count, payload) = image(bytes, Some(rows))?;
    match tag {
        TAG_I64 | TAG_DATE => {
            let nbit = NBit::parse(payload, count)?;
            // A date is the low 32 bits of `min + delta`, as the decoder
            // truncates it, so its arithmetic is modulo 2^32.
            let (spans, wrap) = match tag {
                TAG_I64 => (test.ints.as_deref().ok_or_else(|| misfit(tag))?, u64::MAX),
                _ => (
                    test.dates.as_deref().ok_or_else(|| misfit(tag))?,
                    u32::MAX.into(),
                ),
            };
            // Values `a ..= b` are the deltas `d` with
            // `d − (a − min) ≤ b − a`, modulo the value's width.
            let delta =
                |&(a, b): &(i64, i64)| (a.wrapping_sub(nbit.min) as u64, b.wrapping_sub(a) as u64);
            Ok(match spans {
                [] => Mask::from_fn(count, |_| false),
                [span] => {
                    let (off, len) = delta(span);
                    nbit.mask(|d| d.wrapping_sub(off) & wrap <= len)
                }
                _ => {
                    let deltas: Vec<(u64, u64)> = spans.iter().map(delta).collect();
                    nbit.mask(|d| {
                        (deltas.iter()).any(|&(off, len)| d.wrapping_sub(off) & wrap <= len)
                    })
                }
            })
        }
        TAG_F64 => {
            let raw = raw_floats(payload, count)?;
            let lits = test.floats.as_deref().ok_or_else(|| misfit(tag))?;
            Ok(Mask::from_slice(raw, |x| {
                let x = f64::from_le_bytes(x);
                lits.iter().all(|&(op, v)| op.holds(x, v))
            }))
        }
        TAG_F64_DICT => {
            let (table, len, codes) = float_dict(payload, count)?;
            let lits = test.floats.as_deref().ok_or_else(|| misfit(tag))?;
            let mut hit = [false; FLOAT_DICT_MAX];
            for (hit, &x) in hit.iter_mut().zip(&table[..len]) {
                *hit = lits.iter().all(|&(op, v)| op.holds(x, v));
            }
            let mut high = 0;
            let mask = codes.mask(|code| {
                high = high.max(code as u8);
                hit[usize::from(code as u8)]
            });
            float_codes_within(high, len)?;
            Ok(mask)
        }
        TAG_STR => {
            let list = str_list(test.dict)?;
            let set = test.codes.as_ref().ok_or_else(|| misfit(tag))?;
            let codes = NBit::parse(payload, count)?;
            let (min, mut high) = (codes.min, 0u64);
            let mask = codes.mask(|d| {
                let code = min.wrapping_add(d as i64) as u64;
                high = high.max(code);
                set.has(code)
            });
            str_codes_within(count, high, list)?;
            Ok(mask)
        }
        other => Err(IqError::Corruption(format!("unknown column tag {other}"))),
    }
}

/// A page whose type cannot answer its column's terms.
fn misfit(tag: u8) -> IqError {
    IqError::Corruption(format!(
        "a column page of tag {tag} under a term of another type"
    ))
}

/// Each term as `(op, literal)` when every one compares with a literal
/// `lit` takes; `None` when one does not.
fn cmp_lits<T>(terms: &[PageTerm], lit: impl Fn(&Value) -> Option<T>) -> Option<Vec<(CmpOp, T)>> {
    (terms.iter())
        .map(|t| match t {
            PageTerm::Cmp(op, v) => lit(v).map(|v| (*op, v)),
            PageTerm::In(_) => None,
        })
        .collect()
}

/// The codes of `list` that pass every one of `terms` — string `=`, `<>`
/// and `IN` — as a set over the list; `None` when a term is not one.
fn code_set(list: &StrList, terms: &[PageTerm]) -> Option<Mask> {
    let mut set = Mask::from_fn(list.len(), |_| true);
    for t in terms {
        set = set.and(&match t {
            PageTerm::Cmp(CmpOp::Eq, Value::Str(s)) => list.code_set([&**s]),
            PageTerm::Cmp(CmpOp::Ne, Value::Str(s)) => list.code_set([&**s]).not(),
            PageTerm::In(values) => list.code_set(values.iter().filter_map(Value::as_str)),
            PageTerm::Cmp(..) => return None,
        });
    }
    Some(set)
}

/// The values of `lo ..= hi` that pass every `value op literal`, as
/// disjoint ascending spans: the comparisons narrow one interval, and
/// each `<>` cuts one point out of it.
fn value_spans(terms: &[(CmpOp, i64)], mut lo: i64, mut hi: i64) -> Vec<(i64, i64)> {
    let mut holes = Vec::new();
    for &(op, v) in terms {
        match op {
            CmpOp::Eq => (lo, hi) = (lo.max(v), hi.min(v)),
            CmpOp::Le => hi = hi.min(v),
            CmpOp::Ge => lo = lo.max(v),
            CmpOp::Lt => match v.checked_sub(1) {
                Some(v) => hi = hi.min(v),
                None => return Vec::new(),
            },
            CmpOp::Gt => match v.checked_add(1) {
                Some(v) => lo = lo.max(v),
                None => return Vec::new(),
            },
            CmpOp::Ne => holes.push(v),
        }
    }
    holes.sort_unstable();
    holes.dedup();
    holes.retain(|h| (lo..=hi).contains(h));
    let mut spans = Vec::new();
    for h in holes {
        if h > lo {
            spans.push((lo, h - 1));
        }
        if h == hi {
            return spans;
        }
        lo = h + 1;
    }
    if lo <= hi {
        spans.push((lo, hi));
    }
    spans
}

/// The `count` little-endian values of a raw float page.
fn raw_floats(payload: &[u8], count: usize) -> IqResult<&[[u8; 8]]> {
    count
        .checked_mul(8)
        .and_then(|n| payload.get(..n))
        .map(|raw| raw.as_chunks().0)
        .ok_or_else(|| IqError::Corruption("float column truncated".into()))
}

/// A float-dictionary payload: its entries in a full-size table, their
/// number, and the rows' codes — first-occurrence codes of at most 256
/// entries, so they start at 0 and fit a byte.
fn float_dict(payload: &[u8], count: usize) -> IqResult<([f64; FLOAT_DICT_MAX], usize, NBit<'_>)> {
    let (&last, rest) = payload
        .split_first()
        .ok_or_else(|| IqError::Corruption("float dictionary truncated".into()))?;
    let len = usize::from(last) + 1;
    let (entries, codes) = rest
        .split_at_checked(len * 8)
        .ok_or_else(|| IqError::Corruption("float dictionary truncated".into()))?;
    let codes = NBit::parse(codes, count)?;
    if codes.min != 0 || codes.width > 8 {
        return Err(IqError::Corruption(format!(
            "float dictionary codes from {} in {} bits",
            codes.min, codes.width
        )));
    }
    let mut table = [0f64; FLOAT_DICT_MAX];
    for (slot, bits) in table.iter_mut().zip(entries.chunks_exact(8)) {
        *slot = f64::from_le_bytes(bits.try_into().expect("8-byte entry"));
    }
    Ok((table, len, codes))
}

/// `Corruption` unless `high`, the largest code a pass read, is one of
/// the dictionary's `len` entries.
fn float_codes_within(high: u8, len: usize) -> IqResult<()> {
    if usize::from(high) >= len {
        return Err(IqError::Corruption(format!(
            "float dictionary code {high} past its {len} entries"
        )));
    }
    Ok(())
}

/// The list a string page's codes index.
fn str_list(dict: Option<&Dictionary>) -> IqResult<&Arc<StrList>> {
    dict.map(Dictionary::list)
        .ok_or_else(|| IqError::Invalid("string column needs a dictionary".into()))
}

/// `Corruption` unless `high`, the largest of a pass's codes, indexes
/// `list` (a pass over no row reads none).
fn str_codes_within(count: usize, high: u64, list: &StrList) -> IqResult<()> {
    if count > 0 && high >= list.len() as u64 {
        return Err(IqError::Corruption(format!(
            "dictionary code {high} past its {} entries",
            list.len()
        )));
    }
    Ok(())
}

/// Decode a string column image to its raw dictionary codes, with no
/// dictionary at hand.
pub fn decode_codes(bytes: &[u8]) -> IqResult<Vec<u32>> {
    let (tag, count, payload) = image(bytes, None)?;
    if tag != TAG_STR {
        return Err(IqError::Invalid(format!(
            "code decode on non-string column (tag {tag})"
        )));
    }
    Ok(NBit::parse(payload, count)?.collect(None, |c| c as u32))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::Chunk;
    use crate::expr::Expr;
    use crate::value::DataType;
    use proptest::prelude::*;

    #[test]
    fn dictionary_interns_stably() {
        let mut d = Dictionary::new();
        let a = d.encode(&"FRANCE".into());
        let b = d.encode(&"GERMANY".into());
        let a2 = d.encode(&"FRANCE".into());
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(d.list().get(b).unwrap().as_ref(), "GERMANY");
        assert_eq!(d.lookup("FRANCE"), Some(a));
        assert_eq!(d.lookup("missing"), None);
        assert!(d.list().get(99).is_none());
    }

    #[test]
    fn dictionary_serde_roundtrip() {
        let mut d = Dictionary::new();
        for i in 0..300 {
            d.encode(&format!("s{}", i * 7 % 300).into());
        }
        let json = serde_json::to_string(&d).unwrap();
        let back: Dictionary = serde_json::from_str(&json).unwrap();
        assert_eq!(back.len(), d.len());
        for code in 0..d.len() as u32 {
            let s = d.list().get(code).unwrap();
            assert_eq!(back.list().get(code), Some(s));
            assert_eq!(back.lookup(s), Some(code));
        }
    }

    #[test]
    fn dictionary_with_a_repeat_fails_to_deserialize() {
        let err = serde_json::from_str::<Dictionary>(r#"["a","b","a","c"]"#).unwrap_err();
        assert!(err.to_string().contains("repeats"), "{err}");
        assert!(serde_json::from_str::<Dictionary>(r#"["a","b","c"]"#).is_ok());
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
        let col = Col::Str(values.iter().collect());
        let enc = encode_column(&col, Some(&codes)).unwrap();
        let dec = decode_column(&enc, Some(&dict)).unwrap();
        assert_eq!(dec, col);
        assert!(Arc::ptr_eq(dec.strs().list(), dict.list()));
        assert_eq!(dec.strs().codes(), codes);
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
        let enc = encode_column(&Col::Str(values.iter().collect()), Some(&codes)).unwrap();
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
        let a = Col::Str(["a"].into_iter().collect());
        assert!(encode_column(&a, None).is_err());
        assert!(encode_column(&a, Some(&[1, 2])).is_err());
        assert!(decode_column(&[9, 0, 0, 0, 0], None).is_err()); // bad tag
        assert!(decode_column(&[0, 1], None).is_err()); // truncated
        let mut dict = Dictionary::new();
        let codes = [dict.encode(&"z".into())];
        let enc = encode_column(&Col::Str(["z"].into_iter().collect()), Some(&codes)).unwrap();
        assert!(decode_column(&enc, None).is_err()); // dict required
                                                     // A code past the dictionary fails the page, selected or not.
        let enc =
            encode_column(&Col::Str(["z", "y"].into_iter().collect()), Some(&[0, 1])).unwrap();
        for sel in [None, Some(&Mask::from_fn(2, |i| i == 1))] {
            let got = decode_rows(&enc, Some(&dict), Some(2), sel);
            assert!(matches!(got, Err(IqError::Corruption(_))));
        }
        let first = Mask::from_fn(2, |i| i == 0);
        assert!(decode_rows(&enc, Some(&dict), Some(2), Some(&first)).is_ok());
        // The page evaluator reads every code, so the one past the list
        // fails it whatever the terms select.
        for terms in [
            vec![PageTerm::Cmp(CmpOp::Eq, Value::Str("z".into()))],
            vec![PageTerm::In(Vec::new())],
        ] {
            let got = eval_page(&enc, 2, &PageTest::new(&terms, Some(&dict)));
            assert!(matches!(got, Err(IqError::Corruption(_))), "{got:?}");
        }
        let z = [PageTerm::Cmp(CmpOp::Eq, Value::Str("z".into()))];
        assert!(matches!(
            eval_page(&enc, 2, &PageTest::new(&z, None)),
            Err(IqError::Invalid(_))
        ));
        // A term of another type, or a string order, is not the page's.
        let page = encode_column(&Col::I64(vec![1, 2]), None).unwrap();
        for term in [
            PageTerm::Cmp(CmpOp::Eq, Value::Date(1)),
            PageTerm::Cmp(CmpOp::Eq, Value::F64(1.0)),
            PageTerm::In(vec![Value::I64(1)]),
        ] {
            let got = eval_page(&page, 2, &PageTest::new(&[term], None));
            assert!(matches!(got, Err(IqError::Corruption(_))), "{got:?}");
        }
        let lt = [PageTerm::Cmp(CmpOp::Lt, Value::Str("z".into()))];
        assert!(eval_page(&enc, 2, &PageTest::new(&lt, Some(&dict))).is_err());
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
            Col::F64(v) => {
                // First-occurrence codes over bit patterns, by linear search.
                let mut dict: Vec<u64> = Vec::new();
                let codes: Vec<i64> = v
                    .iter()
                    .map(|x| match dict.iter().position(|&d| d == x.to_bits()) {
                        Some(code) => code as i64,
                        None => {
                            dict.push(x.to_bits());
                            dict.len() as i64 - 1
                        }
                    })
                    .collect();
                if dict.is_empty() || dict.len() > 256 {
                    (TAG_F64, v.iter().flat_map(|x| x.to_le_bytes()).collect())
                } else {
                    let mut body = vec![(dict.len() - 1) as u8];
                    body.extend(dict.iter().flat_map(|d| d.to_le_bytes()));
                    body.extend_from_slice(&encode_for_nbit_parent(&codes));
                    (TAG_F64_DICT, body)
                }
            }
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
        unpack_selected(bytes, width, count, None)
    }

    fn unpack_selected(
        bytes: &[u8],
        width: u32,
        count: usize,
        sel: Option<&Mask>,
    ) -> IqResult<Vec<u64>> {
        let nbit = NBit {
            min: 0,
            width,
            count,
            packed: packed_slice(bytes, width, count)?,
        };
        Ok(nbit.collect(sel, |d| d as u64))
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
        assert!(matches!(decode_codes(&page), Err(IqError::Invalid(_))));
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
            (Col::Str(strs.iter().collect()), Some(&codes[..])),
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

    /// A float page of `rows` rows over the bit patterns `palette`, row
    /// `i` taking entry `i % palette.len()`.
    fn float_page(palette: &[u64], rows: usize) -> Vec<f64> {
        (0..rows)
            .map(|i| f64::from_bits(palette[i % palette.len()]))
            .collect()
    }

    fn bits(col: &Col) -> Vec<u64> {
        col.f64s().iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn float_pages_take_the_dictionary_up_to_256_patterns() {
        let odd = [
            f64::NAN.to_bits() | 0x5_a5a5,
            (-0.0f64).to_bits(),
            0.0f64.to_bits(),
            1, // the smallest subnormal
            f64::INFINITY.to_bits(),
            0.05f64.to_bits(),
        ];
        // Eleven discount-like values take 4-bit codes; an odd row count
        // leaves half a byte.
        let discounts: Vec<u64> = (0..11).map(|d| (d as f64 / 100.0).to_bits()).collect();
        let sel = Mask::from_fn(1001, |i| i % 7 < 3 || i > 990);
        for (palette, tag) in [
            (odd.to_vec(), TAG_F64_DICT),
            (discounts, TAG_F64_DICT),
            (
                (0..256u64).map(|i| (i * 7919) << 40).collect(),
                TAG_F64_DICT,
            ),
            ((0..257u64).map(|i| (i * 7919) << 40).collect(), TAG_F64),
        ] {
            let col = Col::F64(float_page(&palette, 1001));
            let page = encode_column(&col, None).unwrap();
            assert_eq!(page[0], tag, "{} patterns", palette.len());
            assert_eq!(bits(&decode_column(&page, None).unwrap()), bits(&col));
            let got = decode_rows(&page, None, Some(1001), Some(&sel)).unwrap();
            assert_eq!(bits(&got), bits(&col.filter(&sel)));
        }
        // Two values: one byte of dictionary length, two entries, one bit
        // a row.
        let page = encode_column(
            &Col::F64(float_page(&[0.04f64.to_bits(), 0.07f64.to_bits()], 4096)),
            None,
        )
        .unwrap();
        assert_eq!(page.len(), 5 + 1 + 16 + 9 + 512);
        // An empty page has no dictionary to hold: it stays raw.
        assert_eq!(
            encode_column(&Col::F64(Vec::new()), None).unwrap(),
            [TAG_F64, 0, 0, 0, 0]
        );
    }

    /// A tag-4 page by hand: `len − 1`, the entries, then the n-bit codes
    /// (`min`, `width`, `packed`).
    fn float_dict_page(count: u32, len_byte: u8, entries: &[f64], nbit: &[u8]) -> Vec<u8> {
        let mut page = vec![TAG_F64_DICT];
        page.extend_from_slice(&count.to_le_bytes());
        page.push(len_byte);
        entries
            .iter()
            .for_each(|x| page.extend_from_slice(&x.to_le_bytes()));
        page.extend_from_slice(nbit);
        page
    }

    #[test]
    fn hostile_float_dictionary_pages_are_corruption() {
        // The page evaluator reads every row, so it refuses what the
        // decoder refuses, selected or not.
        let corrupt = |page: &[u8], sel: Option<&Mask>| {
            let rows = page.get(1..5).map_or(0, |c| le_word(c) as usize);
            let terms = [PageTerm::Cmp(CmpOp::Ge, Value::F64(0.0))];
            matches!(
                decode_rows(page, None, None, sel),
                Err(IqError::Corruption(_))
            ) && matches!(
                eval_page(page, rows, &PageTest::new(&terms, None)),
                Err(IqError::Corruption(_))
            )
        };
        let nbit = |min: i64, width: u8, packed: &[u8]| {
            let mut out = min.to_le_bytes().to_vec();
            out.push(width);
            out.extend_from_slice(packed);
            out
        };
        // Three entries, codes 0 1 2 0 at two bits: a valid page.
        let good = float_dict_page(4, 2, &[1.5, 2.5, 3.5], &nbit(0, 2, &[0b0010_0100]));
        assert_eq!(
            decode_column(&good, None).unwrap().f64s(),
            [1.5, 2.5, 3.5, 1.5]
        );
        // A length byte that points past the body.
        assert!(corrupt(&float_dict_page(4, 255, &[1.5, 2.5], &[]), None));
        // Dictionary entries cut short, or no length byte at all.
        for cut in 6..good.len() - 9 - 1 {
            assert!(corrupt(&good[..cut], None), "cut at {cut}");
        }
        assert!(corrupt(&[TAG_F64_DICT, 1, 0, 0, 0], None));
        // A code at or past the dictionary's length: 3 at two bits, and
        // a negative base that puts a code below the table.
        let past = float_dict_page(4, 2, &[1.5, 2.5, 3.5], &nbit(0, 2, &[0b1110_0100]));
        assert!(corrupt(&past, None));
        assert!(corrupt(&past, Some(&Mask::from_fn(4, |i| i == 3))));
        // The same at four bits: eleven entries and a code 15 in either
        // half of a byte, or in the odd last one.
        let eleven: Vec<f64> = (0..11).map(f64::from).collect();
        for (count, packed) in [(4, [0x10, 0xf2]), (4, [0x10, 0x2f]), (3, [0x10, 0x0f])] {
            let page = float_dict_page(count, 10, &eleven, &nbit(0, 4, &packed));
            assert!(corrupt(&page, None), "{packed:x?}");
        }
        let page = float_dict_page(4, 10, &eleven, &nbit(0, 4, &[0x10, 0xa2]));
        assert_eq!(
            decode_column(&page, None).unwrap().f64s(),
            [0.0, 1.0, 2.0, 10.0]
        );
        assert!(corrupt(
            &float_dict_page(1, 0, &[1.5], &nbit(-1, 1, &[0])),
            None
        ));
        assert!(corrupt(
            &float_dict_page(1, 0, &[1.5], &nbit(1, 0, &[])),
            None
        ));
        // A width the count does not fit: too wide for the packed bytes,
        // or past 64 bits.
        assert!(corrupt(
            &float_dict_page(4, 2, &[1.5, 2.5, 3.5], &nbit(0, 3, &[0])),
            None
        ));
        assert!(corrupt(
            &float_dict_page(4, 2, &[1.5, 2.5, 3.5], &nbit(0, 65, &[0; 64])),
            None
        ));
        // The n-bit header itself cut short.
        assert!(corrupt(
            &float_dict_page(4, 2, &[1.5, 2.5, 3.5], &[0; 8]),
            None
        ));
        // A float page has no codes to hand out, in either layout.
        let raw = encode_column(&Col::F64((0..300).map(f64::from).collect()), None).unwrap();
        for page in [&good, &raw] {
            assert!(matches!(decode_codes(page), Err(IqError::Invalid(_))));
        }
    }

    /// Whether a decode's outcome is one a hostile page may produce.
    fn total<T>(r: IqResult<T>) -> bool {
        matches!(r, Ok(_) | Err(IqError::Corruption(_) | IqError::Invalid(_)))
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        #[test]
        fn word_read_kernel_matches_the_bit_loop(
            width in 0u32..=64,
            count in 0usize..=5000,
            seed in any::<u64>(),
            density in 0u64..=64,
        ) {
            let keep = if width == 0 { 0 } else { u64::MAX >> (64 - width) };
            let mut x = seed;
            let mut next = || {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                x ^ (x >> 29)
            };
            let values: Vec<u64> = (0..count).map(|_| next() & keep).collect();
            let packed = pack_bits_bitloop(&values, width);
            let mut ours = Vec::new();
            pack_bits(values.iter().copied(), width, &mut ours);
            prop_assert_eq!(&ours, &packed);
            let oracle = unpack_bits_bitloop(&packed, width, count).unwrap();
            prop_assert_eq!(&oracle, &values);
            prop_assert_eq!(&unpack(&packed, width, count).unwrap(), &oracle);
            let sel = Mask::from_fn(count, |_| next() % 64 < density);
            let selected: Vec<u64> = sel.iter_set().map(|i| oracle[i]).collect();
            prop_assert_eq!(
                unpack_selected(&packed, width, count, Some(&sel)).unwrap(),
                selected
            );
        }

        #[test]
        fn floats_roundtrip_bitwise_through_both_layouts(
            palette in proptest::collection::vec(any::<u64>(), 1..300),
            rows in 0usize..1200,
            seed in any::<u64>(),
        ) {
            let mut x = seed | 1;
            let col = Col::F64(
                (0..rows)
                    .map(|_| {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        f64::from_bits(palette[(x % palette.len() as u64) as usize])
                    })
                    .collect(),
            );
            let page = encode_column(&col, None).unwrap();
            let distinct = bits(&col).into_iter().collect::<std::collections::HashSet<_>>().len();
            let tag = if (1..=256).contains(&distinct) { TAG_F64_DICT } else { TAG_F64 };
            prop_assert_eq!(page[0], tag);
            prop_assert_eq!(bits(&decode_column(&page, None).unwrap()), bits(&col));
            let sel = Mask::from_fn(rows, |i| (x >> (i % 64)) & 1 == 1);
            let got = decode_rows(&page, None, Some(rows), Some(&sel)).unwrap();
            prop_assert_eq!(bits(&got), bits(&col.filter(&sel)));
        }

        #[test]
        fn column_decode_is_total_on_arbitrary_bytes(
            tag in 0u8..6,
            count in 0u32..80,
            body in proptest::collection::vec(any::<u8>(), 0..400),
            raw in any::<bool>(),
            rows in 0usize..80,
            mask_len in 0usize..80,
            check_rows in any::<bool>(),
        ) {
            // Not total in one case: `decode_column`, given no row count,
            // trusts a width-0 page's count and allocates for it. Headed
            // pages keep counts small; raw bytes that name a width-0
            // page are left to the fixed seed.
            let mut dict = Dictionary::new();
            (0..5).for_each(|i| {
                dict.encode(&format!("s{i}").into());
            });
            // Either bytes as they come, or behind a header that names a
            // known tag and a small count, so the payload parsers run.
            let page = if raw {
                body
            } else {
                let mut page = vec![tag];
                page.extend_from_slice(&count.to_le_bytes());
                page.extend_from_slice(&body);
                page
            };
            let sel = Mask::from_fn(mask_len, |i| i % 3 != 1);
            let rows = check_rows.then_some(rows);
            prop_assert!(total(decode_column(&page, Some(&dict))));
            prop_assert!(total(decode_column(&page, None)));
            prop_assert!(total(decode_rows(&page, Some(&dict), rows, Some(&sel))));
            prop_assert!(total(decode_rows(&page, Some(&dict), Some(count as usize), Some(&Mask::from_fn(count as usize, |i| i % 2 == 0)))));
            prop_assert!(total(decode_codes(&page)));
            for terms in hostile_term_sets() {
                for rows in [rows.unwrap_or(mask_len), count as usize] {
                    prop_assert!(total(eval_page(&page, rows, &PageTest::new(&terms, Some(&dict)))));
                    prop_assert!(total(eval_page(&page, rows, &PageTest::new(&terms, None))));
                }
            }
        }

        #[test]
        fn column_decode_is_total_on_damaged_pages(
            values in proptest::collection::vec(0u64..40, 1..200),
            kind in 0u8..4,
            flips in proptest::collection::vec((any::<usize>(), any::<u8>()), 0..6),
            cut in any::<usize>(),
        ) {
            let mut dict = Dictionary::new();
            let codes: Vec<u32> = values.iter().map(|v| dict.encode(&v.to_string().into())).collect();
            let col = match kind {
                0 => Col::I64(values.iter().map(|&v| v as i64 * 1000).collect()),
                1 => Col::Date(values.iter().map(|&v| v as i32).collect()),
                2 => Col::F64(values.iter().map(|&v| v as f64 / 100.0).collect()),
                _ => Col::Str(values.iter().map(|v| v.to_string()).collect()),
            };
            let mut page = encode_column(&col, Some(&codes)).unwrap();
            for (at, byte) in flips {
                let at = at % page.len();
                page[at] ^= byte;
            }
            page.truncate(cut % (page.len() + 1));
            let n = values.len();
            let sel = Mask::from_fn(n, |i| i % 4 == 0);
            prop_assert!(total(decode_rows(&page, Some(&dict), Some(n), None)));
            prop_assert!(total(decode_rows(&page, Some(&dict), Some(n), Some(&sel))));
            prop_assert!(total(decode_column(&page, Some(&dict))));
            prop_assert!(total(decode_codes(&page)));
            for terms in hostile_term_sets() {
                prop_assert!(total(eval_page(&page, n, &PageTest::new(&terms, Some(&dict)))));
            }
        }

    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 1024, ..ProptestConfig::default() })]

        #[test]
        fn encoded_predicates_match_eval_mask_over_the_decode(
            kind in 0u8..5,
            width in 0u32..=64,
            rows in 0usize..400,
            seed in any::<u64>(),
            conjuncts in 1usize..4,
        ) {
            let mut x = seed | 1;
            let mut next = move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            // A raw float page holds more than 256 distinct values.
            let rows = if kind == 3 { rows + 300 } else { rows };
            let (col, dtype, dict) = drawn_page(kind, width, rows, &mut next);
            let codes = match &col {
                Col::Str(strs) => Some(strs.codes().to_vec()),
                _ => None,
            };
            let page = encode_column(&col, codes.as_deref()).unwrap();
            let pred = Expr::and_all(
                (0..conjuncts).map(|_| drawn_conjunct(&col, &dict, &mut next)).collect(),
            );
            let split = pred.page_split(|c| (c == 0).then_some(dtype));
            prop_assert!(split.residual.is_none(), "{pred:?}");
            prop_assert_eq!(split.terms.len(), 1);
            let got = eval_page(&page, rows, &PageTest::new(&split.terms[0].1, Some(&dict))).unwrap();
            let decoded = decode_rows(&page, Some(&dict), Some(rows), None).unwrap();
            let want = pred.eval_mask(&Chunk::new(vec![decoded]), &[0]).unwrap();
            prop_assert_eq!(got, want, "tag {} {:?}", page[0], pred);
        }
    }

    /// Term sets of every shape, and of every type against every page.
    fn hostile_term_sets() -> Vec<Vec<PageTerm>> {
        let cmp = |op, v: Value| PageTerm::Cmp(op, v);
        vec![
            vec![
                cmp(CmpOp::Ge, Value::I64(3)),
                cmp(CmpOp::Le, Value::I64(i64::MAX)),
            ],
            vec![
                cmp(CmpOp::Ne, Value::I64(0)),
                cmp(CmpOp::Gt, Value::I64(-5)),
            ],
            vec![
                cmp(CmpOp::Eq, Value::Date(7)),
                cmp(CmpOp::Lt, Value::Date(i32::MIN)),
            ],
            vec![
                cmp(CmpOp::Lt, Value::F64(0.5)),
                cmp(CmpOp::Ne, Value::F64(f64::NAN)),
            ],
            vec![cmp(CmpOp::Eq, Value::Str("s1".into()))],
            vec![PageTerm::In(vec![
                Value::Str("s2".into()),
                Value::Str("zz".into()),
            ])],
            vec![cmp(CmpOp::Lt, Value::Str("s3".into()))],
            Vec::new(),
        ]
    }

    /// A column of `rows` rows of page kind `kind` (0 `I64`, 1 `Date`, 2
    /// float dictionary, 3 raw floats, 4 strings over a 20-string
    /// dictionary), its type and that dictionary. Integers and dates
    /// spread over `width` bits (dates over at most 32) above a base that
    /// may sit at either end of the type; floats draw NaN payloads, −0.0,
    /// infinities and subnormals too.
    fn drawn_page(
        kind: u8,
        width: u32,
        rows: usize,
        next: &mut impl FnMut() -> u64,
    ) -> (Col, DataType, Dictionary) {
        let mut dict = Dictionary::new();
        for i in 0..20 {
            dict.encode(&format!("s{i}").into());
        }
        let keep = u64::MAX.checked_shr(64 - width).unwrap_or(0);
        let col = match kind {
            0 => {
                let base = [
                    next() as i64,
                    i64::MIN,
                    i64::MAX.wrapping_sub(keep as i64),
                    0,
                ][next() as usize % 4];
                Col::I64(
                    (0..rows)
                        .map(|_| base.wrapping_add((next() & keep) as i64))
                        .collect(),
                )
            }
            1 => {
                let keep = keep as u32;
                let base = [
                    next() as i32,
                    i32::MIN,
                    i32::MAX.wrapping_sub(keep as i32),
                    0,
                ][next() as usize % 4];
                Col::Date(
                    (0..rows)
                        .map(|_| base.wrapping_add((next() as u32 & keep) as i32))
                        .collect(),
                )
            }
            2 | 3 => {
                let odd = [
                    f64::NAN.to_bits() | 0x5_a5a5,
                    f64::NAN.to_bits(),
                    (-0.0f64).to_bits(),
                    0,
                    1,
                    f64::INFINITY.to_bits(),
                    f64::NEG_INFINITY.to_bits(),
                ];
                let distinct = if kind == 2 {
                    1 + next() as usize % 256
                } else {
                    4096
                };
                let palette: Vec<u64> = (0..distinct)
                    .map(|i| match next() % 4 {
                        0 => odd[next() as usize % odd.len()],
                        1 => (i as f64 / 100.0).to_bits(),
                        _ => next(),
                    })
                    .collect();
                Col::F64(
                    (0..rows)
                        .map(|_| f64::from_bits(palette[next() as usize % distinct]))
                        .collect(),
                )
            }
            _ => {
                let span = 1 + next() % 20;
                Col::Str(StrCol::from_codes(
                    (0..rows).map(|_| (next() % span) as u32).collect(),
                    Arc::clone(dict.list()),
                ))
            }
        };
        let dtype = col.data_type().expect("a stored type");
        (col, dtype, dict)
    }

    /// One conjunct over column 0 of `col`'s own type, literal on either
    /// side: any comparison (strings: `=` / `<>`), `BETWEEN`, or a string
    /// `IN`. Literals sit below, inside and above the values, at the
    /// type's extremes, or are NaN, −0.0, or strings the list lacks.
    fn drawn_conjunct(col: &Col, dict: &Dictionary, next: &mut impl FnMut() -> u64) -> Expr {
        let lit = |next: &mut dyn FnMut() -> u64| -> Value {
            let row = |next: &mut dyn FnMut() -> u64| {
                (!col.is_empty()).then(|| col.value(next() as usize % col.len()))
            };
            match col {
                Col::I64(_) => {
                    let v = row(next).and_then(|v| v.as_i64()).unwrap_or(0);
                    Value::I64(
                        [
                            v,
                            v.wrapping_sub(1),
                            v.wrapping_add(1),
                            i64::MIN,
                            i64::MAX,
                            next() as i64,
                            v,
                            v,
                        ][next() as usize % 8],
                    )
                }
                Col::Date(_) => {
                    let v = match row(next) {
                        Some(Value::Date(d)) => d,
                        _ => 0,
                    };
                    Value::Date(
                        [
                            v,
                            v.wrapping_sub(1),
                            v.wrapping_add(1),
                            i32::MIN,
                            i32::MAX,
                            next() as i32,
                            v,
                            v,
                        ][next() as usize % 8],
                    )
                }
                Col::F64(_) => {
                    let v = row(next).and_then(|v| v.as_f64()).unwrap_or(0.0);
                    Value::F64(
                        [
                            v,
                            v - 0.01,
                            v + 0.01,
                            f64::NAN,
                            -0.0,
                            0.0,
                            f64::INFINITY,
                            f64::from_bits(next()),
                            v,
                            v,
                        ][next() as usize % 10],
                    )
                }
                _ => {
                    let code = next() % 22;
                    Value::Str(
                        dict.list()
                            .get(code as u32)
                            .map_or_else(|| Arc::from("zz"), Arc::clone),
                    )
                }
            }
        };
        let c = Expr::col(0);
        let ops = [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ];
        let strings = matches!(col, Col::Str(_));
        match next() % 4 {
            0 if strings => Expr::in_list(c, (0..next() % 4).map(|_| lit(next)).collect()),
            1 if !strings => Expr::between(c, Expr::Lit(lit(next)), Expr::Lit(lit(next))),
            draw => {
                let op = if strings {
                    ops[draw as usize % 2]
                } else {
                    ops[next() as usize % 6]
                };
                let l = Expr::Lit(lit(next));
                if next().is_multiple_of(2) {
                    Expr::Cmp(op, c.into(), l.into())
                } else {
                    Expr::Cmp(op, l.into(), c.into())
                }
            }
        }
    }

    proptest! {
        #[test]
        fn pack_unpack_arbitrary(values in proptest::collection::vec(0u64..1000, 0..200)) {
            let width = 10;
            let mut packed = Vec::new();
            pack_bits(values.iter().copied(), width, &mut packed);
            let back = unpack(&packed, width, values.len()).unwrap();
            prop_assert_eq!(back, values);
        }

        #[test]
        fn i64_roundtrip_arbitrary(values in proptest::collection::vec(any::<i64>(), 0..300)) {
            let enc = encode_column(&Col::I64(values.clone()), None).unwrap();
            let dec = decode_column(&enc, None).unwrap();
            prop_assert_eq!(dec.i64s(), &values[..]);
        }

        #[test]
        fn encode_is_byte_identical_to_the_parent_encoder(
            ints in proptest::collection::vec(any::<i64>(), 0..200),
            narrow in proptest::collection::vec(-40i64..40, 0..200),
            floats in proptest::collection::vec(-1.0e9f64..1.0e9, 0..100),
            prices in proptest::collection::vec(any::<u64>(), 200..400),
            discounts in proptest::collection::vec(0u8..11, 0..300),
            dates in proptest::collection::vec(any::<i32>(), 0..200),
            codes in proptest::collection::vec(any::<u32>(), 0..200),
        ) {
            let strs = Col::Str(codes.iter().map(|_| "x").collect());
            for (col, codes) in [
                (Col::I64(ints), None),
                (Col::I64(narrow), None),
                (Col::F64(floats), None),
                (Col::F64(prices.iter().map(|&b| f64::from_bits(b)).collect()), None),
                (Col::F64(discounts.iter().map(|&d| f64::from(d) / 100.0).collect()), None),
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
