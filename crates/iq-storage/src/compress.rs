//! Page-level compression.
//!
//! SAP IQ "employs page-level compression to further reduce the amount of
//! I/O that is required to process large volumes of data" (§1). This
//! module implements a small LZ77-class codec from scratch (a one-entry
//! hash table of 4-byte prefixes that takes the first match it offers,
//! LZ4's skip-ahead over runs of misses, 64 KiB window, byte-aligned token
//! stream), which is a reasonable stand-in for the class of fast page
//! compressors analytical engines use. Column-level encodings (dictionary,
//! n-bit) live in `iq-engine`; this layer squeezes whatever the column
//! encoders emit.
//!
//! ## Format
//!
//! A sequence of tokens. Each token starts with a control byte `c`:
//!
//! * `c < 0x80`: a literal run of `c + 1` bytes follows.
//! * `c >= 0x80`: a match; length is `(c & 0x7f) + MIN_MATCH`, followed by
//!   a little-endian `u16` back-offset (1-based).
//!
//! Decompression is unambiguous and allocation-bounded by the declared
//! output length.

use std::sync::{Mutex, PoisonError};

use iq_common::{IqError, IqResult};

const MIN_MATCH: usize = 4;
const MAX_MATCH: usize = 0x7f + MIN_MATCH;
const MAX_LITERAL: usize = 0x80;
const WINDOW: usize = u16::MAX as usize;
const HASH_BITS: u32 = 15;
/// A 3-byte match token yields at most [`MAX_MATCH`] bytes and a literal
/// run fewer than it occupies, so no stream decodes to more than this many
/// times its own length.
const MAX_EXPANSION: usize = MAX_MATCH.div_ceil(3);

fn le32(bytes: &[u8]) -> u32 {
    u32::from_le_bytes(bytes.try_into().expect("a 4-byte window"))
}

fn hash4(v: u32) -> usize {
    (v.wrapping_mul(0x9e37_79b1) >> (32 - HASH_BITS)) as usize
}

/// Length of the common prefix of `a` and `b` (equally long), compared
/// eight bytes at a time.
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let mut wa = a.chunks_exact(8);
    let mut wb = b.chunks_exact(8);
    let mut n = 0;
    for (x, y) in (&mut wa).zip(&mut wb) {
        let x = u64::from_le_bytes(x.try_into().expect("an 8-byte chunk"));
        let y = u64::from_le_bytes(y.try_into().expect("an 8-byte chunk"));
        if x != y {
            return n + ((x ^ y).trailing_zeros() / 8) as usize;
        }
        n += 8;
    }
    let tail = wa.remainder().iter().zip(wb.remainder());
    n + tail.take_while(|(x, y)| x == y).count()
}

/// The matcher's scratch: for each 4-byte hash, the last position that
/// had it. Kept across calls so a page costs no allocation and no fill:
/// an entry holds `base + position`, and every call moves `base` a window
/// past all it could have stored, so a leftover of an earlier input reads
/// as a candidate out of the window — which is to say as none.
struct MatchTable {
    head: Vec<u32>,
    base: u32,
}

/// Idle tables, one per thread that has ever compressed at the same time
/// as another (128 KiB each). A pool and not a thread-local because the
/// flush lanes are scoped threads that live for one batch.
static TABLES: Mutex<Vec<MatchTable>> = Mutex::new(Vec::new());

impl MatchTable {
    /// Zeroed entries are out of every window from here on.
    const FIRST_BASE: u32 = WINDOW as u32 + 1;

    fn new() -> Self {
        Self {
            head: vec![0; 1 << HASH_BITS],
            base: Self::FIRST_BASE,
        }
    }

    /// Claim `len` positions: returns the base to store them over.
    fn open(&mut self, len: usize) -> u32 {
        assert!(
            len <= (u32::MAX - 2 * Self::FIRST_BASE) as usize,
            "a page body is shorter than 4 GiB"
        );
        let span = (len + WINDOW) as u32;
        if self.base > u32::MAX - span {
            self.head.fill(0);
            self.base = Self::FIRST_BASE;
        }
        let base = self.base;
        self.base += span;
        base
    }

    /// Append the token stream for `input` to `out`. Stops and returns
    /// `false` as soon as the stream would pass `limit` bytes (`out` is
    /// then of no use).
    ///
    /// The parse takes the first candidate the table offers and, through a
    /// run of misses, tests ever fewer positions ([`next_match`]).
    fn compress(&mut self, input: &[u8], out: &mut Vec<u8>, limit: usize) -> bool {
        let base = self.open(input.len());
        let head = &mut self.head[..1 << HASH_BITS];
        let budget = out.len().saturating_add(limit);

        let mut literal_start = 0usize;
        let mut from = 0usize;
        while let Some((at, distance)) = next_match(head, base, input, from) {
            let max = (input.len() - at).min(MAX_MATCH);
            let candidate = at - distance;
            let match_len = MIN_MATCH
                + common_prefix(
                    &input[candidate + MIN_MATCH..candidate + max],
                    &input[at + MIN_MATCH..at + max],
                );
            if !push_literals(out, &input[literal_start..at], budget) || out.len() + 3 > budget {
                return false;
            }
            out.push(0x80 | (match_len - MIN_MATCH) as u8);
            out.extend_from_slice(&(distance as u16).to_le_bytes());
            // Seed the hash table through the matched region (sparsely, for
            // speed) so later matches can reference it.
            let end = at + match_len;
            let seeds = input[at + 1..end].windows(MIN_MATCH).step_by(2);
            for (k, w) in seeds.enumerate() {
                head[hash4(le32(w))] = base + (at + 1 + 2 * k) as u32;
            }
            from = end;
            literal_start = end;
        }
        push_literals(out, &input[literal_start..], budget)
    }
}

/// Enter positions from `from` on into `head` until one finds its own four
/// bytes at the position the table last saw with that hash, at most a
/// window back: that position and the distance.
///
/// After the `misses`-th miss since `from` (the last match's end) the
/// cursor moves `1 + (misses >> SKIP_TRIGGER)` bytes: every position for
/// the first 64 probes, every second for the next 64, and so on — LZ4's
/// `skipTrigger`. An incompressible 8 KiB page is ≈ 990 probes instead of
/// 8 189; data that matches resets the schedule at every match, so it
/// loses at most the positions a skip stepped over.
#[inline(never)]
fn next_match(head: &mut [u32], base: u32, input: &[u8], from: usize) -> Option<(usize, usize)> {
    const SKIP_TRIGGER: u32 = 6;
    let mut at = from;
    let mut misses = 0usize;
    while at + MIN_MATCH <= input.len() {
        let here = le32(&input[at..at + MIN_MATCH]);
        let now = base + at as u32;
        let stored = std::mem::replace(&mut head[hash4(here)], now);
        // Whatever an earlier input left is more than a window below
        // `base`; an entry of this input is a position before `at`.
        let distance = (now - stored) as usize;
        if distance <= WINDOW && le32(&input[at - distance..at - distance + MIN_MATCH]) == here {
            return Some((at, distance));
        }
        at += 1 + (misses >> SKIP_TRIGGER);
        misses += 1;
    }
    None
}

/// Emit `literals` as runs of at most [`MAX_LITERAL`]; `false` if that
/// would take `out` past `budget` bytes.
fn push_literals(out: &mut Vec<u8>, literals: &[u8], budget: usize) -> bool {
    let encoded = literals.len() + literals.len().div_ceil(MAX_LITERAL);
    if out.len() + encoded > budget {
        return false;
    }
    for run in literals.chunks(MAX_LITERAL) {
        out.push((run.len() - 1) as u8);
        out.extend_from_slice(run);
    }
    true
}

/// Append the compressed form of `input` to `out` if it is at most
/// `limit` bytes long; otherwise return `false` with `out` as it was.
/// [`crate::page::Page::seal`] compresses straight into the image this
/// way, with `limit` one less than the raw body it would store instead.
pub(crate) fn compress_into(input: &[u8], out: &mut Vec<u8>, limit: usize) -> bool {
    // Held only to pop and to push: a poisoned lock still guards a valid Vec.
    let idle = || TABLES.lock().unwrap_or_else(PoisonError::into_inner);
    let mut table = idle().pop().unwrap_or_else(MatchTable::new);
    let start = out.len();
    let fits = table.compress(input, out, limit);
    if !fits {
        out.truncate(start);
    }
    idle().push(table);
    fits
}

/// Compress `input` (a page body: shorter than 4 GiB). Always succeeds;
/// incompressible data expands by at most 1 byte per 128 (callers fall
/// back to storing raw when the result is not smaller — see
/// [`crate::page`]).
pub fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    let fits = compress_into(input, &mut out, usize::MAX);
    debug_assert!(fits);
    out
}

/// Decompress into exactly `output_len` bytes.
pub fn decompress(input: &[u8], output_len: usize) -> IqResult<Vec<u8>> {
    // `output_len` is read off a device: bound it by what `input` can
    // encode before allocating for it.
    if output_len > input.len().saturating_mul(MAX_EXPANSION) {
        return Err(IqError::Corruption(format!(
            "{} compressed bytes cannot decode to {output_len}",
            input.len()
        )));
    }
    // Sized once; `o` bytes of it are decoded. A short copy moves a fixed
    // `SHORT` bytes (two loads and stores, no call) where there is room:
    // what it writes past its real end is overwritten by the next token.
    const SHORT: usize = 16;
    let mut out = vec![0u8; output_len];
    let mut o = 0usize;
    let mut i = 0usize;
    while i < input.len() {
        let c = input[i];
        i += 1;
        if c < 0x80 {
            let n = c as usize + 1;
            let end = i + n;
            if end > input.len() || o + n > output_len {
                return Err(IqError::Corruption("literal run overflows page".into()));
            }
            if n <= SHORT && i + SHORT <= input.len() && o + SHORT <= output_len {
                let run: [u8; SHORT] = input[i..i + SHORT].try_into().expect("SHORT bytes");
                out[o..o + SHORT].copy_from_slice(&run);
            } else {
                out[o..o + n].copy_from_slice(&input[i..end]);
            }
            o += n;
            i = end;
        } else {
            let len = (c & 0x7f) as usize + MIN_MATCH;
            if i + 2 > input.len() {
                return Err(IqError::Corruption("truncated match token".into()));
            }
            let offset = u16::from_le_bytes([input[i], input[i + 1]]) as usize;
            i += 2;
            if offset == 0 || offset > o || o + len > output_len {
                return Err(IqError::Corruption("match references out of window".into()));
            }
            let start = o - offset;
            if len <= SHORT && offset >= len && o + SHORT <= output_len {
                out.copy_within(start..start + SHORT, o);
            } else {
                // Overlapping copies (offset < len) are legal and common:
                // what is already copied repeats the pattern, so each pass
                // can take twice as much. Otherwise one pass takes it all.
                let mut done = 0;
                while done < len {
                    let n = (offset + done).min(len - done);
                    out.copy_within(start..start + n, o + done);
                    done += n;
                }
            }
            o += len;
        }
    }
    if o != output_len {
        return Err(IqError::Corruption(format!(
            "decompressed {o} bytes, expected {output_len}"
        )));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_roundtrip() {
        let c = compress(&[]);
        assert_eq!(decompress(&c, 0).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn repetitive_data_compresses_well() {
        let data: Vec<u8> = (0..100_000u32).map(|i| (i % 17) as u8).collect();
        let c = compress(&data);
        assert!(
            c.len() < data.len() / 10,
            "compressed {} of {}",
            c.len(),
            data.len()
        );
        assert_eq!(decompress(&c, data.len()).unwrap(), data);
    }

    #[test]
    fn zero_page_compresses_extremely() {
        let data = vec![0u8; 65536];
        let c = compress(&data);
        assert!(c.len() < 2100, "len={}", c.len());
        assert_eq!(decompress(&c, data.len()).unwrap(), data);
    }

    #[test]
    fn random_data_expands_bounded() {
        let mut rng = iq_common::DetRng::new(3);
        let data: Vec<u8> = (0..10_000).map(|_| rng.next_u64() as u8).collect();
        let c = compress(&data);
        assert!(c.len() <= data.len() + data.len() / 128 + 16);
        assert_eq!(decompress(&c, data.len()).unwrap(), data);
    }

    #[test]
    fn an_incompressible_page_is_probed_at_a_thinning_schedule() {
        // Every probe writes the slot of its hash; an entry of this input
        // is at or above the base it was opened with. Probing every byte
        // would fill ≈ 7 200 distinct slots; the skip schedule ≈ 990.
        let mut rng = iq_common::DetRng::new(5);
        let data: Vec<u8> = (0..8192).map(|_| rng.next_u64() as u8).collect();
        let mut table = MatchTable::new();
        let base = table.base;
        let mut out = Vec::new();
        assert!(table.compress(&data, &mut out, usize::MAX));
        let written = table.head.iter().filter(|&&e| e >= base).count();
        assert!((900..=1_100).contains(&written), "{written} slots written");
        assert_eq!(decompress(&out, data.len()).unwrap(), data);
    }

    #[test]
    fn overlapping_match_roundtrip() {
        // "abcabcabc..." forces matches with offset < length.
        let data: Vec<u8> = b"abc".iter().copied().cycle().take(5000).collect();
        let c = compress(&data);
        // 131-byte max match ⇒ ~39 match tokens of 3 bytes each.
        assert!(c.len() < 200, "len={}", c.len());
        assert_eq!(decompress(&c, data.len()).unwrap(), data);
    }

    #[test]
    fn corrupt_stream_is_rejected_not_panicking() {
        let data = vec![7u8; 1000];
        let mut c = compress(&data);
        // Truncate mid-token.
        c.truncate(c.len() / 2);
        assert!(decompress(&c, data.len()).is_err());
        // Bogus offset.
        let bad = vec![0x85, 0xff, 0xff];
        assert!(decompress(&bad, 100).is_err());
        // Wrong declared length.
        let c = compress(&data);
        assert!(decompress(&c, data.len() + 1).is_err());
    }

    #[test]
    fn a_table_carried_across_the_epoch_wrap_parses_like_a_fresh_one() {
        let mut rng = iq_common::DetRng::new(9);
        let mut low_entropy =
            |n: usize| -> Vec<u8> { (0..n).map(|_| (rng.below(4) * 16) as u8).collect() };
        let (a, b) = (low_entropy(5000), low_entropy(3000));
        let with = |table: &mut MatchTable, data: &[u8]| {
            let mut out = Vec::new();
            assert!(table.compress(data, &mut out, usize::MAX));
            out
        };
        let fresh = |data: &[u8]| with(&mut MatchTable::new(), data);

        // A is the last input to fit under the top of the epoch space; B
        // finds its entries, numerically far above B's own, and must clear
        // them, not read them as candidates.
        let mut table = MatchTable::new();
        table.base = u32::MAX - (a.len() + WINDOW) as u32;
        assert_eq!(with(&mut table, &a), fresh(&a));
        assert_eq!(table.base, u32::MAX);
        assert_eq!(with(&mut table, &b), fresh(&b));
        assert_eq!(
            table.base,
            MatchTable::FIRST_BASE + (b.len() + WINDOW) as u32
        );
        // And with no wrap between them: B's entries are A's stale ones.
        assert_eq!(with(&mut table, &a), fresh(&a));
    }

    proptest! {
        #[test]
        fn roundtrip_arbitrary(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
            let c = compress(&data);
            prop_assert_eq!(decompress(&c, data.len()).unwrap(), data);
        }

        #[test]
        fn roundtrip_structured(seed in any::<u64>(), n in 1usize..2048) {
            // Low-entropy data resembling n-bit packed columns.
            let mut rng = iq_common::DetRng::new(seed);
            let data: Vec<u8> = (0..n).map(|_| (rng.below(4) * 16) as u8).collect();
            let c = compress(&data);
            prop_assert_eq!(decompress(&c, data.len()).unwrap(), data);
        }
    }
}
