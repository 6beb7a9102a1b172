//! The page codec against its predecessor and against hostile bytes.
//!
//! * `oracle_compress` is the compressor as it stood before the
//!   allocation-free rewrite, plus the skip-ahead rule (`misses` since the
//!   last match; a miss moves the cursor `1 + (misses >> 6)`). The product
//!   compressor must equal it byte for byte over random, low-entropy,
//!   periodic, ramp-with-noise, all-zero, n-bit-packed and
//!   random-then-periodic inputs, and whatever an earlier call left in the
//!   reused match table.
//! * With the skip turned off the oracle is the greedy parse that tests
//!   every position — kept here as a *ratio* reference only: on data that
//!   compresses, skipping may cost at most 1 % of output length.
//! * The page checksum covers the header fields as well as the payload:
//!   every single-bit flip of either is refused.
//! * `decompress` and `Page::unseal` take bytes read off a device: no
//!   input makes them panic, and a declared length beyond what the
//!   compressed bytes can encode is refused before anything is allocated.

use bytes::Bytes;
use iq_common::{DetRng, IqError, PageId, VersionId};
use iq_storage::checksum::checksum64;
use iq_storage::compress::{compress, decompress};
use iq_storage::page::HEADER_LEN;
use iq_storage::{Page, PageKind, StorageConfig};
use proptest::prelude::*;

const MIN_MATCH: usize = 4;
const MAX_MATCH: usize = 0x7f + MIN_MATCH;
const MAX_LITERAL: usize = 0x80;
const WINDOW: usize = u16::MAX as usize;
const HASH_BITS: u32 = 15;
/// Output bytes one compressed byte can stand for, at most (a 3-byte
/// match token of `MAX_MATCH`).
const MAX_EXPANSION: usize = 44;

fn hash4(data: &[u8]) -> usize {
    let v = u32::from_le_bytes([data[0], data[1], data[2], data[3]]);
    (v.wrapping_mul(0x9e37_79b1) >> (32 - HASH_BITS)) as usize
}

/// A miss run tests every position for `1 << SKIP_TRIGGER` probes, then
/// the step grows by one byte every as many probes again.
const SKIP_TRIGGER: u32 = 6;

/// The reference parse; `skip: false` tests every position (greedy).
fn oracle_compress(input: &[u8], skip: bool) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    let mut head = vec![usize::MAX; 1 << HASH_BITS];
    let mut literal_start = 0usize;
    let mut i = 0usize;
    let mut misses = 0usize;

    let flush_literals = |out: &mut Vec<u8>, from: usize, to: usize, input: &[u8]| {
        let mut s = from;
        while s < to {
            let n = (to - s).min(MAX_LITERAL);
            out.push((n - 1) as u8);
            out.extend_from_slice(&input[s..s + n]);
            s += n;
        }
    };

    while i + MIN_MATCH <= input.len() {
        let h = hash4(&input[i..]);
        let candidate = head[h];
        head[h] = i;
        let mut match_len = 0usize;
        if candidate != usize::MAX && i - candidate <= WINDOW && candidate < i {
            let max = (input.len() - i).min(MAX_MATCH);
            let mut l = 0usize;
            while l < max && input[candidate + l] == input[i + l] {
                l += 1;
            }
            if l >= MIN_MATCH {
                match_len = l;
            }
        }
        if match_len > 0 {
            flush_literals(&mut out, literal_start, i, input);
            let offset = (i - candidate) as u16;
            out.push(0x80 | (match_len - MIN_MATCH) as u8);
            out.extend_from_slice(&offset.to_le_bytes());
            // Seed the hash table through the matched region (sparsely, for
            // speed) so later matches can reference it.
            let end = i + match_len;
            let mut j = i + 1;
            while j + MIN_MATCH <= end.min(input.len()) {
                head[hash4(&input[j..])] = j;
                j += 2;
            }
            i = end;
            literal_start = i;
            misses = 0;
        } else {
            i += 1 + if skip { misses >> SKIP_TRIGGER } else { 0 };
            misses += 1;
        }
    }
    flush_literals(&mut out, literal_start, input.len(), input);
    out
}

/// A frame-of-reference n-bit column image as `iq-engine` lays it out:
/// `min i64 | width u8 | values packed LSB-first`. The values are a
/// clustered key with small gaps, so neighbouring codes share high bits.
fn nbit_column(rng: &mut DetRng, rows: usize, width: u32) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&1_000i64.to_le_bytes());
    out.push(width as u8);
    let keep = u64::MAX >> (64 - width);
    let (mut acc, mut bits) = (0u128, 0u32);
    let mut key = 0u64;
    for _ in 0..rows {
        key += rng.below(4);
        acc |= ((key & keep) as u128) << bits;
        bits += width;
        if bits >= 64 {
            out.extend_from_slice(&(acc as u64).to_le_bytes());
            acc >>= 64;
            bits -= 64;
        }
    }
    out.extend_from_slice(&(acc as u64).to_le_bytes()[..bits.div_ceil(8) as usize]);
    out
}

const MODES: [&str; 7] = [
    "random",
    "2-bit",
    "period-17",
    "ramp+noise",
    "zero",
    "n-bit",
    "random+period",
];

fn input(mode: &str, len: usize, rng: &mut DetRng) -> Vec<u8> {
    match mode {
        "random" => (0..len).map(|_| rng.next_u64() as u8).collect(),
        "2-bit" => (0..len).map(|_| (rng.below(4) * 16) as u8).collect(),
        "period-17" => (0..len).map(|i| (i % 17) as u8).collect(),
        "ramp+noise" => (0..len)
            .map(|i| {
                if rng.chance(0.03) {
                    rng.next_u64() as u8
                } else {
                    (i / 3) as u8
                }
            })
            .collect(),
        "zero" => vec![0; len],
        "n-bit" => {
            let mut image = nbit_column(rng, len * 8 / 11 + 1, 11);
            image.truncate(len);
            image.resize(len, 0);
            image
        }
        // A miss run long enough to skip far, then data that matches.
        "random+period" => {
            let mut image = input("random", len / 2, rng);
            image.extend(input("period-17", len - len / 2, rng));
            image
        }
        other => unreachable!("mode {other}"),
    }
}

/// Every short length (each tail shape of the matcher), then lengths up to
/// past the 64 KiB window.
fn sizes(rng: &mut DetRng) -> Vec<usize> {
    let mut sizes: Vec<usize> = (0..=40).collect();
    sizes.extend([
        127, 128, 129, 131, 132, 135, 4096, 8192, 65_535, 65_536, 70_000,
    ]);
    sizes.extend((0..6).map(|_| rng.below(70_000) as usize));
    sizes
}

#[test]
fn compress_equals_the_oracle_byte_for_byte() {
    let mut rng = DetRng::new(0xc0dec);
    for mode in MODES {
        for len in sizes(&mut rng) {
            let data = input(mode, len, &mut rng);
            let packed = compress(&data);
            assert!(
                packed == oracle_compress(&data, true),
                "{mode} input of {len} bytes compresses differently"
            );
            assert!(
                decompress(&packed, len).expect("own output decodes") == data,
                "{mode} input of {len} bytes does not round-trip"
            );
        }
    }
}

#[test]
fn a_reused_match_table_equals_a_fresh_one() {
    // Every call after the first draws a table some earlier call (here or
    // on another test's thread) returned to the pool: B's stream must not
    // see A's positions, whether A was longer (stale entries past B's
    // end), shorter, or of another mode hashing to the same slots.
    let mut rng = DetRng::new(0x7ab1e);
    let mut previous = 0usize;
    for round in 0..48 {
        let mode = MODES[rng.below(MODES.len() as u64) as usize];
        let len = match round % 3 {
            0 => rng.below(300) as usize,
            1 => rng.below(9_000) as usize,
            _ => rng.below(70_000) as usize,
        };
        let data = input(mode, len, &mut rng);
        assert!(
            compress(&data) == oracle_compress(&data, true),
            "round {round}: {mode} of {len} bytes after an input of {previous} bytes"
        );
        previous = len;
    }
    // The same bytes twice: every slot the second call reads was written,
    // at the same position, by the first.
    let data = input("2-bit", 20_000, &mut rng);
    assert_eq!(compress(&data), compress(&data));
}

#[test]
fn skipping_costs_at_most_one_percent_over_the_greedy_parse() {
    // Over the modes that compress throughout (measured: ramp+noise
    // +0.77 %, n-bit +0.86 %, the rest +0.000 %). A random head pays the
    // literals before its tail's first match instead: the next test.
    let mut rng = DetRng::new(0x5c1b);
    for mode in MODES.into_iter().filter(|m| !m.starts_with("random")) {
        let (mut skipping, mut greedy) = (0usize, 0usize);
        for len in sizes(&mut rng) {
            let data = input(mode, len, &mut rng);
            skipping += compress(&data).len();
            greedy += oracle_compress(&data, false).len();
        }
        assert!(
            skipping * 100 <= greedy * 101,
            "{mode}: {skipping} bytes where the greedy parse takes {greedy}"
        );
    }
}

#[test]
fn data_that_matches_after_a_long_miss_run_still_compresses() {
    // 32 KiB of noise leave the cursor skipping ≈ 32 bytes a probe when
    // the periodic tail begins: the tail costs what it costs on its own
    // plus the literals before its first match.
    let mut rng = DetRng::new(0x7a11);
    let data = input("random+period", 65_536, &mut rng);
    let (head, tail) = data.split_at(32_768);
    let (packed, alone) = (compress(&data).len(), compress(tail).len());
    assert!(
        packed <= compress(head).len() + alone + 1_024,
        "{packed} bytes; the head alone {}, the tail alone {alone}",
        compress(head).len()
    );
    assert!(
        alone < tail.len() / 32,
        "the tail alone takes {alone} bytes"
    );
}

fn cfg() -> StorageConfig {
    StorageConfig::test_small()
}

fn sealed(body: Vec<u8>) -> Vec<u8> {
    let page = Page::new(PageId(77), VersionId(5), PageKind::Data, Bytes::from(body));
    page.seal(&cfg()).expect("seal").0.to_vec()
}

/// Overwrite an image's stored checksum with the one its header fields and
/// payload now have, as `Page::seal` computes it.
fn reseal(image: &mut [u8]) {
    let payload_len = u32::from_le_bytes(image[28..32].try_into().unwrap()) as usize;
    let end = (HEADER_LEN + payload_len).min(image.len());
    let sum = checksum64(checksum64(0, &image[..32]), &image[HEADER_LEN..end]);
    image[32..HEADER_LEN].copy_from_slice(&sum.to_le_bytes());
}

#[test]
fn reseal_matches_seal() {
    let image = sealed(vec![9; 2000]);
    let mut again = image.clone();
    again[32..HEADER_LEN].fill(0);
    reseal(&mut again);
    assert_eq!(again, image);
}

#[test]
fn every_bit_of_header_and_payload_is_under_the_checksum() {
    let mut rng = DetRng::new(11);
    // Incompressible, so the payload is the body and fills the image.
    let image = sealed(input("random", 4096 - HEADER_LEN, &mut rng));
    assert_eq!(image.len(), 4096);
    let want = Page::unseal(&image).expect("clean image");
    for bit in 0..image.len() * 8 {
        let mut bad = image.clone();
        bad[bit / 8] ^= 1 << (bit % 8);
        match Page::unseal(&bad) {
            Err(IqError::Corruption(_)) => {}
            // The two reserved header bytes are the only ones no check reads.
            Ok(page) if (6..8).contains(&(bit / 8)) => assert_eq!(page, want),
            other => panic!("flipped bit {bit} (byte {}): {other:?}", bit / 8),
        }
    }
}

#[test]
fn torn_identity_is_refused() {
    // Before the header was under the checksum, an image whose `id` or
    // `version` word was torn unsealed as a valid page of another identity.
    let image = sealed(vec![3; 500]);
    for at in [8usize, 16] {
        let mut bad = image.clone();
        bad[at] ^= 0x40;
        assert!(matches!(Page::unseal(&bad), Err(IqError::Corruption(_))));
    }
}

#[test]
fn oversized_body_len_is_refused_before_allocating() {
    // A flipped high bit in `body_len`, with a checksum that vouches for
    // it (so the length bound is what refuses): 2 GiB must not be
    // reserved on the word of four header bytes.
    let mut image = sealed(vec![3; 500]);
    assert_eq!(image[5], 1, "compressed");
    image[27] ^= 0x80;
    reseal(&mut image);
    let err = Page::unseal(&image).expect_err("oversized body_len");
    assert!(
        matches!(&err, IqError::Corruption(m) if m.contains("cannot decode")),
        "{err:?}"
    );
    assert!(matches!(
        decompress(&[0x85, 1, 0], usize::MAX),
        Err(IqError::Corruption(_))
    ));
}

#[test]
fn unknown_flag_bit_is_refused() {
    let mut image = sealed(vec![3; 500]);
    image[5] |= 0x10;
    reseal(&mut image);
    let err = Page::unseal(&image).expect_err("unknown flag");
    assert!(
        matches!(&err, IqError::Corruption(m) if m.contains("flags")),
        "{err:?}"
    );
}

proptest! {
    #[test]
    fn decompress_survives_arbitrary_bytes(
        stream in proptest::collection::vec(any::<u8>(), 0..600),
        declared in prop_oneof![0usize..4096, any::<usize>()],
    ) {
        match decompress(&stream, declared) {
            Ok(out) => {
                prop_assert_eq!(out.len(), declared);
                prop_assert!(declared <= stream.len() * MAX_EXPANSION);
            }
            Err(IqError::Corruption(_)) => {}
            Err(other) => prop_assert!(false, "unexpected error {other:?}"),
        }
        if declared > stream.len() * MAX_EXPANSION {
            prop_assert!(decompress(&stream, declared).is_err());
        }
    }

    #[test]
    fn decompress_survives_a_damaged_stream(
        seed in any::<u64>(),
        len in 0usize..3000,
        at in any::<usize>(),
        xor in 1u8..=255,
    ) {
        let mut rng = DetRng::new(seed);
        let data = input("2-bit", len, &mut rng);
        let mut stream = compress(&data);
        if !stream.is_empty() {
            let at = at % stream.len();
            stream[at] ^= xor;
        }
        if let Ok(out) = decompress(&stream, len) {
            prop_assert_eq!(out.len(), len);
        }
    }

    #[test]
    fn unseal_survives_arbitrary_bytes(
        image in proptest::collection::vec(any::<u8>(), 0..400),
    ) {
        if let Err(e) = Page::unseal(&image) {
            prop_assert!(matches!(e, IqError::Corruption(_)), "{:?}", e);
        }
    }

    /// Arbitrary header fields and payload behind a valid magic, kind and
    /// checksum: what a decoder bug, not line noise, would hand `unseal`.
    #[test]
    fn unseal_survives_a_vouched_for_image(
        mut image in proptest::collection::vec(any::<u8>(), HEADER_LEN..400),
        kind in 0u8..4,
        flags in prop_oneof![Just(0u8), Just(1u8), any::<u8>()],
        body_len in prop_oneof![0u32..2048, any::<u32>()],
        slack in 0usize..8,
    ) {
        let body_len: u32 = body_len;
        image[0..4].copy_from_slice(&0x4951_5047u32.to_le_bytes());
        image[4] = kind;
        image[5] = flags;
        let payload_len = (image.len() - HEADER_LEN).saturating_sub(slack);
        image[24..28].copy_from_slice(&body_len.to_le_bytes());
        image[28..32].copy_from_slice(&(payload_len as u32).to_le_bytes());
        reseal(&mut image);
        match Page::unseal(&image) {
            Ok(page) => {
                prop_assert!(flags <= 1);
                prop_assert_eq!(page.body.len(), body_len as usize);
                prop_assert!(page.body.len() <= payload_len * MAX_EXPANSION);
            }
            Err(IqError::Corruption(_)) => {}
            Err(other) => prop_assert!(false, "unexpected error {other:?}"),
        }
        if flags > 1 || body_len as usize > payload_len * MAX_EXPANSION {
            prop_assert!(Page::unseal(&image).is_err());
        }
    }
}
