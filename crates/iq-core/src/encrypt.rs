//! Page-image encryption.
//!
//! "When encryption is enabled, the buffer manager of SAP IQ hands over
//! pages to the OCM in encrypted form; and the pages are decrypted upon
//! being read from the OCM. Consequently, neither the pages that are
//! cached in the locally attached storage nor the ones that are persisted
//! on the object stores, can unintentionally expose user data" (§4).
//!
//! The reproduction uses a keyed XOR stream (a SplitMix64 keystream) — a
//! *stand-in* demonstrating where encryption sits in the data path, not a
//! real cipher. The property the architecture needs, and tests assert, is
//! that ciphertext reaches the OCM/object store and plaintext never does.
//!
//! Scope: encryption covers **data pages** flowing through the pager (the
//! pages that carry user data). Blockmap pages hold only structural
//! locator tables and are stored unencrypted, as are catalog blobs on the
//! strongly consistent system dbspace.

use bytes::Bytes;

fn keystream(key: u64, counter: u64) -> u64 {
    let mut z = key ^ counter.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// XOR-encrypt/decrypt (involution): one keystream word per eight bytes,
/// applied a word at a time.
pub fn apply(key: u64, data: &[u8]) -> Bytes {
    let mut out = Vec::with_capacity(data.len());
    let mut words = data.chunks_exact(8);
    for (i, chunk) in (&mut words).enumerate() {
        let word = u64::from_le_bytes(chunk.try_into().expect("an 8-byte chunk"));
        out.extend_from_slice(&(word ^ keystream(key, i as u64)).to_le_bytes());
    }
    let ks = keystream(key, (data.len() / 8) as u64).to_le_bytes();
    out.extend(words.remainder().iter().zip(ks).map(|(b, k)| b ^ k));
    Bytes::from(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn involution() {
        let data = b"page image bytes with some structure 0000000";
        let enc = apply(42, data);
        assert_ne!(&enc[..], &data[..]);
        let dec = apply(42, &enc);
        assert_eq!(&dec[..], &data[..]);
    }

    #[test]
    fn wrong_key_does_not_decrypt() {
        let data = vec![7u8; 64];
        let enc = apply(1, &data);
        let bad = apply(2, &enc);
        assert_ne!(&bad[..], &data[..]);
    }

    #[test]
    fn ciphertext_equals_the_byte_at_a_time_loop() {
        fn bytewise(key: u64, data: &[u8]) -> Vec<u8> {
            let mut out = Vec::with_capacity(data.len());
            for (i, chunk) in data.chunks(8).enumerate() {
                let ks = keystream(key, i as u64).to_le_bytes();
                for (j, &b) in chunk.iter().enumerate() {
                    out.push(b ^ ks[j]);
                }
            }
            out
        }
        let mut rng = iq_common::DetRng::new(5);
        let data: Vec<u8> = (0..4096 + 7).map(|_| rng.next_u64() as u8).collect();
        // Every tail length, and a whole page image.
        for len in (0..=24).chain([4096, data.len()]) {
            assert_eq!(
                &apply(77, &data[..len])[..],
                &bytewise(77, &data[..len])[..]
            );
        }
    }

    #[test]
    fn empty_ok() {
        assert_eq!(apply(9, &[]).len(), 0);
    }
}
