//! Page checksums.
//!
//! One 64-bit word-at-a-time hash guards every page image and the catalog
//! blob. It is not cryptographic — it exists to catch torn or stale images
//! (and in the update-in-place ablation, to *detect* the stale reads the
//! never-write-twice policy is designed to rule out). Every page miss pays
//! it once over the whole payload, so it runs at memory speed: four
//! independent lanes over 32-byte stripes keep four multiplies in flight
//! where a byte-serial hash waits on one.
//!
//! Every step — of a lane, of the serial tail, the lane fold, the finish —
//! is a bijection of the running state for fixed input and of the input
//! word for fixed state. So two inputs of one length that differ in
//! exactly one 8-byte word (any single flipped bit, any torn word) never
//! collide, and neither do two seeds over the same data: chaining the
//! header's sum in as the payload's seed loses nothing.

const P1: u64 = 0x9e37_79b1_85eb_ca87;
const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const P3: u64 = 0x1656_67b1_9e37_79f9;

/// Fold one input word into a lane (or the serial state).
fn step(state: u64, word: u64) -> u64 {
    (state ^ word).rotate_left(29).wrapping_mul(P1)
}

fn word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("an 8-byte chunk"))
}

/// 64-bit checksum of `data`, chained from `seed` (0 for a first or only
/// part). Sealed images never outlive the process that wrote them, so the
/// function carries no version and has no stable test vectors.
pub fn checksum64(seed: u64, data: &[u8]) -> u64 {
    let mut lanes = [P2, P3, P2.rotate_left(32), P3.rotate_left(32)];
    let mut stripes = data.chunks_exact(32);
    for s in &mut stripes {
        lanes[0] = step(lanes[0], word(&s[0..8]));
        lanes[1] = step(lanes[1], word(&s[8..16]));
        lanes[2] = step(lanes[2], word(&s[16..24]));
        lanes[3] = step(lanes[3], word(&s[24..32]));
    }
    // Wrapping addition is a bijection of each operand, so the seed and
    // every lane reach the serial state intact.
    let mut h = (seed ^ P1)
        .wrapping_add(lanes[0].rotate_left(1))
        .wrapping_add(lanes[1].rotate_left(7))
        .wrapping_add(lanes[2].rotate_left(12))
        .wrapping_add(lanes[3].rotate_left(18));
    let mut words = stripes.remainder().chunks_exact(8);
    for w in &mut words {
        h = step(h, word(w));
    }
    let rest = words.remainder();
    if !rest.is_empty() {
        let mut last = [0u8; 8];
        last[..rest.len()].copy_from_slice(rest);
        h = step(h, u64::from_le_bytes(last));
    }
    // The length tells a zero-padded tail from real zero bytes.
    h = step(h, data.len() as u64);
    // Avalanche: every input bit reaches every output bit.
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(len: usize) -> Vec<u8> {
        let mut rng = iq_common::DetRng::new(len as u64 + 1);
        (0..len).map(|_| rng.next_u64() as u8).collect()
    }

    #[test]
    fn every_tail_length_is_stable_and_distinct() {
        // 0..=63 covers no stripe / one stripe, 0–3 tail words, 0–7 tail bytes.
        let data = sample(64);
        let sums: Vec<u64> = (0..64).map(|n| checksum64(0, &data[..n])).collect();
        for (n, &s) in sums.iter().enumerate() {
            assert_eq!(s, checksum64(0, &data[..n]), "len {n} not stable");
        }
        let mut distinct = sums.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), sums.len());
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        // Three stripes, a tail word and five tail bytes: every code path.
        // (A whole page image, header included: `tests/codec_oracle.rs`.)
        let mut data = sample(3 * 32 + 8 + 5);
        let sum = checksum64(7, &data);
        for bit in 0..data.len() * 8 {
            data[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(checksum64(7, &data), sum, "bit {bit} undetected");
            data[bit / 8] ^= 1 << (bit % 8);
        }
    }

    #[test]
    fn length_and_order_are_covered() {
        let data = sample(4096);
        let sum = checksum64(0, &data);
        assert_ne!(checksum64(0, &data[..4095]), sum, "truncation");
        let mut longer = data.clone();
        longer.push(0);
        assert_ne!(checksum64(0, &longer), sum, "zero extension");
        assert_ne!(checksum64(0, &[0u8; 31]), checksum64(0, &[0u8; 32]));
        // Words 0 and 4 (bytes 0.. and 32..) both feed lane 0.
        let mut swapped = data.clone();
        swapped.copy_within(32..40, 0);
        swapped[32..40].copy_from_slice(&data[0..8]);
        assert_ne!(checksum64(0, &swapped), sum, "same-lane word swap");
        // Neighbouring words feed different lanes.
        let mut swapped = data.clone();
        swapped.copy_within(8..16, 0);
        swapped[8..16].copy_from_slice(&data[0..8]);
        assert_ne!(checksum64(0, &swapped), sum, "cross-lane word swap");
    }

    #[test]
    fn seed_chains() {
        let data = sample(100);
        assert_ne!(checksum64(0, &data), checksum64(1, &data));
        assert_ne!(checksum64(0, &[]), checksum64(1, &[]));
    }
}
