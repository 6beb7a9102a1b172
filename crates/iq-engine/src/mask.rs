//! Row-selection bitsets: how a predicate's result travels.
//!
//! A [`Mask`] holds one bit per row in 64-bit words, so the questions a
//! scan asks of it — is any row selected, how many, which — and the
//! boolean connectives all run a word at a time. `Col::Bool` stays a
//! legal *value* column; a mask is what `Expr::eval_mask` returns and
//! what `Col::filter` consumes.

/// One selection bit per row. Bits past `len` in the last word are zero.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mask {
    words: Vec<u64>,
    len: usize,
}

impl Mask {
    /// `len` bits, bit `i` set iff `f(i)`, rows asked in order. A full
    /// word is built from eight bytes of eight rows each: eight short
    /// dependency chains, not one of 64, so one loop serves every caller
    /// — a decoded column, an n-bit page at any width — at about the
    /// cost of reading the values.
    pub fn from_fn(len: usize, mut f: impl FnMut(usize) -> bool) -> Self {
        let mut words = Vec::with_capacity(len.div_ceil(64));
        for base in (0..len / 64).map(|w| w * 64) {
            let mut word = 0u64;
            for k in 0..8 {
                let at = base + 8 * k;
                let mut byte = 0u8;
                for j in 0..8 {
                    byte |= u8::from(f(at + j)) << j;
                }
                word |= u64::from(byte) << (8 * k);
            }
            words.push(word);
        }
        let base = len / 64 * 64;
        if base < len {
            words.push((base..len).fold(0, |acc, i| acc | u64::from(f(i)) << (i - base)));
        }
        Self { words, len }
    }

    /// The rows of `x` whose value satisfies `f`: [`Mask::from_fn`]'s
    /// byte-at-a-time words over the slice itself, each value read
    /// without an index check.
    pub(crate) fn from_slice<T: Copy>(x: &[T], f: impl Fn(T) -> bool) -> Self {
        let mut words = Vec::with_capacity(x.len().div_ceil(64));
        let mut runs = x.chunks_exact(64);
        for run in &mut runs {
            let mut word = 0u64;
            for (k, eight) in run.chunks_exact(8).enumerate() {
                let mut byte = 0u8;
                for (j, &v) in eight.iter().enumerate() {
                    byte |= u8::from(f(v)) << j;
                }
                word |= u64::from(byte) << (8 * k);
            }
            words.push(word);
        }
        let rest = runs.remainder();
        if !rest.is_empty() {
            words
                .push((rest.iter().enumerate()).fold(0, |acc, (j, &v)| acc | u64::from(f(v)) << j));
        }
        Self {
            words,
            len: x.len(),
        }
    }

    /// The mask of a boolean value column.
    pub fn from_bools(v: &[bool]) -> Self {
        Self::from_fn(v.len(), |i| v[i])
    }

    /// As a boolean value column's payload.
    pub fn to_bools(&self) -> Vec<bool> {
        (0..self.len).map(|i| self.get(i)).collect()
    }

    /// Number of rows covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if it covers no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bit `i` (must be `< len`).
    pub fn get(&self, i: usize) -> bool {
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Bit `i`, and false past `len`: a set over a list's codes
    /// answering a code read off a page or a column.
    pub(crate) fn has(&self, i: u64) -> bool {
        i < self.len as u64 && self.get(i as usize)
    }

    /// True if any row is selected.
    pub fn any(&self) -> bool {
        self.words.iter().any(|&w| w != 0)
    }

    /// Number of selected rows.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The bits, 64 rows to a word, row `i` at bit `i % 64` of word `i / 64`.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Selected row indices, ascending.
    pub fn iter_set(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            std::iter::successors((word != 0).then_some(word), |&rest| {
                let rest = rest & (rest - 1);
                (rest != 0).then_some(rest)
            })
            .map(move |rest| w * 64 + rest.trailing_zeros() as usize)
        })
    }

    fn zip(&self, other: &Mask, f: impl Fn(u64, u64) -> u64) -> Mask {
        assert_eq!(self.len, other.len, "mask lengths differ");
        let words = self
            .words
            .iter()
            .zip(&other.words)
            .map(|(&a, &b)| f(a, b))
            .collect();
        Mask {
            words,
            len: self.len,
        }
    }

    /// Row-wise conjunction.
    pub fn and(&self, other: &Mask) -> Mask {
        self.zip(other, |a, b| a & b)
    }

    /// Row-wise disjunction.
    pub fn or(&self, other: &Mask) -> Mask {
        self.zip(other, |a, b| a | b)
    }

    /// Row-wise negation.
    pub fn not(&self) -> Mask {
        let mut words: Vec<u64> = self.words.iter().map(|w| !w).collect();
        if !self.len.is_multiple_of(64) {
            if let Some(last) = words.last_mut() {
                *last &= (1u64 << (self.len % 64)) - 1;
            }
        }
        Mask {
            words,
            len: self.len,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn word_boundaries_match_the_bool_definitions() {
        for len in [0usize, 1, 63, 64, 65, 127, 128, 129] {
            let bools: Vec<bool> = (0..len).map(|i| i % 3 == 0 || i == len - 1).collect();
            let m = Mask::from_bools(&bools);
            assert_eq!(m.len(), len);
            assert_eq!(m.to_bools(), bools);
            assert_eq!(m.any(), bools.iter().any(|&b| b));
            assert_eq!(m.count(), bools.iter().filter(|&&b| b).count());
            let set: Vec<usize> = (0..len).filter(|&i| bools[i]).collect();
            assert_eq!(m.iter_set().collect::<Vec<_>>(), set);
            // Negation keeps the tail bits clear, so counting stays exact.
            assert_eq!(m.not().count(), len - m.count());
            assert_eq!(m.not().not(), m);
            assert_eq!(Mask::from_slice(&bools, |b| b), m);
            let rows: Vec<usize> = (0..len).collect();
            assert_eq!(Mask::from_slice(&rows, |i| bools[i]), m);
            assert!(
                (0..len as u64 + 70).all(|i| m.has(i) == bools.get(i as usize).is_some_and(|&b| b))
            );
        }
        assert!(!Mask::from_fn(64, |_| false).any());
        assert_eq!(Mask::from_fn(65, |_| true).count(), 65);
    }

    proptest! {
        #[test]
        fn connectives_match_bools(
            a in proptest::collection::vec(any::<bool>(), 0..200),
            b in proptest::collection::vec(any::<bool>(), 0..200),
        ) {
            let n = a.len().min(b.len());
            let (a, b) = (&a[..n], &b[..n]);
            let (ma, mb) = (Mask::from_bools(a), Mask::from_bools(b));
            let and: Vec<bool> = a.iter().zip(b).map(|(&x, &y)| x && y).collect();
            let or: Vec<bool> = a.iter().zip(b).map(|(&x, &y)| x || y).collect();
            let not: Vec<bool> = a.iter().map(|&x| !x).collect();
            prop_assert_eq!(ma.and(&mb).to_bools(), and);
            prop_assert_eq!(ma.or(&mb).to_bools(), or);
            prop_assert_eq!(ma.not().to_bools(), not);
            for (i, &bit) in a.iter().enumerate() {
                prop_assert_eq!(ma.get(i), bit);
            }
        }
    }
}
