//! String columns: `u32` codes over a shared list of distinct strings.
//!
//! A string column carries the paper's dictionary encoding into
//! execution: one code a row and an `Arc` to the [`StrList`] the codes
//! index. A scan hands every morsel of a column the list of that column's
//! [`Dictionary`](crate::encode::Dictionary), so decoding a page and
//! filtering, gathering or appending columns over one list move `u32`s and
//! never touch a string or a reference count per row. An operator that
//! needs the strings themselves reads them through the list once per
//! distinct code of its input (a predicate's mask, a `SUBSTRING`, the
//! ranks a sort compares, a zone's bounds); a string `MIN` / `MAX`
//! compares each row's string with its group's best. A string becomes a
//! value of its own only at the result ([`StrCol::value`]).

use std::collections::HashMap;
use std::fmt;
use std::ops::Index;
use std::sync::{Arc, LazyLock};

use crate::mask::Mask;
use crate::ops::{mix, Interner};

/// Distinct strings in code order, and the index from a string back to
/// its code. Append-only: a code keeps its string for the life of the
/// list. Lists are shared by `Arc` and a shared list never changes: a
/// dictionary interns into a copy ([`Arc::make_mut`]), a column into a
/// compact list of its own.
#[derive(Debug, Default, Clone)]
pub struct StrList {
    strings: Vec<Arc<str>>,
    index: HashMap<Arc<str>, u32>,
}

impl StrList {
    /// Number of distinct strings.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// True if the list holds no string.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// The string of `code`, if the list holds one.
    pub fn get(&self, code: u32) -> Option<&Arc<str>> {
        self.strings.get(code as usize)
    }

    /// The code of `s`, if interned.
    pub fn lookup(&self, s: &str) -> Option<u32> {
        self.index.get(s).copied()
    }

    /// The strings in code order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &str> + '_ {
        self.strings.iter().map(|s| &**s)
    }

    /// The codes of `lits` as a set over the list: bit `c` set iff
    /// string `c` is one of them (a string the list lacks sets none).
    /// What `=`, `<>` and `IN` against string literals select, so a row
    /// costs one bit test ([`Mask::has`]) however long the literal list.
    pub(crate) fn code_set<'a>(&self, lits: impl IntoIterator<Item = &'a str>) -> Mask {
        let mut codes: Vec<usize> = (lits.into_iter())
            .filter_map(|s| Some(self.lookup(s)? as usize))
            .collect();
        codes.sort_unstable();
        codes.dedup();
        // `from_fn` asks the codes in order: one cursor walks the sorted set.
        let mut next = codes.into_iter().peekable();
        Mask::from_fn(self.len(), |c| next.next_if_eq(&c).is_some())
    }

    /// The string of a code the list is known to hold.
    fn str(&self, code: u32) -> &str {
        &self.strings[code as usize]
    }

    /// Intern `s`, keeping the caller's `Arc` when it is new.
    pub(crate) fn intern(&mut self, s: &Arc<str>) -> u32 {
        if let Some(code) = self.lookup(s) {
            return code;
        }
        let code = u32::try_from(self.strings.len()).expect("fewer than 2^32 strings");
        self.strings.push(Arc::clone(s));
        self.index.insert(Arc::clone(s), code);
        code
    }

    /// Intern a borrowed string, copying it only when it is new.
    fn intern_str(&mut self, s: &str) -> u32 {
        match self.lookup(s) {
            Some(code) => code,
            None => self.intern(&Arc::from(s)),
        }
    }
}

/// The list of a column that holds no strings of its own yet.
static EMPTY: LazyLock<Arc<StrList>> = LazyLock::new(Arc::default);

/// A string column: one code a row over a shared [`StrList`]. Two columns
/// are equal when their rows hold equal strings, whatever their lists.
#[derive(Clone)]
pub struct StrCol {
    codes: Vec<u32>,
    list: Arc<StrList>,
}

impl Default for StrCol {
    fn default() -> Self {
        Self::from_codes(Vec::new(), Arc::clone(&EMPTY))
    }
}

impl StrCol {
    /// `codes` over `list`: every code must index the list.
    pub(crate) fn from_codes(codes: Vec<u32>, list: Arc<StrList>) -> Self {
        debug_assert!(codes.iter().all(|&c| (c as usize) < list.len()));
        Self { codes, list }
    }

    /// `n` rows of `s`, over a list that holds `s` alone.
    pub(crate) fn repeat(s: &str, n: usize) -> Self {
        let mut list = StrList::default();
        list.intern_str(s);
        Self::from_codes(vec![0; n], Arc::new(list))
    }

    /// `codes` over this column's list.
    pub(crate) fn with_codes(&self, codes: Vec<u32>) -> Self {
        Self::from_codes(codes, Arc::clone(&self.list))
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True if no rows.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Each row's code.
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// The list the codes index.
    pub fn list(&self) -> &Arc<StrList> {
        &self.list
    }

    /// The string of `row`.
    pub fn get(&self, row: usize) -> &str {
        self.list.str(self.codes[row])
    }

    /// Every row's string, in row order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &str> + '_ {
        self.codes.iter().map(|&c| self.list.str(c))
    }

    /// The string of `row` as a value: the list's own `Arc`, shared.
    pub fn value(&self, row: usize) -> Arc<str> {
        Arc::clone(&self.list.strings[self.codes[row] as usize])
    }

    /// Room for `additional` more rows.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.codes.reserve(additional);
    }

    /// Keep the first `rows` rows, and the capacity.
    pub(crate) fn truncate(&mut self, rows: usize) {
        self.codes.truncate(rows);
    }

    /// Append `s`, interning it into this column's own list.
    pub(crate) fn push(&mut self, s: &Arc<str>) {
        let code = self.own().intern(s);
        self.codes.push(code);
    }

    /// The codes, giving up the list.
    pub(crate) fn into_codes(self) -> Vec<u32> {
        self.codes
    }

    /// Append `other`'s rows. Over the same list its codes are copied; over
    /// another, each distinct code of `other` is interned into this
    /// column's own list once and its rows take the new code.
    pub(crate) fn append(&mut self, other: StrCol) {
        if Arc::ptr_eq(&self.list, &other.list) {
            self.codes.extend_from_slice(&other.codes);
        } else if self.codes.is_empty() {
            // Nothing to remap: take the other list (keeping any reserve).
            self.list = other.list;
            self.codes.extend_from_slice(&other.codes);
        } else if !other.codes.is_empty() {
            let list = self.own();
            let codes = remap(&other.codes, &other.list, |s| list.intern(s));
            self.codes.extend(codes);
        }
    }

    /// This column's list, for interning into: a list anyone else holds is
    /// first replaced by a compact one of the strings the column uses.
    fn own(&mut self) -> &mut StrList {
        if Arc::get_mut(&mut self.list).is_none() {
            let mut list = StrList::default();
            self.codes = remap(&self.codes, &self.list, |s| list.intern(s));
            self.list = Arc::new(list);
        }
        Arc::get_mut(&mut self.list).expect("a list of the column's own")
    }

    /// The column's distinct codes in first-seen order; `slot` takes each
    /// row's position among them, in row order.
    fn distinct(&self, mut slot: impl FnMut(u32)) -> Vec<u32> {
        let mut slots = CodeSlots::new(self.list.len(), self.len());
        let mut codes = Vec::new();
        for &c in &self.codes {
            let s = slots.slot(c);
            if s == codes.len() {
                codes.push(c);
            }
            slot(s as u32);
        }
        codes
    }

    /// [`distinct`](Self::distinct) with the rows' positions, `(codes, slots)`.
    fn distinct_slots(&self) -> (Vec<u32>, Vec<u32>) {
        let mut slots = Vec::with_capacity(self.len());
        let codes = self.distinct(|s| slots.push(s));
        (codes, slots)
    }

    /// The rows whose string satisfies `f`. `f` runs once per distinct code
    /// of the column — never per entry of its list — and each row reads
    /// its code's answer.
    pub(crate) fn mask(&self, mut f: impl FnMut(&str) -> bool) -> Mask {
        let (codes, slots) = self.distinct_slots();
        let hit: Vec<bool> = codes.iter().map(|&c| f(self.list.str(c))).collect();
        Mask::from_fn(self.len(), |i| hit[slots[i] as usize])
    }

    /// `f` of every row's string, as a column over a list of its own: `f`
    /// runs once per distinct code, and equal results share a code.
    pub(crate) fn map(&self, f: impl Fn(&str) -> &str) -> StrCol {
        let mut list = StrList::default();
        let codes = remap(&self.codes, &self.list, |s| list.intern_str(f(s)));
        StrCol::from_codes(codes, Arc::new(list))
    }

    /// Each row's rank among the column's distinct strings: rows order as
    /// their ranks do, so a sort compares `u32`s, and each
    /// distinct string is compared in one sort of the distinct codes.
    pub(crate) fn ranks(&self) -> Vec<u32> {
        let (codes, slots) = self.distinct_slots();
        let mut order: Vec<usize> = (0..codes.len()).collect();
        order.sort_unstable_by(|&a, &b| self.list.str(codes[a]).cmp(self.list.str(codes[b])));
        let mut rank = vec![0u32; codes.len()];
        for (r, &s) in order.iter().enumerate() {
            rank[s] = r as u32;
        }
        slots.iter().map(|&s| rank[s as usize]).collect()
    }

    /// The least and the greatest string, each distinct code's string
    /// compared once; `None` with no rows.
    pub(crate) fn min_max(&self) -> Option<(&str, &str)> {
        let codes = self.distinct(|_| {});
        let mut strs = codes.iter().map(|&c| self.list.str(c));
        let first = strs.next()?;
        Some(strs.fold((first, first), |(lo, hi), s| (lo.min(s), hi.max(s))))
    }

    /// `n` rows gathered from `srcs`: row `i` is row `pick(i).1` of
    /// `srcs[pick(i).0]`. Sources over one list pass their codes through;
    /// otherwise the result takes a list of its own, into which each
    /// source's strings are interned once per distinct code.
    pub(crate) fn gather(
        srcs: &[&StrCol],
        n: usize,
        pick: impl Fn(usize) -> (usize, usize),
    ) -> StrCol {
        let first = srcs.first().expect("a source to gather from");
        if srcs.iter().all(|s| Arc::ptr_eq(&s.list, &first.list)) {
            return first.with_codes(
                (0..n)
                    .map(|i| {
                        let (s, row) = pick(i);
                        srcs[s].codes[row]
                    })
                    .collect(),
            );
        }
        let mut list = StrList::default();
        let to: Vec<Vec<u32>> = srcs
            .iter()
            .map(|s| remap(&s.codes, &s.list, |x| list.intern(x)))
            .collect();
        let codes = (0..n)
            .map(|i| {
                let (s, row) = pick(i);
                to[s][row]
            })
            .collect();
        StrCol::from_codes(codes, Arc::new(list))
    }
}

/// `to` of the string behind each of `codes`, codes of `from`: called
/// once per distinct code, in first-seen order, every row taking its
/// code's answer. How a column's codes are carried into another list.
pub(crate) fn remap<T: Copy>(
    codes: &[u32],
    from: &StrList,
    mut to: impl FnMut(&Arc<str>) -> T,
) -> Vec<T> {
    let mut slots = CodeSlots::new(from.len(), codes.len());
    let mut done: Vec<T> = Vec::new();
    codes
        .iter()
        .map(|&c| {
            let s = slots.slot(c);
            if s == done.len() {
                done.push(to(&from.strings[c as usize]));
            }
            done[s]
        })
        .collect()
}

/// The distinct codes of one list met so far, numbered in first-seen
/// order: a table over the list when the list is short beside the rows
/// that will be looked up, else a hash of the codes met — so a few rows
/// over a long list never pay for the whole list.
enum CodeSlots {
    /// Each code's number, `u32::MAX` until met, and how many are.
    Table(Vec<u32>, u32),
    /// The codes met, by hash.
    Hash(Interner<u32>),
}

impl CodeSlots {
    /// For codes of a list of `list_len` entries, met on `rows` rows.
    fn new(list_len: usize, rows: usize) -> Self {
        if list_len <= rows.saturating_mul(4).saturating_add(64) {
            CodeSlots::Table(vec![u32::MAX; list_len], 0)
        } else {
            CodeSlots::Hash(Interner::with_capacity(rows))
        }
    }

    /// The number of `code`, numbering it next on first sight.
    fn slot(&mut self, code: u32) -> usize {
        match self {
            CodeSlots::Table(table, met) => {
                let s = &mut table[code as usize];
                if *s == u32::MAX {
                    *s = *met;
                    *met += 1;
                }
                *s as usize
            }
            CodeSlots::Hash(seen) => seen.intern(mix(u64::from(code)), code),
        }
    }
}

impl PartialEq for StrCol {
    fn eq(&self, other: &Self) -> bool {
        if Arc::ptr_eq(&self.list, &other.list) {
            self.codes == other.codes
        } else {
            self.len() == other.len() && self.iter().eq(other.iter())
        }
    }
}

impl fmt::Debug for StrCol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl Index<usize> for StrCol {
    type Output = str;

    fn index(&self, row: usize) -> &str {
        self.get(row)
    }
}

/// A column over a list of its own, the strings interned in row order.
impl<S: AsRef<str>> FromIterator<S> for StrCol {
    fn from_iter<I: IntoIterator<Item = S>>(iter: I) -> Self {
        let mut list = StrList::default();
        let codes = iter
            .into_iter()
            .map(|s| list.intern_str(s.as_ref()))
            .collect();
        StrCol::from_codes(codes, Arc::new(list))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    fn col(strs: &[&str]) -> StrCol {
        strs.iter().collect()
    }

    #[test]
    fn a_column_interns_in_first_seen_order() {
        let c = col(&["b", "a", "b", ""]);
        assert_eq!(c.codes(), [0, 1, 0, 2]);
        assert_eq!(c.list().len(), 3);
        assert_eq!(&c[2], "b");
        assert_eq!(c.iter().collect::<Vec<_>>(), ["b", "a", "b", ""]);
        assert_eq!(&*c.value(1), "a");
        assert_eq!(format!("{c:?}"), r#"["b", "a", "b", ""]"#);
    }

    #[test]
    fn equality_is_by_content_across_lists() {
        let a = col(&["x", "y", "x"]);
        let b = col(&["y", "x"]);
        assert_ne!(a, b);
        // The same strings under other codes.
        let c = StrCol::gather(&[&b], 3, |i| (0, [1, 0, 1][i]));
        assert_ne!(a.codes(), c.codes());
        assert_eq!(a, c);
        assert_ne!(a, b.with_codes(vec![1, 0, 0]));
    }

    #[test]
    fn appending_another_list_remaps_once_per_distinct_code() {
        let shared = col(&["a", "b"]);
        let mut a = shared.clone();
        // `a` shares its list: interning compacts it into one of its own
        // first, and the clone it came from keeps the old one.
        a.append(col(&["c", "a", "c"]));
        assert!(!Arc::ptr_eq(a.list(), shared.list()));
        assert_eq!(a, col(&["a", "b", "c", "a", "c"]));
        assert_eq!(a.list().len(), 3);
        assert_eq!(shared.list().len(), 2);
        // Over one list, codes are copied.
        let mut b = shared.with_codes(vec![1]);
        b.append(shared.with_codes(vec![0, 1]));
        assert!(Arc::ptr_eq(b.list(), shared.list()));
        assert_eq!(b.codes(), [1, 0, 1]);
        // An empty column adopts the other list.
        let mut e = StrCol::default();
        e.append(shared.clone());
        assert!(Arc::ptr_eq(e.list(), shared.list()));
    }

    #[test]
    fn a_predicate_over_eight_rows_of_a_long_list_runs_per_distinct_code() {
        let mut list = StrList::default();
        for i in 0..100_000 {
            list.intern_str(&format!("s{i:06}"));
        }
        let list = Arc::new(list);
        let c = StrCol::from_codes(vec![5, 99_999, 5, 42, 70_000, 42, 1, 5], Arc::clone(&list));
        let calls = Cell::new(0);
        let m = c.mask(|s| {
            calls.set(calls.get() + 1);
            s < "s050000"
        });
        assert_eq!(
            m.to_bools(),
            [true, false, true, true, false, true, true, true]
        );
        assert!(calls.get() <= 8);
        assert_eq!(calls.get(), 5, "one call per distinct code");
        // A few rows over a long list never build a table over it.
        assert!(matches!(
            CodeSlots::new(list.len(), c.len()),
            CodeSlots::Hash(_)
        ));
    }

    #[test]
    fn ranks_order_rows_as_their_strings() {
        let c = col(&["pear", "apple", "fig", "apple", ""]);
        assert_eq!(c.ranks(), [3, 1, 2, 1, 0]);
        assert_eq!(c.min_max(), Some(("", "pear")));
        assert_eq!(StrCol::default().min_max(), None);
        let m = c.map(|s| s.get(..1).unwrap_or(""));
        assert_eq!(m, col(&["p", "a", "f", "a", ""]));
        assert_eq!(m.list().len(), 4);
    }
}
