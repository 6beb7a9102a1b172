//! Columnar batches flowing between operators.

use iq_common::{IqError, IqResult};

use crate::mask::Mask;
use crate::strcol::StrCol;
use crate::value::{DataType, Value};

/// One materialized column.
#[derive(Debug, Clone, PartialEq)]
pub enum Col {
    /// Integers.
    I64(Vec<i64>),
    /// Floats.
    F64(Vec<f64>),
    /// Strings: codes over a shared list of distinct strings.
    Str(StrCol),
    /// Dates (days since epoch).
    Date(Vec<i32>),
    /// Booleans (predicate results).
    Bool(Vec<bool>),
}

impl Col {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Col::I64(v) => v.len(),
            Col::F64(v) => v.len(),
            Col::Str(v) => v.len(),
            Col::Date(v) => v.len(),
            Col::Bool(v) => v.len(),
        }
    }

    /// True if no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The column's type (`None` for Bool, which never persists).
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Col::I64(_) => Some(DataType::I64),
            Col::F64(_) => Some(DataType::F64),
            Col::Str(_) => Some(DataType::Str),
            Col::Date(_) => Some(DataType::Date),
            Col::Bool(_) => None,
        }
    }

    /// Value at `row`.
    pub fn value(&self, row: usize) -> Value {
        match self {
            Col::I64(v) => Value::I64(v[row]),
            Col::F64(v) => Value::F64(v[row]),
            Col::Str(v) => Value::Str(v.value(row)),
            Col::Date(v) => Value::Date(v[row]),
            Col::Bool(v) => Value::I64(v[row] as i64),
        }
    }

    /// Keep only rows whose `mask` bit is set.
    pub fn filter(&self, mask: &Mask) -> Col {
        fn pick<T: Clone>(v: &[T], mask: &Mask) -> Vec<T> {
            assert_eq!(v.len(), mask.len(), "mask length differs from column");
            let mut out = Vec::with_capacity(mask.count());
            for (rows, &word) in v.chunks(64).zip(mask.words()) {
                if word == u64::MAX {
                    out.extend_from_slice(rows);
                } else {
                    let mut rest = word;
                    while rest != 0 {
                        out.push(rows[rest.trailing_zeros() as usize].clone());
                        rest &= rest - 1;
                    }
                }
            }
            out
        }
        match self {
            Col::I64(v) => Col::I64(pick(v, mask)),
            Col::F64(v) => Col::F64(pick(v, mask)),
            Col::Str(v) => Col::Str(v.with_codes(pick(v.codes(), mask))),
            Col::Date(v) => Col::Date(pick(v, mask)),
            Col::Bool(v) => Col::Bool(pick(v, mask)),
        }
    }

    /// Gather rows by index.
    pub fn take(&self, idx: &[usize]) -> Col {
        fn pick<T: Clone>(v: &[T], idx: &[usize]) -> Vec<T> {
            idx.iter().map(|&i| v[i].clone()).collect()
        }
        match self {
            Col::I64(v) => Col::I64(pick(v, idx)),
            Col::F64(v) => Col::F64(pick(v, idx)),
            Col::Str(v) => Col::Str(v.with_codes(pick(v.codes(), idx))),
            Col::Date(v) => Col::Date(pick(v, idx)),
            Col::Bool(v) => Col::Bool(pick(v, idx)),
        }
    }

    /// Append another column of the same variant, moving its values in.
    pub fn append(&mut self, other: Col) -> IqResult<()> {
        match (self, other) {
            (Col::I64(a), Col::I64(b)) => a.extend(b),
            (Col::F64(a), Col::F64(b)) => a.extend(b),
            (Col::Str(a), Col::Str(b)) => a.append(b),
            (Col::Date(a), Col::Date(b)) => a.extend(b),
            (Col::Bool(a), Col::Bool(b)) => a.extend(b),
            _ => return Err(IqError::Invalid("column type mismatch on append".into())),
        }
        Ok(())
    }

    /// Reserve room for `additional` more rows.
    pub fn reserve(&mut self, additional: usize) {
        match self {
            Col::I64(v) => v.reserve(additional),
            Col::F64(v) => v.reserve(additional),
            Col::Str(v) => v.reserve(additional),
            Col::Date(v) => v.reserve(additional),
            Col::Bool(v) => v.reserve(additional),
        }
    }

    /// Keep the first `rows` rows, and the capacity.
    pub(crate) fn truncate(&mut self, rows: usize) {
        match self {
            Col::I64(v) => v.truncate(rows),
            Col::F64(v) => v.truncate(rows),
            Col::Str(v) => v.truncate(rows),
            Col::Date(v) => v.truncate(rows),
            Col::Bool(v) => v.truncate(rows),
        }
    }

    /// Typed accessors (panic on wrong variant — internal plan errors).
    pub fn i64s(&self) -> &[i64] {
        match self {
            Col::I64(v) => v,
            _ => panic!("expected I64 column"),
        }
    }

    /// Float slice.
    pub fn f64s(&self) -> &[f64] {
        match self {
            Col::F64(v) => v,
            _ => panic!("expected F64 column"),
        }
    }

    /// String column.
    pub fn strs(&self) -> &StrCol {
        match self {
            Col::Str(v) => v,
            _ => panic!("expected Str column"),
        }
    }

    /// Date slice.
    pub fn dates(&self) -> &[i32] {
        match self {
            Col::Date(v) => v,
            _ => panic!("expected Date column"),
        }
    }

    /// Bool slice.
    pub fn bools(&self) -> &[bool] {
        match self {
            Col::Bool(v) => v,
            _ => panic!("expected Bool column"),
        }
    }

    /// Append one value (must match the variant).
    pub fn push(&mut self, v: &Value) -> IqResult<()> {
        match (self, v) {
            (Col::I64(c), Value::I64(x)) => c.push(*x),
            (Col::F64(c), Value::F64(x)) => c.push(*x),
            (Col::F64(c), Value::I64(x)) => c.push(*x as f64),
            (Col::Str(c), Value::Str(x)) => c.push(x),
            (Col::Date(c), Value::Date(x)) => c.push(*x),
            (col, v) => {
                return Err(IqError::Invalid(format!(
                    "cannot push {:?} into {:?} column",
                    v.data_type(),
                    col.data_type()
                )))
            }
        }
        Ok(())
    }

    /// An empty column of the given type.
    pub fn empty(dtype: DataType) -> Col {
        match dtype {
            DataType::I64 => Col::I64(Vec::new()),
            DataType::F64 => Col::F64(Vec::new()),
            DataType::Str => Col::Str(StrCol::default()),
            DataType::Date => Col::Date(Vec::new()),
        }
    }
}

/// A batch of rows: parallel columns of equal length.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Chunk {
    /// The columns.
    pub cols: Vec<Col>,
}

impl Chunk {
    /// Build from columns (must be equal length).
    pub fn new(cols: Vec<Col>) -> Self {
        if let Some(first) = cols.first() {
            debug_assert!(cols.iter().all(|c| c.len() == first.len()));
        }
        Self { cols }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.cols.first().map_or(0, Col::len)
    }

    /// True if no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Column accessor.
    pub fn col(&self, i: usize) -> &Col {
        &self.cols[i]
    }

    /// Keep rows whose `mask` bit is set.
    pub fn filter(&self, mask: &Mask) -> Chunk {
        Chunk::new(self.cols.iter().map(|c| c.filter(mask)).collect())
    }

    /// Gather rows by index.
    pub fn take(&self, idx: &[usize]) -> Chunk {
        Chunk::new(self.cols.iter().map(|c| c.take(idx)).collect())
    }

    /// Append another chunk's rows, moving them in.
    pub fn append(&mut self, other: Chunk) -> IqResult<()> {
        if self.cols.is_empty() {
            self.cols = other.cols;
            return Ok(());
        }
        if self.cols.len() != other.cols.len() {
            return Err(IqError::Invalid("chunk arity mismatch on append".into()));
        }
        for (a, b) in self.cols.iter_mut().zip(other.cols) {
            a.append(b)?;
        }
        Ok(())
    }

    /// Stitch chunks end to end in order: the output is sized once from
    /// their row counts and every value is moved, never cloned.
    pub fn concat(chunks: Vec<Chunk>) -> IqResult<Chunk> {
        let total: usize = chunks.iter().map(Chunk::len).sum();
        let mut chunks = chunks.into_iter();
        let mut out = chunks.next().unwrap_or_default();
        let more = total - out.len();
        out.cols.iter_mut().for_each(|c| c.reserve(more));
        for chunk in chunks {
            out.append(chunk)?;
        }
        Ok(out)
    }

    /// Project a subset of columns by index.
    pub fn project(&self, idx: &[usize]) -> Chunk {
        Chunk::new(idx.iter().map(|&i| self.cols[i].clone()).collect())
    }

    /// Row as values (debug/result rendering).
    pub fn row(&self, r: usize) -> Vec<Value> {
        self.cols.iter().map(|c| c.value(r)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Chunk {
        Chunk::new(vec![
            Col::I64(vec![1, 2, 3]),
            Col::F64(vec![1.5, 2.5, 3.5]),
            Col::Str(["a", "b", "c"].into_iter().collect()),
        ])
    }

    #[test]
    fn filter_take_project() {
        let c = sample();
        let f = c.filter(&Mask::from_bools(&[true, false, true]));
        assert_eq!(f.len(), 2);
        assert_eq!(f.col(0).i64s(), &[1, 3]);
        let t = c.take(&[2, 0, 0]);
        assert_eq!(&t.col(2).strs()[0], "c");
        assert_eq!(t.col(0).i64s(), &[3, 1, 1]);
        let p = c.project(&[2, 0]);
        assert_eq!(p.cols.len(), 2);
        assert_eq!(p.col(1).i64s(), &[1, 2, 3]);
    }

    #[test]
    fn append_checks_arity_and_types() {
        let mut a = sample();
        let b = sample();
        a.append(b).unwrap();
        assert_eq!(a.len(), 6);
        let bad = Chunk::new(vec![Col::I64(vec![1])]);
        assert!(a.append(bad).is_err());
        let mut x = Col::I64(vec![1]);
        assert!(x.append(Col::F64(vec![1.0])).is_err());
    }

    #[test]
    fn empty_chunk_append_adopts() {
        let mut e = Chunk::default();
        assert!(e.is_empty());
        e.append(sample()).unwrap();
        assert_eq!(e.len(), 3);
    }

    #[test]
    fn concat_moves_chunks_in_order() {
        let out = Chunk::concat(vec![sample(), sample().take(&[]), sample().take(&[2])]).unwrap();
        assert_eq!(out.col(0).i64s(), &[1, 2, 3, 3]);
        assert_eq!(&out.col(2).strs()[3], "c");
        assert!(Chunk::concat(Vec::new()).unwrap().cols.is_empty());
        let bad = Chunk::new(vec![Col::I64(vec![1])]);
        assert!(Chunk::concat(vec![sample(), bad]).is_err());
    }

    #[test]
    fn filter_by_word_matches_per_row_selection() {
        for len in [0usize, 63, 64, 65, 130] {
            let col = Col::I64((0..len as i64).collect());
            let all = Mask::from_fn(len, |_| true);
            assert_eq!(col.filter(&all), col);
            let odd = Mask::from_fn(len, |i| i % 2 == 1);
            let want: Vec<i64> = (0..len as i64).filter(|i| i % 2 == 1).collect();
            assert_eq!(col.filter(&odd).i64s(), &want[..]);
        }
    }

    #[test]
    fn row_rendering() {
        let c = sample();
        let row = c.row(1);
        assert_eq!(row[0], Value::I64(2));
        assert_eq!(row[2].as_str(), Some("b"));
    }
}
