//! Typed values.
//!
//! TPC-H needs four physical types: 64-bit integers (keys, quantities),
//! 64-bit floats (prices — standing in for IQ's fixed-point decimals; the
//! substitution is recorded in DESIGN.md), dictionary-encoded strings, and
//! dates (days since 1970-01-01). There are no NULLs in TPC-H base data;
//! the engine does not model NULLs (LEFT joins fill zero/empty, which is
//! what Q13's `count(o_orderkey)` needs).

use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

/// Physical column type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DataType {
    /// 64-bit signed integer.
    I64,
    /// 64-bit float (decimal stand-in).
    F64,
    /// Dictionary-encoded string.
    Str,
    /// Days since 1970-01-01.
    Date,
}

/// A single typed value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Integer.
    I64(i64),
    /// Float.
    F64(f64),
    /// String.
    Str(Arc<str>),
    /// Date (days since epoch).
    Date(i32),
}

impl Value {
    /// The value's type.
    pub fn data_type(&self) -> DataType {
        match self {
            Value::I64(_) => DataType::I64,
            Value::F64(_) => DataType::F64,
            Value::Str(_) => DataType::Str,
            Value::Date(_) => DataType::Date,
        }
    }

    /// Integer accessor.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::I64(v) => Some(*v),
            _ => None,
        }
    }

    /// Float accessor (integers widen).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::F64(v) => Some(*v),
            Value::I64(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// String accessor.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::I64(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v:.2}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Date(d) => write!(f, "{}", format_date(*d)),
        }
    }
}

/// Days since 1970-01-01 for a calendar date. Proleptic Gregorian; valid
/// for the TPC-H range (1992–1998) and far beyond.
pub fn date_to_days(year: i32, month: u32, day: u32) -> i32 {
    // Howard Hinnant's days_from_civil algorithm.
    let y = if month <= 2 { year - 1 } else { year };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = (y - era * 400) as i64;
    let m = month as i64;
    let d = day as i64;
    let doy = (153 * (if m > 2 { m - 3 } else { m + 9 }) + 2) / 5 + d - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    (era as i64 * 146_097 + doe - 719_468) as i32
}

/// Inverse of [`date_to_days`]: `(year, month, day)`.
pub fn days_to_date(days: i32) -> (i32, u32, u32) {
    let z = days as i64 + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = (if mp < 10 { mp + 3 } else { mp - 9 }) as u32;
    ((y + i64::from(m <= 2)) as i32, m, d)
}

/// Parse `"YYYY-MM-DD"`.
pub fn parse_date(s: &str) -> Option<i32> {
    let mut it = s.split('-');
    let y: i32 = it.next()?.parse().ok()?;
    let m: u32 = it.next()?.parse().ok()?;
    let d: u32 = it.next()?.parse().ok()?;
    if it.next().is_some() || !(1..=12).contains(&m) || !(1..=31).contains(&d) {
        return None;
    }
    Some(date_to_days(y, m, d))
}

/// Format days-since-epoch as `"YYYY-MM-DD"`.
pub fn format_date(days: i32) -> String {
    let (y, m, d) = days_to_date(days);
    format!("{y:04}-{m:02}-{d:02}")
}

/// Calendar year of a date.
pub fn year_of(days: i32) -> i32 {
    days_to_date(days).0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn date_roundtrip_known_values() {
        assert_eq!(date_to_days(1970, 1, 1), 0);
        assert_eq!(date_to_days(1970, 1, 2), 1);
        assert_eq!(date_to_days(1969, 12, 31), -1);
        // TPC-H boundary dates.
        assert_eq!(format_date(parse_date("1998-12-01").unwrap()), "1998-12-01");
        assert_eq!(format_date(parse_date("1992-01-01").unwrap()), "1992-01-01");
    }

    #[test]
    fn date_roundtrip_exhaustive_range() {
        // Every day across the TPC-H years plus leap boundaries.
        let start = date_to_days(1992, 1, 1);
        let end = date_to_days(1999, 12, 31);
        for d in start..=end {
            let (y, m, day) = days_to_date(d);
            assert_eq!(date_to_days(y, m, day), d);
        }
    }

    #[test]
    fn leap_years_handled() {
        assert_eq!(
            parse_date("1996-02-29").unwrap() - parse_date("1996-02-28").unwrap(),
            1
        );
        assert_eq!(year_of(parse_date("1996-02-29").unwrap()), 1996);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_date("not-a-date").is_none());
        assert!(parse_date("1996-13-01").is_none());
        assert!(parse_date("1996-01").is_none());
        assert!(parse_date("1996-01-01-05").is_none());
    }

    #[test]
    fn value_accessors() {
        assert_eq!(Value::I64(5).as_f64(), Some(5.0));
        assert_eq!(Value::F64(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::Str("x".into()).as_str(), Some("x"));
        assert_eq!(Value::Str("x".into()).as_i64(), None);
        assert_eq!(Value::Date(0).data_type(), DataType::Date);
    }

    #[test]
    fn value_display() {
        assert_eq!(Value::F64(1.005).to_string(), "1.00");
        assert_eq!(Value::Date(0).to_string(), "1970-01-01");
    }
}
