//! Zone maps: per-row-group min/max used to prune pages.
//!
//! "It uses zone-maps to early-prune pages that are not needed for a
//! query" (§1). A [`ZoneEntry`] summarizes one column within one row
//! group; the scan consults it before touching the page, so pruned groups
//! cost zero I/O — which matters doubly on a high-latency object store.

use serde::{Deserialize, Serialize};

use crate::chunk::Col;
use crate::value::Value;

/// Min/max summary of one column in one row group. Strings are summarized
/// by their dictionary codes' min/max only when code order is not
/// meaningful, so string zones store the lexical min/max directly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ZoneEntry {
    /// Integer/date range (dates widen to i64).
    Num {
        /// Minimum value.
        min: i64,
        /// Maximum value.
        max: i64,
    },
    /// Float range.
    Flt {
        /// Minimum value.
        min: f64,
        /// Maximum value.
        max: f64,
    },
    /// Lexical string range.
    Txt {
        /// Minimum value.
        min: String,
        /// Maximum value.
        max: String,
    },
    /// No summary (empty group).
    None,
}

impl ZoneEntry {
    /// Summarize a column.
    pub fn of(col: &Col) -> ZoneEntry {
        match col {
            Col::I64(v) => match (v.iter().min(), v.iter().max()) {
                (Some(&min), Some(&max)) => ZoneEntry::Num { min, max },
                _ => ZoneEntry::None,
            },
            Col::Date(v) => match (v.iter().min(), v.iter().max()) {
                (Some(&min), Some(&max)) => ZoneEntry::Num {
                    min: min as i64,
                    max: max as i64,
                },
                _ => ZoneEntry::None,
            },
            Col::F64(v) => {
                if v.is_empty() {
                    ZoneEntry::None
                } else {
                    let mut min = f64::INFINITY;
                    let mut max = f64::NEG_INFINITY;
                    for &x in v {
                        min = min.min(x);
                        max = max.max(x);
                    }
                    ZoneEntry::Flt { min, max }
                }
            }
            Col::Str(v) => match v.min_max() {
                Some((min, max)) => ZoneEntry::Txt {
                    min: min.to_owned(),
                    max: max.to_owned(),
                },
                None => ZoneEntry::None,
            },
            // Booleans summarize as a 0/1 numeric range so equality
            // predicates (`flag = TRUE` evaluates as `flag = 1`) prune
            // constant groups.
            Col::Bool(v) => match (v.iter().min(), v.iter().max()) {
                (Some(&min), Some(&max)) => ZoneEntry::Num {
                    min: min as i64,
                    max: max as i64,
                },
                _ => ZoneEntry::None,
            },
        }
    }

    /// Dispatch [`ZoneEntry::may_match_num`]/`_flt`/`_txt` on a literal's
    /// type (dates widen to i64). Conservative: `true` when unknown.
    pub fn may_match_value(&self, op: PruneOp, lit: &Value) -> bool {
        match lit {
            Value::I64(v) => self.may_match_num(op, *v),
            Value::Date(v) => self.may_match_num(op, *v as i64),
            Value::F64(v) => self.may_match_flt(op, *v),
            Value::Str(s) => self.may_match_txt(op, s),
        }
    }

    /// Could any row satisfy `value cmp op`? Conservative: `true` when
    /// unknown.
    pub fn may_match_num(&self, op: PruneOp, lit: i64) -> bool {
        match self {
            ZoneEntry::Num { min, max } => match op {
                PruneOp::Eq => lit >= *min && lit <= *max,
                PruneOp::Lt => *min < lit,
                PruneOp::Le => *min <= lit,
                PruneOp::Gt => *max > lit,
                PruneOp::Ge => *max >= lit,
            },
            _ => true,
        }
    }

    /// Float variant of [`ZoneEntry::may_match_num`].
    pub fn may_match_flt(&self, op: PruneOp, lit: f64) -> bool {
        match self {
            ZoneEntry::Flt { min, max } => match op {
                PruneOp::Eq => lit >= *min && lit <= *max,
                PruneOp::Lt => *min < lit,
                PruneOp::Le => *min <= lit,
                PruneOp::Gt => *max > lit,
                PruneOp::Ge => *max >= lit,
            },
            _ => true,
        }
    }

    /// String variant (lexical comparison).
    pub fn may_match_txt(&self, op: PruneOp, lit: &str) -> bool {
        match self {
            ZoneEntry::Txt { min, max } => match op {
                PruneOp::Eq => lit >= min.as_str() && lit <= max.as_str(),
                PruneOp::Lt => min.as_str() < lit,
                PruneOp::Le => min.as_str() <= lit,
                PruneOp::Gt => max.as_str() > lit,
                PruneOp::Ge => max.as_str() >= lit,
            },
            _ => true,
        }
    }
}

/// Comparison shapes the pruner understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PruneOp {
    /// Equality.
    Eq,
    /// Strictly less than.
    Lt,
    /// Less or equal.
    Le,
    /// Strictly greater than.
    Gt,
    /// Greater or equal.
    Ge,
}

/// One zone-prunable conjunct extracted from a predicate
/// ([`Expr::prune_checks`](crate::expr::Expr::prune_checks)). Every
/// variant is conservative: `may_match` returns `true` unless the zone
/// proves no row in the group can satisfy the conjunct.
#[derive(Debug, Clone, PartialEq)]
pub enum PruneCheck {
    /// `col op literal`.
    Cmp(usize, PruneOp, Value),
    /// `col IN (literals)` — the group survives when any element may
    /// match.
    In(usize, Vec<Value>),
    /// `col <> literal` — prunes only a constant group equal to the
    /// literal (`min == max == lit`).
    Ne(usize, Value),
    /// `col` must fall outside the closed range `[lo, hi]` in the widened
    /// numeric domain (from `EXTRACT(YEAR) <> y`): prunes a zone lying
    /// entirely inside it.
    Outside(usize, i64, i64),
}

impl PruneCheck {
    /// The column the check constrains.
    pub fn col(&self) -> usize {
        match self {
            PruneCheck::Cmp(c, _, _)
            | PruneCheck::In(c, _)
            | PruneCheck::Ne(c, _)
            | PruneCheck::Outside(c, _, _) => *c,
        }
    }

    /// Could any row summarized by `zone` satisfy this conjunct?
    pub fn may_match(&self, zone: &ZoneEntry) -> bool {
        match self {
            PruneCheck::Cmp(_, op, lit) => zone.may_match_value(*op, lit),
            PruneCheck::In(_, lits) => lits
                .iter()
                .any(|lit| zone.may_match_value(PruneOp::Eq, lit)),
            PruneCheck::Ne(_, lit) => match (zone, lit) {
                (ZoneEntry::Num { min, max }, Value::I64(v)) => !(min == max && min == v),
                (ZoneEntry::Num { min, max }, Value::Date(v)) => !(min == max && *min == *v as i64),
                (ZoneEntry::Flt { min, max }, Value::F64(v)) => !(min == max && min == v),
                (ZoneEntry::Txt { min, max }, Value::Str(s)) => {
                    !(min == max && min.as_str() == s.as_ref())
                }
                _ => true,
            },
            PruneCheck::Outside(_, lo, hi) => match zone {
                ZoneEntry::Num { min, max } => min < lo || max > hi,
                _ => true,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::DataType;

    #[test]
    fn num_zone_prunes_correctly() {
        let z = ZoneEntry::of(&Col::I64(vec![10, 20, 30]));
        assert!(z.may_match_num(PruneOp::Eq, 20));
        assert!(!z.may_match_num(PruneOp::Eq, 31));
        assert!(!z.may_match_num(PruneOp::Lt, 10));
        assert!(z.may_match_num(PruneOp::Lt, 11));
        assert!(!z.may_match_num(PruneOp::Gt, 30));
        assert!(z.may_match_num(PruneOp::Ge, 30));
    }

    #[test]
    fn date_zone_widens() {
        let z = ZoneEntry::of(&Col::Date(vec![100, 200]));
        assert_eq!(z, ZoneEntry::Num { min: 100, max: 200 });
    }

    #[test]
    fn float_and_text_zones() {
        let z = ZoneEntry::of(&Col::F64(vec![1.5, -2.5]));
        assert!(z.may_match_flt(PruneOp::Le, -2.5));
        assert!(!z.may_match_flt(PruneOp::Gt, 1.5));
        let z = ZoneEntry::of(&Col::Str(["BRAZIL", "PERU"].into_iter().collect()));
        assert!(z.may_match_txt(PruneOp::Eq, "CANADA"));
        assert!(!z.may_match_txt(PruneOp::Eq, "ZAMBIA"));
    }

    #[test]
    fn mismatched_kind_is_conservative() {
        let z = ZoneEntry::of(&Col::I64(vec![1]));
        // Asking a numeric zone a text question: must not prune.
        assert!(z.may_match_txt(PruneOp::Eq, "x"));
        assert!(ZoneEntry::None.may_match_num(PruneOp::Eq, 5));
    }

    #[test]
    fn empty_columns_yield_none() {
        assert_eq!(ZoneEntry::of(&Col::I64(vec![])), ZoneEntry::None);
        assert_eq!(ZoneEntry::of(&Col::empty(DataType::Str)), ZoneEntry::None);
        assert_eq!(ZoneEntry::of(&Col::Bool(vec![])), ZoneEntry::None);
    }

    #[test]
    fn bool_zone_prunes_constant_groups() {
        let z = ZoneEntry::of(&Col::Bool(vec![false, false, false]));
        assert_eq!(z, ZoneEntry::Num { min: 0, max: 0 });
        assert!(!z.may_match_num(PruneOp::Eq, 1));
        assert!(z.may_match_num(PruneOp::Eq, 0));
        // A mixed group stays conservative for both polarities.
        let z = ZoneEntry::of(&Col::Bool(vec![true, false]));
        assert!(z.may_match_num(PruneOp::Eq, 0));
        assert!(z.may_match_num(PruneOp::Eq, 1));
    }

    #[test]
    fn ne_check_prunes_only_constant_groups() {
        let constant = ZoneEntry::Num { min: 7, max: 7 };
        let spread = ZoneEntry::Num { min: 7, max: 9 };
        let ne = PruneCheck::Ne(0, Value::I64(7));
        assert!(!ne.may_match(&constant));
        assert!(ne.may_match(&spread));
        assert!(ne.may_match(&ZoneEntry::None));
        // Mismatched literal type: conservative.
        assert!(PruneCheck::Ne(0, Value::Str("x".into())).may_match(&constant));
        let txt = ZoneEntry::Txt {
            min: "AIR".into(),
            max: "AIR".into(),
        };
        assert!(!PruneCheck::Ne(0, Value::Str("AIR".into())).may_match(&txt));
        assert!(PruneCheck::Ne(0, Value::Str("RAIL".into())).may_match(&txt));
    }

    #[test]
    fn in_check_survives_on_any_element() {
        let z = ZoneEntry::Num { min: 10, max: 20 };
        let hit = PruneCheck::In(0, vec![Value::I64(5), Value::I64(15)]);
        let miss = PruneCheck::In(0, vec![Value::I64(5), Value::I64(25)]);
        assert!(hit.may_match(&z));
        assert!(!miss.may_match(&z));
        assert!(miss.may_match(&ZoneEntry::None));
    }

    #[test]
    fn outside_check_prunes_contained_zones() {
        let inside = ZoneEntry::Num { min: 12, max: 14 };
        let straddles = ZoneEntry::Num { min: 8, max: 14 };
        let c = PruneCheck::Outside(0, 10, 20);
        assert!(!c.may_match(&inside));
        assert!(c.may_match(&straddles));
        assert!(c.may_match(&ZoneEntry::Flt {
            min: 12.0,
            max: 14.0
        }));
    }
}
