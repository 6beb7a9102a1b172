//! String columns against a `Vec<String>` model.
//!
//! Every column here is decoded from a page against one of two
//! dictionaries that hold the same strings under different codes (and one
//! of them strings no row uses), so each operation meets equal strings
//! behind unequal codes: the gathers and appends, the left join's empty
//! default, sorting and `MIN` / `MAX`, join and group keys, and every
//! string predicate and expression. Whatever the lists, a result must be
//! what the same operation gives over plain strings.

use std::cmp::Ordering;
use std::sync::Arc;

use iq_common::{IqResult, TableId, TxnId};
use iq_engine::encode::{decode_column, encode_column, Dictionary};
use iq_engine::ops::{
    hash_aggregate_exec, hash_join_exec, sort, AggSpec, AggregateSink, JoinType, SortDir,
};
use iq_engine::table::{ScanOptions, Schema, TableMeta, TableWriter};
use iq_engine::value::Value;
use iq_engine::{Chunk, Col, DataType, Expr, Mask, MemPageStore, OpExec, WorkMeter};
use proptest::prelude::*;

/// The strings rows draw from: the empty string, shared prefixes,
/// multi-byte characters and the `LIKE` wildcards themselves.
const POOL: [&str; 13] = [
    "",
    "a",
    "ab",
    "abc",
    "b",
    "ba",
    "\u{e9}",
    "\u{e9}e",
    "na\u{ef}ve",
    "AIR",
    "AIR REG",
    "%",
    "_x",
];

/// The two dictionaries: the pool in order, and the pool reversed after
/// strings no row holds.
fn dictionaries() -> (Dictionary, Dictionary) {
    let (mut a, mut b) = (Dictionary::new(), Dictionary::new());
    for s in POOL {
        a.encode(&Arc::from(s));
    }
    for s in ["zz", "unused"].into_iter().chain(POOL.into_iter().rev()) {
        b.encode(&Arc::from(s));
    }
    (a, b)
}

/// `strs` as a page written through `dict` and read back against it.
fn over(dict: &Dictionary, strs: &[String]) -> Col {
    let codes: Vec<u32> = strs.iter().map(|s| dict.lookup(s).unwrap()).collect();
    let page = encode_column(&Col::Str(strs.iter().collect()), Some(&codes)).unwrap();
    let col = decode_column(&page, Some(dict)).unwrap();
    assert!(Arc::ptr_eq(col.strs().list(), dict.list()));
    col
}

fn model(col: &Col) -> Vec<String> {
    col.strs().iter().map(String::from).collect()
}

fn rows(picks: &[usize]) -> Vec<String> {
    picks
        .iter()
        .map(|&p| POOL[p % POOL.len()].to_string())
        .collect()
}

/// SQL `LIKE` over characters, by recursion: the definition.
fn like(s: &[char], p: &[char]) -> bool {
    match p.split_first() {
        None => s.is_empty(),
        Some(('%', rest)) => (0..=s.len()).any(|i| like(&s[i..], rest)),
        Some(('_', rest)) => !s.is_empty() && like(&s[1..], rest),
        Some((c, rest)) => s.first() == Some(c) && like(&s[1..], rest),
    }
}

fn holds(op: usize, ord: Ordering) -> bool {
    [
        ord.is_eq(),
        ord.is_ne(),
        ord.is_lt(),
        ord.is_le(),
        ord.is_gt(),
        ord.is_ge(),
    ][op]
}

fn cmp(op: usize, a: Expr, b: Expr) -> Expr {
    [Expr::eq, Expr::ne, Expr::lt, Expr::le, Expr::gt, Expr::ge][op](a, b)
}

const PATTERNS: [&str; 9] = [
    "%", "_", "__", "a%", "%b", "%\u{e9}%", "_\u{e9}%", "A%R%", "%%x",
];

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn gathers_and_appends_keep_the_strings(
        a in proptest::collection::vec(0usize..13, 0..70),
        b in proptest::collection::vec(0usize..13, 0..70),
        keep in proptest::collection::vec(any::<bool>(), 70..71),
        idx in proptest::collection::vec(any::<usize>(), 0..40),
    ) {
        let (da, db) = dictionaries();
        let (ma, mb) = (rows(&a), rows(&b));
        let (ca, cb) = (over(&da, &ma), over(&db, &mb));
        prop_assert_eq!(model(&ca), ma.clone());

        let mask = Mask::from_fn(ma.len(), |i| keep[i]);
        let want: Vec<String> = ma.iter().zip(&keep).filter(|(_, &k)| k).map(|(s, _)| s.clone()).collect();
        prop_assert_eq!(model(&ca.filter(&mask)), want);

        if !ma.is_empty() {
            let idx: Vec<usize> = idx.iter().map(|i| i % ma.len()).collect();
            let want: Vec<String> = idx.iter().map(|&i| ma[i].clone()).collect();
            prop_assert_eq!(model(&ca.take(&idx)), want);
        }

        // Across the two lists, and back again.
        let mut ab = ca.clone();
        ab.append(cb.clone()).unwrap();
        ab.append(ca.take(&[])).unwrap();
        ab.append(ca.clone()).unwrap();
        let want: Vec<String> = [&ma[..], &mb[..], &ma[..]].concat();
        prop_assert_eq!(model(&ab), want.clone());
        let stitched = Chunk::concat(vec![
            Chunk::new(vec![cb.clone()]),
            Chunk::new(vec![ca.clone()]),
            Chunk::new(vec![cb.clone()]),
        ]).unwrap();
        prop_assert_eq!(model(stitched.col(0)), [&mb[..], &ma[..], &mb[..]].concat());
        // Equality is by content, whatever the codes.
        prop_assert_eq!(over(&db, &ma), ca.clone());
        prop_assert_eq!(&ab, &Col::Str(want.iter().collect()));
    }

    #[test]
    fn sort_and_min_max_order_by_content(
        a in proptest::collection::vec(0usize..13, 0..70),
        b in proptest::collection::vec(0usize..13, 0..70),
        desc in any::<bool>(),
    ) {
        let (da, db) = dictionaries();
        let (ma, mb) = (rows(&a), rows(&b));
        let mut both = over(&da, &ma);
        both.append(over(&db, &mb)).unwrap();
        let all: Vec<String> = [&ma[..], &mb[..]].concat();
        let ids = Col::I64((0..all.len() as i64).collect());
        let chunk = Chunk::new(vec![both, ids]);
        let meter = WorkMeter::new();

        let dir = if desc { SortDir::Desc } else { SortDir::Asc };
        let sorted = sort(&chunk, &[(0, dir)], &meter);
        let mut want: Vec<usize> = (0..all.len()).collect();
        want.sort_by(|&x, &y| {
            let ord = all[x].cmp(&all[y]);
            if desc { ord.reverse() } else { ord }
        });
        let got: Vec<usize> = sorted.col(1).i64s().iter().map(|&i| i as usize).collect();
        prop_assert_eq!(got, want);

        // Grouped by row parity, and over everything.
        let parity = Col::I64((0..all.len() as i64).map(|i| i % 2).collect());
        let chunk = Chunk::new(vec![chunk.col(0).clone(), parity]);
        for exec in [OpExec::serial(), OpExec::new(3)] {
            let out = hash_aggregate_exec(&chunk, &[1], &[AggSpec::min(0), AggSpec::max(0)], &meter, &exec).unwrap();
            for g in 0..out.len() {
                let p = out.col(0).i64s()[g] as usize;
                let mine = all.iter().skip(p).step_by(2);
                prop_assert_eq!(&out.col(1).strs()[g], mine.clone().min().unwrap().as_str());
                prop_assert_eq!(&out.col(2).strs()[g], mine.max().unwrap().as_str());
            }
            let out = hash_aggregate_exec(&chunk, &[], &[AggSpec::min(0), AggSpec::max(0)], &meter, &exec).unwrap();
            prop_assert_eq!(&out.col(0).strs()[0], all.iter().min().map_or("", String::as_str));
            prop_assert_eq!(&out.col(1).strs()[0], all.iter().max().map_or("", String::as_str));
        }
    }

    #[test]
    fn join_and_group_keys_meet_by_content(
        a in proptest::collection::vec(0usize..13, 0..50),
        b in proptest::collection::vec(0usize..13, 0..30),
        payload_has_empty in any::<bool>(),
    ) {
        let (da, db) = dictionaries();
        let (ma, mb) = (rows(&a), rows(&b));
        let left = Chunk::new(vec![over(&da, &ma)]);
        // The payload's list holds the empty string, or lacks it.
        let tag = |i: usize| if payload_has_empty && i.is_multiple_of(3) { String::new() } else { format!("p{i}") };
        let tags: Vec<String> = (0..mb.len()).map(tag).collect();
        let right = Chunk::new(vec![over(&db, &mb), Col::Str(tags.iter().collect())]);
        let meter = WorkMeter::new();
        for exec in [OpExec::serial(), OpExec::new(2)] {
            for jt in [JoinType::Inner, JoinType::Left, JoinType::Semi, JoinType::Anti] {
                let out = hash_join_exec(&left, &right, &[0], &[0], jt, &meter, &exec).unwrap();
                let mut want: Vec<(String, String)> = Vec::new();
                for l in &ma {
                    let hits: Vec<usize> = (0..mb.len()).filter(|&r| mb[r] == *l).collect();
                    match jt {
                        JoinType::Inner | JoinType::Left => {
                            hits.iter().for_each(|&r| want.push((l.clone(), tags[r].clone())));
                            if jt == JoinType::Left && hits.is_empty() {
                                want.push((l.clone(), String::new()));
                            }
                        }
                        JoinType::Semi if !hits.is_empty() => want.push((l.clone(), String::new())),
                        JoinType::Anti if hits.is_empty() => want.push((l.clone(), String::new())),
                        _ => {}
                    }
                }
                let keys: Vec<String> = want.iter().map(|w| w.0.clone()).collect();
                prop_assert_eq!(model(out.col(0)), keys);
                if matches!(jt, JoinType::Inner | JoinType::Left) {
                    let paid: Vec<String> = want.iter().map(|w| w.1.clone()).collect();
                    prop_assert_eq!(model(out.col(2)), paid);
                }
            }
        }

        // Two key columns over different lists: groups are pairs of
        // strings, numbered in first-seen order.
        let n = ma.len().min(mb.len());
        let pairs = Chunk::new(vec![over(&da, &ma[..n]), over(&db, &mb[..n])]);
        let mut groups: Vec<(&str, &str, i64)> = Vec::new();
        for i in 0..n {
            match groups.iter_mut().find(|g| (g.0, g.1) == (&ma[i][..], &mb[i][..])) {
                Some(g) => g.2 += 1,
                None => groups.push((&ma[i], &mb[i], 1)),
            }
        }
        for exec in [OpExec::serial(), OpExec::new(3)] {
            let out = hash_aggregate_exec(&pairs, &[0, 1], &[AggSpec::count(0)], &meter, &exec).unwrap();
            let got: Vec<(&str, &str, i64)> = (0..out.len())
                .map(|g| (&out.col(0).strs()[g], &out.col(1).strs()[g], out.col(2).i64s()[g]))
                .collect();
            prop_assert_eq!(&got, &groups);
        }
    }

    #[test]
    fn predicates_and_expressions_read_content(
        a in proptest::collection::vec(0usize..13, 0..60),
        b in proptest::collection::vec(0usize..13, 60..61),
        lit in 0usize..14,
        set in proptest::collection::vec(0usize..14, 0..4),
        pattern in 0usize..9,
        start in 0usize..4,
        len in 0usize..4,
    ) {
        let (da, db) = dictionaries();
        let ma = rows(&a);
        let mb = rows(&b[..ma.len()]);
        let chunk = Chunk::new(vec![over(&da, &ma), over(&db, &mb)]);
        // Index 13 is a literal no dictionary holds.
        let text = |i: usize| POOL.get(i).copied().unwrap_or("absent");
        let lit = text(lit);
        let mask = |e: &Expr| e.mask_on(&chunk).unwrap().to_bools();
        let want = |f: &dyn Fn(usize) -> bool| -> Vec<bool> { (0..ma.len()).map(f).collect() };
        for op in 0..6 {
            let c0 = Expr::col(0);
            prop_assert_eq!(mask(&cmp(op, c0.clone(), Expr::lit_str(lit))), want(&|i| holds(op, ma[i].as_str().cmp(lit))));
            prop_assert_eq!(mask(&cmp(op, Expr::lit_str(lit), c0.clone())), want(&|i| holds(op, lit.cmp(&ma[i]))));
            prop_assert_eq!(mask(&cmp(op, c0.clone(), Expr::col(1))), want(&|i| holds(op, ma[i].cmp(&mb[i]))));
            prop_assert_eq!(mask(&cmp(op, c0.clone(), c0.clone())), want(&|_| holds(op, Ordering::Equal)));
        }
        let values: Vec<Value> = set.iter().map(|&i| Value::Str(text(i).into())).collect();
        let names: Vec<&str> = set.iter().map(|&i| text(i)).collect();
        prop_assert_eq!(mask(&Expr::in_list(Expr::col(1), values.clone())), want(&|i| names.contains(&mb[i].as_str())));
        prop_assert_eq!(mask(&Expr::in_list(Expr::lit_str(lit), values)), want(&|_| names.contains(&lit)));

        let p = PATTERNS[pattern];
        let pc: Vec<char> = p.chars().collect();
        let like_of = |s: &str| like(&s.chars().collect::<Vec<_>>(), &pc);
        prop_assert_eq!(mask(&Expr::like(Expr::col(0), p)), want(&|i| like_of(&ma[i])));
        prop_assert_eq!(mask(&Expr::like(Expr::lit_str(lit), p)), want(&|_| like_of(lit)));

        let sub = |s: &str| -> String { s.chars().skip(start.saturating_sub(1)).take(len).collect() };
        let got = Expr::substr(Expr::col(1), start, len).eval_on(&chunk).unwrap();
        prop_assert_eq!(model(&got), mb.iter().map(|s| sub(s)).collect::<Vec<_>>());

        // CASE between the two lists, and between a column and a literal.
        let pick = Expr::lt(Expr::col(0), Expr::col(1));
        let got = Expr::case(pick.clone(), Expr::col(0), Expr::col(1)).eval_on(&chunk).unwrap();
        let mixed: Vec<String> = (0..ma.len()).map(|i| if ma[i] < mb[i] { &ma[i] } else { &mb[i] }.clone()).collect();
        prop_assert_eq!(model(&got), mixed);
        let got = Expr::case(pick.clone(), Expr::lit_str(lit), Expr::col(0)).eval_on(&chunk).unwrap();
        let mixed: Vec<String> = (0..ma.len()).map(|i| if ma[i] < mb[i] { lit } else { &ma[i] }.to_string()).collect();
        prop_assert_eq!(model(&got), mixed);
        let got = Expr::case(pick, Expr::col(1), Expr::col(1)).eval_on(&chunk).unwrap();
        prop_assert!(Arc::ptr_eq(got.strs().list(), db.list()), "one list passes its codes through");
        prop_assert_eq!(model(&got), mb.clone());
    }

    #[test]
    fn a_scan_fed_aggregate_groups_each_morsels_own_list_by_content(
        a in proptest::collection::vec(0usize..13, 0..90),
        workers in 1usize..4,
    ) {
        // The stage gives every morsel a list of its own (a SUBSTRING of
        // the stored strings): groups must still meet across morsels.
        let ma = rows(&a);
        let store = MemPageStore::new();
        let meter = WorkMeter::new();
        let schema = Schema::new(&[("s", DataType::Str), ("k", DataType::I64)]);
        let mut table = TableMeta::new(TableId(1), "t", schema, 8);
        let mut w = TableWriter::new(&mut table, &store, TxnId(1), &meter);
        for (i, s) in ma.iter().enumerate() {
            w.append_row(&[Value::Str(s.as_str().into()), Value::I64(i as i64)]).unwrap();
        }
        w.finish().unwrap();
        let head = Expr::substr(Expr::col(0), 1, 1);
        let stage = |mut c: Chunk| -> IqResult<Chunk> {
            let col = head.eval_on(&c)?;
            c.cols.push(col);
            Ok(c)
        };
        let aggs = [AggSpec::count(1), AggSpec::min(0)];
        let sink = AggregateSink::new(Some(&stage), &[2], &aggs);
        let opts = ScanOptions { workers, late_mat: true };
        let out = sink.scan(&table, &store, &[0, 1], None, &meter, opts).unwrap();
        let mut groups: Vec<(String, i64, String)> = Vec::new();
        for s in &ma {
            let h: String = s.chars().take(1).collect();
            match groups.iter_mut().find(|g| g.0 == h) {
                Some(g) => {
                    g.1 += 1;
                    g.2 = g.2.clone().min(s.clone());
                }
                None => groups.push((h, 1, s.clone())),
            }
        }
        let got: Vec<(String, i64, String)> = (0..out.len())
            .map(|g| (out.col(0).strs()[g].to_string(), out.col(1).i64s()[g], out.col(2).strs()[g].to_string()))
            .collect();
        prop_assert_eq!(got, groups);
    }
}
