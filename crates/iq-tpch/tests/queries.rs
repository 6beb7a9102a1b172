//! Validation of the 22 TPC-H query plans.
//!
//! Official qualification answers only exist at SF 1, which is too large
//! for unit tests; instead each query is validated structurally (arity,
//! ordering, value ranges) and several are cross-checked against an
//! independent brute-force recomputation over the generated rows.

use std::sync::OnceLock;

use iq_common::TxnId;
use iq_engine::value::{parse_date, Value};
use iq_engine::{MemPageStore, WorkMeter};
use iq_tpch::queries::{run_query, Ctx};
use iq_tpch::{Generator, TpchDb};

const SF: f64 = 0.005;
const SEED: u64 = 20210620; // SIGMOD '21 opening day

struct Fixture {
    db: TpchDb,
    store: MemPageStore,
    meter: WorkMeter,
}

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let store = MemPageStore::new();
        let meter = WorkMeter::new();
        let db = TpchDb::load(SF, SEED, &store, TxnId(1), &meter, 1024).unwrap();
        Fixture { db, store, meter }
    })
}

fn run(n: u32) -> iq_engine::Chunk {
    let f = fixture();
    let ctx = Ctx {
        db: &f.db,
        store: &f.store,
        meter: &f.meter,
        exec: iq_engine::OpExec::for_store(&f.store),
        late_mat: true,
    };
    run_query(n, &ctx).unwrap_or_else(|e| panic!("Q{n} failed: {e}"))
}

#[test]
fn q1_matches_bruteforce() {
    let out = run(1);
    // At most 4 (flag, status) combinations: (A,F), (N,F), (N,O), (R,F).
    assert!(out.len() <= 4 && out.len() >= 3, "rows={}", out.len());
    assert_eq!(out.cols.len(), 10);
    // Brute-force recomputation from the generator.
    let g = Generator::new(SF, SEED);
    let cutoff = parse_date("1998-09-02").unwrap();
    let mut sums: std::collections::BTreeMap<(String, String), (f64, f64, u64)> =
        Default::default();
    g.order_and_lineitem_rows(
        |_| {},
        |l| {
            let ship = match l[10] {
                Value::Date(d) => d,
                _ => unreachable!(),
            };
            if ship <= cutoff {
                let flag = l[8].as_str().unwrap().to_string();
                let status = l[9].as_str().unwrap().to_string();
                let qty = l[4].as_i64().unwrap() as f64;
                let ext = l[5].as_f64().unwrap();
                let e = sums.entry((flag, status)).or_default();
                e.0 += qty;
                e.1 += ext;
                e.2 += 1;
            }
        },
    );
    assert_eq!(out.len(), sums.len());
    for row in 0..out.len() {
        let flag = out.col(0).strs()[row].to_string();
        let status = out.col(1).strs()[row].to_string();
        let (sum_qty, sum_base, count) = sums[&(flag, status)];
        assert!((out.col(2).f64s()[row] - sum_qty).abs() < 1e-6);
        assert!((out.col(3).f64s()[row] - sum_base).abs() / sum_base < 1e-12);
        assert_eq!(out.col(9).i64s()[row] as u64, count);
    }
    // Sorted by flag then status.
    let flags: Vec<_> = out.col(0).strs().to_vec();
    let mut sorted = flags.clone();
    sorted.sort();
    assert_eq!(flags, sorted);
}

#[test]
fn q6_matches_bruteforce() {
    let out = run(6);
    assert_eq!(out.len(), 1);
    let revenue = out.col(0).f64s()[0];
    let g = Generator::new(SF, SEED);
    let lo = parse_date("1994-01-01").unwrap();
    let hi = parse_date("1995-01-01").unwrap();
    let mut expected = 0.0f64;
    g.order_and_lineitem_rows(
        |_| {},
        |l| {
            let ship = match l[10] {
                Value::Date(d) => d,
                _ => unreachable!(),
            };
            let disc = l[6].as_f64().unwrap();
            let qty = l[4].as_i64().unwrap();
            if ship >= lo && ship < hi && (0.05..=0.07).contains(&disc) && qty < 24 {
                expected += l[5].as_f64().unwrap() * disc;
            }
        },
    );
    assert!(
        (revenue - expected).abs() < 1e-6,
        "engine={revenue} brute={expected}"
    );
    assert!(revenue > 0.0);
}

#[test]
fn q3_top_orders_sorted_by_revenue() {
    let out = run(3);
    assert!(out.len() <= 10);
    assert_eq!(out.cols.len(), 4);
    let rev = out.col(3).f64s();
    for w in rev.windows(2) {
        assert!(w[0] >= w[1], "revenue not descending");
    }
    assert!(rev.iter().all(|&r| r > 0.0));
}

#[test]
fn q4_priorities_complete_and_sorted() {
    let out = run(4);
    assert!(out.len() <= 5 && !out.is_empty());
    let names: Vec<_> = out.col(0).strs().iter().map(|s| s.to_string()).collect();
    let mut sorted = names.clone();
    sorted.sort();
    assert_eq!(names, sorted);
    assert!(out.col(1).i64s().iter().all(|&c| c > 0));
}

#[test]
fn q2_and_q5_shapes() {
    let q2 = run(2);
    assert_eq!(q2.cols.len(), 8);
    assert!(q2.len() <= 100);
    // acctbal descending.
    let bal = q2.col(0).f64s();
    for w in bal.windows(2) {
        assert!(w[0] >= w[1]);
    }

    let q5 = run(5);
    assert_eq!(q5.cols.len(), 2);
    assert!(q5.len() <= 5, "at most 5 Asian nations, got {}", q5.len());
    let rev = q5.col(1).f64s();
    for w in rev.windows(2) {
        assert!(w[0] >= w[1]);
    }
}

#[test]
fn q7_q8_q9_year_groups() {
    let q7 = run(7);
    assert_eq!(q7.cols.len(), 4);
    // Years restricted to 1995–1996.
    assert!(q7.col(2).i64s().iter().all(|&y| y == 1995 || y == 1996));

    let q8 = run(8);
    assert_eq!(q8.cols.len(), 2);
    assert!(q8.col(1).f64s().iter().all(|&s| (0.0..=1.0).contains(&s)));

    let q9 = run(9);
    assert_eq!(q9.cols.len(), 3);
    assert!(!q9.is_empty());
    // Nation ascending, year descending within nation.
    let nations = q9.col(0).strs();
    let years = q9.col(1).i64s();
    for i in 1..q9.len() {
        assert!(nations[i - 1] <= nations[i]);
        if nations[i - 1] == nations[i] {
            assert!(years[i - 1] > years[i]);
        }
    }
}

#[test]
fn q10_q11_shapes() {
    let q10 = run(10);
    assert!(q10.len() <= 20);
    assert_eq!(q10.cols.len(), 8);

    let q11 = run(11);
    assert_eq!(q11.cols.len(), 2);
    let v = q11.col(1).f64s();
    for w in v.windows(2) {
        assert!(w[0] >= w[1]);
    }
    assert!(v.iter().all(|&x| x > 0.0));
}

#[test]
fn q12_counts_partition_lines() {
    let out = run(12);
    assert!(out.len() <= 2); // MAIL, SHIP
    for row in 0..out.len() {
        let high = out.col(1).f64s()[row];
        let low = out.col(2).f64s()[row];
        assert!(high >= 0.0 && low >= 0.0 && high + low > 0.0);
    }
}

#[test]
fn q13_distribution_covers_all_customers() {
    let out = run(13);
    // Distribution over c_count; total customers must equal the table.
    let total: i64 = out.col(1).i64s().iter().sum();
    assert_eq!(total as u64, fixture().db.customer.row_count());
    // The zero bucket exists (one third of customers have no orders).
    let zero = out
        .col(0)
        .i64s()
        .iter()
        .position(|&c| c == 0)
        .expect("zero-order bucket");
    assert!(out.col(1).i64s()[zero] > 0);
}

#[test]
fn q14_percentage_bounded() {
    let out = run(14);
    assert_eq!(out.len(), 1);
    let pct = out.col(0).f64s()[0];
    assert!((0.0..=100.0).contains(&pct), "pct={pct}");
}

#[test]
fn q15_top_supplier_has_max_revenue() {
    let out = run(15);
    assert!(!out.is_empty());
    assert_eq!(out.cols.len(), 5);
    let rev = out.col(4).f64s()[0];
    assert!(rev > 0.0);
    // Every returned supplier ties at the same (max) revenue.
    assert!(out.col(4).f64s().iter().all(|&r| (r - rev).abs() < 1e-9));
}

#[test]
fn q16_q17_q18_shapes() {
    let q16 = run(16);
    assert_eq!(q16.cols.len(), 4);
    let counts = q16.col(3).i64s();
    for w in counts.windows(2) {
        assert!(w[0] >= w[1]);
    }

    let q17 = run(17);
    assert_eq!(q17.len(), 1);
    assert!(q17.col(0).f64s()[0] >= 0.0);

    let q18 = run(18);
    assert!(q18.len() <= 100);
    assert_eq!(q18.cols.len(), 6);
    // Every qualifying order has sum(qty) > 300.
    assert!(q18.col(5).f64s().iter().all(|&q| q > 300.0));
}

#[test]
fn q19_revenue_nonnegative() {
    let out = run(19);
    assert_eq!(out.len(), 1);
    assert!(out.col(0).f64s()[0] >= 0.0);
}

#[test]
fn q20_q21_q22_shapes() {
    let q20 = run(20);
    assert_eq!(q20.cols.len(), 2);
    let names: Vec<_> = q20.col(0).strs().to_vec();
    let mut sorted = names.clone();
    sorted.sort();
    assert_eq!(names, sorted);

    let q21 = run(21);
    assert_eq!(q21.cols.len(), 2);
    assert!(q21.len() <= 100);
    assert!(q21.col(1).i64s().iter().all(|&n| n > 0));

    let q22 = run(22);
    assert_eq!(q22.cols.len(), 3);
    assert!(q22.len() <= 7);
    // Q22 brute-force premise: every customer in the answer has no orders
    // and all custkey % 3 == 0 customers are candidates.
    assert!(q22.col(1).i64s().iter().all(|&c| c > 0));
    assert!(q22.col(2).f64s().iter().all(|&s| s > 0.0));
}

#[test]
fn all_queries_run_and_are_deterministic() {
    for n in 1..=22 {
        let a = run(n);
        let b = run(n);
        assert_eq!(a, b, "Q{n} not deterministic");
    }
    // Asking for a nonexistent query errors.
    let f = fixture();
    let ctx = Ctx {
        db: &f.db,
        store: &f.store,
        meter: &f.meter,
        exec: iq_engine::OpExec::for_store(&f.store),
        late_mat: true,
    };
    assert!(run_query(23, &ctx).is_err());
    assert!(run_query(0, &ctx).is_err());
}

#[test]
fn all_queries_bitwise_identical_at_every_fanout() {
    // The partitioned operator paths promise *bitwise* equality with the
    // serial oracle (f64 compared by bit pattern, not ==), so a plan's
    // answer can never depend on the worker count it happened to run at.
    let f = fixture();
    let run_with = |n: u32, exec: iq_engine::OpExec| {
        let ctx = Ctx {
            db: &f.db,
            store: &f.store,
            meter: &f.meter,
            exec,
            late_mat: true,
        };
        run_query(n, &ctx).unwrap_or_else(|e| panic!("Q{n} failed: {e}"))
    };
    for n in 1..=22 {
        let serial = run_with(n, iq_engine::OpExec::serial());
        for workers in [2usize, 8] {
            let parallel = run_with(n, iq_engine::OpExec::new(workers));
            assert_eq!(
                serial.cols.len(),
                parallel.cols.len(),
                "Q{n} arity @ {workers} workers"
            );
            for (c, (a, b)) in serial.cols.iter().zip(&parallel.cols).enumerate() {
                use iq_engine::chunk::Col;
                match (a, b) {
                    (Col::F64(x), Col::F64(y)) => {
                        assert_eq!(x.len(), y.len(), "Q{n} col {c} len @ {workers}");
                        for (i, (u, v)) in x.iter().zip(y).enumerate() {
                            assert_eq!(
                                u.to_bits(),
                                v.to_bits(),
                                "Q{n} col {c} row {i} @ {workers} workers: {u} vs {v}"
                            );
                        }
                    }
                    _ => assert_eq!(a, b, "Q{n} col {c} @ {workers} workers"),
                }
            }
        }
    }
}

#[test]
fn all_queries_bitwise_identical_late_mat_on_vs_off() {
    // The two-phase late-materialization scan promises *bitwise* equality
    // with the classic eager scan — a query's answer can never depend on
    // whether its projection pages were read before or after the mask.
    let f = fixture();
    let run_with = |n: u32, late_mat: bool| {
        let ctx = Ctx {
            db: &f.db,
            store: &f.store,
            meter: &f.meter,
            exec: iq_engine::OpExec::for_store(&f.store),
            late_mat,
        };
        run_query(n, &ctx).unwrap_or_else(|e| panic!("Q{n} failed: {e}"))
    };
    for n in 1..=22 {
        let eager = run_with(n, false);
        let late = run_with(n, true);
        assert_eq!(eager.cols.len(), late.cols.len(), "Q{n} arity");
        for (c, (a, b)) in eager.cols.iter().zip(&late.cols).enumerate() {
            use iq_engine::chunk::Col;
            match (a, b) {
                (Col::F64(x), Col::F64(y)) => {
                    assert_eq!(x.len(), y.len(), "Q{n} col {c} len");
                    for (i, (u, v)) in x.iter().zip(y).enumerate() {
                        assert_eq!(
                            u.to_bits(),
                            v.to_bits(),
                            "Q{n} col {c} row {i} late-mat vs eager: {u} vs {v}"
                        );
                    }
                }
                _ => assert_eq!(a, b, "Q{n} col {c} late-mat vs eager"),
            }
        }
    }
}

/// FNV-1a over a result's type-tagged values, floats by bit pattern — the
/// definition in `bench/src/fixture.rs::digest`, restated so the pinned
/// answers below do not depend on the harness.
fn digest(chunk: &iq_engine::Chunk) -> u64 {
    use iq_engine::chunk::Col;
    fn eat(h: u64, bytes: &[u8]) -> u64 {
        bytes.iter().fold(h, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }
    let mut h = eat(
        0xcbf2_9ce4_8422_2325,
        &(chunk.cols.len() as u64).to_le_bytes(),
    );
    for col in &chunk.cols {
        h = eat(h, &(col.len() as u64).to_le_bytes());
        match col {
            Col::I64(v) => v
                .iter()
                .for_each(|x| h = eat(eat(h, &[1]), &x.to_le_bytes())),
            Col::F64(v) => v
                .iter()
                .for_each(|x| h = eat(eat(h, &[2]), &x.to_bits().to_le_bytes())),
            Col::Str(v) => v
                .iter()
                .for_each(|x| h = eat(eat(eat(h, &[3]), x.as_bytes()), &[0xff])),
            Col::Date(v) => v
                .iter()
                .for_each(|x| h = eat(eat(h, &[4]), &x.to_le_bytes())),
            Col::Bool(v) => v.iter().for_each(|x| h = eat(h, &[5, u8::from(*x)])),
        }
    }
    h
}

/// `(digest, WorkMeter delta)` of Q1–Q22 at SF 0.005, seed 20210620,
/// recorded on the commit *before* the column-at-a-time kernels landed
/// (the row-at-a-time `Vec<KeyVal>` operators). The engine-vs-engine
/// sweeps above pass a kernel that is wrong in both runs; these do not.
const PINNED: [(u64, u64); 22] = [
    (0x8d53c0e71bca2a31, 945360), // Q1
    (0x9a808be6974b3103, 37968),  // Q2
    (0xc038a5a945c59e6b, 272517), // Q3
    (0x7c72612078206bc3, 227102), // Q4
    (0x3ca85a8d7a06e776, 333795), // Q5
    (0x9d779dca55638f76, 151242), // Q6
    (0xd9da9ae5f4d851f2, 417425), // Q7
    (0x6662958cadc5303a, 349387), // Q8
    (0x2449893768bd934b, 506929), // Q9
    (0xd4498c95f8ee78f5, 227778), // Q10
    (0x8ce18f52f28d33fd, 37883),  // Q11
    (0x22052333f2d139bf, 233464), // Q12
    (0x1e8ede55da190109, 89250),  // Q13
    (0xac4a69134fae698c, 159340), // Q14
    (0xc71edde63ae14cee, 153498), // Q15
    (0x924bd2ba65bb1f6d, 54572),  // Q16
    (0x31427c8621446145, 242208), // Q17
    (0x55b0986fe7822fc3, 252156), // Q18
    (0x31427c8621446145, 222539), // Q19
    (0xa3a4f6eec63f7eff, 210234), // Q20
    (0x96175fb7eff3f4e5, 558970), // Q21
    (0x7fb370a61dccec7f, 49236),  // Q22
];

#[test]
fn all_queries_match_pinned_digests_and_meter_deltas() {
    let f = fixture();
    for (n, &(want_digest, want_units)) in (1..=22u32).zip(&PINNED) {
        for workers in [1usize, 2] {
            let meter = WorkMeter::new();
            let ctx = Ctx {
                db: &f.db,
                store: &f.store,
                meter: &meter,
                exec: iq_engine::OpExec::new(workers),
                late_mat: true,
            };
            let out = run_query(n, &ctx).unwrap_or_else(|e| panic!("Q{n} failed: {e}"));
            assert_eq!(
                digest(&out),
                want_digest,
                "Q{n} result digest @ {workers} workers"
            );
            assert_eq!(meter.total(), want_units, "Q{n} metered work units");
        }
    }
}
