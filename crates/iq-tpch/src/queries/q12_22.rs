//! TPC-H queries 12–22.

use iq_common::IqResult;
use iq_engine::chunk::{Chunk, Col};
use iq_engine::expr::Expr;
use iq_engine::ops::{
    hash_aggregate_exec, hash_join_exec, limit, sort, AggSpec, JoinType, SortDir,
};
use iq_engine::value::Value;

use super::{cx, d, discounted, filter_on, with_cols, Ctx};

/// Q12 — shipping-mode and order-priority split.
pub fn q12(ctx: &Ctx<'_>) -> IqResult<Chunk> {
    let db = ctx.db;
    let li = &db.lineitem;
    let pred = Expr::and_all(vec![
        Expr::in_list(
            cx(li, "l_shipmode"),
            vec![Value::Str("MAIL".into()), Value::Str("SHIP".into())],
        ),
        Expr::lt(cx(li, "l_commitdate"), cx(li, "l_receiptdate")),
        Expr::lt(cx(li, "l_shipdate"), cx(li, "l_commitdate")),
        Expr::ge(cx(li, "l_receiptdate"), d("1994-01-01")),
        Expr::lt(cx(li, "l_receiptdate"), d("1995-01-01")),
    ]);
    let orders = ctx.scan(&db.orders, &["o_orderkey", "o_orderpriority"], None)?;
    let orders = ctx.build(&orders, &[0])?;
    let high = Expr::case(
        Expr::in_list(
            Expr::col(3),
            vec![Value::Str("1-URGENT".into()), Value::Str("2-HIGH".into())],
        ),
        Expr::lit_i64(1),
        Expr::lit_i64(0),
    );
    let low = Expr::sub(Expr::lit_i64(1), Expr::col(4));
    let agg = ctx.scan_aggregate(
        li,
        &["l_orderkey", "l_shipmode"],
        Some(pred),
        Some(&|line| {
            let j = orders.probe(&line, &[0], JoinType::Inner, ctx.meter)?; // priority 3
            with_cols(j, &[&high, &low]) // 4, 5
        }),
        &[1],
        &[AggSpec::sum(4), AggSpec::sum(5)],
    )?;
    Ok(sort(&agg, &[(0, SortDir::Asc)], ctx.meter))
}

/// Q13 — customer order-count distribution.
pub fn q13(ctx: &Ctx<'_>) -> IqResult<Chunk> {
    let db = ctx.db;
    let orders = ctx.scan(
        &db.orders,
        &["o_orderkey", "o_custkey"],
        Some(Expr::not(Expr::like(
            cx(&db.orders, "o_comment"),
            "%special%requests%",
        ))),
    )?;
    let orders = ctx.build(&orders, &[1])?;
    // Left join keeps customers with no orders; the trailing marker column
    // is 1 for matches, 0 otherwise.
    // [c_custkey, o_orderkey, o_custkey, marker]
    let per_cust = ctx.scan_aggregate(
        &db.customer,
        &["c_custkey"],
        None,
        Some(&|cust| orders.probe(&cust, &[0], JoinType::Left, ctx.meter)),
        &[0],
        &[AggSpec::sum(3)],
    )?;
    // c_count arrives as a float sum of markers; materialize as integers
    // for grouping.
    let counts = Col::I64(per_cust.col(1).f64s().iter().map(|&x| x as i64).collect());
    let per_cust = Chunk::new(vec![per_cust.col(0).clone(), counts]);
    let dist = hash_aggregate_exec(&per_cust, &[1], &[AggSpec::count(0)], ctx.meter, &ctx.exec)?;
    Ok(sort(
        &dist,
        &[(1, SortDir::Desc), (0, SortDir::Desc)],
        ctx.meter,
    ))
}

/// Q14 — promotion effect.
pub fn q14(ctx: &Ctx<'_>) -> IqResult<Chunk> {
    let db = ctx.db;
    let part = ctx.scan(&db.part, &["p_partkey", "p_type"], None)?;
    let part = ctx.build(&part, &[0])?;
    let rev = discounted(1, 2);
    let promo = Expr::case(
        Expr::like(Expr::col(4), "PROMO%"),
        Expr::col(5),
        Expr::lit_f64(0.0),
    );
    let agg = ctx.scan_aggregate(
        &db.lineitem,
        &["l_partkey", "l_extendedprice", "l_discount"],
        Some(Expr::and(
            Expr::ge(cx(&db.lineitem, "l_shipdate"), d("1995-09-01")),
            Expr::lt(cx(&db.lineitem, "l_shipdate"), d("1995-10-01")),
        )),
        Some(&|line| {
            let j = part.probe(&line, &[0], JoinType::Inner, ctx.meter)?; // p_type 4
            with_cols(j, &[&rev, &promo]) // 5, 6
        }),
        &[],
        &[AggSpec::sum(6), AggSpec::sum(5)],
    )?;
    let pct = Expr::div(Expr::mul(Expr::lit_f64(100.0), Expr::col(0)), Expr::col(1));
    Ok(Chunk::new(vec![pct.eval_on(&agg)?]))
}

/// Q15 — top supplier (revenue view + max).
pub fn q15(ctx: &Ctx<'_>) -> IqResult<Chunk> {
    let db = ctx.db;
    let rev = discounted(1, 2);
    let revenue = ctx.scan_aggregate(
        &db.lineitem,
        &["l_suppkey", "l_extendedprice", "l_discount"],
        Some(Expr::and(
            Expr::ge(cx(&db.lineitem, "l_shipdate"), d("1996-01-01")),
            Expr::lt(cx(&db.lineitem, "l_shipdate"), d("1996-04-01")),
        )),
        Some(&|line| with_cols(line, &[&rev])), // 3
        &[0],
        &[AggSpec::sum(3)],
    )?;
    let max = hash_aggregate_exec(&revenue, &[], &[AggSpec::max(1)], ctx.meter, &ctx.exec)?;
    let max_rev = max.col(0).f64s()[0];
    let top = filter_on(&revenue, &Expr::eq(Expr::col(1), Expr::lit_f64(max_rev)))?;
    let top = ctx.build(&top, &[0])?;
    let out = ctx.scan_then(
        &db.supplier,
        &["s_suppkey", "s_name", "s_address", "s_phone"],
        None,
        &|supp| {
            let j = top.probe(&supp, &[0], JoinType::Inner, ctx.meter)?; // total 5
            Ok(j.project(&[0, 1, 2, 3, 5]))
        },
    )?;
    Ok(sort(&out, &[(0, SortDir::Asc)], ctx.meter))
}

/// Q16 — parts/supplier relationship, excluding complaint suppliers.
pub fn q16(ctx: &Ctx<'_>) -> IqResult<Chunk> {
    let db = ctx.db;
    let bad = ctx.scan(
        &db.supplier,
        &["s_suppkey"],
        Some(Expr::like(
            cx(&db.supplier, "s_comment"),
            "%Customer%Complaints%",
        )),
    )?;
    let sizes = [49i64, 14, 23, 45, 19, 3, 36, 9].map(Value::I64).to_vec();
    let part = ctx.scan(
        &db.part,
        &["p_partkey", "p_brand", "p_type", "p_size"],
        Some(Expr::and_all(vec![
            Expr::ne(cx(&db.part, "p_brand"), Expr::lit_str("Brand#45")),
            Expr::not(Expr::like(cx(&db.part, "p_type"), "MEDIUM POLISHED%")),
            Expr::in_list(cx(&db.part, "p_size"), sizes),
        ])),
    )?;
    let bad = ctx.build(&bad, &[0])?;
    let part = ctx.build(&part, &[0])?;
    let agg = ctx.scan_aggregate(
        &db.partsupp,
        &["ps_partkey", "ps_suppkey"],
        None,
        Some(&|ps| {
            let ps = bad.probe(&ps, &[1], JoinType::Anti, ctx.meter)?;
            part.probe(&ps, &[0], JoinType::Inner, ctx.meter) // brand 3, type 4, size 5
        }),
        &[3, 4, 5],
        &[AggSpec::count_distinct(1)],
    )?;
    Ok(sort(
        &agg,
        &[
            (3, SortDir::Desc),
            (0, SortDir::Asc),
            (1, SortDir::Asc),
            (2, SortDir::Asc),
        ],
        ctx.meter,
    ))
}

/// Q17 — small-quantity-order revenue for Brand#23 MED BOX parts.
pub fn q17(ctx: &Ctx<'_>) -> IqResult<Chunk> {
    let db = ctx.db;
    let part = ctx.scan(
        &db.part,
        &["p_partkey"],
        Some(Expr::and(
            Expr::eq(cx(&db.part, "p_brand"), Expr::lit_str("Brand#23")),
            Expr::eq(cx(&db.part, "p_container"), Expr::lit_str("MED BOX")),
        )),
    )?;
    let part = ctx.build(&part, &[0])?;
    // Materialised: the per-part average below is a second consumer.
    let j = ctx.scan_then(
        &db.lineitem,
        &["l_partkey", "l_quantity", "l_extendedprice"],
        None,
        &|line| part.probe(&line, &[0], JoinType::Inner, ctx.meter), // 4 cols
    )?;
    let avgs = hash_aggregate_exec(&j, &[0], &[AggSpec::avg(1)], ctx.meter, &ctx.exec)?;
    let j = hash_join_exec(&j, &avgs, &[0], &[0], JoinType::Inner, ctx.meter, &ctx.exec)?; // avg at 5
    let j = filter_on(
        &j,
        &Expr::lt(Expr::col(1), Expr::mul(Expr::lit_f64(0.2), Expr::col(5))),
    )?;
    let agg = hash_aggregate_exec(&j, &[], &[AggSpec::sum(2)], ctx.meter, &ctx.exec)?;
    let yearly = Expr::div(Expr::col(0), Expr::lit_f64(7.0));
    Ok(Chunk::new(vec![yearly.eval_on(&agg)?]))
}

/// Q18 — large-volume customers (qty > 300 orders).
pub fn q18(ctx: &Ctx<'_>) -> IqResult<Chunk> {
    let db = ctx.db;
    let per_order = ctx.scan_aggregate(
        &db.lineitem,
        &["l_orderkey", "l_quantity"],
        None,
        None,
        &[0],
        &[AggSpec::sum(1)],
    )?;
    let big = filter_on(&per_order, &Expr::gt(Expr::col(1), Expr::lit_f64(300.0)))?;
    let cust = ctx.scan(&db.customer, &["c_custkey", "c_name"], None)?;
    let big = ctx.build(&big, &[0])?;
    let cust = ctx.build(&cust, &[0])?;
    let out = ctx.scan_then(
        &db.orders,
        &["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"],
        None,
        &|orders| {
            let j = big.probe(&orders, &[0], JoinType::Inner, ctx.meter)?; // sumqty 5
            let j = cust.probe(&j, &[1], JoinType::Inner, ctx.meter)?; // c_name 7
            Ok(j.project(&[7, 1, 0, 2, 3, 5]))
        },
    )?;
    let out = sort(&out, &[(4, SortDir::Desc), (3, SortDir::Asc)], ctx.meter);
    Ok(limit(&out, 100))
}

/// Q19 — discounted revenue for three brand/container/quantity bands.
pub fn q19(ctx: &Ctx<'_>) -> IqResult<Chunk> {
    let db = ctx.db;
    let li = &db.lineitem;
    let part = ctx.scan(
        &db.part,
        &["p_partkey", "p_brand", "p_container", "p_size"],
        None,
    )?;
    let part = ctx.build(&part, &[0])?;
    // Positions: qty 1, ext 2, disc 3, brand 5, container 6, size 7.
    let band = |brand: &str, containers: [&str; 4], qlo: i64, qhi: i64, smax: i64| {
        Expr::and_all(vec![
            Expr::eq(Expr::col(5), Expr::lit_str(brand)),
            Expr::in_list(
                Expr::col(6),
                containers.iter().map(|c| Value::Str((*c).into())).collect(),
            ),
            Expr::between(Expr::col(1), Expr::lit_i64(qlo), Expr::lit_i64(qhi)),
            Expr::between(Expr::col(7), Expr::lit_i64(1), Expr::lit_i64(smax)),
        ])
    };
    let pred = Expr::or(
        band(
            "Brand#12",
            ["SM CASE", "SM BOX", "SM PACK", "SM PKG"],
            1,
            11,
            5,
        ),
        Expr::or(
            band(
                "Brand#23",
                ["MED BAG", "MED BOX", "MED PKG", "MED PACK"],
                10,
                20,
                10,
            ),
            band(
                "Brand#34",
                ["LG CASE", "LG BOX", "LG PACK", "LG PKG"],
                20,
                30,
                15,
            ),
        ),
    );
    let rev = discounted(2, 3);
    ctx.scan_aggregate(
        li,
        &["l_partkey", "l_quantity", "l_extendedprice", "l_discount"],
        Some(Expr::and(
            Expr::in_list(
                cx(li, "l_shipmode"),
                vec![Value::Str("AIR".into()), Value::Str("AIR REG".into())],
            ),
            Expr::eq(cx(li, "l_shipinstruct"), Expr::lit_str("DELIVER IN PERSON")),
        )),
        Some(&|line| {
            let j = part.probe(&line, &[0], JoinType::Inner, ctx.meter)?;
            with_cols(filter_on(&j, &pred)?, &[&rev]) // 8
        }),
        &[],
        &[AggSpec::sum(8)],
    )
}

/// Q20 — potential part promotion: CANADA suppliers of `forest%` parts
/// with surplus stock.
pub fn q20(ctx: &Ctx<'_>) -> IqResult<Chunk> {
    let db = ctx.db;
    let forest = ctx.scan(
        &db.part,
        &["p_partkey"],
        Some(Expr::like(cx(&db.part, "p_name"), "forest%")),
    )?;
    let shipped = ctx.scan_aggregate(
        &db.lineitem,
        &["l_partkey", "l_suppkey", "l_quantity"],
        Some(Expr::and(
            Expr::ge(cx(&db.lineitem, "l_shipdate"), d("1994-01-01")),
            Expr::lt(cx(&db.lineitem, "l_shipdate"), d("1995-01-01")),
        )),
        None,
        &[0, 1],
        &[AggSpec::sum(2)],
    )?;
    let forest = ctx.build(&forest, &[0])?;
    let shipped = ctx.build(&shipped, &[0, 1])?;
    let in_surplus = Expr::gt(Expr::col(2), Expr::mul(Expr::lit_f64(0.5), Expr::col(5)));
    let j = ctx.scan_then(
        &db.partsupp,
        &["ps_partkey", "ps_suppkey", "ps_availqty"],
        None,
        &|ps| {
            let ps = forest.probe(&ps, &[0], JoinType::Semi, ctx.meter)?;
            let j = shipped.probe(&ps, &[0, 1], JoinType::Inner, ctx.meter)?; // sumqty 5
            filter_on(&j, &in_surplus)
        },
    )?;
    let canada = ctx.scan(
        &db.nation,
        &["n_nationkey"],
        Some(Expr::eq(cx(&db.nation, "n_name"), Expr::lit_str("CANADA"))),
    )?;
    let canada = ctx.build(&canada, &[0])?;
    let surplus = ctx.build(&j, &[1])?;
    let out = ctx.scan_then(
        &db.supplier,
        &["s_suppkey", "s_name", "s_address", "s_nationkey"],
        None,
        &|supp| {
            let supp = canada.probe(&supp, &[3], JoinType::Semi, ctx.meter)?;
            let supp = surplus.probe(&supp, &[0], JoinType::Semi, ctx.meter)?;
            Ok(supp.project(&[1, 2]))
        },
    )?;
    Ok(sort(&out, &[(0, SortDir::Asc)], ctx.meter))
}

/// Q21 — suppliers (SAUDI ARABIA) who were the *only* late supplier on a
/// multi-supplier failed order.
pub fn q21(ctx: &Ctx<'_>) -> IqResult<Chunk> {
    let db = ctx.db;
    let saudi = ctx.scan(
        &db.nation,
        &["n_nationkey"],
        Some(Expr::eq(
            cx(&db.nation, "n_name"),
            Expr::lit_str("SAUDI ARABIA"),
        )),
    )?;
    let saudi = ctx.build(&saudi, &[0])?;
    let supp = ctx.scan_then(
        &db.supplier,
        &["s_suppkey", "s_name", "s_nationkey"],
        None,
        &|s| saudi.probe(&s, &[2], JoinType::Semi, ctx.meter),
    )?;
    let orders_f = ctx.scan(
        &db.orders,
        &["o_orderkey"],
        Some(Expr::eq(
            cx(&db.orders, "o_orderstatus"),
            Expr::lit_str("F"),
        )),
    )?;
    // Distinct suppliers per order, overall (EXISTS l2) ... Materialised,
    // not scan-fed: through the sink, each morsel's (order, supplier) pairs
    // would intern on the one ordered lane, where the partitioned plan
    // interns them in parallel — this aggregate is `COUNT(DISTINCT)` over
    // all of `lineitem`, and the query got slower.
    let all_lines = ctx.scan(&db.lineitem, &["l_orderkey", "l_suppkey"], None)?;
    let n_all = hash_aggregate_exec(
        &all_lines,
        &[0],
        &[AggSpec::count_distinct(1)],
        ctx.meter,
        &ctx.exec,
    )?;
    // ... and among late lines (NOT EXISTS l3 with another late supplier).
    // Materialised: `late` feeds that aggregate *and* the join chain.
    let late = ctx.scan(
        &db.lineitem,
        &["l_orderkey", "l_suppkey"],
        Some(Expr::gt(
            cx(&db.lineitem, "l_receiptdate"),
            cx(&db.lineitem, "l_commitdate"),
        )),
    )?;
    let n_late = hash_aggregate_exec(
        &late,
        &[0],
        &[AggSpec::count_distinct(1)],
        ctx.meter,
        &ctx.exec,
    )?;
    // l1: late lines of Saudi suppliers on failed orders.
    let l1 = hash_join_exec(
        &late,
        &supp,
        &[1],
        &[0],
        JoinType::Inner,
        ctx.meter,
        &ctx.exec,
    )?; // s_name 3
    let l1 = hash_join_exec(
        &l1,
        &orders_f,
        &[0],
        &[0],
        JoinType::Semi,
        ctx.meter,
        &ctx.exec,
    )?;
    let l1 = hash_join_exec(
        &l1,
        &n_all,
        &[0],
        &[0],
        JoinType::Inner,
        ctx.meter,
        &ctx.exec,
    )?; // n_all 6
    let l1 = hash_join_exec(
        &l1,
        &n_late,
        &[0],
        &[0],
        JoinType::Inner,
        ctx.meter,
        &ctx.exec,
    )?; // n_late 8
    let l1 = filter_on(
        &l1,
        &Expr::and(
            Expr::ge(Expr::col(6), Expr::lit_i64(2)),
            Expr::eq(Expr::col(8), Expr::lit_i64(1)),
        ),
    )?;
    let agg = hash_aggregate_exec(&l1, &[3], &[AggSpec::count(0)], ctx.meter, &ctx.exec)?;
    let out = sort(&agg, &[(1, SortDir::Desc), (0, SortDir::Asc)], ctx.meter);
    Ok(limit(&out, 100))
}

/// Q22 — global sales opportunity: well-funded customers in seven country
/// codes who never ordered.
pub fn q22(ctx: &Ctx<'_>) -> IqResult<Chunk> {
    let db = ctx.db;
    let codes: Vec<Value> = ["13", "31", "23", "29", "30", "18", "17"]
        .iter()
        .map(|c| Value::Str((*c).into()))
        .collect();
    let code = Expr::substr(Expr::col(1), 1, 2);
    let in_codes = Expr::in_list(Expr::col(3), codes);
    // Materialised: the average balance and the rich customers both
    // consume it.
    let cust = ctx.scan_then(
        &db.customer,
        &["c_custkey", "c_phone", "c_acctbal"],
        None,
        &|cust| filter_on(&with_cols(cust, &[&code])?, &in_codes), // code 3
    )?;
    // Average positive balance over the candidate codes.
    let positive = filter_on(&cust, &Expr::gt(Expr::col(2), Expr::lit_f64(0.0)))?;
    let avg = hash_aggregate_exec(&positive, &[], &[AggSpec::avg(2)], ctx.meter, &ctx.exec)?;
    let avg_bal = avg.col(0).f64s()[0];
    let rich = filter_on(&cust, &Expr::gt(Expr::col(2), Expr::lit_f64(avg_bal)))?;
    let orders = ctx.scan(&db.orders, &["o_custkey"], None)?;
    let no_orders = hash_join_exec(
        &rich,
        &orders,
        &[0],
        &[0],
        JoinType::Anti,
        ctx.meter,
        &ctx.exec,
    )?;
    let agg = hash_aggregate_exec(
        &no_orders,
        &[3],
        &[AggSpec::count(0), AggSpec::sum(2)],
        ctx.meter,
        &ctx.exec,
    )?;
    Ok(sort(&agg, &[(0, SortDir::Asc)], ctx.meter))
}
