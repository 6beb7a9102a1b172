//! TPC-H queries 1–11.

use iq_common::IqResult;
use iq_engine::chunk::Chunk;
use iq_engine::expr::Expr;
use iq_engine::ops::{
    hash_aggregate_exec, hash_join_exec, limit, sort, AggSpec, JoinType, SortDir,
};

use super::{cx, d, discounted, filter_on, with_cols, Ctx};

/// Q1 — pricing summary report.
pub fn q1(ctx: &Ctx<'_>) -> IqResult<Chunk> {
    let li = &ctx.db.lineitem;
    // shipdate <= 1998-12-01 - 90 days.
    let pred = Expr::le(cx(li, "l_shipdate"), d("1998-09-02"));
    // disc_price = ext * (1 - disc); charge = disc_price * (1 + tax).
    let disc_price = discounted(3, 4);
    let charge = Expr::mul(Expr::col(6), Expr::add(Expr::lit_f64(1.0), Expr::col(5)));
    let agg = ctx.scan_aggregate(
        li,
        &[
            "l_returnflag",
            "l_linestatus",
            "l_quantity",
            "l_extendedprice",
            "l_discount",
            "l_tax",
        ],
        Some(pred),
        Some(&|c| with_cols(c, &[&disc_price, &charge])),
        &[0, 1],
        &[
            AggSpec::sum(2),
            AggSpec::sum(3),
            AggSpec::sum(6),
            AggSpec::sum(7),
            AggSpec::avg(2),
            AggSpec::avg(3),
            AggSpec::avg(4),
            AggSpec::count(0),
        ],
    )?;
    Ok(sort(
        &agg,
        &[(0, SortDir::Asc), (1, SortDir::Asc)],
        ctx.meter,
    ))
}

/// The nations of region `name`: `[n_nationkey, n_name, n_regionkey]`.
fn nations_of(ctx: &Ctx<'_>, name: &str) -> IqResult<Chunk> {
    let db = ctx.db;
    let region = ctx.scan(
        &db.region,
        &["r_regionkey"],
        Some(Expr::eq(cx(&db.region, "r_name"), Expr::lit_str(name))),
    )?;
    let region = ctx.build(&region, &[0])?;
    ctx.scan_then(
        &db.nation,
        &["n_nationkey", "n_name", "n_regionkey"],
        None,
        &|n| region.probe(&n, &[2], JoinType::Semi, ctx.meter),
    )
}

/// Q2 — minimum-cost supplier in EUROPE for size-15 `%BRASS` parts.
pub fn q2(ctx: &Ctx<'_>) -> IqResult<Chunk> {
    let db = ctx.db;
    let nations = nations_of(ctx, "EUROPE")?;
    let nations = ctx.build(&nations, &[0])?;
    // supp ⋈ nation: +[n_nationkey 7, n_name 8, n_regionkey 9]
    let supp = ctx.scan_then(
        &db.supplier,
        &[
            "s_suppkey",
            "s_name",
            "s_address",
            "s_nationkey",
            "s_phone",
            "s_acctbal",
            "s_comment",
        ],
        None,
        &|s| nations.probe(&s, &[3], JoinType::Inner, ctx.meter),
    )?;
    let supp = ctx.build(&supp, &[0])?;
    let parts = ctx.scan(
        &db.part,
        &["p_partkey", "p_mfgr"],
        Some(Expr::and(
            Expr::eq(cx(&db.part, "p_size"), Expr::lit_i64(15)),
            Expr::like(cx(&db.part, "p_type"), "%BRASS"),
        )),
    )?;
    let parts = ctx.build(&parts, &[0])?;
    // Materialised: the per-part minimum below is a second consumer.
    let j = ctx.scan_then(
        &db.partsupp,
        &["ps_partkey", "ps_suppkey", "ps_supplycost"],
        None,
        &|ps| {
            // ps ⋈ part: [ps_partkey 0, ps_suppkey 1, cost 2, p_partkey 3, p_mfgr 4]
            let j = parts.probe(&ps, &[0], JoinType::Inner, ctx.meter)?;
            // ⋈ supplier(+nation): cols 5..=14
            supp.probe(&j, &[1], JoinType::Inner, ctx.meter)
        },
    )?;
    // min supply cost per part among qualified suppliers.
    let mins = hash_aggregate_exec(&j, &[0], &[AggSpec::min(2)], ctx.meter, &ctx.exec)?;
    let j = hash_join_exec(&j, &mins, &[0], &[0], JoinType::Inner, ctx.meter, &ctx.exec)?; // +[partkey 15, min 16]
    let j = filter_on(&j, &Expr::eq(Expr::col(2), Expr::col(16)))?;
    // Output: s_acctbal, s_name, n_name, p_partkey, p_mfgr, s_address, s_phone, s_comment.
    let out = j.project(&[10, 6, 13, 0, 4, 7, 9, 11]);
    let out = sort(
        &out,
        &[
            (0, SortDir::Desc),
            (2, SortDir::Asc),
            (1, SortDir::Asc),
            (3, SortDir::Asc),
        ],
        ctx.meter,
    );
    Ok(limit(&out, 100))
}

/// Q3 — shipping-priority top orders for the BUILDING segment.
pub fn q3(ctx: &Ctx<'_>) -> IqResult<Chunk> {
    let db = ctx.db;
    let cust = ctx.scan(
        &db.customer,
        &["c_custkey"],
        Some(Expr::eq(
            cx(&db.customer, "c_mktsegment"),
            Expr::lit_str("BUILDING"),
        )),
    )?;
    let cust = ctx.build(&cust, &[0])?;
    let orders = ctx.scan_then(
        &db.orders,
        &["o_orderkey", "o_custkey", "o_orderdate", "o_shippriority"],
        Some(Expr::lt(cx(&db.orders, "o_orderdate"), d("1995-03-15"))),
        &|o| cust.probe(&o, &[1], JoinType::Semi, ctx.meter),
    )?;
    let orders = ctx.build(&orders, &[0])?;
    let rev = discounted(1, 2);
    let agg = ctx.scan_aggregate(
        &db.lineitem,
        &["l_orderkey", "l_extendedprice", "l_discount"],
        Some(Expr::gt(cx(&db.lineitem, "l_shipdate"), d("1995-03-15"))),
        Some(&|line| {
            // line ⋈ orders: [l_orderkey, ext, disc, o_orderkey, o_custkey, o_orderdate, o_shippriority]
            let j = orders.probe(&line, &[0], JoinType::Inner, ctx.meter)?;
            with_cols(j, &[&rev]) // revenue at 7
        }),
        &[0, 5, 6],
        &[AggSpec::sum(7)],
    )?;
    let out = sort(&agg, &[(3, SortDir::Desc), (1, SortDir::Asc)], ctx.meter);
    Ok(limit(&out, 10))
}

/// Q4 — order-priority checking.
pub fn q4(ctx: &Ctx<'_>) -> IqResult<Chunk> {
    let db = ctx.db;
    let late = ctx.scan(
        &db.lineitem,
        &["l_orderkey"],
        Some(Expr::lt(
            cx(&db.lineitem, "l_commitdate"),
            cx(&db.lineitem, "l_receiptdate"),
        )),
    )?;
    let late = ctx.build(&late, &[0])?;
    let agg = ctx.scan_aggregate(
        &db.orders,
        &["o_orderkey", "o_orderpriority"],
        Some(Expr::and(
            Expr::ge(cx(&db.orders, "o_orderdate"), d("1993-07-01")),
            Expr::lt(cx(&db.orders, "o_orderdate"), d("1993-10-01")),
        )),
        Some(&|o| late.probe(&o, &[0], JoinType::Semi, ctx.meter)),
        &[1],
        &[AggSpec::count(0)],
    )?;
    Ok(sort(&agg, &[(0, SortDir::Asc)], ctx.meter))
}

/// Q5 — local supplier volume in ASIA.
pub fn q5(ctx: &Ctx<'_>) -> IqResult<Chunk> {
    let db = ctx.db;
    let nations = nations_of(ctx, "ASIA")?;
    let nations = ctx.build(&nations, &[0])?;
    let cust = ctx.scan(&db.customer, &["c_custkey", "c_nationkey"], None)?;
    let cust = ctx.build(&cust, &[0])?;
    // orders ⋈ cust: [o_orderkey, o_custkey, c_custkey, c_nationkey]
    let oc = ctx.scan_then(
        &db.orders,
        &["o_orderkey", "o_custkey"],
        Some(Expr::and(
            Expr::ge(cx(&db.orders, "o_orderdate"), d("1994-01-01")),
            Expr::lt(cx(&db.orders, "o_orderdate"), d("1995-01-01")),
        )),
        &|o| cust.probe(&o, &[1], JoinType::Inner, ctx.meter),
    )?;
    let oc = ctx.build(&oc, &[0])?;
    let supp = ctx.scan(&db.supplier, &["s_suppkey", "s_nationkey"], None)?;
    let supp = ctx.build(&supp, &[0])?;
    let local = Expr::eq(Expr::col(7), Expr::col(9));
    let rev = discounted(2, 3);
    let agg = ctx.scan_aggregate(
        &db.lineitem,
        &["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
        None,
        Some(&|line| {
            // line ⋈ oc: +4 → 8 cols, c_nationkey at 7.
            let j = oc.probe(&line, &[0], JoinType::Inner, ctx.meter)?;
            // +2 → s_suppkey 8, s_nationkey 9.
            let j = supp.probe(&j, &[1], JoinType::Inner, ctx.meter)?;
            // Local supplier: customer and supplier share a nation.
            let j = filter_on(&j, &local)?;
            // ⋈ asian nations: +3 → n_name at 11.
            let j = nations.probe(&j, &[9], JoinType::Inner, ctx.meter)?;
            with_cols(j, &[&rev]) // 13
        }),
        &[11],
        &[AggSpec::sum(13)],
    )?;
    Ok(sort(&agg, &[(1, SortDir::Desc)], ctx.meter))
}

/// Q6 — forecasting revenue change.
pub fn q6(ctx: &Ctx<'_>) -> IqResult<Chunk> {
    let li = &ctx.db.lineitem;
    let pred = Expr::and_all(vec![
        Expr::ge(cx(li, "l_shipdate"), d("1994-01-01")),
        Expr::lt(cx(li, "l_shipdate"), d("1995-01-01")),
        Expr::between(
            cx(li, "l_discount"),
            Expr::lit_f64(0.05),
            Expr::lit_f64(0.07),
        ),
        Expr::lt(cx(li, "l_quantity"), Expr::lit_i64(24)),
    ]);
    let rev = Expr::mul(Expr::col(0), Expr::col(1));
    ctx.scan_aggregate(
        li,
        &["l_extendedprice", "l_discount"],
        Some(pred),
        Some(&|c| with_cols(c, &[&rev])),
        &[],
        &[AggSpec::sum(2)],
    )
}

/// Q7 — volume shipping between FRANCE and GERMANY.
pub fn q7(ctx: &Ctx<'_>) -> IqResult<Chunk> {
    let db = ctx.db;
    let nations = ctx.scan(&db.nation, &["n_nationkey", "n_name"], None)?;
    let supp = ctx.scan(&db.supplier, &["s_suppkey", "s_nationkey"], None)?;
    let cust = ctx.scan(&db.customer, &["c_custkey", "c_nationkey"], None)?;
    let orders = ctx.scan(&db.orders, &["o_orderkey", "o_custkey"], None)?;
    let supp = ctx.build(&supp, &[0])?;
    let orders = ctx.build(&orders, &[0])?;
    let cust = ctx.build(&cust, &[0])?;
    // `nation n1, nation n2`: one scan, a build side each.
    let n1 = ctx.build(&nations, &[0])?;
    let n2 = ctx.build(&nations, &[0])?;
    let fr_de = Expr::or(
        Expr::and(
            Expr::eq(Expr::col(12), Expr::lit_str("FRANCE")),
            Expr::eq(Expr::col(14), Expr::lit_str("GERMANY")),
        ),
        Expr::and(
            Expr::eq(Expr::col(12), Expr::lit_str("GERMANY")),
            Expr::eq(Expr::col(14), Expr::lit_str("FRANCE")),
        ),
    );
    let year = Expr::year(Expr::col(4));
    let vol = discounted(2, 3);
    let agg = ctx.scan_aggregate(
        &db.lineitem,
        &[
            "l_orderkey",
            "l_suppkey",
            "l_extendedprice",
            "l_discount",
            "l_shipdate",
        ],
        Some(Expr::between(
            cx(&db.lineitem, "l_shipdate"),
            d("1995-01-01"),
            d("1996-12-31"),
        )),
        Some(&|line| {
            let j = supp.probe(&line, &[1], JoinType::Inner, ctx.meter)?; // s_nationkey 6
            let j = orders.probe(&j, &[0], JoinType::Inner, ctx.meter)?; // o_custkey 8
            let j = cust.probe(&j, &[8], JoinType::Inner, ctx.meter)?; // c_nationkey 10
            let j = n1.probe(&j, &[6], JoinType::Inner, ctx.meter)?; // supp n_name 12
            let j = n2.probe(&j, &[10], JoinType::Inner, ctx.meter)?; // cust n_name 14
            let j = filter_on(&j, &fr_de)?;
            with_cols(j, &[&year, &vol]) // 15, 16
        }),
        &[12, 14, 15],
        &[AggSpec::sum(16)],
    )?;
    Ok(sort(
        &agg,
        &[(0, SortDir::Asc), (1, SortDir::Asc), (2, SortDir::Asc)],
        ctx.meter,
    ))
}

/// Q8 — national market share of BRAZIL in AMERICA.
pub fn q8(ctx: &Ctx<'_>) -> IqResult<Chunk> {
    let db = ctx.db;
    let america = ctx.scan(
        &db.region,
        &["r_regionkey"],
        Some(Expr::eq(cx(&db.region, "r_name"), Expr::lit_str("AMERICA"))),
    )?;
    let america = ctx.build(&america, &[0])?;
    let n1 = ctx.scan_then(&db.nation, &["n_nationkey", "n_regionkey"], None, &|n| {
        america.probe(&n, &[1], JoinType::Semi, ctx.meter)
    })?;
    let n2 = ctx.scan(&db.nation, &["n_nationkey", "n_name"], None)?;
    let part = ctx.scan(
        &db.part,
        &["p_partkey"],
        Some(Expr::eq(
            cx(&db.part, "p_type"),
            Expr::lit_str("ECONOMY ANODIZED STEEL"),
        )),
    )?;
    let orders = ctx.scan(
        &db.orders,
        &["o_orderkey", "o_custkey", "o_orderdate"],
        Some(Expr::between(
            cx(&db.orders, "o_orderdate"),
            d("1995-01-01"),
            d("1996-12-31"),
        )),
    )?;
    let cust = ctx.scan(&db.customer, &["c_custkey", "c_nationkey"], None)?;
    let supp = ctx.scan(&db.supplier, &["s_suppkey", "s_nationkey"], None)?;
    let part = ctx.build(&part, &[0])?;
    let orders = ctx.build(&orders, &[0])?;
    let cust = ctx.build(&cust, &[0])?;
    let n1 = ctx.build(&n1, &[0])?;
    let supp = ctx.build(&supp, &[0])?;
    let n2 = ctx.build(&n2, &[0])?;
    let year = Expr::year(Expr::col(8));
    let vol = discounted(3, 4);
    let brazil = Expr::case(
        Expr::eq(Expr::col(14), Expr::lit_str("BRAZIL")),
        Expr::col(16),
        Expr::lit_f64(0.0),
    );
    let agg = ctx.scan_aggregate(
        &db.lineitem,
        &[
            "l_orderkey",
            "l_partkey",
            "l_suppkey",
            "l_extendedprice",
            "l_discount",
        ],
        None,
        Some(&|line| {
            let j = part.probe(&line, &[1], JoinType::Inner, ctx.meter)?; // 6 cols
            let j = orders.probe(&j, &[0], JoinType::Inner, ctx.meter)?; // o_custkey 7, o_orderdate 8
            let j = cust.probe(&j, &[7], JoinType::Inner, ctx.meter)?; // c_nationkey 10
            let j = n1.probe(&j, &[10], JoinType::Semi, ctx.meter)?; // customers in AMERICA
            let j = supp.probe(&j, &[2], JoinType::Inner, ctx.meter)?; // s_nationkey 12
            let j = n2.probe(&j, &[12], JoinType::Inner, ctx.meter)?; // n2 name 14
            with_cols(j, &[&year, &vol, &brazil]) // 15, 16, 17
        }),
        &[15],
        &[AggSpec::sum(17), AggSpec::sum(16)],
    )?;
    let share = Expr::div(Expr::col(1), Expr::col(2));
    let out = with_cols(agg, &[&share])?.project(&[0, 3]);
    Ok(sort(&out, &[(0, SortDir::Asc)], ctx.meter))
}

/// Q9 — product-type profit measure over `%green%` parts.
pub fn q9(ctx: &Ctx<'_>) -> IqResult<Chunk> {
    let db = ctx.db;
    let part = ctx.scan(
        &db.part,
        &["p_partkey"],
        Some(Expr::like(cx(&db.part, "p_name"), "%green%")),
    )?;
    let supp = ctx.scan(&db.supplier, &["s_suppkey", "s_nationkey"], None)?;
    let ps = ctx.scan(
        &db.partsupp,
        &["ps_partkey", "ps_suppkey", "ps_supplycost"],
        None,
    )?;
    let orders = ctx.scan(&db.orders, &["o_orderkey", "o_orderdate"], None)?;
    let nation = ctx.scan(&db.nation, &["n_nationkey", "n_name"], None)?;
    let part = ctx.build(&part, &[0])?;
    let supp = ctx.build(&supp, &[0])?;
    let ps = ctx.build(&ps, &[0, 1])?;
    let orders = ctx.build(&orders, &[0])?;
    let nation = ctx.build(&nation, &[0])?;
    let year = Expr::year(Expr::col(13));
    // amount = ext*(1-disc) - cost*qty
    let amount = Expr::sub(discounted(4, 5), Expr::mul(Expr::col(11), Expr::col(3)));
    let agg = ctx.scan_aggregate(
        &db.lineitem,
        &[
            "l_orderkey",
            "l_partkey",
            "l_suppkey",
            "l_quantity",
            "l_extendedprice",
            "l_discount",
        ],
        None,
        Some(&|line| {
            let j = part.probe(&line, &[1], JoinType::Inner, ctx.meter)?; // 7 cols
            let j = supp.probe(&j, &[2], JoinType::Inner, ctx.meter)?; // s_nationkey 8
            let j = ps.probe(&j, &[1, 2], JoinType::Inner, ctx.meter)?; // cost 11
            let j = orders.probe(&j, &[0], JoinType::Inner, ctx.meter)?; // o_orderdate 13
            let j = nation.probe(&j, &[8], JoinType::Inner, ctx.meter)?; // n_name 15
            with_cols(j, &[&year, &amount]) // 16, 17
        }),
        &[15, 16],
        &[AggSpec::sum(17)],
    )?;
    Ok(sort(
        &agg,
        &[(0, SortDir::Asc), (1, SortDir::Desc)],
        ctx.meter,
    ))
}

/// Q10 — returned-item reporting, top 20 customers.
pub fn q10(ctx: &Ctx<'_>) -> IqResult<Chunk> {
    let db = ctx.db;
    let orders = ctx.scan(
        &db.orders,
        &["o_orderkey", "o_custkey"],
        Some(Expr::and(
            Expr::ge(cx(&db.orders, "o_orderdate"), d("1993-10-01")),
            Expr::lt(cx(&db.orders, "o_orderdate"), d("1994-01-01")),
        )),
    )?;
    let cust = ctx.scan(
        &db.customer,
        &[
            "c_custkey",
            "c_name",
            "c_acctbal",
            "c_phone",
            "c_nationkey",
            "c_address",
            "c_comment",
        ],
        None,
    )?;
    let nation = ctx.scan(&db.nation, &["n_nationkey", "n_name"], None)?;
    let orders = ctx.build(&orders, &[0])?;
    let cust = ctx.build(&cust, &[0])?;
    let nation = ctx.build(&nation, &[0])?;
    let rev = discounted(1, 2);
    let agg = ctx.scan_aggregate(
        &db.lineitem,
        &["l_orderkey", "l_extendedprice", "l_discount"],
        Some(Expr::eq(
            cx(&db.lineitem, "l_returnflag"),
            Expr::lit_str("R"),
        )),
        Some(&|line| {
            let j = orders.probe(&line, &[0], JoinType::Inner, ctx.meter)?; // o_custkey 4
            let j = cust.probe(&j, &[4], JoinType::Inner, ctx.meter)?; // cust 5..=11
            let j = nation.probe(&j, &[9], JoinType::Inner, ctx.meter)?; // n_name 13
            with_cols(j, &[&rev]) // 14
        }),
        &[5, 6, 7, 8, 13, 10, 11],
        &[AggSpec::sum(14)],
    )?;
    let out = sort(&agg, &[(7, SortDir::Desc)], ctx.meter);
    Ok(limit(&out, 20))
}

/// Q11 — important stock identification in GERMANY.
pub fn q11(ctx: &Ctx<'_>) -> IqResult<Chunk> {
    let db = ctx.db;
    let germany = ctx.scan(
        &db.nation,
        &["n_nationkey"],
        Some(Expr::eq(cx(&db.nation, "n_name"), Expr::lit_str("GERMANY"))),
    )?;
    let germany = ctx.build(&germany, &[0])?;
    let supp = ctx.scan_then(&db.supplier, &["s_suppkey", "s_nationkey"], None, &|s| {
        germany.probe(&s, &[1], JoinType::Semi, ctx.meter)
    })?;
    let supp = ctx.build(&supp, &[0])?;
    let value = Expr::mul(Expr::col(3), Expr::col(2));
    // Materialised: the total and the per-part sums both consume it.
    let ps = ctx.scan_then(
        &db.partsupp,
        &["ps_partkey", "ps_suppkey", "ps_availqty", "ps_supplycost"],
        None,
        &|ps| {
            let ps = supp.probe(&ps, &[1], JoinType::Semi, ctx.meter)?;
            with_cols(ps, &[&value]) // 4
        },
    )?;
    let total = hash_aggregate_exec(&ps, &[], &[AggSpec::sum(4)], ctx.meter, &ctx.exec)?;
    let threshold = total.col(0).f64s()[0] * (0.0001 / ctx.db.sf);
    let agg = hash_aggregate_exec(&ps, &[0], &[AggSpec::sum(4)], ctx.meter, &ctx.exec)?;
    let agg = filter_on(&agg, &Expr::gt(Expr::col(1), Expr::lit_f64(threshold)))?;
    Ok(sort(&agg, &[(1, SortDir::Desc)], ctx.meter))
}
