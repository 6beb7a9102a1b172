//! dbgen-equivalent data generator.
//!
//! Reproduces the TPC-H schema, key structure and value distributions at
//! an arbitrary scale factor, deterministically from a seed:
//!
//! * cardinalities: supplier 10k·SF, customer 150k·SF, part 200k·SF,
//!   partsupp 4/part, orders 1.5M·SF, lineitem 1–7/order;
//! * dbgen's pricing arithmetic (`p_retailprice` from the part key,
//!   `l_extendedprice = quantity × retail price`, `o_totalprice` as the
//!   taxed, discounted line sum);
//! * the date machinery Q1/Q4/Q12 depend on (`shipdate = orderdate +
//!   1..121`, `commitdate = orderdate + 30..90`, `receiptdate = shipdate
//!   + 1..30`, flags split at 1995-06-17);
//! * the spec's "only two thirds of customers have orders" rule
//!   (`custkey % 3 != 0`) that gives Q22 its anti-join selectivity;
//! * supplier assignment `ps_suppkey = (p + i·(S/4 + (p-1)/S)) % S + 1`.

use std::sync::Arc;

use iq_common::{DetRng, IqResult};
use iq_engine::value::{date_to_days, Value};

use crate::text;

/// Split date for return flags and line statuses (1995-06-17).
pub fn current_date() -> i32 {
    date_to_days(1995, 6, 17)
}

/// Earliest order date (1992-01-01).
pub fn start_date() -> i32 {
    date_to_days(1992, 1, 1)
}

/// Latest order date (1998-08-02 = end - 151 days).
pub fn end_order_date() -> i32 {
    date_to_days(1998, 8, 2)
}

/// Where the generator hands each row: borrowed, from the generator's
/// stack, for the length of the call, so nothing is allocated for the row
/// itself; a consumer that keeps it copies it (cloning a `Value::Str`
/// clones an `Arc`). An error stops the generator and is returned from it.
pub(crate) type Sink<'a> = &'a mut dyn FnMut(&[Value]) -> IqResult<()>;

/// Deterministic TPC-H generator at a given scale factor.
pub struct Generator {
    sf: f64,
    seed: u64,
    vocab: Vocab,
}

/// Every string of a small-domain column, built once per generator: a row
/// holding one clones its `Arc` and allocates nothing.
struct Vocab {
    regions: Vec<Arc<str>>,
    nations: Vec<Arc<str>>,
    segments: Vec<Arc<str>>,
    /// `Manufacturer#m`, at `m - 1`.
    mfgrs: Vec<Arc<str>>,
    /// `Brand#mn`, at `5(m - 1) + n - 1`.
    brands: Vec<Arc<str>>,
    /// `p_type`, the syllables' product in order: at `25a + 5b + c`.
    types: Vec<Arc<str>>,
    /// `p_container`, the syllables' product in order: at `8a + b`.
    containers: Vec<Arc<str>>,
    /// `Clerk#n`, at `n - 1`.
    clerks: Vec<Arc<str>>,
    priorities: Vec<Arc<str>>,
    instructions: Vec<Arc<str>>,
    modes: Vec<Arc<str>>,
    /// `R`, `A`, `N`: line-item return flags.
    returnflag: [Arc<str>; 3],
    /// `F`, `O`, `P`: line statuses (the first two) and order statuses.
    status: [Arc<str>; 3],
}

fn arcs<S: AsRef<str>>(strings: impl IntoIterator<Item = S>) -> Vec<Arc<str>> {
    strings.into_iter().map(|s| Arc::from(s.as_ref())).collect()
}

/// Every `"a b"` of `a` in `firsts` and `b` in `seconds`, in that nesting.
fn product(firsts: &[&str], seconds: &[impl AsRef<str>]) -> Vec<String> {
    firsts
        .iter()
        .flat_map(|a| seconds.iter().map(move |b| format!("{a} {}", b.as_ref())))
        .collect()
}

impl Vocab {
    fn new(clerks: u64) -> Self {
        let letters = |l: [&str; 3]| l.map(Arc::from);
        Self {
            regions: arcs(text::REGIONS),
            nations: arcs(text::NATIONS.map(|(name, _)| name)),
            segments: arcs(text::SEGMENTS),
            mfgrs: arcs((1..=5).map(|m| format!("Manufacturer#{m}"))),
            brands: arcs((1..=5).flat_map(|m| (1..=5).map(move |n| format!("Brand#{m}{n}")))),
            types: arcs(product(
                &text::TYPE_SYL1,
                &product(&text::TYPE_SYL2, &text::TYPE_SYL3),
            )),
            containers: arcs(product(&text::CONTAINER_SYL1, &text::CONTAINER_SYL2)),
            clerks: arcs((1..=clerks).map(|n| format!("Clerk#{n:09}"))),
            priorities: arcs(text::PRIORITIES),
            instructions: arcs(text::INSTRUCTIONS),
            modes: arcs(text::MODES),
            returnflag: letters(["R", "A", "N"]),
            status: letters(["F", "O", "P"]),
        }
    }
}

/// A large-domain string: `write` it into the reused `scratch`, then
/// allocate exactly its length once.
fn fresh(scratch: &mut String, write: impl FnOnce(&mut String)) -> Value {
    scratch.clear();
    write(scratch);
    Value::Str(Arc::from(scratch.as_str()))
}

/// A shared small-domain string.
fn shared(s: &Arc<str>) -> Value {
    Value::Str(Arc::clone(s))
}

/// Every row `rows` hands its sink, each copied out.
fn collect(rows: impl FnOnce(Sink) -> IqResult<()>) -> Vec<Vec<Value>> {
    let mut out = Vec::new();
    rows(&mut |row| {
        out.push(row.to_vec());
        Ok(())
    })
    .expect("a sink that only collects cannot fail");
    out
}

/// dbgen's retail-price formula.
pub fn retail_price(partkey: i64) -> f64 {
    (90_000 + (partkey / 10) % 20_001 + 100 * (partkey % 1_000)) as f64 / 100.0
}

impl Generator {
    /// Generator for scale factor `sf`, seeded.
    pub fn new(sf: f64, seed: u64) -> Self {
        let clerks = (sf * 1000.0).round().max(1.0) as u64;
        Self {
            sf,
            seed,
            vocab: Vocab::new(clerks),
        }
    }

    fn scaled(&self, base: u64) -> i64 {
        ((self.sf * base as f64).round() as i64).max(1)
    }

    /// Supplier count.
    pub fn suppliers(&self) -> i64 {
        self.scaled(10_000)
    }

    /// Customer count.
    pub fn customers(&self) -> i64 {
        self.scaled(150_000)
    }

    /// Part count.
    pub fn parts(&self) -> i64 {
        self.scaled(200_000)
    }

    /// Order count.
    pub fn orders(&self) -> i64 {
        self.scaled(1_500_000)
    }

    fn rng(&self, salt: u64) -> DetRng {
        DetRng::new(self.seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// REGION rows: `r_regionkey, r_name, r_comment`.
    pub fn region_rows(&self) -> Vec<Vec<Value>> {
        collect(|row| self.region(row))
    }

    /// NATION rows: `n_nationkey, n_name, n_regionkey, n_comment`.
    pub fn nation_rows(&self) -> Vec<Vec<Value>> {
        collect(|row| self.nation(row))
    }

    /// SUPPLIER rows: `s_suppkey, s_name, s_address, s_nationkey, s_phone,
    /// s_acctbal, s_comment`.
    pub fn supplier_rows(&self) -> Vec<Vec<Value>> {
        collect(|row| self.supplier(row))
    }

    /// CUSTOMER rows: `c_custkey, c_name, c_address, c_nationkey, c_phone,
    /// c_acctbal, c_mktsegment, c_comment`.
    pub fn customer_rows(&self) -> Vec<Vec<Value>> {
        collect(|row| self.customer(row))
    }

    /// PART rows: `p_partkey, p_name, p_mfgr, p_brand, p_type, p_size,
    /// p_container, p_retailprice, p_comment`.
    pub fn part_rows(&self) -> Vec<Vec<Value>> {
        collect(|row| self.part(row))
    }

    /// PARTSUPP rows: `ps_partkey, ps_suppkey, ps_availqty, ps_supplycost,
    /// ps_comment`.
    pub fn partsupp_rows(&self) -> Vec<Vec<Value>> {
        collect(|row| self.partsupp(row))
    }

    /// Generate ORDERS and LINEITEM together. Calls `order(row)` once per
    /// order and `line(row)` once per line item.
    ///
    /// ORDERS: `o_orderkey, o_custkey, o_orderstatus, o_totalprice,
    /// o_orderdate, o_orderpriority, o_clerk, o_shippriority, o_comment`.
    ///
    /// LINEITEM: `l_orderkey, l_partkey, l_suppkey, l_linenumber,
    /// l_quantity, l_extendedprice, l_discount, l_tax, l_returnflag,
    /// l_linestatus, l_shipdate, l_commitdate, l_receiptdate,
    /// l_shipinstruct, l_shipmode, l_comment`.
    pub fn order_and_lineitem_rows(
        &self,
        order: impl FnMut(Vec<Value>),
        line: impl FnMut(Vec<Value>),
    ) {
        self.first_orders(self.orders(), order, line);
    }

    /// The first `n` orders of [`Self::order_and_lineitem_rows`] and their
    /// line items — the same rows, generated without the rest.
    pub fn first_orders(
        &self,
        n: i64,
        mut order: impl FnMut(Vec<Value>),
        mut line: impl FnMut(Vec<Value>),
    ) {
        self.orders_and_lines(
            n,
            &mut |o| {
                order(o.to_vec());
                Ok(())
            },
            &mut |l| {
                line(l.to_vec());
                Ok(())
            },
        )
        .expect("these sinks never return an error");
    }

    /// REGION, one row at a time.
    pub(crate) fn region(&self, row: Sink) -> IqResult<()> {
        let mut rng = self.rng(1);
        let mut s = String::new();
        for (i, name) in self.vocab.regions.iter().enumerate() {
            row(&[
                Value::I64(i as i64),
                shared(name),
                fresh(&mut s, |s| text::comment(&mut rng, 5, s)),
            ])?;
        }
        Ok(())
    }

    /// NATION, one row at a time.
    pub(crate) fn nation(&self, row: Sink) -> IqResult<()> {
        let mut rng = self.rng(2);
        let mut s = String::new();
        for (i, (name, (_, region))) in self.vocab.nations.iter().zip(text::NATIONS).enumerate() {
            row(&[
                Value::I64(i as i64),
                shared(name),
                Value::I64(region),
                fresh(&mut s, |s| text::comment(&mut rng, 5, s)),
            ])?;
        }
        Ok(())
    }

    /// SUPPLIER, one row at a time.
    pub(crate) fn supplier(&self, row: Sink) -> IqResult<()> {
        let mut rng = self.rng(3);
        let mut s = String::new();
        for k in 1..=self.suppliers() {
            let nation = rng.below(25) as i64;
            row(&[
                Value::I64(k),
                fresh(&mut s, |s| write_key(s, "Supplier#", k)),
                fresh(&mut s, |s| text::comment(&mut rng, 2, s)),
                Value::I64(nation),
                fresh(&mut s, |s| text::phone(&mut rng, nation, s)),
                Value::F64((rng.below(1_099_999) as f64 - 99_999.0) / 100.0),
                fresh(&mut s, |s| text::supplier_comment(&mut rng, 0.005, s)),
            ])?;
        }
        Ok(())
    }

    /// CUSTOMER, one row at a time.
    pub(crate) fn customer(&self, row: Sink) -> IqResult<()> {
        let mut rng = self.rng(4);
        let mut s = String::new();
        for k in 1..=self.customers() {
            let nation = rng.below(25) as i64;
            row(&[
                Value::I64(k),
                fresh(&mut s, |s| write_key(s, "Customer#", k)),
                fresh(&mut s, |s| text::comment(&mut rng, 2, s)),
                Value::I64(nation),
                fresh(&mut s, |s| text::phone(&mut rng, nation, s)),
                Value::F64((rng.below(1_099_999) as f64 - 99_999.0) / 100.0),
                Value::Str(text::pick(&mut rng, &self.vocab.segments)),
                fresh(&mut s, |s| text::comment(&mut rng, 6, s)),
            ])?;
        }
        Ok(())
    }

    /// PART, one row at a time.
    pub(crate) fn part(&self, row: Sink) -> IqResult<()> {
        let mut rng = self.rng(5);
        let mut s = String::new();
        let v = &self.vocab;
        for k in 1..=self.parts() {
            let m = rng.below(5) as usize;
            let n = rng.below(5) as usize;
            let ptype = {
                let a = rng.below(text::TYPE_SYL1.len() as u64) as usize;
                let b = rng.below(text::TYPE_SYL2.len() as u64) as usize;
                let c = rng.below(text::TYPE_SYL3.len() as u64) as usize;
                &v.types[(a * text::TYPE_SYL2.len() + b) * text::TYPE_SYL3.len() + c]
            };
            let container = {
                let a = rng.below(text::CONTAINER_SYL1.len() as u64) as usize;
                let b = rng.below(text::CONTAINER_SYL2.len() as u64) as usize;
                &v.containers[a * text::CONTAINER_SYL2.len() + b]
            };
            row(&[
                Value::I64(k),
                fresh(&mut s, |s| text::part_name(&mut rng, s)),
                shared(&v.mfgrs[m]),
                shared(&v.brands[5 * m + n]),
                shared(ptype),
                Value::I64(1 + rng.below(50) as i64),
                shared(container),
                Value::F64(retail_price(k)),
                fresh(&mut s, |s| text::comment(&mut rng, 3, s)),
            ])?;
        }
        Ok(())
    }

    /// PARTSUPP, one row at a time.
    pub(crate) fn partsupp(&self, row: Sink) -> IqResult<()> {
        let mut rng = self.rng(6);
        let mut s = String::new();
        let suppliers = self.suppliers();
        for p in 1..=self.parts() {
            for i in 0..4i64 {
                // Spec supplier-spread formula.
                let supp = (p + i * (suppliers / 4 + (p - 1) / suppliers)) % suppliers + 1;
                row(&[
                    Value::I64(p),
                    Value::I64(supp),
                    Value::I64(1 + rng.below(9_999) as i64),
                    Value::F64(1.0 + rng.below(99_900) as f64 / 100.0),
                    fresh(&mut s, |s| text::comment(&mut rng, 5, s)),
                ])?;
            }
        }
        Ok(())
    }

    /// The first `n` orders, one row at a time, each after its line items.
    pub(crate) fn orders_and_lines(&self, n: i64, order: Sink, line: Sink) -> IqResult<()> {
        let mut rng = self.rng(7);
        let mut s = String::new();
        let v = &self.vocab;
        let customers = self.customers();
        let parts = self.parts();
        let suppliers = self.suppliers();
        let date_span = (end_order_date() - start_date()) as u64;
        let cut = current_date();

        for okey in 1..=n.min(self.orders()) {
            // Two thirds of customers have orders: skip custkey % 3 == 0.
            let mut custkey = 1 + rng.below(customers as u64) as i64;
            if custkey % 3 == 0 {
                custkey = (custkey % customers) + 1;
            }
            let orderdate = start_date() + rng.below(date_span + 1) as i32;
            let nlines = 1 + rng.below(7) as usize;
            let mut total = 0.0f64;
            let mut statuses = (0u32, 0u32); // (F, O)
            for ln in 0..nlines {
                let partkey = 1 + rng.below(parts as u64) as i64;
                // One of the part's four suppliers.
                let i = rng.below(4) as i64;
                let suppkey =
                    (partkey + i * (suppliers / 4 + (partkey - 1) / suppliers)) % suppliers + 1;
                let quantity = 1 + rng.below(50) as i64;
                let extprice = quantity as f64 * retail_price(partkey);
                let discount = rng.below(11) as f64 / 100.0;
                let tax = rng.below(9) as f64 / 100.0;
                let shipdate = orderdate + 1 + rng.below(121) as i32;
                let commitdate = orderdate + 30 + rng.below(61) as i32;
                let receiptdate = shipdate + 1 + rng.below(30) as i32;
                let returnflag = if receiptdate <= cut {
                    if rng.chance(0.5) {
                        &v.returnflag[0]
                    } else {
                        &v.returnflag[1]
                    }
                } else {
                    &v.returnflag[2]
                };
                let shipped = shipdate <= cut;
                if shipped {
                    statuses.0 += 1;
                } else {
                    statuses.1 += 1;
                }
                total += extprice * (1.0 - discount) * (1.0 + tax);
                line(&[
                    Value::I64(okey),
                    Value::I64(partkey),
                    Value::I64(suppkey),
                    Value::I64(ln as i64 + 1),
                    Value::I64(quantity),
                    Value::F64(extprice),
                    Value::F64(discount),
                    Value::F64(tax),
                    shared(returnflag),
                    shared(&v.status[usize::from(!shipped)]),
                    Value::Date(shipdate),
                    Value::Date(commitdate),
                    Value::Date(receiptdate),
                    Value::Str(text::pick(&mut rng, &v.instructions)),
                    Value::Str(text::pick(&mut rng, &v.modes)),
                    fresh(&mut s, |s| text::comment(&mut rng, 3, s)),
                ])?;
            }
            let status = match statuses {
                (_, 0) => &v.status[0],
                (0, _) => &v.status[1],
                _ => &v.status[2],
            };
            order(&[
                Value::I64(okey),
                Value::I64(custkey),
                shared(status),
                Value::F64(total),
                Value::Date(orderdate),
                Value::Str(text::pick(&mut rng, &v.priorities)),
                Value::Str(text::pick(&mut rng, &v.clerks)),
                Value::I64(0),
                fresh(&mut s, |s| text::order_comment(&mut rng, 0.02, s)),
            ])?;
        }
        Ok(())
    }
}

/// `prefix` and `key` zero-padded to nine digits, as dbgen names rows.
fn write_key(out: &mut String, prefix: &str, key: i64) {
    use std::fmt::Write;
    write!(out, "{prefix}{key:09}").expect("writing to a String cannot fail");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cardinalities_scale() {
        let g = Generator::new(0.01, 42);
        assert_eq!(g.suppliers(), 100);
        assert_eq!(g.customers(), 1_500);
        assert_eq!(g.parts(), 2_000);
        assert_eq!(g.orders(), 15_000);
        assert_eq!(g.region_rows().len(), 5);
        assert_eq!(g.nation_rows().len(), 25);
        assert_eq!(g.partsupp_rows().len(), 8_000);
    }

    #[test]
    fn partsupp_keys_valid_and_distinct() {
        let g = Generator::new(0.01, 42);
        let rows = g.partsupp_rows();
        let s = g.suppliers();
        let mut seen = std::collections::HashSet::new();
        for row in &rows {
            let p = row[0].as_i64().unwrap();
            let supp = row[1].as_i64().unwrap();
            assert!((1..=s).contains(&supp));
            assert!(
                seen.insert((p, supp)),
                "duplicate (part, supp) = ({p}, {supp})"
            );
        }
    }

    #[test]
    fn orders_and_lines_consistent() {
        let g = Generator::new(0.002, 7);
        let mut orders = Vec::new();
        let mut lines = Vec::new();
        g.order_and_lineitem_rows(|o| orders.push(o), |l| lines.push(l));
        assert_eq!(orders.len() as i64, g.orders());
        assert!(lines.len() >= orders.len());
        let cut = current_date();
        for l in &lines {
            let ship = match l[10] {
                Value::Date(d) => d,
                _ => panic!(),
            };
            let commit = match l[11] {
                Value::Date(d) => d,
                _ => panic!(),
            };
            let receipt = match l[12] {
                Value::Date(d) => d,
                _ => panic!(),
            };
            assert!(receipt > ship);
            assert!(commit > ship - 121);
            let status = l[9].as_str().unwrap();
            assert_eq!(status == "O", ship > cut);
            let rf = l[8].as_str().unwrap();
            if receipt > cut {
                assert_eq!(rf, "N");
            }
        }
        // No customer with custkey % 3 == 0 has an order (Q22's premise).
        for o in &orders {
            assert_ne!(o[1].as_i64().unwrap() % 3, 0);
        }
        // Total price equals the recomputed taxed/discounted line sum.
        let okey = orders[0][0].as_i64().unwrap();
        let expected: f64 = lines
            .iter()
            .filter(|l| l[0].as_i64().unwrap() == okey)
            .map(|l| {
                let ext = l[5].as_f64().unwrap();
                let disc = l[6].as_f64().unwrap();
                let tax = l[7].as_f64().unwrap();
                ext * (1.0 - disc) * (1.0 + tax)
            })
            .sum();
        let total = orders[0][3].as_f64().unwrap();
        assert!((total - expected).abs() < 1e-6);
    }

    #[test]
    fn first_orders_is_a_prefix_of_the_full_stream() {
        let g = Generator::new(0.002, 7);
        let (mut orders, mut lines) = (Vec::new(), Vec::new());
        g.order_and_lineitem_rows(|o| orders.push(o), |l| lines.push(l));
        let (mut first, mut first_lines) = (Vec::new(), Vec::new());
        g.first_orders(30, |o| first.push(o), |l| first_lines.push(l));
        assert_eq!(first.len(), 30);
        assert_eq!(first[..], orders[..30]);
        assert_eq!(first_lines[..], lines[..first_lines.len()]);
        assert_eq!(lines[first_lines.len()][0], Value::I64(31));
        // Asking for more than there are stops at the last order.
        let mut all = 0;
        g.first_orders(i64::MAX, |_| all += 1, |_| {});
        assert_eq!(all, g.orders());
    }

    #[test]
    fn deterministic_across_runs() {
        let a = Generator::new(0.001, 5).customer_rows();
        let b = Generator::new(0.001, 5).customer_rows();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x[4].as_str(), y[4].as_str());
        }
        let c = Generator::new(0.001, 6).customer_rows();
        assert_ne!(
            a[0][4].as_str(),
            c[0][4].as_str(),
            "different seeds should differ (w.h.p.)"
        );
    }

    #[test]
    fn retail_price_formula() {
        assert!((retail_price(1) - 901.00).abs() < 1e-9);
        assert!(retail_price(2_000_000) >= 900.0);
    }
}
