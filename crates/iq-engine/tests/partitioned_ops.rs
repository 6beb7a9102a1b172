//! Property tests: the partitioned (morsel-parallel) join and aggregate
//! paths are **bitwise identical** to the serial oracle at every worker
//! count — the contract that lets plans pick a fan-out purely for speed.
//!
//! Floats make this stricter than value equality: summing the same
//! multiset in a different order changes the f64 result, so equality is
//! asserted on `to_bits()`. The partitioned implementation earns it by
//! exchanging row memberships (not partial states) and folding each
//! partition's rows in global row order — see `ops.rs` and DESIGN.md §6g.

use iq_engine::chunk::{Chunk, Col};
use iq_engine::ops::{hash_aggregate_exec, hash_join_exec, AggSpec, JoinType, OpExec};
use iq_engine::WorkMeter;
use proptest::prelude::*;

fn assert_bitwise_eq(a: &Chunk, b: &Chunk) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.cols.len(), b.cols.len());
    for (x, y) in a.cols.iter().zip(&b.cols) {
        match (x, y) {
            (Col::I64(p), Col::I64(q)) => prop_assert_eq!(p, q),
            (Col::Date(p), Col::Date(q)) => prop_assert_eq!(p, q),
            (Col::Bool(p), Col::Bool(q)) => prop_assert_eq!(p, q),
            (Col::Str(p), Col::Str(q)) => prop_assert_eq!(p, q),
            (Col::F64(p), Col::F64(q)) => {
                prop_assert_eq!(p.len(), q.len());
                for (u, v) in p.iter().zip(q) {
                    prop_assert_eq!(u.to_bits(), v.to_bits());
                }
            }
            _ => prop_assert!(false, "column type mismatch"),
        }
    }
    Ok(())
}

/// Random input: an i64 group key with controllable cardinality, a second
/// i64 key, an adversarial f64 measure (values whose sums genuinely
/// depend on association order), and a small string column.
fn table(max_rows: usize) -> impl Strategy<Value = Chunk> {
    (
        (1i64..=16, proptest::collection::vec(0i64..64, 0..max_rows)),
        (
            proptest::collection::vec(0i64..8, 0..max_rows),
            proptest::collection::vec(
                prop_oneof![
                    -1.0e12f64..1.0e12,
                    -1.0f64..1.0,
                    Just(0.1f64),
                    Just(1.0e9f64)
                ],
                0..max_rows,
            ),
        ),
        proptest::collection::vec(0u8..4, 0..max_rows),
    )
        .prop_map(|((card, k1), (k2, vals), tags)| {
            let n = k1.len().min(k2.len()).min(vals.len()).min(tags.len());
            Chunk::new(vec![
                Col::I64(k1[..n].iter().map(|v| v % card).collect()),
                Col::I64(k2[..n].to_vec()),
                Col::F64(vals[..n].to_vec()),
                Col::Str(tags[..n].iter().map(|t| format!("t{t}")).collect()),
            ])
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn partitioned_aggregate_is_bitwise_serial(
        input in table(200),
        workers in prop_oneof![Just(1usize), Just(2usize), Just(8usize)],
        two_keys in any::<bool>(),
    ) {
        let meter = WorkMeter::new();
        let group: &[usize] = if two_keys { &[0, 1] } else { &[0] };
        let aggs = [
            AggSpec::sum(2),
            AggSpec::avg(2),
            AggSpec::min(2),
            AggSpec::max(2),
            AggSpec::count(3),
            AggSpec::min(3),
        ];
        let serial = hash_aggregate_exec(&input, group, &aggs, &meter, &OpExec::serial()).unwrap();
        let mark = meter.total();
        let parallel =
            hash_aggregate_exec(&input, group, &aggs, &meter, &OpExec::new(workers)).unwrap();
        assert_bitwise_eq(&serial, &parallel)?;
        // Meter parity: fan-out must not change the metered cost, or the
        // scheduler's light/heavy classification would depend on workers.
        prop_assert_eq!(meter.total() - mark, mark);
    }

    #[test]
    fn partitioned_join_is_bitwise_serial(
        left in table(120),
        right in table(120),
        workers in prop_oneof![Just(2usize), Just(8usize)],
        jt in prop_oneof![
            Just(JoinType::Inner),
            Just(JoinType::Left),
            Just(JoinType::Semi),
            Just(JoinType::Anti)
        ],
    ) {
        let meter = WorkMeter::new();
        let serial =
            hash_join_exec(&left, &right, &[0, 1], &[0, 1], jt, &meter, &OpExec::serial())
                .unwrap();
        let parallel =
            hash_join_exec(&left, &right, &[0, 1], &[0, 1], jt, &meter, &OpExec::new(workers))
                .unwrap();
        assert_bitwise_eq(&serial, &parallel)?;
    }

    #[test]
    fn scalar_aggregate_is_bitwise_serial(
        input in table(200),
        workers in prop_oneof![Just(2usize), Just(8usize)],
    ) {
        let meter = WorkMeter::new();
        let aggs = [AggSpec::sum(2), AggSpec::avg(2), AggSpec::count(0)];
        let serial = hash_aggregate_exec(&input, &[], &aggs, &meter, &OpExec::serial()).unwrap();
        let parallel =
            hash_aggregate_exec(&input, &[], &aggs, &meter, &OpExec::new(workers)).unwrap();
        assert_bitwise_eq(&serial, &parallel)?;
    }
}
