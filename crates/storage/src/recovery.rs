//! Recovery of the switch state and of node state from the per-node
//! write-ahead logs (§6.1, §6.2 and appendix A.3).
//!
//! Switch transactions never abort, so every `SwitchIntent` in any node's log
//! denotes work that must be reflected in the recovered switch state. Most of
//! them also have a `SwitchResult` record carrying the switch-assigned GID,
//! which fixes their position in the serial order. *In-flight* transactions
//! (intent logged, reply lost because the node and/or switch crashed) have no
//! GID; their position is reconstructed from data dependencies: if a
//! completed transaction's recorded read/write results are only explainable
//! when the in-flight transaction ran before it, it is ordered first —
//! otherwise any order is valid (the paper's Figure 9 scenario).

use crate::wal::{LogRecord, LoggedSwitchOp};
use p4db_common::{TupleId, TxnId, Value};
use p4db_switch::apply_op;
use std::collections::{HashMap, HashSet};

/// A switch transaction reconstructed from the logs.
#[derive(Clone, Debug)]
struct RecoveredTxn {
    txn: TxnId,
    ops: Vec<LoggedSwitchOp>,
    /// `Some((gid, results))` for completed transactions.
    outcome: Option<(u64, Vec<(TupleId, u64)>)>,
}

/// Result of switch recovery.
#[derive(Clone, Debug, Default)]
pub struct SwitchRecoveryOutcome {
    /// The recovered value of every hot tuple touched by any logged switch
    /// transaction (tuples never touched keep their offload-time value).
    pub values: HashMap<TupleId, u64>,
    /// Completed switch transactions replayed (had a GID).
    pub completed: usize,
    /// In-flight switch transactions whose position was inferred from
    /// read/write-set dependencies.
    pub inflight_ordered: usize,
    /// In-flight switch transactions appended at the end because no
    /// dependency constrained their position.
    pub inflight_unordered: usize,
    /// Completed transactions whose recorded results could not be reproduced
    /// exactly (should be zero; non-zero indicates log corruption).
    pub inconsistencies: usize,
}

/// Effect of replaying one logged operation: everything a replayer (the
/// recovery repair loop, the chaos invariant checker) needs to track state
/// changes, reported values and constrained-write outcomes.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct LoggedOpEffect {
    /// Cell value before the operation.
    pub previous: u64,
    /// Cell value after the operation.
    pub new: u64,
    /// Value the switch would report for this operation.
    pub value: u64,
    /// Whether a constrained write's predicate held (always `true` for
    /// unconditional opcodes).
    pub applied: bool,
}

/// Replays one logged operation against a shadow state, mirroring the switch
/// ALU exactly — including operand forwarding from earlier results of the
/// same transaction.
pub fn replay_logged_op(
    state: &mut HashMap<TupleId, u64>,
    results_so_far: &[u64],
    op: &LoggedSwitchOp,
) -> LoggedOpEffect {
    let current = state.get(&op.tuple).copied().unwrap_or(0);
    let operand = match op.operand_from {
        Some(src) if (src as usize) < results_so_far.len() => results_so_far[src as usize],
        _ => op.operand,
    };
    let (new, result) = apply_op(current, op.op, operand);
    state.insert(op.tuple, new);
    LoggedOpEffect { previous: current, new, value: result.value, applied: result.applied }
}

/// Replays a whole logged transaction; returns the per-op result values.
pub fn replay_logged_txn(state: &mut HashMap<TupleId, u64>, ops: &[LoggedSwitchOp]) -> Vec<u64> {
    let mut results = Vec::with_capacity(ops.len());
    for op in ops {
        let effect = replay_logged_op(state, &results, op);
        results.push(effect.value);
    }
    results
}

/// Checks whether replaying `ops` on a *copy* of `state` reproduces the
/// recorded `expected` results.
fn replay_matches(state: &HashMap<TupleId, u64>, ops: &[LoggedSwitchOp], expected: &[(TupleId, u64)]) -> bool {
    let mut scratch = state.clone();
    let results = replay_logged_txn(&mut scratch, ops);
    if results.len() != expected.len() {
        return false;
    }
    results.iter().zip(expected.iter()).all(|(got, (_, want))| got == want)
}

/// Recovers the switch state after a switch failure from the logs of all
/// database nodes (§A.3, case 1 and case 3).
///
/// `initial` is the state the switch started from (its offload-time or
/// epoch-start values); `logs` are the decoded records of every node's log.
pub fn recover_switch_state(initial: &HashMap<TupleId, u64>, logs: &[Vec<LogRecord>]) -> SwitchRecoveryOutcome {
    // -- Collect switch transactions from all logs ---------------------------
    let mut txns: HashMap<TxnId, RecoveredTxn> = HashMap::new();
    for record in logs.iter().flatten() {
        let entry = |txn: TxnId| RecoveredTxn { txn, ops: Vec::new(), outcome: None };
        match record {
            LogRecord::SwitchIntent { txn, ops } => txns.entry(*txn).or_insert_with(|| entry(*txn)).ops = ops.clone(),
            LogRecord::SwitchResult { txn, gid, results } => {
                txns.entry(*txn).or_insert_with(|| entry(*txn)).outcome = Some((gid.0, results.clone()));
            }
            _ => {}
        }
    }

    let mut completed: Vec<RecoveredTxn> = txns.values().filter(|t| t.outcome.is_some()).cloned().collect();
    completed.sort_by_key(|t| t.outcome.as_ref().map(|(gid, _)| *gid).unwrap_or(u64::MAX));
    let mut inflight: Vec<RecoveredTxn> = txns.values().filter(|t| t.outcome.is_none()).cloned().collect();
    inflight.sort_by_key(|t| t.txn); // deterministic order

    let mut outcome = SwitchRecoveryOutcome { completed: completed.len(), ..Default::default() };

    // -- Iterative repair ------------------------------------------------------
    // Start from the offload-time state and replay completed transactions in
    // GID order, verifying their recorded results. When a mismatch is found,
    // an in-flight transaction touching the mismatching tuples must have
    // executed earlier: pull one in, apply it before the completed replay and
    // start over. Bounded by the number of in-flight transactions.
    let mut applied_early: Vec<RecoveredTxn> = Vec::new();
    'repair: loop {
        let mut state = initial.clone();
        for t in &applied_early {
            replay_logged_txn(&mut state, &t.ops);
        }
        for t in &completed {
            let (_, expected) = t.outcome.as_ref().expect("completed txns carry results");
            if !replay_matches(&state, &t.ops, expected) {
                // Find an in-flight transaction that touches any tuple this
                // completed transaction touches and promote it.
                let touched: Vec<TupleId> = t.ops.iter().map(|o| o.tuple).collect();
                if let Some(pos) = inflight.iter().position(|inf| inf.ops.iter().any(|o| touched.contains(&o.tuple))) {
                    applied_early.push(inflight.remove(pos));
                    continue 'repair;
                }
                // No candidate: record the inconsistency and keep going with
                // whatever the replay produces.
                outcome.inconsistencies += 1;
            }
            replay_logged_txn(&mut state, &t.ops);
        }
        // Remaining in-flight transactions have no ordering constraint:
        // append them at the end (any order is valid, §A.3).
        for t in &inflight {
            replay_logged_txn(&mut state, &t.ops);
        }
        outcome.inflight_ordered = applied_early.len();
        outcome.inflight_unordered = inflight.len();
        outcome.values = state;
        break;
    }
    outcome
}

/// Recovers the *cold* state of one node from its log records: after-images
/// of all committed transactions are redone; writes of transactions without
/// a commit record are undone via their before-images (§A.3, case 2). A
/// checkpointed restart replays only the segment tail since the checkpoint
/// fence, which group-atomic commit/abort records make self-contained: a
/// transaction's cold writes always share one group append with their
/// `Commit`/`Abort`, so a tail never splits a write from its verdict.
pub fn recover_cold_records(records: &[LogRecord]) -> HashMap<TupleId, Value> {
    let mut committed: HashMap<TxnId, bool> = HashMap::new();
    for r in records {
        match r {
            LogRecord::Commit { txn } => {
                committed.insert(*txn, true);
            }
            LogRecord::Abort { txn } => {
                committed.insert(*txn, false);
            }
            // A switch intent marks the transaction as pre-committed: its
            // cold part must be treated as committed even without an explicit
            // commit record (the paper's "counts as committed" rule).
            LogRecord::SwitchIntent { txn, .. } => {
                committed.entry(*txn).or_insert(true);
            }
            _ => {}
        }
    }
    let mut state: HashMap<TupleId, Value> = HashMap::new();
    // An undone transaction's pre-image is the *first* before-image it
    // logged for a tuple — a second write to the same tuple carries the
    // first write's after-image as its "before", which is exactly the torn
    // intermediate the undo must erase. (2PL keeps a tuple's writers
    // serialized and a transaction's records share one group append, so
    // skipping the duplicates cannot skip another transaction's image.)
    let mut undone: HashSet<(TxnId, TupleId)> = HashSet::new();
    for r in records {
        if let LogRecord::ColdWrite { txn, tuple, before, after } = r {
            let is_committed = committed.get(txn).copied().unwrap_or(false);
            if is_committed {
                state.insert(*tuple, *after);
            } else if undone.insert((*txn, *tuple)) {
                state.insert(*tuple, *before);
            }
        }
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::Wal;
    use p4db_common::{GlobalTxnId, NodeId, TableId, WorkerId};
    use p4db_switch::OpCode;

    fn txn(seq: u32, node: u16) -> TxnId {
        TxnId::compose(seq, NodeId(node), WorkerId(0))
    }

    fn tuple(key: u64) -> TupleId {
        TupleId::new(TableId(0), key)
    }

    fn add_op(key: u64, delta: u64) -> LoggedSwitchOp {
        LoggedSwitchOp { tuple: tuple(key), op: OpCode::Add, operand: delta, operand_from: None }
    }

    #[test]
    fn completed_txns_are_replayed_in_gid_order() {
        // x starts at 1; T_a executes x*? no — adds; GID order: T_a (gid 0,
        // x+=2 → 3), T_b (gid 1, x+=3 → 6).
        let wal = Wal::new();
        wal.append(LogRecord::SwitchIntent { txn: txn(1, 0), ops: vec![add_op(1, 2)] });
        wal.append(LogRecord::SwitchResult { txn: txn(1, 0), gid: GlobalTxnId(0), results: vec![(tuple(1), 3)] });
        wal.append(LogRecord::SwitchIntent { txn: txn(2, 0), ops: vec![add_op(1, 3)] });
        wal.append(LogRecord::SwitchResult { txn: txn(2, 0), gid: GlobalTxnId(1), results: vec![(tuple(1), 6)] });

        let initial = HashMap::from([(tuple(1), 1u64)]);
        let out = recover_switch_state(&initial, &[wal.records()]);
        assert_eq!(out.values[&tuple(1)], 6);
        assert_eq!(out.completed, 2);
        assert_eq!(out.inconsistencies, 0);
    }

    #[test]
    fn figure9_scenario_orders_inflight_txn_before_dependent_completed_txn() {
        // Node1 crashed before receiving T1's reply: its log only has the
        // intent (x += 2). Node2 committed T2 (x += 3) and recorded x = 6.
        // Starting from x = 1, T2's recorded result is only explainable if T1
        // ran first.
        let node1 = Wal::new();
        node1.append(LogRecord::SwitchIntent { txn: txn(1, 1), ops: vec![add_op(7, 2)] });

        let node2 = Wal::new();
        node2.append(LogRecord::SwitchIntent { txn: txn(1, 2), ops: vec![add_op(7, 3)] });
        node2.append(LogRecord::SwitchResult { txn: txn(1, 2), gid: GlobalTxnId(5), results: vec![(tuple(7), 6)] });

        let initial = HashMap::from([(tuple(7), 1u64)]);
        let out = recover_switch_state(&initial, &[node1.records(), node2.records()]);
        assert_eq!(out.values[&tuple(7)], 6, "x must end at 1 + 2 + 3");
        assert_eq!(out.inflight_ordered, 1);
        assert_eq!(out.inflight_unordered, 0);
        assert_eq!(out.inconsistencies, 0);
    }

    #[test]
    fn independent_inflight_txn_is_applied_in_any_order() {
        // The in-flight transaction touches a different tuple: no dependency,
        // it is simply applied at the end.
        let node1 = Wal::new();
        node1.append(LogRecord::SwitchIntent { txn: txn(1, 1), ops: vec![add_op(50, 10)] });

        let node2 = Wal::new();
        node2.append(LogRecord::SwitchIntent { txn: txn(1, 2), ops: vec![add_op(7, 3)] });
        node2.append(LogRecord::SwitchResult { txn: txn(1, 2), gid: GlobalTxnId(0), results: vec![(tuple(7), 4)] });

        let initial = HashMap::from([(tuple(7), 1u64), (tuple(50), 100u64)]);
        let out = recover_switch_state(&initial, &[node1.records(), node2.records()]);
        assert_eq!(out.values[&tuple(7)], 4);
        assert_eq!(out.values[&tuple(50)], 110);
        assert_eq!(out.inflight_unordered, 1);
        assert_eq!(out.inflight_ordered, 0);
    }

    #[test]
    fn corrupted_results_are_reported_not_fatal() {
        let wal = Wal::new();
        wal.append(LogRecord::SwitchIntent { txn: txn(1, 0), ops: vec![add_op(1, 2)] });
        // Recorded result is impossible given the initial state.
        wal.append(LogRecord::SwitchResult { txn: txn(1, 0), gid: GlobalTxnId(0), results: vec![(tuple(1), 999)] });
        let initial = HashMap::from([(tuple(1), 1u64)]);
        let out = recover_switch_state(&initial, &[wal.records()]);
        assert_eq!(out.inconsistencies, 1);
        assert_eq!(out.values[&tuple(1)], 3, "replay still applies the op");
    }

    #[test]
    fn untouched_tuples_keep_their_initial_values() {
        let wal = Wal::new();
        let initial = HashMap::from([(tuple(1), 11u64), (tuple(2), 22u64)]);
        let out = recover_switch_state(&initial, &[wal.records()]);
        assert_eq!(out.values, initial);
    }

    #[test]
    fn read_dependent_writes_replay_with_forwarded_operands() {
        // Amalgamate-style: read account A, credit B with the value read.
        let wal = Wal::new();
        let ops = vec![
            LoggedSwitchOp { tuple: tuple(1), op: OpCode::Read, operand: 0, operand_from: None },
            LoggedSwitchOp { tuple: tuple(2), op: OpCode::Add, operand: 0, operand_from: Some(0) },
        ];
        wal.append(LogRecord::SwitchIntent { txn: txn(1, 0), ops: ops.clone() });
        wal.append(LogRecord::SwitchResult {
            txn: txn(1, 0),
            gid: GlobalTxnId(0),
            results: vec![(tuple(1), 40), (tuple(2), 45)],
        });
        let initial = HashMap::from([(tuple(1), 40u64), (tuple(2), 5u64)]);
        let out = recover_switch_state(&initial, &[wal.records()]);
        assert_eq!(out.values[&tuple(2)], 45);
        assert_eq!(out.inconsistencies, 0);
    }

    #[test]
    fn cold_recovery_redoes_committed_and_undoes_uncommitted() {
        let wal = Wal::new();
        let committed = txn(1, 0);
        let aborted = txn(2, 0);
        let in_doubt = txn(3, 0);
        wal.append(LogRecord::ColdWrite {
            txn: committed,
            tuple: tuple(1),
            before: Value::scalar(0),
            after: Value::scalar(10),
        });
        wal.append(LogRecord::Commit { txn: committed });
        wal.append(LogRecord::ColdWrite {
            txn: aborted,
            tuple: tuple(2),
            before: Value::scalar(5),
            after: Value::scalar(50),
        });
        wal.append(LogRecord::Abort { txn: aborted });
        // No commit record but a switch intent: pre-committed, must be redone.
        wal.append(LogRecord::ColdWrite {
            txn: in_doubt,
            tuple: tuple(3),
            before: Value::scalar(7),
            after: Value::scalar(70),
        });
        wal.append(LogRecord::SwitchIntent { txn: in_doubt, ops: vec![add_op(9, 1)] });

        let state = recover_cold_records(&wal.records());
        assert_eq!(state[&tuple(1)].switch_word(), 10);
        assert_eq!(state[&tuple(2)].switch_word(), 5);
        assert_eq!(state[&tuple(3)].switch_word(), 70);
    }

    #[test]
    fn undo_of_a_double_writing_aborted_txn_restores_the_first_before_image() {
        // T writes tuple 1 twice (5 → 50 → 70) and aborts: the recovered
        // value must be 5, not the torn intermediate 50 carried as the
        // second record's before-image.
        let wal = Wal::new();
        let t = txn(1, 0);
        wal.append_group([
            LogRecord::ColdWrite { txn: t, tuple: tuple(1), before: Value::scalar(5), after: Value::scalar(50) },
            LogRecord::ColdWrite { txn: t, tuple: tuple(1), before: Value::scalar(50), after: Value::scalar(70) },
            LogRecord::Abort { txn: t },
        ]);
        let state = recover_cold_records(&wal.records());
        assert_eq!(state[&tuple(1)].switch_word(), 5);

        // The committed twin redoes to the *last* after-image.
        let wal = Wal::new();
        let t = txn(2, 0);
        wal.append_group([
            LogRecord::ColdWrite { txn: t, tuple: tuple(1), before: Value::scalar(5), after: Value::scalar(50) },
            LogRecord::ColdWrite { txn: t, tuple: tuple(1), before: Value::scalar(50), after: Value::scalar(70) },
            LogRecord::Commit { txn: t },
        ]);
        assert_eq!(recover_cold_records(&wal.records())[&tuple(1)].switch_word(), 70);
    }

    #[test]
    fn tail_only_replay_matches_full_replay_when_groups_are_atomic() {
        // Build a log where a checkpoint fence falls between two atomic
        // groups; replaying only the tail must reproduce the tail's writes
        // exactly (commit status is self-contained per group).
        let wal = Wal::new();
        let a = txn(1, 0);
        let b = txn(2, 0);
        wal.append_group([
            LogRecord::ColdWrite { txn: a, tuple: tuple(1), before: Value::scalar(0), after: Value::scalar(10) },
            LogRecord::Commit { txn: a },
        ]);
        let fence = wal.len();
        wal.append_group([
            LogRecord::ColdWrite { txn: b, tuple: tuple(1), before: Value::scalar(10), after: Value::scalar(99) },
            LogRecord::Abort { txn: b },
        ]);
        let tail = wal.records_from(fence as u64);
        let state = recover_cold_records(&tail);
        assert_eq!(state[&tuple(1)].switch_word(), 10, "the tail undoes b without needing a's records");
    }
}
