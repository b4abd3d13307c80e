//! Property-based tests on the core invariants of the system: the switch ALU
//! and pass planner, the pipeline locks, the declustered layout, the host
//! lock table and the recovery replay.
//!
//! The build environment has no crates.io access, so instead of `proptest`
//! these use a small deterministic case-generation harness driven by the
//! workspace's own [`FastRng`]: each property runs against a few hundred
//! pseudo-random cases derived from a fixed seed, and a failure message
//! reports the case seed so the exact case can be replayed.

use p4db::common::rand_util::FastRng;
use p4db::common::{CcScheme, GlobalTxnId, NodeId, SwitchId, TableId, TupleId, TxnId, Value, WorkerId};
use p4db::layout::{max_cut, single_pass_fraction, AccessGraph, LayoutPlanner, LayoutStrategy, TraceAccess, TxnTrace};
use p4db::net::{decode_frame_prefix, encode_frame, EndpointId, Envelope};
use p4db::storage::{
    decode_segment_prefix, decode_segments, encode_segment, recover_switch_state, LockMode, LockTable, LogRecord,
    LoggedSwitchOp, Wal,
};
use p4db::switch::{apply_op, plan_passes, Instruction, OpCode, RegisterSlot};
use std::collections::HashMap;

/// Number of pseudo-random cases generated per property.
const CASES: u64 = 300;

/// Runs `property` once per case with an rng seeded from the case index, so
/// every case is independent and reproducible: re-running a reported seed
/// replays exactly the failing case.
fn check(name: &str, property: impl Fn(&mut FastRng)) {
    for case in 0..CASES {
        let seed = 0x5EED_0000_0000 ^ (case + 1);
        let mut rng = FastRng::new(seed);
        // The panic payload propagates unchanged; the seed line below is
        // printed *after* the panic message, just before re-raising it.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| property(&mut rng)));
        if let Err(payload) = result {
            eprintln!("property {name:?} failed for case seed {seed:#x}");
            std::panic::resume_unwind(payload);
        }
    }
}

fn rand_opcode(rng: &mut FastRng) -> OpCode {
    match rng.gen_range(6) {
        0 => OpCode::Read,
        1 => OpCode::Write,
        2 => OpCode::Add,
        3 => OpCode::FetchAdd,
        4 => OpCode::CondSub,
        _ => OpCode::WriteIfGreater,
    }
}

fn rand_slot(rng: &mut FastRng) -> RegisterSlot {
    RegisterSlot::new(rng.gen_range(10) as u8, rng.gen_range(4) as u8, rng.gen_range(64) as u32)
}

/// The switch ALU never corrupts a register: reads leave it unchanged and
/// CondSub never drives a non-negative balance negative.
#[test]
fn alu_invariants() {
    check("alu_invariants", |rng| {
        let cell = rng.next_u64();
        let op = rand_opcode(rng);
        let operand = rng.next_u64();
        let (new, result) = apply_op(cell, op, operand);
        match op {
            OpCode::Read => {
                assert_eq!(new, cell);
                assert_eq!(result.value, cell);
            }
            OpCode::Write => assert_eq!(new, operand),
            OpCode::Add => assert_eq!(new, cell.wrapping_add(operand)),
            OpCode::FetchAdd => {
                assert_eq!(result.value, cell);
                assert_eq!(new, cell.wrapping_add(operand));
            }
            OpCode::CondSub => {
                if (cell as i64) >= 0 {
                    assert!((new as i64) >= 0, "CondSub must never overdraft");
                }
                if !result.applied {
                    assert_eq!(new, cell);
                }
            }
            OpCode::WriteIfGreater => {
                assert!(new >= cell || new == operand);
            }
        }
    });
}

/// The pass planner always produces passes that (a) cover every instruction
/// exactly once, in order, (b) never decrease the stage within a pass and
/// (c) never touch the same register array twice within a pass — the Tofino
/// memory-model constraints of §2.3 / Table 1.
#[test]
fn pass_planner_respects_tofino_constraints() {
    check("pass_planner_respects_tofino_constraints", |rng| {
        let n = rng.gen_range(20) as usize;
        let instructions: Vec<Instruction> = (0..n).map(|_| Instruction::read(rand_slot(rng))).collect();
        let passes = plan_passes(&instructions);
        // Coverage in order.
        let mut covered = Vec::new();
        for pass in &passes {
            assert!(!pass.is_empty());
            covered.extend(pass.clone());
        }
        assert_eq!(covered, (0..instructions.len()).collect::<Vec<_>>());
        // Per-pass constraints.
        for pass in &passes {
            let mut last_stage = -1i32;
            let mut touched = Vec::new();
            for idx in pass.clone() {
                let slot = instructions[idx].slot;
                assert!(slot.stage as i32 >= last_stage, "stage order violated");
                assert!(!touched.contains(&(slot.stage, slot.array)), "register array reused in a pass");
                last_stage = slot.stage as i32;
                touched.push((slot.stage, slot.array));
            }
        }
    });
}

/// Any layout produced by any strategy respects the per-array capacity and
/// places every hot tuple exactly once.
#[test]
fn layouts_respect_capacity() {
    check("layouts_respect_capacity", |rng| {
        let n = 1 + rng.gen_range(199) as usize;
        let seed = rng.next_u64();
        let tuples: Vec<TupleId> = (0..n as u64).map(|k| TupleId::new(TableId(0), k)).collect();
        let traces: Vec<TxnTrace> = (0..64)
            .map(|_| TxnTrace::new((0..4).map(|_| TraceAccess::read(tuples[rng.pick(tuples.len())])).collect()))
            .collect();
        let strategy = match rng.gen_range(4) {
            0 => LayoutStrategy::Declustered,
            1 => LayoutStrategy::Random { seed },
            2 => LayoutStrategy::Worst,
            _ => LayoutStrategy::Hashed,
        };
        let planner = LayoutPlanner::new(5, 2, 32); // 10 arrays x 32 = 320 >= 200
        let layout = planner.plan(&tuples, &traces, strategy);
        assert_eq!(layout.len(), n);
        for (_, count) in layout.occupancy() {
            assert!(count <= 32, "array over capacity: {count}");
        }
        // The single-pass fraction is a fraction.
        let frac = single_pass_fraction(&layout, &traces);
        assert!((0.0..=1.0).contains(&frac));
    });
}

/// The host lock table never grants incompatible locks simultaneously,
/// regardless of the request sequence, and releasing everything leaves it
/// empty.
#[test]
fn lock_table_compatibility() {
    check("lock_table_compatibility", |rng| {
        let table = LockTable::new();
        let n_ops = 1 + rng.gen_range(59);
        // Track which (txn, tuple, exclusive) grants are outstanding.
        let mut granted: Vec<(TxnId, TupleId, bool)> = Vec::new();
        for _ in 0..n_ops {
            let txn_seq = rng.gen_range(6) as u32;
            let key = rng.gen_range(4);
            let exclusive = rng.gen_bool(0.5);
            let txn = TxnId::compose(txn_seq, NodeId(0), WorkerId(txn_seq as u16));
            let tuple = TupleId::new(TableId(0), key);
            let mode = if exclusive { LockMode::Exclusive } else { LockMode::Shared };
            if table.acquire(txn, tuple, mode, CcScheme::NoWait).is_ok() {
                // Compatibility: no other txn may hold an exclusive lock, and
                // if we got exclusive, nobody else may hold anything.
                for (other_txn, other_tuple, other_ex) in &granted {
                    if *other_tuple == tuple && *other_txn != txn {
                        assert!(!(*other_ex || exclusive), "incompatible grant: {exclusive} vs existing {other_ex}");
                    }
                }
                granted.retain(|(t, tu, _)| !(*t == txn && *tu == tuple));
                granted.push((txn, tuple, exclusive));
            }
        }
        for (txn, tuple, _) in &granted {
            table.release(*txn, *tuple);
        }
        assert_eq!(table.locked_count(), 0);
    });
}

/// One pseudo-random record of any of the five shapes, for transaction
/// sequence number `s`.
fn random_record(rng: &mut FastRng, s: u64) -> LogRecord {
    let txn = TxnId::compose(s as u32, NodeId(0), WorkerId(0));
    let tuple = TupleId::new(TableId(rng.gen_range(3) as u16), rng.gen_range(1_000));
    match rng.gen_range(5) {
        0 => LogRecord::ColdWrite {
            txn,
            tuple,
            before: Value::scalar(rng.next_u64() % 1_000),
            after: Value::scalar(rng.next_u64() % 1_000),
        },
        1 => {
            let ops = (0..1 + rng.gen_range(3))
                .map(|i| LoggedSwitchOp {
                    tuple: TupleId::new(tuple.table, tuple.key + i),
                    op: OpCode::Add,
                    operand: rng.gen_range(50),
                    operand_from: (i > 0 && rng.gen_bool(0.3)).then_some(0),
                })
                .collect();
            LogRecord::SwitchIntent { txn, ops }
        }
        2 => LogRecord::SwitchResult {
            txn,
            gid: GlobalTxnId(rng.gen_range(100)),
            results: vec![(tuple, rng.next_u64() % 500)],
        },
        3 => LogRecord::Commit { txn },
        _ => LogRecord::Abort { txn },
    }
}

/// Builds a WAL with a pseudo-random mix of all record types, so truncation
/// sweeps cover every encoding shape.
fn random_wal(rng: &mut FastRng) -> Wal {
    let wal = Wal::new();
    for s in 0..2 + rng.gen_range(8) {
        wal.append(random_record(rng, s));
    }
    wal
}

/// The log's only representation is its segment bytes, written at append:
/// whatever mix of `append` / `append_group` wrote a record stream, at any
/// segment capacity, the segments are byte-identical to encoding the stream
/// chunk-wise, every LSN suffix decodes to exactly that suffix (both sides
/// of every segment boundary, and past the end), and the bytes rebuild the
/// same log at a different capacity.
#[test]
fn wal_segments_are_the_chunkwise_encoding_of_the_appended_stream() {
    check("wal_segments_are_the_chunkwise_encoding_of_the_appended_stream", |rng| {
        let stream: Vec<LogRecord> = (0..rng.gen_range(40)).map(|s| random_record(rng, s)).collect();
        for capacity in [1usize, 2, 7, 512] {
            let wal = Wal::with_segment_capacity(capacity);
            let mut at = 0;
            while at < stream.len() {
                if rng.gen_bool(0.5) {
                    assert_eq!(wal.append(stream[at].clone()), at as u64);
                    at += 1;
                } else {
                    // Groups of 0..=9 records: empty ones, and ones that
                    // straddle one or several segment boundaries.
                    let end = (at + rng.gen_range(10) as usize).min(stream.len());
                    let first = wal.append_group(stream[at..end].to_vec());
                    assert_eq!(first, (end > at).then_some(at as u64), "group {at}..{end}");
                    at = end;
                }
            }
            assert_eq!(wal.len(), stream.len());

            let blobs = wal.serialize_segments();
            let expected: Vec<Vec<u8>> =
                stream.chunks(capacity).enumerate().map(|(i, c)| encode_segment((i * capacity) as u64, c)).collect();
            assert_eq!(blobs.len(), expected.len(), "capacity {capacity}");
            for (i, (blob, want)) in blobs.iter().zip(&expected).enumerate() {
                assert_eq!(blob.as_slice(), want.as_slice(), "capacity {capacity}, segment {i}");
            }

            assert_eq!(wal.records(), stream);
            for lsn in 0..=stream.len() + 2 {
                let want = &stream[lsn.min(stream.len())..];
                assert_eq!(wal.records_from(lsn as u64), want, "capacity {capacity}, lsn {lsn}");
            }

            let other = if capacity == 7 { 3 } else { 7 };
            let (decoded, torn) = decode_segments(&expected).expect("clean segments decode");
            assert!(torn.is_none());
            assert_eq!(decoded, stream);
            let rebuilt = Wal::with_segment_capacity(other);
            rebuilt.append_group(decoded);
            let rebuilt_blobs = rebuilt.serialize_segments();
            assert_eq!(rebuilt_blobs.len(), stream.len().div_ceil(other));
            for (i, (blob, chunk)) in rebuilt_blobs.iter().zip(stream.chunks(other)).enumerate() {
                assert_eq!(**blob, encode_segment((i * other) as u64, chunk), "rebuilt at {other}, segment {i}");
            }
        }
    });
}

/// Rebuilds `wal` from its segments with the final segment cut at *every*
/// byte offset, and checks that recovery keeps exactly the sealed segments'
/// records plus the final segment's intact record prefix, with a torn-tail
/// note iff the cut lands strictly inside a header or record frame.
fn assert_torn_tail_recovers_the_intact_prefix(wal: &Wal, records: &[LogRecord]) {
    let capacity = wal.segment_capacity();
    let blobs: Vec<Vec<u8>> = wal.serialize_segments().iter().map(|blob| blob.to_vec()).collect();
    let (last, sealed) = blobs.split_last().expect("a non-empty log has a segment");
    let sealed_records = sealed.len() * capacity;
    let tail = &records[sealed_records..];
    let base = sealed_records as u64;
    // boundary[i] = encoded length of the final segment's first i records
    // (boundary[0] covers just the header).
    let boundaries: Vec<usize> = (0..=tail.len()).map(|i| encode_segment(base, &tail[..i]).len()).collect();
    assert_eq!(*boundaries.last().unwrap(), last.len());
    for cut in 0..=last.len() {
        let mut torn_blobs = sealed.to_vec();
        torn_blobs.push(last[..cut].to_vec());
        let (rebuilt, torn) =
            decode_segments(&torn_blobs).expect("a truncation is a torn tail, not interior corruption");
        let intact = boundaries.iter().skip(1).filter(|&&end| cut >= end).count();
        assert_eq!(
            rebuilt,
            records[..sealed_records + intact].to_vec(),
            "cut at byte {cut}/{} of the final segment",
            last.len()
        );
        assert_eq!(torn.is_none(), boundaries.contains(&cut), "cut at byte {cut}: torn={torn:?}");
    }
}

/// Truncating a log's final segment at *every* byte offset recovers exactly
/// the records whose frames are fully intact before the cut — never fewer,
/// never a corrupted extra one. This is the crash-mid-flush contract
/// `decode_segments` gives recovery.
#[test]
fn wal_truncation_at_every_offset_recovers_exactly_the_intact_prefix() {
    check("wal_truncation_at_every_offset_recovers_exactly_the_intact_prefix", |rng| {
        let records = random_wal(rng).records();
        let wal = Wal::with_segment_capacity(1 + rng.gen_range(4) as usize);
        for record in &records {
            wal.append(record.clone());
        }
        assert_torn_tail_recovers_the_intact_prefix(&wal, &records);
    });
}

/// `Wal::append_group` preserves the torn-tail contract: a log written in
/// groups (some straddling segment boundaries) has segments byte-identical
/// to the same records appended singly, and cutting its final segment at
/// every offset still recovers exactly the intact record prefix.
#[test]
fn wal_append_group_torn_tail_recovers_exactly_the_intact_prefix() {
    check("wal_append_group_torn_tail_recovers_exactly_the_intact_prefix", |rng| {
        let records = random_wal(rng).records();
        let capacity = 1 + rng.gen_range(4) as usize;
        let singles = Wal::with_segment_capacity(capacity);
        for record in &records {
            singles.append(record.clone());
        }
        let grouped = Wal::with_segment_capacity(capacity);
        let mut rest = records.as_slice();
        while !rest.is_empty() {
            let take = (1 + rng.gen_range(4) as usize).min(rest.len());
            grouped.append_group(rest[..take].to_vec());
            rest = &rest[take..];
        }
        assert_eq!(
            grouped.serialize_segments(),
            singles.serialize_segments(),
            "group-written log must encode identically"
        );
        assert_torn_tail_recovers_the_intact_prefix(&grouped, &records);
    });
}

/// The frame-batch wire codec round-trips at **every** split point: encoding
/// a batch of k envelopes and truncating the bytes at any boundary decodes
/// exactly the intact envelope prefix — never fewer, never a corrupted extra
/// one — with an error reported iff the cut tears a record or the header.
/// This is the mirror of the segment truncation property for the fabric's
/// frame batching.
#[test]
fn frame_codec_truncation_at_every_offset_recovers_exactly_the_intact_prefix() {
    check("frame_codec_truncation_at_every_offset_recovers_exactly_the_intact_prefix", |rng| {
        let k = 1 + rng.gen_range(6) as usize;
        let envelopes: Vec<Envelope<Vec<u8>>> = (0..k)
            .map(|_| {
                let src = match rng.gen_range(3) {
                    0 => EndpointId::Node(NodeId(rng.gen_range(4) as u16)),
                    1 => EndpointId::Worker(NodeId(rng.gen_range(4) as u16), WorkerId(rng.gen_range(8) as u16)),
                    _ => EndpointId::Switch(SwitchId(0)),
                };
                let payload: Vec<u8> = (0..rng.gen_range(24)).map(|_| rng.next_u64() as u8).collect();
                Envelope::new(src, EndpointId::Switch(SwitchId(0)), payload)
            })
            .collect();
        let bytes = encode_frame(&envelopes);
        // Record boundaries: boundary[i] = encoded length of the first i
        // envelopes (boundary[0] covers just the header).
        let boundaries: Vec<usize> = (0..=k).map(|i| encode_frame(&envelopes[..i]).len()).collect();
        for cut in 0..=bytes.len() {
            let (prefix, error) = decode_frame_prefix(&bytes[..cut]);
            let intact = boundaries.iter().skip(1).filter(|&&end| cut >= end).count();
            assert_eq!(prefix, envelopes[..intact].to_vec(), "cut at byte {cut}/{}", bytes.len());
            // An error iff the cut strictly tears the header or a record.
            let expect_error = cut != 0 && boundaries.iter().all(|&end| cut != end);
            assert_eq!(error.is_some(), expect_error, "cut at byte {cut}: {error:?}");
        }
    });
}

/// The binary segment codec holds the WAL's every-byte-offset truncation
/// contract: cutting a segment at *any* byte recovers
/// exactly the records whose frames are fully intact before the cut — never
/// fewer, never a corrupted extra one — with a torn-tail note iff the cut
/// strictly tears the header or a record frame.
#[test]
fn segment_truncation_at_every_offset_recovers_exactly_the_intact_prefix() {
    check("segment_truncation_at_every_offset_recovers_exactly_the_intact_prefix", |rng| {
        let wal = random_wal(rng);
        let records = wal.records();
        let base = rng.gen_range(1000);
        let bytes = encode_segment(base, &records);
        // boundary[i] = encoded length of the first i records (boundary[0]
        // covers just the header).
        let boundaries: Vec<usize> = (0..=records.len()).map(|i| encode_segment(base, &records[..i]).len()).collect();
        for cut in 0..=bytes.len() {
            let prefix =
                decode_segment_prefix(&bytes[..cut]).expect("a truncation is a torn tail, not interior corruption");
            let intact = boundaries.iter().skip(1).filter(|&&end| cut >= end).count();
            assert_eq!(prefix.records, records[..intact].to_vec(), "cut at byte {cut}/{}", bytes.len());
            // The base LSN survives iff the 13-byte header is intact.
            assert_eq!(prefix.base_lsn.is_some(), cut >= boundaries[0], "cut at byte {cut}");
            // A tear is reported iff the cut lands strictly inside the
            // header or a record frame.
            let at_boundary = boundaries.contains(&cut);
            assert_eq!(prefix.torn.is_none(), at_boundary, "cut at byte {cut}: torn={:?}", prefix.torn);
        }

        // Interior corruption — a bit flip in any non-final record with
        // intact frames after it — must be a hard error, never a silent
        // truncation. (Flipping inside the *final* record is the torn tail
        // the sweep above already covers.)
        if records.len() >= 2 {
            let mut corrupt = bytes.clone();
            // A byte inside the first record's frame, past the header.
            let offset = boundaries[0] + rng.gen_range((boundaries[1] - boundaries[0]) as u64) as usize;
            corrupt[offset] ^= 0x01;
            match decode_segment_prefix(&corrupt) {
                Err(err) => assert!(
                    err.message.contains("interior corruption") || err.message.contains("record"),
                    "unexpected error shape: {err}"
                ),
                // A flip in a length field can masquerade as a longer/shorter
                // frame; the checksum of the *following* bytes then fails
                // either as interior corruption (Err) or — when the bogus
                // length reaches past the buffer end — as a tear. Both are
                // detected; what must never happen is a clean decode of
                // different records.
                Ok(prefix) => {
                    assert!(
                        prefix.torn.is_some() || prefix.records != records,
                        "a corrupted segment decoded cleanly to the original records with no tear note"
                    );
                    assert!(
                        records.starts_with(&prefix.records) || prefix.torn.is_some(),
                        "corruption silently rewrote decoded records"
                    );
                }
            }
        }
    });
}

/// Same seed + same conflict graph ⇒ byte-identical max-cut partitioning and
/// declustered layout, across repeated runs with freshly built graphs
/// (exercising `HashMap` iteration-order independence).
#[test]
fn maxcut_and_declustered_layout_are_deterministic_per_seed() {
    check("maxcut_and_declustered_layout_are_deterministic_per_seed", |rng| {
        let n_tuples = 4 + rng.gen_range(60);
        let traces: Vec<TxnTrace> = (0..48)
            .map(|_| {
                TxnTrace::new(
                    (0..2 + rng.gen_range(3))
                        .map(|i| {
                            let t = TupleId::new(TableId(0), rng.gen_range(n_tuples));
                            if i > 0 && rng.gen_bool(0.25) {
                                TraceAccess::dependent_write(t)
                            } else {
                                TraceAccess::read(t)
                            }
                        })
                        .collect(),
                )
            })
            .collect();
        let seed = rng.next_u64();

        // Fresh graphs per run: HashMap iteration order differs, results
        // must not.
        let first = max_cut(&AccessGraph::from_traces(&traces), 4, n_tuples as usize, seed);
        let second = max_cut(&AccessGraph::from_traces(&traces), 4, n_tuples as usize, seed);
        assert_eq!(first.partition_of, second.partition_of, "max-cut diverged for seed {seed:#x}");
        assert_eq!(first.cut_weight, second.cut_weight);

        let tuples: Vec<TupleId> = (0..n_tuples).map(|k| TupleId::new(TableId(0), k)).collect();
        let planner = LayoutPlanner::new(5, 2, 64);
        let mut layouts = Vec::new();
        for _ in 0..2 {
            let layout = planner.plan(&tuples, &traces, LayoutStrategy::Declustered);
            let mut placed: Vec<_> = layout.iter().collect();
            placed.sort_by_key(|(t, _)| (t.table.0, t.key));
            layouts.push(placed);
        }
        assert_eq!(layouts[0], layouts[1], "declustered layout diverged");
    });
}

/// Switch recovery replays completed transactions to exactly the state the
/// switch had, for arbitrary interleavings of Add operations across two node
/// logs.
#[test]
fn recovery_replay_matches_live_execution() {
    check("recovery_replay_matches_live_execution", |rng| {
        let n_txns = 1 + rng.gen_range(39) as usize;
        let deltas: Vec<(u64, u64, bool)> =
            (0..n_txns).map(|_| (rng.gen_range(4), 1 + rng.gen_range(99), rng.gen_bool(0.5))).collect();
        let tuple = |k: u64| TupleId::new(TableId(0), k);
        let initial: HashMap<TupleId, u64> = (0..4u64).map(|k| (tuple(k), 1_000)).collect();
        let node0 = Wal::new();
        let node1 = Wal::new();
        // "Live" switch execution: apply in order, assigning dense GIDs, and
        // log each transaction to one of the two node logs.
        let mut live = initial.clone();
        for (gid, (key, delta, on_node0)) in deltas.iter().enumerate() {
            let t = tuple(*key);
            let new = live[&t] + delta;
            live.insert(t, new);
            let wal = if *on_node0 { &node0 } else { &node1 };
            let txn = TxnId::compose(gid as u32, NodeId(!*on_node0 as u16), WorkerId(0));
            let ops = vec![LoggedSwitchOp { tuple: t, op: OpCode::Add, operand: *delta, operand_from: None }];
            wal.append(LogRecord::SwitchIntent { txn, ops });
            wal.append(LogRecord::SwitchResult { txn, gid: GlobalTxnId(gid as u64), results: vec![(t, new)] });
        }
        let outcome = recover_switch_state(&initial, &[node0.records(), node1.records()]);
        assert_eq!(outcome.inconsistencies, 0);
        for (t, v) in live {
            assert_eq!(outcome.values.get(&t).copied().unwrap_or(initial[&t]), v);
        }
    });
}
