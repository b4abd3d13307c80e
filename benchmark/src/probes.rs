//! The layer probes: calls into each crate's public functions on
//! stand-alone components, timed from outside. The storage and layout
//! probes run on the workload's own tuples; the rest do not depend on the
//! workload. The caller pins the process to one CPU (see `affinity`), which
//! the probes that hand off between two threads inherit.

use crate::spec::NODES;
use p4db::common::channel::unbounded;
use p4db::common::rand_util::FastRng;
use p4db::common::{LatencyConfig, TxnId, Value, WorkerId};
use p4db::layout::{single_pass_fraction, LayoutPlanner, LayoutStrategy};
use p4db::net::{
    decode_frame, encode_frame, BatchRecvOutcome, EndpointId, Envelope, Fabric, LatencyModel, RecvOutcome,
};
use p4db::storage::{
    decode_segments, encode_segment, take_fuzzy_checkpoint, LockMode, LockTable, LogRecord, NodeStorage, RowHandle, Wal,
};
use p4db::switch::{
    plan_passes, start_switch, ControlPlane, Instruction, RegisterMemory, RegisterSlot, SwitchConfig, SwitchMessage,
    SwitchTxn, TxnHeader,
};
use p4db::txn::{build_switch_txn, HotSetIndex, TxnOp};
use p4db::{CcScheme, NodeId, OpKind, SwitchId, TableId, TupleId, Workload};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Median nanoseconds per call over three repetitions of `iters` calls.
fn ns_per_call(iters: u64, mut f: impl FnMut(u64)) -> f64 {
    let mut runs = [0.0; 3];
    for (rep, run) in runs.iter_mut().enumerate() {
        let start = Instant::now();
        for i in 0..iters {
            f(rep as u64 * iters + i);
        }
        *run = start.elapsed().as_nanos() as f64 / iters as f64;
    }
    runs.sort_by(f64::total_cmp);
    runs[1]
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

fn txn_id(i: u64) -> TxnId {
    TxnId::compose(i as u32, NodeId(0), WorkerId(0))
}

/// Appends `(metric name, value)` pairs of every probe.
pub fn run(workload: &Arc<dyn Workload>, seed: u64, out: &mut Vec<(&'static str, f64)>) {
    storage_probes(workload.as_ref(), seed, out);
    layout_probes(workload.as_ref(), seed, out);
    common_probes(out);
    net_probes(out);
    switch_probes(out);
    txn_probes(out);
}

/// Loads node 0's partition into a stand-alone `NodeStorage` and probes the
/// lock table, row store, version chains, WAL, segment codec and checkpoint
/// on a random sample of the workload's own tuples.
fn storage_probes(workload: &dyn Workload, seed: u64, out: &mut Vec<(&'static str, f64)>) {
    let storage = NodeStorage::new(NodeId(0), workload.tables());
    let loading = Instant::now();
    workload.load_node(&storage, NODES);
    out.push(("workloads.load_node_ms", ms_since(loading)));

    // At most 64k tuples, evenly thinned, in random order.
    const SAMPLE: usize = 1 << 16;
    let stride = storage.total_rows().div_ceil(SAMPLE).max(1);
    let mut tuples: Vec<TupleId> = Vec::with_capacity(SAMPLE);
    let mut seen = 0usize;
    for table in storage.tables() {
        table.for_each(|key, _| {
            if seen.is_multiple_of(stride) {
                tuples.push(TupleId::new(table.id(), key));
            }
            seen += 1;
        });
    }
    let mut rng = FastRng::new(seed ^ 0x5A17);
    for i in (1..tuples.len()).rev() {
        tuples.swap(i, rng.pick(i + 1));
    }
    let n = tuples.len() as u64;
    let tuple = |i: u64| tuples[(i % n) as usize];

    let locks = LockTable::new();
    out.push((
        "storage.locks.acquire_release_ns",
        ns_per_call(200_000, |i| {
            let (txn, t) = (txn_id(i), tuple(i));
            locks.acquire(txn, t, LockMode::Exclusive, CcScheme::NoWait).expect("uncontended lock");
            locks.release(txn, t);
        }),
    ));

    let table_of = |id: TableId| storage.table(id).expect("sampled table exists");
    let tables: Vec<_> = tuples.iter().map(|t| table_of(t.table)).collect();
    out.push((
        "storage.table.get_ns",
        ns_per_call(200_000, |i| {
            let at = (i % n) as usize;
            black_box(tables[at].get(tuples[at].key));
        }),
    ));

    let rows: Vec<RowHandle> =
        tuples.iter().map(|t| table_of(t.table).get(t.key).expect("sampled row exists")).collect();
    // Timestamps rise with `i`, so every row's chain stays in order; each
    // row ends up with about nine versions.
    out.push((
        "storage.table.install_version_ns",
        ns_per_call(200_000, |i| {
            black_box(rows[(i % n) as usize].install_version(i + 1, i));
        }),
    ));
    out.push((
        "storage.table.read_at_ns",
        ns_per_call(200_000, |i| {
            black_box(rows[(i % n) as usize].read_at(300_000 + i));
        }),
    ));

    let cold_write = |i: u64| LogRecord::ColdWrite {
        txn: txn_id(i),
        tuple: tuple(i),
        before: Value::scalar(i),
        after: Value::scalar(i + 1),
    };
    let wal = Wal::new();
    out.push((
        "storage.wal.append_ns",
        ns_per_call(100_000, |i| {
            wal.append(cold_write(i));
        }),
    ));
    drop(wal);
    let wal = Wal::new();
    out.push((
        "storage.wal.append_group_ns_per_rec",
        ns_per_call(100_000 / 16, |g| {
            wal.append_group((0..16).map(|k| cold_write(g * 16 + k)));
        }) / 16.0,
    ));
    drop(wal);

    // One segment's worth of the record mix a host transaction logs.
    let group: Vec<LogRecord> = (0..512u64)
        .map(|i| match i % 3 {
            0 | 1 => cold_write(i),
            _ => LogRecord::Commit { txn: txn_id(i) },
        })
        .collect();
    let blob = encode_segment(0, &group);
    out.push((
        "storage.segment.encode_ns_per_rec",
        ns_per_call(400, |_| {
            black_box(encode_segment(0, &group));
        }) / group.len() as f64,
    ));
    out.push((
        "storage.segment.decode_ns_per_rec",
        ns_per_call(400, |_| {
            black_box(decode_segments(&[&blob]).expect("segment decodes"));
        }) / group.len() as f64,
    ));

    let taking = Instant::now();
    black_box(take_fuzzy_checkpoint(&storage, &[storage.wal()], 1));
    out.push(("storage.checkpoint.take_ms", ms_since(taking)));
}

/// Plans the declustered layout of the workload's hot set from its own
/// representative traces, as `Cluster::build` does.
fn layout_probes(workload: &dyn Workload, seed: u64, out: &mut Vec<(&'static str, f64)>) {
    let config = SwitchConfig::tofino_defaults();
    let hot: Vec<TupleId> = workload.hot_tuples(NODES).iter().map(|h| h.tuple).collect();
    let traces = workload.layout_traces(NODES, &mut FastRng::new(seed ^ 0xFEED));
    let planner = LayoutPlanner::new(config.num_stages, config.arrays_per_stage, config.slots_per_array);
    let planning = Instant::now();
    let layout = planner.plan(&hot, &traces, LayoutStrategy::Declustered);
    out.push(("layout.plan_ms", ms_since(planning)));
    out.push(("layout.single_pass_fraction", single_pass_fraction(&layout, &traces)));
}

fn common_probes(out: &mut Vec<(&'static str, f64)>) {
    let (tx, rx) = unbounded::<u64>();
    out.push((
        "common.channel.send_ns",
        ns_per_call(500_000, |i| {
            tx.send(i).expect("receiver alive");
            black_box(rx.try_recv().expect("message queued"));
        }),
    ));

    // One blocking hand-off between two threads: half a ping-pong.
    let (ping_tx, ping_rx) = unbounded::<u64>();
    let (pong_tx, pong_rx) = unbounded::<u64>();
    let echo = std::thread::spawn(move || {
        while let Ok(v) = ping_rx.recv() {
            if pong_tx.send(v).is_err() {
                break;
            }
        }
    });
    let round_trip = ns_per_call(10_000, |i| {
        ping_tx.send(i).expect("echo thread alive");
        black_box(pong_rx.recv().expect("echo thread alive"));
    });
    drop(ping_tx);
    echo.join().expect("echo thread");
    out.push(("common.channel.handoff_us", round_trip / 2.0 / 1e3));
}

fn net_probes(out: &mut Vec<(&'static str, f64)>) {
    let fabric: Fabric<u64> = Fabric::new(LatencyModel::new(LatencyConfig::zero()));
    let (a, b) = (EndpointId::Worker(NodeId(0), WorkerId(0)), EndpointId::Worker(NodeId(1), WorkerId(1)));
    let mailbox_a = fabric.register(a);
    let mailbox_b = fabric.register(b);

    out.push((
        "net.fabric.send_frame_ns_per_msg",
        ns_per_call(20_000, |i| {
            assert!(fabric.send_frame(a, b, (0..16).map(|k| i + k).collect()));
            black_box(mailbox_b.drain_batch(16));
        }) / 16.0,
    ));

    let echo = {
        let fabric = fabric.clone();
        std::thread::spawn(move || {
            while let RecvOutcome::Msg(env) = mailbox_b.recv_timeout(Duration::from_secs(5)) {
                if env.payload == u64::MAX || !fabric.send(b, a, env.payload) {
                    break;
                }
            }
        })
    };
    let round_trip = ns_per_call(10_000, |i| {
        assert!(fabric.send(a, b, i));
        assert!(matches!(mailbox_a.recv_timeout(Duration::from_secs(5)), RecvOutcome::Msg(_)), "echo thread alive");
    });
    fabric.send(a, b, u64::MAX);
    echo.join().expect("echo thread");
    out.push(("net.fabric.pingpong_us", round_trip / 2.0 / 1e3));

    // A frame of 16 envelopes with 64-byte payloads, the size of an 8-op
    // switch transaction on the wire.
    let envelopes: Vec<Envelope<Vec<u8>>> = (0..16u8).map(|k| Envelope::new(a, b, vec![k; 64])).collect();
    let bytes = encode_frame(&envelopes);
    out.push((
        "net.frame.encode_ns_per_msg",
        ns_per_call(20_000, |_| {
            black_box(encode_frame(&envelopes));
        }) / 16.0,
    ));
    out.push((
        "net.frame.decode_ns_per_msg",
        ns_per_call(20_000, |_| {
            black_box(decode_frame(&bytes).expect("frame decodes"));
        }) / 16.0,
    ));
}

/// An 8-op single-pass transaction: one `add` per stage, as in the repo's
/// `benches/micro.rs`.
fn single_pass_txn(origin: EndpointId, i: u64) -> SwitchTxn {
    SwitchTxn::new(TxnHeader::new(origin, i), single_pass_instructions(i))
}

fn single_pass_instructions(i: u64) -> Vec<Instruction> {
    (0..8u8).map(|s| Instruction::add(RegisterSlot::new(s, (i % 4) as u8, (i % 1024) as u32), 1)).collect()
}

/// A stand-alone switch with zero pass latency.
fn switch_probes(out: &mut Vec<(&'static str, f64)>) {
    let origin = EndpointId::Worker(NodeId(0), WorkerId(0));
    let to_switch = EndpointId::Switch(SwitchId(0));
    let replies = |envs: &[Envelope<SwitchMessage>]| {
        envs.iter().filter(|e| matches!(e.payload, SwitchMessage::TxnReply(_))).count() as u64
    };

    // Closed loop, one transaction in flight, unbatched.
    {
        let config = SwitchConfig { pass_latency_ns: 0, ..SwitchConfig::tofino_defaults() };
        let fabric: Fabric<SwitchMessage> = Fabric::new(LatencyModel::new(LatencyConfig::zero()));
        let handle = start_switch(config, Arc::new(RegisterMemory::new(config)), fabric.clone());
        let mailbox = fabric.register(origin);
        let round_trip = ns_per_call(10_000, |i| {
            assert!(fabric.send(origin, to_switch, SwitchMessage::Txn(single_pass_txn(origin, i))));
            loop {
                match mailbox.recv_timeout(Duration::from_secs(5)) {
                    RecvOutcome::Msg(env) if matches!(env.payload, SwitchMessage::TxnReply(_)) => break,
                    RecvOutcome::Msg(_) => {}
                    _ => panic!("switch probe: no reply within 5 s"),
                }
            }
        });
        handle.shutdown();
        out.push(("switch.roundtrip_us", round_trip / 1e3));
    }

    // Frames of 16 with a window of 128 in flight, like the executor's
    // pipelined hot path.
    {
        let config = SwitchConfig { pass_latency_ns: 0, batch_size: 16, ..SwitchConfig::tofino_defaults() };
        let fabric: Fabric<SwitchMessage> = Fabric::new(LatencyModel::new(LatencyConfig::zero()));
        let handle = start_switch(config, Arc::new(RegisterMemory::new(config)), fabric.clone());
        let mailbox = fabric.register(origin);
        let (total, window) = (48_000u64, 128u64);
        let send = |from: u64, count: u64| {
            let frame = (from..from + count).map(|i| SwitchMessage::Txn(single_pass_txn(origin, i))).collect();
            assert!(fabric.send_frame(origin, to_switch, frame), "switch ingress gone");
        };
        let start = Instant::now();
        let (mut sent, mut done) = (0, 0);
        while sent < window {
            send(sent, 16);
            sent += 16;
        }
        while done < total {
            let BatchRecvOutcome::Frame(envs) = mailbox.recv_batch_timeout(Duration::from_secs(5), window as usize)
            else {
                panic!("switch probe: no reply frame within 5 s");
            };
            done += replies(&envs);
            while sent < total && sent - done + 16 <= window {
                send(sent, 16);
                sent += 16;
            }
        }
        out.push(("switch.frame16_ns_per_txn", start.elapsed().as_nanos() as f64 / total as f64));
        handle.shutdown();
    }

    let config = SwitchConfig::tofino_defaults();
    let memory = RegisterMemory::new(config);
    out.push((
        "switch.memory.execute_ns",
        ns_per_call(500_000, |i| {
            let slot = RegisterSlot::new((i % 8) as u8, (i % 4) as u8, (i % 1024) as u32);
            black_box(memory.execute(&Instruction::add(slot, 1)));
        }),
    ));
    let instructions: Vec<Vec<Instruction>> = (0..64).map(single_pass_instructions).collect();
    out.push((
        "switch.plan_passes_ns",
        ns_per_call(200_000, |i| {
            black_box(plan_passes(&instructions[(i % 64) as usize]));
        }),
    ));
}

/// Node-side packet construction against a stand-alone control plane
/// holding 1024 tuples per stage.
fn txn_probes(out: &mut Vec<(&'static str, f64)>) {
    let config = SwitchConfig::tofino_defaults();
    let mut control_plane = ControlPlane::new(config, Arc::new(RegisterMemory::new(config)));
    let tuple = |stage: u64, k: u64| TupleId::new(TableId(0), stage * 1024 + k);
    for stage in 0..8 {
        for k in 0..1024 {
            control_plane.offload_into(tuple(stage, k), stage as u8, (k % 4) as u8, 8, 0).expect("register space");
        }
    }
    let index = HotSetIndex::from_control_plane(&control_plane);
    out.push((
        "txn.hotset.lookup_ns",
        ns_per_call(500_000, |i| {
            black_box(index.slot(tuple(i % 8, i.wrapping_mul(2_654_435_761) % 1024)));
        }),
    ));

    let origin = EndpointId::Worker(NodeId(0), WorkerId(0));
    out.push((
        "txn.build_switch_txn_ns",
        ns_per_call(100_000, |i| {
            let k = i.wrapping_mul(2_654_435_761) % 1024;
            let ops: Vec<(usize, TxnOp)> =
                (0..8).map(|stage| (stage as usize, TxnOp::new(tuple(stage, k), OpKind::Add(1), NodeId(0)))).collect();
            black_box(build_switch_txn(&ops, &index, &config, TxnHeader::new(origin, i)).expect("hot ops build"));
        }),
    ));
}
