//! Supporting microbenchmarks (not figures from the paper): raw component
//! throughput of the switch pipeline (batched and unbatched), the host lock
//! manager, the max-cut heuristic and the WAL (single appends and group
//! commit). Used to sanity-check that the substrates are far from being the
//! bottleneck of the figure reproduction, and to pin the batched-vs-unbatched
//! hot-path speedup as a machine-readable datapoint in `BENCH_23.json`
//! (figure `micro`), which the CI gate tripwires.
//!
//! Knobs: `P4DB_MICRO_QUICK=1` shrinks iteration counts ~10× (the CI smoke
//! profile); `P4DB_BENCH_JSON` overrides the output path.

use p4db_common::rand_util::FastRng;
use p4db_common::{CcScheme, LatencyConfig, NodeId, SwitchId, TableId, TupleId, TxnId, WorkerId};
use p4db_core::BenchPoint;
use p4db_layout::{max_cut, AccessGraph, TraceAccess, TxnTrace};
use p4db_net::{BatchRecvOutcome, EndpointId, Fabric, LatencyModel, RecvOutcome};
use p4db_storage::{LockMode, LockTable, LogRecord, Wal};
use p4db_switch::{
    start_switch, Instruction, RegisterMemory, RegisterSlot, SwitchConfig, SwitchMessage, SwitchTxn, TxnHeader,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Iteration count, shrunk by `P4DB_MICRO_QUICK=1` for the CI smoke profile.
fn scaled(iters: u64) -> u64 {
    if std::env::var("P4DB_MICRO_QUICK").as_deref() == Ok("1") {
        (iters / 10).max(1_000)
    } else {
        iters
    }
}

/// Runs `f` `iters` times, prints the rate, and returns it (op/s).
fn bench(name: &str, iters: u64, mut f: impl FnMut(u64)) -> f64 {
    let start = Instant::now();
    for i in 0..iters {
        f(i);
    }
    let elapsed = start.elapsed();
    let per_op = elapsed.as_nanos() as f64 / iters as f64;
    let rate = iters as f64 / elapsed.as_secs_f64();
    println!("{name:<48} {iters:>9} iters  {per_op:>10.0} ns/op  {rate:>12.0} op/s");
    rate
}

/// Open-loop throughput of the switch hot path at a given batching degree:
/// a window of 8-op single-pass transactions is kept in flight; sends use
/// frames and receives drain batches when `batch_size > 1`, exactly like the
/// engine's pipelined hot path. Returns committed transactions per second.
fn switch_hot_path_rate(batch_size: u16, total: u64) -> f64 {
    let config = SwitchConfig { pass_latency_ns: 0, batch_size, ..SwitchConfig::tofino_defaults() };
    let fabric: Fabric<SwitchMessage> = Fabric::new(LatencyModel::new(LatencyConfig::zero()));
    let memory = Arc::new(RegisterMemory::new(config));
    let handle = start_switch(config, memory, fabric.clone());
    let ep = EndpointId::Worker(NodeId(0), WorkerId(0));
    let mailbox = fabric.register(ep);

    let txn = |i: u64| {
        let instructions: Vec<_> =
            (0..8u8).map(|s| Instruction::add(RegisterSlot::new(s, (i % 4) as u8, (i % 1024) as u32), 1)).collect();
        SwitchTxn::new(TxnHeader::new(ep, i), instructions)
    };
    let window = 128u64.min(total);
    let send_chunk = |from: u64, count: u64| {
        if batch_size > 1 {
            let frame: Vec<SwitchMessage> = (from..from + count).map(|i| SwitchMessage::Txn(txn(i))).collect();
            assert!(fabric.send_frame(ep, EndpointId::Switch(SwitchId(0)), frame), "switch ingress gone");
        } else {
            for i in from..from + count {
                assert!(
                    fabric.send(ep, EndpointId::Switch(SwitchId(0)), SwitchMessage::Txn(txn(i))),
                    "switch ingress gone"
                );
            }
        }
    };

    let start = Instant::now();
    let mut sent = window;
    let mut done = 0u64;
    send_chunk(0, window);
    while done < total {
        let received = match mailbox.recv_batch_timeout(Duration::from_secs(5), window as usize) {
            BatchRecvOutcome::Frame(envs) => {
                envs.iter().filter(|e| matches!(e.payload, SwitchMessage::TxnReply(_))).count() as u64
            }
            BatchRecvOutcome::TimedOut => {
                panic!("switch hot path bench (batch={batch_size}): no reply within 5s — switch wedged")
            }
            BatchRecvOutcome::Disconnected => {
                panic!("switch hot path bench (batch={batch_size}): switch died (mailbox disconnected)")
            }
        };
        done += received;
        let refill = received.min(total - sent);
        if refill > 0 {
            send_chunk(sent, refill);
            sent += refill;
        }
    }
    let rate = total as f64 / start.elapsed().as_secs_f64();
    handle.shutdown();
    rate
}

/// The batching tripwire: the same open-loop hot path, unbatched vs. frames
/// of 16. The resulting speedup is the `micro` datapoint the CI gate checks,
/// so each arm takes the best of two runs, as `fig_read_mix` does:
/// interference from other processes only ever lowers a rate.
fn switch_hot_path_batched(points: &mut Vec<BenchPoint>) {
    let total = scaled(40_000);
    let best = |batch_size| switch_hot_path_rate(batch_size, total).max(switch_hot_path_rate(batch_size, total));
    let unbatched = best(1);
    let batched = best(16);
    let speedup = batched / unbatched;
    println!(
        "{:<48} {total:>9} txns   unbatched {unbatched:>10.0} txn/s   batch=16 {batched:>10.0} txn/s   {speedup:.2}x",
        "switch hot path: batched vs unbatched"
    );
    points.push(BenchPoint::from_rates("micro", p4db_bench::json::BATCHING_PARAMS, batched, 1e6 / batched, speedup));
}

fn switch_pipeline_throughput(points: &mut Vec<BenchPoint>) {
    let config = SwitchConfig { pass_latency_ns: 0, ..SwitchConfig::tofino_defaults() };
    let fabric: Fabric<SwitchMessage> = Fabric::new(LatencyModel::new(LatencyConfig::zero()));
    let memory = Arc::new(RegisterMemory::new(config));
    let handle = start_switch(config, memory, fabric.clone());
    let ep = EndpointId::Worker(NodeId(0), WorkerId(0));
    let mailbox = fabric.register(ep);
    let rate = bench("switch pipeline: 8-op single-pass txns", scaled(50_000), |i| {
        let instructions: Vec<_> =
            (0..8u8).map(|s| Instruction::add(RegisterSlot::new(s, (i % 4) as u8, (i % 1024) as u32), 1)).collect();
        let txn = SwitchTxn::new(TxnHeader::new(ep, i), instructions);
        fabric.send(ep, EndpointId::Switch(SwitchId(0)), SwitchMessage::Txn(txn));
        loop {
            // A dead or wedged switch must fail the bench loudly, not spin
            // the full timeout once per iteration.
            match mailbox.recv_timeout(Duration::from_secs(5)) {
                RecvOutcome::Msg(env) => {
                    if matches!(env.payload, SwitchMessage::TxnReply(_)) {
                        break;
                    }
                }
                RecvOutcome::TimedOut => {
                    panic!("switch pipeline bench: no reply within 5s — switch wedged or overloaded")
                }
                RecvOutcome::Disconnected => {
                    panic!("switch pipeline bench: switch died mid-run (mailbox disconnected)")
                }
            }
        }
    });
    points.push(BenchPoint::from_rates("micro", "switch pipeline closed-loop", rate, 1e9 / rate / 1e3, 1.0));
    handle.shutdown();
}

fn lock_table_throughput(points: &mut Vec<BenchPoint>) {
    let table = LockTable::new();
    let rate = bench("host lock table: acquire+release", scaled(200_000), |i| {
        let txn = TxnId::compose(i as u32, NodeId(0), WorkerId(0));
        let tuple = TupleId::new(TableId(0), i % 1024);
        table.acquire(txn, tuple, LockMode::Exclusive, CcScheme::NoWait).unwrap();
        table.release(txn, tuple);
    });
    points.push(BenchPoint::from_rates("micro", "host lock table", rate, 1e6 / rate, 1.0));
}

fn maxcut_scaling() {
    let mut rng = FastRng::new(7);
    for n in [100usize, 1_000, 4_000] {
        let traces: Vec<TxnTrace> = (0..n * 4)
            .map(|_| {
                TxnTrace::new(
                    (0..4).map(|_| TraceAccess::read(TupleId::new(TableId(0), rng.gen_range(n as u64)))).collect(),
                )
            })
            .collect();
        let graph = AccessGraph::from_traces(&traces);
        let start = Instant::now();
        let partitioning = max_cut(&graph, 40, n.div_ceil(40) + 1, 1);
        println!(
            "max-cut heuristic: {n:>5} tuples -> cut weight {:>8}, intra {:>6}, {:>8.1} ms",
            partitioning.cut_weight,
            partitioning.intra_weight,
            start.elapsed().as_secs_f64() * 1e3
        );
    }
}

fn wal_throughput(points: &mut Vec<BenchPoint>) {
    let total = scaled(500_000);
    let wal = Wal::new();
    let single = bench("WAL append: commit records", total, |i| {
        wal.append(LogRecord::Commit { txn: TxnId::compose(i as u32, NodeId(0), WorkerId(0)) });
    });
    points.push(BenchPoint::from_rates("micro", "wal append", single, 1e6 / single, 1.0));
    // Release the first log's segment bytes before measuring the second, so
    // both runs start from the same allocator state.
    drop(wal);

    // Group commit: the same records, 16 per log write (one lock acquisition
    // per group). The rate is in records/s so the ratio to single appends is
    // directly visible; uncontended it is dominated by the per-record encode
    // and hovers around 1x — the amortisation pays off on contended
    // multi-worker logs and in the executor's pipelined hot path, not here.
    let group_wal = Wal::new();
    let grouped_rate = bench("WAL append_group: commit records x16", total / 16, |g| {
        let batch: Vec<LogRecord> = (0..16u32)
            .map(|k| LogRecord::Commit { txn: TxnId::compose(g as u32 * 16 + k, NodeId(0), WorkerId(0)) })
            .collect();
        group_wal.append_group(batch);
    }) * 16.0;
    points.push(BenchPoint::from_rates(
        "micro",
        "wal append_group x16",
        grouped_rate,
        1e6 / grouped_rate,
        grouped_rate / single,
    ));
}

fn main() {
    println!("# P4DB component microbenchmarks\n");
    let mut points = Vec::new();
    switch_pipeline_throughput(&mut points);
    switch_hot_path_batched(&mut points);
    lock_table_throughput(&mut points);
    maxcut_scaling();
    wal_throughput(&mut points);

    let path = p4db_bench::json::output_path();
    p4db_bench::json::write_merged(&path, &points).expect("writing BENCH json");
    println!("\n[micro] wrote {} datapoints to {}", points.len(), path.display());
}
