//! The hot path's batching tripwire (not a figure from the paper): the
//! switch hot path driven open-loop unbatched and in frames of 16, recorded
//! as one machine-readable datapoint in `BENCH_47.json` (figure `micro`),
//! which the CI gate tripwires with a count, not a rate. Per-component
//! timings (switch round trip and frame cost, lock table, layout planner,
//! WAL appends) are the repo benchmark's per-layer metrics
//! (`benchmark/src/probes.rs`).
//!
//! Knobs: `P4DB_MICRO_QUICK=1` shrinks the iteration count ~10× (the CI
//! smoke profile); `P4DB_BENCH_JSON` overrides the output path.

use p4db_bench::BenchPoint;
use p4db_common::{LatencyConfig, NodeId, SwitchId, WorkerId};
use p4db_net::{BatchRecvOutcome, EndpointId, Fabric, LatencyModel};
use p4db_switch::{
    start_switch, Instruction, RegisterMemory, RegisterSlot, SwitchConfig, SwitchMessage, SwitchTxn, TxnHeader,
};
use std::sync::atomic::Ordering;
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

/// An 8-op single-pass switch transaction from `ep`.
fn hot_txn(ep: EndpointId, i: u64) -> SwitchMessage {
    let instructions =
        (0..8u8).map(|s| Instruction::add(RegisterSlot::new(s, (i % 4) as u8, (i % 1024) as u32), 1)).collect();
    SwitchMessage::Txn(SwitchTxn::new(TxnHeader::new(ep, i), instructions))
}

/// Open-loop throughput of the switch hot path at a given batching degree:
/// a window of 8-op single-pass transactions is kept in flight; sends use
/// frames and receives drain batches when `batch_size > 1`, exactly like the
/// engine's pipelined hot path. Returns committed transactions per second
/// and worker-to-switch messages per executed switch transaction.
fn switch_hot_path_rate(batch_size: u16, total: u64) -> (f64, f64) {
    let config = SwitchConfig { pass_latency_ns: 0, batch_size, ..SwitchConfig::tofino_defaults() };
    let latency = LatencyModel::new(LatencyConfig::zero());
    let fabric: Fabric<SwitchMessage> = Fabric::new(latency.clone());
    let memory = Arc::new(RegisterMemory::new(config));
    let handle = start_switch(config, memory, fabric.clone());
    let ep = EndpointId::Worker(NodeId(0), WorkerId(0));
    let mailbox = fabric.register(ep);
    let window = 128u64.min(total);
    let send_chunk = |from: u64, count: u64| {
        if batch_size > 1 {
            let frame: Vec<SwitchMessage> = (from..from + count).map(|i| hot_txn(ep, i)).collect();
            assert!(fabric.send_frame(ep, EndpointId::Switch(SwitchId(0)), frame), "switch ingress gone");
        } else {
            for i in from..from + count {
                assert!(fabric.send(ep, EndpointId::Switch(SwitchId(0)), hot_txn(ep, i)), "switch ingress gone");
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
    let messages = latency.stats().messages_to_switch.load(Ordering::Relaxed);
    let per_txn = messages as f64 / handle.stats().txns_executed.max(1) as f64;
    handle.shutdown();
    (rate, per_txn)
}

/// The batching tripwire: the same open-loop hot path, unbatched vs. frames
/// of 16. The gated `speedup` field is a count read in the same runs —
/// unbatched messages per switch transaction (exactly 1) over batched ones,
/// i.e. how many transactions share a frame — because the rate ratio
/// measures the host's cross-thread wake-up cost as much as batching. The
/// batched rate is recorded alongside, ungated.
fn switch_hot_path_batched(points: &mut Vec<BenchPoint>) {
    let total = scaled(40_000);
    let (unbatched, unbatched_msgs) = switch_hot_path_rate(1, total);
    let (batched, batched_msgs) = switch_hot_path_rate(16, total);
    let sharing = unbatched_msgs / batched_msgs;
    println!(
        "{:<48} {total:>9} txns   unbatched {unbatched:>10.0} txn/s   batch=16 {batched:>10.0} txn/s   \
         {sharing:.1} txns per message",
        "switch hot path: batched vs unbatched"
    );
    points.push(BenchPoint::from_rates(
        "micro",
        "switch hot path batched-vs-unbatched",
        batched,
        1e6 / batched,
        sharing,
    ));
}

fn main() {
    println!("# P4DB hot-path batching tripwire\n");
    let mut points = Vec::new();
    switch_hot_path_batched(&mut points);

    let path = p4db_bench::json::output_path();
    p4db_bench::json::write_merged(&path, &points).expect("writing BENCH json");
    println!("\n[micro] wrote {} datapoints to {}", points.len(), path.display());
}
