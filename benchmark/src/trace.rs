//! The traced run: one extra fresh process per workload that produces every
//! per-layer metric. Spans are recorded from the benchmark's own code,
//! around its calls into each layer; tracing is off in the timed rounds.
//!
//! (A) the cluster driven serially (one client, one transaction in flight),
//!     span recording switching on and off every 64 transactions — the gap
//!     between the two is the tracing overhead;
//! (B) the next requests executed through a `Worker` on this thread, with
//!     the engine's own phase accounting as child self-times;
//! (counters) the workload's closed-loop traffic, bracketed by readings of
//!     every counter the program exposes;
//! then checkpoint / recovery / GC / invariant-check timings on that
//! cluster, (C) the layer probes on stand-alone components, and a quick
//! estimate of the contended pair's speedup.

use crate::counters::{ratio, Counters};
use crate::json::Json;
use crate::load::{client_seed, drive, sample_buffers};
use crate::round::window_counters;
use crate::run::OUT_DIR;
use crate::spec::{self, Spec, NODES, PER_LAYER};
use crate::stats::{classify, percentile_sorted, Outcome, Tally};
use crate::{affinity, probes, procfs};
use p4db::common::rand_util::FastRng;
use p4db::common::stats::WorkerStats;
use p4db::common::WorkerId;
use p4db::txn::Worker;
use p4db::workloads::WorkloadCtx;
use p4db::{Cluster, NodeId, Workload};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Transactions whose spans are kept per phase; later slices run untraced.
const TRACED_TXNS: usize = 20_000;

/// Phase (A) switches span recording on and off every so many transactions.
const BLOCK: u64 = 64;

/// One recorded interval. Spans of one transaction share `txn`; `parent` is
/// the id of the enclosing span (0 = none).
struct Span {
    id: u32,
    parent: u32,
    txn: u32,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span store; written out when the run ends.
struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    fn new() -> Recorder {
        Recorder { epoch: Instant::now(), spans: Vec::with_capacity(TRACED_TXNS * 10) }
    }

    fn ns(&self, at: Instant) -> u64 {
        (at - self.epoch).as_nanos() as u64
    }

    fn push(&mut self, parent: u32, txn: u32, name: &'static str, start_ns: u64, end_ns: u64) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span { id, parent, txn, name, start_ns, end_ns });
        id
    }

    /// Mean duration (ns) of the spans called `name`.
    fn mean_ns(&self, name: &str) -> f64 {
        let (mut total, mut count) = (0u64, 0u64);
        for span in self.spans.iter().filter(|s| s.name == name) {
            total += span.end_ns - span.start_ns;
            count += 1;
        }
        ratio(total, count)
    }

    /// One JSON object per line: `{id, parent, txn, name, start_ns, end_ns}`.
    fn write(&self, path: &str) -> Result<(), String> {
        let mut text = String::with_capacity(self.spans.len() * 96);
        for s in &self.spans {
            writeln!(
                text,
                "{{\"id\": {}, \"parent\": {}, \"txn\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.parent, s.txn, s.name, s.start_ns, s.end_ns
            )
            .expect("writing to a String");
        }
        std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("cannot create {OUT_DIR}: {e}"))?;
        std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))
    }
}

/// Span name and share metric of each engine phase, in the order of
/// `WorkerStats::phase_ns` (that of `p4db::common::stats::PHASES`).
const PHASES: [(&str, &str); 5] = [
    ("txn.phase.lock_acquisition", "txn.phase.lock_acquisition_share"),
    ("txn.phase.local_access", "txn.phase.local_access_share"),
    ("txn.phase.remote_access", "txn.phase.remote_access_share"),
    ("txn.phase.switch_txn", "txn.phase.switch_txn_share"),
    ("txn.phase.txn_engine", "txn.phase.txn_engine_share"),
];

/// What phase (A) measured.
struct Serial {
    tally: Tally,
    /// Submit→return latencies (ns) of the untraced transactions, ascending.
    roundtrips: Vec<u32>,
    ops: u64,
    requests: u64,
    /// Mean nanoseconds per transaction with span recording on and off,
    /// over the interleaved blocks.
    traced_ns: f64,
    untraced_ns: f64,
}

/// Phase (A): one client, one transaction in flight, through the session.
/// Span recording alternates in blocks of `BLOCK` transactions, so both
/// arms see the same machine; once `TRACED_TXNS` are recorded the rest runs
/// untraced and only adds round-trip samples.
fn serial_phase(
    cluster: &Cluster,
    spec: &Spec,
    workload: &dyn Workload,
    rng: &mut FastRng,
    recorder: &mut Recorder,
    traffic: Duration,
) -> Result<Serial, String> {
    let mut session = cluster.session(NodeId(0)).map_err(|e| e.to_string())?;
    session.set_max_attempts(spec.max_attempts);
    let ctx = WorkloadCtx::new(NODES, NodeId(0), spec.distributed);
    let mut tally = Tally::default();
    let mut roundtrips = Vec::new();
    let (mut ops, mut traced_txns) = (0u64, 0u64);
    // (transactions, nanoseconds) with recording off and on.
    let mut totals = [(0u64, 0u64); 2];
    let mut now = Instant::now();
    let end = now + traffic;
    let mut i = 0u64;
    while now < end {
        let interleaving = traced_txns < TRACED_TXNS as u64;
        let tracing = interleaving && (i / BLOCK).is_multiple_of(2);
        let begin = now;
        let req = spec.next_request(workload, &ctx, rng);
        if tracing {
            let generated = Instant::now();
            let pending = session.submit_request(&req).map_err(|e| format!("submit: {e}"))?;
            let submitted = Instant::now();
            let result = session.wait(pending);
            let returned = Instant::now();
            tally.record(classify(&result));
            ops += req.ops.len() as u64;
            traced_txns += 1;
            let txn = traced_txns as u32;
            let (t0, t1, t2, t3) =
                (recorder.ns(begin), recorder.ns(generated), recorder.ns(submitted), recorder.ns(returned));
            let parent = recorder.push(0, txn, "txn", t0, t3);
            recorder.push(parent, txn, "workloads.generate", t0, t1);
            recorder.push(parent, txn, "core.session.submit", t1, t2);
            recorder.push(parent, txn, "core.session.wait", t2, t3);
            now = Instant::now();
        } else {
            let submitting = Instant::now();
            let pending = session.submit_request(&req).map_err(|e| format!("submit: {e}"))?;
            let result = session.wait(pending);
            now = Instant::now();
            let outcome = classify(&result);
            tally.record(outcome);
            if outcome == Outcome::Committed {
                roundtrips.push((now - submitting).as_nanos().min(u32::MAX as u128) as u32);
            }
        }
        if interleaving {
            let total = &mut totals[tracing as usize];
            total.0 += 1;
            total.1 += (now - begin).as_nanos() as u64;
        }
        i += 1;
    }
    roundtrips.sort_unstable();
    Ok(Serial {
        tally,
        roundtrips,
        ops,
        requests: traced_txns,
        untraced_ns: ratio(totals[0].1, totals[0].0),
        traced_ns: ratio(totals[1].1, totals[1].0),
    })
}

/// What phase (B) measured.
struct Direct {
    /// `Worker::execute` durations (ns) of committed attempts, ascending.
    executes: Vec<u32>,
    phase_ns: [u64; 5],
}

/// Phase (B): the engine without the session — no queue, no thread
/// hand-off, no reply channel.
fn direct_phase(
    cluster: &Cluster,
    spec: &Spec,
    workload: &dyn Workload,
    rng: &mut FastRng,
    recorder: &mut Recorder,
    traffic: Duration,
) -> Direct {
    // Executor ids count up from 0 in the cluster; this one stays clear.
    let mut worker = Worker::new(Arc::clone(cluster.shared()), NodeId(0), WorkerId(u16::MAX - 1));
    let ctx = WorkloadCtx::new(NODES, NodeId(0), spec.distributed);
    let mut out = Direct { executes: Vec::new(), phase_ns: [0; 5] };
    let end = Instant::now() + traffic;
    let mut txn = 0u32;
    loop {
        let req = spec.next_request(workload, &ctx, rng);
        let mut stats = WorkerStats::new();
        let begin = Instant::now();
        let result = worker.execute(&req, &mut stats);
        let now = Instant::now();
        if result.is_ok() {
            out.executes.push((now - begin).as_nanos().min(u32::MAX as u128) as u32);
        }
        for (total, ns) in out.phase_ns.iter_mut().zip(stats.phase_ns) {
            *total += ns;
        }
        txn += 1;
        if (txn as usize) <= TRACED_TXNS {
            // The engine reports durations, not intervals: the phase spans
            // are laid end to end from the start of the call.
            let (t0, t1) = (recorder.ns(begin), recorder.ns(now));
            let parent = recorder.push(0, TRACED_TXNS as u32 + txn, "txn.worker.execute", t0, t1);
            let mut at = t0;
            for ((name, _), ns) in PHASES.into_iter().zip(stats.phase_ns) {
                if ns > 0 {
                    recorder.push(parent, TRACED_TXNS as u32 + txn, name, at, at + ns);
                    at += ns;
                }
            }
        }
        if now >= end {
            break;
        }
    }
    out.executes.sort_unstable();
    out
}

/// 99th percentile of the version-chain lengths of every row that has a
/// chain at all.
fn chain_len_p99(cluster: &Cluster) -> f64 {
    let mut lengths: Vec<u32> = Vec::new();
    for node in &cluster.shared().nodes {
        for table in node.tables() {
            table.for_each(|_, row| {
                let len = row.version_count();
                if len > 0 {
                    lengths.push(len as u32);
                }
            });
        }
    }
    lengths.sort_unstable();
    percentile_sorted(&lengths, 0.99)
}

/// Committed transactions per second of one arm of the contended pair over
/// a short window.
fn contended_tps(name: &str, seed: u64, window: Duration) -> Result<f64, String> {
    let spec = spec::find(name).expect("the contended pair is part of the workload table");
    let workload = spec.workload();
    let cluster = spec.builder(workload.clone(), seed, false).build();
    let seeds = |node| client_seed(seed, u64::MAX - 1, node);
    let load = drive(&cluster, spec, &workload, seeds, sample_buffers(), Duration::from_millis(200), window)?;
    Ok(load.timed.committed as f64 / window.as_secs_f64())
}

/// Invariant check, crash recovery and checkpoint, timed on a cluster of
/// their own that has seen only a short burst of the workload: all three
/// read the whole log, so on the main cluster they would take longer than
/// everything else together.
fn maintenance(
    spec: &'static Spec,
    workload: &Arc<dyn Workload>,
    seed: u64,
    burst: Duration,
    m: &mut Vec<(&'static str, f64)>,
    failures: &mut Vec<String>,
) -> Result<(), String> {
    let cluster = spec.builder(workload.clone(), seed, true).build();
    let burst_of = |round: u64, length: Duration| -> Result<(), String> {
        drive(
            &cluster,
            spec,
            workload,
            |node| client_seed(seed, round, node),
            sample_buffers(),
            Duration::ZERO,
            length,
        )?;
        match cluster.quiesce_switch(Duration::from_secs(10)) {
            true => Ok(()),
            false => Err(format!("{}: the switch did not quiesce within 10 s", spec.name)),
        }
    };
    burst_of(u64::MAX - 4, burst)?;

    let checking = Instant::now();
    let report = p4db::chaos::check(&cluster, spec.semantics());
    m.push(("chaos.check_ms", ms(checking.elapsed())));
    m.push(("chaos.violations", report.violations.len() as f64));
    failures.extend(report.violations.iter().take(5).map(|v| format!("{}: invariant violation: {v}", spec.name)));

    let recover = || cluster.crash_and_recover_node(NodeId(0)).map_err(|e| format!("crash_and_recover_node: {e}"));
    let recovering = Instant::now();
    let genesis = recover()?;
    let elapsed = recovering.elapsed();
    m.push(("core.recovery.node_genesis_ms", ms(elapsed)));
    m.push(("core.recovery.records_per_s", genesis.tail_records as f64 / elapsed.as_secs_f64()));
    if !genesis.divergences.is_empty() || genesis.codec_error.is_some() {
        failures.push(format!("{}: the genesis restart diverged from the live state", spec.name));
    }

    let checkpointing = Instant::now();
    cluster.checkpoint_node(NodeId(0)).map_err(|e| format!("checkpoint_node: {e}"))?;
    m.push(("core.checkpoint.node_ms", ms(checkpointing.elapsed())));
    // A tail for the checkpointed restart to replay. Its divergences are
    // not held against the run: after distributed traffic the checkpoint
    // path compares (and writes back) the checkpointed value of every tuple
    // whose tail images are ambiguous across coordinators. See README.md.
    burst_of(u64::MAX - 5, burst / 2)?;
    let recovering = Instant::now();
    let checkpointed = recover()?;
    m.push(("core.recovery.node_checkpointed_ms", ms(recovering.elapsed())));
    if let Some(error) = checkpointed.codec_error {
        failures.push(format!("{}: the checkpointed restart could not decode the log: {error}", spec.name));
    }
    Ok(())
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The traced run of one workload; `traffic` is shared out over its phases.
pub fn traced_run(spec: &'static Spec, seed: u64, traffic: Duration) -> Result<Json, String> {
    let mut m: Vec<(&'static str, f64)> = Vec::new();
    let mut failures: Vec<String> = Vec::new();

    let workload = spec.workload();
    let cluster = spec.builder(workload.clone(), seed, true).build();
    m.push(("layout.offloaded_tuples", cluster.offloaded_tuples() as f64));
    m.push(("process.rss_after_setup_mb", procfs::rss_bytes() as f64 / 1e6));

    // --- (A) and (B): one request stream, first through the session, then
    // straight into the engine.
    let mut recorder = Recorder::new();
    let mut rng = FastRng::new(client_seed(seed, u64::MAX - 2, 0));
    let pinned = affinity::pin_to_one_cpu();
    let serial = serial_phase(&cluster, spec, workload.as_ref(), &mut rng, &mut recorder, traffic.mul_f64(0.25))?;
    let direct = direct_phase(&cluster, spec, workload.as_ref(), &mut rng, &mut recorder, traffic.mul_f64(0.10));
    drop(pinned);

    let roundtrip_p50 = percentile_sorted(&serial.roundtrips, 0.50) / 1e3;
    let execute_p50 = percentile_sorted(&direct.executes, 0.50) / 1e3;
    m.push(("workloads.generate_ns", recorder.mean_ns("workloads.generate")));
    m.push(("workloads.ops_per_txn", ratio(serial.ops, serial.requests)));
    m.push(("core.session.submit_ns", recorder.mean_ns("core.session.submit")));
    m.push(("core.session.roundtrip_us_p50", roundtrip_p50));
    m.push(("core.session.overhead_us", roundtrip_p50 - execute_p50));
    m.push(("txn.worker.execute_us_p50", execute_p50));
    m.push(("txn.worker.execute_us_p99", percentile_sorted(&direct.executes, 0.99) / 1e3));
    let phase_total: u64 = direct.phase_ns.iter().sum();
    for ((_, share), ns) in PHASES.into_iter().zip(direct.phase_ns) {
        m.push((share, ratio(ns, phase_total)));
    }
    m.push(("trace.overhead_pct", (serial.traced_ns - serial.untraced_ns) / serial.untraced_ns * 100.0));
    m.push(("trace.spans", recorder.spans.len() as f64));
    recorder.write(&format!("{OUT_DIR}/trace_{}.jsonl", spec.name))?;
    if serial.tally.failed > 0 {
        failures.push(format!("{}: {} serial transactions failed", spec.name, serial.tally.failed));
    }

    // --- Counters: the workload's own closed-loop traffic.
    let seeds = |node| client_seed(seed, u64::MAX - 3, node);
    let warmup = Duration::from_millis(300);
    let load = drive(&cluster, spec, &workload, seeds, sample_buffers(), warmup, traffic.mul_f64(0.35))?;
    let c: Counters = window_counters(&load);
    failures.extend(spec.vacuity_failures(&c));
    let commits = c.stats.committed_total();
    let switch_txns = c.global.switch.txns_executed;
    m.push(("workloads.rollback_share", ratio(c.tally.rollback, c.tally.attempted())));
    m.push(("core.session.latency_p99_us", percentile_sorted(&load.samples, 0.99) / 1e3));
    m.push(("core.session.latency_p999_us", percentile_sorted(&load.samples, 0.999) / 1e3));
    m.push(("core.session.failed_share", ratio(c.tally.failed, c.tally.attempted())));
    m.push(("net.msgs_to_switch_per_txn", c.per_commit(c.global.msgs_to_switch)));
    m.push(("net.msgs_to_nodes_per_txn", c.per_commit(c.global.msgs_to_nodes)));
    m.push(("net.multicasts_per_txn", c.per_commit(c.global.multicasts)));
    m.push(("switch.txns_per_commit", c.per_commit(switch_txns)));
    m.push(("switch.passes_per_txn", ratio(c.global.switch.passes, switch_txns)));
    m.push(("switch.single_pass_share", ratio(c.global.switch.single_pass, switch_txns)));
    m.push(("switch.recirc_waiting_per_txn", ratio(c.global.switch.recirc_waiting, switch_txns)));
    m.push(("switch.recirc_owner_per_txn", ratio(c.global.switch.recirc_owner, switch_txns)));
    m.push(("storage.locks.acquisitions_per_txn", c.per_commit(c.global.lock_acquisitions)));
    m.push(("storage.locks.waits_per_txn", c.per_commit(c.global.lock_waits)));
    m.push(("storage.locks.wait_us_per_txn", c.per_commit(c.global.lock_wait_ns) / 1e3));
    m.push(("storage.wal.records_per_txn", c.per_commit(c.global.wal_records)));
    m.push(("storage.wal.bytes_per_txn", c.per_commit(c.global.wal_bytes)));
    m.push(("txn.class.hot_share", c.hot_share()));
    m.push(("txn.class.cold_share", c.per_commit(c.stats.committed_cold)));
    m.push(("txn.class.warm_share", c.warm_share()));
    m.push(("txn.snapshot_read_share", c.per_commit(c.stats.snapshot_reads)));
    m.push(("txn.attempts_per_commit", c.attempts_per_commit()));
    m.push(("txn.abort.lock_conflict_per_commit", c.per_commit(c.stats.aborts_lock_conflict)));
    m.push(("txn.abort.constraint_per_commit", c.per_commit(c.stats.aborts_constraint)));
    m.push(("txn.retry_rounds_per_commit", c.per_commit(c.stats.retry_rounds)));
    m.push(("txn.switch_timeouts", c.stats.switch_timeouts as f64));
    m.push(("process.cpu_us_per_txn", ratio(c.cpu_us, commits)));
    m.push(("process.rss_peak_mb", procfs::peak_rss_bytes() as f64 / 1e6));

    m.push(("storage.mvcc.chain_len_p99", chain_len_p99(&cluster)));
    let collecting = Instant::now();
    cluster.collect_versions();
    m.push(("storage.mvcc.collect_versions_ms", ms(collecting.elapsed())));

    maintenance(spec, &workload, seed, traffic.mul_f64(0.05), &mut m, &mut failures)?;

    // --- (C) the layer probes, then the contended pair's speedup.
    let pinned = affinity::pin_to_one_cpu();
    probes::run(&workload, seed, &mut m);
    drop(pinned);
    let arm = traffic.mul_f64(0.125);
    let host = contended_tps("ycsb_contended_host", seed, arm)?;
    let switch = contended_tps("ycsb_contended_switch", seed, arm)?;
    m.push(("paper.speedup_contended", switch / host));

    let mut metrics = Json::obj();
    for metric in PER_LAYER {
        let (_, value) = m
            .iter()
            .find(|(name, _)| *name == metric.name)
            .ok_or_else(|| format!("the traced run did not measure `{}`", metric.name))?;
        metrics.set(metric.name, Json::value_unit(*value, metric.unit));
    }
    debug_assert_eq!(m.len(), PER_LAYER.len(), "every measured metric is listed in PER_LAYER");
    let mut out = Json::obj();
    out.set("metrics", metrics);
    out.set("failures", Json::Arr(failures.into_iter().map(Json::Str).collect()));
    out.set("attempted", Json::Num((serial.tally.attempted() + c.tally.attempted()) as f64));
    out.set("failed", Json::Num((serial.tally.failed + c.tally.failed) as f64));
    Ok(out)
}
