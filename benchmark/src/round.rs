//! The two kinds of load-bearing child process: a timed round (the
//! end-to-end numbers) and the verification round (correctness).
//!
//! Every round is a fresh process: repeated runs inside one process drift by
//! tens of percent as the allocator warms, fresh processes repeat within a
//! few percent.

use crate::counters::{ratio, Counters};
use crate::json::Json;
use crate::load::{client_seed, drive, sample_buffers, Load};
use crate::procfs;
use crate::spec::{Spec, NODES};
use crate::stats::percentile_sorted;
use p4db::NodeId;
use std::time::{Duration, Instant};

/// The counters of a load's timed window.
pub fn window_counters(load: &Load) -> Counters {
    Counters::new(
        load.timed,
        load.timed_stats.clone(),
        &load.start.global,
        &load.end.global,
        load.end.cpu_us - load.start.cpu_us,
    )
}

/// One timed round: build the cluster (timed as `setup_s`), warm up, measure
/// a window, drain. Tracing and auditing are off.
pub fn timed_round(
    spec: &'static Spec,
    seed: u64,
    round: u64,
    warmup: Duration,
    window: Duration,
) -> Result<Json, String> {
    let workload = spec.workload();
    let building = Instant::now();
    let cluster = spec.builder(workload.clone(), seed, false).build();
    let setup_s = building.elapsed().as_secs_f64();
    let buffers = sample_buffers();
    let rss_after_setup = procfs::rss_bytes();

    let load = drive(&cluster, spec, &workload, |node| client_seed(seed, round, node), buffers, warmup, window)?;
    let committed_by_window_end = load.warm.committed + load.timed.committed;
    let grown = load.end.rss_bytes.saturating_sub(rss_after_setup);

    let mut out = Json::obj();
    out.set("committed_tps", Json::Num(load.timed.committed as f64 / window.as_secs_f64()));
    out.set("latency_p50_us", Json::Num(percentile_sorted(&load.samples, 0.50) / 1e3));
    out.set("mem_bytes_per_txn", Json::Num(ratio(grown, committed_by_window_end)));
    out.set("setup_s", Json::Num(setup_s));
    out.set("attempted", Json::Num(load.timed.attempted() as f64));
    out.set("committed", Json::Num(load.timed.committed as f64));
    out.set("rollback", Json::Num(load.timed.rollback as f64));
    out.set("failed", Json::Num(load.timed.failed as f64));
    out.set("first_error", load.first_error.map_or(Json::Null, Json::Str));
    Ok(out)
}

/// A set-up-only process: one more sample of `setup_s`, of which a run
/// reports the fastest.
pub fn setup_only(spec: &'static Spec, seed: u64) -> Json {
    let building = Instant::now();
    let cluster = spec.builder(spec.workload(), seed, false).build();
    let setup_s = building.elapsed().as_secs_f64();
    std::hint::black_box(&cluster);
    let mut out = Json::obj();
    out.set("setup_s", Json::Num(setup_s));
    out
}

/// The verification round: the same traffic with the switch's data-plane
/// audit log on, then every check the program offers. Returns the failures
/// found (none = clean).
pub fn verify_round(spec: &'static Spec, seed: u64, traffic: Duration) -> Result<Json, String> {
    let workload = spec.workload();
    let cluster = spec.builder(workload.clone(), seed, true).build();

    // Round number `u64::MAX`: a request stream of its own.
    let seeds = |node| client_seed(seed, u64::MAX, node);
    let load = drive(&cluster, spec, &workload, seeds, sample_buffers(), Duration::ZERO, traffic)?;
    let mut failures = Vec::new();

    if load.commits() != load.session_commits {
        failures.push(format!(
            "clients saw {} commits, the merged Session::stats {}",
            load.commits(),
            load.session_commits
        ));
    }
    let failed = load.warm.failed + load.timed.failed + load.drain.failed;
    if failed > 0 {
        failures.push(format!("{failed} transactions failed, first: {}", load.first_error.as_deref().unwrap_or("?")));
    }
    if load.timed.committed == 0 {
        failures.push("no transaction committed".into());
    }
    failures.extend(spec.vacuity_failures(&window_counters(&load)));

    if !cluster.quiesce_switch(Duration::from_secs(10)) {
        failures.push("the switch did not quiesce within 10 s".into());
    }
    let report = p4db::chaos::check(&cluster, spec.semantics());
    for violation in report.violations.iter().take(5) {
        failures.push(format!("invariant violation: {violation}"));
    }
    if report.violations.len() > 5 {
        failures.push(format!("... and {} more invariant violations", report.violations.len() - 5));
    }
    for node in 0..NODES {
        match cluster.crash_and_recover_node(NodeId(node)) {
            Ok(recovery) => {
                if !recovery.divergences.is_empty() {
                    failures.push(format!(
                        "node {node}: {} tuples diverge after crash + recovery, first {:?}",
                        recovery.divergences.len(),
                        recovery.divergences[0]
                    ));
                }
                if let Some(error) = recovery.codec_error {
                    failures.push(format!("node {node}: WAL did not round-trip: {error}"));
                }
            }
            Err(e) => failures.push(format!("node {node}: crash_and_recover_node failed: {e}")),
        }
    }

    let mut out = Json::obj();
    out.set("failures", Json::Arr(failures.into_iter().map(Json::Str).collect()));
    out.set("committed", Json::Num(load.commits() as f64));
    out.set("replayed_switch_txns", Json::Num(report.replayed as f64));
    out.set("cold_compared", Json::Num(report.cold_compared as f64));
    Ok(out)
}
