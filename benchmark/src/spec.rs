//! What the benchmark runs and what it reports: the six workloads with
//! their fixed parameters, and the metric tables (`BENCHMARK.json` lists the
//! same names; a unit test keeps the two in step).

use crate::counters::Counters;
use p4db::chaos::SemanticChecks;
use p4db::common::rand_util::FastRng;
use p4db::common::LatencyConfig;
use p4db::switch::SwitchConfig;
use p4db::workloads::smallbank::INITIAL_BALANCE;
use p4db::workloads::{SmallBank, SmallBankConfig, Tpcc, TpccConfig, WorkloadCtx, Ycsb, YcsbConfig, YcsbMix};
use p4db::{Cluster, ClusterBuilder, OpKind, SystemMode, TxnRequest, Workload};
use std::sync::Arc;

#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Copy, Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before a
    /// change counts as a regression (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric { name, unit, better, bound }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better, bound: 0.0 }
}

use Better::{Higher, Lower};

/// The gated metrics, reported per workload as the median over the rounds
/// of a run. README.md derives each bound from the measured spread.
pub const END_TO_END: &[Metric] = &[
    e2e("committed_tps", "txn/s", Higher, 0.25),
    e2e("latency_p50_us", "us", Lower, 0.25),
    e2e("mem_bytes_per_txn", "bytes", Lower, 0.10),
    e2e("setup_s", "s", Lower, 0.25),
];

/// The ungated per-layer metrics of the traced run, layer by layer (the
/// layers are the crates). `better` is the direction an optimisation of
/// that layer would move the number; pure workload-shape counts say
/// `higher` or `lower` by what they mean for the engine's work.
pub const PER_LAYER: &[Metric] = &[
    // workloads
    layer("workloads.generate_ns", "ns", Lower),
    layer("workloads.ops_per_txn", "count", Lower),
    layer("workloads.rollback_share", "ratio", Lower),
    layer("workloads.load_node_ms", "ms", Lower),
    // core
    layer("core.session.submit_ns", "ns", Lower),
    layer("core.session.roundtrip_us_p50", "us", Lower),
    layer("core.session.overhead_us", "us", Lower),
    layer("core.session.latency_p99_us", "us", Lower),
    layer("core.session.latency_p999_us", "us", Lower),
    layer("core.session.failed_share", "ratio", Lower),
    layer("core.checkpoint.node_ms", "ms", Lower),
    layer("core.recovery.node_genesis_ms", "ms", Lower),
    layer("core.recovery.node_checkpointed_ms", "ms", Lower),
    layer("core.recovery.records_per_s", "rec/s", Higher),
    // common
    layer("common.channel.handoff_us", "us", Lower),
    layer("common.channel.send_ns", "ns", Lower),
    // net
    layer("net.fabric.pingpong_us", "us", Lower),
    layer("net.fabric.send_frame_ns_per_msg", "ns", Lower),
    layer("net.frame.encode_ns_per_msg", "ns", Lower),
    layer("net.frame.decode_ns_per_msg", "ns", Lower),
    layer("net.msgs_to_switch_per_txn", "count", Lower),
    layer("net.msgs_to_nodes_per_txn", "count", Lower),
    layer("net.multicasts_per_txn", "count", Lower),
    // switch
    layer("switch.roundtrip_us", "us", Lower),
    layer("switch.frame16_ns_per_txn", "ns", Lower),
    layer("switch.memory.execute_ns", "ns", Lower),
    layer("switch.plan_passes_ns", "ns", Lower),
    layer("switch.txns_per_commit", "count", Lower),
    layer("switch.passes_per_txn", "count", Lower),
    layer("switch.single_pass_share", "ratio", Higher),
    layer("switch.recirc_waiting_per_txn", "count", Lower),
    layer("switch.recirc_owner_per_txn", "count", Lower),
    // layout
    layer("layout.plan_ms", "ms", Lower),
    layer("layout.single_pass_fraction", "ratio", Higher),
    layer("layout.offloaded_tuples", "count", Higher),
    // storage
    layer("storage.locks.acquire_release_ns", "ns", Lower),
    layer("storage.table.get_ns", "ns", Lower),
    layer("storage.table.install_version_ns", "ns", Lower),
    layer("storage.table.read_at_ns", "ns", Lower),
    layer("storage.wal.append_ns", "ns", Lower),
    layer("storage.wal.append_group_ns_per_rec", "ns", Lower),
    layer("storage.segment.encode_ns_per_rec", "ns", Lower),
    layer("storage.segment.decode_ns_per_rec", "ns", Lower),
    layer("storage.checkpoint.take_ms", "ms", Lower),
    layer("storage.locks.acquisitions_per_txn", "count", Lower),
    layer("storage.locks.waits_per_txn", "count", Lower),
    layer("storage.locks.wait_us_per_txn", "us", Lower),
    layer("storage.wal.records_per_txn", "count", Lower),
    layer("storage.wal.bytes_per_txn", "bytes", Lower),
    layer("storage.mvcc.chain_len_p99", "count", Lower),
    layer("storage.mvcc.collect_versions_ms", "ms", Lower),
    // txn
    layer("txn.worker.execute_us_p50", "us", Lower),
    layer("txn.worker.execute_us_p99", "us", Lower),
    layer("txn.phase.lock_acquisition_share", "ratio", Lower),
    layer("txn.phase.local_access_share", "ratio", Lower),
    layer("txn.phase.remote_access_share", "ratio", Lower),
    layer("txn.phase.switch_txn_share", "ratio", Lower),
    layer("txn.phase.txn_engine_share", "ratio", Lower),
    layer("txn.class.hot_share", "ratio", Higher),
    layer("txn.class.cold_share", "ratio", Lower),
    layer("txn.class.warm_share", "ratio", Lower),
    layer("txn.snapshot_read_share", "ratio", Higher),
    layer("txn.attempts_per_commit", "count", Lower),
    layer("txn.abort.lock_conflict_per_commit", "count", Lower),
    layer("txn.abort.constraint_per_commit", "count", Lower),
    layer("txn.retry_rounds_per_commit", "count", Lower),
    layer("txn.switch_timeouts", "count", Lower),
    layer("txn.build_switch_txn_ns", "ns", Lower),
    layer("txn.hotset.lookup_ns", "ns", Lower),
    // chaos
    layer("chaos.check_ms", "ms", Lower),
    layer("chaos.violations", "count", Lower),
    // process / derived
    layer("process.cpu_us_per_txn", "us", Lower),
    layer("process.rss_after_setup_mb", "MB", Lower),
    layer("process.rss_peak_mb", "MB", Lower),
    layer("trace.overhead_pct", "%", Lower),
    layer("trace.spans", "count", Higher),
    layer("paper.speedup_contended", "ratio", Higher),
];

/// The data a workload loads and generates from.
#[derive(Copy, Clone, Debug)]
pub enum Data {
    SmallBank,
    /// YCSB-A; `hot_txn_prob: None` keeps the paper's skew (75% of
    /// transactions on 50 hot keys per node).
    Ycsb {
        keys_per_node: u64,
        hot_txn_prob: Option<f64>,
    },
    Tpcc {
        warehouses: u64,
    },
}

/// One workload: fixed parameters, never tuned per run.
#[derive(Copy, Clone, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub mode: SystemMode,
    /// `bench_profile()` modelled latencies instead of zero.
    pub modelled_latency: bool,
    pub workers: u16,
    pub distributed: f64,
    /// Transactions each client keeps in flight.
    pub window: usize,
    pub data: Data,
    /// Share of generated transactions rewritten to all-reads and declared
    /// read-only (the lock-free snapshot path).
    pub read_only_share: f64,
    /// Execution attempts a session allows one transaction.
    pub max_attempts: u32,
    pub floors: Floors,
}

/// What a workload's traffic must at least look like (anti-vacuity): the
/// shares are of committed transactions, and a floor of 0 asserts nothing.
#[derive(Copy, Clone, Debug)]
pub struct Floors {
    pub hot_share: f64,
    pub warm_share: f64,
    pub snapshot_read_share: f64,
    /// Execution attempts per commit must *exceed* this.
    pub attempts_per_commit: f64,
    /// No message to the switch, no switch transaction.
    pub switch_free: bool,
}

const NO_FLOORS: Floors =
    Floors { hot_share: 0.0, warm_share: 0.0, snapshot_read_share: 0.0, attempts_per_commit: 0.0, switch_free: false };

/// Database nodes in every workload; one client thread and one `Session`
/// per node (`nproc` = 2 on the sandbox this was sized on).
pub const NODES: u16 = 2;

/// SmallBank's retry budget. An overdraft is a deterministic
/// `ConstraintViolation`: the engine re-runs it until the budget is spent,
/// so the default budget of 1000 turns every rollback into milliseconds of
/// executor time.
const SMALLBANK_ATTEMPTS: u32 = 16;

/// The workloads that cannot roll back retry until they commit, as the
/// paper's closed-loop workers do. At zero modelled latency the retry
/// backoff is zero too, so a transaction that meets a lock whose holder is
/// descheduled burns through a budget of 16 in microseconds, and through the
/// program's default of 1000 whenever the hypervisor takes the holder's CPU
/// away for a few milliseconds; either way it would count as failed.
const UNTIL_COMMIT: u32 = u32::MAX;

const CONTENDED_YCSB: Data = Data::Ycsb { keys_per_node: 20_000, hot_txn_prob: None };

pub const WORKLOADS: &[Spec] = &[
    Spec {
        name: "smallbank_hot",
        why: "~90% of transactions are single-packet switch transactions: switch, net and the executor's hot-path \
              batching do the work, storage only appends intents",
        mode: SystemMode::P4db,
        modelled_latency: false,
        workers: 1,
        distributed: 0.2,
        window: 4,
        data: Data::SmallBank,
        read_only_share: 0.0,
        max_attempts: SMALLBANK_ATTEMPTS,
        floors: Floors { hot_share: 0.8, ..NO_FLOORS },
    },
    Spec {
        name: "ycsb_cold",
        why: "every access is a cold host access on 1M rows (larger than the CPU cache): lock table, sharded row \
              store, version install and WAL group commit do the work; zero switch messages",
        mode: SystemMode::NoSwitch,
        modelled_latency: false,
        workers: 1,
        distributed: 0.2,
        window: 4,
        data: Data::Ycsb { keys_per_node: 500_000, hot_txn_prob: Some(0.0) },
        read_only_share: 0.0,
        max_attempts: UNTIL_COMMIT,
        floors: Floors { switch_free: true, ..NO_FLOORS },
    },
    Spec {
        name: "ycsb_readmostly",
        why: "90% lock-free snapshot reads beside 10% writers that lengthen the hot keys' version chains, on rows \
              that fit the cache: a write-path gain paid for on the snapshot path (or the reverse) shows",
        mode: SystemMode::NoSwitch,
        modelled_latency: false,
        workers: 1,
        // Node-local transactions and one executor per node: no two writers
        // ever meet on the 50 hot keys, so no transaction fails. With 20%
        // distributed writers about 1 in 20 000 exhausted even its retry
        // budget while the lock holder was descheduled.
        distributed: 0.0,
        window: 4,
        data: CONTENDED_YCSB,
        read_only_share: 0.9,
        max_attempts: UNTIL_COMMIT,
        floors: Floors { snapshot_read_share: 0.85, switch_free: true, ..NO_FLOORS },
    },
    Spec {
        name: "tpcc_warm",
        why: "warm transactions touch switch and host in one transaction, with inserts and secondary indexes: every \
              layer shares the work, so a gain in one layer paid for in another shows",
        mode: SystemMode::P4db,
        modelled_latency: false,
        workers: 1,
        distributed: 0.2,
        window: 4,
        data: Data::Tpcc { warehouses: 4 },
        read_only_share: 0.0,
        max_attempts: UNTIL_COMMIT,
        floors: Floors { warm_share: 0.8, ..NO_FLOORS },
    },
    Spec {
        name: "ycsb_contended_host",
        why: "locks are held across modelled RTTs, so NO_WAIT conflicts, retries and backoff set the result; it is \
              model-bound, so a pure CPU optimisation should not move it",
        mode: SystemMode::NoSwitch,
        modelled_latency: true,
        workers: 8,
        distributed: 0.5,
        window: 8,
        data: CONTENDED_YCSB,
        read_only_share: 0.0,
        max_attempts: UNTIL_COMMIT,
        floors: Floors { attempts_per_commit: 1.2, switch_free: true, ..NO_FLOORS },
    },
    Spec {
        name: "ycsb_contended_switch",
        why: "the same traffic with the hot set on the switch; with ycsb_contended_host it yields the paper's \
              headline speedup without gating on a ratio",
        mode: SystemMode::P4db,
        modelled_latency: true,
        workers: 8,
        distributed: 0.5,
        window: 8,
        data: CONTENDED_YCSB,
        read_only_share: 0.0,
        max_attempts: UNTIL_COMMIT,
        floors: Floors { hot_share: 0.6, ..NO_FLOORS },
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Spec {
    pub fn workload(&self) -> Arc<dyn Workload> {
        match self.data {
            Data::SmallBank => Arc::new(SmallBank::new(SmallBankConfig::default())),
            Data::Ycsb { keys_per_node, hot_txn_prob } => {
                let defaults = YcsbConfig::new(YcsbMix::A);
                Arc::new(Ycsb::new(YcsbConfig {
                    keys_per_node,
                    hot_txn_prob: hot_txn_prob.unwrap_or(defaults.hot_txn_prob),
                    ..defaults
                }))
            }
            Data::Tpcc { warehouses } => Arc::new(Tpcc::new(TpccConfig::new(warehouses))),
        }
    }

    /// The semantic invariants `p4db::chaos::check` holds this workload to.
    pub fn semantics(&self) -> SemanticChecks {
        match self.data {
            Data::SmallBank => SemanticChecks::SmallBank {
                initial_balance: INITIAL_BALANCE,
                max_amount: SmallBankConfig::default().max_amount,
            },
            Data::Ycsb { .. } => SemanticChecks::None,
            // The loader gives every customer a balance of 1000.
            Data::Tpcc { warehouses } => SemanticChecks::Tpcc { warehouses, initial_customer_balance: 1_000 },
        }
    }

    /// The cluster of this workload. Every knob is the `ClusterBuilder`
    /// default except nodes, workers, mode, latency, distributed share and
    /// seed; `audit` additionally keeps the switch's data-plane audit log,
    /// which the invariant checker needs (verification and traced runs only).
    pub fn builder(&self, workload: Arc<dyn Workload>, seed: u64, audit: bool) -> ClusterBuilder {
        let latency = if self.modelled_latency { LatencyConfig::bench_profile() } else { LatencyConfig::zero() };
        let builder = Cluster::builder(workload)
            .nodes(NODES)
            .workers(self.workers)
            .mode(self.mode)
            .latency(latency)
            .distributed_prob(self.distributed)
            .seed(seed);
        if audit {
            builder.switch(SwitchConfig { audit_data_plane: true, ..SwitchConfig::tofino_defaults() })
        } else {
            builder
        }
    }

    /// The next request of one client: the workload's own generator, with
    /// `read_only_share` of the transactions rewritten to all-reads and
    /// declared read-only.
    pub fn next_request(&self, workload: &dyn Workload, ctx: &WorkloadCtx, rng: &mut FastRng) -> TxnRequest {
        let mut req = workload.generate(ctx, rng);
        if self.read_only_share > 0.0 && rng.gen_bool(self.read_only_share) {
            for op in &mut req.ops {
                op.kind = OpKind::Read;
            }
            req = req.into_read_only();
        }
        req
    }

    /// Anti-vacuity assertions: a workload must keep exercising the layer it
    /// was chosen for. Returns one line per broken assertion.
    pub fn vacuity_failures(&self, c: &Counters) -> Vec<String> {
        let mut failures = Vec::new();
        let mut require = |ok: bool, what: String| {
            if !ok {
                failures.push(format!("{}: {what}", self.name));
            }
        };
        let floors = &self.floors;
        for (what, share, floor) in [
            ("hot", c.hot_share(), floors.hot_share),
            ("warm", c.warm_share(), floors.warm_share),
            ("snapshot-read", c.per_commit(c.stats.snapshot_reads), floors.snapshot_read_share),
        ] {
            require(share >= floor, format!("{what} share {share:.3} < {floor}"));
        }
        let attempts = c.attempts_per_commit();
        require(attempts > floors.attempts_per_commit, format!("{attempts:.3} attempts per commit"));
        let (messages, switch_txns) = (c.global.msgs_to_switch, c.global.switch.txns_executed);
        require(
            !floors.switch_free || (messages == 0 && switch_txns == 0),
            format!("{messages} messages to the switch, {switch_txns} switch transactions"),
        );
        require(c.stats.switch_timeouts == 0, format!("{} switch timeouts", c.stats.switch_timeouts));
        failures
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    /// `BENCHMARK.json` is what the driver reads; the tables above are what
    /// the program emits. They must name the same things.
    #[test]
    fn benchmark_json_lists_exactly_these_workloads_and_metrics() {
        let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json")).unwrap();
        let doc = Json::parse(&text).unwrap();
        let keys: Vec<&str> = doc.entries().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]);

        let listed: Vec<(&str, &str)> = doc
            .get("workloads")
            .unwrap()
            .items()
            .iter()
            .map(|w| (w.get("name").unwrap().str().unwrap(), w.get("why").unwrap().str().unwrap()))
            .collect();
        let ours: Vec<(&str, String)> =
            WORKLOADS.iter().map(|w| (w.name, w.why.split_whitespace().collect::<Vec<_>>().join(" "))).collect();
        assert_eq!(listed.len(), ours.len());
        for ((name, why), (our_name, our_why)) in listed.iter().zip(&ours) {
            assert_eq!(name, our_name);
            assert_eq!(why, our_why);
            assert!(why.len() <= 200 && !why.contains('\n'), "{name}: why is {} characters", why.len());
        }

        for (key, table, bounded) in [("end_to_end", END_TO_END, true), ("per_layer", PER_LAYER, false)] {
            let items = doc.get(key).unwrap().items();
            assert_eq!(items.len(), table.len(), "{key}");
            for (item, metric) in items.iter().zip(table) {
                assert_eq!(item.get("name").unwrap().str(), Some(metric.name));
                assert_eq!(item.get("unit").unwrap().str(), Some(metric.unit), "{}", metric.name);
                assert_eq!(item.get("better").unwrap().str(), Some(metric.better.label()), "{}", metric.name);
                if bounded {
                    assert_eq!(item.get("bound").unwrap().num(), Some(metric.bound), "{}", metric.name);
                    assert!(metric.bound > 0.0 && metric.bound <= 0.25);
                } else {
                    assert_eq!(item.entries().len(), 3, "{}", metric.name);
                }
            }
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
    }

    #[test]
    fn read_only_rewrite_keeps_the_footprint_and_drops_the_writes() {
        let spec = find("ycsb_readmostly").unwrap();
        let workload = spec.workload();
        let ctx = WorkloadCtx::new(NODES, p4db::NodeId(0), spec.distributed);
        let mut rng = FastRng::new(7);
        let mut read_only = 0;
        for _ in 0..2_000 {
            let req = spec.next_request(workload.as_ref(), &ctx, &mut rng);
            assert_eq!(req.ops.len(), 8);
            if req.read_only {
                read_only += 1;
                assert!(req.ops.iter().all(|op| op.kind == OpKind::Read));
            }
        }
        assert!((1_700..=1_900).contains(&read_only), "{read_only} of 2000 read-only");
    }
}
