//! Fluent cluster construction.
//!
//! [`ClusterBuilder`] is the one way to build a [`Cluster`]: start from
//! [`Cluster::builder`], override what the experiment needs, and `build()`.
//! [`ClusterConfig`] is the resolved form it produces, read back through
//! [`Cluster::config`].

use crate::cluster::{Cluster, ClusterConfig};
use p4db_common::faults::FaultPlan;
use p4db_common::{CcScheme, LatencyConfig, Result, SystemMode};
use p4db_layout::LayoutStrategy;
use p4db_storage::DEFAULT_SEGMENT_RECORDS;
use p4db_switch::SwitchConfig;
use p4db_workloads::Workload;
use std::sync::Arc;

/// Fluent builder for a [`Cluster`].
///
/// ```
/// use p4db_common::{CcScheme, SystemMode};
/// use p4db_core::Cluster;
/// use p4db_workloads::{Workload, Ycsb, YcsbConfig, YcsbMix};
/// use std::sync::Arc;
///
/// let workload: Arc<dyn Workload> =
///     Arc::new(Ycsb::new(YcsbConfig { keys_per_node: 1_000, ..YcsbConfig::new(YcsbMix::A) }));
/// let cluster = Cluster::builder(workload)
///     .nodes(4)
///     .workers(2)
///     .mode(SystemMode::P4db)
///     .cc(CcScheme::NoWait)
///     .test_latencies() // zero-latency functional profile; omit to measure
///     .build();
/// assert_eq!(cluster.config().num_nodes, 4);
/// ```
pub struct ClusterBuilder {
    workload: Arc<dyn Workload>,
    config: ClusterConfig,
}

impl ClusterBuilder {
    /// Starts from the default experiment configuration: a 4×4 P4DB
    /// cluster, NO_WAIT, 20% distributed transactions, batch size 16 — the
    /// paper's 8×8–20 configuration scaled down so it can be driven by the
    /// slow-motion latency profile on machines with few cores (see
    /// `LatencyConfig::bench_profile`).
    pub fn new(workload: Arc<dyn Workload>) -> Self {
        let config = ClusterConfig {
            num_nodes: 4,
            workers_per_node: 4,
            num_switches: 1,
            mode: SystemMode::P4db,
            cc: CcScheme::NoWait,
            latency: LatencyConfig::bench_profile(),
            switch: SwitchConfig::tofino_defaults(),
            layout: LayoutStrategy::Declustered,
            distributed_prob: 0.2,
            chiller: false,
            batch_size: 16,
            wal_segment_records: DEFAULT_SEGMENT_RECORDS,
            checkpoint_interval: None,
            seed: 42,
            faults: None,
            breaker: false,
        };
        ClusterBuilder { workload, config }
    }

    /// Number of database nodes.
    pub fn nodes(mut self, num_nodes: u16) -> Self {
        self.config.num_nodes = num_nodes;
        self
    }

    /// Executor threads per node (the submission pool size; also the
    /// closed-loop driver's generator count).
    pub fn workers(mut self, workers_per_node: u16) -> Self {
        self.config.workers_per_node = workers_per_node;
        self
    }

    /// Number of programmable switches the hot set is partitioned over.
    /// Defaults to 1 — the paper's single-switch topology, byte-compatible
    /// with every previous configuration. With `n >= 2` the hot set is split
    /// across the switches by the capacity-aware co-access assignment and
    /// each switch runs its own data-plane engine; hot transactions touching
    /// tuples owned by two switches fall back to the host path. `0` is
    /// rejected by [`ClusterBuilder::try_build`] as
    /// [`p4db_common::Error::InvalidConfig`].
    pub fn switches(mut self, num_switches: u16) -> Self {
        self.config.num_switches = num_switches;
        self
    }

    /// System variant: No-Switch, LM-Switch or full P4DB.
    pub fn mode(mut self, mode: SystemMode) -> Self {
        self.config.mode = mode;
        self
    }

    /// Host concurrency-control scheme for cold/warm transactions.
    pub fn cc(mut self, cc: CcScheme) -> Self {
        self.config.cc = cc;
        self
    }

    /// Network latency model.
    pub fn latency(mut self, latency: LatencyConfig) -> Self {
        self.config.latency = latency;
        self
    }

    /// Switch pipeline geometry.
    pub fn switch(mut self, switch: SwitchConfig) -> Self {
        self.config.switch = switch;
        self
    }

    /// Hot-set layout strategy.
    pub fn layout(mut self, layout: LayoutStrategy) -> Self {
        self.config.layout = layout;
        self
    }

    /// Fraction of *generated* transactions that are distributed (only
    /// affects the built-in workload generators, not ad-hoc sessions).
    pub fn distributed_prob(mut self, prob: f64) -> Self {
        self.config.distributed_prob = prob;
        self
    }

    /// Chiller-style contention-centric host execution (Fig 18b baseline).
    pub fn chiller(mut self, chiller: bool) -> Self {
        self.config.chiller = chiller;
        self
    }

    /// Hot-path batching degree for both the switch engine (packets dequeued
    /// and replies coalesced per scheduling quantum) and the executor pool:
    /// the upper bound on an executor's share of the node's submission queue
    /// (`⌈queued ÷ workers⌉` jobs), whose all-hot transactions share one
    /// switch exchange, intents and results group-committed. `1` disables
    /// batching and reproduces the unbatched behaviour exactly; values below
    /// 1 are clamped to 1.
    pub fn batch_size(mut self, batch_size: u16) -> Self {
        self.config.batch_size = batch_size.max(1);
        self
    }

    /// Records per sealed WAL segment (clamped to at least 1).
    pub fn wal_segment_records(mut self, records: usize) -> Self {
        self.config.wal_segment_records = records.max(1);
        self
    }

    /// Fuzzy-checkpoint cadence for [`Cluster::maybe_checkpoint`]: a node is
    /// checkpointed once its own WAL grows by this many records since its
    /// last complete checkpoint.
    pub fn checkpoint_interval(mut self, records: u64) -> Self {
        self.config.checkpoint_interval = Some(records.max(1));
        self
    }

    /// RNG seed for generators and backoff.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Attaches a seeded fault-injection plan: the fabric drops, delays and
    /// reorders messages per the plan, workers use its short switch-reply
    /// timeout (lost packets surface as in-doubt transactions instead of
    /// stalls), and the switch keeps its data-plane audit log so the
    /// `p4db-chaos` invariant checker can verify the run afterwards.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.config.faults = Some(plan);
        self
    }

    /// Per-switch circuit breakers for the self-healing path. Off by
    /// default: switch timeouts surface as in-doubt commits but never demote
    /// traffic. On, [`p4db_txn::health::TRIP_THRESHOLD`] consecutive
    /// timeouts open a switch's breaker (its hot transactions fast-fail to
    /// the host 2PL path) and [`p4db_txn::health::CLOSE_THRESHOLD`]
    /// consecutive answered probes re-admit it.
    pub fn breaker(mut self, enabled: bool) -> Self {
        self.config.breaker = enabled;
        self
    }

    /// Zero latencies and a tiny switch: the functional-test profile, for
    /// when wall-clock time is irrelevant.
    pub fn test_latencies(mut self) -> Self {
        self.config.latency = LatencyConfig::zero();
        self.config.switch = SwitchConfig::tiny();
        self
    }

    /// The full functional-test profile: 2 nodes × 2 workers with
    /// [`ClusterBuilder::test_latencies`].
    pub fn test_profile(self) -> Self {
        self.nodes(2).workers(2).test_latencies()
    }

    /// The resolved configuration as built so far.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Builds the cluster: loads every partition, plans and offloads the hot
    /// set, starts the switch and the submission pool.
    ///
    /// # Panics
    /// Panics on an invalid configuration; see [`ClusterBuilder::try_build`]
    /// for the error-reporting variant.
    pub fn build(self) -> Cluster {
        self.try_build().expect("failed to build cluster")
    }

    /// Like [`ClusterBuilder::build`], but reports construction failures
    /// (invalid switch geometry, exhausted worker-id space) as errors.
    pub fn try_build(self) -> Result<Cluster> {
        Cluster::try_build(self.config, self.workload)
    }
}
