//! Counters the program already exposes, read from outside over one phase
//! of traffic: `Session::stats`, `Cluster::switch_stats_at`, the latency
//! model's message counts, `LockTable::wait_stats` / `acquisition_count`,
//! `Wal::len` / `serialize_segments`.

use crate::stats::Tally;
use p4db::common::stats::WorkerStats;
use p4db::switch::SwitchStatsSnapshot;
use p4db::{Cluster, SwitchId};

/// The cluster-wide monotone counters at one instant.
#[derive(Copy, Clone, Default, Debug)]
pub struct Global {
    pub msgs_to_switch: u64,
    pub msgs_to_nodes: u64,
    pub multicasts: u64,
    pub switch: SwitchStatsSnapshot,
    pub lock_acquisitions: u64,
    pub lock_waits: u64,
    pub lock_wait_ns: u64,
    pub wal_records: u64,
    pub wal_bytes: u64,
}

impl Global {
    pub fn read(cluster: &Cluster) -> Global {
        let shared = cluster.shared();
        let (msgs_to_switch, msgs_to_nodes, multicasts) = shared.latency.stats().snapshot();
        let mut g = Global { msgs_to_switch, msgs_to_nodes, multicasts, ..Global::default() };
        for s in 0..cluster.num_switches() {
            let stats = cluster.switch_stats_at(SwitchId(s as u16));
            g.switch.txns_executed += stats.txns_executed;
            g.switch.single_pass += stats.single_pass;
            g.switch.multi_pass += stats.multi_pass;
            g.switch.passes += stats.passes;
            g.switch.recirc_waiting += stats.recirc_waiting;
            g.switch.recirc_owner += stats.recirc_owner;
            g.switch.multicasts += stats.multicasts;
        }
        for node in &shared.nodes {
            let waits = node.locks().wait_stats();
            g.lock_acquisitions += node.locks().acquisition_count();
            g.lock_waits += waits.waits;
            g.lock_wait_ns += waits.total_wait_ns;
            g.wal_records += node.wal().len() as u64;
            g.wal_bytes += node.wal().serialize_segments().iter().map(|blob| blob.len() as u64).sum::<u64>();
        }
        g
    }

    fn since(&self, earlier: &Global) -> Global {
        Global {
            msgs_to_switch: self.msgs_to_switch - earlier.msgs_to_switch,
            msgs_to_nodes: self.msgs_to_nodes - earlier.msgs_to_nodes,
            multicasts: self.multicasts - earlier.multicasts,
            switch: SwitchStatsSnapshot {
                txns_executed: self.switch.txns_executed - earlier.switch.txns_executed,
                single_pass: self.switch.single_pass - earlier.switch.single_pass,
                multi_pass: self.switch.multi_pass - earlier.switch.multi_pass,
                passes: self.switch.passes - earlier.switch.passes,
                recirc_waiting: self.switch.recirc_waiting - earlier.switch.recirc_waiting,
                recirc_owner: self.switch.recirc_owner - earlier.switch.recirc_owner,
                multicasts: self.switch.multicasts - earlier.switch.multicasts,
                ..SwitchStatsSnapshot::default()
            },
            lock_acquisitions: self.lock_acquisitions - earlier.lock_acquisitions,
            lock_waits: self.lock_waits - earlier.lock_waits,
            lock_wait_ns: self.lock_wait_ns - earlier.lock_wait_ns,
            wal_records: self.wal_records - earlier.wal_records,
            wal_bytes: self.wal_bytes - earlier.wal_bytes,
        }
    }
}

/// Everything counted over one phase of traffic.
#[derive(Clone, Default, Debug)]
pub struct Counters {
    /// The clients' own outcome counts.
    pub tally: Tally,
    /// The sessions' merged statistics over the same phase.
    pub stats: WorkerStats,
    /// How far the cluster-wide counters moved.
    pub global: Global,
    pub cpu_us: u64,
}

impl Counters {
    pub fn new(tally: Tally, stats: WorkerStats, start: &Global, end: &Global, cpu_us: u64) -> Counters {
        Counters { tally, stats, global: end.since(start), cpu_us }
    }

    /// `count` per committed transaction (0 when nothing committed).
    pub fn per_commit(&self, count: u64) -> f64 {
        ratio(count, self.stats.committed_total())
    }

    pub fn hot_share(&self) -> f64 {
        self.per_commit(self.stats.committed_hot)
    }

    pub fn warm_share(&self) -> f64 {
        self.per_commit(self.stats.committed_warm)
    }

    /// Execution attempts (commits plus aborted attempts) per commit.
    pub fn attempts_per_commit(&self) -> f64 {
        self.per_commit(self.stats.committed_total() + self.stats.aborts_total())
    }
}

/// `num / den`, `0.0` for an empty denominator.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}
