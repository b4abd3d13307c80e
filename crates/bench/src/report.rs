//! Tabular reporting and the `BENCH_*.json` datapoint: every bench target
//! prints the rows/series of the paper figure it reproduces through a
//! [`FigureTable`], and additionally records each measured data point as a
//! machine-readable [`BenchPoint`] — the raw numbers behind the formatted
//! cells — which the bench targets serialise into `BENCH_*.json` (see
//! [`crate::json`]) for regression tracking.

use p4db_common::stats::RunStats;

/// One machine-readable benchmark datapoint with the stable schema
/// `{figure, params, tps, p50_us, p99_us, speedup}` serialised into
/// `BENCH_*.json`. `speedup` is relative to the row's baseline system
/// (`1.0` when the row has none).
#[derive(Clone, Debug, PartialEq)]
pub struct BenchPoint {
    /// Figure identifier (`fig01`, `fig13`, `micro`, ...).
    pub figure: String,
    /// Human-readable parameter key uniquely naming the datapoint within its
    /// figure (workload, worker count, sweep value, ...).
    pub params: String,
    /// Committed transactions per second of the system under test.
    pub tps: f64,
    /// Median commit latency in microseconds.
    pub p50_us: f64,
    /// 99th-percentile commit latency in microseconds.
    pub p99_us: f64,
    /// Throughput relative to the row's baseline system.
    pub speedup: f64,
}

impl BenchPoint {
    /// Builds a datapoint from a measured run, taking latency quantiles from
    /// its merged histogram and the speedup from the optional baseline run.
    pub fn from_run(
        figure: impl Into<String>,
        params: impl Into<String>,
        system: &RunStats,
        baseline: Option<&RunStats>,
    ) -> Self {
        BenchPoint {
            figure: figure.into(),
            params: params.into(),
            tps: system.throughput(),
            p50_us: system.merged.commit_latency.quantile(0.5).as_secs_f64() * 1e6,
            p99_us: system.merged.commit_latency.quantile(0.99).as_secs_f64() * 1e6,
            speedup: baseline.map(|b| speedup(system, b)).unwrap_or(1.0),
        }
    }

    /// Builds a datapoint from raw rates (microbenchmarks without a
    /// latency histogram): `per_op_us` stands in for both quantiles.
    pub fn from_rates(
        figure: impl Into<String>,
        params: impl Into<String>,
        ops_per_sec: f64,
        per_op_us: f64,
        speedup: f64,
    ) -> Self {
        BenchPoint {
            figure: figure.into(),
            params: params.into(),
            tps: ops_per_sec,
            p50_us: per_op_us,
            p99_us: per_op_us,
            speedup,
        }
    }
}

/// One reproduced figure (or sub-figure): a title plus a simple table, and
/// the machine-readable datapoints behind the formatted rows.
#[derive(Clone, Debug)]
pub struct FigureTable {
    pub title: String,
    pub headers: Vec<String>,
    pub rows: Vec<Vec<String>>,
    pub points: Vec<BenchPoint>,
    /// Lines printed under the table.
    pub notes: Vec<String>,
}

impl FigureTable {
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        FigureTable {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            points: Vec::new(),
            notes: Vec::new(),
        }
    }

    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.headers.len(), "row width must match headers");
        self.rows.push(row);
    }

    /// Records the machine-readable datapoint behind the most recent row(s).
    pub fn push_point(&mut self, point: BenchPoint) {
        self.points.push(point);
    }

    /// Renders the table as github-flavoured markdown (the bench output).
    pub fn to_markdown(&self) -> String {
        let mut out = format!("### {}\n\n", self.title);
        out.push_str(&format!("| {} |\n", self.headers.join(" | ")));
        out.push_str(&format!("|{}\n", "---|".repeat(self.headers.len())));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        for note in &self.notes {
            out.push_str(&format!("\n{note}\n"));
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        println!("{}", self.to_markdown());
    }
}

/// Formats a throughput in transactions/second with a thousands separator.
pub fn fmt_tps(tps: f64) -> String {
    if tps >= 1_000_000.0 {
        format!("{:.2}M", tps / 1_000_000.0)
    } else if tps >= 1_000.0 {
        format!("{:.1}K", tps / 1_000.0)
    } else {
        format!("{tps:.0}")
    }
}

/// Formats a speedup factor.
pub fn fmt_speedup(speedup: f64) -> String {
    format!("{speedup:.2}x")
}

/// Formats a run's transaction-class mix: hot / warm / cold commits plus the
/// cross-switch fallbacks — transactions whose hot set spanned more than one
/// switch and were demoted to the host 2PL path (always 0 in a single-switch
/// topology). The multi-switch figures print this next to the throughput so
/// a poor switch assignment is visible as a high `xswitch` share.
pub fn fmt_class_mix(stats: &RunStats) -> String {
    let m = &stats.merged;
    format!(
        "hot={} warm={} cold={} xswitch={}",
        m.committed_hot, m.committed_warm, m.committed_cold, m.cross_switch_fallback
    )
}

/// Speedup of `system` over `baseline` throughput.
pub fn speedup(system: &RunStats, baseline: &RunStats) -> f64 {
    let base = baseline.throughput();
    if base <= f64::EPSILON {
        0.0
    } else {
        system.throughput() / base
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4db_common::stats::{TxnClass, WorkerStats};
    use std::time::Duration;

    fn run_with(commits: u64) -> RunStats {
        let mut w = WorkerStats::new();
        for _ in 0..commits {
            w.record_commit(TxnClass::Cold, Duration::from_micros(1));
        }
        RunStats::from_workers([&w], Duration::from_secs(1))
    }

    #[test]
    fn markdown_table_has_header_separator_and_rows() {
        let mut t = FigureTable::new("Fig X", &["a", "b"]);
        t.push_row(vec!["1".into(), "2".into()]);
        let md = t.to_markdown();
        assert!(md.contains("### Fig X"));
        assert!(md.contains("| a | b |"));
        assert!(md.contains("|---|---|"));
        assert!(md.contains("| 1 | 2 |"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_width_is_rejected() {
        let mut t = FigureTable::new("Fig", &["a"]);
        t.push_row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn speedup_and_formatting() {
        let fast = run_with(3_000);
        let slow = run_with(1_000);
        assert!((speedup(&fast, &slow) - 3.0).abs() < 1e-9);
        assert_eq!(fmt_speedup(3.0), "3.00x");
        assert_eq!(fmt_tps(1_500.0), "1.5K");
        assert_eq!(fmt_tps(2_500_000.0), "2.50M");
        assert_eq!(fmt_tps(12.0), "12");
    }

    #[test]
    fn class_mix_reports_cross_switch_fallbacks() {
        let mut w = WorkerStats::new();
        w.record_commit(TxnClass::Hot, Duration::from_micros(1));
        w.record_commit(TxnClass::Warm, Duration::from_micros(1));
        w.cross_switch_fallback = 3;
        let stats = RunStats::from_workers([&w], Duration::from_secs(1));
        assert_eq!(fmt_class_mix(&stats), "hot=1 warm=1 cold=0 xswitch=3");
    }

    #[test]
    fn zero_baseline_speedup_is_zero() {
        let fast = run_with(100);
        let zero = run_with(0);
        assert_eq!(speedup(&fast, &zero), 0.0);
    }

    #[test]
    fn bench_point_from_run_carries_rates_and_quantiles() {
        let fast = run_with(3_000);
        let slow = run_with(1_000);
        let point = BenchPoint::from_run("fig01", "YCSB-A", &fast, Some(&slow));
        assert_eq!(point.figure, "fig01");
        assert!((point.tps - 3_000.0).abs() < 1e-9);
        assert!((point.speedup - 3.0).abs() < 1e-9);
        assert!(point.p50_us > 0.0 && point.p99_us >= point.p50_us);
        let no_base = BenchPoint::from_run("fig01", "YCSB-A", &fast, None);
        assert_eq!(no_base.speedup, 1.0);
        let raw = BenchPoint::from_rates("micro", "wal", 5e6, 0.2, 1.0);
        assert_eq!(raw.p50_us, raw.p99_us);
    }

    #[test]
    fn figure_table_accumulates_points() {
        let mut t = FigureTable::new("Fig", &["a"]);
        t.push_point(BenchPoint::from_rates("figx", "p", 1.0, 1.0, 1.0));
        assert_eq!(t.points.len(), 1);
    }
}
