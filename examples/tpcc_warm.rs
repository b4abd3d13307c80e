//! TPC-C with warm transactions.
//!
//! TPC-C's NewOrder and Payment transactions mix contended counters (district
//! `next_o_id`, warehouse/district YTD totals, hot stock) with cold work
//! (customer rows, order/order-line/history inserts). In P4DB they execute as
//! *warm* transactions: the cold part under 2PL on the nodes, the hot part as
//! an abort-free sub-transaction on the switch, stitched into the commit
//! protocol (§6.2). This example compares No-Switch and P4DB under different
//! degrees of distribution and prints the latency breakdown of Fig 18a.
//!
//! Run with: `cargo run --release --example tpcc_warm`

use p4db::common::stats::PHASES;
use p4db::common::{CcScheme, SystemMode};
use p4db::core::{Cluster, Load, Stop};
use p4db::workloads::{Tpcc, TpccConfig, Workload};
use std::sync::Arc;

fn main() {
    let workload: Arc<dyn Workload> = Arc::new(Tpcc::new(TpccConfig { items_loaded: 5_000, ..TpccConfig::new(8) }));
    // Transactions each of the 16 closed-loop sessions settles.
    let per_session = 100;

    for distributed in [0.2, 0.75] {
        println!("== TPC-C 8 warehouses, {:.0}% distributed ==", distributed * 100.0);
        let mut baseline = None;
        for mode in [SystemMode::NoSwitch, SystemMode::P4db] {
            let cluster = Cluster::builder(Arc::clone(&workload))
                .mode(mode)
                .cc(CcScheme::NoWait)
                .distributed_prob(distributed)
                .build();
            let stats = cluster.drive(Load::new(Stop::Txns(per_session))).expect("drive failed");
            assert_eq!(
                stats.merged.committed_total() + stats.failed,
                16 * per_session as u64,
                "{}: every submitted transaction settles",
                mode.label()
            );
            assert!(
                stats.attempts_per_commit() < 3.0,
                "{}: {:.2} attempts per commit",
                mode.label(),
                stats.attempts_per_commit()
            );
            println!(
                "  {:<10} {:>9.0} txn/s   abort rate {:>5.1}%   warm share {:>5.1}%",
                mode.label(),
                stats.throughput(),
                stats.abort_rate() * 100.0,
                100.0 * stats.merged.committed_warm as f64 / stats.merged.committed_total().max(1) as f64
            );
            print!("    latency breakdown:");
            for (phase, d) in stats.phase_breakdown() {
                if PHASES.contains(&phase) {
                    print!("  {} {:.0}µs", phase.label(), d.as_secs_f64() * 1e6);
                }
            }
            println!();
            match mode {
                SystemMode::NoSwitch => baseline = Some(stats.throughput()),
                SystemMode::P4db => {
                    if let Some(base) = baseline {
                        if base > 0.0 {
                            println!("    speedup over No-Switch: {:.2}x", stats.throughput() / base);
                        }
                    }
                    let sw = cluster.switch_stats();
                    println!(
                        "    switch sub-transactions: {} ({:.0}% single-pass, {} multicast decisions)",
                        sw.txns_executed,
                        sw.single_pass_fraction() * 100.0,
                        sw.multicasts
                    );
                }
                _ => {}
            }
        }
        println!();
    }
}
