//! Quickstart: build a 4-node P4DB cluster with a simulated programmable
//! switch, run YCSB-A with and without in-switch transaction processing, and
//! print the resulting throughput and speedup.
//!
//! Run with: `cargo run --release --example quickstart`

use p4db::common::{CcScheme, SystemMode};
use p4db::core::{Cluster, Load, Stop};
use p4db::workloads::{Workload, Ycsb, YcsbConfig, YcsbMix};
use std::sync::Arc;

fn main() {
    let workload: Arc<dyn Workload> =
        Arc::new(Ycsb::new(YcsbConfig { keys_per_node: 20_000, ..YcsbConfig::new(YcsbMix::A) }));
    // Transactions each of the 16 closed-loop sessions settles.
    let per_session = 150;

    println!("P4DB quickstart — YCSB-A, 4 nodes x 4 workers, 20% distributed transactions\n");

    let mut results = Vec::new();
    for mode in [SystemMode::NoSwitch, SystemMode::LmSwitch, SystemMode::P4db] {
        let cluster =
            Cluster::builder(Arc::clone(&workload)).nodes(4).workers(4).mode(mode).cc(CcScheme::NoWait).build();
        println!(
            "[{}] built: {} hot tuples, {} offloaded to the switch",
            mode.label(),
            cluster.hot_set_size(),
            cluster.offloaded_tuples()
        );
        let stats = cluster.drive(Load::new(Stop::Txns(per_session))).expect("drive failed");
        println!(
            "[{}] throughput = {:.0} txn/s, abort rate = {:.1}%, hot share = {:.0}%, mean latency = {:.0}µs",
            mode.label(),
            stats.throughput(),
            stats.abort_rate() * 100.0,
            stats.hot_fraction() * 100.0,
            stats.mean_latency().as_secs_f64() * 1e6
        );
        if mode == SystemMode::P4db {
            let sw = cluster.switch_stats();
            println!(
                "[{}] switch executed {} transactions ({:.0}% single-pass)",
                mode.label(),
                sw.txns_executed,
                sw.single_pass_fraction() * 100.0
            );
        }
        assert_eq!(
            stats.merged.committed_total() + stats.failed,
            16 * per_session as u64,
            "{}: every submitted transaction settles",
            mode.label()
        );
        results.push((mode, stats));
        println!();
    }

    let baseline = results.iter().find(|(m, _)| *m == SystemMode::NoSwitch).unwrap().1.throughput();
    for (mode, stats) in &results {
        if *mode != SystemMode::NoSwitch && baseline > 0.0 {
            println!("{} speedup over No-Switch: {:.2}x", mode.label(), stats.throughput() / baseline);
        }
    }
}
