//! Regenerates every table and figure of the paper's evaluation section.
//!
//! Run with `cargo bench -p p4db-bench --bench figures`. Environment knobs:
//! `P4DB_MEASURE_MS` (per-point measurement time, default 250 ms),
//! `P4DB_FULL=1` (wider parameter sweeps) and `P4DB_BENCH_JSON` (output
//! path for the machine-readable datapoints, default `BENCH_23.json` at the
//! workspace root). Stdout is markdown. The figures that ran are
//! additionally serialised as `BenchPoint`s, merged by figure into the JSON
//! file, whose smoke emission the CI regression gate holds to its speedup
//! floors.

use p4db_bench::*;

type FigureFn = fn(&BenchProfile) -> p4db_core::FigureTable;

fn main() {
    let profile = BenchProfile::from_env();
    println!("# P4DB figure reproduction (measure = {:?}, full = {})\n", profile.measure, profile.full);

    let figures: Vec<(&str, FigureFn)> = vec![
        ("fig01", fig01_headline),
        ("fig11_contention", fig11_ycsb_contention),
        ("fig11_distributed", fig11_ycsb_distributed),
        ("fig12", fig12_hot_cold_breakdown),
        ("fig13", fig13_smallbank),
        ("fig14", fig14_tpcc),
        ("fig15ab", fig15ab_hot_ratio),
        ("fig15c", fig15c_optimizations),
        ("fig16", fig16_data_layout),
        ("fig17", fig17_capacity),
        ("fig18a", fig18a_latency_breakdown),
        ("fig18b", fig18b_existing_optimizations),
        ("fig_read_mix", fig_read_mix),
        ("fig_switch_scaling", fig_switch_scaling),
        ("fig_recovery", fig_recovery),
        ("fig_outage", fig_outage),
    ];

    // Allow running a subset: `cargo bench --bench figures -- fig13 fig14`.
    let filter: Vec<String> = std::env::args().skip(1).filter(|a| a.starts_with("fig")).collect();
    let mut points = Vec::new();
    for (name, f) in figures {
        if !filter.is_empty() && !filter.iter().any(|want| name.starts_with(want.as_str())) {
            continue;
        }
        eprintln!("[figures] running {name} ...");
        let table = f(&profile);
        table.print();
        points.extend(table.points);
    }
    if !points.is_empty() {
        let path = p4db_bench::json::output_path();
        p4db_bench::json::write_merged(&path, &points).expect("writing BENCH json");
        eprintln!("[figures] wrote {} datapoints to {}", points.len(), path.display());
    }
}
