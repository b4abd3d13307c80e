//! Regenerates every table and figure of the paper's evaluation section.
//!
//! Run with `cargo bench -p p4db-bench --bench figures [-- fig13 fig14]`:
//! each argument selects the figures whose names start with it (none
//! selects every figure of `p4db_bench::FIGURES`), and an argument that
//! matches no figure is an error. Environment knobs: `P4DB_MEASURE_MS`
//! (per-point measurement time in whole milliseconds, default 250),
//! `P4DB_FULL=1` (wider parameter sweeps) and `P4DB_BENCH_JSON` (output
//! path for the machine-readable datapoints, default `BENCH_23.json` at the
//! workspace root). Stdout is markdown. The figures that ran are
//! additionally serialised as `BenchPoint`s, merged by figure into the JSON
//! file, whose smoke emission the CI regression gate holds to the floors of
//! `p4db_bench::json::FLOORS`.

use p4db_bench::{json, select, BenchProfile};
use std::process::ExitCode;

fn main() -> ExitCode {
    // Cargo passes `--bench`; every other argument is a figure filter.
    let filters: Vec<String> = std::env::args().skip(1).filter(|a| !a.starts_with('-')).collect();
    let (profile, figures) = match BenchProfile::from_env().and_then(|p| Ok((p, select(&filters)?))) {
        Ok(chosen) => chosen,
        Err(e) => {
            eprintln!("figures: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("# P4DB figure reproduction (measure = {:?}, full = {})\n", profile.measure, profile.full);

    let mut points = Vec::new();
    for (name, run) in figures {
        eprintln!("[figures] running {name} ...");
        let table = run(&profile);
        table.print();
        points.extend(table.points);
    }
    let path = json::output_path();
    json::write_merged(&path, &points).expect("writing BENCH json");
    eprintln!("[figures] wrote {} datapoints to {}", points.len(), path.display());
    ExitCode::SUCCESS
}
