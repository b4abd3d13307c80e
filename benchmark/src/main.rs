//! The repo benchmark: six closed-loop workloads driven through the public
//! client path for the end-to-end numbers, and an outside-in traced run for
//! the per-layer numbers. See README.md in this directory.

mod affinity;
mod counters;
mod json;
mod load;
mod probes;
mod procfs;
mod round;
mod run;
mod spec;
mod stats;
mod trace;

use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "\
usage: benchmark/run.sh [options]

  --workload NAME    one workload (default: all six); see BENCHMARK.json
  --seed N           seed of the generated inputs and of the cluster (default 42)
  --rounds R         timed rounds per run, each a fresh process (default 5)
  --round-secs S     length of one timed window (default 5)
  --selfcheck        run everything twice, second time in reverse order, and
                     hold the two sets of medians against the bounds
  --smoke            1 round x 1 s and a short traced run: schema check only

driver contract (one workload, one JSON result object on the last line):
  --workload NAME --seed N --seconds S --trace 0|1
      --trace 0  verification round + timed rounds sharing S seconds of timed
                 window: the end-to-end metrics
      --trace 1  the traced run, S seconds of traffic: the per-layer metrics
";

/// The parsed command line.
#[derive(Default, Debug)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: Option<u64>,
    pub seconds: Option<f64>,
    pub trace: Option<bool>,
    pub rounds: Option<u32>,
    pub round_secs: Option<f64>,
    pub selfcheck: bool,
    pub smoke: bool,
    /// Internal: this process is one child of a run (`round`, `setup`,
    /// `verify` or `trace`), with its parameters.
    pub child: Option<String>,
    pub round: u64,
    pub warmup_ms: u64,
    pub window_ms: u64,
    /// Internal: seconds after which a child gives up and exits non-zero, so
    /// a wedged cluster fails the run instead of hanging it.
    pub budget_s: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or_else(|| format!("{flag} needs {what}"));
        fn parsed<T: std::str::FromStr>(flag: &str, text: String) -> Result<T, String> {
            text.parse().map_err(|_| format!("{flag}: cannot read `{text}`"))
        }
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => args.seed = Some(parsed(&flag, value("a number")?)?),
            "--seconds" => args.seconds = Some(parsed(&flag, value("a number")?)?),
            "--trace" => {
                args.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            "--rounds" => args.rounds = Some(parsed(&flag, value("a number")?)?),
            "--round-secs" => args.round_secs = Some(parsed(&flag, value("a number")?)?),
            "--selfcheck" => args.selfcheck = true,
            "--smoke" => args.smoke = true,
            "--child" => args.child = Some(value("a child kind")?),
            "--round" => args.round = parsed(&flag, value("a number")?)?,
            "--warmup-ms" => args.warmup_ms = parsed(&flag, value("a number")?)?,
            "--window-ms" => args.window_ms = parsed(&flag, value("a number")?)?,
            "--budget-s" => args.budget_s = Some(parsed(&flag, value("a number")?)?),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    for (flag, secs) in [("--seconds", args.seconds), ("--round-secs", args.round_secs)] {
        if secs.is_some_and(|s| !(s > 0.0 && s <= 600.0)) {
            return Err(format!("{flag} must be between 0 and 600"));
        }
    }
    if args.rounds == Some(0) {
        return Err("--rounds must be at least 1".into());
    }
    Ok(args)
}

/// Runs one child kind in this process and prints its result object as the
/// last line of standard output.
fn child_main(kind: &str, args: &Args) -> Result<(), String> {
    let name = args.workload.as_deref().ok_or("a child needs --workload")?;
    let spec = spec::find(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let seed = args.seed.unwrap_or(run::DEFAULT_SEED);
    if let Some(budget) = args.budget_s {
        let kind = kind.to_string();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_secs(budget));
            eprintln!("error: the {kind} child of {} exceeded its budget of {budget} s", spec.name);
            std::process::exit(3);
        });
    }
    let warmup = Duration::from_millis(args.warmup_ms);
    let window = Duration::from_millis(args.window_ms);
    let result = match kind {
        "round" => round::timed_round(spec, seed, args.round, warmup, window)?,
        "setup" => round::setup_only(spec, seed),
        "verify" => round::verify_round(spec, seed, window)?,
        "trace" => trace::traced_run(spec, seed, window)?,
        other => return Err(format!("unknown child kind `{other}`")),
    };
    println!("{}", result.render());
    // The result is out; tearing down a cluster that holds gigabytes of log
    // is not part of any measurement.
    std::process::exit(0);
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            if !message.is_empty() {
                eprintln!("error: {message}\n");
            }
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match &args.child {
        Some(kind) => child_main(kind, &args).map(|()| true),
        None => run::main(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(1)
        }
    }
}
