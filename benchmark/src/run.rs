//! The parent process: spawns the child processes of a run, takes medians
//! over the rounds, prints and writes the results.

use crate::json::Json;
use crate::spec::{self, Better, Metric, Spec, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{median, quartiles};
use crate::Args;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

pub const DEFAULT_SEED: u64 = 42;

/// Where the full report and the span files go (relative to the checkout
/// root, which `run.sh` makes the working directory).
pub const OUT_DIR: &str = "benchmark/out";

/// The driver allows a run 180 s; children are told to give up before that.
const CONTRACT_DEADLINE: Duration = Duration::from_secs(170);

/// Timed rounds of a contract run. The issue's protocol is five 5 s rounds;
/// the driver's total time cap (136 runs in 3420 s) leaves about 20 s of
/// wall time per run, which fits four rounds of 3 s plus their set-up,
/// warm-up, the set-up-only processes and the verification round.
const CONTRACT_ROUNDS: u32 = 4;

struct Plan {
    seed: u64,
    rounds: u32,
    round: Duration,
    warmup: Duration,
    /// Set-up-only processes on top of the rounds: more samples of `setup_s`,
    /// which is 13 ms to 0.4 s and the metric a disturbed machine moves most.
    setups: u32,
    /// Traffic of the verification round.
    verify: Duration,
    /// Traffic of the traced run, all phases together.
    trace: Duration,
    deadline: Option<Instant>,
}

fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s)
}

fn child(kind: &str, spec: &Spec, plan: &Plan, round: u64, warmup: Duration, window: Duration) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let budget = match plan.deadline {
        Some(deadline) => deadline.saturating_duration_since(Instant::now()).as_secs().max(1),
        None => 900,
    };
    let output = Command::new(exe)
        .args(["--child", kind, "--workload", spec.name])
        .args(["--seed", &plan.seed.to_string(), "--round", &round.to_string()])
        .args(["--warmup-ms", &warmup.as_millis().to_string(), "--window-ms", &window.as_millis().to_string()])
        .args(["--budget-s", &budget.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {kind} child of {}: {e}", spec.name))?;
    if !output.status.success() {
        return Err(format!("the {kind} child of {} ended with {}", spec.name, output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or_else(|| format!("the {kind} child of {} printed nothing", spec.name))?;
    Json::parse(line).map_err(|e| format!("the {kind} child of {} printed no result object: {e}", spec.name))
}

fn field(obj: &Json, key: &str) -> f64 {
    obj.get(key).and_then(Json::num).unwrap_or(f64::NAN)
}

fn strings(obj: &Json, key: &str) -> Vec<String> {
    obj.get(key)
        .map(|list| list.items().iter().filter_map(|s| s.str().map(str::to_string)).collect())
        .unwrap_or_default()
}

/// The verification round and the timed rounds of one workload.
struct EndToEnd {
    verify: Json,
    rounds: Vec<Json>,
    /// `setup_s` of every round and every set-up-only process.
    setups: Vec<f64>,
}

impl EndToEnd {
    fn run(spec: &Spec, plan: &Plan) -> Result<EndToEnd, String> {
        let verify = child("verify", spec, plan, 0, Duration::ZERO, plan.verify)?;
        let rounds = (0..plan.rounds as u64)
            .map(|round| child("round", spec, plan, round, plan.warmup, plan.round))
            .collect::<Result<Vec<_>, _>>()?;
        // Failed transactions are counted, not fatal, but never silent.
        for (round, result) in rounds.iter().enumerate() {
            if let Some(error) = result.get("first_error").and_then(Json::str) {
                eprintln!(
                    "warning: {} round {round}: {} transactions failed, first: {error}",
                    spec.name,
                    field(result, "failed")
                );
            }
        }
        let mut setups: Vec<f64> = rounds.iter().map(|r| field(r, "setup_s")).collect();
        for _ in 0..plan.setups {
            setups.push(field(&child("setup", spec, plan, 0, Duration::ZERO, Duration::ZERO)?, "setup_s"));
        }
        Ok(EndToEnd { verify, rounds, setups })
    }

    /// The per-process values a metric's median is taken over.
    fn per_round(&self, key: &str) -> Vec<f64> {
        match key {
            "setup_s" => self.setups.clone(),
            _ => self.rounds.iter().map(|r| field(r, key)).collect(),
        }
    }

    fn total(&self, key: &str) -> f64 {
        self.per_round(key).iter().sum()
    }

    /// The value a run reports for a metric: the median over the rounds —
    /// except `setup_s`, where it is the fastest of the fresh processes'
    /// builds. A build is 13 ms to 0.4 s of page faults and thread creation,
    /// interference only ever adds to it, and the sandbox adds 30–60% for
    /// minutes at a time: over two sets of ten runs the median of eight
    /// builds spread up to 29% and drifted 17% between the sets, the minimum
    /// 16% and 5%.
    fn value(&self, metric: &Metric) -> f64 {
        let samples = self.per_round(metric.name);
        match metric.name {
            "setup_s" => samples.into_iter().fold(f64::INFINITY, f64::min),
            _ => median(&samples),
        }
    }

    fn failures(&self) -> Vec<String> {
        let mut failures = strings(&self.verify, "failures");
        for metric in END_TO_END {
            let value = self.value(metric);
            if !(value.is_finite() && value > 0.0) {
                failures.push(format!("{} is {value}, not a positive number", metric.name));
            }
        }
        failures
    }

    /// `{metric: {value (median over rounds), unit}}`.
    fn metrics(&self) -> Json {
        let mut metrics = Json::obj();
        for metric in END_TO_END {
            metrics.set(metric.name, Json::value_unit(self.value(metric), metric.unit));
        }
        metrics
    }

    /// The long form for `result.json`: median, quartiles, every round.
    fn report(&self) -> Json {
        let mut report = Json::obj();
        let mut metrics = Json::obj();
        for metric in END_TO_END {
            let values = self.per_round(metric.name);
            let (q1, q3) = quartiles(&values);
            let mut entry = Json::value_unit(self.value(metric), metric.unit);
            entry.set("q1", Json::Num(q1));
            entry.set("q3", Json::Num(q3));
            entry.set("rounds", Json::Arr(values.into_iter().map(Json::Num).collect()));
            entry.set("better", Json::Str(metric.better.label().into()));
            entry.set("bound", Json::Num(metric.bound));
            metrics.set(metric.name, entry);
        }
        report.set("end_to_end", metrics);
        for key in ["attempted", "committed", "rollback", "failed"] {
            report.set(key, Json::Num(self.total(key)));
        }
        report.set("verification", self.verify.clone());
        report
    }
}

/// The traced run of one workload: `{metrics, failures, attempted, failed}`.
fn traced(spec: &Spec, plan: &Plan) -> Result<Json, String> {
    let result = child("trace", spec, plan, 0, Duration::ZERO, plan.trace)?;
    let metrics = result.get("metrics").ok_or("the traced run printed no metrics")?;
    for metric in PER_LAYER {
        if !metrics.get(metric.name).and_then(|m| m.get("value")).and_then(Json::num).is_some_and(f64::is_finite) {
            return Err(format!("the traced run of {} has no finite `{}`", spec.name, metric.name));
        }
    }
    Ok(result)
}

fn report_failures(workload: &str, failures: &[String]) {
    for failure in failures {
        eprintln!("FAILED {workload}: {failure}");
    }
}

/// `--workload W --seed N --seconds S --trace T`: one run for the driver.
fn contract(spec: &Spec, args: &Args, trace: bool) -> Result<bool, String> {
    let seconds = args.seconds.ok_or("--trace needs --seconds")?;
    let rounds = args.rounds.unwrap_or(CONTRACT_ROUNDS);
    let plan = Plan {
        seed: args.seed.unwrap_or(DEFAULT_SEED),
        rounds,
        round: secs(args.round_secs.unwrap_or(seconds / rounds as f64)),
        warmup: secs(0.5),
        setups: 4,
        // Half the traffic of a full report: the invariant check and the two
        // restarts read the whole log, and the driver's time cap is tight.
        verify: secs(0.5),
        trace: secs(seconds),
        deadline: Some(Instant::now() + CONTRACT_DEADLINE),
    };
    let (failures, attempted, failed, metrics) = if trace {
        let result = traced(spec, &plan)?;
        let metrics = result.get("metrics").cloned().unwrap_or(Json::obj());
        (strings(&result, "failures"), field(&result, "attempted"), field(&result, "failed"), metrics)
    } else {
        let e2e = EndToEnd::run(spec, &plan)?;
        // Every round's values and the quartiles, beside the medians.
        write_out("last_run.json", &e2e.report())?;
        (e2e.failures(), e2e.total("attempted"), e2e.total("failed"), e2e.metrics())
    };
    report_failures(spec.name, &failures);
    let mut line = Json::obj();
    line.set("correct", Json::Bool(failures.is_empty()));
    line.set("attempted", Json::Num(attempted.max(1.0)));
    line.set("failed", Json::Num(failed));
    line.set("metrics", metrics);
    println!("{}", line.render());
    Ok(failures.is_empty())
}

/// One full set: every selected workload's verification, timed rounds and
/// traced run. Returns the per-workload reports and whether all was clean.
fn full_set(specs: &[&'static Spec], plan: &Plan) -> Result<(Json, bool), String> {
    let mut set = Json::obj();
    let mut clean = true;
    for spec in specs {
        eprintln!("== {} ==", spec.name);
        let e2e = EndToEnd::run(spec, plan)?;
        let trace = traced(spec, plan)?;
        let mut failures = e2e.failures();
        failures.extend(strings(&trace, "failures"));
        report_failures(spec.name, &failures);
        clean &= failures.is_empty();

        let mut report = e2e.report();
        report.set("why", Json::Str(spec.why.split_whitespace().collect::<Vec<_>>().join(" ")));
        report.set("per_layer", trace.get("metrics").cloned().unwrap_or(Json::obj()));
        report.set("failures", Json::Arr(failures.into_iter().map(Json::Str).collect()));
        set.set(spec.name, report);
    }
    // With both contended workloads measured in full, their ratio replaces
    // the traced run's quick estimate of the paper's headline speedup.
    let tps = |name: &str| set.get(name)?.get("end_to_end")?.get("committed_tps")?.get("value")?.num();
    if let (Some(host), Some(switch)) = (tps("ycsb_contended_host"), tps("ycsb_contended_switch")) {
        for name in specs.iter().map(|spec| spec.name) {
            let entry = set.get_mut(name).and_then(|r| r.get_mut("per_layer")?.get_mut("paper.speedup_contended"));
            if let Some(entry) = entry {
                entry.set("value", Json::Num(switch / host));
            }
        }
    }
    Ok((set, clean))
}

/// Prints one line per metric: `workload metric value unit`.
fn print_set(set: &Json) {
    for (workload, report) in set.entries() {
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            for metric in table {
                let entry = report.get(key).and_then(|m| m.get(metric.name));
                let value = entry.map_or(f64::NAN, |e| field(e, "value"));
                println!("{workload} {} {value} {}", metric.name, metric.unit);
            }
        }
        for key in ["attempted", "rollback", "failed"] {
            println!("{workload} {key} {} count", field(report, key));
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
fn worsening(metric: &Metric, a: f64, b: f64) -> f64 {
    match metric.better {
        Better::Higher => (a - b) / a,
        Better::Lower => (b - a) / a,
    }
}

/// Holds two sets of medians of the same code against the bounds, both ways
/// round. Returns the comparison table and whether every pair agrees.
fn compare_sets(first: &Json, second: &Json) -> (Json, bool) {
    let mut table = Json::obj();
    let mut agree = true;
    println!("\nselfcheck: first set vs second set (reverse order), worsening as a share of the other set");
    for (workload, _) in first.entries() {
        let mut row = Json::obj();
        for metric in END_TO_END {
            let value = |set: &Json| {
                set.get(workload)
                    .and_then(|r| r.get("end_to_end")?.get(metric.name)?.get("value")?.num())
                    .unwrap_or(f64::NAN)
            };
            let (a, b) = (value(first), value(second));
            let gap = worsening(metric, a, b).max(worsening(metric, b, a));
            let ok = gap <= metric.bound;
            agree &= ok;
            println!(
                "selfcheck {workload} {} {a} {b} gap {:.2}% bound {:.0}% {}",
                metric.name,
                gap * 100.0,
                metric.bound * 100.0,
                if ok { "ok" } else { "EXCEEDED" }
            );
            let mut cell = Json::obj();
            cell.set("first", Json::Num(a));
            cell.set("second", Json::Num(b));
            cell.set("gap", Json::Num(gap));
            cell.set("within_bound", Json::Bool(ok));
            row.set(metric.name, cell);
        }
        table.set(workload, row);
    }
    (table, agree)
}

/// Everything but the driver contract: the full report, `--selfcheck`,
/// `--smoke`.
fn full(specs: &[&'static Spec], args: &Args) -> Result<bool, String> {
    let plan = if args.smoke {
        Plan {
            seed: args.seed.unwrap_or(DEFAULT_SEED),
            rounds: 1,
            round: secs(1.0),
            warmup: secs(0.2),
            setups: 0,
            verify: secs(0.3),
            trace: secs(2.0),
            deadline: None,
        }
    } else {
        Plan {
            seed: args.seed.unwrap_or(DEFAULT_SEED),
            rounds: args.rounds.unwrap_or(5),
            round: secs(args.round_secs.unwrap_or(5.0)),
            warmup: secs(0.5),
            setups: 4,
            verify: secs(1.0),
            trace: secs(args.seconds.unwrap_or(12.0)),
            deadline: None,
        }
    };
    let (set, mut ok) = full_set(specs, &plan)?;
    print_set(&set);

    let mut result = Json::obj();
    result.set("claim", Json::Null);
    result.set("seed", Json::Num(plan.seed as f64));
    result.set("rounds", Json::Num(plan.rounds as f64));
    result.set("round_secs", Json::Num(plan.round.as_secs_f64()));
    result.set("available_parallelism", Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64));
    result.set("workloads", set.clone());
    if args.selfcheck {
        let reversed: Vec<&'static Spec> = specs.iter().rev().copied().collect();
        let (second, second_clean) = full_set(&reversed, &plan)?;
        let (table, agree) = compare_sets(&set, &second);
        ok &= second_clean && agree;
        result.set("selfcheck", table);
    }

    write_out("result.json", &result)?;
    eprintln!("wrote {OUT_DIR}/result.json");
    Ok(ok)
}

fn write_out(file: &str, document: &Json) -> Result<(), String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("cannot create {OUT_DIR}: {e}"))?;
    let path = format!("{OUT_DIR}/{file}");
    std::fs::write(&path, document.render() + "\n").map_err(|e| format!("cannot write {path}: {e}"))
}

pub fn main(args: &Args) -> Result<bool, String> {
    let specs: Vec<&'static Spec> = match args.workload.as_deref() {
        None | Some("all") => WORKLOADS.iter().collect(),
        Some(name) => vec![spec::find(name).ok_or_else(|| {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload `{name}`; the workloads are {}", names.join(", "))
        })?],
    };
    match args.trace {
        Some(trace) => match specs.as_slice() {
            [spec] => contract(spec, args, trace),
            _ => Err("--trace needs --workload with one workload".into()),
        },
        None => full(&specs, args),
    }
}
