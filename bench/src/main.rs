//! The repo's gating benchmark: six seeded workloads over the OVC
//! engine, each checked for correctness, reported as end-to-end metrics
//! (untraced) and per-layer metrics (a separate traced run).  See
//! `README.md` beside this package and `BENCHMARK.json` at the repo
//! root.
//!
//! ```text
//! cargo run --release --manifest-path bench/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--repeat N]
//! ```
//!
//! With `--workload` the process runs that workload itself and prints
//! one JSON object as its last line.  Without it, every workload runs
//! in a fresh child process (untraced, then traced) and a summary
//! follows; `--repeat N` runs N untraced sets and checks that they
//! agree within the bounds.

mod api;
mod gen;
mod http;
mod json;
mod library;
mod reference;
mod served;
mod spec;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use gen::Scale;
use json::Json;
use spec::{END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use stats::{highest_tail, median, ms, steady_ops_per_s, Summary};
use trace::Trace;
use workload::{Gate, Layers, Workload};

/// Rounds an untraced run is cut into (set-up, then measure).
const ROUNDS: usize = 5;
/// The traced run measures for at most this long.
const MAX_TRACED_SECONDS: f64 = 8.0;

#[derive(Clone, Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    /// `None`: both runs (only without `--workload`).
    trace: Option<bool>,
    smoke: bool,
    repeat: usize,
    print_benchmark_json: bool,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: ovc-perfbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
         [--smoke] [--repeat N]\nworkloads: {}",
        names.join(", ")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: None,
        smoke: false,
        repeat: 1,
        print_benchmark_json: false,
    };
    let mut it = argv.iter();
    let mut seconds_given = false;
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if !WORKLOADS.iter().any(|w| w.name == name) {
                    return Err(format!("unknown workload {name:?}"));
                }
                args.workload = Some(name);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed needs an unsigned integer".to_string())?;
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or("--seconds needs a number in (0, 600]")?;
                seconds_given = true;
            }
            "--trace" => {
                args.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace needs 0 or 1, got {other:?}")),
                });
            }
            "--repeat" => {
                args.repeat = value("a count")?
                    .parse()
                    .ok()
                    .filter(|n| (1..=10).contains(n))
                    .ok_or("--repeat needs a count from 1 to 10")?;
            }
            "--smoke" => args.smoke = true,
            "--print-benchmark-json" => args.print_benchmark_json = true,
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    if args.smoke && !seconds_given {
        args.seconds = 0.5;
    }
    Ok(args)
}

fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// Host and build facts printed with every result and stored in every
/// trace file: a number means little without them.
fn environment_json(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "{{\"nproc\":{nproc},\"rustc\":{},\"os\":{},\"arch\":{},\"seed\":{},\
         \"debug_assertions\":{},\"scale\":{}}}",
        json::quote(&rustc),
        json::quote(std::env::consts::OS),
        json::quote(std::env::consts::ARCH),
        args.seed,
        cfg!(debug_assertions),
        json::quote(if args.smoke { "smoke" } else { "full" }),
    )
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One finished run: what goes into the result line.
struct Report {
    attempted: u64,
    failures: Vec<String>,
    failed_ops: u64,
    /// Name, value, and (for medians) the spread behind the value.
    metrics: Vec<(&'static str, f64, Option<Summary>)>,
}

fn untraced_run<W: Workload>(args: &Args, scale: Scale) -> Report {
    // The run is cut into rounds, each a complete set-up followed by
    // its share of the measuring time, and every timing is the median
    // over the rounds of the round's own figure.  A stretch of
    // interference from the shared host then spoils a round, not the
    // result; and whatever a set-up fixes for the life of its tables
    // (heap layout, page placement) is drawn again each round instead
    // of once per run.
    let rounds = if args.smoke { 1 } else { ROUNDS };
    let share = Duration::from_secs_f64(args.seconds / rounds as f64);
    let mut gate = Gate::default();
    let (mut setups, mut rates, mut latencies, mut ttfrs) = (vec![], vec![], vec![], vec![]);
    let (mut attempted, mut failed_ops, mut unit_rows) = (0, 0, 0);
    let mut first_round_rss = 0.0;
    for round in 0..rounds {
        let start = Instant::now();
        let mut w = W::setup(args.seed, scale, &mut gate);
        setups.push(start.elapsed().as_secs_f64());
        unit_rows = w.unit_rows();
        if gate.failures.is_empty() {
            let m = w.measure(share);
            attempted += m.attempted();
            failed_ops += m.failed;
            rates.push(steady_ops_per_s(&m.ops));
            latencies.push(median(&ms(&m.ops, |o| o.total_ns)));
            ttfrs.push(median(&ms(&m.ops, |o| o.first_row_ns)));
            println!(
                "  round {}: set-up {:.3} s, {} operations, {:.4} /s, median {:.4} ms",
                round + 1,
                setups[round],
                m.attempted(),
                rates[round],
                latencies[round]
            );
        }
        w.teardown();
        if round == 0 {
            // Read before later rounds pile allocator fragmentation,
            // which varies from run to run, on top of the high-water
            // mark: one complete set-up and measurement from a fresh
            // process.
            first_round_rss = peak_rss_mb();
        }
    }
    let over_rounds = |v: &[f64]| (median(v), Some(Summary::of(v)));
    let (ops_per_s, rate_spread) = over_rounds(&rates);
    let row_rates: Vec<f64> = rates.iter().map(|r| r * unit_rows as f64).collect();
    let metrics = [
        ("setup_s", over_rounds(&setups)),
        (
            "rows_per_s",
            (ops_per_s * unit_rows as f64, over_rounds(&row_rates).1),
        ),
        ("queries_per_s", (ops_per_s, rate_spread)),
        ("latency_ms_p50", over_rounds(&latencies)),
        ("ttfr_ms_p50", over_rounds(&ttfrs)),
        ("peak_rss_mb", (first_round_rss, None)),
    ];
    Report {
        attempted: gate.checks + attempted,
        failures: gate.failures,
        failed_ops,
        metrics: metrics.into_iter().map(|(n, (v, s))| (n, v, s)).collect(),
    }
}

fn traced_run<W: Workload>(name: &str, args: &Args, scale: Scale) -> Report {
    let mut gate = Gate::default();
    let mut w = W::setup(args.seed, scale, &mut gate);
    let mut layers = Layers::new();
    let mut failed_ops = 0;
    let mut attempted = 0;
    if gate.failures.is_empty() {
        let mut trace = Trace::new(Instant::now());
        let mut notes = Vec::new();
        let budget = Duration::from_secs_f64(args.seconds.min(MAX_TRACED_SECONDS));
        let ops = w.trace(budget, &mut trace, &mut layers, &mut notes, &mut gate);
        failed_ops = ops.untraced.failed + ops.traced.failed;
        attempted = ops.untraced.attempted() + ops.traced.attempted();
        let plain = ms(&ops.untraced.ops, |o| o.total_ns);
        let spanned = ms(&ops.traced.ops, |o| o.total_ns);
        if median(&plain) > 0.0 {
            layers.insert(
                "bench.trace_overhead_pct",
                (median(&spanned) - median(&plain)) / median(&plain) * 100.0,
            );
        }
        // The tail, over every operation of the run (spans are recorded
        // after the call returns, so traced ones count): the highest
        // percentile with ten samples beyond it, 0 when there is none.
        let (pct, tail) = highest_tail(&[plain, spanned].concat());
        layers.insert("bench.tail_percentile", pct);
        layers.insert("bench.latency_ms_tail", tail);
        let path = out_dir().join(format!("trace-{name}.json"));
        let text = trace.to_json(name, &environment_json(args), &notes);
        match std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, text)) {
            Ok(()) => println!("  trace: {} spans -> {}", trace.spans.len(), path.display()),
            Err(e) => gate.check(false, || format!("writing {}: {e}", path.display())),
        }
    }
    w.teardown();
    let metrics = PER_LAYER
        .iter()
        .map(|m| {
            let v = layers.remove(m.name).unwrap_or(0.0);
            (m.name, v, None)
        })
        .collect();
    for stray in layers.keys() {
        gate.check(false, || {
            format!("metric {stray} is not in the per-layer table")
        });
    }
    Report {
        attempted: gate.checks + attempted,
        failures: gate.failures,
        failed_ops,
        metrics,
    }
}

fn dispatch(name: &str, args: &Args) -> Report {
    let scale = if args.smoke {
        Scale::Smoke
    } else {
        Scale::Full
    };
    macro_rules! go {
        ($w:ty) => {
            if args.trace == Some(true) {
                traced_run::<$w>(name, args, scale)
            } else {
                untraced_run::<$w>(args, scale)
            }
        };
    }
    match name {
        "sort_spill" => go!(library::SortSpill),
        "pipeline_sorted" => go!(library::PipelineSorted),
        "exchange_dop2" => go!(library::ExchangeDop2),
        "served_small" => go!(served::Served<served::Small>),
        "served_stream" => go!(served::Served<served::Stream>),
        "served_sort_group" => go!(served::Served<served::SortGroup>),
        other => unreachable!("workload {other} passed argument checking"),
    }
}

fn unit_of(metric: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == metric)
        .map_or("", |(_, u)| u)
}

/// A number as measured, with all its digits; JSON has no NaN.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Run one workload in this process and print its result line.
fn run_single(name: &str, args: &Args) -> ExitCode {
    let traced = args.trace == Some(true);
    println!("environment: {}", environment_json(args));
    println!(
        "workload {name} ({}, {} s)",
        if traced { "traced" } else { "untraced" },
        args.seconds
    );
    let report = dispatch(name, args);
    for (metric, value, spread) in &report.metrics {
        let unit = unit_of(metric);
        match spread {
            Some(s) => println!(
                "  {metric:<32} {value:>16.4} {unit:<10} n={} q1={:.4} q3={:.4}",
                s.n, s.p25, s.p75
            ),
            None => println!("  {metric:<32} {value:>16.4} {unit}"),
        }
    }
    for failure in &report.failures {
        eprintln!("FAILED {failure}");
    }
    let failed = report.failures.len() as u64 + report.failed_ops;
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0,
        report.attempted.max(1)
    );
    for (i, (metric, value, _)) in report.metrics.iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        line.push_str(&format!(
            "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
            json::quote(metric),
            number(*value),
            json::quote(unit_of(metric))
        ));
    }
    line.push_str("}}");
    println!("{line}");
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One child run's parsed result.
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

/// Run one workload in a fresh child process (its own peak RSS, its own
/// allocator state) and read its result line back.
fn run_child(name: &str, args: &Args, traced: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().ok_or("the child printed nothing")?;
    for l in lines {
        println!("{l}");
    }
    let doc = json::parse(last).map_err(|e| format!("bad result line: {e}"))?;
    let int = |key: &str| doc.get(key).and_then(Json::as_f64).map(|v| v as u64);
    let Some(Json::Obj(members)) = doc.get("metrics") else {
        return Err("result line without metrics".into());
    };
    Ok(ChildResult {
        correct: doc.get("correct").and_then(Json::as_bool) == Some(true) && out.status.success(),
        attempted: int("attempted").unwrap_or(0),
        failed: int("failed").unwrap_or(0),
        metrics: members
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect(),
    })
}

/// How much worse `second` is than `first`, as a share of `first`
/// (negative: better).
fn worsening(first: f64, second: f64, better: &str) -> f64 {
    if first == 0.0 {
        return 0.0;
    }
    match better {
        "higher" => (first - second) / first,
        _ => (second - first) / first,
    }
}

/// Every workload, each in a child process; with `--repeat N`, N
/// untraced sets compared against the bounds.
fn run_all(args: &Args) -> ExitCode {
    println!("environment: {}", environment_json(args));
    let mut ok = true;
    let mut sets: Vec<BTreeMap<&str, ChildResult>> = Vec::new();
    for set in 0..args.repeat {
        let mut results = BTreeMap::new();
        for w in &WORKLOADS {
            for traced in [false, true] {
                let wanted = match args.trace {
                    Some(t) => t == traced,
                    None => !traced || args.repeat == 1,
                };
                if !wanted {
                    continue;
                }
                match run_child(w.name, args, traced) {
                    Ok(r) => {
                        let error_rate = r.failed as f64 / r.attempted.max(1) as f64;
                        println!(
                            "  set {} {} {}: attempted {}, failed {}, error_rate {error_rate}",
                            set + 1,
                            w.name,
                            if traced { "traced" } else { "untraced" },
                            r.attempted,
                            r.failed
                        );
                        ok &= r.correct;
                        if !traced {
                            results.insert(w.name, r);
                        }
                    }
                    Err(e) => {
                        eprintln!("FAILED {}: {e}", w.name);
                        ok = false;
                    }
                }
            }
        }
        sets.push(results);
    }
    if sets.len() > 1 {
        println!("\nrepeat check: last set against the first, per workload and end-to-end metric");
        println!(
            "{:<20} {:<16} {:>14} {:>14} {:>9} {:>7}",
            "workload", "metric", "first", "last", "worse by", "bound"
        );
        let (first, last) = (&sets[0], &sets[sets.len() - 1]);
        for w in &WORKLOADS {
            for m in &END_TO_END {
                let pair = first
                    .get(w.name)
                    .and_then(|r| r.metrics.get(m.name))
                    .zip(last.get(w.name).and_then(|r| r.metrics.get(m.name)));
                let Some((&a, &b)) = pair else {
                    println!("{:<20} {:<16} missing", w.name, m.name);
                    ok = false;
                    continue;
                };
                let worse = worsening(a, b, m.better);
                let miss = worse > m.bound;
                ok &= !miss;
                println!(
                    "{:<20} {:<16} {a:>14.4} {b:>14.4} {:>8.2}% {:>6.0}% {}",
                    w.name,
                    m.name,
                    worse * 100.0,
                    m.bound * 100.0,
                    if miss { "MISS" } else { "ok" }
                );
            }
        }
    }
    println!("{}", if ok { "all checks passed" } else { "FAILED" });
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    if args.print_benchmark_json {
        print!("{}", spec::benchmark_json());
        return ExitCode::SUCCESS;
    }
    if cfg!(debug_assertions) {
        eprintln!("refusing to measure a build with debug assertions on; use --release");
        return ExitCode::from(2);
    }
    // Spill files go under the package's own out/ directory: the
    // benchmark writes nowhere outside its checkout.
    let tmp = out_dir().join("tmp");
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("cannot create {}: {e}", tmp.display());
        return ExitCode::from(2);
    }
    std::env::set_var("TMPDIR", &tmp);
    match &args.workload {
        Some(name) => run_single(name, &args),
        None => run_all(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_invocation_parses() {
        let a = parse(&[
            "--workload",
            "served_stream",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .expect("parses");
        assert_eq!(a.workload.as_deref(), Some("served_stream"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, Some(true)));
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--trace", "2"]).is_err());
        assert!(parse(&["--seconds", "0"]).is_err());
        assert!(parse(&["--bogus"]).is_err());
        let smoke = parse(&["--smoke"]).expect("parses");
        assert!(smoke.seconds <= 1.0 && smoke.trace.is_none());
    }

    #[test]
    fn worsening_follows_the_metrics_direction() {
        assert!((worsening(100.0, 90.0, "higher") - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, "lower") - 0.10).abs() < 1e-12);
        assert!(worsening(100.0, 110.0, "higher") < 0.0);
        assert_eq!(worsening(0.0, 5.0, "lower"), 0.0);
    }

    #[test]
    fn numbers_print_every_digit_and_never_nan() {
        assert_eq!(number(1.2034567891234), "1.2034567891234");
        assert_eq!(number(f64::NAN), "0");
    }

    /// The names a run emits are exactly the declared ones, in order.
    #[test]
    fn every_metric_has_a_unit() {
        for m in END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(!unit_of(m).is_empty(), "{m}");
        }
    }
}
