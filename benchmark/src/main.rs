//! The repo's one wall-clock benchmark.
//!
//! ```text
//! scbr-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! scbr-benchmark --all [--runs N] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! scbr-benchmark --list
//! scbr-benchmark --compare A.json B.json
//! ```
//!
//! One workload per process, workloads one after the other. The last line
//! of a `--workload` run's standard output is one JSON object with exactly
//! the keys `correct`, `attempted`, `failed` and `metrics`; see
//! `benchmark/README.md` for everything else.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compare;
mod json;
mod oracle;
mod probes;
mod procfs;
mod run;
mod stats;
mod sut;
mod trace;
mod workloads;

use json::Value;
use run::Report;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use workloads::{Workload, WORKLOADS};

/// Seed used when `--seed` is not given (the one the checked-in baseline
/// in `benchmark/baseline.json` was measured with).
const DEFAULT_SEED: u64 = 20_160_612;
/// Measured seconds when `--seconds` is not given; `BENCHMARK.json`'s
/// `run_seconds`.
const DEFAULT_SECONDS: f64 = 32.0;

#[derive(Debug, Clone, PartialEq)]
enum Mode {
    Workload(String),
    All,
    List,
    Compare(PathBuf, PathBuf),
}

#[derive(Debug, Clone, PartialEq)]
struct Args {
    mode: Mode,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: usize,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        mode: Mode::List,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        runs: 1,
        out: None,
    };
    let mut mode = None;
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => mode = Some(Mode::Workload(value("a workload name")?.clone())),
            "--all" => mode = Some(Mode::All),
            "--list" => mode = Some(Mode::List),
            "--compare" => {
                let a = PathBuf::from(value("two report files")?);
                mode = Some(Mode::Compare(a, PathBuf::from(value("two report files")?)));
            }
            "--seed" => {
                parsed.seed = value("a number")?.parse().map_err(|_| "--seed: not a u64")?;
            }
            "--seconds" => {
                parsed.seconds =
                    value("a number")?.parse().map_err(|_| "--seconds: not a number")?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
            }
            "--runs" => {
                parsed.runs = value("a count")?.parse().map_err(|_| "--runs: not a count")?;
                if parsed.runs == 0 {
                    return Err("--runs must be at least 1".to_owned());
                }
            }
            "--out" => parsed.out = Some(PathBuf::from(value("a file")?)),
            // `--trace` alone, or followed by 0 or 1.
            "--trace" => match it.peek().map(|s| s.as_str()) {
                Some(v @ ("0" | "1")) => {
                    parsed.trace = v == "1";
                    it.next();
                }
                _ => parsed.trace = true,
            },
            other => return Err(format!("unknown argument {other}")),
        }
    }
    parsed.mode = mode.ok_or("one of --workload, --all, --list, --compare is required")?;
    Ok(parsed)
}

fn benchmark_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn load_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Value::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn write_json(path: &Path, value: &Value) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, value.render() + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

/// `{name: {value, unit[, spread]}}` for every metric of a report.
fn metrics_object(report: &Report, with_spread: bool) -> Value {
    let entry = |m: &run::Metric| {
        let mut fields =
            vec![("value".to_owned(), m.value.into()), ("unit".to_owned(), m.unit.into())];
        if with_spread {
            fields.push(("spread".to_owned(), m.spread.into()));
        }
        (m.name.to_owned(), Value::Object(fields))
    };
    Value::Object(report.metrics.iter().map(entry).collect())
}

/// The contract line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line(report: &Report) -> Value {
    Value::object([
        ("correct", Value::from(report.failed == 0)),
        ("attempted", Value::from(report.attempted as f64)),
        ("failed", Value::from(report.failed as f64)),
        ("metrics", metrics_object(report, false)),
    ])
}

/// One workload's entry in an `--out` report: the contract line's fields
/// plus each metric's spread, the failure notes and the disturbed phases.
fn report_entry(report: &Report) -> Value {
    Value::object([
        ("correct", Value::from(report.failed == 0)),
        ("attempted", Value::from(report.attempted as f64)),
        ("failed", Value::from(report.failed as f64)),
        ("failures", Value::Array(report.failures.iter().map(|f| f.as_str().into()).collect())),
        ("disturbed", Value::Array(report.disturbed.iter().map(|d| d.as_str().into()).collect())),
        ("metrics", metrics_object(report, true)),
    ])
}

fn report_document(args: &Args, workloads: Vec<(String, Value)>) -> Value {
    Value::object([
        ("seed", Value::from(args.seed as f64)),
        ("seconds", Value::from(args.seconds)),
        ("traced", Value::from(args.trace)),
        ("runs", Value::from(args.runs as f64)),
        ("workloads", Value::Object(workloads)),
    ])
}

fn print_metrics(name: &str, entry: &Value) {
    println!("workload {name}");
    for (metric, reading) in entry.get("metrics").and_then(Value::as_object).unwrap_or(&[]) {
        let number = |key: &str| reading.get(key).and_then(Value::as_f64).unwrap_or(0.0);
        let unit = reading.get("unit").and_then(Value::as_str).unwrap_or("");
        let spread = match number("spread") {
            s if s > 0.0 => format!("  (spread {:.1}%)", 100.0 * s),
            _ => String::new(),
        };
        println!("  {metric:<44} {:>16.4} {unit}{spread}", number("value"));
    }
    let count = |key: &str| entry.get(key).and_then(Value::as_f64).unwrap_or(0.0);
    println!("  ops_attempted {}  ops_failed {}", count("attempted"), count("failed"));
    for (key, label) in [("failures", "failed"), ("disturbed", "disturbed phase")] {
        for note in entry.get(key).and_then(Value::as_array).unwrap_or(&[]) {
            println!("  {label}: {}", note.as_str().unwrap_or(""));
        }
    }
}

fn run_workload(args: &Args, name: &str) -> Result<bool, String> {
    let workload = Workload::by_name(name)
        .ok_or_else(|| format!("unknown workload {name}; --list names them"))?;
    let report = run::run(workload, args.seed, args.seconds, args.trace)?;
    if let Some(trace) = &report.trace {
        let path = benchmark_dir().join("out").join(format!("trace-{name}.json"));
        write_json(&path, trace)?;
        println!("trace written to {}", path.display());
    }
    let entry = report_entry(&report);
    println!("seed {} seconds {} trace {}", args.seed, args.seconds, u8::from(args.trace));
    print_metrics(name, &entry);
    if let Some(out) = &args.out {
        write_json(out, &report_document(args, vec![(name.to_owned(), entry)]))?;
    }
    println!("{}", result_line(&report).render());
    Ok(report.failed == 0)
}

/// Median over runs of each metric; a metric's spread is its quartile
/// spread across the runs (the run's own window spread for a single run).
fn merge_runs(runs: &[Value]) -> Value {
    let Some(first) = runs.first() else { return Value::Null };
    if runs.len() == 1 {
        return first.clone();
    }
    let total =
        |key: &str| -> f64 { runs.iter().filter_map(|r| r.get(key).and_then(Value::as_f64)).sum() };
    let metrics = first.get("metrics").and_then(Value::as_object).unwrap_or(&[]);
    let merged = metrics
        .iter()
        .map(|(name, reading)| {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.get("metrics")?.get(name)?.get("value")?.as_f64())
                .collect();
            let entry = Value::object([
                ("value", Value::from(stats::median(&values))),
                ("unit", reading.get("unit").cloned().unwrap_or(Value::Null)),
                ("spread", Value::from(stats::quartile_spread(&values))),
            ]);
            (name.clone(), entry)
        })
        .collect();
    let notes = |key: &str| -> Value {
        let all = runs.iter().flat_map(|r| r.get(key).and_then(Value::as_array).unwrap_or(&[]));
        Value::Array(all.cloned().collect())
    };
    Value::object([
        ("correct", Value::from(total("failed") == 0.0)),
        ("attempted", Value::from(total("attempted"))),
        ("failed", Value::from(total("failed"))),
        ("failures", notes("failures")),
        ("disturbed", notes("disturbed")),
        ("metrics", Value::Object(merged)),
    ])
}

/// `--all`: one child process per workload run, one after the other, so
/// `peak_rss_mb` is each workload's own.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let scratch = benchmark_dir().join("out");
    let mut merged = Vec::new();
    for workload in WORKLOADS {
        let mut runs = Vec::new();
        for run in 0..args.runs {
            let out = scratch.join(format!("run-{}-{run}.json", workload.name));
            eprintln!("[{} run {}/{}]", workload.name, run + 1, args.runs);
            let status = Command::new(&exe)
                .args(["--workload", workload.name])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .arg("--out")
                .arg(&out)
                .stdout(Stdio::null())
                .status()
                .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
            // Exit code 1 is a completed run with failed operations: its
            // report exists and says so. Anything else produced nothing.
            if !status.success() && status.code() != Some(1) {
                return Err(format!("{} run {run} ended with {status}", workload.name));
            }
            let document = load_json(&out)?;
            let entry = document.get("workloads").and_then(|w| w.get(workload.name));
            runs.push(entry.cloned().ok_or(format!("{}: empty report", out.display()))?);
        }
        let entry = merge_runs(&runs);
        print_metrics(workload.name, &entry);
        merged.push((workload.name.to_owned(), entry));
    }
    let correct = merged.iter().all(|(_, e)| e.get("failed").and_then(Value::as_f64) == Some(0.0));
    let document = report_document(args, merged);
    let out = args.out.clone().unwrap_or_else(|| scratch.join("all.json"));
    write_json(&out, &document)?;
    println!("report written to {}", out.display());
    Ok(correct)
}

fn list() {
    println!("workloads:");
    for workload in WORKLOADS {
        println!("  {:<18} {}", workload.name, workload.why);
    }
    let spec = load_json(&benchmark_dir().join("../BENCHMARK.json"));
    let Ok(spec) = spec else { return };
    for (section, title) in
        [("end_to_end", "end-to-end metrics"), ("per_layer", "per-layer metrics")]
    {
        println!("{title}:");
        for metric in spec.get(section).and_then(Value::as_array).unwrap_or(&[]) {
            let field = |key: &str| metric.get(key).and_then(Value::as_str).unwrap_or("");
            let bound = metric.get("bound").and_then(Value::as_f64);
            let bound = bound.map_or(String::new(), |b| format!("  bound {:.0}%", 100.0 * b));
            println!(
                "  {:<44} {:<8} {} is better{bound}",
                field("name"),
                field("unit"),
                field("better")
            );
        }
    }
}

fn compare_reports(a: &Path, b: &Path) -> Result<bool, String> {
    let spec = load_json(&benchmark_dir().join("../BENCHMARK.json"))?;
    let bounds = compare::bounds(&spec)?;
    let (table, any_worse) = compare::compare(&load_json(a)?, &load_json(b)?, &bounds);
    print!("{table}");
    Ok(!any_worse)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&args).and_then(|args| match &args.mode {
        Mode::Workload(name) => run_workload(&args, name),
        Mode::All => run_all(&args),
        Mode::List => {
            list();
            Ok(true)
        }
        Mode::Compare(a, b) => compare_reports(a, b),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("scbr-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse_args(&line.split_whitespace().map(str::to_owned).collect::<Vec<_>>())
    }

    #[test]
    fn driver_command_line_parses() {
        let parsed = args("--workload router_scan --seed 7 --seconds 10 --trace 0").unwrap();
        assert_eq!(parsed.mode, Mode::Workload("router_scan".to_owned()));
        assert_eq!((parsed.seed, parsed.seconds, parsed.trace), (7, 10.0, false));
        assert!(args("--workload w --trace 1").unwrap().trace);
        // A bare --trace (the issue's spelling) means on.
        let parsed = args("--all --trace --out x.json").unwrap();
        assert!(parsed.trace && parsed.out == Some(PathBuf::from("x.json")));
        assert_eq!(args("--all").unwrap().seed, DEFAULT_SEED);
        assert!(args("--seed 3").is_err());
        assert!(args("--workload").is_err());
        assert!(args("--all --seconds 0").is_err());
        assert!(args("--all --bogus").is_err());
    }

    #[test]
    fn merged_runs_report_the_median_and_the_run_to_run_spread() {
        let run = |rate: f64, failed: f64| {
            Value::object([
                ("attempted", Value::from(10.0)),
                ("failed", Value::from(failed)),
                ("disturbed", Value::Array(vec![])),
                (
                    "metrics",
                    Value::object([(
                        "publish_msgs_per_s",
                        Value::object([
                            ("value", Value::from(rate)),
                            ("unit", Value::from("1/s")),
                            ("spread", Value::from(0.5)),
                        ]),
                    )]),
                ),
            ])
        };
        let merged = merge_runs(&[run(100.0, 0.0), run(120.0, 0.0), run(110.0, 1.0)]);
        let reading = merged.get("metrics").and_then(|m| m.get("publish_msgs_per_s")).unwrap();
        assert_eq!(reading.get("value").and_then(Value::as_f64), Some(110.0));
        let spread = reading.get("spread").and_then(Value::as_f64).unwrap();
        assert!((spread - 20.0 / 110.0).abs() < 1e-12);
        assert_eq!(merged.get("attempted").and_then(Value::as_f64), Some(30.0));
        assert_eq!(merged.get("correct"), Some(&Value::Bool(false)));
    }

    /// The 2-second smoke shape of every workload: the whole phase script
    /// at 1/40 of the population must report no failed operation, and must
    /// produce exactly the metrics `BENCHMARK.json` lists.
    #[test]
    fn smoke_shape_of_every_workload_reports_no_failed_op() {
        let spec = load_json(&benchmark_dir().join("../BENCHMARK.json")).unwrap();
        let listed = |section: &str| -> Vec<String> {
            let metrics = spec.get(section).and_then(Value::as_array).unwrap();
            metrics.iter().map(|m| m.get("name").unwrap().as_str().unwrap().to_owned()).collect()
        };
        let names = |report: &Report| -> Vec<String> {
            report.metrics.iter().map(|m| m.name.to_owned()).collect()
        };
        for workload in WORKLOADS {
            let report = run::run(workload.smoke(), 5, 2.0, false).unwrap();
            assert_eq!(report.failed, 0, "{}", workload.name);
            assert!(report.attempted > workload.smoke().subscriptions as u64);
            assert_eq!(names(&report), listed("end_to_end"), "{}", workload.name);
            assert!(report.metrics.iter().all(|m| m.value > 0.0), "{:?}", report.metrics);
        }
        // One traced engine run and one traced fabric run cover both
        // facades' per-layer paths.
        for workload in [WORKLOADS[0], WORKLOADS[3]] {
            let report = run::run(workload.smoke(), 5, 2.0, true).unwrap();
            assert_eq!(report.failed, 0, "{} traced", workload.name);
            assert_eq!(names(&report), listed("per_layer"), "{} traced", workload.name);
            assert!(report.trace.is_some());
        }
    }

    /// `BENCHMARK.json` lists the workloads the driver gates on: each is
    /// one of the harness's, with the harness's reason.
    #[test]
    fn benchmark_json_names_the_workloads_with_their_reasons() {
        let spec = load_json(&benchmark_dir().join("../BENCHMARK.json")).unwrap();
        let listed = spec.get("workloads").and_then(Value::as_array).unwrap();
        assert!(listed.len() >= 2);
        for entry in listed {
            let name = entry.get("name").and_then(Value::as_str).unwrap();
            let workload = Workload::by_name(name).expect(name);
            assert_eq!(entry.get("why").and_then(Value::as_str), Some(workload.why));
            assert!(workload.why.len() <= 200, "{name}");
        }
        assert_eq!(spec.get("run_seconds").and_then(Value::as_f64), Some(DEFAULT_SECONDS));
    }
}
