//! Command-line entry point; see `README.md` for the workloads and
//! metrics.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use osdc_benchmark::measure::{Options, RunReport, Size};
use osdc_benchmark::{compare, workloads, REPO_ROOT};
use serde_json::{Map, Number, Value};

const USAGE: &str = "\
usage:
  osdc-benchmark [run|trace] [--workload <name>] [--seed <n>] [--seconds <s>]
                 [--trace 0|1] [--out <file>]
  osdc-benchmark compare <a> <b>

`run` (the default) times every workload, or the one named; `trace`
(or --trace 1) makes the separate traced run that breaks a pass down by
layer. Each run prints its result as one JSON line; --out also appends a
record per run to <file> (JSON lines), the input `compare` reads.
`compare` judges b against a with the bounds in BENCHMARK.json.

workloads: paper_replay, wan_sync, tenant_month, federation_week";

/// Seconds one run measures unless told otherwise (as in BENCHMARK.json).
const DEFAULT_SECONDS: f64 = 25.0;

enum Command {
    Run {
        workloads: Vec<&'static str>,
        opts: Options,
        out: Option<PathBuf>,
    },
    Compare(PathBuf, PathBuf),
}

fn parse(args: &[String]) -> Result<Command, String> {
    let mut trace = false;
    let flags = match args.first().map(String::as_str) {
        Some("compare") => {
            return match &args[1..] {
                [a, b] => Ok(Command::Compare(a.into(), b.into())),
                _ => Err("compare takes two files".into()),
            }
        }
        Some("run") => &args[1..],
        Some("trace") => {
            trace = true;
            &args[1..]
        }
        _ => args,
    };
    let mut workloads = workloads::NAMES.to_vec();
    let mut opts = Options {
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace,
        size: Size::Full,
    };
    let mut out = None;
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let name = workloads::NAMES
                    .into_iter()
                    .find(|n| n == value)
                    .ok_or(format!("unknown workload {value:?}"))?;
                workloads = vec![name];
            }
            "--seed" => {
                opts.seed = value
                    .parse()
                    .map_err(|_| format!("--seed wants a whole number, got {value:?}"))?;
            }
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or(format!("--seconds wants a positive number, got {value:?}"))?;
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace wants 0 or 1, got {value:?}")),
                };
            }
            "--out" => out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Command::Run {
        workloads,
        opts,
        out,
    })
}

/// The `--out` record of one run.
fn record(report: &RunReport, opts: &Options) -> Value {
    let mut m = Map::new();
    m.insert("workload".into(), Value::String(report.workload.into()));
    m.insert("seed".into(), Value::Number(Number::PosInt(opts.seed)));
    m.insert("trace".into(), Value::Bool(opts.trace));
    m.insert("seconds".into(), Value::Number(Number::Float(opts.seconds)));
    m.insert(
        "notes".into(),
        Value::Array(report.notes.iter().cloned().map(Value::String).collect()),
    );
    m.insert(
        "pass_ms".into(),
        Value::Array(
            report
                .pass_ms
                .iter()
                .map(|&t| Value::Number(Number::Float(t)))
                .collect(),
        ),
    );
    if !opts.trace {
        m.insert(
            "calibration_ms".into(),
            Value::Array(
                report
                    .calibration_ms
                    .iter()
                    .map(|&t| Value::Number(Number::Float(t)))
                    .collect(),
            ),
        );
    }
    m.insert("result".into(), report.result_json());
    if opts.trace {
        m.insert("spans".into(), Value::Array(report.spans.clone()));
    }
    Value::Object(m)
}

fn append_line(path: &Path, line: &str) -> std::io::Result<()> {
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(file, "{line}")
}

fn run(workloads: &[&str], opts: &Options, out: Option<&Path>) -> ExitCode {
    let mut code = ExitCode::SUCCESS;
    for name in workloads {
        let report = workloads::run(name, opts).expect("names come from workloads::NAMES");
        eprintln!("{name} (seed {}):", opts.seed);
        for note in &report.notes {
            eprintln!("  {note}");
        }
        for (metric, value, unit) in &report.metrics {
            eprintln!("  {metric:<28} {value:>16.6} {unit}");
        }
        let checks = &report.checks;
        eprintln!("  checks: {} of {} failed", checks.failed, checks.attempted);
        if let Some(why) = &checks.first_failure {
            eprintln!("  first failure: {why}");
            code = ExitCode::FAILURE;
        }
        if let Some(path) = out {
            let line = serde_json::to_string(&record(&report, opts)).expect("serializes");
            if let Err(e) = append_line(path, &line) {
                eprintln!("cannot append to {}: {e}", path.display());
                code = ExitCode::FAILURE;
            }
        }
        let line = serde_json::to_string(&report.result_json()).expect("serializes");
        println!("{line}");
    }
    code
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Ok(Command::Run {
            workloads,
            opts,
            out,
        }) => run(&workloads, &opts, out.as_deref()),
        Ok(Command::Compare(a, b)) => {
            let spec = Path::new(REPO_ROOT).join("BENCHMARK.json");
            match compare::compare(&a, &b, &spec) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::FAILURE,
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::from(2)
                }
            }
        }
        Err(e) => {
            eprintln!("{e}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
