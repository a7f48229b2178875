//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Run from the root of a checkout. Prints a record of the run (seed,
//! host, failures) and then, as the last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Exits 2 on a usage
//! error or a forbidden environment variable, 1 when the run cannot be
//! made.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use caps_json::{obj, Value};
use caps_perfbench::host::{self, Host};
use caps_perfbench::run::{self, Config, Kind};

/// Each of these silently changes what a workload measures: engine
/// choice, fast-forward, the socket service, or the result cache.
const FORBIDDEN_ENV: [&str; 9] = [
    "GPU_SIM_THREADS",
    "GPU_SIM_SEQ",
    "GPU_SIM_ADAPT",
    "GPU_SIM_NO_PIN",
    "GPU_SIM_NO_SKIP",
    "GPU_SIM_SOCKET",
    "GPU_SIM_CACHE",
    "GPU_SIM_CACHE_DIR",
    "GPU_SIM_CACHE_MAX_MB",
];

/// Scratch and trace output, under the checkout root.
const OUT_DIR: &str = ".perfbench";

const USAGE: &str =
    "usage: perfbench --workload <caps-regular|base-irregular|paper-matrix|sweep-warm> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    for pair in args.chunks(2) {
        if !["--workload", "--seed", "--seconds", "--trace"].contains(&pair[0].as_str()) {
            return Err(format!("unexpected argument {:?}", pair[0]));
        }
    }
    let name = value("--workload")?;
    let kind = Kind::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|_| "--seed takes a whole number".to_string())?;
    let seconds = value("--seconds")?
        .parse()
        .ok()
        .filter(|&s| s >= 1)
        .ok_or("--seconds takes a whole number of at least 1")?;
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace takes 0 or 1".to_string()),
    };
    Ok(Args {
        kind,
        seed,
        seconds,
        trace,
    })
}

/// Removes the run's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn metrics_value(report: &run::Report) -> Value {
    Value::Obj(
        report
            .metrics
            .iter()
            .map(|m| {
                let v = obj(vec![
                    ("value", Value::Float(m.value)),
                    ("unit", Value::Str(m.unit.to_string())),
                ]);
                (m.name.to_string(), v)
            })
            .collect(),
    )
}

fn write_spans(root: &Path, args: &Args, spans: &Value) -> Result<PathBuf, String> {
    let path =
        root.join(OUT_DIR)
            .join(format!("trace-{}-seed{}.json", args.kind.name(), args.seed));
    std::fs::write(&path, spans.compact()).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(var) = FORBIDDEN_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!(
            "perfbench: environment variable {var} is set; it changes what the benchmark \
             measures. Unset it and run again."
        );
        return ExitCode::from(2);
    }
    let root = match std::env::current_dir() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfbench: current directory: {e}");
            return ExitCode::from(1);
        }
    };
    let scratch = Scratch(
        root.join(OUT_DIR)
            .join(format!("work-{}", std::process::id())),
    );
    let cfg = Config {
        kind: args.kind,
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
        trace: args.trace,
        root: root.clone(),
        work: scratch.0.clone(),
        workers: host::nproc(),
    };
    let report = match run::run(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.kind.name());
            return ExitCode::from(1);
        }
    };
    drop(scratch);
    let trace_file = match &report.spans {
        Some(spans) => match write_spans(&root, &args, spans) {
            Ok(p) => Value::Str(p.display().to_string()),
            Err(e) => {
                eprintln!("perfbench: writing spans: {e}");
                return ExitCode::from(1);
            }
        },
        None => Value::Null,
    };
    let record = obj(vec![
        ("workload", Value::Str(args.kind.name().to_string())),
        ("seed", Value::UInt(args.seed)),
        ("seconds", Value::UInt(args.seconds)),
        ("trace", Value::Bool(args.trace)),
        ("workers", Value::UInt(cfg.workers as u64)),
        ("passes", Value::UInt(report.passes as u64)),
        ("speed_factor", Value::Float(report.speed_factor)),
        ("host", Host::collect(&root).to_value()),
        (
            "failures",
            Value::Arr(
                report
                    .tally
                    .messages
                    .iter()
                    .map(|m| Value::Str(m.clone()))
                    .collect(),
            ),
        ),
        ("spans", trace_file),
    ]);
    println!("{}", obj(vec![("run", record)]).compact());
    let result = obj(vec![
        ("correct", Value::Bool(report.tally.failed == 0)),
        ("attempted", Value::UInt(report.tally.attempted)),
        ("failed", Value::UInt(report.tally.failed)),
        ("metrics", metrics_value(&report)),
    ]);
    println!("{}", result.compact());
    ExitCode::SUCCESS
}
