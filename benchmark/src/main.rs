//! The SoftCache benchmark's command line.
//!
//! ```text
//! benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! benchmark [--seed N] [--seconds S] [--trace 0|1]     # all four, one process each
//! benchmark compare PARENT CHANGE
//! ```
//!
//! The window defaults to `run_seconds` of `BENCHMARK.json`, and `compare`
//! takes its bounds from the same file; both are built into the binary.
//!
//! A workload run prints its metrics, then a `{"record": ...}` line (host
//! facts, seed, sample counts, counters, metrics), then the result line
//! `{"correct", "attempted", "failed", "metrics"}` last. The record is
//! also written to `target/bench-results/`, and a traced run's spans to
//! `target/bench-trace/`.

use softcache_benchmark::json::{obj, Value};
use softcache_benchmark::{compare, host, run, run_seconds, Options, Workload, BENCHMARK_JSON};
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage: benchmark [--workload ample|cliff|thrash|serve] [--seed N] \
                     [--seconds S] [--trace 0|1]\n       benchmark compare PARENT CHANGE";

struct Args {
    workload: Option<Workload>,
    opts: Options,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        opts: Options {
            seed: 1,
            seconds: run_seconds(),
            trace: false,
        },
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => out.workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => out.opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                out.opts.seconds = value.parse().map_err(|_| bad())?;
                if !(out.opts.seconds >= 0.0 && out.opts.seconds <= 3600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                out.opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare_files(&args[1..]);
    }
    let parsed = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match parsed.workload {
        Some(w) => run_one(w, &parsed.opts),
        None => run_all(&parsed.opts),
    }
}

/// Measure one workload in this process and print its result.
fn run_one(workload: Workload, opts: &Options) -> ExitCode {
    let out = run(workload, opts);
    let metrics = out.metrics_json(opts.trace);
    if let Value::Obj(ms) = &metrics {
        for (name, m) in ms {
            let value = m.get("value").and_then(Value::as_f64).unwrap_or(0.0);
            let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
            println!("{:<8} {name:<32} {value:>18.6} {unit}", workload.name());
        }
    }
    let counters = Value::Obj(
        out.counters
            .iter()
            .map(|&(k, v)| (k.to_string(), v.into()))
            .collect(),
    );
    let context = Value::Obj(
        out.context
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect(),
    );
    let record = obj([(
        "record",
        obj([
            ("workload", workload.name().into()),
            ("seed", opts.seed.into()),
            ("seconds", opts.seconds.into()),
            ("trace", u64::from(opts.trace).into()),
            ("host", host()),
            ("context", context),
            ("counters", counters),
            ("correct", out.correct.into()),
            ("attempted", out.attempted.into()),
            ("failed", out.failed.into()),
            ("metrics", metrics.clone()),
        ]),
    )])
    .render();
    println!("{record}");
    let stem = format!(
        "{}-seed{}-trace{}",
        workload.name(),
        opts.seed,
        u8::from(opts.trace)
    );
    let results = Path::new("target/bench-results").join(format!("{stem}.json"));
    let written = std::fs::create_dir_all("target/bench-results")
        .and_then(|_| std::fs::write(&results, format!("{record}\n")));
    if let Err(e) = written {
        eprintln!("benchmark: could not write {}: {e}", results.display());
    }
    if let Some(trace) = &out.trace {
        let path = Path::new("target/bench-trace").join(format!("{stem}.csv"));
        match trace.write_csv(&path) {
            Ok(()) => eprintln!(
                "benchmark: {} spans ({} more counted, not kept) in {}",
                trace.spans.len(),
                trace.dropped,
                path.display()
            ),
            Err(e) => eprintln!("benchmark: could not write {}: {e}", path.display()),
        }
    }
    let result = obj([
        ("correct", out.correct.into()),
        ("attempted", out.attempted.into()),
        ("failed", out.failed.into()),
        ("metrics", metrics),
    ]);
    println!("{}", result.render());
    ExitCode::SUCCESS
}

/// Run every workload, each in its own process so peak RSS and allocator
/// state stay per workload.
fn run_all(opts: &Options) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("benchmark: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in Workload::ALL {
        let child = Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", if opts.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output();
        match child {
            Ok(o) => {
                let text = String::from_utf8_lossy(&o.stdout);
                print!("{text}");
                let correct = text
                    .lines()
                    .last()
                    .and_then(|l| softcache_benchmark::json::parse(l).ok())
                    .and_then(|v| v.get("correct").cloned())
                    == Some(Value::Bool(true));
                ok &= o.status.success() && correct;
            }
            Err(e) => {
                eprintln!("benchmark: {} did not run: {e}", w.name());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn compare_files(args: &[String]) -> ExitCode {
    let [parent, change] = args else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let result = read(parent).and_then(|parent| {
        let change = read(change)?;
        compare::compare(&parent, &change, BENCHMARK_JSON)
    });
    match result {
        Ok((report, bad)) => {
            print!("{report}");
            if bad {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("benchmark compare: {e}");
            ExitCode::from(2)
        }
    }
}
