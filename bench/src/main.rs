//! Wall-clock benchmark of the cloudiq reproduction.
//!
//! `wallbench --workload <name|all> [--seed N] [--seconds S] [--trace [0|1]]
//! [--quick] [--out FILE]` runs closed-loop workloads with one client
//! thread against the product's public API, checks every output against
//! a reference, prints every metric by name with its unit, and ends with
//! one JSON line per workload. See `README.md` beside this package.

mod alloc;
mod counters;
mod fixture;
mod host;
mod layers;
mod probes;
mod run;
mod spans;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;

use run::{Opts, Report};
use serde_json::{json, Value};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// Bytes per MiB, as the float the ratios are computed in.
pub const MIB: f64 = 1024.0 * 1024.0;

/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 15.0;
const DEFAULT_SEED: u64 = 20_210_620;

struct Args {
    workload: String,
    opts: Opts,
    out: Option<String>,
}

fn usage() -> String {
    let names: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
    format!(
        "usage: wallbench --workload <{}|all> [--seed N] [--seconds S] [--trace [0|1]] [--quick] [--out FILE]",
        names.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        opts: Opts {
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
            trace: false,
            quick: false,
        },
        out: None,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--seed" => {
                args.opts.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.opts.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--out" => args.out = Some(value("--out")?),
            "--quick" => args.opts.quick = true,
            "--trace" => {
                args.opts.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(args.opts.seconds.is_finite() && args.opts.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    if args.opts.quick {
        args.opts.seconds /= 10.0;
    }
    if args.workload != "all" && !workloads::ALL.iter().any(|w| w.name == args.workload) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

/// The result object of the driver contract.
fn result_json(report: &Report, units: &[(&str, &str)]) -> Value {
    let metrics: BTreeMap<String, Value> = units
        .iter()
        .map(|&(name, unit)| {
            let value = report.metrics.get(name).copied().unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            (name.to_owned(), json!({"value": value, "unit": unit}))
        })
        .collect();
    json!({
        "correct": (report.failed == 0),
        "attempted": (report.attempted),
        "failed": (report.failed),
        "metrics": (Value::Object(metrics)),
    })
}

fn print_report(report: &Report, units: &[(&str, &str)]) {
    for note in &report.notes {
        println!("  {note}");
    }
    println!(
        "  failed_share: {} of {} operations = {}",
        report.failed,
        report.attempted,
        report.failed as f64 / report.attempted.max(1) as f64
    );
    for &(name, unit) in units {
        println!(
            "  {name:<44} {:>16.4} {unit}",
            report.metrics.get(name).copied().unwrap_or(0.0)
        );
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if host::cores() < fixture::SCAN_WORKERS {
        eprintln!(
            "refusing to run: the program's fan-out is pinned at {} workers and this host has {} core(s)",
            fixture::SCAN_WORKERS,
            host::cores()
        );
        return ExitCode::from(2);
    }

    let fingerprint = host::fingerprint();
    println!("host: {fingerprint}");
    println!(
        "run: seed {} seconds {} mode {}{}",
        args.opts.seed,
        args.opts.seconds,
        if args.opts.trace {
            "traced (per-layer)"
        } else {
            "untraced (end-to-end)"
        },
        if args.opts.quick {
            " QUICK - smoke test, not a measurement"
        } else {
            ""
        },
    );
    let units: &[(&str, &str)] = if args.opts.trace {
        &layers::PER_LAYER
    } else {
        &layers::END_TO_END
    };

    let mut results = BTreeMap::new();
    let mut failed = 0;
    for w in &workloads::ALL {
        if args.workload != "all" && args.workload != w.name {
            continue;
        }
        println!("== {} ==\n  why: {}", w.name, w.why);
        let report = (w.run)(args.opts.clone());
        print_report(&report, units);
        failed += report.failed;
        results.insert(w.name.to_owned(), result_json(&report, units));
    }

    if let Some(path) = &args.out {
        let doc = json!({
            "host": fingerprint,
            "seed": (args.opts.seed),
            "seconds": (args.opts.seconds),
            "trace": (args.opts.trace),
            "quick": (args.opts.quick),
            "workloads": (Value::Object(results.clone())),
        });
        let text = serde_json::to_string(&doc).expect("results serialize");
        if let Err(e) = std::fs::write(path, text + "\n") {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::from(2);
        }
    }
    // One result line per workload, in the order they ran; the last line
    // of a single-workload run is the driver's result object.
    for w in &workloads::ALL {
        if let Some(result) = results.get(w.name) {
            println!(
                "{}",
                serde_json::to_string(result).expect("result serializes")
            );
        }
    }
    if failed > 0 {
        eprintln!("{failed} checked operation(s) failed");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
