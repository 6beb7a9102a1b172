//! `repro` — regenerate the paper's tables and figures.
//!
//! ```sh
//! cargo run --release -p iq-bench --bin repro -- --all
//! cargo run --release -p iq-bench --bin repro -- --table2 --sf 0.02
//! ```
//!
//! What can be run is [`iq_bench::sections::SECTIONS`]; this file only
//! parses arguments against that table and prints what its entries
//! produce.

use std::process::ExitCode;

use iq_bench::experiments;
use iq_bench::sections::{bench_doc, select, FAULTS, GROUPS, SECTIONS};

fn help() -> String {
    let mut out = String::from(
        "repro — regenerate the paper's evaluation\n\n\
         USAGE: repro [--sf <f64>] [SECTIONS...]\n\nSECTIONS:\n",
    );
    let groups = GROUPS.iter().map(|g| (g.flag, g.help));
    for (flag, help) in groups.chain(SECTIONS.iter().map(|s| (s.flag, s.help))) {
        out += &format!("  --{flag:<17} {help}\n");
    }
    out + "\nMACHINE-READABLE MODES (exit after running; stdout is the artifact):\n  \
           --trace <path>      write the Table-1 lifecycle's deterministic JSONL event journal\n  \
           --metrics           print the metrics-registry snapshot of a small lifecycle as JSON\n  \
           (either takes --faults to run under the scripted fault injector)\n\n\
           --sf sets the functional scale factor (default 0.01); results are projected to\n\
           the paper's SF 1000. A measured ablation (--gc … --throughput) also writes its\n\
           rows to BENCH_<section>.json in the working directory, so the perf trajectory is\n\
           tracked PR-over-PR, and fails the run if its acceptance gates do not hold.\n"
}

/// Parse the command line and run it; `Err` is a usage error.
fn run(args: &[String]) -> Result<ExitCode, String> {
    let mut sf = 0.01f64;
    let mut flags: Vec<&str> = Vec::new();
    let mut trace_path = None;
    let mut metrics = false;
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                print!("{}", help());
                return Ok(ExitCode::SUCCESS);
            }
            "--sf" => {
                let value = args.next().ok_or("--sf takes a number")?;
                sf = value
                    .parse()
                    .map_err(|_| format!("--sf takes a number, got {value}"))?;
            }
            "--trace" => trace_path = Some(args.next().ok_or("--trace takes an output path")?),
            "--metrics" => metrics = true,
            other => flags.push(
                other
                    .strip_prefix("--")
                    .ok_or_else(|| format!("unknown argument {other}"))?,
            ),
        }
    }
    let sections = select(&flags)?;

    // Machine-readable modes: run, emit the artifact, and exit before the
    // human-facing banner so stdout stays parseable (`--faults` acts as a
    // modifier here rather than selecting the fault-sweep report).
    if trace_path.is_some() || metrics {
        let faults = flags.contains(&FAULTS);
        if let Some(path) = trace_path {
            let journal = experiments::trace_table1(faults).expect("trace capture");
            std::fs::write(path, journal).expect("write trace journal");
            eprintln!("trace journal written to {path}");
        }
        if metrics {
            let json = experiments::metrics_export(sf, faults).expect("metrics export");
            println!("{json}");
        }
        return Ok(ExitCode::SUCCESS);
    }

    println!("cloudiq reproduction harness — functional SF {sf}, projected to SF 1000\n");
    let mut suite = None;
    for section in sections {
        let (text, rows) = match section.run(sf, &mut suite) {
            Ok(outcome) => outcome,
            Err(e) => {
                eprintln!("repro: --{} failed: {e}", section.flag);
                return Ok(ExitCode::FAILURE);
            }
        };
        print!("{text}");
        if let Some(rows) = rows {
            let path = section.bench_file();
            std::fs::write(&path, bench_doc(sf, rows.as_ref())).expect("write bench json");
            eprintln!("bench trajectory written to {path}");
            if let Err(why) = rows.gates() {
                eprintln!("repro: --{} gate failed: {why}", section.flag);
                return Ok(ExitCode::FAILURE);
            }
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    run(&args).unwrap_or_else(|usage| {
        eprintln!("repro: {usage}\n(repro --help lists the sections)");
        ExitCode::from(2)
    })
}
