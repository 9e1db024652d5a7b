//! perfbench — the GKS repository benchmark.
//!
//! ```text
//! perfbench --workload <engine-miss|cache-hot|shard-churn> --seed N --seconds S --trace 0|1
//! perfbench compare A.jsonl B.jsonl      # two files of captured run output
//! ```
//!
//! An untraced run (`--trace 0`) generates the workload's corpus and
//! requests from the seed, sets up the index and a `gks-server` process
//! several times (the median is `setup_s`), drives it with the open-loop
//! generator over a fixed rate ladder, checks responses against reference
//! renders, and prints every end-to-end metric. A traced run (`--trace 1`)
//! replays the same generated requests in-process with spans around each
//! layer's public functions and prints the per-layer metrics. The last line
//! of standard output is the JSON result; the line before it is the run
//! record that compare mode reads.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::report::{self, Fingerprint};
use perfbench::run::{self, Args};
use perfbench::traced;
use perfbench::workload::Workload;

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <engine-miss|cache-hot|shard-churn> --seed N --seconds S \
         --trace 0|1\n       perfbench compare A.jsonl B.jsonl"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("serve-child") => {
            let (Some(kind), Some(path)) = (argv.get(1), argv.get(2)) else {
                return usage();
            };
            match perfbench::server::child_main(kind, &PathBuf::from(path)) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("perfbench serve-child: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("compare") => {
            let (Some(a), Some(b)) = (argv.get(1), argv.get(2)) else {
                return usage();
            };
            let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
            let result = (|| {
                let defs = report::metric_defs(&read("BENCHMARK.json")?)?;
                Ok::<_, String>(report::compare(&read(a)?, &read(b)?, &defs))
            })();
            match result {
                Ok(table) => {
                    print!("{table}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("perfbench compare: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => measure(&argv),
    }
}

fn measure(argv: &[String]) -> ExitCode {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 30.0f64;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage();
        };
        let ok = match flag.as_str() {
            "--workload" => {
                workload = Workload::parse(value);
                workload.is_some()
            }
            "--seed" => value.parse().map(|v| seed = v).is_ok(),
            "--seconds" => value.parse().map(|v| seconds = v).is_ok_and(|()| seconds >= 1.0),
            "--trace" => match value.as_str() {
                "0" | "1" => {
                    trace = value == "1";
                    true
                }
                _ => false,
            },
            _ => false,
        };
        if !ok {
            return usage();
        }
    }
    let Some(workload) = workload else {
        return usage();
    };
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: cannot locate itself: {e}");
            return ExitCode::FAILURE;
        }
    };
    let args = Args { workload, seed, seconds };
    let fingerprint = Fingerprint::read();
    let outcome = if trace {
        traced::run(&args)
    } else {
        run::run(&exe, &args)
    };
    let out = match outcome {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench {}: {e}", workload.name());
            return ExitCode::FAILURE;
        }
    };
    println!(
        "perfbench {} seed={seed} seconds={seconds} trace={} valid={}",
        workload.name(),
        u8::from(trace),
        out.valid
    );
    let metrics: Vec<(String, f64, String)> = out
        .metrics
        .iter()
        .map(|m| (m.name.to_string(), m.value, m.unit.to_string()))
        .collect();
    // The metrics must be exactly the ones BENCHMARK.json declares.
    if let Ok(text) = std::fs::read_to_string("BENCHMARK.json") {
        let names: Vec<&str> = metrics.iter().map(|(n, _, _)| n.as_str()).collect();
        match report::declared_metrics(&text, trace) {
            Ok(declared) if declared == names => {}
            Ok(declared) => {
                eprintln!("perfbench: metrics {names:?} differ from BENCHMARK.json {declared:?}");
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    for (name, value, unit) in &metrics {
        println!("  {name:<48} {value:>14.4} {unit}");
    }
    for (key, value) in &out.notes {
        if !value.starts_with('[') {
            println!("  {key:<48} {value:>14}");
        }
    }
    println!(
        "{}",
        report::record_line(
            workload.name(),
            seed,
            trace,
            &fingerprint,
            out.valid,
            &metrics,
            &out.notes
        )
    );
    let correct = out.mismatches == 0 && out.checked > 0;
    println!("{}", report::result_line(correct, out.attempted, out.failed, &metrics));
    ExitCode::SUCCESS
}
