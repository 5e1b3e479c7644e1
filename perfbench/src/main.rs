//! The benchmark binary: `perfbench --workload <name> --seed <n>
//! --seconds <s> --trace <0|1> [--trace-out <path>]`.
//!
//! Prints a provenance line, one line per metric, and as its last line the
//! JSON result. With `--trace 1` it also writes the spans as Chrome
//! trace-event JSON (default `perfbench/out/<workload>.trace.json`,
//! relative to the working directory).

use perfbench::alloc::CountingAlloc;
use perfbench::spans::Spans;
use perfbench::workload::{Case, Oracle, Workload};
use perfbench::{end_to_end, provenance_json, traced::traced, RunOptions};
use std::process::ExitCode;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

struct Args {
    run: RunOptions,
    trace: bool,
    trace_out: Option<String>,
}

const USAGE: &str =
    "usage: perfbench --workload <fig1b_seq|camera_bank_2t|fig1b_comm_2t|serve_mixed> \
                     --seed <n> --seconds <s> --trace <0|1> [--trace-out <path>]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut trace_out) = (None, None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            "--trace-out" => trace_out = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        run: RunOptions::reference(
            workload,
            seed.ok_or("--seed is required")?,
            seconds.ok_or("--seconds is required")?,
        ),
        trace: trace.ok_or("--trace is required")?,
        trace_out,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run = args.run;
    let provenance = provenance_json(&run);
    println!("{{\"provenance\": {provenance}}}");
    let case = Case::new(run.workload, run.size, run.seed);
    let oracle = match Oracle::compute(&case) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: oracle for {} failed: {e}", run.workload.name());
            return ExitCode::FAILURE;
        }
    };
    let outcome = if args.trace {
        let mut spans = Spans::new();
        let mut outcome = traced(&run, &case, &oracle, &mut spans);
        let path = args
            .trace_out
            .unwrap_or_else(|| format!("perfbench/out/{}.trace.json", run.workload.name()));
        let json = spans.chrome_json(&provenance);
        match bp_sim::validate_json(&json) {
            Err(e) => outcome
                .problems
                .push(format!("span file is not valid JSON: {e}")),
            Ok(()) => {
                let write = std::path::Path::new(&path)
                    .parent()
                    .map_or(Ok(()), std::fs::create_dir_all)
                    .and_then(|()| std::fs::write(&path, json));
                match write {
                    Ok(()) => outcome
                        .notes
                        .push(format!("{} spans written to {path}", spans.spans().len())),
                    Err(e) => outcome.problems.push(format!("writing {path}: {e}")),
                }
            }
        }
        outcome
    } else {
        end_to_end(&run, &case, &oracle)
    };
    for note in &outcome.notes {
        println!("# {note}");
    }
    for problem in &outcome.problems {
        println!("# problem: {problem}");
    }
    for m in &outcome.metrics {
        println!("{:<36} {:>20.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", outcome.result_json());
    ExitCode::SUCCESS
}
