//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a header (host parallelism, build profile, commit), the run's
//! rounds, operations and work counts as `#` lines, and as its last line
//! the JSON result.  Exits 0 iff every check passed.

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use perfbench::{result_json, run_named, RunConfig, Scale, WORKLOADS};

fn usage(problem: &str) -> ExitCode {
    eprintln!("perfbench: {problem}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".to_string())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            other => return usage(&format!("unknown flag {other}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are required and must parse");
    };
    if !WORKLOADS.contains(&workload.as_str()) {
        return usage(&format!("unknown workload {workload}"));
    }
    let config = RunConfig {
        seed,
        seconds,
        trace,
        scale: Scale::Full,
        trace_dir: trace.then(|| PathBuf::from(".bench_trace")),
    };
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "# perfbench host_parallelism={parallelism} profile={profile} commit={}",
        commit()
    );
    let (result, op, tail) = run_named(&workload, &config).expect("workload name checked above");
    println!(
        "# workload={workload} seed={seed} seconds={seconds} trace={} op={op} tail=p{}",
        u8::from(trace),
        tail * 100.0
    );
    println!(
        "# rounds={} attempted={} failed={}",
        result.rounds, result.attempted, result.failed
    );
    let work: Vec<String> = result
        .work
        .iter()
        .map(|(name, count)| format!("{name}={count}"))
        .collect();
    println!("# work/round {}", work.join(" "));
    for error in result.errors.iter().take(5) {
        println!("# CHECK FAILED: {error}");
    }
    if result.errors.len() > 5 {
        println!("# ... and {} more failed checks", result.errors.len() - 5);
    }
    println!("{}", result_json(&result, trace));
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
