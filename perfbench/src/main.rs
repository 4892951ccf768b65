//! `perfbench` — runs one workload and prints its metrics.
//!
//! ```text
//! perfbench --workload <batch_fill|qos_skew|tenant_churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is the result object (`correct`,
//! `attempted`, `failed`, `metrics`); the line before it carries
//! provenance and distributions. A traced run also writes its spans and
//! both lines under the output directory: `$PERFBENCH_OUT_DIR`, or
//! `perfbench/out` below the working directory, resolved when the run
//! starts. The exit code is 0 only for a clean, correct run.

use mcfpga_perfbench::{result_line, run, Config, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

fn parse(args: &[String]) -> Result<(String, Config), String> {
    let mut workload = None;
    let mut cfg = Config {
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => cfg.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                cfg.seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds '{value}'"))?;
            }
            "--trace" => cfg.trace = value.parse::<u8>().map_err(bad)? != 0,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !(cfg.seconds > 0.0 && cfg.seconds <= 600.0) {
        return Err(format!("--seconds {} outside (0, 600]", cfg.seconds));
    }
    let workload = workload.ok_or_else(|| format!("--workload is required: {WORKLOADS:?}"))?;
    Ok((workload, cfg))
}

/// Where a traced run writes its files, resolved from the environment
/// and the working directory at run time.
fn out_dir() -> Result<PathBuf, String> {
    match std::env::var_os("PERFBENCH_OUT_DIR") {
        Some(dir) => Ok(PathBuf::from(dir)),
        None => std::env::current_dir()
            .map(|d| d.join("perfbench").join("out"))
            .map_err(|e| format!("working directory: {e}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, cfg) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&workload, &cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {workload} failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let detail = outcome.detail.render();
    let result = result_line(&outcome);
    if let Some(spans) = &outcome.span_file {
        let write = || -> Result<PathBuf, String> {
            let dir = out_dir()?;
            std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            let stem = format!("{workload}-seed{}", cfg.seed);
            std::fs::write(dir.join(format!("{stem}.spans.tsv")), spans)
                .and_then(|()| {
                    std::fs::write(
                        dir.join(format!("{stem}.json")),
                        format!("{detail}\n{result}\n"),
                    )
                })
                .map_err(|e| format!("{}: {e}", dir.display()))?;
            Ok(dir)
        };
        match write() {
            Ok(dir) => eprintln!("perfbench: spans written under {}", dir.display()),
            Err(e) => {
                eprintln!("perfbench: cannot write spans: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!("{detail}");
    println!("{result}");
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: {workload} produced wrong or missing outputs");
        ExitCode::FAILURE
    }
}
