//! End-to-end benchmark of the paper's three protocol paths — Fig. 3
//! authorization query, Fig. 4 cascade verify, Fig. 5 check deposit —
//! over loopback TCP through `EventLoopServer` and `TcpClient`.
//!
//! ```text
//! e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! e2e --smoke
//! ```
//!
//! One process measures one workload; `run.sh` builds the binary and
//! starts it pinned to one CPU. The last line of standard output is the
//! result as one JSON object; see README.md beside this package for the
//! metrics, the correction rule and the recorded repeatability sets.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod harness;
mod host;
mod measure;
mod probes;
mod replay;
mod spans;
mod stats;
mod trace;
mod worlds;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use measure::RunCfg;
use stats::RunResult;
use worlds::{Workload, REPLAY_CAPACITY};

/// Set-ups per untraced run; the median is reported as `setup_s`.
const SETUPS: usize = 5;

/// Slice pairs (rounds, traced) a run measures at least, however
/// short `--seconds`.
const MIN_PAIRS: usize = 4;

/// Where runs may write: the WAL workload's log and the span dumps.
fn scratch_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or("target/e2e".into(), PathBuf::from);
    target.join("scratch")
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

enum Command {
    Run(Args),
    Smoke,
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    if args == ["--smoke"] {
        return Ok(Command::Smoke);
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| (0.0..=3_600.0).contains(s))
                        .ok_or_else(bad)?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Command::Run(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    }))
}

fn run(args: &Args) -> Result<RunResult, String> {
    let cfg = RunCfg {
        workload: args.workload,
        seed: args.seed,
        measure_for: Duration::from_secs_f64(args.seconds),
        min_pairs: MIN_PAIRS,
        scale: args.workload.scale(),
        scratch: scratch_dir(),
        replay_capacity: REPLAY_CAPACITY,
        setups: SETUPS,
    };
    if args.trace {
        trace::run(&cfg)
    } else {
        measure::run(&cfg)
    }
}

/// Every workload, traced and untraced, at reduced sizes and two slice
/// pairs: fails unless no operation failed and every metric is there.
fn smoke() -> Result<(), String> {
    for workload in Workload::ALL {
        for traced in [false, true] {
            let cfg = RunCfg {
                workload,
                seed: 1,
                measure_for: Duration::ZERO,
                min_pairs: 2,
                scale: workload.smoke_scale(),
                scratch: scratch_dir(),
                replay_capacity: REPLAY_CAPACITY,
                setups: 1,
            };
            let (result, expected) = if traced {
                (trace::run(&cfg)?, trace::PER_LAYER)
            } else {
                (measure::run(&cfg)?, measure::END_TO_END)
            };
            println!("{}", result.to_json());
            let name = workload.name();
            if !result.correct || result.failed != 0 || result.attempted == 0 {
                return Err(format!("{name}: {} ops failed", result.failed));
            }
            for (metric, _) in expected {
                if result.metrics.get(metric).is_none() {
                    return Err(format!("{name}: metric {metric} missing"));
                }
            }
            if result.metrics.0.len() != expected.len() {
                return Err(format!("{name}: metrics beyond the declared ones"));
            }
        }
    }
    println!("smoke ok");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match parse_args(&args) {
        Err(e) => Err(format!(
            "{e}\nusage: e2e --workload <name> --seed <n> --seconds <s> --trace <0|1> | --smoke"
        )),
        Ok(Command::Smoke) => smoke().map(|()| true),
        Ok(Command::Run(args)) => run(&args).map(|result| {
            println!("{}", result.to_json());
            result.correct
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        // A run that refused work or failed a self-check has printed
        // its result line; the exit code says not to trust it.
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("e2e: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let args = strings(&[
            "--workload",
            "fig4_cold",
            "--seed",
            "42",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]);
        let Ok(Command::Run(args)) = parse_args(&args) else {
            panic!("did not parse");
        };
        assert_eq!(args.workload, Workload::Fig4Cold);
        assert_eq!((args.seed, args.seconds, args.trace), (42, 10.0, true));
    }

    /// `BENCHMARK.json` at the repository root and the binary must name
    /// the same workloads and metrics, with the same units.
    #[test]
    fn benchmark_json_lists_exactly_what_the_binary_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (name, unit) in measure::END_TO_END.iter().chain(trace::PER_LAYER) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": ");
            assert_eq!(json.matches(&entry).count(), 1, "{name} [{unit}]");
            let valid = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
            assert!(name.len() <= 64 && name.chars().all(valid), "{name}");
        }
        // The gated workloads are a subset of the binary's; fig5_wal is
        // run by hand (README.md, "fig5_wal is not gated").
        let gated: Vec<_> = Workload::ALL
            .into_iter()
            .filter(|w| json.contains(&format!("{{\"name\": \"{}\", \"why\": ", w.name())))
            .collect();
        assert_eq!(gated.len(), json.matches("\"why\": ").count());
        assert!(gated.len() >= 2 && !gated.contains(&Workload::Fig5Wal));
        let metrics = measure::END_TO_END.len() + trace::PER_LAYER.len();
        assert_eq!(json.matches("\"unit\": ").count(), metrics);
    }

    #[test]
    fn incomplete_or_unknown_arguments_are_refused() {
        for bad in [
            &["--workload", "fig3_query"][..],
            &[
                "--workload",
                "fig9",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "0",
            ],
            &[
                "--workload",
                "fig3_query",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "2",
            ],
            &[
                "--workload",
                "fig3_query",
                "--seed",
                "x",
                "--seconds",
                "1",
                "--trace",
                "0",
            ],
            &["--frobnicate", "1"],
            &["--seed"],
        ] {
            assert!(parse_args(&strings(bad)).is_err(), "{bad:?}");
        }
    }
}
