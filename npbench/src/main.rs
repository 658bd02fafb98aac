//! `npbench`: the repository's benchmark. Seven workloads measure the
//! program from outside, by timing calls into its public functions; the
//! seed stays in the harness, the program receives only generated inputs.
//!
//! ```text
//! npbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! npbench --all --seed <n> --out <dir> [--seconds <s>]
//! npbench --compare <dirA> <dirB>
//! ```
//!
//! A `--workload` run prints every metric as `workload metric value unit`
//! and, as its last line, the JSON result the driver reads: end-to-end
//! metrics untraced, per-layer metrics traced. It exits non-zero if any
//! reply was wrong. See `README.md` beside `Cargo.toml`.

mod common;
mod compare;
mod drive;
mod json;
mod metrics;
mod pipeline;
mod probes;
mod record;
mod report;
mod rng;
mod served;
mod sim_direct;
mod stats;
mod traffic;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use common::{Outcome, RunArgs};

#[derive(Debug, PartialEq)]
enum Mode {
    Workload {
        name: String,
        args: RunArgs,
        out: Option<PathBuf>,
    },
    All {
        seed: u64,
        seconds: f64,
        out: PathBuf,
    },
    Compare(PathBuf, PathBuf),
    PrintBenchmarkJson,
}

fn parse(argv: &[String]) -> Result<Mode, String> {
    let (mut workload, mut out, mut compare) = (None, None, None);
    let (mut all, mut print, mut trace) = (false, false, false);
    let (mut seed, mut seconds) = (1u64, metrics::RUN_SECONDS as f64);
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => workload = Some(value("a workload name")?),
            "--seed" => seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--out" => out = Some(PathBuf::from(value("a directory")?)),
            "--compare" => {
                compare = Some((
                    PathBuf::from(value("two directories")?),
                    PathBuf::from(value("two directories")?),
                ))
            }
            "--all" => all = true,
            "--print-benchmark-json" => print = true,
            // `--trace` alone switches tracing on; the driver spells it
            // `--trace 0` or `--trace 1`.
            "--trace" => match it.peek().map(|v| v.as_str()) {
                Some("0") => {
                    it.next();
                }
                Some("1") => {
                    it.next();
                    trace = true;
                }
                _ => trace = true,
            },
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    match (workload, all, compare, print) {
        (Some(name), false, None, false) => {
            if metrics::workload(&name).is_none() {
                let names: Vec<&str> = metrics::WORKLOADS.iter().map(|w| w.name).collect();
                return Err(format!("unknown workload `{name}` (one of {})", names.join(", ")));
            }
            Ok(Mode::Workload {
                name,
                args: RunArgs { seed, seconds, trace },
                out,
            })
        }
        (None, true, None, false) => Ok(Mode::All {
            seed,
            seconds,
            out: out.ok_or("--all needs --out <dir>")?,
        }),
        (None, false, Some((a, b)), false) => Ok(Mode::Compare(a, b)),
        (None, false, None, true) => Ok(Mode::PrintBenchmarkJson),
        _ => Err("give exactly one of --workload, --all, --compare".to_string()),
    }
}

fn run_workload(name: &str, args: RunArgs) -> Outcome {
    use served::Kind;
    let outcome = match name {
        "sim_direct" => sim_direct::run(args),
        "serve_saturate" => served::run(Kind::Saturate, args),
        "serve_keyed_saturate" => served::run(Kind::Keyed, args),
        "serve_open" => served::run(Kind::Open, args),
        "wire_saturate" => served::run(Kind::WireSaturate, args),
        "wire_pingpong" => served::run(Kind::WirePingpong, args),
        "pipeline_saturate" => pipeline::run(args),
        other => unreachable!("`{other}` passed the dictionary check"),
    };
    common::remove_scratch();
    outcome
}

fn workload_mode(name: &str, args: RunArgs, out: Option<&Path>) -> Result<ExitCode, String> {
    let outcome = run_workload(name, args);
    for (m, v) in report::by_dictionary(&outcome, args.trace) {
        println!("{name} {} {} {}", m.name, v.value, m.unit);
    }
    if let Some(dir) = out {
        let io = |e: std::io::Error| format!("{}: {e}", dir.display());
        report::append_rows(dir, &report::rows(name, &outcome, args.trace)).map_err(io)?;
        if args.trace {
            report::append_trace(dir, name, &outcome.spans).map_err(io)?;
        }
    }
    if outcome.attempted == 0 {
        return Err(format!("{name} attempted nothing in {} s", args.seconds));
    }
    println!(
        "{name} failed_share {} share ({} failed of {} attempted, {} wrong)",
        outcome.failed as f64 / outcome.attempted as f64,
        outcome.failed,
        outcome.attempted,
        outcome.wrong
    );
    println!("{}", report::result_line(&outcome, args.trace));
    Ok(if outcome.wrong == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Every workload, untraced then traced, each run in a fresh child process
/// so that set-up time and peak memory are the workload's own.
fn all_mode(seed: u64, seconds: f64, out: &Path) -> Result<ExitCode, String> {
    report::start_results(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut clean = true;
    for w in &metrics::WORKLOADS {
        for trace in ["0", "1"] {
            let status = std::process::Command::new(&exe)
                .args([
                    "--workload",
                    w.name,
                    "--seed",
                    &seed.to_string(),
                    "--seconds",
                    &seconds.to_string(),
                ])
                .args(["--trace", trace, "--out"])
                .arg(out)
                .status()
                .map_err(|e| format!("{}: {e}", exe.display()))?;
            clean &= status.success();
        }
    }
    let rows = report::read_rows(out)?;
    let json = report::results_json(seed, seconds, &rows).pretty();
    std::fs::write(out.join("results.json"), json).map_err(|e| format!("{}: {e}", out.display()))?;
    Ok(if clean { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let done = parse(&argv).and_then(|mode| match mode {
        Mode::Workload { name, args, out } => workload_mode(&name, args, out.as_deref()),
        Mode::All { seed, seconds, out } => all_mode(seed, seconds, &out),
        Mode::Compare(a, b) => compare::compare(&a, &b).map(|ok| if ok { ExitCode::SUCCESS } else { ExitCode::FAILURE }),
        Mode::PrintBenchmarkJson => {
            print!("{}", metrics::benchmark_json().pretty());
            Ok(ExitCode::SUCCESS)
        }
    });
    done.unwrap_or_else(|message| {
        eprintln!("npbench: {message}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let mode = parse(&args("--workload serve_open --seed 7 --seconds 12 --trace 1")).unwrap();
        let want = RunArgs {
            seed: 7,
            seconds: 12.0,
            trace: true,
        };
        assert_eq!(
            mode,
            Mode::Workload {
                name: "serve_open".into(),
                args: want,
                out: None
            }
        );
        let Mode::Workload { args: a, .. } = parse(&args("--workload sim_direct --trace 0 --seed 3")).unwrap() else {
            panic!("a workload run");
        };
        assert!(!a.trace && a.seed == 3 && a.seconds == metrics::RUN_SECONDS as f64);
        assert!(matches!(
            parse(&args("--workload sim_direct --trace")),
            Ok(Mode::Workload {
                args: RunArgs { trace: true, .. },
                ..
            })
        ));
        assert!(parse(&args("--workload nope")).is_err());
        assert!(parse(&args("--all")).is_err());
        assert!(parse(&args("--all --out d --workload sim_direct")).is_err());
        assert!(parse(&args("--frobnicate")).is_err());
        assert_eq!(parse(&args("--compare a b")), Ok(Mode::Compare("a".into(), "b".into())));
    }

    /// A 0.3 s run of each workload, both modes: every reply correct, every
    /// name the dictionary's. Timing code is measured optimised only.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "run with --release: the cycle tier is too slow unoptimised")]
    fn every_workload_smokes_clean_in_both_modes() {
        for w in &metrics::WORKLOADS {
            for trace in [false, true] {
                let outcome = run_workload(
                    w.name,
                    RunArgs {
                        seed: 2,
                        seconds: 0.3,
                        trace,
                    },
                );
                assert!(outcome.attempted > 0, "{} attempted nothing", w.name);
                assert_eq!(outcome.failed, 0, "{} (trace {trace}) had failures", w.name);
                let listed = report::by_dictionary(&outcome, trace);
                assert!(listed.iter().all(|(_, v)| v.value.is_finite()), "{}", w.name);
                if !trace {
                    assert!(listed
                        .iter()
                        .all(|(m, v)| v.value > 0.0 || panic!("{} {} is 0", w.name, m.name)));
                }
            }
        }
    }
}
