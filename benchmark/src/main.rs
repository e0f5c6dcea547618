//! `clampi-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload and prints its listing followed by the result line;
//! without `--workload` it runs the whole suite (see `suite.rs`).

use std::path::PathBuf;
use std::process::ExitCode;

use clampi_benchmark::workloads::{self, Opts};

fn usage() -> String {
    format!(
        "usage: clampi-benchmark [--workload <{}>] [--seed <n>] [--seconds <s>] [--trace <0|1>] \
         [--smoke] [--repeat-check] [--out <dir>]",
        clampi_benchmark::names::WORKLOADS.join("|")
    )
}

struct Cli {
    workload: Option<String>,
    opts: Opts,
    repeat_check: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        opts: Opts {
            seed: 42,
            seconds: 5.0,
            trace: false,
            smoke: false,
            out_dir: PathBuf::from("benchmark/out"),
        },
        repeat_check: false,
    };
    let mut seconds = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?.clone()),
            "--seed" => {
                cli.opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                cli.opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
                };
            }
            "--out" => cli.opts.out_dir = PathBuf::from(value()?),
            "--smoke" => cli.opts.smoke = true,
            "--repeat-check" => cli.repeat_check = true,
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    cli.opts.seconds = seconds.unwrap_or(if cli.opts.smoke { 0.1 } else { 5.0 });
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let Some(name) = cli.workload else {
        return clampi_benchmark::suite::run(&cli.opts, cli.repeat_check);
    };
    match workloads::run(&name, &cli.opts) {
        Ok(report) => {
            print!("{}", report.listing(&name));
            // A correctness failure prints no result line: the driver must
            // not mistake a wrong run for a measured one.
            if !report.correct() {
                eprintln!(
                    "{name}: {} of {} checked operations FAILED",
                    report.failed, report.attempted
                );
                return ExitCode::FAILURE;
            }
            println!("{}", report.result_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
