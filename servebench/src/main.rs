//! `servebench`: the end-to-end serving benchmark.
//!
//! ```text
//! servebench --workload deep-queue|chatty-journaled|routed --seed N
//!            --seconds S --trace 0|1 [--connect HOST:PORT]
//! ```
//!
//! It builds the real `calib-serve` and `calib-router` binaries from the
//! repository, runs them as child processes on free loopback ports, and
//! drives them with seeded request plans. `--trace 0` prints the
//! end-to-end metrics of three phases (open loop at a light and a heavy
//! fixed rate, then a pipelined closed loop); `--trace 1` replays the same
//! plans through each serving layer's public functions in-process and
//! prints the per-layer breakdown. Every run checks each drained tenant
//! against a local batch run and the daemon's counters against the
//! driver's own. The last line of standard output is one JSON object;
//! the exit code is 0 only when every check passed. `--connect` points an
//! untraced run at an already-running server instead of spawning one.

use std::process::ExitCode;

use calib_servebench::report::{result_line, END_TO_END, PER_LAYER};
use calib_servebench::{config, run, traced, Env};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    connect: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut connect = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => trace = Some(value()? == "1"),
            "--connect" => connect = Some(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let usage =
        "usage: servebench --workload NAME --seed N --seconds S --trace 0|1 [--connect ADDR]";
    Ok(Args {
        workload: workload.ok_or(usage)?,
        seed: seed.ok_or(usage)?,
        seconds: seconds.filter(|s| *s > 0.0).ok_or(usage)?,
        trace: trace.ok_or(usage)?,
        connect,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let workloads = match config::workloads() {
        Ok(w) => w,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = workloads.into_iter().find(|w| w.name == args.workload) else {
        eprintln!("unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    if args.trace && args.connect.is_some() {
        eprintln!("--connect drives untraced runs only");
        return ExitCode::from(2);
    }
    // `--connect` drives a server that is already running: nothing to build.
    let env = match Env::locate().and_then(|env| match args.connect {
        Some(_) => Ok(env),
        None => env.build().map(|()| env),
    }) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    println!("workload {}: {}", workload.name, workload.why);
    let outcome = if args.trace {
        traced::run(&env, &workload, args.seed, args.seconds)
    } else {
        run::run(
            &env,
            &workload,
            args.seed,
            args.seconds,
            args.connect.as_deref(),
        )
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::from(1);
        }
    };
    for e in outcome.errors.iter().take(20) {
        eprintln!("servebench: failure: {e}");
    }
    outcome.metrics.print_lines(&workload.name);
    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    let failed = outcome.failed();
    let correct = failed == 0;
    println!(
        "{}",
        result_line(
            correct,
            outcome.attempted,
            failed,
            outcome.metrics.result_json(wanted)
        )
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
