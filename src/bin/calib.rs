//! `calib` — command-line front end for the calibration-scheduling library.
//!
//! ```text
//! calib gen      --family poisson --rate 0.5 --n 30 --t 5 --machines 1 --seed 7 --out trace.json
//! calib online   --alg alg1|alg2|alg3|wmulti|naive|ski --g 20 --trace trace.json [--gantt]
//! calib offline  --budget 4 --trace trace.json [--gantt]
//! calib opt      --g 20 --trace trace.json
//! calib adversary --t 64 --g 32
//! ```
//!
//! Arguments are `--key value` pairs (hand-rolled parsing; the workspace
//! deliberately sticks to its vetted dependency set).

use std::collections::HashMap;
use std::process::ExitCode;

use calibration_scheduling::core::{render_gantt, schedule_stats};
use calibration_scheduling::online::{CalibrateImmediately, SkiRentalBatch, WeightedMulti};
use calibration_scheduling::prelude::*;
use calibration_scheduling::workloads::{arrivals, WeightModel};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let opts = match parse_opts(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match cmd.as_str() {
        "gen" => cmd_gen(&opts),
        "online" => cmd_online(&opts),
        "offline" => cmd_offline(&opts),
        "opt" => cmd_opt(&opts),
        "adversary" => cmd_adversary(&opts),
        _ => Err(format!("unknown command '{cmd}'")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
usage:
  calib gen       --family poisson|bursty|uniform|train|staircase [--rate R] [--burst B] [--gap D]
                  --n N --t T [--machines P] [--seed S] [--weights unit|uniform:MAX|pareto:ALPHA:CAP|bimodal:W:P]
                  [--out FILE]
  calib online    --alg alg1|alg2|alg3|wmulti|naive|ski --g G --trace FILE [--gantt]
  calib offline   --budget K --trace FILE [--gantt] [--solver general|unweighted]
  calib opt       --g G --trace FILE
  calib adversary --t T --g G";

type Opts = HashMap<String, String>;

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let key = key
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --key, got '{key}'"))?;
        if key == "gantt" {
            opts.insert(key.to_string(), "true".to_string());
            continue;
        }
        let val = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        opts.insert(key.to_string(), val.clone());
    }
    Ok(opts)
}

fn get<'a>(opts: &'a Opts, key: &str) -> Result<&'a str, String> {
    opts.get(key)
        .map(|s| s.as_str())
        .ok_or_else(|| format!("missing --{key}"))
}

fn get_num<T: std::str::FromStr>(opts: &Opts, key: &str) -> Result<T, String> {
    get(opts, key)?
        .parse()
        .map_err(|_| format!("--{key}: not a number"))
}

fn get_num_or<T: std::str::FromStr>(opts: &Opts, key: &str, default: T) -> Result<T, String> {
    match opts.get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("--{key}: not a number")),
    }
}

fn parse_weights(spec: &str) -> Result<WeightModel, String> {
    let parts: Vec<&str> = spec.split(':').collect();
    match parts.as_slice() {
        ["unit"] => Ok(WeightModel::Unit),
        ["uniform", max] => Ok(WeightModel::Uniform {
            max: max.parse().map_err(|_| "bad uniform max")?,
        }),
        ["pareto", alpha, cap] => Ok(WeightModel::Pareto {
            alpha: alpha.parse().map_err(|_| "bad pareto alpha")?,
            cap: cap.parse().map_err(|_| "bad pareto cap")?,
        }),
        ["bimodal", w, p] => Ok(WeightModel::Bimodal {
            heavy: w.parse().map_err(|_| "bad bimodal weight")?,
            p_heavy: p.parse().map_err(|_| "bad bimodal probability")?,
        }),
        _ => Err(format!("unknown weight model '{spec}'")),
    }
}

fn load_trace(opts: &Opts) -> Result<Trace, String> {
    let path = get(opts, "trace")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    Trace::from_json(&text).map_err(|e| format!("parse {path}: {e}"))
}

fn cmd_gen(opts: &Opts) -> Result<(), String> {
    let n: usize = get_num(opts, "n")?;
    let t: i64 = get_num(opts, "t")?;
    let machines: usize = get_num_or(opts, "machines", 1)?;
    let seed: u64 = get_num_or(opts, "seed", 0)?;
    let family = get(opts, "family")?;
    let releases = match family {
        "poisson" => arrivals::poisson(seed, n, get_num_or(opts, "rate", 0.5)?, machines == 1),
        "bursty" => {
            let burst: usize = get_num_or(opts, "burst", 4)?;
            let gap: i64 = get_num_or(opts, "gap", 20)?;
            arrivals::bursty(n.div_ceil(burst), burst, gap, machines == 1)
        }
        "uniform" => arrivals::uniform_spread(seed, n, 3 * n as i64, machines == 1),
        "train" => arrivals::job_train(n as i64),
        "staircase" => {
            let gap: i64 = get_num_or(opts, "gap", 10)?;
            let mut steps = 1;
            while steps * (steps + 1) / 2 < n {
                steps += 1;
            }
            arrivals::staircase(steps, gap, machines == 1)
        }
        other => return Err(format!("unknown family '{other}'")),
    };
    let weights = parse_weights(opts.get("weights").map_or("unit", |s| s.as_str()))?;
    let inst = make_instance(releases, weights, seed, machines, t);
    let label = format!("{family}(cli)");
    let trace = Trace::new(label, seed, 0, inst);
    let json = trace.to_json().map_err(|e| e.to_string())?;
    match opts.get("out") {
        Some(path) => {
            std::fs::write(path, &json).map_err(|e| format!("write {path}: {e}"))?;
            eprintln!("wrote {} jobs to {path}", trace.instance.n());
        }
        None => println!("{json}"),
    }
    Ok(())
}

fn run_named(alg: &str, inst: &Instance, g: u128) -> Result<RunResult, String> {
    Ok(match alg {
        "alg1" => run_online(inst, g, &mut Alg1::new()),
        "alg2" => run_online(inst, g, &mut Alg2::new()),
        "alg3" => run_online(inst, g, &mut Alg3::new()),
        "alg3-practical" => run_alg3_practical(inst, g),
        "wmulti" => run_online(inst, g, &mut WeightedMulti::new()),
        "naive" => run_online(inst, g, &mut CalibrateImmediately),
        "ski" => run_online(inst, g, &mut SkiRentalBatch),
        other => return Err(format!("unknown algorithm '{other}'")),
    })
}

fn print_outcome(inst: &Instance, schedule: &Schedule, cost_line: String, gantt: bool) {
    let stats = schedule_stats(inst, schedule);
    println!("{cost_line}");
    println!(
        "calibrations={} busy/calibrated slots={}/{} utilization={:.2} mean flow={:.2} max flow={} at-release={}",
        stats.calibrations,
        stats.busy_slots,
        stats.calibrated_slots,
        stats.utilization,
        stats.mean_flow,
        stats.max_flow,
        stats.at_release,
    );
    if gantt {
        println!("{}", render_gantt(inst, schedule));
    }
}

fn cmd_online(opts: &Opts) -> Result<(), String> {
    let trace = load_trace(opts)?;
    let g: u128 = get_num(opts, "g")?;
    let alg = get(opts, "alg")?;
    let res = run_named(alg, &trace.instance, g)?;
    print_outcome(
        &trace.instance,
        &res.schedule,
        format!("{alg}: flow={} cost={} (G={g})", res.flow, res.cost),
        opts.contains_key("gantt"),
    );
    Ok(())
}

fn cmd_offline(opts: &Opts) -> Result<(), String> {
    let trace = load_trace(opts)?;
    let budget: usize = get_num(opts, "budget")?;
    let inst = trace.instance.normalized();
    let solver = opts.get("solver").map_or("general", |s| s.as_str());
    let (flow, schedule, label) = match solver {
        "general" => {
            let sol = solve_offline(&inst, budget)
                .map_err(|e| e.to_string())?
                .ok_or(format!("budget {budget} cannot fit all jobs"))?;
            (sol.flow, sol.schedule, "offline DP (Propositions 1-2)")
        }
        "unweighted" => {
            let sol = calibration_scheduling::offline::solve_offline_unweighted(&inst, budget)
                .map_err(|e| e.to_string())?
                .ok_or(format!("budget {budget} cannot fit all jobs"))?;
            (
                sol.flow,
                sol.schedule,
                "offline DP (slot-exchange, unweighted)",
            )
        }
        other => return Err(format!("unknown solver '{other}'")),
    };
    print_outcome(
        &inst,
        &schedule,
        format!("{label}: flow={flow} within {budget} calibrations"),
        opts.contains_key("gantt"),
    );
    Ok(())
}

fn cmd_opt(opts: &Opts) -> Result<(), String> {
    let trace = load_trace(opts)?;
    let g: u128 = get_num(opts, "g")?;
    let inst = trace.instance.normalized();
    let opt = opt_online_cost(&inst, g).map_err(|e| e.to_string())?;
    println!(
        "OPT(G={g}): cost={} calibrations={} flow={}",
        opt.cost, opt.calibrations, opt.flow
    );
    Ok(())
}

fn cmd_adversary(opts: &Opts) -> Result<(), String> {
    let t: i64 = get_num(opts, "t")?;
    let g: u128 = get_num(opts, "g")?;
    let outcome = play_lemma31(t, g, Alg1::new);
    println!(
        "Lemma 3.1 vs Alg1 (T={t}, G={g}): branch={:?} alg={} opt={} ratio={:.4}",
        outcome.branch,
        outcome.alg_cost,
        outcome.opt_cost,
        outcome.ratio()
    );
    Ok(())
}
