//! The sharded routing front-end.
//!
//! ```text
//! calib-router --listen 127.0.0.1:0 --shard HOST:PORT [--shard HOST:PORT ...]
//!              [--seed N] [--vnodes N] [--read-timeout-ms N]
//!              [--control-timeout-ms N] [--connect-attempts N]
//!              [--backoff-base-ms N] [--backoff-cap-ms N]
//!              [--journal-dir DIR] [--run-forever]
//! ```
//!
//! Fronts a fleet of `calib-serve` daemons (one `--shard` each, in a
//! stable order — ring ownership and `migrate` targets refer to shard
//! indices in this list). Clients speak the ordinary wire protocol to the
//! router; each tenant's requests are forwarded to its consistent-hash
//! owner. The extra admin request `{"type":"migrate","tenant":T,"to":N}`
//! moves a live tenant between shards by checkpoint handoff (see
//! `ROUTER.md`).
//!
//! Prints one `{"type":"listening","addr":…,"shards":N}` line to stdout
//! once bound, a `{"type":"placed",…}` line per tenant placement, and a
//! final `{"type":"routed",…}` summary when it exits (idle, unless
//! `--run-forever`). For migration by checkpoint handoff to survive a
//! crashed source shard, every daemon in the fleet must run with the
//! *same* `--journal-dir`. Passing that directory to the router as well
//! persists the placement table there (`router-placements.jsonl`), so a
//! restarted router remembers completed migrations instead of re-deriving
//! stale ring homes.
//!
//! Exit status: 0 on a clean run, 2 on usage or I/O errors.

use std::io::Write;
use std::net::TcpListener;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use calib_core::json::{Json, ToJson};
use calib_router::{run_router, RouterConfig, RouterReport};
use calib_serve::LineSink;

struct Args {
    listen: String,
    read_timeout_ms: Option<u64>,
    config: RouterConfig,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        listen: String::new(),
        read_timeout_ms: None,
        config: RouterConfig::default(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match arg.as_str() {
            "--listen" => args.listen = value("--listen")?,
            "--shard" => args.config.shards.push(value("--shard")?),
            "--seed" => {
                args.config.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--vnodes" => {
                args.config.vnodes = value("--vnodes")?
                    .parse()
                    .map_err(|e| format!("--vnodes: {e}"))?;
            }
            "--read-timeout-ms" => {
                args.read_timeout_ms = Some(
                    value("--read-timeout-ms")?
                        .parse()
                        .map_err(|e| format!("--read-timeout-ms: {e}"))?,
                );
            }
            "--control-timeout-ms" => {
                let ms: u64 = value("--control-timeout-ms")?
                    .parse()
                    .map_err(|e| format!("--control-timeout-ms: {e}"))?;
                args.config.control_timeout = Duration::from_millis(ms.max(1));
            }
            "--connect-attempts" => {
                args.config.connect_attempts = value("--connect-attempts")?
                    .parse()
                    .map_err(|e| format!("--connect-attempts: {e}"))?;
            }
            "--backoff-base-ms" => {
                args.config.backoff_base_ms = value("--backoff-base-ms")?
                    .parse()
                    .map_err(|e| format!("--backoff-base-ms: {e}"))?;
            }
            "--backoff-cap-ms" => {
                args.config.backoff_cap_ms = value("--backoff-cap-ms")?
                    .parse()
                    .map_err(|e| format!("--backoff-cap-ms: {e}"))?;
            }
            "--journal-dir" => {
                args.config.journal_dir = Some(value("--journal-dir")?.into());
            }
            "--run-forever" => args.config.exit_when_idle = false,
            "--help" | "-h" => {
                return Err("usage: calib-router --listen ADDR --shard ADDR \
                     [--shard ADDR ...] [--seed N] [--vnodes N] \
                     [--read-timeout-ms N] [--control-timeout-ms N] \
                     [--connect-attempts N] [--backoff-base-ms N] \
                     [--backoff-cap-ms N] [--journal-dir DIR] [--run-forever]"
                    .to_string());
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.listen.is_empty() {
        return Err("--listen ADDR is required".to_string());
    }
    if args.config.shards.is_empty() {
        return Err("at least one --shard ADDR is required".to_string());
    }
    // Same default idle timeout as the daemon's TCP mode; 0 disables.
    let effective = args.read_timeout_ms.unwrap_or(30_000);
    if effective > 0 {
        args.config.read_timeout = Some(Duration::from_millis(effective));
    }
    Ok(args)
}

fn print_report(report: &RouterReport) {
    let summary = Json::obj([
        ("type", Json::Str("routed".to_string())),
        ("connections", report.connections.to_json()),
        ("requests", report.requests.to_json()),
        ("forwarded_requests", report.forwarded_requests.to_json()),
        ("placements", report.placements.to_json()),
        ("migrations", report.migrations.to_json()),
        ("migration_failures", report.migration_failures.to_json()),
        ("busy_rejects", report.busy_rejects.to_json()),
        ("shard_unreachable", report.shard_unreachable.to_json()),
    ]);
    println!("{}", summary.to_string_compact());
    let _ = std::io::stdout().flush();
}

fn main() -> ExitCode {
    let mut args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    args.config.placement_log = Some(Arc::new(LineSink::new(Box::new(std::io::stdout()))));

    let listener = match TcpListener::bind(&args.listen) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("cannot bind {}: {e}", args.listen);
            return ExitCode::from(2);
        }
    };
    match listener.local_addr() {
        Ok(local) => {
            let line = Json::obj([
                ("type", Json::Str("listening".to_string())),
                ("addr", Json::Str(local.to_string())),
                ("shards", args.config.shards.len().to_json()),
            ]);
            println!("{}", line.to_string_compact());
            let _ = std::io::stdout().flush();
        }
        Err(e) => {
            eprintln!("cannot read local addr: {e}");
            return ExitCode::from(2);
        }
    }
    match run_router(listener, args.config) {
        Ok(report) => {
            print_report(&report);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("router failed: {e}");
            ExitCode::from(2)
        }
    }
}
