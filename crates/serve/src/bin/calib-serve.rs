//! The scheduling daemon.
//!
//! ```text
//! calib-serve --listen 127.0.0.1:0 [--workers N] [--queue-cap N]
//!             [--trace-dir DIR] [--journal-dir DIR] [--fsync always|tick|off]
//!             [--checkpoint-every-n N] [--compact-on-idle]
//!             [--read-timeout-ms N] [--max-tenants N] [--run-forever]
//!             [--metrics-interval-ms N] [--max-inflight N]
//!             [--rate-per-k N] [--rate-burst N]
//! calib-serve --stdin [--workers N] [--queue-cap N] [--trace-dir DIR]
//! ```
//!
//! With `--journal-dir`, every accepted mutating request is write-ahead
//! journalled per tenant and sessions survive daemon crashes: restart the
//! daemon with the same directory and clients `resume` their tenants.
//! `--checkpoint-every-n N` appends a full-state checkpoint record every
//! `N` journaled records (0 disables) and `--compact-on-idle` rewrites an
//! idle tenant's journal down to a single checkpoint — both bound crash
//! recovery to replaying the tail after the latest checkpoint, and each
//! recovery prints one `{"type":"recovered",...}` line (stdout in TCP
//! mode, stderr in `--stdin` mode) reporting how many records were
//! replayed.
//! `--read-timeout-ms` (default 30000 in TCP mode, 0 disables) bounds how
//! long an accepted socket may sit idle before the daemon sends a typed
//! `read-timeout` error and disconnects; it is always off in `--stdin`
//! mode so interactive use never times out.
//! `--max-inflight N` caps work-bearing requests (arrive/tick/drain) in
//! flight daemon-wide; over the cap, over-fair-share tenants are shed with
//! a typed `shed` error carrying `retry_after_ms`. `--rate-per-k N` grants
//! each tenant `N x weight` tokens per 1000 observed requests (the
//! admission clock is virtual: one tick per request line, no wall clock);
//! an empty bucket answers `rate-limited` with the exact refill time.
//! `--rate-burst N` sizes the bucket at `N x weight` tokens (default 8).
//! Both mechanisms are off by default (0 disables); see SERVE.md
//! "Overload & admission".
//!
//! In TCP mode the daemon prints one `{"type":"listening","addr":...}`
//! line to stdout once the socket is bound (bind port 0 to let the OS
//! pick), serves until idle (every connection closed, every tenant gone),
//! then prints one `{"type":"accounting",...}` line per tenant and a final
//! `{"type":"served",...}` summary. In `--stdin` mode the protocol runs
//! over stdin/stdout and the accounting goes to stderr.
//!
//! Exit status: 0 when every tenant's final schedule passed the
//! feasibility checker, 1 when any failed, 2 on usage or I/O errors.

use std::io::Write;
use std::net::TcpListener;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use calib_core::json::{Json, ObjWriter, ToJson};
use calib_serve::{serve, serve_stream, FsyncPolicy, LineSink, ServeReport, ServerConfig};

struct Args {
    listen: Option<String>,
    stdin: bool,
    read_timeout_ms: Option<u64>,
    config: ServerConfig,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        listen: None,
        stdin: false,
        read_timeout_ms: None,
        config: ServerConfig::default(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match arg.as_str() {
            "--listen" => args.listen = Some(value("--listen")?),
            "--stdin" => args.stdin = true,
            "--workers" => {
                args.config.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
            }
            "--queue-cap" => {
                args.config.queue_cap = value("--queue-cap")?
                    .parse()
                    .map_err(|e| format!("--queue-cap: {e}"))?;
            }
            "--trace-dir" => {
                args.config.trace_dir = Some(value("--trace-dir")?.into());
            }
            "--journal-dir" => {
                args.config.journal_dir = Some(value("--journal-dir")?.into());
            }
            "--fsync" => {
                let name = value("--fsync")?;
                args.config.fsync = FsyncPolicy::from_name(&name)
                    .ok_or_else(|| format!("--fsync: unknown policy `{name}`"))?;
            }
            "--checkpoint-every-n" => {
                let n: u64 = value("--checkpoint-every-n")?
                    .parse()
                    .map_err(|e| format!("--checkpoint-every-n: {e}"))?;
                // 0 disables, like --metrics-interval-ms.
                args.config.checkpoint_every = (n > 0).then_some(n);
            }
            "--compact-on-idle" => args.config.compact_on_idle = true,
            "--read-timeout-ms" => {
                args.read_timeout_ms = Some(
                    value("--read-timeout-ms")?
                        .parse()
                        .map_err(|e| format!("--read-timeout-ms: {e}"))?,
                );
            }
            "--max-tenants" => {
                args.config.max_tenants = value("--max-tenants")?
                    .parse()
                    .map_err(|e| format!("--max-tenants: {e}"))?;
            }
            "--run-forever" => args.config.exit_when_idle = false,
            "--max-inflight" => {
                let n: u64 = value("--max-inflight")?
                    .parse()
                    .map_err(|e| format!("--max-inflight: {e}"))?;
                // 0 disables, like --checkpoint-every-n.
                args.config.admit.max_inflight = (n > 0).then_some(n);
            }
            "--rate-per-k" => {
                let n: u64 = value("--rate-per-k")?
                    .parse()
                    .map_err(|e| format!("--rate-per-k: {e}"))?;
                args.config.admit.rate_per_k = (n > 0).then_some(n);
            }
            "--rate-burst" => {
                args.config.admit.burst = value("--rate-burst")?
                    .parse()
                    .map_err(|e| format!("--rate-burst: {e}"))?;
            }
            "--metrics-interval-ms" => {
                let ms: u64 = value("--metrics-interval-ms")?
                    .parse()
                    .map_err(|e| format!("--metrics-interval-ms: {e}"))?;
                // 0 disables the stream (the `metrics` wire request still
                // works either way).
                args.config.metrics_interval = (ms > 0).then(|| Duration::from_millis(ms));
            }
            "--help" | "-h" => {
                return Err("usage: calib-serve --listen ADDR | --stdin \
                     [--workers N] [--queue-cap N] [--trace-dir DIR] \
                     [--journal-dir DIR] [--fsync always|tick|off] \
                     [--checkpoint-every-n N] [--compact-on-idle] \
                     [--read-timeout-ms N] [--max-tenants N] [--run-forever] \
                     [--metrics-interval-ms N] [--max-inflight N] \
                     [--rate-per-k N] [--rate-burst N]"
                    .to_string());
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.stdin == args.listen.is_some() {
        return Err("pass exactly one of --listen ADDR or --stdin".to_string());
    }
    // TCP sockets get a generous idle timeout by default so a stalled
    // client cannot pin a reader thread forever; 0 disables. Stdin mode
    // never times out (interactive use).
    let effective = args.read_timeout_ms.unwrap_or(30_000);
    if !args.stdin && effective > 0 {
        args.config.read_timeout = Some(Duration::from_millis(effective));
    }
    Ok(args)
}

fn print_report(report: &ServeReport, mut out: impl Write) {
    for acc in &report.accountings {
        let mut line = String::new();
        let mut w = ObjWriter::new(&mut line);
        w.str("type", "accounting");
        acc.write_fields(&mut w);
        w.finish();
        let _ = writeln!(out, "{line}");
    }
    let summary = Json::obj([
        ("type", Json::Str("served".to_string())),
        ("tenants", report.accountings.len().to_json()),
        ("connections", report.connections.to_json()),
        ("busy_drops", report.busy_drops.to_json()),
        ("sheds", report.sheds.to_json()),
        ("rate_limited", report.rate_limited.to_json()),
        ("shed_disconnects", report.shed_disconnects.to_json()),
        ("detaches", report.detaches.to_json()),
        ("resumes", report.resumes.to_json()),
        ("recovered", report.recovered.to_json()),
        ("trace_io_errors", report.trace_io_errors.to_json()),
        ("all_ok", Json::Bool(report.all_ok())),
    ]);
    let _ = writeln!(out, "{}", summary.to_string_compact());
    let _ = out.flush();
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    let mut config = args.config;
    // Replies own stdout in stdin mode, so the log channel is stderr
    // there; in TCP mode stdout is the daemon's log channel. Metrics
    // snapshots and recovery reports share it.
    let log: Box<dyn Write + Send> = if args.stdin {
        Box::new(std::io::stderr())
    } else {
        Box::new(std::io::stdout())
    };
    let log = Arc::new(LineSink::new(log));
    if config.metrics_interval.is_some() {
        config.metrics_sink = Some(Arc::clone(&log));
    }
    if config.journal_dir.is_some() {
        config.recovery_log = Some(log);
    }

    let report = if args.stdin {
        let stdout = Box::new(std::io::stdout());
        serve_stream(std::io::stdin().lock(), stdout, config)
    } else {
        let addr = args.listen.as_deref().unwrap_or("127.0.0.1:0");
        let listener = match TcpListener::bind(addr) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("cannot bind {addr}: {e}");
                return ExitCode::from(2);
            }
        };
        match listener.local_addr() {
            Ok(local) => {
                let line = Json::obj([
                    ("type", Json::Str("listening".to_string())),
                    ("addr", Json::Str(local.to_string())),
                ]);
                println!("{}", line.to_string_compact());
                let _ = std::io::stdout().flush();
            }
            Err(e) => {
                eprintln!("cannot read local addr: {e}");
                return ExitCode::from(2);
            }
        }
        match serve(listener, config) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("serve failed: {e}");
                return ExitCode::from(2);
            }
        }
    };

    if args.stdin {
        // Replies own stdout in stdin mode; accounting goes to stderr.
        print_report(&report, std::io::stderr());
    } else {
        print_report(&report, std::io::stdout());
    }
    if report.all_ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
