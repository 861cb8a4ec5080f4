//! A live terminal view of a running `calib-serve` daemon.
//!
//! ```text
//! calib-top --addr HOST:PORT [--interval-ms N] [--iterations N] [--once]
//!           [--check]
//! ```
//!
//! Polls the daemon's tenant-less `metrics` request over TCP and renders
//! the registry as a per-tenant table: decisions per second (from
//! successive polls), inbox queue depth and high water, reconnects, busy
//! drops, and fsync latency percentiles, plus a daemon-wide header line
//! (including replies per flush, the mean size of a worker's reply batch).
//! `--once` prints a single snapshot without clearing the screen (for
//! scripts); `--iterations N` stops after N polls; `--check` additionally
//! verifies that the daemon-wide decision counter equals the sum of the
//! per-tenant counters and fails loudly when it does not.
//!
//! Pointing `--addr` at a `calib-router` works unchanged: the router's
//! merged snapshot carries the same `global`/`per_tenant` shape, plus a
//! `per_shard` array and router counters that render as an extra header
//! and per-shard table. `--check` then also verifies the merged global
//! totals equal the sum over shards (and fails if any shard was
//! unreachable during the merge).
//!
//! Exit status: 0 on success, 1 when `--check` finds an inconsistent
//! snapshot, 2 on usage or connection errors.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use calib_core::json::Json;

struct Args {
    addr: String,
    interval: Duration,
    iterations: Option<u64>,
    once: bool,
    check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut addr = None;
    let mut interval_ms: u64 = 1000;
    let mut iterations = None;
    let mut once = false;
    let mut check = false;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match arg.as_str() {
            "--addr" => addr = Some(value("--addr")?),
            "--interval-ms" => {
                interval_ms = value("--interval-ms")?
                    .parse()
                    .map_err(|e| format!("--interval-ms: {e}"))?;
            }
            "--iterations" => {
                iterations = Some(
                    value("--iterations")?
                        .parse()
                        .map_err(|e| format!("--iterations: {e}"))?,
                );
            }
            "--once" => once = true,
            "--check" => check = true,
            "--help" | "-h" => {
                return Err("usage: calib-top --addr HOST:PORT [--interval-ms N] \
                     [--iterations N] [--once] [--check]"
                    .to_string());
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        addr: addr.ok_or("--addr HOST:PORT is required")?,
        interval: Duration::from_millis(interval_ms.max(1)),
        iterations,
        once,
        check,
    })
}

fn field_u64(v: &Json, key: &str) -> u64 {
    v.get(key).and_then(Json::as_u64).unwrap_or(0)
}

fn field_u128(v: &Json, key: &str) -> u128 {
    v.get(key).and_then(Json::as_u128).unwrap_or(0)
}

/// `p50/p95/p99` of a serialized histogram, as a compact `a/b/c` cell.
fn percentile_cell(v: Option<&Json>) -> String {
    match v {
        Some(h) => format!(
            "{}/{}/{}",
            field_u64(h, "p50"),
            field_u64(h, "p95"),
            field_u64(h, "p99")
        ),
        None => "-".to_string(),
    }
}

/// Mean replies carried by one flush (workers flush once per batch), to
/// two decimals; `-` before the first flush.
fn replies_per_flush(global: &Json) -> String {
    match field_u64(global, "reply_flushes") {
        0 => "-".to_string(),
        flushes => {
            let hundredths = u128::from(field_u64(global, "replies")) * 100 / u128::from(flushes);
            format!("{}.{:02}", hundredths / 100, hundredths % 100)
        }
    }
}

/// Whole decisions per second from a counter delta over `elapsed`.
fn rate_per_sec(delta: u64, elapsed: Duration) -> u64 {
    let millis = u64::try_from(elapsed.as_millis())
        .unwrap_or(u64::MAX)
        .max(1);
    delta.saturating_mul(1000) / millis
}

/// One poll: previous per-tenant decision counters keyed by tenant name,
/// so rates survive tenants appearing and disappearing between frames.
struct Frame {
    at: Instant,
    decisions: Vec<(String, u64)>,
    global_decisions: u64,
}

fn render(snapshot: &Json, prev: Option<&Frame>, now: Instant, out: &mut impl Write) {
    let g = snapshot.get("global");
    let global_line = match g {
        Some(g) => format!(
            "conns {}/{} open | requests {} | decisions {} | busy {} | shed {} (dropped {}) | rate-ltd {} | detach {} | resume {} | trace-io-err {}",
            field_u64(g, "active_connections"),
            field_u64(g, "connections"),
            field_u64(g, "requests"),
            field_u64(g, "decisions"),
            field_u64(g, "busy_drops"),
            field_u64(g, "sheds"),
            field_u64(g, "shed_disconnects"),
            field_u64(g, "rate_limited"),
            field_u64(g, "detaches"),
            field_u64(g, "resumes"),
            field_u64(g, "trace_io_errors"),
        ),
        None => "no global counters in snapshot".to_string(),
    };
    let _ = writeln!(out, "calib-top | {global_line}");
    let _ = writeln!(
        out,
        "fsync us p50/p95/p99 {} | request us p50/p95/p99 {} | replies/flush {}",
        percentile_cell(snapshot.get("fsync_micros")),
        percentile_cell(snapshot.get("request_micros")),
        g.map_or("-".to_string(), replies_per_flush),
    );
    render_router(snapshot, out);
    let _ = writeln!(
        out,
        "{:<16} {:>4} {:>10} {:>7} {:>6} {:>6} {:>6} {:>5} {:>8} {:>5} {:>5} {:>14} {:>12} {:>12}",
        "TENANT",
        "OPEN",
        "DECISIONS",
        "D/S",
        "QDEPTH",
        "QHIGH",
        "RECONN",
        "BUSY",
        "ADMITTED",
        "SHED",
        "RATE",
        "FSYNC-P50/95/99",
        "FLOW",
        "COST"
    );
    let Some(rows) = snapshot.get("per_tenant").and_then(Json::as_arr) else {
        let _ = writeln!(out, "(no tenants)");
        return;
    };
    for row in rows {
        let name = row
            .get("tenant")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string();
        let decisions = field_u64(row, "decisions");
        let rate = prev
            .and_then(|f| {
                f.decisions
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map(|(_, d)| rate_per_sec(decisions.saturating_sub(*d), now - f.at))
            })
            .map_or("-".to_string(), |r| r.to_string());
        let open = match row.get("open") {
            Some(Json::Bool(true)) => "yes",
            Some(Json::Bool(false)) => "no",
            _ => "?",
        };
        let _ = writeln!(
            out,
            "{:<16} {:>4} {:>10} {:>7} {:>6} {:>6} {:>6} {:>5} {:>8} {:>5} {:>5} {:>14} {:>12} {:>12}",
            name,
            open,
            decisions,
            rate,
            field_u64(row, "queue_depth"),
            field_u64(row, "queue_high_water"),
            field_u64(row, "reconnects"),
            field_u64(row, "busy_drops"),
            field_u64(row, "admitted"),
            field_u64(row, "sheds"),
            field_u64(row, "rate_limited"),
            percentile_cell(row.get("fsync_micros")),
            field_u128(row, "flow"),
            field_u128(row, "cost"),
        );
    }
}

/// Extra header and per-shard table for snapshots that came through a
/// `calib-router` (they carry `router` and `per_shard` objects a plain
/// daemon never emits); a no-op for single-daemon snapshots.
fn render_router(snapshot: &Json, out: &mut impl Write) {
    if let Some(r) = snapshot.get("router") {
        let _ = writeln!(
            out,
            "router | forwarded {} | placements {} | migrations {} (failed {}) | busy {} | unreachable {} | migrate us p50/p95/p99 {}",
            field_u64(r, "forwarded_requests"),
            field_u64(r, "placements"),
            field_u64(r, "migrations"),
            field_u64(r, "migration_failures"),
            field_u64(r, "busy_rejects"),
            field_u64(r, "shard_unreachable"),
            percentile_cell(snapshot.get("migration_micros")),
        );
    }
    let Some(shards) = snapshot.get("per_shard").and_then(Json::as_arr) else {
        return;
    };
    let _ = writeln!(
        out,
        "{:<6} {:<22} {:>7} {:>7} {:>10} {:>10} {:>6}",
        "SHARD", "ADDR", "PLACED", "OPEN", "REQUESTS", "DECISIONS", "BUSY"
    );
    for row in shards {
        let addr = row.get("addr").and_then(Json::as_str).unwrap_or("?");
        if let Some(err) = row.get("error").and_then(Json::as_str) {
            let _ = writeln!(out, "{:<6} {:<22} {err}", field_u64(row, "shard"), addr);
            continue;
        }
        let g = row.get("global");
        let cell = |key: &str| g.map_or(0, |g| field_u64(g, key));
        let _ = writeln!(
            out,
            "{:<6} {:<22} {:>7} {:>7} {:>10} {:>10} {:>6}",
            field_u64(row, "shard"),
            addr,
            field_u64(row, "placements"),
            cell("tenants_open"),
            cell("requests"),
            cell("decisions"),
            cell("busy_drops"),
        );
    }
}

/// The counters whose daemon-wide total must equal the per-tenant sum.
/// `shed_disconnects` is deliberately distinct from voluntary-`bye`
/// accounting — a shed drop must never launder into ordinary churn.
const SUM_CHECKED: [&str; 5] = [
    "decisions",
    "admitted",
    "sheds",
    "rate_limited",
    "shed_disconnects",
];

/// `--check`: the registry retains closed tenants precisely so this holds.
fn check_consistent(snapshot: &Json) -> Result<(), String> {
    let g = snapshot
        .get("global")
        .ok_or("snapshot has no `global` object")?;
    for key in SUM_CHECKED {
        let global = field_u64(g, key);
        let per_tenant: u64 = snapshot
            .get("per_tenant")
            .and_then(Json::as_arr)
            .map(|rows| rows.iter().map(|r| field_u64(r, key)).sum())
            .unwrap_or(0);
        if global != per_tenant {
            return Err(format!(
                "global {key} {global} != per-tenant sum {per_tenant}"
            ));
        }
    }
    let global = field_u64(g, "decisions");
    // Through a router the merged global is built by summing the shard
    // snapshots — re-derive it from `per_shard` and demand equality, so
    // a shard dropped from the merge cannot hide.
    if let Some(shards) = snapshot.get("per_shard").and_then(Json::as_arr) {
        if let Some(row) = shards.iter().find(|r| r.get("error").is_some()) {
            return Err(format!(
                "shard {} was unreachable during the merge",
                field_u64(row, "shard")
            ));
        }
        let per_shard: u64 = shards
            .iter()
            .map(|r| r.get("global").map_or(0, |g| field_u64(g, "decisions")))
            .sum();
        if global != per_shard {
            return Err(format!(
                "router global decisions {global} != per-shard sum {per_shard}"
            ));
        }
    }
    Ok(())
}

fn run(args: &Args) -> Result<(), (u8, String)> {
    let usage = |e: std::io::Error| (2u8, format!("cannot reach {}: {e}", args.addr));
    let stream = TcpStream::connect(&args.addr).map_err(usage)?;
    let mut reader = BufReader::new(stream.try_clone().map_err(usage)?);
    let mut writer = BufWriter::new(stream);
    let iterations = if args.once {
        1
    } else {
        args.iterations.unwrap_or(u64::MAX)
    };
    let mut prev: Option<Frame> = None;
    let stdout = std::io::stdout();
    for i in 0..iterations {
        let request = format!("{{\"type\":\"metrics\",\"seq\":{i}}}\n");
        writer
            .write_all(request.as_bytes())
            .and_then(|()| writer.flush())
            .map_err(|e| (2, format!("send failed: {e}")))?;
        let mut line = String::new();
        let n = reader
            .read_line(&mut line)
            .map_err(|e| (2, format!("read failed: {e}")))?;
        if n == 0 {
            return Err((2, "daemon closed the connection".to_string()));
        }
        let snapshot =
            Json::parse(line.trim()).map_err(|e| (2, format!("bad metrics reply: {e}")))?;
        if snapshot.get("type").and_then(Json::as_str) == Some("error") {
            return Err((2, format!("daemon error: {}", line.trim())));
        }
        let now = Instant::now();
        let mut out = stdout.lock();
        if !args.once && i > 0 {
            // Clear and home between frames so the table repaints in place.
            let _ = write!(out, "\x1b[2J\x1b[H");
        }
        render(&snapshot, prev.as_ref(), now, &mut out);
        let _ = out.flush();
        drop(out);
        if args.check {
            check_consistent(&snapshot).map_err(|msg| (1, format!("check failed: {msg}")))?;
        }
        let decisions = snapshot
            .get("per_tenant")
            .and_then(Json::as_arr)
            .map(|rows| {
                rows.iter()
                    .map(|r| {
                        (
                            r.get("tenant")
                                .and_then(Json::as_str)
                                .unwrap_or("?")
                                .to_string(),
                            field_u64(r, "decisions"),
                        )
                    })
                    .collect()
            })
            .unwrap_or_default();
        prev = Some(Frame {
            at: now,
            decisions,
            global_decisions: snapshot
                .get("global")
                .map(|g| field_u64(g, "decisions"))
                .unwrap_or(0),
        });
        if i + 1 < iterations {
            std::thread::sleep(args.interval);
        }
    }
    if args.check {
        if let Some(f) = prev.as_ref() {
            let per_tenant: u64 = f.decisions.iter().map(|(_, d)| d).sum();
            if f.global_decisions != per_tenant {
                return Err((
                    1,
                    format!(
                        "check failed: global decisions {} != per-tenant sum {per_tenant}",
                        f.global_decisions
                    ),
                ));
            }
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err((code, msg)) => {
            eprintln!("calib-top: {msg}");
            ExitCode::from(code)
        }
    }
}
