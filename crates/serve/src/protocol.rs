//! The wire protocol: line-delimited JSON requests and replies.
//!
//! Every message is one compact JSON object on one line. Requests carry a
//! `type` tag, a `tenant` name (except before `hello`), and an optional
//! client-chosen `seq` number that is echoed verbatim in the matching reply
//! so clients can pipeline requests. The full message catalogue, with
//! examples, lives in `SERVE.md` at the repo root.
//!
//! Error replies carry a stable kebab-case `code` (mirroring
//! `calib_core::Violation::code` and `calib_online::EngineError::code`)
//! plus a human-oriented `message`; clients must branch on the code, never
//! the text.

use calib_core::json::{self, push_int, push_uint, FromJson, Json, ObjWriter};
use calib_core::obs::CounterSnapshot;
use calib_core::{Assignment, Calibration, Cost, Job, JobId, Time};
use calib_online::{EngineConfig, EngineSnapshot, IntervalSnapshot, MachineSnapshot};

use crate::session::{Algorithm, TenantConfig};

/// Upper bound on one request line, in bytes. A line longer than this is
/// rejected with `line-too-long` before parsing — a malformed client must
/// not make the server buffer without bound.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Error code a daemon answers with when a tenant was evicted to another
/// shard: the tenant is not here any more, and a router in front of the
/// daemon knows where it went. Clients treat it like `busy` — reconnect
/// and resume; the router forwards the resume to the adopting shard.
pub const CODE_TENANT_MOVED: &str = "tenant-moved";

/// Error code a router answers with when the shard owning the addressed
/// tenant cannot be reached (connect failure or read timeout on the
/// backend connection). Typed so clients back off and retry instead of
/// interpreting a hung shard as a dead session.
pub const CODE_SHARD_UNREACHABLE: &str = "shard-unreachable";

/// Error code for a request rejected by the global in-flight budget
/// (`--max-inflight`): the daemon is overloaded and this tenant is at or
/// over its weight-proportional share. Carries `retry_after_ms`; in
/// journaling mode the daemon drops the connection after answering, so the
/// client reconnects and `resume`s once the hinted delay passes.
pub const CODE_SHED: &str = "shed";

/// Error code for a request rejected by the tenant's weighted token
/// bucket (`--rate-per-k`). Carries `retry_after_ms` — the exact virtual
/// time until one full token has refilled; the connection stays open.
pub const CODE_RATE_LIMITED: &str = "rate-limited";

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Open a tenant session.
    Hello {
        /// Tenant name (registry key; must be new).
        tenant: String,
        /// Machine count `P` (must be ≥ 1).
        machines: usize,
        /// Calibration length `T`.
        cal_len: Time,
        /// Calibration cost `G`.
        cal_cost: Cost,
        /// Algorithm name (`alg1`, `alg2`, `alg3`, `immediate`).
        algorithm: String,
        /// Admission weight (≥ 1, defaults to 1): the tenant's share of
        /// admitted throughput under overload. Kept out of
        /// [`TenantConfig`] deliberately — it tunes *admission*, not the
        /// schedule, so checkpoints and journals stay byte-identical and a
        /// recovered tenant re-declares it (or defaults) on reconnect.
        weight: u64,
        /// Echoed sequence number.
        seq: Option<u64>,
    },
    /// Submit a batch of future jobs.
    Arrive {
        /// Target tenant.
        tenant: String,
        /// The jobs; ids must be session-unique, releases not in the past.
        jobs: Vec<Job>,
        /// Echoed sequence number.
        seq: Option<u64>,
    },
    /// Advance the tenant's virtual clock to `now`.
    Tick {
        /// Target tenant.
        tenant: String,
        /// New virtual time (must not regress).
        now: Time,
        /// Echoed sequence number.
        seq: Option<u64>,
    },
    /// Fetch decisions made since the last delta, without advancing time.
    Decisions {
        /// Target tenant.
        tenant: String,
        /// Echoed sequence number.
        seq: Option<u64>,
    },
    /// Fetch the tenant's counters.
    Stats {
        /// Target tenant.
        tenant: String,
        /// Echoed sequence number.
        seq: Option<u64>,
    },
    /// Run the session to completion of all submitted work.
    Drain {
        /// Target tenant.
        tenant: String,
        /// Echoed sequence number.
        seq: Option<u64>,
    },
    /// Close the tenant session (drains first).
    Bye {
        /// Target tenant.
        tenant: String,
        /// Echoed sequence number.
        seq: Option<u64>,
    },
    /// Reattach to a tenant after a disconnect — or, with `--journal-dir`,
    /// recover it from its on-disk journal after a daemon crash.
    Resume {
        /// Target tenant.
        tenant: String,
        /// Echoed sequence number (exempt from the tenant's `seq` chain).
        seq: Option<u64>,
    },
    /// Liveness probe; answered inline by the reader thread with `pong`,
    /// bypassing tenant queues, so it works even when all workers are busy.
    Ping {
        /// Echoed sequence number (exempt from any `seq` chain).
        seq: Option<u64>,
    },
    /// Metrics snapshot request; tenant-less and answered inline by the
    /// reader thread with a `metrics` reply, like `ping`.
    Metrics {
        /// Echoed sequence number (exempt from any `seq` chain).
        seq: Option<u64>,
    },
    /// Install a migrated tenant from a checkpoint captured on another
    /// shard (the payload of that shard's `evicted` reply). Router-issued;
    /// the restored session starts detached so the tenant's own client can
    /// attach with `resume`.
    Adopt {
        /// Target tenant (must match the checkpoint's own name).
        tenant: String,
        /// The authoritative state cut from the source shard.
        state: Box<CheckpointState>,
        /// Echoed sequence number (exempt from the tenant's `seq` chain).
        seq: Option<u64>,
    },
    /// Drain the tenant's queued requests, capture its checkpoint, and
    /// remove it from this shard, leaving a `tenant-moved` tombstone.
    /// Router-issued; the reply carries the checkpoint for `adopt`.
    Evict {
        /// Target tenant.
        tenant: String,
        /// Echoed sequence number (exempt from the tenant's `seq` chain).
        seq: Option<u64>,
    },
}

impl Request {
    /// The tenant the request addresses (empty for tenant-less `ping`).
    pub fn tenant(&self) -> &str {
        match self {
            Request::Hello { tenant, .. }
            | Request::Arrive { tenant, .. }
            | Request::Tick { tenant, .. }
            | Request::Decisions { tenant, .. }
            | Request::Stats { tenant, .. }
            | Request::Drain { tenant, .. }
            | Request::Bye { tenant, .. }
            | Request::Resume { tenant, .. }
            | Request::Adopt { tenant, .. }
            | Request::Evict { tenant, .. } => tenant,
            Request::Ping { .. } | Request::Metrics { .. } => "",
        }
    }

    /// The request's echoable sequence number.
    pub fn seq(&self) -> Option<u64> {
        match self {
            Request::Hello { seq, .. }
            | Request::Arrive { seq, .. }
            | Request::Tick { seq, .. }
            | Request::Decisions { seq, .. }
            | Request::Stats { seq, .. }
            | Request::Drain { seq, .. }
            | Request::Bye { seq, .. }
            | Request::Resume { seq, .. }
            | Request::Adopt { seq, .. }
            | Request::Evict { seq, .. }
            | Request::Ping { seq }
            | Request::Metrics { seq } => *seq,
        }
    }

    /// Parses one request line (already known to be valid JSON).
    ///
    /// Errors are `(code, message)` pairs ready for an error reply.
    pub fn from_json(v: &Json) -> Result<Request, (&'static str, String)> {
        let bad = |msg: String| ("bad-message", msg);
        let obj_str = |key: &str| {
            v.get(key)
                .and_then(Json::as_str)
                .ok_or_else(|| bad(format!("missing or non-string field `{key}`")))
        };
        let obj_u64 = |key: &str| -> Result<u64, (&'static str, String)> {
            v.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| bad(format!("missing or non-integer field `{key}`")))
        };
        let obj_i64 = |key: &str| -> Result<i64, (&'static str, String)> {
            v.get(key)
                .and_then(Json::as_i64)
                .ok_or_else(|| bad(format!("missing or non-integer field `{key}`")))
        };
        let seq = v.get("seq").and_then(Json::as_u64);
        let ty = obj_str("type")?;
        // `ping` and `metrics` are tenant-less; everything else requires
        // the field.
        if ty == "ping" {
            return Ok(Request::Ping { seq });
        }
        if ty == "metrics" {
            return Ok(Request::Metrics { seq });
        }
        let tenant = obj_str("tenant")?.to_string();
        match ty {
            "hello" => Ok(Request::Hello {
                tenant,
                machines: usize::try_from(obj_u64("machines")?)
                    .map_err(|_| bad("`machines` out of range".to_string()))?,
                cal_len: obj_i64("cal_len")?,
                cal_cost: Cost::from(obj_u64("cal_cost")?),
                algorithm: obj_str("algorithm")?.to_string(),
                weight: v.get("weight").and_then(Json::as_u64).unwrap_or(1).max(1),
                seq,
            }),
            "arrive" => {
                let jobs_json = v
                    .get("jobs")
                    .ok_or_else(|| bad("missing field `jobs`".to_string()))?;
                let jobs = Vec::<Job>::from_json(jobs_json)
                    .map_err(|e| bad(format!("bad `jobs` array: {e}")))?;
                Ok(Request::Arrive { tenant, jobs, seq })
            }
            "tick" => Ok(Request::Tick {
                tenant,
                now: obj_i64("now")?,
                seq,
            }),
            "decisions" => Ok(Request::Decisions { tenant, seq }),
            "stats" => Ok(Request::Stats { tenant, seq }),
            "drain" => Ok(Request::Drain { tenant, seq }),
            "bye" => Ok(Request::Bye { tenant, seq }),
            "resume" => Ok(Request::Resume { tenant, seq }),
            "adopt" => {
                let state_json = v
                    .get("state")
                    .ok_or_else(|| bad("missing field `state`".to_string()))?;
                let state = CheckpointState::from_json(state_json)
                    .map_err(|e| ("corrupt-snapshot", format!("bad `state` payload: {e}")))?;
                if state.tenant != tenant {
                    return Err((
                        "bad-message",
                        format!(
                            "adopt addresses `{tenant}` but the checkpoint is for `{}`",
                            state.tenant
                        ),
                    ));
                }
                Ok(Request::Adopt {
                    tenant,
                    state: Box::new(state),
                    seq,
                })
            }
            "evict" => Ok(Request::Evict { tenant, seq }),
            other => Err((
                "bad-message",
                format!("unknown request type `{}`", json::clip_echo(other)),
            )),
        }
    }
}

/// Per-tenant final accounting, emitted on `bye`, on disconnect cleanup,
/// and in the daemon's shutdown report. `checker_ok` is the verdict of the
/// trusted `calib_core::check_schedule` run over the session's complete
/// schedule against the submitted jobs.
#[derive(Debug, Clone, PartialEq)]
pub struct Accounting {
    /// Tenant name.
    pub tenant: String,
    /// Jobs submitted over the session's lifetime.
    pub jobs: usize,
    /// Jobs actually scheduled (equals `jobs` iff the session drained).
    pub scheduled: usize,
    /// Calibrations issued.
    pub calibrations: usize,
    /// Total weighted flow of the schedule.
    pub flow: Cost,
    /// Online objective `G·C + flow`.
    pub cost: Cost,
    /// Did the feasibility checker accept the schedule?
    pub checker_ok: bool,
    /// Stable violation codes when it did not.
    pub violations: Vec<String>,
}

impl Accounting {
    /// Writes the accounting's fields (everything but `type`) into `w`.
    pub fn write_fields(&self, w: &mut ObjWriter<'_>) {
        w.str("tenant", &self.tenant)
            .uint("jobs", self.jobs)
            .uint("scheduled", self.scheduled)
            .uint("calibrations", self.calibrations)
            .uint("flow", self.flow)
            .uint("cost", self.cost)
            .bool("checker_ok", self.checker_ok);
        write_arr(w.key("violations"), &self.violations, |out, code| {
            json::write_json_string(out, code);
        });
    }
}

/// A server reply, one line of JSON.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Request accepted with nothing else to report.
    Ok {
        /// Addressed tenant.
        tenant: String,
        /// Echoed sequence number.
        seq: Option<u64>,
    },
    /// Decisions streamed back after a `tick`, `decisions`, or `drain`.
    Decisions {
        /// Addressed tenant.
        tenant: String,
        /// The tenant's virtual time, if a tick has happened.
        now: Option<Time>,
        /// Calibrations issued since the previous delta.
        calibrations: Vec<Calibration>,
        /// Job starts materialized since the previous delta.
        starts: Vec<Assignment>,
        /// True when the session has no unfinished work left.
        idle: bool,
        /// Echoed sequence number.
        seq: Option<u64>,
    },
    /// Counter snapshot for `stats`.
    Stats {
        /// Addressed tenant.
        tenant: String,
        /// Engine counters (arrivals, dispatches, calibrations, …).
        counters: CounterSnapshot,
        /// Requests queued for the tenant right now.
        queue_depth: usize,
        /// Highest queue depth observed.
        queue_high_water: usize,
        /// Requests dropped with `busy` since the session opened.
        busy_drops: u64,
        /// Echoed sequence number.
        seq: Option<u64>,
    },
    /// Final accounting answering `drain`, plus the decision delta the
    /// drain produced (everything since the last `tick`/`decisions`).
    Drained {
        /// The validated accounting.
        accounting: Accounting,
        /// Calibrations started while draining.
        calibrations: Vec<Calibration>,
        /// Jobs started while draining.
        starts: Vec<Assignment>,
        /// Echoed sequence number.
        seq: Option<u64>,
    },
    /// Final accounting answering `bye`; the tenant is gone afterwards.
    Goodbye {
        /// The validated accounting.
        accounting: Accounting,
        /// Echoed sequence number.
        seq: Option<u64>,
    },
    /// Session reattached (or recovered from its journal) after `resume`.
    /// `last_seq` tells the client exactly which requests were applied, so
    /// it can resend the un-acked tail idempotently.
    Resumed {
        /// Addressed tenant.
        tenant: String,
        /// The session's `seq` high-water mark — everything at or below
        /// this is already applied.
        last_seq: Option<u64>,
        /// The session's virtual time, if a tick has happened.
        now: Option<Time>,
        /// True when the session has no unfinished work left.
        idle: bool,
        /// Echoed sequence number.
        seq: Option<u64>,
    },
    /// Liveness answer to `ping`, carrying monotonic server health
    /// counters.
    Pong {
        /// Connections accepted over the server's lifetime.
        connections: u64,
        /// Connections open right now.
        active_connections: u64,
        /// Tenant sessions open right now.
        tenants: u64,
        /// Requests parsed over the server's lifetime.
        requests: u64,
        /// Requests answered with `busy` over the server's lifetime.
        busy_drops: u64,
        /// Echoed sequence number.
        seq: Option<u64>,
    },
    /// Full daemon metrics snapshot answering a `metrics` request; the
    /// payload is the same JSON object the `--metrics-interval-ms` stream
    /// emits (global counters, latency histograms, per-tenant rows).
    Metrics {
        /// The registry snapshot, already shaped as a JSON object.
        snapshot: Json,
        /// Echoed sequence number.
        seq: Option<u64>,
    },
    /// Migrated tenant installed from a checkpoint, answering `adopt`.
    Adopted {
        /// Addressed tenant.
        tenant: String,
        /// The restored session's `seq` high-water mark, so the router can
        /// confirm the handoff landed at the expected cut.
        last_seq: Option<u64>,
        /// Echoed sequence number.
        seq: Option<u64>,
    },
    /// Checkpoint handed back from `evict`; the tenant is gone from this
    /// shard afterwards (replaced by a `tenant-moved` tombstone).
    Evicted {
        /// The authoritative state cut, ready to feed an `adopt`.
        state: Box<CheckpointState>,
        /// Echoed sequence number.
        seq: Option<u64>,
    },
    /// A typed failure; the session (if any) is still usable unless the
    /// code says otherwise.
    Error {
        /// Stable kebab-case error class.
        code: String,
        /// Human-oriented detail.
        message: String,
        /// Addressed tenant, when one could be determined.
        tenant: Option<String>,
        /// Overload hint (`shed`/`rate-limited`): how long the client
        /// should wait before retrying, overriding its own backoff.
        retry_after_ms: Option<u64>,
        /// Echoed sequence number.
        seq: Option<u64>,
    },
}

impl Reply {
    /// Builds an error reply.
    pub fn error(
        code: &str,
        message: impl Into<String>,
        tenant: Option<&str>,
        seq: Option<u64>,
    ) -> Reply {
        Reply::Error {
            code: code.to_string(),
            message: message.into(),
            tenant: tenant.map(str::to_string),
            retry_after_ms: None,
            seq,
        }
    }

    /// Builds an overload error reply carrying a `retry_after_ms` hint.
    pub fn error_retry_after(
        code: &str,
        message: impl Into<String>,
        tenant: Option<&str>,
        retry_after_ms: u64,
        seq: Option<u64>,
    ) -> Reply {
        Reply::Error {
            code: code.to_string(),
            message: message.into(),
            tenant: tenant.map(str::to_string),
            retry_after_ms: Some(retry_after_ms),
            seq,
        }
    }

    /// The serialized line, newline included.
    pub fn to_line(&self) -> String {
        let mut line = String::with_capacity(128);
        let mut w = ObjWriter::new(&mut line);
        let seq = match self {
            Reply::Ok { tenant, seq } => {
                w.str("type", "ok").str("tenant", tenant);
                seq
            }
            Reply::Decisions {
                tenant,
                now,
                calibrations,
                starts,
                idle,
                seq,
            } => {
                w.str("type", "decisions")
                    .str("tenant", tenant)
                    .opt_int("now", *now);
                write_calibrations(w.key("calibrations"), calibrations);
                write_assignments(w.key("starts"), starts);
                w.bool("idle", *idle);
                seq
            }
            Reply::Stats {
                tenant,
                counters,
                queue_depth,
                queue_high_water,
                busy_drops,
                seq,
            } => {
                w.str("type", "stats")
                    .str("tenant", tenant)
                    .value("counters", &counters.to_json())
                    .uint("queue_depth", *queue_depth)
                    .uint("queue_high_water", *queue_high_water)
                    .uint("busy_drops", *busy_drops);
                seq
            }
            Reply::Drained {
                accounting,
                calibrations,
                starts,
                seq,
            } => {
                w.str("type", "drained");
                accounting.write_fields(&mut w);
                // Nested: the accounting already claims the top-level
                // `calibrations` key for its count.
                let mut d = w.obj("decisions");
                write_calibrations(d.key("calibrations"), calibrations);
                write_assignments(d.key("starts"), starts);
                d.finish();
                seq
            }
            Reply::Goodbye { accounting, seq } => {
                w.str("type", "goodbye");
                accounting.write_fields(&mut w);
                seq
            }
            Reply::Resumed {
                tenant,
                last_seq,
                now,
                idle,
                seq,
            } => {
                w.str("type", "resumed")
                    .str("tenant", tenant)
                    .opt_uint("last_seq", *last_seq)
                    .opt_int("now", *now)
                    .bool("idle", *idle);
                seq
            }
            Reply::Pong {
                connections,
                active_connections,
                tenants,
                requests,
                busy_drops,
                seq,
            } => {
                w.str("type", "pong")
                    .uint("connections", *connections)
                    .uint("active_connections", *active_connections)
                    .uint("tenants", *tenants)
                    .uint("requests", *requests)
                    .uint("busy_drops", *busy_drops);
                seq
            }
            Reply::Metrics { snapshot, seq } => {
                // Reuse the snapshot's own fields, but the wire-level `seq`
                // echoes the request (the snapshot's internal counter would
                // otherwise collide with it).
                match snapshot {
                    Json::Obj(pairs) => {
                        for (k, v) in pairs.iter().filter(|(k, _)| k != "seq") {
                            w.value(k, v);
                        }
                    }
                    other => {
                        w.value("snapshot", other);
                    }
                }
                seq
            }
            Reply::Adopted {
                tenant,
                last_seq,
                seq,
            } => {
                w.str("type", "adopted")
                    .str("tenant", tenant)
                    .opt_uint("last_seq", *last_seq);
                seq
            }
            Reply::Evicted { state, seq } => {
                w.str("type", "evicted").str("tenant", &state.tenant);
                let mut s = w.obj("state");
                state.write_json(&mut s);
                s.finish();
                seq
            }
            Reply::Error {
                code,
                message,
                tenant,
                retry_after_ms,
                seq,
            } => {
                w.str("type", "error")
                    .str("code", code)
                    .str("message", message);
                if let Some(t) = tenant {
                    w.str("tenant", t);
                }
                w.opt_uint("retry_after_ms", *retry_after_ms);
                seq
            }
        };
        w.opt_uint("seq", *seq);
        w.finish();
        line.push('\n');
        line
    }
}

/// Full `TenantSession` state at one instant — the payload of a journal
/// `checkpoint` record. Recovery rebuilds the session from this and then
/// replays only the records *after* it (the tail), so a long-lived
/// tenant's restart cost is bounded by recent activity instead of its
/// whole history.
///
/// The engine half is a [`calib_online::EngineSnapshot`]; this struct adds
/// the serve-layer state the engine does not know about: the tenant name
/// and configuration, the `seq` high-water mark, the virtual clock, the
/// per-tenant `u128` flow/cost totals, and the counter registry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointState {
    /// Tenant name, integrity-checked against the journal's hello record.
    pub tenant: String,
    /// The tenant's configuration (machines, `T`, `G`, algorithm).
    pub config: TenantConfig,
    /// The `seq` duplicate-suppression high-water mark at checkpoint time.
    pub last_seq: Option<u64>,
    /// The session's virtual clock (highest `tick` seen), if any.
    pub now: Option<Time>,
    /// Total weighted flow reported to the metrics registry so far.
    pub flow: Cost,
    /// Online objective `G·C + flow` reported so far.
    pub cost: Cost,
    /// The tenant's counter registry at checkpoint time.
    pub counters: CounterSnapshot,
    /// The complete engine state.
    pub engine: EngineSnapshot,
}

// --- direct serialization ------------------------------------------
//
// A checkpoint line carries thousands of jobs, assignments, and trace
// events. Array elements are written from literal key fragments rather
// than one `ObjWriter` each, which would cost a key escape scan per field
// per element. The output is the compact rendering of the same tree.

/// Writes `items` as a JSON array, one element per `each` call.
fn write_arr<T>(out: &mut String, items: &[T], mut each: impl FnMut(&mut String, &T)) {
    out.push('[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        each(out, item);
    }
    out.push(']');
}

/// A `[a,b]` pair of integers.
fn write_pair(out: &mut String, a: i128, b: i128) {
    out.push('[');
    push_int(out, a);
    out.push(',');
    push_int(out, b);
    out.push(']');
}

/// Jobs as `{"id":…,"release":…,"weight":…}` objects — the `arrive`
/// request's and journal record's shape, and the checkpoint's `known`.
pub(crate) fn write_jobs(out: &mut String, jobs: &[Job]) {
    write_arr(out, jobs, |out, j| {
        out.push_str("{\"id\":");
        push_uint(out, u128::from(j.id.0));
        out.push_str(",\"release\":");
        push_int(out, i128::from(j.release));
        out.push_str(",\"weight\":");
        push_uint(out, u128::from(j.weight));
        out.push('}');
    });
}

fn write_calibrations(out: &mut String, calibrations: &[Calibration]) {
    write_arr(out, calibrations, |out, c| {
        out.push_str("{\"machine\":");
        push_uint(out, u128::from(c.machine.0));
        out.push_str(",\"start\":");
        push_int(out, i128::from(c.start));
        out.push('}');
    });
}

fn write_assignments(out: &mut String, assignments: &[Assignment]) {
    write_arr(out, assignments, |out, a| {
        out.push_str("{\"job\":");
        push_uint(out, u128::from(a.job.0));
        out.push_str(",\"start\":");
        push_int(out, i128::from(a.start));
        out.push_str(",\"machine\":");
        push_uint(out, u128::from(a.machine.0));
        out.push('}');
    });
}

fn write_ids(out: &mut String, ids: &[JobId]) {
    write_arr(out, ids, |out, id| push_uint(out, u128::from(id.0)));
}

fn write_machine(out: &mut String, m: &MachineSnapshot) {
    let mut w = ObjWriter::new(out);
    write_arr(w.key("coverage"), &m.coverage, |out, (b, e)| {
        write_pair(out, i128::from(*b), i128::from(*e));
    });
    w.int("used_until", m.used_until);
    write_arr(
        w.key("reservations"),
        &m.reservations,
        |out, (slot, job, interval)| {
            out.push('[');
            push_int(out, i128::from(*slot));
            out.push(',');
            push_uint(out, u128::from(job.0));
            out.push(',');
            match interval {
                Some(iv) => push_uint(out, u128::try_from(*iv).unwrap_or(u128::MAX)),
                None => out.push_str("null"),
            }
            out.push(']');
        },
    );
    w.finish();
}

fn write_interval(out: &mut String, iv: &IntervalSnapshot) {
    let mut w = ObjWriter::new(out);
    w.uint("machine", iv.machine.0).int("start", iv.start);
    write_arr(w.key("jobs"), &iv.jobs, |out, (j, s)| {
        write_pair(out, i128::from(j.0), i128::from(*s));
    });
    w.finish();
}

fn write_engine(w: &mut ObjWriter<'_>, e: &EngineSnapshot) {
    w.int("cal_len", e.cal_len).uint("cal_cost", e.cal_cost);
    let mut c = w.obj("config");
    c.uint("max_steps", e.config.max_steps)
        .uint("max_decides_per_step", e.config.max_decides_per_step)
        .bool("time_skip", e.config.time_skip);
    c.finish();
    write_jobs(w.key("known"), &e.known);
    write_ids(w.key("pending"), &e.pending);
    write_ids(w.key("waiting"), &e.waiting);
    write_arr(w.key("machines"), &e.machines, write_machine);
    write_arr(w.key("intervals"), &e.intervals, write_interval);
    w.uint("rr_next", e.rr_next);
    write_calibrations(w.key("calibrations"), &e.calibrations);
    write_assignments(w.key("assignments"), &e.assignments);
    write_arr(w.key("trace"), &e.trace, |out, (t, label)| {
        out.push('[');
        push_int(out, i128::from(*t));
        out.push(',');
        json::write_json_string(out, label);
        out.push(']');
    });
    w.uint("fuel", e.fuel)
        .int("clock", e.clock)
        .bool("started", e.started)
        .uint("cal_mark", e.cal_mark)
        .uint("asg_mark", e.asg_mark)
        .opt_int("cursor", e.cursor);
}

/// Typed field accessors that turn a missing/mistyped field into a
/// checkpoint-parse error message naming the field.
struct Fields<'a>(&'a Json);

impl Fields<'_> {
    fn req(&self, key: &str) -> Result<&Json, String> {
        self.0
            .get(key)
            .ok_or_else(|| format!("checkpoint missing `{key}`"))
    }

    fn u64(&self, key: &str) -> Result<u64, String> {
        self.req(key)?
            .as_u64()
            .ok_or_else(|| format!("checkpoint field `{key}` is not a u64"))
    }

    fn usize(&self, key: &str) -> Result<usize, String> {
        usize::try_from(self.u64(key)?)
            .map_err(|_| format!("checkpoint field `{key}` is out of range"))
    }

    fn i64(&self, key: &str) -> Result<i64, String> {
        self.req(key)?
            .as_i64()
            .ok_or_else(|| format!("checkpoint field `{key}` is not an i64"))
    }

    fn u128(&self, key: &str) -> Result<u128, String> {
        self.req(key)?
            .as_u128()
            .ok_or_else(|| format!("checkpoint field `{key}` is not a u128"))
    }

    fn bool(&self, key: &str) -> Result<bool, String> {
        match self.req(key)? {
            Json::Bool(b) => Ok(*b),
            _ => Err(format!("checkpoint field `{key}` is not a bool")),
        }
    }

    fn str(&self, key: &str) -> Result<&str, String> {
        self.req(key)?
            .as_str()
            .ok_or_else(|| format!("checkpoint field `{key}` is not a string"))
    }

    fn arr(&self, key: &str) -> Result<&[Json], String> {
        self.req(key)?
            .as_arr()
            .ok_or_else(|| format!("checkpoint field `{key}` is not an array"))
    }

    fn parsed<T: FromJson>(&self, key: &str) -> Result<T, String> {
        T::from_json(self.req(key)?).map_err(|e| format!("checkpoint field `{key}`: {e}"))
    }
}

fn tuple2<'a>(v: &'a Json, what: &str) -> Result<(&'a Json, &'a Json), String> {
    match v.as_arr() {
        Some([a, b]) => Ok((a, b)),
        _ => Err(format!("checkpoint {what} is not a 2-tuple")),
    }
}

fn time_of(v: &Json, what: &str) -> Result<Time, String> {
    v.as_i64()
        .ok_or_else(|| format!("checkpoint {what} is not a time"))
}

fn machine_from_json(v: &Json) -> Result<MachineSnapshot, String> {
    let f = Fields(v);
    let mut coverage = Vec::new();
    for seg in f.arr("coverage")? {
        let (b, e) = tuple2(seg, "coverage segment")?;
        coverage.push((time_of(b, "coverage start")?, time_of(e, "coverage end")?));
    }
    let mut reservations = Vec::new();
    for r in f.arr("reservations")? {
        let Some([slot, job, interval]) = r.as_arr() else {
            return Err("checkpoint reservation is not a 3-tuple".to_string());
        };
        let interval = match interval {
            Json::Null => None,
            other => Some(
                other
                    .as_u64()
                    .and_then(|i| usize::try_from(i).ok())
                    .ok_or_else(|| "checkpoint reservation interval is not an index".to_string())?,
            ),
        };
        reservations.push((
            time_of(slot, "reservation slot")?,
            JobId::from_json(job).map_err(|e| format!("checkpoint reservation job: {e}"))?,
            interval,
        ));
    }
    Ok(MachineSnapshot {
        coverage,
        used_until: f.i64("used_until")?,
        reservations,
    })
}

fn interval_from_json(v: &Json) -> Result<IntervalSnapshot, String> {
    let f = Fields(v);
    let mut jobs = Vec::new();
    for pair in f.arr("jobs")? {
        let (job, slot) = tuple2(pair, "interval job")?;
        jobs.push((
            JobId::from_json(job).map_err(|e| format!("checkpoint interval job: {e}"))?,
            time_of(slot, "interval slot")?,
        ));
    }
    Ok(IntervalSnapshot {
        machine: f.parsed("machine")?,
        start: f.i64("start")?,
        jobs,
    })
}

fn engine_from_json(v: &Json) -> Result<EngineSnapshot, String> {
    let f = Fields(v);
    let cf = Fields(f.req("config")?);
    let config = EngineConfig {
        max_steps: cf.u64("max_steps")?,
        max_decides_per_step: u32::try_from(cf.u64("max_decides_per_step")?)
            .map_err(|_| "checkpoint `max_decides_per_step` is out of range".to_string())?,
        time_skip: cf.bool("time_skip")?,
    };
    let mut machines = Vec::new();
    for m in f.arr("machines")? {
        machines.push(machine_from_json(m)?);
    }
    let mut intervals = Vec::new();
    for iv in f.arr("intervals")? {
        intervals.push(interval_from_json(iv)?);
    }
    let mut trace = Vec::new();
    for entry in f.arr("trace")? {
        let (t, label) = tuple2(entry, "trace entry")?;
        trace.push((
            time_of(t, "trace time")?,
            label
                .as_str()
                .ok_or_else(|| "checkpoint trace label is not a string".to_string())?
                .to_string(),
        ));
    }
    Ok(EngineSnapshot {
        cal_len: f.i64("cal_len")?,
        cal_cost: f.u128("cal_cost")?,
        config,
        known: f.parsed("known")?,
        pending: f.parsed("pending")?,
        waiting: f.parsed("waiting")?,
        machines,
        intervals,
        rr_next: f.usize("rr_next")?,
        calibrations: f.parsed("calibrations")?,
        assignments: f.parsed("assignments")?,
        trace,
        fuel: f.u64("fuel")?,
        clock: f.i64("clock")?,
        started: f.bool("started")?,
        cursor: match v.get("cursor") {
            None | Some(Json::Null) => None,
            Some(c) => Some(time_of(c, "cursor")?),
        },
        cal_mark: f.usize("cal_mark")?,
        asg_mark: f.usize("asg_mark")?,
    })
}

impl CheckpointState {
    /// Writes the checkpoint's fields into `w`: the whole payload of an
    /// `evicted` reply's `state`, and of a journal `checkpoint` record
    /// after its `op` tag.
    pub fn write_json(&self, w: &mut ObjWriter<'_>) {
        w.str("tenant", &self.tenant)
            .uint("machines", self.config.machines)
            .int("cal_len", self.config.cal_len)
            .uint("cal_cost", self.config.cal_cost)
            .str("algorithm", self.config.algorithm.name())
            .uint("flow", self.flow)
            .uint("total_cost", self.cost)
            .value("counters", &self.counters.to_json());
        let mut e = w.obj("engine");
        write_engine(&mut e, &self.engine);
        e.finish();
        w.opt_uint("last_seq", self.last_seq)
            .opt_int("now", self.now);
    }

    /// A capacity estimate for the serialized line, so the hot path's
    /// buffer grows once instead of doubling through megabyte territory.
    pub(crate) fn line_capacity_hint(&self) -> usize {
        let e = &self.engine;
        512 + 48
            * (e.known.len()
                + e.pending.len()
                + e.waiting.len()
                + e.calibrations.len()
                + e.assignments.len()
                + e.trace.len()
                + e.intervals.len())
    }

    /// Parses a checkpoint payload, validating every field — a checkpoint
    /// that fails here is treated by recovery as if it were torn (fall
    /// back to an earlier checkpoint or full replay), never trusted.
    pub fn from_json(v: &Json) -> Result<CheckpointState, String> {
        let f = Fields(v);
        let algorithm = Algorithm::from_name(f.str("algorithm")?)
            .ok_or_else(|| "checkpoint has no known `algorithm`".to_string())?;
        Ok(CheckpointState {
            tenant: f.str("tenant")?.to_string(),
            config: TenantConfig {
                machines: f.usize("machines")?,
                cal_len: f.i64("cal_len")?,
                cal_cost: f.u128("cal_cost")?,
                algorithm,
            },
            last_seq: v.get("last_seq").and_then(Json::as_u64),
            now: v.get("now").and_then(Json::as_i64),
            flow: f.u128("flow")?,
            cost: f.u128("total_cost")?,
            counters: CounterSnapshot::from_json(f.req("counters")?),
            engine: engine_from_json(f.req("engine")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use calib_core::JobId;

    fn parse(line: &str) -> Result<Request, (&'static str, String)> {
        let v = Json::parse(line).expect("test line must be valid JSON");
        Request::from_json(&v)
    }

    #[test]
    fn parses_the_full_catalogue() {
        let hello = parse(
            r#"{"type":"hello","tenant":"a","machines":2,"cal_len":5,"cal_cost":10,"algorithm":"alg3","seq":1}"#,
        )
        .unwrap();
        assert_eq!(
            hello,
            Request::Hello {
                tenant: "a".into(),
                machines: 2,
                cal_len: 5,
                cal_cost: 10,
                algorithm: "alg3".into(),
                weight: 1,
                seq: Some(1),
            }
        );
        let weighted = parse(
            r#"{"type":"hello","tenant":"w","machines":1,"cal_len":5,"cal_cost":10,"algorithm":"alg1","weight":4}"#,
        )
        .unwrap();
        match weighted {
            Request::Hello { weight, .. } => assert_eq!(weight, 4),
            other => panic!("wrong parse: {other:?}"),
        }
        // weight 0 clamps to 1 — a zero-weight tenant would never admit.
        let clamped = parse(
            r#"{"type":"hello","tenant":"z","machines":1,"cal_len":5,"cal_cost":10,"algorithm":"alg1","weight":0}"#,
        )
        .unwrap();
        match clamped {
            Request::Hello { weight, .. } => assert_eq!(weight, 1),
            other => panic!("wrong parse: {other:?}"),
        }
        let arrive =
            parse(r#"{"type":"arrive","tenant":"a","jobs":[{"id":0,"release":3,"weight":2}]}"#)
                .unwrap();
        match arrive {
            Request::Arrive { jobs, seq, .. } => {
                assert_eq!(jobs, vec![Job::new(0, 3, 2)]);
                assert_eq!(seq, None);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        assert_eq!(
            parse(r#"{"type":"tick","tenant":"a","now":9}"#).unwrap(),
            Request::Tick {
                tenant: "a".into(),
                now: 9,
                seq: None
            }
        );
        for ty in ["decisions", "stats", "drain", "bye", "resume"] {
            let req = parse(&format!(r#"{{"type":"{ty}","tenant":"a"}}"#)).unwrap();
            assert_eq!(req.tenant(), "a");
        }
        // `ping` is the one tenant-less request.
        let ping = parse(r#"{"type":"ping","seq":9}"#).unwrap();
        assert_eq!(ping, Request::Ping { seq: Some(9) });
        assert_eq!(ping.tenant(), "");
    }

    #[test]
    fn rejects_malformed_requests_with_stable_codes() {
        let (code, _) = parse(r#"{"type":"warp","tenant":"a"}"#).unwrap_err();
        assert_eq!(code, "bad-message");
        let (code, msg) = parse(r#"{"type":"tick","tenant":"a"}"#).unwrap_err();
        assert_eq!(code, "bad-message");
        assert!(msg.contains("`now`"), "{msg}");
        let (code, _) = parse(r#"{"type":"hello","machines":1}"#).unwrap_err();
        assert_eq!(code, "bad-message");
    }

    #[test]
    fn parses_the_migration_vocabulary() {
        let evict = parse(r#"{"type":"evict","tenant":"a","seq":3}"#).unwrap();
        assert_eq!(
            evict,
            Request::Evict {
                tenant: "a".into(),
                seq: Some(3)
            }
        );

        // `adopt` without a payload is malformed; with an unparseable
        // payload it is a corrupt snapshot (the validating parser ran).
        let (code, msg) = parse(r#"{"type":"adopt","tenant":"a"}"#).unwrap_err();
        assert_eq!(code, "bad-message");
        assert!(msg.contains("`state`"), "{msg}");
        let (code, _) = parse(r#"{"type":"adopt","tenant":"a","state":{}}"#).unwrap_err();
        assert_eq!(code, "corrupt-snapshot");
    }

    #[test]
    fn replies_round_trip_through_json() {
        let reply = Reply::Decisions {
            tenant: "a".into(),
            now: Some(7),
            calibrations: vec![Calibration {
                machine: calib_core::MachineId(0),
                start: 7,
            }],
            starts: vec![Assignment::new(JobId(3), 8, calib_core::MachineId(0))],
            idle: false,
            seq: Some(4),
        };
        let v = Json::parse(reply.to_line().trim()).unwrap();
        assert_eq!(v.get("type").unwrap().as_str(), Some("decisions"));
        assert_eq!(v.get("now").unwrap().as_i64(), Some(7));
        assert_eq!(v.get("seq").unwrap().as_u64(), Some(4));
        let starts = Vec::<Assignment>::from_json(v.get("starts").unwrap()).unwrap();
        assert_eq!(starts[0].start, 8);

        let err = Reply::error("busy", "queue full", Some("a"), None);
        let v = Json::parse(err.to_line().trim()).unwrap();
        assert_eq!(v.get("code").unwrap().as_str(), Some("busy"));
        assert!(v.get("seq").is_none());
        assert!(v.get("retry_after_ms").is_none(), "hint only when typed");

        let shed = Reply::error_retry_after(CODE_SHED, "over budget", Some("a"), 7, Some(3));
        let v = Json::parse(shed.to_line().trim()).unwrap();
        assert_eq!(v.get("code").unwrap().as_str(), Some(CODE_SHED));
        assert_eq!(v.get("retry_after_ms").unwrap().as_u64(), Some(7));
        assert_eq!(v.get("seq").unwrap().as_u64(), Some(3));

        let resumed = Reply::Resumed {
            tenant: "a".into(),
            last_seq: Some(41),
            now: Some(12),
            idle: true,
            seq: Some(0),
        };
        let v = Json::parse(resumed.to_line().trim()).unwrap();
        assert_eq!(v.get("type").unwrap().as_str(), Some("resumed"));
        assert_eq!(v.get("last_seq").unwrap().as_u64(), Some(41));
        assert_eq!(v.get("idle").unwrap(), &Json::Bool(true));

        let pong = Reply::Pong {
            connections: 3,
            active_connections: 1,
            tenants: 2,
            requests: 99,
            busy_drops: 0,
            seq: Some(7),
        };
        let v = Json::parse(pong.to_line().trim()).unwrap();
        assert_eq!(v.get("type").unwrap().as_str(), Some("pong"));
        assert_eq!(v.get("requests").unwrap().as_u64(), Some(99));
        assert_eq!(v.get("seq").unwrap().as_u64(), Some(7));
    }
}
