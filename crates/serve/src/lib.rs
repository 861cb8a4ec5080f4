//! # calib-serve
//!
//! A multi-tenant online-scheduling daemon for the paper's Section-3
//! algorithms: clients open tenant sessions over a line-delimited JSON
//! protocol (TCP or stdin), stream job arrivals against a virtual clock,
//! and receive calibration/assignment decisions as they are made — the
//! long-running counterpart of the batch `calib-sim` simulator, driving
//! the *same* incremental engine (`calib_online::EngineSession`), so the
//! daemon's schedules are byte-identical to batch runs and every drained
//! session is validated by the trusted `calib_core::check_schedule`.
//!
//! The daemon is crash-safe: with `--journal-dir`, every accepted
//! mutating request is write-ahead journalled per tenant, disconnected
//! sessions detach instead of finalizing, and `resume` reattaches — or
//! replays the journal after a `kill -9` — byte-identically. Snapshot
//! checkpoints (`--checkpoint-every-n`) and idle-point journal compaction
//! (`--compact-on-idle`) bound that replay to the tail after the latest
//! checkpoint, so a long-lived tenant restarts in O(recent activity)
//! instead of O(history). The client
//! side ([`retry`]) reconnects with seeded exponential backoff and
//! resends un-acked requests idempotently, and [`chaos`] provides a
//! seeded fault-injecting TCP proxy to prove the whole stack under torn
//! writes, duplicated lines, and mid-line disconnects.
//!
//! See `SERVE.md` at the repo root for the protocol catalogue,
//! backpressure and shutdown semantics, the failure model, and an example
//! transcript. The binaries are `calib-serve` (the daemon),
//! `calib-loadgen` (a seeded load generator that replays difftest
//! workload families and checks the daemon's objectives against local
//! batch runs), and `calib-chaos` (the fault proxy).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod admit;
pub mod chaos;
pub mod conn;
pub mod journal;
pub mod metrics;
pub mod protocol;
pub mod retry;
pub mod server;
pub mod session;

pub use admit::{Admission, AdmitClock, AdmitConfig, ManualClock, RequestClock, Verdict};
pub use chaos::{run_proxy, FaultPlan, ProxyStats};
pub use conn::LineSink;
pub use journal::{
    compact_tmp_path, read_journal, recover, recover_with_report, replay, replay_with_report,
    FsyncPolicy, JournalRecord, JournalWriter, RecoveryReport,
};
pub use metrics::{ServeMetrics, TenantMetrics};
pub use protocol::{Accounting, CheckpointState, Reply, Request, MAX_LINE_BYTES};
pub use retry::{run_plan, Backoff, ClientConfig, ClientReport, PlanStep, RetryClock, SystemClock};
pub use server::{serve, serve_stream, ServeReport, ServerConfig};
pub use session::{Algorithm, SessionError, SessionMetrics, TenantConfig, TenantSession};
