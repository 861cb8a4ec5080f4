//! Crash-safe write-ahead journaling for tenant sessions.
//!
//! Because a [`TenantSession`] is a deterministic pure function of its
//! accepted request stream (the same property the difftest oracle
//! exploits), an append-only journal of accepted mutating requests is a
//! *complete* crash-recovery mechanism: replaying the journal through a
//! fresh session reconstructs the exact engine state, including the exact
//! `u128` flow/cost accounting. The journal is line-delimited JSON, one
//! record per accepted `hello`/`arrive`/`tick`/`drain`, written *before*
//! the request is applied to the engine (write-ahead ordering), carrying
//! the request's `seq` so recovery also restores the duplicate-suppression
//! high-water mark.
//!
//! Engine-level rejections (e.g. `duplicate-job`, which applies the batch
//! up to the offending job) are themselves deterministic, so journaling a
//! request that the engine later rejects is correct — replay reproduces
//! the same partial state and the same error. Session-level pre-checks
//! (`arrival-in-past`, `time-regression`) reject *before* the journal
//! write and cause no state change, so they never appear in the journal.
//!
//! Durability is tunable per [`FsyncPolicy`]: `off` still survives a
//! `kill -9` (the OS has the bytes) but not power loss; `tick` bounds loss
//! to the work since the last clock advance; `always` fsyncs every record.
//! A torn final line — the crash landed mid-`write` — is ignored on read;
//! a torn line anywhere *else* means external corruption and is an error.

use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, Write};
use std::path::{Path, PathBuf};

use calib_core::json::{FromJson, Json, ObjWriter};
use calib_core::{Cost, Job, Time};

use crate::protocol::{write_jobs, CheckpointState};
use crate::session::{Algorithm, TenantConfig, TenantSession};

/// When journal appends reach the disk platter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every record — survives power loss, slowest.
    Always,
    /// `fsync` only on `tick` and `drain` records — bounds loss to the
    /// requests since the last clock advance.
    Tick,
    /// Never `fsync`; flush to the OS only. Survives process death
    /// (`kill -9`) but not kernel panic or power loss.
    Off,
}

impl FsyncPolicy {
    /// Parses the CLI spelling.
    pub fn from_name(name: &str) -> Option<FsyncPolicy> {
        match name {
            "always" => Some(FsyncPolicy::Always),
            "tick" => Some(FsyncPolicy::Tick),
            "off" => Some(FsyncPolicy::Off),
            _ => None,
        }
    }

    /// The CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            FsyncPolicy::Always => "always",
            FsyncPolicy::Tick => "tick",
            FsyncPolicy::Off => "off",
        }
    }
}

/// One accepted mutating request, as persisted.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRecord {
    /// Session open: the full tenant configuration.
    Hello {
        /// Tenant name, for integrity checking against the file name.
        tenant: String,
        /// Machine count `P`.
        machines: usize,
        /// Calibration length `T`.
        cal_len: Time,
        /// Calibration cost `G`.
        cal_cost: Cost,
        /// The scheduling algorithm.
        algorithm: Algorithm,
        /// The request's sequence number, when the client sent one.
        seq: Option<u64>,
    },
    /// A job batch delivered to the engine.
    Arrive {
        /// The batch, verbatim.
        jobs: Vec<Job>,
        /// The request's sequence number.
        seq: Option<u64>,
    },
    /// A virtual-clock advance.
    Tick {
        /// The new virtual time.
        now: Time,
        /// The request's sequence number.
        seq: Option<u64>,
    },
    /// A run-to-completion of all submitted work.
    Drain {
        /// The request's sequence number.
        seq: Option<u64>,
    },
    /// Full session state at one instant. Recovery restores from the
    /// latest valid checkpoint and replays only the records after it, so
    /// restart cost is bounded by the tail length. Boxed: the payload is
    /// orders of magnitude larger than the request records.
    Checkpoint(Box<CheckpointState>),
}

impl JournalRecord {
    /// The record's sequence number, when the client supplied one.
    /// Checkpoints are not requests; they carry the session's `seq`
    /// high-water mark inside their payload instead.
    pub fn seq(&self) -> Option<u64> {
        match self {
            JournalRecord::Hello { seq, .. }
            | JournalRecord::Arrive { seq, .. }
            | JournalRecord::Tick { seq, .. }
            | JournalRecord::Drain { seq } => *seq,
            JournalRecord::Checkpoint(_) => None,
        }
    }

    /// True for records the `tick` fsync policy must sync on. A torn
    /// checkpoint is harmless (recovery falls back to replaying through
    /// it), but syncing keeps the recovery-cost bound durable too.
    pub fn is_sync_point(&self) -> bool {
        matches!(
            self,
            JournalRecord::Tick { .. } | JournalRecord::Drain { .. } | JournalRecord::Checkpoint(_)
        )
    }

    /// The record's newline-terminated journal line.
    pub fn to_line(&self) -> String {
        let mut line = match self {
            JournalRecord::Checkpoint(state) => String::with_capacity(state.line_capacity_hint()),
            _ => String::with_capacity(64),
        };
        let mut w = ObjWriter::new(&mut line);
        match self {
            JournalRecord::Hello {
                tenant,
                machines,
                cal_len,
                cal_cost,
                algorithm,
                ..
            } => {
                w.str("op", "hello")
                    .str("tenant", tenant)
                    .uint("machines", *machines)
                    .int("cal_len", *cal_len)
                    .uint("cal_cost", *cal_cost)
                    .str("algorithm", algorithm.name());
            }
            JournalRecord::Arrive { jobs, .. } => {
                w.str("op", "arrive");
                write_jobs(w.key("jobs"), jobs);
            }
            JournalRecord::Tick { now, .. } => {
                w.str("op", "tick").int("now", *now);
            }
            JournalRecord::Drain { .. } => {
                w.str("op", "drain");
            }
            JournalRecord::Checkpoint(state) => {
                w.str("op", "checkpoint");
                state.write_json(&mut w);
            }
        }
        w.opt_uint("seq", self.seq());
        w.finish();
        line.push('\n');
        line
    }

    /// Parses one journal line.
    pub fn from_json(v: &Json) -> Result<JournalRecord, String> {
        let op = v
            .get("op")
            .and_then(Json::as_str)
            .ok_or_else(|| "missing `op`".to_string())?;
        let seq = v.get("seq").and_then(Json::as_u64);
        match op {
            "hello" => {
                let tenant = v
                    .get("tenant")
                    .and_then(Json::as_str)
                    .ok_or_else(|| "hello record missing `tenant`".to_string())?
                    .to_string();
                let machines = v
                    .get("machines")
                    .and_then(Json::as_u64)
                    .and_then(|m| usize::try_from(m).ok())
                    .ok_or_else(|| "hello record missing `machines`".to_string())?;
                let cal_len = v
                    .get("cal_len")
                    .and_then(Json::as_i64)
                    .ok_or_else(|| "hello record missing `cal_len`".to_string())?;
                let cal_cost = v
                    .get("cal_cost")
                    .and_then(Json::as_u128)
                    .ok_or_else(|| "hello record missing `cal_cost`".to_string())?;
                let algorithm = v
                    .get("algorithm")
                    .and_then(Json::as_str)
                    .and_then(Algorithm::from_name)
                    .ok_or_else(|| "hello record has no known `algorithm`".to_string())?;
                Ok(JournalRecord::Hello {
                    tenant,
                    machines,
                    cal_len,
                    cal_cost,
                    algorithm,
                    seq,
                })
            }
            "arrive" => {
                let jobs_json = v
                    .get("jobs")
                    .ok_or_else(|| "arrive record missing `jobs`".to_string())?;
                let jobs = Vec::<Job>::from_json(jobs_json)
                    .map_err(|e| format!("arrive record has bad `jobs`: {e}"))?;
                Ok(JournalRecord::Arrive { jobs, seq })
            }
            "tick" => {
                let now = v
                    .get("now")
                    .and_then(Json::as_i64)
                    .ok_or_else(|| "tick record missing `now`".to_string())?;
                Ok(JournalRecord::Tick { now, seq })
            }
            "drain" => Ok(JournalRecord::Drain { seq }),
            "checkpoint" => {
                CheckpointState::from_json(v).map(|s| JournalRecord::Checkpoint(Box::new(s)))
            }
            other => Err(format!("unknown journal op `{other}`")),
        }
    }

    /// Builds the opening record from a tenant's configuration.
    pub fn hello(tenant: &str, config: &TenantConfig, seq: Option<u64>) -> JournalRecord {
        JournalRecord::Hello {
            tenant: tenant.to_string(),
            machines: config.machines,
            cal_len: config.cal_len,
            cal_cost: config.cal_cost,
            algorithm: config.algorithm,
            seq,
        }
    }
}

/// A tenant's name as a file stem. Names go into paths, so every byte
/// outside a conservative charset becomes `_`.
fn file_stem(tenant: &str) -> String {
    let safe = |c: char| c.is_ascii_alphanumeric() || c == '-' || c == '_';
    tenant
        .chars()
        .map(|c| if safe(c) { c } else { '_' })
        .collect()
}

/// Maps a tenant name onto its journal file.
pub fn journal_path(dir: &Path, tenant: &str) -> PathBuf {
    dir.join(format!("{}.journal.jsonl", file_stem(tenant)))
}

/// Maps a tenant name onto its `--trace-dir` file.
pub(crate) fn trace_path(dir: &Path, tenant: &str) -> PathBuf {
    dir.join(format!("{}.jsonl", file_stem(tenant)))
}

/// The scratch file a compaction writes its checkpoint into before the
/// atomic rename. A crash can leave it behind at any cut point; recovery
/// and clean close both delete it, and its content is never read.
pub fn compact_tmp_path(journal: &Path) -> PathBuf {
    let mut name = journal.as_os_str().to_os_string();
    name.push(".tmp");
    PathBuf::from(name)
}

/// An open per-tenant journal file, appended write-ahead.
///
/// Each record goes to the file with one `write_all` of its whole line,
/// so the writer holds no buffer of its own while a session sits idle.
#[derive(Debug)]
pub struct JournalWriter {
    path: PathBuf,
    file: File,
    policy: FsyncPolicy,
}

impl JournalWriter {
    /// Creates (or truncates) the journal for a *fresh* session. A fresh
    /// `hello` for a name with a stale on-disk journal deliberately starts
    /// over — the client chose a new session, not `resume`.
    pub fn create(dir: &Path, tenant: &str, policy: FsyncPolicy) -> io::Result<JournalWriter> {
        std::fs::create_dir_all(dir)?;
        let path = journal_path(dir, tenant);
        let _ = std::fs::remove_file(compact_tmp_path(&path));
        let file = File::create(&path)?;
        Ok(JournalWriter { path, file, policy })
    }

    /// Reopens an existing journal for appending (the recovery path).
    pub fn open_append(dir: &Path, tenant: &str, policy: FsyncPolicy) -> io::Result<JournalWriter> {
        let path = journal_path(dir, tenant);
        let file = OpenOptions::new().append(true).open(&path)?;
        Ok(JournalWriter { path, file, policy })
    }

    /// The journal's on-disk location.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Whether appending `record` ends in `fsync` under this writer's
    /// policy — exposed so the metrics layer can label the append's
    /// latency sample (and the emitted `journal_sync` trace event) without
    /// duplicating the policy table.
    pub fn will_sync(&self, record: &JournalRecord) -> bool {
        match self.policy {
            FsyncPolicy::Always => true,
            FsyncPolicy::Tick => record.is_sync_point(),
            FsyncPolicy::Off => false,
        }
    }

    /// Appends one record with one write to the OS, fsyncing per policy.
    /// Must be called *before* the request is applied to the engine.
    pub fn append(&mut self, record: &JournalRecord) -> io::Result<()> {
        self.append_counted(record).map(|_| ())
    }

    /// [`JournalWriter::append`], returning the bytes written — the
    /// checkpoint path reports payload size to the metrics registry.
    pub fn append_counted(&mut self, record: &JournalRecord) -> io::Result<u64> {
        let sync = self.will_sync(record);
        let line = record.to_line();
        self.file.write_all(line.as_bytes())?;
        if sync {
            self.file.sync_data()?;
        }
        Ok(u64::try_from(line.len()).unwrap_or(u64::MAX))
    }

    /// Rewrites the journal as `[checkpoint]` — everything before the
    /// checkpoint is subsumed by it; records appended afterwards form the
    /// tail.
    ///
    /// Crash-safe at every cut point: the checkpoint is written to a
    /// scratch `.tmp` file (synced unless the policy is `off`) and
    /// published over the journal with one atomic `rename`. Before the
    /// rename the old journal is untouched and authoritative; after it the
    /// new journal is complete. The returned writer keeps appending to the
    /// *renamed* file through the same handle, so no reopen can fail
    /// half-way. On error the original writer comes back unchanged (the
    /// scratch file, if any, is deleted) and appends simply continue
    /// against the old journal.
    pub fn compact(self, checkpoint: &JournalRecord) -> (JournalWriter, io::Result<u64>) {
        let tmp = compact_tmp_path(&self.path);
        let prepared: io::Result<(File, u64)> = (|| {
            let mut file = File::create(&tmp)?;
            let line = checkpoint.to_line();
            file.write_all(line.as_bytes())?;
            if self.policy != FsyncPolicy::Off {
                file.sync_data()?;
            }
            std::fs::rename(&tmp, &self.path)?;
            Ok((file, u64::try_from(line.len()).unwrap_or(u64::MAX)))
        })();
        match prepared {
            Ok((file, bytes)) => (
                JournalWriter {
                    path: self.path,
                    file,
                    policy: self.policy,
                },
                Ok(bytes),
            ),
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                (self, Err(e))
            }
        }
    }

    /// Deletes the journal's on-disk files — the clean-close (`bye`)
    /// path. A stale compaction scratch file goes with it.
    pub fn remove_files(self) -> io::Result<()> {
        // Drop the handle first so removal works on every platform.
        let path = self.path;
        drop(self.file);
        let _ = std::fs::remove_file(compact_tmp_path(&path));
        std::fs::remove_file(path)
    }
}

/// Reads every intact record of a journal file.
///
/// A final line that is unterminated or unparseable is treated as a torn
/// tail from a mid-write crash and ignored; a malformed line anywhere
/// earlier is corruption and an `InvalidData` error.
pub fn read_journal(path: &Path) -> io::Result<Vec<JournalRecord>> {
    let mut reader = BufReader::new(File::open(path)?);
    let mut raw: Vec<Vec<u8>> = Vec::new();
    loop {
        let mut buf = Vec::new();
        let n = reader.read_until(b'\n', &mut buf)?;
        if n == 0 {
            break;
        }
        raw.push(buf);
    }
    let mut records = Vec::with_capacity(raw.len());
    let last = raw.len().saturating_sub(1);
    for (i, buf) in raw.iter().enumerate() {
        let is_tail = i == last;
        let parsed = std::str::from_utf8(buf)
            .ok()
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(|s| {
                Json::parse(s)
                    .map_err(|e| e.to_string())
                    .and_then(|v| JournalRecord::from_json(&v))
            });
        match parsed {
            // An unterminated tail still counts when it parses — the line
            // is complete JSON, only the trailing newline is missing.
            Some(Ok(record)) => records.push(record),
            Some(Err(e)) if is_tail => {
                // Torn tail: the crash landed mid-write. Drop it.
                let _ = e;
            }
            Some(Err(e)) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("corrupt journal line {}: {e}", i + 1),
                ));
            }
            None if is_tail => {}
            None => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("corrupt journal line {}: not UTF-8", i + 1),
                ));
            }
        }
    }
    Ok(records)
}

/// What a recovery actually did — how much of the journal existed versus
/// how much had to be replayed through the engine. The daemon logs this
/// per recovery, and the recovery CI job asserts `tail_replayed` stays
/// bounded by the checkpoint cadence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Intact records read from the journal file.
    pub records: usize,
    /// Records replayed through the engine after the restore point.
    pub tail_replayed: usize,
    /// Whether a checkpoint supplied the starting state (`false` = full
    /// replay from the hello record).
    pub from_checkpoint: bool,
}

fn corrupt(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Applies one post-restore-point record to a replaying session. Engine-
/// level errors are deterministic re-occurrences of errors the live
/// session already reported (and answered), so they are swallowed — the
/// replayed state still matches the live state exactly.
fn apply_record(session: &mut TenantSession, record: &JournalRecord) -> io::Result<()> {
    match record {
        JournalRecord::Hello { .. } => {
            return Err(corrupt("duplicate hello record mid-journal"));
        }
        JournalRecord::Arrive { jobs, seq } => {
            let _ = session.arrive(jobs, None);
            if let Some(s) = *seq {
                session.note_seq(s);
            }
        }
        JournalRecord::Tick { now, seq } => {
            let _ = session.tick(*now, None);
            if let Some(s) = *seq {
                session.note_seq(s);
            }
        }
        JournalRecord::Drain { seq } => {
            let _ = session.drain(None);
            if let Some(s) = *seq {
                session.note_seq(s);
            }
        }
        // A checkpoint in the tail is state the session already has (it
        // was cut *after* this record's restore point would have been);
        // only its `seq` high-water mark matters.
        JournalRecord::Checkpoint(state) => {
            if let Some(s) = state.last_seq {
                session.note_seq(s);
            }
        }
    }
    Ok(())
}

/// Replays intact records through a fresh session, reporting how much
/// work that took.
///
/// The session restarts from the **latest checkpoint that restores
/// cleanly** and replays only the records after it. A checkpoint that
/// fails its consistency checks falls back to the previous one, and
/// ultimately to full replay from the hello record — mirroring the torn-
/// tail rule: recovery degrades to more replay work, it does not error.
/// Returns `None` for an empty journal (crash before the hello record hit
/// the disk).
pub fn replay_with_report(
    records: &[JournalRecord],
) -> io::Result<Option<(TenantSession, RecoveryReport)>> {
    let report = |tail: usize, from_checkpoint: bool| RecoveryReport {
        records: records.len(),
        tail_replayed: tail,
        from_checkpoint,
    };
    // Newest checkpoint first.
    for (i, record) in records.iter().enumerate().rev() {
        let JournalRecord::Checkpoint(state) = record else {
            continue;
        };
        let Ok(mut session) = TenantSession::restore_from_checkpoint(state) else {
            continue;
        };
        let tail = &records[i + 1..];
        for record in tail {
            apply_record(&mut session, record)?;
        }
        session.set_records_since_checkpoint(u64::try_from(tail.len()).unwrap_or(u64::MAX));
        return Ok(Some((session, report(tail.len(), true))));
    }
    // Full replay from the opening hello.
    let Some(first) = records.first() else {
        return Ok(None);
    };
    let JournalRecord::Hello {
        tenant,
        machines,
        cal_len,
        cal_cost,
        algorithm,
        seq,
    } = first
    else {
        return Err(corrupt(
            "journal starts with neither a hello nor a usable checkpoint",
        ));
    };
    let config = TenantConfig {
        machines: *machines,
        cal_len: *cal_len,
        cal_cost: *cal_cost,
        algorithm: *algorithm,
    };
    // Recovered sessions run without a trace sink: appending replayed
    // events to a truncated trace would silently duplicate history.
    let mut session = TenantSession::new(tenant, config, None)
        .map_err(|e| corrupt(&format!("journalled config no longer valid: {}", e.message)))?;
    if let Some(s) = *seq {
        session.note_seq(s);
    }
    let tail = &records[1..];
    for record in tail {
        apply_record(&mut session, record)?;
    }
    session.set_records_since_checkpoint(u64::try_from(records.len()).unwrap_or(u64::MAX));
    Ok(Some((session, report(tail.len(), false))))
}

/// Replays intact records through a fresh session. See
/// [`replay_with_report`] for the checkpoint-selection rules.
pub fn replay(records: &[JournalRecord]) -> io::Result<Option<TenantSession>> {
    Ok(replay_with_report(records)?.map(|(session, _)| session))
}

/// Full recovery: read + replay + reattach an append-mode writer, so the
/// resumed session keeps journaling where the dead process stopped. A
/// stale compaction scratch file (crash before the rename) is deleted —
/// the old journal it would have replaced is still authoritative.
///
/// Returns `Ok(None)` when no journal exists for the tenant.
pub fn recover_with_report(
    dir: &Path,
    tenant: &str,
    policy: FsyncPolicy,
) -> io::Result<Option<(TenantSession, RecoveryReport)>> {
    let path = journal_path(dir, tenant);
    let _ = std::fs::remove_file(compact_tmp_path(&path));
    if !path.exists() {
        return Ok(None);
    }
    let records = read_journal(&path)?;
    let Some((mut session, report)) = replay_with_report(&records)? else {
        return Ok(None);
    };
    if session.name() != tenant {
        return Err(corrupt(&format!(
            "journal `{}` belongs to tenant `{}`, not `{tenant}`",
            path.display(),
            session.name()
        )));
    }
    let writer = JournalWriter::open_append(dir, tenant, policy)?;
    session.resume_journal(writer);
    Ok(Some((session, report)))
}

/// [`recover_with_report`] without the report.
pub fn recover(dir: &Path, tenant: &str, policy: FsyncPolicy) -> io::Result<Option<TenantSession>> {
    Ok(recover_with_report(dir, tenant, policy)?.map(|(session, _)| session))
}

#[cfg(test)]
mod tests {
    use super::*;
    use calib_core::json::ToJson;

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("calib-journal-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn config() -> TenantConfig {
        TenantConfig {
            machines: 1,
            cal_len: 4,
            cal_cost: 6,
            algorithm: Algorithm::Alg1,
        }
    }

    #[test]
    fn records_round_trip_through_json() {
        let records = vec![
            JournalRecord::hello("t", &config(), Some(0)),
            JournalRecord::Arrive {
                jobs: vec![Job::new(0, 3, 2)],
                seq: Some(1),
            },
            JournalRecord::Tick {
                now: 5,
                seq: Some(2),
            },
            JournalRecord::Drain { seq: None },
        ];
        for r in &records {
            let line = r.to_line();
            let back = JournalRecord::from_json(&Json::parse(&line).unwrap()).unwrap();
            assert_eq!(&back, r);
        }
    }

    #[test]
    fn write_read_replay_reconstructs_state() {
        let dir = tmp("rt");
        let mut w = JournalWriter::create(&dir, "t", FsyncPolicy::Off).unwrap();
        w.append(&JournalRecord::hello("t", &config(), Some(0)))
            .unwrap();
        w.append(&JournalRecord::Arrive {
            jobs: vec![Job::unweighted(0, 0), Job::unweighted(1, 2)],
            seq: Some(1),
        })
        .unwrap();
        w.append(&JournalRecord::Tick {
            now: 2,
            seq: Some(2),
        })
        .unwrap();
        w.append(&JournalRecord::Drain { seq: Some(3) }).unwrap();
        drop(w);

        let records = read_journal(&journal_path(&dir, "t")).unwrap();
        assert_eq!(records.len(), 4);
        let session = replay(&records).unwrap().unwrap();
        assert_eq!(session.last_seq(), Some(3));
        let acc = session.accounting();
        assert!(acc.checker_ok, "violations: {:?}", acc.violations);
        assert_eq!(acc.scheduled, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_ignored_but_midfile_corruption_is_fatal() {
        let dir = tmp("torn");
        let mut w = JournalWriter::create(&dir, "t", FsyncPolicy::Always).unwrap();
        w.append(&JournalRecord::hello("t", &config(), None))
            .unwrap();
        w.append(&JournalRecord::Tick { now: 1, seq: None })
            .unwrap();
        drop(w);
        let path = journal_path(&dir, "t");
        // Torn tail: a partial record with no newline.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(br#"{"op":"tick","no"#).unwrap();
        drop(f);
        let records = read_journal(&path).unwrap();
        assert_eq!(records.len(), 2, "torn tail dropped");

        // Corruption mid-file is not a torn tail.
        std::fs::write(
            &path,
            b"{\"op\":\"hello\",\"tenant\":\"t\",\"machines\":1,\"cal_len\":4,\"cal_cost\":6,\"algorithm\":\"alg1\"}\ngarbage\n{\"op\":\"drain\"}\n",
        )
        .unwrap();
        let err = read_journal(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_reports_missing_journal_as_none() {
        let dir = tmp("none");
        assert!(recover(&dir, "ghost", FsyncPolicy::Off).unwrap().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_paths_stay_inside_the_directory() {
        let dir = PathBuf::from("/journals");
        let p = journal_path(&dir, "../../etc/passwd");
        assert_eq!(p, dir.join("______etc_passwd.journal.jsonl"));
        let p = trace_path(&dir, "../../etc/passwd");
        assert_eq!(p, dir.join("______etc_passwd.jsonl"));
    }

    /// A journaled session with some real state to checkpoint.
    fn journaled_session(dir: &Path) -> TenantSession {
        let mut s = TenantSession::new("t", config(), None).unwrap();
        s.start_journal(JournalWriter::create(dir, "t", FsyncPolicy::Off).unwrap())
            .unwrap();
        s.arrive(&[Job::unweighted(0, 0), Job::unweighted(1, 3)], Some(1))
            .unwrap();
        s.note_seq(1);
        s.tick(4, Some(2)).unwrap();
        s.note_seq(2);
        s
    }

    #[test]
    fn checkpoint_record_round_trips_through_json() {
        let dir = tmp("ckpt-rt");
        let s = journaled_session(&dir);
        let record = JournalRecord::Checkpoint(Box::new(s.checkpoint_state()));
        let line = record.to_line();
        let back = JournalRecord::from_json(&Json::parse(&line).unwrap()).unwrap();
        assert_eq!(back, record);
        assert!(back.is_sync_point());
        assert_eq!(back.seq(), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_rewrites_to_checkpoint_plus_tail() {
        let dir = tmp("compact");
        let mut live = journaled_session(&dir);
        assert!(live.checkpoint(true), "compaction must succeed");
        assert_eq!(live.records_since_checkpoint(), 0);
        // On disk: exactly one (checkpoint) record.
        let path = journal_path(&dir, "t");
        let records = read_journal(&path).unwrap();
        assert_eq!(records.len(), 1);
        assert!(matches!(records[0], JournalRecord::Checkpoint(_)));
        assert!(
            !compact_tmp_path(&path).exists(),
            "scratch file renamed away"
        );

        // The tail keeps appending through the same (renamed) handle.
        live.arrive(&[Job::unweighted(2, 6)], Some(3)).unwrap();
        live.note_seq(3);
        live.tick(7, Some(4)).unwrap();
        live.note_seq(4);
        live.drain(Some(5)).unwrap();
        live.note_seq(5);
        let records = read_journal(&path).unwrap();
        assert_eq!(records.len(), 4, "checkpoint + 3 tail records");

        // Recovery restores from the checkpoint and replays only the tail,
        // byte-identical to the live session.
        let (recovered, report) = replay_with_report(&records).unwrap().unwrap();
        assert!(report.from_checkpoint);
        assert_eq!(report.tail_replayed, 3);
        assert_eq!(recovered.last_seq(), live.last_seq());
        assert_eq!(
            recovered.schedule_snapshot().to_json().to_string_compact(),
            live.schedule_snapshot().to_json().to_string_compact()
        );
        let (ra, la) = (recovered.accounting(), live.accounting());
        assert_eq!((ra.flow, ra.cost), (la.flow, la.cost));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_compaction_scratch_file_is_ignored_and_removed() {
        let dir = tmp("stale-tmp");
        let mut live = journaled_session(&dir);
        live.drain(Some(3)).unwrap();
        let live_schedule = live.schedule_snapshot().to_json().to_string_compact();
        drop(live);
        // Simulate a crash mid-compaction, before the rename: a torn
        // scratch file next to an intact journal.
        let path = journal_path(&dir, "t");
        std::fs::write(compact_tmp_path(&path), b"{\"op\":\"checkpoint\",\"tr").unwrap();
        let (recovered, report) = recover_with_report(&dir, "t", FsyncPolicy::Off)
            .unwrap()
            .unwrap();
        assert!(!report.from_checkpoint, "old journal is authoritative");
        assert!(!compact_tmp_path(&path).exists(), "scratch file cleaned up");
        assert_eq!(
            recovered.schedule_snapshot().to_json().to_string_compact(),
            live_schedule
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unusable_checkpoint_falls_back_to_full_replay() {
        let dir = tmp("bad-ckpt");
        let mut live = journaled_session(&dir);
        // Append a checkpoint whose engine state fails consistency checks.
        let mut state = live.checkpoint_state();
        state.engine.waiting.push(calib_core::JobId(999));
        live.resume_journal({
            let mut w = JournalWriter::open_append(&dir, "t", FsyncPolicy::Off).unwrap();
            w.append(&JournalRecord::Checkpoint(Box::new(state)))
                .unwrap();
            w
        });
        live.drain(Some(3)).unwrap();
        let records = read_journal(&journal_path(&dir, "t")).unwrap();
        let (recovered, report) = replay_with_report(&records).unwrap().unwrap();
        assert!(
            !report.from_checkpoint,
            "corrupt checkpoint must fall back to full replay"
        );
        assert_eq!(report.tail_replayed, records.len() - 1);
        assert_eq!(
            recovered.schedule_snapshot().to_json().to_string_compact(),
            live.schedule_snapshot().to_json().to_string_compact()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
