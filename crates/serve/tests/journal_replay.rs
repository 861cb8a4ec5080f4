//! Journal-replay determinism: a session recovered from its write-ahead
//! journal is byte-identical to the session that never crashed.
//!
//! The recovery contract rests on engine determinism — a `TenantSession`
//! is a pure function of its accepted request stream, so replaying the
//! journalled stream must reproduce the same schedule (same canonical
//! JSON bytes), the same `u128` flow/cost accounting, and the same `seq`
//! high-water mark, for every algorithm and workload family. The crash
//! point is swept across the journal: recovery from any prefix, followed
//! by live replay of the remaining requests, must converge to the same
//! final state.

use std::io::Write;

use calib_core::json::ToJson;
use calib_difftest::{gen_case_sized, GenParams};
use calib_online::run_online;
use calib_serve::journal::journal_path;
use calib_serve::{
    compact_tmp_path, read_journal, recover, recover_with_report, Algorithm, FsyncPolicy,
    JournalRecord, JournalWriter, TenantConfig, TenantSession,
};

mod support;
use support::TempDir;

/// The algorithm sweep with generator bounds matched to each contract.
fn families() -> Vec<(Algorithm, GenParams)> {
    vec![
        (
            Algorithm::Alg1,
            GenParams {
                max_p: 1,
                max_weight: 1,
                ..GenParams::default()
            },
        ),
        (
            Algorithm::Alg2,
            GenParams {
                max_p: 1,
                ..GenParams::default()
            },
        ),
        (
            Algorithm::Alg3,
            GenParams {
                max_weight: 1,
                ..GenParams::default()
            },
        ),
    ]
}

/// Drives a fully journaled session through the whole instance (arrive
/// and tick per release group, then drain), mimicking the server's seq
/// bookkeeping and per-request `maybe_checkpoint` call, and returns it.
/// `checkpoint_every` arms the cadence policy; `hook` runs after each
/// release group (with its zero-based index) for mid-run compactions.
fn run_journaled_session_with(
    dir: &std::path::Path,
    tenant: &str,
    algorithm: Algorithm,
    case: &calib_difftest::TestCase,
    checkpoint_every: Option<u64>,
    mut hook: impl FnMut(&mut TenantSession, usize),
) -> TenantSession {
    let config = TenantConfig {
        machines: case.instance.machines(),
        cal_len: case.instance.cal_len(),
        cal_cost: case.cal_cost,
        algorithm,
    };
    let mut session = TenantSession::new(tenant, config, None).expect("session");
    let mut seq: u64 = 0;
    session.note_seq(seq);
    let writer = JournalWriter::create(dir, tenant, FsyncPolicy::Off).expect("journal create");
    session.start_journal(writer).expect("journal hello");
    session.set_checkpoint_policy(checkpoint_every, false);

    let mut jobs = case.instance.jobs().to_vec();
    jobs.sort_by_key(|j| (j.release, j.id));
    let mut i = 0;
    let mut group = 0;
    while i < jobs.len() {
        let release = jobs[i].release;
        let mut batch = Vec::new();
        while i < jobs.len() && jobs[i].release == release {
            batch.push(jobs[i]);
            i += 1;
        }
        seq += 1;
        session.arrive(&batch, Some(seq)).expect("arrive");
        session.note_seq(seq);
        session.maybe_checkpoint();
        seq += 1;
        session.tick(release, Some(seq)).expect("tick");
        session.note_seq(seq);
        session.maybe_checkpoint();
        hook(&mut session, group);
        group += 1;
    }
    seq += 1;
    session.drain(Some(seq)).expect("drain");
    session.note_seq(seq);
    session.maybe_checkpoint();
    session
}

fn run_journaled_session(
    dir: &std::path::Path,
    tenant: &str,
    algorithm: Algorithm,
    case: &calib_difftest::TestCase,
) -> TenantSession {
    run_journaled_session_with(dir, tenant, algorithm, case, None, |_, _| {})
}

/// Number of distinct release times — the journal gains one arrive and
/// one tick per group, so mid-run hooks can target the middle.
fn release_groups(case: &calib_difftest::TestCase) -> usize {
    let mut releases: Vec<_> = case.instance.jobs().iter().map(|j| j.release).collect();
    releases.sort_unstable();
    releases.dedup();
    releases.len()
}

/// Applies the mutation records after the crash point to a recovered
/// session — the live requests a reconnecting client would resend.
fn apply_live(session: &mut TenantSession, records: &[JournalRecord]) {
    for record in records {
        match record {
            JournalRecord::Hello { .. } => panic!("hello only opens a journal"),
            JournalRecord::Arrive { jobs, seq } => {
                session.arrive(jobs, *seq).expect("live arrive");
            }
            JournalRecord::Tick { now, seq } => {
                session.tick(*now, *seq).expect("live tick");
            }
            JournalRecord::Drain { seq } => {
                session.drain(*seq).expect("live drain");
            }
            JournalRecord::Checkpoint(state) => {
                // A checkpoint carries no new mutations — only the seq
                // high-water mark it captured.
                if let Some(seq) = state.last_seq {
                    session.note_seq(seq);
                }
            }
        }
        if let Some(s) = record.seq() {
            session.note_seq(s);
        }
    }
}

fn snapshot(session: &TenantSession) -> (String, u128, u128, Option<u64>) {
    let schedule = session.schedule_snapshot().to_json().to_string_compact();
    let acc = session.accounting();
    assert!(acc.checker_ok, "drained schedule must pass the checker");
    (schedule, acc.flow, acc.cost, session.last_seq())
}

/// Recovery from *any* crash point reconverges: for every algorithm and
/// several seeds, replaying a journal prefix and re-applying the rest of
/// the request stream yields byte-identical schedule JSON and identical
/// `u128` accounting to the uninterrupted session — which in turn match
/// the batch engine.
#[test]
fn replay_from_any_crash_point_is_byte_identical() {
    for (algorithm, params) in families() {
        for seed in [3u64, 17, 2017] {
            let case = gen_case_sized(seed, &params, 40);
            let tenant = format!("t-{}-{seed}", algorithm.name());
            let dir = TempDir::new(&format!("full-{}-{seed}", algorithm.name()));

            let live = run_journaled_session(&dir.0, &tenant, algorithm, &case);
            let (want_schedule, want_flow, want_cost, want_seq) = snapshot(&live);

            // The uninterrupted session itself matches the batch engine.
            let batch = run_online(
                &case.instance,
                case.cal_cost,
                algorithm.scheduler().as_mut(),
            );
            assert_eq!(want_flow, batch.flow, "{tenant}: live vs batch flow");
            assert_eq!(want_cost, batch.cost, "{tenant}: live vs batch cost");
            assert_eq!(
                want_schedule,
                batch.schedule.to_json().to_string_compact(),
                "{tenant}: live vs batch schedule bytes"
            );

            let records = read_journal(&journal_path(&dir.0, &tenant)).expect("read journal");
            assert!(
                matches!(records.first(), Some(JournalRecord::Hello { .. })),
                "journal opens with hello"
            );
            let mutations = records.len() - 1;

            // Crash right after the hello, mid-stream, and after the last
            // mutation (a pure-replay recovery with nothing to resend).
            for cut in [0, mutations / 2, mutations] {
                let crash_dir = TempDir::new(&format!("cut{cut}-{}-{seed}", algorithm.name()));
                let mut writer = JournalWriter::create(&crash_dir.0, &tenant, FsyncPolicy::Off)
                    .expect("prefix journal");
                for record in &records[..=cut] {
                    writer.append(record).expect("prefix append");
                }
                drop(writer);
                // A crash tears the tail mid-record; recovery must shrug.
                let path = journal_path(&crash_dir.0, &tenant);
                let mut f = std::fs::OpenOptions::new()
                    .append(true)
                    .open(&path)
                    .expect("reopen journal");
                f.write_all(b"{\"type\":\"tick\",\"now\":9")
                    .expect("torn tail");
                drop(f);

                let mut recovered = recover(&crash_dir.0, &tenant, FsyncPolicy::Off)
                    .expect("recover")
                    .expect("journal present");
                apply_live(&mut recovered, &records[cut + 1..]);

                let (got_schedule, got_flow, got_cost, got_seq) = snapshot(&recovered);
                assert_eq!(
                    got_schedule, want_schedule,
                    "{tenant} cut {cut}: schedule bytes diverge after recovery"
                );
                assert_eq!(got_flow, want_flow, "{tenant} cut {cut}: flow");
                assert_eq!(got_cost, want_cost, "{tenant} cut {cut}: cost");
                assert_eq!(got_seq, want_seq, "{tenant} cut {cut}: last_seq");
            }
        }
    }
}

/// A recovered session keeps journaling: crash *again* after recovery and
/// a second recovery still converges (journal appends compose).
#[test]
fn recovery_is_idempotent_across_repeated_crashes() {
    let (algorithm, params) = (Algorithm::Alg2, families()[1].1);
    let case = gen_case_sized(11, &params, 30);
    let tenant = "double-crash";
    let dir = TempDir::new("double-crash-src");
    let live = run_journaled_session(&dir.0, tenant, algorithm, &case);
    let (want_schedule, want_flow, want_cost, want_seq) = snapshot(&live);

    let records = read_journal(&journal_path(&dir.0, tenant)).expect("read journal");
    let mutations = records.len() - 1;
    let first_cut = mutations / 3;
    let second_cut = (2 * mutations) / 3;

    let crash_dir = TempDir::new("double-crash");
    let mut writer =
        JournalWriter::create(&crash_dir.0, tenant, FsyncPolicy::Tick).expect("prefix journal");
    for record in &records[..=first_cut] {
        writer.append(record).expect("prefix append");
    }
    drop(writer);

    // First recovery re-applies up to the second crash point; its journal
    // appends go to the same file.
    let mut recovered = recover(&crash_dir.0, tenant, FsyncPolicy::Tick)
        .expect("recover")
        .expect("journal present");
    apply_live(&mut recovered, &records[first_cut + 1..=second_cut]);
    drop(recovered);

    // Second recovery sees prefix + appended middle, then finishes live.
    let mut recovered = recover(&crash_dir.0, tenant, FsyncPolicy::Tick)
        .expect("second recover")
        .expect("journal still present");
    apply_live(&mut recovered, &records[second_cut + 1..]);

    let (got_schedule, got_flow, got_cost, got_seq) = snapshot(&recovered);
    assert_eq!(
        got_schedule, want_schedule,
        "schedule bytes after two crashes"
    );
    assert_eq!(got_flow, want_flow);
    assert_eq!(got_cost, want_cost);
    assert_eq!(got_seq, want_seq);
}

/// Crash cuts swept across a *compacted* journal: a mid-run compaction
/// rewrites the journal to `[checkpoint, tail…]`, and recovery from every
/// prefix of that file — including a torn final line — restores from the
/// checkpoint, replays exactly the surviving tail (bounded recovery), and
/// reconverges byte-identically once the remaining requests are resent.
#[test]
fn crash_cuts_across_the_compaction_boundary_reconverge() {
    for (algorithm, params) in families() {
        let case = gen_case_sized(29, &params, 40);
        let tenant = format!("compact-{}", algorithm.name());
        let dir = TempDir::new(&format!("compact-src-{}", algorithm.name()));
        let mid = release_groups(&case) / 2;

        let live = run_journaled_session_with(&dir.0, &tenant, algorithm, &case, None, |s, g| {
            if g == mid {
                assert!(s.checkpoint(true), "mid-run compaction succeeds");
            }
        });
        let (want_schedule, want_flow, want_cost, want_seq) = snapshot(&live);

        let records = read_journal(&journal_path(&dir.0, &tenant)).expect("read journal");
        assert!(
            matches!(records.first(), Some(JournalRecord::Checkpoint(_))),
            "compacted journal opens with a checkpoint"
        );
        let tail = records.len() - 1;
        assert!(tail > 0, "workload continues past the compaction point");

        for cut in 0..=tail {
            let crash_dir = TempDir::new(&format!("compact-cut{cut}-{}", algorithm.name()));
            let mut writer = JournalWriter::create(&crash_dir.0, &tenant, FsyncPolicy::Off)
                .expect("prefix journal");
            for record in &records[..=cut] {
                writer.append(record).expect("prefix append");
            }
            drop(writer);
            // A crash tears the tail mid-record; recovery must shrug.
            let path = journal_path(&crash_dir.0, &tenant);
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .expect("reopen journal");
            f.write_all(b"{\"op\":\"tick\",\"now\":9")
                .expect("torn tail");
            drop(f);

            let (mut recovered, report) =
                recover_with_report(&crash_dir.0, &tenant, FsyncPolicy::Off)
                    .expect("recover")
                    .expect("journal present");
            assert!(
                report.from_checkpoint,
                "{tenant} cut {cut}: recovery starts from the checkpoint"
            );
            assert_eq!(
                report.tail_replayed, cut,
                "{tenant} cut {cut}: recovery work is bounded by the tail"
            );
            assert_eq!(report.records, cut + 1, "{tenant} cut {cut}: records seen");
            apply_live(&mut recovered, &records[cut + 1..]);

            let (got_schedule, got_flow, got_cost, got_seq) = snapshot(&recovered);
            assert_eq!(
                got_schedule, want_schedule,
                "{tenant} cut {cut}: schedule bytes diverge after compacted recovery"
            );
            assert_eq!(got_flow, want_flow, "{tenant} cut {cut}: flow");
            assert_eq!(got_cost, want_cost, "{tenant} cut {cut}: cost");
            assert_eq!(got_seq, want_seq, "{tenant} cut {cut}: last_seq");
        }
    }
}

/// A crash *between* writing the compaction scratch file and the atomic
/// rename leaves an intact old journal plus a complete `.tmp` checkpoint.
/// Recovery must ignore the scratch file (it never became the journal),
/// replay the old journal in full, and clean the scratch up.
#[test]
fn crash_before_compaction_rename_falls_back_to_the_old_journal() {
    let (algorithm, params) = (Algorithm::Alg2, families()[1].1);
    let case = gen_case_sized(37, &params, 30);
    let tenant = "mid-rename";
    let dir = TempDir::new("mid-rename");

    let live = run_journaled_session(&dir.0, tenant, algorithm, &case);
    let (want_schedule, want_flow, want_cost, want_seq) = snapshot(&live);

    // Stage the scratch exactly as an interrupted compaction leaves it: a
    // complete checkpoint line at the tmp path, old journal untouched.
    let path = journal_path(&dir.0, tenant);
    let tmp = compact_tmp_path(&path);
    let record = JournalRecord::Checkpoint(Box::new(live.checkpoint_state()));
    let line = record.to_line();
    std::fs::write(&tmp, line).expect("stage scratch checkpoint");

    let (recovered, report) = recover_with_report(&dir.0, tenant, FsyncPolicy::Off)
        .expect("recover")
        .expect("journal present");
    assert!(
        !report.from_checkpoint,
        "the scratch checkpoint must not be consulted"
    );
    assert!(!tmp.exists(), "stale compaction scratch is removed");

    let (got_schedule, got_flow, got_cost, got_seq) = snapshot(&recovered);
    assert_eq!(got_schedule, want_schedule, "schedule bytes after fallback");
    assert_eq!(got_flow, want_flow);
    assert_eq!(got_cost, want_cost);
    assert_eq!(got_seq, want_seq);
}

/// Compacting twice in a row (and again after drain) is idempotent: the
/// journal stays a single checkpoint record, no scratch file survives,
/// and recovery replays zero tail records to the identical state.
#[test]
fn double_compaction_is_idempotent() {
    let (algorithm, params) = (Algorithm::Alg1, families()[0].1);
    let case = gen_case_sized(53, &params, 30);
    let tenant = "double-compact";
    let dir = TempDir::new("double-compact");
    let mid = release_groups(&case) / 2;

    let live = run_journaled_session_with(&dir.0, tenant, algorithm, &case, None, |s, g| {
        if g == mid {
            assert!(s.checkpoint(true), "first mid-run compaction");
            assert!(s.checkpoint(true), "immediate re-compaction");
        }
    });
    let (want_schedule, want_flow, want_cost, want_seq) = snapshot(&live);

    let path = journal_path(&dir.0, tenant);
    let records = read_journal(&path).expect("read journal");
    assert!(
        matches!(records.first(), Some(JournalRecord::Checkpoint(_))),
        "journal opens with the checkpoint"
    );
    assert!(
        !compact_tmp_path(&path).exists(),
        "no scratch file survives"
    );

    // Compact once more on the crash copy: post-drain, the whole history
    // collapses to one checkpoint and recovery replays nothing.
    let crash_dir = TempDir::new("double-compact-crash");
    let mut writer =
        JournalWriter::create(&crash_dir.0, tenant, FsyncPolicy::Off).expect("copy journal");
    for record in &records {
        writer.append(record).expect("copy append");
    }
    drop(writer);
    let (mut recovered, _) = recover_with_report(&crash_dir.0, tenant, FsyncPolicy::Off)
        .expect("recover copy")
        .expect("journal present");
    assert!(recovered.checkpoint(true), "post-drain compaction");
    assert!(recovered.checkpoint(true), "repeat post-drain compaction");
    drop(recovered);

    let crash_path = journal_path(&crash_dir.0, tenant);
    let compacted = read_journal(&crash_path).expect("read compacted journal");
    assert_eq!(compacted.len(), 1, "journal is exactly one checkpoint");
    assert!(
        matches!(compacted.first(), Some(JournalRecord::Checkpoint(_))),
        "the single record is a checkpoint"
    );

    let (recovered, report) = recover_with_report(&crash_dir.0, tenant, FsyncPolicy::Off)
        .expect("recover compacted")
        .expect("journal present");
    assert!(report.from_checkpoint);
    assert_eq!(report.tail_replayed, 0, "nothing left to replay");

    let (got_schedule, got_flow, got_cost, got_seq) = snapshot(&recovered);
    assert_eq!(got_schedule, want_schedule, "schedule bytes survive");
    assert_eq!(got_flow, want_flow);
    assert_eq!(got_cost, want_cost);
    assert_eq!(got_seq, want_seq);
}

/// A crash can tear an *appended* (non-compacting) checkpoint line just
/// like any other record. Recovery must treat it as a torn tail — fall
/// back to the records before it, never error — and reconverge once the
/// rest of the stream is resent.
#[test]
fn torn_appended_checkpoint_line_falls_back_to_full_replay() {
    let (algorithm, params) = (Algorithm::Alg3, families()[2].1);
    let case = gen_case_sized(61, &params, 30);
    let tenant = "torn-checkpoint";
    let dir = TempDir::new("torn-checkpoint");
    let mid = release_groups(&case) / 2;

    let live = run_journaled_session_with(&dir.0, tenant, algorithm, &case, None, |s, g| {
        if g == mid {
            assert!(s.checkpoint(false), "mid-run appended checkpoint");
        }
    });
    let (want_schedule, want_flow, want_cost, want_seq) = snapshot(&live);

    let records = read_journal(&journal_path(&dir.0, tenant)).expect("read journal");
    let ci = records
        .iter()
        .position(|r| matches!(r, JournalRecord::Checkpoint(_)))
        .expect("appended checkpoint present");
    assert!(ci > 0, "checkpoint sits mid-journal after the hello");

    // Rebuild the journal up to the checkpoint, then tear the checkpoint
    // line itself halfway through.
    let crash_dir = TempDir::new("torn-checkpoint-crash");
    let mut writer =
        JournalWriter::create(&crash_dir.0, tenant, FsyncPolicy::Off).expect("prefix journal");
    for record in &records[..ci] {
        writer.append(record).expect("prefix append");
    }
    drop(writer);
    let line = records[ci].to_line();
    let torn = &line.as_bytes()[..line.len() / 2];
    let path = journal_path(&crash_dir.0, tenant);
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .expect("reopen journal");
    f.write_all(torn).expect("torn checkpoint line");
    drop(f);

    let (mut recovered, report) = recover_with_report(&crash_dir.0, tenant, FsyncPolicy::Off)
        .expect("recover never errors on a torn checkpoint")
        .expect("journal present");
    assert!(
        !report.from_checkpoint,
        "a torn checkpoint is dropped, not restored from"
    );
    assert_eq!(
        report.records, ci,
        "torn line excluded from the record count"
    );
    apply_live(&mut recovered, &records[ci + 1..]);

    let (got_schedule, got_flow, got_cost, got_seq) = snapshot(&recovered);
    assert_eq!(got_schedule, want_schedule, "schedule bytes after fallback");
    assert_eq!(got_flow, want_flow);
    assert_eq!(got_cost, want_cost);
    assert_eq!(got_seq, want_seq);
}

/// The `--checkpoint-every-n` cadence bounds recovery work: with the
/// policy armed the journal accumulates periodic checkpoints, and the
/// replayed tail after a crash never exceeds the cadence.
#[test]
fn cadence_checkpoints_bound_recovery_to_the_tail() {
    const CADENCE: u64 = 4;
    let (algorithm, params) = (Algorithm::Alg2, families()[1].1);
    let case = gen_case_sized(41, &params, 60);
    let tenant = "cadence";
    let dir = TempDir::new("cadence");

    let live =
        run_journaled_session_with(&dir.0, tenant, algorithm, &case, Some(CADENCE), |_, _| {});
    let (want_schedule, want_flow, want_cost, want_seq) = snapshot(&live);

    let records = read_journal(&journal_path(&dir.0, tenant)).expect("read journal");
    let checkpoints = records
        .iter()
        .filter(|r| matches!(r, JournalRecord::Checkpoint(_)))
        .count();
    assert!(
        checkpoints >= 2,
        "cadence produced periodic checkpoints (got {checkpoints})"
    );

    let (recovered, report) = recover_with_report(&dir.0, tenant, FsyncPolicy::Off)
        .expect("recover")
        .expect("journal present");
    assert!(report.from_checkpoint, "recovery starts from a checkpoint");
    assert!(
        report.tail_replayed <= usize::try_from(CADENCE).expect("cadence fits"),
        "tail {} exceeds the checkpoint cadence {CADENCE}",
        report.tail_replayed
    );

    let (got_schedule, got_flow, got_cost, got_seq) = snapshot(&recovered);
    assert_eq!(
        got_schedule, want_schedule,
        "schedule bytes after cadence recovery"
    );
    assert_eq!(got_flow, want_flow);
    assert_eq!(got_cost, want_cost);
    assert_eq!(got_seq, want_seq);
}
