//! Pinned checkpoint bytes for large sessions.
//!
//! Seeded ~1,200-job tenants are driven through the daemon's
//! arrive/tick pattern and checkpointed at three cuts: mid-run (waiting
//! jobs, an open interval and, for Algorithm 3, outstanding
//! reservations), after `drain`, and after a restore from that drained
//! checkpoint followed by more arrivals and a second `drain`. Each cut's
//! `JournalRecord::Checkpoint` line is reduced to an FNV-1a digest and
//! compared against a constant, so any change to how the engine stores
//! its history that alters one checkpoint byte fails here.

use std::ops::RangeInclusive;

use calib_core::{Cost, Job, JobId, Time};
use calib_serve::{Algorithm, CheckpointState, JournalRecord, TenantConfig, TenantSession};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn digest(session: &TenantSession) -> u64 {
    let line = JournalRecord::Checkpoint(Box::new(session.checkpoint_state())).to_line();
    fnv1a(line.as_bytes())
}

/// The dense load of the first three cases: 0–2 jobs per release group,
/// gaps of 1–2 steps.
const DENSE: (RangeInclusive<u32>, RangeInclusive<Time>) = (0..=2, 1..=2);

/// `n` jobs with ids from `first_id`, released in groups from `start`:
/// `per_group` jobs per group, `gap` steps between groups, weights in
/// `1..=max_weight`.
fn jobs(
    rng: &mut StdRng,
    first_id: u32,
    n: usize,
    start: Time,
    max_weight: u64,
    (per_group, gap): &(RangeInclusive<u32>, RangeInclusive<Time>),
) -> Vec<Job> {
    let mut out = Vec::with_capacity(n);
    let mut release = start;
    while out.len() < n {
        for _ in 0..rng.gen_range(per_group.clone()) {
            if out.len() == n {
                break;
            }
            let id = first_id + u32::try_from(out.len()).expect("small id");
            out.push(Job {
                id: JobId(id),
                release,
                weight: rng.gen_range(1..=max_weight),
            });
        }
        release += rng.gen_range(gap.clone());
    }
    out
}

/// Arrive and tick each release group in turn; `after_group` runs after
/// every tick.
fn drive(session: &mut TenantSession, jobs: &[Job], mut after_group: impl FnMut(&TenantSession)) {
    let mut i = 0;
    while i < jobs.len() {
        let release = jobs[i].release;
        let end = i + jobs[i..].partition_point(|j| j.release == release);
        session.arrive(&jobs[i..end], None).expect("arrive");
        session.tick(release, None).expect("tick");
        after_group(session);
        i = end;
    }
}

/// True when the session's checkpoint has waiting jobs, an interval
/// still open at the clock and, when `reservations` is set, a reserved
/// slot.
fn rich_cut(session: &TenantSession, reservations: bool) -> bool {
    let state = session.checkpoint_state();
    let e = &state.engine;
    let open = e
        .intervals
        .last()
        .is_some_and(|iv| iv.start + e.cal_len > e.clock);
    let reserved = e.machines.iter().any(|m| !m.reservations.is_empty());
    !e.waiting.is_empty() && open && (reserved || !reservations)
}

/// The three digests for one tenant with `T = 6` and `G = cal_cost`:
/// mid-run, drained, and restored, extended and drained again. Also
/// returns the mid-run checkpoint.
fn digests(
    algorithm: Algorithm,
    machines: usize,
    max_weight: u64,
    seed: u64,
    cal_cost: Cost,
    load: &(RangeInclusive<u32>, RangeInclusive<Time>),
) -> ([u64; 3], CheckpointState) {
    let config = TenantConfig {
        machines,
        cal_len: 6,
        cal_cost,
        algorithm,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let first = jobs(&mut rng, 0, 1_000, 0, max_weight, load);
    let mut session = TenantSession::new("digest", config, None).expect("session");

    let mut mid = None;
    let half = first[first.len() / 2].release;
    drive(&mut session, &first, |s| {
        if mid.is_none() && s.now().is_some_and(|now| now >= half) && rich_cut(s, machines > 1) {
            mid = Some((digest(s), s.checkpoint_state()));
        }
    });
    let (mid, mid_state) =
        mid.expect("a mid-run cut with waiting jobs, an open interval and reservations");
    session.drain(None).expect("drain");
    let drained = digest(&session);

    let state = session.checkpoint_state();
    let mut restored = TenantSession::restore_from_checkpoint(&state).expect("restore");
    let resume = state.engine.clock + 1;
    let more = jobs(&mut rng, 1_000, 200, resume, max_weight, load);
    drive(&mut restored, &more, |_| {});
    restored.drain(None).expect("second drain");
    let again = digest(&restored);
    ([mid, drained, again], mid_state)
}

fn check(name: &str, got: [u64; 3], want: [u64; 3]) {
    assert_eq!(
        got, want,
        "{name}: checkpoint digests changed; got [{:#018x}, {:#018x}, {:#018x}]",
        got[0], got[1], got[2]
    );
}

#[test]
fn alg1_checkpoint_digests_are_pinned() {
    let (got, _) = digests(Algorithm::Alg1, 1, 1, 11, 20, &DENSE);
    check(
        "alg1",
        got,
        [0xe1ed8a7d6673e7a8, 0x26d6c3f1e7076c71, 0x32da8f47ce3c5de1],
    );
}

#[test]
fn alg2_checkpoint_digests_are_pinned() {
    let (got, _) = digests(Algorithm::Alg2, 1, 9, 22, 20, &DENSE);
    check(
        "alg2",
        got,
        [0x374a68df67c46b03, 0xca12db87e0c63e78, 0xeb071f1abaee0731],
    );
}

#[test]
fn alg3_checkpoint_digests_are_pinned() {
    let (got, _) = digests(Algorithm::Alg3, 2, 1, 33, 20, &DENSE);
    check(
        "alg3",
        got,
        [0x6110972c0ad928f0, 0x9bce1226ffa11c34, 0xc41e00617b503758],
    );
}

/// A lightly loaded Alg1 tenant (`G = 12`, 0–3 jobs every 3–12 steps):
/// intervals often expire before the next release, so Algorithm 1's
/// immediate-calibration rule fires, and it reads the most recent
/// interval after that interval has expired.
#[test]
fn alg1_immediate_rule_checkpoint_digests_are_pinned() {
    let (got, mid) = digests(Algorithm::Alg1, 1, 1, 44, 12, &(0..=3, 3..=12));
    assert!(
        mid.engine.trace.iter().any(|(_, l)| l == "alg1:immediate"),
        "the immediate-calibration rule never fired before the mid-run cut"
    );
    check(
        "alg1 immediate",
        got,
        [0x367f7fa29c94231d, 0x024e4acfd288db06, 0xe892b3b0f3fee8ac],
    );
}
