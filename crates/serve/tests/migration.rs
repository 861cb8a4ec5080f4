//! Checkpoint-handoff equivalence: the property suite behind live tenant
//! migration.
//!
//! A migration (see `ROUTER.md`) is exactly "checkpoint on the source,
//! restore on the destination, keep going". For that to be invisible to
//! the client, a session that is checkpointed and restored at *any* point
//! in its request stream must finish in a byte-identical state to one
//! that ran straight through: same engine schedule, same exact `u128`
//! flow/cost totals, same seq high-water mark, same counters.
//!
//! These tests drive [`TenantSession`] directly — no sockets, no daemons —
//! so every cut point of every plan can be checked exhaustively. The
//! process-level drill (real daemons, a real router, a real `kill -9`)
//! lives in `tests/router_chaos.rs`.

use calib_core::json::{ObjWriter, ToJson};
use calib_core::{Job, Time};
use calib_difftest::{gen_case_sized, GenParams};
use calib_serve::{Algorithm, CheckpointState, TenantConfig, TenantSession};

/// One client-visible mutating request, pre-serialization.
#[derive(Debug, Clone)]
enum Step {
    Arrive(Vec<Job>),
    Tick(Time),
}

/// The algorithm matrix mirrors `calib-loadgen`'s `tenant_plan`: alg1 and
/// alg2 are single-machine, alg1/alg3 unweighted, alg3 multi-machine.
fn plans() -> Vec<(Algorithm, GenParams)> {
    let base = GenParams {
        max_n: 1, // overridden by the sized generator
        max_t: 8,
        max_g: 60,
        max_p: 1,
        max_weight: 1,
    };
    vec![
        (Algorithm::Alg1, base),
        (
            Algorithm::Alg2,
            GenParams {
                max_weight: 9,
                ..base
            },
        ),
        (Algorithm::Alg3, GenParams { max_p: 3, ..base }),
    ]
}

/// Builds the request stream a serving client would produce: arrivals
/// batched by release time, each batch followed by a tick to its last
/// release — the same shape `calib-loadgen` sends over the wire.
fn build_steps(seed: u64, params: &GenParams, jobs: usize) -> (TenantConfig, Vec<Step>) {
    let case = gen_case_sized(seed, params, jobs);
    let instance = &case.instance;
    let config = TenantConfig {
        machines: instance.machines(),
        cal_len: instance.cal_len(),
        cal_cost: case.cal_cost,
        algorithm: Algorithm::Alg1, // overwritten by the caller
    };
    let mut all: Vec<Job> = instance.jobs().to_vec();
    all.sort_by_key(|j| (j.release, j.id));
    let mut steps = Vec::new();
    let mut i = 0usize;
    while i < all.len() {
        // Two release groups per batch keeps arrivals genuinely ahead of
        // ticks, so cut points land between every interesting phase.
        let mut batch: Vec<Job> = Vec::new();
        let mut groups = 0usize;
        let mut last_release: Time = 0;
        while i < all.len() {
            if batch.last().map(|j: &Job| j.release) != Some(all[i].release) {
                if groups == 2 {
                    break;
                }
                groups += 1;
            }
            last_release = all[i].release;
            batch.push(all[i]);
            i += 1;
        }
        steps.push(Step::Arrive(batch));
        steps.push(Step::Tick(last_release));
    }
    (config, steps)
}

/// Applies `steps[from..]` with their stream positions as seqs, then
/// drains with the seq one past the end.
fn apply(session: &mut TenantSession, steps: &[Step], from: usize) {
    for (k, step) in steps.iter().enumerate().skip(from) {
        let seq = Some(k as u64);
        match step {
            Step::Arrive(jobs) => session
                .arrive(jobs, seq)
                .unwrap_or_else(|e| panic!("arrive #{k}: {} {}", e.code, e.message)),
            Step::Tick(now) => {
                session
                    .tick(*now, seq)
                    .unwrap_or_else(|e| panic!("tick #{k}: {} {}", e.code, e.message));
            }
        }
    }
    session
        .drain(Some(steps.len() as u64))
        .unwrap_or_else(|e| panic!("drain: {} {}", e.code, e.message));
}

/// The checkpoint payload exactly as an `evicted` reply carries it.
fn checkpoint_bytes(state: &CheckpointState) -> String {
    let mut out = String::new();
    let mut w = ObjWriter::new(&mut out);
    state.write_json(&mut w);
    w.finish();
    out
}

/// The byte-level identity oracle: the full checkpoint payload (engine
/// snapshot, counters, exact flow/cost, seq high-water mark) plus the
/// materialized schedule, both as compact JSON.
fn fingerprint(session: &TenantSession) -> (String, String) {
    (
        checkpoint_bytes(&session.checkpoint_state()),
        session.schedule_snapshot().to_json().to_string_compact(),
    )
}

fn fresh(config: TenantConfig) -> TenantSession {
    TenantSession::new("tenant-m", config, None)
        .unwrap_or_else(|e| panic!("session: {} {}", e.code, e.message))
}

/// Straight-through reference run for a plan.
fn baseline(config: TenantConfig, steps: &[Step]) -> (String, String) {
    let mut session = fresh(config);
    apply(&mut session, steps, 0);
    let accounting = session.accounting();
    assert!(
        accounting.checker_ok,
        "baseline schedule rejected: {:?}",
        accounting.violations
    );
    fingerprint(&session)
}

/// Checkpoint/restore at *every* cut point reproduces the straight run
/// byte for byte — the property live migration depends on.
#[test]
fn every_cut_point_is_invisible() {
    for (seed, jobs) in [(11u64, 40usize), (29, 40)] {
        for (algorithm, params) in plans() {
            let (mut config, steps) = build_steps(seed, &params, jobs);
            config.algorithm = algorithm;
            let expected = baseline(config, &steps);
            for cut in 0..=steps.len() {
                let mut source = fresh(config);
                for (k, step) in steps.iter().enumerate().take(cut) {
                    let seq = Some(k as u64);
                    match step {
                        Step::Arrive(jobs) => source.arrive(jobs, seq),
                        Step::Tick(now) => source.tick(*now, seq).map(|_| ()),
                    }
                    .unwrap_or_else(|e| panic!("pre-cut #{k}: {} {}", e.code, e.message));
                }
                let state = source.checkpoint_state();
                let mut dest = TenantSession::restore_from_checkpoint(&state)
                    .unwrap_or_else(|e| panic!("restore @{cut}: {} {}", e.code, e.message));
                assert_eq!(
                    dest.last_seq(),
                    source.last_seq(),
                    "seq high-water mark lost across the {algorithm:?}@{cut} handoff"
                );
                apply(&mut dest, &steps, cut);
                assert_eq!(
                    fingerprint(&dest),
                    expected,
                    "{algorithm:?} seed {seed}: cut @{cut} diverged from the straight run"
                );
            }
        }
    }
}

/// A checkpoint round-trips: restoring and immediately re-checkpointing
/// yields the identical payload, so repeated migrations (A -> B -> A)
/// cannot drift.
#[test]
fn double_handoff_is_idempotent() {
    let (algorithm, params) = plans().remove(1);
    let (mut config, steps) = build_steps(17, &params, 40);
    config.algorithm = algorithm;
    let mut session = fresh(config);
    let cut = steps.len() / 2;
    for (k, step) in steps.iter().enumerate().take(cut) {
        let seq = Some(k as u64);
        match step {
            Step::Arrive(jobs) => session.arrive(jobs, seq),
            Step::Tick(now) => session.tick(*now, seq).map(|_| ()),
        }
        .unwrap_or_else(|e| panic!("pre-cut #{k}: {} {}", e.code, e.message));
    }
    let first = session.checkpoint_state();
    let hop_b = TenantSession::restore_from_checkpoint(&first)
        .unwrap_or_else(|e| panic!("restore B: {} {}", e.code, e.message));
    let second = hop_b.checkpoint_state();
    assert_eq!(
        checkpoint_bytes(&first),
        checkpoint_bytes(&second),
        "checkpoint payload drifted across a restore"
    );
    let mut hop_a = TenantSession::restore_from_checkpoint(&second)
        .unwrap_or_else(|e| panic!("restore A: {} {}", e.code, e.message));
    apply(&mut hop_a, &steps, cut);
    let mut straight = fresh(config);
    apply(&mut straight, &steps, 0);
    assert_eq!(
        fingerprint(&hop_a),
        fingerprint(&straight),
        "A -> B -> A double handoff diverged from the straight run"
    );
}

/// The checkpoint wire payload survives serialization: JSON round-trip
/// through `CheckpointState::from_json` (what `adopt` receives) restores
/// to the same state as the in-memory handoff.
#[test]
fn checkpoint_survives_the_wire() {
    let (algorithm, params) = plans().remove(2);
    let (mut config, steps) = build_steps(43, &params, 40);
    config.algorithm = algorithm;
    let mut session = fresh(config);
    let cut = (steps.len() * 2) / 3;
    for (k, step) in steps.iter().enumerate().take(cut) {
        let seq = Some(k as u64);
        match step {
            Step::Arrive(jobs) => session.arrive(jobs, seq),
            Step::Tick(now) => session.tick(*now, seq).map(|_| ()),
        }
        .unwrap_or_else(|e| panic!("pre-cut #{k}: {} {}", e.code, e.message));
    }
    let state = session.checkpoint_state();
    let wire = checkpoint_bytes(&state);
    let parsed = calib_core::json::Json::parse(&wire).expect("checkpoint JSON parses");
    let decoded = CheckpointState::from_json(&parsed)
        .unwrap_or_else(|e| panic!("checkpoint failed the wire round-trip: {e}"));
    let mut via_wire = TenantSession::restore_from_checkpoint(&decoded)
        .unwrap_or_else(|e| panic!("restore from wire: {} {}", e.code, e.message));
    let mut direct = TenantSession::restore_from_checkpoint(&state)
        .unwrap_or_else(|e| panic!("restore direct: {} {}", e.code, e.message));
    apply(&mut via_wire, &steps, cut);
    apply(&mut direct, &steps, cut);
    assert_eq!(
        fingerprint(&via_wire),
        fingerprint(&direct),
        "wire-serialized checkpoint diverged from the in-memory one"
    );
}
