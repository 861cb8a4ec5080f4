//! Pinned runs for every threshold scheduler.
//!
//! Each scheduler variant runs over one seeded grid of instances: unit
//! weights and weights 1–9, `P ∈ {1, 2, 3}` where the scheduler is
//! multi-machine, and same-release bursts, so that several triggers hold
//! on one step and the order in which a scheduler checks them decides the
//! trace label. A run is reduced to a 64-bit FNV-1a digest of its
//! schedule, its trace `(t, label)` pairs, its intervals and its cost, and
//! a variant's digest folds its runs together. Any change to a trigger,
//! its precedence, its label or the queue order it sums the flow in fails
//! here.
//!
//! The served algorithms (Algorithms 1–3) also pin one
//! `EngineSession::snapshot`/`restore` cut mid-run: restore re-interns the
//! trace labels, so a label missing from the engine's table shows up as
//! `"calibrate"` in the restored run's digest.

use calib_core::{Cost, Instance, Job, PriorityPolicy, Time};
use calib_online::{
    run_alg3_practical, run_online, run_weighted_multi_practical, Alg1, Alg2, Alg3,
    CalibrateImmediately, EngineConfig, EngineSession, OnlineScheduler, RandomizedSkiRental, Ratio,
    RunResult, SkiRentalBatch, Thresholds, TunableScheduler, WeightedMulti,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// 64-bit FNV-1a over a stream of integers and strings.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn int(&mut self, v: i128) {
        self.bytes(&v.to_le_bytes());
    }

    fn label(&mut self, s: &str) {
        self.int(i128::try_from(s.len()).expect("short label"));
        self.bytes(s.as_bytes());
    }
}

/// Folds a run's schedule, trace, intervals and cost into `h`.
fn feed(h: &mut Fnv, res: &RunResult) {
    h.int(i128::try_from(res.schedule.calibrations.len()).unwrap());
    for c in &res.schedule.calibrations {
        h.int(i128::from(c.machine.0));
        h.int(i128::from(c.start));
    }
    h.int(i128::try_from(res.schedule.assignments.len()).unwrap());
    for a in &res.schedule.assignments {
        h.int(i128::from(a.job.0));
        h.int(i128::from(a.start));
        h.int(i128::from(a.machine.0));
    }
    h.int(i128::try_from(res.trace.len()).unwrap());
    for &(t, label) in &res.trace {
        h.int(i128::from(t));
        h.label(label);
    }
    h.int(i128::try_from(res.intervals.len()).unwrap());
    for iv in &res.intervals {
        h.int(i128::from(iv.machine.0));
        h.int(i128::from(iv.start));
        h.int(i128::try_from(iv.jobs.len()).unwrap());
        for (job, slot) in &iv.jobs {
            h.int(i128::from(job.id.0));
            h.int(i128::from(*slot));
        }
    }
    h.int(i128::try_from(res.cost).unwrap());
    h.int(i128::try_from(res.flow).unwrap());
}

/// `n` jobs released in bursts: 0–4 jobs per release, with a burst of
/// 5–9 one time in eight; gaps of 1–3 steps, or 8–20 one time in six so
/// that intervals expire between releases.
fn jobs(rng: &mut StdRng, n: usize, max_weight: u64) -> Vec<Job> {
    let mut out = Vec::with_capacity(n);
    let mut release: Time = 0;
    while out.len() < n {
        let burst = if rng.gen_range(0..8u32) == 0 {
            rng.gen_range(5..=9u32)
        } else {
            rng.gen_range(0..=4u32)
        };
        for _ in 0..burst {
            if out.len() == n {
                break;
            }
            let id = u32::try_from(out.len()).expect("small id");
            out.push(Job::new(id, release, rng.gen_range(1..=max_weight)));
        }
        release += if rng.gen_range(0..6u32) == 0 {
            rng.gen_range(8..=20i64)
        } else {
            rng.gen_range(1..=3i64)
        };
    }
    out
}

/// `(T, G)` pairs: `G < T`, `G ≈ T`, `T < G < T²` (twice; with `T = 8`
/// a burst at the queue rule runs for less than `G/2`, so Algorithm 1's
/// immediate rule can fire) and `G` near `T²`.
const SHAPES: [(Time, Cost); 5] = [(4, 3), (2, 3), (4, 12), (8, 24), (6, 40)];

/// The instance grid for one machine count: both weight models, every
/// shape, two seeds.
fn grid(machines: usize) -> Vec<(Instance, Cost)> {
    let mut out = Vec::new();
    for max_weight in [1u64, 9] {
        for (i, &(cal_len, cal_cost)) in SHAPES.iter().enumerate() {
            for seed in 0..2u64 {
                let shape = u64::try_from(i).unwrap();
                let mut rng = StdRng::seed_from_u64(
                    1_000 * u64::try_from(machines).unwrap() + 100 * max_weight + 10 * shape + seed,
                );
                let inst = Instance::new(jobs(&mut rng, 70, max_weight), machines, cal_len)
                    .expect("valid instance");
                out.push((inst, cal_cost));
            }
        }
    }
    out
}

/// Runs `run` over the grid for every machine count in `machines`,
/// returning the folded digest and every trace label seen.
fn digest_runs(
    machines: &[usize],
    mut run: impl FnMut(&Instance, Cost) -> RunResult,
) -> (u64, Vec<&'static str>) {
    let mut h = Fnv::new();
    let mut labels: Vec<&'static str> = Vec::new();
    for &p in machines {
        for (inst, g) in grid(p) {
            let res = run(&inst, g);
            for &(_, l) in &res.trace {
                if !labels.contains(&l) {
                    labels.push(l);
                }
            }
            feed(&mut h, &res);
        }
    }
    (h.0, labels)
}

/// One pinned variant: its digest and the labels its grid must fire.
fn check(name: &str, (got, seen): (u64, Vec<&'static str>), want: u64, fires: &[&str]) {
    for label in fires {
        assert!(
            seen.contains(label),
            "{name}: trigger {label} never fired on the grid (saw {seen:?})"
        );
    }
    assert_eq!(got, want, "{name}: run digest changed; got {got:#018x}");
}

fn single<S: OnlineScheduler>(make: impl Fn() -> S) -> impl FnMut(&Instance, Cost) -> RunResult {
    move |inst, g| run_online(inst, g, &mut make())
}

#[test]
fn alg1_runs_are_pinned() {
    check(
        "Alg1",
        digest_runs(&[1], single(Alg1::new)),
        0x225c890beae06df3,
        &["alg1:queue>=G/T", "alg1:flow>=G", "alg1:immediate"],
    );
    check(
        "Alg1(no-immediate)",
        digest_runs(&[1], single(Alg1::without_immediate_rule)),
        0x1a7bf3a550485c41,
        &["alg1:queue>=G/T", "alg1:flow>=G"],
    );
}

#[test]
fn alg2_runs_are_pinned() {
    let all = ["alg2:weight>=G/T", "alg2:|Q|=T", "alg2:flow>=G"];
    check(
        "Alg2",
        digest_runs(&[1], single(Alg2::new)),
        0x1952cd6152db15b0,
        &all,
    );
    check(
        "Alg2(lightest-first)",
        digest_runs(&[1], single(Alg2::lightest_first)),
        0xce5676626189c55b,
        &all,
    );
}

#[test]
fn tunable_runs_are_pinned() {
    let weight_full_flow = ["tunable:weight", "tunable:|Q|=T", "tunable:flow"];
    check(
        "Tunable(alg2)",
        digest_runs(&[1], single(|| TunableScheduler::new(Thresholds::alg2()))),
        0x6856d726d38796ee,
        &weight_full_flow,
    );
    check(
        "Tunable(alg1)",
        digest_runs(&[1], single(|| TunableScheduler::new(Thresholds::alg1()))),
        0x4c6d0e28c4ba31ae,
        &["tunable:weight", "tunable:flow", "tunable:immediate"],
    );
    // Algorithm 1's preset with its own release-order service: the flow
    // is summed over the queue as it stands.
    check(
        "Tunable(alg1, release order)",
        digest_runs(
            &[1],
            single(|| {
                let mut s = TunableScheduler::new(Thresholds::alg1());
                s.policy = PriorityPolicy::EarliestReleaseFirst;
                s
            }),
        ),
        0x5a4748ad0bf56910,
        &["tunable:weight", "tunable:flow", "tunable:immediate"],
    );
    for (factor, want) in [
        ((1, 4), 0x31c7af75b1c5128b_u64),
        ((4, 1), 0xd0d997884fe70611),
        ((3, 2), 0x56bf99654723741b),
    ] {
        let ratio = Ratio::new(factor.0, factor.1);
        check(
            &format!("Tunable(x{}/{})", factor.0, factor.1),
            digest_runs(
                &[1],
                single(|| {
                    TunableScheduler::new(Thresholds {
                        weight_factor: ratio,
                        flow_factor: ratio,
                        immediate_divisor: Some(3),
                        ..Thresholds::alg2()
                    })
                }),
            ),
            want,
            &["tunable:weight", "tunable:flow"],
        );
    }
}

#[test]
fn randomized_runs_are_pinned() {
    for (seed, want) in [(7u64, 0xd928249419038649_u64), (8, 0xe637a9ef4eeccebc)] {
        check(
            &format!("RandSkiRental({seed})"),
            digest_runs(&[1], single(|| RandomizedSkiRental::new(seed))),
            want,
            &["rand:queue>=G/T", "rand:flow>=X*G", "rand:immediate"],
        );
    }
    for (seed, want) in [(7u64, 0x924ad0b3a76e536e_u64), (8, 0x37db0422549bd30f)] {
        check(
            &format!("RandSkiRental(pure, {seed})"),
            digest_runs(&[1], single(|| RandomizedSkiRental::pure(seed))),
            want,
            &["rand:flow>=X*G"],
        );
    }
}

#[test]
fn baseline_runs_are_pinned() {
    check(
        "SkiRentalBatch",
        digest_runs(&[1], single(|| SkiRentalBatch)),
        0x5bd9542bc24a39ef,
        &["ski:flow>=G"],
    );
    check(
        "CalibrateImmediately",
        digest_runs(&[1, 2, 3], single(|| CalibrateImmediately)),
        0x854492673620462b,
        &["naive:now"],
    );
}

#[test]
fn multi_machine_runs_are_pinned() {
    check(
        "Alg3",
        digest_runs(&[1, 2, 3], single(Alg3::new)),
        0x9e5be2ca9d56c0da,
        &["alg3:queue>=G/T", "alg3:flow>=G"],
    );
    check(
        "Alg3 practical",
        digest_runs(&[1, 2, 3], run_alg3_practical),
        0x663f942682cb33e0,
        &["alg3:queue>=G/T", "alg3:flow>=G"],
    );
    let wmulti = ["wmulti:weight>=G/T", "wmulti:|Q|=T", "wmulti:flow>=G"];
    check(
        "WeightedMulti",
        digest_runs(&[1, 2, 3], single(WeightedMulti::new)),
        0xcbd5046be2971842,
        &wmulti,
    );
    check(
        "WeightedMulti practical",
        digest_runs(&[1, 2, 3], run_weighted_multi_practical),
        0x55b25e3dad94331e,
        &wmulti,
    );
}

/// Drives an `EngineSession` one release group at a time, snapshots it
/// after half the jobs, restores the snapshot and finishes the run on the
/// restored session. Returns the restored run, which must equal the batch
/// run, and the trace labels in the snapshot.
fn restored_run(
    inst: &Instance,
    g: Cost,
    make: &dyn Fn() -> Box<dyn OnlineScheduler>,
) -> (RunResult, Vec<String>) {
    let mut session =
        EngineSession::new(inst.machines(), inst.cal_len(), g, EngineConfig::default()).unwrap();
    let mut scheduler = make();
    let jobs = inst.jobs();
    let half = jobs.len() / 2;
    let mut i = 0;
    while i < half {
        let release = jobs[i].release;
        let end = i + jobs[i..].partition_point(|j| j.release == release);
        session
            .step(release, &jobs[i..end], scheduler.as_mut())
            .unwrap();
        i = end;
    }
    let snapshot = session.snapshot();
    let labels = snapshot.trace.iter().map(|(_, l)| l.clone()).collect();
    drop(session);
    let mut restored = EngineSession::restore(&snapshot, calib_core::obs::NoopProbe).unwrap();
    // The schedulers carry no state between calibrations that a fresh
    // instance would not rebuild, so a new one continues the run.
    let mut scheduler = make();
    restored.submit(&jobs[i..]).unwrap();
    restored.drain(scheduler.as_mut()).unwrap();
    let (outcome, _) = restored.finish();
    let res = RunResult {
        schedule: outcome.schedule,
        flow: outcome.flow,
        calibrations: outcome.calibrations,
        cost: outcome.cost,
        intervals: outcome.intervals,
        trace: outcome.trace,
    };
    (res, labels)
}

#[test]
fn served_algorithms_survive_a_restore_cut() {
    type Make = fn() -> Box<dyn OnlineScheduler>;
    /// Name, machine counts, scheduler, labels the cuts must carry, digest.
    type Case = (
        &'static str,
        &'static [usize],
        Make,
        &'static [&'static str],
        u64,
    );
    let cases: [Case; 3] = [
        (
            "alg1",
            &[1],
            || Box::new(Alg1::new()),
            &["alg1:queue>=G/T", "alg1:flow>=G", "alg1:immediate"],
            0x225c890beae06df3,
        ),
        (
            "alg2",
            &[1],
            || Box::new(Alg2::new()),
            &["alg2:weight>=G/T", "alg2:|Q|=T", "alg2:flow>=G"],
            0x1952cd6152db15b0,
        ),
        (
            "alg3",
            &[1, 2, 3],
            || Box::new(Alg3::new()),
            &["alg3:queue>=G/T", "alg3:flow>=G"],
            0x9e5be2ca9d56c0da,
        ),
    ];
    for (name, machines, make, fires, want) in cases {
        let mut h = Fnv::new();
        let mut cut_labels: Vec<String> = Vec::new();
        for &p in machines {
            for (inst, g) in grid(p) {
                let (res, labels) = restored_run(&inst, g, &make);
                let batch = run_online(&inst, g, make().as_mut());
                let mut a = Fnv::new();
                feed(&mut a, &res);
                let mut b = Fnv::new();
                feed(&mut b, &batch);
                assert_eq!(a.0, b.0, "{name}: the restored run left the batch run");
                feed(&mut h, &res);
                for l in labels {
                    if !cut_labels.contains(&l) {
                        cut_labels.push(l);
                    }
                }
            }
        }
        for label in fires {
            assert!(
                cut_labels.iter().any(|l| l == label),
                "{name}: no snapshot carries {label} ({cut_labels:?})"
            );
        }
        assert_eq!(
            h.0, want,
            "{name}: restored-run digest changed; got {:#018x}",
            h.0
        );
    }
}
