//! The differential oracle: every implementation checked against every
//! other on the same instance.
//!
//! The relations asserted are exactly the paper's:
//!
//! * **Feasibility** — every produced schedule passes
//!   [`calib_core::check_schedule`], and every [`RunResult`]'s cost fields
//!   are mutually consistent (`cost = G·C + flow`).
//! * **DP vs brute force** — the `O(K n³)` dynamic program (Propositions
//!   1–2) agrees with the Lemma 4.2 subset brute force on every budget, and
//!   with the assumption-free exhaustive search on tiny instances.
//! * **Competitive ratios** — Algorithm 1 stays within 3× OPT
//!   (Theorem 3.3), Algorithms 2 and 3 within 12× (Theorems 3.8 and 3.10),
//!   with OPT computed exactly (the penalized DP on one machine, calibration
//!   multiset brute force on several).
//! * **Penalized OPT vs budget sweep** — `opt_online_cost` equals
//!   `min_K G·K + F(K, n)` over the DP's budget curve, field for field.
//! * **Assigner invariants** — Observation 2.1's greedy assignment is
//!   optimal for a fixed calibration set (checked against branch-and-bound
//!   on small instances), never worse than the engine's own materialization
//!   of the same calibrations, and invariant under job-id permutation.
//! * **Session history** — an [`EngineSession`] stepped one release group
//!   at a time, snapshotted and restored at a seeded cut, reports the same
//!   decisions, schedule, trace, interval flows and jobs as the batch run.
//!
//! Brute-force references are exponential, so each is gated behind explicit
//! size bounds; the [`Oracle`] runs every check whose gate admits the case.

use std::panic::{catch_unwind, AssertUnwindSafe};

use calib_core::obs::NoopProbe;
use calib_core::{
    assign_greedy_with_policy, check_schedule, Cost, Instance, Job, JobId, PriorityPolicy, Schedule,
};
use calib_offline::{
    opt_online_brute_multi, opt_online_cost, optimal_assignment_exhaustive, optimal_flow_brute,
    optimal_flow_exhaustive, DpTable, OfflineError, OnlineOpt,
};
use calib_online::{
    run_alg3_practical, run_online, run_weighted_multi_practical, Alg1, Alg2, Alg3,
    CalibrateImmediately, Decisions, EngineConfig, EngineSession, OnlineScheduler, RunResult,
    SkiRentalBatch, WeightedMulti,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::gen::TestCase;

/// The individual relations the oracle asserts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Check {
    /// An online run produced an infeasible schedule (or panicked).
    OnlineFeasible,
    /// `RunResult { cost, flow, calibrations }` disagrees with its schedule.
    CostAccounting,
    /// DP flow differs from the Lemma 4.2 subset brute force.
    DpMatchesBrute,
    /// DP flow differs from the assumption-free exhaustive optimum.
    DpMatchesExhaustive,
    /// A reconstructed DP schedule is infeasible or mis-costed.
    DpScheduleConsistent,
    /// `F(k, n)` increased when the budget grew.
    DpBudgetMonotone,
    /// `opt_online_cost` differs from `min_K G·K + F(K, n)`, its smallest
    /// minimizing `K`, or that `K`'s flow.
    OptMatchesSweep,
    /// Algorithm 1 exceeded 3× OPT (Theorem 3.3).
    RatioAlg1,
    /// Algorithm 2 exceeded 12× OPT (Theorem 3.8).
    RatioAlg2,
    /// Algorithm 3 exceeded 12× OPT (Theorem 3.10).
    RatioAlg3,
    /// Greedy assignment is infeasible over a calibration set that the
    /// engine proved sufficient.
    AssignerFeasible,
    /// Greedy assignment costs more than the exhaustive optimal assignment
    /// (Observation 2.1 violated).
    AssignerOptimal,
    /// Greedy re-assignment cost exceeds the engine's own assignment of the
    /// same calibrations.
    AssignerNotWorseThanEngine,
    /// Assignment cost changed under a job-id permutation.
    AssignerPermutationInvariant,
    /// An incrementally stepped, snapshotted and restored session disagrees
    /// with the batch run of the same scheduler.
    SessionHistory,
}

impl Check {
    /// Stable kebab-case label, used in replay files and reports.
    pub fn code(&self) -> &'static str {
        match self {
            Check::OnlineFeasible => "online-feasible",
            Check::CostAccounting => "cost-accounting",
            Check::DpMatchesBrute => "dp-matches-brute",
            Check::DpMatchesExhaustive => "dp-matches-exhaustive",
            Check::DpScheduleConsistent => "dp-schedule-consistent",
            Check::DpBudgetMonotone => "dp-budget-monotone",
            Check::OptMatchesSweep => "opt-matches-budget-sweep",
            Check::RatioAlg1 => "ratio-alg1",
            Check::RatioAlg2 => "ratio-alg2",
            Check::RatioAlg3 => "ratio-alg3",
            Check::AssignerFeasible => "assigner-feasible",
            Check::AssignerOptimal => "assigner-optimal",
            Check::AssignerNotWorseThanEngine => "assigner-not-worse-than-engine",
            Check::AssignerPermutationInvariant => "assigner-permutation-invariant",
            Check::SessionHistory => "session-history",
        }
    }

    /// Inverse of [`Check::code`].
    pub fn from_code(code: &str) -> Option<Check> {
        ALL_CHECKS.iter().copied().find(|c| c.code() == code)
    }
}

/// Every check, for code round-trips and reporting.
pub const ALL_CHECKS: &[Check] = &[
    Check::OnlineFeasible,
    Check::CostAccounting,
    Check::DpMatchesBrute,
    Check::DpMatchesExhaustive,
    Check::DpScheduleConsistent,
    Check::DpBudgetMonotone,
    Check::OptMatchesSweep,
    Check::RatioAlg1,
    Check::RatioAlg2,
    Check::RatioAlg3,
    Check::AssignerFeasible,
    Check::AssignerOptimal,
    Check::AssignerNotWorseThanEngine,
    Check::AssignerPermutationInvariant,
    Check::SessionHistory,
];

impl std::fmt::Display for Check {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.code())
    }
}

/// One violated relation on one instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OracleFailure {
    /// Which relation broke.
    pub check: Check,
    /// Human-readable specifics (costs, violation lists, panic payloads).
    pub detail: String,
}

impl std::fmt::Display for OracleFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.check, self.detail)
    }
}

/// Deliberate implementation faults, injected to prove the oracle (and the
/// shrinker behind it) actually catch what they claim to catch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Fault {
    /// No fault: the shipped implementations as they are.
    #[default]
    None,
    /// The classic assigner bug: the last materialized job lands one slot
    /// later than chosen — off the end of its calibrated interval, onto an
    /// occupied slot, or simply one step of avoidable flow.
    AssignerOffByOne,
}

impl Fault {
    /// Parses the CLI spelling (`off-by-one`).
    pub fn from_cli(s: &str) -> Option<Fault> {
        match s {
            "none" => Some(Fault::None),
            "off-by-one" => Some(Fault::AssignerOffByOne),
            _ => None,
        }
    }
}

/// The configured oracle. `Default` is the honest one; tests inject faults.
#[derive(Debug, Clone, Copy, Default)]
pub struct Oracle {
    /// Fault to inject into the assigner paths under the oracle's control.
    pub fault: Fault,
}

impl Oracle {
    /// An oracle with a deliberately broken assigner.
    pub fn with_fault(fault: Fault) -> Self {
        Oracle { fault }
    }

    /// Runs every admitted check on `case`, returning all violations found.
    pub fn check(&self, case: &TestCase) -> Vec<OracleFailure> {
        let mut failures = Vec::new();
        let inst = &case.instance;
        let g = case.cal_cost;

        let runs = self.online_runs(inst, g, &mut failures);
        for (name, result) in &runs {
            if let Err(detail) = session_history(inst, g, name, result) {
                failures.push(OracleFailure {
                    check: Check::SessionHistory,
                    detail: format!("{name}: {detail}"),
                });
            }
        }
        if inst.machines() == 1 {
            // The DP and the ratios read one normalized instance and its OPT,
            // so the DP's OPT and the online runs see the same input.
            let norm = inst.normalized();
            let opt = opt_online_cost(&norm, g);
            self.offline_checks(&norm, g, &opt, &mut failures);
            self.ratio_checks(&norm, g, &opt, &mut failures);
        } else {
            self.multi_ratio_checks(inst, g, &mut failures);
        }
        if let Some((name, result)) = runs.first() {
            self.assigner_checks(inst, name, result, &mut failures);
        }
        failures
    }

    /// The greedy assigner as seen by the oracle's own checks, with the
    /// configured fault applied on top.
    fn assign(
        &self,
        instance: &Instance,
        times: &[i64],
    ) -> Result<Schedule, calib_core::InsufficientCalibrations> {
        let mut sched =
            assign_greedy_with_policy(instance, times, PriorityPolicy::HighestWeightFirst)?;
        if self.fault == Fault::AssignerOffByOne {
            if let Some(a) = sched.assignments.last_mut() {
                a.start += 1;
            }
        }
        Ok(sched)
    }

    /// Runs every applicable online algorithm, checking feasibility and cost
    /// accounting. Returns the successful runs for downstream checks.
    fn online_runs(
        &self,
        inst: &Instance,
        g: Cost,
        failures: &mut Vec<OracleFailure>,
    ) -> Vec<(&'static str, RunResult)> {
        let single = inst.machines() == 1;
        let unweighted = inst.is_unweighted();

        let mut runs: Vec<(&'static str, RunResult)> = Vec::new();
        let mut run = |name: &'static str, f: &mut dyn FnMut() -> RunResult| {
            // The engine validates its own output and panics on violations;
            // the oracle converts that panic into a reported failure so the
            // shrinker can minimize the instance behind it.
            match catch_unwind(AssertUnwindSafe(f)) {
                Ok(res) => runs.push((name, res)),
                Err(payload) => failures.push(OracleFailure {
                    check: Check::OnlineFeasible,
                    detail: format!("{name}: engine panicked: {}", panic_text(payload)),
                }),
            }
        };

        run("calibrate-immediately", &mut || {
            run_online(inst, g, &mut CalibrateImmediately)
        });
        if single {
            run("ski-rental-batch", &mut || {
                run_online(inst, g, &mut SkiRentalBatch)
            });
            if unweighted {
                run("alg1", &mut || run_online(inst, g, &mut Alg1::new()));
            }
            run("alg2", &mut || run_online(inst, g, &mut Alg2::new()));
        }
        if unweighted {
            run("alg3", &mut || run_online(inst, g, &mut Alg3::new()));
            run("alg3-practical", &mut || run_alg3_practical(inst, g));
        }
        run("weighted-multi", &mut || {
            run_online(inst, g, &mut WeightedMulti::new())
        });
        run("weighted-multi-practical", &mut || {
            run_weighted_multi_practical(inst, g)
        });

        for (name, res) in &runs {
            if let Err(e) = check_schedule(inst, &res.schedule) {
                failures.push(OracleFailure {
                    check: Check::OnlineFeasible,
                    detail: format!("{name}: {e}"),
                });
            }
            let flow = res.schedule.total_weighted_flow(inst);
            let cals = res.schedule.calibration_count();
            if res.flow != flow || res.calibrations != cals || res.cost != g * cals as Cost + flow {
                failures.push(OracleFailure {
                    check: Check::CostAccounting,
                    detail: format!(
                        "{name}: reported flow={} cals={} cost={}, schedule says flow={flow} \
                         cals={cals} (G={g})",
                        res.flow, res.calibrations, res.cost
                    ),
                });
            }
        }
        runs
    }

    /// DP vs brute force vs exhaustive, plus DP-internal consistency, on
    /// the normalized single-machine instance.
    fn offline_checks(
        &self,
        norm: &Instance,
        g: Cost,
        opt: &Result<OnlineOpt, OfflineError>,
        failures: &mut Vec<OracleFailure>,
    ) {
        let n = norm.n();

        // One table answers every budget: F(k, n) must be non-increasing in
        // k and agree with the Lemma 4.2 brute force wherever the latter is
        // tractable.
        let mut table = match DpTable::new(norm, n) {
            Ok(t) => t,
            Err(e) => {
                failures.push(OracleFailure {
                    check: Check::DpScheduleConsistent,
                    detail: format!("DpTable refused normalized instance: {e}"),
                });
                return;
            }
        };
        let flows = table.flows();
        // `prev` carries the last *feasible* budget and its flow, so the
        // failure message names the index the value actually came from even
        // when intermediate budgets are infeasible (None).
        let mut prev: Option<(usize, Cost)> = None;
        for (k, flow) in flows.iter().enumerate() {
            if let (Some((pk, p)), Some(f)) = (prev, *flow) {
                if f > p {
                    failures.push(OracleFailure {
                        check: Check::DpBudgetMonotone,
                        detail: format!("F({pk},n)={p} but F({k},n)={f}"),
                    });
                }
            }
            prev = flow.map(|f| (k, f)).or(prev);
        }

        // The penalized recurrence must reproduce the budget sweep in all
        // three fields, ties going to the smallest budget.
        let sweep = flows
            .iter()
            .enumerate()
            .filter_map(|(k, flow)| {
                let flow = (*flow)?;
                Some((g * Cost::try_from(k).ok()? + flow, k, flow))
            })
            .min();
        let opt = opt.as_ref().map(|o| (o.cost, o.calibrations, o.flow));
        if opt.as_ref().ok() != sweep.as_ref() {
            failures.push(OracleFailure {
                check: Check::OptMatchesSweep,
                detail: format!(
                    "G={g}: opt_online_cost (cost, calibrations, flow) = {opt:?}, \
                     budget sweep = {sweep:?}"
                ),
            });
        }

        let brute_ok = n <= 9;
        for k in 0..=n {
            let dp = table.solution(k);
            if let Some(sol) = &dp {
                if let Err(e) = check_schedule(norm, &sol.schedule) {
                    failures.push(OracleFailure {
                        check: Check::DpScheduleConsistent,
                        detail: format!("budget {k}: reconstructed schedule infeasible: {e}"),
                    });
                }
                let sched_flow = sol.schedule.total_weighted_flow(norm);
                if sched_flow != sol.flow {
                    failures.push(OracleFailure {
                        check: Check::DpScheduleConsistent,
                        detail: format!(
                            "budget {k}: DP flow {} but reconstructed schedule costs {sched_flow}",
                            sol.flow
                        ),
                    });
                }
            }
            if brute_ok {
                let brute = optimal_flow_brute(norm, k);
                match (&dp, &brute) {
                    (Some(sol), Some((bf, _))) if sol.flow != *bf => {
                        failures.push(OracleFailure {
                            check: Check::DpMatchesBrute,
                            detail: format!("budget {k}: DP={} brute={bf}", sol.flow),
                        });
                    }
                    (Some(sol), None) => failures.push(OracleFailure {
                        check: Check::DpMatchesBrute,
                        detail: format!("budget {k}: DP feasible ({}) but brute is not", sol.flow),
                    }),
                    (None, Some((bf, _))) => failures.push(OracleFailure {
                        check: Check::DpMatchesBrute,
                        detail: format!("budget {k}: brute feasible ({bf}) but DP is not"),
                    }),
                    _ => {}
                }
            }
        }

        // Lemma 4.2 itself: on tiny windows, restricting interval starts to
        // `{r_j + 1 - T}` loses nothing against the exhaustive search.
        let window = match (norm.min_release(), norm.max_release()) {
            (Some(lo), Some(hi)) => (hi + n as i64) - (lo + 1 - norm.cal_len()) + 1,
            _ => 0,
        };
        if n <= 4 && window <= 12 {
            for k in 0..=2.min(n) {
                let brute = optimal_flow_brute(norm, k).map(|(f, _)| f);
                let exhaustive = optimal_flow_exhaustive(norm, k).map(|(f, _)| f);
                if brute != exhaustive {
                    failures.push(OracleFailure {
                        check: Check::DpMatchesExhaustive,
                        detail: format!(
                            "budget {k}: Lemma 4.2 brute {brute:?} vs exhaustive {exhaustive:?}"
                        ),
                    });
                }
            }
        }
    }

    /// Competitive-ratio checks against the exact single-machine OPT of
    /// the normalized instance.
    fn ratio_checks(
        &self,
        norm: &Instance,
        g: Cost,
        opt: &Result<OnlineOpt, OfflineError>,
        failures: &mut Vec<OracleFailure>,
    ) {
        let opt = match opt {
            Ok(o) => o,
            Err(e) => {
                failures.push(OracleFailure {
                    check: Check::DpScheduleConsistent,
                    detail: format!("opt_online_cost refused normalized instance: {e}"),
                });
                return;
            }
        };
        let ratio = |name: &'static str,
                     check: Check,
                     bound: Cost,
                     sched: &mut dyn OnlineScheduler,
                     failures: &mut Vec<OracleFailure>| {
            let res = match catch_unwind(AssertUnwindSafe(|| run_online(norm, g, sched))) {
                Ok(res) => res,
                Err(payload) => {
                    failures.push(OracleFailure {
                        check: Check::OnlineFeasible,
                        detail: format!(
                            "{name} (normalized): engine panicked: {}",
                            panic_text(payload)
                        ),
                    });
                    return;
                }
            };
            if res.cost > bound * opt.cost {
                failures.push(OracleFailure {
                    check,
                    detail: format!(
                        "{name}: cost {} > {bound} x OPT {} (G={g})",
                        res.cost, opt.cost
                    ),
                });
            }
        };
        if norm.is_unweighted() {
            ratio("alg1", Check::RatioAlg1, 3, &mut Alg1::new(), failures);
            ratio("alg3", Check::RatioAlg3, 12, &mut Alg3::new(), failures);
        }
        ratio("alg2", Check::RatioAlg2, 12, &mut Alg2::new(), failures);
    }

    /// Algorithm 3's ratio on several machines, against the calibration
    /// multiset brute force on tiny unweighted instances.
    fn multi_ratio_checks(&self, inst: &Instance, g: Cost, failures: &mut Vec<OracleFailure>) {
        if !inst.is_unweighted() || inst.n() > 5 {
            return;
        }
        let window = match (inst.min_release(), inst.max_release()) {
            (Some(lo), Some(hi)) => (hi + inst.n() as i64) - (lo + 1 - inst.cal_len()) + 1,
            _ => 0,
        };
        if window > 10 {
            return;
        }
        let Some((opt_cost, _)) = opt_online_brute_multi(inst, g, inst.n()) else {
            return;
        };
        let res = match catch_unwind(AssertUnwindSafe(|| run_online(inst, g, &mut Alg3::new()))) {
            Ok(res) => res,
            Err(_) => return, // already reported by online_runs
        };
        if res.cost > 12 * opt_cost {
            failures.push(OracleFailure {
                check: Check::RatioAlg3,
                detail: format!(
                    "alg3 on P={}: cost {} > 12 x OPT {opt_cost} (G={g})",
                    inst.machines(),
                    res.cost
                ),
            });
        }
    }

    /// Observation 2.1 checks over a calibration set the engine proved
    /// sufficient: feasibility, optimality, improvement over the engine's
    /// own assignment, and invariance under job-id permutation.
    fn assigner_checks(
        &self,
        inst: &Instance,
        run_name: &str,
        run: &RunResult,
        failures: &mut Vec<OracleFailure>,
    ) {
        let times = run.schedule.calibration_times();
        let sched = match self.assign(inst, &times) {
            Ok(s) => s,
            Err(e) => {
                failures.push(OracleFailure {
                    check: Check::AssignerFeasible,
                    detail: format!(
                        "greedy failed over {run_name}'s {} calibrations: {e}",
                        times.len()
                    ),
                });
                return;
            }
        };
        if let Err(e) = check_schedule(inst, &sched) {
            failures.push(OracleFailure {
                check: Check::AssignerFeasible,
                detail: format!("greedy over {run_name}'s calibrations: {e}"),
            });
            return;
        }
        let flow = sched.total_weighted_flow(inst);
        if flow > run.flow {
            failures.push(OracleFailure {
                check: Check::AssignerNotWorseThanEngine,
                detail: format!(
                    "greedy flow {flow} > {run_name}'s own flow {} on the same calibrations",
                    run.flow
                ),
            });
        }

        // Exhaustive optimality (Observation 2.1), gated by slot count.
        let slot_count = times.len() as i64 * inst.cal_len();
        if inst.n() <= 6 && slot_count <= 12 {
            if let Some(best) = optimal_assignment_exhaustive(inst, &times) {
                if flow != best {
                    failures.push(OracleFailure {
                        check: Check::AssignerOptimal,
                        detail: format!(
                            "greedy flow {flow} vs exhaustive optimal {best} over {} calibrations",
                            times.len()
                        ),
                    });
                }
            }
        }

        // Permutation invariance: relabel ids, same cost profile.
        let n = inst.n();
        if n >= 2 {
            let mut ids: Vec<JobId> = inst.jobs().iter().map(|j| j.id).collect();
            ids.sort();
            let mut perms: Vec<Vec<JobId>> = Vec::new();
            let mut rev = ids.clone();
            rev.reverse();
            perms.push(rev);
            let mut rot = ids.clone();
            rot.rotate_left(1);
            perms.push(rot);
            let mut shuffled = ids.clone();
            let mut rng = StdRng::seed_from_u64(0x5487_11e5 ^ n as u64);
            for i in (1..shuffled.len()).rev() {
                shuffled.swap(i, rng.gen_range(0..=i));
            }
            perms.push(shuffled);

            let mut starts: Vec<i64> = sched.assignments.iter().map(|a| a.start).collect();
            starts.sort_unstable();
            for perm in perms {
                let relabeled = match inst.with_permuted_ids(&perm) {
                    Ok(r) => r,
                    Err(e) => {
                        failures.push(OracleFailure {
                            check: Check::AssignerPermutationInvariant,
                            detail: format!("relabeling failed: {e}"),
                        });
                        continue;
                    }
                };
                match self.assign(&relabeled, &times) {
                    Ok(ps) => {
                        let pflow = ps.total_weighted_flow(&relabeled);
                        let mut pstarts: Vec<i64> =
                            ps.assignments.iter().map(|a| a.start).collect();
                        pstarts.sort_unstable();
                        if pflow != flow || pstarts != starts {
                            failures.push(OracleFailure {
                                check: Check::AssignerPermutationInvariant,
                                detail: format!(
                                    "flow {flow} / starts {starts:?} became {pflow} / {pstarts:?} \
                                     under id permutation {perm:?}"
                                ),
                            });
                        }
                    }
                    Err(e) => failures.push(OracleFailure {
                        check: Check::AssignerPermutationInvariant,
                        detail: format!("greedy infeasible after id permutation: {e}"),
                    }),
                }
            }
        }
    }
}

/// A fresh instance of the engine-driven scheduler `online_runs` names
/// `name`; `None` for the re-assigning variants, which are not one engine
/// run.
fn scheduler_for(name: &str) -> Option<Box<dyn OnlineScheduler>> {
    Some(match name {
        "calibrate-immediately" => Box::new(CalibrateImmediately),
        "ski-rental-batch" => Box::new(SkiRentalBatch),
        "alg1" => Box::new(Alg1::new()),
        "alg2" => Box::new(Alg2::new()),
        "alg3" => Box::new(Alg3::new()),
        "weighted-multi" => Box::new(WeightedMulti::new()),
        _ => return None,
    })
}

/// The `session-history` check for one batch run: steps an
/// [`EngineSession`] one release group at a time, snapshots it at a
/// seeded cut, restores it (re-snapshotting must give an equal snapshot)
/// and drains the restored session with a fresh scheduler. The streamed
/// deltas, `schedule_snapshot()`, `finish()`'s trace and interval flows,
/// and `submitted_jobs()` must all match the batch run and the instance.
fn session_history(inst: &Instance, g: Cost, name: &str, batch: &RunResult) -> Result<(), String> {
    let Some(mut scheduler) = scheduler_for(name) else {
        return Ok(());
    };
    let mut session =
        EngineSession::new(inst.machines(), inst.cal_len(), g, EngineConfig::default())
            .map_err(|e| e.to_string())?;
    let groups: Vec<&[Job]> = inst
        .jobs()
        .chunk_by(|a, b| a.release == b.release)
        .collect();
    let cut = StdRng::seed_from_u64(0x5e55_1047 ^ inst.n() as u64).gen_range(0..=groups.len());
    let mut streamed = Decisions::default();
    for i in 0..=groups.len() {
        if i == cut {
            let snapshot = session.snapshot();
            session = EngineSession::restore(&snapshot, NoopProbe)
                .map_err(|e| format!("restore at group {cut}: {e}"))?;
            if session.snapshot() != snapshot {
                return Err(format!("re-snapshot after restore at group {cut} differs"));
            }
            scheduler = scheduler_for(name).ok_or("no scheduler")?;
        }
        let delta = match groups.get(i) {
            Some(group) => session.step(group[0].release, group, scheduler.as_mut()),
            None => session.drain(scheduler.as_mut()),
        }
        .map_err(|e| e.to_string())?;
        streamed.calibrations.extend(delta.calibrations);
        streamed.starts.extend(delta.starts);
    }
    if streamed.calibrations != batch.schedule.calibrations
        || streamed.starts != batch.schedule.assignments
    {
        return Err("streamed decisions differ from the batch schedule".into());
    }
    if session.schedule_snapshot() != batch.schedule {
        return Err("schedule_snapshot() differs from the batch schedule".into());
    }
    if session.submitted_jobs() != inst.jobs() {
        return Err("submitted_jobs() differs from the instance's jobs".into());
    }
    let (outcome, _) = session.finish();
    if outcome.trace != batch.trace {
        return Err(format!(
            "trace {:?} differs from the batch trace {:?}",
            outcome.trace, batch.trace
        ));
    }
    let interval_flow =
        |r: &[calib_online::IntervalRecord]| -> Cost { r.iter().map(|iv| iv.total_flow()).sum() };
    let (got, want) = (
        interval_flow(&outcome.intervals),
        interval_flow(&batch.intervals),
    );
    if outcome.intervals.len() != batch.intervals.len() || got != want {
        return Err(format!(
            "{} intervals with flow {got}, batch has {} with flow {want}",
            outcome.intervals.len(),
            batch.intervals.len()
        ));
    }
    Ok(())
}

/// Renders a `catch_unwind` payload.
fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic>".into()
    }
}
