//! Full feasibility checker for schedules.
//!
//! Encodes every correctness rule from Section 2 of the paper:
//! 1. each job is assigned exactly once;
//! 2. a job never starts before its release time;
//! 3. at most one job per time step on any machine;
//! 4. jobs run only in calibrated time steps;
//! 5. assignments reference known jobs and machines.
//!
//! The checker is deliberately independent of the assigner and the solvers —
//! it recomputes calibrated coverage from scratch — so it can serve as the
//! trusted oracle in differential and property tests.

use std::collections::HashMap;

use crate::calibration::coverage_by_machine;
use crate::instance::Instance;
use crate::schedule::Schedule;
use crate::types::{JobId, MachineId, Time};

/// A single rule violation found by [`check_schedule`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// A job from the instance never appears in the assignments.
    JobUnassigned(JobId),
    /// A job appears in more than one assignment.
    JobAssignedTwice(JobId),
    /// An assignment references a job id not in the instance.
    UnknownJob(JobId),
    /// An assignment or calibration references machine `P` or beyond.
    UnknownMachine(MachineId),
    /// `start < release`.
    StartedBeforeRelease {
        /// The offending job.
        job: JobId,
        /// Its assigned start.
        start: Time,
        /// Its release time.
        release: Time,
    },
    /// Two assignments share a `(machine, time)` slot.
    SlotConflict {
        /// The machine with the collision.
        machine: MachineId,
        /// The doubly-used time step.
        time: Time,
        /// The two colliding jobs.
        jobs: (JobId, JobId),
    },
    /// A job runs in a slot not covered by any calibration on its machine.
    UncalibratedSlot {
        /// The offending job.
        job: JobId,
        /// The machine it was placed on.
        machine: MachineId,
        /// The uncalibrated time step.
        time: Time,
    },
}

impl Violation {
    /// A short stable label for the violation class — used by differential
    /// tests and replay files, where `Display` output is too instance-
    /// specific to key on.
    pub fn code(&self) -> &'static str {
        match self {
            Violation::JobUnassigned(_) => "job-unassigned",
            Violation::JobAssignedTwice(_) => "job-assigned-twice",
            Violation::UnknownJob(_) => "unknown-job",
            Violation::UnknownMachine(_) => "unknown-machine",
            Violation::StartedBeforeRelease { .. } => "started-before-release",
            Violation::SlotConflict { .. } => "slot-conflict",
            Violation::UncalibratedSlot { .. } => "uncalibrated-slot",
        }
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::JobUnassigned(j) => write!(f, "{j} is never scheduled"),
            Violation::JobAssignedTwice(j) => write!(f, "{j} is scheduled more than once"),
            Violation::UnknownJob(j) => write!(f, "assignment references unknown {j}"),
            Violation::UnknownMachine(m) => write!(f, "reference to unknown {m}"),
            Violation::StartedBeforeRelease {
                job,
                start,
                release,
            } => {
                write!(f, "{job} starts at {start} before its release {release}")
            }
            Violation::SlotConflict {
                machine,
                time,
                jobs,
            } => {
                write!(
                    f,
                    "{} and {} both run on {machine} at {time}",
                    jobs.0, jobs.1
                )
            }
            Violation::UncalibratedSlot { job, machine, time } => {
                write!(f, "{job} runs on {machine} at uncalibrated step {time}")
            }
        }
    }
}

/// Error wrapper listing every violation found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckError {
    /// Every violation found (the checker does not stop at the first).
    pub violations: Vec<Violation>,
}

impl std::fmt::Display for CheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "schedule has {} violation(s):", self.violations.len())?;
        for v in &self.violations {
            writeln!(f, "  - {v}")?;
        }
        Ok(())
    }
}

impl std::error::Error for CheckError {}

/// Checks `schedule` against `instance`, returning all violations at once
/// (not just the first) so test failures are informative.
pub fn check_schedule(instance: &Instance, schedule: &Schedule) -> Result<(), CheckError> {
    let mut violations = Vec::new();
    let p = instance.machines();

    for c in &schedule.calibrations {
        if c.machine.index() >= p {
            violations.push(Violation::UnknownMachine(c.machine));
        }
    }

    // Coverage per machine (ignore out-of-range machines; already reported).
    let valid_cals: Vec<_> = schedule
        .calibrations
        .iter()
        .copied()
        .filter(|c| c.machine.index() < p)
        .collect();
    let coverage = coverage_by_machine(&valid_cals, p, instance.cal_len());

    // Assignment-level rules.
    let by_id = instance.jobs_by_id();
    let mut seen: HashMap<JobId, u32> = HashMap::new();
    let mut slots: HashMap<(MachineId, Time), JobId> = HashMap::new();
    for a in &schedule.assignments {
        *seen.entry(a.job).or_insert(0) += 1;
        let job = match by_id.get(&a.job) {
            Some(j) => j,
            None => {
                violations.push(Violation::UnknownJob(a.job));
                continue;
            }
        };
        if a.machine.index() >= p {
            violations.push(Violation::UnknownMachine(a.machine));
            continue;
        }
        if a.start < job.release {
            violations.push(Violation::StartedBeforeRelease {
                job: a.job,
                start: a.start,
                release: job.release,
            });
        }
        if let Some(&other) = slots.get(&(a.machine, a.start)) {
            violations.push(Violation::SlotConflict {
                machine: a.machine,
                time: a.start,
                jobs: (other, a.job),
            });
        } else {
            slots.insert((a.machine, a.start), a.job);
        }
        if !coverage[a.machine.index()].covers(a.start) {
            violations.push(Violation::UncalibratedSlot {
                job: a.job,
                machine: a.machine,
                time: a.start,
            });
        }
    }

    for job in instance.jobs() {
        match seen.get(&job.id) {
            None => violations.push(Violation::JobUnassigned(job.id)),
            Some(&k) if k > 1 => violations.push(Violation::JobAssignedTwice(job.id)),
            _ => {}
        }
    }

    if violations.is_empty() {
        Ok(())
    } else {
        Err(CheckError { violations })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration::Calibration;
    use crate::instance::InstanceBuilder;
    use crate::schedule::Assignment;

    fn inst() -> Instance {
        InstanceBuilder::new(3).unit_jobs([0, 1]).build().unwrap()
    }

    fn ok_schedule() -> Schedule {
        Schedule::new(
            vec![Calibration::new(0, 0)],
            vec![
                Assignment::new(JobId(0), 0, MachineId(0)),
                Assignment::new(JobId(1), 1, MachineId(0)),
            ],
        )
    }

    #[test]
    fn accepts_valid_schedule() {
        assert!(check_schedule(&inst(), &ok_schedule()).is_ok());
    }

    #[test]
    fn detects_unassigned_job() {
        let mut s = ok_schedule();
        s.assignments.pop();
        let err = check_schedule(&inst(), &s).unwrap_err();
        assert_eq!(err.violations, vec![Violation::JobUnassigned(JobId(1))]);
    }

    #[test]
    fn detects_double_assignment_and_slot_conflict() {
        let mut s = ok_schedule();
        s.assignments
            .push(Assignment::new(JobId(0), 1, MachineId(0)));
        let err = check_schedule(&inst(), &s).unwrap_err();
        assert!(err
            .violations
            .iter()
            .any(|v| matches!(v, Violation::SlotConflict { .. })));
        assert!(err
            .violations
            .contains(&Violation::JobAssignedTwice(JobId(0))));
    }

    #[test]
    fn detects_early_start() {
        let s = Schedule::new(
            vec![Calibration::new(0, 0)],
            vec![
                Assignment::new(JobId(0), 0, MachineId(0)),
                Assignment::new(JobId(1), 0, MachineId(0)),
            ],
        );
        // j1 released at 1 but started at 0 (also a slot conflict).
        let err = check_schedule(&inst(), &s).unwrap_err();
        assert!(err
            .violations
            .iter()
            .any(|v| matches!(v, Violation::StartedBeforeRelease { job: JobId(1), .. })));
    }

    #[test]
    fn detects_uncalibrated_slot() {
        let s = Schedule::new(
            vec![Calibration::new(0, 0)],
            vec![
                Assignment::new(JobId(0), 0, MachineId(0)),
                Assignment::new(JobId(1), 5, MachineId(0)), // T=3, coverage [0,3)
            ],
        );
        let err = check_schedule(&inst(), &s).unwrap_err();
        assert!(err
            .violations
            .iter()
            .any(|v| matches!(v, Violation::UncalibratedSlot { time: 5, .. })));
    }

    #[test]
    fn detects_unknown_ids() {
        let s = Schedule::new(
            vec![Calibration::new(5, 0)],
            vec![
                Assignment::new(JobId(0), 0, MachineId(0)),
                Assignment::new(JobId(1), 1, MachineId(0)),
                Assignment::new(JobId(42), 2, MachineId(0)),
            ],
        );
        let err = check_schedule(&inst(), &s).unwrap_err();
        assert!(err.violations.contains(&Violation::UnknownJob(JobId(42))));
        assert!(err
            .violations
            .contains(&Violation::UnknownMachine(MachineId(5))));
    }

    #[test]
    fn violation_codes_are_stable_and_distinct() {
        let vs = [
            Violation::JobUnassigned(JobId(0)),
            Violation::JobAssignedTwice(JobId(0)),
            Violation::UnknownJob(JobId(0)),
            Violation::UnknownMachine(MachineId(0)),
            Violation::StartedBeforeRelease {
                job: JobId(0),
                start: 0,
                release: 1,
            },
            Violation::SlotConflict {
                machine: MachineId(0),
                time: 0,
                jobs: (JobId(0), JobId(1)),
            },
            Violation::UncalibratedSlot {
                job: JobId(0),
                machine: MachineId(0),
                time: 0,
            },
        ];
        let mut codes: Vec<&str> = vs.iter().map(|v| v.code()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), vs.len(), "codes must be distinct");
    }

    #[test]
    fn overlapping_calibrations_merge_coverage() {
        // Two overlapping calibrations on one machine: slots [0,5) with T=3.
        let inst = InstanceBuilder::new(3)
            .unit_jobs([0, 1, 2, 3, 4])
            .build()
            .unwrap();
        let s = Schedule::new(
            vec![Calibration::new(0, 0), Calibration::new(0, 2)],
            (0u32..5)
                .map(|t| Assignment::new(JobId(t), i64::from(t), MachineId(0)))
                .collect(),
        );
        assert!(check_schedule(&inst, &s).is_ok());
    }
}
