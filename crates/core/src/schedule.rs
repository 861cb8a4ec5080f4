//! Schedules and exact cost accounting.

use crate::calibration::Calibration;
use crate::instance::Instance;
use crate::types::{Cost, JobId, MachineId, Time};

/// One job placed at one time step on one machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Assignment {
    /// The job being run.
    pub job: JobId,
    /// The time step it occupies (completing at `start + 1`).
    pub start: Time,
    /// The machine it runs on.
    pub machine: MachineId,
}

impl Assignment {
    /// Convenience constructor.
    pub fn new(job: JobId, start: Time, machine: MachineId) -> Self {
        Assignment {
            job,
            start,
            machine,
        }
    }
}

/// A complete schedule: calibration times per machine plus a job-to-slot
/// assignment (Section 2 of the paper).
///
/// Construction does not validate anything; run
/// [`check_schedule`](crate::checker::check_schedule) to verify correctness
/// against an [`Instance`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Schedule {
    /// Every calibration performed, in no particular order.
    pub calibrations: Vec<Calibration>,
    /// Every job placement, in no particular order.
    pub assignments: Vec<Assignment>,
}

impl Schedule {
    /// Assembles a schedule from its two parts (unvalidated).
    pub fn new(calibrations: Vec<Calibration>, assignments: Vec<Assignment>) -> Self {
        Schedule {
            calibrations,
            assignments,
        }
    }

    /// Number of calibrations performed.
    #[inline]
    pub fn calibration_count(&self) -> usize {
        self.calibrations.len()
    }

    /// Start time of a given job, if assigned.
    pub fn start_of(&self, job: JobId) -> Option<Time> {
        self.assignments
            .iter()
            .find(|a| a.job == job)
            .map(|a| a.start)
    }

    /// Total weighted flow `Σ_j w_j (t_j + 1 - r_j)`.
    ///
    /// Panics if an assignment references a job absent from the instance;
    /// unassigned jobs contribute nothing (the checker flags them).
    pub fn total_weighted_flow(&self, instance: &Instance) -> Cost {
        let by_id = instance.jobs_by_id();
        self.assignments
            .iter()
            .map(|a| {
                let job = by_id
                    .get(&a.job)
                    .unwrap_or_else(|| panic!("assignment references unknown job {}", a.job));
                job.flow_if_started(a.start)
            })
            .sum()
    }

    /// The online objective: `G * (#calibrations) + total weighted flow`.
    pub fn online_cost(&self, instance: &Instance, cal_cost: Cost) -> Cost {
        cal_cost * self.calibration_count() as Cost + self.total_weighted_flow(instance)
    }

    /// Largest completion time over all assignments (`None` when empty).
    pub fn makespan(&self) -> Option<Time> {
        self.assignments.iter().map(|a| a.start + 1).max()
    }

    /// Jobs scheduled within the interval of the given calibration, i.e. in
    /// `[c.start, c.start + T)` on `c.machine`. Note that with overlapping
    /// calibrations on one machine a job can fall in several intervals; the
    /// online engine never produces overlaps on one machine.
    pub fn jobs_in_interval(&self, c: Calibration, cal_len: Time) -> Vec<Assignment> {
        self.assignments
            .iter()
            .copied()
            .filter(|a| a.machine == c.machine && c.covers(a.start, cal_len))
            .collect()
    }

    /// Assignments sorted by `(start, machine)` — a convenient canonical
    /// order for comparisons and display.
    pub fn sorted_assignments(&self) -> Vec<Assignment> {
        let mut v = self.assignments.clone();
        v.sort_by_key(|a| (a.start, a.machine, a.job));
        v
    }

    /// All calibration start times, sorted (machine identities dropped).
    /// Useful when re-assigning with Observation 2.1.
    pub fn calibration_times(&self) -> Vec<Time> {
        let mut t: Vec<Time> = self.calibrations.iter().map(|c| c.start).collect();
        t.sort_unstable();
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceBuilder;
    use crate::job::Job;

    fn two_job_instance() -> Instance {
        InstanceBuilder::new(3).job(0, 2).job(1, 5).build().unwrap()
    }

    #[test]
    fn flow_and_online_cost() {
        let inst = two_job_instance();
        let sched = Schedule::new(
            vec![Calibration::new(0, 0)],
            vec![
                Assignment::new(JobId(0), 0, MachineId(0)),
                Assignment::new(JobId(1), 1, MachineId(0)),
            ],
        );
        // j0: w=2, flow 1 -> 2. j1: w=5, started at release -> 5.
        assert_eq!(sched.total_weighted_flow(&inst), 7);
        assert_eq!(sched.online_cost(&inst, 10), 17);
        assert_eq!(sched.makespan(), Some(2));
        assert_eq!(sched.calibration_count(), 1);
    }

    #[test]
    fn start_of_and_interval_membership() {
        let inst = two_job_instance();
        let c = Calibration::new(0, 0);
        let sched = Schedule::new(
            vec![c],
            vec![
                Assignment::new(JobId(0), 0, MachineId(0)),
                Assignment::new(JobId(1), 5, MachineId(0)),
            ],
        );
        assert_eq!(sched.start_of(JobId(0)), Some(0));
        assert_eq!(sched.start_of(JobId(7)), None);
        let inside = sched.jobs_in_interval(c, inst.cal_len());
        assert_eq!(inside.len(), 1);
        assert_eq!(inside[0].job, JobId(0));
    }

    #[test]
    fn flow_sum_matches_per_assignment_lookups_for_shuffled_ids() {
        // Ids run against release order, and assignments are listed in a
        // third order, so an index keyed by position would misprice jobs.
        let jobs: Vec<Job> = (0u32..50)
            .map(|i| Job::new((i * 7) % 50, i64::from(i) * 2, u64::from(i % 5 + 1)))
            .collect();
        let inst = Instance::new(jobs, 1, 4).unwrap();
        let assignments: Vec<Assignment> = (0u32..50)
            .map(|i| {
                let job = inst.jobs()[usize::try_from((i * 13) % 50).unwrap()];
                Assignment::new(job.id, job.release + i64::from(i % 3), MachineId(0))
            })
            .collect();
        let per_assignment: Cost = assignments
            .iter()
            .map(|a| inst.job(a.job).unwrap().flow_if_started(a.start))
            .sum();
        let sched = Schedule::new(vec![], assignments);
        assert_eq!(sched.total_weighted_flow(&inst), per_assignment);
    }

    #[test]
    #[should_panic(expected = "assignment references unknown job")]
    fn flow_sum_panics_on_unknown_job() {
        let sched = Schedule::new(vec![], vec![Assignment::new(JobId(9), 0, MachineId(0))]);
        sched.total_weighted_flow(&two_job_instance());
    }

    #[test]
    fn empty_schedule() {
        let sched = Schedule::default();
        let inst = InstanceBuilder::new(2).build().unwrap();
        assert_eq!(sched.total_weighted_flow(&inst), 0);
        assert_eq!(sched.makespan(), None);
        assert_eq!(sched.online_cost(&inst, 100), 0);
    }

    #[test]
    fn calibration_times_sorted() {
        let sched = Schedule::new(vec![Calibration::new(1, 9), Calibration::new(0, 2)], vec![]);
        assert_eq!(sched.calibration_times(), vec![2, 9]);
    }
}
