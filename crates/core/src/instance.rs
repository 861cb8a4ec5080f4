//! Problem instances: a job set plus machine count and calibration length.

use std::collections::HashMap;

use crate::job::{normalize_releases, sort_jobs, Job};
use crate::types::{Cost, JobId, Time, Weight};

/// A scheduling-with-calibrations instance.
///
/// * `jobs` — unit jobs, kept sorted by `(release, id)`;
/// * `machines` — `P`, the number of identical machines;
/// * `cal_len` — `T`, the number of time steps a calibration stays valid.
///
/// The calibration *cost* `G` (online setting) and the calibration *budget*
/// `K` (offline setting) are not part of the instance; they parameterize the
/// objective and are passed to solvers separately.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Instance {
    jobs: Vec<Job>,
    machines: usize,
    cal_len: Time,
}

/// Errors produced when constructing an [`Instance`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InstanceError {
    /// `T < 1`. (The paper assumes `T >= 2`; we additionally allow the
    /// degenerate `T = 1`, which Theorem 3.10 treats as a corner case.)
    CalibrationLengthTooShort(Time),
    /// `P < 1`.
    NoMachines,
    /// `P > u32::MAX`: machine indices must fit a
    /// [`MachineId`](crate::types::MachineId).
    TooManyMachines(usize),
    /// Two jobs share an id.
    DuplicateJobId(JobId),
}

impl std::fmt::Display for InstanceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InstanceError::CalibrationLengthTooShort(t) => {
                write!(f, "calibration length T={t} must be >= 1")
            }
            InstanceError::NoMachines => write!(f, "instance needs at least one machine"),
            InstanceError::TooManyMachines(p) => {
                write!(f, "P={p} machines cannot be indexed by u32 machine ids")
            }
            InstanceError::DuplicateJobId(id) => write!(f, "duplicate job id {id}"),
        }
    }
}

impl std::error::Error for InstanceError {}

impl Instance {
    /// Builds an instance, sorting jobs by `(release, id)`.
    ///
    /// Jobs are *not* normalized here; call [`Instance::normalized`] when a
    /// solver requires footnote-1 normalization (at most `P` jobs per release
    /// time).
    pub fn new(mut jobs: Vec<Job>, machines: usize, cal_len: Time) -> Result<Self, InstanceError> {
        if cal_len < 1 {
            return Err(InstanceError::CalibrationLengthTooShort(cal_len));
        }
        if machines < 1 {
            return Err(InstanceError::NoMachines);
        }
        // Machine indices must round-trip through `MachineId(u32)`, so the
        // cast-free `MachineId::from_index` is total for valid instances.
        if u32::try_from(machines).is_err() {
            return Err(InstanceError::TooManyMachines(machines));
        }
        sort_jobs(&mut jobs);
        let mut ids: Vec<JobId> = jobs.iter().map(|j| j.id).collect();
        ids.sort();
        for w in ids.windows(2) {
            if w[0] == w[1] {
                return Err(InstanceError::DuplicateJobId(w[0]));
            }
        }
        Ok(Instance {
            jobs,
            machines,
            cal_len,
        })
    }

    /// Single-machine instance (the setting of Algorithms 1, 2 and Section 4).
    pub fn single_machine(jobs: Vec<Job>, cal_len: Time) -> Result<Self, InstanceError> {
        Instance::new(jobs, 1, cal_len)
    }

    /// The jobs, sorted by `(release, id)`.
    #[inline]
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// Number of jobs `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.jobs.len()
    }

    /// Number of machines `P`.
    #[inline]
    pub fn machines(&self) -> usize {
        self.machines
    }

    /// Calibration length `T`.
    #[inline]
    pub fn cal_len(&self) -> Time {
        self.cal_len
    }

    /// Looks up a job by id. `O(n)`; fine for checking and tests.
    pub fn job(&self, id: JobId) -> Option<&Job> {
        self.jobs.iter().find(|j| j.id == id)
    }

    /// Every job keyed by its id (ids are unique). Build it once where
    /// each of many assignments looks its job up: one [`Instance::job`]
    /// per assignment is quadratic.
    pub fn jobs_by_id(&self) -> HashMap<JobId, &Job> {
        self.jobs.iter().map(|j| (j.id, j)).collect()
    }

    /// Earliest release time (`None` when there are no jobs).
    pub fn min_release(&self) -> Option<Time> {
        self.jobs.first().map(|j| j.release)
    }

    /// Latest release time.
    pub fn max_release(&self) -> Option<Time> {
        self.jobs.iter().map(|j| j.release).max()
    }

    /// Sum of all weights.
    pub fn total_weight(&self) -> Cost {
        self.jobs.iter().map(|j| j.weight as Cost).sum()
    }

    /// True when every job has weight 1 (the setting of Algorithms 1 and 3).
    pub fn is_unweighted(&self) -> bool {
        self.jobs.iter().all(|j| j.weight == 1)
    }

    /// An inclusive upper bound on any time step a reasonable schedule uses:
    /// every job fits by `max_release + n + T`. Used to size LPs and to bound
    /// exhaustive searches.
    pub fn horizon(&self) -> Time {
        match self.max_release() {
            None => 0,
            Some(r) => r + self.jobs.len() as Time + self.cal_len,
        }
    }

    /// Footnote-1 normalization: returns an equivalent instance with at most
    /// `P` jobs per release time (for `P = 1`, all releases distinct).
    pub fn normalized(&self) -> Instance {
        Instance {
            jobs: normalize_releases(self.jobs.clone(), self.machines),
            machines: self.machines,
            cal_len: self.cal_len,
        }
    }

    /// The same instance with job ids relabeled through `perm`: the job with
    /// the `i`-th smallest id takes `perm[i]` as its new id. `perm` must be a
    /// permutation of the current id set (checked).
    ///
    /// Observation 2.1 makes the greedy assigner's *cost* a function of the
    /// job multiset `{(release, weight)}` alone, so any solver output on a
    /// relabeled instance must match the original up to ids — the invariant
    /// the differential tests exercise with this helper.
    pub fn with_permuted_ids(&self, perm: &[JobId]) -> Result<Instance, InstanceError> {
        assert_eq!(
            perm.len(),
            self.jobs.len(),
            "permutation arity must match the job count"
        );
        let mut by_id = self.jobs.clone();
        by_id.sort_by_key(|j| j.id);
        let jobs: Vec<Job> = by_id
            .into_iter()
            .zip(perm)
            .map(|(j, &id)| Job {
                id,
                release: j.release,
                weight: j.weight,
            })
            .collect();
        // `Instance::new` re-sorts and rejects duplicate ids, so a non-
        // permutation surfaces as `DuplicateJobId`.
        Instance::new(jobs, self.machines, self.cal_len)
    }

    /// True if no release time is shared by more than `P` jobs.
    pub fn is_normalized(&self) -> bool {
        let mut i = 0;
        while i < self.jobs.len() {
            let r = self.jobs[i].release;
            let mut k = i;
            while k < self.jobs.len() && self.jobs[k].release == r {
                k += 1;
            }
            if k - i > self.machines {
                return false;
            }
            i = k;
        }
        true
    }
}

/// Fluent builder for instances, convenient in tests and examples.
///
/// ```
/// use calib_core::InstanceBuilder;
/// let inst = InstanceBuilder::new(5) // T = 5
///     .machines(2)
///     .job(0, 1) // release 0, weight 1
///     .job(3, 4)
///     .build()
///     .unwrap();
/// assert_eq!(inst.n(), 2);
/// assert_eq!(inst.machines(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct InstanceBuilder {
    jobs: Vec<Job>,
    machines: usize,
    cal_len: Time,
    next_id: u32,
}

impl InstanceBuilder {
    /// Starts a single-machine builder with calibration length `T`.
    pub fn new(cal_len: Time) -> Self {
        InstanceBuilder {
            jobs: Vec::new(),
            machines: 1,
            cal_len,
            next_id: 0,
        }
    }

    /// Sets the machine count `P`.
    pub fn machines(mut self, machines: usize) -> Self {
        self.machines = machines;
        self
    }

    /// Adds a job with the next free id.
    pub fn job(mut self, release: Time, weight: Weight) -> Self {
        self.jobs.push(Job::new(self.next_id, release, weight));
        self.next_id += 1;
        self
    }

    /// Adds a unit-weight job.
    pub fn unit_job(self, release: Time) -> Self {
        self.job(release, 1)
    }

    /// Adds unit jobs at each given release time.
    pub fn unit_jobs<I: IntoIterator<Item = Time>>(mut self, releases: I) -> Self {
        for r in releases {
            self = self.unit_job(r);
        }
        self
    }

    /// Finishes the build.
    pub fn build(self) -> Result<Instance, InstanceError> {
        Instance::new(self.jobs, self.machines, self.cal_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_assigns_sequential_ids() {
        let inst = InstanceBuilder::new(3)
            .unit_jobs([4, 0, 2])
            .build()
            .unwrap();
        // Sorted by release.
        let rs: Vec<Time> = inst.jobs().iter().map(|j| j.release).collect();
        assert_eq!(rs, vec![0, 2, 4]);
        assert_eq!(inst.n(), 3);
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(Instance::new(vec![], 1, 0).is_err());
        assert!(Instance::new(vec![], 0, 2).is_err());
        let dup = vec![Job::new(0, 0, 1), Job::new(0, 1, 1)];
        assert!(matches!(
            Instance::new(dup, 1, 2),
            Err(InstanceError::DuplicateJobId(_))
        ));
    }

    #[test]
    fn horizon_bounds_everything() {
        let inst = InstanceBuilder::new(4).unit_jobs([0, 10]).build().unwrap();
        assert_eq!(inst.horizon(), 10 + 2 + 4);
        let empty = InstanceBuilder::new(4).build().unwrap();
        assert_eq!(empty.horizon(), 0);
    }

    #[test]
    fn normalization_status() {
        let inst = InstanceBuilder::new(2).unit_jobs([0, 0]).build().unwrap();
        assert!(!inst.is_normalized());
        let norm = inst.normalized();
        assert!(norm.is_normalized());
        assert_eq!(norm.n(), 2);
        assert_eq!(norm.machines(), 1);
    }

    #[test]
    fn accessors() {
        let inst = InstanceBuilder::new(3).job(0, 2).job(5, 7).build().unwrap();
        assert_eq!(inst.min_release(), Some(0));
        assert_eq!(inst.max_release(), Some(5));
        assert_eq!(inst.total_weight(), 9);
        assert!(!inst.is_unweighted());
        assert!(inst.job(JobId(1)).is_some());
        assert!(inst.job(JobId(9)).is_none());
    }

    #[test]
    fn permuted_ids_keep_release_weight_multiset() {
        let inst = InstanceBuilder::new(3)
            .job(0, 2)
            .job(0, 5)
            .job(4, 1)
            .build()
            .unwrap();
        let perm = [JobId(2), JobId(0), JobId(1)];
        let p = inst.with_permuted_ids(&perm).unwrap();
        assert_eq!(p.n(), 3);
        // Multiset of (release, weight) is untouched; ids moved.
        let mut orig: Vec<_> = inst.jobs().iter().map(|j| (j.release, j.weight)).collect();
        let mut perm_rw: Vec<_> = p.jobs().iter().map(|j| (j.release, j.weight)).collect();
        orig.sort();
        perm_rw.sort();
        assert_eq!(orig, perm_rw);
        // Old id 0 (release 0, weight 2) is now id 2.
        let j = p.job(JobId(2)).unwrap();
        assert_eq!((j.release, j.weight), (0, 2));
        // A non-permutation is rejected.
        assert!(matches!(
            inst.with_permuted_ids(&[JobId(0), JobId(0), JobId(1)]),
            Err(InstanceError::DuplicateJobId(_))
        ));
    }

    #[test]
    fn json_round_trip() {
        use crate::json::{FromJson, Json, ToJson};
        let inst = InstanceBuilder::new(3)
            .machines(2)
            .job(0, 2)
            .job(5, 7)
            .build()
            .unwrap();
        let json = inst.to_json().to_string_compact();
        let back = Instance::from_json(&Json::parse(&json).unwrap()).unwrap();
        assert_eq!(back, inst);
    }
}
