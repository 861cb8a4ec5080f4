//! The engine's duplicate-id set: every job id a session has accepted, kept
//! as sorted, disjoint inclusive runs of ids.
//!
//! Every in-repo client numbers a session's jobs 0, 1, 2, …, so a session's
//! ids are one run and the set costs a few bytes however many jobs it
//! holds. Ids with gaps cost one 8-byte run each. Lookup is a binary
//! search; the next id in sequence extends the last run in place, while an
//! id inserted before the last run shifts the runs after it.

use calib_core::JobId;

/// A set of job ids as sorted, disjoint, non-adjacent inclusive runs.
#[derive(Debug, Clone, Default)]
pub(crate) struct IdRuns {
    /// `(first, last)` pairs, sorted; between two runs at least one id is
    /// missing.
    runs: Vec<(u32, u32)>,
    /// Ids in the set.
    len: usize,
}

impl IdRuns {
    /// The set of `ids`, built in one pass after sorting them.
    pub(crate) fn from_ids(mut ids: Vec<u32>) -> IdRuns {
        ids.sort_unstable();
        ids.dedup();
        let mut set = IdRuns {
            runs: Vec::new(),
            len: ids.len(),
        };
        for id in ids {
            match set.runs.last_mut() {
                Some(last) if last.1.checked_add(1) == Some(id) => last.1 = id,
                _ => set.runs.push((id, id)),
            }
        }
        set
    }

    /// Number of ids in the set.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Index of the first run that ends at or after `id`.
    fn run_at(&self, id: u32) -> usize {
        self.runs.partition_point(|&(_, last)| last < id)
    }

    /// Whether `id` is in the set.
    pub(crate) fn contains(&self, id: JobId) -> bool {
        self.runs
            .get(self.run_at(id.0))
            .is_some_and(|&(first, _)| first <= id.0)
    }

    /// Adds `id`; returns `false` if it was already present.
    pub(crate) fn insert(&mut self, id: JobId) -> bool {
        let id = id.0;
        let i = self.run_at(id);
        let next = self.runs.get(i).copied();
        if next.is_some_and(|(first, _)| first <= id) {
            return false;
        }
        // Every run before `i` ends below `id` and `next` starts above it,
        // so neither `+ 1` below can overflow.
        let joins_prev = i > 0 && self.runs[i - 1].1 + 1 == id;
        match (joins_prev, next.filter(|&(first, _)| id + 1 == first)) {
            (true, Some((_, last))) => {
                self.runs[i - 1].1 = last;
                self.runs.remove(i);
            }
            (true, None) => self.runs[i - 1].1 = id,
            (false, Some(_)) => self.runs[i].0 = id,
            (false, None) => self.runs.insert(i, (id, id)),
        }
        self.len += 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    fn runs_are_canonical(set: &IdRuns) -> bool {
        set.runs.iter().all(|&(first, last)| first <= last)
            && set
                .runs
                .windows(2)
                .all(|w| u64::from(w[0].1) + 1 < u64::from(w[1].0))
            && set
                .runs
                .iter()
                .map(|&(first, last)| u64::from(last - first) + 1)
                .sum::<u64>()
                == u64::try_from(set.len).unwrap()
    }

    #[test]
    fn sequential_ids_are_one_run() {
        let mut set = IdRuns::default();
        for id in 0..1000 {
            assert!(set.insert(JobId(id)));
        }
        assert_eq!(set.runs, vec![(0, 999)]);
        assert_eq!(set.len(), 1000);
        assert!(!set.insert(JobId(500)));
        assert!(set.contains(JobId(0)) && set.contains(JobId(999)));
        assert!(!set.contains(JobId(1000)));
    }

    #[test]
    fn gaps_merge_and_extremes_do_not_overflow() {
        let mut set = IdRuns::default();
        for id in [u32::MAX, 0, 4, 2, u32::MAX - 1, 3, 1] {
            assert!(set.insert(JobId(id)));
            assert!(runs_are_canonical(&set));
        }
        assert_eq!(set.runs, vec![(0, 4), (u32::MAX - 1, u32::MAX)]);
        assert!(!set.contains(JobId(5)));
        assert!(!set.insert(JobId(u32::MAX)));
        let rebuilt = IdRuns::from_ids(vec![3, u32::MAX, 1, 0, 4, u32::MAX - 1, 2]);
        assert_eq!(rebuilt.runs, set.runs);
        assert_eq!(rebuilt.len(), 7);
    }

    proptest! {
        /// Any insertion order gives the answers a `HashSet` gives, keeps
        /// the runs canonical, and matches the set rebuilt by `from_ids`.
        #[test]
        fn matches_a_hash_set(ids in prop::collection::vec(0u32..64, 0..120)) {
            let mut set = IdRuns::default();
            let mut model = HashSet::new();
            for &id in &ids {
                prop_assert_eq!(set.insert(JobId(id)), model.insert(id));
                prop_assert_eq!(set.len(), model.len());
                prop_assert!(runs_are_canonical(&set));
            }
            for probe in 0u32..66 {
                prop_assert_eq!(set.contains(JobId(probe)), model.contains(&probe));
            }
            let rebuilt = IdRuns::from_ids(ids.clone());
            prop_assert_eq!(&rebuilt.runs, &set.runs);
            prop_assert_eq!(rebuilt.len(), set.len());
        }
    }
}
