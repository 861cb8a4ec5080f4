//! Atomic metrics registry.

use std::sync::atomic::{AtomicU64, Ordering};

use super::event::Event;
use crate::json::Json;

macro_rules! counters {
    ($($(#[$doc:meta])* $name:ident),* $(,)?) => {
        /// Shared atomic counters for one run, experiment cell, or process.
        ///
        /// All operations use relaxed ordering — the registry carries
        /// statistics, not synchronization. `&Counters` is `Sync`, so the
        /// parallel sim runner hands one registry to every worker and the
        /// totals aggregate for free. Hot loops should accumulate into a
        /// local `u64` and flush once via the per-counter `Counters`
        /// methods rather than touching the atomics per iteration.
        #[derive(Debug, Default)]
        pub struct Counters {
            $($(#[$doc])* $name: AtomicU64,)*
        }

        /// A plain-integer copy of a [`Counters`] registry at one moment.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct CounterSnapshot {
            $($(#[$doc])* pub $name: u64,)*
        }

        impl Counters {
            $(
                /// Adds `n` to this counter.
                pub fn $name(&self, n: u64) {
                    self.$name.fetch_add(n, Ordering::Relaxed);
                }
            )*

            /// Reads every counter into a plain struct.
            pub fn snapshot(&self) -> CounterSnapshot {
                CounterSnapshot {
                    $($name: self.$name.load(Ordering::Relaxed),)*
                }
            }

            /// Resets every counter to zero.
            pub fn reset(&self) {
                $(self.$name.store(0, Ordering::Relaxed);)*
            }

            /// Adds every field of `snap` onto this registry — restoring a
            /// serialized snapshot into a fresh registry, or folding one
            /// worker's totals into a shared one.
            pub fn add_snapshot(&self, snap: CounterSnapshot) {
                $(self.$name(snap.$name);)*
            }
        }

        impl CounterSnapshot {
            /// Field-wise sum of two snapshots.
            pub fn merged(self, other: CounterSnapshot) -> CounterSnapshot {
                CounterSnapshot {
                    $($name: self.$name + other.$name,)*
                }
            }

            /// JSON object with one field per counter.
            pub fn to_json(&self) -> Json {
                Json::obj([
                    $((stringify!($name), Json::UInt(self.$name as u128)),)*
                ])
            }

            /// Reads a snapshot back from [`CounterSnapshot::to_json`]
            /// output. Missing or malformed fields read as zero, so old
            /// snapshots stay loadable after new counters are added.
            pub fn from_json(v: &Json) -> CounterSnapshot {
                CounterSnapshot {
                    $($name: v.get(stringify!($name)).and_then(Json::as_u64).unwrap_or(0),)*
                }
            }
        }
    };
}

counters! {
    /// Engine events processed (all kinds).
    events,
    /// Job arrivals processed by online engines (releases reached).
    arrivals,
    /// Clock advances that jumped more than one step.
    time_skips,
    /// Calibrations issued by online algorithms.
    calibrations,
    /// Jobs dispatched onto calibrated slots.
    dispatches,
    /// Future calibrations reserved (Algorithm 2).
    reservations,
    /// Scheduler-requested wake-ups taken.
    wakes,
    /// Write-ahead journal appends observed (serve layer).
    journal_syncs,
    /// DP states evaluated by the offline solver.
    dp_states_expanded,
    /// DP states rejected by the infeasibility guard.
    dp_states_pruned,
    /// Candidate slots examined by the greedy assigner.
    assigner_slots_scanned,
    /// Simplex pivots performed by the LP solver.
    lp_pivots,
}

impl Counters {
    /// An empty registry.
    pub fn new() -> Self {
        Counters::default()
    }

    /// Counts one engine event: `events`, plus the counter of its kind.
    pub fn record(&self, event: &Event) {
        self.events(1);
        match event {
            Event::Calibrate { .. } => self.calibrations(1),
            Event::Dispatch { .. } => self.dispatches(1),
            Event::Reserve { .. } => self.reservations(1),
            Event::TimeSkip { .. } => self.time_skips(1),
            Event::Wake { .. } => self.wakes(1),
            Event::JobArrived { .. } => self.arrivals(1),
            Event::JournalSync { .. } => self.journal_syncs(1),
            Event::RunComplete { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_snapshot_reset() {
        let c = Counters::new();
        c.events(3);
        c.events(2);
        c.lp_pivots(7);
        let s = c.snapshot();
        assert_eq!(s.events, 5);
        assert_eq!(s.lp_pivots, 7);
        assert_eq!(s.dispatches, 0);
        c.reset();
        assert_eq!(c.snapshot(), CounterSnapshot::default());
    }

    #[test]
    fn merged_sums_fieldwise() {
        let a = CounterSnapshot {
            events: 1,
            dispatches: 2,
            ..Default::default()
        };
        let b = CounterSnapshot {
            events: 10,
            lp_pivots: 4,
            ..Default::default()
        };
        let m = a.merged(b);
        assert_eq!(m.events, 11);
        assert_eq!(m.dispatches, 2);
        assert_eq!(m.lp_pivots, 4);
    }

    #[test]
    fn shared_across_threads() {
        let c = Counters::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        c.events(1);
                    }
                });
            }
        });
        assert_eq!(c.snapshot().events, 4000);
    }

    #[test]
    fn json_has_one_field_per_counter() {
        let c = Counters::new();
        c.dp_states_pruned(9);
        let j = c.snapshot().to_json();
        assert_eq!(j.get("dp_states_pruned").unwrap().as_u64(), Some(9));
        assert_eq!(j.get("events").unwrap().as_u64(), Some(0));
    }

    #[test]
    fn json_round_trip_and_restore() {
        let c = Counters::new();
        c.events(17);
        c.journal_syncs(3);
        let snap = c.snapshot();
        let back = CounterSnapshot::from_json(&snap.to_json());
        assert_eq!(back, snap);

        let fresh = Counters::new();
        fresh.events(1);
        fresh.add_snapshot(back);
        assert_eq!(fresh.snapshot().events, 18);
        assert_eq!(fresh.snapshot().journal_syncs, 3);

        // Unknown shapes degrade to zero rather than erroring.
        let empty = CounterSnapshot::from_json(&Json::obj([]));
        assert_eq!(empty, CounterSnapshot::default());
    }
}
