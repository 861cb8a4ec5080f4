//! Probe trait and built-in probes.

use super::counters::Counters;
use super::event::Event;

/// A statically-dispatched sink for engine [`Event`]s.
///
/// The engine is generic over `P: Probe` and guards every emission site with
/// `if P::ENABLED`. Because `ENABLED` is an associated *constant*, the
/// [`NoopProbe`] instantiation const-folds those guards to `false` and the
/// compiler removes the event construction entirely — the un-probed engine
/// is byte-for-byte the pre-observability engine (the `probe_overhead`
/// benchmark in `calib-bench` keeps this honest).
pub trait Probe {
    /// Whether emission sites should construct and record events at all.
    const ENABLED: bool = true;

    /// Receives one event. Called only when [`Probe::ENABLED`] is true.
    fn record(&mut self, event: &Event);
}

/// The zero-overhead default probe: records nothing, disables emission.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopProbe;

impl Probe for NoopProbe {
    const ENABLED: bool = false;

    #[inline(always)]
    fn record(&mut self, _event: &Event) {}
}

/// Buffers every event in memory, for tests and replay.
#[derive(Debug, Clone, Default)]
pub struct RecordingProbe {
    /// The captured events, in emission order.
    pub events: Vec<Event>,
}

impl RecordingProbe {
    /// An empty recording.
    pub fn new() -> Self {
        RecordingProbe::default()
    }
}

impl Probe for RecordingProbe {
    fn record(&mut self, event: &Event) {
        self.events.push(*event);
    }
}

/// Maps events onto a shared [`Counters`] registry.
#[derive(Debug)]
pub struct CountingProbe<'a> {
    counters: &'a Counters,
}

impl<'a> CountingProbe<'a> {
    /// A probe feeding the given registry.
    pub fn new(counters: &'a Counters) -> Self {
        CountingProbe { counters }
    }
}

impl Probe for CountingProbe<'_> {
    fn record(&mut self, event: &Event) {
        self.counters.record(event);
    }
}

/// A mutable reference to a probe is itself a probe, so long-lived owners
/// (e.g. an incremental `EngineSession`) can observe through a borrowed
/// sink without taking ownership.
impl<P: Probe + ?Sized> Probe for &mut P {
    const ENABLED: bool = P::ENABLED;

    fn record(&mut self, event: &Event) {
        (**self).record(event);
    }
}

/// An optional probe: `None` drops events, `Some` forwards them. Lets a
/// runtime switch (a `--trace` flag) choose between tracing and silence
/// without monomorphizing two engines.
impl<P: Probe> Probe for Option<P> {
    const ENABLED: bool = P::ENABLED;

    fn record(&mut self, event: &Event) {
        if let Some(p) = self {
            p.record(event);
        }
    }
}

/// Probe composition: `(A, B)` feeds every event to both probes. A pair is
/// enabled when either member is.
impl<A: Probe, B: Probe> Probe for (A, B) {
    const ENABLED: bool = A::ENABLED || B::ENABLED;

    fn record(&mut self, event: &Event) {
        if A::ENABLED {
            self.0.record(event);
        }
        if B::ENABLED {
            self.1.record(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{JobId, MachineId};

    fn sample_events() -> Vec<Event> {
        vec![
            Event::JobArrived {
                time: 0,
                job: JobId(0),
                weight: 1,
            },
            Event::Calibrate {
                time: 0,
                machine: MachineId(0),
                start: 0,
            },
            Event::Dispatch {
                time: 0,
                job: JobId(0),
                machine: MachineId(0),
                start: 0,
            },
            Event::TimeSkip { from: 1, to: 5 },
            Event::Wake {
                time: 5,
                reason: "scheduler",
            },
            Event::RunComplete {
                time: 5,
                flow: 1,
                calibrations: 1,
            },
        ]
    }

    #[test]
    fn noop_is_disabled() {
        // Compile-time facts; const blocks make clippy agree they're meant
        // to be constant.
        const { assert!(!NoopProbe::ENABLED) };
        const { assert!(RecordingProbe::ENABLED) };
        const { assert!(<CountingProbe<'_> as Probe>::ENABLED) };
    }

    #[test]
    fn recording_preserves_order() {
        let mut p = RecordingProbe::new();
        for e in sample_events() {
            p.record(&e);
        }
        assert_eq!(p.events, sample_events());
    }

    #[test]
    fn counting_maps_kinds() {
        let counters = Counters::new();
        let mut p = CountingProbe::new(&counters);
        for e in sample_events() {
            p.record(&e);
        }
        let s = counters.snapshot();
        assert_eq!(s.events, 6);
        assert_eq!(s.arrivals, 1);
        assert_eq!(s.calibrations, 1);
        assert_eq!(s.dispatches, 1);
        assert_eq!(s.time_skips, 1);
        assert_eq!(s.wakes, 1);
        assert_eq!(s.reservations, 0);
    }

    #[test]
    fn mut_ref_and_option_forward_and_inherit_enabled() {
        let mut inner = RecordingProbe::new();
        {
            let by_ref = &mut inner;
            for e in sample_events() {
                by_ref.record(&e);
            }
        }
        assert_eq!(inner.events.len(), 6);
        const { assert!(<&mut RecordingProbe as Probe>::ENABLED) };
        const { assert!(!<&mut NoopProbe as Probe>::ENABLED) };

        let mut some = Some(RecordingProbe::new());
        let mut none: Option<RecordingProbe> = None;
        for e in sample_events() {
            some.record(&e);
            none.record(&e);
        }
        assert_eq!(some.as_ref().map(|p| p.events.len()), Some(6));
        const { assert!(<Option<RecordingProbe> as Probe>::ENABLED) };
        const { assert!(!<Option<NoopProbe> as Probe>::ENABLED) };
    }

    #[test]
    fn pair_fans_out_and_ors_enabled() {
        let counters = Counters::new();
        let mut pair = (RecordingProbe::new(), CountingProbe::new(&counters));
        for e in sample_events() {
            pair.record(&e);
        }
        assert_eq!(pair.0.events.len(), 6);
        assert_eq!(counters.snapshot().events, 6);
        const { assert!(<(RecordingProbe, NoopProbe) as Probe>::ENABLED) };
        const { assert!(!<(NoopProbe, NoopProbe) as Probe>::ENABLED) };
    }
}
