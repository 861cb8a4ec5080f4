//! The engine's packed, append-only session history.
//!
//! The schedulers decide from the waiting queue and the most recent
//! calibration only, but an [`EngineSession`](crate::EngineSession)'s
//! snapshots, schedules and outcome report the whole session. Everything
//! those need that the schedulers do not — each calibration, trace label
//! and job start — is appended here when it is made, as a tagged record
//! of LEB128 varints:
//!
//! * times and job ids are zigzag-encoded *wrapping* deltas against the
//!   previous record, so every `i64`, `u64` and `u32` value round-trips
//!   exactly and a typical record takes one byte per field;
//! * a start's slot is stored relative to its job's release (the wait),
//!   and its interval relative to the calibration count at that point;
//! * trace labels are indices into a per-log table of the `&'static str`s
//!   seen so far.
//!
//! The log lives in memory only — it is never written to disk or to the
//! wire, so its encoding is free to change. Readers replay it from the
//! start; the encoder and decoder advance identical [`Prev`] states.

use calib_core::{Assignment, Calibration, Job, JobId, MachineId, Time};

use crate::engine::IntervalRecord;

/// Record tags.
const CALIBRATION: u8 = 0;
const TRACE: u8 = 1;
const START: u8 = 2;

/// One job start as the log records it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Start {
    /// The job that started.
    pub job: Job,
    /// Its slot.
    pub slot: Time,
    /// Its machine.
    pub machine: MachineId,
    /// Index (in calibration order) of the interval it ran in, if any.
    pub interval: Option<usize>,
}

impl Start {
    pub(crate) fn assignment(&self) -> Assignment {
        Assignment::new(self.job.id, self.slot, self.machine)
    }
}

/// One decoded log entry.
pub(crate) enum Entry {
    Calibration(Calibration),
    Trace(Time, &'static str),
    Start(Start),
}

/// The running values deltas are taken against.
#[derive(Debug, Clone, Copy, Default)]
struct Prev {
    /// Time of the last calibration or trace entry.
    time: Time,
    /// Id of the last started job.
    job: u32,
    /// Release of the last started job.
    release: Time,
    /// Calibrations recorded so far.
    calibrations: usize,
}

/// The packed history log. See the module docs for the encoding.
#[derive(Debug, Clone, Default)]
pub(crate) struct History {
    bytes: Vec<u8>,
    labels: Vec<&'static str>,
    prev: Prev,
    starts: usize,
}

impl History {
    /// Calibrations recorded so far.
    pub(crate) fn calibrations(&self) -> usize {
        self.prev.calibrations
    }

    /// Job starts recorded so far.
    pub(crate) fn starts(&self) -> usize {
        self.starts
    }

    /// Appends a calibration.
    pub(crate) fn push_calibration(&mut self, cal: Calibration) {
        self.bytes.push(CALIBRATION);
        put_u64(&mut self.bytes, u64::from(cal.machine.0));
        self.put_time(cal.start);
        self.prev.calibrations += 1;
    }

    /// Appends a trace entry.
    pub(crate) fn push_trace(&mut self, time: Time, label: &'static str) {
        self.bytes.push(TRACE);
        self.put_time(time);
        let index = match self.labels.iter().position(|&l| l == label) {
            Some(i) => i,
            None => {
                self.labels.push(label);
                self.labels.len() - 1
            }
        };
        put_u64(&mut self.bytes, u64::try_from(index).unwrap_or(0));
    }

    /// Appends a job start. Its interval, if any, must already be
    /// recorded.
    pub(crate) fn push_start(&mut self, start: &Start) {
        debug_assert!(start.interval.is_none_or(|i| i < self.prev.calibrations));
        let Start {
            job,
            slot,
            machine,
            interval,
        } = *start;
        self.bytes.push(START);
        let id_delta = job.id.0.wrapping_sub(self.prev.job).cast_signed();
        put_i64(&mut self.bytes, i64::from(id_delta));
        put_i64(&mut self.bytes, job.release.wrapping_sub(self.prev.release));
        put_u64(&mut self.bytes, job.weight);
        put_i64(&mut self.bytes, slot.wrapping_sub(job.release));
        put_u64(&mut self.bytes, u64::from(machine.0));
        // 0 is "no interval"; otherwise the distance back from the
        // calibration count, which is at least 1.
        let back = interval.map_or(0, |i| self.prev.calibrations.wrapping_sub(i));
        put_u64(&mut self.bytes, u64::try_from(back).unwrap_or(0));
        self.prev.job = job.id.0;
        self.prev.release = job.release;
        self.starts += 1;
    }

    /// Releases spare capacity — for a session about to sit idle.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.bytes.shrink_to_fit();
        self.labels.shrink_to_fit();
    }

    /// Calls `f` on every entry, in the order recorded.
    pub(crate) fn replay(&self, mut f: impl FnMut(Entry)) {
        let mut r = Reader {
            bytes: &self.bytes,
            pos: 0,
        };
        let mut prev = Prev::default();
        while let Some(tag) = r.byte() {
            match tag {
                CALIBRATION => {
                    let machine = MachineId(low_u32(r.u64()));
                    let start = prev.time.wrapping_add(r.i64());
                    prev.time = start;
                    prev.calibrations += 1;
                    f(Entry::Calibration(Calibration { machine, start }));
                }
                TRACE => {
                    let time = prev.time.wrapping_add(r.i64());
                    prev.time = time;
                    let label = usize::try_from(r.u64())
                        .ok()
                        .and_then(|i| self.labels.get(i))
                        .copied()
                        .unwrap_or("calibrate");
                    f(Entry::Trace(time, label));
                }
                _ /* START */ => {
                    let id = JobId(prev.job.wrapping_add(low_u32(r.i64().cast_unsigned())));
                    let release = prev.release.wrapping_add(r.i64());
                    let weight = r.u64();
                    let slot = release.wrapping_add(r.i64());
                    let machine = MachineId(low_u32(r.u64()));
                    let back = usize::try_from(r.u64()).unwrap_or(0);
                    let interval = (back != 0).then(|| prev.calibrations.wrapping_sub(back));
                    prev.job = id.0;
                    prev.release = release;
                    f(Entry::Start(Start {
                        job: Job {
                            id,
                            release,
                            weight,
                        },
                        slot,
                        machine,
                        interval,
                    }));
                }
            }
        }
    }

    /// The whole log, decoded.
    pub(crate) fn replay_all(&self) -> Replayed {
        let mut out = Replayed {
            calibrations: Vec::with_capacity(self.calibrations()),
            trace: Vec::with_capacity(self.calibrations()),
            starts: Vec::with_capacity(self.starts),
        };
        self.replay(|entry| match entry {
            Entry::Calibration(c) => out.calibrations.push(c),
            Entry::Trace(t, label) => out.trace.push((t, label)),
            Entry::Start(s) => out.starts.push(s),
        });
        out
    }

    fn put_time(&mut self, time: Time) {
        put_i64(&mut self.bytes, time.wrapping_sub(self.prev.time));
        self.prev.time = time;
    }
}

/// A fully decoded history.
pub(crate) struct Replayed {
    /// Every calibration, in decision order.
    pub calibrations: Vec<Calibration>,
    /// Every trace entry, in order.
    pub trace: Vec<(Time, &'static str)>,
    /// Every job start, in materialization order.
    pub starts: Vec<Start>,
}

impl Replayed {
    /// Every start as a schedule assignment.
    pub(crate) fn assignments(&self) -> Vec<Assignment> {
        self.starts.iter().map(Start::assignment).collect()
    }

    /// One record per calibration, each with the jobs that ran in it.
    pub(crate) fn intervals(&self) -> Vec<IntervalRecord> {
        let mut out: Vec<IntervalRecord> = self
            .calibrations
            .iter()
            .map(|c| IntervalRecord {
                machine: c.machine,
                start: c.start,
                jobs: Vec::new(),
            })
            .collect();
        for s in &self.starts {
            if let Some(iv) = s.interval.and_then(|i| out.get_mut(i)) {
                iv.jobs.push((s.job, s.slot));
            }
        }
        out
    }
}

/// A cursor over the log's bytes. The log is written only by
/// [`History`], so a read past the end cannot happen; it would decode as
/// zeros rather than panic.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn byte(&mut self) -> Option<u8> {
        let b = self.bytes.get(self.pos).copied()?;
        self.pos += 1;
        Some(b)
    }

    fn u64(&mut self) -> u64 {
        let mut v = 0u64;
        let mut shift = 0u32;
        while let Some(b) = self.byte() {
            if shift < 64 {
                v |= u64::from(b & 0x7f) << shift;
            }
            if b & 0x80 == 0 {
                break;
            }
            shift += 7;
        }
        v
    }

    fn i64(&mut self) -> i64 {
        let z = self.u64();
        (z >> 1).cast_signed() ^ (z & 1).cast_signed().wrapping_neg()
    }
}

fn put_u64(bytes: &mut Vec<u8>, mut v: u64) {
    loop {
        let low = v.to_le_bytes()[0] & 0x7f;
        v >>= 7;
        if v == 0 {
            bytes.push(low);
            return;
        }
        bytes.push(low | 0x80);
    }
}

fn put_i64(bytes: &mut Vec<u8>, v: i64) {
    put_u64(bytes, ((v << 1) ^ (v >> 63)).cast_unsigned());
}

/// The low 32 bits of `v`.
fn low_u32(v: u64) -> u32 {
    let b = v.to_le_bytes();
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn start(id: u32, release: Time, weight: u64, slot: Time, interval: Option<usize>) -> Start {
        Start {
            job: Job {
                id: JobId(id),
                release,
                weight,
            },
            slot,
            machine: MachineId(id % 3),
            interval,
        }
    }

    /// Extreme values and wrapping deltas round-trip exactly, and each
    /// entry kind keeps its own order.
    #[test]
    fn entries_round_trip_exactly() {
        let cals = [(0, Time::MIN), (u32::MAX, Time::MAX), (2, -5)].map(|(m, start)| Calibration {
            machine: MachineId(m),
            start,
        });
        let starts = [
            start(u32::MAX, Time::MAX, u64::MAX, Time::MIN, Some(0)),
            start(0, Time::MIN, 0, Time::MAX, None),
            start(7, 3, 9, 4, Some(2)),
            start(6, 3, 1, 5, Some(1)),
        ];
        let mut h = History::default();
        h.push_calibration(cals[0]);
        h.push_trace(Time::MIN, "alg1:queue");
        h.push_calibration(cals[1]);
        h.push_start(&starts[0]);
        h.push_trace(42, "odd");
        h.push_calibration(cals[2]);
        h.push_trace(-5, "alg1:queue");
        for s in &starts[1..] {
            h.push_start(s);
        }
        assert_eq!((h.calibrations(), h.starts()), (3, 4));

        let r = h.replay_all();
        assert_eq!(r.calibrations, cals);
        assert_eq!(
            r.trace,
            vec![(Time::MIN, "alg1:queue"), (42, "odd"), (-5, "alg1:queue")]
        );
        assert_eq!(r.starts, starts);
        let intervals = r.intervals();
        assert_eq!(intervals[0].jobs, vec![(starts[0].job, Time::MIN)]);
        assert_eq!(intervals[1].jobs, vec![(starts[3].job, 5)]);
        assert_eq!(intervals[2].jobs, vec![(starts[2].job, 4)]);
    }

    /// A typical start costs a handful of bytes.
    #[test]
    fn typical_records_are_small() {
        let mut h = History::default();
        for i in 0..100u32 {
            let cal = Calibration {
                machine: MachineId(0),
                start: Time::from(i) * 10,
            };
            h.push_calibration(cal);
            h.push_trace(cal.start, "alg1:queue");
            for k in 0..10u32 {
                let id = i * 10 + k;
                let release = Time::from(id);
                h.push_start(&start(
                    id,
                    release,
                    1,
                    release + 3,
                    Some(usize::try_from(i).unwrap()),
                ));
            }
        }
        assert!(
            h.bytes.len() <= 100 * 5 + 1_000 * 8,
            "{} bytes",
            h.bytes.len()
        );
    }
}
