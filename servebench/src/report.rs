//! Metric names, units, statistics and the printed result.

use calib_core::json::{Json, ToJson};

/// Every metric the benchmark can print, with its unit. `BENCHMARK.json`
/// lists a subset: the end-to-end ones for untraced runs and the per-layer
/// ones for traced runs.
pub const END_TO_END: &[(&str, &str)] = &[
    ("decisions_per_sec", "decisions/s"),
    ("latency_light_p50_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by the traced run. The `heavy` median and
/// the tail latencies are end-to-end numbers listed here because their
/// run-to-run spread is wider than any bound the benchmark may set; they
/// are printed, not gated.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("latency_heavy_p50_us", "us"),
    ("latency_light_p90_us", "us"),
    ("latency_light_p99_us", "us"),
    ("latency_heavy_p90_us", "us"),
    ("latency_heavy_p99_us", "us"),
    ("json.parse_ns_per_kib", "ns/KiB"),
    ("json.bytes_in", "bytes"),
    ("json.mean_line_bytes", "bytes"),
    ("protocol.decode_ns", "ns"),
    ("protocol.encode_ns", "ns"),
    ("protocol.reply_bytes", "bytes"),
    ("admit.ns_per_call", "ns"),
    ("admit.admit_ratio", "ratio"),
    ("admit.admitted", "count"),
    ("admit.refused", "count"),
    ("journal.append_ns", "ns"),
    ("journal.checkpoint_ns", "ns"),
    ("journal.bytes_per_record", "bytes"),
    ("journal.bytes_written", "bytes"),
    ("journal.replay_ns_per_record", "ns"),
    ("engine.step_ns_p50", "ns"),
    ("engine.step_ns_p99", "ns"),
    ("engine.ns_per_decision", "ns"),
    ("engine.queue_depth_mean", "jobs"),
    ("engine.decisions", "count"),
    ("engine.residence_share", "ratio"),
    ("engine.busy_share", "ratio"),
    ("session.overhead_ns", "ns"),
    ("checker.ns_per_drain", "ns"),
    ("server.residence_p50_us", "us"),
    ("server.residence_p99_us", "us"),
    ("server.wait_share", "ratio"),
    ("server.busy_drops", "count"),
    ("wire.overhead_p50_us", "us"),
    ("router.added_p50_us", "us"),
    ("router.migrate_ms", "ms"),
    ("router.relayed", "count"),
    ("gen.lag_p99_us", "us"),
    ("gen.requests", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("recover_ms", "ms"),
    ("failed_ratio", "ratio"),
    ("slo_miss_ratio", "ratio"),
];

/// The unit of a known metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// Linear-interpolated percentile of unsorted `values` (`q` in 0..=1).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Latency samples are cut into consecutive windows of this many samples;
/// a latency percentile is the median over windows of each window's
/// percentile, so one stall of the machine moves one window, not the run.
/// A p99 over a window has ten samples beyond it.
pub const LATENCY_WINDOW: usize = 1000;

/// `q`-percentile of each window of the concatenated `runs` (each run in
/// time order), then the median over windows. Fewer than two windows'
/// worth of samples make one window.
pub fn windowed_percentile(runs: &[&[f64]], q: f64) -> f64 {
    let all: Vec<f64> = runs.iter().flat_map(|r| r.iter().copied()).collect();
    let windows = (all.len() / LATENCY_WINDOW).max(1);
    let size = all.len().div_ceil(windows).max(1);
    let per_window: Vec<f64> = all.chunks(size).map(|w| percentile(w, q)).collect();
    percentile(&per_window, 0.5)
}

/// Mean of the values between the first and third quartile.
pub fn interquartile_mean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let (lo, hi) = (v.len() / 4, v.len() - v.len() / 4);
    mean(&v[lo..hi])
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Metric values of one run, in the order they were measured.
#[derive(Debug, Default)]
pub struct Metrics {
    values: Vec<(&'static str, f64, usize)>,
}

impl Metrics {
    /// Records `name` = `value`, measured over `samples` samples.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        debug_assert!(unit_of(name).is_some(), "unknown metric {name}");
        self.values.retain(|(n, _, _)| *n != name);
        self.values.push((name, value, samples));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|(_, v, _)| *v)
    }

    /// One human-readable line per metric: name, value, unit, samples.
    pub fn print_lines(&self, workload: &str) {
        for (name, value, samples) in &self.values {
            println!(
                "metric {workload} {name} = {value:.4} {} (n={samples})",
                unit_of(name).unwrap_or("?")
            );
        }
    }

    /// The `metrics` object of the result line: every metric of `wanted`,
    /// each with its value and unit.
    pub fn result_json(&self, wanted: &[(&'static str, &'static str)]) -> Json {
        Json::Obj(
            wanted
                .iter()
                .map(|(name, unit)| {
                    let value = self.get(name).unwrap_or(0.0);
                    (
                        name.to_string(),
                        Json::obj([("value", value.to_json()), ("unit", unit.to_json())]),
                    )
                })
                .collect(),
        )
    }
}

/// The last line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Json) -> String {
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", attempted.max(1).to_json()),
        ("failed", failed.to_json()),
        ("metrics", metrics),
    ])
    .to_string_compact()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 51.0);
        assert_eq!(percentile(&v, 0.99), 100.0);
        assert_eq!(percentile(&[3.0], 0.99), 3.0);
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
