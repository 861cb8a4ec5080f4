//! `BENCHMARK.json` agrees with the metrics and workloads the driver
//! prints, and every metric goes out with its unit.

use calib_core::json::Json;
use calib_servebench::config::workloads;
use calib_servebench::report::{Metrics, END_TO_END, PER_LAYER};

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn listed(key: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("no `{key}` list"))
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn metric_names_are_well_formed_and_match_the_driver() {
    for (name, unit) in listed("end_to_end").iter().chain(&listed("per_layer")) {
        assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "bad metric name {name:?}"
        );
        assert!(!unit.is_empty(), "{name} has no unit");
    }
    assert_eq!(listed("end_to_end"), owned(END_TO_END));
    assert_eq!(listed("per_layer"), owned(PER_LAYER));
}

#[test]
fn every_metric_is_printed_with_its_unit() {
    let mut m = Metrics::default();
    m.set("setup_s", 0.5, 3);
    for list in [END_TO_END, PER_LAYER] {
        let printed = m.result_json(list);
        for (name, unit) in list {
            let entry = printed
                .get(name)
                .unwrap_or_else(|| panic!("{name} not printed"));
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(*unit));
            assert!(entry.get("value").and_then(Json::as_f64).is_some());
        }
    }
}

#[test]
fn workloads_match_the_pinned_definitions() {
    let listed: Vec<String> = benchmark_json()
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads list")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string()
        })
        .collect();
    let gated: Vec<String> = workloads()
        .expect("workloads.json")
        .into_iter()
        .filter(|w| w.gated)
        .map(|w| w.name)
        .collect();
    assert_eq!(listed, gated);
}
