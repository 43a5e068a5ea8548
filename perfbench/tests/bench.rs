//! The benchmark's own tests: the catalogue matches `BENCHMARK.json`, a
//! tiny run of every workload emits every metric with its unit, and the
//! correctness checks trip on bad outputs.

use cq_obs::json::{self, Json};
use perfbench::sim::{check_record, grid};
use perfbench::train::{check_losses, self_time, LOSS_STEPS};
use perfbench::{check_knobs, run, BenchError, RunOptions, Workload, END_TO_END, PER_LAYER};
use std::collections::HashMap;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn names_units(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json needs a {key:?} array"))
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
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
fn catalogue_matches_benchmark_json() {
    let doc = benchmark_json();
    assert_eq!(names_units(&doc, "end_to_end"), owned(&END_TO_END));
    assert_eq!(names_units(&doc, "per_layer"), owned(&PER_LAYER));
    for w in doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads array")
    {
        let name = w.get("name").and_then(Json::as_str).expect("workload name");
        assert!(
            Workload::parse(name).is_some(),
            "BENCHMARK.json names unknown workload {name}"
        );
    }
}

/// One test drives every run: the trace sink and the counters are
/// process-wide, so runs must not overlap.
#[test]
fn tiny_run_of_every_workload_emits_every_metric_with_its_unit() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let opts = RunOptions {
                workload,
                seed: 7,
                seconds: 0.05,
                trace,
                trace_out: None,
            };
            let report = run(&opts).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
            let doc = json::parse(&report.to_json()).expect("report JSON parses");
            let tag = format!("{} trace={trace}", workload.name());
            assert_eq!(
                doc.get("correct"),
                Some(&Json::Bool(true)),
                "{tag}: {}",
                report.render()
            );
            assert_eq!(doc.get("failed").and_then(Json::as_f64), Some(0.0), "{tag}");
            assert!(
                doc.get("attempted").and_then(Json::as_f64).unwrap_or(0.0) >= 1.0,
                "{tag}"
            );
            let metrics = doc
                .get("metrics")
                .and_then(Json::as_obj)
                .expect("metrics object");
            let emitted: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    let unit = m.get("unit").and_then(Json::as_str).expect("unit");
                    assert!(
                        m.get("value").and_then(Json::as_f64).is_some(),
                        "{tag}: {name}"
                    );
                    (name.clone(), unit.to_string())
                })
                .collect();
            let want = owned(if trace { &PER_LAYER } else { &END_TO_END });
            assert_eq!(emitted, want, "{tag}");
            if !trace {
                for (name, m) in metrics {
                    let v = m.get("value").and_then(Json::as_f64).expect("value");
                    assert!(v > 0.0, "{tag}: end-to-end metric {name} reads {v}");
                }
            }
        }
    }
}

#[test]
fn a_corrupted_record_trips_the_check() {
    let cell = grid().remove(0);
    let record = cq_serve::simulate_cell(&cell).expect("registry cell simulates");
    let reference: HashMap<_, _> = [(cell.clone(), record.clone())].into_iter().collect();
    assert_eq!(check_record(&reference, &cell, &record), Ok(()));
    let mut corrupted = record.clone().into_bytes();
    let last = corrupted.len() - 1;
    corrupted[last] = if corrupted[last] == b'1' { b'2' } else { b'1' };
    let corrupted = String::from_utf8(corrupted).expect("ascii record");
    assert!(check_record(&reference, &cell, &corrupted).is_err());
    assert!(check_record(&reference, &cell, &format!("{record}\t")).is_err());
    let mut other = cell.clone();
    other.optimizer = "lamb".into();
    assert!(check_record(&reference, &other, &record).is_err());
}

#[test]
fn a_nan_or_flat_loss_trips_the_check() {
    let falling: Vec<f32> = (0..LOSS_STEPS).map(|i| 2.0 / (1.0 + i as f32)).collect();
    assert_eq!(check_losses(&falling), Ok(()));
    let mut nan = falling.clone();
    nan[LOSS_STEPS / 2] = f32::NAN;
    assert!(check_losses(&nan).unwrap_err().contains("NaN"));
    let mut inf = falling.clone();
    inf[0] = f32::INFINITY;
    assert!(check_losses(&inf).is_err());
    assert!(check_losses(&vec![1.0; LOSS_STEPS])
        .unwrap_err()
        .contains("did not fall"));
    assert!(check_losses(&falling[1..]).is_err());
}

#[test]
fn a_workload_knob_is_refused_with_a_typed_error() {
    assert!(check_knobs(|_| None).is_ok());
    for knob in [
        "CQ_MAPPING",
        "CQ_HWCACHE",
        "CQ_HWCACHE_CAP",
        "CQ_QUANT_PATH",
        "CQ_BACKEND",
    ] {
        let err = check_knobs(|k| (k == knob).then(|| "x".to_string())).unwrap_err();
        assert!(
            matches!(err, BenchError::KnobSet { name, .. } if name == knob),
            "{knob}"
        );
    }
}

#[test]
fn self_time_subtracts_children_but_not_ancestors() {
    // Two overlapping quant spans (0..10), a child region inside (2..4),
    // and an enclosing phase span that must not count as a child.
    let parents = [(0.0, 6.0), (5.0, 10.0)];
    let others = [(2.0, 4.0), (-1.0, 11.0), (20.0, 30.0)];
    assert_eq!(self_time(&parents, &others), 8.0);
}
