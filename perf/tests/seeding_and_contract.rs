//! Seeding (same seed, same inputs), the machine guard, and agreement
//! between the metric tables in the code and `../BENCHMARK.json`.

use bskel_perf::cli::check_machine;
use bskel_perf::metrics::{END_TO_END, PER_LAYER};
use bskel_perf::seed::{schedule_hash, SplitMix64};
use bskel_perf::workloads::pool::Payloads;
use bskel_perf::workloads::{elastic, storm, tenants, HARNESS_THREADS, NAMES};
use serde::Value;

/// One checksum over every workload's generated inputs.
fn input_hashes(seed: u64) -> Vec<u64> {
    let rng = SplitMix64::new(seed);
    let due = tenants::schedules(&rng.fork("tenants_mixed"), 5.0);
    vec![
        Payloads::new(&mut rng.fork("pb"), 65_536).hash(),
        schedule_hash(due.iter().flatten().copied()),
        elastic::script_hash(&elastic::kill_script(
            &rng.fork("elastic_heal"),
            &[(0.0, 10.0)],
        )),
        storm::inputs(seed).hash,
    ]
}

#[test]
fn same_seed_same_inputs_and_another_seed_other_inputs() {
    assert_eq!(input_hashes(7), input_hashes(7));
    for (a, b) in input_hashes(7).into_iter().zip(input_hashes(8)) {
        assert_ne!(a, b);
    }
}

#[test]
fn refuses_a_machine_with_fewer_cpus_than_harness_threads() {
    assert!(check_machine(HARNESS_THREADS).is_ok());
    let refusal = check_machine(HARNESS_THREADS - 1).expect_err("too few CPUs");
    assert!(refusal.contains("refusing to measure"), "{refusal}");
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    match v {
        Value::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
    .unwrap_or_else(|| panic!("BENCHMARK.json has no {key:?}"))
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    match field(v, key) {
        Value::String(s) => s,
        other => panic!("{key:?} is not a string: {other:?}"),
    }
}

fn items<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    match field(v, key) {
        Value::Array(items) => items,
        other => panic!("{key:?} is not a list: {other:?}"),
    }
}

#[test]
fn benchmark_json_lists_exactly_the_workloads_and_metrics_of_the_code() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc: Value =
        serde_json::from_str(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
            .expect("parse");

    let workloads: Vec<&str> = items(&doc, "workloads")
        .iter()
        .map(|w| text(w, "name"))
        .collect();
    assert_eq!(workloads, NAMES);

    let e2e: Vec<(&str, &str, &str, f64)> = items(&doc, "end_to_end")
        .iter()
        .map(|m| {
            let bound = match field(m, "bound") {
                Value::Number(n) => *n,
                other => panic!("bound is not a number: {other:?}"),
            };
            (text(m, "name"), text(m, "unit"), text(m, "better"), bound)
        })
        .collect();
    let in_code: Vec<(&str, &str, &str, f64)> = END_TO_END
        .iter()
        .map(|m| (m.name, m.unit, m.better.as_str(), m.bound))
        .collect();
    assert_eq!(e2e, in_code);

    let layers: Vec<(&str, &str, &str)> = items(&doc, "per_layer")
        .iter()
        .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
        .collect();
    let in_code: Vec<(&str, &str, &str)> = PER_LAYER
        .iter()
        .map(|m| (m.name, m.unit, m.better.as_str()))
        .collect();
    assert_eq!(layers, in_code);

    match field(&doc, "run_seconds") {
        Value::Number(n) => assert_eq!(*n as u64, bskel_perf::cli::DEFAULT_SECONDS),
        other => panic!("run_seconds is not a number: {other:?}"),
    }
}
