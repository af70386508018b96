//! `BENCHMARK.json` at the repository root and the tables in
//! `metrics.rs` must name the same workloads and metrics.

use iron_benchmark::metrics::{Def, END_TO_END, PER_LAYER};
use iron_benchmark::WORKLOADS;
use iron_testkit::json::{self, Value};

fn manifest() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key).and_then(Value::as_str).expect(key)
}

fn assert_table(listed: &[Value], defs: &[Def]) {
    assert_eq!(listed.len(), defs.len());
    for (m, d) in listed.iter().zip(defs) {
        assert_eq!(text(m, "name"), d.name);
        assert_eq!(text(m, "unit"), d.unit, "{}", d.name);
        assert_eq!(text(m, "better"), d.better, "{}", d.name);
    }
}

#[test]
fn the_manifest_lists_the_metrics_the_program_reports() {
    let m = manifest();
    let arr = |key: &str| m.get(key).and_then(Value::as_arr).expect(key);
    assert_table(arr("end_to_end"), &END_TO_END);
    assert_table(arr("per_layer"), &PER_LAYER);
    for e in arr("end_to_end") {
        let bound = e.get("bound").and_then(Value::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "{}", text(e, "name"));
    }
    let names: Vec<&str> = arr("workloads").iter().map(|w| text(w, "name")).collect();
    assert_eq!(names, WORKLOADS);
}

#[test]
fn metric_names_are_unique() {
    let mut names: Vec<&str> = END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .map(|d| d.name)
        .collect();
    names.sort_unstable();
    let n = names.len();
    names.dedup();
    assert_eq!(names.len(), n);
}
