//! `BENCHMARK.json` and the binary must name the same things, and a smoke
//! run of every workload must produce the contract's result line.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use clampi_benchmark::json::{self, Value};
use clampi_benchmark::names::{
    valid_name, valid_unit, MetricDef, END_TO_END, PER_LAYER, WORKLOADS,
};
use clampi_benchmark::workloads::{self, Opts};

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
    assert!(text.len() <= 64 << 10, "BENCHMARK.json over 64 KiB");
    json::parse(&text).expect("BENCHMARK.json is valid JSON")
}

fn names_of(list: &Value) -> Vec<String> {
    list.as_arr()
        .expect("array")
        .iter()
        .map(|e| {
            e.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

/// Fails naming what is on one side only.
fn assert_same_names(what: &str, in_json: &[String], in_binary: &[&str]) {
    let json: BTreeSet<&str> = in_json.iter().map(String::as_str).collect();
    let binary: BTreeSet<&str> = in_binary.iter().copied().collect();
    assert_eq!(
        json.len(),
        in_json.len(),
        "{what}: a name repeats in BENCHMARK.json"
    );
    let only_json: Vec<_> = json.difference(&binary).collect();
    let only_binary: Vec<_> = binary.difference(&json).collect();
    assert!(
        only_json.is_empty() && only_binary.is_empty(),
        "{what}: only in BENCHMARK.json {only_json:?}, only emitted by the binary {only_binary:?}"
    );
    for name in in_json {
        assert!(
            valid_name(name),
            "{what}: `{name}` has a character outside [A-Za-z0-9_.-]"
        );
    }
}

fn assert_metric_list(what: &str, list: &Value, defs: &[MetricDef], bounded: bool) {
    let entries = list.as_arr().expect("array");
    for (entry, def) in entries.iter().zip(defs) {
        let keys: Vec<&str> = entry
            .as_obj()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        let expected: &[&str] = if bounded {
            &["name", "unit", "better", "bound"]
        } else {
            &["name", "unit", "better"]
        };
        assert_eq!(keys, expected, "{what}: keys of {}", def.name);
        assert_eq!(
            entry.get("name").and_then(Value::as_str),
            Some(def.name),
            "{what}: order"
        );
        let unit = entry.get("unit").and_then(Value::as_str).expect("unit");
        assert!(
            valid_unit(unit) && unit == def.unit,
            "{what}: unit of {}",
            def.name
        );
        assert_eq!(
            entry.get("better").and_then(Value::as_str),
            Some(def.better.as_str()),
            "{what}: direction of {}",
            def.name
        );
        if bounded {
            assert_eq!(
                entry.get("bound").and_then(Value::as_f64),
                Some(def.bound),
                "{what}: bound of {}",
                def.name
            );
        }
    }
}

#[test]
fn benchmark_json_and_the_binary_name_the_same_things() {
    let doc = benchmark_json();
    let keys: Vec<&str> = doc
        .as_obj()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let workloads = doc.get("workloads").expect("workloads");
    assert_same_names("workloads", &names_of(workloads), &WORKLOADS);
    for w in workloads.as_arr().expect("array") {
        let why = w.get("why").and_then(Value::as_str).expect("why");
        assert!(why.len() <= 200 && !why.contains('\n'), "why of {w}");
        assert_eq!(w.as_obj().expect("object").len(), 2, "workload keys of {w}");
    }
    let e2e: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
    let layers: Vec<&str> = PER_LAYER.iter().map(|d| d.name).collect();
    let end_to_end = doc.get("end_to_end").expect("end_to_end");
    let per_layer = doc.get("per_layer").expect("per_layer");
    assert_same_names("end_to_end", &names_of(end_to_end), &e2e);
    assert_same_names("per_layer", &names_of(per_layer), &layers);
    assert_metric_list("end_to_end", end_to_end, &END_TO_END, true);
    assert_metric_list("per_layer", per_layer, &PER_LAYER, false);

    let paths = doc.get("paths").and_then(Value::as_arr).expect("paths");
    assert_eq!(paths, [Value::Str("benchmark".into())]);
    let seconds = doc
        .get("run_seconds")
        .and_then(Value::as_f64)
        .expect("run_seconds");
    assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));
    // 4 + 22 runs per workload, each the measured seconds plus five
    // set-ups, the uncached repetitions and process start (2 to 4 s on the
    // reference host whatever `--seconds` is; 5 s allowed), and two builds
    // of two minutes must fit the driver's 3420 s.
    let runs = 4.0 + 22.0 * WORKLOADS.len() as f64;
    assert!(runs * (seconds + 5.0) + 2.0 * 120.0 < 3420.0);
}

fn smoke_opts(trace: bool) -> Opts {
    Opts {
        seed: 42,
        seconds: 0.05,
        trace,
        smoke: true,
        out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out/smoke-test"),
    }
}

/// The metric names of a result line, in order.
fn emitted(line: &str) -> Vec<String> {
    let v = json::parse(line).expect("result line is valid JSON");
    let keys: Vec<&str> = v
        .as_obj()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
    assert!(
        v.get("attempted")
            .and_then(Value::as_f64)
            .expect("attempted")
            >= 1.0
    );
    assert_eq!(v.get("failed").and_then(Value::as_f64), Some(0.0));
    v.get("metrics")
        .and_then(Value::as_obj)
        .expect("metrics")
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value").and_then(Value::as_f64).is_some(),
                "{name} has no value"
            );
            assert!(
                m.get("unit").and_then(Value::as_str).is_some(),
                "{name} has no unit"
            );
            name.clone()
        })
        .collect()
}

#[test]
fn smoke_runs_emit_the_full_schema_and_pass_their_checks() {
    let e2e: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
    let layers: Vec<&str> = PER_LAYER.iter().map(|d| d.name).collect();
    for w in WORKLOADS {
        let untraced = workloads::run(w, &smoke_opts(false)).expect("known workload");
        assert!(
            untraced.correct(),
            "{w}: {} of {} failed",
            untraced.failed,
            untraced.attempted
        );
        assert_eq!(emitted(&untraced.result_line()), e2e, "{w} untraced");
        for d in &END_TO_END {
            let v = untraced
                .metrics
                .get(d.name)
                .expect("every end-to-end metric is measured");
            assert!(
                v > 0.0,
                "{w}: {} = {v} (end-to-end metrics are never 0)",
                d.name
            );
        }
        let traced = workloads::run(w, &smoke_opts(true)).expect("known workload");
        assert!(
            traced.correct(),
            "{w} traced: {} of {} failed",
            traced.failed,
            traced.attempted
        );
        assert_eq!(emitted(&traced.result_line()), layers, "{w} traced");
        assert!(traced.metrics.get("trace.overhead_x").expect("overhead") > 0.0);
        let trace_file = smoke_opts(true).out_dir.join(format!("{w}.trace.json"));
        let trace = std::fs::read_to_string(&trace_file).expect("trace file written");
        let spans = json::parse(&trace).expect("trace file is valid JSON");
        assert!(!spans
            .get("spans")
            .and_then(Value::as_arr)
            .expect("spans")
            .is_empty());
    }
    assert!(workloads::run("no_such_workload", &smoke_opts(false)).is_err());
}
