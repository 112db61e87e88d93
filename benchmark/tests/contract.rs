//! Self-tests of the benchmark: its metric names and units match
//! `BENCHMARK.json`, its result line has the contract's shape, and its
//! failure accounting catches a corrupted reference.

use nsta_benchmark::catalog::{END_TO_END, PER_LAYER};
use nsta_benchmark::json::{Json, JsonExt};
use nsta_benchmark::{run, Outcome, RunConfig, WorkloadKind};

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// Runs share the process-wide `nsta-obs` recorder, which traced runs
/// enable and reset: tests that run workloads take turns.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn small(workload: WorkloadKind, trace: bool) -> RunConfig {
    let mut cfg = RunConfig::new(workload, 7, 0.3, trace);
    cfg.small = true;
    cfg
}

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .expect("metric list present")
        .items()
        .iter()
        .map(|m| {
            (
                m.get("name").and_then(Json::as_str).unwrap().to_string(),
                m.get("unit").and_then(Json::as_str).unwrap().to_string(),
            )
        })
        .collect()
}

fn printed(outcome: &Outcome) -> Vec<(String, String)> {
    outcome
        .metrics
        .iter()
        .map(|(name, _, unit)| (name.clone(), unit.clone()))
        .collect()
}

#[test]
fn benchmark_json_matches_the_catalogue() {
    let doc = benchmark_json();
    let Json::Obj(pairs) = &doc else {
        panic!("BENCHMARK.json is not an object")
    };
    let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
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
    let workloads: Vec<&str> = doc
        .get("workloads")
        .unwrap()
        .items()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    let known: Vec<&str> = WorkloadKind::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, known);
    for (entry, (name, unit, better, bound)) in doc
        .get("end_to_end")
        .unwrap()
        .items()
        .iter()
        .zip(END_TO_END)
    {
        assert_eq!(entry.get("name").and_then(Json::as_str), Some(*name));
        assert_eq!(entry.get("unit").and_then(Json::as_str), Some(*unit));
        assert_eq!(
            entry.get("better").and_then(Json::as_str),
            Some(better.as_str())
        );
        assert_eq!(entry.get("bound").and_then(Json::as_f64), Some(*bound));
    }
    for (entry, (name, unit, better)) in doc.get("per_layer").unwrap().items().iter().zip(PER_LAYER)
    {
        assert_eq!(entry.get("name").and_then(Json::as_str), Some(*name));
        assert_eq!(entry.get("unit").and_then(Json::as_str), Some(*unit));
        assert_eq!(
            entry.get("better").and_then(Json::as_str),
            Some(better.as_str())
        );
    }
    assert_eq!(listed(&doc, "end_to_end").len(), END_TO_END.len());
    assert_eq!(listed(&doc, "per_layer").len(), PER_LAYER.len());
}

#[test]
fn printed_metrics_match_benchmark_json() {
    let _guard = serial();
    let doc = benchmark_json();
    for workload in WorkloadKind::ALL {
        let plain = run(&small(workload, false)).expect("untraced run");
        assert_eq!(printed(&plain), listed(&doc, "end_to_end"), "{workload:?}");
        assert!(plain.correct, "{workload:?}: {:?}", plain.problems);
        assert_eq!(plain.failed, 0);
        let traced = run(&small(workload, true)).expect("traced run");
        assert_eq!(printed(&traced), listed(&doc, "per_layer"), "{workload:?}");
        assert!(traced.correct, "{workload:?}: {:?}", traced.problems);
    }
}

#[test]
fn result_line_has_exactly_the_contract_keys() {
    let _guard = serial();
    let outcome = run(&small(WorkloadKind::Bus64, false)).expect("run");
    let line = Json::parse(&outcome.result_line()).expect("result line parses");
    let Json::Obj(pairs) = &line else {
        panic!("result line is not an object")
    };
    let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    for (_, metric) in match line.get("metrics") {
        Some(Json::Obj(m)) => m.as_slice(),
        _ => panic!("metrics is not an object"),
    } {
        assert!(metric
            .get("value")
            .and_then(Json::as_f64)
            .is_some_and(f64::is_finite));
        assert!(metric.get("unit").and_then(Json::as_str).is_some());
    }
}

#[test]
fn corrupted_reference_fails_every_checked_unit() {
    let _guard = serial();
    for workload in [WorkloadKind::Bus64, WorkloadKind::Mesh32] {
        let mut cfg = small(workload, false);
        cfg.corrupt_reference = true;
        let outcome = run(&cfg).expect("run");
        assert!(outcome.attempted > 0);
        assert_eq!(outcome.failed, outcome.attempted, "{workload:?}");
        assert!(!outcome.correct);
    }
}

/// The full-size shape checks (`bus64` hit rate ≥ 0.95 with a cone per
/// thread, `mesh32` below that rate) run inside every full-size traced run
/// and make it incorrect; at self-test size only the ordering is checked.
#[test]
fn traced_runs_confirm_the_workload_shapes() {
    let _guard = serial();
    let layer =
        |o: &Outcome, name: &str| o.metrics.iter().find(|m| m.0 == name).map(|m| m.1).unwrap();
    let bus = run(&small(WorkloadKind::Bus64, true)).expect("bus run");
    assert_eq!(layer(&bus, "replay.valid"), 1.0);
    assert!(layer(&bus, "replay.coverage") > 0.0);
    let mesh = run(&small(WorkloadKind::Mesh32, true)).expect("mesh run");
    assert_eq!(layer(&mesh, "replay.valid"), 1.0);
    assert_eq!(layer(&mesh, "sta.cones"), 1.0);
    assert!(layer(&mesh, "sta.topo_cache.hit_rate") < layer(&bus, "sta.topo_cache.hit_rate"));
    let table1 = run(&small(WorkloadKind::Table1, true)).expect("table1 run");
    assert_eq!(layer(&table1, "replay.valid"), 1.0);
    assert!(layer(&table1, "sgdp.reduce_us.sgdp") > 0.0);
    assert!(layer(&table1, "spice.receiver_resim_ms") > 0.0);
}
