//! Drives the built binary end to end at `--smoke` shapes: every workload
//! untraced, two of them traced, and the manifest against `BENCHMARK.json`.

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;

use json::{parse, Value};

const BIN: &str = env!("CARGO_BIN_EXE_zkphire-benchmark");

fn manifest() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("parses")
}

fn names(manifest: &Value, key: &str) -> BTreeSet<String> {
    manifest
        .get(key)
        .and_then(Value::as_arr)
        .expect(key)
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

fn out_dir(tag: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(tag)
}

/// Runs one smoke run and returns (stdout, the parsed result line).
fn run(workload: &str, trace: &str, seed: &str) -> (String, Value) {
    let dir = out_dir(&format!("{workload}-{trace}"));
    let out = Command::new(BIN)
        .args([
            "run",
            "--smoke",
            "--workload",
            workload,
            "--seed",
            seed,
            "--trace",
            trace,
        ])
        .arg("--out-dir")
        .arg(&dir)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    assert!(
        out.status.success(),
        "{workload} exited {:?}\n{stdout}\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result = parse(last).expect("the last line is JSON");
    (stdout, result)
}

fn check_result(result: &Value, expected: &BTreeSet<String>, nonzero: bool) {
    let keys: Vec<&str> = result
        .as_obj()
        .expect("object")
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
    assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
    assert!(
        result
            .get("attempted")
            .and_then(Value::as_f64)
            .expect("attempted")
            >= 1.0
    );
    let metrics = result
        .get("metrics")
        .and_then(Value::as_obj)
        .expect("metrics");
    let got: BTreeSet<String> = metrics.keys().cloned().collect();
    assert_eq!(
        &got, expected,
        "printed metric names differ from BENCHMARK.json"
    );
    for (name, m) in metrics {
        let value = m
            .get("value")
            .and_then(Value::as_f64)
            .expect("finite value");
        assert!(
            m.get("unit").and_then(Value::as_str).is_some(),
            "{name} has no unit"
        );
        if nonzero {
            assert!(value > 0.0, "{name} = {value}");
        }
    }
}

#[test]
fn every_workload_runs_untraced_with_nothing_failed() {
    let manifest = manifest();
    let end_to_end = names(&manifest, "end_to_end");
    assert!(end_to_end.len() <= 16);
    for workload in names(&manifest, "workloads") {
        let (stdout, result) = run(&workload, "0", "7");
        check_result(&result, &end_to_end, true);
        // Provenance and the noise reference head every run.
        assert!(
            stdout.starts_with(&format!("# {workload} seed=7 ")),
            "{stdout}"
        );
        assert!(stdout.contains("# round 0 host.spin_ns "), "{stdout}");
        // Every metric is also printed as `workload metric value unit`.
        for name in &end_to_end {
            assert!(
                stdout
                    .lines()
                    .any(|l| l.starts_with(&format!("{workload} {name} "))),
                "{workload} {name} not printed"
            );
        }
    }
}

#[test]
fn traced_runs_report_every_layer_metric_and_a_well_formed_trace() {
    let manifest = manifest();
    let per_layer = names(&manifest, "per_layer");
    assert!(per_layer.len() <= 128);
    for workload in ["prove_jellyfish", "serve_tcp"] {
        let (_, result) = run(workload, "1", "11");
        check_result(&result, &per_layer, false);
        let metrics = result.get("metrics").expect("metrics");
        assert!(metrics.get("host.trace_overhead_pct").is_some());

        let dir = out_dir(&format!("{workload}-1"));
        let trace = std::fs::read_to_string(dir.join("trace.json")).expect("trace.json");
        let trace = parse(&trace).expect("trace.json is JSON");
        let events = trace
            .get("traceEvents")
            .and_then(Value::as_arr)
            .expect("traceEvents");
        assert!(!events.is_empty());
        let arg = |e: &Value, k: &str| e.get("args").and_then(|a| a.get(k)).and_then(Value::as_f64);
        let mut own_spans = 0;
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.get("ph").and_then(Value::as_str), Some("X"));
            assert!(e.get("name").and_then(Value::as_str).is_some());
            assert!(e.get("ts").and_then(Value::as_f64).is_some());
            assert!(e.get("dur").and_then(Value::as_f64).expect("dur") >= 0.0);
            assert_eq!(arg(e, "id"), Some(i as f64));
            let who = e
                .get("args")
                .and_then(|a| a.get("workload"))
                .and_then(Value::as_str);
            own_spans += usize::from(who == Some(workload));
            // The parent exists, precedes the span, and encloses it.
            if let Some(p) = arg(e, "parent") {
                assert!(p < i as f64, "span {i} names a later parent");
                let parent = &events[p as usize];
                assert!(arg(parent, "start_ns") <= arg(e, "start_ns"));
                assert!(arg(parent, "end_ns") >= arg(e, "end_ns"));
            }
        }
        assert!(own_spans > 0, "no spans of the workload's own pass");
        let layers = std::fs::read_to_string(dir.join("layers.json")).expect("layers.json");
        assert!(parse(&layers)
            .expect("layers.json is JSON")
            .get("layers")
            .is_some());
    }
}

#[test]
fn exact_values_repeat_for_a_seed_and_bad_arguments_are_refused() {
    // The same seed gives the same inputs, so the same proof size and the
    // same simulated statistics.
    let exact = |stdout: &str| -> Vec<String> {
        stdout
            .lines()
            .filter(|l| l.contains(" exact "))
            .map(str::to_string)
            .collect()
    };
    let (first, _) = run("model_sweep", "0", "3");
    let (second, _) = run("model_sweep", "0", "3");
    assert!(!exact(&first).is_empty());
    assert_eq!(exact(&first), exact(&second));

    for bad in [
        vec!["run", "--workload", "nope"],
        vec!["run", "--trace", "2"],
        vec!["run", "--seconds", "0"],
        vec!["compare", "only-one"],
        vec![],
    ] {
        let out = Command::new(BIN).args(&bad).output().expect("runs");
        assert!(!out.status.success(), "{bad:?} was accepted");
        assert!(out.stdout.is_empty(), "{bad:?} printed a result");
    }
}
