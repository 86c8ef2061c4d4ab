//! Self-test: every workload in `--quick` mode, untraced and traced,
//! through the real binary (the networked workload re-invokes it as
//! shard processes), checked against what `BENCHMARK.json` declares.

#[path = "../src/metrics.rs"]
#[allow(dead_code)]
mod metrics;

use serde::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_socialreach-benchmark");

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repository")
        .to_path_buf()
}

fn get<'a>(v: &'a Value, key: &str) -> &'a Value {
    serde::value_get(v.as_map().expect("an object"), key).unwrap_or_else(|| panic!("key {key}"))
}

fn number(v: &Value) -> f64 {
    match v {
        Value::Int(i) => *i as f64,
        Value::UInt(u) => *u as f64,
        Value::Float(f) => *f,
        other => panic!("expected a number, found {other:?}"),
    }
}

fn text(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        other => panic!("expected a string, found {other:?}"),
    }
}

fn declared(contract: &Value, section: &str) -> Vec<(String, String)> {
    get(contract, section)
        .as_array()
        .expect("an array")
        .iter()
        .map(|e| {
            (
                text(get(e, "name")).to_owned(),
                text(get(e, "unit")).to_owned(),
            )
        })
        .collect()
}

fn contract() -> Value {
    let raw = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    serde_json::from_str(&raw).expect("BENCHMARK.json parses")
}

struct Run {
    metrics: BTreeMap<String, (f64, String)>,
    digest: String,
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// One quick run; asserts the output contract on the way.
fn run(workload: &str, trace: bool) -> Run {
    let out = Command::new(BIN)
        .current_dir(repo_root())
        .args([
            "--workload",
            workload,
            "--seed",
            "11",
            "--seconds",
            "1",
            "--quick",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let v: Value = serde_json::from_str(last).expect("the last line is JSON");
    let keys: Vec<&str> = v
        .as_map()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(*get(&v, "correct"), Value::Bool(true));
    assert!(number(get(&v, "attempted")) >= 1.0);
    assert_eq!(number(get(&v, "failed")), 0.0, "{workload}: failed ops");
    let mut metrics = BTreeMap::new();
    for (name, entry) in get(&v, "metrics").as_map().expect("an object") {
        assert!(well_formed(name), "metric name {name:?}");
        let value = number(get(entry, "value"));
        assert!(value.is_finite(), "{name} is not finite");
        metrics.insert(name.clone(), (value, text(get(entry, "unit")).to_owned()));
    }
    let digest = stdout
        .lines()
        .find_map(|l| l.strip_prefix("answers_digest "))
        .expect("a digest line")
        .to_owned();
    Run { metrics, digest }
}

fn assert_declared(run: &Run, declared: &[(String, String)], what: &str) {
    let emitted: BTreeSet<&str> = run.metrics.keys().map(String::as_str).collect();
    let wanted: BTreeSet<&str> = declared.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(emitted, wanted, "{what}: emitted vs declared metric names");
    for (name, unit) in declared {
        assert_eq!(&run.metrics[name].1, unit, "{what}: unit of {name}");
    }
}

/// One span line of `trace.json`, as `Tracer::write_json` lays it out.
/// Parsed by hand: the vendored JSON parser is quadratic in the length
/// of its input, and a trace is megabytes.
struct SpanLine {
    id: usize,
    request_root: bool,
    start: u64,
    end: u64,
    parent: Option<usize>,
    request: u64,
}

fn span_line(line: &str) -> SpanLine {
    let field = |key: &str| {
        let from = line.find(key).unwrap_or_else(|| panic!("{key} in {line}")) + key.len();
        let rest = &line[from..];
        &rest[..rest.find([',', '}']).expect("a field ends")]
    };
    SpanLine {
        id: field("\"id\":").parse().expect("id"),
        request_root: field("\"name\":") == "\"request\"",
        start: field("\"start_ns\":").parse().expect("start_ns"),
        end: field("\"end_ns\":").parse().expect("end_ns"),
        parent: field("\"parent\":").parse().ok(),
        request: field("\"request\":").parse().expect("request"),
    }
}

/// Every span lies inside its parent and shares its request id, and
/// each traced request has exactly one `request` root.
fn assert_spans_nest() {
    let path = PathBuf::from(BIN)
        .parent()
        .unwrap()
        .join("bench-out/trace.json");
    let raw = std::fs::read_to_string(&path).expect("trace.json was written");
    let spans: Vec<SpanLine> = raw
        .lines()
        .filter(|l| l.starts_with("{\"id\""))
        .map(span_line)
        .collect();
    assert!(!spans.is_empty(), "a traced run stores spans");
    let mut roots: BTreeMap<u64, usize> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        assert_eq!(s.id, i);
        assert!(s.start <= s.end);
        assert!(s.request >= 1, "every span belongs to a request");
        match s.parent {
            None if s.request_root => *roots.entry(s.request).or_default() += 1,
            None => {}
            Some(p) => {
                let p = &spans[p];
                assert!(
                    p.start <= s.start && s.end <= p.end,
                    "span {i} leaves its parent"
                );
                assert_eq!(p.request, s.request, "span {i} changes request id");
            }
        }
    }
    assert!(
        roots.values().all(|&n| n == 1),
        "one request span per request id"
    );
    let traced: BTreeSet<u64> = spans.iter().map(|s| s.request).collect();
    assert_eq!(
        traced.len(),
        roots.len(),
        "every request id has its request span"
    );
}

#[test]
fn quick_runs_emit_exactly_what_is_declared() {
    let contract = contract();
    let end_to_end = declared(&contract, "end_to_end");
    let per_layer = declared(&contract, "per_layer");
    let workloads = declared_workloads(&contract);
    assert_eq!(
        workloads,
        [
            "feed_single",
            "feed_sharded",
            "feed_networked",
            "churn_durable"
        ]
    );

    // The catalogue in the source and the contract agree.
    let source: Vec<(String, String)> = metrics::END_TO_END
        .iter()
        .map(|&(n, u)| (n.into(), u.into()))
        .collect();
    assert_eq!(source, end_to_end);
    let source: Vec<(String, String)> = metrics::PER_LAYER
        .iter()
        .map(|&(n, u, _)| (n.into(), u.into()))
        .collect();
    assert_eq!(source, per_layer);

    let mut digests = Vec::new();
    for workload in &workloads {
        let untraced = run(workload, false);
        assert_declared(&untraced, &end_to_end, workload);
        for (name, (value, _)) in &untraced.metrics {
            assert!(
                *value > 0.0,
                "{workload}: end-to-end metric {name} must never be 0"
            );
        }

        let traced = run(workload, true);
        assert_declared(&traced, &per_layer, workload);
        assert_eq!(traced.metrics["failed_ops_share"].0, 0.0);
        assert_spans_nest();
        assert_eq!(
            untraced.digest, traced.digest,
            "{workload}: digest moved between runs"
        );

        let again = run(workload, true);
        for &(name, _, exact) in &metrics::PER_LAYER {
            if exact {
                assert_eq!(
                    traced.metrics[name].0, again.metrics[name].0,
                    "{workload}: exact count {name} moved between two runs"
                );
            }
        }
        digests.push(untraced.digest);
    }
    // In quick mode every workload has the same size, so the same
    // sample: all four backends must have given the same answers.
    assert!(
        digests.windows(2).all(|w| w[0] == w[1]),
        "digests differ: {digests:?}"
    );
}

fn declared_workloads(contract: &Value) -> Vec<String> {
    get(contract, "workloads")
        .as_array()
        .expect("an array")
        .iter()
        .map(|e| text(get(e, "name")).to_owned())
        .collect()
}

#[test]
fn repeat_then_compare_with_itself_is_within_bounds() {
    let file = PathBuf::from(BIN)
        .parent()
        .unwrap()
        .join("bench-out-selftest-set.json");
    let repeat = Command::new(BIN)
        .current_dir(repo_root())
        .args([
            "repeat",
            "2",
            "--quick",
            "--seconds",
            "1",
            "--workload",
            "feed_sharded",
        ])
        .arg("--json")
        .arg(&file)
        .output()
        .expect("repeat runs");
    let stdout = String::from_utf8_lossy(&repeat.stdout);
    assert!(repeat.status.success(), "{stdout}");
    assert!(stdout.contains("check_p50_us"), "{stdout}");

    let compare = Command::new(BIN)
        .current_dir(repo_root())
        .arg("compare")
        .args([&file, &file])
        .output()
        .expect("compare runs");
    let stdout = String::from_utf8_lossy(&compare.stdout);
    assert!(compare.status.success(), "{stdout}");
    assert!(!stdout.contains(" worse"), "{stdout}");
    assert!(!stdout.contains(" better"), "{stdout}");
    let _ = std::fs::remove_file(&file);
}

#[test]
fn bad_arguments_fail_without_a_result_line() {
    for args in [
        &["--workload", "nope"][..],
        &["--trace", "2"][..],
        &["frobnicate"][..],
    ] {
        let out = Command::new(BIN)
            .current_dir(repo_root())
            .args(args)
            .output()
            .expect("runs");
        assert!(!out.status.success());
        assert!(out.stdout.is_empty(), "no result on a usage error");
    }
}
