//! Sets of runs: `all` (every workload once, untraced and traced),
//! `repeat N` (N seeds, with quartiles and spreads) and `compare`
//! (two saved sets against the bounds in `BENCHMARK.json`).

use crate::metrics::PER_LAYER;
use crate::stats::quartiles;
use crate::workload::WORKLOADS;
use crate::Flags;
use serde::Value;
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

/// What `BENCHMARK.json` (in the working directory: the repo root)
/// fixes for a later change: run length, and each end-to-end metric's
/// direction and regression bound.
pub struct Contract {
    pub run_seconds: f64,
    /// name → (higher is better, bound)
    pub end_to_end: Vec<(String, bool, f64)>,
}

fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    v.as_map()
        .and_then(|m| serde::value_get(m, key))
        .ok_or(format!("missing key {key}"))
}

fn number(v: &Value) -> Result<f64, String> {
    match v {
        Value::Int(i) => Ok(*i as f64),
        Value::UInt(u) => Ok(*u as f64),
        Value::Float(f) => Ok(*f),
        other => Err(format!("expected a number, found {other:?}")),
    }
}

fn text(v: &Value) -> Result<&str, String> {
    match v {
        Value::Str(s) => Ok(s),
        other => Err(format!("expected a string, found {other:?}")),
    }
}

impl Contract {
    pub fn load() -> Result<Contract, String> {
        let raw = std::fs::read_to_string("BENCHMARK.json")
            .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
        let v: Value = serde_json::from_str(&raw).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let mut end_to_end = Vec::new();
        for entry in field(&v, "end_to_end")?
            .as_array()
            .ok_or("end_to_end: expected an array")?
        {
            end_to_end.push((
                text(field(entry, "name")?)?.to_owned(),
                text(field(entry, "better")?)? == "higher",
                number(field(entry, "bound")?)?,
            ));
        }
        Ok(Contract {
            run_seconds: number(field(&v, "run_seconds")?)?,
            end_to_end,
        })
    }
}

/// One child run's parsed output.
struct RunResult {
    correct: bool,
    digest: String,
    metrics: Vec<(String, f64)>,
}

/// Runs one workload in a fresh process (clean peak-RSS, no state
/// shared between runs) and parses what it printed.
fn child_run(flags: &Flags, workload: &str, seed: u64, trace: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if let Some(s) = flags.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if flags.quick {
        cmd.arg("--quick");
    }
    let output = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout
        .lines()
        .last()
        .ok_or(format!("{workload}: no output"))?;
    let v: Value = serde_json::from_str(last).map_err(|e| format!("{workload}: {e}: {last}"))?;
    let digest = stdout
        .lines()
        .find_map(|l| l.strip_prefix("answers_digest "))
        .unwrap_or_default()
        .to_owned();
    let mut metrics = Vec::new();
    for (name, entry) in field(&v, "metrics")?
        .as_map()
        .ok_or("metrics: expected a map")?
    {
        metrics.push((name.clone(), number(field(entry, "value")?)?));
    }
    Ok(RunResult {
        correct: matches!(field(&v, "correct")?, Value::Bool(true)),
        digest,
        metrics,
    })
}

/// Values of every metric of every workload over the runs of a set.
#[derive(Default)]
struct Set {
    /// workload → metric → one value per run
    values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    /// workload → one digest per run
    digests: BTreeMap<String, Vec<String>>,
    correct: bool,
}

impl Set {
    /// An empty set; it stays correct until a run says otherwise.
    fn new() -> Set {
        Set {
            correct: true,
            ..Set::default()
        }
    }

    fn absorb(&mut self, workload: &str, run: RunResult) {
        self.correct &= run.correct;
        let metrics = self.values.entry(workload.to_owned()).or_default();
        for (name, value) in run.metrics {
            metrics.entry(name).or_default().push(value);
        }
        if !run.digest.is_empty() {
            self.digests
                .entry(workload.to_owned())
                .or_default()
                .push(run.digest);
        }
    }

    fn to_json(&self) -> String {
        let mut workloads = Vec::new();
        for (workload, metrics) in &self.values {
            let mut fields = Vec::new();
            for (name, values) in metrics {
                let list: Vec<String> = values.iter().map(f64::to_string).collect();
                fields.push(format!("\"{name}\": [{}]", list.join(", ")));
            }
            let digests: Vec<String> = self
                .digests
                .get(workload)
                .map(|d| d.iter().map(|x| format!("\"{x}\"")).collect())
                .unwrap_or_default();
            workloads.push(format!(
                "\"{workload}\": {{\"digests\": [{}], \"metrics\": {{{}}}}}",
                digests.join(", "),
                fields.join(", ")
            ));
        }
        format!("{{\"workloads\": {{{}}}}}\n", workloads.join(",\n"))
    }

    fn from_json(path: &str) -> Result<Set, String> {
        let raw = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let v: Value = serde_json::from_str(&raw).map_err(|e| format!("{path}: {e}"))?;
        let mut set = Set::default();
        for (workload, entry) in field(&v, "workloads")?
            .as_map()
            .ok_or("workloads: expected a map")?
        {
            let metrics = set.values.entry(workload.clone()).or_default();
            for (name, list) in field(entry, "metrics")?
                .as_map()
                .ok_or("metrics: expected a map")?
            {
                let values = list.as_array().ok_or("expected an array")?;
                metrics.insert(
                    name.clone(),
                    values.iter().map(number).collect::<Result<_, _>>()?,
                );
            }
            let digests = field(entry, "digests")?
                .as_array()
                .ok_or("expected an array")?;
            set.digests.insert(
                workload.clone(),
                digests
                    .iter()
                    .map(|d| text(d).map(str::to_owned))
                    .collect::<Result<_, _>>()?,
            );
        }
        Ok(set)
    }

    fn save(&self, flags: &Flags) -> Result<(), String> {
        if let Some(path) = &flags.json {
            std::fs::write(path, self.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
            println!("wrote {}", path.display());
        }
        Ok(())
    }
}

fn selected(flags: &Flags) -> Vec<&'static str> {
    WORKLOADS
        .iter()
        .map(|w| w.name)
        .filter(|name| flags.workload.as_deref().is_none_or(|w| w == *name))
        .collect()
}

/// Median and interquartile spread (share of the median) of a sample;
/// the spread of a single value is 0.
fn summary(values: &[f64]) -> (f64, f64, f64, f64) {
    if values.len() < 2 {
        let v = values.first().copied().unwrap_or(0.0);
        return (v, v, v, 0.0);
    }
    let (q1, med, q3) = quartiles(values);
    let spread = if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    };
    (q1, med, q3, spread)
}

/// `all`: every workload once, untraced (end-to-end) then traced (per
/// layer).
pub fn all(flags: &Flags) -> Result<bool, String> {
    let mut set = Set::new();
    for workload in selected(flags) {
        for trace in [false, true] {
            let run = child_run(flags, workload, flags.seed, trace)?;
            println!(
                "== {workload} seed={} {} digest={}",
                flags.seed,
                if trace {
                    "traced (per layer)"
                } else {
                    "untraced (end to end)"
                },
                run.digest
            );
            for (name, value) in &run.metrics {
                println!("  {name:<28} {value:>16.4}");
            }
            set.absorb(workload, run);
        }
    }
    set.save(flags)?;
    Ok(set.correct)
}

/// `repeat N`: N runs per workload, each on another seed (the
/// acceptance procedure's shape), with each metric's quartiles and its
/// interquartile spread as a share of the median, against the bound.
pub fn repeat(flags: &Flags) -> Result<bool, String> {
    let n: u64 = flags
        .rest
        .get(1)
        .ok_or("repeat needs a count")?
        .parse()
        .map_err(|e| format!("repeat count: {e}"))?;
    let contract = Contract::load()?;
    let mut set = Set::new();
    for workload in selected(flags) {
        for seed in flags.seed..flags.seed + n {
            set.absorb(workload, child_run(flags, workload, seed, flags.trace)?);
        }
        println!(
            "== {workload}: {n} runs, seeds {}..{}",
            flags.seed,
            flags.seed + n - 1
        );
        println!(
            "  {:<28} {:>14} {:>14} {:>14} {:>8} {:>6}",
            "metric", "q1", "median", "q3", "spread", "bound"
        );
        for (name, values) in &set.values[workload] {
            let (q1, med, q3, spread) = summary(values);
            let bound = contract
                .end_to_end
                .iter()
                .find(|(n, ..)| n == name)
                .map(|b| b.2);
            let note = match bound {
                Some(b) if name != "setup_s" && spread > b => "  OVER BOUND",
                Some(b) if name != "setup_s" && spread > b / 3.0 => "  over a third of the bound",
                _ => "",
            };
            let bound = bound.map_or(String::from("-"), |b| format!("{b}"));
            println!(
                "  {name:<28} {q1:>14.4} {med:>14.4} {q3:>14.4} {spread:>8.4} {bound:>6}{note}"
            );
        }
    }
    set.save(flags)?;
    Ok(set.correct)
}

/// `compare base.json new.json`: one row per workload × end-to-end
/// metric, then the exact counts and digests that must not move.
pub fn compare(flags: &Flags) -> Result<bool, String> {
    let [_, base, new] = flags.rest.as_slice() else {
        return Err("compare needs two files".into());
    };
    let contract = Contract::load()?;
    let (base, new) = (Set::from_json(base)?, Set::from_json(new)?);
    let mut ok = true;
    println!(
        "{:<16} {:<16} {:>14} {:>14} {:>8}  verdict",
        "workload", "metric", "base", "new", "ratio"
    );
    for (workload, metrics) in &base.values {
        let Some(theirs) = new.values.get(workload) else {
            continue;
        };
        for (name, higher_better, bound) in &contract.end_to_end {
            let (Some(a), Some(b)) = (metrics.get(name), theirs.get(name)) else {
                continue;
            };
            let (_, base_med, _, base_spread) = summary(a);
            let (_, new_med, _, new_spread) = summary(b);
            let ratio = new_med / base_med;
            let worse_by = if *higher_better {
                1.0 - ratio
            } else {
                ratio - 1.0
            };
            let verdict = if base_spread.max(new_spread) > *bound {
                "unresolved"
            } else if worse_by > *bound {
                ok = false;
                "worse"
            } else if worse_by < -*bound {
                "better"
            } else {
                "within-bound"
            };
            println!("{workload:<16} {name:<16} {base_med:>14.4} {new_med:>14.4} {ratio:>8.3}  {verdict}");
        }
        for &(name, _, exact) in &PER_LAYER {
            let (true, Some(a), Some(b)) = (exact, metrics.get(name), theirs.get(name)) else {
                continue;
            };
            if a != b {
                ok = false;
                println!("{workload:<16} {name}: exact count moved: {a:?} -> {b:?}");
            }
        }
        if base.digests.get(workload) != new.digests.get(workload) {
            ok = false;
            println!("{workload:<16} answers_digest differs");
        }
    }
    Ok(ok)
}
