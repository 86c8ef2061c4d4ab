//! End-to-end benchmark of the socialreach serving stack: four
//! workloads over three backends through the public `Deployment` /
//! `AccessService` / `MutateService` seam, answers checked before any
//! latency is reported, and a separate traced run that attributes
//! request time to layers from outside the program. See `README.md`.

mod backend;
mod inputs;
mod layers;
mod metrics;
mod report;
mod run;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage:
  socialreach-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--quick]
  socialreach-benchmark all      [--seed N] [--seconds S] [--quick] [--json FILE]
  socialreach-benchmark repeat N [--seed N] [--seconds S] [--quick] [--workload <name>] [--json FILE]
  socialreach-benchmark compare <base.json> <new.json>
workloads: feed_single feed_sharded feed_networked churn_durable
defaults: --seed 11 (12 is the hold-out seed), --seconds from BENCHMARK.json (1 with --quick)";

/// Flags shared by the run, `all` and `repeat` commands.
pub struct Flags {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: Option<f64>,
    pub trace: bool,
    pub quick: bool,
    pub json: Option<PathBuf>,
    /// Positional arguments (subcommand and its operands).
    pub rest: Vec<String>,
}

fn parse(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        workload: None,
        seed: 11,
        seconds: None,
        trace: false,
        quick: false,
        json: None,
        rest: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => flags.workload = Some(value("--workload")?.clone()),
            "--seed" => {
                flags.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                flags.seconds = Some(s);
            }
            "--trace" => {
                flags.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => flags.quick = true,
            "--json" => flags.json = Some(PathBuf::from(value("--json")?)),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => flags.rest.push(arg.clone()),
        }
    }
    Ok(flags)
}

/// Where run artefacts go (`trace.json`, the durable scratch
/// directory): beside the executable, which is inside the build
/// directory and so inside the checkout.
pub fn out_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let dir = exe
        .parent()
        .expect("executable has a directory")
        .join("bench-out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// One workload, one process: prints the human-readable lines, then
/// the result object as the last line of stdout.
fn run_one(flags: &Flags) -> Result<bool, String> {
    let name = flags.workload.as_deref().ok_or(USAGE)?;
    let mut workload = workload::find(name).ok_or(format!("unknown workload {name}\n{USAGE}"))?;
    if flags.quick {
        workload.members = workload::QUICK_MEMBERS;
    }
    let seconds = match flags.seconds {
        Some(s) => s,
        None if flags.quick => 1.0,
        None => report::Contract::load()?.run_seconds,
    };
    let outcome = run::run(&run::Options {
        workload,
        seed: flags.seed,
        seconds,
        trace: flags.trace,
        out: out_dir()?,
    })?;

    let catalogue: Vec<(&str, &str)> = if flags.trace {
        metrics::PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect()
    } else {
        metrics::END_TO_END.to_vec()
    };
    for (name, _) in &outcome.metrics {
        assert!(
            catalogue.iter().any(|(n, _)| n == name),
            "metric {name} is not in the catalogue"
        );
    }
    let [checks, bundles, hubs, writes] = outcome.timed;
    println!(
        "{name} seed={} members={} timed: {checks} checks, {bundles} bundles, {hubs} hub reads, {writes} writes",
        flags.seed, workload.members
    );
    println!("answers_digest {}", outcome.digest);
    let mut fields = Vec::new();
    for (metric, unit) in catalogue {
        // A layer that does not run on this workload did no work: 0.
        let value = outcome
            .metrics
            .iter()
            .find(|(n, _)| *n == metric)
            .map_or(0.0, |&(_, v)| v);
        println!("  {metric:<28} {value:>16.4} {unit}");
        fields.push(format!(
            "\"{metric}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    let correct = outcome.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        fields.join(", ")
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() == 2 && args[0] == "--shard" {
        backend::serve_shard(&args[1]);
    }
    let result = parse(&args).and_then(|flags| match flags.rest.first().map(String::as_str) {
        None => run_one(&flags),
        Some("all") => report::all(&flags),
        Some("repeat") => report::repeat(&flags),
        Some("compare") => report::compare(&flags),
        Some(other) => Err(format!("unknown command {other}\n{USAGE}")),
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
