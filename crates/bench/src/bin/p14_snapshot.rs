//! Records experiment P14 (the telemetry-fed adaptive read planner:
//! warm adaptive vs forced-batch vs forced-per-condition across the
//! dense / sparse / cross-heavy / low-crossing / mixed regimes) as
//! `BENCH_p14.json`, plus human-readable tables on stdout.
//!
//! ```text
//! cargo run --release -p socialreach-bench --bin p14-snapshot           # default sizes
//! SOCIALREACH_QUICK=1 cargo run --release -p socialreach-bench --bin p14-snapshot
//! cargo run --release -p socialreach-bench --bin p14-snapshot -- out.json
//! ```
//!
//! In full (non-quick) mode the binary enforces the planner's
//! acceptance bars: warm adaptive within 10% of the best forced
//! strategy on every case, and strictly faster than the worst forced
//! strategy on the flip cases (where the engines genuinely diverge).

use serde::Value;
use socialreach_bench::p14::{
    assert_modes_agree, build_planned, build_reference, cases, run_stream,
};
use socialreach_bench::{quick_mode, Table};
use socialreach_core::{AccessService, PlannerMode};
use std::time::{Duration, Instant};

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_p14.json".to_string());
    let nodes = if quick_mode() { 150 } else { 700 };
    let rounds = if quick_mode() { 1 } else { 2 };
    let reps = if quick_mode() { 2 } else { 8 };
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let mut rows: Vec<Value> = Vec::new();
    let mut violations: Vec<String> = Vec::new();
    let mut table = Table::new(&[
        "case",
        "adaptive (ms)",
        "forced-batch (ms)",
        "forced-per-cond (ms)",
        "vs best",
        "vs worst",
        "adaptive mix (b/p/t)",
    ]);

    // SOCIALREACH_P14_CASE=<name> narrows the sweep to one regime
    // (handy when chasing a single violated bar).
    let only = std::env::var("SOCIALREACH_P14_CASE").ok();

    for case in cases(nodes, rounds) {
        if only.as_deref().is_some_and(|name| name != case.name) {
            continue;
        }
        let adaptive = build_planned(&case, PlannerMode::Adaptive);
        let forced_batch = build_planned(&case, PlannerMode::ForcedBatch);
        let forced_per_cond = build_planned(&case, PlannerMode::ForcedPerCondition);
        let reference = build_reference(&case);

        // Equivalence before measurement — and planner warm-up: after
        // this pass every mode has served the whole stream once and
        // the adaptive profiles are populated.
        assert_modes_agree(
            &case,
            &[&adaptive, &forced_batch, &forced_per_cond],
            reference.reads(),
        );

        // Interleaved repetitions (A/B/C, A/B/C, …) so machine drift —
        // frequency scaling, cache pressure on a shared runner — lands
        // evenly on all three modes instead of on whichever was timed
        // first; the per-mode *minimum* pass strips scheduler and
        // allocator noise, which dominates sub-millisecond passes (after
        // warm-up every mode replays the identical read stream, so
        // minima are directly comparable).
        let svcs: [&dyn AccessService; 3] = [&adaptive, &forced_batch, &forced_per_cond];
        let mut minima = [Duration::MAX; 3];
        for svc in svcs {
            run_stream(svc, &case.reads); // warm-up pass, untimed
        }
        for _ in 0..reps {
            for (min, svc) in minima.iter_mut().zip(svcs) {
                let t0 = Instant::now();
                run_stream(svc, &case.reads);
                *min = (*min).min(t0.elapsed());
            }
        }
        let per_pass = |min: Duration| min.as_secs_f64() * 1e3;
        let (a_ms, fb_ms, fp_ms) = (
            per_pass(minima[0]),
            per_pass(minima[1]),
            per_pass(minima[2]),
        );
        let best = fb_ms.min(fp_ms);
        let worst = fb_ms.max(fp_ms);
        let vs_best = a_ms / best;
        let vs_worst = a_ms / worst;
        let tally = adaptive.planner().executed();

        table.row(vec![
            case.name.to_string(),
            format!("{a_ms:.3}"),
            format!("{fb_ms:.3}"),
            format!("{fp_ms:.3}"),
            format!("{vs_best:.2}x"),
            format!("{vs_worst:.2}x"),
            format!(
                "{}/{}/{}",
                tally.batched, tally.per_condition, tally.targeted
            ),
        ]);
        rows.push(Value::Map(vec![
            ("case".into(), Value::Str(case.name.into())),
            ("flip".into(), Value::Bool(case.flip)),
            ("reads".into(), Value::Int(case.reads.len() as i64)),
            ("adaptive_ms".into(), Value::Float(a_ms)),
            ("forced_batch_ms".into(), Value::Float(fb_ms)),
            ("forced_per_condition_ms".into(), Value::Float(fp_ms)),
            ("adaptive_vs_best".into(), Value::Float(vs_best)),
            ("adaptive_vs_worst".into(), Value::Float(vs_worst)),
            (
                "adaptive_executed_batched".into(),
                Value::Int(tally.batched as i64),
            ),
            (
                "adaptive_executed_per_condition".into(),
                Value::Int(tally.per_condition as i64),
            ),
            (
                "adaptive_executed_targeted".into(),
                Value::Int(tally.targeted as i64),
            ),
        ]));

        if !quick_mode() {
            if vs_best > 1.10 {
                violations.push(format!(
                    "{}: warm adaptive {a_ms:.3}ms exceeds best forced {best:.3}ms by more than 10%",
                    case.name
                ));
            }
            if case.flip && a_ms >= worst {
                violations.push(format!(
                    "{}: warm adaptive {a_ms:.3}ms not better than worst forced {worst:.3}ms",
                    case.name
                ));
            }
        }
    }

    println!("\nP14 — adaptive planner vs forced strategies ({cores} cores)");
    println!("{}", table.render());

    let doc = Value::Map(vec![
        (
            "experiment".into(),
            Value::Str("p14_adaptive_planner".into()),
        ),
        (
            "description".into(),
            Value::Str(
                "Telemetry-fed adaptive read planner: warm PlannedService(Adaptive) vs the \
                 forced-batch and forced-per-condition modes on dense / sparse / cross-heavy / \
                 low-crossing / mixed read streams (audience bundles interleaved with check \
                 batches); equivalence against the unplanned reference asserted on the full \
                 stream before every measurement. Reported times are the minimum full-stream \
                 pass over interleaved repetitions. adaptive_vs_best <= 1.10 and (on flip \
                 cases) adaptive_vs_worst < 1.0 are enforced in non-quick runs"
                    .into(),
            ),
        ),
        ("nodes".into(), Value::Int(nodes as i64)),
        ("stream_rounds".into(), Value::Int(rounds as i64)),
        ("repetitions".into(), Value::Int(reps as i64)),
        ("cores".into(), Value::Int(cores as i64)),
        ("cases".into(), Value::Array(rows)),
    ]);
    let json = serde_json::to_string(&doc).expect("snapshot serializes");
    std::fs::write(&out_path, json + "\n").expect("snapshot written");
    println!("wrote {out_path}");

    // Enforce the acceptance bars after the table and JSON are out, so
    // a violating run still leaves its full evidence behind.
    assert!(
        violations.is_empty(),
        "planner acceptance bars violated:\n{}",
        violations.join("\n")
    );
}
