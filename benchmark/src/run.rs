//! One run of one workload: set up, answers before numbers, warm up,
//! measure for the given time, and (churn) recover.

use crate::backend::{Backend, Kind, Service};
use crate::inputs::{Inputs, Stream};
use crate::layers::{self, Replayer};
use crate::stats::{median, percentile, Digest};
use crate::trace::Tracer;
use crate::workload::{execute, Answer, Op, Rounds, Workload};
use socialreach_core::{
    AccessService, BundleStrategy, CheckPlan, Deployment, DurableService, EvalError, ReadStats,
    ResourceId, ServiceInstance,
};
use socialreach_graph::NodeId;
use std::collections::VecDeque;
use std::path::PathBuf;
use std::time::Instant;

/// Builds per untraced run; `setup_s` is their median. A backend whose
/// builds have already taken `SETUP_BUDGET_S` is not built again.
const SETUPS: usize = 3;
const SETUP_BUDGET_S: f64 = 4.0;
/// Reads `churn_durable` re-asks at its final state, on its twin and
/// after recovery.
const RECHECK: usize = 1000;
/// Bundles of the sample that also go through the per-condition path.
const FORCED_BUNDLES: usize = 10;
/// Share of a traced run's time spent untraced, for the overhead ratio.
const UNTRACED_SHARE: f64 = 0.3;

pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out: PathBuf,
}

pub struct Outcome {
    pub metrics: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
    pub digest: String,
    /// Timed ops by kind: checks, bundles, hub reads, writes.
    pub timed: [usize; 4],
}

#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn fail(&mut self, what: &str) {
        if self.failed < 20 {
            eprintln!("FAILED: {what}");
        }
        self.failed += 1;
    }

    /// Counts an attempted op; a refusal or error is a failure.
    fn took(&mut self, op: &Op, result: Result<Answer, EvalError>) -> Option<Answer> {
        self.attempted += 1;
        match result {
            Ok(answer) => Some(answer),
            Err(e) => {
                self.fail(&format!("{op:?}: {e}"));
                None
            }
        }
    }
}

#[derive(Default)]
struct Latencies {
    check_us: Vec<f64>,
    bundle_ms: Vec<f64>,
    hub_ms: Vec<f64>,
    write_us: Vec<f64>,
    after_write_us: Vec<f64>,
    reads: u64,
    wall_s: f64,
}

impl Latencies {
    fn record(&mut self, op: &Op, ns: u64) {
        let ns = ns as f64;
        match op {
            Op::Check { after_write, .. } => {
                self.check_us.push(ns / 1e3);
                if *after_write {
                    self.after_write_us.push(ns / 1e3);
                }
            }
            Op::Bundle(_) => self.bundle_ms.push(ns / 1e6),
            Op::Hub(_) => self.hub_ms.push(ns / 1e6),
            Op::Befriend(..) => self.write_us.push(ns / 1e3),
            Op::Share { .. } => {}
        }
        self.reads += op.is_read() as u64;
    }
}

/// The read of `op` with its work census, through any backend.
fn read_with_stats(svc: &dyn AccessService, op: &Op) -> Result<(Answer, ReadStats), EvalError> {
    match op {
        Op::Check { rid, who, .. } => svc
            .check_with_stats(*rid, *who)
            .map(|(d, s)| (Answer::Decision(d), s)),
        Op::Bundle(rids) => svc
            .audience_batch_with_stats(rids)
            .map(|(a, s)| (Answer::Audiences(a), s)),
        Op::Hub(rid) => svc
            .audience_batch_with_stats(&[*rid])
            .map(|(a, s)| (Answer::Audiences(a), s)),
        Op::Befriend(..) | Op::Share { .. } => unreachable!("the sample holds reads only"),
    }
}

/// Work censuses of the sample, by op kind.
#[derive(Default)]
struct SampleCensus {
    all: ReadStats,
    checks: ReadStats,
    bundles: ReadStats,
    check_us: Vec<f64>,
    total_s: f64,
}

/// Answers the sample through `svc`, timing each read.
fn answer_sample(
    svc: &dyn AccessService,
    sample: &[Op],
) -> (Vec<Result<Answer, EvalError>>, SampleCensus) {
    let mut census = SampleCensus::default();
    let mut answers = Vec::with_capacity(sample.len());
    for op in sample {
        let t = Instant::now();
        let read = read_with_stats(svc, op);
        let dt = t.elapsed();
        census.total_s += dt.as_secs_f64();
        if let Ok((_, stats)) = &read {
            census.all.absorb(stats);
            match op {
                Op::Check { .. } => {
                    census.checks.absorb(stats);
                    census.check_us.push(dt.as_secs_f64() * 1e6);
                }
                Op::Bundle(_) => census.bundles.absorb(stats),
                _ => {}
            }
        }
        answers.push(read.map(|(a, _)| a));
    }
    (answers, census)
}

fn first_read(reads: &dyn AccessService) -> Result<(), String> {
    reads
        .check(ResourceId(0), NodeId(0))
        .map(|_| ())
        .map_err(|e| format!("first read: {e}"))
}

/// What `churn_durable` keeps of its ops: the last reads, to re-ask
/// them, and every write, to bring a twin to the same state.
#[derive(Default)]
struct Journal {
    recent: VecDeque<Op>,
    writes: Vec<Op>,
}

impl Journal {
    fn note(&mut self, op: &Op) {
        if op.is_read() {
            if self.recent.len() == RECHECK {
                self.recent.pop_front();
            }
            self.recent.push_back(op.clone());
        } else {
            self.writes.push(op.clone());
        }
    }
}

/// What only the durable backend reports.
#[derive(Default)]
struct DurableNumbers {
    wal_bytes_per_op: f64,
    snapshot_write_s: f64,
    snapshot_bytes_per_member: f64,
    recovery_s: f64,
    recover_snapshot_s: f64,
    recover_replay_s: f64,
    recover_records_per_s: f64,
}

impl DurableNumbers {
    /// The run's one checkpoint, at a fixed position (after warm-up):
    /// recovery is this snapshot plus the WAL suffix the timed rounds
    /// append. File sizes are read here, where the op count is fixed.
    fn checkpoint(&mut self, svc: &DurableService, members: usize) -> Result<(), String> {
        let wal_len = std::fs::metadata(svc.dir().join("wal.log")).map_or(0, |f| f.len());
        self.wal_bytes_per_op = wal_len as f64 / svc.wal_records().max(1) as f64;
        let t = Instant::now();
        let path = svc.snapshot().map_err(|e| format!("snapshot: {e}"))?;
        self.snapshot_write_s = t.elapsed().as_secs_f64();
        let bytes = std::fs::metadata(&path).map_or(0, |f| f.len());
        self.snapshot_bytes_per_member = bytes as f64 / members as f64;
        Ok(())
    }

    /// Re-asks the run's last reads at the final state, on the twin
    /// after it received the same writes, and on the recovered backend;
    /// all three must agree. With `full_replay` it then recovers once
    /// more with no snapshot to start from. Returns the recovered
    /// backend and the peak RSS before the first drop.
    fn recover_and_recheck(
        &mut self,
        mut backend: Backend,
        twin: ServiceInstance,
        recent: &[Op],
        writes: &[Op],
        full_replay: bool,
        tally: &mut Tally,
    ) -> Result<(Backend, f64), String> {
        let ask = |svc: &mut Service, tally: &mut Tally| -> Vec<Option<Answer>> {
            recent
                .iter()
                .map(|op| {
                    let (result, _) = execute(svc, op);
                    tally.took(op, result)
                })
                .collect()
        };
        let compare = |tally: &mut Tally, want: &[Option<Answer>], got: &[Option<Answer>], what| {
            for (op, (a, b)) in recent.iter().zip(want.iter().zip(got)) {
                if a != b {
                    tally.fail(&format!("{what} {op:?}"));
                }
            }
        };
        let finals = ask(&mut backend.svc, tally);
        let mut twin = Service::Plain(twin);
        for op in writes {
            let _ = execute(&mut twin, op);
        }
        let on_twin = ask(&mut twin, tally);
        drop(twin);
        compare(
            tally,
            &finals,
            &on_twin,
            "twin disagrees at the final state on",
        );

        let peak = backend.peak_rss_mb();
        let (recovered, reopen_s, until_read_s) = backend.recover()?;
        backend = recovered;
        self.recovery_s = until_read_s;
        self.recover_snapshot_s = reopen_s;
        let after = ask(&mut backend.svc, tally);
        compare(tally, &finals, &after, "recovery changed the answer to");

        if full_replay {
            let dir = backend.dir.as_ref().expect("durable dir").0.clone();
            for entry in std::fs::read_dir(&dir).map_err(|e| format!("scratch dir: {e}"))? {
                let path = entry.map_err(|e| format!("scratch dir: {e}"))?.path();
                if path.extension().is_some_and(|x| x == "snap") {
                    std::fs::remove_file(&path).map_err(|e| format!("remove snapshot: {e}"))?;
                }
            }
            let (replayed, reopen_s, _) = backend.recover()?;
            backend = replayed;
            self.recover_replay_s = reopen_s;
            if let Service::Durable(svc) = &backend.svc {
                self.recover_records_per_s = svc.wal_records() as f64 / reopen_s;
            }
        }
        Ok((backend, peak))
    }
}

/// Oracle 1: the per-condition path of the backend itself — every
/// check of the sample in one forced batch, the first bundles and
/// every hub read one by one.
fn check_per_condition(
    reads: &dyn AccessService,
    sample: &[Op],
    good: &[Option<Answer>],
    tally: &mut Tally,
) {
    let pairs: Vec<(ResourceId, NodeId)> = sample
        .iter()
        .filter_map(|op| match op {
            Op::Check { rid, who, .. } => Some((*rid, *who)),
            _ => None,
        })
        .collect();
    let plan = CheckPlan::Audience(BundleStrategy::PerCondition);
    match reads.check_batch_forced(&pairs, 1, plan) {
        // The sample opens with its checks, so indexes line up.
        Ok((decisions, _)) => {
            for (i, d) in decisions.into_iter().enumerate() {
                if good[i].as_ref().is_some_and(|a| *a != Answer::Decision(d)) {
                    tally.fail(&format!(
                        "per-condition oracle disagrees on {:?}",
                        sample[i]
                    ));
                }
            }
        }
        Err(e) => tally.fail(&format!("per-condition check batch: {e}")),
    }
    let mut bundles_seen = 0;
    for (op, answer) in sample.iter().zip(good) {
        let rids: &[ResourceId] = match op {
            Op::Bundle(rids) if bundles_seen < FORCED_BUNDLES => {
                bundles_seen += 1;
                rids
            }
            Op::Hub(rid) => std::slice::from_ref(rid),
            _ => continue,
        };
        let forced = reads
            .audience_batch_forced(rids, BundleStrategy::PerCondition)
            .map(|(a, _)| Answer::Audiences(a));
        match forced {
            Ok(want) if answer.as_ref().is_some_and(|a| *a != want) => {
                tally.fail(&format!("per-condition oracle disagrees on {op:?}"))
            }
            Ok(_) => {}
            Err(e) => tally.fail(&format!("per-condition audience: {e}")),
        }
    }
}

/// Oracle 2: a `Deployment::online()` twin answers the same sample.
fn check_twin(
    twin: &ServiceInstance,
    sample: &[Op],
    good: &[Option<Answer>],
    tally: &mut Tally,
) -> Result<SampleCensus, String> {
    // The same first read the backend answered, so both start the
    // sample with the same decision cache.
    first_read(twin.reads())?;
    let (answers, census) = answer_sample(twin.reads(), sample);
    for ((op, want), got) in sample.iter().zip(answers).zip(good) {
        match want {
            Ok(want) if got.as_ref().is_some_and(|a| *a != want) => {
                tally.fail(&format!("single-graph twin disagrees on {op:?}"))
            }
            Ok(_) => {}
            Err(e) => tally.fail(&format!("twin read: {e}")),
        }
    }
    Ok(census)
}

pub fn run(opts: &Options) -> Result<Outcome, String> {
    let w = opts.workload;
    let mut m: Vec<(&'static str, f64)> = Vec::new();
    let mut tally = Tally::default();

    // ---- inputs (kept out of setup_s) --------------------------------
    let t = Instant::now();
    let inputs = Inputs::generate(w.members, opts.seed);
    let gen_graph_s = t.elapsed().as_secs_f64();
    let mut gen_stream_s = 0.0;
    let mut rounds = Rounds::new(w, Stream::new(&inputs, opts.seed));
    let mut generate = |rounds: &mut Rounds, sample: bool| {
        let t = Instant::now();
        let ops = if sample {
            rounds.sample()
        } else {
            rounds.next_round()
        };
        gen_stream_s += t.elapsed().as_secs_f64();
        ops
    };

    // ---- set-up: inputs in memory → first answered read --------------
    let mut setups = Vec::new();
    let mut backend = None;
    for _ in 0..if opts.trace { 1 } else { SETUPS } {
        if setups.iter().sum::<f64>() > SETUP_BUDGET_S {
            break;
        }
        drop(backend.take());
        let t = Instant::now();
        let built = Backend::build(w.kind, &inputs, &opts.out)?;
        first_read(built.svc.reads())?;
        setups.push(t.elapsed().as_secs_f64());
        backend = Some(built);
    }
    let mut backend = backend.expect("at least one set-up");
    let setup_s = median(&setups);

    // ---- answers before numbers --------------------------------------
    let sample = generate(&mut rounds, true);
    let (hits0, misses0) = backend.svc.reads().cache_stats();
    let (answers, own) = answer_sample(backend.svc.reads(), &sample);
    let mut digest = Digest::new();
    let mut good: Vec<Option<Answer>> = Vec::with_capacity(sample.len());
    for (op, result) in sample.iter().zip(answers) {
        let answer = tally.took(op, result);
        if let Some(a) = &answer {
            a.digest_into(&mut digest);
        }
        good.push(answer);
    }
    // Over the sample alone: every workload of one size and seed
    // answers the same sample, so their digests must be equal.
    let digest = digest.hex();
    check_per_condition(backend.svc.reads(), &sample, &good, &mut tally);
    // The single backend is its own single-graph twin.
    let mut twin = (w.kind != Kind::Single)
        .then(|| Deployment::online().from_graph(&inputs.graph, inputs.store.clone()));
    let twin_census = match &twin {
        Some(twin) => Some(check_twin(twin, &sample, &good, &mut tally)?),
        None => None,
    };
    if w.kind != Kind::Durable {
        twin = None; // only churn re-asks it; free the memory
    }
    drop(good);

    // ---- warm-up (untimed, fixed count) -------------------------------
    let mut journal = Journal::default();
    let journalled = w.kind == Kind::Durable;
    for _ in 0..w.warmup_rounds {
        for op in generate(&mut rounds, false) {
            let (result, _) = execute(&mut backend.svc, &op);
            tally.took(&op, result);
            if journalled {
                journal.note(&op);
            }
        }
    }
    // Every count below this line depends on how far the clock lets the
    // run get; the exact counts are taken here.
    let (hits1, misses1) = backend.svc.reads().cache_stats();
    let lookups = (hits1 - hits0) + (misses1 - misses0);
    let cache_hit_ratio = if lookups == 0 {
        0.0
    } else {
        (hits1 - hits0) as f64 / lookups as f64
    };
    let mut durable = DurableNumbers::default();
    if let Service::Durable(svc) = &backend.svc {
        durable.checkpoint(svc, w.members)?;
    }

    // ---- measure -------------------------------------------------------
    let mut lat = Latencies::default();
    let mut traced_lat = Latencies::default();
    let untraced_s = if opts.trace {
        opts.seconds * UNTRACED_SHARE
    } else {
        opts.seconds
    };
    let mut tracer = Tracer::new();
    while lat.wall_s < untraced_s {
        let ops = generate(&mut rounds, false);
        let round = Instant::now();
        for op in &ops {
            let (result, ns) = execute(&mut backend.svc, op);
            lat.record(op, ns);
            std::hint::black_box(tally.took(op, result));
        }
        lat.wall_s += round.elapsed().as_secs_f64();
        if journalled {
            ops.iter().for_each(|op| journal.note(op));
        }
    }
    // Built only now: the untraced part of a traced run must meet the
    // conditions of an untraced run, and the replayer's copies of the
    // graph are a hundred megabytes of fresh allocations.
    let mut replayer = opts.trace.then(|| {
        let mut replayer = Replayer::new(w.kind, &inputs);
        journal.writes.iter().for_each(|op| replayer.catch_up(op));
        replayer
    });
    if let Some(replayer) = &mut replayer {
        let seam = match w.kind {
            Kind::Single | Kind::Durable => "core::system",
            Kind::Sharded => "core::sharded",
            Kind::Networked => "core::remote::router",
        };
        while traced_lat.wall_s < opts.seconds - untraced_s {
            let ops = generate(&mut rounds, false);
            let round = Instant::now();
            for op in &ops {
                tracer.next_request();
                let write = !op.is_read();
                let hits = backend.svc.reads().cache_stats().0;
                let ((result, seam_ns), request_ns) = tracer.span("request", |t| {
                    let name = if write { "core::durability" } else { seam };
                    let ((result, _), seam_ns) = t.span(name, |_| execute(&mut backend.svc, op));
                    (result, seam_ns)
                });
                traced_lat.record(op, request_ns);
                std::hint::black_box(tally.took(op, result));
                let cache_hit = backend.svc.reads().cache_stats().0 > hits;
                replayer.replay(&mut tracer, &backend, op, request_ns, seam_ns, cache_hit);
            }
            traced_lat.wall_s += round.elapsed().as_secs_f64();
            if journalled {
                ops.iter().for_each(|op| journal.note(op));
            }
        }
    }

    // ---- churn: final answers, twin, recovery --------------------------
    let mut peak_rss_mb = backend.peak_rss_mb();
    if let Some(twin) = twin {
        let recent: Vec<Op> = journal.recent.into_iter().collect();
        let writes = &journal.writes;
        let (recovered, peak) =
            durable.recover_and_recheck(backend, twin, &recent, writes, opts.trace, &mut tally)?;
        backend = recovered;
        peak_rss_mb = peak;
    }

    // ---- metrics ---------------------------------------------------------
    let timed = [
        lat.check_us.len() + traced_lat.check_us.len(),
        lat.bundle_ms.len() + traced_lat.bundle_ms.len(),
        lat.hub_ms.len() + traced_lat.hub_ms.len(),
        lat.write_us.len() + traced_lat.write_us.len(),
    ];
    if !opts.trace {
        m.push(("setup_s", setup_s));
        m.push(("check_p50_us", percentile(&lat.check_us, 0.50)));
        m.push(("bundle_p50_ms", percentile(&lat.bundle_ms, 0.50)));
        m.push(("hub_p50_ms", percentile(&lat.hub_ms, 0.50)));
        m.push(("reads_per_s", lat.reads as f64 / lat.wall_s));
        m.push(("peak_rss_mb", peak_rss_mb));
    } else {
        let replayer = replayer.as_mut().expect("traced run replays");
        m.push(("gen.graph_s", gen_graph_s));
        replayer.metrics(&mut m);
        replayer.probe_csr(&mut m);
        replayer.probe_parse(&mut m);

        let reads = sample.len() as f64;
        let checks = sample
            .iter()
            .filter(|op| matches!(op, Op::Check { .. }))
            .count() as f64;
        let bundles = sample
            .iter()
            .filter(|op| matches!(op, Op::Bundle(_)))
            .count() as f64;
        // Single-graph work: the twin's census, or the backend's own.
        let single = twin_census.as_ref().unwrap_or(&own);
        m.push((
            "bfs.states_per_check",
            single.checks.states_expanded as f64 / checks,
        ));
        m.push((
            "bfs.states_per_bundle",
            single.bundles.states_expanded as f64 / bundles,
        ));
        m.push((
            "plan.prefix_share",
            own.bundles.prefix_share().unwrap_or(0.0),
        ));
        m.push(("cache.hit_ratio", cache_hit_ratio));
        // The tails, from the untraced part of this run.
        m.push(("check_p99_us", percentile(&lat.check_us, 0.99)));
        m.push(("bundle_p95_ms", percentile(&lat.bundle_ms, 0.95)));
        let steady = percentile(&lat.check_us, 0.50);
        m.push((
            "trace.overhead_ratio",
            percentile(&traced_lat.check_us, 0.50) / steady,
        ));
        m.push((
            "failed_ops_share",
            tally.failed as f64 / tally.attempted as f64,
        ));

        let sharded = matches!(w.kind, Kind::Sharded | Kind::Networked);
        if let (true, Some(single)) = (sharded, &twin_census) {
            m.push(("shard.rounds_per_read", own.all.rounds as f64 / reads));
            m.push((
                "shard.exported_per_read",
                own.all.exported_states as f64 / reads,
            ));
            m.push((
                "shard.states_per_read",
                own.all.states_expanded as f64 / reads,
            ));
            m.push((
                "shard.work_amplification",
                own.all.states_expanded as f64 / single.all.states_expanded.max(1) as f64,
            ));
            m.push((
                "shard.overhead_ratio",
                percentile(&own.check_us, 0.50) / percentile(&single.check_us, 0.50),
            ));
            m.push((
                "shard.read_floor_us",
                layers::probe_read_floor(backend.svc.reads(), &inputs),
            ));
        }
        if w.kind == Kind::Networked {
            let exported = (own.all.exported_states as f64 / reads).round() as usize;
            layers::probe_wire(exported, &mut m);
            m.push(("net.rtt_us", layers::probe_rtt(&backend)));
            m.push(("net.ingest_ops_per_s", backend.ingest_ops as f64 / setup_s));
            let twin = replayer
                .sharded_twin()
                .expect("networked replays keep a sharded twin");
            let (_, in_process) = answer_sample(twin.reads(), &sample);
            m.push((
                "net.transport_share",
                1.0 - in_process.total_s / own.total_s,
            ));
        }
        if w.kind == Kind::Single {
            m.push((
                "planner.overhead_ratio",
                layers::probe_planner(&inputs, &sample),
            ));
        }
        if w.kind == Kind::Durable {
            let after_write = percentile(&lat.after_write_us, 0.50);
            m.push(("single.republish_us", after_write - steady));
            m.push(("write_p50_us", percentile(&lat.write_us, 0.50)));
            m.push(("write_p99_us", percentile(&lat.write_us, 0.99)));
            m.push(("read_after_write_p50_us", after_write));
            m.push(("recovery_s", durable.recovery_s));
            m.push(("wal.bytes_per_op", durable.wal_bytes_per_op));
            m.push(("snapshot.write_s", durable.snapshot_write_s));
            m.push((
                "snapshot.bytes_per_member",
                durable.snapshot_bytes_per_member,
            ));
            m.push(("recover.snapshot_s", durable.recover_snapshot_s));
            m.push(("recover.replay_s", durable.recover_replay_s));
            m.push(("recover.records_per_s", durable.recover_records_per_s));
        }
        m.push(("trace.requests", tracer.requests() as f64));
        tracer
            .write_json(w.name, &opts.out.join("trace.json"))
            .map_err(|e| format!("trace.json: {e}"))?;
        // Last, so it covers the stream every phase above consumed.
        m.push(("gen.stream_s", gen_stream_s));
    }
    drop(backend);

    Ok(Outcome {
        metrics: m,
        attempted: tally.attempted,
        failed: tally.failed,
        digest,
        timed,
    })
}

impl Backend {
    /// Drops the durable service and reopens its directory. Returns
    /// the recovered backend, the time the reopen took, and the time
    /// from the start of the reopen to the first answered read.
    pub fn recover(self) -> Result<(Backend, f64, f64), String> {
        let Backend {
            svc,
            fleet,
            dir,
            ingest_ops,
        } = self;
        drop(svc);
        let path = &dir.as_ref().expect("only a durable backend recovers").0;
        let t = Instant::now();
        let reopened = Deployment::online()
            .durable(path)
            .map_err(|e| format!("recovery: {e}"))?;
        let reopen_s = t.elapsed().as_secs_f64();
        let svc = Service::Durable(reopened);
        first_read(svc.reads())?;
        let until_read_s = t.elapsed().as_secs_f64();
        Ok((
            Backend {
                svc,
                fleet,
                dir,
                ingest_ops,
            },
            reopen_s,
            until_read_s,
        ))
    }
}
