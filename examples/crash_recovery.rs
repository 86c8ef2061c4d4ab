//! Crash-recovery drill: populate a durable deployment (optionally
//! aborting mid-stream to simulate a crash), then recover it in a
//! fresh process and audit every decision against ground truth
//! recomputed from the recovered state itself.
//!
//! ```text
//! cargo run --example crash_recovery -- populate <dir> [crash_after]
//! cargo run --example crash_recovery -- audit <dir>
//! cargo run --example crash_recovery -- timetravel <dir>
//! ```
//!
//! `populate` writes a deterministic community graph with a handful of
//! shared resources through the write-ahead-logged service, snapshots
//! halfway, and — when `crash_after` is given — calls
//! `std::process::abort()` after that many mutations, leaving whatever
//! the WAL captured. `audit` recovers the directory, prints the
//! recovery report, regenerates a seeded request stream whose expected
//! outcomes come from the recovered backend's canonical graph
//! (`DurableService::canonical`), and replays it through the serving
//! backend: any divergence between the two fails the audit. A populate → kill → audit
//! round-trip is the crash-safety smoke test CI runs.
//!
//! `timetravel` drills the point-in-time read surface over a
//! populated directory: it recovers the state one record before the
//! present (`Deployment::durable_at`), asserts the historical album
//! audience differs from the present one (the final populate record
//! is an age overwrite that revokes a member), compacts the log at
//! its snapshot-anchored horizon, shows that pre-base positions
//! become typed refusals, and finishes with the same full replay
//! audit — the compacted directory must still recover faithfully.

use rand::rngs::StdRng;
use rand::SeedableRng;
use socialreach::workload::{compare_replays, replay_requests, uniform_requests};
use socialreach::{Deployment, DurableService, ResourceId};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["populate", dir] => populate(dir, None),
        ["populate", dir, crash_after] => match crash_after.parse() {
            Ok(k) => populate(dir, Some(k)),
            Err(_) => usage(),
        },
        ["audit", dir] => audit(dir),
        ["timetravel", dir] => timetravel(dir),
        _ => usage(),
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: crash_recovery populate <dir> [crash_after] | audit <dir> | timetravel <dir>"
    );
    ExitCode::from(2)
}

/// A `MutateService` shim that counts mutations and aborts the process
/// at the configured point — the crash injector.
struct CrashingWrites<'a> {
    svc: &'a mut DurableService,
    done: u64,
    crash_after: Option<u64>,
}

impl CrashingWrites<'_> {
    fn tick(&mut self) {
        self.done += 1;
        if self.crash_after == Some(self.done) {
            eprintln!("crash_recovery: aborting after {} mutations", self.done);
            std::process::abort();
        }
    }

    fn user(&mut self, name: &str) -> socialreach::NodeId {
        let id = self.svc.writes().add_user(name);
        self.tick();
        id
    }

    fn edge(&mut self, src: socialreach::NodeId, label: &str, dst: socialreach::NodeId) {
        self.svc.writes().add_relationship(src, label, dst);
        self.tick();
    }

    fn attr(&mut self, user: socialreach::NodeId, key: &str, value: i64) {
        self.svc.writes().set_user_attr(user, key, value.into());
        self.tick();
    }

    fn resource(&mut self, owner: socialreach::NodeId) -> ResourceId {
        let rid = self.svc.writes().add_resource(owner);
        self.tick();
        rid
    }

    fn rule(&mut self, rid: ResourceId, path: &str) {
        self.svc.writes().add_rule(rid, path).expect("valid rule");
        self.tick();
    }
}

fn populate(dir: &str, crash_after: Option<u64>) -> ExitCode {
    let mut svc = match deployment().durable(dir) {
        Ok(svc) => svc,
        Err(e) => {
            eprintln!("error: opening {dir}: {e}");
            return ExitCode::from(2);
        }
    };
    let mut w = CrashingWrites {
        svc: &mut svc,
        done: 0,
        crash_after,
    };

    // Two ring communities bridged by colleagues, with attribute-gated
    // and disjunctive policies — deterministic, so every run (and every
    // crash prefix of a run) is a prefix of the same history.
    let a: Vec<_> = (0..12).map(|i| w.user(&format!("a{i}"))).collect();
    for i in 0..12 {
        w.edge(a[i], "friend", a[(i + 1) % 12]);
    }
    let b: Vec<_> = (0..8).map(|i| w.user(&format!("b{i}"))).collect();
    for i in 0..7 {
        w.edge(b[i], "friend", b[i + 1]);
    }
    w.edge(a[3], "colleague", b[0]);
    w.edge(b[4], "colleague", a[9]);
    for (i, &m) in a.iter().enumerate() {
        w.attr(m, "age", 15 + 3 * i as i64);
    }
    let album = w.resource(a[0]);
    w.rule(album, "friend+[1..4]{age>=21}");
    let feed = w.resource(a[3]);
    w.rule(feed, "friend+[1,2]");
    w.rule(feed, "colleague*[1]/friend+[1..3]");
    let memo = w.resource(b[0]);
    w.rule(memo, "friend+[1..8]");

    // Snapshot now, then keep writing: recovery exercises snapshot +
    // WAL-suffix replay. The crash counter carries across the
    // snapshot.
    let done = w.done;
    svc.snapshot().expect("snapshot persists");
    let mut w = CrashingWrites {
        svc: &mut svc,
        done,
        crash_after,
    };
    let c: Vec<_> = (0..4).map(|i| w.user(&format!("c{i}"))).collect();
    w.edge(c[0], "follows", a[0]);
    w.edge(c[1], "follows", c[0]);
    w.edge(c[2], "friend", c[3]);
    let wall = w.resource(a[0]);
    w.rule(wall, "follows-[1,2]");
    // The final record revokes a2 from the age-gated album — so the
    // state one position back answers differently than the present,
    // which is what the `timetravel` drill asserts.
    w.attr(a[2], "age", 16);

    println!(
        "populated {} members, {} resources, {} WAL records in {dir}",
        svc.reads().num_members(),
        svc.canonical().1.num_resources(),
        svc.wal_records()
    );
    ExitCode::SUCCESS
}

fn audit(dir: &str) -> ExitCode {
    let svc = match deployment().durable(dir) {
        Ok(svc) => svc,
        Err(e) => {
            eprintln!("error: recovery failed: {e}");
            return ExitCode::from(2);
        }
    };
    let report = svc.recovery_report();
    match &report.snapshot_loaded {
        Some((name, covered)) => println!(
            "recovered from {name} (covers {covered} records) + {} replayed",
            report.records_replayed
        ),
        None => println!(
            "recovered from empty state + {} replayed",
            report.records_replayed
        ),
    }
    for (name, err) in &report.snapshots_skipped {
        println!("skipped {name}: {err}");
    }
    if let Some(torn) = &report.torn_tail {
        println!(
            "discarded torn tail at byte {}: {}",
            torn.offset, torn.detail
        );
    }

    let (graph, store) = svc.canonical();
    let rids: Vec<ResourceId> = store.resources().map(|(rid, _)| rid).collect();
    if rids.is_empty() || graph.num_nodes() == 0 {
        println!("nothing recovered to audit (empty state)");
        return ExitCode::SUCCESS;
    }

    // Ground truth is the online engine run over the recovered
    // backend's canonical graph (for a partitioned backend, one graph
    // rebuilt from its shards); the decisions come from the recovered
    // serving backend. Faithful replay means the two agree.
    let mut rng = StdRng::seed_from_u64(0xD15A57E5);
    let requests = uniform_requests(&graph, store, &rids, 400, &mut rng);
    let replay = match replay_requests(svc.reads(), &requests, 4) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: replay failed: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "audited {} requests: {} grants, {} denies, {} mismatches",
        replay.requests,
        replay.grants,
        replay.denies,
        replay.mismatches.len()
    );
    if replay.is_faithful() {
        println!("AUDIT PASS");
        ExitCode::SUCCESS
    } else {
        eprintln!("AUDIT FAIL: recovered backend diverges from recovered state");
        ExitCode::FAILURE
    }
}

fn timetravel(dir: &str) -> ExitCode {
    let deployment = deployment();
    let album = ResourceId(0);
    let mut svc = match deployment.durable(dir) {
        Ok(svc) => svc,
        Err(e) => {
            eprintln!("error: recovery failed: {e}");
            return ExitCode::from(2);
        }
    };
    let present_position = svc.wal_records();
    if present_position == 0 {
        eprintln!("error: {dir} holds no history; run populate first");
        return ExitCode::from(2);
    }
    let present = svc.reads().audience(album).expect("present audience reads");

    // One record back: populate's final record is the age overwrite
    // that revoked a2, so the historical audience must be larger.
    let mid = present_position - 1;
    let past_svc = match deployment.durable_at(dir, mid) {
        Ok(svc) => svc,
        Err(e) => {
            eprintln!("error: historical recovery at {mid} failed: {e}");
            return ExitCode::from(2);
        }
    };
    let past = past_svc
        .reads()
        .audience(album)
        .expect("historical audience reads");
    println!(
        "album audience: {} members at position {mid}, {} at present ({present_position})",
        past.len(),
        present.len()
    );
    if past == present {
        eprintln!("TIMETRAVEL FAIL: historical audience equals the present one");
        return ExitCode::FAILURE;
    }

    // Drift report: the same request stream answered at both points.
    // Requests the final record decided differently show up as flips.
    let (graph, store) = svc.canonical();
    let rids: Vec<ResourceId> = store.resources().map(|(rid, _)| rid).collect();
    let mut rng = StdRng::seed_from_u64(0x7173);
    let requests = uniform_requests(&graph, store, &rids, 200, &mut rng);
    let drift = match compare_replays(past_svc.reads(), svc.reads(), &requests, 4) {
        Ok(drift) => drift,
        Err(e) => {
            eprintln!("error: drift replay failed: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "replayed {} requests at both positions: {} decisions flipped ({} grants then, {} now)",
        drift.requests,
        drift.flips.len(),
        drift.grants_then,
        drift.grants_now
    );

    // Retention: cut the log at the snapshot-anchored horizon, then
    // show pre-base history refuses loudly instead of answering wrong.
    let report = match svc.compact(present_position) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: compaction failed: {e}");
            return ExitCode::from(2);
        }
    };
    let Some((anchor, base)) = report.anchor.clone() else {
        eprintln!("TIMETRAVEL FAIL: no snapshot anchored the compaction");
        return ExitCode::FAILURE;
    };
    println!(
        "compacted at {base} (anchor {anchor}): dropped {} records, deleted {} snapshots",
        report.records_dropped,
        report.snapshots_deleted.len()
    );
    if base > 0 {
        match deployment.durable_at(dir, base - 1) {
            Err(socialreach::DurabilityError::HistoryCompacted { .. }) => {
                println!("position {} is below the horizon: typed refusal", base - 1);
            }
            Err(e) => {
                eprintln!("error: expected HistoryCompacted below the base, got {e}");
                return ExitCode::from(2);
            }
            Ok(_) => {
                eprintln!("TIMETRAVEL FAIL: pre-base position recovered silently");
                return ExitCode::FAILURE;
            }
        }
    }

    // The historical read above the base still works on the compacted
    // log, and full recovery still replays faithfully.
    drop(svc);
    match deployment.durable_at(dir, mid) {
        Ok(again) => {
            let audience = again
                .reads()
                .audience(album)
                .expect("post-compaction historical reads");
            if audience != past {
                eprintln!("TIMETRAVEL FAIL: compaction changed a historical answer");
                return ExitCode::FAILURE;
            }
        }
        Err(e) => {
            eprintln!("error: post-compaction historical recovery failed: {e}");
            return ExitCode::from(2);
        }
    }
    audit(dir)
}

/// Honors `SOCIALREACH_SHARDS` like the CLI, so the drill can run
/// against either deployment shape.
fn deployment() -> Deployment {
    match std::env::var("SOCIALREACH_SHARDS")
        .ok()
        .and_then(|v| v.parse::<u32>().ok())
        .filter(|&n| n > 0)
    {
        Some(n) => Deployment::sharded(n, 0),
        None => Deployment::online(),
    }
}
