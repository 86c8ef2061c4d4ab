//! `socialreach` — command-line front end for reachability-based access
//! control, served through the deployment-agnostic `AccessService` API.
//!
//! ```text
//! socialreach check <edges.tsv> <owner> <path-expr> <requester>
//! socialreach audience <edges.tsv> <owner> <path-expr>
//! socialreach explain <edges.tsv> <owner> <path-expr> <requester>
//! socialreach query <edges.tsv> <owner> <query>
//! socialreach stats <edges.tsv>
//! ```
//!
//! `<edges.tsv>` is an edge list (`src <TAB> label <TAB> dst`, `#`
//! comments allowed; two-column lines default to the label `follows`),
//! or `-` for stdin. `<path-expr>` uses the policy grammar, e.g.
//! `'friend+[1,2]/colleague+[1]'` — or, everywhere a policy is
//! accepted, the openCypher-flavored `MATCH` syntax, e.g.
//! `'MATCH (owner)-[:friend*1..2]->(v {age >= 18})'`. Each
//! invocation of `check`/`audience`/`explain` registers a resource
//! owned by `<owner>` under that rule and serves the request with the
//! full policy semantics — so the owner is always granted, and
//! `audience` always lists the owner.
//!
//! `query` is the **read-only** entry point: it evaluates `<query>`
//! (either syntax) anchored at `<owner>` without registering any
//! resource or rule — nothing is interned, nothing is logged, and a
//! query naming a relationship type the graph has never seen simply
//! has an empty audience. Malformed queries are refused with a
//! caret-annotated parse error.
//!
//! Set `SOCIALREACH_SHARDS=N` to serve the same request from an
//! N-shard deployment instead of the single-graph one; commands,
//! outputs and exit codes are identical — that interchangeability is
//! the point of the service API.
//!
//! Set `SOCIALREACH_PLANNER=adaptive|batch|per-condition` to route
//! reads through the telemetry-fed planner (`adaptive` learns
//! per-resource profiles and picks the winning engine per bundle;
//! `batch`/`per-condition` force one strategy everywhere). The lever
//! applies to the ephemeral serving path; durable deployments
//! (`SOCIALREACH_DATA_DIR`) serve unplanned — the WAL decorator owns
//! that seam.
//!
//! Set `SOCIALREACH_DATA_DIR=<dir>` to serve durably: the edge list is
//! ingested through the write-ahead-logged service (every mutation
//! persists in `<dir>`), and passing `@` as `<edges.tsv>` serves the
//! state recovered from `<dir>` without ingesting anything. The
//! resource/rule registered by the invocation is logged too, so a
//! durable directory accumulates policy across invocations.
//! `SOCIALREACH_CRASH_AFTER=k` aborts the process after the k-th
//! logged ingestion mutation — a crash lever for recovery drills.
//!
//! ## Audit reads over the durable history
//!
//! Set `SOCIALREACH_AUDIT_AT=k` (with `SOCIALREACH_DATA_DIR` and `@`
//! as `<edges.tsv>`) to serve `check`/`audience`/`explain` from the
//! state **as of position k** — after the first `k` logged records —
//! recovered read-only into a throwaway backend; the resource/rule
//! the invocation registers stays ephemeral, nothing is logged. Two
//! verbs walk the history itself:
//!
//! ```text
//! socialreach history [from [to]]      # positions + logged records
//! socialreach diff <rid> <k1> <k2>     # who entered/left an audience
//! ```
//!
//! `history` prints each record with its absolute position (the
//! position is the state *before* the record; `durable_at(k)` and
//! `SOCIALREACH_AUDIT_AT=k` address it). `diff` compares resource
//! `<rid>`'s audience between positions `k1` and `k2`: `+` entered,
//! `-` left, `=` retained. Both honor `SOCIALREACH_SHARDS`. Retention
//! is a library lever — `DurableService::compact(horizon)` truncates
//! history below a snapshot-anchored horizon, after which positions
//! below the new base are typed refusals.
//!
//! ## Shards as processes
//!
//! Two verbs turn the binary into a distributed deployment:
//!
//! ```text
//! socialreach serve-shard <addr>
//! socialreach serve-router <addr1,addr2,..> check    <edges.tsv> <owner> <path-expr> <requester>
//! socialreach serve-router <addr1,addr2,..> audience <edges.tsv> <owner> <path-expr>
//! socialreach serve-router <addr1,addr2,..> explain  <edges.tsv> <owner> <path-expr> <requester>
//! ```
//!
//! `serve-shard` runs one shard server process on `<addr>` — a TCP
//! endpoint (`127.0.0.1:0` picks an ephemeral port) or a Unix domain
//! socket (`unix:/path/sock`). It prints `LISTENING <actual-addr>` on
//! stdout once bound and serves until a `Shutdown` request arrives.
//! `serve-router` drives a fleet of such processes as one deployment:
//! it loads the edge list through the router (two-phase epoch fence per
//! mutation batch), registers the resource/rule, and answers with the
//! same outputs and exit codes as the in-process verbs. Each
//! `serve-router` invocation expects a **freshly started** fleet — a
//! router refuses shards already ahead of its epoch rather than adopt
//! state it did not populate (long-lived routers drive a fleet through
//! the library API instead). See
//! `examples/distributed_drill.rs` for a scripted populate → kill →
//! recover → audit drill over these verbs.
//!
//! Exit codes: 0 = granted / success, 1 = denied, 2 = usage or input
//! error.

use socialreach::graph::ShardAssignment;
use socialreach::workload::read_edge_list;
use socialreach::{
    AccessService, Applied, Decision, Deployment, DurableService, MutateService, Mutation,
    NetworkedSystem, PlannedService, PlannerMode, PolicyStore, ResourceId, ServiceInstance,
    ShardAddr, ShardServer, SocialGraph,
};
use std::io::{Read as _, Write as _};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(granted) => {
            if granted {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "usage:
  socialreach check    <edges.tsv> <owner> <path-expr> <requester>
  socialreach audience <edges.tsv> <owner> <path-expr>
  socialreach explain  <edges.tsv> <owner> <path-expr> <requester>
  socialreach query    <edges.tsv> <owner> <query>
  socialreach stats    <edges.tsv>
  socialreach history  [from [to]]
  socialreach diff     <rid> <k1> <k2>
  socialreach serve-shard  <addr>
  socialreach serve-router <addr1,addr2,..> check|audience|explain|query <edges.tsv> <owner> <path-expr> [requester]

<edges.tsv>: 'src<TAB>label<TAB>dst' lines ('-' reads stdin,
             '@' serves the recovered SOCIALREACH_DATA_DIR state);
<path-expr>: e.g. 'friend+[1,2]/colleague+[1]{age>=18}', or openCypher
  'MATCH (owner)-[:friend*1..2]->(v {age >= 18})' — both
  syntaxes work wherever a policy or query is accepted;
<query>: a read-only audience query in either syntax — evaluated
  anchored at <owner> without registering a resource or rule;
SOCIALREACH_SHARDS=N serves from an N-shard deployment;
SOCIALREACH_PLANNER=adaptive|batch|per-condition routes reads through
  the telemetry-fed planner (ephemeral serving only);
SOCIALREACH_DATA_DIR=<dir> write-ahead logs every mutation in <dir>;
SOCIALREACH_CRASH_AFTER=k aborts after k logged ingestion mutations;
SOCIALREACH_AUDIT_AT=k serves check/audience/explain from the state
  as of position k (read-only; requires SOCIALREACH_DATA_DIR and '@').

'history' lists the logged records of SOCIALREACH_DATA_DIR with their
absolute positions; 'diff' shows who entered (+), left (-) and stayed
(=) in resource <rid>'s audience between positions <k1> and <k2>.
History below a compaction horizon (DurableService::compact) is a
typed refusal, never a wrong answer.

'serve-shard' runs one shard server process on <addr> ('127.0.0.1:0'
picks an ephemeral TCP port; 'unix:/path/sock' serves a Unix domain
socket), prints 'LISTENING <actual-addr>' once bound, and serves until
a Shutdown request. 'serve-router' drives a comma-separated fleet of
such processes as one deployment with the in-process verbs' outputs
and exit codes.";

fn run(args: &[String]) -> Result<bool, String> {
    let cmd = args.first().ok_or("missing command")?;
    match cmd.as_str() {
        "check" => {
            let [file, owner, path, requester] = take::<4>(&args[1..])?;
            let (svc, rid) = serve(file, owner, path)?;
            let requester = resolve(svc.reads(), requester)?;
            let granted = svc.reads().check(rid, requester).map_err(to_msg)? == Decision::Grant;
            println!("{}", if granted { "GRANT" } else { "DENY" });
            Ok(granted)
        }
        "audience" => {
            let [file, owner, path] = take::<3>(&args[1..])?;
            let (svc, rid) = serve(file, owner, path)?;
            let reads = svc.reads();
            for n in reads.audience(rid).map_err(to_msg)? {
                println!("{}", reads.member_name(n));
            }
            Ok(true)
        }
        "explain" => {
            let [file, owner, path, requester] = take::<4>(&args[1..])?;
            let (svc, rid) = serve(file, owner, path)?;
            let requester = resolve(svc.reads(), requester)?;
            match svc.reads().explain_lines(rid, requester).map_err(to_msg)? {
                Some(lines) => {
                    println!("GRANT via {}", lines.join("; "));
                    Ok(true)
                }
                None => {
                    println!("DENY (no walk matches the policy)");
                    Ok(false)
                }
            }
        }
        "query" => {
            let [file, owner, text] = take::<3>(&args[1..])?;
            let svc = backend(file)?;
            let reads = svc.reads();
            let owner = resolve(reads, owner)?;
            for n in reads.query_audience(owner, text).map_err(to_msg)? {
                println!("{}", reads.member_name(n));
            }
            Ok(true)
        }
        "stats" => {
            let [file] = take::<1>(&args[1..])?;
            if file.as_str() == "@" {
                let dir = data_dir().ok_or("'@' requires SOCIALREACH_DATA_DIR")?;
                let svc = deployment()?
                    .durable(&dir)
                    .map_err(|e| format!("recovering {dir}: {e}"))?;
                println!(
                    "{}",
                    socialreach::workload::GraphStats::compute(&svc.canonical().0)
                );
            } else {
                let g = load(file)?;
                println!("{}", socialreach::workload::GraphStats::compute(&g));
            }
            Ok(true)
        }
        "history" => {
            let dir = data_dir().ok_or("'history' requires SOCIALREACH_DATA_DIR")?;
            let (from, to) = match &args[1..] {
                [] => (0, u64::MAX),
                [f] => (parse_position(f)?, u64::MAX),
                [f, t] => (parse_position(f)?, parse_position(t)?),
                more => {
                    return Err(format!(
                        "expected at most 2 arguments, found {}",
                        more.len()
                    ))
                }
            };
            let entries = socialreach::read_history(&dir)
                .map_err(|e| format!("reading the history of {dir}: {e}"))?;
            for entry in entries {
                if entry.position >= from && entry.position <= to {
                    println!("{:>6}  {}", entry.position, entry.record);
                }
            }
            Ok(true)
        }
        "diff" => {
            let [rid, k1, k2] = take::<3>(&args[1..])?;
            let dir = data_dir().ok_or("'diff' requires SOCIALREACH_DATA_DIR")?;
            let rid = ResourceId(
                rid.parse()
                    .map_err(|_| format!("<rid> must be a resource id, got {rid:?}"))?,
            );
            let (from, to) = (parse_position(k1)?, parse_position(k2)?);
            let deployment = deployment()?;
            let diff = deployment
                .audience_diff(&dir, rid, from, to)
                .map_err(|e| format!("auditing {dir}: {e}"))?;
            // Member ids are stable across the history; the later
            // point knows every name the diff can mention.
            let names = deployment
                .durable_at(&dir, from.max(to))
                .map_err(|e| format!("recovering {dir}: {e}"))?;
            let reads = names.reads();
            println!(
                "resource {} audience, position {from} -> {to}: {} entered, {} left, {} retained",
                rid.0,
                diff.entered.len(),
                diff.left.len(),
                diff.retained.len()
            );
            for m in &diff.entered {
                println!("+ {}", reads.member_name(*m));
            }
            for m in &diff.left {
                println!("- {}", reads.member_name(*m));
            }
            for m in &diff.retained {
                println!("= {}", reads.member_name(*m));
            }
            Ok(true)
        }
        "serve-shard" => {
            let [addr] = take::<1>(&args[1..])?;
            let server = ShardServer::bind(&ShardAddr::parse(addr))
                .map_err(|e| format!("binding {addr}: {e}"))?;
            println!("LISTENING {}", server.local_addr());
            let _ = std::io::stdout().flush();
            server.run().map_err(|e| format!("serving {addr}: {e}"))?;
            Ok(true)
        }
        "serve-router" => {
            let (addrs, rest) = args[1..]
                .split_first()
                .ok_or("missing <addr1,addr2,..> fleet list")?;
            let addrs: Vec<ShardAddr> = addrs.split(',').map(ShardAddr::parse).collect();
            let verb = rest.first().ok_or("missing router verb")?;
            match verb.as_str() {
                "check" => {
                    let [file, owner, path, requester] = take::<4>(&rest[1..])?;
                    let (svc, rid) = serve_networked(&addrs, file, owner, path)?;
                    let requester = resolve(svc.reads(), requester)?;
                    let granted =
                        svc.reads().check(rid, requester).map_err(to_msg)? == Decision::Grant;
                    println!("{}", if granted { "GRANT" } else { "DENY" });
                    Ok(granted)
                }
                "audience" => {
                    let [file, owner, path] = take::<3>(&rest[1..])?;
                    let (svc, rid) = serve_networked(&addrs, file, owner, path)?;
                    let reads = svc.reads();
                    for n in reads.audience(rid).map_err(to_msg)? {
                        println!("{}", reads.member_name(n));
                    }
                    Ok(true)
                }
                "explain" => {
                    let [file, owner, path, requester] = take::<4>(&rest[1..])?;
                    let (svc, rid) = serve_networked(&addrs, file, owner, path)?;
                    let requester = resolve(svc.reads(), requester)?;
                    match svc.reads().explain_lines(rid, requester).map_err(to_msg)? {
                        Some(lines) => {
                            println!("GRANT via {}", lines.join("; "));
                            Ok(true)
                        }
                        None => {
                            println!("DENY (no walk matches the policy)");
                            Ok(false)
                        }
                    }
                }
                "query" => {
                    let [file, owner, text] = take::<3>(&rest[1..])?;
                    let svc = networked(&addrs, file)?;
                    let reads = svc.reads();
                    let owner = resolve(reads, owner)?;
                    for n in reads.query_audience(owner, text).map_err(to_msg)? {
                        println!("{}", reads.member_name(n));
                    }
                    Ok(true)
                }
                other => Err(format!(
                    "unknown router verb {other:?} (expected check|audience|explain|query)"
                )),
            }
        }
        other => Err(format!("unknown command {other:?}")),
    }
}

/// Loads the edge list through a router over the shard fleet at
/// `addrs`, shares one resource owned by `owner` under the `path`
/// rule, and returns the networked service instance plus the resource.
fn serve_networked(
    addrs: &[ShardAddr],
    file: &str,
    owner: &str,
    path: &str,
) -> Result<(ServiceInstance, ResourceId), String> {
    let mut svc = networked(addrs, file)?;
    let owner = resolve(svc.reads(), owner)?;
    let rid = svc.writes().add_resource(owner);
    svc.writes().add_rule(rid, path).map_err(to_msg)?;
    Ok((svc, rid))
}

/// Loads the edge list through a router over the shard fleet at
/// `addrs` with an empty policy store.
fn networked(addrs: &[ShardAddr], file: &str) -> Result<ServiceInstance, String> {
    let g = load(file)?;
    let assignment = ShardAssignment::hashed(addrs.len() as u32, 0);
    let sys = NetworkedSystem::from_graph(addrs, assignment, &g, PolicyStore::new())
        .map_err(|e| format!("populating the fleet: {e}"))?;
    Ok(ServiceInstance::Networked(sys))
}

fn parse_position(arg: &str) -> Result<u64, String> {
    arg.parse()
        .map_err(|_| format!("positions are non-negative record counts, got {arg:?}"))
}

/// A serving backend: ephemeral (built per invocation), planned
/// (ephemeral behind the `SOCIALREACH_PLANNER` read planner) or
/// durable (recovered from and persisting into
/// `SOCIALREACH_DATA_DIR`).
enum Served {
    Ephemeral(Box<ServiceInstance>),
    Planned(Box<PlannedService>),
    Durable(Box<DurableService>),
}

impl Served {
    fn reads(&self) -> &dyn AccessService {
        match self {
            Served::Ephemeral(svc) => svc.reads(),
            Served::Planned(svc) => &**svc,
            Served::Durable(svc) => svc.reads(),
        }
    }

    fn writes(&mut self) -> &mut dyn MutateService {
        match self {
            Served::Ephemeral(svc) => svc.writes(),
            Served::Planned(svc) => &mut **svc,
            Served::Durable(svc) => svc.writes(),
        }
    }
}

/// Builds the configured deployment over the edge list, shares one
/// resource owned by `owner` under the `path` rule, and returns the
/// serving backend plus the resource.
fn serve(file: &str, owner: &str, path: &str) -> Result<(Served, ResourceId), String> {
    let mut svc = backend(file)?;
    let owner = resolve(svc.reads(), owner)?;
    let rid = svc.writes().add_resource(owner);
    svc.writes().add_rule(rid, path).map_err(to_msg)?;
    Ok((svc, rid))
}

/// Builds the configured deployment over the edge list — ephemeral,
/// planned, durable, or a historical audit read — without registering
/// any resource or rule.
fn backend(file: &str) -> Result<Served, String> {
    let svc = if let Some(position) = audit_at()? {
        // Audit read: recover the durable history to exactly
        // `position`, read-only, into a throwaway backend. The
        // resource/rule registered below stays ephemeral — asking
        // "who could this rule have reached back then?" must not
        // rewrite the history it queries.
        let dir = data_dir().ok_or("SOCIALREACH_AUDIT_AT requires SOCIALREACH_DATA_DIR")?;
        if file != "@" {
            return Err(
                "SOCIALREACH_AUDIT_AT serves recorded history: pass '@' as <edges.tsv>".into(),
            );
        }
        let instance = deployment()?
            .durable_at(&dir, position)
            .map_err(|e| format!("recovering {dir} at position {position}: {e}"))?;
        Served::Ephemeral(Box::new(instance))
    } else {
        match data_dir() {
            None => {
                if file == "@" {
                    return Err("'@' requires SOCIALREACH_DATA_DIR".into());
                }
                let instance = deployment()?.from_graph(&load(file)?, PolicyStore::new());
                match planner_mode()? {
                    Some(mode) => Served::Planned(Box::new(PlannedService::over(instance, mode))),
                    None => Served::Ephemeral(Box::new(instance)),
                }
            }
            Some(dir) => {
                let mut svc = deployment()?
                    .durable(&dir)
                    .map_err(|e| format!("recovering {dir}: {e}"))?;
                if file != "@" {
                    ingest(&load(file)?, &mut svc)?;
                }
                Served::Durable(Box::new(svc))
            }
        }
    };
    Ok(svc)
}

/// Replays an edge-list graph through the durable write path, honoring
/// the `SOCIALREACH_CRASH_AFTER` crash lever. A refused write stops
/// the ingest with its reason.
fn ingest(g: &SocialGraph, svc: &mut DurableService) -> Result<(), String> {
    let crash_after: Option<u64> = std::env::var("SOCIALREACH_CRASH_AFTER")
        .ok()
        .and_then(|v| v.parse().ok());
    let mut done = 0u64;
    let mut write = |m: Mutation| {
        let applied = svc.apply(&m).map_err(|e| format!("ingesting `{m}`: {e}"))?;
        done += 1;
        if crash_after == Some(done) {
            eprintln!("SOCIALREACH_CRASH_AFTER: aborting after {done} mutations");
            std::process::abort();
        }
        Ok::<_, String>(applied)
    };
    // The directory may already hold members: map graph ids to the
    // service's ids as they come back.
    let mut ids = Vec::with_capacity(g.num_nodes());
    for n in g.nodes() {
        let name = g.node_name(n).to_owned();
        let Applied::Member(id) = write(Mutation::AddUser { name })? else {
            return Err("a registration assigned no member".into());
        };
        for (key, value) in g.node_attrs(n).iter() {
            write(Mutation::SetUserAttr {
                user: id,
                key: g.vocab().attr_name(key).to_owned(),
                value: value.clone(),
            })?;
        }
        ids.push(id);
    }
    for (_, e) in g.edges() {
        write(Mutation::AddRelationship {
            src: ids[e.src.index()],
            label: g.vocab().label_name(e.label).to_owned(),
            dst: ids[e.dst.index()],
        })?;
    }
    Ok(())
}

/// The durable data directory, when the environment asks for one.
fn data_dir() -> Option<String> {
    std::env::var("SOCIALREACH_DATA_DIR").ok()
}

/// The historical position the environment asks to serve, if any.
fn audit_at() -> Result<Option<u64>, String> {
    match std::env::var("SOCIALREACH_AUDIT_AT") {
        Err(_) => Ok(None),
        Ok(v) => v.parse().map(Some).map_err(|_| {
            format!("SOCIALREACH_AUDIT_AT must be a WAL position (record count), got {v:?}")
        }),
    }
}

/// The planner mode the environment asks for, if any.
fn planner_mode() -> Result<Option<PlannerMode>, String> {
    match std::env::var("SOCIALREACH_PLANNER") {
        Err(_) => Ok(None),
        Ok(v) => PlannerMode::parse(&v).map(Some).ok_or_else(|| {
            format!("SOCIALREACH_PLANNER must be adaptive|batch|per-condition, got {v:?}")
        }),
    }
}

/// The deployment the environment asks for (single-graph by default).
fn deployment() -> Result<Deployment, String> {
    match std::env::var("SOCIALREACH_SHARDS") {
        Err(_) => Ok(Deployment::online()),
        Ok(v) => {
            let shards: u32 = v.parse().ok().filter(|&n| n > 0).ok_or_else(|| {
                format!("SOCIALREACH_SHARDS must be a positive integer, got {v:?}")
            })?;
            Ok(Deployment::sharded(shards, 0))
        }
    }
}

fn take<const N: usize>(args: &[String]) -> Result<[&String; N], String> {
    if args.len() != N {
        return Err(format!("expected {N} arguments, found {}", args.len()));
    }
    let mut it = args.iter();
    Ok(std::array::from_fn(|_| it.next().expect("length checked")))
}

fn load(path: &str) -> Result<SocialGraph, String> {
    let text = if path == "-" {
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|e| format!("reading stdin: {e}"))?;
        buf
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?
    };
    read_edge_list(&text, "follows").map_err(|e| e.to_string())
}

fn resolve(reads: &dyn AccessService, name: &str) -> Result<socialreach::NodeId, String> {
    reads
        .resolve_user(name)
        .map_err(|_| format!("unknown member {name:?}"))
}

fn to_msg(e: socialreach::EvalError) -> String {
    e.to_string()
}
