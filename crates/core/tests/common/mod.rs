//! Shared plumbing of the serving-layer test suites: equivalence
//! checks generic over **any two** [`AccessService`] implementations,
//! the path-automaton witness replay, and a raw shard-protocol client.
//!
//! The equivalence harness never names a backend — a future deployment
//! (e.g. the ROADMAP's distributed-transport shards) is testable
//! against the existing ones the day it implements the trait.
#![allow(dead_code)] // each test binary uses the slice it needs

use socialreach_core::remote::frame::{read_frame, write_frame};
use socialreach_core::remote::proto::{
    decode_response, encode_request, Request, Response, SessionSpec, WireMatch, WirePlanNode,
    WireRefusal, PROTOCOL_VERSION,
};
use socialreach_core::{
    AccessService, Decision, Deployment, Explanation, MutateService, Mutation, PathExpr,
    ResourceId, ServiceInstance, ShardAddr, WalkHop,
};
use socialreach_graph::shard::{MaskedExport, MaskedStateKey};
use socialreach_graph::{AttrValue, NodeId, SocialGraph};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::time::Duration;

/// A scratch data directory for one test, removed on drop. The name
/// carries the test binary's pid and the test's thread, so suites and
/// tests running in parallel never share one.
pub struct DataDir(pub PathBuf);

impl DataDir {
    pub fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "srdur-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        DataDir(dir)
    }

    /// The directory's write-ahead log.
    pub fn wal(&self) -> PathBuf {
        self.0.join("wal.log")
    }
}

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The durability suites' population script, one WAL record per
/// mutation: six members, a friend forest, three ages, then two
/// resources (created at 0-based positions 14 and 16), each with a rule
/// late enough that mid-stream snapshots bracket it.
pub fn durable_script() -> Vec<Mutation> {
    let mut script: Vec<Mutation> = ["Ava", "Ben", "Cleo", "Dan", "Edith", "Femi"]
        .map(|name| Mutation::AddUser {
            name: name.to_owned(),
        })
        .into();
    for (src, dst) in [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5)] {
        let (src, dst, label) = (NodeId(src), NodeId(dst), "friend".to_owned());
        script.push(Mutation::AddRelationship { src, label, dst });
    }
    for (user, age) in [(1, 25i64), (2, 17), (4, 40)] {
        let (user, key, value) = (NodeId(user), "age".to_owned(), age.into());
        script.push(Mutation::SetUserAttr { user, key, value });
    }
    for (rid, (owner, path)) in [(0, "friend+[1,2]{age>=18}"), (4, "friend+[1..3]")]
        .into_iter()
        .enumerate()
    {
        let (resource, path) = (ResourceId(rid as u64), path.to_owned());
        script.push(Mutation::AddResource {
            owner: NodeId(owner),
        });
        script.push(Mutation::AddRule { resource, path });
    }
    script
}

/// The snapshot-export script: eight members carrying attributes of all
/// four value kinds (one overwritten after the edges, so the change
/// reaches every copy of the member), `friend` and `colleague` edges
/// that mix intra-shard and cross-shard under both `sharded(3, 3)` and
/// a two-shard fleet, and three resources with rules in both policy
/// grammars — one naming `follows`, a label no edge carries, so the
/// vocabulary holds a name only a rule interned.
pub fn export_script() -> Vec<Mutation> {
    let mut script: Vec<Mutation> = ["Ava", "Ben", "Cleo", "Dan", "Edith", "Femi", "Gus", "Hana"]
        .map(|name| Mutation::AddUser {
            name: name.to_owned(),
        })
        .into();
    let attrs: [(u32, &str, AttrValue); 8] = [
        (0, "age", AttrValue::Int(34)),
        (1, "score", AttrValue::Float(0.75)),
        (2, "city", AttrValue::Text("Lyon".to_owned())),
        (3, "verified", AttrValue::Bool(true)),
        (4, "age", AttrValue::Int(17)),
        (5, "city", AttrValue::Text("Oslo".to_owned())),
        (0, "verified", AttrValue::Bool(false)),
        (6, "score", AttrValue::Float(-2.5)),
    ];
    let set = |(user, key, value): (u32, &str, AttrValue)| Mutation::SetUserAttr {
        user: NodeId(user),
        key: key.to_owned(),
        value,
    };
    script.extend(attrs.into_iter().map(set));
    for (src, label, dst) in [
        (0, "friend", 1),
        (1, "friend", 2),
        (2, "colleague", 3),
        (3, "friend", 4),
        (4, "colleague", 5),
        (5, "friend", 6),
        (6, "colleague", 7),
        (7, "friend", 0),
        (0, "colleague", 4),
        (2, "friend", 6),
        (3, "colleague", 1),
    ] {
        let (src, label, dst) = (NodeId(src), label.to_owned(), NodeId(dst));
        script.push(Mutation::AddRelationship { src, label, dst });
    }
    script.push(set((1, "age", AttrValue::Int(19))));
    let resources: [(u32, &[&str]); 3] = [
        (0, &["friend+[1,2]{age>=18}"]),
        (4, &["MATCH (owner)-[:colleague*1..2]->(v)"]),
        (2, &["friend+[1]/colleague+[1]", "follows+[1]"]),
    ];
    for (rid, (owner, paths)) in resources.into_iter().enumerate() {
        script.push(Mutation::AddResource {
            owner: NodeId(owner),
        });
        for path in paths {
            let (resource, path) = (ResourceId(rid as u64), (*path).to_owned());
            script.push(Mutation::AddRule { resource, path });
        }
    }
    script
}

/// The resources that exist after the first `n` mutations of
/// [`durable_script`].
pub fn rids_after(n: usize) -> Vec<ResourceId> {
    let created = durable_script()[..n]
        .iter()
        .filter(|m| matches!(m, Mutation::AddResource { .. }))
        .count();
    (0..created as u64).map(ResourceId).collect()
}

/// A never-crashed reference holding only the first `n` mutations of
/// [`durable_script`].
pub fn reference_prefix(deployment: &Deployment, n: usize) -> ServiceInstance {
    let mut svc = deployment.build();
    for m in &durable_script()[..n] {
        svc.apply(m).unwrap();
    }
    svc
}

/// Asserts two serving backends agree on **every** observable read of
/// the given resources: per-member decisions, per-resource audiences,
/// batched audiences, batched decisions, and explain grant-ness.
/// `reference` and `candidate` must serve the same membership.
pub fn assert_services_agree(
    reference: &dyn AccessService,
    candidate: &dyn AccessService,
    rids: &[ResourceId],
) {
    assert_eq!(
        reference.num_members(),
        candidate.num_members(),
        "{} vs {}: membership census",
        reference.describe(),
        candidate.describe()
    );
    let members: Vec<NodeId> = (0..reference.num_members() as u32).map(NodeId).collect();
    let tag = || format!("{} vs {}", reference.describe(), candidate.describe());

    // Per-resource audiences and per-member decisions.
    for &rid in rids {
        let expect = reference.audience(rid).expect("reference audience");
        let got = candidate.audience(rid).expect("candidate audience");
        assert_eq!(got, expect, "audience mismatch: rid={rid:?} ({})", tag());
        for &m in &members {
            let expect = reference.check(rid, m).expect("reference check");
            let got = candidate.check(rid, m).expect("candidate check");
            assert_eq!(
                got,
                expect,
                "decision mismatch: rid={rid:?} member={m} ({})",
                tag()
            );
            // Explain agrees with the decision on both sides.
            let explained = candidate.explain(rid, m).expect("candidate explain");
            assert_eq!(
                explained.is_some(),
                got == Decision::Grant,
                "explain/decision divergence: rid={rid:?} member={m} ({})",
                tag()
            );
        }
    }

    // Batched reads match the per-request truth on both backends.
    let bundle_expect = reference.audience_batch(rids).expect("reference bundle");
    let bundle_got = candidate.audience_batch(rids).expect("candidate bundle");
    assert_eq!(bundle_got, bundle_expect, "bundle audiences ({})", tag());
    let requests: Vec<(ResourceId, NodeId)> = rids
        .iter()
        .flat_map(|&rid| members.iter().map(move |&m| (rid, m)))
        .collect();
    let decisions_expect = reference
        .check_batch(&requests, 2)
        .expect("reference batch");
    let decisions_got = candidate
        .check_batch(&requests, 2)
        .expect("candidate batch");
    assert_eq!(
        decisions_got,
        decisions_expect,
        "batched decisions ({})",
        tag()
    );
}

/// Checks a witness walk: a connected walk `owner ⇝ requester` whose
/// hops are real edges of the reference graph and whose
/// label/direction/depth sequence is accepted by the path automaton
/// (NFA over `(step, depth)` states with ε-completions between steps).
/// Returns the violation, or `None` when the walk is valid.
pub fn witness_violation(
    g: &SocialGraph,
    owner: NodeId,
    requester: NodeId,
    path: &PathExpr,
    witness: &[WalkHop],
) -> Option<String> {
    // 1. Each hop is an edge of the reference graph and the walk chains.
    let mut at = owner;
    for hop in witness {
        let exists = g
            .edges()
            .any(|(_, r)| r.src == hop.src && r.dst == hop.dst && r.label == hop.label);
        if !exists {
            return Some(format!("hop {hop:?} is not an edge of the graph"));
        }
        let (from, to) = if hop.forward {
            (hop.src, hop.dst)
        } else {
            (hop.dst, hop.src)
        };
        if from != at {
            return Some(format!("witness disconnects at {hop:?}"));
        }
        at = to;
    }
    if at != requester {
        return Some("witness does not end at the requester".to_owned());
    }

    // 2. The hop sequence is accepted by the path automaton.
    let steps = &path.steps;
    // Saturation point of a depth set (all deeper depths equivalent),
    // from the public interval view.
    let sat: Vec<u32> = steps
        .iter()
        .map(|s| {
            let &(lo, hi) = s.depths.intervals().last().expect("non-empty depth set");
            hi.unwrap_or(lo)
        })
        .collect();
    let completes = |i: usize, d: u32, node: NodeId| {
        d >= 1
            && steps[i].depths.contains(d)
            && steps[i].conds.iter().all(|c| c.eval(g.node_attrs(node)))
    };
    let close = |states: &mut Vec<(usize, u32)>, node: NodeId| {
        let mut k = 0;
        while k < states.len() {
            let (i, d) = states[k];
            if i + 1 < steps.len() && completes(i, d, node) && !states.contains(&(i + 1, 0)) {
                states.push((i + 1, 0));
            }
            k += 1;
        }
    };
    let mut states: Vec<(usize, u32)> = vec![(0, 0)];
    let mut at = owner;
    for hop in witness {
        close(&mut states, at);
        let (label, forward) = (hop.label, hop.forward);
        let mut next: Vec<(usize, u32)> = Vec::new();
        for &(i, d) in &states {
            let step = &steps[i];
            if step.label != label {
                continue;
            }
            let dir_ok = match step.dir {
                socialreach_graph::Direction::Out => forward,
                socialreach_graph::Direction::In => !forward,
                socialreach_graph::Direction::Both => true,
            };
            if !dir_ok {
                continue;
            }
            if d < sat[i] || step.depths.is_unbounded() {
                let nd = (d + 1).min(sat[i]);
                if !next.contains(&(i, nd)) {
                    next.push((i, nd));
                }
            }
        }
        states = next;
        if states.is_empty() {
            return Some(format!("witness hop {hop:?} matches no step"));
        }
        at = if forward { hop.dst } else { hop.src };
    }
    if states
        .iter()
        .any(|&(i, d)| i == steps.len() - 1 && completes(i, d, at))
    {
        None
    } else {
        Some("witness walk does not complete the path at the requester".to_owned())
    }
}

/// Panicking wrapper of [`witness_violation`] for suites that know the
/// unique condition a walk must satisfy.
pub fn assert_witness_valid(
    g: &SocialGraph,
    owner: NodeId,
    requester: NodeId,
    path: &PathExpr,
    witness: &[WalkHop],
) {
    if let Some(violation) = witness_violation(g, owner, requester, path, witness) {
        panic!("{violation}");
    }
}

/// Validates every walk of a granted [`Explanation`] against the
/// reference graph: each walk must reach `requester` and be accepted
/// by the automaton of a rule condition it claims to satisfy (matched
/// by the walk's `start` owner; `conditions` are the resource's
/// `(owner, path)` pairs).
pub fn assert_explanation_valid(
    g: &SocialGraph,
    requester: NodeId,
    conditions: &[(NodeId, PathExpr)],
    explanation: &Explanation,
) {
    match explanation {
        Explanation::Ownership { .. } => {}
        Explanation::Rule { walks } => {
            assert!(!walks.is_empty(), "a rule grant carries walks");
            for walk in walks {
                // Several conditions can share an owner; at least one
                // must accept the walk.
                let accepted = conditions.iter().any(|(owner, path)| {
                    *owner == walk.start
                        && witness_violation(g, *owner, requester, path, &walk.hops).is_none()
                });
                assert!(
                    accepted,
                    "no condition of the rule accepts walk from {}",
                    walk.start
                );
            }
        }
    }
}

/// A blocking client speaking the shard protocol directly (no router),
/// over either transport.
pub struct RawClient {
    stream: Box<dyn RawStream>,
}

pub trait RawStream: Read + Write + Send {}
impl<T: Read + Write + Send> RawStream for T {}

impl RawClient {
    /// Dials `addr` and completes the handshake.
    pub fn dial(addr: &ShardAddr) -> RawClient {
        let patience = Some(Duration::from_secs(10));
        let stream: Box<dyn RawStream> = match addr {
            ShardAddr::Tcp(a) => {
                let s = TcpStream::connect(a).expect("dial shard");
                s.set_read_timeout(patience).unwrap();
                Box::new(s)
            }
            ShardAddr::Unix(p) => {
                let s = UnixStream::connect(p).expect("dial shard");
                s.set_read_timeout(patience).unwrap();
                Box::new(s)
            }
        };
        let mut c = RawClient { stream };
        match c.call(&Request::Hello {
            version: PROTOCOL_VERSION,
        }) {
            Response::Hello { version, .. } => assert_eq!(version, PROTOCOL_VERSION),
            other => panic!("expected Hello, got {other:?}"),
        }
        c
    }

    pub fn call(&mut self, req: &Request) -> Response {
        write_frame(&mut self.stream, &encode_request(req)).expect("write");
        let payload = read_frame(&mut self.stream).expect("read");
        decode_response(&payload).expect("decode")
    }

    /// One round of session `eval`, unstopped; `open` makes it the
    /// session's first. Returns the matches and exports, or the
    /// shard's refusal.
    pub fn round(
        &mut self,
        eval: u64,
        open: Option<SessionSpec>,
        seeds: Vec<MaskedExport>,
    ) -> Result<(Vec<WireMatch>, Vec<MaskedExport>), WireRefusal> {
        let stop = None;
        let req = match open {
            Some(session) => Request::OpenRound {
                eval,
                session,
                seeds,
                stop,
            },
            None => Request::Round { eval, seeds, stop },
        };
        match self.call(&req) {
            Response::Round {
                matched, exports, ..
            } => Ok((matched, exports)),
            Response::Refused(refusal) => Err(refusal),
            other => panic!("expected Round, got {other:?}"),
        }
    }
}

/// The session of a one-path plan of the single step `step` at `epoch`,
/// in word 0, whose one node carries every condition bit, untracked.
pub fn one_step_session(epoch: u64, step: &str) -> SessionSpec {
    SessionSpec {
        epoch,
        nodes: vec![WirePlanNode {
            step: step.to_owned(),
            children: Vec::new(),
            mask: u64::MAX,
            accept: u64::MAX,
        }],
        word: 0,
        one_path: true,
        parents: false,
    }
}

/// A seed at `member`'s start state (step 0, depth 0, word 0).
pub fn start_seed(member: u32, mask: u64) -> MaskedExport {
    MaskedExport {
        key: MaskedStateKey {
            member,
            step: 0,
            depth: 0,
            word: 0,
        },
        mask,
    }
}
