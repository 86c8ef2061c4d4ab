//! Shared plumbing of the serving-layer test suites: the shared-nothing
//! [`oracle`], equivalence checks generic over **any two**
//! [`AccessService`] implementations, witness replay through the
//! oracle, and a raw shard-protocol client.
//!
//! The equivalence harness never names a backend — a future deployment
//! (e.g. the ROADMAP's distributed-transport shards) is testable
//! against the existing ones the day it implements the trait.
#![allow(dead_code)] // each test binary uses the slice it needs

pub mod oracle;

use oracle::{Case, Cond, Resource, Step};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;

/// A property-test input drawn by `f` from a seeded generator.
pub fn seeded<T>(f: impl Fn(&mut StdRng) -> T) -> impl Strategy<Value = T> {
    (0..u64::MAX).prop_map(move |seed| f(&mut StdRng::seed_from_u64(seed)))
}

/// Seeded cases (see [`oracle::case`]).
pub fn cases() -> impl Strategy<Value = Case> {
    seeded(oracle::case)
}

/// Seeded graphs of `n` members and `m` edges over `k` labels (see
/// [`oracle::graph`]).
pub fn graphs(n: Range<usize>, m: Range<usize>, k: usize) -> impl Strategy<Value = SocialGraph> {
    seeded(move |rng| oracle::graph(rng, n.clone(), m.clone(), k))
}

/// A step of `label` in `dir` over the depth items `depths`, its
/// endpoint bound by `min_age` (see [`oracle::Step`]).
pub fn step(
    label: &'static str,
    dir: Direction,
    depths: &[(u32, Option<u32>)],
    min_age: Option<i64>,
) -> Step {
    let depths = depths.to_vec();
    Step {
        label,
        dir,
        depths,
        min_age,
    }
}

/// Seeded paths of `steps` random steps over the first `k` labels
/// (see [`oracle::random_step`]).
pub fn paths(steps: Range<usize>, k: usize) -> impl Strategy<Value = Vec<Step>> {
    seeded(move |rng| {
        let steps = (0..rng.gen_range(steps.clone())).map(|_| oracle::random_step(rng, k));
        steps.collect()
    })
}

/// [`paths`] as classic-grammar texts.
pub fn path_texts(steps: Range<usize>, k: usize) -> impl Strategy<Value = String> {
    paths(steps, k).prop_map(|steps| oracle::path_text(&steps))
}

use socialreach_core::remote::frame::{read_frame, write_frame};
use socialreach_core::remote::proto::{
    decode_response, encode_request, Request, Response, SessionSpec, WireMatch, WirePlanNode,
    WireRefusal, PROTOCOL_VERSION,
};
use socialreach_core::{
    parse_policy, AccessCondition, AccessRule, AccessService, Applied, Decision, Deployment,
    DurableService, EvalError, Explanation, MutateService, Mutation, PlannedService, PlannerMode,
    PolicyStore, ReadBatch, ResourceId, ServiceInstance, ShardAddr, WalkHop,
};
use socialreach_graph::shard::{MaskedExport, MaskedStateKey};
use socialreach_graph::Direction::{self, Both, In, Out};
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

/// What stands between the caller and a deployment.
#[derive(Clone, Copy, Debug)]
pub enum Wrap {
    Bare,
    Durable,
    Planned(PlannerMode),
}

/// A deployment behind a [`Wrap`]. A durable one logs to a scratch
/// directory, removed after the service drops.
pub enum Wrapped {
    Bare(ServiceInstance),
    Durable(Box<DurableService>, DataDir),
    Planned(PlannedService),
}

impl Wrapped {
    /// `deployment` behind `wrap`, loaded from a graph and a store built
    /// against it with `Deployment::from_graph`, or empty without them.
    /// A durable one always starts empty.
    pub fn new(
        deployment: &Deployment,
        wrap: Wrap,
        load: Option<(&SocialGraph, PolicyStore)>,
    ) -> Self {
        let build = || match load {
            Some((g, store)) => deployment.from_graph(g, store),
            None => deployment.build(),
        };
        match wrap {
            Wrap::Bare => Wrapped::Bare(build()),
            Wrap::Planned(mode) => Wrapped::Planned(PlannedService::over(build(), mode)),
            Wrap::Durable => {
                let dir = DataDir::new("wrapped");
                let svc = deployment.durable(&dir.0).expect("durable opens");
                Wrapped::Durable(Box::new(svc), dir)
            }
        }
    }

    pub fn reads(&self) -> &dyn AccessService {
        match self {
            Wrapped::Bare(s) => s.reads(),
            Wrapped::Durable(s, _) => s.reads(),
            Wrapped::Planned(s) => s,
        }
    }

    pub fn writes(&mut self) -> &mut dyn MutateService {
        match self {
            Wrapped::Bare(s) => s,
            Wrapped::Durable(s, _) => s.writes(),
            Wrapped::Planned(s) => s,
        }
    }
}

/// The case as a copy of its graph and a policy store built against it,
/// each condition parsed from its rendering (every other one in the
/// `MATCH` grammar when it can say it).
pub fn load(case: &Case) -> (SocialGraph, PolicyStore) {
    let (mut g, mut store, mut k) = (case.graph.clone(), PolicyStore::new(), 0);
    for res in &case.resources {
        let resource = store.register_resource(res.owner);
        for rule in &res.rules {
            let mut conditions = Vec::new();
            for c in rule {
                k += 1;
                let text = c.query().filter(|_| k % 2 == 0).unwrap_or_else(|| c.text());
                let path = parse_policy(&text, g.vocab_mut()).expect("rendered paths parse");
                conditions.push(AccessCondition {
                    owner: c.owner,
                    path,
                });
            }
            store
                .add_rule(AccessRule {
                    resource,
                    conditions,
                })
                .unwrap();
        }
    }
    (g, store)
}

/// The case loaded into `deployment` with `Deployment::from_graph`.
pub fn serve(deployment: &Deployment, case: &Case) -> ServiceInstance {
    let (g, store) = load(case);
    deployment.from_graph(&g, store)
}

/// The case's resources, in registration order.
pub fn case_rids(case: &Case) -> Vec<ResourceId> {
    (0..case.resources.len() as u64).map(ResourceId).collect()
}

/// The oracle's audience of each of the case's resources.
pub fn oracle_audiences(case: &Case) -> Vec<Vec<NodeId>> {
    let audience = |r| oracle::audience(&case.graph, r);
    case.resources.iter().map(audience).collect()
}

/// Every `(resource, member)` pair of the case, resource-major, and
/// whether the oracle grants it.
pub fn oracle_pairs(case: &Case) -> (Vec<(ResourceId, NodeId)>, Vec<bool>) {
    let want = oracle_audiences(case);
    let pairs: Vec<_> = case_rids(case)
        .into_iter()
        .flat_map(|r| case.graph.nodes().map(move |m| (r, m)))
        .collect();
    let grants = pairs
        .iter()
        .map(|(r, m)| want[r.0 as usize].binary_search(m).is_ok())
        .collect();
    (pairs, grants)
}

/// The case's conditions, each once, in rule order.
pub fn case_conds(case: &Case) -> Vec<&Cond> {
    let mut conds: Vec<&Cond> = Vec::new();
    for c in case.resources.iter().flat_map(|r| r.rules.iter().flatten()) {
        if !conds.contains(&c) {
            conds.push(c);
        }
    }
    conds
}

/// Explains every pair of the case in one [`ReadBatch`]: `reads` must
/// explain exactly the pairs the oracle grants, an ownership naming the
/// resource's owner and a rule grant with walks the oracle replays.
pub fn assert_explains(reads: &dyn AccessService, case: &Case, tag: &str) {
    let (pairs, grants) = oracle_pairs(case);
    let batch = pairs
        .iter()
        .fold(ReadBatch::new(), |b, &(r, m)| b.explain(r, m));
    let explained = reads.read(&batch).unwrap_or_else(|e| panic!("{tag}: {e}"));
    for (((rid, m), granted), got) in pairs.iter().zip(grants).zip(explained) {
        let res = &case.resources[rid.0 as usize];
        let tag = format!("{tag}: explain {rid:?}/{m}");
        assert_eq!(got.explanation.is_some(), granted, "{tag}");
        match &got.explanation {
            Some(Explanation::Ownership { owner }) => assert_eq!(*owner, res.owner, "{tag}"),
            Some(e) => assert_explanation_valid(reads, &case.graph, *m, &res.rules, e),
            None => {}
        }
    }
}

/// A raw graph + policy store behind the [`MutateService`] trait: the
/// conformance script ([`apply_script`]) writes through the trait, so the *oracle* state
/// used for witness replay is produced by the very same script that
/// populated the backends.
#[derive(Default)]
pub struct RawState {
    pub g: SocialGraph,
    pub store: PolicyStore,
}

impl MutateService for RawState {
    fn apply(&mut self, m: &Mutation) -> Result<Applied, EvalError> {
        m.apply_to(&mut self.g, &mut self.store)
    }
}

/// The scenario's resources as the oracle reads them, in creation
/// order: an adults-only album, a feed whose rules disjoin friends at
/// any depth with follower paths, a colleague memo, a private diary, a
/// two-step ring and an unbounded wall (its walks go round the mutual
/// friendships, so every read runs to saturation).
pub fn scenario() -> Vec<Resource> {
    let (one, two) = ([(1, Some(1))], [(1, Some(1)), (2, Some(2))]);
    // Each resource's owner, and each of its rules' one condition.
    let resources: [(u32, Vec<Vec<Step>>); 6] = [
        (0, vec![vec![step("friend", Out, &two, Some(18))]]),
        (
            0,
            vec![
                vec![step("friend", Out, &[(1, Some(4))], None)],
                vec![step("follows", In, &two, None)],
            ],
        ),
        (
            3,
            vec![vec![step("colleague", Both, &[(1, Some(3))], None)]],
        ),
        (4, vec![]),
        (
            7,
            vec![vec![
                step("colleague", Both, &one, None),
                step("friend", Out, &one, None),
            ]],
        ),
        (1, vec![vec![step("friend", Out, &[(2, None)], None)]]),
    ];
    let resource = |(owner, rules): (u32, Vec<Vec<Step>>)| {
        let owner = NodeId(owner);
        let rule = |steps| vec![Cond { owner, steps }];
        let rules = rules.into_iter().map(rule).collect();
        Resource { owner, rules }
    };
    resources.into_iter().map(resource).collect()
}

/// The scenario: a two-community graph with attribute-gated paths,
/// incoming-direction steps, an unbounded depth set over friendship
/// cycles, a private resource and a multi-rule (disjunctive) resource
/// ([`scenario`]). Returns the resources.
pub fn apply_script(svc: &mut dyn MutateService) -> Vec<ResourceId> {
    let names = [
        "Ava", "Ben", "Cleo", "Dan", "Edith", "Femi", "Gus", "Hana", "Ivan", "June",
    ];
    let m: Vec<NodeId> = names.iter().map(|n| svc.add_user(n)).collect();
    // Friendship chain with a branch, mutual where platforms would be.
    svc.add_mutual_relationship(m[0], "friend", m[1]);
    svc.add_mutual_relationship(m[1], "friend", m[2]);
    svc.add_relationship(m[2], "friend", m[3]);
    svc.add_mutual_relationship(m[0], "friend", m[4]);
    // A colleague cluster bridging to the second half.
    svc.add_relationship(m[3], "colleague", m[5]);
    svc.add_relationship(m[5], "colleague", m[6]);
    svc.add_mutual_relationship(m[6], "colleague", m[7]);
    // Followers (incoming-direction policies read these backwards).
    svc.add_relationship(m[8], "follows", m[0]);
    svc.add_relationship(m[9], "follows", m[8]);
    // Ages gate the predicate paths; Ben deliberately has none
    // (predicates fail closed).
    for (i, age) in [(0usize, 34i64), (2, 26), (3, 17), (4, 41), (8, 52)] {
        svc.set_user_attr(m[i], "age", age.into());
    }
    let mut rids = Vec::new();
    for res in scenario() {
        let rid = svc.add_resource(res.owner);
        for rule in &res.rules {
            svc.add_rule(rid, &rule[0].text()).unwrap();
        }
        rids.push(rid);
    }
    rids
}

/// The script written into a bare graph and store, and the oracle's
/// audiences of its resources.
pub fn scripted_oracle() -> (RawState, Vec<ResourceId>, Vec<Vec<NodeId>>) {
    let mut raw = RawState::default();
    let rids = apply_script(&mut raw);
    let want = scenario()
        .iter()
        .map(|r| oracle::audience(&raw.g, r))
        .collect();
    (raw, rids, want)
}

/// Asserts that `reads`, written by [`apply_script`], serves the script
/// as the oracle reads it: per-member decisions, audiences, batched
/// reads and explain grant-ness.
pub fn assert_serves_the_scenario(reads: &dyn AccessService) {
    let (raw, rids, want) = scripted_oracle();
    let tag = reads.describe();
    let requests: Vec<(ResourceId, NodeId)> = rids
        .iter()
        .flat_map(|&rid| raw.g.nodes().map(move |m| (rid, m)))
        .collect();
    let granted = |&(rid, m): &(ResourceId, NodeId)| want[rid.0 as usize].contains(&m);
    let decisions = reads.check_batch(&requests, 2).unwrap();
    for (request, d) in requests.iter().zip(decisions) {
        assert_eq!(d.is_granted(), granted(request), "{tag}: {request:?}");
        assert_eq!(reads.check(request.0, request.1).unwrap(), d, "{tag}");
        let explained = reads.explain(request.0, request.1).unwrap();
        assert_eq!(explained.is_some(), d.is_granted(), "{tag}: {request:?}");
    }
    assert_eq!(reads.audience_batch(&rids).unwrap(), want, "{tag}");
    for (&rid, audience) in rids.iter().zip(&want) {
        assert_eq!(&reads.audience(rid).unwrap(), audience, "{tag}");
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

/// Replays a witness walk through the oracle (`oracle::replay`),
/// naming its labels through the service that produced it.
pub fn replay(
    reads: &dyn AccessService,
    g: &SocialGraph,
    cond: &Cond,
    requester: NodeId,
    hops: &[WalkHop],
) -> Result<(), String> {
    let hops: Vec<_> = hops
        .iter()
        .map(|h| (h.src, h.dst, reads.label_name(h.label), h.forward))
        .collect();
    oracle::replay(g, cond, requester, &hops)
}

/// Validates a granted [`Explanation`] against the graph: an ownership
/// names the requester, and a rule grant carries one walk per condition
/// of some rule of `rules`, in order, each from the condition's owner
/// and replayed by the oracle.
pub fn assert_explanation_valid(
    reads: &dyn AccessService,
    g: &SocialGraph,
    requester: NodeId,
    rules: &[Vec<Cond>],
    explanation: &Explanation,
) {
    let walks = match explanation {
        Explanation::Ownership { owner } => return assert_eq!(*owner, requester),
        Explanation::Rule { walks } => walks,
    };
    let explains = |rule: &Vec<Cond>| {
        rule.len() == walks.len()
            && rule
                .iter()
                .zip(walks)
                .all(|(c, w)| c.owner == w.start && replay(reads, g, c, requester, &w.hops).is_ok())
    };
    assert!(
        rules.iter().any(|r| !r.is_empty() && explains(r)),
        "no rule accepts the walks to {requester}: {walks:?}"
    );
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
