//! Trait-level conformance suite for the [`AccessService`] /
//! [`MutateService`] API: one scenario script, written **only** against
//! the deployment-agnostic traits, runs against every backend —
//! `Deployment::single` (both engines), `Deployment::sharded`
//! (several shard counts) and `Deployment::networked` (a live shard
//! fleet behind loopback TCP) — and must produce identical decisions,
//! audiences and batch responses, with every granted explain walk
//! replaying through the path automaton. A proptest instance of the
//! generic differential harness (`common::assert_services_agree`)
//! pairs `Deployment::single` against `Deployment::sharded(4)` on
//! random graphs × policies.

mod common;

use proptest::prelude::*;
use socialreach_core::{
    AccessService, Applied, BundleStrategy, CheckPlan, Decision, Deployment, DurableService,
    EngineChoice, EvalError, Explanation, JoinEngineConfig, MutateService, Mutation, PathExpr,
    PlannedService, PlannerMode, PolicyStore, ReadBatch, ResourceId, ServiceInstance,
};
use socialreach_graph::{GraphError, NodeId, SocialGraph};
use std::path::PathBuf;

/// The deployments every conformance scenario must agree across. The
/// first entry is the reference. The networked leg spawns a live
/// in-process shard fleet whose handles are leaked: the servers must
/// outlive every use of the returned deployment, and test processes
/// end soon after.
fn deployments() -> Vec<Deployment> {
    vec![
        Deployment::online(),
        Deployment::single(EngineChoice::JoinIndex(JoinEngineConfig::default())),
        Deployment::sharded(1, 3),
        Deployment::sharded(4, 3),
        Deployment::sharded(7, 3),
        networked(3),
    ]
}

/// A networked deployment over a fresh (leaked) loopback fleet of
/// `shards` servers. A fleet serves exactly one build: its shards
/// refuse a second router.
fn networked(shards: usize) -> Deployment {
    let fleet = socialreach_core::remote::spawn_local_fleet(shards, false).expect("fleet spawns");
    let addrs = fleet.iter().map(|h| h.addr().clone()).collect();
    std::mem::forget(fleet);
    Deployment::networked_with(addrs, 3)
}

/// A raw graph + policy store behind the [`MutateService`] trait: the
/// conformance script writes through the trait, so the *oracle* state
/// used for witness replay is produced by the very same script that
/// populated the backends.
#[derive(Default)]
struct RawState {
    g: SocialGraph,
    store: PolicyStore,
}

impl MutateService for RawState {
    fn apply(&mut self, m: &Mutation) -> Result<Applied, EvalError> {
        m.apply_to(&mut self.g, &mut self.store)
    }
}

/// The scenario: a two-community graph with attribute-gated paths,
/// incoming-direction steps, unbounded depths, a private resource and
/// a multi-rule (disjunctive) resource. Returns the resources.
fn apply_script(svc: &mut dyn MutateService) -> Vec<ResourceId> {
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

    let album = svc.add_resource(m[0]);
    svc.add_rule(album, "friend+[1,2]{age>=18}").unwrap();
    let feed = svc.add_resource(m[0]);
    // Depths stay bounded: the conformance script must sit inside every
    // backend's capability envelope, and the join-index engine's §3.1
    // expansion is exponential on unbounded depth sets (unbounded
    // coverage lives in the shard differential suites).
    svc.add_rule(feed, "friend+[1..4]").unwrap();
    svc.add_rule(feed, "follows-[1,2]").unwrap(); // disjoins
    let memo = svc.add_resource(m[3]);
    svc.add_rule(memo, "colleague*[1..3]").unwrap();
    let diary = svc.add_resource(m[4]); // private: no rules
    let ring = svc.add_resource(m[7]);
    svc.add_rule(ring, "colleague*[1]/friend+[1]").unwrap();
    vec![album, feed, memo, diary, ring]
}

/// Every backend serves the script with identical decisions,
/// audiences, batched reads and explain grant-ness.
#[test]
fn all_backends_agree_on_the_scenario_script() {
    let mut reference: Option<ServiceInstance> = None;
    for deployment in deployments() {
        let mut svc = deployment.build();
        let rids = apply_script(svc.writes());
        match &reference {
            None => reference = Some(svc),
            Some(r) => common::assert_services_agree(r.reads(), svc.reads(), &rids),
        }
    }
}

/// Pins the scenario's concrete semantics on the reference backend, so
/// conformance can never drift into "all backends agree on the wrong
/// answer" without this failing.
#[test]
fn scenario_semantics_are_the_expected_ones() {
    let mut svc = Deployment::online().build();
    let rids = apply_script(svc.writes());
    let reads = svc.reads();
    let id = |name: &str| reads.resolve_user(name).unwrap();
    let (album, feed, diary) = (rids[0], rids[1], rids[3]);
    // Cleo is 2 friend-hops from Ava and adult; Dan is 3 hops and 17.
    assert_eq!(reads.check(album, id("Cleo")).unwrap(), Decision::Grant);
    assert_eq!(reads.check(album, id("Dan")).unwrap(), Decision::Deny);
    // Ben has no age attribute: predicate fails closed.
    assert_eq!(reads.check(album, id("Ben")).unwrap(), Decision::Deny);
    // The feed disjoins friends-at-any-depth with follower paths.
    assert_eq!(reads.check(feed, id("Dan")).unwrap(), Decision::Grant);
    assert_eq!(reads.check(feed, id("June")).unwrap(), Decision::Grant);
    // Private resources admit only their owner.
    assert_eq!(
        reads.audience(diary).unwrap(),
        vec![id("Edith")],
        "no rules ⇒ owner-only audience"
    );
}

/// Every granted explain of every backend replays through the path
/// automaton against the script's reference graph.
#[test]
fn granted_explains_replay_through_the_path_automaton() {
    // The oracle state comes from the same trait-level script.
    let mut raw = RawState::default();
    let rids = apply_script(&mut raw);
    let conditions_of = |rid: ResourceId| -> Vec<(NodeId, PathExpr)> {
        raw.store
            .rules_for(rid)
            .iter()
            .flat_map(|r| r.conditions.iter())
            .map(|c| (c.owner, c.path.clone()))
            .collect()
    };

    for deployment in deployments() {
        let mut svc = deployment.build();
        let script_rids = apply_script(svc.writes());
        assert_eq!(script_rids, rids, "the script is deterministic");
        let reads = svc.reads();
        for &rid in &rids {
            let conditions = conditions_of(rid);
            for member in 0..reads.num_members() as u32 {
                let member = NodeId(member);
                let explanation = reads.explain(rid, member).unwrap();
                match (&explanation, reads.check(rid, member).unwrap()) {
                    (Some(e), Decision::Grant) => {
                        common::assert_explanation_valid(&raw.g, member, &conditions, e);
                        // Rendering is deployment-agnostic: walk lines
                        // read the same on every backend.
                        for line in e.render(reads) {
                            assert!(
                                !line.is_empty(),
                                "rendered walk line is non-empty ({})",
                                reads.describe()
                            );
                        }
                    }
                    (None, Decision::Deny) => {}
                    (e, d) => panic!(
                        "explain/check divergence on {}: rid={rid:?} member={member} {e:?} vs {d:?}",
                        reads.describe()
                    ),
                }
            }
        }
    }
}

/// What stands between the caller and the scripted backend.
#[derive(Clone, Copy, Debug)]
enum Wrap {
    Bare,
    Durable,
    Planned(PlannerMode),
}

/// A scripted backend behind a [`Wrap`] (the durable leg owns its
/// scratch directory).
enum Wrapped {
    Bare(ServiceInstance),
    Durable(Box<DurableService>, PathBuf),
    Planned(PlannedService),
}

impl Wrapped {
    fn scripted(deployment: &Deployment, wrap: Wrap, tag: usize) -> (Wrapped, Vec<ResourceId>) {
        match wrap {
            Wrap::Bare => {
                let mut svc = deployment.build();
                let rids = apply_script(svc.writes());
                (Wrapped::Bare(svc), rids)
            }
            Wrap::Durable => {
                let dir = std::env::temp_dir()
                    .join(format!("srconf-durable-{}-{tag}", std::process::id()));
                let _ = std::fs::remove_dir_all(&dir);
                let mut svc = deployment.durable(&dir).expect("durable opens");
                let rids = apply_script(svc.writes());
                (Wrapped::Durable(Box::new(svc), dir), rids)
            }
            Wrap::Planned(mode) => {
                let mut svc = PlannedService::over(deployment.build(), mode);
                let rids = apply_script(&mut svc);
                (Wrapped::Planned(svc), rids)
            }
        }
    }

    fn reads(&self) -> &dyn AccessService {
        match self {
            Wrapped::Bare(s) => s.reads(),
            Wrapped::Durable(s, _) => s.reads(),
            Wrapped::Planned(s) => s,
        }
    }

    fn writes(&mut self) -> &mut dyn MutateService {
        match self {
            Wrapped::Bare(s) => s,
            Wrapped::Durable(s, _) => s.as_mut(),
            Wrapped::Planned(s) => s,
        }
    }
}

impl Drop for Wrapped {
    fn drop(&mut self) {
        if let Wrapped::Durable(_, dir) = self {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Provided ≡ primitive, through every decorator: on bare,
/// `DurableService`-wrapped and `PlannedService`-wrapped backends every
/// provided read equals the primitive it is defined by, a decorator
/// passes the inner census through unchanged (checked against a bare
/// twin), and the heterogeneous `read_batch` vocabulary answers exactly
/// like the individual reads with a sane census (single-graph
/// deployments never export boundary states).
#[test]
fn read_batches_match_individual_reads_everywhere() {
    let wraps = [
        Wrap::Bare,
        Wrap::Durable,
        Wrap::Planned(PlannerMode::ForcedBatch),
        Wrap::Planned(PlannerMode::ForcedPerCondition),
    ];
    for wrap in wraps {
        for (tag, (deployment, twin)) in deployments().into_iter().zip(deployments()).enumerate() {
            let (svc, rids) = Wrapped::scripted(&deployment, wrap, tag);
            let (bare, _) = Wrapped::scripted(&twin, Wrap::Bare, tag);
            let (reads, bare) = (svc.reads(), bare.reads());
            let tag = format!("{wrap:?} over {}", bare.describe());
            let members: Vec<NodeId> = (0..reads.num_members() as u32).map(NodeId).collect();
            let requests: Vec<(ResourceId, NodeId)> = rids
                .iter()
                .flat_map(|&rid| members.iter().map(move |&m| (rid, m)))
                .collect();

            // Census pass-through, on caches equally cold on both sides.
            for &(rid, m) in &requests {
                assert_eq!(
                    reads.check_with_stats(rid, m).unwrap(),
                    bare.check_with_stats(rid, m).unwrap(),
                    "check census of {rid:?}/{m} ({tag})"
                );
                assert_eq!(
                    reads.explain_with_stats(rid, m).unwrap(),
                    bare.explain_with_stats(rid, m).unwrap(),
                    "explain census of {rid:?}/{m} ({tag})"
                );
            }
            for strategy in [BundleStrategy::Batched, BundleStrategy::PerCondition] {
                assert_eq!(
                    reads.audience_batch_forced(&rids, strategy).unwrap(),
                    bare.audience_batch_forced(&rids, strategy).unwrap(),
                    "{strategy:?} bundle census ({tag})"
                );
            }
            assert_eq!(
                reads.default_check_plan(requests.len()),
                bare.default_check_plan(requests.len())
            );

            // Provided reads equal the primitives they are defined by.
            let chosen = match wrap {
                Wrap::Planned(PlannerMode::ForcedPerCondition) => BundleStrategy::PerCondition,
                _ => BundleStrategy::Batched,
            };
            let bundle = reads.audience_batch_with_stats(&rids).unwrap();
            assert_eq!(
                bundle,
                reads.audience_batch_forced(&rids, chosen).unwrap(),
                "{tag}"
            );
            assert_eq!(reads.audience_batch(&rids).unwrap(), bundle.0, "{tag}");
            for (&rid, audience) in rids.iter().zip(&bundle.0) {
                assert_eq!(&reads.audience(rid).unwrap(), audience, "{tag}");
                for &m in &members {
                    let d = reads.check(rid, m).unwrap();
                    assert_eq!(d, reads.check_with_stats(rid, m).unwrap().0, "{tag}");
                    let lone = reads
                        .check_batch_forced(&[(rid, m)], 1, CheckPlan::Targeted)
                        .unwrap();
                    assert_eq!(d, lone.0[0], "{tag}");
                    assert_eq!(d.is_granted(), audience.contains(&m), "{tag}");
                    let explained = reads.explain(rid, m).unwrap();
                    assert_eq!(explained.is_some(), d.is_granted(), "{tag}");
                    assert_eq!(explained, reads.explain_with_stats(rid, m).unwrap().0);
                    assert_eq!(
                        reads.explain_lines(rid, m).unwrap(),
                        explained.map(|e| e.render(reads)),
                        "{tag}"
                    );
                }
            }
            let routed = reads.check_batch_with_stats(&requests, 1).unwrap();
            let plan = reads.default_check_plan(requests.len());
            assert_eq!(
                routed.0,
                reads.check_batch_forced(&requests, 1, plan).unwrap().0,
                "{tag}"
            );
            assert_eq!(reads.check_batch(&requests, 1).unwrap(), routed.0, "{tag}");
            let query = (members[0], "MATCH (o)-[:friend*1..2]->(v)");
            assert_eq!(
                reads.query_audience(query.0, query.1).unwrap(),
                reads.query_audience_bundle(&[query]).unwrap()[0],
                "{tag}"
            );

            // The heterogeneous batch answers like the individual reads.
            let mut batch = ReadBatch::new();
            for &rid in &rids {
                batch = batch.audience(rid);
                for &m in &members {
                    batch = batch.check(rid, m).explain(rid, m);
                }
            }
            let responses = reads.read_batch(&batch).unwrap();
            assert_eq!(responses.len(), batch.reads.len());
            let mut it = responses.iter();
            for &rid in &rids {
                let audience = it.next().unwrap();
                assert_eq!(
                    audience.audience.as_ref().unwrap(),
                    &reads.audience(rid).unwrap(),
                    "{tag}"
                );
                if matches!(deployment, Deployment::Single(_)) {
                    assert_eq!(
                        audience.stats.exported_states, 0,
                        "single-graph reads never cross a boundary"
                    );
                }
                for &m in &members {
                    let check = it.next().unwrap();
                    assert_eq!(check.decision.unwrap(), reads.check(rid, m).unwrap());
                    let explain = it.next().unwrap();
                    assert_eq!(
                        explain.explanation.is_some(),
                        check.decision.unwrap() == Decision::Grant
                    );
                    if let Some(Explanation::Ownership { owner }) = &explain.explanation {
                        assert_eq!(*owner, m, "ownership explanations name the requester");
                    }
                }
            }
        }
    }
}

/// A write naming a member the deployment never registered, or a
/// float the log cannot carry, is a typed refusal on every backend
/// behind every decorator — never a panic.
/// A durable leg logs nothing for it, and its directory still reopens
/// to the same answers.
#[test]
fn unknown_member_ids_are_typed_refusals_everywhere() {
    let wraps = [
        Wrap::Bare,
        Wrap::Durable,
        Wrap::Planned(PlannerMode::Adaptive),
    ];
    for wrap in wraps {
        for (tag, deployment) in deployments().into_iter().enumerate() {
            let (mut svc, rids) = Wrapped::scripted(&deployment, wrap, 100 + tag);
            let tag = format!("{wrap:?} over {}", deployment.describe());
            let unknown = NodeId(svc.reads().num_members() as u32);
            let logged = match &svc {
                Wrapped::Durable(s, _) => s.wal_records(),
                _ => 0,
            };
            let writes = [
                Mutation::SetUserAttr {
                    user: unknown,
                    key: "age".to_owned(),
                    value: 40i64.into(),
                },
                Mutation::AddRelationship {
                    src: NodeId(0),
                    label: "friend".to_owned(),
                    dst: unknown,
                },
                Mutation::AddResource { owner: unknown },
            ];
            for m in &writes {
                match svc.writes().apply(m) {
                    Err(EvalError::Graph(GraphError::UnknownNode(n))) => {
                        assert_eq!(n, unknown, "{m} ({tag})")
                    }
                    other => panic!("{m} ({tag}): expected UnknownNode, got {other:?}"),
                }
            }
            let nan = Mutation::SetUserAttr {
                user: NodeId(0),
                key: "score".to_owned(),
                value: f64::NAN.into(),
            };
            assert!(
                matches!(
                    svc.writes().apply(&nan),
                    Err(EvalError::NonFiniteAttr { .. })
                ),
                "a value the log cannot carry is refused ({tag})"
            );
            assert_eq!(svc.reads().num_members(), unknown.0 as usize, "{tag}");
            if let Wrapped::Durable(s, dir) = &svc {
                assert_eq!(s.wal_records(), logged, "a refusal is never logged ({tag})");
                // A fleet serves one router: reopen over a fresh one.
                let again = match &deployment {
                    Deployment::Networked(spec) => networked(spec.addrs.len()),
                    other => other.clone(),
                };
                let reopened = again.durable(dir).expect("the directory still recovers");
                common::assert_services_agree(svc.reads(), reopened.reads(), &rids);
            }
        }
    }
}

/// Routes agree on decisions **and** cache accounting: one script with
/// owner requests, duplicate requests and already-cached requests is
/// decided under every [`CheckPlan`] on fresh twins of every backend;
/// the decisions are identical and the `cache_stats()` delta is the
/// same — owners count as neither, a cached request is a hit, and a
/// duplicate of an uncached request is one miss then one hit.
#[test]
fn check_routes_agree_on_decisions_and_cache_accounting() {
    let plans = [
        CheckPlan::Targeted,
        CheckPlan::Audience(BundleStrategy::Batched),
        CheckPlan::Audience(BundleStrategy::PerCondition),
    ];
    let mut reference: Option<Vec<Decision>> = None;
    for plan in plans {
        let mut legs = deployments();
        legs.push(networked(2));
        for deployment in legs {
            let mut svc = deployment.build();
            let rids = apply_script(svc.writes());
            let reads = svc.reads();
            let tag = format!("{plan:?} on {}", reads.describe());
            let id = |name: &str| reads.resolve_user(name).unwrap();
            let (album, feed, memo, diary, ring) = (rids[0], rids[1], rids[2], rids[3], rids[4]);

            // Two decisions land in the cache ahead of the batch.
            let cached = [(album, id("Cleo")), (feed, id("Dan"))];
            for (rid, m) in cached {
                reads.check(rid, m).unwrap();
            }
            let owners = [(album, id("Ava")), (diary, id("Edith"))];
            let fresh = [
                (album, id("Ben")),
                (memo, id("Gus")),
                (feed, id("June")),
                (diary, id("Ava")),
                (ring, id("Gus")),
            ];
            let duplicates = [fresh[0], fresh[1], fresh[3]];
            let requests: Vec<(ResourceId, NodeId)> = [
                &owners[..1],
                &fresh[..2],
                &cached[..],
                &duplicates[..2],
                &fresh[2..],
                &owners[1..],
                &duplicates[2..],
            ]
            .concat();

            let (hits0, misses0) = reads.cache_stats();
            assert_eq!((hits0, misses0), (0, cached.len() as u64), "{tag}");
            let (decisions, _) = reads.check_batch_forced(&requests, 1, plan).unwrap();
            let (hits1, misses1) = reads.cache_stats();
            assert_eq!(
                (hits1 - hits0, misses1 - misses0),
                ((cached.len() + duplicates.len()) as u64, fresh.len() as u64),
                "cache accounting ({tag})"
            );
            for (&(rid, m), &d) in requests.iter().zip(&decisions) {
                assert_eq!(d, reads.check(rid, m).unwrap(), "{rid:?}/{m} ({tag})");
            }
            match &reference {
                None => reference = Some(decisions),
                Some(expect) => assert_eq!(&decisions, expect, "{tag}"),
            }
        }
    }
}

/// The uniform [`socialreach_core::ReadStats`] agree on what was
/// evaluated: same deduped condition count on every backend, boundary
/// exports only where shards exist.
#[test]
fn read_stats_are_comparable_across_backends() {
    let mut censuses = Vec::new();
    for deployment in deployments() {
        let mut svc = deployment.build();
        let rids = apply_script(svc.writes());
        let (audiences, stats) = svc.reads().audience_batch_with_stats(&rids).unwrap();
        assert_eq!(audiences.len(), rids.len());
        assert!(stats.conditions >= 5, "{}", svc.reads().describe());
        assert!(stats.traversals >= 1);
        if matches!(deployment, Deployment::Single(_)) {
            assert_eq!(stats.exported_states, 0);
        }
        censuses.push((svc.reads().describe(), stats));
    }
    let conditions = censuses[0].1.conditions;
    for (name, stats) in &censuses {
        assert_eq!(
            stats.conditions, conditions,
            "{name} dedups the same bundle to the same conditions"
        );
    }
}

// ---------------------------------------------------------------------
// Property: the generic harness on random workloads
// ---------------------------------------------------------------------

const LABELS: [&str; 3] = ["friend", "colleague", "parent"];

fn graph_strategy() -> impl Strategy<Value = SocialGraph> {
    (3..11usize).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32, 0..3usize, 10..60i64), 0..30).prop_map(
            move |edges| {
                let mut g = SocialGraph::new();
                for i in 0..n {
                    g.add_node(&format!("u{i}"));
                }
                for l in LABELS {
                    g.intern_label(l);
                }
                for (i, (s, t, l, age)) in edges.iter().enumerate() {
                    let label = g.vocab().label(LABELS[*l]).unwrap();
                    g.add_edge(NodeId(*s), NodeId(*t), label);
                    let node = NodeId((i as u32 + s + t) % n as u32);
                    g.set_node_attr(node, "age", *age);
                }
                g
            },
        )
    })
}

fn path_text_strategy() -> impl Strategy<Value = String> {
    let step = (0..3usize, 0..3usize, 1..3u32, 0..2u32, 0..5usize).prop_map(
        |(label, dir, lo, extra, shape)| {
            let dir = ["+", "-", "*"][dir];
            let hi = lo + extra;
            let depths = match shape {
                0 => format!("[{lo}]"),
                1 => format!("[{lo}..{hi}]"),
                2 => format!("[{lo},{}]", hi + 2),
                3 => format!("[{lo}..]"),
                _ => format!("[{lo}..{hi}]{{age>=30}}"),
            };
            format!("{}{}{}", LABELS[label], dir, depths)
        },
    );
    proptest::collection::vec(step, 1..3).prop_map(|steps| steps.join("/"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The now-generic differential harness, instantiated at
    /// `Deployment::single` vs `Deployment::sharded(4)` on random
    /// graphs × random policies.
    #[test]
    fn single_and_sharded_deployments_agree_on_random_workloads(
        graph in graph_strategy(),
        policies in proptest::collection::vec((0..8u32, path_text_strategy()), 1..4),
    ) {
        let mut g = graph;
        let n = g.num_nodes() as u32;
        let mut store = PolicyStore::new();
        let mut rids = Vec::new();
        for (owner_ix, text) in &policies {
            let rid = store.register_resource(NodeId(owner_ix % n));
            store.allow(rid, text, &mut g).expect("generated paths parse");
            rids.push(rid);
        }

        let single = Deployment::online().from_graph(&g, store.clone());
        let sharded = Deployment::sharded(4, 17).from_graph(&g, store.clone());
        common::assert_services_agree(single.reads(), sharded.reads(), &rids);
    }
}
